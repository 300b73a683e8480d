"""schurzeta benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``; there
is nothing to build.  One caller issues each timed call when the previous
one has returned.  Set-up (a fresh import of the package, coefficient maps,
seeded inputs) runs three times before the first timed call and once
between passes; ``setup_s`` is the median.  Then

* ``--trace 0`` repeats untraced passes over the workload while the next
  one still fits in ``--seconds`` (at least one), and reports the
  end-to-end metrics as medians over the passes;
* ``--trace 1`` makes a traced pass between two untraced ones and reports
  the per-layer metrics of the traced pass, plus the tracing overhead.  The
  spans go to ``bench/out/``.

Times are in reference seconds (see ``timed``).  Every output is checked
outside the timed region.  The last line of stdout is the result object;
the line before it records the environment and the per-item times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3

# Times are reported in reference seconds: wall time scaled by how fast the
# machine runs a fixed calibration loop right around the timed call.  On a
# shared machine the interpreter's speed drifts by up to 1.5x over seconds
# to minutes; scaling removes most of that drift (see README.md).
REFERENCE_S = 0.002  # the calibration loop's time on the reference machine

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "instances_per_s": "1/s",
    "largest_s": "s",
    "peak_rss_mb": "MB",
}


def load_package() -> SimpleNamespace:
    """Import schurzeta afresh from src/, every layer module included."""
    if not (SRC / "schurzeta" / "__init__.py").is_file():
        raise SystemExit(f"schurzeta sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "schurzeta" or n.startswith("schurzeta.")]:
        del sys.modules[name]
    api = SimpleNamespace(package=importlib.import_module("schurzeta"))
    for layer in tracing.LAYERS:
        setattr(api, layer, importlib.import_module(f"schurzeta.{layer}"))
    return api


def _calibration_loop() -> Fraction:
    """Fixed interpreter-bound work like the package's inner loops: exact
    rational sums and dictionary updates keyed by tuples."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 600):
        total += Fraction(1, i)
        seen[(i, i % 7)] = total.denominator % 97
    return total


def calibration_s() -> float:
    """How long the calibration loop takes right now (median of three)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class _Sampler:
    """Runs the calibration loop every SAMPLE_PERIOD_S of wall time while a
    call is timed, from a SIGALRM handler in the calling thread, so that the
    machine's speed is known across long calls and not only at their ends."""

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self, signum, frame):
        start = perf_counter()
        _calibration_loop()
        self.samples.append(perf_counter() - start)


SAMPLE_PERIOD_S = 0.1


def timed(call):
    """Run call(); return (result, wall seconds, reference seconds).  Wall
    time excludes the sampler's own runs."""
    sampler = _Sampler()
    before = calibration_s()
    previous = signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    start = perf_counter()
    try:
        result = call()
    finally:
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = calibration_s()
    wall -= sum(sampler.samples)
    speed = statistics.fmean([before, after] + sampler.samples)
    return result, wall, wall * REFERENCE_S / speed


def setup(workload: str, seed: int, tiny: bool):
    api = load_package()
    items = WORKLOADS[workload](api, random.Random(seed), tiny)
    return api, items


def assert_untraced(api) -> None:
    """Fail unless every function and operator of the package is its
    original, unwrapped self."""
    for module in tracing.package_modules(api):
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if tracing.is_traced(obj):
                    raise RuntimeError(f"{owner.__name__}.{attr} is still traced")


def run_pass(items, tracer=None) -> dict:
    """One pass over the items: reference and wall seconds per item, and
    each item's output (or the exception it raised)."""
    gc.collect()
    times, wall, outputs = {}, {}, {}
    for item in items:
        close = tracer.root(item.name) if tracer else None
        try:
            outputs[item.name], wall[item.name], times[item.name] = timed(item.run)
        except Exception as exc:  # a raising call is a failed instance
            traceback.print_exc()
            outputs[item.name], wall[item.name], times[item.name] = exc, 0.0, 0.0
        finally:
            if close:
                close()
    return {"verdict_s": sum(times.values()), "times": times, "wall": wall, "outputs": outputs}


def check_pass(items, result: dict, reference: dict | None) -> tuple[int, int]:
    """(attempted, failed) for a pass.  The first pass is checked in full;
    later passes must reproduce its outputs exactly."""
    attempted = failed = 0
    for item in items:
        attempted += item.instances
        out = result["outputs"][item.name]
        if isinstance(out, Exception):
            bad = item.instances
        elif reference is None:
            try:
                bad = item.check(out)
            except Exception:
                traceback.print_exc()
                bad = item.instances
        else:
            bad = 0 if out == reference["outputs"][item.name] else item.instances
        failed += bad
    return attempted, failed


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "schurzeta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def largest_item(items):
    return next(item for item in items if item.largest)


def end_to_end(items, passes, setup_s) -> dict:
    """Medians over the passes, in reference seconds."""
    instances = sum(item.instances for item in items)
    largest = largest_item(items).name
    return {
        "setup_s": setup_s,
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "instances_per_s": statistics.median(instances / p["verdict_s"] for p in passes),
        "largest_s": statistics.median(p["times"][largest] for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


# Traced names reported with their call counts and self times.
COUNTED = [
    "values.schur_value", "rings.ring_determinant", "values.linear_value",
    "rings.TPoly.add", "rings.TPoly.mul", "rings.QSeries.mul",
    "rings.MonomialPolynomial.add", "rings.MonomialPolynomial.mul",
    "lattice.path_weight_sum",
]
SELF_TIMED = COUNTED + [
    "values.linear_value_by_recursion", "values.merge_expansion",
    "rings.TPoly.subs_one_minus_t",
    "lattice.lgv_signed_sum", "lattice.lgv_determinant", "lattice.layer_check",
    "jacobi_trudi.verify_jacobi_trudi", "jacobi_trudi.verify_palindromic_matrix",
    "cli.main",
]
SWEEP_FAMILIES = [
    "jt-rational", "jt-qseries8", "jt-qsym", "conjugation", "lgv", "layer",
    "path-linear", "linear-oracles", "palindrome", "all",
]


def per_layer(tracer, traced: dict, untraced_s: float, failed_ratio: float) -> dict:
    stats = tracer.stats

    def get(name: str, field: str):
        stat = stats.get(name)
        return getattr(stat, field) if stat else 0

    metrics = {
        "shapes.iter_filling_rows.fillings": (get("shapes.iter_filling_rows", "items"), "count"),
        "shapes.iter_filling_rows.s": (get("shapes.iter_filling_rows", "total"), "s"),
        "lattice.path_systems": (get("lattice.enumerate_path_systems", "items"), "count"),
        "rings.ring_determinant.max_n": (get("rings.ring_determinant", "peak"), "count"),
        "rings.MonomialPolynomial.terms_max": (
            max(get("rings.MonomialPolynomial.add", "peak"),
                get("rings.MonomialPolynomial.mul", "peak")),
            "count"),
    }
    for name in COUNTED:
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (get(name, "self"), "s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.layer_self(layer), "s")
    families = tracer.outermost_seconds("sweeps")
    for family in SWEEP_FAMILIES:
        metrics[f"sweeps.{family}.s"] = (families.get(family, 0.0), "s")
    report_bytes = sum(
        len(out[1].encode()) for out in traced["outputs"].values()
        if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str)
    )
    metrics["cli.report_bytes"] = (report_bytes, "bytes")
    metrics["trace.overhead_s"] = (traced["verdict_s"] - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["gate.failed_ratio"] = (failed_ratio, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run: returns the details line, the result line and the
    tracer (None when untraced)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        (api, items), _, ref_s = timed(lambda: setup(workload, seed, tiny))
        setups.append(ref_s)

    assert_untraced(api)
    attempted = failed = 0
    passes = []
    reference = None
    if not trace:
        start = perf_counter()
        while True:
            result = run_pass(items)
            a, f = check_pass(items, result, reference)
            attempted, failed = attempted + a, failed + f
            if reference is None:
                reference = result
            else:
                result["outputs"] = None  # keep one pass's outputs alive, not all
            passes.append(result)
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
            setups.append(timed(lambda: setup(workload, seed, tiny))[2])
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end(items, passes, statistics.median(setups)).items()
        }
        tracer = None
    else:
        # Untraced passes on both sides of the traced one, so that a drift
        # in machine speed does not read as tracing overhead.
        before = run_pass(items)
        tracer = tracing.Tracer()
        tracer.install(api)
        try:
            traced = run_pass(items, tracer)
        finally:
            tracer.uninstall()
        assert_untraced(api)
        after = run_pass(items)
        passes = [before, traced, after]
        for result, reference in ((before, None), (traced, None), (after, before)):
            a, f = check_pass(items, result, reference)
            attempted, failed = attempted + a, failed + f
        untraced_s = (before["verdict_s"] + after["verdict_s"]) / 2
        metrics = per_layer(tracer, traced, untraced_s, failed / attempted)

    details = {
        "env": environment(workload, seed, seconds, int(trace)),
        "passes": len(passes),
        "setup_runs_s": setups,
        "item_s": {
            item.name: statistics.median(p["times"][item.name] for p in passes)
            for item in items
        },
        "item_wall_s": {
            item.name: statistics.median(p["wall"][item.name] for p in passes)
            for item in items
        },
        "largest_item": largest_item(items).name,
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, line, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    details, line, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path)
        details["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
