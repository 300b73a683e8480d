"""Self-test of the benchmark, on tiny sizes of every workload.

    python3 bench/selftest.py

Run from the repository root; exits 0 when every check holds.  It checks
that

* every metric BENCHMARK.json names is reported, with its unit, traced and
  untraced, and every output passes its correctness check;
* traced counts equal counts known from the inputs: fillings equal the sum
  of ``count_oyt`` over the Schur values computed, and
  ``ring_determinant`` runs twice per Jacobi-Trudi instance and once per
  LGV and palindrome instance;
* after the tracer is removed every function is the original object again,
  so untraced passes run unwrapped code;
* without the package sources, ``run.py`` exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def metric_names(config: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in config[key]}


def check_reported(config: dict) -> dict[str, dict]:
    """Both modes of every workload; returns the traced metrics."""
    traced = {}
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            _, line, _ = run.run(workload, SEED, 0.05, trace, tiny=True)
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{workload} trace={trace}: {line['failed']} of {line['attempted']} failed")
            expected = metric_names(config, key)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            check(got == expected, f"{workload} trace={trace}: metrics {got} != {expected}")
            for name, m in line["metrics"].items():
                check(isinstance(m["value"], (int, float)), f"{name} is not a number")
            if not trace:
                for name in ("setup_s", "verdict_s", "largest_s", "instances_per_s"):
                    check(line["metrics"][name]["value"] > 0, f"{workload}: {name} is 0")
        traced[workload] = {name: m["value"] for name, m in line["metrics"].items()}
    return traced


def check_counts(traced: dict[str, dict]) -> None:
    for workload, metrics in traced.items():
        api, items = run.setup(workload, SEED, tiny=True)
        families: dict[str, int] = {}
        for item in items:
            for family, n in item.counts.items():
                families[family] = families.get(family, 0) + n
        determinants = (
            2 * families.get("jacobi_trudi", 0) + families.get("lgv", 0)
            + families.get("palindrome", 0)
        )
        got = metrics["rings.ring_determinant.calls"]
        check(got == determinants, f"{workload}: {got} determinants, expected {determinants}")
        shapes = [shape_n for item in items for shape_n in item.shapes]
        if shapes or workload == "det-wide":
            fillings = sum(api.shapes.count_oyt(shape, N) for shape, N in shapes)
            got = metrics["shapes.iter_filling_rows.fillings"]
            check(got == fillings, f"{workload}: {got} fillings, expected {fillings}")
            got = metrics["values.schur_value.calls"]
            check(got == len(shapes), f"{workload}: {got} schur_value calls")


def check_unwrapped() -> None:
    api, _ = run.setup("acceptance", SEED, tiny=True)
    owners = [m for m in tracing.package_modules(api)] + [
        api.rings.TPoly, api.rings.QSeries, api.rings.MonomialPolynomial]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        check(tracing.is_traced(api.jacobi_trudi.linear_value),
              "a name imported with `from .values import` was not wrapped")
        check(tracing.is_traced(api.rings.TPoly.__mul__), "TPoly.__mul__ was not wrapped")
        try:
            run.assert_untraced(api)
        except RuntimeError:
            pass
        else:
            raise AssertionError("assert_untraced missed an installed tracer")
    finally:
        tracer.uninstall()
    run.assert_untraced(api)
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        changed = [k for k in old.keys() | new.keys() if old.get(k) is not new.get(k)]
        check(not changed, f"{owner.__name__}: {changed} not restored")


def check_bare_directory(config: dict) -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in config["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    argv = list(config["command"]) + [
        "--workload", config["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "run.py succeeded without the package sources")
    check('"metrics"' not in proc.stdout, "run.py printed a result without the package sources")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = check_reported(config)
    check_counts(traced)
    check_unwrapped()
    check_bare_directory(config)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
