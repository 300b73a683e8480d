"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workloads det-wide,acceptance --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --traced --out bench/BENCH_baseline.json

Run from the repository root.  Each run is a separate ``bench/run.py``
process, one after another, with ``run_seconds`` from BENCHMARK.json.  For
every end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound is flagged.  ``--traced`` adds one traced run
per workload, with the first seed, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {"run_seconds": config["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            details, line = run_once(config, workload, seed, 0)
            if not line["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect, {line['failed']} failed", file=sys.stderr)
            runs.append(line["metrics"])
        entry = {"env": details["env"], "metrics": {}}
        for name, bound in bounds.items():
            stats = summarise([m[name]["value"] for m in runs])
            stats["unit"] = runs[0][name]["unit"]
            entry["metrics"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:16s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
        if args.traced:
            _, line = run_once(config, workload, seeds[0], 1)
            entry["per_layer"] = line["metrics"]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
