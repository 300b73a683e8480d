"""End-to-end acceptance criteria.

Each test sweeps one identity family at the full advertised bounds and
demands exact (zero-tolerance) polynomial equality on every instance.  A
pass/fail line per criterion is printed; run with `pytest -s` to see them
as they complete.
"""

import json
from pathlib import Path

from schurzeta.shapes import Partition, count_oyt, partitions_up_to
from schurzeta.sweeps import (
    run_conjugation_sweep,
    run_jt_sweep,
    run_layer_sweep,
    run_lgv_sweep,
    run_oracle_triangle,
    run_palindrome_sweep,
    run_path_linear_sweep,
)

from filling_enumeration import brute_force_count_oyt

GOLDEN = Path(__file__).parent / "golden" / "oyt_counts.json"


def _announce(name: str, report: dict) -> None:
    status = "PASS" if report["pass"] else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({report['checked']} instances)")


def _first_failures(report: dict) -> list:
    return report["failures"][:3]


def test_acceptance_jacobi_trudi_sweep():
    """Every partition with at most 6 cells, N in 2..5, 5 seeded random
    diagonals with labels in [-2, 3]: Schur value = det H = det E exactly."""
    report = run_jt_sweep(
        max_cells=6, n_values=(2, 3, 4, 5), trials=5, seed=11,
        ring_spec="rational", weight_range=(-2, 3),
    )
    _announce("jacobi-trudi", report)
    assert report["pass"], _first_failures(report)
    shapes = {tuple(inst["shape"]) for inst in report["instances"]}
    assert len(shapes) == sum(1 for _ in partitions_up_to(6))


def test_acceptance_conjugation_sweep():
    """Same instance grid: value at 1-t equals the conjugate's value at t."""
    report = run_conjugation_sweep(
        max_cells=6, n_values=(2, 3, 4, 5), trials=5, seed=12,
        ring_spec="rational", weight_range=(-2, 3),
    )
    _announce("conjugation", report)
    assert report["pass"], _first_failures(report)


def test_acceptance_lgv_cross_check():
    """All shapes with at most 5 cells, N up to 5: the signed path-system
    sum equals the path-matrix determinant and the direct Schur value."""
    report = run_lgv_sweep(max_cells=5, max_n=5, seed=13)
    _announce("lgv", report)
    assert report["pass"], _first_failures(report)


def test_acceptance_path_weight_sums():
    """Single-path weight sums, one-entry path-sum matrices, equal linear
    values for lengths up to 4 and N up to 6."""
    report = run_path_linear_sweep(max_r=4, max_n=6, seed=14)
    _announce("path-linear", report)
    assert report["pass"], _first_failures(report)


def test_acceptance_layer_identity():
    """All shapes with at most 5 cells, every admissible baseline, M up to
    4, plus the worked (4,2,2,1)/(2,1,1,0) instance with v1=2, h1=1."""
    worked = (Partition((4, 2, 2, 1)), (2, 1, 1, 0))
    report = run_layer_sweep(
        max_cells=5, max_m=4, seed=15, extra_instances=[worked]
    )
    _announce("layer", report)
    assert report["pass"], _first_failures(report)
    worked_instances = [
        inst for inst in report["instances"]
        if inst["shape"] == [4, 2, 2, 1] and inst["b"] == [2, 1, 1, 0]
    ]
    assert worked_instances
    for inst in worked_instances:
        assert inst["one_ordered"] and inst["v1"] == 2 and inst["h1"] == 1


def test_acceptance_linear_oracle_triangle():
    """Direct enumeration, the peeling recursion and the merge expansion
    agree on every tuple of length up to 4 with labels in [-1, 3], N up
    to 6."""
    report = run_oracle_triangle(max_r=4, max_n=6, weight_values=(-1, 0, 1, 2, 3))
    _announce("linear-oracles", report)
    assert report["pass"], _first_failures(report)


def test_acceptance_generic_rings():
    """The determinant sweep also holds over truncated q-series (order 8)
    and integer monomial polynomials, with labels >= 1 and smaller grids."""
    q_report = run_jt_sweep(
        max_cells=4, n_values=(1, 2, 3, 4), trials=5, seed=16,
        ring_spec="qseries:8", weight_range=(1, 3),
    )
    _announce("jacobi-trudi/qseries", q_report)
    assert q_report["pass"], _first_failures(q_report)

    qsym_report = run_jt_sweep(
        max_cells=4, n_values=(1, 2, 3, 4), trials=5, seed=17,
        ring_spec="qsym", weight_range=(1, 3),
    )
    _announce("jacobi-trudi/qsym", qsym_report)
    assert qsym_report["pass"], _first_failures(qsym_report)


def test_acceptance_palindrome():
    """Symmetric-window determinants are fixed by t -> 1-t for up to three
    keys drawn from {2, 3} and N up to 4."""
    report = run_palindrome_sweep(max_r=3, max_n=4, key_values=(2, 3))
    _announce("palindrome", report)
    assert report["pass"], _first_failures(report)


def test_acceptance_enumeration_ground_truth():
    """Ordered-filling counts match the unconstrained brute-force filter
    and the frozen golden values; the 2x2 shape at N=4 gives 17."""
    golden = json.loads(GOLDEN.read_text())
    ok = True
    for key, expected in golden.items():
        parts_text, n_text = key.split("|")
        shape = Partition(int(p) for p in parts_text.split(",") if p)
        N = int(n_text)
        ok = ok and count_oyt(shape, N) == expected == brute_force_count_oyt(shape, N)
    print(f"ACCEPTANCE oyt-counts: {'PASS' if ok else 'FAIL'} ({len(golden)} instances)")
    assert ok
    assert golden["2,2|4"] == 17
