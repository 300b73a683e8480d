"""Deterministic verification sweeps over families of identities.

Every sweep walks a grid of instances in a fixed order, draws any random
weights from a seeded generator, checks the identity on each instance with
both sides computed by independent code paths, and returns a JSON-friendly
report.  Reports list every instance with its serialized sides so a failure
is fully reproducible from the report alone.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Any, Iterable, Sequence

from .jacobi_trudi import verify_jacobi_trudi, verify_palindromic_matrix
from .lattice import (
    layer_check,
    lgv_determinant,
    path_weight_sum,
    schur_path_endpoints,
    schur_scenario_sum,
    white,
)
from .shapes import Partition, Tableau, admissible_baselines, partitions_up_to
from .values import (
    DiagonalWeights,
    coefficient_map_for,
    diagonal_tableau,
    linear_value,
    linear_value_by_recursion,
    merge_expansion,
    required_offsets,
    schur_value,
)


def weight_bounds(ring_spec: str, requested: tuple[int, int] | None) -> tuple[int, int]:
    """Clamp a weight range to the map's domain (q/qsym need labels >= 1)."""
    lo, hi = requested if requested is not None else (-2, 3)
    if ring_spec != "rational":
        lo = max(lo, 1)
        hi = max(hi, lo)
    return (lo, hi)


def random_diagonal(rng: random.Random, offsets: Iterable[int], lo: int, hi: int) -> DiagonalWeights:
    return DiagonalWeights({d: rng.randint(lo, hi) for d in offsets})


def _report(identity: str, instances: list[dict], **extra: Any) -> dict:
    failures = [inst for inst in instances if not inst["equal"]]
    report = {
        "identity": identity,
        "checked": len(instances),
        # A sweep that checked nothing has shown nothing.
        "pass": bool(instances) and not failures,
        "failures": failures,
        "instances": instances,
    }
    report.update(extra)
    return report


def run_jt_sweep(
    max_cells: int = 6,
    n_values: Sequence[int] = (2, 3, 4, 5),
    trials: int = 5,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
    shapes: Sequence[Partition] | None = None,
) -> dict:
    """Schur value vs. both Jacobi-Trudi determinants on random diagonals."""
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    if shapes is None:
        shapes = list(partitions_up_to(max_cells))
    instances = []
    for shape in shapes:
        for N in n_values:
            for trial in range(trials):
                weights = random_diagonal(rng, required_offsets(shape), lo, hi)
                rep = verify_jacobi_trudi(shape, N, cmap, weights)
                instances.append(
                    {
                        "shape": list(shape.parts),
                        "N": N,
                        "trial": trial,
                        "diagonal": weights.to_json(),
                        "schur": rep.schur.to_json(),
                        "detH": rep.det_h.to_json(),
                        "detE": rep.det_e.to_json(),
                        "equal": rep.equal,
                    }
                )
    return _report("jacobi-trudi", instances, ring=ring_spec, seed=seed)


def run_conjugation_sweep(
    max_cells: int = 6,
    n_values: Sequence[int] = (2, 3, 4, 5),
    trials: int = 5,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
) -> dict:
    """schur(k) at 1-t vs. schur(conjugate k) at t on random tableaux."""
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    instances = []
    for shape in partitions_up_to(max_cells):
        for N in n_values:
            for trial in range(trials):
                # Weights drawn cell by cell: the symmetry holds for any
                # tableau, not just diagonal-constant ones.
                rows = tuple(
                    tuple(rng.randint(lo, hi) for _ in range(p)) for p in shape.parts
                )
                tableau = Tableau(shape, rows)
                lhs = schur_value(tableau, N, cmap).subs_one_minus_t()
                rhs = schur_value(tableau.conjugate(), N, cmap)
                instances.append(
                    {
                        "shape": list(shape.parts),
                        "N": N,
                        "trial": trial,
                        "rows": [list(r) for r in rows],
                        "lhs": lhs.to_json(),
                        "rhs": rhs.to_json(),
                        "equal": lhs == rhs,
                    }
                )
    return _report("conjugation", instances, ring=ring_spec, seed=seed)


def run_lgv_sweep(
    max_cells: int = 5,
    max_n: int = 5,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
) -> dict:
    """Signed path-system sum vs. path-matrix determinant vs. Schur value."""
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    instances = []
    for shape in partitions_up_to(max_cells, include_empty=False):
        for N in range(1, max_n + 1):
            weights = random_diagonal(rng, required_offsets(shape), lo, hi)
            signed = schur_scenario_sum(shape, N, cmap, weights)
            sources, sinks = schur_path_endpoints(shape, N)
            det = lgv_determinant(sources, sinks, cmap, weights)
            schur = schur_value(diagonal_tableau(shape, weights), N, cmap)
            equal = signed == det and det == schur
            instances.append(
                {
                    "shape": list(shape.parts),
                    "N": N,
                    "diagonal": weights.to_json(),
                    "signed_sum": signed.to_json(),
                    "determinant": det.to_json(),
                    "schur": schur.to_json(),
                    "equal": equal,
                }
            )
    return _report("lgv", instances, ring=ring_spec, seed=seed)


def run_layer_sweep(
    max_cells: int = 5,
    max_m: int = 4,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
    extra_instances: Sequence[tuple[Partition, tuple[int, ...]]] = (),
) -> dict:
    """Single-layer signed sums vs. their closed form, over all admissible
    baselines of every small shape."""
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    instances = []

    def check(shape: Partition, b: tuple[int, ...], M: int) -> None:
        weights = random_diagonal(rng, required_offsets(shape), lo, hi)
        rep = layer_check(shape, b, M, cmap, weights)
        instances.append(
            {
                "shape": list(shape.parts),
                "b": list(b),
                "M": M,
                "diagonal": weights.to_json(),
                "one_ordered": rep.stats.one_ordered,
                "v1": rep.stats.v1,
                "h1": rep.stats.h1,
                "predicted": rep.predicted.to_json(),
                "signed_sum": rep.signed_sum.to_json(),
                "equal": rep.equal,
            }
        )

    for shape in partitions_up_to(max_cells, include_empty=False):
        for b in admissible_baselines(shape):
            for M in range(1, max_m + 1):
                check(shape, b, M)
    for shape, b in extra_instances:
        for M in range(1, max_m + 1):
            check(shape, tuple(b), M)
    return _report("layer", instances, ring=ring_spec, seed=seed)


def run_path_linear_sweep(
    max_r: int = 4,
    max_n: int = 6,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
    column_starts: Sequence[int] = (-2, 0, 1),
) -> dict:
    """Single-path weight sums vs. direct linear values.

    The path runs from the white vertex in column i at height N-1 to the
    white vertex in column j+1 at height 0; its weight sum must equal the
    linear value of the descending offsets a_j, ..., a_i.
    """
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    instances = []
    for i in column_starts:
        for r in range(1, max_r + 1):
            j = i + r - 1
            for N in range(1, max_n + 1):
                weights = random_diagonal(rng, range(i, j + 1), lo, hi)
                by_path = path_weight_sum(white(i, N - 1), white(j + 1, 0), cmap, weights)
                keys = [weights[j - s] for s in range(r)]
                direct = linear_value(keys, N, cmap)
                instances.append(
                    {
                        "start_column": i,
                        "end_column": j,
                        "N": N,
                        "diagonal": weights.to_json(),
                        "path_sum": by_path.to_json(),
                        "linear": direct.to_json(),
                        "equal": by_path == direct,
                    }
                )
    return _report("path-linear", instances, ring=ring_spec, seed=seed)


def run_oracle_triangle(
    max_r: int = 4,
    max_n: int = 6,
    weight_values: Sequence[int] = (-1, 0, 1, 2, 3),
) -> dict:
    """linear_value == linear_value_by_recursion == merge_expansion on every
    rational tuple drawn from the given weight values."""
    cmap = coefficient_map_for("rational")
    instances = []
    for r in range(0, max_r + 1):
        for keys in product(weight_values, repeat=r):
            for N in range(1, max_n + 1):
                direct = linear_value(keys, N, cmap)
                recursive = linear_value_by_recursion(keys, N, cmap)
                merged = merge_expansion(keys, N)
                equal = direct == recursive and recursive == merged
                instances.append(
                    {
                        "keys": list(keys),
                        "N": N,
                        "direct": direct.to_json(),
                        "recursion": recursive.to_json(),
                        "merge": merged.to_json(),
                        "equal": equal,
                    }
                )
    return _report("linear-oracles", instances, ring="rational")


def run_palindrome_sweep(
    max_r: int = 3,
    max_n: int = 4,
    key_values: Sequence[int] = (2, 3),
) -> dict:
    """Determinants of symmetric-window square shapes are fixed by t -> 1-t."""
    instances = []
    for r in range(1, max_r + 1):
        for keys in product(key_values, repeat=r):
            for N in range(1, max_n + 1):
                rep = verify_palindromic_matrix(keys, N)
                instances.append(
                    {
                        "keys": list(keys),
                        "N": N,
                        "poly": rep.poly.to_json(),
                        "flipped": rep.flipped.to_json(),
                        "equal": rep.equal,
                    }
                )
    return _report("palindrome", instances, ring="rational")


def run_all(
    max_cells: int = 4,
    max_n: int = 4,
    trials: int = 2,
    seed: int = 0,
    ring_spec: str = "rational",
) -> dict:
    """Bounded pass over every identity family; the CLI's all-verify."""
    n_values = tuple(range(2, max_n + 1))
    families = {
        "jacobi_trudi": run_jt_sweep(
            max_cells=max_cells, n_values=n_values, trials=trials, seed=seed,
            ring_spec=ring_spec,
        ),
        "conjugation": run_conjugation_sweep(
            max_cells=max_cells, n_values=n_values, trials=trials, seed=seed,
            ring_spec=ring_spec,
        ),
        "lgv": run_lgv_sweep(
            max_cells=min(max_cells, 4), max_n=max_n, seed=seed, ring_spec=ring_spec
        ),
        "layer": run_layer_sweep(
            max_cells=min(max_cells, 4), max_m=min(max_n, 3), seed=seed,
            ring_spec=ring_spec,
        ),
        "path_linear": run_path_linear_sweep(
            max_r=3, max_n=max_n, seed=seed, ring_spec=ring_spec
        ),
        "linear_oracles": run_oracle_triangle(max_r=3, max_n=max_n),
        "palindrome": run_palindrome_sweep(max_r=3, max_n=min(max_n, 4)),
    }
    summary = {
        name: {"pass": rep["pass"], "checked": rep["checked"]}
        for name, rep in families.items()
    }
    return {
        "identity": "all",
        "pass": all(rep["pass"] for rep in families.values()),
        "checked": sum(rep["checked"] for rep in families.values()),
        "summary": summary,
        "families": families,
    }
