"""The identity families, each declared once, and their seeded sweeps.

A family is one identity checked on finite instances.  Each has

* a checker: it takes one instance, computes the identity's sides by
  independent code paths and returns the instance's JSON-ready dict, with
  ``"equal"`` saying whether the sides agree;
* a sweep, ``run_*``: it walks a fixed grid of instances in a fixed order,
  draws any random weights from a seeded generator, calls the checker on
  each instance and returns a report listing every instance with its
  serialized sides, so a failure is reproducible from the report alone;
* one ``Family`` entry in ``FAMILIES``: its command-line subcommand with
  the flags and defaults, how those flags map to a sweep and, for families
  that take ``--shape`` or ``--keys``, to one checked instance; and the
  sizes ``all-verify`` sweeps it at.

The command line builds its verify subcommands from ``FAMILIES`` and
``run_all`` loops over it, so a new family is one checker, one sweep and
one entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Sequence

from .jacobi_trudi import _determinants, verify_palindromic_matrix
from .lattice import (
    _layer_sides,
    _path_determinant,
    _scaled_lgv_signed_sum,
    _scaled_path_sum,
    schur_path_endpoints,
    white,
)
from .rings import ScaledPoly, _same_value, format_numerators
from .shapes import (
    Partition,
    Tableau,
    admissible_baselines,
    bit_tableau_stats,
    build_bit_tableau,
    partitions_up_to,
)
from .values import (
    DiagonalWeights,
    _route_walk,
    _scaled_linear_value,
    _scaled_schur_value,
    coefficient_map_for,
    diagonal_tableau,
    required_offsets,
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


def _rendered(equal: bool, *sides: ScaledPoly) -> list[list]:
    """Each side's JSON, from its undivided value: one text for all when the
    sides agree, else each side's own."""
    if equal:
        return [sides[0].to_json()] * len(sides)
    return [side.to_json() for side in sides]


def _instance_weights(flags, shape: Partition) -> DiagonalWeights:
    """The weights of a single instance: --diagonal, or drawn from --seed
    over the shape's offsets."""
    if flags.diagonal is not None:
        return flags.diagonal
    lo, hi = weight_bounds(flags.ring, None)
    return random_diagonal(random.Random(flags.seed), required_offsets(shape), lo, hi)


# --------------------------------------------------------------------------
# Jacobi-Trudi: Schur value vs. both determinants.

def _check_jt(shape: Partition, N: int, cmap, weights: DiagonalWeights) -> dict:
    schur = _scaled_schur_value(diagonal_tableau(shape, weights), N, cmap)
    det_h, det_e = _determinants(shape, N, cmap, weights)
    equal = schur == det_h and det_h == det_e
    schur_json, det_h_json, det_e_json = _rendered(equal, schur, det_h, det_e)
    return {
        "shape": list(shape.parts),
        "N": N,
        "diagonal": weights.to_json(),
        "schur": schur_json,
        "detH": det_h_json,
        "detE": det_e_json,
        "equal": equal,
    }


def run_jt_sweep(
    max_cells: int = 6,
    n_values: Sequence[int] = (2, 3, 4, 5),
    trials: int = 5,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
) -> dict:
    """Schur value vs. both Jacobi-Trudi determinants on random diagonals."""
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    instances = [
        {**_check_jt(shape, N, cmap, random_diagonal(rng, required_offsets(shape), lo, hi)),
         "trial": trial}
        for shape in partitions_up_to(max_cells)
        for N in n_values
        for trial in range(trials)
    ]
    return _report("jacobi-trudi", instances, ring=ring_spec, seed=seed)


# --------------------------------------------------------------------------
# Conjugation: the value at 1-t vs. the conjugate tableau's value at t.

def _check_conjugation(tableau: Tableau, N: int, cmap) -> dict:
    lhs = _scaled_schur_value(tableau, N, cmap).subs_one_minus_t()
    rhs = _scaled_schur_value(tableau.conjugate(), N, cmap)
    equal = lhs == rhs
    lhs_json, rhs_json = _rendered(equal, lhs, rhs)
    return {
        "shape": list(tableau.shape.parts),
        "N": N,
        "rows": [list(r) for r in tableau.rows],
        "lhs": lhs_json,
        "rhs": rhs_json,
        "equal": equal,
    }


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
    # Weights drawn cell by cell: the symmetry holds for any tableau, not
    # just diagonal-constant ones.
    instances = [
        {**_check_conjugation(
            Tableau(shape, [[rng.randint(lo, hi) for _ in range(p)] for p in shape.parts]),
            N, cmap),
         "trial": trial}
        for shape in partitions_up_to(max_cells)
        for N in n_values
        for trial in range(trials)
    ]
    return _report("conjugation", instances, ring=ring_spec, seed=seed)


# --------------------------------------------------------------------------
# LGV: signed path-system sum vs. path-matrix determinant vs. Schur value.

def _check_lgv(shape: Partition, N: int, cmap, weights: DiagonalWeights) -> dict:
    sources, sinks = schur_path_endpoints(shape, N)
    signed = _scaled_lgv_signed_sum(sources, sinks, cmap, weights)
    det = _path_determinant(sources, sinks, cmap, weights)
    schur = _scaled_schur_value(diagonal_tableau(shape, weights), N, cmap)
    equal = signed == det and det == schur
    signed_json, det_json, schur_json = _rendered(equal, signed, det, schur)
    return {
        "shape": list(shape.parts),
        "N": N,
        "diagonal": weights.to_json(),
        "signed_sum": signed_json,
        "determinant": det_json,
        "schur": schur_json,
        "equal": equal,
    }


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
    instances = [
        _check_lgv(shape, N, cmap, random_diagonal(rng, required_offsets(shape), lo, hi))
        for shape in partitions_up_to(max_cells, include_empty=False)
        for N in range(1, max_n + 1)
    ]
    return _report("lgv", instances, ring=ring_spec, seed=seed)


def _single_lgv(flags) -> dict:
    if flags.shape.size == 0:
        raise ValueError("lgv-verify needs a nonempty shape")
    cmap = coefficient_map_for(flags.ring)
    return _check_lgv(flags.shape, flags.N, cmap, _instance_weights(flags, flags.shape))


# --------------------------------------------------------------------------
# Layer: single-layer signed sums vs. their closed form.

def _check_layer(
    shape: Partition, b: Sequence[int], M: int, cmap, weights: DiagonalWeights
) -> dict:
    bt = build_bit_tableau(shape, b)
    stats = bit_tableau_stats(bt)
    predicted, signed = _layer_sides(bt, stats, M, cmap, weights)
    equal = signed == predicted
    predicted_json, signed_json = _rendered(equal, predicted, signed)
    return {
        "shape": list(shape.parts),
        "b": list(bt.b),
        "M": M,
        "diagonal": weights.to_json(),
        "one_ordered": stats.one_ordered,
        "v1": stats.v1,
        "h1": stats.h1,
        "predicted": predicted_json,
        "signed_sum": signed_json,
        "equal": equal,
    }


def run_layer_sweep(
    max_cells: int = 5,
    max_m: int = 4,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
    extra_instances: Sequence[tuple[Partition, tuple[int, ...]]] = (),
) -> dict:
    """Single-layer signed sums vs. their closed form, over all admissible
    baselines of every small shape, then over the extra (shape, b) pairs."""
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    grid = [
        (shape, b)
        for shape in partitions_up_to(max_cells, include_empty=False)
        for b in admissible_baselines(shape)
    ]
    instances = [
        _check_layer(shape, b, M, cmap, random_diagonal(rng, required_offsets(shape), lo, hi))
        for shape, b in grid + list(extra_instances)
        for M in range(1, max_m + 1)
    ]
    return _report("layer", instances, ring=ring_spec, seed=seed)


def _single_layer(flags) -> dict:
    if flags.b is None:
        raise ValueError("layer-verify with --shape also needs --b")
    cmap = coefficient_map_for(flags.ring)
    weights = _instance_weights(flags, flags.shape)
    instance = _check_layer(flags.shape, flags.b, flags.M, cmap, weights)
    instance["bit_rows"] = [list(r) for r in build_bit_tableau(flags.shape, flags.b).rows]
    return instance


# --------------------------------------------------------------------------
# Path-linear: single-path weight sums vs. direct linear values.

def _check_path_linear(i: int, j: int, N: int, cmap, weights: DiagonalWeights) -> dict:
    by_path = _scaled_path_sum(white(i, N - 1), white(j + 1, 0), cmap, weights)
    direct = _scaled_linear_value([weights[d] for d in range(j, i - 1, -1)], N, cmap)
    equal = by_path == direct
    path_json, linear_json = _rendered(equal, by_path, direct)
    return {
        "start_column": i,
        "end_column": j,
        "N": N,
        "diagonal": weights.to_json(),
        "path_sum": path_json,
        "linear": linear_json,
        "equal": equal,
    }


def run_path_linear_sweep(
    max_r: int = 4,
    max_n: int = 6,
    seed: int = 0,
    ring_spec: str = "rational",
    weight_range: tuple[int, int] | None = None,
) -> dict:
    """Single-path weight sums vs. direct linear values.

    The path runs from the white vertex in column i at height N-1 to the
    white vertex in column j+1 at height 0; its weight sum must equal the
    linear value of the descending offsets a_j, ..., a_i.
    """
    lo, hi = weight_bounds(ring_spec, weight_range)
    cmap = coefficient_map_for(ring_spec)
    rng = random.Random(seed)
    instances = [
        _check_path_linear(i, i + r - 1, N, cmap, random_diagonal(rng, range(i, i + r), lo, hi))
        for i in (-2, 0, 1)
        for r in range(1, max_r + 1)
        for N in range(1, max_n + 1)
    ]
    return _report("path-linear", instances, ring=ring_spec, seed=seed)


# --------------------------------------------------------------------------
# Linear oracles: three routes to one rational linear value.

def _check_linear_oracles(
    keys: tuple, denominator: int, merge_denominator: int, by_bound: list
) -> list[dict]:
    """The instances (keys, N) for N = 1..len(by_bound), from one walk node's
    routes (``values._route_walk``).  The routes' integer numerators are
    compared, the merge expansion's by cross-multiplication when its
    denominator differs (``rings._same_value``); a value the sides agree
    on is rendered once, and a side that disagrees from its own numbers."""
    instances = []
    for N, (direct, recursive, merged) in enumerate(by_bound, start=1):
        shown = format_numerators(recursive, denominator)
        direct_agrees = direct == recursive
        merge_agrees = _same_value(merged, merge_denominator, recursive, denominator)
        instances.append({
            "keys": list(keys),
            "N": N,
            "direct": shown if direct_agrees else format_numerators(direct, denominator),
            "recursion": shown,
            "merge": shown if merge_agrees else format_numerators(merged, merge_denominator),
            "equal": direct_agrees and merge_agrees,
        })
    return instances


def run_oracle_triangle(
    max_r: int = 4,
    max_n: int = 6,
    weight_values: Sequence[int] = (-1, 0, 1, 2, 3),
) -> dict:
    """linear_value == linear_value_by_recursion == merge_expansion on every
    rational tuple drawn from the given weight values, at every N = 1..max_n.

    One depth-first walk over the trie of key tuples (``values._route_walk``)
    extends each route's state by one key per tuple, at max_n, and the
    instances for the smaller N are read off that state.  Each tuple's
    instances are compared and rendered as soon as the walk reaches it, and
    listed by tuple length, then in product order, then by N.  Values are
    divided only as rendered.  A weight value that is not an ``int`` raises
    DomainError before any route runs.
    """
    if max_n < 1 or max_r < 0:
        return _report("linear-oracles", [], ring="rational")
    by_length: list[list[dict]] = [[] for _ in range(max_r + 1)]
    walk = _route_walk([tuple(weight_values)] * max_r, max_n, coefficient_map_for("rational"))
    for keys, *routes in walk:
        by_length[len(keys)] += _check_linear_oracles(keys, *routes)
    return _report("linear-oracles", [inst for group in by_length for inst in group],
                   ring="rational")


# --------------------------------------------------------------------------
# Palindrome: symmetric-window square determinants are fixed by t -> 1-t.

def _check_palindrome(keys: Sequence[int], N: int, cmap) -> dict:
    rep = verify_palindromic_matrix(keys, N, cmap)
    poly, flipped = _rendered(rep.equal, rep.poly_scaled, rep.flipped_scaled)
    return {
        "keys": list(keys),
        "N": N,
        "poly": poly,
        "flipped": flipped,
        "equal": rep.equal,
    }


def run_palindrome_sweep(
    max_r: int = 3,
    max_n: int = 4,
    key_values: Sequence[int] = (2, 3),
) -> dict:
    """Determinants of symmetric-window square shapes are fixed by t -> 1-t."""
    cmap = coefficient_map_for("rational")
    instances = [
        _check_palindrome(keys, N, cmap)
        for r in range(1, max_r + 1)
        for keys in product(key_values, repeat=r)
        for N in range(1, max_n + 1)
    ]
    return _report("palindrome", instances, ring="rational")


# --------------------------------------------------------------------------
# The registry.

@dataclass(frozen=True)
class Family:
    """One identity family as the command line and all-verify see it.

    ``sweep``, ``all_verify`` and ``single`` take flag values as attributes
    (``N``, ``ring``, ``max_cells``, ...), with the JSON-valued flags
    already parsed: ``shape`` a Partition, ``diagonal`` DiagonalWeights or
    None, ``b`` and ``keys`` lists of ints.
    """

    name: str  # the report's identity
    command: str | None  # subcommand; None: checked by all-verify only
    help: str
    flags: dict[str, Any]  # the subcommand's flags -> default (None: unset)
    sweep: Callable[[Any], dict]  # flags -> sweep report
    # all-verify's flags -> sweep report, where its sizes differ from sweep's
    all_verify: Callable[[Any], dict] | None = None
    # flags -> one checked instance, run when --shape or --keys is given
    single: Callable[[Any], dict] | None = None
    notes: bool = False  # the payload carries the reading notes

    @property
    def key(self) -> str:
        """The family's key in all-verify's report."""
        return self.name.replace("-", "_")


_SWEEP_FLAGS = {"N": 4, "max_cells": 4, "seed": 0, "ring": "rational"}

FAMILIES = (
    Family(
        "jacobi-trudi", "jt-verify", "check the Jacobi-Trudi determinants",
        {"shape": None, "diagonal": None, "trials": 2, **_SWEEP_FLAGS},
        sweep=lambda f: run_jt_sweep(
            max_cells=f.max_cells, n_values=tuple(range(2, f.N + 1)), trials=f.trials,
            seed=f.seed, ring_spec=f.ring),
        single=lambda f: _check_jt(
            f.shape, f.N, coefficient_map_for(f.ring), _instance_weights(f, f.shape)),
        notes=True,
    ),
    Family(
        "lgv", "lgv-verify", "check the LGV identity for Schur values",
        {"shape": None, "diagonal": None, **_SWEEP_FLAGS},
        sweep=lambda f: run_lgv_sweep(
            max_cells=f.max_cells, max_n=f.N, seed=f.seed, ring_spec=f.ring),
        all_verify=lambda f: run_lgv_sweep(
            max_cells=min(f.max_cells, 4), max_n=f.N, seed=f.seed, ring_spec=f.ring),
        single=_single_lgv,
    ),
    Family(
        "conjugation", "conjugation-verify", "check the conjugation symmetry",
        {"trials": 2, **_SWEEP_FLAGS},
        sweep=lambda f: run_conjugation_sweep(
            max_cells=f.max_cells, n_values=tuple(range(1, f.N + 1)), trials=f.trials,
            seed=f.seed, ring_spec=f.ring),
        all_verify=lambda f: run_conjugation_sweep(
            max_cells=f.max_cells, n_values=tuple(range(2, f.N + 1)), trials=f.trials,
            seed=f.seed, ring_spec=f.ring),
    ),
    Family(
        "layer", "layer-verify", "check single-layer signed sums",
        {"shape": None, "b": None, "diagonal": None, "M": 3, "max_cells": 4, "seed": 0,
         "ring": "rational"},
        sweep=lambda f: run_layer_sweep(
            max_cells=f.max_cells, max_m=f.M, seed=f.seed, ring_spec=f.ring),
        all_verify=lambda f: run_layer_sweep(
            max_cells=min(f.max_cells, 4), max_m=min(f.N, 3), seed=f.seed, ring_spec=f.ring),
        single=_single_layer,
        notes=True,
    ),
    Family(
        "palindrome", "palindrome-verify", "check t -> 1-t symmetric determinants",
        {"keys": None, "N": 4, "max_r": 3},
        sweep=lambda f: run_palindrome_sweep(max_r=f.max_r, max_n=f.N),
        all_verify=lambda f: run_palindrome_sweep(max_r=3, max_n=min(f.N, 4)),
        single=lambda f: _check_palindrome(f.keys, f.N, coefficient_map_for("rational")),
    ),
    Family(
        "linear-oracles", "linear-verify", "cross-check the three linear-value routes",
        {"N": 4, "max_r": 3},
        sweep=lambda f: run_oracle_triangle(max_r=f.max_r, max_n=f.N),
        all_verify=lambda f: run_oracle_triangle(max_r=3, max_n=f.N),
    ),
    Family(
        "path-linear", None, "check single-path sums against linear values", {},
        sweep=lambda f: run_path_linear_sweep(max_r=3, max_n=f.N, seed=f.seed, ring_spec=f.ring),
    ),
)


def run_all(flags) -> dict:
    """Bounded pass over every identity family; the CLI's all-verify, on
    its parsed flags (``N``, ``max_cells``, ``trials``, ``seed``, ``ring``)."""
    families = {
        family.key: (family.all_verify or family.sweep)(flags) for family in FAMILIES
    }
    return {
        "identity": "all",
        "pass": all(rep["pass"] for rep in families.values()),
        "checked": sum(rep["checked"] for rep in families.values()),
        "summary": {
            name: {"pass": rep["pass"], "checked": rep["checked"]}
            for name, rep in families.items()
        },
        "families": families,
    }
