"""The benchmark's workloads: seeded inputs, timed calls and output checks.

Each workload is a list of items.  An item is one timed call into
schurzeta's public API (or into ``cli.main``), the number of instances it
checks or values it computes, and a check run on its output outside the
timed region.  Items look functions up on their module at call time, so a
traced pass goes through the tracer's wrappers and an untraced pass through
the original functions.

Every workload is built from an ``api`` namespace holding the freshly
imported schurzeta modules and a ``random.Random`` seeded by the benchmark's
``--seed``; the package itself only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable

# Flag values of `schurzeta all-verify` when none is given.  The benchmark
# passes only --seed, so a change to these defaults changes the workload;
# the instance-count check below then reports it as a failure.
ALL_VERIFY_DEFAULTS = {"max_cells": 4, "N": 4, "trials": 2}


@dataclass
class Item:
    """One timed call.

    ``counts`` maps each identity family the call checks to its number of
    instances; ``check`` returns how many of them failed, given the call's
    output, and runs outside the timed region.
    """

    name: str
    run: Callable[[], Any]
    counts: dict[str, int]
    check: Callable[[Any], int]
    shapes: list = field(default_factory=list)  # (Partition, N) per Schur value
    largest: bool = False  # the workload's named largest item

    @property
    def instances(self) -> int:
        return sum(self.counts.values())


# --------------------------------------------------------------------------
# Grid sizes, counted from the same enumerations the sweeps walk.

def _count(iterable) -> int:
    return sum(1 for _ in iterable)


def _n_shapes(api, max_cells: int, include_empty: bool = True) -> int:
    return _count(api.shapes.partitions_up_to(max_cells, include_empty=include_empty))


def _n_baselines(api, max_cells: int) -> int:
    shapes = api.shapes
    return sum(
        _count(shapes.admissible_baselines(s))
        for s in shapes.partitions_up_to(max_cells, include_empty=False)
    )


def _sweep_check(expected: int) -> Callable[[dict], int]:
    """A sweep report fails wholesale if it checked another number of
    instances than its grid holds, otherwise per failing instance."""

    def check(report: dict) -> int:
        if report["checked"] != expected:
            return expected
        return len(report["failures"]) or (0 if report["pass"] else expected)

    return check


# --------------------------------------------------------------------------
# acceptance: the acceptance-test sweeps plus all-verify through cli.main.

FULL_ACCEPTANCE = {
    "jt": dict(max_cells=6, n_values=(2, 3, 4, 5), trials=1, weight_range=(-2, 3)),
    "jt_generic": dict(max_cells=4, n_values=(1, 2, 3, 4), trials=1, weight_range=(1, 3)),
    "lgv": dict(max_cells=5, max_n=5),
    "path_linear": dict(max_r=4, max_n=6),
    "layer": dict(max_cells=5, max_m=4),
    "oracles": dict(max_r=4, max_n=4, weight_values=(-1, 0, 1, 2, 3)),
    "palindrome": dict(max_r=3, max_n=4, key_values=(2, 3)),
    "all": dict(ALL_VERIFY_DEFAULTS),
}

TINY_ACCEPTANCE = {
    "jt": dict(max_cells=3, n_values=(2, 3), trials=1, weight_range=(-2, 3)),
    "jt_generic": dict(max_cells=2, n_values=(1, 2), trials=1, weight_range=(1, 3)),
    "lgv": dict(max_cells=3, max_n=3),
    "path_linear": dict(max_r=2, max_n=3),
    "layer": dict(max_cells=3, max_m=2),
    "oracles": dict(max_r=2, max_n=3, weight_values=(-1, 2)),
    "palindrome": dict(max_r=2, max_n=3, key_values=(2, 3)),
    "all": dict(max_cells=2, N=3, trials=1),
}


def _all_verify_counts(api, max_cells: int, N: int, trials: int) -> dict[str, int]:
    """Instances per family of run_all, keyed as in its summary."""
    n_values = N - 1  # all-verify sweeps N over 2..N
    small = min(max_cells, 4)
    return {
        "jacobi_trudi": _n_shapes(api, max_cells) * n_values * trials,
        "conjugation": _n_shapes(api, max_cells) * n_values * trials,
        "lgv": _n_shapes(api, small, include_empty=False) * N,
        "layer": _n_baselines(api, small) * min(N, 3),
        "path_linear": 3 * 3 * N,
        "linear_oracles": sum(5**r for r in range(4)) * N,
        "palindrome": sum(2**r for r in range(1, 4)) * min(N, 4),
    }


def _cli_item(api, seed: int, params: dict) -> Item:
    counts = _all_verify_counts(api, **params)
    argv = ["all-verify", "--seed", str(seed)]
    if params != ALL_VERIFY_DEFAULTS:
        argv += ["--max-cells", str(params["max_cells"]), "--N", str(params["N"]),
                 "--trials", str(params["trials"])]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
        return code, out.getvalue()

    def check(output) -> int:
        code, text = output
        families = json.loads(text)["families"]
        failed = sum(
            _sweep_check(n)(families[family]) if family in families else n
            for family, n in counts.items()
        )
        return failed or (0 if code == 0 else sum(counts.values()))

    return Item("all", run, counts, check)


def build_acceptance(api, rng, tiny: bool = False) -> list[Item]:
    p = TINY_ACCEPTANCE if tiny else FULL_ACCEPTANCE
    sw = api.sweeps
    seeds = [rng.randrange(2**31) for _ in range(7)]
    jt_shapes = _n_shapes(api, p["jt"]["max_cells"])
    jt_count = jt_shapes * len(p["jt"]["n_values"]) * p["jt"]["trials"]
    generic = p["jt_generic"]
    generic_count = (
        _n_shapes(api, generic["max_cells"]) * len(generic["n_values"]) * generic["trials"]
    )
    oracles = p["oracles"]
    palindrome = p["palindrome"]
    layer = p["layer"]
    counts = {
        "jt-rational": {"jacobi_trudi": jt_count},
        "conjugation": {"conjugation": jt_count},
        "lgv": {"lgv": _n_shapes(api, p["lgv"]["max_cells"], False) * p["lgv"]["max_n"]},
        "path-linear": {"path_linear": 3 * p["path_linear"]["max_r"] * p["path_linear"]["max_n"]},
        "layer": {"layer": (_n_baselines(api, layer["max_cells"]) + 1) * layer["max_m"]},
        "linear-oracles": {
            "linear_oracles": sum(
                len(oracles["weight_values"]) ** r for r in range(oracles["max_r"] + 1)
            ) * oracles["max_n"]
        },
        "jt-qseries8": {"jacobi_trudi": generic_count},
        "jt-qsym": {"jacobi_trudi": generic_count},
        "palindrome": {
            "palindrome": sum(
                len(palindrome["key_values"]) ** r for r in range(1, palindrome["max_r"] + 1)
            ) * palindrome["max_n"]
        },
    }
    worked_layer = (api.shapes.Partition((4, 2, 2, 1)), (2, 1, 1, 0))
    calls = {
        "jt-rational": lambda: sw.run_jt_sweep(
            seed=seeds[0], ring_spec="rational", **p["jt"]),
        "conjugation": lambda: sw.run_conjugation_sweep(
            seed=seeds[1], ring_spec="rational", **p["jt"]),
        "lgv": lambda: sw.run_lgv_sweep(seed=seeds[2], **p["lgv"]),
        "path-linear": lambda: sw.run_path_linear_sweep(seed=seeds[3], **p["path_linear"]),
        "layer": lambda: sw.run_layer_sweep(
            seed=seeds[4], extra_instances=[worked_layer], **layer),
        "linear-oracles": lambda: sw.run_oracle_triangle(**oracles),
        "jt-qseries8": lambda: sw.run_jt_sweep(
            seed=seeds[5], ring_spec="qseries:8", **generic),
        "jt-qsym": lambda: sw.run_jt_sweep(seed=seeds[6], ring_spec="qsym", **generic),
        "palindrome": lambda: sw.run_palindrome_sweep(**palindrome),
    }
    items = [
        Item(name, calls[name], family_counts, _sweep_check(sum(family_counts.values())),
             largest=name == "linear-oracles")
        for name, family_counts in counts.items()
    ]
    items.append(_cli_item(api, rng.randrange(2**31), p["all"]))
    return items


# --------------------------------------------------------------------------
# Schur values by enumeration, checked against the row-reading determinant.

def jt_row_determinant(api, shape, N: int, cmap, weights):
    """The row-reading Jacobi-Trudi determinant of a diagonal-constant
    tableau, assembled here from linear values and ring_determinant; an
    independent route to the value schur_value enumerates."""
    rings, values = api.rings, api.values
    conj = shape.conjugate().parts
    n = shape.width
    matrix = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            length = conj[i - 1] + j - i
            if length < 0:
                row.append(rings.TPoly.zero(cmap.ring))
            else:
                keys = [weights[j - 1 - s] for s in range(length)]
                row.append(values.linear_value(keys, N, cmap))
        matrix.append(row)
    return rings.ring_determinant(matrix, rings.PolyRing(cmap.ring))


def _schur_items(api, cmap, cases, largest) -> list[Item]:
    """cases: (shape parts, N, {offset: label}) per value; largest names
    the case that is the workload's largest item."""
    values = api.values
    items = []
    for parts, N, labels in cases:
        shape = api.shapes.Partition(parts)
        weights = values.DiagonalWeights(labels)
        tableau = values.diagonal_tableau(shape, weights)

        def run(tableau=tableau, N=N):
            return values.schur_value(tableau, N, cmap)

        def check(value, shape=shape, N=N, weights=weights) -> int:
            return int(value != jt_row_determinant(api, shape, N, cmap, weights))

        name = f"{','.join(map(str, parts))}@{N}"
        items.append(Item(name, run, {"schur": 1}, check, [(shape, N)], (parts, N) == largest))
    return items


LADDER = [((4, 3, 2, 1), (5, 6)), ((3, 3, 3), (5, 6, 7)), ((2, 2, 2, 2, 2), (5, 6, 7))]


def build_schur_ladder(api, rng, tiny: bool = False) -> list[Item]:
    ladder = [((2, 1), (3, 4)), ((1, 1), (3, 4))] if tiny else LADDER
    cases = []
    for parts, ns in ladder:
        offsets = api.values.required_offsets(api.shapes.Partition(parts))
        labels = {d: rng.choice((2, 3)) for d in offsets}
        cases.extend((parts, N, labels) for N in ns)
    largest = ladder[0][0], ladder[0][1][-1]
    return _schur_items(api, api.values.rational_map(), cases, largest)


# Labels are a seeded arrangement of distinct powers of ten.  No diagonal
# of these shapes holds ten cells, so the exponent of x_m in a filling's
# monomial spells out how many cells of each diagonal hold m: two fillings
# share a monomial only when those counts agree.  Term counts, which set
# the cost of MonomialPolynomial arithmetic, are then the same for every
# seed, while the values themselves differ.
QSYM_SHAPES = [(3, 3, 3), (2, 2, 2, 2, 2), (3, 3, 2), (2, 2, 2, 2, 1)]


def build_qsym_values(api, rng, tiny: bool = False) -> list[Item]:
    shapes = [(2, 1), (2, 2)] if tiny else QSYM_SHAPES
    N = 3 if tiny else 5
    cases = []
    for parts in shapes:
        offsets = list(api.values.required_offsets(api.shapes.Partition(parts)))
        powers = [10**i for i in range(len(offsets))]
        rng.shuffle(powers)
        cases.append((parts, N, dict(zip(offsets, powers))))
    return _schur_items(api, api.values.quasisymmetric_map(), cases, (shapes[0], N))


# --------------------------------------------------------------------------
# det-wide: palindromic determinants, all Laplace expansion and linear values.

def build_det_wide(api, rng, tiny: bool = False) -> list[Item]:
    jt = api.jacobi_trudi
    cmap = api.values.rational_map()
    items = []
    sizes = (2, 3) if tiny else (9, 10, 11)
    for r in sizes:
        keys = tuple(rng.choice((2, 3)) for _ in range(r))

        def run(keys=keys):
            return jt.verify_palindromic_matrix(keys, 4, cmap)

        items.append(Item(f"r={r}", run, {"palindrome": 1}, lambda rep: int(not rep.equal),
                          largest=r == sizes[-1]))
    return items


WORKLOADS = {
    "acceptance": build_acceptance,
    "schur-ladder": build_schur_ladder,
    "det-wide": build_det_wide,
    "qsym-values": build_qsym_values,
}
