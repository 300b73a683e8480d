"""Command-line driver: compute values and verify identities as
reproducible batch commands with JSON output.

Structured JSON goes to stdout (or --output), a one-line human summary to
stderr.  Exit codes: 0 all checks pass, 1 an identity mismatch, 2 malformed
input (including a config file with an unknown key or a value of the wrong
type, a single-instance flag without --shape, and a sweep that would check
no instance), 3 domain error (a weight outside the chosen ring's map).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any

from . import sweeps
from .errors import DomainError
from .jacobi_trudi import verify_jacobi_trudi, verify_palindromic_matrix
from .lattice import layer_check, lgv_determinant, schur_path_endpoints, schur_scenario_sum
from .shapes import Partition, Tableau, count_oyt
from .values import (
    DiagonalWeights,
    coefficient_map_for,
    diagonal_tableau,
    required_offsets,
    schur_value,
)

READING_NOTES = [
    "index order: the first label of a linear value attaches to the smallest summand",
    "zero-one layer tableaux: column j holds ones in the rows strictly below b[j]",
    "truncated values are exact for arbitrary integer labels; untruncated limits would need labels >= 2",
]


def _json_flag(value: Any) -> Any:
    """Accept either a JSON string (from the command line) or an already
    parsed value (from a config file)."""
    if isinstance(value, str):
        return json.loads(value)
    return value


def _parse_shape(value: Any) -> Partition:
    return Partition(_parse_int_list(value, "shape"))


def _parse_diagonal(value: Any) -> DiagonalWeights:
    obj = _json_flag(value)
    if not isinstance(obj, dict):
        raise ValueError(f"diagonal must be a JSON object of offset: label, got {value!r}")
    return DiagonalWeights(obj)


def _parse_int_list(value: Any, what: str) -> list[int]:
    obj = _json_flag(value)
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
        raise ValueError(f"{what} must be a JSON list of integers, got {value!r}")
    return obj


def _sweep_n(args) -> int:
    """--N of jt-verify, conjugation-verify and all-verify, refused up
    front below 2: no entry lies below N = 1, so nothing nonzero is checked
    (all-verify would check no Jacobi-Trudi or conjugation instance)."""
    if args.N < 2:
        raise ValueError(f"{args.command} needs --N >= 2, got {args.N}")
    return args.N


def _weights_for(args, shape: Partition) -> DiagonalWeights:
    if getattr(args, "diagonal", None) is not None:
        return _parse_diagonal(args.diagonal)
    rng = random.Random(args.seed)
    lo, hi = sweeps.weight_bounds(args.ring, None)
    return sweeps.random_diagonal(rng, required_offsets(shape), lo, hi)


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def cmd_compute(args) -> tuple[dict, bool]:
    if args.shape is None:
        raise ValueError("compute needs --shape")
    shape = _parse_shape(args.shape)
    cmap = coefficient_map_for(args.ring)
    if args.entries is not None:
        rows = _json_flag(args.entries)
        if not isinstance(rows, list):
            raise ValueError("entries must be a JSON list of rows")
        tableau = Tableau(shape, rows)
    elif args.diagonal is not None:
        tableau = diagonal_tableau(shape, _parse_diagonal(args.diagonal))
    elif shape.size == 0:
        tableau = Tableau(shape, ())
    else:
        raise ValueError("a nonempty shape needs --entries or --diagonal")
    value = schur_value(tableau, args.N, cmap)
    payload = {
        "command": "compute",
        "ring": args.ring,
        "N": args.N,
        "shape": list(shape.parts),
        "weights": tableau.to_json()["rows"],
        "coefficients": value.to_json(),
        "degree": value.degree,
    }
    _summary(f"compute: shape={list(shape.parts)} N={args.N} ring={args.ring} -> {value.to_json()}")
    return payload, True


def cmd_oyt_count(args) -> tuple[dict, bool]:
    if args.shape is None:
        raise ValueError("oyt-count needs --shape")
    shape = _parse_shape(args.shape)
    count = count_oyt(shape, args.N)
    _summary(f"oyt-count: shape={list(shape.parts)} N={args.N} -> {count}")
    return {"command": "oyt-count", "shape": list(shape.parts), "N": args.N, "count": count}, True


def _single_or_sweep_jt(args) -> tuple[dict, bool]:
    _sweep_n(args)
    if args.shape is not None:
        shape = _parse_shape(args.shape)
        cmap = coefficient_map_for(args.ring)
        weights = _weights_for(args, shape)
        rep = verify_jacobi_trudi(shape, args.N, cmap, weights)
        payload = {
            "command": "jt-verify",
            "ring": args.ring,
            "shape": list(shape.parts),
            "N": args.N,
            "diagonal": weights.to_json(),
            "schur": rep.schur.to_json(),
            "detH": rep.det_h.to_json(),
            "detE": rep.det_e.to_json(),
            "equal": rep.equal,
            "reading_notes": READING_NOTES,
        }
        return payload, rep.equal
    report = sweeps.run_jt_sweep(
        max_cells=args.max_cells,
        n_values=tuple(range(2, args.N + 1)),
        trials=args.trials,
        seed=args.seed,
        ring_spec=args.ring,
    )
    report["command"] = "jt-verify"
    report["reading_notes"] = READING_NOTES
    return report, report["pass"]


def cmd_jt_verify(args) -> tuple[dict, bool]:
    payload, ok = _single_or_sweep_jt(args)
    _summary(f"jt-verify: {'pass' if ok else 'FAIL'} ({payload.get('checked', 1)} instance(s))")
    return payload, ok


def cmd_lgv_verify(args) -> tuple[dict, bool]:
    if args.shape is not None:
        shape = _parse_shape(args.shape)
        if shape.size == 0:
            raise ValueError("lgv-verify needs a nonempty shape")
        cmap = coefficient_map_for(args.ring)
        weights = _weights_for(args, shape)
        signed = schur_scenario_sum(shape, args.N, cmap, weights)
        sources, sinks = schur_path_endpoints(shape, args.N)
        det = lgv_determinant(sources, sinks, cmap, weights)
        schur = schur_value(diagonal_tableau(shape, weights), args.N, cmap)
        equal = signed == det and det == schur
        payload = {
            "command": "lgv-verify",
            "ring": args.ring,
            "shape": list(shape.parts),
            "N": args.N,
            "diagonal": weights.to_json(),
            "signed_sum": signed.to_json(),
            "determinant": det.to_json(),
            "schur": schur.to_json(),
            "equal": equal,
        }
        ok = equal
    else:
        payload = sweeps.run_lgv_sweep(
            max_cells=args.max_cells, max_n=args.N, seed=args.seed, ring_spec=args.ring
        )
        payload["command"] = "lgv-verify"
        ok = payload["pass"]
    _summary(f"lgv-verify: {'pass' if ok else 'FAIL'} ({payload.get('checked', 1)} instance(s))")
    return payload, ok


def cmd_layer_verify(args) -> tuple[dict, bool]:
    if args.shape is not None:
        shape = _parse_shape(args.shape)
        if args.b is None:
            raise ValueError("layer-verify with --shape also needs --b")
        b = _parse_int_list(args.b, "b")
        cmap = coefficient_map_for(args.ring)
        weights = _weights_for(args, shape)
        rep = layer_check(shape, b, args.M, cmap, weights)
        payload = {
            "command": "layer-verify",
            "ring": args.ring,
            "shape": list(shape.parts),
            "b": list(rep.b),
            "M": args.M,
            "diagonal": weights.to_json(),
            "bit_rows": [list(r) for r in rep.bit_tableau.rows],
            "one_ordered": rep.stats.one_ordered,
            "v1": rep.stats.v1,
            "h1": rep.stats.h1,
            "predicted": rep.predicted.to_json(),
            "signed_sum": rep.signed_sum.to_json(),
            "equal": rep.equal,
            "reading_notes": READING_NOTES,
        }
        ok = rep.equal
    else:
        payload = sweeps.run_layer_sweep(
            max_cells=args.max_cells, max_m=args.M, seed=args.seed, ring_spec=args.ring
        )
        payload["command"] = "layer-verify"
        payload["reading_notes"] = READING_NOTES
        ok = payload["pass"]
    _summary(f"layer-verify: {'pass' if ok else 'FAIL'} ({payload.get('checked', 1)} instance(s))")
    return payload, ok


def cmd_conjugation_verify(args) -> tuple[dict, bool]:
    payload = sweeps.run_conjugation_sweep(
        max_cells=args.max_cells,
        n_values=tuple(range(1, _sweep_n(args) + 1)),
        trials=args.trials,
        seed=args.seed,
        ring_spec=args.ring,
    )
    payload["command"] = "conjugation-verify"
    ok = payload["pass"]
    _summary(f"conjugation-verify: {'pass' if ok else 'FAIL'} ({payload['checked']} instance(s))")
    return payload, ok


def cmd_palindrome_verify(args) -> tuple[dict, bool]:
    if args.keys is not None:
        keys = _parse_int_list(args.keys, "keys")
        rep = verify_palindromic_matrix(keys, args.N)
        payload = {
            "command": "palindrome-verify",
            "keys": keys,
            "N": args.N,
            "poly": rep.poly.to_json(),
            "flipped": rep.flipped.to_json(),
            "equal": rep.equal,
        }
        ok = rep.equal
    else:
        payload = sweeps.run_palindrome_sweep(max_r=args.max_r, max_n=args.N)
        payload["command"] = "palindrome-verify"
        ok = payload["pass"]
    _summary(f"palindrome-verify: {'pass' if ok else 'FAIL'} ({payload.get('checked', 1)} instance(s))")
    return payload, ok


def cmd_linear_verify(args) -> tuple[dict, bool]:
    payload = sweeps.run_oracle_triangle(max_r=args.max_r, max_n=args.N)
    payload["command"] = "linear-verify"
    ok = payload["pass"]
    _summary(f"linear-verify: {'pass' if ok else 'FAIL'} ({payload['checked']} instance(s))")
    return payload, ok


def cmd_all_verify(args) -> tuple[dict, bool]:
    payload = sweeps.run_all(
        max_cells=args.max_cells,
        max_n=_sweep_n(args),
        trials=args.trials,
        seed=args.seed,
        ring_spec=args.ring,
    )
    payload["command"] = "all-verify"
    ok = payload["pass"]
    for name, info in sorted(payload["summary"].items()):
        _summary(f"all-verify/{name}: {'pass' if info['pass'] else 'FAIL'} ({info['checked']} instance(s))")
    return payload, ok


_DEFAULTS = {
    "compute": {"N": 4, "ring": "rational"},
    "oyt-count": {"N": 4},
    "jt-verify": {"N": 4, "ring": "rational", "max_cells": 4, "trials": 2, "seed": 0},
    "lgv-verify": {"N": 4, "ring": "rational", "max_cells": 4, "seed": 0},
    "layer-verify": {"M": 3, "ring": "rational", "max_cells": 4, "seed": 0},
    "conjugation-verify": {"N": 4, "ring": "rational", "max_cells": 4, "trials": 2, "seed": 0},
    "palindrome-verify": {"N": 4, "max_r": 3},
    "linear-verify": {"N": 4, "max_r": 3},
    "all-verify": {"N": 4, "ring": "rational", "max_cells": 4, "trials": 2, "seed": 0},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurzeta",
        description="Exact interpolated Schur multiple zeta values and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--output", help="write the JSON report to this path")
        return p

    p = add("compute", cmd_compute, "evaluate one tableau value")
    p.add_argument("--shape", help="JSON list of parts, e.g. [2,1]")
    p.add_argument("--entries", help="JSON rows of weight labels, e.g. [[2,2],[3]]")
    p.add_argument("--diagonal", help='JSON offsets, e.g. {"-1":2,"0":2}')
    p.add_argument("--N", type=int, help="truncation bound (entries run below N)")
    p.add_argument("--ring", help="rational | qseries:Q | qsym")

    p = add("oyt-count", cmd_oyt_count, "count ordered fillings of a shape")
    p.add_argument("--shape", required=False)
    p.add_argument("--N", type=int)

    for name, func, extra in (
        ("jt-verify", cmd_jt_verify, ("shape", "diagonal", "trials")),
        ("lgv-verify", cmd_lgv_verify, ("shape", "diagonal")),
        ("conjugation-verify", cmd_conjugation_verify, ("trials",)),
    ):
        p = add(name, func, f"check the {name.split('-')[0]} identity family")
        if "shape" in extra:
            p.add_argument("--shape", help="verify one instance of this shape")
        if "diagonal" in extra:
            p.add_argument("--diagonal", help="diagonal weights for single-instance mode")
        if "trials" in extra:
            p.add_argument("--trials", type=int, help="random weight draws per instance")
        p.add_argument("--N", type=int, help="truncation bound (sweeps use 2..N)")
        p.add_argument("--max-cells", type=int, dest="max_cells")
        p.add_argument("--seed", type=int)
        p.add_argument("--ring", help="rational | qseries:Q | qsym")

    p = add("layer-verify", cmd_layer_verify, "check single-layer signed sums")
    p.add_argument("--shape")
    p.add_argument("--b", help="JSON list: column baseline, e.g. [2,1,1,0]")
    p.add_argument("--diagonal")
    p.add_argument("--M", type=int, help="layer height (sweeps use 1..M)")
    p.add_argument("--max-cells", type=int, dest="max_cells")
    p.add_argument("--seed", type=int)
    p.add_argument("--ring")

    p = add("palindrome-verify", cmd_palindrome_verify, "check t -> 1-t symmetric determinants")
    p.add_argument("--keys", help="JSON list, e.g. [2,3]")
    p.add_argument("--N", type=int)
    p.add_argument("--max-r", type=int, dest="max_r")

    p = add("linear-verify", cmd_linear_verify, "cross-check the three linear-value routes")
    p.add_argument("--N", type=int)
    p.add_argument("--max-r", type=int, dest="max_r")

    p = add("all-verify", cmd_all_verify, "run every identity family at bounded size")
    p.add_argument("--N", type=int)
    p.add_argument("--max-cells", type=int, dest="max_cells")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ring")

    for p in sub.choices.values():
        # argparse offers no public list of a parser's flags.
        p.set_defaults(flag_types={
            a.dest: a.type for a in p._actions if a.dest not in ("help", "config")
        })
    return parser


# Flags holding JSON text on the command line; a config file may give the
# parsed value instead, which the flag's own parser checks.
_JSON_FLAGS = {"shape", "entries", "diagonal", "b", "keys"}


def _config_value(dest: str, flag_type, value: Any) -> Any:
    """A config value checked as its flag would be: int flags need JSON
    integers, text flags JSON strings."""
    if flag_type is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"config key {dest!r} needs a JSON integer, got {value!r}")
    if dest in _JSON_FLAGS or isinstance(value, str):
        return value
    raise ValueError(f"config key {dest!r} needs a JSON string, got {value!r}")


def _apply_config_and_defaults(args) -> None:
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in args.flag_types:
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        value = _config_value(dest, args.flag_types[dest], value)
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)
    for dest, value in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


# Flags that only describe the one instance named by --shape.
_INSTANCE_FLAGS = ("entries", "diagonal", "b")


def _check_instance_flags(args) -> None:
    """Refuse single-instance flags given without --shape: a sweep would
    silently ignore them."""
    if getattr(args, "shape", None) is not None:
        return
    for dest in _INSTANCE_FLAGS:
        if getattr(args, dest, None) is not None:
            raise ValueError(f"{args.command} --{dest} needs --shape")


def _unchecked_families(payload: dict) -> list[str]:
    """Identity families a sweep report covers without checking any
    instance; single-instance payloads have none."""
    if "summary" in payload:
        return [name for name, info in sorted(payload["summary"].items()) if not info["checked"]]
    if payload.get("checked") == 0:
        return [payload["identity"]]
    return []


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_and_defaults(args)
        _check_instance_flags(args)
        payload, ok = args.func(args)
        empty = _unchecked_families(payload)
        if empty:
            raise ValueError(f"{args.command} checked no instance of {', '.join(empty)}")
        _emit(payload, args)
        return 0 if ok else 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
