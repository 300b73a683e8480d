"""Command-line driver: compute values and verify identities as
reproducible batch commands with JSON output.

Two value commands, ``compute`` and ``oyt-count``, are written out here.
Every verify subcommand is generated from the family registry
(``sweeps.FAMILIES``): its flags and defaults come from the family, a sweep
runs the family's sweep, and ``--shape`` (or ``--keys``) runs the family's
checker on that one instance.  ``all-verify`` runs ``sweeps.run_all``, a
loop over the registry.  Every flag is declared once, in ``FLAGS``, with
its type and the parser of its JSON value.

Structured JSON goes to stdout (or --output), then a human summary, one
line per command or family, to stderr; a run that exits 2, 3 or 4 writes
only its one error line there.  Exit codes: 0 all checks pass, 1 an
identity mismatch, 2 malformed input (including a config file with an
unknown key or a value of the wrong type, a weight label that is not a JSON
integer, a diagonal offset that is not a canonical decimal integer or is
repeated, a single-instance flag without --shape, and a sweep that would
check no instance), 3 domain error (an integer weight outside the chosen
ring's map), 4 internal error (any other exception, reported in one line on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Callable, NamedTuple

from . import sweeps
from .errors import DomainError
from .shapes import Partition, Tableau, count_oyt
from .values import (
    DiagonalWeights,
    _is_int,
    coefficient_map_for,
    diagonal_tableau,
    schur_value,
)

READING_NOTES = [
    "index order: the first label of a linear value attaches to the smallest summand",
    "zero-one layer tableaux: column j holds ones in the rows strictly below b[j]",
    "truncated values are exact for arbitrary integer labels; untruncated limits would need labels >= 2",
]


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"repeated JSON object key in {keys!r}")
    return dict(pairs)


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _json_flag(value: Any) -> Any:
    """Accept either a JSON string (from the command line or a config file)
    or an already parsed value (from a config file)."""
    return _load_json(value) if isinstance(value, str) else value


def _parse_int_list(value: Any, what: str) -> list[int]:
    obj = _json_flag(value)
    if not isinstance(obj, list) or not all(map(_is_int, obj)):
        raise ValueError(f"{what} must be a JSON list of integers, got {value!r}")
    return obj


def _parse_entries(value: Any) -> list[list[int]]:
    obj = _json_flag(value)
    if not isinstance(obj, list) or not all(
        isinstance(row, list) and all(map(_is_int, row)) for row in obj
    ):
        raise ValueError(f"entries must be a JSON list of rows of integer labels, got {value!r}")
    return obj


def _parse_diagonal(value: Any) -> DiagonalWeights:
    obj = _json_flag(value)
    if not isinstance(obj, dict):
        raise ValueError(f"diagonal must be a JSON object of offset: label, got {value!r}")
    for key, label in obj.items():
        if not _is_int(label):
            raise ValueError(f"diagonal label {label!r} at offset {key} is not a JSON integer")
    return DiagonalWeights(obj)


# Every flag: its kind (int, str, or the parser of a JSON value) and help.
# A config file gives int flags as JSON integers, str flags as JSON strings,
# and JSON flags as JSON text or as the parsed value.
FLAGS: dict[str, tuple[Callable[[Any], Any], str]] = {
    "shape": (lambda v: Partition(_parse_int_list(v, "shape")), "JSON list of parts, e.g. [2,1]"),
    "entries": (_parse_entries, "JSON rows of integer weight labels, e.g. [[2,2],[3]]"),
    "diagonal": (_parse_diagonal, 'JSON offset: integer label, e.g. {"-1":2,"0":2}'),
    "b": (lambda v: _parse_int_list(v, "b"), "JSON list: column baseline, e.g. [2,1,1,0]"),
    "keys": (lambda v: _parse_int_list(v, "keys"), "JSON list of integer keys, e.g. [2,3]"),
    "N": (int, "truncation bound: entries run below N"),
    "M": (int, "layer height (sweeps use 1..M)"),
    "max_cells": (int, "sweep every shape with at most this many cells"),
    "max_r": (int, "sweep every key tuple up to this length"),
    "trials": (int, "random weight draws per instance"),
    "seed": (int, "seed of the random weights"),
    "ring": (str, "rational | qseries:Q | qsym"),
    "output": (str, "write the JSON report to this path"),
}

# Flags that only describe the one instance named by --shape.
_INSTANCE_FLAGS = ("entries", "diagonal", "b")


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep_n(args) -> int:
    """--N of jt-verify, conjugation-verify and all-verify, refused up
    front below 2: no entry lies below N = 1, so nothing nonzero is checked
    (all-verify would check no Jacobi-Trudi or conjugation instance)."""
    if args.N < 2:
        raise ValueError(f"{args.command} needs --N >= 2, got {args.N}")
    return args.N


def cmd_compute(args) -> tuple[dict, bool, list[str]]:
    if args.shape is None:
        raise ValueError("compute needs --shape")
    shape = args.shape
    cmap = coefficient_map_for(args.ring)
    if args.entries is not None:
        tableau = Tableau(shape, args.entries)
    elif args.diagonal is not None:
        tableau = diagonal_tableau(shape, args.diagonal)
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
    summary = f"compute: shape={list(shape.parts)} N={args.N} ring={args.ring} -> {value.to_json()}"
    return payload, True, [summary]


def cmd_oyt_count(args) -> tuple[dict, bool, list[str]]:
    if args.shape is None:
        raise ValueError("oyt-count needs --shape")
    shape = args.shape
    count = count_oyt(shape, args.N)
    payload = {"command": "oyt-count", "shape": list(shape.parts), "N": args.N, "count": count}
    return payload, True, [f"oyt-count: shape={list(shape.parts)} N={args.N} -> {count}"]


def cmd_verify(family: sweeps.Family, args) -> tuple[dict, bool, list[str]]:
    """One family's subcommand: its checker on the instance named by
    --shape or --keys, or else its sweep."""
    if family.needs_n2:
        _sweep_n(args)
    if getattr(args, "shape", None) is not None or getattr(args, "keys", None) is not None:
        payload = family.single(args)
        if "ring" in family.flags:
            payload["ring"] = args.ring
        ok = payload["equal"]
    else:
        payload = family.sweep(args)
        ok = payload["pass"]
    payload["command"] = args.command
    if family.notes:
        payload["reading_notes"] = READING_NOTES
    summary = f"{args.command}: {'pass' if ok else 'FAIL'} ({payload.get('checked', 1)} instance(s))"
    return payload, ok, [summary]


def cmd_all_verify(args) -> tuple[dict, bool, list[str]]:
    payload = sweeps.run_all(
        max_cells=args.max_cells,
        max_n=_sweep_n(args),
        trials=args.trials,
        seed=args.seed,
        ring_spec=args.ring,
    )
    payload["command"] = "all-verify"
    summary = [
        f"all-verify/{name}: {'pass' if info['pass'] else 'FAIL'} ({info['checked']} instance(s))"
        for name, info in sorted(payload["summary"].items())
    ]
    return payload, payload["pass"], summary


class Command(NamedTuple):
    # (payload, ok, the stderr summary lines, printed once the report is out)
    run: Callable[[Any], tuple[dict, bool, list[str]]]
    help: str
    flags: dict[str, Any]  # flag -> default (None: unset); --output is implied


COMMANDS: dict[str, Command] = {
    "compute": Command(
        cmd_compute, "evaluate one tableau value",
        {"shape": None, "entries": None, "diagonal": None, "N": 4, "ring": "rational"},
    ),
    "oyt-count": Command(cmd_oyt_count, "count ordered fillings of a shape", {"shape": None, "N": 4}),
    **{
        family.command: Command(partial(cmd_verify, family), family.help, family.flags)
        for family in sweeps.FAMILIES
        if family.command
    },
    "all-verify": Command(
        cmd_all_verify, "run every identity family at bounded size",
        {"N": 4, "max_cells": 4, "trials": 2, "seed": 0, "ring": "rational"},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurzeta",
        description="Exact interpolated Schur multiple zeta values and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        for dest in [*command.flags, "output"]:
            kind, help_text = FLAGS[dest]
            p.add_argument(
                "--" + dest.replace("_", "-"), dest=dest, help=help_text,
                type=int if kind is int else None,
            )
    return parser


def _config_value(dest: str, value: Any) -> Any:
    """A config value checked as its flag would be: int flags need JSON
    integers, text flags JSON strings; JSON flags are parsed later."""
    kind = FLAGS[dest][0]
    if kind is int and not _is_int(value):
        raise ValueError(f"config key {dest!r} needs a JSON integer, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ValueError(f"config key {dest!r} needs a JSON string, got {value!r}")
    return value


def _apply_config_and_defaults(args, flags: dict[str, Any]) -> None:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = _load_json(fh.read())
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in flags and dest != "output":
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        value = _config_value(dest, value)
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest, value in flags.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _check_instance_flags(args) -> None:
    """Refuse single-instance flags given without --shape: a sweep would
    silently ignore them."""
    if getattr(args, "shape", None) is not None:
        return
    for dest in _INSTANCE_FLAGS:
        if getattr(args, dest, None) is not None:
            raise ValueError(f"{args.command} --{dest} needs --shape")


def _parse_json_flags(args, flags: dict[str, Any]) -> None:
    for dest in flags:
        kind = FLAGS[dest][0]
        value = getattr(args, dest)
        if kind not in (int, str) and value is not None:
            setattr(args, dest, kind(value))


def _unchecked_families(payload: dict) -> list[str]:
    """Identity families a sweep report covers without checking any
    instance; single-instance payloads have none."""
    if "summary" in payload:
        return [name for name, info in sorted(payload["summary"].items()) if not info["checked"]]
    if payload.get("checked") == 0:
        return [payload["identity"]]
    return []


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        _apply_config_and_defaults(args, command.flags)
        _check_instance_flags(args)
        _parse_json_flags(args, command.flags)
        payload, ok, summary = command.run(args)
        empty = _unchecked_families(payload)
        if empty:
            raise ValueError(f"{args.command} checked no instance of {', '.join(empty)}")
        _emit(payload, args)
        for line in summary:
            print(line, file=sys.stderr)
        return 0 if ok else 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
