"""Command-line driver: outputs, exit codes, determinism, config files."""

import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schurzeta import cli, jacobi_trudi, lattice, sweeps, values
from schurzeta.rings import QQ, ScaledPoly, TPoly, _scaled_determinant, _trimmed
from schurzeta.shapes import Partition, Tableau, bit_tableau_stats, build_bit_tableau

from filling_enumeration import filling_sum_oracle


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out) if out else None, err


def test_compute_column_example(capsys):
    code, payload, _ = run_json(
        ["compute", "--shape", "[1,1]", "--entries", "[[2],[2]]", "--N", "3"], capsys
    )
    assert code == 0
    assert payload["coefficients"] == ["1/4", "17/16"]


def test_compute_empty_shape(capsys):
    code, payload, _ = run_json(["compute", "--shape", "[]", "--N", "9"], capsys)
    assert code == 0
    assert payload["coefficients"] == ["1"]


def test_compute_truncation_at_one_gives_zero_polynomial(capsys):
    code, payload, _ = run_json(
        ["compute", "--shape", "[1]", "--entries", "[[2]]", "--N", "1"], capsys
    )
    assert code == 0
    assert payload["coefficients"] == []


def test_compute_diagonal_weights(capsys):
    code, payload, _ = run_json(
        [
            "compute",
            "--shape", "[2,1]",
            "--diagonal", '{"-1": 2, "0": 2, "1": 2}',
            "--N", "4",
        ],
        capsys,
    )
    assert code == 0
    assert payload["weights"] == [[2, 2], [2]]


def test_compute_qseries_ring(capsys):
    code, payload, _ = run_json(
        [
            "compute",
            "--shape", "[1]",
            "--entries", "[[1]]",
            "--N", "3",
            "--ring", "qseries:4",
        ],
        capsys,
    )
    assert code == 0
    # 1/[1]_q + 1/[2]_q = 1 + (1 - q + q^2 - q^3)
    assert payload["coefficients"] == [{"order": 4, "coeffs": ["2", "-1", "1", "-1"]}]


def test_reports_name_the_ring_they_ran_over(capsys):
    # --ring qseries runs over qseries:16, and every report says so.
    code, payload, err = run_json(
        ["compute", "--shape", "[1]", "--entries", "[[1]]", "--N", "3", "--ring", "qseries"],
        capsys,
    )
    assert code == 0 and payload["ring"] == "qseries:16" and "ring=qseries:16" in err
    assert payload["coefficients"][0]["order"] == 16
    code, payload, _ = run_json(
        ["jt-verify", "--max-cells", "2", "--N", "2", "--trials", "1", "--ring", "qseries"],
        capsys,
    )
    assert code == 0 and payload["ring"] == "qseries:16"
    code, payload, _ = run_json(
        ["jt-verify", "--shape", "[2,1]", "--N", "3", "--ring", "qseries"], capsys
    )
    assert code == 0 and payload["ring"] == "qseries:16"


def test_compute_large_shape_finishes(capsys):
    diagonal = json.dumps({d: 2 + d % 2 for d in range(-3, 5)})
    code, payload, _ = run_json(
        ["compute", "--shape", "[5,5,5,5]", "--diagonal", diagonal, "--N", "12"], capsys
    )
    assert code == 0
    assert payload["coefficients"]


def test_oyt_count(capsys):
    code, payload, _ = run_json(["oyt-count", "--shape", "[2,2]", "--N", "4"], capsys)
    assert code == 0
    assert payload["count"] == 17


def test_oyt_count_at_a_billion_is_answered(capsys):
    code, payload, _ = run_json(["oyt-count", "--shape", "[2,1]", "--N", "1000000000"], capsys)
    assert code == 0
    n = 10**9 - 1
    assert payload["count"] == n * (n + 1) * (2 * n + 1) // 6


def test_jt_verify_single_instance(capsys):
    code, payload, _ = run_json(
        [
            "jt-verify",
            "--shape", "[2,1]",
            "--N", "4",
            "--diagonal", '{"-1": 2, "0": 2, "1": 2}',
        ],
        capsys,
    )
    assert code == 0
    assert payload["equal"] is True
    assert payload["schur"] == payload["detH"] == payload["detE"]
    assert "reading_notes" in payload


def test_lgv_verify_single_instance(capsys):
    code, payload, _ = run_json(
        ["lgv-verify", "--shape", "[2,2]", "--N", "3", "--seed", "5"], capsys
    )
    assert code == 0
    assert payload["equal"] is True


def test_lgv_verify_large_single_instance(capsys):
    code, payload, _ = run_json(["lgv-verify", "--shape", "[4,4,4]", "--N", "6"], capsys)
    assert code == 0
    assert payload["equal"] is True


def test_layer_verify_single_instance(capsys):
    code, payload, _ = run_json(
        [
            "layer-verify",
            "--shape", "[4,2,2,1]",
            "--b", "[2,1,1,0]",
            "--M", "3",
            "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    assert payload["v1"] == 2 and payload["h1"] == 1 and payload["one_ordered"]


def test_conjugation_sweep(capsys):
    code, payload, _ = run_json(
        ["conjugation-verify", "--max-cells", "3", "--N", "3", "--seed", "7"], capsys
    )
    assert code == 0
    assert payload["pass"] is True and payload["checked"] > 0


def test_palindrome_verify(capsys):
    code, payload, _ = run_json(
        ["palindrome-verify", "--keys", "[2,3]", "--N", "4"], capsys
    )
    assert code == 0
    assert payload["equal"] is True


def test_linear_verify(capsys):
    code, payload, _ = run_json(["linear-verify", "--max-r", "2", "--N", "3"], capsys)
    assert code == 0
    assert payload["pass"] is True


def test_all_verify_small(capsys):
    code, payload, _ = run_json(
        ["all-verify", "--max-cells", "2", "--N", "3", "--trials", "1"], capsys
    )
    assert code == 0
    assert payload["pass"] is True
    assert set(payload["summary"]) == {
        "jacobi_trudi", "conjugation", "lgv", "layer",
        "path_linear", "linear_oracles", "palindrome",
    }


def test_malformed_input_exits_2(capsys):
    code, out, err = run(["compute", "--shape", "[2,", "--N", "3"], capsys)
    assert code == 2 and "invalid input" in err
    code, out, err = run(["compute", "--shape", "[1,2]", "--entries", "[[1],[1]]"], capsys)
    assert code == 2  # increasing parts
    code, out, err = run(["oyt-count", "--N", "3"], capsys)
    assert code == 2  # missing shape


@pytest.mark.parametrize("argv, message", [
    (["linear-verify", "--N", "x"], "argument --N: invalid int value: 'x'"),
    (["linear-verify", "--keys", "[2]"], "unrecognized arguments: --keys [2]"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_argument_parser_refusals_exit_2_in_one_line(argv, message, capsys):
    # The parser's refusals are malformed input like any other: main
    # returns 2 (no SystemExit) and writes one line, no usage block.
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"invalid input: {message}") and err.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["linear-verify", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schurzeta linear-verify")


def test_boolean_weights_exit_2(capsys):
    # JSON true is not the integer 1
    code, out, err = run(["palindrome-verify", "--keys", "[true, 2]", "--N", "3"], capsys)
    assert code == 2 and "invalid input" in err and not out
    code, out, err = run(
        ["layer-verify", "--shape", "[2,1]", "--b", "[1,false]", "--M", "2"], capsys
    )
    assert code == 2 and "invalid input" in err and not out
    code, out, err = run(["oyt-count", "--shape", "[2,true]", "--N", "3"], capsys)
    assert code == 2 and "invalid input" in err and not out


def test_domain_error_exits_3(capsys):
    code, out, err = run(
        [
            "compute",
            "--shape", "[1]",
            "--entries", "[[0]]",
            "--N", "3",
            "--ring", "qseries:4",
        ],
        capsys,
    )
    assert code == 3 and "domain error" in err


def test_identity_mismatch_exits_1(capsys, monkeypatch):
    # no true identity fails, so exercise the exit path with a stub report
    def failing_sweep(**kwargs):
        return {"identity": "jacobi-trudi", "checked": 1, "pass": False,
                "failures": [{"equal": False}], "instances": [{"equal": False}]}

    monkeypatch.setattr(cli.sweeps, "run_jt_sweep", failing_sweep)
    code, payload, err = run_json(["jt-verify", "--max-cells", "2", "--N", "2"], capsys)
    assert code == 1
    assert payload["pass"] is False
    assert "FAIL" in err


def test_internal_error_exits_4(capsys, monkeypatch):
    # A defect of the program, such as an exception no handler names, is
    # neither a mismatch (1) nor bad input (2): one line on stderr, code 4.
    def broken_checker(keys, denominator, merge_denominator, by_bound):
        raise RuntimeError("checker broke")

    monkeypatch.setattr(sweeps, "_check_linear_oracles", broken_checker)
    code, out, err = run(["linear-verify", "--max-r", "1", "--N", "2"], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: checker broke\n"
    assert "Traceback" not in err


def test_internal_key_error_exits_4(capsys, monkeypatch):
    # No input path raises KeyError (DiagonalWeights turns its own into
    # ValueError), so one escaping a sweep is a defect, not bad input.
    def broken_checker(keys, denominator, merge_denominator, by_bound):
        return {}["missing"]

    monkeypatch.setattr(sweeps, "_check_linear_oracles", broken_checker)
    code, out, err = run(["linear-verify", "--N", "3"], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: KeyError: 'missing'\n"


def _patch_route(monkeypatch, name, change):
    """Patch the route body values.<name> so that change(path, result) gives
    what it returns instead.  path is the whole key tuple whose state the
    result holds: the oracle walk calls a body with one key and its parent
    tuple's state, so the path is the parent's path plus the keys."""
    original = getattr(values, name)
    signature = inspect.signature(original)
    paths = {}  # id(state) -> (state, path); each state is held so no id is reused

    def patched(*args):
        arguments = signature.bind(*args).arguments
        state = arguments.get("state")
        path = (() if state is None else paths[id(state)][1]) + tuple(arguments["keys"])
        result = change(path, original(*args))
        end = result[1] if name == "_linear_value_prefixes" else result
        paths[id(end)] = (end, path)
        return result

    monkeypatch.setattr(values, name, patched)


def _bumped(by_bound, n):
    """A route's packed values by bound with one added at t^0 of the value
    at n: + 1 on the int that holds it at t = 2^b."""
    return [*by_bound[:n - 1], by_bound[n - 1] + 1, *by_bound[n:]]


def test_oracle_triangle_catches_a_perturbed_recursion(capsys, monkeypatch):
    # The faster routes are compared, not bypassed: one wrong recursion
    # value fails its instance, the sweep and the command.
    def change(path, state):
        rows, by_depth = state
        if path == (2, 1) and len(by_depth[-1]) >= 3:
            return rows, [*by_depth[:-1], _bumped(by_depth[-1], 3)]
        return state

    _patch_route(monkeypatch, "_linear_value_by_recursion", change)
    report = sweeps.run_oracle_triangle(max_r=2, max_n=3)
    assert report["pass"] is False
    assert [(f["keys"], f["N"]) for f in report["failures"]] == [([2, 1], 3)]
    code, payload, _ = run_json(["linear-verify", "--max-r", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


def test_linear_sweeps_catch_a_perturbed_prefix_dp(capsys, monkeypatch):
    # linear_value is the prefix DP that builds every Jacobi-Trudi column,
    # so the oracle triangle and the path sums both check that evaluator.
    def change(path, result):
        values_at_n, (last, below) = result
        if len(path) >= 2 and len(below) >= 3:
            # Add one at t^0 of the full tuple's value at N, the last bound.
            below = _bumped(below, len(below))
            values_at_n = [*values_at_n[:-1], below[-1]]
        return values_at_n, (last, below)

    _patch_route(monkeypatch, "_linear_value_prefixes", change)
    report = sweeps.run_oracle_triangle(max_r=2, max_n=3)
    assert report["pass"] is False
    assert {(len(f["keys"]), f["N"]) for f in report["failures"]} == {(2, 3)}
    assert not sweeps.run_path_linear_sweep(max_r=2, max_n=3)["pass"]
    code, payload, _ = run_json(["linear-verify", "--max-r", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


@pytest.mark.parametrize("route, change", [
    # (values at N, (last, below)): one more at bound 2
    ("_linear_value_prefixes",
     lambda result: (result[0], (result[1][0], _bumped(result[1][1], 2)))),
    # (rows, by_depth): one more in value(1, 2)
    ("_linear_value_by_recursion",
     lambda result: (result[0], [*result[1][:-1], _bumped(result[1][-1], 2)])),
    # (K, groups by merges): every composition counted twice
    ("_merge_compositions",
     lambda result: (result[0], [group * 2 for group in result[1]])),
])
def test_a_perturbed_prefix_state_fails_exactly_the_tuples_under_it(monkeypatch, route, change):
    # The walk extends the state each route reaches after the prefix (2,)
    # to every tuple that starts with 2: a fault in that state spreads to
    # all of them, and to no other tuple, so sharing never masks a fault.
    _patch_route(
        monkeypatch, route, lambda path, result: change(result) if path == (2,) else result)
    report = sweeps.run_oracle_triangle(max_r=3, max_n=4)
    failed = {tuple(f["keys"]) for f in report["failures"]}
    expected = {keys for r in range(4) for keys in product((-1, 0, 1, 2, 3), repeat=r)
                if keys[:1] == (2,)}
    assert failed == expected and len(expected) == 31


def _perturbed_merge_expansion(monkeypatch, change):
    """Patch the merge route's sum over a tuple's compositions:
    change(keys, by_bound, denominator) gives the value it reports instead."""
    paths = {}  # id(compositions) -> key tuple, recorded as the route body makes them

    def record(path, compositions):
        paths[id(compositions)] = path
        return compositions

    _patch_route(monkeypatch, "_merge_compositions", record)
    original = values._merge_expansion

    def perturbed(compositions, L):
        by_bound, denominator = original(compositions, L)
        return change(paths[id(compositions)], [list(coeffs) for coeffs in by_bound], denominator)

    monkeypatch.setattr(values, "_merge_expansion", perturbed)


def test_oracle_triangle_catches_a_perturbed_merge_expansion(capsys, monkeypatch):
    # The integer verdict compares the merge route's own numbers: one
    # numerator off fails exactly its instance, which shows that value.
    def change(keys, by_bound, denominator):
        if keys == (2, 1) and len(by_bound) >= 3:
            by_bound[2][0] += 1  # t^0 of the value at N = 3
        return by_bound, denominator

    _perturbed_merge_expansion(monkeypatch, change)
    report = sweeps.run_oracle_triangle(max_r=2, max_n=3)
    assert report["pass"] is False
    [failure] = report["failures"]
    assert (failure["keys"], failure["N"]) == ([2, 1], 3)
    value = values.linear_value((2, 1), 3, values.rational_map())
    assert failure["direct"] == failure["recursion"] == value.to_json()
    # L = lcm(1, 2) = 2 and K = 3: the numerator moved by one over 2^3.
    assert failure["merge"] == (value + TPoly(QQ, [Fraction(1, 8)])).to_json()
    code, payload, _ = run_json(["linear-verify", "--max-r", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


def test_oracle_triangle_compares_merge_numerators_over_another_denominator(monkeypatch):
    # Numerators doubled over 2 L^K are the same values: the sides are
    # cross-multiplied, never assumed to share a denominator.
    expected = sweeps.run_oracle_triangle(max_r=3, max_n=4)
    _perturbed_merge_expansion(
        monkeypatch,
        lambda keys, by_bound, d: ([[2 * c for c in coeffs] for coeffs in by_bound], 2 * d),
    )
    report = sweeps.run_oracle_triangle(max_r=3, max_n=4)
    assert report["pass"] is True
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_lgv_sweep_catches_a_perturbed_path_matrix(capsys, monkeypatch):
    # The determinant side reads the path matrix as (rows, D): its first
    # entry gains D t^(degree + 1) in the numerators of its row.
    original = lattice._scaled_path_matrix

    def perturbed(sources, sinks, cmap, weights):
        rows, denominator = original(sources, sinks, cmap, weights)
        rows[0][0] = [*rows[0][0], denominator]
        return rows, denominator

    monkeypatch.setattr(lattice, "_scaled_path_matrix", perturbed)
    report = sweeps.run_lgv_sweep(max_cells=2, max_n=2)
    assert report["pass"] is False
    # The one-cell shape's 1 x 1 matrix, whose row is over D itself, moves
    # its determinant by a power of t.
    assert any(f["shape"] == [1] for f in report["failures"])
    code, payload, _ = run_json(["lgv-verify", "--max-cells", "2", "--N", "2"], capsys)
    assert code == 1 and payload["pass"] is False


def bump_coefficients(coeffs):
    """A trimmed coefficient list over an integer form, plus one."""
    return _trimmed([coeffs[0] + 1, *coeffs[1:]] if coeffs else [1])


def bump(poly, degree=0):
    """poly + t^degree, over the ring poly lies in: over an integer form,
    one numerator moved by one."""
    return poly + TPoly.monomial(poly.ring, poly.ring.one, degree)


def plus_one(value, degree=0):
    """An undivided value plus t^degree, over its own denominator."""
    poly, d = value.poly, value.denominator
    return ScaledPoly(poly + TPoly.monomial(poly.ring, poly.ring.one * d, degree), d)


# The checkers compare their sides undivided and render an agreed value
# once.  A perturbed route must fail its instances, and every side of a
# failing instance must then render as its evaluator's value does, divided.

RAT = values.rational_map()


def failures_of(report):
    assert report["pass"] is False and report["failures"]
    for failure in report["failures"]:
        assert failure["equal"] is False
    return report["failures"]


def test_jt_mismatch_renders_each_side(capsys, monkeypatch):
    original = values._schur_value
    monkeypatch.setattr(values, "_schur_value", lambda *args: bump(original(*args)))
    for f in failures_of(sweeps.run_jt_sweep(max_cells=3, n_values=(2, 3), trials=1)):
        shape, weights = Partition(f["shape"]), values.DiagonalWeights(f["diagonal"])
        det_h, det_e = jacobi_trudi._determinants(shape, f["N"], RAT, weights)
        tableau = values.diagonal_tableau(shape, weights)
        assert f["schur"] == values.schur_value(tableau, f["N"], RAT).to_json()
        assert f["detH"] == det_h.divided().to_json() and f["detE"] == det_e.divided().to_json()
        assert f["detH"] == f["detE"] != f["schur"]
    code, payload, _ = run_json(["jt-verify", "--max-cells", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


def test_conjugation_mismatch_renders_each_side(capsys, monkeypatch):
    # t, not 1: a constant is fixed by t -> 1-t, so it would move both sides.
    original = values._schur_value
    monkeypatch.setattr(values, "_schur_value", lambda *args: bump(original(*args), 1))
    report = sweeps.run_conjugation_sweep(max_cells=3, n_values=(1, 2, 3), trials=1)
    for f in failures_of(report):
        tableau = Tableau(Partition(f["shape"]), f["rows"])
        assert f["lhs"] == values.schur_value(tableau, f["N"], RAT).subs_one_minus_t().to_json()
        assert f["rhs"] == values.schur_value(tableau.conjugate(), f["N"], RAT).to_json()
    code, payload, _ = run_json(["conjugation-verify", "--max-cells", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


def test_lgv_mismatch_renders_each_side(capsys, monkeypatch):
    original = lattice._run_sweep
    monkeypatch.setattr(lattice, "_run_sweep", lambda *args: bump(original(*args)))
    for f in failures_of(sweeps.run_lgv_sweep(max_cells=3, max_n=3)):
        shape, weights = Partition(f["shape"]), values.DiagonalWeights(f["diagonal"])
        sources, sinks = lattice.schur_path_endpoints(shape, f["N"])
        tableau = values.diagonal_tableau(shape, weights)
        signed = lattice._scaled_lgv_signed_sum(sources, sinks, RAT, weights)
        matrix = lattice._scaled_path_matrix(sources, sinks, RAT, weights)
        assert f["signed_sum"] == signed.divided().to_json()
        assert f["determinant"] == _scaled_determinant(matrix, QQ).divided().to_json()
        assert f["schur"] == values.schur_value(tableau, f["N"], RAT).to_json()
        assert f["determinant"] == f["schur"] != f["signed_sum"]
    code, payload, _ = run_json(["lgv-verify", "--max-cells", "2", "--N", "2"], capsys)
    assert code == 1 and payload["pass"] is False


def test_layer_mismatch_renders_each_side(capsys, monkeypatch):
    original = lattice._layer_closed_form
    monkeypatch.setattr(lattice, "_layer_closed_form", lambda *args: bump(original(*args)))
    for f in failures_of(sweeps.run_layer_sweep(max_cells=3, max_m=3)):
        shape, weights = Partition(f["shape"]), values.DiagonalWeights(f["diagonal"])
        bt = build_bit_tableau(shape, f["b"])
        predicted, _ = lattice._layer_sides(bt, bit_tableau_stats(bt), f["M"], RAT, weights)
        sources, sinks = lattice.layer_endpoints(shape, f["b"], f["M"])
        assert f["predicted"] == predicted.divided().to_json()
        signed = lattice._scaled_lgv_signed_sum(sources, sinks, RAT, weights)
        assert f["signed_sum"] == signed.divided().to_json()
        assert f["one_ordered"] and f["predicted"] != f["signed_sum"]
    code, payload, _ = run_json(["layer-verify", "--max-cells", "2", "--M", "2"], capsys)
    assert code == 1 and payload["pass"] is False


def test_palindrome_mismatch_renders_each_side(capsys, monkeypatch):
    # t, not 1: a constant is fixed by t -> 1-t.
    original = jacobi_trudi._scaled_determinant
    monkeypatch.setattr(
        jacobi_trudi, "_scaled_determinant", lambda *args: plus_one(original(*args), 1))
    for f in failures_of(sweeps.run_palindrome_sweep(max_r=2, max_n=3)):
        poly = jacobi_trudi.verify_palindromic_matrix(f["keys"], f["N"]).poly_scaled.divided()
        assert f["poly"] == poly.to_json()
        assert f["flipped"] == poly.subs_one_minus_t().to_json()
        assert f["poly"] != f["flipped"]
    code, payload, _ = run_json(["palindrome-verify", "--max-r", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


def test_path_linear_mismatch_renders_each_side(capsys, monkeypatch):
    original = lattice._path_row
    monkeypatch.setattr(
        lattice, "_path_row", lambda *args: [bump_coefficients(p) for p in original(*args)])
    for f in failures_of(sweeps.run_path_linear_sweep(max_r=2, max_n=3)):
        i, j, N = f["start_column"], f["end_column"], f["N"]
        weights = values.DiagonalWeights(f["diagonal"])
        by_path = lattice._scaled_path_sum(
            lattice.white(i, N - 1), lattice.white(j + 1, 0), RAT, weights).divided()
        direct = values.linear_value([weights[d] for d in range(j, i - 1, -1)], N, RAT)
        assert f["path_sum"] == by_path.to_json() and f["linear"] == direct.to_json()
        assert f["path_sum"] != f["linear"]
    code, payload, _ = run_json(["all-verify", "--max-cells", "2", "--N", "3"], capsys)
    assert code == 1 and payload["summary"]["path_linear"]["pass"] is False


def random_payload(rng, depth=0):
    """A nested value: str-keyed dicts, lists, strings with escapes and
    non-ASCII text, ints of every size, bools, None and empty containers,
    and the values the writer hands to json.dumps: tuples, floats (inf and
    nan among them) and dicts with int keys."""
    scalars = [
        lambda: rng.choice(["", "a", 'q"uote', "back\\slash", "line\nbreak", "\t\x00",
                            "caf\u00e9", "\U0001f600", "1/2", "-3"]),
        lambda: rng.choice([0, -1, 7, 2**70, -(10**30), rng.randint(-999, 999)]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([0.5, -2.0, 1e300, float("inf"), float("nan")]),
    ]
    if depth >= 4 or rng.random() < 0.3:
        return rng.choice(scalars)()
    size = rng.randint(0, 4)
    kind = rng.randrange(4)
    items = [random_payload(rng, depth + 1) for _ in range(size)]
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    if kind == 2:
        return {rng.choice(["b", "a", "A", "\u00e9", "key", "_", "10", "9"]) + str(i): item
                for i, item in enumerate(items)}
    return {rng.randint(-5, 5): item for item in items}


def test_report_writer_matches_json_dumps():
    # cli._json_text writes reports; it must give json.dumps' exact bytes
    # for any payload, including the values it hands to json.dumps.
    rng = random.Random(18)
    for _ in range(500):
        payload = {"report": random_payload(rng), "extra": random_payload(rng)}
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
        assert cli._json_text(payload["report"]) == json.dumps(
            payload["report"], indent=2, sort_keys=True)


def test_byte_identical_reruns(capsys):
    argv = ["jt-verify", "--max-cells", "3", "--N", "3", "--seed", "3", "--trials", "2"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"shape": [1, 1], "entries": [[2], [2]], "N": 5, "ring": "rational"})
    )
    code, payload, _ = run_json(
        ["compute", "--config", str(config), "--N", "3"], capsys
    )
    assert code == 0
    assert payload["N"] == 3  # the flag wins over the config file
    assert payload["coefficients"] == ["1/4", "17/16"]


@pytest.mark.parametrize(
    "argv",
    [
        ["all-verify", "--N", "1"],
        # every family that takes --N, so a new one cannot pass vacuously
        *([family.command, "--N", "1"] for family in sweeps.FAMILIES if "N" in family.flags),
        ["jt-verify", "--shape", "[1]", "--N", "0"],
        ["lgv-verify", "--shape", "[2,1]", "--N", "1"],
        ["palindrome-verify", "--keys", "[2,3]", "--N", "1"],
    ],
)
def test_sweeps_below_n_2_are_refused(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and "--N >= 2" in err and not out


def test_empty_sweeps_do_not_pass(capsys):
    for report in (sweeps.run_lgv_sweep(max_cells=0), sweeps.run_oracle_triangle(max_n=0)):
        assert report["checked"] == 0 and report["pass"] is False
    for argv in (
        ["lgv-verify", "--max-cells", "0"],
        ["jt-verify", "--trials", "0", "--N", "2"],
        ["all-verify", "--max-cells", "0", "--N", "2"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and "checked no instance" in err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["linear-verify", "--max-r", "-1"],
        ["jt-verify", "--trials", "0"],
        ["all-verify", "--max-cells", "-1"],
    ],
)
def test_refused_empty_sweep_writes_one_stderr_line(argv, capsys):
    # No per-family verdict may come before the refusal.
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err.splitlines() == [err.strip()] and err.startswith("invalid input: ")
    assert "checked no instance" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lgv-verify", "--diagonal", "[1]", "--max-cells", "2", "--N", "2"],
        ["jt-verify", "--diagonal", "oops", "--max-cells", "2", "--N", "2"],
        ["layer-verify", "--b", "[9]", "--max-cells", "2", "--M", "2"],
        ["layer-verify", "--diagonal", '{"0": 2}', "--max-cells", "2", "--M", "2"],
        ["compute", "--entries", "[[2]]", "--N", "3"],
    ],
    ids=["lgv-diagonal", "jt-diagonal", "layer-b", "layer-diagonal", "compute-entries"],
)
def test_instance_flags_without_shape_are_refused(argv, capsys):
    # A sweep would ignore them and exit 0.
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert f"{argv[1]} needs --shape" in err


def test_instance_flags_from_config_without_shape_are_refused(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"diagonal": {"0": 2}, "max-cells": 2, "N": 2}))
    code, out, err = run(["jt-verify", "--config", str(path)], capsys)
    assert code == 2 and not out and "--diagonal needs --shape" in err


HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["linear-verify", "--N", HUGE, "--max-r", "0"],
        ["jt-verify", "--shape", "[1]", "--N", HUGE, "--diagonal", '{"0":2}'],
        ["all-verify", "--N", HUGE, "--max-cells", "0"],
        ["layer-verify", "--shape", "[1]", "--b", "[0]", "--M", HUGE],
        ["compute", "--shape", "[1]", "--entries", "[[2]]", "--N", HUGE],
        ["jt-verify", "--seed", "-" + HUGE, "--max-cells", "1", "--N", "2"],
        ["linear-verify", "--N", str(sys.maxsize + 1), "--max-r", "0"],
    ],
    ids=["linear-N", "jt-N", "all-N", "layer-M", "compute-N", "negative-seed", "maxsize+1"],
)
def test_int_flags_beyond_a_machine_word_exit_2(argv, capsys):
    # Bad input, refused up front, not an internal OverflowError (exit 4).
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err.splitlines() == [err.strip()] and err.startswith("invalid input: ")
    assert f"exceeds {sys.maxsize}" in err


def test_int_config_values_beyond_a_machine_word_exit_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"max-r": 0, "N": 10**20}))
    code, out, err = run(["linear-verify", "--config", str(path)], capsys)
    assert code == 2 and not out
    assert err == f"invalid input: --N {10**20} exceeds {sys.maxsize} in magnitude\n"
    # sys.maxsize itself is a machine word.
    path.write_text(json.dumps({"seed": sys.maxsize, "max-cells": 1, "N": 2}))
    code, payload, _ = run_json(["jt-verify", "--config", str(path)], capsys)
    assert code == 0 and payload["seed"] == sys.maxsize


@pytest.mark.parametrize(
    "config",
    [{"N": "abc"}, {"N": True}, {"N": 2.0}, {"seed": "x"}, {"Nx": 3}, {"ring": 5},
     {"max-cells": None}],
)
def test_malformed_config_exits_2(config, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run(["jt-verify", "--config", str(path)], capsys)
    assert code == 2 and not out
    assert "config key" in err  # named by the check, not by a later failure


def test_config_accepts_dashed_and_parsed_values(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"max-cells": 2, "N": 2, "trials": 1, "ring": "qsym"}))
    code, payload, _ = run_json(["jt-verify", "--config", str(path)], capsys)
    assert code == 0 and payload["ring"] == "qsym" and payload["checked"] > 0


COMMANDS = sorted(cli.COMMANDS)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def command_flags(command):
    """The flags a command takes, from the command registry."""
    return [*cli.COMMANDS[command].flags, "output"]


@st.composite
def malformed_configs(draw):
    """A command and a config holding one entry its flags would reject."""
    command = draw(st.sampled_from(COMMANDS))
    flags = command_flags(command)
    int_flags = sorted(d for d in flags if cli.FLAGS[d][0] is int)
    text_flags = sorted(d for d in flags if cli.FLAGS[d][0] is str)
    kind = draw(st.sampled_from(["unknown", "int", "text"]))
    if kind == "unknown":
        key = draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k.replace("-", "_") not in flags))
        value = draw(JSON_VALUES)
    elif kind == "int":
        key = draw(st.sampled_from(int_flags))
        value = draw(JSON_VALUES.filter(lambda v: type(v) is not int))
    else:
        key = draw(st.sampled_from(text_flags))
        value = draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
    return command, {key: value}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_configs())
def test_malformed_configs_never_exit_0_or_1(tmp_path, capsys, case):
    command, config = case
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, _ = run([command, "--config", str(path)], capsys)
    assert code == 2 and not out


def _is_int(x):
    return type(x) is int


def _int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


# What each JSON-valued flag accepts, restated independently of the parsers.
VALID_JSON = {
    "shape": _int_list,
    "b": _int_list,
    "keys": _int_list,
    "entries": lambda v: isinstance(v, list) and all(map(_int_list, v)),
    "diagonal": lambda v: isinstance(v, dict) and all(
        k.lstrip("-").isascii() and k.lstrip("-").isdigit() and str(int(k)) == k and _is_int(x)
        for k, x in v.items()
    ),
}


def _valid_json_text(flag, text):
    try:
        return VALID_JSON[flag](json.loads(text))
    except ValueError:
        return False


@st.composite
def malformed_json_flags(draw):
    """A command, one of its JSON-valued flags, and command-line text that
    flag must refuse: not JSON, JSON of the wrong form, or an object with a
    repeated key."""
    command = draw(st.sampled_from(
        [c for c in COMMANDS if set(command_flags(c)) & set(VALID_JSON)]))
    flag = draw(st.sampled_from(sorted(set(command_flags(command)) & set(VALID_JSON))))
    malformed = (
        st.text(max_size=8)
        | JSON_VALUES.map(json.dumps)
        | st.dictionaries(st.sampled_from(["0", "1", "-1", "01", " 1", "1_0", "+1", "-0"]),
                          st.integers(-2, 3), min_size=1, max_size=3).map(json.dumps)
        | st.just("[2, 2]")
    ).filter(lambda text: not _valid_json_text(flag, text))
    # json.loads keeps one of two repeated keys, so these read as valid above.
    repeated = st.sampled_from(['{"1": 2, "1": 2}', '{"0": 2, "0": 3}'])
    text = draw(malformed | repeated)
    return command, flag, text


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_json_flags())
def test_malformed_json_flags_never_exit_0_or_1(capsys, case):
    command, flag, text = case
    argv = [command, f"--{flag}={text}"]
    if flag not in ("shape", "keys"):
        argv.insert(1, "--shape=[1]")
    code, out, err = run(argv, capsys)
    assert code == 2 and not out, (argv, code, err)
    assert "invalid input" in err and "Traceback" not in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # The decoder's RecursionError used to escape as a traceback with exit 1.
    nested = "[" * 100_000
    code, out, err = run(["compute", "--shape", nested, "--N", "3"], capsys)
    assert code == 2 and not out and "nested too deeply" in err
    path = tmp_path / "run.json"
    path.write_text('{"shape": ' + nested)
    code, out, err = run(["compute", "--config", str(path)], capsys)
    assert code == 2 and not out and "nested too deeply" in err


def test_compute_refuses_entries_with_diagonal(capsys):
    # Used to exit 0 and silently ignore --diagonal.
    code, out, err = run(
        ["compute", "--shape", "[1]", "--entries", "[[2]]", "--diagonal", '{"0":2}', "--N", "3"],
        capsys,
    )
    assert code == 2 and not out and "not both" in err


def test_noncanonical_qseries_order_exits_2(capsys):
    # Used to run over an order-10 ring and echo "qseries:1_0" in the report.
    argv = ["compute", "--shape", "[1]", "--entries", "[[2]]", "--N", "3", "--ring"]
    code, out, err = run([*argv, "qseries:1_0"], capsys)
    assert code == 2 and not out and "q-series order" in err
    code, payload, _ = run_json([*argv, "qseries:8"], capsys)
    assert code == 0 and payload["ring"] == "qseries:8"


def test_compute_entries_must_be_rows_of_labels(capsys):
    # A flat list of labels used to fail with a TypeError traceback and exit 1.
    code, out, err = run(["compute", "--shape", "[2]", "--entries", "[2,2]", "--N", "3"], capsys)
    assert code == 2 and not out and "entries" in err


@pytest.mark.parametrize("label", ['"2"', "null", "2.5", "[2]", "true"])
@pytest.mark.parametrize("flag", ["entries", "diagonal"])
def test_non_integer_labels_exit_2(flag, label, capsys):
    # These labels used to reach the coefficient map and exit 3.
    value = f"[[{label}]]" if flag == "entries" else f'{{"0": {label}}}'
    code, out, err = run(["compute", "--shape", "[1]", f"--{flag}", value, "--N", "3"], capsys)
    assert code == 2 and not out and "invalid input" in err


@pytest.mark.parametrize("extra", ['"01":3', '" 1":3', '"1_0":3', '"+1":3', '"-0":3', '"1":3'])
def test_diagonal_offsets_must_be_canonical_and_distinct(extra, capsys):
    # Each used to exit 0: "01", "-0" and a repeated "1" silently replaced a
    # label, and " 1", "1_0" and "+1" were read as offsets.
    diagonal = f'{{"-1":2,"0":2,"1":2,{extra}}}'
    code, out, err = run(["jt-verify", "--shape", "[2,1]", "--diagonal", diagonal], capsys)
    assert code == 2 and not out and "invalid input" in err
    code, _, _ = run(["jt-verify", "--shape", "[2,1]", "--diagonal", '{"-1":2,"0":2,"1":2}'], capsys)
    assert code == 0


def test_integer_labels_outside_the_domain_stay_exit_3(capsys):
    code, out, err = run(
        ["compute", "--shape", "[1]", "--diagonal", '{"0": 0}', "--N", "3", "--ring", "qsym"],
        capsys,
    )
    assert code == 3 and not out and "domain error" in err


@pytest.mark.parametrize(
    "shape, diagonal",
    [
        ("[1]", f'{{"0": {2**64}}}'),
        ("[1]", f'{{"0": {2**70 + 3}}}'),
        ("[2]", f'{{"0": {2**63}, "1": {2**63}}}'),
    ],
)
def test_qsym_exponents_past_the_field_limit_exit_3(shape, diagonal, capsys):
    # The first used to exit 0; the exponents of a qsym value are capped
    # at 2^64 - 1, and a product in which an exponent would pass the cap
    # is refused.
    argv = ["compute", "--shape", shape, "--diagonal", diagonal, "--N", "3", "--ring", "qsym"]
    code, out, err = run(argv, capsys)
    assert code == 3 and not out
    assert err.startswith("domain error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_qsym_exponents_up_to_the_field_limit_are_computed(capsys):
    code, payload, _ = run_json(
        ["compute", "--shape", "[1]", "--diagonal", f'{{"0": {2**64 - 1}}}', "--N", "2",
         "--ring", "qsym"],
        capsys,
    )
    assert code == 0
    assert payload["coefficients"] == [[{"coeff": 1, "powers": [[1, 2**64 - 1]]}]]


def test_qsym_exponents_of_different_variables_past_the_summed_bound_are_computed(capsys):
    # The two cells at offset 0 share a diagonal, so they hold distinct
    # entries: x_1^(2^63) * x_2^(2^63) never puts 2^64 into one field.
    diagonal = {"-1": 1, "0": 2**63, "1": 1}
    code, payload, _ = run_json(
        ["compute", "--shape", "[2,2]", "--diagonal", json.dumps(diagonal), "--N", "3",
         "--ring", "qsym"],
        capsys,
    )
    assert code == 0
    cmap = values.quasisymmetric_map()
    tableau = Tableau.from_rows([[2**63, 1], [1, 2**63]])
    expected = filling_sum_oracle(tableau, 3, cmap)
    assert payload["coefficients"] == [c.to_json() for c in expected.coeffs]
    assert payload["coefficients"][0] == [
        {"coeff": 1, "powers": [[1, 2**63 + 1], [2, 2**63 + 1]]}
    ]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["compute", "--shape", "[]", "--N", "2", "--output", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["coefficients"] == ["1"]


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(["compute", "--config", "/nonexistent.json"], capsys)
    assert code == 2


def test_module_entry_point_process():
    # The child imports the same schurzeta as this test, installed or not.
    env = dict(os.environ)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable, "-m", "schurzeta",
            "compute", "--shape", "[1,1]", "--entries", "[[2],[2]]", "--N", "3",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["coefficients"] == ["1/4", "17/16"]
    assert "compute" in result.stderr

    bad = subprocess.run(
        [sys.executable, "-m", "schurzeta", "compute", "--shape", "oops"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 2
