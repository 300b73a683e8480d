"""Command-line driver: outputs, exit codes, determinism, config files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schurzeta import cli, lattice, sweeps
from schurzeta.rings import QQ, TPoly


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
    def broken_checker(keys, N, cmap):
        raise RuntimeError("checker broke")

    monkeypatch.setattr(sweeps, "_check_linear_oracles", broken_checker)
    code, out, err = run(["linear-verify", "--max-r", "1", "--N", "2"], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: checker broke\n"
    assert "Traceback" not in err


def test_oracle_triangle_catches_a_perturbed_recursion(capsys, monkeypatch):
    # The faster routes are compared, not bypassed: one wrong recursion
    # value fails its instance, the sweep and the command.
    original = sweeps.linear_value_by_recursion

    def perturbed(keys, N, cmap):
        value = original(keys, N, cmap)
        return value + TPoly.one(QQ) if (tuple(keys), N) == ((2, 1), 3) else value

    monkeypatch.setattr(sweeps, "linear_value_by_recursion", perturbed)
    report = sweeps.run_oracle_triangle(max_r=2, max_n=3)
    assert report["pass"] is False
    assert [(f["keys"], f["N"]) for f in report["failures"]] == [([2, 1], 3)]
    code, payload, _ = run_json(["linear-verify", "--max-r", "2", "--N", "3"], capsys)
    assert code == 1 and payload["pass"] is False


def test_lgv_sweep_catches_a_perturbed_path_matrix(capsys, monkeypatch):
    original = lattice.path_matrix

    def perturbed(sources, sinks, cmap, weights):
        matrix = original(sources, sinks, cmap, weights)
        matrix[0][0] = matrix[0][0] + TPoly.one(cmap.ring)
        return matrix

    monkeypatch.setattr(lattice, "path_matrix", perturbed)
    report = sweeps.run_lgv_sweep(max_cells=2, max_n=2)
    assert report["pass"] is False
    # The one-cell shape's 1 x 1 matrix moves its determinant by one.
    assert any(f["shape"] == [1] for f in report["failures"])
    code, payload, _ = run_json(["lgv-verify", "--max-cells", "2", "--N", "2"], capsys)
    assert code == 1 and payload["pass"] is False


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
        ["jt-verify", "--N", "1"],
        ["jt-verify", "--shape", "[1]", "--N", "0"],
        ["conjugation-verify", "--N", "1"],
    ],
)
def test_sweeps_below_n_2_are_refused(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and "--N >= 2" in err and not out


def test_empty_sweeps_do_not_pass(capsys):
    report = sweeps.run_lgv_sweep(max_cells=0)
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
        ["linear-verify", "--N", "0"],
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
