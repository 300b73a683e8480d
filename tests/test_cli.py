"""Command-line driver: outputs, exit codes, determinism, config files."""

import json
import os
import subprocess
import sys
from pathlib import Path

from schurzeta import cli


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
