import json

import pytest

from padiccf.cli import main


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 6


def test_expand_json(capsys):
    code = main(
        [
            "expand",
            "--p", "2",
            "--minpoly", "1,2",
            "--elem", '{"coeffs": ["0", "1"]}',
            "--algo", "phi1",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"]["kind"] == "periodic"
    assert data["status"]["preperiod"] == 0
    assert data["format"] == 1


def test_expand_human_readable(capsys):
    code = main(
        [
            "expand",
            "--p", "2",
            "--minpoly", "1,2",
            "--elem", '[{"coeffs": ["2/3"]}]',
            "--algo", "phi1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "status: finite" in out


def test_zset_counts(capsys):
    assert main(["zset", "--p", "2", "--degree", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 78
    assert data[0]["coeffs"] == ["1", "-18"]  # (a,b) = (1,-9); b=-10 is reducible


def test_suite_command(capsys):
    assert main(["suite", "--p", "2", "--minpoly", "1,2", "--s", "1", "--size", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["elements"]) == 3


def test_table_command(tmp_path, capsys):
    cfg = {
        "primes": [2],
        "degree": 2,
        "algorithms": [{"algo": "phi1", "eps": 1}],
        "suite_size": 2,
        "max_steps": 200,
        "height_exponent": 30,
        "z_limit": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "table.csv"
    assert main(["table", "--config", str(path), "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("prime,phi1[+1]:P")
    assert text.splitlines()[1].startswith("2,")


def test_invalid_minpoly_exit_code(capsys):
    code = main(
        [
            "expand",
            "--p", "2",
            "--minpoly", "2,2",
            "--elem", '{"coeffs": ["0", "1"]}',
            "--algo", "phi1",
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_table_errors_exit_code(tmp_path, monkeypatch, capsys):
    from padiccf import cli

    monkeypatch.setattr(
        cli.lab, "run_batch", lambda cfg: ([], [(2, ("1", "2"), 0, "phi1[+1]", "boom")])
    )
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1", "eps": 1}]})
    )
    assert main(["table", "--config", str(path)]) == 3
    assert "boom" in capsys.readouterr().err


def test_bad_json_exit_code(capsys):
    code = main(
        [
            "expand",
            "--p", "2",
            "--minpoly", "1,2",
            "--elem", "not json",
            "--algo", "phi1",
        ]
    )
    assert code == 2


def test_zero_denominator_exit_code(capsys):
    code = main(
        [
            "expand",
            "--p", "2",
            "--minpoly", "1,2",
            "--elem", '{"coeffs": ["1/0"]}',
            "--algo", "phi1",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err


@pytest.mark.parametrize("degree", ["0", "1"])
def test_zset_degree_below_two_exit_code(degree, capsys):
    assert main(["zset", "--p", "2", "--degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree" in captured.err


@pytest.mark.parametrize(
    "elem",
    ['{"coeffs": [1]}', '{"x": 1}', '[{"coeffs": ["1"]}, 3]', '"1/2"', '{"coeffs": "1"}', "[]"],
)
def test_malformed_elem_exit_code(elem, capsys):
    code = main(["expand", "--p", "2", "--minpoly", "1,2", "--elem", elem, "--algo", "phi1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "config",
    [
        {"primes": 2, "degree": 2, "algorithms": [{"algo": "phi1"}]},
        {"primes": [2], "degree": "3", "algorithms": [{"algo": "phi1"}]},
        {"degree": 2, "algorithms": [{"algo": "phi1"}]},
        {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}], "jobs": "x"},
        [{"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}]}],
        {"primes": [2], "degree": 2, "algorithms": ["phi1"]},
        {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}], "suite_size": -1},
        {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi9"}]},
        {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1", "eps": 5}]},
    ],
)
def test_malformed_table_config_exit_code(config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["table", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_table_default_eps_label(tmp_path, capsys):
    cfg = {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}, {"algo": "phi2"}],
           "suite_size": 2, "max_steps": 200, "height_exponent": 30, "z_limit": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["table", "--config", str(path)]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head.startswith("prime,phi1[+1]:P,phi1[+1]:H,phi2(1)[+1]:P")
