import contextlib
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from padiccf import polys
from padiccf.cfrac import expand
from padiccf.cli import build_parser, main
from padiccf.lab import RunConfig, build_test_set


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


def test_expand_uncertified_irreducible_quartic(capsys):
    """x^4 + 8x + 12 at p = 3, a generator of the degree-4 z-set, is
    irreducible with no one-prime certificate: it expands like any other."""
    elem = json.dumps([{"coeffs": ["0"] * k + ["1"]} for k in (1, 2, 3)])
    code = main(["expand", "--p", "3", "--minpoly", "0,0,8,12", "--elem", elem, "--algo", "phi3"])
    assert code == 0
    assert "status: periodic at step 4 preperiod=1 period=3" in capsys.readouterr().out


@pytest.mark.parametrize("p, minpoly, count", [("3", "1,2,3", 1), ("2", "1,2", 2), ("2", "1,2", 3)])
def test_expand_phi3_refuses_a_vector_not_of_degree_minus_one(p, minpoly, count, capsys):
    elem = json.dumps([{"coeffs": [str(k), "1"]} for k in range(count)])
    assert main(["expand", "--p", p, "--minpoly", minpoly, "--elem", elem, "--algo", "phi3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: phi3 needs degree - 1 components")


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


def test_zset_degree_above_cap_exit_code(capsys):
    assert main(["zset", "--p", "2", "--degree", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "MAX_DEGREE" in captured.err


def test_table_degree_above_cap_exit_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    # a small grid, so that a build without the cap runs it quickly
    config.write_text(json.dumps({"primes": [2], "degree": 21, "algorithms": [{"algo": "phi1"}],
                                  "suite_size": 1, "max_steps": 1, "z_limit": 1}))
    assert main(["table", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "MAX_DEGREE" in captured.err


DEGREE_21 = ",".join(["0"] * 19 + ["1", "2"])


@pytest.mark.parametrize("argv", [
    ["expand", "--p", "2", "--minpoly", DEGREE_21, "--elem", '{"coeffs": ["0", "1"]}', "--algo", "phi1",
     "--max-steps", "1"],
    ["suite", "--p", "2", "--minpoly", DEGREE_21, "--s", "1", "--size", "1"],
], ids=["expand", "suite"])
def test_minpoly_degree_above_cap_exit_code(argv, capsys, monkeypatch):
    def no_certification(*args):
        raise AssertionError("certification ran")

    monkeypatch.setattr(polys, "certify", no_certification)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "MAX_DEGREE" in captured.err


NESTED = "[" * 3000 + "]" * 3000  # past the JSON decoder's recursion limit


def test_deeply_nested_elem_exit_code(capsys):
    assert main(["expand", "--p", "2", "--minpoly", "1,2", "--elem", NESTED, "--algo", "phi1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_deeply_nested_table_config_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(NESTED)
    assert main(["table", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "elem",
    ['{"coeffs": [1]}', '{"x": 1}', '[{"coeffs": ["1"]}, 3]', '"1/2"', '{"coeffs": "1"}', "[]", "3", "null"],
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
        {"primes": [318665857834031151167461], "degree": 2, "algorithms": [{"algo": "phi1"}]},
        {"primes": [3317044064679887385961981], "degree": 2, "algorithms": [{"algo": "phi1"}]},
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


def test_negative_height_exponent_exit_code(capsys):
    # 10 ** -1 is the float 0.1: every orbit would end "height_exceeded at step 0"
    code = main(
        [
            "expand",
            "--p", "2",
            "--minpoly", "1,2",
            "--elem", '{"coeffs": ["0", "1"]}',
            "--algo", "phi1",
            "--height-exp", "-1",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "height_exponent" in captured.err
    assert "status:" not in captured.out


def test_huge_height_exponent_builds_no_giant_cap():
    # the orbit is periodic at step 2 with heights of a few bits; 10**(10**8)
    # alone would take minutes to build
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    args = ["expand", "--p", "2", "--minpoly", "1,2", "--elem", '{"coeffs":["0","1"]}', "--algo", "phi1"]
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "padiccf", *args, "--height-exp", "100000000"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 5
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "status: periodic at step 2 preperiod=0 period=2"


def test_phi2_lookahead_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    from padiccf import cfrac

    def no_map(*args):
        raise AssertionError("h_map ran")

    monkeypatch.setattr(cfrac, "h_map", no_map)
    args = ["expand", "--p", "2", "--minpoly", "0,1,4", "--algo", "phi2", "--lookahead", "12",
            "--elem", '[{"coeffs": ["0", "1", "0"]}, {"coeffs": ["0", "0", "1"]}]']
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: phi2 lookahead 12")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [2], "degree": 3, "algorithms": [{"algo": "phi2", "lookahead": 12}]}))
    assert main(["table", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: phi2 lookahead 12")


# strong pseudoprimes to the bases 2..37 and to the bases 2..41
@pytest.mark.parametrize("p", ["318665857834031151167461", "3317044064679887385961981"])
def test_pseudoprime_is_refused(p, capsys):
    assert main(["zset", "--p", p, "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refuses a value of the wrong type or out of its choices
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(max_steps=st.integers(-3, 4), show=st.integers(-3, 4), size=st.integers(-4, 3))
def test_counts_run_or_exit_2(max_steps, show, size):
    """A count below its least value is refused, never reinterpreted:
    --max-steps or --show below 0 and --size below 1 exit 2."""
    code, out, err = _run(["expand", "--p", "2", "--minpoly", "1,2", "--elem", '{"coeffs": ["0", "1"]}',
                           "--algo", "phi1", "--max-steps", str(max_steps), "--show", str(show)])
    if max_steps < 0 or show < 0:
        assert (code, out) == (2, "") and err.startswith("error:")
    else:
        # z is periodic at step 2, so min(max_steps, 2) + 1 remainders are recorded
        assert (code, err) == (0, "")
        assert out.count("  remainder ") == min(show, min(max_steps, 2) + 1)
    code, out, err = _run(["suite", "--p", "2", "--minpoly", "1,2", "--s", "1", "--size", str(size)])
    if size < 1:
        assert (code, out) == (2, "") and err.startswith("error:")
    else:
        assert (code, err) == (0, "") and len(json.loads(out)["elements"]) == size


def test_run_defaults_agree_everywhere():
    """A table config of the required keys alone takes the ``RunConfig``
    field defaults, which are ``expand``'s and ``build_test_set``'s keyword
    defaults and the defaults of the CLI flags."""
    config = RunConfig.from_json({"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}]})
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.default is not dataclasses.MISSING}
    assert {name: getattr(config, name) for name in defaults} == defaults
    keywords = {**inspect.signature(expand).parameters, **inspect.signature(build_test_set).parameters}
    assert (keywords["max_steps"].default, keywords["height_exponent"].default, keywords["size"].default) == \
        (defaults["max_steps"], defaults["height_exponent"], defaults["suite_size"])
    parser = build_parser()
    ex = parser.parse_args(["expand", "--p", "2", "--minpoly", "1,2", "--elem", "{}", "--algo", "phi1"])
    su = parser.parse_args(["suite", "--p", "2", "--minpoly", "1,2", "--s", "1"])
    assert (ex.max_steps, ex.height_exp, su.size) == \
        (defaults["max_steps"], defaults["height_exponent"], defaults["suite_size"])


# (p, minpoly, elem): a quadratic and a cubic field, one and two components
FIELDS = [("2", "1,2", '{"coeffs": ["0", "1"]}'),
          ("2", "0,1,4", '[{"coeffs": ["0", "1", "0"]}, {"coeffs": ["0", "0", "1"]}]')]
# values of each expand flag, None for leaving it out; --max-steps is kept small
FLAGS = {"--algo": ["phi0", "phi1", "phi2", "phi3", "phi9"],
         "--eps": [None, None, "1", "-1", "2", "x"],
         "--lookahead": [None, None, "1", "2", "0", "12", "2.5"],
         "--max-steps": ["0", "2", "5", "5", "-1", "2.5"],
         "--height-exp": [None, None, "10", "60", "-1", "x"]}


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_expand_flags_run_or_exit_2(field, data):
    """Every vector of expand flags gives a result or a refusal with exit
    code 2, and never a traceback."""
    p, minpoly, elem = field
    argv = ["expand", "--p", p, "--minpoly", minpoly, "--elem", elem]
    for flag, values in FLAGS.items():
        value = data.draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    code, out, err = _run(argv)
    assert "Traceback" not in err
    if code == 0:
        assert out.startswith("status:") and err == ""
    else:
        assert (code, out) == (2, "") and "error:" in err
