"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

- at seed 0 every census table the benchmark emits is byte-identical to
  ``padiccf table`` on the equivalent config with ``jobs=1``;
- each workload's output equals the recorded output, traced and untraced;
- the trace wrappers sit at the names callers resolve and are restored.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import checkout
import golden
import tracing
import workloads

padiccf = checkout.use_src()


def run(workload: str, seed: int, traced: bool) -> dict:
    if not traced:
        return workloads.run_pass(workload, seed, SimpleNamespace(op=-1))
    tracer = tracing.Tracer()
    tracer.install(padiccf)
    try:
        result = workloads.run_pass(workload, seed, tracer)
    finally:
        tracer.restore()
    result["trace"] = tracer.summary()
    return result


@pytest.fixture(scope="module")
def seed0():
    return {w: run(w, 0, traced=False) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.CENSUS))
def test_census_tables_match_cli(workload, seed0, tmp_path):
    from padiccf import cli

    for leg, table in zip(workloads.CENSUS[workload], seed0[workload]["output"]):
        config, out = tmp_path / f"{leg.name}.json", tmp_path / f"{leg.name}.csv"
        config.write_text(json.dumps(leg.run_config()))
        assert cli.main(["table", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text() == table, leg.name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_output_matches_record_traced_and_untraced(workload, seed0):
    want = golden.expected(workload, 0)
    traced = run(workload, 0, traced=True)
    assert seed0[workload]["output"] == want["output"]
    assert traced["output"] == want["output"]
    assert golden.digest(traced["output"]) == golden.digest(seed0[workload]["output"])
    assert len(traced["lat"]) == want["ops"]
    calls = traced["trace"]["calls"]
    assert calls["cfrac.expand"] == traced["expansions"]
    assert calls.get("cfrac.convergent", 0) == traced.get("horizons", 0)
    assert calls.get("cfrac.inverse_step", 0) == traced.get("sum_n", 0)


def test_windows_are_seeded_prefix_at_zero():
    assert workloads.window(0, "k", 20, 10) == list(range(10))
    assert workloads.window(5, "k", 20, 10) == workloads.window(5, "k", 20, 10)
    assert workloads.window(5, "k", 20, 10) != workloads.window(6, "k", 20, 10)
    assert golden.expected("census_phi3", 3) == golden.expected("census_phi3", 3)


def test_wrappers_at_caller_names_and_restored():
    from padiccf import cfrac, cli, field, hensel, lab, preduce

    names = {
        (lab, "validate_minpoly"), (field, "validate_minpoly"), (cfrac, "p_reduce"),
        (cli, "p_reduce"), (preduce, "p_reduce"), (lab, "expand"), (cfrac, "expand"),
    }
    attrs = {
        (field.FieldElement, "__mul__"), (field.FieldElement, "__rmul__"),
        (field.FieldElement, "inverse"), (hensel.Embedding, "ord"), (preduce.RationalMatrix, "inverse"),
    }
    before = {key: getattr(*key) for key in names} | {key: vars(key[0])[key[1]] for key in attrs}
    tracer = tracing.Tracer()
    tracer.install(padiccf)
    try:
        for key in names:
            assert getattr(*key) is not before[key], key
        for key in attrs:
            assert vars(key[0])[key[1]] is not before[key], key
        k = lab.validate_minpoly(2, [1, 2])
        z = k.gen()
        _ = (z * z, 3 * z, z.inverse(), hensel.Embedding(k).ord(z))
    finally:
        tracer.restore()
    assert {key: getattr(*key) for key in names} | {key: vars(key[0])[key[1]] for key in attrs} == before
    calls = tracer.summary()["calls"]
    assert calls["field.validate_minpoly"] == 1
    assert calls["field.FieldElement.__mul__"] == 2
    assert calls["field.FieldElement.inverse"] >= 1
    assert calls["hensel.Embedding.ord"] == 1
