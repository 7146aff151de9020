"""Smoke test of the repository tools."""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_counts_every_module_and_sums_to_the_total():
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    rows = [line.split() for line in res.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} == {p.stem for p in (ROOT / "src" / "padiccf").glob("*.py")}
    assert sum(int(n) for n, _ in modules) == int(total) > 0


@pytest.mark.parametrize("path", [p for p in sorted((ROOT / "src" / "padiccf").glob("*.py"))
                                  if p.stem != "__init__"], ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    """Every name a module imports (at any depth) is read somewhere in it;
    ``__init__`` re-exports, so it is exempt."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_package_definition_has_a_reference():
    """Every function, method and class defined in the package (dunders
    aside) is named, as a ``Name`` or an ``Attribute``, somewhere in
    ``src/``, ``tests/``, ``perfbench/`` or ``tools/`` outside its own
    definition: code without a caller is deleted, not kept."""
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "tests", "perfbench", "tools") for path in sorted((ROOT / top).rglob("*.py"))}
    refs = Counter(_referenced_name(node) for tree in trees.values() for node in ast.walk(tree))
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "padiccf":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("__"):
                inside = sum(_referenced_name(sub) == node.name for sub in ast.walk(node))
                if refs[node.name] == inside:
                    unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == []


def test_no_nested_function_names_itself():
    """No function nested in another one in ``src/padiccf`` refers to its
    own name: such a closure and its own cell form a reference cycle that
    keeps the enclosing call's locals alive until the cycle collector
    runs."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = set()
    for path in sorted((ROOT / "src" / "padiccf").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, funcs):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, funcs[:2]) and any(
                        isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                    found.add(f"{path.stem}.{inner.name}")
    assert sorted(found) == []


def _load_pairs():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return pairs


def test_pairs_scales_to_the_benchmark_reference_probe():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert _load_pairs().PROBE_REF_S == run.PROBE_REF_S


@pytest.mark.parametrize("n", [1, 5, 11, 12, 40])
def test_pairs_tail_is_the_benchmark_tail_rank(n):
    """A pass's ``op_tail_ms`` is its latency at ``run.tail_rank``: ten
    beyond it, or the least one when there are not that many; failed ops
    (None) are left out, and the order of the ops does not matter."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    pairs = _load_pairs()
    assert pairs.TAIL_BEYOND == run.TAIL_BEYOND
    ref = pairs.PROBE_REF_S
    lat_ms = [float(k + 1) for k in range(n)]
    lat = [x / 1e3 for x in lat_ms[1::2]] + [None] + [x / 1e3 for x in lat_ms[::2]]
    got = pairs.pass_metrics({"probes": [ref], "pass_s": 1.0 + ref, "lat": lat, "rss_mb": 20.0})
    assert got["op_tail_ms"] == pytest.approx(lat_ms[run.tail_rank(n)])
    assert got["op_tail_ms"] == pytest.approx(max(1.0, n - 10.0))


def test_pairs_pooled_tail_is_the_benchmark_tail_of_per_op_medians():
    """A side's pooled tail is ``perfbench/run.py``'s ``op_tail_ms`` over
    its passes: each op's median over the probe-scaled passes, an op
    failed in any pass left out, read at ``run.tail_rank``.  A slow op in
    one pass moves that pass's own tail but not the pooled one."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    pairs = _load_pairs()
    ref = pairs.PROBE_REF_S
    base = [float(k + 1) for k in range(12)]  # ms at the reference speed
    passes = []
    for k in range(3):
        lat_ms = base[:k] + [100.0] + base[k + 1:] + [None if k == 1 else 50.0]
        # probes at k + 1 times the reference: the pass's times are divided by k + 1
        passes.append({"probes": [(k + 1) * ref], "pass_s": 1.0,
                       "lat": [None if x is None else (k + 1) * x / 1e3 for x in lat_ms], "rss_mb": 20.0})
    arrays = [pairs.op_ms(data) for data in passes]
    assert [x for x in arrays[1] if x == x] == pytest.approx([1.0, 100.0] + base[2:])
    assert [pairs.pass_metrics(data)["op_tail_ms"] for data in passes] == pytest.approx([4.0, 3.0, 4.0])
    assert pairs.pooled_tail(arrays) == pytest.approx(base[run.tail_rank(len(base))]) == 2.0
    assert pairs.pooled_tail(arrays[:1]) == pytest.approx(pairs.pass_metrics(passes[0])["op_tail_ms"])


def test_pairs_summary_on_fixed_passes():
    pairs = _load_pairs()
    ref = pairs.PROBE_REF_S

    def one(pass_s, lat_ms, rss):
        # probes at twice the reference time: every time is scaled by 1/2
        return {"probes": [2 * ref] * 4, "pass_s": pass_s + 8 * ref, "lat": [lat_ms / 1e3, None, lat_ms / 1e3],
                "rss_mb": rss}

    parent = [one(2.0, 4.0, 20.0), one(2.2, 4.4, 20.0), one(2.4, 4.0, 20.0), one(2.0, 4.2, 20.0)]
    change = [one(1.4, 3.0, 20.0), one(1.6, 5.0, 20.0), one(1.4, 3.0, 20.0), one(1.5, 3.2, 21.0)]
    got = pairs.summarize([(pairs.pass_metrics(a), pairs.pass_metrics(b)) for a, b in zip(parent, change)])
    assert pairs.pass_metrics(parent[1]) == pytest.approx({"pass_s": 1.1, "op_p50_ms": 2.2, "op_tail_ms": 2.2,
                                                           "rss_mb": 20.0})
    # inclusive quartiles of 1.0, 1.0, 1.1, 1.2 and of 0.7, 0.7, 0.75, 0.8
    assert got["pass_s"]["parent"] == pytest.approx((1.0, 1.05, 1.125))
    assert got["pass_s"]["change"] == pytest.approx((0.7, 0.725, 0.7625))
    assert (got["pass_s"]["won"], got["pass_s"]["lost"], got["pass_s"]["gain"]) == (4, 0, True)
    # one pair lost: 3 of 4 is under nine tenths, so no gain
    assert (got["op_p50_ms"]["won"], got["op_p50_ms"]["lost"], got["op_p50_ms"]["gain"]) == (3, 1, False)
    # ties count for neither side
    assert (got["rss_mb"]["won"], got["rss_mb"]["lost"], got["rss_mb"]["gain"]) == (0, 1, False)
    # a pass's two latencies are equal, so its tail is its median
    assert {k: got["op_tail_ms"][k] for k in ("won", "lost", "gain")} == \
        {k: got["op_p50_ms"][k] for k in ("won", "lost", "gain")}
    assert not any(row["regression"] for row in got.values())


@pytest.mark.parametrize("shift,lost_pairs,regression", [
    (0.3, 10, True),    # lost every pair, median 0.3 worse against a spread of 0.1
    (0.3, 9, True),     # nine tenths is enough
    (0.3, 8, False),    # eight tenths is not
    (0.05, 10, False),  # lost every pair, but by less than the parent's spread
])
def test_pairs_regression_mirrors_gain(shift, lost_pairs, regression):
    """A regression is the change losing at least nine tenths of the pairs
    with its median worse than the parent's by more than the parent's
    quartile spread; swapping the sides turns it into a gain."""
    pairs = _load_pairs()
    parent = [1.0, 1.1] * 5  # quartiles 1.0 / 1.05 / 1.1
    change = [x + shift if k < lost_pairs else x - shift for k, x in enumerate(parent)]
    metrics = lambda x: dict.fromkeys(pairs.METRICS, x)  # noqa: E731
    got = pairs.summarize([(metrics(a), metrics(b)) for a, b in zip(parent, change)])
    swapped = pairs.summarize([(metrics(b), metrics(a)) for a, b in zip(parent, change)])
    for name in pairs.METRICS:
        assert got[name]["lost"] == lost_pairs
        assert (got[name]["regression"], got[name]["gain"]) == (regression, False)
        assert (swapped[name]["won"], swapped[name]["gain"], swapped[name]["regression"]) == \
            (lost_pairs, regression, False)


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_pairs_refuses_fewer_than_one_pair(monkeypatch, capsys, value):
    """``--pairs`` below 1, or not an int, is an argparse error with exit
    code 2 before any pass runs, not a traceback from the summary."""
    pairs = _load_pairs()
    monkeypatch.setattr(pairs, "run_pass", lambda *args, **kwargs: pytest.fail("a pass ran"))
    with pytest.raises(SystemExit) as info:
        pairs.main(["A", "B", "--workload", "census_phi3", "--seed", "1", "--pairs", value])
    assert info.value.code == 2
    assert "argument --pairs" in capsys.readouterr().err


def test_pairs_passes_compile_from_source(monkeypatch, tmp_path):
    """Each pass reads and writes bytecode only under its own fresh, empty
    cache prefix and writes none, so both checkouts compile from source."""
    pairs = _load_pairs()
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((prefix, prefix.is_dir() and not any(prefix.iterdir()), env["PYTHONDONTWRITEBYTECODE"], cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout='log\n{"pass_s": 1.0}\n', stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.run_pass(tmp_path, "census_phi3", 1) == {"pass_s": 1.0}
    assert pairs.run_pass(tmp_path, "census_phi3", 1) == {"pass_s": 1.0}
    (first, empty1, flag1, cwd), (second, empty2, flag2, _) = seen
    assert cwd == tmp_path and empty1 and empty2 and flag1 == flag2 == "1"
    assert first != second and not first.exists() and not second.exists()


def test_pairs_digest_is_the_golden_digest():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import golden
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    output = [{"b": [1, 2], "a": "x"}, "2,3\n"]
    assert _load_pairs().digest(output) == golden.digest(output)


@pytest.mark.parametrize("differ", [False, True])
def test_pairs_out_keeps_metrics_and_digests(monkeypatch, tmp_path, capsys, differ):
    """``--out`` writes each pair's metrics and output digests on both
    sides, who ran first, and the summary of those metrics; differing
    outputs show as unequal digests and exit 1."""
    pairs = _load_pairs()
    ref = pairs.PROBE_REF_S
    parent, change = tmp_path / "parent", tmp_path / "change"
    times = {parent: iter([2.0, 2.2, 2.4, 2.0]), change: iter([1.4, 1.6, 1.4, 1.5])}
    calls = []

    def fake_pass(checkout, workload, seed, traced=False):
        calls.append(checkout)
        output = ["table", "other" if differ and checkout == change else "same"]
        if traced:
            return {"probes": [ref], "trace": {"self_s": {}, "calls": {}}}
        lat = [2e-3 if checkout == parent else 1e-3, None]
        return {"probes": [ref] * 2, "pass_s": next(times[checkout]) + 2 * ref, "lat": lat,
                "rss_mb": 20.0, "errors": [], "output": output}

    monkeypatch.setattr(pairs, "run_pass", fake_pass)
    out = tmp_path / "BENCH_t.json"
    argv = [str(parent), str(change), "--workload", "convergents", "--seed", "11", "--pairs", "4", "--out", str(out)]
    assert pairs.main(argv) == int(differ)
    assert calls == [parent, change, change, parent] * 2 + [parent, change]
    doc = json.loads(out.read_text())
    assert (doc["workload"], doc["seed"], doc["outputs_match"]) == ("convergents", 11, not differ)
    assert [row["first"] for row in doc["pairs"]] == ["parent", "change"] * 2
    for row in doc["pairs"]:
        assert set(row["parent"]) == set(row["change"]) == {*pairs.METRICS, "errors", "digest"}
        assert row["parent"]["digest"] == pairs.digest(["table", "same"])
        assert (row["parent"]["digest"] == row["change"]["digest"]) is not differ
    assert [row["parent"]["pass_s"] for row in doc["pairs"]] == pytest.approx([2.0, 2.2, 2.4, 2.0])
    summary = doc["summary"]["pass_s"]
    assert (summary["won"], summary["lost"], summary["gain"], summary["regression"]) == (4, 0, True, False)
    assert summary["parent"] == pytest.approx([2.0, 2.1, 2.25])
    # each side's pooled tail sits next to the per-pass op_tail_ms, and is printed
    assert doc["summary"]["op_tail_ms"]["pooled"] == pytest.approx({"parent": 2.0, "change": 1.0})
    printed = capsys.readouterr()
    assert "op_tail_ms pooled over each side's passes: parent 2.0000  change 1.0000" in printed.out
    assert ("the outputs differ" in printed.err) is differ


def test_pairs_out_keeps_one_traced_pass_per_side(monkeypatch, tmp_path):
    """``--out`` runs one traced pass per side after the untraced pairs and
    writes both sides' per-layer self times, scaled by the traced pass's
    own probes, and call counts; without ``--out`` nothing runs traced."""
    pairs = _load_pairs()
    ref = pairs.PROBE_REF_S
    parent, change = tmp_path / "parent", tmp_path / "change"
    ord_s = {parent: 0.19, change: 0.04}
    calls = []

    def fake_pass(checkout, workload, seed, traced=False):
        calls.append((checkout, traced))
        data = {"probes": [ref], "pass_s": 1.0 + ref, "lat": [1e-3], "rss_mb": 20.0, "errors": [], "output": []}
        if traced:
            data["probes"] = [ref / 2] if checkout == change else [ref]  # the change's times are doubled
            data["trace"] = {"self_s": {"hensel.Embedding.ord": ord_s[checkout], "cfrac.h_map": 0.02},
                             "calls": {"hensel.Embedding.ord": 3784}, "total_s": {}, "spans": 9}
        return data

    monkeypatch.setattr(pairs, "run_pass", fake_pass)
    out = tmp_path / "BENCH_t.json"
    argv = [str(parent), str(change), "--workload", "convergents", "--seed", "11", "--pairs", "2"]
    assert pairs.main(argv + ["--out", str(out)]) == 0
    assert calls == [(parent, False), (change, False), (change, False), (parent, False),
                     (parent, True), (change, True)]
    trace = json.loads(out.read_text())["trace"]
    assert trace == {side: {"self_s": {"hensel.Embedding.ord": ord_s[path] * k, "cfrac.h_map": 0.02 * k},
                            "calls": {"hensel.Embedding.ord": 3784}}
                     for side, path, k in (("parent", parent, 1), ("change", change, 2))}
    calls.clear()
    assert pairs.main(argv) == 0
    assert all(not traced for _, traced in calls) and len(calls) == 4


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_file_shows_equal_outputs(path):
    """Every ``BENCH_*.json`` at the repository root parses, names a
    benchmark workload and shows the change left the outputs as they were:
    ``outputs_match`` and equal digests on both sides of every pair."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    doc = json.loads(path.read_text())
    assert doc["outputs_match"] is True
    # files written before the pooled tail have none; later ones one per side
    pooled = doc["summary"].get("op_tail_ms", {}).get("pooled", {"parent": 1.0, "change": 1.0})
    assert set(pooled) == {"parent", "change"} and all(x > 0 for x in pooled.values())
    assert doc["workload"] in workloads.WORKLOADS
    assert doc["pairs"]
    for row in doc["pairs"]:
        digest = row["parent"]["digest"]
        assert len(digest) == 64 and int(digest, 16) >= 0 and digest == row["change"]["digest"]
