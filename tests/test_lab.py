import dataclasses
import functools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiccf import lab, polys
from padiccf.cfrac import ALGORITHMS
from padiccf.errors import CapExceeded, ConfigError, HViolation, StreamExhausted
from padiccf.field import MAX_DEGREE, independent_with_one, validate_minpoly
from padiccf.lab import (
    BitStream,
    RunConfig,
    TableRow,
    build_test_set,
    build_z_set,
    byte_stream,
    emit_table,
    irrational_bits,
    run_batch,
)
from padiccf.rationals import Q
from oracles import bits_by_fraction

_REAL_Z_TASK = lab._z_task


def _z_task_dying_on_the_second_generator(args):
    """``lab._z_task``, except that the worker running the task of the
    second generator of its z-set dies; module-level, so a pool can send
    it to its workers."""
    mp = args[0]
    if mp == build_z_set(mp.p, mp.degree)[1]:
        os._exit(9)
    return _REAL_Z_TASK(args)


class TestBits:
    @pytest.mark.parametrize(
        "selector,first8",
        [
            ("x2+x-1", [1, 0, 0, 1, 1, 1, 1, 0]),
            ("x2+2x-1", [0, 1, 1, 0, 1, 0, 1, 0]),
            ("x2+2x-2", [1, 0, 1, 1, 1, 0, 1, 1]),
        ],
    )
    def test_first_bits(self, selector, first8):
        assert irrational_bits(selector, 8) == first8

    @pytest.mark.parametrize("selector", ["x2+x-1", "x2+2x-1", "x2+2x-2"])
    def test_against_fraction_oracle(self, selector):
        b, c = lab.SELECTORS[selector]
        assert irrational_bits(selector, 3000) == bits_by_fraction(b, c, 3000)

    def test_bisection_brackets_root(self):
        # sum of the emitted digits must stay below the root, and within
        # 2^-count of it
        b, c = 1, 1
        bits = irrational_bits("x2+x-1", 40)
        q = sum(Fraction(d, 2**i) for i, d in enumerate(bits, start=1))
        assert q * q + b * q - c < 0
        hi = q + Fraction(1, 2**40)
        assert hi * hi + b * hi - c > 0

    @pytest.mark.parametrize("selector", list(dict.fromkeys([*lab.SELECTORS.values(), *lab._stream_polys(5)])))
    def test_deep_bits_bracket_the_root(self, selector):
        """The first k = 100000 bits N/2^k bracket the shifted root:
        N^2 + b N 2^k - c 4^k < 0 < (N+1)^2 + b (N+1) 2^k - c 4^k, whether
        the bits are read one at a time or in one jump."""
        k = 100_000
        step, jump = BitStream(selector), BitStream(selector)
        bits = [step.bit(i) for i in range(1, k + 1)]
        jump.bit(k)
        assert [jump.bit(i) for i in range(1, k + 1)] == bits
        n, b, c = int("".join(map(str, bits)), 2), step.b, step.c
        assert n * n + b * n * 2**k - c * 4**k < 0 < (n + 1) ** 2 + b * (n + 1) * 2**k - c * 4**k

    def test_prefix_stability(self):
        st = BitStream("x2+x-1")
        early = [st.bit(k) for k in range(1, 17)]
        st.byte(100)  # extend far
        assert [st.bit(k) for k in range(1, 17)] == early

    def test_shifted_roots(self):
        # constants whose root exceeds 1 are shifted to the fractional part
        st = BitStream((2, 4))  # root sqrt(5)-1 ~ 1.236
        got = [st.bit(k) for k in range(1, 9)]
        frac = Fraction(0)
        for i, d in enumerate(got, start=1):
            frac += Fraction(d, 2**i)
        # fractional part of sqrt(5)-1 is sqrt(5)-2 ~ 0.2360679
        assert got[:4] == [0, 0, 1, 1]

    # roots above 1, shifted to their fractional part once or more first
    @pytest.mark.parametrize("selector", [(2, 4), (2, 5), (1, 5), (3, 11)])
    def test_shifted_roots_against_fraction_oracle(self, selector):
        st = BitStream(selector)
        assert irrational_bits(selector, 3000) == bits_by_fraction(st.b, st.c, 3000)

    def test_rational_root_rejected(self):
        with pytest.raises(ValueError):
            BitStream((2, 3))  # root exactly 1
        with pytest.raises(ValueError):
            BitStream((2, 8))  # root exactly 2


class TestBytes:
    def test_e0_values(self):
        assert byte_stream(irrational_bits("x2+x-1", 8))[0] == 121
        assert byte_stream(irrational_bits("x2+2x-1", 8))[0] == 86
        assert BitStream("x2+x-1").byte(0) == 121

    def test_zero_and_full_bytes(self):
        assert byte_stream([0] * 8) == [0]
        assert byte_stream([1] * 8) == [255]

    def test_lsb_first(self):
        assert byte_stream([1, 0, 0, 0, 0, 0, 0, 0]) == [1]
        assert byte_stream([0, 0, 0, 0, 0, 0, 0, 1]) == [128]

    def test_byte_stream_matches_class(self):
        bits = irrational_bits("x2+2x-2", 80)
        st = BitStream("x2+2x-2")
        assert byte_stream(bits) == [st.byte(i) for i in range(10)]


class TestSuiteConstruction:
    def test_deterministic(self, k2):
        a = build_test_set(k2, 1, 12)
        b = build_test_set(k2, 1, 12)
        assert [v.key() for v in a.elements] == [v.key() for v in b.elements]

    def test_prefix_stable(self, k2):
        small = build_test_set(k2, 1, 5)
        large = build_test_set(k2, 1, 15)
        assert [v.key() for v in large.elements[:5]] == [v.key() for v in small.elements]

    def test_requested_cardinality_and_uniqueness(self, k2, k3):
        suite = build_test_set(k2, 1, 20)
        assert len(suite.elements) == 20
        assert len({v.key() for v in suite.elements}) == 20
        suite2 = build_test_set(k3, 2, 10)
        assert len(suite2.elements) == 10

    def test_rejection_rule(self, k2, k3):
        for v in build_test_set(k2, 1, 20).elements:
            assert not v[0].is_rational()
        for v in build_test_set(k3, 2, 10).elements:
            assert independent_with_one(v.components)

    def test_first_element_matches_bytes(self, k2):
        # coefficient bytes as printed: sign e2/e5, numerator e1/e4,
        # denominator e0/e3
        st = BitStream("x2+x-1")
        e = [st.byte(i) for i in range(6)]
        t0_const = Q((-1) ** (e[2] % 2) * e[1], e[0] + 1)
        t0_z = Q((-1) ** (e[5] % 2) * e[4], e[3] + 1)
        suite = build_test_set(k2, 1, 1)
        assert suite.elements[0][0].coeffs == (t0_const, t0_z)

    def test_stream_budget(self, k2, monkeypatch):
        monkeypatch.setattr(lab, "MAX_DRAWS", 3)
        with pytest.raises(StreamExhausted):
            build_test_set(k2, 1, 10)

    @pytest.mark.parametrize("s,size", [(True, 2), (1, 2.0), (1, True), (1.0, 2)])
    def test_counts_are_ints(self, k2, s, size):
        """A bool or a float is refused, not read as the count it equals."""
        with pytest.raises(ValueError, match="must be an integer"):
            build_test_set(k2, s, size)

    @pytest.mark.parametrize("s", [0, 2, 1500])
    def test_s_outside_the_field_fails_before_any_draw(self, k2, s, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a bit stream was built")

        monkeypatch.setattr(lab, "BitStream", no_stream)
        with pytest.raises(ValueError, match="below the degree"):
            build_test_set(k2, s)

    def test_higher_dimension_components(self):
        k4 = validate_minpoly(2, [0, 0, 1, 6])
        suite = build_test_set(k4, 3, 4)
        assert all(len(v.components) == 3 for v in suite.elements)
        assert all(independent_with_one(v.components) for v in suite.elements)


class TestZSet:
    def test_quadratic_count_p2(self):
        zs = build_z_set(2, 2)
        assert len(zs) == 78

    def test_members_certified_and_admissible(self):
        for mp in build_z_set(5, 2)[:10]:
            assert mp.coeffs[-2] and int(mp.coeffs[-2]) % 5
            assert int(mp.coeffs[-1]) % 5 == 0

    def test_deterministic_order(self):
        zs = build_z_set(3, 2)
        pairs = [(int(mp.coeffs[-2]), int(mp.coeffs[-1]) // 3) for mp in zs]
        assert pairs == sorted(pairs)

    def test_a_multiples_of_p_excluded(self):
        assert all(int(mp.coeffs[-2]) % 3 for mp in build_z_set(3, 2))

    def test_memoized_per_prime_and_degree(self):
        zs = build_z_set(2, 3)
        assert isinstance(zs, tuple)
        assert build_z_set(2, 3) is zs


class TestBatch:
    def test_totals_invariant(self):
        cfg = RunConfig(
            primes=(2, 3),
            degree=2,
            algorithms=(("phi1", 1, None), ("phi0", 1, None)),
            suite_size=4,
            max_steps=500,
            height_exponent=30,
            z_limit=5,
        )
        rows, errors = run_batch(cfg)
        assert not errors
        assert [r.prime for r in rows] == [2, 3]
        for row in rows:
            for counts in row.counts.values():
                assert sum(counts.values()) == 5 * 4

    def test_serial_batch_reads_no_certificate(self, monkeypatch):
        """A table needs the irreducibility decision alone: a jobs = 1
        batch over freshly built cubic z-sets, each decided before its
        certificate, leaves every certificate pending.  The stand-in pool
        runs the tasks in this process, where the reads are counted."""
        monkeypatch.setattr(lab, "build_z_set", functools.lru_cache()(lab.build_z_set.__wrapped__))
        reads = []
        monkeypatch.setattr(polys, "find_certificate", lambda *args: reads.append(args))
        started = self._stand_in_pool(8, monkeypatch)
        cfg = RunConfig(primes=(2, 3), degree=3, algorithms=(("phi1", 1, None),), suite_size=2,
                        max_steps=200, height_exponent=30, z_limit=3)
        rows, errors = run_batch(cfg)
        assert not errors and [r.prime for r in rows] == [2, 3] and started == [1]
        assert reads == []
        assert all(mp._pending for p in (2, 3) for mp in lab.build_z_set(p, 3)[:3])

    def test_parallel_matches_serial(self):
        cfg = dict(
            primes=(2,),
            degree=2,
            algorithms=(("phi1", 1, None),),
            suite_size=3,
            max_steps=500,
            height_exponent=30,
            z_limit=4,
        )
        rows1, _ = run_batch(RunConfig(**cfg))
        rows2, _ = run_batch(RunConfig(**cfg, jobs=2))
        assert [r.to_json() for r in rows1] == [r.to_json() for r in rows2]

    def test_errors_collected_not_raised(self, monkeypatch):
        calls = {"n": 0}
        real = lab.expand

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(lab, "expand", flaky)
        self._stand_in_pool(8, monkeypatch)  # flaky counts its calls in this process
        cfg = RunConfig(
            primes=(2,),
            degree=2,
            algorithms=(("phi1", 1, None),),
            suite_size=3,
            max_steps=200,
            height_exponent=30,
            z_limit=2,
        )
        rows, errors = run_batch(cfg)
        assert len(errors) == 1 and "injected" in errors[0][-1]
        total = sum(sum(c.values()) for r in rows for c in r.counts.values())
        assert total == 2 * 3 - 1

    def test_tasks_of_one_config_build_the_suite_once(self, monkeypatch):
        """A task reads its suite through a one-entry memo: two tasks of
        one config in one process draw the suite once."""
        builds = []
        real = lab.build_test_set
        monkeypatch.setattr(lab, "build_test_set", lambda *args: builds.append(args) or real(*args))
        lab._suite_coefficients.cache_clear()
        cfg = RunConfig(primes=(2,), degree=2, algorithms=(("phi1", 1, None),), suite_size=2,
                        max_steps=200, height_exponent=30)
        for mp in build_z_set(2, 2)[:2]:
            _, counts, errors = lab._z_task((mp, cfg))
            assert not errors and sum(counts["phi1[+1]"].values()) == 2
        assert len(builds) == 1 and lab._suite_coefficients.cache_info().maxsize == 1

    def test_config_json(self):
        cfg = RunConfig.from_json(
            {
                "primes": [2, 5],
                "degree": 3,
                "algorithms": [{"algo": "phi3"}, {"algo": "phi2", "eps": -1, "lookahead": 2}],
                "suite_size": 7,
            }
        )
        assert cfg.primes == (2, 5)
        assert cfg.algorithms == (("phi3", None, None), ("phi2", -1, 2))
        assert cfg.suite_size == 7

    def test_config_json_defaults_name_what_runs(self):
        cfg = RunConfig.from_json(
            {"primes": [2], "degree": 3, "algorithms": [{"algo": "phi1"}, {"algo": "phi2"}, {"algo": "phi0", "eps": -1}]}
        )
        assert cfg.algorithms == (("phi1", 1, None), ("phi2", 1, 1), ("phi0", -1, None))
        assert [lab.algo_label(*spec) for spec in cfg.algorithms] == ["phi1[+1]", "phi2(1)[+1]", "phi0[-1]"]
        # explicit nulls read as absent, as the benchmark's configs write them
        again = RunConfig.from_json(
            {"primes": [2], "degree": 3, "algorithms": [{"algo": "phi3", "eps": None, "lookahead": None}]}
        )
        assert again.algorithms == (("phi3", None, None),)

    def test_direct_config_defaults_name_what_runs(self):
        """A ``RunConfig`` built directly gets the check ``from_json`` gets:
        a None eps or lookahead of an algorithm that takes it is 1."""
        cfg = RunConfig(primes=(2,), degree=3, algorithms=(("phi1", None, None), ("phi2", None, None),
                                                           ("phi3", None, None)))
        assert cfg.algorithms == (("phi1", 1, None), ("phi2", 1, 1), ("phi3", None, None))
        assert [lab.algo_label(*spec) for spec in cfg.algorithms] == ["phi1[+1]", "phi2(1)[+1]", "phi3"]
        assert cfg == RunConfig.from_json(
            {"primes": [2], "degree": 3, "algorithms": [{"algo": "phi1"}, {"algo": "phi2"}, {"algo": "phi3"}]})

    def test_direct_config_runs_what_its_column_names(self):
        """The phi1[+1] column of a direct (phi1, None, None) config counts
        what eps = +1 gives: the rows of the explicit config."""
        cfg = dict(primes=(2,), degree=2, suite_size=3, max_steps=200, height_exponent=30, z_limit=2)
        rows, errors = run_batch(RunConfig(algorithms=(("phi1", None, None),), **cfg))
        explicit, _ = run_batch(RunConfig(algorithms=(("phi1", 1, None),), **cfg))
        assert not errors and list(rows[0].counts) == ["phi1[+1]"]
        assert [r.to_json() for r in rows] == [r.to_json() for r in explicit]

    BAD_SPECS = [("phi0", 0, None), ("phi1", 1.0, None), ("phi1", None, 2), ("phi3", 1, None), ("phi2", 1, 0),
                 ("phi9", None, None)]
    BAD_FIELDS = [("max_steps", -1), ("max_steps", 0), ("jobs", 0), ("jobs", True), ("z_limit", 0), ("suite_size", 0),
                  ("height_exponent", -1), ("primes", ()), ("primes", (4,)), ("degree", 1),
                  ("degree", MAX_DEGREE + 1)]

    @pytest.mark.parametrize("field, value", [("algorithms", (spec,)) for spec in BAD_SPECS] + BAD_FIELDS,
                             ids=[f"spec{i}" for i in range(len(BAD_SPECS))] + [f"{f}={v!r}" for f, v in BAD_FIELDS])
    def test_direct_config_refuses_a_bad_entry_before_any_task(self, field, value):
        """A bad algorithm entry or field of a directly built config is
        refused by the construction itself, with the rule ``from_json``
        applies: no task can start from it."""
        cfg = dict(primes=(2,), degree=2, algorithms=(("phi1", 1, None),), suite_size=1, z_limit=1)
        with pytest.raises((ValueError, CapExceeded)):
            RunConfig(**{**cfg, field: value})

    def test_a_built_config_cannot_be_changed(self):
        """A config is frozen, so a field checked at construction cannot
        be reassigned unchecked afterwards."""
        cfg = RunConfig(primes=(2,), degree=2, algorithms=(("phi1", 1, None),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_steps = -1

    @pytest.mark.parametrize(
        "change",
        [
            {"primes": 2},
            {"primes": []},
            {"primes": [4]},
            {"primes": [2, 2]},
            {"primes": [True]},
            {"degree": "3"},
            {"degree": 1},
            {"jobs": "x"},
            {"jobs": 0},
            {"suite_size": -1},
            {"suite_size": 0},
            {"max_steps": 0},
            {"height_exponent": -1},
            {"z_limit": 0},
            {"z_limit": 1.5},
            {"algorithms": ["phi1"]},
            {"algorithms": []},
            {"algorithms": [{"algo": "phi9"}]},
            {"algorithms": [{"algo": ["phi1"]}]},
            {"algorithms": [{"eps": 1}]},
            {"algorithms": [{"algo": "phi1", "eps": 5}]},
            {"algorithms": [{"algo": "phi1", "eps": 1.0}]},
            {"algorithms": [{"algo": "phi1", "eps": True}]},
            {"algorithms": [{"algo": "phi2", "lookahead": 0}]},
            {"algorithms": [{"algo": "phi1", "lookahead": 2}]},
            {"algorithms": [{"algo": "phi3", "eps": 1}]},
            {"algorithms": [{"algo": "phi1", "epsilon": -1}]},
            {"algorithms": [{"algo": "phi1"}, {"algo": "phi1", "eps": 1}]},
            {"suite-size": 5},
        ],
    )
    def test_config_json_rejects(self, change):
        data = {"primes": [2], "degree": 3, "algorithms": [{"algo": "phi1", "eps": 1}], **change}
        with pytest.raises(ConfigError):
            RunConfig.from_json(data)

    @pytest.mark.parametrize("degree, lookahead, fits", [(3, 11, True), (3, 12, False), (6, 4, True), (6, 5, False)])
    def test_config_lookahead_budget(self, degree, lookahead, fits):
        # (degree - 1)^(lookahead + 1) images per step against LOOKAHEAD_BUDGET = 4096
        data = {"primes": [2], "degree": degree, "algorithms": [{"algo": "phi2", "lookahead": lookahead}]}
        if fits:
            assert RunConfig.from_json(data).algorithms == (("phi2", 1, lookahead),)
        else:
            with pytest.raises(ConfigError, match="lookahead"):
                RunConfig.from_json(data)

    @pytest.mark.parametrize("data", [[{"primes": [2]}], "cfg", None, {"degree": 3, "algorithms": [{"algo": "phi3"}]}])
    def test_config_json_rejects_shape(self, data):
        with pytest.raises(ConfigError):
            RunConfig.from_json(data)

    @staticmethod
    def _stand_in_pool(cpus, monkeypatch, lost=lambda task: False, breaks=False):
        """Replace the process pool by one that runs each task in this
        process, so no worker is ever started, on a host of ``cpus`` CPUs.
        A task for which ``lost(task)`` holds fails as a dead worker's
        task does, with ``BrokenProcessPool``; with ``breaks``, so does
        every task submitted to that pool after it, as in a pool a dead
        worker broke.  Returns the list of pool sizes asked for."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)
                self.broken = False

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = concurrent.futures.Future()
                if self.broken or lost(task):
                    self.broken = breaks
                    future.set_exception(BrokenProcessPool("a worker died"))
                else:
                    future.set_result(fn(task))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return started

    @classmethod
    def _pool_size(cls, jobs, cpus, monkeypatch):
        """Processes asked of the pool by a 3-task batch on a host of
        ``cpus`` CPUs."""
        started = cls._stand_in_pool(cpus, monkeypatch)
        cfg = RunConfig.from_json(
            {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}], "suite_size": 2,
             "max_steps": 200, "height_exponent": 30, "jobs": jobs, "z_limit": 3}
        )
        rows, errors = run_batch(cfg)
        assert not errors and sum(rows[0].counts["phi1[+1]"].values()) == 3 * 2
        assert len(started) == 1
        return started[0]

    @pytest.mark.parametrize("jobs,workers", [(1, 1), (2, 2), (8, 3)])
    def test_pool_size_capped_by_tasks(self, jobs, workers, monkeypatch):
        """At most one worker per task, and one for a single job, on a
        host with more CPUs than tasks."""
        assert self._pool_size(jobs, 8, monkeypatch) == workers

    @pytest.mark.parametrize("jobs,cpus,workers", [(8, 2, 2), (10**6, 2, 2), (8, 1, 1), (8, None, 1)])
    def test_pool_size_capped_by_cpus(self, jobs, cpus, workers, monkeypatch):
        """At most one worker per CPU, and one CPU when the count is
        unknown."""
        assert self._pool_size(jobs, cpus, monkeypatch) == workers

    def test_lost_tasks_leave_a_zero_row_in_every_column(self, monkeypatch):
        """Every task of one prime is lost, first in the shared pool and
        again alone: that prime still gets a zero row for every column,
        the other prime counts as in a serial batch, and each lost task
        is one error naming both labels."""
        cfg = dict(primes=(2, 3), degree=2, algorithms=(("phi1", 1, None), ("phi2", 1, 1)), suite_size=2,
                   max_steps=200, height_exponent=30, z_limit=2)
        serial, _ = run_batch(RunConfig(**cfg))
        started = self._stand_in_pool(4, monkeypatch, lost=lambda task: task[0].p == 3)
        rows, errors = run_batch(RunConfig(**cfg, jobs=4))
        assert started == [4, 1, 1]
        labels = ["phi1[+1]", "phi2(1)[+1]"]
        assert [r.prime for r in rows] == [2, 3] and rows[0].to_json() == serial[0].to_json()
        assert rows[1].counts == {lab: {"P": 0, "H": 0, "F": 0, "L": 0} for lab in labels}
        lost = build_z_set(3, 2)[:2]
        assert [e[:4] for e in errors] == [(3, tuple(str(c) for c in mp.coeffs), None, ",".join(labels))
                                           for mp in lost]
        assert all("BrokenProcessPool" in e[4] for e in errors)

    def test_one_death_reruns_the_rest_in_one_pool(self, monkeypatch):
        """A worker dies on the third of 20 tasks at jobs = 2, and its pool
        loses that task and all the later ones.  The first two lost tasks
        run alone, one of them breaking its pool again, and the other 16
        share one pool of two: four pools in all, and the table and the one
        error of the doomed task alone."""
        cfg = dict(primes=(2, 3), degree=2, algorithms=(("phi1", 1, None),), suite_size=2,
                   max_steps=200, height_exponent=30, z_limit=10)
        serial, _ = run_batch(RunConfig(**cfg))
        doomed = build_z_set(2, 2)[2]
        alone = lab._z_task((doomed, RunConfig(**cfg)))[1]["phi1[+1]"]
        started = self._stand_in_pool(4, monkeypatch, lost=lambda task: task[0] is doomed, breaks=True)
        rows, errors = run_batch(RunConfig(**cfg, jobs=2))
        assert started == [2, 1, 1, 2]
        assert rows[1].to_json() == serial[1].to_json()
        assert rows[0].counts["phi1[+1]"] == {c: n - alone[c] for c, n in serial[0].counts["phi1[+1]"].items()}
        assert errors == lab._lost((doomed, RunConfig(**cfg, jobs=2)))[2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_dead_worker_costs_its_task_alone(self, jobs, tmp_path, monkeypatch, capsys):
        """Under the fork start method, the worker running one generator's
        task ends by ``os._exit(9)``, as an OOM kill would end it.  At
        every ``jobs`` the batch returns within a bound, every other task
        counts exactly as it does alone, and one error names the lost
        task's prime, generator and label; ``padiccf table`` on the same
        config prints that table and exits 3."""
        import concurrent.futures
        import multiprocessing
        import threading

        from padiccf import cli

        def within_60_s(run):
            out = []
            thread = threading.Thread(target=lambda: out.append(run()), daemon=True)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive() and len(out) == 1, "the batch did not return within 60 s"
            return out[0]

        data = {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}], "suite_size": 3,
                "max_steps": 200, "height_exponent": 30, "jobs": jobs, "z_limit": 4}
        config = RunConfig.from_json(data)
        serial, _ = run_batch(config)
        doomed = build_z_set(2, 2)[1]
        alone = lab._z_task((doomed, config))[1]
        expected = {c: n - alone["phi1[+1]"][c] for c, n in serial[0].counts["phi1[+1]"].items()}
        monkeypatch.setattr(lab, "_z_task", _z_task_dying_on_the_second_generator)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        rows, errors = within_60_s(lambda: run_batch(config))
        assert [r.prime for r in rows] == [2] and rows[0].counts["phi1[+1]"] == expected
        assert sum(expected.values()) == 3 * 3
        assert len(errors) == 1
        p, coeffs, idx, label, message = errors[0]
        assert (p, coeffs, idx, label) == (2, tuple(str(c) for c in doomed.coeffs), None, "phi1[+1]")
        assert "BrokenProcessPool" in message
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert within_60_s(lambda: cli.main(["table", "--config", str(path)])) == 3
        captured = capsys.readouterr()
        assert captured.out == emit_table(rows)
        assert captured.err.count("\n") == 1 and "BrokenProcessPool" in captured.err


class TestTables:
    def _rows(self):
        return [
            TableRow(2, {"phi0[+1]": {"P": 0, "H": 7800, "F": 1, "L": 2}}),
            TableRow(3, {"phi0[+1]": {"P": 0, "H": 11700, "F": 0, "L": 0}}),
        ]

    def test_csv_header_and_cells(self):
        assert emit_table(self._rows()) == (
            "prime,phi0[+1]:P,phi0[+1]:H,phi0[+1]:F,phi0[+1]:L\n"
            "2,0,7800,1,2\n"
            "3,0,11700,0,0\n"
        )

    def test_jsonl_line_per_row(self):
        rows = self._rows()
        text = emit_table(rows, fmt="jsonl")
        assert text == (
            '{"counts": {"phi0[+1]": {"F": 1, "H": 7800, "L": 2, "P": 0}}, "prime": 2}\n'
            '{"counts": {"phi0[+1]": {"F": 0, "H": 11700, "L": 0, "P": 0}}, "prime": 3}\n'
        )
        assert [json.loads(line) for line in text.splitlines()] == [r.to_json() for r in rows]

    def test_empty_rows_header_only(self):
        assert emit_table([]) == "prime\n"
        assert emit_table([], fmt="jsonl") == ""

    def test_byte_stable(self):
        rows = self._rows()
        assert emit_table(rows) == emit_table(self._rows())


def test_z_set_refuses_degree_above_cap():
    with pytest.raises(CapExceeded, match="MAX_DEGREE"):
        build_z_set(2, MAX_DEGREE + 1)


@pytest.mark.parametrize("excess", [0, 1, 10**9])
def test_config_degree_cap(excess):
    degree = MAX_DEGREE + excess
    data = {"primes": [2], "degree": degree, "algorithms": [{"algo": "phi1"}]}
    if not excess:
        assert RunConfig.from_json(data).degree == degree
    else:
        with pytest.raises(ConfigError, match="MAX_DEGREE"):
            RunConfig.from_json(data)


@pytest.mark.parametrize("degree", [0, 1])
def test_z_set_rejects_degree_below_two(degree):
    with pytest.raises(HViolation) as info:
        build_z_set(2, degree)
    assert info.value.clause == "degree"


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 25), st.sampled_from([1.0, 2.5, -1.0]),
                    st.text(max_size=3), st.sampled_from(ALGORITHMS))
COUNTS = ("suite_size", "max_steps", "height_exponent", "jobs", "z_limit")
ENTRIES = st.fixed_dictionaries({"algo": st.sampled_from(ALGORITHMS)},
                                optional={key: st.one_of(st.sampled_from([1, -1, 2]), SCALARS)
                                          for key in ("eps", "lookahead")})
CONFIGS = st.fixed_dictionaries(
    {"primes": st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=2, unique=True),
     "degree": st.integers(2, 4),
     "algorithms": st.lists(ENTRIES, min_size=1, max_size=2, unique_by=lambda e: e["algo"])},
    optional={key: st.integers(1, 3) for key in COUNTS})


@settings(max_examples=200, deadline=None)
@given(data=CONFIGS, value=st.one_of(SCALARS, st.lists(SCALARS, max_size=2)),
       target=st.sampled_from([None, "primes", "primes[0]", "degree", "algorithms", "algorithms[0]", "suite-size",
                               *COUNTS]))
def test_config_json_fuzz_gives_a_config_or_config_error(data, value, target):
    """A config with one field or list item replaced by JSON-like junk
    loads or is a ConfigError."""
    if target is not None and target.endswith("[0]"):
        data[target[:-3]][0] = value
    elif target is not None:
        data[target] = value
    try:
        cfg = RunConfig.from_json(data)
    except ConfigError:
        return
    assert cfg.degree == data["degree"] and cfg.primes == tuple(data["primes"])
