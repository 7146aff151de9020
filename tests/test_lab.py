from fractions import Fraction

import pytest

from padiccf import lab
from padiccf.errors import ConfigError, HViolation, StreamExhausted
from padiccf.field import independent_with_one, validate_minpoly
from padiccf.lab import (
    BitStream,
    RunConfig,
    TableRow,
    build_test_set,
    build_z_set,
    byte_stream,
    emit_table,
    irrational_bits,
    parse_table,
    run_batch,
)
from padiccf.rationals import Q
from oracles import bits_by_fraction


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
        assert irrational_bits(selector, 64) == bits_by_fraction(b, c, 64)

    def test_bisection_brackets_root(self):
        # sum of the emitted digits must stay below the root, and within
        # 2^-count of it
        b, c = 1, 1
        bits = irrational_bits("x2+x-1", 40)
        q = sum(Fraction(d, 2**i) for i, d in enumerate(bits, start=1))
        assert q * q + b * q - c < 0
        hi = q + Fraction(1, 2**40)
        assert hi * hi + b * hi - c > 0

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

    def test_stream_budget(self, k2):
        with pytest.raises(StreamExhausted):
            build_test_set(k2, 1, 10, max_index=3)

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

    @pytest.mark.parametrize("data", [[{"primes": [2]}], "cfg", None, {"degree": 3, "algorithms": [{"algo": "phi3"}]}])
    def test_config_json_rejects_shape(self, data):
        with pytest.raises(ConfigError):
            RunConfig.from_json(data)

    @pytest.mark.parametrize("jobs,workers", [(1, None), (2, 2), (8, 3)])
    def test_pool_size_capped_by_tasks(self, jobs, workers, monkeypatch):
        """At most one worker per task, none for a single job; a stand-in
        pool maps in this process, so no worker is ever started."""
        import multiprocessing

        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        cfg = RunConfig.from_json(
            {"primes": [2], "degree": 2, "algorithms": [{"algo": "phi1"}], "suite_size": 2,
             "max_steps": 200, "height_exponent": 30, "jobs": jobs, "z_limit": 3}
        )
        rows, errors = run_batch(cfg)
        assert not errors and sum(rows[0].counts["phi1[+1]"].values()) == 3 * 2
        assert started == ([] if workers is None else [workers])


class TestTables:
    def _rows(self):
        return [
            TableRow(2, {"phi0[+1]": {"P": 0, "H": 7800, "F": 1, "L": 2}}),
            TableRow(3, {"phi0[+1]": {"P": 0, "H": 11700, "F": 0, "L": 0}}),
        ]

    def test_csv_round_trip(self):
        rows = self._rows()
        text = emit_table(rows)
        assert text.splitlines()[0] == "prime,phi0[+1]:P,phi0[+1]:H,phi0[+1]:F,phi0[+1]:L"
        assert parse_table(text)[0].to_json() == rows[0].to_json()

    def test_jsonl_round_trip(self):
        rows = self._rows()
        text = emit_table(rows, fmt="jsonl")
        assert [r.to_json() for r in parse_table(text, fmt="jsonl")] == [
            r.to_json() for r in rows
        ]

    def test_empty_rows_header_only(self):
        assert emit_table([]) == "prime\n"
        assert emit_table([], fmt="jsonl") == ""

    def test_byte_stable(self):
        rows = self._rows()
        assert emit_table(rows) == emit_table(self._rows())


@pytest.mark.parametrize("degree", [0, 1])
def test_z_set_rejects_degree_below_two(degree):
    with pytest.raises(HViolation) as info:
        build_z_set(2, degree)
    assert info.value.clause == "degree"
