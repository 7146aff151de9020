import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from padiccf.errors import NonSquare
from padiccf.preduce import RationalMatrix, p_reduce, reduce_rows
from padiccf.rationals import Q, ordp
from oracles import gauss_det, gauss_rank, is_p_reduced, matrix_from_json, p_reduce_by_fractions

GOLDEN = Path(__file__).parent / "golden" / "preduce_example.json"


def rand_matrix(rng, n, span=8):
    return RationalMatrix(
        [[Q(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)] for _ in range(n)]
    )


def rand_unimodular(rng, n, p):
    """Random element of GL(n, Z_p cap Q) as a product of the three
    generating row operations."""
    m = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for _ in range(8):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            # unit scaling: odd/odd at p=2 style units
            num = rng.choice([k for k in range(-9, 10) if k % p])
            den = rng.choice([k for k in range(1, 10) if k % p])
            m[i] = [c * Q(num, den) for c in m[i]]
        elif i != j:
            num = rng.randint(-9, 9)
            den = rng.choice([k for k in range(1, 10) if k % p])
            m[i] = [a + Q(num, den) * b for a, b in zip(m[i], m[j])]
    return RationalMatrix(m)


def entries_p_free(m, p):
    return all(int(c.denominator) % p for row in m.entries for c in row)


class TestWorkedExample:
    def test_exact(self):
        blob = json.loads(GOLDEN.read_text())
        m = matrix_from_json(blob["input"])
        mp, n = p_reduce(m, blob["p"])
        assert mp == matrix_from_json(blob["reduced"])
        assert n == matrix_from_json(blob["transformer"])
        assert n.matmul(m) == mp

    def test_identity_fixed(self):
        eye = RationalMatrix.identity(3)
        mp, n = p_reduce(eye, 2)
        assert mp == eye and n == eye


class TestPredicate:
    def test_worked_output(self):
        assert is_p_reduced(RationalMatrix([[1, 0], [0, Q(1, 2)]]), 2)

    def test_below_pivot_violation(self):
        assert not is_p_reduced(RationalMatrix([[2, 0], [1, 0]]), 2)

    def test_zero_matrix(self):
        assert is_p_reduced(RationalMatrix([[0, 0], [0, 0]]), 2)

    def test_non_power_pivot(self):
        assert not is_p_reduced(RationalMatrix([[3, 0], [0, 1]]), 2)

    def test_tail_clause(self):
        # above-pivot entry with a digit at or above the pivot's valuation
        assert not is_p_reduced(RationalMatrix([[1, 2], [0, 2]]), 2)
        # digits strictly below the pivot valuation are allowed heads
        assert is_p_reduced(RationalMatrix([[1, 1], [0, 2]]), 2)
        assert is_p_reduced(RationalMatrix([[1, Q(1, 2)], [0, 1]]), 2)

    def test_step_profile_monotone(self):
        assert not is_p_reduced(RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), 2)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            is_p_reduced(RationalMatrix([[1, 2, 3], [4, 5, 6]]), 2)
        with pytest.raises(NonSquare):
            p_reduce(RationalMatrix([[1, 2, 3], [4, 5, 6]]), 2)


class TestRandomized:
    @pytest.mark.parametrize("p", [2, 5])
    def test_factorization_and_predicate(self, rng, p):
        for _ in range(40):
            m = rand_matrix(rng, 3)
            mp, n = p_reduce(m, p)
            assert n.matmul(m) == mp
            assert is_p_reduced(mp, p)
            assert gauss_rank(mp.entries) == gauss_rank(m.entries)
            assert entries_p_free(n, p)
            assert entries_p_free(n.inverse(), p)
            assert ordp(gauss_det(n.entries), p) == 0

    def test_uniqueness_under_unimodular_action(self, rng):
        for _ in range(30):
            m = rand_matrix(rng, 3)
            u = rand_unimodular(rng, 3, 2)
            assert p_reduce(u.matmul(m), 2)[0] == p_reduce(m, 2)[0]

    def test_idempotence(self, rng):
        for _ in range(20):
            mp, _ = p_reduce(rand_matrix(rng, 3), 2)
            mp2, n2 = p_reduce(mp, 2)
            assert mp2 == mp
            assert n2.matmul(mp) == mp

    def test_singular_matrices(self, rng):
        for _ in range(20):
            row = [Q(rng.randint(-5, 5)) for _ in range(3)]
            scale = Q(rng.randint(1, 4))
            m = RationalMatrix([row, [c * scale for c in row], [Q(1), Q(0), Q(1)]])
            mp, n = p_reduce(m, 2)
            assert is_p_reduced(mp, 2)
            assert n.matmul(m) == mp
            assert gauss_rank(mp.entries) == gauss_rank(m.entries) <= 2


class TestMatrixBasics:
    def test_inverse(self, rng):
        for _ in range(10):
            m = rand_matrix(rng, 3)
            if not gauss_det(m.entries):
                continue
            assert m.matmul(m.inverse()) == RationalMatrix.identity(3)

    def test_json_round_trip(self, rng):
        m = rand_matrix(rng, 2)
        assert matrix_from_json(m.to_json()) == m

    def test_apply(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert m.apply((Q(1), Q(1))) == (Q(3), Q(7))

    def test_apply_divides_exactly(self, k2):
        m = RationalMatrix([[Q(1, 2), 1], [0, Q(1, 3)]])
        out = m.apply((1, 2))
        assert out == (Q(5, 2), Q(2, 3)) and all(type(x) is Q for x in out)
        assert m.apply((Q(1, 5), 2)) == (Q(21, 10), Q(2, 3))
        z = k2.gen()
        assert m.apply((z, k2.one())) == (z / 2 + 1, k2.rational(Q(1, 3)))


class TestAgainstFractionOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_oracle(self, data):
        """Exact (M', N) equality with the Fraction routine, over entries
        with p-power and p-free denominators and valuations from -3 to 3,
        including singular, zero-row and zero matrices."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(1, 4))
        dens = [d for d in range(1, 12) if d % p]
        entry = st.builds(lambda a, e, u: Q(a, u) * Q(p) ** e,
                          st.integers(-30, 30), st.integers(-3, 3), st.sampled_from(dens))
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        shape = data.draw(st.sampled_from(["any", "dependent", "zero row", "zero"]))
        if shape == "dependent":
            k = data.draw(entry)
            rows[-1] = [c * k for c in rows[0]]
        elif shape == "zero row":
            rows[data.draw(st.integers(0, n - 1))] = [Q(0)] * n
        elif shape == "zero":
            rows = [[Q(0)] * n for _ in range(n)]
        m = RationalMatrix(rows)
        assert p_reduce(m, p) == p_reduce_by_fractions(m, p)

    @staticmethod
    def augmented(data):
        """(p, M, B, [M' | A B]): an n x n M, n x k ride-along columns B,
        and the rows the Fraction routine's (M', A) make of them."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
        dens = [d for d in range(1, 12) if d % p]
        entry = st.builds(lambda a, e, u: Q(a, u) * Q(p) ** e,
                          st.integers(-30, 30), st.integers(-3, 3), st.sampled_from(dens))
        m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        b = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            m[-1] = [c * 3 for c in m[0]]  # a singular M
        reduced, a = p_reduce_by_fractions(RationalMatrix(m), p)
        a = a.entries
        ab = [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(k)] for i in range(n)]
        return p, m, b, RationalMatrix([list(r) + abr for r, abr in zip(reduced.entries, ab)])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ride_along_columns_end_as_transformer_times_them(self, data):
        """``reduce_rows`` on [M | B] with width n gives [M' | A B] for the
        (M', A) of the Fraction routine, whatever the k >= 0 columns B."""
        p, m, b, want = self.augmented(data)
        full = RationalMatrix([mr + br for mr, br in zip(m, b)])
        rows, row_dens = list(full.nums), list(full.dens)
        reduce_rows(rows, row_dens, len(m), p)
        assert RationalMatrix.from_ints(rows, row_dens) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_of_any_content_end_as_the_fraction_form(self, data):
        """Rows that carry any positive content, row i's numerators and
        denominator times k_i (a p-power times a p-free part, up to 2^80),
        give after ``RationalMatrix.from_ints`` exactly the (M', A B) of the
        Fraction routine, as the phi3 step's unreduced rows must: the
        rows' values never depend on their content.  Every denominator
        ends positive."""
        p, m, b, want = self.augmented(data)
        full = RationalMatrix([mr + br for mr, br in zip(m, b)])
        content = st.builds(lambda e, u: p ** e * u, st.integers(0, 4), st.one_of(st.integers(1, 40),
                                                                                  st.integers(1, 2 ** 80)))
        ks = data.draw(st.lists(content, min_size=len(m), max_size=len(m)))
        rows = [tuple(x * k for x in row) for row, k in zip(full.nums, ks)]
        row_dens = [d * k for d, k in zip(full.dens, ks)]
        reduce_rows(rows, row_dens, len(m), p)
        assert all(d > 0 for d in row_dens)
        assert RationalMatrix.from_ints(rows, row_dens) == want

    def test_oracle_on_worked_example(self):
        blob = json.loads(GOLDEN.read_text())
        m = matrix_from_json(blob["input"])
        assert p_reduce_by_fractions(m, blob["p"]) == p_reduce(m, blob["p"])


class TestCanonicalForm:
    def test_fraction_and_integer_rows_agree(self):
        fr = RationalMatrix([[Q(1, 2), Q(-3, 4)], [0, 0], [Q(2, 3), 2]])
        # a negative denominator, a zero row over 7, a row with content 2
        ints = RationalMatrix.from_ints([[-2, 3], [0, 0], [4, 12]], [-4, 7, 6])
        assert fr == ints and hash(fr) == hash(ints)
        assert ints.nums == ((2, -3), (0, 0), (2, 6)) and ints.dens == (4, 1, 3)
        assert ints.entries == ((Q(1, 2), Q(-3, 4)), (Q(0), Q(0)), (Q(2, 3), Q(2)))
        assert json.dumps(ints.to_json()) == json.dumps(fr.to_json()) == '[["1/2", "-3/4"], ["0", "0"], ["2/3", "2"]]'

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3), min_size=1, max_size=3),
           data=st.data())
    def test_any_integer_rows_canonicalise(self, rows, data):
        dens = [data.draw(st.integers(1, 40)) * data.draw(st.sampled_from([1, -1])) for _ in rows]
        ks = [data.draw(st.integers(1, 6)) * data.draw(st.sampled_from([1, -1])) for _ in rows]
        fr = RationalMatrix([[Q(x, d) for x in row] for row, d in zip(rows, dens)])
        ints = RationalMatrix.from_ints([[k * x for x in row] for row, k in zip(rows, ks)],
                                        [k * d for k, d in zip(ks, dens)])
        assert fr == ints and hash(fr) == hash(ints)
        assert all(d > 0 and math.gcd(d, *row) == 1 for row, d in zip(ints.nums, ints.dens))
        assert ints.entries == tuple(tuple(Q(x, d) for x in row) for row, d in zip(rows, dens))

    def test_json_bytes_unchanged(self):
        blob = json.loads(GOLDEN.read_text())
        for key in ("input", "reduced", "transformer"):
            assert json.dumps(matrix_from_json(blob[key]).to_json()) == json.dumps(blob[key])
