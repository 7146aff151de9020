import json
import pickle

import pytest
from hypothesis import assume, example, given, strategies as st

from padiccf import field, hensel, lab, polys
from padiccf.errors import CapExceeded, HViolation, MixedField, RecordFormatError, Reducible
from padiccf.field import (
    MAX_DEGREE,
    ZERO_DIVISOR,
    FieldElement,
    MinPoly,
    VectorElement,
    denom_z,
    element_minpoly,
    height_z,
    independent_with_one,
    validate_minpoly,
)
from padiccf.hensel import Embedding
from padiccf.preduce import RationalMatrix, first_row_expansion
from padiccf.rationals import Q
from oracles import certificate_prime, coeff_matrix, euclid_inverse, relation_search


def rand_q(rng, span=9):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def rand_elem(mp, rng, span=9):
    return mp.element([rand_q(rng, span) for _ in range(mp.degree)])


class TestValidate:
    def test_worked_quadratic(self):
        mp = validate_minpoly(2, [1, 2])
        assert mp.certificate_prime == 3

    def test_h_violation(self):
        with pytest.raises(HViolation) as info:
            validate_minpoly(2, [2, 2])  # x^2+2x+2: subleading not a unit
        assert info.value.clause == "unit-subleading"
        with pytest.raises(HViolation) as info:
            validate_minpoly(2, [2])  # x + 2: degree 1
        assert info.value.clause == "degree"

    def test_reducible_rejected(self):
        with pytest.raises(HViolation) as info:
            validate_minpoly(2, [0, -4])  # x^2-4
        assert info.value.clause == "unit-subleading"
        with pytest.raises(Reducible):
            validate_minpoly(2, [3, 2])  # (x+1)(x+2)

    def test_unit_constant_rejected(self):
        with pytest.raises(HViolation) as info:
            validate_minpoly(2, [1, 3])  # constant term a unit
        assert info.value.clause == "divisible-constant"

    def test_non_integral_rejected(self):
        with pytest.raises(HViolation) as info:
            validate_minpoly(2, [Q(1, 2), 2])
        assert info.value.clause == "integrality"

    def test_uncertified_irreducible_validates(self):
        # A4 quartic: irreducible, proven by the degree sieve, but with no
        # single-prime certificate
        mp = validate_minpoly(3, [0, 0, 8, 12])
        assert mp.certificate_prime is None
        assert MinPoly.from_json(mp.to_json()) == mp

    @pytest.mark.parametrize("p, degree", [(2, 2), (3, 3), (2, 4), (3, 4)])
    def test_pending_certificate_survives_pickling(self, p, degree):
        """A validated polynomial keeps its certificate pending through a
        pickle round trip, as run_batch sends it to a worker, and both
        copies find the prime of the single-prime criterion."""
        pending = lab.build_z_set.__wrapped__(p, degree)[:12]
        assert pending
        for mp in pending:
            copy = pickle.loads(pickle.dumps(mp))
            assert copy == mp and copy._pending == mp._pending
            want = certificate_prime(mp.ascending(), p)
            assert copy.certificate_prime == mp.certificate_prime == want
            assert copy._pending is mp._pending is None

    @pytest.mark.parametrize("p, coeffs, cert", [(2, [1, 2], 3), (2, [0, 0, 1, 4], 5), (3, [0, 0, 8, 12], None)])
    def test_from_json_checks_a_pending_certificate(self, p, coeffs, cert):
        """Loading finds the certificate from the pending pair and refuses
        any other value."""
        data = {"p": p, "coeffs": [str(c) for c in coeffs]}
        assert MinPoly.from_json({**data, "certificate_prime": cert}).certificate_prime == cert
        for wrong in [w for w in (None, 7, 2) if w != cert]:
            with pytest.raises(RecordFormatError, match="certificate_prime"):
                MinPoly.from_json({**data, "certificate_prime": wrong})

    def test_prime_validated(self):
        with pytest.raises(ValueError):
            validate_minpoly(6, [1, 6])

    def test_degree_cap(self, monkeypatch):
        """MAX_DEGREE still validates; one more is refused by validate_minpoly
        and by MinPoly.from_json before any certification work."""
        mp = validate_minpoly(2, [0] * (MAX_DEGREE - 2) + [1, 2])
        assert mp.degree == MAX_DEGREE and MinPoly.from_json(mp.to_json()) == mp

        def no_certification(*args):
            raise AssertionError("certification ran")

        monkeypatch.setattr(polys, "certify", no_certification)
        monkeypatch.setattr(polys, "find_certificate", no_certification)
        coeffs = [0] * (MAX_DEGREE - 1) + [1, 2]
        with pytest.raises(CapExceeded, match="MAX_DEGREE"):
            validate_minpoly(2, coeffs)
        with pytest.raises(CapExceeded, match="MAX_DEGREE"):
            MinPoly.from_json({"p": 2, "coeffs": [str(c) for c in coeffs], "certificate_prime": 19})


class TestRingArithmetic:
    def test_worked_products(self, ring_cubic):
        z = ring_cubic.gen()
        assert z * (z * z) == ring_cubic.element([-2, -1])  # z^3 = -z-2
        assert (z * z) * (z * z) == ring_cubic.element([0, -2, -1])
        a = ring_cubic.element([3, Q(1, 2), 5])
        assert a * ring_cubic.one() == a

    def test_invert_examples(self, ring_cubic, k2):
        z = ring_cubic.gen()
        assert z.inverse() == ring_cubic.element([Q(-1, 2), 0, Q(-1, 2)])
        # quadratic x^2+ux+vp^k: 1/z = -(z+u)/(vp^k); here u=1, vp^k=2
        w = k2.gen()
        assert w.inverse() == k2.element([Q(-1, 2), Q(-1, 2)])
        assert k2.one().inverse() == k2.one()

    def test_inverse_round_trip(self, k3, rng):
        for _ in range(50):
            a = rand_elem(k3, rng)
            if a.is_zero():
                continue
            assert (a * a.inverse()) == k3.one()
            assert a.inverse().inverse() == a

    def test_zero_inverse_raises(self, k2):
        with pytest.raises(ZeroDivisionError):
            k2.zero().inverse()

    def test_ring_axioms_sampled(self, k3, rng):
        one = k3.one()
        for _ in range(1000):
            a, b, c = (rand_elem(k3, rng, 5) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a

    def test_scalar_coercion(self, k2):
        z = k2.gen()
        assert z + 1 == k2.element([1, 1])
        assert 2 * z == k2.element([0, 2])
        assert (2 / z) == z.inverse() * 2
        assert z - Q(1, 2) == k2.element([Q(-1, 2), 1])

    @pytest.mark.parametrize("make", [
        lambda k: MinPoly(2, [1.0, 2]),
        lambda k: validate_minpoly(2, [1, 2.0]),
        lambda k: k.element([0, 0.1]),
        lambda k: k.rational(0.1),
        lambda k: k.vector([0.5]),
        lambda k: RationalMatrix([[1, Q(1, 2)], [0.5, 2]]),
    ])
    def test_constructors_refuse_floats(self, k2, make):
        """A float is a TypeError, not its binary value as a Fraction."""
        with pytest.raises(TypeError, match="^a float is not an exact rational"):
            make(k2)

    def test_mixed_field_rejected(self, k2, k3):
        with pytest.raises(MixedField):
            k2.gen() + k3.gen()


RATIONALS = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))


def _inverse_by_rows(a):
    """_inverse_nums by the generic route: the first-row expansion of the
    multiplication rows, the sign moved onto the numerators."""
    mp = a.minpoly
    det, cof = first_row_expansion(polys.multiplication_rows(mp._int_f, a.nums))
    d = a.den if det > 0 else -a.den
    return tuple(d * mp._int_f[0] ** j * c for j, c in enumerate(cof)), abs(det)


class TestDegreeTwoInverse:
    """At degree 2 ``_inverse_nums`` reads the adjugate off the numerators
    and ``MinPoly._int_f``, with no multiplication rows."""

    @given(p=st.sampled_from([2, 3, 5]), a1=RATIONALS, a2=RATIONALS, x0=RATIONALS, x1=RATIONALS)
    @example(p=2, a1=Q(1, 3), a2=Q(-10, 9), x0=Q(1), x1=Q(2))  # D = 9, norm -37/9
    @example(p=3, a1=Q(1), a2=Q(-3), x0=Q(1), x1=Q(1))  # real quadratic, norm -3
    def test_matches_the_rows_integer_for_integer(self, p, a1, a2, x0, x1):
        assume(x1 != 0)
        mp = MinPoly(p, [a1, a2])
        a = mp.element([x0, x1])
        want = _inverse_by_rows(a)
        assume(want[1] != 0)  # a zero divisor of a reducible x^2 + a1 x + a2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(field, "multiplication_rows", None)  # no rows are built
            assert field._inverse_nums(a) == want
        assert a * a.inverse() == mp.one()

    @pytest.mark.parametrize("p, coeffs, b", [
        (2, [1, 2], [1, 1]),  # x^2 + x + 2: N(1 + z) = 2
        (2, [1, -4], [1, 1]),  # x^2 + x - 4: N(1 + z) = -4
        (3, [Q(1, 2), Q(-3, 5)], [Q(2, 7), Q(-4, 3)]),  # D = 10, N < 0
        (2, [Q(1, 3), Q(2, 5)], [Q(-1, 4), Q(5, 9)]),  # D = 15, N > 0
    ])
    def test_equals_euclid_for_either_sign_of_the_norm(self, p, coeffs, b):
        """The two numerators over a positive determinant, whatever the
        sign of the norm, are the extended-Euclid inverse."""
        mp = MinPoly(p, coeffs)
        a = mp.element(b)
        nums, det = field._inverse_nums(a)
        assert det > 0 and len(nums) == 2
        assert [Q(x, det) for x in nums] == euclid_inverse(mp, list(a.coeffs))

    @pytest.mark.parametrize("coeffs", [[-1, -2], [Q(-5, 3), Q(-2, 3)]])
    def test_zero_divisor_raises(self, coeffs, monkeypatch):
        # x^2 - x - 2 = (x - 2)(x + 1) and (x - 2)(x + 1/3), admissible at 2
        # with the root 2 in 2Z_2, where z - 2 vanishes
        mp = MinPoly(2, coeffs)
        b = mp.gen() - 2
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            field._inverse_nums(b)
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            b.inverse()
        emb, calls = Embedding(mp), []
        monkeypatch.setattr(hensel, "_inverse_nums", lambda a: calls.append(a) or field._inverse_nums(a))
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            emb._ladder(b)
        assert calls == [b]  # the ladder asked the inverse once, at its cap


class TestElementMinpoly:
    def test_generator(self, k2):
        g = element_minpoly(k2.gen())
        assert g == k2.ascending()

    def test_rational(self, k2):
        assert element_minpoly(k2.rational(Q(5, 3))) == (Q(-5, 3), Q(1))

    def test_square_of_generator(self, ring_cubic):
        w = ring_cubic.gen() * ring_cubic.gen()
        g = element_minpoly(w)
        assert len(g) == 4  # degree 3
        acc = ring_cubic.zero()
        for i, c in enumerate(g):
            acc = acc + w**i * c
        assert acc.is_zero()


class TestCoefficientFunctionals:
    def test_denom_z(self, k2, k3):
        assert denom_z(k2.element([Q(1, 3), Q(1, 2)])) == 6
        assert denom_z(k2.element([4, 7])) == 1
        vec = k3.vector([[0, Q(1, 2)], [0, Q(1, 4)]])
        assert denom_z(vec) == 4

    def test_height_z(self, k2, k3):
        assert height_z(k2.element([Q(2, 3), 1])) == 5
        assert height_z(k2.zero()) == 1
        assert height_z(k3.vector([[-4], [0, Q(1, 7)]])) == 8

    def test_coeff_matrix_examples(self, k3):
        z = k3.gen()
        m, msq = coeff_matrix(k3.vector([z * z, z]))
        assert m.to_json() == [["1", "0", "0"], ["0", "1", "0"]]
        # nested-sum vector u1 = z^2+z, u2 = z
        m2, msq2 = coeff_matrix(k3.vector([z * z + z, z]))
        assert m2.to_json() == [["1", "1", "0"], ["0", "1", "0"]]
        assert msq2.to_json() == [["1", "1"], ["0", "1"]]

    def test_degree_two_matrix(self, k2):
        m, _ = coeff_matrix(k2.vector([k2.gen() + 1]))
        assert m.to_json() == [["1", "1"]]

    def test_coeff_matrix_reconstructs(self, k3, rng):
        for _ in range(25):
            vec = k3.vector([rand_elem(k3, rng) for _ in range(2)])
            m, _ = coeff_matrix(vec)
            s = k3.degree - 1
            basis = [k3.gen() ** (s - j) for j in range(s)] + [k3.one()]
            rebuilt = [
                sum((b * c for b, c in zip(basis, row)), k3.zero())
                for row in m.entries
            ]
            assert VectorElement(tuple(rebuilt)) == vec

    def test_denom_scaling_clears(self, k3, rng):
        for _ in range(25):
            a = rand_elem(k3, rng)
            assert denom_z(a * denom_z(a)) == 1


class TestIndependence:
    def test_examples(self, k3):
        z = k3.gen()
        assert independent_with_one([z, z * z])
        assert not independent_with_one([z, z + 1])

    def test_cross_checked_by_relation_search(self, k3, rng):
        hits = 0
        for _ in range(12):
            elems = [
                k3.element([rng.randint(-2, 2) for _ in range(3)]) for _ in range(2)
            ]
            got = independent_with_one(elems)
            rel = relation_search(elems, bound=6)
            assert got == (rel is None)
            hits += got
        assert 0 < hits  # sample contains both outcomes in practice


class TestSerialization:
    def test_field_element_json(self, k2):
        a = k2.element([Q(-5, 7), 3])
        blob = json.dumps(a.to_json())
        assert json.loads(blob) == {"coeffs": ["-5/7", "3"]}
        assert FieldElement.from_json(k2, json.loads(blob)) == a

    def test_minpoly_json(self, k2):
        data = k2.to_json()
        assert data == {"p": 2, "coeffs": ["1", "2"], "certificate_prime": 3}
        again = MinPoly.from_json(data)
        assert again == k2

    def test_vector_json(self, k3):
        vec = k3.vector([[1, 2], [0, 0, Q(1, 3)]])
        assert VectorElement.from_json(k3, vec.to_json()) == vec
