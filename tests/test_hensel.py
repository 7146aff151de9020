import pytest
from hypothesis import assume, given, settings, strategies as st

from padiccf.errors import CapExceeded, HViolation, NotPrimitive, PadiccfError
from padiccf.field import ZERO_DIVISOR, MinPoly, element_minpoly
from padiccf.hensel import Embedding, hensel_lift
from padiccf.rationals import ORD_INF, Q, ordp
from oracles import head_by_root, hensel_root_search, root_by_digits


def rand_elem(mp, rng, span=9):
    return mp.element([Q(rng.randint(-span, span), rng.randint(1, span)) for _ in range(mp.degree)])


class TestLifting:
    def test_residues_match_exhaustive_search(self, k2):
        assert hensel_root_search(k2, 2) == [hensel_lift(k2, 2)]
        assert hensel_root_search(k2, 4) == [hensel_lift(k2, 4)]

    def test_golden_residues(self, k2):
        assert hensel_lift(k2, 2) == 2
        assert hensel_lift(k2, 4) == 10

    def test_defining_property(self, k3):
        residue = hensel_lift(k3, 40)
        asc = k3.ascending()
        mod = 2**40
        acc = 0
        for c in reversed(asc):
            acc = (acc * residue + int(c)) % mod
        assert acc == 0
        assert residue % 2 == 0

    def test_extension_determinism(self, k3):
        # truncation of a deeper lift agrees with a shallower one
        assert hensel_lift(k3, 40) % 2**11 == hensel_lift(k3, 11)

    def test_zero_constant_term_is_typed_error(self):
        # x divides x^2 + x: no admissible field, and no finite base precision
        with pytest.raises(PadiccfError):
            Embedding(MinPoly(2, [1, 0]))

    @pytest.mark.parametrize("p, coeffs, clause", [
        (3, [0, 1, 4], "divisible-constant"),  # x^3 + x + 4: no root in 3Z_3
        (2, [Q(1, 2), 1, 2], "integrality"),
        (2, [0, 2, 2], "unit-subleading"),
        (2, [2], "degree"),
    ])
    def test_inadmissible_polynomial_is_refused(self, p, coeffs, clause):
        with pytest.raises(HViolation) as info:
            Embedding(MinPoly(p, coeffs))
        assert info.value.clause == clause

    def test_expand_refuses_an_inadmissible_field(self):
        from padiccf.cfrac import expand

        mp = MinPoly(3, [0, 1, 4])
        z = mp.gen()
        with pytest.raises(HViolation):
            expand(mp.vector([z + z * z, z * z]), "phi1", max_steps=5)

    def test_rational_sentinel_has_no_residue(self):
        from padiccf.field import MinPoly

        with pytest.raises(ValueError):
            hensel_lift(MinPoly.rationals(2), 4)

    def test_golden_file(self):
        import json
        from pathlib import Path

        from padiccf.field import MinPoly

        blob = json.loads((Path(__file__).parent / "golden" / "hensel_residues.json").read_text())
        for entry in blob["entries"]:
            mp = MinPoly.from_json(entry["minpoly"])
            assert str(hensel_lift(mp, entry["precision"])) == entry["residue"]


def p_free(a, b, p):
    """The integers in [a, b] prime to p, drawn without rejection."""
    return st.sampled_from([u for u in range(a, b + 1) if u % p])


@st.composite
def admissible_with_denominator(draw):
    """An admissible monic f of degree 2-5 whose coefficient denominators
    are prime to p with lcm D > 1, and a precision m <= 60."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 5))
    dens = p_free(1, 40, p)
    coeffs = [Q(draw(st.integers(-50, 50)), draw(dens)) for _ in range(n - 2)]
    coeffs.append(Q(draw(p_free(-50, 50, p)), draw(dens)))  # a unit
    coeffs.append(Q(p * draw(st.integers(-50, 50)), draw(dens)))  # in pZ_p
    if all(c.denominator == 1 for c in coeffs):
        coeffs[-2] += Q(p, draw(p_free(2, 40, p)))  # still a unit, now over d
    return MinPoly(p, coeffs), draw(st.integers(1, 60))


@settings(max_examples=150, deadline=None)
@given(admissible_with_denominator())
def test_lift_of_d_times_f_matches_digits(case):
    mp, m = case
    assert mp._int_f[0] > 1
    assert hensel_lift(mp, m) == root_by_digits(mp, m)


@st.composite
def admissible_elements(draw):
    """An admissible monic f of degree 2-5 at p in {2, 3, 5}, integral or
    over p-free denominators; an element whose coefficient denominators
    are powers of p, prime to p or both; and an index m <= 40."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 5))
    f_dens = p_free(1, 12, p)
    coeffs = [Q(draw(st.integers(-30, 30)), draw(f_dens)) for _ in range(n - 2)]
    coeffs.append(Q(draw(p_free(-30, 30, p)), draw(f_dens)))
    coeffs.append(Q(p * draw(st.integers(-30, 30).filter(bool)), draw(f_dens)))  # an irreducible f has an != 0
    mp = MinPoly(p, coeffs)
    kind = draw(st.sampled_from(["p-power", "p-free", "mixed"]))
    powers = st.integers(0, 4).map(lambda k: p ** k)
    units = p_free(1, 30, p)
    dens = {"p-power": powers, "p-free": units,
            "mixed": st.builds(lambda a, b: a * b, powers, units)}[kind]
    a = mp.element([Q(draw(st.integers(-60, 60)), draw(dens)) for _ in range(n)])
    return a, draw(st.integers(-2, 40))


@settings(max_examples=150, deadline=None)
@given(admissible_elements())
def test_head_and_omega_match_digits(case):
    """The head up to index m that omega reads one digit at a time, as
    c_i = omega(p^-i (a - head below i)), is the digit oracle's, and omega
    is its digit c0.  No valuation is taken: f may be reducible, and a
    difference a zero divisor."""
    from padiccf.hensel import Embedding
    from oracles import digit_at, element_by_root, head_by_digits, vp_by_division

    a, m = case
    p = a.minpoly.p
    t = vp_by_division(a.den, p)
    x = element_by_root(a, max(m, 0) + t + 2)
    emb = Embedding(a.minpoly)
    head = Q(0)
    for i in range(-t, m + 1):
        head += emb.omega((a - head) * Q(p) ** -i) * Q(p) ** i
    assert head == head_by_digits(x, p, m)
    assert emb.omega(a) == digit_at(x, p, 0)


class TestOrd:
    def test_worked_examples(self, emb2, k2):
        z = k2.gen()
        assert emb2.ord(z) == 1  # ord of the constant term
        assert emb2.ord(z + 1) == 0
        assert emb2.ord(z + 2) == 2

    def test_zero(self, emb2, k2):
        assert emb2.ord(k2.zero()) is ORD_INF

    def test_agrees_with_rational_ord(self, emb3, k3, rng):
        for _ in range(200):
            q = Q(rng.randint(-50, 50), rng.randint(1, 50))
            assert emb3.ord(k3.rational(q)) == ordp(q, 2)

    def test_multiplicativity(self, emb3, k3, rng):
        for _ in range(300):
            a, b = rand_elem(k3, rng), rand_elem(k3, rng)
            if a.is_zero() or b.is_zero():
                continue
            assert emb3.ord(a * b) == emb3.ord(a) + emb3.ord(b)
            assert emb3.ord(a * a.inverse()) == 0

    def test_vector_ord_is_min(self, emb3, k3):
        z = k3.gen()
        vec = k3.vector([z, k3.rational(Q(1, 3))])
        assert min(emb3.ord(c) for c in vec.components) == 0


class TestDigits:
    def test_omega_examples(self, emb2, k2):
        z = k2.gen()
        assert emb2.omega(z) == 0  # z lies in pZ_p
        assert emb2.omega(2 / z) == 1
        assert emb2.omega(k2.zero()) == 0

    def test_head_partition(self, emb3, k3, rng):
        for m in (0, 1, 3):
            for _ in range(40):
                a = rand_elem(k3, rng)
                if a.is_zero():
                    continue
                diff = a - head_by_root(a, m)
                assert diff.is_zero() or emb3.ord(diff) > m

    def test_omega_strips_leading_digit(self, emb3, k3, rng):
        for _ in range(100):
            a = rand_elem(k3, rng)
            if a.is_zero() or emb3.ord(a) != 0:
                continue
            assert emb3.ord(a - emb3.omega(a)) >= 1


class TestTb:
    def test_fixes_zero(self, emb2, k2):
        assert emb2.t_b(k2.zero()).is_zero()

    def test_unit_digit_one_case(self, emb2, k2):
        # p^ord/a in 1 + pZ_p gives image p^ord/a - 1
        a = k2.rational(Q(2, 3))  # 2/(2/3) = 3 = 1 + 2
        assert emb2.t_b(a) == k2.rational(Q(2))

    def test_image_in_pzp(self, emb3, k3, rng):
        for _ in range(100):
            a = rand_elem(k3, rng)
            if a.is_zero():
                continue
            assert emb3.ord(emb3.t_b(a)) >= 1


class TestGeneratorSearch:
    def test_already_admissible(self, emb2, k2):
        m, b = emb2.find_H_generator(k2.gen())
        assert m == 0 and b == k2.gen()

    def test_rational_not_primitive(self, emb2, k2):
        with pytest.raises(NotPrimitive):
            emb2.find_H_generator(k2.rational(Q(2)))

    def test_search_output_verified_independently(self, emb3, k3):
        z = k3.gen()
        a = z + 2 * z * z
        m, b = emb3.find_H_generator(a)
        g = element_minpoly(b)
        assert len(g) - 1 == k3.degree
        assert all((not c) or ordp(c, 2) >= 0 for c in g[:-1])
        assert ordp(g[1], 2) == 0
        assert ordp(g[0], 2) >= 1
        assert emb3.ord(b) >= 1
        # iterating the map from a really does reach b in m steps
        cur = a
        for _ in range(m):
            cur = emb3.t_b(cur)
        assert cur == b

    def test_cap_enforced(self, emb3, k3):
        a = k3.gen() + 2 * k3.gen() ** 2
        if not emb3.satisfies_H(a):
            with pytest.raises(CapExceeded):
                emb3.find_H_generator(a, cap=0)

    def test_satisfies_h_rejects_units(self, emb2, k2):
        assert not emb2.satisfies_H(k2.gen() + 1)
        assert not emb2.satisfies_H(k2.rational(Q(4)))


class TestOrdNormCap:
    """``Embedding.ord`` climbs a doubling precision ladder clamped to the
    resultant bound; its values must match a digit-by-digit oracle and the
    former cap taken from the field inverse, far above the base precision
    too, and the determinant is paid only at the cap."""

    ROOT_DIGITS = 900

    @staticmethod
    def random_minpolys(rng, p, n, count):
        from padiccf.errors import Reducible
        from padiccf.field import validate_minpoly

        out = []
        while len(out) < count:
            coeffs = [rng.randint(-9, 9) for _ in range(n - 2)]
            coeffs.append(rng.choice([c for c in range(-9, 10) if c % p]))
            coeffs.append(p * rng.choice([c for c in range(-9, 10) if c]))
            try:
                mp = validate_minpoly(p, coeffs)
            except Reducible:
                continue
            if mp.certificate_prime is not None:  # certified ones only: the same sample as ever
                out.append(mp)
        return out

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_digit_oracle_and_inverse_cap(self, p, rng):
        from padiccf.hensel import Embedding
        from oracles import ord_by_digits, ord_with_inverse_cap, root_by_digits

        tall = 0
        for n in range(2, 7):
            for mp in self.random_minpolys(rng, p, n, 3):
                emb = Embedding(mp)
                root = root_by_digits(mp, self.ROOT_DIGITS)
                for _ in range(3):
                    alpha = rand_elem(mp, rng)
                    cases = [alpha] + [alpha - head_by_root(alpha, k) for k in (emb._base_precision, 60, 250)]
                    for a in cases:
                        if a.is_zero() or a.is_rational():
                            continue
                        got = emb.ord(a)
                        assert got == ord_with_inverse_cap(emb, a) == ord_by_digits(a, root, self.ROOT_DIGITS)
                        tall += got > 4 * emb._base_precision
        assert tall >= 40

    def test_convergent_differences(self, k3, emb3):
        from padiccf.cfrac import convergent, expand
        from oracles import ord_by_digits, ord_with_inverse_cap, root_by_digits

        root = root_by_digits(k3, self.ROOT_DIGITS)
        z = k3.gen()
        rec = expand(k3.vector([z, z * z + z]), "phi1", embedding=emb3, max_steps=30, detect_cycles=False)
        for n in (5, 15, 30):
            pi = convergent(rec, n)
            for a, q in zip(rec.initial.components, pi):
                diff = a - k3.rational(q)
                assert emb3.ord(diff) == ord_with_inverse_cap(emb3, diff) == ord_by_digits(diff, root, self.ROOT_DIGITS)

    def test_zero_divisor_in_reducible_ring(self, ring_cubic):
        from padiccf.hensel import Embedding
        from oracles import ord_with_inverse_cap

        # x^3 + x + 2 = (x + 1)(x^2 - x + 2); the root in 2Z_2 is a root of
        # the quadratic factor, so b = z^2 - z + 2 vanishes there exactly
        emb = Embedding(ring_cubic)
        z = ring_cubic.gen()
        b = z * z - z + 2
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            emb.ord(b)
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            ord_with_inverse_cap(emb, b)
        assert emb.ord(z + 1) == 0

    def test_zero_divisor_at_degree_five_is_decided_by_elimination(self, monkeypatch):
        from padiccf import preduce

        # (x^2 - x + 2)(x^3 + 1) = x^5 - x^4 + 2x^3 + x^2 - x + 2 is admissible
        # at 2; its root in 2Z_2 is a root of the quadratic factor, and from
        # degree 5 on the field inverse finds det = 0 by one elimination
        ring = MinPoly(2, [-1, 2, 1, -1, 2])
        emb = Embedding(ring)
        z = ring.gen()
        widths = []
        real_bareiss = preduce.bareiss
        monkeypatch.setattr(preduce, "bareiss", lambda rows, width: widths.append(width) or real_bareiss(rows, width))
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            emb.ord(z * z - z + 2)
        assert widths == [5]
        assert emb.ord(z * z * z + 1) == 0

    def test_convergent_horizons_pay_no_determinant(self, k3, monkeypatch):
        from padiccf import hensel
        from padiccf.cfrac import convergent, expand
        from oracles import ord_by_digits, root_by_digits

        calls = []
        real_inverse = hensel._inverse_nums
        monkeypatch.setattr(hensel, "_inverse_nums", lambda a: calls.append(a) or real_inverse(a))
        emb = Embedding(k3)
        root = root_by_digits(k3, self.ROOT_DIGITS)
        z = k3.gen()
        rec = expand(k3.vector([z, z * z + z]), "phi1", embedding=emb, max_steps=30, detect_cycles=False)
        vals = []
        for n in range(1, 31):
            for a, q in zip(rec.initial.components, convergent(rec, n)):
                diff = a - k3.rational(q)
                vals.append(emb.ord(diff))
                assert vals[-1] == ord_by_digits(diff, root, self.ROOT_DIGITS)
        assert max(vals) > 4 * emb._base_precision  # the ladder climbed
        assert calls == []

    def test_tall_zero_divisor_pays_one_determinant_at_the_cap(self, ring_cubic, monkeypatch):
        from padiccf import hensel

        emb = Embedding(ring_cubic)
        z = ring_cubic.gen()
        b = (z * z - z + 2) * (1 + 2**200 * z)  # vanishes at the root, as z^2 - z + 2 does
        base, cap = emb._base_precision, emb._ord_cap(b.nums)
        precisions, dets = [], []
        real_mod, real_inverse = emb._combination_mod, hensel._inverse_nums
        monkeypatch.setattr(emb, "_combination_mod", lambda nums, m: precisions.append(m) or real_mod(nums, m))
        monkeypatch.setattr(hensel, "_inverse_nums", lambda a: dets.append(a.minpoly.degree) or real_inverse(a))
        with pytest.raises(ZeroDivisionError, match=ZERO_DIVISOR):
            emb.ord(b)
        doublings = ((cap - 1) // base).bit_length()  # ceil(log2(cap / base))
        assert cap > 8 * base and len(precisions) <= doublings + 1
        assert precisions[0] == base and precisions[-1] == cap and precisions == sorted(set(precisions))
        assert dets == [3]


@st.composite
def deep_differences(draw):
    """An admissible monic f of degree 2-6 at p in {2, 3, 5, 7}, integral or
    over p-free denominators and not certified, and alpha - head(alpha, k)
    for a random alpha and k <= 300 (alpha itself when k is None)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 6))
    f_dens = p_free(1, 12, p)
    coeffs = [Q(draw(st.integers(-30, 30)), draw(f_dens)) for _ in range(n - 2)]
    coeffs.append(Q(draw(p_free(-30, 30, p)), draw(f_dens)))
    coeffs.append(Q(p * draw(st.integers(-30, 30).filter(bool)), draw(f_dens)))
    mp = MinPoly(p, coeffs)
    alpha = mp.element([Q(draw(st.integers(-60, 60)), draw(st.integers(1, 30))) for _ in range(n)])
    k = draw(st.none() | st.integers(0, 300))
    return alpha if k is None else alpha - head_by_root(alpha, k)


@settings(max_examples=150, deadline=None)
@given(deep_differences())
def test_ord_cap_exceeds_the_norm_valuation(a):
    """The resultant bound is at least v_p of the determinant of the
    multiplication matrix, D^(n(n-1)/2) N(b), plus one."""
    from padiccf.polys import multiplication_rows
    from padiccf.preduce import bareiss
    from oracles import vp_by_division

    assume(not a.is_zero() and not a.is_rational())
    mp = a.minpoly
    det = bareiss(multiplication_rows(mp._int_f, a.nums), mp.degree)[1]
    assume(det)  # a zero divisor of a reducible f has no finite bound
    assert Embedding(mp)._ord_cap(a.nums) >= vp_by_division(det, mp.p) + 1


@pytest.mark.parametrize("k", [1, 5, 40, 200])
def test_ord_cap_is_one_past_sharp_on_a_pure_power_norm(k):
    """N(z) = 2^k for x^2 + x + 2^k at p = 2, so v_2(N(z)) = log_2 |N(z)|;
    the bound floor((bitlen(2 + 4^k) + 2 bitlen(1)) / 2) = k + 1 is one
    past it, from the bit lengths' rounding, and the cap one more."""
    from padiccf.polys import multiplication_rows
    from padiccf.preduce import bareiss

    mp = MinPoly(2, [1, 2**k])
    z = mp.gen()
    assert bareiss(multiplication_rows(mp._int_f, z.nums), 2)[1] == 2**k
    assert Embedding(mp)._ord_cap(z.nums) == k + 2
