import pytest

from padiccf.errors import CapExceeded, NotPrimitive
from padiccf.field import element_minpoly
from padiccf.hensel import hensel_lift
from padiccf.rationals import ORD_INF, Q, head_tail, ordp
from oracles import hensel_root_search


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
        assert emb3.ord(vec) == 0


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
                h = emb3.head(a, m)
                diff = a - h
                assert diff.is_zero() or emb3.ord(diff) > m

    def test_head_agrees_with_rational_head(self, emb2, k2, rng):
        for _ in range(100):
            q = Q(rng.randint(-99, 99), rng.randint(1, 99))
            assert emb2.head(k2.rational(q), 2) == head_tail(q, 2, 2)[0]

    def test_omega_strips_leading_digit(self, emb3, k3, rng):
        for _ in range(100):
            a = rand_elem(k3, rng)
            if a.is_zero() or emb3.ord(a) != 0:
                continue
            assert emb3.ord(a - emb3.omega(a)) >= 1

    def test_head_vector(self, emb2, k2):
        vec = k2.vector([Q(7, 2), Q(4)])
        assert tuple(emb2.head(c, 0) for c in vec) == (Q(3, 2), Q(0))


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
    """``Embedding.ord`` caps its precision ladder by v_p(Res(f, b)); its
    values must match a digit-by-digit oracle and the former cap taken
    from the field inverse, far above the base precision too."""

    ROOT_DIGITS = 900

    @staticmethod
    def random_cubics(rng, p, count):
        from padiccf.errors import IrreducibilityUnknown, Reducible
        from padiccf.field import validate_minpoly

        out = []
        while len(out) < count:
            a2 = rng.randint(-9, 9)
            a1 = rng.choice([c for c in range(-9, 10) if c % p])
            a0 = p * rng.choice([c for c in range(-9, 10) if c])
            try:
                out.append(validate_minpoly(p, [a2, a1, a0]))
            except (Reducible, IrreducibilityUnknown):
                continue
        return out

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_digit_oracle_and_inverse_cap(self, p, rng):
        from padiccf.hensel import Embedding
        from oracles import ord_by_digits, ord_with_inverse_cap, root_by_digits

        tall = 0
        for mp in self.random_cubics(rng, p, 4):
            emb = Embedding(mp)
            root = root_by_digits(mp, self.ROOT_DIGITS)
            for _ in range(4):
                alpha = rand_elem(mp, rng)
                cases = [alpha] + [alpha - emb.head(alpha, k) for k in (emb._base_precision, 60, 250)]
                for a in cases:
                    if a.is_zero() or a.is_rational():
                        continue
                    got = emb.ord(a)
                    assert got == ord_with_inverse_cap(emb, a) == ord_by_digits(a, root, self.ROOT_DIGITS)
                    tall += got > 4 * emb._base_precision
        assert tall >= 8

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
        with pytest.raises(ZeroDivisionError):
            emb.ord(b)
        with pytest.raises(ZeroDivisionError):
            ord_with_inverse_cap(emb, b)
        assert emb.ord(z + 1) == 0
