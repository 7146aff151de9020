import copy
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from padiccf import cfrac, polys
from padiccf.cfrac import (
    ALGORITHMS,
    TAKES,
    ExpansionRecord,
    convergent,
    expand,
    forward_step,
    g_map,
    h_map,
    in_E,
    inverse_step,
    lookahead_fits,
    lookahead_phi2,
    step_phi0,
    step_phi1,
    step_phi2,
    step_phi3,
)
from padiccf.errors import (CapExceeded, ConfigError, HViolation, MixedField, NonSquare, PadiccfError, PoleHit,
                            RecordFormatError, Reducible)
from padiccf.field import (MAX_DEGREE, FieldElement, MinPoly, VectorElement, denom_z, height_z, independent_with_one,
                           validate_minpoly)
from padiccf.hensel import Embedding
from padiccf.lab import RunConfig, _suite_coefficients, _z_task, build_z_set
from padiccf.preduce import RationalMatrix
from padiccf.rationals import ORD_INF, Q, ordp
from oracles import (
    ClosedFormPole,
    brute_phi2_index,
    coeff_matrix,
    forward_step_closed_form,
    gauss_det,
    h_map_by_fractions,
    inverse_step_closed_form,
    is_p_reduced,
    schneider_orbit,
    step_phi3_by_fractions,
)


@pytest.fixture(scope="module")
def kq():
    return MinPoly.rationals(2)


@pytest.fixture(scope="module")
def k3a():
    """x^3 + x^2 + x + 4 at p=2: cubic with nonzero quadratic coefficient."""
    return validate_minpoly(2, [1, 1, 4])


def rand_in_pzp(rng, p, span=40):
    num = p * rng.randint(1, span)
    den = rng.choice([d for d in range(1, span) if d % p])
    return Q(num if rng.random() < 0.5 else -num, den)


class TestGMap:
    def test_one_dimensional_example(self, kq):
        emb = Embedding(kq)
        step, image = g_map(emb, kq.vector([Q(2, 3)]), 1, 1)
        assert image[0] == kq.rational(2)
        assert step.exps == (1,) and step.shifts == (Q(1),)

    def test_cubic_closed_form(self, k3a):
        # pivot component equals -eps(z^2 + a1 z + a2)/a3 minus a digit,
        # with the digit pinned by membership in pZ_p
        emb = Embedding(k3a)
        z = k3a.gen()
        for eps in (1, -1):
            _, image = g_map(emb, k3a.vector([z, z * z]), eps, 1)
            core = (z * z + z + 1) * Q(-eps)  # a1 = a2 = a3 = 1
            digit = core - image[0]
            assert digit.is_rational()
            assert 0 <= digit.rational_value() < 2
            assert emb.ord(image[0]) >= 1

    def test_zero_pivot_identity(self, k3a):
        emb = Embedding(k3a)
        alpha = k3a.vector([k3a.zero(), k3a.gen()])
        step, image = g_map(emb, alpha, 1, 1)
        assert step.identity and image == alpha

    def test_nonpivot_exponent(self, k3a):
        # k = max(ord(a_j) - ord(a_i), 0)
        emb = Embedding(k3a)
        z = k3a.gen()
        alpha = k3a.vector([z * z, z])  # ord 4 and 2
        step, _ = g_map(emb, alpha, 1, 1)
        assert step.exps[0] == 4  # pivot ord
        assert step.exps[1] == 2  # 4 - 2


class TestHMap:
    def test_quadratic_generator_orbit(self, k2):
        # v1 = 1: image of (z) is (-z), image of (-z) is (z)
        emb = Embedding(k2)
        z = k2.gen()
        _, image = h_map(emb, k2.vector([z]), 1, 1)
        assert image[0] == -z
        _, image2 = h_map(emb, k2.vector([-z]), 1, 1)
        assert image2[0] == z

    def test_divisor_ladder(self, k2_v3):
        # x^2+x+6: v1 = 3; q = 1 gives -eps z/3, q = 1/3 gives -eps z
        emb = Embedding(k2_v3)
        z = k2_v3.gen()
        assert h_map(emb, k2_v3.vector([z]), 1, 1)[1][0] == z * Q(-1, 3)
        assert h_map(emb, k2_v3.vector([z * Q(1, 3)]), 1, 1)[1][0] == -z
        # with eps = -1 the signs cancel: z -> z/3 -> z
        assert h_map(emb, k2_v3.vector([z]), -1, 1)[1][0] == z * Q(1, 3)
        assert h_map(emb, k2_v3.vector([z * Q(1, 3)]), -1, 1)[1][0] == z

    def test_rational_input_maps_to_zero(self, k2):
        emb = Embedding(k2)
        for q in (Q(2, 3), Q(4), Q(-6, 5)):
            _, image = h_map(emb, k2.vector([q]), 1, 1)
            assert image[0].is_zero()

    def test_images_in_pzp(self, k3, emb3, rng):
        z = k3.gen()
        for _ in range(25):
            alpha = k3.vector(
                [
                    k3.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
                    for _ in range(2)
                ]
            )
            if alpha[0].is_zero():
                continue
            _, image = h_map(emb3, alpha, 1, 1)
            for c in image:
                assert c.is_zero() or emb3.ord(c) >= 1


class TestMapSteps:
    """Each fractional map returns its own step, with A = I and gamma = 0,
    together with F(alpha)."""

    # (p, a1..an): p in {2, 3}, degrees 2 to 4
    FIELDS = [(2, [1, 2]), (2, [0, 1, 4]), (2, [1, 0, 1, 2]),
              (3, [1, 3]), (3, [0, 1, 3]), (3, [1, 0, 1, 3])]

    @pytest.mark.parametrize("p, coeffs", FIELDS)
    def test_forward_step_is_image(self, p, coeffs, rng):
        mp = validate_minpoly(p, coeffs)
        emb = Embedding(mp)
        s = mp.s
        identities = 0
        for trial in range(12):
            comps = [mp.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(mp.degree)])
                     for _ in range(s)]
            if trial < 2:
                comps[trial % s] = mp.zero()  # identity maps at that pivot
            alpha = VectorElement(comps)
            for fmap in (g_map, h_map):
                for eps in (1, -1):
                    for j in range(1, s + 1):
                        step, image = fmap(emb, alpha, eps, j)
                        assert (step.p, step.pivot, step.eps) == (p, j, eps)
                        assert step.matrix == RationalMatrix.identity(s) and not any(step.gamma)
                        assert forward_step(step, alpha) == image
                        identities += step.identity
        assert identities


class TestPhi0:
    def test_finite_orbits(self, kq):
        rec = expand(kq.vector([Q(2, 3)]), "phi0", eps=1)
        assert rec.status.kind == "finite" and rec.status.index == 2
        assert [r[0].rational_value() for r in rec.remainders] == [Q(2, 3), Q(2), Q(0)]
        rec = expand(kq.vector([Q(2, 3)]), "phi0", eps=-1)
        assert [r[0].rational_value() for r in rec.remainders] == [Q(2, 3), Q(-4), Q(0)]

    def test_shift_semantics(self, k3, emb3):
        z = k3.gen()
        alpha = k3.vector([z, z * z])
        _, image = g_map(emb3, alpha, 1, 1)
        _, nxt = step_phi0(emb3, alpha, 1)
        assert nxt[1] == image[0]
        assert nxt[0] == image[1]

    def test_matches_generic_forward(self, k3, emb3):
        z = k3.gen()
        alpha = k3.vector([z, z * z])
        step, nxt = step_phi0(emb3, alpha, 1)
        assert forward_step(step, alpha) == nxt


class TestPhi1:
    def test_cubic_remainder_closed_forms(self, k3a):
        # a1 = a2 = a3 = 1, k = 2
        emb = Embedding(k3a)
        z = k3a.gen()
        for eps in (1, -1):
            alpha = k3a.vector([z, z * z])
            _, r1 = step_phi1(emb, alpha, eps)
            assert r1 == k3a.vector([z * eps, (z * z + z) * Q(-eps)])
            _, r2 = step_phi1(emb, r1, eps)
            assert r2 == k3a.vector([z * Q(-eps), (z * z + z) * Q(-1)])
            _, r3 = step_phi1(emb, r2, eps)
            assert r3 == k3a.vector([z, z * z + z])
            _, r4 = step_phi1(emb, r3, eps)
            assert r4 == r1

    def test_expansion_status(self, k3a):
        z = k3a.gen()
        rec = expand(k3a.vector([z, z * z]), "phi1", eps=1)
        assert rec.status.kind == "periodic"
        assert rec.status.preperiod == 1 and rec.status.period == 3


def _cubic_suite():
    """The embedding of a z-set cubic over p = 2 and four suite vectors."""
    mp = build_z_set(2, 3)[0]
    return Embedding(mp), [mp.vector([mp.element(c) for c in cs]) for cs in _suite_coefficients(3, 4)]


class TestPhi2:
    def test_one_dimensional_index(self, k2, emb2):
        assert lookahead_phi2(emb2, k2.vector([k2.gen()]), 1, 1, {}) == 1

    @pytest.mark.parametrize("depth", [0, True, 1.0])
    def test_depth_is_an_int_at_least_one(self, k2, emb2, depth):
        with pytest.raises(ValueError, match="lookahead depth must be an integer >= 1"):
            lookahead_phi2(emb2, k2.vector([k2.gen()]), 1, depth, {})

    def test_quadratic_coincides_with_phi1(self, k2_v3):
        emb = Embedding(k2_v3)
        z = k2_v3.gen()
        start = k2_v3.vector([z + 4])
        rec1 = expand(start, "phi1", eps=1, embedding=emb)
        rec2 = expand(start, "phi2", eps=1, lookahead=3, embedding=emb)
        assert [r.key() for r in rec1.remainders] == [r.key() for r in rec2.remainders]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_matches_brute_tree(self, k3, emb3, n, rng):
        z = k3.gen()
        seeds = [
            k3.vector([z, z * z]),
            k3.vector([z + 2 * z * z, z]),
            k3.vector([k3.element([2, Q(1, 3), 4]), k3.element([0, 1, 1])]),
        ]
        def h_image(vec, i):
            return h_map(emb3, vec, 1, i)[1]

        for alpha in seeds:
            got = lookahead_phi2(emb3, alpha, 1, n, {})
            want = brute_phi2_index(emb3, alpha, 1, n, h_image)
            assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tie_breaks_to_least_index(self, n):
        # (a, a) is symmetric under swapping the pivots, so both cost the same
        mp = build_z_set(2, 3)[0]
        a = mp.element([Q(1, 3), 1, 2])
        alpha = mp.vector([a, a])
        emb = Embedding(mp)

        def images(vec):
            return [h_map(emb, vec, 1, i)[1] for i in (1, 2)]

        def cost(vec, depth):  # the least denominator product below vec
            return 1 if depth == 0 else min(denom_z(img) * cost(img, depth - 1) for img in images(vec))

        first, second = (denom_z(img) * cost(img, n) for img in images(alpha))
        assert first == second
        assert lookahead_phi2(emb, alpha, 1, n, {}) == 1

    def test_lookahead_budget(self):
        assert lookahead_fits(2, 3) and lookahead_fits(5, 1)  # the lookaheads in use
        assert lookahead_fits(2, 11) and not lookahead_fits(2, 12)  # 2^12 = LOOKAHEAD_BUDGET
        assert lookahead_fits(1, 10 ** 12) and not lookahead_fits(3, 10 ** 12)

    @pytest.mark.parametrize("lookahead", [12, 10 ** 12])
    def test_over_budget_raises_before_any_map(self, k3, lookahead, monkeypatch):
        def no_map(*args):
            raise AssertionError("h_map ran")

        monkeypatch.setattr(cfrac, "h_map", no_map)
        z = k3.gen()
        with pytest.raises(CapExceeded):
            expand(k3.vector([z, z * z]), "phi2", lookahead=lookahead)

    def test_step_is_h_map_at_lookahead_index(self, k3, emb3, rng):
        for _ in range(6):
            alpha = k3.vector(
                [k3.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]) for _ in range(2)]
            )
            for eps, n in ((1, 1), (-1, 2)):
                j = lookahead_phi2(emb3, alpha, eps, n, {})
                assert step_phi2(emb3, alpha, eps, n, {}) == h_map(emb3, alpha, eps, j)

    @pytest.mark.parametrize("n, eps", [(1, 1), (1, -1), (2, 1), (2, -1)])
    def test_expansion_steps_are_h_map_at_brute_index(self, n, eps):
        emb, vectors = _cubic_suite()
        for alpha in vectors[:2]:
            rec = expand(alpha, "phi2", eps=eps, lookahead=n, embedding=emb)
            assert len(rec.steps) >= 8

            def h_image(vec, i):
                return h_map(emb, vec, eps, i)[1]

            for k, step in enumerate(rec.steps):
                cur = rec.remainders[k]
                j = brute_phi2_index(emb, cur, eps, n, h_image)
                assert (step, rec.remainders[k + 1]) == h_map(emb, cur, eps, j)

    # the h_map calls of every step after the first on the four _cubic_suite
    # vectors (6 steps each, eps = 1), against 80/160/320 for the full trees
    LATER_STEP_MAPS = {1: 46, 2: 76, 3: 88}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_memo_is_the_last_tree(self, n, monkeypatch):
        """After a step the memo holds exactly the remainders that step's
        lookahead mapped, its pruned tree: the remainders a call with an
        empty memo maps, each with its two pivots.  A later step maps only
        the remainders of its tree that the last tree lacks, at most
        2^(n+1) h_map calls, and the totals are pinned."""
        emb, vectors = _cubic_suite()
        real_h_map, calls = cfrac.h_map, []

        def counted(emb_, vec, eps_, j):
            calls.append((vec, j))
            return real_h_map(emb_, vec, eps_, j)

        monkeypatch.setattr(cfrac, "h_map", counted)
        later = 0
        for alpha in vectors:
            memo = {}
            for k in range(6):
                calls.clear()
                lookahead_phi2(emb, alpha, 1, n, {})
                fresh = list(calls)
                tree = {vec for vec, _ in fresh}
                assert sorted(j for vec, j in fresh) == sorted(j for vec in tree for j in (1, 2))
                last = set(memo)
                calls.clear()
                _, nxt = step_phi2(emb, alpha, 1, n, memo)
                assert set(memo) == tree
                assert calls == [c for c in fresh if c[0] not in last]
                if k:
                    assert len(calls) <= 2 ** (n + 1)
                    later += len(calls)
                alpha = nxt
        assert later == self.LATER_STEP_MAPS[n]

    @staticmethod
    def _stub_lookahead(monkeypatch, dens, n, s=2):
        """lookahead_phi2 on a stub tree: the node at path (i1, .., ik) of
        pivots has denom_z ``dens.get(path, 1)``.  Returns the index and the
        paths of the nodes it mapped, one per h_map call."""

        @dataclasses.dataclass(frozen=True)
        class Node:
            path: tuple
            den: int = dataclasses.field(compare=False)

            def __len__(self):
                return s

        mapped = []

        def stub_h_map(emb_, vec, eps_, j):
            mapped.append(vec.path)
            path = vec.path + (j,)
            return None, Node(path, dens.get(path, 1))

        monkeypatch.setattr(cfrac, "h_map", stub_h_map)
        index = lookahead_phi2(None, Node((), 1), 1, n, {})
        return index, mapped[::s]

    def test_equal_product_goes_to_the_least_index(self, monkeypatch):
        # pivot 2 is visited first (den 2, product 2 * 2 = 4); pivot 1 has den
        # 4, equal to that product, and product 4 * 1 = 4: it is expanded and wins
        dens = {(1,): 4, (2,): 2, (2, 1): 2, (2, 2): 3}
        index, mapped = self._stub_lookahead(monkeypatch, dens, 1)
        assert index == 1 and mapped == [(), (2,), (1,)]

    def test_lower_index_at_the_best_product_is_expanded(self, monkeypatch):
        # as above, but below pivot 1 every product is 4 * 2 = 8 > 4
        dens = {(1,): 4, (2,): 2, (2, 1): 2, (2, 2): 3, (1, 1): 2, (1, 2): 2}
        index, mapped = self._stub_lookahead(monkeypatch, dens, 1)
        assert index == 2 and mapped == [(), (2,), (1,)]

    def test_child_above_the_best_product_is_never_mapped(self, monkeypatch):
        # pivot 1 reaches product 2 * 1 * 1 = 2, so pivot 2 (den 3) is not
        # mapped, nor, below pivot 1, child (1, 2), whose den 1 reaches the
        # best product 1 that (1, 1) found there
        dens = {(1,): 2, (2,): 3}
        index, mapped = self._stub_lookahead(monkeypatch, dens, 2)
        assert index == 1 and mapped == [(), (1,), (1, 1)]
        # a later child whose denominator equals the best product, not of a
        # lower index, is not mapped either
        index, mapped = self._stub_lookahead(monkeypatch, {(1,): 2, (2,): 2}, 1)
        assert index == 1 and mapped == [(), (1,)]

    def test_step_is_read_from_the_lookahead(self, monkeypatch):
        """Every h_map of a phi2 expansion runs inside a lookahead."""
        emb, vectors = _cubic_suite()
        real_lookahead, real_h_map = cfrac.lookahead_phi2, cfrac.h_map
        inside, outside = [0], []

        def lookahead(*args):
            inside[0] += 1
            try:
                return real_lookahead(*args)
            finally:
                inside[0] -= 1

        def counted(*args):
            if not inside[0]:
                outside.append(args)
            return real_h_map(*args)

        monkeypatch.setattr(cfrac, "lookahead_phi2", lookahead)
        monkeypatch.setattr(cfrac, "h_map", counted)
        rec = expand(vectors[0], "phi2", embedding=emb)
        assert len(rec.steps) >= 8 and outside == []

    @pytest.mark.parametrize("n, eps", [(1, 1), (1, -1), (2, 1), (2, -1)])
    def test_h_map_once_per_vector_and_pivot(self, n, eps, monkeypatch):
        """Each (remainder, pivot) map runs once, up to the step whose
        tree reaches the remainder a periodic orbit returns to: that tree
        revisits remainders whose subtrees earlier steps pruned and runs
        their maps again.  The counted run is on an embedding of its own,
        so none of its steps is read from the cycle the full run stored."""
        emb, vectors = _cubic_suite()
        real_h_map = cfrac.h_map
        for alpha in vectors:
            full = expand(alpha, "phi2", eps=eps, lookahead=n, embedding=emb)
            calls = []

            def counted(emb_, vec, eps_, j):
                calls.append((vec, j))
                return real_h_map(emb_, vec, eps_, j)

            monkeypatch.setattr(cfrac, "h_map", counted)
            expand(alpha, "phi2", eps=eps, lookahead=n, embedding=Embedding(emb.minpoly),
                   max_steps=full.status.index - n)
            monkeypatch.setattr(cfrac, "h_map", real_h_map)
            assert calls and len(calls) == len(set(calls))

    def test_identity_step_freezes(self, k3, emb3):
        # pivot chosen at a zero component with A = id leaves the remainder
        # fixed, which cycle detection reports as periodic
        alpha = k3.vector([k3.zero(), k3.gen()])
        step, nxt = step_phi2(emb3, alpha, 1, 1, {})
        if step.identity:
            assert nxt == alpha


class TestPhi3:
    def test_nested_sum_fixed_point(self, k3, emb3):
        z = k3.gen()
        alpha = k3.vector([z * z + z, z])
        step, r1 = step_phi3(emb3, alpha)
        assert r1 == k3.vector([z * z, z])
        step2, r2 = step_phi3(emb3, r1)
        assert r2 == r1
        assert forward_step(step, alpha) == r1

    @pytest.mark.parametrize("field, count", [("k3", 1), ("k2", 2), ("k2", 3)])
    def test_refuses_a_vector_not_of_degree_minus_one(self, request, field, count):
        """phi3 p-reduces a square z-part matrix: s components over a field
        of degree other than s + 1 are refused with NonSquare, not expanded."""
        mp = request.getfixturevalue(field)
        z = mp.gen()
        alpha = mp.vector([z + k for k in range(count)])
        with pytest.raises(NonSquare, match="phi3 needs degree - 1 components"):
            expand(alpha, "phi3", max_steps=3)

    @pytest.mark.parametrize("p, cubics", [(2, ([0, 1, 4], [1, 3, 2], [-1, 3, 6])),
                                           (3, ([0, 1, 3], [1, 2, 6], [2, -1, 3]))])
    def test_steps_leave_z_parts_p_reduced(self, p, cubics, rng):
        """Each phi3 step p-reduces the z-part of the next remainder, and its
        matrix lies in GL(2, Z_p cap Q): p-free denominators, unit determinant."""
        steps = 0
        for coeffs in cubics:
            mp = validate_minpoly(p, coeffs)
            emb = Embedding(mp)
            for _ in range(4):
                alpha = mp.vector(
                    [mp.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]) for _ in range(2)]
                )
                for _ in range(5):
                    step, nxt = step_phi3(emb, alpha)
                    assert is_p_reduced(coeff_matrix(nxt)[1], p)
                    assert all(c.denominator % p for row in step.matrix.entries for c in row)
                    assert ordp(gauss_det(step.matrix.entries), p) == 0
                    alpha, steps = nxt, steps + 1
        assert steps == 60

    def test_g_variant_agrees_on_nested_sum(self, k3, emb3):
        z = k3.gen()
        alpha = k3.vector([z * z + z, z])
        _, r1 = step_phi3(emb3, alpha, g_variant=True)
        assert r1 == k3.vector([z * z, z])

    def test_zero_pivot_branch(self, k3, emb3):
        z = k3.gen()
        alpha = k3.vector([z, k3.zero()])
        step, nxt = step_phi3(emb3, alpha)
        assert step.identity
        # fractional part is the identity but A and gamma still act
        assert forward_step(step, alpha) == nxt
        assert nxt == VectorElement(
            tuple(x + g for x, g in zip(step.matrix.apply(alpha.components), step.gamma))
        )

    def test_gamma_lies_in_pzp(self, k3, emb3, rng):
        z = k3.gen()
        for _ in range(10):
            alpha = k3.vector(
                [k3.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]) for _ in range(2)]
            )
            if alpha[1].is_zero():
                continue
            step, nxt = step_phi3(emb3, alpha)
            for g in step.gamma:
                assert not g or ordp(g, 2) >= 1
            assert in_E(emb3, nxt)


def _suite_vectors(mp, degree, size):
    return [mp.vector([mp.element(c) for c in cs]) for cs in _suite_coefficients(degree, size)]


class TestPhi3AgainstFractionOracle:
    @pytest.mark.parametrize("g_variant", [False, True])
    @pytest.mark.parametrize("p, degree", [(2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5), (2, 6), (3, 6)])
    def test_steps_equal_oracle_steps(self, p, degree, g_variant):
        """Every step of phi3 expansions equals the step built from rational
        parts (coefficient matrix, Fraction p-reduction, ``apply``,
        ``element``), and h_map at every pivot equals its Fraction form.
        Degrees 5 and 6, where the census spends most of its time, take one
        generator, two suite vectors and fewer steps, to stay quick."""
        generators, size, max_steps = (3, 4, 10) if degree < 5 else (1, 2, 8)
        steps = 0
        for mp in build_z_set(p, degree)[:generators]:
            emb = Embedding(mp)
            for alpha in _suite_vectors(mp, degree, size):
                rec = expand(alpha, "phi3", g_variant=g_variant, max_steps=max_steps, embedding=emb)
                for k, rem in enumerate(rec.remainders[:-1]):
                    assert step_phi3_by_fractions(emb, rem, g_variant) == (rec.steps[k], rec.remainders[k + 1])
                    for j in range(1, len(rem) + 1):
                        assert h_map(emb, rem, 1, j) == h_map_by_fractions(emb, rem, 1, j)
                    steps += 1
        assert steps >= 8 * generators


class TestLazyTransformer:
    def test_census_runs_no_p_reduce_and_a_read_runs_one(self, monkeypatch):
        """A phi3 census cell (``lab._z_task`` on one generator) and an
        expansion on a given embedding form no transformer.  Reading a
        step's ``matrix`` runs ``p_reduce`` once and keeps the result, which
        is the Fraction oracle's A, and the step writes the oracle step's
        JSON."""
        calls = []
        real = cfrac.p_reduce

        def counted(matrix, p):
            calls.append(p)
            return real(matrix, p)

        monkeypatch.setattr(cfrac, "p_reduce", counted)
        mp = build_z_set(2, 4)[0]
        config = RunConfig(primes=(2,), degree=4, algorithms=(("phi3", None, None),), suite_size=3,
                           max_steps=30, height_exponent=60)
        _, counts, errors = _z_task((mp, config))
        assert not errors and sum(counts["phi3"].values()) == 3
        emb = Embedding(mp)
        rec = expand(_suite_vectors(mp, 4, 1)[0], "phi3", max_steps=5, embedding=emb)
        assert len(rec.steps) == 5 and calls == []
        for k, step in enumerate(rec.steps):
            a = step.matrix
            assert step.matrix is a and len(calls) == k + 1
            oracle, _ = step_phi3_by_fractions(emb, rec.remainders[k])
            assert a == oracle.matrix
            assert json.dumps(step.to_json()) == json.dumps(oracle.to_json())
        assert len(calls) == 5


class TestInverse:
    @staticmethod
    def _random_records(k3, emb3, rng, count=6):
        z = k3.gen()
        recs = []
        for algo, eps in (("phi0", 1), ("phi1", -1), ("phi2", 1), ("phi3", 1)):
            for _ in range(count):
                alpha = k3.vector(
                    [k3.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]) for _ in range(2)]
                )
                if alpha.is_zero():
                    continue
                recs.append(expand(alpha, algo, eps=eps, max_steps=12, embedding=emb3))
        return recs

    def test_forward_matches_recorded_remainders(self, k3, emb3, rng):
        for rec in self._random_records(k3, emb3, rng):
            for k, step in enumerate(rec.steps):
                assert forward_step(step, rec.remainders[k]) == rec.remainders[k + 1]

    def test_round_trip(self, k3, emb3, rng):
        for rec in self._random_records(k3, emb3, rng):
            for k, step in enumerate(rec.steps):
                back = inverse_step(step, rec.remainders[k + 1])
                assert back == rec.remainders[k]

    def test_identity_step_inverse(self, k3, emb3):
        alpha = k3.vector([k3.zero(), k3.gen()])
        step, nxt = step_phi0(emb3, alpha, 1)
        assert step.identity
        assert inverse_step(step, nxt) == alpha

    def test_pole_hit(self, k2, emb2):
        z = k2.gen()
        step, _ = step_phi1(emb2, k2.vector([z]), 1)
        pole = tuple(-w for w in step.shifts)  # y with y_j + w_j = 0
        with pytest.raises(PoleHit):
            inverse_step(step, step.matrix.apply(pole))

    def test_forward_pole(self, k2, emb2):
        step, _ = step_phi1(emb2, k2.vector([k2.gen()]), 1)
        with pytest.raises(PoleHit):
            forward_step(step, (Q(0),))


class TestScalarPoints:
    """forward_step and inverse_step on a tuple of ints or of Fractions:
    Fractions out, never floats, the values the field-element path gives
    on the rational sentinel, and PoleHit at a pole for either kind.  A
    float is refused."""

    @pytest.fixture(scope="class")
    def sentinel_steps(self):
        kq = MinPoly.rationals(3)
        steps = [step for a in (Q(2, 3), Q(-5, 7), Q(7, 10))
                 for step in expand(kq.vector([a]), "phi0", eps=-1).steps]
        assert len(steps) == 11 and not any(step.identity for step in steps)
        return kq, steps

    @pytest.mark.parametrize("x", [-4, 5, Q(1, 5), Q(-9, 2)])
    def test_fractions_equal_to_the_field_path(self, sentinel_steps, x):
        kq, steps = sentinel_steps
        for fn in (forward_step, inverse_step):
            for step in steps:
                got = fn(step, (x,))
                assert type(got) is tuple and all(type(v) is Q for v in got)
                assert fn(step, (Q(x),)) == got
                assert tuple(c.rational_value() for c in fn(step, kq.vector([x]))) == got

    @pytest.mark.parametrize("x", [0.5, 0.25, -4.0])
    def test_floats_refused(self, sentinel_steps, x):
        _, steps = sentinel_steps
        for fn in (forward_step, inverse_step):
            for step in steps:
                with pytest.raises(TypeError, match="^a float is not an exact rational"):
                    fn(step, (x,))

    def test_pole_for_either_kind(self, sentinel_steps):
        _, steps = sentinel_steps
        for step in steps:
            (w,) = step.shifts  # F(x) = c p^e / x - w, so the inverse has its pole at -w
            assert w.denominator == 1
            for x, y in ((0, -w.numerator), (Q(0), -w)):
                with pytest.raises(PoleHit):
                    forward_step(step, (x,))
                with pytest.raises(PoleHit):
                    inverse_step(step, (y,))


class TestProjectiveAgainstClosedForm:
    """The projective integer matrices of a step against the fractional
    map and its closed-form inverse, on rational points, poles included."""

    @staticmethod
    def outcome(fn, step, x, pole):
        try:
            return fn(step, x)
        except pole:
            return "pole"

    def test_rational_points_and_poles(self, k3, emb3, rng):
        def rand_q():
            return Q(rng.randint(-30, 30), rng.randint(1, 30))

        recs = TestInverse._random_records(k3, emb3, rng, count=3)
        checked = {"forward": 0, "inverse": 0}
        for rec in recs:
            for step in rec.steps:
                s = len(step.gamma)
                points = [tuple(rand_q() for _ in range(s)) for _ in range(3)]
                if not step.identity:
                    j = step.pivot - 1
                    # forward pole: zero pivot coordinate
                    x = list(points[0])
                    x[j] = Q(0)
                    points.append(tuple(x))
                    # inverse pole: A u + gamma with u_j + w_j = 0
                    u = [rand_q() for _ in range(s)]
                    u[j] = -step.shifts[j]
                    points.append(tuple(a + g for a, g in zip(step.matrix.apply(u), step.gamma)))
                for x in points:
                    for name, new, old in (
                        ("forward", forward_step, forward_step_closed_form),
                        ("inverse", inverse_step, inverse_step_closed_form),
                    ):
                        got = self.outcome(new, step, x, PoleHit)
                        want = self.outcome(old, step, x, ClosedFormPole)
                        assert got == want, (name, step, x)
                        checked[name] += got == "pole"
        assert checked["forward"] and checked["inverse"]

    def test_inverse_matrix_is_cached(self, k2, emb2):
        step, _ = step_phi1(emb2, k2.vector([k2.gen()]), 1)
        assert step.inverse_matrix is step.inverse_matrix
        assert inverse_step(step, (Q(1, 3),)) == inverse_step_closed_form(step, (Q(1, 3),))


class TestStepParameters:
    """A step keeps its parameters as the maps computed them: ints and
    unreduced (numerator, denominator) pairs.  The ``Fraction`` views,
    the JSON, the step matrix, equality and hashing read their values."""

    MATRIX = RationalMatrix([[Q(1, 3), Q(2)], [Q(0), Q(5, 7)]])

    def steps(self, identity=False):
        # 6/4, -10/15 and 4/6 unreduced, a negative denominator, a negative
        # exponent, and an A with row denominators
        pairs = cfrac.CMapStep(2, 2, -1, identity, ((-6, 4), -1), (3, -2), ((10, -15), 7),
                               self.MATRIX, ((4, 6), (0, 9)))
        fracs = cfrac.CMapStep(2, 2, -1, identity, (Q(-3, 2), Q(-1)), (3, -2), (Q(-2, 3), Q(7)),
                               self.MATRIX, (Q(2, 3), Q(0)))
        return pairs, fracs

    @pytest.mark.parametrize("identity", [False, True])
    def test_equal_and_hash_as_the_fraction_step(self, identity):
        pairs, fracs = self.steps(identity)
        assert pairs == fracs and hash(pairs) == hash(fracs)
        assert pairs.coeffs == (Q(-3, 2), Q(-1)) and pairs.gamma == (Q(2, 3), Q(0))
        other_gamma = cfrac.CMapStep(2, 2, -1, identity, pairs._coeffs, pairs.exps, pairs._shifts, self.MATRIX, (1, 0))
        assert pairs != other_gamma and pairs != self.steps(not identity)[0]

    def test_same_json_and_no_cached_view(self):
        pairs, fracs = self.steps()
        assert json.dumps(pairs.to_json()) == json.dumps(fracs.to_json())
        assert pairs.to_json()["shifts"] == ["-2/3", "7"]
        assert not {"coeffs", "shifts", "gamma"} & set(vars(pairs))
        assert pairs._coeffs == ((-6, 4), -1) and pairs._shifts == ((10, -15), 7)

    @pytest.mark.parametrize("identity", [False, True])
    def test_step_matrix_from_pairs(self, identity):
        pairs, fracs = self.steps(identity)
        assert pairs.forward_matrix == fracs.forward_matrix
        assert math.gcd(*(c for row in pairs.forward_matrix for c in row)) == 1
        for x in ((Q(1, 5), Q(-3, 2)), (Q(0), Q(7)), (Q(-4), Q(1, 9))):
            assert forward_step(pairs, x) == forward_step_closed_form(fracs, x)
            assert inverse_step(pairs, forward_step(pairs, x)) == x

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_pairs_read_as_their_values(self, data):
        s = data.draw(st.integers(1, 3))
        p = data.draw(st.sampled_from([2, 3]))
        nonzero = st.integers(-30, 30).filter(bool)

        def param(num):
            # an int, or a pair whose terms share a factor of any sign
            return st.one_of(num, st.builds(lambda n, d, f: (n * f, d * f), num, nonzero, nonzero))

        def draw(num):
            return tuple(data.draw(param(num)) for _ in range(s))

        def as_fractions(v):
            return tuple(Q(*c) if type(c) is tuple else Q(c) for c in v)

        coeffs, shifts, gamma = draw(nonzero), draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
        exps = tuple(data.draw(st.integers(-3, 3)) for _ in range(s))
        mat = RationalMatrix([[Q(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9))) for _ in range(s)]
                              for _ in range(s)])
        head = (p, data.draw(st.integers(1, s)), 1, data.draw(st.booleans()))
        pairs = cfrac.CMapStep(*head, coeffs, exps, shifts, mat, gamma)
        fracs = cfrac.CMapStep(*head, as_fractions(coeffs), exps, as_fractions(shifts), mat, as_fractions(gamma))
        assert pairs == fracs and pairs.to_json() == fracs.to_json()
        assert pairs.forward_matrix == fracs.forward_matrix
        x = tuple(Q(data.draw(nonzero), data.draw(st.integers(1, 9))) for _ in range(s))
        assert forward_step(pairs, x) == forward_step_closed_form(fracs, x)

    def test_engine_steps_hold_ints_and_pairs(self, k3, emb3):
        z = k3.gen()
        alpha = k3.vector([z * z + Q(1, 3) * z, z + Q(5, 7)])
        for algo in ALGORITHMS:
            rec = expand(alpha, algo, max_steps=4, embedding=emb3)
            assert rec.steps
            for step in rec.steps:
                for v in step._coeffs + step._shifts + step._gamma:
                    assert type(v) is int or (type(v) is tuple and len(v) == 2
                                              and all(type(x) is int for x in v) and v[1] > 0)


class TestExpand:
    def test_embedding_of_another_field_is_refused(self, k2, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(cfrac, "step_phi1", no_step)
        other = Embedding(validate_minpoly(3, [1, 3]))
        with pytest.raises(MixedField):
            expand(k2.vector([k2.gen()]), "phi1", embedding=other)

    def test_embedding_of_an_equal_field_is_accepted(self, k2):
        twin = MinPoly.from_json(k2.to_json())
        assert twin is not k2 and twin == k2
        vec = k2.vector([k2.gen() + 4])
        assert expand(vec, "phi1", embedding=Embedding(twin)).to_json() == expand(vec, "phi1").to_json()

    def test_zero_input_finite_immediately(self, k2):
        rec = expand(k2.vector([k2.zero()]), "phi1")
        assert rec.status.kind == "finite" and rec.status.index == 0
        assert not rec.steps

    def test_height_exceeded(self, k2):
        rec = expand(k2.vector([k2.gen() + Q(1, 3)]), "phi0", eps=1, height_exponent=10)
        assert rec.status.kind == "height_exceeded"

    @pytest.mark.parametrize("h", [1, 5, 20, 200])
    def test_height_cap_is_inclusive(self, k2, h):
        # height |10^h - 1| + 1 = 10^h is at the cap, 10^h + 1 is past it
        for top, kind in ((10**h - 1, "step_limit"), (10**h, "height_exceeded")):
            rec = expand(k2.vector([k2.element([top, 1])]), "phi0", max_steps=0, height_exponent=h)
            assert (rec.status.kind, rec.status.index) == (kind, 0), (h, top)

    @pytest.mark.parametrize("h", [0, 1, 2, 5, 30])
    def test_plain_bound_past_the_cap_reads_the_reduced_height(self, k3, h):
        """The coefficient 3t/3 = t: the plain bound max |x| + den = 3t + 3
        passes 10^h at t = 10^h // 2 while the height t + 1 does not, so
        expand goes on; t = 10^h - 1 is at the cap and t = 10^h past it.
        At h = 0 every nonzero vector is past the cap.  Each outcome is
        the exact height_z rule."""
        z = k3.gen()
        for t in (10 ** h // 2, 10 ** h - 1, 10 ** h):
            a = k3.element([Q(1, 3), Q(t), Q(0)])
            assert (a.nums, a.den) == ((1, 3 * t, 0), 3)
            assert (3 * t + 3).bit_length() > 3 * h or h == 0
            rec = expand(k3.vector([a, z]), "phi1", max_steps=0, height_exponent=h)
            kind = "height_exceeded" if height_z(rec.initial) > 10 ** h else "step_limit"
            assert (rec.status.kind, rec.status.index) == (kind, 0)
            assert kind == ("height_exceeded" if h == 0 or t == 10 ** h else "step_limit")

    def test_step_limit(self, k2):
        rec = expand(k2.vector([k2.gen() + Q(1, 3)]), "phi0", eps=1, max_steps=3, height_exponent=60)
        assert rec.status.kind == "step_limit" and rec.status.index == 3

    def test_detect_cycles_off_runs_past_period(self, k2):
        rec = expand(k2.vector([k2.gen()]), "phi1", max_steps=9, detect_cycles=False)
        assert rec.status.kind == "step_limit"
        assert rec.remainders[1] == rec.remainders[3] == rec.remainders[5]

    def test_determinism(self, k3):
        z = k3.gen()
        alpha = k3.vector([z + 2 * z * z, z * z])
        a = expand(alpha, "phi1", eps=1)
        b = expand(alpha, "phi1", eps=1)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_remainders_in_E_and_independent(self, k3, emb3):
        z = k3.gen()
        rec = expand(k3.vector([z + z * z, z * z + 2]), "phi1", eps=1, embedding=emb3, max_steps=30)
        for r in rec.remainders[1:]:
            assert in_E(emb3, r)
        assert independent_with_one(rec.initial.components)
        for r in rec.remainders[:8]:
            if not r.is_zero():
                assert independent_with_one(r.components)

    def test_validation(self, k2, kq):
        with pytest.raises(ValueError):
            expand(k2.vector([k2.gen()]), "phi9")
        with pytest.raises(ValueError):
            expand(k2.vector([k2.gen()]), "phi0", eps=2)
        # counts are ints: a float would carry into the exact engine
        for kw in ({"height_exponent": 400.5}, {"max_steps": 2.5}, {"max_steps": True}, {"eps": 1.0}):
            with pytest.raises(ValueError):
                expand(k2.vector([k2.gen()]), "phi1", **kw)
        # the normalized maps need a generator; only the raw map runs on Q
        with pytest.raises(ValueError):
            expand(kq.vector([Q(2, 3)]), "phi1")

    @pytest.mark.parametrize("algo, kw", [("phi3", {"eps": -1}), ("phi0", {"g_variant": True}),
                                          ("phi1", {"g_variant": True}), ("phi2", {"g_variant": True}),
                                          ("phi1", {"lookahead": 2}), ("phi3", {"lookahead": -7}),
                                          ("phi1", {"max_steps": -1})])
    def test_parameters_the_algorithm_does_not_take(self, k3, algo, kw):
        # phi3 at eps = -1 runs the steps of eps = +1, phi1 at any lookahead
        # those of lookahead 1; g_variant only selects phi3's map
        z = k3.gen()
        with pytest.raises(ValueError):
            expand(k3.vector([z, z * z]), algo, **kw)


class TestConvergents:
    def test_finite_recovers_input(self, kq):
        rec = expand(kq.vector([Q(2, 3)]), "phi0", eps=1)
        assert convergent(rec, 2) == (Q(2, 3),)
        assert convergent(rec, 5) == (Q(2, 3),)  # stabilized past the horizon

    def test_zero_vector(self, kq):
        rec = expand(kq.vector([Q(0)]), "phi0")
        assert convergent(rec, 1) == (Q(0),)

    def test_rationality_and_convergence(self, k2, emb2):
        z = k2.gen()
        rec = expand(k2.vector([z + 2]), "phi1", detect_cycles=False, max_steps=25)
        prev = -(10**9)
        for n in (1, 4, 9, 16, 25):
            pi = convergent(rec, n)
            diff = rec.initial[0] - k2.rational(pi[0])
            val = emb2.ord(diff)
            assert val is ORD_INF or val >= 1
            if val is not ORD_INF:
                assert val >= prev - 2  # monotone growth up to identity steps
                prev = max(prev, val)
        assert prev >= 10  # genuinely converging

    def test_requires_recorded_steps(self, k2):
        rec = expand(k2.vector([k2.gen()]), "phi1")
        with pytest.raises(ValueError):
            convergent(rec, len(rec.steps) + 1)

    @pytest.mark.parametrize("n", [-1, True, 1.0])
    def test_horizon_is_an_int_at_least_zero(self, k2, n):
        """A bool or a float is refused, not read as the horizon 1."""
        rec = expand(k2.vector([k2.gen()]), "phi1")
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            convergent(rec, n)


# s -> (p, minpoly coefficients) of a field of degree s + 1
FIELDS = {1: (2, [1, 2]), 2: (2, [0, 1, 4]), 3: (2, [0, 0, 1, -20])}


def _records_over(s, algo, eps, rng, steps=12):
    """Two random records and one from (0, .., 0, z), whose zero components
    make identity steps, run past any cycle."""
    k = validate_minpoly(*FIELDS[s])
    emb = Embedding(k)
    vecs = [k.vector([k.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(s + 1)])
                      for _ in range(s)]) for _ in range(2)]
    vecs.append(k.vector([k.zero()] * (s - 1) + [k.gen()]))
    return [expand(v, algo, eps=eps, max_steps=steps, height_exponent=200, embedding=emb, detect_cycles=False)
            for v in vecs if not v.is_zero()]


def _fold_closed_form(rec, n):
    """0 pulled back through the first n steps by the closed-form inverse."""
    y = (Q(0),) * len(rec.initial.components)
    for step in reversed(rec.steps[:n]):
        y = inverse_step_closed_form(step, y)
    return y


class TestConvergentsAgainstClosedForm:
    @pytest.mark.parametrize("s", sorted(FIELDS))
    @pytest.mark.parametrize("algo, eps", [("phi0", 1), ("phi1", -1), ("phi2", 1), ("phi3", 1)])
    def test_every_horizon_equals_the_closed_form_fold(self, s, algo, eps, rng):
        recs = _records_over(s, algo, eps, rng)
        for rec in recs:
            for n in range(len(rec.steps) + 1):
                assert convergent(rec, n) == _fold_closed_form(rec, n), (s, algo, n)
        if s > 1:
            assert any(rec.identity_steps for rec in recs)
        assert max(len(rec.steps) for rec in recs) >= 3

    @pytest.mark.parametrize("s", sorted(FIELDS))
    def test_homogeneous_point_agrees_with_its_affine_form(self, s, rng):
        """inverse_step on a list (h_1, .., h_s, h_0) of ints returns a
        primitive integer point whose ratios h_i / h_0 are the image of the
        tuple (h_i / h_0)."""
        for rec in _records_over(s, "phi1", 1, rng, steps=6):
            for step in rec.steps:
                for _ in range(4):
                    point = [rng.randint(-50, 50) for _ in range(s)] + [rng.randint(1, 50)]
                    point = [h // math.gcd(*point) for h in point]
                    affine = tuple(Q(h, point[-1]) for h in point[:-1])
                    try:
                        want = inverse_step(step, affine)
                    except PoleHit:
                        with pytest.raises(PoleHit):
                            inverse_step(step, point)
                        continue
                    got = inverse_step(step, point)
                    assert type(got) is list and len(got) == s + 1
                    assert math.gcd(*got) == 1
                    assert tuple(Q(h, got[-1]) for h in got[:-1]) == want


class TestIntermediatePole:
    """A hand-built record over Q whose pull-back from 0 meets the inverse
    pole at step 1 of 3: step 2 maps 0 to 1, and step 1's inverse
    x = 1 / (y + w) has its pole at y = -w = 1.  Replay stops there with
    PoleHit although the composed projective map is defined at 0."""

    @staticmethod
    def record(kq):
        def step(w):
            return cfrac.CMapStep(2, 1, 1, False, (Q(1),), (0,), (Q(w),), RationalMatrix([[1]]), (Q(0),))

        steps = [step(2), step(-1), step(1)]
        return ExpansionRecord("phi0", 1, None, False, steps, [kq.vector([Q(0)])] * 4,
                               cfrac.Status("step_limit", 3))

    def test_replay_and_closed_form_stop_at_the_same_step(self, kq, monkeypatch):
        rec = self.record(kq)
        assert convergent(rec, 1) == _fold_closed_form(rec, 1) == (Q(1, 2),)
        assert convergent(rec, 2) == _fold_closed_form(rec, 2) == (Q(1),)
        calls = []
        real = cfrac.inverse_step

        def spy(step, y):
            calls.append(step)
            return real(step, y)

        monkeypatch.setattr(cfrac, "inverse_step", spy)
        with pytest.raises(PoleHit):
            convergent(rec, 3)
        assert len(calls) == 2 and calls[-1] is rec.steps[1]
        y = inverse_step_closed_form(rec.steps[2], (Q(0),))
        assert y == (Q(1),)
        with pytest.raises(ClosedFormPole):
            inverse_step_closed_form(rec.steps[1], y)

    def test_the_composed_map_is_defined_there(self, kq):
        rec = self.record(kq)
        point = (0, 1)
        for step in reversed(rec.steps):
            point = tuple(sum(a * b for a, b in zip(row, point)) for row in step.inverse_matrix)
        assert point[1] and point[0] == 0


class TestPeriodicity:
    """The paper's Lagrange-type periodicity in matrix form: on a periodic
    record, the product of the period's forward matrices fixes
    (alpha_pre, 1) projectively.  Cycle detection compares canonical
    remainders; this checks its verdicts by a different computation."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_period_product_fixes_the_preperiod_remainder(self, p):
        periodic = 0
        for mp in build_z_set(p, 3)[:3]:
            emb = Embedding(mp)
            for alpha in _suite_vectors(mp, 3, 4):
                for algo in ("phi1", "phi3"):
                    rec = expand(alpha, algo, max_steps=60, embedding=emb)
                    st = rec.status
                    if st.kind != "periodic":
                        continue
                    periodic += 1
                    prod = None
                    for step in rec.steps[st.preperiod:st.index]:
                        m = step.forward_matrix
                        prod = m if prod is None else tuple(
                            tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*prod)) for row in m)
                    v = list(rec.remainders[st.preperiod].components) + [mp.one()]
                    *h, last = [sum((c * x for c, x in zip(row, v) if c), mp.zero()) for row in prod]
                    assert not last.is_zero()
                    assert all(hi == vi * last for hi, vi in zip(h, v)), (algo, st)
        assert periodic >= 12


MEMO_SPECS = ([("phi0", eps, 1, False) for eps in (1, -1)] + [("phi1", eps, 1, False) for eps in (1, -1)]
              + [("phi2", eps, n, False) for n in (1, 2) for eps in (1, -1)]
              + [("phi3", 1, 1, g_variant) for g_variant in (False, True)])


def _memo_kw(eps, n, g_variant):
    return {"eps": eps, "lookahead": n, "g_variant": g_variant}


def _count_steps(monkeypatch):
    """A list that grows by one per call of step_phi0 .. step_phi3."""
    calls = []
    for name in ("step_phi0", "step_phi1", "step_phi2", "step_phi3"):
        def spy(*args, _name=name, _real=getattr(cfrac, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(cfrac, name, spy)
    return calls


def _small_quadratic_vectors():
    """A z-set quadratic and the vectors (a + b z), |a|, |b| <= 3: many of
    their phi0 orbits close on the same cycles (the lab suites' phi0 orbits
    do not close)."""
    mp = build_z_set(2, 2)[0]
    z = mp.gen()
    return mp, [mp.vector([a + b * z]) for a in range(-3, 4) for b in range(-3, 4)]


def _cycle_start(algo, eps, n, g_variant, vectors):
    """The first cycle remainder of the first periodic orbit among ``vectors``,
    expanded on its own embedding: a purely periodic vector."""
    for vec in vectors:
        rec = expand(vec, algo, max_steps=60, **_memo_kw(eps, n, g_variant))
        if rec.status.kind == "periodic":
            return rec.remainders[rec.status.preperiod]
    raise AssertionError("no periodic orbit")


def _memo_case(algo):
    """A field and vectors with periodic ``algo`` orbits."""
    if algo == "phi0":
        return _small_quadratic_vectors()
    mp = build_z_set(2, 3)[0]
    return mp, _suite_vectors(mp, 3, 8)


class TestCycleMemo:
    """Expansions given one embedding share their closed cycles through
    ``Embedding.cycles``: a step read from there is the step the map would
    compute, so every record is the one a fresh embedding writes."""

    @staticmethod
    def grid():
        yield _small_quadratic_vectors()
        for p, count in ((2, 2), (3, 1)):
            for mp in build_z_set(p, 3)[:count]:
                yield mp, _suite_vectors(mp, 3, 6)

    @pytest.mark.parametrize("algo, eps, n, g_variant", MEMO_SPECS)
    def test_shared_embedding_writes_the_records_of_fresh_ones(self, algo, eps, n, g_variant, monkeypatch):
        """Full expansions, then reruns of each periodic one cut by
        max_steps inside its stored cycle (with and without cycle
        detection) and under a height exponent below its cycle's heights,
        each on the shared embedding and on a fresh one."""
        kw = _memo_kw(eps, n, g_variant)
        hits = height_cuts = 0
        calls = _count_steps(monkeypatch)
        for mp, vectors in self.grid():
            emb = Embedding(mp)

            def both(vec, **more):
                nonlocal hits
                before = len(calls)
                shared = expand(vec, algo, embedding=emb, **kw, **more)
                hits += len(shared.steps) - (len(calls) - before)
                fresh = expand(vec, algo, embedding=Embedding(mp), **kw, **more)
                assert json.dumps(shared.to_json()) == json.dumps(fresh.to_json()), (vec, more)
                return shared

            for rec in [both(vec, max_steps=60) for vec in vectors]:
                st = rec.status
                if st.kind != "periodic":
                    continue
                mid = st.preperiod + (st.period + 1) // 2
                both(rec.initial, max_steps=mid)
                both(rec.initial, max_steps=st.index + mid, detect_cycles=False)
                h = cfrac._least_exponent(max(map(height_z, rec.remainders[st.preperiod:st.index])))
                if h:
                    low = both(rec.initial, max_steps=60, height_exponent=h - 1).status
                    height_cuts += low.kind == "height_exceeded" and low.index >= st.preperiod
        assert hits >= 20 and height_cuts >= 1

    @pytest.mark.parametrize("algo, eps, n, g_variant", MEMO_SPECS)
    def test_second_expansion_of_a_periodic_vector_runs_no_map(self, algo, eps, n, g_variant, monkeypatch):
        mp, vectors = _memo_case(algo)
        kw = _memo_kw(eps, n, g_variant)
        start = _cycle_start(algo, eps, n, g_variant, vectors)
        emb = Embedding(mp)
        first = expand(start, algo, embedding=emb, **kw)
        assert first.status.preperiod == 0 and len(emb.cycles[algo, eps, n, g_variant]) == first.status.period

        def no_map(*args):
            raise AssertionError("a fractional map ran")

        monkeypatch.setattr(cfrac, "g_map", no_map)
        monkeypatch.setattr(cfrac, "h_map", no_map)
        again = expand(start, algo, embedding=emb, **kw)
        assert again.to_json() == first.to_json()

    @pytest.mark.parametrize("stored, other", [
        (("phi0", 1, 1, False), ("phi0", -1, 1, False)),
        (("phi1", 1, 1, False), ("phi1", -1, 1, False)),
        (("phi2", 1, 1, False), ("phi2", 1, 2, False)),
        (("phi3", 1, 1, False), ("phi3", 1, 1, True)),
        (("phi1", 1, 1, False), ("phi2", 1, 1, False)),
        (("phi1", 1, 1, False), ("phi3", 1, 1, False)),
        (("phi0", 1, 1, False), ("phi1", 1, 1, False)),
    ])
    def test_keys_share_nothing(self, stored, other, monkeypatch):
        """An expansion that starts on a cycle stored under another key
        runs its map at every step."""
        mp, vectors = _memo_case(stored[0])
        start = _cycle_start(*stored, vectors)
        emb = Embedding(mp)
        expand(start, stored[0], embedding=emb, **_memo_kw(*stored[1:]))
        assert start in emb.cycles[stored]
        calls = _count_steps(monkeypatch)
        rec = expand(start, other[0], embedding=emb, max_steps=30, **_memo_kw(*other[1:]))
        assert len(rec.steps) >= 1 and len(calls) == len(rec.steps)

    def test_only_a_periodic_ending_stores_and_only_its_cycle(self):
        mp, _ = _small_quadratic_vectors()
        z = mp.gen()
        key = ("phi0", -1, 1, False)
        emb = Embedding(mp)
        finite = expand(mp.vector([mp.rational(3)]), "phi0", eps=-1, embedding=emb)
        assert finite.status.kind == "finite" and len(finite.steps) >= 2 and emb.cycles == {}
        periodic = expand(mp.vector([3 - z]), "phi0", eps=-1, max_steps=60)
        st = periodic.status
        assert st.kind == "periodic" and st.preperiod >= 2 and st.period >= 2
        for more in ({"max_steps": st.index + st.period, "detect_cycles": False},
                     {"height_exponent": 0}):
            rec = expand(periodic.initial, "phi0", eps=-1, embedding=emb, **more)
            assert rec.status.kind != "periodic" and emb.cycles == {}
        rec = expand(periodic.initial, "phi0", eps=-1, embedding=emb, max_steps=60)
        assert rec.to_json() == periodic.to_json()
        assert emb.cycles == {key: {rec.remainders[k]: (rec.steps[k], rec.remainders[k + 1])
                                    for k in range(st.preperiod, st.index)}}

    def test_a_cycle_past_the_budget_is_not_stored(self, monkeypatch):
        mp, vectors = _memo_case("phi3")
        key = ("phi3", 1, 1, False)
        recs = [expand(vec, "phi3", max_steps=60) for vec in vectors]
        cycles = {}
        for rec in recs:  # one orbit per distinct cycle
            cycles.setdefault(frozenset(rec.remainders[rec.status.preperiod:rec.status.index]), rec)
        first, second = list(cycles.values())[:2]
        p1, p2 = first.status.period, second.status.period
        monkeypatch.setattr(cfrac, "CYCLE_BUDGET", p1 - 1)
        emb = Embedding(mp)
        expand(first.initial, "phi3", embedding=emb)
        assert emb.cycles.get(key, {}) == {}
        monkeypatch.setattr(cfrac, "CYCLE_BUDGET", p1 + p2 - 1)
        expand(first.initial, "phi3", embedding=emb)
        expand(second.initial, "phi3", embedding=emb)
        assert set(emb.cycles[key]) == set(first.remainders[first.status.preperiod:first.status.index])
        monkeypatch.setattr(cfrac, "CYCLE_BUDGET", p1 + p2)
        rec = expand(second.initial, "phi3", embedding=emb)
        assert len(emb.cycles[key]) == p1 + p2 and rec.to_json() == second.to_json()


def _short(a, limit) -> bool:
    return a.den < limit and all(abs(x) < limit for x in a.nums)


def _key(a) -> tuple:
    """An element's key in ``Embedding.elements``: its canonical (nums, den)."""
    return a.nums, a.den


class TestElementMemo:
    """The fractional maps read each short element's (ord, digit), and a
    pivot's inverse and its rows, through ``Embedding.elements``: an entry
    is what the kernels compute, so every record is the one written
    without the memo."""

    SPECS = [("phi1", 1, 1, False), ("phi1", -1, 1, False), ("phi2", 1, 1, False), ("phi3", 1, 1, False),
             ("phi3", 1, 1, True)]

    @staticmethod
    def grid():
        """Two z-set cubics and one quartic per prime in {2, 3}, with suite
        vectors: periodic orbits of small elements and, under phi1 and
        phi2, tall ones."""
        for p in (2, 3):
            for degree, count in ((3, 2), (4, 1)):
                for mp in build_z_set(p, degree)[:count]:
                    yield mp, _suite_vectors(mp, degree, 4)

    @staticmethod
    def memo_free(monkeypatch, vec, algo, **kw):
        """The record of ``vec`` on a fresh embedding that admits no
        element to its memo."""
        with monkeypatch.context() as m:
            m.setattr(cfrac, "ELEMENT_LIMIT", 0)
            emb = Embedding(vec.minpoly)
            rec = expand(vec, algo, embedding=emb, **kw)
        assert emb.elements == {}
        return rec

    @pytest.mark.parametrize("algo, eps, n, g_variant", SPECS)
    def test_shared_embedding_writes_the_records_of_memo_free_ones(self, algo, eps, n, g_variant, monkeypatch):
        """Each vector's record on one embedding per field, shared by all
        its vectors, is the memo-free record; the shared memo stores
        entries and takes no more kernel inverses than the memo-free runs."""
        kw = {**_memo_kw(eps, n, g_variant), "max_steps": 40}
        inverses = {"shared": 0, "free": 0}
        side = "shared"
        real = cfrac._inverse_nums

        def counted(a):
            inverses[side] += 1
            return real(a)

        monkeypatch.setattr(cfrac, "_inverse_nums", counted)
        for mp, vectors in self.grid():
            emb = Embedding(mp)
            for vec in vectors:
                side = "shared"
                shared = expand(vec, algo, embedding=emb, **kw)
                side = "free"
                fresh = self.memo_free(monkeypatch, vec, algo, **kw)
                assert json.dumps(shared.to_json()) == json.dumps(fresh.to_json()), vec
            assert emb.elements
        assert 0 < inverses["shared"] <= inverses["free"]

    def test_hits_skip_the_kernels(self, monkeypatch):
        """A second expansion of a vector on the same embedding takes no
        inverse and no valuation for the short elements the first met."""
        mp = build_z_set(2, 4)[0]
        vec = _suite_vectors(mp, 4, 1)[0]
        emb = Embedding(mp)
        first = expand(vec, "phi3", embedding=emb, max_steps=12, detect_cycles=False)
        short_pivots = {rem.components[-1] for rem in first.remainders[:-1]
                        if _short(rem.components[-1], cfrac.ELEMENT_LIMIT)}
        assert short_pivots
        calls = []
        real_inv, real_od = cfrac._inverse_nums, Embedding.ord_digit
        monkeypatch.setattr(cfrac, "_inverse_nums", lambda a: calls.append(a) or real_inv(a))
        monkeypatch.setattr(Embedding, "ord_digit", lambda self, a: calls.append(a) or real_od(self, a))
        again = expand(vec, "phi3", embedding=emb, max_steps=12, detect_cycles=False)
        assert again.to_json() == first.to_json()
        assert not any(_short(a, cfrac.ELEMENT_LIMIT) for a in calls)

    @pytest.mark.parametrize("budget", [0, 1, 7])
    def test_the_memo_never_holds_more_than_its_budget(self, budget, monkeypatch):
        monkeypatch.setattr(cfrac, "ELEMENT_BUDGET", budget)
        mp, vectors = next(self.grid())
        emb = Embedding(mp)
        for vec in vectors:
            for algo in ("phi1", "phi3"):
                rec = expand(vec, algo, embedding=emb, max_steps=40)
                assert len(emb.elements) <= budget
                assert rec.to_json() == self.memo_free(monkeypatch, vec, algo, max_steps=40).to_json()
        assert len(emb.elements) == budget

    @pytest.mark.parametrize("limit", [1 << 12, None])
    def test_tall_elements_are_never_stored(self, limit, monkeypatch):
        """phi1 over cubics at a cap of 10^300 meets remainders far above
        the limit (2^16, and 2^12 to make more elements tall); none of their
        components is stored, and the records stay the memo-free ones."""
        if limit is not None:
            monkeypatch.setattr(cfrac, "ELEMENT_LIMIT", limit)
        limit = cfrac.ELEMENT_LIMIT
        mp = build_z_set(2, 3)[0]
        emb = Embedding(mp)
        tall = 0
        for vec in _suite_vectors(mp, 3, 4):
            rec = expand(vec, "phi1", embedding=emb, max_steps=40, height_exponent=300)
            assert rec.to_json() == self.memo_free(monkeypatch, vec, "phi1", max_steps=40,
                                                   height_exponent=300).to_json()
            tall += sum(not _short(c, limit) for rem in rec.remainders[:-1] for c in rem.components)
        assert tall >= 10 and emb.elements
        assert all(_short(FieldElement(mp, nums, den), limit) for nums, den in emb.elements)

    def test_a_zero_divisor_pivot_raises_and_leaves_no_inverse(self, ring_cubic):
        """Over x^3 + x + 2 = (x + 1)(x^2 - x + 2), z + 1 is a zero divisor
        with a unit value at the embedded root, and z^2 - z + 2 one that
        vanishes there.  As a pivot each raises ZeroDivisionError, first
        met or repeated, and no entry holds an inverse for it; z + 1, first
        met as another component, keeps the (ord, digit) entry it had."""
        z = ring_cubic.gen()
        emb = Embedding(ring_cubic)
        for bad in (z + 1, z * z - z + 2):
            for _ in range(2):
                with pytest.raises(ZeroDivisionError):
                    g_map(emb, ring_cubic.vector([bad, z]), 1, 1)
                assert _key(bad) not in emb.elements
        h_map(emb, ring_cubic.vector([z, z + 1]), 1, 1)
        entry = emb.elements[_key(z + 1)]
        assert entry == [emb.ord_digit(z + 1), None, None]
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                h_map(emb, ring_cubic.vector([z, z + 1]), 1, 2)
            assert emb.elements[_key(z + 1)] is entry and entry == [emb.ord_digit(z + 1), None, None]

    def test_stored_entries_are_the_kernels_and_never_change(self):
        """Every entry equals a fresh computation of (ord, digit), inverse
        and rows, and a later expansion on the same embedding leaves what
        was stored as it was (it may only fill an empty slot)."""
        mp = build_z_set(3, 4)[0]
        emb = Embedding(mp)
        vectors = _suite_vectors(mp, 4, 6)
        for vec in vectors[:3]:
            expand(vec, "phi3", embedding=emb, max_steps=40)
        snapshot = {key: copy.deepcopy(entry) for key, entry in emb.elements.items()}
        assert any(entry[2] is not None for entry in snapshot.values())
        for vec in vectors[3:]:
            for algo in ("phi3", "phi2", "phi1"):
                expand(vec, algo, embedding=emb, max_steps=40)
        assert len(emb.elements) > len(snapshot)
        fresh = Embedding(mp)
        for (nums, den), entry in emb.elements.items():
            a = FieldElement(mp, nums, den)
            od, inv, rows = entry
            assert type(od) is tuple and od == fresh.ord_digit(a)
            assert inv is None or (type(inv) is tuple and inv == cfrac._inverse_nums(a))
            assert rows is None or rows == polys.multiplication_rows(mp._int_f, inv[0])
            if (nums, den) in snapshot:
                for now, then in zip(entry, snapshot[nums, den]):
                    assert then is None or now == then


class TestContraction:
    def test_inverse_contracts_on_E(self, k3, emb3, rng):
        z = k3.gen()
        sources = [k3.vector([z, z * z]), k3.vector([z + z * z, z * z + 2])]
        for alpha in sources:
            for algo in ("phi1", "phi3"):
                rec = expand(alpha, algo, eps=1, embedding=emb3, max_steps=6)
                for k, step in enumerate(rec.steps):
                    j = min(emb3.ord(c) for c in rec.remainders[k].components)
                    if j is ORD_INF or step.identity:
                        continue
                    x = tuple(rand_in_pzp(rng, 2) for _ in range(2))
                    y = tuple(rand_in_pzp(rng, 2) for _ in range(2))
                    try:
                        tx = inverse_step(step, x)
                        ty = inverse_step(step, y)
                    except PoleHit:
                        continue
                    d_in = min(ordp(a - b, 2) for a, b in zip(x, y) if a != b)
                    diffs = [ordp(a - b, 2) for a, b in zip(tx, ty) if a != b]
                    if not diffs:
                        continue
                    assert min(diffs) >= d_in + j


class TestSchneider:
    def test_matches_reference_recurrence(self, kq, rng):
        for _ in range(12):
            xi = rand_in_pzp(rng, 2)
            digits, exps, rems = schneider_orbit(Q(xi), 2, 30)
            rec = expand(kq.vector([xi]), "phi0", eps=1, max_steps=30, detect_cycles=False)
            got_digits = [int(s.shifts[0]) for s in rec.steps[: len(digits)]]
            got_exps = [s.exps[0] for s in rec.steps[: len(exps)]]
            assert got_digits == digits
            assert got_exps == exps
            got_rems = [r[0].rational_value() for r in rec.remainders[: len(rems)]]
            assert [Q(r.numerator, r.denominator) for r in rems] == got_rems


class TestIdentitySteps:
    def test_identity_steps_counts_identity_steps(self, k2, emb2):
        rec = expand(k2.vector([k2.gen()]), "phi1")
        identity, proper = step_phi1(emb2, k2.vector([k2.zero()]), 1)[0], rec.steps[0]
        assert identity.identity and not proper.identity
        rec.steps = [identity] * 5 + [proper] * 3
        assert rec.identity_steps == 5


def _json_fields(data):
    """The scalar-holding parts of a record's JSON: the record itself, its
    status, its minimal polynomial and its first step."""
    return {"record": data, "status": data["status"], "minpoly": data["minpoly"], "step": data["steps"][0]}


# malformed cases that replace one field of a 2-step periodic phi1 record over
# x^2 + x + 2, p = 2: (part, key, value), or a list of them
REPLACED = {
    "string identity": ("step", "identity", "no"),
    "string pivot": ("step", "pivot", "1"),
    "pivot past s": ("step", "pivot", 2),
    "step of another prime": ("step", "p", 3),
    "string index": ("status", "index", "x"),
    "index past the steps": ("status", "index", 40),
    "string preperiod": ("status", "preperiod", "0"),
    "period past the index": ("status", "period", 3),
    "cycle on a finite status": ("status", "kind", "finite"),
    "string lookahead": ("record", "lookahead", "y"),
    "lookahead off phi2": ("record", "lookahead", 1),
    "string g_variant": ("record", "g_variant", "yes"),
    "float minpoly p": ("minpoly", "p", 2.0),
    "identity_steps disagree": ("record", "identity_steps", 9),
    "bool identity_steps": ("record", "identity_steps", False),
    "initial disagrees": ("record", "initial", [{"coeffs": ["0", "-1"]}]),
    "g_variant off phi3": ("record", "g_variant", True),
    # at s = 1 the phi1 record is the phi2 record of lookahead 1 but for its algorithm
    "phi2 lookahead 0": [("record", "algorithm", "phi2"), ("record", "lookahead", 0)],
    "eps the steps did not use": ("record", "eps", -1),
    "step eps against its coefficients": ("step", "eps", -1),
    # the certificate of x^2 + x + 2 at p = 2 is 3
    "string certificate_prime": ("minpoly", "certificate_prime", "bogus"),
    "composite certificate_prime": ("minpoly", "certificate_prime", 4),
    "another prime as certificate_prime": ("minpoly", "certificate_prime", 7),
    "fractional certificate_prime": ("minpoly", "certificate_prime", 2.5),
    "float certificate_prime": ("minpoly", "certificate_prime", 3.0),
    "bool certificate_prime": ("minpoly", "certificate_prime", True),
}

# algorithm parameters: ints around the legal values and past phi2's
# lookahead budget at s = 2, bools, floats, null and short strings
PARAMS = st.one_of(st.integers(-2, 13), st.booleans(), st.sampled_from([1.0, -1.0, 2.0, 0.5]), st.none(),
                   st.sampled_from(["1", "x", ""]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 45), st.floats(allow_nan=False),
                         st.text(max_size=4), st.sampled_from(["1", "phi2", "finite", "periodic"]))


@pytest.fixture(scope="module")
def record_blobs(k2, k3, kq):
    """JSON texts of valid records: periodic phi1, phi2 at lookahead 1,
    g-variant phi3 and finite phi0 over Q."""
    z2, z3 = k2.gen(), k3.gen()
    recs = [
        expand(k2.vector([z2]), "phi1"),
        expand(k3.vector([z3, z3 * z3]), "phi2", max_steps=3),
        expand(k3.vector([z3 * z3 + z3, z3]), "phi3", g_variant=True, max_steps=3),
        expand(kq.vector([Q(2, 3)]), "phi0"),
    ]
    return [json.dumps(r.to_json()) for r in recs]


class TestRecordJson:
    def test_round_trip(self, k3):
        z = k3.gen()
        rec = expand(k3.vector([z, z * z]), "phi1", eps=-1)
        blob = json.dumps(rec.to_json(), sort_keys=True)
        rec2 = ExpansionRecord.from_json(json.loads(blob))
        assert json.dumps(rec2.to_json(), sort_keys=True) == blob
        assert rec2.remainders == rec.remainders
        assert rec2.status == rec.status

    @pytest.mark.parametrize("p, q", [(2, Q(2, 3)), (3, Q(5, 7)), (5, Q(-12, 25))])
    def test_rational_field_round_trip(self, p, q):
        rec = expand(MinPoly.rationals(p).vector([q]), "phi0", eps=1)
        rec2 = ExpansionRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert rec2.initial.minpoly == MinPoly.rationals(p)
        assert expand(rec2.initial, "phi0", eps=1).to_json() == rec.to_json()

    def test_format_field(self, k2):
        rec = expand(k2.vector([k2.gen()]), "phi1")
        assert rec.to_json()["format"] == 1

    @pytest.mark.parametrize("case", ["missing key", "steps not a list", "remainders not a list",
                                      "step without matrix", "int coefficient", "int matrix entry",
                                      "string shifts", "string exps", "string minpoly coeffs",
                                      "string element coeffs", "bad eps", "unknown algorithm",
                                      "unknown kind", "remainder missing", "short remainder",
                                      "remainder not an image", "finite at a nonzero remainder",
                                      "cycle to another remainder", "unreduced rational",
                                      "unreduced matrix entry", "extra key", "singular step matrix",
                                      "eps on phi3", "identity step past zero", "cycle relabelled",
                                      *REPLACED])
    def test_malformed_record_is_typed_error(self, k2, kq, case):
        data = expand(k2.vector([k2.gen()]), "phi1").to_json()
        assert data["minpoly"]["certificate_prime"] == 3
        step = data["steps"][0]
        if case == "missing key":
            data = {"format": 1}
        elif case == "steps not a list":
            data["steps"] = ""
        elif case == "remainders not a list":
            data["remainders"] = {}
        elif case == "step without matrix":
            del step["matrix"]
        elif case == "int coefficient":
            data["initial"][0]["coeffs"][0] = 0
        elif case == "int matrix entry":
            step["matrix"][0][0] = 1
        elif case == "string shifts":
            step["shifts"] = "11"
        elif case == "string exps":
            step["exps"] = "ab"
        elif case == "string minpoly coeffs":
            data["minpoly"]["coeffs"] = "".join(data["minpoly"]["coeffs"])
        elif case == "string element coeffs":
            data["initial"][0]["coeffs"] = "".join(data["initial"][0]["coeffs"])
        elif case == "bad eps":
            data["eps"] = "x"
        elif case == "unknown algorithm":
            data["algorithm"] = "nope"
        elif case == "unknown kind":
            data["status"]["kind"] = "bogus"
        elif case == "remainder missing":
            data["remainders"].pop()
        elif case == "short remainder":  # loads as ["7", "0"], which it is not
            data["remainders"][1] = [{"coeffs": ["7"]}]
        elif case == "remainder not an image":
            data["remainders"][1] = [{"coeffs": ["7", "0"]}]
        elif case == "finite at a nonzero remainder":
            data["status"] = {"kind": "finite", "index": 2}
        elif case == "cycle to another remainder":
            # remainders z, -z, z: a cycle from index 1 would need -z again
            data["status"].update(preperiod=1, period=1)
        elif case == "unreduced rational":  # loads as "-1"
            data["remainders"][1][0]["coeffs"][1] = "-2/2"
        elif case == "unreduced matrix entry":
            step["matrix"][0][0] = "2/2"
        elif case == "extra key":
            step["note"] = "x"
        elif case == "singular step matrix":
            # x -> 0 x + 6 maps 2/7 to its phi0 image 6, but has no inverse
            data = expand(MinPoly.rationals(2).vector([Q(2, 7)]), "phi0", max_steps=1).to_json()
            assert data["remainders"][1] == [{"coeffs": ["6"]}]
            data["steps"][0].update(matrix=[["0"]], gamma=["6"])
        elif case == "eps on phi3":
            data = expand(k2.vector([k2.gen()]), "phi3").to_json()
            data["eps"] = -1
        elif case == "identity step past zero":
            # 2/3 over Q reaches 0 at index 2; an identity step maps 0 to itself
            data = expand(kq.vector([Q(2, 3)]), "phi0").to_json()
            assert data["status"] == {"kind": "finite", "index": 2}
            data["steps"].append(step_phi0(Embedding(kq), kq.vector([0]), 1)[0].to_json())
            data["remainders"].append(data["remainders"][-1])
            data.update(status={"kind": "finite", "index": 3}, identity_steps=1)
        elif case == "cycle relabelled":
            # remainders z, -z, z, -z: the cycle that returns at index 3 to
            # index 1 is not the first one, which expand reports at index 2
            data = expand(k2.vector([k2.gen()]), "phi1", max_steps=3, detect_cycles=False).to_json()
            data["status"] = {"kind": "periodic", "index": 3, "preperiod": 1, "period": 2}
        else:
            changes = REPLACED[case]
            for part, key, value in changes if isinstance(changes, list) else [changes]:
                _json_fields(data)[part][key] = value
        with pytest.raises(RecordFormatError, match="malformed"):
            ExpansionRecord.from_json(data)

    def test_phi1_record_loads_as_phi2_at_one_component(self, k2):
        data = expand(k2.vector([k2.gen()]), "phi1").to_json()
        data.update(algorithm="phi2", lookahead=1)
        assert ExpansionRecord.from_json(data).to_json() == data

    @settings(max_examples=150, deadline=None)
    @given(algorithm=st.sampled_from([*ALGORITHMS, "phi9", None, 0]), eps=PARAMS, lookahead=PARAMS,
           g_variant=PARAMS)
    def test_expand_records_and_configs_agree_on_parameters(self, k3, algorithm, eps, lookahead, g_variant):
        """expand refuses a parameter or returns a record that loads again,
        and a table config entry is accepted exactly when expand accepts the
        same values (a config carries eps and lookahead where the algorithm
        takes them, and a null there reads as absent)."""
        z = k3.gen()
        vec = k3.vector([z, z * z])  # s = 2, as in a degree-3 config

        def expanded(**kw):
            try:
                return expand(vec, algorithm, max_steps=2, **kw)
            except (ValueError, CapExceeded):
                return None

        rec = expanded(eps=eps, lookahead=lookahead, g_variant=g_variant)
        if rec is not None:
            blob = json.loads(json.dumps(rec.to_json()))
            assert ExpansionRecord.from_json(blob).to_json() == blob
        taken = {key: value for key, value in (("eps", eps), ("lookahead", lookahead))
                 if key in TAKES.get(algorithm, ()) and value is not None}
        try:
            RunConfig.from_json({"primes": [2], "degree": 3, "algorithms": [{"algo": algorithm, **taken}]})
        except ConfigError:
            assert expanded(**taken) is None
        else:
            assert expanded(**taken) is not None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_replaced_scalar_loads_as_given_or_is_typed_error(self, record_blobs, data):
        blob = json.loads(data.draw(st.sampled_from(record_blobs)))
        part = _json_fields(blob)[data.draw(st.sampled_from(["record", "status", "minpoly", "step"]))]
        part[data.draw(st.sampled_from(sorted(part)))] = data.draw(JSON_SCALARS)
        try:
            rec = ExpansionRecord.from_json(blob)
        except RecordFormatError:
            return
        assert json.dumps(rec.to_json(), sort_keys=True) == json.dumps(blob, sort_keys=True)

    @pytest.mark.parametrize("p", [2, 3])
    def test_expanded_records_load_as_themselves(self, p):
        """Records of every algorithm and status kind load and serialize
        back to the bytes they were loaded from: among them height-exceeded
        records at index 0, step-limit records past a cycle and phi2 at
        lookahead 2."""
        kinds, cycles = set(), 0
        for mp in build_z_set(p, 3)[:2]:
            emb = Embedding(mp)
            for alpha in _suite_vectors(mp, 3, 3):
                for algo, kw in [("phi0", {"height_exponent": 4}), ("phi0", {"max_steps": 2}),
                                 ("phi0", {"height_exponent": 0}), ("phi1", {"eps": -1}),
                                 ("phi1", {"detect_cycles": False}), ("phi2", {"lookahead": 1}),
                                 ("phi2", {"lookahead": 2}), ("phi3", {}), ("phi3", {"g_variant": True})]:
                    rec = expand(alpha, algo, embedding=emb, **{"max_steps": 12, **kw})
                    kinds.add((rec.status.kind, rec.status.index))
                    cycles += len(set(rec.remainders)) < len(rec.remainders) and rec.status.kind == "step_limit"
                    blob = json.dumps(rec.to_json())
                    assert json.dumps(ExpansionRecord.from_json(json.loads(blob)).to_json()) == blob
        assert {"periodic", "height_exceeded", "step_limit"} <= {kind for kind, _ in kinds}
        assert ("height_exceeded", 0) in kinds and cycles

    def test_zero_constant_term_is_typed_error(self, k2):
        """x^2 + x has the root 0: neither its record nor a stepless one loads."""
        data = expand(k2.vector([k2.gen()]), "phi1").to_json()
        data["minpoly"].update(coeffs=["1", "0"], certificate_prime=None)
        with pytest.raises(RecordFormatError) as info:
            ExpansionRecord.from_json(data)
        assert isinstance(info.value.__cause__, Reducible)
        data.update(steps=[], remainders=data["remainders"][:1], identity_steps=0,
                    status={"kind": "step_limit", "index": 0})
        with pytest.raises(RecordFormatError) as info:
            ExpansionRecord.from_json(data)
        assert isinstance(info.value.__cause__, Reducible)

    def test_reducible_minpoly_without_certificate_is_typed_error(self):
        """A null certificate does not skip certification: a record over
        the admissible but reducible x^2 + 3x + 2 = (x + 1)(x + 2) at p = 2
        is refused at its polynomial."""
        mp = MinPoly(2, [3, 2])
        data = expand(mp.vector([mp.gen()]), "phi1", max_steps=3).to_json()
        assert data["minpoly"]["certificate_prime"] is None
        with pytest.raises(RecordFormatError) as info:
            ExpansionRecord.from_json(data)
        assert isinstance(info.value.__cause__, Reducible)

    def test_rational_sentinel_with_certificate_is_typed_error(self):
        """The sentinel x is not certified: its certificate is null."""
        data = expand(MinPoly.rationals(2).vector([Q(2, 3)]), "phi0").to_json()
        data["minpoly"]["certificate_prime"] = 3
        with pytest.raises(RecordFormatError, match="certificate_prime"):
            ExpansionRecord.from_json(data)

    @pytest.mark.parametrize("forged", [10**12, -10**12, "identity"])
    def test_forged_exponent_or_identity_is_refused_before_the_step_matrix(self, k3_p3, monkeypatch, forged):
        """A forged identity flag or exponent is refused without building
        the step matrix, which holds p^e: a huge exponent costs no work."""
        z = k3_p3.gen()
        data = expand(k3_p3.vector([z, z * z]), "phi1", max_steps=3).to_json()
        assert len(data["steps"]) == 3 and data["identity_steps"] == 0
        step = data["steps"][0]
        if forged == "identity":
            step["identity"] = True
            data["identity_steps"] = 1
        else:
            step["exps"][0] = forged

        def no_matrix(self):
            raise AssertionError("the step matrix was built")

        monkeypatch.setattr(cfrac.CMapStep, "forward_matrix", property(no_matrix))
        with pytest.raises(RecordFormatError, match="expand writes another record"):
            ExpansionRecord.from_json(data)

    def test_load_work_is_bounded_by_the_record(self, k3_p3, monkeypatch):
        """A forged record of 3005 steps, its last step and remainder
        repeated, is refused after a few steps: its true orbit's heights
        grow past the largest height the record holds."""
        mp = k3_p3
        vec = mp.vector([mp.element([1, 2]), mp.element([Q(-1, 2), 0, 1])])
        data = expand(vec, "phi0", eps=-1, max_steps=5).to_json()
        data["steps"] += [data["steps"][-1]] * 3000
        data["remainders"] += [data["remainders"][-1]] * 3000
        data["status"]["index"] = 3005
        data["identity_steps"] = sum(step["identity"] for step in data["steps"])
        calls = []

        def spy(*args):
            calls.append(args)
            return step_phi0(*args)

        monkeypatch.setattr(cfrac, "step_phi0", spy)
        with pytest.raises(RecordFormatError, match="malformed"):
            ExpansionRecord.from_json(data)
        assert 5 < len(calls) < 20

    @pytest.mark.parametrize("coeffs, clause", [([0, 1, 4], "divisible-constant"), ([0, 3, 3], "unit-subleading"),
                                                ([0, Q(1, 3), 3], "integrality"), ([3], "degree")])
    def test_inadmissible_minpoly_is_typed_error(self, coeffs, clause):
        """A polynomial other than the rational sentinel x that fails an
        admissibility clause does not load, nor does a stepless record over
        it, and expand refuses it before its first step: without the
        clauses Hensel's lemma pins no root in pZ_p."""
        mp = MinPoly(3, coeffs)
        with pytest.raises(HViolation) as info:
            MinPoly.from_json(mp.to_json())
        assert info.value.clause == clause
        vec = mp.vector([mp.one()] * mp.s)
        with pytest.raises(HViolation):
            expand(vec, "phi0", max_steps=0)
        data = {"format": 1, "algorithm": "phi0", "eps": 1, "lookahead": None, "g_variant": False,
                "minpoly": mp.to_json(), "initial": vec.to_json(), "steps": [], "remainders": [vec.to_json()],
                "status": {"kind": "step_limit", "index": 0}, "identity_steps": 0}
        with pytest.raises(RecordFormatError, match="malformed") as info:
            ExpansionRecord.from_json(data)
        assert isinstance(info.value.__cause__, HViolation)

    def test_minpoly_above_max_degree_is_typed_error(self, monkeypatch):
        """A record over a degree above MAX_DEGREE is refused before its
        polynomial is certified; one at MAX_DEGREE loads."""
        mp = validate_minpoly(2, [0] * (MAX_DEGREE - 2) + [1, 2])
        data = expand(mp.vector([mp.one()]), "phi0", max_steps=0).to_json()
        assert ExpansionRecord.from_json(data).initial.minpoly == mp

        def no_certificate(*args):
            raise AssertionError("certification ran")

        monkeypatch.setattr(polys, "certify", no_certificate)
        monkeypatch.setattr(polys, "certificate_prime", no_certificate)
        data["minpoly"] = {"p": 2, "coeffs": ["0"] * (MAX_DEGREE - 1) + ["1", "2"], "certificate_prime": 19}
        with pytest.raises(RecordFormatError, match="MAX_DEGREE") as info:
            ExpansionRecord.from_json(data)
        assert isinstance(info.value.__cause__, CapExceeded)

    @pytest.mark.parametrize("data", [{"format": 2}, {"format": 2, "minpoly": {}}, {}, []])
    def test_unknown_format_is_typed_error(self, data):
        with pytest.raises(RecordFormatError, match="format") as info:
            ExpansionRecord.from_json(data)
        assert isinstance(info.value, PadiccfError) and isinstance(info.value, ValueError)
        if data:
            assert "2" in str(info.value)
