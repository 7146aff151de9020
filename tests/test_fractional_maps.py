"""Differential tests of the integer fractional maps and digits.

``g_map``, ``h_map`` and ``Embedding.omega`` run on integer numerators;
the references in ``tests/oracles.py`` run the same maps on ``Fraction``
scalars with digits read off the embedded root.  Steps and images must
agree exactly on both signs of eps, zero components, zero pivots and
pivots of valuation at most 0 (negative p-power exponents).
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiccf.cfrac import g_map, h_map, in_E
from padiccf.field import MinPoly, VectorElement, validate_minpoly
from padiccf.hensel import Embedding
from padiccf.rationals import Q
from oracles import g_map_by_fractions, h_map_by_fractions, head_by_root, omega_by_root

# (p, minimal polynomial coefficients); None is the degree-1 sentinel K = Q
FIELDS = [(2, None), (3, None), (2, (1, 2)), (3, (1, 3)), (2, (0, 1, 4)), (2, (1, 1, 4)),
          (3, (0, 1, 3)), (2, (1, 0, 1, 2))]


@functools.lru_cache(maxsize=None)
def field(p, coeffs):
    mp = MinPoly.rationals(p) if coeffs is None else validate_minpoly(p, list(coeffs))
    return mp, Embedding(mp)


@st.composite
def elements(draw, mp):
    """A nonzero element whose coefficient denominators mix powers of p
    (up to p^3) with small units."""
    p = mp.p
    units = st.sampled_from([u for u in range(1, 10) if u % p])
    dens = st.builds(lambda k, u: p ** k * u, st.integers(0, 3), units)
    nums = st.integers(-30, 30)
    return draw(st.lists(st.builds(Q, nums, dens), min_size=mp.degree, max_size=mp.degree)
                .map(mp.element).filter(bool))


@st.composite
def anchors(draw, kind):
    """(emb, alpha, eps, j) with the pivot component j of ``kind``: "any"
    nonzero, "zero" (the identity step) or "ord<=0" (scaled to valuation
    0 to -3); "zero-other" zeroes a non-pivot component."""
    fields = [f for f in FIELDS if kind != "zero-other" or (f[1] is not None and len(f[1]) > 2)]
    mp, emb = field(*draw(st.sampled_from(fields)))
    s = max(mp.degree - 1, 1)
    comps = [draw(elements(mp)) for _ in range(s)]
    j = draw(st.integers(1, s))
    if kind == "zero":
        comps[j - 1] = mp.zero()
    elif kind == "zero-other":
        comps[draw(st.sampled_from([i for i in range(s) if i != j - 1]))] = mp.zero()
    elif kind == "ord<=0":
        aj = comps[j - 1]
        comps[j - 1] = aj * Fraction(mp.p) ** -(emb.ord(aj) + draw(st.integers(0, 3)))
    return emb, VectorElement(comps), draw(st.sampled_from([1, -1])), j


KINDS = ["any", "zero", "zero-other", "ord<=0"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_g_map_equals_fraction_map(kind, data):
    emb, alpha, eps, j = data.draw(anchors(kind))
    step, image = g_map(emb, alpha, eps, j)
    assert (step, image) == g_map_by_fractions(emb, alpha, eps, j)
    assert step.identity == (kind == "zero")
    if kind == "zero":
        assert image == alpha
    else:
        assert in_E(emb, image)
    if kind == "ord<=0":
        assert step.exps[j - 1] == emb.ord(alpha[j - 1]) <= 0


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_h_map_equals_fraction_map(kind, data):
    emb, alpha, eps, j = data.draw(anchors(kind))
    step, image = h_map(emb, alpha, eps, j)
    assert (step, image) == h_map_by_fractions(emb, alpha, eps, j)
    if kind != "zero":
        assert in_E(emb, image)
        assert all(c.numerator in (1, -1) and c * eps > 0 for c in step.coeffs)


@st.composite
def any_elements(draw):
    """A field of FIELDS and an element of it, zero, rational or not."""
    mp, _ = field(*draw(st.sampled_from(FIELDS)))
    kind = draw(st.sampled_from(["zero", "rational", "any"]))
    if kind == "zero":
        return mp.zero()
    a = draw(elements(mp))
    return mp.rational(a.coeffs[0]) if kind == "rational" else a


@settings(max_examples=150, deadline=None)
@given(any_elements())
def test_omega_is_int_floor_of_head(a):
    emb = Embedding(a.minpoly)  # fresh: no residue lifted yet
    om = emb.omega(a)
    assert type(om) is int
    assert om == math.floor(head_by_root(a)) == omega_by_root(a)
    if a.is_rational():
        assert emb._precision == 0  # a rational element never lifts the root


def test_sentinel_digits_never_lift():
    kq = MinPoly.rationals(3)
    emb = Embedding(kq)
    a = kq.rational(Q(-7, 18))  # digits 1, 0, 1 at indices -2, -1, 0
    assert emb.omega(a) == 1 and emb.ord_digit(a) == (-2, 1)
    assert emb._precision == 0
