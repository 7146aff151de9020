"""The fused fractional-map kernel against the chain it replaced.

``g_map`` and ``h_map`` run one integer kernel
(``cfrac._fractional_map``), each finishing the components its own way:
a_j's inverse is taken once, each component is one multiplication-rows
product on it, and each digit is read off the valuation residues of
``Embedding.ord_digit``.  ``tests/oracles.py`` keeps the chain of
canonical operations the maps ran before (``FieldElement.inverse``,
``*``, ``field._scale``, ``Embedding.omega``, then h_map's normalize,
head and reduce); images, steps and step JSON must agree on every degree
from the rational sentinel to 6, so both inverse paths (cofactors
written out through 4 x 4, elimination from 5 x 5 on) run.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from padiccf import cfrac, field, hensel, preduce
from padiccf.cfrac import g_map, h_map
from padiccf.field import MinPoly, VectorElement, validate_minpoly
from padiccf.hensel import Embedding
from padiccf.preduce import RationalMatrix
from padiccf.rationals import ORD_INF, Q, ordp
from oracles import (digit_at, g_map_by_composition, g_map_by_fractions, h_map_by_composition, h_map_by_fractions,
                     omega_by_root)

# degree -> (p, minimal polynomial coefficients a1 .. an); None is the
# degree-1 sentinel K = Q.  Some polynomials have coefficient
# denominators prime to p, so the cleared form has D > 1.
FIELDS = {
    1: [(2, None), (3, None), (5, None), (7, None)],
    2: [(2, (1, 2)), (3, (1, 3)), (5, (1, 5)), (7, (1, 7))],
    3: [(2, (1, 1, 2)), (3, (0, 1, 3)), (5, (0, 1, 5)), (7, (0, 1, 7))],
    4: [(2, (Q(1, 3), 0, 1, Q(2, 5))), (3, (0, Q(1, 2), 1, Q(3, 7))), (5, (Q(1, 2), Q(1, 3), 1, 5)),
        (7, (0, 0, 1, 7))],
    5: [(2, (0, 0, 1, 1, 2)), (3, (0, 0, 0, 1, 3)), (5, (0, 0, 0, 1, 5)), (7, (Q(2, 3), 0, 0, 1, Q(7, 2)))],
    6: [(2, (0, Q(1, 3), 0, 0, 1, Q(2, 3))), (3, (0, 0, 0, 0, 1, 3)), (5, (0, 0, 0, 0, 1, 5)),
        (7, (0, 0, 0, 0, 1, 7))],
}


@functools.lru_cache(maxsize=None)
def field_of(p, coeffs):
    return MinPoly.rationals(p) if coeffs is None else validate_minpoly(p, list(coeffs))


@st.composite
def elements(draw, mp):
    """A nonzero element whose coefficient denominators mix powers of p
    (up to p^4) with small units, numerators small or up to 2^200."""
    p = mp.p
    dens = st.builds(lambda k, u: p ** k * u, st.integers(0, 4), st.sampled_from([u for u in range(1, 13) if u % p]))
    nums = st.one_of(st.integers(-40, 40), st.integers(-2 ** 200, 2 ** 200))
    return draw(st.lists(st.builds(Q, nums, dens), min_size=mp.degree, max_size=mp.degree)
                .map(mp.element).filter(bool))


KINDS = ["any", "zero pivot", "zero other", "rational pivot", "negative pivot"]


@st.composite
def anchors(draw, degree, kind):
    """(emb, alpha, eps, j): a fresh embedding, an anchor over a field of
    ``degree`` and a pivot j of ``kind``: "any" nonzero, "zero pivot" (the
    identity step), "zero other" (a zero non-pivot component), "rational
    pivot" (a nonzero rational a_j) or "negative pivot" (a_j scaled to
    valuation -1 to -4)."""
    mp = field_of(*draw(st.sampled_from(FIELDS[degree])))
    emb = Embedding(mp)
    s = mp.s
    comps = [draw(elements(mp)) for _ in range(s)]
    j = draw(st.integers(1, s))
    if kind == "zero pivot":
        comps[j - 1] = mp.zero()
    elif kind == "zero other":
        comps[draw(st.sampled_from([i for i in range(s) if i != j - 1]))] = mp.zero()
    elif kind == "rational pivot":
        comps[j - 1] = mp.rational(draw(st.builds(Q, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)))
                                   * draw(st.sampled_from([1, -1])))
    elif kind == "negative pivot":
        aj = comps[j - 1]
        comps[j - 1] = aj * Fraction(mp.p) ** -(emb.ord(aj) + draw(st.integers(1, 4)))
    return emb, VectorElement(comps), draw(st.sampled_from([1, -1])), j


def cases():
    for degree in FIELDS:
        for kind in KINDS:
            if kind == "zero other" and degree < 3:
                continue  # s = 1: the pivot is the only component
            if kind == "rational pivot" and degree == 1:
                continue  # every sentinel element is rational
            yield degree, kind


@pytest.mark.parametrize("degree,kind", list(cases()))
@settings(max_examples=12, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(data=st.data())
def test_fused_maps_equal_the_composition(degree, kind, data):
    emb, alpha, eps, j = data.draw(anchors(degree, kind))
    for fused, chain in ((g_map, g_map_by_composition), (h_map, h_map_by_composition)):
        step, image = fused(emb, alpha, eps, j)
        want_step, want_image = chain(Embedding(alpha.minpoly), alpha, eps, j)
        assert image == want_image
        assert step == want_step and step.to_json() == want_step.to_json()
        assert step.forward_matrix == want_step.forward_matrix
        assert step.identity == (kind == "zero pivot")
        if kind == "negative pivot":
            assert step.exps[j - 1] == emb.ord(alpha[j - 1]) < 0


def test_the_cases_reach_every_degree_prime_and_kind():
    got = set(cases())
    assert {d for d, _ in got} == set(range(1, 7)) and {k for _, k in got} == set(KINDS)
    assert all({p for p, _ in FIELDS[d]} == {2, 3, 5, 7} for d in FIELDS)


# --- the (ord, unit digit) pair from ord's one ladder ------------------------


@st.composite
def ladder_elements(draw):
    """(field, b): b = a - head(a, k) for a with a denominator divisible
    by p and k around and above the base precision, so b(z0) vanishes at
    the base precision and ``ord`` climbs its ladder; b may be zero."""
    degree = draw(st.integers(2, 6))
    mp = field_of(*draw(st.sampled_from(FIELDS[degree])))
    p = mp.p
    a = draw(elements(mp))
    a = a * Q(1, p ** draw(st.integers(1, 3)))  # den divisible by p
    base = Embedding(mp)._base_precision
    k = draw(st.integers(base - 2, 3 * base + 4))
    return mp, a - Embedding(mp).head(a, k)


@settings(max_examples=120, deadline=None)
@given(ladder_elements())
def test_ord_digit_is_ord_and_the_first_digit_of_the_unit_part(case):
    mp, b = case
    emb = Embedding(mp)
    o, u = emb.ord_digit(b)
    if b.is_zero():
        assert (o, u) == (ORD_INF, 0)
        return
    assert o == Embedding(mp).ord(b)
    unit = b * Fraction(mp.p) ** -o
    assert 1 <= u < mp.p
    assert u == Embedding(mp).omega(unit) == omega_by_root(unit)


def test_ord_digit_climbs_the_same_ladder_as_ord():
    mp = field_of(3, (0, 1, 3))
    z = mp.gen()
    a = z * Q(1, 9) + Q(5, 9)
    probe = Embedding(mp)
    b = a - probe.head(a, 4 * probe._base_precision)
    via_ord, via_digit = Embedding(mp), Embedding(mp)
    o = via_ord.ord(b)
    assert via_digit.ord_digit(b)[0] == o > 4 * probe._base_precision
    assert via_digit._precision == via_ord._precision > probe._base_precision


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ord_digit_on_rationals_never_lifts(p):
    mp = MinPoly.rationals(p)
    emb = Embedding(mp)
    for q in (Q(-7, 18), Q(p ** 3 * 5, 11), Q(3, p ** 2 * 4), Q(-1)):
        o = ordp(q, p)
        assert emb.ord_digit(mp.rational(q)) == (o, digit_at(q, p, o))
    assert emb._precision == 0


# --- the fusion itself --------------------------------------------------------


@pytest.mark.parametrize("degree,p,coeffs", [(3, 2, (1, 1, 2)), (5, 3, (0, 0, 0, 1, 3))])
@pytest.mark.parametrize("fmap", [g_map, h_map], ids=["g_map", "h_map"])
def test_one_map_runs_no_canonical_chain(monkeypatch, degree, p, coeffs, fmap):
    """One map call at degree 3 and at degree 5 takes no reduced inverse,
    product or scaling and no digit off the image, and reduces each image
    component at most once."""
    mp = field_of(p, coeffs)
    z = mp.gen()
    alpha = VectorElement([z ** i * Q(i + 2, p ** i * 5) + Q(i, 7) for i in range(1, mp.s + 1)])
    emb = Embedding(mp)
    for c in alpha.components:  # lift the root outside the spied call
        emb.ord(c)
    RationalMatrix.identity(mp.s)  # the steps' shared A, built once per size, outside the spied call
    calls = {"inverse": 0, "mul": 0, "scale": 0, "omega": 0, "canonical": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(field.FieldElement, "inverse", spy("inverse", field.FieldElement.inverse))
    monkeypatch.setattr(field.FieldElement, "__mul__", spy("mul", field.FieldElement.__mul__))
    monkeypatch.setattr(field.FieldElement, "__rmul__", spy("mul", field.FieldElement.__rmul__))
    monkeypatch.setattr(field, "_scale", spy("scale", field._scale))
    monkeypatch.setattr(hensel.Embedding, "omega", spy("omega", hensel.Embedding.omega))
    canonical = spy("canonical", preduce.canonical)
    for module in (preduce, field, cfrac, hensel):
        if hasattr(module, "canonical"):
            monkeypatch.setattr(module, "canonical", canonical)
    step, image = fmap(emb, alpha, 1, mp.s)
    assert not step.identity and len(image) == mp.s == degree - 1
    assert {k: v for k, v in calls.items() if k != "canonical"} == {"inverse": 0, "mul": 0, "scale": 0, "omega": 0}
    assert 1 <= calls["canonical"] <= mp.s


@pytest.mark.parametrize("degree,p,coeffs", [(3, 2, (1, 1, 2)), (5, 3, (0, 0, 0, 1, 3))])
@pytest.mark.parametrize("g_variant", [False, True], ids=["h", "g"])
def test_one_phi3_step_stays_on_integer_rows(monkeypatch, degree, p, coeffs, g_variant):
    """One phi3 step at degree 3 and at degree 5 makes no field element or
    vector of the map's image: the map's unreduced pairs go to
    ``reduce_rows`` as they are, and the only elements built are the next
    components, one ``_reduced`` each.  The step and next remainder equal
    a fresh embedding's, which ``TestPhi3AgainstFractionOracle`` checks
    against the ``Fraction`` oracle."""
    mp = field_of(p, coeffs)
    z = mp.gen()
    alpha = VectorElement([z ** i * Q(i + 2, p ** i * 5) + Q(i, 7) for i in range(1, mp.s + 1)])
    want_step, want_next = cfrac.step_phi3(Embedding(mp), alpha, g_variant=g_variant)
    emb = Embedding(mp)
    for c in alpha.components:  # lift the root outside the spied call
        emb.ord(c)
    calls = {"element": 0, "vector": 0, "reduced": 0}
    real_element, real_vector = field.FieldElement.__init__, field.VectorElement.__init__

    def element(self, *args):
        calls["element"] += 1
        real_element(self, *args)

    def vector(self, *args):
        calls["vector"] += 1
        real_vector(self, *args)

    def reduced(*args):
        calls["reduced"] += 1
        return field._reduced(*args)

    monkeypatch.setattr(field.FieldElement, "__init__", element)
    monkeypatch.setattr(field.VectorElement, "__init__", vector)
    monkeypatch.setattr(cfrac, "_reduced", reduced)
    step, nxt = cfrac.step_phi3(emb, alpha, g_variant=g_variant)
    monkeypatch.undo()
    assert not step.identity and len(nxt) == mp.s == degree - 1
    assert calls == {"element": mp.s, "vector": 1, "reduced": mp.s}
    assert step.to_json() == want_step.to_json() and nxt == want_next


# --- one component: the pivot alone -------------------------------------------

# degree -> (p, coefficients) of the s = 1 cases; degrees 3 and 4 put one
# component over a field of higher degree, so the pivot's inverse takes the
# cofactor route there and the written-out 2 x 2 one at degree 2
S1_FIELDS = {2: (3, (1, 3)), 3: (2, (1, 1, 2)), 4: (3, (0, Q(1, 2), 1, Q(3, 7)))}


def _s1_pivot(mp, valuation, tall):
    """p^valuation (1 + c z + z^(n-1)/7), a unit times p^valuation: c z lies
    in pZ_p.  c is (p + 1)^40, its numerators past ``cfrac.ELEMENT_LIMIT``,
    when ``tall``, and 5 otherwise."""
    p, z = mp.p, mp.gen()
    c = (p + 1) ** 40 if tall else 5
    unit = 1 + c * z + z ** (mp.degree - 1) * Q(1, 7)
    assert Embedding(mp).ord(unit) == 0
    return unit * Fraction(p) ** valuation


@pytest.mark.parametrize("degree", sorted(S1_FIELDS))
@pytest.mark.parametrize("valuation", [-2, 0, 3])
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("tall", [True, False], ids=["tall", "short"])
def test_one_component_maps_equal_the_fraction_maps(degree, valuation, eps, tall, monkeypatch):
    """At s = 1 both maps finish the pivot and end: step JSON and image
    equal the ``Fraction`` oracles' at pivot valuations below, at and
    above 0, for either eps (k = eps p^e is 1 at valuation 0 and eps 1).
    A short pivot met again is read from the element memo: the second call
    takes no inverse and gives the same step and image."""
    mp = field_of(*S1_FIELDS[degree])
    a = _s1_pivot(mp, valuation, tall)
    assert (max(map(abs, a.nums)) >= cfrac.ELEMENT_LIMIT) == tall
    alpha = VectorElement([a])
    for fused, oracle in ((g_map, g_map_by_fractions), (h_map, h_map_by_fractions)):
        emb = Embedding(mp)
        want_step, want_image = oracle(Embedding(mp), alpha, eps, 1)
        step, image = fused(emb, alpha, eps, 1)
        assert step.to_json() == want_step.to_json() and image == want_image
        assert not step.identity and step.exps == (valuation,)
        assert len(emb.elements) == (0 if tall else 1)
        if not tall:
            inverses = []
            monkeypatch.setattr(cfrac, "_inverse_nums", lambda x: inverses.append(x) or field._inverse_nums(x))
            again_step, again_image = fused(emb, alpha, eps, 1)
            monkeypatch.undo()
            assert inverses == [] and again_step.to_json() == want_step.to_json() and again_image == want_image


@pytest.mark.parametrize("degree", sorted(S1_FIELDS))
@pytest.mark.parametrize("fmap,oracle", [(g_map, g_map_by_fractions), (h_map, h_map_by_fractions)],
                         ids=["g_map", "h_map"])
def test_one_zero_component_is_the_identity_step(degree, fmap, oracle):
    mp = field_of(*S1_FIELDS[degree])
    alpha = VectorElement([mp.zero()])
    step, image = fmap(Embedding(mp), alpha, -1, 1)
    want_step, want_image = oracle(Embedding(mp), alpha, -1, 1)
    assert step.identity and image is alpha and image == want_image
    assert step.to_json() == want_step.to_json()


# --- the base rung kept from the first lift -----------------------------------


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_ord_digit_after_a_deep_lift_equals_a_fresh_embedding(degree):
    """A deep valuation lifts the root far past the base precision; a
    later base rung reads that deep residue modulo p^base, so ``ord_digit``
    of tall and short elements equals a fresh embedding's, and the lift
    stays."""
    mp = field_of(*FIELDS[degree][1])
    z, p = mp.gen(), mp.p
    probe = Embedding(mp)
    a = z * Q(1, 9) + Q(5, 11)
    deep = a - probe.head(a, 6 * probe._base_precision)
    emb = Embedding(mp)
    assert emb.ord(deep) > 6 * emb._base_precision
    lifted = emb._precision
    units = [1 + 5 * z, 1 + (p + 1) ** 60 * z + z ** (mp.degree - 1) * Q(3, 13)]
    for u in units:
        for x in (u, u * Fraction(p) ** 3, u * Q(1, p ** 2 * 7)):
            assert emb.ord_digit(x) == Embedding(mp).ord_digit(x)
    assert emb._precision == lifted > emb._base_precision
