"""Evaluation into carriers, the matrix bijection, tensor-leg tagging."""

import gc
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalgebra.algebras import (UnitFlavor, free_algebra, matrix_algebra, poly_algebra,
                                 q_poly_algebra, rational_algebra)
from homalgebra.congruence import (Bound, SaturationConfig, enumerate_terms,
                                   hom_associator, saturate)
from homalgebra.morphisms import (AssignmentError, MorphismAssignment,
                                  NamingError, UnitMismatchError, evaluate,
                                  matrix_of_morphism, morphism_from_matrix,
                                  rename_embed)
from homalgebra.poly import Poly
from homalgebra.terms import Leaf, LinComb, make_leaf, random_lincomb, rename, shift_term

T = Poly.var("t")


def assign(A, gens, rng) -> MorphismAssignment:
    """Seeded random images of ``gens`` in ``A``, drawn in sorted order."""
    return MorphismAssignment(A, {g: A.rand(rng) for g in sorted(gens)})


def test_evaluate_leaf_exponent_is_iterated_twist():
    A = q_poly_algebra(2)
    m = MorphismAssignment(A, {"x": T})
    # alpha^2(t) = 4t for the doubling twist
    assert evaluate(make_leaf("x", 2), m) == 4 * T


def test_evaluate_single_product():
    A = poly_algebra(["s", "t"])
    m = MorphismAssignment(A, {"x": Poly.var("s"), "y": T})
    assert evaluate(make_leaf("x") * make_leaf("y"), m) == Poly.var("s") * T


def test_evaluate_kills_associators_in_twisted_carrier():
    # oracle: direct computation in the twisted polynomial carrier; the two
    # bracketings of (x y) z with one twist agree there
    A = q_poly_algebra(2)
    rng = random.Random(17)
    diff = hom_associator(make_leaf("x"), make_leaf("y"), make_leaf("z"))
    for _ in range(20):
        m = assign(A, ("x", "y", "z"), rng)
        assert evaluate(diff, m).is_zero()


def test_evaluate_is_structural_homomorphism():
    A = poly_algebra(["s", "t"])
    rng = random.Random(18)
    for _ in range(15):
        m = assign(A, ("x", "y"), rng)
        u = random_lincomb(rng, ["x", "y"], with_unit=True)
        v = random_lincomb(rng, ["x", "y"], with_unit=True)
        assert evaluate(u * v, m) == evaluate(u, m) * evaluate(v, m)
        assert evaluate(u + v, m) == evaluate(u, m) + evaluate(v, m)
        assert evaluate(u.alpha(), m) == A.alpha(evaluate(u, m))


def test_unit_component_requires_strict_unit():
    A = q_poly_algebra(2)  # weakly unital
    m = MorphismAssignment(A, {"x": T})
    with pytest.raises(UnitMismatchError):
        evaluate(LinComb.one() + make_leaf("x"), m)
    # but pure term parts evaluate fine
    assert evaluate(make_leaf("x"), m) == T


def test_missing_image_is_assignment_error():
    A = rational_algebra()
    m = MorphismAssignment(A, {"x": Fraction(2)})
    with pytest.raises(AssignmentError):
        evaluate(make_leaf("y"), m)


def test_morphism_from_matrix_identity():
    A = rational_algebra()
    ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    m = morphism_from_matrix(A, ident)
    assert m.images == {"a": 1, "b": 0, "c": 0, "d": 1}


def test_matrix_roundtrip_random():
    A = poly_algebra(["s", "t"])
    rng = random.Random(19)
    for _ in range(25):
        M = ((A.rand(rng), A.rand(rng)), (A.rand(rng), A.rand(rng)))
        assert matrix_of_morphism(morphism_from_matrix(A, M)) == M


def test_agreeing_assignments_evaluate_identically():
    # uniqueness of the extension: same generator images, same values
    A = q_poly_algebra(2)
    rng = random.Random(20)
    M = ((A.rand(rng), A.rand(rng)), (A.rand(rng), A.rand(rng)))
    m1 = morphism_from_matrix(A, M)
    m2 = MorphismAssignment(A, dict(m1.images))
    for _ in range(100):
        v = random_lincomb(rng, ("a", "b", "c", "d"), max_arity=3, max_exp=1)
        assert A.eq(evaluate(v, m1), evaluate(v, m2))


def test_evaluate_factors_through_congruence():
    # proven-equal pairs evaluate equally in carriers satisfying the laws
    gens = ("x", "y", "z")
    basis = saturate(gens, Bound(3, 1), SaturationConfig(unit_instances=False))
    u = (make_leaf("x") * make_leaf("y")) * make_leaf("z", 1)
    v = make_leaf("x", 1) * (make_leaf("y") * make_leaf("z"))
    assert basis.equal_mod(u, v).proven
    A = q_poly_algebra(2)
    rng = random.Random(23)
    for _ in range(10):
        m = assign(A, gens, rng)
        assert A.eq(evaluate(u, m), evaluate(v, m))


def test_rename_embed():
    a, b = make_leaf("a"), make_leaf("b")
    assert rename_embed(a * b, "'") == make_leaf("a'") * make_leaf("b'")
    assert rename_embed(a * b, "") == a * b
    with pytest.raises(NamingError):
        rename_embed(a, "x")  # tags are apostrophe strings


def test_rename_embed_commutes_with_structure():
    rng = random.Random(24)
    from homalgebra.terms import grading
    for _ in range(15):
        u = random_lincomb(rng, ["x", "y"], with_unit=True)
        v = random_lincomb(rng, ["x", "y"], with_unit=True)
        assert rename_embed(u * v, "'") == rename_embed(u, "'") * rename_embed(v, "'")
        assert rename_embed(u.alpha(), "'") == rename_embed(u, "'").alpha()
        assert grading(rename_embed(u, "'")) == grading(u)


def test_matrix_bijection_naturality():
    # composing with a law-preserving carrier morphism acts entrywise
    A = poly_algebra(["t"])
    phi_images = {"t": Poly.var("t") + Poly.one()}
    phi = lambda p: p.substitute(phi_images)
    rng = random.Random(25)
    for _ in range(10):
        M = ((A.rand(rng), A.rand(rng)), (A.rand(rng), A.rand(rng)))
        m = morphism_from_matrix(A, M)
        composed = MorphismAssignment(A, {g: phi(img) for g, img in m.images.items()})
        got = matrix_of_morphism(composed)
        want = tuple(tuple(phi(M[i][j]) for j in range(2)) for i in range(2))
        assert got == want
        # and the composite really is the composite on random elements
        v = random_lincomb(rng, ("a", "b", "c", "d"), max_arity=2, max_exp=1)
        assert evaluate(v, composed) == phi(evaluate(v, m))


# -- value-numbered evaluation against a plain reference ----------------------

def reference_value(t, m):
    """The value of one term, from its leaves up, with no memo."""
    A = m.target
    if isinstance(t, Leaf):
        return A.alpha_pow(m.image(t.name), t.exp)
    return A.mul(reference_value(t.left, m), reference_value(t.right, m))


def reference_evaluate(v, m):
    """The value of ``v``, term by term in the term order, every coefficient
    scaled."""
    A = m.target
    acc = A.zero
    if v.unit:
        acc = A.add(acc, A.scale(v.unit, A.unit))
    for t, c in v.sorted_terms():
        acc = A.add(acc, A.scale(c, reference_value(t, m)))
    return acc


def coefficients(value):
    """The coefficients of a carrier value: a polynomial's, a matrix's
    entries', or a free element's terms'."""
    if isinstance(value, Poly):
        return list(value.coeffs.values())
    if isinstance(value, LinComb):
        return list(value.terms.values())
    return [c for row in value for p in row for c in coefficients(p)]


EVAL_GENS = ("x", "y", "z")
EVAL_TERMS = enumerate_terms(EVAL_GENS, Bound(3, 1))
EVAL_CARRIERS = {
    "free": free_algebra(("a", "b")),
    "Q[u,v]": poly_algebra(["u", "v"]),
    "Q[t] twisted by 2": q_poly_algebra(2),
    "Q[t] twisted by 1/2": q_poly_algebra(Fraction(1, 2)),
    "M2(Q[t])": matrix_algebra(poly_algebra(["t"])),
}
eval_coeffs = st.one_of(st.integers(-4, 4),
                        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@pytest.mark.parametrize("name", EVAL_CARRIERS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(terms=st.dictionaries(st.sampled_from(EVAL_TERMS), eval_coeffs, max_size=8),
       unit=eval_coeffs, seed=st.integers(0, 2 ** 32))
def test_evaluate_equals_the_sum_in_term_order(name, terms, unit, seed):
    A = EVAL_CARRIERS[name]
    if A.unit_flavor is not UnitFlavor.STRICT_UNITAL:
        unit = 0
    v = LinComb(unit, terms)
    m = assign(A, EVAL_GENS, random.Random(seed))
    got = evaluate(v, m)
    assert A.eq(got, reference_evaluate(v, m))
    for c in coefficients(got):
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def twin(t):
    """``t`` with ``x`` read as ``w``, a generator that gets an equal image."""
    return next(iter(rename(LinComb.of_term(t), {"x": "w"}).terms))


@st.composite
def equal_valued_combinations(draw, strict_unit: bool):
    """Combinations whose terms come with twins, which have equal values, and
    with twisted variants, which have equal values where the twist is the
    identity; each partner's coefficient may cancel its term's."""
    terms = {}
    for t, c in draw(st.dictionaries(st.sampled_from(EVAL_TERMS), eval_coeffs,
                                     min_size=1, max_size=5)).items():
        terms[t] = terms.get(t, 0) + c
        partners = draw(st.lists(st.sampled_from([twin(t), shift_term(t, 1)]),
                                 max_size=2))
        for p in partners:
            terms[p] = terms.get(p, 0) + draw(st.one_of(st.just(-c), eval_coeffs))
    unit = draw(eval_coeffs) if strict_unit else 0
    return LinComb(unit, terms)


VALUE_CARRIERS = {**EVAL_CARRIERS, "Q": rational_algebra()}


@pytest.mark.parametrize("name", VALUE_CARRIERS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2 ** 32))
def test_value_numbered_evaluate_equals_the_plain_reference(name, data, seed):
    A = VALUE_CARRIERS[name]
    strict = A.unit_flavor is UnitFlavor.STRICT_UNITAL
    elements = data.draw(st.lists(equal_valued_combinations(strict), min_size=1, max_size=6))
    m = assign(A, EVAL_GENS, random.Random(seed))
    # an equal image that is another object: numbering goes by ==, not identity
    m = MorphismAssignment(A, {**m.images, "w": A.add(m.image("x"), A.zero)})
    shared = {}
    for v in elements:
        want = reference_evaluate(v, m)
        assert A.eq(evaluate(v, m, shared), want)
        assert A.eq(evaluate(v, m), want)
    # the shared memo answers again from its tables alone
    for v in elements:
        assert A.eq(evaluate(v, m, shared), reference_evaluate(v, m))


# -- what value numbering saves: carrier calls counted --------------------------

def counting(A):
    """``A`` with its mul, scale and add calls counted."""
    calls = Counter()

    def counted(op):
        fn = getattr(A, op)

        def call(*args):
            calls[op] += 1
            return fn(*args)
        return call
    return replace(A, **{op: counted(op) for op in ("mul", "scale", "add")}), calls


def test_an_associator_of_equal_values_costs_no_sum():
    A, calls = counting(poly_algebra(["u", "v"]))
    u, v = Poly.var("u"), Poly.var("v")
    m = MorphismAssignment(A, {"x": u, "y": v, "z": u + v})
    x, y, z = (make_leaf(g) for g in "xyz")
    assert A.eq(evaluate((x * y) * z - x * (y * z), m), A.zero)
    assert calls == {"mul": 4}


def test_window_rows_cost_one_product_per_pair_of_distinct_values():
    # criterion 9's 3-generator (3,1) non-unital window: each row is
    # p - root(p), whose two terms have one value in every model
    basis = saturate(EVAL_GENS, Bound(3, 1), SaturationConfig(unit_instances=False))
    A, calls = counting(poly_algebra(["u", "v"]))
    m = assign(A, basis.gens, random.Random(909))
    memo = {}
    rows = basis.rows_as_lincombs()
    for row in rows:
        assert A.eq(evaluate(row, m, memo), A.zero)
    assert calls == {"mul": 45}
    # the pairs of distinct values under a product node, found by the reference
    numbers = {}

    def number(t):
        return numbers.setdefault(reference_value(t, m), len(numbers))

    def pairs(t):
        if isinstance(t, Leaf):
            return set()
        return {(number(t.left), number(t.right))} | pairs(t.left) | pairs(t.right)

    distinct = set().union(*(pairs(t) for row in rows for t in row.terms))
    assert 45 <= len(distinct)


def test_evaluate_leaves_no_cyclic_garbage():
    # a reference cycle per call would keep each memo alive until the
    # garbage collector runs, and that collection lands on some later call;
    # rename, which the free carriers call per law case, is held to the same
    A = q_poly_algebra(2)
    m = assign(A, EVAL_GENS, random.Random(26))
    v = hom_associator(make_leaf("x"), make_leaf("y"), make_leaf("z"))
    gc.collect()
    gc.disable()
    try:
        for memo in ({}, None):
            assert A.eq(evaluate(v, m, memo), A.zero)
        assert rename(v, {"x": "w"}) == hom_associator(
            make_leaf("w"), make_leaf("y"), make_leaf("z"))
        assert gc.collect() == 0
    finally:
        gc.enable()
