"""Hom-Lie algebras, commutator brackets of carriers, and bounded envelopes."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from homalgebra.algebras import (PreconditionError, _tuples, matrix_algebra, poly_algebra,
                                 q_poly_algebra)
from homalgebra.congruence import Verdict
from homalgebra.homlie import (LEG_TAGS3, EnvelopeBialgebra, HomLieAlgebra,
                               affine_line_twisted, bracket_relations,
                               check_envelope_bialgebra, check_hom_lie,
                               dimension_report, direct_sum, envelope,
                               hom_lie_algebra, load_hom_lie, twist_hom_lie)
from homalgebra.poly import Poly
from homalgebra.morphisms import MorphismAssignment, evaluate
from homalgebra.terms import LinComb, make_leaf

F = Fraction


def test_abelian_passes_with_any_twist():
    rng = random.Random(61)
    for _ in range(5):
        alpha = {n: {m: F(rng.randint(-3, 3)) for m in ("e1", "e2")}
                 for n in ("e1", "e2")}
        L = hom_lie_algebra(("e1", "e2"), {}, alpha)
        assert check_hom_lie(L).passed


def test_twisted_affine_line_fixture():
    L = affine_line_twisted(beta=1, gamma=2)
    # the twisted bracket is the twist of the classical one
    e1, e2 = make_leaf("e1"), make_leaf("e2")
    assert L.brackets["e1", "e2"] == 2 * e2
    rep = check_hom_lie(L)
    assert rep.passed, rep.counterexamples
    # hand expansion of the twisted Jacobi sum at (e1, e1, e2): the first and
    # third cyclic terms are [e1 + e2, 2 e2] = 4 e2 with opposite signs and
    # the middle one brackets with [e1, e1] = 0
    inner = L.bracket(e1, e2)
    assert L.bracket(L.alpha(e1), inner) == 4 * e2
    total = LinComb.zero()
    for x, y, z in ((e1, e1, e2), (e2, e1, e1), (e1, e2, e1)):
        total = total + L.bracket(L.alpha(x), L.bracket(y, z))
    assert total == LinComb.zero()


def test_corrupted_structure_constant_detected():
    # sending the second basis vector onto the first is no bracket
    # endomorphism here: alpha[e1,e2] = e1 but [alpha e1, alpha e2] = 0
    L = hom_lie_algebra(("e1", "e2"), {("e1", "e2"): {"e2": 1}},
                        {"e1": {"e1": 1}, "e2": {"e1": 1}})
    rep = check_hom_lie(L)
    assert not rep.passed
    assert any("multiplicativity" in c for c in rep.counterexamples)
    # raw brackets that violate skew-symmetry are reported as such
    e2 = make_leaf("e2")
    broken = HomLieAlgebra(L.names, {("e1", "e2"): e2, ("e2", "e1"): e2}, L.twist)
    rep = check_hom_lie(broken)
    assert any("skew" in c for c in rep.counterexamples)


def test_twist_requires_bracket_endomorphism():
    bad = hom_lie_algebra(("e1", "e2"), {("e1", "e2"): {"e1": 1}},
                          {"e1": {"e1": 1, "e2": 1}, "e2": {"e2": 2}})
    with pytest.raises(PreconditionError):
        twist_hom_lie(bad)


def commutator_failures(A, count: int, seed: int) -> list[str]:
    """Where the commutator bracket of carrier ``A`` breaks a Hom-Lie axiom
    (skew, hom-Jacobi, multiplicativity) on sampled triples.  By Yau, the
    commutator bracket of a multiplicative Hom-associative carrier is
    Hom-Lie, so the list is empty for such a carrier."""
    bracket = lambda x, y: A.add(A.mul(x, y), A.scale(-1, A.mul(y, x)))
    triples = _tuples(A, 3, count, seed)
    assert len(triples) >= count
    bad = []
    for x, y, z in triples:
        if not A.eq(bracket(x, y), A.scale(-1, bracket(y, x))):
            bad.append(f"skew fails at {A.fmt(x)}, {A.fmt(y)}")
        total = A.zero
        for u, v, w in ((x, y, z), (z, x, y), (y, z, x)):
            total = A.add(total, bracket(A.alpha(u), bracket(v, w)))
        if not A.eq(total, A.zero):
            bad.append(f"hom-Jacobi fails at {A.fmt(x)}, {A.fmt(y)}, {A.fmt(z)}")
        if not A.eq(A.alpha(bracket(x, y)), bracket(A.alpha(x), A.alpha(y))):
            bad.append(f"multiplicativity fails at {A.fmt(x)}, {A.fmt(y)}")
    return bad


def test_commutator_abelian_for_commutative_carrier():
    assert commutator_failures(q_poly_algebra(2), 40, seed=62) == []


def test_commutator_classical_matrices():
    M = matrix_algebra(poly_algebra([]))
    assert commutator_failures(M, 60, seed=63) == []


def test_commutator_twisted_matrices():
    M = matrix_algebra(q_poly_algebra(2))
    assert commutator_failures(M, 100, seed=64) == []


def test_commutator_check_finds_a_broken_carrier():
    # doubling one corner of a matrix is no algebra map, so the check must
    # not be vacuous: the commutator bracket loses multiplicativity
    M = matrix_algebra(poly_algebra([]))
    double = lambda X: ((2 * X[0][0], X[0][1]), (X[1][0], X[1][1]))
    bad = commutator_failures(replace(M, alpha=double), 20, seed=65)
    assert any(line.startswith("multiplicativity fails") for line in bad)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_abelian_envelope_commutes():
    L = hom_lie_algebra(("e1", "e2"), {}, {"e1": {"e1": 1}, "e2": {"e2": 1}})
    m = envelope(L, max_arity=2, unit_instances=False)
    e1, e2 = make_leaf("e1"), make_leaf("e2")
    r = m.equal_mod(e1 * e2, e2 * e1)
    assert r.verdict is Verdict.PROVEN_EQUAL


def test_twisted_envelope_bracket_class():
    # oracle: the bracket relation row itself; expanding the structure
    # constants gives [e1, e2] = gamma e2 = 2 e2
    L = affine_line_twisted()
    rels = bracket_relations(L)
    assert len(rels) == 1
    e1, e2 = make_leaf("e1"), make_leaf("e2")
    assert rels[0] == e1 * e2 - e2 * e1 - 2 * e2
    m = envelope(L, max_arity=2, unit_instances=False)
    assert m.equal_mod(e1 * e2 - e2 * e1, 2 * e2).proven


def test_envelope_alpha_acts_leafwise():
    L = affine_line_twisted()
    e1, e2 = make_leaf("e1"), make_leaf("e2")
    # alpha(e1 e2) = (e1 + e2)(2 e2) by the twist images of the leaves
    assert EnvelopeBialgebra(L).alpha(e1 * e2) == 2 * (e1 * e2) + 2 * (e2 * e2)


def test_envelope_requires_hom_lie():
    bad = hom_lie_algebra(("e1", "e2"), {("e1", "e2"): {"e1": 1}},
                          {"e1": {"e1": 1, "e2": 1}, "e2": {"e2": 2}})
    with pytest.raises(PreconditionError):
        envelope(bad, max_arity=2)


def test_direct_sum_blocks():
    L = affine_line_twisted()
    D = direct_sum([L, L], ["'", "''"])
    assert D.names == ("e1'", "e2'", "e1''", "e2''")
    # cross brackets vanish, block brackets survive
    assert D.bracket(make_leaf("e1'"), make_leaf("e1''")) == LinComb.zero()
    assert D.bracket(make_leaf("e1'"), make_leaf("e2'")) == 2 * make_leaf("e2'")
    assert check_hom_lie(D).passed


def test_direct_sum_refuses_colliding_tagged_names():
    # e in the second leg and e' in the first are both e''
    L = hom_lie_algebra(("e", "e'"), {}, {})
    with pytest.raises(ValueError, match="collide"):
        direct_sum([L, L], ["'", "''"])


def test_cross_leg_commutation_in_doubled_envelope():
    L = affine_line_twisted()
    D = direct_sum([L, L], ["'", "''"])
    m = envelope(D, max_arity=2, unit_instances=False)
    u = make_leaf("e1'") * make_leaf("e2''")
    v = make_leaf("e2''") * make_leaf("e1'")
    assert m.equal_mod(u, v).proven


# ---------------------------------------------------------------------------
# the primitive comultiplication
# ---------------------------------------------------------------------------

def test_primitive_classical_one_dim():
    L = hom_lie_algebra(("e",), {}, {"e": {"e": 1}})
    images = EnvelopeBialgebra(L).delta_at("'", "''")
    assert images["e"] == make_leaf("e'") + make_leaf("e''")


def test_envelope_bialgebra_suite_twisted():
    reports = check_envelope_bialgebra(affine_line_twisted(), max_arity=3)
    by_law = {r.law: r for r in reports}
    assert by_law["primitive_three_term_identity"].passed
    assert by_law["hom_coassociativity"].passed
    assert by_law["comultiplicativity"].passed
    assert by_law["comultiplication_is_algebra_morphism"].passed


def test_envelope_bialgebra_suite_abelian_random_alpha():
    rng = random.Random(65)
    alpha = {n: {m: F(rng.randint(-2, 2)) for m in ("e1", "e2")}
             for n in ("e1", "e2")}
    L = hom_lie_algebra(("e1", "e2"), {}, alpha)
    reports = check_envelope_bialgebra(L, max_arity=3)
    assert all(r.passed for r in reports)


def test_three_term_identity_values():
    # both composites equal sum_k (alpha^2)_{k j} (e_k in each of three legs),
    # exactly, before any quotient
    L = affine_line_twisted()
    reports = check_envelope_bialgebra(L, max_arity=3)
    three = next(r for r in reports if r.law == "primitive_three_term_identity")
    # alpha^2(e1) = alpha(e1 + e2) = e1 + 3 e2 for beta=1, gamma=2
    item = next(i for i in three.items if i.label == "left composite on e1")
    from homalgebra.grammar import parse_lincomb
    want = parse_lincomb("e1' + e1'' + e1''' + 3 * e2' + 3 * e2'' + 3 * e2'''")
    assert parse_lincomb(item.lhs) == want


def test_envelope_rows_evaluate_to_zero_in_compatible_carriers():
    # adjunction soundness: relation rows die in a carrier along a
    # compatible image of the basis
    # (1) classical affine line into 2x2 rationals, unit rows included
    L = hom_lie_algebra(("e1", "e2"), {("e1", "e2"): {"e2": 1}}, {})
    m = envelope(L, max_arity=3, unit_instances=True)
    M2 = matrix_algebra(poly_algebra([]))
    one, zero = Poly.one(), Poly.zero()
    E11 = ((one, zero), (zero, zero))
    E12 = ((zero, one), (zero, zero))
    assignment = MorphismAssignment(M2, {"e1": E11, "e2": E12})
    for row in m.rows_as_lincombs():
        assert M2.eq(evaluate(row, assignment), M2.zero)
    # (2) scaled one-dimensional algebra into the doubling twisted carrier,
    # unit rows excluded (the carrier unit is only weak)
    L1 = hom_lie_algebra(("e",), {}, {"e": {"e": 2}})
    m1 = envelope(L1, max_arity=3, unit_instances=False)
    A = q_poly_algebra(2)
    assignment = MorphismAssignment(A, {"e": Poly.var("t")})
    for row in m1.rows_as_lincombs():
        assert evaluate(row, assignment).is_zero()


def test_gl2_commutator_envelope_bracket_classes():
    # the commutator algebra of classical 2x2 matrices by structure
    # constants: [E_ij, E_kl] = d_jk E_il - d_li E_kj
    names = ("E11", "E12", "E21", "E22")
    pos = {n: (int(n[1]) - 1, int(n[2]) - 1) for n in names}
    brackets = {}
    for a in range(4):
        for b in range(a + 1, 4):
            (i, j), (k, l) = pos[names[a]], pos[names[b]]
            coords = {}
            if j == k:
                coords[f"E{i + 1}{l + 1}"] = coords.get(f"E{i + 1}{l + 1}", 0) + 1
            if l == i:
                coords[f"E{k + 1}{j + 1}"] = coords.get(f"E{k + 1}{j + 1}", 0) - 1
            brackets[(names[a], names[b])] = {n: c for n, c in coords.items() if c}
    L = hom_lie_algebra(names, brackets, {})
    assert check_hom_lie(L).passed
    m = envelope(L, max_arity=3, unit_instances=False)
    for a in names:
        for b in names:
            u, v = make_leaf(a), make_leaf(b)
            assert m.equal_mod(u * v - v * u, L.bracket(u, v)).proven


def test_dimension_report_documents_unit_collapse():
    L = affine_line_twisted()
    free = dimension_report(envelope(L, max_arity=2, unit_instances=False))
    collapsed = dimension_report(envelope(L, max_arity=2, unit_instances=True))
    # without unit rows the bracket relation alone cuts one dimension in
    # degree 2; with them the twist-image relations also shrink degree 1
    assert free[1]["residual"] == 2
    assert free[2]["residual"] == 3
    assert collapsed[1]["residual"] < 2


def test_load_hom_lie_roundtrip_and_errors():
    text = """
    # fixture
    dim 2
    names e1 e2
    bracket e1 e2 = 2*e2
    alpha e1 = e1 + e2
    alpha e2 = 2*e2
    """
    L = load_hom_lie(text)
    assert L.names == ("e1", "e2")
    e1, e2 = make_leaf("e1"), make_leaf("e2")
    assert L.brackets["e1", "e2"] == 2 * e2
    assert L.twist == {"e1": e1 + e2, "e2": 2 * e2}
    assert check_hom_lie(L).passed
    with pytest.raises(ValueError):
        load_hom_lie("names e1\nbracket e1 e1 = e1")
    with pytest.raises(ValueError):
        load_hom_lie("dim 3\nnames e1 e2")
    with pytest.raises(ValueError):
        load_hom_lie("names e1\nalpha e1 = e1^2")
    # each basis name, bracket pair (in either order) and twist is given once
    with pytest.raises(ValueError, match="line 1: name 'e1' given twice"):
        load_hom_lie("names e1 e1")
    with pytest.raises(ValueError, match="line 3: second bracket of e2 and e1"):
        load_hom_lie("names e1 e2\nbracket e1 e2 = e1\nbracket e2 e1 = e2")
    with pytest.raises(ValueError, match="line 3: second alpha of e1"):
        load_hom_lie("names e1 e2\nalpha e1 = e1\nalpha e1 = 2*e1")
    # and so is each of the names and dim lines
    with pytest.raises(ValueError, match="line 2: second names line"):
        load_hom_lie("names e1 e2\nnames e3")
    with pytest.raises(ValueError, match="line 2: second dim line"):
        load_hom_lie("dim 5\ndim 2\nnames e1 e2")


def test_hom_lie_algebra_refuses_names_outside_the_basis():
    names = ("e1", "e2")
    with pytest.raises(ValueError, match="unknown basis name 'x' in a bracket pair"):
        hom_lie_algebra(names, {("e1", "x"): {"e2": 1}}, {})
    with pytest.raises(ValueError, match="unknown basis name 'x' in the bracket of e1 and e2"):
        hom_lie_algebra(names, {("e1", "e2"): {"x": 1}}, {})
    with pytest.raises(ValueError, match="unknown basis name 'x' in an alpha key"):
        hom_lie_algebra(names, {}, {"x": {"e1": 1}})
    with pytest.raises(ValueError, match="unknown basis name 'x' in the twist of e2"):
        hom_lie_algebra(names, {}, {"e2": {"e2": 1, "x": 2}})


def test_hom_lie_algebra_refuses_a_pair_given_in_both_orders():
    with pytest.raises(ValueError, match="second bracket of e2 and e1"):
        hom_lie_algebra(("e1", "e2"), {("e1", "e2"): {"e2": 1}, ("e2", "e1"): {"e2": 1}}, {})


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "non-unital"])
def test_envelope_carrier_saturates_its_own_legs(unital):
    # coassociativity is decided in the envelope of three copies of L, one
    # per leg, and multiplicativity in that of two
    L = affine_line_twisted()
    by_law = {r.law: r for r in check_envelope_bialgebra(L, 3, unital)}
    for law, k in (("hom_coassociativity", 3), ("comultiplication_is_algebra_morphism", 2)):
        window = envelope(direct_sum([L] * k, LEG_TAGS3[:k]), 3, unital)
        assert by_law[law].context == window.describe()


def test_envelope_bialgebra_requires_hom_lie():
    # the message names the pairs of L itself, not of its tagged copies
    bad = hom_lie_algebra(("e1", "e2"), {("e1", "e2"): {"e1": 1}},
                          {"e1": {"e1": 1, "e2": 1}, "e2": {"e2": 2}})
    with pytest.raises(PreconditionError, match=r"^not a multiplicative Hom-Lie algebra: "
                       r"multiplicativity fails at \(e1, e2\); "
                       r"multiplicativity fails at \(e2, e1\)$"):
        check_envelope_bialgebra(bad, max_arity=2)


def test_envelope_carrier_matches_the_doubled_model():
    # the law engine's envelope carrier twists the doubled legs by composing
    # the twist images leafwise; the doubled sum twists its own leaves
    L = affine_line_twisted()
    E = EnvelopeBialgebra(L)
    doubled = EnvelopeBialgebra(direct_sum([L, L], ["'", "''"]))
    for _, e in E.generators():
        d = E.delta(e)
        assert E.tensor_alpha(d) == doubled.alpha(d)
        assert E.tensor_alpha(d * d) == doubled.alpha(d * d)
        assert E.delta(E.alpha(e)) == E.tensor_alpha(d)
