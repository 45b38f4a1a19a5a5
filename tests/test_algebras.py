"""Concrete carriers: twists, matrices, tensors, and the axiom checkers."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from homalgebra.algebras import (HomAlgebraDescriptor, PreconditionError,
                                 UnitFlavor, check_hom_associative,
                                 check_multiplicative, check_unital,
                                 matrix_algebra, poly_algebra, q_poly_algebra,
                                 rational_algebra, yau_twist_algebra)
from homalgebra.poly import Poly, PolyEndo

t = Poly.var("t")


def test_identity_twist_returns_carrier_unchanged():
    A = yau_twist_algebra(["t"], PolyEndo({"t": t}))
    assert A.name == "Q[t]"
    assert A.unit_flavor is UnitFlavor.STRICT_UNITAL
    assert A.mul(t, t) == t * t


def test_doubling_twist_products():
    # oracle: direct polynomial expansion, mu_phi(t, t) = phi(t^2) = 4 t^2
    A = q_poly_algebra(2)
    assert A.mul(t, t) == 4 * (t * t)
    # one twisted associativity instance, both bracketings expanded by hand:
    # mu((t t), alpha t) = phi(4t^2 * 2t) = phi(8 t^3) = 8 * (2t)^3 = 64 t^3,
    # and mu(alpha t, (t t)) = phi(2t * 4t^2) is the same
    lhs = A.mul(A.mul(t, t), A.alpha(t))
    rhs = A.mul(A.alpha(t), A.mul(t, t))
    assert lhs == 64 * (t ** 3)
    assert lhs == rhs


def test_twist_weak_unitality_witness():
    A = q_poly_algebra(2)
    assert A.unit_flavor is UnitFlavor.WEAK_UNITAL
    # oracle: direct evaluation, 1 * t = phi(t) = 2t, not t
    assert A.mul(A.unit, t) == 2 * t
    rep = check_unital(A, 20, seed=1)
    assert not rep.passed
    assert any("2*t" in c for c in rep.counterexamples)


def test_twist_rejects_non_endomorphism():
    broken = lambda p: p + Poly.one()  # not multiplicative
    with pytest.raises(PreconditionError):
        yau_twist_algebra(["t"], broken)


def test_classical_carriers_pass_all_checks():
    for A in (rational_algebra(), poly_algebra(["t"]), poly_algebra(["x", "y"])):
        assert check_hom_associative(A, 30, seed=2).passed
        assert check_multiplicative(A, 30, seed=2).passed
        assert check_unital(A, 30, seed=2).passed


def test_twisted_carrier_check_profile():
    A = q_poly_algebra(2)
    assert check_hom_associative(A, 50, seed=3).passed
    assert check_multiplicative(A, 50, seed=3).passed
    assert not check_unital(A, 20, seed=3).passed


def test_corrupted_product_fails_with_witness():
    base = poly_algebra(["t"])
    broken = HomAlgebraDescriptor(
        name="broken",
        zero=base.zero, add=base.add, scale=base.scale,
        mul=lambda p, q: base.mul(p, q) + Poly.one(),  # swapped-in corruption
        alpha=base.alpha, eq=base.eq, unit=base.unit,
        unit_flavor=base.unit_flavor, sweep=base.sweep, rand=base.rand,
        fmt=base.fmt)
    rep = check_hom_associative(broken, 10, seed=4)
    assert not rep.passed and rep.counterexamples


def test_counterexample_lines_name_the_sample_and_both_sides():
    base = poly_algebra(["t"])
    broken_mul = replace(base, mul=lambda p, q: base.mul(p, q) + Poly.one())
    broken_alpha = replace(base, alpha=lambda p: p + Poly.one())
    assert check_hom_associative(broken_mul, 6, seed=4).counterexamples[:2] == [
        "x=1, y=1, z=t: 1 + 2*t != 2 + t", "x=1, y=1, z=t^2: 1 + 2*t^2 != 2 + t^2"]
    assert check_multiplicative(broken_alpha, 6, seed=4).counterexamples[:2] == [
        "x=1, y=1: 2 != 4", "x=1, y=t: 1 + t != 2 + 2*t"]


def test_matrix_algebra_recovers_classical_2x2():
    M = matrix_algebra(rational_algebra())
    X = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    Y = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert M.mul(X, Y) == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert M.mul(M.unit, X) == X and M.mul(X, M.unit) == X
    assert check_hom_associative(M, 40, seed=5).passed


def test_matrix_entry_formula():
    # the (i,j) entry of (X Y) alpha(Z) is the double sum of
    # (x_ik y_kl) alpha(z_lj), computed here independently
    A = q_poly_algebra(2)
    M = matrix_algebra(A)
    rng = random.Random(6)
    for _ in range(10):
        X, Y, Z = (M.rand(rng) for _ in range(3))
        got = M.mul(M.mul(X, Y), M.alpha(Z))
        for i in range(2):
            for j in range(2):
                want = A.zero
                for k in range(2):
                    for l in range(2):
                        want = A.add(want, A.mul(A.mul(X[i][k], Y[k][l]),
                                                 A.alpha(Z[l][j])))
                assert A.eq(got[i][j], want)


def test_matrix_over_twisted_carrier_satisfies_laws():
    M = matrix_algebra(q_poly_algebra(2))
    assert check_hom_associative(M, 100, seed=7).passed
    assert check_multiplicative(M, 100, seed=7).passed
    assert M.unit_flavor is UnitFlavor.WEAK_UNITAL


def test_tensor_of_twisted_carriers_passes_checks():
    # Q[t]_phi (x) Q[s]_psi on tagged variables: Q[s, t] twisted by phi on
    # the t leg and psi on the s leg
    s = Poly.var("s")
    T = yau_twist_algebra(["s", "t"], PolyEndo({"t": 2 * t, "s": 3 * s}))
    assert check_hom_associative(T, 60, seed=8).passed
    assert check_multiplicative(T, 60, seed=8).passed
    assert T.unit_flavor is UnitFlavor.WEAK_UNITAL


def test_strict_unital_collapse_consequence():
    # in a strictly unital hom-associative carrier with unit-fixing twist,
    # x alpha(z) = x z; classical carriers realize this with twist = id
    for A in (rational_algebra(), poly_algebra(["x", "y"])):
        rng = random.Random(9)
        for _ in range(10):
            p, q = A.rand(rng), A.rand(rng)
            assert A.eq(A.mul(p, A.alpha(q)), A.mul(p, q))


def test_matrix_closure_of_checks():
    # carriers passing the two laws keep passing them after the matrix step
    for A in (poly_algebra(["t"]), q_poly_algebra(2), q_poly_algebra(Fraction(1, 3))):
        M = matrix_algebra(A)
        assert check_hom_associative(M, 40, seed=10).passed
        assert check_multiplicative(M, 40, seed=10).passed


def test_check_reports_serialize():
    rep = check_unital(q_poly_algebra(2), 5, seed=11)
    d = rep.to_dict()
    assert d["law"] == "unitality"
    assert d["seed"] == 11
    assert d["passed"] is False
    assert isinstance(d["counterexamples"], list)
