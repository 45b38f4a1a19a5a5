"""Acceptance criteria: one test per criterion, exact equality throughout.

Every expected value here is either checked exactly (zero tolerance) or
asserted as a verdict of the congruence oracle.  Each test prints one
pass/fail line (visible under ``pytest -s``); run the suite with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from homalgebra.algebras import (check_hom_associative, check_multiplicative,
                                 matrix_algebra, poly_algebra, q_poly_algebra)
from homalgebra.bialgebras import (check_comodule, check_comodule_homalgebra,
                                   check_hom_coassoc, classical_affine_comodule,
                                   classical_m2_bialgebra, hom_affine_plane,
                                   lambda_scaling_pair, m_bialgebra,
                                   representability_check, twist_comodule,
                                   yau_twist_bialgebra)
from homalgebra.congruence import Bound, SaturationConfig, Verdict, saturate
from homalgebra.homlie import (abelian_hom_lie, affine_line_twisted,
                               check_envelope_bialgebra)
from homalgebra.morphisms import (MorphismAssignment, evaluate,
                                  matrix_of_morphism, morphism_from_matrix)
from homalgebra.reports import dump_json, report_document
from homalgebra.terms import make_leaf, random_lincomb

NON_UNITAL = SaturationConfig(unit_instances=False)
UNITAL = SaturationConfig(unit_instances=True)

TAGS3 = ("'", "''", "'''")


def _stamp(n, text):
    print(f"[acceptance] criterion {n}: PASS — {text}")


# -- criterion 1 -------------------------------------------------------------

def _c1_report():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    lhs = (make_leaf("x") * make_leaf("y")) * make_leaf("z", 1)
    rhs = make_leaf("x", 1) * (make_leaf("y") * make_leaf("z"))
    res = basis.equal_mod(lhs, rhs)
    from homalgebra.reports import LawItem, LawReport
    rep = LawReport("hom_associativity_oracle", context=basis.describe())
    rep.items.append(LawItem("three-generator associator", str(lhs), str(rhs),
                             res.verdict.value))
    return rep, res


def test_criterion_01_hom_associativity_oracle():
    t0 = time.time()
    rep, res = _c1_report()
    elapsed = time.time() - t0
    assert res.verdict is Verdict.PROVEN_EQUAL
    assert elapsed < 5.0
    _stamp(1, f"hom-associativity proven at (3,1) non-unital in {elapsed:.2f}s")


# -- criterion 2 -------------------------------------------------------------

def _c2_reports():
    B = m_bialgebra()
    out = []
    for config in (UNITAL, NON_UNITAL):
        rep = check_hom_coassoc(B, bound=Bound(3, 1), config=config)
        rep.law = f"hom_coassociativity[unit_instances={config.unit_instances}]"
        out.append(rep)
    return out


def test_criterion_02_matrix_comultiplication_coassociative():
    t0 = time.time()
    reports = _c2_reports()
    elapsed = time.time() - t0
    for rep in reports:
        assert rep.passed, rep.first_failure()
        assert {i.label for i in rep.items} == {"a", "b", "c", "d"}
        assert all(i.verdict == "PROVEN_EQUAL" for i in rep.items)
    assert elapsed < 60.0
    _stamp(2, f"coassociativity of the matrix comultiplication, both configs, {elapsed:.1f}s")


# -- criterion 3 -------------------------------------------------------------

def _c3_reports():
    C = hom_affine_plane()
    out = []
    for config in (UNITAL, NON_UNITAL):
        rep = check_comodule(C, bound=Bound(3, 1), config=config)
        rep.law = f"comodule_law[unit_instances={config.unit_instances}]"
        out.append(rep)
    return out


def test_criterion_03_plane_comodule_law():
    t0 = time.time()
    reports = _c3_reports()
    elapsed = time.time() - t0
    for rep in reports:
        assert rep.passed, rep.first_failure()
        assert {i.label for i in rep.items} == {"x", "y"}
    assert elapsed < 60.0
    _stamp(3, f"comodule law for the plane coaction, both configs, {elapsed:.1f}s")


# -- criterion 4 -------------------------------------------------------------

def _c4_reports(seed=404):
    reports = []
    rng = random.Random(seed)
    classical = poly_algebra(["a", "b", "c", "d"])
    twisted = q_poly_algebra(2)
    for name, A in (("classical", classical), ("q-twisted", twisted)):
        M = matrix_algebra(A)
        for k in range(50):
            X, Y = M.rand(rng), M.rand(rng)
            rep = representability_check(A, X, Y)
            rep.law = f"representability[{name}][{k}]"
            reports.append(rep)
    return reports


def test_criterion_04_representability():
    t0 = time.time()
    reports = _c4_reports()
    elapsed = time.time() - t0
    assert len(reports) == 100
    for rep in reports:
        assert rep.passed, rep.first_failure()
    assert elapsed < 30.0
    _stamp(4, f"matrix representability on 2x50 random pairs, {elapsed:.1f}s")


# -- criterion 5 -------------------------------------------------------------

def _c5_reports(seed=505):
    M = matrix_algebra(q_poly_algebra(2))
    return [check_hom_associative(M, 100, seed=seed),
            check_multiplicative(M, 100, seed=seed)]


def test_criterion_05_matrix_carrier_laws():
    t0 = time.time()
    reports = _c5_reports()
    elapsed = time.time() - t0
    for rep in reports:
        assert rep.passed, rep.counterexamples[:1]
        assert rep.samples_run >= 100
    assert elapsed < 30.0
    _stamp(5, f"matrix carrier over the twisted ring passes both laws, {elapsed:.1f}s")


# -- criterion 6 -------------------------------------------------------------

def _c6_reports():
    phi_H, phi_A = lambda_scaling_pair(3)
    H = classical_m2_bialgebra()
    C = classical_affine_comodule()
    Ht = yau_twist_bialgebra(H, phi_H)
    Ct = twist_comodule(H, C, phi_H, phi_A)
    return [check_hom_coassoc(Ht), check_comodule(Ct),
            check_comodule_homalgebra(Ct)]


def test_criterion_06_scaling_twists():
    t0 = time.time()
    reports = _c6_reports()
    for rep in reports:
        assert rep.passed, rep.first_failure()
    # the identity parameter is a behavioral no-op
    ident_H, ident_A = lambda_scaling_pair(1)
    H = classical_m2_bialgebra()
    C = classical_affine_comodule()
    assert yau_twist_bialgebra(H, ident_H) is H
    assert twist_comodule(H, C, ident_H, ident_A) is C
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _stamp(6, f"scaling twist fixtures pass the full comodule suite, {elapsed:.1f}s")


# -- criterion 7 -------------------------------------------------------------

def _c7_reports(seed=707):
    rng = random.Random(seed)
    alpha = {n: {m: Fraction(rng.randint(-2, 2)) for m in ("e1", "e2")}
             for n in ("e1", "e2")}
    fixtures = [("abelian-random-alpha", abelian_hom_lie(("e1", "e2"), alpha)),
                ("twisted-nonabelian", affine_line_twisted(beta=1, gamma=2))]
    out = []
    for name, L in fixtures:
        for rep in check_envelope_bialgebra(L, max_arity=3):
            rep.law = f"{name}:{rep.law}"
            out.append(rep)
    return out


def test_criterion_07_envelope_comultiplication():
    t0 = time.time()
    reports = _c7_reports()
    elapsed = time.time() - t0
    for rep in reports:
        assert rep.passed, (rep.law, rep.first_failure())
    three_term = [r for r in reports if "primitive_three_term" in r.law]
    coassoc = [r for r in reports if "hom_coassociativity" in r.law]
    assert len(three_term) == 2 and len(coassoc) == 2
    for rep in coassoc:
        labels = {i.label for i in rep.items}
        assert {"e1*e1", "e1*e2", "e2*e1", "e2*e2"} <= labels
    assert elapsed < 60.0
    _stamp(7, f"envelope comultiplication laws for both fixtures, {elapsed:.1f}s")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_uniqueness_and_roundtrip():
    A = q_poly_algebra(2)
    rng = random.Random(808)
    M = matrix_algebra(A).rand(rng)
    m1 = morphism_from_matrix(A, M)
    m2 = MorphismAssignment(A, dict(m1.images))
    for _ in range(100):
        v = random_lincomb(rng, ("a", "b", "c", "d"), max_arity=3, max_exp=1)
        assert A.eq(evaluate(v, m1), evaluate(v, m2))
    for _ in range(50):
        M = matrix_algebra(A).rand(rng)
        assert matrix_of_morphism(morphism_from_matrix(A, M)) == M
    _stamp(8, "extension uniqueness on 100 elements; matrix roundtrip on 50")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_row_soundness():
    q_carrier = q_poly_algebra(2)
    classical = poly_algebra(["u", "v"])
    jobs = [
        (saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL), False),
        (saturate([g + t for g in "abcd" for t in TAGS3], Bound(3, 1), NON_UNITAL), False),
        (saturate([g + t for g in "abcd" for t in TAGS3], Bound(3, 1), UNITAL), True),
        (saturate([g + t for g in "abcd" for t in TAGS3[:2]] + ["x", "y"],
                  Bound(3, 1), NON_UNITAL), False),
        (saturate([g + t for g in "abcd" for t in TAGS3[:2]] + ["x", "y"],
                  Bound(3, 1), UNITAL), True),
    ]
    for basis, unital_rows in jobs:
        rows = basis.rows_as_lincombs()
        assert rows, "saturation produced no rows"
        rng = random.Random(909)
        targets = [classical] if unital_rows else [classical, q_carrier]
        for target in targets:
            for _ in range(20):
                m = MorphismAssignment(target, {g: target.rand(rng)
                                                for g in sorted(basis.gens)})
                memo = {}
                for row in rows:
                    got = evaluate(row, m, memo)
                    assert target.eq(got, target.zero), (
                        f"row {row} evaluated to {target.fmt(got)} in {target.name}")
    _stamp(9, "all saturated rows vanish under 20 random assignments per carrier")


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_unit_collapse_both_ways():
    lhs = make_leaf("x") * make_leaf("y", 1)
    rhs = make_leaf("x") * make_leaf("y")
    with_units = saturate(["x", "y"], Bound(2, 1), UNITAL)
    without = saturate(["x", "y"], Bound(2, 1), NON_UNITAL)
    assert with_units.equal_mod(lhs, rhs).verdict is Verdict.PROVEN_EQUAL
    res = without.equal_mod(lhs, rhs)
    assert res.verdict is Verdict.NOT_PROVEN_WITHIN_BOUND
    assert res.residue == lhs - rhs
    _stamp(10, "unit instances collapse the twist on the right factor; without them they do not")


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_byte_identical_reports():
    def build_all():
        docs = []
        rep, _ = _c1_report()
        docs.append(report_document("criterion-1", {}, [rep]))
        docs.append(report_document("criterion-2", {}, _c2_reports()))
        docs.append(report_document("criterion-3", {}, _c3_reports()))
        docs.append(report_document("criterion-4", {"seed": 404}, _c4_reports()))
        docs.append(report_document("criterion-5", {"seed": 505}, _c5_reports()))
        docs.append(report_document("criterion-6", {}, _c6_reports()))
        docs.append(report_document("criterion-7", {"seed": 707}, _c7_reports()))
        return "\n".join(dump_json(d) for d in docs)

    first = build_all()
    second = build_all()
    assert first == second
    _stamp(11, "criteria 1-7 reports are byte-identical across fresh runs")
