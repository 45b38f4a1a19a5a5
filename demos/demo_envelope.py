"""Enveloping models of Hom-Lie algebras and their comultiplication.

Leaves of the envelope are Lie basis elements; the twist acts through each
basis element's image, and the bracket relations join the associators in the
saturated ideal.  The primitive comultiplication sends a basis element to
its twist in each leg, and both coassociativity composites agree on the nose
before any quotient — the model verifies that and the quotient laws.
"""

from homalgebra import (EnvelopeBialgebra, affine_line_twisted,
                        check_envelope_bialgebra, check_hom_lie,
                        dimension_report, envelope, make_leaf)

L = affine_line_twisted(beta=1, gamma=2)
e1, e2 = make_leaf("e1"), make_leaf("e2")
print("the twisted 2-dimensional fixture:")
print("  [e1, e2] =", L.fmt(L.bracket(e1, e2)))
print("  alpha(e1) =", L.fmt(L.alpha(e1)), "| alpha(e2) =", L.fmt(L.alpha(e2)))
print("  axioms:", "PASS" if check_hom_lie(L).passed else "FAIL")

print("\nthe bounded envelope at arity <= 2 (without unit arguments):")
basis = envelope(L, max_arity=2, unit_instances=False)
res = basis.equal_mod(e1 * e2 - e2 * e1, 2 * e2)
print("  e1 e2 - e2 e1 == 2 e2 :", res.verdict.value)
print("  twist acts on the class leafwise:", EnvelopeBialgebra(L).alpha(e1 * e2))
print("  residual dimensions:", dimension_report(basis))

print("\nwith unit arguments the twist-image relations also collapse degree 1:")
print("  residual dimensions:", dimension_report(envelope(L, max_arity=2)))

print("\nprimitive comultiplication on the leaves:")
for name, img in EnvelopeBialgebra(L).delta_at("'", "''").items():
    print(f"  delta({name}) =", img)

print("\nthe comultiplication laws at arity <= 3:")
for rep in check_envelope_bialgebra(L, max_arity=3):
    print(f"  {rep.law}: {'PASS' if rep.passed else 'FAIL'} ({len(rep.items)} items)")
