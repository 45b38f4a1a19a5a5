"""Deforming classical structures along endomorphisms.

A bialgebra endomorphism turns a classical bialgebra into a twisted one
(product composed with the map after, comultiplication before); a compatible
pair of endomorphisms twists a comodule algebra.  The scaling family used
here scales one off-diagonal generator up and the other down.
"""

from homalgebra import (Poly, check_comodule, check_comodule_homalgebra,
                        check_hom_coassoc, check_unital,
                        classical_affine_comodule, classical_m2_bialgebra,
                        lambda_scaling_pair, q_poly_algebra, twist_comodule,
                        yau_twist_bialgebra)

t = Poly.var("t")
A = q_poly_algebra(2)
print("the doubling twist on one variable:")
print("  mu(t, t) =", A.mul(t, t))
print("  1 * t    =", A.mul(A.unit, t), " (the unit only survives weakly)")
print("  strict unit law:", "holds" if check_unital(A, 10).passed else "fails")

print("\nscaling the classical matrix bialgebra with parameter 3:")
phi_H, phi_A = lambda_scaling_pair(3)
H = classical_m2_bialgebra()
Ht = yau_twist_bialgebra(H, phi_H)
print("  twisted comultiplication of b:", Ht.delta(Poly.var("b")))
print("  twisted coassociativity:", "PASS" if check_hom_coassoc(Ht).passed else "FAIL")

print("\ntwisting the plane comodule with the compatible pair:")
C = classical_affine_comodule()
Ct = twist_comodule(H, C, phi_H, phi_A)
print("  twisted coaction of y:", Ct.coaction(Poly.var("y"), "", ""))
print("  comodule law:        ", "PASS" if check_comodule(Ct).passed else "FAIL")
print("  morphism law:        ", "PASS" if check_comodule_homalgebra(Ct).passed else "FAIL")

print("\nthe identity parameter is a no-op:")
ident_H, ident_A = lambda_scaling_pair(1)
print("  bialgebra unchanged:", yau_twist_bialgebra(H, ident_H) is H)
print("  comodule unchanged: ", twist_comodule(H, C, ident_H, ident_A) is C)
