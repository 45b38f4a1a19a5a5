"""The free plane as a comodule algebra over the matrix bialgebra.

The coaction sends the plane generators through the generator matrix; the
comodule law compares two composites inside one merged free algebra on the
doubly tagged bialgebra generators plus the plane generators, exactly as the
defining computation arranges it.
"""

from homalgebra import (Bound, SaturationConfig, check_comodule,
                        check_comodule_homalgebra, hom_affine_plane,
                        make_leaf)

C = hom_affine_plane()
print("coaction on the plane generators (left leg = bialgebra copy):")
for g in ("x", "y"):
    print(f"  rho({g}) =", C.coaction_images[g])

print("\nthe coaction extends multiplicatively:")
xy = make_leaf("x") * make_leaf("y")
print("  rho(x * y) =", C.coaction(xy, "'", "''"))

print("\nthe comodule law at arity <= 3, exponents <= 1:")
rep = check_comodule(C, bound=Bound(3, 1),
                     config=SaturationConfig(unit_instances=False))
for item in rep.items:
    print(f"  element {item.label}: {item.verdict}")
    print("    left  composite:", item.lhs)
    print("    right composite:", item.rhs)

print("\nand the coaction is a morphism for products and the twist:")
rep = check_comodule_homalgebra(C)
print("  all", len(rep.items), "checks:", "PASS" if rep.passed else "FAIL")
