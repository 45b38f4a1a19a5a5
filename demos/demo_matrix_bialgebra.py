"""The four-generator bialgebra that represents 2x2 matrices.

Its comultiplication is the row-by-column product of a primed and a
double-primed copy of the generator matrix.  Pulling a pair of matrices back
along it reproduces the matrix product in any multiplicative twisted-
associative carrier — including carriers whose unit is only weak.
"""

import random

from homalgebra import (Bound, SaturationConfig, check_hom_coassoc,
                        m_bialgebra, matrix_algebra, q_poly_algebra,
                        representability_check)

B = m_bialgebra()
print("comultiplication on the generators:")
for g in "abcd":
    print(f"  delta({g}) =", B.delta_images[g])

print("\ntwisted coassociativity, decided inside the 12-generator window:")
rep = check_hom_coassoc(B, bound=Bound(3, 1),
                        config=SaturationConfig(unit_instances=False))
for item in rep.items:
    print(f"  {item.label}: {item.verdict}")

print("\nrepresentability over the doubling-twisted polynomial carrier:")
A = q_poly_algebra(2)
M = matrix_algebra(A)
rng = random.Random(0)
X, Y = M.rand(rng), M.rand(rng)
print("  X =", M.fmt(X))
print("  Y =", M.fmt(Y))
rep = representability_check(A, X, Y)
for item in rep.items:
    print(f"  {item.label}: {item.verdict}  ({item.lhs})")
print("pullback along delta equals the matrix product:", rep.passed)
