"""A tour of the free term algebra.

Elements are exact-rational combinations of planar product trees whose leaves
carry a twist exponent; the twist map never appears as a node because
multiplicativity is baked into the normal form.
"""

from homalgebra import grading, make_leaf, parse_lincomb, format_lincomb, LinComb

x, y, z = make_leaf("x"), make_leaf("y"), make_leaf("z")

print("generators:", x, "|", y, "|", z)
print("a product tree: ", x * y)
print("left-nested:    ", (x * y) * z)
print("right-nested:   ", x * (y * z), " (a different basis element!)")

print("\nthe twist raises every leaf exponent:")
v = (x * y) * z
print("  alpha(", v, ") =", v.alpha())
print("  twist of the unit is the unit:", LinComb.one().alpha())

print("\nan explicit twist (A k t) is read straight into the leaf exponents:")
print("  text:  (A 2 ((x * y) * z@1))")
print("  normal:", parse_lincomb("(A 2 ((x * y) * z@1))"))

print("\nlinear combinations with exact rational coefficients:")
w = parse_lincomb("3/2 * (x * y@1) + -1 * x + 2")
print("  parsed:   ", w)
print("  squared:  ", w * w)
print("  roundtrip:", parse_lincomb(format_lincomb(w)) == w)

print("\nthe (arity, weight) grading:")
print("  grading(", w, ") =", sorted(grading(w)))
