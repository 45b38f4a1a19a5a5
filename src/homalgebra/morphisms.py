"""Morphisms out of the free algebra: evaluation, the matrix bijection, and
tensor-leg tagging.

A generator assignment into any carrier extends uniquely to the whole free
algebra: a leaf with exponent k maps to the k-fold twist of the generator
image, products go to carrier products, and the unit component lands on the
carrier unit.  Tensor legs of free carriers are realized by renaming
generators with trailing apostrophes inside one larger free algebra
(``rename_embed``); the free carriers hold their comultiplication and
coaction images there, at fixed legs.
"""

from __future__ import annotations

from .algebras import HomAlgebraDescriptor, UnitFlavor
from .terms import FrozenRecord, Leaf, LinComb, Term, rename


class UnitMismatchError(ValueError):
    """Nonzero unit component evaluated into a carrier without a strict unit."""


class AssignmentError(KeyError):
    """A generator has no image under the assignment."""


class NamingError(ValueError):
    """Tensor-leg tags collide on the combined generator set."""


class MorphismAssignment(FrozenRecord):
    """A generator-to-element assignment into a carrier."""
    __slots__ = ("target", "images")

    def __init__(self, target: HomAlgebraDescriptor, images: dict):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def image(self, name: str):
        try:
            return self.images[name]
        except KeyError:
            raise AssignmentError(f"no image assigned for generator {name!r}")


# the memo's entry for the value tables, beside its term entries
_VALUES = object()


def evaluate(v: LinComb, m: MorphismAssignment, memo: dict | None = None):
    """Extend the assignment to ``v``: leaves through twisted images, products
    through the carrier product, the unit component onto the carrier unit.

    Each carrier value is computed once.  Values are numbered by the
    carrier's ``hash`` and ``==``, so terms with equal values share a number;
    a product is computed once per pair of operand numbers, and the
    coefficients of terms with one number are added before any carrier
    arithmetic (a sum of 0 costs nothing, a sum of 1 is not scaled).

    ``memo`` holds the value numbers of the terms met and the tables behind
    them; it is opaque to callers.  Pass one dict across calls when
    evaluating many elements under the same assignment."""
    target = m.target
    if v.unit and target.unit_flavor is not UnitFlavor.STRICT_UNITAL:
        raise UnitMismatchError(
            f"unit component {v.unit} cannot map into {target.name} "
            f"({target.unit_flavor.value})")
    if memo is None:
        memo = {}
    tables = memo.get(_VALUES)
    if tables is None:
        tables = memo[_VALUES] = ([], {}, {})
    values, numbers, products = tables

    def number(value) -> int:
        n = numbers.get(value)
        if n is None:
            n = numbers[value] = len(values)
            values.append(value)
        return n

    def of_term(t: Term) -> int:
        n = memo.get(t)
        if n is None:
            if isinstance(t, Leaf):
                n = number(target.alpha_pow(m.image(t.name), t.exp))
            else:
                a, b = of_term(t.left), of_term(t.right)
                # the ordered pair as one int (Szudzik's pairing): a smaller
                # key than a tuple, for a table as long as the distinct pairs
                key = a * a + a + b if a >= b else b * b + a
                n = products.get(key)
                if n is None:
                    n = products[key] = number(target.mul(values[a], values[b]))
            memo[t] = n
        return n

    coeffs = {}
    for t, c in v.terms.items():
        n = memo.get(t)
        if n is None:
            n = of_term(t)
        coeffs[n] = coeffs.get(n, 0) + c  # re-keyed, one entry at a time; zeros skipped below
    # the recursive closure refers to itself: emptying its cell frees it now,
    # where a cycle per call would wait for the garbage collector
    del of_term
    # an exact sum does not depend on the order of its terms
    acc = target.scale(v.unit, target.unit) if v.unit else None
    for n, c in coeffs.items():
        if c:
            value = values[n] if c == 1 else target.scale(c, values[n])
            acc = value if acc is None else target.add(acc, value)
    return target.zero if acc is None else acc


# ---------------------------------------------------------------------------
# the 2x2 matrix bijection on the four-generator free algebra
# ---------------------------------------------------------------------------

def morphism_from_matrix(target: HomAlgebraDescriptor, M) -> MorphismAssignment:
    """Entries of a 2x2 carrier matrix as the images of a, b, c, d, row-major."""
    (m11, m12), (m21, m22) = M
    return MorphismAssignment(target, {"a": m11, "b": m12, "c": m21, "d": m22})


def matrix_of_morphism(m: MorphismAssignment):
    return ((m.image("a"), m.image("b")), (m.image("c"), m.image("d")))


# ---------------------------------------------------------------------------
# tensor legs by generator tagging
# ---------------------------------------------------------------------------

def rename_embed(v: LinComb, tag: str) -> LinComb:
    """Relabel every generator with a trailing prime tag (empty = identity)."""
    if any(ch != "'" for ch in tag):
        raise NamingError(f"leg tags are apostrophe strings, got {tag!r}")
    if not tag:
        return v
    return rename(v, lambda name: name + tag)
