"""Hom-associative carriers and executable axiom checks.

A carrier is described by its exact element operations plus a sampler; the
constructors here produce the free algebra on named generators, polynomial
carriers, their Yau twists along substitutions (Hom-associative by
construction), and 2x2 matrix carriers.  Twisting a strictly unital algebra
along a non-identity endomorphism only leaves a weak unit (1 * x gives the
twisted image of x), so descriptors record which unit law is actually
asserted instead of pretending.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from . import poly
from .reports import CheckReport
from .terms import InputError, LinComb, as_coeff, make_leaf, random_lincomb


class UnitFlavor(Enum):
    STRICT_UNITAL = "STRICT_UNITAL"
    WEAK_UNITAL = "WEAK_UNITAL"
    NON_UNITAL = "NON_UNITAL"


class PreconditionError(InputError, ValueError):
    """A constructor precondition failed; the witness is in the message."""
    prefix = "precondition failed"


def _identity(x):
    return x


@dataclass(frozen=True)
class HomAlgebraDescriptor:
    """A carrier with exact operations, a distinguished twist map, and a sampler.

    The operations default to Python's operators, the twist map to the
    identity and ``fmt`` to ``str``.  Carrier elements are hashable, and
    ``==`` between two of them implies their equality in the carrier (``eq``
    may be coarser, never finer): ``morphisms.evaluate`` numbers values
    through ``hash`` and ``==``.
    """
    name: str
    zero: object
    add: Callable = operator.add
    scale: Callable = operator.mul    # (coefficient, elem) -> elem
    mul: Callable = operator.mul
    alpha: Callable = _identity
    eq: Callable = operator.eq
    unit: object = None
    unit_flavor: UnitFlavor = UnitFlavor.NON_UNITAL
    sweep: tuple = ()
    rand: Optional[Callable] = None       # rng -> elem
    fmt: Callable = str

    def sub(self, x, y):
        return self.add(x, self.scale(-1, y))

    def alpha_pow(self, x, k: int):
        for _ in range(k):
            x = self.alpha(x)
        return x


_TRIPLE_SWEEP_CAP = 1000


def _tuples(A: HomAlgebraDescriptor, width: int, count: int, seed: int):
    """Deterministic test tuples: exhaustive sweep tuples (capped), then
    seeded random tuples up to ``count``."""
    out = []
    if A.sweep and len(A.sweep) ** width <= _TRIPLE_SWEEP_CAP:
        out = list(product(A.sweep, repeat=width))
    rng = random.Random(seed)
    if A.rand is not None:
        while len(out) < count:
            out.append(tuple(A.rand(rng) for _ in range(width)))
    return out


def _sampled_identity(A: HomAlgebraDescriptor, law: str, width: int, count: int, seed: int,
                      sides: Callable) -> CheckReport:
    """``lhs == rhs`` for ``lhs, rhs = sides(x, y[, z])`` on sampled tuples."""
    bad = []
    samples = _tuples(A, width, count, seed)
    for xs in samples:
        lhs, rhs = sides(*xs)
        if not A.eq(lhs, rhs):
            named = ", ".join(f"{n}={A.fmt(x)}" for n, x in zip("xyz", xs))
            bad.append(f"{named}: {A.fmt(lhs)} != {A.fmt(rhs)}")
    return CheckReport(law, len(samples), bad, seed)


def check_hom_associative(A: HomAlgebraDescriptor, count: int = 100, seed: int = 0) -> CheckReport:
    """(x y) alpha(z) = alpha(x) (y z) on sampled triples."""
    return _sampled_identity(A, "hom_associativity", 3, count, seed, lambda x, y, z: (
        A.mul(A.mul(x, y), A.alpha(z)), A.mul(A.alpha(x), A.mul(y, z))))


def check_multiplicative(A: HomAlgebraDescriptor, count: int = 100, seed: int = 0) -> CheckReport:
    """alpha(x y) = alpha(x) alpha(y) on sampled pairs."""
    return _sampled_identity(A, "multiplicativity", 2, count, seed, lambda x, y: (
        A.alpha(A.mul(x, y)), A.mul(A.alpha(x), A.alpha(y))))


def check_unital(A: HomAlgebraDescriptor, count: int = 100, seed: int = 0) -> CheckReport:
    """1 x = x = x 1 on sampled elements (strict unit law)."""
    if A.unit is None:
        return CheckReport("unitality", 0, ["carrier has no distinguished unit"], seed)
    bad = []
    elems = [t[0] for t in _tuples(A, 1, count, seed)]
    for x in elems:
        left = A.mul(A.unit, x)
        right = A.mul(x, A.unit)
        if not A.eq(left, x):
            bad.append(f"1 * {A.fmt(x)} = {A.fmt(left)}")
        elif not A.eq(right, x):
            bad.append(f"{A.fmt(x)} * 1 = {A.fmt(right)}")
    return CheckReport("unitality", len(elems), bad, seed)


# ---------------------------------------------------------------------------
# the free algebra, polynomial carriers and twists
# ---------------------------------------------------------------------------

def free_algebra(gens=()) -> HomAlgebraDescriptor:
    """The free multiplicative Hom-associative algebra on named generators
    (elements are LinCombs); its sweep is the generators."""
    if len(set(gens)) != len(gens):
        raise ValueError(f"generator names must be distinct: {gens}")
    gens = tuple(sorted(gens))
    return HomAlgebraDescriptor(
        name="F<" + ",".join(gens) + ">",
        zero=LinComb.zero(),
        alpha=LinComb.alpha,
        unit=LinComb.one(),
        unit_flavor=UnitFlavor.STRICT_UNITAL,
        sweep=tuple(make_leaf(g) for g in gens),
        rand=lambda rng: random_lincomb(rng, gens),
    )


def rational_algebra() -> HomAlgebraDescriptor:
    """The ground field as a carrier (alpha = id)."""
    return HomAlgebraDescriptor(
        name="Q",
        zero=Fraction(0),
        unit=Fraction(1),
        unit_flavor=UnitFlavor.STRICT_UNITAL,
        sweep=(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)),
        rand=lambda rng: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
    )


def poly_algebra(names) -> HomAlgebraDescriptor:
    """Classical commutative polynomial carrier on the given variables; its
    sweep is the monomials of degree at most 2."""
    names = tuple(sorted(names))
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    return HomAlgebraDescriptor(
        name="Q[" + ",".join(names) + "]",
        zero=poly.Poly.zero(),
        unit=poly.Poly.one(),
        unit_flavor=UnitFlavor.STRICT_UNITAL,
        sweep=tuple(poly.monomials_up_to(names, 2)),
        rand=lambda rng: poly.random_poly(rng, names),
    )


def yau_twist_algebra(names, phi, phi_name: str = "phi") -> HomAlgebraDescriptor:
    """Yau's twist of the polynomial carrier on ``names`` along the
    substitution ``phi``: the product becomes phi after the polynomial
    product, and the twist map becomes phi.

    A substitution is an algebra endomorphism, and a polynomial ring is
    associative with twist map the identity, so the twist is multiplicative
    Hom-associative by Yau's twisting principle, with nothing left to check.
    The identity substitution returns the classical carrier; any other leaves
    the unit only weak.
    """
    if not isinstance(phi, poly.PolyEndo):
        raise PreconditionError(
            f"a twist must be a PolyEndo substitution, not {type(phi).__name__}")
    A = poly_algebra(names)
    if phi.is_identity_on(names):
        return A
    return replace(A, name=f"{A.name} twisted by {phi_name}",
                   mul=lambda x, y: phi(x * y), alpha=phi,
                   unit_flavor=UnitFlavor.WEAK_UNITAL)


def q_poly_algebra(q, var: str = "t") -> HomAlgebraDescriptor:
    """The one-variable carrier twisted along t -> q t."""
    phi = poly.PolyEndo({var: as_coeff(q) * poly.Poly.var(var)})
    return yau_twist_algebra([var], phi, phi_name=f"{var}->{q}{var}")


# ---------------------------------------------------------------------------
# 2x2 matrices over a carrier
# ---------------------------------------------------------------------------

def matrix_algebra(A: HomAlgebraDescriptor) -> HomAlgebraDescriptor:
    """2x2 matrices over a multiplicative Hom-associative carrier.

    Products are matrix products with entry sums in the carrier, the twist map
    acts entrywise, and the diagonal of the carrier unit is the distinguished
    unit (strict only when the carrier unit is strict).
    """
    def mat(fill):
        return ((fill(0, 0), fill(0, 1)), (fill(1, 0), fill(1, 1)))

    def add(X, Y):
        return mat(lambda i, j: A.add(X[i][j], Y[i][j]))

    def mul(X, Y):
        return mat(lambda i, j: A.add(A.mul(X[i][0], Y[0][j]), A.mul(X[i][1], Y[1][j])))

    zero = mat(lambda i, j: A.zero)
    unit = None
    if A.unit is not None:
        unit = mat(lambda i, j: A.unit if i == j else A.zero)

    def fmt(X):
        return "[[%s, %s], [%s, %s]]" % (
            A.fmt(X[0][0]), A.fmt(X[0][1]), A.fmt(X[1][0]), A.fmt(X[1][1]))

    return HomAlgebraDescriptor(
        name=f"M2({A.name})",
        zero=zero,
        add=add,
        scale=lambda c, X: mat(lambda i, j: A.scale(c, X[i][j])),
        mul=mul,
        alpha=lambda X: mat(lambda i, j: A.alpha(X[i][j])),
        eq=lambda X, Y: all(A.eq(X[i][j], Y[i][j]) for i in range(2) for j in range(2)),
        unit=unit,
        unit_flavor=A.unit_flavor if unit is not None else UnitFlavor.NON_UNITAL,
        rand=(lambda rng: mat(lambda i, j: A.rand(rng))) if A.rand else None,
        fmt=fmt,
    )
