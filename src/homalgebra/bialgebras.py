"""Comultiplications, coactions, and the one law engine that checks them.

Every carrier is data: its generator names and their comultiplication or
coaction images, held at fixed tensor legs (a comodule also holds its
bialgebra).  Free and polynomial carriers take the same fields.  Free
carriers hold the images in one larger free algebra (legs are apostrophe
tags on generator names) and laws are decided by the congruence oracle.
Concrete commutative carriers hold them as polynomials in tagged variables,
with one twist, and laws are exact polynomial identities.

Each law is stated once, for every carrier: two composites of generator
assignments applied to the same elements, or a structure map compared
against the doubled carrier's product or twist.  The carrier supplies the
pieces (see ``_Carrier``) and its ``decide(lhs, rhs)`` verdict.

The central objects: the four-generator free bialgebra whose comultiplication
is the 2x2 matrix product of a primed and a double-primed copy; the free
plane on x, y with its matrix coaction; their classical polynomial versions;
and the twists of the classical versions along scaling endomorphisms.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from . import congruence, grammar, morphisms, poly
from .algebras import (HomAlgebraDescriptor, PreconditionError, free_algebra,
                       matrix_algebra, poly_algebra, yau_twist_algebra)
from .reports import LawReport, law_report
from .terms import LinComb, as_coeff, make_leaf, random_lincomb, rename

MATRIX_LAYOUT = (("a", "b"), ("c", "d"))
PLANE_GENS = ("x", "y")

# evaluation target for every free composite (elements are LinCombs)
_FREE_TARGET = free_algebra()


def _tagged(names, *tags: str) -> list[str]:
    return [n + t for t in tags for n in names]


def _keyed(images: dict, tag: str) -> dict:
    """Generator images keyed by the generators' names in the leg ``tag``."""
    return {g + tag: v for g, v in images.items()}


# ---------------------------------------------------------------------------
# the law engine
# ---------------------------------------------------------------------------

def exact(lhs, rhs):
    """Verdict of an identity that must hold before any quotient."""
    return ("EQUAL" if lhs == rhs else "NOT_EQUAL"), None


def _window(bound, config, unital: bool = True) -> tuple:
    """The window a law saturates: ``bound`` and ``config``, or where the
    caller gives none, ``Bound(3, 1)`` and the unital relation set (the
    non-unital one if ``unital`` is false).  Built only by a carrier that
    saturates: one that decides exactly never loads ``congruence``."""
    return (congruence.Bound(3, 1) if bound is None else bound,
            congruence.SaturationConfig(unital) if config is None else config)


class _Carrier:
    """What a law asks of a carrier.

    ``gens`` name the generators and ``element`` makes one.  A bialgebra
    holds ``delta_images`` in the legs ' and ''; a comodule holds its
    bialgebra ``H`` and ``coaction_images`` in the legs ``coaction_legs``;
    ``relabel(images, mapping)`` moves held images to other legs.  ``mul`` and
    ``alpha`` are the carrier's product and twist, ``tensor_mul`` and
    ``tensor_alpha`` those of the doubled carrier the comultiplication or
    coaction lands in; ``retag`` moves an element into a tensor leg and
    ``compose`` extends a generator assignment to an element;
    ``oracle(gens, bound, config, unital)`` saturates the window on
    ``gens`` (see ``_window``) and returns its ``decide(lhs, rhs)`` with the
    report context, and ``fmt`` prints.
    """

    def delta_at(self, t1: str, t2: str) -> dict:
        """The comultiplication images with the legs moved to ``t1``, ``t2``."""
        if t1 == t2:
            raise morphisms.NamingError("tensor legs need distinct tags")
        return self.relabel(self.delta_images, {
            g + old: g + new for g in self.gens for old, new in (("'", t1), ("''", t2))})

    def delta(self, v, t1: str = "'", t2: str = "''"):
        """Morphism extension of the comultiplication to any element."""
        return self.compose(v, self.delta_at(t1, t2))

    def coaction_at(self, h_tag: str, a_tag: str) -> dict:
        """The coaction images, bialgebra generators in the leg ``h_tag``
        and carrier generators in the leg ``a_tag``."""
        h_leg, a_leg = self.coaction_legs
        mapping = {**{h + h_leg: h + h_tag for h in self.H.gens},
                   **{x + a_leg: x + a_tag for x in self.gens}}
        if len(set(mapping.values())) != len(mapping):
            raise morphisms.NamingError(f"legs collide under tags {h_tag!r}, {a_tag!r}")
        return self.relabel(self.coaction_images, mapping)

    def coaction(self, v, h_tag: str, a_tag: str):
        """Morphism extension of the coaction to any element."""
        return self.compose(v, self.coaction_at(h_tag, a_tag))

    def generators(self) -> list:
        return [(g, self.element(g)) for g in self.gens]

    def twist_samples(self) -> list:
        """The elements of the comultiplicativity law."""
        return self.generators()

    def twist_into(self, g: str, tag: str):
        """The twist of a generator, placed in the leg ``tag``."""
        return self.retag(self.alpha(self.element(g)), tag)


class _FreeCarrier(_Carrier):
    """Free carriers: composites evaluate into the tagged free algebra and
    laws modulo the congruence go to the oracle."""
    element = staticmethod(make_leaf)
    mul = tensor_mul = staticmethod(operator.mul)
    alpha = tensor_alpha = staticmethod(LinComb.alpha)
    coaction_legs = ("'", "''")
    gen_pairs: Optional[int] = None   # default pairs: this many generator pairs
    random_pairs = 0                  # then this many seeded random pairs

    def __post_init__(self):
        if len(set(self.gens)) != len(self.gens):
            raise ValueError(f"generator names must be distinct: {self.gens}")

    @property
    def context(self) -> dict:
        return {"carrier": "free"}

    @staticmethod
    def fmt(v: LinComb) -> str:
        return grammar.format_lincomb(v)

    @staticmethod
    def retag(v: LinComb, tag: str) -> LinComb:
        return morphisms.rename_embed(v, tag)

    @staticmethod
    def relabel(images: dict, mapping: dict) -> dict:
        return {g: rename(v, mapping) for g, v in images.items()}

    @staticmethod
    def compose(v: LinComb, images: dict) -> LinComb:
        return morphisms.evaluate(v, morphisms.MorphismAssignment(_FREE_TARGET, images))

    @staticmethod
    def oracle(gens, bound, config, unital: bool = True):
        basis = congruence.saturate(gens, *_window(bound, config, unital))
        return basis.decide, basis.describe()

    def pairs(self, seed: int) -> list:
        """Generator pairs, then seeded random pairs of short sums."""
        pairs = [(f"{g}*{h}", self.element(g), self.element(h))
                 for g in self.gens for h in self.gens][:self.gen_pairs]
        rng = random.Random(seed)
        for k in range(self.random_pairs):
            pairs.append((f"random_{k}", random_lincomb(rng, self.gens, 1, 0, 2),
                          random_lincomb(rng, self.gens, 1, 0, 2)))
        return pairs


class _PolyCarrier(_Carrier):
    """Concrete polynomial carriers: composites are substitutions and every
    law is an exact identity.  A twisted carrier holds its one ``twist``:
    the product is the twist after the polynomial product, and the held
    images are the effective ones (the twist, then the classical map)."""
    fmt = staticmethod(str)
    coaction_legs = ("", "")

    @staticmethod
    def element(name: str) -> poly.Poly:
        return poly.Poly.var(name)

    @cached_property
    def algebra(self) -> HomAlgebraDescriptor:
        """The carrier's descriptor, for its name and its sampling sweep: the
        polynomial carrier on ``gens``, Yau-twisted along ``twist`` if any."""
        return yau_twist_algebra(self.gens, self.twist) if self.twist else poly_algebra(self.gens)

    @property
    def context(self) -> dict:
        return {"carrier": self.algebra.name}

    def alpha(self, p: poly.Poly) -> poly.Poly:
        return self.twist(p) if self.twist else p

    def mul(self, p: poly.Poly, q: poly.Poly) -> poly.Poly:
        return self.alpha(p * q)

    def tensor_mul(self, p: poly.Poly, q: poly.Poly) -> poly.Poly:
        return self.tensor_alpha(p * q)

    def retag(self, p: poly.Poly, tag: str) -> poly.Poly:
        return p.substitute({u: poly.Poly.var(u + tag) for u in self.gens}) if tag else p

    @staticmethod
    def relabel(images: dict, mapping: dict) -> dict:
        names = {old: poly.Poly.var(new) for old, new in mapping.items()}
        return {g: p.substitute(names) for g, p in images.items()}

    @staticmethod
    def compose(p: poly.Poly, images: dict) -> poly.Poly:
        return p.substitute(images)

    def oracle(self, gens, bound, config, unital: bool = True):
        return exact, self.context

    def pairs(self, seed: int) -> list:
        sweep = self.algebra.sweep[:8]
        return [(f"{p}|{q}", p, q) for p in sweep for q in sweep]


# ---------------------------------------------------------------------------
# free carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeHomBialgebra(_FreeCarrier):
    """A free carrier with a comultiplication given on generators.

    ``delta_images`` live in the merged free algebra on the generators tagged
    with one and with two apostrophes (left and right tensor leg).
    """
    gens: tuple
    delta_images: dict
    gen_pairs = 6
    random_pairs = 4

    def twist_samples(self) -> list:
        rng = random.Random(5)
        return self.generators() + [
            (f"random_{k}", random_lincomb(rng, self.gens, 2, 1)) for k in range(4)]


def _matrix_product(entry) -> dict:
    """Row-by-column product of the '-tagged by the ''-tagged copy of the
    matrix layout, with the entries made by ``entry``."""
    left = [[entry(g + "'") for g in row] for row in MATRIX_LAYOUT]
    right = [[entry(g + "''") for g in row] for row in MATRIX_LAYOUT]
    images = {}
    for i in range(2):
        for j in range(2):
            images[MATRIX_LAYOUT[i][j]] = left[i][0] * right[0][j] + left[i][1] * right[1][j]
    return images


def _plane_coaction(entry, h_tag: str, a_tag: str) -> dict:
    """Each plane generator to its matrix row times the plane column."""
    return {x: entry(row[0] + h_tag) * entry(PLANE_GENS[0] + a_tag)
            + entry(row[1] + h_tag) * entry(PLANE_GENS[1] + a_tag)
            for x, row in zip(PLANE_GENS, MATRIX_LAYOUT)}


def m_bialgebra() -> FreeHomBialgebra:
    """The free carrier on a, b, c, d with the matrix comultiplication."""
    return FreeHomBialgebra(tuple(g for row in MATRIX_LAYOUT for g in row),
                            _matrix_product(make_leaf))


@dataclass(frozen=True)
class FreeComoduleAlgebra(_FreeCarrier):
    """A free carrier coacted on by a free bialgebra.

    ``coaction_images`` live in the merged free algebra on the bialgebra
    generators tagged with one apostrophe and the carrier generators tagged
    with two (``coaction_legs``; law checks relabel as needed).
    """
    H: FreeHomBialgebra
    gens: tuple
    coaction_images: dict
    random_pairs = 3
    alpha_rho_first = False


def hom_affine_plane() -> FreeComoduleAlgebra:
    """The free plane on x, y with the matrix coaction of the free bialgebra."""
    return FreeComoduleAlgebra(m_bialgebra(), PLANE_GENS,
                               _plane_coaction(make_leaf, "'", "''"))


# ---------------------------------------------------------------------------
# the laws, stated once for every carrier
# ---------------------------------------------------------------------------

def coassoc_composites(B) -> tuple[dict, dict]:
    """(Delta (x) alpha) and (alpha (x) Delta) as assignments on the legs
    ' and '', landing in the legs ', '' and '''."""
    twist = lambda tag: {g: B.twist_into(g, tag) for g in B.gens}
    return ({**_keyed(B.delta_at("'", "''"), "'"), **_keyed(twist("'''"), "''")},
            {**_keyed(twist("'"), "'"), **_keyed(B.delta_at("''", "'''"), "''")})


def _composite_cases(C, first, left: dict, right: dict, elements, decide):
    """Each element through ``first``, then through both assignments."""
    for label, e in elements:
        d = first(e)
        yield label, C.compose(d, left), C.compose(d, right), decide


def check_hom_coassoc(B, elements=None, bound: congruence.Bound | None = None,
                      config: congruence.SaturationConfig | None = None) -> LawReport:
    """Twisted coassociativity (Delta (x) alpha) Delta = (alpha (x) Delta) Delta.

    Both composites land in the triple-tagged legs; a free carrier compares
    them by the oracle on that window (by default ``Bound(3, 1)``, unital),
    a concrete one exactly.
    """
    decide, context = B.oracle(_tagged(B.gens, "'", "''", "'''"), bound, config)
    left, right = coassoc_composites(B)
    return law_report("hom_coassociativity", context, B.fmt, _composite_cases(
        B, B.delta, left, right, elements or B.generators(), decide))


def check_comultiplicative(B) -> LawReport:
    """Compatibility of the twist with the comultiplication (exact)."""
    return law_report("comultiplicativity", B.context, B.fmt, (
        (label, B.delta(B.alpha(e)), B.tensor_alpha(B.delta(e)), exact)
        for label, e in B.twist_samples()))


def check_delta_is_morphism(B, bound: congruence.Bound | None = None,
                            config: congruence.SaturationConfig | None = None,
                            seed: int = 9) -> LawReport:
    """The comultiplication respects products (free: modulo the congruence,
    by default at ``Bound(3, 1)``, non-unital)."""
    decide, context = B.oracle(_tagged(B.gens, "'", "''"), bound, config, unital=False)
    return law_report("comultiplication_is_algebra_morphism", context, B.fmt, (
        (label, B.delta(B.mul(u, v)), B.tensor_mul(B.delta(u), B.delta(v)), decide)
        for label, u, v in B.pairs(seed)))


def check_comodule(C, bound: congruence.Bound | None = None,
                   config: congruence.SaturationConfig | None = None) -> LawReport:
    """The twisted comodule law (Delta (x) alpha) rho = (alpha (x) rho) rho.

    Both composites land in the bialgebra legs ' and '' next to the bare
    carrier generators; a free carrier decides by default at ``Bound(3, 1)``,
    unital.
    """
    H = C.H
    decide, context = C.oracle(_tagged(H.gens, "'", "''") + list(C.gens), bound, config)
    delta_alpha = {**_keyed(H.delta_at("'", "''"), "'"),
                   **{x: C.twist_into(x, "") for x in C.gens}}
    alpha_rho = {**{h + "'": H.twist_into(h, "'") for h in H.gens},
                 **C.coaction_at("''", "")}
    left, right = ((alpha_rho, delta_alpha) if C.alpha_rho_first
                   else (delta_alpha, alpha_rho))
    return law_report("comodule_law", context, C.fmt, _composite_cases(
        C, partial(C.coaction, h_tag="'", a_tag=""), left, right,
        C.generators(), decide))


def check_comodule_homalgebra(C, bound: congruence.Bound | None = None,
                              config: congruence.SaturationConfig | None = None,
                              seed: int = 13) -> LawReport:
    """The coaction respects products and the twist (free: modulo the
    congruence, by default at ``Bound(3, 1)``, non-unital)."""
    decide, context = C.oracle(_tagged(C.H.gens, "'") + _tagged(C.gens, "''"),
                               bound, config, unital=False)
    rho = lambda v: C.coaction(v, *C.coaction_legs)

    def cases():
        for label, u, v in C.pairs(seed):
            yield (f"product {label}", rho(C.mul(u, v)),
                   C.tensor_mul(rho(u), rho(v)), decide)
            yield (f"twist {label}", rho(C.alpha(u)), C.tensor_alpha(rho(u)), exact)
    return law_report("coaction_is_algebra_morphism", context, C.fmt, cases())


def representability_check(A: HomAlgebraDescriptor, X, Y) -> LawReport:
    """Pulling a pair of matrices back along the matrix comultiplication
    reproduces the matrix product in the carrier, entry by entry."""
    B = m_bialgebra()
    assignment = morphisms.MorphismAssignment(A, {
        **_keyed(morphisms.morphism_from_matrix(A, X).images, "'"),
        **_keyed(morphisms.morphism_from_matrix(A, Y).images, "''")})
    expected = matrix_algebra(A).mul(X, Y)
    decide = lambda got, want: (("EQUAL" if A.eq(got, want) else "NOT_EQUAL"), None)
    return law_report("matrix_representability", {"carrier": A.name}, A.fmt, (
        (f"entry ({i + 1},{j + 1})",
         morphisms.evaluate(B.delta_images[MATRIX_LAYOUT[i][j]], assignment),
         expected[i][j], decide) for i in range(2) for j in range(2)))


# ---------------------------------------------------------------------------
# concrete polynomial carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyHomBialgebra(_PolyCarrier):
    """A polynomial bialgebra, possibly twisted along an endomorphism.

    ``delta_images[v]`` is the effective comultiplication of ``v``: the
    classical one of ``twist(v)``, in doubled variables (legs tagged with one
    and two apostrophes).
    """
    gens: tuple
    delta_images: dict
    twist: Optional[poly.PolyEndo] = None

    @cached_property
    def tensor_alpha(self) -> poly.PolyEndo:
        """The twist acting on both legs of the doubled variables."""
        return poly.PolyEndo({v + t: self.twist_into(v, t)
                              for t in ("'", "''") for v in self.gens})


def classical_m2_bialgebra() -> PolyHomBialgebra:
    """The coordinate bialgebra of 2x2 matrices on a, b, c, d."""
    names = tuple(g for row in MATRIX_LAYOUT for g in row)
    return PolyHomBialgebra(names, _matrix_product(poly.Poly.var))


@dataclass(frozen=True)
class PolyComoduleAlgebra(_PolyCarrier):
    """A polynomial carrier coacted on by a polynomial bialgebra.

    ``coaction_images[x]`` is the effective coaction of ``x``: the classical
    one of ``twist(x)``, in the union variables (bialgebra variables and
    carrier variables are disjoint names).
    """
    H: PolyHomBialgebra
    gens: tuple
    coaction_images: dict
    twist: Optional[poly.PolyEndo] = None
    alpha_rho_first = True   # the comodule law reports (alpha (x) rho) rho as lhs

    def __post_init__(self):
        clash = set(self.H.gens) & set(self.gens)
        if clash:
            raise morphisms.NamingError(
                f"carrier variables collide with the bialgebra's: {sorted(clash)}")

    @cached_property
    def tensor_alpha(self) -> poly.PolyEndo:
        """The twist on the mixed carrier (bialgebra legs and carrier legs)."""
        return poly.PolyEndo({**{v: self.H.twist_into(v, "") for v in self.H.gens},
                         **{x: self.twist_into(x, "") for x in self.gens}})


def classical_affine_comodule() -> PolyComoduleAlgebra:
    """The plane on x, y with the classical matrix coaction."""
    return PolyComoduleAlgebra(classical_m2_bialgebra(), PLANE_GENS,
                               _plane_coaction(poly.Poly.var, "", ""))


# ---------------------------------------------------------------------------
# twisting classical structures
# ---------------------------------------------------------------------------

def yau_twist_bialgebra(B: PolyHomBialgebra, phi: poly.PolyEndo) -> PolyHomBialgebra:
    """Twist a classical polynomial bialgebra along a bialgebra endomorphism:
    the product gains phi after, the comultiplication gains phi before.
    phi must preserve the comultiplication, checked on the generators (both
    sides are substitutions) with a witness on failure; the checked sides
    delta(phi(v)) are the twisted images."""
    if B.twist is not None:
        raise PreconditionError("twisting starts from a classical bialgebra")
    twisted = replace(B, twist=phi)
    images = {}
    for v in B.gens:
        lhs = B.delta(phi(poly.Poly.var(v)))
        rhs = twisted.tensor_alpha(B.delta_images[v])
        if lhs != rhs:
            raise PreconditionError(
                f"comultiplication not preserved at {v}: "
                f"delta(phi) = {lhs} but (phi x phi)(delta) = {rhs}")
        images[v] = lhs
    if phi.is_identity_on(B.gens):
        return B
    return replace(twisted, delta_images=images)


def twist_comodule(H: PolyHomBialgebra, C: PolyComoduleAlgebra,
                   phi_H: poly.PolyEndo, phi_A: poly.PolyEndo) -> PolyComoduleAlgebra:
    """Twist a classical comodule algebra along compatible endomorphisms.

    Compatibility demands that the coaction intertwines the carrier twist
    with the pair of twists; it is checked exactly on the carrier generators
    and reported with a witness when it fails.  The left-hand sides
    rho(phi_A(x)) are the twisted images.
    """
    if C.twist is not None or H.twist is not None:
        raise PreconditionError("twisting starts from classical structures")
    twisted = replace(C, H=yau_twist_bialgebra(H, phi_H), twist=phi_A)
    images, witnesses = {}, []
    for x in C.gens:
        lhs = images[x] = C.coaction(phi_A(poly.Poly.var(x)), "", "")
        rhs = twisted.tensor_alpha(C.coaction_images[x])
        if lhs != rhs:
            witnesses.append(
                f"generator {x}: rho(phi_A({x})) = {lhs} "
                f"but (phi_H x phi_A)(rho({x})) = {rhs}")
    if witnesses:
        raise PreconditionError(
            "coaction compatibility fails on " + "; ".join(witnesses))
    if phi_H.is_identity_on(H.gens) and phi_A.is_identity_on(C.gens):
        return C
    return replace(twisted, coaction_images=images)


def lambda_scaling_pair(lam) -> tuple[poly.PolyEndo, poly.PolyEndo]:
    """The scaling fixtures: b and the second plane variable scale by lam
    and 1/lam in the compatible pattern; lam must be an exact rational (see
    ``terms.as_coeff``) and invertible."""
    lam = as_coeff(lam)
    if lam == 0:
        raise PreconditionError("scaling parameter must be invertible (nonzero)")
    inverse = Fraction(1, lam)
    scale = {"a": 1, "b": lam, "c": inverse, "d": 1, "x": 1, "y": inverse}
    phi = lambda names: poly.PolyEndo({v: scale[v] * poly.Poly.var(v) for v in names})
    return phi("abcd"), phi(PLANE_GENS)
