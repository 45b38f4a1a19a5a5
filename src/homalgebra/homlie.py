"""Hom-Lie algebras on named bases, commutator checks, and bounded
enveloping models.

A Hom-Lie algebra is held as the images its envelope saturates: the bracket
of two basis elements and the twist of one, each a combination of
exponent-free basis leaves.  Its enveloping model reuses the free term
algebra with one leaf per basis element (no leaf exponents: the twist acts
through those images, eagerly and linearly), saturating the congruence with
the bracket relations

    e_i e_j - e_j e_i - [e_i, e_j]

next to the Hom-associators.  The primitive comultiplication sends a basis
element to its twist in the left leg plus its twist in the right leg.  The
envelope carrier decides its laws in the envelope of the direct sum of
copies of the algebra, one per apostrophe-tagged leg, which it saturates
itself, as the free carriers do; cross-leg commutation really is part of
that envelope's ideal (cross brackets vanish).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import poly
from .algebras import HomAlgebraDescriptor, PreconditionError, _tuples
from .bialgebras import (_FreeCarrier, _window, check_comultiplicative,
                         check_delta_is_morphism, check_hom_coassoc,
                         coassoc_composites, exact)
from .congruence import Bound, RelationBasis, SaturationConfig, saturate
from .reports import CheckReport, LawReport, law_report
from .terms import (Leaf, LinComb, make_leaf, parse_natural, read_descriptor, read_names,
                    rename, weight)


@dataclass(frozen=True)
class HomLieAlgebra:
    """A Hom-Lie algebra on the basis ``names``: ``brackets[(a, b)]`` is the
    bracket of the basis elements a and b (an absent pair brackets to zero)
    and ``twist[a]`` the twist of a, each a combination of exponent-free
    basis leaves.  ``bracket``, ``alpha`` and ``fmt`` act on such
    combinations."""
    names: tuple[str, ...]
    brackets: dict
    twist: dict

    def bracket(self, u: LinComb, v: LinComb) -> LinComb:
        zero = LinComb.zero()
        return sum((cs * ct * self.brackets.get((s.name, t.name), zero)
                    for s, cs in u.terms.items() for t, ct in v.terms.items()), zero)

    def alpha(self, v: LinComb) -> LinComb:
        return sum((c * self.twist[t.name] for t, c in v.terms.items()), LinComb.zero())

    def fmt(self, v: LinComb) -> str:
        bits = []
        for name in self.names:
            c = v.terms.get(Leaf(name), 0)
            if c == 1:
                bits.append(name)
            elif c:
                bits.append(f"{c}*{name}")
        return " + ".join(bits) if bits else "0"


def hom_lie_algebra(names, brackets: dict, alpha: dict) -> HomLieAlgebra:
    """Build from named data: ``brackets[(a, b)]`` and ``alpha[a]`` are
    coordinate dicts keyed by basis names.  Skew fills the missing half, and
    a name without an ``alpha`` entry is fixed by the twist."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate basis names: {names}")

    def known(keys, where: str):
        for key in keys:
            if key not in names:
                raise ValueError(f"unknown basis name {key!r} in {where}")

    def combination(coords: dict, where: str) -> LinComb:
        known(coords, where)
        return LinComb(0, {Leaf(n): coords[n] for n in names if n in coords})

    table = {}
    for (a, b), coords in brackets.items():
        known((a, b), "a bracket pair")
        # skew symmetry fills in the reversed pair, so it is the same bracket
        if (a, b) in table:
            raise ValueError(f"second bracket of {a} and {b}")
        value = combination(coords, f"the bracket of {a} and {b}")
        if a == b and not value.is_zero():
            raise ValueError(f"bracket of {a} with itself must vanish")
        table[a, b], table[b, a] = value, -value
    twist = {n: make_leaf(n) for n in names}
    known(alpha, "an alpha key")
    for a, coords in alpha.items():
        twist[a] = combination(coords, f"the twist of {a}")
    return HomLieAlgebra(names, table, twist)


def abelian_hom_lie(names, alpha: dict | None = None) -> HomLieAlgebra:
    return hom_lie_algebra(names, {}, alpha or {})


def _non_multiplicative(L: HomLieAlgebra) -> list[str]:
    """The basis pairs where alpha[x, y] = [alpha x, alpha y] fails."""
    e = {n: make_leaf(n) for n in L.names}
    return [f"({a}, {b})" for a, b in product(L.names, repeat=2)
            if L.alpha(L.bracket(e[a], e[b])) != L.bracket(L.alpha(e[a]), L.alpha(e[b]))]


def twist_hom_lie(L: HomLieAlgebra) -> HomLieAlgebra:
    """Compose the bracket with the twist (the Lie-side deformation); the
    twist must be a bracket endomorphism of the input."""
    bad = _non_multiplicative(L)
    if bad:
        raise PreconditionError(f"twist matrix is not a bracket endomorphism at {bad[0]}")
    return HomLieAlgebra(L.names, {pair: L.alpha(v) for pair, v in L.brackets.items()},
                         L.twist)


def affine_line_twisted(beta=1, gamma=2) -> HomLieAlgebra:
    """The 2-dimensional fixture: classical bracket of the affine line,
    twisted along e1 -> e1 + beta e2, e2 -> gamma e2."""
    classical = hom_lie_algebra(
        ("e1", "e2"),
        {("e1", "e2"): {"e2": 1}},
        {"e1": {"e1": 1, "e2": beta}, "e2": {"e2": gamma}},
    )
    return twist_hom_lie(classical)


def check_hom_lie(L: HomLieAlgebra) -> CheckReport:
    """Exhaustive axiom check over all basis tuples."""
    bad = []
    e = {n: make_leaf(n) for n in L.names}
    for a, b in product(L.names, repeat=2):
        if L.bracket(e[a], e[b]) != -L.bracket(e[b], e[a]):
            bad.append(f"skew-symmetry fails at ({a}, {b})")
    for a, b, c in product(L.names, repeat=3):
        total = sum((L.bracket(L.alpha(e[x]), L.bracket(e[y], e[z]))
                     for x, y, z in ((a, b, c), (c, a, b), (b, c, a))), LinComb.zero())
        if not total.is_zero():
            bad.append(f"hom-Jacobi fails at ({a}, {b}, {c}): {L.fmt(total)}")
    bad += [f"multiplicativity fails at {pair}" for pair in _non_multiplicative(L)]
    n = len(L.names)
    return CheckReport("hom_lie_axioms", 2 * n * n + n ** 3, bad)


def _require_hom_lie(L: HomLieAlgebra):
    report = check_hom_lie(L)
    if not report.passed:
        raise PreconditionError("not a multiplicative Hom-Lie algebra: "
                                + "; ".join(report.counterexamples[:3]))


def commutator_checks(A: HomAlgebraDescriptor, count: int = 100,
                      seed: int = 0) -> CheckReport:
    """Hom-Lie axioms for the commutator bracket of a carrier, on samples."""
    bracket = lambda x, y: A.sub(A.mul(x, y), A.mul(y, x))
    bad = []
    triples = _tuples(A, 3, count, seed)
    for x, y, z in triples:
        if not A.eq(bracket(x, y), A.scale(-1, bracket(y, x))):
            bad.append(f"skew fails at {A.fmt(x)}, {A.fmt(y)}")
            continue
        total = A.zero
        for u, v, w in ((x, y, z), (z, x, y), (y, z, x)):
            total = A.add(total, bracket(A.alpha(u), bracket(v, w)))
        if not A.eq(total, A.zero):
            bad.append(f"hom-Jacobi fails at {A.fmt(x)}, {A.fmt(y)}, {A.fmt(z)}")
            continue
        if not A.eq(A.alpha(bracket(x, y)), bracket(A.alpha(x), A.alpha(y))):
            bad.append(f"multiplicativity fails at {A.fmt(x)}, {A.fmt(y)}")
    return CheckReport("commutator_hom_lie_axioms", len(triples), bad, seed)


def direct_sum(parts, tags) -> HomLieAlgebra:
    """Componentwise direct sum with tagged basis names: each summand's
    brackets and twist, renamed into its leg, and no bracket across legs.

    A direct sum of Hom-Lie algebras is Hom-Lie: skew-symmetry, hom-Jacobi
    and multiplicativity hold block by block, and every cross bracket
    vanishes.  So a sum of checked summands needs no check of its own.
    """
    if len(parts) != len(tags) or len(set(tags)) != len(tags):
        raise ValueError("need one distinct tag per summand")
    names = tuple(n + tag for L, tag in zip(parts, tags) for n in L.names)
    if len(set(names)) != len(names):
        raise ValueError(f"tagged basis names collide: {list(names)}")
    brackets, twist = {}, {}
    for L, tag in zip(parts, tags):
        into_leg = lambda v: rename(v, lambda n: n + tag)
        brackets.update({(a + tag, b + tag): into_leg(v) for (a, b), v in L.brackets.items()})
        twist.update({a + tag: into_leg(v) for a, v in L.twist.items()})
    return HomLieAlgebra(names, brackets, twist)


# ---------------------------------------------------------------------------
# bounded enveloping model
# ---------------------------------------------------------------------------

def bracket_sides(L: HomLieAlgebra) -> list[tuple[str, LinComb, LinComb]]:
    """``("[a,b]", a b - b a, [a, b])`` for basis pairs with a listed before
    b (the rest follows by skew)."""
    return [(f"[{a},{b}]", make_leaf(a) * make_leaf(b) - make_leaf(b) * make_leaf(a),
             L.brackets.get((a, b), LinComb.zero()))
            for i, a in enumerate(L.names) for b in L.names[i + 1:]]


def bracket_relations(L: HomLieAlgebra) -> list[LinComb]:
    """e_i e_j - e_j e_i - [e_i, e_j] for i < j; never zero, since the
    commutator of two distinct leaves has arity 2 and the bracket arity 1."""
    return [u - rhs for _, u, rhs in bracket_sides(L)]


def _envelope_window(L: HomLieAlgebra, max_arity: int,
                     config: SaturationConfig) -> RelationBasis:
    """The saturated window of exponent-free trees on the basis of ``L``:
    the associators of ``config`` and the bracket relations, under the twist
    of ``L``.  ``L`` is not checked here."""
    return saturate(L.names, Bound(max_arity, 0), config, L.twist, bracket_relations(L))


def envelope(L: HomLieAlgebra, max_arity: int = 3,
             unit_instances: bool = True) -> RelationBasis:
    """The bounded envelope of a multiplicative Hom-Lie algebra: exponent-free
    trees on its basis modulo the saturated relation rows (associators,
    bracket relations, twist closure)."""
    _require_hom_lie(L)
    return _envelope_window(L, max_arity, SaturationConfig(unit_instances=unit_instances))


def dimension_report(basis: RelationBasis) -> dict:
    """Terms, pivots and residual dimension per arity of an envelope."""
    return {a: {"terms": terms, "pivots": pivots, "residual": terms - pivots}
            for a, (terms, pivots) in basis.arity_counts().items()}


# ---------------------------------------------------------------------------
# the primitive comultiplication on the envelope
# ---------------------------------------------------------------------------

LEG_TAGS2 = ("'", "''")
LEG_TAGS3 = ("'", "''", "'''")


@dataclass(frozen=True)
class EnvelopeBialgebra(_FreeCarrier):
    """The envelope as a carrier of the bialgebra laws: basis leaves, the
    twist through the basis images, and the primitive comultiplication
    (the twist in the left leg plus the twist in the right leg)."""
    L: HomLieAlgebra

    @property
    def gens(self) -> tuple:
        return self.L.names

    @property
    def context(self) -> dict:
        return {"hom_lie": list(self.L.names)}

    def alpha(self, v: LinComb) -> LinComb:
        if any(map(weight, v.terms)):
            raise ValueError("envelope leaves carry no exponents")
        return self.compose(v, self.L.twist)

    def tensor_alpha(self, v: LinComb) -> LinComb:
        return self.compose(v, {n + t: self.twist_into(n, t)
                                for t in LEG_TAGS2 for n in self.gens})

    def delta_at(self, t1: str, t2: str) -> dict:
        return {n: self.twist_into(n, t1) + self.twist_into(n, t2) for n in self.gens}

    def oracle(self, gens, bound, config, unital: bool = True):
        """The oracle of the envelope of ``L`` summed over the legs that
        ``gens`` names, at ``Bound(bound.max_arity, 0)`` (see ``_window``)."""
        bound, config = _window(bound, config, unital)
        legs = LEG_TAGS3[:len(gens) // len(self.gens)]
        D = direct_sum([self.L] * len(legs), legs)
        assert D.names == tuple(gens), gens
        basis = _envelope_window(D, bound.max_arity, config)
        return basis.decide, basis.describe()


def check_envelope_bialgebra(L: HomLieAlgebra, max_arity: int = 3,
                             unit_instances: bool = True) -> list[LawReport]:
    """The comultiplication laws for the envelope.

    On basis leaves both twisted-coassociativity composites equal the same
    three-term sum exactly, before any quotient; on degree-2 products they
    are compared through the carrier's tripled window, and multiplicativity
    through its doubled one.  ``L`` is checked once, here.
    """
    _require_hom_lie(L)
    E = EnvelopeBialgebra(L)
    bound, config = Bound(max_arity, 0), SaturationConfig(unit_instances=unit_instances)
    products = [(label, u * v) for label, u, v in E.pairs(0)]
    coassoc = check_hom_coassoc(E, E.generators() + products, bound, config)

    def three_legs(e: LinComb) -> LinComb:
        twice = E.alpha(E.alpha(e))
        return sum((E.retag(twice, t) for t in LEG_TAGS3), LinComb.zero())

    three_term = law_report("primitive_three_term_identity", E.context, E.fmt, (
        (f"{side} composite on {n}", E.compose(E.delta(e), images), three_legs(e), exact)
        for n, e in E.generators()
        for side, images in zip(("left", "right"), coassoc_composites(E))))
    return [three_term, coassoc, check_comultiplicative(E),
            check_delta_is_morphism(E, bound, config)]


# ---------------------------------------------------------------------------
# declarative text format
# ---------------------------------------------------------------------------

def _linear_coords(key, text: str, at, names) -> dict:
    """The coordinates of the linear combination of the basis ``names``
    that ``text`` writes, an image that ``at`` places in its file (see
    ``read_descriptor``)."""
    p = poly.parse_poly(text, allowed=set(names), offset=at[1])
    out = {}
    for mono, c in p.coeffs.items():
        if mono == ():
            raise ValueError(f"constant term not allowed in {text!r}")
        if len(mono) != 1 or mono[0][1] != 1:
            raise ValueError(f"expression must be linear in basis names: {text!r}")
        out[mono[0][0]] = c
    return out


def _bracket_coords(pair, text: str, at, names) -> dict:
    coords = _linear_coords(pair, text, at, names)
    if pair[0] == pair[1] and coords:
        raise ValueError(f"bracket of {pair[0]} with itself must vanish")
    return coords


def _read_dim(rest: str) -> int:
    if not (rest.isascii() and rest.isdigit()):
        raise ValueError("dim must be written in the digits 0-9")
    return parse_natural(rest, "dim")


def load_hom_lie(text: str | bytes) -> HomLieAlgebra:
    """Parse the declarative format (text, or bytes read as UTF-8)::

        dim 2
        names e1 e2
        bracket e1 e2 = e2
        alpha e1 = e1 + e2
        alpha e2 = 2*e2
    """
    got, lines = read_descriptor(text, {
        "dim": _read_dim,
        "names": lambda rest: read_names(rest, legs=True),
        "bracket": (2, "names", _bracket_coords),
        "alpha": (1, "names", _linear_coords),
    })
    if "names" not in got:
        raise ValueError("missing 'names' line")
    names = got["names"]
    if got.get("dim", len(names)) != len(names):
        raise ValueError(f"line {lines['dim']}: dim {got['dim']} does not match the"
                         f" {len(names)} names of line {lines['names']}")
    return hom_lie_algebra(names, got["bracket"], got["alpha"])
