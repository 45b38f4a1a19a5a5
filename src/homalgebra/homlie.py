"""Hom-Lie algebras by structure constants, commutator checks, and bounded
enveloping models.

A Hom-Lie algebra is held as exact structure constants plus a twist matrix.
Its enveloping model reuses the free term algebra with one leaf per basis
element (no leaf exponents: the twist acts through the matrix, eagerly and
linearly), saturating the congruence with the bracket relations

    e_i e_j - e_j e_i - [e_i, e_j]

next to the Hom-associators.  The primitive comultiplication sends a basis
element to its twist in the left leg plus its twist in the right leg of the
doubled model; legs are apostrophe-tagged copies, and cross-leg commutation
really is part of the doubled model's ideal (cross brackets vanish).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (CheckReport, HomAlgebraDescriptor, PreconditionError,
                       _tuples)
from .bialgebras import (_equal_mod_or_outside, _FreeCarrier,
                         check_comultiplicative, check_delta_is_morphism,
                         check_hom_coassoc, coassoc_composites, exact,
                         law_report)
from .congruence import Bound, SaturationConfig, saturate
from .poly import on_line, parse_poly, read_directives, read_keyed, read_leg_names
from .reports import LawReport
from .terms import Coeff, Leaf, LinComb, as_coeff, make_leaf, weight

Vec = tuple[Coeff, ...]


@dataclass(frozen=True)
class HomLieAlgebra:
    """Exact structure constants ``bracket[i][j]`` (coordinates of the bracket
    of basis i with basis j) and the twist matrix acting on coordinate
    columns."""
    names: tuple[str, ...]
    bracket_table: tuple  # bracket_table[i][j] = coordinate tuple
    alpha_matrix: tuple   # alpha_matrix[i][j]: twist of basis j has i-coord m[i][j]

    @property
    def dim(self) -> int:
        return len(self.names)

    def basis_vec(self, i: int) -> Vec:
        return tuple(int(k == i) for k in range(self.dim))

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out = [0] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                for k, s in enumerate(self.bracket_table[i][j]):
                    out[k] += ci * cj * s
        return tuple(as_coeff(c) for c in out)

    def alpha(self, v: Vec) -> Vec:
        return tuple(
            as_coeff(sum(self.alpha_matrix[i][j] * v[j] for j in range(self.dim)))
            for i in range(self.dim))

    def fmt(self, v: Vec) -> str:
        bits = []
        for name, c in zip(self.names, v):
            if c == 1:
                bits.append(name)
            elif c:
                bits.append(f"{c}*{name}")
        return " + ".join(bits) if bits else "0"


def hom_lie_algebra(names, brackets: dict, alpha: dict) -> HomLieAlgebra:
    """Build from named data: ``brackets[(ni, nj)]`` and ``alpha[n]`` are
    coordinate dicts keyed by basis names.  Skew fills the missing half."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate basis names: {names}")
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (ni, nj), coords in brackets.items():
        i, j = idx[ni], idx[nj]
        vec = [0] * n
        for nk, c in coords.items():
            vec[idx[nk]] = as_coeff(c)
        table[i][j] = vec
        table[j][i] = [-c for c in vec]
        if i == j and any(vec):
            raise ValueError(f"bracket of {ni} with itself must vanish")
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for nj, coords in alpha.items():
        j = idx[nj]
        for i in range(n):
            mat[i][j] = 0
        for ni, c in coords.items():
            mat[idx[ni]][j] = as_coeff(c)
    return HomLieAlgebra(
        names,
        tuple(tuple(tuple(v) for v in row) for row in table),
        tuple(tuple(row) for row in mat),
    )


def abelian_hom_lie(names, alpha: dict | None = None) -> HomLieAlgebra:
    return hom_lie_algebra(names, {}, alpha or {})


def _non_multiplicative(L: HomLieAlgebra) -> list[str]:
    """The basis pairs where alpha[x, y] = [alpha x, alpha y] fails."""
    return [f"({L.names[i]}, {L.names[j]})" for i in range(L.dim) for j in range(L.dim)
            if L.alpha(L.bracket_table[i][j])
            != L.bracket(L.alpha(L.basis_vec(i)), L.alpha(L.basis_vec(j)))]


def twist_hom_lie(L: HomLieAlgebra) -> HomLieAlgebra:
    """Compose the bracket with the twist (the Lie-side deformation); the
    twist matrix must be a bracket endomorphism of the input."""
    n = L.dim
    bad = _non_multiplicative(L)
    if bad:
        raise PreconditionError(f"twist matrix is not a bracket endomorphism at {bad[0]}")
    table = tuple(tuple(L.alpha(L.bracket_table[i][j]) for j in range(n))
                  for i in range(n))
    return HomLieAlgebra(L.names, table, L.alpha_matrix)


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
    run = 0
    n = L.dim
    zero = (0,) * n
    for i in range(n):
        for j in range(n):
            run += 1
            lhs = L.bracket_table[i][j]
            rhs = tuple(-c for c in L.bracket_table[j][i])
            if tuple(lhs) != rhs:
                bad.append(f"skew-symmetry fails at ({L.names[i]}, {L.names[j]})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                run += 1
                ei, ej, ek = (L.basis_vec(t) for t in (i, j, k))
                total = [0] * n
                for x, y, z in ((ei, ej, ek), (ek, ei, ej), (ej, ek, ei)):
                    part = L.bracket(L.alpha(x), L.bracket(y, z))
                    total = [a + b for a, b in zip(total, part)]
                if tuple(total) != zero:
                    bad.append(
                        f"hom-Jacobi fails at ({L.names[i]}, {L.names[j]}, {L.names[k]}):"
                        f" {L.fmt(tuple(total))}")
    run += n * n
    bad += [f"multiplicativity fails at {pair}" for pair in _non_multiplicative(L)]
    return CheckReport("hom_lie_axioms", run, bad)


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
    """Componentwise direct sum with tagged basis names (cross brackets 0)."""
    if len(parts) != len(tags) or len(set(tags)) != len(tags):
        raise ValueError("need one distinct tag per summand")
    names = []
    for L, tag in zip(parts, tags):
        names.extend(n + tag for n in L.names)
    if len(set(names)) != len(names):
        raise ValueError(f"tagged basis names collide: {names}")
    total = len(names)
    table = [[(0,) * total for _ in range(total)] for _ in range(total)]
    mat = [[0] * total for _ in range(total)]
    offset = 0
    for L, tag in zip(parts, tags):
        n = L.dim
        for i in range(n):
            for j in range(n):
                row = [0] * total
                for k, c in enumerate(L.bracket_table[i][j]):
                    row[offset + k] = c
                table[offset + i][offset + j] = tuple(row)
                mat[offset + i][offset + j] = L.alpha_matrix[i][j]
        offset += n
    return HomLieAlgebra(tuple(names),
                         tuple(tuple(r) for r in table),
                         tuple(tuple(r) for r in mat))


# ---------------------------------------------------------------------------
# bounded enveloping model
# ---------------------------------------------------------------------------

class EnvelopeModel:
    """Window model of the unital envelope: index-leaf trees modulo the
    saturated relation rows (associators, bracket relations, twist closure)."""

    def __init__(self, L: HomLieAlgebra, basis):
        self.L = L
        self.basis = basis

    def gen(self, name: str) -> LinComb:
        if name not in self.L.names:
            raise KeyError(f"unknown basis name {name!r}")
        return make_leaf(name, 0)

    def alpha_elem(self, v: LinComb) -> LinComb:
        return _matrix_alpha(self.L, v)

    def reduce(self, v: LinComb) -> LinComb:
        return self.basis.reduce(v)

    def equal_mod(self, u: LinComb, v: LinComb):
        return self.basis.equal_mod(u, v)

    def decide(self, u: LinComb, v: LinComb):
        """The oracle verdict and residue, as law reports carry them."""
        return _equal_mod_or_outside(self.basis, u, v)

    def dimension_report(self) -> dict:
        return {a: {"terms": terms, "pivots": pivots, "residual": terms - pivots}
                for a, (terms, pivots) in self.basis.arity_counts().items()}


def _twist_images(L: HomLieAlgebra) -> dict[str, LinComb]:
    """Each basis element's twist, read off its column of the twist matrix."""
    return {nj: LinComb(0, {Leaf(ni): row[j] for ni, row in zip(L.names, L.alpha_matrix)})
            for j, nj in enumerate(L.names)}


def _matrix_alpha(L: HomLieAlgebra, v: LinComb) -> LinComb:
    if any(map(weight, v.terms)):
        raise ValueError("envelope leaves carry no exponents")
    return _FreeCarrier.compose(v, _twist_images(L))


def bracket_sides(L: HomLieAlgebra) -> list[tuple[str, LinComb, LinComb]]:
    """``("[e_i,e_j]", e_i e_j - e_j e_i, [e_i, e_j])`` for i < j (the rest
    follows by skew), the bracket from the structure constants."""
    out = []
    for i, ni in enumerate(L.names):
        for j in range(i + 1, L.dim):
            nj = L.names[j]
            rhs = LinComb.zero()
            for k, c in enumerate(L.bracket_table[i][j]):
                if c:
                    rhs = rhs + c * make_leaf(L.names[k], 0)
            out.append((f"[{ni},{nj}]",
                        make_leaf(ni) * make_leaf(nj) - make_leaf(nj) * make_leaf(ni), rhs))
    return out


def bracket_relations(L: HomLieAlgebra) -> list[LinComb]:
    """e_i e_j - e_j e_i - [e_i, e_j] for i < j; never zero, since the
    commutator of two distinct leaves has arity 2 and the bracket arity 1."""
    return [u - rhs for _, u, rhs in bracket_sides(L)]


def envelope(L: HomLieAlgebra, max_arity: int = 3, unit_instances: bool = True) -> EnvelopeModel:
    report = check_hom_lie(L)
    if not report.passed:
        raise PreconditionError("not a multiplicative Hom-Lie algebra: "
                                + "; ".join(report.counterexamples[:3]))
    config = SaturationConfig(unit_instances=unit_instances,
                              extra_relations=tuple(bracket_relations(L)))
    basis = saturate(L.names, Bound(max_arity, 0), config, _twist_images(L))
    return EnvelopeModel(L, basis)


# ---------------------------------------------------------------------------
# the primitive comultiplication on the envelope
# ---------------------------------------------------------------------------

LEG_TAGS2 = ("'", "''")
LEG_TAGS3 = ("'", "''", "'''")


@dataclass(frozen=True)
class EnvelopeBialgebra(_FreeCarrier):
    """The envelope as a carrier of the bialgebra laws: basis leaves, the
    twist through the structure matrix, and the primitive comultiplication
    (the twist in the left leg plus the twist in the right leg)."""
    L: HomLieAlgebra

    @property
    def gens(self) -> tuple:
        return self.L.names

    @property
    def context(self) -> dict:
        return {"hom_lie": list(self.L.names)}

    def alpha(self, v: LinComb) -> LinComb:
        return _matrix_alpha(self.L, v)

    def tensor_alpha(self, v: LinComb) -> LinComb:
        return self.compose(v, {n + t: self.twist_into(n, t)
                                for t in LEG_TAGS2 for n in self.gens})

    def delta_at(self, t1: str, t2: str) -> dict:
        return {n: self.twist_into(n, t1) + self.twist_into(n, t2) for n in self.gens}


def check_envelope_bialgebra(L: HomLieAlgebra, max_arity: int = 3,
                             unit_instances: bool = True) -> list[LawReport]:
    """The comultiplication laws for the envelope.

    On basis leaves both twisted-coassociativity composites equal the same
    three-term sum exactly, before any quotient; on degree-2 products they
    are compared through the tripled model's oracle, and multiplicativity
    through the doubled model's.
    """
    E = EnvelopeBialgebra(L)
    model3 = envelope(direct_sum([L, L, L], list(LEG_TAGS3)), max_arity=max_arity,
                      unit_instances=unit_instances)
    products = [(label, u * v) for label, u, v in E.pairs(0)]
    coassoc = check_hom_coassoc(E, E.generators() + products, basis=model3.basis)

    def three_legs(e: LinComb) -> LinComb:
        twice = E.alpha(E.alpha(e))
        return sum((E.retag(twice, t) for t in LEG_TAGS3), LinComb.zero())

    three_term = law_report("primitive_three_term_identity", E.context, E.fmt, (
        (f"{side} composite on {n}", E.compose(E.delta(e), images), three_legs(e), exact)
        for n, e in E.generators()
        for side, images in zip(("left", "right"), coassoc_composites(E))))
    model2 = envelope(direct_sum([L, L], list(LEG_TAGS2)), max_arity=max_arity,
                      unit_instances=unit_instances)
    return [three_term, coassoc, check_comultiplicative(E),
            check_delta_is_morphism(E, basis=model2.basis)]


# ---------------------------------------------------------------------------
# declarative text format
# ---------------------------------------------------------------------------

def _linear_coords(text: str, names) -> dict:
    """Parse a linear combination of basis names into a coordinate dict."""
    p = parse_poly(text, allowed=set(names))
    out = {}
    for mono, c in p.coeffs.items():
        if mono == ():
            raise ValueError(f"constant term not allowed in {text!r}")
        if len(mono) != 1 or mono[0][1] != 1:
            raise ValueError(f"expression must be linear in basis names: {text!r}")
        out[mono[0][0]] = c
    return out


def load_hom_lie(text: str) -> HomLieAlgebra:
    """Parse the declarative format::

        dim 2
        names e1 e2
        bracket e1 e2 = e2
        alpha e1 = e1 + e2
        alpha e2 = 2*e2
    """
    names = None
    dim = None
    brackets = {}
    alpha = {}
    directives = ("dim", "names", "bracket", "alpha")
    for lineno, head, rest in read_directives(text.splitlines(), directives,
                                              once=("dim", "names")):
        lhs, _, rhs = rest.partition("=")
        if head == "dim":
            dim = on_line(lineno, int, rest)
        elif head == "names":
            names = read_leg_names(rest, lineno)
        elif names is None:
            raise ValueError(f"line {lineno}: names must come before "
                             + ("brackets" if head == "bracket" else "alpha"))
        elif head == "bracket":
            pair = lhs.split()
            if len(pair) != 2 or pair[0] not in names or pair[1] not in names:
                raise ValueError(f"line {lineno}: bracket needs two basis names")
            # skew symmetry fills in the reversed pair, so it is the same bracket
            if (pair[0], pair[1]) in brackets or (pair[1], pair[0]) in brackets:
                raise ValueError(f"line {lineno}: second bracket of {pair[0]} and {pair[1]}")
            brackets[(pair[0], pair[1])] = on_line(lineno, _linear_coords, rhs, names)
        else:
            name, image = read_keyed(rest, lineno, "alpha", names, alpha)
            alpha[name] = on_line(lineno, _linear_coords, image, names)
    if names is None:
        raise ValueError("missing 'names' line")
    if dim is not None and dim != len(names):
        raise ValueError(f"dim {dim} does not match {len(names)} names")
    return hom_lie_algebra(names, brackets, alpha)
