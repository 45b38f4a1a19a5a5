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

from .algebras import CheckReport, HomAlgebraDescriptor, PreconditionError
from .congruence import Bound, SaturationConfig, saturate
from .grammar import format_lincomb
from .morphisms import FreeAlgebraHandle, MorphismAssignment, evaluate
from .poly import parse_poly
from .reports import LawItem, LawReport
from .terms import Coeff, Leaf, LinComb, Term, as_coeff, make_leaf

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


def twist_hom_lie(L: HomLieAlgebra) -> HomLieAlgebra:
    """Compose the bracket with the twist (the Lie-side deformation); the
    twist matrix must be a bracket endomorphism of the input."""
    n = L.dim
    for i in range(n):
        for j in range(n):
            lhs = L.alpha(L.bracket_table[i][j])
            rhs = L.bracket(L.alpha(L.basis_vec(i)), L.alpha(L.basis_vec(j)))
            if lhs != rhs:
                raise PreconditionError(
                    f"twist matrix is not a bracket endomorphism at "
                    f"({L.names[i]}, {L.names[j]})")
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


def check_hom_lie(L: HomLieAlgebra, include_multiplicativity: bool = True) -> CheckReport:
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
    if include_multiplicativity:
        for i in range(n):
            for j in range(n):
                run += 1
                lhs = L.alpha(L.bracket_table[i][j])
                rhs = L.bracket(L.alpha(L.basis_vec(i)), L.alpha(L.basis_vec(j)))
                if lhs != rhs:
                    bad.append(
                        f"multiplicativity fails at ({L.names[i]}, {L.names[j]})")
    return CheckReport("hom_lie_axioms", run, bad)


def commutator_checks(A: HomAlgebraDescriptor, count: int = 100,
                      seed: int = 0) -> CheckReport:
    """Hom-Lie axioms for the commutator bracket of a carrier, on samples."""
    from .algebras import _tuples
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

    def __init__(self, L: HomLieAlgebra, basis, unit_instances: bool):
        self.L = L
        self.basis = basis
        self.unit_instances = unit_instances

    def gen(self, name: str) -> LinComb:
        if name not in self.L.names:
            raise KeyError(f"unknown basis name {name!r}")
        return make_leaf(name, 0)

    def alpha_elem(self, v: LinComb) -> LinComb:
        out = LinComb.scalar(v.unit)
        for t, c in v.sorted_terms():
            out = out + c * _matrix_alpha_term(self.L, t)
        return out

    def reduce(self, v: LinComb) -> LinComb:
        return self.basis.reduce(v)

    def equal_mod(self, u: LinComb, v: LinComb):
        return self.basis.equal_mod(u, v)

    def dimension_report(self) -> dict:
        pivots = self.basis.pivot_arities()
        totals: dict[int, int] = {}
        for t in self.basis._terms:
            from .terms import arity
            totals[arity(t)] = totals.get(arity(t), 0) + 1
        return {
            a: {"terms": totals.get(a, 0), "pivots": pivots.get(a, 0),
                "residual": totals.get(a, 0) - pivots.get(a, 0)}
            for a in sorted(set(totals) | set(pivots))
        }


def _matrix_alpha_term(L: HomLieAlgebra, t: Term) -> LinComb:
    if isinstance(t, Leaf):
        j = L.names.index(t.name)
        if t.exp:
            raise ValueError("envelope leaves carry no exponents")
        out = LinComb.zero()
        for i in range(L.dim):
            c = L.alpha_matrix[i][j]
            if c:
                out = out + c * make_leaf(L.names[i], 0)
        return out
    return _matrix_alpha_term(L, t.left) * _matrix_alpha_term(L, t.right)


def bracket_relations(L: HomLieAlgebra) -> list[LinComb]:
    """e_i e_j - e_j e_i - [e_i, e_j] for i < j (the rest follows by skew)."""
    out = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            rhs = LinComb.zero()
            for k, c in enumerate(L.bracket_table[i][j]):
                if c:
                    rhs = rhs + c * make_leaf(L.names[k], 0)
            rel = (make_leaf(L.names[i]) * make_leaf(L.names[j])
                   - make_leaf(L.names[j]) * make_leaf(L.names[i]) - rhs)
            if not rel.is_zero():
                out.append(rel)
    return out


def envelope(L: HomLieAlgebra, max_arity: int = 3, unit_instances: bool = True,
             cap: int = 200_000) -> EnvelopeModel:
    report = check_hom_lie(L)
    if not report.passed:
        raise PreconditionError("not a multiplicative Hom-Lie algebra: "
                                + "; ".join(report.counterexamples[:3]))
    config = SaturationConfig(unit_instances=unit_instances,
                              extra_relations=tuple(bracket_relations(L)))
    basis = saturate(L.names, Bound(max_arity, 0), config,
                     alpha_term=lambda t: _matrix_alpha_term(L, t), cap=cap)
    return EnvelopeModel(L, basis, unit_instances)


# ---------------------------------------------------------------------------
# the primitive comultiplication on the envelope
# ---------------------------------------------------------------------------

LEG_TAGS2 = ("'", "''")
LEG_TAGS3 = ("'", "''", "'''")


def delta_env(L: HomLieAlgebra) -> dict:
    """Comultiplication on basis leaves: twist in the left leg plus twist in
    the right leg of the doubled model."""
    images = {}
    for j, name in enumerate(L.names):
        v = LinComb.zero()
        for i in range(L.dim):
            c = L.alpha_matrix[i][j]
            if c:
                v = v + c * (make_leaf(L.names[i] + LEG_TAGS2[0])
                             + make_leaf(L.names[i] + LEG_TAGS2[1]))
        images[name] = v
    return images


def delta_env_extend(L: HomLieAlgebra, v: LinComb) -> LinComb:
    """Morphism extension of the primitive comultiplication."""
    doubled = FreeAlgebraHandle(tuple(
        n + t for t in LEG_TAGS2 for n in L.names))
    return evaluate(v, MorphismAssignment(doubled.descriptor(), delta_env(L)))


def _alpha_square(L: HomLieAlgebra):
    m = L.alpha_matrix
    n = L.dim
    return [[as_coeff(sum(m[i][k] * m[k][j] for k in range(n)))
             for j in range(n)] for i in range(n)]


def check_envelope_bialgebra(L: HomLieAlgebra, max_arity: int = 3,
                             unit_instances: bool = True) -> list[LawReport]:
    """The comultiplication laws for the envelope.

    On basis leaves both twisted-coassociativity composites equal the same
    three-term sum exactly, before any quotient; on degree-2 products they
    are compared through the tripled model's oracle.
    """
    names = L.names
    L3 = direct_sum([L, L, L], list(LEG_TAGS3))
    model3 = envelope(L3, max_arity=max_arity, unit_instances=unit_instances)
    target3 = FreeAlgebraHandle(L3.names).descriptor()

    m2sq = _alpha_square(L)
    images = delta_env(L)

    # (delta (x) alpha) and (alpha (x) delta) as assignments on the doubled legs
    def tag_twist(name_idx: int, tag: str) -> LinComb:
        out = LinComb.zero()
        for i in range(L.dim):
            c = L.alpha_matrix[i][name_idx]
            if c:
                out = out + c * make_leaf(names[i] + tag)
        return out

    m1 = {}
    m2 = {}
    for j, n in enumerate(names):
        delta_12 = LinComb.zero()
        delta_23 = LinComb.zero()
        for i in range(L.dim):
            c = L.alpha_matrix[i][j]
            if c:
                delta_12 = delta_12 + c * (make_leaf(names[i] + "'")
                                           + make_leaf(names[i] + "''"))
                delta_23 = delta_23 + c * (make_leaf(names[i] + "''")
                                           + make_leaf(names[i] + "'''"))
        m1[n + "'"] = delta_12
        m1[n + "''"] = tag_twist(j, "'''")
        m2[n + "'"] = tag_twist(j, "'")
        m2[n + "''"] = delta_23
    m1 = MorphismAssignment(target3, m1)
    m2 = MorphismAssignment(target3, m2)

    three_term = LawReport("primitive_three_term_identity",
                           context={"hom_lie": list(names)})
    coassoc = LawReport("hom_coassociativity", context=model3.basis.describe())
    for j, n in enumerate(names):
        d = delta_env_extend(L, make_leaf(n))
        side1 = evaluate(d, m1)
        side2 = evaluate(d, m2)
        expected = LinComb.zero()
        for i in range(L.dim):
            c = m2sq[i][j]
            if c:
                expected = expected + c * (make_leaf(names[i] + "'")
                                           + make_leaf(names[i] + "''")
                                           + make_leaf(names[i] + "'''"))
        three_term.items.append(LawItem(
            f"left composite on {n}", format_lincomb(side1), format_lincomb(expected),
            "EQUAL" if side1 == expected else "NOT_EQUAL"))
        three_term.items.append(LawItem(
            f"right composite on {n}", format_lincomb(side2), format_lincomb(expected),
            "EQUAL" if side2 == expected else "NOT_EQUAL"))
        res = model3.equal_mod(side1, side2)
        coassoc.items.append(LawItem(
            n, format_lincomb(side1), format_lincomb(side2), res.verdict.value,
            None if res.proven else format_lincomb(res.residue)))
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            d = delta_env_extend(L, make_leaf(ni) * make_leaf(nj))
            side1 = evaluate(d, m1)
            side2 = evaluate(d, m2)
            res = model3.equal_mod(side1, side2)
            coassoc.items.append(LawItem(
                f"{ni}*{nj}", format_lincomb(side1), format_lincomb(side2),
                res.verdict.value,
                None if res.proven else format_lincomb(res.residue)))

    L2 = direct_sum([L, L], list(LEG_TAGS2))
    model2 = envelope(L2, max_arity=max_arity, unit_instances=unit_instances)
    comult = LawReport("comultiplicativity", context={"hom_lie": list(names)})
    morph = LawReport("comultiplication_is_algebra_morphism",
                      context=model2.basis.describe())
    for n in names:
        lhs = delta_env_extend(L, _matrix_alpha_term(L, Leaf(n, 0)))
        rhs = model2.alpha_elem(delta_env_extend(L, make_leaf(n)))
        comult.items.append(LawItem(
            n, format_lincomb(lhs), format_lincomb(rhs),
            "EQUAL" if lhs == rhs else "NOT_EQUAL"))
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            u, v = make_leaf(ni), make_leaf(nj)
            lhs = delta_env_extend(L, u * v)
            rhs = delta_env_extend(L, u) * delta_env_extend(L, v)
            res = model2.equal_mod(lhs, rhs)
            morph.items.append(LawItem(
                f"{ni}*{nj}", format_lincomb(lhs), format_lincomb(rhs),
                res.verdict.value,
                None if res.proven else format_lincomb(res.residue)))
    return [three_term, coassoc, comult, morph]


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "dim":
            dim = int(rest)
        elif head == "names":
            names = tuple(rest.split())
        elif head == "bracket":
            if names is None:
                raise ValueError(f"line {lineno}: names must come before brackets")
            lhs, _, rhs = rest.partition("=")
            pair = lhs.split()
            if len(pair) != 2 or pair[0] not in names or pair[1] not in names:
                raise ValueError(f"line {lineno}: bracket needs two basis names")
            coords = {} if rhs.strip() == "0" else _linear_coords(rhs, names)
            brackets[(pair[0], pair[1])] = coords
        elif head == "alpha":
            if names is None:
                raise ValueError(f"line {lineno}: names must come before alpha")
            lhs, _, rhs = rest.partition("=")
            n = lhs.strip()
            if n not in names:
                raise ValueError(f"line {lineno}: unknown basis name {n!r}")
            alpha[n] = {} if rhs.strip() == "0" else _linear_coords(rhs, names)
        else:
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
    if names is None:
        raise ValueError("missing 'names' line")
    if dim is not None and dim != len(names):
        raise ValueError(f"dim {dim} does not match {len(names)} names")
    return hom_lie_algebra(names, brackets, alpha)
