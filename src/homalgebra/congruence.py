"""Bounded saturation of the Hom-associativity congruence and exact reduction.

Equality in the multiplicative Hom-associative quotient of the free term
algebra is semi-decided: all defining relation instances whose terms fit in a
finite window (arity and per-leaf exponent caps) are generated, closed under
the twist map and under left/right multiplication by windowed basis terms, and
row-reduced over the exact rationals.  A zero residue proves equality in the
quotient; a nonzero residue only means "not proven inside this window".

Multiplicativity needs no rows here: it is definitional in the normal form.
The relation generators are the Hom-associator instances

    assoc(u, v, w) = (u v) alpha(w) - alpha(u) (v w)

with arguments drawn from the windowed basis, optionally including the unit
(the paper-literal ideal ranges over the whole unital algebra; the unit
arguments are what collapse ``u alpha(v)`` onto ``u v``, so both
configurations are first-class here), plus any caller-supplied extra
relations (e.g. bracket relations for enveloping algebras).

The saturated row space is a sound under-approximation of the congruence
ideal inside the window; completeness within the window is not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .terms import (Coeff, Leaf, LinComb, Node, Term, arity, as_coeff,
                    shift_term, sort_key)

DEFAULT_TERM_CAP = 200_000

# a sparse exact vector over the window: column -> nonzero coefficient, with
# column 0 the unit and columns 1.. the windowed terms in canonical order
Vec = dict[int, Coeff]


class OutOfWindowError(ValueError):
    """A term fell outside the saturation window; enlarge the bound."""


class ResourceCapError(RuntimeError):
    """The windowed basis would exceed the configured term cap."""


@dataclass(frozen=True)
class Bound:
    """Saturation window: arity cap and per-leaf exponent cap."""
    max_arity: int
    max_exp: int = 0

    def __post_init__(self):
        if self.max_arity < 1:
            raise ValueError("max_arity must be >= 1")
        if self.max_exp < 0:
            raise ValueError("max_exp must be >= 0")


@dataclass(frozen=True)
class SaturationConfig:
    """Which relation instances are generated.

    ``unit_instances`` toggles unit arguments in the associators (the literal,
    unital reading of the defining ideal) versus the non-unital variant.
    ``extra_relations`` are additional relation vectors, closed under the same
    ideal operations; they must fit the window.
    """
    unit_instances: bool = True
    extra_relations: tuple[LinComb, ...] = ()

    def describe(self) -> dict:
        return {
            "unit_instances": self.unit_instances,
            "extra_relations": len(self.extra_relations),
        }


class Verdict(Enum):
    PROVEN_EQUAL = "PROVEN_EQUAL"
    NOT_PROVEN_WITHIN_BOUND = "NOT_PROVEN_WITHIN_BOUND"


@dataclass(frozen=True)
class EqualityResult:
    verdict: Verdict
    residue: LinComb

    @property
    def proven(self) -> bool:
        return self.verdict is Verdict.PROVEN_EQUAL


def hom_associator(u: LinComb, v: LinComb, w: LinComb) -> LinComb:
    """(u v) alpha(w) - alpha(u) (v w)."""
    return (u * v) * w.alpha() - u.alpha() * (v * w)


def enumerate_terms(gens: Iterable[str], bound: Bound, cap: int = DEFAULT_TERM_CAP) -> list[Term]:
    """All windowed terms, ascending in the canonical term order."""
    gens = sorted(set(gens))
    if not gens:
        raise ValueError("empty generator set")
    leaf_pool = [Leaf(g, e) for g in gens for e in range(bound.max_exp + 1)]
    by_arity: list[list[Term]] = [[], leaf_pool]
    count = len(leaf_pool)
    for n in range(2, bound.max_arity + 1):
        level: list[Term] = []
        for k in range(1, n):
            for lt in by_arity[k]:
                for rt in by_arity[n - k]:
                    level.append(Node(lt, rt))
                    count += 1
                    if count > cap:
                        raise ResourceCapError(
                            f"windowed basis exceeds the term cap of {cap}"
                            f" (bound {bound}, {len(gens)} generators)")
        by_arity.append(level)
    out = [t for lvl in by_arity for t in lvl]
    out.sort(key=sort_key)
    return out


def _vectorize(index: dict[Term, int], v: LinComb) -> Optional[Vec]:
    """The column vector of ``v``, or None if one of its terms has no column."""
    vec: Vec = {0: v.unit} if v.unit else {}
    for t, c in v.terms.items():
        i = index.get(t)
        if i is None:
            return None
        vec[i] = c
    return vec


def _out_of_window(index: dict[Term, int], v: LinComb, bound: Bound,
                   what: str = "term") -> OutOfWindowError:
    from .grammar import format_term
    t = next(t for t in v.terms if t not in index)
    return OutOfWindowError(f"{what} {format_term(t)} lies outside bound {bound}")


def _reduce(rows: dict[int, Vec], vec: Vec) -> Vec:
    """Residue of ``vec`` modulo echelon ``rows`` (pivot column -> row, with
    coefficient 1 at the pivot), eliminating from the largest column down."""
    vec = dict(vec)
    out: Vec = {}
    while vec:
        p = max(vec)
        c = vec.pop(p)
        if type(c) is not int:
            c = as_coeff(c)
        row = rows.get(p)
        if row is None:
            out[p] = c
            continue
        for i, r in row.items():
            if i == p:
                continue
            s = vec.get(i, 0) - c * r
            if s:
                vec[i] = s
            else:
                vec.pop(i, None)
    return out


class RelationBasis:
    """Row-reduced span of windowed relation instances; the equality oracle.

    Column 0 is the unit; columns 1.. index the windowed terms in canonical
    order.  Rows are kept in reduced echelon form with the pivot on the
    largest column, so residues concentrate on small terms.
    """

    def __init__(self, gens, bound: Bound, config: SaturationConfig,
                 terms: list[Term], rows: dict[int, Vec]):
        self.gens = tuple(sorted(set(gens)))
        self.bound = bound
        self.config = config
        self._terms = terms
        self._index = {t: i + 1 for i, t in enumerate(terms)}
        self._rows = rows

    def _devectorize(self, vec: Vec) -> LinComb:
        return LinComb(vec.get(0, 0), {self._terms[i - 1]: c for i, c in vec.items() if i})

    # -- public oracle --------------------------------------------------------

    @property
    def rows_count(self) -> int:
        return len(self._rows)

    @property
    def basis_size(self) -> int:
        return len(self._terms)

    def rows_as_lincombs(self) -> list[LinComb]:
        return [self._devectorize(self._rows[p]) for p in sorted(self._rows)]

    def pivot_arities(self) -> dict[int, int]:
        """Pivot count per arity; arity 0 is the unit column."""
        out: dict[int, int] = {}
        for p in self._rows:
            a = 0 if p == 0 else arity(self._terms[p - 1])
            out[a] = out.get(a, 0) + 1
        return out

    def reduce(self, v: LinComb) -> LinComb:
        """Canonical residue of ``v`` modulo the row space (linear, idempotent)."""
        vec = _vectorize(self._index, v)
        if vec is None:
            raise _out_of_window(self._index, v, self.bound)
        return self._devectorize(_reduce(self._rows, vec))

    def equal_mod(self, u: LinComb, v: LinComb) -> EqualityResult:
        residue = self.reduce(u - v)
        if residue.is_zero():
            return EqualityResult(Verdict.PROVEN_EQUAL, residue)
        return EqualityResult(Verdict.NOT_PROVEN_WITHIN_BOUND, residue)

    def describe(self) -> dict:
        return {
            "generators": list(self.gens),
            "bound": {"max_arity": self.bound.max_arity, "max_exp": self.bound.max_exp},
            "config": self.config.describe(),
            "basis_size": self.basis_size,
            "rows_count": self.rows_count,
        }


class _Saturator:
    """Index-level worker: builds the echelon row space to a closure fixpoint."""

    def __init__(self, gens, bound, config, alpha_term, cap):
        self.bound = bound
        self.config = config
        self.terms = enumerate_terms(gens, bound, cap)
        self.index = {t: i + 1 for i, t in enumerate(self.terms)}
        self.rows: dict[int, Vec] = {}
        self.col_arity = [0] + [arity(t) for t in self.terms]
        self.cols_by_arity: dict[int, list[int]] = {}
        for i, t in enumerate(self.terms):
            self.cols_by_arity.setdefault(self.col_arity[i + 1], []).append(i + 1)
        self._alpha_term = alpha_term
        self._alpha_memo: dict[int, Optional[Vec]] = {}
        self._graft_memo: dict[tuple[int, int], Optional[int]] = {}

    def _alpha_col(self, i: int) -> Optional[Vec]:
        """Image of basis column i under the twist, or None if it escapes."""
        if i == 0:
            return {0: 1}
        got = self._alpha_memo.get(i)
        if i in self._alpha_memo:
            return got
        t = self.terms[i - 1]
        if self._alpha_term is None:
            img_term = shift_term(t, 1)
            j = self.index.get(img_term)
            vec = None if j is None else {j: 1}
        else:
            vec = _vectorize(self.index, self._alpha_term(t))
        self._alpha_memo[i] = vec
        return vec

    def _graft(self, i: int, j: int) -> Optional[int]:
        """Column of the product of basis columns i, j (unit-aware), or None."""
        if i == 0:
            return j
        if j == 0:
            return i
        key = (i, j)
        if key in self._graft_memo:
            return self._graft_memo[key]
        if self.col_arity[i] + self.col_arity[j] > self.bound.max_arity:
            col = None
        else:
            col = self.index.get(Node(self.terms[i - 1], self.terms[j - 1]))
        self._graft_memo[key] = col
        return col

    def _alpha_vec(self, vec: Vec) -> Optional[Vec]:
        out: Vec = {}
        for i, c in vec.items():
            img = self._alpha_col(i)
            if img is None:
                return None
            for j, d in img.items():
                s = out.get(j, 0) + c * d
                if s:
                    out[j] = s
                else:
                    out.pop(j, None)
        return out

    def _mul_vec(self, i: int, vec: Vec, on_left: bool) -> Optional[Vec]:
        out: Vec = {}
        for j, c in vec.items():
            col = self._graft(i, j) if on_left else self._graft(j, i)
            if col is None:
                return None
            s = out.get(col, 0) + c
            if s:
                out[col] = s
            else:
                out.pop(col, None)
        return out

    def insert(self, vec: Vec) -> Optional[int]:
        """Reduce and insert; returns the new pivot column, or None."""
        vec = _reduce(self.rows, vec)
        if not vec:
            return None
        p = max(vec)
        c = vec[p]
        if c == -1:
            vec = {i: -d for i, d in vec.items()}
        elif c != 1:
            inv = Fraction(1, c)
            vec = {i: as_coeff(d * inv) for i, d in vec.items()}
        self.rows[p] = vec
        return p

    # -- relation instance generation -----------------------------------------

    def _assoc_vec(self, iu, iv, iw) -> Optional[Vec]:
        """Associator row on basis columns (0 = unit), or None if it escapes."""
        aw = self._alpha_col(iw)
        au = self._alpha_col(iu)
        if aw is None or au is None:
            return None
        uv = self._graft(iu, iv)
        vw = self._graft(iv, iw)
        if uv is None or vw is None:
            return None
        left = self._mul_vec(uv, aw, on_left=True)
        if left is None:
            return None
        out = dict(left)
        for j, c in au.items():
            col = self._graft(j, vw)
            if col is None:
                return None
            s = out.get(col, 0) - c
            if s:
                out[col] = s
            else:
                out.pop(col, None)
        return out

    def initial_instances(self):
        """Deterministically ordered associator instances that fit the window."""
        n_max = self.bound.max_arity
        arg_arities = sorted(self.cols_by_arity)
        if self.config.unit_instances:
            pools = {0: [0], **self.cols_by_arity}
            arg_arities = [0] + arg_arities
        else:
            pools = self.cols_by_arity
        for a1 in arg_arities:
            for a2 in arg_arities:
                for a3 in arg_arities:
                    if a1 + a2 + a3 > n_max or a1 + a2 + a3 == 0:
                        continue
                    for iu in pools[a1]:
                        for iv in pools[a2]:
                            for iw in pools[a3]:
                                vec = self._assoc_vec(iu, iv, iw)
                                if vec:
                                    yield vec

    def closure_candidates(self, vec):
        av = self._alpha_vec(vec)
        if av:
            yield av
        max_row_arity = max((self.col_arity[i] for i in vec), default=0)
        room = self.bound.max_arity - max_row_arity
        for a in sorted(self.cols_by_arity):
            if a > room:
                break
            for i in self.cols_by_arity[a]:
                left = self._mul_vec(i, vec, on_left=True)
                if left:
                    yield left
                right = self._mul_vec(i, vec, on_left=False)
                if right:
                    yield right

    def run(self, seed_vecs=()):
        pending = []
        for vec in seed_vecs:
            p = self.insert(vec)
            if p is not None:
                pending.append(p)
        for vec in self.initial_instances():
            p = self.insert(vec)
            if p is not None:
                pending.append(p)
        # Each inserted row is expanded exactly once: images of rows that
        # reduce to zero are spanned by images of already-expanded rows, so
        # the final span is closed under the windowed ideal operations.
        while pending:
            p = pending.pop()
            for cand in self.closure_candidates(self.rows[p]):
                q = self.insert(cand)
                if q is not None:
                    pending.append(q)
        self._interreduce()

    def _interreduce(self):
        for p in sorted(self.rows):
            row = self.rows.pop(p)
            tail = {i: c for i, c in row.items() if i != p}
            tail = _reduce(self.rows, tail)
            tail[p] = 1
            self.rows[p] = tail


def saturate(gens: Iterable[str], bound: Bound,
             config: SaturationConfig = SaturationConfig(),
             alpha_term: Callable[[Term], LinComb] | None = None,
             cap: int = DEFAULT_TERM_CAP) -> RelationBasis:
    """Build the windowed relation basis for the given generators and config.

    ``alpha_term`` overrides the normal-form twist on basis terms (leaf
    exponent shift) with a client action, e.g. a structure-constant matrix on
    exponent-free leaves for enveloping algebras.  The output is a pure
    function of the inputs.
    """
    gens = sorted(set(gens))
    worker = _Saturator(gens, bound, config, alpha_term, cap)
    seeds = []
    for rel in config.extra_relations:
        vec = _vectorize(worker.index, rel)
        if vec is None:
            raise _out_of_window(worker.index, rel, bound, "extra relation term")
        seeds.append(vec)
    worker.run(seeds)
    return RelationBasis(gens, bound, config, worker.terms, worker.rows)
