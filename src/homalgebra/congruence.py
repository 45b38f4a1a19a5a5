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

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Iterable, Optional

from .grammar import format_term
from .terms import NAME, Coeff, Leaf, LinComb, Node, Term, as_coeff

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


def _shapes(max_arity: int) -> list[list[tuple[int, int, int]]]:
    """Planar binary tree shapes per arity, ascending by leaf-depth sequence.

    ``shapes[n][s]`` is ``(k, sl, sr)``: the left subtree has arity ``k`` and
    shape ``sl`` there, the right one arity ``n - k`` and shape ``sr``.  The
    one leaf shape is ``shapes[1] == [(0, 0, 0)]``; ``shapes[0]`` is empty.
    """
    shapes: list[list[tuple[int, int, int]]] = [[], [(0, 0, 0)]]
    depths = [[], [(0,)]]
    for n in range(2, max_arity + 1):
        level = sorted(
            (tuple(d + 1 for d in depths[k][sl] + depths[n - k][sr]), (k, sl, sr))
            for k in range(1, n)
            for sl in range(len(shapes[k]))
            for sr in range(len(shapes[n - k])))
        depths.append([d for d, _ in level])
        shapes.append([shape for _, shape in level])
    return shapes


def _arity_of(starts: list[int], col: int) -> int:
    """Arity of column ``col``, given the first column of each arity."""
    return bisect_right(starts, col) - 1


class _Columns:
    """How a window numbers its terms, and its products and default twist.

    The canonical order is arity, then shape (``_shapes``), then the leaf
    labels ``(name, exp)``.  A leaf label is the digit ``g * (max_exp + 1) +
    exp`` of base ``width = |gens| * (max_exp + 1)``, with ``g`` the index of
    ``name`` among the sorted generators; an arity-``n`` term's labelling is
    its ``n`` digits read as one number.  So the term of arity ``n``, shape
    ``s`` and labelling ``lab`` sits in column ``starts[n] + s * width**n +
    lab``, and column 0 is the unit.

    Every shape of every arity also gets one number, in column order, with
    the unit's own shape of arity 0 numbered last; ``shape_of[i]`` is column
    ``i``'s.  ``Node(t_i, t_j)`` has labelling ``lab_i * width**b + lab_j``,
    ``b`` the arity of ``t_j``, and its shape is the join of the two shapes,
    so its column is ``join[shape_of[i]][shape_of[j]] + i * scale[shape_of[j]]
    + j``.  Only the pairs that fit the window have a join: one per shape of
    arity >= 2, plus the unit's pairs.  ``factors`` inverts ``graft``, and
    ``term`` builds a column's term from it, once; ``column`` inverts ``term``.

    The window's size is checked against ``cap`` before any shape is built.
    """

    def __init__(self, gens: Iterable[str], bound: Bound, cap: int):
        self.gens = sorted(set(gens))
        if not self.gens:
            raise ValueError("empty generator set")
        for g in self.gens:
            if not NAME.fullmatch(g):
                raise ValueError(f"generator name {g!r} must match {NAME.pattern}")
        self.bound = bound
        width = len(self.gens) * (bound.max_exp + 1)
        n_max = bound.max_arity
        size = 0
        for n in range(1, n_max + 1):
            # Catalan(n - 1) shapes of arity n, width**n labellings each
            size += comb(2 * n - 2, n - 1) // n * width ** n
            if size > cap:
                raise ResourceCapError(f"windowed basis exceeds the term cap of {cap}"
                                       f" (bound {bound}, {len(self.gens)} generators)")
        shapes = _shapes(n_max)
        self.starts = [0, 1]
        first = [0, 0]
        for n in range(1, n_max + 1):
            self.starts.append(self.starts[-1] + len(shapes[n]) * width ** n)
            first.append(first[-1] + len(shapes[n]))
        unit = first[-1]
        self.shape_arity = [n for n in range(1, n_max + 1) for _ in shapes[n]] + [0]
        self.shape_start = [self.starts[n] + s * width ** n
                            for n in range(1, n_max + 1) for s in range(len(shapes[n]))] + [0]
        self.scale = [width ** n for n in self.shape_arity]
        self.shape_of = [unit]
        for g in range(unit):
            self.shape_of.extend([g] * self.scale[g])
        start, scale = self.shape_start, self.scale
        self.join: list[dict[int, int]] = [{unit: 0} for _ in range(unit)]
        self.join.append(dict.fromkeys(range(unit + 1), 0))
        self.split: dict[int, tuple[int, int]] = {}  # a shape's two factor shapes
        for n in range(2, n_max + 1):
            for s, (k, sl, sr) in enumerate(shapes[n]):
                gi, gj = first[k] + sl, first[n - k] + sr
                self.join[gi][gj] = start[first[n] + s] - start[gi] * scale[gj] - start[gj]
                self.split[first[n] + s] = (gi, gj)
        # the default twist raises every leaf exponent: a labelling's digits
        # each go up by one, unless one of its leaves is already at max_exp
        top = bound.max_exp
        leaf_escapes = [d % (top + 1) == top for d in range(width)]
        self.escapes = [[False]]
        for n in range(1, n_max + 1):
            self.escapes.append([x or y for x in self.escapes[-1] for y in leaf_escapes])
        self.twist_shift = [sum(width ** m for m in range(n)) for n in range(n_max + 1)]
        leaves = [Leaf(g, e) for g in self.gens for e in range(top + 1)]
        self._leaf_col = {(lf.name, lf.exp): col for col, lf in enumerate(leaves, 1)}
        self._built: dict[int, Term] = dict(enumerate(leaves, 1))

    def graft(self, i: int, j: int) -> Optional[int]:
        """Column of the product of columns i, j (unit-aware), or None."""
        gj = self.shape_of[j]
        base = self.join[self.shape_of[i]].get(gj)
        if base is None:
            return None
        return base + i * self.scale[gj] + j

    def factors(self, col: int) -> tuple[int, int]:
        """The non-unit columns ``i, j`` with ``graft(i, j) == col``, arity >= 2."""
        g = self.shape_of[col]
        gi, gj = self.split[g]
        i, j = divmod(col - self.shape_start[g], self.scale[gj])
        return self.shape_start[gi] + i, self.shape_start[gj] + j

    def twist(self, i: int) -> Optional[int]:
        """Column of the default twist of column i, or None if it escapes."""
        g = self.shape_of[i]
        n = self.shape_arity[g]
        if self.escapes[n][i - self.shape_start[g]]:
            return None
        return i + self.twist_shift[n]

    def column(self, t: Term) -> Optional[int]:
        """Column of term ``t``, or None if it lies outside the window."""
        if isinstance(t, Leaf):
            return self._leaf_col.get((t.name, t.exp))
        i, j = self.column(t.left), self.column(t.right)
        return None if i is None or j is None else self.graft(i, j)

    def term(self, col: int) -> Term:
        """The term of non-unit column ``col``, the same object on every call."""
        t = self._built.get(col)
        if t is None:
            i, j = self.factors(col)
            t = self._built[col] = Node(self.term(i), self.term(j))
        return t


def enumerate_terms(gens: Iterable[str], bound: Bound) -> list[Term]:
    """The terms of columns 1.., ascending in the canonical term order.

    The window's size is checked against ``DEFAULT_TERM_CAP`` before anything
    is built.
    """
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    return list(map(cols.term, range(1, cols.starts[-1])))


def _vectorize(cols: _Columns, v: LinComb, what: str = "term") -> Vec:
    """The column vector of ``v``; every term of ``v`` must have a column."""
    vec: Vec = {0: v.unit} if v.unit else {}
    for t, c in v.terms.items():
        i = cols.column(t)
        if i is None:
            raise OutOfWindowError(f"{what} {format_term(t)} lies outside bound {cols.bound}")
        vec[i] = c
    return vec


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


class _EchelonRows:
    """Rows in reduced echelon form: pivot column -> row, with coefficient 1
    at the pivot, the largest column of its row."""

    def __init__(self, rows: dict[int, Vec]):
        self.rows = rows
        self.pivots = rows  # a dict iterates its keys, the pivot columns

    def pivot_rows(self) -> Iterable[tuple[int, Vec]]:
        return ((p, self.rows[p]) for p in sorted(self.rows))

    def reduce(self, vec: Vec) -> Vec:
        return _reduce(self.rows, vec)


class _ColumnClasses:
    """Binomial rows as a partition of the columns: ``root[p]`` is the
    smallest column of ``p``'s class, and each other column ``p`` of a class
    is the pivot of the row ``p - root[p]``."""

    def __init__(self, root: list[int]):
        self.root = root
        self.pivots = [p for p, r in enumerate(root) if p != r]

    def pivot_rows(self) -> Iterable[tuple[int, Vec]]:
        root = self.root
        return ((p, {root[p]: -1, p: 1}) for p in self.pivots)

    def reduce(self, vec: Vec) -> Vec:
        root = self.root
        out: Vec = {}
        for i, c in vec.items():
            r = root[i]
            out[r] = out.get(r, 0) + c
        # the residue's LinComb drops the zero sums and keeps the rest exact
        return out


class RelationBasis:
    """Row-reduced span of windowed relation instances; the equality oracle.

    Column 0 is the unit; columns 1.. number the windowed terms (``_cols``),
    and only a result's columns are built into terms.  Rows are kept in
    reduced echelon form with the pivot on the largest column, so residues
    concentrate on small terms; a binomial window keeps them as column classes.
    """

    def __init__(self, cols: _Columns, config: SaturationConfig,
                 store: _EchelonRows | _ColumnClasses):
        self.gens = tuple(cols.gens)
        self.bound = cols.bound
        self.config = config
        self._cols = cols
        self._store = store

    def _devectorize(self, vec: Vec) -> LinComb:
        return LinComb(vec.get(0, 0), {self._cols.term(i): c for i, c in vec.items() if i})

    # -- public oracle --------------------------------------------------------

    @property
    def rows_count(self) -> int:
        return len(self._store.pivots)

    @property
    def basis_size(self) -> int:
        return self._cols.starts[-1] - 1

    def rows_as_lincombs(self) -> list[LinComb]:
        return [self._devectorize(row) for _, row in self._store.pivot_rows()]

    def arity_counts(self) -> dict[int, tuple[int, int]]:
        """``(terms, pivots)`` per arity, ascending; arity 0 is the unit
        column, listed only when it holds a pivot."""
        starts = self._cols.starts
        counts = {a: [starts[a + 1] - starts[a], 0]
                  for a in range(1, self.bound.max_arity + 1)}
        for p in self._store.pivots:
            counts.setdefault(_arity_of(starts, p), [0, 0])[1] += 1
        return {a: (t, p) for a, (t, p) in sorted(counts.items())}

    def reduce(self, v: LinComb) -> LinComb:
        """Canonical residue of ``v`` modulo the row space (linear, idempotent)."""
        vec = _vectorize(self._cols, v)
        return self._devectorize(self._store.reduce(vec))

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
    """Index-level worker: builds the echelon row space to a closure fixpoint.

    Products are column arithmetic (see ``_Columns``), and so is the twist:
    ``leaf_twist[d]`` is the image of leaf column ``1 + d`` (None if it
    escapes the window), and a product's image is the product of its two
    factors' images.
    """

    def __init__(self, cols: _Columns, config, leaf_twist: list[Optional[Vec]]):
        self.bound = cols.bound
        self.config = config
        self.cols = cols
        self.rows: dict[int, Vec] = {}
        self._graft = cols.graft
        self._twists: dict[int, Optional[Vec]] = {0: {0: 1}, **dict(enumerate(leaf_twist, 1))}

    def _alpha_col(self, i: int) -> Optional[Vec]:
        """Image of basis column i under the twist, or None if it escapes."""
        memo = self._twists
        if i not in memo:
            a, b = map(self._alpha_col, self.cols.factors(i))
            # images keep arities, so every product fits, and distinct
            # pairs of columns graft to distinct columns
            memo[i] = None if a is None or b is None else {
                self._graft(p, q): as_coeff(c * d) for p, c in a.items() for q, d in b.items()}
        return memo[i]

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
        # grafting onto a fixed column is injective, so no two terms collide
        out: Vec = {}
        for j, c in vec.items():
            col = self._graft(i, j) if on_left else self._graft(j, i)
            if col is None:
                return None
            out[col] = c
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
        starts = self.cols.starts
        # the columns of arity a, with the unit alone at arity 0
        pools = [range(starts[a], starts[a + 1]) for a in range(n_max + 1)]
        arg_arities = range(0 if self.config.unit_instances else 1, n_max + 1)
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
        # columns are ascending in arity: the row's widest term is its last
        room = self.bound.max_arity - _arity_of(self.cols.starts, max(vec))
        for i in range(1, self.cols.starts[max(room, 0) + 1]):
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
        return self.rows

    def _interreduce(self):
        for p in sorted(self.rows):
            row = self.rows.pop(p)
            tail = {i: c for i, c in row.items() if i != p}
            tail = _reduce(self.rows, tail)
            tail[p] = 1
            self.rows[p] = tail


def _close_classes(cols: _Columns, unit_instances: bool) -> list[int]:
    """The column classes of the default-twist associator instances, closed
    under the windowed twist and left and right products: each column's
    smallest class member.

    Every relation here is a binomial ``l - r``, so this is ``_Saturator`` on
    column numbers: reducing a binomial against binomial echelon rows finds
    the roots of its two columns, inserting it links the larger root under
    the smaller, and a row's expansion is that of its merge ``(hi, lo)``.
    The instances come in the same order, and the merges are expanded once
    each, last in first out, so the classes give the same rows.
    """
    starts, n_max = cols.starts, cols.bound.max_arity
    graft, twist, shift = cols.graft, cols.twist, cols.twist_shift
    shape_of, shape_start, scale, join = cols.shape_of, cols.shape_start, cols.scale, cols.join
    root = list(range(starts[-1]))
    merges: list[tuple[int, int]] = []

    def union(a: int, b: int):
        ra, rb = root[a], root[b]
        while ra != root[ra]:
            ra = root[ra]
        while rb != root[rb]:
            rb = root[rb]
        while root[a] != ra:
            root[a], a = ra, root[a]
        while root[b] != rb:
            root[b], b = rb, root[b]
        if ra != rb:
            hi, lo = (ra, rb) if ra > rb else (rb, ra)
            root[hi] = lo
            merges.append((hi, lo))

    # the shapes of each arity, the unit's last, and per shape the columns
    # whose twist stays in the window
    shapes = [[g for g, n in enumerate(cols.shape_arity) if n == a] for a in range(n_max + 1)]
    untwisted = [[w for w in range(shape_start[g], shape_start[g] + scale[g])
                  if twist(w) is not None] for g in range(len(scale))]
    # assoc(u, v, w) = (u v) alpha(w) - alpha(u) (v w): within a shape block
    # of w both sides are a constant plus w, since a twist adds a constant
    arg_arities = range(0 if unit_instances else 1, n_max + 1)
    for a1 in arg_arities:
        for a2 in arg_arities:
            for a3 in arg_arities:
                if a1 + a2 + a3 > n_max or a1 + a2 + a3 == 0:
                    continue
                for u in range(starts[a1], starts[a1 + 1]):
                    tu = twist(u)
                    if tu is None:
                        continue
                    gu = shape_of[u]
                    for v in range(starts[a2], starts[a2 + 1]):
                        uv = graft(u, v)
                        gv, guv = shape_of[v], shape_of[uv]
                        for gw in shapes[a3]:
                            kw = scale[gw]
                            gvw = shape_of[graft(v, shape_start[gw])]
                            left = join[guv][gw] + uv * kw + shift[a3]
                            right = join[gu][gvw] + tu * scale[gvw] + join[gv][gw] + v * kw
                            if left != right:
                                for w in untwisted[gw]:
                                    union(left + w, right + w)
    # a merge's products by each column i of a shape block g are, like the
    # twist, constants plus a multiple of i
    shapes_upto = list(accumulate((len(shapes[a]) for a in range(1, n_max + 1)), initial=0))
    while merges:
        hi, lo = merges.pop()
        th, tl = twist(hi), twist(lo)
        if th is not None and tl is not None:
            union(th, tl)
        g_hi, g_lo = shape_of[hi], shape_of[lo]
        k_hi, k_lo = scale[g_hi], scale[g_lo]
        for g in range(shapes_upto[n_max - _arity_of(starts, hi)]):
            k = scale[g]
            a, b = join[g][g_hi] + hi, join[g][g_lo] + lo
            c, d = join[g_hi][g] + hi * k, join[g_lo][g] + lo * k
            for i in range(shape_start[g], shape_start[g] + k):
                union(a + i * k_hi, b + i * k_lo)
                union(c + i, d + i)
    # a parent is a smaller column, so one ascending pass leaves every
    # column pointing at its root
    for p in range(len(root)):
        root[p] = root[root[p]]
    return root


def saturate(gens: Iterable[str], bound: Bound,
             config: SaturationConfig = SaturationConfig(),
             twist: dict[str, LinComb] | None = None,
             cap: int = DEFAULT_TERM_CAP) -> RelationBasis:
    """Build the windowed relation basis for the given generators and config.

    ``twist`` overrides the normal-form twist (leaf exponent shift) with each
    generator's image, a combination of generators, extended multiplicatively
    (e.g. a structure-constant matrix for enveloping algebras); the window
    must then carry no exponents.  The output is a pure function of the inputs.

    Without a client twist or extra relations every relation is a binomial,
    and the rows are kept as column classes; otherwise as echelon rows.
    """
    cols = _Columns(gens, bound, cap)
    if twist is None and not config.extra_relations:
        store = _ColumnClasses(_close_classes(cols, config.unit_instances))
        return RelationBasis(cols, config, store)
    if twist is None:
        leaf_twist = [None if j is None else {j: 1}
                      for j in map(cols.twist, range(1, cols.starts[2]))]
    elif bound.max_exp:
        raise ValueError(f"a client twist needs a window without exponents, got {bound}")
    else:
        leaf_twist = [_vectorize(cols, twist[g], "twist term") for g in cols.gens]
        if any(not 0 < j < cols.starts[2] for vec in leaf_twist for j in vec):
            raise ValueError("a client twist maps each generator to a combination of generators")
    seeds = [_vectorize(cols, rel, "extra relation term") for rel in config.extra_relations]
    rows = _Saturator(cols, config, leaf_twist).run(seeds)
    return RelationBasis(cols, config, _EchelonRows(rows))
