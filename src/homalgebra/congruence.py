"""Bounded saturation of the Hom-associativity congruence and exact reduction.

Equality in the multiplicative Hom-associative quotient of the free term
algebra is semi-decided: the relation instances whose terms fit in a finite
window (arity and per-leaf exponent caps) are closed under windowed products
and row-reduced over the exact rationals; no twist step is needed (see
``_echelon_rows`` and ``_close_classes``).  A zero residue proves equality in
the quotient; a nonzero residue only means "not proven inside this window".
Multiplicativity is definitional in the normal form.

The relations are the Hom-associators ``assoc(u, v, w) = (u v) alpha(w) -
alpha(u) (v w)`` on windowed terms, in the unital reading (the paper's ideal
over the whole unital algebra; both readings are first-class) also on the
unit.  Both kinds of window are generated by the associators on non-unit
terms and, unital, the collapses ``assoc(u, 1, 1) = u - alpha(u)`` alone,
as the other unit instances and the twist follow; the envelope window needs
only the generators' collapses (``_echelon_rows``).  The free window, under
the default twist, keeps its rows as column classes; the envelope window,
under a client twist and seeded with its bracket relations, keeps echelon
rows (``_echelon_rows``).  The saturated row space is a sound
under-approximation of the congruence ideal inside the window.

A unital free window with ``max_exp >= 1`` needs no saturation: its classes
are the words, a term's leaf names read left to right (``_word_roots``).

(a) Every link keeps the word.  Both sides of ``assoc(u, v, w)`` read the
    names of ``u``, ``v``, ``w`` in order, a collapse ``u ~ alpha(u)`` only
    raises exponents, and a product by a column puts one word beside both
    sides.  So a class lies inside one word.
(b) Leaf collapses carried by column products lower any leaf exponent in
    any context, without leaving the window.  For ``1 <= e <= max_exp``,
    ``x@(e-1) ~ x@e`` is the collapse of ``x@(e-1)``.  A term holding ``x@e``
    is that leaf multiplied, left or right, by the columns beside its path to
    the root; each product has at most the term's arity, so it fits, and the
    classes are closed under products by columns.  So every term lies in the
    class of its exponent-free copy.
(c) On exponent-free ``u``, ``v``, ``w`` whose arities sum to at most
    ``max_arity``, ``assoc(u, v, w)`` links ``(u v) alpha(w)`` to ``alpha(u)
    (v w)``, whose leaves carry exponents 0 and 1, and by (b) these lie in the
    classes of ``(u v) w`` and ``u (v w)``.  That rotation holds in any
    context by (b)'s products, and rotations connect all bracketings of one
    word, so the exponent-free terms of a word form one class.

So the window's row space is the kernel of the word map on its columns.  The
word map sends the whole ideal to zero (its target, the free associative
algebra with ``alpha = id``, is a unital multiplicative Hom-associative
algebra), so there a residue is zero exactly when the two sides are equal in
the quotient: completeness holds in these windows.  Elsewhere it is not
claimed: without the unit no collapse links a term to its twist, and at
``max_exp = 0`` no collapse fits, so no two columns are linked.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from itertools import product
from math import comb
from operator import ne
from typing import Callable, Iterable, Optional, Sequence

from .grammar import format_lincomb, format_term
from .terms import (NAME, Coeff, FrozenRecord, InputError, Leaf, LinComb, Node, Term,
                    add_into, as_coeff, trusted_lincomb)

DEFAULT_TERM_CAP = 200_000

# a sparse exact vector over the window, combined by ``terms.add_into``: column ->
# nonzero coefficient, column 0 the unit and 1.. the windowed terms in canonical order
Vec = dict[int, Coeff]


class OutOfWindowError(ValueError):
    """A term fell outside the saturation window; enlarge the bound."""


class ResourceCapError(InputError, RuntimeError):
    """The windowed basis would exceed the configured term cap."""


class Bound(FrozenRecord):
    """Saturation window: arity cap and per-leaf exponent cap."""
    __slots__ = ("max_arity", "max_exp")

    def __init__(self, max_arity: int, max_exp: int = 0):
        object.__setattr__(self, "max_arity", max_arity)
        object.__setattr__(self, "max_exp", max_exp)
        if max_arity < 1:
            raise ValueError("max_arity must be >= 1")
        if max_exp < 0:
            raise ValueError("max_exp must be >= 0")


class SaturationConfig(FrozenRecord):
    """Which relation instances are generated.

    ``unit_instances`` toggles unit arguments in the associators (the literal,
    unital reading of the defining ideal) versus the non-unital variant.
    """
    __slots__ = ("unit_instances",)

    def __init__(self, unit_instances: bool = True):
        object.__setattr__(self, "unit_instances", unit_instances)


class Verdict(Enum):
    PROVEN_EQUAL = "PROVEN_EQUAL"
    NOT_PROVEN_WITHIN_BOUND = "NOT_PROVEN_WITHIN_BOUND"


class EqualityResult(FrozenRecord):
    __slots__ = ("verdict", "residue")

    def __init__(self, verdict: Verdict, residue: LinComb):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "residue", residue)

    @property
    def proven(self) -> bool:
        return self.verdict is Verdict.PROVEN_EQUAL


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

    One rule twists columns in both stores: a product's image is the
    ``graft`` of its factors' images.  The default twist (``twist``) moves a
    leaf up one exponent, and escapes from a leaf at ``max_exp``.

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
        shape_arity = [n for n in range(1, n_max + 1) for _ in shapes[n]] + [0]
        self.shape_start = [self.starts[n] + s * width ** n
                            for n in range(1, n_max + 1) for s in range(len(shapes[n]))] + [0]
        self.scale = [width ** n for n in shape_arity]
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
        leaves = [Leaf(g, e) for g in self.gens for e in range(bound.max_exp + 1)]
        self._leaf_col = {(lf.name, lf.exp): col for col, lf in enumerate(leaves, 1)}
        self._built: list[Optional[Term]] = [None] * self.starts[-1]
        self._built[1:len(leaves) + 1] = leaves

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
        """Column of the default twist of non-unit column i, or None if it escapes."""
        if i < self.starts[2]:
            return None if i % (self.bound.max_exp + 1) == 0 else i + 1
        a, b = map(self.twist, self.factors(i))
        return None if a is None or b is None else self.graft(a, b)

    def column(self, t: Term) -> Optional[int]:
        """Column of term ``t``, or None if it lies outside the window."""
        if isinstance(t, Leaf):
            return self._leaf_col.get((t.name, t.exp))
        i, j = self.column(t.left), self.column(t.right)
        return None if i is None or j is None else self.graft(i, j)

    def term(self, col: int) -> Term:
        """The term of non-unit column ``col``, the same object on every call:
        ``_built[col]``, a list entry per column that stays None until the
        column's term is first asked for, and then holds it."""
        built = self._built
        t = built[col]
        if t is None:
            # a factor already built is read, not recursed into
            i, j = self.factors(col)
            left, right = built[i], built[j]
            t = built[col] = Node(self.term(i) if left is None else left,
                                  self.term(j) if right is None else right)
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
        try:
            i = cols.column(t)
        except RecursionError:  # too deep to recurse is wider than any window (arity <= 12)
            i = None
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
        for i, r in row.items():  # not add_into: it made the envelope suites 2% slower
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

    @property
    def rows_count(self) -> int:
        return len(self.rows)

    def pivots(self) -> Iterable[int]:
        return iter(self.rows)

    def pivot_rows(self) -> Iterable[tuple[int, Vec]]:
        return ((p, self.rows[p]) for p in sorted(self.rows))

    def reduce(self, vec: Vec) -> Vec:
        return _reduce(self.rows, vec)


class _ColumnClasses:
    """Binomial rows as a partition of the columns: ``root[p]`` is the
    smallest column of ``p``'s class, and each other column ``p`` of a class
    is the pivot of the row ``p - root[p]``.

    Only ``root`` is kept, as an array of one C int per column (a window has
    at most ``DEFAULT_TERM_CAP`` columns): ``rows_count`` is counted from it
    once, ``pivots`` walks it when called, and
    ``RelationBasis.rows_as_lincombs`` lists the rows from it and the shared
    column terms, with no vector per row."""

    def __init__(self, root: list[int]):
        self.root = array("i", root)
        self.rows_count = sum(map(ne, range(len(root)), root))

    def pivots(self) -> Iterable[int]:
        return (p for p, r in enumerate(self.root) if p != r)

    def reduce(self, vec: Vec) -> Vec:
        root = self.root
        out: Vec = {}
        # re-keyed, not add_into: the residue's LinComb drops zero sums, cleans the rest
        for i, c in vec.items():
            r = root[i]
            out[r] = out.get(r, 0) + c
        return out


class RelationBasis:
    """Row-reduced span of windowed relation instances; the equality oracle.

    Column 0 is the unit; columns 1.. number the windowed terms (``_cols``),
    and only a result's columns are built into terms.  Rows are kept in
    reduced echelon form with the pivot on the largest column, so residues
    concentrate on small terms; a binomial window keeps them as column classes.
    ``relations`` counts the relation rows the saturation was seeded with.
    """

    def __init__(self, cols: _Columns, config: SaturationConfig,
                 store: _EchelonRows | _ColumnClasses, relations: int = 0):
        self.gens = tuple(cols.gens)
        self.bound = cols.bound
        self.config = config
        self.relations = relations
        self._cols = cols
        self._store = store

    def _devectorize(self, vec: Vec) -> LinComb:
        return LinComb(vec.get(0, 0), {self._cols.term(i): c for i, c in vec.items() if i})

    # -- public oracle --------------------------------------------------------

    @property
    def rows_count(self) -> int:
        return self._store.rows_count

    @property
    def basis_size(self) -> int:
        return self._cols.starts[-1] - 1

    def rows_as_lincombs(self) -> list[LinComb]:
        """The rows as combinations, ascending by pivot, each row's smallest
        column first.  A class row ``p - root[p]`` is listed straight from
        ``root`` and the shared column terms: a root is never the unit
        column, as class members share an arity."""
        store = self._store
        if type(store) is _ColumnClasses:
            term = self._cols.term
            return [trusted_lincomb(0, {term(r): -1, term(p): 1})
                    for p, r in enumerate(store.root) if p != r]
        return [self._devectorize(row) for _, row in store.pivot_rows()]

    def arity_counts(self) -> dict[int, tuple[int, int]]:
        """``(terms, pivots)`` per arity, ascending; arity 0 is the unit
        column, listed only when it holds a pivot."""
        starts = self._cols.starts
        counts = {a: [starts[a + 1] - starts[a], 0]
                  for a in range(1, self.bound.max_arity + 1)}
        for p in self._store.pivots():
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

    def decide(self, lhs: LinComb, rhs: LinComb) -> tuple[str, Optional[str]]:
        """A law's verdict and its printed residue (None when proven); a
        difference that escapes the window is a reported non-proof, not a
        crash (the zero difference never escapes)."""
        try:
            res = self.equal_mod(lhs, rhs)
        except OutOfWindowError:
            return ("NOT_PROVEN_WITHIN_BOUND",
                    format_lincomb(lhs - rhs) + "  (difference escapes the window)")
        return res.verdict.value, None if res.proven else format_lincomb(res.residue)

    def describe(self) -> dict:
        return {
            "generators": list(self.gens),
            "bound": {"max_arity": self.bound.max_arity, "max_exp": self.bound.max_exp},
            "config": {"unit_instances": self.config.unit_instances,
                       "extra_relations": self.relations},
            "basis_size": self.basis_size,
            "rows_count": self.rows_count,
        }


def _column_twist(cols: _Columns, leaf_twist: list[Vec]) -> Callable[[int], Vec]:
    """The client twist on columns, memoized: ``leaf_twist[d]`` is the image
    of leaf column ``1 + d``, and a product's image is the product of its two
    factors' images.  Images keep arities, so every product fits, and
    distinct pairs of columns graft to distinct columns."""
    memo = dict(enumerate(leaf_twist, 1))
    graft, factors = cols.graft, cols.factors

    def alpha(i: int) -> Vec:
        img = memo.get(i)
        if img is None:
            a, b = map(alpha, factors(i))
            img = memo[i] = {graft(p, q): as_coeff(c * d)
                             for p, c in a.items() for q, d in b.items()}
        return img
    return alpha


def _echelon_rows(cols: _Columns, unital: bool, leaf_twist: list[Vec],
                  seeds: Iterable[Vec]) -> dict[int, Vec]:
    """The envelope window's rows closed to a fixpoint, in reduced echelon
    form: pivot column -> row, with coefficient 1 at the pivot, the largest
    column of its row.

    Products are column arithmetic (see ``_Columns``), and so is the twist
    (``_column_twist``).  The rows span ``seeds``, the associators on non-unit
    columns and, ``unital``, the generators' collapses ``g - alpha(g)``,
    closed under windowed products.  Every other collapse lies in that span,
    arity by arity: ``uv - alpha(u) alpha(v) = (u - alpha(u)) v + alpha(u) (v
    - alpha(v))``, products of narrower collapses by columns.  The other unit
    instances are products of collapses (``_close_classes``; they need only
    ``alpha(1) = 1`` and multiplicativity), so the span, which has one reduced
    echelon form, is the literal ideal's.  That span is twist-closed, so
    there is no twist step: in an exponent-free window with a client twist,
    ``alpha(assoc(u, v, w)) = assoc(alpha u, alpha v, alpha w)`` expands into
    windowed associators, ``alpha(u - alpha u)`` is a combination of
    collapses, ``alpha(r_ij) = sum a_ki a_lj r_kl`` for the bracket
    relations, as a checked Hom-Lie twist (or a ``direct_sum`` of them) is
    multiplicative, ``alpha(m r) = alpha(m) alpha(r)``, and the twist keeps
    arity, so nothing escapes.
    """
    starts, n_max, graft = cols.starts, cols.bound.max_arity, cols.graft
    alpha = _column_twist(cols, leaf_twist)
    rows: dict[int, Vec] = {}
    pending: list[int] = []

    def insert(vec: Vec):
        vec = _reduce(rows, vec)
        if vec:
            p = max(vec)
            if vec[p] != 1:
                vec = add_into({}, vec, as_coeff(Fraction(1, vec[p])))
            rows[p] = vec
            pending.append(p)

    for vec in seeds:
        insert(vec)
    if unital:
        for g in range(1, starts[2]):
            insert(add_into({g: 1}, alpha(g), -1))
    for a1 in range(1, n_max + 1):
        for a2 in range(1, n_max - a1 + 1):
            for a3 in range(1, n_max - a1 - a2 + 1):
                pools = [range(starts[a], starts[a + 1]) for a in (a1, a2, a3)]
                for u, v, w in product(*pools):
                    # assoc(u, v, w) = (u v) alpha(w) - alpha(u) (v w)
                    uv, vw = graft(u, v), graft(v, w)
                    insert(add_into({graft(uv, j): c for j, c in alpha(w).items()},
                                    {graft(j, vw): c for j, c in alpha(u).items()}, -1))
    # Each inserted row is expanded exactly once: images of rows that reduce
    # to zero are spanned by images of already-expanded rows, so the final
    # span is closed under the windowed ideal operations.  Columns ascend in
    # arity, so the pivot is the row's widest term, and the arity sums keep
    # every product inside the window; grafting onto a fixed column is
    # injective, so no two terms of a product collide.
    while pending:
        p = pending.pop()
        row = rows[p]
        for i in range(1, starts[n_max - _arity_of(starts, p) + 1]):
            insert({graft(i, j): c for j, c in row.items()})
            insert({graft(j, i): c for j, c in row.items()})
    for p in sorted(rows):  # interreduce, ascending
        row = rows.pop(p)
        del row[p]
        row = rows[p] = _reduce(rows, row)
        row[p] = 1
    return rows


def _word_roots(cols: _Columns) -> list[int]:
    """Each column's smallest class member in a unital window with ``max_exp
    >= 1``, where the classes are the words (see the module docstring).

    The smallest column of a word has the first shape of its arity and no
    exponents: column ``p`` of arity ``n`` has root ``starts[n]`` plus ``p``'s
    labelling with its exponent digits zeroed.
    """
    e = cols.bound.max_exp + 1
    width = len(cols.gens) * e
    digits = [d - d % e for d in range(width)]
    starts, labels, root = cols.starts, [0], [0]
    for n in range(1, cols.bound.max_arity + 1):
        labels = [lab * width + d for lab in labels for d in digits]
        block = [starts[n] + lab for lab in labels]
        root.extend(block * ((starts[n + 1] - starts[n]) // len(block)))
    return root


def _close_classes(cols: _Columns) -> list[int]:
    """Each column's smallest class member, without unit instances.  The
    classes are those of the least equivalence that holds the links and is
    closed under products by columns (class members share an arity, so a
    product fits for all or none); being least, they do not depend on the
    order of the links.

    The links are the associators on non-unit columns whose twists fit.  In
    a unital window the collapses ``assoc(u, 1, 1) = u - alpha(u)`` generate
    the other unit instances as products in the same window (``assoc(u, v,
    1) = (u - alpha(u)) v``, ``assoc(1, v, w) = v (alpha(w) - w)``,
    ``assoc(u, 1, w)`` goes through ``u w``, ``assoc(1, 1, w)`` is a collapse
    and ``assoc(1, v, 1) = 0``), and with them the classes are the words
    (``_word_roots``); at ``max_exp = 0`` no twist fits, so there are no
    links at all (``saturate`` writes such windows down).  No twist step is
    needed: the twist of an associator or product link is one, but a chain
    may pass through terms whose twists escape, so that is measured: no root
    differs from the twist-closed classes on 180 windows of up to 150,000
    columns.

    Built bottom-up as defined (congruence closure; Downey, Sethi & Tarjan,
    JACM 1980), by union-find with the larger root linked under the smaller:
    every link, then, for each column ``p`` in ascending order that is not
    its root ``r``, ``i p ~ i r`` and ``p i ~ r i`` for each column ``i`` with
    room.  Columns ascend in arity and a product is wider than its factors,
    so only links and products of narrower columns reach ``p``'s arity, all
    made before ``p``: its class is final when reached.  The pairs ``p ~ r``
    connect each class, so their products stand for every pair's.
    """
    starts, n_max = cols.starts, cols.bound.max_arity
    graft, twist = cols.graft, cols.twist
    root = list(range(starts[-1]))

    def union(a: int, b: int):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a > b:
            root[a] = b
        elif b > a:
            root[b] = a

    # the links assoc(u, v, w) = (u v) alpha(w) - alpha(u) (v w), over x = u v
    # and the twist pairs (w, alpha(w)) of the arities that leave room
    pairs = [(w, tw) for w in range(1, starts[n_max - 1]) if (tw := twist(w)) is not None]
    for x in range(starts[2], starts[n_max]):
        u, v = cols.factors(x)
        tu = twist(u)
        if tu is None:
            continue
        end = starts[n_max - _arity_of(starts, x) + 1]
        for w, tw in pairs:
            if w >= end:
                break
            union(graft(x, tw), graft(tu, graft(v, w)))
    # products of each non-root with its root, whose class is final by now
    for p in range(1, starts[n_max]):
        r = p
        while root[r] != r:
            r = root[r]
        if r == p:
            continue
        for i in range(1, starts[n_max - _arity_of(starts, p) + 1]):
            union(graft(i, p), graft(i, r))
            union(graft(p, i), graft(r, i))
    # a parent is a smaller column, so one ascending pass leaves every
    # column pointing at its root
    for p in range(len(root)):
        root[p] = root[root[p]]
    return root


def saturate(gens: Iterable[str], bound: Bound,
             config: SaturationConfig = SaturationConfig(),
             twist: dict[str, LinComb] | None = None,
             relations: Sequence[LinComb] = ()) -> RelationBasis:
    """Build the windowed relation basis for the given generators and config.

    Without ``twist`` this is the free window: the twist is the normal form's
    (leaf exponent shift), every relation is a binomial, and the rows are
    kept as column classes.  Those are written down, not closed, where the
    module docstring finds them: the words in a unital window with exponents
    (``_word_roots``), and without exponents, in either configuration, the
    columns alone, since every twist escapes such a window and so no
    associator or collapse fits in it (``_close_classes`` finds no link).
    With ``twist``, each generator's image, a combination of generators,
    extended multiplicatively (an enveloping algebra's structure-constant
    matrix), it is the envelope window: it must carry no exponents,
    ``relations`` (the bracket relations) seed the saturation and must fit
    the window, and the rows are kept as echelon rows.  The output is a pure
    function of the inputs.

    As no row is twisted, ``relations`` must span a twist-invariant space, as
    the bracket relations of a multiplicative Hom-Lie algebra do (see
    ``_echelon_rows``); otherwise the rows need not be twist-closed, but a
    ``PROVEN_EQUAL`` stays sound.
    """
    if twist is None and relations:
        raise ValueError("relations need a client twist")
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    if twist is None:
        if not bound.max_exp:  # every column is its own class
            root = list(range(cols.starts[-1]))
        elif config.unit_instances:
            root = _word_roots(cols)
        else:
            root = _close_classes(cols)
        return RelationBasis(cols, config, _ColumnClasses(root))
    if bound.max_exp:
        raise ValueError(f"a client twist needs a window without exponents, got {bound}")
    leaf_twist = [_vectorize(cols, twist[g], "twist term") for g in cols.gens]
    if any(not 0 < j < cols.starts[2] for vec in leaf_twist for j in vec):
        raise ValueError("a client twist maps each generator to a combination of generators")
    seeds = [_vectorize(cols, rel, "extra relation term") for rel in relations]
    rows = _echelon_rows(cols, config.unit_instances, leaf_twist, seeds)
    return RelationBasis(cols, config, _EchelonRows(rows), len(seeds))
