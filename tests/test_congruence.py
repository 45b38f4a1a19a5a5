"""The bounded congruence oracle: associators, saturation, reduction."""

import functools
import gc
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalgebra.congruence import (DEFAULT_TERM_CAP, Bound, OutOfWindowError,
                                   RelationBasis, ResourceCapError,
                                   SaturationConfig, Verdict, _Columns,
                                   _EchelonRows, _Saturator, _close_classes,
                                   _vectorize, enumerate_terms, hom_associator, saturate)
from homalgebra.grammar import format_lincomb, format_term, parse_lincomb
from homalgebra.homlie import (LEG_TAGS2, LEG_TAGS3, EnvelopeBialgebra,
                               abelian_hom_lie, affine_line_twisted,
                               bracket_relations, direct_sum, envelope,
                               load_hom_lie)
from homalgebra.terms import (Leaf, LinComb, Node, add_into, arity, leaves, make_leaf,
                              random_lincomb, rename, shift_term, sort_key)
from test_cli import GOLDEN_FILES

NON_UNITAL = SaturationConfig(unit_instances=False)
UNITAL = SaturationConfig(unit_instances=True)


def x(e=0):
    return make_leaf("x", e)


def y(e=0):
    return make_leaf("y", e)


def z(e=0):
    return make_leaf("z", e)


def test_hom_associator_plain():
    got = hom_associator(x(), y(), z())
    assert got == (x() * y()) * z(1) - x(1) * (y() * z())


def test_hom_associator_all_units():
    one = LinComb.one()
    assert hom_associator(one, one, one) == LinComb.zero()


def test_hom_associator_leading_unit():
    # oracle: expand by hand with the strict unit and the unit-fixing twist:
    # (1*y)*alpha(z) - alpha(1)*(y*z) = y*alpha(z) - y*z
    got = hom_associator(LinComb.one(), y(), z())
    assert got == y() * z(1) - y() * z()


def test_saturate_empty_below_arity_three():
    basis = saturate(["x"], Bound(2, 0), NON_UNITAL)
    assert basis.rows_count == 0


def test_saturate_contains_generated_instance():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    assert basis.reduce(hom_associator(x(), y(), z())).is_zero()


def test_unit_config_proves_exponent_collapse():
    # oracle: the explicit chain — the associator at (1, x, y) is exactly
    # x*alpha(y) - x*y, which the row space must contain
    chain = x() * y(1) - x() * y()
    assert hom_associator(LinComb.one(), x(), y()) == chain
    basis = saturate(["x", "y"], Bound(2, 1), UNITAL)
    res = basis.equal_mod(x() * y(1), x() * y())
    assert res.verdict is Verdict.PROVEN_EQUAL
    # cross-check by brute force: the chain vector reduces to zero
    assert basis.reduce(chain).is_zero()


def test_reduce_zero_and_rows():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    assert basis.reduce(LinComb.zero()) == LinComb.zero()
    for row in basis.rows_as_lincombs():
        assert basis.reduce(row).is_zero()


def test_reduce_relates_the_two_associations():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    lhs = (x() * y()) * z(1)
    rhs = x(1) * (y() * z())
    assert basis.reduce(lhs - rhs).is_zero()
    # the residue is one of the two sides' classes
    assert basis.reduce(lhs) in (lhs, rhs)


def test_reduce_row_space_invariance_and_linearity():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    rng = random.Random(21)
    rows = basis.rows_as_lincombs()
    for _ in range(15):
        v = random_lincomb(rng, ["x", "y", "z"], max_arity=3, max_exp=1, with_unit=True)
        r = rows[rng.randrange(len(rows))]
        assert basis.reduce(v + r) == basis.reduce(v)
        w = random_lincomb(rng, ["x", "y", "z"], max_arity=3, max_exp=1)
        a = Fraction(rng.randint(-3, 3))
        assert basis.reduce(a * v + w) == a * basis.reduce(v) + basis.reduce(w)
        assert basis.reduce(basis.reduce(v)) == basis.reduce(v)


def test_equal_mod_reflexive_and_verdicts():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    assert basis.equal_mod(x(), x()).verdict is Verdict.PROVEN_EQUAL
    res = basis.equal_mod((x() * y()) * z(1), x(1) * (y() * z()))
    assert res.verdict is Verdict.PROVEN_EQUAL


def test_arity_one_terms_admit_no_nonunital_relations():
    # grading argument: every non-unital relation row has arity >= 3, and the
    # closure operations preserve that, so nothing can touch arity-1 terms
    for bound in (Bound(3, 1), Bound(3, 2), Bound(4, 1)):
        basis = saturate(["x"], bound, NON_UNITAL)
        res = basis.equal_mod(x(0), x(1))
        assert res.verdict is Verdict.NOT_PROVEN_WITHIN_BOUND
        assert res.residue == x(0) - x(1)


def test_equivalence_and_congruence_properties():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    a = (x() * y()) * z(1)
    b = x(1) * (y() * z())
    # symmetric and transitive through the residue
    assert basis.equal_mod(b, a).proven
    assert basis.equal_mod(a, a).proven
    # congruence for the twist when images stay in-window: alpha escapes
    # this window (weight grows), so check a smaller instance instead
    small = saturate(["x", "y"], Bound(3, 2), NON_UNITAL)
    u = (x() * y()) * y(1)
    v = x(1) * (y() * y())
    assert small.equal_mod(u, v).proven
    assert small.equal_mod(u.alpha(), v.alpha()).proven
    # congruence for products: with unit instances the twist of a leaf is
    # identified with the leaf, and multiplying both sides keeps the proof
    unital = saturate(["x", "y"], Bound(2, 1), UNITAL)
    assert unital.equal_mod(x(0), x(1)).proven
    assert unital.equal_mod(y() * x(0), y() * x(1)).proven
    assert unital.equal_mod(x(0) * y(), x(1) * y()).proven


def test_monotonicity_on_proven_families():
    u = (x() * y()) * z(1)
    v = x(1) * (y() * z())
    for config in (NON_UNITAL, UNITAL):
        small = saturate(["x", "y", "z"], Bound(3, 1), config)
        big = saturate(["x", "y", "z"], Bound(4, 2), config)
        assert small.equal_mod(u, v).proven
        assert big.equal_mod(u, v).proven
    # unit collapse instances stay proven in a bigger window
    small = saturate(["x", "y"], Bound(2, 1), UNITAL)
    big = saturate(["x", "y"], Bound(3, 2), UNITAL)
    assert small.equal_mod(x() * y(1), x() * y()).proven
    assert big.equal_mod(x() * y(1), x() * y()).proven


def test_unit_collapse_property_on_samples():
    basis = saturate(["x", "y"], Bound(3, 1), UNITAL)
    rng = random.Random(31)
    for _ in range(12):
        u = random_lincomb(rng, ["x", "y"], max_arity=1, max_exp=1, n_terms=2)
        v = random_lincomb(rng, ["x", "y"], max_arity=2, max_exp=0, n_terms=2)
        if u.is_zero() or v.is_zero():
            continue
        assert basis.equal_mod(u * v.alpha(), u * v).proven


def test_determinism_of_saturation():
    one = saturate(["x", "y"], Bound(3, 1), UNITAL)
    two = saturate(["x", "y"], Bound(3, 1), UNITAL)
    assert one.rows_as_lincombs() == two.rows_as_lincombs()
    assert one.describe() == two.describe()


# every relation preserves the multiset of generator names (the content) and
# commutes with renaming generators, so the row space splits into content
# blocks that are relabelings of each other

def content(t) -> tuple:
    return tuple(sorted(lf.name for lf in leaves(t)))


@pytest.mark.parametrize("config,rows_count", [(NON_UNITAL, 54), (UNITAL, 435)],
                         ids=["non-unital", "unital"])
def test_rows_are_content_homogeneous(config, rows_count):
    rows = saturate(["x", "y", "z"], Bound(3, 1), config).rows_as_lincombs()
    assert len(rows) == rows_count
    for row in rows:
        contents = {content(t) for t in row.terms} | ({()} if row.unit else set())
        assert len(contents) == 1, format_lincomb(row)


@pytest.mark.parametrize("config", [NON_UNITAL, UNITAL], ids=["non-unital", "unital"])
def test_saturation_is_equivariant_under_renaming(config):
    basis = saturate(["x", "y", "z"], Bound(3, 1), config)
    rows = basis.rows_as_lincombs()
    # an order-preserving renaming gives the same rows in the same order
    renamed = saturate(["p", "q", "r"], Bound(3, 1), config).rows_as_lincombs()
    assert renamed == [rename(row, {"x": "p", "y": "q", "z": "r"}) for row in rows]
    # a cyclic one maps the row space onto itself
    for row in rows:
        assert basis.reduce(rename(row, {"x": "y", "y": "z", "z": "x"})).is_zero()


def test_extra_relations_are_used_and_windowed():
    rel = x() * y() - y() * x()  # commutation as an extra relation
    basis = echelon_basis(["x", "y"], Bound(2, 0), NON_UNITAL, rel)
    assert basis.equal_mod(x() * y(), y() * x()).proven
    assert basis.describe()["config"] == {"unit_instances": False, "extra_relations": 1}
    with pytest.raises(OutOfWindowError, match=r"extra relation term \(x \* x\) lies outside"):
        saturate(["x"], Bound(1, 0), twist={"x": x()}, relations=(x() * x(),))


def test_out_of_window_error_on_queries():
    basis = saturate(["x"], Bound(2, 1), NON_UNITAL)
    with pytest.raises(OutOfWindowError):
        basis.reduce((x() * x()) * x())
    with pytest.raises(OutOfWindowError):
        basis.reduce(x(2))
    # an unknown generator, an exponent past max_exp inside a product, and a
    # product past max_arity whose factors both fit
    for v, shown in [(y(), "y"), (x() * x(2), "(x * x@2)"),
                     (x(1) * (x() * x()), "(x@1 * (x * x))")]:
        with pytest.raises(OutOfWindowError) as err:
            basis.reduce(x() + v)
        assert str(err.value) == f"term {shown} lies outside bound Bound(max_arity=2, max_exp=1)"


def test_resource_cap():
    with pytest.raises(ResourceCapError) as err:
        _Columns(list("abcdefgh"), Bound(4, 2), 500)
    assert "500" in str(err.value)


def test_verdict_serialization_fields():
    basis = saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL)
    desc = basis.describe()
    assert desc["bound"] == {"max_arity": 3, "max_exp": 1}
    assert desc["config"] == {"unit_instances": False, "extra_relations": 0}
    assert desc["rows_count"] == basis.rows_count


def test_enumerate_terms_counts():
    # leaves 6; arity 2: 36; arity 3: two shapes of 216
    terms = enumerate_terms(["x", "y", "z"], Bound(3, 1))
    assert len(terms) == 6 + 36 + 2 * 216


# ---------------------------------------------------------------------------
# column numbering: the saturator's index arithmetic against the trees
# ---------------------------------------------------------------------------

def window_size(n_gens, bound):
    """Sum over arities n of Catalan(n - 1) * width**n, width the leaf labels."""
    width = n_gens * (bound.max_exp + 1)
    return sum(comb(2 * n - 2, n - 1) // n * width ** n
               for n in range(1, bound.max_arity + 1))


class LiteralSaturator(_Saturator):
    """The ideal generated literally: every associator that fits, unit
    arguments included, and the twist of every row it expands.  The reference
    for the rows of both stores that ``saturate`` builds."""

    def __init__(self, cols, config, leaf_twist):
        super().__init__(cols, config, leaf_twist)
        self._twists[0] = {0: 1}

    def _alpha_vec(self, vec):
        out = {}
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

    def initial_instances(self):
        n_max, starts = self.bound.max_arity, self.cols.starts
        # the columns of arity a, with the unit alone at arity 0
        pools = [range(starts[a], starts[a + 1]) for a in range(n_max + 1)]
        arities = range(0 if self.config.unit_instances else 1, n_max + 1)
        for a1, a2, a3 in itertools.product(arities, repeat=3):
            if 0 < a1 + a2 + a3 <= n_max:
                for args in itertools.product(pools[a1], pools[a2], pools[a3]):
                    vec = self._assoc_vec(*args)
                    if vec:
                        yield vec

    def closure_candidates(self, vec):
        av = self._alpha_vec(vec)
        if av:
            yield av
        yield from super().closure_candidates(vec)


def default_saturator(cols, config):
    """The literal saturator with the default twist's leaf table."""
    leaf_twist = [None if j is None else {j: 1} for j in map(cols.twist, range(1, cols.starts[2]))]
    return LiteralSaturator(cols, config, leaf_twist)


# the 1-generator deep window is where shapes of different arities share
# their (left arity, left shape, right shape) numbers
@pytest.mark.parametrize("gens,bound", [
    (["x"], Bound(6, 0)), (["x", "y"], Bound(4, 1)), (["x", "y", "z"], Bound(3, 2))])
def test_column_arithmetic_matches_the_trees(gens, bound):
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    worker = default_saturator(cols, UNITAL)
    terms = enumerate_terms(gens, bound)
    index = {t: i for i, t in enumerate(terms, 1)}
    arities = [0] + [arity(t) for t in terms]
    for i in range(1, len(terms) + 1):
        t_i = terms[i - 1]
        for j in range(1, len(terms) + 1):
            # a product past the window has no column, so skip building it
            fits = arities[i] + arities[j] <= bound.max_arity
            want = index.get(Node(t_i, terms[j - 1])) if fits else None
            assert worker._graft(i, j) == want, (i, j)
            if want is not None:
                assert cols.factors(want) == (i, j)
        twisted = index.get(shift_term(t_i, 1))
        assert cols.twist(i) == twisted, i
        assert worker._alpha_col(i) == (None if twisted is None else {twisted: 1}), i
        assert worker._graft(0, i) == worker._graft(i, 0) == i
    assert worker._graft(0, 0) == 0 and worker._alpha_col(0) == {0: 1}


TAGS = ("'", "''", "'''")
# every window the benchmark saturates: the verify and reduce suites
# (envelopes, matrix bialgebra, plane), the oracle and the soundness windows
BENCHMARK_WINDOWS = [
    (["e1", "e2"], Bound(2, 0)),
    ([e + t for e in ("e1", "e2") for t in TAGS[:2]], Bound(3, 0)),
    ([e + t for e in ("e1", "e2") for t in TAGS], Bound(3, 0)),
    (["x", "y", "z"], Bound(3, 1)),
    (["x", "y"], Bound(4, 2)),
    (["x", "y", "z"], Bound(4, 2)),
    ([g + "'" for g in "abcd"] + ["x''", "y''"], Bound(3, 1)),
    ([g + t for g in "abcd" for t in TAGS[:2]], Bound(3, 1)),
    ([g + t for g in "abcd" for t in TAGS[:2]] + ["x", "y"], Bound(3, 1)),
    ([g + t for g in "abcd" for t in TAGS], Bound(3, 1)),
]


@pytest.mark.parametrize("gens,bound", BENCHMARK_WINDOWS)
def test_enumeration_is_generated_in_canonical_order(gens, bound):
    terms = enumerate_terms(gens, bound)
    assert len(terms) == window_size(len(gens), bound)
    assert terms == sorted(terms, key=sort_key)
    # a column's term round-trips, and is built once: a product's factors
    # are the very terms of its factor columns
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    for i in reversed(range(1, len(terms) + 1)):
        t = cols.term(i)
        assert t == terms[i - 1] and cols.column(t) == i
        if arity(t) > 1:
            j, k = cols.factors(i)
            assert t.left is cols.term(j) and t.right is cols.term(k)


@pytest.mark.parametrize("config", [NON_UNITAL, UNITAL], ids=["non-unital", "unital"])
@pytest.mark.parametrize("gens,bound", BENCHMARK_WINDOWS)
def test_class_counts_match_a_recount_of_the_partition(gens, bound, config):
    basis = saturate(gens, bound, config)
    root, starts = basis._store.root, basis._cols.starts
    classes = {}
    for p, r in enumerate(root):
        classes.setdefault(r, []).append(p)
    # a class of k columns is k - 1 rows, each pivot on a non-smallest member
    assert all(members[0] == r for r, members in classes.items())
    pivots = sorted(p for members in classes.values() for p in members[1:])
    assert basis.rows_count == len(pivots) == len(root) - len(classes)
    assert list(basis._store.pivot_rows()) == [(p, {root[p]: -1, p: 1}) for p in pivots]
    assert basis.arity_counts() == {
        n: (starts[n + 1] - starts[n], sum(starts[n] <= p < starts[n + 1] for p in pivots))
        for n in range(1, bound.max_arity + 1)}


# the five windows of the soundness benchmark (acceptance criterion 9)
SOUNDNESS_WINDOWS = [
    (gens, Bound(3, 1), config)
    for gens, configs in ((["x", "y", "z"], [NON_UNITAL]),
                          ([g + t for g in "abcd" for t in TAGS], [NON_UNITAL, UNITAL]),
                          ([g + t for g in "abcd" for t in TAGS[:2]] + ["x", "y"],
                           [NON_UNITAL, UNITAL]))
    for config in configs]
CONFIG_IDS = {NON_UNITAL: "non-unital", UNITAL: "unital"}
LISTED_WINDOWS = [(gens, bound, config) for gens, bound in BENCHMARK_WINDOWS
                  for config in (NON_UNITAL, UNITAL)]
LISTED_WINDOWS += [w for w in SOUNDNESS_WINDOWS if w not in LISTED_WINDOWS]


@pytest.mark.parametrize("gens,bound,config", LISTED_WINDOWS,
                         ids=[f"{len(g)}gen-{b.max_arity}-{b.max_exp}-{CONFIG_IDS[c]}"
                              for g, b, c in LISTED_WINDOWS])
def test_class_rows_list_as_their_vectors(gens, bound, config):
    # rows listed from the roots are the rows devectorized from the store:
    # the same order, unit, term keys in order, coefficient types and term
    # objects, the column terms shared with every later result
    basis = saturate(gens, bound, config)
    root, term = basis._store.root, basis._cols.term
    assert 0 not in root[1:]
    rows = basis.rows_as_lincombs()
    want = [basis._devectorize(row) for _, row in basis._store.pivot_rows()]
    assert rows == want and len(rows) == basis.rows_count
    pivots = [p for p, r in enumerate(root) if p != r]
    for row, other, p in zip(rows, want, pivots):
        assert type(row.unit) is int and row.unit == other.unit == 0
        assert list(row.terms.items()) == list(other.terms.items())
        assert [type(c) for c in row.terms.values()] == [int, int]
        for t, u, col in zip(row.terms, other.terms, (root[p], p)):
            assert t is u is term(col)


def retained_rows(config):
    """The rows of ``x, y, z`` at ``Bound(4, 2)``, and the bytes that their
    listing retains: the window's column numbering, its classes, the terms
    built for the rows and the rows themselves."""
    gc.collect()
    tracemalloc.start()
    try:
        basis = saturate(["x", "y", "z"], Bound(4, 2), config)
        rows = basis.rows_as_lincombs()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == basis.rows_count
    return rows, retained


def test_saturated_rows_are_held_in_bounded_memory():
    # 6,233,164 bytes under Python 3.11, plus 10%
    rows, retained = retained_rows(NON_UNITAL)
    assert len(rows) == 12636
    assert retained <= 6_856_000


def test_unital_saturated_rows_are_held_in_bounded_memory():
    # 13,425,708 bytes under Python 3.11, plus 10%: a listing that keeps a
    # vector per row, or sizes its dicts past two entries, passes it (every
    # column has a row here, so the non-unital bound is the one that catches
    # terms built for no row)
    rows, retained = retained_rows(UNITAL)
    assert len(rows) == 34233
    assert retained <= 14_768_000


def built_products(basis):
    """The product columns whose terms the basis's numbering has built."""
    cols = basis._cols
    return {i for i, t in enumerate(cols._built) if t is not None and i >= cols.starts[2]}


def factor_closure(cols, columns):
    """``columns`` and, recursively, the factors of their products."""
    seen, stack = set(), list(columns)
    while stack:
        i = stack.pop()
        if i >= cols.starts[2] and i not in seen:
            seen.add(i)
            stack.extend(cols.factors(i))
    return seen


@pytest.mark.parametrize("make", [
    lambda: saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL),
    lambda: saturate(["x", "y", "z"], Bound(4, 2), UNITAL),
    lambda: fractional_basis(),
], ids=["classes-3-1", "classes-4-2", "echelon"])
def test_terms_are_built_only_for_results(make):
    basis = make()
    assert built_products(basis) == set()
    # the query's own term is not built, only the residue's
    residue = basis.reduce(parse_lincomb("((x * y) * y@1) + 2 * (y * (x * x))"))
    assert not residue.is_zero()
    cols = basis._cols
    assert built_products(basis) == factor_closure(cols, map(cols.column, residue.terms))


def fixture_copies(copies):
    """The affine-line fixture, or its direct sum with itself on tagged legs."""
    L = affine_line_twisted()
    if copies > 1:
        L = direct_sum([L] * copies, list(LEG_TAGS2 if copies == 2 else LEG_TAGS3))
    return L


def dense_abelian():
    """Three abelian basis elements under a dense seeded twist; its entries
    have integral products, such as 2/3 * 3/2."""
    rng = random.Random(11)
    entries = [Fraction(2, 3), Fraction(3, 2), Fraction(-1, 2), 2, Fraction(5, 4), -3]
    names = ("u", "v", "w")
    return abelian_hom_lie(names, {n: {m: rng.choice(entries) for m in names} for n in names})


# the envelope windows of the benchmark, and a dense rational twist
ENVELOPE_WINDOWS = pytest.mark.parametrize("L,gens,bound", [
    (fixture_copies(k), gens, bound) for k, (gens, bound) in enumerate(BENCHMARK_WINDOWS[:3], 1)
] + [(dense_abelian(), ["u", "v", "w"], Bound(3, 0))], ids=["1", "2", "3", "dense"])


@ENVELOPE_WINDOWS
def test_column_twist_matches_the_matrix_twist(L, gens, bound):
    assert sorted(L.names) == sorted(gens)
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    worker = _Saturator(cols, UNITAL, [_vectorize(cols, L.twist[g]) for g in cols.gens])
    # with each coefficient's type, so that 1 and Fraction(1) differ
    exact = lambda vec: {j: (type(c), c) for j, c in vec.items()}
    for i, t in enumerate(enumerate_terms(gens, bound), 1):
        want = _vectorize(cols, EnvelopeBialgebra(L).alpha(LinComb.of_term(t)))
        assert exact(worker._alpha_col(i)) == exact(want), format_term(t)
    with pytest.raises(ValueError, match="envelope leaves carry no exponents"):
        EnvelopeBialgebra(L).alpha(make_leaf(gens[0], 1))


@ENVELOPE_WINDOWS
def test_generator_collapses_span_every_columns_collapse(L, gens, bound):
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    leaf_twist = [_vectorize(cols, L.twist[g]) for g in cols.gens]
    seeds = [_vectorize(cols, rel) for rel in bracket_relations(L)]
    worker = _Saturator(cols, UNITAL, leaf_twist)
    # the instances of arity 1 are one collapse per generator; the
    # associators have arity 3 or more
    leaves = range(1, cols.starts[2])
    narrow = [vec for vec in worker.initial_instances() if max(vec, default=0) in leaves]
    assert narrow == [add_into({g: 1}, worker._alpha_col(g), -1) for g in leaves]
    # every column's collapse, seeded too, adds no row and changes none
    collapses = [add_into({u: 1}, worker._alpha_col(u), -1) for u in range(1, cols.starts[-1])]
    rows = worker.run(seeds)
    seeded = _Saturator(cols, UNITAL, leaf_twist).run(seeds + collapses)
    assert exact_rows(seeded) == exact_rows(rows)


def test_client_twist_needs_generator_images_and_an_exponent_free_window():
    swap = {"x": y(), "y": x()}
    assert saturate(["x", "y"], Bound(3, 0), NON_UNITAL, swap).rows_count > 0
    with pytest.raises(ValueError, match="without exponents"):
        saturate(["x", "y"], Bound(3, 1), NON_UNITAL, swap)
    with pytest.raises(OutOfWindowError, match="twist term z lies outside bound"):
        saturate(["x", "y"], Bound(3, 0), NON_UNITAL, {"x": z(), "y": x()})
    with pytest.raises(ValueError, match="combination of generators"):
        saturate(["x", "y"], Bound(3, 0), NON_UNITAL, {"x": x() * y(), "y": x()})
    with pytest.raises(ValueError, match="combination of generators"):
        saturate(["x", "y"], Bound(3, 0), NON_UNITAL, {"x": LinComb.one() + x(), "y": x()})
    with pytest.raises(ValueError, match="relations need a client twist"):
        saturate(["x"], Bound(2, 0), relations=(x() * x() - x(),))


@pytest.mark.parametrize("gens,bound", [(["x", "y"], Bound(4, 1)), (["x"], Bound(6, 0))])
def test_term_cap_boundary(gens, bound):
    count = window_size(len(gens), bound)
    assert len(enumerate_terms(gens, bound)) == count
    with pytest.raises(ResourceCapError) as err:
        _Columns(gens, bound, count - 1)
    assert str(err.value) == (f"windowed basis exceeds the term cap of {count - 1}"
                              f" (bound {bound}, {len(gens)} generators)")
    assert _Columns(gens, bound, count).starts[-1] - 1 == count


def test_deep_one_generator_window_saturates_in_small_memory():
    # every column of a 1-generator, exponent-free window is its own shape, so
    # a table over all pairs of shapes would hold 6918**2 entries here
    gens, bound = ["x"], Bound(10, 0)
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    shapes = len(cols.join)
    assert shapes == window_size(1, bound) + 1
    # one join per shape of arity >= 2, and the unit's pairs
    assert sum(map(len, cols.join)) == (shapes - 2) + 2 * shapes - 1
    tracemalloc.start()
    try:
        basis = saturate(gens, bound, UNITAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.basis_size == 6918
    assert peak < 32 * 2 ** 20



# ---------------------------------------------------------------------------
# exact coefficients: int while integral, Fraction otherwise, never a float
# ---------------------------------------------------------------------------

# a window whose rows need non-unit pivots: the extra relation has no +-1
# leading coefficient
FRACTIONAL_RELATION = "2 * (x * y) + -3 * (y * x) + 1/2 * (x * x)"


def fractional_basis():
    return echelon_basis(["x", "y"], Bound(3, 1), NON_UNITAL,
                         parse_lincomb(FRACTIONAL_RELATION))


def assert_exact(coeffs):
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def lincomb_coeffs(v: LinComb):
    return [v.unit, *v.terms.values()]


def test_saturated_rows_and_residues_are_exact():
    rng = random.Random(5)
    for basis in (saturate(["x", "y", "z"], Bound(3, 1), NON_UNITAL),
                  saturate(["x", "y", "z"], Bound(3, 1), UNITAL),
                  fractional_basis()):
        for _, row in basis._store.pivot_rows():
            assert_exact(row.values())
        for row in basis.rows_as_lincombs():
            assert_exact(lincomb_coeffs(row))
        gens = list(basis.gens)
        for _ in range(20):
            v = random_lincomb(rng, gens, max_arity=3, max_exp=1, with_unit=True)
            v = Fraction(rng.randint(1, 3), rng.randint(1, 3)) * v
            assert_exact(lincomb_coeffs(v))
            assert_exact(lincomb_coeffs(basis.reduce(v)))


def test_lincomb_results_are_exact():
    half = Fraction(1, 2) * x()
    for v in (half + half, 2 * half, half * (2 * y()), x() - half - half,
              LinComb.scalar(Fraction(4, 2)), parse_lincomb("4/2 * x + 3/2 * y"),
              (half * y()).scale(Fraction(2, 3)), half.alpha()):
        assert_exact(lincomb_coeffs(v))
    assert type((half + half).terms[Leaf("x")]) is int
    for inexact in (0.5, "1/2"):
        with pytest.raises(TypeError):
            LinComb.of_term(Leaf("x"), inexact)


def test_non_unit_pivots_stay_exact():
    basis = fractional_basis()
    assert basis.rows_count == 34
    assert any(type(c) is Fraction for _, row in basis._store.pivot_rows() for c in row.values())
    residue = basis.reduce(parse_lincomb("(y * x)"))
    assert format_lincomb(residue) == "1/6 * (x * x) + 2/3 * (x * y)"
    assert_exact(lincomb_coeffs(residue))
    assert basis.reduce(parse_lincomb(FRACTIONAL_RELATION)).is_zero()


# ---------------------------------------------------------------------------
# pinned row digests: a change to the saturator must not change a single row
# ---------------------------------------------------------------------------

def rows_digest(basis) -> str:
    """sha256 of the rows listed by pivot, each as its sorted
    (column, str(coefficient)) pairs."""
    h = hashlib.sha256()
    for p, row in basis._store.pivot_rows():
        pairs = sorted((i, str(c)) for i, c in row.items())
        h.update((f"{p}:" + ",".join(f"{i}={c}" for i, c in pairs) + "\n").encode())
    return h.hexdigest()


def envelope_basis(copies, max_arity, unit_instances):
    return envelope(fixture_copies(copies), max_arity=max_arity,
                    unit_instances=unit_instances)


def golden_envelope(name, max_arity, config):
    """The envelope of the CLI's golden Hom-Lie descriptor ``name``."""
    L = load_hom_lie(GOLDEN_FILES[f"{name}.homlie"])
    return envelope(L, max_arity=max_arity, unit_instances=config.unit_instances)


ROW_DIGESTS = [
    # (window, unit instances, rows_count, digest)
    ("xyz-3-1", True, 435, "35daf5242c4b70f9fe9aad6093991d7f8eddb8e0acdcaf87bdfa37b1086f828b"),
    ("xyz-3-1", False, 54, "bedb10754df5450121011e88c391c117f5fd705ebd0c80b1943f7da0b8f1a1e0"),
    ("xy-4-2", True, 6924, "0ca9e4bc80ee616563b9dc109d21dd241e096c74ec76559af6b4943985527a1a"),
    ("xy-4-2", False, 2528, "c8ea6879f5656727eeec930b31067b0e9379e78df25bc3082666329170bb8478"),
    # deeper non-unital windows, where the echelon reference is too slow
    ("x-6-2", False, 18765, "838dafb7f1ccbfc2440b5496b8106246eb673d451a7d94da835665dc16842439"),
    ("x-5-4", False, 31681, "89c95945b4e7c0aef0615c1633cb484062d882499f57bd8eb72ca53da3b9b18f"),
    ("xy-5-2", False, 54720, "5ab853316a3117609d6ab164e3c3bdc9c81fa203882a6c8a01f1ee2a1a5c25ec"),
    # the three envelope windows of ``verify envelope`` on the affine-line fixture
    ("envelope", True, 4, "d3d4dbff022554eca04785e6e10e5f126e3ac09367f1a525483a2ba31f8dbf9c"),
    ("envelope", False, 1, "f00a42300fad48f6e5263c0a4c579055e2cca23e032959b4949db636e08c78cc"),
    ("envelope-doubled", True, 139, "8bc5a568a8d59f2f2f3c131bf669234d192fac05e684f9f8e6c3f31a0fd13eaf"),
    ("envelope-doubled", False, 114, "3c55a2af4ef179dc465f276d54a2efac8fa03c0087eace6188ad679c96bff717"),
    ("envelope-tripled", True, 455, "71a50ae4a1c0d2800585cd1ebf00df0ad424deca946bcc757b8cb50bc74b42a4"),
    ("envelope-tripled", False, 391, "18ca607e7b33ec5191221bcdffcdd82d4e0a3b028ed6789cd0e5022cdd7378e1"),
    ("fractional", False, 34, "7168cdd6dd4caba24108c078117b088aea2f9b4ed969430a157a335a43818cfc"),
    # two golden Hom-Lie descriptors of ``verify envelope FILE`` at arity 3
    ("sl2tw", True, 66, "a44f2dcd93db5410bc0a7b6fcd296e12a0408f1e25de5beea9dbd292573569ed"),
    ("sl2tw", False, 47, "3a2f5ba86ab3884837e2b7acb8318a1ece1394e35490f1895769e617f77c06e9"),
    ("heis", True, 63, "52a29b694013a1f17706077c991214d005791659b8b98b6440465c16ed72b3c0"),
    ("heis", False, 47, "ef9c5104ff627d0edc93b9b168fed9125ca1ec07f95cee98d920cabe39dd52ff"),
]


@pytest.mark.parametrize("window,unital,rows_count,digest", ROW_DIGESTS)
def test_pinned_row_digests(window, unital, rows_count, digest):
    config = UNITAL if unital else NON_UNITAL
    basis = {
        "xyz-3-1": lambda: saturate(["x", "y", "z"], Bound(3, 1), config),
        "xy-4-2": lambda: saturate(["x", "y"], Bound(4, 2), config),
        "x-6-2": lambda: saturate(["x"], Bound(6, 2), config),
        "x-5-4": lambda: saturate(["x"], Bound(5, 4), config),
        "xy-5-2": lambda: saturate(["x", "y"], Bound(5, 2), config),
        "envelope": lambda: envelope_basis(1, 2, unital),
        "envelope-doubled": lambda: envelope_basis(2, 3, unital),
        "envelope-tripled": lambda: envelope_basis(3, 3, unital),
        "fractional": fractional_basis,
        "sl2tw": lambda: golden_envelope("sl2tw", 3, config),
        "heis": lambda: golden_envelope("heis", 3, config),
    }[window]()
    assert basis.rows_count == rows_count
    assert rows_digest(basis) == digest


# the envelope's reports count its bracket relations: one per pair of basis
# elements, 1 for the affine line and 15 for its tripled direct sum
@pytest.mark.parametrize("copies,max_arity,relations", [(1, 2, 1), (3, 3, 15)])
def test_envelope_describes_its_bracket_relations(copies, max_arity, relations):
    config = envelope_basis(copies, max_arity, True).describe()["config"]
    assert config == {"unit_instances": True, "extra_relations": relations}


# ---------------------------------------------------------------------------
# the envelope window's rows against the literal ideal
# ---------------------------------------------------------------------------

def literal_envelope_rows(L, max_arity, config):
    """The rows of ``L``'s envelope window saturated by ``LiteralSaturator``."""
    cols = _Columns(L.names, Bound(max_arity, 0), DEFAULT_TERM_CAP)
    leaf_twist = [_vectorize(cols, L.twist[g]) for g in cols.gens]
    seeds = [_vectorize(cols, rel) for rel in bracket_relations(L)]
    return LiteralSaturator(cols, config, leaf_twist).run(seeds)


def exact_rows(rows):
    """Echelon rows with each coefficient's type, so that 1 and Fraction(1) differ."""
    return {p: {i: (type(c), c) for i, c in row.items()} for p, row in rows.items()}


@pytest.mark.parametrize("config", [NON_UNITAL, UNITAL], ids=["non-unital", "unital"])
@pytest.mark.parametrize("make,max_arity", [
    (lambda: fixture_copies(1), 2), (lambda: fixture_copies(2), 3),
    (lambda: fixture_copies(3), 3), (dense_abelian, 3),
    (lambda: load_hom_lie(GOLDEN_FILES["sl2tw.homlie"]), 3),
    (lambda: load_hom_lie(GOLDEN_FILES["heis.homlie"]), 3),
], ids=["affine", "doubled", "tripled", "dense", "sl2tw", "heis"])
def test_envelope_rows_match_the_literal_saturator(make, max_arity, config):
    L = make()
    basis = envelope(L, max_arity=max_arity, unit_instances=config.unit_instances)
    assert exact_rows(basis._store.rows) == exact_rows(literal_envelope_rows(L, max_arity, config))


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def twisted_hom_lie(draw):
    """The affine line under a twist ``e1 -> e1 + beta e2, e2 -> gamma e2``, or
    an abelian algebra of dimension 2 or 3 under a rational twist matrix."""
    if draw(st.booleans()):
        return affine_line_twisted(draw(rationals), draw(rationals))
    names = ("u", "v", "w")[:draw(st.integers(2, 3))]
    return abelian_hom_lie(names, {n: {m: draw(rationals) for m in names} for n in names})


# the twist closure that the saturator leaves out holds on multiplicative twists
@settings(max_examples=25, deadline=None, derandomize=True)
@given(twisted_hom_lie())
def test_saturated_envelope_rows_are_the_literal_ideal(L):
    for config in (NON_UNITAL, UNITAL):
        basis = saturate(L.names, Bound(3, 0), config, L.twist, bracket_relations(L))
        assert exact_rows(basis._store.rows) == exact_rows(literal_envelope_rows(L, 3, config))


# ---------------------------------------------------------------------------
# two row stores: a binomial window's column classes against echelon rows
# ---------------------------------------------------------------------------

def echelon_basis(gens, bound, config, *relations) -> RelationBasis:
    """The window saturated by the echelon store under the default twist:
    the reference for the column classes, and, seeded with ``relations``, a
    configuration that ``saturate`` does not build."""
    cols = _Columns(gens, bound, DEFAULT_TERM_CAP)
    rows = default_saturator(cols, config).run([_vectorize(cols, rel) for rel in relations])
    return RelationBasis(cols, config, _EchelonRows(rows), len(relations))


def exact_items(v: LinComb):
    """``v`` with each coefficient's type, so that 1 and Fraction(1) differ."""
    return (type(v.unit), v.unit), {t: (type(c), c) for t, c in v.terms.items()}


def random_vectors(basis, rng, n=50):
    """Random window vectors with unit and Fraction coefficients; each also
    spans some classes (rows) with two halves, whose class sum is integral."""
    terms, rows = enumerate_terms(basis.gens, basis.bound), basis.rows_as_lincombs()
    for k in range(n):
        def coeff():
            c = rng.randint(-3, 3)
            return c if k % 2 else Fraction(c, rng.randint(1, 4))
        v = LinComb(coeff(), {rng.choice(terms): coeff() for _ in range(4)})
        for row in rng.sample(rows, min(3, len(rows))):
            half = Fraction(rng.choice([-3, -1, 1, 3]), 2)
            v = v + LinComb(half * bool(row.unit), dict.fromkeys(row.terms, half))
        yield v


# the envelope windows (the first three) have a client twist and extra
# relations, so they keep echelon rows
CLASS_WINDOWS = BENCHMARK_WINDOWS[3:] + [(["x"], Bound(8, 1)), (["x", "y"], Bound(4, 1))] + [
    # windows where a twist step makes links before any product does,
    # non-unital: the echelon reference keeps that step
    (["x"], Bound(5, 3)), (["x", "y"], Bound(4, 3))]


@pytest.mark.parametrize("config", [NON_UNITAL, UNITAL], ids=["non-unital", "unital"])
@pytest.mark.parametrize("gens,bound", CLASS_WINDOWS)
def test_column_classes_match_echelon_rows(gens, bound, config):
    basis, reference = saturate(gens, bound, config), echelon_basis(gens, bound, config)
    assert isinstance(reference._store, _EchelonRows)
    assert not isinstance(basis._store, _EchelonRows)
    assert dict(basis._store.pivot_rows()) == reference._store.rows
    assert basis.rows_count == reference.rows_count
    assert basis.arity_counts() == reference.arity_counts()
    for v in random_vectors(basis, random.Random(len(gens) * 100 + bound.max_arity)):
        assert exact_items(basis.reduce(v)) == exact_items(reference.reduce(v))


# ---------------------------------------------------------------------------
# the unit collapse, without the echelon reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gens,bound", [
    (["x"], Bound(6, 1)), (["x", "y"], Bound(4, 2)), (["x", "y", "z"], Bound(3, 1))])
def test_unital_classes_are_words(gens, bound):
    # u ~ alpha(u) and the associators leave a term its word (its leaf names
    # in order): with room for one twist, each column's root is the first
    # column with its word
    root, first = saturate(gens, bound, UNITAL)._store.root, {}
    for col, t in enumerate(enumerate_terms(gens, bound), 1):
        assert root[col] == first.setdefault(tuple(lf.name for lf in leaves(t)), col)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REFERENCE_WINDOWS = json.loads(REFERENCE.read_text())["windows"]


# one class per word: a unital window with max_exp >= 1 has sum |G|**n
# classes, so every other column is a row's pivot
@pytest.mark.parametrize("name", [n for n in REFERENCE_WINDOWS if n.endswith("-unital")])
def test_unital_reference_windows_count_one_class_per_word(name):
    size, max_arity, max_exp = map(int, name.replace("gen", "").split("-")[:3])
    basis = saturate([f"g{i}" for i in range(size)], Bound(max_arity, max_exp), UNITAL)
    words = sum(size ** n for n in range(1, max_arity + 1))
    assert max_exp >= 1
    assert basis.rows_count == basis.basis_size - words
    assert REFERENCE_WINDOWS[name] == {"basis_size": basis.basis_size,
                                       "rows_count": basis.rows_count}


# with the benchmark's windows without exponents, the envelopes' (as free windows)
@pytest.mark.parametrize("gens,bound", [(["x", "y"], Bound(4, 0)), (["x", "y", "z"], Bound(3, 0))]
                         + [w for w in BENCHMARK_WINDOWS if not w[1].max_exp])
def test_unital_classes_need_exponents(gens, bound):
    # without exponents every twist escapes, so no unit instance and no
    # associator fits: the closure finds no link, and saturate writes each
    # column down as its own class in either configuration
    unital, non_unital = saturate(gens, bound, UNITAL), saturate(gens, bound, NON_UNITAL)
    root = _close_classes(unital._cols)
    assert list(unital._store.root) == list(non_unital._store.root) == root
    assert root == list(range(len(root)))


# Twists of an associator are associators, so the sequence of a term's leaves
# as (name, exp + depth) is invariant; but its fibers are not classes from
# arity 4 on.  These two terms share one, (2, 3, 3, 2), and each factor of the
# second holds a leaf at exponent 0, so no rotation reaches it: only the
# unit's collapses join them.  A fiber test would make PROVEN_EQUAL unsound.
COUNTEREXAMPLE = "(x@1 * ((x * x) * x)) + -1 * ((x * x@1) * (x@1 * x))"


def leaf_fiber(t, depth=0) -> tuple:
    if isinstance(t, Leaf):
        return ((t.name, t.exp + depth),)
    return leaf_fiber(t.left, depth + 1) + leaf_fiber(t.right, depth + 1)


@pytest.mark.parametrize("config", [NON_UNITAL, UNITAL], ids=["non-unital", "unital"])
@pytest.mark.parametrize("bound", [Bound(4, 2), Bound(4, 3)], ids=["4-2", "4-3"])
def test_leaf_sequence_fibers_are_not_classes(bound, config):
    v = parse_lincomb(COUNTEREXAMPLE)
    lhs, rhs = (LinComb.of_term(t) for t in v.terms)
    assert len({leaf_fiber(t) for t in v.terms}) == 1
    basis, literal = saturate(["x"], bound, config), echelon_basis(["x"], bound, config)
    for b in (basis, literal):
        assert b.reduce(v).is_zero() == config.unit_instances
        assert b.equal_mod(lhs, rhs).proven == config.unit_instances


@functools.cache
def small_bases():
    """Both stores on the 3-gen (3,1) window, in both configurations."""
    window = (["x", "y", "z"], Bound(3, 1))
    return [build(*window, config) for build in (saturate, echelon_basis)
            for config in (NON_UNITAL, UNITAL)]


WINDOW_TERMS = enumerate_terms(["x", "y", "z"], Bound(3, 1))
exact_rationals = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 6))
window_vectors = st.builds(
    LinComb, exact_rationals,
    st.dictionaries(st.sampled_from(WINDOW_TERMS), exact_rationals, max_size=6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(window_vectors, window_vectors, exact_rationals)
def test_reduce_is_linear_and_idempotent_on_both_stores(u, v, a):
    for basis in small_bases():
        r = basis.reduce(u)
        assert basis.reduce(r) == r
        assert basis.reduce(a * u + v) == a * r + basis.reduce(v)
        assert_exact(lincomb_coeffs(r))
