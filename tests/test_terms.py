"""Term algebra: leaves, grafting, twist action, normalization, grading."""

import copy
import random
import re
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homalgebra.algebras import CheckReport, free_algebra
from homalgebra.congruence import Bound, EqualityResult, SaturationConfig, Verdict
from homalgebra.grammar import format_term, parse_lincomb
from homalgebra.morphisms import MorphismAssignment
from homalgebra.reports import LawItem, LawReport
from homalgebra.grammar import TermSyntaxError
from homalgebra.terms import (Leaf, LinComb, Node, add_into, arity, grading,
                              leaves, make_leaf, random_lincomb, read_descriptor, rename,
                              shift_term, weight)


def test_make_leaf_basics():
    x0 = make_leaf("x", 0)
    assert x0 == LinComb.of_term(Leaf("x", 0))
    # twisting twice reaches the exponent-2 leaf
    assert make_leaf("x", 2) == x0.alpha().alpha()
    # zero scalar annihilates
    assert 0 * make_leaf("y", 0) == LinComb.zero()
    with pytest.raises(ValueError):
        Leaf("x", -1)


def test_mul_unit_laws():
    one = LinComb.one()
    rng = random.Random(1)
    for _ in range(20):
        v = random_lincomb(rng, ["x", "y"], with_unit=True)
        assert one * v == v
        assert v * one == v


def test_mul_single_grafting():
    x, y = make_leaf("x"), make_leaf("y")
    assert x * y == LinComb.of_term(Node(Leaf("x", 0), Leaf("y", 0)))


def test_mul_bilinearity():
    x, y, z = make_leaf("x"), make_leaf("y"), make_leaf("z")
    assert (x + y) * z == x * z + y * z
    rng = random.Random(2)
    for _ in range(25):
        u = random_lincomb(rng, ["x", "y"], with_unit=True)
        u2 = random_lincomb(rng, ["x", "y"], with_unit=True)
        v = random_lincomb(rng, ["x", "y"], with_unit=True)
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(-3, 3))
        assert (a * u + b * u2) * v == a * (u * v) + b * (u2 * v)
        assert v * (a * u + b * u2) == a * (v * u) + b * (v * u2)


def test_alpha_pushes_through_products():
    x, y = make_leaf("x"), make_leaf("y")
    assert (x * y).alpha() == make_leaf("x", 1) * make_leaf("y", 1)
    assert LinComb.one().alpha() == LinComb.one()
    assert make_leaf("x", 3).alpha() == make_leaf("x", 4)


def test_alpha_is_multiplicative_and_linear():
    rng = random.Random(3)
    for _ in range(25):
        u = random_lincomb(rng, ["x", "y", "z"], with_unit=True)
        v = random_lincomb(rng, ["x", "y", "z"], with_unit=True)
        assert (u * v).alpha() == u.alpha() * v.alpha()
        assert (u + v).alpha() == u.alpha() + v.alpha()


def test_arity_and_weight_grading_of_products():
    rng = random.Random(4)
    for _ in range(25):
        u = random_lincomb(rng, ["x", "y"])
        v = random_lincomb(rng, ["x", "y"])
        got = grading(u * v)
        # every product component sits in the sum of factor gradings
        for (a, w) in got:
            assert any(a == au + av and w == wu + wv
                       for (au, wu) in grading(u) for (av, wv) in grading(v))
        # the twist preserves arity and raises weight by the arity
        assert grading(u.alpha()) == {(a, w + a) for (a, w) in grading(u)}


# ---------------------------------------------------------------------------
# normalization: the parser against an independent rewriting oracle
# ---------------------------------------------------------------------------

# a raw tree: explicit twist nodes of weight >= 1 over leaves and products,
# written in the grammar as (A k t)
AlphaNode = namedtuple("AlphaNode", "weight child")


def _render(t):
    if isinstance(t, AlphaNode):
        return f"(A {t.weight} {_render(t.child)})"
    if isinstance(t, Node):
        return f"({_render(t.left)} * {_render(t.right)})"
    return format_term(t)


def _parsed(t):
    """The one term that the parser reads from the text of the raw tree ``t``."""
    v = parse_lincomb(_render(t))
    assert v.unit == 0 and list(v.terms.values()) == [1]
    (term,) = v.terms
    return term


def _rewrite_once(t, choice):
    """Apply the single rewrite step at redex index ``choice`` (preorder);
    returns None when no redex exists.  Rules: weight over a product splits
    into both factors; weight over a leaf adds to the exponent; stacked
    weights add."""
    counter = [0]

    def go(u):
        if isinstance(u, AlphaNode):
            if counter[0] == choice:
                counter[0] += 1
                c = u.child
                if isinstance(c, Leaf):
                    return Leaf(c.name, c.exp + u.weight), True
                if isinstance(c, Node):
                    return Node(AlphaNode(u.weight, c.left),
                                   AlphaNode(u.weight, c.right)), True
                return AlphaNode(u.weight + c.weight, c.child), True
            counter[0] += 1
            child, done = go(u.child)
            return AlphaNode(u.weight, child), done
        if isinstance(u, Node):
            left, done = go(u.left)
            if done:
                return Node(left, u.right), True
            right, done = go(u.right)
            return Node(u.left, right), done
        return u, False

    out, done = go(t)
    return out if done else None


def _count_redexes(t):
    if isinstance(t, AlphaNode):
        return 1 + _count_redexes(t.child)
    if isinstance(t, Node):
        return _count_redexes(t.left) + _count_redexes(t.right)
    return 0


def _all_normal_forms(t, limit=4000):
    """Exhaust every rewrite order; the returned set should be a singleton."""
    seen = set()
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if len(seen) > limit:
            raise AssertionError("rewrite exploration blew up")
        n = _count_redexes(u)
        if n == 0:
            out.add(u)
            continue
        for i in range(n):
            stack.append(_rewrite_once(u, i))
    return out


def _random_raw(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Leaf(rng.choice("xyz"), rng.randint(0, 2))
    if roll < 0.65:
        return AlphaNode(rng.randint(1, 2), _random_raw(rng, depth - 1))
    return Node(_random_raw(rng, depth - 1), _random_raw(rng, depth - 1))


def _leftmost_normal_form(t):
    while _count_redexes(t):
        t = _rewrite_once(t, 0)
    return t


def test_normalize_single_step():
    raw = AlphaNode(1, Node(Leaf("x"), Leaf("y")))
    assert _all_normal_forms(raw) == {_parsed(raw)}
    assert parse_lincomb(_render(raw)) == make_leaf("x", 1) * make_leaf("y", 1)


def test_normalize_idempotent_on_normal_forms():
    rng = random.Random(5)
    for _ in range(30):
        t = _random_raw(rng, 3)
        n = _parsed(t)
        assert n == _leftmost_normal_form(t)
        # a normal form is a raw tree with no twist nodes; parsing its text fixes it
        assert _parsed(n) == n


def test_normalize_weight_two_all_rule_orders():
    # oracle: exhaustive application of the rewrite rules in every order
    raw = AlphaNode(2, Node(Node(Leaf("x"), Leaf("y")), Leaf("z", 1)))
    forms = _all_normal_forms(raw)
    assert len(forms) == 1
    expected = Node(Node(Leaf("x", 2), Leaf("y", 2)), Leaf("z", 3))
    assert forms == {expected}
    assert _parsed(raw) == expected


def test_normalize_confluent_on_random_raw_terms():
    rng = random.Random(6)
    for _ in range(40):
        t = _random_raw(rng, 3)
        reference = _parsed(t)
        # random rewrite order reaches the same normal form
        u = t
        while True:
            n = _count_redexes(u)
            if n == 0:
                break
            u = _rewrite_once(u, rng.randrange(n))
        assert u == reference


def test_malformed_raw_term_rejected():
    with pytest.raises(ValueError, match="twist weight must be a positive integer"):
        _parsed(AlphaNode(0, Leaf("x")))


def test_grading_examples():
    x, y = make_leaf("x"), make_leaf("y")
    assert grading(x * y) == {(2, 0)}
    assert grading(make_leaf("x", 1) * make_leaf("y", 1) + x) == {(2, 2), (1, 0)}
    assert grading(LinComb.zero()) == set()


def test_rename_injectivity_guard():
    v = make_leaf("x") + make_leaf("y")
    with pytest.raises(ValueError):
        rename(v, {"x": "z", "y": "z"})
    assert rename(v, {"x": "u"}) == make_leaf("u") + make_leaf("y")


def test_term_order_is_total_on_window():
    from homalgebra.congruence import Bound, enumerate_terms
    from homalgebra.terms import sort_key
    terms = enumerate_terms(["x", "y"], Bound(3, 1))
    keys = [sort_key(t) for t in terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# the term contract: hashes of the fields' tuples, computed once
# ---------------------------------------------------------------------------

def test_term_hashes_are_the_fields_tuples():
    x1, y = Leaf("x", 1), Leaf("y")
    assert hash(x1) == hash(("x", 1)) and hash(y) == hash(("y", 0))
    t = Node(x1, Node(y, x1))
    assert hash(t) == hash((x1, Node(y, x1)))
    # a child of another hashable type is hashed as it is
    raw = Node(AlphaNode(2, x1), y)
    assert hash(raw) == hash((AlphaNode(2, x1), y))


def test_independently_built_terms_are_equal():
    def build():
        return Node(Node(Leaf("x"), Leaf("y", 2)), Leaf("x", 1))
    one, two = build(), build()
    assert one is not two and one == two and hash(one) == hash(two)
    assert {one: 1}[two] == 1
    assert one != Node(Node(Leaf("x"), Leaf("y", 1)), Leaf("x", 1))
    assert Leaf("x") != Node(Leaf("x"), Leaf("x"))
    assert Node(Leaf("x"), Leaf("x")) != Leaf("x")
    assert Leaf("x") != ("x", 0)


def test_terms_are_immutable():
    t = Node(Leaf("x"), Leaf("y"))
    v = LinComb(2, {t: 3})
    for obj, field in ((t, "left"), (t.left, "name"), (t.left, "exp"), (t, "other"),
                       (v, "unit"), (v, "terms"), (v, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, field, Leaf("z"))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert t == Node(Leaf("x"), Leaf("y"))
    assert v == LinComb(2, {t: 3}) and hash(v) == hash(LinComb(2, {t: 3}))
    assert repr(t) == "Node(left=Leaf(name='x', exp=0), right=Leaf(name='y', exp=0))"


def test_leaf_validation_messages():
    with pytest.raises(ValueError, match="^leaf needs a generator name$"):
        Leaf("")
    with pytest.raises(ValueError, match="^leaf exponent must be >= 0, got -1$"):
        Leaf("x", -1)


def test_deep_term_hashes_without_recursion():
    t = Leaf("x")
    for k in range(10_000):
        t = Node(Leaf("y", k % 3), t)
    assert hash(t) == hash((t.left, t.right))
    assert t in {t}


def test_deep_terms_compare_without_recursion():
    def spine(deepest):
        t = Leaf(deepest)
        for k in range(5_000):
            t = Node(Leaf("y", k % 3), t)
        return t
    one, two, other = spine("x"), spine("x"), spine("z")
    assert one is not two and one == two and not one != two
    assert {one: 1}.get(two) == 1
    # the spines differ only at the deepest leaf
    assert one != other and {one: 1}.get(other) is None


def recursive_text(t) -> str:
    if isinstance(t, Leaf):
        return t.name if t.exp == 0 else f"{t.name}@{t.exp}"
    return f"({recursive_text(t.left)} * {recursive_text(t.right)})"


def recursive_key(t):
    def walk(u, depth):
        if isinstance(u, Leaf):
            yield depth, (u.name, u.exp)
        else:
            yield from walk(u.left, depth + 1)
            yield from walk(u.right, depth + 1)
    depths, labels = zip(*walk(t, 0))
    return len(depths), depths, labels


def recursive_leaves(t) -> list:
    if isinstance(t, Leaf):
        return [t]
    return recursive_leaves(t.left) + recursive_leaves(t.right)


def recursive_relabel(t, f):
    if isinstance(t, Leaf):
        return f(t)
    return Node(recursive_relabel(t.left, f), recursive_relabel(t.right, f))


def test_term_text_and_order_match_their_recursive_definitions():
    from homalgebra.congruence import enumerate_terms
    from homalgebra.terms import sort_key
    rng = random.Random(32)
    terms = enumerate_terms(["x", "y"], Bound(4, 2)) + [
        t for _ in range(200)
        for t in random_lincomb(rng, ["a", "b'", "c_1", "x"], max_arity=9, max_exp=3).terms]
    swap = {"x": "y", "y": "x", "a": "c_1", "c_1": "a"}
    for t in terms:
        assert format_term(t) == recursive_text(t)
        assert sort_key(t) == recursive_key(t)
        assert list(leaves(t)) == recursive_leaves(t)
        assert arity(t) == len(recursive_leaves(t))
        assert weight(t) == sum(lf.exp for lf in recursive_leaves(t))
        assert shift_term(t, 0) is t
        for k in (1, 3):
            assert shift_term(t, k) == recursive_relabel(t, lambda lf: Leaf(lf.name, lf.exp + k))
        assert rename(LinComb.of_term(t, 2), swap) == LinComb.of_term(
            recursive_relabel(t, lambda lf: Leaf(swap.get(lf.name, lf.name), lf.exp)), 2)
    # the first factor that is no term is named, left to right
    with pytest.raises(TypeError, match=r"^not a normalized term: AlphaNode\(weight=2"):
        format_term(Node(Leaf("x"), Node(AlphaNode(2, Leaf("y")), AlphaNode(3, Leaf("z")))))


def test_deep_terms_print_and_sort_without_recursion():
    # a zigzag 5,000 nodes deep: the leaf added at step k sits at depth
    # n - k, on the side it was added, outside every earlier one; the text
    # is read off the steps as what each adds before and after the last
    from homalgebra.terms import sort_key
    n = 5_000
    t, lefts, rights, before, after = Leaf("x"), [], [], [], []
    for k in range(n):
        leaf = Leaf("y", k % 3)
        if k % 2:
            t = Node(leaf, t)
            lefts.append((k, leaf))
            before.append(f"({format_term(leaf)} * ")
            after.append(")")
        else:
            t = Node(t, leaf)
            rights.append((k, leaf))
            before.append("(")
            after.append(f" * {format_term(leaf)})")
    text = "".join(reversed(before)) + "x" + "".join(after)
    order = [*reversed(lefts), (0, Leaf("x")), *rights]
    depths = tuple(n - k for k, _ in order)
    labels = tuple((lf.name, lf.exp) for _, lf in order)
    assert format_term(t) == text
    assert sort_key(t) == (n + 1, depths, labels)
    v = LinComb(0, {t: 2})
    assert repr(v) == "2 * " + text
    # the leaf walks: generators, grading, renaming and the twist
    assert list(leaves(t)) == [lf for _, lf in order]
    assert v.generators() == {"x", "y"}
    assert grading(v) == {(n + 1, sum(k % 3 for k in range(n)))}
    (renamed,) = rename(v, {"y": "z"}).terms
    assert sort_key(renamed) == (n + 1, depths, tuple(
        ("z" if name == "y" else name, exp) for name, exp in labels))
    (twisted,) = v.alpha().terms
    assert sort_key(twisted) == (n + 1, depths, tuple((name, exp + 1) for name, exp in labels))
    assert v.alpha().terms[twisted] == 2


# ---------------------------------------------------------------------------
# the exact sparse-vector update and LinComb arithmetic, against references
# ---------------------------------------------------------------------------

def clean(c):
    """The normal form of an exact coefficient: an int when integral."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def reference_add_into(out, vec, c):
    """``out + c * vec`` as a new dict: ``out``'s keys in order, then ``vec``'s
    new keys in order, each sum normalized, and zero sums left out."""
    keys = [*out, *(k for k in vec if k not in out)]
    sums = {k: clean(out.get(k, 0) + c * vec.get(k, 0)) for k in keys}
    return {k: s for k, s in sums.items() if s}


# ints, and Fractions of small denominators, some of which cancel to integers
nonzero_coeffs = st.one_of(st.integers(-6, 6), st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4))).filter(bool).map(clean)
clean_vecs = st.dictionaries(st.integers(0, 9), nonzero_coeffs, max_size=7)


@st.composite
def updates(draw):
    """A clean ``out``, a clean ``vec`` and a scale ``c``, where ``out``
    cancels some of ``c * vec`` exactly."""
    c = draw(st.one_of(st.sampled_from([1, -1]), nonzero_coeffs))
    vec = draw(clean_vecs)
    out = draw(clean_vecs)
    for k in draw(st.lists(st.sampled_from(sorted(vec)), unique=True)) if vec else ():
        out[k] = clean(-c * vec[k])
    return out, vec, c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(updates())
@example(({0: 1, 1: Fraction(1, 2)}, {1: Fraction(1, 2), 0: -1, 2: 3}, -1))
@example(({3: Fraction(1, 3)}, {3: Fraction(2, 3)}, 1))
@example(({5: 2}, {5: 3, 4: 1}, Fraction(2, 3)))
def test_add_into_matches_the_reference(update):
    out, vec, c = update
    want, vec_before = reference_add_into(out, vec, c), dict(vec)
    got = add_into(out, vec, c)
    assert got is out
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert vec == vec_before


# the slow reference: each result goes through the cleaning constructor

def ref_add(u, v):
    return LinComb(u.unit + v.unit, {t: u.terms.get(t, 0) + v.terms.get(t, 0)
                                     for t in set(u.terms) | set(v.terms)})


def ref_scale(c, u):
    return LinComb(c * u.unit, {t: c * a for t, a in u.terms.items()})


def ref_mul(u, v):
    out = {}
    for t1, c1 in [(None, u.unit), *u.terms.items()]:
        for t2, c2 in [(None, v.unit), *v.terms.items()]:
            t = t2 if t1 is None else t1 if t2 is None else Node(t1, t2)
            if t is not None:
                out[t] = out.get(t, 0) + c1 * c2
    return LinComb(u.unit * v.unit, out)


def assert_clean(u: LinComb):
    for c in [u.unit, *u.terms.values()]:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    assert all(u.terms.values())


# a small pool of terms, where a product of two can equal a third
POOL = [Leaf("x"), Leaf("y"), Leaf("x", 1), Node(Leaf("x"), Leaf("y")),
        Node(Leaf("x"), Leaf("x")), Node(Node(Leaf("x"), Leaf("y")), Leaf("x"))]
coeffs = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
lincombs = st.builds(LinComb, coeffs, st.dictionaries(st.sampled_from(POOL), coeffs, max_size=5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lincombs, lincombs, coeffs)
def test_lincomb_arithmetic_matches_the_reference(u, v, c):
    for got, want in ((u + v, ref_add(u, v)),
                      (u - v, ref_add(u, ref_scale(-1, v))),
                      (u * v, ref_mul(u, v)),
                      (c * u, ref_scale(c, u)),
                      (-u, ref_scale(-1, u))):
        assert got == want
        assert_clean(got)


# ---------------------------------------------------------------------------
# plain records (``terms.Record``): what the package and its callers used of
# the dataclasses they replace
# ---------------------------------------------------------------------------

FREE = free_algebra(["x"])
FROZEN_RECORDS = {
    "Bound": lambda: Bound(3, 1),
    "SaturationConfig": lambda: SaturationConfig(unit_instances=False),
    "EqualityResult": lambda: EqualityResult(Verdict.PROVEN_EQUAL, 2 * make_leaf("x")),
    "MorphismAssignment": lambda: MorphismAssignment(FREE, {"x": make_leaf("x")}),
}


@pytest.mark.parametrize("args", [(0,), (1, -1)])
def test_bound_refuses_an_empty_window(args):
    with pytest.raises(ValueError):
        Bound(*args)


@pytest.mark.parametrize("make", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS)
def test_frozen_records_refuse_assignment_and_compare_by_their_fields(make):
    record, twin = make(), make()
    assert record is not twin and record == twin and not record != twin
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin and copy.copy(record) == record


def test_frozen_records_hash_by_their_fields():
    assert hash(Bound(3, 1)) == hash(Bound(3, 1)) == hash((3, 1))
    assert {Bound(3, 1), Bound(3, 1), Bound(3), Bound(3, 0)} == {Bound(3, 1), Bound(3, 0)}
    assert hash(SaturationConfig()) == hash(SaturationConfig(unit_instances=True))
    assert Bound(3, 1) != Bound(3, 0) and Bound(3, 1) != (3, 1)
    assert SaturationConfig() != SaturationConfig(False)
    # a record holding a dict hashes as a frozen dataclass holding it would not
    with pytest.raises(TypeError):
        hash(FROZEN_RECORDS["MorphismAssignment"]())


def test_records_print_as_dataclasses_do():
    assert repr(Bound(3, 1)) == "Bound(max_arity=3, max_exp=1)"
    assert str(Bound(2)) == "Bound(max_arity=2, max_exp=0)"
    assert repr(SaturationConfig()) == "SaturationConfig(unit_instances=True)"
    assert repr(LawItem("l", "x", "y", "PASS")) == (
        "LawItem(label='l', lhs='x', rhs='y', verdict='PASS', residue=None)")
    assert repr(LawReport("x")) == "LawReport(law='x', items=[], context={})"


def test_each_law_report_gets_its_own_items_and_context():
    first, second = LawReport("x"), LawReport("x")
    first.items.append(LawItem("l", "x", "y", "PASS"))
    first.context["carrier"] = "free"
    assert second.items == [] and second.context == {}
    assert first != second and LawReport("x") == second


def test_report_dicts_are_their_fields_and_passed():
    import homalgebra
    from homalgebra import reports
    # one class, named by the package, by the algebras and by the reports
    assert homalgebra.CheckReport is CheckReport is reports.CheckReport
    item = LawItem("l", "x", "y", "PASS")
    assert item.to_dict() == {"label": "l", "lhs": "x", "rhs": "y", "verdict": "PASS",
                              "residue": None, "passed": True}
    # a list of records becomes the list of their dicts
    report = LawReport("law", [item], {"carrier": "free"})
    assert report.to_dict() == {"law": "law", "items": [item.to_dict()],
                                "context": {"carrier": "free"}, "passed": True}
    # and a list of strings a copy of it
    check = CheckReport("unitality", 1, ["1 * x = 0"])
    check.to_dict()["counterexamples"].append("2 * x = 0")
    assert check.counterexamples == ["1 * x = 0"]


def test_mutable_records_keep_their_keyword_names():
    item = LawItem(label="l", lhs="x", rhs="y", verdict="NOT_EQUAL", residue="x - y")
    assert (item.label, item.lhs, item.rhs, item.verdict, item.residue) == (
        "l", "x", "y", "NOT_EQUAL", "x - y")
    report = CheckReport(law="unitality", samples_run=2, counterexamples=["1 * x = 0"],
                         seed=5)
    assert report.to_dict() == {"law": "unitality", "samples_run": 2, "seed": 5,
                                "counterexamples": ["1 * x = 0"], "passed": False}
    assert CheckReport("unitality", 0, []).seed is None
    # the law checkers' callers rename a report's law after the fact
    report.law = "renamed"
    assert report == CheckReport("renamed", 2, ["1 * x = 0"], 5)
    with pytest.raises(TypeError):
        hash(report)


# -- the descriptor-file reader ----------------------------------------------

ONCE = {"kind": str, "lambda": str}


def test_read_descriptor_skips_comments_and_blank_lines():
    text = "# header\n\nkind twist  # trailing\n   \nlambda   3/2  "
    assert read_descriptor(text, ONCE) == ({"kind": "twist", "lambda": "3/2"},
                                           {"kind": 3, "lambda": 5})
    with pytest.raises(ValueError, match="^line 2: unknown directive 'gens'$"):
        read_descriptor("kind twist\ngens a b", ONCE)
    with pytest.raises(ValueError, match="^line 3: second kind line$"):
        read_descriptor("kind twist\n\nkind twist", ONCE)


# a line ends at \n, \r\n or \r, and nowhere else: a form feed, a vertical
# tab, the separators 0x1c-0x1e, NEL and the Unicode separators are spaces
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("space", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                   "\u2029"])
def test_read_descriptor_lines_end_at_newlines_only(end, space):
    text = end.join(["kind x" + space, "", space + "lambda 2"]) + end
    assert read_descriptor(text, ONCE)[1] == {"kind": 1, "lambda": 3}
    assert read_descriptor(text.encode(), ONCE)[1] == {"kind": 1, "lambda": 3}


# one leading byte order mark, in bytes or in text, is no part of the first
# line; a second one is
def test_read_descriptor_drops_one_byte_order_mark():
    text = "kind twist\nlambda 2\n"
    for data in ["\ufeff" + text, b"\xef\xbb\xbf" + text.encode()]:
        assert read_descriptor(data, ONCE) == read_descriptor(text, ONCE)
    with pytest.raises(ValueError, match=r"^line 1: unknown directive '\\ufeffkind'$"):
        read_descriptor("\ufeff\ufeff" + text, ONCE)


def pair_value(key, image, at, names):
    """An image parser: the image and its place, after refusing an ``x``."""
    if image == "x":
        raise ValueError("no x")
    if image == "(":
        raise TermSyntaxError("unbalanced", at[0], at[1] + 1)
    return image, at


KEYED = {"names": str.split,
         "pair": (2, "names", pair_value), "one": (1, ("a", "b"), pair_value)}


def test_read_descriptor_reads_keyed_lines_in_place():
    got, lines = read_descriptor("names a b\npair b a =  1 # c\none  a = 2\n", KEYED)
    assert got == {"names": ["a", "b"], "pair": {("b", "a"): ("1", (2, 12))},
                   "one": {"a": ("2", (3, 9))}}
    assert lines == {"names": 1, "pair": {("b", "a"): 2}, "one": {"a": 3}}


@pytest.mark.parametrize("text,message", [
    ("pair a b = 1", "line 1: names must come before pair"),
    ("names a b\npair a = 1", "line 2: expected pair NAME NAME = IMAGE"),
    ("names a b\npair a b 1", "line 2: expected pair NAME NAME = IMAGE"),
    ("names a b\none a b = 1", "line 2: expected one NAME = IMAGE"),
    ("names a b\npair a c = 1", "line 2: pair of unknown name 'c'"),
    ("one c = 1", "line 1: one of unknown name 'c'"),
    ("names a b\npair a b = 1\npair b a = 2", "line 3: second pair of b and a"),
    ("one a = 1\n\none a = 2", "line 3: second one of a"),
    ("names a b\npair a a = x", "no x (line 2)"),
    (b"names a b\none a = \xff", "line 2: 'utf-8' codec can't decode byte 0xff in position 8"),
])
def test_read_descriptor_refusals_name_their_line(text, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        read_descriptor(text, KEYED)


def test_read_descriptor_leaves_an_input_error_its_own_place():
    with pytest.raises(TermSyntaxError, match=r"^unbalanced \(line 2, column 9\)$"):
        read_descriptor("\none a = (", KEYED)
