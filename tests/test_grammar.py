"""Grammar golden tests and print/parse roundtrips."""

import random
from fractions import Fraction

import pytest

from homalgebra.grammar import (TermSyntaxError, format_lincomb, format_term,
                                parse_lincomb)
from homalgebra.terms import (Leaf, LinComb, Node, arity, make_leaf,
                              random_lincomb)


def test_parse_leaf_forms():
    assert parse_lincomb("x") == make_leaf("x", 0)
    assert parse_lincomb("x@0") == make_leaf("x", 0)
    assert parse_lincomb("x@3") == make_leaf("x", 3)
    assert parse_lincomb("a''@1") == make_leaf("a''", 1)


def test_parse_products_and_twist_nodes():
    assert parse_lincomb("((x * y@1) * z)") == \
        LinComb.of_term(Node(Node(Leaf("x"), Leaf("y", 1)), Leaf("z")))
    # explicit twist node normalizes away
    assert parse_lincomb("(A 1 (x * y))") == make_leaf("x", 1) * make_leaf("y", 1)
    # nested twist nodes add their weights, and a product passes them to both factors
    assert parse_lincomb("(A 2 (x * (A 1 y@3)))") == \
        LinComb.of_term(Node(Leaf("x", 2), Leaf("y", 6)))


def test_parse_leaf_named_A():
    # a generator literally called A still parses in product position
    assert parse_lincomb("(A * x)") == make_leaf("A") * make_leaf("x")
    assert parse_lincomb("(A@1 * x)") == make_leaf("A", 1) * make_leaf("x")


def test_parse_rationals_and_unit():
    assert parse_lincomb("0") == LinComb.zero()
    assert parse_lincomb("5") == LinComb.scalar(5)
    assert parse_lincomb("-3/2") == LinComb.scalar(Fraction(-3, 2))
    v = parse_lincomb("2 + 3/2 * x + -1 * (x * y)")
    assert v.unit == 2
    assert v.terms[Leaf("x")] == Fraction(3, 2)
    assert v.terms[Node(Leaf("x"), Leaf("y"))] == -1


def test_format_golden():
    v = LinComb.scalar(2) + Fraction(3, 2) * (make_leaf("x") * make_leaf("y", 1)) \
        - make_leaf("x")
    assert format_lincomb(v) == "2 + -1 * x + 3/2 * (x * y@1)"
    assert format_lincomb(LinComb.zero()) == "0"
    assert format_term(Node(Leaf("x", 2), Leaf("y"))) == "(x@2 * y)"


def test_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        v = random_lincomb(rng, ["x", "y", "a'", "b''"], max_arity=4,
                           max_exp=2, n_terms=4, with_unit=True)
        assert parse_lincomb(format_lincomb(v)) == v


def test_errors_carry_line_and_column():
    with pytest.raises(TermSyntaxError) as err:
        parse_lincomb("(x * ")
    assert err.value.line == 1 and err.value.col == 6
    with pytest.raises(TermSyntaxError):
        parse_lincomb("x @ -1")
    with pytest.raises(TermSyntaxError) as err:
        parse_lincomb("x +\n+ y")
    assert err.value.line == 2
    with pytest.raises(TermSyntaxError):
        parse_lincomb("(A 0 x)")
    with pytest.raises(TermSyntaxError):
        parse_lincomb("x y")


def test_whitespace_insensitive():
    assert parse_lincomb(" ( x *  y@1 ) ") == parse_lincomb("(x*y@1)")


def test_nesting_depth_guard():
    from homalgebra.grammar import MAX_TERM_DEPTH

    def comb(depth):
        text = "x"
        for _ in range(depth):
            text = f"(x * {text})"
        return text

    [term] = parse_lincomb(comb(MAX_TERM_DEPTH)).terms
    assert arity(term) == MAX_TERM_DEPTH + 1
    with pytest.raises(TermSyntaxError) as err:
        parse_lincomb(comb(MAX_TERM_DEPTH + 1))
    assert (err.value.line, err.value.col) == (1, 1 + 5 * MAX_TERM_DEPTH)
    with pytest.raises(TermSyntaxError):
        parse_lincomb("(A 1 " * (MAX_TERM_DEPTH + 1) + "x" + ")" * (MAX_TERM_DEPTH + 1))
