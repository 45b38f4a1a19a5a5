"""Grammar golden tests, print/parse roundtrips, and a differential test
of the parser against a token-by-token reference."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homalgebra.grammar import (MAX_TERM_DEPTH, TermSyntaxError,
                                format_lincomb, format_term, parse_lincomb)
from homalgebra.terms import (NAME, Leaf, LinComb, Node, Term, arity, make_leaf,
                              parse_natural, parse_rational, random_lincomb)


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
    # an exponent is written in the digits 0-9 (the reference below reads
    # other scripts' digits as digits, so this case is pinned here)
    with pytest.raises(TermSyntaxError, match="unexpected character") as err:
        parse_lincomb("x@\u0663")
    assert (err.value.line, err.value.col) == (1, 3)


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


def test_leaf_cache_is_bounded_and_builds_fresh_leaves():
    # more distinct leaf spellings than the cache holds, some spaced around
    # "@" and some under (A k ...): the cache stays within its bound, each
    # parsed leaf equals the Leaf built afresh, and a spelling parsed again
    # at once gives the same object
    from homalgebra.grammar import _leaf
    maxsize = _leaf.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 1000):
        name, exp, weight = f"g{k}", k % 3, k % 2 * (k % 5 + 1)
        text = f"{name} @ {exp}" if k % 4 == 1 else f"{name}@{exp}"
        if weight:
            text = f"(A {weight} {text})"
        [leaf] = parse_lincomb(text).terms
        assert leaf == Leaf(name, exp + weight)
        assert next(iter(parse_lincomb(text).terms)) is leaf
    assert 0 < _leaf.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# differential test: the parser against a reference that tokenizes one match
# at a time, keeps every token's offset and sums a LinComb per part
# ---------------------------------------------------------------------------


_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<rat>-?[0-9]+(?:/[0-9]+)?)
  | (?P<name>{NAME.pattern})
  | (?P<sym>[()*+@])
    """,
    re.VERBOSE,
)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise TermSyntaxError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        _, value, pos = self.peek()
        shown = value or "end of input"
        raise TermSyntaxError(f"{message}, got {shown!r}", *_line_col(self.text, pos))

    def expect(self, kind, value=None):
        k, v, _ = self.peek()
        if k != kind or (value is not None and v != value):
            self.fail(f"expected {value or kind}")
        return self.next()

    def natural(self, what: str) -> int:
        """The next token, a string of digits, as a natural number."""
        _, value, pos = self.next()
        try:
            return parse_natural(value, what)
        except ValueError as exc:
            raise TermSyntaxError(str(exc), *_line_col(self.text, pos)) from None

    # term := leaf | "(" term "*" term ")" | "(" "A" NAT term ")"
    # ``shift`` is the twist weight of the enclosing ``(A k ...)`` nodes, which
    # every leaf below them carries in its exponent
    def term(self, depth: int = 0, shift: int = 0) -> Term:
        kind, value, pos = self.peek()
        if kind == "name":
            self.next()
            exp = 0
            if self.peek()[0] == "sym" and self.peek()[1] == "@":
                self.next()
                k, v, _ = self.peek()
                if k != "rat" or not v.isdigit():
                    self.fail("expected a nonnegative exponent after '@'")
                exp = self.natural("exponent")
            return Leaf(value, exp + shift)
        if kind == "sym" and value == "(":
            if depth == MAX_TERM_DEPTH:
                raise TermSyntaxError(f"term nested deeper than {MAX_TERM_DEPTH} parentheses",
                                      *_line_col(self.text, pos))
            self.next()
            k, v, _ = self.peek()
            if k == "name" and v == "A" and self.tokens[self.i + 1][0] == "rat":
                self.next()
                _, w, wpos = self.peek()
                weight = self.natural("twist weight") if w.isdigit() else 0
                if weight < 1:
                    raise TermSyntaxError("twist weight must be a positive integer",
                                          *_line_col(self.text, wpos))
                child = self.term(depth + 1, shift + weight)
                self.expect("sym", ")")
                return child
            left = self.term(depth + 1, shift)
            self.expect("sym", "*")
            right = self.term(depth + 1, shift)
            self.expect("sym", ")")
            return Node(left, right)
        self.fail("expected a term")

    # lincomb := "0" | RATIONAL | part {"+" part}
    def lincomb(self) -> LinComb:
        out = LinComb.zero()
        while True:
            out = out + self.part()
            kind, value, _ = self.peek()
            if kind == "sym" and value == "+":
                self.next()
                continue
            break
        return out

    def part(self) -> LinComb:
        kind, value, _ = self.peek()
        if kind == "rat":
            self.next()
            coeff = parse_rational(value, "coefficient")
            k, v, _ = self.peek()
            if k == "sym" and v == "*":
                self.next()
                return LinComb.of_term(self.term(), coeff)
            return LinComb.scalar(coeff)
        return LinComb.of_term(self.term())

    def done(self):
        if self.peek()[0] != "eof":
            self.fail("trailing input")


def reference_parse_lincomb(text: str) -> LinComb:
    p = _Parser(text)
    v = p.lincomb()
    p.done()
    return v


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the combination with its terms in
    order, or the error with its message, line and column."""
    try:
        v = parse(text)
    except TermSyntaxError as exc:
        return "syntax error", str(exc), exc.line, exc.col
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return "value", v.unit, list(v.terms.items())


BIG = "9" * 1001   # one digit above the size bounds of naturals and coefficients


def _mostly(good, bad):
    """Mostly one of ``good``, sometimes one of ``bad``."""
    return st.sampled_from(good * 3 + bad)


NATURALS = _mostly(["0", "1", "2", "12", "007", "1" * 1000], [BIG, "-1", "3/2", "y", ""])
WEIGHTS = _mostly(["1", "2", "12", "1" * 1000], ["0", BIG, "-1", "3/2", "x", "A", ""])
COEFFS = _mostly(["2", "-1", "3/2", "-4/6", "0", "12/4"], ["1/0", BIG, "-" + BIG, "1" * 400])
NAMES = st.sampled_from(["x", "y1", "A", "a'", "b''", "_z", "A'"])
LEAVES = st.one_of(NAMES, NAMES, st.builds("{}@{}".format, NAMES, NATURALS))
TERMS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.builds("({} * {})".format, kids, kids),
    st.builds("(A {} {})".format, WEIGHTS, kids)), max_leaves=8)
PARTS = st.one_of(TERMS, COEFFS, st.builds("{} * {}".format, COEFFS, TERMS))
SPACES = st.sampled_from([" ", " ", "", "\n", "\t", " \n\t "])
STRAY = st.sampled_from(list("#-/'.,;*()+@ \n\te") + ["\u00e9", "\u0663", "\u00b2", "\x0b", "\0"])
# what may stand beside a digit: another script's digit, a decimal point, an exponent
BESIDE_DIGIT = st.sampled_from(["\u0663", ".", "e", "e3", ".5"])


@st.composite
def texts(draw):
    """A combination, respaced and maybe mutated, placed on a later line and
    column as a descriptor file's delta image is."""
    # a few terms, each maybe repeated with another coefficient: a term whose
    # coefficients cancel and which comes back must keep the reference's place
    terms = st.sampled_from(draw(st.lists(TERMS, min_size=1, max_size=3)))
    parts = st.one_of(terms, st.builds("{} * {}".format, COEFFS, terms), PARTS)
    text = " + ".join(draw(st.lists(parts, min_size=1, max_size=6)))
    text = "".join(piece + draw(SPACES) for piece in text.split(" "))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:pos] + draw(st.one_of(st.just(""), STRAY)) + text[pos + cut:]
    digits = [m.end() for m in re.finditer("[0-9]", text)]
    if digits and draw(st.sampled_from([False, False, True])):
        pos = draw(st.sampled_from(digits))
        text = text[:pos] + draw(BESIDE_DIGIT) + text[pos:]
    lineno, indent = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    return "\n" * (lineno - 1) + " " * indent + text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts())
@example("x + -1 * x + y + 2 * x")        # a cancelled term comes back last
@example("(x * ) + \n\t(y # z)")           # an unexpected character wins
@example("\n\n   2 * (x * y) + 1/0")
# a leaf's "@" and exponent, which the parser reads as one token with its name
@example("x@")
@example("x@ y")
@example("x@-1")
@example("x@@1")
@example("x@1@2")
@example("(A@1 * x)")
@example("(A 0 x)")
@example("(A x)")
@example(f"x@{BIG}")
@example(f"(A {BIG} x)")
# spaces inside a leaf token, and tokens that end the input early
@example("x @ 1")
@example("x @1/2")
@example("x@ -1")
@example("(A 1 x @ 2)")
@example("A @1")
@example("(A 2")
@example("(A")
@example("(")
@example("x\0y")
# another script's digits are no number, where the term grammar reads one
@example("x@\u0663")
@example("(A \u0663 x)")
@example("\u0663 * x")
# split at whitespace and around ()*+, these texts give other tokens than
# the exact grammar's: a digit string runs into what follows it, and "@"
# stands apart from its name
@example("(A 1\u0663 x)")
@example("(A 1x)")
@example("x-1")
@example("2x")
@example("0.5 * x")
@example("1e3 * x")
@example("x @1")
@example("1\u0663 * x")
# a delta image as the free-bialgebra loader pads it onto its line
@example("\n\n" + " " * 10 + "(a' * a'') + (b'@ * c'')")
def test_parser_matches_reference(text):
    assert _outcome(parse_lincomb, text) == _outcome(reference_parse_lincomb, text)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(["(x * ", "(A 1 ", "(A 2 "]),
                min_size=MAX_TERM_DEPTH - 2, max_size=MAX_TERM_DEPTH + 2),
       st.sampled_from(["", "#", " + x", ")"]))
def test_deep_nesting_matches_reference(openers, tail):
    text = "".join(openers) + "y@1" + ")" * len(openers) + tail
    assert _outcome(parse_lincomb, text) == _outcome(reference_parse_lincomb, text)


def test_well_formed_texts_read_only_split_tokens(monkeypatch):
    # printed combinations, and a spaced, twisted, multi-line text, parse
    # without the exact tokenizer that error texts fall back to
    import homalgebra.grammar as grammar

    class Unreachable:
        def findall(self, text):
            raise AssertionError(f"exact tokens read for {text!r}")
    texts = [format_lincomb(random_lincomb(random.Random(seed), ["x", "y", "a'", "b''"],
                                           max_arity=5, max_exp=3, n_terms=5, with_unit=True))
             for seed in range(40)]
    texts.append("\n  -3/2 +(A 2\t(x*y@1)) + 7 *\n(A 1 (A 12 z''@003))+0*w")
    expected = [parse_lincomb(text) for text in texts]
    monkeypatch.setattr(grammar, "_TOKEN", Unreachable())
    assert [parse_lincomb(text) for text in texts] == expected
