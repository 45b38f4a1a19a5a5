"""Textual grammar for terms and linear combinations.

    leaf    := NAME ["@" NAT]                  (exponent 0 may be omitted)
    term    := leaf | "(" term "*" term ")" | "(" "A" NAT term ")"
    lincomb := "0" | RATIONAL | part {"+" part}
    part    := [RATIONAL "*"] term             (bare RATIONAL = unit component)

``(A k t)`` is the twist applied k times to t.  The twist is multiplicative,
so the parser reads it straight into the leaf exponents: every leaf of t gets
k more.  Names match ``terms.NAME``: letters/digits/underscores with any
number of trailing apostrophes (the tensor-leg tags).  Formatting is canonical:
unit component first, then terms ascending in the term order, ``@0`` omitted.
"""

from __future__ import annotations

import re

from .poly import parse_natural, parse_rational
from .terms import NAME, Leaf, LinComb, Node, Term


# Terms are parsed and traversed recursively; refusing deeper input keeps every
# later traversal of a parsed term inside the interpreter's recursion limit.
MAX_TERM_DEPTH = 300


class TermSyntaxError(ValueError):
    """Raised on malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<rat>-?\d+(?:/\d+)?)
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


def parse_lincomb(text: str) -> LinComb:
    p = _Parser(text)
    v = p.lincomb()
    p.done()
    return v


def format_term(t: Term) -> str:
    if isinstance(t, Leaf):
        return t.name if t.exp == 0 else f"{t.name}@{t.exp}"
    if isinstance(t, Node):
        return f"({format_term(t.left)} * {format_term(t.right)})"
    raise TypeError(f"not a normalized term: {t!r}")


def format_lincomb(v: LinComb) -> str:
    if v.is_zero():
        return "0"
    parts = []
    if v.unit:
        parts.append(str(v.unit))
    for t, c in v.sorted_terms():
        if c == 1:
            parts.append(format_term(t))
        else:
            parts.append(f"{c} * {format_term(t)}")
    return " + ".join(parts)
