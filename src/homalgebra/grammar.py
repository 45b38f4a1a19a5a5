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
from itertools import islice

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


# A token is a rational, a name or a symbol.  Their first characters differ,
# so the first alternative that matches is the token.
_TOKEN = re.compile(rf"-?[0-9]+(?:/[0-9]+)?|{NAME.pattern}|[()*+@]")
_TOKENIZABLE = re.compile(rf"(?:\s|{_TOKEN.pattern})*")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")  # of a NAME


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _is_rational(token: str) -> bool:
    return token[:1] == "-" or token[:1].isdecimal()


def _is_natural(token: str) -> bool:
    # digits 0-9 only: ``isdigit`` alone also takes other scripts' digits
    return token.isascii() and token.isdigit()


class _Parser:
    """Recursive descent over the token strings, ``""`` at the end of input;
    ``i`` indexes the next token."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        # findall skips what starts no token, so the tokens cover every
        # non-space character unless one is unexpected, which wins over any
        # grammar error
        if len("".join(self.tokens)) != len("".join(text.split())):
            pos = _TOKENIZABLE.match(text).end()
            raise TermSyntaxError(f"unexpected character {text[pos]!r}",
                                  *_line_col(text, pos))
        self.tokens.append("")
        self.i = 0

    def error(self, message: str, index: int) -> TermSyntaxError:
        """The error at token ``index``: only errors need token offsets."""
        match = next(islice(_TOKEN.finditer(self.text), index, None), None)
        pos = match.start() if match else len(self.text)
        return TermSyntaxError(message, *_line_col(self.text, pos))

    def fail(self, message):
        shown = self.tokens[self.i] or "end of input"
        raise self.error(f"{message}, got {shown!r}", self.i)

    def expect(self, token: str):
        if self.tokens[self.i] != token:
            self.fail(f"expected {token}")
        self.i += 1

    def natural(self, what: str) -> int:
        """The next token, a string of digits, as a natural number."""
        i = self.i
        self.i = i + 1
        try:
            return parse_natural(self.tokens[i], what)
        except ValueError as exc:
            raise self.error(str(exc), i) from None

    # term := leaf | "(" term "*" term ")" | "(" "A" NAT term ")"
    # ``shift`` is the twist weight of the enclosing ``(A k ...)`` nodes, which
    # every leaf below them carries in its exponent
    def term(self, depth: int = 0, shift: int = 0) -> Term:
        tokens, i = self.tokens, self.i
        token = tokens[i]
        if token[:1] in _NAME_START:
            self.i = i + 1
            exp = 0
            if tokens[i + 1] == "@":
                self.i = i + 2
                if not _is_natural(tokens[i + 2]):
                    self.fail("expected a nonnegative exponent after '@'")
                exp = self.natural("exponent")
            return Leaf(token, exp + shift)
        if token != "(":
            self.fail("expected a term")
        if depth == MAX_TERM_DEPTH:
            raise self.error(f"term nested deeper than {MAX_TERM_DEPTH} parentheses", i)
        self.i = i + 1
        if tokens[i + 1] == "A" and _is_rational(tokens[i + 2]):
            self.i = i + 2
            weight = self.natural("twist weight") if _is_natural(tokens[i + 2]) else 0
            if weight < 1:
                raise self.error("twist weight must be a positive integer", i + 2)
            child = self.term(depth + 1, shift + weight)
            self.expect(")")
            return child
        left = self.term(depth + 1, shift)
        self.expect("*")
        right = self.term(depth + 1, shift)
        self.expect(")")
        return Node(left, right)

    # lincomb := "0" | RATIONAL | part {"+" part}, summed in one dict: a term
    # whose coefficients cancel leaves it, as in a sum of LinCombs
    def lincomb(self) -> LinComb:
        tokens = self.tokens
        unit, terms = 0, {}
        while True:
            token = tokens[self.i]
            coeff, term = 1, None
            if _is_rational(token):
                self.i += 1
                coeff = parse_rational(token, "coefficient")
                if tokens[self.i] == "*":
                    self.i += 1
                    term = self.term()
                else:
                    unit += coeff
            else:
                term = self.term()
            if term is not None and coeff:
                total = terms.get(term, 0) + coeff
                if total:
                    terms[term] = total
                else:
                    del terms[term]
            if tokens[self.i] != "+":
                break
            self.i += 1
        if tokens[self.i]:
            self.fail("trailing input")
        return LinComb(unit, terms)


def parse_lincomb(text: str) -> LinComb:
    return _Parser(text).lincomb()


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
