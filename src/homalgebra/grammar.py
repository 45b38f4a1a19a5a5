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
A text is read as one list of plain-string tokens: the text split at
whitespace, with ``(``, ``)``, ``*`` and ``+`` spaced out first.  Each token
the parse accepts is checked once per spelling (its leaf or coefficient is
cached by spelling) against the pattern it stands for, so accepted split
tokens are the tokens of the exact grammar.  A text those tokens do not parse
(an error, or a spacing such as ``x @ 1``) is parsed again over the tokens of
one ``findall``, which give every message its line and column.  Parsed leaves
are shared: two texts that spell a leaf alike get one object.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice

from .terms import (NAME, NAME_START, Coeff, InputError, Leaf, LinComb, Node, Term,
                    as_coeff, parse_natural, parse_rational, trusted_lincomb)

# ``_Columns.column`` and ``evaluate`` recurse over a parsed term: deeper input passes their limit
MAX_TERM_DEPTH = 300


class TermSyntaxError(InputError, ValueError):
    """Raised on malformed input; carries 1-based line and column."""
    prefix = "parse error"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# A token is one match, a plain string: a leaf, its name maybe followed by
# "@" and an exponent (spaces around "@" and the exponent maybe missing), a
# rational, or any other character, a symbol.  Its first character gives its
# kind: a name start is a leaf, an ASCII digit or a "-" with more after it a
# rational, anything else a symbol.  An exponent is read as a rational, so
# that ``x@-1`` fails at ``-1``.  The end of input is a space, which no token
# equals.
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_LEAF = rf"{NAME.pattern}(?:\s*@\s*(?:{_RATIONAL})?)?"
_TOKEN = re.compile(rf"{_LEAF}|{_RATIONAL}|\S")
_TOKENIZABLE = re.compile(rf"(?:\s|{_LEAF}|{_RATIONAL}|[()*+@])*")  # the symbols are ()*+@
_RATIONAL_START = frozenset("-0123456789")
_END = " "

# a split token is a regex token when it fullmatches the alternative it stands for
_is_leaf_token = re.compile(_LEAF).fullmatch
_is_rational_token = re.compile(_RATIONAL).fullmatch


# leaves and coefficients by their spelling, up to these many
@lru_cache(maxsize=256)
def _coeff(token: str) -> Coeff:
    if not _is_rational_token(token):
        raise ValueError("expected a coefficient")
    return parse_rational(token, "coefficient")


@lru_cache(maxsize=4096)
def _leaf(token: str, shift: int) -> Leaf:
    """The leaf token ``token`` under twists of weight ``shift``; another
    kind of token is no term."""
    if token[0] not in NAME_START:
        raise ValueError("expected a term")
    if not _is_leaf_token(token):
        raise ValueError("expected a leaf")
    name, at, exp = token.partition("@")
    if not at:
        return Leaf(token, shift)
    exp = exp.lstrip()
    if not exp.isdigit():
        raise ValueError("expected a nonnegative exponent after '@'"
                         + (f", got {exp!r}" if exp else ""))
    return Leaf(name.rstrip(), parse_natural(exp, "exponent") + shift)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _error(text: str | None, message: str, index: int, offset: int = 0) -> ValueError:
    """The error at token ``index``, ``offset`` characters into it: only
    errors need offsets.  Split tokens come with no text, and their error
    gets no place: it only sends the text to the exact parse."""
    if text is None:
        return ValueError(message)
    m = next(islice(_TOKEN.finditer(text), index, None), None)
    pos = len(text) if m is None else m.start() + offset
    return TermSyntaxError(message, *_line_col(text, pos))


def _fail(text: str | None, tokens: list, index: int, message: str) -> ValueError:
    token = tokens[index]
    # a leaf shows its name alone
    shown = "end of input" if token is _END else token.partition("@")[0].rstrip() or token
    return _error(text, f"{message}, got {shown!r}", index)


def _is_rational(token: str) -> bool:
    """Whether ``token`` is a rational, by its first character."""
    return token[0] in _RATIONAL_START and token != "-"


def _term(text: str | None, tokens: list, i: int) -> tuple[Term, int]:
    """The term at token ``i``, and the index of the token after it.

    ``stack`` holds the open parentheses, innermost last: None until a
    product's left factor is read, then that factor; for ``(A k ...)`` the
    twist weight outside it.  ``shift`` is the weight of the open twists,
    which every leaf below them carries in its exponent.
    """
    stack: list = []
    shift = 0
    while True:
        token = tokens[i]
        if token == "(":
            if len(stack) == MAX_TERM_DEPTH:
                raise _error(text, f"term nested deeper than {MAX_TERM_DEPTH} parentheses", i)
            if tokens[i + 1] != "A" or not _is_rational(tokens[i + 2]):
                stack.append(None)
                i += 1
                continue
            rational = tokens[i + 2]
            try:  # ASCII digits: int would read another script's digits too
                weight = (parse_natural(rational, "twist weight")
                          if rational.isascii() and rational.isdigit() else 0)
            except ValueError as exc:
                raise _error(text, str(exc), i + 2) from None
            if weight < 1:
                raise _error(text, "twist weight must be a positive integer", i + 2)
            stack.append(shift)
            shift += weight
            i += 3
            continue
        try:
            t = _leaf(token, shift)
        except ValueError as exc:  # no leaf, or its exponent missing, not a natural or too long
            if token[0] not in NAME_START:
                raise _fail(text, tokens, i, str(exc)) from None
            exp = token.partition("@")[2].lstrip()
            if not exp:
                raise _fail(text, tokens, i + 1, str(exc)) from None
            raise _error(text, str(exc), i, len(token) - len(exp)) from None
        i += 1
        # close what the term ends: a twist, or a product after its right factor
        while stack:
            outer = stack.pop()
            want = "*" if outer is None else ")"
            if tokens[i] != want:
                raise _fail(text, tokens, i, f"expected {want}")
            i += 1
            if outer is None:
                stack.append(t)
                break
            if type(outer) is int:
                shift = outer
            else:
                t = Node(outer, t)
        else:
            return t, i


def _parse(text: str | None, tokens: list) -> LinComb:
    """The combination that ``tokens``, the tokens of ``text``, spell
    (``text`` is None for split tokens, see ``_error``)."""
    tokens.append(_END)
    # parts are summed in one dict: a term whose coefficients cancel leaves
    # it, as in a sum of LinCombs
    unit, terms, i = 0, {}, 0
    while True:
        rational = _is_rational(tokens[i])
        coeff = _coeff(tokens[i]) if rational else 1
        if rational and tokens[i + 1] != "*":  # a bare rational, the unit's part
            unit, term, i = unit + coeff, None, i + 1
        else:
            term, i = _term(text, tokens, i + 2 if rational else i)
        if term is not None and coeff:  # one entry at a time, not an add_into vector
            total = as_coeff(terms[term] + coeff) if term in terms else coeff
            if total:
                terms[term] = total
            else:
                del terms[term]
        if tokens[i] != "+":
            break
        i += 1
    if tokens[i] is not _END:
        raise _fail(text, tokens, i, "trailing input")
    return trusted_lincomb(as_coeff(unit), terms)


def parse_lincomb(text: str) -> LinComb:
    try:
        return _parse(None, text.replace("(", " ( ").replace(")", " ) ")
                      .replace("*", " * ").replace("+", " + ").split())
    except (ValueError, ZeroDivisionError):
        pass
    # the exact tokens: the same answer where the split ones parse, and the
    # error with its place, or the spacings split tokens miss, where not
    try:
        return _parse(text, _TOKEN.findall(text))
    except (ValueError, ZeroDivisionError):
        # a character that starts no token is a symbol no rule reads, so it
        # fails the parse; as an unexpected character it wins over any error
        pos = _TOKENIZABLE.match(text).end()
        if pos < len(text):
            raise TermSyntaxError(f"unexpected character {text[pos]!r}",
                                  *_line_col(text, pos)) from None
        raise


def format_term(t: Term) -> str:
    """``t`` as text, read left to right without recursion, so that deep
    spines print too: a node opens its parenthesis and goes on into its left
    factor, and stacks its right factor with the parentheses that close
    after it, one more than close after the node."""
    if t.__class__ is not Node:
        if isinstance(t, Leaf):
            return t.name if t.exp == 0 else f"{t.name}@{t.exp}"
        raise TypeError(f"not a normalized term: {t!r}")
    parts = []
    stack = []
    closes = 0
    while True:
        while t.__class__ is Node:
            parts.append("(")
            stack.append((t.right, closes + 1))
            t = t.left
            closes = 0
        if not isinstance(t, Leaf):
            raise TypeError(f"not a normalized term: {t!r}")
        parts.append(t.name if t.exp == 0 else f"{t.name}@{t.exp}")
        if closes:
            parts.append(")" * closes)
        if not stack:
            return "".join(parts)
        t, closes = stack.pop()
        parts.append(" * ")


def format_lincomb(v: LinComb) -> str:
    parts = [str(v.unit)] if v.unit else []
    parts += [format_term(t) if c == 1 else f"{c} * {format_term(t)}"
              for t, c in v.sorted_terms()]
    return " + ".join(parts) or "0"
