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
Parsed leaves are shared: two texts that spell a leaf alike get one object.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import islice

from .terms import (NAME, InputError, Leaf, LinComb, Node, Term, as_coeff, parse_natural,
                    parse_rational, trusted_lincomb)

# later traversals of a parsed term recurse: deeper input would pass their limit
MAX_TERM_DEPTH = 300


class TermSyntaxError(InputError, ValueError):
    """Raised on malformed input; carries 1-based line and column."""
    prefix = "parse error"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# A token is one match with its text in one of five groups: a leaf's name, "@"
# and exponent (the last two maybe empty), a rational, or any other character,
# a symbol.  Names and rationals start differently.  An exponent is read as a
# rational, so that ``x@-1`` fails at ``-1``.
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_LEAF = rf"({NAME.pattern})(?:\s*(@)\s*({_RATIONAL})?)?"
_TOKEN = re.compile(rf"\s*(?:{_LEAF}|({_RATIONAL})|(\S))")
_TOKENIZABLE = re.compile(rf"(?:\s|{_LEAF}|{_RATIONAL}|[()*+@])*")  # the symbols are ()*+@
_END = ("",) * 5

# leaves and coefficients by their spelling, up to these many
_coeff = lru_cache(maxsize=256)(partial(parse_rational, name="coefficient"))


@lru_cache(maxsize=4096)
def _leaf(name: str, exp: str, shift: int) -> Leaf:
    """``name@exp`` (``exp`` digits or empty) under twists of weight ``shift``."""
    return Leaf(name, (parse_natural(exp, "exponent") if exp else 0) + shift)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _error(text: str, message: str, index: int, group: int = 0) -> TermSyntaxError:
    """The error at token ``index``, or at its ``group``: only errors need offsets."""
    m = next(islice(_TOKEN.finditer(text), index, None), None)
    if m is None:
        pos = len(text)
    else:  # a token's text starts after its spaces
        pos = m.start(group) if group else m.end() - len(m.group().lstrip())
    return TermSyntaxError(message, *_line_col(text, pos))


def _fail(text: str, tokens: list, index: int, message: str) -> TermSyntaxError:
    shown = tokens[index][0] or tokens[index][3] or tokens[index][4] or "end of input"
    return _error(text, f"{message}, got {shown!r}", index)


def _term(text: str, tokens: list, i: int) -> tuple[Term, int]:
    """The term at token ``i``, and the index of the token after it.

    ``stack`` holds the open parentheses, innermost last: None until a
    product's left factor is read, then that factor; for ``(A k ...)`` the
    twist weight outside it.  ``shift`` is the weight of the open twists,
    which every leaf below them carries in its exponent.
    """
    stack: list = []
    shift = 0
    while True:
        name, at, exp, _, symbol = tokens[i]
        if symbol == "(":
            if len(stack) == MAX_TERM_DEPTH:
                raise _error(text, f"term nested deeper than {MAX_TERM_DEPTH} parentheses", i)
            after = tokens[i + 1]
            rational = after[0] == "A" and not after[1] and tokens[i + 2][3]
            if not rational:
                stack.append(None)
                i += 1
                continue
            try:
                weight = parse_natural(rational, "twist weight") if rational.isdigit() else 0
            except ValueError as exc:
                raise _error(text, str(exc), i + 2) from None
            if weight < 1:
                raise _error(text, "twist weight must be a positive integer", i + 2)
            stack.append(shift)
            shift += weight
            i += 3
            continue
        if not name:
            raise _fail(text, tokens, i, "expected a term")
        if at and not exp.isdigit():
            message = "expected a nonnegative exponent after '@'"
            if not exp:
                raise _fail(text, tokens, i + 1, message)
            raise _error(text, f"{message}, got {exp!r}", i, 3)
        try:
            t = _leaf(name, exp, shift)
        except ValueError as exc:
            raise _error(text, str(exc), i, 3) from None
        i += 1
        # close what the term ends: a twist, or a product after its right factor
        while stack:
            outer = stack.pop()
            want = "*" if outer is None else ")"
            if tokens[i][4] != want:
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


def parse_lincomb(text: str) -> LinComb:
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    # parts are summed in one dict: a term whose coefficients cancel leaves
    # it, as in a sum of LinCombs
    unit, terms, i = 0, {}, 0
    try:
        while True:
            rational = tokens[i][3]
            coeff = _coeff(rational) if rational else 1
            if rational and tokens[i + 1][4] != "*":  # a bare rational, the unit's part
                unit, term, i = unit + coeff, None, i + 1
            else:
                term, i = _term(text, tokens, i + 2 if rational else i)
            if term is not None and coeff:
                total = as_coeff(terms[term] + coeff) if term in terms else coeff
                if total:
                    terms[term] = total
                else:
                    del terms[term]
            if tokens[i][4] != "+":
                break
            i += 1
        if tokens[i] is not _END:
            raise _fail(text, tokens, i, "trailing input")
    except (ValueError, ZeroDivisionError):
        # a character that starts no token is a symbol no rule reads, so it
        # fails the parse; as an unexpected character it wins over any error
        pos = _TOKENIZABLE.match(text).end()
        if pos < len(text):
            raise TermSyntaxError(f"unexpected character {text[pos]!r}",
                                  *_line_col(text, pos)) from None
        raise
    return trusted_lincomb(as_coeff(unit), terms)


def format_term(t: Term) -> str:
    if isinstance(t, Leaf):
        return t.name if t.exp == 0 else f"{t.name}@{t.exp}"
    if isinstance(t, Node):
        return f"({format_term(t.left)} * {format_term(t.right)})"
    raise TypeError(f"not a normalized term: {t!r}")


def format_lincomb(v: LinComb) -> str:
    parts = [str(v.unit)] if v.unit else []
    parts += [format_term(t) if c == 1 else f"{c} * {format_term(t)}"
              for t, c in v.sorted_terms()]
    return " + ".join(parts) or "0"
