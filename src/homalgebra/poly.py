"""Exact multivariate polynomials over the rationals, plus endomorphisms.

These are the concrete commutative carriers: the coordinate ring of 2x2
matrices on four variables, the plane on two, a one-variable ring for scaling
twists.  Monomials are sorted tuples of (variable, power); coefficients are
exact, an ``int`` while integral and a ``Fraction`` otherwise.  Polynomials
are immutable and hashable.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, lcm
from types import MappingProxyType

from .terms import (MAX_POLY_SIZE, NAME, NAME_START, Coeff, _Frozen, add_into, as_coeff,
                    parse_natural, parse_rational)

Mono = tuple[tuple[str, int], ...]

_ONE: Mono = ()


# Monomial products repeat: a ring has few monomials of the degrees a
# computation reaches, and a product of two polynomials pairs every monomial of
# one with every monomial of the other.  Criterion 9's evaluations meet 167
# distinct products in a million, and `check algebra` on the twisted carriers
# at most a few hundred; the bound keeps the cache's memory fixed however many
# distinct products a long run meets.
@lru_cache(maxsize=4096)
def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    acc: dict[str, int] = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


class Poly(_Frozen):
    """Immutable exact-rational polynomial."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        cleaned: dict[Mono, Coeff] = {}
        if coeffs:  # a caller's input, not add_into: drop zeros, refuse floats
            for m, c in coeffs.items():
                if type(c) is not int:
                    c = as_coeff(c)
                if c:
                    cleaned[m] = c
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({_ONE: 1})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({_ONE: c})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): 1})

    @staticmethod
    def monomial(m: Mono, c=1) -> "Poly":
        return Poly({m: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.coeffs.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _make(add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _make(add_into(dict(self.coeffs), other.coeffs, -1))

    def __neg__(self) -> "Poly":
        return (-1) * self

    def __rmul__(self, c) -> "Poly":
        if isinstance(c, Poly):
            return NotImplemented
        c = as_coeff(c)
        if not c:
            return Poly.zero()
        return _make(add_into({}, self.coeffs, c))

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _make(_product(self.coeffs, other.coeffs))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one()
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, images: dict[str, "Poly"]) -> "Poly":
        """Algebra-morphism extension of a variable assignment (missing
        variables map to themselves): ``PolyEndo(images)(self)``."""
        return PolyEndo(images)(self)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in sorted(self.coeffs.items(), key=lambda mc: (_mono_degree(mc[0]), mc[0])):
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(_mono_str(m))
            else:
                parts.append(f"{c}*{_mono_str(m)}")
        return " + ".join(parts)


# the slots' own setters, which skip the immutability guard of __setattr__
_new = object.__new__
_set_coeffs = Poly.coeffs.__set__
_set_hash = Poly._hash.__set__


def _make(coeffs: dict[Mono, Coeff]) -> Poly:
    """The polynomial on ``coeffs``, trusted to be clean already: no zero
    coefficient and each one exact (see ``as_coeff``).  Arithmetic keeps its
    results clean as it builds them and returns through here; ``Poly(...)``
    cleans what any other caller passes."""
    p = _new(Poly)
    _set_coeffs(p, coeffs)
    _set_hash(p, None)
    return p


def _product(a: dict[Mono, Coeff], b: dict[Mono, Coeff]) -> dict[Mono, Coeff]:
    """The clean coefficients of the product of two clean polynomials."""
    out: dict[Mono, Coeff] = {}
    for m1, c1 in a.items():  # products collide: one entry a pair, not add_into
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if type(s) is not int:
                s = as_coeff(s)
            if s:
                out[m] = s
            else:
                del out[m]
    return out


# Bound on the image terms one PolyEndo's table stores, summed over its
# entries.  A twisted carrier's checks meet few monomials: ``check algebra``
# on ``twist t = 1/3 + 2/5*t + 7/11*t^2 + 13/17*t^3`` stores 532 terms for 19
# monomials, and the scaling twists one term per monomial.  Past the bound a
# new monomial's image is computed on every call instead of stored.
IMAGE_TABLE_TERMS = 1 << 14


class PolyEndo(_Frozen):
    """Algebra endomorphism given by images of variables, extended by
    substitution (hence automatically multiplicative and unital): the one
    substitution, which ``Poly.substitute`` applies.

    ``images`` is read-only.  A monomial's image is that of the monomial with
    one power less of its last variable, times that variable's image, so a
    miss is built from its longest such prefix in the table, one product a
    power.  Each image built is kept while the table holds at most
    ``IMAGE_TABLE_TERMS`` image terms, and a call is one lookup and one
    scaled sum per monomial.
    """

    __slots__ = ("_images", "_table", "_stored")

    def __init__(self, images: dict[str, Poly]):
        _set_images(self, MappingProxyType(dict(images)))
        _set_table(self, {_ONE: {_ONE: 1}})
        _set_stored(self, 1)

    @property
    def images(self) -> MappingProxyType:
        return self._images

    def _image(self, m: Mono) -> dict[Mono, Coeff]:
        table, missing = self._table, []
        while m not in table:
            missing.append(m)
            *rest, (v, e) = m
            m = (*rest, (v, e - 1)) if e > 1 else tuple(rest)
        image = table[m]
        for m in reversed(missing):
            v = m[-1][0]
            p = self._images.get(v)
            image = _product(image, {((v, 1),): 1} if p is None else p.coeffs)
            if self._stored + len(image) <= IMAGE_TABLE_TERMS:
                table[m] = image
                _set_stored(self, self._stored + len(image))
        return image

    def __call__(self, p: Poly) -> Poly:
        table = self._table
        out: dict[Mono, Coeff] = {}
        for m, c in p.coeffs.items():
            image = table.get(m)
            if image is None:
                image = self._image(m)
            for m2, c2 in image.items():  # not add_into: it cost soundness 2.6% ops_per_s
                s = out.get(m2, 0) + c * c2
                if type(s) is not int:
                    s = as_coeff(s)
                if s:
                    out[m2] = s
                else:
                    del out[m2]
        return _make(out)

    def is_identity_on(self, names) -> bool:
        images = self.images
        return all(images[v] == Poly.var(v) for v in names if v in images)

    def __repr__(self):
        body = ", ".join(f"{v} -> {p}" for v, p in sorted(self.images.items()))
        return f"PolyEndo({body})"


_set_images = PolyEndo._images.__set__
_set_table = PolyEndo._table.__set__
_set_stored = PolyEndo._stored.__set__


def monomials_up_to(names, degree: int) -> list[Poly]:
    """All monomials of total degree <= degree, ascending (includes 1)."""
    names = sorted(set(names))
    return [Poly.monomial(tuple(Counter(c).items()))
            for d in range(degree + 1) for c in combinations_with_replacement(names, d)]


def random_poly(rng, names, degree: int = 2, terms: int = 3) -> Poly:
    """Seeded random polynomial with small integer coefficients; on no names,
    a constant (the degree is drawn all the same, so the draws on other names
    stay as they were)."""
    names = sorted(names)
    out = Poly.zero()
    for _ in range(terms):
        c = rng.randint(-2, 2)
        if not c:
            continue
        m: Mono = _ONE
        d = rng.randint(0, degree)
        for _ in range(d if names else 0):
            m = _mono_mul(m, ((rng.choice(names), 1),))
        out = out + Poly.monomial(m, c)
    return out


# ---------------------------------------------------------------------------
# small expression parser for descriptor files:  3/2*x^2*y + t - 1
# ---------------------------------------------------------------------------

# nesting cap on parentheses and unary minus signs: the parser recurses on both
MAX_POLY_DEPTH = 100

# A token is one match, a plain string: a number, a name, or any other
# character.  A token that starts no number, name or symbol is refused before
# the parse starts.  The parser keeps the tokens in reverse, so that ``pop()``
# takes the next one, behind an empty string that ends the input.
_POLY_TOKEN = re.compile(rf"[0-9]+(?:/[0-9]+)?|{NAME.pattern}|\S")
_POLY_START = NAME_START | frozenset("0123456789-+*^()")


def _require_bounded(*factors: tuple[Poly, int], size: int = MAX_POLY_SIZE) -> tuple[int, int]:
    """Refuse the product of the powers ``p ** k`` if an upper estimate of
    its degree, term count or coefficient bits (numerators over each ``p``'s
    common denominator) passes ``size``; else return its terms and bits."""
    degree, names, terms, bits = 0, set(), 1, 0
    for p, k in factors:
        if k > size:
            raise ValueError(f"power {k} is above the bound {size}")
        degree += k * max(map(_mono_degree, p.coeffs), default=0)
        names |= {v for m in p.coeffs for v, _ in m}
        terms *= len(p.coeffs) ** k
        d = lcm(*(c.denominator for c in p.coeffs.values()))
        bits += k * (max((max(abs(c.numerator) * (d // c.denominator), d).bit_length() - 1
                          for c in p.coeffs.values()), default=0)
                     + (len(p.coeffs) - 1).bit_length())
    terms = min(terms, comb(len(names) + degree, degree))
    if max(degree, bits, terms) > size:
        raise ValueError(f"polynomial above the size bound {size} "
                         "(degree, terms or coefficient bits)")
    return terms, bits


def require_bounded_twist(phi: PolyEndo, size: int, lines: dict):
    """Refuse ``phi`` before any check runs if a composite that the twisted
    carrier's checks build may pass ``size``, or building it may take more
    than ``size ** 2`` products of 30-bit digits (CPython's int digits); the
    refusal names the line ``lines[v]`` of the image of the variable ``v``.

    The checks apply phi twice over products of samples of degree <= 2, as in
    ``phi(phi(x y) phi(z))``: phi of a polynomial of degree ``k = 6 *
    deg(phi)``, whose monomials' images the table builds a power at a time,
    each of ``k`` products pairing at most ``terms`` terms with the image's
    ``n``, on coefficients of at most ``bits`` bits.
    """
    k = 6 * max((_mono_degree(m) for p in phi.images.values() for m in p.coeffs), default=0)
    for name, p in sorted(phi.images.items()):
        try:
            terms, bits = _require_bounded((p, k), size=size)
            if (work := k * terms * len(p.coeffs) * (bits // 30 + 1)) > size * size:
                raise ValueError(f"work estimate {work} above the budget {size * size}"
                                 " (digit products)")
        except ValueError as exc:
            raise ValueError(f"twist {name} = {p}: its composites in the checks"
                             f" are out of bounds: {exc} (line {lines[name]})") from None


def parse_poly(text: str, allowed=None, offset: int = 0) -> Poly:
    """The polynomial ``text`` writes, in the names ``allowed`` if given.
    ``offset`` characters come before ``text`` on its line, and the column of
    an unexpected character counts them."""
    tokens = []
    for m in _POLY_TOKEN.finditer(text):
        if m[0][0] not in _POLY_START:
            raise ValueError(f"bad polynomial syntax: unexpected character {m[0]!r}"
                             f" at column {offset + m.start() + 1} of {text!r}")
        tokens.append(m[0])
    tokens.append("")
    tokens.reverse()

    def atom(depth: int) -> Poly:
        token = tokens.pop()
        if token in ("-", "("):
            if depth == MAX_POLY_DEPTH:
                raise ValueError(f"polynomial nested deeper than {MAX_POLY_DEPTH} levels")
            if token == "-":
                return -atom(depth + 1)
            out = expr(depth + 1)
            if tokens.pop() != ")":
                raise ValueError("missing ')'")
            return out
        if token[:1].isdigit():
            return Poly.const(parse_rational(token, "number"))
        if token[:1] not in NAME_START:
            raise ValueError(f"bad polynomial syntax near {token!r}")
        if allowed is not None and token not in allowed:
            raise ValueError(f"unknown variable {token!r}")
        return Poly.var(token)

    def factor(depth: int) -> Poly:
        base = atom(depth)
        if tokens[-1] != "^":
            return base
        tokens.pop()
        power = tokens.pop()
        if not power.isdigit():
            raise ValueError("power must be a nonnegative integer")
        k = parse_natural(power, "power")
        _require_bounded((base, k))
        return base ** k

    def term(depth: int) -> Poly:
        out = factor(depth)
        while tokens[-1] == "*":
            tokens.pop()
            nxt = factor(depth)
            _require_bounded((out, 1), (nxt, 1))
            out = out * nxt
        return out

    def expr(depth: int) -> Poly:
        out = Poly.zero()
        sign = tokens.pop() if tokens[-1] in ("+", "-") else "+"
        while True:
            out = out + term(depth) if sign == "+" else out - term(depth)
            if tokens[-1] not in ("+", "-"):
                return out
            sign = tokens.pop()

    out = expr(0)
    if tokens[-1]:
        raise ValueError(f"trailing polynomial input near {tokens[-1]!r}")
    return out
