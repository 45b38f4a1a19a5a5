"""Seeded equality queries with answers known without the oracle.

Terms are kept in the benchmark's own representation, independent of the
program: a leaf is ``(name, exp)``, a product node is ``(left, right)`` and the
unit is ``None``.  A linear combination is a dict from term (or ``None``) to
``Fraction``.

* Known-equal query: ``base + e`` against ``base``, where ``e`` is a rational
  combination of Hom-associator instances on windowed arguments, each maybe
  twisted by a power of alpha and multiplied on the left or right by a windowed
  term.  The saturated window contains every such element by construction.
* Known-unequal query: ``base + e + c*t`` against ``base`` with ``c != 0`` and
  ``t`` a single tree.  In the associative, commutative carrier with alpha = id
  (a model of both quotients) ``e`` vanishes and ``t`` maps to a nonzero
  monomial, so no sound oracle can prove the two sides equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

COEFFS = tuple(Fraction(n, d) for n in (1, -1, 2, -2, 3, -3) for d in (1, 2, 3))


# -- terms --------------------------------------------------------------------

def is_leaf(t) -> bool:
    return isinstance(t[0], str)


def arity(t) -> int:
    return 1 if is_leaf(t) else arity(t[0]) + arity(t[1])


def max_exp(t) -> int:
    return t[1] if is_leaf(t) else max(max_exp(t[0]), max_exp(t[1]))


def min_exp(t) -> int:
    return t[1] if is_leaf(t) else min(min_exp(t[0]), min_exp(t[1]))


def shift(t, k: int):
    if is_leaf(t):
        return (t[0], t[1] + k)
    return (shift(t[0], k), shift(t[1], k))


def leaf_names(t) -> list[str]:
    return [t[0]] if is_leaf(t) else leaf_names(t[0]) + leaf_names(t[1])


def mul(u, v):
    """Product with the unit ``None`` as a strict identity."""
    if u is None:
        return v
    if v is None:
        return u
    return (u, v)


def alpha(u, k: int = 1):
    return None if u is None else shift(u, k)


def uarity(u) -> int:
    return 0 if u is None else arity(u)


def uexp(u) -> int:
    return 0 if u is None else max_exp(u)


def add_into(acc: dict, term, c: Fraction):
    s = acc.get(term, 0) + c
    if s:
        acc[term] = s
    else:
        acc.pop(term, None)


def random_term(rng: random.Random, gens, n: int, exp_cap: int):
    if n == 1:
        return (rng.choice(gens), rng.randint(0, exp_cap))
    k = rng.randint(1, n - 1)
    return (random_term(rng, gens, k, exp_cap), random_term(rng, gens, n - k, exp_cap))


# -- text ---------------------------------------------------------------------

def render_term(t, rng: random.Random | None = None) -> str:
    """Grammar text; with ``rng``, sometimes writes twists as ``(A k ...)``."""
    if rng is not None and rng.random() < 0.15:
        k = min_exp(t)
        if k:
            w = rng.randint(1, k)
            return f"(A {w} {render_term(shift(t, -w), rng)})"
    if is_leaf(t):
        return t[0] if t[1] == 0 else f"{t[0]}@{t[1]}"
    return f"({render_term(t[0], rng)} * {render_term(t[1], rng)})"


def render(comb: dict, rng: random.Random) -> str:
    """A combination as grammar text, parts in seeded order."""
    if not comb:
        return "0"
    items = list(comb.items())
    rng.shuffle(items)
    parts = []
    for t, c in items:
        if t is None:
            parts.append(str(c))
        elif c == 1:
            parts.append(render_term(t, rng))
        else:
            parts.append(f"{c} * {render_term(t, rng)}")
    return " + ".join(parts)


class _Reader:
    """Reader for the grammar subset the program prints and this module writes."""

    def __init__(self, text: str):
        self.s = text.replace("(", " ( ").replace(")", " ) ").split()
        self.i = 0

    def next(self) -> str:
        tok = self.s[self.i]
        self.i += 1
        return tok

    def term(self):
        tok = self.next()
        if tok != "(":
            name, _, exp = tok.partition("@")
            return (name, int(exp or 0))
        if self.s[self.i] == "A":
            self.i += 1
            w = int(self.next())
            t = shift(self.term(), w)
        else:
            left = self.term()
            if self.next() != "*":
                raise ValueError("expected '*'")
            t = (left, self.term())
        if self.next() != ")":
            raise ValueError("expected ')'")
        return t

    def comb(self) -> dict:
        out: dict = {}
        while True:
            tok = self.s[self.i]
            if tok == "(" or not _is_rational(tok):
                add_into(out, self.term(), Fraction(1))
            else:
                c = Fraction(self.next())
                if self.i < len(self.s) and self.s[self.i] == "*":
                    self.i += 1
                    add_into(out, self.term(), c)
                else:
                    add_into(out, None, c)
            if self.i == len(self.s):
                return out
            if self.next() != "+":
                raise ValueError("expected '+'")


def _is_rational(tok: str) -> bool:
    return tok.lstrip("-").replace("/", "", 1).isdigit()


def parse(text: str) -> dict:
    return _Reader(text).comb()


def commutative_image(comb: dict) -> dict:
    """Image in the associative, commutative carrier with alpha = id and
    distinct generators as variables: monomial (sorted names) -> coefficient."""
    out: dict = {}
    for t, c in comb.items():
        add_into(out, () if t is None else tuple(sorted(leaf_names(t))), c)
    return out


def difference(lhs: dict, rhs: dict) -> dict:
    out = dict(lhs)
    for t, c in rhs.items():
        add_into(out, t, -c)
    return out


# -- the generator ------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    gens: tuple
    max_arity: int
    max_exp: int
    unital: bool


@dataclass(frozen=True)
class Query:
    window: int          # index into the generator's window list
    equal: bool          # the known answer
    lhs: str
    rhs: str
    image: tuple         # expected commutative image of lhs - rhs, sorted items


class QueryGenerator:
    """Seeded stream of balanced query chunks over the given windows."""

    def __init__(self, windows: list[Window], seed: int):
        self.windows = windows
        self.rng = random.Random(seed)

    def chunk(self, per_cell: int) -> list[Query]:
        """``per_cell`` equal and unequal queries per window, shuffled."""
        out = [self.query(w, equal)
               for w in range(len(self.windows))
               for equal in (True, False)
               for _ in range(per_cell)]
        self.rng.shuffle(out)
        return out

    def query(self, w: int, equal: bool) -> Query:
        win = self.windows[w]
        rng = self.rng
        base: dict = {}
        for _ in range(rng.randint(1, 3)):
            t = random_term(rng, win.gens, rng.randint(1, win.max_arity), win.max_exp)
            add_into(base, t, rng.choice(COEFFS))
        lhs = dict(base)
        for _ in range(rng.randint(1, 2)):
            for t, c in self.relation(win).items():
                add_into(lhs, t, c)
        if not equal:
            t = random_term(rng, win.gens, rng.randint(1, win.max_arity), win.max_exp)
            add_into(lhs, t, rng.choice(COEFFS))
        image = commutative_image(difference(lhs, base))
        return Query(w, equal, render(lhs, rng), render(base, rng),
                     tuple(sorted(image.items())))

    def relation(self, win: Window) -> dict:
        """A scaled associator instance, twisted and multiplied to fit ``win``."""
        rng = self.rng
        n = win.max_arity
        while True:
            ar = [rng.randint(0 if win.unital else 1, n) for _ in range(3)]
            if 0 < sum(ar) <= n:
                break
        # u and w get twisted once, so their leaves stay below the cap
        caps = (win.max_exp - 1, win.max_exp, win.max_exp - 1)
        u, v, w = (None if a == 0 else random_term(rng, win.gens, a, cap)
                   for a, cap in zip(ar, caps))
        c = rng.choice(COEFFS)
        terms = [(mul(mul(u, v), alpha(w)), c), (mul(alpha(u), mul(v, w)), -c)]
        room = win.max_exp - max(uexp(t) for t, _ in terms)
        k = rng.randint(0, room)
        terms = [(alpha(t, k), c) for t, c in terms]
        free = n - max(uarity(t) for t, _ in terms)
        if free and rng.random() < 0.5:
            s = random_term(rng, win.gens, rng.randint(1, free), win.max_exp)
            on_left = rng.random() < 0.5
            terms = [(mul(s, t) if on_left else mul(t, s), c) for t, c in terms]
        out: dict = {}
        for t, c in terms:
            add_into(out, t, c)
        return out


def image_of_residue(text: str) -> tuple:
    """Commutative image of a printed residue, in ``Query.image`` form."""
    return tuple(sorted(commutative_image(parse(text)).items()))
