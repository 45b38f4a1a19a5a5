"""Exact polynomial arithmetic, substitution, parsing."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homalgebra import poly
from homalgebra.algebras import q_poly_algebra
from homalgebra.poly import (MAX_POLY_DEPTH, Poly, PolyEndo, _mono_mul, monomials_up_to,
                             parse_poly, random_poly)
from homalgebra.terms import MAX_POLY_SIZE, NAME, as_coeff, parse_natural, parse_rational

t = Poly.var("t")
x = Poly.var("x")
y = Poly.var("y")


def test_ring_basics():
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * (x * y) + y * y
    assert Poly.one() * x == x
    assert Poly.zero() + x == x
    assert Fraction(1, 2) * (2 * x) == x
    assert (x - x).is_zero()


def test_substitution_is_morphism():
    rng = random.Random(41)
    phi = PolyEndo({"x": x + y, "y": 2 * y})
    for _ in range(20):
        p = random_poly(rng, ["x", "y"])
        q = random_poly(rng, ["x", "y"])
        assert phi(p * q) == phi(p) * phi(q)
        assert phi(p + q) == phi(p) + phi(q)
    assert phi(Poly.one()) == Poly.one()


def test_endo_identity():
    assert PolyEndo({"t": t}).is_identity_on(["t"])
    assert not PolyEndo({"t": 2 * t}).is_identity_on(["t"])
    # a name without an image is fixed
    assert PolyEndo({"s": 2 * t}).is_identity_on(["t", "x"])
    assert not PolyEndo({"s": 2 * t}).is_identity_on(["t", "s"])
    assert PolyEndo({"t": 2 * t})(x * t) == 2 * x * t


def _reference_random_poly(rng, names, degree=2, terms=3):
    """``random_poly`` as it draws on a nonempty name list."""
    names = sorted(names)
    out = Poly.zero()
    for _ in range(terms):
        c = rng.randint(-2, 2)
        if not c:
            continue
        m = ()
        for _ in range(rng.randint(0, degree)):
            m = _mono_mul(m, ((rng.choice(names), 1),))
        out = out + Poly.monomial(m, c)
    return out


def test_random_poly_on_no_names_is_a_constant():
    # the same draws and the same polynomials on nonempty name lists, so
    # sampled reports keep their bytes
    for names in (["x"], ["y", "x"], ["a", "b", "c"]):
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_poly(rng, names, 3, 4) == _reference_random_poly(ref, names, 3, 4)
            assert rng.getstate() == ref.getstate()
    rng = random.Random(5)
    constants = [random_poly(rng, []) for _ in range(50)]
    assert all(set(p.coeffs) <= {()} for p in constants)
    assert any(not p.is_zero() for p in constants)


def test_the_carrier_on_no_variables_samples():
    from homalgebra.algebras import check_hom_associative, poly_algebra, yau_twist_algebra
    assert check_hom_associative(poly_algebra([]), 10).passed
    assert check_hom_associative(yau_twist_algebra([], PolyEndo({})), 10).passed


def test_monomials_up_to():
    ms = monomials_up_to(["x", "y"], 2)
    assert len(ms) == 6
    assert ms[0] == Poly.one()
    assert {repr(m) for m in ms} == {"1", "x", "y", "x^2", "x*y", "y^2"}


def test_hashable_and_exact():
    assert hash(x + y) == hash(y + x)
    assert x + y == y + x
    d = {x * x: 1}
    assert d[x ** 2] == 1


def test_parse_poly():
    assert parse_poly("3/2*x^2*y + t - 1") == \
        Fraction(3, 2) * (x * x * y) + t - Poly.one()
    assert parse_poly("-x + 2") == 2 * Poly.one() - x
    assert parse_poly("(x + y)^2") == (x + y) ** 2
    with pytest.raises(ValueError):
        parse_poly("x +")
    with pytest.raises(ValueError):
        parse_poly("q*x", allowed={"x"})


def test_repr_roundtrip():
    rng = random.Random(42)
    for _ in range(25):
        p = random_poly(rng, ["x", "y"], degree=3, terms=4)
        assert parse_poly(repr(p)) == p


def assert_exact(p: Poly):
    for c in p.coeffs.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_coefficients_are_int_until_a_denominator_appears():
    half = Fraction(1, 2) * x
    for p in (half + half, 2 * half, half * (2 * y), (x + half) ** 2 - x * x,
              parse_poly("4/2*x + 3/2*y - 1"), Poly.const(Fraction(6, 3)),
              PolyEndo({"x": half})(x * y + 2 * x)):
        assert_exact(p)
    assert type((half + half).coeffs[(("x", 1),)]) is int
    assert type(parse_poly("4/2*x").coeffs[(("x", 1),)]) is int
    with pytest.raises(TypeError):
        Poly.const(0.5)


def test_q_poly_half_round_trip_is_exact():
    A = q_poly_algebra(Fraction(1, 2))
    back = PolyEndo({"t": 2 * t})
    rng = random.Random(43)
    for _ in range(10):
        p, q = A.rand(rng), A.rand(rng)
        twisted = A.alpha_pow(p, 3)
        assert twisted == p.substitute({"t": Fraction(1, 8) * t})
        for r in (twisted, A.mul(p, q), A.mul(A.alpha(p), A.alpha(q))):
            assert_exact(r)
            assert parse_poly(repr(r)) == r
        assert back(back(back(twisted))) == p
        assert back(A.mul(p, q)) == p * q


def test_parse_poly_nesting_guard():
    from homalgebra.poly import MAX_POLY_DEPTH
    depth = MAX_POLY_DEPTH
    assert parse_poly("(" * depth + "2*t" + ")" * depth) == 2 * t
    with pytest.raises(ValueError, match="nested deeper"):
        parse_poly("(" * (depth + 1) + "2*t" + ")" * (depth + 1))
    with pytest.raises(ValueError, match="nested deeper"):
        parse_poly("- " * 5000 + "t")


@pytest.mark.parametrize("text", ["t^100000000", "((1+t)^50)^50", "t^600 * t^600",
                                  f"2^{MAX_POLY_SIZE + 1}", "(x+y+z)^40"])
def test_parse_poly_refuses_oversized_powers_and_products(text):
    # refused before the expansion starts, so each case returns at once
    with pytest.raises(ValueError, match="bound"):
        parse_poly(text)


def test_parse_poly_size_bound_admits_moderate_input():
    assert parse_poly("(1+t)^50") == (Poly.one() + t) ** 50
    assert len(parse_poly("(1+t)^50").coeffs) == 51
    assert parse_poly(f"t^{MAX_POLY_SIZE}") == Poly.monomial((("t", MAX_POLY_SIZE),))
    assert parse_poly("(x+y)^10 * (x-y)") == (x + y) ** 10 * (x - y)
    # every descriptor polynomial of the fixtures and the docs still parses
    for text in ("2*t", "1/2*c", "a*x + b*y", "1/3*c*x + 1/3*d*y", "3/2*x^2*y + t - 1",
                 "a'*a'' + b'*c''", "e1 + e2"):
        parse_poly(text)


def fraction_reading(text: str):
    """A coefficient literal read by ``Fraction`` alone, under the size
    refusals of ``parse_rational``: the reference for its ``int`` paths."""
    shown = text[:20] + "..." * (len(text) > 20)
    if len(text) > MAX_POLY_SIZE:
        raise ValueError(f"coefficient {shown}: above the size bound of "
                         f"{MAX_POLY_SIZE} characters and exponent {2 * MAX_POLY_SIZE}")
    try:
        value = Fraction(text)
    except ValueError as exc:
        raise ValueError(f"coefficient: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"coefficient {shown}: zero denominator") from None
    if max(abs(value.numerator), value.denominator).bit_length() > MAX_POLY_SIZE:
        raise ValueError(f"coefficient {shown}: above the size bound of {MAX_POLY_SIZE} bits")
    return as_coeff(value)


def reading(read, text: str):
    try:
        value = read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return type(value), value


@pytest.mark.parametrize("text", [
    "3/6", "-4/2", "0/5", "-0/5", "007/010", "1/0", "5/00", "12/1", "-7/1", "3", "-12",
    "0" * (MAX_POLY_SIZE - 3) + "3/6",        # at the length bound
    "0" * (MAX_POLY_SIZE - 2) + "3/6",        # one character past it
    "1/" + "7" * (MAX_POLY_SIZE - 2),         # at the length bound, past the bit bound
    "9" * MAX_POLY_SIZE, "9" * (MAX_POLY_SIZE + 1),
    "4/-2", "+3/6", "1.5", "2e3",
])
def test_parse_rational_agrees_with_the_fraction_reading(text):
    assert reading(lambda s: parse_rational(s, "coefficient"), text) == \
        reading(fraction_reading, text)


def test_parse_natural_refuses_a_literal_by_its_length():
    assert parse_natural("9" * MAX_POLY_SIZE, "power") == 10 ** MAX_POLY_SIZE - 1
    with pytest.raises(ValueError, match="power 99999.*above the size bound of 1000 digits"):
        parse_natural("9" * (MAX_POLY_SIZE + 1), "power")


# -- arithmetic against a slow reference -------------------------------------
#
# The reference multiplies monomials by building a dict and sorting it, and
# substitutes by building a polynomial per monomial and per factor; every
# result goes through the cleaning constructor.

def ref_mono_mul(m1, m2):
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def ref_add(p, q):
    return Poly({m: p.coeffs.get(m, 0) + q.coeffs.get(m, 0)
                 for m in set(p.coeffs) | set(q.coeffs)})


def ref_scale(c, p):
    return Poly({m: c * v for m, v in p.coeffs.items()})


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            m = ref_mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return Poly(out)


def ref_substitute(p, images):
    out = Poly.zero()
    for m, c in p.coeffs.items():
        part = Poly.const(c)
        for v, e in m:
            for _ in range(e):
                part = ref_mul(part, images.get(v, Poly.var(v)))
        out = ref_add(out, part)
    return out


def assert_clean(p: Poly):
    """The exactness contract: no zero, no float, no denominator-1 Fraction,
    and every monomial sorted by variable with positive exponents."""
    assert_exact(p)
    for m, c in p.coeffs.items():
        assert c != 0
        assert list(m) == sorted(m) and len({v for v, _ in m}) == len(m)
        assert all(type(e) is int and e > 0 for _, e in m)


# ints, and Fractions of small denominators, some of which cancel to integers
coeffs = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
monos = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 3)), max_size=3).map(
    lambda factors: tuple(sorted(dict(factors).items())))
polys = st.dictionaries(monos, coeffs, max_size=5).map(Poly)
small_polys = st.dictionaries(monos, coeffs, max_size=3).map(Poly)
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True)


@EXAMPLES
@given(polys, polys, coeffs)
def test_arithmetic_matches_the_reference(p, q, c):
    for got, want in ((p + q, ref_add(p, q)),
                      (p - q, ref_add(p, ref_scale(-1, q))),
                      (p * q, ref_mul(p, q)),
                      (c * p, ref_scale(c, p)),
                      (-p, ref_scale(-1, p))):
        assert got == want
        assert_clean(got)


@EXAMPLES
@given(polys, st.dictionaries(st.sampled_from("xyz"), small_polys))
def test_substitute_matches_the_reference(p, images):
    got = p.substitute(images)
    assert got == ref_substitute(p, images)
    assert_clean(got)


def test_monomial_product_cache_is_bounded_and_canonical():
    assert _mono_mul.cache_info().maxsize is not None
    ((x + 2 * y) ** 3 * (t - y) ** 2).substitute({"t": x * y})
    for m1 in monomials_up_to(["t", "x", "y"], 3):
        for m2 in monomials_up_to(["x", "y", "z"], 2):
            (a,), (b,) = m1.coeffs, m2.coeffs
            got = _mono_mul(a, b)
            assert got == ref_mono_mul(a, b)
            assert list(got) == sorted(got) and all(e > 0 for _, e in got)
    assert 0 < _mono_mul.cache_info().currsize <= _mono_mul.cache_info().maxsize


# -- the image table of PolyEndo ---------------------------------------------

z = Poly.var("z")
half, third = Fraction(1, 2), Fraction(1, 3)
# one endomorphism of each kind, kept across the whole draw: its table fills
# on the first examples and serves the later ones
KEPT = [
    PolyEndo({"x": 2 * x, "y": -third * y}),                      # scalings
    PolyEndo({"x": y, "y": z, "z": x}),                           # a rename
    PolyEndo({"x": x + y, "y": half * (x * y) - Poly.one()}),     # non-monomial
    # fractional images whose sums cancel: x*y -> x^2 - y^2, x - z -> 0
    PolyEndo({"x": half * x + half * y, "y": 2 * x - 2 * y, "z": half * x + half * y}),
]


def image_of(v):
    return st.one_of(coeffs.map(lambda c: c * Poly.var(v)),
                     st.sampled_from("xyz").map(Poly.var),
                     small_polys)


endos = st.one_of(st.sampled_from(KEPT), st.fixed_dictionaries(
    {}, optional={v: image_of(v) for v in "xyz"}).map(PolyEndo))


@EXAMPLES
@given(endos, st.lists(polys, min_size=1, max_size=4))
def test_image_table_matches_the_reference(phi, ps):
    for p in ps + ps:
        got = phi(p)
        assert got == ref_substitute(p, phi.images) == p.substitute(phi.images)
        assert_clean(got)
    assert phi._stored == sum(map(len, phi._table.values())) <= poly.IMAGE_TABLE_TERMS


def test_a_miss_is_built_from_its_longest_stored_prefix(monkeypatch):
    s = Poly.var("s")
    monos = [t ** k for k in range(1, 8)] + [s * t, s * t ** 3]
    products = []
    product = poly._product
    monkeypatch.setattr(poly, "_product", lambda a, b: products.append(1) or product(a, b))
    phi = PolyEndo({"t": Poly.const(third) + 2 * t, "s": s - t})
    # t^5 from the empty monomial: one product per power, each image kept
    assert phi(monos[4]) == ref_substitute(monos[4], phi.images) and len(products) == 5
    for k in (5, 6):
        products.clear()
        assert phi(monos[k]) == ref_substitute(monos[k], phi.images) and len(products) == 1
    # s t^3 from s t, then s t itself found
    for p, built in ((monos[7], 2), (monos[8], 2), (monos[7], 0)):
        products.clear()
        assert phi(p) == ref_substitute(p, phi.images) and len(products) == built


def test_image_table_stops_at_its_bound(monkeypatch):
    # the image of x^k has k + 1 terms: 1, x, x^2 and x^3 fill 10 exactly
    monkeypatch.setattr(poly, "IMAGE_TABLE_TERMS", 10)
    images = {"x": x + y}
    phi = PolyEndo(images)
    ps = [third * x ** k - x ** (k + 1) for k in range(8)]
    first = [phi(p) for p in ps]
    assert phi._stored == 10 and len(phi._table) == 4
    again = [phi(p) for p in reversed(ps)][::-1]
    assert phi._stored == 10 and len(phi._table) == 4
    assert first == again == [ref_substitute(p, images) for p in ps]


def test_endomorphism_images_are_read_only():
    images = {"x": 2 * x}
    phi = PolyEndo(images)
    with pytest.raises(TypeError):
        phi.images["x"] = y
    with pytest.raises(AttributeError):
        phi.images = {"x": y}
    images["x"] = y
    assert phi(x * x) == 4 * (x * x) and phi.images == {"x": 2 * x}


# -- the reader against the recursive-descent reference ----------------------
#
# The reference is the reader as it was written with named-group tokens, a
# mutable state and peek/advance closures; the reader must give the same
# polynomial, or the same exception and message, on every text.

REF_POLY_TOKEN = re.compile(
    rf"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>{NAME.pattern})|(?P<sym>[-+*^()]))")


def reference_parse_poly(text: str, allowed=None, offset: int = 0) -> Poly:
    tokens = []
    pos = 0
    while pos < len(text):
        m = REF_POLY_TOKEN.match(text, pos)
        if not m:
            bad = len(text) - len(text[pos:].lstrip())
            if bad < len(text):
                raise ValueError(f"bad polynomial syntax: unexpected character {text[bad]!r}"
                                 f" at column {offset + bad + 1} of {text!r}")
            break
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", ""))

    state = {"i": 0, "depth": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        tok = tokens[state["i"]]
        state["i"] += 1
        return tok

    def nested(parse) -> Poly:
        if state["depth"] == MAX_POLY_DEPTH:
            raise ValueError(f"polynomial nested deeper than {MAX_POLY_DEPTH} levels")
        state["depth"] += 1
        out = parse()
        state["depth"] -= 1
        return out

    def atom() -> Poly:
        kind, value = peek()
        if (kind, value) == ("sym", "-"):
            advance()
            return -nested(atom)
        if kind == "num":
            advance()
            return Poly.const(parse_rational(value, "number"))
        if kind == "name":
            advance()
            if allowed is not None and value not in allowed:
                raise ValueError(f"unknown variable {value!r}")
            return Poly.var(value)
        if (kind, value) == ("sym", "("):
            advance()
            e = nested(expr)
            if peek() != ("sym", ")"):
                raise ValueError("missing ')'")
            advance()
            return e
        raise ValueError(f"bad polynomial syntax near {value!r}")

    def factor() -> Poly:
        base = atom()
        if peek() == ("sym", "^"):
            advance()
            kind, value = advance()
            if kind != "num" or "/" in value:
                raise ValueError("power must be a nonnegative integer")
            k = parse_natural(value, "power")
            poly._require_bounded((base, k))
            return base ** k
        return base

    def term() -> Poly:
        out = factor()
        while peek() == ("sym", "*"):
            advance()
            nxt = factor()
            poly._require_bounded((out, 1), (nxt, 1))
            out = out * nxt
        return out

    def expr() -> Poly:
        sign = 1
        if peek() == ("sym", "-"):
            advance()
            sign = -1
        elif peek() == ("sym", "+"):
            advance()
        out = sign * term()
        while peek()[0] == "sym" and peek()[1] in "+-":
            _, op = advance()
            nxt = term()
            out = out + (nxt if op == "+" else -nxt)
        return out

    result = expr()
    if peek()[0] != "eof":
        raise ValueError(f"trailing polynomial input near {peek()[1]!r}")
    return result


def parse_outcome(read, text, allowed, offset):
    """The terms that ``read`` gives, in order and with their coefficients'
    types, or its exception."""
    try:
        return [(m, type(c), c) for m, c in read(text, allowed, offset).coeffs.items()]
    except ValueError as exc:
        return type(exc), str(exc)


def nest(depth: int, inner: str) -> str:
    return "(" * depth + inner + ")" * depth


# characters and words, strung together at random or as sums of well-formed
# summands with a stray piece maybe put in
POLY_PIECES = st.sampled_from(
    list("0123456789/+-*^()'@.#=\t\n ") + ["é", "٢", "x", "y", "t", "q", "x1",
                                           "_a", "a'", "12", "3/4", "1/0", " + ", " * "])
SUMMANDS = st.sampled_from(["x", "2*y", "(x + 1)", "t^2", "-t", "3/4*x*y", "(x - y)^2",
                            "-(t*-t)", "y^0", "1/2"])


@st.composite
def poly_texts(draw):
    if draw(st.booleans()):
        return "".join(draw(st.lists(POLY_PIECES, max_size=24)))
    ops = st.sampled_from([" + ", " - ", "*", "+-", " "])
    text = draw(SUMMANDS)
    for summand in draw(st.lists(SUMMANDS, max_size=4)):
        text += draw(ops) + summand
    pos = draw(st.integers(0, len(text)))
    return text[:pos] + draw(st.one_of(st.just(""), POLY_PIECES)) + text[pos:]


@settings(max_examples=800, deadline=None, derandomize=True)
@given(poly_texts(),
       st.sampled_from([None, {"x", "y"}, {"t"}]), st.integers(0, 5))
@example(nest(99, "t"), None, 0)
@example(nest(100, "t"), None, 0)
@example(nest(101, "t"), None, 0)
@example("-" * 99 + "t", None, 0)
@example("-" * 100 + "t", None, 0)
@example("-" * 101 + "t", None, 0)
@example("- " * 150 + "t", None, 0)
@example(nest(99, "-" * 2 + "t"), None, 0)
@example(nest(50, "-" * 50 + "t"), {"t"}, 3)
@example(nest(50, "-" * 51 + "t"), {"t"}, 3)
@example("x^", None, 0)
@example("x^-1", None, 0)
@example("x^1/2", None, 0)
@example("2 3", None, 0)
@example("--x", None, 0)
@example("x*-y^2", {"x", "y"}, 0)
@example("٢*t", {"t"}, 4)
@example("  \t", None, 2)
@example("", None, 0)
def test_parse_poly_matches_reference(text, allowed, offset):
    assert parse_outcome(parse_poly, text, allowed, offset) == \
        parse_outcome(reference_parse_poly, text, allowed, offset)


# -- the monomial sweep against the breadth-first reference ------------------

def reference_monomials_up_to(names, degree: int) -> list[Poly]:
    names = sorted(names)
    level = [()]
    out = [()]
    for _ in range(degree):
        nxt = []
        for m in level:
            for v in names:
                mm = _mono_mul(m, ((v, 1),))
                nxt.append(mm)
        seen = set(out)
        level = []
        for m in nxt:
            if m not in seen:
                seen.add(m)
                level.append(m)
        out.extend(level)
    return [Poly.monomial(m) for m in out]


@pytest.mark.parametrize("names", [
    [], ["t"], ["y", "x"], ["x", "x"], ["a''", "a'", "a"], ["u", "v", "u", "w"],
    ["x", "y", "z", "t", "s"], ["d", "c", "b", "a", "b'", "a'"]])
@pytest.mark.parametrize("degree", range(5))
def test_monomial_sweep_matches_reference(names, degree):
    assert monomials_up_to(names, degree) == reference_monomials_up_to(names, degree)
