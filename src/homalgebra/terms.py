"""Exact term algebra for the free unital multiplicative Hom-nonassociative world.

Elements are rational linear combinations of planar binary product trees whose
leaves carry a generator name and a nonnegative twist exponent.  The twist map
is kept in multiplicativity normal form: it never appears as an explicit node,
it only increments leaf exponents.

Everything is immutable and exact: a coefficient is an ``int`` while it is
integral and a ``fractions.Fraction`` otherwise, never a float (``as_coeff``).
All operations are pure functions.

Every command runs this module, so it also holds what every layer shares:
the readers of number literals (``parse_rational``, ``parse_natural``) and of
descriptor files (``read_descriptor``), the input error base class and the
plain ``Record`` base of the package's records.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Coeff = Union[int, Fraction]

# A generator name: letters, digits and underscores, then any number of
# apostrophes (the tensor-leg tags).  The term and polynomial grammars read
# names with this pattern and tell a name token by its first character, one of
# ``NAME_START``; descriptor files and windows check names with the pattern.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")
NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")


def as_coeff(c) -> Coeff:
    """The exact coefficient ``c``: an ``int`` when integral, else a ``Fraction``.

    Ints and Fractions compare, hash and print alike, so normalizing changes
    no answer; it only keeps integral arithmetic off the ``Fraction`` path.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational: {c!r}")


class InputError(Exception):
    """An input the program refuses.  The command line prints it after its
    ``prefix`` and exits 2; the subclasses live beside what they check."""
    prefix = "error"


# ---------------------------------------------------------------------------
# number literals
# ---------------------------------------------------------------------------

# cap on the size of what a line of input may ask for: a literal of more
# characters, digits or bits is refused before it is read, and ``poly`` refuses
# a power or product whose exponent, degree, term count or coefficient bits
# would pass it before the expansion starts
MAX_POLY_SIZE = 1000

# an integer, or a ratio of an integer to digits
_INTEGER_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def parse_rational(text: str, name: str) -> Coeff:
    """The exact rational written ``text`` (``3``, ``5/2``, ``0.5``, ``1e-3``)
    as a coefficient (see ``as_coeff``), refused if its numerator or
    denominator passes ``MAX_POLY_SIZE`` bits.

    ``Fraction`` builds ``10 ** exponent`` eagerly, so the exponent is checked
    first: beside at most ``MAX_POLY_SIZE`` characters, one above twice that
    leaves more than ``MAX_POLY_SIZE`` digits in the numerator or denominator.
    An integer, or a ratio of integers with a nonzero denominator, is read by
    ``int`` (and one exact division), several times faster than ``Fraction``'s
    regular expression; a zero denominator is refused, naming the literal.
    """
    parts = _INTEGER_RATIO.fullmatch(text) if len(text) <= MAX_POLY_SIZE else None
    if parts:
        num, den = parts.groups()
        value = int(num) if den is None else Fraction(int(num), int(den))
    else:
        _, e, exponent = text.lower().partition("e")
        try:
            shift = int(exponent) if e and len(text) <= MAX_POLY_SIZE else 0
        except ValueError:
            shift = 0  # not an exponent: Fraction reports the bad literal
        if len(text) > MAX_POLY_SIZE or abs(shift) > 2 * MAX_POLY_SIZE:
            raise _refused(text, name, f"above the size bound of {MAX_POLY_SIZE} characters"
                                       f" and exponent {2 * MAX_POLY_SIZE}")
        try:
            # ``Fraction`` also reads other scripts' digits; a literal is 0-9
            if not text.isascii():
                raise ValueError(f"Invalid literal for Fraction: {text!r}")
            value = Fraction(text)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        except ZeroDivisionError:
            raise _refused(text, name, "zero denominator") from None
    if max(abs(value.numerator), value.denominator).bit_length() > MAX_POLY_SIZE:
        raise _refused(text, name, f"above the size bound of {MAX_POLY_SIZE} bits")
    return as_coeff(value)


def parse_natural(text: str, name: str) -> int:
    """The natural number written in the digits ``text``.

    A literal of more than ``MAX_POLY_SIZE`` digits passes every bound here, so
    it is refused by its length, before ``int`` reads it (``int`` itself stops
    at 4,300 digits, with a message that names no token).
    """
    if len(text) > MAX_POLY_SIZE:
        raise _refused(text, name, f"above the size bound of {MAX_POLY_SIZE} digits")
    return int(text)


def _refused(text: str, name: str, why: str) -> ValueError:
    shown = text[:20] + "..." * (len(text) > 20)
    return ValueError(f"{name} {shown}: {why}")


# ---------------------------------------------------------------------------
# descriptor files
# ---------------------------------------------------------------------------

def read_names(rest: str, legs: bool = False) -> tuple[str, ...]:
    """The words of a ``vars``, ``gens`` or ``names`` line, at least one, each
    a ``NAME`` given once.  With ``legs``, a name that is also another name's
    tensor leg is refused: the laws tag each generator g into the legs g', g''
    and g'''."""
    names = tuple(rest.split())
    if not names:
        raise ValueError("expected at least one name")
    for k, n in enumerate(names):
        if not NAME.fullmatch(n):
            raise ValueError(f"name {n!r} must match {NAME.pattern}")
        if n in names[:k]:
            raise ValueError(f"name {n!r} given twice")
    owner = {}
    for g in names if legs else ():
        for leg in (g + "'", g + "''", g + "'''"):
            if owner.setdefault(leg, g) != g:
                raise ValueError(f"leg {leg!r} of {g!r} is also a leg of {owner[leg]!r}")
    return names


def read_descriptor(data: bytes | str, form: dict) -> tuple[dict, dict]:
    """What the descriptor file ``data`` (its bytes, read as UTF-8 whatever
    the locale, or its text) gives for each head of ``form``, and the numbers
    of the lines that give it.

    One leading byte order mark is dropped.  A line ends at ``\\n``,
    ``\\r\\n`` or ``\\r``, ``#`` starts a comment, and a line's first word
    is its head.  ``form`` maps a head given once to
    ``read(rest)``, its value from the rest of its line, and the head of
    lines ``HEAD KEY = IMAGE`` to ``(width, names, parse)``: a key is
    ``width`` words from ``names`` (a tuple, or the head of a line above that
    lists them), given once in either order, and its value is ``parse(key,
    image, (line number, image's offset in it), names)``.  A keyed head gives
    a dict from its keys (a word, or a tuple of words as written) to their
    values, and its line numbers have that shape.  A refusal names its line:
    ``line N: ...`` for the line's form, ``... (line N)`` for its image; an
    ``InputError`` keeps its own place.
    """
    got = {head: {} for head, how in form.items() if type(how) is tuple}
    lines = {head: {} for head in got}
    seen = set()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    for number, raw in enumerate(data.removeprefix(b"\xef\xbb\xbf").splitlines(), 1):
        place = "line {}: {}"
        try:
            text = raw.decode().split("#", 1)[0]
            words = text.split(None, 1)
            if not words:
                continue
            head = words[0]
            if head not in form:
                raise ValueError(f"unknown directive {head!r}")
            if type(form[head]) is not tuple:
                if head in got:
                    raise ValueError(f"second {head} line")
                got[head] = form[head](words[1].rstrip() if len(words) > 1 else "")
                lines[head] = number
                continue
            width, names, parse = form[head]
            if type(names) is str:
                if names not in got:
                    raise ValueError(f"{names} must come before {head}")
                names = got[names]
            before, eq, image = text.partition("=")
            key = before.split()[1:]
            if not eq or len(key) != width:
                raise ValueError(f"expected {head} {' '.join(['NAME'] * width)} = IMAGE")
            for word in key:
                if word not in names:
                    raise ValueError(f"{head} of unknown name {word!r}")
            if (head, *sorted(key)) in seen:
                raise ValueError(f"second {head} of {' and '.join(key)}")
            seen.add((head, *sorted(key)))
            key = key[0] if width == 1 else tuple(key)
            place = "{1} (line {0})"  # from here on, the image is at fault
            got[head][key] = parse(key, image.strip(),
                                   (number, len(text) - len(image.lstrip())), names)
            lines[head][key] = number
        except InputError:
            raise
        except ValueError as exc:  # a UnicodeDecodeError too
            raise ValueError(place.format(number, exc)) from None
    return got, lines


# ---------------------------------------------------------------------------
# immutability and records
# ---------------------------------------------------------------------------

class _Frozen:
    """Slotted and immutable: ``__init__`` sets the fields (with
    ``object.__setattr__`` or the slots' own setters), nothing else can."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """A plain record: its ``__slots__`` are its fields, in order, and give
    its ``repr`` and its ``==``, as a dataclass's would; like a mutable
    dataclass it is unhashable.  A class costs no ``dataclasses`` import and
    no generated methods."""
    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record, _Frozen):
    """A ``Record`` that refuses assignment and hashes by its fields, as a
    frozen dataclass does."""
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


# ---------------------------------------------------------------------------
# normalized terms
# ---------------------------------------------------------------------------

# A term computes its hash once, when it is built: the hash of its fields'
# tuple, so a node reads its children's stored hashes and no dict lookup walks
# a subtree.  Equality checks identity, then the stored hashes, then the fields
# (a node's children on an explicit stack).

class Leaf(_Frozen):
    """A generator occurrence ``name`` with twist exponent ``exp``."""
    __slots__ = ("name", "exp", "_hash")

    def __init__(self, name: str, exp: int = 0):
        if not name:
            raise ValueError("leaf needs a generator name")
        if exp < 0:
            raise ValueError(f"leaf exponent must be >= 0, got {exp}")
        _set_name(self, name)
        _set_exp(self, exp)
        _set_leaf_hash(self, hash((name, exp)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Leaf:
            return NotImplemented
        return (self._hash == other._hash and self.name == other.name
                and self.exp == other.exp)

    def __repr__(self):
        return f"Leaf(name={self.name!r}, exp={self.exp!r})"

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Leaf, (self.name, self.exp)


class Node(_Frozen):
    """A planar product node: left subtree times right subtree.

    The children may be any hashable values (a test nests its own tree type).
    """
    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: "Term", right: "Term"):
        _set_left(self, left)
        _set_right(self, right)
        _set_node_hash(self, hash((left, right)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Node:
            return NotImplemented
        if self._hash != other._hash:
            return False
        # equal-hash node pairs on an explicit stack, so that deep spines
        # compare without recursion
        stack = [(self, other)]
        while stack:
            u, v = stack.pop()
            for x, y in ((u.left, v.left), (u.right, v.right)):
                if x is y:
                    continue
                if x.__class__ is Node and y.__class__ is Node:
                    if x._hash != y._hash:
                        return False
                    stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __repr__(self):
        return f"Node(left={self.left!r}, right={self.right!r})"

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Node, (self.left, self.right)


# the slot setters, which bypass the immutability guard while a term is built
_set_name, _set_exp, _set_leaf_hash = (Leaf.__dict__[f].__set__ for f in Leaf.__slots__)
_set_left, _set_right, _set_node_hash = (Node.__dict__[f].__set__ for f in Node.__slots__)


Term = Union[Leaf, Node]


def arity(t: Term) -> int:
    """Number of leaves of a term."""
    return 1 if isinstance(t, Leaf) else sum(1 for _ in leaves(t))


def weight(t: Term) -> int:
    """Sum of the leaf exponents of a term."""
    return t.exp if isinstance(t, Leaf) else sum(lf.exp for lf in leaves(t))


def leaves(t: Term) -> Iterator[Leaf]:
    """Left-to-right leaf sequence, on an explicit stack (no recursion)."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            yield t
        else:
            stack += (t.right, t.left)


def map_leaves(t: Term, f) -> Term:
    """``t`` with each leaf ``lf`` replaced by ``f(lf)``, rebuilt bottom-up on
    an explicit stack (no recursion); a node of two leaves is rebuilt at once."""
    if isinstance(t, Leaf):
        return f(t)
    built, stack = [], [t]
    while stack:
        t = stack.pop()
        if t is None:  # both children of a node are built
            built[-2:] = [Node(*built[-2:])]
        elif isinstance(t, Leaf):
            built.append(f(t))
        elif isinstance(t.left, Leaf) and isinstance(t.right, Leaf):
            built.append(Node(f(t.left), f(t.right)))
        else:
            stack += (None, t.right, t.left)
    return built[0]


def sort_key(t: Term):
    """Total, stable order: arity, then shape (leaf-depth sequence), then leaves.

    The leaf-depth sequence determines a planar binary tree uniquely, so the
    key is injective on terms.  Small terms sort (and print) first.  The
    leaves are read left to right in one pass, on an explicit stack, so that
    deep spines sort without recursion.
    """
    depths, labels = [], []
    stack = [(t, 0)]
    while stack:
        t, d = stack.pop()
        if isinstance(t, Leaf):
            depths.append(d)
            labels.append((t.name, t.exp))
        else:
            stack += ((t.right, d + 1), (t.left, d + 1))
    return len(depths), tuple(depths), tuple(labels)


def shift_term(t: Term, k: int) -> Term:
    """Raise every leaf exponent by ``k`` (the normal-form twist action)."""
    return t if k == 0 else map_leaves(t, lambda lf: Leaf(lf.name, lf.exp + k))


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

def add_into(out: dict, vec: Mapping, c: Coeff = 1) -> dict:
    """``out + c * vec`` in place, returning ``out``: each entry normalized as it is
    made (``as_coeff``), each zero sum deleted.  ``vec``'s entries and ``c`` are nonzero."""
    for k, v in vec.items():
        if c != 1:
            v *= c
        s = out.get(k)
        v = v if s is None else s + v
        if v:
            out[k] = v if type(v) is int else as_coeff(v)
        else:
            del out[k]
    return out


class LinComb:
    """A finite rational combination of terms plus a unit component.

    ``unit`` is the coefficient of the adjoined unit 1; ``terms`` maps Term to
    a nonzero coefficient (see ``as_coeff``).  Instances are treated as
    immutable: operations return fresh objects and never mutate their inputs.
    """

    __slots__ = ("unit", "terms")

    def __init__(self, unit=0, terms: Mapping[Term, Coeff] | None = None):
        object.__setattr__(self, "unit", as_coeff(unit))
        cleaned = {}
        if terms:  # a caller's input, not add_into: drop zeros, refuse floats
            for t, c in terms.items():
                if type(c) is not int:
                    c = as_coeff(c)
                if c:
                    cleaned[t] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):
        raise AttributeError("LinComb is immutable")

    # -- basic structure ----------------------------------------------------

    @staticmethod
    def zero() -> "LinComb":
        return LinComb(0, {})

    @staticmethod
    def one() -> "LinComb":
        return LinComb(1, {})

    @staticmethod
    def scalar(c) -> "LinComb":
        return LinComb(c, {})

    @staticmethod
    def of_term(t: Term, c=1) -> "LinComb":
        return LinComb(0, {t: c})

    def is_zero(self) -> bool:
        return self.unit == 0 and not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.unit == other.unit and self.terms == other.terms

    def __hash__(self):
        return hash((self.unit, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .grammar import format_lincomb
        return format_lincomb(self)

    # -- vector-space operations --------------------------------------------

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return trusted_lincomb(as_coeff(self.unit + other.unit),
                               add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "LinComb") -> "LinComb":
        # add_into(..., -1) inline: through the helper an oracle op took 2.7% longer
        if not isinstance(other, LinComb):
            return NotImplemented
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t)
            if s is None:
                out[t] = -c
            else:
                s -= c
                if s:
                    out[t] = s if type(s) is int else as_coeff(s)
                else:
                    del out[t]
        return trusted_lincomb(as_coeff(self.unit - other.unit), out)

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, c) -> "LinComb":
        if isinstance(c, LinComb):
            return NotImplemented
        c = as_coeff(c)
        if c == 0:
            return LinComb.zero()
        return trusted_lincomb(as_coeff(c * self.unit), add_into({}, self.terms, c))

    def scale(self, c) -> "LinComb":
        return as_coeff(c) * self

    # -- algebra operations ---------------------------------------------------

    def __mul__(self, other: "LinComb") -> "LinComb":
        """Bilinear tree grafting; unit components multiply strictly.

        On pure tree terms the product of ``u`` and ``v`` is the new tree with
        ``u`` on the left and ``v`` on the right; the unit acts as a strict
        two-sided identity.
        """
        if not isinstance(other, LinComb):
            return NotImplemented
        out: dict[Term, Coeff] = {}
        if self.unit:
            add_into(out, other.terms, self.unit)
        if other.unit:
            add_into(out, self.terms, other.unit)
        # distinct pairs graft to distinct trees, so the products are one vector
        add_into(out, {Node(t1, t2): c1 * c2 for t1, c1 in self.terms.items()
                       for t2, c2 in other.terms.items()})
        return trusted_lincomb(as_coeff(self.unit * other.unit), out)

    def alpha(self) -> "LinComb":
        """Twist action in normal form: all leaf exponents up by one, unit fixed."""
        return LinComb(self.unit, {shift_term(t, 1): c for t, c in self.terms.items()})

    # -- inspection ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Term, Coeff]]:
        return sorted(self.terms.items(), key=lambda tc: sort_key(tc[0]))

    def generators(self) -> set[str]:
        return {lf.name for t in self.terms for lf in leaves(t)}


_new = object.__new__
_set_unit, _set_terms = (LinComb.__dict__[f].__set__ for f in LinComb.__slots__)


def trusted_lincomb(unit: Coeff, terms: dict[Term, Coeff]) -> LinComb:
    """The combination on ``unit`` and ``terms``, trusted to be clean already:
    each coefficient exact (see ``as_coeff``) and no term's zero.  ``terms``
    becomes the result's own dict."""
    v = _new(LinComb)
    _set_unit(v, unit)
    _set_terms(v, terms)
    return v


def make_leaf(name: str, exp: int = 0) -> LinComb:
    """The coefficient-1 combination on the single leaf (name, exp)."""
    return LinComb.of_term(Leaf(name, exp))


def grading(v: LinComb) -> set[tuple[int, int]]:
    """The set of (arity, weight) pairs of homogeneous components present."""
    return {(arity(t), weight(t)) for t in v.terms}


def rename(v: LinComb, mapping) -> LinComb:
    """Relabel leaf generators; ``mapping`` is a dict or a name -> name callable.

    The relabeling must be injective on the generators that actually occur.
    """
    if callable(mapping):
        fn = mapping
    else:
        fn = lambda n: mapping.get(n, n)
    images = {n: fn(n) for n in v.generators()}
    if len(set(images.values())) != len(images):
        raise ValueError(f"generator relabeling is not injective: {images}")
    relabel = lambda lf: Leaf(images[lf.name], lf.exp)
    return LinComb(v.unit, {map_leaves(t, relabel): c for t, c in v.terms.items()})


def random_lincomb(rng, gens: Iterable[str], max_arity: int = 3, max_exp: int = 1,
                   n_terms: int = 3, with_unit: bool = False) -> LinComb:
    """Seeded random element, used by property tests and samplers."""
    gens = list(gens)

    def random_term(n: int) -> Term:
        if n == 1:
            return Leaf(rng.choice(gens), rng.randint(0, max_exp))
        k = rng.randint(1, n - 1)
        return Node(random_term(k), random_term(n - k))

    out = LinComb.zero()
    for _ in range(n_terms):
        c = rng.randint(-2, 2)
        if c == 0:
            continue
        t = random_term(rng.randint(1, max_arity))
        out = out + LinComb.of_term(t, c)
    if with_unit:
        out = out + LinComb.scalar(rng.randint(-2, 2))
    return out
