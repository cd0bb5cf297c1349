"""Exact coefficient rings: the integers, Z/n, and the rationals.

Elements are plain Python values -- ``int`` for integers and for residues
(kept in the canonical range ``[0, n)``), ``Fraction`` for rationals -- and
a small ring object carries the arithmetic.  Everything is exact; no
floats anywhere.  ``basis_change``, the one q(Mv), works on plain values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter
from typing import Optional

from .errors import IncompatibleHom, NotInvertible, UnsupportedRing, UsageError

# The default c of Ring.normalize_all: the value has two coefficients, not three.
_TWO = object()


class Value:
    """An immutable value whose fields, two or more, are its ``__slots__``.

    Values of one class are equal when their fields are; the hash is that
    of the tuple of fields and ``repr`` is ``Name(field=value, ...)``.  Each
    subclass's ``__init__`` takes the fields in ``__slots__`` order and sets
    each once, so copy and pickle rebuild a value by calling its class on
    its fields; setting or deleting a field later raises ``AttributeError``.
    Fields are set through the slot descriptors' own setters, kept in
    ``_setters`` in ``__slots__`` order, which skip ``__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *fields):
        for setter, v in zip(self._setters, fields):
            setter(self, v)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


class Ring:
    kind: str = ""
    # 0 and 1 in normal form, set by each subclass.
    zero: object
    one: object
    # n for Z/n; 0 for Z and Q, where a result computed from normal values is normal.
    modulus = 0

    def normalize(self, v):
        raise NotImplementedError

    def normalize_all(self, a, b, c=_TWO) -> tuple:
        """(normalize(a), normalize(b)[, normalize(c)]) in one call, raising as normalize does on
        the first bad value; each ring answers at once when all have its exact element type."""
        n = self.normalize
        return (n(a), n(b)) if c is _TWO else (n(a), n(b), n(c))

    # add, sub, mul and neg normalize one result each; the seed definitions
    # that the arithmetic tests keep as their oracle are written in them.

    def add(self, u, v):
        return self.normalize(u + v)

    def sub(self, u, v):
        return self.normalize(u - v)

    def mul(self, u, v):
        return self.normalize(u * v)

    def neg(self, v):
        return self.normalize(-v)

    def is_unit(self, v) -> bool:
        raise NotImplementedError

    def inv(self, v):
        raise NotImplementedError

    def half(self, v):
        """v/2 if it exists in the ring, else None."""
        raise NotImplementedError

    def two_is_regular(self) -> bool:
        """True when 2 is not a zero divisor (includes 2 being a unit)."""
        raise NotImplementedError

    def elem_to_json(self, v):
        return v

    def elem_from_json(self, obj):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise UsageError(f"expected an integer element, got {obj!r}")
        return self.normalize(obj)

    def to_json(self) -> dict:
        raise NotImplementedError


def _as_int(v) -> int:
    """An int (bool included) or an integral Fraction as an int; floats,
    strings and anything else are refused, not truncated."""
    if isinstance(v, int) or isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise UsageError(f"{v if isinstance(v, Fraction) else repr(v)} is not an integer")


class IntegerRing(Ring):
    kind = "int"
    zero = 0
    one = 1

    def normalize(self, v):
        # Exact type first: isinstance(v, Fraction) goes through the ABC
        # __instancecheck__.
        if type(v) is int:
            return v
        return _as_int(v)

    def normalize_all(self, a, b, c=_TWO) -> tuple:
        if type(a) is int and type(b) is int and (c is _TWO or type(c) is int):
            return (a, b) if c is _TWO else (a, b, c)
        return Ring.normalize_all(self, a, b, c)

    def is_unit(self, v) -> bool:
        return v in (1, -1)

    def inv(self, v):
        if v in (1, -1):
            return v
        raise NotInvertible(f"{v} is not a unit in Z")

    def half(self, v):
        return v // 2 if v % 2 == 0 else None

    def two_is_regular(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"ring": "int"}

    def __repr__(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("int")


class ModularRing(Ring):
    kind = "mod"
    # Residues of 0 and 1 for every modulus n >= 2.
    zero = 0
    one = 1

    def __init__(self, n: int):
        if type(n) is not int:
            raise UsageError(f"modulus must be an int, got {n!r}")
        if n < 2:
            raise UsageError(f"modulus must be >= 2, got {n}")
        self.n = self.modulus = n

    def normalize(self, v):
        if type(v) is int:
            return v % self.n
        return _as_int(v) % self.n

    def normalize_all(self, a, b, c=_TWO) -> tuple:
        n = self.n
        if type(a) is int and type(b) is int and (c is _TWO or type(c) is int):
            return (a % n, b % n) if c is _TWO else (a % n, b % n, c % n)
        return Ring.normalize_all(self, a, b, c)

    def is_unit(self, v) -> bool:
        return gcd(self.normalize(v), self.n) == 1

    def inv(self, v):
        v = self.normalize(v)
        if gcd(v, self.n) != 1:
            raise NotInvertible(f"{v} is not a unit mod {self.n}")
        return pow(v, -1, self.n)

    def half(self, v):
        v = self.normalize(v)
        if self.n % 2 == 1:
            return self.mul(v, self.inv(2))
        if v % 2 == 0:
            # Not unique when n is even; pick the canonical small lift.
            return self.normalize(v // 2)
        return None

    def two_is_regular(self) -> bool:
        return self.n % 2 == 1

    def to_json(self) -> dict:
        return {"ring": "mod", "n": self.n}

    def __repr__(self):
        return f"Z/{self.n}"

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.n == self.n

    def __hash__(self):
        return hash(("mod", self.n))


class RationalRing(Ring):
    kind = "rat"
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, v):
        if type(v) is Fraction:
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise UsageError(f"{v!r} is not an int or a Fraction")

    def normalize_all(self, a, b, c=_TWO) -> tuple:
        if type(a) is Fraction and type(b) is Fraction and (c is _TWO or type(c) is Fraction):
            return (a, b) if c is _TWO else (a, b, c)
        return Ring.normalize_all(self, a, b, c)

    def is_unit(self, v) -> bool:
        return self.normalize(v) != 0

    def inv(self, v):
        v = self.normalize(v)
        if v == 0:
            raise NotInvertible("0 is not a unit in Q")
        return 1 / v

    def half(self, v):
        return self.normalize(v) / 2

    def two_is_regular(self) -> bool:
        return True

    def elem_to_json(self, v):
        v = self.normalize(v)
        if v.denominator == 1:
            return int(v)
        return {"num": v.numerator, "den": v.denominator}

    def elem_from_json(self, obj):
        if isinstance(obj, bool):
            raise UsageError(f"expected a number, got {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, dict) and set(obj) == {"num", "den"}:
            num, den = obj["num"], obj["den"]
            if not all(type(v) is int for v in (num, den)) or den == 0:
                raise UsageError(f"expected integer num and nonzero integer den, got {obj!r}")
            return Fraction(num, den)
        raise UsageError(f"expected an integer or {{num,den}} object, got {obj!r}")

    def to_json(self) -> dict:
        return {"ring": "rat"}

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rat")


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_json(obj) -> Ring:
    if not isinstance(obj, dict) or "ring" not in obj:
        raise UsageError(f"expected a ring object, got {obj!r}")
    kind = obj["ring"]
    if kind == "int":
        return ZZ
    if kind == "rat":
        return QQ
    if kind == "mod":
        return ModularRing(obj.get("n"))
    raise UsageError(f"unknown ring kind {kind!r}")


def json_ring(obj, keys, what: str, default_ring: Optional[Ring]) -> Ring:
    """The ring of the JSON object obj, which must carry keys: its own "ring", else default_ring.
    what names the object in messages, "a form" or "an algebra"."""
    if not isinstance(obj, dict) or not set(keys) <= set(obj):
        raise UsageError(f"expected {what} object with {', '.join(keys)}, got {obj!r}")
    ring = ring_from_json(obj["ring"]) if "ring" in obj else default_ring
    if ring is None:
        raise UsageError(f"{what.split()[1]} JSON carries no ring and no default was given")
    return ring


def content(values, ring: Ring) -> int:
    """Non-negative gcd of a sequence of integers; 0 only for all-zero input."""
    if not isinstance(ring, IntegerRing):
        raise UnsupportedRing(f"content is only defined over Z, not {ring!r}")
    if not values:
        raise UsageError("content of an empty sequence")
    g = 0
    for v in values:
        g = gcd(g, ring.normalize(v))
    return g


def fraction_sqrt(v: Fraction) -> Optional[Fraction]:
    """The non-negative rational square root of v, or None if v is not a
    square in Q."""
    if v < 0:
        return None
    p, q = v.numerator, v.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def basis_change(a, b, c, M):
    """(q(M e1), b_q(M e1, M e2), q(M e2)): the coefficients of q(M v) for q = (a, b, c), on
    plain ints, residues or Fractions and not normalized, so each caller normalizes once."""
    (x1, x2), (y1, y2) = M
    ax1, cy1 = a * x1, c * y1
    return (
        x1 * (ax1 + b * y1) + cy1 * y1,
        2 * (ax1 * x2 + cy1 * y2) + b * (x1 * y2 + y1 * x2),
        x2 * (a * x2 + b * y2) + c * y2 * y2,
    )


class RingHom(Value):
    """One of the supported canonical homomorphisms.

    Arrows: Z -> Z/n, Z -> Q, and Z/n -> Z/m with m | n.  On a normal
    value of src each is dst.normalize alone, so the maps of forms, algebras
    and matrices hand their fields to dst in one normalize_all call; calling
    the arrow normalizes a single value into src first.
    """

    __slots__ = ("src", "dst")

    def __init__(self, src: Ring, dst: Ring):
        Value.__init__(self, src, dst)
        if isinstance(src, IntegerRing) and isinstance(dst, (ModularRing, RationalRing)):
            return
        if isinstance(src, ModularRing) and isinstance(dst, ModularRing) and src.n % dst.n == 0:
            return
        raise IncompatibleHom(f"no canonical homomorphism {src!r} -> {dst!r}")

    def __call__(self, v):
        return self.dst.normalize(self.src.normalize(v))
