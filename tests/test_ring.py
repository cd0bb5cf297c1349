import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binquad.errors import IncompatibleHom, NotInvertible, UnsupportedRing, UsageError
from binquad.form import BinaryQuadraticForm
from binquad.ring import (
    ModularRing,
    QQ,
    RingHom,
    ZZ,
    content,
    ring_from_json,
)
from oracles import units

ints = st.integers(min_value=-10**6, max_value=10**6)


def test_content_examples():
    assert content([2, 4, 6], ZZ) == 2
    assert content([2, 1, 3], ZZ) == 1
    assert content([0, 0, 0], ZZ) == 0


def test_content_rejects_other_rings():
    with pytest.raises(UnsupportedRing):
        content([1, 2], ModularRing(5))
    with pytest.raises(UnsupportedRing):
        content([1, 2], QQ)


@given(ints, ints, ints, ints)
def test_content_scales(k, a, b, c):
    assert content([k * a, k * b, k * c], ZZ) == abs(k) * content([a, b, c], ZZ)


def test_is_unit_examples():
    assert ZZ.is_unit(-1)
    assert not ZZ.is_unit(2)
    assert ModularRing(10).is_unit(3)
    assert not ModularRing(10).is_unit(5)
    assert QQ.is_unit(Fraction(2, 7))
    assert not QQ.is_unit(0)


@given(st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_unit_product_int(u, v):
    assert ZZ.is_unit(u * v)


def test_unit_product_modular():
    R = ModularRing(12)
    for u in units(R):
        for v in units(R):
            assert R.is_unit(R.mul(u, v))


def test_modular_canonical_range():
    R = ModularRing(7)
    assert R.normalize(-6) == 1
    assert R.normalize(7) == 0
    with pytest.raises(Exception):
        ModularRing(1)


@pytest.mark.parametrize("n", [7.5, 2.9, "7", None, True], ids=repr)
def test_modular_ring_rejects_non_int_moduli(n):
    with pytest.raises(UsageError):
        ModularRing(n)


@pytest.mark.parametrize("R", [ZZ, ModularRing(7)], ids=repr)
@pytest.mark.parametrize("v", [1.5, 7.5, 7.0, "12", None], ids=repr)
def test_integral_rings_reject_non_integers(R, v):
    # int(v) would truncate the floats and parse the string
    with pytest.raises(UsageError, match=re.escape(repr(v))):
        R.normalize(v)
    with pytest.raises(UsageError):
        BinaryQuadraticForm(R, v, 0, 1)
    assert R.normalize(True) == 1 and R.normalize(Fraction(-8, 2)) == R.normalize(-4)


@pytest.mark.parametrize("v", [0.1, "1/3", None, 1.5], ids=repr)
def test_rationals_reject_floats_and_strings(v):
    # Fraction(v) would take the binary value of 0.1 and parse "1/3"
    with pytest.raises(UsageError, match=re.escape(repr(v))):
        QQ.normalize(v)
    with pytest.raises(UsageError):
        BinaryQuadraticForm(QQ, v, 0, 1)
    assert QQ.normalize(True) == 1 and QQ.normalize(-4) == Fraction(-4)
    assert QQ.normalize(Fraction(1, 3)) == Fraction(1, 3)


def test_inverse():
    assert ZZ.inv(-1) == -1
    with pytest.raises(NotInvertible):
        ZZ.inv(2)
    assert ModularRing(10).inv(3) == 7
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_hom_examples():
    assert RingHom(ZZ, ModularRing(5))(7) == 2
    assert RingHom(ZZ, ModularRing(5))(-6) == 4
    assert RingHom(ModularRing(12), ModularRing(4))(3) == 3
    assert RingHom(ZZ, QQ)(5) == Fraction(5)


def test_hom_rejects_bad_arrows():
    with pytest.raises(IncompatibleHom):
        RingHom(ModularRing(4), ModularRing(8))
    with pytest.raises(IncompatibleHom):
        RingHom(QQ, ZZ)
    with pytest.raises(IncompatibleHom):
        RingHom(ModularRing(5), ZZ)


@pytest.mark.parametrize(
    "hom",
    [
        RingHom(ZZ, ModularRing(6)),
        RingHom(ZZ, QQ),
        RingHom(ModularRing(12), ModularRing(3)),
    ],
)
@given(u=ints, v=ints)
def test_hom_is_a_ring_map(hom, u, v):
    u = hom.src.normalize(u)
    v = hom.src.normalize(v)
    assert hom(hom.src.add(u, v)) == hom.dst.add(hom(u), hom(v))
    assert hom(hom.src.mul(u, v)) == hom.dst.mul(hom(u), hom(v))
    assert hom(hom.src.one) == hom.dst.one


def test_two_is_regular():
    assert ZZ.two_is_regular()
    assert QQ.two_is_regular()
    assert ModularRing(9).two_is_regular()
    assert not ModularRing(2).two_is_regular()
    assert not ModularRing(4).two_is_regular()
    assert not ModularRing(12).two_is_regular()


def test_ring_json_round_trip():
    for R in (ZZ, QQ, ModularRing(7)):
        assert ring_from_json(R.to_json()) == R
    assert QQ.elem_to_json(Fraction(3, 4)) == {"num": 3, "den": 4}
    assert QQ.elem_from_json({"num": 3, "den": 4}) == Fraction(3, 4)
    assert QQ.elem_to_json(Fraction(4, 2)) == 2


# The ring arithmetic as first written, before the exact-type fast paths in
# normalize and the constant zero and one: the oracle for the rings above.
class _SeedRing:
    def add(self, u, v):
        return self.normalize(u + v)

    def sub(self, u, v):
        return self.normalize(u - v)

    def mul(self, u, v):
        return self.normalize(u * v)

    def neg(self, v):
        return self.normalize(-v)

    @property
    def zero(self):
        return self.normalize(0)

    @property
    def one(self):
        return self.normalize(1)


class _SeedIntegerRing(_SeedRing):
    def normalize(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise UsageError(f"{v} is not an integer")
            return int(v)
        return int(v)


class _SeedModularRing(_SeedRing):
    def __init__(self, n):
        self.n = n

    def normalize(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise UsageError(f"{v} is not an integer")
            v = int(v)
        return int(v) % self.n


class _SeedRationalRing(_SeedRing):
    def normalize(self, v):
        return Fraction(v)


def _outcome(f, *args):
    try:
        v = f(*args)
    except UsageError as e:
        return ("UsageError", str(e))
    return (type(v), v)


ring_pairs = st.one_of(
    st.just((ZZ, _SeedIntegerRing())),
    st.just((QQ, _SeedRationalRing())),
    st.integers(min_value=2, max_value=10**12).map(lambda n: (ModularRing(n), _SeedModularRing(n))),
)
elems = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**64)),
    st.booleans(),
    st.integers().map(Fraction),
    st.fractions(),
)


@given(ring_pairs, elems, elems)
def test_ring_arithmetic_matches_seed_definitions(rings, u, v):
    R, seed = rings
    for name in ("zero", "one"):
        assert _outcome(getattr, R, name) == _outcome(getattr, seed, name)
    for name in ("normalize", "neg"):
        for x in (u, v):
            assert _outcome(getattr(R, name), x) == _outcome(getattr(seed, name), x)
    for name in ("add", "sub", "mul"):
        assert _outcome(getattr(R, name), u, v) == _outcome(getattr(seed, name), u, v)
