import random
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from binquad.clifford import QuadraticAlgebra
from binquad.form import BinaryQuadraticForm, similar
from binquad.modular import TRIAL_LIMIT, factor
from binquad.pairs import CliffordPair, form_to_pair, pairs_isomorphic
from binquad.ring import ModularRing
from oracles import (
    bounded_witness_search,
    discriminant_screen_units,
    dyadic_orbit_labels,
    factor_by_trial_division,
    orbit_labels,
    value_set_screen_mod,
)

# Odd moduli with their factorizations, written out so that the tests do
# not lean on binquad.modular.factor: primes, prime powers and products,
# up to 10^12.
MODULI = {
    3: {3: 1},
    9: {3: 2},
    27: {3: 3},
    3**20: {3: 20},
    105: {3: 1, 5: 1, 7: 1},
    5**3 * 7**2: {5: 3, 7: 2},
    3**4 * 11**3: {3: 4, 11: 3},
    1009: {1009: 1},
    10007: {10007: 1},
    10007**2: {10007: 2},
    999999999989: {999999999989: 1},
    1000003 * 999983: {999983: 1, 1000003: 1},
    3 * 5 * 7 * 11 * 13 * 17 * 19 * 23: {p: 1 for p in (3, 5, 7, 11, 13, 17, 19, 23)},
}


def _nonresidue(p):
    return next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)


def _unit(rng, n):
    while True:
        u = rng.randrange(1, n)
        if gcd(u, n) == 1:
            return u


def _gl2(rng, n):
    while True:
        M = tuple(tuple(rng.randrange(n) for _ in range(2)) for _ in range(2))
        if gcd(M[0][0] * M[1][1] - M[0][1] * M[1][0], n) == 1:
            return M


def test_factor_examples():
    for n, primes in MODULI.items():
        assert factor(n) == primes
    assert factor(2**10 * 3) == {2: 10, 3: 1}
    # a prime above 10^12 is accepted because Miller-Rabin proves it
    assert factor(1000000000039) == {1000000000039: 1}


@given(st.integers(min_value=-3, max_value=10**7))
# primes, squares and products around the bound where Miller-Rabin takes over
@example(9973)
@example(9991)
@example(10007)
@example(10201)
@example(9973 * 1009)
@example(2**23)
@example(3**14)
def test_factor_matches_trial_division(n):
    # the same primes with the same exponents, smallest first
    assert list(factor(n).items()) == list(factor_by_trial_division(n).items())


def test_factor_budget_is_reported_not_exceeded():
    # two primes just past the trial-division limit: the least prime
    # factor is out of reach and the product is composite
    p, q = 1000003, 1000033
    assert p > TRIAL_LIMIT and factor(p * q) is None
    R = ModularRing(p * q)
    v = similar(BinaryQuadraticForm(R, 1, 0, 1), BinaryQuadraticForm(R, 1, 0, 3))
    assert v.to_json(R) == {"verdict": "unknown", "reason": "factoring", "bound": TRIAL_LIMIT}
    # the zero screen and the identity shortcut need no factorization
    assert similar(BinaryQuadraticForm(R, 1, 0, 1), BinaryQuadraticForm(R, 0, 0, 0)).reason == "zero"
    assert similar(BinaryQuadraticForm(R, 1, 2, 3), BinaryQuadraticForm(R, 1, 2, 3)).is_similar


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15])
def test_agrees_with_exhaustive_search(n):
    # At bound 12 the search enumerates all of Z/n for n <= 25, so a miss
    # means the forms are not similar.  The search is O(n^4 phi(n)) per
    # miss, so this samples the pairs.
    R = ModularRing(n)
    rng = random.Random(n)
    forms = list(product(range(n), repeat=3))
    for _ in range(30 if n <= 9 else 6):
        q1 = BinaryQuadraticForm(R, *rng.choice(forms))
        q2 = BinaryQuadraticForm(R, *rng.choice(forms))
        if rng.random() < 0.5:
            q2 = q1.act(_gl2(rng, n), _unit(rng, n))
        v = similar(q1, q2)
        assert v.is_decided
        assert v.is_similar == (bounded_witness_search(q1, q2, 12) is not None)
        if v.is_similar:
            assert v.witness.verify(q1, q2)
        # the screens over the units that similar used to run
        if v.reason != "zero":
            assert discriminant_screen_units(q1, q2) == (v.reason == "discriminant")
        assert not (v.is_similar and value_set_screen_mod(q1, q2))


def _labels(n):
    """Orbit labels over Z/n for n odd or a power of 2."""
    return orbit_labels(n) if n % 2 else dyadic_orbit_labels(n.bit_length() - 1)


@pytest.mark.parametrize("n", [9, 15, 25, 27, 2, 4, 8, 16, 32, 64])
def test_agrees_with_orbits(n):
    R = ModularRing(n)
    label = _labels(n)
    forms = list(label)
    reps = {}
    for f in forms:
        reps.setdefault(label[f], f)
    rng = random.Random(n)
    pairs = [(r, f) for r in reps.values() for f in rng.sample(forms, min(60, len(forms)))]
    pairs += [(rng.choice(forms), rng.choice(forms)) for _ in range(500)]
    for f, g in pairs:
        q1, q2 = BinaryQuadraticForm(R, *f), BinaryQuadraticForm(R, *g)
        v = similar(q1, q2)
        assert v.is_similar == (label[f] == label[g]), (f, g, v)
        if v.is_similar:
            assert v.witness.verify(q1, q2)


def test_unknown_cases_of_the_search_are_decided():
    # Over Z/9 the exhaustive search cannot tell 3xy from 3x^2 + 3y^2;
    # their scaled unimodular parts differ in square class.
    R = ModularRing(9)
    q1, q2 = BinaryQuadraticForm(R, 0, 3, 0), BinaryQuadraticForm(R, 3, 0, 3)
    assert bounded_witness_search(q1, q2, 12) is None
    assert similar(q1, q2).to_json(R) == {"verdict": "not_similar", "reason": "jordan_invariants"}


moduli = st.sampled_from(sorted(MODULI))
seeds = st.integers(min_value=0, max_value=2**32)


@settings(deadline=None)
@given(moduli, seeds)
def test_constructed_pairs_are_similar(n, seed):
    R = ModularRing(n)
    rng = random.Random(seed)
    # a divisor of n as the content, so that degenerate Jordan splittings
    # come up as well as unimodular ones
    d = 1
    for p, k in MODULI[n].items():
        d *= p ** rng.randint(0, k)
    q1 = BinaryQuadraticForm(R, *(d * rng.randrange(n) for _ in range(3)))
    q2 = q1.act(_gl2(rng, n), _unit(rng, n))
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)


@settings(deadline=None)
@given(moduli, seeds)
def test_legendre_twists_are_not_similar(n, seed):
    R = ModularRing(n)
    rng = random.Random(seed)
    p, k = rng.choice(sorted(MODULI[n].items()))
    # by CRT, a unit of Z/n that is a non-residue mod p and 1 mod the
    # other primes
    m = p**k
    r = n // m
    g = (_nonresidue(p) * r * pow(r, -1, m) + m * pow(m, -1, r)) % n
    d = _unit(rng, n)

    def moved(a, c):
        return BinaryQuadraticForm(R, a, 0, c).act(_gl2(rng, n), _unit(rng, n))

    v = similar(moved(1, d), moved(1, d * g))
    assert v.to_json(R) == {"verdict": "not_similar", "reason": "discriminant"}
    if k >= 3:
        # <p^(k-2), p^(k-1) d> against <p^(k-2), p^(k-1) d g>: the
        # discriminants vanish mod p^k, so only the Jordan invariants tell
        # them apart
        v = similar(moved(p ** (k - 2), p ** (k - 1) * d), moved(p ** (k - 2), p ** (k - 1) * d * g))
        assert v.to_json(R) == {"verdict": "not_similar", "reason": "jordan_invariants"}


@pytest.mark.parametrize("n", [9, 105, 1009, 10007, 5**3 * 7**2])
def test_pairs_isomorphic_transports_the_witness(n):
    # Z/1009 and Z/10007 are far beyond the direct pair search, so the
    # witness must come from the form similarity.
    rng = random.Random(n)
    R = ModularRing(n)
    for _ in range(5):
        q1 = BinaryQuadraticForm(R, *(rng.randrange(n) for _ in range(3)))
        q2 = q1.act(_gl2(rng, n), _unit(rng, n))
        m = rng.randrange(n)
        base = form_to_pair(q2)
        shifted = CliffordPair(
            QuadraticAlgebra(R, q2.b + 2 * m, q2.b * m + m * m + q2.a * q2.c),
            ((base.m[0][0] + m, base.m[0][1]), (base.m[1][0], base.m[1][1] + m)),
        )
        p1 = form_to_pair(q1)
        v = pairs_isomorphic(p1, shifted)
        assert v.is_isomorphic and v.witness is not None and v.witness.verify(p1, shifted)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=19),
    st.sampled_from((1, 3, 5, 9, 15, 1009, 4999)),
    seeds,
    st.sampled_from(("moved", "random", "dyadic_twist")),
)
def test_even_moduli_are_decided_with_verified_witnesses(k, m, seed, kind):
    # n = 2^k * m: a moved form is similar; a random form, or a moved form
    # changed by m * 2^j (which leaves the odd part alone), may not be.
    # Where the orbit oracle runs, the verdict is the conjunction of the
    # orbits mod 2^k and mod m.
    n = 2**k * m
    if n > 10**6:
        k = (10**6 // m).bit_length() - 1
        n = 2**k * m
    R = ModularRing(n)
    rng = random.Random(seed)
    d = 2 ** rng.randint(0, k) * rng.choice([x for x in range(1, m + 1) if m % x == 0])
    q1 = BinaryQuadraticForm(R, *(d * rng.randrange(n) for _ in range(3)))
    q2 = q1.act(_gl2(rng, n), _unit(rng, n))
    if kind == "random":
        q2 = BinaryQuadraticForm(R, *(rng.randrange(n) * 2 ** rng.randint(0, k) for _ in range(3)))
    elif kind == "dyadic_twist":
        i, j = rng.randrange(3), rng.randrange(k)
        c = list(q2.coeffs())
        c[i] += m * 2**j * rng.choice((1, 3))
        q2 = BinaryQuadraticForm(R, *c)
    if q1.is_zero() or q2.is_zero():
        return
    v = similar(q1, q2)
    assert v.is_decided
    assert v.is_similar or kind != "moved"
    if v.is_similar:
        assert v.witness.verify(q1, q2)
    if 2**k <= 64 and m <= 15:
        f, g = q1.coeffs(), q2.coeffs()
        same = lambda label, p: label[tuple(x % p for x in f)] == label[tuple(x % p for x in g)]
        assert v.is_similar == (same(dyadic_orbit_labels(k), 2**k) and (m == 1 or same(orbit_labels(m), m)))
