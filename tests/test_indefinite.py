import random
import time
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from binquad.acceptance import _valid_discriminants
from binquad.errors import BudgetExceeded, DomainError
from binquad.form import bqf, properly_equivalent, similar
from binquad.integral import CYCLE_LIMIT, _canonical, _find
from binquad.mat2 import mmul
from binquad import modular
from binquad.modular import _genus, _genus_separates, factor
from binquad.picard import class_group, reduced_forms
from binquad.ring import ZZ
from oracles import bounded_witness_search, column_search, value_set_screen

coef = st.integers(min_value=-9, max_value=9)


def _nonsquare_positive(f):
    a, b, c = f
    d = b * b - 4 * a * c
    return d > 0 and isqrt(d) ** 2 != d


forms = st.tuples(coef, coef, coef).filter(_nonsquare_positive)
steps = st.lists(st.tuples(st.booleans(), st.integers(min_value=-50, max_value=50)), max_size=6)
signs = st.sampled_from((1, -1))


def _gl2(word, flip):
    """A product of elementary matrices, times diag(1, -1) when flip."""
    M = ((1, 0), (0, 1))
    for upper, k in word:
        M = mmul(ZZ, M, ((1, k), (0, 1)) if upper else ((1, 0), (k, 1)))
    return mmul(ZZ, M, ((1, 0), (0, -1))) if flip else M


@given(forms, steps, st.booleans(), st.sampled_from((1, -1)))
def test_constructed_pairs_are_similar_with_a_witness(f, word, flip, u):
    q1 = bqf(*f)
    q2 = q1.act(_gl2(word, flip), u)
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)
    if not flip and u == 1:
        assert properly_equivalent(q1, q2)


small = st.integers(min_value=-4, max_value=4)


@given(st.tuples(small, small, small).filter(_nonsquare_positive), small, small)
def test_cycle_finds_every_witness_the_search_finds(f, a2, b2):
    # q2 is a second form of the same discriminant, when one exists
    q1 = bqf(*f)
    D = q1.discriminant()[1]
    if a2 == 0 or (b2 * b2 - D) % (4 * a2):
        return
    q2 = bqf(a2, b2, (b2 * b2 - D) // (4 * a2))
    v = similar(q1, q2)
    w = bounded_witness_search(q1, q2, 3)
    if v.is_similar:
        assert v.witness.verify(q1, q2)
    else:
        assert v.verdict == "not_similar" and w is None


def test_pair_that_every_value_set_passes():
    # D = 145 has narrow class number 4, and these two forms lie in
    # classes that are not even similar; no value set mod m <= 16 sees it,
    # and neither do the genus characters: both forms lie in one genus.
    q1, q2 = bqf(1, 11, -6), bqf(4, 7, -6)
    assert _genus(q2.coeffs(), 145, 1, factor(145)) == _genus(q1.coeffs(), 145, 1, factor(145))
    assert not _genus_separates(q1.coeffs(), q2.coeffs(), 145)
    v = similar(q1, q2)
    assert v.verdict == "not_similar" and v.reason == "indefinite_cycle"


def test_value_set_reason_is_kept():
    # mod 5 the values are {0, 1, 4} and {0, 2, 3}, and -1 is a square mod
    # 5, so no sign bridges them; the character (m/5) says the same
    q1, q2 = bqf(1, 0, -10), bqf(2, 0, -5)
    v = similar(q1, q2)
    assert v.verdict == "not_similar" and v.reason == "genus"


def _brute_sl2_orbit(q, bound):
    rng = range(-bound, bound + 1)
    return {
        q.act(((p, r), (s, t)), 1).coeffs()
        for p, r, s, t in product(rng, repeat=4)
        if p * t - r * s == 1
    }


def test_properly_equivalent_against_sl2_search():
    by_disc = {}
    for f in product(range(-3, 4), repeat=3):
        if f[1] ** 2 - 4 * f[0] * f[2] >= 0:
            by_disc.setdefault(f[1] ** 2 - 4 * f[0] * f[2], []).append(bqf(*f))
    checked = square = 0
    for D, group in by_disc.items():
        for q1 in group:
            orbit = _brute_sl2_orbit(q1, 3)
            for q2 in group:
                pe = properly_equivalent(q1, q2)
                assert pe == properly_equivalent(q2, q1)
                if q2.coeffs() in orbit:
                    assert pe
                    checked += 1
                    square += isqrt(D) ** 2 == D
    assert checked > 100 and square > 100
    assert not properly_equivalent(bqf(-2, 2, 1), bqf(2, 2, -1))
    # square D: x*(x + 7y) is (0, 7, 1) and x*(3x + 7y) is (0, 7, 5)
    assert properly_equivalent(bqf(1, 7, 0), bqf(0, 7, 1))
    assert properly_equivalent(bqf(3, 7, 0), bqf(0, 7, 5))
    assert not properly_equivalent(bqf(1, 7, 0), bqf(3, 7, 0))
    # D = 0: m*x^2 keeps the sign of m
    assert properly_equivalent(bqf(4, 4, 1), bqf(1, 0, 0))
    assert not properly_equivalent(bqf(1, 0, 0), bqf(-1, 0, 0))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=29),
    st.integers(min_value=0, max_value=29),
    st.integers(min_value=1, max_value=3),
    steps,
    steps,
    st.booleans(),
    st.sampled_from((1, -1)),
)
def test_square_discriminants_agree_with_the_column_search(s, c1, c2, g, word1, word2, flip, u):
    # Canonical forms (0, s, c) with 0 <= c < s, or +-x^2 for D = 0, times
    # a content g, moved off their canonical place.  Between two canonical
    # forms of content g every witness has entries at most s, so the column
    # search at that bound is complete.
    if s:
        r1, r2 = bqf(0, g * s, g * (c1 % s)), bqf(0, g * s, g * (c2 % s))
    else:
        r1, r2 = bqf((-1) ** c1 * g, 0, 0), bqf((-1) ** c2 * g, 0, 0)
    q1 = r1.act(_gl2(word1, False), 1)
    q2 = r2.act(_gl2(word2, flip), u)
    v = similar(q1, q2)
    assert v.is_decided
    assert v.is_similar == (column_search(r1, r2, max(s, 1)) is not None)
    if v.is_similar:
        assert v.witness.verify(q1, q2)
    assert properly_equivalent(q1, r1) and properly_equivalent(q2, r2.act(_gl2([], flip), u))


# Narrow class numbers h+(D), from the class number h(D) and the norm of
# the fundamental unit: h+ = 2h when that norm is +1.
NARROW_CLASS_NUMBERS = {5: 1, 8: 1, 12: 2, 13: 1, 21: 2, 40: 2, 60: 4, 105: 4, 136: 4, 145: 4, 148: 3}


def test_proper_classes_count_the_narrow_class_number():
    for D, h in NARROW_CLASS_NUMBERS.items():
        r = isqrt(D)
        # every class has a reduced form, and reduced forms have 0 < b < sqrt(D), |a| < sqrt(D)
        candidates = [
            bqf(a, b, (b * b - D) // (4 * a))
            for a in range(-r, r + 1)
            for b in range(1, r + 1)
            if a and (b * b - D) % (4 * a) == 0 and gcd(gcd(a, b), (b * b - D) // (4 * a)) == 1
        ]
        classes = []
        for q in candidates:
            if not any(properly_equivalent(q, c) for c in classes):
                classes.append(q)
        assert len(classes) == h, D


def _big_pair(rng, bits):
    """Two primitive forms of one discriminant, (3a, b, c) and (a, b, 3c)."""
    while True:
        a, b, c = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1, -(rng.getrandbits(bits) | 1)
        q1, q2 = bqf(3 * a, b, c), bqf(a, b, 3 * c)
        if q1.content() == q2.content() == 1:
            return q1, q2


def test_large_coefficients_end_in_time():
    rng = random.Random(1024)
    q1, q2 = _big_pair(rng, 1024)
    start = time.perf_counter()
    v = similar(q1, q1.act(((3, 7), (2, 5)), -1))
    assert v.is_similar and v.witness.verify(q1, q1.act(((3, 7), (2, 5)), -1))
    # the cycle of D ~ 2^2050 is far longer than the limit.  factor finds
    # no prime of D up to TRIAL_LIMIT and no odd prime up to 13 divides it,
    # so the genus characters are empty on both sides (D = 1 mod 4), and
    # the verdict is an unknown that names the budget
    D = q1.discriminant()[1]
    assert factor(abs(D)) is None and D % 4 == 1
    assert not [p for p in (3, 5, 7, 11, 13) if D % p == 0]
    v = similar(q1, q2)
    assert v.to_json(ZZ) == {"verdict": "unknown", "reason": "cycle_limit", "bound": CYCLE_LIMIT}
    assert time.perf_counter() - start < 10
    with pytest.raises(BudgetExceeded, match="CYCLE_LIMIT") as err:
        properly_equivalent(q1, q2)
    assert isinstance(err.value, DomainError)
    assert properly_equivalent(q1, q1) and properly_equivalent(q2, q2)


_self_forms = st.one_of(
    st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)),
    st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60)),
    st.builds(lambda k, u, v: (k * u * u, 2 * k * u * v, k * v * v), st.integers(-9, 9), small, small),  # D = 0
    st.builds(lambda a, b, c: (a * c, b * c, 0), small, small, st.integers(1, 5)),  # square D
).filter(any)


@settings(max_examples=300, deadline=None)
@given(_self_forms)
def test_equal_triples_are_properly_equivalent(f):
    # the equal-triple shortcut agrees with the canonical route it skips,
    # at every sign of D, wherever that route answers within CYCLE_LIMIT
    assert properly_equivalent(bqf(*f), bqf(*f))
    D = f[1] * f[1] - 4 * f[0] * f[2]
    r = isqrt(max(D, 0))
    try:
        assert _find(f, {_canonical(f, D, r)[0]: None}, D, r)[1] is not None
    except BudgetExceeded:
        pass


def test_equal_triples_past_the_cycle_limit():
    # (1, 1, -3) moved by ((1, 1), (1, 0))^20000: reducing it takes more
    # than CYCLE_LIMIT rho-steps, but equal triples are answered at once
    M, P, n = ((1, 0), (0, 1)), ((1, 1), (1, 0)), 20000
    while n:
        if n & 1:
            M = mmul(ZZ, M, P)
        P, n = mmul(ZZ, P, P), n >> 1
    q = bqf(1, 1, -3).act(M, 1)
    start = time.perf_counter()
    assert properly_equivalent(q, q)
    assert time.perf_counter() - start < 1


def test_one_factorization_per_verdict(monkeypatch):
    # factor runs once for each verdict that reads genus characters:
    # a genus verdict, and the cycle_limit unknown at a D that trial
    # division cannot factor
    calls = []

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(modular, "factor", counted)
    assert similar(bqf(1, 0, -58), bqf(2, 0, -29)).to_json(ZZ) == {"verdict": "not_similar", "reason": "genus"}
    assert calls == [232]
    q1, q2 = _big_pair(random.Random(1024), 1024)
    assert similar(q1, q2).to_json(ZZ) == {"verdict": "unknown", "reason": "cycle_limit", "bound": CYCLE_LIMIT}
    assert calls[1:] == [q1.discriminant()[1]]


def _forms_of(D):
    """The primitive forms (a, b, c) of discriminant D with 0 < |a| <= 12
    and 0 <= b < 2|a|; a = 1 always gives one."""
    return [
        (a, b, (b * b - D) // (4 * a))
        for a in range(-12, 13)
        for b in range(2 * abs(a))
        if a and (b * b - D) % (4 * a) == 0 and gcd(gcd(a, b), (b * b - D) // (4 * a)) == 1
    ]


@st.composite
def pairs(draw):
    """Two forms of one content g and one discriminant g^2 D in
    [-10^4, 10^4], square and zero ones included: the second is another
    primitive form of D or the first moved by GL2(Z) and u = +-1, and both
    are scaled by g and moved off their place."""
    g = draw(st.sampled_from((1, 1, 2, 3, 4, 6)))
    bound = 10**4 // (g * g)
    squares = st.integers(min_value=0, max_value=isqrt(bound)).map(lambda s: s * s)
    D = draw(st.one_of(st.integers(min_value=-bound, max_value=bound), squares).filter(lambda D: D % 4 < 2))
    of_d = _forms_of(D)
    f1 = draw(st.sampled_from(of_d))
    if draw(st.booleans()):
        f2 = draw(st.sampled_from([f for f in of_d if f != f1] or of_d))
    else:
        f2 = bqf(*f1).act(_gl2(draw(steps), draw(st.booleans())), draw(signs)).coeffs()
    move = lambda f: bqf(*(g * x for x in f)).act(_gl2(draw(steps), draw(st.booleans())), draw(signs)).coeffs()
    return move(f1), move(f2)


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_genus_is_sound_and_subsumes_the_value_sets(pair):
    f1, f2 = pair
    q1, q2 = bqf(*f1), bqf(*f2)
    separated = _genus_separates(f1, f2, f1[1] ** 2 - 4 * f1[0] * f1[2])
    v = similar(q1, q2)
    assert v.is_decided
    if v.is_similar:
        assert not separated
        assert v.witness.verify(q1, q2)
    if value_set_screen(q1, q2) is not None:
        assert separated
    if q1.discriminant()[1] >= 0:
        assert (v.reason == "genus") == separated


def test_genus_count_is_the_two_rank_of_the_class_group():
    for D in _valid_discriminants(-3000):
        ps = factor(-D)
        genera = {tuple(_genus(q.coeffs(), D, 1, ps)) for q in reduced_forms(D)}
        even = sum(1 for n in class_group(D).invariant_factors if n % 2 == 0)
        assert len(genera) == 2**even, D
