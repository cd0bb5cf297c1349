import json
import random
import time
from pathlib import Path
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from binquad import clifford, form, integral, modular, norm, pairs, ring
from binquad.clifford import QuadraticAlgebra
from binquad.errors import NotAModule, NotAPerfectSquare, NotTraceable
from binquad.form import BinaryQuadraticForm, bqf, similar
from binquad.pairs import (
    CliffordPair,
    clifford_form_to_wood_form,
    dual_conic,
    dual_form,
    dual_form_trace,
    form_to_pair,
    normalize_pair,
    pair_to_form,
    pairs_isomorphic,
    wood_pair,
)
from binquad.ring import ModularRing, QQ, ZZ
from oracles import dual_conic_fractions, dyadic_orbit_labels, pairs_isomorphic_search

small = st.integers(min_value=-7, max_value=7)


def shifted_pair(q, m):
    """The Clifford pair of q with its generator shifted by m: algebra
    (b + 2m, bm + m^2 + ac), action [[b + m, c], [-a, m]]."""
    R = q.ring
    return CliffordPair(
        QuadraticAlgebra(R, q.b + 2 * m, q.b * m + m * m + q.a * q.c),
        ((q.b + m, q.c), (-q.a, m)),
    )


def test_normalize_pair_example():
    p = CliffordPair(QuadraticAlgebra(ZZ, 9, 20), ((7, 6), (-1, 2)))
    n, shift = normalize_pair(p)
    assert shift == 2
    assert n.m == ((5, 6), (-1, 0))
    assert (n.alg.t, n.alg.nm) == (5, 6)
    # relations survive the shift
    assert n.is_traceable()


def test_normalize_pair_fixed_points():
    p = CliffordPair(QuadraticAlgebra(ZZ, 1, 6), ((1, 3), (-2, 0)))
    n, shift = normalize_pair(p)
    assert shift == 0 and n == p
    p = CliffordPair(QuadraticAlgebra(ZZ, 0, -1), ((0, 1), (1, 0)))
    n, shift = normalize_pair(p)
    assert shift == 0 and n == p


def test_pair_to_form_examples():
    p = CliffordPair(QuadraticAlgebra(ZZ, 1, 6), ((1, 3), (-2, 0)))
    assert pair_to_form(p) == bqf(2, 1, 3)
    p = CliffordPair(QuadraticAlgebra(ZZ, 9, 20), ((7, 6), (-1, 2)))
    assert pair_to_form(p) == bqf(1, 5, 6)
    assert pair_to_form(form_to_pair(bqf(1, 5, 6))) == bqf(1, 5, 6)
    p = CliffordPair(QuadraticAlgebra(ZZ, 0, -1), ((0, 1), (1, 0)))
    assert pair_to_form(p) == bqf(-1, 0, 1)


def test_form_to_pair_examples():
    p = form_to_pair(bqf(2, 1, 3))
    assert p.alg == QuadraticAlgebra(ZZ, 1, 6)
    assert p.m == ((1, 3), (-2, 0))
    z = form_to_pair(bqf(0, 0, 0))
    assert z.alg == QuadraticAlgebra(ZZ, 0, 0) and z.m == ((0, 0), (0, 0))


@given(small, small, small)
def test_round_trip_is_exact(a, b, c):
    q = bqf(a, b, c)
    assert pair_to_form(form_to_pair(q)) == q


def test_not_traceable_rejected():
    p = CliffordPair(QuadraticAlgebra(ZZ, 1, 0), ((1, 0), (0, 1)))
    assert not p.is_traceable()
    with pytest.raises(NotTraceable):
        pair_to_form(p)
    with pytest.raises(NotTraceable):
        pairs_isomorphic(p, p)


def test_pair_construction_validates_module_axiom():
    with pytest.raises(NotAModule):
        CliffordPair(QuadraticAlgebra(ZZ, 1, 6), ((1, 0), (0, 1)))


def test_pairs_isomorphic_examples():
    p1 = form_to_pair(bqf(4, 5, 3))
    p2 = form_to_pair(bqf(2, -1, 3))
    v = pairs_isomorphic(p1, p2)
    assert v.is_isomorphic and v.witness is not None and v.witness.verify(p1, p2)

    v = pairs_isomorphic(form_to_pair(bqf(1, 0, 1)), form_to_pair(bqf(1, 1, 1)))
    assert v.verdict == "not_isomorphic" and v.reason == "discriminant"

    v = pairs_isomorphic(p1, p1)
    assert v.is_isomorphic and v.witness.verify(p1, p1)

    # a pair against itself goes through `similar`'s identity shortcut and
    # transports to the identity witness over every ring, shifted or not
    identity = {"verdict": "isomorphic", "witness": {"eps": 1, "k": 0, "psi": [[1, 0], [0, 1]]}}
    for R, f in ((ZZ, (4, 5, 3)), (QQ, (Fraction(1, 2), 3, -5)), (ModularRing(5), (1, 2, 3)), (ModularRing(4), (2, 1, 3))):
        q = BinaryQuadraticForm(R, *f)
        for p in (form_to_pair(q), shifted_pair(q, 3)):
            assert pairs_isomorphic(p, p).to_json(R) == identity


def test_pairs_isomorphic_normalizes_each_pair_once(monkeypatch):
    # each pair's form is read off its matrix once, and no pair or
    # algebra is built on the way to the verdict
    reads, built = [], []
    original = pairs.pair_to_form

    def counted(p):
        reads.append(p)
        return original(p)

    def counting_init(cls):
        init = cls.__init__

        def wrapped(self, *args):
            built.append(cls.__name__)
            init(self, *args)

        return wrapped

    cases = [
        (form_to_pair(bqf(4, 5, 3)), form_to_pair(bqf(2, -1, 3))),
        (form_to_pair(bqf(1, 0, 1)), form_to_pair(bqf(1, 1, 1))),
        (shifted_pair(bqf(2, 1, 3), 4), form_to_pair(bqf(3, -1, 2))),
        (form_to_pair(BinaryQuadraticForm(ModularRing(15), 1, 0, 1)),
         form_to_pair(BinaryQuadraticForm(ModularRing(15), 2, 0, 2))),
        (shifted_pair(BinaryQuadraticForm(QQ, Fraction(1, 2), 3, -5), 2),
         form_to_pair(BinaryQuadraticForm(QQ, Fraction(1, 2), 3, -5))),
    ]
    monkeypatch.setattr(pairs, "pair_to_form", counted)
    for cls in (CliffordPair, QuadraticAlgebra):
        monkeypatch.setattr(cls, "__init__", counting_init(cls))
    for p1, p2 in cases:
        reads.clear()
        pairs_isomorphic(p1, p2)
        assert len(reads) == 2
    assert built == []


def test_pairs_oracle_agrees_with_fast_path():
    rng = random.Random(37)
    forms = []
    while len(forms) < 8:
        a, b, c = rng.randint(1, 4), rng.randint(-4, 4), rng.randint(1, 4)
        if b * b - 4 * a * c < 0:
            forms.append(bqf(a, b, c))
    for q1 in forms:
        for q2 in forms:
            p1, p2 = form_to_pair(q1), form_to_pair(q2)
            fast = pairs_isomorphic(p1, p2).is_isomorphic
            brute = pairs_isomorphic_search(p1, p2, bound=8)
            assert fast == (brute is not None)
            assert similar(q1, q2).is_similar == fast
            if brute is not None:
                assert brute.verify(p1, p2)


def test_similarity_matches_pair_isomorphism_on_grid_sample():
    # sampled from the definite primitive grid with |coefficients| <= 6;
    # the exhaustive version of this equivalence runs in the acceptance
    # suite against the brute-force oracle
    from math import gcd
    from itertools import product as iproduct

    grid = []
    for a, b, c in iproduct(range(-6, 7), repeat=3):
        if a == 0 or c == 0 or b * b - 4 * a * c >= 0:
            continue
        if gcd(gcd(a, b), c) != 1:
            continue
        grid.append(bqf(a, b, c))
    rng = random.Random(59)
    for _ in range(600):
        q1, q2 = rng.choice(grid), rng.choice(grid)
        s = similar(q1, q2).is_similar
        v = pairs_isomorphic(form_to_pair(q1), form_to_pair(q2))
        assert s == v.is_isomorphic
        if v.is_isomorphic:
            assert v.witness is not None
            assert v.witness.verify(form_to_pair(q1), form_to_pair(q2))


def test_pairs_isomorphic_over_modular_ring_carries_unit_witness():
    R = ModularRing(7)
    q1 = BinaryQuadraticForm(R, 2, 1, 3)
    q2 = q1.act(((1, 2), (0, 1)), 3)
    p1, p2 = form_to_pair(q1), form_to_pair(q2)
    v = pairs_isomorphic(p1, p2)
    assert v.is_isomorphic and v.witness.verify(p1, p2)
    # the algebra twist here is a unit other than +-1
    assert v.witness.phi.eps not in (1, R.n - 1)


def test_wood_form_examples():
    assert clifford_form_to_wood_form(bqf(2, 1, 3)) == bqf(3, -1, 2)
    assert clifford_form_to_wood_form(bqf(1, 1, 1)) == bqf(1, -1, 1)
    assert clifford_form_to_wood_form(bqf(5, 0, 7)) == bqf(7, 0, 5)


def test_wood_recipe_reproduces_the_clifford_pair():
    # reading the Wood form of a pair back through the opposite-sign
    # relations lands on the original action data
    for coeffs in ((2, 1, 3), (1, -2, 5), (0, 3, -1)):
        q = bqf(*coeffs)
        assert wood_pair(clifford_form_to_wood_form(q)) == form_to_pair(q)


def test_wood_recipe_matches_dual_stage():
    q = bqf(2, 1, 3)
    stage3 = dual_form_trace(q)[2]
    p = wood_pair(clifford_form_to_wood_form(q))
    v = pairs_isomorphic(p, stage3.pair)
    assert v.is_isomorphic


def test_dual_form_examples():
    assert dual_form(bqf(1, 1, 1)) == bqf(1, -1, 1)
    assert dual_form(dual_form(bqf(1, 1, 1))) == bqf(1, 1, 1)
    assert dual_form(bqf(0, 5, 0)) == bqf(0, -5, 0)


@given(small, small, small)
def test_dual_form_is_an_involution(a, b, c):
    q = bqf(a, b, c)
    assert dual_form(dual_form(q)) == q


def test_dual_trace_stages():
    st = dual_form_trace(bqf(2, 1, 3))
    assert [s.label for s in st] == [
        "classical",
        "wood",
        "kneser_dual",
        "wood_dual",
        "classical_double_dual",
    ]
    assert [s.form.coeffs() for s in st] == [
        (2, 1, 3),
        (3, -1, 2),
        (3, -1, 2),
        (2, 1, 3),
        (2, 1, 3),
    ]
    assert [s.module for s in st] == ["E", "E", "E_dual", "E_dual", "E"]
    # the dual-module relations: shifted generator squares to -b*tau - ac
    k = st[2].pair
    assert (k.alg.t, k.alg.nm) == (-1, 6)
    assert k.m == ((-1, 2), (-3, 0))


def test_dual_conic_examples():
    assert dual_conic(bqf(1, 0, 1)).coeffs() == (1, 0, 1)
    got = dual_conic(bqf(1, 3, 1))
    assert got.coeffs() == (Fraction(-4, 5), Fraction(12, 5), Fraction(-4, 5))
    assert dual_conic(bqf(1, 4, 4)).coeffs() == (4, -4, 1)


def test_dual_conic_against_matrix_inverse():
    # every form of the grid [-7, 7]^3 over Z and over Q: the dual, or the
    # error and its text, is that of the Fraction route over Q; a
    # nondegenerate dual inverts the Gram matrix [[a, b/2], [b/2, c]]
    # exactly, and a square (alpha x + beta y)^2 goes to (beta x - alpha y)^2
    squares = {}
    for alpha, beta in product(range(-2, 3), range(-2, 3)):
        squares[(alpha * alpha, 2 * alpha * beta, beta * beta)] = (beta * beta, -2 * alpha * beta, alpha * alpha)
    refused = 0
    for a, b, c in product(range(-7, 8), repeat=3):
        for q in (bqf(a, b, c), BinaryQuadraticForm(QQ, a, b, c)):
            try:
                want = dual_conic_fractions(q)
            except NotAPerfectSquare as e:
                with pytest.raises(NotAPerfectSquare) as err:
                    dual_conic(q)
                assert str(err.value) == str(e) and " over Q " in str(e)
                refused += 1
                continue
            got = dual_conic(q)
            assert got == want and got.ring == QQ
            det = Fraction(a) * c - Fraction(b, 2) ** 2
            if det != 0:
                inv = (
                    (Fraction(c) / det, Fraction(-b, 2) / det),
                    (Fraction(-b, 2) / det, Fraction(a) / det),
                )
                assert got.coeffs() == (inv[0][0], 2 * inv[0][1], inv[1][1])
            else:
                assert got.coeffs() == squares[(a, b, c)]
    assert refused > 0


def test_dual_conic_double_application_is_projectively_trivial():
    rng = random.Random(43)
    n = 0
    while n < 40:
        a, b, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        if 4 * a * c - b * b == 0:
            continue
        q = BinaryQuadraticForm(QQ, a, b, c)
        assert dual_conic(dual_conic(q)) == q
        n += 1


def test_dual_conic_degenerate_branch():
    # (x + 2y)^2: the limit of duals of nearby smooth conics
    assert dual_conic(bqf(1, 4, 4)).coeffs() == (4, -4, 1)
    assert dual_conic(bqf(0, 0, 1)).coeffs() == (1, 0, 0)
    assert dual_conic(bqf(9, -12, 4)).coeffs() == (4, 12, 9)
    with pytest.raises(NotAPerfectSquare):
        dual_conic(bqf(2, 4, 2))
    with pytest.raises(NotAPerfectSquare):
        dual_conic(BinaryQuadraticForm(QQ, Fraction(1, 2), Fraction(1), Fraction(1, 2)))
    # a rational square with fractional root is still fine
    q = BinaryQuadraticForm(QQ, 1, 1, Fraction(1, 4))
    assert dual_conic(q).coeffs() == (Fraction(1, 4), Fraction(-1), Fraction(1))


def test_pair_json_round_trip():
    p = form_to_pair(bqf(2, 1, 3))
    assert CliffordPair.from_json(p.to_json()) == p


# -- one route: the similarity witness transported, never the search ------

MODULI = (2, 3, 4, 5, 7, 8, 9, 12, 15, 25)
RINGS = (ZZ, QQ) + tuple(ModularRing(n) for n in MODULI)


def _is_square(d):
    return d >= 0 and isqrt(d) ** 2 == d


@st.composite
def similar_or_random_pairs(draw):
    """A shifted pair of q and a shifted pair of either a random form or
    q moved by an invertible M and scaled by a unit u."""
    R = draw(st.sampled_from(RINGS))
    if isinstance(R, ModularRing):
        elem = st.integers(min_value=0, max_value=R.n - 1)
        unit = elem.filter(lambda x: gcd(x, R.n) == 1)
        M = st.tuples(elem, elem, elem, elem).filter(lambda e: gcd(e[0] * e[3] - e[1] * e[2], R.n) == 1)
    elif R is QQ:
        elem = st.fractions(min_value=-6, max_value=6, max_denominator=4)
        unit = elem.filter(lambda x: x != 0)
        M = st.tuples(elem, elem, elem, elem).filter(lambda e: e[0] * e[3] != e[1] * e[2])
    else:
        elem = small
        unit = st.sampled_from([1, -1])
        # GL2(Z) as a product of elementary matrices, with an optional
        # reflection
        M = st.builds(
            lambda s, t, r, f: ((1 + s * t) * f, s + r + s * t * r, t * f, 1 + t * r),
            small, small, small, st.sampled_from([1, -1]),
        )
    q1 = BinaryQuadraticForm(R, draw(elem), draw(elem), draw(elem))
    if draw(st.booleans()):
        e = draw(M)
        q2 = q1.act(((e[0], e[1]), (e[2], e[3])), draw(unit))
    else:
        q2 = BinaryQuadraticForm(R, draw(elem), draw(elem), draw(elem))
    return shifted_pair(q1, draw(elem)), shifted_pair(q2, draw(elem))


@settings(max_examples=300, deadline=None)
@given(similar_or_random_pairs())
def test_every_similarity_witness_transports_to_a_pair_witness(pq):
    # pairs_isomorphic has no route besides the transport, so a similar
    # verdict without a verified pair witness would be an error
    p1, p2 = pq
    s = similar(pair_to_form(p1), pair_to_form(p2))
    v = pairs_isomorphic(p1, p2)
    if s.is_similar:
        assert v.is_isomorphic and v.witness is not None and v.witness.verify(p1, p2)
    else:
        verdict = {"not_similar": "not_isomorphic", "unknown": "unknown"}[s.verdict]
        assert (v.verdict, v.witness, v.reason) == (verdict, None, s.reason)


def test_pair_verdicts_agree_with_the_oracles_where_similarity_was_unknown():
    # Square discriminants over Z and even moduli, where a search once
    # answered unknown.  Over Z a pair witness psi is a similarity witness
    # M = psi with u = det(psi)/eps = +-1, so the pair search at bound 3
    # finds one only for isomorphic pairs.  Over an even modulus 2 is not
    # regular and the pair search has no algebra map to try, so the orbits
    # of the forms are the oracle.
    rng = random.Random(71)
    by_disc = {}
    for a, b, c in product(range(-9, 10), repeat=3):
        if b * b - 4 * a * c > 0 and _is_square(b * b - 4 * a * c):
            by_disc.setdefault(b * b - 4 * a * c, []).append(bqf(a, b, c))
    square = [fs for fs in by_disc.values() if len(fs) > 1]
    cases = [tuple(rng.sample(rng.choice(square), 2)) for _ in range(40)]
    cases.append((bqf(1, 7, 0), bqf(3, 7, 0)))
    found = 0
    for q1, q2 in cases:
        p1, p2 = shifted_pair(q1, rng.randint(-5, 5)), shifted_pair(q2, rng.randint(-5, 5))
        v = pairs_isomorphic(p1, p2)
        assert v.verdict != "unknown"
        w = pairs_isomorphic_search(p1, p2, bound=3)
        if w is not None:
            found += 1
            assert v.is_isomorphic and w.verify(p1, p2)
        if v.is_isomorphic:
            assert v.witness.verify(p1, p2)
    assert found and v.to_json(ZZ) == {"verdict": "not_isomorphic", "reason": "split_form"}
    for k, sample in ((1, None), (2, None), (3, 1500)):
        R, label = ModularRing(2**k), dyadic_orbit_labels(k)
        grid = list(product(label, repeat=2))
        for f, g in rng.sample(grid, sample) if sample else grid:
            p1, p2 = shifted_pair(BinaryQuadraticForm(R, *f), 1), shifted_pair(BinaryQuadraticForm(R, *g), 0)
            v = pairs_isomorphic(p1, p2)
            assert v.is_isomorphic == (label[f] == label[g]), (f, g)
            assert v.witness is None or v.witness.verify(p1, p2)


def test_pair_search_is_off_the_request_path(monkeypatch):
    import oracles

    def refuse(*args, **kwargs):
        raise AssertionError("a search ran on the request path")

    for name in (
        "units",
        "value_set_mod",
        "bounded_witness_search",
        "iter_unit_matrices",
        "spiral",
        "column_search",
        "value_set_screen",
        "discriminant_screen_units",
        "algebra_map_candidates",
        "pairs_isomorphic_search",
    ):
        monkeypatch.setattr(oracles, name, refuse)
    big = ModularRing(1000003 * 1000033)
    mod = lambda n, a, b, c: BinaryQuadraticForm(ModularRing(n), a, b, c)
    # (q1, q2, the verdict, or its JSON where it names a reason)
    cases = [
        (bqf(4, 5, 3), bqf(2, -1, 3), "isomorphic"),
        (bqf(1, 0, 1), bqf(1, 1, 1), "not_isomorphic"),
        (bqf(1, 0, -34), bqf(2, 0, -17), "isomorphic"),
        (bqf(1, 7, 0), bqf(3, 7, 0), {"verdict": "not_isomorphic", "reason": "split_form"}),
        (bqf(1, 0, -10), bqf(2, 0, -5), {"verdict": "not_isomorphic", "reason": "genus"}),
        (bqf(1, 11, -6), bqf(4, 7, -6), {"verdict": "not_isomorphic", "reason": "indefinite_cycle"}),
        (bqf(2, 1, 3), bqf(1, 1, 6), {"verdict": "not_isomorphic", "reason": "definite_reduction"}),
        (bqf(1, 2, 1), bqf(-4, 4, -1), "isomorphic"),
        (bqf(1, 7, 0), bqf(1, 7, 0).act(((2, 3), (1, 2)), -1), "isomorphic"),
        (BinaryQuadraticForm(QQ, 1, 0, 1), BinaryQuadraticForm(QQ, Fraction(1, 2), 0, Fraction(9, 2)), "isomorphic"),
        (mod(7, 2, 1, 3), mod(7, 3, 0, 1), None),
        (mod(2, 1, 1, 0), mod(2, 0, 1, 1), "isomorphic"),
        (mod(4, 0, 2, 0), mod(4, 2, 0, 0), {"verdict": "not_isomorphic", "reason": "jordan_invariants"}),
        (mod(8, 1, 0, 1), mod(8, 5, 0, 5), "isomorphic"),
        (mod(8, 1, 0, 1), mod(8, 1, 0, 5), {"verdict": "not_isomorphic", "reason": "jordan_invariants"}),
        (mod(12, 1, 1, 1), mod(12, 1, 1, 7), None),
        (mod(2018, 1, 0, 1), mod(2018, 1, 0, 3), "isomorphic"),
        (mod(2**20 * 1009, 1, 0, 1), mod(2**20 * 1009, 1, 0, 41), "isomorphic"),
        (mod(2**20 * 1009, 1, 0, 1), mod(2**20 * 1009, 1, 0, 3), {"verdict": "not_isomorphic", "reason": "discriminant"}),
        (
            BinaryQuadraticForm(big, 1, 0, 1),
            BinaryQuadraticForm(big, 1, 0, 3),
            {"verdict": "unknown", "reason": "factoring", "bound": 1000000},
        ),
    ]
    for q1, q2, expected in cases:
        s = similar(q1, q2)
        assert s.witness is None or s.witness.verify(q1, q2)
        for m1, m2 in ((0, 0), (2, -3)):
            p1, p2 = shifted_pair(q1, m1), shifted_pair(q2, m2)
            v = pairs_isomorphic(p1, p2)
            if isinstance(expected, dict):
                assert v.to_json(q1.ring) == expected, (q1, q2)
            elif expected is not None:
                assert v.verdict == expected, (q1, q2)
            assert v.verdict == {"similar": "isomorphic", "not_similar": "not_isomorphic", "unknown": "unknown"}[s.verdict]
            assert v.witness is None or v.witness.verify(p1, p2)


def test_no_search_is_left_in_the_library():
    # the brute-force and replaced routes live in tests/oracles.py only
    src = Path(pairs.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
    for name in (
        "_bounded_witness_search",
        "_iter_unit_matrices",
        "_spiral",
        "pairs_isomorphic_search",
        "_algebra_map_candidates",
        ".units()",
        '"value_set"',
        "_value_set_screen",
        "_diagonalize_rational",
    ):
        assert name not in text, name


def test_the_modular_witnesses_are_residue_kernels():
    # the ModularRing route of the local witnesses lives in tests/oracles.py
    # only; binquad.modular computes on ints mod p^k and builds no ring,
    # form or mat2 matrix
    src = Path(pairs.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
    for name in ("_diagonalize", "_local_witness", "_canonical2", "_dyadic_witness"):
        assert name not in text, name
    modular = (src / "modular.py").read_text()
    for name in ("ModularRing", "BinaryQuadraticForm", "mat2", ".act("):
        assert name not in modular, name


def test_the_action_and_the_tau_product_are_written_once():
    # q(Mv) is ring.basis_change and the <1, tau> product clifford.tau_product,
    # and no copy of either is left in the library
    src = Path(pairs.__file__).parent
    texts = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    text = "\n".join(texts.values())
    for name in ("_coeffs_under", "_norm_triple", "def _mul("):
        assert name not in text, name
    for module, name in (("ring.py", "def basis_change("), ("clifford.py", "def tau_product(")):
        assert text.count(name) == 1 and name in texts[module], name
    assert norm.tau_product is clifford.tau_product
    for caller in (form, integral, modular, norm):
        assert caller.basis_change is ring.basis_change, caller.__name__


def test_pairs_over_an_unfactorable_modulus_answer_unknown_in_time():
    # similar cannot factor n, whose least prime factor is past the trial
    # bound; the pair verdict keeps that reason instead of searching over
    # the units of Z/n
    R = ModularRing(1000003 * 1000033)
    p1 = form_to_pair(BinaryQuadraticForm(R, 1, 0, 1))
    p2 = form_to_pair(BinaryQuadraticForm(R, 1, 0, 3))
    start = time.perf_counter()
    v = pairs_isomorphic(p1, p2)
    assert time.perf_counter() - start < 2
    assert json.dumps(v.to_json(R), separators=(",", ":")) == '{"verdict":"unknown","reason":"factoring","bound":1000000}'

