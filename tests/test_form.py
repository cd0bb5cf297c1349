import copy
import json
import pickle
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from binquad.errors import NotDefinite, NotInvertible, UsageError
from binquad.form import (
    BinaryQuadraticForm,
    SimilarityWitness,
    bqf,
    properly_equivalent,
    reduce_definite,
    reduce_triple,
    similar,
)
from binquad.mat2 import mdet, mmul
from binquad.ring import ModularRing, QQ, ZZ
from oracles import (
    bounded_witness_search,
    definite_reduction_oracle,
    rational_similarity_product,
    value_set_mod,
)

small = st.integers(min_value=-8, max_value=8)


def test_evaluate_examples():
    assert bqf(1, 1, 6).evaluate(1, 1) == 8
    q = bqf(2, 1, 3)
    assert q.evaluate(2, 0) == 8 == 4 * q.evaluate(1, 0)
    assert bqf(0, 0, 0).evaluate(5, 7) == 0


@given(small, small, small, small, small)
def test_evaluate_scales_quadratically(a, b, c, k, x):
    q = bqf(a, b, c)
    assert q.evaluate(k * x, k) == k * k * q.evaluate(x, 1)


def test_polar_examples():
    q = bqf(2, 1, 3)
    assert q.polar((1, 0), (0, 1)) == 1
    assert q.polar((0, 1), (1, 0)) == 1
    assert bqf(1, 0, 1).polar((1, 1), (1, 1)) == 4


def test_discriminant_examples():
    assert bqf(2, 1, 3).discriminant() == (23, -23)
    assert bqf(1, 0, 1).discriminant() == (4, -4)
    assert bqf(1, 4, 4).discriminant() == (0, 0)


def test_is_primitive():
    assert not bqf(2, 4, 6).is_primitive()
    assert bqf(2, 1, 3).is_primitive()
    assert bqf(0, 1, 0).is_primitive()
    # over Q: nonzero means primitive
    assert BinaryQuadraticForm(QQ, 0, 0, 2).is_primitive()
    assert not BinaryQuadraticForm(QQ, 0, 0, 0).is_primitive()
    # over Z/n: the lifted gcd together with n decides
    assert not BinaryQuadraticForm(ModularRing(6), 2, 4, 2).is_primitive()
    assert BinaryQuadraticForm(ModularRing(6), 2, 3, 0).is_primitive()


def test_act_example_against_direct_evaluation():
    q = bqf(1, 0, 1)
    M = ((1, 1), (0, 1))
    q2 = q.act(M, 1)
    assert q2.coeffs() == (1, 2, 2)
    # oracle: evaluating q on the transformed basis vectors
    for x, y in ((1, 0), (0, 1), (1, 1), (2, -3)):
        assert q2.evaluate(x, y) == q.evaluate(x + y, y)


def test_act_identity_and_scaling():
    q = bqf(3, -2, 5)
    assert q.act(((1, 0), (0, 1)), 1) == q
    assert bqf(1, 0, 1).act(((1, 0), (0, 1)), -1).coeffs() == (-1, 0, -1)


def test_act_rejects_non_units():
    with pytest.raises(NotInvertible):
        bqf(1, 0, 1).act(((2, 0), (0, 1)), 1)
    with pytest.raises(NotInvertible):
        bqf(1, 0, 1).act(((1, 0), (0, 1)), 2)


def _random_gl2(rng):
    # random SL2 word in the two generators, possibly conjugated
    S = ((0, -1), (1, 0))
    M = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(-3, 3)
        M = mmul(ZZ, M, ((1, k), (0, 1)))
        if rng.random() < 0.5:
            M = mmul(ZZ, M, S)
    if rng.random() < 0.5:
        M = mmul(ZZ, M, ((1, 0), (0, -1)))
    return M


def test_act_is_a_right_action():
    rng = random.Random(11)
    for _ in range(200):
        q = bqf(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
        M1, M2 = _random_gl2(rng), _random_gl2(rng)
        u1, u2 = rng.choice((1, -1)), rng.choice((1, -1))
        lhs = q.act(M1, u1).act(M2, u2)
        rhs = q.act(mmul(ZZ, M1, M2), u1 * u2)
        assert lhs == rhs


def test_act_preserves_disc_and_content():
    rng = random.Random(13)
    for _ in range(100):
        q = bqf(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        M = _random_gl2(rng)
        u = rng.choice((1, -1))
        q2 = q.act(M, u)
        d = q.discriminant()[1]
        assert q2.discriminant()[1] == u * u * mdet(ZZ, M) ** 2 * d == d
        if not q.is_zero():
            assert q2.content() == q.content()


def _brute_reduced_equivalent(q, bound=10):
    """Exhaustive SL2 search for a reduced form equivalent to q."""
    rng = [0]
    for k in range(1, bound + 1):
        rng.extend((k, -k))
    for m00, m10, m01, m11 in product(rng, repeat=4):
        if m00 * m11 - m01 * m10 != 1:
            continue
        r = q.act(((m00, m01), (m10, m11)), 1)
        a, b, c = r.coeffs()
        if -a < b <= a <= c and (b >= 0 or a != c):
            return r
    return None


def test_reduce_definite_examples():
    r, M = reduce_definite(bqf(4, 5, 3))
    assert r.coeffs() == (2, -1, 3)
    assert bqf(4, 5, 3).act(M, 1) == r
    assert mdet(ZZ, M) == 1
    assert _brute_reduced_equivalent(bqf(4, 5, 3)) == r

    r, M = reduce_definite(bqf(1, 1, 1))
    assert r.coeffs() == (1, 1, 1)

    r, M = reduce_definite(bqf(2, 2, 3))
    assert r.coeffs() == (2, 2, 3)


def test_reduce_definite_idempotent_and_orbit_constant():
    rng = random.Random(17)
    n = 0
    while n < 60:
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(1, 9)
        if b * b - 4 * a * c >= 0:
            continue
        q = bqf(a, b, c)
        r, _ = reduce_definite(q)
        assert reduce_definite(r)[0] == r
        M = _random_gl2(rng)
        if mdet(ZZ, M) == 1:
            assert reduce_definite(q.act(M, 1))[0] == r
        n += 1


def test_reduce_definite_rejections():
    with pytest.raises(NotDefinite):
        reduce_definite(bqf(1, 0, -1))
    with pytest.raises(NotDefinite):
        reduce_definite(bqf(-1, 0, -1))
    with pytest.raises(NotDefinite):
        reduce_definite(bqf(1, 2, 1))
    with pytest.raises(NotDefinite):
        reduce_definite(BinaryQuadraticForm(QQ, 1, 0, 1))


def test_similar_definite_examples():
    v = similar(bqf(4, 5, 3), bqf(2, -1, 3))
    assert v.is_similar and v.witness.verify(bqf(4, 5, 3), bqf(2, -1, 3))

    v = similar(bqf(2, 1, 3), bqf(2, -1, 3))
    assert v.is_similar and v.witness.verify(bqf(2, 1, 3), bqf(2, -1, 3))

    v = similar(bqf(1, 0, 1), bqf(1, 1, 1))
    assert v.verdict == "not_similar" and v.reason == "discriminant"


def test_similar_handles_signs_and_scales():
    # negative definite vs positive definite: unit -1 bridges them
    v = similar(bqf(2, 1, 3), bqf(-2, -1, -3))
    assert v.is_similar and v.witness.u == -1
    v = similar(bqf(0, 0, 1), bqf(0, 0, -1))
    assert v.is_similar


def test_similar_value_set_screen():
    # the value sets mod 5 differ, and the genus characters see it
    v = similar(bqf(1, 0, -10), bqf(2, 0, -5))
    assert v.verdict == "not_similar"
    assert v.reason == "genus"


def test_similar_unknown_is_honest():
    # Similar through M = ((-3, -17), (-1, -6)), det 1, u = 1: its entries
    # lie past bound 12, so only the cycle of reduced forms finds it.
    q1, q2 = bqf(1, 0, -34), bqf(2, 0, -17)
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)
    assert SimilarityWitness(((-3, -17), (-1, -6)), 1).verify(q1, q2)
    # D = 49 is a square: x*(x + 7y) and x*(3x + 7y) have the canonical
    # split forms (0, 7, 1) and (0, 7, 5), whose classes u = -1 and
    # y -> -y do not join.  Over Z only the cycle limit leaves an unknown.
    v = similar(bqf(1, 7, 0), bqf(3, 7, 0))
    assert v.to_json(ZZ) == {"verdict": "not_similar", "reason": "split_form"}


def test_similar_content_screen():
    v = similar(bqf(1, 0, 4), bqf(2, 0, 2))
    assert v.verdict == "not_similar" and v.reason in ("content", "definite_reduction")
    v = similar(bqf(2, 0, 2), bqf(1, 0, 4))
    assert v.verdict == "not_similar"


def test_similar_over_modular_ring():
    R = ModularRing(5)
    q1 = BinaryQuadraticForm(R, 1, 0, 1)
    q2 = BinaryQuadraticForm(R, 2, 0, 2)  # unit scaling by 2
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)


def test_similar_over_rationals():
    q1 = BinaryQuadraticForm(QQ, 1, 0, 1)
    q2 = BinaryQuadraticForm(QQ, 2, 0, 2)
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)


def test_witnesses_reverify_on_probes():
    rng = random.Random(19)
    n = 0
    while n < 40:
        a = rng.randint(1, 6)
        c = rng.randint(1, 6)
        b = rng.randint(-6, 6)
        if b * b - 4 * a * c >= 0:
            continue
        q = bqf(a, b, c)
        M = _random_gl2(rng)
        u = rng.choice((1, -1))
        q2 = q.act(M, u)
        v = similar(q, q2)
        assert v.is_similar
        w = v.witness
        for probe in ((1, 0), (0, 1), (1, 1)):
            img = (
                w.m[0][0] * probe[0] + w.m[0][1] * probe[1],
                w.m[1][0] * probe[0] + w.m[1][1] * probe[1],
            )
            assert q2.evaluate(*img) == w.u * q.evaluate(*probe)
        n += 1


def test_properly_equivalent():
    assert properly_equivalent(bqf(4, 5, 3), bqf(2, -1, 3))
    assert not properly_equivalent(bqf(2, 1, 3), bqf(2, -1, 3))
    assert not properly_equivalent(bqf(2, 1, 3), bqf(1, 1, 6))
    # D = 4 is a square: decided by the canonical split form
    assert properly_equivalent(bqf(1, 0, -1), bqf(0, 2, 1))
    # discriminants -4 and -3 differ
    assert not properly_equivalent(bqf(1, 0, 1), bqf(1, 1, 1))
    with pytest.raises(NotDefinite):
        properly_equivalent(BinaryQuadraticForm(ModularRing(5), 1, 0, 1), BinaryQuadraticForm(ModularRing(5), 1, 0, 1))


@pytest.mark.parametrize(
    "ring1, ring2, error",
    [(QQ, QQ, NotDefinite), (ModularRing(5), ModularRing(5), NotDefinite), (ZZ, ModularRing(5), UsageError),
     (ModularRing(5), ModularRing(7), UsageError)],
    ids=["Q", "Z/5", "Z vs Z/5", "Z/5 vs Z/7"],
)
def test_properly_equivalent_checks_the_rings_first(ring1, ring2, error):
    # discriminants -4 and -8 differ in every one of these rings
    with pytest.raises(error):
        properly_equivalent(BinaryQuadraticForm(ring1, 1, 0, 1), BinaryQuadraticForm(ring2, 1, 0, 2))


positive_definite = st.tuples(
    st.integers(min_value=1, max_value=9), st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
).filter(lambda f: f[1] * f[1] < 4 * f[0] * f[2])
signs = st.sampled_from((1, -1))


@given(
    positive_definite,
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=3),
    signs,
    signs,
    st.tuples(small, small, small),
    signs,
    signs,
)
def test_definite_arm_agrees_with_the_reduction_oracle(f, a2, i, g, s1, s2, ks, n, u):
    # q2 is a form (a2, b2, c2) of q1's discriminant (or q1 itself), times a
    # sign and q1's scale g, moved by M = T^k1 L^k2 ((1, k3), (0, n)) and u;
    # the two contents differ when the second form's content differs from f's.
    D = f[1] * f[1] - 4 * f[0] * f[2]
    b2s = [b for b in range(-a2, a2 + 1) if (b * b - D) % (4 * a2) == 0]
    b2 = b2s[i % len(b2s)] if b2s else None
    second = f if b2 is None else (a2, b2, (b2 * b2 - D) // (4 * a2))
    q1 = bqf(*(s1 * g * x for x in f))
    k1, k2, k3 = ks
    M = mmul(ZZ, mmul(ZZ, ((1, k1), (0, 1)), ((1, 0), (k2, 1))), ((1, k3), (0, n)))
    q2 = bqf(*(s2 * g * x for x in second)).act(M, u)
    is_similar, is_proper = definite_reduction_oracle(q1, q2)
    v = similar(q1, q2)
    assert v.is_similar == is_similar
    if is_similar:
        assert v.witness.verify(q1, q2)
    else:
        assert v.reason == ("content" if q1.content() != q2.content() else "definite_reduction")
    assert properly_equivalent(q1, q2) == is_proper == properly_equivalent(q2, q1)


def test_definite_decisions_call_no_reduce_definite(monkeypatch):
    # Z decisions run on int triples in binquad.integral; reduce_definite
    # serves the reduce verb and proper_reduce only
    import binquad.cli
    import binquad.integral

    def refuse(*args, **kwargs):
        raise AssertionError("reduce_definite ran on a Z decision")

    patched = 0
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "binquad" and hasattr(mod, "reduce_definite"):
            monkeypatch.setattr(mod, "reduce_definite", refuse)
            patched += 1
    assert patched >= 4
    q1, q2 = bqf(4, 5, 3), bqf(-2, -1, -3)
    v = similar(q1, q2)
    assert v.is_similar and v.witness.u == -1 and v.witness.verify(q1, q2)
    v = similar(bqf(2, 1, 3), bqf(1, 1, 6))
    assert v.to_json(ZZ) == {"verdict": "not_similar", "reason": "definite_reduction"}
    assert properly_equivalent(q1, bqf(2, -1, 3))
    assert not properly_equivalent(bqf(2, 1, 3), bqf(2, -1, 3))
    assert not properly_equivalent(q1, q2)


def test_definite_similarity_reduces_three_forms(monkeypatch):
    # q1 under N = diag(1, +-1) and q2: at D < 0 the variants -q1 reduce
    # through the same positive form, so they reuse its reduction, negated;
    # the witnesses are those of the four separate reductions
    import binquad.integral

    calls = []

    def counted(a, b, c):
        calls.append((a, b, c))
        return reduce_triple(a, b, c)

    monkeypatch.setattr(binquad.integral, "reduce_triple", counted)
    for q1, q2, m, u in (
        ((4, 5, 3), (-2, -1, -3), [[-1, 0], [1, 1]], -1),
        ((2, 1, 3), (3, -1, 2), [[0, -1], [1, 0]], 1),
        ((-6, 2, -1), (1, 0, 5), [[-1, 1], [-1, 0]], -1),
        ((3, 1, 2), (-2, 1, -3), [[0, 1], [-1, 0]], -1),
    ):
        calls.clear()
        v = similar(bqf(*q1), bqf(*q2))
        assert v.to_json(ZZ) == {"verdict": "similar", "witness": {"m": m, "u": u}} and len(calls) == 3


def test_value_set_is_a_class_invariant():
    q = bqf(3, 2, 5)
    q2 = q.act(((2, 1), (1, 1)), 1)
    for m in range(2, 10):
        assert value_set_mod(q, m) == value_set_mod(q2, m)


def test_rational_action_scales_discriminant():
    from fractions import Fraction

    q = BinaryQuadraticForm(QQ, 1, 2, -3)
    M = ((Fraction(1, 2), 1), (0, 3))
    u = Fraction(-5, 7)
    q2 = q.act(M, u)
    det = Fraction(3, 2)
    assert q2.discriminant()[1] == u * u * det * det * q.discriminant()[1]


def test_form_json_round_trip():
    q = bqf(2, -1, 3)
    assert BinaryQuadraticForm.from_json(q.to_json()) == q
    w = SimilarityWitness(((1, 0), (0, -1)), 1)
    assert SimilarityWitness.from_json(w.to_json(ZZ), ZZ) == w


def test_similar_rational_square_class_screen():
    from fractions import Fraction

    # disc -4 against -8: their product 32 is not a rational square
    v = similar(BinaryQuadraticForm(QQ, 1, 0, 1), BinaryQuadraticForm(QQ, 1, 0, 2))
    assert v.verdict == "not_similar" and v.reason == "discriminant"
    q1 = BinaryQuadraticForm(QQ, 1, 0, 1)
    q2 = BinaryQuadraticForm(QQ, Fraction(1, 2), 1, 1)
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
units_q = rationals.filter(lambda u: u != 0)
tiny = st.integers(min_value=-1, max_value=1)


@given(
    st.tuples(rationals, rationals, rationals),
    st.tuples(rationals, rationals, rationals),
    st.tuples(tiny, tiny, tiny, tiny),
    units_q,
    st.booleans(),
)
def test_rational_screen_never_contradicts_the_search(c1, c2, m, u, moved):
    q1 = BinaryQuadraticForm(QQ, *c1)
    M = ((m[0], m[1]), (m[2], m[3]))
    if moved and m[0] * m[3] - m[1] * m[2] != 0:
        q2 = q1.act(M, u)
    else:
        q2 = BinaryQuadraticForm(QQ, *c2)
    if q1.is_zero() != q2.is_zero():
        return
    w = bounded_witness_search(q1, q2, 1)
    if w is not None:
        assert w.verify(q1, q2)
        assert similar(q1, q2).is_similar


@given(
    st.tuples(rationals, rationals, rationals),
    st.tuples(rationals, rationals, rationals, rationals),
    units_q,
)
def test_rational_similarity_is_decided_with_a_witness(c, m, u):
    q1 = BinaryQuadraticForm(QQ, *c)
    M = ((m[0], m[1]), (m[2], m[3]))
    if q1.is_zero() or m[0] * m[3] == m[1] * m[2]:
        return
    q2 = q1.act(M, u)
    v = similar(q1, q2)
    assert v.is_similar and v.witness.verify(q1, q2)
    v = similar(q2, q1)
    assert v.is_similar and v.witness.verify(q2, q1)


def test_rational_rank_one_forms_are_similar():
    from fractions import Fraction

    # disc 0: a nonzero multiple of a square of a linear form
    third = Fraction(1, 3)
    rank_one = [(1, 0, 0), (0, 0, Fraction(-3, 5)), (1, 2, 1), (4, -12, 9), (third, -2 * third, third)]
    forms = [BinaryQuadraticForm(QQ, *c) for c in rank_one]
    for q1, q2 in product(forms, repeat=2):
        v = similar(q1, q2)
        assert v.is_similar and v.witness.verify(q1, q2)


def _split_form(r, l1, l2):
    """r*(al*x + be*y)*(ga*x + de*y) over Q: a square discriminant, 0 when
    the two linear forms are proportional."""
    (al, be), (ga, de) = l1, l2
    return BinaryQuadraticForm(QQ, r * al * ga, r * (al * de + be * ga), r * be * de)


linear_q = st.tuples(rationals, rationals)


@given(
    st.one_of(st.tuples(rationals, rationals, rationals), st.tuples(units_q, linear_q, linear_q)),
    st.one_of(st.tuples(units_q, linear_q, linear_q), st.tuples(st.tuples(tiny, tiny, tiny, tiny), units_q)),
)
# one example per arm of the diagonalisation on each side, and D = 0
@example((1, (0, 1), (1, 0)), (1, (0, 1), (1, 0)))
@example((1, (0, 1), (1, 0)), (2, (1, 1), (1, -1)))
@example((1, (0, 1), (2, 3)), (2, (1, 1), (0, 1)))
@example((3, 1, 0), (Fraction(1, 2), (0, 1), (1, 2)))
@example((1, (1, 2), (1, 2)), (3, (0, 1), (0, 1)))
@example((0, 0, Fraction(-3, 5)), (1, (1, 2), (2, 4)))
def test_rational_witness_is_the_diagonalisation_product(f1, f2):
    # the closed-form witness is the product P2 diag(1, s) P1^-1 of the
    # oracle entry for entry, in each arm (a != 0; a = 0 and c != 0;
    # a = c = 0) and in rank 1
    from binquad.form import _rational_similarity

    q1 = _split_form(*f1) if isinstance(f1[1], tuple) else BinaryQuadraticForm(QQ, *f1)
    if isinstance(f2[1], tuple):
        q2 = _split_form(*f2)
    else:
        (m00, m01, m10, m11), u = f2
        M = ((m00, m01), (m10, m11))
        q2 = q1.act(M, u) if m00 * m11 != m01 * m10 else q1.neg()
    if q1.is_zero() or q2.is_zero():
        return
    found = _rational_similarity(q1.coeffs(), q2.coeffs())
    if type(found) is dict:
        return
    w = SimilarityWitness(*found)
    assert w == rational_similarity_product(q1, q2)
    assert {type(x) for x in (*w.m[0], *w.m[1], w.u)} == {Fraction}


def test_similar_is_the_one_place_that_checks_a_witness(monkeypatch):
    # the kernels answer with plain data; similar builds the witness and
    # refuses it when the check fails, on every ring and route, the
    # identity witness of two equal forms included
    import binquad.form as form

    third = Fraction(1, 3)
    cases = [
        (bqf(2, 1, 3), ((2, 1), (1, 1)), 1),  # D < 0
        (bqf(1, 3, -2), ((1, 1), (0, 1)), -1),  # D = 17
        (bqf(0, 3, 1), ((1, 1), (1, 2)), -1),  # D = 9
        (BinaryQuadraticForm(ModularRing(45), 3, 5, 14), ((2, 1), (1, 1)), 7),
        (BinaryQuadraticForm(QQ, third, -2, 5), ((1, 2), (3, 4)), Fraction(2, 5)),
    ]
    pairs = [(q, q.act(M, u)) for q, M, u in cases] + [(bqf(1, 0, 1), bqf(1, 0, 1))]
    assert all(similar(q1, q2).is_similar for q1, q2 in pairs)
    monkeypatch.setattr(SimilarityWitness, "verify", lambda self, q1, q2: False)
    for q1, q2 in pairs:
        with pytest.raises(AssertionError):
            similar(q1, q2)
    src = Path(form.__file__).parent
    for module in ("integral.py", "modular.py"):
        text = (src / module).read_text()
        for name in ("SimilarityWitness", "SimilarityVerdict", ".form"):
            assert name not in text, (module, name)


def test_rational_witness_needs_no_matrix_product(monkeypatch, capsys):
    # with a1*a2 != 0 the Q witness is written out and checked by its
    # coefficients: no matrix product, inverse or probe evaluation
    import binquad.form as form
    import binquad.mat2 as mat2
    from binquad.cli import run

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix product or probe ran on the Q path")

    third = Fraction(1, 3)
    q = BinaryQuadraticForm(QQ, third, -2, 5)
    cases = [
        (BinaryQuadraticForm(QQ, 1, 0, 1), BinaryQuadraticForm(QQ, Fraction(1, 2), 0, Fraction(9, 2))),
        (q, q.act(((2, third), (1, -1)), Fraction(-7, 2))),
        (BinaryQuadraticForm(QQ, 1, 2, 1), BinaryQuadraticForm(QQ, -4, 4, -1)),
        (BinaryQuadraticForm(QQ, 2, 1, -3), BinaryQuadraticForm(QQ, 1, 1, -6).act(((1, 1), (0, 5)), 3)),
    ]
    assert not hasattr(form, "minv") and not hasattr(form, "mapply") and not hasattr(mat2, "mapply")
    for mod, name in ((form, "mmul"), (mat2, "mmul"), (mat2, "minv")):
        monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(BinaryQuadraticForm, "evaluate", refuse)
    for q1, q2 in cases:
        assert q1.a * q2.a != 0
        v = similar(q1, q2)
        assert v.is_similar and v.witness.verify(q1, q2)
        assert run(["similar", json.dumps(q1.to_json()), json.dumps(q2.to_json())]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "similar"


# -- value semantics of the library's immutable types --------------------


def _values():
    """One value of each immutable type: a form, its algebra and pair, an
    ideal lattice, the witnesses and verdicts, a trace stage, a class group."""
    from binquad.clifford import AlgebraWitness, QuadraticAlgebra
    from binquad.norm import form_to_ideal
    from binquad.pairs import dual_form_trace, form_to_pair, pairs_isomorphic
    from binquad.picard import class_group
    from binquad.ring import RingHom

    q, M = bqf(2, 1, 3), ((1, 1), (0, 1))
    sv = similar(q, q.act(M, -1))
    pv = pairs_isomorphic(form_to_pair(q), form_to_pair(q.act(M, 1)))
    return [
        q, QuadraticAlgebra(ZZ, 1, 6), RingHom(ZZ, ModularRing(5)), form_to_pair(q), form_to_ideal(q),
        AlgebraWitness(0, 1), sv.witness, sv, pv.witness, pv, dual_form_trace(q)[1],
        class_group(-23),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_copy_pickle_and_stay_frozen(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value) and type(other) is type(value)
    field = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    if type(value).__name__ != "IdealLattice":
        assert hash(value) == hash(tuple(getattr(value, f) for f in value.__slots__))
    # the slot setters fill every field, and a value rebuilt from
    # __reduce__ holds the very same fields
    cls, fields = value.__reduce__()
    assert tuple(getattr(value, f) for f in value.__slots__) == fields
    assert tuple(getattr(cls(*fields), f) for f in value.__slots__) == fields


def test_no_field_is_set_by_name():
    # fields are set through the setters Value keeps for each slot
    src = Path(__file__).resolve().parents[1] / "src" / "binquad"
    for path in sorted(src.glob("*.py")):
        assert 'object.__setattr__(self, "' not in path.read_text(), path.name


def _fields(v):
    return tuple(getattr(v, f) for f in v.__slots__)


def _ring(kind):
    return ZZ if kind == "Z" else QQ if kind == "Q" else ModularRing(kind)


def _coeffs(draw, ring):
    coeff = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3) if ring == QQ else st.integers(-2, 6)
    return [draw(coeff) for _ in "abc"]


@st.composite
def _form_pairs(draw):
    """Two forms over Z, Z/n or Q: drawn apart, equal over two ring objects
    of one kind, or one coefficient apart."""
    kinds = st.sampled_from(["Z", 4, 5, 6, "Q"])
    kind = draw(kinds)
    ring = _ring(kind)
    coeffs = _coeffs(draw, ring)
    how = draw(st.sampled_from(["apart", "equal", "near"]))
    ring2 = _ring(draw(kinds) if how == "apart" else kind)
    coeffs2 = _coeffs(draw, ring2) if how == "apart" else list(coeffs)
    if how == "near":
        coeffs2[draw(st.integers(0, 2))] += 1
    return BinaryQuadraticForm(ring, *coeffs), BinaryQuadraticForm(ring2, *coeffs2)


@given(_form_pairs(), st.sampled_from([ZZ, QQ, ModularRing(5), ModularRing(11)]))
@example((BinaryQuadraticForm(ModularRing(5), 1, 0, 1), BinaryQuadraticForm(ModularRing(5), 6, 0, 1)), ZZ)
@example((BinaryQuadraticForm(ZZ, 1, 0, 1), BinaryQuadraticForm(QQ, 1, 0, 1)), ModularRing(5))
def test_form_equality_and_hash_are_those_of_the_field_tuple(forms, ring):
    q1, q2 = forms
    # the hand-written __eq__ and __hash__ against the tuple route they replaced
    assert (q1 == q2) is (_fields(q1) == _fields(q2)) and (q2 == q1) is (q1 == q2)
    assert (q1 != q2) is (_fields(q1) != _fields(q2))
    assert hash(q1) == hash(_fields(q1)) and hash(q2) == hash(_fields(q2))
    # never equal to an algebra, a tuple, or the same coefficients over another ring
    from binquad.clifford import QuadraticAlgebra

    assert q1 != QuadraticAlgebra(q1.ring, q1.b, q1.a * q1.c) and not q1 == _fields(q1) and q1 != q1.coeffs()
    if ring != q1.ring and all(Fraction(v).denominator == 1 for v in q1.coeffs()):
        other = BinaryQuadraticForm(ring, *(int(v) for v in q1.coeffs()))
        if other.coeffs() == q1.coeffs():
            assert q1 != other and not q1 == other


def test_value_equality_and_repr():
    from binquad.clifford import AlgebraWitness
    from binquad.form import SimilarityVerdict
    from binquad.norm import IdealLattice, form_to_ideal
    from binquad.pairs import PairVerdict

    assert repr(bqf(1, 2, 3)) == "BinaryQuadraticForm(ring=Z, a=1, b=2, c=3)"
    assert repr(SimilarityVerdict("not_similar", reason="genus")) == (
        "SimilarityVerdict(verdict='not_similar', witness=None, reason='genus', bound=None)"
    )
    assert repr(form_to_ideal(bqf(2, 1, 3))) == (
        "IdealLattice(alg=QuadraticAlgebra(ring=Z, t=1, nm=6), basis=((2, 1), (0, -1)))"
    )
    # values of different classes differ even with equal fields
    assert SimilarityVerdict("unknown") != PairVerdict("unknown")
    assert AlgebraWitness(1, 1) != SimilarityWitness(1, 1)
    assert bqf(1, 2, 3) != (ZZ, 1, 2, 3)
    assert bqf(1, 2, 3) == BinaryQuadraticForm(ZZ, 1, 2, 3) and bqf(1, 2, 3) != bqf(1, 2, 4)
    # an ideal lattice keeps its own equality, as a lattice: another basis
    # of the same lattice is equal to it and hashes alike
    I = form_to_ideal(bqf(2, 1, 3))
    (p, q), (r, s) = I.basis
    J = IdealLattice(I.alg, ((p, p + q), (r, r + s)))
    assert J.basis != I.basis and J == I and hash(J) == hash(I)
