"""The straight-line integer kernels against their oracles, in value and in
type: one ring call per value or matrix row against normalize on each
value; the one basis change q(Mv), the one product in <1, tau>, the
unrolled 2x2 product, the module relation checked entry by entry and the
similarity witness check over Q on cleared integers against the seed
definitions of tests/test_arithmetic.py, on inputs those tests do not
draw; and, against the routes they replaced in tests/oracles.py, the
closed-form witness over Q, composition and inversion on Hermite triples,
and the local similarity witnesses over Z/n on residues."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from binquad.clifford import QuadraticAlgebra, even_clifford, module_axiom_holds, quat_mul, tau_product
import binquad.mat2
import binquad.modular
from binquad.compose import compose, inverse_form
from binquad.form import (
    BinaryQuadraticForm,
    SimilarityWitness,
    _rational_similarity,
    bqf,
    similar,
)
from binquad.mat2 import mat, mdet, mident, mmul
from binquad.modular import _canonical_2adic, _diagonal_odd, _witness_2adic, _witness_odd, similar_mod
from binquad.ring import QQ, ZZ, IntegerRing, ModularRing, RingHom, basis_change
from oracles import (
    _canonical2,
    _diagonalize,
    _dyadic_witness,
    _local_witness,
    compose_by_lattices,
    inverse_by_lattices,
    normalize_each,
    rational_similarity_product,
    similar_mod_by_rings,
)
from test_arithmetic import (
    seed_act,
    seed_disc,
    seed_discriminant,
    seed_evaluate,
    seed_madd,
    seed_mmul,
    seed_mscale,
    seed_polar,
    seed_similarity_verify,
)

rings = st.one_of(st.just(ZZ), st.just(QQ), st.integers(min_value=2, max_value=60).map(ModularRing))
ints = st.one_of(st.integers(min_value=-12, max_value=12), st.integers(min_value=-(2**80), max_value=2**80))
# denominators up to 12 make d and L above 1 common
fractions = st.one_of(
    st.builds(Fraction, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)),
    st.fractions(max_denominator=10**6),
)


def elem(data, R):
    return R.normalize(data.draw(fractions if R == QQ else ints))


def matrix(data, R):
    return tuple(tuple(elem(data, R) for _ in range(2)) for _ in range(2))


def typed(v):
    """Every scalar in a nest of tuples as (type name, value)."""
    if isinstance(v, tuple):
        return tuple(typed(x) for x in v)
    return (type(v).__name__, v)


# every kind of value a caller may hand a ring: ints and bools, integral and
# non-integral Fractions, floats and strings
anything = st.one_of(
    ints,
    st.booleans(),
    st.integers(min_value=-50, max_value=50).map(Fraction),
    fractions,
    st.floats(),
    st.text(max_size=3),
)
all_rings = st.one_of(rings, st.integers(min_value=2**64, max_value=2**200).map(ModularRing))
# a value's two or three coefficients; ints, bools and Fractions alone often
# take the fast path
value_lists = st.one_of(
    st.lists(anything, min_size=2, max_size=3),
    st.lists(st.one_of(ints, st.booleans(), fractions), min_size=2, max_size=3),
)


def outcome(fn, *args):
    """The typed result of fn(*args), or the type and message of what it raised."""
    try:
        return "ok", typed(fn(*args))
    except Exception as e:
        return "raised", type(e), str(e)


def fields(cls, R, *vs):
    v = cls(R, *vs)
    assert v.ring is R
    return tuple(getattr(v, name) for name in cls.__slots__[1:])


@given(all_rings, value_lists)
@example(ZZ, [3, True, -2])
@example(ZZ, [False, 7])
@example(ModularRing(5), [True, 7])
@example(QQ, [Fraction(1, 2), 3, Fraction(4)])
@example(QQ, [2, Fraction(1, 3)])
# the last coefficient alone is not of the ring's element type
@example(ModularRing(5), [1, 2, Fraction(1, 2)])
@example(ModularRing(5), [1, 2, Fraction(6)])
@example(ZZ, [1, 2, "x"])
@example(QQ, [Fraction(1), Fraction(2), 3])
@example(ModularRing(5), [3, 1.5])
def test_normalize_all_matches_normalize_per_field(R, vs):
    assert outcome(R.normalize_all, *vs) == outcome(normalize_each, R, *vs)
    cls = BinaryQuadraticForm if len(vs) == 3 else QuadraticAlgebra
    assert outcome(fields, cls, R, *vs) == outcome(normalize_each, R, *vs)


@given(all_rings, st.data())
def test_discriminants_reduce_like_normalize(R, data):
    raw = st.one_of(ints, fractions) if R == QQ else st.one_of(ints, st.booleans())
    q = BinaryQuadraticForm(R, *(data.draw(raw) for _ in range(3)))
    assert typed(q.discriminant()) == typed(seed_discriminant(q))
    for C in (even_clifford(q), QuadraticAlgebra(R, data.draw(raw), data.draw(raw))):
        assert typed(C.disc()) == typed(seed_disc(C))


def test_modular_values_from_ints_take_no_single_value_normalize(monkeypatch):
    def refuse(self, v):
        raise AssertionError("a single-value normalize ran")

    monkeypatch.setattr(ModularRing, "normalize", refuse)
    for n in (2, 9, 2**89 - 1):
        R = ModularRing(n)
        for a, b, c in ((1, 2, 3), (-7, 10**30, 0), (n, -n, 2 * n + 1)):
            q = BinaryQuadraticForm(R, a, b, c)
            d = b * b - 4 * a * c
            assert q.coeffs() == (a % n, b % n, c % n)
            assert q.discriminant() == (-d % n, d % n)
            assert even_clifford(q).disc() == d % n


def test_mat2_rows_take_no_single_value_normalize(monkeypatch):
    def refuse(self, v):
        raise AssertionError("a single-value normalize ran")

    monkeypatch.setattr(ModularRing, "normalize", refuse)
    monkeypatch.setattr(IntegerRing, "normalize", refuse)
    for R in (ZZ, ModularRing(2), ModularRing(9), ModularRing(2**89 - 1)):
        m = R.modulus
        red = (lambda v: v % m) if m else (lambda v: v)
        A, B = ((1, -7), (10**30, 3)), ((2, 0), (-5, 2**70))
        assert mat(R, A) == tuple(tuple(map(red, row)) for row in A)
        assert mident(R) == ((1, 0), (0, 1))
        prod = ((1 * 2 + 7 * 5, -7 * 2**70), (10**30 * 2 - 15, 3 * 2**70))
        assert mmul(R, A, B) == tuple(tuple(map(red, row)) for row in prod)


@given(all_rings, st.lists(anything, min_size=4, max_size=4))
def test_mat2_rows_match_normalize_per_entry(R, vs):
    rows = ((vs[0], vs[1]), (vs[2], vs[3]))
    per_entry = lambda R, rows: tuple(normalize_each(R, *row) for row in rows)
    assert outcome(mat, R, rows) == outcome(per_entry, R, rows)
    assert typed(mident(R)) == typed(per_entry(R, ((1, 0), (0, 1))))


# the three arrows RingHom allows: Z -> Z/n, Z -> Q and Z/n -> Z/m with m | n
homs = st.one_of(
    st.one_of(st.integers(min_value=2, max_value=60), st.integers(min_value=2**64, max_value=2**200)).map(
        lambda n: RingHom(ZZ, ModularRing(n))
    ),
    st.just(RingHom(ZZ, QQ)),
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=2, max_value=12)).map(
        lambda km: RingHom(ModularRing(km[0] * km[1]), ModularRing(km[1]))
    ),
)


@given(homs, st.lists(ints, min_size=7, max_size=7))
def test_base_change_matches_the_per_value_route(hom, vs):
    # a form, an algebra and a matrix over hom.src reach hom.dst through one
    # destination call per value or row, with the values and types that hom
    # gives each value
    S = hom.src
    q, C = BinaryQuadraticForm(S, *vs[:3]), QuadraticAlgebra(S, *vs[3:5])
    M = mat(S, ((vs[0], vs[5]), (vs[6], vs[2])))
    q2, C2 = q.map(hom), C.map(hom)
    assert q2.ring == C2.ring == hom.dst
    assert typed(q2.coeffs()) == typed(tuple(hom(v) for v in q.coeffs()))
    assert typed((C2.t, C2.nm)) == typed((hom(C.t), hom(C.nm)))
    assert typed(mat(hom.dst, M)) == typed(tuple(tuple(hom(v) for v in row) for row in M))


@given(all_rings, st.data())
def test_basis_change_matches_the_normalized_method(R, data):
    # q(M e1), b_q(M e1, M e2) and q(M e2) as the seed evaluate and polar
    # give them, M with normal entries or plain ints over every ring
    q, M = BinaryQuadraticForm(R, *(elem(data, R) for _ in range(3))), matrix(data, R)
    raw = ((data.draw(ints), data.draw(ints)), (data.draw(ints), data.draw(ints)))
    for N in (M, raw):
        v, w = (N[0][0], N[1][0]), (N[0][1], N[1][1])
        want = (seed_evaluate(q, *v), seed_polar(q, v, w), seed_evaluate(q, *w))
        assert typed(R.normalize_all(*basis_change(q.a, q.b, q.c, N))) == typed(want)
    # act scales the action by u and normalizes once
    if R == ZZ:
        k, j = data.draw(ints), data.draw(ints)
        M = mmul(R, ((1, k), (0, 1)), ((1, 0), (j, 1)))
        u = data.draw(st.sampled_from([1, -1]))
    else:
        u = elem(data, R)
        assume(R.is_unit(mdet(R, M)) and R.is_unit(u))
    assert typed(q.act(M, u).coeffs()) == typed(seed_act(q, M, u).coeffs())


@given(st.data())
def test_norm_forms_are_the_action_on_the_norm(data):
    # the norm form on the columns alpha, beta of B: N(alpha), the polar
    # value N(alpha + beta) - N(alpha) - N(beta), and N(beta)
    t, nm, B = data.draw(ints), data.draw(ints), matrix(data, ZZ)
    N = QuadraticAlgebra(ZZ, t, nm).norm
    (x1, x2), (y1, y2) = B
    A, C = N((x1, y1)), N((x2, y2))
    assert basis_change(1, t, nm, B) == (A, N((x1 + x2, y1 + y2)) - A - C, C)


@given(all_rings, st.data())
def test_algebra_product_matches_the_lattice_product(R, data):
    # tau_product, which the lattice core multiplies with, is the product of
    # the elements (x, y, 0, 0) of the rank-4 algebra of the form (1, t, nm)
    C = QuadraticAlgebra(R, elem(data, R), elem(data, R))
    q = BinaryQuadraticForm(R, 1, C.t, C.nm)
    z, w = (elem(data, R), elem(data, R)), (elem(data, R), elem(data, R))
    even = lambda z, w: quat_mul(q, (*z, 0, 0), (*w, 0, 0))[:2]
    assert typed(R.normalize_all(*tau_product(C.t, C.nm, z, w))) == typed(even(z, w))
    # plain ints, as the lattice core hands them over
    z, w = (data.draw(ints), data.draw(ints)), (data.draw(ints), data.draw(ints))
    assert typed(R.normalize_all(*tau_product(C.t, C.nm, z, w))) == typed(even(z, w))


@given(rings, st.data())
def test_unrolled_mat2_matches_generator_expressions(R, data):
    # the seed product is a generator expression over ring operations
    A, B = matrix(data, R), matrix(data, R)
    assert typed(mmul(R, A, B)) == typed(seed_mmul(R, A, B))
    # unnormalized operands: plain ints over every ring
    raw = ((data.draw(ints), data.draw(ints)), (data.draw(ints), data.draw(ints)))
    assert typed(mmul(R, raw, A)) == typed(seed_mmul(R, raw, A))


def by_products(C, M):
    """M^2 == t*M - nm*I, through the seed matrix product, sum and scaling."""
    R = C.ring
    M = mat(R, M)
    return seed_mmul(R, M, M) == seed_madd(R, seed_mscale(R, C.t, M), seed_mscale(R, R.neg(C.nm), mident(R)))


@given(rings, st.data())
def test_module_axiom_entrywise_matches_matrix_products(R, data):
    a, b, c, m, x = (elem(data, R) for _ in range(5))
    # the Clifford pair of (a, b, c) with its generator shifted by m, moved
    # by the elementary matrix E = ((1, x), (0, 1)): E M E^-1 satisfies the
    # same relation
    C = QuadraticAlgebra(R, b + 2 * m, b * m + m * m + a * c)
    M = mmul(R, mmul(R, ((1, x), (0, 1)), ((b + m, c), (-a, m))), ((1, -x), (0, 1)))
    assert by_products(C, M)
    assert module_axiom_holds(C, M)
    # near misses: one entry moved; a random algebra and matrix
    entries = [M[0][0], M[0][1], M[1][0], M[1][1]]
    i, delta = data.draw(st.integers(0, 3)), elem(data, R)
    entries[i] = R.normalize(entries[i] + delta)
    moved = ((entries[0], entries[1]), (entries[2], entries[3]))
    D = QuadraticAlgebra(R, elem(data, R), elem(data, R))
    regular = mat(R, ((0, -D.nm), (1, D.t)))  # tau acting on D itself
    for alg, N in ((C, moved), (D, M), (D, matrix(data, R)), (C, regular), (D, regular)):
        assert module_axiom_holds(alg, N) == by_products(alg, N)


def rational_form(data):
    return BinaryQuadraticForm(QQ, *(data.draw(fractions) for _ in range(3)))


def invertible(data):
    M = tuple(tuple(data.draw(fractions) for _ in range(2)) for _ in range(2))
    assume(M[0][0] * M[1][1] != M[0][1] * M[1][0])
    return M


def check_witness_and_near_misses(data, q2, M, u):
    # q(v) = q2(Mv)/u, so (M, u) carries q to q2
    q = q2.act(M, 1 / u)
    w = SimilarityWitness(M, u)
    assert w.verify(q, q2) and seed_similarity_verify(w, q, q2)
    delta = data.draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3)]))
    entries = [M[0][0], M[0][1], M[1][0], M[1][1]]
    i = data.draw(st.integers(0, 3))
    entries[i] += delta
    coeffs = list(q.coeffs())
    coeffs[data.draw(st.integers(0, 2))] += delta
    near = [
        (SimilarityWitness(((entries[0], entries[1]), (entries[2], entries[3])), u), q, q2),
        (SimilarityWitness(M, u + delta), q, q2),
        (SimilarityWitness(M, -u), q, q2),
        (SimilarityWitness(M, 0), q, q2),
        (SimilarityWitness(((M[0][0], M[0][1]), (0, 0)), u), q, q2),
        (w, BinaryQuadraticForm(QQ, *coeffs), q2),
        (w, q2, q),
    ]
    for W, f, f2 in near:
        assert W.verify(f, f2) == seed_similarity_verify(W, f, f2)


@given(st.data())
def test_integer_witness_check_matches_fractions(data):
    check_witness_and_near_misses(data, rational_form(data), invertible(data), data.draw(fractions.filter(bool)))


@given(st.data())
def test_integer_witness_check_with_denominators(data):
    # d = 6 for M, L2 = 35 for q2, L1 != 1 for q, u = -3/2
    F = Fraction
    q2 = BinaryQuadraticForm(QQ, F(2, 5), F(-1, 7), 3)
    check_witness_and_near_misses(data, q2, ((F(1, 2), F(5, 3)), (-1, F(7, 6))), F(-3, 2))


def shaped_form(data):
    """A nonzero form over Q in one of the diagonalisation arms: a != 0;
    a = 0 and c != 0; a = c = 0; or D = 0, a scalar times a square."""
    arm = data.draw(st.sampled_from(["a", "c", "b", "square"]))
    x, y, z = (data.draw(fractions.filter(bool)) for _ in range(3))
    if arm == "a":
        return BinaryQuadraticForm(QQ, x, data.draw(fractions), data.draw(fractions))
    if arm == "c":
        return BinaryQuadraticForm(QQ, 0, data.draw(fractions), x)
    if arm == "b":
        return BinaryQuadraticForm(QQ, 0, x, 0)
    alpha = data.draw(st.sampled_from([0, y]))
    return BinaryQuadraticForm(QQ, x * alpha * alpha, 2 * x * alpha * z, x * z * z)


@given(st.data())
def test_closed_form_rational_witness_matches_fraction_route(data):
    q1 = shaped_form(data)
    moved = data.draw(st.booleans())
    q2 = q1.act(invertible(data), data.draw(fractions.filter(bool))) if moved else shaped_form(data)
    if data.draw(st.booleans()):
        q1, q2 = q2, q1
    # the screen on cleared integer discriminants passes every moved pair,
    # and every pair it passes gets a witness that checks
    new = _rational_similarity(q1.coeffs(), q2.coeffs())
    if type(new) is dict:
        assert new == dict(reason="discriminant") and not moved
        return
    (M, u), old = new, rational_similarity_product(q1, q2)
    w = SimilarityWitness(M, u)
    assert w.verify(q1, q2) and w.to_json(QQ) == old.to_json(QQ)
    assert typed(M) == typed(old.m) and typed(u) == typed(old.u)


@st.composite
def forms_of_disc(draw, D):
    """A primitive form of discriminant D; at square D = m^2 half of them
    are (0, +-m, c) or (c, +-m, 0)."""
    m = isqrt(D) if D > 0 else -1
    if m * m == D and draw(st.booleans()):
        b, x = draw(st.sampled_from((m, -m))), draw(st.integers(min_value=-30, max_value=30))
        a, c = (0, x) if draw(st.booleans()) else (x, 0)
    else:
        b = 2 * draw(st.integers(min_value=-30, max_value=30)) + D % 2
        n = (b * b - D) // 4
        sign = draw(st.sampled_from((1, -1)))
        if n == 0:
            a, c = sign * draw(st.integers(min_value=1, max_value=30)), 0
        else:
            a = sign * draw(st.sampled_from([d for d in range(1, abs(n) + 1) if n % d == 0]))
            c = n // a
    assume(gcd(a, b, c) == 1)
    return bqf(a, b, c)


@st.composite
def discriminants(draw, kind):
    if kind == "square":
        return draw(st.integers(min_value=1, max_value=40)) ** 2
    D = draw(st.integers(min_value=1, max_value=3000)) * (-1 if kind == "negative" else 1)
    assume(D % 4 in (0, 1) and (D < 0 or isqrt(D) ** 2 != D))
    return D


@pytest.mark.parametrize("kind", ["negative", "non-square positive", "square"])
@given(st.data())
def test_compose_and_inverse_match_the_lattice_route(kind, data):
    D = data.draw(discriminants(kind))
    q1, q2 = data.draw(forms_of_disc(D)), data.draw(forms_of_disc(D))
    for twist in (False, True):
        got, want = compose(q1, q2, twist), compose_by_lattices(q1, q2, twist)
        assert typed(got.coeffs()) == typed(want.coeffs()) and got == want
    for q in (q1, q2):
        got, want = inverse_form(q), inverse_by_lattices(q)
        assert typed(got.coeffs()) == typed(want.coeffs()) and got == want


# p^k for the odd primes with p^k <= 3^5, and 2^k for k <= 8, drawn half the time
ODD_POWERS = [(p, k) for p in range(3, 244, 2) if all(p % d for d in range(3, p, 2)) for k in range(1, 6) if p**k <= 3**5]
prime_powers = st.one_of(st.sampled_from(ODD_POWERS), st.sampled_from([(2, k) for k in range(1, 9)]))


def unit(x: int, n: int) -> int:
    """The least unit mod n from x up."""
    while gcd(x, n) != 1:
        x += 1
    return x


@st.composite
def modular_pairs(draw, n):
    """Two forms over Z/n: the second moved from the first by some M in GL2
    and a unit u, or drawn on its own.  Coefficients carry powers of 2 and
    3, and the first form a common factor, so forms of every valuation and
    content appear at small p."""
    R = ModularRing(n)
    coeff = st.builds(lambda x, y: x * y, st.integers(0, n - 1), st.sampled_from((1, 2, 3, 4, 8, 9, 16, 27)))
    g = draw(st.sampled_from((1, 1, 2, 3, 4, 8, 9)))
    q1 = BinaryQuadraticForm(R, *(g * draw(coeff) for _ in range(3)))
    if draw(st.booleans()):
        # ((1, x), (0, 1)) ((1, 0), (y, 1)) diag(s, v), its columns swapped or not
        x, y, s, v, u = (draw(st.integers(0, n - 1)) for _ in range(5))
        s, v, u = unit(s, n), unit(v, n), unit(u, n)
        cols = ((s * (1 + x * y), s * y), (v * x, v))
        (c1, c2) = cols[::-1] if draw(st.booleans()) else cols
        return q1, q1.act(((c1[0], c2[0]), (c1[1], c2[1])), u)
    return q1, BinaryQuadraticForm(R, *(draw(coeff) for _ in range(3)))


@settings(max_examples=300)
@given(prime_powers, st.data())
@example((3, 5), None)
@example((2, 8), None)
def test_local_witnesses_match_the_modular_ring_route(pk, data):
    # the diagonal and canonical forms with their matrices, then (lam, M) or None
    p, k = pk
    q1, q2 = data.draw(modular_pairs(p**k)) if data else (bqf(1, 2, 3, ModularRing(p**k)), bqf(6, 0, 2 * p, ModularRing(p**k)))
    if p == 2:
        for q in (q1, q2):
            assert typed(_canonical_2adic(q.coeffs(), k)) == typed(_canonical2(q, k))
        got, want = _witness_2adic(q1.coeffs(), q2.coeffs(), k), _dyadic_witness(q1, q2, k)
    else:
        for q in (q1, q2):
            assert typed(_diagonal_odd(q.coeffs(), p, k)) == typed(_diagonalize(q, p, k, ModularRing(p**k)))
        got, want = _witness_odd(q1.coeffs(), q2.coeffs(), p, k), _local_witness(q1, q2, p, k)
    assert typed(got) == typed(want)


@settings(max_examples=200)
@given(st.integers(1, 20), st.integers(1, 1100), st.data())
@example(20, 504, None)
def test_similar_mod_matches_the_modular_ring_route_at_mixed_n(k, m, data):
    n = 2**k * (2 * m + 1)  # 2^20 * 1009 among them
    q1, q2 = data.draw(modular_pairs(n)) if data else (bqf(3, 5, 14, ModularRing(n)), bqf(7, 1, 2, ModularRing(n)))
    # the kernel answers (M, lam) or the reason; n <= 2^20 * 2201 always factors
    got, want = similar_mod(q1.coeffs(), q2.coeffs(), n), similar_mod_by_rings(q1, q2)
    if want.witness is None:
        assert want.verdict == "not_similar" and got == dict(reason=want.reason)
    else:
        M, lam = got
        assert SimilarityWitness(M, lam) == want.witness
        assert typed((lam, M)) == typed((want.witness.u, want.witness.m))


def test_similar_over_z_mod_n_builds_no_ring_and_no_mat2_matrix(monkeypatch):
    # the local witnesses compute on residues; the one ring is the forms'
    pairs = []
    for n in (45, 2018, 2**20 * 1009):
        R = ModularRing(n)
        q = BinaryQuadraticForm(R, 3, 5, 14)
        for M, u in ((((2, 1), (1, 1)), 1), (((0, 1), (1, 0)), 7), (((1, 4), (0, 1)), n - 1)):
            pairs.append((q, q.act(M, u)))
        pairs += [(q, BinaryQuadraticForm(R, 1, 0, 1)), (q, BinaryQuadraticForm(R, 2, 2, 6)), (q, q.neg())]
    wants = [similar_mod_by_rings(q1, q2) for q1, q2 in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("a ring or mat2 matrix was built")

    monkeypatch.setattr(ModularRing, "__init__", refuse)
    for name in ("mmul", "minv", "mident"):
        monkeypatch.setattr(binquad.mat2, name, refuse)
        assert not hasattr(binquad.modular, name)
    verdicts = [similar(q1, q2) for q1, q2 in pairs]
    assert verdicts == wants and {v.verdict for v in verdicts} == {"similar", "not_similar"}
    for (q1, q2), v in zip(pairs, verdicts):
        assert not v.is_similar or v.witness.verify(q1, q2)
