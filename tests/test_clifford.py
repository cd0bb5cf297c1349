import random

import pytest
from hypothesis import given, strategies as st

from binquad.clifford import (
    QuadraticAlgebra,
    algebra_isomorphic,
    automorphisms,
    even_clifford,
    m_left,
    m_right,
    quat_conj,
    quat_mul,
    quat_norm,
    quat_trace,
)
from binquad.errors import NotAModule, UnsupportedRing
from binquad.form import bqf
from binquad.mat2 import mmul
from binquad.pairs import CliffordPair
from binquad.ring import ModularRing, RingHom, ZZ

small = st.integers(min_value=-6, max_value=6)


def test_even_clifford_examples():
    assert even_clifford(bqf(2, 1, 3)) == QuadraticAlgebra(ZZ, 1, 6)
    assert even_clifford(bqf(1, 0, 1)) == QuadraticAlgebra(ZZ, 0, 1)  # tau^2 = -1
    assert even_clifford(bqf(0, 1, 0)) == QuadraticAlgebra(ZZ, 1, 0)  # tau^2 = tau


def test_alg_discriminant_examples():
    assert QuadraticAlgebra(ZZ, 1, 6).disc() == -23
    assert bqf(2, 1, 3).discriminant()[0] == 23
    assert QuadraticAlgebra(ZZ, 0, 1).disc() == -4
    assert QuadraticAlgebra(ZZ, 1, 0).disc() == 1


@given(small, small, small)
def test_discriminant_identity(a, b, c):
    q = bqf(a, b, c)
    assert q.discriminant()[0] == -even_clifford(q).disc()


def test_action_matrices_examples():
    q = bqf(2, 1, 3)
    assert m_left(q) == ((1, 3), (-2, 0))
    assert m_right(q) == ((0, -3), (2, 1))


def test_right_action_matrix_against_full_clifford_product():
    # columns of m_right must be the coordinates of e1*tau and e2*tau
    rng = random.Random(5)
    for _ in range(50):
        q = bqf(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        tau = (0, 1, 0, 0)
        e1 = (0, 0, 1, 0)
        e2 = (0, 0, 0, 1)
        r = m_right(q)
        assert quat_mul(q, e1, tau) == (0, 0, r[0][0], r[1][0])
        assert quat_mul(q, e2, tau) == (0, 0, r[0][1], r[1][1])
        l = m_left(q)
        assert quat_mul(q, tau, e1) == (0, 0, l[0][0], l[1][0])
        assert quat_mul(q, tau, e2) == (0, 0, l[0][1], l[1][1])


@given(small, small, small)
def test_bimodule_actions_commute(a, b, c):
    q = bqf(a, b, c)
    left, right = m_left(q), m_right(q)
    assert mmul(ZZ, left, right) == mmul(ZZ, right, left)


# The even algebra <1, tau | tau^2 = t*tau - nm> sits in the rank-4 algebra
# of (1, t, nm) as the elements (x, y, 0, 0), where quat_* give its
# involution, trace and norm.


def test_even_arithmetic_examples():
    C, q = QuadraticAlgebra(ZZ, 1, 6), bqf(1, 1, 6)
    assert even_clifford(q) == C
    z = (2, 3, 0, 0)
    assert quat_conj(q, z) == (5, -3, 0, 0)
    assert C.norm((2, 3)) == quat_norm(q, z) == 64
    assert quat_mul(q, z, quat_conj(q, z)) == (64, 0, 0, 0)  # multiply-out oracle
    assert C.norm((0, 1)) == 6 and quat_trace(q, (0, 1, 0, 0)) == 1
    assert quat_conj(q, (1, 0, 0, 0)) == (1, 0, 0, 0) and C.norm((1, 0)) == 1


def test_even_involution_identities():
    rng = random.Random(23)
    for _ in range(100):
        t, nm = rng.randint(-9, 9), rng.randint(-9, 9)
        C, q = QuadraticAlgebra(ZZ, t, nm), bqf(1, t, nm)
        z = (rng.randint(-9, 9), rng.randint(-9, 9), 0, 0)
        w = (rng.randint(-9, 9), rng.randint(-9, 9), 0, 0)
        zc = quat_conj(q, z)
        assert tuple(x + y for x, y in zip(z, zc)) == (quat_trace(q, z), 0, 0, 0)
        assert quat_mul(q, z, zc) == (C.norm(z[:2]), 0, 0, 0)
        assert quat_conj(q, zc) == z
        assert quat_conj(q, quat_mul(q, z, w)) == quat_mul(q, quat_conj(q, w), zc)


def test_is_traceable_examples():
    q = bqf(2, 1, 3)
    assert CliffordPair(even_clifford(q), m_left(q)).is_traceable()
    # tau^2 = tau with the identity action: module axiom holds, trace is off
    split = QuadraticAlgebra(ZZ, 1, 0)
    assert not CliffordPair(split, ((1, 0), (0, 1))).is_traceable()
    # tau acting on the algebra itself
    C = QuadraticAlgebra(ZZ, 3, 5)
    assert CliffordPair(C, ((0, -5), (1, 3))).is_traceable()


def test_is_traceable_rejects_non_modules():
    with pytest.raises(NotAModule):
        CliffordPair(QuadraticAlgebra(ZZ, 1, 6), ((1, 0), (0, 1)))


def test_algebra_isomorphic_examples():
    w = algebra_isomorphic(QuadraticAlgebra(ZZ, 1, 6), QuadraticAlgebra(ZZ, 9, 26))
    assert (w.k, w.eps) == (4, 1)
    # transported norm: n(4 + tau) in C(1,6) is 16 + 4 + 6 = 26
    assert QuadraticAlgebra(ZZ, 1, 6).norm((4, 1)) == 26

    # C(1,6) vs C(-1,6): the shift witness comes back first, and the
    # conjugated one (tau -> -tau, using n(-tau) = nm) is valid too
    C, D = QuadraticAlgebra(ZZ, 1, 6), QuadraticAlgebra(ZZ, -1, 6)
    w = algebra_isomorphic(C, D)
    assert w.verify(C, D) and (w.k, w.eps) == (-1, 1)
    from binquad.clifford import AlgebraWitness

    assert AlgebraWitness(0, -1).verify(C, D)

    assert algebra_isomorphic(QuadraticAlgebra(ZZ, 1, 6), QuadraticAlgebra(ZZ, 1, 5)) is None


def test_algebra_isomorphic_needs_matching_discriminant_and_parity():
    # equal discriminants differing by an odd trace shift: no witness over Z
    assert algebra_isomorphic(QuadraticAlgebra(ZZ, 0, 1), QuadraticAlgebra(ZZ, 1, 1)) is None


def test_automorphism_examples():
    C = QuadraticAlgebra(ZZ, 1, 6)
    auts = automorphisms(C)
    assert [(w.k, w.eps) for w in auts] == [(0, 1), (1, -1)]
    C0 = QuadraticAlgebra(ZZ, 0, 2)
    assert [(w.k, w.eps) for w in automorphisms(C0)] == [(0, 1), (0, -1)]
    assert [(w.k, w.eps) for w in automorphisms(C, oriented=True)] == [(0, 1)]


def test_automorphisms_refuse_even_zero_divisors():
    for n in (2, 4, 6, 12):
        C = QuadraticAlgebra(ModularRing(n), 1, 1)
        with pytest.raises(UnsupportedRing):
            automorphisms(C)
    # odd modulus is fine
    C = QuadraticAlgebra(ModularRing(9), 1, 1)
    assert len(automorphisms(C)) == 2


def test_similarity_transports_to_algebra_witness():
    rng = random.Random(29)
    n = 0
    while n < 30:
        a, b, c = rng.randint(1, 5), rng.randint(-5, 5), rng.randint(1, 5)
        if b * b - 4 * a * c >= 0:
            continue
        q = bqf(a, b, c)
        k = rng.randint(-2, 2)
        q2 = q.act(((1, k), (0, 1)), rng.choice((1, -1)))
        w = algebra_isomorphic(even_clifford(q), even_clifford(q2))
        assert w is not None and w.verify(even_clifford(q), even_clifford(q2))
        n += 1


def test_quat_mul_examples():
    e1 = (0, 0, 1, 0)
    e2 = (0, 0, 0, 1)
    q = bqf(1, 0, 1)
    assert quat_mul(q, e1, e2) == (0, 1, 0, 0)  # e1*e2 = tau
    assert quat_mul(q, e2, e1) == (0, -1, 0, 0)  # b = 0
    split = bqf(1, 0, -1)
    s = (0, 0, 1, 1)
    assert quat_mul(split, s, s) == (0, 0, 0, 0)



@pytest.mark.parametrize("ring", [ZZ, ModularRing(7), ModularRing(12)])
@pytest.mark.parametrize("coeffs", [(2, 1, 3), (4, -5, 6), (0, 3, -2), (-3, 7, 5)])
def test_quat_basis_products_match_multiplication_table(ring, coeffs):
    # All sixteen products e_i*e_j on (1, tau, e1, e2), against the table
    # in the comment of binquad.clifford.
    q = bqf(*coeffs, ring=ring)
    a, b, c = q.coeffs()
    one, tau, e1, e2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    table = {
        (tau, tau): (-a * c, b, 0, 0),
        (e1, e1): (a, 0, 0, 0),
        (e2, e2): (c, 0, 0, 0),
        (e1, e2): (0, 1, 0, 0),
        (e2, e1): (b, -1, 0, 0),
        (tau, e1): (0, 0, b, -a),
        (tau, e2): (0, 0, c, 0),
        (e1, tau): (0, 0, 0, a),
        (e2, tau): (0, 0, -c, b),
    }
    for x in (one, tau, e1, e2):
        table[(one, x)] = table[(x, one)] = x
    assert len(table) == 16
    for (x, y), want in table.items():
        assert quat_mul(q, x, y) == tuple(ring.normalize(v) for v in want)

def test_quat_conj_trace_norm_examples():
    q = bqf(1, 0, 1)
    z = (1, 0, 1, 0)
    assert quat_trace(q, z) == 2
    assert quat_norm(q, z) == 0
    assert quat_norm(q, (0, 1, 0, 0)) == 1  # n(tau) = n(e1) n(e2)
    assert quat_trace(q, (1, 0, 0, 0)) == 2
    assert quat_norm(q, (1, 0, 0, 0)) == 1
    assert quat_conj(q, (2, 5, -1, 3)) == (2 + 5 * q.b, -5, 1, -3)


@given(st.tuples(small, small, small), st.tuples(*[small] * 4), st.tuples(*[small] * 4))
def test_quat_characteristic_identity(coeffs, z, w):
    q = bqf(*coeffs)
    tr = quat_trace(q, z)
    nm = quat_norm(q, z)
    z2 = quat_mul(q, z, z)
    assert z2 == (tr * z[0] - nm, tr * z[1], tr * z[2], tr * z[3])
    assert quat_norm(q, quat_mul(q, z, w)) == nm * quat_norm(q, w)


def test_functoriality_of_clifford_data():
    hom = RingHom(ZZ, ModularRing(7))
    for coeffs in ((2, 1, 3), (4, -5, 6), (0, 3, -2)):
        q = bqf(*coeffs)
        q2 = q.map(hom)
        assert even_clifford(q2) == even_clifford(q).map(hom)
        assert m_left(q2) == tuple(tuple(hom(x) for x in row) for row in m_left(q))
