"""The coefficient arithmetic of mat2, form, clifford and pairs against the
definitions it had when every sum and product went through a ring
operation.  Those definitions are kept below as the oracle: each result
must match in value and in type over Z, Z/n and Q."""

from fractions import Fraction

from hypothesis import given, strategies as st

from binquad.clifford import (
    AlgebraWitness,
    QuadraticAlgebra,
    _witness_for_eps,
    even_clifford,
    m_left,
    m_right,
    quat_conj,
    quat_mul,
    quat_norm,
    quat_trace,
    tau_product,
)
from binquad.errors import BinquadError, NonScalarNorm, NotAModule, NotInvertible, NotTraceable
from binquad.form import BinaryQuadraticForm, SimilarityWitness
from binquad.mat2 import mat, mdet, mident, minv, mmul
from binquad.pairs import (
    CliffordPair,
    PairWitness,
    _witness_from_similarity,
    clifford_form_to_wood_form,
    dual_form,
    normalize_pair,
    pair_to_form,
    wood_pair,
)
from binquad.ring import QQ, ZZ, ModularRing
from oracles import madd, mapply, mscale

# -- the nested definitions ----------------------------------------------


def seed_madd(R, A, B):
    return tuple(tuple(R.add(A[i][j], B[i][j]) for j in range(2)) for i in range(2))


def seed_mscale(R, k, A):
    k = R.normalize(k)
    return tuple(tuple(R.mul(k, A[i][j]) for j in range(2)) for i in range(2))


def seed_mmul(R, A, B):
    return tuple(
        tuple(R.add(R.mul(A[i][0], B[0][j]), R.mul(A[i][1], B[1][j])) for j in range(2))
        for i in range(2)
    )


def seed_mdet(R, A):
    return R.sub(R.mul(A[0][0], A[1][1]), R.mul(A[0][1], A[1][0]))


def seed_mapply(R, A, v):
    x, y = R.normalize(v[0]), R.normalize(v[1])
    return (
        R.add(R.mul(A[0][0], x), R.mul(A[0][1], y)),
        R.add(R.mul(A[1][0], x), R.mul(A[1][1], y)),
    )


def seed_minv(R, A):
    d = seed_mdet(R, A)
    if not R.is_unit(d):
        raise NotInvertible(f"matrix determinant {d} is not a unit")
    di = R.inv(d)
    return mat(
        R,
        (
            (R.mul(di, A[1][1]), R.mul(di, R.neg(A[0][1]))),
            (R.mul(di, R.neg(A[1][0])), R.mul(di, A[0][0])),
        ),
    )


def seed_evaluate(q, x, y):
    R = q.ring
    x, y = R.normalize(x), R.normalize(y)
    return R.add(R.add(R.mul(q.a, R.mul(x, x)), R.mul(q.b, R.mul(x, y))), R.mul(q.c, R.mul(y, y)))


def seed_polar(q, v, w):
    R = q.ring
    s = seed_evaluate(q, R.add(v[0], w[0]), R.add(v[1], w[1]))
    return R.sub(R.sub(s, seed_evaluate(q, *v)), seed_evaluate(q, *w))


def seed_discriminant(q):
    R = q.ring
    classical = R.sub(R.mul(q.b, q.b), R.mul(R.normalize(4), R.mul(q.a, q.c)))
    return (R.neg(classical), classical)


def seed_neg(q):
    R = q.ring
    return BinaryQuadraticForm(R, R.neg(q.a), R.neg(q.b), R.neg(q.c))


def seed_conjugate(q):
    return BinaryQuadraticForm(q.ring, q.a, q.ring.neg(q.b), q.c)


def seed_act(q, M, u):
    R = q.ring
    M = mat(R, M)
    u = R.normalize(u)
    if not R.is_unit(seed_mdet(R, M)):
        raise NotInvertible(f"determinant {seed_mdet(R, M)} is not a unit")
    if not R.is_unit(u):
        raise NotInvertible(f"scale {u} is not a unit")
    col1 = (M[0][0], M[1][0])
    col2 = (M[0][1], M[1][1])
    return BinaryQuadraticForm(
        R,
        R.mul(u, seed_evaluate(q, *col1)),
        R.mul(u, seed_polar(q, col1, col2)),
        R.mul(u, seed_evaluate(q, *col2)),
    )


def seed_similarity_verify(w, q, q2):
    R = q.ring
    if not R.is_unit(seed_mdet(R, w.m)) or not R.is_unit(w.u):
        return False
    for v in ((1, 0), (0, 1), (1, 1)):
        img = (
            R.add(R.mul(w.m[0][0], v[0]), R.mul(w.m[0][1], v[1])),
            R.add(R.mul(w.m[1][0], v[0]), R.mul(w.m[1][1], v[1])),
        )
        if seed_evaluate(q2, *img) != R.mul(w.u, seed_evaluate(q, *v)):
            return False
    return True


def seed_disc(C):
    R = C.ring
    return R.sub(R.mul(C.t, C.t), R.mul(R.normalize(4), C.nm))


def seed_alg_mul(C, z, w):
    R = C.ring
    x1, y1 = z
    x2, y2 = w
    yy = R.mul(y1, y2)
    return (
        R.sub(R.mul(x1, x2), R.mul(C.nm, yy)),
        R.add(R.add(R.mul(x1, y2), R.mul(y1, x2)), R.mul(C.t, yy)),
    )


def seed_alg_norm(C, z):
    R = C.ring
    x, y = z
    return R.add(R.add(R.mul(x, x), R.mul(C.t, R.mul(x, y))), R.mul(C.nm, R.mul(y, y)))


def seed_regular_matrix(C):
    """tau acting on the algebra itself: a module of every algebra, traceable."""
    R = C.ring
    return mat(R, ((0, R.neg(C.nm)), (1, C.t)))


def seed_even_clifford(q):
    R = q.ring
    return QuadraticAlgebra(R, q.b, R.mul(q.a, q.c))


def seed_m_left(q):
    R = q.ring
    return mat(R, ((q.b, q.c), (R.neg(q.a), 0)))


def seed_m_right(q):
    R = q.ring
    return mat(R, ((0, R.neg(q.c)), (q.a, q.b)))


def seed_is_traceable(C, M):
    R = C.ring
    M = mat(R, M)
    rhs = seed_madd(R, seed_mscale(R, C.t, M), seed_mscale(R, R.neg(C.nm), mident(R)))
    if seed_mmul(R, M, M) != rhs:
        raise NotAModule(f"action matrix {M} violates the relation of {C}")
    return R.add(M[0][0], M[1][1]) == C.t


def seed_algebra_witness_verify(w, C, D):
    R = C.ring
    e = R.normalize(w.eps)
    if not R.is_unit(e):
        return False
    t_ok = D.t == R.add(R.mul(e, C.t), R.add(w.k, w.k))
    nm_ok = D.nm == seed_alg_norm(C, (w.k, e))
    return t_ok and nm_ok


def seed_witness_for_eps(C, D, eps):
    R = C.ring
    k = R.half(R.sub(D.t, R.mul(R.normalize(eps), C.t)))
    if k is None:
        return None
    w = AlgebraWitness(k, eps)
    return w if seed_algebra_witness_verify(w, C, D) else None


def seed_quat_mul(q, z, w):
    a, b, c = q.coeffs()
    R = q.ring
    one, zero = R.one, R.zero
    unit, tau = (one, zero, zero, zero), (zero, one, zero, zero)
    e1, e2 = (zero, zero, one, zero), (zero, zero, zero, one)
    table = (
        (unit, tau, e1, e2),
        (tau, (R.neg(R.mul(a, c)), b, zero, zero), (zero, zero, b, R.neg(a)), (zero, zero, c, zero)),
        (e1, (zero, zero, zero, a), (a, zero, zero, zero), tau),
        (e2, (zero, zero, R.neg(c), b), (b, R.neg(one), zero, zero), (c, zero, zero, zero)),
    )
    out = [R.zero] * 4
    for i, zi in enumerate(z):
        if zi == R.zero:
            continue
        for j, wj in enumerate(w):
            if wj == R.zero:
                continue
            coeff = R.mul(zi, wj)
            for k in range(4):
                out[k] = R.add(out[k], R.mul(coeff, table[i][j][k]))
    return tuple(out)


def seed_quat_conj(q, z):
    R = q.ring
    x0, x1, y1, y2 = z
    return (R.add(x0, R.mul(x1, q.b)), R.neg(x1), R.neg(y1), R.neg(y2))


def seed_quat_trace(q, z):
    R = q.ring
    s = tuple(R.add(z[i], seed_quat_conj(q, z)[i]) for i in range(4))
    if s[1] != R.zero or s[2] != R.zero or s[3] != R.zero:
        raise NonScalarNorm(f"trace of {z} is not scalar")
    return s[0]


def seed_quat_norm(q, z):
    R = q.ring
    p = seed_quat_mul(q, z, seed_quat_conj(q, z))
    if p[1] != R.zero or p[2] != R.zero or p[3] != R.zero:
        raise NonScalarNorm(f"norm of {z} is not scalar: {p}")
    return p[0]


def seed_pair_is_traceable(p):
    return p.ring.add(p.m[0][0], p.m[1][1]) == p.alg.t


def seed_normalize_pair(p):
    if not seed_pair_is_traceable(p):
        raise NotTraceable(f"pair {p} is not traceable")
    R = p.ring
    shift = p.m[1][1]
    M2 = seed_madd(R, p.m, seed_mscale(R, R.neg(shift), mident(R)))
    t2 = R.sub(p.alg.t, R.add(shift, shift))
    nm2 = R.add(R.sub(p.alg.nm, R.mul(p.alg.t, shift)), R.mul(shift, shift))
    return CliffordPair(QuadraticAlgebra(R, t2, nm2), M2), shift


def seed_pair_to_form(p):
    n, _ = seed_normalize_pair(p)
    R = p.ring
    a = R.neg(n.m[1][0])
    b = n.m[0][0]
    c = n.m[0][1]
    if b != n.alg.t or R.mul(a, c) != n.alg.nm:
        raise AssertionError(
            f"normalized pair {n} does not arise from a form: "
            f"read-off ({a}, {b}, {c}) vs algebra ({n.alg.t}, {n.alg.nm})"
        )
    return BinaryQuadraticForm(R, a, b, c)


def seed_witness_from_similarity(p, p2, shift1, shift2, q2, simw):
    R = p.ring
    if not R.is_unit(simw.u):
        return None
    ui = R.inv(simw.u)
    W = simw.m
    v1, v2 = W[0][0], W[1][0]
    w1, w2 = W[0][1], W[1][1]
    a2, b2, c2 = q2.coeffs()
    scal = R.add(
        R.add(R.mul(R.mul(v1, w1), a2), R.mul(R.mul(v2, w2), c2)),
        R.mul(R.mul(v2, w1), b2),
    )
    k0 = R.mul(ui, scal)
    eps = R.mul(ui, seed_mdet(R, W))
    k = R.add(k0, R.sub(shift1, R.mul(eps, shift2)))
    witness = PairWitness(W, AlgebraWitness(k, eps))
    return witness if witness.verify(p, p2) else None


def seed_wood_form(q):
    R = q.ring
    return BinaryQuadraticForm(R, q.c, R.neg(q.b), q.a)


def seed_wood_pair(w):
    R = w.ring
    A, B, C = w.coeffs()
    alg = QuadraticAlgebra(R, R.neg(B), R.mul(A, C))
    m = mat(R, ((R.neg(B), A), (R.neg(C), 0)))
    return CliffordPair(alg, m)


# -- comparison ------------------------------------------------------------


def shape(v):
    """Every scalar in a result as (type name, value)."""
    if isinstance(v, (tuple, list)):
        return tuple(shape(x) for x in v)
    if isinstance(v, BinaryQuadraticForm):
        return ("form", shape(v.coeffs()))
    if isinstance(v, QuadraticAlgebra):
        return ("alg", shape((v.t, v.nm)))
    if isinstance(v, CliffordPair):
        return ("pair", shape(v.alg), shape(v.m))
    if isinstance(v, AlgebraWitness):
        return ("phi", shape((v.k, v.eps)))
    if isinstance(v, PairWitness):
        return ("psi", shape(v.psi), shape(v.phi))
    return (type(v).__name__, v)


def same(new, old, *args):
    def outcome(f):
        try:
            return shape(f(*args))
        except BinquadError as e:
            return (type(e).__name__, str(e))

    assert outcome(new) == outcome(old), (new.__name__, args)


rings = st.one_of(
    st.just(ZZ),
    st.just(QQ),
    st.integers(min_value=2, max_value=30).map(ModularRing),
    st.integers(min_value=2, max_value=10**12).map(ModularRing),
)
ints = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
)


def elem(data, R):
    if R == QQ:
        return data.draw(st.one_of(st.fractions(max_denominator=50), ints.map(Fraction)))
    return R.normalize(data.draw(ints))


def matrix(data, R):
    return tuple(tuple(elem(data, R) for _ in range(2)) for _ in range(2))


def form(data, R):
    return BinaryQuadraticForm(R, *(elem(data, R) for _ in range(3)))


@given(rings, st.data())
def test_mat2_matches_seed_definitions(R, data):
    A, B, k = matrix(data, R), matrix(data, R), elem(data, R)
    v = (data.draw(ints), data.draw(ints))
    same(madd, seed_madd, R, A, B)
    same(mscale, seed_mscale, R, k, A)
    same(mmul, seed_mmul, R, A, B)
    same(mdet, seed_mdet, R, A)
    same(mapply, seed_mapply, R, A, v)
    same(mapply, seed_mapply, R, A, (elem(data, R), elem(data, R)))
    same(minv, seed_minv, R, A)
    # unit determinant, so that minv returns a matrix
    same(minv, seed_minv, R, mmul(R, ((1, k), (0, 1)), ((1, 0), (v[0], 1))))


@given(rings, st.data())
def test_form_matches_seed_definitions(R, data):
    q, q2 = form(data, R), form(data, R)
    v = (data.draw(ints), data.draw(ints))
    w = (elem(data, R), elem(data, R))
    same(BinaryQuadraticForm.evaluate, seed_evaluate, q, *v)
    same(BinaryQuadraticForm.evaluate, seed_evaluate, q, *w)
    same(BinaryQuadraticForm.polar, seed_polar, q, v, w)
    same(BinaryQuadraticForm.discriminant, seed_discriminant, q)
    same(BinaryQuadraticForm.neg, seed_neg, q)
    same(BinaryQuadraticForm.conjugate, seed_conjugate, q)
    M = matrix(data, R)
    u = data.draw(st.sampled_from([1, -1, 2, w[0]]))
    same(BinaryQuadraticForm.act, seed_act, q, M, u)
    # a unit determinant and scale, so that act and verify succeed
    U = mmul(R, ((1, w[0]), (0, 1)), ((1, 0), (w[1], 1)))
    same(BinaryQuadraticForm.act, seed_act, q, U, -1)
    for W, target in ((SimilarityWitness(U, -1), q.act(U, -1)), (SimilarityWitness(M, u), q2)):
        same(W.verify, lambda *a, W=W: seed_similarity_verify(W, *a), q, target)
    # q.act(U, -1)(v) = -q(U v), so (U, -1) carries q.act(U, -1) to q; near
    # misses move one entry of U, or u, by 1, and over Z/n with n even also
    # by n/2, where the factor 2 in the middle coefficient decides
    moved = q.act(U, -1)
    assert SimilarityWitness(U, -1).verify(moved, q)
    shifts = (1, R.n // 2) if isinstance(R, ModularRing) and R.n % 2 == 0 else (1,)
    near = []
    for k in shifts:
        for i in range(4):
            entries = [U[0][0], U[0][1], U[1][0], U[1][1]]
            entries[i] = R.normalize(entries[i] + k)
            near.append(SimilarityWitness(((entries[0], entries[1]), (entries[2], entries[3])), -1))
        near.append(SimilarityWitness(U, R.normalize(k - 1)))
    for W in near:
        same(W.verify, lambda *a, W=W: seed_similarity_verify(W, *a), moved, q)


@given(rings, st.data())
def test_clifford_matches_seed_definitions(R, data):
    C = QuadraticAlgebra(R, elem(data, R), elem(data, R))
    D = QuadraticAlgebra(R, elem(data, R), elem(data, R))
    z, w = (elem(data, R), elem(data, R)), (elem(data, R), elem(data, R))
    same(C.disc, lambda: seed_disc(C))
    same(lambda *a: R.normalize_all(*tau_product(C.t, C.nm, *a)), lambda *a: seed_alg_mul(C, *a), z, w)
    same(C.norm, lambda *a: seed_alg_norm(C, *a), z)
    q = form(data, R)
    for new, old in ((even_clifford, seed_even_clifford), (m_left, seed_m_left), (m_right, seed_m_right)):
        same(new, old, q)
    traceable = lambda C, M: CliffordPair(C, M).is_traceable()
    same(traceable, seed_is_traceable, even_clifford(q), m_left(q))
    same(traceable, seed_is_traceable, C, matrix(data, R))
    same(traceable, seed_is_traceable, C, seed_regular_matrix(C))
    eps = data.draw(st.sampled_from([1, -1, 3, z[0]]))
    phi = AlgebraWitness(elem(data, R), eps)
    same(phi.verify, lambda *a: seed_algebra_witness_verify(phi, *a), C, D)
    for e in (1, -1):
        same(_witness_for_eps, seed_witness_for_eps, C, D, e)
    # the algebra a shift of the generator by k reaches from C
    shifted = QuadraticAlgebra(R, C.t + 2 * z[0], C.norm((z[0], 1)))
    same(_witness_for_eps, seed_witness_for_eps, C, shifted, 1)
    x = tuple(elem(data, R) for _ in range(4))
    y = data.draw(st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), x[::-1]]))
    same(quat_mul, seed_quat_mul, q, x, y)
    same(quat_mul, seed_quat_mul, q, x, tuple(R.normalize(c) for c in y))
    same(quat_conj, seed_quat_conj, q, x)
    same(quat_trace, seed_quat_trace, q, x)
    same(quat_norm, seed_quat_norm, q, x)


@given(rings, st.data())
def test_pairs_matches_seed_definitions(R, data):
    q, q2 = form(data, R), form(data, R)
    m = elem(data, R)

    def shifted(f):
        # the Clifford pair of f with its generator shifted by m
        return CliffordPair(
            QuadraticAlgebra(R, f.b + 2 * m, f.b * m + m * m + f.a * f.c),
            ((f.b + m, f.c), (-f.a, m)),
        )

    p, p2 = shifted(q), shifted(q2)
    same(CliffordPair.is_traceable, seed_pair_is_traceable, p)
    same(normalize_pair, seed_normalize_pair, p)
    same(pair_to_form, seed_pair_to_form, p)
    C = QuadraticAlgebra(R, elem(data, R), elem(data, R))
    odd = CliffordPair(C, seed_regular_matrix(C))
    same(CliffordPair.is_traceable, seed_pair_is_traceable, odd)
    same(normalize_pair, seed_normalize_pair, odd)
    same(pair_to_form, seed_pair_to_form, odd)
    U = mmul(R, ((1, m), (0, 1)), ((1, 0), (elem(data, R), 1)))
    u = data.draw(st.sampled_from([1, -1, 5, m]))
    for simw in (SimilarityWitness(U, -1), SimilarityWitness(matrix(data, R), u)):
        target = shifted(q.act(U, -1)) if simw.u == -1 else p2
        args = (p, target, m, m, pair_to_form(target), simw)
        same(_witness_from_similarity, seed_witness_from_similarity, *args)
    same(clifford_form_to_wood_form, seed_wood_form, q)
    same(dual_form, seed_wood_form, q)
    same(wood_pair, seed_wood_pair, q)
