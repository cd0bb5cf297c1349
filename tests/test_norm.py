import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from binquad.clifford import QuadraticAlgebra, even_clifford, identity_form, m_left
from binquad.errors import (
    DomainError,
    IncompatibleAlgebras,
    NotInvertible,
    NotPrimitive,
    UsageError,
    ZeroForm,
)
from binquad.form import bqf, properly_equivalent
from binquad.norm import (
    IdealLattice,
    _form_basis,
    _hnf_cols,
    _is_invertible,
    _is_principal,
    base_change_checks,
    even_clifford_of_ideal,
    form_to_ideal,
    ideal_conjugate,
    ideal_is_invertible,
    ideal_is_principal,
    ideal_multiply,
    naive_norm_form,
    universal_norm_form,
)
from binquad.picard import reduced_forms
from binquad.ring import ModularRing, QQ, RingHom, ZZ

from oracles import principal_by_generator


def test_form_to_ideal_examples():
    I = form_to_ideal(bqf(2, 1, 3))
    assert I.basis == ((2, 1), (0, -1))
    assert I.alg == QuadraticAlgebra(ZZ, 1, 6)
    # a = 1 embeds as the unit ideal
    J = form_to_ideal(bqf(1, 1, 6))
    assert J == IdealLattice(J.alg, ((1, 0), (0, 1)))
    # a = 0 needs a basis change first; the class is preserved
    K = form_to_ideal(bqf(0, 1, 0))
    assert universal_norm_form(K).discriminant()[1] == 1
    # (x, y) -> (-y, x) takes (0, 7, 3) to (3, -7, 0)
    L = form_to_ideal(bqf(0, 7, 3))
    assert L.basis == ((3, -7), (0, -1)) and L.alg == QuadraticAlgebra(ZZ, -7, 0)


def test_form_to_ideal_rejections():
    with pytest.raises(ZeroForm):
        form_to_ideal(bqf(0, 0, 0))
    with pytest.raises(NotPrimitive):
        form_to_ideal(bqf(2, 4, 6))


def test_lattice_validation():
    # the rank is checked before the closure, which would divide by det 0
    C = QuadraticAlgebra(ZZ, 1, 6)
    with pytest.raises(UsageError, match=r"^lattice \(\(1, 0\), \(0, 2\)\) is not closed under tau$"):
        IdealLattice(C, ((1, 0), (0, 2)))
    with pytest.raises(UsageError, match=r"^basis \(\(1, 2\), \(2, 4\)\) is not full rank$"):
        IdealLattice(C, ((1, 2), (2, 4)))
    with pytest.raises(UsageError, match="^ideal lattices live over Z, not Q$"):
        IdealLattice(QuadraticAlgebra(QQ, 1, 6), ((1, 0), (0, 1)))


def test_norm_forms_example():
    I = form_to_ideal(bqf(2, 1, 3))
    assert naive_norm_form(I) == bqf(4, 2, 6)
    assert universal_norm_form(I) == bqf(2, 1, 3)


def test_norm_form_of_unit_ideal_is_the_algebra_norm():
    C = QuadraticAlgebra(ZZ, 1, 6)
    assert universal_norm_form(IdealLattice(C, ((1, 0), (0, 1)))) == bqf(1, 1, 6) == identity_form(C)


def test_scaling_leaves_universal_form_alone():
    I = form_to_ideal(bqf(2, 1, 3))
    doubled = IdealLattice(I.alg, ((4, 2), (0, -2)))
    assert naive_norm_form(doubled) == bqf(16, 8, 24)
    assert universal_norm_form(doubled) == universal_norm_form(I)


def test_recovery_is_exact_for_reduced_like_forms():
    # stored basis (a, b - tau) reads the coefficients straight back
    for coeffs in ((2, 1, 3), (3, 1, 2), (5, 3, 7), (1, 0, 11)):
        q = bqf(*coeffs)
        assert universal_norm_form(form_to_ideal(q)) == q


def test_recovery_up_to_proper_equivalence():
    rng = random.Random(47)
    n = 0
    while n < 60:
        a = rng.randint(1, 8)
        b = rng.randint(-8, 8)
        c = rng.randint(1, 8)
        q = bqf(a, b, c)
        if b * b - 4 * a * c >= 0 or not q.is_primitive():
            continue
        assert properly_equivalent(universal_norm_form(form_to_ideal(q)), q)
        n += 1


def test_even_clifford_of_ideal_examples():
    C = QuadraticAlgebra(ZZ, 1, 6)
    A, w = even_clifford_of_ideal(IdealLattice(C, ((1, 0), (0, 1))))
    assert A == C and (w.k, w.eps) == (0, 1)
    for coeffs in ((2, 1, 3), (3, 1, 2)):
        I = form_to_ideal(bqf(*coeffs))
        A, w = even_clifford_of_ideal(I)
        assert w.verify(I.alg, A)


def test_even_clifford_of_a_non_invertible_lattice_is_refused():
    # <2, 1 + tau> in Z[sqrt(-3)] has norm 2 and universal norm form
    # (1, 1, 1) of discriminant -3, not -12: no witness, and no crash
    I = IdealLattice(QuadraticAlgebra(ZZ, 0, 3), ((2, 1), (0, 1)))
    assert not ideal_is_invertible(I)
    assert universal_norm_form(I) == bqf(1, 1, 1)
    with pytest.raises(NotInvertible, match="not invertible"):
        even_clifford_of_ideal(I)


def test_ideal_multiply_examples():
    C = QuadraticAlgebra(ZZ, 1, 6)
    I = form_to_ideal(bqf(2, 1, 3))  # <2, 1 - tau>
    J = ideal_conjugate(I)  # the lattice <2, tau>
    P = ideal_multiply(I, J)
    assert P.norm() == 4
    assert properly_equivalent(universal_norm_form(P), bqf(1, 1, 6))
    # unit law, structurally
    assert ideal_multiply(I, IdealLattice(C, ((1, 0), (0, 1)))) == I
    # squaring lands in the class of the Dirichlet square
    sq = ideal_multiply(I, I)
    assert universal_norm_form(sq) == bqf(4, 5, 3)
    assert properly_equivalent(universal_norm_form(sq), bqf(2, -1, 3))


def test_ideal_multiply_is_commutative_and_associative():
    forms = reduced_forms(-71)
    common = QuadraticAlgebra(ZZ, 1, 18)
    ideals = [IdealLattice(common, _form_basis(q.a, q.b, common.t)) for q in forms]
    for I in ideals[:3]:
        for J in ideals[:3]:
            assert ideal_multiply(I, J) == ideal_multiply(J, I)
            for K in ideals[:3]:
                assert ideal_multiply(ideal_multiply(I, J), K) == ideal_multiply(
                    I, ideal_multiply(J, K)
                )


def test_ideal_multiply_rejects_mismatched_algebras():
    with pytest.raises(IncompatibleAlgebras):
        ideal_multiply(form_to_ideal(bqf(2, 1, 3)), form_to_ideal(bqf(1, 0, 1)))


def test_ideal_conjugate_examples():
    I = form_to_ideal(bqf(2, 1, 3))
    J = ideal_conjugate(I)
    # sigma(1 - tau) = tau, so the conjugate is the lattice <2, tau>
    assert J == IdealLattice(I.alg, ((2, 0), (0, 1)))
    C = QuadraticAlgebra(ZZ, 1, 6)
    assert ideal_conjugate(IdealLattice(C, ((1, 0), (0, 1)))) == IdealLattice(C, ((1, 0), (0, 1)))
    assert ideal_conjugate(ideal_conjugate(I)) == I


def test_conjugate_gives_the_inverse_class():
    for coeffs in ((2, 1, 3), (3, 1, 2), (2, -1, 3)):
        q = bqf(*coeffs)
        I = form_to_ideal(q)
        assert universal_norm_form(ideal_conjugate(I)) == q.conjugate()
        prod = ideal_multiply(I, ideal_conjugate(I))
        assert universal_norm_form(prod) == identity_form(I.alg)
        g = naive_norm_form(I).content()
        assert prod == IdealLattice(I.alg, ((g, 0), (0, g)))


def test_invertibility_tracks_primitivity():
    # primitive forms give invertible lattices
    for coeffs in ((2, 1, 3), (1, 1, 6), (3, 2, 5)):
        assert ideal_is_invertible(form_to_ideal(bqf(*coeffs)))
    # the non-primitive (2, 2, 2) embeds as a non-invertible lattice
    C = even_clifford(bqf(2, 2, 2))
    I = IdealLattice(C, ((2, 2), (0, -1)))
    assert not ideal_is_invertible(I)


def test_principality_search():
    C = QuadraticAlgebra(ZZ, 1, 6)
    assert ideal_is_principal(IdealLattice(C, ((1, 0), (0, 1))))
    assert ideal_is_principal(IdealLattice(C, ((3, 0), (0, 3))))
    assert not ideal_is_principal(form_to_ideal(bqf(2, 1, 3)))


def test_principality_ignores_basis_skew():
    # a skewed basis of the same lattice gives the same verdict, and the
    # search is bounded by the lattice, not by the basis it was given in
    C = QuadraticAlgebra(ZZ, 1, 6)
    for I in (IdealLattice(C, ((1, 0), (0, 1))), form_to_ideal(bqf(2, 1, 3)), IdealLattice(C, ((3, 0), (0, 3)))):
        (a0, a1), (b0, b1) = I.columns()
        k = 10**12
        J = IdealLattice(C, ((k * a0 + b0, a0), (k * a1 + b1, a1)))
        assert J == I
        assert ideal_is_principal(J) == ideal_is_principal(I)


def test_principality_matches_generator_check():
    n = 0
    for D in range(-400, -2):
        if D % 4 not in (0, 1):
            continue
        t = D % 2
        C = QuadraticAlgebra(ZZ, t, (t * t - D) // 4)
        for a in range(1, isqrt(-D) + 1):
            for s in range(a):
                if (s * s - t * s + C.nm) % a:
                    continue
                for k in (1, 2, 3):
                    I = IdealLattice(C, ((k * a, k * s), (0, -k)))
                    assert ideal_is_principal(I) == principal_by_generator(I), (D, a, s, k)
                    n += 1
    assert n == 7746


@st.composite
def _closed_lattices(draw, disc, count=1):
    """An algebra tau^2 = t*tau - nm of discriminant drawn from disc, t of
    any parity-compatible value, and count tau-closed lattices in it: r
    times <p, x + tau> with p | N(x + tau), that is Hermite data
    (r*p, r*(x mod p), r), given in a basis skewed by a unimodular matrix."""
    D = draw(disc.filter(lambda D: D % 4 in (0, 1)))
    t = D % 2 + 2 * draw(st.integers(-3, 3))
    C = QuadraticAlgebra(ZZ, t, (t * t - D) // 4)
    lattices = []
    for _ in range(count):
        x = draw(st.integers(0, 300))
        n = x * x + t * x + C.nm
        p = draw(st.sampled_from([d for d in range(1, 61) if n % d == 0]))
        r = draw(st.integers(1, 4))
        k, e = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1)))
        # columns (P, 0) and e*((S, r) + k*(P, 0))
        P, S = r * p, r * (x % p)
        lattices.append(IdealLattice(C, ((P, e * (S + k * P)), (0, e * r))))
    return (C, *lattices)


def _square_factor_discs():
    return st.builds(lambda D, f: D * f * f, st.integers(-300, -3), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_closed_lattices(_square_factor_discs()))
def test_ideal_predicates_match_the_lattice_route(drawn):
    # a lattice is invertible iff its multiplier ring is the whole order,
    # whose discriminant its universal norm form then has, and principal iff
    # one of its elements generates it
    C, I = drawn
    assert _is_invertible(C.t, C.nm, I.basis) == (universal_norm_form(I).discriminant()[1] == C.disc())
    assert _is_principal(C.t, C.nm, *_hnf_cols(I.columns())) == principal_by_generator(I)


@settings(max_examples=300, deadline=None)
@given(_closed_lattices(st.integers(-500, 500), count=2))
@example((QuadraticAlgebra(ZZ, 0, 3), IdealLattice(QuadraticAlgebra(ZZ, 0, 3), ((2, 1), (0, 1))),
          IdealLattice(QuadraticAlgebra(ZZ, 0, 3), ((2, 0), (0, 2)))))
def test_ideal_layer_answers_or_refuses(drawn):
    # every call returns or raises a library error, at any discriminant,
    # square and non-maximal ones included; never an AssertionError
    C, I, J = drawn
    for call in (lambda: ideal_multiply(I, J), lambda: ideal_conjugate(I), lambda: ideal_is_invertible(I),
                 lambda: ideal_is_principal(I), lambda: universal_norm_form(I),
                 lambda: even_clifford_of_ideal(I)):
        try:
            call()
        except (DomainError, UsageError):
            pass


def test_canonical_is_a_lattice_invariant():
    C = QuadraticAlgebra(ZZ, 1, 6)
    I = IdealLattice(C, ((2, 1), (0, -1)))
    # same lattice, different bases
    J = IdealLattice(C, ((2, 3), (0, -1)))
    K = IdealLattice(C, ((3, 1), (-1, -1)))
    assert I == J == K
    assert I.canonical().basis == J.canonical().basis == K.canonical().basis


def test_canonical_basis_invariant_under_rebasing():
    rng = random.Random(61)
    n = 0
    while n < 80:
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(1, 9)
        q = bqf(a, b, c)
        if b * b - 4 * a * c >= 0 or not q.is_primitive():
            continue
        I = form_to_ideal(q)
        # unimodular recombination of the basis columns
        (a0, a1), (b0, b1) = I.columns()
        x, z = 1, 0
        y, w = rng.randint(-4, 4), 1
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(-3, 3)
            x, y, z, w = x + k * z, y + k * w, z, w
            if rng.random() < 0.5:
                x, y, z, w = z, w, -x, -y
        assert x * w - y * z in (1, -1)
        J = IdealLattice(
            I.alg,
            (
                (x * a0 + y * b0, z * a0 + w * b0),
                (x * a1 + y * b1, z * a1 + w * b1),
            ),
        )
        assert J == I
        assert J.canonical().basis == I.canonical().basis
        n += 1


def test_base_change_checks_examples():
    checks = base_change_checks(bqf(1, 1, 6), RingHom(ZZ, ModularRing(5)))
    assert checks["even_clifford"] and checks["bimodule_left"] and checks["bimodule_right"]
    assert checks["norm_form"] is True

    checks = base_change_checks(bqf(2, 1, 3), RingHom(ZZ, ModularRing(7)))
    assert all(v is True for v in checks.values())
    assert m_left(bqf(2, 1, 3).map(RingHom(ZZ, ModularRing(7)))) == ((1, 3), (5, 0))

    checks = base_change_checks(bqf(2, 1, 3), RingHom(ZZ, QQ))
    assert checks["norm_form"] is True

    # composite target: the witness check is out of scope, the rest holds
    checks = base_change_checks(bqf(2, 1, 3), RingHom(ZZ, ModularRing(12)))
    assert checks["norm_form"] is None
    assert checks["even_clifford"] and checks["bimodule_left"] and checks["bimodule_right"]


def test_base_change_norm_form_check_needs_a_proven_prime():
    # primality comes from binquad.modular.factor: a large prime is
    # settled at once, and a modulus it cannot factor is skipped as a
    # composite one is
    for n in (2**61 - 1, 10**14 + 31):
        assert base_change_checks(bqf(1, 1, 1), RingHom(ZZ, ModularRing(n)))["norm_form"] is True
    for n in (4, 1000003 * 1000033):
        checks = base_change_checks(bqf(1, 1, 1), RingHom(ZZ, ModularRing(n)))
        assert checks["norm_form"] is None
        assert checks["even_clifford"] and checks["bimodule_left"] and checks["bimodule_right"]


def test_ideal_json_round_trip():
    I = form_to_ideal(bqf(2, 1, 3))
    assert IdealLattice.from_json(I.to_json()) == I


_big = st.integers(min_value=-10**30, max_value=10**30)
_column = st.one_of(
    st.tuples(_big, _big),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(_big, st.just(0)),
    st.just((0, 0)),
)


@st.composite
def _column_lists(draw):
    """2-5 columns: a few drawn ones, then repeats of them, each with a
    random sign, in a random order."""
    cols = draw(st.lists(_column, min_size=2, max_size=4))
    cols += draw(st.lists(st.sampled_from(cols), max_size=5 - len(cols)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(cols), max_size=len(cols)))
    return draw(st.permutations([(e * u, e * v) for (u, v), e in zip(cols, signs)]))


@settings(max_examples=300)
@given(_column_lists())
def test_hnf_cols_spans_the_columns(cols):
    # The Hermite triple must hold every column, and its determinant p*r
    # must be the gcd of the 2x2 minors, i.e. the index of the span; so
    # Z(p, 0) + Z(s, r) is the span itself.
    index = 0
    for i, (u1, v1) in enumerate(cols):
        for u2, v2 in cols[i + 1:]:
            index = gcd(index, u1 * v2 - u2 * v1)
    if index == 0:
        with pytest.raises(UsageError):
            _hnf_cols(cols)
        return
    p, s, r = _hnf_cols(cols)
    assert p > 0 and r > 0 and 0 <= s < p
    for u, v in cols:
        assert v % r == 0 and (u - (v // r) * s) % p == 0
    assert p * r == index


@pytest.mark.parametrize("v", [2.5, 2.0, "2", None], ids=repr)
def test_lattices_reject_non_integers(v):
    # int(v) would truncate 2.5 to a valid scalar and basis entry
    C = QuadraticAlgebra(ZZ, 1, 6)
    with pytest.raises(UsageError):
        IdealLattice(C, ((v, 0), (0, v)))
    with pytest.raises(UsageError):
        IdealLattice(C, ((v, 0), (0, 2)))
