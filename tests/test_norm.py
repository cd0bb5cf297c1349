import random

import pytest

from binquad.clifford import QuadraticAlgebra, even_clifford, m_left
from binquad.compose import identity_form
from binquad.errors import (
    IncompatibleAlgebras,
    NotPrimitive,
    UsageError,
    ZeroForm,
)
from binquad.form import bqf, properly_equivalent
from binquad.norm import (
    IdealLattice,
    base_change_checks,
    even_clifford_of_ideal,
    form_to_ideal,
    ideal_conjugate,
    ideal_is_invertible,
    ideal_is_principal,
    ideal_multiply,
    naive_norm_form,
    scalar_ideal,
    unit_ideal,
    universal_norm_form,
)
from binquad.picard import reduced_forms
from binquad.ring import ModularRing, QQ, RingHom, ZZ


def test_form_to_ideal_examples():
    I = form_to_ideal(bqf(2, 1, 3))
    assert I.basis == ((2, 1), (0, -1))
    assert I.alg == QuadraticAlgebra(ZZ, 1, 6)
    # a = 1 embeds as the unit ideal
    J = form_to_ideal(bqf(1, 1, 6))
    assert J == unit_ideal(J.alg)
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
    C = QuadraticAlgebra(ZZ, 1, 6)
    with pytest.raises(UsageError):
        IdealLattice(C, ((1, 0), (0, 2)))  # not closed under tau
    with pytest.raises(UsageError):
        IdealLattice(C, ((1, 2), (2, 4)))  # rank 1
    with pytest.raises(UsageError):
        IdealLattice(QuadraticAlgebra(QQ, 1, 6), ((1, 0), (0, 1)))


def test_norm_forms_example():
    I = form_to_ideal(bqf(2, 1, 3))
    assert naive_norm_form(I) == bqf(4, 2, 6)
    assert universal_norm_form(I) == bqf(2, 1, 3)


def test_norm_form_of_unit_ideal_is_the_algebra_norm():
    C = QuadraticAlgebra(ZZ, 1, 6)
    assert universal_norm_form(unit_ideal(C)) == bqf(1, 1, 6) == identity_form(C)


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
    A, w = even_clifford_of_ideal(unit_ideal(C))
    assert A == C and (w.k, w.eps) == (0, 1)
    for coeffs in ((2, 1, 3), (3, 1, 2)):
        I = form_to_ideal(bqf(*coeffs))
        A, w = even_clifford_of_ideal(I)
        assert w.verify(I.alg, A)


def test_ideal_multiply_examples():
    C = QuadraticAlgebra(ZZ, 1, 6)
    I = form_to_ideal(bqf(2, 1, 3))  # <2, 1 - tau>
    J = ideal_conjugate(I)  # the lattice <2, tau>
    P = ideal_multiply(I, J)
    assert P.norm() == 4
    assert properly_equivalent(universal_norm_form(P), bqf(1, 1, 6))
    # unit law, structurally
    assert ideal_multiply(I, unit_ideal(C)) == I
    # squaring lands in the class of the Dirichlet square
    sq = ideal_multiply(I, I)
    assert universal_norm_form(sq) == bqf(4, 5, 3)
    assert properly_equivalent(universal_norm_form(sq), bqf(2, -1, 3))


def test_ideal_multiply_is_commutative_and_associative():
    forms = reduced_forms(-71)
    from binquad.compose import _transport_ideal

    common = QuadraticAlgebra(ZZ, 1, 18)
    ideals = [_transport_ideal(common, form_to_ideal(q), 1) for q in forms]
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
    assert ideal_conjugate(unit_ideal(C)) == unit_ideal(C)
    assert ideal_conjugate(ideal_conjugate(I)) == I


def test_conjugate_gives_the_inverse_class():
    for coeffs in ((2, 1, 3), (3, 1, 2), (2, -1, 3)):
        q = bqf(*coeffs)
        I = form_to_ideal(q)
        assert universal_norm_form(ideal_conjugate(I)) == q.conjugate()
        prod = ideal_multiply(I, ideal_conjugate(I))
        assert universal_norm_form(prod) == identity_form(I.alg)
        assert prod == scalar_ideal(I.alg, naive_norm_form(I).content())


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
    assert ideal_is_principal(unit_ideal(C))
    assert ideal_is_principal(scalar_ideal(C, 3))
    assert not ideal_is_principal(form_to_ideal(bqf(2, 1, 3)))


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
