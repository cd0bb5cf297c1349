import random
from itertools import combinations_with_replacement, product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from binquad.clifford import QuadraticAlgebra
from binquad.compose import (
    compose,
    dirichlet_compose,
    identity_form,
    inverse_form,
    proper_reduce,
)
from binquad.errors import NotComposable, NotPrimitive
from binquad.form import bqf, properly_equivalent, similar
from binquad.mat2 import mmul
from binquad.picard import reduced_forms
from binquad.ring import ZZ


def test_compose_examples():
    q = bqf(2, 1, 3)
    assert properly_equivalent(compose(q, q), bqf(2, -1, 3))
    assert properly_equivalent(compose(q, bqf(1, 1, 6)), q)
    assert properly_equivalent(compose(q, bqf(2, -1, 3)), bqf(1, 1, 6))


def test_identity_form_examples():
    assert identity_form(QuadraticAlgebra(ZZ, 1, 6)) == bqf(1, 1, 6)
    assert identity_form(QuadraticAlgebra(ZZ, 0, 1)) == bqf(1, 0, 1)
    assert identity_form(QuadraticAlgebra(ZZ, 0, -1)) == bqf(1, 0, -1)


def test_inverse_form_examples():
    assert inverse_form(bqf(2, 1, 3)) == bqf(2, -1, 3)
    assert inverse_form(bqf(1, 0, 1)) == bqf(1, 0, 1)
    assert inverse_form(bqf(3, 1, 2)) == bqf(3, -1, 2)


def test_dirichlet_examples():
    q = bqf(2, 1, 3)
    out = dirichlet_compose(q, q)
    assert proper_reduce(out) == bqf(2, -1, 3)
    assert properly_equivalent(dirichlet_compose(q, bqf(1, 1, 6)), q)
    # ambiguous class squares to the principal class
    out = dirichlet_compose(bqf(2, 2, 3), bqf(2, 2, 3))
    assert proper_reduce(out) == bqf(1, 0, 5)


def test_dirichlet_compose_at_square_discriminants_moves_a_zero_leading_coefficient():
    # (0, b, 0) and (0, b, c) have no coprime leading coefficient to start from
    assert dirichlet_compose(bqf(0, 1, 0), bqf(0, 1, 0)) == bqf(1, 1, 0)
    for q1, q2 in ((bqf(0, 7, 3), bqf(1, 7, 0)), (bqf(0, 7, 3), bqf(0, -7, 2)), (bqf(3, 7, 0), bqf(0, 7, 1))):
        out = dirichlet_compose(q1, q2)
        assert out.discriminant()[1] == 49 and out.is_primitive()


def test_composable_preconditions():
    with pytest.raises(NotComposable):
        compose(bqf(1, 0, 1), bqf(1, 1, 1))
    with pytest.raises(NotPrimitive):
        compose(bqf(2, 4, 6), bqf(2, 4, 6))
    with pytest.raises(NotComposable):
        dirichlet_compose(bqf(1, 0, 1), bqf(1, 1, 1))


def test_twist_composes_with_the_inverse_class():
    for D in (-23, -47):
        forms = reduced_forms(D)
        for q1, q2 in product(forms, repeat=2):
            twisted = compose(q1, q2, twist=True)
            straight = compose(q1, inverse_form(q2))
            assert properly_equivalent(twisted, straight)


def test_compose_matches_oracle_on_sample_discriminants():
    for D in (-23, -40, -56, -71, -84):
        forms = reduced_forms(D)
        for q1, q2 in product(forms, repeat=2):
            assert properly_equivalent(compose(q1, q2), dirichlet_compose(q1, q2))


def test_compose_agrees_with_oracle_on_unreduced_representatives():
    # class-level agreement must not depend on the chosen representatives
    rng = random.Random(67)
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1))]
    for D in (-23, -47, -55):
        forms = reduced_forms(D)
        for _ in range(10):
            q1 = rng.choice(forms).act(rng.choice(mats), 1)
            q2 = rng.choice(forms).act(rng.choice(mats), 1)
            assert properly_equivalent(compose(q1, q2), dirichlet_compose(q1, q2))


def test_compose_preserves_discriminant_and_primitivity():
    rng = random.Random(53)
    n = 0
    while n < 40:
        a, c = rng.randint(1, 7), rng.randint(1, 7)
        b = rng.randint(-7, 7)
        q1 = bqf(a, b, c)
        D = q1.discriminant()[1]
        if D >= 0 or not q1.is_primitive():
            continue
        q2 = rng.choice(reduced_forms(D)) if D % 4 in (0, 1) else None
        if q2 is None:
            continue
        out = compose(q1, q2)
        assert out.discriminant()[1] == D
        assert out.is_primitive()
        n += 1


def test_indefinite_composition_is_supported():
    # D = 8: composition runs and preserves the discriminant
    q = bqf(1, 0, -2)
    out = compose(q, q)
    assert out.discriminant()[1] == 8
    assert out.is_primitive()
    oracle = dirichlet_compose(q, q)
    assert oracle.discriminant()[1] == 8
    assert oracle.is_primitive()


def _reduced_indefinite_forms(D):
    """Primitive forms of discriminant D > 0 with |sqrt(D) - 2|a|| < b < sqrt(D)."""
    r = isqrt(D)
    out = []
    for a in range(-r, r + 1):
        for b in range(1, r + 1):
            if a == 0 or (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if gcd(gcd(a, b), c) == 1 and 2 * abs(a) - b <= r < b + 2 * abs(a):
                out.append(bqf(a, b, c))
    return out


def test_compose_and_oracle_agree_up_to_similarity_at_positive_discriminants():
    # Up to similarity only: in the proper class the two routes disagree
    # on 1680 of these pairs, e.g. compose((-2, 2, 1), (1, 2, -2)) is
    # (2, 2, -1), outside the class of (-2, 2, 1) though (1, 2, -2) is
    # the identity class of D = 12.
    pairs = 0
    for D in range(5, 201):
        if D % 4 > 1 or isqrt(D) ** 2 == D:
            continue
        for q1, q2 in combinations_with_replacement(_reduced_indefinite_forms(D), 2):
            v = similar(compose(q1, q2), dirichlet_compose(q1, q2))
            assert v.is_similar, (q1, q2)
            pairs += 1
    assert pairs == 6191


def test_group_laws_on_a_cyclic_class_set():
    forms = reduced_forms(-47)
    ident = bqf(1, 1, 12)
    for q in forms:
        assert properly_equivalent(compose(q, ident), q)
        assert properly_equivalent(compose(q, inverse_form(q)), ident)
    for q1, q2 in product(forms, repeat=2):
        assert properly_equivalent(compose(q1, q2), compose(q2, q1))


NEGATIVE = [D for D in range(-3, -601, -1) if D % 4 in (0, 1)]
POSITIVE = [D for D in range(5, 201) if D % 4 in (0, 1) and isqrt(D) ** 2 != D]
words = st.lists(st.tuples(st.booleans(), st.integers(min_value=-6, max_value=6)), max_size=4)


def _sl2(word):
    M = ((1, 0), (0, 1))
    for upper, k in word:
        M = mmul(ZZ, M, ((1, k), (0, 1)) if upper else ((1, 0), (k, 1)))
    return M


@given(st.sampled_from(NEGATIVE), st.data(), words, words)
def test_shanks_matches_lattice_compose_on_moved_definite_forms(D, data, w1, w2):
    forms = reduced_forms(D)
    q1 = data.draw(st.sampled_from(forms)).act(_sl2(w1), 1)
    q2 = data.draw(st.sampled_from(forms)).act(_sl2(w2), 1)
    assert properly_equivalent(dirichlet_compose(q1, q2), compose(q1, q2))


@settings(deadline=None)
@given(st.sampled_from(POSITIVE), st.data(), words, words, words)
def test_shanks_group_laws_in_the_narrow_class_at_positive_discriminants(D, data, w1, w2, w3):
    # lattice compose fails these laws in the proper class (see the
    # similarity-only test above); Shanks' composition keeps them
    forms = _reduced_indefinite_forms(D)
    q1, q2, q3 = (data.draw(st.sampled_from(forms)).act(_sl2(w), 1) for w in (w1, w2, w3))
    ident = bqf(1, D % 2, (D % 2 - D) // 4)
    assert properly_equivalent(dirichlet_compose(q1, ident), q1)
    assert properly_equivalent(dirichlet_compose(q1, q1.conjugate()), ident)
    assert properly_equivalent(dirichlet_compose(q1, q2), dirichlet_compose(q2, q1))
    assert properly_equivalent(
        dirichlet_compose(dirichlet_compose(q1, q2), q3), dirichlet_compose(q1, dirichlet_compose(q2, q3))
    )
