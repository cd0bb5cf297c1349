import sys
from fractions import Fraction
from math import gcd, prod

import pytest

from binquad import picard
from binquad.clifford import QuadraticAlgebra, algebra_isomorphic, even_clifford, identity_form as form_for_algebra
from binquad.compose import compose, shanks
from binquad.errors import BadDiscriminant
from binquad.form import bqf, reduce_definite
from binquad.norm import IdealLattice
from binquad.picard import (
    class_group,
    class_number,
    ideal_class_representatives,
    pic_counts,
    reduced_forms,
)
from binquad.ring import ModularRing, QQ, ZZ

from oracles import shanks_table


def test_reduced_forms_examples():
    assert [q.coeffs() for q in reduced_forms(-23)] == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert [q.coeffs() for q in reduced_forms(-4)] == [(1, 0, 1)]
    assert [q.coeffs() for q in reduced_forms(-3)] == [(1, 1, 1)]


def test_reduced_forms_are_reduced_and_primitive():
    for D in (-23, -47, -84, -100):
        for q in reduced_forms(D):
            a, b, c = q.coeffs()
            assert -a < b <= a <= c and (b >= 0 or a != c)
            assert q.is_primitive()
            assert q.discriminant()[1] == D


def test_bad_discriminants_rejected():
    for D in (5, 0, -2, -5, -10):
        with pytest.raises(BadDiscriminant):
            reduced_forms(D)


def test_class_numbers():
    expected = {-3: 1, -4: 1, -15: 2, -20: 2, -23: 3, -47: 5, -71: 7, -163: 1}
    for D, h in expected.items():
        assert class_number(D) == h


def test_heegner_class_number_one_list():
    # exactly these fundamental discriminants have class number 1
    heegner = {-3, -4, -7, -8, -11, -19, -43, -67, -163}
    fundamental = []
    for D in range(-163, -2):
        if D % 4 == 1:
            if _squarefree(D):
                fundamental.append(D)
        elif D % 4 == 0:
            m = D // 4
            if m % 4 in (2, 3) and _squarefree(m):
                fundamental.append(D)
    ones = {D for D in fundamental if class_number(D) == 1}
    assert ones == heegner


def _squarefree(n):
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_documented_class_numbers():
    table = {-31: 3, -39: 4, -56: 4, -95: 8, -104: 6, -120: 4, -167: 11, -191: 13, -199: 9}
    for D, h in table.items():
        assert class_number(D) == h
    assert class_group(-39).invariant_factors == (4,)
    assert class_group(-56).invariant_factors == (4,)
    assert class_group(-120).invariant_factors == (2, 2)


def test_class_group_structure():
    g = class_group(-47)
    assert g.order == 5 and g.invariant_factors == (5,)
    assert class_group(-23).invariant_factors == (3,)
    assert class_group(-20).invariant_factors == (2,)
    assert class_group(-84).invariant_factors == (2, 2)
    assert class_group(-3).invariant_factors == ()


def test_class_group_table_is_a_latin_square_with_identity():
    g = class_group(-71)
    table = shanks_table(g.forms)
    n = g.order
    ident = [q.coeffs() for q in g.forms].index((1, 1, 18))
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(row[i] for row in table) == list(range(n))
        assert ident in table[i]
        assert table[i][ident] == i


def _lattice_table(forms):
    """Cayley table of lattice composition on the reduced forms (identity
    first).  Lattice rows are computed for a generating set only; since
    composition is associative, the row of g*y is the row of y followed
    by the row of g."""
    index = {q.coeffs(): i for i, q in enumerate(forms)}
    rows = {0: list(range(len(forms)))}
    gens = []
    while len(rows) < len(forms):
        g = next(i for i in range(len(forms)) if i not in rows)
        gens.append([index[reduce_definite(compose(forms[g], x))[0].coeffs()] for x in forms])
        frontier = list(rows)
        while frontier:
            y = frontier.pop()
            for row in gens:
                if row[y] not in rows:
                    rows[row[y]] = [row[v] for v in rows[y]]
                    frontier.append(row[y])
    return tuple(tuple(rows[i]) for i in range(len(forms)))


def test_class_group_tables_match_the_lattice_route():
    # groups of p-rank 2 for p >= 5 first occur past -2000; there the
    # invariant factors are checked against known values and kill counts
    extra = {-3299: (3, 9), -11199: (5, 20), -12451: (5, 5)}
    for D in [*range(-3, -2001, -1), *extra]:
        if D % 4 not in (0, 1):
            continue
        g = class_group(D)
        table = shanks_table(g.forms)
        if D in extra:
            assert g.invariant_factors == extra[D], D
        else:
            assert table == _lattice_table(g.forms), D
        orders = []
        for x in range(g.order):
            k, y = 1, x
            while y:
                k, y = k + 1, table[y][x]
            orders.append(k)
        assert g.orders == tuple(orders), D
        # a finite abelian group is fixed by the counts #{x : x^k = e}, k | h;
        # for Z/d1 x ... x Z/dr they are prod(gcd(k, d_i))
        factors = g.invariant_factors
        assert all(big % small == 0 for small, big in zip(factors, factors[1:])), D
        for k in range(1, g.order + 1):
            if g.order % k:
                continue
            killed = 0
            for x in range(g.order):
                y = 0
                for _ in range(k):
                    y = table[y][x]
                killed += y == 0
            assert killed == prod(gcd(k, d) for d in factors), (D, k)


def test_class_group_composes_at_most_3h_times(monkeypatch):
    # one walk per cyclic subgroup, where the Cayley table takes h^2
    calls = 0

    def counting_shanks(f1, f2):
        nonlocal calls
        calls += 1
        return shanks(f1, f2)

    monkeypatch.setattr(picard, "shanks", counting_shanks)
    for D in [*range(-3, -2001, -1), -10000019]:
        if D % 4 not in (0, 1):
            continue
        calls = 0
        h = class_group(D).order
        assert calls <= 3 * h, (D, calls, h)


def test_unoriented_count_is_read_off_the_table():
    for D in (-3, -4, -23, -47, -56, -84, -95, -120, -420):
        g = class_group(D)
        assert pic_counts(D) == (g.order, g.unoriented)


def test_pic_counts_examples():
    assert pic_counts(-23) == (3, 2)
    assert pic_counts(-20) == (2, 2)
    assert pic_counts(-4) == (1, 1)


def test_pic_counts_reaches_no_form_route(monkeypatch):
    # class_group's counts come first; then every binding of the form route
    # (enumeration, reduction, Shanks' composition) refuses to run
    Ds = [D for D in range(-400, -2) if D % 4 in (0, 1)]
    table = {}
    for D in Ds:
        g = class_group(D)
        table[D] = (g.order, g.unoriented)

    def refuse(*args, **kwargs):
        raise AssertionError("pic_counts reached the form route")

    homes = {"picard": ("reduced_forms", "class_group"), "form": ("reduce_definite", "reduce_triple"),
             "compose": ("shanks",)}
    for home, names in homes.items():
        for name in names:
            fn = getattr(sys.modules[f"binquad.{home}"], name)
            for mod in [m for key, m in sys.modules.items() if key == "binquad" or key.startswith("binquad.")]:
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, refuse)
    assert pic_counts(-23) == (3, 2)
    for D in Ds:
        assert pic_counts(D) == table[D], D


def test_pic_counts_match_class_numbers():
    for D in (-23, -47, -56, -84, -95):
        oriented, unoriented = pic_counts(D)
        assert oriented == class_number(D)
        assert 1 <= unoriented <= oriented


def test_ideal_class_enumeration_matches():
    for D in (-23, -47, -84):
        assert len(ideal_class_representatives(D)) == class_number(D)
    # one Hermite basis ((a, s), (0, -1)) per class, smallest a and s first
    reps = ideal_class_representatives(-84)
    assert [I.basis for I in reps] == [((1, 0), (0, -1)), ((2, 1), (0, -1)), ((3, 0), (0, -1)), ((5, 2), (0, -1))]
    assert {I.alg for I in reps} == {QuadraticAlgebra(ZZ, 0, 21)}


def test_pic_counts_builds_no_lattice(monkeypatch):
    # the counts run on Hermite bases; only the representatives handed
    # out are built as IdealLattice values, one per class
    built = []
    init = IdealLattice.__init__

    def refuse(self, *args):
        raise AssertionError("pic_counts built an IdealLattice")

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(IdealLattice, "__init__", refuse)
    assert [pic_counts(D) for D in (-4, -23, -100)] == [(1, 1), (3, 2), (2, 2)]
    monkeypatch.setattr(IdealLattice, "__init__", counting)
    for D in (-4, -23, -100, -420):
        del built[:]
        assert len(ideal_class_representatives(D)) == len(built) == class_number(D)


def test_form_for_algebra_examples():
    C = QuadraticAlgebra(ZZ, 1, 6)
    q = form_for_algebra(C)
    assert q == bqf(1, 1, 6)
    assert algebra_isomorphic(C, even_clifford(q)) is not None
    assert form_for_algebra(QuadraticAlgebra(ZZ, 0, 2)) == bqf(1, 0, 2)
    # indefinite algebras are allowed
    assert form_for_algebra(QuadraticAlgebra(ZZ, 3, 1)) == bqf(1, 3, 1)


def test_form_for_algebra_has_the_algebra_as_even_clifford():
    # over Z/4 two is a zero divisor, so no algebra isomorphism can be
    # asked for; the algebra itself comes back
    for R, t, nm in ((ZZ, 1, 6), (ZZ, -3, -10), (QQ, Fraction(1, 2), Fraction(-7, 3)),
                     (ModularRing(9), 4, 7), (ModularRing(4), 2, 3), (ModularRing(4), 1, 0)):
        C = QuadraticAlgebra(R, t, nm)
        assert even_clifford(form_for_algebra(C)) == C
