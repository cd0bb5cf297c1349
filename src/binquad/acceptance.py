"""Acceptance suite: every check the package must pass, runnable from the
CLI (`binquad verify`) and wrapped by the pytest suite.

All checks are exact (tolerance zero).  Each criterion function returns
(ok, detail); `run` prints one line per criterion.  Each criterion imports
the layers it checks in its own body, so a process that runs one
criterion loads only that criterion's layers.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

from .errors import UnsupportedRing, UsageError
from .form import BinaryQuadraticForm, _cleared, properly_equivalent, similar
from .ring import ModularRing, RingHom, ZZ


def _grid(lo: int, hi: int):
    return product(range(lo, hi + 1), repeat=3)


def _ring_grids():
    """(ring, coefficient grid): the box [-10, 10]^3 over Z, and over Z/5,
    Z/7 and Z/9 the n consecutive integers from -10 per coefficient, a
    complete residue system, so each form is built once and still from
    raw integers that the constructor reduces."""
    yield ZZ, _grid(-10, 10)
    for n in (5, 7, 9):
        yield ModularRing(n), _grid(-10, n - 11)


def _valid_discriminants(lo: int, hi: int = -3):
    return [D for D in range(lo, hi + 1) if D % 4 in (0, 1)]


def criterion_discriminant_identity():
    """4ac - b^2 equals minus the algebra discriminant, over all rings."""
    from .clifford import even_clifford

    n = 0
    for R, grid in _ring_grids():
        for a, b, c in grid:
            q = BinaryQuadraticForm(R, a, b, c)
            flipped, _ = q.discriminant()
            if flipped != R.neg(even_clifford(q).disc()):
                return False, f"mismatch at {q}"
            n += 1
    return True, f"{n} forms over 4 rings"


def _definite_primitive_forms(bound: int):
    out = []
    for a, b, c in _grid(-bound, bound):
        if a == 0 or c == 0:
            continue
        if b * b - 4 * a * c >= 0:
            continue
        if gcd(gcd(a, b), c) != 1:
            continue
        out.append(BinaryQuadraticForm(ZZ, a, b, c))
    return out


def _unit_det_matrix_pool(bound: int):
    # numpy serves only this brute oracle, so only C02 pays for its import.
    import numpy as np

    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    g = np.array(np.meshgrid(rng, rng, rng, rng, indexing="ij")).reshape(4, -1).T
    det = g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]
    return g[np.abs(det) == 1]


def _oracle_isomorphic(psi_pool, p, p2) -> bool:
    """Vectorized bounded search, for Clifford pairs p and p2, for psi with
    psi*M = (k + eps*M')*psi."""
    import numpy as np

    from .clifford import _witness_for_eps

    M = p.m
    found = False
    for eps in (1, -1):
        phi = _witness_for_eps(p2.alg, p.alg, eps)
        if phi is None:
            continue
        k = phi.k
        N = (
            (k + eps * p2.m[0][0], eps * p2.m[0][1]),
            (eps * p2.m[1][0], k + eps * p2.m[1][1]),
        )
        # rows of the linear system in (p00, p01, p10, p11)
        C = np.array(
            [
                [M[0][0] - N[0][0], M[1][0], -N[0][1], 0],
                [M[0][1], M[1][1] - N[0][0], 0, -N[0][1]],
                [-N[1][0], 0, M[0][0] - N[1][1], M[1][0]],
                [0, -N[1][0], M[0][1], M[1][1] - N[1][1]],
            ],
            dtype=np.int64,
        )
        residual = psi_pool @ C.T
        if bool(np.any(np.all(residual == 0, axis=1))):
            found = True
            break
    return found


def criterion_bijection_round_trips():
    """Form/pair correspondence: exact round trip, randomized shifted
    pairs, and similarity vs pair isomorphism against the brute oracle."""
    from .clifford import QuadraticAlgebra
    from .pairs import CliffordPair, form_to_pair, pair_to_form, pairs_isomorphic

    for a, b, c in _grid(-6, 6):
        q = BinaryQuadraticForm(ZZ, a, b, c)
        if pair_to_form(form_to_pair(q)) != q:
            return False, f"round trip broke at {q}"

    rng = random.Random(104729)
    for _ in range(500):
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        m = rng.randint(-5, 5)
        q = BinaryQuadraticForm(ZZ, a, b, c)
        base = form_to_pair(q)
        shifted = CliffordPair(
            QuadraticAlgebra(ZZ, b + 2 * m, b * m + m * m + a * c),
            ((base.m[0][0] + m, base.m[0][1]), (base.m[1][0], base.m[1][1] + m)),
        )
        if not shifted.is_traceable():
            return False, f"generated pair not traceable at {q}, m={m}"
        back = form_to_pair(pair_to_form(shifted))
        if not pairs_isomorphic(shifted, back).is_isomorphic:
            return False, f"shifted pair round trip broke at {q}, m={m}"

    forms = _definite_primitive_forms(4)
    psi_pool = _unit_det_matrix_pool(10)
    pairs = [form_to_pair(q) for q in forms]
    checked = 0
    for i in range(len(forms)):
        for j in range(i, len(forms)):
            sim = similar(forms[i], forms[j]).is_similar
            fast = pairs_isomorphic(pairs[i], pairs[j]).is_isomorphic
            brute = _oracle_isomorphic(psi_pool, pairs[i], pairs[j])
            if not (sim == fast == brute):
                return False, (
                    f"{forms[i]} vs {forms[j]}: similar={sim}, "
                    f"pairs={fast}, oracle={brute}"
                )
            checked += 1
    return True, f"2197 exact round trips, 500 shifted pairs, {checked} oracle pairs"


def criterion_traceability():
    """Left action matrices are traceable; the split counterexample is not."""
    from .clifford import QuadraticAlgebra
    from .pairs import CliffordPair, form_to_pair

    for R, grid in _ring_grids():
        for a, b, c in grid:
            q = BinaryQuadraticForm(R, a, b, c)
            if not form_to_pair(q).is_traceable():
                return False, f"left action not traceable at {q}"
    split = QuadraticAlgebra(ZZ, 1, 0)
    if CliffordPair(split, ((1, 0), (0, 1))).is_traceable():
        return False, "identity matrix passed as traceable for tau^2 = tau"
    return True, "full grid over 4 rings; split counterexample rejected"


def criterion_duality_involution():
    """dual of dual is the identity; the five-stage trace matches the
    expected relation sets."""
    from .pairs import dual_form, dual_form_trace

    for a, b, c in _grid(-10, 10):
        q = BinaryQuadraticForm(ZZ, a, b, c)
        if dual_form(dual_form(q)) != q:
            return False, f"double dual broke at {q}"
    rng = random.Random(7919)
    for _ in range(20):
        a = rng.randint(-8, 8)
        b = rng.randint(-8, 8)
        c = rng.randint(-8, 8)
        q = BinaryQuadraticForm(ZZ, a, b, c)
        st = dual_form_trace(q)
        expect = [
            ("classical", "E", (a, b, c), (b, a * c), ((b, c), (-a, 0))),
            ("wood", "E", (c, -b, a), None, None),
            ("kneser_dual", "E_dual", (c, -b, a), (-b, a * c), ((-b, a), (-c, 0))),
            ("wood_dual", "E_dual", (a, b, c), None, None),
            ("classical_double_dual", "E", (a, b, c), None, None),
        ]
        for stage, (label, module, coeffs, alg, action) in zip(st, expect):
            if stage.label != label or stage.module != module:
                return False, f"stage labels off at {q}"
            if stage.form.coeffs() != coeffs:
                return False, f"stage {label} coefficients off at {q}"
            if alg is not None:
                if (stage.pair.alg.t, stage.pair.alg.nm) != alg:
                    return False, f"stage {label} relations off at {q}"
                if stage.pair.m != action:
                    return False, f"stage {label} action matrix off at {q}"
    return True, "involution on 9261 forms; 20 traced forms"


def criterion_dual_conic():
    """Double dual of a conic is the conic; degenerate duals equal the
    exact limit of duals along q + t*(x^2 + xy + y^2)."""
    from .pairs import dual_conic

    n = 0
    for a, b, c in _grid(-5, 5):
        q = BinaryQuadraticForm(ZZ, a, b, c)
        if 4 * a * c - b * b == 0:
            continue
        # projective equality: the cleared double dual is nonzero and its
        # 2x2 minors against (a, b, c), itself nonzero here, all vanish
        (x, y, z), _ = _cleared(*dual_conic(dual_conic(q)).coeffs())
        if x == y == z == 0:
            return False, f"double dual degenerate at {q}"
        if x * b != y * a or x * c != z * a or y * c != z * b:
            return False, f"double dual not projectively {q}"
        n += 1
    samples = [(1, 4, 4), (1, 2, 1), (4, 4, 1), (9, -12, 4), (0, 0, 1)]
    for a, b, c in samples:
        q = BinaryQuadraticForm(ZZ, a, b, c)
        got = dual_conic(q).coeffs()
        # dual of q + t*(1,1,1) cleared of the determinant factor is
        # (c + t, -(b + t), a + t); its value at t = 0:
        limit = (c, -b, a)
        if tuple(int(v) for v in got) != limit:
            return False, f"degenerate dual of {q}: {got} vs limit {limit}"
        n += 1
    return True, f"{n} forms checked"


def criterion_composition_vs_oracle():
    """Tensor composition agrees with the classical oracle (Shanks'
    composition, dirichlet_compose) in the proper class, and the group
    laws hold."""
    from .compose import compose, dirichlet_compose, inverse_form
    from .picard import reduced_forms

    pairs_checked = 0
    for D in _valid_discriminants(-200):
        forms = reduced_forms(D)
        ident = BinaryQuadraticForm(ZZ, 1, D % 2, ((D % 2) - D) // 4)
        for i, q1 in enumerate(forms):
            if not properly_equivalent(compose(q1, ident), q1):
                return False, f"identity law broke at {q1}"
            if not properly_equivalent(compose(q1, inverse_form(q1)), ident):
                return False, f"inverse law broke at {q1}"
            for q2 in forms[i:]:
                lhs = compose(q1, q2)
                rhs = dirichlet_compose(q1, q2)
                if not properly_equivalent(lhs, rhs):
                    return False, f"oracle mismatch at {q1} o {q2}: {lhs} vs {rhs}"
                if not properly_equivalent(lhs, compose(q2, q1)):
                    return False, f"commutativity broke at {q1} o {q2}"
                pairs_checked += 1
    triples = 0
    for D in (-23, -47, -71):
        forms = reduced_forms(D)
        for q1, q2, q3 in product(forms, repeat=3):
            left = compose(compose(q1, q2), q3)
            right = compose(q1, compose(q2, q3))
            if not properly_equivalent(left, right):
                return False, f"associativity broke at {q1}, {q2}, {q3}"
            triples += 1
    return True, f"{pairs_checked} pairs across D in [-200,-3]; {triples} triples"


def criterion_class_numbers():
    """Classical class numbers and the cyclic group of discriminant -47."""
    from .picard import class_group, class_number

    expected = {-3: 1, -4: 1, -15: 2, -20: 2, -23: 3, -47: 5, -71: 7}
    for D, h in expected.items():
        got = class_number(D)
        if got != h:
            return False, f"h({D}) = {got}, expected {h}"
    g = class_group(-47)
    if g.invariant_factors != (5,):
        return False, f"class group of -47 is {g.invariant_factors}, expected (5,)"
    return True, "h(-3..-71) table and C5 structure"


def criterion_picard_bijections():
    """Oriented and unoriented counts from ideal lattices (`pic_counts`)
    equal those read off the element orders (`class_group`)."""
    from .picard import class_group, pic_counts

    for D in _valid_discriminants(-100):
        g = class_group(D)
        lattice, forms = pic_counts(D), (g.order, g.unoriented)
        if lattice != forms:
            return False, f"D={D}: lattice counts {lattice} != form counts {forms}"
    return True, "all valid D in [-100, -3], both routes"


def criterion_quaternion_axioms():
    """Associativity, scalar trace/norm, the rank-4 characteristic
    identity, and norm multiplicativity on random elements."""
    from .clifford import quat_conj, quat_mul, quat_norm, quat_trace

    rng = random.Random(65537)
    forms = []
    while len(forms) < 20:
        a = rng.randint(-5, 5)
        b = rng.randint(-5, 5)
        c = rng.randint(-5, 5)
        forms.append(BinaryQuadraticForm(ZZ, a, b, c))

    def rand_elem():
        return tuple(rng.randint(-6, 6) for _ in range(4))

    for i in range(200):
        q = forms[i % 20]
        z, w, v = rand_elem(), rand_elem(), rand_elem()
        if quat_mul(q, quat_mul(q, z, w), v) != quat_mul(q, z, quat_mul(q, w, v)):
            return False, f"associativity broke over {q}"
        tr = quat_trace(q, z)  # raises if non-scalar
        nm = quat_norm(q, z)
        z2 = quat_mul(q, z, z)
        char = tuple(z2[k] - tr * z[k] + (nm if k == 0 else 0) for k in range(4))
        if char != (0, 0, 0, 0):
            return False, f"characteristic identity broke for {z} over {q}"
        if quat_norm(q, quat_mul(q, z, w)) != nm * quat_norm(q, w):
            return False, f"norm multiplicativity broke over {q}"
        zc = quat_conj(q, z)
        if quat_conj(q, zc) != z:
            return False, f"involution not involutive over {q}"
        if quat_conj(q, quat_mul(q, z, w)) != quat_mul(q, quat_conj(q, w), zc):
            return False, f"anti-homomorphism broke over {q}"
    return True, "200 random triples over 20 forms"


def criterion_universal_norm():
    """Norm-form recovery, algebra stability, content multiplicativity,
    and the conjugate-inverse law."""
    from .clifford import QuadraticAlgebra
    from .compose import identity_form
    from .norm import (
        IdealLattice,
        _form_basis,
        even_clifford_of_ideal,
        form_to_ideal,
        ideal_conjugate,
        ideal_multiply,
        naive_norm_form,
        universal_norm_form,
    )
    from .picard import reduced_forms

    recovered = 0
    for a, b, c in _grid(-8, 8):
        if a <= 0 or c <= 0 or b * b - 4 * a * c >= 0:
            continue
        if gcd(gcd(a, b), c) != 1:
            continue
        q = BinaryQuadraticForm(ZZ, a, b, c)
        I = form_to_ideal(q)
        if not properly_equivalent(universal_norm_form(I), q):
            return False, f"recovery broke at {q}"
        even_clifford_of_ideal(I)  # raises when the witness is missing
        recovered += 1
    lattice_pairs = 0
    for D in _valid_discriminants(-100):
        forms = reduced_forms(D)
        common = QuadraticAlgebra(ZZ, D % 2, ((D % 2) ** 2 - D) // 4)
        ideals = [IdealLattice(common, _form_basis(q.a, q.b, common.t)) for q in forms]
        ident = identity_form(common)
        for I in ideals:
            if universal_norm_form(ideal_multiply(I, ideal_conjugate(I))) != ident:
                return False, f"conjugate-inverse law broke for {I}"
        for i, I in enumerate(ideals):
            for J in ideals[i:]:
                lhs = naive_norm_form(ideal_multiply(I, J)).content()
                rhs = naive_norm_form(I).content() * naive_norm_form(J).content()
                if lhs != rhs:
                    return False, f"content multiplicativity broke for {I}, {J}"
                lattice_pairs += 1
    return True, f"{recovered} recoveries; {lattice_pairs} lattice pairs"


def criterion_base_change():
    """Even algebra and both action matrices commute with Z -> Z/n."""
    from .norm import base_change_checks

    homs = [RingHom(ZZ, ModularRing(n)) for n in (2, 3, 5, 7, 12)]
    n = 0
    for a, b, c in _grid(-6, 6):
        q = BinaryQuadraticForm(ZZ, a, b, c)
        for hom in homs:
            checks = base_change_checks(q, hom)
            for name in ("even_clifford", "bimodule_left", "bimodule_right"):
                if checks[name] is not True:
                    return False, f"{name} failed at {q} under {hom}"
            if checks["norm_form"] is False:
                return False, f"norm_form failed at {q} under {hom}"
            n += 1
    return True, f"{n} form/hom combinations"


def criterion_automorphisms():
    """Exactly identity and conjugation; identity only when oriented;
    refusal when 2 divides zero."""
    from .clifford import QuadraticAlgebra, algebra_isomorphic, automorphisms

    rng = random.Random(31337)
    for _ in range(100):
        C = QuadraticAlgebra(ZZ, rng.randint(-20, 20), rng.randint(-20, 20))
        auts = automorphisms(C)
        if [(w.k, w.eps) for w in auts] != [(0, 1), (C.t, -1)]:
            return False, f"automorphisms of {C}: {auts}"
        oriented = automorphisms(C, oriented=True)
        if [(w.k, w.eps) for w in oriented] != [(0, 1)]:
            return False, f"oriented automorphisms of {C}: {oriented}"
    for n in (2, 4):
        C = QuadraticAlgebra(ModularRing(n), 1, 1)
        try:
            automorphisms(C)
            return False, f"Z/{n} was not refused"
        except UnsupportedRing:
            pass
        try:
            algebra_isomorphic(C, C)
            return False, f"Z/{n} was not refused by the isomorphism test"
        except UnsupportedRing:
            pass
    return True, "100 random algebras; Z/2 and Z/4 refused"


CRITERIA = [
    ("C01", "discriminant-identity", criterion_discriminant_identity),
    ("C02", "bijection-round-trips", criterion_bijection_round_trips),
    ("C03", "traceability", criterion_traceability),
    ("C04", "duality-involution", criterion_duality_involution),
    ("C05", "dual-conic", criterion_dual_conic),
    ("C06", "composition-vs-oracle", criterion_composition_vs_oracle),
    ("C07", "class-numbers", criterion_class_numbers),
    ("C08", "picard-bijections", criterion_picard_bijections),
    ("C09", "quaternion-axioms", criterion_quaternion_axioms),
    ("C10", "universal-norm", criterion_universal_norm),
    ("C11", "base-change", criterion_base_change),
    ("C12", "automorphisms", criterion_automorphisms),
]


def run(name_filter=None, out=None) -> bool:
    """Run the suite; print one line per criterion; True iff all pass."""
    if out is None:
        import sys

        out = sys.stdout.write
    picked = [c for c in CRITERIA if not name_filter or name_filter in c[1] or name_filter == c[0]]
    if not picked:
        raise UsageError(f"no criterion matches the filter {name_filter!r}")
    all_ok = True
    for key, name, fn in picked:
        ok, detail = fn()
        all_ok = all_ok and ok
        out(f"{key} {name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
    return all_ok
