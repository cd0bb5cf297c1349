"""The test oracles, at most one independent oracle per algorithm of the
library, and the replaced routes that no independent oracle can stand in
for.  None of these runs when binquad answers a request.

Independent oracles:

- similarity over Z: `bounded_witness_search` (non-square D > 0),
  `column_search` (square D, complete at bound s) and
  `definite_reduction_oracle` (D < 0, with proper equivalence);
- similarity over Q: `bounded_witness_search`, which finds no witness for
  a pair the screen refuses;
- similarity over Z/n: the exact classes of `orbit_labels` and
  `dyadic_orbit_labels`, and for the `discriminant` reason
  `discriminant_screen_units`;
- the genus characters: the value sets mod m <= 16 of `value_set_screen`,
  which they subsume;
- pair isomorphism: `pairs_isomorphic_search`;
- class groups: the Cayley table of Shanks compositions, `shanks_table`;
- principality of ideal lattices: a generator search,
  `principal_by_generator`;
- dual conics: Fraction arithmetic over Q, `dual_conic_fractions`;
- `Ring.normalize_all`: `normalize_each`, one `normalize` per value;
- `modular.factor`: `factor_by_trial_division`;
- the CLI's verb-table parser: the argparse parser it replaced,
  `build_parser`.

The arithmetic of rings, matrices, forms, algebras and pairs has its
oracle in the seed definitions of tests/test_ring.py and
tests/test_arithmetic.py.

Replaced routes, kept for the bytes they pin (see their section below):
the Fraction product of the witness over Q, `rational_similarity_product`;
composition and inversion through IdealLattice values,
`compose_by_lattices` and `inverse_by_lattices`; and the local witnesses
over ModularRing, `similar_mod_by_rings`.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, isqrt, prod
from typing import Optional

from binquad.clifford import QuadraticAlgebra, _witness_for_eps, even_clifford, tau_product
from binquad.compose import shanks
from binquad.errors import NotComposable, UnsupportedRing
# reduce_definite, reduce_triple and shanks are bound here at import, so
# tests that patch the library's bindings leave these oracles their own.
from binquad.form import (
    BinaryQuadraticForm,
    SimilarityVerdict,
    SimilarityWitness,
    reduce_definite,
    reduce_triple,
)
from binquad.mat2 import mat, mdet, mident, minv, mmul
from binquad.modular import (
    TRIAL_LIMIT,
    _I,
    _disc_classes_match,
    _hensel2,
    _legendre,
    _sqrt2,
    _sqrt_unit,
    _val,
    factor,
)
from binquad.norm import IdealLattice, _hnf_cols, _nonzero_leading
from binquad.pairs import CliffordPair, PairWitness, dual_conic
from binquad.ring import IntegerRing, ModularRing, QQ, RationalRing, Ring, RingHom, ZZ, fraction_sqrt


def spiral(bound: int):
    """0, 1, -1, 2, -2, ...: small witnesses are found first."""
    out = [0]
    for k in range(1, bound + 1):
        out.extend((k, -k))
    return out


def units(R: Ring) -> list:
    """Every unit of Z or of Z/n (O(n)); other rings have no finite list."""
    if isinstance(R, IntegerRing):
        return [1, -1]
    if isinstance(R, ModularRing):
        return [u for u in range(1, R.n) if gcd(u, R.n) == 1]
    raise UnsupportedRing(f"cannot enumerate units of {R!r}")


def iter_unit_matrices(ring: Ring, bound: int):
    """Unit-determinant matrices with entries up to the bound."""
    rng = spiral(bound)
    for m00, m10 in product(rng, repeat=2):
        for m01, m11 in product(rng, repeat=2):
            M = mat(ring, ((m00, m01), (m10, m11)))
            if ring.is_unit(mdet(ring, M)):
                yield M


def bounded_witness_search(q1, q2, bound: int) -> Optional[SimilarityWitness]:
    """M (entries up to the bound) and a unit u with q2(Mv) = u q1(v)."""
    R = q1.ring
    rational = isinstance(R, RationalRing)
    unit_list = None if rational else units(R)
    for M in iter_unit_matrices(ZZ if rational else R, bound):
        if rational:
            M = mat(R, M)
            if not R.is_unit(mdet(R, M)):
                continue
        col1 = (M[0][0], M[1][0])
        col2 = (M[0][1], M[1][1])
        a2 = q2.evaluate(*col1)
        b2 = q2.polar(col1, col2)
        c2 = q2.evaluate(*col2)
        if rational:
            # u is forced by the first nonzero coefficient of q1.
            pairs = ((q1.a, a2), (q1.b, b2), (q1.c, c2))
            u = None
            for lhs, rhs in pairs:
                if lhs != 0:
                    u = rhs / lhs
                    break
            if u is None or u == 0:
                continue
            if all(rhs == u * lhs for lhs, rhs in pairs):
                return SimilarityWitness(M, u)
        else:
            for u in unit_list:
                if a2 == R.mul(u, q1.a) and b2 == R.mul(u, q1.b) and c2 == R.mul(u, q1.c):
                    return SimilarityWitness(M, R.normalize(u))
    return None


def column_search(q1, q2, bound: int) -> Optional[SimilarityWitness]:
    """The same search over Z, column by column: the first column v of M
    must have q2(v) = u*a1, so only those v are paired with second
    columns.  O(bound^2) per column instead of O(bound^4)."""
    box = list(product(range(-bound, bound + 1), repeat=2))
    for u in (1, -1):
        firsts = [v for v in box if q2.evaluate(*v) == u * q1.a]
        seconds = [w for w in box if q2.evaluate(*w) == u * q1.c]
        for (p, r), (s, t) in product(firsts, seconds):
            if p * t - r * s in (1, -1) and q2.polar((p, r), (s, t)) == u * q1.b:
                return SimilarityWitness(((p, s), (r, t)), u)
    return None


def definite_reduction_oracle(q1, q2):
    """(similar, properly equivalent) for definite forms over Z, from the
    Gauss reductions of the positive definite one of q and -q: similar iff
    the reductions of q1 and of q2 or of its conjugate agree, and properly
    equivalent iff moreover the signs agree and no conjugation is needed."""

    def positive(q):
        s = 1 if q.a > 0 else -1
        return s, reduce_definite(q if s == 1 else q.neg())[0]

    s1, r1 = positive(q1)
    s2, r2 = positive(q2)
    proper = r1 == r2
    return proper or r1 == reduce_definite(r2.conjugate())[0], proper and s1 == s2


def shanks_table(forms):
    """Cayley table of the reduced forms of one discriminant, principal
    form first: table[i][j] is the index of the reduced Shanks composition
    of forms[i] and forms[j].  h^2 compositions, where class_group walks
    each cyclic subgroup once."""
    triples = [q.coeffs() for q in forms]
    index = {f: i for i, f in enumerate(triples)}
    return tuple(tuple(index[reduce_triple(*shanks(f1, f2))[0]] for f2 in triples) for f1 in triples)


def value_set_mod(q: BinaryQuadraticForm, m: int) -> frozenset:
    """The set of values of q on (Z/m)^2, an invariant of GL2(Z)-classes."""
    vals = set()
    for x in range(m):
        for y in range(m):
            vals.add((q.a * x * x + q.b * x * y + q.c * y * y) % m)
    return frozenset(vals)


def value_set_screen(q1, q2) -> Optional[str]:
    """`value_set_mod_m` for the least m <= 16 where the value sets of
    forms over Z mod m differ even up to sign, or None: exact invariants
    of similarity that cost O(m^2), which the genus characters subsume."""
    for m in range(2, 17):
        s1 = value_set_mod(q1, m)
        s2 = value_set_mod(q2, m)
        if s2 != s1 and s2 != frozenset((-v) % m for v in s1):
            return f"value_set_mod_{m}"
    return None


def discriminant_screen_units(q1, q2) -> bool:
    """Whether d2 = w^2 * d1 over Z/n fails for every unit w."""
    R = q1.ring
    d1, d2 = q1.discriminant()[1], q2.discriminant()[1]
    return not any(R.mul(R.mul(w, w), d1) == d2 for w in units(R))


@cache
def orbit_labels(n: int, units: Optional[tuple] = None):
    """Similarity classes of all forms over Z/n by union-find under
    generators of GL2(Z/n) x units: the two elementary matrices generate
    SL2, and diag(u, 1) and the scale u add the units.  `units` may be a
    generating set of the unit group (-1 and 5 generate it for n = 2^k);
    by default every unit is used."""
    idx = lambda f: (f[0] * n + f[1]) * n + f[2]
    parent = list(range(n**3))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if units is None:
        units = tuple(u for u in range(1, n) if gcd(u, n) == 1)
    moves = [lambda a, b, c: (a, 2 * a + b, a + b + c), lambda a, b, c: (a + b + c, b + 2 * c, c)]
    moves += [lambda a, b, c, u=u: (u * u * a, u * b, c) for u in units]
    moves += [lambda a, b, c, u=u: (u * a, u * b, u * c) for u in units]
    for f in product(range(n), repeat=3):
        i = find(idx(f))
        for move in moves:
            j = find(idx(tuple(x % n for x in move(*f))))
            if i != j:
                parent[j] = i
    return {f: find(idx(f)) for f in product(range(n), repeat=3)}


def dyadic_orbit_labels(k: int):
    """orbit_labels over Z/2^k with the units generated by -1 and 5."""
    n = 2**k
    return orbit_labels(n, (n - 1, 5 % n))


def algebra_map_candidates(p: CliffordPair, p2: CliffordPair):
    """Witnesses for maps alg(p) -> alg(p2).

    Over Z and Q the units that can appear are +-1; over a modular ring
    every unit is a possible twist, so all of them are tried."""
    out = []
    if not p.ring.two_is_regular():
        return out
    for eps in units(p.ring) if isinstance(p.ring, ModularRing) else (1, -1):
        w = _witness_for_eps(p2.alg, p.alg, eps)
        if w is not None:
            out.append(w)
    return out


def pairs_isomorphic_search(p: CliffordPair, p2: CliffordPair, bound: int = 12) -> Optional[PairWitness]:
    """Enumerate psi with entries up to the bound."""
    R = p.ring
    candidates = algebra_map_candidates(p, p2)
    if not candidates:
        return None
    rng = range(-bound, bound + 1)
    (n00, n01), (n10, n11) = p2.m
    # phi(tau)' = k + eps*M2 acting on the second pair's module
    images = [
        (phi, mat(R, ((phi.k + e * n00, e * n01), (e * n10, phi.k + e * n11))))
        for phi, e in ((phi, R.normalize(phi.eps)) for phi in candidates)
    ]
    M = p.m
    for e00, e01, e10, e11 in product(rng, repeat=4):
        psi = mat(R, ((e00, e01), (e10, e11)))
        if not R.is_unit(mdet(R, psi)):
            continue
        lhs = mmul(R, psi, M)
        for phi, N in images:
            if lhs == mmul(R, N, psi):
                return PairWitness(psi, phi)
    return None


def dual_conic_fractions(q):
    """The dual conic by Fraction arithmetic over Q: a form over Z is mapped
    to Q first, and a nondegenerate dual is (c, -b, a)/det with
    det = ac - b^2/4.  A degenerate form goes on, over Q, to the library's
    square branch."""
    if isinstance(q.ring, IntegerRing):
        q = q.map(RingHom(ZZ, QQ))
    a, b, c = q.coeffs()
    det = a * c - b * b / 4
    if det == 0:
        return dual_conic(q)
    return BinaryQuadraticForm(QQ, c / det, -b / det, a / det)


def principal_by_generator(I: IdealLattice) -> bool:
    """Principality as decided before the norm argument: some gamma in I
    of norm [O : I] spans, together with gamma*tau, the lattice I."""
    alg = I.alg
    Ic = I.canonical()
    (a0, a1), (b0, b1) = Ic.columns()
    m = Ic.norm()
    A, C = alg.norm((a0, a1)), alg.norm((b0, b1))
    B = alg.norm((a0 + b0, a1 + b1)) - A - C
    disc = B * B - 4 * A * C
    # 4A*f(x, y) = (2Ax + By)^2 - disc*y^2 bounds y; 4C*f bounds x alike
    xmax, ymax = isqrt(4 * C * m // -disc) + 1, isqrt(4 * A * m // -disc) + 1
    for y in range(-ymax, ymax + 1):
        for x in range(-xmax, xmax + 1):
            g0, g1 = x * a0 + y * b0, x * a1 + y * b1
            if alg.norm((g0, g1)) != m:
                continue
            gt0, gt1 = -alg.nm * g1, g0 + alg.t * g1
            if IdealLattice(alg, ((g0, gt0), (g1, gt1))).canonical().basis == Ic.basis:
                return True
    return False


def normalize_each(ring: Ring, *vs) -> tuple:
    """ring.normalize of each value in turn: the fields of a form (a, b, c)
    or an algebra (t, nm) as their constructors set them one by one."""
    return tuple(ring.normalize(v) for v in vs)


def factor_by_trial_division(n: int) -> dict:
    """{p: k} for n > 1 by trial division by every d with d^2 <= n, smallest
    p first; what is left above 1 is prime."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- replaced routes that stay -----------------------------------------------
#
# A witness over Q or Z/n is one of many valid ones, and Shanks' composition
# checks composition at D > 0 only up to similarity, so no independent oracle
# reaches the bytes these routes pin.  The two witness routes alone kill the
# faults of tests/mutants.py that give other valid witnesses; the lattice
# route is the one exact check of composition at D > 0 and square D.


# -- the Fraction route that the closed-form witness over Q replaced ---------


def rational_similarity_product(q1, q2) -> SimilarityWitness:
    """The witness over Q as a product of matrices: complete squares to get
    q_i(P_i v) = alpha_i*x^2 + beta_i*y^2 (on a; on c after swapping x and
    y; on q(x, x + y) when a = c = 0), then u = alpha2/alpha1 and
    M = P2 diag(1, s) P1^-1 with s^2 = alpha2*beta1/(alpha1*beta2), s = 1
    in rank 1.  For nonzero forms that pass the discriminant screen."""
    R = q1.ring

    def diagonalize(q):
        a, b, c = q.coeffs()
        if a != 0:
            t = b / (2 * a)
            return mat(R, ((1, -t), (0, 1))), a, c - a * t * t
        if c != 0:
            t = b / (2 * c)
            return mat(R, ((0, 1), (1, -t))), c, -c * t * t
        h = Fraction(1, 2)
        return mat(R, ((1, -h), (1, h))), b, -b / 4

    P1, al1, be1 = diagonalize(q1)
    P2, al2, be2 = diagonalize(q2)
    s = fraction_sqrt(al2 * be1 / (al1 * be2)) if be2 != 0 else 1
    (p00, p01), (p10, p11) = P2
    M = mmul(R, ((p00, s * p01), (p10, s * p11)), minv(R, P1))
    return SimilarityWitness(M, R.normalize(al2 / al1))


# -- the lattice route that the integer lattice core replaced ---------------
#
# compose and inverse_form as they were: validated IdealLattice values, the
# second transported along an AlgebraWitness, products through tau_product
# and norms through QuadraticAlgebra.norm and its ring.


def _canonical_basis_alg(alg: QuadraticAlgebra, p: int, s: int, r: int):
    if s == 0 and (r * alg.t) % p == 0:
        return ((p, 0), (0, r))
    return ((p, (-s) % p), (0, -r))


def _canonical_lattice(alg: QuadraticAlgebra, cols) -> IdealLattice:
    return IdealLattice(alg, _canonical_basis_alg(alg, *_hnf_cols(cols)))


def form_to_ideal_lattice(q: BinaryQuadraticForm) -> IdealLattice:
    q = BinaryQuadraticForm(ZZ, *_nonzero_leading(*q.coeffs()))
    return IdealLattice(even_clifford(q), ((q.a, q.b), (0, -1)))


def transport_ideal(target: QuadraticAlgebra, I: IdealLattice, eps: int) -> IdealLattice:
    """Move a lattice into the target algebra along tau_src -> k + eps*tau."""
    w = _witness_for_eps(target, I.alg, eps)
    if w is None:
        raise NotComposable(f"no algebra witness from {I.alg} to {target} with eps={eps}")
    cols = [(x + w.k * y, w.eps * y) for x, y in I.columns()]
    return IdealLattice(target, ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1])))


def ideal_multiply_alg(I: IdealLattice, J: IdealLattice) -> IdealLattice:
    alg = I.alg
    return _canonical_lattice(alg, [tau_product(alg.t, alg.nm, x, y) for x in I.columns() for y in J.columns()])


def ideal_conjugate_alg(I: IdealLattice) -> IdealLattice:
    t = I.alg.t
    return _canonical_lattice(I.alg, [(x + y * t, -y) for x, y in I.columns()])


def universal_norm_form_alg(I: IdealLattice) -> BinaryQuadraticForm:
    """N(x*alpha + y*beta) through QuadraticAlgebra.norm, divided by its content."""
    (alpha, beta), alg = I.columns(), I.alg
    A, C = alg.norm(alpha), alg.norm(beta)
    n = BinaryQuadraticForm(ZZ, A, alg.norm((alpha[0] + beta[0], alpha[1] + beta[1])) - A - C, C)
    g = n.content()
    return BinaryQuadraticForm(ZZ, n.a // g, n.b // g, n.c // g)


def compose_by_lattices(q1, q2, twist: bool = False) -> BinaryQuadraticForm:
    """Tensor-product composition of primitive forms of equal discriminant."""
    I1 = form_to_ideal_lattice(q1)
    I2 = form_to_ideal_lattice(q2)
    I2t = transport_ideal(I1.alg, I2, -1 if twist else 1)
    return universal_norm_form_alg(ideal_multiply_alg(I1, I2t))


def inverse_by_lattices(q) -> BinaryQuadraticForm:
    """Norm form of the conjugated lattice."""
    return universal_norm_form_alg(ideal_conjugate_alg(form_to_ideal_lattice(q)))


# -- the ModularRing route that the residue kernels replaced ---------------
#
# similar over Z/n as it was: the local witnesses over ModularRing(p**k),
# with forms and mat2 matrices, glued by one CRT call per value.


def _diagonalize(q, p: int, k: int, R: ModularRing):
    """(P, d1, d2) with q(P v) = d1*x^2 + d2*y^2 mod p^k = R.n and
    v(d1) <= v(d2): complete the square on a coefficient of least
    valuation, after moving it to a."""
    a, b, c = (x % R.n for x in q.coeffs())
    v = min(_val(x, p, k)[0] for x in (a, b, c))
    if v == k:
        return mident(R), 0, 0
    P = mident(R)
    if _val(a, p, k)[0] > v:
        if _val(c, p, k)[0] == v:
            P = mat(R, ((0, 1), (1, 0)))
            a, c = c, a
        else:
            # only b has least valuation: (x, y) -> (x, x + y) gives a + b + c
            P = mat(R, ((1, 0), (1, 1)))
            a, b = R.normalize(a + b + c), R.normalize(b + 2 * c)
    # 2*a*t = b mod p^k, so q(x - t*y, y) = a*x^2 + (c - a*t^2)*y^2
    t = b // p**v * pow(2 * (a // p**v), -1, R.n)
    P = mmul(R, P, mat(R, ((1, -t), (0, 1))))
    return P, a, R.normalize(c - a * t * t)


def _local_witness(q1, q2, p: int, k: int):
    """(lam, M) over Z/p^k with q2(M v) = lam * q1(v), or None when the
    Jordan invariants differ."""
    R = ModularRing(p**k)
    P1, d11, d12 = _diagonalize(q1, p, k, R)
    P2, d21, d22 = _diagonalize(q2, p, k, R)
    (e1, al1), (e2, al2) = _val(d11, p, k), _val(d12, p, k)
    (f1, be1), (f2, be2) = _val(d21, p, k), _val(d22, p, k)
    if (e1, e2) != (f1, f2):
        return None
    # lam matches the first constituents exactly: beta1 = lam * alpha1.
    lam = R.normalize(be1 * pow(al1, -1, R.n)) if e1 < k else 1
    s = 1
    if e2 < k:
        # beta2 * s^2 = lam * alpha2 mod p^(k - e2) needs a square root.
        pj = p ** (k - e2)
        x = lam * al2 * pow(be2, -1, pj) % pj
        if _legendre(x, p) != 1:
            return None
        s = _sqrt_unit(x, p, k - e2)
    S = mat(R, ((1, 0), (0, s)))
    return lam, mmul(R, P2, mmul(R, S, minv(R, P1)))


def _canonical2(q, k: int):
    """(N, lam, M) with q.act(M, lam) == N over Z/2^k, and N one form per
    similarity class: zero, or 2^e times (0, 1, 0), (1, 1, 1), or
    (1, 0, 2^f w) with 0 < w < 2^min(t - f, 3)."""
    e = min(_val(x, 2, k)[0] for x in q.coeffs())
    if e == k:
        return (0, 0, 0), 1, _I
    t = k - e
    R = ModularRing(2**t)
    g, T, lam = BinaryQuadraticForm(R, *(x >> e for x in q.coeffs())), _I, 1

    def move(M):
        nonlocal g, T
        g, T = g.act(M, 1), mmul(R, T, M)

    swap = ((0, 1), (1, 0))
    a, b, c = g.coeffs()
    if b % 2 and a * c % 2 == 0:
        # xy: an isotropic vector (x, 1) to e1, then clear c and scale b to 1
        if c % 2:
            move(swap)
        move(((_hensel2(*g.coeffs(), R.n), 1), (1, 0)))
        move(((1, -g.c * R.inv(g.b)), (0, 1)))
        move(((R.inv(g.b), 0), (0, 1)))
    elif b % 2:
        # x^2 + xy + y^2: a vector (1, y) of value 1 to e1, then b = 1, c = 1
        move(((1, 0), (_hensel2(c, b, a - 1, R.n), 1)))
        move(((1, (1 - g.b) // 2), (0, 1)))
        x = _hensel2(4 * g.c - 1, 1 - 4 * g.c, g.c - 1, R.n)
        move(((1, x), (0, 1 - 2 * x)))
    else:
        # <1, h> after completing the square on an odd a and scaling by 1/a
        if a % 2 == 0:
            move(swap)
        move(((1, -(g.b // 2) * R.inv(g.a)), (0, 1)))
        lam = R.inv(g.a)
        g = BinaryQuadraticForm(R, 1, 0, lam * g.c)
        f, w = _val(g.c, 2, t)
        if t == 1 and f == 0:
            move(((1, 1), (0, 1)))  # x^2 + y^2 = (x + y)^2 mod 2
        elif f < t:
            j = min(t - f, 3)
            move(((1, 0), (0, _sqrt2(w % 2**j * R.inv(w), t - f))))
    return tuple(x << e for x in g.coeffs()), lam, T


def _dyadic_witness(q1, q2, k: int):
    """(lam, M) over Z/2^k with q2(M v) = lam * q1(v), or None when the
    canonical forms differ."""
    (N1, lam1, M1), (N2, lam2, M2) = _canonical2(q1, k), _canonical2(q2, k)
    if N1 != N2:
        return None
    R = ModularRing(2**k)
    return R.normalize(lam1 * R.inv(lam2)), mmul(R, M2, minv(R, M1))


def _crt(residues, moduli) -> int:
    n = prod(moduli)
    x = 0
    for r, m in zip(residues, moduli):
        x += r * (n // m) * pow(n // m, -1, m)
    return x % n


def similar_mod_by_rings(q1, q2) -> SimilarityVerdict:
    """similar_mod as it was: the local witnesses above, glued by one CRT
    call per value."""
    R = q1.ring
    primes = factor(R.n)
    if primes is None:
        return SimilarityVerdict("unknown", reason="factoring", bound=TRIAL_LIMIT)
    d1, d2 = q1.discriminant()[1], q2.discriminant()[1]
    if not all(_disc_classes_match(d1, d2, p, k) for p, k in primes.items()):
        return SimilarityVerdict("not_similar", reason="discriminant")
    local = [_dyadic_witness(q1, q2, k) if p == 2 else _local_witness(q1, q2, p, k) for p, k in primes.items()]
    if None in local:
        return SimilarityVerdict("not_similar", reason="jordan_invariants")
    moduli = [p**k for p, k in primes.items()]
    lam = _crt([w[0] for w in local], moduli)
    M = mat(R, [[_crt([w[1][i][j] for w in local], moduli) for j in range(2)] for i in range(2)])
    w = SimilarityWitness(M, lam)
    if not w.verify(q1, q2):
        raise AssertionError("Jordan splitting produced a bad witness")
    return SimilarityVerdict("similar", witness=w)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binquad",
        description="binary quadratic forms and their Clifford invariants, exactly",
    )
    ap.add_argument("--ring", help="default ring for inputs without one: int, mod:N, rat")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, *positional, **kw):
        p = sub.add_parser(name, **kw)
        for pos in positional:
            p.add_argument(pos)
        return p

    verb("disc", "form", help="both sign conventions of the discriminant")
    verb("clifford", "form", help="even Clifford algebra of a form")
    verb("form2pair", "form", help="(algebra, action matrix) pair of a form")
    verb("pair2form", "pair", help="form read off a traceable pair")
    verb("traceable", "pair", help="traceability of a pair")
    verb("similar", "form1", "form2", help="similarity verdict with witness")
    verb("reduce", "form", help="reduced representative and SL2 witness")
    p = verb("dual", "form", help="dual form on the dual module")
    p.add_argument("--trace", action="store_true", help="emit the five-stage trace")
    verb("dualconic", "form", help="dual conic over the rationals")
    verb("wood", "form", help="the form in the opposite-sign normalization")
    verb("normform", "ideal", help="naive and universal norm forms of a lattice")
    verb("ideal", "form", help="ideal lattice of a primitive form")
    p = verb("compose", "form1", "form2", help="Gauss composition")
    p.add_argument("--proper-reduce", action="store_true")
    p.add_argument("--twist", action="store_true", help="transport along the conjugated witness")
    p = verb("inverse", "form", help="inverse class representative")
    p.add_argument("--proper-reduce", action="store_true")
    verb("identity", "algebra", help="norm form of an algebra")
    verb("classgroup", "D", help="reduced forms and group structure")
    verb("picard", "D", help="oriented and unoriented class counts")
    p = sub.add_parser("quat", help="quaternion algebra operations")
    p.add_argument("form")
    p.add_argument("z")
    p.add_argument("w", nargs="?")
    verb("basechange", "form", "hom", help="base-change compatibility report")
    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--filter", default=None, help="run only criteria whose name matches")
    return ap
