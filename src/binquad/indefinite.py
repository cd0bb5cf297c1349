"""Proper equivalence and similarity of integral binary forms with
non-square discriminant D > 0, decided by cycles of reduced forms.

A form (a, b, c) of discriminant D is reduced when |sqrt(D) - 2|a|| < b <
sqrt(D).  The reduction operator rho(a, b, c) = (c, b', (b'^2 - D)/4c)
takes b' = -b mod 2c in (-|c|, |c|] when |c| > sqrt(D) and in
(sqrt(D) - 2|c|, sqrt(D)) otherwise; it is the action of the matrix
((0, -1), (1, s)) with s = (b + b')/2c.  Iterating rho reduces every form,
rho permutes the reduced forms, and two reduced forms are properly
equivalent iff they lie on one rho-cycle (Buchmann & Vollmer, *Binary
Quadratic Forms*, 2007, ch. 6; Cohen, GTM 138, section 5.6).  The theory
scales with the content, so primitivity is not required.

Forms are plain int triples and matrices plain 2x2 int tuples.  sqrt(D) is
irrational, so every comparison with it is exact against r = isqrt(D):
x < sqrt(D) iff x <= r, and x > sqrt(D) iff x > r.
"""

from __future__ import annotations

from math import isqrt

from .errors import BudgetExceeded
from .form import SimilarityVerdict, SimilarityWitness, _value_set_screen
from .mat2 import mmul
from .ring import ZZ

# Every reduction and every cycle walk stops after this many rho-steps.
# A cycle is about as long as the regulator, which can reach sqrt(D); 10^4
# steps at 1024-bit coefficients take about 0.1 s on a 2-vCPU x86_64 VM.
CYCLE_LIMIT = 10**4

_I = ((1, 0), (0, 1))


def _is_reduced(f, r: int) -> bool:
    a, b, _ = f
    return 0 < b <= r and 2 * abs(a) - b <= r < b + 2 * abs(a)


def _rho(f, D: int, r: int):
    """(rho(f), s) with f.act(((0, -1), (1, s)), 1) == rho(f)."""
    a, b, c = f
    m = 2 * abs(c)
    if abs(c) > r:
        b2 = -b % m
        if b2 > abs(c):
            b2 -= m
    else:
        b2 = r - (r + b) % m
    return (c, b2, (b2 * b2 - D) // (4 * c)), (b + b2) // (2 * c)


def _times_rho(T, s: int):
    """T * ((0, -1), (1, s))."""
    (t00, t01), (t10, t11) = T
    return ((t01, s * t01 - t00), (t11, s * t11 - t10))


def _over_limit(what: str):
    return BudgetExceeded(f"{what} took more than CYCLE_LIMIT = {CYCLE_LIMIT} rho-steps")


def _reduce(f, D: int, r: int):
    """(g, T): g reduced and f.act(T, 1) == g, det T = 1."""
    T = _I
    for _ in range(CYCLE_LIMIT):
        if _is_reduced(f, r):
            return f, T
        f, s = _rho(f, D, r)
        T = _times_rho(T, s)
    raise _over_limit("reduction")


def _walk(f, targets, D: int, r: int):
    """Walk the rho-cycle of f, a reduced form of discriminant D, until a
    key of targets: (T, targets[g]) with f.act(T, 1) == g, or None once
    the cycle closes without one."""
    g, T = f, _I
    for _ in range(CYCLE_LIMIT):
        if g in targets:
            return T, targets[g]
        g, s = _rho(g, D, r)
        T = _times_rho(T, s)
        if g == f:
            return None
    raise _over_limit("cycle walk")


def properly_equivalent_indefinite(q1, q2) -> bool:
    """q2.act(M, 1) == q1 for some M in SL2(Z), for forms over Z of one
    non-square discriminant D > 0.  Raises BudgetExceeded past
    CYCLE_LIMIT."""
    D = q1.discriminant()[1]
    r = isqrt(D)
    g1, _ = _reduce(q1.coeffs(), D, r)
    g2, _ = _reduce(q2.coeffs(), D, r)
    return _walk(g2, {g1: None}, D, r) is not None


def similar_indefinite(q1, q2) -> SimilarityVerdict:
    """Similarity of forms over Z of one non-square discriminant D > 0.

    q2(M v) = u q1(v) with M in GL2(Z), u = +-1 iff q2 is properly
    equivalent to u * q1(N v) for one of u = +-1 and N = diag(1, +-1), so
    q2's reduced cycle is walked once against the reductions of these four
    variants.  A non-similar verdict names a value-set invariant when one
    differs.  Raises BudgetExceeded past CYCLE_LIMIT."""
    D = q1.discriminant()[1]
    r = isqrt(D)
    a, b, c = q1.coeffs()
    targets = {}
    for u in (1, -1):
        for n in (1, -1):
            g, T = _reduce((u * a, u * n * b, u * c), D, r)
            targets.setdefault(g, (T, n, u))
    g2, T2 = _reduce(q2.coeffs(), D, r)
    hit = _walk(g2, targets, D, r)
    if hit is None:
        return SimilarityVerdict("not_similar", reason=_value_set_screen(q1, q2) or "indefinite_cycle")
    # q2.act(T2 T, 1) == q1.act(N T1, u), so M = T2 T T1^-1 N.
    T, (T1, n, u) = hit
    (t00, t01), (t10, t11) = T1
    M = mmul(ZZ, mmul(ZZ, T2, T), ((t11, -t01 * n), (-t10, t00 * n)))
    w = SimilarityWitness(M, u)
    if not w.verify(q1, q2):
        raise AssertionError("cycle transport produced a bad witness")
    return SimilarityVerdict("similar", witness=w)
