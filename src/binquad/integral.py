"""Proper equivalence and similarity of integral binary forms, for every
discriminant D, by one canonical form per proper class: the Gauss-reduced
form s*reduce_triple(s*f), s = sign(a), for D < 0 (Cohen, GTM 138,
section 5.2); a reduced form and its cycle for non-square D > 0; and a
canonical split form for square D.

A form (a, b, c) of discriminant D > 0 is reduced when |sqrt(D) - 2|a|| < b <
sqrt(D).  The reduction operator rho(a, b, c) = (c, b', (b'^2 - D)/4c)
takes b' = -b mod 2c in (-|c|, |c|] when |c| > sqrt(D) and in
(sqrt(D) - 2|c|, sqrt(D)) otherwise; it is the action of the matrix
((0, -1), (1, s)) with s = (b + b')/2c.  Iterating rho reduces every form,
rho permutes the reduced forms, and two reduced forms are properly
equivalent iff they lie on one rho-cycle (Buchmann & Vollmer, *Binary
Quadratic Forms*, 2007, ch. 6; Cohen, GTM 138, section 5.6).  The theory
scales with the content, so primitivity is not required.

A form of square discriminant D = s^2 > 0 has two isotropic lines, and
moving a primitive vector of one to e1 in SL2(Z) gives (0, +-s, C): the
sign of s belongs to the line.  Moving the line with +s, then e2 by
multiples of e1, gives the canonical form (0, s, C mod s), which the
stabiliser of that line, (( +-1, k), (0, +-1)), cannot change further
(Buell, *Binary Quadratic Forms*, 1989).  For D = 0 the one
isotropic line gives (0, 0, m), and the canonical form is m*x^2.

Forms are plain int triples, matrices plain 2x2 int tuples, and answers a
witness (M, u) or the reason of `similar`'s verdict.  sqrt(D) is
irrational for non-square D, so every comparison with it is exact against
r = isqrt(D): x < sqrt(D) iff x <= r, and x > sqrt(D) iff x > r.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import BudgetExceeded
from .mat2 import mmul
from .modular import _genus_separates
from .ring import ZZ, basis_change

# Every reduction and every cycle walk stops after this many rho-steps.
# A cycle is about as long as the regulator, which can reach sqrt(D); 10^4
# steps at 1024-bit coefficients take about 0.1 s on a 2-vCPU x86_64 VM.
CYCLE_LIMIT = 10**4

_I = ((1, 0), (0, 1))


def reduce_triple(a: int, b: int, c: int):
    """Gauss reduction of a positive definite int triple: the reduced
    triple and the SL2(Z) matrix (a tuple of rows) carrying (a, b, c) to it."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    while True:
        if a > c or (a == c and b < 0):
            # swap step: (a, b, c) -> (c, -b, a)
            a, b, c = c, -b, a
            m00, m01, m10, m11 = m01, -m00, m11, -m10
        elif not (-a < b <= a):
            # translation step: k = floor((a-b)/2a) puts b + 2ak in (-a, a]
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
            m01, m11 = m00 * k + m01, m10 * k + m11
        else:
            return (a, b, c), ((m00, m01), (m10, m11))


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


def _split(f, s: int):
    """(g, T): g = (0, s, c) with 0 <= c < s (s > 0) or g = (m, 0, 0)
    (s = 0), and f.act(T, 1) == g, det T = 1, for an int triple f of
    discriminant s^2."""
    a, b, c = f
    lines = [(1, 0), (-c, b)] if a == 0 else [(-b + s, 2 * a), (-b - s, 2 * a)]
    for x, y in lines:
        g = gcd(x, y)
        x, y = x // g, y // g
        # (z, w) completes (x, y) to det 1: x*w - y*z = 1
        if y == 0:
            z, w = 0, x
        else:
            w = pow(x, -1, abs(y))
            z = (x * w - 1) // y
        _, B, C = basis_change(a, b, c, ((x, z), (y, w)))
        if not s:
            return (C, 0, 0), ((z, -x), (w, -y))
        if B == s:
            k = C // s
            return (0, s, C - k * s), ((x, z - k * x), (y, w - k * y))
    raise AssertionError("no isotropic line carries +s")


def _canonical(f, D: int, r: int):
    """(g, T): g the canonical form of f, or for non-square D > 0 a reduced
    form on its cycle, f.act(T, 1) == g, det T = 1; r = isqrt(max(D, 0))."""
    if D < 0:
        s = 1 if f[0] > 0 else -1
        (a, b, c), T = reduce_triple(s * f[0], s * f[1], s * f[2])
        return (s * a, s * b, s * c), T
    if r * r == D:
        return _split(f, r)
    return _reduce(f, D, r)


def _find(f, targets, D: int, r: int):
    """(T, hit): hit = (T', targets[g]) with f.act(T T', 1) == g for the key
    g of targets in the proper class of f, or None.  Raises BudgetExceeded
    past CYCLE_LIMIT."""
    g, T = _canonical(f, D, r)
    if D > 0 and r * r != D:
        return T, _walk(g, targets, D, r)
    return T, ((_I, targets[g]) if g in targets else None)


def properly_equivalent_integral(f1, f2) -> bool:
    """f2(M v) == f1(v) for some M in SL2(Z), for int triples.  Raises
    BudgetExceeded past CYCLE_LIMIT."""
    D = f1[1] * f1[1] - 4 * f1[0] * f1[2]
    if f2[1] * f2[1] - 4 * f2[0] * f2[2] != D:
        return False
    if f1 == f2:
        return True
    r = isqrt(max(D, 0))
    g1, _ = _canonical(f1, D, r)
    return _find(f2, {g1: None}, D, r)[1] is not None


def similar_integral(f1, f2):
    """Similarity of nonzero int triples of one discriminant D and one
    content: the witness (M, u), or the reason as `similar`'s verdict
    fields.

    f2(M v) = u f1(v) with M in GL2(Z), u = +-1 iff f2 is properly
    equivalent to u * f1(N v) for one of u = +-1 and N = diag(1, +-1):
    f2 is matched against the canonical forms of these four variants.  A
    non-similar verdict names `definite_reduction` for D < 0; for D >= 0 it
    names `genus` when the genus characters of f2 are those of neither
    u * f1, and otherwise `split_form` (square D) or `indefinite_cycle`.
    Past CYCLE_LIMIT the genus characters are compared, and otherwise the
    verdict is unknown with reason `cycle_limit`."""
    a, b, c = f1
    D = b * b - 4 * a * c
    r = isqrt(max(D, 0))
    try:
        plus = [_canonical((a, n * b, c), D, r) for n in (1, -1)]
        if D < 0:  # -f reduces through the same s*f as f: the same T, the negated form
            minus = [((-g[0], -g[1], -g[2]), T) for g, T in plus]
        else:
            minus = [_canonical((-a, -n * b, -c), D, r) for n in (1, -1)]
        targets = {}
        for u, (g, T), n in zip((1, 1, -1, -1), plus + minus, (1, -1, 1, -1)):
            targets.setdefault(g, (T, n, u))
        T2, hit = _find(f2, targets, D, r)
    except BudgetExceeded:
        T2 = hit = None  # T2 is None only past CYCLE_LIMIT
    if hit is None:
        if D < 0:
            return dict(reason="definite_reduction")
        if _genus_separates(f1, f2, D):
            return dict(reason="genus")
        if T2 is None:
            return dict(reason="cycle_limit", bound=CYCLE_LIMIT)
        return dict(reason="split_form") if r * r == D else dict(reason="indefinite_cycle")
    # f2(T2 T v) == u f1(N T1 v), so M = T2 T T1^-1 N.
    T, (T1, n, u) = hit
    (t00, t01), (t10, t11) = T1
    return mmul(ZZ, mmul(ZZ, T2, T), ((t11, -t01 * n), (-t10, t00 * n))), u
