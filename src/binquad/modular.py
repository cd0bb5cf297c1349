"""Similarity of binary forms over Z/n, decided by invariants.

Over Z/p^k with p odd every binary form diagonalises, and two diagonal
forms <alpha1 p^e1, alpha2 p^e2> and <beta1 p^f1, beta2 p^f2> (e1 <= e2,
f1 <= f2, valuations capped at k) are similar iff (e1, e2) = (f1, f2) and,
when e2 < k, alpha1*alpha2 and beta1*beta2 have the same Legendre class:
the Jordan invariants of Cassels, *Rational Quadratic Forms*, ch. 8 and
O'Meara, *Introduction to Quadratic Forms*, sections 92-93.

Over Z/2^k a form is 2^e times a primitive form q mod 2^t, t = k - e,
and q is one of three Jordan constituents (O'Meara section 93; Conway &
Sloane, *SPLAG*, ch. 15 section 7).  With b odd, q is xy or x^2 + xy + y^2
as ac is even or odd: Hensel's lemma lifts an isotropic vector, or a
vector of value 1, from Z/2.  With b even, q diagonalises to
u*<1, 2^f w>, and det q = ac - b^2/4 mod 2^t is a similarity invariant up
to unit squares (the units = 1 mod 8), so (f, w mod 2^min(t - f, 3))
names the class; at t = 1 every such q is the square of a linear form.
Each class gets one canonical form, reached by an explicit (M, lam).

Z/n is the product of its prime powers, so the verdict over Z/n is the
conjunction of the local verdicts, and the witness is glued from the
local witnesses by CRT.  The local witnesses are residue kernels: they
compute on int triples and 2x2 int tuples mod p^k, and similar_mod
returns the glued ints, from which `similar` builds its verdict after
checking the witness.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from .ring import basis_change

# Trial division runs up to TRIAL_LIMIT, which factors every n <= 10^12;
# a cofactor left over is prime when no d up to its square root divides it,
# and is otherwise accepted only when Miller-Rabin proves it prime.
TRIAL_LIMIT = 10**6
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The bases above decide primality for every n below this bound.
_MR_PROVEN = 318665857834031151167461
# Miller-Rabin runs on cofactors from here on; below, trial division to the
# square root is cheaper.
_MR_FROM = 10**4

_I = ((1, 0), (0, 1))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 < n < _MR_PROVEN."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int):
    """{p: k} with n the product of the p^k, or None when the least
    prime factor of a cofactor that is not proven prime exceeds
    TRIAL_LIMIT.  A cofactor below _MR_FROM is settled by trial division
    alone: once d^2 exceeds it, it is prime."""
    out = {}
    d = 2
    while n > 1:
        if _MR_FROM <= n < _MR_PROVEN and _is_prime(n):
            d = n
        else:
            root = isqrt(n)
            last = min(root, TRIAL_LIMIT)
            while n % d:
                d += 1 if d == 2 else 2
                if d > last:
                    if d <= root:
                        return None
                    d = n  # no factor up to sqrt(n)
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
    return out


def _legendre(x: int, p: int) -> int:
    """1 for a nonzero square mod p, p - 1 for a non-square, 0 for 0."""
    return pow(x, (p - 1) // 2, p)


def _genus(f, D: int, u: int, ps):
    """The assigned characters of u*f, a nonzero int triple of discriminant
    D and content g (Cox, *Primes of the Form x^2 + ny^2*, Thm 3.15), on a
    coefficient m of the primitive part prime to p: (m/p) for each odd p in
    ps dividing D/g^2 and, if 4 | D/g^2, delta, epsilon or delta*epsilon."""
    g = gcd(*f)
    a, c, D = u * f[0] // g, u * f[2] // g, D // (g * g)
    chars = [_legendre(a if a % p else c, p) for p in ps if p > 2 and D % p == 0]
    if D % 4:
        return chars
    m = a if a % 2 else c
    d, e = m % 4 == 1, m % 8 in (1, 7)
    return chars + {0: [d, e], 2: [e], 3: [d], 4: [d], 6: [d == e], 7: [d]}.get(D // 4 % 8, [])


def _genus_separates(f1, f2, D: int) -> bool:
    """Whether the characters of f2 are those of neither f1 nor -f1, for
    int triples of discriminant D and one content g.  D/g^2 is factored
    once; when it cannot be, the odd primes 3, ..., 13 are read."""
    ps = factor(abs(D // gcd(*f1) ** 2))
    ps = (3, 5, 7, 11, 13) if ps is None else ps
    return _genus(f2, D, 1, ps) not in (_genus(f1, D, u, ps) for u in (1, -1))


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Tonelli-Shanks: r with r^2 = a mod p, for a nonzero square a."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while _legendre(z, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_unit(a: int, p: int, k: int) -> int:
    """r with r^2 = a mod p^k, for a unit a that is a square mod p: a
    root mod p lifted by Newton's step, which doubles the precision
    because 2r is a unit."""
    pk = p**k
    r = _sqrt_mod_prime(a, p)
    while (r * r - a) % pk:
        r = (r - (r * r - a) * pow(2 * r, -1, pk)) % pk
    return r


def _val(x: int, p: int, k: int):
    """(e, x / p^e) for a residue x mod p^k; e = k when x = 0."""
    e = 0
    while e < k and x % p == 0:
        x, e = x // p, e + 1
    return e, x


def _div2(X, Y, m: int):
    """X * Y^-1 mod m, for 2x2 int tuples with det Y a unit mod m."""
    ((a, b), (c, d)), ((e, f), (g, h)) = X, Y
    di = pow(e * h - f * g, -1, m)
    return (((a * h - b * g) * di % m, (b * e - a * f) * di % m), ((c * h - d * g) * di % m, (d * e - c * f) * di % m))


def _diagonal_odd(f, p: int, k: int):
    """(P, d1, d2) with f(P v) = d1*x^2 + d2*y^2 mod p^k, p odd, for an
    int triple f, and v(d1) <= v(d2): complete the square on a
    coefficient of least valuation, after moving it to a."""
    pk = p**k
    a, b, c = f[0] % pk, f[1] % pk, f[2] % pk
    va, vb, vc = _val(a, p, k)[0], _val(b, p, k)[0], _val(c, p, k)[0]
    v = min(va, vb, vc)
    if v == k:
        return _I, 0, 0
    P = _I
    if va > v:
        if vc == v:
            P, a, c = ((0, 1), (1, 0)), c, a
        else:
            # only b has least valuation: (x, y) -> (x, x + y) gives a + b + c
            P, a, b = ((1, 0), (1, 1)), (a + b + c) % pk, (b + 2 * c) % pk
    # 2*a*t = b mod p^k, so f(x - t*y, y) = a*x^2 + (c - a*t^2)*y^2
    t = b // p**v * pow(2 * (a // p**v), -1, pk)
    (p00, p01), (p10, p11) = P
    return ((p00, (p01 - p00 * t) % pk), (p10, (p11 - p10 * t) % pk)), a, (c - a * t * t) % pk


def _witness_odd(f1, f2, p: int, k: int):
    """(lam, M) over Z/p^k, p odd, with f2(M v) = lam * f1(v) for int
    triples f1 and f2, or None when the Jordan invariants differ."""
    pk = p**k
    P1, d11, d12 = _diagonal_odd(f1, p, k)
    P2, d21, d22 = _diagonal_odd(f2, p, k)
    (e1, al1), (e2, al2) = _val(d11, p, k), _val(d12, p, k)
    (g1, be1), (g2, be2) = _val(d21, p, k), _val(d22, p, k)
    if (e1, e2) != (g1, g2):
        return None
    # lam matches the first constituents exactly: beta1 = lam * alpha1.
    lam = be1 * pow(al1, -1, pk) % pk if e1 < k else 1
    s = 1
    if e2 < k:
        # beta2 * s^2 = lam * alpha2 mod p^(k - e2) needs a square root.
        pj = p ** (k - e2)
        x = lam * al2 * pow(be2, -1, pj) % pj
        if _legendre(x, p) != 1:
            return None
        s = _sqrt_unit(x, p, k - e2)
    (a, b), (c, d) = P2
    return lam, _div2(((a, b * s), (c, d * s)), P1, pk)  # P2 diag(1, s) P1^-1


def _disc_classes_match(d1: int, d2: int, p: int, k: int) -> bool:
    """Whether d2 = w^2 * d1 mod p^k for some unit w: the unit squares
    are the Legendre residues for p odd, and the units = 1 mod 8 for
    p = 2."""
    (e1, u1), (e2, u2) = _val(d1 % p**k, p, k), _val(d2 % p**k, p, k)
    if e1 != e2 or e1 == k:
        return e1 == e2
    if p == 2:
        return (u1 - u2) % 2 ** min(k - e1, 3) == 0
    return _legendre(u1 * u2, p) == 1


def _hensel2(f2: int, f1: int, f0: int, m: int) -> int:
    """A root mod m = 2^t of f2*x^2 + f1*x + f0, for f0 even and f1 odd:
    0 is a root mod 2 with an odd derivative, and Newton's step doubles
    the precision."""
    x = 0
    while v := (f2 * x * x + f1 * x + f0) % m:
        x = (x - v * pow(2 * f2 * x + f1, -1, m)) % m
    return x


def _sqrt2(x: int, s: int) -> int:
    """r with r^2 = x mod 2^s, for x = 1 mod 2^min(s, 3): a root mod 2^j
    (j >= 3) or r + 2^(j-1) is a root mod 2^(j+1)."""
    r = 1
    for j in range(3, s):
        if (r * r - x) >> j & 1:
            r += 1 << (j - 1)
    return r


def _canonical_2adic(q, k: int):
    """(N, lam, M) with N(v) = lam * q(M v) over Z/2^k, for an int triple
    q, and N one int triple per similarity class: zero, or 2^e times
    (0, 1, 0), (1, 1, 1), or (1, 0, 2^f w) with 0 < w < 2^min(t - f, 3)."""
    e = min(_val(x, 2, k)[0] for x in q)
    if e == k:
        return (0, 0, 0), 1, _I
    t = k - e
    m = 1 << t
    a, b, c = (q[0] >> e) % m, (q[1] >> e) % m, (q[2] >> e) % m
    T, lam = _I, 1

    def move(M):
        nonlocal a, b, c, T
        a, b, c = (x % m for x in basis_change(a, b, c, M))
        ((t00, t01), (t10, t11)), ((x1, x2), (y1, y2)) = T, M
        T = (((t00 * x1 + t01 * y1) % m, (t00 * x2 + t01 * y2) % m), ((t10 * x1 + t11 * y1) % m, (t10 * x2 + t11 * y2) % m))

    swap = ((0, 1), (1, 0))
    if b % 2 and a * c % 2 == 0:
        # xy: an isotropic vector (x, 1) to e1, then clear c and scale b to 1
        if c % 2:
            move(swap)
        move(((_hensel2(a, b, c, m), 1), (1, 0)))
        move(((1, -c * pow(b, -1, m)), (0, 1)))
        move(((pow(b, -1, m), 0), (0, 1)))
    elif b % 2:
        # x^2 + xy + y^2: a vector (1, y) of value 1 to e1, then b = 1, c = 1
        move(((1, 0), (_hensel2(c, b, a - 1, m), 1)))
        move(((1, (1 - b) // 2), (0, 1)))
        x = _hensel2(4 * c - 1, 1 - 4 * c, c - 1, m)
        move(((1, x), (0, 1 - 2 * x)))
    else:
        # <1, h> after completing the square on an odd a and scaling by 1/a
        if a % 2 == 0:
            move(swap)
        lam = pow(a, -1, m)
        move(((1, -(b // 2) * lam), (0, 1)))
        a, b, c = 1, 0, lam * c % m
        f, w = _val(c, 2, t)
        if t == 1 and f == 0:
            move(((1, 1), (0, 1)))  # x^2 + y^2 = (x + y)^2 mod 2
        elif f < t:
            j = min(t - f, 3)
            move(((1, 0), (0, _sqrt2(w % 2**j * pow(w, -1, m), t - f))))
    return (a << e, b << e, c << e), lam, T


def _witness_2adic(f1, f2, k: int):
    """(lam, M) over Z/2^k with f2(M v) = lam * f1(v) for int triples f1
    and f2, or None when the canonical forms differ."""
    (N1, lam1, M1), (N2, lam2, M2) = _canonical_2adic(f1, k), _canonical_2adic(f2, k)
    if N1 != N2:
        return None
    m = 1 << k
    return lam1 * pow(lam2, -1, m) % m, _div2(M2, M1, m)


def _crt(local, moduli):
    """(lam, M) mod the product n of the moduli, glued from the local
    witnesses mod each: every residue times n/m * (n/m)^-1 mod m, summed."""
    n = prod(moduli)
    lam = a = b = c = d = 0
    for (l, ((m00, m01), (m10, m11))), m in zip(local, moduli):
        e = n // m * pow(n // m, -1, m)
        lam, a, b, c, d = lam + l * e, a + m00 * e, b + m01 * e, c + m10 * e, d + m11 * e
    return lam % n, ((a % n, b % n), (c % n, d % n))


def similar_mod(f1, f2, n: int):
    """Similarity over Z/n of distinct int triples that passed the zero
    screen: the witness (M, lam), or the reason as `similar`'s verdict
    fields.  Decided unless n cannot be factored within TRIAL_LIMIT."""
    primes = factor(n)
    if primes is None:
        return dict(reason="factoring", bound=TRIAL_LIMIT)
    d1, d2 = f1[1] * f1[1] - 4 * f1[0] * f1[2], f2[1] * f2[1] - 4 * f2[0] * f2[2]
    if not all(_disc_classes_match(d1, d2, p, k) for p, k in primes.items()):
        return dict(reason="discriminant")
    local = [_witness_2adic(f1, f2, k) if p == 2 else _witness_odd(f1, f2, p, k) for p, k in primes.items()]
    if None in local:
        return dict(reason="jordan_invariants")
    lam, M = _crt(local, [p**k for p, k in primes.items()])
    return M, lam
