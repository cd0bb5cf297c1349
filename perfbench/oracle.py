"""Reference arithmetic owned by the benchmark and independent of binquad.

It checks the program's answers outside the timed region: an analytic
class number, textbook Gauss reduction and Shanks composition of integer
forms, and coefficient-by-coefficient witness checks over Z, Z/n and Q.
"""

from fractions import Fraction
from math import gcd, isqrt


def kronecker(d, n):
    """Kronecker symbol (d/n) for n > 0."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fundamental_part(D):
    """(D0, f) with D = D0 * f^2 and D0 a fundamental discriminant."""
    for f in range(isqrt(abs(D)), 0, -1):
        if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1):
            return D // (f * f), f
    raise ValueError(f"{D} is not a discriminant")


def prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def class_number(D):
    """h(D) for D < 0 from Dirichlet's half-range character sum
    h(D0) = sum_{a <= |D0|/2} (D0/a) / (2 - (D0/2)) and the conductor
    formula h(D0 f^2) = h(D0) f prod_{p | f} (1 - (D0/p)/p) / [O*: O_f*]."""
    D0, f = fundamental_part(D)
    if D0 in (-3, -4):
        h0, w0 = 1, 6 if D0 == -3 else 4
    else:
        s = sum(kronecker(D0, a) for a in range(1, -D0 // 2 + 1))
        h0, w0 = s // (2 - kronecker(D0, 2)), 2
    if f == 1:
        return h0
    num, den = h0 * f * 2, w0
    for p in prime_factors(f):
        num *= p - kronecker(D0, p)
        den *= p
    if num % den:
        raise ArithmeticError(f"class number formula is not integral at D={D}")
    return num // den


def is_reduced(a, b, c):
    return (-a < b <= a <= c) and not (a == c and b < 0)


def reduce_form(a, b, c):
    """Gauss reduction of a positive definite integral form."""
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
        elif a > c or (a == c and b < 0):
            a, b, c = c, -b, a
        else:
            return a, b, c


def xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if a < 0:
        return -a, -u0, -v0
    return a, u0, v0


def compose(f1, f2):
    """Reduced Gauss composition of primitive positive definite forms of
    one discriminant (Shanks; Cohen, GTM 138, Alg. 5.4.7)."""
    (a1, b1, c1), (a2, b2, c2) = f1, f2
    D = b1 * b1 - 4 * a1 * c1
    if a1 > a2:
        (a1, b1, c1), (a2, b2, c2) = (a2, b2, c2), (a1, b1, c1)
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _ = xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = xgcd(s, d)
        x2, y2 = u, -v
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    num = b3 * b3 - D
    if num % (4 * a3):
        raise ArithmeticError("composition left the discriminant")
    return reduce_form(a3, b3, num // (4 * a3))


def group_invariants(forms):
    """Closure, identity, inverses and commutativity of the composition
    table on a list of reduced forms, then the invariant factors of that
    group from its element orders.  Returns None if an axiom fails."""
    index = {f: i for i, f in enumerate(forms)}
    n = len(forms)
    table = []
    for f in forms:
        row = []
        for g in forms:
            k = index.get(compose(f, g))
            if k is None:
                return None
            row.append(k)
        table.append(row)
    a, b, c = forms[0]
    D = b * b - 4 * a * c
    e = index.get((1, D % 2, (D % 2 - D) // 4))
    if e is None or any(table[e][i] != i for i in range(n)):
        return None
    for i in range(n):
        if sorted(table[i]) != list(range(n)) or any(table[i][j] != table[j][i] for j in range(n)):
            return None
    orders = []
    for i in range(n):
        k, x = 1, i
        while x != e:
            x, k = table[x][i], k + 1
        orders.append(k)
    return invariant_factors_from_orders(orders)


def invariant_factors_from_orders(orders):
    """Invariant factors of a finite abelian group from its element orders:
    the p-part of the i-th largest factor is read off the counts
    #{x : x^(p^j) = 1}, whose successive ratios give the conjugate partition."""
    n = len(orders)
    factors = [1] * n
    for p in prime_factors(n):
        counts, j = [1], 1
        while counts[-1] < _p_part(n, p):
            counts.append(sum(1 for o in orders if (p ** j) % o == 0))
            j += 1
        widths = [_log(counts[k + 1] // counts[k], p) for k in range(len(counts) - 1)]
        for k, w in enumerate(widths):
            for i in range(w):
                factors[i] *= p
    return tuple(sorted(f for f in factors if f > 1))


def _p_part(n, p):
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def _log(x, p):
    k = 0
    while x > 1:
        x //= p
        k += 1
    return k


# -- rings and witnesses ---------------------------------------------------


def ring_ops(ring):
    """(normalize, is_unit) for a ring JSON object."""
    kind = ring["ring"]
    if kind == "int":
        return int, lambda v: v in (1, -1)
    if kind == "mod":
        n = ring["n"]
        return (lambda v: v % n), (lambda v: gcd(v % n, n) == 1)
    return Fraction, lambda v: v != 0


def elem(obj):
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    return obj


def similarity_witness_holds(ring, q1, q2, m, u):
    """q2(M v) = u q1(v) coefficient by coefficient, det M and u units."""
    norm, is_unit = ring_ops(ring)
    (w00, w01), (w10, w11) = [[elem(x) for x in row] for row in m]
    u = elem(u)
    a2, b2, c2 = q2

    def q2v(x, y):
        return a2 * x * x + b2 * x * y + c2 * y * y

    A = q2v(w00, w10)
    C = q2v(w01, w11)
    B = q2v(w00 + w01, w10 + w11) - A - C
    lhs = (norm(A), norm(B), norm(C))
    rhs = tuple(norm(u * v) for v in q1)
    return is_unit(norm(w00 * w11 - w01 * w10)) and is_unit(norm(u)) and lhs == rhs


def pair_witness_holds(ring, p1, p2, psi, k, eps):
    """psi * M1 = (k + eps * M2) * psi, psi invertible, and tau1 -> k + eps*tau2
    an algebra map: t1 = eps t2 + 2k, nm1 = k^2 + t2 k eps + nm2 eps^2."""
    norm, is_unit = ring_ops(ring)
    (t1, nm1, M1), (t2, nm2, M2) = p1, p2
    (s00, s01), (s10, s11) = psi
    N = [[k + eps * M2[0][0], eps * M2[0][1]], [eps * M2[1][0], k + eps * M2[1][1]]]
    S = [[s00, s01], [s10, s11]]
    for i in range(2):
        for j in range(2):
            lhs = S[i][0] * M1[0][j] + S[i][1] * M1[1][j]
            rhs = N[i][0] * S[0][j] + N[i][1] * S[1][j]
            if norm(lhs - rhs) != 0:
                return False
    return (
        is_unit(norm(s00 * s11 - s01 * s10))
        and is_unit(norm(eps))
        and norm(t1 - eps * t2 - 2 * k) == 0
        and norm(nm1 - (k * k + t2 * k * eps + nm2 * eps * eps)) == 0
    )
