"""Binary quadratic forms, invariants, the basis-change action, Gauss
reduction of definite integral forms, and the similarity decision
procedure.

A form is the map q(x, y) = a*x^2 + b*x*y + c*y^2 with coefficients in one
of the supported rings.  Two forms are *similar* when q'(Mv) = u*q(v) for
an invertible matrix M and a unit u; *proper* equivalence is the stricter
det(M) = +1, u = +1 relation used by composition and class groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Optional

from .errors import BudgetExceeded, NotDefinite, NotInvertible, UsageError
from .mat2 import mapply, mat, mat_from_json, mat_to_json, mdet, mident, minv, mmul
from .ring import (
    IntegerRing,
    ModularRing,
    RationalRing,
    Ring,
    RingHom,
    ZZ,
    content,
    fraction_sqrt,
    ring_from_json,
)

# Probe vectors determining a binary form: values there pin a, c, and b.
_PROBES = ((1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class BinaryQuadraticForm:
    ring: Ring
    a: object
    b: object
    c: object

    def __post_init__(self):
        object.__setattr__(self, "a", self.ring.normalize(self.a))
        object.__setattr__(self, "b", self.ring.normalize(self.b))
        object.__setattr__(self, "c", self.ring.normalize(self.c))

    def coeffs(self):
        return (self.a, self.b, self.c)

    # Plain Python arithmetic with one normalize per result, as in mat2.

    def evaluate(self, x, y):
        n = self.ring.normalize
        x, y = n(x), n(y)
        return n(self.a * x * x + self.b * x * y + self.c * y * y)

    def polar(self, v, w):
        """b_q(v, w) = q(v+w) - q(v) - q(w); symmetric and bilinear."""
        n = self.ring.normalize
        (x1, y1), (x2, y2) = (n(v[0]), n(v[1])), (n(w[0]), n(w[1]))
        return n(2 * self.a * x1 * x2 + self.b * (x1 * y2 + y1 * x2) + 2 * self.c * y1 * y2)

    def discriminant(self):
        """(4ac - b^2, b^2 - 4ac): the sign-flipped pair of conventions."""
        n = self.ring.normalize
        classical = self.b * self.b - 4 * self.a * self.c
        return (n(-classical), n(classical))

    def is_zero(self):
        z = self.ring.zero
        return self.a == z and self.b == z and self.c == z

    def content(self):
        return content(self.coeffs(), self.ring)

    def is_primitive(self) -> bool:
        """Coefficients generate the unit ideal.

        Over Z: gcd(a,b,c) is a unit.  Over Z/n the test runs on lifts
        together with n.  Over Q every nonzero form is primitive.
        """
        R = self.ring
        if isinstance(R, IntegerRing):
            return self.content() == 1
        if isinstance(R, ModularRing):
            from math import gcd

            g = gcd(gcd(gcd(self.a, self.b), self.c), R.n)
            return g == 1
        if isinstance(R, RationalRing):
            return not self.is_zero()
        raise UsageError(f"unknown ring {R!r}")

    def act(self, M, u) -> "BinaryQuadraticForm":
        """Right action: coefficients of u * q(M v).

        a' = u*q(M e1), c' = u*q(M e2), b' = u*b_q(M e1, M e2); requires
        det(M) and u to be units.
        """
        R = self.ring
        M = mat(R, M)
        u = R.normalize(u)
        if not R.is_unit(mdet(R, M)):
            raise NotInvertible(f"determinant {mdet(R, M)} is not a unit")
        if not R.is_unit(u):
            raise NotInvertible(f"scale {u} is not a unit")
        col1 = (M[0][0], M[1][0])
        col2 = (M[0][1], M[1][1])
        return BinaryQuadraticForm(
            R, u * self.evaluate(*col1), u * self.polar(col1, col2), u * self.evaluate(*col2)
        )

    def map(self, hom: RingHom) -> "BinaryQuadraticForm":
        return BinaryQuadraticForm(hom.dst, hom(self.a), hom(self.b), hom(self.c))

    def neg(self) -> "BinaryQuadraticForm":
        return BinaryQuadraticForm(self.ring, -self.a, -self.b, -self.c)

    def conjugate(self) -> "BinaryQuadraticForm":
        """(a, -b, c): the image under x -> x, y -> -y."""
        return BinaryQuadraticForm(self.ring, self.a, -self.b, self.c)

    def to_json(self) -> dict:
        e = self.ring.elem_to_json
        return {"a": e(self.a), "b": e(self.b), "c": e(self.c), "ring": self.ring.to_json()}

    @staticmethod
    def from_json(obj, default_ring: Optional[Ring] = None) -> "BinaryQuadraticForm":
        if not isinstance(obj, dict) or not {"a", "b", "c"} <= set(obj):
            raise UsageError(f"expected a form object with a, b, c, got {obj!r}")
        ring = ring_from_json(obj["ring"]) if "ring" in obj else default_ring
        if ring is None:
            raise UsageError("form JSON carries no ring and no default was given")
        e = ring.elem_from_json
        return BinaryQuadraticForm(ring, e(obj["a"]), e(obj["b"]), e(obj["c"]))

    def __str__(self):
        return f"({self.a}, {self.b}, {self.c}) over {self.ring!r}"


def bqf(a, b, c, ring: Ring = ZZ) -> BinaryQuadraticForm:
    return BinaryQuadraticForm(ring, a, b, c)


def evaluate(q: BinaryQuadraticForm, x, y):
    return q.evaluate(x, y)


def polar(q: BinaryQuadraticForm, v, w):
    return q.polar(v, w)


def discriminant(q: BinaryQuadraticForm):
    return q.discriminant()


def is_primitive(q: BinaryQuadraticForm) -> bool:
    return q.is_primitive()


def act(q: BinaryQuadraticForm, M, u) -> BinaryQuadraticForm:
    return q.act(M, u)


@dataclass(frozen=True)
class SimilarityWitness:
    """Certifies q'(M v) = u * q(v) for all v."""

    m: tuple
    u: object

    def verify(self, q: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> bool:
        R = q.ring
        if R != q2.ring:
            return False
        if not R.is_unit(mdet(R, self.m)) or not R.is_unit(self.u):
            return False
        for v in _PROBES:
            if q2.evaluate(*mapply(R, self.m, v)) != R.normalize(self.u * q.evaluate(*v)):
                return False
        return True

    def to_json(self, ring: Ring) -> dict:
        return {"m": mat_to_json(ring, self.m), "u": ring.elem_to_json(self.u)}

    @staticmethod
    def from_json(obj, ring: Ring) -> "SimilarityWitness":
        return SimilarityWitness(mat_from_json(ring, obj["m"]), ring.elem_from_json(obj["u"]))


@dataclass(frozen=True)
class SimilarityVerdict:
    verdict: str  # "similar" | "not_similar" | "unknown"
    witness: Optional[SimilarityWitness] = None
    reason: Optional[str] = None
    bound: Optional[int] = None

    @property
    def is_similar(self) -> bool:
        return self.verdict == "similar"

    @property
    def is_decided(self) -> bool:
        return self.verdict != "unknown"

    def to_json(self, ring: Ring) -> dict:
        out = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness.to_json(ring)
        if self.reason is not None:
            out["reason"] = self.reason
        if self.bound is not None:
            out["bound"] = self.bound
        return out


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


def reduce_definite(q: BinaryQuadraticForm):
    """Gauss reduction of a positive definite integral form.

    Returns (r, M) with r the unique reduced representative
    (-a < b <= a <= c, and b >= 0 when a = c) and M in SL2 such that
    q.act(M, 1) == r.  Primitivity is not required.
    """
    R = q.ring
    if not isinstance(R, IntegerRing):
        raise NotDefinite(f"reduction needs integer coefficients, got {R!r}")
    _, classical = q.discriminant()
    if classical >= 0 or q.a <= 0:
        raise NotDefinite(f"form {q} is not positive definite")
    r, M = reduce_triple(q.a, q.b, q.c)
    return BinaryQuadraticForm(R, *r), M


def _positive_reduction(q: BinaryQuadraticForm):
    """(sign, reduced, M) with q.act(M, sign) equal to the reduced form."""
    if q.a > 0:
        r, M = reduce_definite(q)
        return 1, r, M
    r, M = reduce_definite(q.neg())
    return -1, r, M


def _nonsquare_positive(d) -> bool:
    return d > 0 and isqrt(d) ** 2 != d


def properly_equivalent(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> bool:
    """SL2-equivalence with scale +1, decided over Z for definite forms by
    reduction and for non-square D > 0 by cycles of reduced forms
    (binquad.indefinite; raises BudgetExceeded past its CYCLE_LIMIT)."""
    d1 = q1.discriminant()[1]
    d2 = q2.discriminant()[1]
    if d1 != d2:
        return False
    if d1 >= 0:
        if isinstance(q1.ring, IntegerRing) and _nonsquare_positive(d1):
            from .indefinite import properly_equivalent_indefinite

            return properly_equivalent_indefinite(q1, q2)
        raise NotDefinite("proper equivalence is only decided for definite forms and non-square D > 0")
    if (q1.a > 0) != (q2.a > 0):
        return False
    _, r1, _ = _positive_reduction(q1)
    _, r2, _ = _positive_reduction(q2)
    return r1.coeffs() == r2.coeffs()


def value_set_mod(q: BinaryQuadraticForm, m: int) -> frozenset:
    """The set of values of q on (Z/m)^2, an invariant of GL2(Z)-classes."""
    vals = set()
    for x in range(m):
        for y in range(m):
            vals.add((q.a * x * x + q.b * x * y + q.c * y * y) % m)
    return frozenset(vals)


def _screen_not_similar(q1, q2) -> Optional[str]:
    """Cheap exact invariants that certify non-similarity, or None."""
    R = q1.ring
    d1 = q1.discriminant()[1]
    d2 = q2.discriminant()[1]
    if isinstance(R, IntegerRing):
        if d1 != d2:
            return "discriminant"
        if q1.content() != q2.content():
            return "content"
        return None
    if isinstance(R, ModularRing):
        # only even n gets here; binquad.modular decides odd n
        if not any(R.mul(R.mul(w, w), d1) == d2 for w in R.units()):
            return "discriminant"
        return None
    # Rationals: disc scales by u^2 det(M)^2, so its vanishing and the
    # square class of d1*d2 survive.
    if (d1 == 0) != (d2 == 0) or fraction_sqrt(d1 * d2) is None:
        return "discriminant"
    return None


def _value_set_screen(q1, q2) -> Optional[str]:
    """Value sets over Z (mod m <= 16, up to sign) and over Z/n (up to a
    unit): exact invariants that cost O(m^2) and O(n^2)."""
    R = q1.ring
    if isinstance(R, IntegerRing):
        for m in range(2, 17):
            s1 = value_set_mod(q1, m)
            s2 = value_set_mod(q2, m)
            if s2 != s1 and s2 != frozenset((-v) % m for v in s1):
                return f"value_set_mod_{m}"
        return None
    if isinstance(R, ModularRing):
        vals1 = frozenset(
            q1.evaluate(x, y) for x in range(R.n) for y in range(R.n)
        )
        vals2 = frozenset(
            q2.evaluate(x, y) for x in range(R.n) for y in range(R.n)
        )
        if not any(frozenset(R.mul(u, v) for v in vals1) == vals2 for u in R.units()):
            return "value_set"
    return None


def _spiral(bound: int):
    """0, 1, -1, 2, -2, ...: small witnesses are found first."""
    out = [0]
    for k in range(1, bound + 1):
        out.extend((k, -k))
    return out


def _iter_unit_matrices(ring: Ring, bound: int):
    """Unit-determinant matrices to try in the bounded witness search."""
    if isinstance(ring, ModularRing) and ring.n <= 2 * bound + 1:
        rng = list(range(ring.n))
    else:
        rng = _spiral(bound)
    for m00, m10 in product(rng, repeat=2):
        for m01, m11 in product(rng, repeat=2):
            M = mat(ring, ((m00, m01), (m10, m11)))
            if ring.is_unit(mdet(ring, M)):
                yield M


def _bounded_witness_search(q1, q2, bound: int) -> Optional[SimilarityWitness]:
    """Search M (entries up to the bound) and a unit u with q2(Mv) = u q1(v)."""
    R = q1.ring
    rational = isinstance(R, RationalRing)
    units = None if rational else R.units()
    for M in _iter_unit_matrices(ZZ if rational else R, bound):
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
            for u in units:
                if (
                    a2 == R.mul(u, q1.a)
                    and b2 == R.mul(u, q1.b)
                    and c2 == R.mul(u, q1.c)
                ):
                    return SimilarityWitness(M, R.normalize(u))
    return None


def _definite_similarity(q1, q2) -> SimilarityVerdict:
    """Complete decision for definite integral forms via reduction.

    Similarity allows det(M) = -1 and the scale u = -1, so the positive
    reductions must coincide either directly or after conjugation.
    """
    R = q1.ring
    s1, r1, M1 = _positive_reduction(q1)
    s2, r2, M2 = _positive_reduction(q2)
    J = mat(R, ((1, 0), (0, -1)))
    candidates = [(r2, M2)]
    rc, Mc = reduce_definite(r2.act(J, 1))
    candidates.append((rc, mmul(R, mmul(R, M2, J), Mc)))
    for r2x, M2x in candidates:
        if r1.coeffs() == r2x.coeffs():
            W = mmul(R, M2x, minv(R, M1))
            u = R.normalize(s1 * s2)
            w = SimilarityWitness(W, u)
            if not w.verify(q1, q2):
                raise AssertionError("definite similarity produced a bad witness")
            return SimilarityVerdict("similar", witness=w)
    return SimilarityVerdict("not_similar", reason="definite_reduction")


def _diagonalize_rational(q):
    """(P, alpha, beta) with q(P v) = alpha*x^2 + beta*y^2 and alpha != 0,
    for a nonzero form over Q: complete the square on a; on c after
    swapping x and y when a = 0; and on q(x, x + y) = b*x^2 + b*x*y when
    a = c = 0."""
    R = q.ring
    a, b, c = q.coeffs()
    if a != 0:
        t = b / (2 * a)
        return mat(R, ((1, -t), (0, 1))), a, c - a * t * t
    if c != 0:
        t = b / (2 * c)
        return mat(R, ((0, 1), (1, -t))), c, -c * t * t
    # (x, y) -> (x, x + y), then x -> x - y/2
    h = Fraction(1, 2)
    return mat(R, ((1, -h), (1, h))), b, -b / 4


def _rational_similarity(q1, q2) -> SimilarityVerdict:
    """Complete decision over Q for nonzero forms that passed the screens.

    In characteristic 0 every binary form is alpha*<1, d>, so forms whose
    discriminants agree up to squares (and in vanishing) are similar:
    with q_i(P_i v) = <alpha_i, beta_i>, take u = alpha2/alpha1 and
    M = P2 diag(1, s) P1^-1 with s^2 = alpha2*beta1 / (alpha1*beta2)
    (s = 1 in rank 1), a square because d1*d2 is."""
    R = q1.ring
    P1, al1, be1 = _diagonalize_rational(q1)
    P2, al2, be2 = _diagonalize_rational(q2)
    s = fraction_sqrt(al2 * be1 / (al1 * be2)) if be2 != 0 else 1
    (p00, p01), (p10, p11) = P2
    M = mmul(R, ((p00, s * p01), (p10, s * p11)), minv(R, P1))
    w = SimilarityWitness(M, R.normalize(al2 / al1))
    if not w.verify(q1, q2):
        raise AssertionError("rational diagonalisation produced a bad witness")
    return SimilarityVerdict("similar", witness=w)


def similar(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm, bound: int = 12) -> SimilarityVerdict:
    """Tri-state similarity decision.

    Decided completely: definite integral forms through reduction,
    integral forms of non-square discriminant D > 0 through cycles of
    reduced forms (binquad.indefinite, up to its CYCLE_LIMIT), forms over
    Q through diagonalisation, and forms over Z/n with n odd through
    Jordan splitting (binquad.modular).  Everything else (square D over Z,
    even n, and D > 0 past the cycle limit) is screened by exact
    invariants (discriminant up to squares, content, value sets mod
    m <= 16) and then searched up to the bound; an exhausted search
    returns an Unknown verdict carrying the bound.
    """
    if q1.ring != q2.ring:
        raise UsageError(f"forms live over different rings: {q1.ring!r} vs {q2.ring!r}")
    R = q1.ring
    if q1.is_zero() != q2.is_zero():
        return SimilarityVerdict("not_similar", reason="zero")
    if isinstance(R, ModularRing) and R.n % 2 == 1:
        # Imported on first use: Z and Q callers never compile it.
        from .modular import similar_odd

        return similar_odd(q1, q2)
    reason = _screen_not_similar(q1, q2)
    if reason is not None:
        return SimilarityVerdict("not_similar", reason=reason)
    if q1.coeffs() == q2.coeffs():
        return SimilarityVerdict("similar", witness=SimilarityWitness(mident(R), R.one))
    if isinstance(R, IntegerRing):
        d = q1.discriminant()[1]
        if d < 0:
            return _definite_similarity(q1, q2)
        if _nonsquare_positive(d):
            # Imported on first use, as binquad.modular is.
            from .indefinite import similar_indefinite

            try:
                return similar_indefinite(q1, q2)
            except BudgetExceeded:
                pass  # past the cycle limit: the screens and the search decide
    elif isinstance(R, RationalRing):
        return _rational_similarity(q1, q2)
    # value-set screens are only worth their cost ahead of the search
    reason = _value_set_screen(q1, q2)
    if reason is not None:
        return SimilarityVerdict("not_similar", reason=reason)
    w = _bounded_witness_search(q1, q2, bound)
    if w is not None:
        if not w.verify(q1, q2):
            raise AssertionError("witness search produced a bad witness")
        return SimilarityVerdict("similar", witness=w)
    return SimilarityVerdict("unknown", bound=bound)
