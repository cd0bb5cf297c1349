"""Binary quadratic forms, invariants, Gauss reduction of definite
integral forms, and the similarity dispatcher.

`similar` screens, then hands each ring's coefficients to one kernel:
binquad.modular for Z/n, diagonalisation here for Q, and binquad.integral
for Z, which also decides `properly_equivalent`.  A kernel answers a
witness (M, u) or a reason; `similar` alone checks it and builds verdicts.

A form is the map q(x, y) = a*x^2 + b*x*y + c*y^2 with coefficients in one
of the supported rings.  Two forms are *similar* when q'(Mv) = u*q(v) for
an invertible matrix M and a unit u; *proper* equivalence is the stricter
det(M) = +1, u = +1 relation used by composition and class groups.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

from .errors import NotDefinite, NotInvertible, UsageError
from .integral import properly_equivalent_integral, reduce_triple, similar_integral
from .mat2 import mat, mat_from_json, mat_to_json, mdet, mident, mmul
from .modular import similar_mod
from .ring import (
    IntegerRing,
    ModularRing,
    QQ,
    RationalRing,
    Ring,
    RingHom,
    Value,
    ZZ,
    basis_change,
    content,
    json_ring,
)


class BinaryQuadraticForm(Value):
    __slots__ = ("ring", "a", "b", "c")

    def __init__(self, ring: Ring, a, b, c):
        a, b, c = ring.normalize_all(a, b, c)
        _set_ring(self, ring)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)

    # Field by field, cheapest first: the same answers as comparing and
    # hashing the tuple (ring, a, b, c), without building it.
    def __eq__(self, other):
        if other.__class__ is BinaryQuadraticForm:
            return self.a == other.a and self.b == other.b and self.c == other.c and self.ring == other.ring
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.a, self.b, self.c))

    def coeffs(self):
        return (self.a, self.b, self.c)

    # The value and the polar form are coefficients 0 and 1 of the one q(Mv).

    def evaluate(self, x, y):
        """q(x, y): the paper's form as a map, which the tests and oracles evaluate."""
        n = self.ring.normalize
        return n(basis_change(self.a, self.b, self.c, ((n(x), 0), (n(y), 0)))[0])

    def polar(self, v, w):
        """b_q(v, w) = q(v+w) - q(v) - q(w); symmetric and bilinear."""
        n = self.ring.normalize
        return n(basis_change(self.a, self.b, self.c, ((n(v[0]), n(w[0])), (n(v[1]), n(w[1]))))[1])

    def discriminant(self):
        """(4ac - b^2, b^2 - 4ac): the sign-flipped pair of conventions."""
        classical, m = self.b * self.b - 4 * self.a * self.c, self.ring.modulus
        return (-classical % m, classical % m) if m else (-classical, classical)

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
            g = gcd(gcd(gcd(self.a, self.b), self.c), R.n)
            return g == 1
        if isinstance(R, RationalRing):
            return not self.is_zero()
        raise UsageError(f"unknown ring {R!r}")

    def act(self, M, u) -> "BinaryQuadraticForm":
        """Right action: coefficients of u * q(M v).

        a' = u*q(M e1), c' = u*q(M e2), b' = u*b_q(M e1, M e2); requires
        det(M) and u to be units.  Kept as the README's GL2 x units action.
        """
        R = self.ring
        M = mat(R, M)
        u = R.normalize(u)
        if not R.is_unit(mdet(R, M)):
            raise NotInvertible(f"determinant {mdet(R, M)} is not a unit")
        if not R.is_unit(u):
            raise NotInvertible(f"scale {u} is not a unit")
        return BinaryQuadraticForm(R, *(u * x for x in basis_change(self.a, self.b, self.c, M)))

    def map(self, hom: RingHom) -> "BinaryQuadraticForm":
        """The form over hom.dst, for a form over hom.src: each arrow is the
        destination's normalize on a value of the source, so the constructor's
        one normalize_all call maps all three coefficients."""
        return BinaryQuadraticForm(hom.dst, self.a, self.b, self.c)

    def neg(self) -> "BinaryQuadraticForm":
        """-q: the definite-reduction oracle reduces a negative definite q through it."""
        return BinaryQuadraticForm(self.ring, -self.a, -self.b, -self.c)

    def conjugate(self) -> "BinaryQuadraticForm":
        """(a, -b, c): the image under x -> x, y -> -y, a form's improper twin in the oracles."""
        return BinaryQuadraticForm(self.ring, self.a, -self.b, self.c)

    def to_json(self) -> dict:
        e = self.ring.elem_to_json
        return {"a": e(self.a), "b": e(self.b), "c": e(self.c), "ring": self.ring.to_json()}

    @staticmethod
    def from_json(obj, default_ring: Optional[Ring] = None) -> "BinaryQuadraticForm":
        ring = json_ring(obj, ("a", "b", "c"), "a form", default_ring)
        e = ring.elem_from_json
        return BinaryQuadraticForm(ring, e(obj["a"]), e(obj["b"]), e(obj["c"]))

    def __str__(self):
        return f"({self.a}, {self.b}, {self.c}) over {self.ring!r}"


_set_ring, _set_a, _set_b, _set_c = BinaryQuadraticForm._setters


def bqf(a, b, c, ring: Ring = ZZ) -> BinaryQuadraticForm:
    """(a, b, c) over Z unless a ring is given: the short constructor the tests write."""
    return BinaryQuadraticForm(ring, a, b, c)


class SimilarityWitness(Value):
    """Certifies q'(M v) = u * q(v) for all v."""

    __slots__ = ("m", "u")

    def __init__(self, m: tuple, u):
        _set_m(self, m)
        _set_u(self, u)

    def verify(self, q: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> bool:
        """Compares coefficients, which pin a form over every commutative ring; over Q on
        integers, with M = M'/d and q_i = Q_i/L_i: Q2(M'v)*den(u)*L1 == num(u)*Q1*L2*d^2."""
        R, u = q.ring, self.u
        if isinstance(R, RationalRing) and q2.ring == R:
            (e, f, g, h), d = _cleared(*self.m[0], *self.m[1])
            (Q1, L1), (Q2, L2) = _cleared(*q.coeffs()), _cleared(*q2.coeffs())
            X = basis_change(*Q2, ((e, f), (g, h)))
            lhs, rhs = u.denominator * L1, u.numerator * L2 * d * d
            return e * h != f * g and rhs != 0 and all(x * lhs == y * rhs for x, y in zip(X, Q1))
        if R != q2.ring or not R.is_unit(mdet(R, self.m)) or not R.is_unit(u):
            return False
        N = R.normalize_all
        return N(*basis_change(q2.a, q2.b, q2.c, self.m)) == N(u * q.a, u * q.b, u * q.c)

    def to_json(self, ring: Ring) -> dict:
        return {"m": mat_to_json(ring, self.m), "u": ring.elem_to_json(self.u)}

    @staticmethod
    def from_json(obj, ring: Ring) -> "SimilarityWitness":
        """The witness of a JSON verdict, which tests re-verify from the CLI's output."""
        return SimilarityWitness(mat_from_json(ring, obj["m"]), ring.elem_from_json(obj["u"]))


class SimilarityVerdict(Value):
    __slots__ = ("verdict", "witness", "reason", "bound")  # verdict: "similar" | "not_similar" | "unknown"

    def __init__(self, verdict: str, witness: Optional[SimilarityWitness] = None, reason=None, bound=None):
        _set_verdict(self, verdict)
        _set_witness(self, witness)
        _set_reason(self, reason)
        _set_bound(self, bound)

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


_set_m, _set_u = SimilarityWitness._setters
_set_verdict, _set_witness, _set_reason, _set_bound = SimilarityVerdict._setters


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


def _same_ring(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> Ring:
    if q1.ring != q2.ring:
        raise UsageError(f"forms live over different rings: {q1.ring!r} vs {q2.ring!r}")
    return q1.ring


def properly_equivalent(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> bool:
    """SL2-equivalence with scale +1, decided over Z for every discriminant
    by binquad.integral: canonical forms for D < 0 and square D, and cycles
    of reduced forms for non-square D > 0 (raising BudgetExceeded past its
    CYCLE_LIMIT).  Forms over other rings raise NotDefinite."""
    if not isinstance(_same_ring(q1, q2), IntegerRing):
        raise NotDefinite("proper equivalence is only decided over Z")
    return properly_equivalent_integral(q1.coeffs(), q2.coeffs())


def _moved(a, b, c):
    """(P, P^-1, coefficients of q(P v)) with a nonzero first coefficient, for a nonzero q =
    (a, b, c): P = I when a != 0; x and y swapped when a = 0 != c; (x, x + y) when a = c = 0."""
    if a != 0:
        return None, None, (a, b, c)
    if c != 0:
        return ((0, 1), (1, 0)), ((0, 1), (1, 0)), (c, b, a)
    return ((1, 0), (1, 1)), ((1, 0), (-1, 1)), (b, b, 0)


def _cleared(*xs):
    """(integers X, L) with xs = X/L, L the lcm of the denominators."""
    L = lcm(*(x.denominator for x in xs))
    return [x.numerator * (L // x.denominator) for x in xs], L


def _rational_similarity(f1, f2):
    """Complete decision over Q for nonzero Fraction triples: the witness (M, u), or the
    reason as `similar`'s verdict fields.

    Each f_i is cleared once, to L_i*f_i = (A_i, B_i, C_i) of discriminant D_i = d_i*L_i^2.
    Similarity scales d by u^2 det(M)^2, so its vanishing and the square class of d1*d2
    survive: `discriminant` when exactly one D_i is 0 or D1*D2 is not a square integer.
    Every binary form over Q is alpha*<1, d>, so the other pairs are similar: with each
    cleared form moved by P_i to A_i' != 0 (see _moved), M' = ((1, t1 - s*t2), (0, s)),
    t_i = B_i'/(2A_i'), u = (A2'/L2)/(A1'/L1) and s = |A2'|*sqrt(D1*D2)/(|A1'|*|D2|) (1 in
    rank 1) carry f2' to u*f1', and M = P2 M' P1^-1."""
    (X1, L1), (X2, L2) = _cleared(*f1), _cleared(*f2)
    D1, D2 = X1[1] * X1[1] - 4 * X1[0] * X1[2], X2[1] * X2[1] - 4 * X2[0] * X2[2]
    DD = D1 * D2
    r = isqrt(DD) if DD >= 0 else -1  # a negative D1*D2 is no square
    if (D1 == 0) != (D2 == 0) or r * r != DD:
        return dict(reason="discriminant")
    (_, P1i, (A1, B1, _)), (P2, _, (A2, B2, _)) = _moved(*X1), _moved(*X2)
    sn, sd = (abs(A2) * r, abs(A1 * D2)) if D2 else (1, 1)
    t = Fraction(B1 * A2 * sd - B2 * A1 * sn, 2 * A1 * A2 * sd)
    M = ((QQ.one, t), (QQ.zero, Fraction(sn, sd)))
    if P2 is not None:
        M = mmul(QQ, P2, M)
    if P1i is not None:
        M = mmul(QQ, M, P1i)
    return M, Fraction(A2 * L1, A1 * L2)


def similar(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> SimilarityVerdict:
    """Tri-state similarity decision.

    Decided completely: forms over Z through one canonical form per proper
    class (binquad.integral: Gauss reduction for D < 0, a split form for
    square D, cycles of reduced forms for non-square D > 0, up to its
    CYCLE_LIMIT), forms over Q through diagonalisation, and forms over Z/n
    through Jordan splitting at each prime power (binquad.modular).  Two
    cases answer Unknown and name the budget they used up: a non-square
    D > 0 whose cycles outrun CYCLE_LIMIT (after the genus screen), and
    a modulus n that cannot be factored within binquad.modular.TRIAL_LIMIT.
    Every witness, the identity's included, is checked before it is returned.
    """
    R = _same_ring(q1, q2)
    f1, f2 = q1.coeffs(), q2.coeffs()
    if q1.is_zero() != q2.is_zero():
        found = dict(reason="zero")
    elif f1 == f2:
        found = mident(R), R.one
    elif isinstance(R, ModularRing):
        found = similar_mod(f1, f2, R.n)
    elif isinstance(R, RationalRing):
        found = _rational_similarity(f1, f2)
    elif q1.discriminant() != q2.discriminant():
        found = dict(reason="discriminant")
    elif q1.content() != q2.content():
        found = dict(reason="content")
    else:
        found = similar_integral(f1, f2)
    if type(found) is dict:
        return SimilarityVerdict("unknown" if "bound" in found else "not_similar", **found)
    w = SimilarityWitness(*found)
    if not w.verify(q1, q2):
        raise AssertionError(f"similarity over {R!r} produced a bad witness")
    return SimilarityVerdict("similar", witness=w)
