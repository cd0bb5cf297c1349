"""Even Clifford algebras of binary forms and the rank-4 quaternion
algebra attached to a trivially valued form.

The even algebra of q = (a, b, c) is free on (1, tau) with
tau^2 = b*tau - a*c; the odd part is the underlying rank-2 module with
tau acting on the left by [[b, c], [-a, 0]] and on the right by
[[0, -c], [a, b]] (columns are images of basis vectors).
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import NonScalarNorm, UnsupportedRing, UsageError
from .form import BinaryQuadraticForm
from .mat2 import mat
from .ring import Ring, RingHom, Value, json_ring, json_text


def tau_product(t, nm, z, w):
    """(x1 + y1*tau)(x2 + y2*tau) with tau^2 = t*tau - nm, on plain ints, residues or
    Fractions and not normalized, so each caller normalizes once."""
    (x1, y1), (x2, y2) = z, w
    yy = y1 * y2
    return (x1 * x2 - nm * yy, x1 * y2 + y1 * x2 + t * yy)


class QuadraticAlgebra(Value):
    """Free rank-2 algebra <1, tau> with tau^2 = t*tau - nm."""

    __slots__ = ("ring", "t", "nm")

    def __init__(self, ring: Ring, t, nm):
        t, nm = ring.normalize_all(t, nm)
        _set_ring(self, ring)
        _set_t(self, t)
        _set_nm(self, nm)

    def disc(self):
        d, m = self.t * self.t - 4 * self.nm, self.ring.modulus
        return d % m if m else d

    def norm(self, z):
        """x^2 + t*x*y + nm*y^2, the value of z * conj(z)."""
        x, y = z
        return self.ring.normalize(x * x + self.t * x * y + self.nm * y * y)

    def map(self, hom: RingHom) -> "QuadraticAlgebra":
        """The algebra over hom.dst, for an algebra over hom.src, as BinaryQuadraticForm.map."""
        return QuadraticAlgebra(hom.dst, self.t, self.nm)

    def to_json(self) -> dict:
        e = self.ring.elem_to_json
        return {"t": e(self.t), "nm": e(self.nm), "ring": self.ring.to_json()}

    @staticmethod
    def from_json(obj, default_ring: Optional[Ring] = None) -> "QuadraticAlgebra":
        ring = json_ring(obj, ("t", "nm"), "an algebra", default_ring)
        return QuadraticAlgebra(ring, ring.elem_from_json(obj["t"]), ring.elem_from_json(obj["nm"]))

    def __str__(self):
        e = self.ring.elem_to_json
        sign, nm = ("+", -self.nm) if self.nm < 0 else ("-", self.nm)
        return f"<1,tau | tau^2 = {json.dumps(e(self.t))}*tau {sign} {json.dumps(e(nm))}> over {self.ring!r}"


_set_ring, _set_t, _set_nm = QuadraticAlgebra._setters


def identity_form(C: QuadraticAlgebra) -> BinaryQuadraticForm:
    """The norm form (1, t, nm) of the algebra; the composition identity."""
    return BinaryQuadraticForm(C.ring, C.ring.one, C.t, C.nm)


def even_clifford(q: BinaryQuadraticForm) -> QuadraticAlgebra:
    """tau = e1*e2 satisfies tau^2 = b*tau - a*c."""
    return QuadraticAlgebra(q.ring, q.b, q.a * q.c)


def m_left(q: BinaryQuadraticForm):
    """tau*e1 = b*e1 - a*e2, tau*e2 = c*e1."""
    return mat(q.ring, ((q.b, q.c), (-q.a, q.ring.zero)))


def m_right(q: BinaryQuadraticForm):
    """e1*tau = a*e2, e2*tau = b*e2 - c*e1."""
    return mat(q.ring, ((q.ring.zero, -q.c), (q.a, q.b)))


def module_axiom_holds(C: QuadraticAlgebra, M) -> bool:
    """M^2 - t*M + nm*I == 0 entry by entry, i.e. M extends to an action of the algebra."""
    (a, b), (c, d) = M
    t, nm, n = C.t, C.nm, C.ring.normalize
    s, r = a + d - t, b * c + nm
    return n(b * s) == 0 and n(c * s) == 0 and n(a * (a - t) + r) == 0 and n(d * (d - t) + r) == 0


class AlgebraWitness(Value):
    """Isomorphism data tau' -> k + eps*tau for a unit eps.

    A witness returned by algebra_isomorphic(C, D) describes the map
    D -> C; it is valid when t_D = eps*t_C + 2k and nm_D = norm_C(k + eps*tau).
    algebra_isomorphic itself only produces eps = +1 or -1; pair witnesses
    over modular rings may carry other units.
    """

    __slots__ = ("k", "eps")

    def __init__(self, k, eps):
        _set_k(self, k)
        _set_eps(self, eps)

    def verify(self, C: QuadraticAlgebra, D: QuadraticAlgebra) -> bool:
        R = C.ring
        e = R.normalize(self.eps)
        if not R.is_unit(e):
            return False
        t_ok = D.t == R.normalize(e * C.t + 2 * self.k)
        nm_ok = D.nm == C.norm((self.k, e))
        return t_ok and nm_ok

    def to_json(self, ring: Ring) -> dict:
        return {"k": ring.elem_to_json(self.k), "eps": ring.elem_to_json(ring.normalize(self.eps))}


_set_k, _set_eps = AlgebraWitness._setters


def _witness_for_eps(C: QuadraticAlgebra, D: QuadraticAlgebra, eps: int) -> Optional[AlgebraWitness]:
    R = C.ring
    k = R.half(R.normalize(D.t - eps * C.t))
    if k is None:
        return None
    w = AlgebraWitness(k, eps)
    return w if w.verify(C, D) else None


def algebra_isomorphic(C: QuadraticAlgebra, D: QuadraticAlgebra) -> Optional[AlgebraWitness]:
    """Witness for D = C via a generator shift, preferring eps = +1.

    Exists iff the discriminants agree and the trace congruence
    t_D = eps*t_C + 2k is solvable; requires 2 regular in the ring.
    """
    if C.ring != D.ring:
        raise UsageError(f"algebras over different rings: {C.ring!r} vs {D.ring!r}")
    if not C.ring.two_is_regular():
        raise UnsupportedRing(f"2 is a zero divisor in {C.ring!r}")
    for eps in (1, -1):
        w = _witness_for_eps(C, D, eps)
        if w is not None:
            return w
    return None


def automorphisms(C: QuadraticAlgebra, oriented: bool = False):
    """The automorphism group: identity and conjugation tau -> t - tau.

    An orientation pins the generator of C modulo scalars, which kills
    conjugation and leaves only the identity.  Rings where 2 is a zero
    divisor are refused.
    """
    if not C.ring.two_is_regular():
        raise UnsupportedRing(f"2 is a zero divisor in {C.ring!r}")
    auts = [AlgebraWitness(C.ring.zero, 1)]
    if not oriented:
        auts.append(AlgebraWitness(C.t, -1))
    for w in auts:
        if not w.verify(C, C):
            raise AssertionError(f"automorphism {w} failed relation transport on {C}")
    return auts


# -- quaternion structure -------------------------------------------------
#
# For q with values in the base ring the full rank-4 algebra on the basis
# (1, tau, e1, e2) has multiplication table
#   tau^2 = b*tau - ac      e1^2 = a          e2^2 = c
#   e1*e2 = tau             e2*e1 = b - tau
#   tau*e1 = b*e1 - a*e2    tau*e2 = c*e1
#   e1*tau = a*e2           e2*tau = b*e2 - c*e1


def quat_mul(q: BinaryQuadraticForm, z, w):
    """The product on the basis (1, tau, e1, e2), by the table above."""
    n = q.ring.normalize
    a, b, c = q.coeffs()
    x0, x1, y1, y2 = z
    u0, u1, v1, v2 = w
    return (
        n(x0 * u0 - a * c * x1 * u1 + a * y1 * v1 + b * y2 * v1 + c * y2 * v2),
        n(x0 * u1 + x1 * u0 + b * x1 * u1 + y1 * v2 - y2 * v1),
        n(x0 * v1 + y1 * u0 + b * x1 * v1 + c * x1 * v2 - c * y2 * u1),
        n(x0 * v2 + y2 * u0 - a * x1 * v1 + a * y1 * u1 + b * y2 * u1),
    )


def quat_conj(q: BinaryQuadraticForm, z):
    """x0 + x1*b - x1*tau - y1*e1 - y2*e2."""
    n = q.ring.normalize
    x0, x1, y1, y2 = z
    return (n(x0 + x1 * q.b), n(-x1), n(-y1), n(-y2))


def quat_trace(q: BinaryQuadraticForm, z):
    R = q.ring
    s = tuple(R.normalize(zi + ci) for zi, ci in zip(z, quat_conj(q, z)))
    if s[1] != R.zero or s[2] != R.zero or s[3] != R.zero:
        raise NonScalarNorm(f"trace of {z} is not scalar")
    return s[0]


def quat_norm(q: BinaryQuadraticForm, z):
    R = q.ring
    p = quat_mul(q, z, quat_conj(q, z))
    if p[1] != R.zero or p[2] != R.zero or p[3] != R.zero:
        raise NonScalarNorm(f"norm of {z} is not scalar: {p}")
    return p[0]


def quat_to_json(q: BinaryQuadraticForm, z) -> list:
    return [q.ring.elem_to_json(v) for v in z]


def quat_from_json(q: BinaryQuadraticForm, obj):
    if not isinstance(obj, list) or len(obj) != 4:
        raise UsageError(f"expected a 4-entry quaternion element, got {json_text(obj)}")
    return tuple(q.ring.elem_from_json(v) for v in obj)
