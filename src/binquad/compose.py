"""Composition of primitive integral forms.

Two routes are implemented and kept deliberately independent:

* ``compose`` multiplies the lattices of q1 and q2 in the even Clifford
  algebra of q1, on int triples and Hermite data through the integer
  lattice core of ``norm``, and reads the universal norm form of the
  product.  q2's lattice is moved along tau' -> k + eps*tau; eps = -1
  lands in the inverse class of q2 and is exposed as ``twist``.
  ``inverse_form`` reads the conjugate lattice of q the same way.
* ``dirichlet_compose`` is the classical composition in Shanks' form
  (Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
  Alg. 5.4.7), run by ``shanks`` on plain int triples; it is the oracle
  the lattice route is checked against, and class groups are computed
  with it.
"""

from __future__ import annotations

from .clifford import QuadraticAlgebra
from .errors import NotComposable, NotPrimitive, UsageError
from .form import BinaryQuadraticForm, reduce_definite
from .norm import _conjugate_basis, _form_basis, _nonzero_leading, _product_basis, _universal_form
from .ring import IntegerRing, ZZ


def identity_form(C: QuadraticAlgebra) -> BinaryQuadraticForm:
    """The norm form (1, t, nm) of the algebra; the composition identity."""
    return BinaryQuadraticForm(C.ring, C.ring.one, C.t, C.nm)


def _require_composable(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm):
    if not isinstance(q1.ring, IntegerRing) or not isinstance(q2.ring, IntegerRing):
        raise UsageError("composition is implemented over Z")
    if not q1.is_primitive():
        raise NotPrimitive(f"{q1} is not primitive")
    if not q2.is_primitive():
        raise NotPrimitive(f"{q2} is not primitive")
    d1, d2 = q1.discriminant()[1], q2.discriminant()[1]
    if d1 != d2:
        raise NotComposable(f"discriminants differ: {d1} vs {d2}")


def compose(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm, twist: bool = False) -> BinaryQuadraticForm:
    """Tensor-product composition of primitive forms of equal discriminant.

    With twist=True the second lattice is moved along the conjugated
    generator shift, which composes with the inverse class of q2 instead.
    """
    _require_composable(q1, q2)
    a1, b1, c1 = _nonzero_leading(*q1.coeffs())
    a2, b2, _ = _nonzero_leading(*q2.coeffs())
    t, nm = b1, a1 * c1
    B = _product_basis(t, nm, _form_basis(a1, b1, t), _form_basis(a2, b2, t, -1 if twist else 1))
    return _universal_form(t, nm, B)


def inverse_form(q: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Norm form of the conjugated lattice; (a, -b, c) up to proper equivalence."""
    if not isinstance(q.ring, IntegerRing):
        raise UsageError("inversion is implemented over Z")
    if not q.is_primitive():
        raise NotPrimitive(f"{q} is not primitive")
    a, b, c = _nonzero_leading(*q.coeffs())
    return _universal_form(b, a * c, _conjugate_basis(b, _form_basis(a, b, b)))


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def shanks(f1, f2):
    """Unreduced composition of int triples of one discriminant D with
    nonzero leading coefficients (Cohen, GTM 138, Alg. 5.4.7): with
    d1 = gcd(a1, a2, (b1 + b2)/2), a3 = a1*a2/d1^2 and b3 = bi mod 2*ai/d1,
    for either sign of a1, a2."""
    (a1, b1, _), (a2, b2, c2) = f1, f2
    D = b2 * b2 - 4 * a2 * c2
    s = (b1 + b2) // 2
    n = b2 - s
    d, y1, _ = _xgcd(a2, a1)  # y1*a2 + v*a1 = d
    d1, x2, v = _xgcd(s, d)  # x2*s + v*d = d1
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * v * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    return a3, b3, (b3 * b3 - D) // (4 * a3)


def dirichlet_compose(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Classical composition of primitive forms of equal discriminant, by
    ``shanks``.  Independent of the lattice machinery.  A zero leading
    coefficient (square D only) is first moved off by a proper basis
    change."""
    _require_composable(q1, q2)
    f1 = _nonzero_leading(*q1.coeffs())
    f2 = _nonzero_leading(*q2.coeffs())
    return BinaryQuadraticForm(ZZ, *shanks(f1, f2))


def proper_reduce(q: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Reduced representative of the proper class (positive definite only)."""
    r, _ = reduce_definite(q)
    return r
