"""Composition of primitive integral forms.

Two routes are implemented and kept deliberately independent:

* ``compose`` realizes composition as a tensor product: both forms are
  turned into lattices over their even Clifford algebras, the second is
  transported along an explicit algebra witness (the shift-compatible
  eps = +1 witness by default; the conjugated eps = -1 choice lands in
  the inverse class and is exposed as ``twist``), the lattices are
  multiplied, and the content-normalized norm form is read off.
* ``dirichlet_compose`` is the classical composition in Shanks' form
  (Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
  Alg. 5.4.7), run by ``shanks`` on plain int triples; it is the oracle
  the lattice route is checked against, and class-group tables are built
  with it.
"""

from __future__ import annotations

from .clifford import QuadraticAlgebra, _witness_for_eps
from .errors import NotComposable, NotPrimitive, UsageError
from .form import BinaryQuadraticForm, reduce_definite
from .norm import IdealLattice, _nonzero_leading, _xgcd, form_to_ideal, ideal_conjugate, ideal_multiply, universal_norm_form
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
    if q1.discriminant()[1] != q2.discriminant()[1]:
        raise NotComposable(
            f"discriminants differ: {q1.discriminant()[1]} vs {q2.discriminant()[1]}"
        )


def _transport_ideal(target: QuadraticAlgebra, I: IdealLattice, eps: int) -> IdealLattice:
    """Move a lattice into the target algebra along tau_src -> k + eps*tau."""
    w = _witness_for_eps(target, I.alg, eps)
    if w is None:
        raise NotComposable(f"no algebra witness from {I.alg} to {target} with eps={eps}")
    cols = [w.apply_elem(ZZ, c) for c in I.columns()]
    return IdealLattice(target, ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1])))


def compose(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm, twist: bool = False) -> BinaryQuadraticForm:
    """Tensor-product composition of primitive forms of equal discriminant.

    With twist=True the second module is transported along the conjugated
    algebra witness, which composes with the inverse class of q2 instead.
    """
    _require_composable(q1, q2)
    I1 = form_to_ideal(q1)
    I2 = form_to_ideal(q2)
    eps = -1 if twist else 1
    I2t = _transport_ideal(I1.alg, I2, eps)
    return universal_norm_form(ideal_multiply(I1, I2t))


def inverse_form(q: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Norm form of the conjugated lattice; (a, -b, c) up to proper equivalence."""
    if not isinstance(q.ring, IntegerRing):
        raise UsageError("inversion is implemented over Z")
    if not q.is_primitive():
        raise NotPrimitive(f"{q} is not primitive")
    return universal_norm_form(ideal_conjugate(form_to_ideal(q)))


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
