"""Composition of primitive integral forms.

Two routes are implemented and kept deliberately independent:

* ``compose`` realizes composition as a tensor product: both forms are
  turned into lattices over their even Clifford algebras, the second is
  transported along an explicit algebra witness (the shift-compatible
  eps = +1 witness by default; the conjugated eps = -1 choice lands in
  the inverse class and is exposed as ``twist``), the lattices are
  multiplied, and the content-normalized norm form is read off.
* ``dirichlet_compose`` is the classical congruence construction used as
  an oracle: precondition to coprime leading coefficients, solve for the
  middle coefficient B mod 2*a1*a2', and read off (a1*a2', B, (B^2-D)/4a1a2').
"""

from __future__ import annotations

from math import gcd

from .clifford import QuadraticAlgebra, _witness_for_eps
from .errors import NotComposable, NotPrimitive, UsageError
from .form import BinaryQuadraticForm, reduce_definite
from .norm import IdealLattice, _xgcd, form_to_ideal, ideal_conjugate, ideal_multiply, universal_norm_form
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


def _coprime_representative(q: BinaryQuadraticForm, m: int) -> BinaryQuadraticForm:
    """A properly equivalent form whose leading coefficient is nonzero and
    coprime to m; exists for every primitive form."""
    if q.a != 0 and gcd(q.a, m) == 1:
        return q
    bound = 1
    while bound <= 64:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                v = q.evaluate(x, y)
                if v == 0 or gcd(v, m) != 1:
                    continue
                # extend the primitive column (x, y) to an SL2 matrix
                g, s, t = _xgcd(x, y)
                M = ((x, -t), (y, s))
                return q.act(M, 1)
        bound *= 2
    raise AssertionError(f"no representation of a value coprime to {m} by {q}")


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    g, x, _ = _xgcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise AssertionError(f"inconsistent congruences {r1} mod {m1}, {r2} mod {m2}")
    lcm = m1 // g * m2
    t = ((r2 - r1) // g * x) % (m2 // g)
    return (r1 + m1 * t) % lcm


def dirichlet_compose(q1: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Classical composition through the congruence system for the middle
    coefficient.  Independent of the lattice machinery."""
    _require_composable(q1, q2)
    D = q1.discriminant()[1]
    r1 = _coprime_representative(q1, 1)
    r2 = _coprime_representative(q2, r1.a)
    a1, b1 = r1.a, r1.b
    a2, b2 = r2.a, r2.b
    # B = b1 mod 2a1, B = b2 mod 2a2; solvable since b1 = b2 = D (mod 2).
    B = _crt(b1, 2 * abs(a1), b2, 2 * abs(a2))
    A = a1 * a2
    num = B * B - D
    if num % (4 * A) != 0:
        raise AssertionError("middle coefficient failed the discriminant congruence")
    return BinaryQuadraticForm(ZZ, A, B, num // (4 * A))


def proper_reduce(q: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Reduced representative of the proper class (positive definite only)."""
    r, _ = reduce_definite(q)
    return r
