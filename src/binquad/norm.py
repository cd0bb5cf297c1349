"""Invertible modules over a quadratic Z-algebra, represented as full-rank
sublattices, and their content-normalized norm forms.

Conventions that the rest of the package relies on:

* A lattice stores the basis it was constructed with; ``canonical()``
  rebuilds it in Hermite form ``(p, s - r*tau)`` with p, r > 0 and
  0 <= s < p, so equality of lattices is structural.  The canonical basis
  has negative determinant (self-conjugate lattices ``<p, r*tau>`` keep
  +r*tau; see ``_canonical_basis``); with the read-off below this is the
  orientation that makes lattice products agree with Dirichlet
  composition class by class.
* The norm form of a basis (alpha, beta) is N(x*alpha + y*beta); dividing
  by its content gives the primitive ("universal") norm form.
* A form (a, b, c) with a != 0 embeds as the sublattice spanned by a and
  b - tau of its even Clifford algebra, which matches the module action
  tau*e1 = b*e1 - a*e2, tau*e2 = c*e1 under e1 -> a, e2 -> b - tau.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

from .clifford import (
    QuadraticAlgebra,
    algebra_isomorphic,
    even_clifford,
    m_left,
    m_right,
    map_matrix,
)
from .errors import (
    IncompatibleAlgebras,
    NotDefinite,
    NotPrimitive,
    UsageError,
    ZeroForm,
)
from .form import BinaryQuadraticForm, similar
from .mat2 import mat, mat_from_json, mat_to_json, mdet
from .modular import factor
from .ring import IntegerRing, ModularRing, RationalRing, RingHom, Value, ZZ


def _tau_times(alg: QuadraticAlgebra, z):
    """tau * (x + y*tau) = -nm*y + (x + t*y) tau."""
    x, y = z
    return (-alg.nm * y, x + alg.t * y)


def _hnf_cols(cols):
    """Hermite form of the lattice spanned by integer columns (u, v).

    Returns (p, s, r) with the lattice equal to Z*(p, 0) + Z*(s, r),
    p, r > 0 and 0 <= s < p.  Requires full rank.  One Euclid pass: w
    keeps the gcd of the tau-coordinates seen so far, and each column
    reduced to tau-coordinate 0 folds its first coordinate into p.
    """
    w, p = (0, 0), 0
    for u, v in cols:
        while v:
            k = w[1] // v
            w, (u, v) = (u, v), (w[0] - k * u, w[1] - k * v)
        p = gcd(p, u)
    if p == 0 or w[1] == 0:
        raise UsageError("lattice has rank < 2")
    if w[1] < 0:
        w = (-w[0], -w[1])
    return p, w[0] % p, w[1]


def _canonical_basis(alg: QuadraticAlgebra, p: int, s: int, r: int):
    """Canonical oriented basis from the Hermite data (p, s, r).

    The tau column is negated, which is the orientation that makes the
    norm-form read-off land in the straight composition class.  The one
    exception is a self-conjugate lattice <p, r*tau> (s = 0 and p | r*t):
    there both orientations read properly equivalent forms, and keeping
    +r makes scalar lattices read exactly the norm form (1, t, nm)."""
    if s == 0 and (r * alg.t) % p == 0:
        return ((p, 0), (0, r))
    return ((p, (-s) % p), (0, -r))


def _canonical_lattice(alg: QuadraticAlgebra, cols) -> "IdealLattice":
    """The lattice spanned by the columns, in canonical basis."""
    return IdealLattice(alg, _canonical_basis(alg, *_hnf_cols(cols)))


class IdealLattice(Value):
    """Full-rank sublattice of a quadratic Z-algebra, closed under tau.

    ``basis`` columns are the coordinates of the ordered basis
    (alpha, beta) in (1, tau).  The basis is kept exactly as given;
    normalization is explicit via ``canonical()``.
    """

    __slots__ = ("alg", "basis")

    def __init__(self, alg: QuadraticAlgebra, basis: tuple):
        if not isinstance(alg.ring, IntegerRing):
            raise UsageError(f"ideal lattices live over Z, not {alg.ring!r}")
        Value.__init__(self, alg, mat(ZZ, basis))
        if mdet(ZZ, self.basis) == 0:
            raise UsageError(f"basis {self.basis} is not full rank")
        for col in self.columns():
            if not self.contains(_tau_times(self.alg, col)):
                raise UsageError(f"lattice {self.basis} is not closed under tau")

    def columns(self):
        B = self.basis
        return ((B[0][0], B[1][0]), (B[0][1], B[1][1]))

    def det(self) -> int:
        return mdet(ZZ, self.basis)

    def norm(self) -> int:
        """Index in the full algebra lattice."""
        return abs(self.det())

    def contains(self, z) -> bool:
        B = self.basis
        d = self.det()
        u, v = z
        x_num = B[1][1] * u - B[0][1] * v
        y_num = -B[1][0] * u + B[0][0] * v
        return x_num % d == 0 and y_num % d == 0

    def canonical(self) -> "IdealLattice":
        return _canonical_lattice(self.alg, self.columns())

    # The canonical basis is an injective function of the Hermite triple,
    # so lattices compare by that triple without building canonical copies.
    def __eq__(self, other):
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return self.alg == other.alg and _hnf_cols(self.columns()) == _hnf_cols(other.columns())

    def __hash__(self):
        return hash((self.alg, _hnf_cols(self.columns())))

    def to_json(self) -> dict:
        return {"alg": self.alg.to_json(), "basis": mat_to_json(ZZ, self.basis)}

    @staticmethod
    def from_json(obj) -> "IdealLattice":
        if not isinstance(obj, dict) or not {"alg", "basis"} <= set(obj):
            raise UsageError(f"expected an ideal object with alg, basis, got {obj!r}")
        alg = QuadraticAlgebra.from_json(obj["alg"], default_ring=ZZ)
        return IdealLattice(alg, mat_from_json(ZZ, obj["basis"]))

    def __str__(self):
        (a0, a1), (b0, b1) = self.columns()
        return f"<{a0}+{a1}tau, {b0}+{b1}tau> in {self.alg}"


def unit_ideal(alg: QuadraticAlgebra) -> IdealLattice:
    return IdealLattice(alg, ((1, 0), (0, 1)))


def scalar_ideal(alg: QuadraticAlgebra, n: int) -> IdealLattice:
    n = abs(ZZ.normalize(n))
    if n == 0:
        raise UsageError("scalar ideal needs a nonzero scalar")
    return IdealLattice(alg, ((n, 0), (0, n)))


def form_to_ideal(q: BinaryQuadraticForm) -> IdealLattice:
    """The sublattice spanned by a and b - tau inside the even Clifford
    algebra of q; when a = 0, a proper basis change making a nonzero is
    applied first."""
    if not isinstance(q.ring, IntegerRing):
        raise UsageError("form/ideal dictionary is implemented over Z")
    if q.is_zero():
        raise ZeroForm("the zero form has no associated lattice")
    if not q.is_primitive():
        raise NotPrimitive(f"{q} is not primitive")
    q = BinaryQuadraticForm(ZZ, *_nonzero_leading(*q.coeffs()))
    return IdealLattice(even_clifford(q), ((q.a, q.b), (0, -1)))


def _nonzero_leading(a: int, b: int, c: int):
    """A properly equivalent triple with a != 0, for a nonzero form (only
    square D allows a = 0): (x, y) -> (-y, x), or (x, x + y) when c = 0."""
    if a != 0:
        return a, b, c
    if c != 0:
        return c, -b, a
    return b, b, c


def naive_norm_form(I: IdealLattice) -> BinaryQuadraticForm:
    """N(x*alpha + y*beta) on the stored basis."""
    return _norm_form(I.alg, *I.columns())


def _norm_form(alg: QuadraticAlgebra, alpha, beta) -> BinaryQuadraticForm:
    A = alg.norm(alpha)
    C = alg.norm(beta)
    B = alg.norm((alpha[0] + beta[0], alpha[1] + beta[1])) - A - C
    return BinaryQuadraticForm(ZZ, A, B, C)


def universal_norm_form(I: IdealLattice) -> BinaryQuadraticForm:
    """The naive norm form divided by its content; primitive by construction."""
    n = naive_norm_form(I)
    g = n.content()
    return BinaryQuadraticForm(ZZ, n.a // g, n.b // g, n.c // g)


def even_clifford_of_ideal(I: IdealLattice):
    """Even Clifford algebra of the universal norm form plus the witness
    identifying it with the parent algebra; the witness always exists."""
    A = even_clifford(universal_norm_form(I))
    w = algebra_isomorphic(I.alg, A)
    if w is None:
        raise AssertionError(f"no algebra witness from {A} to {I.alg}")
    return A, w


def ideal_multiply(I: IdealLattice, J: IdealLattice) -> IdealLattice:
    """Lattice spanned by the pairwise products, in canonical basis."""
    if I.alg != J.alg:
        raise IncompatibleAlgebras(f"{I.alg} vs {J.alg}")
    alg = I.alg
    return _canonical_lattice(alg, [alg.mul(x, y) for x in I.columns() for y in J.columns()])


def ideal_conjugate(I: IdealLattice) -> IdealLattice:
    """Image under the standard involution, in canonical basis."""
    return _canonical_lattice(I.alg, [I.alg.conj(c) for c in I.columns()])


def ideal_is_invertible(I: IdealLattice) -> bool:
    """I * conj(I) equals the scalar ideal generated by the content."""
    prod = ideal_multiply(I, ideal_conjugate(I))
    return prod == scalar_ideal(I.alg, naive_norm_form(I).content())


def _represent(form: BinaryQuadraticForm, target: int):
    """All (x, y) with form(x, y) == target, for positive definite forms."""
    A, B, C = form.coeffs()
    disc = B * B - 4 * A * C
    if disc >= 0 or A <= 0:
        raise NotDefinite(f"{form} is not positive definite")
    out = []
    ymax = isqrt(4 * A * target // (-disc)) + 1
    for y in range(-ymax, ymax + 1):
        d = 4 * A * target + disc * y * y
        if d < 0:
            continue
        rd = isqrt(d)
        if rd * rd != d:
            continue
        for sign in ((rd,) if rd == 0 else (rd, -rd)):
            num = -B * y + sign
            if num % (2 * A) == 0:
                out.append((num // (2 * A), y))
    return out


def ideal_is_principal(I: IdealLattice) -> bool:
    """Whether I = gamma * O for some gamma; definite algebras only.

    gamma in I gives gamma*O inside I, since I is closed under tau, and
    gamma*O has index N(gamma) in O.  So gamma*O = I exactly when
    N(gamma) = [O : I], and I is principal iff its norm form represents
    its norm.  The form is read on the Hermite basis (p, s + r*tau), which
    bounds the search by sqrt(4p / (r*|D|)) whatever basis I was given.
    """
    if I.alg.disc() >= 0:
        raise NotDefinite("principality search needs a definite algebra")
    p, s, r = _hnf_cols(I.columns())
    return bool(_represent(_norm_form(I.alg, (p, 0), (s, r)), p * r))


def base_change_checks(q: BinaryQuadraticForm, hom: RingHom) -> dict:
    """Coefficientwise compatibility of the Clifford data with a ring map.

    The even algebra and both action matrices must commute with the map
    exactly.  When the target is a field (Q or Z/p) and q is primitive,
    the mapped form is additionally checked to be similar to the norm
    form of its even algebra, by `similar`, which verifies its witness.  Z/n
    counts as a field when `modular.factor` proves n prime; a modulus it
    cannot factor is skipped, as a non-field is.
    """
    if hom.src != q.ring:
        raise UsageError(f"hom starts at {hom.src!r} but the form lives over {q.ring!r}")
    checks = {}
    q2 = q.map(hom)
    checks["even_clifford"] = even_clifford(q2) == even_clifford(q).map(hom)
    checks["bimodule_left"] = m_left(q2) == map_matrix(hom, m_left(q))
    checks["bimodule_right"] = m_right(q2) == map_matrix(hom, m_right(q))
    checks["norm_form"] = _norm_form_check(q, q2)
    return checks


def _norm_form_check(q: BinaryQuadraticForm, q2: BinaryQuadraticForm) -> Optional[bool]:
    R = q2.ring
    field = isinstance(R, RationalRing) or (
        isinstance(R, ModularRing) and factor(R.n) == {R.n: 1}
    )
    if not field or not q.is_primitive():
        return None
    return similar(q2, BinaryQuadraticForm(R, 1, q2.b, R.mul(q2.a, q2.c))).is_similar
