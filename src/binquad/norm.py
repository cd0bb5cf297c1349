"""Invertible modules over a quadratic Z-algebra <1, tau | tau^2 = t*tau - nm>
as full-rank sublattices, and their content-normalized norm forms.

One integer lattice core on plain ints does every step, for ``compose``,
``inverse_form`` and ``picard``'s class counts and for the ``IdealLattice``
functions alike.  A basis B is a 2x2 int matrix whose columns are the
coordinates of (alpha, beta) in (1, tau).  ``_product_basis`` and
``_conjugate_basis`` return the canonical basis of the lattice spanned by
the products (``clifford.tau_product``) or conjugates: Hermite data
(p, s, r) from ``_hnf_cols``, oriented by ``_canonical_basis``.  The norm
form N(x*alpha + y*beta) is the norm N(x + y*tau) = x^2 + t*x*y + nm*y^2
moved by B, ``form.basis_change(1, t, nm, B)``; ``_universal_form``
divides it by its content, ``_is_invertible`` asks whether B * conj(B) is
that content times O, and ``_is_principal`` whether the form represents
the index.  A form (a, b, c) with a != 0 spans <a, b - tau> in its even
Clifford algebra (``_form_basis``), matching the module action
tau*e1 = b*e1 - a*e2, tau*e2 = c*e1 under e1 -> a, e2 -> b - tau.

``IdealLattice`` is the boundary type of the ``ideal`` and ``normform``
verbs, of ``ideal_class_representatives`` and of acceptance C10: it
checks its basis and keeps it as given, and compares lattices by their
Hermite data.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

from .clifford import QuadraticAlgebra, algebra_isomorphic, even_clifford, m_left, m_right, map_matrix, tau_product
from .errors import IncompatibleAlgebras, NotDefinite, NotInvertible, NotPrimitive, UsageError, ZeroForm
from .form import BinaryQuadraticForm, basis_change, similar
from .mat2 import mat, mat_from_json, mat_to_json
from .modular import factor
from .ring import IntegerRing, ModularRing, RationalRing, RingHom, Value, ZZ


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


def _canonical_basis(t: int, p: int, s: int, r: int):
    """Canonical oriented basis (p, s' - r*tau) of the Hermite data (p, s, r).

    The negative determinant is the orientation that makes the norm-form
    read-off land in the straight composition class at D < 0.  The one
    exception is a self-conjugate lattice <p, r*tau> (s = 0 and p | r*t):
    there both orientations read properly equivalent forms, and keeping
    +r makes scalar lattices read exactly the norm form (1, t, nm)."""
    if s == 0 and (r * t) % p == 0:
        return ((p, 0), (0, r))
    return ((p, (-s) % p), (0, -r))


def _product_basis(t: int, nm: int, B1, B2):
    """Canonical basis of the lattice spanned by the pairwise products."""
    return _canonical_basis(t, *_hnf_cols([tau_product(t, nm, x, y) for x in zip(*B1) for y in zip(*B2)]))


def _conjugate_basis(t: int, B):
    """Canonical basis of the image under x + y*tau -> (x + y*t) - y*tau."""
    return _canonical_basis(t, *_hnf_cols([(x + y * t, -y) for x, y in zip(*B)]))


def _universal_form(t: int, nm: int, B) -> BinaryQuadraticForm:
    """The norm form on the basis B divided by its content."""
    f = basis_change(1, t, nm, B)
    g = gcd(*f)
    return BinaryQuadraticForm(ZZ, f[0] // g, f[1] // g, f[2] // g)


def _form_basis(a: int, b: int, t: int, eps: int = 1):
    """The lattice <a, b - tau'> of a form (a, b, c), a != 0, moved along
    tau' -> k + eps*tau, k = (b - eps*t)/2, into the algebra of trace t and
    the same discriminant (t = b, eps = 1: the form's own algebra).  b and
    t have the parity of the discriminant, so k is an integer."""
    k = (b - eps * t) // 2
    return ((a, b - k), (0, -eps))


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
        if self.det() == 0:
            raise UsageError(f"basis {self.basis} is not full rank")
        for col in self.columns():
            if not self.contains(tau_product(alg.t, alg.nm, (0, 1), col)):
                raise UsageError(f"lattice {self.basis} is not closed under tau")

    def columns(self):
        return tuple(zip(*self.basis))

    def det(self) -> int:
        (a, b), (c, d) = self.basis
        return a * d - b * c

    def norm(self) -> int:
        """Index in the full algebra lattice, which the README's principality test compares."""
        return abs(self.det())

    def contains(self, z) -> bool:
        (a, b), (c, d) = self.basis
        (u, v), det = z, self.det()
        return (d * u - b * v) % det == 0 and (a * v - c * u) % det == 0

    def canonical(self) -> "IdealLattice":
        """The lattice on its Hermite-canonical basis, a README capability."""
        return IdealLattice(self.alg, _canonical_basis(self.alg.t, *_hnf_cols(self.columns())))

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
    return IdealLattice(even_clifford(q), _form_basis(q.a, q.b, q.b))


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
    return BinaryQuadraticForm(ZZ, *basis_change(1, I.alg.t, I.alg.nm, I.basis))


def universal_norm_form(I: IdealLattice) -> BinaryQuadraticForm:
    """The naive norm form divided by its content; primitive by construction."""
    return _universal_form(I.alg.t, I.alg.nm, I.basis)


def even_clifford_of_ideal(I: IdealLattice):
    """Even Clifford algebra of the universal norm form plus the witness
    identifying it with the parent algebra; NotInvertible when there is
    none, which only a lattice that is not invertible allows."""
    A = even_clifford(universal_norm_form(I))
    w = algebra_isomorphic(I.alg, A)
    if w is None:
        raise NotInvertible(f"{I} is not invertible: its norm form has discriminant {A.disc()}")
    return A, w


def ideal_multiply(I: IdealLattice, J: IdealLattice) -> IdealLattice:
    """Lattice spanned by the pairwise products, in canonical basis."""
    if I.alg != J.alg:
        raise IncompatibleAlgebras(f"{I.alg} vs {J.alg}")
    return IdealLattice(I.alg, _product_basis(I.alg.t, I.alg.nm, I.basis, J.basis))


def ideal_conjugate(I: IdealLattice) -> IdealLattice:
    """Image under the standard involution, in canonical basis."""
    return IdealLattice(I.alg, _conjugate_basis(I.alg.t, I.basis))


def _is_invertible(t: int, nm: int, B) -> bool:
    """B * conj(B) is the scalar lattice g*O, g the content of B's norm form."""
    g = gcd(*basis_change(1, t, nm, B))
    return _product_basis(t, nm, B, _conjugate_basis(t, B)) == ((g, 0), (0, g))


def ideal_is_invertible(I: IdealLattice) -> bool:
    """I * conj(I) equals the scalar ideal generated by the content; a README capability."""
    return _is_invertible(I.alg.t, I.alg.nm, I.basis)


def _represent(A: int, B: int, C: int, target: int):
    """All (x, y) with A*x^2 + B*x*y + C*y^2 == target, for A > 0 and B^2 < 4AC."""
    disc = B * B - 4 * A * C
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


def _is_principal(t: int, nm: int, B) -> bool:
    """Whether the lattice of basis B is principal; see ``ideal_is_principal``."""
    p, s, r = _hnf_cols(zip(*B))
    return bool(_represent(*basis_change(1, t, nm, ((p, s), (0, r))), p * r))


def ideal_is_principal(I: IdealLattice) -> bool:
    """Whether I = gamma * O for some gamma; definite algebras only.  A README capability.

    gamma in I gives gamma*O inside I, since I is closed under tau, and
    gamma*O has index N(gamma) in O.  So gamma*O = I exactly when
    N(gamma) = [O : I], and I is principal iff its norm form represents
    its norm.  The form is read on the Hermite basis (p, s + r*tau), which
    bounds the search by sqrt(4p / (r*|D|)) whatever basis I was given.
    """
    if I.alg.disc() >= 0:
        raise NotDefinite("principality search needs a definite algebra")
    return _is_principal(I.alg.t, I.alg.nm, I.basis)


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
