"""Class sets of negative discriminants: reduced-form enumeration, the
composition group on int triples, and the two Picard-style counts
(oriented classes and orbits under conjugation).  The counts are read
off the group table; ``pic_counts`` recomputes them from ideal lattices
alone, as an oracle that ``verify`` checks against the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .clifford import QuadraticAlgebra, algebra_isomorphic, even_clifford
from .compose import identity_form, shanks
from .errors import BadDiscriminant
from .form import BinaryQuadraticForm, reduce_triple
from .modular import factor
from .norm import IdealLattice, ideal_conjugate, ideal_is_invertible, ideal_is_principal, ideal_multiply
from .ring import ZZ


def _check_disc(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant (0 or 1 mod 4)")


def reduced_forms(D: int):
    """All primitive reduced positive definite forms of discriminant D.

    Reduced: -a < b <= a <= c with b >= 0 when a = c; enumeration runs
    a up to sqrt(|D|/3) and emits the forms in (a, b, c) order.
    """
    _check_disc(D)
    out = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(BinaryQuadraticForm(ZZ, a, b, c))
    return out


def class_number(D: int) -> int:
    return len(reduced_forms(D))


@dataclass(frozen=True)
class ClassGroup:
    discriminant: int
    # forms[0] is the principal form (1, D mod 2, .), the one reduced form with a = 1
    forms: tuple
    table: tuple  # table[i][j] = index of the reduced composition of forms[i] and forms[j]
    invariant_factors: tuple

    @property
    def order(self) -> int:
        return len(self.forms)

    @property
    def unoriented(self) -> int:
        """Classes up to conjugation.  The conjugate (a, -b, c) lies in the
        inverse class, so the orbits are the classes x with x^2 = e plus
        one per pair {x, x^-1} of the others."""
        two_torsion = sum(1 for i, row in enumerate(self.table) if row[i] == 0)
        return (self.order + two_torsion) // 2

    def to_json(self) -> dict:
        return {
            "discriminant": self.discriminant,
            "h": self.order,
            "invariant_factors": list(self.invariant_factors),
            "forms": [q.to_json() for q in self.forms],
            "table": [list(row) for row in self.table],
        }


def class_group(D: int) -> ClassGroup:
    """Reduced forms and their Cayley table, composed by Shanks' algorithm
    and reduced on int triples."""
    forms = reduced_forms(D)
    triples = [q.coeffs() for q in forms]
    index = {f: i for i, f in enumerate(triples)}
    table = tuple(tuple(index[reduce_triple(*shanks(f1, f2))[0]] for f2 in triples) for f1 in triples)
    return ClassGroup(D, tuple(forms), table, _invariant_factors(table))


def _invariant_factors(table):
    """Invariant factors d1 | d2 | ... of the abelian group given by a
    Cayley table with identity 0, from the element orders.

    For each p^a exactly dividing the order, s_j = #{x : x^(p^j) = e}
    is p^r times s_(j-1), where r counts the cyclic p-parts of order at
    least p^j; so each step adds a factor p to the r largest invariant
    factors, until s_j = p^a."""
    orders = []
    for i, row in enumerate(table):
        k, x = 1, i
        while x:
            k, x = k + 1, row[x]
        orders.append(k)
    factors = []  # largest first
    for p, a in factor(len(table)).items():
        prev, q = 1, 1
        while prev < p**a:
            q *= p
            count = sum(1 for k in orders if q % k == 0)
            i, ratio = 0, count // prev
            while ratio > 1:
                if i == len(factors):
                    factors.append(1)
                factors[i] *= p
                i, ratio = i + 1, ratio // p
            prev = count
    return tuple(reversed(factors))


def _algebra_for_disc(D: int) -> QuadraticAlgebra:
    t = D % 2
    return QuadraticAlgebra(ZZ, t, (t * t - D) // 4)


def ideal_class_representatives(D: int):
    """Invertible-lattice representatives of every class, via direct
    enumeration of Hermite bases of norm up to sqrt(|D|/3)."""
    _check_disc(D)
    alg = _algebra_for_disc(D)
    t, nm = alg.t, alg.nm
    reps = []
    amax = isqrt(-D // 3) + 1
    for a in range(1, amax + 1):
        for s in range(a):
            if (s * s - t * s + nm) % a != 0:
                continue
            I = IdealLattice(alg, ((a, s), (0, -1)))
            if not ideal_is_invertible(I):
                continue
            if any(ideal_is_principal(ideal_multiply(I, ideal_conjugate(J))) for J in reps):
                continue
            reps.append(I)
    return reps


def _ideal_class_index(reps, I: IdealLattice) -> int:
    for i, J in enumerate(reps):
        if ideal_is_principal(ideal_multiply(I, ideal_conjugate(J))):
            return i
    raise AssertionError(f"lattice {I} matches no enumerated class")


def pic_counts(D: int):
    """(oriented, unoriented) class counts from ideal lattices alone.

    oriented = number of invertible ideal classes; unoriented = orbits
    of those classes under conjugation.  No form is reduced or composed,
    so the counts are independent of the table that ``ClassGroup`` reads
    them from (Cohen, GTM 138, 5.2).
    """
    reps = ideal_class_representatives(D)
    seen = set()
    orbits = 0
    for i, I in enumerate(reps):
        if i in seen:
            continue
        seen.update((i, _ideal_class_index(reps, ideal_conjugate(I))))
        orbits += 1
    return len(reps), orbits


def form_for_algebra(C: QuadraticAlgebra) -> BinaryQuadraticForm:
    """A form whose even Clifford algebra is the given algebra, witnessed."""
    q = identity_form(C)
    w = algebra_isomorphic(C, even_clifford(q)) if C.ring.two_is_regular() else None
    if C.ring.two_is_regular() and w is None:
        raise AssertionError(f"norm form of {C} lost its algebra")
    return q
