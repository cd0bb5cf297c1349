"""Class sets of negative discriminants: reduced-form enumeration, the
composition group on int triples, and the two Picard-style counts
(oriented classes and orbits under conjugation).  The counts are read
off the group table; ``pic_counts`` recomputes them independently
through forms and through ideal lattices, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .clifford import QuadraticAlgebra, algebra_isomorphic, even_clifford
from .compose import identity_form, shanks
from .errors import BadDiscriminant
from .form import BinaryQuadraticForm, reduce_definite, reduce_triple
from .modular import factor
from .norm import IdealLattice, ideal_conjugate, ideal_is_invertible, ideal_is_principal, ideal_multiply
from .ring import ZZ


def _check_disc(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant (0 or 1 mod 4)")


def reduced_forms(D: int):
    """All primitive reduced positive definite forms of discriminant D.

    Reduced: -a < b <= a <= c with b >= 0 when a = c; enumeration runs
    a up to sqrt(|D|/3).
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
    out.sort(key=lambda q: (q.a, q.b, q.c))
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
    Cayley table with identity 0, via the element counts killed by each
    prime power."""
    n = len(table)
    e = 0
    if n == 1:
        return ()

    def power(i, k):
        acc = e
        base = i
        while k:
            if k & 1:
                acc = table[acc][base]
            base = table[base][base]
            k >>= 1
        return acc

    partitions = {}
    for p in factor(n):
        # s_j = #{x : x^(p^j) = e}; the conjugate partition of the p-type
        counts = [1]
        j = 1
        while True:
            s = sum(1 for i in range(n) if power(i, p**j) == e)
            counts.append(s)
            if s == counts[-2]:
                counts.pop()
                break
            j += 1
        exps = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            exps.append(_ilog(ratio, p))
        # exps is the conjugate partition; transpose to cyclic exponents
        parts = []
        for j, width in enumerate(exps):
            for i in range(width):
                if len(parts) <= i:
                    parts.append(0)
                parts[i] += 1
        partitions[p] = sorted(parts, reverse=True)

    width = max(len(v) for v in partitions.values())
    factors = []
    for i in range(width):
        d = 1
        for p, parts in partitions.items():
            if i < len(parts):
                d *= p ** parts[i]
        factors.append(d)
    factors.sort()
    return tuple(factors)


def _ilog(x, p):
    k = 0
    while x > 1:
        x //= p
        k += 1
    return k


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
    """(oriented, unoriented) class counts.

    oriented = number of proper form classes = number of ideal classes;
    unoriented = orbits of either set under conjugation/inversion.  Both
    numbers are computed through forms and through lattices and the two
    routes are required to agree.
    """
    forms = reduced_forms(D)
    oriented_forms = len(forms)
    index = {q.coeffs(): i for i, q in enumerate(forms)}
    seen = set()
    unoriented_forms = 0
    for i, q in enumerate(forms):
        if i in seen:
            continue
        r, _ = reduce_definite(q.conjugate())
        seen.add(i)
        seen.add(index[r.coeffs()])
        unoriented_forms += 1

    reps = ideal_class_representatives(D)
    oriented_ideals = len(reps)
    seen = set()
    unoriented_ideals = 0
    for i, I in enumerate(reps):
        if i in seen:
            continue
        j = _ideal_class_index(reps, ideal_conjugate(I))
        seen.add(i)
        seen.add(j)
        unoriented_ideals += 1

    if oriented_forms != oriented_ideals:
        raise AssertionError(
            f"D={D}: {oriented_forms} form classes vs {oriented_ideals} ideal classes"
        )
    if unoriented_forms != unoriented_ideals:
        raise AssertionError(
            f"D={D}: {unoriented_forms} form orbits vs {unoriented_ideals} ideal orbits"
        )
    return oriented_forms, unoriented_forms


def form_for_algebra(C: QuadraticAlgebra) -> BinaryQuadraticForm:
    """A form whose even Clifford algebra is the given algebra, witnessed."""
    q = identity_form(C)
    w = algebra_isomorphic(C, even_clifford(q)) if C.ring.two_is_regular() else None
    if C.ring.two_is_regular() and w is None:
        raise AssertionError(f"norm form of {C} lost its algebra")
    return q
