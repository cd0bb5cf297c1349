"""Class sets of negative discriminants: reduced-form enumeration, the
orders of the classes under composition on int triples, and the two
Picard-style counts (oriented classes and orbits under conjugation).
The counts and the invariant factors are read off the element orders;
``pic_counts`` recomputes the counts from Hermite bases of ideal classes
on the integer lattice core of ``norm``, as an oracle that ``verify``
checks against them.
"""

from __future__ import annotations

from math import gcd, isqrt

from .clifford import QuadraticAlgebra
from .compose import shanks
from .errors import BadDiscriminant
from .form import BinaryQuadraticForm, reduce_triple
from .modular import factor
from .norm import IdealLattice, _conjugate_basis, _is_invertible, _is_principal, _product_basis
from .ring import Value, ZZ


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


class ClassGroup(Value):
    # forms[0] is the principal form (1, D mod 2, .), the one reduced form with a = 1;
    # orders[i] is the order of the class of forms[i]
    __slots__ = ("discriminant", "forms", "orders", "invariant_factors")

    def __init__(self, discriminant: int, forms: tuple, orders: tuple, invariant_factors: tuple):
        Value.__init__(self, discriminant, forms, orders, invariant_factors)

    @property
    def order(self) -> int:
        return len(self.forms)

    @property
    def unoriented(self) -> int:
        """Classes up to conjugation.  The conjugate (a, -b, c) lies in the
        inverse class, so the orbits are the classes x with x^2 = e plus
        one per pair {x, x^-1} of the others."""
        return (self.order + sum(1 for k in self.orders if k <= 2)) // 2


def class_group(D: int) -> ClassGroup:
    """Reduced forms and the order of each class.  Each cyclic subgroup
    is walked once: the powers f, f^2, ..., f^n = e of the first form
    whose order is not yet known are composed by Shanks' algorithm and
    reduced on int triples, and f^j has order n/gcd(j, n)."""
    forms = reduced_forms(D)
    triples = [q.coeffs() for q in forms]
    index = {f: i for i, f in enumerate(triples)}
    orders = [0] * len(forms)
    for i, f in enumerate(triples):
        if orders[i]:
            continue
        powers, x = [i], f
        while x != triples[0]:
            x = reduce_triple(*shanks(x, f))[0]
            powers.append(index[x])
        n = len(powers)
        for j, k in enumerate(powers, 1):
            orders[k] = n // gcd(j, n)
    return ClassGroup(D, tuple(forms), tuple(orders), _invariant_factors(orders))


def _invariant_factors(orders):
    """Invariant factors d1 | d2 | ... of a finite abelian group, from
    the orders of its elements.

    For each p^a exactly dividing the group order, s_j = #{x : x^(p^j) = e}
    is p^r times s_(j-1), where r counts the cyclic p-parts of order at
    least p^j; so each step adds a factor p to the r largest invariant
    factors, until s_j = p^a."""
    factors = []  # largest first
    for p, a in factor(len(orders)).items():
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


def _class_bases(D: int):
    """(t, nm, bases): one Hermite basis ((a, s), (0, -1)) per invertible
    class of Z[tau], tau^2 = t*tau - nm, of discriminant D; a <= sqrt(|D|/3) + 1."""
    _check_disc(D)
    t = D % 2
    nm = (t * t - D) // 4
    reps = []
    for a in range(1, isqrt(-D // 3) + 2):
        for s in range(a):
            B = ((a, s), (0, -1))  # closed under tau iff a | N(s - tau)
            if (s * s - t * s + nm) % a == 0 and _is_invertible(t, nm, B):
                if _class_index(t, nm, reps, B) is None:
                    reps.append(B)
    return t, nm, reps


def _class_index(t: int, nm: int, reps, B):
    """Index of the class of B among reps, or None; B ~ J iff B*conj(J) is principal."""
    for i, J in enumerate(reps):
        if _is_principal(t, nm, _product_basis(t, nm, B, _conjugate_basis(t, J))):
            return i
    return None


def ideal_class_representatives(D: int):
    """One invertible ``IdealLattice`` per class, in ``_class_bases`` order; a README capability."""
    t, nm, bases = _class_bases(D)
    alg = QuadraticAlgebra(ZZ, t, nm)
    return [IdealLattice(alg, B) for B in bases]


def pic_counts(D: int):
    """(oriented, unoriented) class counts from ideal lattices alone.

    oriented = number of invertible ideal classes; unoriented = orbits
    of those classes under conjugation.  No form is reduced or composed
    and no ``IdealLattice`` is built: the lattices stay Hermite bases of
    the integer core, so the counts are independent of the element
    orders that ``ClassGroup`` reads them from (Cohen, GTM 138, 5.2).
    """
    t, nm, reps = _class_bases(D)
    seen, orbits = set(), 0
    for i, B in enumerate(reps):
        if i in seen:
            continue
        seen.update((i, _class_index(t, nm, reps, _conjugate_basis(t, B))))
        orbits += 1
    return len(reps), orbits
