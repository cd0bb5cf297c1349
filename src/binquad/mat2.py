"""2x2 matrices over a coefficient ring, stored as tuples of rows.

Column convention throughout the package: the columns of an action matrix
are the images of the basis vectors e1, e2.  Each operation unpacks its
operands and writes out each entry with plain Python operators, normalized
once, one ``normalize_all`` call per row, which is exact: Z -> Z/n is a
ring map and Q is closed under Fraction arithmetic.
"""

from __future__ import annotations

from .errors import NotInvertible, UsageError
from .ring import Ring


def mat(ring: Ring, rows):
    (a, b), (c, d) = rows
    return (ring.normalize_all(a, b), ring.normalize_all(c, d))


def mident(ring: Ring):
    return ((ring.one, ring.zero), (ring.zero, ring.one))


def mmul(ring: Ring, A, B):
    ((a, b), (c, d)), ((e, f), (g, h)), n = A, B, ring.normalize_all
    return (n(a * e + b * g, a * f + b * h), n(c * e + d * g, c * f + d * h))


def mdet(ring: Ring, A):
    return ring.normalize(A[0][0] * A[1][1] - A[0][1] * A[1][0])


def minv(ring: Ring, A):
    """A^-1; no library caller, kept while perfbench's tracer counts it by name."""
    d = mdet(ring, A)
    if not ring.is_unit(d):
        raise NotInvertible(f"matrix determinant {d} is not a unit")
    di = ring.inv(d)
    return mat(ring, ((di * A[1][1], -di * A[0][1]), (-di * A[1][0], di * A[0][0])))


def mat_to_json(ring: Ring, A):
    return [[ring.elem_to_json(A[i][j]) for j in range(2)] for i in range(2)]


def mat_from_json(ring: Ring, obj):
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in obj)
    ):
        raise UsageError(f"expected a 2x2 matrix, got {obj!r}")
    return mat(
        ring,
        tuple(tuple(ring.elem_from_json(x) for x in row) for row in obj),
    )
