"""2x2 matrices over a coefficient ring, stored as tuples of rows.

Column convention throughout the package: the columns of an action matrix
are the images of the basis vectors e1, e2.  Entries are computed with
plain Python operators and normalized once per result, which is exact:
Z -> Z/n is a ring map and Q is closed under Fraction arithmetic.
"""

from __future__ import annotations

from .errors import NotInvertible, UsageError
from .ring import Ring


def mat(ring: Ring, rows):
    (a, b), (c, d) = rows
    n = ring.normalize
    return ((n(a), n(b)), (n(c), n(d)))


def mident(ring: Ring):
    return mat(ring, ((1, 0), (0, 1)))


def madd(ring: Ring, A, B):
    n = ring.normalize
    return tuple(tuple(n(A[i][j] + B[i][j]) for j in range(2)) for i in range(2))


def mscale(ring: Ring, k, A):
    n = ring.normalize
    k = n(k)
    return tuple(tuple(n(k * A[i][j]) for j in range(2)) for i in range(2))


def mmul(ring: Ring, A, B):
    n = ring.normalize
    return tuple(
        tuple(n(A[i][0] * B[0][j] + A[i][1] * B[1][j]) for j in range(2)) for i in range(2)
    )


def mdet(ring: Ring, A):
    return ring.normalize(A[0][0] * A[1][1] - A[0][1] * A[1][0])


def mapply(ring: Ring, A, v):
    n = ring.normalize
    x, y = n(v[0]), n(v[1])
    return (n(A[0][0] * x + A[0][1] * y), n(A[1][0] * x + A[1][1] * y))


def minv(ring: Ring, A):
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
