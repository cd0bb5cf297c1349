"""Exception hierarchy.

Everything raised on bad *mathematical* input derives from DomainError so
the CLI can map it to a single exit code; UsageError covers malformed
input syntax (bad JSON, wrong argument shapes).
"""


class BinquadError(Exception):
    pass


class UsageError(BinquadError):
    pass


class DomainError(BinquadError):
    pass


class UnsupportedRing(DomainError):
    pass


class IncompatibleHom(DomainError):
    pass


class NotInvertible(DomainError):
    pass


class NotDefinite(DomainError):
    pass


class NotTraceable(DomainError):
    pass


class NotAModule(DomainError):
    pass


class NonScalarNorm(DomainError):
    """Quaternion multiplication produced a non-scalar norm.

    This signals a corrupted multiplication table and must never fire on
    well-formed inputs; it exists so the property tests can prove that.
    """


class ZeroForm(DomainError):
    pass


class IncompatibleAlgebras(DomainError):
    pass


class NotComposable(DomainError):
    pass


class NotPrimitive(DomainError):
    pass


class BadDiscriminant(DomainError):
    pass


class NotAPerfectSquare(DomainError):
    pass


class BudgetExceeded(DomainError):
    """A decision procedure used up its step budget before deciding; the
    message names the budget."""
