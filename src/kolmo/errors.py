"""Exception hierarchy shared by all kolmo modules."""


class KolmoError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(KolmoError, ValueError):
    """Matrix or vector shapes are incompatible with the operation."""


class DomainError(KolmoError, ValueError):
    """A scalar argument lies outside the admissible range."""


class SymmetryError(KolmoError, ValueError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class DefinitenessError(KolmoError, ValueError):
    """A matrix expected to be positive definite is not."""


class StructureError(KolmoError, ValueError):
    """An operator specification violates the block-structure hypotheses."""


class EllipticityError(KolmoError, ValueError):
    """The diffusion matrix fails the two-sided ellipticity bounds."""


class HypoellipticityError(KolmoError, ValueError):
    """The covariance matrix is numerically singular at a positive time."""


class AccuracyError(KolmoError, RuntimeError):
    """A numerical self-check (refinement or Richardson) did not converge."""


class SupportError(KolmoError, ValueError):
    """A kernel derivative was requested outside the support t > tau."""


class SolveError(KolmoError, ValueError):
    """A restricted linear solve has no solution; signals an invalid spec."""


class NonConvergenceError(KolmoError, RuntimeError):
    """The path-planning correction loop hit its iteration cap.

    Carries the best plan found so far in the ``plan`` attribute.
    """

    def __init__(self, message, plan=None):
        super().__init__(message)
        self.plan = plan


class PlanIntegrityError(KolmoError, ValueError):
    """A path plan fails re-execution (broken chaining or endpoint)."""


class ManufactureError(KolmoError, ValueError):
    """Analytic derivatives of a manufactured solution disagree with
    finite differences."""


class UsageError(KolmoError, ValueError):
    """Bad command-line arguments or malformed input files."""
