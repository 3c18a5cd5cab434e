"""Exception hierarchy shared by all kolmo modules, one class per way of
failing.  cli.run maps them to exit codes: UsageError to 3 (stderr prefix
"usage error"), AccuracyError (NonConvergenceError among them) and numpy's
FloatingPointError to 4, and every other KolmoError to 3."""


class KolmoError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KolmoError, ValueError):
    """An argument lies outside the admissible range."""


class StructureError(KolmoError, ValueError):
    """An operator specification violates the block-structure hypotheses."""


class EllipticityError(KolmoError, ValueError):
    """The diffusion matrix fails the two-sided ellipticity bounds."""


class HypoellipticityError(KolmoError, ValueError):
    """The covariance matrix is numerically singular at a positive time."""


class AccuracyError(KolmoError, RuntimeError):
    """A numerical self-check (refinement or Richardson) did not converge."""


class NonConvergenceError(AccuracyError):
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
