"""Exception types shared across the package."""


class SecallocError(Exception):
    """Base class for all package errors."""


class DomainError(SecallocError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class PlanMismatchError(SecallocError):
    """An allocation plan's edge set does not match the network's."""


class PreconditionError(SecallocError):
    """An analytical routine was called outside its stated assumptions."""


class InfeasibleError(SecallocError):
    """The constraint set is empty (or a projection onto it did not settle)."""


class ConvergenceError(SecallocError):
    """A solver exhausted its iteration budget before meeting tolerances.

    Carries the residual trace collected so far in ``trace``.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class ScenarioError(SecallocError):
    """A scenario file failed to parse or validate.

    ``diagnostics`` lists every violation found, not just the first.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(self.diagnostics))


class MissingMessageError(SecallocError):
    """An agent failed to propose an amount for one of its incident edges."""
