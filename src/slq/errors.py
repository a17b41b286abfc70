"""Exception types shared across the solver stack."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class UnknownProblemError(LookupError):
    """Raised when a built-in problem name is not recognized."""


class DegeneratePerturbationError(RuntimeError):
    """Raised when R + eps*I + D'PD is numerically singular.

    Signals that eps is too small for the given cost weights; the caller
    should retry with a larger perturbation.
    """


class BlowUpError(RuntimeError):
    """Raised when a Riccati flow leaves the finite regime.

    Blow-up of the generalized Riccati equation is a legitimate, informative
    outcome; this error carries the first bad time so callers can report it.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = float(time)


class EnsembleError(RuntimeError):
    """Raised when too many Monte Carlo paths leave the finite regime."""
