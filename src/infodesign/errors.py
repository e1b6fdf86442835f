"""Exception types shared across the package."""


class InfoDesignError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(InfoDesignError, ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class ZeroSumViolation(InfoDesignError, ValueError):
    """A prescribed kernel direction has a nonzero coordinate sum."""


class AssumptionViolation(InfoDesignError, RuntimeError):
    """No payoff-preserving reallocation keeps the prior inside the prior set."""


class NotImplementableError(InfoDesignError, RuntimeError):
    """The action admits no supporting prior.

    Carries the infeasibility certificate of the supporting-prior system in
    ``farkas`` so callers can report a verifiable refutation.
    """

    def __init__(self, message, farkas=None):
        super().__init__(message)
        self.farkas = farkas


class NotImplementingError(InfoDesignError, RuntimeError):
    """The supplied structure does not implement the requested action."""


class NoImplementableActionError(InfoDesignError, RuntimeError):
    """No pure action is implementable in this decision problem."""


class InteriorSupportViolation(InfoDesignError, ValueError):
    """An assignment probability lies outside the open interval (0, 1)."""


class AssignmentMismatch(InfoDesignError, ValueError):
    """The observed distribution contradicts the declared assignment mechanism."""


class NoIrrelevantCovariate(InfoDesignError, ValueError):
    """Treatment assignment varies with every covariate."""


class EmptyOrFullVariableSet(InfoDesignError, ValueError):
    """A marginal disclosure must name a nonempty strict subset of the variables."""


class DocumentError(InfoDesignError, ValueError):
    """An input document failed to parse or validate."""


class DigitLimitExceeded(InfoDesignError, ValueError):
    """An exact result has a numerator or denominator too long to print as text."""
