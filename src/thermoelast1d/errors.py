"""Exception taxonomy for the simulator.

Every error raised on purpose by this package derives from
:class:`Thermoelast1dError`, so callers can catch one base class at CLI
boundaries while tests discriminate the specific failure mode.
"""


class Thermoelast1dError(Exception):
    """Base class for all package errors."""


class StructuralError(Thermoelast1dError):
    """Shape/grid/timeline mismatch between objects that must agree."""


class ContractError(Thermoelast1dError):
    """A precondition of an operation was violated (bad bc kind, bad value)."""


class DomainError(Thermoelast1dError):
    """Argument outside the mathematical domain of a formula."""


class PositivityFloorError(Thermoelast1dError):
    """rho = f'/f requested below the configured positivity floor.

    Signals loss of the two-sided temperature bound during a run; never
    clamped silently.
    """


class HypothesisError(Thermoelast1dError):
    """A material violates the constitutive hypotheses (names the clause)."""


class _StepFailure(Thermoelast1dError):
    """A failed step.  ``t`` is the failing time; ``last_record`` is the
    diagnostics row of the last good step when ``run_simulation`` raised
    it, else None."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
        self.last_record = None


class SchemeError(_StepFailure):
    """A linear solve failed or the time integrator lost stability."""


class PositivityError(_StepFailure):
    """Temperature undershot below -positivity_tol during a run."""


class ConfigError(Thermoelast1dError):
    """Configuration text failed to parse or validate.

    Collects *all* problems found, not just the first.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
