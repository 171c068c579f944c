"""Exception types shared across the package."""


class AccelAtomsError(Exception):
    """Base class for all package errors."""


class DomainError(AccelAtomsError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """Evaluation where the underlying expression diverges or overflows (k = 0)."""


class CapacityError(AccelAtomsError):
    """A dense construction was requested beyond the configured size cap."""


class IntegrationError(AccelAtomsError):
    """The time integrator breached a hard state invariant.

    Carries the failing step so runs can be diagnosed and the CLI can report
    where the trajectory went bad: `step` counts the steps taken to reach the
    failing state, which is the state at time step * dt. The constructor
    arguments are kept in `args`, so the error survives pickling from a worker
    process.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message, step)
        self.message = message
        self.step = step

    def __str__(self) -> str:
        return f"{self.message} (step {self.step})"


class NoRootError(AccelAtomsError):
    """A bracketed root search found no sign change (no solution in range)."""


class ConfigError(AccelAtomsError):
    """A scenario configuration failed validation.

    `diagnostics` holds one human-readable message per violation.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics) or "invalid configuration")
