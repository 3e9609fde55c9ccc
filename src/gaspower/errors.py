"""Exception hierarchy with machine-readable categories for the CLI."""


class GasPowerError(Exception):
    """Base class for all solver and I/O errors raised by this package."""

    category = "error"


class DomainError(GasPowerError, ValueError):
    """Input outside the mathematical domain of an operation."""

    category = "domain-error"


class NoSolutionError(GasPowerError):
    """A junction or interface Riemann problem has no intersection point."""

    category = "no-solution"


class InvalidDemandError(GasPowerError):
    """Requested gas extraction exceeds what the junction can supply.

    Carries ``epsilon_max``, the supremum of admissible extractions for the
    offending junction data.
    """

    category = "invalid-demand"

    def __init__(self, message: str, epsilon_max: float):
        super().__init__(message)
        self.epsilon_max = epsilon_max


class InadmissibleError(GasPowerError):
    """A junction trace would send waves into the junction (super-sonic flow)."""

    category = "inadmissible"


class CflViolationError(GasPowerError):
    """Explicit time step exceeds the CFL bound."""

    category = "cfl-violation"


class ConvergenceError(GasPowerError):
    """An iterative solver failed to reach its tolerance."""

    category = "convergence-failure"


class NumericsError(GasPowerError):
    """Non-finite values or an unresolved rarefaction integral; the message
    names the interval or the state."""

    category = "numeric-error"


class SchemaError(GasPowerError):
    """Scenario file is missing fields or has ill-typed/inconsistent content."""

    category = "schema-error"


class ConfigError(GasPowerError):
    """Physically inconsistent configuration (e.g. negative heat rate)."""

    category = "config-error"
