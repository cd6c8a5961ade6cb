"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live on different grids (n_modes or side disagree)."""


class UnsupportedNonlinearityError(ValueError):
    """Nonlinearity outside the coercive cubic class handled here."""


class StepFailureError(RuntimeError):
    """A time step could not be completed.

    Carries the iteration history of the failed solve (may be empty for
    non-iterative schemes) so callers can report diagnostics; from
    Stepper.advance also the step's end time and index step_count + 1.
    """

    def __init__(self, message, residual_history=None, time=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.time = time
        self.step = None


class InstabilityError(StepFailureError):
    """A non-finite state (or equilibrium seed) or energy, or the energy
    safeguard tripped: a step increased the energy beyond the configured
    tolerance, which usually means dt is too large for the resolution."""


class FileFormatError(RuntimeError):
    """A .mfld snapshot file is malformed or truncated."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2), or a
    JSON value that its key does not take (spectral.json_value)."""

    def __init__(self, message, key=None):
        if key is not None:
            message = f"config key '{key}': {message}"
        super().__init__(message)
        self.key = key
