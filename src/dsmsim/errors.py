"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class DegenerateNoiseError(RuntimeError):
    """A noise draw produced an unusable object (e.g. 1 + kappa <= 0)."""


class DegenerateDataError(RuntimeError):
    """Measured data carry no reconstructable signal (all-zero estimate)."""


class PhysicsError(RuntimeError):
    """An internally computed probability or matrix is unphysical."""
