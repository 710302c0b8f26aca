"""Shared exception types, and the check of a whole-number count."""

import numbers


class ConfigError(ValueError):
    """Invalid construction parameters or config-file content."""


class ShapeError(ValueError):
    """Array shape inconsistent with the mesh or problem dimensions."""


class DivergenceError(RuntimeError):
    """Fixed-point iteration left the divergence guard envelope."""


class KernelEvalError(RuntimeError):
    """A kernel or cost integrand produced non-finite values."""


class SingularSystemError(RuntimeError):
    """The discrete fixed point is not well posed (singular Jacobian)."""


def check_count(name: str, value, least: int) -> None:
    """Raise ConfigError unless value is a whole number of at least least."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
