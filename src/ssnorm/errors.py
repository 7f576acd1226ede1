"""Exception types shared across the package, and the one rule for each
kind of numeric argument: ``check_integer`` and ``check_real``.  Neither
takes a bool, which Python counts as both but which is never a count, a
step or a radius; numpy's integers and floats pass."""
import math
import numbers


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def check_integer(name: str, value, least=None):
    """Return ``value`` if it is a non-bool ``numbers.Integral`` of at least
    ``least``; else raise ``InvalidInputError`` naming ``name``."""
    if not isinstance(value, numbers.Integral) or type(value) is bool:
        raise InvalidInputError(f"{name} must be integral, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value!r}")
    return value


def check_real(name: str, value, least=None, strict: bool = False):
    """Return ``value`` if it is a finite non-bool ``numbers.Real`` of at
    least ``least`` (above it when ``strict``); else raise
    ``InvalidInputError`` naming ``name``."""
    if not isinstance(value, numbers.Real) or type(value) is bool or \
            not math.isfinite(value):
        raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")
    if least is not None and (value <= least if strict else value < least):
        raise InvalidInputError(f"{name} must be {'>' if strict else '>='} {least}, "
                                f"got {value!r}")
    return value


class InvalidStateError(RuntimeError):
    """An operation was called on an object in the wrong mode or with
    missing intermediates."""


class NotConvergedError(RuntimeError):
    """A gate ratio that is required to be one-hot is not."""


class TrainingFailedError(RuntimeError):
    """Training diverged; carries the step index where it happened."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step
