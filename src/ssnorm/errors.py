"""Exception types shared across the package, and the one rule for each
kind of numeric argument: ``check_integer``, ``check_real`` and
``check_array``.  None takes a bool, which Python counts as a number but
is never a count, a radius or a vector entry; numpy's ints and floats pass."""
import math
import numbers

import numpy as np


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def check_integer(name: str, value, least=None):
    """Return ``value`` if it is a non-bool ``numbers.Integral`` of at least
    ``least``; else raise ``InvalidInputError`` naming ``name``."""
    # An int is tested first: the ABC check costs about 15 times as much.
    if type(value) is not int and \
            (not isinstance(value, numbers.Integral) or type(value) is bool):
        raise InvalidInputError(f"{name} must be integral, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value!r}")
    return value


def check_real(name: str, value, least=None, strict: bool = False):
    """Return ``value`` if it is a finite non-bool ``numbers.Real`` of at
    least ``least`` (above it when ``strict``); else raise
    ``InvalidInputError`` naming ``name``.  An int beyond float64 is not
    finite."""
    try:
        # A float is tested first: the ABC check costs about 15 times as much.
        bad = type(value) is not float and \
            (not isinstance(value, numbers.Real) or type(value) is bool) or \
            not math.isfinite(value)
    except OverflowError:  # ``math.isfinite`` of an int beyond float64
        bad = True
    if bad:
        raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")
    if least is not None and (value <= least if strict else value < least):
        raise InvalidInputError(f"{name} must be {'>' if strict else '>='} {least}, "
                                f"got {value!r}")
    return value


# numpy's own float64 dtype, which every native float64 array shares.
_FLOAT64 = np.dtype(np.float64)


def check_array(name: str, value, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array: itself if it is one, converted from an
    integer or float dtype, or from objects that are all non-bool real
    numbers (numpy's dtype for a list with an int beyond int64).  A ragged
    nested sequence, any other dtype or object, an int beyond float64, or
    unless ``finite`` is False (for the layer's tensors, which each pass
    checks) a non-finite entry, raises ``InvalidInputError`` naming
    ``name``.  A 1-D vector is read as Python floats, each only when their
    sum is not finite: at length 3-8 several times faster than
    ``np.isfinite``."""
    try:
        a = np.asarray(value)
    except ValueError as err:  # numpy's "inhomogeneous shape"
        raise InvalidInputError(f"{name} must be a regular array, got a ragged sequence") \
            from err
    if a.dtype is not _FLOAT64:
        reals = a.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) and type(v) is not bool for v in a.flat)
        if a.dtype.kind not in "iuf" and not reals:
            raise InvalidInputError(f"{name} must be real numbers, got dtype {a.dtype}")
        try:
            a = a.astype(np.float64)
        except OverflowError:  # a Python int beyond float64
            raise InvalidInputError(f"{name} must be finite") from None
    if not finite:
        return a
    if a.ndim == 1:
        values = a.tolist()
        ok = math.isfinite(sum(values)) or all(map(math.isfinite, values))
    else:
        ok = np.isfinite(a).all()
    if not ok:
        raise InvalidInputError(f"{name} must be finite")
    return a


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
