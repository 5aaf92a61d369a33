"""Shared input validation helpers and error types."""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Raised when a domain object or operation input violates its contract."""


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its budget, or when a
    Monte Carlo run excludes more trials than the configured limit."""


def as_vector(x, name, length=None, dtype=np.float64):
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def as_matrix(x, name, shape=None, dtype=np.float64):
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if shape is not None:
        want = tuple(s for s in shape)
        got = arr.shape
        for w, g in zip(want, got):
            if w is not None and w != g:
                raise ValidationError(f"{name} must have shape {want}, got {got}")
    return arr


def check_finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_count(value, name, least=1):
    """value if it is an integer >= least (bools are not counts)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(value, name, least=-math.inf, strict=False):
    """value as a float if it is a finite real number >= least (> least
    when strict)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) \
            or not math.isfinite(value) or value < least or (strict and value == least):
        bound = "" if least == -math.inf else f" and {'>' if strict else '>='} {least:g}"
        raise ValidationError(f"{name} must be finite{bound}, got {value!r}")
    return float(value)


def check_list(values, name):
    """values if it is a nonempty list, tuple or array."""
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        raise ValidationError(f"{name} must be a nonempty list, got {values!r}")
    return values


def check_reals(values, name, least=-math.inf, strict=False):
    """A list, tuple or array of check_real values, as a tuple of floats."""
    return tuple(check_real(v, name, least, strict) for v in check_list(values, name))
