"""Exception and warning types shared across the package, and the readers of integer and real document
fields."""

import operator

import numpy as np


class HyperpolyError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(HyperpolyError):
    """A point, tuple, or matrix does not match the oracle's dimensions."""


class InvalidDocumentError(HyperpolyError):
    """An input document violates a structural invariant."""


class DegenerateDirectionError(HyperpolyError):
    """A direction lies outside, or too close to the boundary of, the positivity cone."""


class NonRealRootError(HyperpolyError):
    """A root that should be real carries a non-negligible imaginary part."""

    def __init__(self, message, root=None):
        super().__init__(message)
        self.root = root


class BudgetExceededError(HyperpolyError):
    """A requested enumeration (sign vectors, compositions, dense terms, permutations) exceeds the size cap."""


class ConvergenceError(HyperpolyError):
    """An iterative solver stopped without a certified answer."""


class GenerationError(HyperpolyError):
    """A seeded instance generator exhausted its retry budget."""


class NearSingularDirectionWarning(UserWarning):
    """The polynomial value at the requested direction is close enough to zero to
    make trace and root computations ill-conditioned."""


def integer_field(value, what: str) -> int:
    """An integer field of a document as an int: an integer, or a float with no fractional part such as
    3.0.  A boolean, a number with a fractional part and anything that is not a number are refused with
    InvalidDocumentError, where a cast with int() would truncate 2.9 to 2 and read true as 1."""
    # bool is the one subclass of int that is not a count; a float has no __index__.
    if type(value) is not bool:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidDocumentError(f"{what} must be an integer, got {value!r}")


def real_field(value, what: str) -> np.ndarray:
    """A real field of a document, a number or nested lists of them, as a float array.  Strings and
    booleans are refused with InvalidDocumentError, where a cast to float would read "2" as 2.0 and true
    as 1.0, and so is anything else that is no number, and every non-finite value, which is where a null
    lands.  The check is one pass of numpy over the whole field."""
    try:
        array = np.asarray(value)
        # Unicode and byte strings, booleans and complex numbers: kinds a float cast would take silently.
        if array.dtype.kind in "USbc":
            raise TypeError(f"{array.dtype} entries are not real numbers")
        array = array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocumentError(f"{what} must hold real numbers: {exc}") from exc
    if not np.isfinite(array).all():
        raise InvalidDocumentError(f"{what} must hold finite numbers; a null, NaN or infinity is none")
    return array
