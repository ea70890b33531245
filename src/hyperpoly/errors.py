"""Exception and warning types shared across the package."""


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


class ZeroCapacityError(HyperpolyError):
    """The operation requires a tuple with strictly positive capacity."""


class NearSingularDirectionWarning(UserWarning):
    """The polynomial value at the requested direction is close enough to zero to
    make trace and root computations ill-conditioned."""
