"""Reference routes the tests compare the library against.

Classical matrix Sinkhorn scaling and its column-tuple convention, partial
derivatives, exhaustive subset and composition enumerators, the van der
Waerden ratio through polarization, one Newton correction of computed roots,
and Taylor shifts with the derivative-line polynomial built from them.  None
of them is a library route: each is the second, independent way to a
quantity that the library computes another way, or the brute-force
enumeration behind a check.
"""

from typing import Iterator

import numpy as np

import hyperpoly as hp
from hyperpoly.errors import DimensionMismatchError, InvalidDocumentError
from hyperpoly.interlace import MonicPolynomial, _derivative


class ZeroCapacityError(Exception):
    """The van der Waerden ratio is undefined: the tuple has zero capacity."""


def matrix_sinkhorn(matrix, iters: int) -> np.ndarray:
    """Alternating row-then-column normalization of a positive matrix, `iters` full rounds."""
    a = np.asarray(matrix, dtype=float).copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("scaling needs a square matrix")
    if np.any(a <= 0.0):
        raise InvalidDocumentError("matrix entries must be strictly positive")
    for _ in range(iters):
        a = a / a.sum(axis=1, keepdims=True)
        a = a / a.sum(axis=0, keepdims=True)
    return a


def tuple_as_matrix(points) -> np.ndarray:
    """Matrix whose i-th column is the i-th tuple element (product-form convention)."""
    return np.asarray(points, dtype=float).T.copy()


def matrix_as_tuple(matrix) -> np.ndarray:
    """Inverse of tuple_as_matrix: columns become tuple elements."""
    return np.asarray(matrix, dtype=float).T.copy()


def row_normalized(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    return a / a.sum(axis=1, keepdims=True)


def partial_derivative(oracle, alpha, i: int) -> float:
    """dp/dx_i at alpha: component i of the library's gradient."""
    return float(hp.gradient(oracle, alpha)[i])


def lexicographic_subsets(k: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of range(k) in lexicographic order, generated depth first without a list."""

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for i in range(prefix[-1] + 1 if prefix else 0, k):
            yield prefix + (i,)
            yield from extend(prefix + (i,))

    return extend(())


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def van_der_waerden_ratio(oracle, points) -> float:
    """Mixed value by polarization divided by capacity; lies in (0, 1] for strictly positive tuples."""
    cap = hp.capacity(oracle, points)
    if cap.value <= 0.0:
        raise ZeroCapacityError("ratio undefined: the tuple has zero capacity")
    return hp.mixed_value(oracle, points) / cap.value


def newton_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton correction of each root of the polynomial with these ascending coefficients; a root
    where the derivative vanishes is kept."""
    descending = np.asarray(coeffs)[::-1]
    vals = np.polyval(descending, roots)
    dvals = np.polyval(np.polyder(descending), roots)
    safe = np.abs(dvals) > 0.0
    out = np.array(roots)
    out[safe] = roots[safe] - vals[safe] / dvals[safe]
    return out


def _trimmed(coeffs: np.ndarray) -> np.ndarray:
    """coeffs without its trailing zero coefficients, keeping at least one."""
    k = coeffs.size
    while k > 1 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def taylor_shift(coeffs, s: float) -> np.ndarray:
    """Ascending coefficients of p(x + s) given ascending coefficients of p, by Horner's rule over
    polynomials: trailing zero coefficients are dropped at every step, keeping at least one."""
    c = np.array(coeffs, dtype=float, ndmin=1)
    line = np.array([s + 0.0, 1.0])
    # The line times 0, as a convolution: its sums start at +0.0, so no negative zero comes out.
    value = _trimmed(c[-1:] + np.convolve(line, [0.0])[:1])
    for coef in c[-2::-1]:
        value = _trimmed(np.convolve(value, line))
        value[0] += coef
        value = _trimmed(value)
    return value


def derivative_line_polynomial(q: MonicPolynomial, b: float, c: float, a: float) -> np.ndarray:
    """Ascending coefficients of P_a(x) = q(x + b + c a) - a q'(x + b + c a)."""
    base = taylor_shift(q._coeffs, b + c * a)
    return base - a * np.pad(_derivative(base), (0, 1))
