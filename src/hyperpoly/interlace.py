"""Univariate real-rootedness machinery.

Companion matrices, root extraction, hyperbolic-pair tests, and majorization.
A pair (q, r) is decided exactly, by the Hermite / Krein-Naimark criterion, in
``bezoutian_pair_test``: one eigvalsh call on the stack [B(q, r), B(q, q')] of
Bezoutians, which ``bezoutian_matrices`` gathers from q (x) r - r (x) q in
O(d^2) over index tables cached per degree.  The partial-fraction residue test
(inconclusive at close roots) and the sampled pencil grid (evidence, not a
proof) stay as cross-checks.  Every root extraction is one call of the kernel ``_companion_roots``: one eigvals call on a stack of
``companion_matrices``, with a non-real flag per row.  Where the roots must be
real, the first flagged row in stack order raises NonRealRootError, naming its
root with the largest imaginary excess.  Leading coefficients are trimmed, by
the one rule of ``_trimmed_lengths``, only where a pencil x*q + y*r can lose
degree: in ``real_roots_from_coefficients`` (characteristic polynomials) and
in sampled_pencil_test, which reads only the flags, one kernel call per
distinct trimmed degree.  A pair spectrum refuses a point where its pencil
loses degree, and a form's restriction along a cone direction never loses it.
The hyperbolic Lidskii check and the line-convexity sweep are written once
over a spectrum map, a callable from points of shape (..., dim) to their
descending roots, shape (..., n): eigvalsh for symmetric matrices,
pair_spectrum for a pencil pair (q, r), and roots_in_direction for any oracle.
Each check calls its map once, on the stack of every point it needs.

A MonicPolynomial builds its ascending coefficient array once.  Products of
root lines, derivatives and Horner evaluation are written out in
numpy.polynomial's operation order, bitwise its results, without importing
it.  The module takes no Taylor shifts: a shifted pencil is a pair spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidDocumentError,
    NonRealRootError,
    integer_field,
    real_field,
)
from .report import Report

HYPERBOLIC = "hyperbolic"
NOT_HYPERBOLIC = "not_hyperbolic"
INCONCLUSIVE = "inconclusive"

# Pairs whose consecutive roots of q are closer than this (relative to the root
# scale) get an inconclusive verdict: the residues a_k = r(lambda_k)/q'(lambda_k)
# are no longer trustworthy near a multiple root.
ROOT_SEPARATION_FLOOR = 1e-6

# Leading coefficients below this fraction of the largest coefficient are
# treated as exact zeros (degree drop along degenerate pencil directions).
LEADING_TRIM = 1e-12

# A Bezoutian counts as semidefinite when no eigenvalue of the other sign exceeds this fraction of its
# largest |eigenvalue|.
BEZOUTIAN_TOL = 1e-9

# Rows per kernel call in sampled_pencil_test, so that memory stays O(_CHUNK * n^2) for any grid.
_CHUNK = 256

# Grid points of a line sweep at most; it takes a spectrum at each and at the midpoint of every pair.
SWEEP_GRID_CAP = 256

# The grid -1, -0.75, ..., 1 and the tolerance of ``derivative_line_sweep``, those of the interlace suite.
_SUITE_GRID = np.arange(-4, 5) / 4
_SUITE_TOL = 1e-7

# Directions of a sampled pencil test at most; it builds one pencil row per direction before the kernel.
SAMPLED_DIRECTION_CAP = 1 << 16


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial q(x) = x^n - a_1 x^(n-1) - ... - a_n.

    The stored tuple is (a_1, ..., a_n); note the minus signs in front of
    every stored coefficient.  The ascending power-basis coefficients are
    built once, read-only, and every method reads them.
    """

    a: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) < 1:
            raise InvalidDocumentError("monic polynomial needs degree >= 1")
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        coeffs = -np.array(a[::-1] + (-1.0,))
        coeffs.setflags(write=False)
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.a)

    @classmethod
    def from_standard(cls, coeffs) -> "MonicPolynomial":
        """Build from ascending power-basis coefficients c_0..c_n (c_n != 0)."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise InvalidDocumentError("need at least a degree-1 coefficient vector")
        if c[-1] == 0.0:
            raise InvalidDocumentError("leading coefficient is zero")
        c = c / c[-1]
        return cls(tuple((-c[:-1][::-1]).tolist()))

    @classmethod
    def from_roots(cls, roots) -> "MonicPolynomial":
        return cls.from_standard(_from_roots(roots))

    def standard_coefficients(self) -> np.ndarray:
        """Ascending power-basis coefficients c_0..c_n with c_n = 1, a fresh copy."""
        return self._coeffs.copy()

    def to_json(self) -> dict:
        return {"degree": self.degree, "a": list(self.a)}

    @classmethod
    def from_json(cls, doc) -> "MonicPolynomial":
        if not isinstance(doc, dict) or "a" not in doc:
            raise InvalidDocumentError("monic polynomial document needs an 'a' field")
        a = real_field(doc["a"], "'a'")
        if a.ndim != 1:
            raise InvalidDocumentError("'a' must be a list of coefficients")
        if "degree" in doc and integer_field(doc["degree"], "'degree'") != a.size:
            raise InvalidDocumentError("declared degree does not match coefficient count")
        return cls(tuple(a.tolist()))


# The polynomial arithmetic below repeats the operation order of numpy.polynomial's polyfromroots,
# polyder and polyval, so that every result is bitwise the one numpy gives.


def _from_roots(roots) -> np.ndarray:
    """Ascending coefficients of the product of x - r over the roots: the lines of the sorted roots,
    multiplied pairwise (the first with the middle, and so on, an odd last one into the first) until
    one is left."""
    r = np.asarray(roots, dtype=float)
    if r.ndim != 1:
        raise InvalidDocumentError("roots must be a one-dimensional vector")
    factors = [np.array([-v, 1.0]) for v in np.sort(r)]
    if not factors:
        return np.ones(1)
    while len(factors) > 1:
        half, odd = divmod(len(factors), 2)
        paired = [np.convolve(factors[i], factors[i + half]) for i in range(half)]
        if odd:
            paired[0] = np.convolve(paired[0], factors[-1])
        factors = paired
    return factors[0]


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative, j c_j; a constant's is [0]."""
    return coeffs[1:] * np.arange(1, coeffs.size) if coeffs.size > 1 else coeffs[:1] * 0


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial with these ascending coefficients at each entry of the array x, by Horner's rule."""
    # As in numpy's polyval on an array, every coefficient meets x as an array of its dimension.
    coeffs = coeffs.reshape(coeffs.shape + (1,) * x.ndim)
    value = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        value = c + value * x
    return value


def standard_coefficients(poly, length: Optional[int] = None) -> np.ndarray:
    """Ascending coefficients of a MonicPolynomial (its own read-only array unless padded) or a raw
    coefficient vector."""
    if isinstance(poly, MonicPolynomial):
        c = poly._coeffs
    else:
        c = np.asarray(poly, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise InvalidDocumentError("coefficient vector must be one-dimensional and nonempty")
    if length is not None:
        if c.size > length:
            raise InvalidDocumentError(f"polynomial degree {c.size - 1} exceeds limit {length - 1}")
        c = np.pad(c, (0, length - c.size))
    return c


def companion(q: MonicPolynomial) -> np.ndarray:
    """Companion matrix with ones on the superdiagonal and (a_n, ..., a_1) in the last row."""
    return companion_matrices(q._coeffs)


def companion_matrices(coeffs: np.ndarray) -> np.ndarray:
    """``companion`` for each row of a stack of ascending coefficients c_0..c_n, shape (..., n+1):
    ones on the superdiagonal and -c_0/c_n, ..., -c_(n-1)/c_n in the last row."""
    n = coeffs.shape[-1] - 1
    mats = np.zeros(coeffs.shape[:-1] + (n, n))
    # The superdiagonal entries (i, i + 1) sit at flat offsets 1, n + 2, 2n + 3, ... of each matrix.
    mats.reshape(-1, n * n)[:, 1 :: n + 1] = 1.0
    mats[..., n - 1, :] = -coeffs[..., :n] / coeffs[..., n:]
    return mats


def _companion_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The complex roots of each row of ascending coefficients (..., n+1), from one eigvals call on their
    companion matrices, and a flag per row: True where a root's |Im| exceeds tol * (1 + |root|)."""
    lams = np.linalg.eigvals(companion_matrices(rows))
    return lams, np.any(np.abs(lams.imag) > tol * (1.0 + np.abs(lams)), axis=-1)


def _real_parts(rows: np.ndarray, tol: float) -> np.ndarray:
    """The real parts of ``_companion_roots``, unsorted; raises NonRealRootError at the first flagged row
    in stack order, on its root whose |Im| exceeds tol * (1 + |root|) by the most."""
    lams, nonreal = _companion_roots(rows, tol)
    if nonreal.any():
        row = lams.reshape(-1, lams.shape[-1])[np.argmax(nonreal.ravel())]
        worst = row[np.argmax(np.abs(row.imag) - tol * (1.0 + np.abs(row)))]
        raise NonRealRootError(f"root {worst} has imaginary part beyond tolerance {tol}", root=complex(worst))
    return lams.real


def real_roots(q: MonicPolynomial, tol: float = 1e-8) -> np.ndarray:
    """All n roots of q, the eigenvalues of its companion matrix, sorted descending; raises
    NonRealRootError when one has an imaginary part beyond tol * (1 + |root|)."""
    return real_roots_of_rows(q._coeffs, tol)


def real_roots_of_rows(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """The roots of each row of ascending coefficients, shape (..., n+1), sorted descending, from one
    kernel call; raises NonRealRootError at the first row with a non-real root (see ``_real_parts``)."""
    if np.any(coeffs[..., -1] == 0.0):
        raise InvalidDocumentError("leading coefficient is zero")
    return np.sort(_real_parts(coeffs, tol), axis=-1)[..., ::-1]


def real_roots_from_coefficients(coeffs, tol: float = 1e-8) -> np.ndarray:
    """``real_roots_of_rows`` for one ascending coefficient vector of a pencil x*q + y*r, its leading
    coefficients trimmed first (``_trimmed_lengths``); a constant has no roots."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    k = _trimmed_lengths(c[None, :])[0]
    if k <= 1:
        return np.empty(0)
    return real_roots_of_rows(c[:k], tol)


def _trimmed_lengths(rows: np.ndarray) -> np.ndarray:
    """How many ascending coefficients each row of a stack (K, n+1) keeps: leading coefficients at most
    LEADING_TRIM * max|c| of their row are dropped, and c_0 never is."""
    mags = np.abs(rows)
    # Negated, so that a NaN coefficient is kept and reaches eigvals.
    kept = ~(mags[:, 1:] <= LEADING_TRIM * np.max(mags, axis=1, initial=0.0)[:, None])
    return np.max(kept * np.arange(2, rows.shape[1] + 1), axis=1, initial=1)


def _nonreal_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """A flag per row of a stack (K, n+1), True exactly where ``real_roots_from_coefficients`` raises
    NonRealRootError on the row.  Rows are trimmed by its rule and go through the kernel in chunks of
    _CHUNK, one call per distinct trimmed degree in a chunk."""
    lengths = _trimmed_lengths(rows)
    nonreal = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), _CHUNK):
        chunk = lengths[start : start + _CHUNK]
        for k in np.unique(chunk[chunk > 1]):
            idx = start + np.flatnonzero(chunk == k)
            nonreal[idx] = _companion_roots(rows[idx, :k], tol)[1]
    return nonreal


# Per degree d, the two read-only index tables of ``bezoutian_matrices``; see there.
_BEZOUTIAN_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _bezoutian_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather tables of a degree-d Bezoutian.  ``layout`` (2d - 1, d) places the flat index of N_ab at
    row a + b - 1 and column d - a, for 1 <= a <= d and 0 <= b <= d; its other cells read N_00, which is
    exactly zero.  ``entries`` (d, d) finds B_ij at row i + j, column d - 1 - i of the layout's running sums."""
    tables = _BEZOUTIAN_TABLES.get(d)
    if tables is None:
        s, a = np.ogrid[1 : 2 * d, d : 0 : -1]
        b = s - a
        layout = np.where((b >= 0) & (b <= d), a * (d + 1) + b, 0)
        i, j = np.ogrid[:d, :d]
        entries = (i + j) * d + (d - 1 - i)
        layout.setflags(write=False)
        entries.setflags(write=False)
        tables = _BEZOUTIAN_TABLES[d] = (layout, entries)
    return tables


def bezoutian_matrices(q_rows: np.ndarray, r_rows: np.ndarray) -> np.ndarray:
    """The Bezoutian B(q, r) of each pair of rows of two broadcasting stacks of ascending coefficients
    (..., d + 1): the (..., d, d) stack with (q(x) r(y) - r(x) q(y)) / (x - y) = sum_ij B_ij x^i y^j.

    Dividing by x - y gives B_(a-1)b = N_ab + B_a(b-1) with N = q (x) r - r (x) q, so B_ij is the sum of
    N_ab over a + b = i + j + 1 and a > i: a running sum along each anti-diagonal of N, read at a = i + 1.
    One gather lays the anti-diagonals out as rows, one cumsum runs them and one gather reads B.
    """
    d = q_rows.shape[-1] - 1
    layout, entries = _bezoutian_tables(d)
    outer = q_rows[..., :, None] * r_rows[..., None, :]
    n = outer - np.swapaxes(outer, -1, -2)
    sums = np.cumsum(n.reshape(n.shape[:-2] + (-1,))[..., layout], axis=-1)
    return sums.reshape(sums.shape[:-2] + (-1,))[..., entries]


@dataclass(frozen=True, slots=True)
class PairReport(Report):
    """Outcome of a hyperbolic-pair test.  The Bezoutian certificate fills in the smallest and largest
    eigenvalues of B(q, r) and of the Hermite matrix B(q, q')."""

    verdict: str
    residues: Optional[tuple[float, ...]] = None
    counterexample_direction: Optional[tuple[float, float]] = None
    roots_of_q: Optional[np.ndarray] = None
    bezoutian_range: Optional[tuple[float, float]] = None
    hermite_range: Optional[tuple[float, float]] = None


def bezoutian_pair_test(q: MonicPolynomial, r) -> PairReport:
    """Exact test of the pencil {x*q + y*r}, deg r <= deg q, from one eigvalsh call on the stack
    [B(q, r), B(q, q')].

    By the Hermite / Krein-Naimark criterion every real x*q + y*r is
    real-rooted exactly when q is real-rooted, that is the Hermite matrix
    B(q, q') is positive semidefinite, and B(q, r) is semidefinite of either
    sign.  B(q, r) alone does not decide: a common factor of q and r with
    non-real roots drops out of its inertia (q = (x^2 + 1)(x - 1) and
    r = x^2 + 1 give eigenvalues 0, 0, 2).  Repeated and close roots need no
    special case.  Both matrices are first scaled to D B D, with D the
    inverse square roots of the Hermite diagonal: a congruence, so the
    inertias are kept, that brings the power-basis entries to one scale.
    An eigenvalue of the other sign counts as zero up to BEZOUTIAN_TOL times
    its scaled matrix's largest |eigenvalue|; the report carries the
    smallest and largest eigenvalue of each scaled matrix.
    """
    n = q.degree
    qc = q._coeffs
    rc = standard_coefficients(r)
    if rc.size - 1 > n:
        raise InvalidDocumentError(f"deg(r) = {rc.size - 1} exceeds deg(q) = {n}")
    rows = np.zeros((2, n + 1))
    rows[0, : rc.size] = rc
    rows[1, :n] = _derivative(qc)
    mats = bezoutian_matrices(qc, rows)
    diag = np.abs(np.diagonal(mats[1]))
    d = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    eig = np.linalg.eigvalsh(d[:, None] * mats * d)
    (low, hermite_low), (high, hermite_high) = eig[:, 0].tolist(), eig[:, -1].tolist()
    semidefinite = min(-low, high) <= BEZOUTIAN_TOL * max(-low, high)
    real_rooted = -hermite_low <= BEZOUTIAN_TOL * max(-hermite_low, hermite_high)
    verdict = HYPERBOLIC if semidefinite and real_rooted else NOT_HYPERBOLIC
    return PairReport(verdict=verdict, bezoutian_range=(low, high), hermite_range=(hermite_low, hermite_high))


def obreschkoff_pair_test(q: MonicPolynomial, r, tol: float = 1e-8) -> PairReport:
    """Residue test for hyperbolicity of the pencil {x*q + y*r}.

    Writes r/q = A + sum_k a_k / (z - lambda_k) over the (distinct, real)
    roots of q and reads the verdict off the residue signs: the pencil is
    real-rooted in every direction exactly when all nonzero residues
    a_k = r(lambda_k) / q'(lambda_k) share one sign.  Residues may vanish only
    at common roots of q and r.  Roots of q closer than
    ROOT_SEPARATION_FLOOR * scale yield an inconclusive verdict instead of a
    guess.
    """
    n = q.degree
    rc = standard_coefficients(r)
    if rc.size - 1 > n:
        raise InvalidDocumentError(f"deg(r) = {rc.size - 1} exceeds deg(q) = {n}")
    lam = real_roots(q, tol)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if n >= 2:
        gaps = lam[:-1] - lam[1:]
        if float(np.min(gaps)) < ROOT_SEPARATION_FLOOR * scale:
            return PairReport(verdict=INCONCLUSIVE, roots_of_q=lam)
    residues = _horner(rc, lam) / _horner(_derivative(q._coeffs), lam)
    peak = float(np.max(np.abs(residues))) if residues.size else 0.0
    zero_floor = 1e-10 * max(1.0, peak)
    has_pos = bool(np.any(residues > zero_floor))
    has_neg = bool(np.any(residues < -zero_floor))
    verdict = NOT_HYPERBOLIC if (has_pos and has_neg) else HYPERBOLIC
    return PairReport(verdict=verdict, residues=tuple(float(v) for v in residues), roots_of_q=lam)


def sampled_pencil_test(q: MonicPolynomial, r, num_dirs: int = 64, tol: float = 1e-8) -> PairReport:
    """Check real-rootedness of x*q + y*r over a direction grid.

    Directions are (cos t, sin t) for t on a uniform grid of [0, pi), plus the
    exact degree-dropping direction (1, -1), which a grid must never miss.
    Every direction's pencil goes through ``_nonreal_rows``, each trimmed as
    ``real_roots_from_coefficients`` trims it (the degree drops at (1, -1) and
    wherever cos t + sin t rounds to almost 0).  The first failing direction in
    that order is reported.  A full pass is evidence, not a proof.  More than
    SAMPLED_DIRECTION_CAP directions are refused before any is built.
    """
    if num_dirs < 3:
        raise InvalidDocumentError("need at least 3 sampled directions")
    if num_dirs > SAMPLED_DIRECTION_CAP:
        raise BudgetExceededError(f"{num_dirs} directions exceed the sampled pencil cap of {SAMPLED_DIRECTION_CAP}")
    n = q.degree
    qc = standard_coefficients(q)
    rc = standard_coefficients(r, length=n + 1)
    thetas = np.pi * np.arange(num_dirs) / num_dirs
    directions = [(math.cos(t), math.sin(t)) for t in thetas] + [(1.0, -1.0)]
    xy = np.array(directions)
    nonreal = _nonreal_rows(xy[:, :1] * qc + xy[:, 1:] * rc, tol)
    if nonreal.any():
        return PairReport(verdict=NOT_HYPERBOLIC, counterexample_direction=directions[int(np.argmax(nonreal))])
    return PairReport(verdict=HYPERBOLIC)


def pair_agreement(first: PairReport, second: PairReport) -> bool:
    """Whether two pair reports agree: the residue test against the sampled pencil grid, or against the
    Bezoutian certificate.  They disagree only when both are definite and differ."""
    definite = (HYPERBOLIC, NOT_HYPERBOLIC)
    return first.verdict == second.verdict or not (first.verdict in definite and second.verdict in definite)


def pencil_characteristic_polynomial(q: MonicPolynomial, r: MonicPolynomial, x: float, y: float) -> np.ndarray:
    """Ascending characteristic polynomial coefficients of x*C_q + y*C_r.

    For x + y != 0 its roots are (x+y) times the roots of the monic
    normalization of x*q + y*r.
    """
    if q.degree != r.degree:
        raise InvalidDocumentError("pencil needs two monic polynomials of equal degree")
    mat = x * companion(q) + y * companion(r)
    return np.poly(mat)[::-1]


@dataclass(frozen=True, slots=True)
class MajorizationReport(Report):
    """u majorized by v: descending prefix sums of u dominated by those of v, equal totals."""

    majorized: bool
    prefix_gaps: tuple[float, ...]
    total_gap: float


def majorization_check(u, v, tol: float = 1e-9) -> MajorizationReport:
    """Is u majorized by v?  prefix_gaps[k] is the slack of the k-th prefix inequality.  u and v are
    two nonempty vectors of one length."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise InvalidDocumentError("majorization needs vectors of equal length")
    if u.ndim != 1 or u.size == 0:
        raise InvalidDocumentError(f"majorization needs two nonempty vectors, got shape {u.shape}")
    gaps = np.cumsum(np.sort(v)[::-1]) - np.cumsum(np.sort(u)[::-1])
    return MajorizationReport(
        majorized=bool(_majorized(gaps, tol)), prefix_gaps=tuple(float(g) for g in gaps), total_gap=float(gaps[-1])
    )


def _majorized(gaps, tol: float):
    """The majorization rule on prefix gaps cumsum(v) - cumsum(u) along the last axis: no prefix below
    -tol and a total within tol."""
    return np.all(gaps >= -tol, axis=-1) & (np.abs(gaps[..., -1]) <= tol)


# A spectrum map: points (..., dim) to their descending roots (..., n); see the module docstring.
Spectrum = Callable[[np.ndarray], np.ndarray]


def hyperbolic_lidskii(spectrum: Spectrum, x, y, tol: float) -> MajorizationReport:
    """Check that lambda(x+y) - lambda(x) is majorized by lambda(y) for one spectrum map, called once on
    the stack [x + y, x, y].

    This holds for the roots of every hyperbolic polynomial (Lax's theorem,
    Lewis, Parrilo & Ramana 2005).  For an oracle, pass
    ``lambda v: roots_in_direction(oracle, v, oracle.direction)``.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    total, at_x, at_y = spectrum(np.stack([x + y, x, y]))
    return majorization_check(total - at_x, at_y, tol)


def lidskii_check(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> MajorizationReport:
    """Check that lambda(A+B) - lambda(A) is majorized by lambda(B) for symmetric A, B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise DimensionMismatchError(f"Lidskii needs two square matrices of one size, got {a.shape} and {b.shape}")
    return hyperbolic_lidskii(lambda m: np.linalg.eigvalsh(m)[..., ::-1], 0.5 * (a + a.T), 0.5 * (b + b.T), tol)


def pair_spectrum(q: MonicPolynomial, r: MonicPolynomial, tol: float) -> Spectrum:
    """The spectrum map of a pencil pair: (x, y, z) -> (x+y) u + z, descending, u the roots of x q + y r.

    These are the roots in direction (0, 0, 1) of the pair form
    Phi(x, y, z) = (-1)^n (x+y)^(n-1) (x q + y r)(-z / (x+y)), and the
    eigenvalues of x C_q + y C_r + z I.  Phi is hyperbolic exactly when the
    pair is.  The map takes points of shape (..., 3) and extracts every
    spectrum in one kernel call.  A point where the pencil loses its degree,
    |x + y| <= LEADING_TRIM * max |coefficient|, raises InvalidDocumentError.
    Non-real roots raise NonRealRootError at the first such point in stack
    order, as ``real_roots_from_coefficients`` raises on its pencil.
    """
    if q.degree != r.degree:
        raise InvalidDocumentError("a pair spectrum needs two monic polynomials of equal degree")
    qc, rc = q._coeffs, r._coeffs

    def spectrum(points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != 3:
            raise DimensionMismatchError(f"pair spectrum points have shape (..., 3), got {pts.shape}")
        x, y, z = pts[..., :1], pts[..., 1:2], pts[..., 2:]
        rows = x * qc + y * rc
        dropped = np.abs(rows[..., -1]) <= LEADING_TRIM * np.max(np.abs(rows), axis=-1)
        if dropped.any():
            point = pts.reshape(-1, 3)[np.argmax(dropped.ravel())]
            raise InvalidDocumentError(f"the pencil loses its degree at the pair point {tuple(point.tolist())}")
        return np.sort((x + y) * _real_parts(rows, tol) + z, axis=-1)[..., ::-1]

    return spectrum


def shifted_pencil_majorization(
    q: MonicPolynomial, r: MonicPolynomial, point, delta, tol: float = 1e-7
) -> MajorizationReport:
    """Hyperbolic Lidskii on the pair form: lambda(point + delta) - lambda(delta) is majorized by lambda(point).

    For point = (x, y, z), lambda(point) is L times the roots of the shifted
    pencil x q(t - z/L) + y r(t - z/L), L = x + y (see pair_spectrum).  x + y,
    d1 + d2 and their sum must not vanish.
    """
    spectrum = pair_spectrum(q, r, tol)
    if np.shape(point) != (3,) or np.shape(delta) != (3,):
        raise DimensionMismatchError("point and delta must be triples")
    x, y, _ = (float(v) for v in point)
    d1, d2, _ = (float(v) for v in delta)
    floor = 1e-12 * max(1.0, abs(x), abs(y), abs(d1), abs(d2))
    if min(abs(x + y), abs(d1 + d2), abs(x + y + (d1 + d2))) < floor:
        raise InvalidDocumentError("degenerate combination: one of x+y, d1+d2, or their sum vanishes")
    return hyperbolic_lidskii(spectrum, delta, point, tol)


@dataclass(frozen=True, slots=True)
class LineConvexityReport(Report):
    convex: bool
    min_at_zero: Optional[bool]
    fn_constant: bool
    values: tuple[float, ...]


def _derivative_line(q: MonicPolynomial, z0: float, dz: float, stat, grid: Sequence[float], tol: float):
    """``_line_sweep`` of stat along P_a(x) = (q - a q')(x - z0 - dz a), the pair spectrum of (q - q', q) at
    (a, 1 - a, z0 + dz a), and, if P_0 = q, whether no column is below its value at a = 0 by more than tol."""
    spectrum = pair_spectrum(MonicPolynomial.from_standard(q._coeffs - np.pad(_derivative(q._coeffs), (0, 1))), q, tol)
    sweep, values, convex = _line_sweep(spectrum, (0.0, 1.0, z0), (1.0, -1.0, dz), stat, grid, tol)
    if z0 != 0.0 or dz != -1.0:
        return sweep, values, convex, None
    zero = np.flatnonzero(sweep[0] == 0.0)
    at_zero = values[zero[0]] if zero.size else stat(spectrum(np.array([0.0, 1.0, 0.0])))
    return sweep, values, convex, bool(np.all(values.min(axis=0) >= at_zero - tol))


def _constant(sums) -> bool:
    """Whether the sums agree to 1e-9 of max(1, |sum|)."""
    return bool(np.ptp(sums) <= 1e-9 * max(1.0, float(np.max(np.abs(sums)))))


def derivative_line_convexity(
    q: MonicPolynomial, b: float, c: float, k: int, grid: Sequence[float], tol: float = 1e-7
) -> LineConvexityReport:
    """Convexity sweep for P_a(x) = q(x + b + c a) - a q'(x + b + c a).

    f_k(a) is the sum of the k largest roots of P_a, a shift of
    a (q - q') + (1 - a) q, so this is the top-k pair sweep of
    ``symmetric_convex_line_check`` on (q - q', q).  When (b, c) = (0, 1) the
    minimum over the grid is additionally compared against f_k(0); for other
    shifts that claim does not apply and min_at_zero is None.  fn_constant
    reports whether the full root sum stays constant across the grid (true
    whenever c = 1).
    """
    n = q.degree
    _, f, convex, min_at_zero = _derivative_line(q, -b, -c, root_statistic(f"topk_sum:{k}", n), grid, tol)
    # The root sum of P_a in closed form: q.a[0] is the root sum of q.
    constant = _constant([q.a[0] - n * (b + c * float(a)) + n * float(a) for a in grid])
    return LineConvexityReport(convex=convex, min_at_zero=min_at_zero, fn_constant=constant, values=tuple(f.tolist()))


@dataclass(frozen=True, slots=True)
class DerivativeLineReport(Report):
    convex: bool
    min_at_zero: bool
    fn_constant: bool
    majorized: bool
    slack: float
    values: tuple[tuple[float, ...], ...]


def derivative_line_sweep(q: MonicPolynomial) -> DerivativeLineReport:
    """``derivative_line_convexity`` at (b, c) = (0, 1) for every k on the grid a = -1, -0.75, ..., 1, from one
    cumsum of the spectra of its one extraction: values[i][k - 1] is the top-k sum at the i-th a (from k = 8 on
    it may differ in the last bit from np.sum).  majorized: the spectrum at a is majorized by the one at b for
    every 0 <= a < b, and slack is the least prefix gap."""
    cumsum = lambda lam: np.cumsum(lam, axis=-1)
    (grid, low, high), values, convex, min_at_zero = _derivative_line(q, 0.0, -1.0, cumsum, _SUITE_GRID, _SUITE_TOL)
    pairs = grid[low] >= 0.0
    gaps = values[high[pairs]] - values[low[pairs]]
    return DerivativeLineReport(
        convex=convex, min_at_zero=min_at_zero, fn_constant=_constant(values[:, -1]), slack=float(np.min(gaps)),
        majorized=bool(np.all(_majorized(gaps, _SUITE_TOL))), values=tuple(map(tuple, values.tolist())),
    )


def root_statistic(f_id: str, degree: int) -> Callable[[np.ndarray], np.ndarray]:
    """Symmetric convex statistics, selectable by name, of descending root vectors of the given length:
    a map from spectra of shape (..., degree) to their values, shape (...).

    Supported: "max", "sum_abs", "topk_sum:k", "neg_bottomk_sum:k" with 1 <= k <= degree.
    """
    if f_id == "max":
        return lambda lam: lam[..., 0]
    if f_id == "sum_abs":
        return lambda lam: np.sum(np.abs(lam), axis=-1)
    name, _, arg = f_id.partition(":")
    if name in ("topk_sum", "neg_bottomk_sum"):
        if not arg:
            raise InvalidDocumentError(f"statistic '{name}' needs a ':k' suffix")
        try:
            k = int(arg)
        except ValueError as exc:
            raise InvalidDocumentError(f"statistic '{name}' needs an integer k, got '{arg}'") from exc
        if not 1 <= k <= degree:
            raise InvalidDocumentError(f"statistic '{name}' needs 1 <= k <= the degree {degree}, got {k}")
        if name == "topk_sum":
            return lambda lam: np.sum(lam[..., :k], axis=-1)
        return lambda lam: -np.sum(lam[..., -k:], axis=-1)
    raise InvalidDocumentError(f"unknown root statistic '{f_id}'")


@dataclass(frozen=True, slots=True)
class SymmetricConvexReport(Report):
    convex: bool
    values: tuple[float, ...]


def spectral_line_convexity(
    spectrum: Spectrum, degree: int, x0, dx, f_id: str, grid: Sequence[float], tol: float
) -> SymmetricConvexReport:
    """Midpoint convexity over every grid pair of F(a) = f(lambda(x0 + a dx)), and F on the grid in its order.

    Every symmetric convex function f of the roots of a hyperbolic polynomial
    is convex along lines (Bauschke, Guler, Lewis & Sendov 2001); degree is
    the length of the root vectors.  The spectrum map is called once (see ``_line_sweep``).
    """
    _, values, convex = _line_sweep(spectrum, x0, dx, root_statistic(f_id, degree), grid, tol)
    return SymmetricConvexReport(convex=convex, values=tuple(values.tolist()))


def _line_sweep(spectrum: Spectrum, x0, dx, stat, grid: Sequence[float], tol: float):
    """The ``_sweep`` triple, F = stat(lambda(x0 + a dx)) at the grid points in their order (one value or a
    row of columns per point), and whether no pair's midpoint is above 0.5 (F(a) + F(b)) by more than tol.
    The spectrum map is called once, on every grid point and then every pair's midpoint."""
    sweep = grid_values, low, high = _sweep(grid)
    a = np.concatenate([grid_values, 0.5 * (grid_values[low] + grid_values[high])])
    f = stat(spectrum(np.asarray(x0, dtype=float) + a[:, None] * np.asarray(dx, dtype=float)))
    values = f[: grid_values.size]
    convex = not np.any(f[grid_values.size :] > 0.5 * (values[low] + values[high]) + tol)
    return sweep, values, convex


def _sweep(grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid values of a line sweep in their order, then the positions in it of a and b for every
    pair a < b of the sorted values; refuses more than SWEEP_GRID_CAP grid points."""
    grid_values = np.asarray(grid, dtype=float)
    if grid_values.size > SWEEP_GRID_CAP:
        raise BudgetExceededError(f"{grid_values.size} grid points exceed the line sweep cap of {SWEEP_GRID_CAP}")
    order = np.argsort(grid_values, kind="stable")
    low, high = np.triu_indices(grid_values.size, 1)
    return grid_values, order[low], order[high]


def symmetric_convex_line_check(
    q: MonicPolynomial, r: MonicPolynomial, b: float, c: float, f_id: str, grid: Sequence[float], tol: float = 1e-7
) -> SymmetricConvexReport:
    """Convexity of F(a) = f(roots of a q(x+b+ca) + (1-a) r(x+b+ca)).

    That root vector is the pair spectrum at (a, 1 - a, -(b + c a)), so this
    is the line sweep through (0, 1, -b) in direction (1, -1, -c).  Needs a
    hyperbolic pair of equal-degree monic polynomials; non-real roots raise
    NonRealRootError, which is the signal that the pair is not hyperbolic.
    """
    return spectral_line_convexity(pair_spectrum(q, r, tol), q.degree, (0.0, 1.0, -b), (1.0, -1.0, -c), f_id, grid, tol)
