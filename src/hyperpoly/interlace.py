"""Univariate real-rootedness machinery.

Companion matrices, root extraction, hyperbolic-pair tests (partial-fraction
residues and sampled pencils), majorization utilities, and convexity sweeps
along lines of root-shifted polynomial combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidDocumentError, NonRealRootError
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


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial q(x) = x^n - a_1 x^(n-1) - ... - a_n.

    The stored tuple is (a_1, ..., a_n); note the minus signs in front of
    every stored coefficient.
    """

    a: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) < 1:
            raise InvalidDocumentError("monic polynomial needs degree >= 1")
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))

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
        return cls(tuple(-c[:-1][::-1]))

    @classmethod
    def from_roots(cls, roots) -> "MonicPolynomial":
        return cls.from_standard(np.polynomial.polynomial.polyfromroots(np.asarray(roots, dtype=float)))

    def standard_coefficients(self) -> np.ndarray:
        """Ascending power-basis coefficients c_0..c_n with c_n = 1."""
        n = self.degree
        c = np.empty(n + 1)
        c[n] = 1.0
        c[:n] = -np.asarray(self.a)[::-1]
        return c

    def derivative_coefficients(self) -> np.ndarray:
        return np.polynomial.polynomial.polyder(self.standard_coefficients())

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.standard_coefficients())

    def shift(self, s: float) -> "MonicPolynomial":
        """The monic polynomial x -> q(x + s)."""
        return MonicPolynomial.from_standard(taylor_shift(self.standard_coefficients(), s))

    def to_json(self) -> dict:
        return {"degree": self.degree, "a": list(self.a)}

    @classmethod
    def from_json(cls, doc) -> "MonicPolynomial":
        if not isinstance(doc, dict) or "a" not in doc:
            raise InvalidDocumentError("monic polynomial document needs an 'a' field")
        a = doc["a"]
        if not isinstance(a, (list, tuple)):
            raise InvalidDocumentError("'a' must be a list of coefficients")
        if "degree" in doc and int(doc["degree"]) != len(a):
            raise InvalidDocumentError("declared degree does not match coefficient count")
        return cls(tuple(float(v) for v in a))


def taylor_shift(coeffs, s: float) -> np.ndarray:
    """Ascending coefficients of p(x + s) given ascending coefficients of p."""
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    return p(np.polynomial.Polynomial([float(s), 1.0])).coef


def standard_coefficients(poly, length: Optional[int] = None) -> np.ndarray:
    """Ascending coefficients of a MonicPolynomial or a raw coefficient vector."""
    if isinstance(poly, MonicPolynomial):
        c = poly.standard_coefficients()
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
    n = q.degree
    mat = np.zeros((n, n))
    for i in range(n - 1):
        mat[i, i + 1] = 1.0
    mat[n - 1, :] = np.asarray(q.a)[::-1]
    return mat


def _accept_real(lams: np.ndarray, tol: float) -> np.ndarray:
    """Sorted-descending real parts; raises if any |Im| exceeds tol*(1+|root|)."""
    if lams.size == 0:
        return np.asarray(lams, dtype=float)
    slack = np.abs(lams.imag) - tol * (1.0 + np.abs(lams))
    worst = int(np.argmax(slack))
    if slack[worst] > 0.0:
        raise NonRealRootError(
            f"root {lams[worst]} has imaginary part beyond tolerance {tol}", root=complex(lams[worst])
        )
    return np.sort(lams.real)[::-1]


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton correction per root; skipped where the derivative vanishes."""
    der = np.polynomial.polynomial.polyder(coeffs)
    vals = np.polynomial.polynomial.polyval(roots, coeffs)
    dvals = np.polynomial.polynomial.polyval(roots, der)
    safe = np.abs(dvals) > 0.0
    out = roots.copy()
    out[safe] = roots[safe] - vals[safe] / dvals[safe]
    return out


def real_roots(q: MonicPolynomial, tol: float = 1e-8, polish: bool = False) -> np.ndarray:
    """All n roots of q, sorted descending; raises NonRealRootError otherwise."""
    lam = np.linalg.eigvals(companion(q))
    if polish:
        lam = _newton_polish(q.standard_coefficients(), lam)
    return _accept_real(lam, tol)


def roots_from_coefficients(coeffs, trim: float = LEADING_TRIM, polish: bool = False) -> np.ndarray:
    """Complex roots of an ascending coefficient vector via the companion matrix.

    Leading coefficients smaller than trim * max|c| are dropped first, so a
    pencil direction that kills the top coefficient is handled as the lower
    degree polynomial it actually is.  With polish=True each eigenvalue gets a
    single Newton correction; there is no iterative polishing by default.
    """
    c = np.asarray(coeffs, dtype=float)
    peak = np.max(np.abs(c)) if c.size else 0.0
    if peak == 0.0:
        return np.empty(0, dtype=complex)
    k = c.size
    while k > 1 and abs(c[k - 1]) <= trim * peak:
        k -= 1
    c = c[:k]
    if c.size == 1:
        return np.empty(0, dtype=complex)
    lam = np.linalg.eigvals(companion(MonicPolynomial.from_standard(c)))
    if polish:
        lam = _newton_polish(c, lam)
    return lam


def real_roots_from_coefficients(coeffs, tol: float = 1e-8, polish: bool = False) -> np.ndarray:
    return _accept_real(roots_from_coefficients(coeffs, polish=polish), tol)


@dataclass(frozen=True)
class PairReport(Report):
    """Outcome of a hyperbolic-pair test."""

    verdict: str
    residues: Optional[tuple[float, ...]] = None
    counterexample_direction: Optional[tuple[float, float]] = None
    roots_of_q: Optional[np.ndarray] = None


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
    qprime = q.derivative_coefficients()
    residues = np.polynomial.polynomial.polyval(lam, rc) / np.polynomial.polynomial.polyval(lam, qprime)
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
    The first failing direction is reported.  A full pass is evidence for
    hyperbolicity of the pair, not a proof.
    """
    if num_dirs < 3:
        raise InvalidDocumentError("need at least 3 sampled directions")
    n = q.degree
    qc = standard_coefficients(q)
    rc = standard_coefficients(r, length=n + 1)
    thetas = np.pi * np.arange(num_dirs) / num_dirs
    directions = [(math.cos(t), math.sin(t)) for t in thetas]
    directions.append((1.0, -1.0))
    for x, y in directions:
        coeffs = x * qc + y * rc
        try:
            real_roots_from_coefficients(coeffs, tol)
        except NonRealRootError:
            return PairReport(verdict=NOT_HYPERBOLIC, counterexample_direction=(x, y))
    return PairReport(verdict=HYPERBOLIC)


def pencil_characteristic_polynomial(q: MonicPolynomial, r: MonicPolynomial, x: float, y: float) -> np.ndarray:
    """Ascending characteristic polynomial coefficients of x*C_q + y*C_r.

    For x + y != 0 its roots are (x+y) times the roots of the monic
    normalization of x*q + y*r.
    """
    if q.degree != r.degree:
        raise InvalidDocumentError("pencil needs two monic polynomials of equal degree")
    mat = x * companion(q) + y * companion(r)
    return np.poly(mat)[::-1]


@dataclass(frozen=True)
class MajorizationReport(Report):
    """u majorized by v: descending prefix sums of u dominated by those of v, equal totals."""

    majorized: bool
    prefix_gaps: tuple[float, ...]
    total_gap: float


def majorization_check(u, v, tol: float = 1e-9) -> MajorizationReport:
    """Is u majorized by v?  prefix_gaps[k] is the slack of the k-th prefix inequality."""
    u = np.sort(np.asarray(u, dtype=float))[::-1]
    v = np.sort(np.asarray(v, dtype=float))[::-1]
    if u.shape != v.shape:
        raise InvalidDocumentError("majorization needs vectors of equal length")
    gaps = np.cumsum(v) - np.cumsum(u)
    total = float(gaps[-1])
    ok = bool(np.all(gaps >= -tol) and abs(total) <= tol)
    return MajorizationReport(majorized=ok, prefix_gaps=tuple(float(g) for g in gaps), total_gap=total)


def _descending_spectrum(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(mat)[::-1]


def lidskii_check(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> MajorizationReport:
    """Check that lambda(A+B) - lambda(A) is majorized by lambda(B) for symmetric A, B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise DimensionMismatchError(f"Lidskii needs two square matrices of one size, got {a.shape} and {b.shape}")
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    u = _descending_spectrum(a + b) - _descending_spectrum(a)
    return majorization_check(u, _descending_spectrum(b), tol)


def _pencil_spectrum(q: MonicPolynomial, r: MonicPolynomial, cx: float, cy: float, shift: float, tol: float) -> np.ndarray:
    coeffs = cx * taylor_shift(q.standard_coefficients(), -shift) + cy * taylor_shift(
        r.standard_coefficients(), -shift
    )
    return real_roots_from_coefficients(coeffs, tol)


def shifted_pencil_majorization(
    q: MonicPolynomial,
    r: MonicPolynomial,
    point,
    delta,
    tol: float = 1e-7,
    descending: bool = True,
) -> MajorizationReport:
    """Majorization of root spectra for a shifted pencil perturbation.

    For a hyperbolic pair (q, r), a base triple point = (x, y, z) and a
    perturbation delta = (d1, d2, d3), form

        P_point(t)       = x q(t - z/L) + y r(t - z/L),            L = x + y,
        P_point+delta(t) = (x+d1) q(t - (z+d3)/K) + (y+d2) r(t - (z+d3)/K),
                                                                   K = L + d1 + d2,
        P_delta(t)       = d1 q(t - d3/M) + d2 r(t - d3/M),        M = d1 + d2,

    take their descending root vectors, rescale by L, K, M respectively and
    re-sort.  The rescaled spectra are exactly the root spectra of the three
    triples under the companion-pencil polynomial, so the difference of the
    first two must be majorized by the third.
    """
    if q.degree != r.degree:
        raise InvalidDocumentError("shifted-pencil majorization needs equal-degree monic polynomials")
    if np.shape(point) != (3,) or np.shape(delta) != (3,):
        raise DimensionMismatchError("point and delta must be triples")
    x, y, z = (float(v) for v in point)
    d1, d2, d3 = (float(v) for v in delta)
    lsum = x + y
    msum = d1 + d2
    ksum = lsum + msum
    floor = 1e-12 * max(1.0, abs(x), abs(y), abs(d1), abs(d2))
    if min(abs(lsum), abs(msum), abs(ksum)) < floor:
        raise InvalidDocumentError("degenerate combination: one of x+y, d1+d2, or their sum vanishes")

    def ordered(scale: float, lam: np.ndarray) -> np.ndarray:
        v = np.sort(scale * lam)
        return v[::-1] if descending else v

    ord_point = ordered(lsum, _pencil_spectrum(q, r, x, y, z / lsum, tol))
    ord_total = ordered(ksum, _pencil_spectrum(q, r, x + d1, y + d2, (z + d3) / ksum, tol))
    ord_delta = ordered(msum, _pencil_spectrum(q, r, d1, d2, d3 / msum, tol))
    return majorization_check(ord_total - ord_delta, ord_point, tol)


@dataclass(frozen=True)
class LineConvexityReport(Report):
    convex: bool
    min_at_zero: Optional[bool]
    fn_constant: bool
    values: tuple[float, ...]


def _midpoint_convex(f: Callable[[float], float], grid: Sequence[float], tol: float) -> bool:
    cache: dict[float, float] = {}

    def fv(a: float) -> float:
        if a not in cache:
            cache[a] = f(a)
        return cache[a]

    pts = sorted(float(a) for a in grid)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            mid = 0.5 * (pts[i] + pts[j])
            if fv(mid) > 0.5 * (fv(pts[i]) + fv(pts[j])) + tol:
                return False
    return True


def derivative_line_convexity(
    q: MonicPolynomial,
    b: float,
    c: float,
    k: int,
    grid: Sequence[float],
    tol: float = 1e-7,
) -> LineConvexityReport:
    """Convexity sweep for P_a(x) = q(x + b + c a) - a q'(x + b + c a).

    f_k(a) is the sum of the k largest roots of P_a.  Midpoint convexity is
    checked over every grid pair.  When (b, c) = (0, 1) the minimum over the
    grid is additionally compared against f_k(0); for other shifts that claim
    does not apply and min_at_zero is None.  fn_constant reports whether the
    full root sum stays constant across the grid (true whenever c = 1).
    """
    n = q.degree
    if not 1 <= k <= n:
        raise InvalidDocumentError(f"k must lie in 1..{n}")

    def poly_at(a: float) -> np.ndarray:
        base = taylor_shift(q.standard_coefficients(), b + c * a)
        return base - a * np.pad(np.polynomial.polynomial.polyder(base), (0, 1))

    def topk(a: float) -> float:
        lam = real_roots_from_coefficients(poly_at(a), tol)
        return float(np.sum(lam[:k]))

    values = tuple(topk(float(a)) for a in grid)
    convex = _midpoint_convex(topk, grid, tol)
    min_at_zero: Optional[bool] = None
    if b == 0.0 and c == 1.0:
        min_at_zero = bool(min(values) >= topk(0.0) - tol)
    # Root sum read off the subleading coefficient: exact, no root extraction.
    sums = [-poly_at(float(a))[n - 1] for a in grid]
    fn_constant = bool(np.max(sums) - np.min(sums) <= 1e-9 * max(1.0, float(np.max(np.abs(sums)))))
    return LineConvexityReport(convex=convex, min_at_zero=min_at_zero, fn_constant=fn_constant, values=values)


def root_statistic(f_id: str) -> Callable[[np.ndarray], float]:
    """Symmetric convex root statistics selectable by name.

    Supported: "max", "sum_abs", "topk_sum:k", "neg_bottomk_sum:k".
    """
    if f_id == "max":
        return lambda lam: float(lam[0])
    if f_id == "sum_abs":
        return lambda lam: float(np.sum(np.abs(lam)))
    name, _, arg = f_id.partition(":")
    if name in ("topk_sum", "neg_bottomk_sum"):
        if not arg:
            raise InvalidDocumentError(f"statistic '{name}' needs a ':k' suffix")
        try:
            k = int(arg)
        except ValueError as exc:
            raise InvalidDocumentError(f"statistic '{name}' needs an integer k, got '{arg}'") from exc
        if k < 1:
            raise InvalidDocumentError(f"statistic '{name}' needs k >= 1, got {k}")
        if name == "topk_sum":
            return lambda lam: float(np.sum(lam[:k]))
        return lambda lam: -float(np.sum(lam[lam.size - k :]))
    raise InvalidDocumentError(f"unknown root statistic '{f_id}'")


@dataclass(frozen=True)
class SymmetricConvexReport(Report):
    convex: bool
    values: tuple[float, ...]


def symmetric_convex_line_check(
    q: MonicPolynomial,
    r: MonicPolynomial,
    b: float,
    c: float,
    f_id: str,
    grid: Sequence[float],
    tol: float = 1e-7,
) -> SymmetricConvexReport:
    """Convexity of F(a) = f(roots of a q(x+b+ca) + (1-a) r(x+b+ca)).

    Needs a hyperbolic pair of equal-degree monic polynomials; a degree drop
    at some a would make the root vector change length and the sweep
    meaningless.  Non-real roots raise NonRealRootError, which is the signal
    that the pair is not hyperbolic.
    """
    if q.degree != r.degree:
        raise InvalidDocumentError("line check needs equal-degree monic polynomials")
    stat = root_statistic(f_id)
    k = f_id.partition(":")[2]
    if k and int(k) > q.degree:
        raise InvalidDocumentError(f"statistic '{f_id}' needs k <= the degree {q.degree}")
    qc = q.standard_coefficients()
    rc = r.standard_coefficients()

    def value(a: float) -> float:
        s = b + c * a
        coeffs = a * taylor_shift(qc, s) + (1.0 - a) * taylor_shift(rc, s)
        return stat(real_roots_from_coefficients(coeffs, tol))

    values = tuple(value(float(a)) for a in grid)
    convex = _midpoint_convex(value, grid, tol)
    return SymmetricConvexReport(convex=convex, values=values)
