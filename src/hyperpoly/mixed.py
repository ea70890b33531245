"""Mixed forms of hyperbolic polynomials.

Polarization, mixed discriminants, supports and Newton-polytope membership,
Alexandrov-Fenchel residuals, k-hyperbolicity polynomials, and log-concavity
profiles.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    HyperpolyError,
    InvalidDocumentError,
    NonRealRootError,
)
from .interlace import real_roots_from_coefficients
from .oracle import (
    OUTSIDE,
    POSITIVE,
    DeterminantalPolynomial,
    HyperbolicOracle,
    chebyshev_nodes,
    cone_membership,
    dense_oracle,
    evaluate_batch,
    polynomial_from_samples,
)
from .report import Report


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP: the import costs more than most commands."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# Polarization sums 2^n evaluations; anything past this is not desk scale.
POLARIZATION_CAP = 20
_CHUNK = 1 << 14

# Composition enumeration cap: C(2n-1, n-1) stays below ~6500 for n <= 8.
SUPPORT_CAP = 8


def as_tuple(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError("a point tuple must be a 2-d array (points, coordinates)")
    return pts


def _polarization(oracle: HyperbolicOracle, points: np.ndarray) -> tuple[float, float]:
    """Polarized multilinear value and the largest |p| seen across sign combinations.

    2^{-n} * sum over sign vectors b of p(sum_i b_i x_i) * prod(b).  The sum is
    accumulated in a fixed chunk order so results are bitwise reproducible;
    the peak magnitude calibrates the cancellation noise floor (~eps * peak).
    """
    n = points.shape[0]
    if n > POLARIZATION_CAP:
        raise BudgetExceededError(f"polarization over {n} slots exceeds the 2^{POLARIZATION_CAP} cap")
    total = 0.0
    peak = 0.0
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        signs = 1.0 - 2.0 * bits
        vals = evaluate_batch(oracle, signs @ points)
        parity = 1.0 - 2.0 * (bits.sum(axis=1) & 1)
        total += float(np.dot(vals, parity))
        peak = max(peak, float(np.max(np.abs(vals))))
    scale = 0.5**n
    return total * scale, peak


def mixed_value(oracle: HyperbolicOracle, points) -> float:
    """Fully polarized multilinear form of p applied to an n-point tuple.

    Symmetric under permutations of the tuple and multilinear in every slot;
    at (x, ..., x) it equals n! p(x).
    """
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n:
        raise DimensionMismatchError(f"tuple has {pts.shape[0]} points, oracle degree is {oracle.n}")
    if pts.shape[1] != oracle.m:
        raise DimensionMismatchError(f"points have dimension {pts.shape[1]}, oracle expects {oracle.m}")
    return _polarization(oracle, pts)[0]


def mixed_discriminant(matrices) -> float:
    """D(A_1, ..., A_n): the n-fold mixed partial of det(sum_i x_i A_i) at the tuple.

    Computed by the same polarization sum applied directly to the determinant;
    no normalization of the tuple is needed since the form is multilinear.
    """
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or mats.shape[0] != mats.shape[1] or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatchError("mixed discriminant needs n symmetric matrices of size n x n")
    n = mats.shape[0]
    # The pencil is left unnormalized (M(e) = I need not hold): only its
    # determinant is evaluated, at sign vectors, which the identity rows map
    # to themselves exactly.
    oracle = HyperbolicOracle(form=DeterminantalPolynomial(pencil=mats), n=n, m=n, direction=np.ones(n))
    return _polarization(oracle, np.eye(n))[0]


def repeated_tuple(points, multiplicities) -> np.ndarray:
    """The tuple holding multiplicities[i] copies of points[i], in order."""
    pts = as_tuple(points)
    reps = np.asarray(multiplicities, dtype=np.int64)
    if reps.ndim != 1 or reps.shape[0] != pts.shape[0]:
        raise DimensionMismatchError("one multiplicity per point is required")
    if np.any(reps < 0):
        raise InvalidDocumentError("multiplicities must be nonnegative")
    return np.repeat(pts, reps, axis=0)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class SupportSet(Report):
    """Compositions with strictly positive mixed value, plus the values themselves."""

    members: tuple[tuple[int, ...], ...]
    values: dict
    threshold: float

    # The wire format pairs each member with its value; JSON keys cannot be tuples.
    def to_json(self) -> dict:
        return {"support": [{"r": list(r), "value": self.values[r]} for r in self.members]}


def _all_mixed_values(oracle: HyperbolicOracle, points: np.ndarray) -> tuple[dict, float]:
    n = oracle.n
    k = points.shape[0]
    count = math.comb(n + k - 1, k - 1)
    if k > SUPPORT_CAP or count > 7000:
        raise BudgetExceededError(f"{count} compositions exceed the enumeration budget")
    values: dict[tuple[int, ...], float] = {}
    peak = 0.0
    for r in compositions(n, k):
        val, scale = _polarization(oracle, repeated_tuple(points, r))
        values[r] = val
        peak = max(peak, scale)
    return values, peak


def support(oracle: HyperbolicOracle, points, tol: Optional[float] = None) -> SupportSet:
    """All compositions r with mixed value of the repeated tuple above the noise floor.

    With tol=None the cutoff is 1e-9 * n! * max(1, peak evaluation magnitude):
    polarization loses about 2^n * eps of relative accuracy to cancellation,
    so values below that cannot be distinguished from zero.
    """
    return _support_and_values(oracle, points, tol)[0]


def _support_and_values(oracle: HyperbolicOracle, points, tol: Optional[float]) -> tuple[SupportSet, dict]:
    """The support above the noise floor, and the mixed value of every composition."""
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n:
        raise DimensionMismatchError("support enumeration expects an n-point tuple")
    values, peak = _all_mixed_values(oracle, pts)
    threshold = tol if tol is not None else 1e-9 * math.factorial(oracle.n) * max(1.0, peak)
    members = tuple(r for r in sorted(values) if values[r] > threshold)
    return SupportSet(members=members, values={r: values[r] for r in members}, threshold=threshold), values


def polytope_membership(r, support_set) -> bool:
    """Is r in the convex hull of the support?  Decided by linear feasibility.

    Solves for convex weights on the support members reproducing r; the sizes
    here are tiny, so the LP answer is effectively exact.
    """
    members = support_set.members if isinstance(support_set, SupportSet) else tuple(support_set)
    if not members:
        raise InvalidDocumentError("empty support has no polytope")
    target = np.asarray(r, dtype=float)
    mat = np.asarray(members, dtype=float)
    if target.shape != (mat.shape[1],):
        raise DimensionMismatchError("composition length does not match the support")
    a_eq = np.vstack([mat.T, np.ones((1, mat.shape[0]))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(np.zeros(mat.shape[0]), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise HyperpolyError(f"membership LP terminated abnormally: {res.message}")


@dataclass(frozen=True)
class SaturationReport(Report):
    saturated: bool
    violations: tuple[tuple[int, ...], ...]
    support: SupportSet

    # The wire format puts the support's member list next to the verdict instead of nesting it.
    def to_json(self) -> dict:
        doc = super().to_json()
        doc.update(doc.pop("support"))
        return doc


def newton_saturation_check(oracle: HyperbolicOracle, points, tol: Optional[float] = None) -> SaturationReport:
    """Are all integer points of the Newton polytope already in the support?

    Every composition inside the convex hull of the support whose own mixed
    value sits at zero is reported as a violation; an empty list means the
    saturation property holds for this instance.
    """
    sup, values = _support_and_values(oracle, points, tol)
    violations = []
    if sup.members:
        for r in sorted(values):
            if r in sup.values:
                continue
            if polytope_membership(r, sup):
                violations.append(r)
    return SaturationReport(saturated=not violations, violations=tuple(violations), support=sup)


def alexandrov_fenchel_terms(oracle: HyperbolicOracle, points) -> tuple[float, float, float]:
    """The three mixed values (M(x1,x2,Y), M(x1,x1,Y), M(x2,x2,Y)) sharing the tail Y."""
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n or oracle.n < 2:
        raise DimensionMismatchError("need an n-point tuple with n >= 2")
    tail = pts[2:]
    m_ab = mixed_value(oracle, pts)
    m_aa = mixed_value(oracle, np.vstack([pts[0], pts[0], tail]))
    m_bb = mixed_value(oracle, np.vstack([pts[1], pts[1], tail]))
    return m_ab, m_aa, m_bb


def alexandrov_fenchel_residual(oracle: HyperbolicOracle, points) -> float:
    """M(x1,x2,Y)^2 - M(x1,x1,Y) M(x2,x2,Y); nonnegative on e-nonnegative tuples.

    Tuples with a point outside the closed cone are still evaluated, with a
    warning, since the residual is then allowed to go negative.
    """
    pts = as_tuple(points)
    for row in pts:
        if cone_membership(oracle, row) == OUTSIDE:
            warnings.warn("tuple is not e-nonnegative; the residual may legitimately be negative", stacklevel=2)
            break
    return alexandrov_fenchel_verdict(oracle, pts)["residual"]


def alexandrov_fenchel_verdict(oracle: HyperbolicOracle, points) -> dict:
    """The residual, its scale max(1, M(x1,x2,Y)^2, |M(x1,x1,Y) M(x2,x2,Y)|), and
    whether the residual clears -1e-9 * scale."""
    m_ab, m_aa, m_bb = alexandrov_fenchel_terms(oracle, points)
    residual = m_ab * m_ab - m_aa * m_bb
    scale = max(1.0, m_ab * m_ab, abs(m_aa * m_bb))
    return {"residual": residual, "scale": scale, "holds": bool(residual >= -1e-9 * scale)}


def k_hyperbolicity_polynomial(oracle: HyperbolicOracle, x, tail, k: int) -> np.ndarray:
    """Ascending coefficients of t -> M(x + t e, ..., x + t e, tail) with k moving slots.

    Recovered by evaluating the mixed value at k+1 Chebyshev nodes and
    interpolating.  Real-rootedness of this polynomial for every real x is the
    k-hyperbolicity property; at k = 2 a nonnegative discriminant is exactly
    the Alexandrov-Fenchel inequality.
    """
    x = np.asarray(x, dtype=float)
    tail = np.asarray(tail, dtype=float).reshape(-1, oracle.m)
    if not 1 <= k <= oracle.n:
        raise InvalidDocumentError(f"k must lie in 1..{oracle.n}")
    if tail.shape[0] != oracle.n - k:
        raise DimensionMismatchError(f"tail must hold {oracle.n - k} points")
    for row in tail:
        if cone_membership(oracle, row) != POSITIVE:
            raise InvalidDocumentError("tail points must be strictly inside the cone")
    radius = 1.0 + float(np.linalg.norm(x))
    nodes = chebyshev_nodes(k + 1)
    values = np.empty(k + 1)
    for i, s in enumerate(nodes):
        moving = x[None, :] + (radius * s) * oracle.direction[None, :]
        values[i] = mixed_value(oracle, np.vstack([np.repeat(moving, k, axis=0), tail]))
    return polynomial_from_samples(nodes, values, k, radius)


def k_hyperbolic_check(oracle: HyperbolicOracle, x, tail, k: int, tol: float = 1e-7) -> bool:
    """True when the k-slot polynomial at this x is real-rooted within tolerance."""
    coeffs = k_hyperbolicity_polynomial(oracle, x, tail, k)
    try:
        real_roots_from_coefficients(coeffs, tol)
    except NonRealRootError:
        return False
    return True


def log_concavity_profile(oracle: HyperbolicOracle, x, y) -> np.ndarray:
    """M(i) = mixed value with i copies of x and n-i copies of y, i = 0..n.

    For x, y strictly inside the cone the profile is positive and log-concave:
    M(i)^2 >= M(i-1) M(i+1), which is the discrete statement behind concavity
    of log p on the cone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if cone_membership(oracle, x) != POSITIVE or cone_membership(oracle, y) != POSITIVE:
        raise InvalidDocumentError("both points must be strictly inside the cone")
    n = oracle.n
    pair = np.vstack([x, y])
    out = np.empty(n + 1)
    for i in range(n + 1):
        out[i] = mixed_value(oracle, repeated_tuple(pair, (i, n - i)))
    return out


def dense_from_oracle(oracle: HyperbolicOracle) -> HyperbolicOracle:
    """Expand any oracle into dense form via polarization at basis tuples.

    The coefficient of x^r is the mixed value of the basis tuple repeated with
    multiplicities r, divided by prod(r_i!).
    """
    m, n = oracle.m, oracle.n
    count = math.comb(n + m - 1, m - 1)
    if count * (1 << n) > 4_000_000:
        raise BudgetExceededError("dense expansion budget exceeded")
    basis = np.eye(m)
    terms = {}
    peak = 0.0
    for r in compositions(n, m):
        val, scale = _polarization(oracle, repeated_tuple(basis, r))
        coef = val / np.prod([math.factorial(v) for v in r])
        terms[r] = coef
        peak = max(peak, abs(coef))
    cutoff = 1e-13 * max(1.0, peak)
    kept = {r: c for r, c in terms.items() if abs(c) > cutoff}
    return dense_oracle(m, n, kept, oracle.direction)


def brute_force_permanent(matrix) -> float:
    """Permanent by summation over all n! permutations; reference oracle only."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("permanent needs a square matrix")
    n = a.shape[0]
    if n > 9:
        raise BudgetExceededError("brute-force permanent capped at n = 9")
    rows = np.arange(n)
    return float(sum(np.prod(a[rows, perm]) for perm in itertools.permutations(range(n))))
