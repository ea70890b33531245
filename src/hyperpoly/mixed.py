"""Mixed forms of hyperbolic polynomials.

Polarization, mixed discriminants, supports and Newton-polytope membership,
Alexandrov-Fenchel residuals, k-hyperbolicity polynomials, and log-concavity
profiles.  Supports and dense expansions share one composition enumeration
under one row budget, ENUMERATION_ROW_BUDGET.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    HyperpolyError,
    InvalidDocumentError,
    NonRealRootError,
)
from .interlace import real_roots_of_rows
from .oracle import (
    OUTSIDE,
    POSITIVE,
    DeterminantalPolynomial,
    HyperbolicOracle,
    chebyshev_restriction,
    cone_membership,
    dense_oracle,
    evaluate_batch,
)
from .report import Report


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP: the import costs more than most commands."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# Polarization sums 2^(n-1) evaluations; anything past this is not desk scale.
POLARIZATION_CAP = 20
_CHUNK = 1 << 14

# Enumerating the C(n+k-1, k-1) compositions of n into k parts polarizes
# 2^(n-1) rows for each; support (k = n) and the dense expansion (k = m) stop
# before any evaluation past this many rows.
ENUMERATION_ROW_BUDGET = 2_000_000


def as_tuple(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError("a point tuple must be a 2-d array (points, coordinates)")
    return pts


def _polarization(oracle: HyperbolicOracle, points: np.ndarray) -> tuple[float, float]:
    """Polarized multilinear value and the largest |p| seen across sign combinations.

    2^{-n} * sum over sign vectors b of p(sum_i b_i x_i) * prod(b).  The term
    of b equals the term of its complement, since p(-y) = (-1)^n p(y) and the
    parity sign also flips by (-1)^n; so only the 2^(n-1) vectors with
    b_(n-1) = +1 are evaluated and the sum is doubled, and the peak over them
    is the peak over all.  The form is the one ``tuple_form`` returns for the
    tuple, which contracts a determinantal pencil once per tuple.  The sum is
    accumulated in a fixed chunk order so results are bitwise reproducible;
    the peak magnitude calibrates the cancellation noise floor (~eps * peak).
    """
    n = points.shape[0]
    if n > POLARIZATION_CAP:
        raise BudgetExceededError(f"polarization over {n} slots exceeds the 2^{POLARIZATION_CAP} cap")
    form, coords = oracle.form.tuple_form(points)
    # Only evaluated, so the direction is a placeholder.
    tuple_oracle = HyperbolicOracle(form=form, n=n, m=coords.shape[1], direction=np.ones(coords.shape[1]))
    total = 0.0
    peak = 0.0
    shifts = np.arange(n, dtype=np.int64)
    half = 1 << (n - 1)
    for start in range(0, half, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, half), dtype=np.int64)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        signs = 1.0 - 2.0 * bits
        vals = evaluate_batch(tuple_oracle, signs @ coords)
        parity = 1.0 - 2.0 * (bits.sum(axis=1) & 1)
        total += float(np.dot(vals, parity))
        peak = max(peak, float(np.max(np.abs(vals))))
    return total * 0.5 ** (n - 1), peak


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


@dataclass(frozen=True, slots=True)
class SupportSet(Report):
    """Compositions with strictly positive mixed value, plus the values themselves."""

    members: tuple[tuple[int, ...], ...]
    values: dict
    threshold: float

    # The wire format pairs each member with its value; JSON keys cannot be tuples.
    def to_json(self) -> dict:
        return {"support": [{"r": list(r), "value": self.values[r]} for r in self.members]}


def _all_mixed_values(oracle: HyperbolicOracle, points: np.ndarray) -> tuple[dict, float]:
    """The mixed value of the k points repeated r times, for every composition r of n into k
    parts, and the largest |p| seen; within ENUMERATION_ROW_BUDGET polarized rows."""
    n = oracle.n
    k = points.shape[0]
    count = math.comb(n + k - 1, k - 1)
    if count * 2 ** (n - 1) > ENUMERATION_ROW_BUDGET:
        raise BudgetExceededError(f"{count} compositions of 2^{n - 1} polarized rows exceed the enumeration budget")
    values: dict[tuple[int, ...], float] = {}
    peak = 0.0
    for r in compositions(n, k):
        val, scale = _polarization(oracle, repeated_tuple(points, r))
        values[r] = val
        peak = max(peak, scale)
    return values, peak


def support(oracle: HyperbolicOracle, points) -> SupportSet:
    """All compositions r with mixed value of the repeated tuple above the noise floor.

    The cutoff is 1e-9 * n! * max(1, peak evaluation magnitude): polarization
    loses about 2^n * eps of relative accuracy to cancellation, so values
    below that cannot be distinguished from zero.
    """
    return _support_and_values(oracle, points)[0]


def _support_and_values(oracle: HyperbolicOracle, points) -> tuple[SupportSet, dict]:
    """The support above the noise floor, and the mixed value of every composition."""
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n:
        raise DimensionMismatchError("support enumeration expects an n-point tuple")
    values, peak = _all_mixed_values(oracle, pts)
    threshold = 1e-9 * math.factorial(oracle.n) * max(1.0, peak)
    members = tuple(r for r in sorted(values) if values[r] > threshold)
    return SupportSet(members=members, values={r: values[r] for r in members}, threshold=threshold), values


def polytope_membership(r, support_set: SupportSet) -> bool:
    """Is r in the convex hull of the support's members?  Decided by linear feasibility.

    Solves for convex weights on the support members reproducing r; the sizes
    here are tiny, so the LP answer is effectively exact.
    """
    members = support_set.members
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


@dataclass(frozen=True, slots=True)
class SaturationReport(Report):
    saturated: bool
    violations: tuple[tuple[int, ...], ...]
    support: SupportSet

    # The wire format puts the support's member list next to the verdict instead of nesting it.
    def to_json(self) -> dict:
        doc = Report.to_json(self)
        doc.update(doc.pop("support"))
        return doc


def _unseparated(zeros: list, members) -> list:
    """The compositions in ``zeros`` that no subset inequality puts outside the hull of ``members``.

    For every coordinate subset S, r(S) <= f(S) = max over members x of x(S)
    holds on the convex hull, so a composition breaking one lies outside it.
    When the support is M-convex, as for stable polynomials (Branden 2007),
    the hull is the base polyhedron of f and every zero composition is
    separated.
    """
    if not zeros:
        return []
    k = len(members[0])
    subsets = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k, dtype=np.int64)) & 1
    bound = (np.asarray(members, dtype=np.int64) @ subsets.T).max(axis=0)
    inside = np.all(np.asarray(zeros, dtype=np.int64) @ subsets.T <= bound, axis=1)
    return [r for r, keep in zip(zeros, inside) if keep]


def newton_saturation_check(oracle: HyperbolicOracle, points) -> SaturationReport:
    """Are all integer points of the Newton polytope already in the support?

    Every composition inside the convex hull of the support whose own mixed
    value sits at zero is reported as a violation; an empty list means the
    saturation property holds for this instance.  Subset inequalities rule
    compositions out first; only those left go to the membership LP.
    """
    sup, values = _support_and_values(oracle, points)
    violations = []
    if sup.members:
        zeros = [r for r in sorted(values) if r not in sup.values]
        violations = [r for r in _unseparated(zeros, sup.members) if polytope_membership(r, sup)]
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

    Recovered by ``chebyshev_restriction``, the sampler every restriction
    uses, from the mixed value at k+1 Chebyshev nodes.  Real-rootedness of
    this polynomial for every real x is the k-hyperbolicity property; at
    k = 2 a nonnegative discriminant is exactly the Alexandrov-Fenchel
    inequality.
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

    def moving_slots(rows: np.ndarray) -> np.ndarray:
        return np.array([mixed_value(oracle, np.vstack([np.repeat(row[None, :], k, axis=0), tail])) for row in rows])

    return chebyshev_restriction(moving_slots, k, x, oracle.direction)


def k_hyperbolic_check(oracle: HyperbolicOracle, x, tail, k: int) -> bool:
    """True when the k-slot polynomial at this x is real-rooted, to a relative imaginary part of 1e-7.

    Its leading coefficient M(e, ..., e, tail) is positive, so it is never trimmed: the answer does not
    depend on the scale of x.
    """
    coeffs = k_hyperbolicity_polynomial(oracle, x, tail, k)
    try:
        real_roots_of_rows(coeffs, 1e-7)
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
    multiplicities r, divided by prod(r_i!); the enumeration is the support's,
    under the same ENUMERATION_ROW_BUDGET.
    """
    values, _ = _all_mixed_values(oracle, np.eye(oracle.m))
    terms = {r: val / np.prod([math.factorial(v) for v in r]) for r, val in values.items()}
    cutoff = 1e-13 * max(1.0, *(abs(c) for c in terms.values()))
    kept = {r: c for r, c in terms.items() if abs(c) > cutoff}
    return dense_oracle(oracle.m, oracle.n, kept, oracle.direction)


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
