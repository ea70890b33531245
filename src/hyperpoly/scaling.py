"""Sinkhorn scaling and capacity for hyperbolic tuples.

The scaling map divides each tuple element by its directional trace against
the tuple's sum; iterating it drives the doubly-stochastic defect to zero
exactly when the tuple has positive capacity, which in turn is equivalent to
the generalized Edmonds-Rado rank condition.  Capacity itself is computed by
convex minimization of log p over exponentiated weights, whose gradient is
again made of traces.  Every trace comes from tr_d(x) = <grad p(d), x> / p(d),
so the traces of a whole tuple are the one product points @ grad_log_p(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateDirectionError,
    DimensionMismatchError,
    HyperpolyError,
    InvalidDocumentError,
    ZeroCapacityError,
)
from .mixed import as_tuple, mixed_value, repeated_tuple
from .oracle import HyperbolicOracle, evaluate, evaluate_batch, hyperbolic_rank, roots_in_direction
from .report import Report

# Slack for rounding in the integer certificates of edmonds_rado_check.
_CERTIFICATE_MARGIN = 1e-6

VERDICT_POSITIVE = "positive"
VERDICT_ZERO = "zero"
VERDICT_UNDETERMINED = "undetermined"

STATUS_CONVERGED = "converged"
STATUS_ZERO = "zero_capacity"
STATUS_LIMIT = "iteration_limit"


def traces_in_direction(oracle: HyperbolicOracle, points: np.ndarray, d: np.ndarray) -> np.ndarray:
    """tr_d(x_i) for every row x_i; the direction is assumed strictly inside the cone."""
    return as_tuple(points) @ oracle.form.grad_log_p(d)


def partial_derivative(oracle: HyperbolicOracle, alpha, i: int) -> float:
    """dp/dx_i at alpha: component i of gradient."""
    grad = gradient(oracle, alpha)
    if not 0 <= i < oracle.m:
        raise InvalidDocumentError(f"index {i} out of range for dimension {oracle.m}")
    return float(grad[i])


def gradient(oracle: HyperbolicOracle, alpha) -> np.ndarray:
    """grad p(alpha) = p(alpha) * grad log p(alpha).

    Where p(alpha) = 0 or the form's gradient cannot be formed (a singular
    pencil), each component falls back to a central difference with step
    cbrt(eps)*(1+|alpha_i|).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (oracle.m,):
        raise DimensionMismatchError(f"point has shape {alpha.shape}, oracle expects ({oracle.m},)")
    value = evaluate(oracle, alpha)
    if np.isfinite(value) and value != 0.0:
        try:
            grad = value * oracle.form.grad_log_p(alpha)
            if np.all(np.isfinite(grad)):
                return grad
        except np.linalg.LinAlgError:
            pass
    h = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(alpha))
    steps = np.diag(h)
    return (evaluate_batch(oracle, alpha + steps) - evaluate_batch(oracle, alpha - steps)) / (2.0 * h)


def doubly_stochastic_defect(oracle: HyperbolicOracle, points) -> float:
    """Sum of (tr_d(x_i) - 1)^2 against d = sum of the tuple; zero iff d-doubly stochastic."""
    _, traces = _sum_and_traces(oracle, as_tuple(points))
    return float(np.sum((traces - 1.0) ** 2))


def sinkhorn_map(oracle: HyperbolicOracle, points) -> np.ndarray:
    """One scaling step: divide each x_i by its trace against the tuple's sum.

    Generalizes row-column matrix scaling; a d-doubly stochastic tuple is a
    fixed point, and p evaluated at the tuple's sum never increases.
    """
    pts = as_tuple(points)
    _, traces = _sum_and_traces(oracle, pts)
    return pts / traces[:, None]


@dataclass(frozen=True)
class ScalingState(Report):
    points: np.ndarray
    d: np.ndarray
    traces: np.ndarray
    defect: float
    multiplier: float


@dataclass(frozen=True)
class ScalingReport(Report):
    converged: bool
    iterations: int
    defect_history: tuple[float, ...]
    final_state: ScalingState
    capacity_verdict: str
    energy_history: tuple[float, ...] = ()
    boundary_collapse: bool = False

    # The wire format carries the final defect instead of the whole final state.
    def to_json(self) -> dict:
        doc = super().to_json()
        doc["defect"] = doc.pop("final_state")["defect"]
        return doc


@dataclass(frozen=True)
class EdmondsRadoReport(Report):
    holds: bool
    witness: Optional[tuple[int, ...]]


def lexicographic_subsets(k: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of range(k) in lexicographic order, generated depth first without a list."""

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for i in range(prefix[-1] + 1 if prefix else 0, k):
            yield prefix + (i,)
            yield from extend(prefix + (i,))

    return extend(())


def _wolfe_step(corral: np.ndarray, weights: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One major cycle of Wolfe's algorithm: add the vertex q to the corral, then
    drop vertices until the affine hull's minimum-norm point has positive weights."""
    corral = np.vstack([corral, q])
    weights = np.append(weights, 0.0)
    while True:
        beta = np.linalg.lstsq((corral[1:] - corral[0]).T, -corral[0], rcond=None)[0]
        alpha = np.concatenate([[1.0 - beta.sum()], beta])
        if np.all(alpha > 0.0):
            return corral, alpha
        # Walk from the convex weights toward alpha until the first one reaches zero.
        out = np.flatnonzero(alpha <= 0.0)
        ratios = weights[out] / np.maximum(weights[out] - alpha[out], 1e-300)
        theta = float(ratios.min())
        weights = theta * alpha + (1.0 - theta) * weights
        weights[out[np.argmin(ratios)]] = 0.0
        keep = weights > 0.0
        corral, weights = corral[keep], weights[keep] / weights[keep].sum()


def edmonds_rado_check(oracle: HyperbolicOracle, points, tol: float = 1e-9) -> EdmondsRadoReport:
    """rank(sum of x_i over S) >= |S| for every nonempty subset S of the tuple.

    S -> rank(sum_S x_i) is a polymatroid rank function, so g(S) = rank - |S|
    is submodular and the condition reads min_S g(S) >= 0.  Fujishige's method
    decides it: Wolfe's algorithm walks toward the minimum-norm point y* of the
    base polytope of g, each greedy vertex costing at most k rank calls.  Every
    point y of that polytope has y(S) <= g(S) and g is integral, so the
    condition holds as soon as the negative entries of y sum above -1.
    Otherwise the witness is {i : y*_i < 0}, the minimal minimizer of g: the
    unique inclusion-minimal subset of largest deficiency |S| - rank(S), as
    increasing 0-based indices.  It does not depend on the order of the tuple.
    """
    pts = as_tuple(points)
    k = pts.shape[0]
    if k == 0:
        return EdmondsRadoReport(holds=True, witness=None)
    n = oracle.n

    def greedy_vertex(x: np.ndarray) -> np.ndarray:
        # g(prefix_j) - g(prefix_{j-1}) along x ascending; rank is monotone and at
        # most n, so the prefixes after the first of rank n add zero rank.
        vertex = np.full(k, -1.0)
        prefix = np.zeros(pts.shape[1])
        previous = 0
        for i in np.argsort(x, kind="stable"):
            prefix = prefix + pts[i]
            rank = hyperbolic_rank(oracle, prefix, tol)
            vertex[i] += rank - previous
            previous = rank
            if rank >= n:
                break
        return vertex

    # The nonzero entries of y* have modulus at least 1/k (they are ratios
    # (g(A) - g(B)) / |A \ B|), and ||y - y*||^2 <= ||y||^2 - <y, q> for the
    # greedy vertex q at y; below this gap the signs of y are those of y*.
    gap_floor = 0.25 / k**2
    corral = greedy_vertex(np.zeros(k))[None, :]
    weights = np.ones(1)
    y = corral[0]
    # Chakrabarty, Jain & Kothari bound Wolfe's major cycles by O(k Q^2 / gap)
    # with Q^2 <= n^2 + k the largest squared vertex norm; the guard is a
    # generous multiple of it, and each cycle must also strictly shrink ||y||.
    for _ in range(64 * k**3 * (n * n + k)):
        negative = float(np.minimum(y, 0.0).sum())
        if negative > -1.0 + _CERTIFICATE_MARGIN:
            return EdmondsRadoReport(holds=True, witness=None)
        q = greedy_vertex(y)
        norm = float(y @ y)
        if norm - float(y @ q) < gap_floor:
            witness = np.flatnonzero(y < -0.5 / k)
            deficiency = witness.size - hyperbolic_rank(oracle, pts[witness].sum(axis=0), tol)
            if deficiency < 1 or negative <= -deficiency - 1.0 + _CERTIFICATE_MARGIN:
                raise ConvergenceError("the rank function is not numerically submodular on this tuple")
            return EdmondsRadoReport(holds=False, witness=tuple(int(i) for i in witness))
        corral, weights = _wolfe_step(corral, weights, q)
        y = weights @ corral
        if float(y @ y) >= norm:
            raise ConvergenceError("minimum-norm-point iteration stalled on rounding")
    raise ConvergenceError("minimum-norm-point iteration exceeded its cycle bound")


# Directional traces lose about cond(M(d)) * eps of relative accuracy; beyond
# this spectral ratio the defect would be fiction, so the iteration stops.
_COLLAPSE_RATIO = 1e-10


def _soft_traces(oracle: HyperbolicOracle, pts: np.ndarray, d: np.ndarray) -> Optional[np.ndarray]:
    """Traces against d, or None once d has collapsed onto the numerical cone boundary."""
    if not np.all(np.isfinite(d)):
        return None
    try:
        lam = roots_in_direction(oracle, d, oracle.direction, check_direction=False)
    except (HyperpolyError, np.linalg.LinAlgError):
        return None
    if lam[-1] <= _COLLAPSE_RATIO * max(1e-300, abs(lam[0])):
        return None
    traces = traces_in_direction(oracle, pts, d)
    floor = 1e-14 * max(1.0, float(np.max(np.abs(traces))))
    if not np.all(np.isfinite(traces)) or np.any(traces <= floor):
        return None
    return traces


def _sum_and_traces(oracle: HyperbolicOracle, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tuple's sum d and the traces against it; a collapse at the start is an error."""
    d = pts.sum(axis=0)
    traces = _soft_traces(oracle, pts, d)
    if traces is None:
        raise DegenerateDirectionError("the tuple's sum is not strictly inside the positivity cone")
    return d, traces


def sinkhorn_iteration(
    oracle: HyperbolicOracle,
    points,
    max_iters: int = 10000,
    threshold: float = 1e-10,
    precheck: bool = True,
) -> ScalingReport:
    """Iterate the scaling map, tracking the doubly-stochastic defect.

    Stops converged once the defect reaches min(1/n, threshold); a defect that
    small already certifies positive capacity.  When the rank pre-check fails
    the verdict is zero and the trajectory is still recorded (it can never
    converge), which is what lets callers watch the defect stay above 1/n.
    With the pre-check disabled an exhausted iteration budget yields the
    honest verdict "undetermined": the limit is guaranteed, a rate is not.

    Zero-capacity trajectories are genuinely divergent: each element only ever
    gets rescaled, so the element scales drift apart geometrically and the
    tuple's sum reaches the cone boundary at machine precision within a few
    dozen steps.  The defect is stationary well before that; the iteration
    then stops with boundary_collapse=True rather than fabricating traces.
    """
    pts = as_tuple(points)
    d, traces = _sum_and_traces(oracle, pts)
    verdict = VERDICT_UNDETERMINED
    if precheck and not edmonds_rado_check(oracle, pts).holds:
        verdict = VERDICT_ZERO
    effective = min(1.0 / oracle.n, threshold)
    defects: list[float] = []
    energies: list[float] = []
    multiplier = 1.0
    converged = False
    collapsed = False
    iterations = 0
    current = pts
    defect = float(np.sum((traces - 1.0) ** 2))
    while True:
        defects.append(defect)
        energies.append(evaluate(oracle, d))
        if defect <= effective:
            converged = True
            if verdict != VERDICT_ZERO:
                verdict = VERDICT_POSITIVE
            break
        if iterations >= max_iters:
            break
        next_points = current / traces[:, None]
        next_d = next_points.sum(axis=0)
        next_traces = _soft_traces(oracle, next_points, next_d)
        if next_traces is None:
            collapsed = True
            break
        multiplier /= float(np.prod(traces))
        current, d, traces = next_points, next_d, next_traces
        defect = float(np.sum((traces - 1.0) ** 2))
        iterations += 1
    state = ScalingState(points=current, d=d, traces=traces, defect=defect, multiplier=multiplier)
    return ScalingReport(
        converged=converged,
        iterations=iterations,
        defect_history=tuple(defects),
        final_state=state,
        capacity_verdict=verdict,
        energy_history=tuple(energies),
        boundary_collapse=collapsed,
    )


@dataclass(frozen=True)
class CapacityResult(Report):
    value: float
    minimizer: np.ndarray
    gradient_norm: Optional[float]
    status: str
    iterations: int = 0


def capacity(oracle: HyperbolicOracle, points, tol: float = 1e-8, max_iters: int = 10000) -> CapacityResult:
    """inf of p(sum_i alpha_i x_i) over positive weights with product one.

    Minimizes g(a) = log p(sum exp(a_i) x_i) on the hyperplane sum(a) = 0 by
    projected gradient descent with backtracking (halving, sufficient-decrease
    constant 1e-4).  g is convex because the composed polynomial has
    nonnegative coefficients and log p is concave on the cone; the gradient
    components are the directional traces tr_d(exp(a_i) x_i), which all equal
    one exactly at a doubly stochastic scaling.  Only a failed rank
    certificate returns capacity zero: by the hyperbolic Edmonds-Rado theorem
    the capacity is positive whenever the certificate holds.  A trial step at
    which p rounds to a value that is not positive and finite is rejected and
    the step halves; when the infimum is not attained (a tight subset) the run
    ends at its iteration limit with the best value found.
    """
    pts = as_tuple(points)
    k = pts.shape[0]
    if not edmonds_rado_check(oracle, pts).holds:
        return CapacityResult(value=0.0, minimizer=np.ones(k), gradient_norm=None, status=STATUS_ZERO)

    def objective(a: np.ndarray) -> float:
        val = evaluate(oracle, np.exp(a) @ pts)
        return math.log(val) if 0.0 < val < math.inf else math.inf

    a = np.zeros(k)
    g = objective(a)
    if g == math.inf:
        raise DegenerateDirectionError("p at the tuple's sum is not positive and finite")
    status = STATUS_LIMIT
    gnorm = math.inf
    iterations = 0
    step = 1.0
    prev_a: Optional[np.ndarray] = None
    prev_pgrad: Optional[np.ndarray] = None
    while iterations < max_iters:
        iterations += 1
        alpha = np.exp(a)
        d = alpha @ pts
        grad = alpha * traces_in_direction(oracle, pts, d)
        pgrad = grad - grad.mean()
        gnorm = float(np.linalg.norm(pgrad))
        if gnorm <= tol:
            status = STATUS_CONVERGED
            break
        # Barzilai-Borwein warm start: a secant estimate of the inverse
        # curvature makes plain gradient descent usable at tight gradient
        # tolerances; backtracking below still guards every step.
        if prev_a is not None:
            ds = a - prev_a
            dy = pgrad - prev_pgrad
            dot = float(np.dot(ds, dy))
            if dot > 0.0:
                step = float(np.dot(ds, ds)) / dot
            else:
                step = min(step * 2.0, 1e6)
        step = min(max(step, 1e-18), 1e6)
        prev_a, prev_pgrad = a, pgrad
        # The sufficient-decrease test cannot resolve drops below the rounding
        # noise of g; the allowance keeps the late iterations from thrashing
        # (the gradient is computed in closed form, so it stays trustworthy).
        noise = 1e-15 * max(1.0, abs(g))
        accepted = False
        while step > 1e-20:
            trial = a - step * pgrad
            trial -= trial.mean()
            g_trial = objective(trial)
            if g_trial <= g - 1e-4 * step * gnorm * gnorm + noise:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        a, g = trial, g_trial
    return CapacityResult(
        value=math.exp(g), minimizer=np.exp(a), gradient_norm=gnorm, status=status, iterations=iterations
    )


@dataclass(frozen=True)
class ConcavityReport(Report):
    holds: bool
    lhs: float
    rhs: float


def _combined_composition(comps, weights, k: int) -> np.ndarray:
    comps = [np.asarray(c, dtype=float) for c in comps]
    weights = np.asarray(weights, dtype=float)
    if len(comps) != weights.size or not comps:
        raise InvalidDocumentError("one weight per composition is required")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise InvalidDocumentError("weights must be nonnegative and sum to one")
    for c in comps:
        if c.shape != (k,):
            raise DimensionMismatchError("composition length does not match the tuple")
    combo = sum(w * c for w, c in zip(weights, comps))
    rounded = np.rint(combo)
    if np.max(np.abs(combo - rounded)) > 1e-9:
        raise InvalidDocumentError("weighted combination of compositions is not integral")
    return rounded.astype(np.int64)


def _concavity_report(value, points, comps, weights, rhs: float, rel_slack: float) -> ConcavityReport:
    """value(X_{r0}) >= rhs * prod_i value(X_{ri})^{w_i}, r0 the combined composition.

    A nonpositive value with positive weight makes the product zero.
    """
    pts = as_tuple(points)
    r0 = _combined_composition(comps, weights, pts.shape[0])
    lhs = value(repeated_tuple(pts, r0))
    for w, r in zip(np.asarray(weights, dtype=float), comps):
        val = value(repeated_tuple(pts, np.asarray(r, dtype=np.int64)))
        if val <= 0.0:
            if w > 0.0:
                rhs = 0.0
                break
        else:
            rhs *= val**w
    holds = lhs >= rhs * (1.0 - rel_slack) - 1e-15
    return ConcavityReport(holds=bool(holds), lhs=lhs, rhs=rhs)


def capacity_concavity_check(
    oracle: HyperbolicOracle,
    points,
    comps,
    weights,
    tol: float = 1e-8,
    rel_slack: float = 1e-6,
) -> ConcavityReport:
    """Cap at the combined composition dominates the weighted geometric mean.

    Checks Cap(X_{r0}) >= prod_i Cap(X_{ri})^{w_i} with r0 the integral convex
    combination of the given compositions; this is concavity of log Cap over
    repetition vectors.
    """
    return _concavity_report(
        lambda tup: capacity(oracle, tup, tol=tol).value, points, comps, weights, 1.0, rel_slack
    )


def mixed_concavity_check(
    oracle: HyperbolicOracle,
    points,
    comps,
    weights,
    rel_slack: float = 1e-6,
) -> ConcavityReport:
    """Sharper multiplicative bound for the mixed values themselves.

    M(X_{r0}) >= n!/n^n * prod_i M(X_{ri})^{w_i}, combining log-concavity of
    the capacity with the two-sided comparison between mixed value and
    capacity.
    """
    n = oracle.n
    return _concavity_report(
        lambda tup: mixed_value(oracle, tup), points, comps, weights, math.factorial(n) / n**n, rel_slack
    )


def van_der_waerden_ratio(oracle: HyperbolicOracle, points, tol: float = 1e-8, max_iters: int = 10000) -> float:
    """Mixed value divided by capacity; lies in (0, 1] for strictly positive tuples."""
    pts = as_tuple(points)
    cap = capacity(oracle, pts, tol=tol, max_iters=max_iters)
    if cap.value <= 0.0:
        raise ZeroCapacityError("ratio undefined: the tuple has zero capacity")
    return mixed_value(oracle, pts) / cap.value


@dataclass(frozen=True)
class ReciprocalGradientReport(Report):
    lhs: float
    rhs: float
    holds: bool


def gradient_reciprocal_check(oracle: HyperbolicOracle, alpha, tol: float = 1e-9) -> ReciprocalGradientReport:
    """Q(1/dQ_1, ..., 1/dQ_n) <= Q(alpha)^{-(n-1)} at a positive point.

    This is the one-step energy decrease of the scaling map written through
    partial derivatives; it can fail for homogeneous polynomials with
    nonnegative coefficients that are not hyperbolic, so `holds` is a finding,
    not an input check.  Requires as many variables as the degree.
    """
    alpha = np.asarray(alpha, dtype=float)
    if oracle.m != oracle.n:
        raise InvalidDocumentError("the reciprocal-gradient inequality needs dimension equal to degree")
    if np.any(alpha <= 0.0):
        raise InvalidDocumentError("the evaluation point must be strictly positive")
    partials = gradient(oracle, alpha)
    if np.any(partials <= 0.0):
        raise DegenerateDirectionError("a partial derivative vanishes at the evaluation point")
    lhs = evaluate(oracle, 1.0 / partials)
    rhs = evaluate(oracle, alpha) ** (-(oracle.n - 1))
    holds = lhs <= rhs + tol * max(1.0, abs(rhs))
    return ReciprocalGradientReport(lhs=float(lhs), rhs=float(rhs), holds=bool(holds))


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
    return as_tuple(points).T.copy()


def matrix_as_tuple(matrix) -> np.ndarray:
    """Inverse of tuple_as_matrix: columns become tuple elements."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError("expected a matrix")
    return a.T.copy()


def row_normalized(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    return a / a.sum(axis=1, keepdims=True)
