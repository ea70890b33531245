"""Sinkhorn scaling and capacity for hyperbolic tuples.

The scaling map divides each tuple element by its directional trace against
the tuple's sum; iterating it drives the doubly-stochastic defect to zero
exactly when the tuple has positive capacity, which in turn is equivalent to
the generalized Edmonds-Rado rank condition.  Capacity itself is computed by
convex minimization of log p over exponentiated weights, whose gradient is
again made of traces.  Every trace comes from tr_d(x) = <grad p(d), x> / p(d),
so the traces of a whole tuple are the one product points @ grad_log_p(d).
A Sinkhorn step takes its collapse test, its traces and its energy p(d) from
one ``interior_gradient`` call: one factorization of a pencil at d, and on an
evaluation-only form, such as a dense one, the interior certificate of the
restriction coefficients at d, with no roots unless the certificate fails.
The other interior questions, capacity's guard on its positivity
certificate and the first pass of edmonds_rado_check's peel, are one
``interior`` call each.  A scaling report keeps the scaled tuple as k
scales over the input tuple, and its defect and energy histories as float64
arrays.

Both solvers take their verdict from one rule.  Their traces at scales s,
tr_d(s_i x_i) against d = sum s_i x_i, are Sinkhorn's step traces and
capacity's gradient at weights s; with k <= n elements, a spread of at most
1/n around their mean certifies positive capacity.  Until it does, the
prefix sums of the tuple in order of decreasing scale are ranked in one
stacked call at steps 1 (Sinkhorn only), 2, 4, 8, ..., and a violating
prefix certifies zero capacity.  A run that ends with neither runs
edmonds_rado_check once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateDirectionError,
    DimensionMismatchError,
    HyperpolyError,
    InvalidDocumentError,
)
from .mixed import as_tuple, mixed_value, repeated_tuple
from .oracle import DEFAULT_RANK_TOL, HyperbolicOracle, hyperbolic_rank
from .report import Report

# Slack for rounding in the integer certificates of edmonds_rado_check.
_CERTIFICATE_MARGIN = 1e-6

# Relative slack of the concavity checks: lhs >= rhs * (1 - CONCAVITY_REL_SLACK) holds.
CONCAVITY_REL_SLACK = 1e-6

VERDICT_POSITIVE = "positive"
VERDICT_ZERO = "zero"

STATUS_CONVERGED = "converged"
STATUS_ZERO = "zero_capacity"
STATUS_LIMIT = "iteration_limit"


def traces_in_direction(oracle: HyperbolicOracle, points: np.ndarray, d: np.ndarray) -> np.ndarray:
    """tr_d(x_i) for every row x_i; the direction is assumed strictly inside the cone."""
    return as_tuple(points) @ oracle.form.grad_log_p(d)


def _defect(traces: np.ndarray) -> float:
    return float(((traces - 1.0) ** 2).sum())


def doubly_stochastic_defect(oracle: HyperbolicOracle, points) -> float:
    """Sum of (tr_d(x_i) - 1)^2 against d = sum of the tuple; zero iff d-doubly stochastic."""
    pts = as_tuple(points)
    traces, _ = _traces_and_value(oracle, pts, pts.sum(axis=0))
    return _defect(traces)


def sinkhorn_map(oracle: HyperbolicOracle, points) -> np.ndarray:
    """One scaling step: divide each x_i by its trace against the tuple's sum.

    Generalizes row-column matrix scaling; a d-doubly stochastic tuple is a
    fixed point, and p evaluated at the tuple's sum never increases.
    """
    pts = as_tuple(points)
    traces, _ = _traces_and_value(oracle, pts, pts.sum(axis=0))
    return pts / traces[:, None]


@dataclass(frozen=True, slots=True)
class ScalingState(Report):
    """The scaled tuple scales_i x_i, held as its k scales and the input tuple itself (not a copy),
    and its defect; its sum d is recomputed as the iteration computes it."""

    source: np.ndarray
    scales: np.ndarray
    defect: float

    @property
    def d(self) -> np.ndarray:
        return self.scales @ self.source

    @property
    def points(self) -> np.ndarray:
        return self.scales[:, None] * self.source

    @property
    def multiplier(self) -> float:
        return float(np.prod(self.scales))


@dataclass(frozen=True, slots=True)
class ScalingReport(Report):
    converged: bool
    iterations: int
    defect_history: np.ndarray  # float64, one entry per state
    final_state: ScalingState
    capacity_verdict: str
    energy_history: np.ndarray  # float64 p(d), one entry per state
    boundary_collapse: bool = False

    # The wire format carries the final defect instead of the whole final state.
    def to_json(self) -> dict:
        doc = Report.to_json(self)
        doc["defect"] = doc.pop("final_state")["defect"]
        return doc


@dataclass(frozen=True, slots=True)
class EdmondsRadoReport(Report):
    holds: bool
    witness: Optional[tuple[int, ...]]


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


def edmonds_rado_check(oracle: HyperbolicOracle, points) -> EdmondsRadoReport:
    """rank(sum of x_i over S) >= |S| for every nonempty subset S of the tuple.

    S -> rank(sum_S x_i) is a polymatroid rank function, so g(S) = rank - |S|
    is submodular and the condition reads min_S g(S) >= 0.  Fujishige's method
    decides it: Wolfe's algorithm walks toward the minimum-norm point y* of the
    base polytope of g.  Each greedy vertex costs one stacked rank call on the
    k prefix sums of the tuple in the vertex's order.  Every
    point y of that polytope has y(S) <= g(S) and g is integral, so the
    condition holds as soon as the negative entries of y sum above -1.
    Otherwise the witness is {i : y*_i < 0}, the minimal minimizer of g: the
    unique inclusion-minimal subset of largest deficiency |S| - rank(S), as
    increasing 0-based indices.  It does not depend on the order of the tuple.

    Rank is monotone on the cone, rank(sum_S x_i) >= rank(x_i), so no violating
    S holds an element whose rank is at least the number of elements left.
    One stacked ``interior`` call at the rank cutoff gives rank n to every
    element inside the cone, and one stacked rank call the rank of every
    other element (none when all are inside); such elements are peeled
    until none drops, and Wolfe's algorithm runs on the rest only, which holds
    every minimizer of g when the condition fails.  Nothing left is Hall's
    bound r_(j) >= j on the sorted element ranks, and the condition holds.
    """
    all_points = as_tuple(points)
    if all_points.shape[1] != oracle.m:
        raise DimensionMismatchError(f"point has shape {all_points.shape}, oracle expects (..., {oracle.m})")
    n = oracle.n
    # An element inside the cone at the rank cutoff has rank n; only the others are ranked.
    full = oracle.form.interior(all_points, oracle.direction, DEFAULT_RANK_TOL)
    ranks = np.full(all_points.shape[0], n)
    if not full.all():
        ranks[~full] = hyperbolic_rank(oracle, all_points[~full])
    rest = np.arange(all_points.shape[0])
    while rest.size and np.any(ranks[rest] >= rest.size):
        rest = rest[ranks[rest] < rest.size]
    if rest.size == 0:
        return EdmondsRadoReport(holds=True, witness=None)
    pts = all_points[rest]
    k = rest.size

    def greedy_vertex(x: np.ndarray) -> np.ndarray:
        # g(prefix_j) - g(prefix_{j-1}) along x ascending, every prefix ranked in one
        # stacked call; rank is monotone and at most n, so every prefix after the
        # first of rank n has rank n and adds zero rank.
        order = np.argsort(x, kind="stable")
        ranks = hyperbolic_rank(oracle, np.cumsum(pts[order], axis=0))
        full = np.flatnonzero(ranks >= n)
        if full.size:
            ranks[full[0] :] = n
        vertex = np.empty(k)
        vertex[order] = np.diff(ranks, prepend=0) - 1.0
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
            deficiency = witness.size - hyperbolic_rank(oracle, pts[witness].sum(axis=0))
            if deficiency < 1 or negative <= -deficiency - 1.0 + _CERTIFICATE_MARGIN:
                raise ConvergenceError("the rank function is not numerically submodular on this tuple")
            return EdmondsRadoReport(holds=False, witness=tuple(int(i) for i in rest[witness]))
        corral, weights = _wolfe_step(corral, weights, q)
        y = weights @ corral
        if float(y @ y) >= norm:
            raise ConvergenceError("minimum-norm-point iteration stalled on rounding")
    raise ConvergenceError("minimum-norm-point iteration exceeded its cycle bound")


# Directional traces lose about cond(M(d)) * eps of relative accuracy; beyond
# this spectral ratio the defect would be fiction, so the iteration stops.
_COLLAPSE_RATIO = 1e-10


def _soft_traces(
    oracle: HyperbolicOracle, pts: np.ndarray, scales: np.ndarray | float, d: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """Traces of the scaled tuple scales_i x_i against d, tr_d(c x) = c tr_d(x), and p(d), from one
    ``interior_gradient`` call; None once d has collapsed onto the numerical cone boundary."""
    # Array methods, not np.all and the like: the same reductions without numpy's Python dispatch, which
    # is a sizable share of a step on small tuples.
    if not np.isfinite(d).all():
        return None
    try:
        value, grad = oracle.form.interior_gradient(d, oracle.direction, _COLLAPSE_RATIO)
    except (HyperpolyError, np.linalg.LinAlgError):
        return None
    if grad is None:
        return None
    traces = scales * (pts @ grad)
    floor = 1e-14 * max(1.0, float(np.abs(traces).max()))
    if not np.isfinite(traces).all() or (traces <= floor).any():
        return None
    return traces, value


def _traces_and_value(oracle: HyperbolicOracle, pts: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, float]:
    """The traces of the tuple against its sum d, and p(d); a collapse at the start is an error."""
    found = _soft_traces(oracle, pts, 1.0, d)
    if found is None:
        raise DegenerateDirectionError("the tuple's sum is not strictly inside the positivity cone")
    return found


def _certifies_positive(traces: np.ndarray, n: int) -> bool:
    """Whether the traces tr_d(s_i x_i) of k <= n elements against their sum d, inside the cone, certify
    positive capacity: their squared spread around their mean n/k is at most 1/n.  The traces of a
    violating set S sum to at most rank(sum_S x_i) <= |S| - 1, so S spreads at least 1/|S| on its own,
    and S is not the whole tuple, whose sum d has rank n >= k; thus 1/|S| > 1/n."""
    spread = traces - traces.sum() / traces.size
    return traces.size <= n and float(spread @ spread) <= 1.0 / n


def _prefix_violates(oracle: HyperbolicOracle, pts: np.ndarray, scales: np.ndarray) -> bool:
    """Whether a prefix of the tuple in order of decreasing scale has rank below its size, every
    prefix sum ranked in one stacked call at the rank cutoff of edmonds_rado_check.  Such a prefix
    violates the rank condition; the elements of a violating set are the ones whose scales grow."""
    order = np.argsort(-scales, kind="stable")
    ranks = hyperbolic_rank(oracle, np.cumsum(pts[order], axis=0))
    return bool((ranks < np.arange(1, ranks.size + 1)).any())


def sinkhorn_iteration(
    oracle: HyperbolicOracle,
    points,
    max_iters: int = 10000,
    threshold: float = 1e-10,
) -> ScalingReport:
    """Iterate the scaling map, tracking the doubly-stochastic defect.

    Stops converged once the defect reaches min(1/n, threshold), or at
    max_iters steps, or when the sum collapses onto the cone boundary: the
    element scales of a zero-capacity tuple drift apart geometrically, and
    within a few dozen steps the sum is too close to the boundary for the
    traces to carry accurate digits, so the iteration stops with
    boundary_collapse=True rather than fabricating them.

    The verdict is "positive" from the first step whose traces certify it
    (for k = n, a defect at or below 1/n), and the run goes on toward its
    threshold.  Until then every step keeps the traces of a violating set S
    summing to at most rank(sum_S x_i) < |S|, so the scales of S outgrow the
    others.  One stacked rank call on the prefix sums of the tuple in order
    of decreasing scale finds such an S as a prefix of rank below its size.
    The iteration makes that call at steps 1, 2, 4, 8, ..., at most
    floor(log2 max_iters) + 1 calls, and stops at the first violating prefix
    with the verdict "zero", converged=False and boundary_collapse=False; the
    final state and the histories end at that step.  On zero-capacity tuples
    the prefix shows at step 1 or 2.  A run that stops with neither
    certificate runs edmonds_rado_check once, whose verdict it reports.
    """
    pts = as_tuple(points)
    n = oracle.n
    scales = np.ones(pts.shape[0])
    traces, energy = _traces_and_value(oracle, pts, scales @ pts)
    effective = min(1.0 / n, threshold)
    defects: list[float] = []
    energies: list[float] = []
    verdict = None
    collapsed = False
    iterations = 0
    defect = _defect(traces)
    while True:
        defects.append(defect)
        energies.append(energy)
        if verdict is None and _certifies_positive(traces, n):
            verdict = VERDICT_POSITIVE
        if defect <= effective:
            break
        # Steps 1, 2, 4, 8, ...: at most floor(log2 max_iters) + 1 rank calls on a run without a certificate.
        if verdict is None and 0 < iterations and iterations & (iterations - 1) == 0:
            if _prefix_violates(oracle, pts, scales):
                verdict = VERDICT_ZERO
                break
        if iterations >= max_iters:
            break
        next_scales = scales / traces
        step = _soft_traces(oracle, pts, next_scales, next_scales @ pts)
        if step is None:
            collapsed = True
            break
        scales, (traces, energy) = next_scales, step
        defect = _defect(traces)
        iterations += 1
    if verdict is None:
        verdict = VERDICT_POSITIVE if edmonds_rado_check(oracle, pts).holds else VERDICT_ZERO
    state = ScalingState(source=pts, scales=scales, defect=defect)
    return ScalingReport(
        converged=defect <= effective,
        iterations=iterations,
        defect_history=np.asarray(defects),
        final_state=state,
        capacity_verdict=verdict,
        energy_history=np.asarray(energies),
        boundary_collapse=collapsed,
    )


@dataclass(frozen=True, slots=True)
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
    components are the directional traces tr_d(exp(a_i) x_i), which sum to n
    and all equal one exactly at a doubly stochastic scaling of k = n
    elements.  A trial step at which p rounds to a value that is not positive
    and finite is rejected and the step halves; when the infimum is not
    attained (a tight subset) the run ends at its iteration limit with the
    best value found.  The tuple's width is checked once, at entry: a trial
    costs one one-row ``evaluate_batch`` of the form, bound once, with no
    validation of the point, and an iterate one ``traces_in_direction``.

    By the hyperbolic Edmonds-Rado theorem the capacity is zero exactly when
    the rank condition fails, and the run decides that by the module's rule:
    its gradient at weights alpha is the traces of the tuple alpha_i x_i
    against their sum d, so a gradient that certifies positive capacity at a
    d whose smallest root clears the rank cutoff of hyperbolic_rank (one
    ``interior`` call of the form: eigenvalues on a pencil, the restriction
    coefficients' certificate on an evaluation-only form) settles it,
    whatever tol is.  Until then the run ranks the prefix sums of the tuple
    in order of decreasing weight in one stacked call at iterations 2, 4, 8,
    ... (the first iterate has unit weights, which carry no information), and
    a run that ends with neither certificate runs edmonds_rado_check once; so
    does a start at which p is not positive and finite, before it raises
    DegenerateDirectionError.  A violating prefix or a failed check returns
    capacity zero, with unit weights, no gradient norm and no iterations.
    """
    pts = as_tuple(points)
    if pts.shape[1] != oracle.m:
        raise DimensionMismatchError(f"point has shape ({pts.shape[1]},), oracle expects (..., {oracle.m})")
    k, n = pts.shape[0], oracle.n
    zero = CapacityResult(value=0.0, minimizer=np.ones(k), gradient_norm=None, status=STATUS_ZERO)
    evaluate_batch = oracle.form.evaluate_batch

    def objective(a: np.ndarray) -> float:
        # A trial step may overflow p; the value is then rejected, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(evaluate_batch((np.exp(a) @ pts)[None, :])[0])
        return math.log(val) if 0.0 < val < math.inf else math.inf

    a = np.zeros(k)
    g = objective(a)
    if g == math.inf:
        if not edmonds_rado_check(oracle, pts).holds:
            return zero
        raise DegenerateDirectionError("p at the tuple's sum is not positive and finite")
    status = STATUS_LIMIT
    gnorm = math.inf
    iterations = 0
    step = 1.0
    prev_a: Optional[np.ndarray] = None
    prev_pgrad: Optional[np.ndarray] = None
    settled = False  # whether the run has certified positive capacity
    while iterations < max_iters:
        iterations += 1
        alpha = np.exp(a)
        d = alpha @ pts
        grad = alpha * traces_in_direction(oracle, pts, d)
        pgrad = grad - grad.sum() / k
        gnorm = math.sqrt(pgrad @ pgrad)
        # The bound needs rank(d) = n; a sum on the cone boundary can round to p(d) > 0 with traces of noise.
        if not settled and _certifies_positive(grad, n):
            settled = bool(oracle.form.interior(d, oracle.direction, DEFAULT_RANK_TOL))
        # Iterations 2, 4, 8, ...: the prefix schedule of sinkhorn_iteration, less its uninformative first state.
        if not settled and 1 < iterations and iterations & (iterations - 1) == 0:
            if _prefix_violates(oracle, pts, alpha):
                return zero
        if gnorm <= tol:
            status = STATUS_CONVERGED
            break
        # Barzilai-Borwein warm start: a secant estimate of the inverse
        # curvature makes plain gradient descent usable at tight gradient
        # tolerances; backtracking below still guards every step.
        if prev_a is not None:
            ds = a - prev_a
            dy = pgrad - prev_pgrad
            dot = float(ds @ dy)
            if dot > 0.0:
                step = float(ds @ ds) / dot
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
            trial -= trial.sum() / k
            g_trial = objective(trial)
            if g_trial <= g - 1e-4 * step * gnorm * gnorm + noise:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        a, g = trial, g_trial
    if not settled and not edmonds_rado_check(oracle, pts).holds:
        return zero
    return CapacityResult(
        value=math.exp(g), minimizer=np.exp(a), gradient_norm=gnorm, status=status, iterations=iterations
    )


@dataclass(frozen=True, slots=True)
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


def _concavity_report(value, points, comps, weights, rhs: float) -> ConcavityReport:
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
    holds = lhs >= rhs * (1.0 - CONCAVITY_REL_SLACK) - 1e-15
    return ConcavityReport(holds=bool(holds), lhs=lhs, rhs=rhs)


def capacity_concavity_check(oracle: HyperbolicOracle, points, comps, weights) -> ConcavityReport:
    """Cap at the combined composition dominates the weighted geometric mean.

    Checks Cap(X_{r0}) >= prod_i Cap(X_{ri})^{w_i} with r0 the integral convex
    combination of the given compositions; this is concavity of log Cap over
    repetition vectors.
    """
    return _concavity_report(lambda tup: capacity(oracle, tup).value, points, comps, weights, 1.0)


def mixed_concavity_check(oracle: HyperbolicOracle, points, comps, weights) -> ConcavityReport:
    """Sharper multiplicative bound for the mixed values themselves.

    M(X_{r0}) >= n!/n^n * prod_i M(X_{ri})^{w_i}, combining log-concavity of
    the capacity with the two-sided comparison between mixed value and
    capacity.
    """
    n = oracle.n
    return _concavity_report(lambda tup: mixed_value(oracle, tup), points, comps, weights, math.factorial(n) / n**n)
