"""Reference routes the tests compare the library against.

Classical matrix Sinkhorn scaling and its column-tuple convention, a
hyperbolic Sinkhorn loop that takes each step from three separate calls,
capacity with the full rank check ahead of the minimization and capacity
with its per-call validation inside the loop, the interior
test and the fused Sinkhorn step taken from roots instead of restriction
coefficients, the gradient of p with its partial derivatives and the
reciprocal-gradient inequality built on them, a dense form's gradient
differentiated one coordinate at a time, the symmetric basis and matrix
coordinates built element by element, exhaustive subset and composition
enumerators, the van der Waerden ratio through polarization, one Newton
correction of computed roots, Taylor shifts with the derivative-line
polynomial built from them, and the pair generators that filtered their
candidates through the residue test and the sampled pencil grid.
None of them is a library route: each is the second, independent way to a
quantity that the library computes another way, or the brute-force
enumeration behind a check.

Two more kinds live here because only tests use them.  ``oracle_to_json``
is the writer of the oracle documents that ``hyperpoly.oracle_from_json``
reads: the tests and CI write their oracles through it, from each form's
public fields.  ``k_hyperbolicity_polynomial`` and ``k_hyperbolic_check``
are checks of the paper's k-hyperbolicity property, which the tests compare
with the Alexandrov-Fenchel inequality and a known non-hyperbolic form.
Neither is a second route to a library quantity.
"""

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly import scaling
from hyperpoly.errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    GenerationError,
    HyperpolyError,
    InvalidDocumentError,
    NonRealRootError,
)
from hyperpoly.interlace import HYPERBOLIC, NOT_HYPERBOLIC, MonicPolynomial, _derivative, real_roots_of_rows
from hyperpoly.oracle import (
    DEFAULT_RANK_TOL,
    DEFAULT_ROOT_TOL,
    PencilForm,
    SymmetricBasisPolynomial,
    chebyshev_restriction,
    classify_spectrum,
)
from hyperpoly.report import Report


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


def three_call_sinkhorn(oracle, pts: np.ndarray, max_iters: int):
    """Reference loop for sinkhorn_iteration at its default threshold: each step takes its collapse
    test from roots_in_direction, its traces from traces_in_direction and its energy from evaluate.
    It runs until the defect converges, the sum collapses onto the cone boundary or max_iters steps
    are spent, and a run that does not converge takes its verdict from edmonds_rado_check alone.
    Returns (verdict, converged, boundary_collapse, iterations), then the energy, defect and scale
    histories, one entry per state."""

    def soft_traces(scales, d):
        if not np.all(np.isfinite(d)):
            return None
        try:
            lam = hp.roots_in_direction(oracle, d, oracle.direction)
        except (HyperpolyError, np.linalg.LinAlgError):
            return None
        if classify_spectrum(lam, scaling._COLLAPSE_RATIO) != "positive":
            return None
        traces = scales * hp.traces_in_direction(oracle, pts, d)
        floor = 1e-14 * max(1.0, float(np.max(np.abs(traces))))
        if not np.all(np.isfinite(traces)) or np.any(traces <= floor):
            return None
        return traces

    scales = np.ones(len(pts))
    traces = soft_traces(scales, scales @ pts)
    assert traces is not None
    effective = min(1.0 / oracle.n, 1e-10)
    converged = collapsed = False
    iterations = 0
    energies, defects, scale_history = [], [], []
    while True:
        energies.append(hp.evaluate(oracle, scales @ pts))
        defects.append(float(np.sum((traces - 1.0) ** 2)))
        scale_history.append(scales)
        if defects[-1] <= effective:
            converged = True
            break
        if iterations >= max_iters:
            break
        next_scales = scales / traces
        next_traces = soft_traces(next_scales, next_scales @ pts)
        if next_traces is None:
            collapsed = True
            break
        scales, traces = next_scales, next_traces
        iterations += 1
    verdict = "positive" if converged or hp.edmonds_rado_check(oracle, pts).holds else "zero"
    outcome = (verdict, converged, collapsed, iterations)
    return outcome, np.asarray(energies), np.asarray(defects), np.asarray(scale_history)


def capacity_rank_check_first(oracle, points, tol: float = 1e-8, max_iters: int = 10000):
    """capacity as it ran before it decided zero capacity from its own trajectory: edmonds_rado_check
    first, then, only if the rank condition holds, the same projected gradient descent with
    Barzilai-Borwein steps and halving backtracking."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    if not hp.edmonds_rado_check(oracle, pts).holds:
        return scaling.CapacityResult(value=0.0, minimizer=np.ones(k), gradient_norm=None, status="zero_capacity")

    def objective(a):
        with np.errstate(over="ignore", invalid="ignore"):
            val = hp.evaluate(oracle, np.exp(a) @ pts)
        return math.log(val) if 0.0 < val < math.inf else math.inf

    a = np.zeros(k)
    g = objective(a)
    if g == math.inf:
        raise DegenerateDirectionError("p at the tuple's sum is not positive and finite")
    status, gnorm, iterations, step = "iteration_limit", math.inf, 0, 1.0
    prev_a = prev_pgrad = None
    while iterations < max_iters:
        iterations += 1
        alpha = np.exp(a)
        grad = alpha * hp.traces_in_direction(oracle, pts, alpha @ pts)
        pgrad = grad - grad.mean()
        gnorm = float(np.linalg.norm(pgrad))
        if gnorm <= tol:
            status = "converged"
            break
        if prev_a is not None:
            ds, dy = a - prev_a, pgrad - prev_pgrad
            dot = float(np.dot(ds, dy))
            step = float(np.dot(ds, ds)) / dot if dot > 0.0 else min(step * 2.0, 1e6)
        step = min(max(step, 1e-18), 1e6)
        prev_a, prev_pgrad = a, pgrad
        noise = 1e-15 * max(1.0, abs(g))
        while step > 1e-20:
            trial = a - step * pgrad
            trial -= trial.mean()
            g_trial = objective(trial)
            if g_trial <= g - 1e-4 * step * gnorm * gnorm + noise:
                break
            step *= 0.5
        else:
            break
        a, g = trial, g_trial
    return scaling.CapacityResult(
        value=math.exp(g), minimizer=np.exp(a), gradient_norm=gnorm, status=status, iterations=iterations
    )


def _fails_rank_condition(oracle, pts: np.ndarray, weights: np.ndarray) -> bool:
    """The prefixes in order of decreasing weight in one stacked rank call, then edmonds_rado_check."""
    return scaling._prefix_violates(oracle, pts, weights) or not hp.edmonds_rado_check(oracle, pts).holds


def capacity_through_evaluate(oracle, points, tol: float = 1e-8, max_iters: int = 10000):
    """capacity with its per-call work inside the loop: every trial evaluates p through oracle.evaluate,
    which validates the point, and every iterate takes numpy's mean, norm and dot.  The same projected
    gradient descent, step for step; a run that holds no certificate of positive capacity at its second
    iterate settles the rank condition there, with the prefixes in order of decreasing weight and then,
    only if none violates, edmonds_rado_check."""
    pts = np.asarray(points, dtype=float)
    k, n = pts.shape[0], oracle.n
    zero = scaling.CapacityResult(value=0.0, minimizer=np.ones(k), gradient_norm=None, status="zero_capacity")

    def objective(a):
        with np.errstate(over="ignore", invalid="ignore"):
            val = hp.evaluate(oracle, np.exp(a) @ pts)
        return math.log(val) if 0.0 < val < math.inf else math.inf

    a = np.zeros(k)
    g = objective(a)
    if g == math.inf:
        if _fails_rank_condition(oracle, pts, np.ones(k)):
            return zero
        raise DegenerateDirectionError("p at the tuple's sum is not positive and finite")
    status, gnorm, iterations, step = "iteration_limit", math.inf, 0, 1.0
    prev_a = prev_pgrad = None
    settled = False
    while iterations < max_iters:
        iterations += 1
        alpha = np.exp(a)
        d = alpha @ pts
        grad = alpha * hp.traces_in_direction(oracle, pts, d)
        pgrad = grad - np.mean(grad)
        gnorm = float(np.linalg.norm(pgrad))
        if not settled and k <= n and gnorm * gnorm <= 1.0 / n:
            settled = bool(oracle.form.interior(d, oracle.direction, DEFAULT_RANK_TOL))
        if iterations == 2 and not settled:
            if _fails_rank_condition(oracle, pts, alpha):
                return zero
            settled = True
        if gnorm <= tol:
            status = "converged"
            break
        if prev_a is not None:
            ds, dy = a - prev_a, pgrad - prev_pgrad
            dot = float(np.dot(ds, dy))
            step = float(np.dot(ds, ds)) / dot if dot > 0.0 else min(step * 2.0, 1e6)
        step = min(max(step, 1e-18), 1e6)
        prev_a, prev_pgrad = a, pgrad
        noise = 1e-15 * max(1.0, abs(g))
        while step > 1e-20:
            trial = a - step * pgrad
            trial -= np.mean(trial)
            g_trial = objective(trial)
            if g_trial <= g - 1e-4 * step * gnorm * gnorm + noise:
                break
            step *= 0.5
        else:
            break
        a, g = trial, g_trial
    if not settled and _fails_rank_condition(oracle, pts, np.exp(a)):
        return zero
    return scaling.CapacityResult(
        value=math.exp(g), minimizer=np.exp(a), gradient_norm=gnorm, status=status, iterations=iterations
    )


def roots_and_gradient(form, d: np.ndarray, e: np.ndarray):
    """The descending roots of d along e, p(d), and grad log p(d) when the smallest root and p(d) are
    positive (None otherwise): one eigh of M(d) on a pencil, the form's roots and one evaluation on any
    other form."""
    if isinstance(form, PencilForm):
        lam, vecs = np.linalg.eigh(form.matrix(d))
        grad = form.traces(((vecs / lam) @ vecs.T).T) if lam[0] > 0.0 else None
        return lam[::-1], float(lam.prod()), grad
    lam = form.normalized_roots(d, e, DEFAULT_ROOT_TOL)
    value = float(form.evaluate_batch(d[None, :])[0])
    return lam, value, form.grad_log_p(d) if lam[-1] > 0.0 and value > 0.0 else None


def root_interior(form, x: np.ndarray, e: np.ndarray, ratio: float) -> np.ndarray:
    """Form.interior from the roots of every row: classify_spectrum(lam, ratio) == POSITIVE, row by row."""
    lam = form.normalized_roots(x, e, DEFAULT_ROOT_TOL)
    rows = [classify_spectrum(row, ratio) == "positive" for row in lam.reshape(-1, lam.shape[-1])]
    return np.asarray(rows, dtype=bool).reshape(lam.shape[:-1])


def root_interior_gradient(form, d: np.ndarray, e: np.ndarray, ratio: float):
    """Form.interior_gradient from roots_and_gradient and classify_spectrum: p(d), and grad log p(d)
    when the roots of d are POSITIVE at ratio."""
    lam, value, grad = roots_and_gradient(form, d, e)
    return value, grad if grad is not None and classify_spectrum(lam, ratio) == "positive" else None


def assert_same_energies(got, expected) -> None:
    # An eigenvalue product and a det of M(d) agree to about eps * cond(M(d)), and a recorded state has
    # cond(M(d)) <= 1 / _COLLAPSE_RATIO, so eps / 1e-10 ~ 2e-6 bounds the gap even next to a collapse.
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=0.0)


def assert_stops_on_a_zero_certificate(doc: dict, scales, mats, reference) -> None:
    """A zero run of sinkhorn_iteration, given as its JSON report and the scales it stopped at, against
    three_call_sinkhorn on the same tuple of PSD matrices, which runs on to the boundary collapse: the
    same verdict in no more steps and without a collapse, the reference's energy and defect at every
    recorded step, and a prefix of the matrices in order of decreasing scale whose sum has, by numpy's
    eigvalsh, rank below its size."""
    (verdict, converged, collapsed, iterations), energies, defects, _ = reference
    assert (verdict, converged, collapsed) == ("zero", False, True)
    assert (doc["capacity_verdict"], doc["converged"], doc["boundary_collapse"]) == ("zero", False, False)
    steps = doc["iterations"]
    assert steps <= iterations
    assert len(doc["energy_history"]) == len(doc["defect_history"]) == steps + 1
    assert_same_energies(doc["energy_history"], energies[: steps + 1])
    assert_same_energies(doc["defect_history"], defects[: steps + 1])
    order = np.argsort(-np.asarray(scales), kind="stable")
    eigs = np.linalg.eigvalsh(np.cumsum(np.asarray(mats)[order], axis=0))
    ranks = np.sum(eigs > 1e-9 * eigs[:, -1:], axis=1)
    assert np.any(ranks < np.arange(1, len(mats) + 1))


def gradient(oracle, alpha) -> np.ndarray:
    """grad p(alpha) = p(alpha) * grad log p(alpha), from the form's closed-form gradient: defined where
    p(alpha) != 0 and the form can take grad log p there."""
    alpha = np.asarray(alpha, dtype=float)
    return hp.evaluate(oracle, alpha) * oracle.form.grad_log_p(alpha)


def partial_derivative(oracle, alpha, i: int) -> float:
    """dp/dx_i at alpha: component i of ``gradient``."""
    return float(gradient(oracle, alpha)[i])


def looped_dense_gradient(form, d) -> np.ndarray:
    """grad p(d) of a dense form, one coordinate at a time: differentiate every term in x_i."""
    grad = np.empty(form.m)
    for i in range(form.m):
        exps = form.exponents.copy()
        coefs = form.coefficients * exps[:, i]
        exps[:, i] = np.maximum(exps[:, i] - 1, 0)
        grad[i] = np.prod(d[None, :] ** exps, axis=1) @ coefs
    return grad


@dataclass(frozen=True, slots=True)
class ReciprocalGradientReport(Report):
    lhs: float
    rhs: float
    holds: bool


def gradient_reciprocal_check(oracle, alpha, tol: float = 1e-9) -> ReciprocalGradientReport:
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
    lhs = hp.evaluate(oracle, 1.0 / partials)
    rhs = hp.evaluate(oracle, alpha) ** (-(oracle.n - 1))
    holds = lhs <= rhs + tol * max(1.0, abs(rhs))
    return ReciprocalGradientReport(lhs=float(lhs), rhs=float(rhs), holds=bool(holds))


def symmetric_basis(n: int) -> np.ndarray:
    """The (n(n+1)/2, n, n) pencil E_ii followed by E_ij + E_ji (i < j) row by row: the coordinate order
    of ``symmetric_matrix_oracle(n)``, built here element by element rather than by its builder."""
    basis = []
    for i in range(n):
        basis.append(np.zeros((n, n)))
        basis[-1][i, i] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(np.zeros((n, n)))
            basis[-1][i, j] = basis[-1][j, i] = 1.0
    return np.stack(basis)


def matrix_to_point(mat) -> np.ndarray:
    """Coordinates of a symmetric matrix in the order of ``symmetric_basis``: the diagonal, then the
    upper triangle row by row."""
    a = np.asarray(mat, dtype=float)
    return np.concatenate([np.diag(a), a[np.triu_indices(a.shape[0], 1)]])


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


def residue_filtered_hyperbolic_pair(rng: np.random.Generator, degree: int) -> tuple[MonicPolynomial, MonicPolynomial]:
    """``generators.hyperbolic_pair`` with the residue test as its verification."""
    roots = gen._separated_roots(rng, degree)
    residues = rng.uniform(0.2, 2.0, size=degree)
    q, r = gen._pair_from_residues(roots, residues)
    if hp.obreschkoff_pair_test(q, r).verdict != HYPERBOLIC:
        raise GenerationError("constructed pair failed its residue verification")
    return q, r


def grid_filtered_nonhyperbolic_pair(
    rng: np.random.Generator, degree: int
) -> tuple[MonicPolynomial, MonicPolynomial]:
    """``generators.nonhyperbolic_pair`` confirmed by the residue test and then by the 64-direction sampled
    pencil grid, 200 candidates at most."""
    if degree < 2:
        raise GenerationError("a non-hyperbolic pair needs degree >= 2")
    for _ in range(200):
        roots = gen._separated_roots(rng, degree)
        residues = rng.uniform(0.2, 2.0, size=degree) * rng.choice([-1.0, 1.0], size=degree)
        if np.all(residues > 0) or np.all(residues < 0):
            residues[int(rng.integers(degree))] *= -1.0
        q, r = gen._pair_from_residues(roots, residues)
        if hp.obreschkoff_pair_test(q, r).verdict != NOT_HYPERBOLIC:
            continue
        if hp.sampled_pencil_test(q, r).verdict == NOT_HYPERBOLIC:
            return q, r
    raise GenerationError("no grid-visible non-hyperbolic pair found in 200 attempts")


def oracle_to_json(oracle) -> dict:
    """The oracle's document, which ``hyperpoly.oracle_from_json`` reads back, from the public fields of
    its form: a stored pencil's matrices, a dense form's terms.  The symmetric-basis form, whose direction
    is always the identity, writes ``{"kind": "symmetric", "n": N}`` rather than its O(N^4) basis."""
    form = oracle.form
    if isinstance(form, SymmetricBasisPolynomial):
        return {"kind": "symmetric", "n": oracle.n}
    doc = {"kind": oracle.kind, "n": oracle.n}
    if oracle.kind == "product":
        return doc
    if oracle.kind == "determinantal":
        doc |= {"m": form.pencil.shape[0], "matrices": [b.tolist() for b in form.pencil]}
    else:
        terms = zip(form.exponents, form.coefficients)
        doc |= {"m": form.m, "terms": [{"exps": [int(v) for v in e], "coef": float(c)} for e, c in terms]}
    return doc | {"direction": oracle.direction.tolist()}


def k_hyperbolicity_polynomial(oracle, x, tail, k: int) -> np.ndarray:
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
        if hp.cone_membership(oracle, row) != hp.POSITIVE:
            raise InvalidDocumentError("tail points must be strictly inside the cone")

    def moving_slots(rows: np.ndarray) -> np.ndarray:
        return np.array([hp.mixed_value(oracle, np.vstack([np.repeat(row[None, :], k, axis=0), tail])) for row in rows])

    return chebyshev_restriction(moving_slots, k, x, oracle.direction)


def k_hyperbolic_check(oracle, x, tail, k: int) -> bool:
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
