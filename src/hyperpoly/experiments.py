"""Batch property suites over seeded generated instances.

Each suite runs a fixed number of independent trials, every trial fully
determined by (seed, trial index), and reports the count of failures together
with the worst observed slack (positive slack = margin, negative = violation).
Trials can fan out over workers; aggregation is ordered by trial index, so the
report does not depend on the worker count.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import generators as gen
from .errors import InvalidDocumentError
from .interlace import (
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    bezoutian_pair_test,
    derivative_line_sweep,
    lidskii_check,
    obreschkoff_pair_test,
    pair_agreement,
    pair_spectrum,
    pencil_characteristic_polynomial,
    real_roots_from_coefficients,
    shifted_pencil_majorization,
)
from .mixed import (
    alexandrov_fenchel_verdict,
    dense_from_oracle,
    log_concavity_profile,
    mixed_discriminant,
    newton_saturation_check,
)
from .oracle import evaluate_batch
from .scaling import (
    CONCAVITY_REL_SLACK,
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    capacity,
    capacity_concavity_check,
    mixed_concavity_check,
    sinkhorn_iteration,
    sinkhorn_map,
    traces_in_direction,
)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: only parallel runs need the process pool, and
    its import (concurrent.futures.process and multiprocessing) would cost every CLI start."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _call(job: tuple[Callable, object]) -> dict:
    worker, args = job
    return worker(args)


def _each(worker: Callable, seed: int, count: int) -> list:
    """Jobs that run `worker` on trials 0..count-1 at `seed`."""
    return [(worker, (seed, t)) for t in range(count)]


@dataclass(frozen=True)
class Suite:
    """One row of the suite table: its name, its default trial count, the (worker, arguments) jobs
    of a run at (seed, trials), and the fields, if any, its summary adds to the common four."""

    name: str
    trials: int
    jobs: Callable[[int, int], list]
    extra: Callable[[list[dict]], dict] | None

    def __call__(self, seed: int, trials: int, parallelism: int = 1) -> dict:
        """The summary of a run, its jobs taken in order from one pool of workers."""
        if trials < 1:
            raise InvalidDocumentError("trials must be at least 1")
        jobs = self.jobs(seed, trials)
        # More workers than cores only adds process start-up cost.
        parallelism = min(parallelism, os.cpu_count() or 1)
        if parallelism <= 1:
            results = [_call(job) for job in jobs]
        else:
            # Looked up on the module, which imports the pool on first use (see __getattr__).
            with sys.modules[__name__].ProcessPoolExecutor(max_workers=parallelism) as pool:
                results = list(pool.map(_call, jobs))
        failures = sum(0 if r["ok"] else 1 for r in results)
        worst = min(r["slack"] for r in results)
        summary = {"suite": self.name, "trials": len(results), "failures": failures, "worst_slack": worst}
        return summary | self.extra(results) if self.extra else summary


def _instance_for(kind: str, rng: np.random.Generator, n: int, count: int, nonneg: bool):
    """A degree-n oracle of the given kind and `count` points in its (closed, if nonneg) cone."""
    if kind == "product":
        return gen.product_oracle(n), rng.uniform(0.0 if nonneg else 0.2, 2.0, size=(count, n))
    if kind == "determinantal":
        oracle = gen.symmetric_matrix_oracle(n)
    else:
        oracle = dense_from_oracle(gen.random_determinantal_oracle(rng, n, m=3))
    maker = gen.nonnegative_point_tuple if nonneg else gen.positive_point_tuple
    return oracle, maker(oracle, rng, count)


_KINDS = ("determinantal", "product", "dense")


def _af_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 90, trial)
    n = 2 + trial % 4
    oracle, pts = _instance_for(_KINDS[trial % 3], rng, n, n, nonneg=True)
    verdict = alexandrov_fenchel_verdict(oracle, pts)
    return {"ok": verdict["holds"], "slack": verdict["residual"] / verdict["scale"]}


def _vdw_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 91, trial)
    n = 2 + trial % 3
    mats = gen.doubly_stochastic_matrix_tuple(rng, n)
    disc = mixed_discriminant(mats)
    bound = math.factorial(n) / n**n
    oracle, pts = gen.matrix_tuple_points(mats)
    cap = capacity(oracle, pts).value
    ratio = disc / cap
    ok = disc >= bound - 1e-6 and ratio >= bound - 1e-6 and ratio <= 1.0 + 1e-6
    return {"ok": bool(ok), "slack": min(disc - bound, ratio - bound, 1.0 - ratio), "ratio": ratio}


def _lidskii_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 92, trial)
    n = 2 + trial % 5
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    tol = 1e-8 * max(1.0, float(np.linalg.norm(b)))
    report = lidskii_check(a, b, tol)
    return {"ok": report.majorized, "slack": min(report.prefix_gaps)}


def _newton_trial(args) -> dict:
    seed, trial, kind = args
    rng = gen.rng_for(seed, 93, trial)
    n = 2 + trial % 4
    if kind == "determinantal":
        oracle, pts = gen.structured_psd_points(rng, n)
    else:
        oracle, pts = gen.structured_product_points(rng, n)
    report = newton_saturation_check(oracle, pts)
    return {"ok": report.saturated, "slack": -float(len(report.violations))}


def _newton_jobs(seed: int, trials: int) -> list:
    return [(_newton_trial, (seed, t, "determinantal" if t < trials // 2 else "product")) for t in range(trials)]


def _hsi_positive_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 94, trial)
    n = 2 + trial % 4
    oracle, pts = _instance_for(_KINDS[trial % 2], rng, n, n, nonneg=False)
    report = sinkhorn_iteration(oracle, pts, max_iters=10000, threshold=1e-10)
    defects, energies = report.defect_history, report.energy_history
    drops = np.diff(energies)
    monotone = bool(np.all(drops <= 1e-10 * np.maximum(1.0, energies[:-1])))
    reached = bool(np.min(defects) <= 1.0 / oracle.n)
    ok = report.converged and report.capacity_verdict == VERDICT_POSITIVE and monotone and reached
    slack = float(1.0 / oracle.n - defects.min())
    return {"ok": bool(ok), "slack": slack}


def _hsi_zero_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 95, trial)
    n = 3 + trial % 3
    mats, _ = gen.rank_deficient_matrix_tuple(rng, n)
    oracle, pts = gen.matrix_tuple_points(mats)
    report = sinkhorn_iteration(oracle, pts, max_iters=1000, threshold=1e-10)
    min_defect = float(report.defect_history.min())
    ok = report.capacity_verdict == VERDICT_ZERO and min_defect > 1.0 / oracle.n
    return {"ok": bool(ok), "slack": float(min_defect - 1.0 / oracle.n)}


def _hsi_rescale_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 96, trial)
    n = 2 + trial % 3
    oracle, pts = _instance_for("determinantal", rng, n, n, nonneg=False)
    d = pts.sum(axis=0)
    traces = traces_in_direction(oracle, pts, d)
    cap_before = capacity(oracle, pts).value
    cap_after = capacity(oracle, sinkhorn_map(oracle, pts)).value
    expected = cap_before / float(np.prod(traces))
    rel = abs(cap_after - expected) / max(abs(expected), 1e-300)
    return {"ok": rel <= 1e-5, "slack": 1e-5 - rel}


def _hsi_jobs(seed: int, trials: int) -> list:
    n_pos = trials // 2
    n_zero = trials // 4
    return (
        _each(_hsi_positive_trial, seed, n_pos)
        + _each(_hsi_zero_trial, seed, n_zero)
        + _each(_hsi_rescale_trial, seed, trials - n_pos - n_zero)
    )


def _pair_agreement_trial(args) -> dict:
    seed, trial, want_hyperbolic = args
    rng = gen.rng_for(seed, 97, trial, int(want_hyperbolic))
    degree = 2 + trial % 5
    if want_hyperbolic:
        q, r = gen.hyperbolic_pair(rng, degree)
    else:
        q, r = gen.nonhyperbolic_pair(rng, degree)
    first = obreschkoff_pair_test(q, r)
    agree, _ = pair_agreement(first, bezoutian_pair_test(q, r))
    expected = HYPERBOLIC if want_hyperbolic else NOT_HYPERBOLIC
    ok = agree and first.verdict == expected
    return {"ok": bool(ok), "slack": 1.0 if ok else -1.0}


def _pencil_cross_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 98, trial)
    degree = 2 + trial % 5
    q, r = gen.hyperbolic_pair(rng, degree)
    while True:
        x, y = rng.uniform(-2.0, 2.0, size=2)
        if abs(x + y) > 0.1:
            break
    eig_route = np.sort(real_roots_from_coefficients(pencil_characteristic_polynomial(q, r, x, y), 1e-6))
    poly_route = np.sort(pair_spectrum(q, r, 1e-6)((x, y, 0.0)))
    scale = max(1.0, float(np.max(np.abs(poly_route))))
    err = float(np.max(np.abs(eig_route - poly_route))) / scale
    return {"ok": err <= 1e-8, "slack": 1e-8 - err}


def _shifted_majorization_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 99, trial)
    degree = 2 + trial % 4
    q, r = gen.hyperbolic_pair(rng, degree)
    while True:
        point = rng.uniform(-2.0, 2.0, size=3)
        delta = rng.uniform(-2.0, 2.0, size=3)
        lsum, msum = point[0] + point[1], delta[0] + delta[1]
        if min(abs(lsum), abs(msum), abs(lsum + msum)) > 0.1:
            break
    report = shifted_pencil_majorization(q, r, point, delta, tol=1e-7)
    return {"ok": report.majorized, "slack": min(report.prefix_gaps)}


def _derivative_line_trial(args) -> dict:
    """``derivative_line_sweep`` of a real-rooted q of degree 2..5, all four of whose verdicts must hold."""
    seed, trial = args
    rng = gen.rng_for(seed, 100, trial)
    q = MonicPolynomial.from_roots(gen._separated_roots(rng, 2 + trial % 4))
    sweep = derivative_line_sweep(q)
    return {"ok": sweep.convex and sweep.min_at_zero and sweep.fn_constant and sweep.majorized, "slack": sweep.slack}


def _interlace_jobs(seed: int, trials: int) -> list:
    """`trials` pair agreements, then side batches of pencil cross-checks, shifted majorizations and
    derivative lines; a summary counts them all, so it reports more trials than it was asked for."""
    half = trials // 2
    side = max(4, trials // 5)
    lines = max(2, min(12, trials // 80))
    return (
        [(_pair_agreement_trial, (seed, t, True)) for t in range(half)]
        + [(_pair_agreement_trial, (seed, t, False)) for t in range(trials - half)]
        + _each(_pencil_cross_trial, seed, side)
        + _each(_shifted_majorization_trial, seed, side)
        + _each(_derivative_line_trial, seed, lines)
    )


def _logconcavity_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 101, trial)
    n = 2 + trial % 4
    oracle, (x, y) = _instance_for(_KINDS[trial % 3], rng, n, 2, nonneg=False)
    profile = log_concavity_profile(oracle, x, y)
    ok = bool(np.all(profile > 0.0))
    slack = math.inf
    for i in range(1, oracle.n):
        margin = profile[i] ** 2 - profile[i - 1] * profile[i + 1]
        scale = max(1.0, profile[i] ** 2)
        ok = ok and margin >= -1e-9 * scale
        slack = min(slack, margin / scale)
    weights = np.arange(0.1, 0.95, 0.1)
    p_x, p_y, *p_mix = evaluate_batch(oracle, np.vstack([x, y, np.outer(weights, x) + np.outer(1 - weights, y)]))
    log_x, log_y = math.log(p_x), math.log(p_y)
    for a, p_a in zip(weights, p_mix):
        lhs = math.log(p_a)
        rhs = a * log_x + (1 - a) * log_y
        ok = ok and lhs >= rhs - 1e-9
        slack = min(slack, lhs - rhs)
    return {"ok": bool(ok), "slack": float(slack)}


def _capacity_concavity_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 102, trial)
    n = 2 + trial % 3
    oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, n))
    pair = pts[:2]
    i = int(rng.integers(0, n + 1))
    comps = [(n, 0), (0, n)]
    weights = [i / n, 1.0 - i / n]
    cap_report = capacity_concavity_check(oracle, pair, comps, weights)
    mix_report = mixed_concavity_check(oracle, pair, comps, weights)
    ok = cap_report.holds and mix_report.holds
    slack = min(
        cap_report.lhs - cap_report.rhs * (1 - CONCAVITY_REL_SLACK),
        mix_report.lhs - mix_report.rhs * (1 - CONCAVITY_REL_SLACK),
    )
    return {"ok": bool(ok), "slack": float(slack)}


# run_suite calls a suite through SUITES when it runs, so a wrapper put in place of an entry sees
# every call; the default counts are read off the rows before any such wrapper.
SUITES = {
    suite.name: suite
    for suite in (
        Suite("af", 300, partial(_each, _af_trial), None),
        Suite("vdw", 200, partial(_each, _vdw_trial), lambda results: {"min_ratio": min(r["ratio"] for r in results)}),
        Suite("lidskii", 500, partial(_each, _lidskii_trial), None),
        Suite("newton", 200, _newton_jobs, None),
        Suite("hsi", 80, _hsi_jobs, None),
        Suite("interlace", 1000, _interlace_jobs, None),
        Suite("logconcavity", 150, partial(_each, _logconcavity_trial), None),
        Suite("capacity-concavity", 40, partial(_each, _capacity_concavity_trial), None),
    )
}
_DEFAULT_TRIALS = {name: suite.trials for name, suite in SUITES.items()}


def run_suite(name: str, seed: int, trials: int | None, parallelism: int) -> dict:
    """The summary of the suite `name`, at its default trial count when `trials` is None."""
    if name not in SUITES:
        raise InvalidDocumentError(f"unknown suite '{name}'; choose from {sorted(SUITES)}")
    return SUITES[name](seed, _DEFAULT_TRIALS[name] if trials is None else trials, parallelism)
