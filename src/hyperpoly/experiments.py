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
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from . import generators as gen
from .errors import InvalidDocumentError
from .interlace import (
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    derivative_line_convexity,
    lidskii_check,
    majorization_check,
    obreschkoff_pair_test,
    pencil_characteristic_polynomial,
    real_roots_from_coefficients,
    sampled_pencil_test,
    shifted_pencil_majorization,
    standard_coefficients,
    taylor_shift,
)
from .mixed import (
    alexandrov_fenchel_verdict,
    dense_from_oracle,
    log_concavity_profile,
    mixed_discriminant,
    newton_saturation_check,
)
from .oracle import evaluate
from .scaling import (
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    capacity,
    capacity_concavity_check,
    mixed_concavity_check,
    sinkhorn_iteration,
    sinkhorn_map,
    traces_in_direction,
)


def _call(job: tuple[Callable, object]) -> dict:
    worker, args = job
    return worker(args)


def _run_trials(trials: int, parallelism: int, *batches: tuple[Callable, Sequence]) -> list:
    """Results of every (worker, arguments) batch in order, from one pool of workers.

    `trials` is the count the suite was asked for; it is checked here so that
    every suite rejects a count below one, however it is called.
    """
    if trials < 1:
        raise InvalidDocumentError("trials must be at least 1")
    jobs = [(worker, args) for worker, batch in batches for args in batch]
    # More workers than cores only adds process start-up cost.
    parallelism = min(parallelism, os.cpu_count() or 1)
    if parallelism <= 1:
        return [_call(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(_call, jobs))


def _summary(name: str, results: list[dict], extra: dict | None = None) -> dict:
    failures = sum(0 if r["ok"] else 1 for r in results)
    worst = min((r["slack"] for r in results), default=float("inf"))
    out = {"suite": name, "trials": len(results), "failures": failures, "worst_slack": worst}
    if extra:
        out.update(extra)
    return out


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


def run_af(seed: int, trials: int = 300, parallelism: int = 1) -> dict:
    results = _run_trials(trials, parallelism, (_af_trial, [(seed, t) for t in range(trials)]))
    return _summary("af", results)


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


def run_vdw(seed: int, trials: int = 200, parallelism: int = 1) -> dict:
    results = _run_trials(trials, parallelism, (_vdw_trial, [(seed, t) for t in range(trials)]))
    return _summary("vdw", results, {"min_ratio": min(r["ratio"] for r in results)})


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


def run_lidskii(seed: int, trials: int = 500, parallelism: int = 1) -> dict:
    results = _run_trials(trials, parallelism, (_lidskii_trial, [(seed, t) for t in range(trials)]))
    return _summary("lidskii", results)


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


def run_newton(seed: int, trials: int = 200, parallelism: int = 1) -> dict:
    args = [(seed, t, "determinantal" if t < trials // 2 else "product") for t in range(trials)]
    results = _run_trials(trials, parallelism, (_newton_trial, args))
    return _summary("newton", results)


def _hsi_positive_trial(args) -> dict:
    seed, trial = args
    rng = gen.rng_for(seed, 94, trial)
    n = 2 + trial % 4
    oracle, pts = _instance_for(_KINDS[trial % 2], rng, n, n, nonneg=False)
    report = sinkhorn_iteration(oracle, pts, max_iters=10000, threshold=1e-10)
    defects = np.asarray(report.defect_history)
    energies = np.asarray(report.energy_history)
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
    min_defect = min(report.defect_history)
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


def run_hsi(seed: int, trials: int = 80, parallelism: int = 1) -> dict:
    n_pos = trials // 2
    n_zero = trials // 4
    n_rescale = trials - n_pos - n_zero
    results = _run_trials(
        trials,
        parallelism,
        (_hsi_positive_trial, [(seed, t) for t in range(n_pos)]),
        (_hsi_zero_trial, [(seed, t) for t in range(n_zero)]),
        (_hsi_rescale_trial, [(seed, t) for t in range(n_rescale)]),
    )
    return _summary("hsi", results)


def _pair_agreement_trial(args) -> dict:
    seed, trial, want_hyperbolic = args
    rng = gen.rng_for(seed, 97, trial, int(want_hyperbolic))
    degree = 2 + trial % 5
    if want_hyperbolic:
        q, r = gen.hyperbolic_pair(rng, degree)
    else:
        q, r = gen.nonhyperbolic_pair(rng, degree)
    first = obreschkoff_pair_test(q, r)
    second = sampled_pencil_test(q, r)
    definite = first.verdict in (HYPERBOLIC, NOT_HYPERBOLIC) and second.verdict in (HYPERBOLIC, NOT_HYPERBOLIC)
    agree = (not definite) or (first.verdict == second.verdict)
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
    combo = x * standard_coefficients(q) + y * standard_coefficients(r, length=q.degree + 1)
    poly_route = np.sort((x + y) * real_roots_from_coefficients(combo, 1e-6))
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
    seed, trial = args
    rng = gen.rng_for(seed, 100, trial)
    degree = 2 + trial % 4
    roots = gen._separated_roots(rng, degree)
    q = MonicPolynomial.from_roots(roots)
    grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.25), 10)
    ok = True
    slack = math.inf
    for k in range(1, degree + 1):
        report = derivative_line_convexity(q, 0.0, 1.0, k, grid, tol=1e-7)
        ok = ok and report.convex and bool(report.min_at_zero) and report.fn_constant
    spectra = {}
    for a in grid:
        base = taylor_shift(q.standard_coefficients(), float(a))
        coeffs = base - float(a) * np.pad(np.polynomial.polynomial.polyder(base), (0, 1))
        spectra[float(a)] = real_roots_from_coefficients(coeffs, 1e-7)
    nonneg = sorted(a for a in spectra if a >= 0.0)
    for i, a in enumerate(nonneg):
        for b in nonneg[i + 1 :]:
            rep = majorization_check(spectra[a], spectra[b], tol=1e-7)
            ok = ok and rep.majorized
            slack = min(slack, min(rep.prefix_gaps))
    return {"ok": bool(ok), "slack": float(slack)}


def run_interlace(seed: int, trials: int = 1000, parallelism: int = 1) -> dict:
    half = trials // 2
    side = max(4, trials // 5)
    lines = max(2, min(12, trials // 80))
    args = [(seed, t, True) for t in range(half)] + [(seed, t, False) for t in range(trials - half)]
    results = _run_trials(
        trials,
        parallelism,
        (_pair_agreement_trial, args),
        (_pencil_cross_trial, [(seed, t) for t in range(side)]),
        (_shifted_majorization_trial, [(seed, t) for t in range(side)]),
        (_derivative_line_trial, [(seed, t) for t in range(lines)]),
    )
    return _summary("interlace", results)


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
    for a in np.arange(0.1, 0.95, 0.1):
        lhs = math.log(evaluate(oracle, a * x + (1 - a) * y))
        rhs = a * math.log(evaluate(oracle, x)) + (1 - a) * math.log(evaluate(oracle, y))
        ok = ok and lhs >= rhs - 1e-9
        slack = min(slack, lhs - rhs)
    return {"ok": bool(ok), "slack": float(slack)}


def run_logconcavity(seed: int, trials: int = 150, parallelism: int = 1) -> dict:
    results = _run_trials(trials, parallelism, (_logconcavity_trial, [(seed, t) for t in range(trials)]))
    return _summary("logconcavity", results)


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
        cap_report.lhs - cap_report.rhs * (1 - 1e-6),
        mix_report.lhs - mix_report.rhs * (1 - 1e-6),
    )
    return {"ok": bool(ok), "slack": float(slack)}


def run_capacity_concavity(seed: int, trials: int = 40, parallelism: int = 1) -> dict:
    results = _run_trials(trials, parallelism, (_capacity_concavity_trial, [(seed, t) for t in range(trials)]))
    return _summary("capacity-concavity", results)


SUITES = {
    "af": run_af,
    "vdw": run_vdw,
    "lidskii": run_lidskii,
    "newton": run_newton,
    "hsi": run_hsi,
    "interlace": run_interlace,
    "logconcavity": run_logconcavity,
    "capacity-concavity": run_capacity_concavity,
}


def run_suite(name: str, seed: int, trials: int | None = None, parallelism: int = 1) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if trials is None:
        return fn(seed, parallelism=parallelism)
    return fn(seed, trials=trials, parallelism=parallelism)
