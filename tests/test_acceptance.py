"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line (visible with -s or in the captured
output) so a run doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly.interlace import (
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    standard_coefficients,
)
from references import (
    gradient_reciprocal_check,
    matrix_as_tuple,
    matrix_sinkhorn,
    row_normalized,
    taylor_shift,
    tuple_as_matrix,
)

SEED = 20240731


def passline(k, message):
    print(f"criterion {k}: PASS - {message}")


@pytest.fixture(scope="module")
def ds_matrix_instances():
    """200 doubly stochastic matrix tuples, n in {2, 3, 4}, defect < 1e-10."""
    instances = []
    for t in range(200):
        n = 2 + t % 3
        mats = gen.doubly_stochastic_matrix_tuple(gen.rng_for(SEED, 3, t), n, defect_tol=1e-10)
        instances.append((n, mats))
    return instances


@pytest.fixture(scope="module")
def hsi_trajectories():
    """Scaling runs for rank-passing (n <= 5) and rank-deficient tuples."""
    passing = []
    for t in range(40):
        n = 2 + t % 4
        rng = gen.rng_for(SEED, 6, t)
        if t % 2 == 0:
            oracle = gen.symmetric_matrix_oracle(n)
            pts = gen.positive_point_tuple(oracle, rng, n)
        else:
            oracle, pts = gen.positive_product_tuple(rng, n)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=10000, threshold=1e-10)
        passing.append((oracle, pts, report))
    deficient = []
    for t in range(20):
        n = 3 + t % 3
        rng = gen.rng_for(SEED, 61, t)
        mats, witness = gen.rank_deficient_matrix_tuple(rng, n)
        oracle, pts = gen.matrix_tuple_points(mats)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=1000, threshold=1e-10)
        deficient.append((oracle, pts, report))
    return passing, deficient


def test_criterion_01_mixed_discriminant_matches_permanent():
    start = time.time()
    worst = 0.0
    for t in range(100):
        n = 2 + t % 6
        rng = gen.rng_for(SEED, 1, t)
        rows = rng.uniform(0.05, 3.0, size=(n, n))
        disc = hp.mixed_discriminant([np.diag(v) for v in rows])
        perm = hp.brute_force_permanent(rows)
        rel = abs(disc - perm) / abs(perm)
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    passline(1, f"100 diagonal tuples, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_identity_tuples():
    for n in range(2, 8):
        disc = hp.mixed_discriminant([np.eye(n)] * n)
        expected = float(math.factorial(n))
        assert abs(disc - expected) / expected <= 1e-10
        scaled = hp.mixed_discriminant([np.eye(n) / n] * n)
        expected_scaled = math.factorial(n) / n**n
        assert abs(scaled - expected_scaled) / expected_scaled <= 1e-10
    passline(2, "D(I,..,I) = n! and D(I/n,..,I/n) = n!/n^n for n in 2..7 at 1e-10 relative")


def test_criterion_03_van_der_waerden_bound(ds_matrix_instances):
    start = time.time()
    worst = math.inf
    for n, mats in ds_matrix_instances:
        defect = sum((np.trace(a) - 1.0) ** 2 for a in mats)
        assert defect < 1e-10
        disc = hp.mixed_discriminant(mats)
        bound = math.factorial(n) / n**n
        worst = min(worst, disc - bound)
        assert disc >= bound - 1e-6
    elapsed = time.time() - start
    assert elapsed < 120.0
    passline(3, f"200 doubly stochastic tuples, min slack over n!/n^n: {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_capacity_sandwich(ds_matrix_instances):
    worst_left = math.inf
    worst_right = math.inf
    for n, mats in ds_matrix_instances:
        oracle, pts = gen.matrix_tuple_points(mats)
        disc = hp.mixed_discriminant(mats)
        cap = hp.capacity(oracle, pts, tol=1e-8).value
        assert disc <= cap + 1e-6
        assert cap <= (n**n / math.factorial(n)) * disc + 1e-6
        worst_left = min(worst_left, cap + 1e-6 - disc)
        worst_right = min(worst_right, (n**n / math.factorial(n)) * disc + 1e-6 - cap)
    passline(4, f"sandwich D <= Cap <= (n^n/n!) D on 200 tuples, slacks {worst_left:.2e}/{worst_right:.2e}")


def test_criterion_05_capacity_of_doubly_stochastic_tuples():
    worst = 0.0
    for t in range(100):
        n = 2 + t % 3
        oracle, pts = gen.d_doubly_stochastic_tuple(gen.rng_for(SEED, 5, t), n, defect_tol=1e-10)
        pd = hp.evaluate(oracle, pts.sum(axis=0))
        cap = hp.capacity(oracle, pts, tol=1e-8).value
        rel = abs(cap - pd) / pd
        worst = max(worst, rel)
        assert rel <= 1e-5
    passline(5, f"100 d-doubly stochastic tuples, worst |Cap - p(d)|/p(d) = {worst:.2e}")


def test_criterion_06_scaling_equivalence(hsi_trajectories):
    passing, deficient = hsi_trajectories
    for oracle, pts, report in passing:
        assert hp.edmonds_rado_check(oracle, pts).holds
        assert min(report.defect_history) <= 1.0 / oracle.n
        assert report.converged and report.capacity_verdict == "positive"
    for oracle, pts, report in deficient:
        assert report.capacity_verdict == "zero"
        assert min(report.defect_history) > 1.0 / oracle.n
        assert not report.converged
    passline(6, f"{len(passing)} rank-passing runs reach defect <= 1/n; {len(deficient)} deficient runs never do")


def test_criterion_07_classical_sinkhorn_equivalence():
    worst = 0.0
    for t in range(100):
        n = 2 + t % 7
        rng = gen.rng_for(SEED, 7, t)
        a = rng.uniform(0.05, 3.0, size=(n, n))
        oracle = hp.product_oracle(n)
        mapped = tuple_as_matrix(hp.sinkhorn_map(oracle, matrix_as_tuple(a)))
        classical = matrix_sinkhorn(a, 1)
        gap = float(np.max(np.abs(row_normalized(mapped) - row_normalized(classical))))
        diag_gap = float(np.max(np.abs(mapped - np.diag(a.sum(axis=1)) @ classical)))
        worst = max(worst, gap, diag_gap / max(1.0, float(np.max(np.abs(mapped)))))
        assert gap <= 1e-12
        assert diag_gap <= 1e-12 * max(1.0, float(np.max(np.abs(mapped))))
    passline(7, f"100 matrices: map = column-after-row scaling (row-normalized + diag factor), worst {worst:.2e}")


def test_criterion_08_rescaling_identity_and_monotone_energy(hsi_trajectories):
    worst_rel = 0.0
    for t in range(20):
        n = 2 + t % 3
        rng = gen.rng_for(SEED, 8, t)
        oracle = gen.symmetric_matrix_oracle(n)
        pts = gen.positive_point_tuple(oracle, rng, n)
        traces = hp.traces_in_direction(oracle, pts, pts.sum(axis=0))
        before = hp.capacity(oracle, pts, tol=1e-8).value
        after = hp.capacity(oracle, hp.sinkhorn_map(oracle, pts), tol=1e-8).value
        rel = abs(after - before / float(np.prod(traces))) / after
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-5
    passing, deficient = hsi_trajectories
    for _, _, report in passing + deficient:
        energies = np.asarray(report.energy_history)
        assert np.all(np.diff(energies) <= 1e-10 * np.maximum(1.0, energies[:-1]))
    passline(8, f"capacity rescaling identity (worst rel {worst_rel:.2e}); energy monotone on all trajectories")


def test_criterion_09_af_and_log_concavity_chain():
    violations = 0
    for t in range(300):
        kind = ("determinantal", "product", "dense")[t % 3]
        n = 2 + t % 4
        rng = gen.rng_for(SEED, 9, t)
        if kind == "determinantal":
            oracle = gen.symmetric_matrix_oracle(n)
            pts = gen.nonnegative_point_tuple(oracle, rng, n)
        elif kind == "product":
            oracle = hp.product_oracle(n)
            pts = rng.uniform(0.0, 2.0, size=(n, n))
        else:
            oracle = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, m=3))
            pts = gen.nonnegative_point_tuple(oracle, rng, n)
        m_ab, m_aa, m_bb = hp.alexandrov_fenchel_terms(oracle, pts)
        residual = m_ab * m_ab - m_aa * m_bb
        if residual < -1e-9 * max(1.0, m_ab * m_ab, abs(m_aa * m_bb)):
            violations += 1
    assert violations == 0
    for t in range(60):
        kind = ("determinantal", "product", "dense")[t % 3]
        n = 2 + t % 4
        rng = gen.rng_for(SEED, 91, t)
        if kind == "determinantal":
            oracle = gen.symmetric_matrix_oracle(n)
            x, y = gen.positive_point_tuple(oracle, rng, 2)
        elif kind == "product":
            oracle = hp.product_oracle(n)
            x, y = rng.uniform(0.2, 2.0, size=(2, n))
        else:
            oracle = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, m=3))
            x, y = gen.positive_point_tuple(oracle, rng, 2)
        profile = hp.log_concavity_profile(oracle, x, y)
        assert np.all(profile > 0.0)
        for i in range(1, n):
            assert profile[i] ** 2 >= profile[i - 1] * profile[i + 1] - 1e-9 * max(1.0, profile[i] ** 2)
    passline(9, "AF residuals nonnegative on 300 tuples; 60 profiles positive and log-concave")


def test_criterion_10_reciprocal_gradient_inequality():
    for t in range(100):
        n = 2 + t % 4
        rng = gen.rng_for(SEED, 10, t)
        if t % 2 == 0:
            oracle = gen.random_determinantal_oracle(rng, n, n)
        else:
            oracle = hp.product_oracle(n)
        alpha = rng.uniform(0.2, 2.0, n)
        assert gradient_reciprocal_check(oracle, alpha, tol=1e-9).holds
    squares = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
    reversal = gradient_reciprocal_check(squares, [1.0, 2.0])
    assert not reversal.holds
    assert reversal.lhs == pytest.approx(0.3125) and reversal.rhs == pytest.approx(0.2)
    passline(10, "inequality holds on 100 hyperbolic instances; squares polynomial reverses at (1, 2)")


def test_criterion_11_pair_test_agreement():
    disagreements = 0
    for t in range(500):
        degree = 2 + t % 5
        q, r = gen.hyperbolic_pair(gen.rng_for(SEED, 11, t), degree)
        first = hp.obreschkoff_pair_test(q, r)
        second = hp.sampled_pencil_test(q, r, num_dirs=64)
        if HYPERBOLIC in (first.verdict, second.verdict) and NOT_HYPERBOLIC in (first.verdict, second.verdict):
            disagreements += 1
        assert first.verdict == HYPERBOLIC
    for t in range(500):
        degree = 2 + t % 5
        q, r = gen.nonhyperbolic_pair(gen.rng_for(SEED, 111, t), degree)
        first = hp.obreschkoff_pair_test(q, r)
        second = hp.sampled_pencil_test(q, r, num_dirs=64)
        if HYPERBOLIC in (first.verdict, second.verdict) and NOT_HYPERBOLIC in (first.verdict, second.verdict):
            disagreements += 1
        assert first.verdict == NOT_HYPERBOLIC
    assert disagreements == 0
    passline(11, "1000 pairs (500 + 500): zero definite-verdict disagreements")


def test_criterion_12_pencil_cross_check():
    worst = 0.0
    for t in range(200):
        degree = 2 + t % 5
        rng = gen.rng_for(SEED, 12, t)
        q, r = gen.hyperbolic_pair(rng, degree)
        while True:
            x, y = rng.uniform(-2.0, 2.0, 2)
            if abs(x + y) > 0.1:
                break
        eig_route = np.sort(
            hp.real_roots_from_coefficients(hp.pencil_characteristic_polynomial(q, r, x, y), 1e-6)
        )
        combo = x * standard_coefficients(q) + y * standard_coefficients(r)
        poly_route = np.sort((x + y) * hp.real_roots_from_coefficients(combo, 1e-6))
        scale = max(1.0, float(np.max(np.abs(poly_route))))
        err = float(np.max(np.abs(eig_route - poly_route))) / scale
        worst = max(worst, err)
        assert err <= 1e-8
    passline(12, f"200 pencil samples: eigenvalue route matches (x+y)-scaled roots, worst {worst:.2e}")


def test_criterion_13_majorization_experiments():
    for t in range(500):
        n = 2 + t % 5
        rng = gen.rng_for(SEED, 13, t)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        assert hp.lidskii_check(a + a.T, b + b.T, tol=1e-8).majorized
    for t in range(200):
        degree = 2 + t % 4
        rng = gen.rng_for(SEED, 131, t)
        q, r = gen.hyperbolic_pair(rng, degree)
        while True:
            point = rng.uniform(-2.0, 2.0, 3)
            delta = rng.uniform(-2.0, 2.0, 3)
            lsum, msum = point[0] + point[1], delta[0] + delta[1]
            if min(abs(lsum), abs(msum), abs(lsum + msum)) > 0.1:
                break
        assert hp.shifted_pencil_majorization(q, r, point, delta, tol=1e-7).majorized
    grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.25), 10)
    for t in range(12):
        degree = 2 + t % 4
        rng = gen.rng_for(SEED, 132, t)
        q = MonicPolynomial.from_roots(gen._separated_roots(rng, degree))
        for k in range(1, degree + 1):
            report = hp.derivative_line_convexity(q, 0.0, 1.0, k, grid, tol=1e-7)
            assert report.convex and report.min_at_zero and report.fn_constant
        spectra = {}
        for a in grid:
            base = taylor_shift(q.standard_coefficients(), float(a))
            coeffs = base - float(a) * np.pad(np.polynomial.polynomial.polyder(base), (0, 1))
            spectra[float(a)] = hp.real_roots_from_coefficients(coeffs, 1e-7)
        nonneg = sorted(a for a in spectra if a >= 0.0)
        for i, a in enumerate(nonneg):
            for b in nonneg[i + 1 :]:
                assert hp.majorization_check(spectra[a], spectra[b], tol=1e-7).majorized
    passline(13, "Lidskii x500, shifted-pencil x200, derivative-line convexity/min/constant/majorization x12")


def test_criterion_14_newton_saturation():
    violations = 0
    for t in range(100):
        n = 2 + t % 4
        oracle, pts = gen.structured_psd_points(gen.rng_for(SEED, 14, t), n)
        report = hp.newton_saturation_check(oracle, pts)
        violations += len(report.violations)
    for t in range(100):
        n = 2 + t % 4
        oracle, pts = gen.structured_product_points(gen.rng_for(SEED, 141, t), n)
        report = hp.newton_saturation_check(oracle, pts)
        violations += len(report.violations)
    assert violations == 0
    passline(14, "100 determinantal + 100 product instances: integer hull points all in support "
                 "(experimental evidence, not a proof)")


def test_criterion_15_optimizer_soundness():
    worst = 0.0
    for t in range(50):
        n = 2 + t % 3
        rng = gen.rng_for(SEED, 15, t)
        if t % 2 == 0:
            oracle = gen.symmetric_matrix_oracle(n)
            pts = gen.positive_point_tuple(oracle, rng, n)
        else:
            oracle, pts = gen.positive_product_tuple(rng, n)

        def g(a):
            return math.log(hp.evaluate(oracle, np.exp(a) @ pts))

        a = rng.uniform(-0.4, 0.4, n)
        grad = np.exp(a) * hp.traces_in_direction(oracle, pts, np.exp(a) @ pts)
        h = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (g(a + e) - g(a - e)) / (2 * h)
            rel = abs(grad[i] - fd) / max(1e-12, abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-5
        result = hp.capacity(oracle, pts, tol=1e-8)
        assert result.status == "converged"
        assert result.gradient_norm <= 1e-7
    passline(15, f"50 instances: closed-form gradient matches finite differences (worst {worst:.2e}); "
                 "all converged runs end with gradient norm <= 1e-7")
