import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly.errors import DimensionMismatchError, InvalidDocumentError, NonRealRootError
from hyperpoly.interlace import (
    HYPERBOLIC,
    INCONCLUSIVE,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    standard_coefficients,
    taylor_shift,
)

Q2 = MonicPolynomial((0.0, 1.0))  # x^2 - 1
R2 = MonicPolynomial.from_standard([0.0, 1.0, 1.0])  # x^2 + x


class TestMonicPolynomial:
    def test_standard_round_trip(self):
        q = MonicPolynomial.from_standard([2.0, -3.0, 1.0])  # (x-1)(x-2)
        assert q.a == (3.0, -2.0)
        assert q.standard_coefficients() == pytest.approx([2.0, -3.0, 1.0])

    def test_from_roots(self):
        q = MonicPolynomial.from_roots([1.0, 2.0])
        assert q(1.0) == pytest.approx(0.0) and q(2.0) == pytest.approx(0.0)

    def test_shift(self):
        q = MonicPolynomial.from_roots([1.0, -1.0])
        shifted = q.shift(2.0)  # q(x + 2) has roots -1, -3
        assert sorted(hp.real_roots(shifted)) == pytest.approx([-3.0, -1.0])

    def test_json_round_trip(self):
        doc = Q2.to_json()
        assert doc == {"degree": 2, "a": [0.0, 1.0]}
        assert MonicPolynomial.from_json(doc) == Q2

    def test_json_degree_mismatch(self):
        with pytest.raises(InvalidDocumentError):
            MonicPolynomial.from_json({"degree": 3, "a": [0.0, 1.0]})


class TestCompanion:
    def test_layout_symmetric_case(self):
        assert hp.companion(Q2).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert sorted(np.linalg.eigvals(hp.companion(Q2)).real) == pytest.approx([-1.0, 1.0])

    def test_layout_with_trace(self):
        q = MonicPolynomial((3.0, -2.0))  # x^2 - 3x + 2
        assert hp.companion(q).tolist() == [[0.0, 1.0], [-2.0, 3.0]]
        assert sorted(np.linalg.eigvals(hp.companion(q)).real) == pytest.approx([1.0, 2.0])

    def test_degree_one(self):
        assert hp.companion(MonicPolynomial((5.0,))).tolist() == [[5.0]]

    def test_degree_twelve_factored_roots(self):
        roots = np.arange(1.0, 13.0)
        q = MonicPolynomial.from_roots(roots)
        assert hp.real_roots(q, tol=1e-5) == pytest.approx(roots[::-1], abs=1e-7)


class TestRealRoots:
    def test_simple(self):
        assert hp.real_roots(Q2) == pytest.approx([1.0, -1.0])

    def test_complex_rejected(self):
        with pytest.raises(NonRealRootError) as err:
            hp.real_roots(MonicPolynomial.from_standard([1.0, 0.0, 1.0]))
        assert err.value.root is not None

    def test_triple_root_with_relaxed_tolerance(self):
        q = MonicPolynomial.from_standard([-1.0, 3.0, -3.0, 1.0])  # (x-1)^3
        assert hp.real_roots(q, tol=1e-4) == pytest.approx([1.0, 1.0, 1.0], abs=1e-4)

    def test_optional_newton_polish(self):
        q = MonicPolynomial.from_roots([1.0, 2.0, 3.0, 4.0])
        plain = hp.real_roots(q)
        polished = hp.real_roots(q, polish=True)
        exact = np.asarray([4.0, 3.0, 2.0, 1.0])
        assert np.max(np.abs(polished - exact)) <= np.max(np.abs(plain - exact)) + 1e-15
        assert polished == pytest.approx(exact, abs=1e-12)


class TestObreschkoff:
    def test_interlacing_pair(self):
        report = hp.obreschkoff_pair_test(Q2, [0.0, 1.0])  # r = x
        assert report.verdict == HYPERBOLIC
        assert report.residues == pytest.approx([0.5, 0.5])
        assert report.roots_of_q == pytest.approx([1.0, -1.0])

    def test_mixed_residues(self):
        report = hp.obreschkoff_pair_test(Q2, [1.0, 0.0, 1.0])  # r = x^2 + 1
        assert report.verdict == NOT_HYPERBOLIC
        assert report.residues == pytest.approx([1.0, -1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_derivative_shift_is_hyperbolic(self, seed):
        rng = np.random.default_rng(seed)
        roots = gen._separated_roots(rng, 4)
        q = MonicPolynomial.from_roots(roots)
        r = q.standard_coefficients()
        r[:-1] += q.derivative_coefficients()  # r = q + q'
        assert hp.obreschkoff_pair_test(q, r).verdict == HYPERBOLIC

    def test_near_multiple_roots_inconclusive(self):
        q = MonicPolynomial.from_roots([0.0, 1e-9])
        assert hp.obreschkoff_pair_test(q, [0.0, 1.0]).verdict == INCONCLUSIVE

    def test_degree_cap(self):
        with pytest.raises(InvalidDocumentError):
            hp.obreschkoff_pair_test(Q2, [0.0, 0.0, 0.0, 1.0])

    def test_residue_reconstruction(self):
        # r(t) = A q(t) + sum_k a_k prod_{j != k} (t - lambda_j) with A the
        # leading coefficient of r (both monic here, so A = 1).
        rng = np.random.default_rng(7)
        q, r = gen.hyperbolic_pair(rng, 4)
        report = hp.obreschkoff_pair_test(q, r)
        lam = report.roots_of_q
        for t in rng.uniform(-4.0, 4.0, 6):
            total = q(t)
            for k, a_k in enumerate(report.residues):
                total += a_k * np.prod([t - lam[j] for j in range(4) if j != k])
            assert total == pytest.approx(r(t), rel=1e-8, abs=1e-8)


class TestSampledPencil:
    def test_interlacing_pair(self):
        assert hp.sampled_pencil_test(Q2, [0.0, 1.0]).verdict == HYPERBOLIC

    def test_counterexample_direction_recorded(self):
        report = hp.sampled_pencil_test(Q2, [1.0, 0.0, 1.0])
        assert report.verdict == NOT_HYPERBOLIC
        x, y = report.counterexample_direction
        # The recorded direction must genuinely produce non-real roots.
        coeffs = x * standard_coefficients(Q2) + y * np.asarray([1.0, 0.0, 1.0])
        with pytest.raises(NonRealRootError):
            hp.real_roots_from_coefficients(coeffs)

    def test_canonical_bad_direction_fails(self):
        coeffs = 0.0 * standard_coefficients(Q2) + 1.0 * np.asarray([1.0, 0.0, 1.0])
        with pytest.raises(NonRealRootError):
            hp.real_roots_from_coefficients(coeffs)

    def test_degenerate_direction_handled(self):
        # x + y = 0 drops the degree; the trimmed polynomial is what matters.
        q = MonicPolynomial.from_roots([0.0, 2.0])
        r = MonicPolynomial.from_roots([1.0, 3.0])
        assert hp.sampled_pencil_test(q, r).verdict == HYPERBOLIC

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_residues_give_distinct_pencil_roots(self, seed):
        # Strictly positive residues force interlacing, so every pencil member
        # away from the degree-dropping direction keeps its roots separated.
        rng = np.random.default_rng(seed)
        q, r = gen.hyperbolic_pair(rng, 4)
        qc = standard_coefficients(q)
        rc = standard_coefficients(r)
        min_gap = np.inf
        for theta in np.linspace(0.05, np.pi - 0.05, 40):
            x, y = np.cos(theta), np.sin(theta)
            if abs(x + y) < 0.2:
                continue
            lam = hp.real_roots_from_coefficients(x * qc + y * rc, 1e-7)
            min_gap = min(min_gap, float(np.min(lam[:-1] - lam[1:])))
        assert min_gap > 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_with_residue_test(self, seed):
        rng = np.random.default_rng(seed)
        degree = 2 + seed % 4
        if seed % 2 == 0:
            q, r = gen.hyperbolic_pair(rng, degree)
            expected = HYPERBOLIC
        else:
            q, r = gen.nonhyperbolic_pair(rng, degree)
            expected = NOT_HYPERBOLIC
        assert hp.obreschkoff_pair_test(q, r).verdict == expected
        assert hp.sampled_pencil_test(q, r).verdict == expected


class TestPencilCharacteristicPolynomial:
    def test_pure_q_direction(self):
        coeffs = hp.pencil_characteristic_polynomial(Q2, R2, 1.0, 0.0)
        assert hp.real_roots_from_coefficients(coeffs) == pytest.approx([1.0, -1.0])

    def test_pure_r_direction(self):
        coeffs = hp.pencil_characteristic_polynomial(Q2, R2, 0.0, 1.0)
        assert hp.real_roots_from_coefficients(coeffs) == pytest.approx([0.0, -1.0], abs=1e-9)

    def test_equal_weights_explicit_value(self):
        coeffs = hp.pencil_characteristic_polynomial(Q2, R2, 1.0, 1.0)
        assert coeffs == pytest.approx([-2.0, 1.0, 1.0])
        assert hp.real_roots_from_coefficients(coeffs) == pytest.approx([1.0, -2.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_roots_scale_by_weight_sum(self, seed):
        rng = np.random.default_rng(seed)
        q, r = gen.hyperbolic_pair(rng, 2 + seed % 4)
        x, y = rng.uniform(-2.0, 2.0, 2)
        if abs(x + y) < 0.1:
            x += 0.5
        eig_route = np.sort(hp.real_roots_from_coefficients(hp.pencil_characteristic_polynomial(q, r, x, y), 1e-6))
        combo = x * standard_coefficients(q) + y * standard_coefficients(r)
        poly_route = np.sort((x + y) * hp.real_roots_from_coefficients(combo, 1e-6))
        assert eig_route == pytest.approx(poly_route, rel=1e-8, abs=1e-8)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(InvalidDocumentError):
            hp.pencil_characteristic_polynomial(Q2, MonicPolynomial((1.0, 0.0, 0.0)), 1.0, 1.0)


class TestMajorization:
    def test_split_majorized_by_concentrated(self):
        assert hp.majorization_check([1.0, 1.0], [2.0, 0.0]).majorized

    def test_totals_must_match(self):
        assert not hp.majorization_check([2.0, 1.0], [1.0, 1.0]).majorized

    def test_prefix_violation(self):
        assert not hp.majorization_check([2.0, 0.0], [1.0, 1.0]).majorized

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_mutual_majorization_means_equal(self, values):
        u = np.asarray(values)
        v = np.sort(u)[::-1]
        assert hp.majorization_check(u, v, tol=1e-9).majorized
        assert hp.majorization_check(v, u, tol=1e-9).majorized

    def test_report_fields(self):
        report = hp.majorization_check([1.0, 1.0], [2.0, 0.0])
        assert report.prefix_gaps == pytest.approx([1.0, 0.0])
        assert report.total_gap == pytest.approx(0.0)


class TestLidskii:
    def test_scalar_shift(self):
        a = np.diag([3.0, 1.0])
        assert hp.lidskii_check(a, 2.0 * np.eye(2)).majorized

    def test_commuting_diagonals(self):
        assert hp.lidskii_check(np.diag([3.0, 1.0]), np.diag([-1.0, 2.0])).majorized

    @pytest.mark.parametrize("seed", range(10))
    def test_random_symmetric_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 5
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        assert hp.lidskii_check(a + a.T, b + b.T, tol=1e-8).majorized


class TestShiftedPencilMajorization:
    def test_explicit_quadratic_case(self):
        report = hp.shifted_pencil_majorization(Q2, R2, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert report.majorized
        assert report.prefix_gaps == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_rescaled_spectra_are_root_spectra(self):
        # K * roots(P_{X+Delta}) must equal the eigenvalues of the companion
        # pencil at X + Delta shifted by z + d3.
        rng = np.random.default_rng(3)
        q, r = gen.hyperbolic_pair(rng, 3)
        x, y, z = 1.2, 0.4, -0.7
        d1, d2, d3 = 0.3, -0.9, 0.5
        ksum = x + y + d1 + d2
        shifted = taylor_shift(q.standard_coefficients(), -(z + d3) / ksum) * (x + d1) + taylor_shift(
            r.standard_coefficients(), -(z + d3) / ksum
        ) * (y + d2)
        lam = np.sort(ksum * hp.real_roots_from_coefficients(shifted, 1e-7))[::-1]
        pencil = (x + d1) * hp.companion(q) + (y + d2) * hp.companion(r) + (z + d3) * np.eye(3)
        assert lam == pytest.approx(np.sort(np.linalg.eigvals(pencil).real)[::-1], rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_perturbations(self, seed):
        rng = np.random.default_rng(seed)
        q, r = gen.hyperbolic_pair(rng, 2 + seed % 4)
        while True:
            point = rng.uniform(-2.0, 2.0, 3)
            delta = rng.uniform(-2.0, 2.0, 3)
            lsum, msum = point[0] + point[1], delta[0] + delta[1]
            if min(abs(lsum), abs(msum), abs(lsum + msum)) > 0.1:
                break
        assert hp.shifted_pencil_majorization(q, r, point, delta, tol=1e-7).majorized

    def test_degenerate_sum_rejected(self):
        with pytest.raises(InvalidDocumentError):
            hp.shifted_pencil_majorization(Q2, R2, (1.0, -1.0, 0.0), (0.0, 1.0, 0.0))

    def test_vanishing_perturbation_continuity(self):
        # As the perturbation shrinks the majorization approaches equality;
        # the prefix slacks must stay (numerically) nonnegative throughout.
        rng = np.random.default_rng(21)
        q, r = gen.hyperbolic_pair(rng, 4)
        point = (1.3, 0.5, -0.4)
        for eps in (1e-3, 1e-5, 1e-7):
            report = hp.shifted_pencil_majorization(q, r, point, (0.0, eps, 0.0), tol=1e-6)
            assert report.majorized
            assert min(report.prefix_gaps) >= -1e-6

    def test_ordering_flag(self):
        down = hp.shifted_pencil_majorization(Q2, R2, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), descending=True)
        up = hp.shifted_pencil_majorization(Q2, R2, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), descending=False)
        assert down.majorized and up.majorized  # symmetric instance: equality either way


class TestDerivativeLineConvexity:
    def test_quadratic_closed_form(self):
        # P_a(x) = x^2 - a^2 - 1, so the top root is sqrt(1 + a^2).
        grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.25), 10)
        report = hp.derivative_line_convexity(Q2, 0.0, 1.0, 1, grid)
        assert report.convex and report.min_at_zero and report.fn_constant
        assert report.values == pytest.approx(np.sqrt(1.0 + grid**2))

    def test_full_sum_constant(self):
        rng = np.random.default_rng(11)
        q = MonicPolynomial.from_roots(gen._separated_roots(rng, 4))
        grid = np.linspace(-1.0, 1.0, 9)
        report = hp.derivative_line_convexity(q, 0.0, 1.0, 4, grid)
        assert report.fn_constant
        assert np.max(report.values) - np.min(report.values) <= 1e-9 * max(1.0, np.max(np.abs(report.values)))

    def test_grid_majorization(self):
        rng = np.random.default_rng(12)
        q = MonicPolynomial.from_roots(gen._separated_roots(rng, 3))
        spectra = {}
        for a in [0.0, 0.3, 0.6, 0.9]:
            base = taylor_shift(q.standard_coefficients(), a)
            coeffs = base - a * np.pad(np.polynomial.polynomial.polyder(base), (0, 1))
            spectra[a] = hp.real_roots_from_coefficients(coeffs, 1e-7)
        keys = sorted(spectra)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                assert hp.majorization_check(spectra[a], spectra[b], tol=1e-7).majorized

    def test_shifted_variant_skips_min_check(self):
        grid = np.linspace(-1.0, 1.0, 9)
        report = hp.derivative_line_convexity(Q2, 0.5, 2.0, 1, grid)
        assert report.min_at_zero is None

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidDocumentError):
            hp.derivative_line_convexity(Q2, 0.0, 1.0, 3, [0.0, 1.0])


class TestSymmetricConvexLine:
    def test_full_sum_affine(self):
        grid = np.linspace(-1.5, 1.5, 11)
        report = hp.symmetric_convex_line_check(Q2, R2, 0.0, 1.0, "topk_sum:2", grid)
        assert report.convex

    def test_max_on_explicit_pair(self):
        # a*(x^2-1) + (1-a)*(x^2+x) = x^2 + (1-a)x - a has roots {a, -1},
        # so the max statistic is max(a, -1): convex.
        grid = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.1), 10)
        report = hp.symmetric_convex_line_check(Q2, R2, 0.0, 0.0, "max", grid)
        assert report.convex
        assert report.values == pytest.approx(np.maximum(grid, -1.0), abs=1e-7)

    @pytest.mark.parametrize("stat", ["max", "sum_abs", "topk_sum:1", "neg_bottomk_sum:1"])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_hyperbolic_pairs(self, stat, seed):
        rng = np.random.default_rng(seed)
        q, r = gen.hyperbolic_pair(rng, 3)
        grid = np.linspace(-1.0, 2.0, 10)
        assert hp.symmetric_convex_line_check(q, r, 0.1, 0.5, stat, grid).convex

    def test_unknown_statistic(self):
        with pytest.raises(InvalidDocumentError):
            hp.symmetric_convex_line_check(Q2, R2, 0.0, 1.0, "median", [0.0, 1.0])


class TestLidskiiShapes:
    @pytest.mark.parametrize(
        "a, b",
        [
            (np.eye(2), np.array([[1.0, 2.0]])),
            (np.ones((2, 3)), np.ones((2, 3))),
            (np.eye(2), np.eye(3)),
        ],
    )
    def test_rejects_non_square_or_mismatched(self, a, b):
        with pytest.raises(DimensionMismatchError):
            hp.lidskii_check(a, b)
