import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpoly as hp
from hyperpoly import experiments
from hyperpoly import generators as gen
from hyperpoly import interlace
from hyperpoly.errors import BudgetExceededError, DimensionMismatchError, InvalidDocumentError, NonRealRootError
from hyperpoly.interlace import (
    HYPERBOLIC,
    INCONCLUSIVE,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    pair_agreement,
    standard_coefficients,
)
from references import derivative_line_polynomial, grid_filtered_nonhyperbolic_pair, newton_polish, taylor_shift

Q2 = MonicPolynomial((0.0, 1.0))  # x^2 - 1
R2 = MonicPolynomial.from_standard([0.0, 1.0, 1.0])  # x^2 + x
NP_POLY = np.polynomial.polynomial


def counted(counts, key, fn):
    """fn, counting its calls in counts[key]."""

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def record_extractions(monkeypatch):
    """Record the coefficient rows of every companion stack that interlace builds, and count every
    eigvals call."""
    stacks, counts = [], {"eigvals": 0}
    original = interlace.companion_matrices

    def recorded(coeffs):
        stacks.append(np.array(coeffs))
        return original(coeffs)

    monkeypatch.setattr(interlace, "companion_matrices", recorded)
    monkeypatch.setattr(np.linalg, "eigvals", counted(counts, "eigvals", np.linalg.eigvals))
    return stacks, counts


def assert_rows_are_sweep(stacks, counts, qc, rc, xy0, dxy, grid):
    """One eigvals call took one stack: the pencils x qc + y rc at (x, y) = xy0 + a dxy for a on the
    9-point ascending grid, then at the midpoints of its 36 pairs, in order."""
    values = [float(a) for a in grid]
    params = values + [0.5 * (a + b) for i, a in enumerate(values) for b in values[i + 1 :]]
    assert len(params) == 45 and counts == {"eigvals": 1} and len(stacks) == 1
    expected = [(xy0[0] + a * dxy[0]) * qc + (xy0[1] + a * dxy[1]) * rc for a in params]
    assert np.array_equal(stacks[0], np.array(expected))


class TestMonicPolynomial:
    def test_standard_round_trip(self):
        q = MonicPolynomial.from_standard([2.0, -3.0, 1.0])  # (x-1)(x-2)
        assert q.a == (3.0, -2.0)
        assert q.standard_coefficients() == pytest.approx([2.0, -3.0, 1.0])

    def test_from_roots(self):
        q = MonicPolynomial.from_roots([1.0, 2.0])
        assert NP_POLY.polyval([1.0, 2.0], q.standard_coefficients()) == pytest.approx([0.0, 0.0])

    def test_shift(self):
        q = MonicPolynomial.from_roots([1.0, -1.0])
        # q(x + 2) has roots -1, -3
        shifted = MonicPolynomial.from_standard(taylor_shift(q.standard_coefficients(), 2.0))
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
        polished = newton_polish(q.standard_coefficients(), plain)
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
        r[:-1] += NP_POLY.polyder(q.standard_coefficients())  # r = q + q'
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
            total = NP_POLY.polyval(t, q.standard_coefficients())
            for k, a_k in enumerate(report.residues):
                total += a_k * np.prod([t - lam[j] for j in range(4) if j != k])
            assert total == pytest.approx(NP_POLY.polyval(t, r.standard_coefficients()), rel=1e-8, abs=1e-8)


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


def poly(*roots):
    """Ascending coefficients of the monic polynomial on these roots."""
    return NP_POLY.polyfromroots(roots)


class TestBezoutianCertificate:
    """The Hermite / Krein-Naimark certificate: x q + y r is real-rooted for every real (x, y) exactly when
    B(q, q') is positive semidefinite and B(q, r) is semidefinite of either sign."""

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_builder_is_the_residue_sum(self, degree):
        # r = q + sum_k a_k q_k with q_k = q / (x - lambda_k), so B(q, r) = sum_k a_k q_k q_k^T.
        rng = np.random.default_rng(90 + degree)
        for _ in range(10):
            roots = gen._separated_roots(rng, degree)
            residues = rng.uniform(0.2, 2.0, size=degree) * rng.choice([-1.0, 1.0], size=degree)
            q, r = gen._pair_from_residues(roots, residues)
            quotients = gen._quotients(q, roots)
            expected = quotients.T @ (residues[:, None] * quotients)
            got = interlace.bezoutian_matrices(q.standard_coefficients(), r.standard_coefficients())
            assert got.shape == (degree, degree)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_builder_takes_broadcasting_stacks(self):
        # Rows of stacks (2, 3, d + 1) against one q row: each matrix is the one-pair builder's.
        rng = np.random.default_rng(99)
        qc = poly(-1.0, 0.5, 2.0, 3.0)
        rows = rng.standard_normal((2, 3, 5))
        stacked = interlace.bezoutian_matrices(qc, rows)
        assert stacked.shape == (2, 3, 4, 4)
        for index in np.ndindex(2, 3):
            assert np.array_equal(stacked[index], interlace.bezoutian_matrices(qc, rows[index]))

    def test_builder_definition(self):
        # (q(x) r(y) - r(x) q(y)) / (x - y) = sum_ij B_ij x^i y^j at random points.
        rng = np.random.default_rng(98)
        qc, rc = rng.standard_normal(6), rng.standard_normal(6)
        b = interlace.bezoutian_matrices(qc, rc)
        for x, y in rng.uniform(-2.0, 2.0, size=(5, 2)):
            lhs = (NP_POLY.polyval(x, qc) * NP_POLY.polyval(y, rc) - NP_POLY.polyval(x, rc) * NP_POLY.polyval(y, qc))
            assert lhs / (x - y) == pytest.approx(x ** np.arange(5) @ b @ y ** np.arange(5), rel=1e-10)

    def test_index_tables_are_cached_and_read_only(self):
        assert interlace._bezoutian_tables(5) is interlace._bezoutian_tables(5)
        for table in interlace._bezoutian_tables(5):
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_one_eigvalsh_call_on_the_stack(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(mats):
            shapes.append(mats.shape)
            return eigvalsh(mats)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        q, r = gen.hyperbolic_pair(np.random.default_rng(4), 6)
        shapes.clear()
        assert hp.bezoutian_pair_test(q, r).verdict == HYPERBOLIC
        assert shapes == [(2, 6, 6)]

    def test_agrees_with_the_residue_test_on_generated_pairs(self):
        # 1,000 generated pairs of degrees 2..8, half of each kind.
        for t in range(500):
            degree = 2 + t % 7
            for make in (gen.hyperbolic_pair, gen.nonhyperbolic_pair):
                q, r = make(gen.rng_for(37, t), degree)
                first = hp.obreschkoff_pair_test(q, r).verdict
                assert first in (HYPERBOLIC, NOT_HYPERBOLIC)
                assert hp.bezoutian_pair_test(q, r).verdict == first

    def test_agrees_with_the_residue_test_on_unfiltered_candidates(self):
        # The candidates of both generators before any filter: residues of random signs, degrees 2..8.
        rng = np.random.default_rng(38)
        for t in range(1000):
            degree = 2 + t % 7
            roots = gen._separated_roots(rng, degree)
            residues = rng.uniform(0.2, 2.0, size=degree) * rng.choice([-1.0, 1.0], size=degree)
            q, r = gen._pair_from_residues(roots, residues)
            assert hp.bezoutian_pair_test(q, r).verdict == hp.obreschkoff_pair_test(q, r).verdict

    @pytest.mark.parametrize(
        "roots, rc, verdict",
        [
            # q = (x - 1)^2 (x + 1) against q' / 3, and against x - 1, which leaves mixed residues of q / (x - 1).
            ((1.0, 1.0, -1.0), NP_POLY.polyder(poly(1.0, 1.0, -1.0)) / 3.0, HYPERBOLIC),
            ((1.0, 1.0, -1.0), poly(1.0), NOT_HYPERBOLIC),
            ((1.0, 1.0), [1.0], NOT_HYPERBOLIC),
            ((0.0, 0.0, 0.0, 2.0), NP_POLY.polyder(poly(0.0, 0.0, 0.0, 2.0)), HYPERBOLIC),
            # Roots 1e-8 apart: r interlacing them, q', and x^2 + 1 with residues of about +-1e8.
            ((0.0, 1e-8, 1.0), poly(0.5e-8, 0.5), HYPERBOLIC),
            ((0.0, 1e-8, 1.0), NP_POLY.polyder(poly(0.0, 1e-8, 1.0)), HYPERBOLIC),
            ((0.0, 1e-8, 1.0), [1.0, 0.0, 1.0], NOT_HYPERBOLIC),
            # Two close pairs: r with a root inside each and one between them, then a line between them.
            ((-1.0, -1.0 + 1e-8, 2.0, 2.0 + 1e-8), poly(-1.0 + 0.5e-8, 0.5, 2.0 + 0.5e-8), HYPERBOLIC),
            ((-1.0, -1.0 + 1e-8, 2.0, 2.0 + 1e-8), poly(0.5), NOT_HYPERBOLIC),
        ],
        ids=[
            "double-root-derivative",
            "double-root-common-factor",
            "double-root-constant",
            "triple-root-derivative",
            "close-roots-interlaced",
            "close-roots-derivative",
            "close-roots-mixed",
            "two-close-pairs-interlaced",
            "two-close-pairs-line",
        ],
    )
    def test_decides_what_the_residue_test_cannot(self, roots, rc, verdict):
        q = MonicPolynomial.from_roots(roots)
        assert hp.obreschkoff_pair_test(q, rc).verdict == INCONCLUSIVE
        assert hp.bezoutian_pair_test(q, rc).verdict == verdict

    def test_narrow_failure_the_grid_misses(self):
        # One residue of -1e-4 among three of +1: non-real roots on an arc of directions narrower than the
        # 64-direction grid's spacing.
        q, r = gen._pair_from_residues(np.array([-2.0, -0.5, 1.0, 2.2]), np.array([1.0, 1.0, -1e-4, 1.0]))
        assert hp.sampled_pencil_test(q, r, num_dirs=64).verdict == HYPERBOLIC
        assert hp.obreschkoff_pair_test(q, r).verdict == NOT_HYPERBOLIC
        report = hp.bezoutian_pair_test(q, r)
        assert report.verdict == NOT_HYPERBOLIC
        low, high = report.bezoutian_range
        assert low < 0.0 < high and report.hermite_range[0] > 0.0

    def test_common_factor_with_nonreal_roots(self):
        # q = (x^2 + 1)(x - 1), r = x^2 + 1: B(q, r) has eigenvalues 0, 0 and a positive one, but
        # x q + y r = (x^2 + 1)(x (x - 1) + y) is never real-rooted; the Hermite matrix of q shows it.
        q = MonicPolynomial.from_standard(NP_POLY.polymul([1.0, 0.0, 1.0], [-1.0, 1.0]))
        report = hp.bezoutian_pair_test(q, [1.0, 0.0, 1.0])
        low, high = report.bezoutian_range
        assert abs(low) <= 1e-12 * high and report.hermite_range[0] < 0.0
        assert report.verdict == NOT_HYPERBOLIC

    def test_zero_r(self):
        x2_plus_1 = MonicPolynomial.from_standard([1.0, 0.0, 1.0])
        report = hp.bezoutian_pair_test(x2_plus_1, [0.0])
        assert report.bezoutian_range == (0.0, 0.0) and report.verdict == NOT_HYPERBOLIC
        assert hp.bezoutian_pair_test(Q2, [0.0]).verdict == HYPERBOLIC

    @pytest.mark.parametrize(
        "rc, verdict",
        [
            ([0.0, 1.0], HYPERBOLIC),
            ([-5.0, 1.0], NOT_HYPERBOLIC),
            ([2.0], NOT_HYPERBOLIC),
            ([0.5, 1.0, 0.0], HYPERBOLIC),
        ],
        ids=["interlacing-line", "line-outside", "constant", "padded-line"],
    )
    def test_lower_degree_r(self, rc, verdict):
        # q = x^2 - 1: r = x and r = x + 0.5 interlace it; r = x - 5 leaves residues -2 and 3, and a
        # constant c leaves c / 2 and -c / 2.
        assert hp.bezoutian_pair_test(Q2, rc).verdict == verdict
        assert hp.obreschkoff_pair_test(Q2, rc).verdict == verdict

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_lower_degree_r_agrees_with_the_residue_test(self, degree):
        rng = np.random.default_rng(95 + degree)
        q = MonicPolynomial.from_roots(gen._separated_roots(rng, degree))
        for low in range(degree):
            for _ in range(5):
                rc = rng.standard_normal(low + 1)
                assert hp.bezoutian_pair_test(q, rc).verdict == hp.obreschkoff_pair_test(q, rc).verdict

    def test_scaling_keeps_a_small_eigenvalue_of_the_other_sign(self):
        # A degree-8 candidate with mixed residues: unscaled, the one positive eigenvalue of B(q, r) is 2e-11
        # of its largest |eigenvalue|, inside the tolerance; after the Hermite-diagonal congruence it is 5e-8.
        q, r = grid_filtered_nonhyperbolic_pair(np.random.default_rng((1567, 8)), 8)
        eig = np.linalg.eigvalsh(interlace.bezoutian_matrices(q.standard_coefficients(), r.standard_coefficients()))
        assert 0.0 < eig[-1] <= interlace.BEZOUTIAN_TOL * -eig[0]
        assert hp.obreschkoff_pair_test(q, r).verdict == NOT_HYPERBOLIC
        report = hp.bezoutian_pair_test(q, r)
        low, high = report.bezoutian_range
        assert report.verdict == NOT_HYPERBOLIC and high > 10.0 * interlace.BEZOUTIAN_TOL * -low

    def test_degree_cap(self):
        with pytest.raises(InvalidDocumentError):
            hp.bezoutian_pair_test(Q2, [0.0, 0.0, 0.0, 1.0])


def sampled_pencil_loop(q, r, num_dirs, tol):
    """sampled_pencil_test as a loop over its directions, one point-path extraction each."""
    n = q.degree
    qc, rc = standard_coefficients(q), standard_coefficients(r, length=n + 1)
    directions = [(math.cos(t), math.sin(t)) for t in np.pi * np.arange(num_dirs) / num_dirs] + [(1.0, -1.0)]
    for x, y in directions:
        try:
            hp.real_roots_from_coefficients(x * qc + y * rc, tol)
        except NonRealRootError:
            return hp.PairReport(verdict=NOT_HYPERBOLIC, counterexample_direction=(x, y))
    return hp.PairReport(verdict=HYPERBOLIC)


def pencil_rows(q, r, num_dirs):
    """The pencils of sampled_pencil_test's directions, (1, -1) last."""
    qc, rc = standard_coefficients(q), standard_coefficients(r, length=q.degree + 1)
    thetas = np.pi * np.arange(num_dirs) / num_dirs
    xy = np.vstack([np.column_stack([np.cos(thetas), np.sin(thetas)]), [1.0, -1.0]])
    return xy[:, :1] * qc + xy[:, 1:] * rc


class TestPencilRowExtraction:
    """The stacked flags of sampled_pencil_test against real_roots_from_coefficients row by row: a flag
    exactly where the row raises NonRealRootError."""

    @staticmethod
    def check(rows, tol=1e-8):
        nonreal = interlace._nonreal_rows(rows, tol)
        assert nonreal.shape == (len(rows),)
        for row, flag in zip(rows, nonreal):
            try:
                hp.real_roots_from_coefficients(row, tol)
            except NonRealRootError:
                assert flag
                continue
            assert not flag
        return nonreal

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_generated_pairs(self, degree):
        rng = np.random.default_rng(60 + degree)
        for _ in range(4):
            assert not self.check(pencil_rows(*gen.hyperbolic_pair(rng, degree), 64)).any()
            if degree > 1:
                assert self.check(pencil_rows(*gen.nonhyperbolic_pair(rng, degree), 64)).any()

    def test_trimming_rows(self):
        # At (1, -1) the degree drops by one, and at theta = 3 pi / 4 of a 64-direction grid
        # x + y = 1.1e-16 is trimmed as well; both monic tops vanish from those rows.
        q, r = gen.hyperbolic_pair(np.random.default_rng(3), 5)
        rows = pencil_rows(q, r, 64)
        lengths = interlace._trimmed_lengths(rows)
        assert lengths[-1] == lengths[48] == 5 and np.all(np.delete(lengths, [48, 64]) == 6)
        assert not self.check(rows).any()

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_r_of_lower_degree(self, degree):
        # r of degree below q's: at (0, 1) the pencil is r alone; random r need not be real-rooted.
        rng = np.random.default_rng(70 + degree)
        q = MonicPolynomial.from_roots(gen._separated_roots(rng, degree))
        for low in range(degree):
            r = rng.standard_normal(low + 1)
            self.check(pencil_rows(q, r, 17))

    def test_zero_and_constant_rows(self):
        rows = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1e-13], [1.0, 1e-13, 0.0], [1.0, 2.0, 1.0]])
        self.check(rows)
        assert interlace._trimmed_lengths(rows).tolist() == [1, 1, 3, 1, 3]

    def test_stack_longer_than_one_chunk(self, monkeypatch):
        # Random degrees 1..8 (zero-padded to 8), random signs of reality, across three chunks;
        # no eigvals call sees more than one chunk of matrices.
        rng = np.random.default_rng(80)
        count = 2 * interlace._CHUNK + 17
        rows = rng.standard_normal((count, 9))
        degrees = rng.integers(1, 9, size=count)
        for i, degree in enumerate(degrees):
            rows[i, degree + 1 :] = 0.0
        sizes = []
        eigvals = np.linalg.eigvals

        def recorded(mats):
            sizes.append(len(mats))
            return eigvals(mats)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        interlace._nonreal_rows(rows, 1e-8)
        # One eigvals call per distinct degree in each chunk.
        chunks = range(0, count, interlace._CHUNK)
        assert len(sizes) == sum(len(set(degrees[i : i + interlace._CHUNK])) for i in chunks) and len(chunks) == 3
        assert sum(sizes) == count and max(sizes) <= interlace._CHUNK
        monkeypatch.undo()
        nonreal = self.check(rows)
        assert nonreal.any() and not nonreal.all()

    def test_empty_stack(self):
        assert interlace._nonreal_rows(np.empty((0, 4)), 1e-8).shape == (0,)


class TestSampledPencilStacked:
    def test_matches_direction_loop_on_generated_pairs(self):
        # 500 generated pairs of degree 1..8, half hyperbolic: the same verdict and counterexample.
        rng = np.random.default_rng(90)
        for i in range(500):
            degree = 1 + i % 8
            if i % 2 == 0 or degree == 1:
                q, r = gen.hyperbolic_pair(rng, degree)
            else:
                q, r = gen.nonhyperbolic_pair(rng, degree)
            assert hp.sampled_pencil_test(q, r) == sampled_pencil_loop(q, r, 64, 1e-8)

    @pytest.mark.parametrize("num_dirs", [3, 7, 300])
    def test_matches_direction_loop_on_random_pairs(self, num_dirs):
        # Random r of degree <= deg q fail in many directions; the first in grid order is reported.
        rng = np.random.default_rng(91 + num_dirs)
        for i in range(60):
            degree = 1 + i % 6
            q = MonicPolynomial.from_roots(gen._separated_roots(rng, degree))
            r = rng.standard_normal(1 + int(rng.integers(0, degree + 1)))
            assert hp.sampled_pencil_test(q, r, num_dirs) == sampled_pencil_loop(q, r, num_dirs, 1e-8)


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

    @pytest.mark.parametrize(
        "u, v",
        [([], []), (1.0, 1.0), ([[1.0, 2.0], [3.0, 4.0]], [[4.0, 3.0], [2.0, 1.0]]), ([1.0, 2.0], [1.0])],
        ids=["empty", "scalars", "matrices", "lengths"],
    )
    def test_refuses_anything_but_two_vectors_of_one_length(self, u, v):
        with pytest.raises(InvalidDocumentError, match="^majorization needs"):
            hp.majorization_check(u, v)

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

    def test_one_stacked_extraction_for_the_triple(self, monkeypatch):
        # point + delta, delta and point go through one eigvals call on one stack, and nothing else extracts.
        q, r = gen.hyperbolic_pair(np.random.default_rng(22), 4)
        point, delta = np.array([1.3, 0.5, -0.4]), np.array([0.2, 0.9, 0.7])
        stacks, counts = record_extractions(monkeypatch)
        assert hp.shifted_pencil_majorization(q, r, point, delta).majorized
        assert counts == {"eigvals": 1} and len(stacks) == 1
        qc, rc = standard_coefficients(q), standard_coefficients(r)
        expected = [p[0] * qc + p[1] * rc for p in (delta + point, delta, point)]
        assert np.array_equal(stacks[0], np.array(expected))

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

    def test_one_extraction_for_the_sweep_and_no_builds(self, monkeypatch):
        # The nine points of linspace(-1, 1, 9), 0 among them, and their 36 midpoints: one eigvals call
        # takes all 45 pencils of (q - q', q), and nothing else extracts; the library has no builder of
        # P_a (derivative_line_polynomial is a test reference).
        q = MonicPolynomial.from_roots(gen._separated_roots(np.random.default_rng(13), 4))
        grid = np.linspace(-1.0, 1.0, 9)
        stacks, counts = record_extractions(monkeypatch)
        report = interlace.derivative_line_convexity(q, 0.0, 1.0, 2, grid)
        assert report.convex and report.min_at_zero and report.fn_constant
        assert not hasattr(interlace, "derivative_line_polynomial") and not hasattr(interlace, "taylor_shift")
        q_minus_dq = q.standard_coefficients() - np.pad(NP_POLY.polyder(q.standard_coefficients()), (0, 1))
        assert_rows_are_sweep(stacks, counts, q_minus_dq, q.standard_coefficients(), (0.0, 1.0), (1.0, -1.0), grid)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_route_through_line_sweeps(self, seed):
        # The top-k sums of every k come from one cumsum of the 17 spectra; verdict and slack are bitwise
        # those of one sweep per k and one majorization check per pair.
        for trial in range(12):
            assert experiments._derivative_line_trial((seed, trial)) == derivative_line_trial_by_sweeps(seed, trial)

    @pytest.mark.parametrize("grid", [np.linspace(-1.0, 1.0, 9), np.linspace(-0.9, 1.3, 7)])
    @pytest.mark.parametrize("b, c", [(0.0, 1.0), (0.5, 2.0), (-0.3, 0.7)])
    @pytest.mark.parametrize("degree", range(2, 8))
    def test_sweep_matches_definition(self, degree, b, c, grid):
        # The pair sweep on (q - q', q) against the spectra of P_a built from its definition.
        q = MonicPolynomial.from_roots(gen._separated_roots(np.random.default_rng(200 + degree), degree))
        spectra = [hp.real_roots_from_coefficients(derivative_line_polynomial(q, b, c, float(a)), 1e-7) for a in grid]
        sums = [float(np.sum(lam)) for lam in spectra]
        fn_constant = bool(np.ptp(sums) <= 1e-9 * max(1.0, float(np.max(np.abs(sums)))))
        for k in range(1, degree + 1):
            report = hp.derivative_line_convexity(q, b, c, k, grid)
            direct = [float(np.sum(lam[:k])) for lam in spectra]
            assert report.values == pytest.approx(direct, rel=1e-9, abs=1e-9)
            min_at_zero = None
            if (b, c) == (0.0, 1.0):
                at_zero = float(np.sum(hp.real_roots_from_coefficients(q.standard_coefficients(), 1e-7)[:k]))
                min_at_zero = bool(min(direct) >= at_zero - 1e-7)
            assert report.min_at_zero == min_at_zero
            assert report.fn_constant == fn_constant


class TestDerivativeLinePolynomial:
    @pytest.mark.parametrize("b, c, a", [(0.0, 1.0, 0.5), (0.5, 2.0, -0.75)])
    def test_matches_definition(self, b, c, a):
        # P_a(x) = q(x + b + c a) - a q'(x + b + c a), evaluated directly.
        q = MonicPolynomial.from_roots([-2.0, 0.5, 1.5])
        xs = np.linspace(-2.0, 2.0, 7)
        shifted = xs + b + c * a
        qc = q.standard_coefficients()
        direct = NP_POLY.polyval(shifted, qc) - a * NP_POLY.polyval(shifted, NP_POLY.polyder(qc))
        coeffs = derivative_line_polynomial(q, b, c, a)
        assert np.polynomial.polynomial.polyval(xs, coeffs) == pytest.approx(direct, abs=1e-12)


class TestPairAgreement:
    # The residue test may be inconclusive; the sampled test is always definite.
    @pytest.mark.parametrize(
        "first, second, agree",
        [
            (HYPERBOLIC, HYPERBOLIC, True),
            (NOT_HYPERBOLIC, NOT_HYPERBOLIC, True),
            (HYPERBOLIC, NOT_HYPERBOLIC, False),
            (NOT_HYPERBOLIC, HYPERBOLIC, False),
            (INCONCLUSIVE, NOT_HYPERBOLIC, True),
            (INCONCLUSIVE, HYPERBOLIC, True),
        ],
    )
    def test_agreement(self, first, second, agree):
        assert pair_agreement(hp.PairReport(first), hp.PairReport(second)) is agree


class TestTaylorShift:
    @pytest.mark.parametrize(
        "coeffs, s",
        [([1.0, 2.0, 3.0], 1.0), ([0.5, -1.0, 0.0, 2.0], -1.5), ([4.0, 0.0, 0.0, 0.0, 1.0], 0.25), ([3.0], 2.0)],
    )
    def test_matches_binomial_expansion(self, coeffs, s):
        # p(x + s) = sum_k c_k (x + s)^k, whose x^j coefficient is sum_k c_k C(k, j) s^(k - j).
        n = len(coeffs) - 1
        expected = [sum(coeffs[k] * math.comb(k, j) * s ** (k - j) for k in range(j, n + 1)) for j in range(n + 1)]
        assert taylor_shift(coeffs, s) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_trailing_zeros_are_dropped(self):
        # 1 + 2x + 0x^2 shifted by 1 is 3 + 2x: the zero top coefficient does not come back.
        assert taylor_shift([1.0, 2.0, 0.0], 1.0).tolist() == [3.0, 2.0]
        assert taylor_shift([0.0, 0.0], 2.0).tolist() == [0.0]


def reference_shift(coeffs, s):
    """numpy's own composition p(x + s)."""
    return np.polynomial.Polynomial(coeffs)(np.polynomial.Polynomial([s, 1.0])).coef


def seeded_coefficients(degree):
    """Ascending coefficient vectors of one degree: plain normals, then with zeros and negative zeros
    scattered in, then with one to three trailing zeros, so that every trimming branch is met."""
    rng = np.random.default_rng(500 + degree)
    plain = rng.standard_normal(degree + 1)
    holes = rng.standard_normal(degree + 1)
    holes[rng.random(degree + 1) < 0.3] = 0.0
    holes[rng.random(degree + 1) < 0.2] = -0.0
    tails = [np.concatenate([rng.standard_normal(degree + 1 - k), np.zeros(k)]) for k in range(1, min(3, degree) + 1)]
    return [plain, holes, np.round(4.0 * plain)] + tails


def seeded_roots(degree):
    """Root vectors of one degree: unsorted normals, a repeated root, and zeros of both signs."""
    rng = np.random.default_rng(600 + degree)
    plain = rng.standard_normal(degree)
    repeated = np.concatenate([rng.standard_normal(degree - degree // 2), np.full(degree // 2, 0.5)])
    zeros = rng.standard_normal(degree)
    zeros[::2] = 0.0
    zeros[::4] = -0.0
    return [plain, rng.permutation(repeated), zeros]


def same_bits(got, want):
    return type(got) is type(want) and np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestNumpyPolynomialReference:
    """The closed-form arithmetic is bitwise numpy.polynomial's."""

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_from_roots(self, degree):
        for roots in seeded_roots(degree):
            assert same_bits(interlace._from_roots(roots), NP_POLY.polyfromroots(roots))
            q = MonicPolynomial.from_roots(roots)
            assert same_bits(q.standard_coefficients(), MonicPolynomial.from_standard(NP_POLY.polyfromroots(roots))._coeffs)

    @pytest.mark.parametrize("degree", range(0, 13))
    def test_derivative(self, degree):
        for c in seeded_coefficients(degree) if degree else [np.array([2.5]), np.array([-0.0])]:
            assert same_bits(interlace._derivative(c), NP_POLY.polyder(c))

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_horner(self, degree):
        rng = np.random.default_rng(700 + degree)
        # Arrays only: a scalar meets numpy's scalar arithmetic in polyval, which _horner never takes.
        points = [
            rng.standard_normal(7),
            rng.standard_normal(5) + 1j * rng.standard_normal(5),
            rng.standard_normal((2, 3)),
            np.array([0.5, -0.0, -2.0]),
        ]
        for c in seeded_coefficients(degree):
            for x in points:
                assert same_bits(interlace._horner(c, x), NP_POLY.polyval(x, c))
        q = MonicPolynomial.from_roots(seeded_roots(degree)[0])
        assert same_bits(interlace._horner(q._coeffs, points[1]), NP_POLY.polyval(points[1], q.standard_coefficients()))
        assert same_bits(interlace._derivative(q._coeffs), NP_POLY.polyder(q.standard_coefficients()))

    @pytest.mark.parametrize("degree", range(0, 13))
    def test_taylor_shift(self, degree):
        rng = np.random.default_rng(800 + degree)
        shifts = [float(rng.standard_normal()), 0.0, -0.0, 2.0, -1.5]
        vectors = seeded_coefficients(degree) if degree else [np.array([3.0]), np.array([0.0]), np.array([-0.0])]
        vectors += [np.zeros(degree + 1), np.concatenate([np.zeros(degree), [-0.0]])]
        for c in vectors:
            for s in shifts:
                assert same_bits(taylor_shift(c, s), reference_shift(c, s))

    def test_coefficients_are_stored_once_read_only(self):
        q = MonicPolynomial((1.0, -2.0))  # x^2 - x + 2
        copy = q.standard_coefficients()
        copy[0] = 99.0
        assert q.standard_coefficients().tolist() == [2.0, -1.0, 1.0]
        assert not q._coeffs.flags.writeable and standard_coefficients(q) is q._coeffs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interlace_suite_matches_the_numpy_polynomial_route(self, monkeypatch, seed):
        ours = experiments.run_suite("interlace", seed, 40, 1)
        counts = {"from_roots": 0, "derivative": 0, "horner": 0}
        references = {
            "from_roots": lambda roots: NP_POLY.polyfromroots(np.asarray(roots, dtype=float)),
            "derivative": NP_POLY.polyder,
            "horner": lambda coeffs, x: NP_POLY.polyval(x, coeffs),
        }
        for name, fn in references.items():
            monkeypatch.setattr(interlace, f"_{name}", counted(counts, name, fn))
        assert json.dumps(experiments.run_suite("interlace", seed, 40, 1)) == json.dumps(ours)
        assert all(counts.values())


class TestSymmetricConvexLine:
    def test_one_evaluation_per_grid_point_and_midpoint(self, monkeypatch):
        # The 9 grid points, then their 36 midpoints, in one eigvals call on one stack.
        stacks, counts = record_extractions(monkeypatch)
        grid = np.linspace(0.0, 1.0, 9)
        report = hp.symmetric_convex_line_check(Q2, R2, 0.0, 0.0, "max", grid)
        assert report.convex and len(report.values) == 9
        qc, rc = standard_coefficients(Q2), standard_coefficients(R2)
        assert_rows_are_sweep(stacks, counts, qc, rc, (0.0, 1.0), (1.0, -1.0), grid)

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


class TestSweepGridCap:
    def test_grid_past_the_cap_is_refused_before_the_pairs(self, monkeypatch):
        grid = np.linspace(-1.0, 1.0, interlace.SWEEP_GRID_CAP + 1)
        stacks, counts = record_extractions(monkeypatch)
        monkeypatch.setattr(np, "triu_indices", lambda *args: pytest.fail("pairs built past the cap"))
        with pytest.raises(BudgetExceededError, match="line sweep cap"):
            hp.symmetric_convex_line_check(Q2, R2, 0.0, 0.0, "max", grid)
        with pytest.raises(BudgetExceededError, match="line sweep cap"):
            hp.derivative_line_convexity(Q2, 0.0, 1.0, 1, grid)
        assert stacks == [] and counts == {"eigvals": 0}

    def test_grid_at_the_cap_is_swept(self):
        grid = np.linspace(-1.0, 1.0, interlace.SWEEP_GRID_CAP)
        report = hp.derivative_line_convexity(Q2, 0.0, 1.0, 1, grid)
        assert report.convex and len(report.values) == interlace.SWEEP_GRID_CAP


class TestOneSweepPerLineCheck:
    def test_the_grid_is_sorted_and_paired_once(self, monkeypatch):
        sweeps, pairs = [], []
        original_sweep, original_triu = interlace._sweep, np.triu_indices
        monkeypatch.setattr(interlace, "_sweep", lambda grid: sweeps.append(grid) or original_sweep(grid))
        monkeypatch.setattr(np, "triu_indices", lambda *args: pairs.append(args) or original_triu(*args))
        grid = np.linspace(1.0, -1.0, 9)
        hp.symmetric_convex_line_check(Q2, R2, 0.0, 0.0, "max", grid)
        assert len(sweeps) == len(pairs) == 1
        hp.derivative_line_convexity(Q2, 0.0, 1.0, 1, grid)
        assert len(sweeps) == len(pairs) == 2


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


class TestPairSpectrum:
    def test_matches_companion_pencil_and_taylor_shift_route(self):
        # The pair spectrum at (x, y, z) against two references on 240 pairs of degree 2..7:
        # the eigenvalues of x C_q + y C_r + z I, and the retired route that Taylor-shifts
        # q and r by -z/L, takes the roots of the combination and scales them by L = x + y.
        rng = np.random.default_rng(5)
        for i in range(240):
            degree = 2 + i % 6
            q, r = gen.hyperbolic_pair(rng, degree)
            while True:
                x, y, z = rng.uniform(-2.0, 2.0, size=3)
                if abs(x + y) > 0.1:
                    break
            lam = hp.pair_spectrum(q, r, 1e-7)((x, y, z))
            pencil = x * hp.companion(q) + y * hp.companion(r) + z * np.eye(degree)
            eig_route = np.sort(np.linalg.eigvals(pencil).real)[::-1]
            shift = -z / (x + y)
            qs, rs = (taylor_shift(p.standard_coefficients(), shift) for p in (q, r))
            coeffs = x * qs + y * rs
            shift_route = np.sort((x + y) * hp.real_roots_from_coefficients(coeffs, 1e-7))[::-1]
            scale = max(1.0, float(np.max(np.abs(lam))))
            assert lam == pytest.approx(eig_route, rel=1e-8, abs=1e-8 * scale)
            assert lam == pytest.approx(shift_route, rel=1e-8, abs=1e-8 * scale)

    def test_unequal_degrees_rejected(self):
        with pytest.raises(InvalidDocumentError):
            hp.pair_spectrum(Q2, MonicPolynomial((0.0,)), 1e-7)

    def test_non_hyperbolic_pair_raises(self):
        # Only directions where the pencil keeps its degree: at t = 3 pi / 4, x + y is about 1e-16 and the
        # point is refused with InvalidDocumentError.  Every other direction returns or raises
        # NonRealRootError, and at least one raises.
        q, r = gen.nonhyperbolic_pair(np.random.default_rng(1), 3)
        spectrum = hp.pair_spectrum(q, r, 1e-8)
        raised = []
        for t in np.linspace(0.0, np.pi, 65):
            x, y = math.cos(t), math.sin(t)
            if abs(x + y) > 1e3 * interlace.LEADING_TRIM:
                raised.append(isinstance(outcome(spectrum, (x, y, 0.0)), str))
        assert len(raised) == 64 and any(raised)


def outcome(fn, *args):
    """fn's report, or the message of the NonRealRootError it raises."""
    try:
        return fn(*args)
    except NonRealRootError as exc:
        return f"NonRealRootError: {exc}"


def pair_cases():
    """Hyperbolic and non-hyperbolic pairs of degree 2..6, with a few pencil points each."""
    rng = np.random.default_rng(95)
    for i in range(40):
        degree = 2 + i % 5
        q, r = (gen.hyperbolic_pair if i % 2 == 0 else gen.nonhyperbolic_pair)(rng, degree)
        yield q, r, rng


class TestPairSpectrumStack:
    def test_stack_rows_equal_point_calls(self):
        # Random points with a repeat, minus those with non-real roots: a stack gives bitwise the spectra of
        # one call per point and of the point route, the roots of x q + y r scaled by x + y and shifted by z.
        full = 0
        for q, r, rng in pair_cases():
            points = rng.uniform(-2.0, 2.0, size=(12, 3))
            points[7] = points[2]
            spectrum = hp.pair_spectrum(q, r, 1e-8)
            qc, rc = standard_coefficients(q), standard_coefficients(r)
            real = np.array([p for p in points if not isinstance(outcome(spectrum, p), str)]).reshape(-1, 3)
            stacked = spectrum(real)
            assert stacked.shape == (len(real), q.degree)
            for (x, y, z), lam in zip(real, stacked):
                want = np.sort((x + y) * hp.real_roots_from_coefficients(x * qc + y * rc, 1e-8) + z)[::-1]
                assert lam.tobytes() == want.tobytes() == spectrum((x, y, z)).tobytes()
            if len(real) == 12:
                assert spectrum(real.reshape(3, 4, 3)).tobytes() == stacked.tobytes()
                full += 1
        assert 20 <= full < 40

    def test_degree_dropping_points_are_refused(self):
        # Where x + y vanishes the pencil x q + y r loses its degree (at x = y = 0 it is zero): such a point
        # is refused alone and in a stack.
        q, r = gen.hyperbolic_pair(np.random.default_rng(5), 3)
        spectrum = hp.pair_spectrum(q, r, 1e-8)
        for point in ([0.0, 0.0, 0.5], [0.5, -0.5, 2.0], [1.0, -1.0 + 1e-14, 0.0]):
            with pytest.raises(InvalidDocumentError, match="loses its degree"):
                spectrum(point)
            with pytest.raises(InvalidDocumentError, match="loses its degree"):
                spectrum(np.array([[1.0, 0.5, 0.0], point]))
        assert spectrum([1.0, 0.5, 0.0]).shape == (3,)

    def test_non_real_stack_raises_the_first_rows_message(self):
        # The first point with non-real roots in stack order raises, with the message that
        # real_roots_from_coefficients gives on its pencil alone.
        q, r = gen.nonhyperbolic_pair(np.random.default_rng(1), 3)
        thetas = np.linspace(0.0, np.pi, 65)
        points = np.column_stack([np.cos(thetas), np.sin(thetas), np.zeros(65)])
        points = points[np.abs(points[:, 0] + points[:, 1]) > 1e-9]
        qc, rc = standard_coefficients(q), standard_coefficients(r)
        messages = [outcome(hp.real_roots_from_coefficients, x * qc + y * rc, 1e-8) for x, y, _ in points]
        missing = [i for i, message in enumerate(messages) if isinstance(message, str)]
        assert 1 < len(missing) < len(points) - 1
        spectrum = hp.pair_spectrum(q, r, 1e-8)
        for start in (0, missing[0] + 1):
            first = next(i for i in missing if i >= start)
            assert outcome(spectrum, points[start:]) == outcome(spectrum, points[first]) == messages[first]
        assert outcome(spectrum, points[::-1]) == messages[missing[-1]]
        assert len({messages[i] for i in missing}) > 1

    @pytest.mark.parametrize("stat", ["max", "sum_abs", "topk_sum:2", "neg_bottomk_sum:1"])
    def test_line_check_matches_unprefetched_sweep(self, stat):
        grid = np.linspace(-1.0, 2.0, 9)
        for q, r, rng in pair_cases():
            b, c = rng.uniform(-1.0, 1.0, size=2)
            tol = 1e-7
            report = outcome(hp.symmetric_convex_line_check, q, r, b, c, stat, grid, tol)
            direct = outcome(
                hp.spectral_line_convexity, hp.pair_spectrum(q, r, tol), q.degree, (0.0, 1.0, -b), (1.0, -1.0, -c), stat, grid, tol
            )
            assert report == direct


def _roots_along_direction(oracle):
    """The spectrum map of an oracle: its roots along its own direction."""
    return lambda v: hp.roots_in_direction(oracle, v, oracle.direction)


@pytest.fixture(scope="module")
def seven_forms(esym_oracle, vamos_oracle):
    """Seven hyperbolic forms, three of which no symmetric pencil represents."""
    return {
        "product5": hp.product_oracle(5),
        "symmetric4": gen.symmetric_matrix_oracle(4),
        "pencil4x6": gen.random_determinantal_oracle(np.random.default_rng(4), 4, m=6),
        "e2_5": esym_oracle(2, 5),
        "e3_6": esym_oracle(3, 6),
        "e4_7": esym_oracle(4, 7),
        "vamos": vamos_oracle,
    }


class TestGenericSpectralChecks:
    FORMS = ["product5", "symmetric4", "pencil4x6", "e2_5", "e3_6", "e4_7", "vamos"]

    @pytest.mark.parametrize("name", FORMS)
    def test_lidskii_on_every_form(self, seven_forms, name):
        oracle = seven_forms[name]
        rng = np.random.default_rng(30)
        for _ in range(30):
            x, y = rng.standard_normal((2, oracle.m))
            report = hp.hyperbolic_lidskii(_roots_along_direction(oracle), x, y, 1e-7)
            assert report.majorized, report

    @pytest.mark.parametrize("stat", ["max", "sum_abs", "topk_sum:2", "neg_bottomk_sum:2"])
    @pytest.mark.parametrize("name", FORMS)
    def test_line_convexity_on_every_form(self, seven_forms, name, stat):
        oracle = seven_forms[name]
        x0, dx = np.random.default_rng(31).standard_normal((2, oracle.m))
        grid = np.linspace(-1.0, 1.0, 9)
        assert hp.spectral_line_convexity(_roots_along_direction(oracle), oracle.n, x0, dx, stat, grid, 1e-7).convex

    def test_matrix_spectrum_is_lidskii_check(self):
        # eigvalsh is the spectrum map of symmetric matrices: the generic check returns lidskii_check's report.
        rng = np.random.default_rng(32)
        a, b = (0.5 * (m + m.T) for m in rng.standard_normal((2, 4, 4)))
        generic = hp.hyperbolic_lidskii(lambda m: np.linalg.eigvalsh(m)[..., ::-1], a, b, 1e-8)
        assert generic == hp.lidskii_check(a, b, 1e-8)

    def test_matrix_stack_equals_row_calls(self):
        # The eigvalsh map on a (2, 3, 4, 4) stack of symmetric matrices gives bitwise each matrix's spectrum.
        mats = np.random.default_rng(34).standard_normal((2, 3, 4, 4))
        mats = mats + np.swapaxes(mats, -1, -2)
        spectrum = lambda m: np.linalg.eigvalsh(m)[..., ::-1]
        assert spectrum(mats).tobytes() == np.array([[spectrum(m) for m in row] for row in mats]).tobytes()

    def test_statistic_k_above_degree_rejected(self, seven_forms):
        oracle = seven_forms["e2_5"]
        spectrum = _roots_along_direction(oracle)
        with pytest.raises(InvalidDocumentError):
            hp.spectral_line_convexity(spectrum, oracle.n, np.ones(5), np.ones(5), "topk_sum:3", [0.0, 1.0], 1e-7)


def derivative_line_trial_by_sweeps(seed, trial):
    """The derivative line trial through ``spectral_line_convexity`` for every k and one
    ``majorization_check`` per pair of nonnegative grid points."""
    rng = gen.rng_for(seed, 100, trial)
    degree = 2 + trial % 4
    q = MonicPolynomial.from_roots(gen._separated_roots(rng, degree))
    grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.25), 10)
    qc = q.standard_coefficients()
    q_minus_dq = MonicPolynomial.from_standard(qc - np.pad(NP_POLY.polyder(qc), (0, 1)))
    spectrum = interlace.pair_spectrum(q_minus_dq, q, 1e-7)
    x0, dx = np.array([0.0, 1.0, 0.0]), np.array([1.0, -1.0, -1.0])
    at_zero = grid.tolist().index(0.0)
    ok, slack = True, math.inf
    for k in range(1, degree + 1):
        sweep = interlace.spectral_line_convexity(spectrum, degree, x0, dx, f"topk_sum:{k}", grid, 1e-7)
        ok = ok and sweep.convex and min(sweep.values) >= sweep.values[at_zero] - 1e-7
    ok = ok and np.ptp(sweep.values) <= 1e-9 * max(1.0, float(np.max(np.abs(sweep.values))))
    nonneg = [float(a) for a in grid if a >= 0.0]
    for i, a in enumerate(nonneg):
        for b in nonneg[i + 1 :]:
            rep = interlace.majorization_check(spectrum(x0 + a * dx), spectrum(x0 + b * dx), tol=1e-7)
            ok = ok and rep.majorized
            slack = min(slack, min(rep.prefix_gaps))
    return {"ok": bool(ok), "slack": float(slack)}


class TestDerivativeLineTrial:
    @pytest.mark.parametrize("trial", range(4))
    def test_one_extraction_for_the_sweep(self, monkeypatch, trial):
        # The 9-point grid of the trial, then its 36 midpoints, in one eigvals call; every k and the
        # majorization pairs read their spectra from it.
        stacks, counts = record_extractions(monkeypatch)
        result = experiments._derivative_line_trial((0, trial))
        assert result["ok"]
        q = MonicPolynomial.from_roots(gen._separated_roots(gen.rng_for(0, 100, trial), 2 + trial % 4))
        q_minus_dq = q.standard_coefficients() - np.pad(NP_POLY.polyder(q.standard_coefficients()), (0, 1))
        grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.25), 10)
        assert_rows_are_sweep(stacks, counts, q_minus_dq, q.standard_coefficients(), (0.0, 1.0), (1.0, -1.0), grid)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_route_through_line_sweeps(self, seed):
        # The top-k sums of every k come from one cumsum of the 17 spectra; verdict and slack are bitwise
        # those of one sweep per k and one majorization check per pair.
        for trial in range(12):
            assert experiments._derivative_line_trial((seed, trial)) == derivative_line_trial_by_sweeps(seed, trial)


TRIAL_GRID = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.25), 10)


def separated_q(seed, degree):
    return MonicPolynomial.from_roots(gen._separated_roots(np.random.default_rng(seed), degree))


def minus_derivative_spectrum(q):
    qc = q.standard_coefficients()
    return hp.pair_spectrum(MonicPolynomial.from_standard(qc - np.pad(NP_POLY.polyder(qc), (0, 1))), q, 1e-7)


class TestDerivativeLineSweep:
    @pytest.mark.parametrize("degree", range(2, 8))
    def test_values_are_derivative_line_convexity_bitwise(self, degree):
        # Below k = 8 a cumsum column and np.sum of the top k roots agree bit for bit, so the CLI and the
        # interlace suite read one source of numbers.
        q = separated_q(400 + degree, degree)
        sweep = hp.derivative_line_sweep(q)
        values = np.array(sweep.values)
        assert values.shape == (9, degree)
        reports = [hp.derivative_line_convexity(q, 0.0, 1.0, k, TRIAL_GRID) for k in range(1, degree + 1)]
        for k, report in enumerate(reports, start=1):
            assert np.array(report.values).tobytes() == values[:, k - 1].tobytes()
        assert sweep.convex == all(r.convex for r in reports) and sweep.convex
        assert sweep.min_at_zero == all(r.min_at_zero for r in reports) and sweep.min_at_zero
        assert sweep.fn_constant and sweep.majorized
        assert hp.derivative_line_sweep(q) == sweep

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_nine_top_sums_stay_np_sum(self, seed):
        # derivative_line_convexity sums the top k roots with np.sum, whose pairwise order differs in the
        # last bit from a cumsum column from k = 8 on; its values must stay np.sum.
        q = separated_q(500 + seed, 9)
        points = np.array([0.0, 1.0, 0.0]) + TRIAL_GRID[:, None] * np.array([1.0, -1.0, -1.0])
        spectra = minus_derivative_spectrum(q)(points)
        cumsum = np.array(hp.derivative_line_sweep(q).values)
        differs = False
        for k in (8, 9):
            values = np.array(hp.derivative_line_convexity(q, 0.0, 1.0, k, TRIAL_GRID).values)
            assert values.tobytes() == np.sum(spectra[:, :k], axis=-1).tobytes()
            differs = differs or values.tobytes() != cumsum[:, k - 1].tobytes()
        assert differs

    def test_one_extraction_one_sort_and_one_pairing(self, monkeypatch):
        sweeps, pairs = [], []
        original_sweep, original_triu = interlace._sweep, np.triu_indices
        monkeypatch.setattr(interlace, "_sweep", lambda grid: sweeps.append(grid) or original_sweep(grid))
        monkeypatch.setattr(np, "triu_indices", lambda *args: pairs.append(args) or original_triu(*args))
        stacks, counts = record_extractions(monkeypatch)
        q = separated_q(13, 4)
        hp.derivative_line_sweep(q)
        assert len(sweeps) == len(pairs) == 1
        qc = q.standard_coefficients()
        q_minus_dq = qc - np.pad(NP_POLY.polyder(qc), (0, 1))
        assert_rows_are_sweep(stacks, counts, q_minus_dq, qc, (0.0, 1.0), (1.0, -1.0), TRIAL_GRID)

    def test_slack_is_the_least_prefix_gap_over_pairs_with_both_points_nonnegative(self):
        q = separated_q(16, 4)
        report = hp.derivative_line_sweep(q)
        spectrum = minus_derivative_spectrum(q)
        nonneg = [a for a in TRIAL_GRID.tolist() if a >= 0.0]
        gaps = [
            min(hp.majorization_check(spectrum((a, 1.0 - a, -a)), spectrum((b, 1.0 - b, -b)), 1e-7).prefix_gaps)
            for i, a in enumerate(nonneg)
            for b in nonneg[i + 1 :]
        ]
        assert len(gaps) == 10 and report.majorized
        assert report.slack == min(gaps)

    def test_nonreal_q_raises(self):
        with pytest.raises(NonRealRootError):
            hp.derivative_line_sweep(MonicPolynomial.from_standard([1.0, 0.0, 1.0]))
