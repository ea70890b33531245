import numpy as np
import pytest

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly.errors import GenerationError
from hyperpoly.generators import GeneratorSpec, generate_document
from hyperpoly.interlace import HYPERBOLIC, NOT_HYPERBOLIC, MonicPolynomial
from hyperpoly.oracle import classify_spectrum
from references import (
    grid_filtered_nonhyperbolic_pair,
    matrix_to_point,
    residue_filtered_hyperbolic_pair,
    symmetric_basis,
)


class TestDeterminism:
    @pytest.mark.parametrize("kind", gen.GENERATOR_KINDS)
    def test_same_seed_same_document(self, kind):
        spec = GeneratorSpec(kind=kind, n=3)
        assert generate_document(spec, 11) == generate_document(spec, 11)

    def test_different_seeds_differ(self):
        spec = GeneratorSpec(kind="psd_tuple", n=3)
        assert generate_document(spec, 1) != generate_document(spec, 2)


class TestMatrixTuples:
    def test_psd_tuple_is_psd(self):
        for a in gen.psd_matrix_tuple(np.random.default_rng(0), 4):
            assert np.min(np.linalg.eigvalsh(a)) > 0

    def test_doubly_stochastic_properties(self):
        mats = gen.doubly_stochastic_matrix_tuple(np.random.default_rng(1), 3)
        total = sum(mats)
        assert np.max(np.abs(total - np.eye(3))) < 1e-8
        defect = sum((np.trace(a) - 1.0) ** 2 for a in mats)
        assert defect < 1e-9

    def test_d_doubly_stochastic_defect(self):
        oracle, pts = gen.d_doubly_stochastic_tuple(np.random.default_rng(2), 3)
        assert hp.doubly_stochastic_defect(oracle, pts) < 1e-9

    def test_d_doubly_stochastic_starts_from_capacity_minimizer(self, monkeypatch):
        # A cold Sinkhorn run on this ill-conditioned n = 2 tuple takes 9,089 steps.
        steps = []
        original = gen.sinkhorn_iteration

        def counted(*args, **kwargs):
            report = original(*args, **kwargs)
            steps.append(report.iterations)
            return report

        monkeypatch.setattr(gen, "sinkhorn_iteration", counted)
        oracle, pts = gen.d_doubly_stochastic_tuple(gen.rng_for(745, 91, 0), 2)
        assert hp.doubly_stochastic_defect(oracle, pts) <= 1e-10
        assert len(steps) == 1 and steps[0] <= 5

    def test_rank_deficient_witness(self):
        mats, witness = gen.rank_deficient_matrix_tuple(np.random.default_rng(3), 4)
        assert witness == (0, 1)
        assert np.linalg.matrix_rank(mats[0] + mats[1]) == 1

    def test_rank_deficient_needs_three(self):
        with pytest.raises(GenerationError):
            gen.rank_deficient_matrix_tuple(np.random.default_rng(4), 2)


class TestConePoints:
    def test_positive_points_strictly_inside(self):
        oracle = gen.symmetric_matrix_oracle(3)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng(5), 4)
        for x in pts:
            assert hp.cone_membership(oracle, x) == hp.POSITIVE

    def test_nonnegative_points_never_outside(self):
        oracle = gen.symmetric_matrix_oracle(3)
        pts = gen.nonnegative_point_tuple(oracle, np.random.default_rng(6), 8)
        for x in pts:
            lam = hp.roots_in_direction(oracle, x, oracle.direction)
            assert classify_spectrum(lam, 1e-7) != hp.OUTSIDE


class TestPairs:
    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_hyperbolic_pair_verified(self, degree):
        q, r = gen.hyperbolic_pair(np.random.default_rng(degree), degree)
        assert q.degree == r.degree == degree
        assert hp.obreschkoff_pair_test(q, r).verdict == HYPERBOLIC

    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_nonhyperbolic_pair_grid_visible(self, degree):
        q, r = gen.nonhyperbolic_pair(np.random.default_rng(degree), degree)
        assert hp.obreschkoff_pair_test(q, r).verdict == NOT_HYPERBOLIC
        assert hp.sampled_pencil_test(q, r).verdict == NOT_HYPERBOLIC

    @pytest.mark.parametrize("degree", range(2, 9))
    def test_same_pairs_as_the_residue_and_grid_filters(self, degree):
        # The Bezoutian certificate accepts the first candidate wherever the residue test and the sampled
        # grid did, so both generators draw and emit bitwise the same pairs.
        for seed in range(50):
            for make, reference in (
                (gen.hyperbolic_pair, residue_filtered_hyperbolic_pair),
                (gen.nonhyperbolic_pair, grid_filtered_nonhyperbolic_pair),
            ):
                rng, ref_rng = np.random.default_rng((seed, degree)), np.random.default_rng((seed, degree))
                (q, r), (q_ref, r_ref) = make(rng, degree), reference(ref_rng, degree)
                assert q.a == q_ref.a and r.a == r_ref.a
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def polyfromroots_pair(roots, residues):
    """The pair (q, r), r = q + sum_k a_k prod_(j != k) (x - lambda_j), one polyfromroots per residue."""
    q = MonicPolynomial.from_roots(roots)
    rc = q.standard_coefficients().copy()
    for k, a_k in enumerate(residues):
        basis = np.polynomial.polynomial.polyfromroots(np.delete(roots, k))
        rc[: basis.size] += a_k * basis
    return q, MonicPolynomial.from_standard(rc)


class TestPairFromResidues:
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_deflation_matches_polyfromroots_route(self, degree):
        # Degree 1 divides q by its only factor: the quotient is the constant 1.
        rng = np.random.default_rng(40 + degree)
        for _ in range(50):
            roots = gen._separated_roots(rng, degree)
            residues = rng.uniform(0.2, 2.0, size=degree) * rng.choice([-1.0, 1.0], size=degree)
            q, r = gen._pair_from_residues(roots, residues)
            q_ref, r_ref = polyfromroots_pair(roots, residues)
            assert q == q_ref
            rc, rc_ref = r.standard_coefficients(), r_ref.standard_coefficients()
            assert np.max(np.abs(rc - rc_ref)) <= 1e-12 * np.max(np.abs(rc_ref))


class TestDocumentRoundTrips:
    def test_pair_document_revalidates(self):
        doc = generate_document(GeneratorSpec(kind="hyperbolic_pair", n=4), 7)
        q = MonicPolynomial.from_json(doc["q"])
        r = MonicPolynomial.from_json(doc["r"])
        assert hp.obreschkoff_pair_test(q, r).verdict == HYPERBOLIC

    def test_ds_document_revalidates(self):
        doc = generate_document(GeneratorSpec(kind="doubly_stochastic_tuple", n=3), 8)
        oracle, pts = gen.matrix_tuple_points(doc["matrices"])
        assert hp.doubly_stochastic_defect(oracle, pts) < 1e-8

    def test_rank_deficient_document_revalidates(self):
        doc = generate_document(GeneratorSpec(kind="rank_deficient_tuple", n=3), 9)
        oracle, pts = gen.matrix_tuple_points(doc["matrices"])
        report = hp.edmonds_rado_check(oracle, pts)
        assert not report.holds
        assert list(report.witness) == doc["witness"]


class TestSymmetricBasis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitwise_equal_to_loop_reference(self, n):
        # references.symmetric_basis builds the basis element by element.
        oracle = gen.symmetric_matrix_oracle(n)
        assert np.array_equal(oracle.form.pencil, symmetric_basis(n))
        assert np.array_equal(oracle.direction, [1.0] * n + [0.0] * (n * (n - 1) // 2))
        a = np.random.default_rng(n).standard_normal((n, n))
        a = a + a.T
        coords = [a[i, i] for i in range(n)] + [a[i, j] for i in range(n) for j in range(i + 1, n)]
        assert np.array_equal(matrix_to_point(a), np.asarray(coords))
        assert np.array_equal(gen.point_to_matrix(matrix_to_point(a), n), a)
        assert np.array_equal(gen.matrix_points([a, 2 * a]), np.vstack([coords, 2 * np.asarray(coords)]))


class TestMatrixPointsRefuseAsymmetry:
    """matrix_points reads the upper triangle, so it takes only matrices that ``_symmetrize`` takes."""

    def test_asymmetric_matrix_is_refused(self):
        for call in (gen.matrix_points, gen.matrix_tuple_points):
            with pytest.raises(hp.InvalidDocumentError, match="pencil matrix 1 is not symmetric"):
                call([np.eye(2), [[1, 5], [0, 1]]])

    def test_asymmetry_within_tolerance_is_averaged(self):
        a = np.array([[1.0, 2.0 + 5e-11], [2.0, 1.0]])
        assert gen.matrix_points([a])[0].tolist() == [1.0, 1.0, (2.0 + 5e-11 + 2.0) * 0.5]
        assert a[0, 1] == 2.0 + 5e-11  # the caller's matrix is left as given

    @pytest.mark.parametrize("n", range(3, 13))
    def test_generated_tuples_are_exactly_symmetric(self, n, monkeypatch):
        # Every drawer's matrices equal their transposes bit for bit, so their points are the upper triangle.
        drawn = []
        original = gen.matrix_tuple_points
        monkeypatch.setattr(gen, "matrix_tuple_points", lambda mats: drawn.append(mats) or original(mats))
        rng = np.random.default_rng(0)
        for _ in range(20):
            tuples = [gen.psd_matrix_tuple(rng, n), gen.doubly_stochastic_matrix_tuple(rng, n)]
            tuples.append(gen.rank_deficient_matrix_tuple(rng, n)[0])
            drawn.clear()
            gen.structured_psd_points(rng, n)
            tuples += drawn
            for mats in tuples:
                assert all(np.array_equal(a, a.T) for a in mats)
                expected = np.stack([matrix_to_point(a) for a in mats])
                assert gen.matrix_points(mats).tobytes() == expected.tobytes()
