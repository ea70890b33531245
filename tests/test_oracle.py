import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly.errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InvalidDocumentError,
    NearSingularDirectionWarning,
)


@pytest.fixture
def sym3():
    return gen.symmetric_matrix_oracle(3)


def diag_oracle(n):
    """Pencil of diagonal indicator matrices: M((x_1..x_n)) = diag(x)."""
    mats = [np.diag(np.eye(n)[i]) for i in range(n)]
    return hp.determinantal_oracle(mats, np.ones(n))


class TestEvaluate:
    def test_product_definition(self):
        assert hp.evaluate(hp.product_oracle(2), [2.0, 3.0]) == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "oracle",
        [
            hp.product_oracle(3),
            gen.symmetric_matrix_oracle(3),
            hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0]),
        ],
    )
    def test_normalized_at_direction(self, oracle):
        assert hp.evaluate(oracle, oracle.direction) == pytest.approx(1.0, abs=1e-12)

    def test_identity_pencil(self):
        oracle = hp.determinantal_oracle([np.eye(2)], [1.0])
        assert hp.evaluate(oracle, [3.0]) == pytest.approx(9.0)

    def test_determinantal_matches_det(self, sym3):
        rng = np.random.default_rng(0)
        a = gen.random_psd_matrix(rng, 3)
        assert hp.evaluate(sym3, gen.matrix_to_point(a)) == pytest.approx(np.linalg.det(a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hp.evaluate(hp.product_oracle(2), [1.0, 2.0, 3.0])

    @given(
        c=st.floats(-3.0, 3.0, allow_subnormal=False).filter(lambda v: v == 0.0 or abs(v) > 1e-6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, seed):
        oracle = gen.symmetric_matrix_oracle(3)
        x = np.random.default_rng(seed).standard_normal(oracle.m)
        lhs = hp.evaluate(oracle, c * x)
        rhs = c**oracle.n * hp.evaluate(oracle, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestRestriction:
    def test_product_squared(self):
        coeffs = hp.univariate_restriction(hp.product_oracle(2), [0.0, 0.0], [1.0, 1.0])
        assert coeffs == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_product_shifted(self):
        coeffs = hp.univariate_restriction(hp.product_oracle(2), [1.0, 2.0], [1.0, 1.0])
        assert coeffs == pytest.approx([2.0, 3.0, 1.0], abs=1e-11)

    def test_determinantal_matches_characteristic_polynomial(self, sym3):
        # Independent route: det(tI + M(x)) expanded from the eigenvalues of M(x).
        rng = np.random.default_rng(1)
        x = rng.standard_normal(sym3.m)
        mat = hp.pencil_matrix(sym3, x)
        expected = np.polynomial.polynomial.polyfromroots(-np.linalg.eigvalsh(mat))
        coeffs = hp.univariate_restriction(sym3, x, sym3.direction)
        assert coeffs == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_endpoint_coefficients(self, sym3, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(sym3.m)
        d = rng.standard_normal(sym3.m)
        coeffs = hp.univariate_restriction(sym3, x, d)
        assert coeffs[-1] == pytest.approx(hp.evaluate(sym3, d), rel=1e-9, abs=1e-10)
        assert coeffs[0] == pytest.approx(hp.evaluate(sym3, x), rel=1e-9, abs=1e-10)


class TestRoots:
    def test_product_sorted(self):
        lam = hp.roots_in_direction(hp.product_oracle(3), [3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert lam == pytest.approx([3.0, 2.0, 1.0])

    def test_determinantal_eigenvalues(self, sym3):
        rng = np.random.default_rng(2)
        a = gen.random_psd_matrix(rng, 3)
        lam = hp.roots_in_direction(sym3, gen.matrix_to_point(a), sym3.direction)
        assert lam == pytest.approx(np.sort(np.linalg.eigvalsh(a))[::-1])

    def test_positive_scaling(self, sym3):
        rng = np.random.default_rng(3)
        x = gen.nonnegative_point_tuple(sym3, rng, 1)[0]
        lam = hp.roots_in_direction(sym3, x, sym3.direction, check_direction=False)
        lam_scaled = hp.roots_in_direction(sym3, 2.5 * x, sym3.direction, check_direction=False)
        assert lam_scaled == pytest.approx(2.5 * lam, rel=1e-9, abs=1e-9)

    def test_rejects_outside_direction(self, sym3):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(sym3.m)
        with pytest.raises(DegenerateDirectionError):
            hp.roots_in_direction(sym3, x, -np.asarray(sym3.direction))

    @pytest.mark.parametrize("seed", range(6))
    def test_generalized_eig_agrees_with_companion_route(self, sym3, seed):
        # Same spectrum through the dense interpolation + companion path.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(sym3.m)
        d = gen.positive_point_tuple(sym3, rng, 1)[0]
        lam = hp.roots_in_direction(sym3, x, d)
        coeffs = hp.univariate_restriction(sym3, x, -d)
        lam2 = hp.real_roots_from_coefficients(coeffs, 1e-6)
        assert lam == pytest.approx(lam2, abs=1e-7)

    def test_root_product_is_value(self, sym3):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(sym3.m)
        lam = hp.roots_in_direction(sym3, x, sym3.direction, check_direction=False)
        assert np.prod(lam) == pytest.approx(hp.evaluate(sym3, x), rel=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_root_monotonicity(self, sym3, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(sym3.m)
        y = gen.nonnegative_point_tuple(sym3, rng, 1)[0]
        lam_x = hp.roots_in_direction(sym3, x, sym3.direction, check_direction=False)
        lam_xy = hp.roots_in_direction(sym3, x + y, sym3.direction, check_direction=False)
        assert np.all(lam_xy >= lam_x - 1e-9 * np.maximum(1.0, np.abs(lam_x)))


class TestTrace:
    def test_product_formula(self):
        assert hp.trace_in_direction(hp.product_oracle(2), [2.0, 3.0], [1.0, 2.0]) == pytest.approx(3.5)

    def test_determinantal_trace(self, sym3):
        rng = np.random.default_rng(6)
        a = gen.random_psd_matrix(rng, 3)
        got = hp.trace_in_direction(sym3, gen.matrix_to_point(a), sym3.direction)
        assert got == pytest.approx(np.trace(a))

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, sym3, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, sym3.m))
        d = gen.positive_point_tuple(sym3, rng, 1)[0]
        both = hp.trace_in_direction(sym3, x + y, d)
        split = hp.trace_in_direction(sym3, x, d) + hp.trace_in_direction(sym3, y, d)
        assert both == pytest.approx(split, rel=1e-9, abs=1e-9)
        assert hp.trace_in_direction(sym3, 3.0 * x, d) == pytest.approx(
            3.0 * hp.trace_in_direction(sym3, x, d), rel=1e-9, abs=1e-9
        )

    def test_trace_is_root_sum(self, sym3):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(sym3.m)
        d = gen.positive_point_tuple(sym3, rng, 1)[0]
        assert hp.trace_in_direction(sym3, x, d) == pytest.approx(
            float(np.sum(hp.roots_in_direction(sym3, x, d))), rel=1e-8, abs=1e-8
        )

    def test_trace_matches_restriction_ratio(self, sym3):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(sym3.m)
        d = gen.positive_point_tuple(sym3, rng, 1)[0]
        coeffs = hp.univariate_restriction(sym3, x, d)
        assert hp.trace_in_direction(sym3, x, d) == pytest.approx(
            coeffs[sym3.n - 1] / coeffs[sym3.n], rel=1e-8
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: hp.product_oracle(3),
            lambda: gen.symmetric_matrix_oracle(3),
            lambda: hp.dense_from_oracle(gen.random_determinantal_oracle(np.random.default_rng(13), 3, 3)),
        ],
        ids=["product", "determinantal", "dense"],
    )
    def test_traces_match_restriction_ratio_on_every_form(self, make):
        oracle = make()
        rng = np.random.default_rng(8)
        d = gen.positive_point_tuple(oracle, rng, 1)[0]
        points = rng.standard_normal((4, oracle.m))
        ratios = []
        for x in points:
            coeffs = hp.univariate_restriction(oracle, x, d)
            ratios.append(coeffs[oracle.n - 1] / coeffs[oracle.n])
            assert hp.trace_in_direction(oracle, x, d) == pytest.approx(ratios[-1], rel=1e-9)
        assert hp.traces_in_direction(oracle, points, d) == pytest.approx(ratios, rel=1e-9)

    def test_zero_direction_value_rejected(self):
        oracle = hp.product_oracle(2)
        with pytest.raises(DegenerateDirectionError):
            hp.trace_in_direction(oracle, [1.0, 1.0], [1.0, 0.0])

    def test_near_singular_warning(self):
        oracle = hp.product_oracle(2)
        with pytest.warns(NearSingularDirectionWarning):
            hp.trace_in_direction(oracle, [1.0, 1.0], [1.0, 1e-14])


class TestRankAndCone:
    def test_direction_has_full_rank(self, sym3):
        assert hp.hyperbolic_rank(sym3, sym3.direction) == 3

    def test_zero_point(self, sym3):
        assert hp.hyperbolic_rank(sym3, np.zeros(sym3.m)) == 0

    def test_diagonal_rank_one(self):
        oracle = diag_oracle(2)
        assert hp.hyperbolic_rank(oracle, [1.0, 0.0]) == 1

    def test_cone_classifications(self):
        oracle = diag_oracle(2)
        assert hp.cone_membership(oracle, [1.0, 1.0]) == hp.POSITIVE
        assert hp.cone_membership(oracle, [-1.0, -1.0]) == hp.OUTSIDE
        assert hp.cone_membership(oracle, [1.0, 0.0]) == hp.NONNEGATIVE


class TestHyperbolicitySampling:
    def test_product_passes(self):
        assert hp.hyperbolicity_sample_test(hp.product_oracle(3), 25, seed=0).verdict

    def test_symmetric_pencil_passes(self, sym3):
        assert hp.hyperbolicity_sample_test(sym3, 25, seed=0).verdict

    def test_sum_of_squares_fails(self):
        oracle = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
        report = hp.hyperbolicity_sample_test(oracle, 25, seed=0)
        assert not report.verdict
        assert report.counterexample is not None

    def test_non_hyperbolic_roots_raise(self):
        from hyperpoly.errors import NonRealRootError

        oracle = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
        with pytest.raises(NonRealRootError):
            hp.roots_in_direction(oracle, [0.5, 1.0], oracle.direction, check_direction=False)


class TestEulerIdentity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: hp.product_oracle(3),
            lambda: gen.symmetric_matrix_oracle(3),
            lambda: gen.random_square_determinantal_oracle(np.random.default_rng(11), 3),
        ],
    )
    def test_euler(self, make):
        oracle = make()
        rng = np.random.default_rng(9)
        alpha = rng.uniform(0.3, 2.0, oracle.m)
        total = sum(alpha[i] * hp.partial_derivative(oracle, alpha, i) for i in range(oracle.m))
        assert total == pytest.approx(oracle.n * hp.evaluate(oracle, alpha), rel=1e-7)


class TestJson:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: hp.product_oracle(4),
            lambda: gen.symmetric_matrix_oracle(3),
            lambda: hp.dense_oracle(2, 3, {(3, 0): 0.25, (1, 2): 0.75}, [1.0, 1.0]),
        ],
    )
    def test_round_trip(self, make):
        oracle = make()
        doc = hp.oracle_to_json(oracle)
        loaded = hp.oracle_from_json(doc)
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.standard_normal(oracle.m)
            assert hp.evaluate(loaded, x) == pytest.approx(hp.evaluate(oracle, x), rel=1e-10, abs=1e-12)

    def test_rejects_asymmetric_matrix(self):
        doc = {
            "kind": "determinantal",
            "n": 2,
            "m": 1,
            "matrices": [[[1.0, 0.5], [0.0, 1.0]]],
            "direction": [1.0],
        }
        with pytest.raises(InvalidDocumentError):
            hp.oracle_from_json(doc)

    def test_rejects_inhomogeneous_dense(self):
        doc = {
            "kind": "dense",
            "n": 2,
            "m": 2,
            "terms": [{"exps": [1, 0], "coef": 1.0}],
            "direction": [1.0, 1.0],
        }
        with pytest.raises(InvalidDocumentError):
            hp.oracle_from_json(doc)

    def test_rejects_indefinite_direction_gram(self):
        doc = {
            "kind": "determinantal",
            "n": 2,
            "m": 1,
            "matrices": [[[1.0, 0.0], [0.0, -1.0]]],
            "direction": [1.0],
        }
        with pytest.raises(InvalidDocumentError):
            hp.oracle_from_json(doc)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidDocumentError):
            hp.oracle_from_json({"kind": "mystery"})

    def test_normalization_recorded(self):
        rng = np.random.default_rng(12)
        pencil = [gen.random_psd_matrix(rng, 3) for _ in range(3)]
        oracle = hp.determinantal_oracle(pencil, np.ones(3))
        assert oracle.metadata["congruence_applied"]
        assert hp.evaluate(oracle, oracle.direction) == pytest.approx(1.0, abs=1e-10)
