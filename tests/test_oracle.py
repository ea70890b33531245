import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly import oracle as oracle_module
from hyperpoly.errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InvalidDocumentError,
    NearSingularDirectionWarning,
    NonRealRootError,
)
from hyperpoly.interlace import MonicPolynomial, real_roots
from hyperpoly.oracle import (
    DEFAULT_CONE_TOL,
    DEFAULT_RANK_TOL,
    DEFAULT_ROOT_TOL,
    DensePolynomial,
    DeterminantalPolynomial,
    Form,
    _chebyshev_interpolation,
    chebyshev_restriction,
    classify_spectrum,
)
from references import looped_dense_gradient, matrix_to_point, oracle_to_json, partial_derivative, symmetric_basis


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
        assert hp.evaluate(sym3, matrix_to_point(a)) == pytest.approx(np.linalg.det(a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hp.evaluate(hp.product_oracle(2), [1.0, 2.0, 3.0])

    # p(i, 1) = i: a cast to float would give 0.0.  evaluate_batch is the entry that takes complex rows.
    @pytest.mark.parametrize("point", [np.array([1j, 1.0]), [1j, 1.0]], ids=["array", "list"])
    def test_complex_point_is_refused(self, point, sym3):
        with pytest.raises(InvalidDocumentError, match="evaluate_batch"):
            hp.evaluate(hp.product_oracle(2), point)
        with pytest.raises(InvalidDocumentError, match="evaluate_batch"):
            hp.roots_in_direction(sym3, [1j, 0.0, 1.0, 0.0, 0.0, 1.0], sym3.direction)
        assert hp.evaluate_batch(hp.product_oracle(2), np.array([point])).tolist() == [1j]

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


class TestDenseNormalization:
    @pytest.mark.parametrize("c", [1.0, 1e13, 1e-13])
    def test_vanishing_is_judged_against_the_size_of_the_terms(self, c):
        # p(e) = 1.5 c is far from zero next to sum |c_t| |e|^alpha_t = 1.5 |c| at every scale.
        oracle = hp.dense_oracle(2, 2, {(1, 1): c, (2, 0): c / 2}, [1.0, 1.0])
        reference = hp.dense_oracle(2, 2, {(1, 1): 1.0, (2, 0): 0.5}, [1.0, 1.0])
        assert oracle.form.coefficients == pytest.approx(reference.form.coefficients, rel=1e-15)

    def test_polynomial_vanishing_at_the_direction_is_rejected(self):
        with pytest.raises(InvalidDocumentError, match="vanishes"):
            hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): -1.0}, [1.0, 1.0])


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
        lam = hp.roots_in_direction(sym3, matrix_to_point(a), sym3.direction)
        assert lam == pytest.approx(np.sort(np.linalg.eigvalsh(a))[::-1])

    def test_positive_scaling(self, sym3):
        rng = np.random.default_rng(3)
        x = gen.nonnegative_point_tuple(sym3, rng, 1)[0]
        lam = hp.roots_in_direction(sym3, x, sym3.direction)
        lam_scaled = hp.roots_in_direction(sym3, 2.5 * x, sym3.direction)
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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_determinantal_roots_match_generalized_eigh(self, n):
        # scipy's generalized symmetric eigensolver is the reference for the Cholesky reduction.
        rng = np.random.default_rng(40 + n)
        for oracle in (gen.symmetric_matrix_oracle(n), gen.random_determinantal_oracle(rng, n, 4)):
            x = rng.standard_normal(oracle.m)
            for d in (oracle.direction, gen.positive_point_tuple(oracle, rng, 1)[0]):
                expected = linalg.eigh(oracle.form.matrix(x), oracle.form.matrix(d), eigvals_only=True)[::-1]
                lam = hp.roots_in_direction(oracle, x, d)
                assert lam == pytest.approx(expected, rel=1e-12, abs=1e-12 * float(np.max(np.abs(expected))))

    @pytest.mark.parametrize("own", [True, False], ids=["own_direction", "other_direction"])
    def test_stack_equals_point_calls(self, own):
        # A stack of points, shape (2, 3, m), gives each point's roots along one direction: bitwise for the
        # gathered symmetric basis and the product form; a stored pencil and a dense form multiply the whole
        # stack in one matrix product, whose rounding may differ from a single row's in the last bits.
        rng = np.random.default_rng(41)
        dense = hp.dense_oracle(3, 2, {(1, 1, 0): 1.0, (0, 1, 1): 1.0, (1, 0, 1): 1.0}, np.ones(3))
        oracles = (gen.symmetric_matrix_oracle(3), hp.product_oracle(4), gen.random_determinantal_oracle(rng, 3, 4), dense)
        for exact, oracle in zip((True, True, False, False), oracles):
            d = oracle.direction if own else gen.positive_point_tuple(oracle, rng, 1)[0]
            points = rng.standard_normal((2, 3, oracle.m))
            stacked = hp.roots_in_direction(oracle, points, d)
            rows = np.array([[hp.roots_in_direction(oracle, x, d) for x in row] for row in points])
            assert stacked.shape == (2, 3, oracle.n)
            if exact:
                assert stacked.tobytes() == rows.tobytes()
            else:
                assert stacked == pytest.approx(rows, rel=1e-12, abs=1e-12 * float(np.max(np.abs(rows))))

    def test_stack_shapes_are_checked(self, sym3):
        # Points of the wrong width are refused; the direction and a cone membership query take one point.
        with pytest.raises(DimensionMismatchError):
            hp.roots_in_direction(sym3, np.ones((2, sym3.m + 1)), sym3.direction)
        with pytest.raises(DimensionMismatchError):
            hp.roots_in_direction(sym3, np.ones(sym3.m), np.ones((1, sym3.m)))
        with pytest.raises(DimensionMismatchError):
            hp.cone_membership(sym3, np.ones((2, sym3.m)))

    def test_determinantal_indefinite_direction_unchecked(self, sym3):
        d = matrix_to_point(np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(DegenerateDirectionError):
            hp.roots_in_direction(sym3, sym3.direction, d)

    def test_root_product_is_value(self, sym3):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(sym3.m)
        lam = hp.roots_in_direction(sym3, x, sym3.direction)
        assert np.prod(lam) == pytest.approx(hp.evaluate(sym3, x), rel=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_root_monotonicity(self, sym3, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(sym3.m)
        y = gen.nonnegative_point_tuple(sym3, rng, 1)[0]
        lam_x = hp.roots_in_direction(sym3, x, sym3.direction)
        lam_xy = hp.roots_in_direction(sym3, x + y, sym3.direction)
        assert np.all(lam_xy >= lam_x - 1e-9 * np.maximum(1.0, np.abs(lam_x)))


class TestTrace:
    def test_product_formula(self):
        assert hp.trace_in_direction(hp.product_oracle(2), [2.0, 3.0], [1.0, 2.0]) == pytest.approx(3.5)

    def test_determinantal_trace(self, sym3):
        rng = np.random.default_rng(6)
        a = gen.random_psd_matrix(rng, 3)
        got = hp.trace_in_direction(sym3, matrix_to_point(a), sym3.direction)
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

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
    def test_cone_classification_is_scale_free(self, sym3, c):
        # The threshold is relative to the largest root, so c x has the class of x.
        product = hp.product_oracle(3)
        cases = [
            (product, [1.0, 2.0, 3.0], hp.POSITIVE),
            (product, [1.0, 0.0, 2.0], hp.NONNEGATIVE),
            (product, [1.0, -1.0, 2.0], hp.OUTSIDE),
            (sym3, matrix_to_point(np.diag([1.0, 2.0, 3.0]) + 0.2), hp.POSITIVE),
            (sym3, matrix_to_point(np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0])), hp.NONNEGATIVE),
            (sym3, matrix_to_point(np.diag([1.0, -1.0, 2.0])), hp.OUTSIDE),
        ]
        for oracle, x, expected in cases:
            assert hp.cone_membership(oracle, c * np.asarray(x)) == expected

    @pytest.mark.parametrize("c", [1.0, 1e4, 1e6])
    def test_dense_form_matches_product_form_at_large_scale(self, c):
        # p(x) ~ c^3 dwarfs the restriction's leading coefficient p(-d) = -1; all three roots must survive.
        product = hp.product_oracle(3)
        dense = hp.dense_from_oracle(product)
        for x in ([1.0, 2.0, 3.0], [1.0, -2.0, 3.0]):
            x = c * np.asarray(x)
            expected = hp.roots_in_direction(product, x, [1.0, 1.0, 1.0])
            assert hp.roots_in_direction(dense, x, [1.0, 1.0, 1.0]) == pytest.approx(expected, rel=1e-9)
            assert hp.hyperbolic_rank(dense, x) == hp.hyperbolic_rank(product, x)
            assert hp.cone_membership(dense, x) == hp.cone_membership(product, x)

    def test_roots_along_a_tiny_interior_direction(self, sym3):
        # 1e-12 e is strictly inside the cone, and its roots are 1e12 times those along e.
        cases = [(hp.product_oracle(3), [1.0, 2.0, 3.0]), (sym3, matrix_to_point(np.diag([1.0, 2.0, 3.0])))]
        for oracle, x in cases:
            expected = 1e12 * hp.roots_in_direction(oracle, x, oracle.direction)
            assert hp.roots_in_direction(oracle, x, 1e-12 * oracle.direction) == pytest.approx(expected, rel=1e-12)


def _stack_cases():
    """(oracle, stack of e-nonnegative points with a few zero roots, interior direction) per form."""
    rng = np.random.default_rng(41)
    product = hp.product_oracle(4)
    pattern = rng.random((6, 4)) < 0.6
    sym = gen.symmetric_matrix_oracle(4)
    ranges = [rng.standard_normal((4, r)) for r in (1, 2, 2, 3, 4, 4)]
    pencil = gen.random_determinantal_oracle(rng, 3, 4)
    # Dense roots need distinct roots, so its boundary points keep a single zero root.
    dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, 3, 3))
    return [
        (product, pattern * rng.uniform(0.5, 2.0, (6, 4)), rng.uniform(0.5, 2.0, 4)),
        (sym, gen.matrix_points([v @ v.T for v in ranges]), gen.positive_point_tuple(sym, rng, 1)[0]),
        (pencil, gen.nonnegative_point_tuple(pencil, rng, 6, 0.5), gen.positive_point_tuple(pencil, rng, 1)[0]),
        (dense, gen.nonnegative_point_tuple(dense, rng, 6, 0.5), gen.positive_point_tuple(dense, rng, 1)[0]),
    ]


def _row_roots(oracle, x):
    """The roots of t -> p(x - t e) from this row's own Chebyshev fit, cheb2poly and companion eigvals."""
    count = oracle.n + 1
    radius = 1.0 + float(np.linalg.norm(x))
    s = np.cos((2 * np.arange(count) + 1) * np.pi / (2 * count))
    values = hp.evaluate_batch(oracle, x[None, :] - (radius * s)[:, None] * oracle.direction[None, :])
    power = np.polynomial.chebyshev.cheb2poly(np.polynomial.chebyshev.chebfit(s, values, oracle.n))
    coeffs = np.pad(power, (0, count - power.size)) / radius ** np.arange(count)
    return real_roots(MonicPolynomial.from_standard(coeffs), DEFAULT_ROOT_TOL)


class TestStackedRoots:
    @pytest.mark.parametrize("case", range(4))
    def test_stack_matches_rows(self, case):
        oracle, stack, d = _stack_cases()[case]
        for direction in (oracle.direction, d):
            rows = np.stack([oracle.form.roots(x, direction, DEFAULT_ROOT_TOL) for x in stack])
            # M(x) of a stack is one matrix product, whose rounding may differ from a row's.
            close = {"rtol": 0.0, "atol": 1e-13 * float(np.max(np.abs(rows)))}
            np.testing.assert_allclose(oracle.form.roots(stack, direction, DEFAULT_ROOT_TOL), rows, **close)
        # Any leading shape: (2, 3, m) gives (2, 3, n).
        nested = oracle.form.roots(stack.reshape(2, 3, oracle.m), oracle.direction, DEFAULT_ROOT_TOL)
        assert nested.shape == (2, 3, oracle.n)
        flat = oracle.form.roots(stack, oracle.direction, DEFAULT_ROOT_TOL)
        np.testing.assert_allclose(nested.reshape(6, oracle.n), flat, **close)

    @pytest.mark.parametrize("case", range(4))
    def test_stacked_rank_matches_rows(self, case):
        oracle, stack, _ = _stack_cases()[case]
        ranks = hp.hyperbolic_rank(oracle, stack)
        assert ranks.tolist() == [hp.hyperbolic_rank(oracle, x) for x in stack]
        assert min(ranks) < oracle.n  # the stack reaches the boundary
        if oracle.kind != "dense":  # the zero point's repeated roots defeat the dense root finder
            assert hp.hyperbolic_rank(oracle, np.vstack([stack, np.zeros(oracle.m)]))[-1] == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dense_stack_matches_row_by_row_fits(self, n):
        rng = np.random.default_rng(50 + n)
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, 3))
        stack = gen.positive_point_tuple(dense, rng, 8)
        rows = np.stack([_row_roots(dense, x) for x in stack])
        np.testing.assert_allclose(dense.form.roots(stack, dense.direction, DEFAULT_ROOT_TOL), rows, rtol=1e-10, atol=0)

    def test_non_real_row_in_a_stack_raises_on_the_worst_root(self):
        # x_1^2 + x_2^2 - x_3^2 has two positive squares, so it is not hyperbolic in direction (1, 0, 0):
        # the roots x_1 +- sqrt(x_3^2 - x_2^2) of a row are real only when |x_3| >= |x_2|.
        oracle = hp.dense_oracle(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): -1.0}, [1.0, 0.0, 0.0])
        stack = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 3.0], [0.0, 3.0, 1.0], [1.0, 0.5, 0.0]])
        real = oracle.form.roots(stack[:2], oracle.direction, DEFAULT_ROOT_TOL)
        np.testing.assert_allclose(real, [[2.0, 0.0], [5.0, -1.0]], rtol=0.0, atol=1e-12)
        with pytest.raises(NonRealRootError) as caught:
            oracle.form.roots(stack, oracle.direction, DEFAULT_ROOT_TOL)
        assert abs(caught.value.root.imag) == pytest.approx(8.0**0.5)

    def test_rank_of_a_point_is_an_int(self, sym3):
        assert type(hp.hyperbolic_rank(sym3, sym3.direction)) is int

    def test_stack_of_the_wrong_width_is_rejected(self, sym3):
        with pytest.raises(DimensionMismatchError):
            hp.hyperbolic_rank(sym3, np.ones((2, sym3.m + 1)))


def _generalized_rank_and_class(oracle, x):
    """Rank and cone class of x from scipy's generalized eigenvalues of (M(x), M(e)), by the rules
    of ``hyperbolic_rank`` and ``cone_membership``.  Rank is defined on the closed cone only (outside
    it the largest root may be a zero root whose sign is rounding), so a point outside has rank None."""
    lam = linalg.eigh(oracle.form.matrix(x), oracle.form.matrix(oracle.direction), eigvals_only=True)[::-1]
    cls = classify_spectrum(lam, DEFAULT_CONE_TOL)
    if cls == hp.OUTSIDE:
        return None, cls
    return (int(np.sum(lam > DEFAULT_RANK_TOL * lam[0])) if lam[0] > 0.0 else 0), cls


def _rank_and_class(oracle, x):
    cls = hp.cone_membership(oracle, x)
    return (None if cls == hp.OUTSIDE else hp.hyperbolic_rank(oracle, x)), cls


def _signed_low_rank_points(rng, n, count):
    """Points V diag(signs) V^T of the symmetric basis, V of n x r with r drawn from 1..n; on about 30% of
    them each sign is -1 with probability 1/3.  Every rank, on the boundary, inside and outside the cone."""
    mats = []
    for _ in range(count):
        v = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        signs = np.where(rng.random(v.shape[1]) < 1 / 3, -1.0, 1.0) if rng.random() < 0.3 else 1.0
        mats.append((v * signs) @ v.T)
    return gen.matrix_points(mats)


class TestNormalizedRoots:
    """Along the oracle's own direction a pencil's roots are eigvalsh(M(x)), with no Cholesky of M(e)."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rank_and_cone_match_generalized_eigh_after_congruence(self, n):
        rng = np.random.default_rng(60 + n)
        g = rng.standard_normal((n, n))
        basis = hp.determinantal_oracle(symmetric_basis(n), matrix_to_point(g @ g.T + 0.5 * np.eye(n)))
        pencil = gen.random_determinantal_oracle(rng, n, 4)
        cases = [
            (basis, _signed_low_rank_points(rng, n, 40)),
            (pencil, gen.nonnegative_point_tuple(pencil, rng, 20, 0.5)),
            (pencil, rng.standard_normal((20, pencil.m))),
        ]
        seen = []
        for oracle, stack in cases:
            assert oracle.metadata["congruence_applied"]
            expected = [_generalized_rank_and_class(oracle, x) for x in stack]
            assert [_rank_and_class(oracle, x) for x in stack] == expected
            inside = [rank is not None for rank, _ in expected]
            ranks = [rank for rank, _ in expected if rank is not None]
            assert hp.hyperbolic_rank(oracle, stack[inside]).tolist() == ranks
            seen += expected
        assert {cls for _, cls in seen} == {hp.POSITIVE, hp.NONNEGATIVE, hp.OUTSIDE}
        assert min(rank for rank, _ in seen if rank is not None) < n

    def test_rank_and_cone_match_generalized_eigh_without_congruence(self):
        # M(e) is I up to 4e-13, inside the 1e-12 within which no congruence is applied.
        n = 5
        rng = np.random.default_rng(70)
        g = rng.standard_normal((n, n))
        basis = symmetric_basis(n).copy()
        basis[0] += 4e-13 * (g + g.T) / np.max(np.abs(g + g.T))
        oracle = hp.determinantal_oracle(basis, gen.symmetric_matrix_oracle(n).direction)
        gram = oracle.form.matrix(oracle.direction)
        assert not oracle.metadata["congruence_applied"]
        assert 0.0 < np.max(np.abs(gram - np.eye(n))) <= 1e-12
        stack = _signed_low_rank_points(rng, n, 40)
        expected = [_generalized_rank_and_class(oracle, x) for x in stack]
        assert [_rank_and_class(oracle, x) for x in stack] == expected
        assert {rank for rank, _ in expected} == {None, *range(1, n + 1)}
        assert {cls for _, cls in expected} == {hp.POSITIVE, hp.NONNEGATIVE, hp.OUTSIDE}

    @pytest.mark.parametrize("case", range(4))
    def test_stack_matches_rows(self, case):
        oracle, stack, _ = _stack_cases()[case]
        e = oracle.direction
        rows = np.stack([oracle.form.normalized_roots(x, e, DEFAULT_ROOT_TOL) for x in stack])
        close = {"rtol": 0.0, "atol": 1e-13 * float(np.max(np.abs(rows)))}
        np.testing.assert_allclose(oracle.form.normalized_roots(stack, e, DEFAULT_ROOT_TOL), rows, **close)
        np.testing.assert_allclose(oracle.form.roots(stack, e, DEFAULT_ROOT_TOL), rows, **close)

    def test_unnormalized_pencils_are_only_evaluated(self, monkeypatch):
        # mixed_discriminant's pencil and polarization's tuple pencil do not have M(e) = I.
        def refuse(*args):
            raise AssertionError("an unnormalized pencil reached normalized_roots")

        rng = np.random.default_rng(71)
        mats = [gen.random_psd_matrix(rng, 3) for _ in range(3)]
        oracle = gen.random_determinantal_oracle(rng, 3, 3)
        points = gen.positive_point_tuple(oracle, rng, 3)
        monkeypatch.setattr(DeterminantalPolynomial, "normalized_roots", refuse)
        assert hp.mixed_discriminant(mats) > 0.0
        assert hp.mixed_value(oracle, points) > 0.0


def _root_count(lam):
    """Nonzero roots of a descending spectrum, by the rule of ``hyperbolic_rank``."""
    size = np.abs(lam)
    return int(np.sum(size > DEFAULT_RANK_TOL * np.max(size)))


class TestRankOutsideTheCone:
    """Rank counts the roots whose size is above tol times the largest size, on and off the cone."""

    @pytest.mark.parametrize("seed", range(10))
    def test_negated_rank_one_point_reads_rank_one(self, seed):
        # -v v^T has roots -|v|^2, 0, 0; the sign of a computed zero root must not decide its rank.
        rng = np.random.default_rng(80 + seed)
        g = rng.standard_normal((3, 3))
        oracle = hp.determinantal_oracle(symmetric_basis(3), matrix_to_point(g @ g.T + 0.5 * np.eye(3)))
        assert oracle.metadata["congruence_applied"]
        stack = gen.matrix_points([-np.outer(v, v) for v in rng.standard_normal((8, 3))])
        assert hp.hyperbolic_rank(oracle, stack).tolist() == [1] * 8
        assert [hp.hyperbolic_rank(oracle, x) for x in stack] == [1] * 8
        cholesky = oracle.form.roots(stack, oracle.direction, DEFAULT_ROOT_TOL)
        assert [_root_count(lam) for lam in cholesky] == [1] * 8

    def test_negated_direction_has_full_rank(self, sym3):
        # -e has the n-fold root -1, which the dense root finder splits, so dense forms are left out.
        pencil = gen.random_determinantal_oracle(np.random.default_rng(81), 4, 3)
        for oracle in (hp.product_oracle(3), sym3, pencil):
            assert hp.hyperbolic_rank(oracle, -oracle.direction) == oracle.n

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_rank_is_scale_free_outside_the_cone(self, sym3, c):
        product = hp.product_oracle(3)
        cases = [
            (product, [1.0, -1.0, 0.0], 2),
            (product, [-2.0, 0.0, 0.0], 1),
            (sym3, matrix_to_point(np.diag([1.0, -1.0, 0.0])), 2),
            (sym3, matrix_to_point(np.diag([-3.0, -1.0, 2.0])), 3),
        ]
        for oracle, x, rank in cases:
            x = np.asarray(x)
            assert hp.cone_membership(oracle, x) == hp.OUTSIDE
            assert hp.hyperbolic_rank(oracle, c * x) == hp.hyperbolic_rank(oracle, x) == rank
        rng = np.random.default_rng(90)
        stack = _signed_low_rank_points(rng, 4, 40)
        oracle = gen.symmetric_matrix_oracle(4)
        outside = [hp.cone_membership(oracle, x) == hp.OUTSIDE for x in stack]
        assert sum(outside) > 0
        ranks = hp.hyperbolic_rank(oracle, stack[outside])
        assert hp.hyperbolic_rank(oracle, c * stack[outside]).tolist() == ranks.tolist()
        assert ranks.tolist() == [np.linalg.matrix_rank(gen.point_to_matrix(x, 4)) for x in stack[outside]]


def _points_with_a_zero_coordinate(oracle, points):
    """Each point with each of its coordinates set to zero in turn, kept where p does not vanish."""
    found = []
    for x in points:
        for i in range(oracle.m):
            y = x.copy()
            y[i] = 0.0
            if abs(hp.evaluate(oracle, y)) > 1e-6 * np.linalg.norm(y) ** oracle.n:
                found.append(y)
    return found


class TestDenseGradient:
    """The one-expression term differentiation of ``DensePolynomial.grad_log_p`` against a per-coordinate loop."""

    def _check(self, oracle, points):
        for d in points:
            expected = looped_dense_gradient(oracle.form, d) / hp.evaluate(oracle, d)
            got = oracle.form.grad_log_p(d)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_loop_on_dense_pencils(self, n):
        rng = np.random.default_rng(100 + n)
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, 3))
        interior = gen.positive_point_tuple(dense, rng, 6)
        zeros = _points_with_a_zero_coordinate(dense, interior)
        assert zeros
        self._check(dense, list(interior) + zeros)

    def test_matches_loop_on_vamos(self, vamos_oracle):
        rng = np.random.default_rng(107)
        interior = rng.uniform(0.2, 2.0, (6, 8))
        zeros = _points_with_a_zero_coordinate(vamos_oracle, interior)
        assert len(zeros) == 6 * 8  # every element avoids some basis, so p > 0 with one coordinate at zero
        self._check(vamos_oracle, list(interior) + zeros)

    def test_value_comes_from_the_gradient_table(self, monkeypatch):
        # Euler's identity n p(d) = d . grad p(d): grad_log_p evaluates no monomial table besides its own, so
        # interior_gradient evaluates p once at the restriction's n + 1 nodes and once at d.
        rng = np.random.default_rng(108)
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, 4, 3))
        d = gen.positive_point_tuple(dense, rng, 1)[0]
        rows = []
        original = DensePolynomial.evaluate_batch

        def recorded(form, pts):
            rows.append(len(pts))
            return original(form, pts)

        monkeypatch.setattr(DensePolynomial, "evaluate_batch", recorded)
        dense.form.grad_log_p(d)
        assert rows == []
        value, grad = dense.form.interior_gradient(d, dense.direction, DEFAULT_RANK_TOL)
        assert rows == [dense.n + 1, 1]
        assert value == hp.evaluate(dense, d) and grad is not None


def _dense_table_cases(esym_oracle, vamos_oracle):
    """(oracle, points inside its cone): dense expansions of m = 3 pencils at n = 2..6, Vamos and e_2."""
    for n in range(2, 7):
        rng = np.random.default_rng([112, n])
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, 3))
        yield dense, gen.positive_point_tuple(dense, rng, 4)
    rng = np.random.default_rng(113)
    yield vamos_oracle, rng.uniform(0.2, 2.0, (4, 8))
    yield esym_oracle(2, 5), rng.uniform(0.2, 2.0, (4, 5))


class TestDenseDerivativeTable:
    """``dense_oracle`` builds the lowered exponents and their factors once per form; ``grad_log_p`` reads
    them, and the document does not carry them."""

    def test_gradient_matches_term_differentiation_and_differences(self, esym_oracle, vamos_oracle):
        for oracle, points in _dense_table_cases(esym_oracle, vamos_oracle):
            exps = oracle.form.exponents
            assert np.array_equal(oracle.form.lowered, np.maximum(exps - np.eye(oracle.m, dtype=int)[:, None, :], 0))
            assert np.array_equal(oracle.form.factors, exps.T)
            for d in points:
                got = oracle.form.grad_log_p(d)
                expected = looped_dense_gradient(oracle.form, d) / hp.evaluate(oracle, d)
                np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))
                h = 1e-6 * np.eye(oracle.m)
                logs = [math.log(hp.evaluate(oracle, d + s * h[i])) for i in range(oracle.m) for s in (1.0, -1.0)]
                central = (np.asarray(logs[::2]) - np.asarray(logs[1::2])) / 2e-6
                np.testing.assert_allclose(got, central, rtol=1e-6, atol=1e-8 * np.max(np.abs(got)))

    def test_gradient_builds_no_table(self, vamos_oracle, monkeypatch):
        rng = np.random.default_rng(114)
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, 4, 3))
        expected = [oracle.form.grad_log_p(np.full(oracle.m, 1.5)) for oracle in (dense, vamos_oracle)]

        def no_eye(*args, **kwargs):
            raise AssertionError("grad_log_p built an identity matrix")

        monkeypatch.setattr(np, "eye", no_eye)
        for oracle, grad in zip((dense, vamos_oracle), expected):
            assert oracle.form.grad_log_p(np.full(oracle.m, 1.5)).tobytes() == grad.tobytes()

    def test_document_is_unchanged(self):
        oracle = hp.dense_oracle(2, 3, {(3, 0): 0.5, (1, 2): 1.5}, [1.0, 1.0])
        assert oracle_to_json(oracle) == {
            "kind": "dense",
            "n": 3,
            "m": 2,
            "terms": [{"exps": [1, 2], "coef": 0.75}, {"exps": [3, 0], "coef": 0.25}],
            "direction": [1.0, 1.0],
        }
        loaded = hp.oracle_from_json(oracle_to_json(oracle))
        for name in ("exponents", "coefficients", "lowered", "factors"):
            assert getattr(loaded.form, name).tobytes() == getattr(oracle.form, name).tobytes()


class _SecondElementaryForm(Form):
    """e_2(x_1, x_2, x_3) / 3, known only by its evaluation and gradient: every other protocol method is
    the base class's."""

    n = 2
    kind = "e2"

    def evaluate_batch(self, pts):
        x, y, z = pts.T
        return (x * y + x * z + y * z) / 3.0

    def grad_log_p(self, d):
        return (d.sum() - d) / (d[0] * d[1] + d[0] * d[2] + d[1] * d[2])


class TestFormBase:
    """A form that supplies only its four protocol members, n, kind, evaluate_batch and grad_log_p, runs
    every solver, in agreement with the dense form of the same polynomial."""

    @pytest.fixture
    def pair(self, esym_oracle):
        bare = hp.HyperbolicOracle(form=_SecondElementaryForm(), n=2, m=3, direction=np.ones(3))
        return bare, esym_oracle(2, 3)

    def test_roots_rank_and_cone(self, pair):
        bare, dense = pair
        rng = np.random.default_rng(110)
        points = np.vstack([rng.standard_normal((6, 3)), rng.uniform(0.0, 2.0, (6, 3)), np.eye(3)])
        for d in (bare.direction, np.array([1.0, 2.0, 3.0])):
            for x in points:
                expected = hp.roots_in_direction(dense, x, d)
                assert hp.roots_in_direction(bare, x, d) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert hp.hyperbolic_rank(bare, points).tolist() == hp.hyperbolic_rank(dense, points).tolist()
        assert [hp.cone_membership(bare, x) for x in points] == [hp.cone_membership(dense, x) for x in points]
        assert hp.hyperbolic_rank(bare, np.eye(3)).tolist() == [1, 1, 1]

    def test_capacity_sinkhorn_and_mixed_value(self, pair):
        bare, dense = pair
        rng = np.random.default_rng(111)
        for _ in range(4):
            points = rng.uniform(0.2, 2.0, (2, 3))
            got, expected = hp.capacity(bare, points), hp.capacity(dense, points)
            assert (got.status, got.iterations) == (expected.status, expected.iterations)
            assert got.value == pytest.approx(expected.value, rel=1e-12)
            got, expected = hp.sinkhorn_iteration(bare, points), hp.sinkhorn_iteration(dense, points)
            assert (got.capacity_verdict, got.iterations) == (expected.capacity_verdict, expected.iterations)
            np.testing.assert_allclose(got.defect_history, expected.defect_history, rtol=0.0, atol=1e-15)
            assert hp.mixed_value(bare, points) == pytest.approx(hp.mixed_value(dense, points), rel=1e-12)


def _interior_table(vamos_oracle):
    """(oracle, interior, boundary and random points) for every form of the certificate table: dense
    expansions of m = 3 pencils with n = 2..6, the Vamos form, the bare e_2 form, a product and a
    symmetric-basis form.  Points come from the roots of the pencil where there is one: 40 with smallest
    root in [0.2, 1.2), 40 shifted along e onto a zero root, and 40 standard normal."""
    rng = np.random.default_rng(120)
    cases = []
    for n in range(2, 7):
        base = gen.random_determinantal_oracle(rng, n, 3)
        cases.append((hp.dense_from_oracle(base), base))
    bare = hp.HyperbolicOracle(form=_SecondElementaryForm(), n=2, m=3, direction=np.ones(3))
    cases += [(o, o) for o in (vamos_oracle, bare, hp.product_oracle(4), gen.symmetric_matrix_oracle(4))]
    for oracle, reference in cases:
        inside = gen.positive_point_tuple(reference, rng, 40)
        boundary = gen.nonnegative_point_tuple(reference, rng, 40, boundary_fraction=1.0)
        yield oracle, inside, boundary, rng.standard_normal((40, oracle.m))


class TestInteriorCertificate:
    """``Form.interior`` against the classification of the form's own roots, row by row: companion roots
    on an evaluation-only form, eigvalsh on a pencil and x / e on a product."""

    @pytest.mark.parametrize("ratio", [1e-10, 1e-9])
    def test_agrees_with_the_roots_on_every_row(self, vamos_oracle, ratio, monkeypatch):
        compared = 0
        for oracle, inside, boundary, random in _interior_table(vamos_oracle):
            e, form = oracle.direction, oracle.form
            evaluation_only = type(form).interior is Form.interior
            for points in (inside, boundary, random):
                lam = [form.normalized_roots(x, e, DEFAULT_ROOT_TOL) for x in points]
                expected = [classify_spectrum(row, ratio) == hp.POSITIVE for row in lam]
                companion = []
                with monkeypatch.context() as patched:
                    original = oracle_module.real_roots_of_rows
                    patched.setattr(
                        oracle_module, "real_roots_of_rows", lambda c, tol: companion.append(len(c)) or original(c, tol)
                    )
                    got = form.interior(points, e, ratio)
                assert got.tolist() == expected
                compared += len(points)
                if points is inside:
                    # Every interior row is certified: no companion matrix is formed.
                    assert all(expected) and companion == []
                elif points is boundary:
                    # No boundary row is certified: an evaluation-only form takes the roots of every one, and
                    # its answer is theirs (at 1e-10 a companion root of rounding noise may still read POSITIVE).
                    assert companion == ([len(points)] if evaluation_only else [])
                    assert evaluation_only or not any(expected)
        assert compared == 9 * 120

    def test_no_row_with_two_zero_roots_is_certified(self, monkeypatch):
        # Rounding leaves the two low coefficients as noise of either sign, which alone would pass the
        # certificate about one time in four; the companion, patched to record its rows and answer NaN (no
        # class), must see every row.
        rng = np.random.default_rng(123)
        cases = [(hp.dense_from_oracle(hp.product_oracle(n)), n) for n in range(3, 7)]
        cases += [(hp.dense_from_oracle(gen.symmetric_matrix_oracle(n)), n) for n in (3, 4)]
        companion = []

        def no_class(coeffs, tol):
            companion.append(len(coeffs))
            return coeffs[..., 1:] * np.nan

        monkeypatch.setattr(oracle_module, "real_roots_of_rows", no_class)
        for oracle, n in cases:
            if oracle.m == n:  # the product form: two or more coordinates at zero
                points = rng.uniform(0.2, 2.0, (100, n))
                for row in points:
                    row[rng.permutation(n)[: int(rng.integers(2, n + 1))]] = 0.0
            else:  # the symmetric basis: V V^T of rank at most n - 2
                points = gen.matrix_points([v @ v.T for v in rng.standard_normal((100, n, n - 2))])
            companion.clear()
            assert not oracle.form.interior(points, oracle.direction, 1e-10).any()
            assert companion == [len(points)]

    def test_the_ratio_decides_a_thin_point(self, monkeypatch):
        # x_3 = 2e-10 (x_1 + x_2) on the dense product form: the certificate c_0 c_3 > ratio c_1 c_2 holds at
        # ratio 1e-10, with no companion, and fails at 1e-9, where the roots x_i decide (not POSITIVE).
        dense = hp.dense_from_oracle(hp.product_oracle(3))
        big = np.random.default_rng(124).uniform(0.5, 2.0, (20, 2))
        points = np.column_stack([big, 2e-10 * big.sum(axis=1)])
        companion = []
        original = oracle_module.real_roots_of_rows
        monkeypatch.setattr(
            oracle_module, "real_roots_of_rows", lambda c, tol: companion.append(len(c)) or original(c, tol)
        )
        assert dense.form.interior(points, dense.direction, 1e-10).all() and companion == []
        assert not dense.form.interior(points, dense.direction, 1e-9).any() and companion == [len(points)]

    def test_one_point_gives_one_flag(self, vamos_oracle):
        # -x has the roots of x negated; -e would be an n-fold root, which the companion matrix splits.
        rng = np.random.default_rng(122)
        for oracle in (vamos_oracle, hp.product_oracle(3), gen.symmetric_matrix_oracle(3)):
            x = gen.positive_point_tuple(oracle, rng, 1)[0]
            got = oracle.form.interior(x, oracle.direction, 1e-9)
            assert got.shape == () and bool(got)
            assert not oracle.form.interior(-x, oracle.direction, 1e-9)

    def test_cone_membership_takes_no_roots_inside(self, vamos_oracle, monkeypatch):
        calls = []
        monkeypatch.setattr(hp.oracle, "roots_in_direction", lambda *args: calls.append(args))
        x = np.random.default_rng(121).uniform(0.2, 2.0, 8)
        assert hp.cone_membership(vamos_oracle, x) == hp.POSITIVE and calls == []


def _term_sum(exponents, coefficients, z):
    """sum_t c_t prod_j z_j^alpha_tj at each row of z, one term and one factor at a time."""
    return [
        sum(c * math.prod(v**a for v, a in zip(row, alpha)) for alpha, c in zip(exponents.tolist(), coefficients))
        for row in z.tolist()
    ]


def _pencil_det(pencil, z):
    """det(sum_j z_j B_j) at each row of z, the pencil contracted by ``np.tensordot``."""
    return np.linalg.det(np.tensordot(z, pencil, axes=1))


# Each form in the protocol, with an independent reference for its value at complex rows.
COMPLEX_ROW_FORMS = {
    "product": (lambda rng: hp.product_oracle(4), lambda oracle, z: [math.prod(row) for row in z.tolist()]),
    "symmetric": (lambda rng: gen.symmetric_matrix_oracle(3), lambda oracle, z: _pencil_det(symmetric_basis(3), z)),
    "pencil": (
        lambda rng: gen.random_determinantal_oracle(rng, 4, 3),
        lambda oracle, z: _pencil_det(oracle.form.pencil, z),
    ),
    "dense": (
        lambda rng: hp.dense_from_oracle(gen.random_determinantal_oracle(rng, 4, 3)),
        lambda oracle, z: _term_sum(oracle.form.exponents, oracle.form.coefficients, z),
    ),
    "e2": (
        lambda rng: hp.HyperbolicOracle(form=_SecondElementaryForm(), n=2, m=3, direction=np.ones(3)),
        lambda oracle, z: _term_sum(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]), [1 / 3] * 3, z),
    ),
}


class TestComplexRows:
    """Polarization evaluates p at complex points, so every form's ``evaluate_batch`` takes complex rows;
    real rows still reach it as float64."""

    @pytest.mark.parametrize("kind", sorted(COMPLEX_ROW_FORMS))
    def test_complex_rows_match_the_reference(self, kind):
        build, reference = COMPLEX_ROW_FORMS[kind]
        rng = np.random.default_rng(120)
        oracle = build(rng)
        z = rng.standard_normal((8, oracle.m)) + 1j * rng.standard_normal((8, oracle.m))
        got = hp.evaluate_batch(oracle, z)
        expected = np.asarray(reference(oracle, z))
        assert got.dtype == complex
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
        np.testing.assert_allclose(hp.evaluate_batch(oracle, z.conj()), got.conj(), rtol=1e-13, atol=0.0)
        integers = rng.integers(-3, 4, size=(8, oracle.m))
        real = hp.evaluate_batch(oracle, integers)
        assert real.dtype == float
        np.testing.assert_array_equal(real, oracle.form.evaluate_batch(integers.astype(float)))


def _chebfit_restriction(values, radius):
    """Ascending power coefficients of the interpolant of each row of node values, from a least-squares
    ``chebfit`` and ``cheb2poly`` per row, in the variable t = radius * s."""
    count = values.shape[-1]
    s = np.cos((2 * np.arange(count) + 1) * np.pi / (2 * count))
    rows = []
    for row, r in zip(values, radius):
        power = np.polynomial.chebyshev.cheb2poly(np.polynomial.chebyshev.chebfit(s, row, count - 1))
        rows.append(np.pad(power, (0, count - power.size)) / r ** np.arange(count))
    return np.array(rows)


class TestChebyshevRestriction:
    @pytest.mark.parametrize("degree", range(1, 21))
    def test_matches_chebfit_route(self, degree):
        rng = np.random.default_rng(80 + degree)
        m = 3
        seen = []

        def evaluate(pts):
            # Values of no particular polynomial: the interpolation itself is under test.
            seen.append(rng.standard_normal(len(pts)) * 10.0 ** rng.uniform(-3, 3))
            return seen[-1]

        d = rng.standard_normal(m)
        for x in (rng.standard_normal(m), rng.standard_normal((4, m)), rng.standard_normal((2, 3, m))):
            seen.clear()
            coeffs = chebyshev_restriction(evaluate, degree, x, d)
            assert coeffs.shape == x.shape[:-1] + (degree + 1,)
            radius = 1.0 + np.linalg.norm(x.reshape(-1, m), axis=-1)
            expected = _chebfit_restriction(seen[0].reshape(-1, degree + 1), radius)
            got = coeffs.reshape(-1, degree + 1)
            scale = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    def test_table_is_read_only(self):
        for array in _chebyshev_interpolation(6):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


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
            hp.roots_in_direction(oracle, [0.5, 1.0], oracle.direction)


class TestEulerIdentity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: hp.product_oracle(3),
            lambda: gen.symmetric_matrix_oracle(3),
            lambda: gen.random_determinantal_oracle(np.random.default_rng(11), 3, 3),
        ],
    )
    def test_euler(self, make):
        oracle = make()
        rng = np.random.default_rng(9)
        alpha = rng.uniform(0.3, 2.0, oracle.m)
        total = sum(alpha[i] * partial_derivative(oracle, alpha, i) for i in range(oracle.m))
        assert total == pytest.approx(oracle.n * hp.evaluate(oracle, alpha), rel=1e-7)


class TestJson:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: hp.product_oracle(4),
            lambda: gen.symmetric_matrix_oracle(3),
            lambda: hp.dense_oracle(2, 3, {(3, 0): 0.25, (1, 2): 0.75}, [1.0, 1.0]),
            lambda: gen.random_determinantal_oracle(np.random.default_rng(0), 4, 3),
            lambda: hp.dense_from_oracle(hp.product_oracle(4)),
        ],
    )
    def test_round_trip(self, make):
        # The document read back writes the same bytes: the writer takes it from the form's public fields.
        oracle = make()
        doc = oracle_to_json(oracle)
        loaded = hp.oracle_from_json(json.loads(json.dumps(doc)))
        assert json.dumps(oracle_to_json(loaded), sort_keys=True) == json.dumps(doc, sort_keys=True)
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.standard_normal(oracle.m)
            assert hp.evaluate(loaded, x) == pytest.approx(hp.evaluate(oracle, x), rel=1e-10, abs=1e-12)

    def test_documents_of_each_kind(self):
        assert oracle_to_json(hp.product_oracle(4)) == {"kind": "product", "n": 4}
        pencil = gen.random_determinantal_oracle(np.random.default_rng(0), 4, 3)
        assert oracle_to_json(pencil) == {
            "kind": "determinantal",
            "n": 4,
            "m": 3,
            "matrices": pencil.form.pencil.tolist(),
            "direction": [1.0, 1.0, 1.0],
        }

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

    def test_symmetric_oracle_peak_memory(self):
        # The basis once, not a stacked copy and full-size temporaries on top of it.
        basis_bytes = symmetric_basis(40).nbytes
        tracemalloc.start()
        try:
            oracle = gen.symmetric_matrix_oracle(40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * basis_bytes
        assert np.array_equal(oracle.form.matrix(np.eye(oracle.m)), symmetric_basis(40))

    def test_large_pencil_is_symmetrized_block_by_block(self):
        # 820 matrices of 40 x 40 span many blocks: the peak stays near the one stacked copy.
        rng = np.random.default_rng(9)
        mats = symmetric_basis(40)
        mats[40:] += 1e-12 * rng.standard_normal((780, 40, 40))  # M(e) stays the identity
        direction = np.concatenate([np.ones(40), np.zeros(780)])
        tracemalloc.start()
        try:
            oracle = hp.determinantal_oracle(mats, direction)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * mats.nbytes
        assert np.array_equal(oracle.form.pencil, 0.5 * (mats + np.transpose(mats, (0, 2, 1))))
        mats[-1, 0, 39] += 1e-6
        with pytest.raises(InvalidDocumentError, match="pencil matrix 819 "):
            hp.determinantal_oracle(mats, direction)

    def test_congruence_is_applied_block_by_block(self):
        # M(e) of a random PSD pencil is far from I: the congruence is applied in place, a block at a time.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((200, 40, 4))
        mats = a @ np.transpose(a, (0, 2, 1))
        tracemalloc.start()
        try:
            oracle = hp.determinantal_oracle(mats, np.ones(200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle.metadata["congruence_applied"]
        assert peak <= 1.5 * mats.nbytes
        stack = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        eigvals, eigvecs = np.linalg.eigh(np.sum(stack, axis=0))
        w = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
        expected = w @ stack @ w
        expected = 0.5 * (expected + np.transpose(expected, (0, 2, 1)))
        assert np.max(np.abs(oracle.form.pencil - expected)) <= 1e-14 * np.max(np.abs(expected))

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
