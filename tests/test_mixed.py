import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly import mixed
from hyperpoly.errors import DimensionMismatchError, InvalidDocumentError
from hyperpoly.mixed import SupportSet
from references import compositions, matrix_to_point

EPS = np.finfo(float).eps


def permanent_of_columns(points):
    """Product-oracle mixed value equals the permanent of the column matrix."""
    return hp.brute_force_permanent(np.asarray(points, dtype=float).T)


class TestMixedValue:
    def test_repeated_point_is_factorial_times_value(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(0)
        x = matrix_to_point(gen.random_psd_matrix(rng, 3))
        got = hp.mixed_value(oracle, np.tile(x, (3, 1)))
        assert got == pytest.approx(6.0 * hp.evaluate(oracle, x), rel=1e-9)

    def test_product_basis(self):
        assert hp.mixed_value(hp.product_oracle(2), np.eye(2)) == pytest.approx(1.0)

    def test_product_equals_permanent(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 2.0, size=(4, 4))
        got = hp.mixed_value(hp.product_oracle(4), pts)
        assert got == pytest.approx(permanent_of_columns(pts), rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_symmetry(self, seed):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(seed)
        pts = np.vstack([matrix_to_point(gen.random_psd_matrix(rng, 3)) for _ in range(3)])
        base = hp.mixed_value(oracle, pts)
        for perm in itertools.permutations(range(3)):
            assert hp.mixed_value(oracle, pts[list(perm)]) == pytest.approx(base, rel=1e-10)

    def test_multilinearity(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((3, oracle.m))
        extra = rng.standard_normal(oracle.m)
        c = 1.7
        bumped = pts.copy()
        bumped[0] = c * pts[0] + extra
        swapped = pts.copy()
        swapped[0] = extra
        lhs = hp.mixed_value(oracle, bumped)
        rhs = c * hp.mixed_value(oracle, pts) + hp.mixed_value(oracle, swapped)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_expansion_identity(self, n):
        # p(sum alpha_i x_i) recovered from mixed values over all compositions.
        oracle = gen.symmetric_matrix_oracle(n)
        rng = np.random.default_rng(n)
        pts = np.vstack([matrix_to_point(gen.random_psd_matrix(rng, n)) for _ in range(n)])
        alpha = rng.uniform(0.2, 1.5, n)
        direct = hp.evaluate(oracle, alpha @ pts)
        total = 0.0
        for r in compositions(n, n):
            weight = np.prod(alpha ** np.asarray(r)) / np.prod([math.factorial(v) for v in r])
            total += weight * hp.mixed_value(oracle, hp.repeated_tuple(pts, r))
        assert total == pytest.approx(direct, rel=1e-8)

    def test_wrong_tuple_size(self):
        with pytest.raises(DimensionMismatchError):
            hp.mixed_value(hp.product_oracle(3), np.eye(2))


class TestMixedDiscriminant:
    def test_two_identities(self):
        assert hp.mixed_discriminant([np.eye(2)] * 2) == pytest.approx(2.0)

    def test_scaled_identity(self):
        got = hp.mixed_discriminant([np.eye(3) / 3.0] * 3)
        assert got == pytest.approx(math.factorial(3) / 3**3, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_diagonal_equals_permanent(self, n):
        rng = np.random.default_rng(n)
        rows = rng.uniform(0.1, 2.0, size=(n, n))
        mats = [np.diag(v) for v in rows]
        assert hp.mixed_discriminant(mats) == pytest.approx(hp.brute_force_permanent(rows), rel=1e-9)

    def test_agrees_with_oracle_mixed_value(self):
        rng = np.random.default_rng(9)
        mats = gen.psd_matrix_tuple(rng, 3)
        oracle, pts = gen.matrix_tuple_points(mats)
        scale = oracle.metadata["gram_determinant"]
        assert hp.mixed_discriminant(mats) == pytest.approx(scale * hp.mixed_value(oracle, pts), rel=1e-9)


class TestRepeatedTuple:
    def test_basic(self):
        pts = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        assert hp.repeated_tuple(pts, (2, 0)).tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert hp.repeated_tuple(pts, (1, 1)).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_middle_only(self):
        pts = np.asarray([[1.0], [2.0], [3.0]])
        assert hp.repeated_tuple(pts, (0, 3, 0)).ravel().tolist() == [2.0, 2.0, 2.0]

    def test_rejects_negative(self):
        with pytest.raises(InvalidDocumentError):
            hp.repeated_tuple(np.eye(2), (-1, 3))


class TestSupport:
    def test_basis_tuple(self):
        sup = hp.support(hp.product_oracle(2), np.eye(2))
        assert sup.members == ((1, 1),)
        assert sup.values[(1, 1)] == pytest.approx(1.0)

    def test_repeated_ones(self):
        sup = hp.support(hp.product_oracle(2), np.ones((2, 2)))
        assert set(sup.members) == {(2, 0), (1, 1), (0, 2)}

    def test_rank_deficient_pair_empty(self):
        mats = [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]
        oracle, pts = gen.matrix_tuple_points(mats)
        assert hp.support(oracle, pts).members == ()

    def test_composition_order_lexicographic(self):
        got = list(compositions(2, 2))
        assert got == [(0, 2), (1, 1), (2, 0)]


class TestPolytopeMembership:
    def test_member(self):
        sup = SupportSet(members=((2, 0), (0, 2)), values={}, threshold=0.0)
        assert hp.polytope_membership((2, 0), sup)

    def test_midpoint(self):
        sup = SupportSet(members=((2, 0), (0, 2)), values={}, threshold=0.0)
        assert hp.polytope_membership((1, 1), sup)

    def test_outside(self):
        sup = SupportSet(members=((2, 0), (1, 1)), values={}, threshold=0.0)
        assert not hp.polytope_membership((0, 2), sup)

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidDocumentError):
            hp.polytope_membership((1, 1), SupportSet(members=(), values={}, threshold=0.0))


class TestNewtonSaturation:
    def test_single_point_support(self):
        report = hp.newton_saturation_check(hp.product_oracle(2), np.eye(2))
        assert report.saturated and report.violations == ()

    @pytest.mark.parametrize("seed", range(5))
    def test_product_instances(self, seed):
        rng = np.random.default_rng(seed)
        oracle, pts = gen.structured_product_points(rng, 4)
        assert hp.newton_saturation_check(oracle, pts).saturated

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_instances(self, seed):
        rng = np.random.default_rng(seed)
        oracle, pts = gen.structured_psd_points(rng, 3)
        assert hp.newton_saturation_check(oracle, pts).saturated


class TestAlexandrovFenchel:
    def test_equal_first_two_points_vanish(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(3)
        pts = np.vstack([matrix_to_point(gen.random_psd_matrix(rng, 3)) for _ in range(3)])
        pts[1] = pts[0]
        assert hp.alexandrov_fenchel_verdict(oracle, pts)["residual"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative_psd_tuples(self, seed):
        oracle = gen.symmetric_matrix_oracle(4)
        rng = np.random.default_rng(seed)
        pts = gen.nonnegative_point_tuple(oracle, rng, 4)
        m_ab, m_aa, m_bb = hp.alexandrov_fenchel_terms(oracle, pts)
        residual = m_ab**2 - m_aa * m_bb
        assert residual >= -1e-9 * max(1.0, m_ab**2, abs(m_aa * m_bb))

    def test_diagonal_reduces_to_permanent_form(self):
        # Diagonal matrix tuples turn mixed values into permanents.
        rng = np.random.default_rng(4)
        rows = rng.uniform(0.1, 2.0, size=(3, 3))
        mats = [np.diag(v) for v in rows]
        oracle, pts = gen.matrix_tuple_points(mats)
        m_ab, m_aa, m_bb = hp.alexandrov_fenchel_terms(oracle, pts)
        rows_aa = rows.copy()
        rows_aa[1] = rows[0]
        rows_bb = rows.copy()
        rows_bb[0] = rows[1]
        assert m_ab == pytest.approx(hp.brute_force_permanent(rows), rel=1e-9)
        assert m_aa == pytest.approx(hp.brute_force_permanent(rows_aa), rel=1e-9)
        assert m_bb == pytest.approx(hp.brute_force_permanent(rows_bb), rel=1e-9)


class TestKHyperbolicity:
    def test_full_slot_count_at_origin(self):
        oracle = gen.symmetric_matrix_oracle(3)
        coeffs = hp.k_hyperbolicity_polynomial(oracle, np.zeros(oracle.m), np.empty((0, oracle.m)), 3)
        assert coeffs == pytest.approx([0.0, 0.0, 0.0, 6.0], abs=1e-8)

    def test_k_one_always_real(self):
        oracle = gen.symmetric_matrix_oracle(2)
        rng = np.random.default_rng(5)
        tail = gen.positive_point_tuple(oracle, rng, 1)
        x = rng.standard_normal(oracle.m)
        assert hp.k_hyperbolic_check(oracle, x, tail, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_slot_discriminant_nonnegative(self, seed):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(seed)
        tail = gen.positive_point_tuple(oracle, rng, 1)
        x = rng.standard_normal(oracle.m)
        c0, c1, c2 = hp.k_hyperbolicity_polynomial(oracle, x, tail, 2)
        disc = c1 * c1 - 4.0 * c0 * c2
        assert disc >= -1e-8 * max(1.0, c1 * c1)
        assert hp.k_hyperbolic_check(oracle, x, tail, 2)

    @pytest.mark.parametrize("c", [1.0, 1e3, 1e5, 1e7])
    def test_answer_does_not_depend_on_the_scale_of_x(self, c):
        # t -> p(x + t e) = (c + t)^2 + c^2 has the roots -c +- c i at every scale; its leading
        # coefficient 1 must not be trimmed as negligible next to c_0 = 2 c^2.
        oracle = hp.dense_oracle(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): -1.0}, [1.0, 0.0, 0.0])
        assert not hp.k_hyperbolic_check(oracle, c * np.array([1.0, 1.0, 0.0]), np.empty((0, 3)), 2)


class TestLogConcavityProfile:
    def test_equal_points_constant(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(6)
        x = gen.positive_point_tuple(oracle, rng, 1)[0]
        profile = hp.log_concavity_profile(oracle, x, x)
        assert profile == pytest.approx(np.full(4, 6.0 * hp.evaluate(oracle, x)), rel=1e-9)

    def test_product_hand_computed(self):
        profile = hp.log_concavity_profile(hp.product_oracle(2), [1.0, 1.0], [2.0, 2.0])
        assert profile == pytest.approx([8.0, 4.0, 2.0])
        assert profile[1] ** 2 >= profile[0] * profile[2] - 1e-12

    def test_implies_log_concavity_of_p(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(7)
        x, y = gen.positive_point_tuple(oracle, rng, 2)
        for a in np.arange(0.1, 0.95, 0.1):
            lhs = math.log(hp.evaluate(oracle, a * x + (1 - a) * y))
            rhs = a * math.log(hp.evaluate(oracle, x)) + (1 - a) * math.log(hp.evaluate(oracle, y))
            assert lhs >= rhs - 1e-9

    def test_rejects_boundary_inputs(self):
        oracle = hp.product_oracle(2)
        with pytest.raises(InvalidDocumentError):
            hp.log_concavity_profile(oracle, [1.0, 0.0], [1.0, 1.0])


class TestDenseExpansion:
    def test_matches_source_oracle(self):
        rng = np.random.default_rng(8)
        base = gen.random_determinantal_oracle(rng, 3, 3)
        dense = hp.dense_from_oracle(base)
        for _ in range(6):
            x = rng.standard_normal(3)
            assert hp.evaluate(dense, x) == pytest.approx(hp.evaluate(base, x), rel=1e-8, abs=1e-10)


class TestBudgets:
    def test_polarization_cap(self):
        from hyperpoly.errors import BudgetExceededError

        oracle = hp.product_oracle(21)
        with pytest.raises(BudgetExceededError):
            hp.mixed_value(oracle, np.ones((21, 21)))

    def test_support_enumeration_cap(self):
        from hyperpoly.errors import BudgetExceededError

        oracle = hp.product_oracle(9)
        with pytest.raises(BudgetExceededError):
            hp.support(oracle, np.ones((9, 9)))

    def test_dense_expansion_budget_refuses_before_polarizing(self, monkeypatch):
        from hyperpoly.errors import BudgetExceededError

        # Degree 2 in m = 1414 variables: a lattice of C(2829, 2) = 4,000,206 points of 1414 block sums.
        m = 1414
        oracle = hp.dense_oracle(m, 2, {(2,) + (0,) * (m - 1): 1.0}, np.eye(m)[0])
        assert math.comb(2 + 2 * m - 1, 2 * m - 1) * m > mixed.LATTICE_CELL_BUDGET

        def refuse(*args):
            raise AssertionError("polarized past the budget")

        monkeypatch.setattr(mixed, "_polarization", refuse)
        with pytest.raises(BudgetExceededError):
            hp.dense_from_oracle(oracle)

    def test_dense_expansion_of_degree_15_in_3_variables(self):
        # 136 compositions of 15 into 3 parts share a lattice of C(20, 5) = 15,504 points of 3 block sums.
        oracle = gen.random_determinantal_oracle(np.random.default_rng(15), 15, 3)
        dense = hp.dense_from_oracle(oracle)
        points = np.random.default_rng(16).standard_normal((5, 3))
        expected = hp.evaluate_batch(oracle, points)
        assert hp.evaluate_batch(dense, points) == pytest.approx(expected, rel=1e-8, abs=1e-8 * np.max(np.abs(expected)))

    def test_polarization_cap_is_checked_before_the_lattice(self):
        from hyperpoly.errors import BudgetExceededError

        # Two points and n = 21: a small lattice, whose binomial table stops at the cap of 20.
        with pytest.raises(BudgetExceededError):
            hp.log_concavity_profile(hp.product_oracle(21), np.ones(21), np.full(21, 2.0))

    def test_dense_expansion_refuses_a_lattice_past_its_cell_budget(self, monkeypatch):
        from hyperpoly.errors import BudgetExceededError

        # Degree 4 in m = 45 variables: a lattice of C(93, 89) = 2,919,735 points of 45 block sums, refused
        # before the table is built.
        m = 45
        oracle = hp.dense_oracle(m, 4, {(4,) + (0,) * (m - 1): 1.0}, np.eye(m)[0])
        assert math.comb(4 + 2 * m - 1, 2 * m - 1) * m > mixed.LATTICE_CELL_BUDGET

        def refuse(*args):
            raise AssertionError("built a lattice past the cell budget")

        monkeypatch.setattr(mixed, "_composition_array", refuse)
        with pytest.raises(BudgetExceededError, match="lattice cell budget"):
            hp.dense_from_oracle(oracle)


def full_sign_sum(oracle, points):
    """2^-n * sum over all 2^n sign vectors b of p(sum_i b_i x_i) * prod(b), and the largest |p| among them."""
    n = points.shape[0]
    signs = np.asarray(list(itertools.product((1.0, -1.0), repeat=n)))
    vals = hp.evaluate_batch(oracle, signs @ points)
    return float(vals @ np.prod(signs, axis=1)) / 2**n, float(np.max(np.abs(vals)))


def dense_test_oracle(rng, n):
    """Every degree-n monomial in three variables, with coefficients in [0.5, 1.5]."""
    return hp.dense_oracle(3, n, {r: rng.uniform(0.5, 1.5) for r in compositions(n, 3)}, np.ones(3))


POLARIZATION_FORMS = {
    "product": lambda rng, n: (hp.product_oracle(n), rng.uniform(-1.0, 2.0, size=(n, n))),
    "symmetric": lambda rng, n: (
        gen.symmetric_matrix_oracle(n),
        rng.standard_normal((n, n * (n + 1) // 2)),
    ),
    "pencil3": lambda rng, n: (gen.random_determinantal_oracle(rng, n, 3), rng.standard_normal((n, 3))),
    "dense": lambda rng, n: (dense_test_oracle(rng, n), rng.standard_normal((n, 3))),
}


def ryser_permanent(w):
    """perm(W) = (-1)^n sum over nonempty column subsets S of (-1)^|S| prod_i sum_{j in S} w_ij."""
    n = w.shape[0]
    columns = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    signs = (-1.0) ** columns.sum(axis=1)
    return (-1.0) ** n * float(signs @ np.prod(columns @ w.T, axis=1))


class TestPolarizationKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("form", sorted(POLARIZATION_FORMS))
    def test_half_sum_matches_full_sign_sum(self, form, n):
        rng = np.random.default_rng(100 + n)
        oracle, pts = POLARIZATION_FORMS[form](rng, n)
        expected, peak = full_sign_sum(oracle, pts)
        value = mixed._polarization(oracle, pts)
        assert abs(value - expected) <= max(1e-12 * abs(expected), 8 * n * EPS * peak)
        assert hp.mixed_value(oracle, pts) == value

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("form", sorted(POLARIZATION_FORMS))
    def test_every_point_in_the_imaginary_slot_gives_one_value(self, form, n):
        rng = np.random.default_rng(600 + n)
        oracle, pts = POLARIZATION_FORMS[form](rng, n)
        expected, peak = full_sign_sum(oracle, pts)
        for k in range(n):
            # Point k takes the imaginary slot; the form is symmetric, so the order of the rest is free.
            assert abs(mixed._polarization(oracle, np.roll(pts, -k, axis=0)) - expected) <= 8 * n * EPS * peak

    @pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
    def test_mixed_discriminant_of_commuting_tuple_is_permanent(self, n):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert_commuting_discriminant_is_permanent(q, rng.uniform(0.5, 1.5, size=(n, n)))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_mixed_discriminant_of_wide_commuting_tuple_is_permanent(self, n):
        # Weights spanning six decades, on diagonal matrices: a rotated tuple's entries round at
        # eps * 1e3, which moves a weight of 1e-3 by 1e6 eps before any polarization.
        for seed in range(5):
            w = 10.0 ** np.random.default_rng([700 + n, seed]).uniform(-3.0, 3.0, size=(n, n))
            assert_commuting_discriminant_is_permanent(np.eye(n), w)


def assert_commuting_discriminant_is_permanent(q, w):
    """D(A_1, ..., A_n) = perm(W) for A_i = Q diag(W[:, i]) Q^T with Q orthogonal, within 8 n eps times
    the largest |p| over sign vectors, which all weights being positive puts at b = (1, ..., 1)."""
    n = w.shape[0]
    mats = [(q * w[:, i]) @ q.T for i in range(n)]
    got = hp.mixed_discriminant([0.5 * (a + a.T) for a in mats])
    assert abs(got - ryser_permanent(w)) <= 8 * n * EPS * float(np.prod(w.sum(axis=1)))


def sign_row_polarization(oracle, points):
    """The real reference: the polarization of distinct points summed over the 2^(n-1) sign vectors with
    b_(n-1) = +1 in binary order, in chunks, through ``tuple_form``."""
    n = points.shape[0]
    form, coords = oracle.form.tuple_form(points)
    total = 0.0
    half = 1 << (n - 1)
    for start in range(0, half, mixed._CHUNK):
        idx = np.arange(start, min(start + mixed._CHUNK, half), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
        parity = 1.0 - 2.0 * (bits.sum(axis=1) & 1)
        total += float(np.dot(form.evaluate_batch((1.0 - 2.0 * bits) @ coords), parity))
    return total * 0.5 ** (n - 1)


def complex_point_polarization(oracle, points):
    """The polarization of distinct points as the kernel sums it: Im p at the 2^(n-2) complex points
    i x_1 + b_1 x_2 + ... + b_(n-2) x_(n-1) + x_n, b_1 varying fastest, times prod(b), in blocks of
    ``mixed._CHUNK // 2`` through ``tuple_form``; its value and its evaluated rows."""
    n = points.shape[0]
    middle = max(n - 2, 0)
    signs = np.array([b[::-1] for b in itertools.product((1.0, -1.0), repeat=middle)]).reshape(1 << middle, middle)
    coefficients = np.hstack([np.full((len(signs), 1), 1j), signs, np.ones((len(signs), 1 if n > 1 else 0))])
    form, coords = oracle.form.tuple_form(points)
    total, rows = 0.0, []
    for start in range(0, len(signs), mixed._CHUNK // 2):
        rows.append(coefficients[start : start + mixed._CHUNK // 2] @ coords)
        parity = np.prod(signs[start : start + mixed._CHUNK // 2], axis=1)
        total += float(np.dot(form.evaluate_batch(rows[-1]).imag, parity))
    return total * 0.5**middle, np.vstack(rows)


def recorded_rows(monkeypatch):
    """The row stacks, in their own dtype, that every ``evaluate_batch`` call of the polarization kernels
    receives."""
    stacks = []
    original = mixed.evaluate_batch

    def recorded(oracle, points):
        stacks.append(np.array(points))
        return original(oracle, points)

    monkeypatch.setattr(mixed, "evaluate_batch", recorded)
    return stacks


def exact_product_sign_sum(points):
    """2^-n * sum over all sign vectors b of prod_j (sum_i b_i x_ij) * prod(b), in exact arithmetic."""
    n = len(points)
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=n):
        value = math.prod(sum(b * Fraction(x[j]) for b, x in zip(signs, points)) for j in range(len(points[0])))
        total += value * math.prod(signs)
    return total / 2**n


class TestLatticePolarization:
    """Every composition's repeated tuple polarized over the distinct block sums that the compositions
    share, in one stacked evaluation per composition set."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("form", sorted(POLARIZATION_FORMS))
    def test_every_composition_matches_full_sign_sum(self, form, n):
        rng = np.random.default_rng(200 + n)
        oracle, pts = POLARIZATION_FORMS[form](rng, n)
        values, peak = mixed._all_mixed_values(oracle, pts)
        assert sorted(values) == list(compositions(n, n))
        peaks = []
        for r, value in values.items():
            expected, r_peak = full_sign_sum(oracle, hp.repeated_tuple(pts, r))
            tolerance = max(1e-12 * abs(expected), 8 * n * EPS * r_peak)
            assert abs(value - expected) <= tolerance
            single = mixed._polarization(oracle, hp.repeated_tuple(pts, r))
            assert abs(single - expected) <= tolerance
            peaks.append(r_peak)
        assert peak == pytest.approx(max(peaks), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_on_small_integer_product_tuples(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        pts = rng.integers(-2, 4, size=(n, n)).astype(float)
        oracle = hp.product_oracle(n)
        values, _ = mixed._all_mixed_values(oracle, pts)
        for r, value in values.items():
            tup = hp.repeated_tuple(pts, r)
            exact = exact_product_sign_sum(tup.astype(int).tolist())
            assert Fraction(value) == exact
            assert Fraction(hp.mixed_value(oracle, tup)) == exact
        x, y = rng.integers(1, 4, size=(2, n)).astype(float)
        profile = hp.log_concavity_profile(oracle, x, y)
        x_int, y_int = x.astype(int).tolist(), y.astype(int).tolist()
        exact = [exact_product_sign_sum([x_int] * i + [y_int] * (n - i)) for i in range(n + 1)]
        assert [Fraction(v) for v in profile] == exact

    def test_log_concavity_profile_is_one_call_of_61_rows(self, monkeypatch):
        stacks = recorded_rows(monkeypatch)
        oracle = hp.product_oracle(10)
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.5, 2.0, size=(2, 10))
        profile = hp.log_concavity_profile(oracle, x, y)
        assert [len(rows) for rows in stacks] == [61]
        for i in range(11):
            expected, peak = full_sign_sum(oracle, hp.repeated_tuple(np.vstack([x, y]), (i, 10 - i)))
            assert abs(profile[i] - expected) <= max(1e-12 * abs(expected), 80 * EPS * peak)

    def test_support_at_n5_is_one_stacked_evaluation(self, monkeypatch):
        stacks = recorded_rows(monkeypatch)
        oracle, pts = gen.structured_psd_points(np.random.default_rng(5), 5)
        hp.support(oracle, pts)
        assert [len(rows) for rows in stacks] == [591]

    def test_degree_7_dense_expansion_evaluates_172_rows(self, monkeypatch):
        stacks = recorded_rows(monkeypatch)
        hp.dense_from_oracle(gen.random_determinantal_oracle(np.random.default_rng(7), 7, 3))
        assert sum(len(rows) for rows in stacks) == 172

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_dense_expansion_reproduces_the_pencil(self, n):
        rng = np.random.default_rng(300 + n)
        base = gen.random_determinantal_oracle(rng, n, 3)
        dense = hp.dense_from_oracle(base)
        for x in rng.standard_normal((8, 3)):
            expected = float(np.linalg.det(np.tensordot(x, base.form.pencil, axes=1)))
            assert hp.evaluate(dense, x) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("form", sorted(POLARIZATION_FORMS))
    def test_distinct_tuple_keeps_the_sign_rows(self, monkeypatch, form, n):
        rng = np.random.default_rng(400 + n)
        oracle, pts = POLARIZATION_FORMS[form](rng, n)
        stacks = recorded_rows(monkeypatch)
        value = mixed._polarization(oracle, pts)
        expected, rows = complex_point_polarization(oracle, pts)
        assert value == expected
        np.testing.assert_array_equal(np.vstack(stacks), rows)
        assert hp.mixed_value(oracle, pts) == value
        assert abs(value - sign_row_polarization(oracle, pts)) <= 8 * n * EPS * full_sign_sum(oracle, pts)[1]


class TestBoundedPolarization:
    """Every stacked evaluation of the polarization kernels takes at most ``mixed._CHUNK`` real rows or
    ``mixed._CHUNK // 2`` complex ones, so its working memory does not grow with 2^(n-2)."""

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    @pytest.mark.parametrize("form", sorted(POLARIZATION_FORMS))
    def test_kernel_evaluates_blocks_of_at_most_chunk_rows(self, monkeypatch, form, n):
        rng = np.random.default_rng(500 + n)
        oracle, pts = POLARIZATION_FORMS[form](rng, n)
        stacks = recorded_rows(monkeypatch)
        value = mixed._polarization(oracle, pts)
        assert all(rows.dtype == complex for rows in stacks)
        assert max(len(rows) for rows in stacks) <= mixed._CHUNK // 2
        assert len(stacks) == math.ceil(2 ** (n - 2) / (mixed._CHUNK // 2))
        expected, rows = complex_point_polarization(oracle, pts)
        np.testing.assert_array_equal(np.vstack(stacks), rows)
        assert value == expected

    @pytest.mark.parametrize("n", [14, 16])
    def test_mixed_discriminant_peak_memory_stays_bounded(self, n):
        mats = gen.psd_matrix_tuple(np.random.default_rng(n), n)
        tracemalloc.start()
        try:
            hp.mixed_discriminant(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Blocks of 16,384 rows peaked at 15.1 MiB at n = 14 and 38.6 MiB at n = 16.
        assert peak < 4 * 2**20

    def test_support_at_n8_matches_one_call_over_all_block_sums(self, monkeypatch):
        n = 8
        oracle, pts = gen.structured_psd_points(np.random.default_rng(8), n)
        stacks = recorded_rows(monkeypatch)
        values, peak = mixed._all_mixed_values(oracle, pts)
        lattice = mixed._composition_lattice(n, n)
        assert max(len(rows) for rows in stacks) <= mixed._CHUNK
        assert sum(len(rows) for rows in stacks) == len(lattice.sums) == 93_569
        form, coords = oracle.form.tuple_form(pts)
        vals = form.evaluate_batch(lattice.sums.astype(float) @ coords)
        weighted = np.bincount(lattice.owner, weights=lattice.weight * vals[lattice.index], minlength=len(lattice.keys))
        assert peak == pytest.approx(float(np.max(np.abs(vals))), rel=1e-12)
        for r, expected in zip(lattice.keys, weighted * 0.5**n):
            assert abs(values[r] - expected) <= 8 * n * EPS * peak


# The instance families of acceptance criterion 14.
CRITERION_14_SEED = 20240731


def criterion_14_instances():
    for t in range(100):
        n = 2 + t % 4
        yield gen.structured_psd_points(gen.rng_for(CRITERION_14_SEED, 14, t), n)
        yield gen.structured_product_points(gen.rng_for(CRITERION_14_SEED, 141, t), n)


class TestSaturationRoutes:
    def test_separation_alone_settles_criterion_14(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("a membership LP ran")

        monkeypatch.setattr(mixed, "linprog", no_lp)
        for oracle, pts in criterion_14_instances():
            assert hp.newton_saturation_check(oracle, pts).saturated

    def test_hole_between_two_vertices(self):
        oracle = hp.dense_oracle(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 1.0}, [1.0, 1.0, 1.0])
        report = hp.newton_saturation_check(oracle, np.eye(3))
        assert not report.saturated
        assert report.violations == ((1, 2, 0), (2, 1, 0))

    def test_lp_fallback_finds_no_hole(self, monkeypatch):
        calls = []
        real = mixed.linprog

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mixed, "linprog", counted)
        oracle = hp.dense_oracle(3, 3, {(3, 0, 0): 1.0, (1, 1, 1): 1.0}, [1.0, 1.0, 1.0])
        report = hp.newton_saturation_check(oracle, np.eye(3))
        assert report.saturated and report.violations == ()
        assert len(calls) >= 1

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_lp_only_route(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        comps = list(compositions(n, n))
        picks = rng.choice(len(comps), size=int(rng.integers(2, 7)), replace=False)
        oracle = hp.dense_oracle(n, n, {comps[i]: rng.uniform(0.5, 2.0) for i in picks}, np.ones(n))
        report = hp.newton_saturation_check(oracle, np.eye(n))
        sup = report.support
        lp_only = tuple(r for r in comps if r not in sup.values and hp.polytope_membership(r, sup))
        assert report.violations == lp_only
