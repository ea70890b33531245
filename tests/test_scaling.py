import itertools
import math

import numpy as np
import pytest

import hyperpoly as hp
from hyperpoly import generators as gen
from hyperpoly import scaling
from hyperpoly.errors import (
    DegenerateDirectionError,
    InvalidDocumentError,
    ZeroCapacityError,
)
from hyperpoly.scaling import matrix_as_tuple, row_normalized, tuple_as_matrix


@pytest.fixture
def ds_instance():
    return gen.d_doubly_stochastic_tuple(np.random.default_rng(42), 3)


class TestPartialDerivative:
    def test_product(self):
        assert hp.partial_derivative(hp.product_oracle(2), [2.0, 3.0], 0) == pytest.approx(3.0)

    def test_dense_term_differentiation(self):
        oracle = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
        assert hp.partial_derivative(oracle, [1.0, 2.0], 0) == pytest.approx(2.0)
        assert hp.partial_derivative(oracle, [1.0, 2.0], 1) == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_determinantal_vs_central_difference(self, seed):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(seed)
        alpha = gen.positive_point_tuple(oracle, rng, 1)[0]
        h = 1e-6
        for i in range(0, oracle.m, 2):
            step = np.zeros(oracle.m)
            step[i] = h
            fd = (hp.evaluate(oracle, alpha + step) - hp.evaluate(oracle, alpha - step)) / (2 * h)
            assert hp.partial_derivative(oracle, alpha, i) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_singular_point_falls_back(self):
        oracle = gen.symmetric_matrix_oracle(2)
        x = gen.matrix_to_point(np.diag([1.0, 0.0]))
        got = hp.partial_derivative(oracle, x, 1)
        assert got == pytest.approx(1.0, rel=1e-6)


class TestDefectAndMap:
    def test_identity_slices_defect_zero(self):
        oracle, pts = gen.matrix_tuple_points([np.eye(3) / 3.0] * 3)
        assert hp.doubly_stochastic_defect(oracle, pts) == pytest.approx(0.0, abs=1e-12)

    def test_product_half_ones(self):
        pts = 0.5 * np.ones((2, 2))
        assert hp.doubly_stochastic_defect(hp.product_oracle(2), pts) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_sum_rejected(self):
        oracle, _ = gen.matrix_tuple_points([np.diag([1.0, 0.0])] * 2)
        x = gen.matrix_to_point(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateDirectionError):
            hp.doubly_stochastic_defect(oracle, np.vstack([x, x]))

    def test_fixed_point(self):
        # Traces sit within sqrt(defect) of one, so the map's motion scales
        # with the defect actually reached by the generator.
        oracle, pts = gen.d_doubly_stochastic_tuple(np.random.default_rng(42), 3, defect_tol=1e-20)
        motion = np.max(np.abs(hp.sinkhorn_map(oracle, pts) - pts))
        assert motion < 1e-9 * max(1.0, float(np.max(np.abs(pts))))

    def test_energy_never_increases(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(1)
        pts = gen.positive_point_tuple(oracle, rng, 3)
        before = hp.evaluate(oracle, pts.sum(axis=0))
        after = hp.evaluate(oracle, hp.sinkhorn_map(oracle, pts).sum(axis=0))
        assert after <= before + 1e-10 * max(1.0, before)


class TestClassicalSinkhornEquivalence:
    def test_all_ones_matrix(self):
        got = hp.matrix_sinkhorn(np.ones((3, 3)), 1)
        assert got == pytest.approx(np.full((3, 3), 1.0 / 3.0))

    def test_doubly_stochastic_fixed_point(self):
        a = np.asarray([[0.5, 0.5], [0.5, 0.5]])
        assert hp.matrix_sinkhorn(a, 5) == pytest.approx(a)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidDocumentError):
            hp.matrix_sinkhorn(np.asarray([[1.0, 0.0], [1.0, 1.0]]), 1)

    def test_example_matrix_matches_map(self):
        # One scaling step on the column tuple against one row-then-column
        # normalization round: identical after row normalization, and off by
        # exactly the row-sum diagonal factor before it.
        a = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        oracle = hp.product_oracle(2)
        mapped = tuple_as_matrix(hp.sinkhorn_map(oracle, matrix_as_tuple(a)))
        classical = hp.matrix_sinkhorn(a, 1)
        assert np.max(np.abs(row_normalized(mapped) - row_normalized(classical))) <= 1e-12
        assert np.max(np.abs(mapped - np.diag(a.sum(axis=1)) @ classical)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_trajectories_match_for_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        a = rng.uniform(0.1, 3.0, size=(n, n))
        oracle = hp.product_oracle(n)
        pts = matrix_as_tuple(a)
        for k in range(1, 5):
            pts = hp.sinkhorn_map(oracle, pts)
            classical = hp.matrix_sinkhorn(a, k)
            assert np.max(np.abs(row_normalized(tuple_as_matrix(pts)) - row_normalized(classical))) <= 1e-12

    def test_capacity_rescaling_identity(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(2)
        pts = gen.positive_point_tuple(oracle, rng, 3)
        d = pts.sum(axis=0)
        traces = hp.traces_in_direction(oracle, pts, d)
        before = hp.capacity(oracle, pts).value
        after = hp.capacity(oracle, hp.sinkhorn_map(oracle, pts)).value
        assert after == pytest.approx(before / float(np.prod(traces)), rel=1e-5)


class TestSinkhornIteration:
    def test_positive_tuple_converges(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(3)
        pts = gen.positive_point_tuple(oracle, rng, 3)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=10000, threshold=1e-10)
        assert report.converged
        assert report.capacity_verdict == "positive"
        assert report.defect_history[-1] <= 1e-10
        energies = np.asarray(report.energy_history)
        assert np.all(np.diff(energies) <= 1e-10 * np.maximum(1.0, energies[:-1]))
        assert report.final_state.multiplier >= 1.0 - 1e-12

    def test_doubly_stochastic_start_zero_iterations(self, ds_instance):
        oracle, pts = ds_instance
        report = hp.sinkhorn_iteration(oracle, pts, threshold=1e-9)
        assert report.converged and report.iterations == 0

    def test_rank_deficient_never_reaches_threshold(self):
        rng = np.random.default_rng(4)
        mats, witness = gen.rank_deficient_matrix_tuple(rng, 3)
        oracle, pts = gen.matrix_tuple_points(mats)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=1000)
        assert report.capacity_verdict == "zero"
        assert min(report.defect_history) > 1.0 / 3.0
        assert not report.converged

    def test_zero_pattern_product_tuple(self):
        # Two columns supported on a single shared coordinate: the classic
        # zero-permanent pattern. The rank condition fails on {0, 1} and the
        # defect stays above 1/n for the whole recorded trajectory.
        oracle = hp.product_oracle(3)
        pts = np.asarray([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        check = hp.edmonds_rado_check(oracle, pts)
        assert not check.holds and check.witness == (0, 1)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=500)
        assert report.capacity_verdict == "zero"
        assert min(report.defect_history) > 1.0 / 3.0
        assert hp.capacity(oracle, pts).value == 0.0

    def test_dense_route_reproduces_determinantal_trajectory(self):
        # The restriction-based traces of the dense expansion must drive the
        # iteration through the same defect history as the pencil solves.
        rng = np.random.default_rng(17)
        base = gen.random_determinantal_oracle(rng, 3, 3)
        dense = hp.dense_from_oracle(base)
        pts = gen.positive_point_tuple(base, rng, 3)
        rep_base = hp.sinkhorn_iteration(base, pts, max_iters=50, threshold=1e-9)
        rep_dense = hp.sinkhorn_iteration(dense, pts, max_iters=50, threshold=1e-9)
        assert rep_dense.converged == rep_base.converged
        assert len(rep_dense.defect_history) == len(rep_base.defect_history)
        for a, b in zip(rep_base.defect_history, rep_dense.defect_history):
            assert b == pytest.approx(a, rel=1e-6, abs=1e-10)

    def test_unrelated_error_in_collapse_test_propagates(self, monkeypatch):
        # Only typed root-finding failures mean a collapsed direction; any
        # other error inside the collapse test is a fault and must surface.
        rng = np.random.default_rng(17)
        base = gen.random_determinantal_oracle(rng, 3, 3)
        dense = hp.dense_from_oracle(base)
        pts = gen.positive_point_tuple(base, rng, 3)
        original = scaling.roots_in_direction
        calls = []

        def failing_after_first(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise RuntimeError("unrelated failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(scaling, "roots_in_direction", failing_after_first)
        with pytest.raises(RuntimeError, match="unrelated failure"):
            hp.sinkhorn_iteration(dense, pts, max_iters=50, threshold=1e-14, precheck=False)

    def test_multiplier_grows_each_step(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(5)
        pts = gen.positive_point_tuple(oracle, rng, 3)
        current = pts
        multiplier = 1.0
        for _ in range(5):
            d = current.sum(axis=0)
            traces = hp.traces_in_direction(oracle, current, d)
            assert float(np.sum(traces)) == pytest.approx(oracle.n, rel=1e-9)
            factor = 1.0 / float(np.prod(traces))
            assert factor >= 1.0 - 1e-12
            multiplier *= factor
            current = hp.sinkhorn_map(oracle, current)
        assert multiplier >= 1.0 - 1e-12


_RANK_FAMILIES = ("product", "psd", "dense")


class TestEdmondsRado:
    @pytest.mark.parametrize("k", range(9))
    def test_subsets_in_lexicographic_order(self, k):
        expected = sorted(
            itertools.chain.from_iterable(itertools.combinations(range(k), size) for size in range(1, k + 1))
        )
        assert list(scaling.lexicographic_subsets(k)) == expected

    def test_duplicated_point_fails(self):
        oracle, _ = gen.matrix_tuple_points([np.eye(2)] * 2)
        x = gen.matrix_to_point(np.outer([1.0, 0.0], [1.0, 0.0]))
        report = hp.edmonds_rado_check(oracle, np.vstack([x, x]))
        assert not report.holds and report.witness == (0, 1)

    def test_positive_tuple_holds(self):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(6)
        pts = gen.positive_point_tuple(oracle, rng, 3)
        assert hp.edmonds_rado_check(oracle, pts).holds

    def test_product_basis_holds(self):
        assert hp.edmonds_rado_check(hp.product_oracle(3), np.eye(3)).holds

    def test_subset_budget(self):
        # No enumeration cap remains: 25 elements, and a permuted 30-element
        # rank-deficient tuple, are decided in polynomial time.
        assert hp.edmonds_rado_check(hp.product_oracle(25), np.ones((25, 25))) == hp.EdmondsRadoReport(True, None)
        rng = np.random.default_rng(30)
        mats, pair = gen.rank_deficient_matrix_tuple(rng, 30)
        perm = rng.permutation(30)
        oracle, pts = gen.matrix_tuple_points([mats[i] for i in perm])
        report = hp.edmonds_rado_check(oracle, pts)
        assert not report.holds
        position = np.argsort(perm)
        assert report.witness == tuple(sorted(int(position[i]) for i in pair))

    @pytest.mark.parametrize("family", _RANK_FAMILIES)
    def test_matches_exhaustive_minimal_minimizer(self, family):
        violating = 0
        for seed in range(70):
            oracle, pts = _rank_instance(family, np.random.default_rng([_RANK_FAMILIES.index(family), seed]))
            expected = _exhaustive_minimal_minimizer(oracle, pts)
            report = hp.edmonds_rado_check(oracle, pts)
            assert (report.holds, report.witness) == (expected is None, expected), seed
            violating += expected is not None
        assert 20 <= violating <= 60

    @pytest.mark.parametrize("family", _RANK_FAMILIES)
    def test_witness_follows_a_permutation(self, family):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            oracle, pts = _rank_instance(family, rng)
            report = hp.edmonds_rado_check(oracle, pts)
            perm = rng.permutation(len(pts))
            permuted = hp.edmonds_rado_check(oracle, pts[perm])
            assert permuted.holds == report.holds
            if not report.holds:
                position = np.argsort(perm)
                assert permuted.witness == tuple(sorted(int(position[i]) for i in report.witness))

    def test_rank_calls_polynomial(self, monkeypatch):
        # The exhaustive scan makes 2^12 - 1 = 4095 rank calls on a full-rank tuple.
        rng = np.random.default_rng(12)
        full_rank = gen.psd_matrix_tuple(rng, 12)
        deficient, _ = gen.rank_deficient_matrix_tuple(rng, 12)
        original = scaling.hyperbolic_rank
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(scaling, "hyperbolic_rank", counting)
        for mats, holds in ((full_rank, True), (deficient[::-1], False)):
            calls.clear()
            assert hp.edmonds_rado_check(*gen.matrix_tuple_points(mats)).holds is holds
            assert 1 <= len(calls) <= 3 * 12**2


def _rank_instance(family: str, rng: np.random.Generator):
    """A tuple of k <= 8 cone points whose rank condition often fails on a proper subset."""
    k = int(rng.integers(1, 9))
    if family == "dense":
        # Scaled copies of three points of a generic form, most on the cone's
        # boundary (one zero root); repeated roots would defeat the dense root finder.
        base = gen.random_determinantal_oracle(rng, int(rng.integers(2, 4)), 3)
        sources = gen.nonnegative_point_tuple(base, rng, 3, boundary_fraction=0.7)
        return hp.dense_from_oracle(base), sources[rng.integers(0, 3, size=k)] * rng.uniform(0.5, 2.0, (k, 1))
    n = int(rng.integers(2, 8))
    if family == "product":
        pattern = rng.random((k, n)) < rng.uniform(0.2, 0.6)
        return hp.product_oracle(n), pattern * rng.uniform(0.5, 2.0, (k, n))
    # Elements share a few rank-one and rank-two ranges, or have full rank.
    n = min(n, 5)
    lines = rng.standard_normal((2, n))
    planes = rng.standard_normal((2, n, 2))
    mats = []
    for _ in range(k):
        choice = int(rng.integers(0, 5))
        if choice < 2:
            v = lines[choice] * rng.uniform(0.5, 2.0)
            mats.append(np.outer(v, v))
        elif choice < 4:
            b = planes[choice - 2] @ rng.standard_normal((2, 2))
            mats.append(b @ b.T)
        else:
            mats.append(gen.random_psd_matrix(rng, n))
    return gen.matrix_tuple_points(mats)


def _exhaustive_minimal_minimizer(oracle, pts):
    """Intersection of the subsets of largest deficiency |S| - rank(S), or None when none is positive."""
    deficiency = {
        subset: len(subset) - hp.hyperbolic_rank(oracle, pts[list(subset)].sum(axis=0), 1e-9)
        for subset in scaling.lexicographic_subsets(len(pts))
    }
    worst = max(deficiency.values())
    if worst <= 0:
        return None
    return tuple(sorted(set.intersection(*(set(s) for s, d in deficiency.items() if d == worst))))


class TestCapacity:
    def test_doubly_stochastic_value(self, ds_instance):
        oracle, pts = ds_instance
        d = pts.sum(axis=0)
        result = hp.capacity(oracle, pts)
        assert result.status == "converged"
        assert result.value == pytest.approx(hp.evaluate(oracle, d), rel=1e-5)
        assert result.minimizer == pytest.approx(np.ones(3), abs=1e-4)
        assert abs(np.prod(result.minimizer) - 1.0) <= 1e-12

    def test_scaling_identity(self):
        rng = np.random.default_rng(7)
        oracle, pts = gen.positive_product_tuple(rng, 3)
        weights = np.asarray([0.5, 2.0, 1.25])
        base = hp.capacity(oracle, pts).value
        scaled = hp.capacity(oracle, weights[:, None] * pts).value
        assert scaled == pytest.approx(float(np.prod(weights)) * base, rel=1e-5)

    def test_rank_deficient_zero(self):
        rng = np.random.default_rng(8)
        mats, _ = gen.rank_deficient_matrix_tuple(rng, 3)
        oracle, pts = gen.matrix_tuple_points(mats)
        result = hp.capacity(oracle, pts)
        assert result.status == "zero_capacity" and result.value == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        oracle = gen.symmetric_matrix_oracle(3)
        rng = np.random.default_rng(seed)
        pts = gen.positive_point_tuple(oracle, rng, 3)

        def g(a):
            return math.log(hp.evaluate(oracle, np.exp(a) @ pts))

        a = rng.uniform(-0.3, 0.3, 3)
        d = np.exp(a) @ pts
        grad = np.exp(a) * hp.traces_in_direction(oracle, pts, d)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (g(a + e) - g(a - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5)

    def test_converged_runs_have_small_gradient(self):
        rng = np.random.default_rng(9)
        oracle, pts = gen.positive_product_tuple(rng, 4)
        result = hp.capacity(oracle, pts, tol=1e-8)
        assert result.status == "converged"
        assert result.gradient_norm <= 1e-7

    def test_minimizer_scales_tuple_to_doubly_stochastic(self):
        # Stationarity: at the optimum the rescaled tuple has unit traces
        # against its own sum.
        rng = np.random.default_rng(15)
        oracle, pts = gen.positive_product_tuple(rng, 3)
        result = hp.capacity(oracle, pts, tol=1e-10)
        scaled = result.minimizer[:, None] * pts
        assert hp.doubly_stochastic_defect(oracle, scaled) <= 1e-14

    def test_dense_expansion_gives_same_capacity(self):
        # Dual route: the dense expansion of a determinantal oracle must give
        # the same capacity for the same point tuple.
        rng = np.random.default_rng(16)
        base = gen.random_determinantal_oracle(rng, 3, 3)
        dense = hp.dense_from_oracle(base)
        pts = gen.positive_point_tuple(base, rng, 3)
        cap_base = hp.capacity(base, pts, tol=1e-9).value
        cap_dense = hp.capacity(dense, pts, tol=1e-9).value
        assert cap_dense == pytest.approx(cap_base, rel=1e-6)


class TestConcavityChecks:
    def test_equal_compositions_equality(self):
        rng = np.random.default_rng(10)
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, 2))
        report = hp.capacity_concavity_check(oracle, pts, [(1, 1), (1, 1)], [0.5, 0.5])
        assert report.holds
        assert report.lhs == pytest.approx(report.rhs, rel=1e-6)

    def test_pair_midpoint(self):
        rng = np.random.default_rng(11)
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, 2))
        report = hp.capacity_concavity_check(oracle, pts[:2], [(2, 0), (0, 2)], [0.5, 0.5])
        assert report.holds and report.lhs >= report.rhs * (1 - 1e-6)

    def test_rejects_non_integral_combination(self):
        rng = np.random.default_rng(12)
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, 3))
        with pytest.raises(InvalidDocumentError):
            hp.capacity_concavity_check(oracle, pts[:2], [(3, 0), (0, 3)], [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(3))
    def test_refined_mixed_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, n))
        i = int(rng.integers(0, n + 1))
        report = hp.mixed_concavity_check(oracle, pts[:2], [(n, 0), (0, n)], [i / n, 1 - i / n])
        assert report.holds


class TestVanDerWaerdenRatio:
    def test_identity_slices(self):
        oracle, pts = gen.matrix_tuple_points([np.eye(3) / 3.0] * 3)
        assert hp.van_der_waerden_ratio(oracle, pts) == pytest.approx(2.0 / 9.0, rel=1e-6)

    def test_positive_product_tuple_in_range(self):
        rng = np.random.default_rng(13)
        oracle, pts = gen.positive_product_tuple(rng, 3)
        ratio = hp.van_der_waerden_ratio(oracle, pts)
        assert 0.0 < ratio <= 1.0 + 1e-9
        assert ratio >= math.factorial(3) / 27 - 1e-6
        # For the product oracle the numerator is the permanent of the column matrix.
        per = hp.brute_force_permanent(pts.T)
        cap = hp.capacity(oracle, pts).value
        assert ratio == pytest.approx(per / cap, rel=1e-9)

    def test_zero_capacity_rejected(self):
        rng = np.random.default_rng(14)
        mats, _ = gen.rank_deficient_matrix_tuple(rng, 3)
        oracle, pts = gen.matrix_tuple_points(mats)
        with pytest.raises(ZeroCapacityError):
            hp.van_der_waerden_ratio(oracle, pts)


class TestReciprocalGradient:
    def test_product_equality(self):
        report = hp.gradient_reciprocal_check(hp.product_oracle(2), [2.0, 3.0])
        assert report.holds
        assert report.lhs == pytest.approx(report.rhs)

    def test_sum_of_squares_boundary_then_reversal(self):
        oracle = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
        boundary = hp.gradient_reciprocal_check(oracle, [1.0, 1.0])
        assert boundary.lhs == pytest.approx(0.5) and boundary.rhs == pytest.approx(0.5)
        reversed_case = hp.gradient_reciprocal_check(oracle, [1.0, 2.0])
        assert reversed_case.lhs == pytest.approx(0.3125)
        assert reversed_case.rhs == pytest.approx(0.2)
        assert not reversed_case.holds

    @pytest.mark.parametrize("seed", range(5))
    def test_hyperbolic_instances_hold(self, seed):
        rng = np.random.default_rng(seed)
        oracle = gen.random_square_determinantal_oracle(rng, 3)
        alpha = rng.uniform(0.2, 2.0, 3)
        assert hp.gradient_reciprocal_check(oracle, alpha, tol=1e-9).holds

    def test_requires_square(self):
        oracle = gen.symmetric_matrix_oracle(3)
        with pytest.raises(InvalidDocumentError):
            hp.gradient_reciprocal_check(oracle, np.ones(oracle.m))
