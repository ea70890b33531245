import itertools
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

import hyperpoly as hp
from hyperpoly import experiments
from hyperpoly import generators as gen
from hyperpoly import scaling
from hyperpoly.errors import (
    DegenerateDirectionError,
    InvalidDocumentError,
    NonRealRootError,
)
from hyperpoly.oracle import DEFAULT_RANK_TOL, DeterminantalPolynomial
from references import (
    ZeroCapacityError,
    assert_stops_on_a_zero_certificate,
    capacity_rank_check_first,
    capacity_through_evaluate,
    gradient_reciprocal_check,
    lexicographic_subsets,
    matrix_as_tuple,
    matrix_sinkhorn,
    matrix_to_point,
    partial_derivative,
    row_normalized,
    root_interior,
    root_interior_gradient,
    three_call_sinkhorn,
    tuple_as_matrix,
    van_der_waerden_ratio,
)
from references import assert_same_energies as _assert_same_energies


@pytest.fixture
def ds_instance():
    return gen.d_doubly_stochastic_tuple(np.random.default_rng(42), 3)


class TestPartialDerivative:
    def test_product(self):
        assert partial_derivative(hp.product_oracle(2), [2.0, 3.0], 0) == pytest.approx(3.0)

    def test_dense_term_differentiation(self):
        oracle = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
        assert partial_derivative(oracle, [1.0, 2.0], 0) == pytest.approx(2.0)
        assert partial_derivative(oracle, [1.0, 2.0], 1) == pytest.approx(4.0)

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
            assert partial_derivative(oracle, alpha, i) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestDefectAndMap:
    def test_identity_slices_defect_zero(self):
        oracle, pts = gen.matrix_tuple_points([np.eye(3) / 3.0] * 3)
        assert hp.doubly_stochastic_defect(oracle, pts) == pytest.approx(0.0, abs=1e-12)

    def test_product_half_ones(self):
        pts = 0.5 * np.ones((2, 2))
        assert hp.doubly_stochastic_defect(hp.product_oracle(2), pts) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_sum_rejected(self):
        oracle, _ = gen.matrix_tuple_points([np.diag([1.0, 0.0])] * 2)
        x = matrix_to_point(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateDirectionError):
            hp.doubly_stochastic_defect(oracle, np.vstack([x, x]))

    @pytest.mark.parametrize("entry", [hp.sinkhorn_map, hp.sinkhorn_iteration])
    def test_boundary_sum_rejected_by_every_entry(self, entry):
        # The map and the iteration share the defect's collapse rule.
        oracle, _ = gen.matrix_tuple_points([np.diag([1.0, 0.0])] * 2)
        x = matrix_to_point(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateDirectionError):
            entry(oracle, np.vstack([x, x]))

    def test_collapse_rule_is_scale_free(self):
        # Traces against the sum are invariant under scaling the tuple, and
        # so is the collapse rule that guards them.
        oracle = gen.symmetric_matrix_oracle(3)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng(5), 3)
        small = 1e-12 * pts
        assert hp.doubly_stochastic_defect(oracle, small) == pytest.approx(
            hp.doubly_stochastic_defect(oracle, pts), rel=1e-9
        )
        assert hp.sinkhorn_map(oracle, small) == pytest.approx(1e-12 * hp.sinkhorn_map(oracle, pts), rel=1e-9)

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
        got = matrix_sinkhorn(np.ones((3, 3)), 1)
        assert got == pytest.approx(np.full((3, 3), 1.0 / 3.0))

    def test_doubly_stochastic_fixed_point(self):
        a = np.asarray([[0.5, 0.5], [0.5, 0.5]])
        assert matrix_sinkhorn(a, 5) == pytest.approx(a)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidDocumentError):
            matrix_sinkhorn(np.asarray([[1.0, 0.0], [1.0, 1.0]]), 1)

    def test_example_matrix_matches_map(self):
        # One scaling step on the column tuple against one row-then-column
        # normalization round: identical after row normalization, and off by
        # exactly the row-sum diagonal factor before it.
        a = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        oracle = hp.product_oracle(2)
        mapped = tuple_as_matrix(hp.sinkhorn_map(oracle, matrix_as_tuple(a)))
        classical = matrix_sinkhorn(a, 1)
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
            classical = matrix_sinkhorn(a, k)
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
        form = type(dense.form)
        original = form.interior_gradient
        calls = []

        def failing_after_first(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise RuntimeError("unrelated failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(form, "interior_gradient", failing_after_first)
        with pytest.raises(RuntimeError, match="unrelated failure"):
            hp.sinkhorn_iteration(dense, pts, max_iters=50, threshold=1e-14)

    @pytest.mark.parametrize(
        "error", [NonRealRootError("complex pair"), np.linalg.LinAlgError("no convergence")], ids=["typed", "linalg"]
    )
    def test_typed_error_in_collapse_test_is_a_collapse(self, monkeypatch, error):
        rng = np.random.default_rng(17)
        base = gen.random_determinantal_oracle(rng, 3, 3)
        dense = hp.dense_from_oracle(base)
        pts = gen.positive_point_tuple(base, rng, 3)
        form = type(dense.form)
        original = form.interior_gradient
        calls = []

        def failing_after_first(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise error
            return original(*args, **kwargs)

        monkeypatch.setattr(form, "interior_gradient", failing_after_first)
        report = hp.sinkhorn_iteration(dense, pts, max_iters=50, threshold=1e-14)
        assert report.boundary_collapse and report.iterations == 0 and not report.converged
        # The traces of the starting state already certify positive capacity.
        assert report.capacity_verdict == "positive"

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

    def test_only_runs_that_do_not_converge_run_the_rank_check(self, monkeypatch):
        # A converged run ranks nothing; a zero-capacity run is settled by one stacked rank call on
        # the prefixes in order of decreasing scale; a run stopped short after its traces certify
        # positive capacity ranks nothing either; a run that stops with neither certificate runs the
        # full check once, and reads its verdict.
        checks, ranks = [], []
        original_check, original_rank = scaling.edmonds_rado_check, scaling.hyperbolic_rank
        monkeypatch.setattr(scaling, "edmonds_rado_check", lambda *args: checks.append(args) or original_check(*args))
        monkeypatch.setattr(scaling, "hyperbolic_rank", lambda *args: ranks.append(args) or original_rank(*args))
        oracle = gen.symmetric_matrix_oracle(3)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng(3), 3)
        report = hp.sinkhorn_iteration(oracle, pts)
        assert report.converged and report.capacity_verdict == "positive"
        assert checks == [] and ranks == []
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(4), 4)
        deficient_oracle, deficient = gen.matrix_tuple_points(mats)
        report = hp.sinkhorn_iteration(deficient_oracle, deficient, max_iters=1000)
        assert not report.converged and report.capacity_verdict == "zero"
        assert checks == [] and len(ranks) == 1
        assert ranks[0][1].shape == deficient.shape
        ranks.clear()
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=1)
        assert not report.converged and not report.boundary_collapse and report.iterations == 1
        assert report.capacity_verdict == "positive" and report.defect_history[0] <= 1 / 3
        assert checks == [] and ranks == []
        # Scales three decades apart start the same tuple far from doubly stochastic; stopped there, its run
        # holds neither certificate.
        lopsided = pts * np.array([1e-3, 1.0, 1e3])[:, None]
        report = hp.sinkhorn_iteration(oracle, lopsided, max_iters=0)
        assert report.iterations == 0 and report.defect_history[0] > 1 / 3
        assert report.capacity_verdict == "positive" and not report.converged
        assert len(checks) == 1 and checks[0][1] is lopsided

    def test_state_keeps_k_scales_of_the_input_tuple(self):
        # A zero-capacity run ends near the cone boundary, where a trace carries up to
        # cond(M(d)) * eps <= eps / 1e-10 of relative error, so two routes to its
        # scaled tuple agree to about 1e-6 only; positive runs agree to rounding.
        cases = []
        for n in (3, 4, 6):
            oracle = gen.symmetric_matrix_oracle(n)
            cases.append((oracle, gen.positive_point_tuple(oracle, np.random.default_rng(n), n), 10000, 1e-12))
            cases.append(gen.positive_product_tuple(np.random.default_rng(10 + n), n) + (10000, 1e-12))
            mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(20 + n), n)
            cases.append(gen.matrix_tuple_points(mats) + (1000, 1e-6))
        for oracle, pts, max_iters, rtol in cases:
            report = hp.sinkhorn_iteration(oracle, pts, max_iters=max_iters)
            state = report.final_state
            assert state.scales.shape == (len(pts),)
            assert state.source is pts
            expected = pts
            for _ in range(report.iterations):
                expected = hp.sinkhorn_map(oracle, expected)
            np.testing.assert_allclose(state.points, expected, rtol=rtol, atol=0.0)
            assert state.multiplier == float(np.prod(state.scales))
            assert state.d == pytest.approx(expected.sum(axis=0), rel=rtol)
            assert state.defect == report.defect_history[-1]

    def test_a_determinantal_step_contracts_the_pencil_once(self, monkeypatch):
        # A stored pencil, so that the patched class is the one the oracle's form uses.
        rng = np.random.default_rng(8)
        oracle = gen.random_determinantal_oracle(rng, 4, 4)
        pts = gen.positive_point_tuple(oracle, rng, 4)
        contractions = []
        original = DeterminantalPolynomial.matrix
        monkeypatch.setattr(DeterminantalPolynomial, "matrix", lambda form, x: contractions.append(x) or original(form, x))
        report = hp.sinkhorn_iteration(oracle, pts)
        assert report.converged and report.iterations >= 5
        assert 1 <= len(contractions) <= report.iterations + 2

    def test_state_sum_is_the_loop_sum_and_histories_are_arrays(self, ds_instance):
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(6), 4)
        oracle = gen.symmetric_matrix_oracle(4)
        cases = [
            ds_instance + (10000,),
            (oracle, gen.positive_point_tuple(oracle, np.random.default_rng(9), 4), 10000),
            gen.matrix_tuple_points(mats) + (1000,),
        ]
        for oracle, pts, max_iters in cases:
            report = hp.sinkhorn_iteration(oracle, pts, max_iters=max_iters, threshold=1e-9)
            state = report.final_state
            assert "d" not in [f.name for f in fields(state)]
            np.testing.assert_array_equal(state.d, state.scales @ state.source)
            # The last energy is p at the loop's own d: the same call on state.d reproduces it bit for bit.
            assert report.energy_history[-1] == oracle.form.interior_gradient(state.d, oracle.direction, 1e-10)[0]
            for history in (report.defect_history, report.energy_history):
                assert isinstance(history, np.ndarray) and history.dtype == np.float64
                assert history.shape == (report.iterations + 1,)
        assert hp.sinkhorn_iteration(*ds_instance, threshold=1e-9).iterations == 0


def _three_call_sinkhorn(oracle, pts: np.ndarray, max_iters: int) -> tuple[tuple[str, bool, bool, int], np.ndarray]:
    """The outcome (verdict, converged, boundary_collapse, iterations) and the energy history of the
    three-call reference loop."""
    outcome, energies, _, _ = three_call_sinkhorn(oracle, pts, max_iters)
    return outcome, energies


def _mixed_rank_family(count: int):
    """The seeded mixed-rank PSD family: rng = default_rng(3), per tuple n in 3..8 and element
    ranks r in 1..n, A_i = V V^T with V = standard_normal((n, r)) * uniform(0.2, 3, size=r)."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        mats = []
        for r in rng.integers(1, n + 1, size=n):
            v = rng.standard_normal((n, r)) * rng.uniform(0.2, 3, size=r)
            mats.append(v @ v.T)
        yield mats


class TestOneFactorizationPerStep:
    """sinkhorn_iteration against the three-call reference loop: same verdict, convergence, collapse
    and iteration count, and the same energies up to rounding; a zero run stops earlier than the
    reference, on its trajectory certificate, and matches it step for step up to there."""

    def test_mixed_rank_family(self):
        small = [mats for mats in _mixed_rank_family(44) if len(mats) <= 5][:20]
        assert len(small) == 20
        outcomes = set()
        for mats in small:
            oracle, pts = gen.matrix_tuple_points(mats)
            report = hp.sinkhorn_iteration(oracle, pts, max_iters=300)
            got = (report.capacity_verdict, report.converged, report.boundary_collapse, report.iterations)
            expected, energies = _three_call_sinkhorn(oracle, pts, 300)
            assert got == expected
            _assert_same_energies(report.energy_history, energies)
            outcomes.add(got[:2])
        # The runs that stop short of the threshold are positive from their traces, as the reference's
        # rank check confirms.
        assert outcomes == {("positive", True), ("positive", False)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rank_deficient_and_dense_tuples(self, n, monkeypatch):
        # The rank-deficient run stops on its first trajectory certificate, a prefix of the reference
        # loop's run to the collapse; the positive dense run matches the reference step for step.
        checks = []
        original = scaling.edmonds_rado_check
        monkeypatch.setattr(scaling, "edmonds_rado_check", lambda *args: checks.append(args) or original(*args))
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(30 + n), n)
        oracle, pts = gen.matrix_tuple_points(mats)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=1000)
        reference = three_call_sinkhorn(oracle, pts, 1000)
        assert_stops_on_a_zero_certificate(report.to_json(), report.final_state.scales, mats, reference)
        rng = np.random.default_rng(40 + n)
        base = gen.random_determinantal_oracle(rng, n, 3)
        dense = hp.dense_from_oracle(base)
        pts = gen.positive_point_tuple(base, rng, n)
        report = hp.sinkhorn_iteration(dense, pts, max_iters=1000)
        got = (report.capacity_verdict, report.converged, report.boundary_collapse, report.iterations)
        expected, energies = _three_call_sinkhorn(dense, pts, 1000)
        assert got == expected and got[:3] == ("positive", True, False)
        _assert_same_energies(report.energy_history, energies)
        assert checks == []


def _zero_capacity_families():
    """Permuted zero-capacity tuples whose violating set has 2, 3 and 4 elements: the duplicated
    rank-one pair of rank_deficient_matrix_tuple (n = 3..12), three rank-one elements in a plane
    (n = 4..9), and four rank-two elements in a 3-space (n = 5..9; at n = 4 they would be the whole
    tuple, whose sum is then singular)."""
    for n in range(3, 13):
        for seed in range(2):
            rng = np.random.default_rng([1, n, seed])
            mats, _ = gen.rank_deficient_matrix_tuple(rng, n)
            yield 2, [mats[i] for i in rng.permutation(n)]
    for n in range(4, 10):
        for seed in range(2):
            yield 3, _planted_violation(np.random.default_rng([2, n, seed]), n, 3, 2, rank=1)
    for n in range(5, 10):
        for seed in range(2):
            yield 4, _planted_violation(np.random.default_rng([3, n, seed]), n, 4, 3, rank=2)


class TestZeroVerdictFromTheTrajectory:
    def test_prefix_route_agrees_with_the_rank_check(self, monkeypatch):
        # The reference loop runs on to the collapse and takes its verdict from edmonds_rado_check;
        # sinkhorn_iteration must reach the same one earlier, from the prefixes of its scale order,
        # without running the check.
        checks = []
        original = scaling.edmonds_rado_check
        monkeypatch.setattr(scaling, "edmonds_rado_check", lambda *args: checks.append(args) or original(*args))
        sizes = set()
        for size, mats in _zero_capacity_families():
            oracle, pts = gen.matrix_tuple_points(mats)
            report = hp.sinkhorn_iteration(oracle, pts, max_iters=1000)
            reference = three_call_sinkhorn(oracle, pts, 1000)
            assert_stops_on_a_zero_certificate(report.to_json(), report.final_state.scales, mats, reference)
            assert checks == []
            sizes.add(size)
        assert sizes == {2, 3, 4}

    def test_rank_calls_follow_the_doubling_schedule(self, monkeypatch, tight_set_matrices):
        # A run ranks its prefixes at each step 1, 2, 4, ... that it reaches before its traces certify
        # positive capacity, so a run of i steps makes at most i.bit_length() = floor(log2 i) + 1 rank
        # calls before a final check.  A zero-capacity tuple is settled within two steps, with no collapse
        # and no full check.
        ranks, check_entries = [], []
        original_rank, original_check = scaling.hyperbolic_rank, scaling.edmonds_rado_check
        monkeypatch.setattr(scaling, "hyperbolic_rank", lambda *args: ranks.append(args) or original_rank(*args))
        monkeypatch.setattr(
            scaling, "edmonds_rado_check", lambda *args: check_entries.append(len(ranks)) or original_check(*args)
        )

        def run(oracle, pts, max_iters):
            ranks.clear()
            check_entries.clear()
            report = hp.sinkhorn_iteration(oracle, pts, max_iters=max_iters)
            # A run that ends with neither certificate runs the full check after its scheduled calls.
            before_final = check_entries[0] if check_entries else len(ranks)
            steps = report.iterations
            # k = n throughout, where the traces certify positive capacity exactly when the defect is at most 1/n.
            certified = [i for i, defect in enumerate(report.defect_history) if defect <= 1 / oracle.n]
            powers = [2**j for j in range(steps.bit_length())]
            scheduled = [p for p in powers if not certified or p < certified[0]]
            assert before_final == len(scheduled) <= steps.bit_length()
            assert all(args[1].shape == pts.shape for args in ranks[:before_final])
            return report, before_final

        for _, mats in _zero_capacity_families():
            report, calls = run(*gen.matrix_tuple_points(mats), 1000)
            assert report.capacity_verdict == "zero" and not report.boundary_collapse
            assert 1 <= report.iterations <= 2 and check_entries == [] and len(ranks) == calls
        # A tight set has positive capacity that the iteration only approaches; its defect is below 1/n from
        # step 1 on, so its runs are positive there and rank nothing, as the mixed-rank runs mostly do.
        for max_iters in (1, 8, 100):
            report, calls = run(*gen.matrix_tuple_points(tight_set_matrices), max_iters)
            assert report.capacity_verdict == "positive" and report.iterations == max_iters
            assert not report.converged and calls == 0 and check_entries == []
        for mats in [mats for mats in _mixed_rank_family(44) if len(mats) <= 5][:20]:
            run(*gen.matrix_tuple_points(mats), 300)
        # With every certificate hidden, a zero-capacity run ranks at each power of two up to its collapse.
        original_prefix = scaling._prefix_violates

        def hidden_prefix(*args):
            original_prefix(*args)
            return False

        monkeypatch.setattr(scaling, "_prefix_violates", hidden_prefix)
        for _, mats in itertools.islice(_zero_capacity_families(), 0, None, 6):
            report, calls = run(*gen.matrix_tuple_points(mats), 1000)
            assert report.capacity_verdict == "zero" and report.boundary_collapse
            assert calls == report.iterations.bit_length() >= 4 and len(check_entries) == 1


_RANK_FAMILIES = ("product", "psd", "dense")


class TestEdmondsRado:
    @pytest.mark.parametrize("k", range(9))
    def test_subsets_in_lexicographic_order(self, k):
        expected = sorted(
            itertools.chain.from_iterable(itertools.combinations(range(k), size) for size in range(1, k + 1))
        )
        assert list(lexicographic_subsets(k)) == expected

    def test_duplicated_point_fails(self):
        oracle, _ = gen.matrix_tuple_points([np.eye(2)] * 2)
        x = matrix_to_point(np.outer([1.0, 0.0], [1.0, 0.0]))
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
            # The peel settles the full-rank tuple from the form's interior test alone, with no rank call.
            assert int(not holds) <= len(calls) <= 3 * 12**2


    @pytest.mark.parametrize("n", range(3, 8))
    def test_planted_violations_match_brute_force(self, n):
        # j elements whose ranges lie in a random u-dimensional subspace: the
        # condition fails exactly when j > u, on a subset of those j elements.
        rng = np.random.default_rng([11, n])
        violating = 0
        for j in range(1, n + 1):
            for u in range(1, n):
                mats = _planted_violation(rng, n, j, u)
                expected = _brute_force_minimal_minimizer(n, lambda s: np.linalg.matrix_rank(sum(mats[i] for i in s)))
                report = hp.edmonds_rado_check(*gen.matrix_tuple_points(mats))
                assert (report.holds, report.witness) == (expected is None, expected), (j, u)
                assert report.holds == (j <= u)
                violating += not report.holds
        assert violating == n * (n - 1) // 2

    def test_zero_one_product_tuples_match_brute_force(self):
        # On 0/1 points of the product form, the rank of a sum is the size of its support.
        rng = np.random.default_rng(12)
        violating = 0
        for _ in range(120):
            n, k = int(rng.integers(2, 8)), int(rng.integers(1, 9))
            pts = (rng.random((k, n)) < rng.uniform(0.15, 0.6)).astype(float)
            expected = _brute_force_minimal_minimizer(k, lambda s: np.count_nonzero(pts[list(s)].sum(axis=0)))
            report = hp.edmonds_rado_check(hp.product_oracle(n), pts)
            assert (report.holds, report.witness) == (expected is None, expected)
            violating += expected is not None
        assert 30 <= violating <= 90

    def test_peeling_settles_a_full_rank_tuple_in_one_rank_call(self, monkeypatch):
        # The tuples of test_rank_calls_polynomial: the full-rank one needs only one stacked interior test
        # of its elements and no rank call, and the deficient one runs Wolfe on its rank-one pair alone.
        rng = np.random.default_rng(12)
        full_rank = gen.psd_matrix_tuple(rng, 12)
        deficient, _ = gen.rank_deficient_matrix_tuple(rng, 12)
        original = scaling.hyperbolic_rank
        calls, interiors = [], []
        monkeypatch.setattr(scaling, "hyperbolic_rank", lambda *args: calls.append(args) or original(*args))
        oracle, pts = gen.matrix_tuple_points(full_rank)
        form = type(oracle.form)
        original_interior = form.interior
        monkeypatch.setattr(form, "interior", lambda *args: interiors.append(args) or original_interior(*args))
        assert hp.edmonds_rado_check(oracle, pts).holds
        assert calls == [] and len(interiors) == 1 and interiors[0][1].shape == (12, 78)
        calls.clear()
        report = hp.edmonds_rado_check(*gen.matrix_tuple_points(deficient[::-1]))
        assert report.witness == (10, 11)
        assert 2 <= len(calls) < 44

    @pytest.mark.parametrize("family", _RANK_FAMILIES)
    def test_one_stacked_rank_call_per_greedy_vertex(self, family, monkeypatch):
        # After the peeling call, every rank call ranks the prefix sums of one greedy vertex: one vertex to
        # start, one per major cycle, and on a failure the vertex that closes the gap, then the witness.
        original_rank, original_step = scaling.hyperbolic_rank, scaling._wolfe_step
        calls, steps = [], []
        monkeypatch.setattr(scaling, "hyperbolic_rank", lambda *args: calls.append(args[1]) or original_rank(*args))
        monkeypatch.setattr(scaling, "_wolfe_step", lambda *args: steps.append(args) or original_step(*args))
        ran = 0
        for seed in range(40):
            oracle, pts = _rank_instance(family, np.random.default_rng([_RANK_FAMILIES.index(family), seed]))
            calls.clear()
            steps.clear()
            report = hp.edmonds_rado_check(oracle, pts)
            # The peel ranks the elements that the form's interior test does not place inside the cone.
            peel = int(not oracle.form.interior(pts, oracle.direction, DEFAULT_RANK_TOL).all())
            if len(calls) == peel:  # peeling alone settled it
                assert report.holds and not steps
                continue
            ran += 1
            vertices = calls[peel:] if report.holds else calls[peel:-1]
            assert len(vertices) == len(steps) + 1 + (not report.holds)
            k = vertices[0].shape[0]
            for prefixes in vertices:
                assert prefixes.shape == (k, oracle.m)
                # The rows are the prefix sums of one ordering of the same k elements.
                elements = np.diff(prefixes, axis=0, prepend=0.0)
                gaps = np.abs(elements[:, None, :] - pts[None, :, :]).max(axis=2).min(axis=1)
                assert np.all(gaps <= 1e-12 * max(1.0, float(np.max(np.abs(prefixes)))))
            if not report.holds:
                assert calls[-1].shape == (oracle.m,)
        assert ran >= 10


def _planted_violation(rng: np.random.Generator, n: int, j: int, u: int, rank=None) -> list:
    """n PSD matrices in random order, j of them with ranges inside one random u-dimensional subspace,
    each of the given rank or of a random rank in 1..u."""
    basis = np.linalg.qr(rng.standard_normal((n, u)))[0]
    mats = []
    for _ in range(j):
        v = basis @ rng.standard_normal((u, rank or int(rng.integers(1, u + 1))))
        mats.append(v @ v.T)
    mats += [gen.random_psd_matrix(rng, n) for _ in range(n - j)]
    return [mats[i] for i in rng.permutation(n)]


def _brute_force_minimal_minimizer(k: int, rank):
    """Intersection of the subsets S of range(k) of largest deficiency |S| - rank(S), or None when none is positive."""
    deficiency = {subset: len(subset) - rank(subset) for subset in lexicographic_subsets(k)}
    worst = max(deficiency.values())
    if worst <= 0:
        return None
    return tuple(sorted(set.intersection(*(set(s) for s, d in deficiency.items() if d == worst))))


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
        subset: len(subset) - hp.hyperbolic_rank(oracle, pts[list(subset)].sum(axis=0))
        for subset in lexicographic_subsets(len(pts))
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

    def test_outside_cone_start_raises(self):
        # p(1, -1) = -1: no line search can start from a negative value.
        with pytest.raises(DegenerateDirectionError):
            hp.capacity(hp.product_oracle(2), [[1.0, -1.0]])

    def test_tight_set_is_not_zero_capacity(self, tight_set_matrices):
        # The rank condition holds, so the capacity is positive; a tight
        # subset makes the infimum unattained, which is an iteration limit.
        oracle, pts = gen.matrix_tuple_points(tight_set_matrices)
        assert hp.edmonds_rado_check(oracle, pts).holds
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = hp.capacity(oracle, pts, max_iters=500)
        assert result.status != "zero_capacity"
        n = len(tight_set_matrices)
        lower = hp.mixed_discriminant(tight_set_matrices)
        assert lower * (1.0 - 1e-9) <= result.value <= lower * n**n / math.factorial(n)

    def test_overflowing_trial_step_is_silent(self, tight_set_matrices):
        # Scaled by c with c^4 = 1e300, p sits near the top of the float range,
        # so some Barzilai-Borwein trial steps overflow det.  Such a step is
        # rejected, and numpy must not warn about it.
        oracle, pts = gen.matrix_tuple_points(tight_set_matrices)
        c = 1e75
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = hp.capacity(oracle, c * pts, max_iters=500)
        n = len(tight_set_matrices)
        lower = hp.mixed_discriminant(tight_set_matrices)
        assert lower * (1.0 - 1e-9) <= result.value / c**n <= lower * n**n / math.factorial(n)

    @pytest.mark.parametrize("c", [1.0, 1e-4, 1e-10])
    def test_scale_free_certificate(self, c):
        # Cap(c x) = c^n Cap(x), and the rank certificate ignores c.
        oracle = gen.symmetric_matrix_oracle(3)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng(1), 3)
        base = hp.capacity(oracle, pts).value
        assert hp.edmonds_rado_check(oracle, c * pts).holds
        result = hp.capacity(oracle, c * pts)
        assert result.status == "converged"
        assert result.value / c**3 == pytest.approx(base, rel=1e-6)

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


def _counting_rank_calls(monkeypatch):
    """Patch scaling's hyperbolic_rank and edmonds_rado_check to record their calls; returns both lists.
    A rank call made inside edmonds_rado_check is recorded too."""
    ranks, checks = [], []
    original_rank, original_check = scaling.hyperbolic_rank, scaling.edmonds_rado_check
    monkeypatch.setattr(scaling, "hyperbolic_rank", lambda *args: ranks.append(args) or original_rank(*args))
    monkeypatch.setattr(scaling, "edmonds_rado_check", lambda *args: checks.append(args) or original_check(*args))
    return ranks, checks


def _positive_workload_tuples():
    """Positive tuples of the sizes the scaling benchmark runs: symmetric-basis PSD tuples with n = 6, 8,
    10, 12, product tuples with the same n, and dense tuples expanded from m = 3 determinantal forms with
    n = 3, 4, 5."""
    for n in (6, 8, 10, 12):
        yield gen.matrix_tuple_points(gen.psd_matrix_tuple(np.random.default_rng([4, n]), n))
        yield gen.positive_product_tuple(np.random.default_rng([5, n]), n)
    for n in (3, 4, 5):
        rng = np.random.default_rng([6, n])
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, 3))
        yield dense, gen.positive_point_tuple(dense, rng, n)


class TestZeroCapacityFromTheMinimization:
    """capacity settles the rank condition from its own run: a squared projected gradient norm at or
    below 1/n certifies it, a run without that certificate ranks its prefixes in order of decreasing
    weight at iterations 2, 4, 8, ..., and edmonds_rado_check runs only on a run that ends with neither."""

    def test_positive_tuples_make_no_rank_call(self, monkeypatch):
        ranks, checks = _counting_rank_calls(monkeypatch)
        for oracle, pts in _positive_workload_tuples():
            result = hp.capacity(oracle, pts)
            assert result.status == "converged" and result.value > 0.0
            assert ranks == [] and checks == []

    def test_zero_capacity_families_take_one_rank_call(self, monkeypatch):
        ranks, checks = _counting_rank_calls(monkeypatch)
        for _, mats in _zero_capacity_families():
            oracle, pts = gen.matrix_tuple_points(mats)
            ranks.clear()
            result = hp.capacity(oracle, pts)
            assert result.status == "zero_capacity" and result.value == 0.0
            assert len(ranks) == 1 and ranks[0][1].shape == pts.shape and checks == []

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_runs_stop_by_the_second_iterate(self, seed, monkeypatch):
        # Without the rank check such a run would spend its whole budget: its infimum is zero, approached
        # but never reached.
        ranks, checks = _counting_rank_calls(monkeypatch)
        gradients = []
        original = scaling.traces_in_direction
        monkeypatch.setattr(scaling, "traces_in_direction", lambda *args: gradients.append(args) or original(*args))
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(seed), 4)
        result = hp.capacity(*gen.matrix_tuple_points(mats))
        assert result.status == "zero_capacity" and result.iterations == 0
        assert 1 <= len(gradients) <= 2 and len(ranks) == 1 and checks == []

    def test_more_elements_than_the_degree_fail_on_the_whole_tuple(self, monkeypatch):
        ranks, checks = _counting_rank_calls(monkeypatch)
        oracle = gen.symmetric_matrix_oracle(3)
        result = hp.capacity(oracle, gen.positive_point_tuple(oracle, np.random.default_rng(2), 4))
        assert result.status == "zero_capacity"
        assert len(ranks) == 1 and checks == []


def _scaled_planted_violations():
    """400 zero-capacity tuples: rng = default_rng(11), per trial n in 3..8, j in 2..n-1 elements with
    ranges inside one u-dimensional subspace, u in 1..j-1 (_planted_violation), and every element then
    scaled by 10 ** uniform(-1, 1)."""
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(3, 9))
        j = int(rng.integers(2, n))
        mats = _planted_violation(rng, n, j, int(rng.integers(1, j)))
        yield [a * c for a, c in zip(mats, 10.0 ** rng.uniform(-1, 1, size=n))]


class TestOneVerdictRule:
    """Both solvers read positive capacity from one certificate on their traces, zero capacity from a
    violating prefix at steps 1 (Sinkhorn only), 2, 4, 8, ..., and run edmonds_rado_check only when a
    run ends with neither."""

    def test_sinkhorn_traces_are_the_capacity_gradient_at_its_scales(self):
        # At k = n the spread of the traces around their mean is the defect.
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(np.random.default_rng(13), 4))
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=3)
        state = report.final_state
        traces = hp.traces_in_direction(oracle, state.points, state.d)
        gradient = state.scales * hp.traces_in_direction(oracle, pts, state.d)
        np.testing.assert_allclose(gradient, traces, rtol=1e-12)
        spread = traces - traces.mean()
        assert float(spread @ spread) == pytest.approx(state.defect, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_one_element_more_than_the_degree_is_zero_in_all_three_checks(self, n, monkeypatch):
        # Full-rank elements, k = n + 1: the whole tuple violates the rank condition, yet Sinkhorn drives
        # every trace toward n / (n + 1), a spread far below 1/n.  Only k <= n makes that spread a certificate.
        oracle = gen.symmetric_matrix_oracle(n)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng([12, n]), n + 1)
        assert not hp.edmonds_rado_check(oracle, pts).holds
        assert hp.capacity(oracle, pts).status == "zero_capacity"
        assert hp.sinkhorn_iteration(oracle, pts).capacity_verdict == "zero"
        # A threshold above the least defect (k - n)^2 / k = 1 / (n + 1) converges, and the verdict stays zero.
        report = hp.sinkhorn_iteration(oracle, pts, threshold=0.9 / n)
        assert report.converged and report.capacity_verdict == "zero"
        # With the prefix hidden, the runs reach that spread and still take zero from the full check.
        monkeypatch.setattr(scaling, "_prefix_violates", lambda *args: False)
        report = hp.sinkhorn_iteration(oracle, pts, max_iters=100)
        traces = hp.traces_in_direction(oracle, report.final_state.points, report.final_state.d)
        spread = traces - traces.mean()
        assert float(spread @ spread) <= 1.0 / n and report.capacity_verdict == "zero"
        assert hp.capacity(oracle, pts, max_iters=100).status == "zero_capacity"

    def test_later_prefixes_settle_what_the_second_iterate_misses(self, monkeypatch):
        # Element scales a decade either way hide the violating set from capacity's prefix call at its
        # second iterate on 30 of these tuples; the call at its fourth finds it, with no full check.  Left
        # to the second iterate alone, each of them would end on the full check, most after spending the
        # whole iteration budget.  Sinkhorn settles every tuple by its eighth step.
        ranks, checks = _counting_rank_calls(monkeypatch)
        late = []
        for trial, mats in enumerate(_scaled_planted_violations()):
            oracle, pts = gen.matrix_tuple_points(mats)
            ranks.clear()
            result = hp.capacity(oracle, pts)
            assert result.status == "zero_capacity" and 1 <= len(ranks) <= 2 and checks == []
            if len(ranks) == 2:
                late.append(trial)
            report = hp.sinkhorn_iteration(oracle, pts)
            assert report.capacity_verdict == "zero" and report.iterations <= 8 and checks == []
        assert late == [
            3, 31, 35, 50, 51, 53, 56, 80, 101, 110, 114, 116, 141, 152, 202,
            236, 240, 245, 251, 260, 273, 297, 301, 325, 326, 329, 330, 353, 362, 363,
        ]


def _assert_same_capacity(got, expected) -> None:
    def fields_of(result):
        return result.status, result.value, result.gradient_norm, result.iterations, result.minimizer.tobytes()

    assert fields_of(got) == fields_of(expected)


def _capacity_parity_tuples(n: int):
    """(family, oracle, points) at size n: a symmetric-basis PSD tuple, a product tuple, a stored pencil
    with m = n, the dense expansion of an m = 3 pencil (its points drawn by the pencil, whose roots are
    the same and stay accurate at every n), and a rank-deficient tuple."""
    rng = np.random.default_rng([9, n])
    pencil = gen.random_determinantal_oracle(rng, n, n)
    base = gen.random_determinantal_oracle(rng, n, 3)
    yield "symmetric", *gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, n))
    yield "product", *gen.positive_product_tuple(rng, n)
    yield "pencil", pencil, gen.positive_point_tuple(pencil, rng, n)
    yield "dense", hp.dense_from_oracle(base), gen.positive_point_tuple(base, rng, n)
    yield "deficient", *gen.matrix_tuple_points(gen.rank_deficient_matrix_tuple(rng, n)[0])


class TestCapacityParity:
    """capacity against the loop that validates every trial through oracle.evaluate and takes numpy's
    mean, norm and dot on every iterate: the same result bit for bit."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_same_bytes_on_every_family(self, n):
        statuses = {}
        for family, oracle, pts in _capacity_parity_tuples(n):
            got = hp.capacity(oracle, pts)
            _assert_same_capacity(got, capacity_through_evaluate(oracle, pts))
            statuses[family] = got.status
        assert statuses["deficient"] == "zero_capacity"
        assert {statuses[f] for f in ("symmetric", "product", "pencil", "dense")} == {"converged"}

    def test_same_bytes_at_the_iteration_limit(self, tight_set_matrices):
        # Tight singletons: the infimum is not attained, and the run ends at its iteration limit.
        oracle, pts = gen.matrix_tuple_points(tight_set_matrices)
        got = hp.capacity(oracle, pts, max_iters=300)
        _assert_same_capacity(got, capacity_through_evaluate(oracle, pts, max_iters=300))
        assert (got.status, got.iterations) == ("iteration_limit", 300)

    def test_width_mismatch_raises_as_the_loop_does(self):
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(np.random.default_rng(10), 3))
        with pytest.raises(hp.DimensionMismatchError) as expected:
            capacity_through_evaluate(oracle, pts[:, :-1])
        with pytest.raises(hp.DimensionMismatchError, match=f"^{re.escape(str(expected.value))}$"):
            hp.capacity(oracle, pts[:, :-1])


class TestCapacityMatchesTheRankCheckFirst:
    """capacity against the route that runs edmonds_rado_check before every minimization: the same
    result bit for bit, whether the tuple is positive, tight, zero, or stops before its second iterate."""

    def test_mixed_rank_family(self):
        statuses = set()
        for mats in _mixed_rank_family(30):
            oracle, pts = gen.matrix_tuple_points(mats)
            result = hp.capacity(oracle, pts, max_iters=200)
            _assert_same_capacity(result, capacity_rank_check_first(oracle, pts, max_iters=200))
            statuses.add(result.status)
        assert statuses == {"converged", "iteration_limit"}

    def test_zero_capacity_families(self):
        for _, mats in _zero_capacity_families():
            oracle, pts = gen.matrix_tuple_points(mats)
            result = hp.capacity(oracle, pts)
            _assert_same_capacity(result, capacity_rank_check_first(oracle, pts))
            assert result.status == "zero_capacity"

    @pytest.mark.parametrize("k", [3, 5])
    def test_one_element_fewer_or_more_than_the_degree(self, k):
        oracle = gen.symmetric_matrix_oracle(4)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng(k), k)
        result = hp.capacity(oracle, pts, max_iters=200)
        _assert_same_capacity(result, capacity_rank_check_first(oracle, pts, max_iters=200))
        assert (result.status == "zero_capacity") == (k > 4)

    def test_zero_tuple_at_a_loose_tolerance(self):
        # Three elements of a product tuple on two coordinates: their traces are 2/3 each and the others'
        # 4/3, so the first gradient already meets tol = 1 and the run stops at once; the zero must come
        # from the rank check, not from the tolerance.
        oracle = hp.product_oracle(6)
        pts = np.zeros((6, 6))
        pts[:3, :2] = pts[3:, 2:] = 1.0
        grad = hp.traces_in_direction(oracle, pts, pts.sum(axis=0))
        assert 1.0 / oracle.n < float(np.sum((grad - grad.mean()) ** 2)) <= 1.0
        result = hp.capacity(oracle, pts, tol=1.0)
        _assert_same_capacity(result, capacity_rank_check_first(oracle, pts, tol=1.0))
        assert result.status == "zero_capacity"

    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_zero_tuple_stopped_before_its_second_iterate(self, max_iters):
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(2), 5)
        oracle, pts = gen.matrix_tuple_points(mats)
        result = hp.capacity(oracle, pts, max_iters=max_iters)
        _assert_same_capacity(result, capacity_rank_check_first(oracle, pts, max_iters=max_iters))
        assert result.status == "zero_capacity"

    def test_singular_sum_is_zero_capacity(self):
        # Four rank-two matrices inside one 3-space, whose singular sum rounds to p = 9e-14 > 0, and a
        # product tuple with no weight on its last coordinate, whose sum has p = 0 exactly.
        mats = _planted_violation(np.random.default_rng(7), 4, 4, 3, rank=2)
        oracle, pts = gen.matrix_tuple_points(mats)
        assert 0.0 < hp.evaluate(oracle, pts.sum(axis=0)) <= 1e-12 * np.prod([np.trace(a) for a in mats])
        product, flat = hp.product_oracle(3), np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert hp.evaluate(product, flat.sum(axis=0)) == 0.0
        for oracle, pts in ((oracle, pts), (product, flat)):
            result = hp.capacity(oracle, pts)
            _assert_same_capacity(result, capacity_rank_check_first(oracle, pts))
            assert result.status == "zero_capacity"

    def test_outside_cone_start_raises_on_both_routes(self):
        for route in (hp.capacity, capacity_rank_check_first):
            with pytest.raises(DegenerateDirectionError):
                route(hp.product_oracle(2), [[1.0, -1.0]])


def _identity_tuples():
    """The product and symmetric-basis forms at n = 3, 4 with the tuple that sums to their direction e:
    the unit vectors, or the coordinates of the E_ii.  The sum e has the n-fold root 1."""
    for n in (3, 4):
        yield hp.product_oracle(n), np.eye(n)
        yield gen.symmetric_matrix_oracle(n), gen.matrix_points([np.diag(row) for row in np.eye(n)])


class TestRepeatedRootOnDenseForms:
    """The dense expansion of a form, at a tuple whose sum is e: the interior certificate takes the
    n-fold root of e, which a companion matrix splits into a non-real cluster."""

    @pytest.mark.parametrize("case", range(4))
    def test_sinkhorn_capacity_and_cone_membership(self, case):
        base, pts = list(_identity_tuples())[case]
        dense = hp.dense_from_oracle(base)
        np.testing.assert_array_equal(pts.sum(axis=0), dense.direction)
        report = hp.sinkhorn_iteration(dense, pts)
        assert (report.capacity_verdict, report.converged, report.iterations) == ("positive", True, 0)
        assert report.defect_history[0] == 0.0
        assert hp.doubly_stochastic_defect(dense, pts) == 0.0
        result = hp.capacity(dense, pts)
        assert result.status == "converged"
        assert result.value == pytest.approx(hp.capacity(base, pts).value, rel=0.0, abs=1e-12)
        assert hp.cone_membership(dense, dense.direction) == hp.POSITIVE


def _dense_workload_tuples(seed: int):
    """Positive tuples of the scaling benchmark's dense family: n = 3, 4, 5 elements for the dense
    expansion of an m = 3 determinantal form."""
    for n in (3, 4, 5):
        rng = np.random.default_rng([seed, n])
        dense = hp.dense_from_oracle(gen.random_determinantal_oracle(rng, n, m=3))
        yield dense, gen.positive_point_tuple(dense, rng, n)


def _scaling_fingerprint(oracle, pts) -> tuple:
    """The bytes of a Sinkhorn report, a capacity result, the final defect of a converged run, and the
    rank check's report."""
    report = hp.sinkhorn_iteration(oracle, pts)
    cap = hp.capacity(oracle, pts)
    defect = hp.doubly_stochastic_defect(oracle, report.final_state.points) if report.converged else None
    rank = hp.edmonds_rado_check(oracle, pts)
    return (
        (report.converged, report.iterations, report.capacity_verdict, report.boundary_collapse),
        (report.defect_history.tobytes(), report.energy_history.tobytes(), report.final_state.scales.tobytes()),
        (cap.status, cap.value, cap.gradient_norm, cap.iterations, cap.minimizer.tobytes()),
        defect,
        (rank.holds, rank.witness),
    )


class TestRootRouteParity:
    """The interior certificate changes no result: the scaling solvers give the same bytes with the
    root-based interior test and Sinkhorn step of tests/references.py patched into the form."""

    @staticmethod
    def _assert_parity(monkeypatch, oracle, pts) -> str:
        new = _scaling_fingerprint(oracle, pts)
        with monkeypatch.context() as patched:
            patched.setattr(type(oracle.form), "interior", root_interior)
            patched.setattr(type(oracle.form), "interior_gradient", root_interior_gradient)
            old = _scaling_fingerprint(oracle, pts)
        assert new == old
        return new[0][2]

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_workload_tuples(self, seed, monkeypatch):
        for oracle, pts in _dense_workload_tuples(seed):
            assert self._assert_parity(monkeypatch, oracle, pts) == "positive"

    def test_pencil_and_product_tuples(self, monkeypatch):
        verdicts = []
        for n in (3, 6, 9):
            rng = np.random.default_rng([7, n])
            pencil = gen.random_determinantal_oracle(rng, n, 4)
            cases = [
                gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, n)),
                gen.positive_product_tuple(rng, n),
                (pencil, gen.positive_point_tuple(pencil, rng, n)),
                gen.matrix_tuple_points(gen.rank_deficient_matrix_tuple(rng, n)[0]),
            ]
            verdicts += [self._assert_parity(monkeypatch, oracle, pts) for oracle, pts in cases]
        assert verdicts == ["positive", "positive", "positive", "zero"] * 3


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

    def test_a_zero_value_with_weight_makes_the_bound_zero(self):
        # The composition (2, 0) repeats (1, 0), at which x_1 x_2 vanishes: its mixed value is 0.
        report = hp.mixed_concavity_check(hp.product_oracle(2), np.eye(2), [(2, 0), (1, 1)], [1.0, 0.0])
        assert report.holds and report.lhs == 0.0 and report.rhs == 0.0

    def test_a_zero_value_without_weight_is_skipped(self):
        report = hp.mixed_concavity_check(hp.product_oracle(2), np.eye(2), [(2, 0), (1, 1)], [0.0, 1.0])
        assert report.holds
        assert report.lhs == pytest.approx(1.0, rel=1e-12) and report.rhs == pytest.approx(0.5, rel=1e-12)


class TestVanDerWaerdenRatio:
    def test_identity_slices(self):
        oracle, pts = gen.matrix_tuple_points([np.eye(3) / 3.0] * 3)
        assert van_der_waerden_ratio(oracle, pts) == pytest.approx(2.0 / 9.0, rel=1e-6)

    def test_positive_product_tuple_in_range(self):
        rng = np.random.default_rng(13)
        oracle, pts = gen.positive_product_tuple(rng, 3)
        ratio = van_der_waerden_ratio(oracle, pts)
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
            van_der_waerden_ratio(oracle, pts)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_cross_checks_the_vdw_suite(self, seed):
        # The suite divides the exact mixed discriminant of its matrices by the capacity; the reference
        # polarizes the symmetric-matrix oracle at the same tuple.
        for trial in range(6):
            rng = gen.rng_for(seed, 91, trial)
            oracle, pts = gen.matrix_tuple_points(gen.doubly_stochastic_matrix_tuple(rng, 2 + trial % 3))
            ratio = experiments._vdw_trial((seed, trial))["ratio"]
            assert ratio == pytest.approx(van_der_waerden_ratio(oracle, pts), rel=1e-12)


class TestReciprocalGradient:
    def test_product_equality(self):
        report = gradient_reciprocal_check(hp.product_oracle(2), [2.0, 3.0])
        assert report.holds
        assert report.lhs == pytest.approx(report.rhs)

    def test_sum_of_squares_boundary_then_reversal(self):
        oracle = hp.dense_oracle(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, [1.0, 0.0])
        boundary = gradient_reciprocal_check(oracle, [1.0, 1.0])
        assert boundary.lhs == pytest.approx(0.5) and boundary.rhs == pytest.approx(0.5)
        reversed_case = gradient_reciprocal_check(oracle, [1.0, 2.0])
        assert reversed_case.lhs == pytest.approx(0.3125)
        assert reversed_case.rhs == pytest.approx(0.2)
        assert not reversed_case.holds

    @pytest.mark.parametrize("seed", range(5))
    def test_hyperbolic_instances_hold(self, seed):
        rng = np.random.default_rng(seed)
        oracle = gen.random_determinantal_oracle(rng, 3, 3)
        alpha = rng.uniform(0.2, 2.0, 3)
        assert gradient_reciprocal_check(oracle, alpha, tol=1e-9).holds

    def test_requires_square(self):
        oracle = gen.symmetric_matrix_oracle(3)
        with pytest.raises(InvalidDocumentError):
            gradient_reciprocal_check(oracle, np.ones(oracle.m))
