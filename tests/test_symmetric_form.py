"""The symmetric-basis form against the basis pencil it never stores: bit for bit on every primitive and
derived method, no basis on any compute path, and memory that grows with n^2, not n^4."""

import json
import tracemalloc

import numpy as np
import pytest

import hyperpoly as hp
from hyperpoly import cli, mixed
from hyperpoly import generators as gen
from hyperpoly import oracle as oracle_module
from hyperpoly.oracle import DEFAULT_ROOT_TOL, DeterminantalPolynomial, HyperbolicOracle, SymmetricBasisPolynomial
from references import matrix_to_point, symmetric_basis


def same_bits(a, b):
    """Equal type, dtype, shape and bytes: -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def with_signed_zeros(x, rng):
    """x with about a fifth of its entries replaced by 0.0 or -0.0."""
    x = x.copy()
    mask = rng.uniform(size=x.shape) < 0.2
    x[mask] = np.where(rng.uniform(size=x.shape) < 0.5, 0.0, -0.0)[mask]
    return x


def unit_trace_psd_points(n, seed):
    """``psd_matrix_tuple`` scaled to unit trace, as coordinates: p of the sum stays near 1 at any n."""
    mats = gen.psd_matrix_tuple(np.random.default_rng(seed), n)
    return gen.matrix_points([a / np.trace(a) for a in mats])


class TestAgainstTheBasisPencil:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_method_is_bitwise_the_pencil_form(self, n):
        oracle = gen.symmetric_matrix_oracle(n)
        form = oracle.form
        ref = DeterminantalPolynomial(pencil=symmetric_basis(n))
        assert isinstance(form, SymmetricBasisPolynomial) and same_bits(form.pencil, ref.pencil)
        m, e = oracle.m, oracle.direction
        rng = np.random.default_rng(100 + n)
        x = with_signed_zeros(rng.standard_normal(m), rng)
        stack = with_signed_zeros(rng.standard_normal((2, 3, m)), rng)
        rows = stack.reshape(-1, m)
        z = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        d = matrix_to_point(gen.random_psd_matrix(rng, n) + np.eye(n))
        for args in ((x,), (stack,), (rows,), (z,)):
            assert same_bits(form.matrix(*args), ref.matrix(*args))
        # A complex product in BLAS may give either sign of a zero, so signed zeros are compared by value.
        signed = with_signed_zeros(z.real, rng) + 1j * with_signed_zeros(z.imag, rng)
        assert np.array_equal(form.matrix(signed), ref.matrix(signed))
        assert same_bits(form.evaluate_batch(rows), ref.evaluate_batch(rows))
        assert same_bits(form.evaluate_batch(z), ref.evaluate_batch(z))
        assert same_bits(form.grad_log_p(d), ref.grad_log_p(d))
        for point in (x, stack, rows):
            for method, direction in (("roots", d), ("normalized_roots", e)):
                got = getattr(form, method)(point, direction, DEFAULT_ROOT_TOL)
                assert same_bits(got, getattr(ref, method)(point, direction, DEFAULT_ROOT_TOL))
            assert same_bits(form.interior(point, e, 1e-10), ref.interior(point, e, 1e-10))
        for point in (d, x):  # with and without a gradient
            got, want = form.interior_gradient(point, e, 1e-10), ref.interior_gradient(point, e, 1e-10)
            assert same_bits(got[0], want[0])
            assert (got[1] is None) == (want[1] is None) and (got[1] is None or same_bits(got[1], want[1]))
        assert form.interior_gradient(d, e, 1e-10)[1] is not None
        tuple_form, coords = form.tuple_form(rows[:4])
        ref_tuple_form, ref_coords = ref.tuple_form(rows[:4])
        assert type(tuple_form) is DeterminantalPolynomial
        assert same_bits(tuple_form.pencil, ref_tuple_form.pencil) and same_bits(coords, ref_coords)
        assert form.json_fields(e) == ref.json_fields(e)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_traces_of_any_matrix_are_bitwise_the_pencil_product(self, n):
        # The adjoint takes any W, a transposed view included; -0.0 sums read 0.0 as the pencil's do.
        form = gen.symmetric_matrix_oracle(n).form
        ref = DeterminantalPolynomial(pencil=symmetric_basis(n))
        rng = np.random.default_rng(n)
        w = with_signed_zeros(rng.standard_normal((n, n)), rng)
        w[np.triu_indices(n, 1)] = w.T[np.triu_indices(n, 1)] = -0.0
        for matrix in (w, rng.standard_normal((n, n)), rng.standard_normal((n, n)).T):
            assert same_bits(form.traces(matrix), ref.traces(matrix))

    def test_oracle_document_is_the_symmetric_document(self):
        # The O(n^4) basis is never written: the document names the size, and reads back to the cached form.
        oracle = gen.symmetric_matrix_oracle(3)
        doc = hp.oracle_to_json(oracle)
        assert doc == {"kind": "symmetric", "n": 3} and oracle.kind == "determinantal"
        assert oracle.metadata == {"gram_determinant": 1.0, "congruence_applied": False}
        loaded = hp.oracle_from_json(json.loads(json.dumps(doc)))
        assert loaded.form is oracle.form
        assert same_bits(loaded.direction, oracle.direction) and loaded.metadata == oracle.metadata

    def test_size_below_one_is_refused(self):
        with pytest.raises(hp.InvalidDocumentError):
            gen.symmetric_matrix_oracle(0)


class TestNoBasisOnComputePaths:
    @staticmethod
    def refuse(*args):
        raise AssertionError("a symmetric basis was built")

    def test_solvers_mixed_values_and_cli_never_build_the_basis(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(SymmetricBasisPolynomial, "pencil", property(self.refuse))
        monkeypatch.setattr(oracle_module, "_basis_matrices", self.refuse)
        rng = np.random.default_rng(4)
        oracle, pts = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, 4))
        assert hp.edmonds_rado_check(oracle, pts).holds
        assert hp.capacity(oracle, pts).status == "converged"
        assert hp.sinkhorn_iteration(oracle, pts).capacity_verdict == "positive"
        oracle, pts = gen.structured_psd_points(rng, 4)
        assert hp.mixed_value(oracle, pts) >= 0.0
        assert hp.support(oracle, pts).members
        oracle_path = tmp_path / "o.json"
        oracle_path.write_text(json.dumps({"kind": "symmetric", "n": 4}))
        tuple_path = tmp_path / "t.json"
        tuple_path.write_text(json.dumps({"matrices": [gen.point_to_matrix(x, 4).tolist() for x in pts]}))
        for command in ("mixed", "support"):
            assert cli.main([command, str(oracle_path), str(tuple_path)]) in (0, 1)
            assert json.loads(capsys.readouterr().out)

    def test_a_sinkhorn_step_forms_one_matrix(self, monkeypatch):
        oracle = gen.symmetric_matrix_oracle(4)
        pts = gen.positive_point_tuple(oracle, np.random.default_rng(8), 4)
        formed = []
        original = SymmetricBasisPolynomial.matrix
        monkeypatch.setattr(SymmetricBasisPolynomial, "matrix", lambda form, x: formed.append(x) or original(form, x))
        report = hp.sinkhorn_iteration(oracle, pts)
        assert report.converged and report.iterations >= 5
        assert 1 <= len(formed) <= report.iterations + 2


class TestMemory:
    # 64 * 65 / 2 basis matrices of 64 x 64 float64 entries: the basis alone would be 68 MB.
    BASIS_64 = 64 * 65 // 2 * 64 * 64 * 8

    @pytest.mark.parametrize("n, bound", [(64, BASIS_64 // 4), (100, 24 << 20)], ids=["quarter-basis-64", "n100"])
    def test_rank_check_capacity_and_sinkhorn_on_a_unit_trace_tuple(self, n, bound):
        pts = unit_trace_psd_points(n, n)
        tracemalloc.start()
        try:
            oracle = gen.symmetric_matrix_oracle(n)
            rank = hp.edmonds_rado_check(oracle, pts)
            cap = hp.capacity(oracle, pts)
            sink = hp.sinkhorn_iteration(oracle, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank.holds and cap.status == "converged" and sink.converged
        assert sink.capacity_verdict == "positive"
        assert peak < bound

    def test_oracle_at_n200_stays_below_one_mib(self):
        oracle_module._coordinate_indices.cache_clear()
        oracle_module._symmetric_form.cache_clear()
        tracemalloc.start()
        try:
            oracle = gen.symmetric_matrix_oracle(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle.m == 20_100 and peak < 1 << 20


class TestCoordinateIndexCache:
    def test_indices_are_cached_read_only(self, monkeypatch):
        rows, cols = oracle_module._coordinate_indices(7)
        assert oracle_module._coordinate_indices(7)[0] is rows and oracle_module._coordinate_indices(7)[1] is cols
        assert not rows.flags.writeable and not cols.flags.writeable
        assert not oracle_module._symmetric_form(7).entries.flags.writeable
        assert gen.symmetric_matrix_oracle(7).form is gen.symmetric_matrix_oracle(7).form

        def refuse(*args, **kwargs):
            raise AssertionError("triu_indices called again")

        a = np.arange(49.0).reshape(7, 7)
        a = a + a.T
        point = matrix_to_point(a)
        monkeypatch.setattr(np, "triu_indices", refuse)
        assert np.array_equal(gen.point_to_matrix(point, 7), a)
        assert np.array_equal(gen.matrix_points([a, a])[1], point)


def multiplying_evaluator(oracle, points, n):
    """``mixed._tuple_evaluator`` with every row multiplied by the tuple form's coordinates."""
    form, coords = oracle.form.tuple_form(points)
    tuple_oracle = HyperbolicOracle(form=form, n=n, m=coords.shape[1], direction=np.ones(coords.shape[1]))
    return lambda sums: hp.evaluate_batch(tuple_oracle, sums @ coords)


class TestIdentityCoordinates:
    def test_rows_are_evaluated_as_given(self, monkeypatch):
        oracle, pts = gen.structured_psd_points(np.random.default_rng(1), 5)
        assert np.array_equal(oracle.form.tuple_form(pts)[1], np.eye(5))
        sums = np.ones((3, 5))
        seen = []
        monkeypatch.setattr(mixed, "evaluate_batch", lambda o, rows: seen.append(rows) or hp.evaluate_batch(o, rows))
        mixed._tuple_evaluator(oracle, pts, 5)(sums)
        assert seen[0] is sums

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 13])
    def test_values_are_bitwise_those_with_the_product(self, monkeypatch, n):
        rng = np.random.default_rng(200 + n)
        oracle, pts = gen.structured_psd_points(rng, n)
        pencil = gen.random_determinantal_oracle(rng, n, 3)
        pencil_pts = gen.positive_point_tuple(pencil, rng, n)
        mats = gen.psd_matrix_tuple(rng, n)

        def values():
            out = [hp.mixed_value(oracle, pts), hp.mixed_value(pencil, pencil_pts), hp.mixed_discriminant(mats)]
            out.append(hp.log_concavity_profile(oracle, pts[0] + oracle.direction, pts[-1] + oracle.direction))
            if n <= 5:
                out.append(mixed._all_mixed_values(oracle, pts)[0])
            return out

        skipped = values()
        monkeypatch.setattr(mixed, "_tuple_evaluator", multiplying_evaluator)
        multiplied = values()
        assert [float(v).hex() for v in skipped[:3]] == [float(v).hex() for v in multiplied[:3]]
        assert same_bits(skipped[3], multiplied[3])
        if n <= 5:
            assert {r: v.hex() for r, v in skipped[4].items()} == {r: v.hex() for r, v in multiplied[4].items()}
