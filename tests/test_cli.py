import ast
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import hyperpoly
from hyperpoly import cli, experiments, interlace, scaling
from hyperpoly import generators as gen
from hyperpoly import oracle as oracle_module
from hyperpoly.cli import build_parser, main
from hyperpoly.errors import ConvergenceError, InvalidDocumentError, real_field
from references import assert_stops_on_a_zero_certificate, symmetric_basis, three_call_sinkhorn


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def product2(tmp_path):
    return write(tmp_path / "oracle.json", {"kind": "product", "n": 2})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestBasicCommands:
    def test_eval(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        code, report = run(capsys, "eval", product2, point)
        assert code == 0 and report["value"] == pytest.approx(6.0)

    def test_roots_default_direction(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", [3.0, 1.0])
        code, report = run(capsys, "roots", product2, point)
        assert code == 0 and report["roots"] == pytest.approx([3.0, 1.0])

    def test_trace_example(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        direction = write(tmp_path / "d.json", [1.0, 2.0])
        code, report = run(capsys, "trace", product2, point, direction)
        assert code == 0 and report["trace"] == pytest.approx(3.5)

    def test_malformed_input_exit_two(self, tmp_path, product2, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["eval", product2, str(bad)])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_exit_two(self, product2, capsys):
        code = main(["eval", product2, "/nonexistent/point.json"])
        capsys.readouterr()
        assert code == 2


class TestTupleCommands:
    def test_mixed_identity_matrices(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 2})
        tup = write(tmp_path / "t.json", {"matrices": [np.eye(2).tolist(), np.eye(2).tolist()]})
        code, report = run(capsys, "mixed", oracle, tup)
        assert code == 0 and report["mixed_value"] == pytest.approx(2.0)

    def test_mixed_at_n15_notes_the_complex_point_count(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "product", "n": 15})
        tup = write(tmp_path / "t.json", {"points": np.eye(15).tolist()})
        assert main(["mixed", oracle, tup]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["mixed_value"] == pytest.approx(1.0, rel=1e-12)
        assert captured.err == "note: polarizing at 2^13 complex points\n"

    def test_support_basis_tuple(self, tmp_path, product2, capsys):
        tup = write(tmp_path / "t.json", {"points": [[1.0, 0.0], [0.0, 1.0]]})
        code, report = run(capsys, "support", product2, tup)
        assert code == 0
        assert report["support"] == [{"r": [1, 1], "value": pytest.approx(1.0)}]
        assert report["saturated"] is True

    def test_af_psd_tuple(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats = gen.psd_matrix_tuple(np.random.default_rng(0), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "af", oracle, tup)
        assert code == 0 and report["holds"] is True and report["residual"] >= 0.0


class TestScalingCommands:
    def test_sinkhorn_converges(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats = gen.doubly_stochastic_matrix_tuple(np.random.default_rng(1), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "sinkhorn", oracle, tup)
        assert code == 0
        assert report["converged"] is True and report["capacity_verdict"] == "positive"

    def test_sinkhorn_rank_deficient_exit_one(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(2), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "sinkhorn", oracle, tup)
        assert code == 1 and report["capacity_verdict"] == "zero"

    def test_sinkhorn_reports_boundary_collapse(self, tmp_path, capsys, monkeypatch):
        # A zero run stops on its first trajectory certificate and reports no collapse, while the reference
        # loop runs on to the collapse; the scales it stopped at are the reference's at that step.
        checks = []
        monkeypatch.setattr(scaling, "edmonds_rado_check", lambda *args: checks.append(args))
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(2), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "sinkhorn", oracle, tup)
        assert code == 1 and report["boundary_collapse"] is False and checks == []
        assert len(report["energy_history"]) == len(report["defect_history"])
        assert report["defect"] == report["defect_history"][-1]
        reference = three_call_sinkhorn(*gen.matrix_tuple_points(mats), 10000)
        assert_stops_on_a_zero_certificate(report, reference[3][report["iterations"]], mats, reference)

    def test_sinkhorn_keys_on_both_verdicts(self, tmp_path, capsys):
        # The final state holds k scales now; the wire format still carries only its defect.
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        positive = gen.doubly_stochastic_matrix_tuple(np.random.default_rng(1), 3)
        deficient, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(2), 3)
        for mats, expected in ((positive, 0), (deficient, 1)):
            tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
            code, report = run(capsys, "sinkhorn", oracle, tup)
            assert code == expected and set(report) == SINKHORN_KEYS

    def test_capacity_reports_iterations(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats = gen.doubly_stochastic_matrix_tuple(np.random.default_rng(3), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "capacity", oracle, tup)
        assert code == 0 and report["iterations"] >= 1

    def test_capacity_doubly_stochastic(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats = gen.doubly_stochastic_matrix_tuple(np.random.default_rng(3), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "capacity", oracle, tup)
        assert code == 0 and report["status"] == "converged"
        assert report["value"] == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dense_tuple_whose_sum_has_a_repeated_root(self, tmp_path, capsys, n):
        # The unit vectors sum to e, the n-fold root 1 of the dense product form: capacity one, reached at once.
        dense = hyperpoly.dense_from_oracle(hyperpoly.product_oracle(n))
        oracle = write(tmp_path / "o.json", hyperpoly.oracle_to_json(dense))
        tup = write(tmp_path / "t.json", {"points": np.eye(n).tolist()})
        code, report = run(capsys, "sinkhorn", oracle, tup)
        assert code == 0 and report["capacity_verdict"] == "positive" and report["defect"] == 0.0
        code, report = run(capsys, "capacity", oracle, tup)
        assert code == 0 and report["status"] == "converged" and report["value"] == pytest.approx(1.0, abs=1e-12)

    def test_edmonds_rado_witness(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(4), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "edmonds-rado", oracle, tup)
        assert code == 1 and report["holds"] is False and report["witness"] == [0, 1]

    def test_convergence_error_is_undetermined(self, tmp_path, product2, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise ConvergenceError("minimum-norm-point iteration stalled on rounding")

        monkeypatch.setattr(cli, "edmonds_rado_check", stall)
        tup = write(tmp_path / "t.json", {"points": [[1.0, 0.0], [0.0, 1.0]]})
        code = main(["edmonds-rado", product2, tup])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_tight_set_is_undetermined_not_zero(self, tmp_path, capsys, tight_set_matrices):
        # The rank condition holds; the unattained infimum ends at the
        # iteration limit (exit 3), never as zero capacity (exit 1).
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 4})
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in tight_set_matrices]})
        code, report = run(capsys, "capacity", oracle, tup, "--max-iters", "500")
        assert code == 3 and report["status"] == "iteration_limit"
        code, report = run(capsys, "edmonds-rado", oracle, tup)
        assert code == 0 and report["holds"] is True

    def test_sinkhorn_is_positive_on_a_tight_set_short_of_its_threshold(self, tmp_path, capsys, tight_set_matrices):
        # Stopped at its iteration limit, the run is unconverged, but its traces certify positive capacity.
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 4})
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in tight_set_matrices]})
        code, report = run(capsys, "sinkhorn", oracle, tup, "--max-iters", "100")
        assert code == 0 and report["capacity_verdict"] == "positive" and report["converged"] is False
        assert report["iterations"] == 100

    def test_rank_commands_share_one_certificate(self, tmp_path, product2, capsys):
        # A small second coordinate is a relative root ratio of 5e-9: above
        # the rank cutoff, whatever --tol the solvers use.
        tup = write(tmp_path / "t.json", {"points": [[1.0, 5e-9], [1.0, 5e-9]]})
        code, report = run(capsys, "edmonds-rado", product2, tup)
        assert code == 0 and report["holds"] is True
        code, report = run(capsys, "capacity", product2, tup)
        assert code == 0 and report["value"] == pytest.approx(2e-8, rel=1e-6)
        code, report = run(capsys, "sinkhorn", product2, tup)
        assert code == 0 and report["capacity_verdict"] == "positive"


class TestPairCommands:
    def test_hyperbolic_pair_exit_zero(self, tmp_path, capsys):
        pair = write(tmp_path / "pair.json", {"q": {"degree": 2, "a": [0.0, 1.0]}, "r": {"degree": 1, "a": [0.0]}})
        code, report = run(capsys, "pair-test", pair)
        assert code == 0 and report["verdict"] == "hyperbolic"

    def test_nonhyperbolic_pair_exit_one(self, tmp_path, capsys):
        doc = gen.generate_document(gen.GeneratorSpec(kind="nonhyperbolic_pair", n=3), 5)
        pair = write(tmp_path / "pair.json", doc)
        code, report = run(capsys, "pair-test", pair)
        assert code == 1 and report["verdict"] == "not_hyperbolic"

    def test_majorize_vectors(self, tmp_path, capsys):
        doc = write(tmp_path / "m.json", {"u": [1.0, 1.0], "v": [2.0, 0.0]})
        code, report = run(capsys, "majorize", doc)
        assert code == 0 and report["majorized"] is True

    def test_majorize_vectors_negative(self, tmp_path, capsys):
        doc = write(tmp_path / "m.json", {"u": [2.0, 0.0], "v": [1.0, 1.0]})
        code, report = run(capsys, "majorize", doc)
        assert code == 1 and report["majorized"] is False

    @pytest.mark.parametrize(
        "doc",
        [{"u": [], "v": []}, {"u": 1, "v": 1}, {"u": [[1, 2], [3, 4]], "v": [[4, 3], [2, 1]]}],
        ids=["empty", "scalars", "matrices"],
    )
    def test_majorize_refuses_anything_but_two_vectors(self, tmp_path, capsys, doc):
        code = main(["majorize", write(tmp_path / "m.json", doc)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: majorization needs two nonempty vectors")

    def test_majorize_lidskii(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        doc = write(tmp_path / "m.json", {"A": (a + a.T).tolist(), "B": (b + b.T).tolist()})
        code, report = run(capsys, "--tol", "1e-7", "majorize", doc, "--mode", "lidskii")
        assert code == 0 and report["majorized"] is True

    def test_majorize_shifted_pencil(self, tmp_path, capsys):
        pair = gen.generate_document(gen.GeneratorSpec(kind="hyperbolic_pair", n=3), 7)
        doc = write(
            tmp_path / "m.json",
            {"q": pair["q"], "r": pair["r"], "point": [1.0, 0.5, -0.2], "delta": [0.4, 0.2, 0.9]},
        )
        code, report = run(capsys, "--tol", "1e-7", "majorize", doc, "--mode", "shifted-pencil")
        assert code == 0 and report["majorized"] is True

    def test_line_convexity_derivative(self, tmp_path, capsys):
        doc = write(tmp_path / "q.json", {"q": {"degree": 2, "a": [0.0, 1.0]}})
        code, report = run(capsys, "--tol", "1e-7", "line-convexity", doc, "--check", "derivative", "--k", "1")
        assert code == 0 and report["convex"] and report["min_at_zero"] and report["fn_constant"]

    def test_line_convexity_symmetric(self, tmp_path, capsys):
        pair = gen.generate_document(gen.GeneratorSpec(kind="hyperbolic_pair", n=3), 8)
        doc = write(tmp_path / "pair.json", pair)
        code, report = run(
            capsys, "--tol", "1e-7", "line-convexity", doc, "--check", "symmetric", "--statistic", "sum_abs"
        )
        assert code == 0 and report["convex"] is True

    def test_line_convexity_non_hyperbolic_pair(self, tmp_path, capsys):
        # q = x^2 - 1 against r = x^2 + 1: the a = 0 grid point evaluates r
        # itself, whose roots are imaginary.
        doc = write(
            tmp_path / "pair.json",
            {"q": {"degree": 2, "a": [0.0, 1.0]}, "r": {"degree": 2, "a": [0.0, -1.0]}},
        )
        code, report = run(capsys, "line-convexity", doc, "--check", "symmetric", "--statistic", "max")
        assert code == 1 and report["verdict"] == "not_hyperbolic"

    def test_pair_test_reports_agreement(self, tmp_path, capsys):
        pair = gen.generate_document(gen.GeneratorSpec(kind="hyperbolic_pair", n=4), 10)
        doc = write(tmp_path / "pair.json", pair)
        code, report = run(capsys, "pair-test", doc)
        assert code == 0 and report["agree"] is True

    def test_pair_test_decides_a_double_root(self, tmp_path, capsys):
        # q = (x - 1)^2 (x + 1) against r = q' / 3: the residue test is inconclusive at the double root (this
        # pair exited 3), and the Bezoutian certificate decides.
        doc = {"q": {"degree": 3, "a": [1.0, 1.0, -1.0]}, "r": {"degree": 2, "a": [2.0 / 3.0, 1.0 / 3.0]}}
        code, report = run(capsys, "pair-test", write(tmp_path / "pair.json", doc))
        assert code == 0 and report["verdict"] == "hyperbolic"
        assert report["obreschkoff"]["verdict"] == "inconclusive" and report["bezoutian"]["verdict"] == "hyperbolic"
        for low, high in (report["bezoutian"]["bezoutian_range"], report["bezoutian"]["hermite_range"]):
            assert -1e-12 < low < high

    def test_pair_test_verdict_is_the_certificate(self, tmp_path, capsys):
        # One residue of -1e-4 among three of +1: the 64-direction grid passes the pair, the residue test and
        # the certificate do not.
        q, r = gen._pair_from_residues(np.array([-2.0, -0.5, 1.0, 2.2]), np.array([1.0, 1.0, -1e-4, 1.0]))
        doc = write(tmp_path / "pair.json", {"q": q.to_json(), "r": r.to_json()})
        code, report = run(capsys, "pair-test", doc)
        assert code == 1 and report["verdict"] == "not_hyperbolic" and report["agree"] is False
        assert report["sampled"]["verdict"] == "hyperbolic" and report["bezoutian"]["verdict"] == "not_hyperbolic"


class TestGridCap:
    """A --grid past the line sweep cap exits 2 with an error line and no report: a range is refused
    before it is built, a list by the sweep."""

    @pytest.mark.parametrize("check", ["derivative", "symmetric"])
    @pytest.mark.parametrize("form", ["range", "list"])
    def test_first_grid_past_the_cap_exits_two(self, tmp_path, capsys, monkeypatch, form, check):
        cap = interlace.SWEEP_GRID_CAP
        pair = write(tmp_path / "pair.json", gen.generate_document(gen.GeneratorSpec(kind="hyperbolic_pair", n=2), 8))
        if form == "range":
            spec = f"0:{cap}:1"
            monkeypatch.setattr(np, "arange", lambda *args: pytest.fail("range built past the cap"))
        else:
            spec = ",".join(str(i) for i in range(cap + 1))
        code = main(["line-convexity", pair, "--check", check, "--grid", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "") and captured.err.startswith("error: ") and "cap" in captured.err

    def test_grids_at_the_cap_are_parsed(self):
        cap = interlace.SWEEP_GRID_CAP
        assert cli._parse_grid(f"0:{cap - 1}:1").tolist() == list(range(cap))
        assert cli._parse_grid(f"1:{1 - cap}:-1").size == cap


class TestDirectionCap:
    """A --num-dirs past the sampled pencil cap exits 2 with an error line and no report, before any
    direction is built; the residue test that runs first allocates little."""

    def test_huge_count_allocates_nothing(self, tmp_path, capsys, monkeypatch):
        pair = write(tmp_path / "pair.json", gen.generate_document(gen.GeneratorSpec(kind="hyperbolic_pair", n=3), 8))
        arange, cap = np.arange, interlace.SAMPLED_DIRECTION_CAP
        monkeypatch.setattr(np, "arange", lambda *a: pytest.fail("directions built") if max(a) > cap else arange(*a))
        tracemalloc.start()
        try:
            code = main(["pair-test", pair, "--num-dirs", "1000000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "") and captured.err.startswith("error: ") and "cap" in captured.err
        assert peak < 1 << 20

    def test_counts_at_the_cap_are_sampled(self, tmp_path, capsys):
        pair = write(tmp_path / "pair.json", gen.generate_document(gen.GeneratorSpec(kind="hyperbolic_pair", n=2), 8))
        code, report = run(capsys, "pair-test", pair, "--num-dirs", str(interlace.SAMPLED_DIRECTION_CAP))
        assert code == 0 and report["sampled"]["verdict"] == "hyperbolic"
        code = main(["pair-test", pair, "--num-dirs", str(interlace.SAMPLED_DIRECTION_CAP + 1)])
        assert code == 2 and capsys.readouterr().out == ""


class TestGenAndDeterminism:
    def test_gen_round_trip(self, tmp_path, capsys):
        code, doc = run(capsys, "--seed", "7", "gen", "--kind", "psd_tuple", "--n", "3")
        assert code == 0 and len(doc["matrices"]) == 3

    def test_byte_identical_reports(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        main(["eval", product2, point])
        first = capsys.readouterr().out
        main(["eval", product2, point])
        second = capsys.readouterr().out
        assert first == second

    def test_gen_deterministic_across_runs(self, capsys):
        code1, doc1 = run(capsys, "--seed", "9", "gen", "--kind", "hyperbolic_pair", "--n", "4")
        code2, doc2 = run(capsys, "--seed", "9", "gen", "--kind", "hyperbolic_pair", "--n", "4")
        assert doc1 == doc2

    def test_out_file(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "eval", product2, point])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(6.0)

    def test_text_format(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        code = main(["--format", "text", "eval", product2, point])
        out = capsys.readouterr().out
        assert code == 0 and out.strip() == "value: 6.0"

    def test_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYPERPOLY_SEED", "9")
        code1, doc1 = run(capsys, "gen", "--kind", "hyperbolic_pair", "--n", "3")
        code2, doc2 = run(capsys, "--seed", "9", "gen", "--kind", "hyperbolic_pair", "--n", "3")
        assert doc1 == doc2


GEN_ARGS = ("gen", "--kind", "hyperbolic_pair", "--n", "3")


class TestGlobalFlags:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_environment_read_on_every_call(self, monkeypatch, capsys):
        expected = {seed: run(capsys, "--seed", seed, *GEN_ARGS) for seed in ("9", "3")}
        for seed in ("9", "3"):
            monkeypatch.setenv("HYPERPOLY_SEED", seed)
            assert run(capsys, *GEN_ARGS) == expected[seed]

    def test_value_after_subcommand_wins(self, monkeypatch, capsys):
        # A variable is read only when its flag is absent, so a bad one is ignored here.
        monkeypatch.setenv("HYPERPOLY_SEED", "x")
        code, doc = run(capsys, "--seed", "3", *GEN_ARGS, "--seed", "9")
        assert code == 0 and (code, doc) == run(capsys, "--seed", "9", *GEN_ARGS)

    @pytest.mark.parametrize("where", ["environment", "before", "after"])
    def test_bad_format_exit_two(self, tmp_path, product2, monkeypatch, capsys, where):
        argv = ["eval", product2, write(tmp_path / "p.json", [2.0, 3.0])]
        if where == "environment":
            monkeypatch.setenv("HYPERPOLY_FORMAT", "xml")
        else:
            argv = ["--format", "xml", *argv] if where == "before" else [*argv, "--format", "xml"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: ")


class TestParallelism:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_rejected(self, tmp_path, product2, capsys, value):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        code = main(["--parallelism", value, "eval", product2, point])
        assert code == 2 and "parallelism" in capsys.readouterr().err

    def test_capped_at_cpu_count(self, monkeypatch, capsys):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
        code, report = run(capsys, "--parallelism", "3", "experiments", "lidskii", "--trials", "4")
        assert code == 0 and report["trials"] == 4


class TestExperimentsCommand:
    def test_small_suite_passes(self, capsys):
        code, report = run(capsys, "--seed", "1", "experiments", "lidskii", "--trials", "10")
        assert code == 0 and report["failures"] == 0 and report["trials"] == 10

    def test_unknown_suite_exit_two(self, capsys):
        code = main(["experiments", "nonsense"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_suite_error_line_is_the_message(self, capsys):
        code = main(["experiments", "nosuch"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: unknown suite 'nosuch'; choose from ['af', ")

    def test_key_error_inside_a_suite_is_not_an_input_error(self, monkeypatch):
        def broken(seed, trials, parallelism=1):
            raise KeyError("a bug inside a trial")

        monkeypatch.setitem(experiments.SUITES, "af", broken)
        with pytest.raises(KeyError, match="a bug inside a trial"):
            main(["experiments", "af", "--trials", "1"])

    def test_unknown_generator_kind_exit_two(self, capsys):
        code = main(["gen", "--kind", "nosuch", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("error: unknown generator kind 'nosuch'")


def _write_inputs(tmp_path):
    """Small fixed input documents, by name."""
    rng = np.random.default_rng(11)
    mats = gen.psd_matrix_tuple(rng, 2)
    docs = {
        "product2": {"kind": "product", "n": 2},
        "symmetric2": {"kind": "symmetric", "n": 2},
        "point": [2.0, 3.0],
        "direction": [1.0, 2.0],
        "basis": {"points": [[1.0, 0.0], [0.0, 1.0]]},
        "psd": {"matrices": [a.tolist() for a in mats]},
        "pair": {"q": {"degree": 2, "a": [0.0, 1.0]}, "r": {"degree": 1, "a": [0.0]}},
        "equal_degree_pair": {"q": {"degree": 2, "a": [0.0, 1.0]}, "r": {"degree": 2, "a": [0.5, 2.0]}},
        "vectors": {"u": [1.0, 1.0], "v": [2.0, 0.0]},
        "q": {"q": {"degree": 2, "a": [0.0, 1.0]}},
        # malformed documents
        "no_u": {"v": [1.0, 2.0]},
        "list": [1.0, 2.0],
        "no_q": {"r": {"degree": 1, "a": [0.0]}},
        "symmetric_no_n": {"kind": "symmetric"},
        "no_matrices": {"matrices": []},
        "scalar_matrices": {"matrices": 5},
        # Same shape as the symmetric basis of n = 2, but the off-diagonal element is doubled.
        "scaled_basis2": {
            "kind": "determinantal",
            "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, 2.0], [2.0, 0.0]]],
            "direction": [1.0, 1.0, 0.0],
        },
        "string_point": ["a", "b"],
        "lidskii_1x2": {"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[1.0, 2.0]]},
        "short_triple": {"q": {"a": [0.0, 1.0]}, "r": {"a": [0.5, 2.0]}, "point": [1.0, 0.5], "delta": [0.4, 0.2, 0.9]},
    }
    return {name: write(tmp_path / f"{name}.json", doc) for name, doc in docs.items()}


def _argv(files, *args):
    return [files.get(a, a) for a in args]


SINKHORN_KEYS = {
    "boundary_collapse",
    "capacity_verdict",
    "converged",
    "defect",
    "defect_history",
    "energy_history",
    "iterations",
}

EVERY_SUBCOMMAND = [
    (("eval", "product2", "point"), 0, {"value"}),
    (("roots", "product2", "point", "direction"), 0, {"roots"}),
    (("trace", "product2", "point"), 0, {"trace"}),
    (("mixed", "product2", "basis"), 0, {"mixed_value"}),
    (("support", "product2", "basis"), 0, {"saturated", "support", "violations"}),
    (("af", "symmetric2", "psd"), 0, {"holds", "residual", "scale"}),
    (("sinkhorn", "symmetric2", "psd"), 0, SINKHORN_KEYS),
    (("capacity", "symmetric2", "psd"), 0, {"gradient_norm", "iterations", "minimizer", "status", "value"}),
    (("edmonds-rado", "product2", "basis"), 0, {"holds", "witness"}),
    (("pair-test", "pair"), 0, {"agree", "bezoutian", "obreschkoff", "sampled", "verdict"}),
    (("majorize", "vectors"), 0, {"majorized", "prefix_gaps", "total_gap"}),
    (("line-convexity", "q"), 0, {"convex", "fn_constant", "min_at_zero", "values"}),
    (("gen", "--kind", "psd_tuple", "--n", "2"), 0, {"matrices"}),
    (("experiments", "lidskii", "--trials", "2"), 0, {"failures", "suite", "trials", "worst_slack"}),
]


class TestEverySubcommand:
    def test_covers_every_subcommand(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert {argv[0] for argv, _, _ in EVERY_SUBCOMMAND} == set(sub.choices)

    @pytest.mark.parametrize("args, code, keys", EVERY_SUBCOMMAND, ids=[a[0][0] for a in EVERY_SUBCOMMAND])
    def test_exit_code_and_report_keys(self, tmp_path, capsys, args, code, keys):
        got, report = run(capsys, *_argv(_write_inputs(tmp_path), *args))
        assert got == code
        assert sorted(report) == sorted(keys)

    @pytest.mark.parametrize("suite", sorted(experiments.SUITES))
    def test_every_suite_passes(self, capsys, suite):
        code, report = run(capsys, "--seed", "2", "experiments", suite, "--trials", "4")
        assert code == 0 and report["failures"] == 0 and report["suite"] == suite


MALFORMED = [
    ("majorize-no-u", ("majorize", "no_u")),
    ("majorize-list", ("majorize", "list")),
    ("line-convexity-no-q", ("line-convexity", "no_q")),
    ("grid-not-numbers", ("line-convexity", "q", "--grid", "a:b:c")),
    ("grid-zero-step", ("line-convexity", "q", "--grid", "0:1:0")),
    ("grid-empty", ("line-convexity", "q", "--grid", "1:0:0.25")),
    ("statistic-bad-k", ("line-convexity", "equal_degree_pair", "--check", "symmetric", "--statistic", "topk_sum:x")),
    *(
        (f"statistic-{stat}", ("line-convexity", "equal_degree_pair", "--check", "symmetric", "--statistic", stat))
        # k outside 1..degree of the degree-2 pair.
        for stat in ("topk_sum:0", "topk_sum:-1", "topk_sum:5", "neg_bottomk_sum:0", "neg_bottomk_sum:3")
    ),
    ("symmetric-no-n", ("eval", "symmetric_no_n", "point")),
    ("empty-matrix-tuple", ("mixed", "symmetric2", "no_matrices")),
    ("scalar-matrix-tuple", ("mixed", "symmetric2", "scalar_matrices")),
    ("matrices-with-product-oracle", ("mixed", "product2", "psd")),
    ("matrices-with-other-basis", ("mixed", "scaled_basis2", "psd")),
    ("seed-not-int", ("--seed", "x", "gen", "--kind", "psd_tuple", "--n", "2")),
    ("gen-n-not-int", ("gen", "--kind", "psd_tuple", "--n", "x")),
    ("trials-not-int", ("experiments", "af", "--trials", "x")),
    ("unknown-subcommand", ("nonsense",)),
    ("string-point", ("eval", "product2", "string_point")),
    ("lidskii-1x2", ("majorize", "lidskii_1x2", "--mode", "lidskii")),
    ("shifted-pencil-pair", ("majorize", "short_triple", "--mode", "shifted-pencil")),
]

TOO_SMALL = [
    ("gen-hyperbolic-pair-0", ("gen", "--kind", "hyperbolic_pair", "--n", "0")),
    ("gen-psd-tuple-minus-1", ("gen", "--kind", "psd_tuple", "--n", "-1")),
    ("gen-doubly-stochastic-0", ("gen", "--kind", "doubly_stochastic_tuple", "--n", "0")),
    ("experiments-af-0", ("experiments", "af", "--trials", "0")),
    ("experiments-vdw-minus-1", ("experiments", "vdw", "--trials", "-1")),
]


class TestInputErrors:
    @pytest.mark.parametrize("args", [a for _, a in MALFORMED + TOO_SMALL], ids=[i for i, _ in MALFORMED + TOO_SMALL])
    def test_exit_two_with_error_line(self, tmp_path, capsys, args):
        code = main(_argv(_write_inputs(tmp_path), *args))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out

    def test_bad_environment_default_exit_two(self, tmp_path, product2, monkeypatch, capsys):
        monkeypatch.setenv("HYPERPOLY_SEED", "x")
        code = main(["eval", product2, write(tmp_path / "p.json", [2.0, 3.0])])
        assert code == 2 and "HYPERPOLY_SEED" in capsys.readouterr().err


class TestSuiteParallelism:
    def test_capped_at_cpu_count_without_workers(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
        summary = experiments.run_suite("lidskii", 0, trials=4, parallelism=8)
        assert summary["trials"] == 4 and summary["failures"] == 0

    @pytest.mark.parametrize("suite", sorted(experiments.SUITES))
    @pytest.mark.parametrize("trials", [0, -1])
    def test_direct_suite_call_rejects_no_trials(self, suite, trials):
        with pytest.raises(InvalidDocumentError, match="trials"):
            experiments.SUITES[suite](0, trials=trials)

    def test_default_trial_count(self):
        assert experiments.run_suite("lidskii", 0, None, 1)["trials"] == 500

    def test_worker_pool_gives_the_single_worker_summary(self, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        assert experiments.run_suite("lidskii", 0, 6, 2) == experiments.run_suite("lidskii", 0, 6, 1)
        assert pools == [2]

    def test_interlace_reports_its_side_batches(self):
        # 4 pair agreements, 4 pencil cross-checks, 4 shifted majorizations and 2 derivative lines.
        assert experiments.run_suite("interlace", 0, 4, 1)["trials"] == 14


def test_cli_import_and_interlace_run_leave_numpy_polynomial_and_the_process_pool_unloaded():
    code = (
        "import sys, hyperpoly.cli\n"
        "pool = 'concurrent.futures.process' in sys.modules\n"
        "hyperpoly.cli.main(['experiments', 'interlace', '--trials', '4', '--seed', '1'])\n"
        "sys.exit(pool or 'numpy.polynomial' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120, capture_output=True).returncode == 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, hyperpoly.cli; sys.exit('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, hyperpoly.cli; sys.exit('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_support_on_psd_tuple_leaves_scipy_optimize_unloaded(tmp_path):
    # Subset inequalities settle every zero composition of this support, so no LP runs.
    _, pts = gen.structured_psd_points(np.random.default_rng(3), 4)
    oracle = write(tmp_path / "oracle.json", {"kind": "symmetric", "n": 4})
    tup = write(tmp_path / "tuple.json", {"matrices": [gen.point_to_matrix(x, 4).tolist() for x in pts]})
    code = (
        "import sys; from hyperpoly.cli import main; "
        f"code = main(['support', {oracle!r}, {tup!r}]); "
        "sys.exit(code or 10 * ('scipy.optimize' in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120).returncode == 0


BIG_INT = "1" * 401  # a JSON integer beyond the float range

# (id, argv, {name: raw JSON text}): every non-finite or overflowing number, and a threshold that is not
# positive, exits 2 with an error line.
NON_FINITE = [
    ("eval-nan-point", ("eval", "symmetric2", "bad"), {"bad": "[NaN, 0.0, 1.0]"}),
    ("eval-big-int-point", ("eval", "symmetric2", "bad"), {"bad": f"[{BIG_INT}, 0.0, 1.0]"}),
    ("roots-infinite-point", ("roots", "product2", "bad"), {"bad": "[Infinity, 1.0]"}),
    ("roots-overflowing-direction", ("roots", "product2", "point", "bad"), {"bad": "[1e400, 1.0]"}),
    (
        "oracle-minus-infinity-direction",
        ("eval", "bad", "point"),
        {"bad": '{"kind": "determinantal", "matrices": [[[1.0]], [[1.0]]], "direction": [-Infinity, 1.0]}'},
    ),
    (
        "oracle-big-int-coefficient",
        ("eval", "bad", "point"),
        {"bad": json.dumps(dict(kind="dense", m=2, n=1, direction=[1, 1], terms=[dict(exps=[1, 0], coef=10**400)]))},
    ),
    ("tuple-nan-points", ("mixed", "product2", "bad"), {"bad": '{"points": [[1.0, NaN], [0.0, 1.0]]}'}),
    ("tuple-big-int-matrices", ("mixed", "symmetric2", "bad"), {"bad": f'{{"matrices": [[[{BIG_INT}]]]}}'}),
    ("pair-big-int-coefficient", ("line-convexity", "bad"), {"bad": f'{{"q": {{"a": [0.0, {BIG_INT}]}}}}'}),
    # The same numbers in flags.
    ("grid-nan", ("line-convexity", "q", "--grid", "nan,0,1"), {}),
    ("grid-infinite-stop", ("line-convexity", "q", "--grid", "0:inf:0.5"), {}),
    ("tol-nan", ("--tol", "nan", "majorize", "vectors"), {}),
    ("b-overflowing", ("line-convexity", "q", "--b", "1e400"), {}),
    ("threshold-infinite", ("sinkhorn", "symmetric2", "psd", "--threshold", "inf"), {}),
    ("threshold-zero", ("sinkhorn", "symmetric2", "psd", "--threshold", "0"), {}),
    ("threshold-negative", ("sinkhorn", "symmetric2", "psd", "--threshold", "-1"), {}),
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("args, raw", [(a, r) for _, a, r in NON_FINITE], ids=[i for i, _, _ in NON_FINITE])
    def test_exit_two_with_error_line(self, tmp_path, capsys, args, raw):
        files = _write_inputs(tmp_path)
        for name, text in raw.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(text)
        code = main(_argv(files, *args))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


_SHIFTED = '"q": {"a": [0.0, 1.0]}, "r": {"a": [0.5, 2.0]}'
_PENCIL = '"kind": "determinantal", "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]'
_DENSE = '"kind": "dense", "m": 2, "n": 2, "direction": [1.0, 0.0]'

# (id, argv, {name: raw JSON text}): a boolean in each numeric field exits 2 with an error line, where
# json's bool would have read as 1 or 0.
BOOLEAN_NUMBERS = [
    ("point", ("eval", "product2", "bad"), {"bad": "[true, 3.0]"}),
    ("point-object", ("eval", "product2", "bad"), {"bad": '{"point": [2.0, false]}'}),
    ("direction-point", ("roots", "product2", "point", "bad"), {"bad": "[1.0, true]"}),
    ("tuple-points", ("mixed", "product2", "bad"), {"bad": '{"points": [[1.0, 0.0], [false, 1.0]]}'}),
    (
        "tuple-matrices",
        ("mixed", "symmetric2", "bad"),
        {"bad": '{"matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, true]]]}'},
    ),
    ("majorize-vectors", ("majorize", "bad"), {"bad": '{"u": [true, 1.0], "v": [2.0, 0.0]}'}),
    (
        "majorize-matrices",
        ("majorize", "bad", "--mode", "lidskii"),
        {"bad": '{"A": [[1.0, 0.0], [0.0, true]], "B": [[1.0, 0.0], [0.0, 1.0]]}'},
    ),
    (
        "majorize-point",
        ("majorize", "bad", "--mode", "shifted-pencil"),
        {"bad": f'{{{_SHIFTED}, "point": [1.0, 0.5, true], "delta": [0.4, 0.2, 0.9]}}'},
    ),
    ("monic-coefficients", ("pair-test", "bad"), {"bad": '{"q": {"a": [false, true]}, "r": {"a": [0.0]}}'}),
    (
        "dense-coef",
        ("eval", "bad", "point"),
        {"bad": f'{{{_DENSE}, "terms": [{{"exps": [2, 0], "coef": true}}, {{"exps": [0, 2], "coef": -1.0}}]}}'},
    ),
    (
        "dense-direction",
        ("eval", "bad", "point"),
        {"bad": '{"kind": "dense", "m": 2, "n": 1, "terms": [{"exps": [1, 0], "coef": 1.0}], "direction": [true, 0.0]}'},
    ),
    ("pencil-direction", ("eval", "bad", "point"), {"bad": f'{{{_PENCIL}, "direction": [true, 1.0]}}'}),
    (
        "pencil-matrices",
        ("eval", "bad", "point"),
        {"bad": '{"kind": "determinantal", "matrices": [[[true, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]], '
        '"direction": [1.0, 1.0]}'},
    ),
]


class TestBooleanNumbers:
    @pytest.mark.parametrize("args, raw", [(a, r) for _, a, r in BOOLEAN_NUMBERS], ids=[i for i, _, _ in BOOLEAN_NUMBERS])
    def test_exit_two_with_error_line(self, tmp_path, capsys, args, raw):
        files = _write_inputs(tmp_path)
        for name, text in raw.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(text)
        code = main(_argv(files, *args))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and ("true" in captured.err or "false" in captured.err)

    def test_the_same_documents_with_numbers_pass(self, tmp_path, capsys):
        # Each document above is well formed once its booleans become the numbers they would have read as.
        files = _write_inputs(tmp_path)
        for name, args, raw in BOOLEAN_NUMBERS:
            path = tmp_path / f"{name}.json"
            path.write_text(raw["bad"].replace("true", "1.0").replace("false", "0.0"))
            files["bad"] = str(path)
            code = main(_argv(files, *args))
            assert code in (0, 1, 3), name
            capsys.readouterr()

    def test_only_a_document_with_a_boolean_literal_is_walked(self, tmp_path, capsys, monkeypatch):
        walked = []
        original = cli._without_booleans
        monkeypatch.setattr(cli, "_without_booleans", lambda doc: walked.append(doc) or original(doc))
        files = _write_inputs(tmp_path)
        assert run(capsys, *_argv(files, "mixed", "symmetric2", "psd"))[0] == 0
        assert walked == []
        # A boolean in a field that no reader takes as a number is left alone.
        note = write(tmp_path / "note.json", {"points": [[1.0, 0.0], [0.0, 1.0]], "note": True})
        assert run(capsys, "mixed", files["product2"], note) == (0, {"mixed_value": 1.0})
        assert walked[0]["note"] is True


class TestNullAndStringNumbers:
    # Each numeric field of BOOLEAN_NUMBERS with a null or a numeric string in place of its booleans: a float
    # cast would read "1" as 1.0, and numpy reads null as NaN.
    @pytest.mark.parametrize("value", ["null", '"1"'], ids=["null", "string"])
    @pytest.mark.parametrize("args, raw", [(a, r) for _, a, r in BOOLEAN_NUMBERS], ids=[i for i, _, _ in BOOLEAN_NUMBERS])
    def test_exit_two_with_error_line(self, tmp_path, capsys, args, raw, value):
        files = _write_inputs(tmp_path)
        for name, text in raw.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(text.replace("true", value).replace("false", value))
        code = main(_argv(files, *args))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "oracle, point",
        [
            ('{"kind": "product", "n": 2}', "[null, 3.0]"),
            ('{"kind": "product", "n": 2}', '["2", "3.5"]'),
            ('{"kind": "determinantal", "matrices": [[[1.0, null], [null, 0.0]], [["1", 0.0], [0.0, "1"]]], '
             '"direction": [1.0, 1.0]}', "[1.0, 2.0]"),
            ('{"kind": "dense", "m": 2, "n": 2, "direction": [1.0, 0.0], '
             '"terms": [{"exps": [2, 0], "coef": "2"}, {"exps": [0, 2], "coef": -1.0}]}', "[1.0, 2.0]"),
        ],
        ids=["null-point", "string-point", "pencil-null-and-string", "dense-string-coef"],
    )
    def test_eval_refuses(self, tmp_path, capsys, oracle, point):
        (tmp_path / "o.json").write_text(oracle)
        (tmp_path / "p.json").write_text(point)
        code = main(["eval", str(tmp_path / "o.json"), str(tmp_path / "p.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "") and captured.err.startswith("error: ")


class TestRealField:
    def test_numbers_and_nested_lists(self):
        assert real_field(3, "x").tolist() == 3.0
        assert real_field([[1, 2.5], [0, -1e3]], "x").tolist() == [[1.0, 2.5], [0.0, -1e3]]

    @pytest.mark.parametrize(
        "value",
        ["2", ["2", "3.5"], [None, 3.0], [True, False], [1j], [[1.0], [1.0, 2.0]], [float("nan")], [float("inf")], 10**400],
        ids=["string", "strings", "null", "booleans", "complex", "ragged", "nan", "inf", "overflow"],
    )
    def test_refused(self, value):
        with pytest.raises(InvalidDocumentError, match="^x must hold"):
            real_field(value, "x")

    def test_library_readers(self):
        # The readers outside the CLI refuse the same entries.
        with pytest.raises(InvalidDocumentError):
            gen.matrix_points([[[1.0, None], [None, 1.0]]])
        with pytest.raises(InvalidDocumentError):
            hyperpoly.MonicPolynomial.from_json({"a": ["1", 2.0]})
        with pytest.raises(InvalidDocumentError):
            hyperpoly.oracle_from_json({"kind": "determinantal", "matrices": [[[1.0]]], "direction": [None]})


PRODUCT2 = {"kind": "product", "n": 2}
PENCIL2 = {"kind": "determinantal", "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]], "direction": [1.0, 1.0]}
DENSE2 = {  # x_1^2 - x_2^2, hyperbolic in direction (1, 0)
    "kind": "dense",
    "m": 2,
    "n": 2,
    "terms": [{"exps": [2, 0], "coef": 1.0}, {"exps": [0, 2], "coef": -1.0}],
    "direction": [1.0, 0.0],
}
PAIR = {"q": {"degree": 2, "a": [0.0, 1.0]}, "r": {"degree": 1, "a": [0.0]}}


def _dense_exps(first):
    return DENSE2 | {"terms": [{"exps": first, "coef": 1.0}, {"exps": [0, 2], "coef": -1.0}]}


# (id, command, document): each integer field once with a fractional part and once as a boolean, where
# int() would have read 2.9 as 2 and true as 1.
NON_INTEGER_FIELDS = [
    ("product-n-fraction", "eval", PRODUCT2 | {"n": 2.9}),
    ("product-n-true", "eval", PRODUCT2 | {"n": True}),
    ("symmetric-n-fraction", "eval", {"kind": "symmetric", "n": 2.5}),
    ("symmetric-n-true", "eval", {"kind": "symmetric", "n": True}),
    ("pencil-m-fraction", "eval", PENCIL2 | {"m": 2.5}),
    ("pencil-n-fraction", "eval", PENCIL2 | {"n": 2.5}),
    ("dense-m-fraction", "eval", DENSE2 | {"m": 2.5}),
    ("dense-n-fraction", "eval", DENSE2 | {"n": 2.9}),
    ("dense-exps-fraction", "eval", _dense_exps([2.7, 0])),
    ("dense-exps-false", "eval", _dense_exps([2, False])),
    ("degree-fraction", "pair-test", PAIR | {"q": {"degree": 2.5, "a": [0.0, 1.0]}}),
    ("degree-true", "pair-test", PAIR | {"r": {"degree": True, "a": [0.0]}}),
]

# (id, command, document with integral floats, the same document with integers).
INTEGRAL_FLOAT_FIELDS = [
    ("product-n", "eval", PRODUCT2 | {"n": 2.0}, PRODUCT2),
    ("symmetric-n", "eval", {"kind": "symmetric", "n": 2.0}, {"kind": "symmetric", "n": 2}),
    ("pencil-m-n", "eval", PENCIL2 | {"m": 2.0, "n": 2.0}, PENCIL2),
    ("dense-m-n-exps", "eval", _dense_exps([2.0, 0.0]) | {"m": 2.0, "n": 2.0}, DENSE2),
    ("degree", "pair-test", PAIR | {"q": {"degree": 2.0, "a": [0.0, 1.0]}}, PAIR),
]


def _command(tmp_path, command, doc):
    """The argv of ``command`` on ``doc``: an oracle document at the point (1, 2, 3)[:m], or a pair document."""
    path = write(tmp_path / "doc.json", doc)
    if command == "pair-test":
        return [command, path]
    m = 3 if doc["kind"] == "symmetric" else 2
    return [command, path, write(tmp_path / "point.json", [1.0, 2.0, 3.0][:m])]


class TestIntegerFields:
    @pytest.mark.parametrize("command, doc", [c[1:] for c in NON_INTEGER_FIELDS], ids=[c[0] for c in NON_INTEGER_FIELDS])
    def test_exit_two_with_error_line(self, tmp_path, capsys, command, doc):
        code = main(_command(tmp_path, command, doc))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be an integer" in captured.err

    @pytest.mark.parametrize(
        "command, doc, integer_doc", [c[1:] for c in INTEGRAL_FLOAT_FIELDS], ids=[c[0] for c in INTEGRAL_FLOAT_FIELDS]
    )
    def test_integral_floats_read_as_integers(self, tmp_path, capsys, command, doc, integer_doc):
        got = run(capsys, *_command(tmp_path, command, doc))
        assert got[0] == 0 and got == run(capsys, *_command(tmp_path, command, integer_doc))

    def test_numpy_integers_are_accepted(self):
        assert hyperpoly.oracle_from_json({"kind": "product", "n": np.int64(3)}).n == 3


class TestDocumentBranches:
    def test_point_object_is_accepted(self, tmp_path, product2, capsys):
        point = write(tmp_path / "p.json", {"point": [2.0, 3.0]})
        code, report = run(capsys, "eval", product2, point)
        assert code == 0 and report["value"] == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("eval", {"coordinates": [2.0, 3.0]}),
            ("mixed", {"points": [1.0, 0.0]}),
            ("mixed", {"vectors": [[1.0, 0.0], [0.0, 1.0]]}),
        ],
        ids=["point-neither-array-nor-point-field", "points-1d", "tuple-neither-points-nor-matrices"],
    )
    def test_malformed_exit_two_with_error_line(self, tmp_path, product2, capsys, command, doc):
        code = main([command, product2, write(tmp_path / "doc.json", doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_text_format_prints_list_values_as_json(self, tmp_path, product2, capsys):
        tup = write(tmp_path / "t.json", {"points": [[1.0, 0.0], [0.0, 1.0]]})
        code = main(["--format", "text", "support", product2, tup])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "saturated: True" and lines[2] == "violations: []"
        key, value = lines[1].split(": ", 1)
        assert key == "support" and json.loads(value) == [{"r": [1, 1], "value": pytest.approx(1.0)}]


class TestMatrixTupleLoading:
    def test_peak_memory_against_the_symmetric_basis(self, tmp_path):
        # The oracle's pencil is compared with the basis a block of matrices at a time.
        oracle = gen.symmetric_matrix_oracle(40)
        a = np.random.default_rng(3).standard_normal((3, 40, 40))
        mats = a + np.transpose(a, (0, 2, 1))
        path = write(tmp_path / "t.json", {"matrices": mats.tolist()})
        tracemalloc.start()
        try:
            loaded, pts = cli._load_tuple(path, oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * oracle.form.pencil.nbytes
        assert loaded is oracle and np.array_equal(pts, gen.matrix_points(mats))

    @pytest.mark.parametrize("first", [[[1.0, 5.0], [0.0, 1.0]], [[1.0, 0.0], [5.0, 1.0]]], ids=["upper", "lower"])
    def test_asymmetric_matrix_exits_two(self, tmp_path, capsys, first):
        # Only the upper triangle becomes a coordinate, so either orientation would be read as another tuple.
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 2})
        tup = write(tmp_path / "t.json", {"matrices": [first, [[2.0, 1.0], [1.0, 2.0]]]})
        code = main(["mixed", oracle, tup])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {tup}: ") and "matrix 0 is not symmetric" in captured.err

    def test_asymmetry_within_tolerance_is_averaged(self, tmp_path):
        oracle = gen.symmetric_matrix_oracle(2)
        path = write(tmp_path / "t.json", {"matrices": [[[1.0, 2.0], [2.0 + 1e-10, 1.0]], np.eye(2).tolist()]})
        _, pts = cli._load_tuple(path, oracle)
        assert pts[0].tolist() == gen.matrix_points([[[1.0, 2.0 + 5e-11], [2.0 + 5e-11, 1.0]]])[0].tolist()

    def test_symmetric_basis_is_matched_within_1e_12(self):
        basis = symmetric_basis(40)
        assert oracle_module.is_symmetric_basis(basis, 40)
        assert not oracle_module.is_symmetric_basis(basis, 39)
        basis[-1, 38, 39] += 5e-13  # the last block of matrices
        assert oracle_module.is_symmetric_basis(basis, 40)
        basis[-1, 38, 39] += 1e-12
        assert not oracle_module.is_symmetric_basis(basis, 40)


class TestSymmetricOracleSize:
    """Symmetric oracles are allocated only within bounds: {"kind": "symmetric", "n": N} is checked
    before its O(N^2) tables exist, and a matrix tuple is compared against a symmetric basis only when
    the oracle's pencil already has its shape."""

    @staticmethod
    def refuse(n, *args):
        raise AssertionError(f"symmetric table or basis of size {n} built")

    @pytest.fixture
    def no_tables(self, monkeypatch):
        """Refuse every builder of a symmetric oracle's tables and of its basis."""
        for name in ("symmetric_matrix_oracle", "_coordinate_indices", "_symmetric_form", "_basis_matrices"):
            monkeypatch.setattr(oracle_module, name, self.refuse)

    @pytest.mark.parametrize("n", ["0", "-3", BIG_INT, "1832"], ids=["zero", "negative", "401-digit", "first-past-budget"])
    def test_exit_two_with_error_line(self, tmp_path, capsys, no_tables, n):
        oracle = tmp_path / "oracle.json"
        oracle.write_text(f'{{"kind": "symmetric", "n": {n}}}')
        point = write(tmp_path / "p.json", [1.0])
        code = main(["eval", str(oracle), point])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {oracle}: 'n' must be")

    @pytest.mark.parametrize(
        "n", [0, -3, int(BIG_INT), 1832, True], ids=["zero", "negative", "401-digit", "first-past-budget", "true"]
    )
    def test_library_reader_refuses(self, no_tables, n):
        with pytest.raises(InvalidDocumentError, match="^'n' must be"):
            hyperpoly.oracle_from_json({"kind": "symmetric", "n": n})

    @pytest.mark.parametrize("n", [1, 50, 100])
    def test_library_reader_loads_the_cached_form(self, monkeypatch, n):
        monkeypatch.setattr(oracle_module, "_basis_matrices", self.refuse)
        monkeypatch.setattr(oracle_module.SymmetricBasisPolynomial, "pencil", property(self.refuse))
        oracle = hyperpoly.oracle_from_json({"kind": "symmetric", "n": n})
        assert oracle.form is oracle_module.symmetric_matrix_oracle(n).form
        assert (oracle.n, oracle.m) == (n, n * (n + 1) // 2)
        assert oracle.direction.tolist() == [1.0] * n + [0.0] * (n * (n - 1) // 2)

    def test_largest_size_within_budget(self):
        # A 1831 x 1831 table and three vectors of 1831 * 1832 / 2 entries, 8 bytes each, fit in the budget;
        # those of n = 1832 do not.
        assert 8 * (1831**2 + 3 * (1831 * 1832 // 2)) <= oracle_module.SYMMETRIC_ORACLE_BYTES
        assert 8 * (1832**2 + 3 * (1832 * 1833 // 2)) > oracle_module.SYMMETRIC_ORACLE_BYTES

    def test_n_100_evaluates(self, tmp_path, capsys):
        # Its basis would take 404 MB; the oracle holds about 0.2 MB.  p(e) = det(I) = 1.
        oracle = write(tmp_path / "oracle.json", {"kind": "symmetric", "n": 100})
        point = write(tmp_path / "p.json", gen.symmetric_matrix_oracle(100).direction.tolist())
        assert run(capsys, "eval", oracle, point) == (0, {"value": 1.0})

    def test_n_50_loads(self, tmp_path):
        # A 25 MB basis stays admissible.
        oracle = cli._load_oracle(write(tmp_path / "oracle.json", {"kind": "symmetric", "n": 50}))
        assert oracle.n == 50 and oracle.m == 50 * 51 // 2

    @pytest.mark.parametrize("oracle_doc", [{"kind": "product", "n": 2}, {"kind": "symmetric", "n": 2}])
    def test_matrix_tuple_of_another_size_builds_no_basis(self, tmp_path, capsys, monkeypatch, oracle_doc):
        # A 3 x 3 basis is cheap to build, so only the shape check keeps the comparison from building it.
        build = oracle_module._basis_matrices

        def refuse_tuple_size(n, start, stop):
            if n == 3:
                self.refuse(n)
            return build(n, start, stop)

        monkeypatch.setattr(oracle_module, "_basis_matrices", refuse_tuple_size)
        oracle = write(tmp_path / "oracle.json", oracle_doc)
        tup = write(tmp_path / "t.json", {"matrices": [np.eye(3).tolist()] * 3})
        code = main(["mixed", oracle, tup])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("oracle_doc", [{"kind": "product", "n": 2}, {"kind": "symmetric", "n": 2}])
    def test_matrix_tuple_of_another_size_builds_no_basis_block(self, tmp_path, capsys, monkeypatch, oracle_doc):
        # The comparison builds basis blocks through _basis_matrices; none of the tuple's size may be built.
        build = oracle_module._basis_matrices

        def refuse_tuple_size(n, start, stop):
            if n == 64:
                self.refuse(n)
            return build(n, start, stop)

        monkeypatch.setattr(oracle_module, "_basis_matrices", refuse_tuple_size)
        oracle = write(tmp_path / "oracle.json", oracle_doc)
        tup = write(tmp_path / "t.json", {"matrices": [np.eye(64).tolist()]})
        code = main(["mixed", oracle, tup])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")


def test_cli_imports_no_private_name_and_no_form_class():
    # The CLI reaches oracles through oracle_from_json and paired_matrix_points only.
    forms = {
        name
        for name, value in vars(oracle_module).items()
        if isinstance(value, type) and issubclass(value, oracle_module.Form)
    }
    imported = {
        alias.name
        for node in ast.walk(ast.parse(open(cli.__file__).read()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hyperpoly"))
        for alias in node.names
    }
    assert {"ProductPolynomial", "SymmetricBasisPolynomial", "Form"} <= forms
    assert imported and not {name for name in imported if name.startswith("_")} and not imported & forms
