import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hyperpoly
from hyperpoly import experiments
from hyperpoly import generators as gen
from hyperpoly.cli import RunConfig, build_parser, main
from hyperpoly.errors import InvalidDocumentError


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

    def test_sinkhorn_reports_boundary_collapse(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(2), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "sinkhorn", oracle, tup)
        assert code == 1 and report["boundary_collapse"] is True
        assert len(report["energy_history"]) == len(report["defect_history"])
        assert report["defect"] == report["defect_history"][-1]

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

    def test_edmonds_rado_witness(self, tmp_path, capsys):
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 3})
        mats, _ = gen.rank_deficient_matrix_tuple(np.random.default_rng(4), 3)
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in mats]})
        code, report = run(capsys, "edmonds-rado", oracle, tup)
        assert code == 1 and report["holds"] is False and report["witness"] == [0, 1]

    def test_tight_set_is_undetermined_not_zero(self, tmp_path, capsys, tight_set_matrices):
        # The rank condition holds; the unattained infimum ends at the
        # iteration limit (exit 3), never as zero capacity (exit 1).
        oracle = write(tmp_path / "o.json", {"kind": "symmetric", "n": 4})
        tup = write(tmp_path / "t.json", {"matrices": [a.tolist() for a in tight_set_matrices]})
        code, report = run(capsys, "capacity", oracle, tup, "--max-iters", "500")
        assert code == 3 and report["status"] == "iteration_limit"
        code, report = run(capsys, "edmonds-rado", oracle, tup)
        assert code == 0 and report["holds"] is True

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


class TestParallelism:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_rejected(self, tmp_path, product2, capsys, value):
        point = write(tmp_path / "p.json", [2.0, 3.0])
        code = main(["--parallelism", value, "eval", product2, point])
        assert code == 2 and "parallelism" in capsys.readouterr().err

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = RunConfig(seed=0, tol=1e-8, max_iters=1, output_format="json", parallelism=3)
        assert config.parallelism == 2
        assert RunConfig(seed=0, tol=1e-8, max_iters=1, output_format="json", parallelism=1).parallelism == 1


class TestExperimentsCommand:
    def test_small_suite_passes(self, capsys):
        code, report = run(capsys, "--seed", "1", "experiments", "lidskii", "--trials", "10")
        assert code == 0 and report["failures"] == 0 and report["trials"] == 10

    def test_unknown_suite_exit_two(self, capsys):
        code = main(["experiments", "nonsense"])
        capsys.readouterr()
        assert code == 2


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
    (("pair-test", "pair"), 0, {"agree", "obreschkoff", "sampled", "verdict"}),
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, hyperpoly.cli; sys.exit('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
