import json
import os

import numpy as np
import pytest

from hyperpoly import generators as gen
from hyperpoly.cli import RunConfig, main


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
