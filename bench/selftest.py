"""Self-test of the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py

It shows that every reference check accepts the library's answer and rejects
the same answer corrupted on purpose, that an untraced run leaves every
module attribute the tracer would wrap identical to the original, that the
tracer restores them all, that a traced name a later change removes is
reported absent instead of crashing, and that BENCHMARK.json lists exactly
the metrics the benchmark prints.  Exits 1 on the first set of problems.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run._import_library()
import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliAnswer, OpError  # noqa: E402

SEED = 20260401
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def first_op(rounds, family: str, size: int):
    return next(op for op in rounds[0] if op.family == family and op.size == size)


def expect_rejected(op, label: str, corrupted) -> None:
    expect(workloads.check(op, corrupted) is not None, f"{op.family} n={op.size}: check accepted {label}")


def replace_json(ans: CliAnswer, **changes) -> CliAnswer:
    return CliAnswer(ans.code, json.dumps({**json.loads(ans.stdout), **changes}))


def amend(ans, part: str, **changes):
    """``ans`` with fields of its ``part`` replaced."""
    return dataclasses.replace(ans, **{part: dataclasses.replace(getattr(ans, part), **changes)})


def expect_accepted(op, ans) -> None:
    problem = workloads.check(op, ans)
    expect(problem is None, f"{op.family} n={op.size}: correct answer rejected: {problem}")


def check_scaling(rounds) -> None:
    for family, size in (("symmetric", 6), ("product", 6), ("dense", 3)):
        op = first_op(rounds, family, size)
        ans = op.call()
        expect_accepted(op, ans)
        for label, bad in (
            ("a capacity 1e-6 off", amend(ans, "capacity", value=ans.capacity.value * (1 + 1e-6))),
            ("a non-converged capacity", amend(ans, "capacity", status="iteration_limit")),
            ("a violated rank condition", amend(ans, "rank", holds=False, witness=(0, 1))),
            ("an undetermined verdict", amend(ans, "sinkhorn", capacity_verdict="undetermined")),
            ("a defect above the threshold", dataclasses.replace(ans, defect=2.0 * workloads.SINKHORN_THRESHOLD)),
            ("an op that raised", OpError("RuntimeError: corrupted")),
        ):
            expect_rejected(op, label, bad)

    op = first_op(rounds, "deficient", 6)
    ans = op.call()
    expect_accepted(op, ans)
    pair = tuple(ans.rank.witness)
    other = tuple(sorted((pair[0], next(i for i in range(6) if i not in pair))))
    for label, bad in (
        ("another witness", amend(ans, "rank", witness=other)),
        ("a holding rank condition", amend(ans, "rank", holds=True, witness=None)),
        ("a positive capacity", amend(ans, "capacity", value=1.0, status="converged")),
        ("a positive verdict", amend(ans, "sinkhorn", capacity_verdict="positive")),
    ):
        expect_rejected(op, label, bad)
    # The eigvalsh confirmation alone: the same witness against full-rank matrices.
    full_rank = [np.eye(6) for _ in range(6)]
    expect(
        workloads._deficient_check(full_rank, pair)(ans) is not None,
        "deficient: eigvalsh confirmation accepted a full-rank witness",
    )


def check_polytope(rounds) -> None:
    for family in ("support-symmetric", "support-product"):
        op = first_op(rounds, family, 3)
        ans = op.call()
        expect_accepted(op, ans)
        expect_rejected(op, "exit code 1", CliAnswer(1, ans.stdout))
        expect_rejected(op, "saturated: false", replace_json(ans, saturated=False, violations=[[1, 1, 1]]))
        expect_rejected(op, "an unparsable report", CliAnswer(0, "{"))

    op = first_op(rounds, "mixed", 12)
    ans = op.call()
    expect_accepted(op, ans)
    value = json.loads(ans.stdout)["mixed_value"]
    expect_rejected(op, "a mixed value 1e-6 off", replace_json(ans, mixed_value=value * (1 + 1e-6)))
    expect_rejected(op, "exit code 2", CliAnswer(2, ans.stdout))
    expect_rejected(op, "a missing value", replace_json(ans, mixed_value=None))

    rng = np.random.default_rng(SEED)
    for n in range(2, 9):
        w = rng.uniform(0.0, 1.0, size=(n, n))
        brute = workloads.mixed.brute_force_permanent(w)
        expect(abs(workloads.ryser_permanent(w) - brute) <= 1e-12 * brute, f"Ryser permanent wrong at n={n}")
    broken = workloads.PermanentReference(rng)
    broken._samples[-1] = broken._samples[-1] * np.nan
    expect(broken.problem() is not None, "a Ryser permanent disagreeing with the brute-force sum went unnoticed")


def check_sweep(rounds) -> None:
    for suite in ("lidskii", "af"):
        op = next(op for op in rounds[0] if op.family == suite)
        ans = op.call()
        expect_accepted(op, ans)
        expect_rejected(op, "one failure", replace_json(ans, failures=1))
        expect_rejected(op, "exit code 1", CliAnswer(1, ans.stdout))
        expect_rejected(op, "another suite's report", replace_json(ans, suite="newton"))


def attribute_snapshot() -> dict:
    snapshot = {}
    for name in tracing.SCANNED_MODULES:
        for key, value in vars(importlib.import_module(name)).items():
            snapshot[(name, key)] = value
    for key, value in importlib.import_module("hyperpoly.experiments").SUITES.items():
        snapshot[("SUITES", key)] = value
    return snapshot


def changed(before: dict, after: dict) -> list:
    return [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]


def check_attributes(rounds_by_workload) -> None:
    small = [
        first_op(rounds_by_workload["scaling"], "symmetric", 6),
        first_op(rounds_by_workload["polytope"], "support-product", 3),
        next(op for op in rounds_by_workload["sweep"][0] if op.family == "af"),
    ]
    before = attribute_snapshot()
    run.run_loop(workloads, [small], 1e-3, calibration.SpeedProbe(), round_count=1)
    left = changed(before, attribute_snapshot())
    expect(not left, f"the untraced run changed {left}")

    tracer = tracing.Tracer().install()
    try:
        import hyperpoly.cli
        import hyperpoly.experiments
        import hyperpoly.mixed
        import hyperpoly.oracle
        import hyperpoly.scaling

        for module, name in (
            (hyperpoly.scaling, "hyperbolic_rank"),
            (hyperpoly.mixed, "linprog"),
            (hyperpoly.mixed, "evaluate_batch"),
            (hyperpoly.oracle, "real_roots_from_coefficients"),
            (hyperpoly.cli, "newton_saturation_check"),
            (hyperpoly.experiments, "run_suite"),
        ):
            expect(
                before[(module.__name__, name)] is not getattr(module, name),
                f"the tracer did not wrap {module.__name__}.{name}",
            )
        run.run_loop(workloads, [small], 1e-3, calibration.SpeedProbe(), round_count=1)
    finally:
        tracer.uninstall()
    left = changed(before, attribute_snapshot())
    expect(not left, f"uninstall left {left} wrapped")
    expect(tracer.calls["cli.main"] == 2, f"traced cli.main calls {tracer.calls['cli.main']}, expected 2")
    expect(tracer.calls["scaling.capacity"] == 1, "traced scaling.capacity was not counted")
    expect(not tracer.absent, f"names absent at this commit: {tracer.absent}")
    metrics, _ = tracer.metrics({"generators.setup_busy_s": 0.0, "trace.overhead_ratio": 1.0})
    expect(metrics["experiments.af.busy_s"]["value"] > 0.0, "the af suite span was not recorded")


def check_absent_target() -> None:
    targets = [
        dataclasses.replace(t, attr="removed_" + t.attr) if t.span == "oracle.trace_in_direction" else t
        for t in tracing.TARGETS
    ]
    before = attribute_snapshot()
    tracer = tracing.Tracer(targets).install()
    tracer.uninstall()
    metrics, absent = tracer.metrics({"generators.setup_busy_s": 0.0, "trace.overhead_ratio": 1.0})
    expect(set(metrics) == {name for name, _ in tracing.PER_LAYER}, "metrics missing when a target is absent")
    expect("oracle.trace_in_direction.calls" in absent, "a removed target was not reported absent")
    expect(metrics["oracle.trace_in_direction.calls"]["value"] == 0.0, "an absent metric did not read 0")
    expect(not changed(before, attribute_snapshot()), "install/uninstall with an absent target changed attributes")


def check_subset_positions() -> None:
    for k in range(1, 7):
        order = sorted(itertools.chain.from_iterable(itertools.combinations(range(k), s) for s in range(1, k + 1)))
        for index, subset in enumerate(order, start=1):
            expect(tracing.lexicographic_position(subset, k) == index, f"subset position of {subset} in k={k}")


def check_benchmark_json(rounds) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.BUILDERS), "workload names differ from BENCHMARK.json")
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
        "per_layer metrics differ from BENCHMARK.json",
    )
    samples = [(op, 0.001 * (i + 1), None) for i, op in enumerate(rounds[0] * 10)]
    printed = run.end_to_end(samples, setup_s=1.0, round_size=len(rounds[0]))
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in printed.items()],
        "end_to_end metrics differ from BENCHMARK.json",
    )


def main() -> int:
    workdir = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        rounds = {}
        for name, build in workloads.BUILDERS.items():
            (workdir / name).mkdir(parents=True)
            rounds[name] = build(SEED, workdir / name)
        check_scaling(rounds["scaling"])
        check_polytope(rounds["polytope"])
        check_sweep(rounds["sweep"])
        check_attributes(rounds)
        check_absent_target()
        check_subset_positions()
        check_benchmark_json(rounds["sweep"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
