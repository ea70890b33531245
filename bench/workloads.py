"""Seeded inputs, operations and reference checks for the three workloads.

A workload is a list of rounds and a round is a fixed list of operations.
The kinds and sizes in a round do not depend on the seed, so runs with
different seeds do the same amount of work; the seed only draws the numbers.
Operations call the library through module attributes (``scaling.capacity``,
``cli.main``) at call time, so a traced run sees them through its wrappers.

Every check compares an answer with a reference the benchmark computes on
its own, after the timed loop: determinants and products for capacity,
``numpy.linalg.eigvalsh`` for rank witnesses, Ryser permanents for mixed
discriminants.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from hyperpoly import cli, mixed, scaling
from hyperpoly import generators as gen

# The sinkhorn_iteration default the scaling ops run with.
SINKHORN_THRESHOLD = 1e-10
# capacity() and p(d_final) / multiplier from sinkhorn_iteration are two
# routes to one number; they agree to about 5e-11 relative up to n = 12.
CAPACITY_RTOL = 1e-8
# Relative eigenvalue cutoff when confirming a witness is rank deficient.
RANK_RTOL = 1e-9
# Polarization error of a mixed value is about n * eps * (largest |p| over
# sign vectors); the check allows this many times that.
MIXED_ERROR_FACTOR = 8.0

# Sizes are grouped so that latency_p50_ms falls in the middle of the n = 8
# symmetric group (as many ops cost less as cost more) and latency_p90_ms
# inside the n = 12 symmetric group; a percentile sitting between two groups
# would jump with the smallest change of timing.
SCALING_ROUND = (
    # cheaper than the median group, under 70 ms each
    ("product", 6),
    ("product", 8),
    ("product", 10),
    ("symmetric", 6),
    ("dense", 3),
    ("dense", 4),
    ("dense", 5),
    ("deficient", 6),
    ("deficient", 6),
    # the median group, about 90 ms each
    ("symmetric", 8),
    ("symmetric", 8),
    ("symmetric", 8),
    ("symmetric", 8),
    # 0.15-0.5 s; a rank-deficient op costs between 0 and 1 full rank check,
    # by where the random permutation put its witness
    ("product", 12),
    ("symmetric", 10),
    ("symmetric", 10),
    ("deficient", 10),
    ("deficient", 10),
    ("deficient", 10),
    # the p90 group, about 1.5 s each; n = 10 and 12 carry 90% of the time
    ("symmetric", 12),
    ("symmetric", 12),
    ("symmetric", 12),
)

# Grouped like SCALING_ROUND: latency_p50_ms falls inside the n = 13 mixed
# group and latency_p90_ms inside the n = 14 one, whose costs do not depend
# on the instance.  An n = 5 support op costs 0.02-0.4 s by how many LPs it
# needs, so there are only two in a round of 40, which stay above p90.
_POLYTOPE_HALF = (
    # below the median
    ("support-symmetric", 3),
    ("support-symmetric", 3),
    ("support-product", 3),
    ("support-product", 3),
    ("support-symmetric", 4),
    ("support-symmetric", 4),
    ("support-product", 4),
    ("mixed", 12),
    # the median group
    *(("mixed", 13),) * 4,
    # above the median, and the p90 group
    *(("mixed", 14),) * 7,
)
POLYTOPE_ROUND = (
    *_POLYTOPE_HALF,
    ("support-symmetric", 5),
    *_POLYTOPE_HALF,
    ("support-product", 5),
)

# (suite, trials).  Two interlace ops out of 14 keep latency_p90_ms inside
# the interlace cluster (~0.12 s an op whatever the trial count).
SWEEP_ROUND = tuple(
    (suite, trials)
    for suite, trials in (
        ("af", 3),
        ("vdw", 2),
        ("hsi", 4),
        ("logconcavity", 3),
        ("capacity-concavity", 1),
        ("lidskii", 20),
        ("interlace", 1),
    )
    for _ in range(2)
)

# Every CLI op runs its work in the calling process.
SINGLE_WORKER = ("--parallelism", "1")
# Distinct rounds generated in set-up; a run that needs more cycles through them.
ROUNDS = {"scaling": 6, "polytope": 8, "sweep": 200}
# Rounds of a traced run: a fixed amount of work, about 20 s untraced at the seed commit.
TRACE_ROUNDS = {"scaling": 3, "polytope": 5, "sweep": 40}


@dataclass
class Op:
    family: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right, else why not


@dataclass(frozen=True)
class OpError:
    """The result of an operation that raised."""

    error: str


@dataclass(frozen=True)
class ScalingAnswer:
    rank: object  # EdmondsRadoReport
    capacity: object  # CapacityResult
    sinkhorn: object  # ScalingReport
    defect: Optional[float]


@dataclass(frozen=True)
class CliAnswer:
    code: int
    stdout: str


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng((seed,) + key)


# -- scaling -----------------------------------------------------------------
def _scaling_call(oracle, points) -> Callable[[], ScalingAnswer]:
    def call() -> ScalingAnswer:
        rank = scaling.edmonds_rado_check(oracle, points)
        cap = scaling.capacity(oracle, points)
        report = scaling.sinkhorn_iteration(oracle, points)
        # A zero-capacity trajectory ends on the cone boundary, where the defect is undefined.
        defect = scaling.doubly_stochastic_defect(oracle, report.final_state.points) if report.converged else None
        return ScalingAnswer(rank, cap, report, defect)

    return call


def _positive_check(n: int, p_ref: Callable[[np.ndarray], float]):
    threshold = min(1.0 / n, SINKHORN_THRESHOLD)

    def check(ans: ScalingAnswer) -> Optional[str]:
        if ans.rank.holds is not True or ans.rank.witness is not None:
            return f"rank condition reported violated at {ans.rank.witness}"
        if ans.capacity.status != "converged":
            return f"capacity status {ans.capacity.status}"
        if ans.sinkhorn.capacity_verdict != "positive" or not ans.sinkhorn.converged:
            return f"sinkhorn verdict {ans.sinkhorn.capacity_verdict}, converged={ans.sinkhorn.converged}"
        state = ans.sinkhorn.final_state
        expected = p_ref(state.d) / state.multiplier
        if not abs(ans.capacity.value - expected) <= CAPACITY_RTOL * abs(expected):
            return f"capacity {ans.capacity.value!r} but p(d)/multiplier = {expected!r}"
        if ans.defect is None or not ans.defect <= threshold:
            return f"defect {ans.defect!r} of the scaled tuple above {threshold}"
        return None

    return check


def _deficient_check(matrices: list, pair: tuple[int, int]):
    def check(ans: ScalingAnswer) -> Optional[str]:
        witness = ans.rank.witness
        if ans.rank.holds or witness is None or tuple(witness) != pair:
            return f"witness {witness}, expected {pair}"
        eig = np.linalg.eigvalsh(sum(matrices[i] for i in witness))
        rank = int(np.sum(eig > RANK_RTOL * max(1.0, float(eig[-1]))))
        if rank >= len(witness):
            return f"witness {witness} has rank {rank}"
        if ans.capacity.status != "zero_capacity" or ans.capacity.value != 0.0:
            return f"capacity {ans.capacity.value!r} ({ans.capacity.status}) on a rank-deficient tuple"
        if ans.sinkhorn.capacity_verdict != "zero":
            return f"sinkhorn verdict {ans.sinkhorn.capacity_verdict} on a rank-deficient tuple"
        return None

    return check


def _scaling_op(family: str, n: int, rng: np.random.Generator) -> Op:
    if family == "symmetric":
        oracle, points = gen.matrix_tuple_points(gen.psd_matrix_tuple(rng, n))
        check = _positive_check(n, lambda d: float(np.linalg.det(gen.point_to_matrix(d, n))))
    elif family == "product":
        oracle, points = gen.positive_product_tuple(rng, n)
        check = _positive_check(n, lambda d: float(np.prod(d)))
    elif family == "dense":
        base = gen.random_determinantal_oracle(rng, n, m=3)
        oracle = mixed.dense_from_oracle(base)
        points = gen.positive_point_tuple(oracle, rng, n)
        pencil, factor = base.form.pencil, oracle.metadata["normalization_factor"]
        check = _positive_check(n, lambda d: float(np.linalg.det(np.tensordot(d, pencil, axes=1))) / factor)
    else:
        matrices, duplicated = gen.rank_deficient_matrix_tuple(rng, n)
        order = rng.permutation(n)
        matrices = [matrices[i] for i in order]
        pair = tuple(int(i) for i in np.flatnonzero(np.isin(order, duplicated)))
        oracle, points = gen.matrix_tuple_points(matrices)
        check = _deficient_check(matrices, pair)
    return Op(family, n, _scaling_call(oracle, points), check)


def build_scaling(seed: int, workdir: Path) -> list[list[Op]]:
    return [
        [_scaling_op(family, n, _rng(seed, r, slot)) for slot, (family, n) in enumerate(SCALING_ROUND)]
        for r in range(ROUNDS["scaling"])
    ]


# -- CLI operations ----------------------------------------------------------
def _cli_call(argv: list[str]) -> Callable[[], CliAnswer]:
    def call() -> CliAnswer:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return CliAnswer(code, out.getvalue())

    return call


def _report(ans: CliAnswer) -> tuple[Optional[dict], Optional[str]]:
    if ans.code != 0:
        return None, f"exit code {ans.code}"
    try:
        return json.loads(ans.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unparsable report: {exc}"


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- polytope ----------------------------------------------------------------
def ryser_permanent(w: np.ndarray) -> float:
    """perm(W) = (-1)^n sum over column subsets S of (-1)^|S| prod_i sum_{j in S} w_ij."""
    n = w.shape[0]
    subsets = np.arange(1, 1 << n)
    columns = ((subsets[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    signs = np.where(columns.sum(axis=1) % 2 == 1, -1.0, 1.0)
    return (-1.0) ** n * float(signs @ np.prod(columns @ w.T, axis=1))


class PermanentReference:
    """Ryser permanents, validated once against the brute-force permutation sum for n <= 8."""

    def __init__(self, rng: np.random.Generator):
        self._samples = [rng.uniform(0.0, 1.0, size=(n, n)) for n in range(2, 9)]
        self._problem: Optional[str] = None
        self._validated = False

    def problem(self) -> Optional[str]:
        if not self._validated:
            self._validated = True
            for w in self._samples:
                ryser, brute = ryser_permanent(w), mixed.brute_force_permanent(w)
                if not abs(ryser - brute) <= 1e-12 * abs(brute):
                    self._problem = f"Ryser {ryser!r} != brute force {brute!r} at n={w.shape[0]}"
        return self._problem


def _support_check(ans: CliAnswer) -> Optional[str]:
    report, problem = _report(ans)
    if problem:
        return problem
    if report.get("saturated") is not True:
        return f"not saturated: violations {report.get('violations')}"
    return None


def _mixed_check(w: np.ndarray, permanents: PermanentReference):
    n = w.shape[0]
    # All weights are positive, so the largest |p| over sign vectors is at b = (1, ..., 1).
    peak = float(np.prod(w.sum(axis=1)))

    def check(ans: CliAnswer) -> Optional[str]:
        report, problem = _report(ans)
        if problem:
            return problem
        if permanents.problem():
            return permanents.problem()
        expected = ryser_permanent(w)
        value = report.get("mixed_value")
        allowed = MIXED_ERROR_FACTOR * n * np.finfo(float).eps * peak
        if not isinstance(value, float) or not abs(value - expected) <= allowed:
            return f"mixed value {value!r}, permanent {expected!r} (allowed error {allowed:.3g})"
        return None

    return check


def _polytope_op(family: str, n: int, rng: np.random.Generator, stem: Path, permanents) -> Op:
    if family == "support-symmetric":
        _, points = gen.structured_psd_points(rng, n)
        oracle_doc = {"kind": "symmetric", "n": n}
        tuple_doc = {"matrices": [gen.point_to_matrix(x, n).tolist() for x in points]}
        check = _support_check
    elif family == "support-product":
        _, points = gen.structured_product_points(rng, n)
        oracle_doc = {"kind": "product", "n": n}
        tuple_doc = {"points": points.tolist()}
        check = _support_check
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.5, 1.5, size=(n, n))
        matrices = [(q * w[:, i]) @ q.T for i in range(n)]
        oracle_doc = {"kind": "symmetric", "n": n}
        tuple_doc = {"matrices": [(0.5 * (a + a.T)).tolist() for a in matrices]}
        check = _mixed_check(w, permanents)
    command = "mixed" if family == "mixed" else "support"
    argv = [
        command,
        _write(stem.with_suffix(".oracle.json"), oracle_doc),
        _write(stem.with_suffix(".tuple.json"), tuple_doc),
        *SINGLE_WORKER,
    ]
    return Op(family, n, _cli_call(argv), check)


def build_polytope(seed: int, workdir: Path) -> list[list[Op]]:
    permanents = PermanentReference(_rng(seed, 1 << 20))
    return [
        [
            _polytope_op(family, n, _rng(seed, r, slot), workdir / f"r{r}-s{slot}", permanents)
            for slot, (family, n) in enumerate(POLYTOPE_ROUND)
        ]
        for r in range(ROUNDS["polytope"])
    ]


# -- sweep -------------------------------------------------------------------
def _sweep_check(suite: str):
    def check(ans: CliAnswer) -> Optional[str]:
        report, problem = _report(ans)
        if problem:
            return problem
        if report.get("suite") != suite or report.get("failures") != 0:
            return f"suite {report.get('suite')} reported {report.get('failures')} failures"
        return None

    return check


def build_sweep(seed: int, workdir: Path) -> list[list[Op]]:
    rounds = []
    for r in range(ROUNDS["sweep"]):
        op_seeds = np.random.SeedSequence((seed, r)).generate_state(len(SWEEP_ROUND))
        rounds.append(
            [
                Op(
                    suite,
                    trials,
                    _cli_call(["experiments", suite, "--trials", str(trials), "--seed", str(int(s)), *SINGLE_WORKER]),
                    _sweep_check(suite),
                )
                for (suite, trials), s in zip(SWEEP_ROUND, op_seeds)
            ]
        )
    return rounds


BUILDERS = {"scaling": build_scaling, "polytope": build_polytope, "sweep": build_sweep}


def check(op: Op, result) -> Optional[str]:
    """Why the result is wrong, or None when it is right."""
    if isinstance(result, OpError):
        return result.error
    try:
        return op.check(result)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
