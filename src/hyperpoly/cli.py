"""Command-line interface.

One binary with subcommands wrapping every public operation, seeded
generators, and the batch experiment suites.  Reports go to stdout (JSON by
default, or plain text), diagnostics to stderr.  Exit codes: 0 success or
property holds, 1 definite negative, 2 malformed input, 3 undetermined or
inconclusive.

The point commands (eval, roots, trace) and the tuple commands (mixed,
support, af, sinkhorn, capacity, edmonds-rado) each load their oracle and
inputs in one wrapper, so a handler receives loaded objects.  Every document
and flag is checked where it is read and a malformed one raises
InvalidDocumentError, which main turns into exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import experiments
from .errors import HyperpolyError, InvalidDocumentError, NonRealRootError, ZeroCapacityError
from .generators import GeneratorSpec, generate_document, matrix_tuple_points, symmetric_matrix_oracle
from .interlace import (
    HYPERBOLIC,
    INCONCLUSIVE,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    derivative_line_convexity,
    lidskii_check,
    majorization_check,
    obreschkoff_pair_test,
    sampled_pencil_test,
    shifted_pencil_majorization,
    symmetric_convex_line_check,
)
from .mixed import alexandrov_fenchel_verdict, mixed_value, newton_saturation_check
from .oracle import evaluate, oracle_from_json, roots_in_direction, trace_in_direction
from .scaling import (
    STATUS_CONVERGED,
    STATUS_ZERO,
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    capacity,
    edmonds_rado_check,
    sinkhorn_iteration,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3


@dataclass(frozen=True)
class RunConfig:
    seed: int
    tol: float
    max_iters: int
    output_format: str
    parallelism: int

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidDocumentError("tol must be positive")
        if self.max_iters < 1:
            raise InvalidDocumentError("max-iters must be at least 1")
        if self.parallelism < 1:
            raise InvalidDocumentError("parallelism must be at least 1")
        # More workers than cores only adds process start-up cost.
        object.__setattr__(self, "parallelism", min(self.parallelism, os.cpu_count() or 1))


def _parse(cast, value, what: str):
    """cast(value), with a malformed value reported as an input error."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise InvalidDocumentError(f"bad {what}: {exc}") from exc


def _floats(value, what: str) -> np.ndarray:
    return _parse(lambda v: np.asarray(v, dtype=float), value, what)


def _env(name: str, cast, default):
    raw = os.environ.get(f"HYPERPOLY_{name}")
    return default if raw is None else _parse(cast, raw, f"HYPERPOLY_{name}={raw!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidDocumentError(f"cannot read {path}: {exc}") from exc


def _require(doc, path: str, *names: str) -> list:
    """The named fields of a JSON object document, in order."""
    if not isinstance(doc, dict) or any(name not in doc for name in names):
        raise InvalidDocumentError(f"{path}: the document is an object with the fields {', '.join(names)}")
    return [doc[name] for name in names]


def _load_oracle(path: str):
    doc = _load_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "symmetric":
        (n,) = _require(doc, path, "n")
        return symmetric_matrix_oracle(_parse(int, n, f"{path}: 'n'"))
    return oracle_from_json(doc)


def _load_point(path: str) -> np.ndarray:
    doc = _load_json(path)
    if isinstance(doc, dict) and "point" in doc:
        doc = doc["point"]
    if not isinstance(doc, list):
        raise InvalidDocumentError(f"{path}: a point document is a JSON array of numbers")
    return _floats(doc, f"{path}: point")


def _load_tuple(path: str, oracle):
    doc = _load_json(path)
    if isinstance(doc, dict) and "points" in doc:
        pts = _floats(doc["points"], f"{path}: 'points'")
        if pts.ndim != 2:
            raise InvalidDocumentError(f"{path}: 'points' must be a 2-d array")
        return oracle, pts
    if isinstance(doc, dict) and "matrices" in doc:
        mat_oracle, pts = matrix_tuple_points(_floats(doc["matrices"], f"{path}: 'matrices'"))
        if oracle is None:
            return mat_oracle, pts
        # Matrix coordinates only make sense against the symmetric-basis pencil.
        same = (
            oracle.kind == mat_oracle.kind
            and oracle.m == mat_oracle.m
            and oracle.n == mat_oracle.n
            and np.max(np.abs(oracle.form.pencil - mat_oracle.form.pencil)) <= 1e-12
        )
        if not same:
            raise InvalidDocumentError(
                f"{path}: matrix tuples pair with the symmetric-basis oracle "
                f'({{"kind": "symmetric", "n": {mat_oracle.n}}})'
            )
        return oracle, pts
    raise InvalidDocumentError(f"{path}: tuple document needs a 'points' or 'matrices' field")


def _load_pair(path: str) -> tuple[MonicPolynomial, MonicPolynomial]:
    q, r = _require(_load_json(path), path, "q", "r")
    return MonicPolynomial.from_json(q), MonicPolynomial.from_json(r)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            start, stop, step = (float(v) for v in spec.split(":"))
            grid = np.round(np.arange(start, stop + 1e-12, step), 12)
        else:
            grid = np.asarray([float(v) for v in spec.split(",")], dtype=float)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidDocumentError("grid must be 'start:stop:step' or comma-separated values") from exc
    if grid.size == 0:
        raise InvalidDocumentError(f"grid '{spec}' has no points")
    return grid


def _emit(report: dict, config: RunConfig, out_path: str | None) -> None:
    if config.output_format == "json":
        text = json.dumps(report, sort_keys=True)
    else:
        lines = []
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _code(ok: bool, negative: bool = True) -> int:
    """EXIT_OK when ok, else EXIT_NEGATIVE for a definite negative and EXIT_UNDETERMINED otherwise."""
    if ok:
        return EXIT_OK
    return EXIT_NEGATIVE if negative else EXIT_UNDETERMINED


def cmd_eval(config: RunConfig, oracle, x, d) -> tuple[int, dict]:
    return EXIT_OK, {"value": evaluate(oracle, x)}


def cmd_roots(config: RunConfig, oracle, x, d) -> tuple[int, dict]:
    lam = roots_in_direction(oracle, x, d, tol=config.tol)
    return EXIT_OK, {"roots": [float(v) for v in lam]}


def cmd_trace(config: RunConfig, oracle, x, d) -> tuple[int, dict]:
    return EXIT_OK, {"trace": trace_in_direction(oracle, x, d)}


def cmd_mixed(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    if oracle.n >= 15:
        print(f"note: polarizing over 2^{oracle.n} sign vectors", file=sys.stderr)
    return EXIT_OK, {"mixed_value": mixed_value(oracle, pts)}


def cmd_support(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = newton_saturation_check(oracle, pts)
    return _code(report.saturated), report.to_json()


def cmd_af(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = alexandrov_fenchel_verdict(oracle, pts)
    return _code(report["holds"]), report


def cmd_sinkhorn(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = sinkhorn_iteration(oracle, pts, max_iters=config.max_iters, threshold=ns.threshold)
    ok = report.capacity_verdict == VERDICT_POSITIVE and report.converged
    return _code(ok, report.capacity_verdict == VERDICT_ZERO), report.to_json()


def cmd_capacity(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    result = capacity(oracle, pts, tol=config.tol, max_iters=config.max_iters)
    return _code(result.status == STATUS_CONVERGED, result.status == STATUS_ZERO), result.to_json()


def cmd_edmonds_rado(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = edmonds_rado_check(oracle, pts, tol=config.tol)
    return _code(report.holds), report.to_json()


POINT_COMMANDS = {
    "eval": ("evaluate the polynomial at a point", cmd_eval),
    "roots": ("root spectrum of a point in a direction", cmd_roots),
    "trace": ("directional trace of a point", cmd_trace),
}

TUPLE_COMMANDS = {
    "mixed": ("polarized mixed value of an n-point tuple", cmd_mixed),
    "support": ("support, Newton polytope saturation", cmd_support),
    "af": ("Alexandrov-Fenchel residual of a tuple", cmd_af),
    "sinkhorn": ("run the scaling iteration", cmd_sinkhorn),
    "capacity": ("capacity of a tuple via convex optimization", cmd_capacity),
    "edmonds-rado": ("generalized rank condition over all subsets", cmd_edmonds_rado),
}


def _point_command(handler):
    def run(ns, config: RunConfig) -> tuple[int, dict]:
        oracle = _load_oracle(ns.oracle)
        x = _load_point(ns.point)
        d = _load_point(ns.direction) if getattr(ns, "direction", None) else oracle.direction
        return handler(config, oracle, x, d)

    return run


def _tuple_command(handler):
    def run(ns, config: RunConfig) -> tuple[int, dict]:
        oracle, pts = _load_tuple(ns.tuple, _load_oracle(ns.oracle))
        return handler(ns, config, oracle, pts)

    return run


def cmd_pair_test(ns, config: RunConfig) -> tuple[int, dict]:
    q, r = _load_pair(ns.pair)
    first = obreschkoff_pair_test(q, r, tol=config.tol)
    second = sampled_pencil_test(q, r, num_dirs=ns.num_dirs, tol=config.tol)
    definite = (HYPERBOLIC, NOT_HYPERBOLIC)
    agree = first.verdict == second.verdict or not (
        first.verdict in definite and second.verdict in definite
    )
    report = {"obreschkoff": first.to_json(), "sampled": second.to_json(), "agree": agree}
    if first.verdict == second.verdict and first.verdict in definite:
        verdict = first.verdict
    elif second.verdict == NOT_HYPERBOLIC or first.verdict == NOT_HYPERBOLIC:
        # A found counterexample (or mixed residues) is decisive even if the
        # other route could not commit.
        verdict = NOT_HYPERBOLIC if first.verdict != HYPERBOLIC else INCONCLUSIVE
    else:
        verdict = INCONCLUSIVE
    report["verdict"] = verdict
    return _code(verdict == HYPERBOLIC, verdict == NOT_HYPERBOLIC), report


def cmd_majorize(ns, config: RunConfig) -> tuple[int, dict]:
    doc = _load_json(ns.file)
    if ns.mode == "vectors":
        u, v = (_floats(f, f"{ns.file}: vector") for f in _require(doc, ns.file, "u", "v"))
        report = majorization_check(u, v, tol=config.tol)
    elif ns.mode == "lidskii":
        a, b = (_floats(f, f"{ns.file}: matrix") for f in _require(doc, ns.file, "A", "B"))
        report = lidskii_check(a, b, tol=config.tol)
    else:
        q, r, point, delta = _require(doc, ns.file, "q", "r", "point", "delta")
        report = shifted_pencil_majorization(
            MonicPolynomial.from_json(q),
            MonicPolynomial.from_json(r),
            _floats(point, f"{ns.file}: 'point'"),
            _floats(delta, f"{ns.file}: 'delta'"),
            tol=config.tol,
        )
    return _code(report.majorized), report.to_json()


def cmd_line_convexity(ns, config: RunConfig) -> tuple[int, dict]:
    grid = _parse_grid(ns.grid)
    if ns.check == "derivative":
        (q,) = _require(_load_json(ns.file), ns.file, "q")
        report = derivative_line_convexity(MonicPolynomial.from_json(q), ns.b, ns.c, ns.k, grid, tol=config.tol)
        return _code(report.convex and report.min_at_zero is not False and report.fn_constant), report.to_json()
    q, r = _load_pair(ns.file)
    try:
        report = symmetric_convex_line_check(q, r, ns.b, ns.c, ns.statistic, grid, tol=config.tol)
    except NonRealRootError as exc:
        return EXIT_NEGATIVE, {"convex": None, "verdict": "not_hyperbolic", "detail": str(exc)}
    return _code(report.convex), report.to_json()


def cmd_gen(ns, config: RunConfig) -> tuple[int, dict]:
    spec = GeneratorSpec(kind=ns.kind, n=ns.n, params={})
    return EXIT_OK, generate_document(spec, config.seed)


def cmd_experiments(ns, config: RunConfig) -> tuple[int, dict]:
    try:
        summary = experiments.run_suite(ns.suite, config.seed, trials=ns.trials, parallelism=config.parallelism)
    except KeyError as exc:
        raise InvalidDocumentError(str(exc)) from exc
    return _code(summary["failures"] == 0), summary


def _add_common_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=default(_env("SEED", int, 0)))
    parser.add_argument("--tol", type=float, default=default(_env("TOL", float, 1e-8)))
    parser.add_argument("--max-iters", type=int, default=default(_env("MAX_ITERS", int, 10000)))
    parser.add_argument("--format", choices=("json", "text"), default=default(_env("FORMAT", str, "json")))
    parser.add_argument("--parallelism", type=int, default=default(_env("PARALLELISM", int, 1)))
    parser.add_argument("--out", default=default(None), help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperpoly", description=__doc__)
    _add_common_options(parser, suppress=False)
    # The same options are accepted after the subcommand; values given there win.
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    for name, (help_text, handler) in POINT_COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("oracle")
        p.add_argument("point")
        if name != "eval":
            p.add_argument("direction", nargs="?", default=None)
        p.set_defaults(fn=_point_command(handler))

    for name, (help_text, handler) in TUPLE_COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("oracle")
        p.add_argument("tuple")
        if name == "sinkhorn":
            p.add_argument("--threshold", type=float, default=1e-10)
        p.set_defaults(fn=_tuple_command(handler))

    p = sub.add_parser("pair-test", parents=[common], help="hyperbolic pair test (residues + sampled pencil)")
    p.add_argument("pair")
    p.add_argument("--num-dirs", type=int, default=64)
    p.set_defaults(fn=cmd_pair_test)

    p = sub.add_parser("majorize", parents=[common], help="majorization checks")
    p.add_argument("file")
    p.add_argument("--mode", choices=("vectors", "lidskii", "shifted-pencil"), default="vectors")
    p.set_defaults(fn=cmd_majorize)

    p = sub.add_parser("line-convexity", parents=[common], help="convexity sweeps along polynomial lines")
    p.add_argument("file")
    p.add_argument("--check", choices=("derivative", "symmetric"), default="derivative")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--grid", default="-1:1:0.25")
    p.add_argument("--statistic", default="max")
    p.set_defaults(fn=cmd_line_convexity)

    p = sub.add_parser("gen", parents=[common], help="seeded instance generators")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("experiments", parents=[common], help="batch property suites")
    p.add_argument("suite")
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(fn=cmd_experiments)

    return parser


def main(argv=None) -> int:
    try:
        # The defaults read HYPERPOLY_* variables, so a bad value fails here.
        ns = build_parser().parse_args(argv)
        config = RunConfig(
            seed=ns.seed,
            tol=ns.tol,
            max_iters=ns.max_iters,
            output_format=ns.format,
            parallelism=ns.parallelism,
        )
        code, report = ns.fn(ns, config)
        _emit(report, config, ns.out)
        return code
    except (NonRealRootError, ZeroCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except HyperpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

if __name__ == "__main__":
    sys.exit(main())
