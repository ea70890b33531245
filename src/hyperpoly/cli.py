"""Command-line interface.

One binary with subcommands wrapping every public operation, seeded
generators, and the batch experiment suites.  Reports go to stdout (JSON by
default, or plain text), diagnostics to stderr.  Exit codes: 0 success or
property holds, 1 definite negative, 2 malformed input, 3 inconclusive.

The point commands (eval, roots, trace) and the tuple commands (mixed,
support, af, sinkhorn, capacity, edmonds-rado) each load their oracle and
inputs in one wrapper, so a handler receives loaded objects.  Every document
and flag is checked where it is read and a malformed one raises
InvalidDocumentError, which main turns into exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import experiments
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    HyperpolyError,
    InvalidDocumentError,
    NonRealRootError,
    real_field,
)
from .generators import GeneratorSpec, generate_document
from .interlace import (
    HYPERBOLIC,
    SWEEP_GRID_CAP,
    MonicPolynomial,
    bezoutian_pair_test,
    derivative_line_convexity,
    lidskii_check,
    majorization_check,
    obreschkoff_pair_test,
    pair_agreement,
    sampled_pencil_test,
    shifted_pencil_majorization,
    symmetric_convex_line_check,
)
from .mixed import alexandrov_fenchel_verdict, mixed_value, newton_saturation_check
from .oracle import (
    evaluate,
    oracle_from_json,
    paired_matrix_points,
    roots_in_direction,
    trace_in_direction,
)
from .scaling import (
    STATUS_CONVERGED,
    STATUS_ZERO,
    VERDICT_POSITIVE,
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
        if self.output_format not in ("json", "text"):
            raise InvalidDocumentError(f"format must be 'json' or 'text', got {self.output_format!r}")


def _parse(cast, value, what: str):
    """cast(value), with a malformed value reported as an input error."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocumentError(f"bad {what}: {exc}") from exc


def _env(name: str, cast, default):
    raw = os.environ.get(f"HYPERPOLY_{name}")
    return default if raw is None else _parse(cast, raw, f"HYPERPOLY_{name}={raw!r}")


def _finite(text: str) -> float:
    """A number from a document or a flag as a float; NaN, infinities and overflowing literals are malformed."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


class _Boolean:
    """A JSON true or false in an input document.  json decodes them as bool, which float(), numpy's
    casts and int() read as 1 and 0; this stand-in is no number, so every reader of a numeric field
    refuses it as malformed: float() raises TypeError, and integer_field refuses it by name."""

    __slots__ = ("text",)

    def __init__(self, value: bool):
        self.text = "true" if value else "false"

    def __repr__(self) -> str:
        return self.text

    def __float__(self) -> float:
        raise TypeError(f"{self.text} is not a number")


def _without_booleans(doc):
    """doc with every boolean replaced by a _Boolean."""
    if type(doc) is bool:
        return _Boolean(doc)
    if type(doc) is list:
        return [_without_booleans(v) for v in doc]
    if type(doc) is dict:
        return {k: _without_booleans(v) for k, v in doc.items()}
    return doc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # Floats are parsed in C: every numeric field is read by real_field or integer_field, which refuse
        # NaN, the infinities and an overflowing literal such as 1e400; NaN and Infinity fail here.
        doc = json.loads(text, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise InvalidDocumentError(f"cannot read {path}: {exc}") from exc
    # Only a document whose text holds a boolean literal pays for a pass over its values.
    return _without_booleans(doc) if "true" in text or "false" in text else doc


def _require(doc, path: str, *names: str) -> list:
    """The named fields of a JSON object document, in order."""
    if not isinstance(doc, dict) or any(name not in doc for name in names):
        raise InvalidDocumentError(f"{path}: the document is an object with the fields {', '.join(names)}")
    return [doc[name] for name in names]


def _load_oracle(path: str):
    doc = _load_json(path)
    try:
        return oracle_from_json(doc)
    except InvalidDocumentError as exc:
        raise InvalidDocumentError(f"{path}: {exc}") from exc


def _load_point(path: str) -> np.ndarray:
    doc = _load_json(path)
    if isinstance(doc, dict) and "point" in doc:
        doc = doc["point"]
    point = real_field(doc, f"{path}: point")
    if point.ndim != 1:
        raise InvalidDocumentError(f"{path}: a point document is a JSON array of numbers")
    return point


def _load_tuple(path: str, oracle):
    doc = _load_json(path)
    if isinstance(doc, dict) and "points" in doc:
        pts = real_field(doc["points"], f"{path}: 'points'")
        if pts.ndim != 2:
            raise InvalidDocumentError(f"{path}: 'points' must be a 2-d array")
        return oracle, pts
    if isinstance(doc, dict) and "matrices" in doc:
        return oracle, paired_matrix_points(oracle, doc["matrices"], path)
    raise InvalidDocumentError(f"{path}: tuple document needs a 'points' or 'matrices' field")


def _load_pair(path: str) -> tuple[MonicPolynomial, MonicPolynomial]:
    q, r = _require(_load_json(path), path, "q", "r")
    return MonicPolynomial.from_json(q), MonicPolynomial.from_json(r)


def _parse_grid(spec: str) -> np.ndarray:
    """A --grid value as its points; a range is refused past SWEEP_GRID_CAP points before it is built."""
    try:
        if ":" in spec:
            start, stop, step = (_finite(v) for v in spec.split(":"))
            # The point count of the range is the ceiling of this quotient, so it is above the cap exactly when
            # the quotient is.
            if (stop + 1e-12 - start) / step > SWEEP_GRID_CAP:
                raise BudgetExceededError(f"grid '{spec}' has more than the line sweep cap of {SWEEP_GRID_CAP} points")
            grid = np.round(np.arange(start, stop + 1e-12, step), 12)
        else:
            grid = np.asarray([_finite(v) for v in spec.split(",")], dtype=float)
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
        print(f"note: polarizing at 2^{oracle.n - 2} complex points", file=sys.stderr)
    return EXIT_OK, {"mixed_value": mixed_value(oracle, pts)}


def cmd_support(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = newton_saturation_check(oracle, pts)
    return _code(report.saturated), report.to_json()


def cmd_af(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = alexandrov_fenchel_verdict(oracle, pts)
    return _code(report["holds"]), report


def cmd_sinkhorn(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    if ns.threshold <= 0:
        raise InvalidDocumentError("threshold must be positive")
    report = sinkhorn_iteration(oracle, pts, max_iters=config.max_iters, threshold=ns.threshold)
    return _code(report.capacity_verdict == VERDICT_POSITIVE), report.to_json()


def cmd_capacity(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    result = capacity(oracle, pts, tol=config.tol, max_iters=config.max_iters)
    return _code(result.status == STATUS_CONVERGED, result.status == STATUS_ZERO), result.to_json()


def cmd_edmonds_rado(ns, config: RunConfig, oracle, pts) -> tuple[int, dict]:
    report = edmonds_rado_check(oracle, pts)
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
    certificate = bezoutian_pair_test(q, r)
    agree, _ = pair_agreement(first, second)
    report = {
        "obreschkoff": first.to_json(),
        "sampled": second.to_json(),
        "bezoutian": certificate.to_json(),
        "agree": agree,
        "verdict": certificate.verdict,
    }
    return _code(certificate.verdict == HYPERBOLIC), report


def cmd_majorize(ns, config: RunConfig) -> tuple[int, dict]:
    doc = _load_json(ns.file)
    if ns.mode == "vectors":
        u, v = (real_field(f, f"{ns.file}: vector") for f in _require(doc, ns.file, "u", "v"))
        report = majorization_check(u, v, tol=config.tol)
    elif ns.mode == "lidskii":
        a, b = (real_field(f, f"{ns.file}: matrix") for f in _require(doc, ns.file, "A", "B"))
        report = lidskii_check(a, b, tol=config.tol)
    else:
        q, r, point, delta = _require(doc, ns.file, "q", "r", "point", "delta")
        report = shifted_pencil_majorization(
            MonicPolynomial.from_json(q),
            MonicPolynomial.from_json(r),
            real_field(point, f"{ns.file}: 'point'"),
            real_field(delta, f"{ns.file}: 'delta'"),
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
    spec = GeneratorSpec(kind=ns.kind, n=ns.n)
    return EXIT_OK, generate_document(spec, config.seed)


def cmd_experiments(ns, config: RunConfig) -> tuple[int, dict]:
    summary = experiments.run_suite(ns.suite, config.seed, ns.trials, config.parallelism)
    return _code(summary["failures"] == 0), summary


# The global flags as (name, type, default), in RunConfig's field order.  A
# flag given nowhere on the command line takes HYPERPOLY_<NAME>, else the
# default; main reads the environment, so the parser does not depend on it.
GLOBAL_FLAGS = (
    ("seed", int, 0),
    ("tol", _finite, 1e-8),
    ("max_iters", int, 10000),
    ("format", str, "json"),
    ("parallelism", int, 1),
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InvalidDocumentError, so that
    main returns EXIT_INPUT with an error line instead of exiting."""

    def error(self, message: str):
        raise InvalidDocumentError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted before and after the subcommand; a value
    # given after it wins.  Every default is SUPPRESS, so the namespace holds
    # only the flags given.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for name, cast, _ in GLOBAL_FLAGS:
        common.add_argument("--" + name.replace("_", "-"), type=cast)
    common.add_argument("--out", help="also write the report to this file")
    parser = _Parser(prog="hyperpoly", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
            p.add_argument("--threshold", type=_finite, default=1e-10)
        p.set_defaults(fn=_tuple_command(handler))

    p = sub.add_parser("pair-test", parents=[common], help="hyperbolic pair test (Bezoutian certificate)")
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
    p.add_argument("--b", type=_finite, default=0.0)
    p.add_argument("--c", type=_finite, default=1.0)
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
        ns = build_parser().parse_args(argv)
        config = RunConfig(
            *(
                getattr(ns, name) if hasattr(ns, name) else _env(name.upper(), cast, default)
                for name, cast, default in GLOBAL_FLAGS
            )
        )
        code, report = ns.fn(ns, config)
        _emit(report, config, getattr(ns, "out", None))
        return code
    except NonRealRootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except HyperpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

if __name__ == "__main__":
    sys.exit(main())
