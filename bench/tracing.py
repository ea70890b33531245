"""Spans around calls into hyperpoly's layers, installed only for a traced run.

Each traced function is wrapped under every name a hyperpoly module binds it
to, so a call made from another layer (``hyperpoly.scaling.hyperbolic_rank``,
``hyperpoly.mixed.linprog``) is timed under the name the calling module
imported.  Nothing under ``src/`` is changed: the wrappers replace module
attributes while the tracer is installed and ``uninstall`` puts every
original object back.

A target that no longer exists (a function a later change removed or renamed)
is recorded as absent with the reason, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("cli", "experiments", "scaling", "mixed", "oracle", "interlace", "generators")
SCANNED_MODULES = ("hyperpoly",) + tuple(f"hyperpoly.{layer}" for layer in LAYERS)
SWEEP_SUITES = ("af", "vdw", "hsi", "interlace", "logconcavity", "capacity-concavity", "lidskii")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def lexicographic_position(witness, k: int) -> int:
    """1-based position of ``witness`` among the nonempty subsets of range(k) in lexicographic order.

    This is the number of subsets ``edmonds_rado_check`` visits before it
    stops at that witness.
    """
    position = len(witness)
    previous = -1
    for element in witness:
        for v in range(previous + 1, element):
            position += 1 << (k - 1 - v)
        previous = element
    return position


def _count_subsets(counters, args, kwargs, report) -> None:
    k = len(_arg(args, kwargs, 1, "points"))
    visited = (1 << k) - 1 if report.holds else lexicographic_position(report.witness, k)
    counters["scaling.edmonds_rado_check.subsets"] += visited


def _count_capacity(counters, args, kwargs, result) -> None:
    counters["scaling.capacity.iterations"] += result.iterations


def _count_sinkhorn(counters, args, kwargs, report) -> None:
    counters["scaling.sinkhorn_iteration.iterations"] += report.iterations
    counters["scaling.sinkhorn_iteration.collapses"] += int(report.boundary_collapse)


def _count_rows(counters, args, kwargs, result) -> None:
    counters["oracle.evaluate_batch.rows"] += len(_arg(args, kwargs, 1, "points"))


@dataclass(frozen=True)
class Target:
    span: str  # "<layer>.<function>"
    module: str  # module whose attribute holds the original object
    attr: str
    counter: Optional[Callable] = None


TARGETS = (
    Target("cli.main", "hyperpoly.cli", "main"),
    Target("experiments.run_suite", "hyperpoly.experiments", "run_suite"),
    Target("scaling.edmonds_rado_check", "hyperpoly.scaling", "edmonds_rado_check", _count_subsets),
    Target("scaling.capacity", "hyperpoly.scaling", "capacity", _count_capacity),
    Target("scaling.sinkhorn_iteration", "hyperpoly.scaling", "sinkhorn_iteration", _count_sinkhorn),
    Target("scaling.doubly_stochastic_defect", "hyperpoly.scaling", "doubly_stochastic_defect"),
    Target("mixed.mixed_value", "hyperpoly.mixed", "mixed_value"),
    Target("mixed.newton_saturation_check", "hyperpoly.mixed", "newton_saturation_check"),
    Target("mixed.linprog", "hyperpoly.mixed", "linprog"),
    Target("oracle.hyperbolic_rank", "hyperpoly.oracle", "hyperbolic_rank"),
    Target("oracle.trace_in_direction", "hyperpoly.oracle", "trace_in_direction"),
    Target("oracle.roots_in_direction", "hyperpoly.oracle", "roots_in_direction"),
    Target("oracle.pencil_matrix", "hyperpoly.oracle", "pencil_matrix"),
    Target("oracle.cone_membership", "hyperpoly.oracle", "cone_membership"),
    Target("oracle.evaluate", "hyperpoly.oracle", "evaluate"),
    Target("oracle.evaluate_batch", "hyperpoly.oracle", "evaluate_batch", _count_rows),
    Target("oracle.oracle_from_json", "hyperpoly.oracle", "oracle_from_json"),
    Target("interlace.real_roots_from_coefficients", "hyperpoly.interlace", "real_roots_from_coefficients"),
    Target("interlace.obreschkoff_pair_test", "hyperpoly.interlace", "obreschkoff_pair_test"),
    Target("interlace.sampled_pencil_test", "hyperpoly.interlace", "sampled_pencil_test"),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("oracle.hyperbolic_rank.calls", "count"),
    ("oracle.hyperbolic_rank.busy_s", "s"),
    ("scaling.edmonds_rado_check.busy_s", "s"),
    ("scaling.edmonds_rado_check.subsets", "count"),
    ("oracle.trace_in_direction.calls", "count"),
    ("oracle.trace_in_direction.busy_s", "s"),
    ("oracle.roots_in_direction.calls", "count"),
    ("oracle.roots_in_direction.busy_s", "s"),
    ("interlace.real_roots_from_coefficients.calls", "count"),
    ("interlace.real_roots_from_coefficients.busy_s", "s"),
    ("oracle.pencil_matrix.calls", "count"),
    ("oracle.cone_membership.calls", "count"),
    ("oracle.cone_membership.busy_s", "s"),
    ("oracle.evaluate.calls", "count"),
    ("oracle.evaluate.busy_s", "s"),
    ("scaling.capacity.busy_s", "s"),
    ("scaling.capacity.iterations", "count"),
    ("scaling.sinkhorn_iteration.busy_s", "s"),
    ("scaling.sinkhorn_iteration.iterations", "count"),
    ("scaling.sinkhorn_iteration.collapses", "count"),
    ("scaling.doubly_stochastic_defect.busy_s", "s"),
    ("oracle.evaluate_batch.calls", "count"),
    ("oracle.evaluate_batch.busy_s", "s"),
    ("oracle.evaluate_batch.rows", "count"),
    ("mixed.mixed_value.calls", "count"),
    ("mixed.mixed_value.busy_s", "s"),
    ("mixed.linprog.calls", "count"),
    ("mixed.linprog.busy_s", "s"),
    ("mixed.newton_saturation_check.calls", "count"),
    ("mixed.newton_saturation_check.busy_s", "s"),
    ("mixed.newton_saturation_check.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("oracle.oracle_from_json.busy_s", "s"),
    ("generators.matrix_tuple_points.busy_s", "s"),
    ("experiments.run_suite.calls", "count"),
    ("experiments.run_suite.self_s", "s"),
    *((f"experiments.{suite}.busy_s", "s") for suite in SWEEP_SUITES),
    ("interlace.obreschkoff_pair_test.busy_s", "s"),
    ("interlace.sampled_pencil_test.busy_s", "s"),
    *((f"{layer}.busy_s", "s") for layer in LAYERS),
    ("generators.setup_busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_COUNTER_NAMES = {
    "scaling.edmonds_rado_check.subsets",
    "scaling.capacity.iterations",
    "scaling.sinkhorn_iteration.iterations",
    "scaling.sinkhorn_iteration.collapses",
    "oracle.evaluate_batch.rows",
}


class Tracer:
    """Records spans in memory; ``install`` and ``uninstall`` swap module attributes."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.counters: defaultdict = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []  # [span, layer, start, child time]
        self._open: Counter = Counter()
        self._layer_open: Counter = Counter()
        self._layer_start: dict[str, float] = {}
        self._patches: list[tuple] = []  # (container, key, original); a container is a module or a dict

    # -- spans ---------------------------------------------------------------
    def _enter(self, span: str, layer: str) -> None:
        now = time.perf_counter()
        self._stack.append([span, layer, now, 0.0])
        self._open[span] += 1
        if self._layer_open[layer] == 0:
            self._layer_start[layer] = now
        self._layer_open[layer] += 1

    def _exit(self) -> None:
        now = time.perf_counter()
        span, layer, start, child = self._stack.pop()
        duration = now - start
        self.calls[span] += 1
        self.self_time[span] += duration - child
        self._open[span] -= 1
        if self._open[span] == 0:  # a span nested in one of the same name is not counted twice
            self.busy[span] += duration
        if self._stack:
            self._stack[-1][3] += duration
        self._layer_open[layer] -= 1
        if self._layer_open[layer] == 0:
            self.layer_busy[layer] += now - self._layer_start[layer]

    def _wrap(self, span: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        layer = span.split(".", 1)[0]

        def traced(*args, **kwargs):
            self._enter(span, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                try:
                    counter(self.counters, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    self.absent.setdefault(f"{span} counter", f"{type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------
    def _patch_everywhere(self, original, wrapper) -> None:
        for name in SCANNED_MODULES:
            module = importlib.import_module(name)
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError as exc:
                self.absent[target.span] = f"cannot import {target.module}: {exc}"
                continue
            original = getattr(module, target.attr, None)
            if not callable(original):
                self.absent[target.span] = f"{target.module}.{target.attr} does not exist"
                continue
            self._patch_everywhere(original, self._wrap(target.span, original, target.counter))
        # Every function the generators module defines, private ones included,
        # so that generators.busy_s covers the whole layer.
        generators = importlib.import_module("hyperpoly.generators")
        for key, value in list(vars(generators).items()):
            if inspect.isfunction(value) and value.__module__ == generators.__name__:
                self._patch_everywhere(value, self._wrap(f"generators.{key}", value, None))
        # run_suite dispatches through this table, not through module attributes.
        suites = getattr(importlib.import_module("hyperpoly.experiments"), "SUITES", None)
        for suite in SWEEP_SUITES:
            if not isinstance(suites, dict) or suite not in suites:
                self.absent[f"experiments.{suite}"] = f"experiments.SUITES has no entry '{suite}'"
                continue
            self._patches.append((suites, suite, suites[suite]))
            suites[suite] = self._wrap(f"experiments.{suite}", suites[suite], None)
        return self

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # -- results -------------------------------------------------------------
    def _absent_reason(self, metric: str) -> Optional[str]:
        span = metric.rsplit(".", 1)[0]
        return self.absent.get(span) or self.absent.get(f"{span} counter")

    def value(self, metric: str) -> float:
        span, stat = metric.rsplit(".", 1)
        if metric in _COUNTER_NAMES:
            return float(self.counters[metric])
        if stat == "calls":
            return float(self.calls[span])
        if stat == "self_s":
            return self.self_time[span]
        if stat == "busy_s" and "." not in span:
            return self.layer_busy[span]
        if stat == "busy_s":
            return self.busy[span]
        raise KeyError(f"no rule for per-layer metric '{metric}'")

    def metrics(self, extra: dict[str, float], time_scale: float = 1.0) -> tuple[dict, dict]:
        """Every PER_LAYER metric, and the reason each absent one reads 0.

        Span times are multiplied by ``time_scale`` (the run's speed factor);
        values in ``extra`` are taken as they are.
        """
        out, absent = {}, {}
        for name, unit in PER_LAYER:
            if name in extra:
                value = extra[name]
            else:
                value = self.value(name) * (time_scale if unit == "s" else 1.0)
                reason = self._absent_reason(name)
                if reason is not None:
                    absent[name] = reason
            out[name] = {"value": value, "unit": unit}
        return out, absent
