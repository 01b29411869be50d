"""Span tracing of the ``mnar_dre`` layers, installed from outside the package.

A :class:`Tracer` replaces public functions of each layer with wrappers at the
places where callers look them up (module attributes, names imported into
``experiments`` and ``cli``, and class attributes for methods).  Each wrapper
records a span -- name, start, end, parent span, op id and a few counters --
in memory.  :func:`self_times` turns the spans into per-span self time (the
span's duration minus the part of it covered by child spans) and
:func:`layer_metrics` aggregates them into the per-layer metrics, per traced op.

Nothing under ``src/`` changes; :meth:`Tracer.installed` restores every
original attribute when it exits.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

CLI_COMMANDS = ("experiment", "learn-phi", "fit", "np-calibrate", "classify")
TEXT_FORMATS = (
    "model_to_text",
    "model_from_text",
    "classifier_to_text",
    "classifier_from_text",
    "missingness_to_text",
    "missingness_from_text",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    info: dict | None = None  # counters: rows, bytes, bad, iterations, grad_norm


def _rows_of(arg) -> int:
    return int(np.shape(arg)[0]) if np.ndim(arg) else 1


def _note(**fields):
    """Annotation callback that sets counters computed from (args, result)."""

    def annotate(span, args, result):
        span.info = {key: fn(args, result) for key, fn in fields.items()}

    return annotate


class Tracer:
    """Collects spans from wrappers installed around the package's layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> Span:
        span = Span(
            name,
            time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            op=self.op,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, annotate=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        wrapper.traced = True
        return wrapper

    def _wrap_gradient_descent(self, fn):
        # Each objective evaluation becomes a child span of the solver span,
        # so evaluations are counted where the solver makes them.
        @functools.wraps(fn)
        def wrapper(value_and_grad, theta0, **kwargs):
            objective = self.wrap("optimize.objective", value_and_grad)
            span = self._enter("optimize.gradient_descent")
            try:
                result = fn(objective, theta0, **kwargs)
            finally:
                self._exit(span)
            span.info = {
                "iterations": result.iterations,
                "bad": int(not result.converged),
                "grad_norm": result.grad_norm,
            }
            return result

        wrapper.traced = True
        return wrapper

    # -- installation ------------------------------------------------------

    def targets(self):
        """(owner, attribute, wrapper factory) for every traced lookup site."""
        from mnar_dre import (
            cli,
            dataio,
            experiments,
            kliep,
            missingness,
            naive_bayes,
            np_classify,
        )
        from mnar_dre.model import LogLinearRatioModel
        from mnar_dre.scenarios import GaussianMixture

        def simple(name, annotate=None):
            return lambda fn: self.wrap(name, fn, annotate)

        rows_arg1 = _note(rows=lambda a, r: _rows_of(a[1]))
        rows_arg0 = _note(rows=lambda a, r: _rows_of(a[0]))
        out = [
            (GaussianMixture, "log_pdf", simple("scenarios.log_pdf", rows_arg1)),
            (GaussianMixture, "sample",
             simple("scenarios.sample", _note(rows=lambda a, r: int(a[1])))),
            (LogLinearRatioModel, "log_ratio", simple("model.log_ratio", rows_arg1)),
            (naive_bayes.NaiveBayesRatioModel, "log_ratio",
             simple("naive_bayes.log_ratio", rows_arg1)),
            (kliep, "gradient_descent", self._wrap_gradient_descent),
            (kliep, "fit",
             simple("kliep.fit", _note(bad=lambda a, r: int(not r.converged)))),
            (kliep, "normalizing_constant", simple("kliep.normalizing_constant")),
            (naive_bayes, "fit_naive_bayes", simple("naive_bayes.fit_naive_bayes")),
            (experiments, "generate", simple("scenarios.generate")),
            (experiments, "population_theta", simple("scenarios.population_theta")),
            (experiments, "run_power_replications",
             simple("experiments.run_power_replications")),
            (experiments, "run_msd_replications",
             simple("experiments.run_msd_replications")),
            (missingness, "simulate_query", simple("missingness.simulate_query")),
            (missingness, "fit_adjusted_logistic",
             simple("missingness.fit_adjusted_logistic",
                    _note(bad=lambda a, r: int(r.separated)))),
            (np_classify, "threshold_binomial", simple("np_classify.threshold_binomial")),
            (np_classify, "threshold_missing", simple("np_classify.threshold_missing")),
            (dataio, "read_dataset_csv",
             simple("dataio.read_dataset_csv", _note(
                 rows=lambda a, r: r[0].n + r[1].n,
                 bytes=lambda a, r: os.path.getsize(a[0])))),
            (dataio, "write_table_csv",
             simple("dataio.write_table_csv", _note(
                 rows=lambda a, r: len(a[1]),
                 bytes=lambda a, r: os.path.getsize(a[0])))),
            (cli, "main", simple(lambda a: f"cli.main.{a[0][0]}")),
        ]
        # Functions that callers reach through more than one name.
        shared = [
            ("dataio.text_formats", None, [(dataio, name) for name in TEXT_FORMATS]),
            ("np_classify.build_np_classifier",
             _note(bad=lambda a, r: int(r.provenance.degenerate)),
             [(np_classify, "build_np_classifier"), (experiments, "build_np_classifier"),
              (cli, "build_np_classifier")]),
            ("np_classify.classify", rows_arg1,
             [(np_classify, "classify"), (experiments, "classify"),
              (cli, "np_classify_points")]),
            ("weighting.point_importance_weights", rows_arg0,
             [(kliep, "point_importance_weights"),
              (np_classify, "point_importance_weights")]),
            ("missingness.learn_missingness", None,
             [(missingness, "learn_missingness"), (experiments, "learn_missingness"),
              (cli, "learn_missingness")]),
        ]
        for name, annotate, sites in shared:
            out += [(owner, attr, simple(name, annotate)) for owner, attr in sites]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        try:
            for owner, attr, factory in self.targets():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._stack.clear()

    def leftover_wrappers(self) -> list[str]:
        """Traced attributes that are not the package's own function."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in self.targets()
            if getattr(owner.__dict__[attr], "traced", False)
        ]

    def write_spans(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "op", "parent", "name", "start_s", "end_s", "self_s"])
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                writer.writerow([i, s.op, s.parent, s.name, repr(s.start), repr(s.end),
                                 repr(own)])


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        # Sweep the children by start; each adds the part past ``reach``.
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# (metric, unit, better) for every per-layer metric, in report order.  Counts
# and times are per traced op; ``calls`` counts spans of that name.
_PER_OP = [
    ("scenarios.log_pdf", ("calls", "rows", "self_s")),
    ("scenarios.sample", ("calls", "rows", "self_s")),
    ("scenarios.generate", ("self_s",)),
    ("scenarios.population_theta", ("calls", "self_s")),
    ("optimize.gradient_descent", ("calls", "self_s")),
    ("optimize.objective", ("evals", "self_s")),
    ("kliep.fit", ("calls", "total_s", "self_s", "nonconverged")),
    ("kliep.normalizing_constant", ("calls", "self_s")),
    ("weighting.point_importance_weights", ("calls", "rows", "self_s")),
    ("np_classify.build_np_classifier", ("calls", "self_s", "degenerate")),
    ("np_classify.threshold_binomial", ("calls", "self_s")),
    ("np_classify.threshold_missing", ("calls", "self_s")),
    ("np_classify.classify", ("calls", "rows", "self_s")),
    ("model.log_ratio", ("rows", "self_s")),
    ("naive_bayes.log_ratio", ("rows", "self_s")),
    ("naive_bayes.fit_naive_bayes", ("calls", "total_s", "self_s")),
    ("missingness.learn_missingness", ("calls", "total_s")),
    ("missingness.fit_adjusted_logistic", ("calls", "self_s", "separated")),
    ("missingness.simulate_query", ("self_s",)),
    ("dataio.read_dataset_csv", ("calls", "rows", "bytes", "self_s")),
    ("dataio.write_table_csv", ("calls", "rows", "bytes", "self_s")),
    ("dataio.text_formats", ("self_s",)),
    ("experiments.run_power_replications", ("self_s",)),
    ("experiments.run_msd_replications", ("self_s",)),
] + [(f"cli.main.{cmd}", ("calls", "self_s")) for cmd in CLI_COMMANDS]

_FIELD_UNITS = {
    "calls": "calls/op",
    "evals": "evals/op",
    "rows": "rows/op",
    "bytes": "B/op",
    "self_s": "s/op",
    "total_s": "s/op",
    "nonconverged": "fits/op",
    "degenerate": "1/op",
    "separated": "fits/op",
}

_SOLVER = [
    ("optimize.iterations", "iters/op", "lower"),
    ("optimize.accept_ratio", "ratio", "higher"),
    ("optimize.evals_per_fit_p50", "evals", "lower"),
    ("optimize.nonconverged", "fits/op", "lower"),
    ("optimize.final_grad_norm_max", "norm", "lower"),
]

_OVERHEAD = [
    ("trace.ops", "ops", "higher"),
    ("trace.op_ms_p50_traced", "ms", "lower"),
    ("trace.op_ms_p50_untraced", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = [
        (f"{layer}.{field}", _FIELD_UNITS[field], "lower")
        for layer, fields in _PER_OP
        for field in fields
    ]
    return specs + _SOLVER + _OVERHEAD


def layer_metrics(
    spans: list[Span], traced_ms: list[float], untraced_ms: list[float]
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``len(traced_ms)`` traced ops."""
    n_ops = len(traced_ms)
    if n_ops == 0:
        raise ValueError("no traced ops")
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    evals_per_fit: dict[int, int] = defaultdict(int)
    for s, own in zip(spans, selfs):
        a = agg[s.name]
        a["calls"] += 1
        a["self_s"] += own
        a["total_s"] += s.end - s.start
        for key, value in (s.info or {}).items():
            a[key] += value
        if s.name == "optimize.objective":
            evals_per_fit[s.parent] += 1
        elif s.name == "optimize.gradient_descent":
            a["grad_norm_max"] = max(a["grad_norm_max"], s.info["grad_norm"])
    alias = {"evals": "calls", "nonconverged": "bad", "degenerate": "bad",
             "separated": "bad"}
    out = {}
    for layer, fields in _PER_OP:
        for field in fields:
            out[f"{layer}.{field}"] = agg[layer][alias.get(field, field)] / n_ops
    gd = agg["optimize.gradient_descent"]
    evals = agg["optimize.objective"]["calls"]
    out["optimize.iterations"] = gd["iterations"] / n_ops
    out["optimize.accept_ratio"] = gd["iterations"] / evals if evals else 0.0
    out["optimize.evals_per_fit_p50"] = (
        float(statistics.median(evals_per_fit.values())) if evals_per_fit else 0.0
    )
    out["optimize.nonconverged"] = gd["bad"] / n_ops
    out["optimize.final_grad_norm_max"] = gd["grad_norm_max"]
    traced = statistics.median(traced_ms)
    untraced = statistics.median(untraced_ms) if untraced_ms else float("nan")
    out["trace.ops"] = float(n_ops)
    out["trace.op_ms_p50_traced"] = traced
    out["trace.op_ms_p50_untraced"] = untraced
    out["trace.overhead_ms"] = traced - untraced
    return out
