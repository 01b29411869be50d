"""Tests of the benchmark's tracing: self-time arithmetic and wrapper restore.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: children cover [1, 6]
        Span("a.child", 2.0, 3.0, parent=1),
        Span("c", 8.0, 12.0, parent=0),  # only [8, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    contained = [Span("root", 0.0, 6.0), Span("a", 1.0, 5.0, parent=0),
                 Span("b", 2.0, 3.0, parent=0)]
    assert self_times(contained) == pytest.approx([2.0, 4.0, 1.0])


def test_layer_metrics_per_op_and_solver_ratios():
    spans = [
        Span("kliep.fit", 0.0, 10.0, op=0),
        Span("optimize.gradient_descent", 1.0, 9.0, parent=0, op=0,
             info={"iterations": 2, "bad": 1, "grad_norm": 3e-8}),
        Span("optimize.objective", 2.0, 3.0, parent=1, op=0),
        Span("optimize.objective", 4.0, 5.0, parent=1, op=0),
        Span("optimize.objective", 6.0, 7.0, parent=1, op=0),
        Span("optimize.objective", 7.0, 8.0, parent=1, op=0),
        Span("kliep.fit", 10.0, 12.0, op=1),
        Span("optimize.gradient_descent", 10.0, 12.0, parent=6, op=1,
             info={"iterations": 1, "bad": 0, "grad_norm": 1e-9}),
        Span("optimize.objective", 10.0, 11.0, parent=7, op=1),
        Span("optimize.objective", 11.0, 12.0, parent=7, op=1),
    ]
    m = layer_metrics(spans, traced_ms=[5.0, 7.0], untraced_ms=[4.0, 6.0, 8.0])
    assert m["kliep.fit.calls"] == 1.0
    assert m["kliep.fit.self_s"] == pytest.approx(1.0)  # (2 + 0) / 2 ops
    assert m["kliep.fit.total_s"] == pytest.approx(6.0)
    assert m["optimize.gradient_descent.self_s"] == pytest.approx(2.0)
    assert m["optimize.objective.evals"] == 3.0
    assert m["optimize.iterations"] == 1.5
    assert m["optimize.accept_ratio"] == pytest.approx(0.5)
    assert m["optimize.evals_per_fit_p50"] == 3.0
    assert m["optimize.nonconverged"] == 0.5
    assert m["optimize.final_grad_norm_max"] == 3e-8
    assert m["trace.overhead_ms"] == pytest.approx(0.0)
    assert m["scenarios.log_pdf.calls"] == 0.0


def _attributes(tracer):
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracer.targets()}


def test_every_wrapper_is_restored_even_after_an_error():
    tracer = Tracer()
    before = _attributes(tracer)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _attributes(tracer)
            assert all(getattr(fn, "traced", False) for fn in during.values())
            assert sorted(tracer.leftover_wrappers()) == sorted(
                f"{getattr(o, '__name__', o)}.{a}" for o, a in before
            )
            raise RuntimeError("op failed")
    after = _attributes(tracer)
    assert all(after[key] is fn for key, fn in before.items())
    assert tracer.leftover_wrappers() == []


def test_traced_fit_nests_solver_and_objective_spans():
    from mnar_dre import kliep
    from mnar_dre.model import Dataset, FeatureMap

    rng = np.random.default_rng(0)
    d1 = Dataset(rng.normal(0.5, 1.0, (200, 2)), 1)
    d0 = Dataset(rng.normal(0.0, 1.0, (200, 2)), 0)
    tracer = Tracer()
    with tracer.installed():
        kliep.fit(d1, d0, FeatureMap.identity(2))
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["kliep.fit", "optimize.gradient_descent"]
    assert names.count("weighting.point_importance_weights") == 0  # fully observed
    objective = [s for s in tracer.spans if s.name == "optimize.objective"]
    assert objective and all(s.parent == 1 for s in objective)
    assert tracer.spans[1].info["iterations"] >= 1


def test_benchmark_json_lists_every_per_layer_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_specs()
