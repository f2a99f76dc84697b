"""The benchmark's own tests: tiny runs of every workload, the
correctness gate, and the tracer's self-time arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

from perfbench import engine_wl
from perfbench.gate import snapshot_mismatches
from perfbench.layers import OPERATOR_ENTRIES, Instrumentation
from perfbench.metrics import END_TO_END, PER_LAYER, percentile, tail_quantile
from perfbench.run import WORKLOADS, result_line
from perfbench.tracer import TRACED, Tracer, roots, self_times

ROOT = Path(__file__).resolve().parents[2]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.fixture(autouse=True)
def _one_pass(monkeypatch):
    monkeypatch.setattr(engine_wl, "MIN_PASSES", 1)


def _tiny_engine_run(name: str, seed: int = 3) -> engine_wl.EngineRun:
    workload = dataclasses.replace(engine_wl.WORKLOADS[name], n_edges=400)
    return engine_wl.EngineRun(workload, seed, seconds=0.0)


def _check_line(outcome: dict, trace: bool) -> dict:
    line = result_line(outcome, trace)
    spec = PER_LAYER if trace else END_TO_END
    assert line["correct"], outcome["detail"]["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == spec
    return line


@pytest.mark.parametrize("name", sorted(engine_wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_engine_run_reports_every_metric(name, trace):
    line = _check_line(_tiny_engine_run(name).run(trace), trace)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values()), metrics
    else:
        assert metrics["physical.SPathOp.self_share"] > 0
        assert metrics["trace.spans"] > 0


def test_gate_fails_on_a_tampered_answer():
    run = _tiny_engine_run("so-longwin")
    engine = run.set_up()
    engine.push_many(run.edges)
    t = engine.watermark
    plans = {name: engine.handle(name).plan for name in run.texts}
    observed = {name: engine.handle(name).valid_at(t) for name in run.texts}
    assert snapshot_mismatches(plans, run.edges, t, observed) == []
    observed["Q1"] = set(observed["Q1"]) | {(-1, -2, "Answer")}
    problems = snapshot_mismatches(plans, run.edges, t, observed)
    assert len(problems) == 1 and problems[0].startswith("Q1")


def test_gate_failure_fails_the_run(monkeypatch):
    run = _tiny_engine_run("so-churn")
    real = engine_wl.EngineRun.read_all

    def tampered(self, engine, t, result):
        observed = real(self, engine, t, result)
        observed["Q2"] = set()
        return observed

    monkeypatch.setattr(engine_wl.EngineRun, "read_all", tampered)
    outcome = run.run(trace=False)
    assert not outcome["correct"] and outcome["failed"] > 0
    assert any("Q2" in p for p in outcome["detail"]["problems"])


def test_self_time_of_synthetic_spans():
    # root [0, 10) holds a [1, 4) (which holds b [2, 3)) and c [5, 9)
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert list(self_times(parent, start, end)) == [3.0, 2.0, 1.0, 4.0]
    assert list(roots(parent)) == [0, 0, 0, 0]


def test_self_time_of_a_traced_nested_call():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap(inner, "layer.inner")
    traced_outer = tracer.wrap(outer, "layer.outer")
    with tracer.span("bench:root"):
        traced_outer()
    own = self_times(tracer.parent, tracer.start, tracer.end)
    names = [tracer.names[i] for i in tracer.name_of]
    assert names == ["bench:root", "layer.outer", "layer.inner", "layer.inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    total = tracer.end[0] - tracer.start[0]
    assert sum(own) == pytest.approx(total)
    inner_total = sum(tracer.end[i] - tracer.start[i] for i in (2, 3))
    outer_total = tracer.end[1] - tracer.start[1]
    assert own[1] == pytest.approx(outer_total - inner_total)
    assert own[1] >= 0.009 and own[2] >= 0.009


def test_same_owner_calls_make_one_span():
    tracer = Tracer()
    owner = object()

    def per_event():
        pass

    traced_event = tracer.wrap(per_event, "physical.Op:on_event:0", owner=owner)

    def batch():
        for _ in range(3):
            traced_event()

    tracer.wrap(batch, "physical.Op:on_batch:0", owner=owner)()
    traced_event()
    assert len(tracer) == 2


def _traced_pass(run: engine_wl.EngineRun, instrumentation: Instrumentation) -> None:
    instrumentation.install()
    try:
        run.tracer, run.instrumentation = instrumentation.tracer, instrumentation
        run.run_pass("t")
    finally:
        instrumentation.uninstall()


def _leave_unwrapped(monkeypatch, which) -> None:
    """Make the instrumentation leave the entry points of the operators
    ``which`` selects unwrapped (as a tracer that missed them would)."""
    wrap = Instrumentation.wrap_operators

    def wrap_then_unwrap(self):
        wrap(self)
        for op in self.operators:
            if which(op):
                for attr in OPERATOR_ENTRIES:
                    fn = vars(op).get(attr)
                    if getattr(fn, TRACED, False):
                        setattr(op, attr, fn.__wrapped__)

    monkeypatch.setattr(Instrumentation, "wrap_operators", wrap_then_unwrap)


def test_operator_spans_follow_instance_rebinding(monkeypatch):
    """Under the arrays layout the PATH and join operators rebind their
    entry points per instance; wrapping only class attributes misses
    them, and the run must notice."""
    instrumentation = Instrumentation(Tracer())
    _traced_pass(_tiny_engine_run("so-longwin"), instrumentation)
    assert instrumentation.advanced
    assert instrumentation.missing_spans() == []

    # The same pass with every operator entry point left unwrapped.
    _leave_unwrapped(monkeypatch, lambda op: True)
    instrumentation = Instrumentation(Tracer())
    _traced_pass(_tiny_engine_run("so-longwin"), instrumentation)
    missing = instrumentation.missing_spans()
    for op in ("WScanOp", "PatternOp", "SPathOp", "UnionOp", "SinkOp"):
        for entry in ("on_event", "on_advance"):
            if op == "WScanOp" and entry == "on_event":
                entry = "on_edge"  # a source's single subscriber
            assert any(m.startswith(op) and f".{entry} " in m for m in missing), (
                op, entry, missing,
            )


def test_traced_run_fails_when_a_stateless_operator_is_unwrapped(monkeypatch):
    """WScanOp holds no state, so only the data flow shows it received
    work; leaving its entry points unwrapped must fail the run."""
    _leave_unwrapped(monkeypatch, lambda op: type(op).__name__ == "WScanOp")
    outcome = _tiny_engine_run("so-longwin").run(trace=True)
    assert not outcome["correct"] and outcome["failed"] > 0
    problems = [p for p in outcome["detail"]["problems"] if "no spans" in p]
    assert problems and "WScanOp" in problems[0]
    assert "SPathOp" not in problems[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_quantile(1000) == 99.0
    assert tail_quantile(500) == pytest.approx(98.0)
    values = list(range(1, 501))
    assert percentile(values, tail_quantile(500)) == 490
    assert sum(v > 490 for v in values) == 10
