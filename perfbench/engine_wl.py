"""The in-process engine workloads: ``so-longwin`` and ``so-churn``.

Each drives one ``StreamingGraphEngine(EngineConfig())`` with all seven
Table 1 queries registered, through the public session API only, in a
closed loop with one client.  A run repeats *passes* over the seeded
stream, at least :data:`MIN_PASSES` and for at least ``--seconds``;
each pass builds a fresh engine, ingests the stream slide by slide and
checkpoints and restores the engine.  Every pass does the same work on
the same input, and host interference only ever adds time, so a slide's
latency is the fastest of its timings across the passes (likewise
checkpoint and restore): interference has to hit a slide in every pass
to reach the percentiles or the throughput.  The tail over slides still
holds the slides that do more work, such as expiry repair, since those
are slow in every pass.  The correctness gate runs on the last pass,
outside the timed phase.

A traced run makes two passes: an untraced one (the overhead baseline)
and one under :class:`~perfbench.layers.Instrumentation`.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field

from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR, SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.ql.pipeline import reset_counters
from repro.ql.query import Query

from perfbench.common import (
    OUT,
    Ledger,
    checkpoint_footprint,
    environment,
    peak_rss_mb,
    fresh_dir,
)
from perfbench.gate import snapshot_mismatches
from perfbench.layers import INGEST, READ, SETUP, Instrumentation, summarize
from perfbench.metrics import END_TO_END, PER_LAYER, median, timing_summary
from perfbench.streams import churn_schedule, make_stream, query_texts, split_slides
from perfbench.tracer import Tracer, maybe_span

#: Untraced runs make at least this many passes; each slide's fastest
#: timing across them is its latency.
MIN_PASSES = 5
#: Set-up samples taken before each pass (each pass's own set-up is one more).
SETUPS_PER_PASS = 2
#: Traced passes sample engine state every this many slides.
STATE_EVERY = 8


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    dataset: str
    n_edges: int
    n_vertices: int
    #: window and slide in ticks (60 ticks = 1 hour)
    window_ticks: int
    slide_ticks: int
    #: drive edge by edge with ``push`` (plus ``delete`` and reads)
    #: instead of one ``push_many`` per slide
    per_edge: bool = False
    delete_share: float = 0.0
    #: in-stream ``valid_at`` read rounds per pass (per-edge mode)
    read_rounds: int = 0

    @property
    def window(self) -> SlidingWindow:
        return SlidingWindow(self.window_ticks, self.slide_ticks)


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("so-longwin", "so", 10_000, 4_000, 48 * HOUR, HOUR // 2),
        EngineWorkload(
            "so-churn", "so", 18_000, 4_000, 48 * HOUR, HOUR // 2,
            per_edge=True, delete_share=0.1, read_rounds=6,
        ),
    )
}


@dataclass
class PassResult:
    edges: int = 0
    slide_s: list[float] = field(default_factory=list)
    #: one checkpoint and one restore per pass
    checkpoint_s: float = 0.0
    restore_s: float = 0.0
    read_ms: list[float] = field(default_factory=list)
    #: (t, edges pushed, deletions issued, {query: valid_at(t)})
    snapshots: list[tuple] = field(default_factory=list)
    checkpoint_bytes: int = 0
    checkpoint_blobs: int = 0
    traced: bool = False
    engine: StreamingGraphEngine | None = None

    @property
    def ingest_s(self) -> float:
        return sum(self.slide_s)


class EngineRun:
    """One run of one engine workload."""

    def __init__(self, workload: EngineWorkload, seed: int, seconds: float):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.edges = make_stream(
            workload.dataset, workload.n_edges, workload.n_vertices, seed
        )
        self.slides = split_slides(self.edges, workload.slide_ticks)
        self.schedule = (
            churn_schedule(self.slides, workload.window, workload.delete_share, seed)
            if workload.per_edge
            else None
        )
        self.texts = query_texts(workload.dataset)
        self.ledger = Ledger()
        self.config = EngineConfig()
        self.setups: list[float] = []
        self.tracer: Tracer | None = None
        self.instrumentation: Instrumentation | None = None
        #: traced-pass observations for the per-layer metrics
        self.state_tuples = 0
        self.state_bytes = 0

    # -- building blocks -------------------------------------------------
    def set_up(self):
        """A fresh engine with Q1-Q7 registered, timed from a cold
        frontend: the plan memo is cleared, so every set-up parses,
        translates and compiles.  Garbage left by earlier work is
        collected first, so no collection lands inside the timing."""
        reset_counters()
        gc.collect()
        with maybe_span(self.tracer, SETUP):
            t0 = time.perf_counter()
            engine = StreamingGraphEngine(self.config)
            for name, text in self.texts.items():
                engine.register(Query.datalog(text, self.wl.window), name=name)
            elapsed = time.perf_counter() - t0
        self.setups.append(elapsed)
        return engine

    def checkpoint_restore(self, engine, result: PassResult, tag: str):
        """``engine.checkpoint`` into a fresh directory store, close,
        ``StreamingGraphEngine.restore``; both timed, each after a garbage
        collection (as for set-up)."""
        path = fresh_dir(f"ckpt-{self.wl.name}-{tag}")
        try:
            store = DirectoryCheckpointStore(str(path))
            gc.collect()
            t0 = time.perf_counter()
            engine.checkpoint(store)
            result.checkpoint_s = time.perf_counter() - t0
            engine.close()
            result.checkpoint_bytes, result.checkpoint_blobs = checkpoint_footprint(path)
            gc.collect()
            t0 = time.perf_counter()
            restored = StreamingGraphEngine.restore(store)
            result.restore_s = time.perf_counter() - t0
            self.ledger.ok(2)
            return restored
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def read_all(self, engine, t: int, result: PassResult) -> dict[str, set]:
        observed = {}
        for name in self.texts:
            handle = engine.handle(name)
            with maybe_span(self.tracer, READ):
                t0 = time.perf_counter()
                observed[name] = handle.valid_at(t)
                result.read_ms.append((time.perf_counter() - t0) * 1e3)
            self.ledger.ok()
        return observed

    def sample_state(self, engine) -> None:
        self.state_tuples = max(self.state_tuples, engine.state_size())
        self.state_bytes = max(
            self.state_bytes,
            sum(b["bytes"] for b in engine.state_breakdown().values()),
        )

    # -- passes ----------------------------------------------------------
    def run_pass(self, tag: str) -> PassResult:
        engine = self.set_up()
        result = PassResult(traced=self.tracer is not None)
        self.ledger.ok()
        if self.wl.per_edge:
            engine = self._ingest_per_edge(engine, result, tag)
        else:
            self._ingest_slides(engine, result)
            engine = self.checkpoint_restore(engine, result, tag)
        result.engine = engine
        return result

    def _ingest_slides(self, engine, result: PassResult) -> None:
        tracer = self.tracer
        for k, slide in enumerate(self.slides):
            with maybe_span(tracer, INGEST):
                t0 = time.perf_counter()
                engine.push_many(slide)
                elapsed = time.perf_counter() - t0
            result.slide_s.append(elapsed)
            result.edges += len(slide)
            if tracer is not None and k % STATE_EVERY == 0:
                self.sample_state(engine)
        self.ledger.ok(len(self.slides))
        if tracer is not None:
            self.sample_state(engine)

    def _ingest_per_edge(self, engine, result: PassResult, tag: str):
        tracer = self.tracer
        edges, schedule = self.edges, self.schedule
        slide_ticks = self.wl.slide_ticks
        n = len(self.slides)
        checkpoint_at = n // 2
        rounds = self.wl.read_rounds
        read_at = {min(n - 1, (i + 1) * n // rounds) for i in range(rounds)} | {n - 1}
        pushed = deleted = 0
        carried = 0.0
        for k, slide in enumerate(self.slides):
            victims = schedule[k]
            with maybe_span(tracer, INGEST):
                t0 = time.perf_counter()
                for edge in slide:
                    engine.push(edge)
                for index in victims:
                    engine.delete(edges[index])
                elapsed = time.perf_counter() - t0 + carried
            carried = 0.0
            result.slide_s.append(elapsed)
            result.edges += len(slide)
            pushed += len(slide)
            deleted += len(victims)
            self.ledger.ok(len(slide) + len(victims))
            if tracer is not None and k % STATE_EVERY == 0:
                self.sample_state(engine)
            if k == checkpoint_at:
                engine = self.checkpoint_restore(engine, result, tag)
            if k in read_at:
                # A deletion rewrites PATH results from the instant it is
                # processed on, not before (Section 6.2.5), so the read
                # instant is the next slide boundary: after every edge and
                # deletion so far.  Advancing there early is the window
                # movement the next slide's first push would make; its
                # time is counted in that slide.
                t = (slide[-1].t // slide_ticks + 1) * slide_ticks
                with maybe_span(tracer, INGEST):
                    t0 = time.perf_counter()
                    engine.advance_to(t)
                    carried = time.perf_counter() - t0
                self.ledger.ok()
                result.snapshots.append(
                    (t, pushed, deleted, self.read_all(engine, t, result))
                )
        if tracer is not None:
            self.sample_state(engine)
        return engine

    # -- gate ------------------------------------------------------------
    def gate(self, result: PassResult) -> None:
        engine = result.engine
        plans = {name: engine.handle(name).plan for name in self.texts}
        if self.wl.per_edge:
            order = [i for victims in self.schedule for i in victims]
            checks = []
            for t, pushed, deleted, observed in result.snapshots:
                gone = set(order[:deleted])
                live = [e for i, e in enumerate(self.edges[:pushed]) if i not in gone]
                checks.append((t, live, observed))
        else:
            slide_ticks = self.wl.slide_ticks
            middle = self.slides[len(self.slides) // 2][0].t // slide_ticks * slide_ticks
            checks = [
                (t, self.edges, self.read_all(engine, t, result))
                for t in (middle, engine.watermark)
            ]
        for t, live, observed in checks:
            problems = snapshot_mismatches(plans, live, t, observed)
            self.ledger.ok(len(plans) - len(problems))
            for problem in problems:
                self.ledger.fail(f"reference mismatch: {problem}")

    # -- the run ---------------------------------------------------------
    def _more_passes(self, passes: list[PassResult], start: float, trace: bool) -> bool:
        if not passes:
            return True
        elapsed = time.perf_counter() - start
        if trace:
            # one untraced pass (the overhead baseline), then one traced
            return not passes[-1].traced
        return len(passes) < MIN_PASSES or elapsed < self.seconds

    def run(self, trace: bool) -> dict:
        probe = self.set_up()
        operator_count = probe.operator_count()
        sharing_savings = probe.sharing_savings()
        probe.close()
        self.setups.clear()

        passes: list[PassResult] = []
        start = time.perf_counter()
        try:
            while self._more_passes(passes, start, trace):
                if trace and passes and self.tracer is None:
                    self.tracer = Tracer()
                    self.instrumentation = Instrumentation(self.tracer)
                    self.instrumentation.install()
                if passes:
                    passes[-1].engine.close()
                    passes[-1].engine = None
                for _ in range(SETUPS_PER_PASS):
                    self.set_up().close()
                passes.append(self.run_pass(str(len(passes))))
        except Exception:
            self.ledger.exception("ingest pass")
        finally:
            if self.instrumentation is not None:
                self.instrumentation.uninstall()
        rss = peak_rss_mb()
        last = passes[-1] if passes else None
        if last is not None and last.engine is not None:
            try:
                self.gate(last)
            except Exception:
                self.ledger.exception("correctness gate")

        detail = {
            "env": environment(
                self.config,
                workload=self.wl.name,
                seed=self.seed,
                seconds=self.seconds,
                trace=trace,
                sizes={
                    "edges": len(self.edges),
                    "slides": len(self.slides),
                    "vertices": self.wl.n_vertices,
                    "window_ticks": self.wl.window_ticks,
                    "slide_ticks": self.wl.slide_ticks,
                    "deletions": sum(map(len, self.schedule or [])),
                },
            ),
            "passes": len(passes),
        }
        if not passes:
            self.ledger.fail("no pass completed")
            metrics = dict.fromkeys(PER_LAYER if trace else END_TO_END, 0.0)
        elif trace:
            metrics = self._per_layer(passes, operator_count, sharing_savings, detail)
        else:
            metrics = self._end_to_end(passes, rss, detail)
        if last is not None and last.engine is not None:
            last.engine.close()
        detail["problems"] = self.ledger.problems
        return {
            "correct": self.ledger.failed == 0,
            "attempted": max(1, self.ledger.attempted),
            "failed": self.ledger.failed,
            "metrics": metrics,
            "detail": detail,
        }

    def _end_to_end(self, passes, rss, detail) -> dict:
        # each slide's latency: its fastest timing across the passes
        per_slide = [min(times) for times in zip(*(p.slide_s for p in passes))]
        summary = timing_summary([s * 1e3 for s in per_slide])
        detail["slide_ms"] = summary
        detail["setup_samples"] = len(self.setups)
        return {
            "throughput_eps": passes[0].edges / sum(per_slide),
            "slide_p50_ms": summary["p50"],
            "slide_p99_ms": summary["tail"],
            "setup_s": median(self.setups),
            "peak_rss_mb": rss,
            "checkpoint_s": min(p.checkpoint_s for p in passes),
            "restore_s": min(p.restore_s for p in passes),
        }

    def _per_layer(self, passes, operator_count, sharing_savings, detail) -> dict:
        traced = [p for p in passes if p.traced]
        plain = [p for p in passes if not p.traced]
        out = dict.fromkeys(PER_LAYER, 0.0)
        if not traced:
            self.ledger.fail("trace: no traced pass completed")
            return out
        missing = self.instrumentation.missing_spans()
        if missing:
            self.ledger.fail(f"trace: operator entry points with work but no spans: {missing}")
        out.update(summarize(self.tracer, sum(p.edges for p in traced)))
        out["engine.operator_count"] = float(operator_count)
        out["engine.sharing_savings"] = float(sharing_savings)
        if plain:
            untraced = median([p.ingest_s for p in plain])
            out["trace.overhead_share"] = median([p.ingest_s for p in traced]) / untraced - 1
        reads = [r for p in traced for r in p.read_ms]
        if reads:
            out["results.read_p50_ms"] = median(reads)
            out["results.read_max_ms"] = max(reads)
        last = traced[-1]
        stats = [last.engine.handle(name).stats() for name in self.texts]
        events = sum(s.events for s in stats)
        out["results.events_per_result"] = events / max(1, sum(s.results for s in stats))
        out["results.retraction_share"] = sum(s.retractions for s in stats) / max(1, events)
        out["state.tuples_peak"] = float(self.state_tuples)
        out["state.bytes_peak"] = float(self.state_bytes)
        out["checkpoint.bytes"] = float(last.checkpoint_bytes)
        out["checkpoint.blobs"] = float(last.checkpoint_blobs)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{self.wl.name}.spans.pickle"
        self.tracer.dump(path)
        detail["trace_file"] = str(path)
        return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return EngineRun(WORKLOADS[name], seed, seconds).run(trace)
