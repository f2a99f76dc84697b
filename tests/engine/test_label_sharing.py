"""Label-agnostic operator sharing.

Sub-plans that differ only in output labels no consumer observes
compile to one operator; a relabel stage (a single-input labelled
UNION) re-applies the label where a sink, a tap, an unlabelled UNION or
a label-reading FILTER observes it.  On SO, Q1's ``a2q+`` is Q6/Q7's
``AP`` closure, Q6's pattern is Q7's ``RL`` and Q2's ``a . TC_B``
pattern is Q3's ``AB`` branch.

Held here: the sharing counters for Q1-Q7 on one engine, relabel
semantics for label observers, unregistering the owner of a shared
operator, live registration through a relabel stage (splice + donor
backfill), checkpoints taken after that owner left, taps on labels
only an unobserving consumer requested, cache eviction, and sharded
parity over one multi-query engine.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algebra.operators import Filter, Path, Predicate, Relabel, Union, WScan
from repro.bench.experiments import Scale, _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR, SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.physical.planner import fuse_relabels, relabel_input
from repro.physical.spath import SPathOp
from repro.physical.union import UnionOp
from repro.workloads import QUERIES, labels_for

ALL = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")
SCALE = Scale(n_edges=300, n_vertices=50, window=6 * HOUR, slide=HOUR)


@pytest.fixture(scope="module")
def streams():
    return {ds: _stream(ds, SCALE) for ds in ("so", "snb")}


def _query(name, dataset="so"):
    return QUERIES[name].query(labels_for(name, dataset), SCALE.sliding_window())


def _epoch_instants(stream, slide=HOUR):
    boundaries = sorted({(e.t // slide) * slide for e in stream})
    return [b + slide - 1 for b in boundaries]


def _surfaces(handle, stream):
    return {
        "results": handle.results(),
        "coverage": {k: tuple(v) for k, v in handle.coverage().items()},
        "valid_at": [handle.valid_at(t) for t in _epoch_instants(stream)],
    }


def _cache_is_clean(engine):
    """Every cached stream's operator (relabel stages included) is live."""
    live = set(map(id, engine._graph.operators))
    for cache in engine._caches.values():
        for key, stream in cache.items():
            assert id(stream.op) in live, f"stale cache entry {key!r}"


class TestSharingCounters:
    """Deterministic counters: a planner change that loses sharing
    fails here, not on a timing."""

    @pytest.mark.parametrize(
        "dataset, operators, savings", [("so", 29, 37), ("snb", 31, 35)]
    )
    def test_q1_to_q7_on_one_engine(self, dataset, operators, savings):
        engine = StreamingGraphEngine(EngineConfig())
        for name in ALL:
            engine.register(_query(name, dataset), name=name)
        assert engine.operator_count() == operators
        assert engine.sharing_savings() == savings

    def test_label_only_duplicates_compile_once(self):
        engine = StreamingGraphEngine(EngineConfig())
        engine.register(_query("Q1"), name="Q1")
        engine.register(_query("Q6"), name="Q6")
        paths = [op for op in engine._graph.operators if isinstance(op, SPathOp)]
        assert len(paths) == 1
        assert paths[0].out_label == "Answer"  # the first compile's label


def _closure(label, out):
    window = SlidingWindow(6 * HOUR, HOUR)
    return Path.over({label: WScan(label, window)}, f"{label}+", out)


class TestLabelObservers:
    """A shared operator carrying another label is relabelled exactly
    where the label is observed."""

    def _solo(self, plan, stream):
        engine = StreamingGraphEngine(EngineConfig())
        handle = engine.register(plan, name="solo")
        engine.push_many(stream)
        return handle

    @pytest.mark.parametrize(
        "observer",
        [
            Filter(_closure("a2q", "Y"), Predicate((("label", "==", "Y"),))),
            Union(
                _closure("a2q", "Y"),
                Relabel(WScan("c2q", SlidingWindow(6 * HOUR, HOUR)), "Y"),
            ),
            _closure("a2q", "Y"),
        ],
        ids=["label-filter", "unlabelled-union", "sink"],
    )
    def test_observer_sees_its_label(self, streams, observer):
        stream = streams["so"]
        engine = StreamingGraphEngine(EngineConfig())
        engine.register(_closure("a2q", "X"), name="x")
        handle = engine.register(observer, name="y")
        engine.push_many(stream)
        assert len([op for op in engine._graph.operators if isinstance(op, SPathOp)]) == 1
        got = _surfaces(handle, stream)
        assert got["results"]
        assert {sgt.label for sgt in got["results"]} == {"Y"}
        assert got == _surfaces(self._solo(observer, stream), stream)


class TestLifecycle:
    def test_unregister_owner_mid_stream(self, streams):
        """Q1 owns the shared a2q+ operator; Q6 keeps it after Q1 goes."""
        stream = streams["so"]
        cut = len(stream) // 2
        engine = StreamingGraphEngine(EngineConfig())
        engine.register(_query("Q1"), name="Q1")
        q6 = engine.register(_query("Q6"), name="Q6")
        engine.push_many(stream[:cut])
        engine.unregister("Q1")
        _cache_is_clean(engine)
        engine.push_many(stream[cut:])

        solo = StreamingGraphEngine(EngineConfig())
        reference = solo.register(_query("Q6"), name="Q6")
        solo.push_many(stream[:cut])
        solo.push_many(stream[cut:])
        assert q6._sink.events == reference._sink.events
        assert _surfaces(q6, stream) == _surfaces(reference, stream)

        # The AP stream is still tappable after its owner left.
        tap = engine.tap("AP")
        assert isinstance(engine._graph.producer_of(tap), UnionOp)

    def test_live_registration_through_relabel_stage(self, streams):
        """A query registered live whose root is a relabel stage is
        spliced and backfilled from the handle rooted at the shared
        operator, exactly like a full-plan re-share."""
        stream = streams["so"]
        cut = len(stream) // 2
        q1_plan = fuse_relabels(_query("Q1").plan())
        reach_plan = dataclasses.replace(q1_plan, label="Reach")

        engine = StreamingGraphEngine(EngineConfig())
        engine.register(reach_plan, name="reach")
        engine.push_many(stream[:cut])
        q1 = engine.register(_query("Q1"), name="Q1")
        stage = engine._graph.producer_of(q1._sink)
        assert isinstance(stage, UnionOp) and stage.label == "Answer"
        shared = relabel_input(engine._graph, stage)
        assert isinstance(shared, SPathOp) and shared.out_label == "Reach"
        engine.push_many(stream[cut:])

        fresh = StreamingGraphEngine(EngineConfig())
        reference = fresh.register(_query("Q1"), name="Q1")
        fresh.push_many(stream[:cut])
        fresh.push_many(stream[cut:])
        assert q1._sink.events == reference._sink.events
        assert _surfaces(q1, stream) == _surfaces(reference, stream)

        engine.unregister("Q1")
        _cache_is_clean(engine)
        assert stage not in engine._graph.operators
        engine.unregister("reach")
        assert all(not cache for cache in engine._caches.values())

    def test_live_registration_through_relabel_stage_sharded(self, streams):
        stream = streams["so"]
        cut = len(stream) // 2
        reach_plan = dataclasses.replace(
            fuse_relabels(_query("Q1").plan()), label="Reach"
        )
        config = EngineConfig(materialize_paths=False)
        engine = StreamingGraphEngine(config.with_overrides(shards=2))
        engine.register(reach_plan, name="reach")
        engine.push_many(stream[:cut])
        q1 = engine.register(_query("Q1"), name="Q1")
        engine.push_many(stream[cut:])

        fresh = StreamingGraphEngine(config)
        reference = fresh.register(_query("Q1"), name="Q1")
        fresh.push_many(stream[:cut])
        fresh.push_many(stream[cut:])
        got, want = _surfaces(q1, stream), _surfaces(reference, stream)
        assert set(got["results"]) == set(want["results"])
        assert got["coverage"] == want["coverage"]
        assert got["valid_at"] == want["valid_at"]

    def test_evict_dead_leaves_no_stale_entries(self):
        def relabel_stages(engine):
            return {
                stream.op
                for cache in engine._caches.values()
                for key, stream in cache.items()
                if isinstance(key, Relabel)
            }

        engine = StreamingGraphEngine(EngineConfig())
        for name in ("Q6", "Q1", "Q7", "Q2", "Q3"):
            engine.register(_query(name), name=name)
        q1_stage = engine._graph.producer_of(engine._handles["Q1"]._sink)
        assert q1_stage in relabel_stages(engine)  # spath[AP] as Answer
        engine.tap("RL")  # pattern[Answer] as RL
        for name in ("Q1", "Q6", "Q3"):
            engine.unregister(name)
            _cache_is_clean(engine)
        assert q1_stage not in relabel_stages(engine)
        engine.unregister("Q7")
        engine.unregister("Q2")
        _cache_is_clean(engine)
        # Only what the RL tap pins is left, its relabel stage included.
        assert len(relabel_stages(engine)) == 1


class TestCheckpointAfterOwnerLeaves:
    """A shared operator keeps the label of the query that compiled it
    first after that query is unregistered; a restore compiles the
    remaining queries afresh, under their own labels.  The checkpoint
    still restores, and the restored engine resumes bit-identically
    with the engine it was taken from."""

    @pytest.mark.parametrize(
        "first, kept, config",
        [
            # spath[Answer] survives as Q6's AP closure
            ("Q1", "Q6", EngineConfig()),
            ("Q1", "Q6", EngineConfig(execution="columnar")),
            # pattern[Answer] and its coalescer survive as Q7's RL
            ("Q6", "Q7", EngineConfig()),
            # spath[AP] survives with a relabel stage under Q1's sink
            ("Q6", "Q1", EngineConfig()),
            (
                "Q1",
                "Q6",
                EngineConfig(
                    materialize_paths=False, shards=2, shard_transport="inline"
                ),
            ),
        ],
        ids=["q1-q6", "q1-q6-columnar", "q6-q7", "q6-q1", "q1-q6-shards2"],
    )
    def test_restore_resumes_bit_identically(
        self, streams, tmp_path, first, kept, config
    ):
        stream = streams["so"]
        third = len(stream) // 3
        engine = StreamingGraphEngine(config)
        engine.register(_query(first), name=first)
        live = engine.register(_query(kept), name=kept)
        engine.push_many(stream[:third])
        engine.unregister(first)
        engine.push_many(stream[third : 2 * third])
        store = DirectoryCheckpointStore(str(tmp_path))
        engine.checkpoint(store)

        restored = StreamingGraphEngine.restore(store)
        resumed = restored._handles[kept]
        engine.push_many(stream[2 * third :])
        restored.push_many(stream[2 * third :])
        assert _surfaces(resumed, stream) == _surfaces(live, stream)
        if config.shards == 1:
            assert resumed._sink.events == live._sink.events


class TestTap:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_tap_label_only_an_unobserving_consumer_requested(
        self, streams, shards
    ):
        """With Q1 first, no operator emits ``AP``; the tap gets a
        relabel stage over the shared a2q+ operator."""
        stream = streams["so"]
        engine = StreamingGraphEngine(EngineConfig(shards=shards))
        engine.register(_query("Q1"), name="Q1")
        engine.register(_query("Q6"), name="Q6")
        tap = engine.tap("AP")
        engine.push_many(stream)

        own = StreamingGraphEngine(EngineConfig())
        own.register(_query("Q6"), name="Q6")  # compiles spath[AP] itself
        reference = own.tap("AP")
        own.push_many(stream)
        assert {e.sgt.label for e in tap.events} == {"AP"}
        assert sorted(map(repr, tap.events)) == sorted(map(repr, reference.events))
        assert tap.results() == reference.results()


class TestShardedMultiQuery:
    """All of Q1-Q7 on one engine: the sharded compile reaches the
    label-agnostic sharing the per-query goldens never do."""

    @pytest.mark.parametrize("path_impl", ["spath", "negative"])
    @pytest.mark.parametrize("dataset", ["so", "snb"])
    def test_shards_match_serial(self, streams, dataset, path_impl):
        stream = streams[dataset]

        def run(shards):
            engine = StreamingGraphEngine(
                EngineConfig(
                    path_impl=path_impl,
                    materialize_paths=False,
                    shards=shards,
                    shard_transport="inline",
                )
            )
            handles = {q: engine.register(_query(q, dataset), name=q) for q in ALL}
            engine.push_many(stream)
            return handles

        serial = run(1)
        for shards in (2, 3):
            sharded = run(shards)
            for q in ALL:
                assert set(sharded[q].results()) == set(serial[q].results()), q
                assert {k: tuple(v) for k, v in sharded[q].coverage().items()} == {
                    k: tuple(v) for k, v in serial[q].coverage().items()
                }, q
                for t in _epoch_instants(stream):
                    assert sharded[q].valid_at(t) == serial[q].valid_at(t), (q, t)
