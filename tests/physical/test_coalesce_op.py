"""Unit tests for the set-semantics coalescing stage."""

from repro.core.intervals import Interval
from repro.core.tuples import SGT
from repro.dataflow.graph import DELETE, DataflowGraph, Event, SinkOp
from repro.physical.coalesce_op import CoalesceOp


def wire():
    graph = DataflowGraph()
    op = CoalesceOp("l")
    sink = SinkOp()
    graph.add(op)
    graph.add(sink)
    graph.connect(op, sink, 0)
    return op, sink


def ev(ts, exp, sign=1, key=("a", "b")):
    return Event(SGT(key[0], key[1], "l", Interval(ts, exp)), sign)


class TestDeduplication:
    def test_first_insert_passes(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10))
        assert len(sink.events) == 1

    def test_covered_duplicate_dropped(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10))
        op.on_event(0, ev(2, 8))
        assert len(sink.events) == 1

    def test_extension_passes(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10))
        op.on_event(0, ev(5, 15))
        assert len(sink.events) == 2

    def test_distinct_keys_independent(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10, key=("a", "b")))
        op.on_event(0, ev(0, 10, key=("a", "c")))
        assert len(sink.events) == 2

    def test_disjoint_runs_pass(self):
        op, sink = wire()
        op.on_event(0, ev(0, 5))
        op.on_event(0, ev(20, 30))
        assert len(sink.events) == 2


class TestRetractionLedger:
    def test_delete_of_dropped_duplicate_absorbed(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10))
        op.on_event(0, ev(2, 8))          # dropped
        op.on_event(0, ev(2, 8, DELETE))  # absorbed against the ledger
        assert sink.coverage()[("a", "b", "l")] == [Interval(0, 10)]

    def test_delete_of_passed_insert_forwarded(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10))
        op.on_event(0, ev(0, 10, DELETE))
        assert sink.coverage() == {}

    def test_dropped_duplicate_resurrected_on_delete(self):
        # The forwarded DELETE would otherwise lose coverage the dropped
        # duplicate still supports upstream.
        op, sink = wire()
        op.on_event(0, ev(0, 10))         # passes
        op.on_event(0, ev(2, 8))          # dropped (covered)
        op.on_event(0, ev(0, 10, DELETE))
        assert sink.coverage()[("a", "b", "l")] == [Interval(2, 8)]

    def test_propagate_pattern_net_coverage(self):
        # The PATH propagate emission pattern: DELETE old, INSERT merged.
        op, sink = wire()
        op.on_event(0, ev(2, 10))
        op.on_event(0, ev(2, 10, DELETE))
        op.on_event(0, ev(2, 15))
        assert sink.coverage()[("a", "b", "l")] == [Interval(2, 15)]


class TestStateManagement:
    def test_purge_expired_covers(self):
        op, _ = wire()
        op.on_event(0, ev(0, 10))
        assert op.state_size() == 1
        op.on_advance(10)
        assert op.state_size() == 0

    def test_after_purge_reinsert_passes(self):
        op, sink = wire()
        op.on_event(0, ev(0, 10))
        op.on_advance(10)
        op.on_event(0, ev(12, 20))
        assert len(sink.events) == 2


class TestRandomizedNetCoverage:
    def test_net_coverage_preserved(self):
        """For random derivation-balanced streams, net coverage after
        coalescing equals net coverage before."""
        import random

        rng = random.Random(5)
        op, sink = wire()
        raw = SinkOp()
        live: list = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                interval = live.pop(rng.randrange(len(live)))
                event = ev(interval[0], interval[1], DELETE)
            else:
                ts = rng.randrange(50)
                interval = (ts, ts + 1 + rng.randrange(20))
                live.append(interval)
                event = ev(interval[0], interval[1])
            raw.on_event(0, event)
            op.on_event(0, event)
        assert sink.coverage() == raw.coverage()


class TestRestoreUnderAnotherLabel:
    def test_restored_cover_takes_the_restoring_label(self):
        """A coalescer on a label-shared stream may be restored under
        another label than it was snapshotted with; its cover still
        suppresses the stream's duplicates and absorbs their
        retractions."""
        op, _ = wire()
        op.on_event(0, ev(0, 10))
        op.on_event(0, ev(2, 8))  # dropped, on the ledger
        graph = DataflowGraph()
        restored = CoalesceOp("m")
        sink = SinkOp()
        graph.add(restored)
        graph.add(sink)
        graph.connect(restored, sink, 0)
        restored.restore_state(op.snapshot_state())
        restored.on_event(0, Event(SGT("a", "b", "m", Interval(3, 9)), 1))
        restored.on_event(0, Event(SGT("a", "b", "m", Interval(2, 8)), DELETE))
        assert sink.events == []
