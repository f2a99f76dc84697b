"""Checkpoints written before label-agnostic operator sharing.

The fixtures under ``fixtures/`` were written by the last build that
compiled sub-plans differing only in output labels as separate
operators (``fixtures/make_fixtures.py`` regenerates them from such a
checkout).  Operator keys name the compiled topology, so:

* a query set with no label-only duplicates compiles to the same
  topology and restores, resuming bit-identically;
* Q1-Q7 hold duplicates (Q6's ``spath[AP]`` is Q1's ``a2q+``), so their
  blobs name operators this build no longer compiles, and restore
  refuses with a typed error instead of restoring part of the state.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.bench.experiments import _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.engine.session import StreamingGraphEngine
from repro.errors import CheckpointError
from repro.workloads import QUERIES, labels_for
from tests.checkpoint.fixtures.make_fixtures import CONFIG, CUT, FIXTURES, SCALE

HERE = pathlib.Path(__file__).parent / "fixtures"


def _store(tmp_path, name):
    # Restore never writes, but a copy keeps the committed fixture
    # untouchable.
    target = tmp_path / name
    shutil.copytree(HERE / name, target)
    return DirectoryCheckpointStore(target)


def _surfaces(handle, edges):
    slide = SCALE.slide
    instants = sorted({(e.t // slide) * slide + slide - 1 for e in edges})
    return {
        "events": list(handle._sink.events),
        "results": handle.results(),
        "coverage": {k: tuple(v) for k, v in handle.coverage().items()},
        "valid_at": [handle.valid_at(t) for t in instants],
    }


def test_duplicate_free_checkpoint_restores_bit_identically(tmp_path):
    name = "so_q1_q2_q4_q5"
    edges = _stream("so", SCALE)
    restored = StreamingGraphEngine.restore(_store(tmp_path, name))
    restored.push_many(edges[CUT:])

    reference = StreamingGraphEngine(CONFIG)
    for q in FIXTURES[name]:
        reference.register(
            QUERIES[q].query(labels_for(q, "so"), SCALE.sliding_window()), name=q
        )
    reference.push_many(edges[:CUT])
    reference.push_many(edges[CUT:])

    assert list(restored._handles) == FIXTURES[name]
    for q in FIXTURES[name]:
        assert _surfaces(restored._handles[q], edges) == _surfaces(
            reference._handles[q], edges
        ), q


def test_checkpoint_with_label_duplicates_is_refused(tmp_path):
    with pytest.raises(CheckpointError) as info:
        StreamingGraphEngine.restore(_store(tmp_path, "so_q1_q7"))
    message = str(info.value)
    assert "predates label-agnostic operator sharing" in message
    assert "Q6/3:spath[AP]" in message
