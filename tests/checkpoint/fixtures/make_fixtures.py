"""Regenerate the pre-label-agnostic-sharing checkpoint fixtures.

Run it against a checkout of the last commit that compiled label-only
duplicate operators separately (the parent of the label-agnostic
sharing change):

    PYTHONPATH=<old checkout>/src python tests/checkpoint/fixtures/make_fixtures.py

Each fixture is a ``DirectoryCheckpointStore`` holding one checkpoint of
an SO engine taken after the stream prefix ``edges[:CUT]``;
``test_legacy_fixtures.py`` restores it and replays the suffix.
"""

import pathlib
import shutil

from repro.bench.experiments import Scale, _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.workloads import QUERIES, labels_for

SCALE = Scale(n_edges=100, n_vertices=40, window=6 * HOUR, slide=HOUR)
CUT = 50
CONFIG = EngineConfig(execution="columnar")
#: fixture directory -> queries registered (in order)
FIXTURES = {
    # no two sub-plans differ only in an output label: same topology
    "so_q1_q2_q4_q5": ["Q1", "Q2", "Q4", "Q5"],
    # Q1/Q6/Q7 share a2q+, Q6/Q7 their pattern, Q2/Q3 a pattern
    "so_q1_q7": ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"],
}


def main() -> None:
    here = pathlib.Path(__file__).parent
    edges = _stream("so", SCALE)
    for name, queries in FIXTURES.items():
        engine = StreamingGraphEngine(CONFIG)
        for q in queries:
            engine.register(
                QUERIES[q].query(labels_for(q, "so"), SCALE.sliding_window()),
                name=q,
            )
        engine.push_many(edges[:CUT])
        target = here / name
        shutil.rmtree(target, ignore_errors=True)
        engine.checkpoint(DirectoryCheckpointStore(target))


if __name__ == "__main__":
    main()
