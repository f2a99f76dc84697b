"""Seeded workload inputs: edge streams, slides, and the churn schedule.

The edge streams are those of ``repro.bench.experiments._stream``, so
the generator settings have one definition; the benchmark seed is the
generator seed, so one seed always gives one input.
"""

from __future__ import annotations

import random

from repro.bench.experiments import Scale, _stream
from repro.core.tuples import SGE
from repro.core.windows import HOUR, SlidingWindow
from repro.workloads import QUERIES, labels_for

QUERY_NAMES = tuple(QUERIES)  # Q1..Q7


def make_stream(dataset: str, n_edges: int, n_vertices: int, seed: int) -> list[SGE]:
    """The ``repro.bench.experiments`` stream of ``dataset`` at this size."""
    return _stream(dataset, Scale(n_edges=n_edges, n_vertices=n_vertices, seed=seed))


def query_texts(dataset: str) -> dict[str, str]:
    """Table 1's Q1-Q7 as Datalog text with the dataset's labels bound."""
    return {q: QUERIES[q].datalog(labels_for(q, dataset)) for q in QUERY_NAMES}


def split_slides(edges: list[SGE], slide: int = HOUR) -> list[list[SGE]]:
    """Consecutive runs of edges sharing one slide interval."""
    slides: list[list[SGE]] = []
    current: list[SGE] = []
    key = None
    for edge in edges:
        k = edge.t // slide
        if current and k != key:
            slides.append(current)
            current = []
        key = k
        current.append(edge)
    if current:
        slides.append(current)
    return slides


def churn_schedule(
    slides: list[list[SGE]],
    window: SlidingWindow,
    share: float,
    seed: int,
) -> list[list[int]]:
    """Which edges to delete after each slide's insertions.

    About ``share`` of the edges are picked; each is deleted one to
    ``window.size // window.slide - 1`` slides after it arrived, so it is
    still in the window when its deletion comes.  Entries are indices
    into the flattened stream.
    """
    rng = random.Random(seed * 7919 + 1)
    span = window.size // window.slide
    by_slide = {s[0].t // window.slide: i for i, s in enumerate(slides)}
    schedule: list[list[int]] = [[] for _ in slides]
    index = 0
    for slide in slides:
        for edge in slide:
            if rng.random() < share:
                due = edge.t // window.slide + rng.randint(1, span - 1)
                target = by_slide.get(due)
                if target is not None:
                    schedule[target].append(index)
            index += 1
    return schedule
