"""The correctness gate: engine answers against the reference evaluator.

It runs outside the timed phase.  A mismatch fails the run and counts
as a failed operation.
"""

from __future__ import annotations

from repro.algebra.reference import evaluate_plan_at
from repro.core.tuples import SGE


def snapshot_mismatches(
    plans: dict, edges: list[SGE], t: int, observed: dict[str, set]
) -> list[str]:
    """Queries whose ``valid_at(t)`` answer (``observed``, a set of
    ``(src, trg, label)`` keys) differs from the snapshot-reducibility
    reference (``algebra/reference.evaluate_plan_at``) over ``edges``."""
    streams: dict[str, list[SGE]] = {}
    for edge in edges:
        streams.setdefault(edge.label, []).append(edge)
    problems = []
    for name, plan in plans.items():
        expected = evaluate_plan_at(plan, streams, t)
        got = {(key[0], key[1]) for key in observed[name]}
        if got != expected:
            problems.append(
                f"{name} at t={t}: {len(got - expected)} unexpected, "
                f"{len(expected - got)} missing of {len(expected)}"
            )
    return problems
