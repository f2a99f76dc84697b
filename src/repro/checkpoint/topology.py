"""Deterministic operator naming for checkpoint blobs.

A checkpoint must match each state blob back to the operator instance
that produced it in a *fresh* process.  Positional indexes into
``DataflowGraph.operators`` are not stable — the list's order depends on
the full register/unregister history (pruning removes entries), which a
restore does not replay.  What *is* reproducible is the topology each
registered query compiles to: re-registering the same plans in the same
order against an empty engine yields isomorphic dataflows.

So operators are keyed structurally: for each query, in registration
order, walk upstream from its sink — depth-first, input ports in sorted
order — and name each operator by the first query that reaches it plus
its visit index within that walk (shared operators, e.g. a cached
coalescer feeding two queries, are keyed once, under the first owner).
The key embeds the operator's kind (its name up to the bracketed label)
as a cross-check: a blob whose key says ``q1/3:coalesce`` can only load
into a coalescer at that position.

Labels stay out of keys because label-agnostic sharing makes them
history-dependent: an operator shared by sub-plans that differ only in
output label carries the label of the query that compiled it first,
and keeps it after that query is unregistered, while a restore
compiles it under the first *remaining* query's label.  For the same
reason relabel stages — which re-apply a label to such a shared stream
where it is observed — are transparent to the walk: they get no key,
and the walk continues at their input.  Keys of checkpoints written
before this (``q1/3:coalesce[knows]``) are read modulo their label.

Shared by the serial engine, inline shards, and forked shard workers —
all three must produce identical keys for identical query sets.
"""

from __future__ import annotations

import re

__all__ = ["TOPOLOGY_VERSION", "load_operator_states", "operator_keys"]

#: Version of the compiled topology that operator keys name, recorded in
#: every engine checkpoint.  Version 2 is label-agnostic operator
#: sharing: sub-plans that differ only in output labels no consumer
#: observes compile to one operator.  Checkpoints without the field come
#: from builds that compiled such duplicates separately.
TOPOLOGY_VERSION = 2


def operator_keys(named_sinks, graph) -> dict:
    """``{key: operator}`` over every operator reachable from the given
    query sinks.

    ``named_sinks`` is an iterable of ``(query_name, sink_op)`` in query
    registration order; ``graph`` is the :class:`DataflowGraph` holding
    them (needed to invert the producer→consumer wiring).
    """
    producers: dict[int, dict[int, object]] = {}
    for op in graph.operators:
        for consumer, port in op._downstream:
            producers.setdefault(id(consumer), {})[port] = op

    out: dict[str, object] = {}
    owned: set[int] = set()
    for qname, sink in named_sinks:
        index = 0
        stack = [sink]
        while stack:
            op = stack.pop()
            if id(op) not in owned and not getattr(op, "relabel_stage", False):
                owned.add(id(op))
                out[f"{qname}/{index}:{_kind(op.name)}"] = op
                index += 1
            # Children pushed in reverse port order so the walk visits
            # ports ascending — the one traversal order both snapshot
            # and restore reproduce.
            ports = producers.get(id(op))
            if ports:
                for port in sorted(ports, reverse=True):
                    child = ports[port]
                    if id(child) not in owned:
                        stack.append(child)
        # NOTE: an operator pushed while unvisited may be popped after a
        # different path already owned it; the `owned` check on pop (not
        # on push alone) keeps indexes deterministic regardless.
    return out


def _kind(name: str) -> str:
    """An operator name without its bracketed label."""
    return name.partition("[")[0]


#: a key that still carries its operator's label: group 1 is the key
#: without it
_LABELLED_KEY = re.compile(r"(.*/\d+:[a-z-]+)\[.*\]$", re.DOTALL)


def load_operator_states(keys: dict, blobs: dict) -> None:
    """Apply a ``{key: blob}`` map onto the keyed operators.

    All-or-nothing at the validation level: the stateful key set and the
    blob key set must match exactly — a blob with no operator, or a
    stateful operator with no blob, means the snapshot was taken against
    a different query set (or is corrupted) and restore must not
    proceed.  Any per-operator restore failure is re-raised as a
    :class:`~repro.errors.CheckpointError` naming the operator key.
    Blob keys are matched modulo the label a checkpoint from before
    label-free keys still carries; errors name them as written.
    """
    from repro.errors import CheckpointError

    # A fresh operator snapshots to None iff it is stateless (the base
    # hook); probing is cheap on empty state and keeps one source of
    # truth for which operators checkpoint.
    stateful = {
        key: op for key, op in keys.items() if op.snapshot_state() is not None
    }
    written = {}
    for raw in blobs:
        match = _LABELLED_KEY.match(raw)
        written[match.group(1) if match else raw] = raw
    missing = sorted(key for key in stateful if key not in written)
    extra = sorted(raw for key, raw in written.items() if key not in stateful)
    if missing or extra:
        problems = []
        if missing:
            problems.append(f"has no state blob for operator(s) {missing}")
        if extra:
            problems.append(f"carries state for unknown operator(s) {extra}")
        raise CheckpointError(
            f"snapshot {' and '.join(problems)} "
            "(was it taken against a different query set?)"
        )
    for key, op in stateful.items():
        try:
            op.restore_state(blobs[written[key]])
        except CheckpointError as exc:
            raise CheckpointError(f"operator {key}: {exc}") from exc
        except Exception as exc:
            raise CheckpointError(
                f"operator {key}: restore failed: {exc!r}"
            ) from exc
