"""Compilation of logical SGA plans into physical dataflow graphs.

Each logical operator maps to one physical operator; PATTERN expands
internally into its binary join tree (Section 6.2.2) and PATH selects one
of the two physical implementations (Sections 6.2.3-6.2.4).  Logical
sub-plans are compiled once and shared — plans are immutable value
objects, so sub-plans that are structurally equal modulo unobserved
output labels identify common sub-expressions, and relabel stages mark
where a label is re-applied.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.algebra.operators import (
    Filter,
    Path,
    Pattern,
    PatternInput,
    Plan,
    Relabel,
    Union,
    WScan,
)
from repro.core.tuples import Label
from repro.dataflow.graph import DataflowGraph, PhysicalOperator, SinkOp
from repro.errors import PlanError
from repro.physical.coalesce_op import CoalesceOp
from repro.physical.exchange import (
    ShardBroadcastOp,
    ShardPartitionFilterOp,
    ShardRouteOp,
)
from repro.physical.filter import FilterOp
from repro.physical.join import PatternOp
from repro.physical.rpq_negative import NegativeTupleRpqOp
from repro.physical.spath import SPathOp
from repro.physical.union import UnionOp
from repro.physical.wscan import WScanOp

#: Available physical PATH implementations (Table 3 swaps these).
PATH_IMPLS = ("spath", "negative")


class ShardSpec:
    """Compilation-time shard parameters (sharded execution only).

    Carries the shard's routing :class:`~repro.core.partition.ShardContext`
    plus a deterministic uid allocator for exchange endpoints.
    Compilation is deterministic, so compiling the same plan sequence on
    every shard — each with a ``ShardSpec`` starting from the same
    ``next_uid`` — assigns identical uids to corresponding operators,
    which is what lets shard ``i`` route a delta to "endpoint ``k`` on
    shard ``j``" without any name exchange.
    """

    def __init__(self, ctx, next_uid: int = 0):
        self.ctx = ctx
        self.next_uid = next_uid

    def allocate(self) -> int:
        uid = self.next_uid
        self.next_uid += 1
        return uid


@dataclass
class PhysicalPlan:
    """A compiled dataflow with its default slide interval and sink."""

    graph: DataflowGraph
    sink: SinkOp
    slide: int


def compile_plan(
    plan: Plan,
    path_impl: str = "spath",
    materialize_paths: bool = True,
    coalesce_intermediate: bool = True,
) -> PhysicalPlan:
    """Compile a logical plan; results arrive at the returned sink.

    ``materialize_paths=False`` makes PATH operators emit plain derived
    edges instead of reconstructing hop sequences — cheaper when only
    reachability pairs are consumed (the DD baseline cannot return paths
    at all, so the comparative benchmarks disable materialization).
    """
    graph = DataflowGraph()
    cache: dict = {}
    sink = compile_into(
        plan, graph, cache, path_impl, materialize_paths, coalesce_intermediate
    )
    return PhysicalPlan(graph=graph, sink=sink, slide=plan_slide(plan))


def compile_into(
    plan: Plan,
    graph: DataflowGraph,
    cache: dict,
    path_impl: str = "spath",
    materialize_paths: bool = True,
    coalesce_intermediate: bool = True,
    shard: ShardSpec | None = None,
) -> SinkOp:
    """Compile a plan into an existing dataflow, sharing cached sub-plans.

    Plans are immutable value objects, so compiling several queries into
    one graph with a shared ``cache`` deduplicates every common
    sub-expression — the multi-query sharing of
    :class:`repro.engine.multi.MultiQueryProcessor`.  Sub-plans are
    shared when they are structurally equal modulo output labels no
    consumer observes (see :func:`_share_key`); where an observer needs
    a label the shared operator does not carry, a relabel stage
    re-applies it.  Returns the query's private sink.

    With a :class:`ShardSpec`, the compiled dataflow is one shard of a
    partition-parallel deployment: PATH forests are partitioned by root,
    PATTERN joins by join key, and exchange operators are spliced onto
    the edges where derived streams must be re-partitioned or
    replicated (see :mod:`repro.physical.exchange`).  A replicated
    stream feeding the sink is filtered to this shard's partition, so
    merging all shards' sinks yields exactly the serial result multiset.
    """
    options = _Options(path_impl, materialize_paths, coalesce_intermediate, shard)
    plan = fuse_relabels(plan)
    root = _build(plan, graph, cache, options, observed=True).op
    sink = SinkOp()
    graph.add(sink)
    if shard is not None and not _stream_partitioned(plan):
        filt = ShardPartitionFilterOp(shard.ctx, plan.out_label)
        graph.add(filt)
        graph.connect(root, filt, 0)
        root = filt
    graph.connect(root, sink, 0)
    return sink


def tap_operator(
    label: Label,
    graph: DataflowGraph,
    queries,
    shard: ShardSpec | None = None,
) -> PhysicalOperator | None:
    """The operator a tap on ``label`` attaches to, or ``None``.

    That is the first operator of ``graph`` emitting ``label``.  Failing
    that, it is the stream of the first registered sub-plan labelled
    ``label`` whose shared operator carries another label (a label
    only an unobserving consumer requested): a relabel stage is added
    to it, or reused.  ``queries`` yields ``(plan, cache, options)``
    per registered query in registration order, each plan as it was
    compiled into ``graph`` with ``cache`` and the compile ``options``.
    """
    for op in graph.operators:
        produced = getattr(op, "out_label", None)
        if produced is None:
            produced = getattr(op, "label", None)
        if produced == label and not isinstance(op, SinkOp):
            return op
    for plan, cache, options in queries:
        compile_options = _Options(*options, shard)
        for node in _walk(fuse_relabels(plan)):
            if node.out_label != label:
                continue
            share = _share_key(node, compile_options.memo)
            # The node was compiled in one replication zone or both.
            for rep in (False, True):
                stream = cache.get(compile_options.key(share, rep))
                if stream is None:
                    continue
                if stream.label == label:
                    return stream.op
                return _relabel(
                    stream, share, label, graph, cache, compile_options, rep
                ).op
    return None


def relabel_input(graph: DataflowGraph, op: PhysicalOperator) -> PhysicalOperator:
    """The operator under a relabel stage, or ``op`` itself.

    A relabel stage is a single-input labelled :class:`UnionOp`; its
    stream is its input's stream with the label re-applied, so queries
    rooted at either carry the same results modulo label (the live
    registration backfill relies on this).
    """
    if isinstance(op, UnionOp) and op.label is not None and op.arity == 1:
        producer = graph.producer_of(op)
        if producer is not None:
            return producer
    return op


def evict_dead(cache: dict, removed: list[PhysicalOperator]) -> int:
    """Evict cache entries whose physical operator left the dataflow.

    The shared-subexpression cache maps (sub-)plans to compiled
    streams — an operator with the label it emits; when a live engine
    unregisters a query and prunes now-unshared operators, the
    corresponding entries must go too — otherwise a later registration
    of the same sub-plan would splice a dangling operator back into the
    graph.  Returns the number of entries evicted.
    """
    dead = set(map(id, removed))
    stale = [key for key, stream in cache.items() if id(stream.op) in dead]
    for key in stale:
        del cache[key]
    return len(stale)


def fuse_relabels(plan: Plan) -> Plan:
    """The plan-level rewrite the physical compiler applies before
    operator selection — the "optimized plan" stage of the
    :mod:`repro.ql` pipeline.  Idempotent; semantics-preserving."""
    return _fuse_relabels(plan, Counter(_walk(plan)))


def _fuse_relabels(plan: Plan, refs: Counter) -> Plan:
    """Fuse ``Relabel`` into its producer where the producer is private.

    PATH, PATTERN and UNION carry their own output label, so a relabel of
    an unshared producer is just a different label on the same operator —
    fusing it removes one per-result tuple rewrite from the hot path.
    Shared producers (referenced elsewhere in the plan) are left alone.
    """
    if isinstance(plan, Relabel):
        child = _fuse_relabels(plan.child, refs)
        if refs[plan.child] == 1:
            if isinstance(child, (Path, Pattern, Union)):
                return dataclasses.replace(child, label=plan.label)
            if isinstance(child, Relabel):
                return dataclasses.replace(child, label=plan.label)
        return Relabel(child, plan.label)
    if isinstance(plan, Filter):
        return Filter(_fuse_relabels(plan.child, refs), plan.predicate)
    if isinstance(plan, Union):
        return Union(
            _fuse_relabels(plan.left, refs),
            _fuse_relabels(plan.right, refs),
            plan.label,
        )
    if isinstance(plan, Pattern):
        conjuncts = tuple(
            dataclasses.replace(c, plan=_fuse_relabels(c.plan, refs))
            for c in plan.inputs
        )
        return dataclasses.replace(plan, inputs=conjuncts)
    if isinstance(plan, Path):
        pairs = tuple(
            (label, _fuse_relabels(child, refs)) for label, child in plan.inputs
        )
        return dataclasses.replace(plan, inputs=pairs)
    return plan


def plan_slide(plan: Plan) -> int:
    """The slide driving watermark advancement: the finest one in the plan."""
    slides = [
        node.window.slide
        for node in _walk(plan)
        if isinstance(node, WScan)
    ]
    if not slides:
        raise PlanError("plan has no WSCAN leaves")
    return min(slides)


def _walk(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


class _Unobserved:
    """The output label of a share key: a label no consumer observes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unobserved>"


UNOBSERVED = _Unobserved()


def _share_key(plan: Plan, memo: dict) -> Plan:
    """The cache key of ``plan``: the plan modulo unobserved output labels.

    PATH, PATTERN and labelled UNION apply their own output label, so
    two of them that differ only in that label compute the same stream
    modulo label, and the key replaces the label with
    :data:`UNOBSERVED`.  Their inputs' labels are unobserved as well:
    PATH takes labels from its port map, PATTERN ports bind endpoints
    only, and UNION and RELABEL overwrite them.  A FILTER (and a
    coalescer) passes its input's label through, so its key is that of
    its input unless the predicate reads the label.  The inputs of an
    unlabelled UNION and of a label-reading FILTER keep their labels
    (:func:`_observed_key`); so does a RELABEL, whose label is all it
    does.  ``memo`` maps ``id(node)`` to its key for one compile, so
    each node's key is built once rather than at every recursion level.
    """
    key = memo.get(id(plan))
    if key is not None:
        return key
    if isinstance(plan, WScan):
        key = plan
    elif isinstance(plan, Filter):
        child = (
            _observed_key(plan.child, memo)
            if _reads_label(plan.predicate)
            else _share_key(plan.child, memo)
        )
        key = Filter(child, plan.predicate)
    elif isinstance(plan, Relabel):
        key = Relabel(_share_key(plan.child, memo), plan.label)
    elif isinstance(plan, Union):
        if plan.label is None:
            key = Union(
                _observed_key(plan.left, memo), _observed_key(plan.right, memo)
            )
        else:
            key = Union(
                _share_key(plan.left, memo),
                _share_key(plan.right, memo),
                UNOBSERVED,
            )
    elif isinstance(plan, Pattern):
        conjuncts = tuple(
            PatternInput(_share_key(c.plan, memo), c.src_var, c.trg_var)
            for c in plan.inputs
        )
        key = Pattern(conjuncts, plan.src_var, plan.trg_var, UNOBSERVED)
    elif isinstance(plan, Path):
        pairs = tuple((label, _share_key(child, memo)) for label, child in plan.inputs)
        key = Path(pairs, plan.regex, UNOBSERVED)
    else:
        raise PlanError(f"cannot compile plan node {plan!r}")
    memo[id(plan)] = key
    return key


def _observed_key(plan: Plan, memo: dict) -> Plan:
    """The key of ``plan``'s stream *with* its label: the share key,
    relabelled when the share key leaves the label open."""
    key = _share_key(plan, memo)
    if _label_open(plan):
        return Relabel(key, plan.out_label)
    return key


def _label_open(plan: Plan) -> bool:
    """Whether ``plan``'s share key leaves its output label open."""
    if isinstance(plan, (Path, Pattern)):
        return True
    if isinstance(plan, Union):
        return plan.label is not None
    if isinstance(plan, Filter):
        return not _reads_label(plan.predicate) and _label_open(plan.child)
    return False


def _reads_label(predicate) -> bool:
    return any(attribute == "label" for attribute, _, _ in predicate.conditions)


class _Stream(NamedTuple):
    """A compiled stream, as cached: its operator, the label the
    operator emits, and its cache key."""

    op: PhysicalOperator
    label: Label
    key: object


@dataclass(frozen=True)
class _Options:
    path_impl: str
    materialize_paths: bool
    coalesce_intermediate: bool
    shard: ShardSpec | None = None
    #: share-key memo of one compile (see :func:`_share_key`)
    memo: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.path_impl not in PATH_IMPLS:
            raise PlanError(
                f"unknown PATH implementation {self.path_impl!r}; "
                f"expected one of {PATH_IMPLS}"
            )

    def key(self, share: Plan, rep: bool) -> object:
        """The cache key of a share key in a replication zone."""
        if self.shard is None or isinstance(share, WScan):
            # WSCAN streams are replicated either way: one instance
            # serves both zones.
            return share
        return (share, rep)


def _stateful_input(
    child_plan: Plan,
    child: _Stream,
    graph: DataflowGraph,
    cache: dict,
    options: _Options,
    rep: bool = False,
) -> _Stream:
    """Interpose the Section 5.1 set-semantics coalescing stage.

    PATTERN and PATH may emit value-equivalent results with overlapping
    validity (one per witness subgraph / extension); feeding those
    duplicates into another *stateful* operator multiplies its state and
    probe work, so a coalescing stage is inserted exactly on
    stateful→stateful edges.  Stateless consumers and the sink see the
    raw stream (coalescing there would be pure overhead).  The stage is
    cached per input stream and passes the input's label through.

    Sharded: coalescing is keyed per result, so a *partitioned* input
    stream (whose duplicates for one result key may live on several
    shards) is first re-partitioned by result key through a
    :class:`~repro.physical.exchange.ShardRouteOp` — each shard's
    coalescer then sees exactly the serial duplicate stream for the keys
    it owns.  A replicated input (``rep`` chains, i.e. PATH ports) feeds
    a coalescer replicated on every shard instead.
    """
    producer = _strip_relabels(child_plan)
    if not isinstance(producer, (Pattern, Path)):
        return child
    key = ("coalesce", child.key)
    cached = cache.get(key)
    if cached is not None:
        return cached
    shard = options.shard
    upstream = child.op
    if shard is not None and not rep and _stream_partitioned(child_plan):
        route_key = ("route", child.key)
        route = cache.get(route_key)
        if route is None:
            op = ShardRouteOp(shard.ctx, shard.allocate(), child.label)
            graph.add(op)
            graph.connect(upstream, op, 0)
            route = cache[route_key] = _Stream(op, child.label, route_key)
        upstream = route.op
    stage = CoalesceOp(child.label)
    if shard is not None and not rep:
        # The coalescer owns result keys routed to this shard; shard
        # rebalancing re-partitions its state instead of copying it.
        stage.partitioned = True
    graph.add(stage)
    graph.connect(upstream, stage, 0)
    stream = cache[key] = _Stream(stage, child.label, key)
    return stream


def _strip_relabels(plan: Plan) -> Plan:
    while isinstance(plan, Relabel):
        plan = plan.child
    return plan


def _stream_partitioned(plan: Plan) -> bool:
    """Whether a (non-``rep``) compiled plan's output stream is
    *partitioned* across shards — each delta produced on exactly one
    shard — as opposed to *replicated* (full stream on every shard).

    WSCAN streams are replicated (every shard windows every input
    edge); a PATH partitions by tree root, a multi-conjunct PATTERN by
    its final join key; stateless operators inherit (mixed UNIONs are
    aligned to partitioned by the compiler).
    """
    if isinstance(plan, WScan):
        return False
    if isinstance(plan, (Filter, Relabel)):
        return _stream_partitioned(plan.child)
    if isinstance(plan, Union):
        return _stream_partitioned(plan.left) or _stream_partitioned(plan.right)
    if isinstance(plan, Pattern):
        if len(plan.inputs) == 1:
            return _stream_partitioned(plan.inputs[0].plan)
        return True
    if isinstance(plan, Path):
        return True
    raise PlanError(f"cannot compile plan node {plan!r}")


def _shard_filter(
    child: _Stream,
    graph: DataflowGraph,
    cache: dict,
    shard: ShardSpec,
) -> _Stream:
    """Cached partition filter turning a replicated stream partitioned."""
    key = ("pfilter", child.key)
    stream = cache.get(key)
    if stream is None:
        filt = ShardPartitionFilterOp(shard.ctx, child.label)
        graph.add(filt)
        graph.connect(child.op, filt, 0)
        stream = cache[key] = _Stream(filt, child.label, key)
    return stream


def _build(
    plan: Plan,
    graph: DataflowGraph,
    cache: dict,
    options: _Options,
    rep: bool = False,
    observed: bool = False,
) -> _Stream:
    """Compile one plan node (and, recursively, its inputs).

    The node is looked up by its share key, so it may come back as an
    operator compiled for a plan that differs only in unobserved output
    labels.  ``observed`` marks consumers that see the label (sinks,
    taps, unlabelled UNIONs, label-reading FILTERs): when the shared
    operator emits another label, they get a relabel stage — a
    single-input :class:`UnionOp`, cached as the RELABEL it is.

    ``rep`` marks the *replication zone*: the subtree feeds a PATH
    operator (directly or through stateless stages), whose windowed
    adjacency needs the full stream on every shard.  Inside the zone,
    PATH nodes compile unpartitioned (their rederivations then stay
    shard-local, preserving serial emission order) and partitioned
    PATTERN outputs are broadcast.  PATTERN inputs reset the zone: joins
    are order-insensitive at the net level, so partitioned streams feed
    them via key exchange instead of replication.  Unsharded compilation
    ignores the flag entirely.
    """
    if options.shard is None:
        rep = False
    share = _share_key(plan, options.memo)
    key = options.key(share, rep)
    stream = cache.get(key)
    if stream is None:
        op, label = _compile_node(plan, graph, cache, options, rep)
        stream = cache[key] = _Stream(op, label, key)
    if observed and stream.label != plan.out_label:
        return _relabel(stream, share, plan.out_label, graph, cache, options, rep)
    return stream


def _relabel(
    stream: _Stream,
    share: Plan,
    label: Label,
    graph: DataflowGraph,
    cache: dict,
    options: _Options,
    rep: bool,
) -> _Stream:
    """The cached relabel stage re-applying ``label`` to ``stream``."""
    key = options.key(Relabel(share, label), rep)
    stage = cache.get(key)
    if stage is None:
        op = UnionOp(label)
        op.relabel_stage = True
        graph.add(op)
        graph.connect(stream.op, op, 0)
        stage = cache[key] = _Stream(op, label, key)
    return stage


def _compile_node(
    plan: Plan,
    graph: DataflowGraph,
    cache: dict,
    options: _Options,
    rep: bool,
) -> tuple[PhysicalOperator, Label]:
    """Build the operator of one uncached node; returns it with the
    label it emits."""
    shard = options.shard
    if shard is not None and rep and isinstance(plan, Pattern):
        # The bare operator is shared with non-zone consumers.
        bare = _build(plan, graph, cache, options)
        if not _stream_partitioned(plan):
            return bare.op, bare.label
        # A partitioned producer inside the replication zone: replicate
        # its output through a broadcast exchange.
        op = ShardBroadcastOp(shard.ctx, shard.allocate(), bare.label)
        graph.add(op)
        graph.connect(bare.op, op, 0)
        return op, bare.label

    if isinstance(plan, WScan):
        source = graph.add_source(plan.label)
        op = WScanOp(plan.label, plan.window, plan.prefilter)
        graph.add(op)
        graph.connect(source, op, 0)
        return op, plan.label
    if isinstance(plan, Filter):
        child = _build(
            plan.child, graph, cache, options, rep, _reads_label(plan.predicate)
        )
        op = FilterOp(plan.predicate)
        graph.add(op)
        graph.connect(child.op, op, 0)
        return op, child.label
    if isinstance(plan, Relabel):
        child = _build(plan.child, graph, cache, options, rep)
        # The degenerate single-input UNION: relabel, payloads preserved.
        op = UnionOp(plan.label)
        graph.add(op)
        graph.connect(child.op, op, 0)
        return op, plan.label
    if isinstance(plan, Union):
        # An unlabelled UNION passes its inputs' labels through.
        observed = plan.label is None
        left = _build(plan.left, graph, cache, options, rep, observed)
        right = _build(plan.right, graph, cache, options, rep, observed)
        if shard is not None and not rep:
            # Mixed input statuses would make the merged stream neither
            # replicated nor partitioned; filter the replicated side to
            # this shard's partition so the union is cleanly partitioned.
            left_part = _stream_partitioned(plan.left)
            right_part = _stream_partitioned(plan.right)
            if left_part and not right_part:
                right = _shard_filter(right, graph, cache, shard)
            elif right_part and not left_part:
                left = _shard_filter(left, graph, cache, shard)
        op = UnionOp(plan.label)
        graph.add(op)
        graph.connect(left.op, op, 0)
        graph.connect(right.op, op, 1)
        return op, plan.out_label
    if isinstance(plan, Pattern):
        op = PatternOp(
            [(c.src_var, c.trg_var) for c in plan.inputs],
            plan.src_var,
            plan.trg_var,
            plan.label,
        )
        graph.add(op)
        port_replicated: list[bool] = []
        for port, conjunct in enumerate(plan.inputs):
            child = _build(conjunct.plan, graph, cache, options)
            if options.coalesce_intermediate:
                child = _stateful_input(conjunct.plan, child, graph, cache, options)
            port_replicated.append(not _stream_partitioned(conjunct.plan))
            graph.connect(child.op, op, port)
        if shard is not None:
            op.configure_shard(shard.ctx, shard.allocate(), port_replicated)
        return op, plan.label
    if isinstance(plan, Path):
        labels = [label for label, _ in plan.inputs]
        if options.path_impl == "spath":
            op = SPathOp(labels, plan.regex, plan.label, options.materialize_paths)
        else:
            op = NegativeTupleRpqOp(
                labels, plan.regex, plan.label, options.materialize_paths
            )
        graph.add(op)
        if shard is not None and not rep:
            op.set_shard(shard.ctx)
        for port, (_, child_plan) in enumerate(plan.inputs):
            child = _build(child_plan, graph, cache, options, rep=True)
            if options.coalesce_intermediate:
                child = _stateful_input(
                    child_plan, child, graph, cache, options, rep=True
                )
            graph.connect(child.op, op, port)
        return op, plan.label
    raise PlanError(f"cannot compile plan node {plan!r}")
