"""Wrap each layer's public entry points for a traced run, and turn the
spans into the per-layer metrics.

Layers are named after the repository's modules:

* ``frontend`` — :meth:`repro.ql.query.Query.plan` (the ``ql`` /
  ``query`` / ``algebra`` pipeline that turns query text into a plan);
* ``engine`` — the :class:`~repro.engine.session.StreamingGraphEngine`
  session calls (register, push_many, push, delete, checkpoint,
  restore); register covers ``physical.planner`` and ``ql.pipeline``;
* ``dataflow.ingress`` — :class:`~repro.dataflow.executor.Executor`
  (scheduling, vertex interning, window advance);
* ``dataflow.emit`` — ``emit`` / ``emit_sgt`` / ``emit_batch`` and the
  source pushes of :mod:`repro.dataflow.graph`, wrapped per instance;
* ``dataflow.watermark`` — watermark propagation between operators;
* ``physical.<Op>`` — each operator's entry points (``on_event``,
  ``on_batch``, ``on_sge_batch``, ``on_edge``, ``on_edge_columns``,
  ``on_advance``), wrapped on the instance.

The operator entry points are wrapped per instance *after* each
registration, because the arrays state layout rebinds ``on_event`` /
``on_batch`` / ``on_advance`` on the instance when the plan is compiled;
a class-level wrapper would never see those calls and would credit the
work to the producer.  The emit and source-push methods are wrapped per
producer instance too, so their row counts tell which consumer entry
points received work; :meth:`Instrumentation.missing_spans` fails a run
in which an operator entry point that received work has no spans.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.metrics import OPERATORS
from perfbench.tracer import TRACED, Tracer, roots, self_times

#: Operator entry points and the rows each call delivers.
OPERATOR_ENTRIES = {
    "on_event": lambda a: 1,
    "on_batch": lambda a: len(a[1]),
    "on_sge_batch": lambda a: len(a[2]),
    "on_edge": lambda a: 1,
    "on_edge_columns": lambda a: len(a[3]),
    "on_advance": None,
}

#: Root span names the workload loops open.
INGEST = "bench:ingest"
SETUP = "bench:setup"
READ = "bench:read"

EMIT_METHODS = ("emit", "emit_sgt", "emit_batch")

#: Producer methods that hand work downstream, with the consumer entry
#: point a single subscriber receives (the delivery rules of
#: ``repro.dataflow.graph``; at a fanout every subscriber receives
#: ``on_event`` per row) and the rows a call delivers.
DELIVERIES = {
    "emit": ("on_event", None),  # one event unless captured (see _rows)
    "emit_sgt": ("on_event", None),
    "emit_batch": ("on_batch", lambda a: len(a[0])),
    "push_sges": ("on_sge_batch", lambda a: len(a[1])),
    "push_scalar": ("on_edge", lambda a: 1),
    "push_columns": ("on_edge_columns", lambda a: len(a[1])),
}
#: ``SourceOp.push`` hands its event to the (wrapped) ``emit``.
SOURCE_METHODS = ("push", "push_sges", "push_scalar", "push_columns")


def _rows(op, attr: str):
    """The row count of one call of ``op``'s producer method ``attr``.
    An ``emit`` made while the producer captures its emissions into a
    batch delivers nothing; the batch is delivered by ``emit_batch``."""
    if DELIVERIES[attr][1] is not None:
        return DELIVERIES[attr][1]
    return lambda a: op._capture_sgts is None and op._capture_cols is None


class Instrumentation:
    """Installs the wrappers on :meth:`install`, removes them on
    :meth:`uninstall`; records the operator instances the engine
    registers so their entry points can be wrapped."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: operator instances of every traced engine, in creation order
        self.operators: list = []
        #: ids of the operators whose watermark moved while traced
        self.advanced: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._capturing = 0

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        self._patch(cls, attr, self.tracer.wrap(cls.__dict__[attr], name))

    def install(self) -> None:
        from repro.dataflow.executor import Executor
        from repro.dataflow.graph import DataflowGraph, PhysicalOperator
        from repro.engine.session import StreamingGraphEngine
        from repro.ql.query import Query

        self._wrap_method(Query, "plan", "frontend:plan")
        for attr in ("push_many", "push", "delete", "checkpoint", "advance_to"):
            self._wrap_method(StreamingGraphEngine, attr, f"engine:{attr}")
        restore = StreamingGraphEngine.__dict__["restore"].__func__
        self._patch(
            StreamingGraphEngine,
            "restore",
            classmethod(self.tracer.wrap(restore, "engine:restore")),
        )
        register = self.tracer.wrap(
            StreamingGraphEngine.__dict__["register"], "engine:register"
        )
        instrumentation = self

        def register_and_wrap(engine, *args, **kwargs):
            instrumentation._capturing += 1
            try:
                return register(engine, *args, **kwargs)
            finally:
                instrumentation._capturing -= 1
                instrumentation.wrap_operators()

        self._patch(StreamingGraphEngine, "register", register_and_wrap)

        add = DataflowGraph.__dict__["add"]

        def add_and_capture(graph, op):
            if instrumentation._capturing:
                instrumentation.operators.append(op)
            return add(graph, op)

        self._patch(DataflowGraph, "add", add_and_capture)
        for attr in ("run", "push_edge", "delete_edge", "advance_to"):
            self._wrap_method(Executor, attr, f"dataflow.ingress:{attr}")

        receive = PhysicalOperator.__dict__["receive_watermark"]
        advanced = self.advanced

        def receive_and_record(op, port, t):
            # a watermark that moves the operator calls its on_advance
            before = op.watermark
            receive(op, port, t)
            if op.watermark > before:
                advanced.add(id(op))

        self._patch(
            PhysicalOperator,
            "receive_watermark",
            self.tracer.wrap(receive_and_record, "dataflow.watermark:receive"),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap_operators(self) -> None:
        """Wrap the entry points and producer methods of every captured
        operator instance, resolving each through the instance (so
        per-instance rebinding is what gets wrapped).  Producer spans are
        named after their operator's index, and their row counts tell
        :meth:`missing_spans` which producers delivered work."""
        from repro.dataflow.graph import SourceOp

        wrap = self.tracer.wrap
        for index, op in enumerate(self.operators):
            if isinstance(op, SourceOp):
                producer = [(a, f"source_{a}") for a in SOURCE_METHODS]
                producer.append(("emit", "emit"))
                entries = {}
            else:
                producer = [(a, a) for a in EMIT_METHODS]
                entries = OPERATOR_ENTRIES
            for attr, method in producer:
                fn = getattr(op, attr)
                if not getattr(fn, TRACED, False):
                    rows = _rows(op, attr) if attr in DELIVERIES else None
                    op.__dict__[attr] = wrap(
                        fn, f"dataflow.emit:{method}:{index}", rows=rows
                    )
            cls = type(op).__name__
            for attr, rows in entries.items():
                fn = getattr(op, attr, None)
                if fn is None or getattr(fn, TRACED, False):
                    continue
                op.__dict__[attr] = wrap(
                    fn, f"physical.{cls}:{attr}:{index}", owner=op, rows=rows
                )

    def missing_spans(self) -> list[str]:
        """Operator entry points that received work but have no span: a
        tracer that missed them.  Work is what a producer delivered (its
        spans carried rows) and every watermark that moved an operator."""
        from repro.dataflow.graph import SourceOp

        tracer = self.tracer
        counts: dict[int, int] = defaultdict(int)
        for nid in tracer.name_of:
            counts[nid] += 1
        spanned = {name for nid, name in enumerate(tracer.names) if counts[nid]}
        expected: set[tuple[int, str]] = set()
        for nid, name in enumerate(tracer.names):
            if not (name.startswith("dataflow.emit:") and tracer.rows.get(nid)):
                continue
            _, method, index = name.split(":")
            attr = method.removeprefix("source_")
            downstream = self.operators[int(index)]._downstream
            entry = DELIVERIES[attr][0] if len(downstream) == 1 else "on_event"
            expected.update((id(consumer), entry) for consumer, _ in downstream)
        expected.update((oid, "on_advance") for oid in self.advanced)
        missing = []
        for i, op in enumerate(self.operators):
            if isinstance(op, SourceOp):
                continue
            cls = type(op).__name__
            for entry in OPERATOR_ENTRIES:
                if (id(op), entry) in expected and (
                    f"physical.{cls}:{entry}:{i}" not in spanned
                ):
                    missing.append(f"{cls}#{i}.{entry} ({op.name})")
        return missing


def summarize(tracer: Tracer, input_edges: int) -> dict[str, float]:
    """Per-layer metrics of the spans under ingest roots, plus the
    set-up figures of the spans under set-up roots (per set-up)."""
    names = tracer.names
    layer = [n.split(":", 1)[0] for n in names]
    method = [n.split(":")[1] if ":" in n else "" for n in names]
    own = self_times(tracer.parent, tracer.start, tracer.end)
    root = roots(tracer.parent)
    name_of = tracer.name_of
    ingest_id = tracer.name_id(INGEST)
    setup_id = tracer.name_id(SETUP)

    ingest_total = 0.0
    setups = 0
    self_by_layer: dict[str, float] = defaultdict(float)
    setup_by_layer: dict[str, float] = defaultdict(float)
    calls_by_layer: dict[str, int] = defaultdict(int)
    emit_calls = 0
    for i, nid in enumerate(name_of):
        r = name_of[root[i]]
        if r == ingest_id:
            if i == root[i]:
                ingest_total += tracer.end[i] - tracer.start[i]
            self_by_layer[layer[nid]] += own[i]
            calls_by_layer[layer[nid]] += 1
            if layer[nid] == "dataflow.emit" and method[nid] in EMIT_METHODS:
                emit_calls += 1
        elif r == setup_id:
            if i == root[i]:
                setups += 1
            setup_by_layer[layer[nid]] += own[i]
    rows_by_layer: dict[str, int] = defaultdict(int)
    for nid, n in tracer.rows.items():
        rows_by_layer[layer[nid]] += n

    def share(key: str) -> float:
        return self_by_layer.get(key, 0.0) / ingest_total if ingest_total else 0.0

    edges = max(1, input_edges)
    out = {
        "frontend.plan_s": setup_by_layer["frontend"] / max(1, setups),
        "engine.register_s": setup_by_layer["engine"] / max(1, setups),
        "engine.self_share": share("engine"),
        "dataflow.ingress_self_share": share("dataflow.ingress"),
        "dataflow.emit_self_share": share("dataflow.emit"),
        "dataflow.watermark_self_share": share("dataflow.watermark"),
        "dataflow.emit_calls_per_edge": emit_calls / edges,
        "trace.unattributed_share": share("bench"),
        "trace.spans": float(len(tracer)),
    }
    out["dataflow.self_share"] = (
        out["dataflow.ingress_self_share"]
        + out["dataflow.emit_self_share"]
        + out["dataflow.watermark_self_share"]
    )
    for op in OPERATORS:
        key = f"physical.{op}"
        out[f"{key}.self_share"] = share(key)
        out[f"{key}.calls_per_edge"] = calls_by_layer.get(key, 0) / edges
        out[f"{key}.rows_in_per_edge"] = rows_by_layer.get(key, 0) / edges
    return out
