"""The asyncio service: routing, handlers, subscriptions, graceful drain.

Endpoint surface (one request per connection; bodies are JSON):

=========================================  =================================
``POST /tenants/{t}/queries``              register a query → ``201`` + id
``DELETE /tenants/{t}/queries/{q}``        unregister → ``200``
``POST /tenants/{t}/ingest``               push an edge batch → ``200``
``GET /tenants/{t}/queries/{q}/subscribe`` WebSocket or SSE result stream
``GET /metrics``                           service + per-tenant snapshot
``GET /healthz``                           liveness (``ok`` / ``draining``)
=========================================  =================================

Subscriptions upgrade to WebSocket when the request carries the upgrade
headers and fall back to Server-Sent Events otherwise; both streams
carry the same canonical JSON event objects (see
:mod:`repro.serve.protocol`).  ``?policy=block|drop|disconnect`` and
``?queue=N`` tune the subscriber's backpressure; the first event on
every stream is a ``ready`` notice sent *after* the subscriber is
attached, so a client that waits for it observes every later ingest.

Error mapping: malformed bodies, parse and validation failures → 400;
unknown tenant/query/route → 404; admission-control rejections → 429
(with ``Retry-After`` for rate quotas); out-of-order ingest and
closed-engine conflicts → 409; anything unexpected → 500.

:meth:`GraphStreamServer.shutdown` drains gracefully: stop accepting,
flush each tenant's queued engine work, ``engine.close()``, close every
subscriber queue (subscribers receive their full backlog plus an
end-of-stream notice), then wait for the connection handlers to finish.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback

from repro.engine.session import EngineConfig
from repro.errors import (
    ExecutionError,
    ParseError,
    PlanError,
    QueryValidationError,
    ServeError,
    StreamOrderError,
)
from repro.serve import http
from repro.serve.protocol import (
    ProtocolError,
    dumps,
    parse_ingest,
    parse_register,
)
from repro.serve.subscriptions import BACKPRESSURE_POLICIES, SubscriberQueue
from repro.serve.tenants import (
    AdmissionError,
    NotFoundError,
    ResumeGapError,
    ServerLimits,
    Tenant,
    TenantManager,
)

_BAD_REQUEST = (ProtocolError, ParseError, PlanError, QueryValidationError)


def _json_body(request: http.HttpRequest) -> object:
    try:
        return json.loads(request.body or b"null")
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from None


class GraphStreamServer:
    """The multi-tenant streaming-query service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: ServerLimits | None = None,
        engine_config: EngineConfig | None = None,
        manager: TenantManager | None = None,
    ):
        self.host = host
        self.port = port
        #: a restore passes the rebuilt manager (``TenantManager.restore``)
        self.manager = (
            manager
            if manager is not None
            else TenantManager(limits, engine_config)
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self.started_at: float | None = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, checkpoint_store=None) -> str | None:
        """Graceful drain; see the module docstring for the ordering.

        With ``checkpoint_store``, every tenant is snapshotted into one
        atomic checkpoint on the way down (see
        :meth:`TenantManager.drain_all`); returns the checkpoint id, so
        a relaunch with ``--restore-from`` resumes every query with
        continuous sequence numbers.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        checkpoint_id = await self.manager.drain_all(checkpoint_store)
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=10)
        return checkpoint_id

    # -- connection handling ---------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                request = await http.read_request(reader)
            except http.HttpError as exc:
                writer.write(self._error(exc.status, str(exc)))
                return
            if request is None:
                return
            await self._dispatch(request, reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        except Exception:
            traceback.print_exc()
            try:
                writer.write(self._error(500, "internal server error"))
            except Exception:
                pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request, reader, writer) -> None:
        seg = request.segments
        method = request.method
        try:
            if seg == ("healthz",) and method == "GET":
                status = "draining" if self.manager.draining else "ok"
                writer.write(self._json(200, {"status": status}))
            elif seg == ("metrics",) and method == "GET":
                writer.write(self._json(200, self._metrics()))
            elif (
                len(seg) == 3
                and seg[0] == "tenants"
                and seg[2] == "queries"
                and method == "POST"
            ):
                await self._register(seg[1], request, writer)
            elif (
                len(seg) == 4
                and seg[0] == "tenants"
                and seg[2] == "queries"
                and method == "DELETE"
            ):
                await self._unregister(seg[1], seg[3], writer)
            elif (
                len(seg) == 3
                and seg[0] == "tenants"
                and seg[2] == "ingest"
                and method == "POST"
            ):
                await self._ingest(seg[1], request, writer)
            elif (
                len(seg) == 5
                and seg[0] == "tenants"
                and seg[2] == "queries"
                and seg[4] == "subscribe"
                and method == "GET"
            ):
                await self._subscribe(seg[1], seg[3], request, reader, writer)
            else:
                writer.write(
                    self._error(404, f"no route for {method} {request.path}")
                )
        except _BAD_REQUEST as exc:
            writer.write(self._error(400, str(exc)))
        except NotFoundError as exc:
            writer.write(self._error(404, str(exc)))
        except AdmissionError as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = f"{exc.retry_after:.3f}"
            body = dumps({"error": str(exc)}).encode()
            writer.write(http.response_with_headers(429, body, extra))
        except ServeError as exc:
            # A dead tenant worker or quarantined query: the service is
            # degraded for this target, not misused by the client.
            writer.write(self._error(503, str(exc)))
        except (StreamOrderError, ExecutionError, ResumeGapError) as exc:
            writer.write(self._error(409, str(exc)))
        await writer.drain()

    # -- handlers --------------------------------------------------------
    async def _register(self, tenant_name, request, writer) -> None:
        spec = parse_register(_json_body(request))
        if spec.policy is not None and spec.policy not in BACKPRESSURE_POLICIES:
            raise ProtocolError(
                f"unknown policy {spec.policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        tenant = self.manager.get_or_create(tenant_name)
        qid = await tenant.call(lambda: tenant.register(spec))
        writer.write(self._json(201, {"tenant": tenant_name, "query": qid}))

    async def _unregister(self, tenant_name, qid, writer) -> None:
        tenant = self.manager.get(tenant_name)
        await tenant.call(lambda: tenant.unregister(qid))
        writer.write(self._json(200, {"tenant": tenant_name, "query": qid}))

    async def _ingest(self, tenant_name, request, writer) -> None:
        edges = parse_ingest(_json_body(request))
        tenant = self.manager.get(tenant_name)
        retry_after = tenant.bucket.try_consume(len(edges))
        if retry_after:
            raise AdmissionError(
                f"tenant {tenant_name!r} exceeded its ingest rate quota",
                retry_after=retry_after,
            )
        result = await tenant.call(lambda: tenant.ingest(edges))
        writer.write(self._json(200, result))
        await self.manager.maybe_checkpoint()

    async def _subscribe(self, tenant_name, qid, request, reader, writer):
        tenant = self.manager.get(tenant_name)
        channel = tenant.channel(qid)
        tenant.admit_subscriber()
        policy = (
            request.query.get("policy")
            or channel.policy
            or self.manager.limits.default_policy
        )
        try:
            maxsize = int(
                request.query.get("queue", self.manager.limits.queue_maxsize)
            )
        except ValueError:
            raise ProtocolError("query param 'queue' must be an integer")
        try:
            sub = SubscriberQueue(
                asyncio.get_running_loop(), maxsize=maxsize, policy=policy
            )
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        raw_last = request.query.get("last_seq")
        if raw_last is None:
            raw_last = request.headers.get("last-event-id")
        last_seq = None
        if raw_last is not None:
            try:
                last_seq = int(raw_last)
            except ValueError:
                raise ProtocolError(
                    "resume position ('last_seq' param or Last-Event-ID "
                    "header) must be an integer"
                ) from None
            if last_seq < 0:
                raise ProtocolError("resume position must be >= 0")
        ahead = request.query.get("ahead", "error")
        if ahead not in ("error", "wait"):
            raise ProtocolError(
                f"query param 'ahead' must be 'error' or 'wait', "
                f"got {ahead!r}"
            )
        ready = dumps(
            {"tenant": tenant_name, "query": qid, "policy": policy}
        )
        channel.attach(sub, last_seq, ahead=ahead)
        try:
            if request.wants_websocket():
                await self._stream_websocket(
                    request, reader, writer, sub, ready
                )
            else:
                await self._stream_sse(writer, sub, ready)
        finally:
            channel.detach(sub)
            sub.close()

    async def _stream_websocket(self, request, reader, writer, sub, ready):
        writer.write(http.websocket_handshake(request))
        writer.write(http.ws_frame(ready.encode()))
        await writer.drain()
        closer = asyncio.ensure_future(self._ws_watch_close(reader, writer, sub))
        try:
            while True:
                items = await sub.drain()
                if items is None:
                    break
                writer.write(
                    b"".join(http.ws_frame(m.encode()) for _, m in items)
                )
                await writer.drain()
            reason = sub.close_reason or "end of stream"
            code = closer.result() if closer.done() else 1000
            writer.write(http.ws_close_frame(code, reason))
            await writer.drain()
        finally:
            closer.cancel()

    async def _ws_watch_close(self, reader, writer, sub) -> int:
        """Consume client frames so a close (or EOF) ends the stream;
        returns the close code the stream answers with."""
        while True:
            try:
                frame = await http.ws_read_frame(reader)
            except http.WsFrameTooLarge as exc:
                sub.close(str(exc))
                return http.WS_CLOSE_TOO_BIG
            if frame is None or frame[0] == http.WS_CLOSE:
                sub.close()
                return 1000
            if frame[0] == http.WS_PING:
                writer.write(http.ws_frame(frame[1], http.WS_PONG))

    async def _stream_sse(self, writer, sub, ready) -> None:
        writer.write(http.SSE_HEAD)
        writer.write(http.sse_event(ready, event="ready"))
        await writer.drain()
        while True:
            items = await sub.drain()
            if items is None:
                break
            writer.write(
                b"".join(http.sse_event(m, event_id=s) for s, m in items)
            )
            await writer.drain()
        reason = sub.close_reason or "end of stream"
        writer.write(http.sse_event(dumps({"reason": reason}), event="end"))
        await writer.drain()

    # -- metrics ---------------------------------------------------------
    def _metrics(self) -> dict:
        now = time.time()
        tenants = {}
        for name, tenant in self.manager.tenants.items():
            tenants[name] = self._tenant_metrics(tenant, now)
        return {
            "uptime_seconds": (
                now - self.started_at if self.started_at else 0.0
            ),
            "draining": self.manager.draining,
            "tenant_count": len(tenants),
            "tenants": tenants,
            "checkpoints": {
                "count": self.manager.checkpoint_count,
                "failures": self.manager.checkpoint_failures,
                "last_id": self.manager.last_checkpoint_id,
                "last_at": self.manager.last_checkpoint_at,
            },
        }

    @staticmethod
    def _tenant_metrics(tenant: Tenant, now: float) -> dict:
        last = tenant.engine.last_advance_at
        queries = {}
        for qid, channel in tenant.channels.items():
            queries[qid] = {
                "subscribers": channel.subscriber_count,
                "events_delivered": channel.seq,
                "queue_depths": channel.queue_depths(),
                "quarantined": channel.quarantined,
            }
        state = tenant.engine.state_breakdown()
        return {
            "queries": queries,
            "query_count": len(queries),
            "subscriber_count": tenant.subscriber_count,
            "worker_restarts": tenant.worker_restarts,
            "engine_recoveries": tenant.engine.recoveries,
            "ingested_total": tenant.ingest_meter.total,
            "ingest_rate": round(tenant.ingest_meter.rate(), 3),
            "watermark": tenant.engine.watermark,
            "watermark_lag_seconds": (
                round(now - last, 3) if last is not None else None
            ),
            "state": state,
            "state_rows": sum(b["rows"] for b in state.values()),
            "state_bytes": sum(b["bytes"] for b in state.values()),
        }

    # -- response helpers ------------------------------------------------
    @staticmethod
    def _json(status: int, obj: object) -> bytes:
        return http.response(status, dumps(obj).encode())

    @staticmethod
    def _error(status: int, message: str) -> bytes:
        return http.response(status, dumps({"error": message}).encode())
