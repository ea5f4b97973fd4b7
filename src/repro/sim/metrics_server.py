"""Live metrics endpoint — poll a running simulation over HTTP.

A :class:`MetricsServer` wraps a running engine, its counter registry,
and (optionally) the trace bus, and serves JSON snapshots from a daemon
thread on stdlib :mod:`http.server` — no third-party dependencies, no
effect on simulation results (reads are snapshot-based and the sim
thread never blocks on the server).

Endpoints:

``/metrics``
    Full snapshot: simulated clock, events processed, pending events,
    every counter, and the newest trace events (bounded tail).
``/counters``
    Counters only (cheap to poll in a tight loop).
``/healthz``
    Liveness probe: ``{"ok": true}``.
``/version``
    Package identity: ``{"name": "repro", "version": ...}``.

Attach to a run with ``run_simulation(..., metrics_port=8123)``, the
``repro-sim serve-metrics`` subcommand, or directly::

    server = MetricsServer(engine, fabric.registry, tracer)
    url = server.start()     # http://127.0.0.1:<port>
    ...
    server.stop()

``port=0`` (the default) binds an ephemeral port — read it back from
``server.port`` after :meth:`~MetricsServer.start`.  The lifecycle is
restartable: ``stop()`` releases the socket and a later ``start()``
re-binds on the *resolved* port (an ephemeral first bind pins the port
number, so the URL stays stable across restarts).

The module also exports the building blocks the job service
(:mod:`repro.service`) embeds: :class:`JsonRequestHandler` (JSON bodies
for every response **including errors** — a machine client never sees
``http.server``'s HTML error pages) and :class:`JsonHttpServer` (the
restartable bind/serve/stop lifecycle), plus :func:`version_payload`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import __version__
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine
from repro.sim.trace import Tracer, trace_event_dict

#: Newest trace events included in a ``/metrics`` response.
TRACE_TAIL = 50


def version_payload() -> dict:
    """The ``/version`` body (shared by metrics and job-service APIs)."""
    return {"name": "repro", "version": __version__}


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request handler base that speaks JSON for *every* response.

    ``send_error`` is overridden so even the paths inside
    :class:`BaseHTTPRequestHandler` itself (malformed request line,
    unsupported method) produce a JSON body — an embedding service never
    leaks the stdlib HTML error page to its machine clients.
    """

    server_version = "repro-sim"

    def send_json(
        self,
        body: dict,
        status: int = 200,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def send_json_error(
        self,
        status: int,
        message: str,
        extra_headers: dict[str, str] | None = None,
        **fields,
    ) -> None:
        self.send_json(
            {"error": message, "status": status, **fields},
            status=status,
            extra_headers=extra_headers,
        )

    def send_error(  # noqa: D102 (stdlib override)
        self, code, message=None, explain=None
    ) -> None:
        try:
            self.send_json_error(code, message or str(code))
        except (BrokenPipeError, ConnectionError, OSError):
            pass  # client already gone; nothing to report to

    def log_message(self, *args) -> None:  # silence per-request noise
        pass


class JsonHttpServer:
    """Restartable stdlib HTTP server lifecycle (bind / serve / stop).

    Subclasses implement :meth:`_handler_class` returning the
    :class:`JsonRequestHandler` subclass that routes their endpoints.
    ``start()`` after ``stop()`` re-binds: the first bind resolves an
    ephemeral ``port=0`` to a concrete port number which later starts
    reuse, so ``url`` is stable across the whole object lifetime.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _handler_class(self) -> type[BaseHTTPRequestHandler]:
        raise NotImplementedError

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """Bound port (resolves an ephemeral ``port=0`` after ``start``)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> str:
        """Bind, start serving from a daemon thread, return the base URL."""
        if self._httpd is not None:
            return self.url
        self._httpd = ThreadingHTTPServer(
            (self._host, self._port), self._handler_class()
        )
        # Pin the resolved port so a stop()/start() cycle re-binds the same
        # port a first ephemeral bind chose (stable URL across restarts).
        self._port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"{type(self).__name__}-http",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class MetricsServer(JsonHttpServer):
    """Serve engine/counter/trace snapshots over HTTP from a daemon thread."""

    def __init__(
        self,
        engine: Engine,
        registry: CounterRegistry,
        tracer: Tracer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_tail: int = TRACE_TAIL,
    ) -> None:
        super().__init__(host=host, port=port)
        self._engine = engine
        self._registry = registry
        self._tracer = tracer
        self._trace_tail = trace_tail

    # -- snapshot payloads ---------------------------------------------------

    def counters_payload(self) -> dict:
        return {"counters": self._registry.snapshot()}

    def metrics_payload(self) -> dict:
        engine = self._engine
        payload = {
            "now_ps": engine.now,
            "now_us": engine.now_us,
            "events_processed": engine.events_processed,
            "pending_events": engine.pending_count,
            "counters": self._registry.snapshot(),
        }
        if self._tracer is not None:
            # events is a deque under max_events — snapshot before slicing
            tail = list(self._tracer.events)[-self._trace_tail:]
            payload["trace_tail"] = [trace_event_dict(e) for e in tail]
        return payload

    # -- request routing -----------------------------------------------------

    def _handler_class(self) -> type[BaseHTTPRequestHandler]:
        server = self

        class Handler(JsonRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path == "/metrics":
                    body = server.metrics_payload()
                elif self.path == "/counters":
                    body = server.counters_payload()
                elif self.path == "/healthz":
                    body = {"ok": True}
                elif self.path == "/version":
                    body = version_payload()
                else:
                    self.send_json_error(404, "unknown endpoint", path=self.path)
                    return
                self.send_json(body)

        return Handler
