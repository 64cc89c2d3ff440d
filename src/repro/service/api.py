"""The stdlib-only HTTP/JSON API behind ``repro serve``.

One :class:`~http.server.ThreadingHTTPServer` exposes the job queue to
clients that speak nothing but HTTP:

====== ================================== ==================================
Method Route                              Meaning
====== ================================== ==================================
GET    ``/healthz``                       liveness (also checks the queue
                                          store answers)
GET    ``/metrics``                       Prometheus-style text dump of the
                                          :mod:`repro.obs` metrics registry,
                                          queue depth gauges refreshed per
                                          scrape
POST   ``/api/v1/jobs``                   submit ``{"name": ...}`` or
                                          ``{"spec": {...}}`` (idempotent by
                                          spec fingerprint; 201 on create,
                                          200 on dedupe)
GET    ``/api/v1/jobs``                   list jobs (folded views)
GET    ``/api/v1/jobs/<fp>``              job view + live campaign status
                                          from its result store
GET    ``/api/v1/jobs/<fp>/report``       the campaign report
                                          (``?format=text|markdown|json``)
GET    ``/api/v1/compare?old=..&new=..``  per-cell deltas between two jobs'
                                          result stores
====== ================================== ==================================

The report bytes are produced by exactly the code path ``repro campaign
report`` uses — :func:`~repro.campaign.report.build_report` over the
job's store, then :func:`~repro.campaign.report.format_report` — so a
fetched report is byte-identical to a CLI report over the same spec
(the CI ``service-smoke`` job ``cmp``'s the two).

Status polls read the job's store through the same tolerant
:meth:`CampaignStore.load` the CLI uses, so a live worker's in-flight
(non-newline-terminated) append never surfaces as a transient error.

Every request runs under an obs span (``service.request``) and feeds
request counters/latency histograms, which ``/metrics`` then exports —
the server measures itself.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import MetricsRegistry, get_registry
from repro.obs.trace import span as trace_span
from repro.service.queue import (
    JobNotFound,
    JobQueue,
    JobView,
    ServiceError,
    spec_from_payload,
)

#: Formats the report endpoint accepts (mirrors ``repro campaign report``).
REPORT_FORMATS = ("text", "markdown", "json")

#: Content types per report format.
_REPORT_CONTENT_TYPES = {
    "text": "text/plain; charset=utf-8",
    "markdown": "text/markdown; charset=utf-8",
    "json": "application/json",
}

#: Largest request body the server will read (a spec is a few KB).
MAX_BODY_BYTES = 1 << 20


def _prom_name(name: str) -> str:
    """Metric name → Prometheus identifier (``repro_`` namespaced)."""
    safe = re.sub(r"[^a-zA-Z0-9_]", "_", str(name))
    return f"repro_{safe}"


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Prometheus text exposition of a metrics registry snapshot.

    Counters map to ``counter`` samples, gauges to ``gauge``, and each
    histogram's streaming summary to four gauge samples
    (``_count``/``_sum``/``_min``/``_max``) — the registry keeps no
    buckets, so a faithful summary beats fabricated quantiles.
    """
    snapshot = (registry or get_registry()).snapshot()
    lines = []
    for name, value in snapshot["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {int(value)}")
    for name, value in snapshot["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {float(value):g}")
    for name, summary in snapshot["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}_count {int(summary['count'])}")
        lines.append(f"{prom}_sum {float(summary['total']):g}")
        lines.append(f"{prom}_min {float(summary['min']):g}")
        lines.append(f"{prom}_max {float(summary['max']):g}")
    return "\n".join(lines) + "\n"


class CampaignService:
    """The HTTP-agnostic service facade the request handler calls into.

    Everything here returns plain payloads (or raises
    :class:`ServiceError`/:class:`JobNotFound`), so the same surface
    serves the HTTP handler and in-process callers (tests, future
    transports) identically.
    """

    def __init__(self, queue: JobQueue, pool: Optional[str] = None) -> None:
        self.queue = queue
        self.pool = pool

    # ------------------------------------------------------------------
    def submit(self, payload: Dict[str, object]) -> Tuple[JobView, bool]:
        """Submit a job from an API payload; returns ``(view, created)``."""
        spec = spec_from_payload(payload)
        pool = payload.get("pool", self.pool)
        view, created = self.queue.submit(
            spec, pool=None if pool is None else str(pool)
        )
        if created:
            get_registry().counter("service.jobs.submitted").inc()
        return view, created

    def jobs(self) -> Dict[str, object]:
        return {"jobs": [view.as_dict() for view in self.queue.jobs()]}

    def job_status(self, fingerprint: str) -> Dict[str, object]:
        """Job view plus live campaign completion from its result store.

        The store read goes through ``CampaignStore.load`` — the path
        that tolerates a concurrent writer's in-flight tail — so polls
        against a store a live worker is appending to always answer.
        """
        from repro.campaign.runner import campaign_status
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore

        view = self.queue.require(fingerprint)
        spec = CampaignSpec.from_dict(dict(view.spec))
        status = campaign_status(spec, CampaignStore.open(view.store))
        return {"job": view.as_dict(), "campaign": status.as_dict()}

    def report(self, fingerprint: str, fmt: str = "text") -> Tuple[bytes, str]:
        """Report payload for one job: ``(body, content_type)``.

        Byte-identical to ``repro campaign report --format <fmt>`` over
        the same spec and store, by construction: both call
        ``format_report(build_report(spec, store), fmt)``.
        """
        if fmt not in REPORT_FORMATS:
            raise ServiceError(
                f"unknown report format {fmt!r}; choose from {REPORT_FORMATS}"
            )
        from repro.campaign.report import build_report, format_report
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore

        view = self.queue.require(fingerprint)
        spec = CampaignSpec.from_dict(dict(view.spec))
        report = build_report(spec, CampaignStore.open(view.store))
        return (
            format_report(report, fmt).encode("utf-8"),
            _REPORT_CONTENT_TYPES[fmt],
        )

    def compare(self, old: str, new: str) -> Dict[str, object]:
        """Per-cell deltas between two jobs' result stores."""
        from repro.campaign.compare import compare_stores
        from repro.campaign.store import CampaignStore

        old_view = self.queue.require(old)
        new_view = self.queue.require(new)
        comparison = compare_stores(
            CampaignStore.open(old_view.store), CampaignStore.open(new_view.store)
        )
        return {"old": old_view.fingerprint, "new": new_view.fingerprint,
                "comparison": comparison.as_dict()}

    def health(self) -> Dict[str, object]:
        """Liveness payload (touches the queue store, so it proves I/O)."""
        return {"status": "ok", "queue": self.queue.uri,
                "depth": self.queue.depth().as_dict()}

    def metrics(self) -> str:
        """Prometheus text, with queue-depth gauges refreshed per scrape."""
        self.queue.refresh_depth_gauges()
        return render_prometheus()


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the :class:`CampaignService` facade."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Connections persist (HTTP/1.1) and a response leaves in two writes,
    # headers then body; with Nagle's algorithm on, the body would wait
    # for the client's delayed ACK (~40 ms) on a reused connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: object) -> None:
        # BaseHTTPRequestHandler logs to stderr per request; keep that,
        # but under a stable prefix the CI log collector can grep.
        print(f"[serve] {self.address_string()} {fmt % args}", file=sys.stderr)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(code, body, "application/json")

    def _read_body(self) -> Dict[str, object]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body's end is unknown or it stays unread, so the
            # connection cannot carry another request.
            self.close_connection = True
            if length < 0:
                raise ServiceError(f"bad Content-Length {header!r}")
            raise ServiceError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request needs a JSON body")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        registry = get_registry()
        start = time.perf_counter()
        status = 500
        try:
            with trace_span("service.request", method=method, path=path):
                status = self._dispatch(method, path, query)
        except JobNotFound as error:
            status = 404
            self._send_json(404, {"error": str(error)})
        except ServiceError as error:
            status = 400
            self._send_json(400, {"error": str(error)})
        except BrokenPipeError:
            # Client went away mid-response; nothing left to answer.
            status = 499
        except Exception as error:  # noqa: BLE001 - a handler bug must answer 500, not hang the client
            registry.counter("service.request.errors").inc()
            self._send_json(500, {"error": f"internal error: {error}"})
        finally:
            registry.counter("service.requests").inc()
            registry.counter(f"service.responses.{status // 100}xx").inc()
            registry.histogram("service.request.seconds").observe(
                time.perf_counter() - start
            )

    def _dispatch(self, method: str, path: str, query: Dict[str, str]) -> int:
        service = self.service
        if method == "GET" and path == "/healthz":
            self._send_json(200, service.health())
            return 200
        if method == "GET" and path == "/metrics":
            self._send(200, service.metrics().encode("utf-8"),
                       "text/plain; version=0.0.4; charset=utf-8")
            return 200
        if path == "/api/v1/jobs":
            if method == "POST":
                view, created = service.submit(self._read_body())
                code = 201 if created else 200
                self._send_json(code, {"job": view.as_dict(), "created": created})
                return code
            if method == "GET":
                self._send_json(200, service.jobs())
                return 200
        match = re.fullmatch(r"/api/v1/jobs/([0-9a-f]+)", path)
        if match and method == "GET":
            self._send_json(200, service.job_status(match.group(1)))
            return 200
        match = re.fullmatch(r"/api/v1/jobs/([0-9a-f]+)/report", path)
        if match and method == "GET":
            body, content_type = service.report(
                match.group(1), query.get("format", "text")
            )
            self._send(200, body, content_type)
            return 200
        if method == "GET" and path == "/api/v1/compare":
            old, new = query.get("old"), query.get("new")
            if not old or not new:
                raise ServiceError("compare needs 'old' and 'new' job fingerprints")
            self._send_json(200, service.compare(old, new))
            return 200
        self._send_json(404, {"error": f"no route for {method} {path}"})
        return 404

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._route("POST")


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service facade for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: CampaignService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service


def build_server(
    queue_uri: str,
    host: str = "127.0.0.1",
    port: int = 0,
    pool: Optional[str] = None,
) -> ServiceServer:
    """Bind (but do not start) the API server for one queue.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  Run with ``serve_forever()`` — or, in
    tests, on a daemon thread — and stop with ``shutdown()``.
    """
    service = CampaignService(JobQueue.open(queue_uri), pool=pool)
    return ServiceServer((host, int(port)), service)


def serve(
    queue_uri: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    pool: Optional[str] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the API server until interrupted (the ``repro serve`` loop)."""
    server = build_server(queue_uri, host=host, port=port, pool=pool)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"[serve] listening on http://{bound_host}:{bound_port} "
        f"(queue {server.service.queue.uri})",
        file=sys.stderr,
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    finally:
        server.server_close()


__all__ = [
    "MAX_BODY_BYTES",
    "REPORT_FORMATS",
    "CampaignService",
    "ServiceServer",
    "build_server",
    "render_prometheus",
    "serve",
]
