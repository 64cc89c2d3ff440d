"""The HTTP/JSON API: routing, payloads, and the byte-identity contract.

The server under test is a real :class:`ThreadingHTTPServer` bound to
an ephemeral port, exercised through :class:`ServiceClient` — the same
client ``repro submit --url`` uses — so these tests cover the wire
format, not just the facade.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.campaign.report import build_report, format_report
from repro.campaign.store import CampaignStore, make_record
from repro.obs import MetricsRegistry
from repro.service import (
    CampaignWorker,
    JobQueue,
    ServiceClient,
    ServiceClientError,
    build_server,
    render_prometheus,
)
from repro.service.api import REPORT_FORMATS

from tests.service.conftest import make_tiny_spec


@pytest.fixture
def server(queue_uri):
    srv = build_server(queue_uri, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10.0)


@pytest.fixture
def client(server):
    host, port = server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}", timeout=30.0)


class TestRoutes:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["depth"]["total"] == 0

    def test_submit_created_then_deduped(self, client, tiny_spec):
        first = client.submit({"spec": tiny_spec.as_dict()})
        assert first["created"] is True
        assert first["job"]["state"] == "queued"
        assert first["job"]["fingerprint"] == tiny_spec.fingerprint()

        second = client.submit({"spec": tiny_spec.as_dict()})
        assert second["created"] is False
        assert second["job"]["fingerprint"] == first["job"]["fingerprint"]
        assert len(client.jobs()["jobs"]) == 1

    def test_submit_by_name(self, client):
        payload = client.submit({"name": "smoke"})
        assert payload["job"]["name"] == "smoke"

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"name": "no-such-campaign"},
            {"name": "smoke", "spec": {"name": "x"}},
            {"spec": {"name": "garbage"}},
        ],
    )
    def test_submit_bad_payload_is_400(self, client, payload):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400

    def test_submit_without_body_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/api/v1/jobs")
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("feedbeef")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/api/v2/nope")
        assert excinfo.value.status == 404

    def test_compare_requires_both_fingerprints(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/api/v1/compare", query={"old": "ab12"})
        assert excinfo.value.status == 400

    def test_status_includes_campaign_completion(self, client, tiny_spec):
        fingerprint = client.submit({"spec": tiny_spec.as_dict()})["job"][
            "fingerprint"
        ]
        status = client.job(fingerprint)
        assert status["job"]["state"] == "queued"
        campaign = status["campaign"]
        assert campaign["n_cells"] == len(tiny_spec.cells())
        assert campaign["n_completed"] == 0
        assert campaign["complete"] is False

    def test_report_unknown_format_is_400(self, client, tiny_spec):
        fingerprint = client.submit({"spec": tiny_spec.as_dict()})["job"][
            "fingerprint"
        ]
        with pytest.raises(ServiceClientError) as excinfo:
            client.report(fingerprint, fmt="pdf")
        assert excinfo.value.status == 400


class TestStatusTolerance:
    def test_status_tolerates_inflight_tail(self, client, queue_uri, tiny_spec):
        """Polling while a worker is mid-append must answer, not 500."""
        if not queue_uri.startswith("jsonl:"):
            pytest.skip("an in-flight tail is a JSONL-driver artefact")
        fingerprint = client.submit({"spec": tiny_spec.as_dict()})["job"][
            "fingerprint"
        ]
        view = JobQueue.open(queue_uri).require(fingerprint)
        store = CampaignStore.open(view.store)
        cell = tiny_spec.cells()[0]
        store.append(
            make_record(cell, {"yield_fraction": 1.0, "n_buffers": 1}, 0.5)
        )
        # A live writer's torn, non-newline-terminated tail.
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "half-writ')

        status = client.job(fingerprint)
        assert status["campaign"]["n_completed"] == 1

    def test_status_while_worker_runs(self, client, queue_uri, tiny_spec):
        """Poll a job continuously while a worker executes it live."""
        fingerprint = client.submit({"spec": tiny_spec.as_dict()})["job"][
            "fingerprint"
        ]
        worker = CampaignWorker(
            JobQueue.open(queue_uri), worker_id="w1", executor="serial"
        )
        thread = threading.Thread(
            target=worker.run, kwargs={"exit_when_idle": True}
        )
        thread.start()
        seen = []
        try:
            while thread.is_alive():
                status = client.job(fingerprint)
                seen.append(status["campaign"]["n_completed"])
        finally:
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        final = client.job(fingerprint)
        assert final["job"]["state"] == "done"
        assert final["campaign"]["complete"] is True
        assert seen == sorted(seen)  # completion count only ever grows


class TestReportAndCompare:
    @pytest.fixture
    def completed_job(self, client, queue_uri, tiny_spec):
        fingerprint = client.submit({"spec": tiny_spec.as_dict()})["job"][
            "fingerprint"
        ]
        worker = CampaignWorker(
            JobQueue.open(queue_uri), worker_id="w1", executor="serial"
        )
        summary = worker.run(exit_when_idle=True)
        assert summary.n_done == 1
        return fingerprint

    def test_report_bytes_identical_to_cli_path(
        self, client, queue_uri, tiny_spec, completed_job
    ):
        """The service-smoke contract: API report == direct report."""
        store_uri = JobQueue.open(queue_uri).require(completed_job).store
        for fmt in REPORT_FORMATS:
            fetched = client.report(completed_job, fmt=fmt)
            direct = format_report(
                build_report(tiny_spec, CampaignStore.open(store_uri)), fmt
            ).encode("utf-8")
            assert fetched == direct

    def test_compare_job_to_itself_is_clean(self, client, completed_job):
        payload = client.compare(completed_job, completed_job)
        comparison = payload["comparison"]
        assert len(comparison["cells"]) > 0
        assert comparison["missing_in_new"] == []
        assert all(
            delta["yield_delta_points"] == 0.0 for delta in comparison["cells"]
        )

    def test_compare_unknown_job_is_404(self, client, completed_job):
        with pytest.raises(ServiceClientError) as excinfo:
            client.compare(completed_job, "feedbeef")
        assert excinfo.value.status == 404


class TestMetrics:
    def test_metrics_exposition(self, client, tiny_spec):
        client.submit({"spec": tiny_spec.as_dict()})
        text = client.metrics()
        assert "# TYPE repro_service_requests counter" in text
        assert "repro_service_jobs_submitted" in text
        assert "repro_service_queue_depth_queued 1" in text
        assert "repro_service_request_seconds_count" in text

    def test_depth_gauges_are_current_at_scrape(self, client, queue_uri, tiny_spec):
        # Queue mutations do not refresh the depth gauges; each scrape does.
        done = client.submit({"spec": tiny_spec.as_dict()})["job"]["fingerprint"]
        client.submit({"spec": make_tiny_spec(seed=9).as_dict()})
        queue = JobQueue.open(queue_uri)
        assert queue.claim("w1", 60.0).fingerprint == done
        queue.complete(done, "w1")
        lines = client.metrics().splitlines()
        for state, value in [("queued", 1), ("leased", 0), ("expired", 0),
                             ("done", 1), ("failed", 0), ("claimable", 1), ("total", 2)]:
            assert f"repro_service_queue_depth_{state} {value}" in lines

    def test_render_prometheus_shapes(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(3)
        registry.gauge("b.level").set(2.5)
        registry.histogram("c.seconds").observe(1.0)
        registry.histogram("c.seconds").observe(3.0)
        text = render_prometheus(registry)
        assert "# TYPE repro_a_count counter\nrepro_a_count 3" in text
        assert "# TYPE repro_b_level gauge\nrepro_b_level 2.5" in text
        assert "repro_c_seconds_count 2" in text
        assert "repro_c_seconds_sum 4" in text
        assert "repro_c_seconds_min 1" in text
        assert "repro_c_seconds_max 3" in text
        assert text.endswith("\n")


class TestWireFormat:
    def test_json_responses_are_sorted_and_terminated(self, client):
        status, body = client._request("GET", "/healthz")
        assert status == 200
        assert body.endswith(b"\n")
        decoded = json.loads(body)
        assert list(decoded) == sorted(decoded)

    def test_client_rejects_non_http_url(self):
        with pytest.raises(ServiceClientError):
            ServiceClient("ftp://example.invalid")


def _raw_exchange(server, request: bytes, timeout: float = 5.0):
    """Send ``request`` bytes on a fresh socket; the status line and body
    of the answer (read by its ``Content-Length``)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        reader = sock.makefile("rb")
        status = reader.readline()
        headers = {}
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, reader.read(int(headers.get("content-length", "0")))


class TestConnections:
    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400(self, server, length):
        """A negative length used to read to EOF (no answer until the
        client hung up) and a non-integer one answered 500."""
        status, body = _raw_exchange(
            server,
            b"POST /api/v1/jobs HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {length}\r\n\r\n{{}}".encode("ascii"),
        )
        assert status.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == f"bad Content-Length {length!r}"

    def test_kept_alive_requests_do_not_stall(self, server):
        """Twenty requests over one persistent connection.  With Nagle's
        algorithm on, each response body waited for the client's delayed
        ACK, ~40 ms per request."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 20 * 0.040 / 2
