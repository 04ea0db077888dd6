"""/metrics exposition and request-id correlation over a live server."""

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import load
from repro.models import build_model
from repro.obs import get_tracer, set_tracing
from repro.obs.log import MAX_REQUEST_ID_LENGTH, configure_logging
from repro.obs.metrics import parse_prometheus
from repro.obs.trace import chrome_trace
from repro.serve import (
    LinkPredictionService,
    ModelRegistry,
    ServeClient,
    ServeHTTPServer,
)
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def dataset():
    return load("codex-s-lite")


@pytest.fixture(scope="module")
def stack(tmp_path_factory, dataset):
    graph = dataset.graph
    registry = ModelRegistry(
        ExperimentStore(tmp_path_factory.mktemp("store")), graph, types=dataset.types
    )
    registry.register(
        "dm", build_model("distmult", graph.num_entities, graph.num_relations, dim=8)
    )
    service = LinkPredictionService(registry)
    server = ServeHTTPServer(service, port=0)
    server.start_background()
    yield service, server
    server.shutdown()
    server.server_close()
    service.close()


def _get(server, path, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read().decode()


def _post(server, path, payload, headers=None):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), json.loads(response.read())


def _logged_lines(stream, event, request_id, timeout=2.0):
    """Parsed log lines of ``event`` for one request id, waiting briefly
    for the handler thread.

    The server writes its ``serve.request`` line *after* flushing the
    response, so the client can observe the response before the line
    exists — poll instead of racing.  For the same reason a handler of an
    earlier request on the shared server can still log into a freshly
    configured stream, so wait for, and keep, only this request's lines.
    """
    deadline = time.monotonic() + timeout
    while True:
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        matched = [
            line
            for line in lines
            if line["event"] == event and line.get("request_id") == request_id
        ]
        if matched or time.monotonic() > deadline:
            return matched
        time.sleep(0.01)


def _traced_events(tracer, name, trace_id, timeout=2.0):
    """The tracer's events once a ``name`` span of ``trace_id`` is among
    them, waiting briefly for the handler thread.

    Like its log line, a request's ``serve.request`` span closes after
    the response is flushed: poll for it instead of racing.
    """
    deadline = time.monotonic() + timeout
    while True:
        events = tracer.events()
        if any(
            event["name"] == name and event.get("trace_id") == trace_id for event in events
        ) or time.monotonic() > deadline:
            return events
        time.sleep(0.01)


class TestMetricsEndpoint:
    def test_exposes_request_counters_latency_and_cache_metrics(self, stack, dataset):
        service, server = stack
        client = ServeClient(base_url=server.url)
        # Two distinct rank queries, then a repeat of the first (cache hit),
        # and one score call — deterministic traffic for the assertions.
        client.rank("dm", "e1", "r0", k=3, candidates="all")
        client.rank("dm", "e2", "r0", k=3, candidates="all")
        client.rank("dm", "e1", "r0", k=3, candidates="all")
        client.score("dm", dataset.graph.test.as_tuples()[:2])

        status, headers, text = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        samples = parse_prometheus(text)

        # qps numerator: requests by endpoint.
        rank_requests = samples[
            ("repro_serve_requests_total", (("endpoint", "rank"),))
        ]
        assert rank_requests >= 3
        assert samples[
            ("repro_serve_requests_total", (("endpoint", "score"),))
        ] >= 1

        # Latency histogram: count/sum plus cumulative buckets ending +Inf.
        lat_count = samples[
            ("repro_serve_request_seconds_count", (("endpoint", "rank"),))
        ]
        assert lat_count == rank_requests
        assert samples[
            ("repro_serve_request_seconds_sum", (("endpoint", "rank"),))
        ] > 0
        inf_bucket = samples[
            (
                "repro_serve_request_seconds_bucket",
                (("endpoint", "rank"), ("le", "+Inf")),
            )
        ]
        assert inf_bucket == lat_count

        # p50/p99 derivable from the live histogram.
        hist = service.metrics.histogram(
            "repro_serve_request_seconds", labels=("endpoint",)
        )
        p50 = hist.quantile(0.5, endpoint="rank")
        p99 = hist.quantile(0.99, endpoint="rank")
        assert 0 < p50 <= p99

        # Cache hit rate: 1 hit out of 3 lookups (at least).
        hits = samples[("repro_serve_cache_hits_total", ())]
        misses = samples[("repro_serve_cache_misses_total", ())]
        assert hits >= 1 and misses >= 2
        hit_rate = samples[("repro_serve_cache_hit_rate", ())]
        assert hit_rate == pytest.approx(hits / (hits + misses))

        # Batch occupancy: every dispatched batch observed.
        assert samples[("repro_serve_batch_size_count", ())] == samples[
            ("repro_serve_batches_total", ())
        ]
        assert samples[("repro_serve_mean_batch_size", ())] > 0
        # Queue drained: depth gauge returns to zero between requests.
        assert samples[("repro_serve_queue_depth", ())] == 0
        assert samples[("repro_serve_uptime_seconds", ())] > 0


class TestRequestId:
    def test_generated_on_header_and_json_body(self, stack):
        _, server = stack
        status, headers, payload = _post(
            server, "/v1/rank", {"model": "dm", "anchor": "e1", "relation": "r0"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == payload["request_id"]
        assert len(payload["request_id"]) == 16

    def test_client_supplied_id_is_echoed(self, stack):
        _, server = stack
        status, headers, payload = _get(
            server, "/healthz", headers={"X-Request-Id": "trace-me-123"}
        )
        body = json.loads(payload)
        assert headers["X-Request-Id"] == "trace-me-123"
        assert body["request_id"] == "trace-me-123"

    def test_error_payloads_carry_the_request_id(self, stack):
        _, server = stack
        request = urllib.request.Request(
            server.url + "/v1/rank",
            data=json.dumps(
                {"model": "nope", "anchor": "e1", "relation": "r0"}
            ).encode(),
            headers={"Content-Type": "application/json", "X-Request-Id": "err-42"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["request_id"] == "err-42"
        assert excinfo.value.headers["X-Request-Id"] == "err-42"
        assert "error" in body

    def test_metrics_response_carries_the_header(self, stack):
        _, server = stack
        _, headers, _ = _get(
            server, "/metrics", headers={"X-Request-Id": "metrics-7"}
        )
        assert headers["X-Request-Id"] == "metrics-7"

    def test_hostile_header_is_sanitized_not_reflected(self, stack):
        # Control characters strip and the id clamps to 128 chars before
        # it is reflected into the response header — a raw \x01 plus an
        # oversized tail stands in for header-injection payloads (urllib
        # itself refuses to send CRLF, which the unit tests cover).
        _, server = stack
        hostile = "evil\x01\x02id-" + "x" * 300
        status, headers, payload = _get(
            server, "/healthz", headers={"X-Request-Id": hostile}
        )
        assert status == 200
        echoed = headers["X-Request-Id"]
        assert echoed == json.loads(payload)["request_id"]
        assert len(echoed) == MAX_REQUEST_ID_LENGTH
        assert echoed.startswith("evilid-")
        assert not any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in echoed)

    def test_all_control_header_falls_back_to_generated_id(self, stack):
        _, server = stack
        status, headers, _ = _get(
            server, "/healthz", headers={"X-Request-Id": "\x01\x02\x03"}
        )
        assert status == 200
        assert len(headers["X-Request-Id"]) == 16  # generated, not empty


class TestContentType:
    def test_metrics_content_type_is_prometheus_text_exposition(self, stack):
        _, server = stack
        _, headers, _ = _get(server, "/metrics")
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"


class TestStructuredRequestLog:
    def test_one_json_line_per_request_with_ids(self, stack):
        _, server = stack
        stream = io.StringIO()
        try:
            configure_logging(stream)
            _post(
                server,
                "/v1/rank",
                {"model": "dm", "anchor": "e1", "relation": "r0"},
                headers={"X-Request-Id": "log-me-1"},
            )
            requests = _logged_lines(stream, "serve.request", "log-me-1")
        finally:
            configure_logging(None)
        assert len(requests) == 1
        line = requests[0]
        assert line["method"] == "POST"
        assert line["path"] == "/v1/rank"
        assert line["status"] == 200
        assert line["seconds"] >= 0.0
        assert line["request_id"] == "log-me-1"
        assert line["trace_id"]

    def test_error_responses_log_their_status(self, stack):
        _, server = stack
        stream = io.StringIO()
        try:
            configure_logging(stream)
            with pytest.raises(urllib.error.HTTPError):
                _post(server, "/v1/rank", {"model": "nope", "anchor": "e1",
                                           "relation": "r0"},
                      headers={"X-Request-Id": "log-me-404"})
            requests = _logged_lines(stream, "serve.request", "log-me-404")
        finally:
            configure_logging(None)
        assert requests and requests[-1]["status"] == 404


class TestCrossProcessCorrelation:
    """One served request under ``engine_workers=2``: the acceptance path.

    A single ``/v1/evaluate`` request must yield (a) a structured log
    line carrying its request id, (b) ``/metrics`` with both per-worker
    telemetry series, and (c) a Chrome-exportable timeline whose serve,
    engine, and worker events all share one trace id — joinable back to
    the log line via the request id.
    """

    @pytest.fixture()
    def pooled_stack(self, tmp_path_factory, dataset):
        graph = dataset.graph
        registry = ModelRegistry(
            ExperimentStore(tmp_path_factory.mktemp("pooled")),
            graph,
            types=dataset.types,
        )
        registry.register(
            "dm",
            build_model("distmult", graph.num_entities, graph.num_relations, dim=8),
        )
        service = LinkPredictionService(registry, engine_workers=2)
        server = ServeHTTPServer(service, port=0)
        server.start_background()
        yield service, server
        set_tracing(False)
        configure_logging(None)
        server.shutdown()
        server.server_close()
        service.close()

    def test_evaluate_request_correlates_logs_metrics_and_trace(
        self, pooled_stack
    ):
        _, server = pooled_stack
        stream = io.StringIO()
        configure_logging(stream)
        tracer = set_tracing(True)

        status, headers, payload = _post(
            server,
            "/v1/evaluate",
            {"model": "dm", "split": "test"},
            headers={"X-Request-Id": "req-eval-1"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "req-eval-1"
        assert payload["metrics"]["mrr"] > 0

        # (a) Correlated log lines: the request line and the engine run
        # it triggered share one trace id.
        [request_line] = _logged_lines(stream, "serve.request", "req-eval-1")
        [engine_line] = _logged_lines(stream, "engine.run", "req-eval-1")
        trace_id = request_line["trace_id"]
        assert engine_line["trace_id"] == trace_id
        assert engine_line["request_id"] == "req-eval-1"
        assert engine_line["workers"] == 2

        # (b) Both workers' telemetry series on /metrics.  The registry
        # is process-global, so restrict to this service's 2-worker pool
        # (other tests' pools may have contributed other worker labels).
        _, _, text = _get(server, "/metrics")
        samples = parse_prometheus(text)
        workers_seen = {
            dict(labels)["worker"]
            for (family, labels) in samples
            if family == "repro_engine_worker_chunks_total"
            and dict(labels)["pool"].startswith("2-")
        }
        assert workers_seen == {"0", "1"}

        # (c) One timeline across processes, exportable to Chrome.
        events = tracer.events()
        on_trace = [
            event for event in events if event.get("trace_id") == trace_id
        ]
        names = {event["name"] for event in on_trace}
        assert "serve.request" in names
        assert "engine.worker.score" in names
        assert len({event["pid"] for event in on_trace}) >= 2  # parent + workers
        exported = chrome_trace(on_trace, metadata={"request_id": "req-eval-1"})
        parsed = json.loads(json.dumps(exported))
        assert parsed["otherData"]["request_id"] == "req-eval-1"
        assert {
            slice["args"]["trace_id"] for slice in parsed["traceEvents"]
        } == {trace_id}

    def test_rank_request_batch_joins_the_request_trace(self, pooled_stack):
        _, server = pooled_stack
        stream = io.StringIO()
        configure_logging(stream)
        tracer = set_tracing(True)
        _post(
            server,
            "/v1/rank",
            {"model": "dm", "anchor": "e1", "relation": "r0"},
            headers={"X-Request-Id": "req-rank-1"},
        )
        [request_line] = _logged_lines(stream, "serve.request", "req-rank-1")
        events = _traced_events(tracer, "serve.request", request_line["trace_id"])
        request_traces = {
            event["trace_id"]
            for event in events
            if event["name"] == "serve.request" and event.get("trace_id")
        }
        batch_traces = {
            event["trace_id"]
            for event in events
            if event["name"] == "serve.batch" and event.get("trace_id")
        }
        # The scheduler adopted a submitting request's context: every
        # batch span rides some request's trace.
        assert batch_traces and batch_traces <= request_traces
