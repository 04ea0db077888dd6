"""The HTTP JSON API and the ServeClient over a live server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.datasets import load
from repro.models import build_model
from repro.serve import (
    LinkPredictionService,
    ModelRegistry,
    ServeClient,
    ServeError,
    ServeHTTPServer,
)
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def dataset():
    return load("codex-s-lite")


@pytest.fixture(scope="module")
def stack(tmp_path_factory, dataset):
    """One live server (ephemeral port) shared by the module's tests."""
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


@pytest.fixture
def http_client(stack):
    _, server = stack
    return ServeClient(base_url=server.url)


@pytest.fixture
def local_client(stack):
    service, _ = stack
    return ServeClient(service=service)


class TestEndpoints:
    def test_healthz(self, http_client):
        health = http_client.health()
        assert health["status"] == "ok"
        assert health["models"] == ["dm"]

    def test_models(self, http_client):
        (row,) = http_client.models()
        assert row["name"] == "dm"
        assert row["model"] == "distmult"

    def test_rank_http_equals_in_process(self, http_client, local_client):
        over_http = http_client.rank("dm", "e3", "r0", k=5, candidates="all")
        in_process = local_client.rank("dm", "e3", "r0", k=5, candidates="all")
        # The HTTP payload round-trips through JSON; results must agree
        # exactly (floats serialise losslessly via repr).
        assert over_http["results"] == in_process["results"]
        assert over_http["num_candidates"] == in_process["num_candidates"]

    def test_score_http_equals_in_process(self, http_client, local_client, dataset):
        triples = dataset.graph.test.as_tuples()[:4]
        assert http_client.score("dm", triples) == local_client.score("dm", triples)

    def test_concurrent_http_requests_micro_batch(
        self, stack, http_client, dataset, monkeypatch
    ):
        import threading
        import time

        service, _ = stack
        scheduler = service.scheduler
        # Hold the first scoring call until every request is queued, so the
        # rest arrive while a batch is in flight and must form the next one.
        gate = threading.Event()
        score_batch = scheduler._score_batch

        def gated(key, queries):
            gate.wait(10.0)
            return score_batch(key, queries)

        monkeypatch.setattr(scheduler, "_score_batch", gated)
        requests_before = scheduler.num_requests
        batches_before = scheduler.num_batches
        anchors = [int(h) for h, _, _ in dataset.graph.test.as_tuples()[:16]]
        results = [None] * len(anchors)

        def fetch(i, anchor):
            results[i] = http_client.rank(
                "dm", anchor, "r1", k=3, candidates="all", filter_known=False
            )

        threads = [
            threading.Thread(target=fetch, args=(i, anchor))
            for i, anchor in enumerate(anchors)
        ]
        for t in threads:
            t.start()
        # Nothing is cached while the gate is shut, so every request submits.
        deadline = time.monotonic() + 10.0
        while scheduler.num_requests - requests_before < len(anchors):
            assert time.monotonic() < deadline, "requests never reached the queue"
            time.sleep(0.005)
        gate.set()
        for t in threads:
            t.join()
        assert all(r is not None and len(r["results"]) == 3 for r in results)
        # 16 concurrent same-key requests: the in-flight batch, then the rest.
        assert scheduler.num_batches - batches_before <= 2


class TestErrors:
    def test_unknown_model_is_404(self, http_client):
        with pytest.raises(ServeError) as excinfo:
            http_client.rank("nope", "e0", "r0")
        assert excinfo.value.status == 404
        assert "unknown model" in str(excinfo.value)

    def test_unknown_entity_is_404(self, http_client):
        with pytest.raises(ServeError) as excinfo:
            http_client.rank("dm", "martian", "r0")
        assert excinfo.value.status == 404

    def test_bad_side_is_400(self, http_client):
        with pytest.raises(ServeError) as excinfo:
            http_client.rank("dm", "e0", "r0", side="middle")
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, stack):
        _, server = stack
        request = urllib.request.Request(server.url + "/v2/rank", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404

    def test_malformed_json_is_400(self, stack):
        _, server = stack
        request = urllib.request.Request(
            server.url + "/v1/rank", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_field_is_400(self, stack):
        _, server = stack
        body = json.dumps({"model": "dm", "anchor": 0, "relation": 0, "frob": 1})
        request = urllib.request.Request(
            server.url + "/v1/rank", data=body.encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_missing_field_is_400(self, stack):
        _, server = stack
        request = urllib.request.Request(
            server.url + "/v1/rank", data=b'{"model": "dm"}', method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestClientConstruction:
    def test_exactly_one_target_required(self, stack):
        service, server = stack
        with pytest.raises(ValueError):
            ServeClient()
        with pytest.raises(ValueError):
            ServeClient(service=service, base_url=server.url)
