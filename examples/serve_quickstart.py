"""Serving quickstart: train offline, serve online, query over HTTP.

The full loop of `repro.serve`:

1. train a small model and register its checkpoint under a store root;
2. start the micro-batching service and its stdlib HTTP server;
3. query top-k completions (candidate-filtered) and triple ranks
   (bitwise-identical to the offline engine's) through `ServeClient`;
4. read the health counters that show micro-batching at work.

Run:  python examples/serve_quickstart.py
"""

import tempfile
import threading

from repro.core.ranking import evaluate_full
from repro.datasets import load
from repro.models import Trainer, TrainingConfig, build_model
from repro.serve import (
    LinkPredictionService,
    ModelRegistry,
    ServeClient,
    ServeHTTPServer,
)
from repro.store import ExperimentStore


def main() -> None:
    # 1. Offline: train a checkpoint and register it by name.
    dataset = load("codex-s-lite")
    graph = dataset.graph
    model = build_model("distmult", graph.num_entities, graph.num_relations, dim=16, seed=0)
    Trainer(TrainingConfig(epochs=4, seed=0)).fit(model, graph)

    store = ExperimentStore(tempfile.mkdtemp(prefix="repro-serve-"))
    registry = ModelRegistry(store, graph, types=dataset.types, recommender="l-wd")
    registry.register("prod", model)
    print(f"Registered 'prod' -> {registry.checkpoint_dir / 'prod.npz'}")

    # 2. Online: the service plus an HTTP server on an ephemeral port.
    service = LinkPredictionService(registry, max_batch_size=64)
    server = ServeHTTPServer(service, port=0)
    server.start_background()
    client = ServeClient(base_url=server.url)
    print(f"Serving {graph.name} on {server.url}\n")

    # 3a. Top-k completion, scored inside the static candidate sets.
    response = client.rank("prod", anchor="e17", relation="r3", k=5)
    print(f"Top-5 tails for (e17, r3, ?) over {response['num_candidates']} candidates:")
    for row in response["results"]:
        print(f"  #{row['rank']}  {row['entity']:<6} score={row['score']:+.4f}")

    # 3b. Triple ranks: the offline protocol's numbers, served online.
    triples = graph.test.as_tuples()[:3]
    served = client.score("prod", triples)
    offline = evaluate_full(model, graph)
    print("\nServed rank == offline evaluate_full rank:")
    for row in served:
        query = (row["head_id"], row["relation_id"], row["tail_id"], row["side"])
        print(
            f"  ({row['head']}, {row['relation']}, {row['tail']}) {row['side']:<5}"
            f" rank={row['rank']:<8} offline={offline.ranks[query]:<8}"
            f" match={offline.ranks[query] == row['rank']}"
        )

    # 4. Concurrent clients coalesce into micro-batches.
    def burst(anchor_start: int) -> None:
        for i in range(10):
            client.rank("prod", (anchor_start + i) % graph.num_entities, "r1", k=3)

    threads = [threading.Thread(target=burst, args=(c * 10,)) for c in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    health = client.health()
    scheduler = health["scheduler"]
    print(
        f"\nHealth: {health['status']} | {scheduler['requests']} requests in "
        f"{scheduler['batches']} scoring calls "
        f"(mean batch {scheduler['mean_batch_size']}, "
        f"cache hits {health['cache']['hits']})"
    )

    server.shutdown()
    server.server_close()
    service.close()


if __name__ == "__main__":
    main()
