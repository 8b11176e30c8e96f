"""Serving tour: checkpoint a model, run the async HTTP server, query it.

The serving slice of the API tour (quickstart.py covers train/eval).
Everything here also works from the shell::

    repro train nyc --save model.npz
    repro serve --checkpoint model.npz --port 8151
    curl -s localhost:8151/predict -d '{"user_id": 7, "prefix": [3, 9], "k": 5}'
    curl -s localhost:8151/stats

Runs in about a minute on a laptop CPU:

    python examples/serving.py
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.serve import HttpFrontend, InferenceServer, ServerConfig, save_checkpoint
from repro.train import TrainConfig, Trainer
from repro.utils import spawn


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    # 1. Train briefly and save a checkpoint (in real deployments the
    #    server starts from `repro train ... --save model.npz`).
    dataset = build_dataset("nyc", seed=7, scale=0.3, imagery_resolution=32)
    splits = split_samples(make_samples(dataset), seed=7)
    model = TSPNRA.from_dataset(
        dataset, TSPNRAConfig(dim=32, fusion_layers=1, hgat_layers=1, top_k=10), rng=spawn(7)
    )
    Trainer(
        model, TrainConfig(epochs=3, batch_size=8, lr=5e-3, max_train_samples=200, seed=7)
    ).fit(splits.train)
    workdir = tempfile.TemporaryDirectory(prefix="repro-serving-")
    checkpoint = save_checkpoint(
        model, Path(workdir.name) / "model.npz", dataset=dataset
    )
    print(f"checkpoint saved to {checkpoint}")

    # 2. The async serving runtime: one inference thread serving the
    #    model through a Predictor, fed by a dynamic micro-batch
    #    scheduler (flush at 16 requests or 5 ms, whichever first), with
    #    a bounded admission queue.  `repro serve` wraps exactly this.
    #    Leaving the `with` also removes the checkpoint's directory.
    config = ServerConfig(max_batch_size=16, max_wait_ms=5.0, max_queue=256)
    with workdir, InferenceServer(model, config=config, dataset=dataset) as server:
        with HttpFrontend(server, port=0) as front:  # port=0: ephemeral
            print(f"serving on {front.url}")

            # 3. /healthz — liveness plus the weights version token.
            print("healthz:", get(front.url + "/healthz"))

            # 4. /predict — one user's in-progress trajectory.  Visits
            #    are {"poi_id", "timestamp"} objects, or bare POI ids
            #    when only the order matters; "history" holds earlier
            #    trajectories and feeds the QR-P graph.
            sample = next((s for s in splits.test if s.history), splits.test[0])
            body = post(
                front.url + "/predict",
                {
                    "user_id": sample.user_id,
                    "prefix": [
                        {"poi_id": v.poi_id, "timestamp": v.timestamp} for v in sample.prefix
                    ],
                    "history": [
                        [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in t.visits]
                        for t in sample.history
                    ],
                    "target": {
                        "poi_id": sample.target.poi_id,
                        "timestamp": sample.target.timestamp,
                    },
                    "k": 5,
                },
            )
            print(f"predict: top-5 {body['top_pois']}, target ranked {body['poi_rank']}")

            # 5. /recommend — the target-less live flavour.
            body = post(
                front.url + "/recommend",
                {"user_id": 0, "prefix": [v.poi_id for v in sample.prefix], "k": 5},
            )
            print(f"recommend: {body['recommendations']}")

            # 6. Concurrent clients are what the scheduler is for: these
            #    eight threads' requests coalesce into micro-batches.
            def client(index):
                s = splits.test[index % len(splits.test)]
                post(front.url + "/predict",
                     {"user_id": s.user_id, "prefix": [v.poi_id for v in s.prefix]})

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # 7. /stats — queue depth and rejections (admission control),
            #    batch sizes, and per-request p50/p95/p99 latency.
            stats = get(front.url + "/stats")
            print(
                f"stats: {stats['requests']['completed']} requests in "
                f"{stats['batches']['count']} batches "
                f"(mean size {stats['batches']['mean_size']:.1f}), "
                f"request p99 {stats['requests']['p99_ms']:.2f} ms"
            )

            # 8. Hot weight reload: POST /reload loads the checkpoint's
            #    weights into the served model, bumping weights_version
            #    so cached embeddings refresh themselves.
            print("reload:", post(front.url + "/reload", {"checkpoint": str(checkpoint)}))
    # leaving the `with` blocks drained in-flight requests and stopped
    # the inference thread and the HTTP listener.
    print("server drained and stopped")


if __name__ == "__main__":
    main()
