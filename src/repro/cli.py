"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``experiments``            list available experiment ids
``run <id>``               regenerate one paper table/figure
``stats <preset>``         print a dataset preset's statistics
``train <preset>``         train TSPN-RA on a preset and report metrics
``predict <preset>``       serve sample predictions (train or load a checkpoint)
``serve <preset>``         run the async HTTP serving runtime
``serve-bench <preset>``   cached vs uncached vs batched inference throughput
``stream-replay <preset>`` prequential streaming evaluation vs rebuild baseline
``obs-report <a> <b>``     diff two /metrics scrapes into a rate/latency table
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSPN-RA reproduction (ICDE 2024) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment ids")

    run_parser = sub.add_parser("run", help="run one experiment by id")
    run_parser.add_argument("experiment_id")
    run_parser.add_argument("--profile", default=None, choices=("quick", "full"))

    stats_parser = sub.add_parser("stats", help="dataset statistics (Table I row)")
    stats_parser.add_argument("preset")
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument("--scale", type=float, default=0.5)

    train_parser = sub.add_parser("train", help="train TSPN-RA on a preset")
    train_parser.add_argument("preset")
    train_parser.add_argument("--seed", type=int, default=0)
    train_parser.add_argument("--profile", default="quick", choices=("quick", "full"))
    train_parser.add_argument("--save", default=None, metavar="PATH",
                              help="write a reloadable checkpoint after training")

    predict_parser = sub.add_parser(
        "predict", help="serve predictions from a trained model or checkpoint"
    )
    predict_parser.add_argument("preset", nargs="?", default=None,
                                help="dataset preset (omit with --checkpoint)")
    predict_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                                help="load this checkpoint instead of training")
    predict_parser.add_argument("--save", default=None, metavar="PATH",
                                help="write a checkpoint after training")
    predict_parser.add_argument("--model", default="TSPN-RA")
    predict_parser.add_argument("--seed", type=int, default=0)
    predict_parser.add_argument("--profile", default="quick", choices=("quick", "full"))
    predict_parser.add_argument("--samples", type=int, default=8,
                                help="number of test samples to serve")
    predict_parser.add_argument("--top-k", type=int, default=5, dest="top_k")

    serve_parser = sub.add_parser(
        "serve", help="run the async micro-batching HTTP serving runtime"
    )
    serve_parser.add_argument("preset", nargs="?", default=None,
                              help="dataset preset to train on (omit with --checkpoint)")
    serve_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                              help="serve this checkpoint instead of training")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8151,
                              help="listen port (0 picks an ephemeral port)")
    serve_parser.add_argument("--max-batch-size", type=int, default=16,
                              dest="max_batch_size",
                              help="micro-batch flush size")
    serve_parser.add_argument("--max-wait-ms", type=float, default=5.0,
                              dest="max_wait_ms",
                              help="micro-batch flush deadline (ms)")
    serve_parser.add_argument("--queue-size", type=int, default=256,
                              dest="queue_size",
                              help="admission queue bound (excess load gets 429)")
    serve_parser.add_argument("--model", default="TSPN-RA")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--profile", default="quick", choices=("quick", "full"))
    serve_parser.add_argument("--stateful", action="store_true",
                              help="own per-user check-in state: enables "
                                   "POST /checkin and history-less "
                                   "POST /predict {\"user_id\": ...}")
    serve_parser.add_argument("--shards", type=int, default=16,
                              help="state-store lock stripes (with --stateful "
                                   "or --persist)")
    serve_parser.add_argument("--gap-hours", type=float, default=None,
                              dest="gap_hours",
                              help="session-split gap Δt in hours "
                                   "(default: the paper's 72h)")
    serve_parser.add_argument("--max-sessions", type=int, default=64,
                              dest="max_sessions",
                              help="per-user bound on completed sessions "
                                   "kept as QR-P history (with --stateful)")
    serve_parser.add_argument("--persist", default=None, metavar="DIR",
                              help="durable serving: log every acknowledged "
                                   "check-in to DIR and recover state from it "
                                   "on start (implies --stateful)")
    serve_parser.add_argument("--fsync", default="rotate",
                              choices=("always", "rotate", "never"),
                              help="event-log fsync policy (with --persist): "
                                   "'always' syncs every ack, 'rotate' syncs "
                                   "at segment bounds, 'never' trusts OS "
                                   "writeback (default: rotate)")
    serve_parser.add_argument("--snapshot-interval", type=int, default=1000,
                              dest="snapshot_interval",
                              help="events between state snapshots "
                                   "(with --persist; default: 1000)")
    serve_parser.add_argument("--plan-dtype", default="float64",
                              dest="plan_dtype",
                              choices=("float64", "float32"),
                              help="serving precision: float64 serves "
                                   "eagerly, float32 through compiled "
                                   "float32 plans (default: float64)")
    serve_parser.add_argument("--trace-sample", type=float, default=0.01,
                              dest="trace_sample", metavar="RATE",
                              help="fraction of requests to trace end-to-end "
                                   "(0 disables tracing, 1 traces everything; "
                                   "sampled traces feed GET /debug/slow; "
                                   "default: 0.01)")
    serve_parser.add_argument("--quality-window", type=float, default=3600.0,
                              dest="quality_window", metavar="SECONDS",
                              help="sliding window of the prequential quality "
                                   "monitor (with --stateful; 0 disables; "
                                   "default: 3600)")
    serve_parser.add_argument("--quality-topk", type=int, default=20,
                              dest="quality_topk", metavar="K",
                              help="ranked-list depth the quality monitor "
                                   "stores per served prediction "
                                   "(default: 20)")

    bench_parser = sub.add_parser(
        "serve-bench", help="benchmark cached vs uncached vs batched throughput"
    )
    bench_parser.add_argument("preset")
    bench_parser.add_argument("--model", default="TSPN-RA")
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--profile", default="quick", choices=("quick", "full"))
    bench_parser.add_argument("--requests", type=int, default=100,
                              help="number of test samples to serve per pass")
    bench_parser.add_argument("--scale", type=float, default=None,
                              help="override the profile's dataset scale")
    bench_parser.add_argument("--batch-sizes", default="16", dest="batch_sizes",
                              help="comma-separated batch sizes to sweep "
                                   "(e.g. 4,16,32)")
    bench_parser.add_argument("--output", default=None, metavar="PATH",
                              help="write the machine-readable sweep (config + "
                                   "per-batch-size results) to this JSON file "
                                   "(default: benchmarks/results/BENCH_serve.json)")

    replay_parser = sub.add_parser(
        "stream-replay",
        help="prequential streaming replay: ingest-then-predict vs the "
             "serialised full-rebuild baseline",
    )
    replay_parser.add_argument("preset")
    replay_parser.add_argument("--model", default="TSPN-RA")
    replay_parser.add_argument("--seed", type=int, default=0)
    replay_parser.add_argument("--profile", default="quick", choices=("quick", "full"))
    replay_parser.add_argument("--scale", type=float, default=None,
                               help="override the profile's dataset scale")
    replay_parser.add_argument("--max-events", type=int, default=1500,
                               dest="max_events",
                               help="cap on replayed check-ins (0 = all)")
    replay_parser.add_argument("--batch-size", type=int, default=32,
                               dest="batch_size",
                               help="prediction flush size of the streaming leg")
    replay_parser.add_argument("--output", default=None, metavar="PATH",
                               help="write the machine-readable comparison to "
                                    "this JSON file (default: "
                                    "benchmarks/results/BENCH_stream.json)")

    obs_parser = sub.add_parser(
        "obs-report",
        help="diff two /metrics scrapes: rates, latency percentiles, gauges",
    )
    obs_parser.add_argument("before", help="earlier scrape (file path, or - for stdin)")
    obs_parser.add_argument("after", help="later scrape (file path)")
    obs_parser.add_argument("--min-delta", type=float, default=0.0,
                            dest="min_delta",
                            help="hide counters whose delta is below this")
    return parser


def _trained_model(args):
    """Train ``args.model`` per the CLI's preset/profile flags."""
    from .experiments import get_profile, prepare, run_one

    profile = get_profile(args.profile)
    if getattr(args, "scale", None) is not None:
        from dataclasses import replace

        profile = replace(profile, dataset_scale=args.scale)
    data = prepare(args.preset, profile, seed=args.seed)
    _, model = run_one(args.model, data, profile, seed=args.seed)
    return model, data


def _server_config(args):
    from .serve import ServerConfig

    return ServerConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.queue_size,
        plan_dtype=args.plan_dtype,
        trace_sample=args.trace_sample,
        quality_window=getattr(args, "quality_window", 3600.0),
        quality_topk=getattr(args, "quality_topk", 20),
    )


def _store_config(args):
    from .data.trajectory import DEFAULT_GAP_HOURS
    from .stream import StoreConfig

    return StoreConfig(
        num_shards=args.shards,
        max_sessions=args.max_sessions,
        gap_hours=DEFAULT_GAP_HOURS if args.gap_hours is None else args.gap_hours,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "experiments":
        from .experiments import EXPERIMENTS

        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.command == "run":
        from .experiments import get_profile, run

        profile = get_profile(args.profile) if args.profile else None
        result = run(args.experiment_id, profile=profile)
        print(result)
        return 0

    if args.command == "stats":
        from .data import build_dataset, compute_stats

        dataset = build_dataset(args.preset, seed=args.seed, scale=args.scale)
        stats = compute_stats(dataset)
        for field_name, value in vars(stats).items():
            print(f"{field_name:24s} {value}")
        return 0

    if args.command == "train":
        from .experiments import get_profile, prepare, run_one
        from .serve import save_checkpoint

        profile = get_profile(args.profile)
        data = prepare(args.preset, profile, seed=args.seed)
        metrics, model = run_one("TSPN-RA", data, profile, seed=args.seed)
        for name, value in metrics.items():
            print(f"{name:12s} {value:.4f}")
        if args.save:
            path = save_checkpoint(model, args.save, dataset=data.dataset)
            print(f"checkpoint saved to {path}")
        return 0

    if args.command == "predict":
        from .experiments import make_predictor
        from .serve import save_checkpoint

        if args.checkpoint:
            from .data import make_samples, split_samples
            from .serve import load_checkpoint

            try:
                loaded = load_checkpoint(args.checkpoint)
            except FileNotFoundError:
                print(f"predict: checkpoint not found: {args.checkpoint}", file=sys.stderr)
                return 2
            except ValueError as error:  # no dataset recipe, format/POI mismatch
                print(f"predict: cannot load checkpoint: {error}", file=sys.stderr)
                return 2
            model, dataset = loaded.model, loaded.dataset
            split_seed = loaded.meta.get("dataset", {}).get("seed", args.seed)
            splits = split_samples(make_samples(dataset), seed=split_seed)
            if args.save:  # re-save (e.g. to attach the rebuilt dataset recipe)
                path = save_checkpoint(model, args.save, dataset=dataset)
                print(f"checkpoint saved to {path}")
        else:
            if args.preset is None:
                print("predict: provide a preset or --checkpoint", file=sys.stderr)
                return 2
            model, data = _trained_model(args)
            splits = data.splits
            if args.save:
                path = save_checkpoint(model, args.save, dataset=data.dataset)
                print(f"checkpoint saved to {path}")

        predictor = make_predictor(model)
        test = splits.test[: args.samples]
        results = predictor.predict_batch(test)
        for sample, result in zip(test, results):
            top = ", ".join(str(p) for p in result.top_k(args.top_k))
            print(
                f"user {sample.user_id:4d}  target {result.target_poi:5d}  "
                f"rank {result.poi_rank:4d}  top-{args.top_k}: [{top}]"
            )
        stats = predictor.stats
        print(
            f"served {stats.requests} requests in {stats.total_seconds:.3f}s "
            f"({stats.throughput:.1f} samples/s, "
            f"mean latency {stats.mean_latency_ms:.2f} ms)"
        )
        return 0

    if args.command == "serve":
        from .serve import HttpFrontend, InferenceServer

        state_store = None
        ingest = None
        if args.persist:
            # durable serving: recover, then log every ack
            from .cluster import DurableIngest, EventLogWriter, recover_store

            try:
                recovery = recover_store(args.persist, config=_store_config(args))
                log = EventLogWriter(args.persist, fsync=args.fsync,
                                     next_seq=recovery.last_seq + 1)
                ingest = DurableIngest(store=recovery.store, log=log,
                                       snapshot_interval=args.snapshot_interval)
            except (ValueError, RuntimeError) as error:
                print(f"serve: {error}", file=sys.stderr)
                return 2
            print(f"recovered {len(recovery.store)} users from {args.persist} "
                  f"(snapshot seq {recovery.snapshot_seq} + {recovery.replayed} "
                  f"replayed) in {recovery.seconds:.3f}s")
        elif args.stateful:
            from .stream import UserStateStore

            try:
                state_store = UserStateStore(_store_config(args))
            except ValueError as error:  # e.g. --shards 0, --gap-hours -1
                print(f"serve: {error}", file=sys.stderr)
                return 2
        if args.checkpoint:
            try:
                loaded_kwargs = dict(config=_server_config(args))
                if ingest is not None:
                    loaded_kwargs["ingest"] = ingest
                else:
                    loaded_kwargs["state_store"] = state_store
                from .serve import load_checkpoint
                loaded = load_checkpoint(args.checkpoint)
                server = InferenceServer(loaded.model, dataset=loaded.dataset,
                                         **loaded_kwargs)
            except FileNotFoundError:
                print(f"serve: checkpoint not found: {args.checkpoint}", file=sys.stderr)
                return 2
            except ValueError as error:  # no recipe, unknown preset, mismatch
                print(f"serve: cannot load checkpoint: {error}", file=sys.stderr)
                return 2
        else:
            if args.preset is None:
                print("serve: provide a preset or --checkpoint", file=sys.stderr)
                return 2
            model, data = _trained_model(args)
            server = InferenceServer(model, config=_server_config(args),
                                     dataset=data.dataset, state_store=state_store,
                                     ingest=ingest)
        stateful = args.stateful or bool(args.persist)
        server.start()
        front = HttpFrontend(server, host=args.host, port=args.port)
        print(f"serving on {front.url}  ("
              f"max_batch_size={server.config.max_batch_size}, "
              f"max_wait_ms={server.config.max_wait_ms}"
              + (f", stateful: {args.shards} shards" if stateful else "")
              + (f", durable: {args.persist} [{args.fsync}]" if args.persist else "")
              + ")")
        print(f"  POST {front.url}/predict    POST {front.url}/recommend")
        if stateful:
            print(f"  POST {front.url}/checkin    POST {front.url}/predict "
                  "{\"user_id\": ...}")
        print(f"  GET  {front.url}/healthz    GET  {front.url}/stats")
        print(f"  GET  {front.url}/metrics    GET  {front.url}/debug/slow")
        if stateful:
            print(f"  GET  {front.url}/quality")
        try:
            front.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            # a second Ctrl-C must not abort the drain and the final
            # snapshot (server.stop() waits at most its timeout)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            print("\nshutting down (draining in-flight requests)...")
            front.stop()
            server.stop(drain=True)
            if ingest is not None:
                ingest.maybe_snapshot(force=True)
                ingest.log.close()
        return 0

    if args.command == "serve-bench":
        import json
        from pathlib import Path

        from .serve import compare_throughput

        try:
            batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
        except ValueError:
            print(f"serve-bench: bad --batch-sizes {args.batch_sizes!r}", file=sys.stderr)
            return 2
        if not batch_sizes or any(b < 1 for b in batch_sizes):
            print("serve-bench: --batch-sizes needs positive integers", file=sys.stderr)
            return 2

        model, data = _trained_model(args)
        test = data.splits.test[: args.requests]
        results = []
        for batch_size in batch_sizes:
            report = compare_throughput(model, test, batch_size=batch_size)
            print(f"\nbatch_size = {batch_size}")
            for key, value in report.items():
                print(f"{key:18s} {value:10.2f}")
            results.append(
                {"batch_size": batch_size,
                 **{key: round(value, 4) for key, value in report.items()}}
            )

        output = Path(args.output) if args.output else (
            Path(__file__).resolve().parents[2] / "benchmarks" / "results"
            / "BENCH_serve.json"
        )
        output.parent.mkdir(parents=True, exist_ok=True)
        sweep = {
            "bench": "serve",
            "dataset": args.preset,
            "model": args.model,
            "profile": args.profile,
            "seed": args.seed,
            "scale": args.scale,
            "requests": len(test),
            "batch_sizes": batch_sizes,
            "results": results,
        }
        output.write_text(json.dumps(sweep, indent=2) + "\n")
        print(f"\n[serve sweep saved to {output}]")
        return 0

    if args.command == "stream-replay":
        import json
        from pathlib import Path

        from .serve import Predictor
        from .stream import compare_replay, events_from_checkins

        if args.batch_size < 1:
            print("stream-replay: --batch-size must be >= 1", file=sys.stderr)
            return 2
        model, data = _trained_model(args)
        events = events_from_checkins(data.dataset.checkins)
        max_events = None if args.max_events in (0, None) else args.max_events
        predictor = Predictor(model, graph_cache_size=512)
        comparison = compare_replay(
            predictor, events, batch_size=args.batch_size, max_events=max_events
        )
        reports = comparison.pop("_reports")
        for leg in ("baseline", "stream"):
            report = reports[leg]
            print(f"\n{leg}: {report.predictions} predictions over "
                  f"{report.events} events in {report.seconds:.2f}s "
                  f"({report.events_per_second:.1f} events/s)")
            for name, value in report.metrics.items():
                print(f"  {name:12s} {value:.4f}")
        print(f"\nstreaming speedup over serialised rebuild: "
              f"{comparison['speedup']:.2f}x  "
              f"(ranked lists identical: {comparison['ranked_lists_identical']})")

        output = Path(args.output) if args.output else (
            Path(__file__).resolve().parents[2] / "benchmarks" / "results"
            / "BENCH_stream.json"
        )
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(
            {"bench": "stream_replay", "dataset": args.preset,
             "model": args.model, "profile": args.profile, "seed": args.seed,
             "scale": args.scale, **comparison},
            indent=2) + "\n")
        print(f"[stream replay comparison saved to {output}]")
        return 0

    if args.command == "obs-report":
        from pathlib import Path

        from .obs import diff_scrapes, format_report

        def read_scrape(spec: str) -> str:
            if spec == "-":
                return sys.stdin.read()
            path = Path(spec)
            if not path.exists():
                raise FileNotFoundError(spec)
            return path.read_text()

        try:
            before = read_scrape(args.before)
            after = read_scrape(args.after)
        except FileNotFoundError as missing:
            print(f"obs-report: scrape not found: {missing}", file=sys.stderr)
            return 2
        try:
            report = diff_scrapes(before, after)
        except ValueError as error:
            print(f"obs-report: cannot parse scrape: {error}", file=sys.stderr)
            return 2
        print(format_report(report, min_delta=args.min_delta))
        return 0

    return 1  # unreachable: argparse enforces a command


if __name__ == "__main__":
    sys.exit(main())
