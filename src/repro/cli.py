"""Command-line interface: regenerate paper artefacts from the shell.

Examples
--------
::

    python -m repro table4 DS1 --scale 0.1
    python -m repro table5 DS2
    python -m repro table8
    python -m repro table9 "Exam 62"
    python -m repro run Accu DS1 --scale 0.05
    python -m repro run TDAC+Accu DS1 --scale 0.05 --trace trace.json
    python -m repro run TDAC+Accu DS1 --scale 0.05 --json
    python -m repro leaderboard DS1 --scale 0.05
    python -m repro serve --smoke
    echo '{"op": "stats"}' | python -m repro serve MajorityVote DS1 --scale 0.05
    python -m repro serve MajorityVote DS1 --store-dir /tmp/truth-store
    python -m repro store inspect /tmp/truth-store
    python -m repro store compact /tmp/truth-store
    python -m repro store recover /tmp/truth-store
    python -m repro datasets
    python -m repro algorithms

Every table subcommand prints a paper-style ASCII table to stdout;
``run --json`` emits the versioned ``tdac-result/v1`` schema and
``serve`` speaks JSON lines on stdin/stdout.

The ``--trace`` flag shared by ``run``, ``leaderboard``, ``serve`` and
``scenarios sweep`` lives on one parent parser, so the subcommands
cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import algorithms as algorithm_registry
from repro.algorithms import create
from repro.core import TDAC, TDACConfig
from repro.datasets import available as available_datasets
from repro.datasets import load
from repro.evaluation import (
    format_table,
    performance_table,
    run_algorithm,
    semi_synthetic_experiment,
    table4_experiment,
    table5_experiment,
    table8_experiment,
    table9_experiment,
)


def _trace_parent() -> argparse.ArgumentParser:
    """The shared observability flag of run/leaderboard/serve/sweep."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a per-stage span report (JSON) of the run to PATH",
    )
    return parent


def _config_from_args(args: argparse.Namespace) -> TDACConfig:
    """Fold the parsed seed (and any sweep bounds) into a TDACConfig."""
    return TDACConfig(
        seed=getattr(args, "seed", 0),
        k_max=getattr(args, "k_max", None),
        n_init=getattr(args, "n_init", 10),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TD-AC reproduction: regenerate the paper's tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    traced = _trace_parent()

    table4 = sub.add_parser("table4", help="Tables 4a-4c (synthetic)")
    table4.add_argument("dataset", choices=["DS1", "DS2", "DS3"])
    table4.add_argument("--scale", type=float, default=0.1)
    table4.add_argument(
        "--brute-scale",
        type=float,
        default=None,
        help="scale for the AccuGenPartition rows (omit to skip them)",
    )

    table5 = sub.add_parser("table5", help="Table 5 (chosen partitions)")
    table5.add_argument("dataset", choices=["DS1", "DS2", "DS3"])
    table5.add_argument("--scale", type=float, default=0.05)

    table67 = sub.add_parser("table6", help="Tables 6/7 (semi-synthetic)")
    table67.add_argument("attributes", type=int, choices=[62, 124])
    table67.add_argument("range_size", type=int)

    sub.add_parser("table8", help="Table 8 (real-data statistics)")

    table9 = sub.add_parser("table9", help="Table 9 (real data)")
    table9.add_argument("dataset")

    run = sub.add_parser(
        "run",
        parents=[traced],
        help="run one algorithm on one dataset",
    )
    run.add_argument("algorithm", help="algorithm name, or TDAC+<base>")
    run.add_argument("dataset")
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the tdac-result/v1 JSON schema instead of a table",
    )

    board = sub.add_parser(
        "leaderboard",
        parents=[traced],
        help="rank every algorithm on one dataset",
    )
    board.add_argument("dataset")
    board.add_argument("--scale", type=float, default=1.0)
    board.add_argument("--seed", type=int, default=0)
    board.add_argument(
        "--no-tdac", action="store_true", help="skip the TD-AC-wrapped rows"
    )

    serve = sub.add_parser(
        "serve",
        parents=[traced],
        help="long-lived micro-batching truth service (JSON lines on stdin)",
    )
    serve.add_argument(
        "algorithm", nargs="?", default="MajorityVote",
        help="base algorithm for every refit",
    )
    serve.add_argument(
        "dataset", nargs="?", default="DS1", help="initial corpus to serve"
    )
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--refit",
        choices=["full", "incremental"],
        default="incremental",
        help="deprecated and ignored: every batch takes the exact delta "
        "path, whose snapshots are bit-identical to offline TDAC.run; "
        "'full' warns",
    )
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=64,
        help="claim-count target per micro-batch",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=10.0,
        help="linger for stragglers after a batch's first ticket",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        help="pending-claim bound; admissions beyond it are rejected "
        "with a retry-after hint",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="self-driving ingest/query round trip asserting snapshot "
        "bit-identity; exits non-zero on mismatch",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve the JSON-lines protocol over asyncio TCP instead of "
        "stdin/stdout (port 0 picks a free port, announced as a "
        '{"event": "listening"} line on stdout); SIGINT/SIGTERM drain '
        "gracefully",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="bound on flushing in-flight requests during graceful "
        "drain (with --listen)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="close connections with no complete request for this many "
        "seconds (with --listen)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="per-connection concurrent request cap; excess requests "
        "get an overloaded response with a retry-after hint (with "
        "--listen)",
    )
    serve.add_argument(
        "--max-line-bytes",
        type=int,
        default=1 << 20,
        help="request-line framing bound; longer lines are rejected "
        "loudly and the connection dropped (with --listen)",
    )
    serve.add_argument(
        "--tenants",
        metavar="NAME[,NAME...]",
        default=None,
        help="serve these named tenants multiplexed over a shared "
        "engine; requests route by their 'tenant' field (first name is "
        "the default tenant)",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="per-tenant pending-claims admission quota (with --tenants)",
    )
    serve.add_argument(
        "--k-max",
        type=int,
        default=None,
        help="cap the partition-selection sweep at this k (default: "
        "|A| - 1 per Algorithm 1); bounds per-refit cost when ingest "
        "streams keep growing the attribute set",
    )
    serve.add_argument(
        "--n-init",
        type=int,
        default=10,
        help="k-means restarts per swept k during refits",
    )
    serve.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="durable store directory: admissions are WAL-logged before "
        "they are acknowledged, and a non-empty directory is resumed "
        "via crash recovery",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        help="applied batches between periodic checkpoints (with "
        "--store-dir)",
    )

    store = sub.add_parser(
        "store",
        help="inspect or maintain a durable truth-service store directory",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="print the store's WAL/snapshot structure as JSON"
    )
    inspect.add_argument("store_dir", help="store directory to inspect")
    compact = store_sub.add_parser(
        "compact",
        help="delete sealed WAL segments below the latest checkpoint's "
        "live frontier",
    )
    compact.add_argument("store_dir", help="store directory to compact")
    recover = store_sub.add_parser(
        "recover",
        help="restore the service state from the store, report what was "
        "replayed, and stop once the batcher has cut the checkpoint at "
        "the restored version",
    )
    recover.add_argument("store_dir", help="store directory to recover")
    recover.add_argument(
        "--algorithm",
        default=None,
        help="base algorithm override (defaults to the checkpoint's)",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="adversarial workload generators and degradation sweeps",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )
    scenario_sweep = scenarios_sub.add_parser(
        "sweep",
        parents=[traced],
        help="accuracy/F1-vs-severity curves plus a robustness leaderboard",
    )
    scenario_sweep.add_argument(
        "dataset", nargs="?", default="DS1", help="clean corpus to degrade"
    )
    scenario_sweep.add_argument("--scale", type=float, default=0.05)
    scenario_sweep.add_argument("--seed", type=int, default=0)
    scenario_sweep.add_argument(
        "--scenarios",
        default="copying,drift,reorder",
        help="comma-separated scenario names",
    )
    scenario_sweep.add_argument(
        "--severities",
        default="0,0.25,0.5,0.75,1",
        help="comma-separated severity grid (0 reproduces the clean run)",
    )
    scenario_sweep.add_argument(
        "--algorithms",
        default="TDAC+MajorityVote,MajorityVote,TruthFinder,CRH",
        help="roster: registry names, TDAC+<base>, Routed[<categorical>]",
    )
    scenario_sweep.add_argument(
        "--json",
        action="store_true",
        help="emit records, skips and fingerprinted cell configs as JSON",
    )

    sub.add_parser("datasets", help="list available datasets")
    sub.add_parser("algorithms", help="list available algorithms")

    report = sub.add_parser(
        "report", help="assemble benchmarks/output into one markdown file"
    )
    report.add_argument("--output-dir", default="benchmarks/output")
    report.add_argument("--destination", default="EXPERIMENTS_MEASURED.md")
    return parser


def _make_algorithm(name: str, config: TDACConfig):
    if name.upper().startswith("TDAC+"):
        return TDAC(create(name[5:]), config=config)
    return create(name)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "table4":
        records = table4_experiment(
            args.dataset, scale=args.scale, gen_partition_scale=args.brute_scale
        )
        print(performance_table(records, title=f"Table 4 ({args.dataset})"))
    elif args.command == "table5":
        rows = table5_experiment(args.dataset, scale=args.scale)
        print(
            format_table(
                ["Approach", "Dataset", "Partition"],
                [r.as_row() for r in rows],
                title=f"Table 5 ({args.dataset})",
            )
        )
    elif args.command == "table6":
        records = semi_synthetic_experiment(args.attributes, args.range_size)
        title = "Table 6" if args.attributes == 62 else "Table 7"
        print(
            performance_table(
                records, title=f"{title} (Range {args.range_size})"
            )
        )
    elif args.command == "table8":
        stats = table8_experiment()
        print(
            format_table(
                [
                    "Dataset",
                    "Sources",
                    "Objects",
                    "Attributes",
                    "Observations",
                    "DCR (%)",
                ],
                [s.as_row() for s in stats],
                title="Table 8",
            )
        )
    elif args.command == "table9":
        records = table9_experiment(args.dataset)
        print(performance_table(records, title=f"Table 9 ({args.dataset})"))
    elif args.command == "run":
        config = _config_from_args(args)
        dataset = load(args.dataset, seed=args.seed, scale=args.scale)
        algorithm = _make_algorithm(args.algorithm, config)
        if args.json:
            import json

            if isinstance(algorithm, TDAC):
                payload = algorithm.run(dataset).to_dict()
            else:
                payload = algorithm.discover(dataset).to_dict()
            print(json.dumps(payload, sort_keys=True, default=str))
            return 0
        if args.trace is not None:
            from repro.metrics.timing import Timer
            from repro.observability import SpanTracer, write_trace

            tracer = SpanTracer()
            with Timer() as timer:
                record = run_algorithm(algorithm, dataset, tracer=tracer)
            path = write_trace(
                args.trace,
                tracer,
                total_seconds=timer.elapsed,
                context={
                    "algorithm": args.algorithm,
                    "dataset": args.dataset,
                    "scale": args.scale,
                    "seed": args.seed,
                },
            )
            print(f"trace: {path}")
        else:
            record = run_algorithm(algorithm, dataset)
        print(performance_table([record], title=str(dataset)))
        if record.partition is not None:
            print(f"partition: {record.partition}")
    elif args.command == "leaderboard":
        from repro.evaluation.leaderboard import leaderboard

        config = _config_from_args(args)
        dataset = load(args.dataset, seed=args.seed, scale=args.scale)
        if args.trace is not None:
            from repro.observability import SpanTracer, activate, write_trace

            tracer = SpanTracer()
            with activate(tracer):
                entries = leaderboard(
                    dataset, include_tdac=not args.no_tdac, config=config
                )
            path = write_trace(
                args.trace,
                tracer,
                context={"command": "leaderboard", "dataset": args.dataset},
            )
            print(f"trace: {path}")
        else:
            entries = leaderboard(
                dataset, include_tdac=not args.no_tdac, config=config
            )
        from repro.evaluation.tables import PERFORMANCE_HEADER

        print(
            format_table(
                ("Rank",) + PERFORMANCE_HEADER,
                [entry.as_row() for entry in entries],
                title=f"Leaderboard: {dataset}",
            )
        )
    elif args.command == "serve":
        from repro.serving import (
            ServiceConfig,
            TruthService,
            run_smoke,
            serve_jsonl,
        )

        if args.smoke:
            return run_smoke(args.algorithm, seed=args.seed)
        tracer = None
        if args.trace is not None:
            from repro.observability import SpanTracer

            tracer = SpanTracer()
        service_config = ServiceConfig(
            refit=args.refit,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            queue_capacity=args.queue_capacity,
            snapshot_every=args.snapshot_every,
            drain_timeout=args.drain_timeout,
            idle_timeout=args.idle_timeout,
            max_inflight_per_connection=args.max_inflight,
            max_line_bytes=args.max_line_bytes,
        )
        tenants = (
            [name for name in args.tenants.split(",") if name]
            if args.tenants is not None
            else []
        )
        store = None
        if args.store_dir is not None and not tenants:
            from repro.store import TruthStore

            store = TruthStore(args.store_dir)
        if store is not None and not store.is_empty():
            # Non-empty store: the durable state wins over the dataset
            # flags; resume exactly where the previous process stopped.
            print(
                f"resuming from store {args.store_dir}", file=sys.stderr
            )
            service = TruthService.restore(
                store,
                tracer=tracer,
                service_config=service_config,
            )
        elif tenants:
            from repro.serving import TenantRegistry

            config = _config_from_args(args)
            dataset = load(args.dataset, seed=args.seed, scale=args.scale)
            registry = TenantRegistry(
                store_root=args.store_dir,
                tracer=tracer,
                service_config=service_config,
            )
            for name in tenants:
                registry.register(
                    name,
                    create(args.algorithm),
                    dataset,
                    config=config,
                    quota=args.tenant_quota,
                )
            service = registry
        else:
            config = _config_from_args(args)
            dataset = load(args.dataset, seed=args.seed, scale=args.scale)
            service = TruthService(
                create(args.algorithm),
                dataset,
                config=config,
                service_config=service_config,
                tracer=tracer,
                store=store,
            )
            service.start()
        try:
            if args.listen is not None:
                from repro.serving import serve_network

                code = serve_network(
                    service,
                    args.listen,
                    announce=sys.stdout,
                )
            else:
                code = serve_jsonl(service, sys.stdin, sys.stdout)
        finally:
            # Idempotent: serve_network's graceful drain already stopped
            # the service; this covers the stdin path and error exits.
            service.stop()
        if tracer is not None:
            from repro.observability import write_trace

            path = write_trace(
                args.trace,
                tracer,
                context={
                    "command": "serve",
                    "algorithm": args.algorithm,
                    "dataset": args.dataset,
                    "refit": args.refit,
                },
            )
            print(f"trace: {path}", file=sys.stderr)
        return code
    elif args.command == "store":
        import json

        from repro.store import TruthStore

        store = TruthStore(args.store_dir)
        if args.store_command == "inspect":
            print(json.dumps(store.inspect(), indent=2, sort_keys=True))
        elif args.store_command == "compact":
            outcome = store.compact()
            print(json.dumps(outcome, indent=2, sort_keys=True))
        elif args.store_command == "recover":
            from repro.serving import TruthService

            base = (
                None if args.algorithm is None else create(args.algorithm)
            )
            service = TruthService.restore(store, base)
            # The batcher cuts the restore's checkpoint before it exits.
            service.stop(checkpoint=False)
            recovery_stats = service.stats
            print(
                json.dumps(
                    {
                        "version": recovery_stats["version"],
                        "watermark": recovery_stats["watermark"],
                        "store": recovery_stats["store"],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
    elif args.command == "scenarios":
        from dataclasses import asdict

        from repro.scenarios import (
            LEADERBOARD_HEADER,
            degradation_leaderboard,
            degradation_sweep,
        )

        config = _config_from_args(args)
        dataset = load(args.dataset, seed=args.seed, scale=args.scale)
        sweep_result = degradation_sweep(
            dataset,
            scenarios=tuple(s for s in args.scenarios.split(",") if s),
            severities=tuple(
                float(v) for v in args.severities.split(",") if v
            ),
            algorithms=tuple(a for a in args.algorithms.split(",") if a),
            seed=args.seed,
            config=config,
        )
        if args.json:
            import json

            payload = {
                "schema": "tdac-degradation/v1",
                "dataset": sweep_result.dataset,
                "records": [asdict(r) for r in sweep_result.records],
                "skipped": [asdict(s) for s in sweep_result.skipped],
                "configs": [
                    dict(asdict(c), fingerprint=c.fingerprint)
                    for c in sweep_result.configs
                ],
                "leaderboard": [
                    asdict(row)
                    for row in degradation_leaderboard(sweep_result)
                ],
            }
            print(json.dumps(payload, sort_keys=True))
            return 0
        print(
            format_table(
                ("Scenario", "Severity", "Algorithm", "A", "F1", "FactA"),
                [r.as_row() for r in sweep_result.records],
                title=f"Degradation sweep: {dataset.name}",
            )
        )
        print(
            format_table(
                LEADERBOARD_HEADER,
                [row.as_row() for row in degradation_leaderboard(sweep_result)],
                title="Degradation leaderboard (smallest drop first)",
            )
        )
        for skip in sweep_result.skipped:
            print(f"skipped {skip.algorithm}: {skip.reason}")
    elif args.command == "report":
        from repro.evaluation.report import write_report

        path = write_report(args.output_dir, args.destination)
        print(f"wrote {path}")
    elif args.command == "datasets":
        for name in available_datasets():
            print(name)
    elif args.command == "algorithms":
        for name in algorithm_registry.available():
            print(name)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
