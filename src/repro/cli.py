"""Command-line interface: ``repro-convoy generate | mine | info | serve | stats | query``.

Every subcommand is a thin shell over the :class:`repro.api.ConvoySession`
facade — the same surface library users script against.

Examples::

    repro-convoy generate --kind brinkhoff --out traffic.csv
    repro-convoy mine traffic.csv -m 3 -k 10 --eps 50 --store lsmt
    repro-convoy mine traffic.csv -m 3 -k 10 --eps 50 --algorithm cuts lam=6
    repro-convoy info traffic.csv
    repro-convoy serve traffic.csv -m 3 -k 10 --eps 50 --index-dir ./idx --shards 2x2
    repro-convoy serve traffic.csv -m 3 -k 10 --eps 50 --http 8080
    repro-convoy serve -m 3 -k 10 --eps 50 --index-dir ./idx --durable --http 8080
    repro-convoy query ./idx --time 10:80
    repro-convoy query ./idx --object 42
    repro-convoy stats --port 8080
    repro-convoy lint --strict
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .api import ConvoySession, SchemaError, get_miner, list_miners, miner_names
from .data import (
    generate_brinkhoff,
    generate_tdrive,
    generate_trucks,
    load_csv,
    plant_convoys,
    save_csv,
)
from .storage import STORE_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-convoy",
        description="k/2-hop convoy pattern mining (VLDB 2019 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument(
        "--kind",
        choices=("brinkhoff", "trucks", "tdrive", "planted"),
        default="brinkhoff",
    )
    generate.add_argument("--out", required=True, help="output CSV path")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--scale", type=float, default=1.0, help="size multiplier (>= 0.1)"
    )

    mine = commands.add_parser("mine", help="mine convoys from a CSV dataset")
    mine.add_argument("dataset", help="input CSV (oid,t,x,y)")
    mine.add_argument("-m", type=int, required=True, help="min convoy size")
    mine.add_argument("-k", type=int, required=True, help="min convoy length")
    mine.add_argument("--eps", type=float, required=True, help="distance threshold")
    mine.add_argument(
        "--algorithm",
        choices=miner_names(),
        default="k2hop",
        help="registered mining algorithm (see the `algorithms` subcommand)",
    )
    mine.add_argument(
        "--store",
        choices=STORE_KINDS,
        default="memory",
        help="storage backend to mine from",
    )
    mine.add_argument("--stats", action="store_true", help="print mining statistics")
    mine.add_argument(
        "params",
        nargs="*",
        metavar="name=value",
        help="algorithm-specific parameters, validated against the "
        "algorithm's typed schema (see the `algorithms` subcommand)",
    )

    algorithms = commands.add_parser(
        "algorithms", help="list the registered mining algorithms"
    )
    algorithms.add_argument(
        "--kind", default=None, help="filter by pattern kind (e.g. convoy, flock)"
    )

    info = commands.add_parser("info", help="summarise a CSV dataset")
    info.add_argument("dataset")

    serve = commands.add_parser(
        "serve", help="ingest a CSV feed into a queryable convoy index"
    )
    serve.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="input CSV (oid,t,x,y), replayed as a feed; omit to accept a "
        "live feed over --http only",
    )
    serve.add_argument("-m", type=int, required=True, help="min convoy size")
    serve.add_argument("-k", type=int, required=True, help="min convoy length")
    serve.add_argument("--eps", type=float, required=True, help="distance threshold")
    serve.add_argument(
        "--index-dir",
        default=None,
        help="directory to persist the convoy index into (omit for in-memory)",
    )
    serve.add_argument(
        "--shards",
        default=None,
        help="spatial shard grid, e.g. 1x1, 2x2, 4x2 "
        "(default 2x2 with a dataset, 1x1 for a blank feed)",
    )
    serve.add_argument(
        "--history",
        default="full",
        help="validation window: 'full', or a snapshot count (0 disables)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="threads for per-shard clustering (0 = serial)",
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="after ingesting, keep serving the index over HTTP on PORT "
        "(0 picks a free port; Ctrl-C stops)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --http (default 127.0.0.1)",
    )
    serve.add_argument(
        "--durable",
        action="store_true",
        help="journal the feed and checkpoint into --index-dir so a killed "
        "server resumes mid-feed on restart",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="N",
        help="batches between durable checkpoints (default 64)",
    )
    serve.add_argument(
        "--retain-window",
        type=int,
        metavar="TICKS",
        help="age convoys ending more than TICKS behind the feed frontier "
        "out of the live index (into cold segments with --index-dir)",
    )
    serve.add_argument(
        "--retain-max-rows",
        type=int,
        metavar="N",
        help="cap the live index at N convoys, evicting oldest-ending first",
    )

    lint = commands.add_parser(
        "lint", help="run the project's AST invariant checker over the repo"
    )
    lint.add_argument(
        "root",
        nargs="?",
        default=None,
        help="repo root to lint (default: auto-detected from cwd)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (the CI mode)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    stats = commands.add_parser(
        "stats", help="pretty-print a live server's metrics snapshot"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=8080)
    stats.add_argument(
        "--raw",
        action="store_true",
        help="dump the raw Prometheus exposition from /metrics instead",
    )

    query = commands.add_parser(
        "query", help="query a persisted convoy index"
    )
    query.add_argument("index_dir", help="directory written by `serve --index-dir`")
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument("--time", help="overlap query, as start:end")
    what.add_argument("--object", type=int, help="convoy history of one object id")
    what.add_argument(
        "--containing", help="convoys containing all of these comma-separated oids"
    )
    what.add_argument(
        "--region", help="bbox overlap query, as xmin,ymin,xmax,ymax"
    )

    analytics = commands.add_parser(
        "analytics",
        help="summary-backed analytics over a persisted convoy index",
    )
    analytics.add_argument(
        "index_dir", help="directory written by `serve --index-dir`"
    )
    which = analytics.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--windows", type=int, metavar="WIDTH",
        help="windowed lifetime aggregates (tumbling unless --step)",
    )
    which.add_argument(
        "--top-k", type=int, metavar="K", dest="top_k",
        help="top-k convoys by --by, optionally per --group",
    )
    which.add_argument(
        "--regions", action="store_true",
        help="per-region-cell aggregates ranked by --by",
    )
    which.add_argument(
        "--objects", action="store_true",
        help="per-object aggregates ranked by --by",
    )
    which.add_argument(
        "--pairs", type=int, metavar="K",
        help="top co-travelling object pairs by shared convoy ticks",
    )
    which.add_argument(
        "--neighbors", type=int, metavar="OID",
        help="one object's co-travellers, heaviest first",
    )
    which.add_argument(
        "--components", action="store_true",
        help="co-travel communities at --min-weight shared ticks",
    )
    which.add_argument(
        "--lineage", type=int, metavar="CID",
        help="merge/split stage chains through one convoy",
    )
    analytics.add_argument(
        "--width", type=int,
        help="--top-k: also bucket the ranking into windows of this span",
    )
    analytics.add_argument("--step", type=int, help="window stride (sliding)")
    analytics.add_argument(
        "--origin", type=int, default=0, help="timestamp of window 0"
    )
    analytics.add_argument(
        "--start", type=int, help="only convoys ending at or after this tick"
    )
    analytics.add_argument(
        "--end", type=int, help="only convoys ending at or before this tick"
    )
    analytics.add_argument(
        "--by", help="ranking metric (depends on the analytic)"
    )
    analytics.add_argument(
        "--group", choices=["none", "region"], default="none",
        help="--top-k: one global ranking, or one per region cell",
    )
    analytics.add_argument(
        "--k", type=int, dest="limit", metavar="K",
        help="row limit for --regions/--objects/--neighbors",
    )
    analytics.add_argument(
        "--min-weight", type=int, default=1,
        help="--components: edge threshold in shared ticks",
    )
    analytics.add_argument(
        "--min-common", type=int, default=1,
        help="--lineage: members a stage handover must share",
    )
    analytics.add_argument(
        "--depth", type=int, default=8,
        help="--lineage: max hops up/down the stage graph",
    )
    analytics.add_argument(
        "--cell-size", type=float,
        help="region cell size (default: first convoy's bbox extent)",
    )
    analytics.add_argument(
        "--json", action="store_true", help="emit one JSON object per row"
    )
    return parser


def _generate(args: argparse.Namespace) -> int:
    scale = max(args.scale, 0.1)
    if args.kind == "brinkhoff":
        dataset = generate_brinkhoff(
            max_time=int(120 * scale), obj_begin=int(60 * scale),
            obj_per_time=max(1, int(2 * scale)), seed=args.seed,
        )
    elif args.kind == "trucks":
        from .data import TrucksConfig

        dataset = generate_trucks(
            TrucksConfig(
                n_trucks=max(2, int(10 * scale)),
                n_days=max(1, int(3 * scale)),
                seed=args.seed,
            )
        )
    elif args.kind == "tdrive":
        from .data import TDriveConfig

        dataset = generate_tdrive(
            TDriveConfig(
                n_taxis=max(5, int(80 * scale)),
                duration=max(30, int(120 * scale)),
                seed=args.seed,
            )
        )
    else:  # planted
        workload = plant_convoys(
            n_convoys=max(1, int(4 * scale)),
            n_noise=int(40 * scale),
            duration=max(20, int(100 * scale)),
            seed=args.seed,
        )
        dataset = workload.dataset
        print(f"planted convoys (eps={workload.eps}):")
        for convoy in workload.convoys:
            print(f"  {convoy}")
    save_csv(dataset, args.out)
    info = dataset.info()
    print(
        f"wrote {info.num_points} points, {info.num_objects} objects, "
        f"ticks [{info.start_time}, {info.end_time}] -> {args.out}"
    )
    return 0


def _mine(args: argparse.Namespace) -> int:
    try:
        extras = get_miner(args.algorithm).info.schema.parse_cli(args.params)
        session = (
            ConvoySession.from_csv(args.dataset)
            .algorithm(args.algorithm)
            .params(m=args.m, k=args.k, eps=args.eps, **extras)
            .read_from(args.store)
        )
        result = session.mine()
    except SchemaError as error:  # typed parameter violation
        print(f"schema error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:  # e.g. store-incompatible algorithm
        print(str(error), file=sys.stderr)
        return 2
    for convoy in result.convoys:
        members = ",".join(str(o) for o in sorted(convoy.objects))
        print(f"[{convoy.start},{convoy.end}] {{{members}}}")
    print(f"{len(result.convoys)} convoy(s) found")
    if args.stats:
        print(result.stats.summary())
        if result.source_io is not None:
            print(f"store I/O: {result.source_io}")
    return 0


def _algorithms(args: argparse.Namespace) -> int:
    for info in list_miners():
        if args.kind is not None and info.pattern_kind != args.kind:
            continue
        flags = [info.pattern_kind]
        flags.append("exact" if info.exact else "inexact")
        if info.supports_streaming:
            flags.append("streaming")
        print(f"{info.name:<20s} [{', '.join(flags)}] {info.summary}")
        for param in info.schema:
            print(f"{'':<20s}   {param.summary()}")
    return 0


def _print_convoys(convoys) -> None:
    for convoy in convoys:
        members = ",".join(str(o) for o in sorted(convoy.objects))
        print(f"[{convoy.start},{convoy.end}] {{{members}}}")
    print(f"{len(convoys)} convoy(s)")


def _serve(args: argparse.Namespace) -> int:
    history = args.history
    if history != "full":
        try:
            history = int(history)
        except ValueError:
            print(
                f"bad --history {args.history!r}; expected 'full' or a "
                "non-negative integer",
                file=sys.stderr,
            )
            return 2
    if args.dataset is None and args.http is None:
        print(
            "serve without a dataset accepts feeds over HTTP only; add --http PORT",
            file=sys.stderr,
        )
        return 2
    if args.durable and not args.index_dir:
        print("--durable journals into the index directory; add --index-dir",
              file=sys.stderr)
        return 2
    try:
        dataset = load_csv(args.dataset) if args.dataset else None
        shards = args.shards or ("2x2" if dataset is not None else "1x1")
        session = (
            ConvoySession.from_dataset(dataset)
            if dataset is not None
            else ConvoySession.blank()
        )
        session = (
            session.params(m=args.m, k=args.k, eps=args.eps)
            .shards(shards)
            .history(history)
            .workers(args.workers)
        )
        if args.index_dir:
            session = session.store("lsmt", args.index_dir)
        if args.durable:
            session = session.durable(args.checkpoint_every)
        if args.retain_window is not None or args.retain_max_rows is not None:
            session = session.retain(
                window=args.retain_window, max_rows=args.retain_max_rows
            )
        handle = session.serve() if dataset is not None else session.feed()
    except ValueError as error:  # bad shard spec / history / index reopen
        print(str(error), file=sys.stderr)
        return 2
    if handle.stats.recovered_records or handle.stats.duplicates:
        print(
            f"resumed durable state: {handle.stats.ticks} tick(s) applied, "
            f"{handle.stats.recovered_records} WAL record(s) replayed"
        )
    _print_convoys(handle.convoys)
    print(f"ingest: {handle.stats.summary()}")
    if args.http is not None:
        return _serve_http(handle, dataset, args)
    if args.index_dir:
        print(f"index persisted to {args.index_dir}")
        handle.close()
    return 0


def _serve_http(handle, dataset, args: argparse.Namespace) -> int:
    """Publish an ingested service over HTTP until interrupted."""
    import asyncio

    from .server import serve_http

    def on_start(host: str, port: int) -> None:
        print(f"serving HTTP on http://{host}:{port}  (Ctrl-C stops)",
              flush=True)

    try:
        asyncio.run(
            serve_http(handle, host=args.host, port=args.http,
                       dataset=dataset, on_start=on_start)
        )
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        handle.close()
    return 0


def _query(args: argparse.Namespace) -> int:
    handle = ConvoySession.open(args.index_dir)
    engine = handle.query
    try:
        if args.time is not None:
            start, end = (int(part) for part in args.time.split(":"))
            results = engine.time_range(start, end)
        elif args.object is not None:
            results = engine.object_history(args.object)
        elif args.containing is not None:
            oids = [int(part) for part in args.containing.split(",")]
            results = engine.containing(oids)
        else:
            xmin, ymin, xmax, ymax = (float(p) for p in args.region.split(","))
            results = engine.region((xmin, ymin, xmax, ymax))
    except ValueError as error:
        print(
            f"bad query argument ({error}); expected --time start:end, "
            "--containing oid,oid,..., --region xmin,ymin,xmax,ymax",
            file=sys.stderr,
        )
        handle.close()
        return 2
    _print_convoys(results)
    handle.close()
    return 0


def _analytics(args: argparse.Namespace) -> int:
    import json as _json

    handle = ConvoySession.open(args.index_dir)
    engine = handle.analytics(region_cell_size=args.cell_size)
    try:
        if args.windows is not None:
            rows = engine.windowed(
                args.windows, step=args.step, origin=args.origin,
                start=args.start, end=args.end,
            )
            emit = [row.as_dict() for row in rows]
            text = [
                f"[{r.start},{r.end}] {r.count} convoys, "
                f"mean_duration={r.mean_duration:.2f} "
                f"max_duration={r.max_duration} mean_size={r.mean_size:.2f}"
                for r in rows
            ]
        elif args.top_k is not None:
            rows = engine.top_k(
                args.top_k, by=args.by or "duration", group=args.group,
                width=args.width, step=args.step, origin=args.origin,
                start=args.start, end=args.end,
            )
            emit = [row.as_dict() for row in rows]
            text = []
            for r in rows:
                where = "" if r.cell is None else f" cell={r.cell}"
                when = "" if r.window is None else f" window={r.window}"
                text.append(
                    f"#{r.rank}{when}{where} convoy {r.cid} "
                    f"[{r.start},{r.end}] size={r.size} "
                    f"duration={r.duration}"
                )
        elif args.regions:
            rows = engine.group_by_region(
                by=args.by or "count", k=args.limit,
                start=args.start, end=args.end,
            )
            emit = [row.as_dict() for row in rows]
            text = [
                f"#{r.rank} cell={r.cell} count={r.count} "
                f"total_duration={r.total_duration} max_size={r.max_size}"
                for r in rows
            ]
        elif args.objects:
            rows = engine.group_by_object(
                by=args.by or "total_duration", k=args.limit
            )
            emit = [row.as_dict() for row in rows]
            text = [
                f"#{r.rank} object {r.oid} convoys={r.convoys} "
                f"total_duration={r.total_duration} "
                f"max_duration={r.max_duration}"
                for r in rows
            ]
        elif args.pairs is not None:
            pairs = engine.co_travel_pairs(args.pairs)
            emit = [{"a": a, "b": b, "weight": w} for a, b, w in pairs]
            text = [f"{a} <-> {b}: {w} shared ticks" for a, b, w in pairs]
        elif args.neighbors is not None:
            neighbors = engine.co_travel_neighbors(args.neighbors, args.limit)
            emit = [{"object": o, "weight": w} for o, w in neighbors]
            text = [f"{args.neighbors} <-> {o}: {w} shared ticks"
                    for o, w in neighbors]
        elif args.components:
            components = engine.co_travel_components(args.min_weight)
            emit = [{"members": members} for members in components]
            text = [
                f"component of {len(members)}: "
                + ",".join(str(o) for o in members)
                for members in components
            ]
        else:
            lineage = engine.lineage(
                args.lineage, min_common=args.min_common, depth=args.depth
            )
            emit = [lineage.as_dict()]
            text = [
                f"convoy {lineage.cid} [{lineage.start},{lineage.end}] "
                f"size={lineage.size}",
                "parents: " + (", ".join(
                    f"{s.cid} (shared {s.shared})" for s in lineage.parents
                ) or "none"),
                "children: " + (", ".join(
                    f"{s.cid} (shared {s.shared})" for s in lineage.children
                ) or "none"),
            ] + [
                "chain: " + " -> ".join(str(c) for c in chain)
                for chain in lineage.chains
            ]
    except (KeyError, ValueError) as error:
        print(f"bad analytics argument: {error}", file=sys.stderr)
        handle.close()
        return 2
    if args.json:
        for row in emit:
            print(_json.dumps(row, sort_keys=True))
    else:
        for line in text:
            print(line)
        if not text:
            print("no results")
    handle.close()
    return 0


def _lint(args: argparse.Namespace) -> int:
    """Run the invariant checker; devtools import stays lazy so normal
    subcommands never pay for (or depend on) the lint machinery."""
    from .devtools.lint import main as lint_main

    argv: List[str] = []
    if args.root:
        argv.append(args.root)
    if args.strict:
        argv.append("--strict")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _stats(args: argparse.Namespace) -> int:
    """Fetch and pretty-print a running server's observability snapshot."""
    from .server.client import NO_RETRY, ConvoyClient, ConvoyServerError

    client = ConvoyClient(args.host, args.port, retry=NO_RETRY)
    try:
        if args.raw:
            print(client.metrics_text(), end="")
            return 0
        stats = client.stats()
    except ConvoyServerError as error:
        print(f"cannot fetch stats from {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    finally:
        client.close()

    print(f"server {args.host}:{args.port}")
    print(f"  requests {stats['requests']}  errors {stats['errors']}  "
          f"rejected {stats['rejected']}  timeouts {stats['timeouts']}  "
          f"pending writes {stats['pending_writes']}")
    for route in sorted(stats["by_route"]):
        print(f"    {route:<24s} {stats['by_route'][route]}")
    cache = stats["cache"]
    print(f"  cache: {cache['hits']} hits / {cache['misses']} misses / "
          f"{cache['evictions']} evictions "
          f"({cache['hit_rate'] * 100:.1f}% hit rate)")
    index = stats["index"]
    print(f"  index: {index['convoys']} convoys @ version {index['version']}")
    if stats.get("ingest"):
        ingest = stats["ingest"]
        print(f"  ingest: {ingest['ticks']} ticks, {ingest['points']} points, "
              f"{ingest['closed_convoys']} closed, "
              f"{ingest['duplicates']} duplicates")
    if stats.get("durability"):
        durability = stats["durability"]
        print(f"  durability: {durability['checkpoints']} checkpoints, "
              f"{durability['recovered_records']} records recovered")
    histograms = stats.get("metrics", {}).get("histograms", {})
    timed = sorted(
        (key, h) for key, h in histograms.items() if h["count"]
    )
    if timed:
        print("  latency (p50 / p95 / p99 ms, count):")
        for key, h in timed:
            print(f"    {key:<52s} {h['p50'] * 1e3:8.3f} / "
                  f"{h['p95'] * 1e3:8.3f} / {h['p99'] * 1e3:8.3f}  "
                  f"n={h['count']}")
    traces = stats.get("traces", {})
    slow = traces.get("slow", [])
    if slow:
        print(f"  slow traces (>= {traces['slow_threshold_ms']:g} ms):")
        for record in slow[-5:]:
            print(f"    {record['trace_id']}  {record['name']:<20s} "
                  f"{record['duration_ms']:.1f} ms")
    return 0


def _info(args: argparse.Namespace) -> int:
    info = load_csv(args.dataset).info()
    print(f"points    : {info.num_points}")
    print(f"objects   : {info.num_objects}")
    print(f"time range: [{info.start_time}, {info.end_time}] ({info.duration} ticks)")
    print(f"extent    : {info.width:.1f} x {info.height:.1f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    # argparse cannot match a trailing nargs="*" positional once options
    # intervene (`mine data.csv -m 3 --algorithm cuts lam=6`), so mine's
    # name=value parameters are collected from the leftovers instead.
    args, leftover = parser.parse_known_args(argv)
    if leftover:
        if args.command == "mine" and all(
            not token.startswith("-") for token in leftover
        ):
            args.params = list(args.params) + leftover
        else:
            parser.error(f"unrecognized arguments: {' '.join(leftover)}")
    handlers = {
        "generate": _generate,
        "mine": _mine,
        "algorithms": _algorithms,
        "info": _info,
        "serve": _serve,
        "lint": _lint,
        "stats": _stats,
        "query": _query,
        "analytics": _analytics,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # `repro-convoy stats | head` closes our stdout mid-print; point
        # it at devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
