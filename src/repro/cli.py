"""Command-line tools.

One console entry point, ``massf``, with four subcommands:

- ``massf map`` — partition a network description (DML) file onto engine
  nodes with TOP, or with PROFILE when given a NetFlow dump directory.
- ``massf emulate`` — run a built-in experiment (topology × application ×
  approach) end to end and print the §4.1.1 metrics as JSON.
- ``massf netflow`` — summarize a NetFlow dump directory (top routers,
  links, flows).
- ``massf sweep`` — repeat an experiment across seeds on the parallel
  runtime (worker processes + content-addressed artifact cache) and print
  mean ± spread statistics; ``--stats out.json`` additionally records a
  structured telemetry snapshot (phase spans, executor/cache counters,
  per-engine-node load timelines).
- ``massf stats`` — render such a telemetry snapshot as a human-readable
  report (optionally exporting CSV tables).
- ``massf check`` — run the :mod:`repro.analysis` static analysis
  (determinism / parity coverage / parallel-safety / telemetry hygiene)
  over the source tree; exit 0 when clean, 2 on findings, 1 on internal
  error.
- ``massf serve`` — run the persistent mapping service (JSON over HTTP
  with warm shared caches; see :mod:`repro.service`).
- ``massf submit`` — submit a request document to a running service and
  (by default) wait for the result.
- ``massf jobs`` — list / inspect / cancel service jobs, dump status and
  metrics, or stream SSE telemetry events.
- ``massf bench service`` — drive a mixed map/sweep batch against a
  private service instance cold then warm and report throughput,
  latency percentiles and the warm/cold speedup (CI-gated via
  ``--min-speedup``).

The historical per-tool entry points (``massf-map``, ``massf-emulate``,
``massf-netflow``) remain as thin deprecation shims.

All commands are plain functions taking ``argv`` so tests can drive them
without subprocesses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["massf", "massf_map", "massf_emulate", "massf_netflow"]


# --------------------------------------------------------------------- #
# massf map
# --------------------------------------------------------------------- #
def _configure_map(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("network", help="network description (DML) file")
    parser.add_argument("-k", "--parts", type=int, required=True,
                        help="number of engine nodes")
    parser.add_argument("--approach", choices=("top", "profile"),
                        default="top")
    parser.add_argument("--netflow-dir",
                        help="NetFlow dump directory (PROFILE only)")
    parser.add_argument("--duration", type=float, default=None,
                        help="profiled run duration in seconds "
                        "(PROFILE only; default: last record time)")
    parser.add_argument("--algorithm", default="multilevel")
    parser.add_argument("--tolerance", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency-priority", type=float, default=0.6)
    parser.add_argument("-o", "--output", help="write assignment here "
                        "instead of stdout")


def _cmd_map(parser: argparse.ArgumentParser, args) -> int:
    from repro.core.mapper import Mapper, MapperConfig
    from repro.profiling.aggregate import ProfileData
    from repro.profiling.dump import load_dump_dir
    from repro.topology import dml

    net = dml.load(args.network)
    config = MapperConfig(
        algorithm=args.algorithm, tolerance=args.tolerance, seed=args.seed,
        latency_priority=args.latency_priority,
    )
    mapper = Mapper(net, n_parts=args.parts, config=config)
    if args.approach == "top":
        mapping = mapper.map_top()
    else:
        if not args.netflow_dir:
            parser.error("--netflow-dir is required for --approach profile")
        records = load_dump_dir(args.netflow_dir)
        if not records:
            parser.error(f"no NetFlow records under {args.netflow_dir}")
        duration = args.duration
        if duration is None:
            duration = max(r.last for r in records) * 1.01
        profile = ProfileData.from_records(records, net, duration=duration)
        initial = mapper.map_top()
        mapping = mapper.map_profile(profile, initial_parts=initial.parts)

    lines = [f"# {mapping.summary()}"]
    lines += [
        f"{node.node_id} {int(mapping.parts[node.node_id])}"
        for node in net.nodes
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------- #
# massf emulate
# --------------------------------------------------------------------- #
def _configure_emulate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", choices=("campus", "teragrid", "brite"),
                        default="campus")
    parser.add_argument("--network",
                        help="custom network description (DML) file "
                        "(overrides --topology; requires -k)")
    parser.add_argument("--spec",
                        help="traffic specification file (overrides --app "
                        "and --intensity; see repro.traffic.spec)")
    parser.add_argument("-k", "--parts", type=int, default=None,
                        help="engine nodes (required with --network)")
    parser.add_argument("--app", choices=("scalapack", "gridnpb", "none"),
                        default="scalapack")
    parser.add_argument("--intensity",
                        choices=("light", "moderate", "heavy"), default=None)
    parser.add_argument("--approaches", default="top,place,profile",
                        help="comma-separated subset of top,place,profile")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the workload duration (seconds)")
    parser.add_argument("--engine", choices=("seq", "par"), default="seq",
                        help="evaluation-emulation engine: seq = batched "
                        "sequential kernel, par = one logical process per "
                        "engine node (bit-identical traces)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (reuses routing "
                        "tables and emulation runs across invocations)")
    parser.add_argument("-o", "--output", help="write JSON here")


#: CLI engine spellings → RunnerConfig / run_kernel engine names.
_ENGINES = {"seq": "sequential", "par": "parallel"}


def _cmd_emulate(parser: argparse.ArgumentParser, args) -> int:
    from repro.experiments.runner import (
        RunnerConfig,
        evaluate_setup,
        evaluate_workload,
    )
    from repro.experiments.setups import (
        brite_setup,
        campus_setup,
        teragrid_setup,
    )
    from repro.runtime.cache import resolve_cache

    cache = resolve_cache(args.cache_dir)
    config = RunnerConfig(engine=_ENGINES[args.engine])
    approaches = tuple(
        a.strip() for a in args.approaches.split(",") if a.strip()
    )
    if args.network or args.spec:
        from repro.experiments.workloads import build_workload
        from repro.topology import dml
        from repro.traffic.spec import parse_spec

        if args.network:
            if args.parts is None:
                parser.error("-k/--parts is required with --network")
            net = dml.load(args.network)
            k = args.parts
        else:
            factory = {"campus": campus_setup, "teragrid": teragrid_setup,
                       "brite": brite_setup}[args.topology]
            setup = factory(args.app)
            net = setup.network
            k = args.parts or setup.n_engine_nodes
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                workload = parse_spec(handle.read(), net, seed=args.seed)
        else:
            wl_kwargs = {}
            if args.intensity:
                wl_kwargs["intensity"] = args.intensity
            if args.duration:
                wl_kwargs["duration"] = args.duration
            workload = build_workload(net, args.app, seed=args.seed,
                                      **wl_kwargs)
        results = evaluate_workload(net, workload, k,
                                    approaches=approaches, seed=args.seed,
                                    config=config, cache=cache)
        described = f"{net.summary()} on {k} engine nodes"
    else:
        factory = {"campus": campus_setup, "teragrid": teragrid_setup,
                   "brite": brite_setup}[args.topology]
        kwargs: dict = {}
        if args.intensity:
            kwargs["intensity"] = args.intensity
        if args.duration:
            kwargs["workload_kwargs"] = {"duration": args.duration}
        setup = factory(args.app, **kwargs)
        results = evaluate_setup(setup, approaches=approaches,
                                 seed=args.seed, config=config, cache=cache)
        described = setup.describe()

    payload = {
        "setup": described,
        "seed": args.seed,
        "engine": _ENGINES[args.engine],
        "approaches": {
            name: {
                "load_imbalance": ev.outcome.load_imbalance,
                "app_emulation_time_s": ev.outcome.app_emulation_time,
                "network_emulation_time_s":
                    ev.outcome.network_emulation_time,
                "lookahead_ms": ev.outcome.lookahead * 1e3,
                "remote_packets": ev.outcome.remote_packets,
                "weighted_edge_cut": ev.outcome.edge_cut,
            }
            for name, ev in results.items()
        },
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------- #
# massf netflow
# --------------------------------------------------------------------- #
def _configure_netflow(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dump_dir", help="directory of router_*.flow files")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking")


def _cmd_netflow(parser: argparse.ArgumentParser, args) -> int:
    from repro.profiling.dump import load_dump_dir

    records = load_dump_dir(args.dump_dir)
    if not records:
        print(f"no NetFlow records under {args.dump_dir}", file=sys.stderr)
        return 1

    by_router: dict[int, int] = {}
    by_link: dict[int, int] = {}
    by_pair: dict[tuple[int, int], int] = {}
    for r in records:
        by_router[r.router] = by_router.get(r.router, 0) + r.packets
        by_link[r.out_link] = by_link.get(r.out_link, 0) + r.packets
        key = (r.src, r.dst)
        by_pair[key] = by_pair.get(key, 0) + r.packets

    total = sum(by_router.values())
    span = max(r.last for r in records) - min(r.first for r in records)
    print(f"{len(records)} records, {total} router-packets, "
          f"{span:.1f}s span")
    print("\ntop routers (packets forwarded):")
    for router, pkts in sorted(by_router.items(), key=lambda kv: -kv[1])[
        : args.top
    ]:
        print(f"  router {router:5d}  {pkts:12d}  {pkts / total:6.1%}")
    print("\ntop links (packets carried):")
    for link, pkts in sorted(by_link.items(), key=lambda kv: -kv[1])[
        : args.top
    ]:
        print(f"  link {link:7d}  {pkts:12d}")
    print("\ntop flows (src -> dst):")
    for (src, dst), pkts in sorted(by_pair.items(), key=lambda kv: -kv[1])[
        : args.top
    ]:
        print(f"  {src:5d} -> {dst:5d}  {pkts:12d}")
    return 0


# --------------------------------------------------------------------- #
# massf sweep
# --------------------------------------------------------------------- #
def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology",
                        choices=("campus", "teragrid", "brite",
                                 "brite-large"),
                        default="campus")
    parser.add_argument("--app", choices=("scalapack", "gridnpb", "none"),
                        default="scalapack")
    parser.add_argument("--intensity",
                        choices=("light", "moderate", "heavy"), default=None)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the workload duration (seconds)")
    parser.add_argument("--seeds", default="1,2,3,4",
                        help="comma-separated seed list")
    parser.add_argument("--approaches", default="top,place,profile",
                        help="comma-separated subset of top,place,profile")
    parser.add_argument("-k", "--parts", type=int, default=None,
                        help="engine-node count override")
    parser.add_argument("-j", "--workers", type=int, default=None,
                        help="worker processes (default: auto; 0 = serial "
                        "in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell soft timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries for crashed / timed-out cells")
    parser.add_argument("--group", choices=("run", "cell"), default="run",
                        help="task granularity: one task per (setup, seed) "
                        "sharing the evaluation emulation, or one per cell")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                        "$MASSF_CACHE_DIR or .massf-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    parser.add_argument("--stats", metavar="PATH",
                        help="collect runtime telemetry and write the JSON "
                        "snapshot here (render it with `massf stats`)")
    parser.add_argument("-o", "--output", help="write JSON here")


def _cmd_sweep(parser: argparse.ArgumentParser, args) -> int:
    from repro.api import sweep
    from repro.runtime.cache import resolve_cache
    from repro.runtime.executor import RuntimeConfig

    try:
        seeds = tuple(
            int(s) for s in args.seeds.split(",") if s.strip()
        )
    except ValueError:
        parser.error(f"bad --seeds value {args.seeds!r}")
    if not seeds:
        parser.error("--seeds must name at least one seed")
    approaches = tuple(
        a.strip() for a in args.approaches.split(",") if a.strip()
    )
    cache = None if args.no_cache else resolve_cache(
        args.cache_dir if args.cache_dir else "default"
    )
    runtime = RuntimeConfig(
        workers=args.workers, timeout_s=args.timeout,
        retries=args.retries, group=args.group,
    )
    telemetry = None
    if args.stats:
        from repro.obs import Telemetry

        telemetry = Telemetry()

    def progress(cell, done, total):
        status = "ok" if cell.ok else "FAILED"
        print(
            f"[{done:3d}/{total}] {cell.setup_name}/{cell.app_name} "
            f"seed={cell.seed} {cell.approach:8s} {status} "
            f"({cell.duration_s:.1f}s)",
            file=sys.stderr,
        )

    try:
        result = sweep(
            args.topology, seeds=seeds, app=args.app, k=args.parts,
            approaches=approaches, intensity=args.intensity,
            duration=args.duration, runtime=runtime, cache=cache,
            progress=None if args.quiet else progress,
            telemetry=telemetry,
        )
    except RuntimeError as exc:
        if telemetry is not None:
            # A partial snapshot is still useful for diagnosing the failure.
            from repro.obs import write_json

            write_json(telemetry, args.stats)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    print(result.render())
    if cache is not None:
        print(cache.stats.summary(), file=sys.stderr)
    if telemetry is not None:
        from repro.obs import write_json

        write_json(telemetry, args.stats)
        print(f"telemetry written to {args.stats} "
              f"(render with `massf stats {args.stats}`)", file=sys.stderr)

    if args.output:
        payload = {
            "setup": result.setup_name,
            "seeds": list(result.seeds),
            "metrics": {
                metric: {
                    name: {"mean": st.mean, "std": st.std,
                           "min": st.min, "max": st.max,
                           "values": list(st.values)}
                    for name, st in getattr(result, metric).items()
                }
                for metric in ("imbalance", "app_time", "network_time")
            },
            "cache": None if cache is None else {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "hit_rate": cache.stats.hit_rate,
            },
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    return 0


# --------------------------------------------------------------------- #
# massf bench
# --------------------------------------------------------------------- #
def _configure_bench(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("what",
                        choices=("partition", "routing", "place", "emulate",
                                 "rebalance", "delta", "service"),
                        help="benchmark suite to run")
    parser.add_argument("--sizes", default="1000,2000,5000",
                        help="comma-separated router counts for the "
                        "synthetic hierarchical topology")
    parser.add_argument("--algorithms", default="multilevel,recursive",
                        help="comma-separated partitioning algorithms "
                        "(partition suite)")
    parser.add_argument("-k", "--parts", type=int, default=16,
                        help="number of parts (engine nodes)")
    parser.add_argument("--tolerance", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for both the generator and the "
                        "partitioners")
    parser.add_argument("--hosts-per-router", type=float, default=1.0)
    parser.add_argument("--metric", default="latency",
                        help="routing metric (routing / place suites)")
    parser.add_argument("--hosts", type=int, default=200,
                        help="foreground endpoints for the place suite "
                        "(all-to-all over the first N hosts)")
    parser.add_argument("--workers", type=int, default=0,
                        help="route-block worker processes for the place "
                        "suite (0 = inline)")
    parser.add_argument("--no-representatives", action="store_true",
                        help="disable the representative-endpoint "
                        "traceroute optimization (place suite)")
    parser.add_argument("--flows", type=int, default=None,
                        help="synthetic transfers per run (default: 4000 "
                        "for the emulate suite, 600 for rebalance)")
    parser.add_argument("--duration", type=float, default=None,
                        help="virtual horizon in seconds (default: 2.0 "
                        "for the emulate suite, 6.0 for rebalance)")
    parser.add_argument("--train-packets", type=int, default=32,
                        help="packets per train (emulate suite)")
    parser.add_argument("--engines", default="reference,sequential,parallel",
                        help="comma-separated subset of reference, "
                        "sequential, parallel (emulate suite)")
    parser.add_argument("--policies",
                        default="static,hysteresis,kurve,rsz",
                        help="comma-separated rebalancing policies "
                        "(rebalance suite)")
    parser.add_argument("--regions", type=int, default=3,
                        help="regions (= LPs) in the diurnal scenario "
                        "(rebalance suite)")
    parser.add_argument("--batch-sizes", default="1,4,16",
                        help="comma-separated change-batch sizes "
                        "(delta suite)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the incremental/warm path beats "
                        "the cold baseline by this factor (delta and "
                        "service suites)")
    parser.add_argument("--routers", type=int, default=1000,
                        help="router count for the service suite topology")
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per phase in the service suite "
                        "mixed map/sweep batch")
    parser.add_argument("--service-workers", type=int, default=2,
                        help="service worker threads (service suite)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="client-side wait timeout per phase in "
                        "seconds (service suite)")
    parser.add_argument("--budget", type=float, default=None,
                        help="per-run wall-time budget in seconds; exceeding "
                        "it fails the command (CI smoke guard)")
    parser.add_argument("--stats", metavar="PATH",
                        help="write a telemetry JSON snapshot here "
                        "(render with `massf stats`)")
    parser.add_argument("--json", action="store_true",
                        help="write the result rows to BENCH_<suite>.json "
                        "in the working directory (CI artifact)")
    parser.add_argument("-o", "--output", help="write the result rows as "
                        "JSON here")


def _bench_sizes(parser: argparse.ArgumentParser, args) -> list[int]:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"bad --sizes value {args.sizes!r}")
    if not sizes:
        parser.error("--sizes must name at least one router count")
    return sizes


def _bench_net(parser: argparse.ArgumentParser, args, n: int):
    from repro.topology.synth import SynthError, synth_network

    try:
        return synth_network(
            n_routers=n, hosts_per_router=args.hosts_per_router,
            seed=args.seed,
        )
    except SynthError as exc:
        parser.error(f"cannot generate n_routers={n}: {exc}")


def _bench_partition(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    import time

    from repro.core.graphbuild import network_csr
    from repro.partition.api import part_graph, resolve_algorithm

    try:
        algorithms = [
            resolve_algorithm(a)
            for a in args.algorithms.split(",")
            if a.strip()
        ]
    except ValueError as exc:
        parser.error(str(exc))
    if not algorithms:
        parser.error("--algorithms must name at least one algorithm")

    rows: list[dict] = []
    over_budget: list[str] = []
    print(f"{'routers':>8s} {'algorithm':<12s} {'wall_s':>8s} "
          f"{'cut':>12s} {'imbalance':>9s}")
    for n in _bench_sizes(parser, args):
        with telemetry.span(f"bench/generate/n{n}"):
            net = _bench_net(parser, args, n)
            graph, _ = network_csr(net)
        telemetry.count("bench.vertices", graph.n)
        for algo in algorithms:
            start = time.perf_counter()
            with telemetry.span(f"bench/partition/n{n}/{algo}"):
                result = part_graph(
                    graph, args.parts, algorithm=algo,
                    tolerance=args.tolerance, seed=args.seed,
                    telemetry=telemetry,
                )
            wall = time.perf_counter() - start
            telemetry.count("bench.runs")
            telemetry.gauge(f"bench.wall_s.n{n}.{algo}", wall)
            row = {
                "n_routers": n,
                "n_vertices": graph.n,
                "algorithm": algo,
                "k": args.parts,
                "wall_s": wall,
                "weighted_cut": result.weighted_cut,
                "edge_cut": result.edge_cut,
                "max_imbalance": result.max_imbalance,
            }
            rows.append(row)
            print(f"{n:8d} {algo:<12s} {wall:8.2f} "
                  f"{result.weighted_cut:12.4g} {result.max_imbalance:9.3f}")
            if args.budget is not None and wall > args.budget:
                over_budget.append(
                    f"n={n} {algo}: {wall:.2f}s > budget {args.budget:.2f}s"
                )
    return rows, over_budget


def _bench_routing(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    import time

    from repro.routing.perf import RoutingStats
    from repro.routing.spf import build_routing
    from repro.routing.tables import METRICS

    if args.metric not in METRICS:
        parser.error(f"unknown metric {args.metric!r}; "
                     f"choose from {METRICS}")
    rows: list[dict] = []
    over_budget: list[str] = []
    print(f"{'routers':>8s} {'nodes':>8s} {'metric':<14s} {'wall_s':>8s} "
          f"{'dijkstra':>9s} {'nh_rounds':>9s}")
    for n in _bench_sizes(parser, args):
        with telemetry.span(f"bench/generate/n{n}"):
            net = _bench_net(parser, args, n)
        stats = RoutingStats()
        start = time.perf_counter()
        build_routing(
            net, args.metric, telemetry=telemetry, stats=stats
        )
        wall = time.perf_counter() - start
        telemetry.count("bench.runs")
        telemetry.gauge(f"bench.routing_wall_s.n{n}", wall)
        row = {
            "n_routers": n,
            "n_nodes": net.n_nodes,
            "metric": args.metric,
            "wall_s": wall,
            "dijkstra_calls": stats.dijkstra_calls,
            "nexthop_rounds": stats.nexthop_rounds,
        }
        rows.append(row)
        print(f"{n:8d} {net.n_nodes:8d} {args.metric:<14s} {wall:8.2f} "
              f"{stats.dijkstra_calls:9d} {stats.nexthop_rounds:9d}")
        if args.budget is not None and wall > args.budget:
            over_budget.append(
                f"n={n}: {wall:.2f}s > budget {args.budget:.2f}s"
            )
    return rows, over_budget


class _BenchApp:
    """Minimal all-to-all foreground app for the place benchmark."""

    name = "bench-all-to-all"

    def __init__(self, endpoints: list[int]) -> None:
        self.endpoints = list(endpoints)

    duration = 0.0

    def offered_bytes(self):
        return None


def _bench_place(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    import time

    from repro.core.place import build_place_inputs
    from repro.routing.spf import build_routing
    from repro.routing.tables import METRICS

    if args.metric not in METRICS:
        parser.error(f"unknown metric {args.metric!r}; "
                     f"choose from {METRICS}")
    if args.hosts < 2:
        parser.error("--hosts must be >= 2")
    rows: list[dict] = []
    over_budget: list[str] = []
    print(f"{'routers':>8s} {'nodes':>8s} {'hosts':>6s} {'pairs':>9s} "
          f"{'wall_s':>8s} {'routes':>8s}")
    for n in _bench_sizes(parser, args):
        with telemetry.span(f"bench/generate/n{n}"):
            net = _bench_net(parser, args, n)
        hosts = [h.node_id for h in net.hosts()][: args.hosts]
        if len(hosts) < 2:
            parser.error(
                f"n_routers={n} with --hosts-per-router "
                f"{args.hosts_per_router} yields {len(hosts)} hosts; "
                "the place suite needs at least 2"
            )
        with telemetry.span(f"bench/routing/n{n}"):
            tables = build_routing(net, args.metric, telemetry=telemetry)
        app = _BenchApp(hosts)
        start = time.perf_counter()
        inputs = build_place_inputs(
            net, tables, background=[], apps=[app],
            use_representatives=not args.no_representatives,
            workers=args.workers, telemetry=telemetry,
        )
        wall = time.perf_counter() - start
        telemetry.count("bench.runs")
        telemetry.gauge(f"bench.place_wall_s.n{n}", wall)
        n_pairs = len(hosts) * (len(hosts) - 1)
        row = {
            "n_routers": n,
            "n_nodes": net.n_nodes,
            "n_hosts": len(hosts),
            "n_pairs": n_pairs,
            "metric": args.metric,
            "workers": args.workers,
            "use_representatives": not args.no_representatives,
            "wall_s": wall,
            "n_routes": inputs.estimate.n_routes,
        }
        rows.append(row)
        print(f"{n:8d} {net.n_nodes:8d} {len(hosts):6d} {n_pairs:9d} "
              f"{wall:8.2f} {inputs.estimate.n_routes:8d}")
        if args.budget is not None and wall > args.budget:
            over_budget.append(
                f"n={n}: {wall:.2f}s > budget {args.budget:.2f}s"
            )
    return rows, over_budget


def _bench_emulate(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    """Engine throughput: reference vs batched vs multi-process LPs.

    One synthetic transfer soup per topology size, replayed through each
    requested engine.  All engines must produce byte-identical traces —
    a mismatch fails the command (the parity contract, enforced here too
    so CI smoke catches drift on big inputs the unit suite never sees).
    """
    import time

    import numpy as np

    from repro.api import emulate
    from repro.engine._reference import run_kernel_reference
    from repro.experiments.workloads import SyntheticTransfers
    from repro.routing.spf import build_routing

    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    known = ("reference", "sequential", "parallel")
    bad = [e for e in engines if e not in known]
    if bad or not engines:
        parser.error(
            f"--engines must be a non-empty subset of {', '.join(known)}"
        )
    n_flows = args.flows if args.flows is not None else 4000
    duration = args.duration if args.duration is not None else 2.0

    rows: list[dict] = []
    over_budget: list[str] = []
    print(f"{'routers':>8s} {'engine':<12s} {'wall_s':>8s} {'events':>10s} "
          f"{'events/s':>10s} {'speedup':>8s} {'lp_imbal':>8s}")
    for n in _bench_sizes(parser, args):
        with telemetry.span(f"bench/generate/n{n}"):
            net = _bench_net(parser, args, n)
            tables = build_routing(net)
        workload = SyntheticTransfers(
            n_flows=n_flows, duration=duration,
        )
        workload.prepare(net, np.random.default_rng(args.seed))
        ref_wall = None
        baseline: tuple | None = None
        for engine in engines:
            with telemetry.span(f"bench/emulate/n{n}/{engine}"):
                if engine == "reference":
                    start = time.perf_counter()
                    trace, kernel = run_kernel_reference(
                        net, tables, workload, seed=args.seed,
                        train_packets=args.train_packets,
                    )
                    wall = time.perf_counter() - start
                    ref_wall = wall
                    lp_imbalance = None
                else:
                    result = emulate(
                        net, tables, workload, seed=args.seed,
                        train_packets=args.train_packets, engine=engine,
                        k=args.parts if engine == "parallel" else None,
                    )
                    trace, wall = result.trace, result.wall_s
                    lp_imbalance = (
                        result.lp_imbalance
                        if engine == "parallel" else None
                    )
            if baseline is None:
                baseline = tuple(
                    getattr(trace, f)
                    for f in ("time", "node", "next_node", "packets",
                              "flow", "span")
                )
            elif not all(
                np.array_equal(a, getattr(trace, f))
                for a, f in zip(baseline, ("time", "node", "next_node",
                                           "packets", "flow", "span"))
            ):
                parser.error(
                    f"engine {engine!r} produced a different trace than "
                    f"{engines[0]!r} on n_routers={n} — the engines' "
                    "bit-identity contract is broken"
                )
            speedup = ref_wall / wall if ref_wall and wall > 0 else None
            telemetry.count("bench.runs")
            telemetry.gauge(f"bench.wall_s.n{n}.{engine}", wall)
            rows.append({
                "n_routers": n,
                "n_hosts": len(net.hosts()),
                "engine": engine,
                "k": args.parts if engine == "parallel" else 1,
                "flows": n_flows,
                "train_packets": args.train_packets,
                "duration_s": duration,
                "events": trace.n_events,
                "wall_s": wall,
                "events_per_s": trace.n_events / wall if wall > 0 else None,
                "speedup_vs_reference": speedup,
                "lp_imbalance": lp_imbalance,
            })
            print(f"{n:8d} {engine:<12s} {wall:8.2f} {trace.n_events:10d} "
                  f"{trace.n_events / wall if wall > 0 else 0:10.0f} "
                  f"{speedup if speedup else float('nan'):8.2f} "
                  f"{lp_imbalance if lp_imbalance else float('nan'):8.2f}")
            if args.budget is not None and wall > args.budget:
                over_budget.append(
                    f"n={n} {engine}: {wall:.2f}s > budget "
                    f"{args.budget:.2f}s"
                )
    return rows, over_budget


def _bench_rebalance(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    """Online rebalancing on the diurnal-shift scenario, per policy.

    A rotating hot region defeats the static region-per-LP partition; the
    online policies migrate routers at window barriers to chase it.  The
    score is the imbalance-over-time AUC (lower = better), plus migration
    counts, payload bytes and the post-shift recovery time.  All policies
    must produce byte-identical traces — migration is state relocation,
    not behaviour — and every online policy must beat the static AUC; a
    violation fails the command.
    """
    import time

    import numpy as np

    from repro.engine.kernel import run_kernel
    from repro.experiments.setups import diurnal_scenario
    from repro.rebalance import POLICIES, RebalanceConfig
    from repro.routing.spf import build_routing

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    bad = [p for p in policies if p not in POLICIES]
    if bad or not policies:
        parser.error(
            f"--policies must be a non-empty subset of "
            f"{', '.join(sorted(POLICIES))}"
        )
    n_flows = args.flows if args.flows is not None else 600
    duration = args.duration if args.duration is not None else 6.0

    scenario = diurnal_scenario(
        n_regions=args.regions, n_flows=n_flows,
        duration=duration, seed=args.seed,
    )
    with telemetry.span("bench/rebalance/routing"):
        tables = build_routing(scenario.net)
    shift = scenario.shift_times[0] if scenario.shift_times else 0.0

    rows: list[dict] = []
    over_budget: list[str] = []
    baseline: tuple | None = None
    static_auc: float | None = None
    print(f"{'policy':<12s} {'auc':>8s} {'migr':>5s} {'routers':>8s} "
          f"{'bytes':>8s} {'ttr_s':>7s} {'wall_s':>7s}")
    for policy in policies:
        start = time.perf_counter()
        with telemetry.span(f"bench/rebalance/{policy}"):
            trace, kernel = run_kernel(
                scenario.net, tables, scenario.workload, seed=args.seed,
                train_packets=args.train_packets, engine="parallel",
                parts=scenario.parts, processes=False,
                rebalance=RebalanceConfig(policy=policy),
                telemetry=telemetry,
            )
        wall = time.perf_counter() - start
        fields = ("time", "node", "next_node", "packets", "flow", "span")
        if baseline is None:
            baseline = tuple(getattr(trace, f) for f in fields)
        elif not all(
            np.array_equal(a, getattr(trace, f))
            for a, f in zip(baseline, fields)
        ):
            parser.error(
                f"policy {policy!r} changed the event trace — migration "
                "must be pure state relocation"
            )
        log = kernel.rebalancer.log
        ttr = log.time_to_rebalance(shift, 0.5)
        if policy == "static":
            static_auc = log.auc()
        telemetry.count("bench.runs")
        telemetry.gauge(f"bench.rebalance_auc.{policy}", log.auc())
        rows.append({
            "policy": policy,
            "k": scenario.k,
            "flows": n_flows,
            "duration_s": duration,
            "auc": log.auc(),
            "migration_count": log.migration_count,
            "routers_moved": log.routers_moved,
            "bytes_moved": log.bytes_moved,
            "time_to_rebalance_s": None if np.isinf(ttr) else ttr,
            "events": trace.n_events,
            "wall_s": wall,
        })
        print(f"{policy:<12s} {log.auc():8.3f} {log.migration_count:5d} "
              f"{log.routers_moved:8d} {log.bytes_moved:8d} "
              f"{ttr:7.2f} {wall:7.2f}")
        if args.budget is not None and wall > args.budget:
            over_budget.append(
                f"{policy}: {wall:.2f}s > budget {args.budget:.2f}s"
            )
    if static_auc is not None:
        losers = [
            r["policy"] for r in rows
            if r["policy"] != "static" and r["auc"] >= static_auc
        ]
        if losers:
            parser.error(
                f"online policies {', '.join(losers)} did not beat the "
                f"static AUC ({static_auc:.3f}) on the diurnal scenario"
            )
    return rows, over_budget


def _bench_delta(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    """Full SPF rebuild vs incremental update, per change-batch size.

    For each topology size the suite builds routing once, then — per
    batch size — applies a latency-shift batch both ways: a from-scratch
    ``build_routing`` on the mutated network (the paper's only option)
    and :func:`repro.routing.delta.update_routing` on a live
    :class:`~repro.routing.delta.RoutingState`.  Bit-identity between
    the two and ``touched == affected`` are *enforced*, not sampled;
    ``--min-speedup`` turns the single-link speedup into a hard gate and
    ``--budget`` bounds the incremental wall time (CI smoke guard).
    Every batch is reverted afterwards, so each size's state sees the
    same starting tables.
    """
    import time

    import numpy as np

    from repro.routing.delta import (
        SetLinkCost,
        routing_state,
        update_routing,
    )
    from repro.routing.perf import RoutingStats
    from repro.routing.spf import build_routing
    from repro.routing.tables import METRICS

    if args.metric not in METRICS:
        parser.error(f"unknown metric {args.metric!r}; "
                     f"choose from {METRICS}")
    try:
        batch_sizes = [
            int(s) for s in args.batch_sizes.split(",") if s.strip()
        ]
    except ValueError:
        parser.error(f"bad --batch-sizes value {args.batch_sizes!r}")
    if not batch_sizes or min(batch_sizes) < 1:
        parser.error("--batch-sizes must name positive batch sizes")

    rows: list[dict] = []
    over_budget: list[str] = []
    print(f"{'routers':>8s} {'batch':>6s} {'full_s':>8s} {'incr_s':>8s} "
          f"{'speedup':>8s} {'touched':>8s} {'frac':>6s}")
    for n in _bench_sizes(parser, args):
        with telemetry.span(f"bench/generate/n{n}"):
            net = _bench_net(parser, args, n)
        with telemetry.span(f"bench/delta/build/n{n}"):
            tables = build_routing(net, args.metric, telemetry=telemetry)
        state = routing_state(tables)
        fp0 = net.fingerprint()
        # Rank candidate links by blast radius (the affected-source
        # predicate over the current dist matrix): backbone trunks and
        # host access links sit on most sources' shortest paths and
        # degenerate to a near-full recompute, links with path diversity
        # touch a handful of rows.  The suite changes low-radius links —
        # the regime incremental maintenance exists for — and reports
        # the touched fraction per row so the dependence stays visible.
        u_arr, v_arr, _, _ = net.link_endpoint_arrays()
        n_probe = min(net.n_links, 128)
        probe = np.unique(
            (np.arange(n_probe, dtype=np.int64) * net.n_links) // n_probe
        )
        pa, pb = u_arr[probe], v_arr[probe]
        costs = np.asarray(state.graph[pa, pb]).ravel()
        da, db = state.tables.dist[:, pa], state.tables.dist[:, pb]
        blast = (
            (((da + costs) <= db) & np.isfinite(da))
            | (((db + costs) <= da) & np.isfinite(db))
        )
        ranked = probe[np.argsort(blast.sum(axis=0), kind="stable")]
        for batch in batch_sizes:
            lids = sorted(int(lid) for lid in ranked[:batch])
            before = {
                lid: net.links[lid].latency_s for lid in lids
            }
            changes = [
                SetLinkCost(lid, latency_s=lat * 3.0)
                for lid, lat in before.items()
            ]
            stats = RoutingStats()
            start = time.perf_counter()
            with telemetry.span(f"bench/delta/incr/n{n}/b{batch}"):
                touched = update_routing(
                    state, changes, stats=stats, telemetry=telemetry,
                )
            inc_wall = time.perf_counter() - start
            start = time.perf_counter()
            with telemetry.span(f"bench/delta/full/n{n}/b{batch}"):
                fresh = build_routing(net, args.metric)
            full_wall = time.perf_counter() - start
            if not (np.array_equal(state.tables.dist, fresh.dist)
                    and np.array_equal(state.tables.next_hop,
                                       fresh.next_hop)):
                parser.error(
                    f"incremental tables diverged from the full rebuild "
                    f"(n={n}, batch={batch})"
                )
            if stats.touched_sources != stats.affected_sources:
                parser.error(
                    f"touched_sources {stats.touched_sources} != "
                    f"affected_sources {stats.affected_sources} "
                    f"(n={n}, batch={batch})"
                )
            speedup = full_wall / inc_wall if inc_wall > 0 else float("inf")
            telemetry.count("bench.runs")
            telemetry.gauge(f"bench.delta_speedup.n{n}.b{batch}", speedup)
            row = {
                "n_routers": n,
                "n_nodes": net.n_nodes,
                "metric": args.metric,
                "batch_size": len(changes),
                "full_wall_s": full_wall,
                "incremental_wall_s": inc_wall,
                "speedup": speedup,
                "touched_sources": int(len(touched)),
                "touched_frac": float(len(touched)) / net.n_nodes,
            }
            rows.append(row)
            print(f"{n:8d} {len(changes):6d} {full_wall:8.3f} "
                  f"{inc_wall:8.3f} {speedup:8.1f} {len(touched):8d} "
                  f"{row['touched_frac']:6.3f}")
            if args.budget is not None and inc_wall > args.budget:
                over_budget.append(
                    f"n={n} batch={batch}: incremental {inc_wall:.2f}s > "
                    f"budget {args.budget:.2f}s"
                )
            if (args.min_speedup is not None and len(changes) == 1
                    and speedup < args.min_speedup):
                over_budget.append(
                    f"n={n} single-link speedup {speedup:.1f}x < required "
                    f"{args.min_speedup:.1f}x"
                )
            # Revert so the next batch size starts from the same tables.
            update_routing(state, [
                SetLinkCost(lid, latency_s=lat)
                for lid, lat in before.items()
            ])
            if net.fingerprint() != fp0:
                parser.error(
                    f"revert failed to restore the topology fingerprint "
                    f"(n={n}, batch={batch})"
                )
    return rows, over_budget


def _bench_service(parser, args, telemetry) -> tuple[list[dict], list[str]]:
    from repro.service.bench import bench_service

    try:
        rows, over_budget = bench_service(
            n_routers=args.routers,
            batch=args.requests,
            service_workers=args.service_workers,
            seed=args.seed,
            duration=args.duration if args.duration is not None else 1.0,
            hosts_per_router=args.hosts_per_router,
            timeout=args.timeout,
            min_speedup=args.min_speedup,
            budget=args.budget,
            telemetry=telemetry,
        )
    except (RuntimeError, TimeoutError) as exc:
        parser.error(f"service bench failed: {exc}")

    print(f"{'phase':<8s} {'req':>4s} {'wall_s':>8s} {'req/s':>8s} "
          f"{'p50_s':>8s} {'p95_s':>8s} {'warm':>5s}")
    for row in rows:
        if row["phase"] == "summary":
            continue
        print(f"{row['phase']:<8s} {row['n_requests']:>4d} "
              f"{row['wall_s']:>8.2f} {row['throughput_rps']:>8.2f} "
              f"{row['p50_s']:>8.3f} {row['p95_s']:>8.3f} "
              f"{row['warm_hits']:>5d}")
    summary = rows[-1]
    print(f"speedup {summary['speedup']:.2f}x  "
          f"warm_hit_rate {summary['warm_hit_rate']:.2f}  "
          f"delta_derives {summary['delta_derives']}  "
          f"cold_builds {summary['cold_builds']}")
    return rows, over_budget


_BENCH_SUITES = {
    "partition": _bench_partition,
    "routing": _bench_routing,
    "place": _bench_place,
    "emulate": _bench_emulate,
    "rebalance": _bench_rebalance,
    "delta": _bench_delta,
    "service": _bench_service,
}


def _cmd_bench(parser: argparse.ArgumentParser, args) -> int:
    from repro.obs import Telemetry, write_json

    telemetry = Telemetry()
    rows, over_budget = _BENCH_SUITES[args.what](parser, args, telemetry)

    if args.stats:
        write_json(telemetry, args.stats)
        print(f"telemetry written to {args.stats} "
              f"(render with `massf stats {args.stats}`)", file=sys.stderr)
    payload = json.dumps(rows, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    if args.json:
        path = f"BENCH_{args.what}.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"rows written to {path}", file=sys.stderr)
    if over_budget:
        for line in over_budget:
            print(f"BUDGET EXCEEDED: {line}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
# massf stats
# --------------------------------------------------------------------- #
def _configure_stats(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("snapshot",
                        help="telemetry JSON written by "
                        "`massf sweep --stats`")
    parser.add_argument("--section",
                        choices=("all", "phases", "counters", "timeline"),
                        default="all", help="render one section only")
    parser.add_argument("--csv", metavar="DIR",
                        help="additionally export spans/counters/series "
                        "as CSV files under this directory")


def _cmd_stats(parser: argparse.ArgumentParser, args) -> int:
    from repro.obs import load_json, render_report, write_csv_dir
    from repro.obs.report import phase_breakdown, timeline_report
    from repro.obs.telemetry import SCHEMA_VERSION

    try:
        data = load_json(args.snapshot)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.snapshot}: {exc}", file=sys.stderr)
        return 1
    schema = data.get("schema")
    if schema is not None and schema > SCHEMA_VERSION:
        print(
            f"warning: snapshot schema v{schema} is newer than this "
            f"massf (v{SCHEMA_VERSION}); rendering best-effort",
            file=sys.stderr,
        )

    if args.section == "phases":
        print(phase_breakdown(data))
    elif args.section == "timeline":
        print(timeline_report(data))
    elif args.section == "counters":
        from repro.obs.report import _counter_section

        print(_counter_section(data))
    else:
        print(render_report(data))

    if args.csv:
        written = write_csv_dir(data, args.csv)
        print(f"wrote {len(written)} CSV files under {args.csv}",
              file=sys.stderr)
    return 0


# --------------------------------------------------------------------- #
# massf check
# --------------------------------------------------------------------- #
def _configure_check(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("root", nargs="?", default=None,
                        help="project root containing src/repro "
                        "(default: auto-detect from the working "
                        "directory or the installed package)")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="ID",
                        help="run only this rule (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="print the findings report as JSON")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    parser.add_argument("--no-tests", action="store_true",
                        help="skip parsing the tests tree (disables "
                        "the parity test-evidence check)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="additionally write the JSON findings "
                        "report here (written even when findings "
                        "exist, for CI artifacts)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="fan the per-file pass out over N forked "
                        "workers (0 = inline; findings are "
                        "bit-identical either way)")
    parser.add_argument("--sarif", metavar="PATH",
                        help="additionally write a SARIF 2.1.0 report "
                        "here (code-scanning upload format)")
    parser.add_argument("--strict-ignores", action="store_true",
                        help="also report stale `# massf: ignore[...]` "
                        "comments (the unused-ignore meta-rule)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-file result cache")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="result cache directory (default: "
                        "$MASSF_CACHE_DIR or <root>/.massf-cache)")


def _cmd_check(parser: argparse.ArgumentParser, args) -> int:
    """Exit 0 on a clean tree, 2 on findings, 1 on internal error."""
    from repro.analysis import (
        AnalysisError,
        all_rules,
        render_json,
        render_sarif,
        render_text,
        run_check,
        to_payload,
    )

    if args.list_rules:
        for rule in all_rules():
            marker = "" if rule.enabled_by_default else "(opt-in) "
            print(f"{rule.id:18s} {marker}{rule.description}")
        return 0
    cache = False if args.no_cache else (args.cache_dir or True)
    try:
        result = run_check(
            args.root, rules=args.rules,
            include_tests=not args.no_tests,
            jobs=args.jobs, cache=cache,
            strict_ignores=args.strict_ignores,
        )
    except AnalysisError as exc:
        print(f"massf check: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # never a traceback to the user
        print(
            f"massf check: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(to_payload(result), indent=2) + "\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(result) + "\n")
    print(render_json(result) if args.json else render_text(result))
    return 0 if result.ok else 2


# --------------------------------------------------------------------- #
# massf serve / submit / jobs (the mapping service)
# --------------------------------------------------------------------- #
def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8351,
                        help="listen port (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=2,
                        help="job worker threads")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="bounded job queue depth; submissions past "
                        "it are rejected with HTTP 429")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                        "$MASSF_CACHE_DIR or .massf-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact cache")
    parser.add_argument("--budget-mb", type=int, default=512,
                        help="warm in-memory cache budget in MiB")
    parser.add_argument("--max-delta-changes", type=int, default=64,
                        help="max canonical link changes served by "
                        "routing delta-derivation instead of a rebuild")
    parser.add_argument("--default-timeout", type=float, default=None,
                        help="default per-job soft deadline in seconds")


def _cmd_serve(parser: argparse.ArgumentParser, args) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache=None if args.no_cache else (args.cache_dir or "default"),
        budget_bytes=args.budget_mb * 1024 * 1024,
        max_delta_changes=args.max_delta_changes,
        default_timeout_s=args.default_timeout,
    )
    serve(config, log=lambda line: print(line, file=sys.stderr))
    return 0


def _configure_submit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("request", nargs="?",
                        help="path to a JSON request document "
                        "(default: read it from stdin)")
    parser.add_argument("--url", default="http://127.0.0.1:8351",
                        help="service base URL")
    parser.add_argument("--timeout-s", type=float, default=None,
                        help="per-job soft deadline in seconds")
    parser.add_argument("--no-wait", action="store_true",
                        help="print the accepted job and return instead "
                        "of polling for the result")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="client-side wait timeout in seconds")


def _cmd_submit(parser: argparse.ArgumentParser, args) -> int:
    """Exit 0 on done, 1 on failed/cancelled, 3 on backpressure."""
    from repro.service import QueueFullError, ServiceError, connect

    try:
        if args.request:
            with open(args.request, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read the request document: {exc}")
    if not isinstance(data, dict):
        parser.error("the request document must be a JSON object")

    client = connect(args.url, timeout=args.timeout)
    try:
        info = client.submit(data, timeout_s=args.timeout_s)
        if not args.no_wait:
            info = client.wait(info.job_id, timeout=args.timeout)
    except QueueFullError as exc:
        print(f"massf submit: rejected (backpressure): {exc}",
              file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"massf submit: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"massf submit: cannot talk to {args.url}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(info.to_dict(), indent=2))
    return 0 if info.state in ("pending", "running", "done") else 1


def _configure_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("job_id", nargs="?",
                        help="show one job in full (default: list all)")
    parser.add_argument("--url", default="http://127.0.0.1:8351",
                        help="service base URL")
    parser.add_argument("--cancel", action="store_true",
                        help="cancel the given job")
    parser.add_argument("--status", action="store_true",
                        help="print the service status document")
    parser.add_argument("--metrics", action="store_true",
                        help="print the full telemetry snapshot")
    parser.add_argument("--watch", type=int, default=None, metavar="N",
                        help="stream N SSE telemetry events and exit")
    parser.add_argument("--timeout", type=float, default=30.0)


def _cmd_jobs(parser: argparse.ArgumentParser, args) -> int:
    from repro.service import ServiceError, connect

    if args.cancel and not args.job_id:
        parser.error("--cancel needs a job id")
    client = connect(args.url, timeout=args.timeout)
    try:
        if args.status:
            print(json.dumps(client.status(), indent=2))
        elif args.metrics:
            print(json.dumps(client.metrics(), indent=2))
        elif args.watch is not None:
            for event in client.events(args.watch, timeout=args.timeout):
                print(json.dumps(event))
        elif args.job_id and args.cancel:
            cancelled = client.cancel(args.job_id)
            print(json.dumps(
                {"job_id": args.job_id, "cancelled": cancelled}
            ))
        elif args.job_id:
            print(json.dumps(client.job(args.job_id).to_dict(), indent=2))
        else:
            infos = client.jobs()
            print(f"{'job':<10s} {'kind':<14s} {'state':<10s} "
                  f"{'warm':<5s} error")
            for info in infos:
                warm = "yes" if info.warm_hit else ""
                print(f"{info.job_id:<10s} {info.kind:<14s} "
                      f"{info.state:<10s} {warm:<5s} {info.error or ''}")
    except ServiceError as exc:
        print(f"massf jobs: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"massf jobs: cannot talk to {args.url}: {exc}",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
# Unified entry point + deprecation shims
# --------------------------------------------------------------------- #
_SUBCOMMANDS = {
    "map": (_configure_map, _cmd_map,
            "map a virtual network (DML file) onto engine nodes"),
    "emulate": (_configure_emulate, _cmd_emulate,
                "run one experiment setup end to end"),
    "netflow": (_configure_netflow, _cmd_netflow,
                "summarize a NetFlow dump directory"),
    "sweep": (_configure_sweep, _cmd_sweep,
              "sweep an experiment across seeds on the parallel runtime"),
    "stats": (_configure_stats, _cmd_stats,
              "render a telemetry snapshot (from `sweep --stats`)"),
    "bench": (_configure_bench, _cmd_bench,
              "benchmark partitioning on synthetic scale topologies"),
    "check": (_configure_check, _cmd_check,
              "run the repo's determinism / parity / parallel-safety "
              "static analysis (exit 0 clean, 2 findings, 1 error)"),
    "serve": (_configure_serve, _cmd_serve,
              "run the persistent mapping service (JSON over HTTP "
              "with warm shared caches)"),
    "submit": (_configure_submit, _cmd_submit,
               "submit a request document to a running service and "
               "wait for the result"),
    "jobs": (_configure_jobs, _cmd_jobs,
             "list / inspect / cancel service jobs; --status, "
             "--metrics, --watch for SSE events"),
}


#: Shell status of a process killed by SIGPIPE (128 + 13).
_EXIT_BROKEN_PIPE = 141


def massf(argv: list[str] | None = None) -> int:
    """The unified ``massf`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="massf",
        description="MaSSF traffic-based load balance toolkit "
        "(map / emulate / netflow / sweep).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (configure, run, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text,
                                    description=help_text)
        configure(sub)
        sub.set_defaults(_run=run, _parser=sub)
    args = parser.parse_args(argv)
    try:
        rc = args._run(args._parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away early (`massf stats tel.json | head`).
        # Exit like a tool killed by SIGPIPE, without a traceback; point
        # stdout at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    return rc


def _deprecated_shim(old: str, command: str, argv: list[str] | None) -> int:
    print(
        f"{old} is deprecated; use `massf {command}` instead",
        file=sys.stderr,
    )
    if argv is None:
        argv = sys.argv[1:]
    return massf([command, *argv])


def massf_map(argv: list[str] | None = None) -> int:
    """Deprecated shim for ``massf map``."""
    return _deprecated_shim("massf-map", "map", argv)


def massf_emulate(argv: list[str] | None = None) -> int:
    """Deprecated shim for ``massf emulate``."""
    return _deprecated_shim("massf-emulate", "emulate", argv)


def massf_netflow(argv: list[str] | None = None) -> int:
    """Deprecated shim for ``massf netflow``."""
    return _deprecated_shim("massf-netflow", "netflow", argv)


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(massf())
