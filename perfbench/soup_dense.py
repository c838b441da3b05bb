"""``soup-dense``: a dense synthetic transfer soup.

The :class:`repro.experiments.workloads.SyntheticTransfers` soup on a
``synth_network`` topology, through :func:`repro.emulate`, sequential and
on the forked LP engine with k=2, in rounds of four sequential runs around
one LP run.  Every transfer is known at install
time and windows carry about a hundred events, so the kernel's numpy batch
path and the LP shards' compute do most of the work.  This is the workload
that bypasses any per-window fast path or window coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import trace_mismatch
from harness import (
    Measurement,
    Tally,
    clock,
    median,
    peak_rss_mb,
    timed_emulate,
    timed_setup,
)

N_ROUTERS = 500
#: The topology is fixed, like the paper's; the seed draws the transfers.
#: (The synth seed sets the smallest link latency and with it the window
#: count, which would otherwise move every rate from seed to seed.)
TOPOLOGY_SEED = 1
N_FLOWS = 5000
DURATION_S = 2.0
LP_K = 2
TRAIN_PACKETS = 32
#: One round.  The sequential runs carry the bounded metrics, so they get
#: four of the five slots; the LP run sits between them.
ROUND = ("sequential", "sequential", "parallel", "sequential", "sequential")


@dataclass
class Inputs:
    net: object
    tables: object
    workload: object


def build_inputs(seed: int, timings: dict | None = None) -> Inputs:
    from repro.experiments.workloads import SyntheticTransfers
    from repro.routing.spf import build_routing
    from repro.topology.synth import synth_network

    net = synth_network(n_routers=N_ROUTERS, seed=TOPOLOGY_SEED)
    start = clock()
    tables = build_routing(net)
    if timings is not None:
        timings.setdefault("routing.build_s", []).append(clock() - start)
    workload = SyntheticTransfers(n_flows=N_FLOWS, duration=DURATION_S)
    workload.prepare(net, np.random.default_rng(seed))
    return Inputs(net=net, tables=tables, workload=workload)


def _emulate(inputs: Inputs, engine: str, seed: int, trace: bool,
             tally: Tally, state: dict, samples: dict) -> bool:
    """Run and check one emulation; False when it raised."""
    run = timed_emulate(
        tally, inputs.net, inputs.tables, inputs.workload, engine=engine,
        k=LP_K, seed=seed, train_packets=TRAIN_PACKETS, trace=trace)
    if run is None:
        return False
    result, stats = run.result, run.result.stats
    # Every operation repeats the same inputs, so every trace must equal the
    # first one; the first is checked against the reference kernel after
    # the timed loop.
    first = state.setdefault("trace", result.trace)
    tally.check(f"emulate {engine}", trace_mismatch(result.trace, first))
    state.setdefault(f"stats/{engine}", stats)
    samples[engine].append((result.trace.n_events, run.seconds))
    if not trace:
        return True
    if engine == "sequential":
        samples["layers"].append({
            "kernel.run_s": result.wall_s,
            "kernel.events": result.trace.n_events,
            "kernel.windows": stats.windows,
            "kernel.events_per_window": result.trace.n_events / stats.windows,
            "kernel.vector_frac": stats.vector_events / (
                stats.vector_events + stats.python_loop_events),
        })
    else:
        samples["layers"].append({"map.top_s": run.map_s,
                                  **run.lp_layers()})
    return True


def measure(seed: int, seconds: float, trace: bool) -> Measurement:
    from repro.engine._reference import run_kernel_reference

    timings: dict = {}
    setup_s, inputs = timed_setup(lambda: build_inputs(seed, timings),
                                  repeats=5)

    tally = Tally()
    state: dict = {}
    samples = {"sequential": [], "parallel": [], "layers": []}
    rounds = []
    start = clock()
    round_s = 0.0
    while not rounds or clock() - start + round_s / 2 <= seconds:
        t0 = clock()
        ok = all(_emulate(inputs, engine, seed, trace, tally, state, samples)
                 for engine in ROUND)
        if not ok:
            break
        round_s = clock() - t0
        rounds.append(round_s)
    if not rounds:
        raise RuntimeError("no soup-dense round completed: "
                           + "; ".join(tally.failures)[:2000])

    reference, _ = run_kernel_reference(
        inputs.net, inputs.tables, inputs.workload, seed=seed,
        train_packets=TRAIN_PACKETS)
    tally.check("reference", trace_mismatch(state["trace"], reference))

    events = reference.n_events
    regime = {
        f"emulate.{engine}": {
            "routers": len(inputs.net.routers()),
            "hosts": len(inputs.net.hosts()), "k": k, "flows": N_FLOWS,
            "horizon_s": DURATION_S, "events": events,
            "windows": state[f"stats/{engine}"].windows,
            "events_per_window": events / state[f"stats/{engine}"].windows,
        }
        for engine, k in (("sequential", 1), ("parallel", LP_K))
    }
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "seq_events_per_s": median(e / s for e, s in samples["sequential"]),
        "lp_events_per_s": median(e / s for e, s in samples["parallel"]),
        "ops_per_s": median(len(ROUND) / r for r in rounds),
        "op_p50_s": median(s for _, s in samples["sequential"]),
    }
    per_layer = {}
    if trace:
        names = {name for row in samples["layers"] for name in row}
        for name in sorted(names):
            per_layer[name] = median(
                row[name] for row in samples["layers"] if name in row)
        per_layer["routing.build_s"] = median(timings["routing.build_s"])
    return Measurement(
        end_to_end=end_to_end, per_layer=per_layer, regime=regime,
        tally=tally, report={"rounds": len(rounds)},
    )
