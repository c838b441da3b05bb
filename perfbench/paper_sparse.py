"""``paper-sparse``: the paper's own pipeline, the case users run.

One round is:

- the Table 1 campus/ScaLapack cell (k=3) and the BRITE-160/ScaLapack cell
  (k=8), each through :func:`repro.run_experiment` at a shortened horizon on
  the sequential engine (topology → routing → TOP/PLACE/PROFILE mapping →
  profiling run → evaluation run → scoring);
- after each cell, the campus evaluation workload through
  :func:`repro.emulate`, three times sequential and once on the forked LP
  engine with k=2.

Windows here carry only a few events each, so the per-window overhead of
the kernel and of the LP engine's round trips does most of the work.
Every round repeats the same seeded inputs, so each cell's scored outcome
must repeat exactly; there are at least two rounds, and more start while
at least half of one still fits in the measured seconds.
"""

from __future__ import annotations

import gc
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

CAMPUS_HORIZON_S = 4.0
BRITE_HORIZON_S = 2.0
EMULATE_HORIZON_S = 1.0
LP_K = 2
MIN_ROUNDS = 2
#: A sequential emulation takes about half a second here, so each cell is
#: followed by several: their median is what ``seq_events_per_s`` reports.
SEQ_RUNS = 3
#: The cells' evaluation runs use RunnerConfig's train size; the emulate
#: operations use the same so both see one regime.
TRAIN_PACKETS = 16


@dataclass
class Inputs:
    cells: list            # (name, ExperimentSetup)
    net: object            # campus network for the emulate operations
    tables: object
    workload: object       # prepared campus evaluation workload


def build_inputs(seed: int) -> Inputs:
    from repro.experiments.setups import brite_setup, campus_setup
    from repro.routing.spf import build_routing

    cells = [
        ("campus", campus_setup(
            workload_kwargs=dict(duration=CAMPUS_HORIZON_S))),
        ("brite", brite_setup(
            workload_kwargs=dict(duration=BRITE_HORIZON_S))),
    ]
    for _, setup in cells:
        setup.network  # built lazily; build it here, outside the cells
    evaluation = campus_setup(workload_kwargs=dict(duration=EMULATE_HORIZON_S))
    net = evaluation.network
    tables = build_routing(net)
    workload = evaluation.build_workload(seed)
    workload.prepare(net, np.random.default_rng(seed))
    return Inputs(cells=cells, net=net, tables=tables, workload=workload)


def _outcomes(results: dict) -> dict:
    """The scored outcome of a cell, per approach (must repeat exactly)."""
    return {
        name: (ev.outcome.load_imbalance, ev.outcome.app_emulation_time,
               ev.outcome.network_emulation_time, ev.outcome.edge_cut,
               ev.outcome.remote_packets,
               tuple(int(p) for p in ev.mapping.parts))
        for name, ev in results.items()
    }


def _span_total(tel, suffix: str, prefix: str = "") -> float:
    return sum(agg["total_s"] for path, agg in tel.spans.items()
               if path.startswith(prefix) and path.endswith(suffix))


def _cell(setup, name, seed, trace, tally, state, sample) -> bool:
    """Run and check one cell; False when it raised (nothing to time)."""
    import repro
    from repro.obs import Telemetry

    tel = Telemetry() if trace else None
    results, wall = tally.run(
        f"cell {name}",
        lambda: repro.run_experiment(
            setup, seed=seed, engine="sequential", telemetry=tel),
    )
    if results is None:
        return False
    outcomes = _outcomes(results)
    first = state.setdefault(f"outcomes/{name}", outcomes)
    tally.check(f"cell {name}", None if outcomes == first else
                "cell outcome differs from the first round")
    sample["cells"].append(wall)
    layers, kernel = sample["layers"], sample["kernel"]
    for approach, ev in results.items():
        layers[f"score.imbalance.{approach}.{name}"] = (
            ev.outcome.load_imbalance)
    if tel is not None:
        for key, span, prefix in (
            ("routing.build_s", "routing/build", ""),
            ("map.top_s", "map/top", "map/top"),
            ("map.place_s", "map/place", "map/place"),
            ("map.profile_s", "map/profile", "map/profile"),
            ("profiling.run_s", "emulate/profile-run", ""),
            ("kernel.install_s", "emulate/eval-run", ""),
            ("score.evaluate_s", "evaluate_mapping", "score/"),
        ):
            layers[key] = layers.get(key, 0.0) + _span_total(tel, span, prefix)
        layers["kernel.install_s"] -= _span_total(
            tel, "emulate/eval-run/kernel/run")
        events = tel.counters.get("kernel.events", 0)
        windows = tel.counters.get("kernel.windows", 0)
        state[f"kernel/{name}"] = {"events": events, "windows": windows,
                                   "events_per_window": events / windows}
        kernel["run_s"] += _span_total(tel, "kernel/run")
        kernel["events"] += events
        kernel["windows"] += windows
        kernel["vector"] += tel.counters.get("kernel.vector_events", 0)
        kernel["loop"] += tel.counters.get("kernel.python_loop_events", 0)
    return True


def _emulate(inputs, engine, seed, trace, tally, state, sample) -> bool:
    """Run and check one emulation; False when it raised."""
    run = timed_emulate(
        tally, inputs.net, inputs.tables, inputs.workload, engine=engine,
        k=LP_K, seed=seed, train_packets=TRAIN_PACKETS, trace=trace)
    if run is None:
        return False
    result = run.result
    tally.check(f"emulate {engine}",
                trace_mismatch(result.trace, state["reference"]))
    sample[engine].append(result.trace.n_events / run.seconds)
    state.setdefault(f"stats/{engine}", result.stats)
    if engine == "sequential":
        kernel = sample["kernel"]
        kernel["run_s"] += result.wall_s
        kernel["events"] += result.trace.n_events
        kernel["windows"] += result.stats.windows
        kernel["vector"] += result.stats.vector_events
        kernel["loop"] += result.stats.python_loop_events
    elif trace:
        sample["lp"].append({"map.lp_top_s": run.map_s, **run.lp_layers()})
    return True


def _run_round(inputs: Inputs, seed: int, trace: bool, tally: Tally,
               state: dict) -> dict | None:
    """One round: each cell followed by sequential and LP emulations.
    Returns the round's samples, or None when an operation raised."""
    sample = {"cells": [], "sequential": [], "parallel": [], "lp": [],
              "layers": {},
              "kernel": {"run_s": 0.0, "events": 0, "windows": 0,
                         "vector": 0, "loop": 0}}
    for name, setup in inputs.cells:
        if not _cell(setup, name, seed, trace, tally, state, sample):
            return None
        for engine in ("sequential",) * SEQ_RUNS + ("parallel",):
            # The cell's garbage is collected here, not inside the call.
            gc.collect()
            if not _emulate(inputs, engine, seed, trace, tally, state,
                            sample):
                return None
    if trace:
        kernel, layers = sample["kernel"], sample["layers"]
        layers["kernel.run_s"] = kernel["run_s"]
        layers["kernel.events"] = kernel["events"]
        layers["kernel.windows"] = kernel["windows"]
        layers["kernel.events_per_window"] = (
            kernel["events"] / kernel["windows"])
        layers["kernel.vector_frac"] = (
            kernel["vector"] / (kernel["vector"] + kernel["loop"]))
    return sample


def _regime(inputs: Inputs, state: dict) -> dict:
    """Sizes, and events per window where the run measured them: always for
    the emulations (their ``KernelStats``), on traced runs also for the
    cells (their telemetry counters, profiling and evaluation runs)."""
    regime = {}
    for name, setup in inputs.cells:
        net = setup.network
        regime[f"cell.{name}"] = {
            "routers": len(net.routers()), "hosts": len(net.hosts()),
            "k": setup.n_engine_nodes,
            "horizon_s": setup.workload_kwargs["duration"],
            **state.get(f"kernel/{name}", {}),
        }
    events = state["reference"].n_events
    for engine, k in (("sequential", 1), ("parallel", LP_K)):
        windows = state[f"stats/{engine}"].windows
        regime[f"emulate.{engine}"] = {
            "routers": len(inputs.net.routers()),
            "hosts": len(inputs.net.hosts()), "k": k,
            "horizon_s": EMULATE_HORIZON_S, "events": events,
            "windows": windows, "events_per_window": events / windows,
        }
    return regime


def measure(seed: int, seconds: float, trace: bool) -> Measurement:
    from repro.engine._reference import run_kernel_reference

    setup_s, inputs = timed_setup(lambda: build_inputs(seed), repeats=9)
    reference, _ = run_kernel_reference(
        inputs.net, inputs.tables, inputs.workload, seed=seed,
        train_packets=TRAIN_PACKETS)
    state = {"reference": reference}
    tally = Tally()
    rounds = []
    start = clock()
    round_s = 0.0
    while len(rounds) < MIN_ROUNDS or clock() - start + round_s / 2 <= seconds:
        t0 = clock()
        sample = _run_round(inputs, seed, trace, tally, state)
        if sample is None:
            break
        round_s = clock() - t0
        sample["wall"] = round_s
        rounds.append(sample)
    if not rounds:
        raise RuntimeError("no paper-sparse round completed: "
                           + "; ".join(tally.failures)[:2000])
    regime = _regime(inputs, state)

    n_ops = (2 + SEQ_RUNS) * len(inputs.cells)
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "seq_events_per_s": median(
            x for r in rounds for x in r["sequential"]),
        "lp_events_per_s": median(x for r in rounds for x in r["parallel"]),
        "ops_per_s": n_ops * len(rounds) / sum(r["wall"] for r in rounds),
        "cell_s": median(sum(r["cells"]) / len(r["cells"]) for r in rounds),
    }
    end_to_end["op_p50_s"] = end_to_end["cell_s"]
    per_layer = {}
    if trace:
        for name in rounds[0]["layers"]:
            per_layer[name] = median(r["layers"][name] for r in rounds)
        for name in rounds[0]["lp"][0]:
            per_layer[name] = median(
                lp[name] for r in rounds for lp in r["lp"])
    return Measurement(
        end_to_end=end_to_end, per_layer=per_layer, regime=regime,
        tally=tally, report={"rounds": len(rounds)},
    )
