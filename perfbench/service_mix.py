"""``service-mix``: a ``massf serve`` process under a closed loop of clients.

The server runs with 2 worker threads in its own process and is driven
over loopback HTTP by 2 clients, each of which sends its next request only
after the previous reply arrived.  The requests are a fixed, seeded
sequence over three ``synth`` topologies of 500–800 routers: TOP and PLACE
mappings at several k, single-link ``apply_changes`` on the delta-derived
routing path, and short sequential emulations.  A quarter of the requests
are exact repeats of an earlier one, which the warm response cache
answers.  Fresh requests pay for partitioning, PLACE and delta-derived
routing; repeats pay only for the cache and HTTP.

Before the timed loop one client primes the server with one request per
topology, so the base networks and their routing tables are warm when the
loop starts.  Two concurrent cold misses on one topology make the warm
cache keep a network and routing tables built for another copy of it (see
``test_perfbench.py``); the priming keeps the timed loop from racing on
them, and its time is reported as ``warmup_s``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from checks import response_mismatch, routing_mismatch
from harness import (
    RESULTS_DIR,
    ROOT,
    Measurement,
    Tally,
    clock,
    median,
    own_peak_rss_mb,
    peak_rss_mb,
    tail,
)

#: The topologies are fixed, whatever the seed.
TOPOLOGIES = tuple(
    {"source": "synth", "n_routers": n, "seed": i + 1}
    for i, n in enumerate((500, 650, 800))
)
SERVICE_WORKERS = 2
CLIENTS = 2
#: Requests come in shuffled blocks of this make-up, so every stretch of
#: the stream has the same mix; a quarter are exact repeats.
BLOCK = (
    ("repeat", 4),
    ("map_top", 5),
    ("map_place", 3),
    ("apply_changes", 1),
    ("emulate", 3),
)
REPEAT_SHARE = dict(BLOCK)["repeat"] / sum(n for _, n in BLOCK)
#: Every run sends at least two blocks, so every request kind and some
#: repeats are measured however short the run.
MIN_REQUESTS = 2 * sum(n for _, n in BLOCK)
TOP_KS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
PLACE_KS = (2, 4, 8)
EMULATE_DURATION_S = 1.0
SEQUENCE_LENGTH = 4000
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
POLL_FIRST_S = 0.001
POLL_MAX_S = 0.05
#: Response fields that are measurements, not results.
TIMING_FIELDS = ("wall_s", "events_per_second")
#: A repeat copies a request at least this many positions back, so that
#: with two clients the first answer has almost always settled.
REPEAT_MIN_GAP = 8
#: Priming requests carry this seed, which no request of the stream has.
WARMUP_SEED = SEQUENCE_LENGTH
#: Servers started per run; each is timed to its first status reply and
#: primed, the last one serves the timed loop.
SETUPS = 3


def request_sequence(seed: int) -> list[tuple[str, bool, dict]]:
    """The seeded request stream: ``(kind, is_repeat, request)`` triples.

    The topologies are fixed; the seed draws the order of each block, the
    request parameters and which earlier requests are repeated."""
    rng = np.random.default_rng(seed)
    block = [kind for kind, n in BLOCK for _ in range(n)]
    fresh: list[tuple[str, dict]] = []
    sequence: list[tuple[str, bool, dict]] = []
    serial = itertools.count()
    while len(sequence) < SEQUENCE_LENGTH:
        for kind in map(str, rng.permutation(block)):
            if kind == "repeat":
                if len(fresh) > REPEAT_MIN_GAP:
                    pick = int(rng.integers(len(fresh) - REPEAT_MIN_GAP))
                    kind, request = fresh[pick]
                    sequence.append((kind, True, request))
                continue
            request = _fresh_request(kind, rng, next(serial))
            fresh.append((kind, request))
            sequence.append((kind, False, request))
    return sequence


def _fresh_request(kind: str, rng, serial: int) -> dict:
    topology = TOPOLOGIES[int(rng.integers(len(TOPOLOGIES)))]
    if kind == "map_top":
        return {"kind": "map", "topology": topology, "approach": "top",
                "k": int(rng.choice(TOP_KS)), "seed": serial}
    if kind == "map_place":
        return {"kind": "map", "topology": topology, "approach": "place",
                "k": int(rng.choice(PLACE_KS)), "app": "none",
                "intensity": "light", "duration": EMULATE_DURATION_S,
                "seed": serial}
    if kind == "apply_changes":
        # synth networks have more links than 2 per router, so any id
        # below that names a link.
        return {"kind": "apply_changes", "topology": topology,
                "changes": [{
                    "op": "set_link_cost",
                    "link_id": int(rng.integers(2 * topology["n_routers"])),
                    "latency_s": float(rng.uniform(0.001, 0.1)),
                }]}
    return {"kind": "emulate", "topology": topology, "app": "none",
            "intensity": "light", "duration": EMULATE_DURATION_S,
            "seed": serial}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``massf serve`` child process and a client for it."""

    def __init__(self, cache_dir, log_path) -> None:
        from repro.service.client import connect

        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        self._log = open(log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--port", str(self.port), "--workers", str(SERVICE_WORKERS),
                 "--cache-dir", str(cache_dir)],
                cwd=ROOT, env=env, stdout=self._log, stderr=self._log,
            )
        except BaseException:
            self._log.close()
            raise
        self.url = f"http://127.0.0.1:{self.port}"
        self.client = connect(self.url, timeout=REQUEST_TIMEOUT_S)

    def wait_ready(self) -> None:
        deadline = clock() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"massf serve exited with code {self.proc.returncode}")
            try:
                self.client.status()
                return
            except OSError:
                if clock() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        """Interrupt the server (it stops its workers cleanly) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _call(client, request: dict):
    """Submit one request and wait for it; ``(info, client_latency_s)``."""
    start = clock()
    info = client.submit(request)
    poll = 0.0
    while info.state not in ("done", "failed", "cancelled"):
        if clock() - start > REQUEST_TIMEOUT_S:
            raise TimeoutError(f"{info.job_id} still {info.state}")
        time.sleep(poll)
        poll = min(POLL_MAX_S, max(POLL_FIRST_S, poll * 1.5))
        info = client.job(info.job_id)
    return info, clock() - start


def _warm_up(server: Server, tally: Tally) -> None:
    """One TOP map per topology, in turn, so each network and its routing
    tables are built once, by one worker."""
    for topology in TOPOLOGIES:
        request = {"kind": "map", "topology": topology, "approach": "top",
                   "k": 2, "seed": WARMUP_SEED}
        outcome, _ = tally.run("warm-up request",
                               lambda: _call(server.client, request))
        if outcome is not None and outcome[0].state != "done":
            tally.check("warm-up request",
                        f"job {outcome[0].state}: {outcome[0].error}")


def _drive(server: Server, sequence, seconds: float, tally: Tally) -> list:
    """Run the closed loop; one record per completed request."""
    from repro.service.client import connect

    lock = threading.Lock()
    stream = enumerate(sequence)
    records: list[dict] = []
    deadline = clock() + seconds

    def client_loop() -> None:
        client = connect(server.url, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                position, item = next(stream, (None, None))
            if item is None or (position >= MIN_REQUESTS
                                and clock() >= deadline):
                return
            kind, repeat, request = item
            outcome, _ = tally.run(
                f"{kind} request", lambda: _call(client, request))
            if outcome is None:
                continue
            info, latency = outcome
            if info.state != "done":
                tally.check(f"{kind} request",
                            f"job {info.state}: {info.error}")
                continue
            with lock:
                records.append({"kind": kind, "repeat": repeat,
                                "request": request, "info": info,
                                "latency": latency, "end": clock()})

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _check(records: list, tally: Tally) -> None:
    """Repeats must equal the first answer; apply_changes must match a cold
    build of the changed network."""
    from repro.routing.spf import build_routing
    from repro.runtime.fingerprint import stable_hash
    from repro.service.warm import build_topology

    first: dict[str, dict] = {}
    for rec in sorted(records, key=lambda r: r["end"]):
        key = json.dumps(rec["request"], sort_keys=True)
        body = rec["info"].result
        if key in first:
            # A repeat answered from the warm cache must be the first answer
            # itself; one that ran while the first was still in flight
            # recomputes it, and may differ only in its measured timings.
            ignore = () if rec["info"].warm_hit else TIMING_FIELDS
            tally.check(f"{rec['kind']} repeat",
                        response_mismatch(body, first[key], ignore))
        else:
            first[key] = body
        if rec["kind"] == "apply_changes" and not rec["repeat"]:
            request = rec["request"]
            net = build_topology(
                {**request["topology"], "changes": request["changes"]})
            tables = build_routing(net)
            tally.check("apply_changes", routing_mismatch(
                body, stable_hash(tables.dist), stable_hash(tables.next_hop)))


def _ratio(layer: dict) -> float:
    total = layer.get("hits", 0) + layer.get("misses", 0)
    return layer.get("hits", 0) / total if total else 0.0


def _per_layer(records: list, status: dict, metrics: dict) -> dict:
    fresh = [r for r in records if not r["repeat"]]

    def jobs(kind):
        return [r["info"] for r in fresh if r["kind"] == kind]

    def span_mean(path):
        agg = metrics["spans"].get(path)
        return agg["total_s"] / agg["count"] if agg else 0.0

    counters = metrics["counters"]
    warm = status["warm"]
    layers = {
        "service.queue_wait_s": median(
            r["info"].started_s - r["info"].submitted_s for r in records),
        "service.job_s": median(
            r["info"].finished_s - r["info"].started_s for r in fresh),
        "service.http_s": median(
            r["latency"] - (r["info"].finished_s - r["info"].submitted_s)
            for r in records),
        "service.delta_derives": warm["delta_derives"],
        "service.cold_builds": warm["cold_builds"],
        "routing.build_s": span_mean("routing/build"),
        "routing.delta_s": span_mean("routing/derive"),
        "routing.touched_sources": (
            counters.get("routing.touched_sources", 0)
            / max(1, counters.get("routing.derive_updates", 0))),
        "map.top_s": median(i.finished_s - i.started_s
                            for i in jobs("map_top")),
        "map.place_s": median(i.finished_s - i.started_s
                              for i in jobs("map_place")),
        "kernel.run_s": median(i.result["wall_s"]
                               for i in jobs("emulate")),
        "kernel.events": median(i.result["n_events"]
                                for i in jobs("emulate")),
        "kernel.windows": counters.get("kernel.windows", 0),
        "kernel.events_per_window": (
            counters.get("kernel.events", 0)
            / max(1, counters.get("kernel.windows", 0))),
        "kernel.vector_frac": (
            counters.get("kernel.vector_events", 0)
            / max(1, counters.get("kernel.vector_events", 0)
                  + counters.get("kernel.python_loop_events", 0))),
    }
    for name in ("topology", "routing", "response"):
        layers[f"service.warm.{name}.hit_ratio"] = _ratio(
            warm["layers"].get(name, {}))
    return layers


def measure(seed: int, seconds: float, trace: bool) -> Measurement:
    RESULTS_DIR.mkdir(exist_ok=True)
    cache_dir = RESULTS_DIR / f"service-cache-{os.getpid()}"
    log_path = RESULTS_DIR / f"service-seed{seed}.log"
    sequence = request_sequence(seed)
    tally = Tally()
    setup_times = []
    warmup_times = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
            start = clock()
            server = Server(cache_dir, log_path)
            server.wait_ready()
            setup_times.append(clock() - start)
            start = clock()
            _warm_up(server, tally)
            warmup_times.append(clock() - start)
        start = clock()
        records = _drive(server, sequence, seconds, tally)
        elapsed = max(r["end"] for r in records) - start if records else 0.0
        status = server.client.status()
        metrics = server.client.metrics()
        # The servers reaped so far did the same fixed work (start-up and
        # priming); the timed server is reaped below.
        primed_peak_mb = peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if not records:
        raise RuntimeError("no service request completed: "
                           + "; ".join(tally.failures)[:2000])
    _check(records, tally)

    fresh = [r["latency"] for r in records if not r["repeat"]]
    repeat = [r["latency"] for r in records if r["repeat"]]
    tail_s, tail_pct, tail_n = tail(fresh)

    def rate(kind):
        """Server-side kernel events per second over the fresh jobs."""
        jobs = [r["info"].result for r in records
                if r["kind"] == kind and not r["repeat"]]
        return (sum(job["n_events"] for job in jobs)
                / sum(job["wall_s"] for job in jobs))

    end_to_end = {
        "setup_s": median(setup_times),
        # The timed server grows with every request it answers (warm
        # routing tables, memos, job records), so its peak measures how
        # many requests fit in the run; it is reported as
        # server_peak_rss_mb.  This one covers fixed work only: this
        # process and the servers that were started and primed.
        "peak_rss_mb": max(primed_peak_mb, own_peak_rss_mb()),
        "seq_events_per_s": rate("emulate"),
        "ops_per_s": len(records) / elapsed,
        "throughput_rps": len(records) / elapsed,
        "op_p50_s": median(fresh),
        "fresh_latency_p50_s": median(fresh),
        "fresh_latency_tail_s": tail_s,
        "repeat_latency_p50_s": median(repeat),
    }
    from repro.service.warm import build_topology

    counters = metrics["counters"]
    regime = {
        "topologies": [
            {"routers": len(net.routers()), "hosts": len(net.hosts())}
            for net in map(build_topology, TOPOLOGIES)
        ],
        "emulate_events": counters.get("kernel.events", 0),
        "emulate_windows": counters.get("kernel.windows", 0),
        "emulate_events_per_window": (
            counters.get("kernel.events", 0)
            / max(1, counters.get("kernel.windows", 0))),
        "warm_evictions": status["warm"]["evictions"],
        "warm_mb": status["warm_nbytes"] / 2**20,
        "service_workers": SERVICE_WORKERS, "clients": CLIENTS,
        "loop": "closed", "repeat_share": REPEAT_SHARE,
        "block": dict(BLOCK),
        "emulate_horizon_s": EMULATE_DURATION_S,
        "requests": len(records), "fresh": len(fresh), "repeats": len(repeat),
        "by_kind": {kind: sum(1 for r in records if r["kind"] == kind)
                    for kind, _ in BLOCK if kind != "repeat"},
    }
    return Measurement(
        end_to_end=end_to_end,
        per_layer=_per_layer(records, status, metrics) if trace else {},
        regime=regime, tally=tally,
        report={"fresh_latency_tail": {"percentile": tail_pct,
                                       "samples": tail_n},
                "warmup_s": median(warmup_times),
                "server_peak_rss_mb": peak_rss_mb()},
    )
