"""Measurement helpers shared by the perfbench workloads.

Every workload returns a :class:`Measurement`: its end-to-end metrics, its
per-layer metrics (traced runs only), the regime it ran in, and a
:class:`Tally` of the operations it attempted and the ones that failed.
:func:`emit` turns that into the two lines the runner prints: a report line
(every metric by its full name, regime, provenance) and the final result
line, whose metric names must be exactly the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = ROOT / ".perfbench-results"

#: Seeds at or above this value are held out: never used while tuning the
#: benchmark or writing a change, so a claim can be re-checked on one.
HELD_OUT_FROM = 1000

clock = time.perf_counter


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n_samples)``; the value is the
    nearest-rank sample.  Fewer than 20 samples leave no such percentile
    at or above the median, so the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return float(ordered[-1]), 100, n
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return float(ordered[rank - 1]), pct, n


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process alone."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU seconds of every reaped child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_setup(build, repeats: int = 3):
    """Run ``build()`` ``repeats`` times: median seconds and last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = clock()
        result = build()
        times.append(clock() - start)
    return median(times), result


@dataclass
class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def run(self, label: str, fn):
        """Run one operation; returns ``(result, seconds)`` or ``(None, None)``
        when it raised (the exception counts as a failure)."""
        self.attempted += 1
        start = clock()
        try:
            result = fn()
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None, None
        return result, clock() - start

    def check(self, label: str, problem: str | None) -> bool:
        """Record an output-check verdict for an operation already counted."""
        if problem is None:
            return True
        self.failures.append(f"{label}: {problem}")
        return False

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class EmulateRun:
    """One timed :func:`repro.emulate` call."""

    result: object          # repro.api.EmulationResult
    seconds: float          # the call, plus map_s
    map_s: float            # traced LP runs: deriving the TOP partition
    parent_cpu_s: float
    worker_cpu_s: float     # reaped LP workers

    def lp_layers(self) -> dict:
        r = self.result
        return {
            "lp.run_s": r.wall_s,
            "lp.windows": r.stats.windows,
            "lp.imbalance": r.lp_imbalance,
            "lp.parent_cpu_s": self.parent_cpu_s,
            "lp.wait_s": r.wall_s - self.parent_cpu_s,
            "lp.worker_cpu_s": self.worker_cpu_s,
        }


def timed_emulate(tally: Tally, net, tables, workload, *, engine: str, k: int,
                  seed: int, train_packets: int, trace: bool):
    """Run one emulation as an operation; None when it raised.

    An untraced LP run lets :func:`repro.emulate` derive its k-way TOP
    partition, as a user's call does; a traced one derives it first with
    :func:`repro.build_mapping` so the mapping has a time of its own.
    """
    import repro

    parts = None
    map_s = 0.0
    if trace and engine == "parallel":
        start = clock()
        parts = repro.build_mapping(net, k, "top", tables=tables).parts
        map_s = clock() - start
    cpu0, kids0 = time.process_time(), children_cpu_s()
    result, wall = tally.run(f"emulate {engine}", lambda: repro.emulate(
        net, tables, workload, engine=engine,
        k=k if engine == "parallel" else None, parts=parts, seed=seed,
        train_packets=train_packets,
    ))
    if result is None:
        return None
    return EmulateRun(result, wall + map_s, map_s,
                      time.process_time() - cpu0, children_cpu_s() - kids0)


@dataclass
class Measurement:
    end_to_end: dict
    per_layer: dict
    regime: dict
    tally: Tally
    report: dict = field(default_factory=dict)


def unit_of(name: str) -> str:
    """The unit a report prints beside a metric, read from its name."""
    if name.startswith("ops_"):
        return "1/s"
    if name.endswith("_per_s"):
        return "events/s"
    if name.endswith("_rps"):
        return "requests/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "hit_ratio", "imbalance", "events_per_window")
                     ) or ".imbalance." in name:
        return "ratio"
    return "count"


def with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())}


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "src_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "held_out": seed >= HELD_OUT_FROM,
    }


def result_line(metrics: dict, spec_metrics: list, tally: Tally) -> dict:
    """The final JSON object, carrying exactly the ``spec_metrics``; each
    must be among ``metrics`` as a finite number."""
    for name in (m["name"] for m in spec_metrics):
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(
                f"BENCHMARK.json metric {name} was not measured as a finite "
                f"number: {value!r}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec_metrics
        },
    }


def _overhead(workload: str, seed: int, traced: dict) -> dict | None:
    """Traced minus untraced end-to-end numbers, when the untraced run of
    the same workload and seed left its report behind."""
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        untraced = json.load(fh)["end_to_end"]
    return {
        name: traced[name] - untraced[name]["value"]
        for name in traced
        if name in untraced
    }


def emit(workload: str, seed: int, trace: bool, m: Measurement) -> None:
    """Print the report line, then the result line."""
    spec = load_spec()
    result = result_line(
        m.per_layer if trace else m.end_to_end,
        spec["per_layer"] if trace else spec["end_to_end"],
        m.tally,
    )
    report = {
        "workload": workload,
        "trace": int(trace),
        "regime": m.regime,
        "provenance": provenance(seed),
        "end_to_end": with_units({
            **m.end_to_end,
            "failed_frac": m.tally.failed / max(1, m.tally.attempted),
        }),
        **m.report,
    }
    if trace:
        report["per_layer"] = with_units(m.per_layer)
        report["tracing_overhead"] = _overhead(workload, seed, m.end_to_end)
    if m.tally.failures:
        report["failures"] = m.tally.failures[:20]
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result), flush=True)
