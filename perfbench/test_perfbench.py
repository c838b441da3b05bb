"""Tests of the benchmark itself: its output checks and its printed names.

Run from the root of the repository::

    python -m pytest perfbench -q

The last test runs every workload briefly, once untraced and once traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    TRACE_COLUMNS,
    response_mismatch,
    routing_mismatch,
    trace_mismatch,
)
from harness import Tally, load_spec, result_line, tail  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _trace():
    from repro.engine.trace import EventTrace

    rng = np.random.default_rng(0)
    n = 50
    return EventTrace(
        time=np.sort(rng.uniform(0, 1, n)),
        node=rng.integers(0, 10, n).astype(np.int32),
        next_node=rng.integers(-2, 10, n).astype(np.int32),
        packets=rng.integers(1, 32, n).astype(np.int32),
        flow=rng.integers(0, 5, n).astype(np.int32),
        span=rng.uniform(0, 1e-3, n),
        duration=1.0,
        n_nodes=10,
    )


def _copy(trace, **changes):
    from dataclasses import replace

    columns = {name: getattr(trace, name).copy() for name in TRACE_COLUMNS}
    columns.update(changes)
    return replace(trace, **columns)


def test_identical_trace_passes():
    trace = _trace()
    assert trace_mismatch(_copy(trace), trace) is None


@pytest.mark.parametrize("column", TRACE_COLUMNS)
def test_perturbed_trace_is_rejected(column):
    trace = _trace()
    values = getattr(trace, column).copy()
    if values.dtype.kind == "f":
        values[17] = np.nextafter(values[17], np.inf)
    else:
        values[17] += 1
    problem = trace_mismatch(_copy(trace, **{column: values}), trace)
    assert problem is not None and column in problem


def test_trace_with_other_dtype_is_rejected():
    trace = _trace()
    widened = _copy(trace, node=trace.node.astype(np.int64))
    assert trace_mismatch(widened, trace) is not None


def test_truncated_trace_is_rejected():
    trace = _trace()
    short = _copy(trace, **{name: getattr(trace, name)[:-1]
                            for name in TRACE_COLUMNS})
    assert trace_mismatch(short, trace) is not None


def test_mismatched_response_body_is_rejected():
    first = {"approach": "top", "k": 4, "parts_checksum": "abc",
             "parts": [0, 1, 1, 0]}
    assert response_mismatch(dict(first), first) is None
    assert response_mismatch({**first, "parts": [0, 1, 0, 0]}, first)
    assert response_mismatch({**first, "extra": 1}, first)
    assert response_mismatch({"k": 4}, first)


def test_only_named_timing_fields_may_differ():
    first = {"n_events": 10, "wall_s": 0.5, "trace_checksum": "x"}
    again = {"n_events": 10, "wall_s": 0.7, "trace_checksum": "x"}
    assert response_mismatch(again, first) is not None
    assert response_mismatch(again, first, ignore=("wall_s",)) is None
    other = {**again, "trace_checksum": "y"}
    assert response_mismatch(other, first, ignore=("wall_s",)) is not None


def test_routing_checksums_must_match_a_cold_build():
    body = {"dist_checksum": "d", "next_hop_checksum": "h"}
    assert routing_mismatch(body, "d", "h") is None
    assert routing_mismatch(body, "D", "h") is not None
    assert routing_mismatch(body, "d", "H") is not None


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, pct, n = tail(values)
    assert n == 100 and pct == 90
    assert sum(1 for v in values if v > value) >= 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)


def test_result_line_carries_exactly_the_spec_metrics():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    tally = Tally(attempted=3)
    line = result_line({**{n: 1.5 for n in names}, "cell_s": 2.0},
                       spec["end_to_end"], tally)
    assert list(line["metrics"]) == names
    assert line["correct"] and line["attempted"] == 3 and line["failed"] == 0
    with pytest.raises(RuntimeError):
        result_line({n: 1.5 for n in names[1:]}, spec["end_to_end"], tally)
    with pytest.raises(RuntimeError):
        result_line({**{n: 1.5 for n in names}, names[0]: float("nan")},
                    spec["end_to_end"], tally)
    tally.check("op", "wrong output")
    assert not result_line({n: 1.5 for n in names}, spec["end_to_end"],
                           tally)["correct"]


def test_spec_names_the_workloads_the_runner_accepts():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metric_names_match_the_spec(workload, trace):
    spec = load_spec()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(lines[-2])["report"]
    assert report["provenance"]["seed"] == 7
    assert report["regime"]


@pytest.mark.xfail(reason="WarmCache: two concurrent cold misses on one "
                   "topology leave its network and its routing tables built "
                   "from different copies; service-mix primes each topology "
                   "before its timed loop for this reason")
def test_concurrent_cold_misses_keep_network_and_routing_together(
        monkeypatch):
    """A second request for the same topology arriving while the first is
    still building it (replayed here by nesting it inside the first build)
    must leave the warm network and its warm routing tables consistent."""
    import repro.service.warm as warm

    spec = {"source": "synth", "n_routers": 40, "seed": 1}
    cache = warm.WarmCache()
    build = warm.build_topology
    nested = []

    def build_while_another_request_runs(s):
        if not nested:
            nested.append(True)
            cache.routing(cache.topology(s))
        return build(s)

    monkeypatch.setattr(warm, "build_topology",
                        build_while_another_request_runs)
    net = cache.topology(spec)
    cache.routing(net)
    later = cache.topology(spec)
    assert cache.routing(later).tables.net is later
