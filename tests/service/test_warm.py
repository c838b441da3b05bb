"""Warm cache: hit/miss accounting, LRU eviction, delta-reuse parity."""

import numpy as np

from repro.routing.spf import build_routing
from repro.service.warm import WarmCache, build_topology
from repro.topology.synth import synth_network


def _spec(seed=0, n=24, changes=None):
    spec = {"source": "synth", "n_routers": n,
            "hosts_per_router": 1.0, "seed": seed}
    if changes:
        spec["changes"] = changes
    return spec


def test_topology_layer_hits_and_misses():
    warm = WarmCache()
    net = warm.topology(_spec())
    assert warm.topology(_spec()) is net          # same object, warm
    warm.topology(_spec(seed=1))
    per = warm.stats.layers["topology"]
    assert per == {"hits": 1, "misses": 2}
    assert warm.stats.hit_rate("topology") == 1 / 3


def test_lru_eviction_under_byte_budget():
    probe = build_topology(_spec())
    from repro.service.warm import _network_nbytes

    budget = int(2.5 * _network_nbytes(probe))
    warm = WarmCache(budget_bytes=budget)
    for seed in range(4):
        warm.topology(_spec(seed=seed))
    assert warm.stats.evictions >= 1
    assert warm.nbytes <= budget
    keys = warm.keys("topology")
    assert len(keys) < 4
    # MRU entries survive; the oldest seed went first.
    assert WarmCache.topology_key(_spec(seed=3)) in keys
    assert WarmCache.topology_key(_spec(seed=0)) not in keys


def test_eviction_admits_oversized_single_entry():
    warm = WarmCache(budget_bytes=1)  # smaller than any entry
    net = warm.topology(_spec())
    assert warm.topology(_spec()) is net  # still retained (never empty)


def test_routing_exact_hit_then_delta_reuse_bit_identity():
    warm = WarmCache()
    base = synth_network(n_routers=24, hosts_per_router=1.0, seed=0)
    changed = build_topology(_spec(changes=[
        {"op": "set_link_cost", "link_id": 0, "latency_s": 0.123},
    ]))

    state = warm.routing(base)
    assert warm.stats.cold_builds == 1
    assert warm.routing(base) is state            # exact fingerprint hit
    assert warm.stats.layers["routing"]["hits"] == 1

    derived = warm.routing(changed)               # served by delta path
    assert warm.stats.delta_derives == 1
    assert warm.stats.cold_builds == 1            # no second full build

    oracle = build_routing(changed)
    assert np.array_equal(derived.tables.dist, oracle.dist)
    assert np.array_equal(derived.tables.next_hop, oracle.next_hop)
    # The base entry was never mutated by the derivation.
    fresh_base = build_routing(base)
    assert np.array_equal(state.tables.dist, fresh_base.dist)


def test_routing_falls_back_to_cold_build_past_change_ceiling():
    warm = WarmCache(max_delta_changes=0)
    base = synth_network(n_routers=24, hosts_per_router=1.0, seed=0)
    changed = build_topology(_spec(changes=[
        {"op": "set_link_cost", "link_id": 0, "latency_s": 0.123},
    ]))
    warm.routing(base)
    derived = warm.routing(changed)
    assert warm.stats.delta_derives == 0
    assert warm.stats.cold_builds == 2
    oracle = build_routing(changed)
    assert np.array_equal(derived.tables.dist, oracle.dist)


def test_response_memo_round_trip():
    warm = WarmCache()
    canon = ("map", (("k", 4),))
    found, _ = warm.memo_get(canon)
    assert not found
    warm.memo_put(canon, {"parts": [0, 1, 2]})
    found, value = warm.memo_get(canon)
    assert found and value == {"parts": [0, 1, 2]}


def test_concurrent_cold_topology_misses_share_one_network(monkeypatch):
    """Two jobs miss on one topology at once: both end up with the first
    inserted network, and the routing state is bound to that network."""
    import threading

    import repro.service.warm as warm_mod

    warm = WarmCache()
    build = warm_mod.build_topology
    both_building = threading.Barrier(2, timeout=30)

    def build_in_step(spec):
        both_building.wait()  # both misses are in flight before any put
        return build(spec)

    monkeypatch.setattr(warm_mod, "build_topology", build_in_step)
    nets: list = []
    states: list = []

    def job():
        net = warm.topology(_spec())
        nets.append(net)
        states.append(warm.routing(net))

    threads = [threading.Thread(target=job) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert len(nets) == 2
    assert nets[0] is nets[1]
    assert all(state.tables.net is nets[0] for state in states)
    later = warm.topology(_spec())
    assert later is nets[0]
    assert warm.routing(later).tables.net is later


def test_routing_rebinds_after_its_topology_entry_was_evicted():
    """A topology entry evicted while its routing entry stays warm: the
    rebuilt network gets routing tables bound to itself, not to the
    evicted copy, and the arrays are reused rather than recomputed."""
    from repro.service.warm import _network_nbytes, _routing_nbytes

    probe = build_topology(_spec())
    topo_nbytes = _network_nbytes(probe)
    routing_nbytes = _routing_nbytes(WarmCache().routing(probe))
    filler_nbytes = 64 * 1024  # one response memo entry
    warm = WarmCache(
        budget_bytes=topo_nbytes + routing_nbytes + filler_nbytes - 1
    )
    first = warm.topology(_spec())
    state = warm.routing(first)
    warm.memo_put(("filler",), {})            # evicts the topology (LRU)
    assert warm.keys("topology") == []
    assert warm.routing(first) is state       # touch: routing is now MRU
    rebuilt = warm.topology(_spec())          # evicts the filler memo
    assert rebuilt is not first
    assert len(warm.keys("routing")) == 1

    bound = warm.routing(rebuilt)
    assert bound.tables.net is rebuilt
    assert warm.stats.cold_builds == 1
    np.testing.assert_array_equal(bound.tables.dist, state.tables.dist)
    np.testing.assert_array_equal(bound.tables.next_hop,
                                  state.tables.next_hop)
    assert warm.routing(rebuilt) is bound     # the rebound state is cached
