"""Output checks, run outside the timed region.

Each returns ``None`` when the output is right and a one-line reason when
it is not; the workloads count any reason as a failed operation.
"""

from __future__ import annotations

import json

#: The :class:`repro.engine.trace.EventTrace` columns compared byte for byte.
TRACE_COLUMNS = ("time", "node", "next_node", "packets", "flow", "span")


def trace_mismatch(trace, reference) -> str | None:
    """Reason ``trace`` is not byte-identical to ``reference``, or None."""
    for name in TRACE_COLUMNS:
        got, want = getattr(trace, name), getattr(reference, name)
        if got.dtype != want.dtype or got.shape != want.shape:
            return (f"trace column {name}: {got.dtype}{got.shape} != "
                    f"reference {want.dtype}{want.shape}")
        if got.tobytes() != want.tobytes():
            return f"trace column {name} differs from the reference"
    if trace.duration != reference.duration:
        return f"trace duration {trace.duration} != {reference.duration}"
    return None


def response_mismatch(body, first, ignore=()) -> str | None:
    """Reason a repeated response ``body`` differs from the ``first`` answer
    to the same request, or None; top-level keys in ``ignore`` are skipped."""
    got = json.dumps({k: v for k, v in body.items() if k not in ignore},
                     sort_keys=True)
    want = json.dumps({k: v for k, v in first.items() if k not in ignore},
                      sort_keys=True)
    if got != want:
        return f"repeated response differs from the first: {got[:120]}"
    return None


def routing_mismatch(response: dict, dist_checksum: str,
                     next_hop_checksum: str) -> str | None:
    """Reason an ``apply_changes`` response disagrees with a cold
    :func:`repro.routing.spf.build_routing` of the changed network."""
    if response.get("dist_checksum") != dist_checksum:
        return "apply_changes dist checksum differs from a cold build"
    if response.get("next_hop_checksum") != next_hop_checksum:
        return "apply_changes next-hop checksum differs from a cold build"
    return None
