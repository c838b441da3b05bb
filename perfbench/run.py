"""Run one perfbench workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload soup-dense --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no tracing attached;
``--trace 1`` is a separate run that also times each layer's calls and
reads the program's own counters.  The last line of standard output is the
result object (``correct``, ``attempted``, ``failed``, ``metrics``); the
line before it is a report with every metric by name and unit, the regime
and the provenance.  The program is imported from ``src/`` of the same
checkout, so there is nothing to build.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

WORKLOADS = ("paper-sparse", "soup-dense", "service-mix")


def _measure(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "paper-sparse":
        import paper_sparse as module
    elif workload == "soup-dense":
        import soup_dense as module
    else:
        import service_mix as module
    return module.measure(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # A terminated run unwinds like an interrupted one, so a workload's
    # cleanup (the service-mix server) still runs.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    from harness import emit

    measurement = _measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    emit(args.workload, args.seed, bool(args.trace), measurement)
    return 0


if __name__ == "__main__":
    sys.exit(main())
