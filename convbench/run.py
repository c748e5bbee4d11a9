"""The repository benchmark: conversion workloads through the public facade.

    python3 convbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (timed with no
wrapper installed); with ``--trace 1`` they are the per-layer ones,
from jobs run under the span wrappers of ``layers.py``, alternating
with untraced jobs (the reference for ``trace.overhead_share``).
Every batch's output is checked against ``expected.json``; a mismatch,
or a job that failed (so its outputs could not be checked), prints
``"correct": false`` and exits 1.

Workloads (see README.md for why each exists):

* ``batch-sweep``           serial, 25-program batches, 75% pathology mix,
                            150-store instance;
* ``batch-large-instance``  serial, 16-program batches, default mix,
                            1326-store instance;
* ``service-jobs``          in-process ``ConversionService``, one client in
                            a closed loop of 25-program jobs, default mix;
* ``batch-parallel``        ``jobs=2`` on a warm ``WorkerPool``, checkpointed
                            50-program batches, default mix.

A *job* is one batch: one ``api.convert_batch`` call, or one served
job from ``POST /jobs`` to its terminal event.  Throughput and
latencies count only time the system had a job in flight; the
benchmark's own checks between jobs are excluded.  An untraced run
times ``--seconds`` of jobs, and at least 100 jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    # The workload names come from BENCHMARK.json; selftest.py checks
    # that they are exactly bench.WORKLOADS.
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"convbench: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     HERE / ".work")


if __name__ == "__main__":
    sys.exit(main())
