"""Record ``expected.json``: every pool program's report status and
summary digest, as converted by the tree this script runs in.

Run it only on a tree whose outputs are trusted (the benchmark's
correctness check compares every later run against this record):

    python3 convbench/record_expected.py

Each pool is converted twice, in pool order and in reverse, and the
two conversions must agree program by program -- the property that
lets one record check batches drawn in any order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from repro.options import ConversionOptions  # noqa: E402
from repro.programs.interpreter import ProgramInputs  # noqa: E402

import inputs  # noqa: E402


def record_pool(name: str) -> dict:
    pool = inputs.build_pool(name)
    terminal = list(inputs.TERMINAL_INPUTS)
    options = ConversionOptions(inputs=ProgramInputs(terminal=terminal))
    digests = []
    forward = list(range(len(pool.programs)))
    for order in (forward, forward[::-1]):
        cascade = api.build_cascade(pool.ddl, inputs.SPEC_TEXT, data=pool.data,
                                    options=options)
        batch = api.convert_batch(cascade, [pool.programs[i] for i in order], options)
        by_index = {i: r.to_summary() for i, r in zip(order, batch.reports)}
        digests.append([f"{by_index[i]['status']} {inputs.summary_digest(by_index[i])}"
                        for i in range(len(pool.programs))])
    if digests[0] != digests[1]:
        raise SystemExit(f"pool {name}: reports depend on batch order; cannot record")
    return {"pool_sha256": inputs.pool_digest(pool), "stores": pool.stores,
            "programs": digests[0]}


def main() -> int:
    record = {name: record_pool(name) for name in inputs.POOLS}
    inputs.EXPECTED_PATH.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record.items():
        print(f"{name}: {len(entry['programs'])} programs, {entry['stores']} stores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
