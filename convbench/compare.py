"""Compare two sets of benchmark runs against the recorded bounds.

    python3 convbench/compare.py <base-dir> <change-dir>

Each directory holds ``<workload>.jsonl`` files of result lines, as
``sweep.py`` writes them: best the ``base`` and ``change`` directories
of one paired sweep (``sweep.py --change-tree``), whose runs alternate
between the two trees seed by seed.  Two sets swept one after the
other see different stretches of the host's speed drift; on the host
this benchmark was built on, two such sets of the same code came out
``improved`` by up to 39%.  Runs are paired in file order, so both
sides need the same seeds and ``--seconds``.  Every (end-to-end
metric, workload) pair gets one verdict:

* ``incorrect``  -- a run on either side failed its output check (a
  run with a failed job counts as failing it);
* ``missing``    -- a side has fewer than two runs of a workload the
  other side ran;
* ``unresolved`` -- either side's spread (interquartile distance over
  the median) is wider than the metric's bound, and the change's runs
  do not all read better, or all worse, than the base's;
* ``regressed``  -- the change's median is worse than the base's by
  more than the bound;
* ``improved``   -- the change's median is better by more than the
  base's own spread, and the change wins at least nine tenths of the
  runs paired in order;
* ``unchanged``  -- none of the above.

Exits 1 when any pair is ``regressed``, ``incorrect`` or ``missing``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from sweep import BENCHMARK, load_runs, spread


def judge(base: list[float], change: list[float], bound: float,
          higher_better: bool) -> dict:
    """One verdict for one metric on one workload."""
    sign = 1.0 if higher_better else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    gain = sign * (change_median - base_median) / base_median
    base_spread, change_spread = spread(base), spread(change)
    all_better = min(sign * v for v in change) > max(sign * v for v in base)
    all_worse = max(sign * v for v in change) < min(sign * v for v in base)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if max(base_spread, change_spread) > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif -gain > bound:
        verdict = "regressed"
    elif gain > base_spread and wins >= 0.9 * len(pairs):
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "base": base_median, "change": change_median,
            "gain": gain, "base_spread": base_spread, "change_spread": change_spread,
            "wins": wins, "pairs": len(pairs)}


def compare(base_dir: Path, change_dir: Path,
            benchmark: dict) -> list[tuple[str, str, dict]]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        base, change = load_runs(base_dir, workload), load_runs(change_dir, workload)
        if not base and not change:
            continue  # not swept on either side
        incorrect = not all(run["correct"] for run in base + change)
        if len(base) < 2 or len(change) < 2:
            rows.append((workload, "*", {"verdict": "incorrect" if incorrect
                                         else "missing",
                                         "runs": (len(base), len(change))}))
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = judge([run["metrics"][name]["value"] for run in base],
                        [run["metrics"][name]["value"] for run in change],
                        metric["bound"], metric["better"] == "higher")
            if incorrect:
                row["verdict"] = "incorrect"
            row["bound"] = metric["bound"]
            rows.append((workload, name, row))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    rows = compare(args.base, args.change, benchmark)
    print(f"{'workload':22s} {'metric':16s} {'base':>11s} {'change':>11s} {'gain':>7s} "
          f"{'spreads':>13s} {'bound':>5s} {'wins':>6s}  verdict")
    for workload, name, row in rows:
        if "base" not in row:
            print(f"{workload:22s} {name:16s} too few runs (base {row['runs'][0]}, "
                  f"change {row['runs'][1]})  {row['verdict']}")
            continue
        print(f"{workload:22s} {name:16s} {row['base']:11.4f} {row['change']:11.4f} "
              f"{row['gain']:+7.3f} "
              f"{row['base_spread']:6.3f}/{row['change_spread']:6.3f} "
              f"{row['bound']:5.2f} {row['wins']:>2d}/{row['pairs']:<3d}  "
              f"{row['verdict']}")
    bad = [row for _, _, row in rows
           if row["verdict"] in ("regressed", "incorrect", "missing")]
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
