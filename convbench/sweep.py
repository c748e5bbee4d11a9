"""Run the benchmark over several seeds and report each metric's spread.

    python3 convbench/sweep.py --out <dir> [--workloads a,b] [--seeds 1-10]
                               [--seconds S] [--trace 0|1] [--change-tree <dir>]

Each run's result line is appended to ``<dir>/<workload>.jsonl``;
``compare.py`` reads two such directories.  For every end-to-end
metric the summary prints the median and the spread -- the distance
between the first and third quartiles as a share of the median --
next to the metric's bound from ``BENCHMARK.json``, flagging spreads
above a third of the bound.  Exits 1 when a run printed no result, a
run was incorrect, or a spread is above a third of its bound.

The runs use the checkout this script is in.  With ``--change-tree``
they are made in pairs: for each seed, once in this checkout (written
under ``<dir>/base``) and once in the other tree (``<dir>/change``),
alternating which side runs first.  The host's speed drifts over
minutes, so two sets run one after the other can differ by more than
any bound; paired sets see the same drift, and
``compare.py <dir>/base <dir>/change`` then judges the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def load_runs(directory: Path, workload: str) -> list[dict]:
    path = directory / f"{workload}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def summarize(directory: Path, workloads: list[str], benchmark: dict) -> bool:
    """Print medians and spreads; True when every run was correct and
    every spread is within a third of its bound."""
    steady = True
    for workload in workloads:
        runs = load_runs(directory, workload)
        incorrect = sum(not run["correct"] for run in runs)
        print(f"{workload}: {len(runs)} runs, {incorrect} incorrect")
        if incorrect:
            steady = False
        if len(runs) < 2:
            steady = False
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values)
            flag = ""
            if share > metric["bound"] / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {name:16s} median {statistics.median(values):12.4f} "
                  f"{metric['unit']:5s} spread {share:6.3f}  "
                  f"bound {metric['bound']:.2f}{flag}")
    return steady


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int,
             benchmark: dict) -> str | None:
    """One benchmark run in ``tree``; its result line, or None when it
    printed none.  An incorrect run still prints its line (and exits
    1): it is kept, so that summarize and compare.py see it."""
    command = [sys.executable, *benchmark["command"][1:],
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    print(f"{workload} seed {seed} in {tree}: exit {done.returncode} "
          f"in {time.monotonic() - start:.1f}s", flush=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    if not lines or not lines[-1].startswith("{"):
        return None
    return lines[-1]


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    every = ",".join(w["name"] for w in benchmark["workloads"])
    parser.add_argument("--workloads", default=every)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--change-tree", type=Path,
                        help="a second checkout to run in pairs with this one")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.change_tree is None:
        sides = [(args.out, ROOT)]
    else:
        sides = [(args.out / "base", ROOT),
                 (args.out / "change", args.change_tree.resolve())]
    for directory, _ in sides:
        directory.mkdir(parents=True, exist_ok=True)
    crashed = 0
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for directory, tree in (sides if i % 2 == 0 else sides[::-1]):
                line = run_once(tree, workload, seed, args.seconds, args.trace,
                                benchmark)
                if line is None:
                    crashed += 1
                    continue
                with open(directory / f"{workload}.jsonl", "a") as out:
                    out.write(line + "\n")
    if crashed:
        print(f"{crashed} runs printed no result", file=sys.stderr)
    if args.trace:
        return 1 if crashed else 0
    steady = True
    for directory, tree in sides:
        if len(sides) > 1:
            print(f"== {directory.name}: {tree}")
        steady = summarize(directory, workloads, benchmark) and steady
    return 0 if steady and not crashed else 1


if __name__ == "__main__":
    sys.exit(main())
