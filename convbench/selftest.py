"""Self-tests of the benchmark's own machinery.

    python3 convbench/selftest.py

Run from the repository root.  Four checks; the script exits non-zero
when any fails:

1. **Attribution.**  A fixed busy-wait is injected into
   ``NetworkDatabase.savepoint`` underneath the span wrappers, and the
   same batches are traced with and without it.  The added time must
   land in ``engine.savepoint`` (within 10%), no other layer and not
   ``unattributed`` may move by more than 10% of it, and in both runs
   the self times must add up to the traced wall time.
2. **Output check.**  A report summary, a status, and the byte layout
   of a checkpoint are each tampered with; the check must reject all
   three and accept the untouched outputs.
3. **Comparator.**  Synthetic run sets must be judged ``unchanged``,
   ``regressed``, ``improved`` and ``unresolved`` as designed, and a
   set holding an incorrect run must be judged ``incorrect``.
4. **Declarations.**  ``BENCHMARK.json`` must list exactly the
   workloads of ``bench.WORKLOADS`` and the metric names and units of
   ``bench.END_TO_END_UNITS`` and ``bench.PER_LAYER_UNITS``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import compare  # noqa: E402
from inputs import Expected, build_pool, draw_batches  # noqa: E402
from layers import LAYER_NAMES, UNATTRIBUTED, Instrumentation, Timeline  # noqa: E402
from repro.network.database import NetworkDatabase  # noqa: E402

DELAY_S = 0.005
JOBS = 4


def traced_self_times(pool, workdir: Path, delay: float):
    """Trace ``JOBS`` fixed batches of batch-sweep; returns (self_s,
    calls, wall).  With ``delay`` the savepoint busy-waits that long."""
    original = NetworkDatabase.savepoint

    def slow_savepoint(self):
        until = time.perf_counter() + delay
        while time.perf_counter() < until:
            pass
        return original(self)

    if delay:
        NetworkDatabase.savepoint = slow_savepoint
    timeline = Timeline()
    instrumentation = Instrumentation(timeline).install()
    try:
        expected = Expected.load(pool)
        runner = bench.SerialRunner(pool, expected, workdir, 25)
        runner.client = bench.client_span(timeline)
        runner.setup()
        m = bench.Measure()
        batches = draw_batches(7, pool.size, 25)
        for _ in range(JOBS):
            runner.job(next(batches), m)
        wall, self_s, calls = timeline.close()
        if not expected.ok:
            raise RuntimeError(
                f"attribution run produced wrong outputs: {expected.problems}")
        return self_s, calls, wall
    finally:
        instrumentation.uninstall()
        NetworkDatabase.savepoint = original


def check_attribution(workdir: Path) -> list[str]:
    pool = build_pool("sweep")
    traced_self_times(pool, workdir, 0.0)  # warm caches before the pair
    base, base_calls, base_wall = traced_self_times(pool, workdir, 0.0)
    slow, slow_calls, slow_wall = traced_self_times(pool, workdir, DELAY_S)
    problems = []
    runs = (("base", base, base_wall), ("injected", slow, slow_wall))
    for label, self_s, wall in runs:
        total = sum(self_s.values())
        if abs(total - wall) > 1e-6 * wall:
            problems.append(
                f"{label}: self times sum to {total:.6f}s, wall is {wall:.6f}s")
    injected = slow_calls["engine.savepoint"] * DELAY_S
    moved = slow.get("engine.savepoint", 0.0) - base.get("engine.savepoint", 0.0)
    print(f"attribution: injected {injected:.3f}s over "
          f"{slow_calls['engine.savepoint']} savepoints; "
          f"engine.savepoint moved {moved:+.3f}s")
    if not 0.9 * injected <= moved <= 1.1 * injected:
        problems.append(
            f"engine.savepoint moved {moved:.3f}s for {injected:.3f}s injected")
    for name in (*LAYER_NAMES, "bench.client", UNATTRIBUTED):
        if name == "engine.savepoint":
            continue
        shift = slow.get(name, 0.0) - base.get(name, 0.0)
        if abs(shift) > 0.1 * injected:
            problems.append(
                f"{name} moved {shift:+.3f}s under an injected savepoint delay")
    return problems


def check_output_check(workdir: Path) -> list[str]:
    pool = build_pool("default")
    indices = list(range(10))
    runner = bench.SerialRunner(pool, Expected.load(pool), workdir, 10)
    runner.setup()
    options = runner.opts.replace(checkpoint=str(workdir / "ck.json"))
    batch = bench.api.convert_batch(
        runner.cascade, [pool.programs[i] for i in indices], options)
    summaries = [report.to_summary() for report in batch.reports]
    raw = (workdir / "ck.json").read_bytes()
    head = {"version": 1, "programs": [s["program"] for s in summaries]}

    def rejected(check) -> bool:
        expected = Expected.load(pool)
        check(expected)
        return not expected.ok

    problems = []
    if rejected(lambda e: e.check_summaries(indices, summaries, "untouched")):
        problems.append("untouched summaries rejected")
    if rejected(lambda e: e.check_json_artifact(raw, indices, "completed", head, "t")):
        problems.append("untouched checkpoint rejected")
    changed = json.loads(json.dumps(summaries))
    changed[3]["warnings"].append("extra")
    if not rejected(lambda e: e.check_summaries(indices, changed, "tampered")):
        problems.append("a changed summary was accepted")
    restatused = json.loads(json.dumps(summaries))
    restatused[0]["status"] = "failed"
    if not rejected(lambda e: e.check_summaries(indices, restatused, "tampered")):
        problems.append("a changed status was accepted")
    compact = (json.dumps(json.loads(raw)) + "\n").encode("utf-8")
    if not rejected(
            lambda e: e.check_json_artifact(compact, indices, "completed", head, "t")):
        problems.append("a re-serialized checkpoint was accepted")
    print(f"output check: {'ok' if not problems else 'FAILED'}")
    return problems


def check_comparator() -> list[str]:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    cases = {
        "unchanged": (steady, list(reversed(steady)), 0.1, True),
        "regressed": (steady, [v * 0.8 for v in steady], 0.1, True),
        "improved": (steady, [v * 1.2 for v in steady], 0.1, True),
        "unresolved": (steady, [60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
                       0.1, True),
    }
    problems = []
    for want, (base, change, bound, higher) in cases.items():
        got = compare.judge(base, change, bound, higher)["verdict"]
        if got != want:
            problems.append(f"comparator judged a {want} case as {got}")
    benchmark = json.loads(compare.BENCHMARK.read_text())
    workload = benchmark["workloads"][0]["name"]
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for side, correct in (("base", [True] * 4), ("change", [True, False] * 2)):
            (Path(tmp) / side).mkdir()
            with open(Path(tmp) / side / f"{workload}.jsonl", "w") as out:
                for ok, value in zip(correct, steady):
                    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                               for m in benchmark["end_to_end"]}
                    out.write(json.dumps({"correct": ok, "metrics": metrics}) + "\n")
        verdicts = {row["verdict"] for _, _, row in
                    compare.compare(Path(tmp) / "base", Path(tmp) / "change", benchmark)}
    if verdicts != {"incorrect"}:
        problems.append(f"a set with incorrect runs was judged {sorted(verdicts)}")
    print(f"comparator: {'ok' if not problems else 'FAILED'}")
    return problems


def check_declarations() -> list[str]:
    benchmark = json.loads(compare.BENCHMARK.read_text())
    problems = []
    declared = [w["name"] for w in benchmark["workloads"]]
    if sorted(declared) != sorted(bench.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared} != bench.WORKLOADS "
                        f"{sorted(bench.WORKLOADS)}")
    for key, table in (("end_to_end", bench.END_TO_END_UNITS),
                       ("per_layer", bench.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in benchmark[key]}
        if listed != table:
            differ = sorted(name for name in set(listed) | set(table)
                            if listed.get(name) != table.get(name))
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's "
                            f"metric table at {differ}")
    print(f"declarations: {'ok' if not problems else 'FAILED'}")
    return problems


def main() -> int:
    workdir = HERE / ".work" / f"selftest-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        problems = (check_declarations() + check_comparator()
                    + check_output_check(workdir) + check_attribution(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still has its directory there
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
