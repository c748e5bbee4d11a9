"""Workload runners, the timed loop, and the metric tables behind
``run.py`` (which checks the checkout and puts ``src`` on the path
before importing this module)."""

from __future__ import annotations

import gc
import http.client
import json
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from inputs import SPEC_TEXT, TERMINAL_INPUTS, Expected, build_pool, draw_batches
from layers import (LAYER_NAMES, UNATTRIBUTED, Instrumentation, PeakRss, Timeline,
                    file_size)
from repro import api
from repro.observe.registry import get_registry
from repro.observe.tracing import Tracer
from repro.options import ConversionOptions
from repro.parallel import WorkerPool
from repro.programs.interpreter import ProgramInputs
from repro.service import ConversionService

#: name -> (pool, runner kind, programs per job, jobs per set-up).
#: An untraced run sets up a new runner every *jobs per set-up* jobs:
#: 20 or more set-ups a run, except 5 on batch-parallel, whose set-up
#: spawns the workers and takes about a second.
WORKLOADS = {
    "batch-sweep": ("sweep", "serial", 25, 5),
    "batch-large-instance": ("large", "serial", 16, 8),
    "service-jobs": ("default", "service", 25, 5),
    "batch-parallel": ("default", "parallel", 50, 20),
}

#: An untraced run times at least this many jobs, so that ten lie
#: beyond ``job_p90_ms``.
MIN_JOBS = 100

#: Worker processes for ``batch-parallel`` (the pool is warm before timing).
PARALLEL_JOBS = 2

#: Job states that end a served job's event stream.
TERMINAL = ("completed", "failed", "interrupted")


def quantile(values: list[float], q: int, n: int) -> float:
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


class Measure:
    """Per-job observations of one timed loop."""

    def __init__(self):
        self.busy = 0.0
        self.jobs: list[float] = []
        self.gaps: list[float] = []
        self.programs = 0
        self.attempted = 0
        self.failed = 0
        self.rewrite_stages = 0
        self.rewrite_refused = 0

    def count_stages(self, summaries: list[dict]) -> None:
        for summary in summaries:
            for stage in summary["stages"]:
                if stage["strategy"] == "rewrite":
                    self.rewrite_stages += 1
                    self.rewrite_refused += stage["outcome"] == "unconverted"


# -- runners ---------------------------------------------------------------


class Runner:
    """Set-up, one job, and teardown for one workload."""

    def __init__(self, pool, expected, workdir: Path, batch: int):
        self.pool = pool
        self.expected = expected
        self.workdir = workdir
        self.batch = batch
        self.client = nullcontext
        self.jobs_run = 0
        self.wpool = None

    def worker_pids(self) -> list[int]:
        return []

    def teardown(self) -> None:
        pass


class SerialRunner(Runner):
    jobs = 1

    def options(self):
        return ConversionOptions(jobs=self.jobs,
                                 inputs=ProgramInputs(terminal=list(TERMINAL_INPUTS)))

    def setup(self) -> None:
        self.opts = self.options()
        self.cascade = api.build_cascade(self.pool.ddl, SPEC_TEXT, data=self.pool.data,
                                         options=self.opts)

    def job_options(self, n: int):
        return self.opts

    def job(self, indices: list[int], m: Measure) -> None:
        programs = [self.pool.programs[i] for i in indices]
        n = self.jobs_run
        self.jobs_run += 1
        options = self.job_options(n)
        gaps: list[float] = []
        last = [0.0]

        def progress(report, done, total, resumed):
            now = time.perf_counter()
            gaps.append(now - last[0])
            last[0] = now

        start = last[0] = time.perf_counter()
        try:
            batch = api.convert_batch(self.cascade, programs, options,
                                      pool=self.wpool, progress=progress)
        except Exception as exc:  # a raising batch is a failed op, not a crash
            m.busy += time.perf_counter() - start
            m.attempted += len(indices)
            m.failed += len(indices)
            print(f"job {n} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - start
        m.busy += elapsed
        m.jobs.append(elapsed)
        m.gaps.extend(gaps)
        m.attempted += len(indices)
        m.programs += len(indices)
        with self.client("bench.client"):
            summaries = [report.to_summary() for report in batch.reports]
            self.expected.check_summaries(indices, summaries, f"job {n}")
            self.check_artifacts(n, indices)
            m.count_stages(summaries)

    def check_artifacts(self, n: int, indices: list[int]) -> None:
        pass


class ParallelRunner(SerialRunner):
    """``jobs=2`` over a warm pool; every batch journals a checkpoint."""

    jobs = PARALLEL_JOBS

    def checkpoint(self, n: int) -> Path:
        return self.workdir / f"checkpoint-{n}.json"

    def job_options(self, n: int):
        return self.opts.replace(checkpoint=str(self.checkpoint(n)))

    def setup(self) -> None:
        super().setup()
        self.wpool = WorkerPool(self.cascade, self.opts, jobs=PARALLEL_JOBS)
        # Ready means every worker has rehydrated: one warm-up program each.
        warm = list(range(PARALLEL_JOBS))
        api.convert_batch(self.cascade, [self.pool.programs[i] for i in warm],
                          self.opts.replace(chunk_size=1,
                                            checkpoint=str(self.workdir / "warm.json")),
                          pool=self.wpool)

    def check_artifacts(self, n: int, indices: list[int]) -> None:
        path = self.checkpoint(n)
        head = {"version": 1, "programs": self.expected.names(indices)}
        self.expected.check_json_artifact(path.read_bytes(), indices, "completed", head,
                                          f"job {n} checkpoint")
        path.unlink()

    def worker_pids(self) -> list[int]:
        return self.wpool.worker_pids()

    def teardown(self) -> None:
        if self.wpool is not None:
            self.wpool.close()


class ServiceRunner(Runner):
    """One client, closed loop: submit, follow the events to the
    terminal ``job`` event, then fetch the report artifact."""

    service = None

    def setup(self) -> None:
        self.spool = self.workdir / f"spool-{time.monotonic_ns()}"
        self.service = ConversionService(self.spool, port=0).start()
        host, port = self.service.address
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        # Ready means the cascade cache is warm: one single-program job.
        state, _, _ = self._submit([0], [])
        if state != "completed":
            raise RuntimeError(f"service warm-up job ended {state!r}")

    def _submit(self, indices: list[int], gaps: list[float]):
        """One job; returns (terminal state or error, snapshot, seconds)."""
        body = json.dumps({
            "ddl": self.pool.ddl,
            "spec": SPEC_TEXT,
            "data": self.pool.data,
            "programs": [self.pool.texts[i] for i in indices],
            "inputs": list(TERMINAL_INPUTS),
        }).encode("utf-8")
        start = last = time.perf_counter()
        self.conn.request("POST", "/jobs", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = response.read()
        if response.status != 202:
            return f"http {response.status}", None, time.perf_counter() - start
        snapshot = json.loads(payload)
        self.conn.request("GET", snapshot["links"]["events"])
        response = self.conn.getresponse()
        if response.status != 200:
            response.read()
            return f"http {response.status}", snapshot, time.perf_counter() - start
        state = "no terminal event"
        for now, event, data in read_events(response):
            if event == "program":
                gaps.append(now - last)
                last = now
            elif event == "job" and data.get("state") in TERMINAL:
                state = data["state"]
                elapsed = now - start
        response.close()
        if state == "no terminal event":
            elapsed = time.perf_counter() - start
        return state, snapshot, elapsed

    def job(self, indices: list[int], m: Measure) -> None:
        n = self.jobs_run
        self.jobs_run += 1
        gaps: list[float] = []
        state, snapshot, elapsed = self._submit(indices, gaps)
        m.attempted += len(indices)
        m.busy += elapsed
        if state != "completed":
            m.failed += len(indices)
            print(f"job {n} ended {state!r}", file=sys.stderr)
            return
        m.jobs.append(elapsed)
        m.gaps.extend(gaps)
        m.programs += len(indices)
        with self.client("bench.client"):
            self.conn.request("GET", snapshot["links"]["report"])
            response = self.conn.getresponse()
            report = response.read()
            if response.status != 200:
                self.expected.fail(f"job {n}: report fetch returned {response.status}")
                return
            self.expected.check_json_artifact(report, indices, "reports", {},
                                              f"job {n} report")
            checkpoint = self.spool / snapshot["id"] / "checkpoint.json"
            head = {"version": 1, "programs": self.expected.names(indices)}
            self.expected.check_json_artifact(checkpoint.read_bytes(), indices,
                                              "completed", head, f"job {n} checkpoint")
            m.count_stages(json.loads(report)["reports"])

    def teardown(self) -> None:
        if self.service is not None:
            self.conn.close()
            self.service.stop()


RUNNERS = {"serial": SerialRunner, "parallel": ParallelRunner, "service": ServiceRunner}


def read_events(response):
    """Follow a ``text/event-stream`` body, yielding (arrival time,
    event name, data) per event.  Events are split out of each received
    chunk as raw bytes and only ``job`` events are JSON-decoded, so the
    client holds the interpreter lock as briefly as possible while the
    in-process service works."""
    pending = b""
    while True:
        chunk = response.read1(65536)
        if not chunk:
            return
        now = time.perf_counter()
        pending += chunk
        *blocks, pending = pending.split(b"\n\n")
        for block in blocks:
            event = data = None
            for line in block.split(b"\n"):
                if line.startswith(b"event:"):
                    event = line[6:].strip().decode("ascii")
                elif line.startswith(b"data:") and event == "job":
                    data = json.loads(line[5:])
            yield now, event, data


# -- the timed loop ----------------------------------------------------------


# -- metric tables -------------------------------------------------------------
#
# The one list of metric names and units; selftest.py checks that
# BENCHMARK.json declares exactly these.

END_TO_END_UNITS = {
    "programs_per_s": "1/s",
    "program_p50_ms": "ms",
    "program_p99_ms": "ms",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics other than each wrapped layer's calls/self_s/share.
DERIVED_UNITS = {
    "bench.client.self_s": "s",
    "bench.client.share": "ratio",
    f"{UNATTRIBUTED}.self_s": "s",
    f"{UNATTRIBUTED}.share": "ratio",
    "trace.wall_s": "s",
    "trace.programs": "count",
    "trace.overhead_share": "ratio",
    "ops_failed_share": "ratio",
    "cascade.rewrite_skip_ratio": "ratio",
    "strategies.rewrite.refused_ratio": "ratio",
    "jsonio.write_json_atomic.bytes_per_program": "B",
    "jsonio.fsync_dir.calls_per_program": "count",
    "programs.parse_program.calls_per_program": "count",
    "parallel.chunks": "count",
    "parallel.worker_busy_share": "ratio",
    "service.queue_wait_ms": "ms",
    "service.cascade_cache_hit_ratio": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{name}.{part}": unit for name in LAYER_NAMES
       for part, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))},
    **DERIVED_UNITS,
}


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not in "
                           "the metric table, or missing from the result")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(m: Measure, setups: list[float], rss_mb: float) -> dict:
    return with_units({
        "setup_s": statistics.median(setups),
        "programs_per_s": m.programs / m.busy,
        "program_p50_ms": 1000 * statistics.median(m.gaps),
        "program_p99_ms": 1000 * quantile(m.gaps, 99, 100),
        "job_p50_ms": 1000 * statistics.median(m.jobs),
        "job_p90_ms": 1000 * quantile(m.jobs, 9, 10),
        "peak_rss_mb": rss_mb,
    }, END_TO_END_UNITS)


def set_up(make, setups: list[float]) -> Runner:
    """A new runner, set up on the clock.  A full collection first, so
    the previous runner's garbage is not collected on this one's."""
    gc.collect()
    runner = make()
    start = time.perf_counter()
    try:
        runner.setup()
    except BaseException:
        runner.teardown()
        raise
    setups.append(time.perf_counter() - start)
    return runner


def timed_run(make, seed: int, seconds: float, rss: PeakRss, jobs_per_setup: int):
    """Closed loop of seeded batches until ``seconds`` of job time and
    ``MIN_JOBS`` jobs (or three times ``seconds`` in wall time, should
    the system or the checks between jobs be unexpectedly slow).

    The set-ups are spread over the loop: every ``jobs_per_setup`` jobs
    the runner is torn down and a new one set up.  So ``setup_s``
    samples the same stretch of the host's time as the jobs do, not one
    moment of it, and every runner serves the same number of jobs
    (which keeps ``peak_rss_mb`` from depending on how fast the host
    ran).  Only one runner is alive at a time."""
    setups: list[float] = []
    m = Measure()
    runner = None
    try:
        runner = set_up(make, setups)
        batches = draw_batches(seed, runner.pool.size, runner.batch)
        deadline = time.perf_counter() + 3 * seconds + 10
        while m.busy < seconds or len(m.jobs) < MIN_JOBS:
            if time.perf_counter() > deadline:
                break
            if runner.jobs_run == jobs_per_setup:
                rss.note_workers(runner.worker_pids())
                runner.teardown()
                runner = None
                runner = set_up(make, setups)
            runner.job(next(batches), m)
        rss.note_workers(runner.worker_pids())
    finally:
        if runner is not None:
            runner.teardown()
    return m, end_to_end(m, setups, rss.peak_mb())


def traced_run(make, seed: int, seconds: float, kind: str):
    """Per-layer numbers.  Jobs alternate between untraced (wrappers
    removed, timeline paused) and traced, so ``trace.overhead_share``
    compares neighbouring jobs rather than two stretches of a run that
    the machine may have served at different speeds.  The traced
    set-up is included in the traced wall time."""
    timeline = Timeline()
    probe = TraceProbe(timeline)
    instrumentation = Instrumentation(timeline, probe.observers).install()
    # Worker spans (for worker_busy_share) exist only under a tracer.
    tracer = Tracer() if kind == "parallel" else None
    untraced, traced = Measure(), Measure()
    runner = make()
    runner.client = client_span(timeline)
    try:
        with tracer if tracer is not None else nullcontext():
            runner.setup()
        before = get_registry().snapshot()
        probe.start_measure()
        batches = draw_batches(seed, runner.pool.size, runner.batch)
        deadline = time.perf_counter() + 3 * seconds + 10
        while untraced.busy + traced.busy < seconds and time.perf_counter() < deadline:
            timeline.pause()
            instrumentation.uninstall()
            runner.client = nullcontext
            runner.job(next(batches), untraced)
            instrumentation.install()
            runner.client = client_span(timeline)
            timeline.pause(False)
            with tracer if tracer is not None else nullcontext():
                runner.job(next(batches), traced)
        wall, self_s, calls = timeline.close()
        after = get_registry().snapshot()
    finally:
        instrumentation.uninstall()
        runner.teardown()
    metrics = layer_metrics(self_s, calls, wall, traced, probe,
                            counter_delta(before, after, tracer), tracer)
    if kind == "service":
        builds = (calls.get("api.build_cascade", 0)
                  - probe.calls_at_start.get("api.build_cascade", 0))
        metrics["service.cascade_cache_hit_ratio"] = (
            1 - builds / max(1, len(traced.jobs)))
    if untraced.programs and traced.programs:
        metrics["trace.overhead_share"] = 1 - (traced.programs / traced.busy) / (
            untraced.programs / untraced.busy)
    m = Measure()
    m.attempted = untraced.attempted + traced.attempted
    m.failed = untraced.failed + traced.failed
    metrics["ops_failed_share"] = m.failed / max(1, m.attempted)
    return m, with_units(metrics, PER_LAYER_UNITS)


def client_span(timeline):
    """A ``runner.client`` that records benchmark-side work as a span."""

    @contextmanager
    def span(name):
        timeline.enter(name)
        try:
            yield
        finally:
            timeline.exit()

    return span


class TraceProbe:
    """Observers on wrapped layers: bytes written, chunks dispatched,
    queue waits, and call counts at the start of the timed loop."""

    def __init__(self, timeline):
        self.timeline = timeline
        self.json_bytes = 0
        self.chunks = 0
        self.queued: dict[str, float] = {}
        self.queue_waits: list[float] = []
        self.calls_at_start: dict[str, int] = {}
        self.observers = {
            "jsonio.write_json_atomic": self._wrote,
            "parallel.WorkerPool.send": self._sent,
            "service.Job.emit": self._emitted,
        }

    def start_measure(self):
        self.calls_at_start = dict(self.timeline.calls)

    def _wrote(self, args, kwargs, result):
        self.json_bytes += file_size(result)

    def _sent(self, args, kwargs, result):
        if args[2][0] == "chunk":
            self.chunks += 1

    def _emitted(self, args, kwargs, result):
        job, event, data = args[0], args[1], args[2]
        if event != "job":
            return
        now = time.perf_counter()
        if data.get("state") == "queued":
            self.queued[job.id] = now
        elif data.get("state") == "running" and job.id in self.queued:
            self.queue_waits.append(now - self.queued.pop(job.id))


def counter_delta(before: dict, after: dict, tracer) -> dict:
    """Cost-model counter movement: from the registry in-process, from
    the worker roots' stamped counters on the parallel path."""
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in ("cost.predictions", "cost.rewrite_skips")}
    if tracer is not None:
        for root in tracer.roots:
            if root.name == "parallel.worker":
                delta["cost.predictions"] += root.attrs.get("cost_predictions", 0)
                delta["cost.rewrite_skips"] += root.attrs.get("cost_rewrite_skips", 0)
    return delta


def layer_metrics(self_s, calls, wall, m: Measure, probe: TraceProbe, counters,
                  tracer) -> dict:
    out: dict[str, float] = {}
    programs = max(1, m.programs)
    for name in LAYER_NAMES:
        seconds = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = seconds
        out[f"{name}.share"] = seconds / wall
    for name in ("bench.client", UNATTRIBUTED):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.share"] = self_s.get(name, 0.0) / wall
    out["trace.wall_s"] = wall
    out["trace.programs"] = m.programs
    out["cascade.rewrite_skip_ratio"] = (
        counters["cost.rewrite_skips"] / max(1, counters["cost.predictions"]))
    out["strategies.rewrite.refused_ratio"] = (
        m.rewrite_refused / max(1, m.rewrite_stages))
    out["jsonio.write_json_atomic.bytes_per_program"] = probe.json_bytes / programs
    out["jsonio.fsync_dir.calls_per_program"] = (
        calls.get("jsonio.fsync_dir", 0) / programs)
    out["programs.parse_program.calls_per_program"] = (
        calls.get("programs.parse_program", 0) / programs)
    out["parallel.chunks"] = probe.chunks
    busy = 0.0
    if tracer is not None:
        for root in tracer.roots:
            if root.name == "parallel.worker":
                busy += sum(span.duration for span in root.walk()
                            if span.name == "batch.program")
    out["parallel.worker_busy_share"] = busy / (PARALLEL_JOBS * m.busy) if busy else 0.0
    out["service.queue_wait_ms"] = (
        1000 * statistics.median(probe.queue_waits) if probe.queue_waits else 0.0)
    out["service.cascade_cache_hit_ratio"] = 0.0
    out["trace.overhead_share"] = 0.0
    return out


def stop_resource_tracker() -> None:
    """Stop (and reap) the helper process multiprocessing starts for
    the worker pool's semaphores."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(workload: str, seed: int, seconds: float, trace: bool, workroot: Path) -> int:
    pool_name, kind, batch, jobs_per_setup = WORKLOADS[workload]
    rss = PeakRss()
    pool = build_pool(pool_name)
    expected = Expected.load(pool)
    pool.keep_only("texts" if kind == "service" else "programs")
    # The pool's thousand program trees are the benchmark's, not the
    # program's: keep them out of the collector's generations so they
    # do not add full-collection pauses to the timed jobs.
    gc.collect()
    gc.freeze()
    rss.exclude_since_start()
    workdir = workroot / f"{workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    runner_class = RUNNERS[kind]

    def make():
        return runner_class(pool, expected, workdir, batch)

    try:
        if trace:
            m, metrics = traced_run(make, seed, seconds, kind)
        else:
            m, metrics = timed_run(make, seed, seconds, rss, jobs_per_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still has its directory there
        if kind == "parallel":
            stop_resource_tracker()
    for problem in expected.problems:
        print(f"convbench: output check failed: {problem}", file=sys.stderr)
    if m.failed:
        print(f"convbench: {m.failed} of {m.attempted} programs were in failed jobs; "
              "their outputs were not checked", file=sys.stderr)
    # A failed job is an unchecked output, so it fails the run too.
    correct = expected.ok and m.failed == 0
    result = {"correct": correct, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1
