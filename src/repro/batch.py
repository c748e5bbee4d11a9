"""Fault-isolated, checkpointed batch conversion: the one batch core.

Section 1.1: "a database application system is converted when each
program actually existing in the source system has been converted."
A real conversion shop runs hundreds of programs in one batch, and the
batch must survive any single program going wrong: one fault may not
take down the run, corrupt the databases the probes execute against,
or lose the work already done.

Every batch -- serial, on a worker pool, or served -- runs through one
core over a :class:`~repro.strategies.cascade.FallbackCascade`:

* :class:`BatchRun` is the batch as the unit of work: it checks the
  program names and recovers the journal once per batch;
* :func:`convert_programs` is the one per-program loop: each program
  converts through :func:`convert_one` inside a ``batch.program`` span;
* :meth:`BatchRun.settle` is the one settle step: it renders each
  report's summary once, writes the journal, fires progress exactly
  once per program, and :meth:`BatchRun.report` builds the
  program-ordered :class:`~repro.core.report.BatchReport`.

:func:`run_batch` is that core run serially.  The parallel executor
(:mod:`repro.parallel`) runs :func:`convert_programs` over every
dispatched chunk inside its workers and settles each returned summary
into the coordinator's :class:`BatchRun`.  The core provides three
guarantees:

* **isolation** -- every program converts inside engine savepoints;
  a fault (even an injected engine fault) is caught, rolled back, and
  recorded as a failed :class:`~repro.core.report.ConversionReport`
  with a :class:`~repro.core.report.FaultContext` carrying the chained
  root cause, while the rest of the batch proceeds;
* **durability** -- after each program the batch journals its progress
  to a JSON checkpoint (atomic rename + directory fsync), so a killed
  run resumes with ``resume=True`` and completes only the unfinished
  programs;
* **fidelity** -- a resumed batch reproduces the same final
  :class:`~repro.core.report.BatchReport` (reports are serialized via
  the exact render/parse round trip).

On a worker pool the journal is split into per-worker *shards*: worker
``k`` journals its cumulative progress to ``<checkpoint>.shard<k>``
after every dispatch chunk, and the coordinator merges the shards into
the main checkpoint in program order -- atomically, shards unlinked
only after the merged document is durable -- so a resumed parallel run
is byte-identical to a serial one.  The merge keys on program names,
not shard order, so it is indifferent to which worker converted which
chunk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro._deprecation import warn_deprecated
from repro.core.report import (
    BatchReport,
    ConversionReport,
    FaultContext,
    STATUS_FAILED,
    STATUS_QUARANTINED,
)
from repro.errors import ReproError
from repro.faultinject import KIND_KILL_WORKER, FaultPlan, WorkerKilled
from repro.jsonio import remove_durable, write_json_atomic
from repro.observe.registry import named_counters
from repro.observe.tracing import span
from repro.options import ConversionOptions
from repro.programs.ast import Program
from repro.programs.interpreter import ProgramInputs, program_deadline
from repro.strategies.cascade import FallbackCascade

CHECKPOINT_VERSION = 1

#: Per-program progress callback: ``(report, done, total, resumed)``.
#: ``done`` counts settled programs (converted, failed, quarantined,
#: or recovered from a checkpoint), ``total`` is the batch size, and
#: ``resumed`` marks reports reconstructed from the journal rather
#: than converted in this run.  It fires exactly once per program.
#: Serial batches call it in program order, recovered reports in their
#: place; pool batches call it for the recovered reports first, then
#: in completion order (the final
#: :class:`~repro.core.report.BatchReport` is program-ordered either
#: way).  An exception raised from the callback aborts the batch after
#: the reported program -- with the journal already written, so a
#: ``KeyboardInterrupt`` here is exactly the graceful-interrupt path.
ProgressCallback = Callable[[ConversionReport, int, int, bool], None]


class CheckpointError(ReproError):
    """A checkpoint file is unreadable or belongs to a different batch."""


class BatchCheckpoint:
    """Journal of a batch run: which programs, which are done, and
    their report summaries -- one JSON document, rewritten atomically
    after every program."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has version "
                f"{data.get('version')!r}, expected {CHECKPOINT_VERSION}"
            )
        return data

    def completed_summaries(self, programs: list[str]) -> dict[str, dict]:
        """The already-journaled report summaries, verified against
        this batch's program list (a checkpoint from a different batch
        is refused, not silently merged)."""
        data = self.load()
        if data.get("programs") != programs:
            raise CheckpointError(
                f"checkpoint {self.path} was written for programs "
                f"{data.get('programs')}, not {programs}"
            )
        return {entry["program"]: entry for entry in data.get("completed", ())}

    def completed_reports(self, programs: list[str]) -> dict[str, ConversionReport]:
        """:meth:`completed_summaries`, parsed back into reports."""
        return {
            name: ConversionReport.from_summary(entry)
            for name, entry in self.completed_summaries(programs).items()
        }

    def write(self, programs: list[str], completed: dict[str, dict]) -> None:
        """Atomic journal update (write-then-rename, so a kill mid-write
        leaves the previous checkpoint intact) of the completed report
        summaries, keyed by program name, in program order."""
        self.write_summaries(
            programs, [completed[name] for name in programs if name in completed]
        )

    def write_summaries(self, programs: list[str], completed: list[dict]) -> None:
        data = {
            "version": CHECKPOINT_VERSION,
            "programs": programs,
            "completed": completed,
        }
        write_json_atomic(data, self.path)

    def clear(self) -> None:
        remove_durable(self.path)
        for shard in self.shard_paths():
            remove_durable(shard)

    # -- per-worker shards (parallel batches) --------------------------

    def shard_path(self, worker_id: int) -> Path:
        """Worker ``k``'s private journal, next to the main checkpoint."""
        return self.path.with_name(f"{self.path.name}.shard{worker_id}")

    def shard(self, worker_id: int) -> "BatchCheckpoint":
        return BatchCheckpoint(self.shard_path(worker_id))

    def shard_paths(self) -> list[Path]:
        """Existing shard files, ordered by worker id."""
        prefix = f"{self.path.name}.shard"
        found = [
            p
            for p in self.path.parent.glob(f"{prefix}*")
            if p.name[len(prefix) :].isdigit()
        ]
        return sorted(found, key=lambda p: int(p.name[len(prefix) :]))

    def merge_shards(self, programs: list[str]) -> None:
        """Fold every worker shard into the main checkpoint.

        The union of the main document and all shards is rewritten in
        program order -- the same order a serial run journals in, so
        the merged checkpoint is byte-identical to a serial one.  The
        merged document is written (and its directory fsynced) *before*
        the shards are unlinked: a crash inside the merge window leaves
        either the shards or the merged main, never neither.  The
        fault-injection harness targets exactly that window via
        ``inject(repro.batch, "write_json_atomic")`` and
        ``inject(repro.jsonio, "fsync_dir")``.
        """
        merged: dict[str, dict] = {}
        if self.exists():
            merged.update(self.completed_summaries(programs))
        shards = self.shard_paths()
        for shard_file in shards:
            merged.update(BatchCheckpoint(shard_file).completed_summaries(programs))
        self.write(programs, merged)
        # Durable unlink: a power loss must not resurrect already-merged
        # shards for a later resume to fold over fresher main state.
        for shard_file in shards:
            remove_durable(shard_file)

    def recover(self, programs: list[str]) -> dict[str, ConversionReport]:
        """Resume entry point: fold in any leftover shards (a parallel
        run killed before or during its merge), then return the
        completed reports.  Tolerates a missing main checkpoint."""
        if self.shard_paths():
            self.merge_shards(programs)
        if not self.exists():
            return {}
        return self.completed_reports(programs)


class BatchRun:
    """One batch as the unit of work: its program names (checked once),
    its journal (recovered once), and the settled report of every
    program.

    With ``options.resume`` and an existing checkpoint (or leftover
    parallel shards), programs already journaled are not re-run: their
    reports, reconstructed from the journal, are :attr:`recovered` and
    settle with ``resumed=True``, so the final report matches an
    uninterrupted run.
    """

    def __init__(
        self,
        programs: list[Program],
        options: ConversionOptions,
        progress: ProgressCallback | None = None,
    ):
        self.programs = list(programs)
        self.options = options
        self.progress = progress
        # The journal and the parallel merge both key on the name.
        self.names = [program.name for program in self.programs]
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate program names in batch: {self.names}")
        self.journal: BatchCheckpoint | None = None
        self.recovered: dict[str, ConversionReport] = {}
        if options.checkpoint:
            self.journal = BatchCheckpoint(options.checkpoint)
            if options.resume:
                self.recovered = self.journal.recover(self.names)
        self.reports: dict[str, ConversionReport] = {}
        self._summaries: dict[str, dict] = {}

    def pending(self) -> list[Program]:
        """The programs the journal does not already hold."""
        return [p for p in self.programs if p.name not in self.recovered]

    @property
    def complete(self) -> bool:
        return len(self.reports) == len(self.names)

    def settle(
        self,
        report: ConversionReport,
        summary: dict | None = None,
        resumed: bool = False,
        journaled: bool = False,
    ) -> None:
        """Account for one program, once: a second report for a settled
        program (a re-dealt chunk's duplicate) is ignored.

        The summary is rendered once (or taken from ``summary``, the
        worker's rendering), and the main checkpoint is rewritten unless
        the report is already durable -- ``resumed`` from it, or
        ``journaled`` in a worker shard.  Progress fires *after* the
        journal write, so a callback that raises (the conversion
        service's cooperative stop raises ``KeyboardInterrupt`` there)
        always leaves a checkpoint that resumes past the reported
        program.
        """
        name = report.program_name
        if name in self.reports:
            return
        self.reports[name] = report
        if self.journal is not None:
            self._summaries[name] = summary or report.to_summary()
            if not (resumed or journaled):
                self.journal.write(self.names, self._summaries)
        if self.progress is not None:
            self.progress(report, len(self.reports), len(self.names), resumed)

    def settle_result(
        self, summary: dict, metrics: dict | None, cost: dict | None
    ) -> None:
        """Settle one program a pool worker converted (see
        :class:`ShardSink`): parsed once -- a re-dealt chunk's duplicate
        is skipped unparsed -- with its metrics and cost reattached, and
        not journaled again (the worker's shard holds it)."""
        if summary["program"] in self.reports:
            return
        report = ConversionReport.from_summary(summary)
        report.metrics, report.cost = metrics, cost
        self.settle(report, summary, journaled=True)

    def convert(self, cascade: FallbackCascade) -> BatchReport:
        """The core run serially: every program in program order, the
        recovered ones settled in their place."""
        with span("batch.convert", programs=len(self.programs)):
            convert_programs(
                cascade, self.programs, self.options, self.settle, self.recovered
            )
        return self.report()

    def report(self) -> BatchReport:
        """The settled reports in program order."""
        return BatchReport([self.reports[name] for name in self.names])


class ShardSink:
    """A pool worker's settle step for one batch: its cumulative
    journal shard (``shard_path``; ``None`` journals nothing).

    A stale shard from a crashed run the caller chose not to resume is
    removed at the start -- durably, so a machine crash cannot
    resurrect it into this batch's merge.
    """

    def __init__(self, shard_path: str | None, names: list[str]):
        self.journal = BatchCheckpoint(shard_path) if shard_path else None
        if self.journal is not None and self.journal.exists():
            remove_durable(self.journal.path)
        self.names = names
        self.summaries: list[dict] = []

    def convert(
        self,
        cascade: FallbackCascade,
        programs: list[Program],
        options: ConversionOptions,
    ) -> list[tuple[dict, dict | None, dict | None]]:
        """Run the core loop over one chunk: each summary is rendered
        once and the shard rewritten once for the whole chunk.  Returns
        ``(summary, metrics, cost)`` per program, for the coordinator's
        :meth:`BatchRun.settle_result` -- metrics and cost as-is, None
        included (:func:`convert_one`'s belt-and-braces path), so the
        settled report matches serial."""
        results = []

        def settle(report: ConversionReport) -> None:
            summary = report.to_summary()
            self.summaries.append(summary)
            results.append((summary, report.metrics, report.cost))

        convert_programs(cascade, programs, options, settle)
        if self.journal is not None:
            self.journal.write_summaries(self.names, self.summaries)
        return results


def convert_programs(
    cascade: FallbackCascade,
    programs: list[Program],
    options: ConversionOptions,
    settle: Callable[..., None],
    recovered: dict[str, ConversionReport] | None = None,
) -> None:
    """The one per-program loop: each program converts through
    :func:`convert_one` inside a ``batch.program`` span and goes
    straight to ``settle``; a program in ``recovered`` settles from the
    journal instead, with ``resumed=True``."""
    for program in programs:
        if recovered and program.name in recovered:
            settle(recovered[program.name], resumed=True)
            continue
        with span("batch.program", program=program.name):
            report = convert_one(cascade, program, options)
        settle(report)


def run_batch(
    cascade: FallbackCascade,
    programs: list[Program],
    options: ConversionOptions | None = None,
    progress: ProgressCallback | None = None,
) -> BatchReport:
    """Convert every program through the fallback cascade, isolating
    per-program faults and journaling progress (see :class:`BatchRun`
    for resume and :data:`ProgressCallback` for ``progress``).

    This is the serial engine; ``options.jobs`` is ignored here.  The
    facade's :func:`repro.api.convert_batch` dispatches to
    :class:`repro.parallel.ParallelExecutor`, which runs the same core
    on a worker pool when ``jobs > 1``.
    """
    options = options if options is not None else ConversionOptions()
    return BatchRun(programs, options, progress).convert(cascade)


def convert_batch(
    cascade: FallbackCascade,
    programs: list[Program],
    checkpoint: str | Path | None = None,
    resume: bool = False,
    inputs: ProgramInputs | None = None,
) -> BatchReport:
    """Deprecated pre-facade signature; use :func:`run_batch` with a
    :class:`~repro.options.ConversionOptions` (or the
    :func:`repro.api.convert_batch` facade)."""
    warn_deprecated(
        "batch.convert_batch",
        "repro.batch.convert_batch(checkpoint=..., resume=..., "
        "inputs=...) is deprecated; use repro.api.convert_batch with "
        "options=ConversionOptions(...) instead",
    )
    options = ConversionOptions(checkpoint=checkpoint, resume=resume, inputs=inputs)
    return run_batch(cascade, programs, options)


def quarantine_report(
    program_name: str, attempts: int, plan: FaultPlan | None = None
) -> ConversionReport:
    """The synthesized report for a poison program pulled from a batch.

    Built from the *plan*, never from a live exception or worker id:
    the parallel coordinator synthesizes this report for a program
    whose worker died (there is no exception object, and worker ids
    vary with the jobs count), and the serial engine synthesizes the
    identical one after its in-process retries -- byte-identical
    checkpoints at any jobs count depend on both sides agreeing on
    every character here.
    """
    cause_chain: tuple[str, ...] = ()
    if plan is not None:
        for fault in plan.for_program(program_name):
            if fault.kind == KIND_KILL_WORKER:
                cause_chain = (
                    f"WorkerKilled: injected worker kill at {fault.describe()}",
                )
                break
    fault_context = FaultContext(
        error_type="WorkerKilled",
        message=(
            f"conversion killed its worker process "
            f"{attempts} time(s); program quarantined"
        ),
        program=program_name,
        phase="supervise",
        cause_chain=cause_chain,
    )
    report = ConversionReport(program_name, STATUS_QUARANTINED)
    report.failure = (
        f"quarantined as poison input: conversion killed "
        f"its worker process {attempts} time(s)"
    )
    report.fault = fault_context
    return report


def convert_one(
    cascade: FallbackCascade, program: Program, options: ConversionOptions
) -> ConversionReport:
    """One program through the cascade, with belt-and-braces rollback:
    the cascade already probes inside savepoints, but if a fault
    escapes anyway both databases are restored here before the failure
    is recorded.

    When the options carry a fault plan, its faults for this program
    are armed around the conversion -- call counting scoped to this
    one program unit, so the plan fires identically no matter how the
    batch is ordered or sharded across workers.

    Supervision hooks live here too, because this is the one function
    both the serial engine and every pool worker route through:
    ``options.program_timeout`` arms the interpreter's cooperative
    deadline around each attempt, and a :class:`WorkerKilled` fault
    (the serial stand-in for a worker process dying) is retried up to
    ``options.max_program_retries`` times before the program is
    quarantined -- mirroring, attempt for attempt, what the parallel
    coordinator does when a real worker dies, so quarantine reports
    are byte-identical at any jobs count.  In a pool worker a kill
    fault never reaches this handler (the process exits).
    """
    source_sp = cascade.source_db.savepoint()
    target_sp = cascade.target_db.savepoint()
    plan = options.fault_plan
    engines = {"source_db": cascade.source_db, "target_db": cascade.target_db}
    retries = max(1, options.max_program_retries)
    kills = 0
    while True:
        try:
            with program_deadline(options.program_timeout):
                if plan:
                    with plan.armed(program.name, engines):
                        outcome = cascade.convert(program, options=options)
                else:
                    outcome = cascade.convert(program, options=options)
        except WorkerKilled:
            cascade.source_db.rollback(source_sp)
            cascade.target_db.rollback(target_sp)
            kills += 1
            if kills >= retries:
                named_counters("supervision").bump("quarantined")
                return quarantine_report(program.name, kills, plan)
            continue
        except Exception as exc:
            cascade.source_db.rollback(source_sp)
            cascade.target_db.rollback(target_sp)
            fault = FaultContext.from_exception(
                exc, program=program.name, phase="convert-batch"
            )
            report = ConversionReport(program.name, STATUS_FAILED)
            report.failure = str(exc)
            report.fault = fault
            return report
        return outcome.report

