"""The one batch core (repro.batch.BatchRun) and the contracts every
path through it keeps: serial runs, pool coordinators, and resumes.

Each report's summary is rendered once, the journal is recovered once
and each journaled summary parsed once, and progress fires exactly
once per program -- in program order serially; recovered reports
first, then completion order, on a worker pool, with re-dealt
duplicate chunk results never notified twice.
"""

import gc
import json

from repro import api
from repro.batch import BatchCheckpoint, run_batch
from repro.core.report import STATUS_QUARANTINED, ConversionReport
from repro.faultinject import KIND_KILL_WORKER, FaultPlan, PlannedFault
from repro.options import ConversionOptions
from repro.parallel import ParallelExecutor
from repro.programs.interpreter import ProgramInputs
from repro.restructure import restructure_database
from repro.strategies.cascade import FallbackCascade
from repro.workloads import company
from repro.workloads.corpus import CorpusSpec, generate_corpus

CORPUS_SIZE = 8

# parallel_threshold=2 so the 8-program batches take the pool path.
OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                            parallel_threshold=2)


def corpus_programs(pathology_rate=0.25):
    items = generate_corpus(CorpusSpec(seed=1979, size=CORPUS_SIZE,
                                       pathology_rate=pathology_rate))
    return [item.program for item in items]


def fresh_cascade():
    gc.collect()  # see test_parallel.fresh_cascade
    operator = company.figure_44_operator()
    source_db = company.company_db(seed=1979)
    _schema, target_db = restructure_database(source_db, operator)
    return FallbackCascade(source_db, target_db, operator)


def summaries(batch):
    return [report.to_summary() for report in batch.reports]


def count_to_summary(monkeypatch):
    calls = []
    original = ConversionReport.to_summary

    def counted(self):
        calls.append(self.program_name)
        return original(self)

    monkeypatch.setattr(ConversionReport, "to_summary", counted)
    return calls


def count_from_summary(monkeypatch):
    calls = []
    original = ConversionReport.from_summary

    def counted(cls, summary):
        calls.append(summary["program"])
        return original(summary)

    monkeypatch.setattr(ConversionReport, "from_summary", classmethod(counted))
    return calls


def count_recover(monkeypatch):
    calls = []
    original = BatchCheckpoint.recover

    def counted(self, programs):
        calls.append(programs)
        return original(self, programs)

    monkeypatch.setattr(BatchCheckpoint, "recover", counted)
    return calls


def recorder():
    calls = []

    def progress(report, done, total, resumed):
        calls.append((report.program_name, done, total, resumed))

    return calls, progress


class TestWorkDoneOnce:
    def test_checkpointed_serial_batch_renders_each_summary_once(
            self, tmp_path, monkeypatch):
        programs = corpus_programs()
        rendered = count_to_summary(monkeypatch)
        run_batch(fresh_cascade(), programs,
                  OPTIONS.replace(checkpoint=tmp_path / "batch.json"))
        assert sorted(rendered) == sorted(p.name for p in programs)

    def test_serial_resume_recovers_once_and_parses_once(
            self, tmp_path, monkeypatch):
        programs = corpus_programs()
        options = OPTIONS.replace(jobs=1, checkpoint=tmp_path / "batch.json")
        reference = api.convert_batch(fresh_cascade(), programs, options)

        recovered = count_recover(monkeypatch)
        parsed = count_from_summary(monkeypatch)
        resumed = api.convert_batch(fresh_cascade(), programs,
                                    options.replace(resume=True))
        assert len(recovered) == 1
        assert sorted(parsed) == sorted(p.name for p in programs)
        assert summaries(resumed) == summaries(reference)

    def test_pool_coordinator_parses_each_summary_once(self, monkeypatch):
        programs = corpus_programs()
        parsed = count_from_summary(monkeypatch)
        calls, progress = recorder()
        api.convert_batch(fresh_cascade(), programs, OPTIONS.replace(jobs=2),
                          progress=progress)
        assert sorted(parsed) == sorted(p.name for p in programs)
        assert len(calls) == len(programs)


class TestPoolProgress:
    def test_once_per_program_with_recovered_reports_first(self, tmp_path):
        programs = corpus_programs()
        reference_path = tmp_path / "reference.json"
        run_batch(fresh_cascade(), programs,
                  OPTIONS.replace(checkpoint=reference_path))
        # Keep every other entry: the recovered set is not a prefix.
        path = tmp_path / "batch.json"
        data = json.loads(reference_path.read_text())
        data["completed"] = data["completed"][1::2]
        path.write_text(json.dumps(data, indent=2) + "\n")
        recovered = [entry["program"] for entry in data["completed"]]

        calls, progress = recorder()
        api.convert_batch(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=2, checkpoint=path, resume=True),
            progress=progress)

        total = len(programs)
        assert [done for _, done, _, _ in calls] == list(range(1, total + 1))
        assert {t for _, _, t, _ in calls} == {total}
        assert sorted(name for name, _, _, _ in calls) == \
            sorted(p.name for p in programs)
        head = calls[:len(recovered)]
        assert [(name, resumed) for name, _, _, resumed in head] == \
            [(name, True) for name in recovered]
        assert not any(resumed for _, _, _, resumed in calls[len(recovered):])
        assert path.read_bytes() == reference_path.read_bytes()

    def test_chaos_redeal_duplicates_notify_nothing_twice(self):
        """A killed worker's journaled chunks are re-dealt, so their
        results can reach the coordinator twice.  Replaying every
        chunk result makes that race certain; each program must still
        settle, and be reported, exactly once."""
        programs = corpus_programs(0.0)
        plan = FaultPlan((PlannedFault(
            target="source_db", method="calc_index", nth=1,
            program=programs[0].name, kind=KIND_KILL_WORKER),))
        options = OPTIONS.replace(jobs=2, chunk_size=1, fault_plan=plan,
                                  poll_interval=0.05, drain_timeout=5.0)
        serial = run_batch(fresh_cascade(), programs, options)

        calls, progress = recorder()
        executor = ParallelExecutor(fresh_cascade(), programs, options,
                                    progress=progress)
        receive = executor._receive
        replays = []

        def receive_twice(*args):
            if replays:
                return replays.pop()
            message = receive(*args)
            if message[0] == "chunk":
                replays.append(message)
            return message

        executor._receive = receive_twice
        batch = executor.run()

        assert summaries(batch) == summaries(serial)
        assert batch.reports[0].status == STATUS_QUARANTINED
        assert [done for _, done, _, _ in calls] == \
            list(range(1, len(programs) + 1))
        assert sorted(name for name, _, _, _ in calls) == \
            sorted(p.name for p in programs)
