"""The large-inventory synthetic workload (repro.workloads.inventory).

The workload backs the multi-scale parallel benchmarks, so its
headline property is determinism: the same spec must yield a
byte-identical schema, corpus, and conversion outcome on every run, in
every process, at every worker count.  Plus the knobs: corpus size,
schema breadth, and the strategy/pathology mix controls.
"""

import gc

import pytest

from repro import api
from repro.batch import run_batch
from repro.options import ConversionOptions
from repro.programs.interpreter import ProgramInputs
from repro.workloads.inventory import (
    CLEAN_KINDS,
    INVENTORY_PATHOLOGY_KINDS,
    STORE_KINDS,
    InventorySpec,
    asset_record,
    asset_set,
    generate_inventory,
    inventory_cascade,
    inventory_database,
    inventory_ddl,
    inventory_schema,
    render_corpus,
)

OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                            parallel_threshold=2)

SPEC = InventorySpec(programs=40)


def summaries(batch):
    return [report.to_summary() for report in batch.reports]


class TestDeterminism:
    def test_same_seed_byte_identical_corpus(self):
        first = render_corpus(generate_inventory(SPEC))
        second = render_corpus(generate_inventory(InventorySpec(
            programs=40)))
        assert first == second

    def test_different_seed_different_corpus(self):
        assert render_corpus(generate_inventory(SPEC)) != \
            render_corpus(generate_inventory(
                InventorySpec(programs=40, seed=7)))

    def test_ddl_and_database_deterministic(self):
        assert inventory_ddl(SPEC) == inventory_ddl(
            InventorySpec(programs=40))
        first = inventory_database(SPEC)
        second = inventory_database(InventorySpec(programs=40))
        assert first.state_fingerprint() == second.state_fingerprint()

    def test_reports_identical_across_runs_and_jobs_counts(self,
                                                           tmp_path):
        """Same seed -> byte-identical conversion reports, serially,
        twice, and at every --jobs count."""
        gc.collect()
        programs = [item.program for item in generate_inventory(SPEC)]
        serial_path = tmp_path / "serial.json"
        serial = run_batch(inventory_cascade(SPEC), programs,
                           OPTIONS.replace(checkpoint=serial_path))
        again = run_batch(inventory_cascade(SPEC), programs, OPTIONS)
        assert summaries(again) == summaries(serial)
        for jobs in (2, 3):
            path = tmp_path / f"jobs{jobs}.json"
            parallel = api.convert_batch(
                inventory_cascade(SPEC),
                programs,
                OPTIONS.replace(jobs=jobs, checkpoint=path))
            assert summaries(parallel) == summaries(serial)
            assert path.read_bytes() == serial_path.read_bytes()


class TestKnobs:
    def test_corpus_size_knob(self):
        assert len(generate_inventory(InventorySpec(programs=7))) == 7
        assert len(generate_inventory(InventorySpec(programs=123))) == 123

    def test_schema_breadth_scales_with_satellites(self):
        wide = inventory_schema(InventorySpec(satellite_records=9))
        narrow = inventory_schema(InventorySpec(satellite_records=1))
        assert len(wide.records) == 2 + 9
        assert len(narrow.records) == 2 + 1
        assert asset_record(8) in wide.records
        assert asset_set(8) in wide.sets

    def test_pathology_rate_zero_and_high(self):
        clean = generate_inventory(InventorySpec(programs=60,
                                                 pathology_rate=0.0))
        assert all(item.kind not in INVENTORY_PATHOLOGY_KINDS
                   for item in clean)
        dirty = generate_inventory(InventorySpec(programs=60,
                                                 pathology_rate=1.0))
        assert all(item.kind in INVENTORY_PATHOLOGY_KINDS
                   for item in dirty)

    def test_store_rate_steers_the_mix(self):
        stores = generate_inventory(InventorySpec(
            programs=60, pathology_rate=0.0, store_rate=1.0))
        assert all(item.kind in STORE_KINDS for item in stores)
        none = generate_inventory(InventorySpec(
            programs=60, pathology_rate=0.0, store_rate=0.0))
        assert all(item.kind in CLEAN_KINDS for item in none)

    def test_program_names_unique(self):
        corpus = generate_inventory(InventorySpec(programs=200))
        names = [item.program.name for item in corpus]
        assert len(set(names)) == len(names)


class TestConversion:
    def test_corpus_converts_with_a_strategy_mix(self):
        """The cascade must actually exercise rewrite *and* a fallback
        stage on this corpus -- a mix with no emulation-bound programs
        would make the scaling benchmark unrepresentative."""
        gc.collect()
        spec = InventorySpec(programs=60)
        corpus = generate_inventory(spec)
        batch = run_batch(inventory_cascade(spec),
                          [item.program for item in corpus], OPTIONS)
        strategies = {report.strategy for report in batch.reports
                      if report.strategy}
        assert "rewrite" in strategies
        assert len(strategies) >= 2, (
            "expected at least one non-rewrite conversion, got "
            f"{strategies}")

    @pytest.mark.parametrize("rate", [0.0, 0.75])
    def test_pathology_rates_convert_identically_in_parallel(self, rate,
                                                             tmp_path):
        gc.collect()
        spec = InventorySpec(programs=24, pathology_rate=rate)
        programs = [item.program for item in generate_inventory(spec)]
        serial = run_batch(inventory_cascade(spec), programs, OPTIONS)
        parallel = api.convert_batch(inventory_cascade(spec), programs,
                                     OPTIONS.replace(jobs=2))
        assert summaries(parallel) == summaries(serial)
