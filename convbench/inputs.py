"""Benchmark inputs: fixed program pools, the loader text, and the
recorded per-program outputs every run is checked against.

Each workload draws its batches from one *pool* -- an inventory corpus
generated once from a fixed :class:`InventorySpec` (seed 1979).  The
run's ``--seed`` only chooses which pool programs go into which batch,
and in what order.  Because probes roll back, a program's report
summary is a pure function of the program and the instance, so one
recorded digest per pool program (``expected.json``, written by
``record_expected.py`` on a trusted tree) checks the output of every
batch any seed can draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.programs import ast
from repro.programs import builder as b
from repro.workloads import inventory as inv
from repro.workloads.datagen import DataGen

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Programs per pool.  Large enough that a run's batches are mostly
#: distinct draws; small enough that recording takes seconds.
POOL_SIZE = 1000

#: The Figure 4.2 -> 4.4 restructuring every workload converts for.
SPEC_TEXT = "INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP AS DIV-DEPT, DEPT-EMP.\n"

#: Terminal input every probe replays: the inventory's verb-variability
#: and bulk-sweep shapes ACCEPT the DML verb to issue (as in E17).
TERMINAL_INPUTS = ("STORE",)

#: Pool name -> InventorySpec overrides.
POOLS = {
    # 75% pathologies: bulk-sweep shapes make the static cost walk big.
    "sweep": {"pathology_rate": 0.75},
    # E21's instance-heavy shape: 1326 stores, default 25% mix.
    "large": {"employees_per_division": 60, "satellite_rows": 40},
    # The default inventory tier: 150 stores, 25% mix.
    "default": {},
}


def pool_spec(pool: str) -> inv.InventorySpec:
    return inv.InventorySpec(programs=POOL_SIZE, **POOLS[pool])


def loader_text(spec: inv.InventorySpec) -> str:
    """A loader program (STOREs) that replays ``inventory_database``'s
    exact store sequence, so the instance reaches the system through
    the same ``data`` artifact a served job or ``repro convert`` uses."""
    gen = DataGen(spec.seed)
    stmts = []
    for d in range(spec.divisions):
        division = inv.division_name(d)
        stmts.append(b.store("DIV", **{"DIV-NAME": division, "DIV-LOC": gen.city()}))
        for e in range(spec.employees_per_division):
            stmts.append(b.store("EMP", **{
                "EMP-NAME": inv.employee_name(d, e),
                "DEPT-NAME": inv.department_name(e % spec.departments_per_division),
                "AGE": gen.age(),
                "DIV-NAME": division,
            }))
        for r in range(spec.satellite_records):
            record = inv.asset_record(r)
            for row in range(spec.satellite_rows):
                stmts.append(b.store(record, **{
                    f"{record}-TAG": inv.asset_tag(r, d, row),
                    f"{record}-COST": gen.int_between(100, 999_999),
                    "DIV-NAME": division,
                }))
    return ast.render_program(b.program("LOADER", "network", "INVENTORY", stmts))


@dataclass
class Pool:
    name: str
    programs: list  # parsed Program objects, pool order
    texts: list[str]  # rendered program texts, pool order
    ddl: str
    data: str

    def __post_init__(self):
        self.size = len(self.texts)
        self.names = [text_name(text) for text in self.texts]

    @property
    def stores(self) -> int:
        return self.data.count("STORE ")

    def keep_only(self, part: str) -> None:
        """Drop the program form a workload does not send (``"programs"``
        for the batch runners, ``"texts"`` for the service client), so
        the benchmark's own memory does not swamp the program's."""
        if part == "programs":
            self.texts = []
        elif part == "texts":
            self.programs = []
        else:
            raise ValueError(part)


def build_pool(name: str) -> Pool:
    spec = pool_spec(name)
    programs = [item.program for item in inv.generate_inventory(spec)]
    texts = [ast.render_program(program) for program in programs]
    return Pool(name, programs, texts, inv.inventory_ddl(spec), loader_text(spec))


def pool_digest(pool: Pool) -> str:
    """Digest of everything the program receives from this pool."""
    h = hashlib.sha256()
    for part in (pool.ddl, SPEC_TEXT, pool.data, *TERMINAL_INPUTS, *pool.texts):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def summary_digest(summary: dict) -> str:
    """Digest of one report summary.  ``json.dumps`` keeps key order,
    so the digest pins the summary's content *and* its key layout."""
    return hashlib.sha256(json.dumps(summary).encode("utf-8")).hexdigest()[:16]


def draw_batches(seed: int, pool_size: int, batch: int):
    """Endless seeded batches of distinct pool indices."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(range(pool_size), batch)


class Expected:
    """The recorded outputs of every pool program, and the checks."""

    def __init__(self, pool: Pool, record: dict):
        self.pool = pool
        self.problems: list[str] = []
        if record.get("pool_sha256") != pool_digest(pool):
            self.problems.append(
                f"pool {pool.name!r}: generated inputs differ from the recorded "
                "pool; re-record expected.json on a trusted tree")
        self.entries = [entry.split() for entry in record.get("programs", [])]
        if len(self.entries) != pool.size:
            self.problems.append(f"pool {pool.name!r}: {len(self.entries)} recorded "
                                 f"programs for a pool of {pool.size}")

    @classmethod
    def load(cls, pool: Pool) -> "Expected":
        data = json.loads(EXPECTED_PATH.read_text())
        return cls(pool, data[pool.name])

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems

    def check_summaries(self, indices: list[int], summaries: list[dict],
                        where: str) -> None:
        """Program order, per-program digests, and status counts."""
        if len(summaries) != len(indices):
            self.fail(f"{where}: {len(summaries)} reports for {len(indices)} programs")
            return
        got_counts: dict[str, int] = {}
        want_counts: dict[str, int] = {}
        for index, summary in zip(indices, summaries):
            status, digest = self.entries[index]
            want_counts[status] = want_counts.get(status, 0) + 1
            got = summary.get("status")
            got_counts[got] = got_counts.get(got, 0) + 1
            if summary_digest(summary) != digest:
                self.fail(f"{where}: report for pool program {index} "
                          f"({summary.get('program')}) differs from the recorded one")
        if got_counts != want_counts:
            self.fail(f"{where}: status counts {got_counts} != recorded {want_counts}")

    def check_json_artifact(self, raw: bytes, indices: list[int], key: str,
                            head: dict, where: str) -> None:
        """A JSON artifact written by ``write_json_atomic``: the bytes
        must be the canonical rendering of the parsed document, its
        top-level keys must be ``head`` plus ``key`` in that order, and
        the entries under ``key`` must match the recorded summaries."""
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            self.fail(f"{where}: not JSON ({exc})")
            return
        if raw != (json.dumps(doc, indent=2) + "\n").encode("utf-8"):
            self.fail(f"{where}: bytes are not the canonical indent-2 rendering")
        if list(doc) != [*head, key] or any(doc[k] != v for k, v in head.items()):
            self.fail(f"{where}: header {[(k, doc[k]) for k in doc if k != key]} "
                      f"!= expected {head}")
            return
        self.check_summaries(indices, doc[key], where)

    def names(self, indices: list[int]) -> list[str]:
        return [self.pool.names[i] for i in indices]


def text_name(text: str) -> str:
    """The program name in a rendered ``PROGRAM <name> (...)`` header."""
    return text.split(None, 2)[1]
