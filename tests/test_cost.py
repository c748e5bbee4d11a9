"""The rewrite precheck (repro.cost), the cost-gated optimizer passes,
and the cost-ordered cascade.

The load-bearing invariant throughout: cost ordering is *sound pruning
only*.  The cascade may skip a rewrite attempt exactly when the
precheck proves the analyzer would refuse the program, and the skipped
path must synthesize byte-identical reports, checkpoints, and analyst
transcripts -- at every jobs count and pathology rate.
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis.variability import (
    VERB_VARIABILITY_DETAIL,
    detect_verb_variability,
)
from repro.batch import run_batch
from repro.core.abstract import ACond, ALocate, AbstractProgram, walk
from repro.core.analyzer_program import ProgramAnalyzer, blocking_failure
from repro.core.optimizer import CostModel, Optimizer
from repro.core.supervisor import ScriptedAnalyst
from repro.errors import AnalysisError
from repro.cost import CostPredictor
from repro.options import ConversionOptions
from repro.programs import ast
from repro.programs import builder as b
from repro.programs.interpreter import ProgramInputs
from repro.restructure import restructure_database
from repro.strategies import FallbackCascade
from repro.workloads import company
from repro.workloads.inventory import (
    InventorySpec,
    generate_inventory,
    inventory_cascade,
)

MODEL = CostModel({"DIV": 2, "EMP": 40})


def lookup_program():
    return b.program("LOOKUP", "network", "COMPANY-NAME", [
        b.find_any("EMP", **{"EMP-NAME": "TAYLOR-0000"}),
    ])


def scan_program():
    return b.program("SCAN", "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        b.find_first("EMP", "DIV-EMP"),
        b.while_(ast.status_ok(), [
            b.get("EMP"),
            b.find_next("EMP", "DIV-EMP"),
        ]),
    ])


def verb_program(name="VERB-VAR"):
    return b.program(name, "network", "COMPANY-NAME", [
        b.accept("REQUEST", prompt="VERB?"),
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        b.generic_call(b.v("REQUEST"), "EMP", **{
            "EMP-NAME": "VAR-0000",
            "AGE": 30,
            "DEPT-NAME": "SALES",
            "DIV-NAME": "MACHINERY",
        }),
        b.display("DONE"),
    ])


class TestPredictor:
    """The precheck is the analyzer's own verb-variability detector."""

    def test_blocking_details_match_the_detector(self):
        program = verb_program()
        details = CostPredictor().predict(program)
        assert details == (VERB_VARIABILITY_DETAIL,)
        assert [f.detail for f in detect_verb_variability(program)] == \
            list(details)

    def test_constant_verb_is_not_blocking(self):
        program = b.program("T", "network", "C", [
            b.generic_call(ast.Const("STORE"), "EMP",
                           **{"EMP-NAME": "X"}),
        ])
        assert CostPredictor().predict(program) == ()

    def test_blocking_program_marks_rewrite_infeasible(self):
        assert CostPredictor().predict(verb_program())
        assert CostPredictor().predict(lookup_program()) == ()


class TestOptimizerCalcLocate:
    def make(self, statements):
        return AbstractProgram("T", "network", "COMPANY-NAME",
                               tuple(statements))

    def locate_pair(self):
        locate = ALocate("EMP", (
            ACond("EMP-NAME", "=", ast.Const("TAYLOR-0000")),
            ACond("AGE", ">", ast.Const(30)),
        ))
        guard = ast.If(ast.status_ok(),
                       (ast.WriteTerminal((ast.Const("HIT"),)),),
                       (ast.WriteTerminal((ast.Const("MISS"),)),))
        return locate, guard

    def optimize(self, company_schema, statements):
        optimizer = Optimizer(company_schema, cost_model=MODEL,
                              passes=("calc-locate",))
        return optimizer.optimize(self.make(statements)).statements

    def test_residual_moves_into_the_guard(self, company_schema):
        locate, guard = self.locate_pair()
        out = self.optimize(company_schema, [locate, guard])
        new_locate, new_guard = out
        assert all(c.op == "=" for c in new_locate.conditions)
        assert new_guard.condition == ast.status_ok()
        (inner,) = new_guard.then
        assert isinstance(inner, ast.If)
        assert inner.condition == ast.Bin(
            ">", ast.Var("EMP.AGE"), ast.Const(30))
        assert inner.then == guard.then
        # The filter-miss arm restores the not-found status first.
        assert inner.orelse[0] == ast.Assign("DB-STATUS",
                                             ast.Const("0326"))
        assert inner.orelse[1:] == guard.orelse

    def test_fires_inside_nested_while_and_if(self, company_schema):
        locate, guard = self.locate_pair()
        nested = ast.While(ast.Bin("<", ast.Var("I"), ast.Const(3)), (
            ast.If(ast.Bin("=", ast.Var("GO"), ast.Const(1)),
                   (locate, guard), ()),
            ast.Assign("I", ast.Bin("+", ast.Var("I"), ast.Const(1))),
        ))
        (out,) = self.optimize(company_schema, [nested])
        rewritten = out.body[0].then[0]
        assert isinstance(rewritten, ALocate)
        assert all(c.op == "=" for c in rewritten.conditions)

    def test_uncovered_calc_key_is_left_alone(self, company_schema):
        locate = ALocate("EMP", (ACond("AGE", ">", ast.Const(30)),))
        guard = ast.If(ast.status_ok(), (), ())
        out = self.optimize(company_schema, [locate, guard])
        assert out == (locate, guard)

    def test_tiny_occurrence_keeps_the_scan(self, company_schema):
        locate, guard = self.locate_pair()
        optimizer = Optimizer(company_schema,
                              cost_model=CostModel({"EMP": 2}),
                              passes=("calc-locate",))
        out = optimizer.optimize(self.make([locate, guard])).statements
        assert out == (locate, guard)


class TestOptimizerHoistLocate:
    def loop(self, body_tail=()):
        locate = ALocate("DIV", (
            ACond("DIV-NAME", "=", ast.Const("MACHINERY")),
        ))
        body = (locate,
                ast.Assign("I", ast.Bin("+", ast.Var("I"), ast.Const(1))),
                *body_tail)
        return locate, ast.While(
            ast.Bin("<", ast.Var("I"), ast.Const(3)), body)

    def optimize(self, company_schema, statements):
        optimizer = Optimizer(company_schema, cost_model=MODEL,
                              passes=("hoist-locate",))
        program = AbstractProgram("T", "network", "COMPANY-NAME",
                                  tuple(statements))
        return optimizer.optimize(program).statements

    def test_invariant_locate_moves_before_the_loop(self, company_schema):
        locate, loop = self.loop()
        out = self.optimize(company_schema, [loop])
        assert out[0] == locate
        assert isinstance(out[1], ast.While)
        assert not any(isinstance(s, ALocate) for s in walk(out[1].body))

    def test_fires_inside_a_nested_if(self, company_schema):
        locate, loop = self.loop()
        wrapped = ast.If(ast.Bin("=", ast.Var("GO"), ast.Const(1)),
                         (loop,), ())
        (out,) = self.optimize(company_schema, [wrapped])
        assert out.then[0] == locate
        assert isinstance(out.then[1], ast.While)

    def test_database_work_in_body_blocks_the_hoist(self, company_schema):
        other = ALocate("EMP", (
            ACond("EMP-NAME", "=", ast.Const("X")),
        ))
        _locate, loop = self.loop(body_tail=(other,))
        out = self.optimize(company_schema, [loop])
        assert out == (loop,)

    def test_status_dependent_loop_blocks_the_hoist(self, company_schema):
        locate = ALocate("DIV", (
            ACond("DIV-NAME", "=", ast.Const("MACHINERY")),
        ))
        loop = ast.While(ast.status_ok(), (
            locate,
            ast.Assign("I", ast.Bin("+", ast.Var("I"), ast.Const(1))),
        ))
        out = self.optimize(company_schema, [loop])
        assert out == (loop,)


@pytest.fixture
def cascade_pair(interpose_operator):
    def build(strategy_order, analyst=None):
        source_db = company.company_db(seed=42)
        _schema, target_db = restructure_database(source_db,
                                                  interpose_operator)
        return FallbackCascade(source_db, target_db, interpose_operator,
                               analyst=analyst,
                               strategy_order=strategy_order)
    return build


VERB_OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]))


class TestCostOrderedCascade:
    def test_blocking_program_skips_rewrite_byte_identically(
            self, cascade_pair):
        fixed = cascade_pair("fixed").convert(
            verb_program(), options=VERB_OPTIONS.replace(
                strategy_order="fixed"))
        cost_cascade = cascade_pair("cost")
        cost = cost_cascade.convert(verb_program(), options=VERB_OPTIONS)
        assert cost.report.to_summary() == fixed.report.to_summary()
        assert cost.report.strategy == "emulation"
        assert cost_cascade.cost_counters.get("rewrite_skips") == 1
        assert cost.report.cost["chosen_order"] == ["emulation", "bridge"]
        assert fixed.report.cost["chosen_order"] == [
            "rewrite", "emulation", "bridge"]

    def test_analyst_transcripts_are_identical(self, cascade_pair):
        transcripts = {}
        for order in ("fixed", "cost"):
            analyst = ScriptedAnalyst({})
            cascade_pair(order, analyst=analyst).convert(
                verb_program(), options=VERB_OPTIONS.replace(
                    strategy_order=order))
            transcripts[order] = [
                (question.render(), answer)
                for question, answer in analyst.transcript
            ]
        assert transcripts["cost"] == transcripts["fixed"]
        assert transcripts["cost"], "the pin-verb question must be posed"

    def test_clean_program_pays_the_attempt_and_carries_cost(
            self, cascade_pair):
        cascade = cascade_pair("cost")
        outcome = cascade.convert(lookup_program(),
                                  options=VERB_OPTIONS)
        assert outcome.report.strategy == "rewrite"
        assert outcome.report.cost["chosen_order"] == [
            "rewrite", "emulation", "bridge"]
        assert outcome.report.cost["measured"] == outcome.run.cost()
        assert cascade.cost_counters.get("rewrite_skips") == 0

    def test_options_strategy_order_overrides_the_constructor(
            self, cascade_pair):
        cascade = cascade_pair("cost")
        outcome = cascade.convert(
            verb_program(),
            options=VERB_OPTIONS.replace(strategy_order="fixed"))
        assert cascade.cost_counters.get("rewrite_skips") == 0
        assert outcome.report.cost["chosen_order"] == [
            "rewrite", "emulation", "bridge"]

    def test_summary_round_trip_excludes_cost(self, cascade_pair):
        outcome = cascade_pair("cost").convert(lookup_program(),
                                               options=VERB_OPTIONS)
        assert "cost" not in outcome.report.to_summary()

    def test_invalid_strategy_order_rejected(self, cascade_pair):
        with pytest.raises(ValueError):
            cascade_pair("greedy")


BATCH_OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                                  parallel_threshold=2)


class TestByteIdentityMatrix:
    """Cost-ordered output must be indistinguishable from fixed-order
    output (reports and checkpoints) at jobs in {1, 4} and pathology
    rates {0, 0.75}."""

    @pytest.mark.parametrize("rate", [0.0, 0.75])
    def test_cost_vs_fixed_vs_parallel(self, rate, tmp_path):
        spec = InventorySpec(programs=24, pathology_rate=rate,
                             sweep_statements=300)
        programs = [item.program for item in generate_inventory(spec)]

        fixed_path = tmp_path / "fixed.json"
        fixed = run_batch(
            inventory_cascade(spec, strategy_order="fixed"), programs,
            BATCH_OPTIONS.replace(strategy_order="fixed",
                                  checkpoint=fixed_path))

        cost_path = tmp_path / "cost.json"
        serial_cascade = inventory_cascade(spec)
        serial = run_batch(serial_cascade, programs,
                           BATCH_OPTIONS.replace(checkpoint=cost_path))

        parallel_path = tmp_path / "parallel.json"
        parallel_cascade = inventory_cascade(spec)
        parallel = api.convert_batch(
            parallel_cascade, programs,
            BATCH_OPTIONS.replace(jobs=4, checkpoint=parallel_path))

        def summaries(batch):
            return [report.to_summary() for report in batch.reports]

        assert summaries(serial) == summaries(fixed)
        assert summaries(parallel) == summaries(serial)
        assert cost_path.read_bytes() == fixed_path.read_bytes()
        assert parallel_path.read_bytes() == cost_path.read_bytes()

        # Every cascade report carries its cost verdict, and the
        # parallel merge reattaches the same cost dicts the serial run
        # produced.
        serial_costs = [report.cost for report in serial.reports]
        assert all(entry is not None for entry in serial_costs)
        assert [report.cost for report in parallel.reports] == \
            serial_costs
        assert json.dumps(serial_costs)  # JSON-serializable end to end

    def test_skips_happen_only_on_pathological_corpora(self, tmp_path):
        spec = InventorySpec(programs=24, pathology_rate=0.75,
                             sweep_statements=300)
        programs = [item.program for item in generate_inventory(spec)]
        cascade = inventory_cascade(spec)
        run_batch(cascade, programs, BATCH_OPTIONS)
        assert cascade.cost_counters.get("rewrite_skips") > 0
        assert cascade.cost_counters.get("predictions") == len(programs)


#: How a generated generic call gets its verb: a literal, a variable
#: moved once at top level (provably constant), a variable moved inside
#: a loop, or a variable ACCEPTed from the terminal (both variable).
VERB_MODES = ("literal", "top-move", "loop-move", "accept")


def bounded_loop(counter, body):
    """``body`` inside a WHILE that runs exactly twice."""
    return [
        b.assign(counter, 0),
        b.while_(b.lt(b.v(counter), 2), [
            *body,
            b.assign(counter, b.add(b.v(counter), 1)),
        ]),
    ]


@st.composite
def generic_call_programs(draw, name):
    """A program with generic calls at random depths: top level, IF
    arms, WHILE bodies and procedure bodies, each with a random verb
    mode.  Every verb resolves to FIND-ANY at run time, so the source
    reference run never faults."""
    ids = itertools.count()
    prelude = []
    procedures = []

    def generic_call():
        index = next(ids)
        mode = draw(st.sampled_from(VERB_MODES))
        verb_var = f"VERB-{index}"
        if mode == "literal":
            verb = b.lit("FIND-ANY")
        else:
            verb = b.v(verb_var)
            if mode == "top-move":
                prelude.append(b.assign(verb_var, "FIND-ANY"))
            elif mode == "loop-move":
                prelude.extend(bounded_loop(
                    f"M-{index}", [b.assign(verb_var, "FIND-ANY")]))
            else:
                prelude.append(b.accept(verb_var))
        return [b.generic_call(verb, "EMP",
                               **{"EMP-NAME": "TAYLOR-0000"})]

    def statement(depth):
        where = draw(st.sampled_from(
            ("top", "if", "while", "procedure") if depth < 2 else ("top",)))
        if where == "top":
            return generic_call()
        body = block(depth + 1)
        index = next(ids)
        if where == "if":
            arms = (body, []) if draw(st.booleans()) else ([], body)
            return [b.if_(b.eq(b.lit(1), b.lit(1)), *arms)]
        if where == "while":
            return bounded_loop(f"L-{index}", body)
        procedures.append(b.procedure(f"P-{index}", [], body))
        return [b.call(f"P-{index}")]

    def block(depth):
        return [stmt for _ in range(draw(st.integers(1, 2)))
                for stmt in statement(depth)]

    body = block(0)
    return b.program(name, "network", "COMPANY-NAME",
                     [*prelude, *body, b.display("DONE")],
                     procedures=procedures)


@st.composite
def generic_call_batches(draw):
    return [draw(generic_call_programs(f"PROP-{index}"))
            for index in range(draw(st.integers(1, 3)))]


#: Enough terminal lines for every ACCEPTed verb a program can draw.
PROPERTY_OPTIONS = ConversionOptions(
    inputs=ProgramInputs(terminal=["FIND-ANY"] * 16))


def refused_as_blocking(program, schema):
    """Does the analyzer refuse ``program`` for a Section 3.2 blocking
    finding?  (It also refuses DML inside procedures, a refusal the
    precheck does not claim: the cascade still pays that attempt.)"""
    try:
        ProgramAnalyzer(schema).analyze(program)
    except AnalysisError as error:
        return str(error).startswith(blocking_failure(()))
    return False


class TestPrecheckProperty:
    """Nested generic calls and procedures, which the inventory corpus
    never generates: cost order stays indistinguishable from fixed
    order, and it skips exactly the analyzer's blocking refusals."""

    @given(generic_call_batches())
    @settings(max_examples=30, deadline=None)
    def test_cost_order_matches_fixed_order(self, programs):
        operator = company.figure_44_operator()
        runs = {}
        for order in ("fixed", "cost"):
            source_db = company.company_db(seed=42)
            _schema, target_db = restructure_database(source_db, operator)
            analyst = ScriptedAnalyst({})
            cascade = FallbackCascade(source_db, target_db, operator,
                                      analyst=analyst,
                                      strategy_order=order)
            batch = run_batch(cascade, programs, PROPERTY_OPTIONS.replace(
                strategy_order=order))
            runs[order] = (
                [report.to_summary() for report in batch.reports],
                [(question.render(), answer)
                 for question, answer in analyst.transcript],
                cascade.cost_counters.get("rewrite_skips"),
            )
        assert runs["cost"][0] == runs["fixed"][0]
        assert runs["cost"][1] == runs["fixed"][1]
        schema = company.figure_42_schema()
        refused = sum(refused_as_blocking(program, schema)
                      for program in programs)
        assert runs["cost"][2] == refused
        assert runs["fixed"][2] == 0
