import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from regtile import codegen, dfg, stats, tiling

from .conftest import PAPER_TILING, toy_document
from .helpers import naive_interval_releases, random_solution

# Hashes of assigned programs, recorded before codegen was restructured:
# corpus witnesses at unroll 64, the paper tiling on the toy at 0, 3 and 6
# registers, and forced random solutions (overflowing ones included).
CODEGEN_PINS = json.loads(
    (Path(__file__).parent / "data" / "codegen_pins.json").read_text(encoding="utf-8")
)
PIN_UNROLL = 64


@functools.cache
def _pin_corpus(seed: int) -> tuple[dfg.ProblemInstance, ...]:
    return tuple(stats.generate_corpus(seed, 200))


def pinned_program(pin: dict) -> codegen.ScheduleProgram:
    """The assigned program a pin describes: a solution forced through
    ``generate`` on a toy or corpus instance, then ``assign_registers``."""
    if pin["source"] == "toy":
        inst = dfg.instance_from_document(toy_document(), registers=pin["limit"])
    else:
        inst = _pin_corpus(pin["seed"])[pin["index"]]
        if pin["unroll"] is not None:
            inst = dataclasses.replace(inst, unroll=pin["unroll"])
    sol = tiling.TilingSolution.from_json_dict(pin["solution"])
    return codegen.assign_registers(codegen.generate(sol, inst, force=True), inst.limit)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def paper_program(toy_instance_limit6, paper_tiling):
    return codegen.generate(paper_tiling, toy_instance_limit6)


def _identity_all_spill(instance):
    return tiling.all_spill_solution(instance)


class TestGenerate:
    def test_paper_tiling_exec_order(self, paper_program):
        seq = paper_program.exec_sequence
        nodes = [n for n, _c in seq]
        assert nodes == (
            ["S0"] * 6 + ["S2"] * 6 + ["S1"] * 3 + ["S3"] * 3 + ["S1"] * 3 + ["S3"] * 3
        )
        cols = [c for _n, c in seq]
        assert cols == [0, 1, 2, 3, 4, 5] * 2 + [0, 1, 2] * 2 + [3, 4, 5] * 2

    def test_paper_tiling_load_count_is_uspill(self, paper_program, toy_instance_limit6, paper_tiling):
        assert paper_program.load_count == 18
        assert paper_program.load_count == tiling.cost(paper_tiling, toy_instance_limit6).uspill

    def test_byte_identical_across_runs(self, toy_instance_limit6, paper_tiling):
        a = codegen.generate(paper_tiling, toy_instance_limit6).render()
        b = codegen.generate(paper_tiling, toy_instance_limit6).render()
        assert a == b

    def test_identity_all_spill_program(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=8, unroll=1, max_width=1)
        prog = codegen.generate(_identity_all_spill(inst), inst)
        assert [n for n, _ in prog.exec_sequence] == ["S0", "S1", "S2", "S3"]
        loads = [op.value for op in prog.ops if isinstance(op, codegen.LoadOp)]
        variables = {v.split("@")[0].split(".")[0] for v in loads}
        assert variables == {"X", "b", "Y", "a", "c", "e"}
        assert prog.load_count == 8
        # Every definition of a spilled value is stored right away.
        stores = [op.value for op in prog.ops if isinstance(op, codegen.StoreOp)]
        assert len(stores) == 8

    def test_reduced_width_repetition(self):
        doc = {
            "name": "rem",
            "registers": 4,
            "unroll": 5,
            "max_width": 3,
            "nodes": [{"id": "A", "comp": 1, "state": 1}],
            "edges": [],
        }
        inst = dfg.instance_from_document(doc)
        sol = tiling.TilingSolution(("A",), (0,), (3,), frozenset(), frozenset({"A"}))
        prog = codegen.generate(sol, inst)
        assert prog.exec_sequence == (("A", 0), ("A", 1), ("A", 2), ("A", 3), ("A", 4))
        # Two repetitions: loads at columns 0 and 3.
        loads = [op.value for op in prog.ops if isinstance(op, codegen.LoadOp)]
        assert loads == ["A.state@col0", "A.state@col3"]

    def test_empty_instance(self):
        inst = dfg.ingest('{"name":"e","registers":0,"unroll":1,"nodes":[],"edges":[]}')
        sol = tiling.TilingSolution((), (), (), frozenset(), frozenset())
        prog = codegen.generate(sol, inst)
        assert prog.ops == ()

    def test_infeasible_requires_force(self, toy_instance, paper_tiling):
        with pytest.raises(codegen.InfeasibleScheduleError):
            codegen.generate(paper_tiling, toy_instance)
        prog = codegen.generate(paper_tiling, toy_instance, force=True)
        assert prog.load_count == 18

    def test_def_before_use_everywhere(self, paper_program):
        assert codegen.verify_def_before_use(paper_program) == []

    def test_forced_non_topological_order_uses_undefined_values(self, toy_instance_limit6):
        # S1 runs before S0 defines a; the unspilled edge is never loaded.
        sol = tiling.TilingSolution(
            ("S1", "S0", "S2", "S3"), (3,), (1,), frozenset(), frozenset()
        )
        with pytest.raises(codegen.InfeasibleScheduleError, match="order violates"):
            codegen.generate(sol, toy_instance_limit6)
        prog = codegen.generate(sol, toy_instance_limit6, force=True)
        problems = codegen.verify_def_before_use(prog)
        assert len(problems) == 6
        assert problems[0] == "op 0: EXEC S1 uses undefined a@col0"

    def test_unspilled_state_is_live_in(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=16, unroll=2, max_width=2)
        sol = tiling.TilingSolution(
            ("S0", "S1", "S2", "S3"),
            (3,),
            (2,),
            frozenset({"a", "c", "e", "d"}),
            frozenset(),
        )
        prog = codegen.generate(sol, inst)
        assert set(prog.live_ins) == {"X.0", "X.1", "b", "Y.0", "Y.1"}
        assert prog.load_count == tiling.cost(sol, inst).uspill
        assert codegen.verify_def_before_use(prog) == []

    def test_load_count_matches_cost_on_random_feasible(self):
        rng = random.Random(37)
        checked = 0
        for inst in stats.generate_corpus(301, 40):
            for _ in range(6):
                sol = random_solution(rng, inst)
                if not tiling.feasible(sol, inst).ok:
                    continue
                prog = codegen.generate(sol, inst)
                assert prog.load_count == tiling.cost(sol, inst).uspill
                assert codegen.verify_def_before_use(prog) == []
                checked += 1
                break
        assert checked >= 25

    def test_column_restricted_order_is_topological(self, paper_program, toy_instance_limit6):
        graph = toy_instance_limit6.graph
        for col in range(6):
            seq = [n for n, c in paper_program.exec_sequence if c == col]
            pos = {n: i for i, n in enumerate(seq)}
            for e in graph.edges:
                assert pos[e.src] < pos[e.dst]


class TestAssignRegisters:
    def test_paper_program_fits_limit6(self, paper_program):
        assigned = codegen.assign_registers(paper_program, 6)
        assert assigned.overflow == ()
        assert assigned.register_map["a@col0"] == "SPILLED"
        assert all(op.reg for op in assigned.ops if isinstance(op, codegen.LoadOp))

    def test_identity_program_fits_limit8(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=8, unroll=1, max_width=1)
        prog = codegen.generate(_identity_all_spill(inst), inst)
        assigned = codegen.assign_registers(prog, 8)
        assert assigned.overflow == ()

    def test_limit_zero_overflows_everywhere(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=8, unroll=1, max_width=1)
        prog = codegen.generate(_identity_all_spill(inst), inst)
        assigned = codegen.assign_registers(prog, 0)
        assert len(assigned.overflow) > 0
        overflow_ops = {ev.index for ev in assigned.overflow}
        load_ops = {i for i, op in enumerate(assigned.ops) if isinstance(op, codegen.LoadOp)}
        assert load_ops <= overflow_ops

    def test_exec_only_program_needs_just_comp(self):
        doc = {
            "name": "exec-only",
            "registers": 1,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}],
            "edges": [],
        }
        inst = dfg.instance_from_document(doc)
        sol = tiling.TilingSolution(("A",), (0,), (1,), frozenset(), frozenset())
        assigned = codegen.assign_registers(codegen.generate(sol, inst), 1)
        assert assigned.overflow == ()

    def test_parallel_spilled_edges_reload_into_one_register(self):
        # Two edges of one group feed the same consumer: each spilled edge
        # reloads the value, and the second LOAD reuses the first's register.
        doc = {
            "name": "parallel",
            "registers": 1,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "B", "reg": 1, "variable": "t"},
                {"id": "y", "src": "A", "dst": "B", "reg": 1, "variable": "t"},
            ],
        }
        inst = dfg.instance_from_document(doc)
        sol = tiling.TilingSolution(("A", "B"), (1,), (1,), frozenset({"x", "y"}), frozenset())
        assigned = codegen.assign_registers(codegen.generate(sol, inst), inst.limit)
        loads = [op for op in assigned.ops if isinstance(op, codegen.LoadOp)]
        assert [op.value for op in loads] == ["t@col0", "t@col0"]
        assert loads[0].reg == loads[1].reg
        assert assigned.overflow == ()

    def test_reserve_registers_stay_put(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=16, unroll=2, max_width=2)
        sol = tiling.TilingSolution(
            ("S0", "S1", "S2", "S3"),
            (3,),
            (2,),
            frozenset({"a", "c", "e", "d"}),
            frozenset(),
        )
        assigned = codegen.assign_registers(codegen.generate(sol, inst), 16)
        # Loop-carried values keep the lowest registers for the whole body.
        assert assigned.register_map["X.0"] == "r0"
        assert assigned.register_map["b"] == "r2"

    def test_empty_register_map_is_not_null(self):
        # A node with no state and no edges: nothing lives in a register.
        doc = {"name": "one", "registers": 1, "unroll": 2,
               "nodes": [{"id": "A", "comp": 1}], "edges": []}
        inst = dfg.instance_from_document(doc)
        program = codegen.generate(tiling.all_spill_solution(inst), inst)
        assert program.to_json_dict()["register_map"] is None
        assigned = codegen.assign_registers(program, inst.limit)
        assert assigned.register_map == {}
        assert assigned.to_json_dict()["register_map"] == {}

    def test_render_shows_assignment(self, paper_program):
        text = codegen.assign_registers(paper_program, 6).render()
        assert "LOAD X.0@col0 -> r0" in text
        assert "EXEC S0 col=0" in text


class TestIntervalEndsAgainstSecondRoute:
    PARALLEL_DOC = {
        "name": "parallel",
        "registers": 2,
        "unroll": 3,
        "max_width": 3,
        "nodes": [{"id": "A", "comp": 1, "state": 1}, {"id": "B", "comp": 1}],
        "edges": [
            {"id": "x", "src": "A", "dst": "B", "reg": 1, "variable": "t"},
            {"id": "y", "src": "A", "dst": "B", "reg": 1, "variable": "t"},
        ],
    }

    def test_reverse_scan_equals_naive_releases(self, toy_doc):
        rng = random.Random(53)
        pool = list(stats.generate_corpus(77, 30)) + [
            dfg.instance_from_document(toy_doc, registers=6),
            dfg.instance_from_document(self.PARALLEL_DOC),
        ]
        seen = {"in-place": 0, "parallel-reload": 0, "store-release": 0, "shuffled": 0}
        for k in range(200):
            inst = pool[k % len(pool)]
            sol = random_solution(rng, inst)
            if rng.random() < 0.2:
                order = list(sol.order)
                rng.shuffle(order)
                sol = dataclasses.replace(sol, order=tuple(order))
                seen["shuffled"] += 1
            program = codegen.generate(sol, inst, force=True)
            ends = codegen._interval_ends(program.ops)
            assert len(ends) == len(program.ops)
            got = [(i, v) for i, values in enumerate(ends) for v in values]
            assert len(got) == len(set(got))
            releases = naive_interval_releases(program)
            assert set(got) == releases, (inst.name, sol)
            last_event = {}  # value -> "use", "exec" or "load"
            for i, op in enumerate(program.ops):
                if isinstance(op, codegen.ExecOp):
                    seen["in-place"] += bool(set(op.consumes) & set(op.produces))
                    last_event.update((v, "use") for v in op.consumes)
                    last_event.update((v, "exec") for v in op.produces)
                elif isinstance(op, codegen.LoadOp):
                    seen["parallel-reload"] += last_event.get(op.value) == "load"
                    last_event[op.value] = "load"
                else:
                    seen["store-release"] += (i, op.value) in releases
                    last_event[op.value] = "use"
        assert all(seen.values()), seen


class TestPinnedPrograms:
    @pytest.mark.parametrize("source", ["witness", "toy", "random"])
    def test_programs_equal_pins(self, source):
        pins = {k: p for k, p in CODEGEN_PINS.items() if p["kind"] == source}
        assert len(pins) >= 3
        for name, pin in pins.items():
            program = pinned_program(pin)
            doc = json.dumps(program.to_json_dict(), sort_keys=True)
            assert _sha256(doc) == pin["json_sha256"], name
            assert _sha256(program.render()) == pin["render_sha256"], name
            assert len(program.overflow) == pin["overflow"], name

    def test_pins_cover_overflow_and_fit(self):
        assert len(CODEGEN_PINS) == 43
        assert CODEGEN_PINS["toy-limit6"]["solution"] == PAPER_TILING
        random_pins = [p for p in CODEGEN_PINS.values() if p["kind"] == "random"]
        assert sum(p["overflow"] > 0 for p in random_pins) >= 5
        assert sum(p["overflow"] == 0 for p in CODEGEN_PINS.values()) >= 5
