from fractions import Fraction

import pytest

from regtile import dfg, oracle, solver, stats, tiling

from .conftest import toy_document


class TestSolve:
    def test_empty_instance(self):
        inst = dfg.ingest('{"name":"e","registers":0,"unroll":1,"nodes":[],"edges":[]}')
        out = solver.solve(inst)
        assert out.status is solver.SolveStatus.OPTIMAL
        assert out.cost.spill == 0

    def test_infeasible_when_limit_below_comp(self):
        doc = {
            "name": "tight",
            "registers": 2,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 3}],
            "edges": [],
        }
        out = solver.solve(dfg.instance_from_document(doc))
        assert out.status is solver.SolveStatus.INFEASIBLE
        assert out.best is None

    def test_infeasible_seed_raises(self, monkeypatch):
        # An explicit check, not an assert, so it holds under python -O too.
        monkeypatch.setattr(
            tiling, "feasible", lambda sol, instance: tiling.FeasibilityResult(False)
        )
        inst = dfg.instance_from_document(toy_document(), registers=6)
        with pytest.raises(RuntimeError, match="all-spill tiling is infeasible"):
            solver.solve(inst)

    def test_toy_limit6_matches_oracle_and_beats_paper(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        res = oracle.brute_force(inst)
        out = solver.solve(inst)
        assert out.status is solver.SolveStatus.OPTIMAL
        assert out.cost.spill == res.spill
        assert out.cost.spill <= Fraction(3)
        # The published tiling is feasible at this limit and costs 3, so the
        # optimum can only be at or below it.
        paper = tiling.TilingSolution(
            ("S0", "S2", "S1", "S3"),
            (0, 1, 3),
            (6, 6, 3),
            frozenset({"a", "e", "d"}),
            frozenset({"S0", "S1", "S2"}),
        )
        assert tiling.feasible(paper, inst).ok
        assert tiling.cost(paper, inst).spill == Fraction(3)

    def test_returned_solution_passes_model_checks(self):
        for inst in stats.generate_corpus(201, 20):
            out = solver.solve(inst)
            assert out.status is solver.SolveStatus.OPTIMAL
            assert tiling.feasible(out.best, inst).ok
            assert tiling.cost(out.best, inst).uspill == out.cost.uspill

    def test_matches_oracle_on_random_instances(self):
        for inst in stats.generate_corpus(202, 30):
            expected = oracle.brute_force(inst).spill
            out = solver.solve(inst)
            assert out.cost.spill == expected, inst.name

    def test_deterministic_given_seed(self):
        inst = dfg.instance_from_document(toy_document(), registers=5)
        runs = [solver.solve(inst, solver.SearchConfig(seed=9)) for _ in range(2)]
        assert runs[0].best == runs[1].best
        assert runs[0].stats.explored == runs[1].stats.explored
        other = solver.solve(inst, solver.SearchConfig(seed=10))
        assert other.cost.spill == runs[0].cost.spill

    def test_node_budget_yields_unproven_with_fallback(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        out = solver.solve(inst, solver.SearchConfig(node_budget=3))
        assert out.status is solver.SolveStatus.FEASIBLE
        assert tiling.feasible(out.best, inst).ok
        # Anytime guarantee: never worse than the all-spill fallback.
        fallback = tiling.cost(tiling.all_spill_solution(inst), inst)
        assert out.cost.uspill <= fallback.uspill

    def test_time_budget_respected(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        out = solver.solve(inst, solver.SearchConfig(time_budget_ms=0.0))
        assert out.status is solver.SolveStatus.FEASIBLE
        assert out.best is not None


class TestSymmetryBreaking:
    def test_decided_empty_tile_before_nonempty_rejected(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        model = solver._Model(inst)
        dom = model.initial_domains()
        # tile_points (1, 1, 3, 3): tile 1 is empty before non-empty tile 2.
        for t, p in enumerate((1, 1, 3, 3)):
            dom[model.point0 + t] = 1 << p
        assert not solver.break_symmetry(model, dom)

    def test_all_tiles_nonempty_accepted(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        model = solver._Model(inst)
        dom = model.initial_domains()
        for t, p in enumerate((0, 1, 2, 3)):
            dom[model.point0 + t] = 1 << p
        assert solver.break_symmetry(model, dom)

    def test_trailing_empty_tiles_accepted(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        model = solver._Model(inst)
        dom = model.initial_domains()
        for t, p in enumerate((1, 3, 3, 3)):
            dom[model.point0 + t] = 1 << p
        assert solver.break_symmetry(model, dom)

    def test_neutral_for_optimal_cost(self):
        mismatches = []
        for inst in stats.generate_corpus(203, 25):
            on = solver.solve(inst, solver.SearchConfig(symmetry_breaking=True))
            off = solver.solve(inst, solver.SearchConfig(symmetry_breaking=False))
            if on.cost.spill != off.cost.spill:
                mismatches.append(inst.name)
        assert not mismatches


class TestPropagate:
    def test_precedence_pins_two_node_chain(self):
        doc = {
            "name": "chain",
            "registers": 2,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
            "edges": [{"id": "x", "src": "A", "dst": "B", "reg": 1}],
        }
        inst = dfg.instance_from_document(doc)
        model = solver._Model(inst)
        dom = model.initial_domains()
        assert solver.propagate(model, dom)
        assert dom[0] == 0b01  # rank(A) = 0
        assert dom[1] == 0b10  # rank(B) = 1

    def test_tile_chain_lower_bounds(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        model = solver._Model(inst)
        dom = model.initial_domains()
        dom[model.point0] = 1 << 2
        assert solver.propagate(model, dom)
        for t in range(1, 4):
            assert not dom[model.point0 + t] & 0b011  # nothing below 2

    def test_straddling_edge_forced_to_spill(self):
        doc = {
            "name": "straddle",
            "registers": 4,
            "unroll": 2,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
            "edges": [{"id": "x", "src": "A", "dst": "B", "reg": 1}],
        }
        inst = dfg.instance_from_document(doc)
        model = solver._Model(inst)
        dom = model.initial_domains()
        dom[model.point0] = 1 << 0  # border right after rank 0
        assert solver.propagate(model, dom)
        assert dom[model.espill0] == 0b10  # spill forced true


class TestSearchIdentity:
    """Work counts measured before the unreachable pruning rules were
    removed: the search and the enumeration must not change."""

    def test_toy_counts(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        assert solver.solve(inst).stats.explored == 13_167
        assert oracle.brute_force(inst).candidates == 3_347

    def test_corpus_slice_counts(self):
        corpus = stats.generate_corpus(42, 200)[:20]
        assert sum(solver.solve(inst).stats.explored for inst in corpus) == 9_796
        assert sum(oracle.brute_force(inst).candidates for inst in corpus) == 94_436

    def test_no_spill_flag_chosen_before_geometry(self, monkeypatch):
        # The invariants that make failure tests unnecessary in propagate:
        # spill flags are branched on only once every rank, point and width
        # is decided (no pressure failure), widths only once every point is
        # decided (no empty-tile width failure), and no domain is empty on
        # entry or after a propagation that succeeds (no emptiness tests
        # before narrowing or in the border chain).
        real_select, real_propagate = solver._select_variable, solver.propagate
        choices = []
        width_choices = []
        nonempty = []

        def decided(doms):
            return all(d & (d - 1) == 0 for d in doms)

        def checked(model, dom):
            var = real_select(model, dom)
            if var is not None and var >= model.espill0:
                choices.append(decided(dom[: model.espill0]))
            elif var is not None and var >= model.width0:
                width_choices.append(decided(dom[model.point0 : model.width0]))
            return var

        def checked_propagate(model, dom, **kwargs):
            nonempty.append(all(dom))
            ok = real_propagate(model, dom, **kwargs)
            nonempty.append(not ok or all(dom))
            return ok

        monkeypatch.setattr(solver, "_select_variable", checked)
        monkeypatch.setattr(solver, "propagate", checked_propagate)
        instances = [dfg.instance_from_document(toy_document(), registers=6)]
        instances += stats.generate_corpus(42, 200)[:20]
        for inst in instances:
            solver.solve(inst)
        assert choices and all(choices)
        assert width_choices and all(width_choices)
        assert nonempty and all(nonempty)
