import random
from fractions import Fraction

import pytest

from regtile import dfg, stats, tiling

from .conftest import toy_document
from .helpers import (
    naive_cost,
    naive_feasible,
    naive_pressure,
    naive_tile_assignment,
    naive_uspill,
    random_solution,
)


def _toy_one_tile(order, espill=(), sspill=("S0", "S1", "S2")):
    return tiling.TilingSolution(
        tuple(order), (3,), (1,), frozenset(espill), frozenset(sspill)
    )


class TestSolutionStructure:
    def test_empty_tile_width_normalized(self):
        sol = tiling.TilingSolution(
            ("A", "B"), (1, 1, 1), (2, 5, 9), frozenset(), frozenset()
        )
        assert sol.tile_widths == (2, 1, 1)

    @pytest.mark.parametrize(
        "points, widths, message",
        [
            ((1, 0), (1, 1), "non-decreasing"),
            ((0,), (1, 1), "equal length"),
            ((0, 5), (1, 1), "out of range"),
            ((0, 0), (1, 1), "final tile point"),
            ((0, 1), (1, 0), ">= 1"),
        ],
    )
    def test_structural_validation(self, points, widths, message):
        with pytest.raises(ValueError, match=message):
            tiling.TilingSolution(("A", "B"), points, widths, frozenset(), frozenset())

    def test_duplicate_order_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate node ids"):
            tiling.TilingSolution(("A", "A"), (1,), (1,), frozenset(), frozenset())

    @pytest.mark.parametrize("key", ["order", "tile_points", "tile_widths"])
    def test_from_json_dict_requires_key(self, paper_tiling, key):
        doc = paper_tiling.to_json_dict()
        del doc[key]
        with pytest.raises(ValueError, match=f"missing '{key}'"):
            tiling.TilingSolution.from_json_dict(doc)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"order": ["S0", "S2", "S1", "S9"]}, "not a permutation"),
            ({"order": ["S0", "S2", "S1"], "tile_points": [2]}, "not a permutation"),
            ({"spill_edges": ["a", "zz"]}, r"unknown edge ids in spill set: \['zz'\]"),
            ({"spill_states": ["S0", "S9"]}, r"unknown node ids in spill set: \['S9'\]"),
        ],
        ids=["unknown-node", "missing-node", "unknown-edge", "unknown-state"],
    )
    def test_solution_must_match_instance(self, toy_instance, change, message):
        doc = {**_toy_one_tile(("S0", "S2", "S1", "S3")).to_json_dict(), **change}
        sol = tiling.TilingSolution.from_json_dict(doc)
        for evaluate in (tiling.pressure, tiling.feasible, tiling.cost):
            with pytest.raises(ValueError, match=message):
                evaluate(sol, toy_instance)

    def test_json_round_trip(self, paper_tiling):
        doc = paper_tiling.to_json_dict()
        assert tiling.TilingSolution.from_json_dict(doc) == paper_tiling

    @pytest.mark.parametrize(
        "key, value",
        [
            ("order", "S0S2S1S3"),
            ("order", ["S0", "S2", "S1", 3]),
            ("tile_points", [0, 1.0, 3]),
            ("tile_points", [0, True, 3]),
            ("tile_points", "013"),
            ("tile_widths", [6.0, 6, 3]),
            ("tile_widths", None),
            ("spill_edges", "ae"),
            ("spill_edges", ["a", 1]),
            ("spill_states", {"S0": 1}),
        ],
    )
    def test_from_json_dict_rejects_bad_types(self, paper_tiling, key, value):
        doc = paper_tiling.to_json_dict()
        doc[key] = value
        with pytest.raises(ValueError, match=key):
            tiling.TilingSolution.from_json_dict(doc)

    @pytest.mark.parametrize("doc", [[], "order", None])
    def test_from_json_dict_rejects_non_objects(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            tiling.TilingSolution.from_json_dict(doc)


def _tile_assignment(sol):
    """Node -> tile from ``tile_of_rank``, checked against the second route."""
    got = dict(zip(sol.order, sol.tile_of_rank))
    assert got == naive_tile_assignment(sol)
    return got


class TestNodeTileAssignment:
    def test_toy_with_trailing_empty_tiles(self):
        sol = tiling.TilingSolution(
            ("S0", "S2", "S1", "S3"),
            (0, 1, 3, 3, 3),
            (6, 6, 3, 1, 1),
            frozenset(),
            frozenset(),
        )
        assert _tile_assignment(sol) == {
            "S0": 0,
            "S2": 1,
            "S1": 2,
            "S3": 2,
        }

    def test_single_node(self):
        sol = tiling.TilingSolution(("A",), (0,), (1,), frozenset(), frozenset())
        assert _tile_assignment(sol) == {"A": 0}

    def test_chain_in_one_tile(self):
        sol = tiling.TilingSolution(
            ("A", "B", "C"), (2, 2, 2), (1, 1, 1), frozenset(), frozenset()
        )
        assert _tile_assignment(sol) == {"A": 0, "B": 0, "C": 0}


class TestPressure:
    def test_toy_one_tile_states_spilled(self, toy_instance):
        sol = _toy_one_tile(("S0", "S1", "S2", "S3"))
        profile = tiling.pressure(sol, toy_instance)
        assert profile.points == (4, 3, 5, 2)
        assert profile.max_pressure == 5

    def test_everything_spilled_leaves_comp(self, toy_instance):
        sol = _toy_one_tile(("S0", "S1", "S2", "S3"), espill=("a", "c", "e", "d"))
        assert tiling.pressure(sol, toy_instance).points == (3, 2, 3, 2)

    def test_unspilled_states_floor_pressure(self, toy_instance):
        rng = random.Random(5)
        total_state = toy_instance.graph.total_state
        for _ in range(25):
            sol = random_solution(rng, toy_instance)
            sol = tiling.TilingSolution(
                sol.order, sol.tile_points, sol.tile_widths, sol.edge_spill, frozenset()
            )
            assert min(tiling.pressure(sol, toy_instance).points) >= total_state

    def test_matches_second_route_on_random_solutions(self):
        rng = random.Random(17)
        for inst in stats.generate_corpus(23, 15):
            for _ in range(8):
                sol = random_solution(rng, inst)
                assert (
                    list(tiling.pressure(sol, inst).points)
                    == naive_pressure(sol, inst)
                )


class TestFeasible:
    def test_toy_one_tile_feasible_at_five(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=5)
        sol = _toy_one_tile(("S0", "S1", "S2", "S3"))
        assert tiling.feasible(sol, inst).ok

    def test_toy_one_tile_infeasible_at_three(self, toy_instance):
        sol = _toy_one_tile(("S0", "S1", "S2", "S3"))
        res = tiling.feasible(sol, toy_instance)
        assert not res.ok
        assert res.violated_point == 0
        assert "pressure 4" in res.reason

    def test_empty_instance_feasible(self):
        inst = dfg.ingest('{"name":"e","registers":0,"unroll":1,"nodes":[],"edges":[]}')
        sol = tiling.TilingSolution((), (), (), frozenset(), frozenset())
        assert tiling.feasible(sol, inst).ok

    def test_border_crossing_edge_must_spill(self, toy_instance_limit6):
        sol = tiling.TilingSolution(
            ("S0", "S2", "S1", "S3"),
            (0, 1, 3),
            (6, 6, 3),
            frozenset({"a", "e"}),  # d crosses the 0|1 border unspilled
            frozenset({"S0", "S1", "S2"}),
        )
        res = tiling.feasible(sol, toy_instance_limit6)
        assert not res.ok
        assert "'d'" in res.reason

    def test_non_topological_order_rejected(self, toy_instance_limit6):
        sol = _toy_one_tile(("S1", "S0", "S2", "S3"))
        res = tiling.feasible(sol, toy_instance_limit6)
        assert not res.ok
        assert "order violates" in res.reason

    def test_width_cap_enforced(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, max_width=2)
        sol = tiling.TilingSolution(
            ("S0", "S1", "S2", "S3"), (3,), (3,), frozenset(), frozenset({"S0", "S1", "S2"})
        )
        res = tiling.feasible(sol, inst)
        assert not res.ok
        assert "max_width" in res.reason

    def test_paper_tiling_feasible_at_six(self, paper_tiling, toy_instance_limit6):
        assert tiling.feasible(paper_tiling, toy_instance_limit6).ok

    def test_paper_tiling_infeasible_at_three(self, paper_tiling, toy_instance):
        res = tiling.feasible(paper_tiling, toy_instance)
        assert not res.ok
        assert res.violated_point == 2


class TestCost:
    def test_paper_tiling_unroll_six(self, paper_tiling, toy_instance):
        rep = tiling.cost(paper_tiling, toy_instance)
        assert rep.uspill == 18
        assert rep.spill == Fraction(3)
        assert rep.stream_cost == 12
        assert rep.state_cost == 6

    def test_paper_shape_unroll_300(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, unroll=300, max_width=300)
        sol = tiling.TilingSolution(
            ("S0", "S2", "S1", "S3"),
            (0, 1, 3),
            (300, 300, 3),
            frozenset({"a", "e", "d"}),
            frozenset({"S0", "S1", "S2"}),
        )
        rep = tiling.cost(sol, inst)
        assert rep.uspill == 704
        assert rep.spill == Fraction(704, 300)

    def test_original_toy_schedule_costs_five(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, unroll=1, max_width=1)
        sol = _toy_one_tile(("S0", "S1", "S2", "S3"))
        rep = tiling.cost(sol, inst)
        assert rep.uspill == 5
        assert rep.stream_cost == 0

    def test_spill_times_unroll_is_uspill_exactly(self):
        rng = random.Random(3)
        for inst in stats.generate_corpus(31, 15):
            sol = random_solution(rng, inst)
            rep = tiling.cost(sol, inst)
            assert rep.spill * inst.unroll == rep.uspill
            assert rep.uspill == rep.stream_cost + rep.state_cost
            assert rep.uspill == naive_uspill(sol, inst)

    def test_state_charge_alt_matches_width_division(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, unroll=6)
        sol = tiling.TilingSolution(
            ("S0", "S2", "S1", "S3"),
            (0, 1, 3),
            (6, 6, 3),
            frozenset({"a", "e", "d"}),
            frozenset({"S0", "S1", "S2"}),
        )
        rep = tiling.cost(sol, inst)
        charges = dict(rep.state_charge_alt)
        # distance-1 states: min(1, w) * size / w == size / w
        assert charges["S0"] == Fraction(2, 6)
        assert charges["S1"] == Fraction(1, 3)
        assert charges["S2"] == Fraction(2, 6)


def _random_any_solution(rng, inst):
    """A solution that may break any model condition: each of a shuffled
    (mostly non-topological) order, fresh borders with empty tiles, a width
    above ``max_width``, an unspilled tile-crossing edge and spilled reg-0
    edges is applied at random to a structurally valid solution."""
    g = inst.graph
    n = len(g.nodes)
    sol = random_solution(rng, inst)
    order = list(sol.order)
    points, widths = sol.tile_points, list(sol.tile_widths)
    espill, sspill = set(sol.edge_spill), set(sol.state_spill)
    if rng.random() < 0.25:
        rng.shuffle(order)
    if rng.random() < 0.4:
        cuts = sorted(rng.randint(-1, n - 1) for _ in range(rng.randint(0, n)))
        points = tuple(cuts) + (n - 1,)
        widths = [rng.randint(1, inst.max_width) for _ in points]
    if rng.random() < 0.15:
        widths[rng.randrange(len(widths))] = inst.max_width + rng.randint(1, 2)
    if espill and rng.random() < 0.25:
        espill.remove(rng.choice(sorted(espill)))
    if rng.random() < 0.5:
        espill |= {e.id for e in g.edges if e.reg == 0}
    return tiling.TilingSolution(tuple(order), points, tuple(widths), espill, sspill)


class TestCompiledAgainstSecondRoute:
    def test_random_solutions_including_infeasible(self):
        rng = random.Random(29)
        instances = [
            dfg.instance_from_document(toy_document(), registers=r) for r in range(3, 9)
        ]
        instances += [inst for inst in stats.generate_corpus(37, 40) if inst.graph.nodes]
        # "crosses a tile border" contains "order", so it is matched first.
        seen = {"ok": 0, "crosses": 0, "order": 0, "max_width": 0, "pressure": 0}
        empty_tiles = reg0_spilled = 0
        checked = 0
        for inst in instances:
            reg0 = {e.id for e in inst.graph.edges if e.reg == 0}
            for _ in range(40 if inst.name == "toy" else 20):
                sol = _random_any_solution(rng, inst)
                assert list(tiling.pressure(sol, inst).points) == naive_pressure(sol, inst)
                res = tiling.feasible(sol, inst)
                assert res == naive_feasible(sol, inst)
                assert tiling.cost(sol, inst) == naive_cost(sol, inst)
                kind = "ok" if res.ok else next(k for k in seen if k in res.reason)
                seen[kind] += 1
                empty_tiles += sol.tile_points[0] == -1 or len(set(sol.tile_points)) < len(
                    sol.tile_points
                )
                reg0_spilled += bool(sol.edge_spill & reg0)
                checked += 1
        assert checked >= 1000
        assert all(seen.values()), seen
        assert empty_tiles and reg0_spilled


    def test_compiled_once_per_instance(self, toy_instance, paper_tiling):
        compiled = tiling.CompiledInstance.of(toy_instance)
        tiling.pressure(paper_tiling, toy_instance)
        tiling.feasible(paper_tiling, toy_instance)
        assert tiling.CompiledInstance.of(toy_instance) is compiled


class TestMonotonicity:
    def test_flag_flips(self):
        rng = random.Random(11)
        instances = stats.generate_corpus(57, 12)
        for inst in instances:
            if not inst.graph.nodes:
                continue
            for _ in range(20):
                sol = random_solution(rng, inst)
                base_cost = tiling.cost(sol, inst).uspill
                base_press = tiling.pressure(sol, inst).points
                flipped = _flip_one(rng, sol, inst)
                if flipped is None:
                    continue
                new_cost = tiling.cost(flipped, inst).uspill
                new_press = tiling.pressure(flipped, inst).points
                assert new_cost >= base_cost
                assert all(after <= before for before, after in zip(base_press, new_press))

    def test_all_spill_is_universal_upper_bound(self):
        for inst in stats.generate_corpus(71, 15):
            sol = tiling.all_spill_solution(inst)
            if inst.limit >= inst.max_comp:
                assert tiling.feasible(sol, inst).ok
            rep = tiling.cost(sol, inst)
            expected = inst.unroll * (
                sum(e.reg for e in inst.graph.edges) + inst.graph.total_state
            )
            assert rep.uspill == expected

    def test_state_charge_equals_width_ratio_when_divisible(self, toy_doc):
        # For unroll a multiple of the width, ceil(u/w)*s/u == s/w.
        for w in (1, 2, 3, 6):
            inst = dfg.instance_from_document(toy_doc, unroll=6)
            sol = tiling.TilingSolution(
                ("S0", "S1", "S2", "S3"),
                (3,),
                (w,),
                frozenset({"a", "c", "e", "d"}),
                frozenset({"S1"}),
            )
            rep = tiling.cost(sol, inst)
            per_iter_state = Fraction(rep.state_cost, inst.unroll)
            assert per_iter_state == Fraction(1, w)


def _flip_one(rng, sol, inst):
    unspilled_edges = [e.id for e in inst.graph.edges if e.id not in sol.edge_spill]
    unspilled_states = [
        n.id
        for n in inst.graph.nodes
        if n.state > 0 and n.id not in sol.state_spill
    ]
    pool = [("e", x) for x in unspilled_edges] + [("s", x) for x in unspilled_states]
    if not pool:
        return None
    kind, chosen = pool[rng.randrange(len(pool))]
    if kind == "e":
        return tiling.TilingSolution(
            sol.order,
            sol.tile_points,
            sol.tile_widths,
            sol.edge_spill | {chosen},
            sol.state_spill,
        )
    return tiling.TilingSolution(
        sol.order,
        sol.tile_points,
        sol.tile_widths,
        sol.edge_spill,
        sol.state_spill | {chosen},
    )
