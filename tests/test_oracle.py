import dataclasses
import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from regtile import dfg, oracle, stats, tiling

from .conftest import toy_document


def _single_node_instance(**overrides):
    doc = {
        "name": "one",
        "registers": 2,
        "unroll": 4,
        "max_width": 4,
        "nodes": [{"id": "A", "comp": 1, "state": 1}],
        "edges": [],
    }
    doc.update(overrides)
    return dfg.instance_from_document(doc)


class TestBruteForce:
    def test_empty_instance(self):
        inst = dfg.ingest('{"name":"e","registers":0,"unroll":1,"nodes":[],"edges":[]}')
        res = oracle.brute_force(inst)
        assert res.spill == 0
        assert res.uspill == 0

    def test_single_node_keep_beats_spill(self):
        # Keeping the state costs pressure 1 + 1 = 2 <= limit, so the
        # optimum is 0 rather than the width-4 spill at 1/4.
        res = oracle.brute_force(_single_node_instance())
        assert res.spill == 0
        assert res.witness.state_spill == frozenset()

    def test_single_node_forced_spill_quarter(self):
        res = oracle.brute_force(_single_node_instance(registers=1))
        assert res.spill == Fraction(1, 4)
        assert res.witness.state_spill == {"A"}
        assert res.witness.tile_widths == (4,)

    def test_stateless_node_has_nothing_to_spill(self):
        inst = _single_node_instance(unroll=3, max_width=3, nodes=[{"id": "A", "comp": 1}])
        res = oracle.brute_force(inst)
        assert res.uspill == 0
        # The all-spill seed plus one tiling per width.
        assert res.candidates == 4

    def test_instance_too_large(self):
        doc = {
            "name": "big",
            "registers": 3,
            "unroll": 1,
            "nodes": [{"id": f"S{i}", "comp": 1} for i in range(8)],
            "edges": [],
        }
        with pytest.raises(oracle.InstanceTooLargeError):
            oracle.brute_force(dfg.instance_from_document(doc))

    def test_no_feasible_solution(self):
        doc = {
            "name": "tight",
            "registers": 1,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 3}],
            "edges": [],
        }
        with pytest.raises(oracle.NoFeasibleSolutionError):
            oracle.brute_force(dfg.instance_from_document(doc))

    def test_toy_limit6(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        res = oracle.brute_force(inst)
        assert res.spill == Fraction(7, 3)
        assert tiling.feasible(res.witness, inst).ok
        assert tiling.cost(res.witness, inst).spill == res.spill

    def test_witness_always_feasible_with_matching_cost(self):
        for inst in stats.generate_corpus(101, 25):
            res = oracle.brute_force(inst)
            assert tiling.feasible(res.witness, inst).ok
            rep = tiling.cost(res.witness, inst)
            assert rep.spill == res.spill
            assert rep.uspill == res.uspill

    def test_optimum_bounded_by_all_spill(self):
        for inst in stats.generate_corpus(103, 25):
            res = oracle.brute_force(inst)
            fallback = tiling.cost(tiling.all_spill_solution(inst), inst)
            assert res.uspill <= fallback.uspill

    def test_monotone_in_limit_and_width(self):
        base = toy_document()
        rng = random.Random(4)
        for _ in range(4):
            u = rng.choice([2, 4, 6])
            spills = []
            for extra in range(0, 4):
                inst = dfg.instance_from_document(
                    base, registers=3 + extra, unroll=u, max_width=min(3, u)
                )
                spills.append(oracle.brute_force(inst).spill)
            assert all(b <= a for a, b in zip(spills, spills[1:]))
            widths = []
            for mw in range(1, min(4, u) + 1):
                inst = dfg.instance_from_document(
                    base, registers=5, unroll=u, max_width=mw
                )
                widths.append(oracle.brute_force(inst).spill)
            assert all(b <= a for a, b in zip(widths, widths[1:]))

    def test_deterministic(self):
        inst = dfg.instance_from_document(toy_document(), registers=5)
        a = oracle.brute_force(inst)
        b = oracle.brute_force(inst)
        assert a.witness == b.witness
        assert a.candidates == b.candidates


# Candidate counts and witnesses of the toy at 6 registers and of the first
# 20 acceptance-corpus instances, recorded before the oracle screened its
# candidates on the compiled instance form.
ORACLE_PINS = json.loads((Path(__file__).parent / "data" / "oracle_pins.json").read_text())


class TestPinnedWork:
    def test_toy_limit6(self):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        res = oracle.brute_force(inst)
        pin = ORACLE_PINS["toy6"]
        assert res.candidates == pin["candidates"]
        assert res.witness.to_json_dict() == pin["witness"]

    def test_acceptance_corpus_head(self):
        corpus = stats.generate_corpus(42, 200)[:20]
        for inst in corpus:
            res = oracle.brute_force(inst)
            pin = ORACLE_PINS[inst.name]
            assert res.candidates == pin["candidates"], inst.name
            assert res.witness.to_json_dict() == pin["witness"], inst.name
        assert len(ORACLE_PINS) == 1 + len(corpus)


class TestSelfChecks:
    def test_evaluator_cost_drift_raises(self, monkeypatch):
        true_cost = tiling.cost

        def drifted(sol, instance):
            rep = true_cost(sol, instance)
            return dataclasses.replace(rep, uspill=rep.uspill + 1)

        monkeypatch.setattr(tiling, "cost", drifted)
        inst = dfg.instance_from_document(toy_document(), registers=6)
        with pytest.raises(RuntimeError, match="drifted"):
            oracle.brute_force(inst)

    def test_screen_passing_infeasible_incumbent_raises(self, monkeypatch):
        inst = dfg.instance_from_document(toy_document(), registers=6)
        seed = tiling.all_spill_solution(inst)
        true_feasible = tiling.feasible

        def only_seed(sol, instance):
            if sol == seed:
                return true_feasible(sol, instance)
            return tiling.FeasibilityResult(False)

        monkeypatch.setattr(tiling, "feasible", only_seed)
        with pytest.raises(RuntimeError, match="screen passed an infeasible tiling"):
            oracle.brute_force(inst)

    def test_infeasible_seed_raises(self, monkeypatch):
        monkeypatch.setattr(
            tiling, "feasible", lambda sol, instance: tiling.FeasibilityResult(False)
        )
        inst = dfg.instance_from_document(toy_document(), registers=6)
        with pytest.raises(RuntimeError, match="all-spill tiling is infeasible"):
            oracle.brute_force(inst)


class TestTopologicalOrders:
    def test_equal_to_arc_respecting_permutations(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 6)
            hidden = [f"V{i}" for i in range(n)]  # one topological order
            arcs = [
                (hidden[i], hidden[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            if rng.random() < 0.5:
                # Chain the untouched nodes, as brute_force pins a cluster of
                # interchangeable isolated nodes.
                touched = {v for arc in arcs for v in arc}
                free = sorted(v for v in hidden if v not in touched)
                arcs += list(zip(free, free[1:]))
            declared = rng.sample(hidden, n)
            want = [
                p
                for p in permutations(declared)
                if all(p.index(src) < p.index(dst) for src, dst in arcs)
            ]
            assert list(oracle._topological_orders(declared, arcs)) == want


def _subsets_in_cost_order(costs):
    """Every (total, mask) over ``costs``, sorted by total and then by the
    tuple of the chosen items' positions in ascending-cost order."""
    position = {i: p for p, i in enumerate(sorted(range(len(costs)), key=lambda i: (costs[i], i)))}
    rows = []
    for mask in range(1 << len(costs)):
        chosen = [i for i in range(len(costs)) if mask >> i & 1]
        rows.append((sum(costs[i] for i in chosen), sorted(position[i] for i in chosen), mask))
    rows.sort(key=lambda row: row[:2])
    return [(total, mask) for total, _positions, mask in rows]


class TestSubsetsByCost:
    def test_equal_to_sorted_subsets(self):
        rng = random.Random(8)
        for _ in range(300):
            costs = [rng.choice([0, 0, 1, 2, 3, 3, 5, 8]) for _ in range(rng.randint(0, 7))]
            got = list(oracle._subsets_by_cost(costs))
            assert len({mask for _total, mask in got}) == 1 << len(costs)
            assert got == _subsets_in_cost_order(costs)

    @pytest.mark.parametrize("column_bound", [1 << 64, (1 << 64) + 1])
    def test_interleaved_replays_equal_fresh_stream(self, column_bound):
        rng = random.Random(9)
        for _ in range(100):
            costs = tuple(rng.choice([0, 1, 1, 2, 4, 6]) for _ in range(rng.randint(0, 6)))
            want = list(oracle._subsets_by_cost(costs))
            # Array columns, or list columns as for values past 64 bits.
            columns = oracle._memo_column(column_bound), oracle._memo_column(column_bound)
            source = oracle._subsets_by_cost(costs)
            readers = [oracle._replay(*columns, source) for _ in range(3)]
            read = [[] for _ in readers]
            # Each step reads a few items from one reader, or starts it anew
            # after a partial read, as a cost bound would break a loop.
            for _step in range(40):
                k = rng.randrange(len(readers))
                if rng.random() < 0.2:
                    assert read[k] == want[: len(read[k])]
                    readers[k], read[k] = oracle._replay(*columns, source), []
                    continue
                for item in readers[k]:
                    read[k].append(item)
                    if rng.random() < 0.3:
                        break
            for reader, items in zip(readers, read):
                assert items + list(reader) == want
            assert list(zip(*columns)) == want


class TestTieKeys:
    def test_solution_key_equals_canonical_key(self, toy_instance):
        rng = random.Random(12)
        for _ in range(200):
            sol = _random_solution(rng, toy_instance)
            parts = (sol.order, sol.tile_points, sol.tile_widths, sol.edge_spill, sol.state_spill)
            assert tiling.solution_key(*parts) == tiling.canonical_key(sol)

    def test_order_keys_decide_ties_across_orders(self):
        # Ids whose JSON order is not their string order: "a" < "a!", but
        # '"a!"' < '"a"' once quoted, since '!' < '"'.
        ids = ["a", "a!", "b", "a b", "é", "c\\"]
        rng = random.Random(13)
        for _ in range(500):
            picked = rng.sample(ids, rng.randint(2, len(ids)))
            keys = []
            for _side in range(2):
                order = tuple(rng.sample(picked, len(picked)))
                points, widths, edges, states = _random_parts(rng, order, EDGE_IDS)
                full = tiling.solution_key(order, points, widths, edges, states)
                keys.append((oracle._order_key(order), full))
            (order_a, full_a), (order_b, full_b) = keys
            if order_a != order_b:
                assert (order_a < order_b) == (full_a < full_b)


EDGE_IDS = [f"e{i}" for i in range(10)]


def _random_parts(rng, order, edge_ids):
    """Tile points without empty tiles, widths and spill sets for ``order``."""
    n = len(order)
    points = sorted(rng.sample(range(n - 1), rng.randint(0, n - 1))) + [n - 1]
    widths = [rng.randint(1, 4) for _ in points]
    edges = set(rng.sample(edge_ids, rng.randint(0, len(edge_ids))))
    states = set(rng.sample(order, rng.randint(0, n)))
    return points, widths, edges, states


def _random_solution(rng, instance):
    graph = instance.graph
    order = tuple(rng.sample(graph.node_ids, len(graph.node_ids)))
    points, widths, edges, states = _random_parts(rng, order, [e.id for e in graph.edges])
    return tiling.TilingSolution(order, tuple(points), tuple(widths), edges, states)
