import json
import random

import pytest

from regtile import dfg, solver, tiling

from .helpers import random_pipeline_graph, random_raw_graph, reachability_scc_count
from .conftest import toy_document


def _is_acyclic_over_d0(g: dfg.RawDependenceGraph) -> bool:
    order: list[str] = []
    arcs = [(e.src, e.dst) for e in g.edges if e.distance == 0 and e.src != e.dst]
    remaining = set(g.node_ids)
    while remaining:
        free = [
            v for v in remaining
            if not any(d == v and s in remaining and s != v for s, d in arcs)
        ]
        if not free:
            return False
        for v in free:
            remaining.discard(v)
            order.append(v)
    return True


class TestIngest:
    def test_toy_document(self, toy_instance):
        g = toy_instance.graph
        assert [(n.id, n.comp, n.state) for n in g.nodes] == [
            ("S0", 3, 2),
            ("S1", 2, 1),
            ("S2", 3, 2),
            ("S3", 2, 0),
        ]
        regs = {e.id: e.reg for e in g.edges}
        assert regs == {"a": 1, "c": 1, "e": 1, "d": 0}
        assert toy_instance.limit == 3
        assert toy_instance.unroll == 6
        assert toy_instance.max_width == 6

    def test_toy_groups_are_singletons(self, toy_instance):
        groups = {g.id: g.members for g in toy_instance.graph.groups}
        assert sorted(len(m) for m in groups.values()) == [1, 1, 1, 1]

    def test_empty_instance(self):
        inst = dfg.ingest(json.dumps({"name": "empty", "registers": 4, "unroll": 1, "nodes": [], "edges": []}))
        assert inst.graph.nodes == ()
        assert inst.graph.edges == ()

    def test_dangling_source(self):
        doc = {
            "name": "bad",
            "registers": 2,
            "unroll": 1,
            "nodes": [{"id": "S1", "comp": 1}],
            "edges": [{"id": "x", "src": "S9", "dst": "S1", "reg": 1}],
        }
        with pytest.raises(dfg.InstanceError, match="undeclared node 'S9'"):
            dfg.instance_from_document(doc)

    def test_parse_error_carries_position(self):
        with pytest.raises(dfg.InstanceError, match="line 1"):
            dfg.ingest("{not json")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["nodes"].append({"id": "S0", "comp": 1}), "duplicate node id"),
            (lambda d: d["nodes"][0].update(comp=-1), "negative comp"),
            (lambda d: d["edges"][0].update(reg=-2), "negative reg"),
            (lambda d: d["edges"][0].update(distance=-1), "negative distance"),
            (lambda d: d.update(unroll=0), "unroll"),
            (lambda d: d.update(max_width=9), "max_width"),
            (lambda d: d["edges"].append(dict(d["edges"][0])), "duplicate edge id 'a'"),
            (
                lambda d: d["edges"].append(
                    {"id": "a", "src": "S2", "dst": "S2", "reg": 1, "distance": 1}
                ),
                "duplicate edge id 'a'",
            ),
            (lambda d: d.pop("registers"), "missing required key 'registers'"),
            (lambda d: d.update(unroll="6"), "'unroll' must be int"),
            (lambda d: d["nodes"][0].update(comp=True), "'comp' must be int"),
            (lambda d: d["nodes"].append(["S9", 1]), "node entry must be an object"),
            (lambda d: d["edges"].append("x"), "edge entry must be an object"),
            (lambda d: d["self_edges"].append(None), "self_edge entry must be an object"),
            (lambda d: d.update(name=7), "'name' must be a string"),
            (lambda d: d["edges"][0].update(variable=1), "'variable' must be a string"),
            (lambda d: d["nodes"][0].update(state=-1), "negative state"),
            (lambda d: d["self_edges"][0].update(distance=0), "distance must be >= 1"),
            (lambda d: d.update(registers=-1), "registers must be >= 0"),
        ],
    )
    def test_validation_failures(self, mutate, message):
        doc = toy_document()
        mutate(doc)
        with pytest.raises(dfg.InstanceError, match=message):
            dfg.instance_from_document(doc)

    @pytest.mark.parametrize("doc", [[], "toy", 3, None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(dfg.InstanceError, match="must be a JSON object"):
            dfg.instance_from_document(doc)

    def test_normalized_form_cycle_rejected(self):
        doc = {
            "name": "cyclic",
            "registers": 2,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "B", "reg": 1},
                {"id": "y", "src": "B", "dst": "A", "reg": 1},
            ],
        }
        with pytest.raises(dfg.InstanceError, match="cycle"):
            dfg.instance_from_document(doc)

    def test_raw_form_cycle_condensed(self):
        doc = {
            "name": "cyclic-raw",
            "registers": 8,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "B", "reg": 1},
                {"id": "y", "src": "B", "dst": "A", "reg": 1},
            ],
            "self_edges": [{"node": "A", "reg": 1, "distance": 2, "variable": "w"}],
        }
        inst = dfg.instance_from_document(doc)
        assert [n.id for n in inst.graph.nodes] == ["A+B"]
        assert inst.graph.nodes[0].comp == 4
        assert inst.graph.nodes[0].state == 2

    def test_carried_back_dependence_rejected(self):
        # B feeds A one iteration later while A feeds B in-iteration: only
        # whole-cycle fusion could schedule this, and intra-iteration
        # condensation deliberately does not fuse carried edges.
        doc = {
            "name": "carried-back",
            "registers": 4,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "B", "reg": 1},
                {"id": "y", "src": "B", "dst": "A", "reg": 1, "distance": 1},
            ],
        }
        with pytest.raises(dfg.InstanceError, match="carried back"):
            dfg.instance_from_document(doc)

    def test_group_reg_mismatch_rejected(self):
        doc = {
            "name": "bad-group",
            "registers": 4,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}, {"id": "C", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "B", "reg": 1, "variable": "t"},
                {"id": "y", "src": "A", "dst": "C", "reg": 2, "variable": "t"},
            ],
        }
        with pytest.raises(dfg.InstanceError, match="differ in reg"):
            dfg.instance_from_document(doc)

    def test_shared_variable_forms_group(self):
        doc = {
            "name": "grouped",
            "registers": 4,
            "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}, {"id": "C", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "B", "reg": 2, "variable": "t"},
                {"id": "y", "src": "A", "dst": "C", "reg": 2, "variable": "t"},
            ],
        }
        inst = dfg.instance_from_document(doc)
        assert len(inst.graph.groups) == 1
        assert set(inst.graph.groups[0].members) == {"x", "y"}

    @pytest.mark.parametrize("reg", [1, 2])
    def test_edge_named_like_a_group_stands_alone(self, reg):
        # "A/t" is also the made-up name of A's group carrying t.
        doc = {
            "name": "group-name", "registers": 8, "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}, {"id": "C", "comp": 1}],
            "edges": [
                {"id": "x", "src": "A", "dst": "C", "reg": 1, "variable": "t"},
                {"id": "A/t", "src": "B", "dst": "C", "reg": reg},
            ],
        }
        inst = dfg.instance_from_document(doc)
        groups = [(g.id, g.members, g.reg) for g in inst.graph.groups]
        assert groups == [("A/t'", ("x",), 1), ("A/t", ("A/t",), reg)]
        assert [e.group for e in inst.graph.edges] == ["A/t'", "A/t"]
        # Both values are live after B: comp 1 plus one group each.
        sol = tiling.TilingSolution(("A", "B", "C"), (2,), (1,), frozenset(), frozenset())
        assert tiling.pressure(sol, inst).points == (2, 2 + reg, 1)

    def test_group_names_from_different_sources_stay_apart(self):
        # Source "A" with variable "x/y" and source "A/x" with variable "y".
        doc = {
            "name": "group-name", "registers": 8, "unroll": 1,
            "nodes": [{"id": "A", "comp": 1}, {"id": "A/x", "comp": 1}, {"id": "C", "comp": 1}],
            "edges": [
                {"id": "p", "src": "A", "dst": "C", "reg": 1, "variable": "x/y"},
                {"id": "q", "src": "A/x", "dst": "C", "reg": 2, "variable": "y"},
            ],
        }
        inst = dfg.instance_from_document(doc)
        groups = [(g.id, g.members, g.reg) for g in inst.graph.groups]
        assert groups == [("A/x/y", ("p",), 1), ("A/x/y'", ("q",), 2)]

    def test_cli_style_overrides(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=6, unroll=12, max_width=4)
        assert (inst.limit, inst.unroll, inst.max_width) == (6, 12, 4)

    @pytest.mark.parametrize("unroll, want", [(2, 2), (6, 6), (12, 6)])
    def test_document_max_width_capped_at_unroll_override(self, toy_doc, unroll, want):
        inst = dfg.instance_from_document(toy_doc, unroll=unroll)
        assert inst.max_width == want

    def test_explicit_max_width_stays_strict(self, toy_doc):
        with pytest.raises(dfg.InstanceError, match="max_width"):
            dfg.instance_from_document(toy_doc, unroll=2, max_width=3)

    @pytest.mark.parametrize(
        "nodes, edges, self_edges, want",
        [
            # A node state and a diagonal edge named after the node both
            # fold into "A~state" self edges.
            (
                [{"id": "A", "comp": 1, "state": 1}, {"id": "B", "comp": 1}],
                [{"id": "A", "src": "A", "dst": "B", "reg": 1, "distance": 1}],
                [],
                [("A", 1, 2), ("B", 1, 0)],
            ),
            # A user edge named like a synthesized self edge.
            (
                [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}],
                [{"id": "A~self0", "src": "A", "dst": "B", "reg": 1}],
                [{"node": "A", "reg": 1, "distance": 1, "variable": "w"}],
                [("A", 1, 1), ("B", 1, 0)],
            ),
            # A declared node named like the fused {A, B} cycle.
            (
                [{"id": "A", "comp": 1}, {"id": "B", "comp": 1}, {"id": "A+B", "comp": 1}],
                [
                    {"id": "x", "src": "A", "dst": "B", "reg": 1},
                    {"id": "y", "src": "B", "dst": "A", "reg": 1},
                    {"id": "z", "src": "A", "dst": "A+B", "reg": 1},
                ],
                [],
                [("A+B'", 4, 0), ("A+B", 1, 0)],
            ),
        ],
        ids=["state-vs-diagonal", "self-edge-name", "merged-name"],
    )
    def test_made_up_ids_do_not_collide(self, nodes, edges, self_edges, want):
        doc = {
            "name": "collide", "registers": 8, "unroll": 2,
            "nodes": nodes, "edges": edges, "self_edges": self_edges,
        }
        inst = dfg.instance_from_document(doc)
        assert [(n.id, n.comp, n.state) for n in inst.graph.nodes] == want
        assert solver.solve(inst).status is solver.SolveStatus.OPTIMAL

    @pytest.mark.parametrize("ring", [False, True])
    def test_long_raw_graph_ingests(self, ring):
        # Deep enough to overflow any recursive graph walk.
        n = 5000
        edges = [
            {"id": f"e{i}", "src": f"N{i}", "dst": f"N{i + 1}", "reg": 1}
            for i in range(n - 1)
        ]
        if ring:
            edges.append({"id": "back", "src": f"N{n - 1}", "dst": "N0", "reg": 1})
        doc = {
            "name": "long", "registers": 8, "unroll": 1,
            "nodes": [{"id": f"N{i}", "comp": 1} for i in range(n)],
            "edges": edges, "self_edges": [],
        }
        inst = dfg.instance_from_document(doc)
        assert len(inst.graph.nodes) == (1 if ring else n)

    def test_round_trip(self, toy_instance):
        doc = dfg.instance_to_document(toy_instance)
        again = dfg.instance_from_document(doc)
        assert [(n.id, n.comp, n.state) for n in again.graph.nodes] == [
            (n.id, n.comp, n.state) for n in toy_instance.graph.nodes
        ]
        assert [(e.id, e.src, e.dst, e.reg) for e in again.graph.edges] == [
            (e.id, e.src, e.dst, e.reg) for e in toy_instance.graph.edges
        ]


class TestCondense:
    def test_two_cycle_collapses(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("A", 1), dfg.RawNode("B", 2), dfg.RawNode("C", 3)),
            (
                dfg.RawEdge("x", "A", "B", 1),
                dfg.RawEdge("y", "B", "A", 2),
            ),
        )
        out = dfg.condense_sccs(g)
        assert [n.id for n in out.nodes] == ["A+B", "C"]
        # Merged comp: member comps 1+2 plus internal edge regs 1+2.
        assert out.nodes[0].comp == 6
        assert out.edges == ()

    def test_acyclic_toy_graph_unchanged(self, toy_doc):
        nodes = tuple(dfg.RawNode(n["id"], n["comp"]) for n in toy_doc["nodes"])
        edges = tuple(
            dfg.RawEdge(e["id"], e["src"], e["dst"], e["reg"], e["distance"], e["variable"])
            for e in toy_doc["edges"]
        )
        out = dfg.condense_sccs(dfg.RawDependenceGraph(nodes, edges))
        assert len(out.nodes) == 4
        assert [n.id for n in out.nodes] == ["S0", "S1", "S2", "S3"]

    def test_inter_scc_edges_remapped(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("A", 1), dfg.RawNode("B", 1), dfg.RawNode("C", 1)),
            (
                dfg.RawEdge("x", "A", "B", 1),
                dfg.RawEdge("y", "B", "A", 1),
                dfg.RawEdge("z", "B", "C", 2, 0, "v"),
            ),
        )
        out = dfg.condense_sccs(g)
        assert [(e.id, e.src, e.dst) for e in out.edges] == [("z", "A+B", "C")]

    def test_carried_internal_edge_becomes_self_edge(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("A", 1), dfg.RawNode("B", 1)),
            (
                dfg.RawEdge("x", "A", "B", 1),
                dfg.RawEdge("y", "B", "A", 1),
                dfg.RawEdge("z", "B", "A", 1, 2, "v"),
            ),
        )
        out = dfg.condense_sccs(g)
        assert [(e.src, e.dst, e.distance) for e in out.edges] == [("A+B", "A+B", 2)]

    def test_random_graphs_match_reachability_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_raw_graph(rng, max_nodes=8)
            out = dfg.condense_sccs(g)
            assert len(out.nodes) == reachability_scc_count(g)
            assert _is_acyclic_over_d0(out)


class TestDecompose:
    def test_diagonal_split(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("Sa", 1), dfg.RawNode("Sb", 1)),
            (dfg.RawEdge("f", "Sa", "Sb", 1, 2, "w"),),
        )
        out = dfg.decompose_diagonal(g)
        assert [(e.src, e.dst, e.reg, e.distance) for e in out.edges] == [
            ("Sa", "Sa", 1, 2),
            ("Sa", "Sb", 1, 0),
        ]

    def test_distance_zero_unchanged(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("A", 1), dfg.RawNode("B", 1)),
            (dfg.RawEdge("f", "A", "B", 1, 0, "w"),),
        )
        assert dfg.decompose_diagonal(g) == g

    def test_idempotent_and_charge_preserving(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_raw_graph(rng, max_nodes=8)
            once = dfg.decompose_diagonal(g)
            twice = dfg.decompose_diagonal(once)
            assert once == twice
            charge = lambda gr: sum(e.reg * e.distance for e in gr.edges)
            assert charge(once) == charge(g)


class TestNormalizeStates:
    def test_distance_scales_state(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("A", 1),),
            (dfg.RawEdge("s", "A", "A", 1, 3, "w"),),
        )
        out = dfg.normalize_states(g)
        assert out.nodes[0].state == 3

    def test_no_self_edge_means_zero_state(self):
        g = dfg.RawDependenceGraph((dfg.RawNode("A", 2),), ())
        assert dfg.normalize_states(g).nodes[0].state == 0

    def test_toy_states(self, toy_instance):
        states = {n.id: n.state for n in toy_instance.graph.nodes}
        assert states == {"S0": 2, "S1": 1, "S2": 2, "S3": 0}

    def test_total_state_matches_carried_charge(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_pipeline_graph(rng, max_nodes=8)
            prepared = dfg.decompose_diagonal(dfg.condense_sccs(g))
            carried = sum(e.reg * e.distance for e in prepared.edges if e.src == e.dst)
            out = dfg.normalize_states(prepared)
            assert out.total_state == carried

    def test_pipeline_identity_on_normalized(self, toy_instance):
        doc = dfg.instance_to_document(toy_instance)
        again = dfg.instance_from_document(doc)
        assert dfg.instance_to_document(again) == doc
