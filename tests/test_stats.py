import random

from regtile import dfg, stats

from .helpers import random_raw_graph, reachability_scc_count


class TestSccCount:
    def test_toy_has_four(self, toy_doc):
        nodes = tuple(dfg.RawNode(n["id"], n["comp"]) for n in toy_doc["nodes"])
        edges = tuple(
            dfg.RawEdge(e["id"], e["src"], e["dst"], e["reg"], e["distance"])
            for e in toy_doc["edges"]
        )
        assert stats.scc_count(dfg.RawDependenceGraph(nodes, edges)) == 4

    def test_cycle_plus_isolated(self):
        g = dfg.RawDependenceGraph(
            (dfg.RawNode("A", 1), dfg.RawNode("B", 1), dfg.RawNode("C", 1)),
            (dfg.RawEdge("x", "A", "B", 1), dfg.RawEdge("y", "B", "A", 1)),
        )
        assert stats.scc_count(g) == 2

    def test_random_graphs_match_reachability(self):
        rng = random.Random(29)
        for _ in range(30):
            g = random_raw_graph(rng, max_nodes=10)
            assert stats.scc_count(g) == reachability_scc_count(g)


class TestOriginalPressure:
    def test_toy_is_ten(self, toy_instance):
        assert stats.original_pressure(toy_instance.graph) == 10

    def test_empty_graph(self):
        g = dfg.DataFlowGraph((), (), ())
        assert stats.original_pressure(g) == 0

    def test_single_node_comp_only(self):
        g = dfg.normalize_states(dfg.RawDependenceGraph((dfg.RawNode("A", 2),), ()))
        assert stats.original_pressure(g) == 2

    def test_invariant_under_id_renaming(self, toy_doc):
        renamed = dict(toy_doc)
        mapping = {"S0": "n0", "S1": "n1", "S2": "n2", "S3": "n3"}
        renamed["nodes"] = [
            {"id": mapping[n["id"]], "comp": n["comp"]} for n in toy_doc["nodes"]
        ]
        renamed["self_edges"] = [
            {**s, "node": mapping[s["node"]]} for s in toy_doc["self_edges"]
        ]
        renamed["edges"] = [
            {**e, "src": mapping[e["src"]], "dst": mapping[e["dst"]]}
            for e in toy_doc["edges"]
        ]
        inst = dfg.instance_from_document(renamed)
        assert stats.original_pressure(inst.graph) == 10


class TestClassify:
    def test_toy_limit_three_interesting(self, toy_instance):
        row = stats.classify(toy_instance)
        assert row.interesting
        assert row.max_pressure == 10
        assert row.csv_row(0) == "0,toy,4,4,10,true"

    def test_toy_limit_sixteen_not_interesting(self, toy_doc):
        inst = dfg.instance_from_document(toy_doc, registers=16)
        assert not stats.classify(inst).interesting

    def test_empty_graph_not_interesting(self):
        inst = dfg.ingest('{"name":"e","registers":0,"unroll":1,"nodes":[],"edges":[]}')
        assert not stats.classify(inst).interesting

    def test_interesting_monotone_in_limit(self, toy_doc):
        flags = [
            stats.classify(dfg.instance_from_document(toy_doc, registers=r)).interesting
            for r in range(0, 16)
        ]
        assert all(a or not b for a, b in zip(flags, flags[1:]))


class TestGenerateCorpus:
    def test_deterministic(self):
        a = stats.generate_corpus(1, 10)
        b = stats.generate_corpus(1, 10)
        assert [dfg.instance_to_document(x) for x in a] == [
            dfg.instance_to_document(x) for x in b
        ]

    def test_node_range_respected(self):
        cfg = stats.CorpusConfig(nodes=(3, 5))
        for inst in stats.generate_corpus(2, 40, cfg):
            assert 3 <= len(inst.graph.nodes) <= 5

    def test_instances_satisfy_acceptance_ranges(self):
        cfg = stats.CorpusConfig()
        for inst in stats.generate_corpus(5, 60, cfg):
            assert len(inst.graph.edges) <= 6
            assert inst.max_comp <= inst.limit <= inst.max_comp + 3
            assert 1 <= inst.unroll <= 6
            assert 1 <= inst.max_width <= min(4, inst.unroll)

    def test_csv_rows(self):
        rows = [stats.classify(i).csv_row(k) for k, i in enumerate(stats.generate_corpus(3, 5))]
        assert len(rows) == 5
        for k, row in enumerate(rows):
            cells = row.split(",")
            assert cells[0] == str(k)
            assert cells[5] in ("true", "false")
