"""Corpus statistics and the synthetic instance generator.

Mirrors the evaluation methodology: how many schedulable units a loop has
(SCC count), how much register pressure its original schedule needs, and
whether rescheduling can help at all (pressure above the limit).  The
generator produces deterministic pseudo-random instances for solver and
oracle stress tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import dfg, tiling
from .dfg import DataFlowGraph, ProblemInstance, RawDependenceGraph

__all__ = [
    "InstanceStats",
    "CorpusConfig",
    "scc_count",
    "original_pressure",
    "classify",
    "generate_corpus",
]


@dataclass(frozen=True)
class InstanceStats:
    name: str
    nodes: int
    max_pressure: int
    interesting: bool

    def csv_row(self, index: int) -> str:
        # Ingest condensed the SCCs, so the node count is the SCC count.
        return (
            f"{index},{self.name},{self.nodes},{self.nodes},"
            f"{self.max_pressure},{str(self.interesting).lower()}"
        )


CSV_HEADER = "instance,name,nodes,scc_count,max_pressure,interesting"


def scc_count(g: RawDependenceGraph) -> int:
    """Number of strongly connected components over distance-0 edges."""
    return len(dfg.strongly_connected_components(g))


def original_pressure(g: DataFlowGraph) -> int:
    """Pressure of the declared schedule with everything kept in registers.

    Evaluates the canonical solution: declaration order, one width-1 tile,
    nothing spilled.  This is what the loop needs to avoid memory entirely.
    """
    if not g.nodes:
        return 0
    n = len(g.nodes)
    sol = tiling.TilingSolution(g.node_ids, (n - 1,), (1,), frozenset(), frozenset())
    instance = ProblemInstance("original-pressure", g, 0, 1, 1)
    return tiling.pressure(sol, instance).max_pressure


def classify(instance: ProblemInstance) -> InstanceStats:
    """Bundle node count and original-schedule pressure for one instance.

    A loop is interesting when its unspilled pressure exceeds the register
    limit, because only then can rescheduling or tiling improve reuse.
    Ingestion already condensed SCCs, so the normalized node count equals
    the SCC count of the declared graph.
    """
    press = original_pressure(instance.graph)
    return InstanceStats(
        instance.name, len(instance.graph.nodes), press, press > instance.limit
    )


@dataclass(frozen=True)
class CorpusConfig:
    """Node and edge count ranges for the instance generator (inclusive)."""

    nodes: tuple[int, int] = (3, 5)
    edges: tuple[int, int] = (1, 6)


# Fixed shape of every generated instance (inclusive ranges).
_COMP = (1, 3)
_STATE = (0, 2)
_REG = (1, 2)
_LIMIT_SLACK = (0, 3)
_UNROLL = (1, 6)
_MAX_WIDTH = 4
_ORDERING_EDGE_FRACTION = 0.15
_SHARED_GROUP_FRACTION = 0.25
_DIAGONAL_FRACTION = 0.15


def _random_document(rng: random.Random, index: int, cfg: CorpusConfig) -> dict:
    n = rng.randint(*cfg.nodes)
    ids = [f"S{k}" for k in range(n)]
    comps = [rng.randint(*_COMP) for _ in range(n)]
    states = [rng.randint(*_STATE) for _ in range(n)]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = min(rng.randint(*cfg.edges), len(pairs))
    chosen = sorted(rng.sample(pairs, count))

    by_src: dict[int, list[int]] = {}
    edges = []
    for k, (i, j) in enumerate(chosen):
        if rng.random() < _ORDERING_EDGE_FRACTION:
            reg = 0
        else:
            reg = rng.randint(*_REG)
        variable = f"v{k}"
        # Occasionally reuse an earlier variable from the same source so the
        # edge joins its group (this needs the same reg to stay valid).
        if reg > 0 and by_src.get(i) and rng.random() < _SHARED_GROUP_FRACTION:
            prev = edges[rng.choice(by_src[i])]
            if prev["reg"] > 0:
                variable = prev["variable"]
                reg = prev["reg"]
        distance = 0
        if rng.random() < _DIAGONAL_FRACTION:
            distance = rng.randint(1, 2)
        edges.append(
            {
                "id": f"e{k}",
                "src": ids[i],
                "dst": ids[j],
                "reg": reg,
                "distance": distance,
                "variable": variable,
            }
        )
        by_src.setdefault(i, []).append(k)

    unroll = rng.randint(*_UNROLL)
    return {
        "name": f"gen-{index}",
        "registers": max(comps) + rng.randint(*_LIMIT_SLACK),
        "unroll": unroll,
        "max_width": rng.randint(1, min(_MAX_WIDTH, unroll)),
        "nodes": [
            {"id": ids[k], "comp": comps[k], "state": states[k]} for k in range(n)
        ],
        "edges": edges,
    }


def generate_corpus(
    seed: int, count: int, cfg: CorpusConfig = CorpusConfig()
) -> list[ProblemInstance]:
    """Deterministic pseudo-random instances, all ingest-valid."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        doc = _random_document(rng, i, cfg)
        out.append(dfg.instance_from_document(doc))
    return out
