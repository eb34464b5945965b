"""Brute-force reference optimizer for small instances.

Enumerates every tiling in the model's search space - topological orders,
border placements, width vectors, and spill subsets consistent with forced
spills - and scores each candidate with the tiling evaluators themselves,
so the ground truth cannot drift from the model semantics.  Exponential by
nature; refuses instances beyond a small node cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import tiling
from .dfg import ProblemInstance
from .tiling import CostReport, TilingSolution, _isolated_clusters, _state_charge, _tile_of_rank

__all__ = [
    "OracleResult",
    "InstanceTooLargeError",
    "NoFeasibleSolutionError",
    "brute_force",
]

MAX_NODES = 7


class InstanceTooLargeError(ValueError):
    """The instance exceeds the enumeration cap."""


class NoFeasibleSolutionError(ValueError):
    """No tiling can satisfy the register limit (limit < max comp)."""


@dataclass(frozen=True)
class OracleResult:
    spill: Fraction
    uspill: int
    witness: TilingSolution
    cost: CostReport
    candidates: int

    def to_json_dict(self) -> dict:
        return {
            "spill": str(self.spill),
            "uspill": self.uspill,
            "witness": self.witness.to_json_dict(),
            "cost": self.cost.to_json_dict(),
            "candidates": self.candidates,
        }


def _topological_orders(node_ids, edges):
    """All topological orders, in lexicographic declaration-index order."""
    preds = {v: set() for v in node_ids}
    for src, dst in edges:
        preds[dst].add(src)

    def extend(prefix, placed):
        if len(prefix) == len(node_ids):
            yield prefix
        for v in node_ids:
            if v not in placed and preds[v] <= placed:
                yield from extend(prefix + (v,), placed | {v})

    return extend((), frozenset())


def _subsets_by_cost(costs: list[int]):
    """Yield (total, chosen-index-tuple) over all subsets, cheapest first.

    Standard lazy enumeration: items sorted ascending; a heap state extends
    with the next item or swaps its last item for the next, which reaches
    every subset exactly once in non-decreasing total order.
    """
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    sorted_costs = [costs[i] for i in order]
    k = len(order)
    yield 0, ()
    if not k:
        return
    heap = [(sorted_costs[0], (0,))]
    while heap:
        total, chosen = heapq.heappop(heap)
        yield total, tuple(order[i] for i in chosen)
        last = chosen[-1]
        if last + 1 < k:
            heapq.heappush(heap, (total + sorted_costs[last + 1], chosen + (last + 1,)))
            heapq.heappush(
                heap,
                (total - sorted_costs[last] + sorted_costs[last + 1], chosen[:-1] + (last + 1,)),
            )


def brute_force(instance: ProblemInstance, *, max_nodes: int = MAX_NODES) -> OracleResult:
    """Exhaustive minimum-spill search; ties break on canonical serialization."""
    graph = instance.graph
    n = len(graph.nodes)
    if n > max_nodes:
        raise InstanceTooLargeError(
            f"{n} nodes exceed the enumeration cap of {max_nodes}"
        )
    if n == 0:
        sol = TilingSolution((), (), (), frozenset(), frozenset())
        rep = tiling.cost(sol, instance)
        return OracleResult(rep.spill, rep.uspill, sol, rep, 1)
    if instance.limit < instance.max_comp:
        raise NoFeasibleSolutionError(
            f"register limit {instance.limit} is below the largest comp "
            f"{instance.max_comp}"
        )

    u = instance.unroll
    mw = instance.max_width
    edges = graph.edges
    state_nodes = [nd for nd in graph.nodes if nd.state > 0]

    # Pinning each cluster of interchangeable isolated nodes to
    # ascending-id order drops only relabelings, and the relabeling with
    # ascending ids always has the lexicographically smallest serialization,
    # so the reported optimum and tie-break are unchanged.
    order_arcs = [(e.src, e.dst) for e in edges]
    for members in _isolated_clusters(graph):
        members.sort()
        order_arcs.extend(zip(members, members[1:]))

    # The all-spill singleton tiling is itself a member of the enumeration
    # space; starting from it lets the cost bound prune from the first
    # geometry without affecting the optimum or the tie-break.
    seed = tiling.all_spill_solution(instance)
    assert tiling.feasible(seed, instance).ok
    best_rep = tiling.cost(seed, instance)
    best_key = tiling.canonical_key(seed)
    best = seed
    candidates = 1

    for order in _topological_orders(graph.node_ids, order_arcs):
        rank = {v: r for r, v in enumerate(order)}
        cross_mask = []
        for e in edges:
            rs, rd = rank[e.src], rank[e.dst]
            cross_mask.append((1 << rd) - (1 << rs))

        for border_bits in range(1 << (n - 1)):
            forced = [
                e.id for e, m in zip(edges, cross_mask) if m & border_bits
            ]
            forced_cost = sum(graph.edge_by_id[eid].reg for eid in forced) * u
            if forced_cost > best_rep.uspill:
                continue

            points = [p for p in range(n - 1) if border_bits >> p & 1] + [n - 1]
            tiles = len(points)
            free_edges = [
                e for e, m in zip(edges, cross_mask)
                if not m & border_bits and e.reg > 0
            ]
            tile_of_rank = _tile_of_rank(points, n)

            for widths in product(range(mw, 0, -1), repeat=tiles):
                items = [(e.id, False, e.reg * u) for e in free_edges] + [
                    (
                        nd.id,
                        True,
                        _state_charge(u, widths[tile_of_rank[rank[nd.id]]], nd.state),
                    )
                    for nd in state_nodes
                ]
                item_costs = [c for _, _, c in items]
                for extra, chosen in _subsets_by_cost(item_costs):
                    total = forced_cost + extra
                    if total > best_rep.uspill:
                        break
                    candidates += 1
                    espill = set(forced)
                    sspill = set()
                    for i in chosen:
                        vid, is_state, _c = items[i]
                        (sspill if is_state else espill).add(vid)
                    sol = TilingSolution(
                        order,
                        tuple(points),
                        widths,
                        frozenset(espill),
                        frozenset(sspill),
                    )
                    # Every feasible candidate that gets past the key test
                    # is cheaper, or equal in cost with a smaller key.
                    key = None
                    if total == best_rep.uspill:
                        key = tiling.canonical_key(sol)
                        if key >= best_key:
                            continue
                    if not tiling.feasible(sol, instance).ok:
                        continue
                    rep = tiling.cost(sol, instance)
                    assert rep.uspill == total, "enumeration cost drifted from evaluator"
                    best, best_rep = sol, rep
                    best_key = key if key is not None else tiling.canonical_key(sol)

    return OracleResult(best_rep.spill, best_rep.uspill, best, best_rep, candidates)
