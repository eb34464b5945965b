"""Brute-force reference optimizer for small instances.

Enumerates every tiling in the model's search space - topological orders,
border placements, width vectors, and spill subsets consistent with forced
spills - cheapest first.  Each candidate is screened on the instance's
compiled form (``tiling.CompiledInstance``, the same pressure definition
the public evaluators use), with its spans, per-rank widths and crossing
registers reused across the candidates that share them; only a candidate
that fits the register limit becomes a ``TilingSolution``, and every new
incumbent is re-checked by the reference ``tiling.feasible`` and
``tiling.cost``, so the ground truth cannot drift from the model
semantics.  The oracle shares the evaluator, never the solver's search.
Exponential by nature; refuses instances beyond a small node cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import tiling
from .dfg import ProblemInstance
from .tiling import (
    CompiledInstance,
    CostReport,
    TilingSolution,
    _isolated_clusters,
    _state_charge,
    _tile_of_rank,
)

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
    """Yield (total, chosen-bitmask) over all subsets, cheapest first; bit
    i of the mask chooses item i.

    Standard lazy enumeration: items sorted ascending; a heap state extends
    with the next item or swaps its last item for the next, which reaches
    every subset exactly once in non-decreasing total order (equal totals
    in lexicographic order of their sorted-position tuples).
    """
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    sorted_costs = [costs[i] for i in order]
    bit = [1 << i for i in order]
    k = len(order)
    yield 0, 0
    if not k:
        return
    heap = [(sorted_costs[0], (0,), bit[0])]
    while heap:
        total, chosen, mask = heapq.heappop(heap)
        yield total, mask
        last = chosen[-1]
        nxt = last + 1
        if nxt < k:
            heapq.heappush(heap, (total + sorted_costs[nxt], chosen + (nxt,), mask | bit[nxt]))
            heapq.heappush(
                heap,
                (
                    total - sorted_costs[last] + sorted_costs[nxt],
                    chosen[:-1] + (nxt,),
                    mask ^ bit[last] ^ bit[nxt],
                ),
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
    limit = instance.limit
    c = CompiledInstance.of(instance)
    edge_ids = [e.id for e in graph.edges]
    edge_reg = c.edge_reg
    node_ids = graph.node_ids
    state_nodes = [i for i, s in enumerate(c.state) if s > 0]

    # Pinning each cluster of interchangeable isolated nodes to
    # ascending-id order drops only relabelings, and the relabeling with
    # ascending ids always has the lexicographically smallest serialization,
    # so the reported optimum and tie-break are unchanged.
    order_arcs = [(e.src, e.dst) for e in graph.edges]
    for members in _isolated_clusters(graph):
        members.sort()
        order_arcs.extend(zip(members, members[1:]))

    # The all-spill singleton tiling is itself a member of the enumeration
    # space; starting from it lets the cost bound prune from the first
    # geometry without affecting the optimum or the tie-break.
    seed = tiling.all_spill_solution(instance)
    if not tiling.feasible(seed, instance).ok:
        raise RuntimeError(
            "the all-spill tiling is infeasible although the limit covers every comp"
        )
    best_rep = tiling.cost(seed, instance)
    best_key = tiling.canonical_key(seed)
    best = seed
    candidates = 1

    # Reserve left by each subset of ``state_nodes`` spilled (bit k spills
    # ``state_nodes[k]``).
    reserve_of = [
        c.total_state - sum(c.state[v] for k, v in enumerate(state_nodes) if spilled >> k & 1)
        for spilled in range(1 << len(state_nodes))
    ]

    for order in _topological_orders(node_ids, order_arcs):
        rank = [0] * n
        for r, v in enumerate(order):
            rank[c.node_index[v]] = r
        comp_at = [c.comp[c.node_index[v]] for v in order]
        spans = c.spans(rank)

        for border_bits in range(1 << (n - 1)):
            forced = [i for i, m in enumerate(spans) if m & border_bits]
            forced_cost = sum(edge_reg[i] for i in forced) * u
            if forced_cost > best_rep.uspill:
                continue

            points = [p for p in range(n - 1) if border_bits >> p & 1] + [n - 1]
            tiles = len(points)
            # Reg-0 edges inside a tile add no pressure and cost nothing,
            # so they are never spilled.
            free = [
                i for i, m in enumerate(spans) if not m & border_bits and edge_reg[i] > 0
            ]
            nfree = len(free)
            free_mask = (1 << nfree) - 1
            free_costs = [edge_reg[i] * u for i in free]
            tile_of_rank = _tile_of_rank(points, n)
            # Crossing registers per subset of ``free`` spilled; they do not
            # depend on the widths.
            crossing_of: dict[int, list[int]] = {}

            for widths in product(range(mw, 0, -1), repeat=tiles):
                width_at = [widths[t] for t in tile_of_rank]
                # Item k < nfree spills edge ``free[k]``, item nfree + k the
                # state of ``state_nodes[k]``.
                item_costs = free_costs + [
                    _state_charge(u, width_at[rank[v]], c.state[v]) for v in state_nodes
                ]
                for extra, chosen in _subsets_by_cost(item_costs):
                    total = forced_cost + extra
                    if total > best_rep.uspill:
                        break
                    candidates += 1
                    # Screen on the compiled form: only a candidate that
                    # fits the limit becomes a TilingSolution.
                    spilled = chosen & free_mask
                    crossing = crossing_of.get(spilled)
                    if crossing is None:
                        kept = [i for k, i in enumerate(free) if not spilled >> k & 1]
                        crossing = crossing_of[spilled] = c.crossing_regs(spans, kept)
                    press = c.pressure(comp_at, reserve_of[chosen >> nfree], width_at, crossing)
                    if max(press) > limit:
                        continue
                    espill = {edge_ids[i] for i in forced}
                    espill.update(edge_ids[i] for k, i in enumerate(free) if spilled >> k & 1)
                    sspill = {
                        node_ids[v] for k, v in enumerate(state_nodes) if chosen >> (nfree + k) & 1
                    }
                    sol = TilingSolution(
                        order, tuple(points), widths, frozenset(espill), frozenset(sspill)
                    )
                    # Every feasible candidate that gets past the key test
                    # is cheaper, or equal in cost with a smaller key.
                    key = None
                    if total == best_rep.uspill:
                        key = tiling.canonical_key(sol)
                        if key >= best_key:
                            continue
                    # Every new incumbent is re-checked by the reference
                    # evaluators on the TilingSolution itself.
                    if not tiling.feasible(sol, instance).ok:
                        raise RuntimeError("compiled screen passed an infeasible tiling")
                    rep = tiling.cost(sol, instance)
                    if rep.uspill != total:
                        raise RuntimeError(
                            f"enumeration cost {total} drifted from evaluator cost {rep.uspill}"
                        )
                    best, best_rep = sol, rep
                    best_key = key if key is not None else tiling.canonical_key(sol)

    return OracleResult(best_rep.spill, best_rep.uspill, best, best_rep, candidates)
