"""Tiling solutions and their exact evaluation.

A tiling of an unrolled loop body picks a linear order of the nodes, cuts
the order into tiles, gives every tile a replication width, and decides
which values go through memory.  This module owns the semantics: tile
membership, which points each value group crosses, the register pressure
at every point, feasibility against the register limit, and the exact
per-iteration spill cost.  Everything here is pure and usable on infeasible
solutions too, so candidates can be scored independently of the pressure
model.

``CompiledInstance`` holds an instance's graph as index arrays (node comp
and state vectors, the total state, and each edge's source, destination,
reg and group index), built once per instance and cached on it.  It holds
the one implementation of point pressure; ``pressure`` and ``feasible``
map a ``TilingSolution`` onto it, and the oracle screens its candidates on
it directly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dfg import DataFlowGraph, ProblemInstance

__all__ = [
    "TilingSolution",
    "PressureProfile",
    "CostReport",
    "FeasibilityResult",
    "pressure",
    "feasible",
    "cost",
    "all_spill_solution",
    "canonical_key",
]


@dataclass(frozen=True)
class TilingSolution:
    """Node order, tile borders, tile widths, and spill flags.

    ``tile_points[t]`` is the rank of the last node owned by tile ``t``
    (with an implicit sentinel of -1 before tile 0), so tile ``t`` owns the
    ranks in ``(tile_points[t-1], tile_points[t]]``.  The final entry must
    equal the last rank; empty tiles repeat their predecessor's point and
    have their width normalized to 1 so equality is canonical.
    """

    order: tuple[str, ...]
    tile_points: tuple[int, ...]
    tile_widths: tuple[int, ...]
    edge_spill: frozenset[str]
    state_spill: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "tile_points", tuple(self.tile_points))
        object.__setattr__(self, "edge_spill", frozenset(self.edge_spill))
        object.__setattr__(self, "state_spill", frozenset(self.state_spill))
        points = self.tile_points
        widths = tuple(self.tile_widths)
        if len(points) != len(widths):
            raise ValueError("tile_points and tile_widths must have equal length")
        if len(set(self.order)) != len(self.order):
            raise ValueError("order contains duplicate node ids")
        last = len(self.order) - 1
        norm = []
        prev = -1
        for p, w in zip(points, widths):
            if p < prev:
                raise ValueError("tile_points must be non-decreasing")
            if not -1 <= p <= last:
                raise ValueError(f"tile point {p} out of range [-1, {last}]")
            if w < 1:
                raise ValueError("tile widths must be >= 1")
            norm.append(1 if p == prev else w)
            prev = p
        if self.order and (not points or points[-1] != last):
            raise ValueError(f"final tile point must be {last}")
        object.__setattr__(self, "tile_widths", tuple(norm))

    @cached_property
    def rank(self) -> dict[str, int]:
        return {v: r for r, v in enumerate(self.order)}

    @cached_property
    def tile_of_rank(self) -> tuple[int, ...]:
        return _tile_of_rank(self.tile_points, len(self.order))

    def to_json_dict(self) -> dict:
        return {
            "order": list(self.order),
            "tile_points": list(self.tile_points),
            "tile_widths": list(self.tile_widths),
            "spill_edges": sorted(self.edge_spill),
            "spill_states": sorted(self.state_spill),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TilingSolution":
        """Read a solution document; ValueError when a key is missing or is
        not a list of the expected element type."""
        if not isinstance(doc, dict):
            raise ValueError("solution document must be a JSON object")
        for key in ("order", "tile_points", "tile_widths"):
            if key not in doc:
                raise ValueError(f"solution document missing {key!r}")
        for key, kind in _SOLUTION_FIELDS.items():
            val = doc.get(key, [])
            if not isinstance(val, list) or not all(
                isinstance(x, kind) and not isinstance(x, bool) for x in val
            ):
                raise ValueError(f"{key!r} must be a list of {kind.__name__}")
        return cls(
            tuple(doc["order"]),
            tuple(doc["tile_points"]),
            tuple(doc["tile_widths"]),
            frozenset(doc.get("spill_edges", ())),
            frozenset(doc.get("spill_states", ())),
        )


_SOLUTION_FIELDS = {
    "order": str,
    "tile_points": int,
    "tile_widths": int,
    "spill_edges": str,
    "spill_states": str,
}


# Helpers shared with the solver and the oracle; kept out of ``__all__``
# because they are inner-loop code, not entry points.


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _max_bit(mask: int) -> int:
    return mask.bit_length() - 1


def _tile_of_rank(points, count: int) -> tuple[int, ...]:
    """Tile owning each rank below ``count`` (``points`` non-decreasing)."""
    return tuple(bisect_left(points, r) for r in range(count))


def _state_charge(unroll: int, width: int, state: int) -> int:
    """Loads of a spilled state: ceil(unroll / width) tile repetitions."""
    return -(-unroll // width) * state


def _isolated_clusters(graph: DataFlowGraph) -> list[list[str]]:
    """Edge-free nodes grouped by equal (comp, state), in declaration order.

    Permuting one cluster's members maps every tiling to one of equal cost
    and pressure, so a search may pin each cluster to a fixed order.
    """
    touched = {e.src for e in graph.edges} | {e.dst for e in graph.edges}
    clusters: dict[tuple[int, int], list[str]] = {}
    for nd in graph.nodes:
        if nd.id not in touched:
            clusters.setdefault((nd.comp, nd.state), []).append(nd.id)
    return list(clusters.values())


def canonical_key(sol: TilingSolution) -> str:
    """Canonical serialization used for deterministic tie-breaking."""
    return json.dumps(sol.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class PressureProfile:
    """Register pressure at every point (point j sits after rank j)."""

    points: tuple[int, ...]

    @property
    def max_pressure(self) -> int:
        return max(self.points, default=0)


@dataclass(frozen=True)
class CostReport:
    """Load cost of a tiling: total over the unrolled body and per iteration.

    ``state_charge_alt`` reports, per spilled node, the per-iteration charge
    under the distance-aware accounting min(distance, width) * size / width;
    the normalized formula used in ``uspill`` can overcharge states whose
    original distance exceeds the tile width, and this field makes the gap
    visible.
    """

    uspill: int
    spill: Fraction
    stream_cost: int
    state_cost: int
    state_charge_alt: tuple[tuple[str, Fraction], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "uspill": self.uspill,
            "spill": str(self.spill),
            "spill_float": float(self.spill),
            "stream_cost": self.stream_cost,
            "state_cost": self.state_cost,
            "state_charge_alt": {v: str(f) for v, f in self.state_charge_alt},
        }


@dataclass(frozen=True)
class FeasibilityResult:
    ok: bool
    violated_point: int | None = None
    reason: str | None = None


def _check_solution(sol: TilingSolution, graph: DataFlowGraph) -> None:
    if set(sol.order) != set(graph.node_ids):
        raise ValueError("solution order is not a permutation of the instance nodes")
    unknown = sol.edge_spill - set(graph.edge_by_id)
    if unknown:
        raise ValueError(f"unknown edge ids in spill set: {sorted(unknown)}")
    unknown = sol.state_spill - set(graph.node_by_id)
    if unknown:
        raise ValueError(f"unknown node ids in spill set: {sorted(unknown)}")


class CompiledInstance:
    """An instance's graph as index arrays, for scoring many tilings.

    Nodes are numbered in declaration order, edges in ``graph.edges`` order
    and value groups in ``graph.groups`` order.  ``pressure`` is the one
    definition of the model's point pressure, with ``crossing_regs`` the
    register demand of the values live across each point: ``points``
    evaluates both for a whole solution in index form, and the oracle calls
    them directly with spans, widths and crossings it reuses across many
    candidates.  Get the form with ``CompiledInstance.of``, which builds it
    once per instance.
    """

    __slots__ = (
        "node_index", "edge_index", "comp", "state", "total_state",
        "edge_src", "edge_dst", "edge_reg", "edge_group", "group_reg",
    )

    def __init__(self, graph: DataFlowGraph):
        self.node_index = {nd.id: i for i, nd in enumerate(graph.nodes)}
        self.edge_index = {e.id: i for i, e in enumerate(graph.edges)}
        self.comp = tuple(nd.comp for nd in graph.nodes)
        self.state = tuple(nd.state for nd in graph.nodes)
        self.total_state = graph.total_state
        group_index = {g.id: k for k, g in enumerate(graph.groups)}
        self.group_reg = tuple(g.reg for g in graph.groups)
        self.edge_src = tuple(self.node_index[e.src] for e in graph.edges)
        self.edge_dst = tuple(self.node_index[e.dst] for e in graph.edges)
        self.edge_reg = tuple(e.reg for e in graph.edges)
        self.edge_group = tuple(group_index[e.group] for e in graph.edges)

    @classmethod
    def of(cls, instance: ProblemInstance) -> "CompiledInstance":
        """The instance's compiled form, built on first use and kept in the
        instance's ``__dict__`` (as ``functools.cached_property`` keeps its
        values), so it is shared by every caller and freed with the
        instance."""
        cache = instance.__dict__
        compiled = cache.get("_compiled")
        if compiled is None:
            compiled = cache["_compiled"] = cls(instance.graph)
        return compiled

    def spans(self, rank) -> list[int]:
        """Per edge, the bitmask of the points [rank src, rank dst) its
        value is live across; 0 for an edge whose order is violated.
        ``rank[i]`` is the rank of node ``i``."""
        return [
            (1 << rank[d]) - (1 << rank[s]) if rank[s] < rank[d] else 0
            for s, d in zip(self.edge_src, self.edge_dst)
        ]

    def crossing_regs(self, spans, kept) -> list[int]:
        """Per point, the summed reg of the groups that have an edge in
        ``kept`` whose span covers the point.  ``kept`` holds the indices
        of the edges whose values stay in registers inside their tile; a
        group is charged once however many of its edges cover the point."""
        masks = [0] * len(self.group_reg)
        edge_group = self.edge_group
        for i in kept:
            masks[edge_group[i]] |= spans[i]
        regs = [0] * len(self.comp)
        for reg, mask in zip(self.group_reg, masks):
            while mask:
                low = mask & -mask
                regs[low.bit_length() - 1] += reg
                mask ^= low
        return regs

    @staticmethod
    def pressure(comp_at, reserve: int, width_at, crossing) -> list[int]:
        """Register pressure at every point (point j sits after rank j).

        Point j charges ``comp_at[j]`` (the comp of the rank-j node), plus
        ``reserve`` (the states kept in registers across iterations), plus
        ``crossing[j]`` (see ``crossing_regs``) times ``width_at[j]``, the
        width of the tile owning rank j.
        """
        return [c + reserve + w * x for c, w, x in zip(comp_at, width_at, crossing)]

    def points(self, rank, tile_of_rank, width_at, edge_spill, state_spill) -> list[int]:
        """Pressure of a solution given in index form: ``rank`` per node,
        the tile and width at each rank, and the sets of spilled edge and
        node indices.  An edge is kept when it is unspilled, its order is
        respected and both its ends sit in one tile (a spilled value waits
        in memory)."""
        order = [0] * len(rank)
        for i, r in enumerate(rank):
            order[r] = i
        comp = self.comp
        state = self.state
        kept = [
            i
            for i, (s, d) in enumerate(zip(self.edge_src, self.edge_dst))
            if i not in edge_spill and tile_of_rank[rank[s]] == tile_of_rank[rank[d]]
        ]
        return self.pressure(
            [comp[i] for i in order],
            self.total_state - sum(state[i] for i in state_spill),
            width_at,
            self.crossing_regs(self.spans(rank), kept),
        )


def _pressure_points(sol: TilingSolution, instance: ProblemInstance) -> list[int]:
    """Map a solution onto ``CompiledInstance.points``."""
    c = CompiledInstance.of(instance)
    rank = sol.rank
    widths = sol.tile_widths
    tiles = sol.tile_of_rank
    return c.points(
        [rank[v] for v in instance.graph.node_ids],
        tiles,
        [widths[t] for t in tiles],
        {c.edge_index[eid] for eid in sol.edge_spill},
        {c.node_index[v] for v in sol.state_spill},
    )


def pressure(sol: TilingSolution, instance: ProblemInstance) -> PressureProfile:
    """Register pressure profile of a solution.

    Point j charges the comp of the rank-j node, plus the reserve (states
    kept in registers across iterations), plus each crossing group's size
    scaled by the width of the tile the point belongs to.
    """
    _check_solution(sol, instance.graph)
    return PressureProfile(tuple(_pressure_points(sol, instance)))


def feasible(sol: TilingSolution, instance: ProblemInstance) -> FeasibilityResult:
    """Check a solution against the model's validity conditions.

    The order must respect every edge, widths must not exceed the cap,
    every tile-crossing edge must be spilled, and no point may exceed the
    register limit.  Returns the first violated point for pressure failures.
    """
    graph = instance.graph
    _check_solution(sol, graph)
    rank = sol.rank
    tiles = sol.tile_of_rank
    for e in graph.edges:
        rs, rd = rank[e.src], rank[e.dst]
        if rs >= rd:
            return FeasibilityResult(False, None, f"order violates edge {e.id!r}")
        if tiles[rs] != tiles[rd] and e.id not in sol.edge_spill:
            return FeasibilityResult(
                False, None, f"edge {e.id!r} crosses a tile border but is not spilled"
            )
    for t, w in enumerate(sol.tile_widths):
        if w > instance.max_width:
            return FeasibilityResult(
                False, None, f"tile {t} width {w} exceeds max_width {instance.max_width}"
            )
    press = _pressure_points(sol, instance)
    for j, p in enumerate(press):
        if p > instance.limit:
            return FeasibilityResult(
                False, j, f"pressure {p} exceeds limit {instance.limit} at point {j}"
            )
    return FeasibilityResult(True)


def cost(sol: TilingSolution, instance: ProblemInstance) -> CostReport:
    """Exact spill cost of a solution (defined even when infeasible).

    Every spilled edge reloads its value in each unrolled column; every
    spilled state reloads once per repetition of its tile, i.e.
    ceil(unroll / width) times.  ``spill`` is uspill/unroll as an exact
    rational.
    """
    graph = instance.graph
    _check_solution(sol, graph)
    u = instance.unroll
    stream = sum(graph.edge_by_id[eid].reg for eid in sol.edge_spill) * u
    rank = sol.rank
    tiles = sol.tile_of_rank
    state = 0
    alt = []
    for n in graph.nodes:
        if n.id not in sol.state_spill or n.state == 0:
            continue
        w = sol.tile_widths[tiles[rank[n.id]]]
        state += _state_charge(u, w, n.state)
        charge = sum(
            Fraction(min(s.distance, w) * s.reg, w) for s in n.sources
        )
        alt.append((n.id, charge))
    uspill = stream + state
    return CostReport(uspill, Fraction(uspill, u), stream, state, tuple(alt))


def all_spill_solution(instance: ProblemInstance) -> TilingSolution:
    """Width-1 singleton tiles, everything spilled: the universal fallback.

    Feasible whenever the register limit covers the largest comp, with cost
    unroll * (sum of edge regs + sum of states).
    """
    ids = instance.graph.node_ids
    n = len(ids)
    return TilingSolution(
        ids,
        tuple(range(n)),
        (1,) * n,
        frozenset(e.id for e in instance.graph.edges),
        frozenset(nd.id for nd in instance.graph.nodes if nd.state > 0),
    )
