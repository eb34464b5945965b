"""Independent oracles and random generators shared across tests.

Everything here is deliberately written as straight-line re-derivations of
the definitions (transitive closure, per-point recomputation) so the main
implementations are checked against a second route, not against themselves.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil

from regtile import codegen, dfg, tiling


def reachability_scc_count(g: dfg.RawDependenceGraph) -> int:
    """SCC count via pairwise mutual reachability over a transitive closure."""
    ids = list(g.node_ids)
    n = len(ids)
    idx = {v: i for i, v in enumerate(ids)}
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for e in g.edges:
        if e.distance == 0 and e.src != e.dst:
            reach[idx[e.src]][idx[e.dst]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    seen = set()
    count = 0
    for i in range(n):
        if i in seen:
            continue
        count += 1
        for j in range(n):
            if reach[i][j] and reach[j][i]:
                seen.add(j)
    return count


def random_raw_graph(rng: random.Random, max_nodes: int = 10) -> dfg.RawDependenceGraph:
    """Random directed graph (cycles allowed) with a few carried edges."""
    n = rng.randint(1, max_nodes)
    nodes = tuple(dfg.RawNode(f"N{i}", rng.randint(0, 3)) for i in range(n))
    edges = []
    k = 0
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        distance = rng.choice([0, 0, 0, 1, 2])
        if i == j and distance == 0:
            continue
        edges.append(
            dfg.RawEdge(f"E{k}", f"N{i}", f"N{j}", rng.randint(0, 2), distance, f"w{k}")
        )
        k += 1
    return dfg.RawDependenceGraph(nodes, tuple(edges))


def random_pipeline_graph(rng: random.Random, max_nodes: int = 8) -> dfg.RawDependenceGraph:
    """Random graph accepted by the full normalization pipeline."""
    while True:
        g = random_raw_graph(rng, max_nodes)
        try:
            dfg.normalize(g)
        except dfg.InstanceError:
            continue
        return g


def naive_tile_assignment(sol: tiling.TilingSolution) -> dict[str, int]:
    """Second-route tile membership: the first tile whose point reaches the rank."""
    return {
        v: next(t for t, p in enumerate(sol.tile_points) if p >= r)
        for r, v in enumerate(sol.order)
    }


def random_solution(rng: random.Random, instance: dfg.ProblemInstance) -> tiling.TilingSolution:
    """A structurally valid solution: random topological order, borders,
    widths, and spills (tile-crossing edges always spilled)."""
    g = instance.graph
    n = len(g.nodes)
    if n == 0:
        return tiling.TilingSolution((), (), (), frozenset(), frozenset())

    succ = {v: [] for v in g.node_ids}
    indeg = {v: 0 for v in g.node_ids}
    for e in g.edges:
        succ[e.src].append(e.dst)
        indeg[e.dst] += 1
    ready = [v for v in g.node_ids if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)

    borders = sorted(
        rng.sample(range(n - 1), rng.randint(0, n - 1)) if n > 1 else []
    )
    points = tuple(borders) + (n - 1,)
    widths = tuple(rng.randint(1, instance.max_width) for _ in points)

    sol = tiling.TilingSolution(tuple(order), points, widths, frozenset(), frozenset())
    assign = naive_tile_assignment(sol)
    espill = {
        e.id
        for e in g.edges
        if assign[e.src] != assign[e.dst] or rng.random() < 0.4
    }
    sspill = {nd.id for nd in g.nodes if nd.state > 0 and rng.random() < 0.5}
    return tiling.TilingSolution(tuple(order), points, widths, frozenset(espill), frozenset(sspill))


def naive_pressure(sol: tiling.TilingSolution, instance: dfg.ProblemInstance) -> list[int]:
    """Second-route pressure: recompute every point from the definition."""
    g = instance.graph
    rank = {v: r for r, v in enumerate(sol.order)}
    assign = naive_tile_assignment(sol)
    reserve = sum(nd.state for nd in g.nodes if nd.id not in sol.state_spill)
    out = []
    for j in range(len(sol.order)):
        tile_j = assign[sol.order[j]]
        total = g.node_by_id[sol.order[j]].comp + reserve
        for grp in g.groups:
            crosses = False
            for eid in grp.members:
                e = g.edge_by_id[eid]
                internal = assign[e.src] == assign[e.dst]
                if (
                    internal
                    and eid not in sol.edge_spill
                    and rank[e.src] <= j < rank[e.dst]
                ):
                    crosses = True
            if crosses:
                total += grp.reg * sol.tile_widths[tile_j]
        out.append(total)
    return out


def naive_feasible(
    sol: tiling.TilingSolution, instance: dfg.ProblemInstance
) -> tiling.FeasibilityResult:
    """Second-route feasibility: the model's conditions in the order the
    evaluator reports them (per edge, order before tile crossing; then tile
    widths; then the first point over the limit), on ``naive_pressure``."""
    g = instance.graph
    rank = {v: r for r, v in enumerate(sol.order)}
    assign = naive_tile_assignment(sol)
    for e in g.edges:
        if rank[e.src] >= rank[e.dst]:
            return tiling.FeasibilityResult(False, None, f"order violates edge {e.id!r}")
        if assign[e.src] != assign[e.dst] and e.id not in sol.edge_spill:
            return tiling.FeasibilityResult(
                False, None, f"edge {e.id!r} crosses a tile border but is not spilled"
            )
    for t, w in enumerate(sol.tile_widths):
        if w > instance.max_width:
            return tiling.FeasibilityResult(
                False, None, f"tile {t} width {w} exceeds max_width {instance.max_width}"
            )
    for j, p in enumerate(naive_pressure(sol, instance)):
        if p > instance.limit:
            return tiling.FeasibilityResult(
                False, j, f"pressure {p} exceeds limit {instance.limit} at point {j}"
            )
    return tiling.FeasibilityResult(True)


def naive_cost(sol: tiling.TilingSolution, instance: dfg.ProblemInstance) -> tiling.CostReport:
    """Second-route cost: literal formula evaluation."""
    g = instance.graph
    u = instance.unroll
    assign = naive_tile_assignment(sol)
    stream = sum(g.edge_by_id[eid].reg * u for eid in sol.edge_spill)
    state = 0
    alt = []
    for nd in g.nodes:
        if nd.id in sol.state_spill and nd.state > 0:
            w = sol.tile_widths[assign[nd.id]]
            state += ceil(u / w) * nd.state
            alt.append(
                (nd.id, sum(Fraction(min(s.distance, w) * s.reg, w) for s in nd.sources))
            )
    total = stream + state
    return tiling.CostReport(total, Fraction(total, u), stream, state, tuple(alt))


def naive_uspill(sol: tiling.TilingSolution, instance: dfg.ProblemInstance) -> int:
    return naive_cost(sol, instance).uspill


def naive_interval_releases(program: codegen.ScheduleProgram) -> set[tuple[int, str]]:
    """Second-route register releases: (op index, value) pairs where a
    value's current interval ends, from each value's full event list.

    A use ends an interval exactly when no further use precedes the next
    definition of the same id; a definition at the same op is an in-place
    redefinition (a state chain advancing), which keeps the register.
    """
    events: dict[str, list[tuple[int, bool]]] = {}
    for i, op in enumerate(program.ops):
        if isinstance(op, codegen.LoadOp):
            events.setdefault(op.value, []).append((i, True))
        elif isinstance(op, codegen.StoreOp):
            events.setdefault(op.value, []).append((i, False))
        else:
            for v in op.consumes:
                events.setdefault(v, []).append((i, False))
            for v in op.produces:
                events.setdefault(v, []).append((i, True))
    releases = set()
    for value, evs in events.items():
        for k, (i, is_def) in enumerate(evs):
            if is_def:
                continue
            nxt = evs[k + 1] if k + 1 < len(evs) else None
            if nxt is None or (nxt[1] and nxt[0] > i):
                releases.add((i, value))
    return releases
