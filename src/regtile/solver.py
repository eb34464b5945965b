"""Branch-and-bound search for minimum-spill tilings.

A bespoke finite-domain engine specialized to the tiling model: depth-first
search with 2-way branching over the control variables (node ranks, tile
border points, tile widths, edge and state spill flags), constraint
propagation on bitmask domains, empty-tiles-last symmetry breaking, and an
admissible spill lower bound for pruning against the incumbent.  Every leaf
is validated and scored with the tiling evaluators, so the search can only
ever return what the model itself accepts.  Widths are branched on only
once every border point is fixed, and spill flags only once the geometry
(ranks, points, widths) is fixed, which is why propagation needs no width
or pressure failure test.  Only the two rank rules feed each other, so
only they are iterated to a fixpoint; every other rule runs once per node
(see ``propagate``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum

from . import tiling
from .dfg import ProblemInstance
from .tiling import (
    CostReport,
    TilingSolution,
    _bits,
    _isolated_clusters,
    _max_bit,
    _min_bit,
    _state_charge,
    _tile_of_rank,
)

__all__ = [
    "SolveStatus",
    "SearchConfig",
    "SearchStats",
    "SolveOutcome",
    "solve",
    "propagate",
    "break_symmetry",
]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible-but-unproven"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs; outcomes are deterministic given seed and budgets."""

    seed: int = 0
    time_budget_ms: float | None = None
    node_budget: int = 0
    symmetry_breaking: bool = True


@dataclass(frozen=True)
class SearchStats:
    explored: int
    backtracks: int
    incumbent_updates: int
    wall_ms: float


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    best: TilingSolution | None
    cost: CostReport | None
    stats: SearchStats

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "solution": self.best.to_json_dict() if self.best else None,
            "cost": self.cost.to_json_dict() if self.cost else None,
            "search": {
                "explored": self.stats.explored,
                "backtracks": self.stats.backtracks,
                "incumbent_updates": self.stats.incumbent_updates,
                "wall_ms": self.stats.wall_ms,
            },
        }


class _Model:
    """Static shape of one instance: variable layout and incidence lists.

    Variable indices: ranks [0, n), border points [n, 2n), widths [2n, 3n),
    edge spills [3n, 3n+E), state spills [3n+E, 3n+E+n).  Rank and point
    domains are bitmasks over values 0..n-1, width domains over 1..max_width,
    spill domains over {0, 1}.
    """

    def __init__(self, instance: ProblemInstance):
        g = instance.graph
        self.n = n = len(g.nodes)
        self.node_ids = g.node_ids
        self.comp = [nd.comp for nd in g.nodes]
        self.state = [nd.state for nd in g.nodes]
        self.limit = instance.limit
        self.u = instance.unroll
        self.mw = instance.max_width
        index = {v: i for i, v in enumerate(g.node_ids)}
        self.edges = [(index[e.src], index[e.dst], e.reg, e.id) for e in g.edges]
        self.E = len(self.edges)
        self.groups = [
            (grp.reg, [k for k, e in enumerate(g.edges) if e.group == grp.id])
            for grp in g.groups
        ]
        group_index = {grp.id: gi for gi, grp in enumerate(g.groups)}
        self.group_of_edge = [group_index[e.group] for e in g.edges]

        # Pinning interchangeable isolated nodes to declaration order
        # discards only relabelings of solutions that stay in the space.
        self.order_pairs = [(index[e.src], index[e.dst]) for e in g.edges]
        for members in _isolated_clusters(g):
            ranks = [index[v] for v in members]
            self.order_pairs.extend(zip(ranks, ranks[1:]))
        self.point0 = n
        self.width0 = 2 * n
        self.espill0 = 3 * n
        self.sspill0 = 3 * n + self.E
        self.nvars = 3 * n + self.E + n

        points = list(range(self.point0, self.point0 + n))
        widths = list(range(self.width0, self.width0 + n))
        cons: list[list[int]] = [list(range(n))]
        for si, di, _reg, _eid in self.edges:
            cons.append([si, di])
        for t in range(1, n):
            cons.append([points[t - 1], points[t]])
        for k, (si, di, _reg, _eid) in enumerate(self.edges):
            cons.append([si, di, *points, self.espill0 + k])
        for i in range(n):
            cons.append([i, *points, *widths])
        for i in range(n):
            cons.append([self.sspill0 + i, i, *points, *widths])
        self.constraints = cons

    def initial_domains(self) -> list[int]:
        n = self.n
        full = (1 << n) - 1
        dom = [full] * n
        dom += [full] * (n - 1) + [1 << (n - 1)]
        dom += [((1 << (self.mw + 1)) - 2)] * n
        dom += [0b11] * self.E
        dom += [0b11 if self.state[i] > 0 else 0b01 for i in range(n)]
        return dom


def break_symmetry(model: _Model, dom: list[int]) -> bool:
    """Force unused tiles to the tail: an empty tile may only sit at the end.

    Tile t is empty when points t-1 and t coincide; every later tile must
    then be empty too, which with the fixed final border means the shared
    point is the last rank.  Returns False when a decided empty tile sits
    before a non-empty one.
    """
    n = model.n
    p0 = model.point0
    for t in range(1, n):
        a, b = dom[p0 + t - 1], dom[p0 + t]
        if a == b and a and not a & (a - 1) and _min_bit(a) != n - 1:
            return False
    return True


def propagate(
    model: _Model,
    dom: list[int],
    *,
    symmetry: bool = True,
    incumbent_uspill: int | None = None,
) -> bool:
    """Prune domains; False signals a dead branch.

    Only the rank rules loop to a fixpoint: precedence bounds and
    forward-checking for the rank alldifferent read what each other write,
    and each pass checks that every rank keeps a node.  No later rule
    changes what an earlier one read, so each of the others runs once: the
    non-decreasing border chain (one sweep each way), empty-tiles-last
    symmetry breaking, width canonicalization of known-empty tiles, forced
    spills of edges that must straddle a border, and forced spills of
    states and edges whose keep would overflow a point on the admissible
    pressure lower bound ``press_lb``.  That bound counts only kept flags,
    so the spills it forces leave it unchanged.  With an incumbent cost,
    branches whose spill lower bound reaches it are abandoned.

    The search keeps the invariants that make other failure tests
    unnecessary.  Domains enter non-empty, and the border chain enters at
    its fixpoint but for one branching step.  A constraint holding a width
    holds every point, so ``_select_variable`` decides every point before
    any width, and an empty tile's width is pinned to 1 first.  A spill
    flag sits in one constraint and has a higher index than every rank,
    point and width, so flags are branched on last.  Until then
    ``press_lb`` is the minimum comp, at most ``max_comp`` <= limit; after
    it, every straddling edge is spilled and every keep is checked exactly.
    """
    n = model.n
    if n == 0:
        return True
    p0, w0, e0, s0 = model.point0, model.width0, model.espill0, model.sspill0
    edges = model.edges
    groups = model.groups
    comp = model.comp
    state = model.state
    limit = model.limit
    full = (1 << n) - 1

    changed = True
    while changed:
        changed = False

        for si, di in model.order_pairs:
            ds, dd = dom[si], dom[di]
            nd = dd & ~((2 << ((ds & -ds).bit_length() - 1)) - 1)
            if nd != dd:
                if not nd:
                    return False
                dom[di] = nd
                changed = True
                dd = nd
            ns = ds & ((1 << (dd.bit_length() - 1)) - 1)
            if ns != ds:
                dom[si] = ns
                changed = True

        union = 0
        for i in range(n):
            di = dom[i]
            if not di & (di - 1):
                for j in range(n):
                    if j != i and dom[j] & di:
                        dom[j] &= ~di
                        if not dom[j]:
                            return False
                        changed = True
            union |= dom[i]
        if union != full:
            return False

    for t in range(1, n):
        prev = dom[p0 + t - 1]
        dom[p0 + t] &= ~((prev & -prev) - 1)
    for t in range(n - 2, -1, -1):
        dom[p0 + t] &= (1 << dom[p0 + t + 1].bit_length()) - 1

    if symmetry and not break_symmetry(model, dom):
        return False

    for t in range(1, n):
        a = dom[p0 + t - 1]
        if a == dom[p0 + t] and not a & (a - 1):
            dom[w0 + t] = 0b10

    # Tile interval of each rank from the (monotone) point bounds.
    p_lo = [(dom[p0 + t] & -dom[p0 + t]).bit_length() - 1 for t in range(n)]
    p_hi = [dom[p0 + t].bit_length() - 1 for t in range(n)]
    tile_lo_of_rank = _tile_of_rank(p_hi, n)
    tile_hi_of_rank = _tile_of_rank(p_lo, n)

    for k, (si, di, _reg, _eid) in enumerate(edges):
        hi_s = tile_hi_of_rank[dom[si].bit_length() - 1]
        lo_d = tile_lo_of_rank[(dom[di] & -dom[di]).bit_length() - 1]
        if hi_s < lo_d:
            dom[e0 + k] = 0b10

    # Pressure rules on the admissible per-point lower bound.
    reserve_min = 0
    for i in range(n):
        if dom[s0 + i] == 0b01:
            reserve_min += state[i]

    # After the union check every rank has a candidate node.
    comp_min = [min(comp[i] for i in range(n) if dom[i] >> j & 1) for j in range(n)]

    width_lo = [(dom[w0 + t] & -dom[w0 + t]).bit_length() - 1 for t in range(n)]
    wmin_at = [0] * n
    for j in range(n):
        wmin_at[j] = min(
            width_lo[t] for t in range(tile_lo_of_rank[j], tile_hi_of_rank[j] + 1)
        )

    forced_cross = [0] * len(groups)
    for gi, (_reg, members) in enumerate(groups):
        mask = 0
        for k in members:
            if dom[e0 + k] != 0b01:
                continue
            si, di, _r, _eid = edges[k]
            lo = dom[si].bit_length() - 1
            hi = (dom[di] & -dom[di]).bit_length() - 1
            if lo < hi:
                mask |= (1 << hi) - (1 << lo)
        forced_cross[gi] = mask

    # Never above the limit (see the docstring), so no failure test here.
    press_lb = [0] * n
    for j in range(n):
        press = comp_min[j] + reserve_min
        bit = 1 << j
        for gi, (reg, _members) in enumerate(groups):
            if forced_cross[gi] & bit:
                press += reg * wmin_at[j]
        press_lb[j] = press

    # A state whose keep would overflow some point must spill.
    press_max = max(press_lb)
    for i in range(n):
        if dom[s0 + i] == 0b11 and press_max + state[i] > limit:
            dom[s0 + i] = 0b10

    # An edge whose keep entails a new crossing that overflows must spill.
    for k, (si, di, reg, _eid) in enumerate(edges):
        if dom[e0 + k] != 0b11 or reg == 0:
            continue
        lo = dom[si].bit_length() - 1
        hi = (dom[di] & -dom[di]).bit_length() - 1
        if lo >= hi:
            continue
        gi = model.group_of_edge[k]
        extra = ((1 << hi) - (1 << lo)) & ~forced_cross[gi]
        for j in _bits(extra):
            if press_lb[j] + reg * wmin_at[j] > limit:
                dom[e0 + k] = 0b10
                break

    if incumbent_uspill is not None:
        bound = _cost_lower_bound(model, dom, tile_lo_of_rank, tile_hi_of_rank, press_lb)
        if bound >= incumbent_uspill:
            return False
    return True


def _cost_lower_bound(model, dom, tile_lo_of_rank, tile_hi_of_rank, press_lb) -> int:
    """Admissible spill lower bound for the current domains.

    Counts decided spill flags at their cheapest possible charge, plus a
    joint term: if keeping every undecided state would overflow some point
    by E register-units, at least E units of state must spill, each costing
    at least one load per tile repetition, i.e. ceil(unroll/max_width).
    """
    n, u = model.n, model.u
    e0, s0, w0 = model.espill0, model.sspill0, model.width0
    lb = 0
    for k, (_si, _di, reg, _eid) in enumerate(model.edges):
        if dom[e0 + k] == 0b10:
            lb += reg * u
    undecided_state = 0
    for i in range(n):
        flag = dom[s0 + i]
        if flag == 0b11:
            undecided_state += model.state[i]
        if flag != 0b10:
            continue
        tlo = tile_lo_of_rank[_min_bit(dom[i])]
        thi = tile_hi_of_rank[_max_bit(dom[i])]
        wmax = max(_max_bit(dom[w0 + t]) for t in range(tlo, thi + 1))
        lb += _state_charge(u, wmax, model.state[i])
    if undecided_state:
        excess = max(press_lb) + undecided_state - model.limit
        if excess > 0:
            lb += _state_charge(u, model.mw, min(excess, undecided_state))
    return lb


def _select_variable(model, dom) -> int | None:
    """Dynamic most-constrained choice, ties by fixed variable index."""
    undecided = [d & (d - 1) != 0 for d in dom]
    if not any(undecided):
        return None
    score = [0] * model.nvars
    for c in model.constraints:
        cnt = 0
        for v in c:
            if undecided[v]:
                cnt += 1
        if cnt >= 2:
            for v in c:
                if undecided[v]:
                    score[v] += 1
    best = None
    best_score = -1
    for v in range(model.nvars):
        if undecided[v] and score[v] > best_score:
            best = v
            best_score = score[v]
    return best


def _choose_value(model, dom, var, rng) -> int:
    mask = dom[var]
    if var < model.point0:
        bits = list(_bits(mask))
        return bits[rng.randrange(len(bits))]
    if var < model.espill0:
        return _max_bit(mask)
    return _min_bit(mask)


def _leaf_solution(model, dom) -> TilingSolution:
    n = model.n
    order = [""] * n
    for i in range(n):
        order[_min_bit(dom[i])] = model.node_ids[i]
    points = tuple(_min_bit(dom[model.point0 + t]) for t in range(n))
    widths = tuple(_min_bit(dom[model.width0 + t]) for t in range(n))
    espill = frozenset(
        eid
        for k, (_s, _d, _r, eid) in enumerate(model.edges)
        if dom[model.espill0 + k] == 0b10
    )
    sspill = frozenset(
        model.node_ids[i] for i in range(n) if dom[model.sspill0 + i] == 0b10
    )
    return TilingSolution(tuple(order), points, widths, espill, sspill)


def solve(instance: ProblemInstance, cfg: SearchConfig = SearchConfig()) -> SolveOutcome:
    """Minimize per-iteration spill over all tilings of the instance.

    Returns OPTIMAL when the search space is exhausted, FEASIBLE with the
    best incumbent when a budget runs out first, and INFEASIBLE when the
    register limit cannot even hold the largest macro-instruction.  The
    all-spill singleton tiling seeds the incumbent, so a feasible instance
    always yields a witness.
    """
    start = time.monotonic()

    def done(status, best, rep, explored=0, backtracks=0, updates=0):
        wall = (time.monotonic() - start) * 1000.0
        return SolveOutcome(status, best, rep, SearchStats(explored, backtracks, updates, wall))

    if not instance.graph.nodes:
        sol = TilingSolution((), (), (), frozenset(), frozenset())
        return done(SolveStatus.OPTIMAL, sol, tiling.cost(sol, instance))
    if instance.limit < instance.max_comp:
        return done(SolveStatus.INFEASIBLE, None, None)

    incumbent = tiling.all_spill_solution(instance)
    if not tiling.feasible(incumbent, instance).ok:
        raise RuntimeError(
            "the all-spill tiling is infeasible although the limit covers every comp"
        )
    incumbent_rep = tiling.cost(incumbent, instance)

    model = _Model(instance)
    rng = random.Random(cfg.seed)
    deadline = (
        start + cfg.time_budget_ms / 1000.0 if cfg.time_budget_ms is not None else None
    )

    explored = 0
    backtracks = 0
    updates = 0
    budget_hit = False
    stack = [model.initial_domains()]

    while stack:
        if cfg.node_budget and explored >= cfg.node_budget:
            budget_hit = True
            break
        if deadline is not None and time.monotonic() > deadline:
            budget_hit = True
            break
        dom = stack.pop()
        explored += 1
        if not propagate(
            model,
            dom,
            symmetry=cfg.symmetry_breaking,
            incumbent_uspill=incumbent_rep.uspill,
        ):
            backtracks += 1
            continue
        var = _select_variable(model, dom)
        if var is None:
            sol = _leaf_solution(model, dom)
            if tiling.feasible(sol, instance).ok:
                rep = tiling.cost(sol, instance)
                if rep.uspill < incumbent_rep.uspill:
                    incumbent, incumbent_rep = sol, rep
                    updates += 1
            backtracks += 1
            continue
        val = _choose_value(model, dom, var, rng)
        rest = dom.copy()
        rest[var] &= ~(1 << val)
        if rest[var]:
            stack.append(rest)
        dom[var] = 1 << val
        stack.append(dom)

    status = SolveStatus.FEASIBLE if budget_hit else SolveStatus.OPTIMAL
    if not tiling.feasible(incumbent, instance).ok:
        raise RuntimeError("the solver's incumbent is infeasible")
    return done(status, incumbent, incumbent_rep, explored, backtracks, updates)
