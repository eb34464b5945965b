"""Reference load costs: the naive schedule and register pipelining.

The naive cost reloads every inter-iteration value each iteration; register
pipelining greedily promotes whole state pipelines into spare registers
without reordering or unrolling anything.  Both exist to be compared
against the tiling optimizer's per-iteration spill.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dfg import DataFlowGraph

__all__ = ["BaselineReport", "naive_cost", "register_pipelining", "savings_percent"]


@dataclass(frozen=True)
class BaselineReport:
    naive_loads: int
    pipelined_loads: int
    promoted: tuple[str, ...]
    budget_used: int

    def to_json_dict(self) -> dict:
        return {
            "naive_loads": self.naive_loads,
            "pipelined_loads": self.pipelined_loads,
            "promoted": list(self.promoted),
            "budget_used": self.budget_used,
        }


def naive_cost(g: DataFlowGraph) -> int:
    """Loads per iteration when every inter-iteration value is reloaded."""
    return g.total_state


def register_pipelining(g: DataFlowGraph, budget: int) -> BaselineReport:
    """Promote state pipelines into ``budget`` spare registers, greedily.

    Promoting a node pins its whole pipeline (``state`` registers) but only
    saves the per-iteration footprint of the carried values, which is
    state/distance per source when provenance is known and ``state``
    otherwise.  Candidates are taken in descending saving-per-register
    order, ties by node id, first fit.
    """
    naive = naive_cost(g)
    candidates = []
    for n in g.nodes:
        if n.state == 0:
            continue
        saving = sum(s.reg for s in n.sources) if n.sources else n.state
        candidates.append((-Fraction(saving, n.state), n.id, saving, n.state))
    candidates.sort()

    promoted = []
    saved = 0
    used = 0
    for _ratio, nid, saving, consumes in candidates:
        if used + consumes <= budget:
            promoted.append(nid)
            saved += saving
            used += consumes
    return BaselineReport(naive, naive - saved, tuple(sorted(promoted)), used)


def savings_percent(vars: int, load_base: int, load_cp: int) -> Fraction:
    """Load savings normalized by live variable count.

    100 * (min(load_base, load_cp) - load_base) / vars: non-positive, and 0
    whenever the optimizer does not beat the baseline.
    """
    if vars < 1:
        raise ValueError("vars must be >= 1")
    return Fraction(100 * (min(load_base, load_cp) - load_base), vars)
