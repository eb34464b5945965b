"""Spill-minimizing register tiling of innermost loop bodies.

Jointly chooses an instruction order, a register tiling (unroll factor x
statement grouping), and spill decisions that minimize the loads executed
per loop iteration, together with the baseline, oracle, statistics, and
schedule-emission machinery needed to validate the optimizer.
"""

__version__ = "0.1.0"

from .baseline import BaselineReport, naive_cost, register_pipelining, savings_percent
from .codegen import ScheduleProgram, assign_registers, generate
from .dfg import (
    DataFlowGraph,
    Edge,
    EdgeGroup,
    InstanceError,
    Node,
    ProblemInstance,
    RawDependenceGraph,
    RawEdge,
    RawNode,
    condense_sccs,
    decompose_diagonal,
    ingest,
    normalize,
    normalize_states,
)
from .oracle import OracleResult, brute_force
from .solver import SearchConfig, SolveOutcome, SolveStatus, solve
from .stats import CorpusConfig, InstanceStats, classify, generate_corpus, original_pressure, scc_count
from .tiling import (
    CostReport,
    FeasibilityResult,
    PressureProfile,
    TilingSolution,
    all_spill_solution,
    cost,
    feasible,
    pressure,
)

__all__ = [
    "__version__",
    "BaselineReport",
    "CorpusConfig",
    "CostReport",
    "DataFlowGraph",
    "Edge",
    "EdgeGroup",
    "FeasibilityResult",
    "InstanceError",
    "InstanceStats",
    "Node",
    "OracleResult",
    "PressureProfile",
    "ProblemInstance",
    "RawDependenceGraph",
    "RawEdge",
    "RawNode",
    "ScheduleProgram",
    "SearchConfig",
    "SolveOutcome",
    "SolveStatus",
    "TilingSolution",
    "all_spill_solution",
    "assign_registers",
    "brute_force",
    "classify",
    "condense_sccs",
    "cost",
    "decompose_diagonal",
    "feasible",
    "generate",
    "generate_corpus",
    "ingest",
    "naive_cost",
    "normalize",
    "normalize_states",
    "original_pressure",
    "pressure",
    "register_pipelining",
    "savings_percent",
    "scc_count",
    "solve",
]
