"""Emit a tiling as an unrolled, linearized pseudo-instruction stream.

The program is the operational meaning of the cost model: tiles are written
out in linearization order, each tile as full-width repetitions (plus one
reduced repetition when the unroll factor is not a multiple of the width),
each repetition row by row with columns left to right.  Spilled values get
a LOAD right before their first use in a repetition and a STORE right after
their definition; everything else travels in registers.  A separate pass
assigns physical registers by linear scan and reports overflow points as
diagnostics instead of failing, because the model's pressure equation is an
approximation of simulated liveness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush

from . import tiling
from .dfg import ProblemInstance
from .tiling import TilingSolution

__all__ = [
    "ExecOp",
    "LoadOp",
    "StoreOp",
    "OverflowEvent",
    "ScheduleProgram",
    "InfeasibleScheduleError",
    "generate",
    "assign_registers",
    "verify_def_before_use",
]


class InfeasibleScheduleError(ValueError):
    """Asked to emit code for an infeasible solution without --force."""


@dataclass(frozen=True)
class ExecOp:
    node: str
    col: int
    consumes: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()

    def render(self) -> str:
        return f"EXEC {self.node} col={self.col}"


@dataclass(frozen=True)
class LoadOp:
    value: str
    reg: str | None = None

    def render(self) -> str:
        return f"LOAD {self.value} -> {self.reg}" if self.reg else f"LOAD {self.value}"


@dataclass(frozen=True)
class StoreOp:
    value: str
    reg: str | None = None

    def render(self) -> str:
        return f"STORE {self.reg} -> {self.value}" if self.reg else f"STORE {self.value}"


@dataclass(frozen=True)
class OverflowEvent:
    """A point where simulated liveness needed more registers than allowed."""

    index: int
    needed: int
    available: int
    detail: str


@dataclass(frozen=True)
class ScheduleProgram:
    ops: tuple[ExecOp | LoadOp | StoreOp, ...]
    unroll: int
    live_ins: tuple[str, ...]
    spilled_values: frozenset[str]
    node_comp: tuple[tuple[str, int], ...]
    remainder_note: str
    register_map: dict[str, str] | None = None
    overflow: tuple[OverflowEvent, ...] = ()

    @property
    def load_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, LoadOp))

    @property
    def exec_sequence(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.node, op.col) for op in self.ops if isinstance(op, ExecOp))

    def render(self) -> str:
        lines = [f"# step={self.unroll}"]
        if self.live_ins:
            lines.append(f"# live-in: {' '.join(self.live_ins)}")
        lines.append(f"# remainder: {self.remainder_note}")
        if self.overflow:
            for ev in self.overflow:
                lines.append(
                    f"# overflow at op {ev.index}: needed {ev.needed}, "
                    f"available {ev.available} ({ev.detail})"
                )
        lines.extend(op.render() for op in self.ops)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        ops = []
        for op in self.ops:
            kind = type(op)
            if kind is ExecOp:
                ops.append({"op": "exec", "node": op.node, "col": op.col})
            elif kind is LoadOp:
                ops.append({"op": "load", "value": op.value, "reg": op.reg})
            else:
                ops.append({"op": "store", "value": op.value, "reg": op.reg})
        return {
            "unroll": self.unroll,
            "live_in": list(self.live_ins),
            "remainder": self.remainder_note,
            "ops": ops,
            "register_map": (
                dict(self.register_map) if self.register_map is not None else None
            ),
            "overflow": [
                {
                    "index": ev.index,
                    "needed": ev.needed,
                    "available": ev.available,
                    "detail": ev.detail,
                }
                for ev in self.overflow
            ],
        }


def _words(name: str, size: int) -> list[str]:
    return [name] if size == 1 else [f"{name}.{k}" for k in range(size)]


def _fresh(taken: set[str], name: str) -> str:
    """Unique display name; carried values that shadow an in-iteration
    value of the same variable get a ~carry suffix."""
    if name not in taken:
        taken.add(name)
        return name
    candidate = f"{name}~carry"
    k = 2
    while candidate in taken:
        candidate = f"{name}~carry{k}"
        k += 1
    taken.add(candidate)
    return candidate


def generate(
    sol: TilingSolution, instance: ProblemInstance, *, force: bool = False
) -> ScheduleProgram:
    """Unroll, linearize, and insert spill code for one solution.

    The emitted LOAD count equals the solution's uspill exactly: each
    spilled edge reloads once per column at its consumer, each spilled
    state once per repetition of its tile.
    """
    res = tiling.feasible(sol, instance)
    if not res.ok and not force:
        raise InfeasibleScheduleError(f"solution is infeasible: {res.reason}")

    graph = instance.graph
    u = instance.unroll

    taken: set[str] = set()
    group_words = {
        g.id: _words(_fresh(taken, g.value_name), g.reg)
        for g in graph.groups
        if g.reg > 0
    }
    state_words: dict[str, list[str]] = {}
    for n in graph.nodes:
        words: list[str] = []
        if n.state > 0 and n.sources:
            for s in n.sources:
                words.extend(_words(_fresh(taken, s.variable), s.reg * s.distance))
        elif n.state > 0:
            words.extend(_words(_fresh(taken, f"{n.id}.state"), n.state))
        state_words[n.id] = words

    in_words: dict[str, list[tuple[list[str], bool]]] = {v: [] for v in graph.node_ids}
    out_groups: dict[str, list[str]] = {v: [] for v in graph.node_ids}
    group_has_spill: dict[str, bool] = {}
    for e in graph.edges:
        spilled = e.id in sol.edge_spill
        if e.reg > 0:
            in_words[e.dst].append((group_words[e.group], spilled))
        if e.group not in out_groups[e.src]:
            out_groups[e.src].append(e.group)
        group_has_spill[e.group] = group_has_spill.get(e.group, False) or spilled

    # Everything about a node's EXEC but the column: whether its state is
    # spilled, its state words (none without state), its in-edge words, the
    # words it defines and the words it stores right after.
    plans = {}
    for n in graph.nodes:
        out = [gid for gid in out_groups[n.id] if gid in group_words]
        plans[n.id] = (
            n.state > 0 and n.id in sol.state_spill,
            state_words[n.id],
            in_words[n.id],
            [word for gid in out for word in group_words[gid]],
            [word for gid in out if group_has_spill[gid] for word in group_words[gid]],
        )
    suffix = [f"@col{c}" for c in range(u + 1)]

    spilled_values: set[str] = set()
    ops: list[ExecOp | LoadOp | StoreOp] = []

    # Tiles own consecutive ranks in order; an empty tile emits nothing.
    start = 0
    for point, w in zip(sol.tile_points, sol.tile_widths):
        rows = sol.order[start : point + 1]
        start = point + 1
        for c0 in range(0, u, w):
            cols = range(c0, min(c0 + w, u))
            last_col = cols[-1]
            for v in rows:
                spill_state, state, inputs, defined, stored = plans[v]
                for c in cols:
                    at = suffix[c]
                    if spill_state:
                        if c == c0:
                            for word in state:
                                ops.append(LoadOp(word + at))
                                spilled_values.add(word + at)
                        consumes = [word + at for word in state]
                        produces = [word + suffix[c + 1] for word in state]
                    else:
                        consumes = list(state)
                        produces = list(state)
                    for base, spilled in inputs:
                        words = [word + at for word in base]
                        if spilled:
                            ops.extend(map(LoadOp, words))
                        for word in words:
                            if word not in consumes:
                                consumes.append(word)
                    produces += [word + at for word in defined]
                    ops.append(ExecOp(v, c, tuple(consumes), tuple(produces)))
                    if stored:
                        words = [word + at for word in stored]
                        spilled_values.update(words)
                        ops.extend(map(StoreOp, words))
                    if spill_state and c == last_col:
                        for word in state:
                            ops.append(StoreOp(word + suffix[c + 1]))
                            spilled_values.add(word + suffix[c + 1])

    live_ins = []
    for n in graph.nodes:
        if n.state > 0 and n.id not in sol.state_spill:
            live_ins.extend(state_words[n.id])

    note = (
        f"loop step becomes {u}; trip counts not divisible by {u} "
        f"need a peeled epilogue of trip%{u} iterations"
    )
    comps = tuple((n.id, n.comp) for n in graph.nodes)
    return ScheduleProgram(
        tuple(ops), u, tuple(live_ins), frozenset(spilled_values), comps, note
    )


def verify_def_before_use(program: ScheduleProgram) -> list[str]:
    """Every register operand must be defined (LOAD/EXEC) before its use."""
    defined = set(program.live_ins)
    problems = []
    for i, op in enumerate(program.ops):
        if isinstance(op, LoadOp):
            defined.add(op.value)
        elif isinstance(op, StoreOp):
            if op.value not in defined:
                problems.append(f"op {i}: STORE of undefined value {op.value}")
        else:
            for v in op.consumes:
                if v not in defined:
                    problems.append(f"op {i}: EXEC {op.node} uses undefined {v}")
            defined.update(op.produces)
    return problems


def _interval_ends(ops) -> list[tuple[str, ...]]:
    """Per op, the values whose register interval ends there.

    One reverse scan keeps each value's next event: ``-1`` for a use, the
    op index for a definition.  A use ends an interval when the value has
    no next event or its next event is a definition at a later op.  A value
    id can live through several intervals (a state stored at a repetition
    border and reloaded by the next repetition); a definition at the same
    op is an in-place redefinition (a state chain advancing), which keeps
    the register.
    """
    end = len(ops)
    ends: list[tuple[str, ...]] = [()] * end
    after: dict[str, int] = {}
    for i in range(end - 1, -1, -1):
        op = ops[i]
        kind = type(op)
        if kind is ExecOp:
            for v in op.produces:
                after[v] = i
            dying = []
            for v in reversed(op.consumes):
                if after.get(v, end) > i:
                    dying.append(v)
                after[v] = -1
            if dying:
                ends[i] = tuple(dying)
        elif kind is LoadOp:
            after[op.value] = i
        else:
            if after.get(op.value, end) > i:
                ends[i] = (op.value,)
            after[op.value] = -1
    return ends


def assign_registers(program: ScheduleProgram, limit: int) -> ScheduleProgram:
    """Linear-scan physical register assignment over the emitted order.

    Live values hold one register per word; an EXEC additionally reserves
    its comp registers for its duration, with inputs dying at the EXEC
    released first and outputs claimed after.  A use releases its value's
    register when the value is not used again before it is next defined
    at a later op (a LOAD or an EXEC output), or never again; a STORE is a
    use, and an EXEC that consumes and redefines a value keeps it.  A LOAD
    of a value that is still live frees its register and claims the lowest
    free one.  Overflow never aborts: extra registers beyond the limit are
    handed out and every such point is reported, because simulated
    liveness may legitimately disagree with the model's pressure
    approximation.
    """
    ops = program.ops
    ends = _interval_ends(ops)
    comp_of = dict(program.node_comp)
    spilled = program.spilled_values
    free: list[int] = list(range(limit))  # ascending, so already a heap
    names = [f"r{r}" for r in range(limit)]
    live: dict[str, int] = {}
    overflow: list[OverflowEvent] = []
    register_map: dict[str, str] = {v: "SPILLED" for v in spilled}

    def claim(value: str, index: int, detail: str) -> int:
        """Lowest free register, or a new one past the limit."""
        if free:
            r = heappop(free)
        else:
            r = len(names)
            names.append(f"r{r}")
        live[value] = r
        if len(live) > limit:
            overflow.append(OverflowEvent(index, len(live), limit, detail))
        if value not in spilled:
            register_map[value] = names[r]
        return r

    for word in program.live_ins:
        claim(word, 0, f"loop-carried value {word}")

    new_ops: list[ExecOp | LoadOp | StoreOp] = []
    for i, op in enumerate(ops):
        kind = type(op)
        if kind is ExecOp:
            for v in ends[i]:
                r = live.pop(v, None)
                if r is not None:
                    heappush(free, r)
            comp = comp_of.get(op.node, 0)
            if len(live) + comp > limit:
                overflow.append(
                    OverflowEvent(
                        i,
                        len(live) + comp,
                        limit,
                        f"EXEC {op.node} col={op.col} needs {comp} comp registers",
                    )
                )
            for v in op.produces:
                if v not in live:
                    claim(v, i, f"output {v} of {op.node}")
            new_ops.append(op)
        elif kind is LoadOp:
            value = op.value
            r = live.pop(value, None)
            if r is not None:
                heappush(free, r)
            r = claim(value, i, f"load of {value}")
            new_ops.append(LoadOp(value, names[r]))
        else:
            r = live.get(op.value)
            new_ops.append(StoreOp(op.value, names[r] if r is not None else "r?"))
            if ends[i] and r is not None:
                heappush(free, live.pop(op.value))
    return replace(
        program,
        ops=tuple(new_ops),
        register_map=register_map,
        overflow=tuple(overflow),
    )
