"""In-memory span tracing of regtile's public functions.

``Tracer.install`` wraps every public function of the traced modules (the
names in each module's ``__all__``, plus ``cli.main``) and the constructor
of ``tiling.TilingSolution`` with ``perf_counter`` spans, wherever the
package holds a reference to them; ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

Spans nest: a span's self time is its duration minus the time of the spans
it directly encloses.  Every call updates a per-name aggregate (calls,
total, self).  Individual span records are kept only for the outer two
levels (``cli.main`` and what it calls directly), because the oracle makes
millions of inner calls; they are written out with the aggregates when the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

from regtile import baseline, cli, codegen, dfg, oracle, solver, stats, tiling

MODULES = {
    "cli": cli,
    "dfg": dfg,
    "stats": stats,
    "solver": solver,
    "tiling": tiling,
    "oracle": oracle,
    "codegen": codegen,
    "baseline": baseline,
}

RECORD_DEPTH = 2


def _count_solve(tracer, outcome):
    c = tracer.counters
    c["solver.nodes"] += outcome.stats.explored
    c["solver.backtracks"] += outcome.stats.backtracks
    c["solver.incumbent_updates"] += outcome.stats.incumbent_updates


def _count_propagate(tracer, ok):
    if not ok:
        tracer.counters["solver.propagate.pruned"] += 1


def _count_feasible(tracer, res):
    if res.ok:
        tracer.counters["tiling.feasible.ok"] += 1


def _count_brute_force(tracer, result):
    tracer.counters["oracle.candidates"] += result.candidates


def _count_generate(tracer, program):
    tracer.counters["codegen.ops"] += len(program.ops)


def _count_assign(tracer, program):
    tracer.counters["codegen.overflow_events"] += len(program.overflow)


# Counters read off return values, at the layer where the work happens.
RESULT_HOOKS = {
    "solver.solve": _count_solve,
    "solver.propagate": _count_propagate,
    "tiling.feasible": _count_feasible,
    "oracle.brute_force": _count_brute_force,
    "codegen.generate": _count_generate,
    "codegen.assign_registers": _count_assign,
}


class Tracer:
    def __init__(self):
        self.aggregate: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {
            "solver.nodes": 0,
            "solver.backtracks": 0,
            "solver.incumbent_updates": 0,
            "solver.propagate.pruned": 0,
            "tiling.feasible.ok": 0,
            "oracle.candidates": 0,
            "codegen.ops": 0,
            "codegen.overflow_events": 0,
        }
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._child_time: list[float] = []
        self._open_span: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        agg = self.aggregate.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        open_span = self._open_span
        spans = self.spans
        hook = RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(child_time)
            record = depth < RECORD_DEPTH
            if record:
                parent = open_span[-1] if open_span else -1
                open_span.append(len(spans))
                spans.append((name, 0.0, 0.0, parent))
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - inner
                if record:
                    idx = open_span.pop()
                    spans[idx] = (name, start, end, spans[idx][3])
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions; references held by name elsewhere in
        the package (``from .tiling import ...``) are re-pointed too."""
        package = [m for k, m in sys.modules.items() if k.startswith("regtile")]
        for label, module in MODULES.items():
            names = list(getattr(module, "__all__", ())) or ["main"]
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{label}.{attr}", fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapped)
        sol = tiling.TilingSolution
        self._patch(sol, "__init__", self._wrap("tiling.TilingSolution", sol.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def calls(self, name: str) -> int:
        return int(self.aggregate.get(name, (0,))[0])

    def total_ms(self, name: str) -> float:
        return self.aggregate.get(name, (0, 0.0))[1] * 1000.0

    def self_ms(self, name: str) -> float:
        return self.aggregate.get(name, (0, 0.0, 0.0))[2] * 1000.0

    def to_json_dict(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "aggregate": {
                name: {"calls": int(c), "total_ms": t * 1000.0, "self_ms": s * 1000.0}
                for name, (c, t, s) in sorted(self.aggregate.items())
                if c
            },
            "counters": dict(self.counters),
            "spans": [
                {"name": n, "start_ms": (a - t0) * 1000.0, "end_ms": (b - t0) * 1000.0, "parent": p}
                for n, a, b, p in self.spans
            ],
        }
