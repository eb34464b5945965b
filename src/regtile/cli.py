"""Batch command-line front door.

One subcommand per invocation; inputs and outputs are files (JSON, CSV, or
pseudo-IR text).  Exit codes: 0 success, 2 validation error, 3 infeasible,
4 budget exhausted without an optimality proof.  Validation failures also
emit a machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__, baseline, codegen, dfg, oracle, solver, stats, tiling

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNPROVEN = 4

TIME_BUDGET_ENV = "LRT_TIME_BUDGET_MS"


def _manifest(args: argparse.Namespace, started: float) -> dict:
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    return {
        "tool": "regtile",
        "version": __version__,
        "subcommand": args.subcommand,
        "flags": flags,
        "elapsed_ms": round((time.monotonic() - started) * 1000.0, 3),
    }


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise dfg.InstanceError(f"cannot read {path}: {exc}") from exc


def _load_instance(args) -> dfg.ProblemInstance:
    return dfg.ingest(
        _read(args.instance),
        registers=getattr(args, "registers", None),
        unroll=getattr(args, "unroll", None),
        max_width=getattr(args, "max_width", None),
    )


def _load_solution(path: str) -> tiling.TilingSolution:
    doc = dfg.parse_json(_read(path))
    try:
        return tiling.TilingSolution.from_json_dict(doc)
    except ValueError as exc:
        raise dfg.InstanceError(f"invalid solution document {path}: {exc}") from exc


def _check_out(path: str | None) -> None:
    """Reject an ``--out`` that cannot be created before any work runs."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise dfg.InstanceError(f"cannot write {path}: {folder} is not a directory")
    if os.path.isdir(path):
        raise dfg.InstanceError(f"cannot write {path}: it is a directory")


def _write(args, text: str) -> None:
    """Write ``text`` to ``--out`` if given, else to stdout.

    ``main`` has checked the path; permission errors and races remain.
    """
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise dfg.InstanceError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    """One line of JSON: without ``indent`` the C encoder does the work."""
    _write(args, json.dumps(payload) + "\n")


def _search_config(args) -> solver.SearchConfig:
    budget = args.time_budget_ms
    source = "--time-budget-ms"
    if budget is None:
        env = os.environ.get(TIME_BUDGET_ENV)
        if env:
            source = TIME_BUDGET_ENV
            try:
                budget = float(env)
            except ValueError as exc:
                raise dfg.InstanceError(f"{source} must be a number: {env!r}") from exc
    # ``not >= 0`` also rejects NaN, which would never expire.
    if budget is not None and not budget >= 0:
        raise dfg.InstanceError(f"{source} must be >= 0: {budget}")
    if args.node_budget < 0:
        raise dfg.InstanceError(f"--node-budget must be >= 0: {args.node_budget}")
    return solver.SearchConfig(
        seed=args.seed,
        time_budget_ms=budget,
        node_budget=args.node_budget,
        symmetry_breaking=not args.no_symmetry_breaking,
    )


def _cmd_solve(args, started) -> int:
    instance = _load_instance(args)
    outcome = solver.solve(instance, _search_config(args))
    payload = {"manifest": _manifest(args, started), **outcome.to_json_dict()}
    _emit(args, payload)
    if outcome.status is solver.SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if outcome.status is solver.SolveStatus.FEASIBLE:
        return EXIT_UNPROVEN
    return EXIT_OK


def _cmd_oracle(args, started) -> int:
    if args.max_nodes < 1:
        raise dfg.InstanceError(f"--max-nodes must be >= 1: {args.max_nodes}")
    instance = _load_instance(args)
    try:
        result = oracle.brute_force(instance, max_nodes=args.max_nodes)
    except oracle.NoFeasibleSolutionError as exc:
        _error("infeasible", str(exc))
        return EXIT_INFEASIBLE
    payload = {"manifest": _manifest(args, started), **result.to_json_dict()}
    _emit(args, payload)
    return EXIT_OK


def _cmd_baseline(args, started) -> int:
    instance = _load_instance(args)
    budget = args.budget
    if budget is None:
        budget = max(instance.limit - instance.max_comp, 0)
    elif budget < 0:
        raise dfg.InstanceError(f"--budget must be >= 0: {budget}")
    report = baseline.register_pipelining(instance.graph, budget)
    payload = {
        "manifest": _manifest(args, started),
        "budget": budget,
        **report.to_json_dict(),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_stats(args, started) -> int:
    if args.generate:
        try:
            seed_s, count_s = args.generate.split(",")
            seed, count = int(seed_s), int(count_s)
        except ValueError as exc:
            raise dfg.InstanceError(
                "--generate expects SEED,COUNT (two integers)"
            ) from exc
        if count < 0:
            raise dfg.InstanceError(f"--generate COUNT must be >= 0: {count}")
        default = stats.CorpusConfig()
        cfg = stats.CorpusConfig(
            nodes=_parse_range(args.nodes, default.nodes, 1),
            edges=_parse_range(args.edges, default.edges, 0),
        )
        instances = stats.generate_corpus(seed, count, cfg)
    elif args.instance:
        instances = [_load_instance(args)]
    else:
        raise dfg.InstanceError("stats needs --instance or --generate")

    lines = [f"# {json.dumps(_manifest(args, started), sort_keys=True)}"]
    lines.append(stats.CSV_HEADER)
    for i, inst in enumerate(instances):
        lines.append(stats.classify(inst).csv_row(i))
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_range(
    spec: str | None, default: tuple[int, int], minimum: int
) -> tuple[int, int]:
    if spec is None:
        return default
    try:
        lo, hi = (int(p) for p in spec.split(","))
    except ValueError as exc:
        raise dfg.InstanceError(f"range must be LO,HI: {spec!r}") from exc
    if lo > hi:
        raise dfg.InstanceError(f"empty range: {spec!r}")
    if lo < minimum:
        raise dfg.InstanceError(f"range {spec!r} must start at >= {minimum}")
    return lo, hi


def _cmd_cost(args, started) -> int:
    instance = _load_instance(args)
    sol = _load_solution(args.solution)
    try:
        report = tiling.cost(sol, instance)
        res = tiling.feasible(sol, instance)
    except ValueError as exc:
        raise dfg.InstanceError(str(exc)) from exc
    payload = {
        "manifest": _manifest(args, started),
        "cost": report.to_json_dict(),
        "feasible": {
            "ok": res.ok,
            "violated_point": res.violated_point,
            "reason": res.reason,
        },
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_codegen(args, started) -> int:
    instance = _load_instance(args)
    sol = _load_solution(args.solution)
    try:
        program = codegen.generate(sol, instance, force=args.force)
    except codegen.InfeasibleScheduleError as exc:
        _error("infeasible", str(exc))
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise dfg.InstanceError(str(exc)) from exc
    program = codegen.assign_registers(program, instance.limit)
    if args.emit_json:
        payload = {"manifest": _manifest(args, started), **program.to_json_dict()}
        _emit(args, payload)
    else:
        _write(args, program.render())
    return EXIT_OK


def _cmd_sweep(args, started) -> int:
    lo, hi = _parse_span(args.unroll_range)
    text = _read(args.instance)
    cfg = _search_config(args)
    points = []
    worst = EXIT_OK
    for u in range(lo, hi + 1):
        # The width cap may not exceed the unroll factor, so clamp per point;
        # ingest clamps a cap read from the document itself.
        mw = min(args.max_width, u) if args.max_width is not None else None
        instance = dfg.ingest(text, registers=args.registers, unroll=u, max_width=mw)
        outcome = solver.solve(instance, cfg)
        entry = {"unroll": u, "status": outcome.status.value}
        if outcome.cost:
            entry["uspill"] = outcome.cost.uspill
            entry["spill"] = str(outcome.cost.spill)
            entry["spill_float"] = float(outcome.cost.spill)
        points.append(entry)
        if outcome.status is solver.SolveStatus.INFEASIBLE:
            worst = max(worst, EXIT_INFEASIBLE)
        elif outcome.status is solver.SolveStatus.FEASIBLE:
            worst = max(worst, EXIT_UNPROVEN)
    payload = {"manifest": _manifest(args, started), "points": points}
    _emit(args, payload)
    return worst


def _parse_span(spec: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise dfg.InstanceError(f"--unroll range must be A..B: {spec!r}") from exc
    if lo < 1 or lo > hi:
        raise dfg.InstanceError(f"invalid unroll range: {spec!r}")
    return lo, hi


def _error(kind: str, message: str, **extra) -> None:
    error = {"type": kind, "message": message, **extra}
    sys.stderr.write(json.dumps({"error": error}) + "\n")


class _Parser(argparse.ArgumentParser):
    """Reports flag errors as a JSON ``usage`` error; still exits 2."""

    def error(self, message: str):
        _error("usage", message, usage=self.format_usage().strip())
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every later
    ``main`` call in the process."""
    parser = _Parser(
        prog="regtile",
        description="Minimize per-iteration loads of an innermost loop body "
        "by jointly choosing instruction order, register tiling, and spills.",
    )
    parser.add_argument("--version", action="version", version=f"regtile {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_instance_flags(p, overrides=True):
        p.add_argument("--instance", required=True, help="instance document (JSON)")
        if overrides:
            p.add_argument("--registers", type=int, help="override register limit")
            p.add_argument("--unroll", type=int, help="override unrolling factor")
            p.add_argument("--max-width", dest="max_width", type=int, help="override tile width cap")

    def add_search_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--time-budget-ms",
            dest="time_budget_ms",
            type=float,
            default=None,
            help=f"wall-clock budget (default: ${TIME_BUDGET_ENV} if set)",
        )
        p.add_argument("--node-budget", dest="node_budget", type=int, default=0)
        p.add_argument(
            "--no-symmetry-breaking",
            dest="no_symmetry_breaking",
            action="store_true",
        )

    p = sub.add_parser("solve", help="find a minimum-spill tiling")
    add_instance_flags(p)
    add_search_flags(p)
    p.add_argument("--out", help="write result JSON here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimum for small instances")
    add_instance_flags(p)
    p.add_argument("--max-nodes", dest="max_nodes", type=int, default=oracle.MAX_NODES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("baseline", help="naive and register-pipelining load costs")
    add_instance_flags(p)
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="registers available for promotion (default: limit - max comp)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("stats", help="instance statistics as CSV")
    p.add_argument("--instance")
    p.add_argument("--generate", help="SEED,COUNT synthetic corpus")
    p.add_argument("--nodes", help="node count range LO,HI for --generate")
    p.add_argument("--edges", help="edge count range LO,HI for --generate")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("cost", help="evaluate a solution document")
    add_instance_flags(p)
    p.add_argument("--solution", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("codegen", help="emit the unrolled pseudo-IR schedule")
    add_instance_flags(p)
    p.add_argument("--solution", required=True)
    p.add_argument("--force", action="store_true", help="emit even if infeasible")
    p.add_argument("--emit-json", dest="emit_json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_codegen)

    p = sub.add_parser("sweep", help="solve across a range of unroll factors")
    p.add_argument("--instance", required=True)
    p.add_argument("--registers", type=int)
    p.add_argument("--max-width", dest="max_width", type=int)
    p.add_argument("--unroll", dest="unroll_range", required=True, help="range A..B")
    add_search_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        _check_out(args.out)
        return args.func(args, started)
    except oracle.InstanceTooLargeError as exc:
        _error("instance-too-large", str(exc))
        return EXIT_USAGE
    except dfg.InstanceError as exc:
        _error("validation", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
