"""Build the reference answers for one corpus pool.

For every instance of ``stats.generate_corpus(pool_seed, 200)`` plus the
paper toy at 6 registers, runs ``solver.solve`` and ``oracle.brute_force``
and records the optimum, the oracle's witness and both work counts.  It
writes nothing unless the two agree on every instance, so each stored
answer is oracle-verified.  Run it once per new pool seed, before any timed
run on that pool:

    python3 bench/make_reference.py --pool-seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from regtile import dfg, oracle, solver, tiling  # noqa: E402

from inputs import DEFAULT_POOL_SEED, pin_mismatches, pool_documents, reference_path  # noqa: E402


def reference_entry(doc: dict) -> tuple[dict | None, str | None]:
    """(entry, None) when solver and oracle agree, else (None, reason)."""
    instance = dfg.instance_from_document(doc)
    got = solver.solve(instance)
    want = oracle.brute_force(instance)
    if got.status is not solver.SolveStatus.OPTIMAL:
        return None, f"solver status {got.status.value}"
    if got.cost.spill != want.spill:
        return None, f"solver spill {got.cost.spill} != oracle spill {want.spill}"
    for who, sol in (("solver", got.best), ("oracle", want.witness)):
        if not tiling.feasible(sol, instance).ok:
            return None, f"{who} answer infeasible"
    return {
        "name": instance.name,
        "spill": str(want.spill),
        "uspill": want.uspill,
        "witness": want.witness.to_json_dict(),
        "solver_nodes": got.stats.explored,
        "oracle_candidates": want.candidates,
    }, None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pool-seed", type=int, default=DEFAULT_POOL_SEED)
    args = ap.parse_args(argv)

    entries, problems = [], []
    started = time.perf_counter()
    for doc in pool_documents(args.pool_seed):
        entry, problem = reference_entry(doc)
        if problem:
            problems.append(f"{doc['name']}: {problem}")
        else:
            entries.append(entry)
            print(
                f"{entry['name']}: spill {entry['spill']}, "
                f"{entry['solver_nodes']} nodes, {entry['oracle_candidates']} candidates",
                file=sys.stderr,
            )
    problems += pin_mismatches(args.pool_seed, entries)
    if problems:
        for p in problems:
            print(f"disagreement: {p}", file=sys.stderr)
        print("reference not written", file=sys.stderr)
        return 1
    doc = {"pool_seed": args.pool_seed, "instances": entries}
    path = reference_path(args.pool_seed)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(
        f"wrote {path.name}: {len(entries)} instances in "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
