"""The benchmark's four workloads: which CLI calls they make, and how every
answer is checked.

A workload is a list of jobs.  A job is one instance: the ``regtile`` CLI
calls made for it, in order, plus what its answers must satisfy.  Jobs are
fixed per corpus pool, so every run of a workload does the same work; the
benchmark seed only orders the jobs.  Instance sets drawn afresh per seed
were measured first and rejected: over 10 seeds of 200 acceptance-family
instances the median solve latency spreads by 60% of its median (quartile
distance), because per-instance cost is heavy-tailed and bimodal.  A
held-out pool (``--pool-seed``) gives new instances once its references
are built.

Job sets, per pool (the pool's reference file supplies the costs):

* ``solve-corpus``: every 5th corpus instance in descending order of its
  reference search-node count, so the set spans the whole cost range and
  starts with the costliest instance (gen-175 in the default pool), plus
  the paper toy at 6 registers.  No budget: every answer is a proof.
* ``oracle-corpus``: every 4th instance in descending order of reference
  candidate count, among those with at most 50k candidates.  The 19
  costlier ones of the default pool (82% of its candidates; gen-155 alone
  takes about 35 s) do not fit in a run; criterion 4 of the acceptance
  suite still enumerates them.
* ``ladder``: 3 instances per (size, density) cell at 4, 6, 8, 10 and 12
  nodes, solved under a fixed node budget.  A time budget would make the
  verdicts flip between runs.
* ``emit-pipeline``: every 3rd corpus instance with its reference witness,
  at unroll 256, through ``cost``, ``codegen --emit-json`` and
  ``baseline``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from regtile import codegen, dfg, tiling

import inputs

SOLVE_STRIDE = 5
ORACLE_STRIDE = 4
ORACLE_MAX_CANDIDATES = 50_000
EMIT_STRIDE = 3
LADDER_NODE_BUDGET = 1000
EMIT_UNROLL = 256


@dataclass
class Job:
    name: str
    calls: list[list[str]]
    document: dict
    reference: dict | None = None
    cell: str = ""


@dataclass
class Verdict:
    """What the checks found for one job's answers."""

    problems: list[str] = field(default_factory=list)
    proven: bool = True
    spill: Fraction = Fraction(0)
    overflow: bool = False


def _systematic(entries: list[dict], key: str, stride: int) -> list[dict]:
    ordered = sorted(entries, key=lambda e: (-e[key], e["name"]))
    return ordered[::stride]


def make_documents(workload: str, pool_seed: int) -> dict:
    """Instance name -> raw document (ladder: -> (cell, document))."""
    if workload == "ladder":
        return {doc["name"]: (cell, doc) for cell, doc in inputs.ladder_documents(pool_seed)}
    return {doc["name"]: doc for doc in inputs.pool_documents(pool_seed)}


def build_jobs(workload: str, documents: dict, reference: dict | None, workdir: Path) -> list[Job]:
    """Write the jobs' documents under ``workdir`` and return the jobs.

    ``documents`` comes from ``make_documents``; ``reference`` is the pool's
    reference file (unused by the ladder).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "ladder":
        jobs = []
        for cell, doc in documents.values():
            path = _write(workdir, doc["name"], doc)
            argv = ["solve", "--instance", path, "--seed", "0",
                    "--node-budget", str(LADDER_NODE_BUDGET)]
            jobs.append(Job(doc["name"], [argv], doc, None, cell))
        return jobs

    reference = {e["name"]: e for e in reference["instances"]}
    corpus = [e for name, e in reference.items() if name != "toy"]
    if workload == "solve-corpus":
        chosen = _systematic(corpus, "solver_nodes", SOLVE_STRIDE) + [reference["toy"]]
    elif workload == "oracle-corpus":
        small = [e for e in corpus if e["oracle_candidates"] <= ORACLE_MAX_CANDIDATES]
        chosen = _systematic(small, "oracle_candidates", ORACLE_STRIDE)
    else:
        chosen = corpus[::EMIT_STRIDE]

    jobs = []
    for ref in chosen:
        doc = documents[ref["name"]]
        path = _write(workdir, ref["name"], doc)
        if workload == "solve-corpus":
            calls = [["solve", "--instance", path, "--seed", "0", "--node-budget", "0"]]
        elif workload == "oracle-corpus":
            calls = [["oracle", "--instance", path]]
        else:
            sol = _write(workdir, ref["name"] + ".witness", ref["witness"])
            over = ["--instance", path, "--unroll", str(EMIT_UNROLL)]
            calls = [
                ["cost", *over, "--solution", sol],
                ["codegen", *over, "--solution", sol, "--emit-json"],
                ["baseline", *over],
            ]
        jobs.append(Job(ref["name"], calls, doc, ref))
    return jobs


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Checks.  They run on each job's first answers, outside its timed window
# and untraced; later passes must reproduce those answers exactly.


def _check_tiling(instance, sol_doc: dict, uspill: int, v: Verdict) -> None:
    """Feasible under the evaluator behind ``regtile cost``, reported cost
    equal to the recomputed one and no worse than spilling everything, and
    an emitted schedule with one LOAD per unit of uspill whose every operand
    is defined before use."""
    try:
        sol = tiling.TilingSolution.from_json_dict(sol_doc)
        res = tiling.feasible(sol, instance)
        rep = tiling.cost(sol, instance)
    except (ValueError, KeyError, TypeError) as exc:
        v.problems.append(f"unreadable tiling: {exc}")
        return
    if not res.ok:
        v.problems.append(f"infeasible tiling: {res.reason}")
        return
    if rep.uspill != uspill:
        v.problems.append(f"reported uspill {uspill} != recomputed {rep.uspill}")
    worst = tiling.cost(tiling.all_spill_solution(instance), instance).uspill
    if rep.uspill > worst:
        v.problems.append(f"uspill {rep.uspill} above the all-spill cost {worst}")
    program = codegen.assign_registers(codegen.generate(sol, instance), instance.limit)
    if program.load_count != rep.uspill:
        v.problems.append(f"codegen emits {program.load_count} loads, uspill is {rep.uspill}")
    bad = codegen.verify_def_before_use(program)
    if bad:
        v.problems.append(f"use before definition: {bad[0]}")
    v.overflow = bool(program.overflow)


def _expect_exit(outputs, codes, v: Verdict) -> bool:
    for (code, payload), want in zip(outputs, codes):
        if code not in want:
            v.problems.append(f"exit code {code}, expected one of {sorted(want)}")
            return False
        if payload is None:
            v.problems.append("output is not a JSON object")
            return False
    return True


def check(workload: str, job: Job, outputs: list[tuple[int, dict | None]]) -> Verdict:
    """Check one job's answers; ``outputs`` holds (exit code, parsed JSON)
    per CLI call."""
    v = Verdict()
    try:
        if workload == "solve-corpus":
            _check_solve(job, outputs, v)
        elif workload == "oracle-corpus":
            _check_oracle(job, outputs, v)
        elif workload == "ladder":
            _check_ladder(job, outputs, v)
        else:
            _check_emit(job, outputs, v)
    except (KeyError, TypeError, ValueError) as exc:
        v.problems.append(f"malformed answer: {exc!r}")
    return v


def _check_solve(job, outputs, v):
    if not _expect_exit(outputs, [{0}], v):
        return
    out, ref = outputs[0][1], job.reference
    if out["status"] != "optimal":
        v.problems.append(f"status {out['status']}")
    if out["cost"]["spill"] != ref["spill"]:
        v.problems.append(f"spill {out['cost']['spill']} != reference {ref['spill']}")
    if out["search"]["explored"] != ref["solver_nodes"]:
        v.problems.append(
            f"explored {out['search']['explored']} nodes, reference {ref['solver_nodes']}"
        )
    v.spill = Fraction(out["cost"]["spill"])
    _check_tiling(dfg.instance_from_document(job.document), out["solution"],
                  out["cost"]["uspill"], v)


def _check_oracle(job, outputs, v):
    if not _expect_exit(outputs, [{0}], v):
        return
    out, ref = outputs[0][1], job.reference
    if out["spill"] != ref["spill"]:
        v.problems.append(f"spill {out['spill']} != reference {ref['spill']}")
    if out["candidates"] != ref["oracle_candidates"]:
        v.problems.append(
            f"{out['candidates']} candidates, reference {ref['oracle_candidates']}"
        )
    if out["witness"] != ref["witness"]:
        v.problems.append("witness differs from the reference witness")
    v.spill = Fraction(out["spill"])
    _check_tiling(dfg.instance_from_document(job.document), out["witness"], out["uspill"], v)


def _check_ladder(job, outputs, v):
    if not _expect_exit(outputs, [{0, 4}], v):
        return
    code, out = outputs[0]
    v.proven = code == 0
    want = "optimal" if v.proven else "feasible-but-unproven"
    if out["status"] != want:
        v.problems.append(f"status {out['status']} with exit code {code}")
    explored = out["search"]["explored"]
    if explored > LADDER_NODE_BUDGET or (not v.proven and explored != LADDER_NODE_BUDGET):
        v.problems.append(f"explored {explored} nodes under a budget of {LADDER_NODE_BUDGET}")
    v.spill = Fraction(out["cost"]["spill"])
    _check_tiling(dfg.instance_from_document(job.document), out["solution"],
                  out["cost"]["uspill"], v)


def _check_emit(job, outputs, v):
    if not _expect_exit(outputs, [{0}, {0}, {0}], v):
        return
    cost_out, code_out, base_out = (p for _c, p in outputs)
    instance = dfg.instance_from_document(job.document, unroll=EMIT_UNROLL)
    if not cost_out["feasible"]["ok"]:
        v.problems.append(f"witness infeasible: {cost_out['feasible']['reason']}")
        return
    uspill = cost_out["cost"]["uspill"]
    v.spill = Fraction(uspill, EMIT_UNROLL)
    sol = tiling.TilingSolution.from_json_dict(job.reference["witness"])
    rep = tiling.cost(sol, instance)
    if rep.uspill != uspill:
        v.problems.append(f"reported uspill {uspill} != recomputed {rep.uspill}")
    worst = tiling.cost(tiling.all_spill_solution(instance), instance).uspill
    if uspill > worst:
        v.problems.append(f"uspill {uspill} above the all-spill cost {worst}")
    loads = sum(1 for op in code_out["ops"] if op["op"] == "load")
    if loads != uspill:
        v.problems.append(f"codegen emits {loads} loads, uspill is {uspill}")
    program = codegen.generate(sol, instance)
    if len(program.ops) != len(code_out["ops"]):
        v.problems.append("emitted op count differs from a fresh codegen run")
    bad = codegen.verify_def_before_use(program)
    if bad:
        v.problems.append(f"use before definition: {bad[0]}")
    v.overflow = bool(code_out["overflow"])
    naive = sum(n.state for n in instance.graph.nodes)
    if base_out["naive_loads"] != naive or base_out["pipelined_loads"] > naive:
        v.problems.append(
            f"baseline loads naive={base_out['naive_loads']} "
            f"pipelined={base_out['pipelined_loads']}, total state {naive}"
        )
