"""regtile benchmark: drives the CLI in-process on seeded workloads.

    python3 bench/run.py --workload solve-corpus --seed 1 --seconds 20 --trace 0

One process, one thread.  Set-up generates the workload's instance
documents and writes them under ``bench/.work``.  The run then makes passes
over the workload's jobs (see ``workloads.py``), each pass in an order
drawn from ``--seed``, calling ``regtile.cli.main`` as a user would, until
another pass would end past ``--seconds`` of CLI time (at least one pass).
Every answer is checked: against the pool's oracle-verified reference where
one exists, by recomputation and emitted code otherwise; every later pass
must reproduce the first pass's answers exactly, timings aside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
same passes with every public regtile function wrapped in spans (see
``tracer.py``) and reports the per-layer metrics, per pass, plus the
tracing overhead; the traced answers must equal the untraced ones.  The
last line of standard output is the result JSON; the full record
(environment, settings, per-job rows, raw times, spans) goes to
``bench/out/``.

Times are reported in reference time.  Shared virtual machines (measured
on a 2-vCPU one) change speed by 20-40% from one second to the next: a
fixed loop alternates between two speeds in spells of 2-10 s.  So every
job is bracketed by two runs of a fixed calibration mix of the interpreter
work regtile does, and its time is scaled by REFERENCE_CALIBRATION_S over
their mean; set-up is scaled the same way.  Over ten runs per workload
this cut the quartile spread of the timing metrics from 11-36% of their
median to 2-15%.  Raw times and calibration samples stay in the record.

Exit codes: 0 when the run completed (``correct`` tells whether every
answer passed), 2 when the benchmark cannot run here (no regtile sources,
no valid reference for the pool).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

REGTILE_MODULES = ("cli", "dfg", "stats", "solver", "tiling", "oracle", "codegen", "baseline")
WORKLOADS = ("solve-corpus", "oracle-corpus", "ladder", "emit-pipeline")
SETUP_REPEATS = 5
SETUP_CALIBRATIONS = 5
# The only fields of a CLI answer that may differ between identical runs.
TIMINGS = re.compile(r'"(?:elapsed_ms|wall_ms)": [-+.0-9eE]+')
TAIL_BEYOND = 10
MIN_JOB_S = 0.05
MAX_REPEATS = 5
REFERENCE_CALIBRATION_S = 0.002


def calibrate() -> float:
    """Time one fixed mix of string-keyed dicts and sets, small tuples and
    lists, integer bit tricks and JSON, as regtile's own work mixes them."""
    t0 = perf_counter()
    rng = random.Random(7)
    names = [f"v{i}" for i in range(300)]
    index = {v: i for i, v in enumerate(names)}
    arcs = sorted({(rng.randrange(300), rng.randrange(300)) for _ in range(600)})
    succ: dict[str, list[str]] = {}
    for a, b in arcs:
        succ.setdefault(names[a], []).append(names[b])
    masks = [0] * 300
    for a, b in arcs:
        m = masks[a] | (1 << b)
        masks[a] = m ^ (m & -m) if m.bit_count() > 8 else m
    live = frozenset(v for v in names if masks[index[v]] & 1 or v in succ)
    rows = [tuple(succ.get(v, ())) for v in names if v in live]
    json.loads(json.dumps({"succ": succ, "rows": rows}, sort_keys=True))
    return perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor from measured to reference time for one window."""
    return REFERENCE_CALIBRATION_S / statistics.median(samples)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="regtile benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="orders the jobs of every pass")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool-seed", type=int, default=None,
                    help="corpus seed the jobs come from (default 42, the acceptance "
                         "corpus); another pool needs its reference file first")
    return ap.parse_args(argv)


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Runner:
    """Executes one workload's jobs and keeps what the checks and metrics need."""

    def __init__(self, workload, jobs, seed, cli, workloads):
        self.workload = workload
        self.jobs = jobs
        self.seed = seed
        self.cli = cli
        self.workloads = workloads
        # Per job, one latency per pass, in reference seconds.
        self.latencies = [[] for _ in jobs]
        self.traced_latencies = [[] for _ in jobs]
        self.passes: list[dict] = []  # raw times and calibration, per pass
        self.digests = [None] * len(jobs)
        self.verdicts = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.mismatch: list[str] = []

    def _call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed answer, not a failed run
                code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def run_pass(self, p: int, traced: bool) -> float:
        """One pass over every job; returns the sum of the jobs' raw
        latencies in seconds."""
        order = list(range(len(self.jobs)))
        random.Random(f"{self.seed}:{p}").shuffle(order)
        target = self.traced_latencies if traced else self.latencies
        raw: dict[int, float] = {}
        calibration: dict[int, list[float]] = {}
        for i in order:
            # Untraced, a short job runs again until MIN_JOB_S is spent (at
            # most MAX_REPEATS times) and counts its median run, so
            # millisecond jitter does not decide its latency.  Traced, every
            # job runs once per pass, so the per-pass counts are exact.
            repeats = []
            most = 1 if traced else MAX_REPEATS
            calibration[i] = [calibrate()]
            while not repeats or (sum(repeats) < MIN_JOB_S and len(repeats) < most):
                # Each run starts from an empty young generation, so when the
                # cyclic collector runs inside it depends on the job, not on
                # which jobs the seed put before it.
                gc.collect()
                t0 = perf_counter()
                answers = [self._call(argv) for argv in self.jobs[i].calls]
                repeats.append(perf_counter() - t0)
                self._settle(i, p, traced, answers)
            calibration[i].append(calibrate())
            raw[i] = statistics.median(repeats)
            target[i].append(raw[i] * speed_scale(calibration[i]))
        busy = sum(raw.values())
        self.passes.append({
            "traced": traced,
            "cli_s": busy,
            "jobs": {
                self.jobs[i].name: {
                    "raw_ms": raw[i] * 1000.0,
                    "calibration_ms": [c * 1000.0 for c in calibration[i]],
                }
                for i in order
            },
        })
        return busy

    def _settle(self, i, p, traced, answers) -> None:
        """Digest the answers outside the timed window; check them on the
        first pass, compare them with the first pass afterwards."""
        digest = hashlib.sha1()
        for code, text in answers:
            digest.update(f"{code}\n{TIMINGS.sub('', text)}\n".encode())
        digest = digest.hexdigest()
        self.attempted += 1
        if self.digests[i] is None:
            self.digests[i] = digest
            parsed = []
            for code, text in answers:
                try:
                    payload = json.loads(text)
                except ValueError:
                    payload = None
                parsed.append((code, payload if isinstance(payload, dict) else None))
            self.verdicts[i] = self.workloads.check(self.workload, self.jobs[i], parsed)
        elif digest != self.digests[i]:
            where = "the traced run" if traced else f"pass {p}"
            self.mismatch.append(f"{self.jobs[i].name}: answer in {where} differs from pass 0")
            self.failed += 1
            return
        if self.verdicts[i].problems:
            self.failed += 1

    def run(self, seconds: float, traced: bool = False, passes: int | None = None) -> int:
        """Make ``passes`` passes, or as many as fit in ``seconds`` (at least
        two, so every run repeats every answer); returns the number made.
        A pass counts the raw time of each job's median run, not the checks
        or the calibration, so the pass count does not depend on them."""
        busy = []
        while True:
            busy.append(self.run_pass(len(busy), traced))
            if passes is not None:
                if len(busy) == passes:
                    return passes
            elif len(busy) >= 2 and sum(busy) + busy[-1] > seconds:
                return len(busy)


def tail_percentile(n: int) -> float:
    """The highest percentile of n samples with TAIL_BEYOND samples above it."""
    return 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(runner: Runner, setup_s: float) -> dict:
    per_job = sorted(statistics.median(lat) * 1000.0 for lat in runner.latencies)
    verdicts = runner.verdicts
    executions = sum(len(lat) for lat in runner.latencies)
    busy = sum(sum(lat) for lat in runner.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (executions / busy, "1/s"),
        "latency_p50_ms": (statistics.median(per_job), "ms"),
        "latency_tail_ms": (per_job[len(per_job) - TAIL_BEYOND - 1], "ms"),
        "proven_share": (sum(v.proven for v in verdicts) / len(verdicts), "share"),
        "loads_per_iter": (float(sum(v.spill for v in verdicts) / len(verdicts)), "loads"),
        "overflow_share": (sum(v.overflow for v in verdicts) / len(verdicts), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, passes: int, scale: float, overhead: float, setup_ms: float) -> dict:
    """Per-layer metrics, per pass; times in reference milliseconds."""
    t, c = tracer, tracer.counters

    def per_pass(x):
        return x / passes

    def ms(x):
        return per_pass(x) * scale

    nodes = c["solver.nodes"]
    candidates = c["oracle.candidates"]
    propagate = t.calls("solver.propagate")
    feasible = t.calls("tiling.feasible")
    m = {
        "solver.solve.calls": (per_pass(t.calls("solver.solve")), "count"),
        "solver.solve.self_ms": (ms(t.self_ms("solver.solve")), "ms"),
        "solver.propagate.calls": (per_pass(propagate), "count"),
        "solver.propagate.ms": (ms(t.total_ms("solver.propagate")), "ms"),
        "solver.propagate.pruned_share": (
            c["solver.propagate.pruned"] / propagate if propagate else 0.0, "share"),
        "solver.nodes": (per_pass(nodes), "count"),
        "solver.us_per_node": (
            t.total_ms("solver.solve") * scale * 1000.0 / nodes if nodes else 0.0, "us"),
        "solver.backtracks": (per_pass(c["solver.backtracks"]), "count"),
        "solver.incumbent_updates": (per_pass(c["solver.incumbent_updates"]), "count"),
        "oracle.brute_force.calls": (per_pass(t.calls("oracle.brute_force")), "count"),
        "oracle.brute_force.self_ms": (ms(t.self_ms("oracle.brute_force")), "ms"),
        "oracle.candidates": (per_pass(candidates), "count"),
        "oracle.us_per_candidate": (
            t.total_ms("oracle.brute_force") * scale * 1000.0 / candidates
            if candidates else 0.0, "us"),
        "tiling.feasible.ok_share": (
            c["tiling.feasible.ok"] / feasible if feasible else 0.0, "share"),
        "codegen.ops": (per_pass(c["codegen.ops"]), "count"),
        "codegen.overflow_events": (per_pass(c["codegen.overflow_events"]), "count"),
        "codegen.assign_registers.ms": (ms(t.total_ms("codegen.assign_registers")), "ms"),
        "baseline.register_pipelining.ms": (ms(t.total_ms("baseline.register_pipelining")), "ms"),
        "cli.main.calls": (per_pass(t.calls("cli.main")), "count"),
        "cli.main.self_ms": (ms(t.self_ms("cli.main")), "ms"),
        "stats.generate_corpus.ms": (setup_ms, "ms"),
        "trace.overhead_share": (overhead, "share"),
    }
    for name in ("tiling.TilingSolution", "tiling.feasible", "tiling.cost",
                 "tiling.canonical_key", "codegen.generate", "dfg.ingest"):
        m[f"{name}.calls"] = (per_pass(t.calls(name)), "count")
        m[f"{name}.ms"] = (ms(t.total_ms(name)), "ms")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regtile" / "__init__.py").is_file():
        print(f"error: no regtile sources at {SRC}", file=sys.stderr)
        return 2
    # Budgets are passed explicitly; an inherited default must not apply.
    os.environ.pop("LRT_TIME_BUDGET_MS", None)
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    for name in REGTILE_MODULES:
        importlib.import_module(f"regtile.{name}")
    import_s = perf_counter() - t0

    import inputs
    import workloads
    from tracer import Tracer
    from regtile import cli

    pool_seed = inputs.DEFAULT_POOL_SEED if args.pool_seed is None else args.pool_seed
    reference = None
    if args.workload != "ladder":
        try:
            reference = inputs.load_reference(pool_seed)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    record: dict = {}
    try:
        setups, calibration = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            documents = workloads.make_documents(args.workload, pool_seed)
            jobs = workloads.build_jobs(args.workload, documents, reference, workdir)
            raw = perf_counter() - t0
            window = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            calibration += window
            setups.append(raw * speed_scale(window))
        setup_s = import_s * speed_scale(calibration) + statistics.median(setups)
        record["setup"] = {"import_s": import_s, "calibration_s": calibration}

        # The harness's own long-lived objects (reference, documents, modules)
        # stay out of the collector's way, as they would in a fresh CLI process.
        gc.collect()
        gc.freeze()
        runner = Runner(args.workload, jobs, args.seed, cli, workloads)
        passes = runner.run(args.seconds)
        if args.trace:
            setup_tracer = Tracer()
            with setup_tracer:
                workloads.make_documents(args.workload, pool_seed)
            setup_scale = speed_scale([calibrate() for _ in range(SETUP_CALIBRATIONS)])
            tracer = Tracer()
            with tracer:
                runner.run(args.seconds, traced=True, passes=passes)
            traced_scale = speed_scale([
                c / 1000.0 for p in runner.passes if p["traced"]
                for job in p["jobs"].values() for c in job["calibration_ms"]
            ])
            overhead = (sum(map(sum, runner.traced_latencies))
                        / sum(map(sum, runner.latencies)) - 1.0)
            metrics = per_layer(tracer, passes, traced_scale, overhead,
                                setup_tracer.total_ms("stats.generate_corpus") * setup_scale)
            record["trace"] = tracer.to_json_dict()
            record["setup_trace"] = setup_tracer.to_json_dict()["aggregate"]
        else:
            metrics = end_to_end(runner, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [
        {
            "name": job.name,
            "cell": job.cell or None,
            "latency_ms": statistics.median(lat) * 1000.0,
            "proven": v.proven,
            "spill": str(v.spill),
            "overflow": v.overflow,
            "problems": v.problems,
        }
        for job, lat, v in zip(jobs, runner.latencies, runner.verdicts)
    ]
    n = len(jobs)
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "pool_seed": pool_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": git_sha(ROOT),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        },
        "settings": {
            "solve_node_budget": 0,
            "ladder_node_budget": workloads.LADDER_NODE_BUDGET,
            "time_budget": None,
            "emit_unroll": workloads.EMIT_UNROLL,
            "solve_stride": workloads.SOLVE_STRIDE,
            "oracle_stride": workloads.ORACLE_STRIDE,
            "oracle_max_candidates": workloads.ORACLE_MAX_CANDIDATES,
            "emit_stride": workloads.EMIT_STRIDE,
            "reference_calibration_s": REFERENCE_CALIBRATION_S,
        },
        "jobs": n,
        "passes": passes,
        "latency_samples": n,
        "latency_tail_percentile": tail_percentile(n),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "mismatches": runner.mismatch,
        "rows": rows,
        "pass_log": runner.passes,
    })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} pool={pool_seed}: {n} jobs x {passes} passes; "
          f"latency samples are per-job medians, tail = p{tail_percentile(n):.1f} of {n}; "
          f"record in {out_path.relative_to(ROOT)}")
    if args.workload == "ladder":
        for cell in dict.fromkeys(r["cell"] for r in rows):
            cr = [r for r in rows if r["cell"] == cell]
            print(f"# ladder {cell}: proven {sum(r['proven'] for r in cr)}/{len(cr)}, "
                  f"median latency {statistics.median(r['latency_ms'] for r in cr):.1f} ms, "
                  f"spill {[r['spill'] for r in cr]}")
    for r in rows:
        for problem in r["problems"]:
            print(f"# FAIL {r['name']}: {problem}")
    for m in runner.mismatch:
        print(f"# FAIL {m}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
