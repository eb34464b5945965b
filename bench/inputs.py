"""Instance documents the benchmark feeds to the regtile CLI.

Every document comes from ``stats.generate_corpus`` (plus the paper's toy
loop), so the benchmark exercises exactly the generator the acceptance
suite uses.  The generator returns normalized instances; the raw documents
it ingests are captured on the way through, because re-serializing a
normalized instance drops state provenance that ``codegen`` and
``baseline`` read.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from regtile import dfg, stats

BENCH_DIR = Path(__file__).resolve().parent

# Corpus seed of the acceptance suite; its references are committed.
DEFAULT_POOL_SEED = 42
POOL_COUNT = 200

# Work counts of the acceptance corpus (seed 42, 200 instances, default
# search settings), measured when the benchmark was defined.  A reference
# that disagrees was not built from the same solver and oracle.
PINNED_COUNTS = {
    42: {"solver_nodes": 397_274, "oracle_candidates": 5_086_268, "gen-175": 41_595},
}

# The paper's 4-node example loop, solved at 6 registers.
TOY_DOCUMENT = {
    "name": "toy",
    "registers": 6,
    "unroll": 6,
    "max_width": 6,
    "nodes": [
        {"id": "S0", "comp": 3},
        {"id": "S1", "comp": 2},
        {"id": "S2", "comp": 3},
        {"id": "S3", "comp": 2},
    ],
    "self_edges": [
        {"node": "S0", "reg": 2, "distance": 1, "variable": "X"},
        {"node": "S1", "reg": 1, "distance": 1, "variable": "b"},
        {"node": "S2", "reg": 2, "distance": 1, "variable": "Y"},
    ],
    "edges": [
        {"id": "a", "src": "S0", "dst": "S1", "reg": 1, "distance": 0, "variable": "a"},
        {"id": "c", "src": "S1", "dst": "S3", "reg": 1, "distance": 0, "variable": "c"},
        {"id": "e", "src": "S2", "dst": "S3", "reg": 1, "distance": 0, "variable": "e"},
        {"id": "d", "src": "S0", "dst": "S2", "reg": 0, "distance": 0, "variable": "d"},
    ],
}

# Ladder: one sparse and one dense edge range per size.  Sizes 6 to 12 lie
# past the oracle cap and are never proven within the ladder's node budget;
# the 4-node rung is where proofs still happen, so the proven share has a
# base to move from.  Edge ranges scale with the size so "dense" stays
# dense at 12 nodes.
LADDER_SIZES = (4, 6, 8, 10, 12)
LADDER_PER_CELL = 3


def ladder_edge_ranges(n: int) -> dict[str, tuple[int, int]]:
    pairs = n * (n - 1) // 2
    return {"sparse": (n - 2, n), "dense": (pairs // 2, 2 * pairs // 3)}


def corpus_documents(
    seed: int, count: int, cfg: stats.CorpusConfig = stats.CorpusConfig()
) -> list[dict]:
    """The raw documents ``stats.generate_corpus(seed, count, cfg)`` ingests."""
    docs: list[dict] = []
    real = dfg.instance_from_document

    def capture(doc, **overrides):
        docs.append(copy.deepcopy(doc))
        return real(doc, **overrides)

    dfg.instance_from_document = capture
    try:
        stats.generate_corpus(seed, count, cfg)
    finally:
        dfg.instance_from_document = real
    return docs


def pool_documents(pool_seed: int) -> list[dict]:
    """The acceptance-family corpus of one pool seed, then the toy."""
    return corpus_documents(pool_seed, POOL_COUNT) + [copy.deepcopy(TOY_DOCUMENT)]


def ladder_documents(pool_seed: int) -> list[tuple[str, dict]]:
    """(cell label, document) for every ladder instance, size-major."""
    out = []
    for n in LADDER_SIZES:
        for density, edges in ladder_edge_ranges(n).items():
            cfg = stats.CorpusConfig(nodes=(n, n), edges=edges)
            # One corpus seed per cell, derived from the pool seed.
            cell_seed = pool_seed * 1000 + n * 10 + (density == "dense")
            for k, doc in enumerate(corpus_documents(cell_seed, LADDER_PER_CELL, cfg)):
                doc["name"] = f"ladder-{n}-{density}-{k}"
                out.append((f"{n}-{density}", doc))
    return out


def reference_path(pool_seed: int) -> Path:
    return BENCH_DIR / f"reference_seed{pool_seed}.json"


def pin_mismatches(pool_seed: int, entries: list[dict]) -> list[str]:
    """Where a pool's reference work counts differ from the pinned ones."""
    pins = PINNED_COUNTS.get(pool_seed)
    if not pins:
        return []
    corpus = [e for e in entries if e["name"].startswith("gen-")]
    seen = {
        "solver_nodes": sum(e["solver_nodes"] for e in corpus),
        "oracle_candidates": sum(e["oracle_candidates"] for e in corpus),
        "gen-175": next((e["solver_nodes"] for e in corpus if e["name"] == "gen-175"), None),
    }
    return [f"{k}: {seen[k]} != pinned {v}" for k, v in pins.items() if seen[k] != v]


def load_reference(pool_seed: int) -> dict:
    path = reference_path(pool_seed)
    if not path.is_file():
        raise FileNotFoundError(
            f"no reference file {path.name}; build it first with "
            f"`python3 bench/make_reference.py --pool-seed {pool_seed}`"
        )
    reference = json.loads(path.read_text(encoding="utf-8"))
    bad = pin_mismatches(pool_seed, reference["instances"])
    if bad:
        raise ValueError(f"{path.name} disagrees with the pinned counts: {'; '.join(bad)}")
    return reference
