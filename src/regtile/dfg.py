"""Loop-body dependence graphs: ingestion, validation, and normalization.

A loop body arrives as a possibly cyclic dependence graph whose nodes are
macro-instructions (each with an internal register requirement, ``comp``)
and whose edges carry a register size, an iteration distance, and the name
of the value they transport.  Three passes turn it into the normalized form
the tiling optimizer consumes:

1. ``condense_sccs``   - collapse every strongly connected component of the
   distance-0 subgraph into a single macro-instruction,
2. ``decompose_diagonal`` - split each cross-node, cross-iteration edge into
   a self edge plus an intra-iteration ("vertical") edge,
3. ``normalize_states``   - fold self edges into a per-node ``state`` that
   measures the registers needed to carry values between iterations.

``DataFlowGraph`` rejects a cycle left after condensation, which only a
carried dependence running backward can create.  ``ingest`` runs the whole
pipeline on a JSON instance document.
"""

from __future__ import annotations

import graphlib
import json
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "InstanceError",
    "RawNode",
    "RawEdge",
    "RawDependenceGraph",
    "StateSource",
    "Node",
    "Edge",
    "EdgeGroup",
    "DataFlowGraph",
    "ProblemInstance",
    "condense_sccs",
    "decompose_diagonal",
    "normalize_states",
    "normalize",
    "strongly_connected_components",
    "parse_json",
    "ingest",
    "instance_from_document",
    "instance_to_document",
]


class InstanceError(ValueError):
    """An instance document or dependence graph failed validation."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


# ---------------------------------------------------------------------------
# Raw (pre-normalization) graphs


def _require_unique(ids: list[str], kind: str) -> None:
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise InstanceError(f"duplicate {kind} id {dup!r}", f"{kind}s")


@dataclass(frozen=True)
class RawNode:
    """A macro-instruction before normalization."""

    id: str
    comp: int


@dataclass(frozen=True)
class RawEdge:
    """A dependence edge; ``reg`` 0 marks an ordering-only dependence."""

    id: str
    src: str
    dst: str
    reg: int
    distance: int = 0
    variable: str | None = None


@dataclass(frozen=True)
class RawDependenceGraph:
    """Possibly cyclic dependence graph as declared by the front end."""

    nodes: tuple[RawNode, ...]
    edges: tuple[RawEdge, ...]

    def __post_init__(self):
        # Only ids a solution can name must be unique: self edges fold into
        # node states, which keep no edge id.
        ids = [n.id for n in self.nodes]
        _require_unique(ids, "node")
        _require_unique([e.id for e in self.edges if e.src != e.dst], "edge")
        declared = set(ids)
        for n in self.nodes:
            if n.comp < 0:
                raise InstanceError(f"node {n.id!r} has negative comp", "nodes")
        for e in self.edges:
            for end, name in ((e.src, "src"), (e.dst, "dst")):
                if end not in declared:
                    raise InstanceError(
                        f"edge {e.id!r} references undeclared node {end!r}",
                        f"edges.{name}",
                    )
            if e.reg < 0:
                raise InstanceError(f"edge {e.id!r} has negative reg", "edges")
            if e.distance < 0:
                raise InstanceError(f"edge {e.id!r} has negative distance", "edges")
            if e.src == e.dst and e.distance == 0:
                raise InstanceError(
                    f"edge {e.id!r} is a self edge with distance 0", "edges"
                )

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)


# ---------------------------------------------------------------------------
# Normalized graphs


@dataclass(frozen=True)
class StateSource:
    """Provenance of one contribution to a node's state.

    ``reg`` is the per-iteration size of the carried value and ``distance``
    the iteration distance it travels; the state charge is reg * distance.
    """

    variable: str
    reg: int
    distance: int


@dataclass(frozen=True)
class Node:
    """Macro-instruction with its inter-iteration state folded in."""

    id: str
    comp: int
    state: int
    sources: tuple[StateSource, ...] = ()


@dataclass(frozen=True)
class Edge:
    """Intra-iteration (distance-0) data-flow edge."""

    id: str
    src: str
    dst: str
    reg: int
    group: str
    variable: str | None = None


@dataclass(frozen=True)
class EdgeGroup:
    """Edges leaving one node that carry the same value.

    The value occupies registers once per group, not once per edge, so
    register pressure is charged at group granularity.
    """

    id: str
    members: tuple[str, ...]
    reg: int
    value_name: str


@dataclass(frozen=True)
class DataFlowGraph:
    """Acyclic normalized loop-body graph."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    groups: tuple[EdgeGroup, ...]

    def __post_init__(self):
        _require_acyclic(
            self.node_ids,
            self.edges,
            "cycle among loop-body dependences (ignoring self edges); "
            "carried back dependences between distinct nodes are not supported",
        )
        for grp in self.groups:
            if any(self.edge_by_id[m].reg != grp.reg for m in grp.members):
                raise InstanceError(
                    f"edges {list(grp.members)} share group {grp.id!r} but differ in reg",
                    "edges",
                )

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def node_by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def total_state(self) -> int:
        return sum(n.state for n in self.nodes)


@dataclass(frozen=True)
class ProblemInstance:
    """A normalized graph plus the optimization parameters."""

    name: str
    graph: DataFlowGraph
    limit: int
    unroll: int
    max_width: int

    def __post_init__(self):
        if self.limit < 0:
            raise InstanceError("registers must be >= 0", "registers")
        if self.unroll < 1:
            raise InstanceError("unroll must be >= 1", "unroll")
        if not 1 <= self.max_width <= self.unroll:
            raise InstanceError(
                f"max_width must be in [1, unroll={self.unroll}]", "max_width"
            )

    @cached_property
    def max_comp(self) -> int:
        return max((n.comp for n in self.graph.nodes), default=0)


# ---------------------------------------------------------------------------
# Strongly connected components (distance-0 subgraph)


def _postorder(adj: list[list[int]], root: int, seen: list[bool], out: list[int]) -> None:
    """Append each node reachable from ``root`` and not yet ``seen`` to
    ``out`` after all of its own successors (iterative depth-first search)."""
    seen[root] = True
    frames = [(root, iter(adj[root]))]
    while frames:
        v, todo = frames[-1]
        for w in todo:
            if not seen[w]:
                seen[w] = True
                frames.append((w, iter(adj[w])))
                break
        else:
            frames.pop()
            out.append(v)


def strongly_connected_components(g: RawDependenceGraph) -> list[tuple[str, ...]]:
    """SCCs of the distance-0 subgraph, ordered by first declaration.

    Inter-iteration edges (distance > 0) never create intra-iteration
    cycles, so they are ignored here.  Members are listed in declaration
    order.  Sharir's two passes take linear time: record the finish order of
    a search of the graph, then search the reversed graph from each node in
    reverse finish order; each new search reaches exactly one component.
    """
    index_of = {n.id: i for i, n in enumerate(g.nodes)}
    n = len(g.nodes)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        if e.distance == 0 and e.src != e.dst:
            s, d = index_of[e.src], index_of[e.dst]
            succ[s].append(d)
            pred[d].append(s)

    finished: list[int] = []
    seen = [False] * n
    for root in range(n):
        if not seen[root]:
            _postorder(succ, root, seen, finished)
    comps: list[list[int]] = []
    assigned = [False] * n
    for root in reversed(finished):
        if not assigned[root]:
            comp: list[int] = []
            _postorder(pred, root, assigned, comp)
            comps.append(sorted(comp))

    comps.sort()
    ids = g.node_ids
    return [tuple(ids[i] for i in comp) for comp in comps]


def condense_sccs(g: RawDependenceGraph) -> RawDependenceGraph:
    """Fuse each distance-0 SCC into one macro-instruction.

    The merged node's comp is the sum of member comps plus the regs of
    distance-0 edges internal to the component (a safe over-approximation
    of the fused instruction's internal requirement).  Distance>0 edges
    internal to a component become self edges of the merged node; edges
    between components are kept with endpoints remapped, and parallel
    remapped edges stay distinct.
    """
    comps = strongly_connected_components(g)
    # A merged node is named by joining its members; when a surviving id
    # already has that name, primes are appended until the name is fresh.
    taken = {c[0] for c in comps if len(c) == 1}
    names = []
    for comp in comps:
        name = comp[0]
        if len(comp) > 1:
            name = "+".join(comp)
            while name in taken:
                name += "'"
            taken.add(name)
        names.append(name)

    comp_of = {m: i for i, c in enumerate(comps) for m in c}
    extra_comp = [0] * len(comps)
    kept_edges = []
    for e in g.edges:
        ci, cj = comp_of[e.src], comp_of[e.dst]
        if ci == cj and e.distance == 0:
            extra_comp[ci] += e.reg
            continue
        kept_edges.append(
            RawEdge(e.id, names[ci], names[cj], e.reg, e.distance, e.variable)
        )

    comp_sum = {n.id: n.comp for n in g.nodes}
    nodes = tuple(
        RawNode(names[i], sum(comp_sum[m] for m in c) + extra_comp[i])
        for i, c in enumerate(comps)
    )
    return RawDependenceGraph(nodes, tuple(kept_edges))


def decompose_diagonal(g: RawDependenceGraph) -> RawDependenceGraph:
    """Split each cross-node edge of distance > 0 into self + vertical.

    A value produced for a later iteration of another node first travels
    forward in time on its producer (self edge, same distance) and is then
    consumed in-iteration (vertical edge, distance 0).  Idempotent.
    """
    out = []
    for e in g.edges:
        if e.src != e.dst and e.distance > 0:
            out.append(RawEdge(f"{e.id}~state", e.src, e.src, e.reg, e.distance, e.variable))
            out.append(RawEdge(e.id, e.src, e.dst, e.reg, 0, e.variable))
        else:
            out.append(e)
    return RawDependenceGraph(g.nodes, tuple(out))


def _require_acyclic(ids, edges, message: str) -> None:
    preds: dict[str, list[str]] = {i: [] for i in ids}
    for e in edges:
        preds[e.dst].append(e.src)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError:
        raise InstanceError(message, "edges") from None


def normalize_states(g: RawDependenceGraph) -> DataFlowGraph:
    """Fold self edges into node states and finalize edge groups.

    Each self edge of size s and distance d charges s*d registers of state
    on its node (the value pipeline it would occupy when kept in registers).
    Remaining edges must all have distance 0.
    """
    self_edges: dict[str, list[RawEdge]] = {n.id: [] for n in g.nodes}
    vertical: list[RawEdge] = []
    for e in g.edges:
        if e.src == e.dst:
            self_edges[e.src].append(e)
        elif e.distance > 0:
            raise InstanceError(
                f"edge {e.id!r} has distance {e.distance}; run decompose_diagonal first",
                "edges",
            )
        else:
            vertical.append(e)

    nodes = []
    for n in g.nodes:
        sources = tuple(
            StateSource(e.variable or f"{n.id}.state", e.reg, e.distance)
            for e in self_edges[n.id]
        )
        state = sum(s.reg * s.distance for s in sources)
        nodes.append(Node(n.id, n.comp, state, sources))

    # Groups: same source and same carried variable share a group; an edge
    # without a variable, and every ordering-only (reg 0) edge, stands alone
    # under its own id.  A shared group is named "<src>/<variable>", with
    # primes appended while that name is an edge id or an earlier group's.
    group_members: dict[tuple[str, ...], list[RawEdge]] = {}
    for e in vertical:
        shared = e.reg > 0 and e.variable is not None
        key = (e.src, e.variable) if shared else (e.id,)
        group_members.setdefault(key, []).append(e)
    taken = {key[0] for key in group_members if len(key) == 1}
    gid_of: dict[str, str] = {}
    groups = []
    for key, members in group_members.items():
        gid = "/".join(key)
        if len(key) == 2:
            while gid in taken:
                gid += "'"
            taken.add(gid)
        gid_of.update((e.id, gid) for e in members)
        name = members[0].variable or members[0].id
        groups.append(EdgeGroup(gid, tuple(e.id for e in members), members[0].reg, name))
    edges = [Edge(e.id, e.src, e.dst, e.reg, gid_of[e.id], e.variable) for e in vertical]

    return DataFlowGraph(tuple(nodes), tuple(edges), tuple(groups))


def normalize(g: RawDependenceGraph) -> DataFlowGraph:
    """Full pipeline: condense, decompose, fold states.

    Condensation fuses only intra-iteration (distance-0) cycles; a carried
    dependence running backward against the remaining order would make the
    decomposed body cyclic, so ``DataFlowGraph`` rejects such graphs rather
    than silently fusing them.
    """
    return normalize_states(decompose_diagonal(condense_sccs(g)))


# ---------------------------------------------------------------------------
# Instance documents (JSON)


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise InstanceError(f"missing required key {key!r}", where)
    val = doc[key]
    if kind is int and isinstance(val, bool) or not isinstance(val, kind):
        raise InstanceError(f"{key!r} must be {kind.__name__}", where)
    return val


def _opt_int(doc: dict, key: str, default: int, where: str) -> int:
    if key not in doc:
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise InstanceError(f"{key!r} must be int", where)
    return val


def instance_from_document(
    doc: dict,
    *,
    registers: int | None = None,
    unroll: int | None = None,
    max_width: int | None = None,
) -> ProblemInstance:
    """Validate and normalize one instance document.

    Keyword overrides take precedence over the document's own fields
    (mirrors the CLI flags); a ``max_width`` read from the document is
    capped at an overridden ``unroll``.  Raw-form documents (self_edges,
    nonzero distances) go through the full normalization pipeline; documents
    that claim to be normalized must already be acyclic.
    """
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    name = doc.get("name", "instance")
    if not isinstance(name, str):
        raise InstanceError("'name' must be a string", "name")
    limit = registers if registers is not None else _require(doc, "registers", int, "registers")
    unroll_v = unroll if unroll is not None else _require(doc, "unroll", int, "unroll")
    if max_width is not None:
        max_width_v = max_width
    else:
        max_width_v = _opt_int(doc, "max_width", unroll_v, "max_width")
        if unroll is not None:
            # The document's cap was set for the document's unroll factor.
            max_width_v = min(max_width_v, unroll)

    raw_nodes = []
    synth_edges: list[RawEdge] = []
    for i, nd in enumerate(_require(doc, "nodes", list, "nodes")):
        where = f"nodes[{i}]"
        if not isinstance(nd, dict):
            raise InstanceError("node entry must be an object", where)
        nid = _require(nd, "id", str, where)
        comp = _require(nd, "comp", int, where)
        state = _opt_int(nd, "state", 0, where)
        if state < 0:
            raise InstanceError(f"node {nid!r} has negative state", where)
        raw_nodes.append(RawNode(nid, comp))
        if state > 0:
            synth_edges.append(RawEdge(f"{nid}~state", nid, nid, state, 1, None))

    explicit_self = "self_edges" in doc
    for i, se in enumerate(doc.get("self_edges", ())):
        where = f"self_edges[{i}]"
        if not isinstance(se, dict):
            raise InstanceError("self_edge entry must be an object", where)
        nid = _require(se, "node", str, where)
        reg = _require(se, "reg", int, where)
        distance = _require(se, "distance", int, where)
        variable = _require(se, "variable", str, where)
        if distance < 1:
            raise InstanceError("self edge distance must be >= 1", where)
        synth_edges.append(RawEdge(f"{nid}~self{i}", nid, nid, reg, distance, variable))

    raw_edges = []
    for i, ed in enumerate(_require(doc, "edges", list, "edges")):
        where = f"edges[{i}]"
        if not isinstance(ed, dict):
            raise InstanceError("edge entry must be an object", where)
        variable = ed.get("variable")
        if variable is not None and not isinstance(variable, str):
            raise InstanceError("'variable' must be a string", where)
        raw_edges.append(
            RawEdge(
                _require(ed, "id", str, where),
                _require(ed, "src", str, where),
                _require(ed, "dst", str, where),
                _require(ed, "reg", int, where),
                _opt_int(ed, "distance", 0, where),
                variable,
            )
        )

    raw_form = explicit_self or any(e.distance > 0 or e.src == e.dst for e in raw_edges)
    g = RawDependenceGraph(tuple(raw_nodes), tuple(raw_edges) + tuple(synth_edges))
    # The graph checks no self edge ids, but the document's must be unique.
    _require_unique([e.id for e in raw_edges], "edge")
    if not raw_form:
        # A document in normalized form promises an acyclic edge set; a cycle
        # here is a contract violation rather than something to condense away.
        _require_acyclic(g.node_ids, raw_edges, "cycle among distance-0 edges")
    graph = normalize(g)
    return ProblemInstance(name, graph, limit, unroll_v, max_width_v)


def parse_json(text: str):
    """Decode one JSON document; InstanceError when it is malformed or
    nested too deeply for the decoder."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InstanceError("JSON document is nested too deeply") from exc


def ingest(
    text: str,
    *,
    registers: int | None = None,
    unroll: int | None = None,
    max_width: int | None = None,
) -> ProblemInstance:
    """Parse a JSON instance document into a validated, normalized instance."""
    return instance_from_document(
        parse_json(text), registers=registers, unroll=unroll, max_width=max_width
    )


def instance_to_document(instance: ProblemInstance) -> dict:
    """Serialize an instance back to (normalized-form) document JSON."""
    g = instance.graph
    return {
        "name": instance.name,
        "registers": instance.limit,
        "unroll": instance.unroll,
        "max_width": instance.max_width,
        "nodes": [{"id": n.id, "comp": n.comp, "state": n.state} for n in g.nodes],
        "edges": [
            {
                "id": e.id,
                "src": e.src,
                "dst": e.dst,
                "reg": e.reg,
                "distance": 0,
                **({"variable": e.variable} if e.variable is not None else {}),
            }
            for e in g.edges
        ],
    }
