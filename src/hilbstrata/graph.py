"""The graph of all strata of one weight, with resolved cover edges.

Nodes are the Hilbert functions of the weight, in enumeration order; edges
are the covers of the partial order, each annotated with its incidence
verdict.  Emission targets are DOT (solid edge = incident, dashed = not,
label "0" = type zero, minimal function on top) and a round-trippable JSON
record.
"""

import json
from dataclasses import dataclass

from .diagrams import CastelnuovoDiagram, HilbertFunction, iter_diagrams
from .incidence import IncidenceVerdict, cover_moves, is_length_zero, resolve_incidence
from .resolution import BettiTable, generic_betti
from .strata import stratum_dim


@dataclass
class NodeRecord:
    id: int
    hf: HilbertFunction
    dim: int
    betti: BettiTable

    @property
    def diagram(self) -> CastelnuovoDiagram:
        return self.hf.diagram


@dataclass
class EdgeRecord:
    from_id: int
    to_id: int
    u: int
    v: int
    verdict: IncidenceVerdict


@dataclass
class HilbertGraph:
    n: int
    nodes: list
    edges: list


def build_hilbert_graph(n: int) -> HilbertGraph:
    """Nodes from the deterministic enumeration, edges from cover detection."""
    if n < 1:
        raise ValueError("graph construction needs weight >= 1")
    ids = {}
    nodes = []
    for i, s in enumerate(iter_diagrams(n)):
        ids[s] = i
        hf = HilbertFunction(CastelnuovoDiagram._unchecked(s))
        nodes.append(NodeRecord(id=i, hf=hf, dim=stratum_dim(hf), betti=generic_betti(hf)))
    edges = []
    for node in nodes:
        for pair in cover_moves(node.hf):
            target = ids[pair.psi.diagram.s]
            verdict = resolve_incidence(
                pair,
                betti_phi=node.betti,
                betti_psi=nodes[target].betti,
                dims=(node.dim, nodes[target].dim),
            )
            edges.append(EdgeRecord(node.id, target, pair.u, pair.v, verdict))
    edges.sort(key=lambda e: (e.from_id, e.to_id))
    return HilbertGraph(n=n, nodes=nodes, edges=edges)


def detect_noncatenary(g: HilbertGraph):
    """Intervals whose saturated chains disagree in length.

    Returns (from_id, to_id, lengths) triples, sorted, with ``lengths`` the
    ascending tuple of distinct cover-path lengths from the lower to the
    upper node; a pentagon is an interval carrying both a length-2 and a
    length-3 chain.  The edges are assumed to be exactly the covers, so the
    saturated chains of [i, j] are the edge paths from i to j.

    One forward pass per source i, in topological order: bit l of
    ``chains[j]`` is set when some edge path from i to j has length l.
    Raises ValueError when the edges contain a cycle.
    """
    order, up = _topological_order(g)
    lengths_of = {}
    witnesses = []
    for i in range(len(order)):
        chains = [0] * len(order)
        chains[i] = 1
        for x in order:
            mask = chains[x] << 1
            if mask:
                for y in up[x]:
                    chains[y] |= mask
        # chains[i] stays 1 in an acyclic graph, so the source never qualifies.
        for j, mask in enumerate(chains):
            if mask & (mask - 1):
                lengths = lengths_of.get(mask)
                if lengths is None:
                    lengths = tuple(l for l in range(mask.bit_length()) if mask >> l & 1)
                    lengths_of[mask] = lengths
                witnesses.append((i, j, lengths))
    return witnesses


def _topological_order(g: HilbertGraph):
    """Node ids in an order where every edge points forward, and the
    out-neighbours of each node.  Raises ValueError on a cycle."""
    up = [[] for _ in g.nodes]
    indeg = [0] * len(g.nodes)
    for e in g.edges:
        up[e.from_id].append(e.to_id)
        indeg[e.to_id] += 1
    order = [i for i, d in enumerate(indeg) if d == 0]
    for x in order:  # grows while it is walked (Kahn's algorithm)
        for y in up[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                order.append(y)
    if len(order) != len(g.nodes):
        raise ValueError("cover graph has a cycle")
    return order, up


def _layers(g: HilbertGraph):
    """Longest-cover-path depth of each node above the minimal function."""
    order, up = _topological_order(g)
    layer = [0] * len(order)
    for x in order:
        for y in up[x]:
            layer[y] = max(layer[y], layer[x] + 1)
    return layer


def emit(g: HilbertGraph, fmt: str) -> bytes:
    """Serialize the graph; ``fmt`` is ``dot`` or ``json``."""
    if fmt == "json":
        return _emit_json(g)
    if fmt == "dot":
        return _emit_dot(g)
    raise ValueError(f"unknown format {fmt!r}")


def _node_json(node: NodeRecord) -> dict:
    return {
        "id": node.id,
        "s": list(node.diagram.s),
        "h": list(node.hf.transient),
        "dim": node.dim,
        "a": {str(d): c for d, c in sorted(node.betti.a.items())},
        "b": {str(d): c for d, c in sorted(node.betti.b.items())},
    }


def _edge_json(e: EdgeRecord) -> dict:
    return {
        "from": e.from_id,
        "to": e.to_id,
        "u": e.u,
        "v": e.v,
        "incident": e.verdict.incident,
        "dim_ok": e.verdict.dim_ok,
        "tangent_ok": e.verdict.tangent_ok,
        "condition_c": e.verdict.betti_ok,
        "type_zero": e.verdict.type_zero,
    }


def _emit_json(g: HilbertGraph) -> bytes:
    record = {
        "n": g.n,
        "nodes": [_node_json(node) for node in g.nodes],
        "edges": [_edge_json(e) for e in g.edges],
    }
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def parse_graph_json(data) -> HilbertGraph:
    """Inverse of the JSON emitter (emit -> parse -> emit is byte-identical).

    Raises ValueError unless the record has the emitter's keys and types,
    the node ids are 0..N-1 in order, each node's values, dim and Betti
    table are those of its diagram, whose weight is the record's n, and
    each edge joins two nodes by a cover with the stated (u, v) and states
    the five verdict flags of that cover as JSON booleans.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return _graph_from_record(json.loads(data))
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed graph record: {exc!r}") from exc


# Edge keys of the JSON record and the verdict fields they state.
_FLAGS = (
    ("incident", "incident"),
    ("dim_ok", "dim_ok"),
    ("tangent_ok", "tangent_ok"),
    ("condition_c", "betti_ok"),
    ("type_zero", "type_zero"),
)


def _same_counts(counts, table: dict) -> bool:
    """Does the JSON object ``counts`` state exactly the sparse ``table``?"""
    return counts == {str(d): c for d, c in table.items()} and all(
        type(c) is int for c in counts.values()
    )


def _graph_from_record(record) -> HilbertGraph:
    n = record["n"]
    if type(n) is not int:
        raise ValueError(f"weight {n!r} is not an integer")
    if not (type(record["nodes"]) is list and type(record["edges"]) is list):
        raise ValueError("nodes and edges must be lists")
    nodes = []
    for position, item in enumerate(record["nodes"]):
        if item["id"] != position:
            raise ValueError(f"node id {item['id']!r} at position {position}")
        s = item["s"]
        if type(s) is not list or not all(type(x) is int for x in s):
            raise ValueError(f"node {position}: heights {s!r} are not integers")
        hf = CastelnuovoDiagram(s).hilbert_function()
        if hf.degree != n:
            raise ValueError(f"node {position}: weight {hf.degree} != {n}")
        if item["h"] != list(hf.transient):
            raise ValueError(f"node {position}: values {item['h']!r} != {list(hf.transient)}")
        dim = stratum_dim(hf)
        if item["dim"] != dim:
            raise ValueError(f"node {position}: dim {item['dim']!r} != {dim}")
        betti = generic_betti(hf)
        if not (_same_counts(item["a"], betti.a) and _same_counts(item["b"], betti.b)):
            raise ValueError(f"node {position}: Betti table is not {betti.render()}")
        nodes.append(NodeRecord(id=position, hf=hf, dim=dim, betti=betti))
    edges = []
    for item in record["edges"]:
        ends = (item["from"], item["to"])
        if not all(type(end) is int and 0 <= end < len(nodes) for end in ends):
            raise ValueError(f"edge {ends} has an endpoint outside 0..{len(nodes) - 1}")
        lower, upper = (nodes[end] for end in ends)
        pair = is_length_zero(lower.hf, upper.hf)
        if pair is None or (pair.u, pair.v) != (item["u"], item["v"]):
            raise ValueError(f"edge {ends} is not a cover with u={item['u']!r} v={item['v']!r}")
        verdict = resolve_incidence(
            pair, betti_phi=lower.betti, betti_psi=upper.betti, dims=(lower.dim, upper.dim)
        )
        for key, field in _FLAGS:
            if item[key] is not getattr(verdict, field):
                raise ValueError(f"edge {ends}: {key} {item[key]!r} != {getattr(verdict, field)}")
        edges.append(EdgeRecord(*ends, pair.u, pair.v, verdict))
    return HilbertGraph(n=n, nodes=nodes, edges=edges)


def _emit_dot(g: HilbertGraph) -> bytes:
    layer = _layers(g)
    lines = [f"digraph strata_{g.n} {{", "  node [shape=box];"]
    for node in g.nodes:
        label = f"{node.diagram.render()}\\ndim {node.dim}"
        lines.append(f'  n{node.id} [label="{label}"];')
    for depth in range(max(layer, default=0) + 1):
        members = [i for i in range(len(g.nodes)) if layer[i] == depth]
        if members:
            lines.append("  { rank=same; " + " ".join(f"n{i};" for i in members) + " }")
    for e in g.edges:
        style = "solid" if e.verdict.incident else "dashed"
        attrs = [f"style={style}"]
        if e.verdict.type_zero:
            attrs.append('label="0"')
        lines.append(f"  n{e.from_id} -> n{e.to_id} [{', '.join(attrs)}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
