"""The graph of all strata of one weight, with resolved cover edges.

Nodes are the Hilbert functions of the weight, in enumeration order; edges
are the covers of the partial order, each annotated with its incidence
verdict.  Emission targets are DOT (solid edge = incident, dashed = not,
label "0" = type zero, minimal function on top) and a round-trippable JSON
record.  Both emitters write each node and each edge with one format
string; the JSON emitter is the one definition of its format, and the
parser checks a record against that emitter's bytes decoded, so only
``parse_graph_json`` loads ``json``.
"""

import sys
from collections.abc import Sequence
from itertools import accumulate, chain, compress, repeat
from operator import eq, index
from typing import NamedTuple

from .diagrams import CastelnuovoDiagram, HilbertFunction, count_diagrams, iter_diagrams
from .incidence import IncidenceVerdict, cover_moves, cover_verdict
from .resolution import BettiTable, generic_betti
from .strata import cover_excess, cover_row, stratum_dim

# The most nodes a graph may have.  Weight 65 has 18,200 diagrams and
# weight 66 has 20,132, so graphs are built and parsed up to weight 65.
MAX_NODES = 20_000


class NodeRecord(NamedTuple):
    id: int
    hf: HilbertFunction
    dim: int
    betti: BettiTable


class EdgeRecord(NamedTuple):
    from_id: int
    to_id: int
    u: int
    v: int
    verdict: IncidenceVerdict


class HilbertGraph(NamedTuple):
    """The cover graph of weight ``n``.  A node's id is its canonical rank.
    An edge runs from phi to a psi that covers it, and psi, with a column
    raised left of the one lowered, comes first: every edge points to a
    lower id, so the ids in ascending order are a topological order."""

    n: int
    nodes: list
    edges: list


def build_hilbert_graph(n: int) -> HilbertGraph:
    """Nodes from the deterministic enumeration, edges from cover detection.

    The edges come in ascending (from_id, to_id) order with no sort: the
    nodes are read in id order, and ``cover_moves`` gives each one's
    covers in ascending psi id.  Raises ValueError for n < 1 and for a weight with more than
    ``MAX_NODES`` diagrams.
    """
    if n < 1:
        raise ValueError("graph construction needs weight >= 1")
    # The count never decreases with the weight and weight 100 already has
    # 444,793 diagrams, so no weight past 100 is counted.
    if count_diagrams(min(n, 100)) > MAX_NODES:
        raise ValueError(f"weight {n} has more than {MAX_NODES} diagrams, the most a graph may have")
    ids = {}
    nodes = []
    rows = []  # each node's cover_row, read by the tangent comparisons of its covers
    for i, s in enumerate(iter_diagrams(n)):
        ids[s] = i
        hf = HilbertFunction(CastelnuovoDiagram._unchecked(s))
        betti = generic_betti(hf)
        nodes.append(NodeRecord(id=i, hf=hf, dim=stratum_dim(hf), betti=betti))
        rows.append(cover_row(hf, betti))
    edges = []
    for i, node in enumerate(nodes):
        for pair in cover_moves(node.hf):
            j = ids[pair.psi_heights]
            excess = cover_excess(rows[i], rows[j], pair.u, pair.v)
            verdict = cover_verdict(pair, node.betti, (node.dim, nodes[j].dim), excess)
            edges.append(EdgeRecord(i, j, pair.u, pair.v, verdict))
    return HilbertGraph(n=n, nodes=nodes, edges=edges)


def detect_noncatenary(g: HilbertGraph) -> "Witnesses":
    """Intervals whose saturated chains disagree in length.

    Returns a ``Witnesses`` sequence of (from_id, to_id, lengths) triples,
    sorted, with ``lengths`` the ascending tuple of distinct cover-path
    lengths from the lower to the upper node; a pentagon is an interval
    carrying both a length-2 and a length-3 chain.  The result is a
    read-only sequence, not a ``list``: it has ``len``, indexing, ``in``
    and ``==`` with any sequence of triples, and ``list(...)`` gives the
    plain list.  The edges are assumed to be exactly the covers, so the
    saturated chains of [i, j] are the edge paths from i to j.

    After ``_layers`` has found the longest chain, a walk over the ids in
    ascending order, top first, builds, for every node x, one integer row
    with a field of W bits per node j: bit l of field j is set when some
    edge path from x to j has length l.  So x's row is the OR of its upper
    covers' rows shifted up by one, plus bit 0 of field x.  W is the
    smallest multiple of 64 that keeps the top bit of every field above the
    longest chain.  That top bit is a guard.  Every edge points to a lower
    id, so x's row reaches exactly its first x + 1 fields, and x's
    witnesses are read from them as soon as the row is built: with G every
    field's guard, ONES every field's bit 0 and B every field's bits below
    its guard, all cut to x + 1 fields, ``q = row | G`` and
    ``q & (q - ONES) & B`` keep exactly the fields holding two or more
    lengths, and no borrow crosses a field.  Adding B carries into the
    guard of each such field (``_field_flags``), so one ``to_bytes`` gives
    one flag byte per field, and the flagged fields are read from the
    row's 64-bit words (``_split_fields``).  x's row is kept only until
    its last reader, the largest from-id of the edges to x, has ORed it
    in.  The cost is E big-integer ORs over N·W-bit rows, plus, per source,
    a few big-integer steps and C-level passes over the fields its row
    reaches and Python work per witness; the memory is the rows of the
    walk's frontier, not the N²·W/8 bytes of all rows, plus about 8 bytes
    per witness.
    Raises ValueError on an edge that does not point to a lower id.
    """
    from array import array  # here only: no other path needs it

    up = _upper_covers(g)
    n = len(up)
    k = (max(_layers(up), default=0) + 65) // 64  # 64-bit words per field
    width = 64 * k
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    guards = ones << (width - 1)
    low = guards - ones  # every field's bits below its guard
    last = list(range(n))  # each row's last reader, or its own id
    for e in g.edges:
        last[e.to_id] = max(last[e.to_id], e.from_id)
    rows = [0] * n
    kinds = _LengthIndex()
    chunks = []  # per source with witnesses: its to-ids and length-set indices
    for x in range(n):
        above = 0
        for y in up[x]:
            above |= rows[y]
            if last[y] == x:
                rows[y] = 0  # its last lower cover has read it
        row = above << 1 | 1 << width * x
        if last[x] != x:
            rows[x] = row
        f = x + 1  # the fields the row reaches
        cut = width * (n - f)
        low_f = low >> cut
        q = row | guards >> cut
        multiple = q & (q - (ones >> cut)) & low_f
        if multiple:
            flags = _field_flags(multiple, low_f, f, k)
            fields = _split_fields(row, f, k, flags)
            chunks.append((x, array("I", compress(range(f), flags)), array("I", map(kinds.__getitem__, fields))))
    return Witnesses(chunks, tuple(kinds.lengths))


class Witnesses(Sequence):
    """The (from_id, to_id, lengths) triples of ``detect_noncatenary``, in
    sorted order, held as one pair of ``array("I")`` chunks per source: its
    to-ids and, for each, the index of its ``lengths`` tuple in one shared
    table.  Compares equal to any sequence of the same triples."""

    __slots__ = ("_chunks", "_lengths", "_starts")

    def __init__(self, chunks, lengths):
        # chunks: (from_id, to_ids, length indices) with ascending from_ids
        self._chunks = chunks
        self._lengths = lengths
        self._starts = list(accumulate((len(c[1]) for c in chunks), initial=0))

    def __len__(self):
        return self._starts[-1]

    def __iter__(self):
        lengths = self._lengths.__getitem__
        return chain.from_iterable(
            zip(repeat(i), to_ids, map(lengths, kinds)) for i, to_ids, kinds in self._chunks
        )

    def __getitem__(self, position):
        from bisect import bisect_right  # here only: indexing is rare

        position = index(position)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("witness index out of range")
        c = bisect_right(self._starts, position) - 1
        i, to_ids, kinds = self._chunks[c]
        at = position - self._starts[c]
        return i, to_ids[at], self._lengths[kinds[at]]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return f"Witnesses({list(self)!r})"


class _LengthIndex(dict):
    """A field -> the index in ``lengths`` of the ascending tuple of its set
    bits, one tuple per distinct field.  A field is keyed as ``_split_fields``
    gives it: its word when it has one, else the tuple of its words."""

    def __init__(self):
        self.lengths = []

    def __missing__(self, words):
        field = words if type(words) is int else sum(w << 64 * t for t, w in enumerate(words))
        kind = self[words] = len(self.lengths)
        self.lengths.append(tuple(l for l in range(field.bit_length()) if field >> l & 1))
        return kind


def _field_flags(value: int, low: int, size: int, k: int) -> bytes:
    """One byte per field of ``value``, out of ``size`` fields of ``k``
    words each, lowest first: nonzero exactly when the field is.  ``low``
    holds every field's bits below its top (guard) bit, and ``value`` has no
    guard bit set, so adding ``low`` carries into a field's guard exactly
    when the field is nonzero and never past it; a flag is the byte that
    holds its field's guard."""
    return ((value + low) & ~low).to_bytes(8 * k * size, "little")[8 * k - 1 :: 8 * k]


def _split_fields(value: int, n: int, k: int, keep):
    """The fields j of ``value`` whose ``keep[j]`` is true, out of ``n``
    fields of ``k`` words each, lowest first: field j holds the bits of
    ``(value >> 64*k*j) & ((1 << 64*k) - 1)``.  The value is read as native
    64-bit ``"Q"`` words, lowest first on either byte order.  For k = 1 a
    field is its word, otherwise the tuple of its words, lowest first."""
    words = memoryview(value.to_bytes(8 * n * k, sys.byteorder)).cast("Q")
    if sys.byteorder == "big":
        words = words[::-1]
    if k == 1:
        return compress(words, keep)
    return zip(*[compress(words[t::k], keep) for t in range(k)])


def _upper_covers(g: HilbertGraph) -> list:
    """The to-ids of each node's edges, its upper covers.  Raises ValueError
    on an edge that does not point to a lower id of the graph's nodes."""
    size = len(g.nodes)
    up = [[] for _ in range(size)]
    for e in g.edges:
        if not 0 <= e.to_id < e.from_id < size:
            raise ValueError(
                f"edge {e.from_id} -> {e.to_id} does not point to a lower id of the {size} nodes"
            )
        up[e.from_id].append(e.to_id)
    return up


def _layers(up):
    """Longest-cover-path depth of each node above the minimal function,
    from ``_upper_covers``: the ids from the last down walk bottom up."""
    layer = [0] * len(up)
    for x in reversed(range(len(up))):
        for y in up[x]:
            layer[y] = max(layer[y], layer[x] + 1)
    return layer


def emit(g: HilbertGraph, fmt: str) -> bytes:
    """Serialize the graph; ``fmt`` is ``dot`` or ``json``.  Both are written
    by format strings, so neither loads the ``json`` module."""
    if fmt == "json":
        return _emit_json(g)
    if fmt == "dot":
        return _emit_dot(g)
    raise ValueError(f"unknown format {fmt!r}")


_BOOL = ("false", "true")
_COUNT = '"%d":%d'.__mod__  # one (degree, count) item, the degree as a string key


def _emit_json(g: HilbertGraph) -> bytes:
    """The JSON record of the graph, the one definition of the format.

    One object ``{"n", "nodes", "edges"}``, then a newline, with no spaces:
    the bytes ``json.dumps`` writes with ``separators=(",", ":")``.  A node
    is ``{"id", "s", "h", "dim", "a", "b"}`` with ``a`` and ``b`` the Betti
    counts keyed by degree, in the table's own ascending order; an edge is
    ``{"from", "to", "u", "v", "incident", "dim_ok", "tangent_ok",
    "condition_c", "type_zero"}``.  Each node and each edge is one format
    string, and the record is joined once.  The heights and values of a
    weight-n Hilbert function are at most n, so they are written from one
    table of the decimals 0 .. n.
    """
    decimal = list(map(str, range(g.n + 1))).__getitem__
    nodes = ",".join(
        f'{{"id":{i},"s":[{",".join(map(decimal, hf.diagram.s))}],'
        f'"h":[{",".join(map(decimal, hf.transient))}],"dim":{dim},'
        f'"a":{{{",".join(map(_COUNT, betti.a.items()))}}},'
        f'"b":{{{",".join(map(_COUNT, betti.b.items()))}}}}}'
        for i, hf, dim, betti in g.nodes
    )
    edges = ",".join(
        f'{{"from":{i},"to":{j},"u":{u},"v":{v},"incident":{_BOOL[verdict.incident]},'
        f'"dim_ok":{_BOOL[verdict.dim_ok]},"tangent_ok":{_BOOL[verdict.tangent_ok]},'
        f'"condition_c":{_BOOL[verdict.betti_ok]},"type_zero":{_BOOL[verdict.type_zero]}}}'
        for i, j, u, v, verdict in g.edges
    )
    return f'{{"n":{g.n},"nodes":[{nodes}],"edges":[{edges}]}}\n'.encode("utf-8")


def parse_graph_json(data) -> HilbertGraph:
    """Inverse of the JSON emitter (emit -> parse -> emit is byte-identical).

    Builds the graph of the record's weight n and returns it when the
    record equals that graph's emitted bytes decoded by ``json.loads``, key
    order aside.  Values must have the emitter's JSON types: no float or
    boolean stands in for an integer, nor an integer for a boolean.
    Otherwise raises ValueError naming the first difference as ``not the
    graph of weight N: <path>: <got> != <want>``, with a JSON path such as
    ``nodes[3].b``.  A weight with more than ``MAX_NODES`` diagrams is
    refused before any graph is built.
    """
    import json  # here only: the emitters write their bytes by hand

    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        record = json.loads(data)
        n = record["n"]
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed graph record: {exc!r}") from exc
    if type(n) is not int:
        raise ValueError(f"weight {n!r} is not an integer")
    g = build_hilbert_graph(n)
    difference = _first_difference(record, json.loads(_emit_json(g)), "")
    if difference:
        raise ValueError(f"not the graph of weight {n}: {difference}")
    return g


def _first_difference(got, want, path: str):
    """``<path>: <got> != <want>`` for the first place where the parsed JSON
    ``got`` does not state exactly ``want``, type for type, or None.

    ``==`` alone would take 1.0 or True for 1, and 1 for True.  A container's
    length or key set is compared before its entries.
    """
    if type(got) is not type(want):
        return f"{path}: {_show(got)} != {_show(want)}"
    if type(want) is list:
        if len(got) != len(want):
            return f"{path}: {len(got)} entries != {len(want)}"
        entries = ((f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(got, want)))
    elif type(want) is dict:
        if got.keys() != want.keys():
            return f"{path or 'record'}: keys {_show_keys(got)} != {_show_keys(want)}"
        entries = ((f"{path}.{k}" if path else k, got[k], want[k]) for k in want)
    else:
        return None if got == want else f"{path}: {_show(got)} != {_show(want)}"
    return next(filter(None, (_first_difference(x, y, p) for p, x, y in entries)), None)


# A refusal stays one short line whatever the record holds: at most this
# many keys of a key set, and at most this many characters of a ``repr``.
_SHOWN_KEYS = 10
_SHOWN_REPR = 80


def _show(x) -> str:
    """A scalar by ``repr``, cut past ``_SHOWN_REPR`` characters with its
    length given, and a container by its JSON type and length."""
    if type(x) is list:
        return f"array of {len(x)} entries"
    if type(x) is dict:
        return f"object of {len(x)} keys"
    shown = repr(x)
    if len(shown) > _SHOWN_REPR:
        return f"{shown[:_SHOWN_REPR]}… ({len(shown)} characters)"
    return shown


def _show_keys(record: dict) -> str:
    """The sorted keys as a list, each by ``_show``; past ``_SHOWN_KEYS``
    keys only the first ones, then how many more there are."""
    keys = sorted(record)
    shown = "[" + ", ".join(map(_show, keys[:_SHOWN_KEYS])) + "]"
    if len(keys) > _SHOWN_KEYS:
        shown += f" … and {len(keys) - _SHOWN_KEYS} more"
    return shown


def _emit_dot(g: HilbertGraph) -> bytes:
    layer = _layers(_upper_covers(g))
    lines = [f"digraph strata_{g.n} {{", "  node [shape=box];"]
    lines.extend(f'  n{i} [label="{hf.diagram.render()}\\ndim {dim}"];' for i, hf, dim, _ in g.nodes)
    ranks = [[] for _ in range(max(layer, default=-1) + 1)]
    for i, depth in enumerate(layer):
        ranks[depth].append(f"n{i};")
    for members in ranks:  # none is empty: a node at depth d > 0 covers one at d - 1
        lines.append("  { rank=same; " + " ".join(members) + " }")
    lines.extend(
        f'''  n{i} -> n{j} [style={"solid" if verdict.incident else "dashed"}{', label="0"' if verdict.type_zero else ""}];'''
        for i, j, _, _, verdict in g.edges
    )
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
