import hashlib
import json
import random
import re
import tracemalloc

import pytest

from hilbstrata.diagrams import HilbertFunction, count_diagrams, enumerate_diagrams, hf_leq
from hilbstrata.graph import (
    MAX_NODES,
    EdgeRecord,
    HilbertGraph,
    NodeRecord,
    Witnesses,
    _field_flags,
    _layers,
    _split_fields,
    _upper_covers,
    build_hilbert_graph,
    detect_noncatenary,
    emit,
    parse_graph_json,
)
from oracles import (
    cover_relations_triple_loop,
    graph_record_by_dicts,
    noncatenary_by_chains,
    noncatenary_by_forward_passes,
)


def hand_built(size, pairs):
    """A graph of ``size`` bare nodes whose edges are the (from, to) ``pairs``."""
    edges = [EdgeRecord(a, b, 0, 0, None) for a, b in pairs]
    return HilbertGraph(n=0, nodes=[NodeRecord(i, None, 0, None) for i in range(size)], edges=edges)


class TestBuild:
    def test_weight1(self):
        g = build_hilbert_graph(1)
        assert len(g.nodes) == 1 and len(g.edges) == 0

    def test_weight3(self):
        g = build_hilbert_graph(3)
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        edge = g.edges[0]
        assert edge.verdict.incident
        assert g.nodes[edge.from_id].hf.diagram.s == (1, 1, 1)
        assert g.nodes[edge.to_id].hf.diagram.s == (1, 2)
        # Each record is built alike by position and by keyword.
        node = g.nodes[1]
        assert NodeRecord(1, node.hf, node.dim, node.betti) == node
        assert NodeRecord(id=1, hf=node.hf, dim=node.dim, betti=node.betti) == node
        assert EdgeRecord(1, 0, 1, 1, edge.verdict) == edge
        assert EdgeRecord(from_id=1, to_id=0, u=1, v=1, verdict=edge.verdict) == edge
        assert HilbertGraph(3, g.nodes, g.edges) == HilbertGraph(n=3, nodes=g.nodes, edges=g.edges) == g

    def test_weight17_size(self):
        g = build_hilbert_graph(17)
        assert len(g.nodes) == 38
        assert any(not e.verdict.incident for e in g.edges)
        assert sum(e.verdict.type_zero for e in g.edges) == 4

    def test_node_bound(self):
        # Weight 65 is the last one within the bound; a weight far past it
        # is refused without being counted.
        assert count_diagrams(65) <= MAX_NODES < count_diagrams(66) < count_diagrams(100)
        for n in (66, 10**9):
            with pytest.raises(ValueError, match=f"more than {MAX_NODES} diagrams"):
                build_hilbert_graph(n)

    def test_rejects_weight_zero(self):
        with pytest.raises(ValueError):
            build_hilbert_graph(0)

    def test_edges_are_the_cover_relations(self):
        for n in range(1, 11):
            g = build_hilbert_graph(n)
            got = {
                (g.nodes[e.from_id].hf.diagram.s, g.nodes[e.to_id].hf.diagram.s)
                for e in g.edges
            }
            fns = [HilbertFunction(d) for d in enumerate_diagrams(n)]
            assert got == cover_relations_triple_loop(fns)

    def test_transitive_closure_is_the_order(self):
        for n in range(1, 13):
            g = build_hilbert_graph(n)
            size = len(g.nodes)
            reach = [[False] * size for _ in range(size)]
            for i in range(size):
                reach[i][i] = True
            for e in g.edges:
                reach[e.from_id][e.to_id] = True
            for k in range(size):
                for i in range(size):
                    if reach[i][k]:
                        row_k = reach[k]
                        row_i = reach[i]
                        for j in range(size):
                            if row_k[j]:
                                row_i[j] = True
            for i in range(size):
                for j in range(size):
                    assert reach[i][j] == hf_leq(g.nodes[i].hf, g.nodes[j].hf)

    def test_edge_verdicts_consistent(self):
        for n in (10, 14, 17):
            g = build_hilbert_graph(n)
            for e in g.edges:
                v = e.verdict
                assert v.incident == (v.dim_ok and v.tangent_ok)
                assert v.incident == v.betti_ok
                if v.type_zero:
                    assert v.incident
                assert v.dims == (g.nodes[e.from_id].dim, g.nodes[e.to_id].dim)

    def test_every_edge_points_to_a_lower_id(self):
        # A cover's psi comes before its phi in canonical order, so the
        # enumeration order is a topological order; parsing keeps it.  The
        # edges come in (from_id, to_id) order, unsorted: each phi's covers
        # arrive in ascending psi id.
        for n in range(1, 41):
            g = build_hilbert_graph(n)
            for graph in (g, parse_graph_json(emit(g, "json"))):
                assert all(e.to_id < e.from_id for e in graph.edges), n
            pairs = [(e.from_id, e.to_id) for e in g.edges]
            assert all(a < b for a, b in zip(pairs, pairs[1:])), n

    def test_deterministic(self):
        a, b = build_hilbert_graph(14), build_hilbert_graph(14)
        assert emit(a, "json") == emit(b, "json")
        assert emit(a, "dot") == emit(b, "dot")


class TestNoncatenary:
    def test_weight3_empty(self):
        assert detect_noncatenary(build_hilbert_graph(3)) == []

    def test_weight6_chain(self):
        g = build_hilbert_graph(6)
        assert len(g.nodes) == 4
        assert detect_noncatenary(g) == []

    def test_weight17_has_pentagons(self):
        witnesses = detect_noncatenary(build_hilbert_graph(17))
        assert witnesses
        assert any(2 in lengths and 3 in lengths for _, _, lengths in witnesses)

    def test_matches_chain_enumeration_oracle(self):
        for n in range(1, 21):
            fns = [HilbertFunction(d) for d in enumerate_diagrams(n)]
            assert detect_noncatenary(build_hilbert_graph(n)) == noncatenary_by_chains(fns)

    def test_witness_counts(self):
        assert len(detect_noncatenary(build_hilbert_graph(17))) == 224
        assert len(detect_noncatenary(build_hilbert_graph(20))) == 716

    def test_matches_forward_pass_oracle(self):
        # Weights up to 34 have chains of at most 62 covers, so one word per
        # field; from 35 on each field takes two words.
        for n in [*range(1, 37), 40]:
            g = build_hilbert_graph(n)
            assert detect_noncatenary(g) == noncatenary_by_forward_passes(g), n
        longest = [max(_layers(_upper_covers(build_hilbert_graph(n)))) for n in (34, 35, 36, 40)]
        assert longest == [61, 64, 67, 79]

    def test_hand_built_pentagon(self):
        # bottom 4 -> 1 -> top 0 and bottom 4 -> 3 -> 2 -> top 0
        edges = [EdgeRecord(a, b, 0, 0, None) for a, b in [(4, 1), (1, 0), (4, 3), (3, 2), (2, 0)]]
        g = HilbertGraph(n=0, nodes=[NodeRecord(i, None, 0, None) for i in range(5)], edges=edges)
        assert detect_noncatenary(g) == [(4, 0, (2, 3))]

    def test_empty_and_isolated_nodes(self):
        assert detect_noncatenary(hand_built(0, [])) == []
        assert detect_noncatenary(hand_built(4, [])) == []
        # isolated nodes 0 and 6 around a pentagon 5 -> ... -> 1
        pentagon = [(5, 2), (2, 1), (5, 4), (4, 3), (3, 1)]
        assert detect_noncatenary(hand_built(7, pentagon)) == [(5, 1, (2, 3))]

    @pytest.mark.parametrize("length", [62, 63, 70])
    def test_long_chain_with_a_shortcut(self, length):
        # 62 covers leave the guard bit of a one-word field free, 63 need two
        # words per field, and at 70 the lengths (1, 70) span both words.
        # The chain falls from the top id to 0.
        chain = [(x + 1, x) for x in range(length)]
        g = hand_built(length + 1, chain + [(length, 0)])
        assert detect_noncatenary(g) == [(length, 0, (1, length))]
        # a second shortcut 40 -> 2 inside the chain: every x >= 40 and
        # y <= 2 are joined by two lengths, and the whole chain by three
        g = hand_built(length + 1, chain + [(length, 0), (40, 2)])
        got = detect_noncatenary(g)
        assert got == noncatenary_by_forward_passes(g)
        assert len(got) == 3 * (length - 39) and (length, 0, (1, length - 37, length)) in got

    def test_field_words_are_native_q(self):
        # _split_fields casts a row's bytes to native "Q" words of 8 bytes.
        assert memoryview(bytes(8)).cast("Q").itemsize == 8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_field_split_matches_shifts(self, k):
        rng = random.Random(k)
        width = 64 * k
        for n in (1, 2, 7, 50):
            for row in (rng.getrandbits(width * n), (1 << width * n) - 1, 1 << width * n - 1):
                keep = [rng.random() < 0.5 for _ in range(n)]
                want = [(row >> width * j) & ((1 << width) - 1) for j in range(n) if keep[j]]
                got = [
                    words if k == 1 else sum(w << 64 * t for t, w in enumerate(words))
                    for words in _split_fields(row, n, k, keep)
                ]
                assert got == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_field_flags_mark_the_nonzero_fields(self, k):
        rng = random.Random(k)
        width = 64 * k
        for n in (1, 2, 7, 50):
            ones = ((1 << width * n) - 1) // ((1 << width) - 1)
            low = (ones << width - 1) - ones
            sparse = sum(rng.getrandbits(width) << width * j for j in range(n) if rng.random() < 0.3)
            for value in (rng.getrandbits(width * n), sparse, 0, low, ones, ones << width - 2):
                value &= low
                flags = _field_flags(value, low, n, k)
                assert len(flags) == n
                assert [bool(b) for b in flags] == [
                    bool(value >> width * j & (1 << width - 1) - 1) for j in range(n)
                ]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_oracle_on_shuffled_random_dags(self, seed):
        # Random DAGs whose edges point down: a long chain from its top id to
        # 0 with random shortcuts forces one-, two- or three-word fields by
        # its length.  The same DAG with shuffled ids has edges that point
        # up, and is refused.
        rng = random.Random(seed)
        length = (20, 70, 140)[seed % 3]
        size = length + 1 + rng.randrange(15)
        pairs = {(p + 1, p) for p in range(length)}
        while len(pairs) < length + 3 * size // 2:
            a, b = sorted(rng.sample(range(size), 2))
            pairs.add((b, a))
        g = hand_built(size, sorted(pairs))
        got = detect_noncatenary(g)
        assert got == noncatenary_by_forward_passes(g)
        assert got
        ids = list(range(size))
        rng.shuffle(ids)
        shuffled = hand_built(size, sorted((ids[a], ids[b]) for a, b in pairs))
        for call in (detect_noncatenary, lambda g: emit(g, "dot")):
            with pytest.raises(ValueError, match="does not point to a lower id"):
                call(shuffled)

    def test_rejects_a_cycle(self):
        g = parse_graph_json(emit(build_hilbert_graph(4), "json"))
        e = g.edges[0]
        g.edges.append(EdgeRecord(e.to_id, e.from_id, e.u, e.v, e.verdict))
        message = f"edge {e.to_id} -> {e.from_id} does not point to a lower id of the {len(g.nodes)} nodes"
        for call in (detect_noncatenary, lambda g: emit(g, "dot")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(g)

    def test_rejects_an_edge_that_does_not_point_to_a_lower_id(self):
        # The pentagon 4 -> 1 -> 0, 4 -> 3 -> 2 -> 0 with its edge 4 -> 1
        # written as -1 -> 1, which must not be read as leaving node 4; or
        # with an edge from 5 or to -3, past its five ids; or one that points up.
        pentagon = [(1, 0), (4, 3), (3, 2), (2, 0)]
        for bad in [(-1, 1), (5, 1), (4, -3), (1, 4)]:
            g = hand_built(5, pentagon + [bad])
            message = f"edge {bad[0]} -> {bad[1]} does not point to a lower id of the 5 nodes"
            for call in (detect_noncatenary, lambda g: emit(g, "dot")):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    call(g)


class TestWitnesses:
    def test_sequence_of_one_pentagon(self):
        pentagon = [(5, 2), (2, 1), (5, 4), (4, 3), (3, 1)]
        got = detect_noncatenary(hand_built(7, pentagon))
        assert isinstance(got, Witnesses)
        assert len(got) == 1 and got
        assert list(got) == [(5, 1, (2, 3))]
        assert got == [(5, 1, (2, 3))] and got == ((5, 1, (2, 3)),)
        assert not got != [(5, 1, (2, 3))]
        assert got != [] and got != [(5, 1, (2, 3))] * 2 and got != [(5, 1, (2, 4))]
        assert got != [[5, 1, (2, 3)]] and got != {(5, 1, (2, 3))}
        assert (5, 1, (2, 3)) in got and (5, 1, (2, 4)) not in got
        assert got[0] == got[-1] == (5, 1, (2, 3))
        for position in (1, -2):
            with pytest.raises(IndexError):
                got[position]
        with pytest.raises(TypeError):
            hash(got)
        assert repr(got) == "Witnesses([(5, 1, (2, 3))])"

    def test_empty_sequence(self):
        got = detect_noncatenary(hand_built(4, []))
        assert len(got) == 0 and not got
        assert got == [] and got == () and not got != []
        assert got != [(0, 1, (1, 2))]
        assert list(got) == [] and (0, 1, (1, 2)) not in got
        for position in (0, -1):
            with pytest.raises(IndexError):
                got[position]
        assert repr(got) == "Witnesses([])"

    def test_sequence_matches_the_list(self):
        for n in range(1, 21):
            g = build_hilbert_graph(n)
            want = noncatenary_by_forward_passes(g)
            got = detect_noncatenary(g)
            assert len(got) == len(want) and bool(got) == bool(want)
            assert list(got) == want and [*reversed(got)] == want[::-1]
            assert got == want and want == got and not got != want
            assert got == detect_noncatenary(g)
            assert [got[p] for p in range(len(got))] == want
            assert [got[p] for p in range(-len(got), 0)] == want
            for position in (len(got), -len(got) - 1):
                with pytest.raises(IndexError):
                    got[position]
            assert repr(got) == f"Witnesses({want!r})"
            if want:
                i, j, lengths = want[-1]
                assert want[-1] in got and (i, j, lengths + (99,)) not in got
                assert got != want[:-1] and got != want + want[-1:]
                assert got != want[:-1] + [(i, j, lengths + (99,))]

    def test_rows_released_before_lower_sources_read(self):
        # The walk reads the sources in id order: source 6 reads its
        # witnesses before 7 and 8, after the row of 0, which has the three
        # lower covers 1, 3 and 6, has been dropped by 6, its last reader.
        chain = [(1, 0), (2, 1), (4, 2), (5, 4), (7, 5), (8, 7)]
        g = hand_built(9, chain + [(8, 4), (3, 0), (6, 0), (6, 3), (5, 3), (8, 6)])
        got = detect_noncatenary(g)
        assert got == noncatenary_by_forward_passes(g)
        assert list(got) == [
            (5, 0, (2, 4)),
            (6, 0, (1, 2)),
            (7, 0, (3, 5)),
            (8, 0, (2, 3, 4, 6)),
            (8, 1, (3, 5)),
            (8, 2, (2, 4)),
            (8, 3, (2, 3)),
            (8, 4, (1, 3)),
        ]

    def test_memory_is_bounded_by_the_frontier(self):
        # Weight 30 has 296 nodes and 24,132 witnesses.  Keeping every
        # row and one tuple per witness retains 1.7 MB and peaks at 2.1 MB.
        g = build_hilbert_graph(30)
        detect_noncatenary(hand_built(2, [(1, 0)]))  # the lazy import
        tracemalloc.start()
        try:
            got = detect_noncatenary(g)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 24_132
        assert retained < 0.5 * 2**20
        assert peak < 1.2 * 2**20


class TestEmit:
    def test_dot_weight3(self):
        text = emit(build_hilbert_graph(3), "dot").decode()
        assert text.count("style=solid") == 1
        assert "style=dashed" not in text
        assert 'label="1,1,1\\ndim 5"' in text
        assert 'label="1,2\\ndim 6"' in text

    def test_dot_weight17_has_dashed_and_marks(self):
        text = emit(build_hilbert_graph(17), "dot").decode()
        assert "style=dashed" in text
        assert text.count('label="0"') == 4

    def test_dot_bytes_of_the_small_weights(self):
        # Pins the DOT bytes of weights 1..20, concatenated in order.
        data = b"".join(emit(build_hilbert_graph(n), "dot") for n in range(1, 21))
        assert hashlib.sha256(data).hexdigest() == (
            "f963139bdfb35cca88ebedf5400dff0c51567eeac1464109c35e84c75911414e"
        )

    def test_dot_labels_render_two_digit_heights(self):
        # Weight 55 is the first with a column of height 10 (the staircase
        # 1..10), where the labels first need a two-digit decimal.
        g = build_hilbert_graph(55)
        lines = emit(g, "dot").decode().splitlines()
        labels = [re.fullmatch(r'  n(\d+) \[label="(.*)\\ndim (\d+)"\];', line) for line in lines]
        labels = [m.groups() for m in labels if m]
        assert labels == [(str(i), hf.diagram.render(), str(dim)) for i, hf, dim, _ in g.nodes]
        assert "1,2,3,4,5,6,7,8,9,10" in {label for _, label, _ in labels}

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(build_hilbert_graph(2), "svg")

    def test_json_schema(self):
        record = json.loads(emit(build_hilbert_graph(3), "json"))
        assert set(record) == {"n", "nodes", "edges"}
        assert record["n"] == 3
        node = record["nodes"][0]
        assert list(node) == ["id", "s", "h", "dim", "a", "b"]
        assert node["s"] == [1, 2] and node["h"] == [1, 3] and node["dim"] == 6
        assert node["a"] == {"2": 3} and node["b"] == {"3": 2}
        edge = record["edges"][0]
        assert list(edge) == [
            "from", "to", "u", "v",
            "incident", "dim_ok", "tangent_ok", "condition_c", "type_zero",
        ]
        assert edge["from"] == 1 and edge["to"] == 0
        assert edge["u"] == 1 and edge["v"] == 1
        assert edge["incident"] is True and edge["condition_c"] is True

    def test_json_round_trip_byte_identical(self):
        for n in (1, 3, 8, 17):
            data = emit(build_hilbert_graph(n), "json")
            assert emit(parse_graph_json(data), "json") == data
            assert data.endswith(b"\n")

    def test_json_equals_the_encoder_on_the_dict_record(self):
        # The emitter writes its bytes by hand; they must be exactly what
        # the C encoder writes for the same record built as dicts.
        graphs = [build_hilbert_graph(n) for n in (*range(1, 21), 26)]
        for g in graphs + [HilbertGraph(n=5, nodes=[], edges=[])]:
            want = json.dumps(graph_record_by_dicts(g), separators=(",", ":")) + "\n"
            assert emit(g, "json") == want.encode(), g.n

    def test_dot_layering_starts_at_the_minimum(self):
        text = emit(build_hilbert_graph(6), "dot").decode()
        lines = [l for l in text.splitlines() if "rank=same" in l]
        # the all-ones diagram is the last node id and the unique minimum
        assert lines[0] == "  { rank=same; n3; }"
        assert len(lines) == 4


class TestParseValidation:
    @staticmethod
    def record(n=8):
        return json.loads(emit(build_hilbert_graph(n), "json"))

    def check_rejected(self, record, match):
        with pytest.raises(ValueError, match=match):
            parse_graph_json(json.dumps(record))

    def test_node_ids_must_be_positions(self):
        record = self.record()
        record["nodes"][0]["id"], record["nodes"][1]["id"] = 1, 0
        self.check_rejected(record, r"nodes\[0\]\.id: 1 != 0")
        record = self.record()
        del record["nodes"][2]
        self.check_rejected(record, "not the graph of weight 8: nodes: 5 entries != 6")

    def test_edge_endpoint_in_range(self):
        record = self.record()
        record["edges"][0]["to"] = len(record["nodes"])
        self.check_rejected(record, r"edges\[0\]\.to: 6 != 0")
        record = self.record()
        record["edges"][0]["from"] = -1
        self.check_rejected(record, r"edges\[0\]\.from: -1 != 1")

    def test_dim_must_match_the_stratum(self):
        record = self.record()
        record["nodes"][0]["dim"] += 1
        self.check_rejected(record, r"nodes\[0\]\.dim: 17 != 16")

    def test_edge_must_be_a_cover_with_its_move(self):
        record = self.record()
        record["edges"][0]["v"] += 1
        self.check_rejected(record, r"edges\[0\]\.v: 4 != 3")
        record = self.record(4)
        edge = record["edges"][0]
        edge["from"], edge["to"] = edge["to"], edge["from"]
        self.check_rejected(record, r"weight 4: edges\[0\]\.from: 0 != 1")
        # a comparable pair that is not a cover: the ends of a chain of two
        record = self.record(6)
        assert [(e["from"], e["to"]) for e in record["edges"]] == [(1, 0), (2, 1), (3, 2)]
        record["edges"][2]["to"] = 1
        self.check_rejected(record, r"weight 6: edges\[2\]\.to: 1 != 2")

    def test_betti_table_must_be_the_generic_one(self):
        record = json.loads(emit(build_hilbert_graph(1), "json"))
        assert record["nodes"][0]["s"] == [1] and record["nodes"][0]["a"] == {"1": 2}
        for bad in (7, -4, "x", True, 2.0, None):
            record["nodes"][0]["a"] = {"1": bad}
            self.check_rejected(record, r"nodes\[0\]\.a\.1: " + re.escape(f"{bad!r} != 2"))
        record = self.record()
        record["nodes"][3]["b"] = {}
        self.check_rejected(record, r"nodes\[3\]\.b: keys \[\] != \['4', '7'\]")
        record = self.record()
        record["nodes"][3]["a"]["0"] = 1
        self.check_rejected(record, r"nodes\[3\]\.a: keys \['0', '2', '3', '6'\] != \['2', '3', '6'\]")

    @pytest.mark.parametrize(
        "key", ["incident", "dim_ok", "tangent_ok", "condition_c", "type_zero"]
    )
    def test_edge_flags_must_be_the_verdict(self, key):
        record = self.record(17)
        # a non-incident edge has flags of both values
        i, edge = next((i, e) for i, e in enumerate(record["edges"]) if not e["incident"])
        assert edge[key] in (True, False)
        edge[key] = not edge[key]
        self.check_rejected(record, rf"edges\[{i}\]\.{key}: {edge[key]!r} != {not edge[key]}")
        for bad in (int(not edge[key]), "true", None):
            edge[key] = bad
            self.check_rejected(record, rf"edges\[{i}\]\.{key}: {bad!r} != ")

    def test_values_and_weight_must_match_the_diagram(self):
        record = self.record()
        record["nodes"][2]["h"][0] += 1
        self.check_rejected(record, r"nodes\[2\]\.h\[0\]: 2 != 1")
        record = self.record()
        record["n"] = 9
        self.check_rejected(record, "not the graph of weight 9: nodes: 6 entries != 8")
        record = self.record()
        record["n"] = "8"
        self.check_rejected(record, "weight '8' is not an integer")
        record = self.record()
        record["nodes"][0]["s"] = [float(x) for x in record["nodes"][0]["s"]]
        self.check_rejected(record, r"nodes\[0\]\.s\[0\]: 1\.0 != 1")

    def test_nodes_and_edges_must_be_lists(self):
        for key in ("nodes", "edges"):
            for bad in ({}, "", 0):
                record = self.record()
                record[key] = bad
                self.check_rejected(record, f"weight 8: {key}: .+ != array of ")
        record = self.record()
        record["nodes"][0]["s"] = {}
        self.check_rejected(record, r"nodes\[0\]\.s: object of 0 keys != array of 4 entries")

    def test_record_must_list_every_cover(self):
        record = self.record()
        assert len(record["edges"]) == 5
        del record["edges"][2]
        self.check_rejected(record, "not the graph of weight 8: edges: 4 entries != 5")

    def test_edges_must_not_repeat(self):
        record = self.record()
        record["edges"].insert(3, record["edges"][2])
        self.check_rejected(record, "not the graph of weight 8: edges: 6 entries != 5")

    def test_edges_must_be_sorted(self):
        record = self.record()
        record["edges"][1], record["edges"][2] = record["edges"][2], record["edges"][1]
        self.check_rejected(record, r"edges\[1\]\.from: 3 != 2")

    def test_record_must_list_every_diagram(self):
        # The last node dropped together with its edges.
        record = self.record()
        last = len(record["nodes"]) - 1
        del record["nodes"][last]
        record["edges"] = [e for e in record["edges"] if last not in (e["from"], e["to"])]
        self.check_rejected(record, f"weight 8: nodes: {last} entries != {last + 1}")
        # One node too many.
        record = self.record()
        extra = dict(record["nodes"][-1], id=len(record["nodes"]))
        record["nodes"].append(extra)
        self.check_rejected(record, f"weight 8: nodes: {last + 2} entries != {last + 1}")

    def test_integers_must_be_json_integers(self):
        record = self.record()
        record["nodes"][1]["id"] = True
        self.check_rejected(record, r"nodes\[1\]\.id: True != 1")
        record = self.record()
        record["nodes"][0]["dim"] = float(record["nodes"][0]["dim"])
        self.check_rejected(record, r"nodes\[0\]\.dim: 16\.0 != 16")
        record = self.record()
        assert record["edges"][4]["u"] == 1
        record["edges"][4]["u"] = True
        self.check_rejected(record, r"edges\[4\]\.u: True != 1")

    def test_nodes_must_come_in_enumeration_order(self):
        record = self.record()
        nodes = record["nodes"]
        nodes[0], nodes[1] = nodes[1], nodes[0]
        nodes[0]["id"], nodes[1]["id"] = 0, 1
        self.check_rejected(record, r"nodes\[0\]\.s: 5 entries != 4")
        record = self.record()
        record["nodes"][1]["s"].append(0)
        self.check_rejected(record, r"nodes\[1\]\.s: 6 entries != 5")

    def test_no_key_may_be_added(self):
        # One extra key at the top level, in a node or in an edge.
        places = (
            ("record", lambda r: r),
            (r"nodes\[0\]", lambda r: r["nodes"][0]),
            (r"edges\[0\]", lambda r: r["edges"][0]),
        )
        for path, place in places:
            record = self.record()
            keys = sorted(place(record))
            place(record)["extra"] = 0
            want = re.escape(f"{sorted(keys + ['extra'])} != {keys}")
            self.check_rejected(record, f"not the graph of weight 8: {path}: keys {want}")

    def test_refusal_stays_short_for_a_huge_record(self):
        # 5,000 extra top-level keys: ten of them are shown, then a count.
        record = self.record(40)
        record.update({f"extra{i}": 0 for i in range(5000)})
        with pytest.raises(ValueError) as caught:
            parse_graph_json(json.dumps(record))
        message = str(caught.value)
        assert len(message) < 1000 and "record: keys ['edges', 'extra0'," in message
        assert message.endswith(" … and 4993 more != ['edges', 'n', 'nodes']")
        # A long scalar is cut to 80 characters of its repr, with its length.
        record = self.record()
        record["nodes"][0]["dim"] = "x" * 5000
        cut = "'" + "x" * 79
        self.check_rejected(record, re.escape(f"nodes[0].dim: {cut}… (5002 characters) != 16") + "$")

    def test_weight_past_the_node_bound(self):
        record = {"n": 66, "nodes": [], "edges": []}
        self.check_rejected(record, f"weight 66 has more than {MAX_NODES} diagrams")

    def test_deep_nesting_is_a_value_error(self):
        for text in ("[" * 100_000, "{\"n\":" * 100_000):
            with pytest.raises(ValueError, match="malformed graph record"):
                parse_graph_json(text)

    def test_malformed_record(self):
        record = self.record()
        del record["nodes"][0]["dim"]
        self.check_rejected(record, r"nodes\[0\]: keys \['a', 'b', 'h', 'id', 's'\] != \['a', 'b', 'dim'")
        self.check_rejected([], "malformed graph record")
        with pytest.raises(ValueError):
            parse_graph_json(b"{not json")
