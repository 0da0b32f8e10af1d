"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every check is exact integer arithmetic, no tolerances anywhere.
"""

import time
from contextlib import contextmanager

from conftest import hf
from hilbstrata.diagrams import (
    CastelnuovoDiagram,
    HilbertFunction,
    enumerate_diagrams,
    parse_hilbert_function,
)
from hilbstrata.graph import build_hilbert_graph, detect_noncatenary, emit
from hilbstrata.incidence import (
    betti_criterion,
    chow_product,
    cover_moves,
    is_length_zero,
    resolve_incidence,
    verify_intersections,
)
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import stratum_dim
from hilbstrata.sweep import available_cpus, sweep_weight, verify_range
from oracles import (
    count_distinct_partitions,
    cover_relations_triple_loop,
    cover_series,
    greedy_maximal_diagram,
)


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL: {description} ({time.time() - start:.1f}s)")
        raise
    print(f"criterion {number} PASS: {description} ({time.time() - start:.1f}s)")


def test_criterion_1_enumeration_counts():
    with criterion(1, "diagram counts equal distinct-part partition counts, n <= 40"):
        for n in range(1, 41):
            assert len(enumerate_diagrams(n)) == count_distinct_partitions(n)
        assert len(enumerate_diagrams(3)) == 2
        assert len(enumerate_diagrams(17)) == 38


def test_criterion_2_criteria_equivalence_sweep_to_70():
    with criterion(2, "dimension+tangent verdict equals Betti criterion on every cover, n <= 70"):
        workers = available_cpus()
        series = cover_series(70)[0]
        covers = 0
        for summary in verify_range(range(1, 71), workers=workers):
            assert summary.failures == [], summary.failures[:5]
            assert summary.covers == series[summary.n], summary.n
            covers += summary.covers
        assert covers > 900_000


def test_criterion_3_identity_suite_to_25():
    with criterion(3, "Betti/dimension/tangent identities, exhaustive n <= 25"):
        for n in range(1, 26):
            # per-diagram identities between the Betti table and the heights
            for d in enumerate_diagrams(n):
                t = generic_betti(HilbertFunction(d))
                acc = 0
                for l in range(0, len(d.s) + 4):
                    acc += t.a.get(l, 0) - t.b.get(l, 0)
                    assert acc == 1 + d.height(l - 1) - d.height(l)
                    if l > 0:
                        assert t.a.get(l, 0) - t.b.get(l, 0) == (
                            -d.height(l) + 2 * d.height(l - 1) - d.height(l - 2)
                        )
            # per-cover identities: numerator shifts, zero pattern, both
            # dimension-delta formulas, tangent bounds and the shortcut,
            # the wide-move dimension law
            summary = sweep_weight(n)
            assert summary.failures == [], summary.failures[:5]


def test_criterion_4_known_instances():
    with criterion(4, "pinned instances resolve as published"):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        verdict = resolve_incidence(pair)
        assert verdict.incident and verdict.dims == (5, 6)

        pair = is_length_zero(hf("1,2,3,4,2,1,1"), hf("1,2,3,4,2,2"))
        verdict = resolve_incidence(pair)
        assert not verdict.incident
        assert not verdict.tangent_ok
        assert generic_betti(pair.phi).a.get(pair.u, 0) == 0

        pair = is_length_zero(
            parse_hilbert_function("1,3,6,10,14,15,16,17,.."),
            parse_hilbert_function("1,3,6,10,14,16,17,.."),
        )
        verdict = resolve_incidence(pair)
        assert verdict.type_zero and verdict.incident


def test_criterion_5_weight17_graph():
    with criterion(5, "weight-17 graph: 38 nodes, a dashed edge, a pentagon"):
        g = build_hilbert_graph(17)
        assert len(g.nodes) == 38
        assert any(not e.verdict.incident for e in g.edges)
        dot = emit(g, "dot").decode()
        assert "style=dashed" in dot
        witnesses = detect_noncatenary(g)
        assert any(2 in lengths and 3 in lengths for _, _, lengths in witnesses)


def test_criterion_6_cover_oracle_equivalence():
    with criterion(6, "square-move covers equal definitional covers, n <= 12"):
        for n in range(1, 13):
            fns = [HilbertFunction(d) for d in enumerate_diagrams(n)]
            via_moves = {
                (p.phi.diagram.s, p.psi.diagram.s)
                for f in fns
                for p in cover_moves(f)
            }
            assert via_moves == cover_relations_triple_loop(fns)


def test_criterion_7_intersection_products():
    with criterion(7, "intersection certificates for every qualifying cover, n <= 30"):
        seen = 0
        for n in range(1, 31):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
                table = generic_betti(phi)
                for pair in cover_moves(phi):
                    u, v = pair.u, pair.v
                    if v < u + 1 or not betti_criterion(pair, table):
                        continue
                    seen += 1
                    assert verify_intersections(pair, table)
                    if v >= u + 2:
                        caps = (table.a.get(u, 0), 3, table.b.get(v + 3, 0))
                        product = chow_product(
                            caps,
                            [
                                ((1, 1, 1), 1),
                                ((0, 1, 1), table.a.get(v + 2, 0)),
                                ((1, 1, 0), table.b.get(u + 1, 0)),
                            ],
                        )
                        monomial = (table.b.get(u + 1, 0), 2, table.a.get(v + 2, 0) - 1)
                        assert product.get(monomial, 0) > 0
        assert seen > 200


def test_criterion_8_dimension_anchors():
    with criterion(8, "extreme strata have dimensions 2n and n+2"):
        for n in range(1, 31):
            top = greedy_maximal_diagram(n)
            assert top == enumerate_diagrams(n)[0]
            assert stratum_dim(HilbertFunction(top)) == 2 * n
        for n in range(3, 31):
            bottom = HilbertFunction(CastelnuovoDiagram((1,) * n))
            assert stratum_dim(bottom) == n + 2
