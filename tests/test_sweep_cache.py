"""The two-staircase rule behind the sweep's Betti cache, and the functions
that the sweep and the graph build."""

import pytest

from hilbstrata import sweep
from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, iter_diagrams
from hilbstrata.graph import build_hilbert_graph
from hilbstrata.incidence import cover_moves
from hilbstrata.sweep import SweepSummary


def _staircase(s):
    """Length k of the longest staircase prefix 1, 2, ..., k of ``s``."""
    k = 0
    while k < len(s) and s[k] == k + 1:
        k += 1
    return k


def test_psi_precedes_phi_and_lengthens_its_staircase_by_at_most_one():
    for n in range(1, 31):
        rank = {s: r for r, s in enumerate(iter_diagrams(n))}
        for s in rank:
            for pair in cover_moves(CastelnuovoDiagram._unchecked(s).hilbert_function()):
                t = pair.psi.diagram.s
                assert rank[t] < rank[s]
                assert _staircase(t) - _staircase(s) in (0, 1)
                # The cache picks psi's block from the move alone.
                lengthens = pair.u == _staircase(s) and s[pair.u] == pair.u
                assert _staircase(t) == _staircase(s) + lengthens


@pytest.mark.parametrize("n", range(20, 31))
def test_serial_sweep_computes_each_table_once(monkeypatch, n):
    calls = []
    body = sweep.generic_betti

    def counted(hf):
        calls.append(hf.diagram.s)
        return body(hf)

    monkeypatch.setattr(sweep, "generic_betti", counted)
    summary = sweep.sweep_weight(n)
    assert summary.covers > 0 and summary.failures == []
    assert len(calls) == summary.diagrams == len(set(calls))


@pytest.fixture
def built(monkeypatch):
    """The heights of every ``HilbertFunction`` built while the test runs."""
    heights = []
    init = HilbertFunction.__init__

    def counted(self, diagram):
        heights.append(diagram.s)
        init(self, diagram)

    monkeypatch.setattr(HilbertFunction, "__init__", counted)
    return heights


@pytest.mark.parametrize("n", range(20, 31))
def test_serial_sweep_builds_no_psi_function(built, n):
    # Every psi was an earlier phi, so its cache entry answers for it and
    # the pair never builds psi's HilbertFunction: one per diagram, for phi.
    summary = sweep.sweep_weight(n)
    assert summary.covers > 0 and summary.failures == []
    assert built == list(iter_diagrams(n))


@pytest.mark.parametrize("n", range(20, 31))
def test_graph_builds_one_function_per_node(built, n):
    # Each edge reads psi's node by its heights and compares the two nodes'
    # rows, so the graph builds no function beyond one per node.
    g = build_hilbert_graph(n)
    assert g.edges and built == list(iter_diagrams(n))


@pytest.mark.parametrize("n", range(25, 33))
@pytest.mark.parametrize("count", (3, 7))
def test_shards_starting_inside_a_staircase_merge_to_the_serial_sweep(n, count):
    tasks = sweep._shard_tasks(n, count)
    diagrams = list(iter_diagrams(n))
    # Some shard starts inside a staircase block: the diagram before it has the same staircase.
    assert any(start and _staircase(diagrams[start - 1]) == _staircase(diagrams[start]) for _, start, _ in tasks)
    merged = SweepSummary(n=n)
    for task in tasks:
        merged.merge(sweep._sweep_chunk(task))
    assert merged == sweep.sweep_weight(n)
