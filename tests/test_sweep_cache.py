"""The last-reader rule behind the sweep's Betti cache: each entry is kept
until the last diagram that reads it, named by ``last_cover_column``, and
no longer; and the functions that the sweep and the graph build."""

import pytest

from hilbstrata import sweep
from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, iter_diagrams
from hilbstrata.graph import build_hilbert_graph
from hilbstrata.incidence import cover_moves, last_cover_column
from hilbstrata.sweep import SweepSummary
from oracles import last_readers


def _staircase(s):
    """Length k of the longest staircase prefix 1, 2, ..., k of ``s``."""
    k = 0
    while k < len(s) and s[k] == k + 1:
        k += 1
    return k


def test_psi_precedes_phi_and_lengthens_its_staircase_by_at_most_one():
    for n in range(1, 31):
        readers = last_readers(n)
        rank = {s: r for r, s in enumerate(readers)}
        for s in rank:
            for pair in cover_moves(HilbertFunction(CastelnuovoDiagram._unchecked(s))):
                t = pair.psi.diagram.s
                assert rank[t] < rank[s] <= rank[readers[t]]
                # The last reader is lower than psi at the first column.
                assert pair.u >= last_cover_column(t)
                assert _staircase(t) - _staircase(s) in (0, 1)


def _minimal_live(n):
    """The most entries a serial sweep of weight n must hold at once: while
    phi is swept, phi's own and every earlier diagram's whose last reader
    is phi or later."""
    readers = last_readers(n)
    rank = {s: r for r, s in enumerate(readers)}
    opened = [0] * (len(rank) + 1)  # entries that start being held at each rank
    for s, reader in readers.items():
        if reader is not None:
            opened[rank[s] + 1] += 1
            opened[rank[reader] + 1] -= 1
    held = peak = 0
    for change in opened:
        held += change
        peak = max(peak, held)
    return peak + 1


@pytest.fixture
def peak_entries(monkeypatch):
    """Runs a sweep task and returns its summary and the most cache entries
    alive at once, counted by a tuple subclass that ``cache_entry`` returns."""
    live = [0, 0]  # entries alive now, and at most

    class Counted(tuple):
        def __del__(self):
            live[0] -= 1

    body = sweep.cache_entry

    def counted(*args):
        live[0] += 1
        live[1] = max(live)
        return Counted(body(*args))

    monkeypatch.setattr(sweep, "cache_entry", counted)

    def run(task):
        live[1] = 0
        summary = sweep._sweep_chunk(task)
        assert summary.covers > 0 and summary.failures == [] and live[0] == 0
        return summary, live[1]

    return run


@pytest.mark.parametrize("n", range(30, 41))
def test_cache_holds_at_most_the_minimal_live_set_and_one(peak_entries, n):
    _, peak = peak_entries((n, 0, None))
    assert peak <= _minimal_live(n) + 1


@pytest.mark.parametrize("n", range(30, 41))
def test_a_task_holds_no_more_than_the_serial_sweep(peak_entries, n):
    # At each rank a task holds a subset of what the serial sweep holds: a
    # miss that phi itself reads last is not kept.
    _, serial = peak_entries((n, 0, None))
    for count in (2, 3):
        for task in sweep._shard_tasks(n, count):
            assert peak_entries(task)[1] <= serial


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
