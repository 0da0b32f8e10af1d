import contextlib
import inspect
import io
import itertools
import multiprocessing
import pickle
import re
import sys
import tracemalloc

import pytest

from conftest import hf
from hilbstrata import cli, incidence, sweep
from hilbstrata.diagrams import MAX_WEIGHT, count_diagrams
from hilbstrata.incidence import is_length_zero
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import stratum_dim
from hilbstrata.sweep import SweepSummary, cache_entry, check_cover, pool_size, verify_range
from oracles import betti_table_from_counts

# Real covers, named by the width of their move; all four are incident.
COVERS = {
    "v=u": ("1,1,1", "1,2"),
    "v=u+1": ("1,1,1,1", "1,2,1"),
    "v>=u+2": ("1,1,1,1,1", "1,2,1,1"),
    "type-zero": ("1,2,2,1,1,1", "1,2,2,2,1"),
}
# Not incident: b_{v+3} of phi vanishes, and the dimensions are equal.
FAILS_AT_V = ("1,2,2,2,1", "1,2,3,1,1")
# Not incident: a_u of phi vanishes, so the tangent comparison fails at u-3.
FAILS_AT_U = ("1,2,3,2,1,1", "1,2,3,2,2")


def _inputs(lower, upper):
    pair = is_length_zero(hf(lower), hf(upper))
    assert pair is not None
    return pair, generic_betti(pair.phi), generic_betti(pair.psi), stratum_dim(pair.phi), stratum_dim(pair.psi)


def _check(pair, betti_phi, betti_psi, dim_phi, dim_psi):
    """``check_cover`` with the two sides' cache entries built from these tables and dimensions."""
    entry_phi = cache_entry(pair.phi, betti_phi, dim_phi)
    return check_cover(pair, betti_phi, entry_phi, cache_entry(pair.psi, betti_psi, dim_psi))


def _failures(pair, betti_phi, betti_psi, dim_phi, dim_psi):
    return _check(pair, betti_phi, betti_psi, dim_phi, dim_psi)[3]


def _kinds(*inputs):
    return {line.split(":")[0] for line in _failures(*inputs)}


def _kind(entry):
    return entry.partition("/")[0]


def _fired(lines, entry):
    """Does a failure match ``entry``: a kind, optionally '/' and a fragment of its detail?"""
    kind, _, detail = entry.partition("/")
    return any(line.startswith(kind + ":") and detail in line for line in lines)


def _bump(table, which, degree, by):
    """A copy of ``table`` with one generator (``a``) or relation (``b``) count moved by ``by``."""
    counts = {"a": dict(table.a), "b": dict(table.b)}
    counts[which][degree] = counts[which].get(degree, 0) + by
    return betti_table_from_counts(counts["a"], counts["b"])


@pytest.mark.parametrize("cover", [*COVERS.values(), FAILS_AT_V, FAILS_AT_U])
def test_clean_inputs_give_no_failures(cover):
    pair, betti_phi, betti_psi, dim_phi, dim_psi = _inputs(*cover)
    incident, betti_ok, _, failures = _check(pair, betti_phi, betti_psi, dim_phi, dim_psi)
    assert failures == []
    assert incident == betti_ok == (cover in COVERS.values())


def test_cover_widths_and_type_zero():
    widths = {name: _inputs(*cover)[0] for name, cover in COVERS.items()}
    assert widths["v=u"].v == widths["v=u"].u
    assert widths["v=u+1"].v == widths["v=u+1"].u + 1
    assert widths["v>=u+2"].v >= widths["v>=u+2"].u + 2
    pair, betti_phi, betti_psi, dim_phi, dim_psi = _inputs(*COVERS["type-zero"])
    assert _check(pair, betti_phi, betti_psi, dim_phi, dim_psi)[2]


# (cover, mutation, failures that must appear).  A mutation gets the clean
# inputs (pair, betti_phi, betti_psi, dim_phi, dim_psi) and returns the
# corrupted ones.  An expected failure is a kind, or a kind and a fragment
# of its detail after '/' where one kind has several checks.
MUTATIONS = [
    # One Betti coefficient of psi shifted: a generator at u ...
    *[
        (cover, "psi a_u + 1", lambda p, t, s, d, e: (p, t, _bump(s, "a", p.u, 1), d, e), {"numerator-shift"})
        for cover in COVERS.values()
    ],
    # ... or a relation at v+5, which also lifts psi's tangent value at v+2.
    *[
        (
            cover,
            "psi b_{v+5} + 1",
            lambda p, t, s, d, e: (p, t, _bump(s, "b", p.v + 5, 1), d, e),
            {"numerator-shift", "tangent-bound", "tangent-shortcut", "criterion-equivalence"},
        )
        for cover in COVERS.values()
    ],
    (FAILS_AT_V, "psi b_{v+5} + 1", lambda p, t, s, d, e: (p, t, _bump(s, "b", p.v + 5, 1), d, e),
     {"numerator-shift", "tangent-bound"}),
    # dim_psi off by one.
    *[
        (cover, "dim_psi + 1", lambda p, t, s, d, e: (p, t, s, d, e + 1),
         {"dimension-delta/betti formula", "dimension-delta/height formula"})
        for cover in COVERS.values()
    ],
    (COVERS["v=u"], "dim_psi - 1", lambda p, t, s, d, e: (p, t, s, d, e - 1),
     {"dimension-delta", "criterion-equivalence"}),
    (COVERS["v>=u+2"], "dim_psi + 1", lambda p, t, s, d, e: (p, t, s, d, e + 1),
     {"dimension-delta", "wide-move-dim-law"}),
    (COVERS["v>=u+2"], "dim_psi - 1", lambda p, t, s, d, e: (p, t, s, d, e - 1),
     {"dimension-delta", "wide-move-dim-law", "criterion-equivalence"}),
    (COVERS["type-zero"], "dim_psi - 1", lambda p, t, s, d, e: (p, t, s, d, e - 1),
     {"dimension-delta", "type-zero-incidence", "criterion-equivalence"}),
    # One relation count of phi changed so that phi's tangent window moves:
    # at v+3 the shortcut moves with it and only the dimension side disagrees ...
    (FAILS_AT_V, "phi b_{v+3} + 1", lambda p, t, s, d, e: (p, _bump(t, "b", p.v + 3, 1), s, d, e),
     {"criterion-equivalence"}),
    # ... at u the window passes while a_u still vanishes ...
    (FAILS_AT_U, "phi b_u + 1", lambda p, t, s, d, e: (p, _bump(t, "b", p.u, 1), s, d, e),
     {"tangent-shortcut", "numerator-shift", "dimension-delta/betti formula"}),
    # ... and one relation fewer at v+4 lets psi win at v+1, outside the exceptional degrees.
    (FAILS_AT_V, "phi b_{v+4} - 1", lambda p, t, s, d, e: (p, _bump(t, "b", p.v + 4, -1), s, d, e),
     {"tangent-bound", "numerator-shift"}),
    # The zero pattern of phi's table around a move wider than one column.
    *[
        (COVERS[name], "phi a_{u+1} + 1", lambda p, t, s, d, e: (p, _bump(t, "a", p.u + 1, 1), s, d, e),
         {"betti-zero-pattern/generator in the plateau", "numerator-shift"})
        for name in ("v=u+1", "v>=u+2", "type-zero")
    ],
    *[
        (COVERS[name], "phi b_{u+2} + 1", lambda p, t, s, d, e: (p, _bump(t, "b", p.u + 2, 1), s, d, e),
         {"betti-zero-pattern/relation in the plateau", "numerator-shift"})
        for name in ("v=u+1", "v>=u+2")
    ],
    (COVERS["v=u+1"], "phi a_u + 2", lambda p, t, s, d, e: (p, _bump(t, "a", p.u, 2), s, d, e),
     {"betti-zero-pattern/a_u exceeds", "numerator-shift"}),
    (COVERS["v=u+1"], "phi a_{v+2} - 1", lambda p, t, s, d, e: (p, _bump(t, "a", p.v + 2, -1), s, d, e),
     {"betti-zero-pattern/a_{v+2} vanishes", "numerator-shift"}),
    (COVERS["v>=u+2"], "phi b_{v+3} + 1", lambda p, t, s, d, e: (p, _bump(t, "b", p.v + 3, 1), s, d, e),
     {"betti-zero-pattern/b_{v+3} exceeds", "wide-move-dim-law", "criterion-equivalence"}),
]


@pytest.mark.parametrize(
    "cover,label,mutate,expected",
    MUTATIONS,
    ids=[f"{cover[0]}->{cover[1]}:{label}" for cover, label, _, _ in MUTATIONS],
)
def test_corrupted_inputs_fire_the_expected_failures(cover, label, mutate, expected):
    lines = _failures(*mutate(*_inputs(*cover)))
    assert [entry for entry in expected if not _fired(lines, entry)] == []


@pytest.mark.parametrize("cover", COVERS.values())
def test_numerator_shift_names_exactly_the_corrupted_degree(cover):
    pair, betti_phi, betti_psi, dim_phi, dim_psi = _inputs(*cover)
    lines = _failures(pair, betti_phi, _bump(betti_psi, "b", pair.v + 5, 1), dim_phi, dim_psi)
    shifts = [line for line in lines if line.startswith("numerator-shift:")]
    assert len(shifts) == 1 and shifts[0].endswith(f" degree {pair.v + 5}")


@pytest.mark.parametrize("name", ["v=u+1", "v>=u+2", "type-zero"])
def test_failed_certificate_is_reported(monkeypatch, name):
    monkeypatch.setattr(sweep, "_certificate", lambda u, v, *counts: False)
    assert _kinds(*_inputs(*COVERS[name])) == {"intersection-certificate"}


def test_certificate_is_not_asked_of_one_column_moves(monkeypatch):
    monkeypatch.setattr(sweep, "_certificate", lambda u, v, *counts: False)
    assert _kinds(*_inputs(*COVERS["v=u"])) == set()


def test_sweep_evaluates_each_certificate_once(monkeypatch):
    # check_cover already holds the Betti verdict, so it calls the
    # certificate's body; the public check, which evaluates the Betti
    # criterion again, must not run under any name a module binds it to.
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called the public verify_intersections")

    public = incidence.verify_intersections
    for name, module in list(sys.modules.items()):
        if name == "hilbstrata" or name.startswith("hilbstrata."):
            for key, value in list(vars(module).items()):
                if value is public:
                    monkeypatch.setattr(module, key, refuse)
    calls = []
    body = sweep._certificate

    def counted(u, v, *counts):
        calls.append((u, v))
        return body(u, v, *counts)

    monkeypatch.setattr(sweep, "_certificate", counted)
    summary = sweep.sweep_weight(20)
    assert summary.failures == [] and summary.covers > 0
    assert calls and all(v >= u + 1 for u, v in calls)


def test_every_failure_kind_is_exercised():
    emitted = set(re.findall(r'fail\("([a-z-]+)"', inspect.getsource(check_cover)))
    exercised = {_kind(entry) for _, _, _, expected in MUTATIONS for entry in expected}
    exercised.add("intersection-certificate")
    assert len(emitted) == 9
    assert emitted == exercised


def test_summaries_do_not_share_a_failure_list():
    first, second = SweepSummary(n=3), SweepSummary(n=3)
    first.failures.append("x")
    assert second.failures == [] and first != second
    assert SweepSummary(n=3) != (3, 0, 0, 0, 0, [])


def test_merge_adds_every_counter_and_extends_failures_in_order():
    total = SweepSummary(5, 1, 2, 3, 4, ["a"])
    total.merge(SweepSummary(n=5, diagrams=10, covers=20, incident=30, type_zero=40, failures=["b", "c"]))
    assert total == SweepSummary(5, 11, 22, 33, 44, ["a", "b", "c"])
    assert repr(total) == (
        "SweepSummary(n=5, diagrams=11, covers=22, incident=33, type_zero=44, failures=['a', 'b', 'c'])"
    )


def test_summary_pickles_to_an_equal_summary():
    # The parallel sweep sends each range's summary back pickled.
    summary = sweep.sweep_weight(12)
    summary.failures.append("kind: detail")
    copy = pickle.loads(pickle.dumps(summary))
    assert copy == summary and copy.failures is not summary.failures


def _cpus(monkeypatch, cpus):
    """Make ``sweep.available_cpus`` report ``cpus``."""
    monkeypatch.setattr(sweep, "available_cpus", lambda: cpus)


class TestPoolSize:
    def test_clamped_by_cpus(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert pool_size(8, tasks=100) == 2

    def test_clamped_by_tasks(self, monkeypatch):
        _cpus(monkeypatch, 16)
        assert pool_size(8, tasks=3) == 3

    def test_request_below_both_limits(self, monkeypatch):
        _cpus(monkeypatch, 16)
        assert pool_size(3, tasks=100) == 3

    def test_at_least_one(self, monkeypatch):
        _cpus(monkeypatch, 4)
        assert pool_size(1, tasks=0) == 1
        _cpus(monkeypatch, 0)
        assert pool_size(4, tasks=5) == 1

    def test_default_cpus_is_the_machine(self):
        assert 1 <= pool_size(2, tasks=2) <= 2

    def test_default_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert sweep.available_cpus() == 3
        assert pool_size(8, tasks=100) == 3

    def test_without_an_affinity_mask_the_machine_counts(self, monkeypatch):
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 6)
        assert sweep.available_cpus() == 6 and pool_size(8, tasks=100) == 6
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert sweep.available_cpus() == 1

    def test_clamp_counts_no_weight_above_100(self, monkeypatch):
        # The first summary of the longest range two workers accept comes
        # without counting the diagrams of its largest weight.
        counted = []

        def recording_count(n):
            counted.append(n)
            return count_diagrams(n)

        monkeypatch.setattr(sweep, "count_diagrams", recording_count)
        _stand_in_pool(monkeypatch)
        first = next(verify_range(range(1, MAX_WEIGHT + 1), workers=2))
        assert (first.n, first.diagrams, first.failures) == (1, 1, [])
        assert counted and max(counted) <= 100

    def test_a_range_is_not_listed(self):
        # A list of a million weights would hold about 36 MB.
        tracemalloc.start()
        try:
            first = next(verify_range(range(1, 10**6), workers=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (first.n, first.diagrams, first.failures) == (1, 1, [])
        assert peak < 2**20

    def test_ranges_and_other_iterables_give_the_same_summaries(self):
        def seen(ns):
            return [(s.n, s.diagrams, s.covers, s.failures) for s in verify_range(ns, workers=1)]

        for ns in (range(1, 9), range(8, 0, -1), range(2, 9, 3), range(5, 5)):
            assert seen(ns) == seen(list(ns)) == seen(iter(ns))

    def test_a_serial_sweep_pulls_each_weight_as_it_sweeps_it(self):
        # A generator that refuses to run ahead of the summaries read, and
        # an unbounded count.
        read = []

        def guarded():
            for n in itertools.count(1):
                if n > len(read) + 1:
                    raise AssertionError(f"weight {n} pulled before summary {n - 1} was read")
                yield n

        for summary in verify_range(guarded(), workers=1):
            read.append(summary.n)
            if len(read) == 6:
                break
        assert read == [1, 2, 3, 4, 5, 6]
        assert next(verify_range(itertools.count(3), workers=1)).n == 3


def test_verify_workers_default_to_the_affinity_mask(monkeypatch):
    # The default is read when verify runs, and passed on to the sweep.
    requested = []

    def fake_range(ns, workers):
        requested.append(workers)
        return iter(())

    monkeypatch.setattr(cli, "verify_range", fake_range)
    for mask in ({0}, {1, 2, 3}):
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid, mask=mask: mask, raising=False)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--n-max", "3"]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--n-max", "3", "--workers", "5"]) == 0
    assert requested == [1, 3, 5]


def test_small_range_runs_without_a_pool(monkeypatch):
    # Weight 2 has a single diagram, so two requested workers clamp to one.
    def no_pool(*args, **kwargs):
        raise AssertionError("no worker process should start")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    summaries = list(verify_range(range(1, 3), workers=2))
    assert [(s.n, s.diagrams, s.failures) for s in summaries] == [(1, 1, []), (2, 1, [])]


def test_a_weight_past_the_bound_starts_no_pool(monkeypatch):
    # Two workers would be worth starting; the weight is refused first.
    def no_pool(*args, **kwargs):
        raise AssertionError("no worker process should start")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(ValueError, match=r"^weight 100001 exceeds 100000, the largest weight"):
        list(verify_range(range(100_001, 100_002), workers=2))


def _stand_in_pool(monkeypatch, workers=2):
    """Put an in-process stand-in for ``multiprocessing.Pool`` on a host
    with ``workers`` CPUs; returns the list it records the tasks in, each
    as its result is asked for."""
    tasks = []

    class RecordingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable):
            for task in iterable:
                tasks.append(task)
                yield func(task)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(sweep, "available_cpus", lambda: workers)
    return tasks


def _dispatched(monkeypatch, weights, workers=2):
    """The summaries of a ``workers``-worker ``verify_range`` over
    ``weights`` on a host with that many CPUs, and the tasks it dispatched,
    recorded by ``_stand_in_pool``."""
    tasks = _stand_in_pool(monkeypatch, workers)
    return list(verify_range(weights, workers=workers)), tasks


def test_parallel_sweep_plans_one_weight_at_a_time(monkeypatch):
    # A stand-in pool that reads its tasks only as results are asked for:
    # the first summary of the longest range two workers accept, 100,000
    # weights, comes after planning weight 1.
    planned = []
    plan = sweep._shard_tasks

    def recording_plan(n, count):
        planned.append((n, count))
        return plan(n, count)

    _stand_in_pool(monkeypatch)
    monkeypatch.setattr(sweep, "_shard_tasks", recording_plan)
    first = next(verify_range(range(1, MAX_WEIGHT + 1), workers=2))
    assert (first.n, first.diagrams, first.failures) == (1, 1, [])
    assert planned == [(1, 2)]


def test_shard_tasks_are_as_many_as_the_workers_or_the_diagrams():
    for n in range(1, 12):
        for count in range(1, 9):
            tasks = sweep._shard_tasks(n, count)
            assert len(tasks) == min(count, count_diagrams(n))
            assert [lo for _, lo, _ in tasks] + [count_diagrams(n)] == [0] + [hi for _, _, hi in tasks]
            assert all(lo < hi for _, lo, hi in tasks)


def test_parallel_sweep_dispatches_last_first_and_merges_in_rank_order(monkeypatch):
    # Every cover fails once, by name, so the merged failure order shows.
    def named(pair, betti_phi, entry_phi, entry_psi):
        incident, betti_ok, type_zero, _ = check_cover(pair, betti_phi, entry_phi, entry_psi)
        return incident, betti_ok, type_zero, [f"cover: phi={pair.phi.diagram.render()} u={pair.u} v={pair.v}"]

    monkeypatch.setattr(sweep, "check_cover", named)
    weights = range(20, 27)
    summaries, tasks = _dispatched(monkeypatch, weights)
    assert tasks == [task for n in weights for task in reversed(sweep._shard_tasks(n, 2))]
    assert len(tasks) == 2 * len(weights)
    serial = [sweep.sweep_weight(n) for n in weights]
    assert all(len(s.failures) == s.covers > 0 for s in serial)
    assert summaries == serial


def test_two_worker_plan_pins_its_betti_tables(monkeypatch):
    # A range misses the cache on the psi that lie in an earlier range, so
    # the 2-worker plan computes more tables than the serial sweep (one per
    # diagram) and fewer than the old plan of 8 ranges per weight.
    calls = []
    body = sweep.generic_betti

    def counted(hf):
        calls.append(hf)
        return body(hf)

    monkeypatch.setattr(sweep, "generic_betti", counted)
    weights = range(40, 47)
    _dispatched(monkeypatch, weights)
    plan = len(calls)
    calls.clear()
    for n in weights:
        sweep.sweep_weight(n)
    serial = len(calls)
    calls.clear()
    for task in [task for n in weights for task in sweep._shard_tasks(n, 8)]:
        sweep._sweep_chunk(task)
    assert plan == 12_318
    assert serial == sum(map(sweep.count_diagrams, weights)) == 11_577
    assert serial < plan < len(calls) == 16_789


def test_shard_tasks_run_under_spawn(monkeypatch):
    # A task is three integers, so it reaches a worker started by any
    # method, and the merged shards equal the in-process sweep.
    weights = range(1, 13)
    _, tasks = _dispatched(monkeypatch, weights)
    assert all(type(task) is tuple and [type(x) for x in task] == [int] * 3 for task in tasks)
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        parts = pool.map(sweep._sweep_chunk, tasks)
    merged = {n: SweepSummary(n=n) for n in weights}
    for (n, _, _), part in sorted(zip(tasks, parts)):
        merged[n].merge(part)
    assert list(merged.values()) == [sweep.sweep_weight(n) for n in weights]
