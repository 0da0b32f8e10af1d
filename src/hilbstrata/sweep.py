"""Exhaustive verification sweep over all covers in a weight range.

For every cover the sweep cross-checks every independently computable
answer against every other: the dimension/tangent verdict against the
Betti criterion, the zero pattern of the Betti tables, the two
dimension-delta formulas, the per-degree numerator shifts between the two
tables, the pointwise tangent bounds and the shortcut equivalence, the
wide-move dimension law, the type-zero implication, and the
intersection-product certificates.  Any disagreement is reported as a
counterexample; a clean sweep is the reproducible evidence that the two
cover criteria agree on the whole range.

The Betti checks read each table's dense row q (q_l = a_l - b_l, see
``resolution``).  The numerator-shift check adds the move's predicted
shift to phi's row and compares the trimmed result with psi's row, which
psi's own table computed from psi's heights.  A move (u, v) adds
t^u - t^{v+1} to the height series s(t), so it adds
-(1-t)^2 (t^u - t^{v+1}) to q = 1 - (1-t)^2 s(t): (-1, 2, -1) at degrees
u..u+2 and (1, -2, 1) at v+1..v+3, six updates whatever the width (at
widths 0 and 1 the two triples overlap and add up).  The Betti dimension
delta, e + sum over i in u..v of (q_i - q_{i+3}), telescopes to
e + (q_u + q_{u+1} + q_{u+2}) - (q_{v+1} + q_{v+2} + q_{v+3}), six reads
whatever the width of the move.

The cache of a task holds one lean entry per diagram, ``cache_entry``:
its numerator row q, its dimension, its tangent row over every degree a
cover's window reads (``strata.cover_row``) and the column that names its
last reader.  The first three are all that psi's side of ``check_cover``
reads; phi's full Betti table, whose sparse counts the zero-pattern,
shortcut, wide-move and certificate checks read, is computed once when
phi is enumerated and is not kept; its four counts at a cover
(``incidence._cover_counts``) are read once and passed on.  So a cover
costs two row slices and one C-level comparison on the tangent side, and
the pair never builds psi's ``HilbertFunction`` unless psi misses the cache
or a failure is rendered.  The entry holds no verdict: each cover's
checks run on it afresh, and each row was read from its own diagram's h
and b.

Each entry is kept until its last reader.  A cover's psi is phi with
column u raised and column v+1 > u lowered, so psi comes before phi in
canonical (descending lexicographic) order, and its readers are the
diagrams psi covers.  The last of them is psi lowered at the column
``last_cover_column(psi)``, and no other reader lowers psi there, so each
entry, phi's own or one built on a miss, carries that column as its
last field and is dropped when a cover (u, v) with that u reads it.  In a
serial sweep every psi was an earlier phi and every lookup hits; a task
that starts inside a weight misses on the psi it never enumerated, and
keeps an entry whose reader lies past its stop to its end.

A parallel sweep therefore cuts each weight into as few rank ranges as
it can: one per worker.  A tenth of the covers reach a psi 587 or more
ranks back (at n = 56), so every cut costs a few hundred entries
computed twice, whatever the ranges' sizes; on 50..56 at two workers
that is 40,214 Betti tables against 36,661 serially.  Later ranks have
longer tails and cost more, so each weight's ranges are dispatched last
first, and their summaries are merged back in rank order.
"""

import os
from itertools import zip_longest

from .diagrams import CastelnuovoDiagram, HilbertFunction, _check_weight, count_diagrams, iter_diagrams
from .incidence import CoverPair, _betti_rule, _certificate, _cover_counts, cover_moves, is_type_zero
from .incidence import last_cover_column
from .resolution import BettiTable, generic_betti
from .strata import cover_excess, cover_row, stratum_dim


class SweepSummary:
    """The counts and failure descriptions of a sweep over weight ``n``, or
    over one rank range of it; ``merge`` adds another part's."""

    __slots__ = ("n", "diagrams", "covers", "incident", "type_zero", "failures")

    def __init__(self, n, diagrams=0, covers=0, incident=0, type_zero=0, failures=None):
        self.n, self.diagrams, self.covers = n, diagrams, covers
        self.incident, self.type_zero = incident, type_zero
        self.failures = [] if failures is None else failures

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is SweepSummary else NotImplemented

    def __repr__(self):
        return f"SweepSummary({', '.join(f'{k}={v!r}' for k, v in self._asdict().items())})"

    def merge(self, other: "SweepSummary"):
        self.diagrams += other.diagrams
        self.covers += other.covers
        self.incident += other.incident
        self.type_zero += other.type_zero
        self.failures.extend(other.failures)


def cache_entry(hf: HilbertFunction, betti: BettiTable, dim: int) -> tuple:
    """The data of ``hf`` that the sweep keeps: its numerator row ``q``, its
    dimension ``dim`` and its ``cover_row``, read from ``hf`` and its own
    Betti table ``betti``, and the column ``last_cover_column`` at which its
    last reader is lower, which says when the cache drops the entry."""
    return betti.q, dim, cover_row(hf, betti), last_cover_column(hf.diagram.s)


def _failure(kind: str, pair: CoverPair, detail: str = "") -> str:
    """One failure line of ``check_cover``: its kind, both diagrams of
    ``pair``, the move columns and ``detail`` if any."""
    return (
        f"{kind}: phi={pair.phi.diagram.render()} psi={pair.psi.diagram.render()} "
        f"u={pair.u} v={pair.v}{' ' + detail if detail else ''}"
    )


def check_cover(pair: CoverPair, betti_phi, entry_phi, entry_psi):
    """All cross-checks for one cover; returns failure descriptions.

    ``betti_phi`` is phi's Betti table, and ``entry_phi`` and ``entry_psi``
    are the two sides' ``cache_entry`` tuples.  A failure line is rendered
    by the module-level ``_failure`` only when its check fails: a closure
    built here would cost every cover an allocation and turn the pair, the
    columns and the failure list into cell variables, for a clean cover
    that never calls it.
    """
    phi, _, u, v = pair
    a, b = betti_phi.a, betti_phi.b
    q, dim_phi, row_phi, _ = entry_phi
    q_psi, dim_psi, row_psi, _ = entry_psi
    failures = []

    # The dimension and tangent comparisons, the independent side of every
    # equivalence below.  The two cached tangent rows are compared on the
    # window the move (u, v) decides, and the degrees where psi's exceeds
    # phi's also feed the pointwise bound.
    excess = cover_excess(row_phi, row_psi, u, v)
    dim_ok = dim_phi < dim_psi
    tangent_ok = not excess
    incident = dim_ok and tangent_ok

    # The four counts of phi that the Betti criterion, the zero pattern, the
    # shortcut, the wide-move law and the certificate share, read once.
    a_u, b_u1, a_v2, b_v3 = _cover_counts(betti_phi, u, v)
    betti_ok = _betti_rule(u, v, a_u, b_u1, a_v2, b_v3)

    if incident != betti_ok:
        detail = f"dim_ok={dim_ok} tangent_ok={tangent_ok} betti={betti_ok}"
        failures.append(_failure("criterion-equivalence", pair, detail))

    # Zero pattern and inequalities forced by a move wider than one column.
    if v >= u + 1:
        if not a.keys().isdisjoint(range(u + 1, v + 2)):
            failures.append(_failure("betti-zero-pattern", pair, "generator in the plateau range"))
        if not b.keys().isdisjoint(range(u + 2, v + 3)):
            failures.append(_failure("betti-zero-pattern", pair, "relation in the plateau range"))
        if a_u > b_u1 + 1:
            failures.append(_failure("betti-zero-pattern", pair, "a_u exceeds b_{u+1}+1"))
        if a_v2 <= 0:
            failures.append(_failure("betti-zero-pattern", pair, "a_{v+2} vanishes"))
        if b_v3 > a_v2:
            failures.append(_failure("betti-zero-pattern", pair, "b_{v+3} exceeds a_{v+2}"))

    # The two dimension-delta formulas, one over the Betti table and one
    # over the height sequence, must both give the actual difference.  The
    # Betti one, e + sum over i in u..v of q_i - q_{i+3}, telescopes to six
    # reads of phi's row.
    e = -1 if v == u else (1 if v == u + 1 else 0)
    if len(q) < v + 4:
        q += (0,) * (v + 4 - len(q))
    delta_betti = e + q[u] + q[u + 1] + q[u + 2] - q[v + 1] - q[v + 2] - q[v + 3]
    h = (0, 0) + phi.diagram.s + (0, 0)  # h[i + 2] is the height of column i
    delta_heights = (
        -h[u] + h[u + 1] + h[u + 3] - h[u + 4] + h[v + 1] - h[v + 2] - h[v + 4] + h[v + 5] + e
    )
    actual = dim_psi - dim_phi
    if actual != delta_betti:
        failures.append(_failure("dimension-delta", pair, f"betti formula gives {delta_betti}, actual {actual}"))
    if actual != delta_heights:
        failures.append(_failure("dimension-delta", pair, f"height formula gives {delta_heights}, actual {actual}"))

    # Numerator shift between the two Betti tables: phi's row plus the
    # shift the move predicts, trimmed, must be psi's row; every degree
    # where they differ is a failure.  The shift is -(1-t)^2 (t^u - t^{v+1}).
    expected = list(q)
    expected[u] -= 1
    expected[u + 1] += 2
    expected[u + 2] -= 1
    expected[v + 1] += 1
    expected[v + 2] -= 2
    expected[v + 3] += 1
    while expected and not expected[-1]:
        expected.pop()
    if tuple(expected) != q_psi:
        for l, (x, y) in enumerate(zip_longest(expected, q_psi, fillvalue=0)):
            if x != y:
                failures.append(_failure("numerator-shift", pair, f"degree {l}"))

    # Pointwise tangent bound: outside two exceptional degrees the bigger
    # stratum never gains sections.
    for m in excess:
        if m not in (u - 3, v):
            failures.append(_failure("tangent-bound", pair, f"degree {m}"))
    shortcut = a_u != 0 and b_v3 != 0
    if tangent_ok != shortcut:
        failures.append(_failure("tangent-shortcut", pair, f"windowed={tangent_ok} shortcut={shortcut}"))

    # Wide moves: the dimension comparison collapses to two equalities and,
    # when it holds, the dimensions differ by exactly one.
    if v >= u + 2:
        law = a_u == b_u1 + 1 and a_v2 == b_v3
        if dim_ok != law:
            failures.append(_failure("wide-move-dim-law", pair, f"dim_ok={dim_ok} equalities={law}"))
        if dim_ok and dim_psi != dim_phi + 1:
            failures.append(_failure("wide-move-dim-law", pair, f"dims {dim_phi}->{dim_psi}"))

    type_zero = v == u + 1 and is_type_zero(pair)  # the shape needs v = u+1
    if type_zero and not incident:
        failures.append(_failure("type-zero-incidence", pair))

    # betti_ok and the width are the preconditions of the certificate, so
    # its body is called without checking them again.
    if betti_ok and v >= u + 1 and not _certificate(u, v, a_u, b_u1, a_v2, b_v3):
        failures.append(_failure("intersection-certificate", pair))

    return incident, betti_ok, type_zero, failures


def _sweep_chunk(task):
    """Worker: run all covers whose lower diagram has a rank in the task's range.

    A task is three integers (n, start, stop); the worker enumerates its
    own range.  The cache maps a diagram's heights to its ``cache_entry``,
    whose last field is the column at which its last reader is lower, and
    a cover (u, v) with that u drops it on reading it (see the module
    docstring); a miss that phi itself reads last is not kept.
    """
    n, start, stop = task
    diagrams = covers = incident = type_zero = 0
    failures = []
    cache = {}  # heights -> cache_entry
    for s in iter_diagrams(n, start, stop):
        diagrams += 1
        phi = HilbertFunction(CastelnuovoDiagram._unchecked(s))
        betti_phi = generic_betti(phi)
        entry_phi = cache[s] = cache_entry(phi, betti_phi, stratum_dim(phi))
        for pair in cover_moves(phi):
            t = pair.psi_heights
            entry_psi = cache.get(t)
            if entry_psi is None:
                psi = pair.psi
                entry_psi = cache_entry(psi, generic_betti(psi), stratum_dim(psi))
                if entry_psi[3] != pair.u:
                    cache[t] = entry_psi
            elif entry_psi[3] == pair.u:
                del cache[t]
            cover_incident, _, cover_type_zero, found = check_cover(pair, betti_phi, entry_phi, entry_psi)
            covers += 1
            if cover_incident:
                incident += 1
            if cover_type_zero:
                type_zero += 1
            if found:
                failures.extend(found)
    return SweepSummary(n, diagrams, covers, incident, type_zero, failures)


def _shard_tasks(n: int, count: int):
    """min(count, count_diagrams(n)) tasks (n, start, stop) of near-equal,
    non-empty rank ranges that together cover the weight-n diagrams in order."""
    total = count_diagrams(n)
    count = min(count, total)
    bounds = [total * i // count for i in range(count + 1)]
    return [(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def available_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask where
    the platform reports one, else the machine's CPU count (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(requested: int, tasks: int) -> int:
    """Worker processes worth starting for ``tasks`` separable pieces of work.

    At least one, and no more than requested, than ``available_cpus()``
    or than the tasks.
    """
    return max(1, min(requested, available_cpus(), tasks))


def sweep_weight(n: int) -> SweepSummary:
    """Verify every cover of weight ``n`` in this process, streaming the diagrams."""
    return _sweep_chunk((n, 0, None))


def verify_range(n_values, workers: int = 1):
    """Sweep each weight in turn, yielding one summary per weight.

    At one worker every weight runs through ``sweep_weight`` as
    ``n_values`` gives it, so any iterable streams, an unbounded one too.
    More are clamped by ``pool_size`` against the diagram count of the
    largest weight, or of weight 100 if that is smaller (the count never
    decreases with the weight, and weight 100 has 444,793 diagrams, more
    than any CPU count), so no large weight is counted before the first
    summary; an iterable other than a ``range`` is listed for that, so it
    must be finite.  That largest weight is checked against ``MAX_WEIGHT``
    first, so a weight past it is refused before any worker starts (one
    worker refuses it on reaching it).  When more than one remain, each
    weight is cut into one contiguous rank range per worker
    (``_shard_tasks``; the module docstring says why no finer), and its
    ranges are submitted to one process pool, started with the platform's
    default method, before the previous weight's results are read, so the
    pool always holds the next weight's ranges and no weight waits at a
    barrier, while the weights are planned one ahead of the summaries, so
    a long range starts at once.  Each weight's ranges go last first, the
    costliest first.  A weight's summary is merged back in rank order and
    yielded when its ranges are back, so the summaries, the failure order
    and the output do not depend on the worker count.  A worker that dies
    breaks the pool, and the sweep raises ChildProcessError instead of
    waiting for the range it held.  However the sweep ends, its workers
    are stopped at once.
    """
    ns = n_values
    if workers > 1:
        # A range is not listed: its largest weight is one of its ends.
        ns = n_values if isinstance(n_values, range) else list(n_values)
        largest = max(ns[0], ns[-1]) if ns and isinstance(ns, range) else max(ns, default=1)
        _check_weight(largest)
        workers = pool_size(workers, count_diagrams(min(largest, 100)))
    if workers <= 1:
        yield from map(sweep_weight, ns)
        return
    # Imported here: only a parallel sweep needs them, and they add about
    # 25 ms to every import of the package.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers)
    try:
        previous = None
        for n in ns:
            parts = [pool.submit(_sweep_chunk, task) for task in reversed(_shard_tasks(n, workers))]
            if previous:
                yield _merged(*previous)
            previous = n, parts
        if previous:
            yield _merged(*previous)
    except BrokenProcessPool:
        raise ChildProcessError("a sweep worker process died, so the sweep is incomplete") from None
    finally:
        # As a multiprocessing.Pool does on leaving: a sweep that ends early
        # must not wait for a range that can run for minutes, and the
        # executor has no public way to stop one before Python 3.14.
        for process in pool._processes.values():
            process.terminate()
        pool.shutdown(cancel_futures=True)


def _merged(n: int, parts: list) -> SweepSummary:
    """The summary of weight ``n`` from the futures ``parts`` of its rank
    ranges, last first, merged in rank order."""
    summary = SweepSummary(n=n)
    for part in reversed(parts):
        summary.merge(part.result())
    return summary
