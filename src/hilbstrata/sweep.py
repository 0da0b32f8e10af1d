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
"""

import os
from dataclasses import dataclass, field
from multiprocessing import Pool

from .diagrams import CastelnuovoDiagram, count_diagrams, enumerate_diagrams
from .incidence import (
    CoverPair,
    betti_criterion,
    cover_moves,
    is_type_zero,
    verify_intersections,
)
from .resolution import generic_betti
from .strata import required_window, stratum_dim, tangent_excess


@dataclass
class SweepSummary:
    n: int
    diagrams: int = 0
    covers: int = 0
    incident: int = 0
    type_zero: int = 0
    failures: list = field(default_factory=list)

    def merge(self, other: "SweepSummary"):
        self.diagrams += other.diagrams
        self.covers += other.covers
        self.incident += other.incident
        self.type_zero += other.type_zero
        self.failures.extend(other.failures)


def _expected_numerator_shift(u: int, v: int) -> dict:
    """Per-degree change of a_l - b_l caused by the move (u, v)."""
    if v == u:
        return {u: -1, u + 1: 3, u + 2: -3, u + 3: 1}
    if v == u + 1:
        return {u: -1, u + 1: 2, v + 2: -2, v + 3: 1}
    return {u: -1, u + 1: 2, u + 2: -1, v + 1: 1, v + 2: -2, v + 3: 1}


def check_cover(pair: CoverPair, betti_phi, betti_psi, dim_phi, dim_psi):
    """All cross-checks for one cover; returns failure descriptions."""
    u, v = pair.u, pair.v
    s = pair.phi.diagram.height
    failures = []

    def fail(kind, detail=""):
        failures.append(
            f"{kind}: phi={pair.phi.diagram.render()} psi={pair.psi.diagram.render()} "
            f"u={u} v={v}{' ' + detail if detail else ''}"
        )

    # The dimension and tangent comparisons, the independent side of every
    # equivalence below.  Each tangent window is built once, on the window
    # the move (u, v) decides, and also feeds the pointwise bound.
    lo, hi = required_window(u, v)
    excess = tangent_excess(pair.phi, pair.psi, lo, hi, betti_phi, betti_psi)
    dim_ok = dim_phi < dim_psi
    tangent_ok = not excess
    incident = dim_ok and tangent_ok
    betti_ok = betti_criterion(pair, betti_phi)

    if incident != betti_ok:
        fail("criterion-equivalence", f"dim_ok={dim_ok} tangent_ok={tangent_ok} betti={betti_ok}")

    # Zero pattern and inequalities forced by a move wider than one column.
    if v >= u + 1:
        if any(betti_phi.a_at(i) for i in range(u + 1, v + 2)):
            fail("betti-zero-pattern", "generator in the plateau range")
        if any(betti_phi.b_at(i) for i in range(u + 2, v + 3)):
            fail("betti-zero-pattern", "relation in the plateau range")
        if betti_phi.a_at(u) > betti_phi.b_at(u + 1) + 1:
            fail("betti-zero-pattern", "a_u exceeds b_{u+1}+1")
        if betti_phi.a_at(v + 2) <= 0:
            fail("betti-zero-pattern", "a_{v+2} vanishes")
        if betti_phi.b_at(v + 3) > betti_phi.a_at(v + 2):
            fail("betti-zero-pattern", "b_{v+3} exceeds a_{v+2}")

    # The two dimension-delta formulas, one over the Betti table and one
    # over the height sequence, must both give the actual difference.
    e = -1 if v == u else (1 if v == u + 1 else 0)
    delta_betti = (
        sum(betti_phi.delta(i) for i in range(u, v + 1))
        - sum(betti_phi.delta(i) for i in range(u + 3, v + 4))
        + e
    )
    delta_heights = (
        -s(u - 2) + s(u - 1) + s(u + 1) - s(u + 2) + s(v - 1) - s(v) - s(v + 2) + s(v + 3) + e
    )
    if dim_psi - dim_phi != delta_betti:
        fail("dimension-delta", f"betti formula gives {delta_betti}, actual {dim_psi - dim_phi}")
    if dim_psi - dim_phi != delta_heights:
        fail("dimension-delta", f"height formula gives {delta_heights}, actual {dim_psi - dim_phi}")

    # Numerator shift per degree between the two Betti tables.
    expected = _expected_numerator_shift(u, v)
    degrees = set(betti_phi.a) | set(betti_phi.b) | set(betti_psi.a) | set(betti_psi.b) | set(expected)
    for l in degrees:
        if betti_psi.delta(l) != betti_phi.delta(l) + expected.get(l, 0):
            fail("numerator-shift", f"degree {l}")

    # Pointwise tangent bound: outside two exceptional degrees the bigger
    # stratum never gains sections.
    for m in excess:
        if m not in (u - 3, v):
            fail("tangent-bound", f"degree {m}")
    shortcut = betti_phi.a_at(u) != 0 and betti_phi.b_at(v + 3) != 0
    if tangent_ok != shortcut:
        fail("tangent-shortcut", f"windowed={tangent_ok} shortcut={shortcut}")

    # Wide moves: the dimension comparison collapses to two equalities and,
    # when it holds, the dimensions differ by exactly one.
    if v >= u + 2:
        law = (
            betti_phi.a_at(u) == betti_phi.b_at(u + 1) + 1
            and betti_phi.a_at(v + 2) == betti_phi.b_at(v + 3)
        )
        if dim_ok != law:
            fail("wide-move-dim-law", f"dim_ok={dim_ok} equalities={law}")
        if dim_ok and dim_psi != dim_phi + 1:
            fail("wide-move-dim-law", f"dims {dim_phi}->{dim_psi}")

    type_zero = is_type_zero(pair)
    if type_zero and not incident:
        fail("type-zero-incidence")

    if betti_ok and v >= u + 1 and not verify_intersections(pair, betti_phi):
        fail("intersection-certificate")

    return incident, betti_ok, type_zero, failures


def _sweep_chunk(args):
    """Worker: run all covers whose lower diagram lies in the given chunk."""
    n, chunk = args
    summary = SweepSummary(n=n, diagrams=len(chunk))
    cache = {}

    def data_for(hf):
        found = cache.get(hf.diagram.s)
        if found is None:
            found = (generic_betti(hf), stratum_dim(hf))
            cache[hf.diagram.s] = found
        return found

    for s in chunk:
        phi = CastelnuovoDiagram(s).hilbert_function()
        betti_phi, dim_phi = data_for(phi)
        for pair in cover_moves(phi):
            betti_psi, dim_psi = data_for(pair.psi)
            incident, _, type_zero, failures = check_cover(
                pair, betti_phi, betti_psi, dim_phi, dim_psi
            )
            summary.covers += 1
            summary.incident += 1 if incident else 0
            summary.type_zero += 1 if type_zero else 0
            summary.failures.extend(failures)
    return summary


def _chunks(items, count):
    size = max(1, -(-len(items) // count))
    return [items[i : i + size] for i in range(0, len(items), size)]


def pool_size(requested: int, tasks: int, cpus: int | None = None) -> int:
    """Worker processes worth starting for ``tasks`` separable pieces of work.

    At least one, and no more than requested, than the CPUs (``cpus``,
    default ``os.cpu_count()``) or than the tasks.
    """
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, tasks))


def sweep_weight(n: int, workers: int = 1, pool=None) -> SweepSummary:
    """Verify every cover of weight ``n``; deterministic regardless of workers.

    Without ``pool`` the worker count is first clamped by ``pool_size`` to
    the CPUs and to the number of diagrams.
    """
    tuples = [d.s for d in enumerate_diagrams(n)]
    if pool is None:
        workers = pool_size(workers, len(tuples))
        if workers == 1:
            return _sweep_chunk((n, tuples))
    parts = _chunks(tuples, workers * 4)
    tasks = [(n, part) for part in parts]
    if pool is not None:
        results = pool.map(_sweep_chunk, tasks)
    else:
        with Pool(workers) as local:
            results = local.map(_sweep_chunk, tasks)
    summary = SweepSummary(n=n)
    for part in results:
        summary.merge(part)
    return summary


def verify_range(n_values, workers: int = 1):
    """Sweep each weight in turn, yielding one summary per weight.

    One pool serves the whole range, sized by ``pool_size`` against the
    diagram count of the largest weight (the count never decreases with
    the weight), and started with the platform's default method.
    """
    ns = list(n_values)
    workers = pool_size(workers, count_diagrams(max(ns))) if ns else 1
    if workers == 1:
        for n in ns:
            yield sweep_weight(n)
        return
    with Pool(workers) as pool:
        for n in ns:
            yield sweep_weight(n, workers, pool=pool)
