"""Claims at every weight, each with what proves it.

The cover counts of every weight, all together and by the width v - u of
the move, are the coefficients of closed-form generating functions
(``oracles.cover_series``); the sweep's counts are checked against them.
Three facts that the weight-17 graph shows hold from an exact threshold
on, each carried to every larger weight by an explicit family whose proof
is in its test: non-catenary intervals from weight 13, non-incident
covers from weight 8, and type-zero covers at weights 8, 10 and from 12.
The families are checked at every weight up to 60.
"""

from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, hf_leq, iter_diagrams
from hilbstrata.graph import build_hilbert_graph, detect_noncatenary
from hilbstrata.incidence import cover_moves, is_length_zero, is_type_zero, resolve_incidence
from hilbstrata.sweep import sweep_weight
from oracles import cover_series

TOP = 60


def _hf(s):
    return HilbertFunction(CastelnuovoDiagram(s))


def test_cover_counts_by_width_equal_the_series():
    total, *by_width = cover_series(40)
    for n in range(1, 41):
        counts = [0, 0, 0]
        for s in iter_diagrams(n):
            for pair in cover_moves(HilbertFunction(CastelnuovoDiagram._unchecked(s))):
                counts[min(pair.v - pair.u, 2)] += 1
        assert counts == [series[n] for series in by_width], n
        assert sum(counts) == total[n], n


def test_no_noncatenary_interval_below_weight_13():
    for n in range(1, 13):
        assert len(detect_noncatenary(build_hilbert_graph(n))) == 0, n
    assert len(detect_noncatenary(build_hilbert_graph(13))) == 26


def _interval(x, j):
    """The functions between ``x`` and ``j``, each mapped to the set of
    lengths of the cover chains from ``x`` to it: a walk up the covers that
    stays below ``j``, then read in order of the sum of the values up to
    the last column of any of them, which every cover raises."""
    found = {x}
    todo = [x]
    while todo:
        for pair in cover_moves(todo.pop()):
            z = pair.psi
            if z not in found and hf_leq(z, j):
                found.add(z)
                todo.append(z)
    top = max(len(f.transient) for f in found)
    lengths = {x: {0}}
    for y in sorted(found, key=lambda f: sum(map(f.value, range(top)))):
        for pair in cover_moves(y):
            if pair.psi in found:
                lengths.setdefault(pair.psi, set()).update(l + 1 for l in lengths[y])
    return lengths


def test_pentagon_interval_at_every_weight_from_13():
    """[x_t, j_t] with x_t = (1,2,3,3,2,1,1, 1^t) and j_t = (1,2,3,4,2,1,
    1^t), of weight 13 + t, has exactly five elements, and its two maximal
    chains have lengths 2 and 3.

    Proof.  j_t is x_t with column 3 raised and the last column, 6+t,
    removed, so h(j_t) - h(x_t) is 1 on [3, 5+t] and 0 elsewhere.  A
    function z between them is h(x_t) plus the indicator of a set of
    degrees in [3, 5+t], so its heights are x_t's raised at the first
    column of each run of that set and lowered just past each run, raises
    and lowerings alternating.  So only columns 3, 4 and 5 can be raised
    (a raised column 6..5+t would stand above its left neighbour, a one),
    and only columns 4 and 6+t can be lowered (a lowered column 5..5+t
    would drop to 0 before a column of height 1).  One run gives
    (3, 4), (3, 6+t), (4, 6+t) or (5, 6+t); two runs would need (3, 4)
    and then 5 raised, a column of height 2 right of one of height 1.
    So the interval is x_t, A = (1,2,3,4,1,1,1, 1^t),
    C = (1,2,3,3,2,2, 1^t), B = (1,2,3,3,3,1, 1^t) and j_t, whatever t:
    x_t < C < B < j_t and x_t < A < j_t, with A comparable to neither B
    nor C.
    """
    for t in range(TOP - 12):
        tail = (1,) * t
        x, j = _hf((1, 2, 3, 3, 2, 1, 1) + tail), _hf((1, 2, 3, 4, 2, 1) + tail)
        lengths = _interval(x, j)
        between = {
            _hf((1, 2, 3, 4, 1, 1, 1) + tail),
            _hf((1, 2, 3, 3, 2, 2) + tail),
            _hf((1, 2, 3, 3, 3, 1) + tail),
        }
        assert set(lengths) == {x, j} | between, t
        assert lengths[j] == {2, 3}, t


def test_every_cover_is_incident_below_weight_8():
    for n in range(3, 8):  # weights 1 and 2 have one diagram each
        summary = sweep_weight(n)
        assert summary.covers > 0 and summary.incident == summary.covers, n


def test_weight_8_has_exactly_one_non_incident_cover():
    outside = []
    for s in iter_diagrams(8):
        for pair in cover_moves(HilbertFunction(CastelnuovoDiagram._unchecked(s))):
            verdict = resolve_incidence(pair)
            if not verdict.incident:
                outside.append((pair.phi.diagram.s, pair.psi_heights, pair.u, pair.v, verdict.dims))
    assert outside == [((1, 2, 2, 2, 1), (1, 2, 3, 1, 1), 2, 2, (13, 13))]
    summary = sweep_weight(8)
    assert summary.covers - summary.incident == 1


def test_non_incident_cover_at_every_weight_from_9():
    """(1,2,2, 1^{4+t}) -> (1,2,2,2, 1^{2+t}), of weight 9 + t, is a cover
    (3, 5+t) that is not incident.

    Proof.  Column 3 is addable (1 < 2), the last column 6+t is removable,
    and the ones between are neither, so the move is a cover.  Its width
    is 2 + t >= 2, and by the width algebra (``tests/test_all_n.py``, L2)
    its dimension delta is -d1 - e2 with d1 = s_1 - s_2 = 0 and
    e2 = s_{v+2} - s_{v+3} = 0: the dimensions are equal.
    """
    for t in range(TOP - 8):
        pair = is_length_zero(_hf((1, 2, 2) + (1,) * (4 + t)), _hf((1, 2, 2, 2) + (1,) * (2 + t)))
        assert pair is not None and (pair.u, pair.v) == (3, 5 + t), t
        verdict = resolve_incidence(pair)
        assert not verdict.incident and not verdict.dim_ok, t
        assert verdict.dims[0] == verdict.dims[1], t


def test_type_zero_covers_up_to_weight_12_only_at_8_10_and_12():
    assert [n for n in range(1, 13) if sweep_weight(n).type_zero] == [8, 10, 12]


def test_type_zero_families_at_every_weight_from_12():
    """(1, 2^k, 1,1,1) -> (1, 2^k, 2, 1), of even weight 4 + 2k >= 8, and
    (1,2,3, 2^m, 1,1,1) -> (1,2,3, 2^m, 2, 1), of odd weight 9 + 2m >= 13,
    are incident type-zero covers.

    Proof.  Each phi is the type-zero shape at height h = 1 with
    u = v - 1 the first of its three last columns: a wall of two columns
    of height 2 (k, m >= 2) on the left, a plateau of three ones, and
    nothing to the right.  The move takes the last square to column u.
    The two drops of the width algebra (``tests/test_all_n.py``, L2) are
    d1 = 2 - 2 = 0 and e2 = 0, so the dimension grows by 1 - d1 - e2 = 1.
    The numerator row has q_u = -(1 - 2*2 + 2) = 1 > 0 and
    q_{v+3} = -(0 - 0 + 1) = -1 < 0, so L1's shortcut says the tangent
    comparison holds.  At weights 9 and 11 no type-zero shape fits: with
    h = 1 the columns left of u weigh n - 3 and end in a wall of two
    equal columns of height at least 2, and no diagram of weight 6 or 8
    does; with h >= 2 the shape weighs at least 17.
    """
    for n in range(8, TOP + 1):
        if n % 2 == 0:
            k = (n - 4) // 2
            phi, psi = (1,) + (2,) * k + (1, 1, 1), (1,) + (2,) * k + (2, 1)
        elif n >= 13:
            m = (n - 9) // 2
            phi, psi = (1, 2, 3) + (2,) * m + (1, 1, 1), (1, 2, 3) + (2,) * m + (2, 1)
        else:
            continue
        pair = is_length_zero(_hf(phi), _hf(psi))
        assert pair is not None and pair.v == pair.u + 1 and is_type_zero(pair), n
        verdict = resolve_incidence(pair)
        assert verdict.incident and verdict.type_zero, n
