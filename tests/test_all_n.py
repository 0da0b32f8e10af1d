"""Local lemmas behind the cover criteria, checked away from any one weight.

Each check reads only the counts a cover's window holds, so it holds for
every n whose covers carry counts inside the box or the shapes checked.
Write A = a_{v+2} and B = b_{u+1} for the counts of phi's generic table.
L1, the tangent shortcut, is a finite check over clamped numerator rows;
L2, the width algebra, is derived in its test's docstring and checked on
every cover up to a weight; L3, the telescoped dimension delta and the
numerator shift, is checked on a basis of height vectors, so for every
weight; the width-0 case follows from L1 and L3, and the width-1 and wide
cases from L1, L2 and the rule's branches, derived in their tests'
docstrings and checked over a box of drops and on every cover up to a
weight; L4 is derived for every count in its test's docstring, and its
binomial steps are checked over a box of counts;
L5's counts are derived from the type-zero shape in its test's docstring
and checked over a box of shapes, and on every type-zero cover up to a
weight.
"""

from itertools import combinations_with_replacement, product
from math import comb

from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, iter_diagrams
from hilbstrata.incidence import (
    CoverPair,
    _betti_rule,
    _cover_counts,
    betti_criterion,
    chow_product,
    cover_moves,
    is_type_zero,
    resolve_incidence,
    verify_intersections,
)
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import cover_excess, cover_row, stratum_dim
from oracles import betti_table_from_counts

# Every count 0..12.  The box reaches past every count the sweep has seen:
# the largest of the four counts on any certified cover (v >= u + 1, Betti
# criterion accepted) with n <= 60 is 10, over 47,661 covers.
COUNTS = range(13)
U = 1


def _accepted(width):
    """Every (a_u, B, A, b_{v+3}) in the box that the Betti rule accepts at
    ``width`` = v - u, with its hand-built table and a pair of that move
    (the certificate reads only the pair's u and v)."""
    v = U + width
    pair = CoverPair(None, (), U, v)
    for a_u, b_u1, a_v2, b_v3 in product(COUNTS, repeat=4):
        if _betti_rule(U, v, a_u, b_u1, a_v2, b_v3):
            table = betti_table_from_counts({U: a_u, v + 2: a_v2}, {U + 1: b_u1, v + 3: b_v3})
            yield (a_u, b_u1, a_v2, b_v3), table, pair


def test_l4_every_accepted_tuple_is_certified():
    for width, accepted in ((1, 420), (2, 144), (3, 144)):
        seen = 0
        for counts, table, pair in _accepted(width):
            assert verify_intersections(pair, table), (width, counts)
            seen += 1
        assert seen == accepted, width


def test_l4_one_column_product_is_nonzero_exactly_when_a_split_fits():
    # (s+t)^A (r+s)^B under caps (a_u, 3, b_{v+3}): exponents never fall,
    # so a monomial survives when it fits, and it takes j1 s's from the
    # first power and j2 from the second, at most two in all.
    checked = 0
    for a_u, b_v3 in product(COUNTS[1:], repeat=2):
        for big_a, big_b in product(COUNTS, repeat=2):
            prod = chow_product((a_u, 3, b_v3), [((0, 1, 1), big_a), ((1, 1, 0), big_b)])
            fits = any(
                big_b - j2 < a_u and big_a - j1 < b_v3
                for j1 in range(min(big_a, 2) + 1)
                for j2 in range(min(big_b, 2 - j1) + 1)
            )
            assert bool(prod) == fits, (a_u, big_b, big_a, b_v3)
            checked += 1
    assert checked == 24_336


def test_l4_wide_product_carries_the_closed_form_coefficient():
    # At v >= u + 2 the rule gives a_u = B + 1 and b_{v+3} = A >= 1, so
    # r^B s^2 t^(A-1) fits the caps, and its coefficient in
    # (r+s+t)(s+t)^A (r+s)^B is AB + A + A(A-1)/2.
    for width in (2, 3):
        seen = 0
        for (a_u, big_b, big_a, b_v3), _, _ in _accepted(width):
            got = chow_product((a_u, 3, b_v3), [((1, 1, 1), 1), ((0, 1, 1), big_a), ((1, 1, 0), big_b)])
            want = big_a * big_b + big_a + big_a * (big_a - 1) // 2
            assert got.get((big_b, 2, big_a - 1), 0) == want > 0, (a_u, big_b, big_a, b_v3)
            seen += 1
        assert seen == 144


def test_l4_holds_at_every_count():
    """L4 for every count tuple the rule accepts, at every width >= 1.

    The caps (a_u, 3, b_{v+3}) bound the exponents of r, s and t strictly.
    Every coefficient of a product of 0/1 forms is non-negative, so
    ``chow_product``'s truncation at each step drops what truncating the
    whole product would (checked in ``tests/test_incidence.py``).

    Width 1.  r comes only from (r+s)^B and t only from (s+t)^A, so
    (s+t)^A (r+s)^B is the sum of C(B, i) C(A, k) r^i s^(A+B-i-k) t^k over
    0 <= i <= B and 0 <= k <= A, each coefficient positive.  One of them
    survives when i < a_u, k < b_{v+3} and A+B-i-k < 3, so with i and k
    taken largest the truncated product is nonzero exactly when
    min(B, a_u-1) + min(A, b_{v+3}-1) >= A+B-2 (the rule makes a_u and
    b_{v+3} at least 1).  The rule's first branch has B <= a_u <= B+1 and
    b_{v+3} = A, so the sum is at least (B-1) + (A-1); its second has
    a_u = B+1 and b_{v+3} = A-1, so the sum is B + (A-2).  Either way the
    product is nonzero.

    Width >= 2.  The rule gives a_u = B+1 and b_{v+3} = A >= 1, so
    r^B s^2 t^(A-1) lies under the caps.  Taking s from (r+s+t) leaves
    r^B s t^(A-1) of (s+t)^A (r+s)^B, with coefficient C(B, B) C(A, A-1)
    = A, and no other term is negative, so the coefficient in
    (r+s+t)(s+t)^A (r+s)^B is at least A > 0.

    Checked over the box: the binomial expansion and the width-2 bound
    against ``chow_product``, the truncation condition against the
    expansion, and both branches of the rule against the condition.
    """
    for big_a, big_b in product(COUNTS, repeat=2):
        free = chow_product((big_b + 1, 3 + big_a + big_b, big_a + 1), [((0, 1, 1), big_a), ((1, 1, 0), big_b)])
        assert free == {
            (i, big_a + big_b - i - k, k): comb(big_b, i) * comb(big_a, k)
            for i in range(big_b + 1)
            for k in range(big_a + 1)
        }
        for a_u, b_v3 in product(COUNTS[1:], repeat=2):
            fits = any(i < a_u and j < 3 and k < b_v3 for i, j, k in free)
            assert fits == (min(big_b, a_u - 1) + min(big_a, b_v3 - 1) >= big_a + big_b - 2)
        if big_a:
            wide = chow_product((big_b + 1, 3, big_a), [((1, 1, 1), 1), ((0, 1, 1), big_a), ((1, 1, 0), big_b)])
            assert wide[big_b, 2, big_a - 1] >= free[big_b, 1, big_a - 1] == big_a
    for (a_u, big_b, big_a, b_v3), _, _ in _accepted(1):
        assert min(big_b, a_u - 1) + min(big_a, b_v3 - 1) >= big_a + big_b - 2


def test_l5_type_zero_counts():
    # The sweep's side of L5: the counts derived over the shape in
    # test_l5_counts_over_the_type_zero_shape, read on every type-zero
    # cover that cover_moves finds.
    seen = 0
    for n in range(1, 41):
        for s in iter_diagrams(n):
            phi = HilbertFunction(CastelnuovoDiagram._unchecked(s))
            for pair in cover_moves(phi):
                if not is_type_zero(pair):
                    continue
                table = generic_betti(phi)
                u, v = pair.u, pair.v
                assert table.a.get(u, 0) == table.b.get(u + 1, 0), s
                assert table.a.get(v + 2, 0) == table.b.get(v + 3, 0) == 1, s
                assert betti_criterion(pair, table), s
                seen += 1
    assert seen == 1_011


def _type_zero_shapes():
    """(s, u, wall, h) for every type-zero shape in a box: a staircase
    1..k with k from wall-1 to wall+2, then 0..2 columns at heights from
    the wall up to k, non-increasing (the prefix), then the wall of two
    columns at height wall, the plateau h on u..u+2 and the tail of
    ``length`` columns at h-1, for 1 <= h <= 5, h < wall <= h + 4 and a
    tail of 2..5 columns when h >= 2 (none at h = 1)."""
    for h in range(1, 6):
        for wall in range(h + 1, h + 5):
            for length in (0,) if h == 1 else range(2, 6):
                for k in range(wall - 1, wall + 3):
                    for extra in range(3):
                        for run in combinations_with_replacement(range(k, wall - 1, -1), extra):
                            prefix = (*range(1, k + 1), *run)
                            s = (*prefix, wall, wall, h, h, h) + (h - 1,) * length
                            yield s, len(prefix) + 2, wall, h


def test_l5_counts_over_the_type_zero_shape():
    """L5 over the shape: on a type-zero cover (u, v = u + 1) of phi,
    a_u = b_{u+1} and a_{v+2} = b_{v+3} = 1.

    The shape fixes the heights the four counts read.  With u >= 2, the
    wall s_{u-2} = s_{u-1} = W > h, the plateau s_u = s_{u+1} = s_{u+2} = h
    and s_{u+3} = s_{u+4} = h - 1 (at h = 1 these are the zero heights past
    the diagram; at h >= 2 the tail holds at least two columns), the row
    q_l = [l = 0] - (s_l - 2 s_{l-1} + s_{l-2}) gives, away from l = 0,
      q_u     = -(h - 2W + W)             = W - h > 0,
      q_{u+1} = -(h - 2h + W)             = h - W < 0,
      q_{u+2} = -(h - 2h + h)             = 0,
      q_{u+3} = -((h - 1) - 2h + h)       = 1,
      q_{u+4} = -((h - 1) - 2(h - 1) + h) = -1.
    The generic table splits q by sign, a_l = max(q_l, 0) and
    b_l = max(-q_l, 0), so a_u = b_{u+1} = W - h and, with v + 2 = u + 3,
    a_{v+2} = b_{v+3} = 1.  These lie in the first one-column branch of
    the Betti rule, b_{u+1} <= a_u <= b_{u+1} + 1 and b_{v+3} = a_{v+2},
    with a_u and b_{v+3} nonzero, so it accepts.  Nothing else in the table
    is read, so the prefix left of the wall and the tail past u + 4 do not
    matter.
    """
    seen = 0
    for s, u, wall, h in _type_zero_shapes():
        psi = list(s)
        psi[u] += 1
        psi[u + 2] -= 1
        pair = CoverPair(HilbertFunction(CastelnuovoDiagram(s)), tuple(psi), u, u + 1)
        assert is_type_zero(pair), s
        table = generic_betti(pair.phi)
        assert table.q[u : u + 5] == (wall - h, h - wall, 0, 1, -1), s
        assert table.a.get(u, 0) == table.b.get(u + 1, 0) == wall - h, s
        assert table.a.get(u + 3, 0) == table.b.get(u + 4, 0) == 1, s
        assert betti_criterion(pair, table), s
        seen += 1
    assert seen == 1_360


Q = range(-4, 5)


def _shift(u, v):
    """The numerator shift delta of the move (u, v), by degree, nonzero
    entries only."""
    delta = {}
    for d, c in ((u, -1), (u + 1, 2), (u + 2, -1), (v + 1, 1), (v + 2, -2), (v + 3, 1)):
        delta[d] = delta.get(d, 0) + c
    return {d: c for d, c in delta.items() if c}


def _model_excess(u, v, q, delta):
    """The degrees m of the window [u-3, v+4] where the modelled tangent
    difference is positive, for numerator values ``q`` by degree (a degree
    missing from ``q`` has q = 0) and the shift ``delta``."""
    dh = lambda m: 1 if u <= m <= v else 0
    out = []
    for m in range(u - 3, v + 5):
        d = m + 3
        x, c = q.get(d, 0), delta.get(d, 0)
        db = max(-x - c, 0) - max(-x, 0)
        if -3 * dh(m + 1) + dh(m) + db > 0:
            out.append(m)
    return out


def test_l1_shortcut_over_every_clamped_row():
    """L1, the tangent shortcut as a finite check: the window [u-3, v+4]
    of a cover (u, v) has no excess exactly when q_u > 0 and q_{v+3} < 0.

    The cover raises the Hilbert function by Delta h = 1 on [u, v] and
    shifts the numerator row by delta, (-1, 2, -1) at u..u+2 plus
    (1, -2, 1) at v+1..v+3, summed where the two triples overlap.  The
    relation counts are b_d = max(-q_d, 0), so
    Delta b(d) = max(-q_d - delta_d, 0) - max(-q_d, 0), and the tangent
    difference at m is -3 Delta h(m+1) + Delta h(m) + Delta b(m+3).

    The clamp: every |delta_d| <= 3, so Delta b(d) is 0 for q_d >= 3 and
    -delta_d for q_d <= -3.  It is constant outside [-3, 3], and so are
    the signs of q_u and q_{v+3}; where delta_d = 0, Delta b(d) = 0 for
    every q_d.  So q in [-4, 4] at the degrees where delta is nonzero
    stands for every integer row, and the claim needs no cover condition.
    """
    # Widths 0 and 1 shift 4 degrees (6,561 rows), width 2 shifts 6
    # (531,441 rows).  The window degrees whose q is not shifted add a
    # difference that no row changes; each shifted degree's difference is
    # tabulated once over Q, so a row is read as one look-up per degree.
    u = 3
    for width, rows in ((0, 6_561), (1, 6_561), (2, 531_441)):
        v = u + width
        delta = _shift(u, v)
        degrees = sorted(delta)
        fixed = _model_excess(u, v, {}, {})
        fixed = [m for m in fixed if m + 3 not in delta]
        calm = [tuple(d - 3 not in _model_excess(u, v, {d: x}, delta) for x in Q) for d in degrees]
        at_u, at_v3 = degrees.index(u), degrees.index(v + 3)
        seen = 0
        for values in product(range(len(Q)), repeat=len(degrees)):
            tangent_ok = not fixed and all(map(tuple.__getitem__, calm, values))
            assert tangent_ok == (Q[values[at_u]] > 0 and Q[values[at_v3]] < 0), (width, values)
            seen += 1
        assert seen == rows


def test_l1_shortcut_degree_by_degree():
    # Window degree m reads q only at m+3, so the rows with no excess are a
    # product over the degrees, and so are the rows the shortcut accepts:
    # the two sets are equal when each degree admits the same values.
    # From width 2 on the shift's two triples are apart, so widths past 4
    # add only plateau degrees that read q = 0.
    u = 3
    for width in range(5):
        v = u + width
        delta = _shift(u, v)
        for m in range(u - 3, v + 5):
            d = m + 3
            for x in Q:
                ok = m not in _model_excess(u, v, {d: x}, delta)
                want = x > 0 if d == u else x < 0 if d == v + 3 else True
                assert ok == want, (width, m, x)


def test_l1_model_is_the_sweeps_tangent_comparison():
    # The model, fed phi's own numerator row, names the same degrees as
    # the cached rows that the sweep compares.
    seen = 0
    for n in range(1, 41):
        for s in iter_diagrams(n):
            phi = HilbertFunction(CastelnuovoDiagram._unchecked(s))
            table = generic_betti(phi)
            row_phi = cover_row(phi, table)
            for pair in cover_moves(phi):
                psi = pair.psi
                u, v = pair.u, pair.v
                want = cover_excess(row_phi, cover_row(psi, generic_betti(psi)), u, v)
                assert _model_excess(u, v, dict(enumerate(table.q)), _shift(u, v)) == want, (s, u, v)
                seen += 1
    assert seen == 19_144


def _f(s):
    """f(s) = sum_i s_i (s_{i+1} - s_{i+2}), with s_i = 0 past the list."""
    p = list(s) + [0, 0]
    return sum(p[i] * (p[i + 1] - p[i + 2]) for i in range(len(s)))


def _q(s, l):
    """q(s)_l = [l = 0] - (s_l - 2 s_{l-1} + s_{l-2}), with s_i = 0 outside
    the list: the numerator row of q(t) = 1 - (1-t)^2 s(t)."""
    at = lambda i: s[i] if 0 <= i < len(s) else 0
    return (l == 0) - (at(l) - 2 * at(l - 1) + at(l - 2))


def test_l3_telescoped_delta_and_numerator_shift():
    """L3: the move (u, v) adds delta = e_u - e_{v+1} to the heights s, and
    with e = -1, 1 or 0 at v = u, v = u + 1 or wider, and q = q(s),
      f(s + delta) - f(s) = e + sum_{i=u..v} (q_i - q_{i+3})
                          = e + (q_u + q_{u+1} + q_{u+2})
                              - (q_{v+1} + q_{v+2} + q_{v+3}),
    while q(s + delta) - q(s) is (-1, 2, -1) at u..u+2 plus (1, -2, 1) at
    v+1..v+3.  The term e is delta_i (delta_{i+1} - delta_{i+2}) summed,
    which is nonzero only when the two ends are one or two columns apart.

    f is quadratic in s, so f(s + delta) - f(s) is affine in s, and so is
    q.  An affine function is fixed by its values at s = 0 and at the unit
    vectors e_j, and no side reads s past degree v + 3, so j = 0..v+8
    covers every degree read.  For u >= 3 no side reads degree 0 or below,
    so moving u, v and s one column right changes nothing; from width 4 on
    the two ends read disjoint degrees.  So the moves 1 <= u <= v <= 15
    stand for every move, and the identities hold for every weight.
    """
    seen = 0
    for u in range(1, 16):
        for v in range(u, 16):
            size = v + 9
            move = [0] * size
            move[u], move[v + 1] = 1, -1
            e = -1 if v == u else 1 if v == u + 1 else 0
            shift = _shift(u, v)
            for s in [[0] * size] + [[int(i == j) for i in range(size)] for j in range(size)]:
                t = [a + b for a, b in zip(s, move)]
                q = [_q(s, l) for l in range(size + 3)]
                telescoped = e + sum(q[i] - q[i + 3] for i in range(u, v + 1))
                six_reads = e + (q[u] + q[u + 1] + q[u + 2]) - (q[v + 1] + q[v + 2] + q[v + 3])
                assert _f(t) - _f(s) == telescoped == six_reads, (u, v, s)
                assert [_q(t, l) - q[l] for l in range(size + 3)] == [
                    shift.get(l, 0) for l in range(size + 3)
                ], (u, v, s)
                seen += 1
    assert seen == 2_440


def test_l3_f_is_the_stratum_dimension():
    # Ties L3's f to the library: the stratum of the heights s of weight n
    # has dimension 1 + n + f(s), so f's delta is the dimension delta.
    seen = 0
    for n in range(1, 31):
        for s in iter_diagrams(n):
            assert stratum_dim(HilbertFunction(CastelnuovoDiagram._unchecked(s))) == 1 + n + _f(s), s
            seen += 1
    assert seen == 2_034


def test_width_zero_needs_no_plateau():
    """At width 0, v = u, L3's six reads leave the dimension delta
    -1 + q_u - q_{u+3}, read from phi's numerator row.  Under L1's
    shortcut q_u >= 1 and q_{u+3} <= -1, so the delta is at least 1 and
    the dimension comparison holds.  So at width 0 L1 alone decides
    incidence: a cover is incident exactly when q_u > 0 and q_{u+3} < 0.
    """
    seen = incident = 0
    for n in range(1, 41):
        for s in iter_diagrams(n):
            phi = HilbertFunction(CastelnuovoDiagram._unchecked(s))
            row = generic_betti(phi).q
            q = lambda l: row[l] if l < len(row) else 0
            dim_phi = stratum_dim(phi)
            for pair in cover_moves(phi):
                u = pair.u
                if pair.v != u:
                    continue
                assert stratum_dim(pair.psi) - dim_phi == -1 + q(u) - q(u + 3), (s, u)
                verdict = resolve_incidence(pair).incident
                assert verdict == (q(u) > 0 and q(u + 3) < 0), (s, u)
                seen += 1
                incident += verdict
    assert (seen, incident) == (6_658, 4_866)


def _drops(s, u, v):
    """(d0, d1, e1, e2) of the cover (u, v) of width >= 1 of the heights
    ``s``, as named in test_l2_plateau_and_dimension_delta."""
    p = (0,) + s + (0, 0, 0, 0)  # p[i + 1] is s_i, zero outside the diagram
    return p[u] - p[u + 1], p[u - 1] - p[u], p[u + 1] - p[v + 3], p[v + 3] - p[v + 4]


def test_l2_plateau_and_dimension_delta():
    """L2, the width algebra: on a cover (u, v) of width >= 1 the heights
    are level on u..v+1, and the dimension delta is 1 - d1 - e2 at width 1
    and -d1 - e2 from width 2 on.

    Write s for phi's heights, s_i = 0 outside the diagram.  Column u is
    addable, so the heights never rise from u-1 on, and columns u+1..v
    are neither addable nor removable, so s_u = ... = s_{v+1} = H.  Three
    drops fix everything the cover reads:
      d1 = s_{u-2} - s_{u-1}: -1 when column u-1 is still on the climbing
           staircase (s_{-1} = 0 at u = 1), and >= 0 otherwise;
      e1 = H - s_{v+2} >= 1, because column v+1 is removable;
      e2 = s_{v+2} - s_{v+3} >= 0.
    With d0 = s_{u-1} - H >= 0, the row q_l = [l = 0] - (s_l - 2 s_{l-1}
    + s_{l-2}) gives q_u = d0 - d1, q_{u+1} = -d0, q_{v+2} = e1,
    q_{v+3} = e2 - e1, and q = 0 on u+2..v+1.  So the dimension delta
    e + (q_u + q_{u+1} + q_{u+2}) - (q_{v+1} + q_{v+2} + q_{v+3}), with
    e = 1 at width 1 and 0 beyond, is e - d1 - e2.

    A wide cover is incident only if the dimension grows, -d1 - e2 > 0,
    so only if d1 = -1 and e2 = 0.  Then q_u = d0 + 1 > 0 and
    q_{v+3} = -e1 < 0, so L1's shortcut holds by itself, and it is
    incident.
    """
    seen = 0
    for n in range(1, 46):
        for s in iter_diagrams(n):
            phi = HilbertFunction(CastelnuovoDiagram._unchecked(s))
            dim_phi = stratum_dim(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                if v == u:
                    continue
                _, d1, _, e2 = _drops(s, u, v)
                assert s[u : v + 2] == (s[u],) * (v - u + 2), (s, u, v)
                e = 1 if v == u + 1 else 0
                assert stratum_dim(pair.psi) - dim_phi == e - d1 - e2, (s, u, v)
                seen += 1
    assert seen == 26_231


def test_l2_wide_cover_is_incident_exactly_when_both_drops_vanish():
    seen = 0
    for n in range(1, 41):
        for s in iter_diagrams(n):
            for pair in cover_moves(HilbertFunction(CastelnuovoDiagram._unchecked(s))):
                if pair.v < pair.u + 2:
                    continue
                _, d1, _, e2 = _drops(s, pair.u, pair.v)
                assert resolve_incidence(pair).incident == (d1 == -1 and e2 == 0), (s, pair.u, pair.v)
                seen += 1
    assert seen == 9_331


# Every drop pattern up to 7: d0 in 0..7, d1 in -1..7, e1 in 1..7, e2 in 0..7.
DROPS = list(product(range(8), range(-1, 8), range(1, 8), range(8)))


def _drop_counts(d0, d1, e1, e2):
    """(a_u, b_{u+1}, a_{v+2}, b_{v+3}) of a cover of width >= 1 from its
    drops: L2's rows q_u = d0 - d1, q_{u+1} = -d0, q_{v+2} = e1 and
    q_{v+3} = e2 - e1 split by sign, with d0 >= 0 and e1 >= 1."""
    return max(d0 - d1, 0), d0, e1, max(e1 - e2, 0)


def _width_one_incident(d0, d1, e1, e2):
    """L1's shortcut and a positive dimension delta 1 - d1 - e2."""
    return d0 > d1 and e2 < e1 and 1 - d1 - e2 > 0


def test_width_one_rule_is_the_shortcut_and_a_positive_delta():
    """At width 1, v = u + 1, the Betti rule holds exactly when L1's
    shortcut holds and L2's dimension delta 1 - d1 - e2 is positive.

    L2's drops give the counts a_u = max(d0 - d1, 0), b_{u+1} = d0,
    a_{v+2} = e1 and b_{v+3} = max(e1 - e2, 0).  The rule first asks
    a_u > 0 and b_{v+3} > 0, that is d0 > d1 and e2 < e1, which is L1's
    shortcut q_u > 0 and q_{v+3} < 0.  Under it a_u = d0 - d1 and
    b_{v+3} = e1 - e2, and the rule's two branches read
      b_{u+1} <= a_u <= b_{u+1} + 1 and b_{v+3} = a_{v+2}:
          -1 <= d1 <= 0 and e2 = 0;
      a_u = b_{u+1} + 1 and b_{v+3} = a_{v+2} - 1:
          d1 = -1 and e2 = 1.
    Since d1 >= -1 and e2 >= 0, the delta 1 - d1 - e2 is positive exactly
    for (d1, e2) = (-1, 0), (0, 0) and (-1, 1): the same three pairs.  So
    at width 1 the Betti rule holds exactly when both comparisons do.
    """
    for drops in DROPS:
        d0, d1, e1, e2 = drops
        want = _width_one_incident(*drops)
        assert want == (d0 > d1 and e2 < e1 and ((d1 <= 0 and e2 == 0) or (d1 == -1 and e2 == 1)))
        assert _betti_rule(U, U + 1, *_drop_counts(*drops)) == want, drops
    assert len(DROPS) == 4_032


def test_wide_rule_is_both_drops_vanishing():
    """From width 2 on the Betti rule asks a_u = b_{u+1} + 1 and
    b_{v+3} = a_{v+2} with both nonzero.  With L2's counts the first reads
    max(d0 - d1, 0) = d0 + 1, that is d1 = -1, and the second
    max(e1 - e2, 0) = e1 >= 1, that is e2 = 0.  That is the condition
    under which test_l2_wide_cover_is_incident_exactly_when_both_drops_vanish
    finds a wide cover incident.
    """
    for width in (2, 3):
        for drops in DROPS:
            _, d1, _, e2 = drops
            assert _betti_rule(U, U + width, *_drop_counts(*drops)) == (d1 == -1 and e2 == 0), drops


def test_drop_counts_and_verdicts_on_every_cover():
    # The library's side: on every cover of width >= 1, phi's generic table
    # holds the counts read from the drops, and the verdict is the rule's.
    seen = {1: 0, 2: 0}
    incident = {1: 0, 2: 0}
    for n in range(1, 41):
        for s in iter_diagrams(n):
            phi = HilbertFunction(CastelnuovoDiagram._unchecked(s))
            table = generic_betti(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                if v == u:
                    continue
                drops = _drops(s, u, v)
                counts = _drop_counts(*drops)
                assert _cover_counts(table, u, v) == counts, (s, u, v)
                verdict = resolve_incidence(pair).incident
                assert verdict == _betti_rule(u, v, *counts), (s, u, v)
                if v == u + 1:
                    assert verdict == _width_one_incident(*drops), (s, u)
                width = min(v - u, 2)
                seen[width] += 1
                incident[width] += verdict
    assert (seen[1], incident[1]) == (3_155, 2_184)
    assert (seen[2], incident[2]) == (9_331, 1_714)
