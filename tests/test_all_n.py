"""Local lemmas behind the cover criteria, checked away from any one weight.

Each check reads only the counts a cover's window holds, so it holds for
every n whose covers carry counts inside the box or the shapes checked.
Write A = a_{v+2} and B = b_{u+1} for the counts of phi's generic table.
"""

from itertools import product

from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, iter_diagrams
from hilbstrata.incidence import (
    CoverPair,
    _betti_rule,
    betti_criterion,
    chow_product,
    cover_moves,
    is_type_zero,
    verify_intersections,
)
from hilbstrata.resolution import generic_betti
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


def test_l5_type_zero_counts():
    # On the type-zero shape a_u = b_{u+1} and a_{v+2} = b_{v+3} = 1, so
    # the first one-column branch of the Betti rule accepts.
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
