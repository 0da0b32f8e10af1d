import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import hf, long_diagrams
from hilbstrata.diagrams import (
    CastelnuovoDiagram,
    HilbertFunction,
    count_diagrams,
    enumerate_diagrams,
    hf_leq,
    is_castelnuovo,
    iter_diagrams,
    parse_diagram,
    parse_hilbert_function,
    run_of_ones,
)
from hilbstrata import diagrams
from hilbstrata.incidence import move_params
from hilbstrata.resolution import generic_betti
from hilbstrata.sweep import _shard_tasks
from oracles import (
    count_distinct_partitions,
    diagrams_by_sorting,
    distinct_partition_counts_by_knapsack,
    greedy_maximal_diagram,
    is_castelnuovo_stepwise,
    move_image,
    run_of_ones_by_zip,
)


class TestIsCastelnuovo:
    def test_weight_28_example(self):
        assert is_castelnuovo([1, 2, 3, 4, 5, 5, 3, 2, 1, 1, 1])

    def test_all_ones(self):
        assert is_castelnuovo([1, 1, 1])

    def test_gap_after_one(self):
        assert not is_castelnuovo([1, 3])

    def test_more_shapes(self):
        assert is_castelnuovo([])
        assert is_castelnuovo([1, 2, 3])
        assert is_castelnuovo([1, 2, 2, 2])
        assert is_castelnuovo([1, 1, 0, 0])  # trailing zeros are fine
        assert not is_castelnuovo([2])
        assert not is_castelnuovo([1, 0, 1])
        assert not is_castelnuovo([1, 2, 1, 2])
        assert not is_castelnuovo([1, -1])

    def test_only_int_heights(self):
        # A float or a bool is no height, even where it equals a valid one.
        for seq in ([1, 0.5], [1.0], [1, 2.0], [1, 0.0], [True, 2], [1, True], [1, 2, False]):
            assert not is_castelnuovo(seq), seq

    @settings(deadline=None, derandomize=True)
    @given(st.lists(st.integers(-2, 8), max_size=14))
    def test_matches_the_stepwise_rule(self, s):
        assert is_castelnuovo(s) == is_castelnuovo_stepwise(s)

    def test_matches_the_stepwise_rule_next_to_every_small_diagram(self):
        # Every diagram of weight <= 20, and each with one entry moved by one.
        checked = 0
        for n in range(21):
            for d in enumerate_diagrams(n):
                near = [d.s] + [
                    d.s[:i] + (x + step,) + d.s[i + 1 :] for i, x in enumerate(d.s) for step in (-1, 1)
                ]
                for s in near:
                    assert is_castelnuovo(s) == is_castelnuovo_stepwise(s), s
                    checked += 1
        assert checked == 7329


class TestConvert:
    def test_three_collinear(self):
        h = hf("1,1,1")
        assert h.transient == (1, 2, 3)
        assert h.degree == 3
        assert h.value(5) == 3

    def test_three_generic(self):
        h = hf("1,2")
        assert h.transient == (1, 3)
        assert h.value(1) == 3

    def test_single_point(self):
        h = hf("1")
        assert h.transient == (1,)
        assert [h.value(m) for m in range(-1, 3)] == [0, 1, 1, 1]

    def test_round_trip_everywhere(self):
        for n in range(0, 26):
            for d in enumerate_diagrams(n):
                h = HilbertFunction(d)
                assert h.diagram == d
                assert HilbertFunction.from_values(h.transient) == h

    def test_rejects_non_castelnuovo_values(self):
        with pytest.raises(ValueError):
            HilbertFunction.from_values([1, 4, 4])

    def test_rejects_values_that_are_not_ints(self):
        # [1, 1.5] differs by 0.5; [1.0, 2.0] by float ones; a bool's
        # differences are ints, as True - 0 == 1.
        for values in ([1, 1.5], [1.0, 2.0], [1, 3, 6.0], [True, 2], [1, True]):
            with pytest.raises(ValueError, match="are not the sums of a Castelnuovo sequence"):
                HilbertFunction.from_values(values)


def test_constructor_rejects_invalid_heights():
    with pytest.raises(ValueError):
        CastelnuovoDiagram([1, 3])
    # The heights are read once, so an iterator is named, not its empty rest.
    with pytest.raises(ValueError, match=r"^not a Castelnuovo sequence: \[1, 3\]$"):
        CastelnuovoDiagram(iter([1, 3]))
    with pytest.raises(ValueError, match=r"^not a Castelnuovo sequence: \[1, 3, 0\]$"):
        CastelnuovoDiagram((1, 3, 0))


def test_constructor_rejects_heights_that_are_not_ints():
    with pytest.raises(ValueError, match=r"^not a Castelnuovo sequence: \[1, 0\.5\]$"):
        CastelnuovoDiagram([1, 0.5])
    with pytest.raises(ValueError, match=r"^not a Castelnuovo sequence: \[True, 2\]$"):
        CastelnuovoDiagram([True, 2])
    with pytest.raises(ValueError):
        CastelnuovoDiagram([1.0, 2.0, 3.0])


def test_diagram_stats():
    # weight and sigma are read off the heights on demand.
    for heights, stats in (
        ([1, 2, 3, 4, 5, 5, 3, 2, 1, 1, 1], (28, 4)),
        ([1, 1, 1], (3, 0)),
        ([1, 2, 3], (6, 2)),
        ([], (0, 0)),
    ):
        d = CastelnuovoDiagram(heights)
        assert (d.weight, d.sigma) == stats


class TestEnumerate:
    def test_small_counts(self):
        assert len(enumerate_diagrams(3)) == 2
        assert len(enumerate_diagrams(6)) == 4
        assert len(enumerate_diagrams(17)) == 38

    def test_counts_match_partition_oracle(self):
        for n in range(0, 26):
            assert len(enumerate_diagrams(n)) == count_distinct_partitions(n) == count_diagrams(n)
        knapsack = distinct_partition_counts_by_knapsack(1200)
        assert [count_diagrams(n) for n in range(0, 301)] == knapsack[:301]
        assert count_diagrams(1200) == knapsack[1200]
        with pytest.raises(ValueError):
            count_diagrams(-1)

    def test_all_valid_unique_and_ordered(self):
        for n in range(1, 21):
            ds = enumerate_diagrams(n)
            assert all(is_castelnuovo(d.s) for d in ds)
            assert all(d.weight == n for d in ds)
            assert len({d.s for d in ds}) == len(ds)
            assert [d.s for d in ds] == sorted((d.s for d in ds), reverse=True)

    def test_unchecked_tuples_match_the_checked_constructor(self):
        # enumerate_diagrams skips validation; every tuple must still pass it.
        for n in range(0, 31):
            for d in enumerate_diagrams(n):
                assert is_castelnuovo(d.s) and d.s[-1:] != (0,)
                checked = CastelnuovoDiagram(d.s)
                assert (d.weight, d.sigma) == (checked.weight, checked.sigma)

    def test_extremes(self):
        assert [d.s for d in enumerate_diagrams(0)] == [()]
        assert [d.s for d in enumerate_diagrams(1)] == [(1,)]
        ds = enumerate_diagrams(17)
        assert ds[0] == greedy_maximal_diagram(17)
        assert ds[-1].s == (1,) * 17


class TestIterDiagrams:
    def test_matches_the_sorted_construction(self):
        for n in range(0, 41):
            assert list(iter_diagrams(n)) == diagrams_by_sorting(n)

    def test_unrank_is_the_position(self):
        # The range of one rank r holds the diagram at position r.
        for n in range(0, 31):
            for r, s in enumerate(iter_diagrams(n)):
                assert list(iter_diagrams(n, r, r + 1)) == [s]

    @pytest.mark.parametrize("count", [1, 2, 3, 7, None])
    def test_shards_rejoin_to_the_full_list(self, count):
        for n in range(0, 31):
            full = list(iter_diagrams(n))
            shards = _shard_tasks(n, count or len(full) + 5)
            assert all(lo < hi for _, lo, hi in shards)
            assert [s for _, lo, hi in shards for s in iter_diagrams(n, lo, hi)] == full

    def test_tail_counts_sum_to_the_count(self):
        # Each staircase's tail count is the number of diagrams with that
        # longest staircase, and together they are the distinct-part count.
        knapsack = distinct_partition_counts_by_knapsack(200)
        for n in range(0, 201):
            ways = list(diagrams._tail_counts(n))
            per_staircase = [ways[k][n - k * (k + 1) // 2] for k in range(len(ways))]
            assert sum(per_staircase) == knapsack[n]
            if n <= 30:
                longest = [CastelnuovoDiagram(s).sigma + 1 if s else 0 for s in iter_diagrams(n)]
                assert per_staircase == [longest.count(k) for k in range(len(ways))]

    def test_unrank_rejects_out_of_range(self):
        # A rank past the last diagram holds nothing; a negative one raises.
        for n, r in ((5, count_diagrams(5)), (0, 1), (12, 10**6)):
            assert list(iter_diagrams(n, r, r + 1)) == []
        for bad in ((5, -1), (-1, 0)):
            with pytest.raises(ValueError):
                list(iter_diagrams(bad[0], bad[1], bad[1] + 1))
        with pytest.raises(ValueError):
            list(iter_diagrams(-1))
        with pytest.raises(ValueError):
            list(iter_diagrams(5, -1))

    def test_weight_bound(self):
        # A weight past the bound is refused before anything of its size is
        # listed; the first diagram of the largest weight comes at once.
        top = diagrams.MAX_WEIGHT
        for n in (top + 1, 10**20):
            with pytest.raises(ValueError, match=f"^weight {n} exceeds {top}"):
                next(iter_diagrams(n))
            with pytest.raises(ValueError, match=f"^weight {n} exceeds {top}"):
                count_diagrams(n)
        first = next(iter_diagrams(top))
        assert sum(first) == top and is_castelnuovo(first)

    def test_range_past_the_end_is_clamped(self):
        total = count_diagrams(12)
        assert list(iter_diagrams(12, total - 1, total + 10)) == [(1,) * 12]
        assert list(iter_diagrams(12, total, total + 10)) == []
        assert list(iter_diagrams(12, 3, 3)) == []
        assert list(iter_diagrams(12, 5, 2)) == []
        assert list(iter_diagrams(12, 0, 0)) == list(iter_diagrams(12, 0, -3)) == []
        assert list(iter_diagrams(12, 4, -1)) == list(iter_diagrams(12, total + 5, -1)) == []
        assert list(iter_diagrams(12, 0, total + 10)) == list(iter_diagrams(12))

    def test_large_weight_streams_without_recursion(self):
        assert sys.getrecursionlimit() < 1200
        head = list(itertools.islice(iter_diagrams(1200), 1000))
        assert len(head) == 1000
        assert all(is_castelnuovo(s) and sum(s) == 1200 for s in head)
        assert all(a > b for a, b in zip(head, head[1:]))
        last = count_diagrams(1200) - 1
        assert list(iter_diagrams(1200, last, last + 1)) == [(1,) * 1200]

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_first_diagram_needs_no_table(self):
        # The tail-count table of weight 2000 holds about 5.5 MiB.
        first, peak = self._peak(lambda: next(iter_diagrams(2000)))
        assert first == (*range(1, 63), 47)
        assert peak < 2**20

    def test_count_reads_one_row_at_a_time(self):
        count, peak = self._peak(lambda: count_diagrams(2000))
        assert count == distinct_partition_counts_by_knapsack(2000)[2000]
        assert peak < 2**20


@settings(deadline=None)
@given(
    st.integers(3, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, count_diagrams(n) - 2))
    )
)
def test_unrank_neighbours(case):
    n, r = case
    here, after = next(iter_diagrams(n, r, r + 1)), next(iter_diagrams(n, r + 1, r + 2))
    assert is_castelnuovo(here) and sum(here) == n
    assert here > after
    assert list(iter_diagrams(n, r, r + 2)) == [here, after]


class TestOrder:
    def test_weight3_pair(self):
        assert hf_leq(hf("1,1,1"), hf("1,2"))
        assert not hf_leq(hf("1,2"), hf("1,1,1"))

    def test_reflexive(self):
        assert hf_leq(hf("1,2"), hf("1,2"))

    def test_incomparable_weight10(self):
        a = hf("1,2,3,1,1,1,1")
        b = hf("1,2,2,2,2,1")
        assert a.value(2) == 6 and b.value(2) == 5
        assert a.value(4) == 8 and b.value(4) == 9
        assert not hf_leq(a, b) and not hf_leq(b, a)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            hf_leq(hf("1,1"), hf("1,1,1"))

    def test_partial_order_axioms_exhaustive(self):
        for n in range(1, 13):
            fns = [HilbertFunction(d) for d in enumerate_diagrams(n)]
            for a in fns:
                assert hf_leq(a, a)
                for b in fns:
                    if hf_leq(a, b) and hf_leq(b, a):
                        assert a == b
                    for c in fns:
                        if hf_leq(a, b) and hf_leq(b, c):
                            assert hf_leq(a, c)

    def test_all_ones_is_minimum_and_greedy_is_maximum(self):
        for n in range(1, 16):
            fns = [HilbertFunction(d) for d in enumerate_diagrams(n)]
            bottom = HilbertFunction(CastelnuovoDiagram((1,) * n))
            top = HilbertFunction(greedy_maximal_diagram(n))
            assert all(hf_leq(bottom, f) and hf_leq(f, top) for f in fns)


def test_run_of_ones():
    assert run_of_ones(hf("1,1,1"), hf("1,2")) == (1, 1)
    assert run_of_ones(hf("1,2,2,2,1"), hf("1,2,3,2")) == (2, 3)
    assert run_of_ones(hf("1,2"), hf("1,2")) is None
    assert run_of_ones(hf("1,2"), hf("1,1,1")) is None  # negative direction
    assert run_of_ones(hf("1,1,1,1,1,1"), hf("1,2,2,1")) is None  # height two
    with pytest.raises(ValueError):
        run_of_ones(hf("1,1"), hf("1,1,1"))


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_run_of_ones_matches_the_zip_loop_on_every_small_pair():
    # All ordered pairs of the 70 diagrams of weight <= 12; a pair of two
    # weights raises the same degree mismatch on both sides.
    fns = [HilbertFunction(d) for n in range(13) for d in enumerate_diagrams(n)]
    runs = 0
    for phi in fns:
        for psi in fns:
            got = _outcome(run_of_ones, phi, psi)
            assert got == _outcome(run_of_ones_by_zip, phi, psi)
            runs += isinstance(got, tuple)
    assert runs > 50


def test_run_of_ones_matches_the_zip_loop_on_long_tails():
    # Diagrams with 150-column tails, each against itself, the results of
    # its single-square moves and of two moves in turn (both ways round),
    # and another diagram of its weight.
    rng = random.Random(19)
    for phi in long_diagrams(19, 30):
        r = rng.randrange(count_diagrams(phi.weight))
        others = [phi, CastelnuovoDiagram(next(iter_diagrams(phi.weight, r, r + 1)))]
        moves = move_params(phi)
        for u, v in rng.sample(moves, min(20, len(moves))):
            once = move_image(phi, u, v)
            others.append(once)
            again = move_params(once)
            others.extend(move_image(once, *m) for m in rng.sample(again, min(3, len(again))))
        f = HilbertFunction(phi)
        for psi in others:
            g = HilbertFunction(psi)
            assert run_of_ones(f, g) == run_of_ones_by_zip(f, g)
            assert run_of_ones(g, f) == run_of_ones_by_zip(g, f)


class TestText:
    def test_diagram_round_trip(self):
        for text in ("1,2,3,4,4,1,1,1", "1", "1,2"):
            assert parse_diagram(text).render() == text

    def test_hilbert_round_trip(self):
        h = parse_hilbert_function("1,3,6,10,14,15,16,17,..")
        assert h.render() == "1,3,6,10,14,15,16,17,.."
        assert h.diagram.s == (1, 2, 3, 4, 4, 1, 1, 1)

    def test_redundant_stable_values_accepted(self):
        assert parse_hilbert_function("1,2,3,3,3,3,..") == hf("1,1,1")
        assert parse_hilbert_function("1,2,3,..") == hf("1,1,1")

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ValueError, match="position 4"):
            parse_diagram("1,2,x")
        with pytest.raises(ValueError, match="position"):
            parse_hilbert_function("1,3,3")
        with pytest.raises(ValueError):
            parse_hilbert_function("1,2,4,..")
        with pytest.raises(ValueError):
            parse_diagram("1,3")

    def test_superscript_digit_is_a_positional_error(self):
        # '²' passes str.isdigit but int() rejects it.
        with pytest.raises(ValueError) as caught:
            parse_diagram("1,²")
        assert str(caught.value) == "diagram: expected an integer at position 2, got '²'"

    def test_lone_minus_is_a_positional_error(self):
        with pytest.raises(ValueError) as caught:
            parse_diagram("1,-")
        assert str(caught.value) == "diagram: expected an integer at position 2, got '-'"

    def test_fullwidth_digits_are_accepted(self):
        assert parse_diagram("１,２").s == (1, 2)
        assert parse_hilbert_function("１,３,..") == hf("1,2")

    def test_trailing_zeros_are_trimmed(self):
        assert parse_diagram("1,2,0,0").s == (1, 2)
        assert parse_hilbert_function("1,3,3,3,..").diagram.s == (1, 2)


def test_first_generator_degree_is_one_past_sigma():
    # The first positive generator count sits one column after the first
    # failure to climb, for every diagram.
    for n in range(1, 26):
        for d in enumerate_diagrams(n):
            table = generic_betti(HilbertFunction(d))
            assert min(table.a) == d.sigma + 1
