import random

import pytest

from conftest import hf, long_diagrams
from hilbstrata.diagrams import (
    CastelnuovoDiagram,
    HilbertFunction,
    enumerate_diagrams,
    is_castelnuovo,
    parse_hilbert_function,
)
from hilbstrata.graph import build_hilbert_graph
from hilbstrata.incidence import (
    CoverPair,
    _certificate,
    _cover_counts,
    betti_criterion,
    chow_product,
    cover_moves,
    find_intermediate,
    is_length_zero,
    is_type_zero,
    last_cover_column,
    move_params,
    resolve_incidence,
    verdict_line,
    verify_intersections,
)
from hilbstrata.resolution import generic_betti
from oracles import (
    brute_single_square_moves,
    cover_relations_triple_loop,
    first_nested_move,
    has_intermediate_by_patterns,
    last_readers,
    move_image,
    type_zero_by_runs,
)

A42_PHI = "1,3,6,10,14,15,16,17,.."
A42_PSI = "1,3,6,10,14,16,17,.."


def _heights_after_jump(s, u, v):
    """The nonzero heights of ``s`` by column after adding t^u - t^{v+1}."""
    out = dict(enumerate(s))
    out[u] = out.get(u, 0) + 1
    out[v + 1] = out.get(v + 1, 0) - 1
    return {i: x for i, x in out.items() if x}


def _move_images(phi):
    """Every single-square-move image of ``phi`` as (psi, u, v), sorted by (u, v)."""
    return [
        (HilbertFunction(move_image(phi.diagram, u, v)), u, v)
        for u, v in move_params(phi.diagram)
    ]


class TestSquareMoves:
    def test_three_collinear(self):
        moves = _move_images(hf("1,1,1"))
        assert [(m[0].diagram.s, m[1], m[2]) for m in moves] == [((1, 2), 1, 1)]

    def test_maximal_has_none(self):
        assert _move_images(hf("1,2")) == []

    def test_four_collinear(self):
        moves = _move_images(hf("1,1,1,1"))
        assert [(m[0].diagram.s, m[1], m[2]) for m in moves] == [((1, 2, 1), 1, 2)]

    def test_against_brute_force(self):
        for n in range(1, 19):
            for d in enumerate_diagrams(n):
                assert move_params(d) == brute_single_square_moves(d)

    def test_moves_shift_the_heights_by_one_square(self):
        for n in range(1, 16):
            for d in enumerate_diagrams(n):
                for psi, u, v in _move_images(HilbertFunction(d)):
                    assert dict(enumerate(psi.diagram.s)) == _heights_after_jump(d.s, u, v)


class TestIsLengthZero:
    def test_weight3(self):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        assert pair is not None and (pair.u, pair.v) == (1, 1)

    def test_weight4_two_column_jump(self):
        pair = is_length_zero(hf("1,1,1,1"), hf("1,2,1"))
        assert pair is not None and (pair.u, pair.v) == (1, 2)

    def test_weight8_blocked_by_intermediate(self):
        phi, psi = hf("1,2,2,2,1"), hf("1,2,3,2")
        assert is_length_zero(phi, psi) is None
        between = find_intermediate(phi, psi)
        assert between.diagram.s == (1, 2, 3, 1, 1)

    def test_non_run_differences(self):
        assert is_length_zero(hf("1,1,1,1,1,1"), hf("1,2,2,1")) is None
        assert is_length_zero(hf("1,2"), hf("1,1,1")) is None
        assert is_length_zero(hf("1,2"), hf("1,2")) is None

    def test_degree_mismatch(self):
        # Degrees 2 and 3, and degrees 3 and 5: both functions refuse
        # either pair.
        for phi, psi in ((hf("1,1"), hf("1,2")), (hf("1,1,1"), hf("1,2,1,1"))):
            with pytest.raises(ValueError):
                is_length_zero(phi, psi)
            with pytest.raises(ValueError):
                find_intermediate(phi, psi)

    def test_matches_exhaustive_pattern_search(self):
        for n in range(1, 13):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
                for psi, u, v in _move_images(phi):
                    expected = not has_intermediate_by_patterns(phi, u, v)
                    assert (is_length_zero(phi, psi) is not None) == expected

    def test_every_move_matches_the_brute_force_moves(self):
        # Every move of weight <= 16, and moves of 150-column tails: a move
        # is a cover exactly when no other valid move nests inside it, and
        # the function named as lying between is the image of the first
        # nested move.
        rng = random.Random(7)
        cases = [(d, None) for n in range(1, 17) for d in enumerate_diagrams(n)]
        cases += [(d, 25) for d in long_diagrams(7, 8)]
        found = {True: 0, False: 0}
        for d, sample in cases:
            phi = HilbertFunction(d)
            moves = brute_single_square_moves(d)
            picked = moves if sample is None else rng.sample(moves, min(sample, len(moves)))
            for u, v in picked:
                psi = HilbertFunction(move_image(d, u, v))
                nested = first_nested_move(moves, u, v)
                assert (is_length_zero(phi, psi) is None) == (nested is not None)
                expected = None if nested is None else HilbertFunction(move_image(d, *nested))
                assert find_intermediate(phi, psi) == expected, (d.s, u, v)
                found[nested is None] += 1
        assert min(found.values()) > 100

    def test_matches_triple_loop_covers(self):
        for n in range(1, 21):
            fns = [HilbertFunction(d) for d in enumerate_diagrams(n)]
            via_moves = {
                (p.phi.diagram.s, p.psi.diagram.s) for f in fns for p in cover_moves(f)
            }
            assert via_moves == cover_relations_triple_loop(fns)

    def test_scan_matches_the_definition(self):
        # A cover is a valid single-square move with no other valid move
        # nested inside it, taken here from the brute-force move list.
        totals = {}
        count = 0
        for n in range(1, 41):
            for d in enumerate_diagrams(n):
                moves = brute_single_square_moves(d)
                minimal = [
                    (u, v)
                    for u, v in moves
                    if not any((up, vp) != (u, v) and up >= u and vp <= v for up, vp in moves)
                ]
                found = [(p.u, p.v) for p in cover_moves(HilbertFunction(d))]
                assert found == minimal, d.s
                count += len(found)
            totals[n] = count
        assert (totals[30], totals[40]) == (3702, 19144)

    def test_unchecked_psi_matches_the_checked_constructor(self):
        for n in range(1, 31):
            for d in enumerate_diagrams(n):
                for pair in cover_moves(HilbertFunction(d)):
                    psi = pair.psi.diagram
                    assert is_castelnuovo(psi.s) and psi.s[-1] != 0
                    checked = CastelnuovoDiagram(psi.s)
                    assert (psi.weight, psi.sigma) == (checked.weight, checked.sigma)
                    assert pair.psi == HilbertFunction(checked)

    def test_cover_pair_invariants(self):
        for n in range(1, 16):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
                for pair in cover_moves(phi):
                    assert 0 < pair.u <= pair.v
                    delta = {m: pair.psi.value(m) - phi.value(m) for m in range(n + 2)}
                    assert all(
                        delta[m] == (1 if pair.u <= m <= pair.v else 0) for m in delta
                    )
                    expected = _heights_after_jump(phi.diagram.s, pair.u, pair.v)
                    assert dict(enumerate(pair.psi.diagram.s)) == expected


class TestLastCoverColumn:
    def test_small_cases(self):
        assert last_cover_column(()) == last_cover_column((1, 1, 1)) == 0
        assert last_cover_column((1, 2)) == 1  # column 1 drops by two
        # Column 3 drops by one onto a plateau at height 1 that ends at 0.
        assert last_cover_column((1, 2, 2, 2, 1)) == 3
        # Column 2 drops by one onto a plateau at height 2 that ends two
        # below, so the next drop, by two at column 3, is taken.
        assert last_cover_column((1, 2, 3, 2)) == 3

    def test_names_the_last_reader_of_every_diagram_to_weight_40(self):
        for n in range(41):
            readers = last_readers(n)
            for s, reader in readers.items():
                lowered = [i for i, (x, y) in enumerate(zip(s, reader or s)) if x > y]
                assert last_cover_column(s) == (lowered[0] if reader else 0), s
                for pair in cover_moves(HilbertFunction(CastelnuovoDiagram._unchecked(s))):
                    t = pair.psi_heights
                    assert (pair.u == last_cover_column(t)) == (s == readers[t]), (s, t)


class TestConditions:
    def test_weight3_pair(self):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        verdict = resolve_incidence(pair)
        assert (verdict.dim_ok, verdict.tangent_ok) == (True, True)
        assert betti_criterion(pair, generic_betti(pair.phi))

    def test_weight14_pair(self):
        pair = is_length_zero(hf("1,2,3,4,2,1,1"), hf("1,2,3,4,2,2"))
        assert not resolve_incidence(pair).tangent_ok
        assert not betti_criterion(pair, generic_betti(pair.phi))
        assert generic_betti(pair.phi).a.get(pair.u, 0) == 0

    def test_previously_open_pair(self):
        pair = is_length_zero(parse_hilbert_function(A42_PHI), parse_hilbert_function(A42_PSI))
        assert (pair.u, pair.v) == (5, 6)
        verdict = resolve_incidence(pair)
        assert (verdict.dim_ok, verdict.tangent_ok) == (True, True)
        assert betti_criterion(pair, generic_betti(pair.phi))

    def test_five_collinear_wide_move(self):
        pair = is_length_zero(hf("1,1,1,1,1"), hf("1,2,1,1"))
        assert (pair.u, pair.v) == (1, 3)
        table = generic_betti(pair.phi)
        assert table.a == {1: 1, 5: 1} and table.b == {6: 1}
        assert betti_criterion(pair, table)


class TestTypeZero:
    def test_previously_open_pair(self):
        pair = is_length_zero(parse_hilbert_function(A42_PHI), parse_hilbert_function(A42_PSI))
        assert is_type_zero(pair)

    def test_one_column_moves_never(self):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        assert not is_type_zero(pair)

    def test_five_collinear_not(self):
        pair = is_length_zero(hf("1,1,1,1,1"), hf("1,2,1,1"))
        assert not is_type_zero(pair)

    def test_shape_requires_the_flat_wall(self):
        # staircase climbing straight into the plateau is excluded
        pair = is_length_zero(hf("1,2,3,2,2,2,1,1,1,1,1"), hf("1,2,3,3,2,1,1,1,1,1,1"))
        assert pair is not None and (pair.u, pair.v) == (3, 4)
        assert resolve_incidence(pair).incident
        assert not is_type_zero(pair)

    def test_implies_incident_up_to_weight_40(self):
        count = 0
        for n in range(1, 41):
            for d in enumerate_diagrams(n):
                for pair in cover_moves(HilbertFunction(d)):
                    assert is_type_zero(pair) == type_zero_by_runs(d.s, pair.u, pair.v)
                    if is_type_zero(pair):
                        count += 1
                        assert resolve_incidence(pair).incident
        assert count > 50

    def test_weight17_has_exactly_four(self):
        found = []
        for d in enumerate_diagrams(17):
            for pair in cover_moves(HilbertFunction(d)):
                if is_type_zero(pair):
                    found.append((pair.phi.diagram.s, pair.u, pair.v))
        assert sorted(found) == [
            ((1, 2, 3, 2, 2, 2, 2, 1, 1, 1), 7, 8),
            ((1, 2, 3, 3, 2, 2, 2, 1, 1), 4, 5),
            ((1, 2, 3, 4, 2, 2, 1, 1, 1), 6, 7),
            ((1, 2, 3, 4, 4, 1, 1, 1), 5, 6),
        ]

    def test_looser_tail_reading_also_implies_incidence(self):
        # The drawn shape leaves the far right ambiguous: requiring only
        # the first two columns after the plateau at the lower level (and
        # letting the tail descend later) still lands inside the incident
        # family, so the ambiguity cannot flip any verdict.
        def loose(pair):
            u, v = pair.u, pair.v
            ht = pair.phi.diagram.height
            h = ht(u)
            return (
                v == u + 1
                and ht(u - 1) > h
                and ht(u - 2) == ht(u - 1)
                and ht(u + 1) == h
                and ht(u + 2) == h
                and ht(v + 2) == h - 1
                and (h < 2 or ht(v + 3) == h - 1)
            )

        differing = []
        for n in range(1, 41):
            for d in enumerate_diagrams(n):
                for pair in cover_moves(HilbertFunction(d)):
                    if loose(pair):
                        assert resolve_incidence(pair).incident
                        if not is_type_zero(pair):
                            differing.append((n, pair.phi.diagram.s, pair.u))
        # the readings genuinely diverge, first at weight 28
        assert differing and differing[0][0] == 28


class TestCoverPair:
    def test_cover_moves_and_is_length_zero_give_equal_pairs(self):
        # Both build the record (phi, psi_heights, u, v): the same value,
        # whose psi is the function of those heights.
        for n in range(1, 15):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
                for pair in cover_moves(phi):
                    psi = HilbertFunction(CastelnuovoDiagram(pair.psi_heights))
                    checked = is_length_zero(phi, psi)
                    assert pair == checked and hash(pair) == hash(checked) and {pair, checked} == {pair}
                    assert pair == (phi, psi.diagram.s, pair.u, pair.v)
                    assert pair.psi == psi and checked.psi == psi
                    assert phi.degree == psi.degree

    def test_pairs_differ_in_any_part(self):
        pair = is_length_zero(hf("1,1,1,1"), hf("1,2,1"))
        heights = pair.psi_heights
        assert pair == CoverPair(pair.phi, heights, pair.u, pair.v)
        assert pair != CoverPair(pair.phi, pair.phi.diagram.s, pair.u, pair.v)
        assert pair != CoverPair(pair.phi, heights, pair.u + 1, pair.v)
        assert pair != CoverPair(pair.phi, heights, pair.u, pair.v + 1)
        assert pair != CoverPair(hf("1,2,1"), heights, pair.u, pair.v)
        assert pair != (pair.phi, pair.psi, pair.u, pair.v)

    def test_immutable(self):
        pair = cover_moves(hf("1,1,1,1"))[0]
        for name in ("phi", "psi", "psi_heights", "u", "v", "degree", "extra"):
            with pytest.raises(AttributeError):
                setattr(pair, name, 0)
        with pytest.raises(AttributeError):
            del pair.u
        assert (pair.u, pair.v, pair.psi_heights) == (1, 2, (1, 2, 1))

    def test_pickles_to_an_equal_pair(self):
        import pickle

        pair = cover_moves(hf("1,2,2,1,1,1"))[-1]
        copy = pickle.loads(pickle.dumps(pair))
        assert copy == pair and copy.psi == pair.psi

    def test_repr_names_both_functions(self):
        pair = cover_moves(hf("1,1,1"))[0]
        assert repr(pair) == "CoverPair(phi=HilbertFunction(1,2,3,..), psi=HilbertFunction(1,3,..), u=1, v=1)"


class TestResolve:
    def test_weight3_incident(self):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        verdict = resolve_incidence(pair)
        assert verdict.incident and verdict.dims == (5, 6)
        assert verdict.betti_ok and not verdict.type_zero
        # A verdict is an immutable value: equal verdicts hash equally.
        with pytest.raises(AttributeError):
            verdict.incident = False
        again = resolve_incidence(is_length_zero(hf("1,1,1"), hf("1,2")))
        assert again == verdict and hash(again) == hash(verdict)

    def test_weight14_not_incident(self):
        pair = is_length_zero(hf("1,2,3,4,2,1,1"), hf("1,2,3,4,2,2"))
        verdict = resolve_incidence(pair)
        assert not verdict.incident and not verdict.tangent_ok

    def test_previously_open_incident_and_type_zero(self):
        pair = is_length_zero(parse_hilbert_function(A42_PHI), parse_hilbert_function(A42_PSI))
        verdict = resolve_incidence(pair)
        assert verdict.incident and verdict.type_zero

    def test_verdict_line(self):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        line = verdict_line(pair, resolve_incidence(pair))
        assert line == "u=1 v=1 dim: 5->6 tangent:OK C:OK type0:N => INCIDENT"

    def test_graph_edges_match_resolve(self):
        # The graph compares its per-node rows, resolve the two windowed
        # rows of the pair alone; both verdicts come from cover_verdict.
        for n in range(1, 21):
            g = build_hilbert_graph(n)
            for e in g.edges:
                pair = is_length_zero(g.nodes[e.from_id].hf, g.nodes[e.to_id].hf)
                assert (pair.u, pair.v) == (e.u, e.v)
                assert e.verdict == resolve_incidence(pair)

    def test_internal_consistency_everywhere(self):
        for n in range(1, 21):
            for d in enumerate_diagrams(n):
                for pair in cover_moves(HilbertFunction(d)):
                    v = resolve_incidence(pair)
                    assert v.incident == (v.dim_ok and v.tangent_ok)
                    assert v.incident == v.betti_ok
                    if v.type_zero:
                        assert v.incident


class TestChow:
    def test_all_caps_one_kills_r_and_t(self):
        product = chow_product((1, 3, 1), [((1, 1, 1), 1), ((0, 1, 1), 1)])
        assert product == {(0, 2, 0): 1}

    def test_hand_expansion_with_r_squared(self):
        product = chow_product((2, 3, 1), [((1, 1, 1), 1), ((0, 1, 1), 1), ((1, 1, 0), 1)])
        assert product[(1, 2, 0)] == 2

    def test_empty_product_is_unit(self):
        assert chow_product((2, 3, 2), []) == {(0, 0, 0): 1}

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            chow_product((0, 3, 1), [])

    def test_binomial_coefficients_are_exact(self):
        product = chow_product((10, 10, 10), [((1, 1, 0), 4)])
        assert product[(2, 2, 0)] == 6
        assert product[(1, 3, 0)] == 4


class TestVerifyIntersections:
    def test_five_collinear(self):
        pair = is_length_zero(hf("1,1,1,1,1"), hf("1,2,1,1"))
        assert verify_intersections(pair, generic_betti(pair.phi))

    def test_previously_open_pair(self):
        pair = is_length_zero(parse_hilbert_function(A42_PHI), parse_hilbert_function(A42_PSI))
        assert verify_intersections(pair, generic_betti(pair.phi))

    def test_requires_wide_move(self):
        pair = is_length_zero(hf("1,1,1"), hf("1,2"))
        with pytest.raises(ValueError):
            verify_intersections(pair, generic_betti(pair.phi))

    def test_requires_betti_criterion(self):
        pair = is_length_zero(hf("1,2,3,3,1,1,1,1"), hf("1,2,3,3,2,1,1"))
        assert not betti_criterion(pair, generic_betti(pair.phi))
        with pytest.raises(ValueError):
            verify_intersections(pair, generic_betti(pair.phi))

    def test_public_check_guards_the_body_on_every_cover(self):
        # The sweep calls the body directly; the public check must still
        # refuse every cover outside its domain and agree with the body on
        # every cover inside it.
        refused = 0
        for n in range(1, 21):
            for d in enumerate_diagrams(n):
                table = generic_betti(HilbertFunction(d))
                for pair in cover_moves(HilbertFunction(d)):
                    if pair.v >= pair.u + 1 and betti_criterion(pair, table):
                        counts = _cover_counts(table, pair.u, pair.v)
                        assert verify_intersections(pair, table) == _certificate(pair.u, pair.v, *counts)
                        continue
                    refused += 1
                    with pytest.raises(ValueError):
                        verify_intersections(pair, table)
        assert refused > 100

    def test_holds_for_every_qualifying_pair(self):
        seen = 0
        for n in range(1, 26):
            for d in enumerate_diagrams(n):
                table = generic_betti(HilbertFunction(d))
                for pair in cover_moves(HilbertFunction(d)):
                    if pair.v >= pair.u + 1 and betti_criterion(pair, table):
                        seen += 1
                        assert verify_intersections(pair, table)
        assert seen > 100
