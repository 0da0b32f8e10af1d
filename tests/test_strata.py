import pytest

from conftest import hf
from hilbstrata.diagrams import CastelnuovoDiagram, enumerate_diagrams
from hilbstrata.incidence import cover_moves
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import (
    required_window,
    stratum_dim,
    stratum_info,
    tangent_bundle_sections,
    tangent_function,
    tangent_leq,
)
from oracles import (
    dim_constant_by_product,
    greedy_maximal_diagram,
    numerator_by_truncation,
    tangent_sections_by_euler,
)


class TestStratumDim:
    def test_three_collinear_is_line_plus_points(self):
        assert stratum_dim(hf("1,1,1")) == 5

    def test_single_point_is_the_plane(self):
        assert stratum_dim(hf("1")) == 2

    def test_maximal_stratum_has_dimension_two_n(self):
        for n in range(1, 31):
            assert stratum_dim(greedy_maximal_diagram(n).hilbert_function()) == 2 * n

    def test_collinear_stratum_is_n_plus_two(self):
        for n in range(3, 31):
            bottom = CastelnuovoDiagram((1,) * n).hilbert_function()
            assert stratum_dim(bottom) == n + 2

    def test_only_the_maximal_stratum_is_dense(self):
        for n in range(2, 16):
            top = greedy_maximal_diagram(n)
            for d in enumerate_diagrams(n):
                dim = stratum_dim(d.hilbert_function())
                assert dim <= 2 * n
                assert (dim == 2 * n) == (d == top)

    def test_matches_direct_expansion(self):
        for n in range(1, 26):
            for d in enumerate_diagrams(n):
                assert stratum_dim(d.hilbert_function()) == 1 + n + dim_constant_by_product(d)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            stratum_dim(CastelnuovoDiagram(()).hilbert_function())


def test_tangent_bundle_section_counts():
    assert tangent_bundle_sections(0) == 8
    assert tangent_bundle_sections(-1) == 3
    assert tangent_bundle_sections(-2) == 0
    assert tangent_bundle_sections(-3) == 0
    assert tangent_bundle_sections(-4) == 0
    assert tangent_bundle_sections(1) == 15
    for m in range(-12, 40):
        assert tangent_bundle_sections(m) == tangent_sections_by_euler(m)


class TestTangentFunction:
    def test_weight3_difference_is_one(self):
        t_phi = tangent_function(hf("1,1,1"), -2, 5)
        t_psi = tangent_function(hf("1,2"), -2, 5)
        diff = {m: t_phi[m] - t_psi[m] for m in range(-2, 6)}
        assert diff == {m: (1 if m == 0 else 0) for m in range(-2, 6)}

    def test_deterministic(self):
        a = tangent_function(hf("1,2,3,3"), -4, 8)
        b = tangent_function(hf("1,2,3,3"), -4, 8)
        assert a == b

    def test_values_are_section_counts(self):
        # dimensions of section spaces are never negative
        for n in range(1, 13):
            for d in enumerate_diagrams(n):
                window = tangent_function(d.hilbert_function(), -5, len(d.s) + 5)
                assert all(v >= 0 for v in window.values())

    def test_agreement_outside_move_window(self):
        for n in range(1, 16):
            for d in enumerate_diagrams(n):
                phi = d.hilbert_function()
                for pair in cover_moves(phi):
                    lo, hi = pair.u - 8, pair.v + 8
                    t_phi = tangent_function(phi, lo, hi)
                    t_psi = tangent_function(pair.psi, lo, hi)
                    for m in range(lo, hi + 1):
                        if not (pair.u - 3 <= m <= pair.v + 1):
                            assert t_phi[m] == t_psi[m]

    def test_matches_degreewise_formula(self):
        # Windows below degree 0, across the whole diagram, past its end and
        # of width one, against h(m), the truncated-series relation counts and
        # the Euler-sequence section counts evaluated degree by degree.
        for n in range(1, 16):
            for d in enumerate_diagrams(n):
                phi = d.hilbert_function()
                q = numerator_by_truncation(phi)
                top = len(d.s)
                for lo, hi in ((-9, -6), (-7, top + 6), (top, top + 3), (2, 2)):
                    expected = {
                        m: tangent_sections_by_euler(m)
                        - 3 * phi.value(m + 1)
                        + phi.value(m)
                        + max(-q.get(m + 3, 0), 0)
                        for m in range(lo, hi + 1)
                    }
                    assert tangent_function(phi, lo, hi) == expected

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            tangent_function(hf("1"), 3, 2)


class TestTangentLeq:
    def test_weight3_pair(self):
        assert tangent_leq(hf("1,2"), hf("1,1,1"))

    def test_weight14_pair_fails(self):
        assert not tangent_leq(hf("1,2,3,4,2,2"), hf("1,2,3,4,2,1,1"))

    def test_identical_inputs(self):
        assert tangent_leq(hf("1,2,3,3"), hf("1,2,3,3"))

    def test_window_must_cover_the_move(self):
        phi, psi = hf("1,1,1"), hf("1,2")
        lo, hi = required_window(1, 1)
        assert tangent_leq(psi, phi, window=(lo, hi))
        assert tangent_leq(psi, phi, window=(lo - 5, hi + 5))
        with pytest.raises(ValueError):
            tangent_leq(psi, phi, window=(lo + 1, hi))
        with pytest.raises(ValueError):
            tangent_leq(psi, phi, window=(lo, hi - 1))

    def test_rejects_non_move_pairs(self):
        with pytest.raises(ValueError):
            tangent_leq(hf("1,2,2,1"), hf("1,1,1,1,1,1"))


def test_dimension_delta_formulas_agree():
    # Both closed forms for dim(psi) - dim(phi) hold on every cover.
    for n in range(1, 21):
        for d in enumerate_diagrams(n):
            phi = d.hilbert_function()
            dim_phi = stratum_dim(phi)
            table = generic_betti(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                e = -1 if v == u else (1 if v == u + 1 else 0)
                actual = stratum_dim(pair.psi) - dim_phi
                by_table = (
                    sum(table.delta(i) for i in range(u, v + 1))
                    - sum(table.delta(i) for i in range(u + 3, v + 4))
                    + e
                )
                s = d.height
                by_heights = (
                    -s(u - 2) + s(u - 1) + s(u + 1) - s(u + 2)
                    + s(v - 1) - s(v) - s(v + 2) + s(v + 3) + e
                )
                assert actual == by_table == by_heights


def test_pointwise_tangent_bound_and_shortcut():
    # Outside degrees u-3 and v the bigger stratum never wins, and the
    # windowed comparison equals the two-entry test on the Betti table.
    for n in range(1, 21):
        for d in enumerate_diagrams(n):
            phi = d.hilbert_function()
            table = generic_betti(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                lo, hi = required_window(u, v)
                t_phi = tangent_function(phi, lo, hi, table)
                t_psi = tangent_function(pair.psi, lo, hi)
                for m in range(lo, hi + 1):
                    if m not in (u - 3, v):
                        assert t_psi[m] <= t_phi[m]
                shortcut = table.a_at(u) != 0 and table.b_at(v + 3) != 0
                assert tangent_leq(pair.psi, phi) == shortcut


def test_wide_move_dimension_law():
    # For moves spanning three or more columns the dimension comparison is
    # two Betti equalities, and a strict increase is exactly one.
    seen = 0
    for n in range(1, 21):
        for d in enumerate_diagrams(n):
            phi = d.hilbert_function()
            table = generic_betti(phi)
            dim_phi = stratum_dim(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                if v < u + 2:
                    continue
                seen += 1
                dim_psi = stratum_dim(pair.psi)
                law = (
                    table.a_at(u) == table.b_at(u + 1) + 1
                    and table.a_at(v + 2) == table.b_at(v + 3)
                )
                assert (dim_phi < dim_psi) == law
                if law:
                    assert dim_psi == dim_phi + 1
    assert seen > 50


def test_stratum_info_bundle():
    info = stratum_info(hf("1,1,1"), -2, 4)
    assert info.dim == 5
    assert info.window == (-2, 4)
    assert info.tangent == tangent_function(hf("1,1,1"), -2, 4)
    for n in range(1, 13):
        for d in enumerate_diagrams(n):
            assert stratum_info(d.hilbert_function(), 0, 3).dim <= 2 * n
