import pytest

from conftest import hf
from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, enumerate_diagrams, iter_diagrams
from hilbstrata.incidence import CoverPair, cover_moves, is_length_zero, resolve_incidence
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import (
    cover_excess,
    cover_row,
    stratum_dim,
    tangent_bundle_sections,
    tangent_function,
)
from hilbstrata.sweep import cache_entry
from oracles import (
    dim_constant_by_product,
    greedy_maximal_diagram,
    numerator_by_truncation,
    tangent_excess_by_formula,
    tangent_sections_by_euler,
)


def _tangent(h, lo, hi):
    """``tangent_function`` of ``h`` on [lo, hi], read with h's own generic table."""
    return tangent_function(h, lo, hi, generic_betti(h))


def _row(h):
    """``cover_row`` of ``h``, read with h's own generic table."""
    return cover_row(h, generic_betti(h))


class TestStratumDim:
    def test_three_collinear_is_line_plus_points(self):
        assert stratum_dim(hf("1,1,1")) == 5

    def test_single_point_is_the_plane(self):
        assert stratum_dim(hf("1")) == 2

    def test_maximal_stratum_has_dimension_two_n(self):
        for n in range(1, 31):
            assert stratum_dim(HilbertFunction(greedy_maximal_diagram(n))) == 2 * n

    def test_collinear_stratum_is_n_plus_two(self):
        for n in range(3, 31):
            bottom = HilbertFunction(CastelnuovoDiagram((1,) * n))
            assert stratum_dim(bottom) == n + 2

    def test_only_the_maximal_stratum_is_dense(self):
        for n in range(2, 16):
            top = greedy_maximal_diagram(n)
            for d in enumerate_diagrams(n):
                dim = stratum_dim(HilbertFunction(d))
                assert dim <= 2 * n
                assert (dim == 2 * n) == (d == top)

    def test_matches_direct_expansion(self):
        for n in range(1, 26):
            for d in enumerate_diagrams(n):
                assert stratum_dim(HilbertFunction(d)) == 1 + n + dim_constant_by_product(d)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            stratum_dim(HilbertFunction(CastelnuovoDiagram(())))


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
        t_phi = _tangent(hf("1,1,1"), -2, 5)
        t_psi = _tangent(hf("1,2"), -2, 5)
        diff = {m: t_phi[m] - t_psi[m] for m in range(-2, 6)}
        assert diff == {m: (1 if m == 0 else 0) for m in range(-2, 6)}

    def test_deterministic(self):
        a = _tangent(hf("1,2,3,3"), -4, 8)
        b = _tangent(hf("1,2,3,3"), -4, 8)
        assert a == b

    def test_values_are_section_counts(self):
        # dimensions of section spaces are never negative
        for n in range(1, 13):
            for d in enumerate_diagrams(n):
                window = _tangent(HilbertFunction(d), -5, len(d.s) + 5)
                assert all(v >= 0 for v in window.values())

    def test_agreement_outside_move_window(self):
        for n in range(1, 16):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
                for pair in cover_moves(phi):
                    lo, hi = pair.u - 8, pair.v + 8
                    t_phi = _tangent(phi, lo, hi)
                    t_psi = _tangent(pair.psi, lo, hi)
                    for m in range(lo, hi + 1):
                        if not (pair.u - 3 <= m <= pair.v + 1):
                            assert t_phi[m] == t_psi[m]

    def test_matches_degreewise_formula(self):
        # Windows below degree 0, across the whole diagram, past its end and
        # of width one, against h(m), the truncated-series relation counts and
        # the Euler-sequence section counts evaluated degree by degree.
        for n in range(1, 16):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
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
                    assert _tangent(phi, lo, hi) == expected

    def test_windows_past_the_padded_values(self):
        # Windows that fit the row's degrees -3 .. L+4 exactly, reach one
        # degree past either end, lie wholly past either end, or reach far
        # past both, against the degree-by-degree formula.
        shapes = [(1,) * 12, (1, 2, 3, 3, 2) + (1,) * 8, (1, 2, 3, 2, 1, 1), (1, 2), (1,)]
        for phi in [HilbertFunction(CastelnuovoDiagram(s)) for s in shapes]:
            q = numerator_by_truncation(phi)
            top = len(phi.transient) + 3  # the row's last degree, L+4
            windows = ((-3, top), (-4, top), (-3, top + 1), (-4, -4), (-6, -4), (top + 1, top + 1), (top, top + 3))
            for lo, hi in (*windows, (-20, top + 20)):
                expected = {
                    m: tangent_sections_by_euler(m)
                    - 3 * phi.value(m + 1)
                    + phi.value(m)
                    + max(-q.get(m + 3, 0), 0)
                    for m in range(lo, hi + 1)
                }
                assert _tangent(phi, lo, hi) == expected

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            _tangent(hf("1"), 3, 2)


class TestTangentLeq:
    """The tangent comparison psi <= phi: no degree of the move's window
    [u-3, v+4] where psi's tangent function exceeds phi's."""

    @staticmethod
    def excess(lower, upper):
        pair = is_length_zero(hf(lower), hf(upper))
        found = cover_excess(_row(pair.phi), _row(pair.psi), pair.u, pair.v)
        assert found == tangent_excess_by_formula(pair.phi, pair.psi, pair.u - 3, pair.v + 4)
        return found

    def test_weight3_pair(self):
        assert self.excess("1,1,1", "1,2") == []

    def test_weight14_pair_fails(self):
        assert self.excess("1,2,3,4,2,1,1", "1,2,3,4,2,2") != []

    def test_identical_inputs(self):
        phi = hf("1,2,3,3")
        row = _row(phi)
        for pair in cover_moves(phi):
            assert cover_excess(row, row, pair.u, pair.v) == []

    def test_window_must_cover_the_move(self):
        # Here psi wins only at u - 3, the left end of the window: a wider
        # window finds the same degree, one that starts after it misses it.
        lower, upper = "1,2,3,2,1,1", "1,2,3,2,2"
        pair = is_length_zero(hf(lower), hf(upper))
        lo, hi = pair.u - 3, pair.v + 4
        assert self.excess(lower, upper) == [lo]
        assert tangent_excess_by_formula(pair.phi, pair.psi, lo - 5, hi + 5) == [lo]
        assert tangent_excess_by_formula(pair.phi, pair.psi, lo + 1, hi) == []


class TestTangentExcess:
    def test_matches_tangent_function(self):
        # On every cover with n <= 25 the comparison of the two rows names
        # exactly the degrees of the window where the degree-by-degree
        # formula of psi exceeds phi's; with the tables swapped, each row
        # reads the table it is given.
        swapped = 0
        for n in range(1, 26):
            for d in enumerate_diagrams(n):
                phi = HilbertFunction(d)
                b_phi = generic_betti(phi)
                for pair in cover_moves(phi):
                    psi = pair.psi
                    b_psi = generic_betti(psi)
                    expected = tangent_excess_by_formula(phi, psi, pair.u - 3, pair.v + 4)
                    rows = cover_row(phi, b_phi), cover_row(psi, b_psi)
                    assert cover_excess(*rows, pair.u, pair.v) == expected
                    for h, own, other in ((phi, b_phi, b_psi), (psi, b_psi, b_phi)):
                        given, by_own = cover_row(h, other), cover_row(h, own)
                        assert [x - y for x, y in zip(given, by_own)] == [
                            other.b.get(m, 0) - own.b.get(m, 0) for m in range(len(given))
                        ]
                    swapped += b_phi.b != b_psi.b
        assert swapped > 500

    def test_rejects_unequal_degrees(self):
        # The 2*degree term of each row cancels only between equal degrees,
        # so resolve refuses a hand-built pair of two degrees.
        for phi, psi in (("1,1,1", "1,2,1"), ("1,2", "1"), ("1,2,1", "1,2")):
            pair = CoverPair(hf(phi), hf(psi).diagram.s, 1, 1)
            with pytest.raises(ValueError, match="equal degrees"):
                resolve_incidence(pair)


class TestCoverRows:
    """The rows the sweep caches, one per diagram, and their comparison."""

    @staticmethod
    def covers(n_max):
        """(phi, psi, u, v, phi's cached row, psi's cached row) for every cover with n <= n_max."""
        for n in range(1, n_max + 1):
            entries = {}
            for s in iter_diagrams(n):
                h = HilbertFunction(CastelnuovoDiagram._unchecked(s))
                entries[s] = (h, cache_entry(h, generic_betti(h), stratum_dim(h))[2])
            for phi, row_phi in entries.values():
                for pair in cover_moves(phi):
                    psi, row_psi = entries[pair.psi_heights]
                    yield phi, psi, pair.u, pair.v, row_phi, row_psi

    def test_cached_rows_decide_every_cover_as_the_formula(self):
        # On the window [u-3, v+4], and over the whole of both rows, where
        # outside them the tangent functions agree (the rows are 2*degree
        # below degree -1 and 0 from the last column on), against the
        # degree-by-degree formula of each side.
        seen = 0
        for phi, psi, u, v, row_phi, row_psi in self.covers(30):
            lo, hi = u - 3, v + 4
            assert cover_excess(row_phi, row_psi, u, v) == tangent_excess_by_formula(phi, psi, lo, hi)
            top = min(len(row_phi), len(row_psi)) - 4  # the last degree both rows hold
            whole = [m for m in range(-3, top + 1) if row_psi[m + 3] > row_phi[m + 3]]
            assert whole == tangent_excess_by_formula(phi, psi, lo - 20, hi + 20)
            seen += 1
        assert seen == 3702

    def test_cover_excess_reads_exactly_the_required_window(self):
        for u, v in ((1, 1), (2, 3), (4, 9)):
            low, high = [0] * (v + 12), [1] * (v + 12)
            assert cover_excess(low, high, u, v) == list(range(u - 3, v + 5))
            assert cover_excess(high, low, u, v) == []

    def test_rows_are_the_tangent_function_less_the_sections(self):
        # Against h(m), the truncated-series relation counts and the
        # Euler-sequence section counts, degree by degree.
        for n in range(1, 31):
            for d in enumerate_diagrams(n):
                h = HilbertFunction(d)
                table = generic_betti(h)
                q = numerator_by_truncation(h)
                row = cover_row(h, table)
                top = len(d.s) + 3
                assert len(row) == top + 4
                assert row == [
                    h.value(m) - 3 * h.value(m + 1) + max(-q.get(m + 3, 0), 0) + 2 * n
                    for m in range(-3, top + 1)
                ]
                assert tangent_function(h, -3, top, table) == {
                    m: tangent_sections_by_euler(m) + row[m + 3] - 2 * n for m in range(-3, top + 1)
                }
                assert row[:2] == [2 * n, 2 * n] and row[-5:] == [0] * 5
                assert min(row) >= 0 and max(row) <= 2 * n

    def test_row_bound_proof_steps(self):
        """Every ``cover_row`` value lies in 0 .. 2 deg, for every n.

        Write d for the degree, s_i for the height of column i (0 outside
        0..L), T(m) = sum over i > m of s_i, so h(m) = d - T(m), and b_l
        for the relation count at degree l of the generic table.

        1. The row at m is h(m) - 3 h(m+1) + b_{m+3} + 2d
           = -T(m) + 3 T(m+1) + b_{m+3} = 2 T(m+1) - s_{m+1} + b_{m+3}.
        2. At m = -3 this is 2d, since T(-2) = d, s_{-2} = 0 and b_0 = 0.
        3. For m >= -2, b_{m+3} = max(-q_{m+3}, 0) with
           q_l = [l = 0] - (s_l - 2 s_{l-1} + s_{l-2}) and m + 3 >= 1, so
           b_{m+3} >= s_{m+3} - 2 s_{m+2} + s_{m+1}, and the row is at
           least 2 T(m+1) - 2 s_{m+2} + s_{m+3} = 2 T(m+2) + s_{m+3} >= 0.
        4. Where b_{m+3} = 0 the row is 2 T(m+1) - s_{m+1} <= 2 T(m+1) <= 2d.
        5. Otherwise b_{m+3} = -q_{m+3}, the bound of step 3 is an
           equality, and the row is 2 T(m+2) + s_{m+3}
           = 2d - 2 h(m+2) + s_{m+3}.  If s_{m+3} > 0, columns 0..m+3 are
           all nonempty, so h(m+2) >= m + 3, and a column i holds at most
           i + 1 squares, so s_{m+3} <= m + 4 <= 2 (m + 3) <= 2 h(m+2) for
           m >= -2; if s_{m+3} = 0 the row is 2d - 2 h(m+2) <= 2d.  Either
           way the row is at most 2d.

        No step depends on n, so the bound holds at every weight.  The
        identity of step 1 and the bounds of steps 3-5 are checked here for
        n <= 30, each from the heights and the table's relation counts.
        """
        for n in range(1, 31):
            for s in iter_diagrams(n):
                h = HilbertFunction(CastelnuovoDiagram._unchecked(s))
                table = generic_betti(h)
                b, row = table.b, cover_row(h, table)
                col = lambda i: s[i] if 0 <= i < len(s) else 0
                tail = lambda m: sum(s[max(m + 1, 0) :])  # T(m)
                for m in range(-3, len(s) + 4):
                    value, rel = row[m + 3], b.get(m + 3, 0)
                    assert value == 2 * tail(m + 1) - col(m + 1) + rel
                    if m == -3:
                        assert value == 2 * n
                        continue
                    assert rel >= col(m + 3) - 2 * col(m + 2) + col(m + 1)
                    assert value >= 2 * tail(m + 2) + col(m + 3) >= 0
                    if rel == 0:
                        assert value <= 2 * tail(m + 1) <= 2 * n
                    else:
                        assert value == 2 * n - 2 * (n - tail(m + 2)) + col(m + 3)
                        assert col(m + 3) <= 2 * (n - tail(m + 2))


def test_dimension_delta_formulas_agree():
    # Both closed forms for dim(psi) - dim(phi) hold on every cover.
    for n in range(1, 21):
        for d in enumerate_diagrams(n):
            phi = HilbertFunction(d)
            dim_phi = stratum_dim(phi)
            table = generic_betti(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                e = -1 if v == u else (1 if v == u + 1 else 0)
                actual = stratum_dim(pair.psi) - dim_phi
                by_table = (
                    sum(table.a.get(i, 0) - table.b.get(i, 0) for i in range(u, v + 1))
                    - sum(table.a.get(i, 0) - table.b.get(i, 0) for i in range(u + 3, v + 4))
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
            phi = HilbertFunction(d)
            table = generic_betti(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                lo, hi = u - 3, v + 4
                t_phi = tangent_function(phi, lo, hi, table)
                t_psi = _tangent(pair.psi, lo, hi)
                for m in range(lo, hi + 1):
                    if m not in (u - 3, v):
                        assert t_psi[m] <= t_phi[m]
                shortcut = table.a.get(u, 0) != 0 and table.b.get(v + 3, 0) != 0
                assert (not cover_excess(cover_row(phi, table), _row(pair.psi), u, v)) == shortcut


def test_wide_move_dimension_law():
    # For moves spanning three or more columns the dimension comparison is
    # two Betti equalities, and a strict increase is exactly one.
    seen = 0
    for n in range(1, 21):
        for d in enumerate_diagrams(n):
            phi = HilbertFunction(d)
            table = generic_betti(phi)
            dim_phi = stratum_dim(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                if v < u + 2:
                    continue
                seen += 1
                dim_psi = stratum_dim(pair.psi)
                law = (
                    table.a.get(u, 0) == table.b.get(u + 1, 0) + 1
                    and table.a.get(v + 2, 0) == table.b.get(v + 3, 0)
                )
                assert (dim_phi < dim_psi) == law
                if law:
                    assert dim_psi == dim_phi + 1
    assert seen > 50
