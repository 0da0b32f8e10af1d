from conftest import hf, long_diagrams
from hilbstrata.diagrams import HilbertFunction, enumerate_diagrams
from hilbstrata.incidence import cover_moves
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import stratum_dim
from hilbstrata.sweep import cache_entry, check_cover
from oracles import betti_table_from_counts, numerator_by_truncation


def _nonzero(q):
    """The nonzero coefficients of a dense coefficient list, by degree."""
    return {l: c for l, c in enumerate(q) if c}


def _product(f, g):
    """Product of two polynomials given as {degree: coefficient} dicts, zeros dropped."""
    out = {}
    for d, c in f.items():
        for e, k in g.items():
            out[d + e] = out.get(d + e, 0) + c * k
    return {d: c for d, c in out.items() if c}


class TestNumerator:
    def test_three_collinear(self):
        assert generic_betti(hf("1,1,1")).q == (0, 1, 0, 1, -1)

    def test_one_point(self):
        assert generic_betti(hf("1")).q == (0, 2, -1)

    def test_three_generic(self):
        assert generic_betti(hf("1,2")).q == (0, 0, 3, -2)

    def test_value_at_one_is_always_one(self):
        for n in range(1, 21):
            for d in enumerate_diagrams(n):
                q = generic_betti(HilbertFunction(d)).q
                assert sum(q) == 1

    def test_matches_truncated_series_oracle(self):
        for n in range(1, 21):
            for d in enumerate_diagrams(n):
                h = HilbertFunction(d)
                assert _nonzero(generic_betti(h).q) == numerator_by_truncation(h)


class TestGenericBetti:
    def test_one_point(self):
        t = generic_betti(hf("1"))
        assert t.a == {1: 2} and t.b == {2: 1}

    def test_three_collinear(self):
        t = generic_betti(hf("1,1,1"))
        assert t.a == {1: 1, 3: 1} and t.b == {4: 1}

    def test_three_generic(self):
        t = generic_betti(hf("1,2"))
        assert t.a == {2: 3} and t.b == {3: 2}

    def test_render(self):
        assert generic_betti(hf("1")).render() == "a: {1: 2}, b: {2: 1}"

    def test_no_degree_carries_both(self):
        for n in range(1, 21):
            for d in enumerate_diagrams(n):
                t = generic_betti(HilbertFunction(d))
                assert not set(t.a) & set(t.b)
                assert all(c > 0 for c in t.a.values())
                assert all(c > 0 for c in t.b.values())

    def test_split_of_truncated_series_oracle(self):
        # Generators are the positive, relations the negated negative
        # coefficients of the numerator found from the ideal's value table.
        for n in range(0, 26):
            for d in enumerate_diagrams(n):
                h = HilbertFunction(d)
                q = numerator_by_truncation(h)
                t = generic_betti(h)
                assert t.a == {l: c for l, c in q.items() if c > 0}
                assert t.b == {l: -c for l, c in q.items() if c < 0}

    def test_split_of_truncated_series_oracle_on_long_tails(self):
        # 150-column tails, where most second differences are zero: the
        # counts, their degree order (which ``render`` prints) and the row.
        for d in long_diagrams(150, 40):
            h = HilbertFunction(d)
            q = numerator_by_truncation(h)
            t = generic_betti(h)
            assert t.a == {l: c for l, c in q.items() if c > 0}
            assert t.b == {l: -c for l, c in q.items() if c < 0}
            assert list(t.a) == sorted(t.a) and list(t.b) == sorted(t.b)
            assert t.q == tuple(q.get(l, 0) for l in range(max(q) + 1))

    def test_rank_one_total(self):
        for n in range(1, 21):
            for d in enumerate_diagrams(n):
                t = generic_betti(HilbertFunction(d))
                assert sum(t.a.values()) - sum(t.b.values()) == 1


def test_cumulative_and_pointwise_height_identities():
    # Partial sums of a_i - b_i equal 1 + s_{l-1} - s_l, and each
    # individual difference is the second difference of the heights.
    for n in range(1, 26):
        for d in enumerate_diagrams(n):
            t = generic_betti(HilbertFunction(d))
            top = len(d.s) + 4
            acc = 0
            for l in range(0, top):
                acc += t.a.get(l, 0) - t.b.get(l, 0)
                assert acc == 1 + d.height(l - 1) - d.height(l)
                if l > 0:
                    assert t.a.get(l, 0) - t.b.get(l, 0) == -d.height(l) + 2 * d.height(l - 1) - d.height(l - 2)


def test_numerator_shift_between_cover_tables():
    # Across a cover the two numerators differ by (t^u - t^{v+1})(1-t)^2.
    move_factor = {0: 1, 1: -2, 2: 1}
    for n in range(1, 26):
        for d in enumerate_diagrams(n):
            phi = HilbertFunction(d)
            q_phi = _nonzero(generic_betti(phi).q)
            for pair in cover_moves(phi):
                q_psi = _nonzero(generic_betti(pair.psi).q)
                shift = _product({pair.u: 1, pair.v + 1: -1}, move_factor)
                expected = {l: q_phi.get(l, 0) - shift.get(l, 0) for l in q_phi.keys() | shift.keys()}
                assert q_psi == {l: c for l, c in expected.items() if c}


def test_zero_pattern_for_wide_covers():
    # Wide moves force vanishing generator/relation counts on the plateau
    # and the three boundary inequalities.
    seen_wide = 0
    for n in range(1, 26):
        for d in enumerate_diagrams(n):
            phi = HilbertFunction(d)
            t = generic_betti(phi)
            for pair in cover_moves(phi):
                u, v = pair.u, pair.v
                if v < u + 1:
                    continue
                seen_wide += 1
                assert all(t.a.get(i, 0) == 0 for i in range(u + 1, v + 2))
                assert all(t.b.get(i, 0) == 0 for i in range(u + 2, v + 3))
                assert t.a.get(u, 0) <= t.b.get(u + 1, 0) + 1
                assert t.a.get(v + 2, 0) > 0
                assert t.b.get(v + 3, 0) <= t.a.get(v + 2, 0)
    assert seen_wide > 100


class TestBettiTable:
    def test_counts_are_keyed_in_ascending_degree(self):
        # The graph's JSON emitter writes each count dict in its own order,
        # and the row ends at its last nonzero degree.
        for n in range(0, 26):
            for d in enumerate_diagrams(n):
                t = generic_betti(HilbertFunction(d))
                assert list(t.a) == sorted(t.a) and list(t.b) == sorted(t.b)
                assert 0 not in t.a.values() and 0 not in t.b.values()
                assert t.q[-1] != 0

    def test_generic_row_matches_counts_and_truncation_oracle(self):
        # The table generic_betti builds from the closed form, the table
        # built from its counts alone, and the numerator found from the
        # ideal's value table are one row.
        for n in range(0, 26):
            for d in enumerate_diagrams(n):
                h = HilbertFunction(d)
                t = generic_betti(h)
                from_counts = betti_table_from_counts(t.a, t.b)
                assert (t.a, t.b, t.q) == (from_counts.a, from_counts.b, from_counts.q)
                oracle = numerator_by_truncation(h)
                assert t.q == tuple(oracle.get(l, 0) for l in range(max(oracle) + 1))

    def test_hand_built_table_with_both_counts_at_one_degree(self):
        # A generator added at u+1 of a wide cover whose phi has a relation
        # there: that degree carries both counts, and its row entry moves by one.
        phi, psi = hf("1,2,1,1,1,1"), hf("1,2,2,1,1")
        pair = next(p for p in cover_moves(phi) if p.psi == psi)
        t = generic_betti(phi)
        assert pair.v >= pair.u + 2 and t.b.get(pair.u + 1, 0) > 0
        mutated = betti_table_from_counts({**t.a, pair.u + 1: 1}, t.b)
        assert mutated.a[pair.u + 1] == 1 and mutated.b[pair.u + 1] == t.b[pair.u + 1]
        entries = cache_entry(phi, mutated, stratum_dim(phi)), cache_entry(psi, generic_betti(psi), stratum_dim(psi))
        failures = check_cover(pair, mutated, *entries)[3]
        assert any(
            line.startswith("betti-zero-pattern:") and "generator in the plateau range" in line
            for line in failures
        )
        shifts = [line for line in failures if line.startswith("numerator-shift:")]
        assert len(shifts) == 1 and shifts[0].endswith(f" degree {pair.u + 1}")
