"""Property tests for every text input path and the move search.

Every example run is derived from the test itself (``derandomize``), so a
failure repeats on every run of the suite.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from hilbstrata.cli import main
from hilbstrata.diagrams import (
    CastelnuovoDiagram,
    count_diagrams,
    is_castelnuovo,
    parse_diagram,
    parse_hilbert_function,
    unrank,
)
from hilbstrata.incidence import _scan_covers, apply_move, move_params
from oracles import brute_single_square_moves

deterministic = settings(deadline=None, derandomize=True)


@st.composite
def diagrams(draw, max_weight=200):
    """A weight-n diagram, n <= ``max_weight``, drawn uniformly by rank."""
    n = draw(st.integers(0, max_weight))
    s = unrank(n, draw(st.integers(0, count_diagrams(n) - 1)))
    assert is_castelnuovo(s) and sum(s) == n
    return CastelnuovoDiagram(s)


# Text near the grammar (digits, signs, separators, a superscript and a
# fullwidth digit) finds more parser branches than arbitrary text alone.
NEAR_GRAMMAR = "0123456789-,. \t²１"
texts = st.one_of(
    st.text(),
    st.text(alphabet=NEAR_GRAMMAR),
    st.text(alphabet=NEAR_GRAMMAR).map(lambda t: t + ".."),
    diagrams().map(lambda d: d.render()),
    diagrams().map(lambda d: d.hilbert_function().render()),
)


@st.composite
def pairs(draw):
    """Two texts for ``resolve``: arbitrary, or a diagram and the image of
    one of its covers or of any of its single-square moves, rendered either
    way."""
    if draw(st.booleans()):
        return draw(texts), draw(texts)
    phi = draw(diagrams())
    moves = _scan_covers(phi.s) if draw(st.booleans()) else move_params(phi)
    psi = apply_move(phi, *draw(st.sampled_from(moves))) if moves else phi
    if draw(st.booleans()):
        return phi.hilbert_function().render(), psi.hilbert_function().render()
    return phi.render(), psi.render()


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@deterministic
@given(texts)
def test_parsers_return_a_value_or_raise_value_error(text):
    for parse in (parse_diagram, parse_hilbert_function):
        try:
            parse(text)
        except ValueError:
            pass


@deterministic
@given(diagrams())
def test_rendered_text_round_trips(d):
    assert parse_diagram(d.render()) == d
    h = d.hilbert_function()
    assert parse_hilbert_function(h.render()) == h


@deterministic
@given(st.sampled_from(("betti", "dim")), texts)
def test_one_diagram_queries_exit_0_or_2(command, text):
    assert run_main([command, "--phi", text]) in (0, 2)


@deterministic
@given(pairs())
def test_resolve_exits_0_or_2(pair):
    phi, psi = pair
    assert run_main(["resolve", "--phi", phi, "--psi", psi]) in (0, 2)


@deterministic
@given(diagrams())
def test_moves_match_the_brute_force_oracle(d):
    moves = brute_single_square_moves(d)
    assert move_params(d) == moves
    minimal = [
        (u, v)
        for u, v in moves
        if not any((up, vp) != (u, v) and up >= u and vp <= v for up, vp in moves)
    ]
    assert _scan_covers(d.s) == minimal
