"""Property tests for every text input path and the move search.

Every example run is derived from the test itself (``derandomize``), so a
failure repeats on every run of the suite.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbstrata.cli import main
from hilbstrata.diagrams import (
    CastelnuovoDiagram,
    HilbertFunction,
    _heights,
    _parse_int_list,
    count_diagrams,
    iter_diagrams,
    parse_diagram,
    parse_hilbert_function,
    run_of_ones,
)
from hilbstrata.graph import build_hilbert_graph, emit, parse_graph_json
from hilbstrata.incidence import cover_moves, is_length_zero, move_params, resolve_incidence
from hilbstrata.resolution import generic_betti
from hilbstrata.strata import stratum_dim
from oracles import brute_single_square_moves, move_image, parse_int_list_by_tokens

deterministic = settings(deadline=None, derandomize=True)


def _at_rank(draw, n):
    """The weight-n diagram at a rank drawn uniformly."""
    r = draw(st.integers(0, count_diagrams(n) - 1))
    s = next(iter_diagrams(n, r, r + 1))
    assert _heights(s) == s and sum(s) == n
    return CastelnuovoDiagram(s)


@st.composite
def diagrams(draw, max_weight=200):
    """A weight-n diagram, n <= ``max_weight``, drawn uniformly by rank."""
    return _at_rank(draw, draw(st.integers(0, max_weight)))


# Text near the grammar (digits, signs, separators, a superscript and a
# fullwidth digit) finds more parser branches than arbitrary text alone.
NEAR_GRAMMAR = "0123456789-,. \t²１"
texts = st.one_of(
    st.text(),
    st.text(alphabet=NEAR_GRAMMAR),
    st.text(alphabet=NEAR_GRAMMAR).map(lambda t: t + ".."),
    diagrams().map(lambda d: d.render()),
    diagrams().map(lambda d: HilbertFunction(d).render()),
)


def _cover_params(d):
    """The (u, v) of the covers above the diagram ``d``."""
    return [(p.u, p.v) for p in cover_moves(HilbertFunction(d))]


@st.composite
def pairs(draw):
    """Two texts for ``resolve``: arbitrary, or a diagram and the image of
    one of its covers or of any of its single-square moves, rendered either
    way."""
    if draw(st.booleans()):
        return draw(texts), draw(texts)
    phi = draw(diagrams())
    moves = _cover_params(phi) if draw(st.booleans()) else move_params(phi)
    psi = move_image(phi, *draw(st.sampled_from(moves))) if moves else phi
    if draw(st.booleans()):
        return HilbertFunction(phi).render(), HilbertFunction(psi).render()
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


# What ``int`` reads beyond the token grammar ('+', '_'), the whitespace
# that ``strip`` removes and ``int`` does not ('\x1c'..'\x1f'), and a
# no-break space, which both remove.
BEYOND_GRAMMAR = "+_\x1c\x1d\x1e\x1f\u00a0"


def _tokens(padding, signs, digits, min_digits):
    pad = st.text(alphabet=padding, max_size=2)
    return st.builds(
        "{}{}{}{}".format,
        pad,
        st.sampled_from(signs),
        st.text(alphabet=digits, min_size=min_digits, max_size=4),
        pad,
    )


int_tokens = st.one_of(
    # Tokens that int() reads, so that whole lists of them come up, ...
    _tokens(" \t\u00a0", ("", "-"), "0123456789１", 1),
    # ... and tokens with padding, a sign, a separator or a digit that one of
    # the two readings rejects.
    _tokens(" \t\u00a0\x1c\x1f", ("", "-", "+", "--"), "0123456789_²１", 0),
)
int_list_texts = st.one_of(
    st.text(alphabet=NEAR_GRAMMAR + BEYOND_GRAMMAR),
    st.lists(int_tokens, min_size=1, max_size=6).map(",".join),
)


def _outcome(parse, text):
    try:
        return parse(text, "diagram")
    except ValueError as exc:
        return f"ValueError: {exc}"


@deterministic
@given(int_list_texts)
@example("1,2," + "9" * 5000)
@example("\x1c1,-2\x1f")
@example("1,+2")
@example("1_0,2")
def test_int_lists_read_as_the_token_loop_reads_them(text):
    # The same list, or a ValueError with the same message.  A 5,000-digit
    # token exceeds int's digit limit on both paths.
    assert _outcome(_parse_int_list, text) == _outcome(parse_int_list_by_tokens, text)


@deterministic
@given(diagrams())
def test_rendered_text_round_trips(d):
    assert parse_diagram(d.render()) == d
    h = HilbertFunction(d)
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
    assert _cover_params(d) == minimal


def run_of_ones_by_degree(phi, psi):
    """[u, v] with u >= 1 where psi - phi is 1, and 0 elsewhere, else None;
    the difference taken degree by degree through ``value``."""
    top = max(len(phi.diagram), len(psi.diagram))
    diff = [psi.value(m) - phi.value(m) for m in range(top)]
    support = [m for m, d in enumerate(diff) if d]
    if not support or any(diff[m] != 1 for m in support):
        return None
    u, v = support[0], support[-1]
    if u < 1 or v - u + 1 != len(support):
        return None
    return u, v


@st.composite
def same_weight_pairs(draw):
    """Two diagrams of one weight: any two, or one and the result of one to
    three single-square moves applied in turn (so the difference can be a
    run, two runs, or reach 2)."""
    phi = draw(diagrams(max_weight=60))
    n = sum(phi.s)
    if draw(st.booleans()):
        return phi, _at_rank(draw, n)
    psi = phi
    for _ in range(draw(st.integers(1, 3))):
        moves = move_params(psi)
        if moves:
            psi = move_image(psi, *draw(st.sampled_from(moves)))
    return phi, psi


@deterministic
@given(same_weight_pairs())
@example((CastelnuovoDiagram((1, 2, 3, 3, 3, 1, 1)), CastelnuovoDiagram((1, 2, 3, 4, 2, 2))))
def test_run_of_ones_matches_the_degreewise_oracle(pair):
    # The example differs by 1 at degrees 3 and 5 only: two runs, no answer.
    phi, psi = (HilbertFunction(d) for d in pair)
    assert run_of_ones(phi, psi) == run_of_ones_by_degree(phi, psi)
    assert run_of_ones(psi, phi) == run_of_ones_by_degree(psi, phi)


@deterministic
@given(diagrams(max_weight=60), diagrams(max_weight=60))
def test_run_of_ones_rejects_a_degree_mismatch(a, b):
    if sum(a.s) != sum(b.s):
        with pytest.raises(ValueError, match="degree mismatch"):
            run_of_ones(HilbertFunction(a), HilbertFunction(b))


# JSON values of the kinds a graph record holds, nested a little.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
GRAPH_RECORDS = {n: json.loads(emit(build_hilbert_graph(n), "json")) for n in range(1, 7)}


@st.composite
def mutated_graph_records(draw):
    """The JSON text of a valid weight <= 6 graph record after one to three
    edits, each at any depth: a value replaced by another JSON value, an
    integer moved by one, an entry deleted, or a key or an entry inserted."""
    record = copy.deepcopy(GRAPH_RECORDS[draw(st.integers(1, 6))])
    for _ in range(draw(st.integers(1, 3))):
        parent = record
        while parent:
            keys = list(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
            child = parent[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            parent = child
        if not parent:
            continue
        action = draw(st.sampled_from(("replace", "nudge", "delete", "insert")))
        if action == "delete":
            del parent[key]
        elif action == "insert" and isinstance(parent, dict):
            parent[draw(st.text(max_size=4))] = draw(json_values)
        elif action == "insert":
            parent.insert(key, draw(json_values))
        elif action == "nudge" and type(parent[key]) is int:
            parent[key] += draw(st.sampled_from((-1, 1)))
        else:
            parent[key] = draw(json_values)
    return json.dumps(record)


@deterministic
@given(st.one_of(st.text(), mutated_graph_records()))
def test_graph_parser_returns_a_graph_or_raises_value_error(text):
    try:
        g = parse_graph_json(text)
    except ValueError:
        return
    # An accepted record is the one the emitter writes for its graph, and it
    # states only what the library computes itself.
    assert json.loads(emit(g, "json")) == json.loads(text)
    for node in g.nodes:
        assert node.betti == generic_betti(node.hf) and node.dim == stratum_dim(node.hf)
    for e in g.edges:
        lower, upper = g.nodes[e.from_id], g.nodes[e.to_id]
        assert e.verdict == resolve_incidence(is_length_zero(lower.hf, upper.hf))
