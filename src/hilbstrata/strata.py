"""Numerical invariants of a stratum: dimension and tangent-twist function.

The stratum of a Hilbert function h is smooth and connected; its dimension
is 1 + n + c where c is the constant coefficient of
(t^-1 - t^-2) * s(t^-1) * s(t) for the height sequence s.  In that product
t^-1 pairs each column with its right neighbour and t^-2 with the column
two steps right, so the closed form is

    dim = 1 + n + sum_i s_i (s_{i+1} - s_{i+2}),

summed by ``stratum_dim`` with ``map`` over the shifted height tuples.
Across a cover (u, v) the dimension grows by e + sum over i in u..v of
(q_i - q_{i+3}) in terms of phi's numerator row q (``resolution``), with
e = -1, 1 or 0 for v = u, v = u+1 or a wider move; the sum telescopes to
e + (q_u + q_{u+1} + q_{u+2}) - (q_{v+1} + q_{v+2} + q_{v+3}), which is
how the sweep checks the difference of two ``stratum_dim`` values.

The tangent function counts global sections of the ideal sheaf twisted by
the tangent bundle of the plane.  Its value at m is
sections(m) - 3 h(m+1) + h(m) + b_{m+3}, read straight off the Hilbert
function and the relation counts of the generic Betti table; only windows
of it are ever needed, and they are computed exactly degree by degree.

The formula is written once, in ``tangent_row``: on a window it lists
h(m) - 3 h(m+1) + b_{m+3} + 2 deg, the tangent value less the sections
term (which depends only on m) plus twice the degree.  That shift makes
the values 2 deg below degree -1, 0 from the last column on and between
0 and 2 deg in between (checked for n <= 30 in the tests), so up to
weight 128 they are small ints, which CPython shares, and a row costs one
pointer per degree.  ``tangent_function`` adds the sections term back and
takes the shift off.  Two strata of one degree are compared
(``tangent_excess``) by comparing their rows in one C-level
``compress``/``map`` pass; the sections term and the shift cancel, so the
degrees must be equal.  Each row reads only its own h and its own b.  The
h values come from ``HilbertFunction.padded``, h(-3) .. h(L+5), or from a
copy padded further for a window that reaches past it.  ``cover_row`` is
the row over degrees -3 .. L+4, every degree that a cover's window reads
on either side, and ``cover_excess`` compares two such rows on a cover's
window by slicing: the sweep and the graph keep one row per diagram and
compare all of its covers from it.
"""

from itertools import compress, count
from operator import gt, mul, sub

from .diagrams import HilbertFunction
from .resolution import BettiTable, generic_betti


def stratum_dim(hf: HilbertFunction) -> int:
    """Dimension of the stratum of ``hf`` (degree must be at least 1)."""
    if hf.degree < 1:
        raise ValueError("stratum dimension needs degree >= 1")
    s = hf.diagram.s
    return 1 + hf.degree + sum(map(mul, s, map(sub, s[1:], s[2:] + (0,))))


def tangent_bundle_sections(m: int) -> int:
    """Global sections of the plane's tangent bundle twisted by ``m``.

    The bundle sits between three copies of the degree-2 twist and one
    degree-3 twist of the structure sheaf, with a single unit of
    higher-cohomology correction at twist -3:
    3 C(m+4, 2) - C(m+5, 2) + [m = -3], which is (m+2)(m+4) for m >= -2
    and 0 below.  At m = 0 this gives 8, the dimension of the symmetry
    algebra of the plane.
    """
    return (m + 2) * (m + 4) if m >= -2 else 0


def tangent_row(hf: HilbertFunction, lo: int, hi: int, betti: BettiTable | None = None) -> list:
    """h(m) - 3*h(m+1) + b(m+3) + 2*degree for every m in [lo, hi], in order.

    The tangent-function value at m less the sections term, which depends
    only on m, plus twice the degree, which depends only on the degree.
    ``b`` holds the relation counts of the generic Betti table of ``hf``
    (``betti`` when given).  The h values are read from ``hf.padded``, or
    from a copy padded further for a window that reaches past it.
    """
    b = (betti if betti is not None else generic_betti(hf)).b
    h = hf.padded
    start = lo + 3  # the index of h(lo)
    if start < 0 or hi + 4 >= len(h):
        h = [0] * max(0, -start) + h + [hf.degree] * max(0, hi + 5 - len(h))
        start = max(start, 0)
    stop = start + hi - lo + 1
    twice = 2 * hf.degree
    row = [x - 3 * y + twice for x, y in zip(h[start:stop], h[start + 1 : stop + 1])]
    for d, c in b.items():
        if lo <= d - 3 <= hi:
            row[d - 3 - lo] += c
    return row


def row_excess(row_phi, row_psi, lo: int) -> list:
    """Degrees where ``row_psi`` exceeds ``row_phi``: two ``tangent_row``
    lists of one degree over one window that starts at degree ``lo``."""
    return list(compress(count(lo), map(gt, row_psi, row_phi)))


def cover_row(hf: HilbertFunction, betti: BettiTable | None = None) -> list:
    """``tangent_row`` of ``hf`` over degrees -3 .. L+4 (L its last column),
    degree m at index m + 3: every degree that the window of a cover reads,
    with ``hf`` on either side of the cover."""
    return tangent_row(hf, -3, len(hf.diagram.s) + 3, betti)


def cover_excess(row_phi: list, row_psi: list, u: int, v: int) -> list:
    """``tangent_excess`` of a cover (u, v) on its required window, from the
    two sides' ``cover_row`` lists.

    The window [u-3, v+4] is the slice [u, v+8) of each row.  psi's row
    reaches that far because psi's last column is phi's or the one before.
    """
    return row_excess(row_phi[u : v + 8], row_psi[u : v + 8], u - 3)


def tangent_function(hf: HilbertFunction, lo: int, hi: int, betti: BettiTable | None = None):
    """Exact tangent-function values on the degree window [lo, hi].

    Value at m:  sections(m) - 3*h(m+1) + h(m) + b(m+3), with b the
    relation counts of the generic Betti table of ``hf``: the sections
    term added back to ``tangent_row``.
    """
    if lo > hi:
        raise ValueError("empty window")
    twice = 2 * hf.degree
    return {
        m: tangent_bundle_sections(m) + t - twice
        for m, t in zip(range(lo, hi + 1), tangent_row(hf, lo, hi, betti))
    }


def required_window(u: int, v: int):
    """Window guaranteed to decide the tangent comparison for a move (u, v).

    The difference of the two tangent functions is supported inside
    [u-3, v+1]; the margin up to v+4 also covers the shifted relation
    counts and costs nothing.
    """
    return u - 3, v + 4


def tangent_excess(
    phi: HilbertFunction,
    psi: HilbertFunction,
    lo: int,
    hi: int,
    betti_phi: BettiTable | None = None,
    betti_psi: BettiTable | None = None,
) -> list:
    """Degrees in [lo, hi] where the tangent function of ``psi`` exceeds that of ``phi``.

    Compares the two sides' ``tangent_row`` lists, each from its own Hilbert
    function and its own relation counts; the sections term is the same on
    both sides and cancels, and so does the 2*degree term, which is why
    the degrees must be equal.  The tangent comparison holds exactly when
    the list is empty.
    """
    if lo > hi:
        raise ValueError("empty window")
    if phi.degree != psi.degree:
        raise ValueError(f"tangent comparison needs equal degrees, got {phi.degree} and {psi.degree}")
    return row_excess(tangent_row(phi, lo, hi, betti_phi), tangent_row(psi, lo, hi, betti_psi), lo)
