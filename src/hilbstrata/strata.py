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
function and the relation counts of the generic Betti table.

One row holds it and one comparison reads it.  ``cover_row`` is the only
place the formula is evaluated: over degrees -3 .. L+4, every degree a
cover's window reads on either side, it lists h(m) - 3 h(m+1) + b_{m+3}
+ 2 deg.  The two constants of the tangent value stay outside the row:
the sections term, which depends only on m, is left out, and twice the
degree, which depends only on the degree, is added; both cancel between
two strata of one degree, and ``tangent_function`` takes both back on
any window.  With the shift the values are 2 deg below degree -1, 0 from
the last column on and between 0 and 2 deg in between (proved for every
n in ``test_row_bound_proof_steps``, which checks each step for
n <= 30); up to weight 128 they are small ints, which
CPython shares, so a row costs one pointer per degree.  ``cover_excess``
compares two rows on a cover's window in one C-level ``compress``/``map``
pass.  Each row reads only its own h and its own b.  The sweep and the
graph keep one row per diagram and compare all of its covers from it;
``resolve_incidence`` builds the two rows of its one cover.
"""

from itertools import compress, count
from operator import gt, mul, sub

from .diagrams import HilbertFunction
from .resolution import BettiTable


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


def cover_row(hf: HilbertFunction, betti: BettiTable) -> list:
    """h(m) - 3*h(m+1) + b(m+3) + 2*degree for m in -3 .. L+4 (L the last
    column of ``hf``), degree m at index m + 3.

    ``b`` holds the relation counts of ``betti``, the generic Betti table
    of ``hf``.  The degrees are every degree that the window of a cover
    reads, with ``hf`` on either side of the cover.
    """
    d = hf.degree
    h = [0, 0, 0, *hf.transient, d, d, d, d, d]  # h(m) at index m + 3
    twice = 2 * d
    row = [x - 3 * y + twice for x, y in zip(h, h[1:])]
    for m, c in betti.b.items():
        row[m] += c  # b(m) enters the row at degree m - 3, index m
    return row


def cover_excess(row_phi: list, row_psi: list, u: int, v: int) -> list:
    """Degrees of the window [u-3, v+4] of a cover (u, v) where psi's
    tangent function exceeds phi's, from the two sides' ``cover_row`` lists
    (two functions of one degree); the tangent comparison holds exactly
    when the list is empty.

    The difference of the two tangent functions is supported inside
    [u-3, v+1]; the margin up to v+4 also covers the shifted relation
    counts and costs nothing.  The window is the slice [u, v+8) of each
    row; psi's row reaches that far because psi's last column is phi's or
    the one before.
    """
    return list(compress(count(u - 3), map(gt, row_psi[u : v + 8], row_phi[u : v + 8])))


def tangent_function(hf: HilbertFunction, lo: int, hi: int, betti: BettiTable):
    """Exact tangent-function values on the degree window [lo, hi].

    Value at m:  sections(m) - 3*h(m+1) + h(m) + b(m+3), with b the
    relation counts of ``betti``, the generic Betti table of ``hf``: the
    sections term added back to ``cover_row``, which is 2*degree below its
    first degree and 0 past its last.
    """
    if lo > hi:
        raise ValueError("empty window")
    row = cover_row(hf, betti)
    twice = 2 * hf.degree
    return {
        m: tangent_bundle_sections(m) - twice + (row[m + 3] if 0 <= m + 3 < len(row) else twice if m < 0 else 0)
        for m in range(lo, hi + 1)
    }
