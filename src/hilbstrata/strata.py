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

Both sides of a window are read by index.  Each Hilbert function keeps its
values h(-3) .. h(L+5) as one list (``HilbertFunction.padded``), computed
once on first use: in the sweep, the lower function's list is built once
and read by all of its covers, and each upper function's once for its one
cover.  A window that starts below -3 or reads past a function's list
gets a copy of that list padded further.  The comparison of two strata on
one window (``tangent_excess``) walks the window once.  The sections term
depends only on m, so it cancels from the comparison and is left out; each
side reads only its own h and its own b.
"""

from operator import mul, sub

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


def _values(hf: HilbertFunction, lo: int, hi: int) -> list:
    """h(m) at index m + max(3, -lo) for every m in [lo, hi + 1].

    ``hf.padded`` itself when it reaches that far, as it does for every
    window a cover decides; else a copy padded with more zeros in front
    and more copies of the degree behind.
    """
    h = hf.padded
    if lo < -3 or hi + 4 >= len(h):
        h = [0] * max(0, -3 - lo) + h + [hf.degree] * max(0, hi + 5 - len(h))
    return h


def tangent_function(hf: HilbertFunction, lo: int, hi: int, betti: BettiTable | None = None):
    """Exact tangent-function values on the degree window [lo, hi].

    Value at m:  sections(m) - 3*h(m+1) + h(m) + b(m+3), with b the
    relation counts of the generic Betti table of ``hf``.
    """
    if lo > hi:
        raise ValueError("empty window")
    b = (betti if betti is not None else generic_betti(hf)).b
    base = max(3, -lo)
    h = _values(hf, lo, hi)
    return {
        m: tangent_bundle_sections(m) - 3 * h[m + base + 1] + h[m + base] + b.get(m + 3, 0)
        for m in range(lo, hi + 1)
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

    One pass over the window compares h(m) - 3*h(m+1) + b(m+3) of the two
    sides, each from its own Hilbert function's values and its own relation
    counts, read by index; the sections term of the tangent function is the
    same on both sides and cancels.  The tangent comparison holds exactly
    when the list is empty.
    """
    if lo > hi:
        raise ValueError("empty window")
    b_phi = (betti_phi if betti_phi is not None else generic_betti(phi)).b
    b_psi = (betti_psi if betti_psi is not None else generic_betti(psi)).b
    base = max(3, -lo)
    h_phi, h_psi = _values(phi, lo, hi), _values(psi, lo, hi)
    get_phi, get_psi = b_phi.get, b_psi.get
    out = []
    for m in range(lo, hi + 1):
        i = m + base
        # Each side's tangent value at m, less the sections term.
        t_phi = h_phi[i] - 3 * h_phi[i + 1] + get_phi(m + 3, 0)
        t_psi = h_psi[i] - 3 * h_psi[i + 1] + get_psi(m + 3, 0)
        if t_psi > t_phi:
            out.append(m)
    return out
