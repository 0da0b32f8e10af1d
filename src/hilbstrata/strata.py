"""Numerical invariants of a stratum: dimension and tangent-twist function.

The stratum of a Hilbert function h is smooth and connected; its dimension
is 1 + n + c where c is the constant coefficient of
(t^-1 - t^-2) * s(t^-1) * s(t) for the height sequence s.  In that product
t^-1 pairs each column with its right neighbour and t^-2 with the column
two steps right, so the closed form is

    dim = 1 + n + sum_i s_i (s_{i+1} - s_{i+2}).

The tangent function counts global sections of the ideal sheaf twisted by
the tangent bundle of the plane.  Its value at m is
sections(m) - 3 h(m+1) + h(m) + b_{m+3}, read straight off the Hilbert
function and the relation counts of the generic Betti table; only windows
of it are ever needed, and they are computed exactly degree by degree.
"""

from dataclasses import dataclass

from .diagrams import HilbertFunction, run_of_ones
from .resolution import BettiTable, generic_betti


def stratum_dim(hf: HilbertFunction) -> int:
    """Dimension of the stratum of ``hf`` (degree must be at least 1)."""
    if hf.degree < 1:
        raise ValueError("stratum dimension needs degree >= 1")
    s = hf.diagram.s
    return 1 + hf.degree + sum(x * (y - z) for x, y, z in zip(s, s[1:], s[2:] + (0,)))


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


def _tangent_window(hf: HilbertFunction, lo: int, hi: int, betti: BettiTable | None) -> list:
    """Tangent-function values at lo, lo+1, ..., hi as a list."""
    if lo > hi:
        raise ValueError("empty window")
    if betti is None:
        betti = generic_betti(hf)
    b = betti.b
    # h(lo) .. h(hi+1): zero below degree 0, the transient values, then the degree.
    h = [0] * max(0, min(0, hi + 2) - lo) + list(hf.transient[max(lo, 0) : max(hi + 2, 0)])
    h += [hf.degree] * (hi + 2 - lo - len(h))
    return [
        tangent_bundle_sections(m) - 3 * h_next + h_m + b.get(m + 3, 0)
        for m, h_m, h_next in zip(range(lo, hi + 1), h, h[1:])
    ]


def tangent_function(hf: HilbertFunction, lo: int, hi: int, betti: BettiTable | None = None):
    """Exact tangent-function values on the degree window [lo, hi].

    Value at m:  sections(m) - 3*h(m+1) + h(m) + b(m+3), with b the
    relation counts of the generic Betti table of ``hf``.
    """
    return dict(zip(range(lo, hi + 1), _tangent_window(hf, lo, hi, betti)))


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

    Builds each of the two windows once; the tangent comparison holds
    exactly when the list is empty.
    """
    t_phi = _tangent_window(phi, lo, hi, betti_phi)
    t_psi = _tangent_window(psi, lo, hi, betti_psi)
    return [m for m, x, y in zip(range(lo, hi + 1), t_phi, t_psi) if y > x]


def tangent_leq(
    psi: HilbertFunction,
    phi: HilbertFunction,
    window=None,
    betti_phi: BettiTable | None = None,
    betti_psi: BettiTable | None = None,
) -> bool:
    """True iff the tangent function of ``psi`` is <= that of ``phi`` everywhere.

    The two functions agree outside an explicit window determined by the
    single-square move taking ``phi`` to ``psi``; comparison on that window
    therefore decides all degrees.  Identical inputs compare as True.
    ``window`` may widen but not shrink the required range.
    """
    if psi == phi:
        return True
    run = run_of_ones(phi, psi)
    if run is None:
        raise ValueError("tangent comparison needs a single-square-move pair")
    lo, hi = required_window(*run)
    if window is not None:
        wlo, whi = window
        if wlo > lo or whi < hi:
            raise ValueError(f"window {window} does not cover required [{lo}, {hi}]")
        lo, hi = wlo, whi
    return not tangent_excess(phi, psi, lo, hi, betti_phi, betti_psi)


@dataclass(frozen=True)
class StratumInfo:
    """Dimension plus a tangent-function window for one stratum."""

    dim: int
    window: tuple
    tangent: dict


def stratum_info(hf: HilbertFunction, lo: int, hi: int) -> StratumInfo:
    return StratumInfo(dim=stratum_dim(hf), window=(lo, hi), tangent=tangent_function(hf, lo, hi))
