"""Cover detection and incidence resolution for adjacent strata.

A pair of Hilbert functions (phi, psi) of one degree is a cover ("length
zero") when phi < psi with nothing strictly between; equivalently psi's
diagram arises from phi's by a minimal leftward jump of a single square,
adding one to column u and removing one from column w = v+1.  Minimal
means that no column strictly between u and w is addable or removable, so
the covers are the adjacent (addable, removable) column pairs of one
left-to-right scan, ``cover_moves``; its mirror, ``last_cover_column``,
names the last diagram in canonical order that a given one covers.  A
pair given by its two functions needs no scan: their difference must be
a run of ones [u, v] (``run_of_ones``), always a valid move between two
valid diagrams, and one closed-form rule, ``_nested_move``, names the
first move nested inside it, or none when (u, v) is a cover.  For covers
the closure of the bigger stratum contains the smaller one exactly when
both the dimension comparison and the tangent comparison hold; this
module also evaluates the equivalent criterion on the Betti numbers of
phi, the type-zero shape of the diagram, and the truncated intersection
products that certify solvability of the underlying equation systems.

A cover is the plain record ``CoverPair(phi, psi_heights, u, v)``.  Its
verdict is assembled in one place, ``cover_verdict``, from the two
dimensions and the tangent comparison: ``resolve_incidence`` computes
them from the pair alone, comparing the two sides' rows on the cover's
window, and the graph from its node records, taking the tangent
comparison from L1's closed form a_u != 0 and b_{v+3} != 0, proved for
every weight (README "The criterion at every weight").
"""

from typing import NamedTuple

from .diagrams import CastelnuovoDiagram, HilbertFunction, run_of_ones
from .resolution import BettiTable, generic_betti
from .strata import cover_excess, cover_row, stratum_dim


class CoverPair(NamedTuple):
    """A cover (phi, psi) as phi, psi's height tuple and the move columns
    0 < u <= v; a plain record, equal to the tuple of those four fields.

    ``psi`` builds psi's ``HilbertFunction`` from the heights each time it
    is read; a serial sweep and the graph never read it.
    """

    phi: HilbertFunction
    psi_heights: tuple
    u: int
    v: int

    @property
    def psi(self) -> HilbertFunction:
        return HilbertFunction(CastelnuovoDiagram._unchecked(self.psi_heights))

    def __repr__(self):
        return f"CoverPair(phi={self.phi!r}, psi={self.psi!r}, u={self.u!r}, v={self.v!r})"


class IncidenceVerdict(NamedTuple):
    """Resolution of one cover, with all diagnostics that fed the answer."""

    incident: bool
    dim_ok: bool
    tangent_ok: bool
    betti_ok: bool
    type_zero: bool
    dims: tuple


def move_params(diagram: CastelnuovoDiagram):
    """All (u, v) with a valid single-square move from column v+1 to column u.

    Column u >= 1 is addable when the raised column still fits under its
    left neighbour, or when it matches its neighbour's staircase height u
    and the extra square extends the staircase; column w >= 1 is removable
    when it is above its right neighbour.  Independent validity of the
    addition and the removal suffices for the combined move: the two edits
    touch disjoint junctions except when v+1 = u+1, where the raised
    column only grows away from the lowered one.  Sorted by (u, v).
    """
    s = diagram.s
    p = s + (0,)
    columns = range(1, len(s))
    removable = [w for w in columns if p[w] > p[w + 1]]
    addable = [u for u in columns if s[u] < s[u - 1] or s[u - 1] == s[u] == u]
    return [(u, w - 1) for u in addable for w in removable if u < w]


def _jump(s, u, v):
    """The heights ``s`` with column u raised, column v+1 lowered and a
    trailing zero dropped; the caller knows the move is valid."""
    t = list(s)
    t[u] += 1
    t[v + 1] -= 1
    if not t[-1]:
        t.pop()
    return tuple(t)


def cover_moves(hf: HilbertFunction):
    """The covers above ``hf`` as CoverPair records, sorted by (u, v).

    One left-to-right scan finds them: (u, v) is a cover exactly when
    column u is addable, column w = v+1 is removable, u < w, and no column
    strictly between them is either.  So each removable column w pairs
    with the last column before it that is addable or removable, when that
    one is addable; each column is read with its two neighbours, as
    ``move_params`` states the two tests.  The pair holds only psi's
    heights, ``_jump``, valid by the scan and not validated again.  The
    psis come in canonical order too, so in ascending graph id: no u
    repeats, and a smaller u raises an earlier column, where a later psi
    still has phi's height.
    """
    s = hf.diagram.s
    out = []
    u = 0  # the last addable-or-removable column if it is addable, else 0
    for c, (left, x, right) in enumerate(zip(s, s[1:], s[2:] + (0,)), 1):
        removable = x > right
        if removable and u:
            out.append(CoverPair(hf, _jump(s, u, c - 1), u, c - 1))
        if x < left or left == x == c:
            u = c
        elif removable:
            u = 0
    return out


def last_cover_column(s):
    """Which diagram that the heights ``s`` cover comes last in canonical
    order, named by the column u where it is lower than ``s``; 0 when ``s``
    covers none.

    Such a diagram phi is s with column u lowered and a column c > u
    raised, (u, c-1) a cover of phi: the mirror of ``cover_moves``.  It
    agrees with s left of u and is lower at u, so in canonical (descending
    lexicographic) order the first u comes last; and u forces c, as
    follows, so u alone names phi.  Column u must drop, h = s[u+1] < s[u],
    so it is at or past the staircase's top.  If s[u] >= h + 2, then c is
    u+1: a c further right leaves phi's column u+1 removable between u and
    c.  If s[u] = h + 1, raising a column of the plateau of height h from
    u+1 on lifts it above its left neighbour, and raising one past p, the
    first column right of the plateau, or p itself when s[p] < h - 1,
    leaves p-1 removable between u and c.  So c = p when s[p] = h - 1, and
    otherwise the next drop, p-1's by two or more, gives c = p; with h = 0,
    s is all ones, the bottom.  In each case phi's column u is addable
    (s[u] - 1 < s[u-1], or s climbs at u and phi's columns u-1 and u both
    hold u), and no column j strictly between u and c is removable, or
    addable, which would need j = h at height h, while every column right
    of the staircase is numbered above h.
    """
    if len(s) < 2:
        return 0
    p = s + (0,)
    u = 1
    while p[u] <= p[u + 1]:  # the last column drops to 0
        u += 1
    h = p[u + 1]
    if p[u] == h + 1:
        if not h:
            return 0
        c = u + 2
        while p[c] == h:
            c += 1
        if p[c] < h - 1:
            return c - 1
    return u


def _nested_move(s, u, v):
    """The first valid move of the heights ``s`` nested inside the valid
    move (u, v), in (u, v) order, or None when (u, v) is a cover.

    A nested move (u', v') has u <= u', v' <= v and is not (u, v).
    Column u is addable, so the first removable column c in u+1..v gives
    (u, c-1).  Otherwise a nested move removes at v+1 and adds at the
    first addable column in u+1..v.  The heights never rise from u-1 on
    (u is addable), so with no removable column in u+1..v they are level
    from u+1 to v+1, and only column u+1 can be addable: when it is below
    column u, (u+1, v).  With neither, (u, v) is a cover.

    Every run of ones [u, v] between two valid diagrams phi and psi is
    such a valid move of phi, so it needs no check here.  psi is phi with
    column u raised and column w = v+1 lowered.  If psi climbs at u, it
    climbs up to u, so phi's columns u-1 and u both have height u;
    otherwise psi's raised column stays at most its left neighbour, so
    phi's column u is below it.  Either way u is addable.  If psi climbed
    at w+1, its column w would hold the staircase height w+1; but it holds
    phi's height there less one, and no column w is higher than w+1.  So
    psi's column w is at least its right neighbour, which is phi's, and
    phi's column w is above it: w is removable.
    """
    for c in range(u + 1, v + 1):
        if s[c] > s[c + 1]:
            return u, c - 1
    if u < v and s[u + 1] < s[u]:
        return u + 1, v
    return None


def is_length_zero(phi: HilbertFunction, psi: HilbertFunction):
    """The CoverPair for (phi, psi) when it is a cover, else None.

    Raises on degree mismatch.  The pair must differ by a run of ones
    (a single-square move, ``run_of_ones``) inside which no other move
    nests (``_nested_move``).
    """
    run = run_of_ones(phi, psi)
    if run is None or _nested_move(phi.diagram.s, *run) is not None:
        return None
    return CoverPair(phi, psi.diagram.s, *run)


def find_intermediate(phi: HilbertFunction, psi: HilbertFunction):
    """Some Hilbert function strictly between phi and psi, or None.

    Raises on degree mismatch.  Only meaningful for single-square-move
    pairs; for other inputs the answer is None.  Any function strictly
    between phi and its move image is reachable from phi by a first
    single-square jump staying below the image, and staying below means
    precisely that the jump's interval nests inside [u, v]; the answer is
    the image of the first such jump, ``_nested_move``.
    """
    run = run_of_ones(phi, psi)
    s = phi.diagram.s
    move = None if run is None else _nested_move(s, *run)
    if move is None:
        return None
    return HilbertFunction(CastelnuovoDiagram._unchecked(_jump(s, *move)))


def _cover_counts(t: BettiTable, u: int, v: int) -> tuple:
    """The four counts of the table ``t`` that the cover (u, v) reads:
    a_u, b_{u+1}, a_{v+2} and b_{v+3}, zero where the table has none.
    The Betti rule, the certificate and the sweep's checks read them only
    here."""
    return t.a.get(u, 0), t.b.get(u + 1, 0), t.a.get(v + 2, 0), t.b.get(v + 3, 0)


def betti_criterion(pair: CoverPair, betti_phi: BettiTable) -> bool:
    """Criterion on the Betti numbers of phi, read from its generic table
    ``betti_phi``, equivalent to the dimension and tangent comparisons of
    ``resolve_incidence``: a_u and b_{v+3} must be nonzero, with extra
    equalities tied to the width v - u of the move."""
    u, v = pair.u, pair.v
    return _betti_rule(u, v, *_cover_counts(betti_phi, u, v))


def _betti_rule(u: int, v: int, a_u: int, b_u1: int, a_v2: int, b_v3: int) -> bool:
    """``betti_criterion`` on the four counts of phi that it reads: a_u,
    b_{u+1}, a_{v+2} and b_{v+3}.  The middle two matter only for v > u."""
    if a_u == 0 or b_v3 == 0:
        return False
    if v == u:
        return True
    if v == u + 1:
        return (b_u1 <= a_u <= b_u1 + 1 and b_v3 == a_v2) or (
            a_u == b_u1 + 1 and b_v3 == a_v2 - 1
        )
    return a_u == b_u1 + 1 and b_v3 == a_v2


def is_type_zero(pair: CoverPair) -> bool:
    """Does phi's diagram match the two-column-jump shape that the older
    incidence criterion could not decide?

    The square jumps from column u+2 to column u across a plateau of
    exactly three columns at height h.  To the left sits a wall at least
    two columns wide and strictly higher than the plateau; to the right
    the diagram drops to exactly h-1 and stays there until it ends (for
    h >= 2 that lower level is at least two columns wide).  On such
    diagrams the generator count at u equals the relation count at u+1 and
    the counts at v+2 and v+3 are both one, so the shape always passes the
    Betti criterion.  The shape is read from slices of phi's height tuple;
    the wall needs two columns left of u, so u >= 2.
    """
    u = pair.u
    if pair.v != u + 1 or u < 2:
        return False
    s = pair.phi.diagram.s
    h = s[u]
    tail = s[u + 3 :]
    return (
        s[u - 2] == s[u - 1] > h
        and s[u + 1] == s[u + 2] == h
        and tail == (h - 1,) * len(tail)
        and (h < 2 or len(tail) >= 2)
    )


def resolve_incidence(pair: CoverPair) -> IncidenceVerdict:
    """Full verdict for one cover: incident iff both comparisons hold.

    The dimension comparison asks that the smaller stratum have strictly
    smaller dimension; the tangent comparison that its tangent function
    dominate coefficientwise, compared on the window that the move (u, v)
    of the pair decides, from each side's own ``cover_row``: the
    comparison of the definition, which the graph's edges read from L1's
    closed form instead.  Raises ValueError for a pair of unequal
    degrees, whose rows do not compare.
    """
    phi, psi = pair.phi, pair.psi
    if phi.degree != psi.degree:
        raise ValueError(f"tangent comparison needs equal degrees, got {phi.degree} and {psi.degree}")
    betti_phi = generic_betti(phi)
    excess = cover_excess(cover_row(phi, betti_phi), cover_row(psi, generic_betti(psi)), pair.u, pair.v)
    return cover_verdict(pair, betti_phi, (stratum_dim(phi), stratum_dim(psi)), not excess)


def cover_verdict(pair: CoverPair, betti_phi: BettiTable, dims: tuple, tangent_ok: bool) -> IncidenceVerdict:
    """The verdict of ``pair`` from phi's Betti table ``betti_phi``, the
    dimensions ``dims`` of phi and psi, and ``tangent_ok``, whether phi's
    tangent function dominates psi's on the cover's window.
    ``resolve_incidence`` passes the windowed comparison of two rows, the
    graph L1's closed form a_u != 0 and b_{v+3} != 0 (README "The
    criterion at every weight")."""
    dim_ok = dims[0] < dims[1]
    betti_ok = betti_criterion(pair, betti_phi)
    return IncidenceVerdict(dim_ok and tangent_ok, dim_ok, tangent_ok, betti_ok, is_type_zero(pair), dims)


def verdict_line(pair: CoverPair, verdict: IncidenceVerdict) -> str:
    """One-line rendering used by the command-line front end."""
    ok = lambda flag: "OK" if flag else "FAIL"
    return (
        f"u={pair.u} v={pair.v} "
        f"dim: {verdict.dims[0]}->{verdict.dims[1]} "
        f"tangent:{ok(verdict.tangent_ok)} "
        f"C:{ok(verdict.betti_ok)} "
        f"type0:{'Y' if verdict.type_zero else 'N'} "
        f"=> {'INCIDENT' if verdict.incident else 'NOT INCIDENT'}"
    )


def chow_product(caps, factors) -> dict:
    """Product of powers of 0/1-coefficient linear forms in r, s, t.

    ``caps`` bounds the exponents strictly (a monomial reaching a cap is
    discarded); ``factors`` is a list of ((c_r, c_s, c_t), multiplicity)
    entries.  Returns the nonzero coefficients by exponent triple (i, j, k)
    of r^i s^j t^k; the empty product is the unit {(0, 0, 0): 1}.

    Every coefficient is positive: each factor step adds a monomial's
    coefficient to each of its neighbours that its form names, and a
    monomial's exponents never fall, so truncating at each step drops
    exactly the monomials that truncating at the end would, and no step
    leaves a zero coefficient to filter.  That holds only for the factors
    named above, so a multiplicity that is not an ``int`` of at least 0 or
    a form coefficient outside {0, 1} raises ValueError, as a cap that is
    not an ``int`` of at least 1 does: caps and multiplicities count
    exponents, and a ``bool`` or a float is no count.
    """
    alpha, beta, gamma = caps
    if not (type(alpha) is type(beta) is type(gamma) is int) or alpha < 1 or beta < 1 or gamma < 1:
        raise ValueError(f"caps {caps!r}: each must be an int of at least 1")
    acc = {(0, 0, 0): 1}
    for form, mult in factors:
        cr, cs, ct = form
        if type(mult) is not int or mult < 0 or cr not in (0, 1) or cs not in (0, 1) or ct not in (0, 1):
            raise ValueError(f"factor {form!r}^{mult!r}: coefficients must be 0 or 1, multiplicities ints of at least 0")
        for _ in range(mult):
            nxt = {}
            for (i, j, k), c in acc.items():
                if cr and i + 1 < alpha:
                    key = (i + 1, j, k)
                    nxt[key] = nxt.get(key, 0) + c
                if cs and j + 1 < beta:
                    key = (i, j + 1, k)
                    nxt[key] = nxt.get(key, 0) + c
                if ct and k + 1 < gamma:
                    key = (i, j, k + 1)
                    nxt[key] = nxt.get(key, 0) + c
            acc = nxt
    return acc


def verify_intersections(pair: CoverPair, betti_phi: BettiTable) -> bool:
    """Non-vanishing of the intersection product certifying a wider move,
    read from phi's generic Betti table ``betti_phi``.

    Only defined for covers satisfying the Betti criterion with v >= u+1;
    raises ValueError for any other cover.
    The ambient ring caps the three classes at a_u, 3 and b_{v+3}; for
    v = u+1 the product of (s+t)^{a_{v+2}} and (r+s)^{b_{u+1}} must
    survive, and for v >= u+2 the triple product with one extra factor
    r+s+t must survive and carry the monomial r^{b_{u+1}} s^2 t^{a_{v+2}-1}
    with positive coefficient.
    """
    u, v = pair.u, pair.v
    if v < u + 1:
        raise ValueError("intersection check applies to moves wider than one column")
    cover = u, v, *_cover_counts(betti_phi, u, v)
    if not _betti_rule(*cover):
        raise ValueError("intersection check requires the Betti criterion")
    return _certificate(*cover)


def _certificate(u: int, v: int, a_u: int, b_u1: int, a_v2: int, b_v3: int) -> bool:
    """The product test of ``verify_intersections`` on the four counts of
    phi that it reads, for a caller that has already established v >= u+1
    and the Betti criterion on them."""
    caps = (a_u, 3, b_v3)
    if v == u + 1:
        return bool(chow_product(caps, [((0, 1, 1), a_v2), ((1, 1, 0), b_u1)]))
    product = chow_product(caps, [((1, 1, 1), 1), ((0, 1, 1), a_v2), ((1, 1, 0), b_u1)])
    return product.get((b_u1, 2, a_v2 - 1), 0) > 0
