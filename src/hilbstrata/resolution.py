"""Generic graded Betti numbers of the ideal of a stratum.

The saturated ideal of a generic point set with Hilbert function h has a
minimal resolution whose generator and relation counts (a_i) and (b_i) are
forced by h alone: the numerator q(t) of the ideal's Hilbert series over
the three-variable polynomial ring splits its positive coefficients into
generators and its negative ones into relations (genericity means no
degree carries both).

Closed form.  Since (1-t) h(t) is the height series s(t) of the diagram and
(1-t)^3 times the ambient series is 1, the numerator is
q(t) = 1 - (1-t)^2 s(t), that is

    q_l = [l = 0] - (s_l - 2 s_{l-1} + s_{l-2}),

the negated second difference of the heights plus the unit of rank one.
Its support lies in degrees 0 .. len(s) + 1 and q(1) = 1.

Dense row.  Besides the sparse counts, a ``BettiTable`` keeps the row
``q = (q_0, ..., q_top)`` with q_l = a_l - b_l, trimmed after its last
nonzero entry, so a reader of a_l - b_l at any degree, or of a whole
numerator, indexes one tuple.  ``generic_betti`` is the one place a table
is built: it keeps the list ``series_numerator`` computes as that row and
splits the same list into the counts.  Every reader takes the table it is
given and reads a count at degree d as ``t.a.get(d, 0)``.
"""

from itertools import compress, count

from .diagrams import HilbertFunction


def series_numerator(hf: HilbertFunction) -> list:
    """Numerator q(t) of the ideal's Hilbert series, q = 1 - (1-t)^2 * s(t),
    as the dense list q_0 .. q_{L+2} (L the last column).

    Always q(1) = 1 (the ideal has rank one).
    """
    q = []
    before = last = 0
    for x in hf.diagram.s + (0, 0):
        q.append(2 * last - before - x)
        before, last = last, x
    q[0] += 1
    return q


class BettiTable:
    """Sparse generator counts ``a`` and relation counts ``b`` by degree, and
    the dense row ``q`` of a_l - b_l over degrees 0 .. its last nonzero entry.

    Built by ``generic_betti``, which fills ``a`` and ``b`` in ascending
    degree with positive counts only; the graph's JSON emitter writes the
    counts in this order.  ``__init__`` only stores the three values."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        self.a, self.b, self.q = a, b, q

    def render(self) -> str:
        return f"a: {self.a}, b: {self.b}"

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"BettiTable({self.render()})"


def generic_betti(hf: HilbertFunction) -> BettiTable:
    """Split the numerator coefficients: a_i = max(q_i, 0), b_i = max(-q_i, 0).

    Only the nonzero degrees are visited, found by one ``compress`` pass
    (second differences of long flat tails are mostly zero), in ascending
    order.  The coefficient list, trimmed after its last nonzero degree,
    becomes the table's row.
    """
    q = series_numerator(hf)
    a = {}
    b = {}
    d = -1
    for d in compress(count(), q):
        c = q[d]
        if c > 0:
            a[d] = c
        else:
            b[d] = -c
    del q[d + 1 :]
    return BettiTable(a, b, tuple(q))
