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
"""

from .diagrams import HilbertFunction
from .laurent import IntLaurentPoly


def _numerator_coeffs(s) -> list:
    """Dense numerator coefficients q_0 .. q_{len(s)+1} of the height tuple ``s``."""
    q = []
    before = last = 0
    for x in s + (0, 0):
        q.append(2 * last - before - x)
        before, last = last, x
    q[0] += 1
    return q


def series_numerator(hf: HilbertFunction) -> IntLaurentPoly:
    """Numerator q(t) of the ideal's Hilbert series, q = 1 - (1-t)^2 * s(t).

    Always q(1) = 1 (the ideal has rank one).
    """
    return IntLaurentPoly.from_list(_numerator_coeffs(hf.diagram.s))


class BettiTable:
    """Sparse generator counts ``a`` and relation counts ``b`` by degree."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = {d: c for d, c in sorted(a.items()) if c}
        self.b = {d: c for d, c in sorted(b.items()) if c}

    def a_at(self, d) -> int:
        return self.a.get(d, 0)

    def b_at(self, d) -> int:
        return self.b.get(d, 0)

    def delta(self, d) -> int:
        """a_d - b_d."""
        return self.a.get(d, 0) - self.b.get(d, 0)

    def render(self) -> str:
        return f"a: {self.a}, b: {self.b}"

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"BettiTable({self.render()})"


def generic_betti(hf: HilbertFunction) -> BettiTable:
    """Split the numerator coefficients: a_i = max(q_i, 0), b_i = max(-q_i, 0)."""
    a = {}
    b = {}
    for d, c in enumerate(_numerator_coeffs(hf.diagram.s)):
        if c > 0:
            a[d] = c
        elif c < 0:
            b[d] = -c
    return BettiTable(a, b)
