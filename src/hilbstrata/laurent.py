"""Exact integer Laurent polynomials.

A Laurent polynomial is a finitely supported map from integer degrees to
integer coefficients.  Negative degrees are allowed; coefficients are
Python ints, so there is no overflow anywhere in the library.
"""


class IntLaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    The canonical form never stores zero coefficients, and equality is
    equality of coefficient maps.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        table = {}
        if coeffs:
            for deg, c in coeffs.items():
                if c != 0:
                    table[int(deg)] = c
        self._coeffs = table

    @property
    def coeffs(self):
        """Coefficient map (a copy; the polynomial itself is immutable)."""
        return dict(self._coeffs)

    def coeff(self, degree):
        """Exact coefficient at ``degree``, zero outside the support."""
        return self._coeffs.get(degree, 0)

    def is_zero(self):
        return not self._coeffs

    def __add__(self, other):
        table = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            table[deg] = table.get(deg, 0) + c
        return IntLaurentPoly(table)

    def __sub__(self, other):
        table = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            table[deg] = table.get(deg, 0) - c
        return IntLaurentPoly(table)

    def __mul__(self, other):
        if not self._coeffs or not other._coeffs:
            return IntLaurentPoly()
        # Dense convolution over the degree ranges; faster than dict-of-dict
        # updates and exact either way.
        lo_a, hi_a = min(self._coeffs), max(self._coeffs)
        lo_b, hi_b = min(other._coeffs), max(other._coeffs)
        out = [0] * (hi_a - lo_a + hi_b - lo_b + 1)
        items_b = list(other._coeffs.items())
        for da, ca in self._coeffs.items():
            base = da - lo_a - lo_b
            for db, cb in items_b:
                out[base + db] += ca * cb
        return IntLaurentPoly({lo_a + lo_b + i: c for i, c in enumerate(out) if c})

    def __eq__(self, other):
        if not isinstance(other, IntLaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs
