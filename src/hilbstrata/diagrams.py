"""Castelnuovo diagrams and Hilbert functions of finite point sets in the plane.

A diagram is a sequence of column heights s(0), s(1), ... that climbs the
staircase 1, 2, ..., k and is non-increasing afterwards; its weight is the
total number of unit squares.  The running sums of a weight-n diagram form
the Hilbert function of a length-n subscheme of the plane: they increase to
n and stay there.  This module owns validation, conversion both ways,
enumeration and counting of the diagrams of a given weight (streamed in
canonical order from any rank), and the coefficientwise partial order on
Hilbert functions.
"""

from itertools import accumulate, compress, count
from math import inf, isqrt
from operator import ge, sub


def _heights(seq):
    """The heights of ``seq`` with trailing zeros trimmed, as a tuple, or
    None when they are not a valid height sequence.

    Validity: every entry is an ``int`` (a ``bool`` or a float is not),
    for some k >= 0 the first k entries are exactly 1, 2, ..., k and from
    position k-1 on the entries never increase.  Equivalently the
    sequence climbs by exactly one per step while it is climbing, and once
    it stops climbing it never recovers.  After the staircase prefix is
    found, the tail is checked by one comparison of itself with its shift.
    This is the one validity check: every constructor and parser that
    validates calls it and words its own error.
    """
    s = list(seq)
    if not {int}.issuperset(map(type, s)):
        return None
    while s and s[-1] == 0:
        s.pop()
    if s and (s[0] != 1 or min(s) < 0):
        return None
    k = 1
    while k < len(s) and s[k] == k + 1:
        k += 1
    tail = s[k - 1 :]
    return tuple(s) if all(map(ge, tail, tail[1:])) else None


def is_castelnuovo(seq) -> bool:
    """True iff ``seq`` (implicitly zero-padded) is a valid height sequence."""
    return _heights(seq) is not None


class CastelnuovoDiagram:
    """A valid height sequence, stored with trailing zeros trimmed."""

    __slots__ = ("s",)

    def __init__(self, seq):
        values = list(seq)
        s = _heights(values)
        if s is None:
            raise ValueError(f"not a Castelnuovo sequence: {values}")
        self.s = s

    @classmethod
    def _unchecked(cls, s: tuple) -> "CastelnuovoDiagram":
        """The diagram of ``s`` without validation.

        Only for tuples valid by construction: ``_heights(s)`` must equal
        ``s``, so ``s`` is valid and ends in a nonzero height.
        """
        d = cls.__new__(cls)
        d.s = s
        return d

    @property
    def weight(self) -> int:
        """Number of unit squares."""
        return sum(self.s)

    @property
    def sigma(self) -> int:
        """First index where the height fails to climb (final height is 0)."""
        s = self.s
        sigma = 0
        while sigma < len(s) - 1 and s[sigma] < s[sigma + 1]:
            sigma += 1
        return sigma

    def height(self, i) -> int:
        """Column height at ``i``; zero outside the diagram."""
        if 0 <= i < len(self.s):
            return self.s[i]
        return 0

    def __len__(self):
        return len(self.s)

    def render(self) -> str:
        return ",".join(map(str, self.s))

    def __eq__(self, other):
        if not isinstance(other, CastelnuovoDiagram):
            return NotImplemented
        return self.s == other.s

    def __hash__(self):
        return hash(self.s)

    def __repr__(self):
        return f"CastelnuovoDiagram({self.render() or 'empty'})"


class HilbertFunction:
    """Running sums of a diagram: 0 before degree 0, then climbing to the weight.

    ``transient`` lists the values at 0..L where L is the last diagram
    column; from L on the value stays at the degree ``n``.
    """

    __slots__ = ("diagram", "transient", "degree")

    def __init__(self, diagram: CastelnuovoDiagram):
        self.diagram = diagram
        # Through a list: a tuple built straight from the iterator is
        # over-allocated, which read 2.5 MB more peak RSS over a sweep.
        self.transient = tuple([*accumulate(diagram.s)])
        self.degree = self.transient[-1] if self.transient else 0

    @classmethod
    def from_values(cls, values) -> "HilbertFunction":
        """Build from explicit values h(0), h(1), ...; the values may repeat
        the stable tail.  Raises ValueError when a value is not an ``int``
        (a ``bool``, whose differences are ints, is not) or the differences
        are not a valid height sequence."""
        vals = list(values)
        s = _heights(map(sub, vals, [0, *vals])) if {int}.issuperset(map(type, vals)) else None
        if s is None:
            raise ValueError(f"values {vals} are not the sums of a Castelnuovo sequence")
        return cls(CastelnuovoDiagram._unchecked(s))

    def value(self, m) -> int:
        if m < 0:
            return 0
        if m >= len(self.transient):
            return self.degree
        return self.transient[m]

    def render(self) -> str:
        if not self.transient:
            return "0,.."
        return ",".join(map(str, self.transient)) + ",.."

    def __eq__(self, other):
        if not isinstance(other, HilbertFunction):
            return NotImplemented
        return self.transient == other.transient and self.degree == other.degree

    def __hash__(self):
        return hash((self.transient, self.degree))

    def __repr__(self):
        return f"HilbertFunction({self.render()})"


def _staircase(k: int) -> int:
    """Weight of the staircase prefix 1, 2, ..., k."""
    return k * (k + 1) // 2


def _longest_staircase(n: int) -> int:
    """The largest k with a staircase of weight <= n."""
    return (isqrt(8 * n + 1) - 1) // 2


def _tail_counts(n: int):
    """Yield the rows c = 0, 1, ...: row c holds at r the number of tails
    of weight r <= n with parts <= c.

    A tail is a non-increasing sequence of positive parts.  Rows run up to
    the largest staircase k with weight <= n, the largest part a weight-n
    diagram's tail can have.  Row 0 holds only the empty tail.  Each row is
    a new list, so a reader that keeps no rows holds O(n) integers.
    """
    row = [1] + [0] * n
    yield row
    for c in range(1, _longest_staircase(n) + 1):
        row = row[:]
        for r in range(c, n + 1):
            row[r] += row[r - c]
        yield row


def _total(n: int, rows) -> int:
    """Number of weight-n diagrams: the tails summed over the staircases,
    read from any iterable of the rows of ``_tail_counts``."""
    return sum(row[n - _staircase(k)] for k, row in enumerate(rows))


def _locate(n: int, rank: int, ways):
    """(k, tail) of the weight-n diagram at ``rank`` in canonical order.

    Canonical order puts the longer staircase first and, within one
    staircase k, the tails in descending lexicographic order; so the walk
    skips whole staircases, then whole first parts, by their tail counts.
    ``ways`` is the listed ``_tail_counts(n)``, about sqrt(2n) rows of
    n + 1 integers, read at random; only a start past rank 0 needs it.
    """
    k = len(ways) - 1
    while k > 0 and rank >= ways[k][n - _staircase(k)]:
        rank -= ways[k][n - _staircase(k)]
        k -= 1
    tail = []
    rest, part = n - _staircase(k), k
    while rest:
        part = min(rest, part)
        while rank >= ways[part][rest - part]:
            rank -= ways[part][rest - part]
            part -= 1
        tail.append(part)
        rest -= part
    return k, tail


# The largest weight that ``iter_diagrams`` and ``count_diagrams`` accept.
# Far past it a weight cannot be enumerated or counted in memory; at weight
# 50,000 the count already takes about a minute, with a 10 MiB peak
# (CPython 3.11 on a shared 2-CPU machine).
MAX_WEIGHT = 100_000


def _check_weight(n: int):
    """Raise ValueError unless 0 <= n <= ``MAX_WEIGHT``."""
    if n < 0:
        raise ValueError("weight must be non-negative")
    if n > MAX_WEIGHT:
        raise ValueError(f"weight {n} exceeds {MAX_WEIGHT}, the largest weight enumerated or counted")


def iter_diagrams(n: int, start: int = 0, stop: int | None = None):
    """Height tuples of the weight-n diagrams at ranks start..stop-1.

    Canonical order is descending lexicographic.  Every diagram splits
    uniquely into its longest staircase prefix 1, 2, ..., k and a
    non-increasing tail with parts <= k, and a longer staircase compares
    higher.  So the staircases run from the longest down to k = 1, and the
    tails of each come by the successor rule of descending order: lower the
    rightmost part above 1 by one, then refill the freed weight greedily
    with parts no larger than it.  The walk stops by itself after the
    all-ones tail of staircase 1, the last diagram, so a stop past it is
    clamped.  From rank 0 it needs no table: the first diagram is the
    longest staircase k, the largest with weight <= n, and the n - k(k+1)/2
    <= k squares left form one part; the walk holds only the current
    diagram, O(n) integers at most.  Only a start past 0 lists the
    tail-count table, O(n^1.5) integers, to check it against the total and
    place it with ``_locate``; nothing before it is generated, so
    ``iter_diagrams(n, r, r + 1)`` yields the diagram at rank r alone.
    Every tuple is valid by construction.
    Iterating raises ValueError for n < 0, n > ``MAX_WEIGHT`` or start < 0.
    """
    _check_weight(n)
    if start < 0:
        raise ValueError("rank must be non-negative")
    left = inf if stop is None else stop - start
    if left <= 0:
        return
    if start:
        ways = list(_tail_counts(n))
        if start >= _total(n, ways):
            return
        k, tail = _locate(n, start, ways)
    else:
        k = _longest_staircase(n)
        rest = n - _staircase(k)
        tail = [rest] if rest else []
    prefix = tuple(range(1, k + 1))
    while left:
        yield prefix + tuple(tail)
        left -= 1
        freed = 1  # the square taken off the lowered part
        while tail and tail[-1] == 1:
            tail.pop()
            freed += 1
        if tail:
            part = tail[-1] - 1
            tail[-1] = part
        elif k > 1:
            k -= 1
            prefix = prefix[:-1]
            part = k
            freed = n - _staircase(k)
        else:
            return
        q, r = divmod(freed, part)
        tail.extend([part] * q)
        if r:
            tail.append(r)


def enumerate_diagrams(n: int):
    """All weight-n diagrams, each once, in the order of ``iter_diagrams``."""
    return [CastelnuovoDiagram._unchecked(s) for s in iter_diagrams(n)]


def count_diagrams(n: int) -> int:
    """Number of weight-n diagrams, without listing them.

    They are as many as the partitions of n into distinct parts.  The count
    is the enumerator's own: the tails of every staircase summed from the
    rows of ``_tail_counts``, the table that ``iter_diagrams`` places a
    start past 0 with, in O(n^1.5) steps.  The rows are read one at a time
    and none is kept, so memory is O(n) integers.  The distinct-part count
    is computed independently only by the test oracles.  Raises ValueError
    for n < 0 or n > ``MAX_WEIGHT``.
    """
    _check_weight(n)
    return _total(n, _tail_counts(n))


def hf_leq(a: HilbertFunction, b: HilbertFunction) -> bool:
    """Coefficientwise comparison of two Hilbert functions of equal degree."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    top = max(len(a.transient), len(b.transient))
    return all(a.value(m) <= b.value(m) for m in range(top))


def run_of_ones(phi: HilbertFunction, psi: HilbertFunction):
    """The interval [u, v] with u >= 1 on which psi - phi is identically 1.

    Returns None when the difference is anything else (zero, negative
    somewhere, higher than 1, or not contiguous).  Such a run is exactly
    what a single square jumping left does to the running sums.  Raises on
    degree mismatch.  A Hilbert function is the running sum of its
    heights, so psi - phi is 1 on [u, v] and 0 elsewhere exactly when the
    difference of the two height tuples, its first difference, is +1 at
    column u, -1 at column v+1 and 0 at every other column.  So the two
    tuples are compared once, the shorter one padded with zeros, the
    height of every column past a diagram, and the move is read from the
    two columns that change.  Column 0 holds 1 in every diagram of a
    positive degree, so it never changes and u >= 1.
    """
    if phi.degree != psi.degree:
        raise ValueError(f"degree mismatch: {phi.degree} != {psi.degree}")
    x, y = phi.diagram.s, psi.diagram.s
    diff = list(map(sub, y + (0,) * (len(x) - len(y)), x + (0,) * (len(y) - len(x))))
    moved = list(compress(count(), diff))
    if len(moved) != 2 or (diff[moved[0]], diff[moved[1]]) != (1, -1):
        return None
    return moved[0], moved[1] - 1


def _parse_int_list(text: str, what: str):
    """Comma-separated integers with a character position in error messages.

    A token is decimal digits with an optional leading '-', inside
    whitespace.  ``isdecimal`` accepts exactly the digits ``int`` reads
    (fullwidth ones too), where ``isdigit`` would also pass superscripts
    that ``int`` rejects.  Beyond such tokens ``int`` accepts only tokens
    holding '+' or '_', so text with neither is converted by one ``int``
    per token.  When that raises, the token loop decides: it accepts a
    token padded by whitespace that ``strip`` removes and ``int`` does not
    ('\x1c'..'\x1f'), or names the first bad token by its position.
    """
    if "+" not in text and "_" not in text:
        try:
            return list(map(int, text.split(",")))
        except ValueError:
            pass
    values = []
    pos = 0
    for token in text.split(","):
        stripped = token.strip()
        digits = stripped[1:] if stripped[:1] == "-" else stripped
        if not digits.isdecimal():
            raise ValueError(f"{what}: expected an integer at position {pos}, got {token!r}")
        values.append(int(stripped))
        pos += len(token) + 1
    return values


def parse_diagram(text: str) -> CastelnuovoDiagram:
    """Parse the canonical comma-separated form, e.g. ``1,2,3,4,4,1,1,1``."""
    stripped = text.strip()
    if stripped == "":
        return CastelnuovoDiagram(())
    s = _heights(_parse_int_list(stripped, "diagram"))
    if s is None:
        raise ValueError(f"diagram {stripped!r} violates the staircase shape")
    return CastelnuovoDiagram._unchecked(s)


def parse_hilbert_function(text: str) -> HilbertFunction:
    """Parse the canonical form ``1,3,6,10,14,15,16,17,..`` (trailing ``..``).

    Redundant repetitions of the stable value are accepted.
    """
    stripped = text.strip()
    if not stripped.endswith(".."):
        raise ValueError(
            f"Hilbert function must end with '..' (position {len(stripped)})"
        )
    body = stripped[:-2].rstrip(",")
    if body == "" or body == "0":
        return HilbertFunction(CastelnuovoDiagram(()))
    values = _parse_int_list(body, "Hilbert function")
    return HilbertFunction.from_values(values)
