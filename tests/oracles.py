"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from first principles (subset
search, triple loops, truncated series) and never calls the code paths it
is checking.
"""

from itertools import groupby, zip_longest

from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction, hf_leq, is_castelnuovo, iter_diagrams
from hilbstrata.incidence import cover_moves
from hilbstrata.resolution import BettiTable


def distinct_part_partitions(n, largest=None):
    """All partitions of n into strictly decreasing positive parts."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in distinct_part_partitions(n - first, first - 1):
            yield (first,) + rest


def count_distinct_partitions(n):
    return sum(1 for _ in distinct_part_partitions(n))


def distinct_partition_counts_by_knapsack(top):
    """The number of partitions of each n in 0..top into distinct parts,
    by the 0/1 knapsack recurrence over the part sizes in one O(top^2)
    pass: each part is taken at most once, so the totals run downwards."""
    ways = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(top, part - 1, -1):
            ways[total] += ways[total - part]
    return ways


def _recursive_tails(remaining, max_part):
    """Non-increasing sequences of parts in [1, max_part] summing to ``remaining``."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, max_part), 0, -1):
        for rest in _recursive_tails(remaining - first, first):
            yield (first,) + rest


def diagrams_by_sorting(n):
    """All weight-n height tuples in descending lexicographic order: every
    staircase prefix 1..k with every recursively built tail of parts <= k,
    each tuple validated by ``is_castelnuovo``, then the whole list sorted."""
    out = [()] if n == 0 else []
    k = 1
    while k * (k + 1) // 2 <= n:
        for tail in _recursive_tails(n - k * (k + 1) // 2, k):
            s = tuple(range(1, k + 1)) + tail
            assert is_castelnuovo(s)
            out.append(s)
        k += 1
    return sorted(out, reverse=True)


def brute_single_square_moves(diagram):
    """All (u, v) for which adding at u and removing at v+1 stays valid,
    found by constructing and validating every candidate sequence."""
    s = list(diagram.s)
    found = []
    for u in range(1, len(s)):
        for w in range(u + 1, len(s)):
            t = list(s)
            t[u] += 1
            t[w] -= 1
            if is_castelnuovo(t):
                found.append((u, w - 1))
    return sorted(found)


def move_image(diagram, u, v):
    """The diagram after adding a square at column u and removing one at
    column v+1, built by the validating constructor; raises ValueError when
    the result is not a valid diagram or the columns are out of range."""
    s = list(diagram.s)
    if not (0 < u <= v < len(s) - 1):
        raise ValueError(f"move ({u}, {v}) out of range for {diagram.render()}")
    s[u] += 1
    s[v + 1] -= 1
    return CastelnuovoDiagram(s)


def type_zero_by_runs(s, u, v):
    """The type-zero shape read from the run-length encoding of the heights
    ``s`` of phi for the move (u, v) with v = u+1: the run starting at
    column u is a plateau of exactly three columns at some height h, the
    run before it a wall of at least two columns above h, and after it
    come only columns of height h-1, at least two of them when h >= 2."""
    if v != u + 1:
        return False
    runs = []  # (first column, height, length)
    start = 0
    for height, group in groupby(s):
        length = len(list(group))
        runs.append((start, height, length))
        start += length
    at = [i for i, run in enumerate(runs) if run[0] == u]
    if not at or at[0] == 0:
        return False
    i = at[0]
    _, h, length = runs[i]
    _, wall, wall_length = runs[i - 1]
    if length != 3 or wall <= h or wall_length < 2:
        return False
    rest = runs[i + 1 :]
    if h == 1:
        return not rest
    return len(rest) == 1 and rest[0][1] == h - 1 and rest[0][2] >= 2


def has_intermediate_by_patterns(phi, u, v):
    """Exhaustive search for a Hilbert function strictly between phi and
    phi + (ones on [u, v]): any such function adds a proper nonempty 0/1
    pattern on [u, v] to the values of phi."""
    width = v - u + 1
    base = [phi.value(m) for m in range(max(len(phi.transient), v + 2))]
    for mask in range(1, 2**width - 1):
        candidate = list(base)
        for bit in range(width):
            if mask >> bit & 1:
                candidate[u + bit] += 1
        diffs = [candidate[0]] + [candidate[i] - candidate[i - 1] for i in range(1, len(candidate))]
        if is_castelnuovo(diffs):
            return True
    return False


def cover_relations_triple_loop(functions):
    """Cover pairs of the coefficientwise order by the definition: comparable
    with nothing strictly between, via an exhaustive triple loop."""
    size = len(functions)
    leq = [[hf_leq(a, b) for b in functions] for a in functions]
    covers = set()
    for i in range(size):
        for j in range(size):
            if i == j or not leq[i][j]:
                continue
            blocked = any(
                k != i and k != j and leq[i][k] and leq[k][j] for k in range(size)
            )
            if not blocked:
                covers.add((functions[i].diagram.s, functions[j].diagram.s))
    return covers


def noncatenary_by_chains(functions):
    """(i, j, lengths) for every interval [functions[i], functions[j]] whose
    saturated chains do not all have the same length, by walking every
    chain of covers (from the triple-loop cover relation) one at a time."""
    index = {f.diagram.s: i for i, f in enumerate(functions)}
    above = [[] for _ in functions]
    for low, high in cover_relations_triple_loop(functions):
        above[index[low]].append(index[high])
    lengths = {}

    def walk(start, x, depth):
        lengths.setdefault((start, x), set()).add(depth)
        for y in above[x]:
            walk(start, y, depth + 1)

    for i in range(len(functions)):
        walk(i, i, 0)
    return sorted(
        (i, j, tuple(sorted(found)))
        for (i, j), found in lengths.items()
        if len(found) > 1
    )


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def numerator_by_truncation(hf):
    """Numerator coefficients via the ideal's value table: apply the cube of
    the difference operator to ambient-minus-h, far enough out to see the
    whole support."""
    top = len(hf.transient) + 6

    def ideal(m):
        if m < 0:
            return 0
        return binomial(m + 2, 2) - hf.value(m)

    coeffs = {}
    for d in range(0, top + 1):
        c = ideal(d) - 3 * ideal(d - 1) + 3 * ideal(d - 2) - ideal(d - 3)
        if c:
            coeffs[d] = c
    return coeffs


def betti_table_from_counts(a, b):
    """A ``BettiTable`` from hand-given generator counts ``a`` and relation
    counts ``b`` by degree: each keyed in ascending degree with its zero
    counts dropped, and the row a_l - b_l derived from them and trimmed
    after its last nonzero entry.  Degrees must be non-negative.  A degree
    may carry both counts, which no generic table does."""
    a = {d: c for d, c in sorted(a.items()) if c}
    b = {d: c for d, c in sorted(b.items()) if c}
    q = [0] * (max((*a, *b), default=-1) + 1)
    for d, c in a.items():
        q[d] += c
    for d, c in b.items():
        q[d] -= c
    while q and not q[-1]:
        q.pop()
    return BettiTable(a, b, tuple(q))


def dim_constant_by_product(diagram):
    """Constant coefficient of (t^-1 - t^-2) * s(t^-1) * s(t), by multiplying
    the three Laurent polynomials out as dense coefficient lists (index k
    holds the degree k - offset) and reading off degree 0."""
    s = list(diagram.s)
    if not s:
        return 0
    top = len(s) - 1
    # s(t^-1) * s(t): degrees -top .. top.
    square = [0] * (2 * top + 1)
    for i, x in enumerate(s):
        for j, y in enumerate(s):
            square[j - i + top] += x * y
    # times t^-1 - t^-2: degrees -top-2 .. top-1.
    factor = {-1: 1, -2: -1}
    offset = top + 2
    full = [0] * (2 * top + 3)
    for k, c in enumerate(square):
        for shift, f in factor.items():
            full[k - top + shift + offset] += c * f
    return full[offset]


def tangent_sections_by_euler(m):
    """Sections of the twisted tangent bundle of the plane from the Euler
    sequence: three copies of O(m+2) minus one O(m+3), plus the single unit
    of higher cohomology at m = -3."""
    return 3 * binomial(m + 4, 2) - binomial(m + 5, 2) + (1 if m == -3 else 0)


def tangent_excess_by_formula(phi, psi, lo, hi):
    """Degrees in [lo, hi] where the tangent function of ``psi`` exceeds
    that of ``phi``, each side evaluated on its own degree by degree: the
    Euler-sequence section count, minus 3 h(m+1), plus h(m), plus the
    relation count b(m+3) = max(-q_{m+3}, 0) of the truncated-series
    numerator q."""

    def values(hf):
        q = numerator_by_truncation(hf)
        return [
            tangent_sections_by_euler(m) - 3 * hf.value(m + 1) + hf.value(m) + max(-q.get(m + 3, 0), 0)
            for m in range(lo, hi + 1)
        ]

    return [m for m, t_phi, t_psi in zip(range(lo, hi + 1), values(phi), values(psi)) if t_psi > t_phi]


def greedy_maximal_diagram(n):
    """The pointwise-largest weight-n diagram: climb the staircase as long
    as a full step fits, then drop the remainder in one last column."""
    s = []
    left = n
    step = 1
    while left >= step:
        s.append(step)
        left -= step
        step += 1
    if left:
        s.append(left)
    return CastelnuovoDiagram(s)


def parse_int_list_by_tokens(text, what):
    """Comma-separated integers read token by token: each stripped token
    must be decimal digits after an optional '-', else ValueError names the
    token and its character position."""
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


def is_castelnuovo_stepwise(seq):
    """The staircase rule walked one entry at a time: after trailing zeros
    are dropped, no entry is negative, the first is 1, each step climbs by
    exactly one while climbing, and once it stops it never rises again."""
    s = list(seq)
    while s and s[-1] == 0:
        s.pop()
    if not s:
        return True
    if any(x < 0 for x in s):
        return False
    if s[0] != 1:
        return False
    climbing = True
    for i in range(1, len(s)):
        if climbing and s[i] == s[i - 1] + 1:
            continue
        climbing = False
        if s[i] > s[i - 1]:
            return False
    return True


def run_of_ones_by_zip(phi, psi):
    """The run of ones of psi - phi walked one degree at a time over the two
    transient tuples, the shorter continued by the common degree: each
    nonzero difference must be 1 and follow the previous one directly, and
    the run must start at degree 1 or later.  Raises on degree mismatch."""
    if phi.degree != psi.degree:
        raise ValueError(f"degree mismatch: {phi.degree} != {psi.degree}")
    u = v = None
    for m, (x, y) in enumerate(zip_longest(phi.transient, psi.transient, fillvalue=phi.degree)):
        if x == y:
            continue
        if y - x != 1 or (v is not None and v != m - 1):
            return None
        if u is None:
            u = m
        v = m
    if u is None or u < 1:
        return None
    return u, v


def last_readers(n):
    """Each weight-n diagram's heights, in canonical order, mapped to the
    heights of the last diagram in that order whose ``cover_moves`` reach
    it, or None when none does: every diagram's covers are listed, and
    each psi keeps the last phi seen."""
    last = dict.fromkeys(iter_diagrams(n))
    for s in last:
        for pair in cover_moves(HilbertFunction(CastelnuovoDiagram._unchecked(s))):
            last[pair.psi_heights] = s
    return last


def first_nested_move(moves, u, v):
    """The first move (u', v') of the sorted list ``moves`` other than
    (u, v) that nests inside it (u' >= u, v' <= v), or None."""
    for up, vp in moves:
        if (up, vp) != (u, v) and up >= u and vp <= v:
            return up, vp
    return None


def noncatenary_by_forward_passes(g):
    """(i, j, lengths) for every non-catenary interval of a graph whose
    edges are its covers: one forward pass per source i over a topological
    order (Kahn's algorithm), carrying for every node j a bitset whose bit l
    is set when some edge path from i to j has length l."""
    size = len(g.nodes)
    up = [[] for _ in range(size)]
    indeg = [0] * size
    for e in g.edges:
        up[e.from_id].append(e.to_id)
        indeg[e.to_id] += 1
    order = [x for x in range(size) if indeg[x] == 0]
    for x in order:
        for y in up[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                order.append(y)
    if len(order) != size:
        raise ValueError("cover graph has a cycle")
    lengths_of = {}
    witnesses = []
    for i in range(size):
        chains = [0] * size
        chains[i] = 1
        for x in order:
            mask = chains[x] << 1
            if mask:
                for y in up[x]:
                    chains[y] |= mask
        for j, mask in enumerate(chains):
            if mask & (mask - 1):
                lengths = lengths_of.get(mask)
                if lengths is None:
                    lengths = tuple(l for l in range(mask.bit_length()) if mask >> l & 1)
                    lengths_of[mask] = lengths
                witnesses.append((i, j, lengths))
    return witnesses


def graph_record_by_dicts(g):
    """The graph's JSON record as plain dicts and lists, one dict per node
    and per edge, counts keyed by ``str`` degree in sorted order: the
    reference whose ``json.dumps`` the emitter's hand-written bytes must
    equal."""
    nodes = [
        {
            "id": node.id,
            "s": list(node.hf.diagram.s),
            "h": list(node.hf.transient),
            "dim": node.dim,
            "a": {str(d): c for d, c in sorted(node.betti.a.items())},
            "b": {str(d): c for d, c in sorted(node.betti.b.items())},
        }
        for node in g.nodes
    ]
    edges = [
        {
            "from": e.from_id,
            "to": e.to_id,
            "u": e.u,
            "v": e.v,
            "incident": e.verdict.incident,
            "dim_ok": e.verdict.dim_ok,
            "tangent_ok": e.verdict.tangent_ok,
            "condition_c": e.verdict.betti_ok,
            "type_zero": e.verdict.type_zero,
        }
        for e in g.edges
    ]
    return {"n": g.n, "nodes": nodes, "edges": edges}


def cover_series(n_max):
    """The weight-n cover counts for n = 0..n_max from closed-form
    generating functions, as four lists indexed by n: all covers, and the
    covers (u, v) of width v - u = 0, = 1 and >= 2.

    With D(x) = prod_{k >= 1} (1 + x^k), whose coefficients count the
    diagrams (distinct-part partitions), the series are

        all:     D x^3 (1 - x^5) / ((1 - x^2)(1 - x^6)),
        width 0: D x^3 / ((1 + x)(1 - x^4)),
        width 1: D x^4 (1 + x + 2x^2 + x^3 + ... + x^9)
                 / ((1 - x)(1 + x)^3 (1 + x^2)^2 (1 + x^4)(1 - x + x^2)(1 + x + x^2)),
        wider:   D x^5 (1 + x^2 + x^5)(1 + x + x^2 + x^3 + x^4)
                 / ((1 - x)(1 + x)^3 (1 + x^2)^2 (1 + x^4)(1 - x + x^2)).

    Everything is integer power-series arithmetic truncated after x^n_max:
    every denominator factor has constant term 1, so dividing by it is
    exact.  Nothing here reads a diagram or a cover.
    """
    size = n_max + 1

    def times(f, poly):
        out = [0] * size
        for e, c in enumerate(poly):
            for i in range(size - e):
                out[i + e] += c * f[i]
        return out

    def over(f, poly):
        out = list(f)
        for i in range(size):
            for e in range(1, min(len(poly), i + 1)):
                out[i] -= poly[e] * out[i - e]
        return out

    def series(numerator, denominator):
        f = diagrams
        for poly in numerator:
            f = times(f, poly)
        for poly in denominator:
            f = over(f, poly)
        return f

    diagrams = [1] + [0] * n_max
    for k in range(1, size):
        for i in range(n_max, k - 1, -1):
            diagrams[i] += diagrams[i - k]
    x3, x4, x5 = [0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]
    common = [[1, -1], [1, 1], [1, 1], [1, 1], [1, 0, 1], [1, 0, 1], [1, 0, 0, 0, 1], [1, -1, 1]]
    return (
        series([x3, [1, 0, 0, 0, 0, -1]], [[1, 0, -1], [1, 0, 0, 0, 0, 0, -1]]),
        series([x3], [[1, 1], [1, 0, 0, 0, -1]]),
        series([x4, [1, 1, 2, 1, 1, 1, 1, 1, 1, 1]], common + [[1, 1, 1]]),
        series([x5, [1, 0, 1, 0, 0, 1], [1, 1, 1, 1, 1]], common),
    )
