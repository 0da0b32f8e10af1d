"""Seeded inputs and independent answers for the benchmark.

Nothing here imports hilbstrata: the query stream, the cover/non-cover
classification of each move and the expected Betti tables and dimensions
come from this file alone, so a check against them does not share code
with the program under test.
"""

import random

WEIGHTS = (40, 160)
RESOLVE_SHARE = 0.8
BETTI_SHARE = 0.1


def distinct_partition_counts(n_max):
    """Number of partitions of each weight 0..n_max into distinct parts.

    Each weight-n diagram corresponds to one such partition, so this is the
    diagram count the enumeration must reach.
    """
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for m in range(n_max, part - 1, -1):
            counts[m] += counts[m - part]
    return counts


def _locally_valid(t, i):
    """Shape condition between columns i-1 and i of the height sequence t.

    A sequence is a diagram iff t[0] == 1 (or it is empty), no entry is
    negative, and every step either does not increase or climbs by one
    while still on the staircase 1, 2, ..., i+1.
    """
    cur = t[i] if i < len(t) else 0
    if cur < 0:
        return False
    if i == 0:
        return cur == 1
    prev = t[i - 1]
    return cur <= prev or (cur == prev + 1 == i + 1)


def is_diagram(seq):
    """True iff seq, with trailing zeros dropped, is 1..k then a non-increasing tail <= k."""
    t = list(seq)
    while t and t[-1] == 0:
        t.pop()
    return all(_locally_valid(t, i) for i in range(len(t)))


def random_diagram(rng, n):
    """A weight-n diagram: a staircase 1..k with random k, then a random non-increasing tail."""
    k_max = 1
    while (k_max + 1) * (k_max + 2) // 2 <= n:
        k_max += 1
    k = rng.randint(1, k_max)
    rest = n - k * (k + 1) // 2
    s = list(range(1, k + 1))
    cap = k
    while rest:
        part = rng.randint(1, min(cap, rest))
        s.append(part)
        rest -= part
        cap = part
    return tuple(s)


def single_square_moves(s):
    """All (u, v, result) where one square moves from column v+1 left to column u.

    Raising column u can only break the shape condition at u, and lowering
    column w can only break it at w+1; each surviving pair is then checked
    again with the full validator.
    """
    raise_ok = []
    for u in range(1, len(s)):
        t = list(s)
        t[u] += 1
        if _locally_valid(t, u):
            raise_ok.append(u)
    lower_ok = []
    for w in range(1, len(s)):
        t = list(s)
        t[w] -= 1
        if _locally_valid(t, w) and _locally_valid(t, w + 1):
            lower_ok.append(w)
    moves = []
    for u in raise_ok:
        for w in lower_ok:
            if w <= u:
                continue
            t = list(s)
            t[u] += 1
            t[w] -= 1
            if is_diagram(t):
                while t and t[-1] == 0:
                    t.pop()
                moves.append((u, w - 1, tuple(t)))
    return moves


def is_cover(moves, u, v):
    """A move is a cover iff no other valid move nests inside [u, v]."""
    return not any((a, b) != (u, v) and a >= u and b <= v for a, b, _ in moves)


def diagram_text(s):
    return ",".join(map(str, s))


def hilbert_text(s):
    sums = []
    acc = 0
    for x in s:
        acc += x
        sums.append(acc)
    return ",".join(map(str, sums)) + ",.."


def expected_betti(s):
    """Rendered Betti table from the numerator q_l = [l=0] - (s_l - 2 s_{l-1} + s_{l-2})."""
    h = lambda i: s[i] if 0 <= i < len(s) else 0
    a, b = {}, {}
    for l in range(len(s) + 2):
        q = (1 if l == 0 else 0) - (h(l) - 2 * h(l - 1) + h(l - 2))
        if q > 0:
            a[l] = q
        elif q < 0:
            b[l] = -q
    return f"a: {a}, b: {b}"


def expected_dim(s):
    """1 + n + sum_i s_i (s_{i+1} - s_{i+2})."""
    h = lambda i: s[i] if i < len(s) else 0
    return 1 + sum(s) + sum(h(i) * (h(i + 1) - h(i + 2)) for i in range(len(s)))


def make_queries(seed, count):
    """The cli-queries stream: (argv, expectation) pairs, the same for the same seed.

    An expectation is ("cover", u, v), ("not-cover",), ("betti", text) or
    ("dim", text).
    """
    rng = random.Random(seed)
    render = lambda s: hilbert_text(s) if rng.random() < 0.5 else diagram_text(s)
    queries = []
    while len(queries) < count:
        kind = rng.random()
        phi = random_diagram(rng, rng.randint(*WEIGHTS))
        if kind < RESOLVE_SHARE:
            moves = single_square_moves(phi)
            if not moves:
                continue
            u, v, psi = moves[rng.randrange(len(moves))]
            argv = ["resolve", "--phi", render(phi), "--psi", render(psi)]
            expect = ("cover", u, v) if is_cover(moves, u, v) else ("not-cover",)
        elif kind < RESOLVE_SHARE + BETTI_SHARE:
            argv = ["betti", "--phi", render(phi)]
            expect = ("betti", expected_betti(phi))
        else:
            argv = ["dim", "--phi", render(phi)]
            expect = ("dim", str(expected_dim(phi)))
        queries.append((argv, expect))
    return queries
