import random

from hilbstrata.diagrams import CastelnuovoDiagram, HilbertFunction


def hf(seq):
    """Hilbert function of a height sequence given as list or '1,2,1' text."""
    if isinstance(seq, str):
        seq = [int(x) for x in seq.split(",")] if seq else []
    return HilbertFunction(CastelnuovoDiagram(seq))


def long_diagrams(seed, count, tail=150):
    """``count`` seeded diagrams whose tails run ``tail`` columns: a
    staircase 1..k (k from 2 to 12), then ``tail`` random parts <= k in
    non-increasing order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, 12)
        parts = sorted((rng.randint(1, k) for _ in range(tail)), reverse=True)
        out.append(CastelnuovoDiagram([*range(1, k + 1), *parts]))
    return out
