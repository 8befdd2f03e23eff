"""Machine-speed reference for timing on a shared host.

On a shared VM the same interpreter runs the same code up to twice as
fast or slow from one second to the next, and slow spells can last a
whole run, so medians of raw wall times from separate runs disagree by
far more than a code change worth detecting.  The benchmark therefore
interleaves a fixed pure-Python chunk with the work it measures (every
``EVERY_S`` of query time) and reports times scaled to a reference
speed: raw seconds times ``NOMINAL_S`` over the chunk's measured
duration at that moment.  A change to factorum moves the scaled time as
it moves the raw time; a change of machine speed moves the chunk too and
cancels out.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import time
from collections import Counter

# about one chunk's duration on a shared 2-vCPU Intel Xeon VM with CPython
# 3.11, so that scaled times there read close to wall seconds
NOMINAL_S = 0.0005
EVERY_S = 0.01


def _mixed() -> int:
    # the word engine's and the rigid DP's staples: a grid of lists, tuple
    # slicing and concatenation, dict updates, keyed sorting, small calls
    grid = [[0] * 9 for _ in range(9)]
    for i in range(9):
        for j in range(9):
            grid[i][j] = max(i, j) + (grid[i - 1][j] if i else 0) % 7
    word = tuple(range(12))
    seen = {}
    for i in range(60):
        v = word[:i % 12] + word[i % 12:]
        seen[v[i % 5:]] = seen.get(v[i % 5:], 0) + 1
    ranked = sorted(seen, key=lambda t: (len(t), t))

    def step(x):
        return x * 3 % 11

    return sum(step(x) for x in range(150)) + len(ranked) + grid[8][8]


def _multisets() -> int:
    # the block-monoid and permutable-distance staples: Counter
    # intersections and sorting tuples of tuples
    seqs = [tuple(sorted(((i * 7 + j) % 5, j % 3) for j in range(6)))
            for i in range(12)]
    acc = 0
    for a in seqs:
        ca = Counter(a)
        for b in seqs[:6]:
            acc += sum((ca & Counter(b)).values())
    return acc + len(sorted(seqs, key=lambda s: (len(s), s)))


def chunk() -> int:
    """Fixed work, about half a millisecond.  Each half alone tracked one workload's
    speed across runs up to three times worse than the two together."""
    return _mixed() + _multisets()


def timed_chunk() -> float:
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def scale(*chunk_seconds: float) -> float:
    """Factor from raw seconds to reference seconds, given the durations
    of the chunks run around the measured interval."""
    return NOMINAL_S * len(chunk_seconds) / sum(chunk_seconds)
