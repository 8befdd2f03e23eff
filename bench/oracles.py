"""Independent recomputations used to check benchmark answers.

These run outside the timed region and share no code with the library
paths they check: block-monoid factorizations are enumerated here from
the group arithmetic alone, catenary degrees are recomputed as the least
threshold whose graph is connected (not by a spanning tree), and distance
axioms are re-verified by brute force over the library's exhaustive
rigid-distance oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Dict, FrozenSet, Sequence, Tuple

Seq = Tuple[Tuple[int, ...], ...]


def _sums_to_zero(orders: Sequence[int], items: Sequence[Tuple[int, ...]]) -> bool:
    return all(sum(x[i] for x in items) % n == 0 for i, n in enumerate(orders))


def _is_minimal_zero_sum(orders, items: Seq) -> bool:
    if not items or not _sums_to_zero(orders, items):
        return False
    for size in range(1, len(items)):
        for sub in itertools.combinations(items, size):
            if _sums_to_zero(orders, sub):
                return False
    return True


def block_factorizations(orders: Sequence[int], seq: Seq) -> FrozenSet[Tuple[Seq, ...]]:
    """Every factorization of a zero-sum sequence into minimal zero-sum
    sequences, each as a sorted tuple of atoms."""
    memo: Dict[Seq, FrozenSet[Tuple[Seq, ...]]] = {}

    def rec(s: Seq) -> FrozenSet[Tuple[Seq, ...]]:
        if not s:
            return frozenset({()})
        if s in memo:
            return memo[s]
        first, rest = s[0], s[1:]
        out = set()
        tried = set()
        for size in range(0, len(rest) + 1):
            for idx in itertools.combinations(range(len(rest)), size):
                atom = (first,) + tuple(rest[i] for i in idx)
                if atom in tried:
                    continue
                tried.add(atom)
                if not _is_minimal_zero_sum(orders, atom):
                    continue
                left = list(rest)
                for i in reversed(idx):
                    del left[i]
                for f in rec(tuple(left)):
                    out.add(tuple(sorted(f + (atom,))))
        memo[s] = frozenset(out)
        return memo[s]

    return rec(tuple(sorted(seq)))


def multiset_distance(x: Sequence, y: Sequence) -> int:
    """Permutable distance between two factorizations given as class lists."""
    common = sum((Counter(x) & Counter(y)).values())
    return max(len(x) - common, len(y) - common)


def threshold_catenary(nodes: Sequence, dist: Callable[[object, object], int]) -> int:
    """Least N whose threshold graph (edges of distance <= N) is connected."""
    nodes = list(nodes)
    if len(nodes) <= 1:
        return 0
    n = len(nodes)
    mat = [[dist(nodes[i], nodes[j]) for j in range(n)] for i in range(n)]
    bound = 0
    while True:
        seen = {0}
        todo = [0]
        while todo:
            u = todo.pop()
            for v in range(n):
                if v not in seen and mat[u][v] <= bound:
                    seen.add(v)
                    todo.append(v)
        if len(seen) == n:
            return bound
        bound += 1


def block_catenary_oracle(orders: Sequence[int], seq: Seq) -> int:
    return threshold_catenary(sorted(block_factorizations(orders, seq)),
                              multiset_distance)


def axioms_hold(facts: Sequence, dist: Callable[[object, object], int]) -> bool:
    """(D1) identity, (D2) symmetry, (D5) length bounds and (D3) triangle
    inequality over one factorization set, by brute force."""
    n = len(facts)
    d = [[dist(facts[i], facts[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if d[i][i] != 0:
            return False
        for j in range(n):
            if d[i][j] != d[j][i]:
                return False
            li, lj = len(facts[i].atoms), len(facts[j].atoms)
            if i != j and not abs(li - lj) <= d[i][j] <= max(li, lj, 1):
                return False
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    return False
    return True
