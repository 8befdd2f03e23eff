"""Distances between rigid factorizations: length, permutable, rigid.

Three distances ship, ordered coarsest to finest on same-product pairs:

* length distance  ``| |z| - |z'| |`` (the coarsest possible distance);
* permutable distance ``max(k - n, l - n)`` where n is the size of the
  largest common sub-multiset of atom associate-classes, read off the
  occurrence sets of ``factorizations._class_occurrences`` (the one
  comparison of class multisets, shared with |_p and t_p);
* rigid distance: minimum cost of replacing blocks of consecutive atoms,
  one replacement of m atoms by n new ones costing max(m, n, 1).

The rigid distance is computed through its block-alignment
characterization: d*(z, z') <= N iff z and z' decompose as
y1 x1 y2 ... x_{n-1} yn and y1' x1 y2' ... x_{n-1} yn' with the x_i
literally shared, and the nontrivial gap pairs cost
sum max(|y_i|, |y_i'|, 1) <= N.

That optimum is an edit distance (Wagner-Fischer) on the grid of prefix
pairs, walked with unit-cost king moves (one atom of z, one of z', or one
of each) and zero-cost shared blocks.  The two agree because a gap of p
atoms against q costs max(p, q), which is exactly the fewest king moves
from (i, j) to (i + p, j + q), and a run of king moves between two
blocks costs at least the single gap spanning it.  So one forward pass
over the (k + 1) x (l + 1) table finds the value.  Matched atoms compare
by associate class, each atom's class computed once per call.

On a reduced handle (the only unit is 1: presentations, B(G)) every
longer shared block is a chain of length-1 blocks, so the table is
exactly the unit-cost edit distance between the two atom-class words,
filled in O(kl) by ``_edit_alignment``.  Adjacent cells of an edit-distance
table differ by at most 1, which gives the match lemma: a cell whose
last two classes match equals its diagonal neighbour.  So a matched cell
takes its diagonal outright, and any other cell is 1 plus the least of
its three neighbours.

On handles with nontrivial units (T_n(Z), M_n(Z)) a shared block must in
addition have equal block products (blocks are literal common factors),
so longer blocks are kept, their products grown one atom at a time.
That path is unchanged until block equality there becomes the paper's
equivalence of rigid factorizations up to unit carries (an open item in
ROADMAP.md).

The witness is read backwards from (k, l) and keeps the tie-break of
the closing-gap program, which closed every gap (p, q) from every cell
in O(k^2 l^2) (the tests keep it as a reference).  At a cell of value m
it takes the shortest shared block ending there whose start has value
m; failing that, one gap from the first cell in row-major order whose
value plus the gap's cost is m.  On a reduced handle the match lemma
makes that block the length-1 block ending at the cell whenever the
last classes match, so the walk takes it without a search.

``rigid_distance_oracle`` re-derives the value by exhaustive recursion
over all block decompositions and exists purely as a test oracle.

``Alignment`` and ``AxiomReport`` are named tuples: immutable, compared
by value, copied with a field changed by ``_replace``, and equal to a
plain tuple of the same fields.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .factorizations import (RigidFactorization, _class_occurrences,
                             class_multiset)
from .handles import SemigroupHandle

_ORACLE_MAX_TOTAL = 10    # the most atoms, both sides together, the oracle takes


class DistanceKind(Enum):
    LENGTH = "length"
    PERMUTABLE = "permutable"
    RIGID = "rigid"


class InstanceTooLarge(ValueError):
    """Oracle refused: exponential search past its size cap."""


def length_distance(z: RigidFactorization, zp: RigidFactorization) -> int:
    return abs(z.length - zp.length)


def permutable_distance(handle: SemigroupHandle, z: RigidFactorization,
                        zp: RigidFactorization) -> int:
    common = _class_occurrences(class_multiset(handle, z)) \
        & _class_occurrences(class_multiset(handle, zp))
    return max(z.length, zp.length) - len(common)


class Alignment(NamedTuple):
    """Witness for the rigid distance: shared blocks and paid gap pairs."""
    blocks: Tuple[Tuple[int, int, int], ...]   # (start in z, start in z', len)
    gap_costs: Tuple[int, ...]
    total: int


def _match(handle: SemigroupHandle, u, v) -> bool:
    return handle.atom_class(u) == handle.atom_class(v)


def _block_ok(handle: SemigroupHandle, a: Sequence, b: Sequence,
              i: int, j: int, ell: int) -> bool:
    # class-matched run; with nontrivial units the block products must agree
    if handle.reduced:
        return True
    pa = handle.product(a[i:i + ell])
    pb = handle.product(b[j:j + ell])
    return handle.key(pa) == handle.key(pb)


def rigid_distance(handle: SemigroupHandle, z: RigidFactorization,
                   zp: RigidFactorization) -> int:
    return rigid_distance_alignment(handle, z, zp)[0]


def rigid_distance_alignment(handle: SemigroupHandle, z: RigidFactorization,
                             zp: RigidFactorization) -> Tuple[int, Alignment]:
    """Minimum block-alignment cost together with an optimal alignment.

    ``dist[x][y]`` is the block-alignment cost of the prefixes a[:x] and
    b[:y]: the cheapest walk from (0, 0) in unit king moves and free
    shared blocks.  The witness is read backwards from (k, l) with the
    tie-break described in the module docstring.  On a reduced handle the
    table is the edit distance of ``_edit_alignment``.
    """
    a, b = z.atoms, zp.atoms
    k, l = len(a), len(b)
    if k == 0 and l == 0:
        cost = 0 if handle.key(z.product) == handle.key(zp.product) else 1
        return cost, Alignment((), (cost,) if cost else (), cost)
    if k == 0 or l == 0:
        # one gap replaces the whole nonempty side
        return k + l, Alignment((), (k + l,), k + l)

    cls = handle.atom_class
    ca = [cls(u) for u in a]
    cb = [cls(v) for v in b]
    if handle.reduced:
        return _edit_alignment(ca, cb)

    def reach(x: int, y: int, limit: int) -> int:
        # the class-matched run ending at (x, y), cut after its last start
        # of value <= limit: no longer block can be of use
        out = ell = 0
        while ell < x and ell < y and ca[x - ell - 1] == cb[y - ell - 1]:
            ell += 1
            if dist[x - ell][y - ell] <= limit:
                out = ell
        return out

    dist = [list(range(l + 1))]
    for x in range(1, k + 1):
        up, row, cx = dist[-1], [x], ca[x - 1]
        for y in range(1, l + 1):
            diag = up[y - 1]
            best = min(up[y], row[y - 1], diag) + 1
            if cx == cb[y - 1]:
                span = reach(x, y, best - 1)
                for ell in _shared_blocks(handle, a, b, x, y, span):
                    best = min(best, dist[x - ell][y - ell])
            row.append(best)
        dist.append(row)
    total = dist[k][l]

    blocks: List[Tuple[int, int, int]] = []
    gaps: List[int] = []
    x, y = k, l
    while x or y:
        m = dist[x][y]
        span = reach(x, y, m)
        ell = next((e for e in _shared_blocks(handle, a, b, x, y, span)
                    if dist[x - e][y - e] == m), 0)
        if ell:
            blocks.append((x - ell, y - ell, ell))
            x, y = x - ell, y - ell
        else:
            i, j = _first_gap_start(dist, x, y, m)
            gaps.append(max(x - i, y - j))
            x, y = i, j
    blocks.reverse()
    gaps.reverse()
    return total, Alignment(tuple(blocks), tuple(gaps), total)


def _edit_alignment(ca: List, cb: List) -> Tuple[int, Alignment]:
    """The rigid distance on a reduced handle: the unit-cost edit distance
    between the nonempty class words ca and cb, with the witness of
    ``rigid_distance_alignment``.  By the match lemma (module docstring)
    a matched cell is its diagonal and its witness block has length 1."""
    dist = [list(range(len(cb) + 1))]
    for x, cx in enumerate(ca, 1):
        up = dist[-1]
        row = [x]
        left = x
        # cell starts as the diagonal neighbour's value
        for cy, cell, above in zip(cb, up, up[1:]):
            if cx != cy:
                if above < cell:
                    cell = above
                if left < cell:
                    cell = left
                cell += 1
            row.append(cell)
            left = cell
        dist.append(row)

    blocks: List[Tuple[int, int, int]] = []
    gaps: List[int] = []
    x, y = len(ca), len(cb)
    while x or y:
        if x and y and ca[x - 1] == cb[y - 1]:
            x, y = x - 1, y - 1
            blocks.append((x, y, 1))
        else:
            i, j = _first_gap_start(dist, x, y, dist[x][y])
            gaps.append(max(x - i, y - j))
            x, y = i, j
    blocks.reverse()
    gaps.reverse()
    total = dist[-1][-1]
    return total, Alignment(tuple(blocks), tuple(gaps), total)


def _shared_blocks(handle: SemigroupHandle, a: Sequence, b: Sequence,
                   x: int, y: int, span: int) -> Iterator[int]:
    """Lengths ell <= span, shortest first, of the shared blocks
    a[x-ell:x], b[y-ell:y] ending at (x, y).  The caller has matched the
    atom classes over the whole span; the block products must agree too,
    and they grow by one left factor per length."""
    key, mul = handle.key, handle.multiply
    pa, pb = a[x - 1], b[y - 1]
    for ell in range(1, span + 1):
        if ell > 1:
            pa, pb = mul(a[x - ell], pa), mul(b[y - ell], pb)
        if key(pa) == key(pb):
            yield ell


def _first_gap_start(dist: List[List[int]], x: int, y: int,
                     m: int) -> Tuple[int, int]:
    """First cell (i, j) in row-major order from which one gap reaches
    (x, y) at cost m.  A gap costs at least its height and its width, so
    only the last m rows and columns can hold it."""
    for i in range(max(0, x - m), x + 1):
        row = dist[i]
        for j in range(max(0, y - m), y + 1 if i < x else y):
            if row[j] + max(x - i, y - j) == m:
                return i, j
    raise AssertionError(f"no gap reaches ({x}, {y}) at cost {m}")


def rigid_distance_oracle(handle: SemigroupHandle, z: RigidFactorization,
                          zp: RigidFactorization) -> int:
    """Exhaustive recursion over all block decompositions (test oracle).

    Independent of the dynamic program: every monotone choice of shared
    blocks is enumerated outright by ``_oracle_walk``.
    """
    a, b = z.atoms, zp.atoms
    k, l = len(a), len(b)
    if k + l > _ORACLE_MAX_TOTAL:
        raise InstanceTooLarge(
            f"combined length {k + l} exceeds {_ORACLE_MAX_TOTAL}")
    if k == 0 and l == 0:
        return 0 if handle.key(z.product) == handle.key(zp.product) else 1

    return _oracle_walk(handle, a, b, 0, 0, 0, k + l + 2)


def _oracle_gapcost(p: int, q: int) -> int:
    return 0 if p == 0 and q == 0 else max(p, q, 1)


def _oracle_walk(handle: SemigroupHandle, a: Sequence, b: Sequence,
                 i: int, j: int, acc: int, best: int) -> int:
    """The least of ``best`` and the cost of every decomposition of a[i:]
    and b[j:] into shared blocks and gaps, ``acc`` having been paid for
    the prefixes.  A plain module-level recursion taking its state as
    arguments, so a call leaves no reference cycle."""
    k, l = len(a), len(b)
    best = min(best, acc + _oracle_gapcost(k - i, l - j))
    for p in range(i, k):
        for q in range(j, l):
            ell = 0
            while p + ell < k and q + ell < l \
                    and _match(handle, a[p + ell], b[q + ell]):
                ell += 1
                if not _block_ok(handle, a, b, p, q, ell):
                    continue
                best = _oracle_walk(handle, a, b, p + ell, q + ell,
                                    acc + _oracle_gapcost(p - i, q - j), best)
    return best


def _require_kind(kind) -> None:
    """Raise ValueError unless kind is a ``DistanceKind`` member, the only
    kinds ``distance`` accepts: a query that may reach no distance (an
    empty scope) asks this once at its top."""
    if type(kind) is not DistanceKind:
        raise ValueError(f"unknown distance kind {kind!r}")


def distance(handle: SemigroupHandle, kind: DistanceKind,
             z: RigidFactorization, zp: RigidFactorization) -> int:
    if kind is DistanceKind.LENGTH:
        return length_distance(z, zp)
    if kind is DistanceKind.PERMUTABLE:
        return permutable_distance(handle, z, zp)
    if kind is DistanceKind.RIGID:
        return rigid_distance(handle, z, zp)
    raise ValueError(f"unknown distance kind {kind!r}")


class AxiomReport(NamedTuple):
    kind: DistanceKind
    checked_pairs: int
    passed: bool
    violation: Optional[str] = None


def verify_axioms(handle: SemigroupHandle, kind: DistanceKind,
                  sample_factorization_sets: Sequence[Sequence[RigidFactorization]],
                  extension_atoms: Sequence = ()) -> AxiomReport:
    """Check (D1) identity, (D2) symmetry, (D3) triangle inequality,
    (D4) translation invariance under prefixing/suffixing by extension
    atoms, and (D5) the length bounds, over all factorization pairs and
    triples of each sample element.  Reports the first violation."""
    _require_kind(kind)

    def d(x, y):
        return distance(handle, kind, x, y)

    checked = 0
    for zs in sample_factorization_sets:
        zs = list(zs)
        n = len(zs)
        mat = [[d(x, y) for y in zs] for x in zs]
        for i, z in enumerate(zs):
            if mat[i][i] != 0:
                return AxiomReport(kind, checked, False,
                                   f"(D1) d(z,z)!=0 for {z.atoms}")
        for iz, z in enumerate(zs):
            for jz in range(iz + 1, n):
                zpp = zs[jz]
                checked += 1
                dv = mat[iz][jz]
                if dv != mat[jz][iz]:
                    return AxiomReport(kind, checked, False, "(D2) asymmetry")
                lo = abs(z.length - zpp.length)
                hi = max(z.length, zpp.length, 1)
                if not (lo <= dv <= hi):
                    return AxiomReport(
                        kind, checked, False,
                        f"(D5) {lo} <= {dv} <= {hi} fails")
                for x in extension_atoms:
                    left_z = RigidFactorization(
                        (x,) + z.atoms, handle.multiply(x, z.product))
                    left_zp = RigidFactorization(
                        (x,) + zpp.atoms, handle.multiply(x, zpp.product))
                    right_z = RigidFactorization(
                        z.atoms + (x,), handle.multiply(z.product, x))
                    right_zp = RigidFactorization(
                        zpp.atoms + (x,), handle.multiply(zpp.product, x))
                    if d(left_z, left_zp) != dv or d(right_z, right_zp) != dv:
                        return AxiomReport(kind, checked, False,
                                           "(D4) translation variance")
        for x in range(n):
            for y in range(n):
                for w in range(n):
                    if mat[x][y] > mat[x][w] + mat[w][y]:
                        return AxiomReport(kind, checked, False,
                                           "(D3) triangle inequality")
    return AxiomReport(kind, checked, True)
