"""Distances between rigid factorizations: length, permutable, rigid.

Three distances ship, ordered coarsest to finest on same-product pairs:

* length distance  ``| |z| - |z'| |`` (the coarsest possible distance);
* permutable distance ``max(k - n, l - n)`` where n is the size of the
  largest common sub-multiset of atom associate-classes;
* rigid distance: minimum cost of replacing blocks of consecutive atoms,
  one replacement of m atoms by n new ones costing max(m, n, 1).

The rigid distance is computed through its block-alignment
characterization: d*(z, z') <= N iff z and z' decompose as
y1 x1 y2 ... x_{n-1} yn and y1' x1 y2' ... x_{n-1} yn' with the x_i
literally shared, and the nontrivial gap pairs cost
sum max(|y_i|, |y_i'|, 1) <= N.  A dynamic program over positions finds
the optimum; ``rigid_distance_oracle`` re-derives it by exhaustive
recursion over all block decompositions and exists purely as a test
oracle.

Matched atoms compare by associate class; on handles with nontrivial
units a shared block must in addition have equal block products (blocks
are literal common factors).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .factorizations import RigidFactorization, class_multiset
from .handles import SemigroupHandle


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
    a = Counter(class_multiset(handle, z))
    b = Counter(class_multiset(handle, zp))
    common = sum((a & b).values())
    return max(z.length - common, zp.length - common)


@dataclass(frozen=True)
class Alignment:
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
    """Minimum block-alignment cost together with an optimal alignment."""
    a, b = z.atoms, zp.atoms
    k, l = len(a), len(b)
    if k == 0 and l == 0:
        cost = 0 if handle.key(z.product) == handle.key(zp.product) else 1
        return cost, Alignment((), (cost,) if cost else (), cost)

    INF = k + l + 2
    dist = [[INF] * (l + 1) for _ in range(k + 1)]
    prev: List[List[Optional[Tuple[int, int, str]]]] = \
        [[None] * (l + 1) for _ in range(k + 1)]
    dist[0][0] = 0
    for i in range(k + 1):
        for j in range(l + 1):
            d = dist[i][j]
            if d >= INF:
                continue
            # close a gap of p atoms in z and q atoms in z' at cost max(p, q)
            for p in range(k - i + 1):
                for q in range(l - j + 1):
                    if p == 0 and q == 0:
                        continue
                    nd = d + max(p, q)
                    if nd < dist[i + p][j + q]:
                        dist[i + p][j + q] = nd
                        prev[i + p][j + q] = (i, j, "gap")
            # extend a shared block (ties resolved toward longer blocks,
            # for witness readability; the value is unaffected)
            ell = 0
            while i + ell < k and j + ell < l and _match(handle, a[i + ell], b[j + ell]):
                ell += 1
                if not _block_ok(handle, a, b, i, j, ell):
                    continue
                if d <= dist[i + ell][j + ell]:
                    dist[i + ell][j + ell] = d
                    prev[i + ell][j + ell] = (i, j, "block")
    total = dist[k][l]

    blocks: List[Tuple[int, int, int]] = []
    gaps: List[int] = []
    i, j = k, l
    while (i, j) != (0, 0):
        pi, pj, kindtag = prev[i][j]
        if kindtag == "block":
            blocks.append((pi, pj, i - pi))
        else:
            gaps.append(max(i - pi, j - pj))
        i, j = pi, pj
    blocks.reverse()
    gaps.reverse()
    return total, Alignment(tuple(blocks), tuple(gaps), total)


def rigid_distance_oracle(handle: SemigroupHandle, z: RigidFactorization,
                          zp: RigidFactorization, max_total: int = 10) -> int:
    """Exhaustive recursion over all block decompositions (test oracle).

    Independent of the dynamic program: every monotone choice of shared
    blocks is enumerated outright.
    """
    a, b = z.atoms, zp.atoms
    k, l = len(a), len(b)
    if k + l > max_total:
        raise InstanceTooLarge(f"combined length {k + l} exceeds {max_total}")
    if k == 0 and l == 0:
        return 0 if handle.key(z.product) == handle.key(zp.product) else 1

    best = [k + l + 2]

    def gapcost(p: int, q: int) -> int:
        return 0 if p == 0 and q == 0 else max(p, q, 1)

    def rec(i: int, j: int, acc: int) -> None:
        total = acc + gapcost(k - i, l - j)
        if total < best[0]:
            best[0] = total
        for p in range(i, k):
            for q in range(j, l):
                ell = 0
                while p + ell < k and q + ell < l \
                        and _match(handle, a[p + ell], b[q + ell]):
                    ell += 1
                    if not _block_ok(handle, a, b, p, q, ell):
                        continue
                    rec(p + ell, q + ell, acc + gapcost(p - i, q - j))

    rec(0, 0, 0)
    return best[0]


def distance(handle: SemigroupHandle, kind: DistanceKind,
             z: RigidFactorization, zp: RigidFactorization) -> int:
    if kind is DistanceKind.LENGTH:
        return length_distance(z, zp)
    if kind is DistanceKind.PERMUTABLE:
        return permutable_distance(handle, z, zp)
    return rigid_distance(handle, z, zp)


@dataclass(frozen=True)
class AxiomReport:
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
