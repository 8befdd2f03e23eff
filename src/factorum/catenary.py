"""Catenary degrees: plain, equal, adjacent, monotone, and in fibers.

The catenary degree of a in distance d is the least N such that any two
rigid factorizations of a are joined by an N-chain (consecutive distances
at most N).  On the finite explored factorization set this is exactly the
bottleneck of the complete distance graph: the maximum edge of a minimum
spanning tree.  The equal catenary degree restricts chains to one length
class, the adjacent catenary degree takes min-distances between adjacent
length classes, and the monotone catenary degree is the max of those two.

The catenary degree in the permutable fibers of a transfer map phi
restricts chains to a fiber: z ~ z' iff the images phi*(z), phi*(z') agree
up to permutation.  Every variant is a view on one graph per element: a
partition of its nodes and the bottleneck inside each part.

Under d* the graph's nodes are the rigid factorizations.  Under d_len and
d_p they are the permutable factorizations (one per atom-class multiset),
and d_p is computed from the multisets by the one comparison of class
multisets, ``factorizations._class_occurrences``.  On commutative handles
without an exploration budget (block monoids, free abelian monoids)
those multisets come from one memoised recursion over the quotients by a
cover of atoms that meets every factorization (on a block monoid, the
atoms holding the element's least term), so the cost follows the
factorization classes, not the rigid orderings; on the other handles
they are read off the rigid factorizations.

Infinity never arises in a bounded computation and is represented by an
explicit flag, never a sentinel integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Optional, Sequence, Tuple

from .distances import DistanceKind, distance
from .factorizations import (PermutableFactorization, RigidFactorization,
                             _class_occurrences, permutable_factorizations,
                             rigid_factorizations)
from .handles import SemigroupHandle


@dataclass(frozen=True, slots=True)
class ChainWitness:
    steps: Tuple[RigidFactorization, ...]
    bound: int


@dataclass(frozen=True, slots=True)
class CatenaryReport:
    value: int
    kind: DistanceKind
    variant: str
    certified: bool
    infinite: bool = False
    witness: Optional[ChainWitness] = None
    element: object = None
    notes: Tuple[str, ...] = field(default=())


def _distance_matrix(handle, kind, facts: Sequence[RigidFactorization]):
    n = len(facts)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = distance(handle, kind, facts[i], facts[j])
    return mat


def _bottleneck(nodes: Sequence[int], mat) -> Tuple[int, Optional[Tuple[int, int]]]:
    """Bottleneck connectivity value of the complete graph on ``nodes``:
    max edge of a minimum spanning tree (Prim), plus that edge."""
    if len(nodes) <= 1:
        return 0, None
    best: Dict[int, Tuple[int, int]] = {
        v: (mat[nodes[0]][v], nodes[0]) for v in nodes[1:]}
    value, arg = 0, None
    while best:
        v = min(best, key=lambda u: (best[u][0], u))
        w, parent = best.pop(v)
        if w > value:
            value, arg = w, (parent, v)
        for u in list(best):
            if mat[v][u] < best[u][0]:
                best[u] = (mat[v][u], v)
    return value, arg


def _permutable_matrix(classes: Sequence[PermutableFactorization]):
    """d_p between permutable factorizations, read off their class
    multisets, each counted once: the larger length minus the size of
    the common sub-multiset."""
    sets = [_class_occurrences(p.classes) for p in classes]
    n = len(classes)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        si, li, row = sets[i], classes[i].length, mat[i]
        for j in range(i + 1, n):
            lj = classes[j].length
            row[j] = mat[j][i] = (li if li > lj else lj) - len(si & sets[j])
    return mat


def _graph(handle: SemigroupHandle, a, kind: DistanceKind):
    """Nodes, distance matrix and completeness flag of the factorization
    graph of a.

    Under d* the nodes are the rigid factorizations.  Under d_len and d_p
    a distance depends only on the two atom-class multisets and is 0 when
    they agree, so the graph takes one node per class multiset, from
    ``permutable_factorizations``: that changes no bottleneck value and
    no least distance between two lengths.  A node stands for its class
    by the least rigid factorization in it, in the order (length, atom
    keys), which is what a witness shows; on commutative handles without
    a budget no other rigid ordering is ever built.  The d_p matrix is
    read off the class multisets."""
    if kind is DistanceKind.RIGID:
        fs = rigid_factorizations(handle, a)
        return (fs.factorizations,
                _distance_matrix(handle, kind, fs.factorizations), fs.complete)
    classes, complete = permutable_factorizations(handle, a)
    nodes = tuple(p.representative for p in classes)
    mat = _permutable_matrix(classes) if kind is DistanceKind.PERMUTABLE \
        else _distance_matrix(handle, kind, nodes)
    return nodes, mat, complete


def _split(key: Callable) -> Callable:
    """The view whose parts are the nodes grouped by ``key``, in key order."""
    def view(nodes, mat):
        groups: Dict = {}
        for i, z in enumerate(nodes):
            groups.setdefault(key(z), []).append(i)
        return [(groups[k], mat) for k in sorted(groups)]
    return view


_equal = _split(attrgetter("length"))


def _adjacent(nodes, mat):
    # nodes of one length are joined at no cost, so the bottleneck of two
    # adjacent length classes is the least distance between them
    by_len = [part for part, _ in _equal(nodes, mat)]
    cross = [[0 if y.length == z.length else d for z, d in zip(nodes, row)]
             for y, row in zip(nodes, mat)]
    return [(k + l, cross) for k, l in zip(by_len, by_len[1:])]


def _report(handle, a, kind: DistanceKind, variant: str, view: Callable
            ) -> CatenaryReport:
    """Build the graph of a once; ``view`` cuts it into parts, each with its
    edge weights, and the value is the largest in-part bottleneck.  A graph
    of fewer than two nodes has no edge: its value is 0, with no witness."""
    nodes, mat, complete = _graph(handle, a, kind)
    if len(nodes) < 2:
        return CatenaryReport(0, kind, variant, complete, element=a)
    value, witness = 0, None
    for part, weights in view(nodes, mat):
        v, arg = _bottleneck(part, weights)
        if v > value:
            value, witness = v, ChainWitness((nodes[arg[0]], nodes[arg[1]]), v)
    return CatenaryReport(value, kind, variant, complete,
                          witness=witness, element=a)


def catenary(handle: SemigroupHandle, a, kind: DistanceKind = DistanceKind.PERMUTABLE
             ) -> CatenaryReport:
    """c_d(a): bottleneck over the complete distance graph on Z*(a).

    The reported value N is exact for the explored set: the threshold graph
    with edges <= N is connected and with edges <= N-1 it is not.
    """
    return _report(handle, a, kind, "plain", _split(lambda z: 0))


def equal_catenary(handle, a, kind: DistanceKind = DistanceKind.PERMUTABLE
                   ) -> CatenaryReport:
    """c_{d,eq}(a): chains between equal-length factorizations staying in
    that length class; max over length classes of in-class bottlenecks."""
    return _report(handle, a, kind, "equal", _equal)


def adjacent_catenary(handle, a, kind: DistanceKind = DistanceKind.PERMUTABLE
                      ) -> CatenaryReport:
    """c_{d,adj}(a) = max over adjacent k, l in L(a) of
    d_{k,l}(a) = min d(z, z') with |z| = k, |z'| = l."""
    return _report(handle, a, kind, "adjacent", _adjacent)


def monotone_catenary(handle, a, kind: DistanceKind = DistanceKind.PERMUTABLE
                      ) -> CatenaryReport:
    """c_{d,mon}(a) = max(c_{d,eq}(a), c_{d,adj}(a)) on one graph (the
    witness comes from the equal view on a tie)."""
    return _report(handle, a, kind, "monotone",
                   lambda nodes, mat: _equal(nodes, mat) + _adjacent(nodes, mat))


def catenary_in_fibers(handle, a, kind: DistanceKind, transfer_map
                       ) -> CatenaryReport:
    """c_d(a, phi): chains restricted to permutable fibers of the map.

    Two rigid factorizations lie in one fiber iff the multisets of
    target-classes of their atom images, phi*(z), coincide (d_p of the
    images is 0).
    The map sends associated atoms to associated atoms, so every fiber is
    a union of permutable factorizations.
    """
    return _report(handle, a, kind, "in_fibers",
                   _split(transfer_map._image_classes))


VARIANTS: Dict[str, Callable[..., CatenaryReport]] = {
    "plain": catenary, "equal": equal_catenary,
    "adjacent": adjacent_catenary, "monotone": monotone_catenary}


def semigroup_catenary(handle, elements: Sequence, kind: DistanceKind,
                       variant: str = "plain",
                       scope_complete: bool = True) -> CatenaryReport:
    """sup of c_d over the explored elements (a certified lower bound for
    the semigroup-level value)."""
    fn = VARIANTS[variant]
    value, witness, element, certified = 0, None, None, scope_complete
    for a in elements:
        rep = fn(handle, a, kind)
        certified = certified and rep.certified
        if rep.value > value:
            value, witness, element = rep.value, rep.witness, a
    return CatenaryReport(value, kind, variant, certified,
                          witness=witness, element=element,
                          notes=("semigroup-level value is a lower bound "
                                 "over the explored scope",))
