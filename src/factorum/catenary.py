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
d_p there is one node per atom-class multiset, the multiset and its
length alone (``factorizations._class_nodes``), and d_p is computed from
the multisets by the one comparison of class multisets,
``factorizations._class_occurrences``.  The nodes are read off the
element's one fact.  On commutative reduced handles (block monoids,
free abelian monoids, abelianizations) that fact is its class multisets,
built by ``_class_walk``, one memoised recursion over the quotients by
a cover of atoms that meets every factorization (on a block monoid, the
atoms holding the element's least term), so the d_len and d_p cost
follows the factorization classes, not the rigid orderings; the d*
nodes are the orderings of those multisets.  On presentations the fact
is the rigid factorizations, held as atom-key tuples with their
classes.  On T_n(Z)* and M_n(Z)* the transfer map gives the one
multiset instead (``transfer_classes``), so the graph has one node and
answers 0 with no factorization listed.  Either
way a rigid factorization is built only where atoms are read: for the
two ends of a witness, and for every node when the in-fibers view takes
its image.  A graph of fewer than two nodes answers 0 before any distance is
computed.

The bottleneck is Prim over parallel lists with ties broken by (weight,
node index), so each witness edge is fixed by the graph alone.

``ChainWitness`` and ``CatenaryReport`` are named tuples: immutable,
compared by value, copied with a field changed by ``_replace``, and
equal to a plain tuple of the same fields.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .distances import DistanceKind, _require_kind, distance
from .factorizations import (RigidFactorization, _class_nodes,
                             _class_occurrences, rigid_factorizations)
from .handles import SemigroupHandle


class ChainWitness(NamedTuple):
    steps: Tuple[RigidFactorization, ...]
    bound: int


class CatenaryReport(NamedTuple):
    value: int
    kind: DistanceKind
    variant: str
    certified: bool
    witness: Optional[ChainWitness] = None
    element: object = None
    notes: Tuple[str, ...] = ()


def _distance_matrix(handle, kind, facts: Sequence[RigidFactorization]):
    n = len(facts)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = distance(handle, kind, facts[i], facts[j])
    return mat


def _bottleneck(nodes: Sequence[int], mat) -> Tuple[int, Optional[Tuple[int, int]]]:
    """Bottleneck connectivity value of the complete graph on ``nodes``:
    max edge of a minimum spanning tree (Prim from ``nodes[0]``), plus that
    edge.

    Parallel lists hold the nodes outside the tree in index order (an
    adjacent-view part is two length classes, so it need not be), each
    one's least weight to the tree and the tree node giving it.  Taking
    the first least weight, and lowering a weight only when strictly
    smaller, adds the nodes in the order (weight, index)."""
    if len(nodes) <= 1:
        return 0, None
    root = nodes[0]
    rest = sorted(nodes[1:])
    row = mat[root]
    best = [row[u] for u in rest]
    parent = [root] * len(rest)
    value, arg = 0, None
    while rest:
        w = min(best)
        k = best.index(w)
        v, p = rest.pop(k), parent.pop(k)
        del best[k]
        if w > value:
            value, arg = w, (p, v)
        row = mat[v]
        for i, u in enumerate(rest):
            if row[u] < best[i]:
                best[i], parent[i] = row[u], v
    return value, arg


def _permutable_matrix(nodes: Sequence):
    """d_p between the nodes, read off their class multisets
    (``classes``, each counted once): the larger length minus the size of
    the common sub-multiset."""
    sets = [_class_occurrences(p.classes) for p in nodes]
    n = len(nodes)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        si, li, row = sets[i], nodes[i].length, mat[i]
        for j in range(i + 1, n):
            lj = nodes[j].length
            row[j] = mat[j][i] = (li if li > lj else lj) - len(si & sets[j])
    return mat


class _Graph(NamedTuple):
    nodes: Sequence      # each with a ``length``
    mat: Optional[list]  # None when there are fewer than two nodes
    complete: bool
    rigid: Callable      # node -> the rigid factorization a witness shows


def _itself(z):
    return z


def _graph(handle: SemigroupHandle, a, kind: DistanceKind) -> _Graph:
    """The factorization graph of a: its nodes, distance matrix and
    completeness flag, and how a node is shown as a rigid factorization.

    Under d* the nodes are the rigid factorizations.  Under d_len and d_p
    a distance depends only on the two atom-class multisets and is 0 when
    they agree, so the graph takes one node per class multiset, in
    multiset order (``factorizations._class_nodes``): that changes no
    bottleneck value and no least distance between two lengths.  A node
    is the multiset and its length alone, and is shown by the least rigid
    factorization in its class, in the order (length, atom keys), built
    only when asked for.  The d_p matrix is read off the class multisets.
    A graph of fewer than two nodes gets no matrix."""
    if kind is DistanceKind.RIGID:
        fs = rigid_factorizations(handle, a)
        nodes, complete, rigid = fs.factorizations, fs.complete, _itself
    elif kind is DistanceKind.PERMUTABLE or kind is DistanceKind.LENGTH:
        nodes, complete, rigid = _class_nodes(handle, a)
    else:
        raise ValueError(f"unknown distance kind {kind!r}")
    if len(nodes) < 2:
        return _Graph(nodes, None, complete, rigid)
    mat = _permutable_matrix(nodes) if kind is DistanceKind.PERMUTABLE \
        else _distance_matrix(handle, kind, nodes)
    return _Graph(nodes, mat, complete, rigid)


def _whole(g: _Graph):
    """The view with one part: every node."""
    return [(range(len(g.nodes)), g.mat)]


def _split(key: Callable) -> Callable:
    """The view whose parts are the nodes grouped by ``key``, in key order."""
    def view(g: _Graph):
        groups: Dict = {}
        for i, z in enumerate(g.nodes):
            groups.setdefault(key(z), []).append(i)
        return [(groups[k], g.mat) for k in sorted(groups)]
    return view


_equal = _split(attrgetter("length"))


def _adjacent(g: _Graph):
    # nodes of one length are joined at no cost, so the bottleneck of two
    # adjacent length classes is the least distance between them
    nodes = g.nodes
    by_len = [part for part, _ in _equal(g)]
    cross = [[0 if y.length == z.length else d for z, d in zip(nodes, row)]
             for y, row in zip(nodes, g.mat)]
    return [(k + l, cross) for k, l in zip(by_len, by_len[1:])]


def _largest_bottleneck(g: _Graph, view: Callable
                        ) -> Tuple[int, Optional[Tuple[int, int]]]:
    """The largest in-part bottleneck of a graph of at least two nodes,
    with its edge: ``view`` cuts the graph into parts, each with its edge
    weights."""
    value, arg = 0, None
    for part, weights in view(g):
        v, edge = _bottleneck(part, weights)
        if v > value:
            value, arg = v, edge
    return value, arg


def _witness(g: _Graph, value: int, arg: Optional[Tuple[int, int]]
             ) -> Optional[ChainWitness]:
    """The witness of a bottleneck edge: only its two endpoints are shown
    as rigid factorizations."""
    return None if arg is None else ChainWitness(
        tuple(g.rigid(g.nodes[i]) for i in arg), value)


def _report(handle, a, kind: DistanceKind, variant: str, view: Callable
            ) -> CatenaryReport:
    """Build the graph of a once and report its largest in-part bottleneck
    under ``view``.  A graph of fewer than two nodes has no edge: its value
    is 0, with no witness."""
    g = _graph(handle, a, kind)
    if len(g.nodes) < 2:
        return CatenaryReport(0, kind, variant, g.complete, element=a)
    value, arg = _largest_bottleneck(g, view)
    return CatenaryReport(value, kind, variant, g.complete,
                          witness=_witness(g, value, arg), element=a)


def catenary(handle: SemigroupHandle, a, kind: DistanceKind = DistanceKind.PERMUTABLE
             ) -> CatenaryReport:
    """c_d(a): bottleneck over the complete distance graph on Z*(a).

    The reported value N is exact for the explored set: the threshold graph
    with edges <= N is connected and with edges <= N-1 it is not.
    """
    return _report(handle, a, kind, "plain", _whole)


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
    return _report(handle, a, kind, "monotone", _monotone)


def _monotone(g: _Graph):
    return _equal(g) + _adjacent(g)


def catenary_in_fibers(handle, a, kind: DistanceKind, transfer_map
                       ) -> CatenaryReport:
    """c_d(a, phi): chains restricted to permutable fibers of the map.

    Two rigid factorizations lie in one fiber iff the multisets of
    target-classes of their atom images, phi*(z), coincide (d_p of the
    images is 0).
    The map sends associated atoms to associated atoms, so every fiber is
    a union of permutable factorizations.
    """
    image = transfer_map._image_classes

    def fibers(g: _Graph):
        # the images need atoms, so every node is shown here
        return _split(lambda z: image(g.rigid(z)))(g)

    return _report(handle, a, kind, "in_fibers", fibers)


VARIANTS: Dict[str, Callable[..., CatenaryReport]] = {
    "plain": catenary, "equal": equal_catenary,
    "adjacent": adjacent_catenary, "monotone": monotone_catenary}
_VIEWS: Dict[str, Callable] = {
    "plain": _whole, "equal": _equal, "adjacent": _adjacent,
    "monotone": _monotone}


def semigroup_catenary(handle, elements: Sequence, kind: DistanceKind,
                       variant: str = "plain",
                       scope_complete: bool = True) -> CatenaryReport:
    """sup of c_d over the explored elements (a certified lower bound for
    the semigroup-level value).  Each element's graph is cut by the
    variant's view as in its own report, but only the first element of
    the largest value keeps its graph and edge, and its witness is the
    one built."""
    _require_kind(kind)
    view = _VIEWS.get(variant)
    if view is None:
        raise ValueError(f"unknown catenary variant {variant!r}; "
                         f"expected one of {', '.join(_VIEWS)}")
    value, best, certified = 0, None, scope_complete
    for a in elements:
        g = _graph(handle, a, kind)
        certified = certified and g.complete
        if len(g.nodes) < 2:
            continue
        v, arg = _largest_bottleneck(g, view)
        if v > value:
            value, best = v, (a, g, arg)
    element = witness = None
    if best is not None:
        element, g, arg = best
        witness = _witness(g, value, arg)
    return CatenaryReport(value, kind, variant, certified,
                          witness=witness, element=element)
