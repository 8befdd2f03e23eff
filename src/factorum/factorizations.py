"""Rigid and permutable factorizations over any SemigroupHandle.

A rigid factorization of a is an ordered sequence of atoms composing to a;
the engine is reduced (or the handle supplies associate classes), so a
sequence of concrete atom representatives identifies it.  On a reduced
handle an atom's associate class is its key, so a factorization's atom
keys are its classes too; only a handle with units (T_n(Z)*, M_n(Z)*)
maps keys to classes.  Permutable factorizations are rigid ones up to
permutation and associativity of the atoms, i.e. multisets of associate
classes.  Length sets, distance sets and elasticities are derived from
these.

Every handle keeps one fact per element, in one memo slot, and
``_fact``, its one reader, decides where the fact comes from.
Completeness is certified exactly when every sub-search was certified
and no recursion budget was hit (non-atomic inputs such as
<a,b | aba=b> never certify).

* A commutative reduced handle (``_orderless``: block monoids, free
  abelian monoids, abelianizations) walks its class multisets alone
  (``_class_walk``), recursing only on a cover: dividing atoms such that
  every factorization holds one of them (on a block monoid, the atoms
  holding the least term).  Its fact holds each class multiset once, as
  its sorted atom-key tuple (an atom's class is its key there).  Every
  ordering of a factorization is one, so its rigid factorizations are
  the distinct orderings of those multisets, listed only for a
  ``rigid_factorizations`` answer; valuation sets, almost-prime-likeness
  and omega do not change under reordering, and the least ordering of a
  multiset is the multiset itself, so they read the multisets.
* Every other handle walks its rigid factorizations (``_rigid_walk``) on
  its left-divisor atoms, and reads its class multisets off them, unless
  a transfer homomorphism to a factorial monoid gives an element's one
  class multiset (``transfer_classes``, on T_n(Z)* and M_n(Z)*): then its
  class multisets and lengths, and the d_len and d_p graphs, t_p, |_p,
  valuation sets and almost-prime-likeness built on them, need no walk,
  and only rigid sets, d* and omega walk.

Every class-level reader takes one view of an element, ``_class_view``:
its class tuples, whether they are complete, and the key tuples they
come from.  It is the one place a handle is asked for a transfer map's
multiset, and otherwise it reads the element's one fact.  d_p between
class multisets is computed in one place too, ``_permutable_matrix``,
for the d_p graph and t_p alike.

Both walks are plain module-level recursions that take their state as
arguments, so a query leaves no reference cycle and its memory is freed
as soon as the caller drops the handle.  Either runs on any handle, so
the tests use each as a reference.

Both walks keep their results by one rule, so that every answer depends
on the element alone.  A complete result is a fact: it goes into the
handle's memo with ``need``, the depth its walk needs (0 for a unit, else
1 + the largest need among the non-unit quotients, or 1 when there are
none), and is read back wherever at least that much depth is left, where
a cold walk would find exactly that result.  An incomplete result is
kept only for the rest of its query, in a dict made for that query, and
read back where no more depth is left than it was searched to.  A memo
key is always an element the handle checked or produced, so ``_fact``
checks its element (``require_element``) only where the memo misses,
and a hit hashes the key once.

A fact is held as plain keys, as (factorizations, need): each
factorization is the tuple of its atoms' keys, in the order (length,
atom keys).  On a presentation these are words, so the fact holds only
strings and ints, and the cyclic collector stops tracking it.  Omega
(``factorization_keys``) and the class view behind almost-prime-likeness,
valuation sets, length sets, and the class multisets of d_len, d_p,
t_p, |_p and equiv_p read that fact directly where no transfer map
gives them, so an element has one memo entry; a ``RigidFactorization``
is built from it only for a witness, a representative or a
``rigid_factorizations`` answer, and a ``FactorizationSet`` only for
the last.

Where the handle spells out an element's rigid factorizations
(``spelled_factorizations``), ``_fact`` stores them in the memo as they
are: an answer has the fact's (factorizations, need) shape.
``PresentationSemigroup`` spells a class out when (a) the
presentation is Adyan and no relation side is a single letter, and (b)
the element's ball is closed with its longest member within the word
cap.  Then the atoms are exactly the letters and every left quotient is
unique, and every ball below the element closes.  So the walk would find
each word of the class, letter by letter, as one factorization, in the
order (length, atom keys), and would need the greatest word length as
depth: the stored result is the walk's own.

``RigidFactorization``, ``PermutableFactorization`` and ``LengthSet``
are named tuples: immutable, compared by value, copied with a field
changed by ``_replace``, and equal to a plain tuple of the same fields.
``FactorizationSet`` is an immutable ``__slots__`` class, compared and
hashed by both its fields and sized and iterated as its factorizations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import (Callable, Dict, FrozenSet, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .handles import FrozenSlots, SemigroupHandle


class RigidFactorization(NamedTuple):
    atoms: Tuple
    product: object

    @property
    def length(self) -> int:
        return len(self.atoms)

    def format(self, handle: SemigroupHandle) -> str:
        if not self.atoms:
            return "[]"
        return "[" + ", ".join(handle.format_element(u) for u in self.atoms) + "]"


class PermutableFactorization(NamedTuple):
    classes: Tuple          # sorted multiset of atom associate-class keys
    length: int
    representative: RigidFactorization


class FactorizationSet(FrozenSlots):
    """An element's rigid factorizations and whether the list is complete.
    Immutable, compared and hashed by both fields, and sized and iterated
    as its list of factorizations."""
    __slots__ = ("factorizations", "complete")

    def __init__(self, factorizations: Tuple[RigidFactorization, ...],
                 complete: bool):
        _set_factorizations(self, factorizations)
        _set_complete(self, complete)

    def __eq__(self, other):
        if other.__class__ is FactorizationSet:
            return (self.factorizations, self.complete) \
                == (other.factorizations, other.complete)
        return NotImplemented

    def __hash__(self):
        return hash((self.factorizations, self.complete))

    def __len__(self):
        return len(self.factorizations)

    def __iter__(self):
        return iter(self.factorizations)


# the slot setters, which bypass the refusing __setattr__
_set_factorizations = FactorizationSet.factorizations.__set__
_set_complete = FactorizationSet.complete.__set__


def class_multiset(handle: SemigroupHandle, z: RigidFactorization) -> Tuple:
    """Sorted multiset of associate classes of the atoms of z."""
    return tuple(sorted(handle.atom_class(u) for u in z.atoms))


def _class_occurrences(classes: Tuple) -> FrozenSet[Tuple]:
    """A sorted class multiset as a set: the k-th copy of a class is
    (class, k).  Two multisets then share exactly the pairs of their common
    sub-multiset (the gcd of two permutable factorizations), and one is a
    sub-multiset of the other iff its set is a subset.  This is the one
    comparison of class multisets behind d_p, |_p and t_p."""
    out, prev, k = [], None, 0
    for cls in classes:
        k = k + 1 if cls == prev else 0
        out.append((cls, k))
        prev = cls
    return frozenset(out)


def _permutable_matrix(nodes: Sequence) -> List[List[int]]:
    """d_p between the nodes, read off their class multisets
    (``classes``, each counted once): the larger length minus the size of
    the common sub-multiset.  The one d_p between class multisets, behind
    the d_p graph and t_p."""
    sets = [_class_occurrences(p.classes) for p in nodes]
    n = len(nodes)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        si, li, row = sets[i], nodes[i].length, mat[i]
        for j in range(i + 1, n):
            lj = nodes[j].length
            row[j] = mat[j][i] = (li if li > lj else lj) - len(si & sets[j])
    return mat


def _fact(handle: SemigroupHandle, a
          ) -> Tuple[Tuple[Tuple, ...], bool]:
    """The fact of a as atom-key tuples in the order (length, atom keys),
    and whether they are all of a's: its memo entry where a's walk
    completes, read back where the walk would read it or stored by the
    walk, and otherwise the walk's incomplete result.  An orderless
    handle walks its class multisets, one sorted tuple each; any other
    handle stores the factorizations it spells out (as the walk would
    store them, and reads them back at once) or walks its rigid ones.
    A hit hashes a's key once and checks nothing, since a memo key is an
    element; a miss checks a first (``require_element``)."""
    cache = handle.memo.facts
    try:
        key = handle.key(a)
        hit = cache.get(key)
    except (TypeError, AttributeError):   # no element: the check says why
        hit = None
    if hit is None:
        handle.require_element(a)
        if handle.is_unit(a):
            return ((),), True
        spelled = handle.spelled_factorizations(a)
        if spelled is not None:
            hit = cache[key] = spelled
    depth = handle.length_cap(a)
    if hit is not None and hit[1] <= depth:
        tuples, need = hit
    elif _orderless(handle):
        tuples, need = _class_step(handle, cache, {}, a, key, depth)
    else:
        tuples, need = _rigid_walk(handle, cache, {}, set(), a, depth)
    return tuples, need is not None and handle.certified(a)


def _rigid_walk(handle: SemigroupHandle, cache: Dict, partial: Dict,
                in_progress: set, x, depth_left: int
                ) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
    """The atom-key tuples of x's factorizations and the depth their walk
    needs, None when they are incomplete, recursing on its left-divisor
    atoms.  Complete results are kept in ``cache`` (the handle's
    ``memo.facts`` on a handle that is not orderless), the query's
    incomplete ones in ``partial`` (see the module docstring).
    ``in_progress`` holds the keys on the current path: meeting one again
    is a product cycle, below which nothing is certified.

    A plain module-level recursion taking its state as arguments: a call
    makes no closure, so it leaves no reference cycle and its garbage is
    freed by reference counting alone."""
    if handle.is_unit(x):
        return ((),), 0
    key = handle.key(x)
    hit = cache.get(key)
    if hit is not None and hit[1] <= depth_left:
        return hit
    hit = partial.get(key)
    if hit is not None and hit[1] >= depth_left:
        return hit[0], None
    if key in in_progress:
        return (), None    # product cycle: cannot certify below here
    if depth_left <= 0:
        return (), None
    in_progress.add(key)
    pairs, complete = handle.left_divisor_atoms(x)
    # The result is ordered by (length, atom keys).  A quotient's tuples
    # are in that order already, so prefixing one atom keeps it, and the
    # first atoms order the rest; only an atom with several quotients (a
    # non-cancellative presentation) merges their tuples.  Every
    # [atom * unit] with the trailing unit absorbed is x itself, so the
    # set keeps at most one.
    singles = set()
    by_atom: Dict = {}      # atom key -> [quotient's tuples]
    need = 1
    for atom, quotient in pairs:
        if handle.is_unit(quotient):
            singles.add((handle.key(handle.multiply(atom, quotient)),))
            continue
        sub, sub_need = _rigid_walk(handle, cache, partial, in_progress,
                                    quotient, depth_left - 1)
        if sub_need is None:
            complete = False
        elif sub_need >= need:
            need = sub_need + 1
        by_atom.setdefault(handle.key(atom), []).append(sub)
    in_progress.discard(key)
    facts = list(singles)
    for atom_key in sorted(by_atom):
        subs = by_atom[atom_key]
        if len(subs) == 1:
            facts.extend((atom_key,) + f for f in subs[0])
        else:
            facts.extend(sorted({(atom_key,) + f for sub in subs
                                 for f in sub}))
    # a stable sort by length keeps each length's tuples in key order
    facts.sort(key=len)
    result = tuple(facts)
    if complete:
        cache[key] = (result, need)
        return result, need
    partial[key] = (result, depth_left)
    return result, None


def _classes_of(handle: SemigroupHandle, tuples: Tuple) -> Tuple:
    """The atom classes of each factorization in ``tuples`` (atom-key
    tuples), in order, on a handle with units, where a class is not its
    atom's key."""
    atom_of_key, atom_class = handle.atom_of_key, handle.atom_class
    of = {k: atom_class(atom_of_key(k)) for k in set().union(*tuples)}
    get = of.__getitem__
    return tuple([tuple(map(get, t)) for t in tuples])


def factorization_keys(handle: SemigroupHandle, a
                       ) -> Tuple[Tuple[Tuple, ...], Tuple[Tuple, ...], bool]:
    """a's fact (``_fact``): atom-key tuples in the order (length, atom
    keys), the atom classes of each, and whether they are all of a's.
    They are a's rigid factorizations, or on an orderless handle one
    ordering of each of a's class multisets.

    On a reduced handle the tuples are their own classes; on a handle
    with units the classes are worked out on each call.  Omega reads
    them for the positions of a's atoms, where no transfer map helps, and
    builds a ``RigidFactorization`` only for a witness
    (``_rigid_factorization``).
    """
    tuples, complete = _fact(handle, a)
    classes = tuples if handle.reduced else _classes_of(handle, tuples)
    return tuples, classes, complete


def _class_view(handle: SemigroupHandle, a
                ) -> Tuple[Tuple[Tuple, ...], bool, Optional[Tuple]]:
    """The atom-class tuples of a, whether they are all of a's, and the
    atom-key tuples of the factorizations they come from: the one view of
    a's permutable layer, and the one place a transfer map is asked.

    A handle that is permutably factorial through a transfer map gives
    a's one sorted multiset m (``transfer_classes``): the view is then
    ((m,), True, None), and no factorization is listed.  Every other
    handle gives the classes of a's one fact (``_fact``, as
    ``factorization_keys`` does, inlined here because the view is on the
    almost-prime-like sweep's per-query path), in its order (length, atom
    keys), each in its factorization's order (its keys on a reduced
    handle), with the key tuples.  Lengths, class multisets, the d_len
    and d_p nodes, valuation sets and almost-prime-likeness read this
    view."""
    m = handle.transfer_classes(a)
    if m is not None:
        return (m,), True, None
    keys, complete = _fact(handle, a)
    return (keys if handle.reduced else _classes_of(handle, keys)), \
        complete, keys


def _rigid_factorization(handle: SemigroupHandle, a, keys: Tuple
                         ) -> RigidFactorization:
    """The factorization of a whose atoms have the keys ``keys``."""
    return RigidFactorization(tuple(map(handle.atom_of_key, keys)), a)


def _orderings(m: Tuple) -> Iterator[Tuple]:
    """The distinct orderings of the sorted tuple m, in lexicographic
    order: each is the next permutation of the one before, which steps
    over equal entries, so a multiset with many repeats costs only its
    distinct orderings."""
    p, n = list(m), len(m)
    while True:
        yield tuple(p)
        i = n - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = reversed(p[i + 1:])


def rigid_factorizations(handle: SemigroupHandle, a) -> FactorizationSet:
    """The set Z*(a) of rigid factorizations of a, within budget, in the
    order (length, atom keys).

    Every returned sequence recomposes to a; the set is exhaustive iff
    ``complete`` is True.  The answer does not depend on earlier queries.
    The set is built on every call from a's fact (``_fact``): on an
    orderless handle, from the distinct orderings of each class multiset.
    """
    tuples, complete = _fact(handle, a)
    if _orderless(handle):
        # the fact is ordered by length: sort each length's orderings
        tuples = [t for _, ms in groupby(tuples, len)
                  for t in sorted(o for m in ms for o in _orderings(m))]
    # each atom is built once, however many factorizations hold it
    atom = {k: handle.atom_of_key(k) for k in set().union(*tuples)}
    return FactorizationSet(tuple([RigidFactorization(
        tuple(map(atom.__getitem__, t)), a) for t in tuples]), complete)


def _orderless(handle: SemigroupHandle) -> bool:
    """Whether the handle's facts are class multisets: on a commutative
    reduced handle every ordering of a factorization is one, and an
    atom's class is its key."""
    return handle.commutative and handle.reduced


class _ClassNode(NamedTuple):
    """One atom-class multiset of an element and its length, with no rigid
    factorization built: a node of the d_len and d_p graphs, and a
    permutable factorization for t_p."""
    classes: Tuple
    length: int


def _class_nodes(handle: SemigroupHandle, a
                 ) -> Tuple[List[_ClassNode], bool, Callable]:
    """The atom-class multisets of a as nodes, in multiset order, whether
    they are all of a's, and the map from a node to its representative:
    the least rigid factorization of a with that multiset, in the order
    (length, atom keys), built only when the map is called.

    The multisets are read off a's class view (``_class_view``), and a
    representative is the first factorization of its multiset there.
    Where a transfer map gave the one multiset, a's fact is read only
    when the representative is asked for, and it is its first
    factorization.  On an orderless handle the fact's tuples are the
    sorted multisets themselves, each its own representative."""
    if _orderless(handle):      # each tuple is its own sorted multiset
        tuples, complete = _fact(handle, a)
        return ([_ClassNode(m, len(m)) for m in sorted(tuples)], complete,
                lambda z: _rigid_factorization(handle, a, z.classes))
    classes, complete, keys = _class_view(handle, a)
    first: Dict[Tuple, int] = {}
    for i, c in enumerate(classes):
        first.setdefault(tuple(sorted(c)), i)

    def rigid(z: _ClassNode) -> RigidFactorization:
        tuples = keys if keys is not None else _fact(handle, a)[0]
        return _rigid_factorization(handle, a, tuples[first[z.classes]])
    return [_ClassNode(m, len(m)) for m in sorted(first)], complete, rigid


def permutable_factorizations(handle: SemigroupHandle, a
                              ) -> Tuple[Tuple[PermutableFactorization, ...], bool]:
    """Z_p(a): rigid factorizations up to permutation of associate classes,
    one per class multiset in multiset order, each represented by its least
    rigid factorization in the order (length, atom keys).

    These are the nodes of ``_class_nodes`` with every representative
    built: on a commutative reduced handle every ordering of a
    factorization is one, so that least factorization is its atoms sorted
    by key, and no rigid ordering is listed; elsewhere the classes are
    read off a's rigid fact.
    """
    nodes, complete, rigid = _class_nodes(handle, a)
    return tuple(PermutableFactorization(z.classes, z.length, rigid(z))
                 for z in nodes), complete


def permutable_class_multisets(handle: SemigroupHandle, a
                               ) -> Tuple[FrozenSet[Tuple], bool]:
    """The set of atom-class multisets of a and whether they are all of a's,
    read off a's class view (``_class_view``): a permutable factorization
    is a rigid one up to order and associates."""
    classes, complete, _ = _class_view(handle, a)
    return frozenset([tuple(sorted(c)) for c in classes]), complete


def _class_walk(handle: SemigroupHandle, cache: Dict, partial: Dict, x,
                depth_left: int
                ) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
    """The walk of orderless handles: the class multisets of x, each a
    sorted tuple, in the order (length, classes), and the depth their walk
    needs, None when they are incomplete, recursing on x's covering atoms
    (``covering_divisor_atoms``): every factorization of x holds one of
    those atoms u, and drops to one of x/u without it.  Complete results
    are kept in ``cache`` (the handle's ``memo.facts`` on an orderless
    handle), the query's incomplete ones in ``partial`` (see the module
    docstring).  Like ``_rigid_walk`` a plain module-level recursion, so a
    call leaves no reference cycle."""
    if handle.is_unit(x):
        return ((),), 0
    key = handle.key(x)
    hit = cache.get(key)
    if hit is not None and hit[1] <= depth_left:
        return hit
    hit = partial.get(key)
    if hit is not None and hit[1] >= depth_left:
        return hit[0], None
    return _class_step(handle, cache, partial, x, key, depth_left)


def _class_step(handle: SemigroupHandle, cache: Dict, partial: Dict, x,
                key, depth_left: int
                ) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
    """``_class_walk`` of a non-unit x with key ``key`` that neither memo
    answers: its multisets from its quotients' by its covering atoms."""
    if depth_left <= 0:
        return (), None
    pairs, complete = handle.covering_divisor_atoms(x)
    atom_class = handle.atom_class
    out = set()
    need = 1
    for atom, quotient in pairs:
        cls = atom_class(atom)
        sub, sub_need = _class_walk(handle, cache, partial, quotient,
                                    depth_left - 1)
        if sub_need is None:
            complete = False
        elif sub_need >= need:
            need = sub_need + 1
        for m in sub:
            out.add(tuple(sorted(m + (cls,))))
    # a stable sort by length keeps each length's multisets in order
    facts = sorted(out)
    facts.sort(key=len)
    result = tuple(facts)
    if complete:
        cache[key] = (result, need)
        return result, need
    partial[key] = (result, depth_left)
    return result, None


class LengthSet(NamedTuple):
    lengths: Tuple[int, ...]         # sorted
    delta: Tuple[int, ...]           # gaps between consecutive lengths
    elasticity: Fraction
    certified: bool


def length_profile(handle: SemigroupHandle, a) -> LengthSet:
    """L(a) with its distance set and elasticity rho = max/min.

    The lengths are read off a's class view (``_class_view``): where a
    transfer map gives a's one multiset, on M_n(Z)* its length is
    Omega(|det a|) and on T_n(Z)* Omega of the diagonal's product (past
    the determinant cap an error).
    """
    classes, complete, _ = _class_view(handle, a)
    lengths = tuple(sorted(set(map(len, classes))))
    delta = tuple(b - c for c, b in zip(lengths, lengths[1:]))
    if lengths and lengths[0]:
        elasticity = Fraction(lengths[-1], lengths[0])
    else:
        elasticity = Fraction(0)
    return LengthSet(lengths, delta, elasticity, complete)
