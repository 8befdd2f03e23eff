"""Rigid and permutable factorizations over any SemigroupHandle.

A rigid factorization of a is an ordered sequence of atoms composing to a;
the engine is reduced (or the handle supplies associate classes), so a
sequence of concrete atom representatives identifies it.  Permutable
factorizations are rigid ones up to permutation and associativity of the
atoms, i.e. multisets of associate classes.  Length sets, distance sets
and elasticities are derived from these.

Rigid enumeration recurses on the handle's left-divisor atoms.  The class
multisets recurse only on a cover: dividing atoms such that every
factorization holds one of them (on a block monoid, the atoms holding the
least term).  Completeness is certified exactly when every sub-search was
certified and no recursion budget was hit (non-atomic inputs such as
<a,b | aba=b> never certify).  Both walks (``_rigid_walk``,
``_class_walk``) are plain module-level recursions that take their state
as arguments, so a query leaves no reference cycle and its memory is
freed as soon as the caller drops the handle.

Both walks keep their results by one rule, so that every answer depends
on the element alone.  A complete result is a fact: it goes into the
handle's memo with ``need``, the depth its walk needs (0 for a unit, else
1 + the largest need among the non-unit quotients, or 1 when there are
none), and is read back wherever at least that much depth is left, where
a cold walk would find exactly that result.  An incomplete result is
kept only for the rest of its query, in a dict made for that query, and
read back where no more depth is left than it was searched to.

Where the handle spells out an element's rigid factorizations
(``spelled_factorizations``), a top-level query stores them, or their
class multisets, in the memo with the need the handle gives, and the walk
reads them back at once.  ``PresentationSemigroup`` spells a class out
when (a) the presentation is Adyan and no relation side is a single
letter, and (b) the element's ball is closed with its longest member
within the word cap.  Then the atoms are exactly the letters and every
left quotient is unique, and every ball below the element closes.  So
the walk would find each word of the class, letter by letter, as one
factorization, in the order (length, atom keys), and would need the
greatest word length as depth: the stored result is the walk's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from .handles import SemigroupHandle


@dataclass(frozen=True, slots=True)
class RigidFactorization:
    atoms: Tuple
    product: object

    @property
    def length(self) -> int:
        return len(self.atoms)

    def format(self, handle: SemigroupHandle) -> str:
        if not self.atoms:
            return "[]"
        return "[" + ", ".join(handle.format_element(u) for u in self.atoms) + "]"


@dataclass(frozen=True, slots=True)
class PermutableFactorization:
    classes: Tuple          # sorted multiset of atom associate-class keys
    length: int
    representative: RigidFactorization


@dataclass(frozen=True, slots=True)
class FactorizationSet:
    factorizations: Tuple[RigidFactorization, ...]
    complete: bool
    # the atom classes of every factorization, kept by the first
    # ``atom_classes`` call: only prime-likeness and valuations ask for them
    _classes: Optional[Tuple[Tuple, ...]] = field(
        default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.factorizations)

    def __iter__(self):
        return iter(self.factorizations)

    def atom_classes(self, handle: SemigroupHandle) -> Tuple[Tuple, ...]:
        """The associate classes of each factorization's atoms, in order,
        computed once per set (handle is the one the set was built on)."""
        if self._classes is None:
            atom_class = handle.atom_class
            object.__setattr__(self, "_classes", tuple([
                tuple(map(atom_class, z.atoms)) for z in self.factorizations]))
        return self._classes


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


_DEPTH_FALLBACK = 64


def _atom_tuples(handle: SemigroupHandle, a) -> Tuple[Tuple[Tuple, ...], bool]:
    """All atom sequences composing to a, with a completeness flag, from
    ``_rigid_walk``, which finds them in the memo when the handle spells
    them out."""
    cache = handle.memo.rigid
    key = handle.key(a)
    if key not in cache:
        spelled = handle.spelled_factorizations(a)
        if spelled is not None:
            cache[key] = spelled + (None,)
    tuples, need = _rigid_walk(handle, cache, {}, set(), a, _depth(handle, a))
    return tuples, need is not None


def _rigid_walk(handle: SemigroupHandle, cache: Dict, partial: Dict,
                in_progress: set, x, depth_left: int
                ) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
    """The atom sequences of x and the depth their walk needs, None when
    they are incomplete, recursing on its left-divisor atoms.  Complete
    results are kept in ``cache`` (the handle's ``memo.rigid``), the
    query's incomplete ones in ``partial`` (see the module docstring).
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
        return hit[0], hit[1]
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
    # non-cancellative presentation) merges their tuples by key.  Every
    # [atom * unit] with the trailing unit absorbed is x itself, so the
    # set keeps at most one.
    singles = set()
    by_atom: Dict = {}      # atom key -> [(atom, quotient's tuples)]
    need = 1
    for atom, quotient in pairs:
        if handle.is_unit(quotient):
            singles.add((handle.multiply(atom, quotient),))
            continue
        sub, sub_need = _rigid_walk(handle, cache, partial, in_progress,
                                    quotient, depth_left - 1)
        if sub_need is None:
            complete = False
        elif sub_need >= need:
            need = sub_need + 1
        by_atom.setdefault(handle.key(atom), []).append((atom, sub))
    in_progress.discard(key)
    facts = list(singles)
    for atom_key in sorted(by_atom):
        group = by_atom[atom_key]
        if len(group) == 1:
            atom, sub = group[0]
            facts.extend((atom,) + f for f in sub)
        else:
            facts.extend(_merged_by_keys(handle, group))
    # a stable sort by length keeps each length's tuples in atom order
    facts.sort(key=len)
    result = tuple(facts)
    if complete:
        cache[key] = (result, need, None)
        return result, need
    partial[key] = (result, depth_left)
    return result, None


def _merged_by_keys(handle: SemigroupHandle, group) -> list:
    """The distinct tuples (atom,) + f over the (atom, quotient's tuples)
    pairs of one atom key, in the order (length, atom keys).  Kept apart
    so that ``_rigid_walk`` holds no lambda, whose closure would cost a
    cell on every call."""
    return sorted(set((atom,) + f for atom, sub in group for f in sub),
                  key=lambda f: (len(f), tuple(map(handle.key, f))))


def rigid_factorizations(handle: SemigroupHandle, a) -> FactorizationSet:
    """The set Z*(a) of rigid factorizations of a, within budget.

    Every returned sequence recomposes to a; the set is exhaustive iff
    ``complete`` is True.  The answer does not depend on earlier queries.
    A complete set of a certified element is built once and kept in the
    element's memo entry; any other set is rebuilt on every call.
    """
    handle.require_element(a)
    if handle.is_unit(a):
        return FactorizationSet((RigidFactorization((), a),), True)
    key = handle.key(a)
    entries = handle.memo.rigid
    certified = handle.certified(a)
    hit = entries.get(key)
    # a set is kept only after a's own walk completed, at a's depth
    if certified and hit is not None and hit[2] is not None:
        return hit[2]
    tuples, complete = _atom_tuples(handle, a)
    facts = tuple([RigidFactorization(t, a) for t in tuples])
    fs = FactorizationSet(facts, complete and certified)
    if fs.complete:
        entries[key] = entries[key][:2] + (fs,)
    return fs


def _orderless(handle: SemigroupHandle) -> bool:
    """Whether the permutable factorizations of the handle's elements come
    from their class multisets alone: on a commutative reduced handle
    every ordering of a factorization is one, and the multisets need no
    rigid ordering listed."""
    return handle.commutative and handle.reduced


def _least_rigid(handle: SemigroupHandle, a, classes: Tuple
                 ) -> RigidFactorization:
    """On an orderless handle (see ``_orderless``), the least rigid
    factorization of a with the class multiset ``classes`` in the order
    (length, atom keys): the atoms of those classes sorted by key."""
    return RigidFactorization(
        tuple(sorted(map(handle.class_atom, classes), key=handle.key)), a)


def permutable_factorizations(handle: SemigroupHandle, a
                              ) -> Tuple[Tuple[PermutableFactorization, ...], bool]:
    """Z_p(a): rigid factorizations up to permutation of associate classes,
    one per class multiset in multiset order, each represented by its least
    rigid factorization in the order (length, atom keys).

    On a commutative reduced handle every ordering of a factorization is
    one, so that least factorization is its atoms sorted by key: the
    classes come from ``permutable_class_multisets`` and no rigid ordering
    is listed.  Elsewhere the classes are read off Z*(a).
    """
    if _orderless(handle):
        sets, complete = permutable_class_multisets(handle, a)
        return tuple(PermutableFactorization(m, len(m), _least_rigid(
            handle, a, m)) for m in sorted(sets)), complete
    fs = rigid_factorizations(handle, a)
    seen: Dict[Tuple, RigidFactorization] = {}
    for z in fs:
        key = class_multiset(handle, z)
        seen.setdefault(key, z)
    out = tuple(PermutableFactorization(k, len(k), seen[k])
                for k in sorted(seen))
    return out, fs.complete


def _depth(handle: SemigroupHandle, a) -> int:
    depth = handle.length_cap(a)
    return _DEPTH_FALLBACK if depth is None else depth


def permutable_class_multisets(handle: SemigroupHandle, a
                               ) -> Tuple[FrozenSet[Tuple], bool]:
    """The set of atom-class multisets of a, computed without materializing
    rigid factorizations: one memoised set per element, built by
    ``_class_walk`` from the sets of the quotients by the handle's
    covering atoms (``covering_divisor_atoms``).  Every factorization of x
    holds one of those atoms u, and drops to a factorization of x/u
    without it, so each multiset of x is one of x/u's plus u.  Besides
    length sets and divisibility, it is the node source of the catenary
    graph under d_len and d_p on commutative reduced handles, each
    multiset one node (see ``catenary._graph``)."""
    handle.require_element(a)
    cache = handle.memo.classes
    key = handle.key(a)
    hit = cache.get(key)
    if hit is None:
        spelled = handle.spelled_factorizations(a)
        if spelled is not None:
            atom_class = handle.atom_class
            hit = cache[key] = (tuple({tuple(sorted(map(atom_class, t)))
                                       for t in spelled[0]}), spelled[1])
    # a hit is read back as ``_class_walk`` reads it, with one lookup
    depth = _depth(handle, a)
    if hit is not None and hit[1] <= depth:
        sets, need = hit
    else:
        sets, need = _class_walk(handle, cache, {}, a, depth)
    return frozenset(sets), need is not None and handle.certified(a)


def _class_walk(handle: SemigroupHandle, cache: Dict, partial: Dict, x,
                depth_left: int
                ) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
    """The class multisets of x and the depth their walk needs, None when
    they are incomplete.  Complete results are kept in ``cache`` (the
    handle's ``memo.classes``), the query's incomplete ones in ``partial``
    (see the module docstring).  Like ``_rigid_walk`` a plain module-level
    recursion, so a call leaves no reference cycle."""
    if handle.is_unit(x):
        return ((),), 0
    key = handle.key(x)
    hit = cache.get(key)
    if hit is not None and hit[1] <= depth_left:
        return hit
    hit = partial.get(key)
    if hit is not None and hit[1] >= depth_left:
        return hit[0], None
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
    result = tuple(out)
    if complete:
        cache[key] = (result, need)
        return result, need
    partial[key] = (result, depth_left)
    return result, None


@dataclass(frozen=True, slots=True)
class LengthSet:
    lengths: Tuple[int, ...]         # sorted
    delta: Tuple[int, ...]           # gaps between consecutive lengths
    elasticity: Fraction
    certified: bool


def length_profile(handle: SemigroupHandle, a) -> LengthSet:
    """L(a) with its distance set and elasticity rho = max/min.

    The lengths of a certified element whose complete rigid set is held
    are read off it: the walk of the class multisets would find the same.
    Otherwise the class multisets are walked.
    """
    if handle.is_unit(a):
        return LengthSet((0,), (), Fraction(0), True)
    hit = handle.memo.rigid.get(handle.key(a))
    if hit is not None and hit[1] <= _depth(handle, a) \
            and handle.certified(a):
        found = {len(t) for t in hit[0]}
        complete = True
    else:
        sets, complete = permutable_class_multisets(handle, a)
        found = {len(m) for m in sets}
    lengths = tuple(sorted(found))
    delta = tuple(b - c for c, b in zip(lengths, lengths[1:]))
    if lengths:
        elasticity = Fraction(max(lengths), min(lengths))
    else:
        elasticity = Fraction(0)
    return LengthSet(lengths, delta, elasticity, complete)
