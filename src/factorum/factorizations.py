"""Rigid and permutable factorizations over any SemigroupHandle.

A rigid factorization of a is an ordered sequence of atoms composing to a;
the engine is reduced (or the handle supplies associate classes), so a
sequence of concrete atom representatives identifies it.  Permutable
factorizations are rigid ones up to permutation and associativity of the
atoms, i.e. multisets of associate classes.  Length sets, distance sets
and elasticities are derived from these.

Enumeration recurses on the handle's left-divisor atoms; completeness is
certified exactly when every sub-search was certified and no recursion
budget was hit (non-atomic inputs such as <a,b | aba=b> never certify).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

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

    def __len__(self):
        return len(self.factorizations)

    def __iter__(self):
        return iter(self.factorizations)


def class_multiset(handle: SemigroupHandle, z: RigidFactorization) -> Tuple:
    """Sorted multiset of associate classes of the atoms of z."""
    return tuple(sorted(handle.atom_class(u) for u in z.atoms))


_DEPTH_FALLBACK = 64


def _rigid_memo(handle: SemigroupHandle) -> Dict:
    """Per-handle memo: key -> (atom tuples, complete, depth searched, the
    FactorizationSet once one was returned complete, else None)."""
    cache = getattr(handle, "_rigid_cache", None)
    if cache is None:
        cache = handle._rigid_cache = {}
    return cache


def _atom_tuples(handle: SemigroupHandle, a) -> Tuple[Tuple[Tuple, ...], bool]:
    """All atom sequences composing to a, with a completeness flag."""
    cache = _rigid_memo(handle)
    in_progress = set()

    def rec(x, depth_left: int) -> Tuple[Tuple[Tuple, ...], bool]:
        if handle.is_unit(x):
            return ((),), True
        key = handle.key(x)
        hit = cache.get(key)
        if hit is not None:
            facts, complete, depth_at, _ = hit
            if complete or depth_at >= depth_left:
                return facts, complete
        if key in in_progress:
            return (), False   # product cycle: cannot certify below here
        if depth_left <= 0:
            return (), False
        in_progress.add(key)
        pairs, complete = handle.left_divisor_atoms(x)
        facts: List[Tuple] = []
        for atom, quotient in pairs:
            if handle.is_unit(quotient):
                # absorb the trailing unit into the atom (the rigid
                # factorization [u] with u = atom * quotient)
                facts.append((handle.multiply(atom, quotient),))
                continue
            sub, sub_complete = rec(quotient, depth_left - 1)
            complete = complete and sub_complete
            for f in sub:
                facts.append((atom,) + f)
        in_progress.discard(key)
        result = tuple(sorted(set(facts), key=lambda f: (
            len(f), tuple(handle.key(u) for u in f))))
        cache[key] = (result, complete, depth_left, None)
        return result, complete

    depth = handle.length_cap(a)
    if depth is None:
        depth = _DEPTH_FALLBACK
    return rec(a, depth)


def rigid_factorizations(handle: SemigroupHandle, a) -> FactorizationSet:
    """The set Z*(a) of rigid factorizations of a, within budget.

    Every returned sequence recomposes to a; the set is exhaustive iff
    ``complete`` is True.  A complete set is built once per element and
    served from the memo afterwards; an incomplete one is rebuilt on every
    call, since a later search may get further.
    """
    handle.require_element(a)
    if handle.is_unit(a):
        return FactorizationSet((RigidFactorization((), a),), True)
    cache = _rigid_memo(handle)
    key = handle.key(a)
    hit = cache.get(key)
    if hit is not None and hit[3] is not None and handle.certified(a):
        return hit[3]
    tuples, complete = _atom_tuples(handle, a)
    facts = tuple(RigidFactorization(t, a) for t in tuples)
    fs = FactorizationSet(facts, complete and handle.certified(a))
    if fs.complete:
        cache[key] = cache[key][:3] + (fs,)
    return fs


def permutable_factorizations(handle: SemigroupHandle, a
                              ) -> Tuple[Tuple[PermutableFactorization, ...], bool]:
    """Z_p(a): rigid factorizations up to permutation of associate classes,
    one per class multiset in multiset order, each represented by its least
    rigid factorization in the order (length, atom keys).

    On a commutative reduced handle without an exploration budget every
    ordering of a factorization is one, so that least factorization is its
    atoms sorted by key: the classes come from
    ``permutable_class_multisets`` and no rigid ordering is listed.
    Elsewhere the classes are read off Z*(a), which shares its memo (and,
    on a presentation, the engine's exploration order) with every later
    rigid query.
    """
    if handle.commutative and handle.reduced and not handle.budgeted:
        sets, complete = permutable_class_multisets(handle, a)
        atom, key = handle.class_atom, handle.key
        return tuple(PermutableFactorization(m, len(m), RigidFactorization(
            tuple(sorted(map(atom, m), key=key)), a))
            for m in sorted(sets)), complete
    fs = rigid_factorizations(handle, a)
    seen: Dict[Tuple, RigidFactorization] = {}
    for z in fs:
        key = class_multiset(handle, z)
        seen.setdefault(key, z)
    out = tuple(PermutableFactorization(k, len(k), seen[k])
                for k in sorted(seen))
    return out, fs.complete


def permutable_class_multisets(handle: SemigroupHandle, a
                               ) -> Tuple[FrozenSet[Tuple], bool]:
    """The set of atom-class multisets of a, computed without materializing
    rigid factorizations: one memoised set per element, built from the
    sets of its left quotients.  Besides length sets and divisibility, it
    is the node source of the catenary graph under d_len and d_p on
    commutative reduced handles without a budget (see
    ``permutable_factorizations``)."""
    handle.require_element(a)
    cache = getattr(handle, "_pclass_cache", None)
    if cache is None:
        cache = handle._pclass_cache = {}

    # the memo keeps each set as a tuple: even an empty frozenset takes
    # 216 bytes, and a sweep keeps one set per element it met
    def rec(x, depth_left: int) -> Tuple[Tuple[Tuple, ...], bool]:
        if handle.is_unit(x):
            return ((),), True
        key = handle.key(x)
        hit = cache.get(key)
        if hit is not None:
            sets, complete, depth_at = hit
            if complete or depth_at >= depth_left:
                return sets, complete
        if depth_left <= 0:
            return (), False
        pairs, complete = handle.left_divisor_atoms(x)
        out = set()
        for atom, quotient in pairs:
            cls = handle.atom_class(atom)
            sub, sub_complete = rec(quotient, depth_left - 1)
            complete = complete and sub_complete
            for m in sub:
                out.add(tuple(sorted(m + (cls,))))
        result = tuple(out)
        cache[key] = (result, complete, depth_left)
        return result, complete

    depth = handle.length_cap(a)
    if depth is None:
        depth = _DEPTH_FALLBACK
    sets, complete = rec(a, depth)
    return frozenset(sets), complete and handle.certified(a)


@dataclass(frozen=True)
class LengthSet:
    lengths: Tuple[int, ...]         # sorted
    delta: Tuple[int, ...]           # gaps between consecutive lengths
    elasticity: Fraction
    certified: bool


def length_profile(handle: SemigroupHandle, a) -> LengthSet:
    """L(a) with its distance set and elasticity rho = max/min."""
    if handle.is_unit(a):
        return LengthSet((0,), (), Fraction(0), True)
    sets, complete = permutable_class_multisets(handle, a)
    lengths = tuple(sorted({len(m) for m in sets}))
    delta = tuple(b - c for c, b in zip(lengths, lengths[1:]))
    if lengths:
        elasticity = Fraction(max(lengths), min(lengths))
    else:
        elasticity = Fraction(0)
    return LengthSet(lengths, delta, elasticity, complete)
