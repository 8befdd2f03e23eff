"""Divisibility relations, prime-like elements, omega invariants, tame degree.

Two divisibility relations are implemented.  Left-right divisibility,
b | a iff a lies in H*b*H, and divisibility up to permutation, b |_p a iff
a multiset of atom classes of some factorization of b injects into one of
some factorization of a.  For atoms the two agree; for general elements
they differ.  |_p is a subset test on the occurrence sets of
``factorizations._class_occurrences``, the one comparison of class
multisets, which also gives d_p.

An atom q is almost prime-like when q dividing a product forces q to
divide a factor; equivalently (for atomic semigroups), q occurs in one
rigid factorization of an element iff it occurs in all of them, which is
how the bounded check works.  The q-adic valuation set V_q(a) collects the
number of q-associates across factorizations of a; q is prime-like when
every valuation set is a singleton.  Where a transfer map gives an
element's one class multiset (``transfer_classes``, on T_n(Z) and
M_n(Z)), both are read off that multiset and no rigid ordering is walked.

omega_p(a, b) takes, over all rigid factorizations u_1...u_n of a, the
worst minimal k such that b divides (up to permutation) a subproduct
u_{s(1)}...u_{s(k)} taken along increasing positions s(1) < ... < s(k).
omega'_p(a, b) ranges over all decompositions of a into non-unit factors
instead.  The factorizations of a are read off its one fact as atom-key
tuples with their classes (``factorization_keys``), and atoms are built
only for the witness.  On a commutative reduced handle that fact holds
one ordering per class multiset, its sorted atom keys: reordering a
factorization changes neither its valuation, nor whether q occurs in
it, nor its least subproduct k, and the least ordering of a multiset is
the multiset itself, so values and witnesses are those over every
ordering.  ``omega_element`` is ``omega_semigroup`` over
the one element a: the sweep keeps its running maximiser's parts and
indices and builds one witness at the end.  A subproduct is known by its
parts' keys: one dict per ``omega_semigroup`` call, shared by its whole
sweep, keeps each subproduct's |_p answer, so its product is built and
asked about once.  Where b is a certified atom its one class
multiset is (class of b,), so when a's fact is complete and certified, b
|_p a holds iff b's class occurs in one of a's class tuples, and k = 1 at
the first position holding it; a factorization without it starts the
search at k = 2, and no product is built for either step.  A unit a is
divided by no non-unit b: its one class multiset is empty.  Every other
case asks ``_divides_p_cached``, which compares the class multisets of
``permutable_class_multisets``: on a presentation they are read off each
side's one rigid fact too, and on a matrix handle off its transfer map
(``transfer_classes``).

The permutable tame degree t_p(a, x) measures how far an arbitrary
permutable factorization of a is from one containing the pattern x;
containment and distance both compare the occurrence sets of a's class
multisets (``factorizations._class_nodes``), and no rigid factorization
is built.

Semigroup-level values are suprema, certified lower bounds over a bounded
enumeration; the CLI, which chose the scope, adds the note naming it.

The answers, reports and witnesses are named tuples: immutable, compared
by value, copied with a field changed by ``_replace``, and equal to a
plain tuple of the same fields.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .factorizations import (RigidFactorization, _class_nodes,
                             _class_occurrences, _rigid_factorization,
                             factorization_keys, permutable_class_multisets)
from .handles import SemigroupHandle, UnsupportedOperation
from .presentation import PresentationSemigroup

_MAX_PARTS = 8    # the most parts of a decomposition the omega'_p search lists


class DivisibilityKind(Enum):
    LEFT_RIGHT = "left-right"
    PERMUTATION = "permutation"


class NotAlmostPrimeLikeError(ValueError):
    pass


class DivisibilityAnswer(NamedTuple):
    holds: Optional[bool]     # None = unknown within budget
    certified: bool


def _divides_p_cached(handle: SemigroupHandle, b, a) -> DivisibilityAnswer:
    cache = handle.memo.divides_p
    key = (handle.key(b), handle.key(a))
    hit = cache.get(key)
    if hit is not None:
        return hit
    if handle.is_unit(b):
        ans = DivisibilityAnswer(True, True)
        cache[key] = ans
        return ans
    b_sets, b_complete = permutable_class_multisets(handle, b)
    a_sets, a_complete = permutable_class_multisets(handle, a)
    a_occs = [_class_occurrences(m) for m in a_sets]
    if any(ob <= oa for ob in map(_class_occurrences, b_sets)
           for oa in a_occs):
        ans = DivisibilityAnswer(True, True)
    else:
        certified = b_complete and a_complete
        ans = DivisibilityAnswer(False if certified else None, certified)
    cache[key] = ans
    return ans


def divides(handle: SemigroupHandle, kind: DivisibilityKind, b, a
            ) -> DivisibilityAnswer:
    """Does b divide a in the given sense?  Unknown on truncation."""
    if kind is DivisibilityKind.PERMUTATION:
        return _divides_p_cached(handle, b, a)
    return _divides_leftright(handle, b, a)


def divides_p(handle: SemigroupHandle, b, a) -> DivisibilityAnswer:
    return _divides_p_cached(handle, b, a)


def _divides_leftright(handle: SemigroupHandle, b, a) -> DivisibilityAnswer:
    if handle.is_unit(b):
        return DivisibilityAnswer(True, True)
    holds = handle.leftright_divides(b, a)
    return DivisibilityAnswer(holds, holds is not None)


def occurs_in(handle: SemigroupHandle, q, z: RigidFactorization) -> bool:
    """Does the atom q occur (up to associates) in the factorization z?"""
    cls = handle.atom_class(q)
    return any(handle.atom_class(u) == cls for u in z.atoms)


class AlmostPrimeLikeReport(NamedTuple):
    atom: object
    holds: bool
    certified: bool            # True: exhaustive over the given scope
    counterexample: Optional[Tuple[object, RigidFactorization,
                                   RigidFactorization]] = None


def is_almost_prime_like(handle: SemigroupHandle, q,
                         scope_elements: Sequence,
                         scope_certified: bool = True) -> AlmostPrimeLikeReport:
    """Bounded almost-prime-like check: over every scoped element, q occurs
    in one rigid factorization iff it occurs in all of them.  An element
    whose handle gives its one class multiset (``transfer_classes``) is no
    counterexample: q's class is in every factorization or in none.  Every
    other element's atom classes are read off its fact
    (``factorization_keys``); only a counterexample's two factorizations
    are built."""
    if not handle.is_atom(q):
        raise NotAlmostPrimeLikeError("q must be a certified atom")
    certified = scope_certified
    cls = handle.atom_class(q)
    for a in scope_elements:
        if handle.transfer_classes(a) is not None:
            continue
        tuples, classes, complete = factorization_keys(handle, a)
        certified = certified and complete
        with_q = without_q = None
        for t, c in zip(tuples, classes):
            if cls in c:
                if with_q is None:
                    with_q = t
            elif without_q is None:
                without_q = t
            if with_q is not None and without_q is not None:
                return AlmostPrimeLikeReport(q, False, True, (
                    a, _rigid_factorization(handle, a, with_q),
                    _rigid_factorization(handle, a, without_q)))
    return AlmostPrimeLikeReport(q, True, certified, None)


class ValuationSet(NamedTuple):
    atom: object
    element: object
    values: Tuple[int, ...]
    certified: bool


def valuation_set(handle: SemigroupHandle, q, a) -> ValuationSet:
    """V_q(a): counts of q-associates across the rigid factorizations of a;
    where the handle gives a's one class multiset (``transfer_classes``),
    the one count of q's class in it.  Only an atom q has a valuation, so
    any other q is refused, the unit a included."""
    if not handle.is_atom(q):
        raise ValueError(f"{handle.format_element(q)} is not an atom")
    if handle.is_unit(a):
        return ValuationSet(q, a, (0,), True)
    m = handle.transfer_classes(a)
    if m is not None:
        return ValuationSet(q, a, (m.count(handle.atom_class(q)),), True)
    _, classes, complete = factorization_keys(handle, a)
    cls = handle.atom_class(q)
    values = sorted({c.count(cls) for c in classes})
    return ValuationSet(q, a, tuple(values), complete)


class PrimeLikeReport(NamedTuple):
    atom: object
    holds: bool
    certified: bool
    counterexample: Optional[object] = None


def is_prime_like(handle: SemigroupHandle, q, scope_elements: Sequence,
                  scope_certified: bool = True) -> PrimeLikeReport:
    """Prime-like within budget: almost prime-like and every valuation set
    over the scope is a singleton."""
    apl = is_almost_prime_like(handle, q, scope_elements, scope_certified)
    if not apl.holds:
        raise NotAlmostPrimeLikeError(
            f"{handle.format_element(q)} is not almost prime-like")
    certified = apl.certified
    for a in scope_elements:
        vs = valuation_set(handle, q, a)
        certified = certified and vs.certified
        if len(vs.values) > 1:
            return PrimeLikeReport(q, False, True, a)
    return PrimeLikeReport(q, True, certified, None)


# omega invariants ---------------------------------------------------------


class OmegaWitness(NamedTuple):
    element: object
    parts: Tuple                   # the factorization/decomposition reaching the max
    min_k: int
    subproduct: Tuple[int, ...]    # increasing indices realizing min_k


class OmegaReport(NamedTuple):
    divisor: object
    mode: str                      # "atoms" or "nonunits"
    value: int
    certified: bool
    witness: Optional[OmegaWitness] = None


def min_subproduct_k(handle: SemigroupHandle, parts: Sequence, b
                      ) -> Tuple[int, Tuple[int, ...], bool]:
    """Smallest k with b |_p a subproduct of the parts taken along
    increasing indices; returns (k, indices, certified)."""
    keys = tuple(map(handle.key, parts))
    return _least_subproduct(handle, b, keys,
                             dict(zip(keys, parts)).__getitem__, {})


def _least_subproduct(handle: SemigroupHandle, b, keys: Tuple,
                      part: Callable, answers: Dict, start: int = 1
                      ) -> Tuple[int, Tuple[int, ...], bool]:
    """``min_subproduct_k`` of the parts with keys ``keys`` (``part`` maps
    a key to its part), trying k from ``start`` on: the caller has ruled
    out every smaller k, certified.  A subproduct's answer is looked up
    in ``answers`` by its parts' keys, and only on a miss is the product
    built and b |_p it asked."""
    n = len(keys)
    certified = True
    for k in range(start, n + 1):
        for idxs, sub in zip(itertools.combinations(range(n), k),
                             itertools.combinations(keys, k)):
            ans = answers.get(sub)
            if ans is None:
                ans = answers[sub] = _divides_p_cached(
                    handle, b, handle.product([part(x) for x in sub]))
            if ans.holds:
                return k, idxs, certified
            if ans.holds is None:
                certified = False
    # the full increasing product is the element itself, so this is only
    # reached when the precondition b |_p a failed to certify
    return n, tuple(range(n)), False


def _certified_atom_class(handle: SemigroupHandle, b):
    """The class of b where b is a certified atom, else None.  Its one
    class multiset is then (class,), so b |_p x iff that class occurs in
    a class multiset of x."""
    if handle.is_atom(b) and handle.certified(b):
        return handle.atom_class(b)
    return None


def omega_element(handle: SemigroupHandle, a, b,
                  mode: str = "atoms") -> OmegaReport:
    """omega_p(a, b) (mode "atoms") or omega'_p(a, b) (mode "nonunits"):
    ``omega_semigroup`` over the one element a.

    A unit b divides the empty subproduct, so omega is then 0.  A unit a
    has only the empty class multiset, so no non-unit b |_p-divides it,
    and omega is exactly 0 there too."""
    return omega_semigroup(handle, b, (a,), mode)


def _omega(handle: SemigroupHandle, a, b, mode: str, b_class,
           answers: Dict) -> Tuple[int, bool, Optional[Tuple]]:
    """omega of the one element a against b, for a checked mode, with b's
    class where b is a certified atom (``_certified_atom_class``) and the
    dict of subproduct answers of the caller's divisor b
    (``_least_subproduct``).  Returns (value, certified, best): best is
    (parts, indices) of the first factorization or decomposition reaching
    the value, its parts atom keys in mode "atoms" and elements in mode
    "nonunits", and None where the value is 0; ``omega_semigroup`` makes
    the sweep's best the witness.

    In mode "atoms", for such a b and an a whose fact is complete and
    certified, b |_p a and the k = 1 step are read off a's class tuples:
    k is 1 at the first position holding b's class, and every other
    single atom is certified not to be divided by b."""
    if handle.is_unit(b):
        return 0, True, None
    classes = None      # a's class tuples, where the shortcut applies
    if mode == "atoms" and b_class is not None:
        tuples, classes, complete = factorization_keys(handle, a)
        if not complete:
            classes = None
        elif not any(b_class in c for c in classes):
            return 0, True, None
    if classes is None:
        if handle.is_unit(a):
            # a unit's one class multiset is empty, and b is no unit
            return 0, True, None
        div = _divides_p_cached(handle, b, a)
        if div.holds is not True:
            return 0, div.certified, None
    value, best = 0, None
    if mode == "nonunits":
        decomps, certified = _nonunit_decompositions(handle, a)
        for parts in decomps:
            keys = tuple(map(handle.key, parts))
            k, idxs, cert = _least_subproduct(
                handle, b, keys, dict(zip(keys, parts)).__getitem__, answers)
            certified = certified and cert
            if k > value:
                value, best = k, (parts, idxs)
        return value, certified, best
    if b_class is None:     # a's fact is not read yet
        tuples, _, complete = factorization_keys(handle, a)
    of_key = handle.atom_of_key
    certified = complete
    for i, keys in enumerate(tuples):
        if classes is not None and b_class in classes[i]:
            k, idxs, cert = 1, (classes[i].index(b_class),), True
        else:
            k, idxs, cert = _least_subproduct(
                handle, b, keys, of_key, answers, 1 if classes is None else 2)
        certified = certified and cert
        if k > value:
            value, best = k, (keys, idxs)
    return value, certified, best


def _nonunit_decompositions(handle, a) -> Tuple[List[Tuple], bool]:
    """All decompositions of a into at most _MAX_PARTS non-unit elements.

    For presentation engines: compositions of every ball member into
    nonempty contiguous parts, which is exhaustive for closed balls whose
    members have at most _MAX_PARTS letters.
    """
    if not isinstance(handle, PresentationSemigroup):
        raise UnsupportedOperation(
            "omega'_p decomposition search is implemented for finitely "
            "presented semigroups only")
    ball = handle.congruence_ball(a.word)
    out = []
    seen = set()
    for m in sorted(ball.members, key=handle.shortlex_key):
        L = len(m)
        for parts_count in range(1, min(L, _MAX_PARTS) + 1):
            for cut in itertools.combinations(range(1, L), parts_count - 1):
                bounds = (0,) + cut + (L,)
                parts = tuple(handle.element(m[i:j])
                              for i, j in zip(bounds, bounds[1:]))
                key = tuple(p.word for p in parts)
                if key not in seen:
                    seen.add(key)
                    out.append(parts)
    return out, ball.closed and max(map(len, ball.members)) <= _MAX_PARTS


def omega_semigroup(handle: SemigroupHandle, b, scope_elements: Sequence,
                    mode: str = "atoms") -> OmegaReport:
    """Semigroup-level omega: max over the explored elements (lower bound).
    The elements share one dict of subproduct answers.  The witness is
    built from the first element reaching the value, its atom keys made
    atoms in mode "atoms"; a value of 0 has none."""
    if mode not in ("atoms", "nonunits"):
        raise ValueError("mode must be 'atoms' or 'nonunits'")
    b_class, answers = _certified_atom_class(handle, b), {}
    value, certified, worst, best = 0, True, None, None
    for a in scope_elements:
        v, cert, a_best = _omega(handle, a, b, mode, b_class, answers)
        certified = certified and cert
        if v > value:
            value, worst, best = v, a, a_best
    if best is None:
        return OmegaReport(b, mode, value, certified)
    parts, idxs = best
    if mode == "atoms":
        parts = tuple(map(handle.atom_of_key, parts))
    return OmegaReport(b, mode, value, certified,
                       OmegaWitness(worst, parts, value, idxs))


# tame degree --------------------------------------------------------------


class TameReport(NamedTuple):
    pattern: Tuple
    value: int
    certified: bool
    witness: Optional[Tuple[object, Tuple, Tuple]] = None


def tame_element(handle: SemigroupHandle, a,
                 pattern: Sequence) -> TameReport:
    """t_p(a, x) for a pattern x given as a sequence of atoms: 0 when no
    permutable factorization of a contains x, else the worst distance from
    an arbitrary one to a qualifying one.  ``tame_semigroup`` over the one
    element a."""
    return tame_semigroup(handle, pattern, (a,))


def tame_semigroup(handle: SemigroupHandle, pattern: Sequence,
                   scope_elements: Sequence,
                   scope_certified: bool = True) -> TameReport:
    """t_p(H, x) over the explored elements (certified lower bound).  The
    pattern is checked once, before the sweep: each entry must be an
    atom.  The witness is the first element reaching the value, with its
    first permutable factorization that does."""
    for u in pattern:
        if not handle.is_atom(u):
            raise ValueError(
                f"pattern entry {handle.format_element(u)} is not an atom")
    pat = _class_occurrences(sorted(map(handle.atom_class, pattern)))
    value, witness, certified = 0, None, scope_certified
    for a in scope_elements:
        nodes, complete, _ = _class_nodes(handle, a)
        certified = certified and complete
        occs = [_class_occurrences(z.classes) for z in nodes]
        qualifying = [(zp, op) for zp, op in zip(nodes, occs) if pat <= op]
        if not qualifying:
            continue
        for z, oz in zip(nodes, occs):
            # d_p(z, z') = max(|z|, |z'|) - |gcd(z, z')|, and the first
            # nearest qualifying node wins
            best, arg = None, None
            for zp, op in qualifying:
                d = max(z.length, zp.length) - len(oz & op)
                if best is None or d < best:
                    best, arg = d, zp
            if best > value:
                value, witness = best, (a, z.classes, arg.classes)
    return TameReport(tuple(pattern), value, certified, witness)
