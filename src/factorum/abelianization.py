"""Abelianization of a presentation and the weak-transfer criterion.

The abelianization of <X | R> is the commutative semigroup on exponent
vectors N^X modulo the vector rewrites induced by R; equality is decided
by the word engine's own ball engine (``presentation._BallEngine``),
which builds, certifies and keeps vector balls by the same rule as word
balls, with a vector's total as its size.  Under the reduced-presentation
restriction no nontrivial units arise inside certified balls (a unit scan
guards this), so the reduced abelianization coincides with the
abelianization.

Two elements are related by equiv_p when they admit rigid factorizations
with the same multiset of atom associate-classes, i.e. share a permutable
factorization; equiv_p and the checker read those multisets off
``permutable_class_multisets``, once per element, and build no
factorization.  The canonical map to the reduced
abelianization is a weak transfer homomorphism iff whenever
a equiv_p b, *every* atom multiset of a is matched by one of b; the
bounded checker scans all explored equiv_p-related pairs for exactly this
condition and returns the blocking pair and factorization otherwise.
Transitivity of equiv_p is checked, not assumed, and the (undecidable)
cancellativity of the abelianization is verified as a bounded necessary
condition and recorded as an assumption.

When every relation is length-preserving, word length is a transfer
homomorphism onto (N_0, +) by proof, and ``length_map`` returns it
certified: length is constant on each class, only the empty word has
length 0 (T1), and a word of length m + n splits into words of lengths
m and n (T2).  No ball is explored.

The equiv_p, weak-transfer and length-map answers are named tuples:
immutable, compared by value, copied with a field changed by
``_replace``, and equal to a plain tuple of the same fields.
``VectorElement`` is an immutable ``__slots__`` class that compares and
hashes by its coordinates alone.
"""

from __future__ import annotations

import itertools
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .factorizations import permutable_class_multisets
from .handles import DivisorPairs, FrozenSlots, _require_vector
from .presentation import (Element, ExplorationBudget, PresentationSemigroup,
                           _BallEngine)

Vector = Tuple[int, ...]


def _vec_of(word: Tuple[str, ...], index: Dict[str, int], n: int) -> Vector:
    v = [0] * n
    for sym in word:
        v[index[sym]] += 1
    return tuple(v)


class VectorBall(NamedTuple):
    members: FrozenSet[Vector]
    closed: bool
    canonical: Vector       # the least member by (total, vector)


class VectorElement(FrozenSlots):
    """An element of the abelianization, by its exponent vector.
    Immutable; equality and hash are those of ``coords`` alone."""
    __slots__ = ("coords", "certified")

    def __init__(self, coords: Vector, certified: bool = True):
        _set_coords(self, coords)
        _set_certified(self, certified)

    def __hash__(self):
        return hash(self.coords)

    def __eq__(self, other):
        return isinstance(other, VectorElement) and self.coords == other.coords


# the slot setters, which bypass the refusing __setattr__
_set_coords = VectorElement.coords.__set__
_set_certified = VectorElement.certified.__set__


class CommutativeVectorSemigroup(_BallEngine):
    """Free commutative monoid N^k modulo vector rewrites, on the ball
    engine of the word engine.  Elements are exponent vectors; the size of
    a vector is its total, and its ball (``ball``) is a ``VectorBall``."""

    commutative = True
    _size = sum

    def __init__(self, generators: Tuple[str, ...],
                 relations: Sequence[Tuple[Vector, Vector]],
                 budget: ExplorationBudget):
        self.generators = generators
        self.n = len(generators)
        self.relations: Tuple[Tuple[Vector, Vector], ...] = tuple(relations)
        super().__init__(self.relations, budget)
        self.name = "abelianization(" + " ".join(generators) + ")"

    def _key(self, v: Vector):
        return (sum(v), v)

    def _rewrites(self, v: Vector):
        for lhs, rhs in self._rules:
            if all(a >= b for a, b in zip(v, lhs)):
                yield tuple(a - b + c for a, b, c in zip(v, lhs, rhs))

    ball = _BallEngine._ball

    def _new_ball(self, v: Vector, members, closed, truncated):
        return VectorBall(frozenset(members), closed,
                          min(members, key=self._key))

    def element(self, v: Vector) -> VectorElement:
        ball = self.ball(v)
        return VectorElement(ball.canonical, ball.closed)

    def project_word(self, word: Tuple[str, ...]) -> VectorElement:
        index = {g: i for i, g in enumerate(self.generators)}
        return self.element(_vec_of(word, index, self.n))

    # SemigroupHandle interface

    def require_element(self, x: VectorElement) -> None:
        if not isinstance(x, VectorElement):
            raise ValueError(f"{x!r} is not a VectorElement of {self.name}")
        _require_vector(x.coords, self.n, 0)

    def identity(self) -> VectorElement:
        return VectorElement((0,) * self.n, True)

    def key(self, x: VectorElement):
        return x.coords

    def is_unit(self, x: VectorElement) -> bool:
        return sum(x.coords) == 0

    def multiply(self, x: VectorElement, y: VectorElement) -> VectorElement:
        return self.element(tuple(a + b for a, b in zip(x.coords, y.coords)))

    def is_atom(self, x: VectorElement) -> bool:
        if self.is_unit(x):
            return False
        ball = self.ball(x.coords)
        return ball.closed and all(sum(m) == 1 for m in ball.members)

    def left_divisor_atoms(self, x: VectorElement) -> DivisorPairs:
        """All atoms u with x in u + S, each with its quotient, in the order
        of their coordinates.

        Only the class of a generator can be an atom: the presentation is
        reduced, so no nonzero vector is congruent to 0, and a vector of
        total >= 2 is the sum of two non-units.  So each member m of x's
        ball is split only as e_i + (m - e_i), for each i in m's support,
        where e_i is the i-th unit vector; on a closed ball this is
        exhaustive.  No longer sub-vector s of m could make the list
        incomplete: if x's ball closes, so does s's, since a vector past
        s's cap, plus m - s, would be of x's class and past x's cap (x's
        coordinates have the least total of its class, or one within the
        word cap), and s's class is no larger than x's.
        """
        ball = self.ball(x.coords)
        complete = ball.closed
        pairs = {}
        # e_i in increasing order (the last generator's first); of two
        # splits into the same pair of classes, the later one is kept
        units = [(i, _unit_vector(self.n, i)) for i in reversed(range(self.n))]
        for m in sorted(ball.members, key=self._key):
            for i, e in units:
                if not m[i]:
                    continue
                el = self.element(e)
                if not self.is_atom(el):
                    if not el.certified:
                        complete = False
                    continue
                rest = self.element(m[:i] + (m[i] - 1,) + m[i + 1:])
                complete = complete and el.certified and rest.certified
                pairs[(el.coords, rest.coords)] = (el, rest)
        ordered = [pairs[k] for k in sorted(pairs)]
        return ordered, complete

    def length_cap(self, x: VectorElement) -> int:
        return max(self.budget.max_word_length, sum(x.coords))

    def format_element(self, x: VectorElement) -> str:
        if self.is_unit(x):
            return "1"
        return " ".join(f"{g}^{e}" if e > 1 else g
                        for g, e in zip(self.generators, x.coords) if e)

    def unit_scan(self, max_total: int = 6) -> bool:
        """Guard: no nonzero vector inside certified balls is congruent to 0
        (so the abelianization is reduced as assumed)."""
        zero = (0,) * self.n
        for v in _vectors_up_to(self.n, max_total):
            if sum(v) == 0:
                continue
            ball = self.ball(v)
            if ball.closed and zero in ball.members:
                return False
        return True

    def cancellativity_scan(self, max_total: int = 5) -> Optional[Tuple]:
        """Bounded necessary condition for cancellativity: no a+c == b+c
        with a != b inside certified balls.  Cancelling a sum of generators
        reduces to cancelling one generator at a time, so c ranges over the
        unit vectors only.  Returns a violation or None.

        The result is the first violation in the order of the loop over
        vectors a, then b > a, then generators c, with a and b over vectors
        of total at most ``max_total`` by (total, vector).  Each certified
        class's certified images under the generators are computed once,
        as a row of (generator index, image) pairs; a pair of certified
        classes violates cancellativity at the least generator index their
        rows share.  The pairs sharing an entry are found by a join: each
        entry lists the positions of the certified vectors whose row holds
        it, and a's partner is the first listed b > a of another class."""
        vecs = _vectors_up_to(self.n, max_total)
        gens = [_unit_vector(self.n, i) for i in range(self.n)]
        # ``multiply(x, element(c))``: the class of c may have another
        # canonical vector than c itself
        steps = [self.element(c).coords for c in gens]
        elements = [self.element(v) for v in vecs]
        rows: Dict[Vector, FrozenSet[Tuple[int, Vector]]] = {}
        holders: Dict[Tuple[int, Vector], List[int]] = {}
        for pos, el in enumerate(elements):
            if not el.certified:
                continue
            found = rows.get(el.coords)
            if found is None:
                images = [self.element(_add(el.coords, c)) for c in steps]
                found = rows[el.coords] = frozenset(
                    (i, img.coords) for i, img in enumerate(images)
                    if img.certified)
            for entry in found:
                holders.setdefault(entry, []).append(pos)

        for a, ea in zip(vecs, elements):
            if not ea.certified:
                continue
            first = len(vecs)
            for entry in rows[ea.coords]:
                for pos in holders[entry]:
                    if pos >= first:
                        break
                    if vecs[pos] > a and elements[pos].coords != ea.coords:
                        first = pos
                        break
            if first < len(vecs):
                shared = rows[ea.coords] & rows[elements[first].coords]
                return (a, vecs[first], gens[min(i for i, _ in shared)])
        return None


def _add(v: Vector, w: Vector) -> Vector:
    return tuple(x + y for x, y in zip(v, w))


def _unit_vector(n: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(n))


def _vectors_up_to(n: int, total: int) -> List[Vector]:
    out = []
    for v in itertools.product(range(total + 1), repeat=n):
        if sum(v) <= total:
            out.append(v)
    return sorted(out, key=lambda v: (sum(v), v))


def abelianize(engine: PresentationSemigroup,
               budget: Optional[ExplorationBudget] = None
               ) -> CommutativeVectorSemigroup:
    """The abelianization of the presentation as a commutative handle."""
    p = engine.presentation
    index = {g: i for i, g in enumerate(p.generators)}
    n = len(p.generators)
    relations = [(_vec_of(r.lhs, index, n), _vec_of(r.rhs, index, n))
                 for r in p.relations]
    return CommutativeVectorSemigroup(p.generators, relations,
                                      budget or engine.budget)


# equiv_p and the weak-transfer criterion -----------------------------------


class EquivPWitness(NamedTuple):
    pair: Tuple[Element, Element]
    multiset: Tuple              # the shared multiset of atom classes


class EquivPAnswer(NamedTuple):
    related: Optional[bool]      # None: not related within budget, uncertified
    witness: Optional[EquivPWitness]
    certified: bool


def equiv_p(handle: PresentationSemigroup, a: Element, b: Element
            ) -> EquivPAnswer:
    """a equiv_p b iff they admit factorizations matching up to permutation
    of associates."""
    ma, a_complete = permutable_class_multisets(handle, a)
    mb, b_complete = permutable_class_multisets(handle, b)
    shared = ma & mb
    certified = a_complete and b_complete
    if shared:
        return EquivPAnswer(True, EquivPWitness((a, b), min(shared)), True)
    return EquivPAnswer(False if certified else None, None, certified)


class ExwtReport(NamedTuple):
    passed: Optional[bool]          # None: inconclusive within budget
    certified: bool
    counterexamples: Tuple[Tuple[Element, Element, Tuple], ...]
    equiv_p_transitive: bool
    abelianization_cancellative_within_budget: bool
    notes: Tuple[str, ...]


def weak_transfer_counterexample(handle: PresentationSemigroup,
                                 a: Element, b: Element) -> Optional[Tuple]:
    """If a equiv_p b but some atom multiset of a has no match among b's,
    return (a, b, unmatched multiset); None otherwise."""
    ma, _ = permutable_class_multisets(handle, a)
    mb, _ = permutable_class_multisets(handle, b)
    if not ma & mb:     # not equiv_p-related
        return None
    missing = _unmatched(ma, mb)
    return None if missing is None else (a, b, missing)


def _unmatched(ma: FrozenSet, mb: FrozenSet) -> Optional[Tuple]:
    """The counterexample multiset of two equiv_p-related elements with
    the atom-class multiset sets ma and mb: the least of ma's with no
    match among mb's, else the least of mb's with none among ma's; None
    where the sets agree."""
    return min(ma - mb or mb - ma, default=None)


def check_exwt(handle: PresentationSemigroup, max_length: Optional[int] = None
               ) -> ExwtReport:
    """Is the canonical map to the reduced abelianization a weak transfer
    homomorphism?  Verified over all explored equiv_p-related pairs."""
    elements, scope_complete = handle.enumerate_elements(max_length)
    msets = {}      # element -> its set of atom-class multisets
    facts_complete = True
    by_multiset: Dict[Tuple, List[Element]] = {}
    for el in elements:
        msets[el], complete = permutable_class_multisets(handle, el)
        facts_complete = facts_complete and complete
        for m in msets[el]:
            by_multiset.setdefault(m, []).append(el)

    counterexamples = []
    seen_pairs = set()
    for m in sorted(by_multiset):
        group = by_multiset[m]
        for x, y in itertools.combinations(group, 2):
            kp = (x.word, y.word)
            if kp in seen_pairs:
                continue
            seen_pairs.add(kp)
            missing = _unmatched(msets[x], msets[y])
            if missing is not None:
                counterexamples.append((x, y, missing))

    transitive = _equiv_p_transitive(msets)
    ab = abelianize(handle)
    cancel = ab.cancellativity_scan(min(5, handle.budget.max_word_length)) is None
    reduced_ok = ab.unit_scan(min(6, handle.budget.max_word_length))

    notes = ["cancellativity of the abelianization is assumed; a bounded "
             "necessary condition was checked"]
    if not reduced_ok:
        notes.append("unit scan failed: abelianization not reduced in budget")
    certified = scope_complete and facts_complete
    counterexamples.sort(key=lambda t: (handle.shortlex_key(t[0].word),
                                        handle.shortlex_key(t[1].word)))
    if counterexamples:
        return ExwtReport(False, True, tuple(counterexamples), transitive,
                          cancel, tuple(notes))
    return ExwtReport(True if certified else None, certified, (), transitive,
                      cancel, tuple(notes))


def _equiv_p_transitive(msets: Dict) -> bool:
    """equiv_p is reflexive and symmetric by construction; transitivity is
    checked: shared-multiset overlap must be transitive on the scope."""
    items = list(msets.items())
    for b, mb in items:
        related = [(x, mx) for x, mx in items if x != b and mx & mb]
        for (x, mx), (y, my) in itertools.combinations(related, 2):
            if not (mx & my):
                return False
    return True


# the length map -------------------------------------------------------------


class LengthMapReport(NamedTuple):
    exists: bool
    transfer_certified: bool
    notes: Tuple[str, ...]


def length_map(handle: PresentationSemigroup) -> Optional[LengthMapReport]:
    """The word-length homomorphism onto (N_0, +), when every relation is
    length-preserving; None otherwise.  Its transfer properties hold by
    proof (see the module docstring), so it is certified at any budget."""
    for rel in handle.presentation.relations:
        if len(rel.lhs) != len(rel.rhs):
            return None
    notes = ("length is constant on congruence classes because every "
             "relation is length-preserving",
             "(T1) only the empty word has length 0, and (T2) a word of "
             "length m + n splits into words of lengths m and n")
    return LengthMapReport(True, True, notes)
