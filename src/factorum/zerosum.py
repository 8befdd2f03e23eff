"""Finite abelian groups, zero-sum sequences, and block monoids.

A sequence over a subset G_P of a finite abelian group G is a multiset of
group elements; the zero-sum ones form the monoid B(G_P) under multiset
union.  Its atoms are the minimal zero-sum sequences, and the Davenport
constant D(G_P) is their maximal length.  Minimal zero-sum sequences have
length at most |G|: among the partial sums of a longer sequence two agree,
and the consecutive block between them is a proper nonempty zero-sum
subsequence (this pigeonhole bound is exercised by a unit test).

``BlockMonoidHandle`` exposes B(G_P) through the shared semigroup
interface, so factorizations, distances and catenary degrees apply
unchanged.  ``maximal_order_bound`` evaluates max(2, c_p(B(C))) together
with the known small-group classification of that catenary degree.

The semigroup-level sweep behind ``block_catenary``, ``maximal_order_bound``
and the ``order-bound`` and ``zss ... catenary`` commands visits only the
zero-sum sequences over G \\ {0} that are lex-least in their orbit under
Aut(G) (``_orbit_minima``), and still reports what the sweep of every
zero-sum sequence would: 0 is a prime atom, so c(0^k S) = c(S), and c is
constant on orbits (``_block_catenary`` proves both, and how the witness
is rebuilt).  ``zero_sum_sequences`` still lists every zero-sum sequence,
and the tests hold the sweep to ``semigroup_catenary`` over it.

``OrderBoundReport`` is a named tuple: immutable, compared by value,
copied with a field changed by ``_replace``, and equal to a plain tuple
of the same fields.  ``FiniteAbelianGroup`` is one too, whose constructor
rejects an order below 1; ``_make`` and so ``_replace`` go through it.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, prod
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .catenary import CatenaryReport, catenary, semigroup_catenary
from .distances import DistanceKind
from .handles import DivisorPairs, SemigroupHandle

GroupElement = Tuple[int, ...]
ZeroSumSequence = Tuple[GroupElement, ...]   # sorted multiset of elements
_MAX_ORDER = 64     # the largest group order whose atoms are enumerated


class GroupTooLarge(ValueError):
    """Group order exceeds the enumeration cap."""


class _FiniteAbelianGroup(NamedTuple):
    orders: Tuple[int, ...]


class FiniteAbelianGroup(_FiniteAbelianGroup):
    """Direct sum of cyclic groups C_{n_1} + ... + C_{n_r}."""
    __slots__ = ()

    def __new__(cls, orders: Tuple[int, ...]):
        if any(n < 1 for n in orders):
            raise ValueError("cyclic orders must be >= 1")
        return tuple.__new__(cls, (orders,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def order(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out

    @property
    def exponent(self) -> int:
        out = 1
        for n in self.orders:
            g = gcd(out, n)
            out = out // g * n
        return out

    def zero(self) -> GroupElement:
        return (0,) * len(self.orders)

    def element(self, coords: Sequence[int]) -> GroupElement:
        if len(coords) != len(self.orders):
            raise ValueError("coordinate count mismatch")
        return tuple(c % n for c, n in zip(coords, self.orders))

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def neg(self, x: GroupElement) -> GroupElement:
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def elements(self) -> List[GroupElement]:
        return sorted(itertools.product(*(range(n) for n in self.orders)))

    def element_order(self, x: GroupElement) -> int:
        k, acc = 1, x
        while acc != self.zero():
            acc = self.add(acc, x)
            k += 1
        return k

    def describe(self) -> str:
        if not self.orders or self.order == 1:
            return "trivial"
        return " + ".join(f"C{n}" for n in self.orders if n > 1) or "trivial"


def invariant_factors(group: FiniteAbelianGroup) -> Tuple[int, ...]:
    """Invariant-factor normal form d_1 | d_2 | ... of the group."""
    from .arith import factor

    primary: Dict[int, List[int]] = {}
    for n in group.orders:
        for p, e in factor(n).items():
            primary.setdefault(p, []).append(e)
    rank = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(rank):
        d = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                d *= p ** exps_sorted[i]
        factors.append(d)
    return tuple(sorted(factors))


def sequence_sum(group: FiniteAbelianGroup, seq: Sequence[GroupElement]) -> GroupElement:
    out = group.zero()
    for g in seq:
        out = group.add(out, g)
    return out


def _check_order(group: FiniteAbelianGroup) -> None:
    """Raise GroupTooLarge past the cap, before anything lists the group."""
    if group.order > _MAX_ORDER:
        raise GroupTooLarge(f"group order {group.order} exceeds cap {_MAX_ORDER}")


def atoms_of_block_monoid(group: FiniteAbelianGroup,
                          subset: Optional[Sequence[GroupElement]] = None
                          ) -> List[ZeroSumSequence]:
    """All minimal zero-sum sequences over the subset (default: all of G).

    DFS over nondecreasing sequences (``_minimal_walk``), pruning as soon
    as a proper nonempty sub-multiset of the prefix sums to zero; depth is
    capped at |G|.
    """
    _check_order(group)
    support = sorted(set(subset)) if subset is not None else group.elements()
    for g in support:
        if group.element(g) != g:
            raise ValueError(f"{g} is not a reduced element of the group")
    zero = group.zero()
    atoms: List[ZeroSumSequence] = []
    if zero in support:
        atoms.append((zero,))
    nonzero = [g for g in support if g != zero]
    _minimal_walk(group, nonzero, zero, group.order, atoms, 0, [], zero,
                  frozenset())
    return sorted(atoms, key=lambda a: (len(a), a))


def _minimal_walk(group: FiniteAbelianGroup, nonzero: List[GroupElement],
                  zero: GroupElement, max_len: int,
                  atoms: List[ZeroSumSequence], start: int,
                  prefix: List[GroupElement], total: GroupElement,
                  proper_sums: FrozenSet[GroupElement]) -> None:
    """Append to ``atoms`` every minimal zero-sum extension of ``prefix``
    by terms ``nonzero[start:]`` in order; ``proper_sums`` holds the sums
    of the proper nonempty sub-multisets of the prefix.  A plain
    module-level recursion taking its state as arguments, so a call
    leaves no reference cycle."""
    if total == zero and prefix:
        atoms.append(tuple(prefix))
        return  # extending a zero-sum sequence can never stay minimal
    if len(prefix) >= max_len:
        return
    for i in range(start, len(nonzero)):
        g = nonzero[i]
        new_proper = set(proper_sums)
        new_proper.update(group.add(s, g) for s in proper_sums)
        if prefix:
            # the old prefix, and {g} alone, are proper in prefix + [g]
            new_proper.add(total)
            new_proper.add(g)
        if zero in new_proper:
            continue  # a proper nonempty sub-multiset already sums to 0
        _minimal_walk(group, nonzero, zero, max_len, atoms, i, prefix + [g],
                      group.add(total, g), frozenset(new_proper))


def davenport(group: FiniteAbelianGroup) -> int:
    """D(G): maximal length of a minimal zero-sum sequence."""
    return _davenport(atoms_of_block_monoid(group))


def _davenport(atoms: Sequence[ZeroSumSequence]) -> int:
    """D(G) read off the atoms of B(G), as a handle holds them."""
    return max(map(len, atoms), default=0)


def _counts(seq: Sequence[GroupElement]) -> Dict[GroupElement, int]:
    counts: Dict[GroupElement, int] = {}
    for g in seq:
        counts[g] = counts.get(g, 0) + 1
    return counts


def _difference(x: ZeroSumSequence, sub: ZeroSumSequence) -> ZeroSumSequence:
    """x with the sub-multiset sub removed; both sorted, so one merge pass."""
    rest, i, n = [], 0, len(sub)
    for g in x:
        if i < n and sub[i] == g:
            i += 1
        else:
            rest.append(g)
    return tuple(rest)


class BlockMonoidHandle(SemigroupHandle):
    """B(G_P) as a SemigroupHandle: elements are sorted multisets of group
    elements with zero sum, products are multiset unions."""

    reduced = True
    commutative = True

    def __init__(self, group: FiniteAbelianGroup,
                 subset: Optional[Sequence[GroupElement]] = None):
        _check_order(group)
        self.group = group
        self.subset = tuple(sorted(set(subset))) if subset is not None \
            else tuple(group.elements())
        self._support = frozenset(self.subset)
        self.atoms = atoms_of_block_monoid(group, self.subset)
        self._atom_set = set(self.atoms)
        # each atom with its term counts, counted once here
        self._atom_counts = [(atom, tuple(_counts(atom).items()))
                             for atom in self.atoms]
        # the same, grouped by first (least) term, each group in atom order
        self._atoms_by_first: Dict[GroupElement, List] = {}
        for entry in self._atom_counts:
            self._atoms_by_first.setdefault(entry[0][0], []).append(entry)
        self.name = f"B({group.describe()})"

    def sequence(self, terms: Sequence[GroupElement]) -> ZeroSumSequence:
        seq = tuple(sorted(self.group.element(tuple(g)) for g in terms))
        self.require_element(seq)
        return seq

    def require_element(self, x) -> None:
        """Raise ValueError unless x is a sorted zero-sum sequence over G_P."""
        if not self._support.issuperset(x):
            outside = next(g for g in x if g not in self._support)
            raise ValueError(f"sequence {x!r} has the term {outside!r} "
                             f"outside G_P")
        if tuple(sorted(x)) != x:
            raise ValueError(f"sequence {x!r} is not sorted")
        if any(sum(col) % n for col, n in zip(zip(*x), self.group.orders)):
            raise ValueError(f"sequence {x!r} does not have zero sum")

    def identity(self) -> ZeroSumSequence:
        return ()

    def is_unit(self, x) -> bool:
        return not x

    def multiply(self, x, y) -> ZeroSumSequence:
        return tuple(sorted(x + y))

    def is_atom(self, x) -> bool:
        return x in self._atom_set

    def left_divisor_atoms(self, x) -> DivisorPairs:
        return self._dividing(x, self._atom_counts)

    def covering_divisor_atoms(self, x) -> DivisorPairs:
        # some atom of every factorization of x holds its least term x[0],
        # and that term is then the atom's first
        if not x:
            return [], True
        return self._dividing(x, self._atoms_by_first.get(x[0], ()))

    def _dividing(self, x, candidates) -> DivisorPairs:
        """The candidate atoms (each with its term counts, shortest first)
        that divide x, with their quotients."""
        have = _counts(x)
        n = len(x)
        pairs = []
        for atom, need in candidates:
            if len(atom) > n:
                break
            for g, k in need:
                if have.get(g, 0) < k:
                    break
            else:
                pairs.append((atom, _difference(x, atom)))
        return pairs, True

    def leftright_divides(self, b, a) -> bool:
        # commutative: b | a iff b is a sub-multiset of a
        have = _counts(a)
        return all(have.get(g, 0) >= k for g, k in _counts(b).items())

    def length_cap(self, x) -> int:
        return len(x)

    def format_element(self, x) -> str:
        if not x:
            return "()"
        if len(self.group.orders) == 1:
            return "(" + " ".join(str(g[0]) for g in x) + ")"
        return "(" + " ".join("+".join(map(str, g)) for g in x) + ")"

    def enumerate_elements(self, max_size: int) -> Tuple[List[ZeroSumSequence], bool]:
        return list(zero_sum_sequences(self.group, self.subset, max_size)), True


def zero_sum_sequences(group: FiniteAbelianGroup,
                       subset: Optional[Sequence[GroupElement]],
                       max_length: int) -> Iterator[ZeroSumSequence]:
    """All nonempty zero-sum sequences of length <= max_length over the
    subset, or over the whole group when it is None."""
    support = sorted(set(subset)) if subset is not None else group.elements()
    zero = group.zero()
    yield from _zero_sum_walk(group, support, zero, max_length, 0, [], zero)


def _zero_sum_walk(group: FiniteAbelianGroup, support: List[GroupElement],
                   zero: GroupElement, max_length: int, start: int,
                   prefix: List[GroupElement], total: GroupElement
                   ) -> Iterator[ZeroSumSequence]:
    """The zero-sum extensions of ``prefix`` by terms ``support[start:]``,
    the prefix itself first, each at most ``max_length`` long.  A plain
    module-level generator taking its state as arguments, so a walk
    leaves no reference cycle."""
    if prefix and total == zero:
        yield tuple(prefix)
    if len(prefix) >= max_length:
        return
    for i in range(start, len(support)):
        g = support[i]
        yield from _zero_sum_walk(group, support, zero, max_length, i,
                                  prefix + [g], group.add(total, g))


def block_catenary(group: FiniteAbelianGroup,
                   max_sequence_length: int = 6) -> CatenaryReport:
    """max of c_p over all zero-sum sequences of length <= the bound.

    A lower bound for c_p(B(G)); the report notes the scope and, when the
    group falls under the known classification, whether the computed value
    agrees with it.
    """
    return _block_catenary(BlockMonoidHandle(group), max_sequence_length)


def _addition_table(group: FiniteAbelianGroup, elements: List[GroupElement]
                    ) -> List[List[int]]:
    """x + y on the ranks in ``elements`` (``group.elements()``, so the
    zero has rank 0)."""
    rank = {g: i for i, g in enumerate(elements)}
    return [[rank[group.add(x, y)] for y in elements] for x in elements]


def _automorphism_ranks(group: FiniteAbelianGroup, plus: List[List[int]]
                        ) -> List[Tuple[int, ...]]:
    """Aut(G) on ranks, each automorphism the tuple of the images' ranks.

    A homomorphism of C_{n_1} + ... + C_{n_r} is fixed by the images x_i
    of the unit vectors, any with n_i x_i = 0.  They are chosen one
    generator at a time, and a choice is kept only while the map stays
    injective on the subgroup of the generators chosen so far; that
    subgroup's images are listed in ``group.elements()`` order."""
    out: List[Tuple[int, ...]] = []
    _automorphism_walk(group.orders, plus, [0], 0, out)
    return out


def _automorphism_walk(orders: Tuple[int, ...], plus: List[List[int]],
                       images: List[int], k: int, out: List) -> None:
    """Append to ``out`` every automorphism that extends ``images``, an
    injective map on the subgroup of the first k generators."""
    if k == len(orders):
        out.append(tuple(images))
        return
    for x in range(len(plus)):
        multiples = [0]
        for _ in range(orders[k] - 1):
            multiples.append(plus[multiples[-1]][x])
        if plus[multiples[-1]][x]:
            continue    # n_k x != 0: no homomorphism
        extended = [plus[y][m] for y in images for m in multiples]
        if len(set(extended)) == len(extended):
            _automorphism_walk(orders, plus, extended, k + 1, out)


# The most homomorphisms G -> G (the product over i of |{x : n_i x = 0}|)
# for which the sweep lists Aut(G) and prunes by it; past it every
# sequence over G \ {0} is swept.  C2^4 has 65,536, and at its default
# length 10 the prune cuts its sweep from 19.6 s to 0.6 s (CHANGES.md).
_MAX_ENDOMORPHISMS = 65_536


def _orbit_perms(group: FiniteAbelianGroup, plus: List[List[int]],
                 terms: List[int], max_length: int
                 ) -> Optional[Set[Tuple[int, ...]]]:
    """The permutations of the indices of the ranks ``terms`` that the
    automorphisms of G mapping ``terms`` onto themselves induce.  On all
    of G \\ {0} they are Aut(G), as an automorphism is fixed by its values
    there.

    None, with no automorphism listed, where pruning cannot pay.  Listing
    them takes time of the order of End(G), the number of endomorphisms
    of G, the product of gcd(n_i, n_j) over all pairs of cyclic orders
    (|Hom(C_n, C_m)| = gcd(n, m)).  So End(G) may pass neither
    ``_MAX_ENDOMORPHISMS`` nor the number of nondecreasing sequences of
    length <= ``max_length`` over ``terms``, the most nodes the prune can
    save.  That second bound turns the prune on past length 6 on C2^4, 4
    on C2^3 and 2 on C3+C3; timed both ways, neither sweep was faster on
    the other side of it (see CHANGES.md)."""
    ends = prod(gcd(n, m) for n in group.orders for m in group.orders)
    if ends > min(_MAX_ENDOMORPHISMS,
                  comb(len(terms) + max_length, max_length)):
        return None
    index = {t: i for i, t in enumerate(terms)}
    perms = {tuple(index.get(sigma[t], -1) for t in terms)
             for sigma in _automorphism_ranks(group, plus)}
    return {perm for perm in perms if -1 not in perm}


def _block_catenary(handle: BlockMonoidHandle,
                    max_sequence_length: int) -> CatenaryReport:
    """``block_catenary`` on a handle of B(G) already built, so that a
    caller that reads its atoms too enumerates them once.

    The sweep visits one zero-sum sequence over G \\ {0} per orbit of
    Aut(G), and reports exactly what the sweep of every sequence over the
    support (``semigroup_catenary`` over ``zero_sum_sequences``) reports:
    value, certification, witness element and witness steps.  Write c for
    c_p, and order sequences, sorted tuples over ``group.elements()``,
    lexicographically, as ``zero_sum_sequences`` yields them.  Four facts
    carry the sweep.

    1. c(0^k S) = c(S).  The sequence 0 is a prime atom: every
       factorization of 0^k S is k copies of it times one of S, so the
       class multisets of 0^k S are those of S, each with k more zeros,
       and d_p, a larger length minus a common part, changes on no pair.
    2. c(sigma S) = c(S) for every automorphism sigma of G that maps the
       support onto itself.  Applied termwise, sigma is an automorphism
       of B(G_P): it maps atoms to atoms and factorizations to
       factorizations, and preserves d_p.
    3. The prefix prune.  Let P be the |P| least terms of a sequence S,
       and sorted(sigma P) < P.  The terms of sigma P lie in sigma S, so
       the i-th least term of sigma S is at most the i-th of
       sorted(sigma P): the |P| least terms of sigma S are at most
       sorted(sigma P) < P termwise, and sorted(sigma S) < S.  So a
       depth-first walk over the nondecreasing sequences of G \\ {0}
       that drops every such prefix keeps each lex-least member of an
       orbit, and no other zero-sum sequence, as a sequence is its own
       prefix.  The walk compares weights, not sorted images: with the
       n nonzero terms indexed in order, index j weighs (L+1)^(n-1-j),
       so the weight of a sequence of length <= L is the numeral whose
       digits are its counts of each term, least term first.  Two sorted
       sequences of one length first differ where the lesser holds a
       term j that the other lacks there; both hold the same counts of
       the terms below j, and the lesser more of j.  So sorted(sigma P)
       < P exactly when sigma P outweighs P, and a child's weights are
       its parent's plus one term's.  One integer holds the weights of
       all the images, a lane each (``_orbit_minima``), so a node costs
       two integer operations, not |Aut(G)| sorts.
    4. The lex-least-maximiser rebuild.  The full sweep keeps its first
       strict maximum: the lex-least sequence of the largest value.
       Without 0 in the support, that is the first orbit minimum of
       that value.  With 0, each sequence is 0^k T, T over G \\ {0}, of
       the value of T (fact 1).  The zero is the least element, so for
       one T the least is 0^(L-m) T, m = |T|, and a shorter T comes
       first: the answer is 0^(L-m) T for the least m of a maximiser T,
       and the lex-least maximiser T of that length, an orbit minimum
       (fact 2).  So the orbit minima are swept by length, each length
       in walk order, and the witness is rebuilt from the graph of that
       one element, as the full sweep builds it.

    Listing Aut(G) takes longer than a short sweep of a group with many
    automorphisms, so ``_orbit_perms`` decides before listing it whether
    the prune can pay; where it cannot, every sequence over G \\ {0} is
    swept, and the note says so.
    """
    group, max_len = handle.group, max_sequence_length
    reps, automorphism_count = _orbit_minima(group, handle.subset, max_len)
    with_zero = group.zero() in handle._support
    if with_zero:
        reps.sort(key=len)     # stable: each length stays in walk order
    rep = semigroup_catenary(handle, reps, DistanceKind.PERMUTABLE)
    if with_zero and rep.element is not None:
        element = (group.zero(),) * (max_len - len(rep.element)) + rep.element
        rep = rep._replace(element=element, witness=catenary(
            handle, element, DistanceKind.PERMUTABLE).witness)
    notes = [f"searched all zero-sum sequences of length <= {max_sequence_length}"]
    known = _classified_catenary(group)
    if known is not None:
        agreement = "agrees with" if rep.value == known else "below"
        notes.append(f"classification value {known} for {group.describe()}: "
                     f"computed bound {agreement} it")
    if automorphism_count is None:
        notes.append("swept every sequence over G \\ {0}: c(0^k S) = c(S)")
    else:
        notes.append(f"swept G \\ {{0}} by Aut(G)-orbit (|Aut| = "
                     f"{automorphism_count}): c(0^k S) = c(S), and c is "
                     f"constant on orbits")
    return rep._replace(variant="semigroup", notes=tuple(notes))


def _orbit_minima(group: FiniteAbelianGroup, support: Sequence[GroupElement],
                  max_length: int
                  ) -> Tuple[List[ZeroSumSequence], Optional[int]]:
    """The zero-sum sequences over the support without 0, each at most
    ``max_length`` long, that are lex-least in their orbit under the
    automorphisms of G that map the support onto itself, in
    lexicographic order, and the number of permutations of the support
    those induce (|Aut(G)| on all of G).  Where ``_orbit_perms`` lists
    none, every such sequence is kept, and the number is None.

    The weights of ``_block_catenary`` (fact 3) stay below
    (L+1)^n <= ``top``, and the walk packs them into one integer, a lane
    of ``size`` bytes for each permutation sigma, that holds
    top - 1 - w(P) + w(sigma P) for the prefix P: at most top - 1 when
    no image outweighs P.  Appending index i adds w(sigma i) - w(i) to
    each lane (``steps[i]``), after which a lane lies in [0, 2 top), so
    no lane carries into the next, and its top bit is set exactly where
    sigma outweighs the child."""
    elements = group.elements()
    plus = _addition_table(group, elements)
    rank = {g: i for i, g in enumerate(elements)}
    terms = [rank[g] for g in sorted(set(support)) if g != elements[0]]
    perms = _orbit_perms(group, plus, terms, max_length)
    count = None if perms is None else len(perms)
    if perms is None:   # the identity alone, whose lane never prunes
        perms = [tuple(range(len(terms)))]
    # one lane of ``size`` bytes per permutation, its top bit spare
    weights = [(max_length + 1) ** k for k in range(len(terms))][::-1]
    size = ((max_length + 1) ** len(terms)).bit_length() // 8 + 1
    lane = [w.to_bytes(size, "little") for w in weights]
    ones = int.from_bytes((1).to_bytes(size, "little") * len(perms), "little")
    steps = [int.from_bytes(b"".join(map(lane.__getitem__, images)),
                            "little") - ones * w
             for images, w in zip(zip(*perms), weights)]
    top = 1 << (8 * size - 1)
    return [tuple(elements[terms[i]] for i in seq) for seq in _orbit_walk(
        plus, terms, steps, ones * top, max_length, 0, [], 0,
        ones * (top - 1))], count


def _orbit_walk(plus: List[List[int]], terms: List[int], steps: List[int],
                tops: int, max_length: int, start: int, prefix: List[int],
                total: int, lanes: int) -> Iterator[List[int]]:
    """The zero-sum extensions of ``prefix``, indices into the ranks
    ``terms``, by indices from ``start`` on, the prefix itself first, each
    at most ``max_length`` long, with every extension dropped that an
    automorphism maps to a lexicographically smaller sorted one, and all
    of its own extensions with it.  ``lanes`` packs the prefix's weights
    and ``steps[i]`` what index i adds to them, and an extension is
    dropped where a lane's top bit (``tops``) is set; see
    ``_orbit_minima``.  A plain module-level generator like
    ``_zero_sum_walk``."""
    if prefix and not total:
        yield prefix
    if len(prefix) >= max_length:
        return
    for i in range(start, len(terms)):
        child = lanes + steps[i]
        if not child & tops:
            yield from _orbit_walk(plus, terms, steps, tops, max_length, i,
                                   prefix + [i], plus[total][terms[i]], child)


_CLASSIFICATION_3 = {(3,), (2, 2), (3, 3)}
_CLASSIFICATION_4 = {(4,), (2, 4), (2, 2, 2), (3, 3, 3)}


def _classified_catenary(group: FiniteAbelianGroup) -> Optional[int]:
    inv = tuple(f for f in invariant_factors(group) if f > 1)
    if inv in _CLASSIFICATION_3:
        return 3
    if inv in _CLASSIFICATION_4:
        return 4
    return None


class OrderBoundReport(NamedTuple):
    """max(2, c_p(B(C))) for a classical maximal order with class group C.

    ``certified`` holds when the classification fixes the bound: C is
    trivial or C2, or C is classified and the computed value meets the
    classified one.  Otherwise the bound is a bounded-sweep lower bound.
    """
    group: FiniteAbelianGroup
    bound: int
    computed_catenary: int
    classification: str
    catenary: CatenaryReport
    certified: bool


def maximal_order_bound(group: FiniteAbelianGroup,
                        max_sequence_length: Optional[int] = None
                        ) -> OrderBoundReport:
    """Catenary-degree bound max(2, c_p(B(C))) over a user-supplied finite
    abelian class group C, with the small-group classification echoed."""
    handle = BlockMonoidHandle(group)
    if max_sequence_length is None:
        max_sequence_length = max(2, 2 * _davenport(handle.atoms))
    rep = _block_catenary(handle, max_sequence_length)
    bound = max(2, rep.value)
    inv = tuple(f for f in invariant_factors(group) if f > 1)
    known = _classified_catenary(group)
    if not inv:
        classification = ("trivial class group: catenary degree <= 2 and the "
                          "order is d_sim-factorial")
    elif inv == (2,):
        classification = "|C| <= 2: catenary degree <= 2"
    elif known is not None:
        classification = f"catenary degree = {known} exactly for this class group"
    else:
        classification = ("outside the quoted classification; the computed "
                          "value is a bounded lower bound")
    certified = not inv or inv == (2,) or rep.value == known
    return OrderBoundReport(group, bound, rep.value, classification, rep,
                            certified)
