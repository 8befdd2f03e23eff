"""The semigroup capability contract shared by every element source.

All invariant machinery (factorizations, distances, catenary degrees,
divisibility, omega and tame degrees) is written against this interface.
Finitely presented semigroups, monoids of zero-sum sequences and matrix
semigroups each implement it, so the same code computes their invariants.

A handle must provide: an equality test (via canonical ``key``), products,
a unit test, an atom test with an associate test on atoms, and enumeration
of the atoms that left-divide a given element together with the unique
left quotient (uniqueness is the cancellativity assumption).  A handle may
narrow those atoms to a cover that meets every factorization
(``covering_divisor_atoms``), may spell out an element's rigid
factorizations without recursing through them at all
(``spelled_factorizations``), and, where a transfer homomorphism to a
factorial monoid makes it permutably factorial, may give an element's one
atom-class multiset (``transfer_classes``).  On a reduced handle (trivial
unit group) an atom's associate class is its key, so a class is told
apart from its key only on a handle with units (T_n(Z)*, M_n(Z)*).
Every handle keeps the answers derived from its factorization sets in
one ``memo``, with atoms held by their keys (``atom_of_key`` finds an
atom again).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from .arith import factor, is_prime

DivisorPairs = Tuple[List[Tuple[Any, Any]], bool]


class UnsupportedOperation(NotImplementedError):
    pass


def _require_vector(v, n: int, least: int) -> None:
    """Raise ValueError unless v is a tuple of n integers, each >= least:
    the element check of the vector handles."""
    if not (type(v) is tuple and len(v) == n
            and all(type(c) is int and c >= least for c in v)):
        raise ValueError(f"vector {v!r} is not {n} integers >= {least}")


class FrozenSlots:
    """Base of the immutable ``__slots__`` value classes (``Element``,
    ``FactorizationSet``, ``VectorElement``): a field cannot be assigned
    or deleted, a copy or pickle is rebuilt through the constructor, and
    the repr is ``Name(field=...)`` over the slots.  A subclass sets its
    fields in ``__init__`` through the slot descriptors' ``__set__``."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"


class HandleMemo:
    """The factorization-derived answers kept for one handle instance.

    ``rigid``: key -> (factorizations, need), for the elements whose
    rigid walk completed, the shape of a ``spelled_factorizations``
    answer.  Each factorization is the tuple of its atoms' keys, which on
    a reduced handle is also the tuple of their classes.  This is the one
    fact per element that almost-prime-likeness, valuation sets, length
    sets, omega and the class multisets of non-orderless handles read
    (except where ``transfer_classes`` answers); a ``RigidFactorization``
    is built from it only when one is returned.
    ``classes``: key -> (class multisets, need), filled by ``_class_walk``
    on commutative reduced handles only (elsewhere it stays empty), for
    the elements whose walk completed, each set kept as a tuple: even an
    empty frozenset takes 216 bytes, and a sweep keeps one set per element
    it met.  ``need`` is the depth the walk needs (see ``factorizations``).
    ``divides_p``: (key of b, key of a) -> ``DivisibilityAnswer``.

    On a presentation, atom keys are words, so an entry of ``rigid``
    holds only tuples of strings and ints, which CPython stops
    tracking for the cyclic collector.
    """

    __slots__ = ("rigid", "classes", "divides_p")

    def __init__(self):
        self.rigid: Dict = {}
        self.classes: Dict = {}
        self.divides_p: Dict = {}


class SemigroupHandle:
    # reduced: trivial unit group, so an atom's associate class is its key
    # (``atom_class`` is ``key``); a handle with units sets it False
    reduced = True
    commutative = False
    name = "semigroup"

    # the one place this handle's factorization sets, class multisets and
    # ``divides_p`` answers are kept; a new handle starts cold
    memo: HandleMemo

    def __new__(cls, *args, **kwargs):
        # set before __init__ as a plain attribute, so the handle classes
        # need no change; a functools.cached_property would write the
        # instance __dict__ and, on CPython 3.11, slow every later
        # attribute load on the handle (about 10% of a class-multiset walk)
        handle = super().__new__(cls)
        handle.memo = HandleMemo()
        return handle

    # structure ------------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def key(self, x) -> Hashable:
        """Canonical hashable key; two elements are equal iff keys agree."""
        return x

    def atom_of_key(self, k):
        """The atom whose key is k (the inverse of ``key`` on atoms): the
        factorization memo keeps atoms as keys.  The default key is the
        element itself."""
        return k

    def is_unit(self, x) -> bool:
        raise NotImplementedError

    def multiply(self, x, y):
        raise NotImplementedError

    def product(self, xs: Iterable):
        out = self.identity()
        for x in xs:
            out = self.multiply(out, x)
        return out

    def certified(self, x) -> bool:
        """Whether answers about x are exact (no exploration budget was hit)."""
        return True

    def require_element(self, x) -> None:
        """Raise ValueError when x is not an element of this semigroup.
        Called once per top-level query; quotients of elements need no
        check."""

    # atoms ------------------------------------------------------------
    def is_atom(self, x) -> bool:
        raise NotImplementedError

    def atom_class(self, u) -> Hashable:
        """Associate-class key of an atom (an equivalence relation on atoms):
        the atom's key on a reduced handle."""
        return self.key(u)

    def atoms_associated(self, u, v) -> bool:
        return self.atom_class(u) == self.atom_class(v)

    # divisibility backbone ---------------------------------------------
    def leftright_divides(self, b, a) -> Optional[bool]:
        """Whether a lies in H*b*H: True, False, or None when unknown
        within the budget."""
        raise UnsupportedOperation(
            f"left-right divisibility is not implemented for {self.name}")

    def left_divisor_atoms(self, x) -> DivisorPairs:
        """All atoms u with x in u*H, as (u, quotient) pairs, plus a
        completeness flag (False when a search was truncated)."""
        raise NotImplementedError

    def covering_divisor_atoms(self, x) -> DivisorPairs:
        """Atoms dividing x, with their quotients, such that every
        factorization of x contains at least one of them; same pair and
        flag shape as ``left_divisor_atoms``.

        Recursing through these finds every factorization class of x: if a
        factorization z of x contains u, then z - u factors x/u.  The
        default is every left divisor, since every factorization has a
        first atom."""
        return self.left_divisor_atoms(x)

    def spelled_factorizations(self, x
                               ) -> Optional[Tuple[Tuple[Tuple, ...], int]]:
        """Every rigid factorization of x as the tuple of its atoms' keys,
        in the order (length, atom keys), with the depth a walk of x
        needs, when the handle reads them off x itself; None for a unit
        and where they must be walked.  The answer has the shape of a
        ``memo.rigid`` entry, (factorizations, need), and is stored as it
        is; on a reduced handle the tuples are their own atom classes.

        An answer is what the walk of x would find and keep (see
        ``factorizations``), so it may stand in for it.  The default reads
        nothing off."""
        return None

    def transfer_classes(self, x) -> Optional[Tuple]:
        """The sorted atom-class multiset of x, where a transfer map to a
        factorial monoid shows it is x's only one (the handle is
        permutably factorial); None where the multisets must be walked.
        An answer is certified, and x is checked (``require_element``)
        first.  The default reads nothing off."""
        return None

    def length_cap(self, x) -> int:
        """Upper bound on factorization lengths of x: the depth every
        factorization walk of x starts with."""
        raise NotImplementedError

    def format_element(self, x) -> str:
        return str(x)

    # optional element enumeration (used by semigroup-level invariants)
    def enumerate_elements(self, max_size: int) -> Tuple[List[Any], bool]:
        raise NotImplementedError


class FactorialVectorHandle(SemigroupHandle):
    """(N_{>0})^n under componentwise multiplication.

    This is the free abelian monoid on the atoms e_i(p) = (1,..,p,..,1); it
    serves as the target of the diagonal map on triangular matrices (n slots)
    and of the determinant on full matrix semigroups (one slot).
    """

    reduced = True
    commutative = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one slot")
        self.n = n
        self.name = f"positive-int-vectors^{n}"

    def require_element(self, x) -> None:
        _require_vector(x, self.n, 1)

    def identity(self):
        return (1,) * self.n

    def is_unit(self, x) -> bool:
        return all(c == 1 for c in x)

    def multiply(self, x, y):
        return tuple(a * b for a, b in zip(x, y))

    def is_atom(self, x) -> bool:
        nontrivial = [c for c in x if c != 1]
        return len(nontrivial) == 1 and is_prime(nontrivial[0])

    def left_divisor_atoms(self, x) -> DivisorPairs:
        pairs = []
        for i, c in enumerate(x):
            if c == 1:
                continue
            for p in sorted(factor(c)):
                atom = tuple(p if j == i else 1 for j in range(self.n))
                quot = tuple(v // p if j == i else v for j, v in enumerate(x))
                pairs.append((atom, quot))
        return pairs, True

    def covering_divisor_atoms(self, x) -> DivisorPairs:
        # every factorization of x holds e_i(p), for the first nontrivial
        # slot i and the least prime p dividing it: the first left divisor
        pairs, complete = self.left_divisor_atoms(x)
        return pairs[:1], complete

    def length_cap(self, x) -> int:
        return sum(sum(factor(c).values()) for c in x if c != 1)

    def format_element(self, x) -> str:
        if self.n == 1:
            return str(x[0])
        return "(" + ",".join(str(c) for c in x) + ")"

    def enumerate_elements(self, max_size: int) -> Tuple[List[Any], bool]:
        # all non-unit vectors with every component in [1, max_size]
        import itertools

        out = [v for v in itertools.product(range(1, max_size + 1), repeat=self.n)
               if not self.is_unit(v)]
        return sorted(out), True
