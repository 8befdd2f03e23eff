"""Finitely presented semigroup engine.

A presentation is a finite alphabet together with relations u = v whose two
sides are nonempty words (reduced presentations: the unit group stays
trivial, because rewriting never changes a nonempty word into the empty
one).  Equality of elements is decided by a bounded congruence-closure
search: the *ball* of a word is the set of words reachable by single
relation applications, in both directions at every position, subject to a
length cap and a size cap.  A ball that closes (no rewrite escapes it)
certifies the full congruence class, so equality, atomhood and divisor
enumeration become exact; a truncated ball downgrades every dependent
answer to "within budget".

Canonical forms are shortlex-minimal ball members, with the generator
order taken from the declaration order.  The word problem is undecidable
in general; every answer therefore carries a certification flag.

The rewrite rules, the ball caches and the rule that binds a closed ball
to its members are written once, in ``_BallEngine``, under this engine
and the abelianization's vector engine alike; each gives only its seed
size, its rewrites and its ball record.  Of a class, the engine keeps
its balls only.  A closed ball is the engine's one record of its class
and holds the class's one ``Element``; atom answers and left-divisor
lists are read off the balls on every call.  What the engine keeps per
closed class is thus its ball, the ball's member set and its
``Element``, the only objects of a class that the cyclic collector
tracks.  A class's rigid factorizations are kept in the handle's memo
as one fact of words and ints (see ``factorizations``), which the sweep
queries read directly.

Cancellativity is assumed, not decided.  ``check_adyan`` provides the one
sufficient certificate used throughout: if each relation contributes an
edge between the first letters of its two sides (left graph) and likewise
for last letters (right graph), and both graphs are forests, the semigroup
embeds into a group and is cancellative.  Non-Adyan presentations are
accepted with a warning recorded on the engine.

``Relation``, ``AdyanReport``, ``AtomAnswer`` and ``CongruenceBall`` are
named tuples: immutable, compared by value, copied with a field changed
by ``_replace``, and equal to a plain tuple of the same fields (and to
another named tuple with equal fields).  A ball's ``element`` takes part
in its equality and repr; it is fixed by ``closed`` and ``canonical``.
``ExplorationBudget``, ``BudgetOverride`` and ``Presentation`` are named
tuples too, whose constructor checks its input; ``_make`` and so
``_replace`` go through it, and raise its errors.  ``Element`` is an
immutable ``__slots__`` class that compares and hashes by its word alone,
as ``hash((word,))``: ``certified`` takes part in neither.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .handles import DivisorPairs, FrozenSlots, SemigroupHandle

Word = Tuple[str, ...]

_GENERATOR_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class PresentationError(ValueError):
    """Invalid presentation text or data."""


class EmptyRelationSideError(PresentationError):
    """A relation has an empty side (reduced presentations only)."""


class UndeclaredGeneratorError(PresentationError):
    """A relation mentions a symbol that is not a declared generator."""


class BudgetError(ValueError):
    """Exploration budget is inconsistent with the presentation."""


class _ExplorationBudget(NamedTuple):
    max_word_length: int
    max_ball_size: int


class ExplorationBudget(_ExplorationBudget):
    __slots__ = ()

    def __new__(cls, max_word_length: int = 12, max_ball_size: int = 100_000):
        if max_word_length < 1 or max_ball_size < 1:
            raise BudgetError("budget bounds must be positive")
        return tuple.__new__(cls, (max_word_length, max_ball_size))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _BudgetOverride(NamedTuple):
    max_word_length: Optional[int]
    max_ball_size: Optional[int]


class BudgetOverride(_BudgetOverride):
    """Budget fields to set in another budget; a field left None keeps the
    other budget's value."""
    __slots__ = ()

    def __new__(cls, max_word_length: Optional[int] = None,
                max_ball_size: Optional[int] = None):
        for value in (max_word_length, max_ball_size):
            if value is not None and value < 1:
                raise BudgetError("budget bounds must be positive")
        return tuple.__new__(cls, (max_word_length, max_ball_size))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def apply(self, budget: ExplorationBudget) -> ExplorationBudget:
        return ExplorationBudget(
            budget.max_word_length if self.max_word_length is None
            else self.max_word_length,
            budget.max_ball_size if self.max_ball_size is None
            else self.max_ball_size)


class Relation(NamedTuple):
    lhs: Word
    rhs: Word


class _Presentation(NamedTuple):
    generators: Tuple[str, ...]
    relations: Tuple[Relation, ...]
    budget: ExplorationBudget


class Presentation(_Presentation):
    __slots__ = ()

    def __new__(cls, generators: Tuple[str, ...],
                relations: Tuple[Relation, ...],
                budget: ExplorationBudget = ExplorationBudget()):
        seen = set()
        for g in generators:
            if not _GENERATOR_RE.match(g):
                raise PresentationError(f"invalid generator name {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        for rel in relations:
            if not rel.lhs or not rel.rhs:
                raise EmptyRelationSideError(
                    "reduced presentations only: relation sides must be nonempty")
            for sym in rel.lhs + rel.rhs:
                if sym not in seen:
                    raise UndeclaredGeneratorError(f"undeclared generator {sym!r}")
            if len(rel.lhs) > budget.max_word_length \
                    or len(rel.rhs) > budget.max_word_length:
                raise BudgetError("max_word_length is below a relation side")
        return tuple.__new__(cls, (generators, relations, budget))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _column(line: str, start: int, i: int) -> int:
    """The 1-based column of the i-th whitespace-separated token of
    line[start:] (only error messages ask, so the fast path splits)."""
    return start + list(re.finditer(r"\S+", line[start:]))[i].start() + 1


def parse_presentation(text: str) -> Presentation:
    """Parse presentation-file content.

    Grammar (one directive per line, '#' starts a comment)::

        gens: a b c
        rel: a b c = c b
        budget: max_word_length=12 max_ball_size=100000
    """
    generators: Optional[Tuple[str, ...]] = None
    relations: List[Tuple[int, Relation]] = []  # with their lines
    budget = ExplorationBudget()

    def err(lineno: int, col: int, msg: str,
            kind: type = PresentationError) -> PresentationError:
        return kind(f"line {lineno}, column {col}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("gens:"):
            if generators is not None:
                raise err(lineno, 1, "duplicate gens: line")
            colon = line.find(":") + 1
            names: List[str] = []
            for tok in re.finditer(r"\S+", line[colon:]):
                name, col = tok.group(), colon + tok.start() + 1
                if not _GENERATOR_RE.match(name):
                    raise err(lineno, col, f"invalid generator name {name!r}")
                if name in names:
                    raise err(lineno, col, f"duplicate generator {name!r}")
                names.append(name)
            if not names:
                raise err(lineno, colon, "no generators declared")
            generators = tuple(names)
        elif stripped.startswith("rel:"):
            if generators is None:
                raise err(lineno, 1, "rel: before gens:")
            if line.count("=") != 1:
                raise err(lineno, line.find("=") + 1 if "=" in line else len(line),
                          "relation needs exactly one '='")
            eq = line.find("=")
            sides = []
            for start, end in ((line.find(":") + 1, eq), (eq + 1, len(line))):
                side = tuple(line[start:end].split())
                if not side or side == ("1",):
                    # an empty side is placed at its '='
                    raise err(lineno, _column(line, start, 0) if side else eq + 1,
                              "reduced presentations only "
                              "(no empty or unit relation side)",
                              EmptyRelationSideError)
                for i, sym in enumerate(side):
                    if sym not in generators:
                        raise err(lineno, _column(line, start, i),
                                  f"undeclared generator {sym!r}",
                                  UndeclaredGeneratorError)
                sides.append(side)
            relations.append((lineno, Relation(*sides)))
        elif stripped.startswith("budget:"):
            colon = line.find(":") + 1
            kwargs = {}
            for i, f in enumerate(line[colon:].split()):
                k, _, v = f.partition("=")
                if k not in ("max_word_length", "max_ball_size") \
                        or not v.isdigit() or int(v) < 1:
                    raise err(lineno, _column(line, colon, i),
                              f"bad budget field {f!r}")
                kwargs[k] = int(v)
            budget = ExplorationBudget(**kwargs)
        else:
            raise err(lineno, 1, f"unrecognized directive {stripped.split()[0]!r}")

    if generators is None:
        raise PresentationError("missing gens: line")
    for lineno, rel in relations:
        if max(len(rel.lhs), len(rel.rhs)) > budget.max_word_length:
            raise err(lineno, 1, "max_word_length is below a relation side")
    return Presentation(generators, tuple(rel for _, rel in relations), budget)


class AdyanReport(NamedTuple):
    left_edges: Tuple[Tuple[str, str], ...]
    right_edges: Tuple[Tuple[str, str], ...]
    is_adyan: bool
    left_acyclic: bool
    right_acyclic: bool


def _is_forest(vertices: Sequence[str], edges: Sequence[Tuple[str, str]]) -> bool:
    # multigraph acyclicity: every relation contributes one edge, so a
    # self-loop or a second edge inside one component is a cycle
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def check_adyan(p: Presentation) -> AdyanReport:
    """Build the left/right graphs of the presentation and test both for
    acyclicity.  If both are forests the semigroup is Adyan, embeds into a
    group and is therefore cancellative."""
    left = tuple((r.lhs[0], r.rhs[0]) for r in p.relations)
    right = tuple((r.lhs[-1], r.rhs[-1]) for r in p.relations)
    la = _is_forest(p.generators, left)
    ra = _is_forest(p.generators, right)
    return AdyanReport(left, right, la and ra, la, ra)


class CongruenceBall(NamedTuple):
    seed: Word
    members: FrozenSet[Word]
    closed: bool
    canonical: Word     # the shortlex-least member
    truncated: bool = False
    # the shortlex-least member of length >= 2, None when every member is a
    # single letter: its first letter and the rest split the class
    least_long_member: Optional[Word] = None
    # the one Element of the class, on a closed ball; fixed by closed and
    # canonical, so it changes no equality
    element: Optional[Element] = None


def _closure(seed, rewrites, size, budget: ExplorationBudget):
    """The bounded congruence closure of seed, for the word engine and the
    abelianization alike: the elements reached from seed by ``rewrites``
    (each yields every single relation application, in both directions)
    whose ``size`` is at most the cap max(word cap, size(seed)), and at
    most ``max_ball_size`` of them.  Returns (members, closed,
    truncated): truncated when the size cap stopped the search, and
    closed when neither it nor the word cap did (no rewrite went past
    the cap)."""
    cap = max(budget.max_word_length, size(seed))
    members = {seed}
    queue = [seed]
    escaped = False
    truncated = False
    while queue:
        w = queue.pop()
        for nb in rewrites(w):
            if size(nb) > cap:
                escaped = True
            elif nb not in members:
                if len(members) >= budget.max_ball_size:
                    truncated = True
                    queue = []
                    break
                members.add(nb)
                queue.append(nb)
    return members, not escaped and not truncated, truncated


class Equality(Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"       # only issued when certified
    UNKNOWN = "unknown"


class Element(FrozenSlots):
    """Canonical (shortlex-minimal explored) representative of a class.
    Immutable; equality and hash are those of the word alone, so
    ``certified`` takes no part in them."""
    __slots__ = ("word", "certified")

    def __init__(self, word: Word, certified: bool = True):
        _set_word(self, word)
        _set_certified(self, certified)

    def __eq__(self, other):
        if other.__class__ is Element:
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash((self.word,))

    def __len__(self):
        return len(self.word)


# the slot setters, which bypass the refusing __setattr__
_set_word = Element.word.__set__
_set_certified = Element.certified.__set__


def _element_of(ball: CongruenceBall) -> Element:
    """The Element of a ball's seed: its class's one Element when the ball
    closed, a fresh uncertified one otherwise."""
    el = ball.element
    return el if el is not None else Element(ball.canonical, False)


class AtomKind(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class AtomAnswer(NamedTuple):
    kind: AtomKind
    witness: Optional[Tuple[Element, Element]] = None  # split u, v with uv = w


_YES = AtomAnswer(AtomKind.YES)
_UNKNOWN = AtomAnswer(AtomKind.UNKNOWN)


class _BallEngine(SemigroupHandle):
    """The bounded congruence engine under the word engine and the
    abelianization: the rewrite rules, the ball caches and the one way a
    ball is looked up, built and kept.  A subclass gives the size of a
    seed (``_size``), the single rewrites of a seed (``_rewrites``) and
    the ball record (``_new_ball``), and binds ``_ball`` under its own
    public name.

    The ball caches hold facts only, so every answer is a function of the
    seeds asked about, not of what was explored before.  A closed ball is
    a whole congruence class (rewriting is symmetric, and no rewrite of a
    member leaves it), and its ball is the engine's one record of it.
    ``_canon`` binds that ball to each member whose own build closes it
    too: whose cap max(word cap, its size) reaches the longest member.  A
    seed is then answered from the cache exactly as a cold engine answers
    it, and a class is built at most once.  Any other ball is kept in
    ``_open_balls`` under its seed alone and never shared."""

    reduced = True

    def __init__(self, relations, budget: ExplorationBudget):
        self.budget = budget
        # both directions of each relation; one with equal sides would
        # only rewrite a seed to itself
        self._rules = [rule for lhs, rhs in relations if lhs != rhs
                       for rule in ((lhs, rhs), (rhs, lhs))]
        self._canon: Dict = {}
        self._open_balls: Dict = {}

    def _ball(self, seed):
        ball = self._canon.get(seed)
        if ball is not None:
            return ball
        ball = self._open_balls.get(seed)
        if ball is not None:
            return ball
        size = self._size
        members, closed, truncated = _closure(seed, self._rewrites, size,
                                              self.budget)
        ball = self._new_ball(seed, members, closed, truncated)
        if ball.closed:
            cap = self.budget.max_word_length
            longest = max(map(size, ball.members))
            for m in ball.members:
                if max(cap, size(m)) >= longest:
                    self._canon[m] = ball
        else:
            self._open_balls[seed] = ball
        return ball

    def certified(self, x) -> bool:
        return x.certified

    def atom_of_key(self, k):
        # an atom's class is closed and binds its canonical key k
        return self.element(k)


class PresentationSemigroup(_BallEngine):
    """SemigroupHandle over a finite presentation with bounded closure."""

    _size = len

    def __init__(self, presentation: Presentation,
                 budget: Optional[ExplorationBudget] = None):
        self.presentation = presentation
        super().__init__(presentation.relations,
                         budget or presentation.budget)
        for rel in presentation.relations:
            if max(len(rel.lhs), len(rel.rhs)) > self.budget.max_word_length:
                raise BudgetError("max_word_length is below a relation side")
        self.name = "<" + " ".join(presentation.generators) + " | " + ", ".join(
            " ".join(r.lhs) + "=" + " ".join(r.rhs) for r in presentation.relations) + ">"
        self._gidx = {g: i for i, g in enumerate(presentation.generators)}
        self.adyan = check_adyan(presentation)
        self.warnings: List[str] = []
        if not self.adyan.is_adyan:
            self.warnings.append(
                "presentation is not certified Adyan; cancellativity is assumed")
        # letter -> its atom's word, where every letter is an atom and
        # ``spelled_factorizations`` may read a closed class off; None
        # elsewhere
        self._letter_atoms: Optional[Dict[str, Word]] = {
            g: (g,) for g in presentation.generators} if (
            self.adyan.is_adyan and all(len(r.lhs) >= 2 and len(r.rhs) >= 2
                                        for r in presentation.relations)
        ) else None

    # words ----------------------------------------------------------

    def word_from_str(self, text: str) -> Word:
        word = tuple(text.split())
        for sym in word:
            if sym not in self._gidx:
                raise UndeclaredGeneratorError(f"undeclared generator {sym!r}")
        return word

    def shortlex_key(self, word: Word):
        return (len(word), tuple(map(self._gidx.__getitem__, word)))

    def _rewrites(self, word: Word):
        for lhs, rhs in self._rules:
            first, n = lhs[0], len(lhs)
            for i in range(len(word) - n + 1):
                if word[i] == first and word[i:i + n] == lhs:
                    yield word[:i] + rhs + word[i + n:]

    # balls -----------------------------------------------------------

    congruence_ball = _BallEngine._ball

    def _new_ball(self, word: Word, members, closed, truncated):
        canonical = word if len(members) == 1 else min(
            members, key=self.shortlex_key)
        least_long = canonical if len(canonical) >= 2 else min(
            (m for m in members if len(m) >= 2), key=self.shortlex_key,
            default=None)
        return CongruenceBall(word, frozenset(members), closed, canonical,
                              truncated, least_long,
                              Element(canonical) if closed else None)

    def element(self, word: Word) -> Element:
        ball = self._canon.get(word)
        if ball is not None:
            return ball.element
        return _element_of(self.congruence_ball(word))

    def element_from_str(self, text: str) -> Element:
        return self.element(self.word_from_str(text))

    def equal(self, w1: Word, w2: Word) -> Equality:
        b1 = self.congruence_ball(w1)
        if w2 in b1.members:
            return Equality.EQUAL
        if b1.closed:
            return Equality.NOT_EQUAL
        b2 = self.congruence_ball(w2)
        if w1 in b2.members:
            return Equality.EQUAL
        if b2.closed:
            return Equality.NOT_EQUAL
        return Equality.UNKNOWN

    # atoms and divisors ------------------------------------------------

    def atom_answer(self, el: Element) -> AtomAnswer:
        if not el.word:
            return AtomAnswer(AtomKind.NO)  # the unit is not an atom
        ball = self.congruence_ball(el.word)
        m = ball.least_long_member
        if m is not None:
            return AtomAnswer(AtomKind.NO,
                              (self.element(m[:1]), self.element(m[1:])))
        return _YES if ball.closed else _UNKNOWN

    def left_divisors(self, el: Element) -> DivisorPairs:
        """All atoms u with el in u*S, each with its left quotient.

        Only the first letter of each ball member can be an atom: the
        presentation is reduced, so a longer prefix is a product of two
        non-units.  For a closed ball this is exhaustive, because u.word +
        quotient.word is itself a member.  Members are visited in shortlex
        order, so that the warnings come in an order that no hash decides.
        """
        ball = self.congruence_ball(el.word)
        complete = ball.closed
        pairs = {}
        by_atom: Dict[Word, set] = {}
        letter_atoms: Dict[Word, Optional[Element]] = {}   # None: not an atom
        members = ball.members
        if len(members) > 1:
            members = sorted(members, key=self.shortlex_key)
        for m in members:
            letter = m[:1]
            if letter not in letter_atoms:
                letter_el = self.element(letter)
                kind = self.atom_answer(letter_el).kind
                if kind is AtomKind.UNKNOWN:
                    complete = False
                letter_atoms[letter] = letter_el if kind is AtomKind.YES else None
            atom_el = letter_atoms[letter]
            if atom_el is not None:
                rest_el = self.element(m[1:])
                complete = complete and atom_el.certified and rest_el.certified
                pairs[(atom_el.word, rest_el.word)] = (atom_el, rest_el)
                by_atom.setdefault(atom_el.word, set()).add(rest_el.word)
        for atom_word, rests in by_atom.items():
            if len(rests) > 1:
                self._warn_non_unique(el, atom_word)
        ordered = list(pairs.values())
        if len(ordered) > 1:
            ordered = [pairs[k] for k in sorted(pairs, key=lambda k: (
                self.shortlex_key(k[0]), self.shortlex_key(k[1])))]
        return ordered, complete

    def spelled_factorizations(self, x: Element):
        """The words of x's class spelled letter by letter as atom words
        (each the atom's key and class), in shortlex order by generator
        name, with their greatest length; None unless both of these hold:

        * the presentation is Adyan and no relation side is a single
          letter.  The atoms are then exactly the letters: a letter's
          class is itself, and a longer word's class holds only words of
          two letters or more.  And every left quotient is unique, so no
          warning is due;
        * the ball of x is closed, and its longest member is at most the
          word cap.  A quotient's class then has members one letter
          shorter than x's, and no more of them, so every ball a walk of x
          builds closes too.  That walk would find each member of x's
          class as one factorization, and would need its greatest length
          as depth.
        """
        atom = self._letter_atoms
        if atom is None or not x.word:
            return None
        ball = self.congruence_ball(x.word)
        if not ball.closed:
            return None
        longest = max(map(len, ball.members))
        if longest > self.budget.max_word_length:
            return None
        words = sorted(ball.members)
        words.sort(key=len)
        return tuple([tuple(map(atom.__getitem__, w)) for w in words]), longest

    def _warn_non_unique(self, el: Element, atom_word: Word) -> None:
        msg = ("left quotient of " + self.format_element(el)
               + " by " + " ".join(atom_word) + " is not unique; "
               "the presentation is not cancellative")
        if msg not in self.warnings:
            self.warnings.append(msg)

    # enumeration -------------------------------------------------------

    def enumerate_elements(self, max_length: Optional[int] = None
                           ) -> Tuple[List[Element], bool]:
        """Canonical representatives of all classes having a member of
        length <= max_length (default: the ball budget), identity excluded.

        Shortlex-canonical words are closed under taking factors, so a
        search that extends only canonical words finds every one of them.
        It goes one length at a time, each word extended by the generators
        in declaration order, so they are found in shortlex order.
        """
        limit = self.budget.max_word_length if max_length is None else max_length
        limit = min(limit, self.budget.max_word_length)
        out: List[Element] = []
        complete = True
        level: List[Word] = [()]
        for _ in range(limit):
            longer = []
            for w in level:
                for g in self.presentation.generators:
                    cand = w + (g,)
                    ball = self.congruence_ball(cand)
                    complete = complete and ball.closed
                    if ball.canonical == cand:
                        out.append(_element_of(ball))
                        longer.append(cand)
            level = longer
        return out, complete

    def enumerate_atoms(self, max_length: Optional[int] = None
                        ) -> Tuple[List[Element], bool]:
        elements, complete = self.enumerate_elements(max_length)
        atoms = []
        for el in elements:
            ans = self.atom_answer(el)
            if ans.kind is AtomKind.YES:
                atoms.append(el)
            elif ans.kind is AtomKind.UNKNOWN:
                complete = False
        return atoms, complete

    # SemigroupHandle interface -----------------------------------------

    def identity(self) -> Element:
        return Element((), True)

    def key(self, x: Element):
        return x.word

    atom_class = key            # reduced: an atom's class is its key

    def is_unit(self, x: Element) -> bool:
        return not x.word

    def multiply(self, x: Element, y: Element) -> Element:
        return self.element(x.word + y.word)

    def is_atom(self, x: Element) -> bool:
        return self.atom_answer(x).kind is AtomKind.YES

    def left_divisor_atoms(self, x: Element) -> DivisorPairs:
        return self.left_divisors(x)

    def leftright_divides(self, b: Element, a: Element) -> Optional[bool]:
        # a in S b S iff some ball member of a has a contiguous factor equal
        # to b; exhaustive whenever the ball is closed
        ball = self.congruence_ball(a.word)
        for m in sorted(ball.members, key=self.shortlex_key):
            for i in range(len(m)):
                for j in range(i + 1, len(m) + 1):
                    if self.element(m[i:j]).word == b.word:
                        return True
        return False if ball.closed else None

    def length_cap(self, x: Element) -> int:
        return max(self.budget.max_word_length, len(x.word))

    def format_element(self, x: Element) -> str:
        return " ".join(x.word) if x.word else "1"
