import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorum.factorizations import length_profile, rigid_factorizations
from factorum.presentation import (AtomAnswer, AtomKind, Element, Equality,
                                   ExplorationBudget, EmptyRelationSideError,
                                   Presentation, PresentationError,
                                   PresentationSemigroup, Relation,
                                   UndeclaredGeneratorError, check_adyan,
                                   parse_presentation)
from factorum.presets import ab_ban, engine, load_preset, preset_names


def make(text, budget=None):
    return PresentationSemigroup(parse_presentation(text), budget)


# parsing -----------------------------------------------------------------

def test_parse_abc_cb():
    p = parse_presentation("gens: a b c\nrel: a b c = c b\n")
    assert p.generators == ("a", "b", "c")
    assert len(p.relations) == 1
    assert p.relations[0].lhs == ("a", "b", "c")
    assert p.relations[0].rhs == ("c", "b")


def test_parse_free_monoid():
    p = parse_presentation("gens: a\n")
    assert p.generators == ("a",)
    assert p.relations == ()


def test_parse_rejects_unit_side():
    with pytest.raises(EmptyRelationSideError):
        parse_presentation("gens: a b\nrel: a b = 1\n")
    with pytest.raises(EmptyRelationSideError):
        parse_presentation("gens: a b\nrel: a b =\n")


def test_parse_rejects_undeclared_generator():
    with pytest.raises(UndeclaredGeneratorError):
        parse_presentation("gens: a b\nrel: a b = c a\n")


def test_parse_syntax_error_carries_position():
    for text, position in [
            ("gens: a b\nrelation a = b\n", "line 2, column 1"),
            ("gens: a a\n", "line 1, column 9"),
            ("gens: a b\nbudget: max_word_length=0\n", "line 2, column 9"),
            # columns come from the token, not from its first match in the line
            ("gens: a b\nbudget: b\n", "line 2, column 9"),
            ("gens: a b\nrel: a b = e\n", "line 2, column 12"),
            ("gens: a b\nrel: a b = 1\n", "line 2, column 12"),
            # an empty side is placed at its '='
            ("gens: a b\nrel: a b =\n", "line 2, column 10"),
            ("gens: a b\nrel:  = a\n", "line 2, column 7"),
            # the file's word cap also binds relations above its line
            ("gens: a b\nrel: a b a = b\nbudget: max_word_length=2\n",
             "line 2, column 1")]:
        with pytest.raises(PresentationError, match=position):
            parse_presentation(text)


def test_parse_budget_line_and_comments():
    p = parse_presentation(
        "# a comment\ngens: a b  # trailing\nrel: a b = b a\n"
        "budget: max_word_length=7 max_ball_size=99\n")
    assert p.budget.max_word_length == 7
    assert p.budget.max_ball_size == 99


# Adyan certificates --------------------------------------------------------

def test_adyan_aba_b():
    rep = check_adyan(parse_presentation("gens: a b\nrel: a b a = b\n"))
    assert rep.is_adyan
    assert rep.left_edges == (("a", "b"),)
    assert rep.right_edges == (("a", "b"),)


def test_adyan_ab_cd_cede_ba():
    rep = check_adyan(load_preset("ab_cd_cede_ba"))
    assert rep.is_adyan


def test_adyan_free_monoid():
    rep = check_adyan(parse_presentation("gens: a b c\n"))
    assert rep.is_adyan and rep.left_edges == ()


def test_adyan_rejects_self_loop():
    rep = check_adyan(parse_presentation("gens: a b\nrel: a b = a a\n"))
    assert not rep.is_adyan   # left graph has the loop {a, a}


def test_non_adyan_records_warning():
    h = make("gens: a b\nrel: a b = a a\n")
    assert any("Adyan" in w for w in h.warnings)


# congruence balls ---------------------------------------------------------

def test_ball_abc_cb():
    h = engine("abc_cb")
    ball = h.congruence_ball(("a", "b", "c"))
    assert ball.members == {("a", "b", "c"), ("c", "b")}
    assert ball.closed


def test_ball_free_monoid():
    h = make("gens: a b\n")
    ball = h.congruence_ball(("a", "b"))
    assert ball.members == {("a", "b")} and ball.closed


def test_ball_ab_ba2():
    # <a,b | ab = ba^2>: closure of ab by hand is {ab, baa}
    h = ab_ban(3)
    ball = h.congruence_ball(("a", "b"))
    assert ball.members == {("a", "b"), ("b", "a", "a")}
    assert ball.closed


def test_ball_truncation_flags():
    h = make("gens: a b\nrel: a b a = b\n", ExplorationBudget(6, 4))
    ball = h.congruence_ball(("b",))
    assert not ball.closed


# equality ------------------------------------------------------------------

def test_equal_abc_cb():
    h = engine("abc_cb")
    assert h.equal(("a", "b", "c"), ("c", "b")) is Equality.EQUAL


def test_equal_reflexive():
    h = engine("abc_cb")
    for w in [("a",), ("b", "c"), ("a", "a", "b")]:
        assert h.equal(w, w) is Equality.EQUAL


def test_not_equal_certified():
    h = engine("ab_cd")
    assert h.equal(("a", "b"), ("d", "c")) is Equality.NOT_EQUAL
    h = engine("abc_cb")
    assert h.congruence_ball(("a",)).closed
    assert h.equal(("a",), ("b",)) is Equality.NOT_EQUAL


def test_unknown_on_truncation():
    h = make("gens: a b\nrel: a b a = b\n", ExplorationBudget(6, 100))
    # the classes of b ({a^k b a^k}) and ab are both infinite: no certificate
    assert h.equal(("b",), ("a", "b")) is Equality.UNKNOWN
    # ...but a closed ball on either side still certifies inequality
    assert h.equal(("b",), ("a",)) is Equality.NOT_EQUAL


def test_equal_through_the_second_ball():
    # neither ball of b and a b closes, so nothing is certified; the ball
    # of b is open and misses a a b a a, but that word's ball holds b
    h = engine("aba_b", ExplorationBudget(3, 5))
    assert h.equal(("b",), ("a", "b")) is Equality.UNKNOWN
    assert not h.congruence_ball(("b",)).closed
    assert not h.congruence_ball(("a", "b")).closed
    w = ("a", "a", "b", "a", "a")
    assert w not in h.congruence_ball(("b",)).members
    assert ("b",) in h.congruence_ball(w).members
    assert h.equal(("b",), w) is Equality.EQUAL


# atoms ----------------------------------------------------------------------

def test_atoms_aba_b():
    h = engine("aba_b")
    ans = h.atom_answer(h.element_from_str("b"))
    assert ans.kind is AtomKind.NO
    u, v = ans.witness
    assert u.word == ("a",) and v.word == ("b", "a")
    # the witness recomposes to the element
    assert h.multiply(u, v).word == h.element_from_str("b").word


def test_atoms_free_monoid():
    h = make("gens: a\n")
    assert h.atom_answer(h.element_from_str("a")).kind is AtomKind.YES


def test_atoms_abc_cb():
    h = engine("abc_cb")
    for g in "abc":
        assert h.atom_answer(h.element_from_str(g)).kind is AtomKind.YES


# left divisors ---------------------------------------------------------------

def test_left_divisors_abc_cb():
    h = engine("abc_cb")
    pairs, complete = h.left_divisors(h.element_from_str("a b c"))
    assert complete
    got = {(u.word, q.word) for u, q in pairs}
    assert got == {(("a",), ("b", "c")), (("c",), ("b",))}


def test_left_divisors_free():
    h = make("gens: a b\n")
    pairs, complete = h.left_divisors(h.element_from_str("a b"))
    assert complete and [(u.word, q.word) for u, q in pairs] == \
        [(("a",), ("b",))]


def test_left_divisors_ab_ba2():
    h = ab_ban(3)
    pairs, complete = h.left_divisors(h.element_from_str("a b"))
    got = {(u.word, q.word) for u, q in pairs}
    assert complete
    assert got == {(("a",), ("b",)), (("b",), ("a", "a"))}


# enumeration -------------------------------------------------------------------

def test_enumerate_atoms_abc_cb():
    h = engine("abc_cb")
    atoms, complete = h.enumerate_atoms(3)
    assert complete and {a.word for a in atoms} == {("a",), ("b",), ("c",)}


def test_enumerate_free_monoid():
    h = make("gens: a\n")
    els, complete = h.enumerate_elements(3)
    assert complete
    assert [e.word for e in els] == [("a",), ("a", "a"), ("a", "a", "a")]
    atoms, _ = h.enumerate_atoms(3)
    assert [a.word for a in atoms] == [("a",)]


def test_enumerate_atoms_ab_cd_cede_ba():
    h = engine("ab_cd_cede_ba")
    atoms, complete = h.enumerate_atoms(4)
    assert {a.word for a in atoms} == {(g,) for g in "abcde"}


@pytest.mark.parametrize("name", preset_names())
def test_enumerate_elements_lists_each_class_once_in_shortlex_order(name):
    h, reference = engine(name), engine(name)
    els, complete = h.enumerate_elements(5)
    keys = [h.shortlex_key(e.word) for e in els]
    assert keys == sorted(set(keys))
    if complete:
        gens = h.presentation.generators
        words = [w for n in range(1, 6)
                 for w in itertools.product(gens, repeat=n)]
        assert {e.word for e in els} == {reference.element(w).word
                                          for w in words}


# invariants & properties ----------------------------------------------------

@pytest.mark.parametrize("preset", ["abc_cb", "ab_cd_cede_ba", "aba_bab"])
def test_equality_is_multiplicative(preset):
    h = engine(preset)
    rng = random.Random(11)
    gens = h.presentation.generators
    words = [tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
             for _ in range(12)]
    eq_pairs = [(x, y) for x in words for y in words
                if h.equal(x, y) is Equality.EQUAL]
    for x, y in eq_pairs[:40]:
        w = tuple(rng.choice(gens) for _ in range(2))
        assert h.equal(x + w, y + w) is Equality.EQUAL
        assert h.equal(w + x, w + y) is Equality.EQUAL


@pytest.mark.parametrize("preset", ["abc_cb", "ab_cd_cede_ba", "a2b2"])
def test_closed_ball_is_rewrite_closed(preset):
    h = engine(preset)
    for text in ("a b", "a b a", "b a"):
        ball = h.congruence_ball(h.word_from_str(text))
        if not ball.closed:
            continue
        for m in ball.members:
            for nb in h._rewrites(m):
                assert nb in ball.members


@pytest.mark.parametrize("preset", ["abc_cb", "a2b2", "ab_cd"])
def test_canonical_idempotent_and_minimal(preset):
    h = engine(preset)
    rng = random.Random(3)
    gens = h.presentation.generators
    for _ in range(25):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 5)))
        el = h.element(w)
        assert h.element(el.word).word == el.word
        ball = h.congruence_ball(w)
        assert el.word == min(ball.members, key=h.shortlex_key)


def test_left_quotient_unique_on_adyan():
    h = engine("abc_cb")
    assert h.adyan.is_adyan
    rng = random.Random(5)
    gens = h.presentation.generators
    for _ in range(30):
        u = h.element(tuple(rng.choice(gens) for _ in range(2)))
        v = h.element(tuple(rng.choice(gens) for _ in range(2)))
        vp = h.element(tuple(rng.choice(gens) for _ in range(2)))
        if h.multiply(u, v).word == h.multiply(u, vp).word:
            assert v.word == vp.word
    assert not any("not unique" in w for w in h.warnings)


def test_budget_below_relation_side_rejected():
    from factorum.presentation import BudgetError
    with pytest.raises(BudgetError):
        make("gens: a b\nrel: a b a = b\n", ExplorationBudget(2, 100))


def test_families_parse_under_their_own_word_cap():
    from factorum.presets import anbn, b_an_c
    assert anbn(7).budget.max_word_length == 14
    assert anbn(7, 40).budget == ExplorationBudget(40, 100_000)
    assert b_an_c(13).budget.max_word_length == 13
    h = ab_ban(13, 40)
    assert h.budget == h.presentation.budget == ExplorationBudget(40, 100_000)
    assert len(h.presentation.relations[0].rhs) == 13
    # below the default cap the family is what its text alone gives
    assert anbn(2).presentation == parse_presentation(
        "gens: a b\nrel: a a b b = b b a a\n")


def _closed_balls(h):
    """Every closed ball the engine keeps, once each: each is bound to the
    members whose own build closes it."""
    return list({id(b): b for b in h._canon.values()}.values())


def _cached_balls(h):
    """Every ball the engine keeps: the closed ones and the others, under
    their seed."""
    return _closed_balls(h) + list(h._open_balls.values())


@pytest.mark.parametrize("cap", [2, 3, 5, 8, 13, 21])
def test_ball_size_cap_holds_when_absorbing(cap):
    # max_ball_size bounds every ball, closed or kept under its seed
    for name in preset_names():
        h = PresentationSemigroup(load_preset(name), ExplorationBudget(10, cap))
        h.enumerate_elements(5)
        for ball in _cached_balls(h):
            assert len(ball.members) <= cap


def test_ball_truncated_at_cap_while_absorbing():
    h = PresentationSemigroup(load_preset("aba_b"), ExplorationBudget(10, 3))
    h.enumerate_elements(7)
    assert max(len(b.members) for b in _cached_balls(h)) <= 3
    assert any(b.truncated for b in h._open_balls.values())
    assert not any(b.truncated for b in _closed_balls(h))


# the per-class memo ------------------------------------------------------------

class UnmemoisedEngine(PresentationSemigroup):
    """Reference: the word engine answering every query from its balls,
    with no per-class memo (atom answers and left divisors recomputed,
    a fresh Element on every call)."""

    def element(self, word):
        ball = self.congruence_ball(word)
        return Element(ball.canonical, ball.closed)

    def atom_answer(self, el):
        if not el.word:
            return AtomAnswer(AtomKind.NO)
        ball = self.congruence_ball(el.word)
        long_members = sorted((m for m in ball.members if len(m) >= 2),
                              key=self.shortlex_key)
        if long_members:
            m = long_members[0]
            return AtomAnswer(AtomKind.NO,
                              (self.element(m[:1]), self.element(m[1:])))
        return AtomAnswer(AtomKind.YES if ball.closed else AtomKind.UNKNOWN)

    def left_divisors(self, el):
        ball = self.congruence_ball(el.word)
        complete = ball.closed
        pairs, by_atom = {}, {}
        for m in sorted(ball.members, key=self.shortlex_key):
            for i in range(1, len(m) + 1):
                prefix_el = self.element(m[:i])
                ans = self.atom_answer(prefix_el)
                if ans.kind is AtomKind.UNKNOWN:
                    complete = False
                    continue
                if ans.kind is AtomKind.NO:
                    continue
                rest_el = self.element(m[i:])
                complete = complete and prefix_el.certified and rest_el.certified
                pairs[(prefix_el.word, rest_el.word)] = (prefix_el, rest_el)
                by_atom.setdefault(prefix_el.word, set()).add(rest_el.word)
        for atom_word, rests in by_atom.items():
            if len(rests) > 1:
                self._warn_non_unique(el, atom_word)
        ordered = [pairs[k] for k in sorted(pairs, key=lambda k: (
            self.shortlex_key(k[0]), self.shortlex_key(k[1])))]
        return ordered, complete


def _answers(h, word):
    """Every memoised answer about word, with each certification spelled out
    (Element equality ignores the certified flag)."""
    el = h.element(word)
    atom = h.atom_answer(el)
    pairs, complete = h.left_divisors(el)
    fs = rigid_factorizations(h, el)
    return {
        "element": (el.word, el.certified),
        "atom": (atom.kind, None if atom.witness is None else
                 tuple((x.word, x.certified) for x in atom.witness)),
        "divisors": ([(u.word, u.certified, q.word, q.certified)
                      for u, q in pairs], complete),
        "rigid": ([tuple(u.word for u in z.atoms) for z in fs], fs.complete),
        "lengths": length_profile(h, el),
    }


def _certified_answers(answers):
    """The answers that claim to be exact: these may not depend on what an
    engine explored before."""
    out = {}
    if answers["element"][1]:
        out["element"] = answers["element"]
        witness = answers["atom"][1]
        if witness is None or all(cert for _, cert in witness):
            out["atom"] = answers["atom"]
    for key in ("divisors", "rigid"):
        if answers[key][1]:
            out[key] = answers[key]
    if answers["lengths"].certified:
        out["lengths"] = answers["lengths"]
    return out


@st.composite
def _preset_queries(draw):
    name = draw(st.sampled_from(preset_names()))
    gens = load_preset(name).generators
    word = st.lists(st.sampled_from(gens), min_size=1, max_size=5).map(tuple)
    return name, draw(st.lists(word, min_size=1, max_size=4))


def _check_ball_caps(h):
    for ball in _cached_balls(h):
        cap = max(h.budget.max_word_length, len(ball.seed))
        assert len(ball.members) <= h.budget.max_ball_size
        assert all(len(m) <= cap for m in ball.members)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_preset_queries())
def test_warm_engine_answers_like_cold_engines(queries):
    name, words = queries
    warm = engine(name)
    for word in words:
        cold = _answers(engine(name), word)
        assert _answers(warm, word) == cold
        assert _answers(warm, word) == cold   # answered from the memo
        el = warm.element(word)
        again = warm.element(el.word)
        assert again is el if el.certified else again == el
    for x in words:
        for y in words:
            assert warm.equal(x, y) is warm.equal(y, x)
    _check_ball_caps(warm)


def _tiny_budget(name):
    """The shortest word cap the presentation admits, and balls of <= 5."""
    sides = [len(side) for r in load_preset(name).relations
             for side in (r.lhs, r.rhs)]
    return ExplorationBudget(max(sides, default=1), 5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_preset_queries())
def test_tiny_budget_memo_keeps_only_exact_answers(queries):
    # Balls truncate and escape here, and a closed ball of a word longer
    # than the word cap can have escaping balls among its factors.  The
    # warm engine is held to a memo-free engine on every answer, and to a
    # cold engine where both certify: a factorization walk may still reuse
    # an incomplete entry searched to another depth.
    name, words = queries
    budget = _tiny_budget(name)
    warm = engine(name, budget)
    reference = UnmemoisedEngine(load_preset(name), budget)
    for word in words:
        answers = _answers(warm, word)
        assert answers == _answers(reference, word)
        assert _answers(warm, word) == _answers(reference, word)
        exact = _certified_answers(answers)
        cold = _certified_answers(_answers(engine(name, budget), word))
        for key in exact.keys() & cold.keys():
            assert exact[key] == cold[key]
        el = warm.element(word)
        assert warm.element(el.word).word == el.word
    for x in words:
        for y in words:
            assert warm.equal(x, y) is warm.equal(y, x)
    assert warm.warnings == reference.warnings
    _check_ball_caps(warm)
    _check_memo_keys(warm)


def _ball_answers(h, word, other):
    """What element, atom_answer, left_divisors and equal answer about word
    (equal against other), with each certification spelled out."""
    el = h.element(word)
    atom = h.atom_answer(el)
    pairs, complete = h.left_divisors(el)
    return ((el.word, el.certified), atom.kind,
            None if atom.witness is None else
            tuple((x.word, x.certified) for x in atom.witness),
            [(u.word, u.certified, q.word, q.certified) for u, q in pairs],
            complete, h.equal(word, other), h.equal(other, word))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(name=st.sampled_from(preset_names()),
       ball_size=st.sampled_from((5, 100_000)), data=st.data())
def test_warm_engine_answers_ball_queries_like_a_cold_one(name, ball_size,
                                                         data):
    # At the shortest word cap, a closed ball met through a word longer
    # than the cap is shared only with the members that its own build
    # reaches, so whatever a warm engine explored before, it answers every
    # ball query like an engine that was asked nothing else.
    budget = ExplorationBudget(_tiny_budget(name).max_word_length, ball_size)
    gens = load_preset(name).generators
    words = data.draw(st.lists(st.lists(st.sampled_from(gens), min_size=1,
                                        max_size=6).map(tuple),
                               min_size=1, max_size=8))
    warm = engine(name, budget)
    for word, other in zip(words, words[1:] + words[:1]):
        assert _ball_answers(warm, word, other) == \
            _ball_answers(engine(name, budget), word, other)
    _check_memo_keys(warm)


def _check_memo_keys(h):
    # a word is bound to a closed class only when its own build closes it
    word_cap = h.budget.max_word_length
    for word, ball in h._canon.items():
        assert ball.closed and word in ball.members
        assert max(map(len, ball.members)) <= max(word_cap, len(word))
        # the ball holds its class's one Element
        assert ball.element.word == ball.canonical and ball.element.certified
    assert not h._open_balls.keys() & h._canon.keys()


def test_memo_holds_one_record_per_closed_class():
    h = engine("abc_cb")
    el = h.element(("a", "b", "c"))
    assert h.element(("c", "b")) is el
    assert h.element_from_str("a b c") is el
    assert h.multiply(h.element(("a",)), h.element(("b", "c"))) is el
    assert [b.canonical for b in _closed_balls(h)
            if ("c", "b") in b.members] == [("c", "b")]
    assert h.congruence_ball(("a", "b", "c")).element is el
    # aba_b: the classes of a^k b a^k are infinite, so those balls escape
    h = engine("aba_b", _tiny_budget("aba_b"))
    els, complete = h.enumerate_elements(5)
    assert not complete
    for el in els:
        h.left_divisors(el)
        assert h.element(el.word).certified == el.certified
    assert h._open_balls and all(b.closed for b in h._canon.values())
    _check_memo_keys(h)


def test_left_divisor_warnings_repeat_from_the_memo():
    # <a, b | ab = aa> is not left cancellative: a*b = a*a
    h = make("gens: a b\nrel: a b = a a\n")
    el = h.element(("a", "b"))
    first = h.left_divisors(el)
    assert any("not unique" in w for w in h.warnings)
    h.warnings.clear()
    assert h.left_divisors(el) == first
    assert any("not unique" in w for w in h.warnings)


def test_closed_class_with_escaping_factors_stays_unmemoised():
    # At word cap 3 the class of aaabc = aacb is closed, but the ball of
    # its canonical word aacb escapes (cap 4, aacb = aaabc), and so does the
    # ball of the factor acb (acb = aabc).  Only aaabc is bound to the
    # closed class, so the atom witness and the left-divisor list rest on
    # non-closed balls: asking again, or asking a cold engine, gives the
    # same answers.
    budget = _tiny_budget("abc_cb")
    h = engine("abc_cb", budget)
    reference = UnmemoisedEngine(load_preset("abc_cb"), budget)
    word = ("a", "a", "a", "b", "c")
    el = h.element(word)
    assert el.certified and el.word == ("a", "a", "c", "b")
    assert not h.element(el.word).certified
    first = _answers(h, word)
    assert first == _answers(reference, word)
    assert first == _answers(engine("abc_cb", budget), word)
    assert first["atom"][1] == ((("a",), True), (("a", "c", "b"), False))
    assert first["divisors"][1] is False
    assert _answers(h, word) == first
    _check_memo_keys(h)


def test_incomplete_left_divisors_are_recomputed():
    # The class of abbbb = abab closes at cap 5, but the ball of abab
    # escapes at cap 4, so its one quotient bab is uncertified and the list
    # is incomplete.  It is recomputed on every call, and exploring bab
    # in between changes nothing.
    text = "gens: a b\nrel: b b b = b a\n"
    budget = ExplorationBudget(3, 6)
    h = make(text, budget)
    reference = UnmemoisedEngine(parse_presentation(text), budget)
    word = ("a", "b", "b", "b", "b")
    el, ref_el = h.element(word), reference.element(word)
    assert el.certified
    answers = []
    for _ in range(2):
        pairs, complete = h.left_divisors(el)
        got = ([(u.word, q.word, q.certified) for u, q in pairs], complete)
        ref_pairs, ref_complete = reference.left_divisors(ref_el)
        assert got == ([(u.word, q.word, q.certified) for u, q in ref_pairs],
                       ref_complete)
        answers.append(got)
        rigid_factorizations(h, h.element(("b", "a", "b")))
    assert answers[0] == answers[1] == (
        [(("a",), ("b", "a", "b"), False)], False)
    _check_memo_keys(h)


# first-letter left divisors -----------------------------------------------------

@st.composite
def _random_presentations(draw):
    """A 2- or 3-generator presentation (mostly not Adyan, often not
    cancellative), a budget that lets balls truncate and escape, and words
    to ask about."""
    gens = ("a", "b", "c")[:draw(st.integers(2, 3))]
    side = st.lists(st.sampled_from(gens), min_size=1, max_size=3).map(tuple)
    relations = tuple(Relation(lhs, rhs) for lhs, rhs in
                      draw(st.lists(st.tuples(side, side), min_size=1, max_size=3)))
    longest = max(len(s) for r in relations for s in (r.lhs, r.rhs))
    budget = ExplorationBudget(longest + draw(st.integers(0, 2)),
                               draw(st.integers(2, 40)))
    word = st.lists(st.sampled_from(gens), min_size=1, max_size=5).map(tuple)
    return Presentation(gens, relations), budget, draw(
        st.lists(word, min_size=1, max_size=6))


def _divisor_answer(h, word):
    pairs, complete = h.left_divisors(h.element(word))
    return [(u.word, u.certified, q.word, q.certified) for u, q in pairs], complete


def _case(gens, relations, budget, words):
    return (Presentation(tuple(gens), tuple(
        Relation(tuple(lhs), tuple(rhs)) for lhs, rhs in relations)),
        budget, [tuple(w) for w in words])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_presentations())
# Closed balls seeded by words longer than the word cap: the prefix balls
# built while listing their divisors certify a later quotient.
@example(_case("ab", [("ab", "bbb")], ExplorationBudget(3, 14),
               ["b", "bbbaa", "ba", "aabaa", "aaba"]))
@example(_case("ab", [("aab", "ba")], ExplorationBudget(3, 22),
               ["aabbb", "bbab", "ab"]))
def test_first_letter_divisors_match_all_splits(case):
    # The engine tries only the first letter of each ball member; the
    # reference tries every prefix.
    presentation, budget, words = case
    h = PresentationSemigroup(presentation, budget)
    reference = UnmemoisedEngine(presentation, budget)
    for word in words:
        for _ in range(2):      # the second answer may come from the memo
            assert _divisor_answer(h, word) == _divisor_answer(reference, word)
            assert h.warnings == reference.warnings
    _check_memo_keys(h)


def test_a_relation_with_equal_sides_rewrites_nothing():
    # <a | a a = a a> is the free monoid on a: the relation builds no
    # rewrite rule, so a long word's ball is the word alone, built without
    # trying a rule at every position
    h = make("gens: a\nrel: a a = a a\n")
    word = ("a",) * 300
    ball = h.congruence_ball(word)
    assert ball.members == {word} and ball.closed
    profile = length_profile(h, h.element(word))
    assert (profile.lengths, profile.certified) == ((300,), True)
