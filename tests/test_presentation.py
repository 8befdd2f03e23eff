import random

import pytest

from factorum.presentation import (AtomKind, Equality, ExplorationBudget,
                                   EmptyRelationSideError, PresentationError,
                                   PresentationSemigroup,
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
    with pytest.raises(PresentationError, match="line 2"):
        parse_presentation("gens: a b\nrelation a = b\n")


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


def test_unknown_on_truncation():
    h = make("gens: a b\nrel: a b a = b\n", ExplorationBudget(6, 100))
    # the classes of b ({a^k b a^k}) and ab are both infinite: no certificate
    assert h.equal(("b",), ("a", "b")) is Equality.UNKNOWN
    # ...but a closed ball on either side still certifies inequality
    assert h.equal(("b",), ("a",)) is Equality.NOT_EQUAL


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


@pytest.mark.parametrize("cap", [2, 3, 5, 8, 13, 21])
def test_ball_size_cap_holds_when_absorbing(cap):
    # absorbing an earlier overlapping ball must respect max_ball_size too
    for name in preset_names():
        h = PresentationSemigroup(load_preset(name), ExplorationBudget(10, cap))
        h.enumerate_elements(5)
        for ball in h._balls.values():
            assert len(ball.members) <= cap


def test_ball_truncated_at_cap_while_absorbing():
    h = PresentationSemigroup(load_preset("aba_b"), ExplorationBudget(10, 3))
    h.enumerate_elements(7)
    assert max(len(b.members) for b in h._balls.values()) <= 3
    assert any(b.truncated for b in h._balls.values())
