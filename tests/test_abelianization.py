import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorum.abelianization import (_vectors_up_to, abelianize, check_exwt,
                                     equiv_p, length_map,
                                     weak_transfer_counterexample)
from factorum.catenary import catenary
from factorum.factorizations import (class_multiset, length_profile,
                                     permutable_class_multisets,
                                     permutable_factorizations,
                                     rigid_factorizations)
from factorum.presentation import (ExplorationBudget, PresentationSemigroup,
                                   parse_presentation)
from factorum.presets import engine, load_preset, preset_names


def make(text):
    return PresentationSemigroup(parse_presentation(text))


@pytest.mark.parametrize("coords", [(1, 0, 0, 0), (-1, 0, 0), (-1, 1, 0)])
@pytest.mark.parametrize("query", [length_profile, rigid_factorizations,
                                   permutable_class_multisets, catenary])
def test_abelianization_rejects_a_non_element(query, coords):
    # the coordinates of an element are one integer >= 0 per generator: a
    # vector of the wrong length or with a negative entry is refused by name
    ab = abelianize(engine("abc_cb"))
    with pytest.raises(ValueError,
                       match=rf"vector \({coords[0]}, .* is not 3 integers >= 0"):
        query(ab, ab.element(coords))
    assert length_profile(ab, ab.element((1, 0, 0))).lengths == (1,)


@pytest.mark.parametrize("x", [(1, 0, 0), "a", None])
@pytest.mark.parametrize("query", [length_profile, rigid_factorizations,
                                   permutable_class_multisets, catenary])
def test_abelianization_rejects_what_is_not_a_vector_element(query, x):
    ab = abelianize(engine("abc_cb"))
    with pytest.raises(ValueError, match="is not a VectorElement"):
        query(ab, x)


def test_both_engines_share_one_ball_method():
    from factorum.abelianization import CommutativeVectorSemigroup
    from factorum.presentation import _BallEngine
    assert PresentationSemigroup.__dict__["congruence_ball"] \
        is CommutativeVectorSemigroup.__dict__["ball"] is _BallEngine._ball


def test_abelianize_ab_cd():
    h = engine("ab_cd")
    ab = abelianize(h)
    # free abelian on 4 generators modulo alpha+beta = gamma+delta
    assert ab.generators == ("a", "b", "c", "d")
    x = ab.project_word(("a", "b"))
    y = ab.project_word(("d", "c"))
    assert x.coords == y.coords
    z = ab.project_word(("b", "a"))
    assert z.coords == x.coords          # commutativity is built in


def test_abelianize_free_monoid():
    h = make("gens: a b\n")
    ab = abelianize(h)
    assert ab.element((2, 1)).coords == (2, 1)
    assert ab.is_atom(ab.element((1, 0)))
    assert not ab.is_atom(ab.element((1, 1)))


def test_abelianize_commutation_relation_redundant():
    # <a,b | ab = ba> abelianizes to the free abelian monoid on {a, b}
    h = make("gens: a b\nrel: a b = b a\n")
    ab = abelianize(h)
    free = abelianize(make("gens: a b\n"))
    for v in [(1, 0), (1, 1), (2, 1), (0, 3)]:
        assert ab.element(v).coords == free.element(v).coords
        ball = ab.ball(v)
        assert ball.closed and ball.members == {v}


def test_abelianization_factorizations():
    h = engine("ab_cd")
    ab = abelianize(h)
    el = ab.project_word(("a", "b"))
    fs = rigid_factorizations(ab, el)
    assert fs.complete
    assert {tuple(sorted(u.coords for u in z.atoms)) for z in fs} == {
        ((0, 0, 0, 1), (0, 0, 1, 0)), ((0, 1, 0, 0), (1, 0, 0, 0))}


@pytest.mark.parametrize("name", preset_names())
def test_vector_permutable_factorizations_match_the_rigid_sets(name):
    # the abelianization is commutative and reduced, so its permutable
    # factorizations come from the class multisets alone; on a certified
    # vector they are the multisets read off its rigid factorizations,
    # each shown by the first rigid factorization that has it
    ab = abelianize(engine(name))
    checked = 0
    for v in _vectors_up_to(ab.n, 4)[1:]:
        el = ab.element(v)
        if not el.certified:
            continue
        fs = rigid_factorizations(ab, el)
        first = {}
        for z in fs:
            first.setdefault(class_multiset(ab, z), z.atoms)
        pfs, complete = permutable_factorizations(ab, el)
        assert complete == fs.complete
        assert [(p.classes, p.length, p.representative.atoms) for p in pfs] \
            == [(m, len(m), first[m]) for m in sorted(first)]
        checked += 1
    assert checked


_LISTABLE = 40_000    # the most rigid orderings the check below lists


def _ordering_count(sets):
    """How many distinct orderings the class multisets ``sets`` have."""
    total = 0
    for m in sets:
        n = math.factorial(len(m))
        for k in Counter(m).values():
            n //= math.factorial(k)
        total += n
    return total


@pytest.mark.parametrize("name", preset_names())
def test_rigid_factorizations_agree_with_the_class_multisets(name):
    # an answer depends on the element alone, certified or not: on the
    # commutative abelianization the rigid factorizations are the
    # orderings of the class multisets, so their lengths are the length
    # set and their sorted key tuples the class multisets (b c^2 on abc_cb
    # is uncertified, with 21 multisets of lengths 3 to 23)
    ab = abelianize(engine(name))
    checked = 0
    for v in _vectors_up_to(ab.n, 3)[1:]:
        el = ab.element(v)
        sets, complete = permutable_class_multisets(ab, el)
        if _ordering_count(sets) > _LISTABLE:
            continue
        fs = rigid_factorizations(ab, el)
        assert {class_multiset(ab, z) for z in fs} == sets
        assert sorted({z.length for z in fs}) \
            == list(length_profile(ab, el).lengths)
        assert fs.complete == complete
        checked += 1
    assert checked


def test_equiv_p_examples():
    h = engine("ab_cd")
    ab_el = h.element_from_str("a b")
    dc = h.element_from_str("d c")
    ans = equiv_p(h, ab_el, dc)
    assert ans.related and ans.witness.multiset == (("c",), ("d",))
    a = h.element_from_str("a")
    assert equiv_p(h, a, a).related

    free = make("gens: a b c\n")
    assert free.element_from_str("a b") is not None
    ans2 = equiv_p(free, free.element_from_str("a b"),
                   free.element_from_str("c"))
    assert ans2.related is False and ans2.certified


def test_check_exwt_ab_cd():
    h = engine("ab_cd")
    rep = check_exwt(h, 4)
    assert rep.passed is False
    pairs = {(" ".join(a.word), " ".join(b.word))
             for a, b, _ in rep.counterexamples}
    assert ("a b", "d c") in pairs
    cex = weak_transfer_counterexample(h, h.element_from_str("a b"),
                                       h.element_from_str("d c"))
    assert cex is not None
    a, b, missing = cex
    # re-verify: the pair is genuinely equiv_p-related and the blocking
    # factorization is genuinely absent from the certified set of b
    assert equiv_p(h, a, b).related
    fb = rigid_factorizations(h, b)
    assert fb.complete
    assert missing not in {tuple(sorted(h.atom_class(u) for u in z.atoms))
                           for z in fb}


def test_check_exwt_commutative_passes():
    h = make("gens: a b\nrel: a b = b a\n")
    rep = check_exwt(h, 4)
    assert rep.passed is True and rep.equiv_p_transitive


def test_check_exwt_abc_de():
    h = engine("abc_de")
    rep = check_exwt(h, 4)
    assert rep.passed is False
    assert length_profile(h, h.element_from_str("a b c")).lengths == (2, 3)
    assert length_profile(h, h.element_from_str("b a c")).lengths == (3,)


def test_length_preservation_when_exwt_passes():
    # if the canonical map is a weak transfer homomorphism, it preserves L
    h = make("gens: a b\nrel: a b = b a\n")
    assert check_exwt(h, 4).passed
    ab = abelianize(h)
    els, _ = h.enumerate_elements(4)
    for el in els:
        assert length_profile(h, el).lengths == \
            length_profile(ab, ab.project_word(el.word)).lengths


def test_cancellativity_scan_bounded():
    h = engine("ab_cd")
    ab = abelianize(h)
    assert ab.cancellativity_scan(4) is None
    assert ab.unit_scan(5)


def test_length_map_examples():
    h = engine("ab_cd")
    rep = length_map(h)
    assert rep is not None and rep.exists and rep.transfer_certified

    h2 = engine("aba_b")       # sides of length 3 vs 1
    assert length_map(h2) is None

    free = make("gens: a b\n")
    rep3 = length_map(free)
    assert rep3 is not None and rep3.transfer_certified


@pytest.mark.parametrize("name", ["a2b2", "ab_cd", "aba_bab"])
def test_length_map_is_certified_by_its_proof_at_any_budget(name):
    # length-preserving relations make word length a transfer homomorphism
    # by proof, so a budget whose balls hold one word still certifies it
    sides = [side for rel in load_preset(name).relations
             for side in (rel.lhs, rel.rhs)]
    h = engine(name, ExplorationBudget(max(map(len, sides)), 1))
    rep = length_map(h)
    assert rep is not None and rep.exists and rep.transfer_certified


def reference_cancellativity_scan(ab, max_total=5):
    """The scan as one loop over every pair, calling ``element`` and
    ``multiply`` each time: the oracle of
    ``CommutativeVectorSemigroup.cancellativity_scan``."""
    vecs = _vectors_up_to(ab.n, max_total)
    gens = [tuple(1 if i == j else 0 for j in range(ab.n))
            for i in range(ab.n)]
    for a in vecs:
        ea = ab.element(a)
        for b in vecs:
            if b <= a:
                continue
            eb = ab.element(b)
            if ea.coords == eb.coords:
                continue
            if not (ea.certified and eb.certified):
                continue
            for c in gens:
                eac = ab.multiply(ea, ab.element(c))
                ebc = ab.multiply(eb, ab.element(c))
                if eac.certified and ebc.certified \
                        and eac.coords == ebc.coords:
                    return (a, b, c)
    return None


def _scan_and_reference(h, budget, max_total):
    """Scan two fresh abelianizations, one with each loop; return what each
    answered, and what the unit scan that follows answers on each."""
    answers = []
    for scan in (lambda ab: ab.cancellativity_scan(max_total),
                 lambda ab: reference_cancellativity_scan(ab, max_total)):
        ab = abelianize(h, budget)
        result = scan(ab)
        answers.append((result, ab.unit_scan(min(6, ab.budget.max_word_length))))
    return answers


def test_cancellativity_scan_finds_violation():
    # a c = b c with a != b: c cannot be cancelled
    ab = abelianize(make("gens: a b c\nrel: a c = b c\n"))
    assert ab.cancellativity_scan() == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


@pytest.mark.parametrize("name", preset_names())
def test_cancellativity_scan_matches_reference_on_presets(name):
    h = engine(name)
    new, ref = _scan_and_reference(h, h.budget,
                                   min(5, h.budget.max_word_length))
    assert new == ref


def _presentation_text(gens, relations):
    return "gens: " + " ".join(gens) + "\n" + "".join(
        f"rel: {' '.join(lhs)} = {' '.join(rhs)}\n" for lhs, rhs in relations)


@st.composite
def _scan_cases(draw):
    """A 2- to 4-generator presentation with 1 to 3 short relations, a
    budget that lets balls truncate and escape, and a scan bound."""
    gens = ("a", "b", "c", "d")[:draw(st.integers(2, 4))]
    side = st.lists(st.sampled_from(gens), min_size=1, max_size=3)
    relations = draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))
    budget = draw(st.sampled_from([ExplorationBudget(3, 20),
                                   ExplorationBudget(4, 8),
                                   ExplorationBudget(6, 50)]))
    return _presentation_text(gens, relations), budget, draw(st.integers(1, 5))


# Balls that do not close within the word cap, on which an answer once
# depended on the order of the ``element`` calls before it.
_HISTORY_CASES = (
    (_presentation_text("abcd", [("abb", "ad"), ("bc", "a")]),
     ExplorationBudget(3, 20), 3),
    (_presentation_text("abcd", [("aaa", "b"), ("dc", "abd")]),
     ExplorationBudget(3, 20), 5),
    (_presentation_text("abcd", [("c", "ba"), ("cba", "dac")]),
     ExplorationBudget(3, 20), 3),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scan_cases())
@example(_HISTORY_CASES[0])
@example(_HISTORY_CASES[1])
@example(_HISTORY_CASES[2])
def test_cancellativity_scan_matches_reference(case):
    text, budget, max_total = case
    new, ref = _scan_and_reference(make(text), budget, max_total)
    assert new == ref


def _vector_answers(ab, v):
    """What element, is_atom and left_divisor_atoms answer about v, with
    each certification spelled out."""
    el = ab.element(v)
    pairs, complete = ab.left_divisor_atoms(el)
    return ((el.coords, el.certified), ab.is_atom(el),
            [(u.coords, u.certified, q.coords, q.certified) for u, q in pairs],
            complete)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scan_cases())
@example(_HISTORY_CASES[0])
@example(_HISTORY_CASES[1])
@example(_HISTORY_CASES[2])
def test_warm_abelianization_answers_like_a_cold_one(case):
    # after a scan has built its balls, every vector of total <= 3 is
    # answered as on an abelianization that was asked nothing else
    text, budget, max_total = case
    h = make(text)
    warm = abelianize(h, budget)
    warm.cancellativity_scan(max_total)
    for v in _vectors_up_to(warm.n, 3)[1:]:
        assert _vector_answers(warm, v) == \
            _vector_answers(abelianize(h, budget), v)


def test_abelianization_answer_does_not_depend_on_earlier_calls():
    # the ball of (2, 1, 0, 0) = a^2 b escapes at word cap 3 (a = b c
    # makes it a b^2 c), and the ball of (0, 1, 2, 1) is not shared with it
    text, budget, _ = _HISTORY_CASES[0]
    cold = abelianize(make(text), budget)
    warm = abelianize(make(text), budget)
    warm.element((0, 1, 2, 1))
    for ab in (cold, warm):
        el = ab.element((2, 1, 0, 0))
        assert (el.coords, el.certified) == ((2, 1, 0, 0), False)


# left divisor atoms ----------------------------------------------------------


def _subvectors(v):
    for sub in itertools.product(*[range(c + 1) for c in v]):
        if any(sub):
            yield sub


def reference_left_divisor_atoms(ab, x):
    """Every split of every ball member into a nonzero sub-vector and the
    rest, each sub-vector tested for atomhood: the oracle of
    ``CommutativeVectorSemigroup.left_divisor_atoms``, which splits off
    single generators only."""
    ball = ab.ball(x.coords)
    complete = ball.closed
    pairs = {}
    for m in sorted(ball.members, key=lambda v: (sum(v), v)):
        for sub in _subvectors(m):
            el = ab.element(sub)
            if not ab.is_atom(el):
                if not el.certified:
                    complete = False
                continue
            rest = ab.element(tuple(a - b for a, b in zip(m, sub)))
            complete = complete and el.certified and rest.certified
            pairs[(el.coords, rest.coords)] = (el, rest)
    return [pairs[k] for k in sorted(pairs)], complete


def _divisor_rows(answer):
    pairs, complete = answer
    return [(u.coords, u.certified, q.coords, q.certified)
            for u, q in pairs], complete


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("ample", [False, True])
def test_generator_divisors_match_all_sub_vectors(name, ample):
    # at the shortest word cap with balls of 5, balls truncate and escape;
    # the preset's own budget is ample.  Pairs, their order, their
    # certifications and completeness agree, cold and warm.
    p = load_preset(name)
    shortest = max(len(s) for r in p.relations for s in (r.lhs, r.rhs))
    budget = p.budget if ample else ExplorationBudget(shortest, 5)
    h = PresentationSemigroup(p, budget)
    warm, warm_ref = abelianize(h, budget), abelianize(h, budget)
    for v in _vectors_up_to(warm.n, 5)[1:]:
        cold, cold_ref = abelianize(h, budget), abelianize(h, budget)
        for ab, ref in ((cold, cold_ref), (warm, warm_ref)):
            assert _divisor_rows(ab.left_divisor_atoms(ab.element(v))) == \
                _divisor_rows(reference_left_divisor_atoms(ref, ref.element(v)))


def test_vector_divisors_split_off_one_generator_at_a_time():
    ab = abelianize(make("gens: a b c\n"))
    x = ab.element((4, 4, 4))
    calls = []
    element = ab.element
    ab.element = lambda v: calls.append(v) or element(v)
    pairs, complete = ab.left_divisor_atoms(x)
    assert complete
    assert [(u.coords, q.coords) for u, q in pairs] == [
        ((0, 0, 1), (4, 4, 3)), ((0, 1, 0), (4, 3, 4)),
        ((1, 0, 0), (3, 4, 4))]
    # each generator and its quotient, per ball member
    assert len(calls) <= 2 * ab.n * len(ab.ball(x.coords).members)
