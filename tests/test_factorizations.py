import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorum import factorizations
from factorum.abelianization import _vectors_up_to, abelianize
from factorum.catenary import catenary
from factorum.distances import DistanceKind
from factorum.divisibility import (OmegaReport, OmegaWitness, divides_p,
                                   is_almost_prime_like, min_subproduct_k,
                                   omega_element, tame_element,
                                   valuation_set)
from factorum.handles import FactorialVectorHandle, HandleMemo
from factorum.factorizations import (FactorizationSet, LengthSet,
                                     RigidFactorization, _class_nodes,
                                     _class_walk, class_multiset,
                                     length_profile,
                                     permutable_class_multisets,
                                     permutable_factorizations,
                                     rigid_factorizations)
from factorum.matrices import (FullMatrixHandle, TriangularMatrixHandle,
                               mat_det)
from factorum.presentation import (Element, ExplorationBudget,
                                   PresentationSemigroup, parse_presentation)
from factorum.presets import ab_ban, anbn, b_an_c, engine, preset_names
from factorum.zerosum import (BlockMonoidHandle, FiniteAbelianGroup,
                              atoms_of_block_monoid, sequence_sum,
                              zero_sum_sequences)


def test_rigid_abc_cb():
    h = engine("abc_cb")
    fs = rigid_factorizations(h, h.element_from_str("a b c"))
    assert fs.complete
    got = {tuple(u.word for u in z.atoms) for z in fs}
    assert got == {(("a",), ("b",), ("c",)), (("c",), ("b",))}


def test_rigid_free_monoid_power():
    h = PresentationSemigroup(parse_presentation("gens: a\n"))
    fs = rigid_factorizations(h, h.element_from_str("a a a"))
    assert len(fs) == 1 and fs.complete
    assert [u.word for u in fs.factorizations[0].atoms] == [("a",)] * 3


def test_rigid_ab_ba2():
    h = ab_ban(3)
    fs = rigid_factorizations(h, h.element_from_str("a b"))
    got = {tuple(u.word for u in z.atoms) for z in fs}
    assert got == {(("a",), ("b",)), (("b",), ("a",), ("a",))}
    assert length_profile(h, h.element_from_str("a b")).lengths == (2, 3)


def test_products_recompose():
    for h in (engine("abc_cb"), ab_ban(3), engine("ab_cd_cede_ba")):
        els, _ = h.enumerate_elements(4)
        for el in els:
            for z in rigid_factorizations(h, el):
                assert h.product(z.atoms).word == el.word


def test_permutable_abc_cb():
    h = engine("abc_cb")
    pfs, complete = permutable_factorizations(h, h.element_from_str("a b c"))
    assert complete and len(pfs) == 2
    assert {p.classes for p in pfs} == {
        (("a",), ("b",), ("c",)), (("b",), ("c",))}


def test_permutable_a2b2_single_class():
    h = anbn(2)
    pfs, complete = permutable_factorizations(h, h.element_from_str("a a b b"))
    assert complete and len(pfs) == 1
    assert pfs[0].classes == (("a",), ("a",), ("b",), ("b",))


def test_permutable_atom_trivial():
    h = engine("abc_cb")
    pfs, _ = permutable_factorizations(h, h.element_from_str("a"))
    assert len(pfs) == 1 and pfs[0].classes == (("a",),)


def test_quotient_consistency():
    for h in (engine("abc_cb"), anbn(2), ab_ban(4, 14)):
        els, _ = h.enumerate_elements(3)
        for el in els:
            fs = rigid_factorizations(h, el)
            pfs, _ = permutable_factorizations(h, el)
            assert len(pfs) <= len(fs)
            sets, _ = permutable_class_multisets(h, el)
            assert {p.classes for p in pfs} == set(sets)


def test_free_monoid_rigidly_factorial():
    h = PresentationSemigroup(parse_presentation("gens: a b\n"))
    els, complete = h.enumerate_elements(5)
    assert complete
    for el in els:
        assert len(rigid_factorizations(h, el)) == 1


def test_length_profile_formula():
    # L(a^m b) = {m+1+k(n-2)}, sup = m(n-1)+1, rho = (m(n-1)+1)/(m+1)
    for n in (3, 4):
        for m in (1, 2):
            h = ab_ban(n, 16)
            el = h.element_from_str(" ".join(["a"] * m + ["b"]))
            L = length_profile(h, el)
            assert L.certified
            assert L.lengths == tuple(m + 1 + k * (n - 2) for k in range(m + 1))
            assert max(L.lengths) == m * (n - 1) + 1
            assert L.elasticity == Fraction(m * (n - 1) + 1, m + 1)


def test_length_profile_atom_and_unit():
    h = engine("abc_cb")
    L = length_profile(h, h.element_from_str("a"))
    assert L.lengths == (1,) and L.delta == () and L.elasticity == 1
    Lu = length_profile(h, h.identity())
    assert Lu.lengths == (0,) and Lu.elasticity == 0


def test_length_profile_abc_de():
    h = engine("abc_de")
    assert length_profile(h, h.element_from_str("a b c")).lengths == (2, 3)
    assert length_profile(h, h.element_from_str("b a c")).lengths == (3,)


def test_empty_delta_iff_every_length_set_is_a_singleton():
    # Delta empty for all explored elements iff all length sets singletons
    h = anbn(2)
    els, _ = h.enumerate_elements(6)
    profiles = [length_profile(h, el) for el in els]
    assert all(p.delta == () for p in profiles)
    assert all(len(p.lengths) == 1 for p in profiles)
    h2 = engine("abc_cb")
    L = length_profile(h2, h2.element_from_str("a b c"))
    assert L.delta != () and len(L.lengths) > 1


def test_incomplete_factorizations_flagged():
    # <a,b | aba = b> is not atomic: the search for Z*(b) cannot certify
    h = engine("aba_b")
    fs = rigid_factorizations(h, h.element_from_str("b"))
    assert not fs.complete


def _rebuilt(h, a):
    """rigid_factorizations from the cold reference walk."""
    tuples, need = _sorted_reference(h, a)
    return FactorizationSet(tuple(RigidFactorization(t, a) for t in tuples),
                            need is not None and h.certified(a))


def _spelled_out(fs):
    # RigidFactorization equality ignores the certified flags of elements
    return ([(tuple((u.word, u.certified) for u in z.atoms),
              z.product.word, z.product.certified) for z in fs], fs.complete)


@pytest.mark.parametrize("name,budget,completeness", [
    ("abc_cb", None, {True}),
    ("aba_ba3bc", None, {True}),
    ("aba_b", None, {True, False}),                    # not atomic
    ("abc_cb", ExplorationBudget(3, 5), {True, False}),
    ("aba_ba3bc", ExplorationBudget(7, 5), {True, False}),
])
def test_factorization_set_memo(name, budget, completeness):
    # A complete set is walked once, kept in the memo as its atom keys, and
    # then built from them with no walk; an incomplete one is walked again
    # on every call.  Both agree with the cold reference walk.
    h, reference = engine(name, budget), engine(name, budget)
    els, _ = h.enumerate_elements(4)
    reference.enumerate_elements(4)
    calls = _counting_walks(h)
    seen = set()
    for el in els:
        ref_el = reference.element(el.word)
        first = rigid_factorizations(h, el)
        assert _spelled_out(first) == _spelled_out(_rebuilt(reference, ref_el))
        calls.clear()
        again = rigid_factorizations(h, el)
        assert _spelled_out(again) == _spelled_out(_rebuilt(reference, ref_el))
        assert (calls == []) == first.complete
        assert all(z.product == el and h.product(z.atoms) == el for z in again)
        seen.add(first.complete)
    assert seen == completeness


def test_factorization_set_memo_checks_the_element_certified():
    h = engine("abc_cb")
    el = h.element_from_str("a b c")
    assert rigid_factorizations(h, el).complete
    fs = rigid_factorizations(h, Element(el.word, False))
    assert not fs.complete and all(z.product == el for z in fs)
    # the sweep queries read the same fact, and certify only with the element
    b = h.element_from_str("b")
    for x, certified in ((el, True), (Element(el.word, False), False)):
        assert is_almost_prime_like(h, b, [x]).certified == certified
        assert valuation_set(h, b, x).certified == certified


def test_incomplete_set_of_a_certified_element_is_rebuilt():
    # At word cap 3 the class of aaabc = aacb is closed, but the ball of its
    # factor acb escapes, so the search below it cannot certify.
    h = engine("abc_cb", ExplorationBudget(3, 5))
    el = h.element(tuple("aaabc"))
    first = rigid_factorizations(h, el)
    assert el.certified and not first.complete
    again = rigid_factorizations(h, el)
    assert again is not first and _spelled_out(again) == _spelled_out(first)


def test_memo_belongs_to_one_handle():
    h, other = engine("aba_ba3bc"), engine("aba_ba3bc")
    els, complete = h.enumerate_elements(4)
    q = h.element_from_str("b")
    is_almost_prime_like(h, q, els, complete)
    for el in els:
        length_profile(h, el)
        divides_p(h, q, el)
    assert h.memo.facts and h.memo.divides_p
    memo = other.memo
    assert (memo.facts, memo.divides_p) == ({}, {})
    assert memo is not h.memo
    # one slot holds every handle's facts
    assert HandleMemo.__slots__ == ("facts", "divides_p")


def _refuse_class_walks(h):
    """Make every walk of h's class multisets fail: only ``_class_walk``
    asks a handle for its covering atoms."""
    def refuse(x):
        raise AssertionError(f"the class multisets of {x!r} were walked")
    h.covering_divisor_atoms = refuse


def _ask_class_queries(h, elements, divisors, pattern):
    """Every query that compares class multisets, on every element: the
    lengths, |_p and omega at each divisor, t_p of the pattern and the
    catenary degrees under d_len and d_p."""
    for el in elements:
        length_profile(h, el)
        for b in divisors:
            divides_p(h, b, el)
            omega_element(h, el, b)
        tame_element(h, el, pattern)
        for kind in (DistanceKind.LENGTH, DistanceKind.PERMUTABLE):
            catenary(h, el, kind)


@pytest.mark.parametrize("name", preset_names())
def test_presentation_class_multisets_come_off_the_rigid_facts(name):
    # a presentation keeps one fact per element; no query walks its class
    # multisets a second time
    h = engine(name)
    els, _ = h.enumerate_elements(4)
    gens = h.presentation.generators
    atoms = [q for q in (h.element((g,)) for g in gens) if h.is_atom(q)]
    _refuse_class_walks(h)
    _ask_class_queries(h, els, atoms + [h.element(gens[:1] * 2)], atoms[:1])
    assert h.memo.facts


def test_t2_class_multisets_come_off_the_rigid_facts():
    h = TriangularMatrixHandle(2)
    rng = random.Random(29)
    sample = []
    while len(sample) < 40:
        m = ((rng.randint(-6, 6), rng.randint(-6, 6)),
             (0, rng.randint(-6, 6)))
        if 2 <= abs(mat_det(m)) <= 24:
            sample.append(m)
    atoms = [((2, 0), (0, 1)), ((1, 1), (0, 3))]
    _refuse_class_walks(h)
    _ask_class_queries(h, sample, atoms + [((2, 0), (0, 2))], atoms[:1])
    assert h.memo.facts


# the sweep's shortcuts against the computations they replace ---------------

TRUNCATING = ExplorationBudget(6, 5)


def _reference_profile(h, a):
    """length_profile from a cold walk of the class multisets alone, as it
    was computed before it could read a rigid set."""
    if h.is_unit(a):
        return LengthSet((0,), (), Fraction(0), True)
    return _profile_of(*_cold_class_multisets(h, a))


def _profile_of(sets, complete):
    """The LengthSet of a non-unit with the class multisets ``sets``."""
    lengths = tuple(sorted({len(m) for m in sets}))
    return LengthSet(
        lengths, tuple(b - c for c, b in zip(lengths, lengths[1:])),
        Fraction(max(lengths), min(lengths)) if lengths else Fraction(0),
        complete)


def _replay(h, ref, ops, element):
    """Ask h and ref the same queries in the same order; h answers lengths
    and class multisets from its rigid facts, ref with a cold walk of the
    class multisets."""
    for op, raw in ops:
        x, y = element(h, raw), element(ref, raw)
        if op in ("rigid", "both"):
            fs, want = rigid_factorizations(h, x), rigid_factorizations(ref, y)
            assert (_tuples_spelled(h, (z.atoms for z in fs)), fs.complete) \
                == (_tuples_spelled(ref, (z.atoms for z in want)),
                    want.complete)
        if op in ("lengths", "both"):
            assert length_profile(h, x) == _reference_profile(ref, y)
        if op == "classes":
            assert permutable_class_multisets(h, x) == \
                _cold_class_multisets(ref, y)


_OPS = st.sampled_from(("rigid", "lengths", "both", "classes"))


def _tight_budget(name, max_ball_size=100_000):
    """The least word cap the preset accepts: a class met through a longer
    word closes under that word's cap, and can have factorizations longer
    than its own."""
    relations = engine(name).presentation.relations
    return ExplorationBudget(max(len(w) for r in relations
                                 for w in (r.lhs, r.rhs)), max_ball_size)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(preset_names()),
       budget=st.sampled_from(("preset", "truncating", "tight")),
       warm=st.booleans(), data=st.data())
def test_length_profile_matches_the_class_multiset_walk(name, budget, warm,
                                                        data):
    budget = {"preset": None, "truncating": TRUNCATING,
              "tight": _tight_budget(name)}[budget]
    h, ref = engine(name, budget), engine(name, budget)
    gens = h.presentation.generators
    ops = data.draw(st.lists(st.tuples(_OPS, st.lists(
        st.sampled_from(gens), min_size=1, max_size=8)), max_size=16))
    if warm:
        for e in (h, ref):
            for el in e.enumerate_elements(4)[0]:
                rigid_factorizations(e, el)
    _replay(h, ref, ops, lambda e, word: e.element(tuple(word)))


_ENTRY = st.integers(-6, 6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(make=st.sampled_from((TriangularMatrixHandle, FullMatrixHandle)),
       data=st.data())
def test_matrix_length_profile_matches_the_class_multiset_walk(make, data):
    h, ref = make(2), make(2)
    lower = st.just(0) if make is TriangularMatrixHandle else _ENTRY
    matrices = st.tuples(st.tuples(_ENTRY, _ENTRY), st.tuples(lower, _ENTRY)
                         ).filter(lambda m: 1 <= abs(mat_det(m)) <= 24)
    ops = data.draw(st.lists(st.tuples(_OPS, matrices), min_size=1,
                             max_size=10))
    _replay(h, ref, ops, lambda e, m: m)


def _counting_walks(h):
    """The elements h is asked the left divisors of, from now on."""
    calls = []
    walk = h.left_divisor_atoms
    h.left_divisor_atoms = lambda el: calls.append(el) or walk(el)
    return calls


def test_length_profile_reads_a_complete_rigid_set():
    h, ref = engine("aba_ba3bc"), engine("aba_ba3bc")
    x, y = h.element_from_str("a b a a"), ref.element_from_str("a b a a")
    rigid_factorizations(h, x)
    calls = _counting_walks(h)
    _refuse_class_walks(h)
    facts = dict(h.memo.facts)
    assert length_profile(h, x) == _reference_profile(ref, y)
    assert calls == [] and h.memo.facts == facts
    # The class of c^10 a b a a escapes the word cap 16, so it is walked,
    # and its class multisets come off that rigid walk.  The walk meets
    # the quotient a b a a with 6 levels left, less than the 7 its fact
    # needs, so it walks a b a a again, as a cold walk would; no class
    # multiset is walked.
    word = ("c",) * 10 + x.word
    assert permutable_class_multisets(h, h.element(word)) == \
        _cold_class_multisets(ref, ref.element(word))
    assert h.memo.facts[h.key(x)][1] == 7
    assert x in calls


def test_length_profile_walks_without_a_complete_rigid_set():
    h, ref = engine("aba_ba3bc", TRUNCATING), engine("aba_ba3bc", TRUNCATING)
    x, y = h.element_from_str("a a b a"), ref.element_from_str("a a b a")
    assert not rigid_factorizations(h, x).complete
    calls = _counting_walks(h)
    profile = length_profile(h, x)
    assert profile == _reference_profile(ref, y) and not profile.certified
    assert calls


class _ShortCapIntegers(FactorialVectorHandle):
    """The positive integers, with a length cap one short for 8: a walk of
    8 by itself stops before [2, 2, 2] ends, but a walk of 16 meets 8 with
    the depth that factorization needs."""

    def length_cap(self, x):
        return super().length_cap(x) - (x == (8,))


def _factorization_answers(h, x):
    return (rigid_factorizations(h, x), permutable_class_multisets(h, x),
            length_profile(h, x))


def test_a_complete_result_is_read_back_only_with_its_depth_left():
    warm = _ShortCapIntegers(1)
    fs, (_, complete), profile = _factorization_answers(warm, (16,))
    assert fs.complete and complete and profile.certified
    # the walks of 16 kept 8's complete results, which need depth 3
    assert warm.memo.facts[(8,)] == ((((2,),) * 3,), 3)
    answers = _factorization_answers(warm, (8,))
    assert answers == _factorization_answers(_ShortCapIntegers(1), (8,))
    fs, (_, complete), profile = answers
    assert not (fs.complete or complete or profile.certified)


@st.composite
def _preset_words(draw):
    name = draw(st.sampled_from(preset_names()))
    gens = engine(name).presentation.generators
    word = st.lists(st.sampled_from(gens), min_size=1, max_size=6).map(tuple)
    return name, draw(st.lists(word, min_size=1, max_size=12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_preset_words())
# At word cap 4, b a = c e d e, and the class of c b a closes when it is
# met through c c e d e (cap 5): its rigid set reuses the complete set of
# b a and has the lengths 3 and 5.
@example(("ab_cd_cede_ba", [tuple("ba"), tuple("ccede")]))
def test_a_complete_rigid_set_gives_the_certified_lengths(queries):
    # At the least word cap, a class met through a longer word closes under
    # that word's cap.  Whatever was asked before, a certified element with
    # a complete rigid set has exactly its lengths, certified, both from
    # the warm engine and from the class-multiset walk of a cold one.
    name, words = queries
    budget = _tight_budget(name)
    h = engine(name, budget)
    for word in words:
        x = h.element(word)
        fs = rigid_factorizations(h, x)
        if not (x.certified and fs.complete):
            continue
        lengths = tuple(sorted({len(z.atoms) for z in fs}))
        profile = length_profile(h, x)
        assert (profile.lengths, profile.certified) == (lengths, True)
        cold = engine(name, budget)
        assert _reference_profile(cold, cold.element(word)) == profile


@st.composite
def _tight_queries(draw):
    """A preset at its least word cap with balls of 5 or 100,000, and up to
    12 rigid-set, class-multiset or length queries on words of length 1-5."""
    name = draw(st.sampled_from(preset_names()))
    ball = draw(st.sampled_from((5, 100_000)))
    gens = engine(name).presentation.generators
    word = st.lists(st.sampled_from(gens), min_size=1, max_size=5).map(tuple)
    ops = st.sampled_from(("rigid", "classes", "lengths"))
    return name, ball, draw(st.lists(st.tuples(ops, word), min_size=1,
                                     max_size=12))


def _answer(h, op, word):
    x = h.element(word)
    if op == "rigid":
        return _spelled_out(rigid_factorizations(h, x))
    if op == "classes":
        return permutable_class_multisets(h, x)
    return length_profile(h, x)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tight_queries())
# Asking for the rigid set of c once let the walk of a c b reuse entries
# searched to another depth: it found [a a b c] besides [a c b].
@example(("abc_cb", 5, [("rigid", ("c",)), ("rigid", tuple("acb")),
                        ("lengths", tuple("acb"))]))
def test_warm_engine_answers_factorization_queries_like_a_cold_one(case):
    name, ball, queries = case
    budget = _tight_budget(name, ball)
    warm = engine(name, budget)
    for op, word in queries:
        assert _answer(warm, op, word) == \
            _answer(engine(name, budget), op, word), (op, word)


def _sorted_reference(h, a):
    """The atom tuples of a cold walk and the depth it needs (None when
    they are incomplete), as the walk was first written: every
    quotient's tuples prefixed by its atom, then sorted(set(...)) by
    (length, atom keys).  A complete result is reused where the depth it
    needs is left, an incomplete one where no more depth is left than it
    was searched to."""
    cache, in_progress = {}, set()

    def rec(x, depth_left):
        if h.is_unit(x):
            return ((),), 0
        key = h.key(x)
        hit = cache.get(key)
        if hit is not None:
            result, need, depth_at = hit
            if (depth_at >= depth_left) if need is None \
                    else (need <= depth_left):
                return result, need
        if key in in_progress or depth_left <= 0:
            return (), None
        in_progress.add(key)
        pairs, complete = h.left_divisor_atoms(x)
        facts, needs = [], [0]
        for atom, quotient in pairs:
            if h.is_unit(quotient):
                facts.append((h.multiply(atom, quotient),))
                continue
            sub, sub_need = rec(quotient, depth_left - 1)
            complete = complete and sub_need is not None
            needs.append(sub_need or 0)
            facts.extend((atom,) + f for f in sub)
        in_progress.discard(key)
        result = tuple(sorted(set(facts), key=lambda f: (
            len(f), tuple(h.key(u) for u in f))))
        need = 1 + max(needs) if complete else None
        cache[key] = (result, need, depth_left)
        return result, need

    return rec(a, h.length_cap(a))


def _tuples_spelled(h, tuples):
    return [tuple((h.format_element(u), h.certified(u)) for u in t)
            for t in tuples]


def _cold_class_multisets(h, a):
    """The class multisets of a and their certification from a walk of the
    class multisets alone that starts with an empty memo: the reference
    for handles that read them off their rigid facts."""
    sets, need = _class_walk(h, {}, {}, a, h.length_cap(a))
    return frozenset(sets), need is not None and h.certified(a)


def _check_atom_tuples(make, elements, warm=True):
    """The public rigid sets, class multisets and length profiles on one
    handle against the cold reference walks on another, both asked the
    same elements in the same order: ``_sorted_reference``, and
    ``_all_divisor_class_multisets`` where that walk completes, else
    ``_cold_class_multisets``.  Unless ``warm``, both handles are new for
    every element.  Returns the last two handles and the atom tuples."""
    h, ref = make(), make()
    results = []
    for element in elements:
        if not warm:
            h, ref = make(), make()
        _refuse_class_walks(h)
        x, y = element(h), element(ref)
        fs = rigid_factorizations(h, x)
        want, need = _sorted_reference(ref, y)
        complete = need is not None and ref.certified(y)
        assert (_tuples_spelled(h, (z.atoms for z in fs)), fs.complete) == \
            (_tuples_spelled(ref, want), complete)
        if complete:
            classes = frozenset(_all_divisor_class_multisets(ref, y, {}))
        else:
            classes, complete = _cold_class_multisets(ref, y)
        assert permutable_class_multisets(h, x) == (classes, complete)
        if complete:
            # the one fact is the rigid set, kept with the depth the walk
            # needs, and the class multisets are read off it
            assert h.memo.facts[h.key(x)] == (
                tuple(tuple(map(h.key, z.atoms)) for z in fs), need)
        assert length_profile(h, x) == _profile_of(classes, complete)
        if isinstance(h, PresentationSemigroup):
            assert h.warnings == ref.warnings
        results.append(tuple(z.atoms for z in fs))
    return h, ref, results


# the parametric families whose engines read closed classes off
_FAMILIES = {"anbn(2)": (anbn, 2), "b_an_c(3)": (b_an_c, 3),
             "ab_ban(3)": (ab_ban, 3)}


def _engine(name, budget=None):
    """The preset or family engine of that name, at its own budget when
    ``budget`` is None."""
    if name not in _FAMILIES:
        return engine(name, budget)
    family, n = _FAMILIES[name]
    h = family(n)
    return h if budget is None else PresentationSemigroup(h.presentation,
                                                          budget)


@pytest.mark.parametrize("name,warm", [
    pytest.param(name, warm, id=name if warm else name + "-cold")
    for name in preset_names() + sorted(_FAMILIES) for warm in (True, False)])
@pytest.mark.parametrize("budget", [None, TRUNCATING])
def test_atom_tuples_keep_the_sorted_order(name, budget, warm):
    gens = _engine(name).presentation.generators
    words = [w for n in range(1, 6) for w in itertools.product(gens, repeat=n)]
    random.Random(name).shuffle(words)
    _check_atom_tuples(lambda: _engine(name, budget),
                       [lambda e, w=w: e.element(w) for w in words[:400]],
                       warm)


@pytest.mark.parametrize("text,merged", [
    # b = a b a is not atomic: a left-divides b a with two quotients,
    # neither of which has a factorization
    ("gens: a b\nrel: a b a = b\n", False),
    # a b = a c is not left cancellative: both quotients of a b b by a
    # factor, and their tuples are merged under the atom a
    ("gens: a b c\nrel: a b = a c\n", True),
])
def test_atom_tuples_merge_an_atom_with_two_quotients(text, merged):
    gens = parse_presentation(text).generators
    words = [w for n in range(1, 5) for w in itertools.product(gens, repeat=n)]
    h, _, results = _check_atom_tuples(
        lambda: PresentationSemigroup(parse_presentation(text)),
        [lambda e, w=w: e.element(w) for w in words])
    assert any("is not unique" in w for w in h.warnings)
    assert any(len(r) > 1 for r in results) == merged


@pytest.mark.parametrize("make", [TriangularMatrixHandle, FullMatrixHandle])
def test_matrix_atom_tuples_keep_the_sorted_order(make):
    # an atom's divisor pairs end in units, which are absorbed into it
    rng = random.Random(3)
    lower = (lambda: 0) if make is TriangularMatrixHandle \
        else (lambda: rng.randint(-5, 5))
    matrices = []
    while len(matrices) < 60:
        m = ((rng.randint(-5, 5), rng.randint(-5, 5)),
             (lower(), rng.randint(-5, 5)))
        if 2 <= abs(mat_det(m)) <= 24:
            matrices.append(m)
    _, _, results = _check_atom_tuples(lambda: make(2),
                                       [lambda e, m=m: m for m in matrices])
    assert any(len(t) == 1 for r in results for t in r)
    assert any(len(r) > 1 for r in results)


def _sweep_answers(h, x, atoms):
    """What the sweep asks about x, each certification and witness spelled
    out: almost-prime-likeness and the valuation set at every atom, the
    length profile and the rigid set."""
    answers = []
    for q in atoms:
        rep = is_almost_prime_like(h, q, [x])
        cex = None if rep.counterexample is None else (
            h.format_element(rep.counterexample[0]),
            _tuples_spelled(h, (z.atoms for z in rep.counterexample[1:])))
        vs = valuation_set(h, q, x)
        answers.append((rep.holds, rep.certified, cex, vs.values, vs.certified))
    fs = rigid_factorizations(h, x)
    return (answers, length_profile(h, x),
            _tuples_spelled(h, (z.atoms for z in fs)), fs.complete)


def _sweep_reference(ref, y, atoms):
    """``_sweep_answers`` worked out from ref's FactorizationSet of y alone
    (and, where that set is incomplete, from a walk of the class multisets
    for the lengths)."""
    fs = rigid_factorizations(ref, y)
    classes = [tuple(map(ref.atom_class, z.atoms)) for z in fs]
    answers = []
    for q in atoms:
        cls = ref.atom_class(q)
        with_q = [z for z, c in zip(fs, classes) if cls in c]
        without_q = [z for z, c in zip(fs, classes) if cls not in c]
        cex = (ref.format_element(y), _tuples_spelled(
            ref, (with_q[0].atoms, without_q[0].atoms))) \
            if with_q and without_q else None
        values = (0,) if ref.is_unit(y) else tuple(sorted(
            {c.count(cls) for c in classes}))
        answers.append((cex is None, cex is not None or fs.complete, cex,
                        values, fs.complete))
    if fs.complete:
        lengths = _profile_of({z.atoms for z in fs}, True)
    else:
        lengths = _reference_profile(ref, y)
    return (answers, lengths, _tuples_spelled(ref, (z.atoms for z in fs)),
            fs.complete)


@pytest.mark.parametrize("name,warm", [
    pytest.param(name, warm, id=name if warm else name + "-cold")
    for name in preset_names() + sorted(_FAMILIES) for warm in (True, False)])
@pytest.mark.parametrize("budget", [None, TRUNCATING])
def test_sweep_queries_read_the_fact_like_a_cold_factorization_set(
        name, budget, warm):
    # The sweep's queries read each element's fact in the memo and build
    # no FactorizationSet; a cold engine's sets are the reference, for the
    # values, the witnesses, every certification and the warnings.
    gens = _engine(name).presentation.generators
    words = [w for n in range(1, 6) for w in itertools.product(gens, repeat=n)]
    random.Random(name).shuffle(words)
    h = _engine(name, budget)
    warnings = []
    for word in words[:150]:
        if not warm:
            h = _engine(name, budget)
        ref = _engine(name, budget)
        atoms = [h.element((g,)) for g in gens]
        atoms = [q for q in atoms if h.is_atom(q)]
        ref_atoms = [ref.element(q.word) for q in atoms]
        assert _sweep_answers(h, h.element(word), atoms) == \
            _sweep_reference(ref, ref.element(word), ref_atoms)
        warnings += [w for w in ref.warnings if w not in warnings]
        assert h.warnings == (warnings if warm else ref.warnings)


def _all_divisor_class_multisets(h, a, cache):
    """permutable_class_multisets as it was: the class multisets of a, built
    from those of its quotients by every atom that divides it."""
    def rec(x):
        if h.is_unit(x):
            return {()}
        key = h.key(x)
        if key not in cache:
            pairs, complete = h.left_divisor_atoms(x)
            assert complete
            cache[key] = {tuple(sorted(m + (h.atom_class(u),)))
                          for u, q in pairs for m in rec(q)}
        return cache[key]
    return rec(a)


def _brute_block_divisors(h, x):
    """Every atom of h that is a sub-multiset of x, in atom order, with the
    rest of x."""
    have = Counter(x)
    out = []
    for atom in h.atoms:
        if not Counter(atom) - have:
            rest = have - Counter(atom)
            out.append((atom, tuple(sorted(rest.elements()))))
    return out


_COVER_GROUPS = {g: BlockMonoidHandle(FiniteAbelianGroup(g))
                 for g in ((2, 2, 2), (5,), (6,), (2, 4), (3, 3))}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(g=st.sampled_from(sorted(_COVER_GROUPS)), data=st.data())
def test_cover_recursion_matches_the_all_divisor_recursion(g, data):
    h = _COVER_GROUPS[g]
    # a sorted zero-sum sequence: random terms, closed by the negated sum
    terms = data.draw(st.lists(st.sampled_from(h.subset), min_size=1,
                               max_size=9))
    last = h.group.neg(sequence_sum(h.group, terms))
    x = h.sequence(terms + ([last] if last != h.group.zero() else []))
    expected = _all_divisor_class_multisets(h, x, {})
    sets, complete = permutable_class_multisets(h, x)
    assert complete and sets == expected
    # a fresh handle, whose memo holds nothing the warm one met before
    fresh = BlockMonoidHandle(h.group)
    assert permutable_class_multisets(fresh, x) == (expected, True)
    pairs, complete = h.left_divisor_atoms(x)
    assert complete and pairs == _brute_block_divisors(h, x)
    cover, complete = h.covering_divisor_atoms(x)
    assert complete and cover == [(u, q) for u, q in pairs if u[0] == x[0]]
    assert all(any(u in m for u, _ in cover) for m in expected)


def _brute_vector_divisors(x):
    out = []
    for i, c in enumerate(x):
        for p in range(2, c + 1):
            if c % p == 0 and all(p % d for d in range(2, p)):
                out.append((tuple(p if j == i else 1 for j in range(len(x))),
                            x[:i] + (c // p,) + x[i + 1:]))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.integers(1, 96)] * n)))
def test_vector_cover_recursion_matches_the_all_divisor_recursion(x):
    h = FactorialVectorHandle(len(x))
    expected = _all_divisor_class_multisets(h, x, {})
    assert permutable_class_multisets(h, x) == (expected, True)
    pairs, complete = h.left_divisor_atoms(x)
    assert complete and pairs == _brute_vector_divisors(x)
    cover, complete = h.covering_divisor_atoms(x)
    assert complete and len(cover) == (0 if h.is_unit(x) else 1)
    assert cover == pairs[:1]


@pytest.mark.parametrize("x", [(4,), (4, 1, 1), (2.0, 3), (-4, 1), (0, 2),
                               (True, 2), [4, 1]])
@pytest.mark.parametrize("query", [length_profile, rigid_factorizations,
                                   permutable_class_multisets, catenary])
def test_vector_handle_rejects_a_non_element(query, x):
    # only two integers >= 1 are an element of (N_{>0})^2: a short, long,
    # float, non-positive or boolean vector, or a list, is refused by name
    h = FactorialVectorHandle(2)
    with pytest.raises(ValueError, match=re.escape(
            f"vector {x!r} is not 2 integers >= 1")):
        query(h, x)
    assert length_profile(h, (4, 1)).lengths == (2,)


def _walked(h, word):
    """The elements whose left divisors h is asked for while answering the
    rigid set, the class multisets and the lengths of a cold element."""
    calls = _counting_walks(h)
    x = h.element(word)
    rigid_factorizations(h, x)
    permutable_class_multisets(h, x)
    length_profile(h, x)
    return calls


def test_a_closed_class_of_an_all_letter_atom_engine_is_read_off():
    # aba_ba3bc is Adyan with no one-letter relation side, and at word cap
    # 36 every class of length <= 7 closes within the cap: no walk runs
    h = engine("aba_ba3bc", ExplorationBudget(36, 200_000))
    calls = _counting_walks(h)
    els, complete = h.enumerate_elements(7)
    assert complete and len(els) == 3272
    for el in els:
        rigid_factorizations(h, el)
        permutable_class_multisets(h, el)
        length_profile(h, el)
    assert calls == []


def test_the_walk_runs_where_nothing_is_read_off():
    # a one-letter relation side: b is not an atom
    assert _walked(engine("aba_b"), ("b",))
    # not Adyan, and not left cancellative: the walk warns
    h = PresentationSemigroup(parse_presentation(
        "gens: a b c\nrel: a b = a c\n"))
    assert _walked(h, tuple("abb"))
    assert any("is not unique" in w for w in h.warnings)
    # a one-letter relation side: c = a b is not an atom
    h = PresentationSemigroup(parse_presentation(
        "gens: a b c\nrel: a b = c\n"))
    assert _walked(h, ("c",))
    assert [z.format(h) for z in rigid_factorizations(h, h.element(("c",)))
            ] == ["[a, b]"]
    # at word cap 3 the class of a c b holds a a b c, longer than the cap
    h = engine("abc_cb", ExplorationBudget(3, 5))
    assert _walked(h, tuple("acb"))
    # The class of a a a b c closes under that word's own cap 5, but a walk
    # from it meets the quotient a c b, whose ball escapes at cap 3.
    x = Element(tuple("aaabc"))
    assert h.congruence_ball(x.word).closed
    assert not rigid_factorizations(h, x).complete
    assert not permutable_class_multisets(h, x)[1]


# an atom's class is its key on every reduced handle -------------------------


def _presentation_elements():
    h = engine("ab_cd")
    return h, h.enumerate_elements(4)[0]


def _abelianization_elements():
    ab = abelianize(engine("ab_cd"))
    return ab, [ab.element(v) for v in _vectors_up_to(ab.n, 4)[1:]]


def _block_elements():
    group = FiniteAbelianGroup((2, 2))
    return BlockMonoidHandle(group), list(zero_sum_sequences(group, None, 6))


def _vector_elements():
    h = FactorialVectorHandle(2)
    return h, h.enumerate_elements(12)[0]


@pytest.mark.parametrize("reduced_handle", [
    _presentation_elements, _abelianization_elements, _block_elements,
    _vector_elements], ids=["presentation", "abelianization", "B(C2+C2)",
                            "(N>0)^2"])
def test_an_atom_class_is_its_key_on_a_reduced_handle(reduced_handle):
    # so a rigid fact is (atom-key tuples, need), its tuples are their own
    # classes, and a class node is shown by the atoms of its multiset
    h, elements = reduced_handle()
    assert h.reduced and elements
    for a in elements:
        for z in rigid_factorizations(h, a):
            assert [h.atom_class(u) for u in z.atoms] \
                == [h.key(u) for u in z.atoms]
        nodes, _, rigid = _class_nodes(h, a)
        for node in nodes:
            z = rigid(node)
            assert class_multiset(h, z) == node.classes
            assert h.key(h.product(z.atoms)) == h.key(a)
    assert h.memo.facts
    for fact in h.memo.facts.values():
        tuples, need = fact
        assert type(tuples) is tuple and type(need) is int


_ORDERLESS = {
    "B(C3)": lambda: BlockMonoidHandle(FiniteAbelianGroup((3,))),
    "B(C2+C2)": lambda: BlockMonoidHandle(FiniteAbelianGroup((2, 2))),
    "B(C2+C4)": lambda: BlockMonoidHandle(FiniteAbelianGroup((2, 4))),
    "(N>0)^1": lambda: FactorialVectorHandle(1),
    "(N>0)^2": lambda: FactorialVectorHandle(2),
}


def _orderless_sample(h):
    """Certified elements of the orderless handle h, and atoms to ask
    about: zero-sum sequences to length 6, or small vectors."""
    if isinstance(h, BlockMonoidHandle):
        return (list(zero_sum_sequences(h.group, None, 6)),
                atoms_of_block_monoid(h.group)[:3])
    if h.n == 1:
        return [(k,) for k in range(2, 200)], [(2,), (3,), (7,)]
    return h.enumerate_elements(12)[0], [(2, 1), (3, 1), (1, 2)]


def _brute_omega(h, a, b, listing):
    """omega_p(a, b) as its definition reads over the full rigid listing:
    the worst least subproduct k, and the first factorization reaching
    it; 0 where b does not divide a up to permutation."""
    if not divides_p(h, b, a).holds:
        return OmegaReport(b, "atoms", 0, True)
    value, certified, witness = 0, listing.complete, None
    for z in listing:
        k, idxs, cert = min_subproduct_k(h, z.atoms, b)
        certified = certified and cert
        if k > value:
            value, witness = k, OmegaWitness(a, z.atoms, k, idxs)
    return OmegaReport(b, "atoms", value, certified, witness)


@pytest.mark.parametrize("make", _ORDERLESS.values(), ids=_ORDERLESS)
def test_the_orderless_rigid_layer_is_the_orderings_of_the_multisets(
        make, monkeypatch):
    # an orderless handle keeps one sorted tuple per class multiset; its
    # rigid factorizations, valuation sets, almost-prime-likeness and
    # omega are read off them, with no rigid walk, and equal the rigid
    # walk's answers and the definitions over the full rigid listing
    h, ref = make(), make()
    walk = factorizations._rigid_walk

    def reference_walk(handle, *args):
        assert handle is ref, "an orderless handle walked its rigid layer"
        return walk(handle, *args)
    monkeypatch.setattr(factorizations, "_rigid_walk", reference_walk)
    elements, atoms = _orderless_sample(h)
    divisors = atoms + [h.multiply(atoms[0], atoms[1])]
    for a in elements:
        if h.is_unit(a):
            continue
        listing = rigid_factorizations(h, a)
        tuples, need = reference_walk(ref, {}, {}, set(), a,
                                      ref.length_cap(a))
        assert listing.complete and need is not None
        assert [tuple(map(h.key, z.atoms)) for z in listing] == list(tuples)
        for q in atoms:
            counts = [z.atoms.count(q) for z in listing]
            assert valuation_set(h, q, a) == (
                q, a, tuple(sorted(set(counts))), True)
            with_q = [z for z, c in zip(listing, counts) if c]
            without_q = [z for z, c in zip(listing, counts) if not c]
            want = (q, True, True, None) if not (with_q and without_q) \
                else (q, False, True, (a, with_q[0], without_q[0]))
            assert is_almost_prime_like(h, q, [a]) == want
        for b in divisors:
            assert omega_element(h, a, b) == _brute_omega(ref, a, b, listing)


def test_factorial_vector_classes_are_atom_vectors():
    h = FactorialVectorHandle(2)
    assert permutable_class_multisets(h, (6, 5)) == (
        frozenset({((1, 5), (2, 1), (3, 1))}), True)
