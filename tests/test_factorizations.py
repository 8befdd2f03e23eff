from fractions import Fraction

import pytest

from factorum.factorizations import (FactorizationSet, RigidFactorization,
                                     _atom_tuples, length_profile,
                                     permutable_class_multisets,
                                     permutable_factorizations,
                                     rigid_factorizations)
from factorum.presentation import (Element, ExplorationBudget,
                                   PresentationSemigroup, parse_presentation)
from factorum.presets import ab_ban, anbn, engine


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


def test_half_factoriality_detector():
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
    """rigid_factorizations without the set memo, as a reference."""
    tuples, complete = _atom_tuples(h, a)
    return FactorizationSet(tuple(RigidFactorization(t, a) for t in tuples),
                            complete and h.certified(a))


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
    # A complete set is built once and then served from the memo; an
    # incomplete one is rebuilt on every call.  A second engine asked the
    # same queries in the same order rebuilds every set.
    h, reference = engine(name, budget), engine(name, budget)
    els, _ = h.enumerate_elements(4)
    reference.enumerate_elements(4)
    seen = set()
    for el in els:
        ref_el = reference.element(el.word)
        first = rigid_factorizations(h, el)
        assert _spelled_out(first) == _spelled_out(_rebuilt(reference, ref_el))
        again = rigid_factorizations(h, el)
        assert _spelled_out(again) == _spelled_out(_rebuilt(reference, ref_el))
        assert (again is first) == first.complete
        assert all(z.product == el and h.product(z.atoms) == el for z in again)
        seen.add(first.complete)
    assert seen == completeness


def test_factorization_set_memo_checks_the_element_certified():
    h = engine("abc_cb")
    el = h.element_from_str("a b c")
    assert rigid_factorizations(h, el).complete
    fs = rigid_factorizations(h, Element(el.word, False))
    assert not fs.complete and all(z.product == el for z in fs)


def test_incomplete_set_of_a_certified_element_is_rebuilt():
    # At word cap 3 the class of aaabc = aacb is closed, but the ball of its
    # factor acb escapes, so the search below it cannot certify.
    h = engine("abc_cb", ExplorationBudget(3, 5))
    el = h.element(tuple("aaabc"))
    first = rigid_factorizations(h, el)
    assert el.certified and not first.complete
    again = rigid_factorizations(h, el)
    assert again is not first and _spelled_out(again) == _spelled_out(first)
