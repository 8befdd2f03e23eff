import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorum.catenary import catenary
from factorum.factorizations import (length_profile,
                                     permutable_class_multisets,
                                     rigid_factorizations)
from factorum.zerosum import (BlockMonoidHandle, FiniteAbelianGroup,
                              GroupTooLarge, atoms_of_block_monoid,
                              block_catenary, davenport, invariant_factors,
                              maximal_order_bound, sequence_sum,
                              zero_sum_sequences)


# independent oracle: enumerate all multisets outright and test minimality

def brute_atoms(group, max_len):
    support = group.elements()
    zero = group.zero()
    out = []
    for n in range(1, max_len + 1):
        for seq in itertools.combinations_with_replacement(support, n):
            if sequence_sum(group, seq) != zero:
                continue
            minimal = True
            for k in range(1, n):
                for sub in set(itertools.combinations(seq, k)):
                    if sequence_sum(group, sub) == zero:
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                out.append(tuple(sorted(seq)))
    return sorted(set(out), key=lambda a: (len(a), a))


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (5,)])
def test_atoms_match_brute_force(orders):
    group = FiniteAbelianGroup(orders)
    assert atoms_of_block_monoid(group) == brute_atoms(group, group.order)


def test_atoms_c2():
    group = FiniteAbelianGroup((2,))
    assert atoms_of_block_monoid(group) == [((0,),), ((1,), (1,))]


def test_atom_lengths_c3():
    group = FiniteAbelianGroup((3,))
    atoms = atoms_of_block_monoid(group)
    assert sorted({len(a) for a in atoms}) == [1, 2, 3]
    assert ((1,), (1,), (1,)) in atoms   # g g g for g != 0


def test_atoms_trivial_group():
    group = FiniteAbelianGroup((1,))
    assert atoms_of_block_monoid(group) == [((0,),)]


@pytest.mark.parametrize("orders,term", [((3,), (3,)), ((3,), (0, 5))],
                         ids=["unreduced", "wrong-rank"])
def test_every_subset_reader_refuses_a_non_element(orders, term):
    # one rule for the subset, checked before anything is listed or yielded
    group = FiniteAbelianGroup(orders)
    message = re.escape(f"{term} is not a reduced element of the group")
    for make in (lambda s: next(zero_sum_sequences(group, s, 3)),
                 lambda s: atoms_of_block_monoid(group, s),
                 lambda s: BlockMonoidHandle(group, s)):
        with pytest.raises(ValueError, match=message):
            make([term, (1,)])
    assert list(zero_sum_sequences(group, [(2,), (1,), (1,)], 3)) == [
        ((1,), (1,), (1,)), ((1,), (2,)), ((2,), (2,), (2,))]


def test_atoms_are_minimal_zero_sum():
    group = FiniteAbelianGroup((3, 3))
    for atom in atoms_of_block_monoid(group):
        assert sequence_sum(group, atom) == group.zero()
        for k in range(1, len(atom)):
            for sub in set(itertools.combinations(atom, k)):
                assert sequence_sum(group, sub) != group.zero()


def test_pigeonhole_bound():
    # any sequence of length |G| has a nonempty consecutive-partial-sum
    # zero-sum subsequence, so minimal zero-sum sequences have length <= |G|
    for orders in ((4,), (2, 2), (5,)):
        group = FiniteAbelianGroup(orders)
        n = group.order
        for seq in itertools.product(group.elements(), repeat=n):
            partial = []
            total = group.zero()
            for g in seq:
                total = group.add(total, g)
                partial.append(total)
            found = group.zero() in partial or \
                len(set(partial)) < len(partial)
            assert found
        assert davenport(group) <= n


@pytest.mark.parametrize("n", range(1, 9))
def test_davenport_cyclic(n):
    assert davenport(FiniteAbelianGroup((n,))) == n


def test_davenport_products():
    assert davenport(FiniteAbelianGroup((2, 2))) == 3
    assert davenport(FiniteAbelianGroup((3, 3))) == 5
    assert davenport(FiniteAbelianGroup((1,))) == 1


def test_davenport_at_least_exponent():
    for orders in ((4,), (2, 4), (3, 3)):
        group = FiniteAbelianGroup(orders)
        atoms = atoms_of_block_monoid(group)
        # witnessed by g^{ord(g)} for a maximal-order element
        g = max(group.elements(), key=group.element_order)
        witness = tuple([g] * group.element_order(g))
        assert witness in atoms
        assert davenport(group) >= group.exponent


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        atoms_of_block_monoid(FiniteAbelianGroup((65,)))
    # the cap is checked before the group is listed: listing C_(10^20)
    # would end in an OverflowError
    with pytest.raises(GroupTooLarge):
        BlockMonoidHandle(FiniteAbelianGroup((10 ** 20,)))


def test_invariant_factors():
    assert invariant_factors(FiniteAbelianGroup((6,))) == (6,)
    assert invariant_factors(FiniteAbelianGroup((2, 3))) == (6,)
    assert invariant_factors(FiniteAbelianGroup((2, 4))) == (2, 4)
    assert invariant_factors(FiniteAbelianGroup((2, 2, 2))) == (2, 2, 2)
    assert invariant_factors(FiniteAbelianGroup((1,))) == ()


# the handle ---------------------------------------------------------------

def direct_partition_lengths(handle, seq):
    """Independent counter: lengths of partitions of seq into atoms."""
    if not seq:
        return {0}
    out = set()
    atoms = [a for a in handle.atoms if Counter(seq) >= Counter(a)
             and (not a or a[0] == seq[0])]
    for atom in atoms:
        rest = list(seq)
        for g in atom:
            rest.remove(g)
        for n in direct_partition_lengths(handle, tuple(rest)):
            out.add(n + 1)
    return out


def test_handle_lengths_match_direct_counter():
    for orders in ((3,), (2, 2), (4,)):
        group = FiniteAbelianGroup(orders)
        handle = BlockMonoidHandle(group)
        for seq in zero_sum_sequences(group, None, 8):
            if len(seq) > 8:
                continue
            L = length_profile(handle, seq)
            assert set(L.lengths) == direct_partition_lengths(handle, seq)


def test_block_monoid_example_c3():
    group = FiniteAbelianGroup((3,))
    handle = BlockMonoidHandle(group)
    S = handle.sequence([(1,)] * 3 + [(2,)] * 3)
    assert length_profile(handle, S).lengths == (2, 3)


def test_block_monoid_atom_single_factorization():
    group = FiniteAbelianGroup((3,))
    handle = BlockMonoidHandle(group)
    atom = handle.atoms[-1]
    fs = rigid_factorizations(handle, atom)
    assert len(fs) == 1 and fs.factorizations[0].atoms == (atom,)


def test_block_monoid_c22_catenary_example():
    group = FiniteAbelianGroup((2, 2))
    handle = BlockMonoidHandle(group)
    U = handle.sequence([(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)])
    assert catenary(handle, U).value == 3


def test_block_catenary_values():
    assert block_catenary(FiniteAbelianGroup((3,)),
                          max_sequence_length=6).value == 3
    assert block_catenary(FiniteAbelianGroup((2, 2)),
                          max_sequence_length=6).value == 3
    rep = block_catenary(FiniteAbelianGroup((2,)), max_sequence_length=8)
    assert rep.value == 0   # half-factorial: computed Delta is empty


def test_c2_block_monoid_has_one_length_per_element():
    group = FiniteAbelianGroup((2,))
    handle = BlockMonoidHandle(group)
    for seq in zero_sum_sequences(group, None, 8):
        assert length_profile(handle, seq).delta == ()


def test_sup_delta_le_catenary():
    group = FiniteAbelianGroup((3,))
    handle = BlockMonoidHandle(group)
    for seq in zero_sum_sequences(group, None, 6):
        L = length_profile(handle, seq)
        if L.delta:
            assert max(L.delta) <= catenary(handle, seq).value


def test_maximal_order_bounds():
    triv = maximal_order_bound(FiniteAbelianGroup((1,)))
    assert triv.bound == 2 and "d_sim-factorial" in triv.classification
    c2 = maximal_order_bound(FiniteAbelianGroup((2,)))
    assert c2.bound == 2 and "|C| <= 2" in c2.classification
    c4 = maximal_order_bound(FiniteAbelianGroup((4,)))
    assert c4.bound == 4 and c4.computed_catenary == 4
    assert "= 4" in c4.classification
    c3 = maximal_order_bound(FiniteAbelianGroup((3,)))
    assert c3.bound == 3 and "= 3" in c3.classification
    # certified only where the classification fixes the bound
    assert triv.certified and c2.certified and c4.certified and c3.certified
    c5 = maximal_order_bound(FiniteAbelianGroup((5,)))
    assert c5.bound == 5 and not c5.certified
    short = maximal_order_bound(FiniteAbelianGroup((2, 2, 2)),
                                max_sequence_length=4)
    assert short.computed_catenary < 4 and not short.certified


def brute_sub_multisets(seq):
    # every sub-multiset of seq, each with one complement, by index subsets
    out = {}
    for k in range(len(seq) + 1):
        for idx in itertools.combinations(range(len(seq)), k):
            sub = tuple(seq[i] for i in idx)
            out.setdefault(sub, tuple(g for i, g in enumerate(seq)
                                      if i not in idx))
    return out


@pytest.mark.parametrize("orders", [(2, 2, 2), (3, 3)])
def test_divisor_kernel_matches_brute_sub_multisets(orders):
    group = FiniteAbelianGroup(orders)
    h = BlockMonoidHandle(group)
    seqs = list(zero_sum_sequences(group, None, 6))
    short = [s for s in seqs if len(s) <= 3]
    for x in seqs:
        subs = brute_sub_multisets(x)
        pairs, complete = h.left_divisor_atoms(x)
        assert complete
        assert pairs == [(atom, subs[atom]) for atom in h.atoms
                         if atom in subs]
        for b in set(h.atoms) | set(short):
            assert h.leftright_divides(b, x) == (b in subs)


@st.composite
def _restricted_block_monoids(draw):
    # small G (cyclic, C2+C4, C5) and a random nonempty subset G_P
    orders = draw(st.sampled_from([(2,), (3,), (4,), (6,), (2, 4), (5,)]))
    group = FiniteAbelianGroup(orders)
    subset = draw(st.lists(st.sampled_from(group.elements()), min_size=1,
                           unique=True))
    return BlockMonoidHandle(group, subset)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(h=_restricted_block_monoids(), data=st.data())
def test_divisor_kernel_matches_brute_on_restricted_subsets(h, data):
    # a member of B(G_P): a product of atoms over G_P, at most ten terms
    x = ()
    for atom in data.draw(st.lists(st.sampled_from(h.atoms), min_size=1,
                                   max_size=4)):
        if len(x) + len(atom) <= 10:
            x = tuple(sorted(x + atom))
    subs = brute_sub_multisets(x)
    pairs, complete = h.left_divisor_atoms(x)
    assert complete
    assert pairs == [(atom, subs[atom]) for atom in h.atoms if atom in subs]
    # candidate divisors: every atom, every sub-multiset of x, and random
    # sequences over G_P, most of which are not
    others = data.draw(st.lists(st.lists(st.sampled_from(h.subset),
                                         max_size=4), max_size=4))
    for b in set(h.atoms) | set(subs) | {tuple(sorted(o)) for o in others}:
        assert h.leftright_divides(b, x) == (b in subs)


def test_non_members_are_rejected():
    c3 = BlockMonoidHandle(FiniteAbelianGroup((3,)))
    restricted = BlockMonoidHandle(FiniteAbelianGroup((3,)), [(0,), (1,)])
    for h, x in [(c3, ((1,), (1,))), (restricted, ((2,), (1,))),
                 (restricted, ((1,), (2,))), (c3, ((2,), (1,)))]:
        for query in (catenary, length_profile, rigid_factorizations):
            with pytest.raises(ValueError, match=re.escape(repr(x))):
                query(h, x)
    with pytest.raises(ValueError, match="outside G_P"):
        restricted.sequence([(2,), (1,)])
    with pytest.raises(ValueError, match="zero sum"):
        c3.sequence([(1,), (1,)])
    # members, the empty sequence among them, still answer
    assert length_profile(restricted, ((1,),) * 3).lengths == (1,)
    assert catenary(c3, ()).value == 0


_C2_C4 = FiniteAbelianGroup((2, 4))
_MEMBER = ((0, 1),) * 4 + ((1, 0),) * 2


@pytest.mark.parametrize("x, message", [
    (tuple(reversed(_MEMBER)), "not sorted"),
    (((0, 1), (1, 0)), "zero sum"),
    (list(_MEMBER), "not sorted"),
], ids=["unsorted", "non-zero-sum", "unhashable-list"])
def test_require_element_rejects_non_members_on_a_warm_memo(x, message):
    h = BlockMonoidHandle(_C2_C4)
    catenary(h, _MEMBER)
    # the sequence and its quotients are memo keys, and pass at once
    assert _MEMBER in h.memo.facts and len(h.memo.facts) > 1
    for key in h.memo.facts:
        h.require_element(key)
    with pytest.raises(ValueError, match=message):
        h.require_element(x)
    with pytest.raises(ValueError, match=message):
        catenary(h, x)


class _CountedMemo(dict):
    """A memo dict that records the key of every lookup and store."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def get(self, key, default=None):
        self.seen.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.append(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.seen.append(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.seen.append(key)
        super().__setitem__(key, value)


def test_a_class_query_hashes_its_key_once_on_a_hit():
    # A hit is one lookup and no check: a memo key is an element.  A miss
    # is checked, then walked from the lookup it made, and stored.
    h = BlockMonoidHandle(_C2_C4)
    memo = h.memo.facts = _CountedMemo()
    checked = []
    check = h.require_element
    h.require_element = lambda x: checked.append(x) or check(x)
    first = permutable_class_multisets(h, _MEMBER)
    assert memo.seen.count(_MEMBER) == 2 and checked == [_MEMBER]
    memo.seen.clear()
    assert permutable_class_multisets(h, _MEMBER) == first
    assert memo.seen == [_MEMBER] and checked == [_MEMBER]
