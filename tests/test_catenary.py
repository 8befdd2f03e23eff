import pytest

from factorum.catenary import (VARIANTS, adjacent_catenary, catenary,
                               catenary_in_fibers, equal_catenary,
                               monotone_catenary, semigroup_catenary)
from factorum.distances import DistanceKind, distance
from factorum.factorizations import length_profile, rigid_factorizations
from factorum.matrices import TriangularMatrixHandle, delta_transfer_map
from factorum.presentation import PresentationSemigroup, parse_presentation
from factorum.presets import ab_ban, anbn, engine
from factorum.zerosum import BlockMonoidHandle, FiniteAbelianGroup


def test_catenary_abc_cb():
    h = engine("abc_cb")
    rep = catenary(h, h.element_from_str("a b c"), DistanceKind.PERMUTABLE)
    assert rep.value == 1 and rep.certified
    # witness chain: consecutive distances within the bound, same product
    steps = rep.witness.steps
    assert all(distance(h, DistanceKind.PERMUTABLE, x, y) <= rep.value
               for x, y in zip(steps, steps[1:]))
    assert len({h.key(z.product) for z in steps}) == 1


def test_catenary_anbn():
    h = anbn(2)
    el = h.element_from_str("a a b b")
    assert catenary(h, el, DistanceKind.PERMUTABLE).value == 0
    assert catenary(h, el, DistanceKind.RIGID).value == 4


def test_catenary_atom_zero():
    h = engine("abc_cb")
    assert catenary(h, h.element_from_str("a")).value == 0


def test_catenary_ab_ban_n4():
    # c_p(a^m b) = n - 2 at (m, n) = (2, 4)
    h = ab_ban(4, 14)
    rep = catenary(h, h.element_from_str("a a b"), DistanceKind.PERMUTABLE)
    assert rep.value == 2 and rep.certified


def test_variants_abc_cb():
    h = engine("abc_cb")
    el = h.element_from_str("a b c")
    assert equal_catenary(h, el).value == 0
    assert adjacent_catenary(h, el).value == 1
    assert monotone_catenary(h, el).value == 1


def test_variants_atom():
    h = engine("abc_cb")
    el = h.element_from_str("b")
    for fn in (catenary, equal_catenary, adjacent_catenary, monotone_catenary):
        assert fn(h, el).value == 0


def test_chain_inequality_and_bounds():
    # c_d(a) <= c_mon(a) <= sup L(a); sup Delta <= c_d(a)
    for h in (engine("abc_cb"), ab_ban(3), anbn(2)):
        els, _ = h.enumerate_elements(4)
        for el in els:
            for kind in (DistanceKind.PERMUTABLE, DistanceKind.RIGID):
                c = catenary(h, el, kind).value
                cmon = monotone_catenary(h, el, kind).value
                L = length_profile(h, el)
                assert c <= cmon <= max(L.lengths)
                if L.delta:
                    assert max(L.delta) <= c


def test_catenary_zero_iff_single_class():
    from factorum.factorizations import permutable_factorizations
    h = engine("abc_cb")
    els, _ = h.enumerate_elements(4)
    for el in els:
        pfs, _ = permutable_factorizations(h, el)
        assert (catenary(h, el).value == 0) == (len(pfs) == 1)


def test_catenary_le_one_implies_interval():
    for h in (engine("abc_cb"), ab_ban(3)):
        els, _ = h.enumerate_elements(4)
        for el in els:
            if catenary(h, el).value <= 1:
                L = length_profile(h, el).lengths
                assert L == tuple(range(min(L), max(L) + 1))


def test_threshold_connectivity_exactness():
    # with edges <= N the factorization graph is connected; <= N-1 it is not
    h = ab_ban(4, 14)
    el = h.element_from_str("a a b")
    fs = list(rigid_factorizations(h, el))
    n = catenary(h, el, DistanceKind.PERMUTABLE).value
    assert n > 0

    def connected(bound):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(len(fs)):
                if j not in seen and distance(
                        h, DistanceKind.PERMUTABLE, fs[i], fs[j]) <= bound:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(fs)

    assert connected(n) and not connected(n - 1)


def monotone_catenary_direct(handle, a, kind, max_factorizations=12):
    """Direct monotone-chain search over the rigid factorizations, the
    oracle for ``monotone_catenary`` (exponential, so gated to tiny
    instances): for each pair, the least bound at which a chain of steps
    within the bound joins them with lengths that never decrease."""
    facts = list(rigid_factorizations(handle, a))
    if len(facts) > max_factorizations:
        raise ValueError("instance too large for the direct monotone search")
    n = len(facts)
    mat = [[distance(handle, kind, x, y) for y in facts] for x in facts]

    def connected_monotone(i, j, bound):
        if facts[i].length > facts[j].length:
            i, j = j, i
        lo, hi = facts[i].length, facts[j].length
        seen = {i}
        queue = [i]
        while queue:
            u = queue.pop()
            if u == j:
                return True
            for v in range(n):
                if v in seen or mat[u][v] > bound:
                    continue
                if facts[u].length <= facts[v].length <= hi and facts[v].length >= lo:
                    seen.add(v)
                    queue.append(v)
        return j in seen

    value = 0
    for i in range(n):
        for j in range(i + 1, n):
            bound = 0
            while not connected_monotone(i, j, bound):
                bound += 1
            value = max(value, bound)
    return value


def test_monotone_decomposition_matches_direct_search():
    checked = 0
    for h in (engine("abc_cb"), ab_ban(3), ab_ban(4, 14), anbn(2)):
        els, _ = h.enumerate_elements(4)
        for el in els:
            fs = rigid_factorizations(h, el)
            if not fs.complete or len(fs) > 12:
                continue
            for kind in (DistanceKind.PERMUTABLE, DistanceKind.RIGID):
                direct = monotone_catenary_direct(h, el, kind)
                assert monotone_catenary(h, el, kind).value == direct
                checked += 1
    assert checked > 20


def test_fibers_commutative_identity_bounded_by_two():
    from factorum.matrices import identity_transfer_map
    from factorum.zerosum import zero_sum_sequences
    G = FiniteAbelianGroup((3,))
    h = BlockMonoidHandle(G)
    idmap = identity_transfer_map(h)
    for seq in zero_sum_sequences(G, None, 6):
        rep = catenary_in_fibers(h, seq, DistanceKind.RIGID, idmap)
        assert rep.value <= 2


def test_fibers_single_factorization_zero():
    h = engine("abc_cb")
    rep = catenary_in_fibers(h, h.element_from_str("a"), DistanceKind.RIGID,
                             __import__("factorum.matrices",
                                        fromlist=["identity_transfer_map"]
                                        ).identity_transfer_map(h))
    assert rep.value == 0


def test_fibers_bound_on_t2():
    # c_d(a) <= max{c_p(delta(a)), c_d(a, delta)}; the image is factorial
    h = TriangularMatrixHandle(2)
    dmap = delta_transfer_map(h)
    samples = [((2, 1), (0, 3)), ((4, 2), (0, 3)), ((2, 5), (0, 2)),
               ((6, 0), (0, 2)), ((-2, 3), (0, 4))]
    for A in samples:
        for kind in (DistanceKind.PERMUTABLE, DistanceKind.RIGID):
            cd = catenary(h, A, kind).value
            cfib = catenary_in_fibers(h, A, kind, dmap).value
            assert cd <= max(0, cfib)


def test_semigroup_catenary():
    h = anbn(2, 8)
    els, complete = h.enumerate_elements(8)
    rep_p = semigroup_catenary(h, els, DistanceKind.PERMUTABLE)
    assert rep_p.value == 0
    rep_r = semigroup_catenary(h, els, DistanceKind.RIGID)
    assert rep_r.value >= 4

    free = PresentationSemigroup(parse_presentation("gens: a b\n"))
    fels, _ = free.enumerate_elements(5)
    for kind in DistanceKind:
        assert semigroup_catenary(free, fels, kind).value == 0


@pytest.mark.parametrize("kind", ["length", "permutable", "rigid"])
def test_catenary_refuses_a_kind_that_is_not_a_distance_kind(kind):
    h = engine("abc_cb")
    el = h.element_from_str("a b c")
    with pytest.raises(ValueError, match=f"unknown distance kind {kind!r}"):
        catenary(h, el, kind)
    with pytest.raises(ValueError, match=f"unknown distance kind {kind!r}"):
        semigroup_catenary(h, [el], kind)
    # refused at the top, though an empty scope reaches no graph
    with pytest.raises(ValueError, match=f"unknown distance kind {kind!r}"):
        semigroup_catenary(h, [], kind)


def test_semigroup_catenary_refuses_an_unknown_variant():
    h = engine("abc_cb")
    el = h.element_from_str("a b c")
    with pytest.raises(ValueError, match="'foo'.*plain, equal, adjacent, "
                                         "monotone"):
        semigroup_catenary(h, [el], DistanceKind.PERMUTABLE, "foo")


def _element_sup(fn, handle, elements, kind):
    """The semigroup value as the sup of the element reports: the first
    element of the largest value, and its witness."""
    best = None
    certified = True
    for a in elements:
        rep = fn(handle, a, kind)
        certified = certified and rep.certified
        if best is None or rep.value > best.value:
            best = rep
    return best.value, best.element if best.value else None, \
        best.witness if best.value else None, certified


def test_semigroup_catenary_is_the_sup_of_element_reports():
    cases = [(engine("abc_cb"), 5), (ab_ban(3, 8), 5),
             (BlockMonoidHandle(FiniteAbelianGroup((2, 4))), 6)]
    for h, size in cases:
        els, _ = h.enumerate_elements(size)
        for kind in DistanceKind:
            for variant, fn in VARIANTS.items():
                rep = semigroup_catenary(h, els, kind, variant)
                assert (rep.value, rep.element, rep.witness, rep.certified) \
                    == _element_sup(fn, h, els, kind), (h.name, kind, variant)
                assert rep.variant == variant


def _single_node_cases():
    c3 = BlockMonoidHandle(FiniteAbelianGroup((3,)))
    free = PresentationSemigroup(parse_presentation("gens: a\n"))
    aba_b = engine("aba_b")
    return [
        (c3, c3.sequence([(1,), (1,), (2,), (2,)]), True),
        (c3, c3.sequence([(1,)] * 3), True),
        (engine("abc_cb"), engine("abc_cb").element_from_str("b"), True),
        (free, free.element_from_str("a a a"), True),
        # non-atomic: no factorization is ever found, nor certified
        (aba_b, aba_b.element_from_str("b"), False),
    ]


def test_single_node_graphs_answer_zero_without_witness():
    from factorum.factorizations import permutable_factorizations
    from factorum.matrices import identity_transfer_map
    for h, el, certified in _single_node_cases():
        idmap = identity_transfer_map(h)
        for kind in DistanceKind:
            nodes = rigid_factorizations(h, el).factorizations \
                if kind is DistanceKind.RIGID \
                else permutable_factorizations(h, el)[0]
            assert len(nodes) <= 1
            reps = [fn(h, el, kind) for fn in (catenary, equal_catenary,
                                               adjacent_catenary,
                                               monotone_catenary)]
            reps.append(catenary_in_fibers(h, el, kind, idmap))
            for rep in reps:
                assert (rep.value, rep.witness, rep.certified) == \
                    (0, None, certified)
                assert rep.kind is kind and rep.element == el
