import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorum.distances import (Alignment, DistanceKind, InstanceTooLarge,
                                distance, length_distance, permutable_distance,
                                rigid_distance, rigid_distance_alignment,
                                rigid_distance_oracle, verify_axioms)
from factorum.divisibility import tame_element
from factorum.factorizations import (RigidFactorization, _class_occurrences,
                                     class_multiset, permutable_factorizations,
                                     rigid_factorizations)
from factorum.matrices import FullMatrixHandle, TriangularMatrixHandle, mat_det
from factorum.presentation import ExplorationBudget
from factorum.presets import ab_ban, anbn, engine, preset_names


def facts_of(h, text):
    return list(rigid_factorizations(h, h.element_from_str(text)))


def seq(h, *letters):
    atoms = tuple(h.element_from_str(x) for x in letters)
    return RigidFactorization(atoms, h.product(atoms))


def test_permutable_distance_abc_cb():
    h = engine("abc_cb")
    fs = facts_of(h, "a b c")
    z3 = next(z for z in fs if z.length == 3)
    z2 = next(z for z in fs if z.length == 2)
    assert permutable_distance(h, z3, z2) == 1
    assert length_distance(z3, z2) == 1


def test_rigid_distance_aba_b():
    h = engine("aba_b")
    z = seq(h, "a", "b", "a")
    zp = seq(h, "b")
    assert rigid_distance(h, z, zp) == 2
    assert rigid_distance_oracle(h, z, zp) == 2


@pytest.mark.parametrize("kind", ["length", "permutable", "rigid", None])
def test_distance_refuses_a_kind_that_is_not_a_distance_kind(kind):
    # c b and a b c both factor a b c on abc_cb; a string is not coerced
    h = engine("abc_cb")
    z, zp = facts_of(h, "a b c")
    with pytest.raises(ValueError, match=f"unknown distance kind {kind!r}"):
        distance(h, kind, z, zp)
    with pytest.raises(ValueError, match=f"unknown distance kind {kind!r}"):
        verify_axioms(h, kind, [[z, zp]])
    # refused at the top, though an empty sample reaches no distance
    with pytest.raises(ValueError, match=f"unknown distance kind {kind!r}"):
        verify_axioms(h, kind, [])
    assert distance(h, DistanceKind.LENGTH, z, zp) == 1


def test_distance_identity_axiom():
    h = engine("abc_cb")
    for z in facts_of(h, "a b c"):
        for kind in DistanceKind:
            assert distance(h, kind, z, z) == 0


def test_rigid_distance_anbn():
    # the two factorizations of a^n b^n are at rigid distance exactly 2n
    for n in (2, 3):
        h = anbn(n)
        fs = facts_of(h, " ".join(["a"] * n + ["b"] * n))
        assert len(fs) == 2
        z, zp = fs
        assert rigid_distance(h, z, zp) == 2 * n
        if 2 * n + 2 * n <= 10:
            assert rigid_distance_oracle(h, z, zp) == 2 * n


def test_rigid_alignment_witness():
    h = engine("abc_cb")
    fs = facts_of(h, "a b c")
    z3 = next(z for z in fs if z.length == 3)
    z2 = next(z for z in fs if z.length == 2)
    value, alignment = rigid_distance_alignment(h, z3, z2)
    assert value == 2
    assert sum(alignment.gap_costs) == value
    # matched blocks are identical atom sequences, in order, in both
    for (i, j, ell) in alignment.blocks:
        for t in range(ell):
            assert h.atom_class(z3.atoms[i + t]) == h.atom_class(z2.atoms[j + t])


def test_oracle_rejects_large_instances():
    h = engine("abc_cb")
    z = seq(h, *(["a"] * 8))
    zp = seq(h, *(["b"] * 8))
    with pytest.raises(InstanceTooLarge):
        rigid_distance_oracle(h, z, zp)


def test_dp_equals_oracle_on_random_pairs():
    h = engine("abc_cb")
    rng = random.Random(17)
    gens = ["a", "b", "c"]
    for _ in range(500):
        k = rng.randint(0, 4)
        l = rng.randint(0 if k else 1, 4)
        z = seq(h, *(rng.choice(gens) for _ in range(k))) if k else \
            RigidFactorization((), h.identity())
        zp = seq(h, *(rng.choice(gens) for _ in range(l)))
        assert rigid_distance(h, z, zp) == rigid_distance_oracle(h, z, zp)


def test_dp_equals_oracle_with_repeated_atoms():
    # two-letter words stress the block alignment (many repeated atoms)
    h = anbn(2)
    rng = random.Random(21)
    for _ in range(300):
        k = rng.randint(1, 5)
        l = rng.randint(1, 5)
        z = seq(h, *(rng.choice("ab") for _ in range(k)))
        zp = seq(h, *(rng.choice("ab") for _ in range(l)))
        assert rigid_distance(h, z, zp) == rigid_distance_oracle(h, z, zp)


def test_dp_equals_oracle_on_matrix_factorizations():
    # handles with nontrivial units: shared blocks need equal products
    h = TriangularMatrixHandle(2)
    for rows in (((4, 2), (0, 3)), ((2, 5), (0, 2)), ((6, 1), (0, 2))):
        fs = list(rigid_factorizations(h, rows))
        for z in fs:
            for zp in fs:
                if z.length + zp.length <= 10:
                    assert rigid_distance(h, z, zp) == \
                        rigid_distance_oracle(h, z, zp)


def test_axiom_suite_passes():
    for h in (engine("abc_cb"), ab_ban(3), engine("aba_bab")):
        els, _ = h.enumerate_elements(4)
        fsets = [list(rigid_factorizations(h, el)) for el in els]
        fsets = [fs for fs in fsets if len(fs) <= 8 and
                 all(z.length <= 10 for z in fs)]
        atoms, _ = h.enumerate_atoms(1)
        for kind in DistanceKind:
            rep = verify_axioms(h, kind, fsets, atoms[:2])
            assert rep.passed, rep.violation


def test_coarseness_chain():
    # d_len <= d_p <= d* on same-product pairs
    for h in (engine("abc_cb"), anbn(2), ab_ban(4, 14)):
        els, _ = h.enumerate_elements(4)
        for el in els:
            fs = [z for z in rigid_factorizations(h, el) if z.length <= 10]
            for z, zp in itertools.combinations(fs, 2):
                dl = length_distance(z, zp)
                dp = permutable_distance(h, z, zp)
                dr = rigid_distance(h, z, zp)
                assert dl <= dp <= dr
                assert dr <= max(z.length, zp.length, 1)


def test_dp_zero_iff_equal_class_multisets():
    h = anbn(2)
    els, _ = h.enumerate_elements(6)
    for el in els:
        fs = list(rigid_factorizations(h, el))
        for z, zp in itertools.combinations(fs, 2):
            same = class_multiset(h, z) == class_multiset(h, zp)
            assert (permutable_distance(h, z, zp) == 0) == same


def test_dstar_zero_iff_equal():
    h = engine("abc_cb")
    els, _ = h.enumerate_elements(4)
    for el in els:
        fs = list(rigid_factorizations(h, el))
        for z in fs:
            for zp in fs:
                same = tuple(u.word for u in z.atoms) == \
                    tuple(u.word for u in zp.atoms)
                assert (rigid_distance(h, z, zp) == 0) == same


def test_verify_axioms_measures_each_pair_once(monkeypatch):
    # the triangle check reads one matrix per set: n^2 distance calls, not n^3
    import factorum.distances as distances_mod
    h = ab_ban(4, 14)
    fsets = [facts_of(h, "a a b"), facts_of(h, "a a a b")]
    calls = []
    real = distances_mod.distance
    monkeypatch.setattr(distances_mod, "distance",
                        lambda *args: calls.append(args) or real(*args))
    rep = verify_axioms(h, DistanceKind.PERMUTABLE, fsets)
    assert rep.passed and max(len(zs) for zs in fsets) > 2
    assert len(calls) == sum(len(zs) ** 2 for zs in fsets)
    assert rep.checked_pairs == sum(len(zs) * (len(zs) - 1) // 2
                                    for zs in fsets)


def closing_gap_reference(handle, z, zp):
    """The closing-gap dynamic program: from every cell it closes every gap
    (p, q) at cost max(p, q) and extends every shared block, in
    O(k^2 l^2).  Kept as the reference for the value and the witness of
    the king-move table."""
    a, b = z.atoms, zp.atoms
    k, l = len(a), len(b)
    if k == 0 and l == 0:
        cost = 0 if handle.key(z.product) == handle.key(zp.product) else 1
        return cost, Alignment((), (cost,) if cost else (), cost)

    def block_ok(i, j, ell):
        if handle.reduced:
            return True
        return handle.key(handle.product(a[i:i + ell])) == \
            handle.key(handle.product(b[j:j + ell]))

    INF = k + l + 2
    dist = [[INF] * (l + 1) for _ in range(k + 1)]
    prev = [[None] * (l + 1) for _ in range(k + 1)]
    dist[0][0] = 0
    for i in range(k + 1):
        for j in range(l + 1):
            d = dist[i][j]
            for p in range(k - i + 1):
                for q in range(l - j + 1):
                    if p == 0 and q == 0:
                        continue
                    nd = d + max(p, q)
                    if nd < dist[i + p][j + q]:
                        dist[i + p][j + q] = nd
                        prev[i + p][j + q] = (i, j, "gap")
            ell = 0
            while i + ell < k and j + ell < l and \
                    handle.atom_class(a[i + ell]) == \
                    handle.atom_class(b[j + ell]):
                ell += 1
                if block_ok(i, j, ell) and d <= dist[i + ell][j + ell]:
                    dist[i + ell][j + ell] = d
                    prev[i + ell][j + ell] = (i, j, "block")
    blocks, gaps = [], []
    i, j = k, l
    while (i, j) != (0, 0):
        pi, pj, tag = prev[i][j]
        if tag == "block":
            blocks.append((pi, pj, i - pi))
        else:
            gaps.append(max(i - pi, j - pj))
        i, j = pi, pj
    total = dist[k][l]
    return total, Alignment(tuple(reversed(blocks)), tuple(reversed(gaps)),
                            total)


def check_against_reference(h, z, zp):
    value, al = rigid_distance_alignment(h, z, zp)
    ref_value, ref = closing_gap_reference(h, z, zp)
    assert (value, al.blocks, al.gap_costs, al.total) == \
        (ref_value, ref.blocks, ref.gap_costs, ref.total)
    assert rigid_distance(h, z, zp) == value
    if z.length + zp.length <= 10:
        assert value == rigid_distance_oracle(h, z, zp)


_WORD_HANDLES = {
    "abc_cb": lambda: engine("abc_cb"),
    "anbn(2)": lambda: anbn(2),
    "aba_bab": lambda: engine("aba_bab"),
    "ab_ban(3)": lambda: ab_ban(3),
}


@st.composite
def _atom_word_pairs(draw):
    h = _WORD_HANDLES[draw(st.sampled_from(sorted(_WORD_HANDLES)))]()
    atoms = h.enumerate_atoms(1)[0]
    words = st.lists(st.sampled_from(atoms), max_size=6)
    z, zp = (tuple(draw(words)) for _ in range(2))
    return h, RigidFactorization(z, h.product(z)), \
        RigidFactorization(zp, h.product(zp))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_atom_word_pairs())
def test_king_move_table_matches_closing_gap_reference(pair):
    # value and witness of the O(kl) table against the O(k^2 l^2)
    # program it replaced, and the value against the exhaustive oracle;
    # pairs need not share a product, and either side may be empty
    check_against_reference(*pair)


_DIAGONAL = st.integers(-12, 12).filter(bool)


@st.composite
def _matrix_elements(draw):
    if draw(st.booleans()):
        h = TriangularMatrixHandle(2)
        m = ((draw(_DIAGONAL), draw(st.integers(-9, 9))),
             (0, draw(_DIAGONAL)))
    else:
        h = FullMatrixHandle(2)
        m = tuple(tuple(draw(st.integers(-6, 6)) for _ in range(2))
                  for _ in range(2))
    assume(2 <= abs(mat_det(m)) <= 60)
    return h, m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_matrix_elements())
def test_king_move_table_matches_reference_on_matrices(element):
    # non-reduced handles: shared blocks need equal products, so blocks
    # longer than one atom matter for both the value and the witness
    h, m = element
    fs = list(rigid_factorizations(h, m))
    for z in fs:
        for zp in fs:
            check_against_reference(h, z, zp)


def test_witness_takes_the_shortest_block():
    # a longer shared block ending at the same cell is passed over
    h = anbn(2)
    z = seq(h, "a", "a", "b")
    value, al = rigid_distance_alignment(h, z, z)
    assert value == 0
    assert al.blocks == ((0, 0, 1), (1, 1, 1), (2, 2, 1))
    assert al.gap_costs == ()


def king_move_reference(handle, z, zp):
    """The king-move table as one path for every handle: each cell pays
    for min over its three moves and every admissible shared block, and
    the witness searches the blocks ending at each cell.  Kept as the
    reference for the edit-distance table of reduced handles; returns the
    table too."""
    a, b = z.atoms, zp.atoms
    k, l = len(a), len(b)
    if k == 0 and l == 0:
        cost = 0 if handle.key(z.product) == handle.key(zp.product) else 1
        return cost, Alignment((), (cost,) if cost else (), cost), [[0]]
    if k == 0 or l == 0:
        return k + l, Alignment((), (k + l,), k + l), None

    ca = [handle.atom_class(u) for u in a]
    cb = [handle.atom_class(v) for v in b]

    def reach(x, y, limit):
        out = ell = 0
        while ell < x and ell < y and ca[x - ell - 1] == cb[y - ell - 1]:
            ell += 1
            if dist[x - ell][y - ell] <= limit:
                out = ell
        return out

    def shared_blocks(x, y, span):
        if handle.reduced:
            yield from range(1, span + 1)
            return
        pa, pb = a[x - 1], b[y - 1]
        for ell in range(1, span + 1):
            if ell > 1:
                pa = handle.multiply(a[x - ell], pa)
                pb = handle.multiply(b[y - ell], pb)
            if handle.key(pa) == handle.key(pb):
                yield ell

    def first_gap_start(x, y, m):
        for i in range(max(0, x - m), x + 1):
            for j in range(max(0, y - m), y + 1 if i < x else y):
                if dist[i][j] + max(x - i, y - j) == m:
                    return i, j
        raise AssertionError(f"no gap reaches ({x}, {y}) at cost {m}")

    dist = [list(range(l + 1))]
    for x in range(1, k + 1):
        up, row, cx = dist[-1], [x], ca[x - 1]
        for y in range(1, l + 1):
            diag = up[y - 1]
            best = min(up[y], row[y - 1], diag) + 1
            if cx == cb[y - 1]:
                for ell in shared_blocks(x, y, reach(x, y, best - 1)):
                    best = min(best, dist[x - ell][y - ell])
            row.append(best)
        dist.append(row)
    total = dist[k][l]

    blocks, gaps = [], []
    x, y = k, l
    while x or y:
        m = dist[x][y]
        ell = next((e for e in shared_blocks(x, y, reach(x, y, m))
                    if dist[x - e][y - e] == m), 0)
        if ell:
            blocks.append((x - ell, y - ell, ell))
            x, y = x - ell, y - ell
        else:
            i, j = first_gap_start(x, y, m)
            gaps.append(max(x - i, y - j))
            x, y = i, j
    return total, Alignment(tuple(reversed(blocks)), tuple(reversed(gaps)),
                            total), dist


@st.composite
def _long_word_pairs(draw):
    # one word of 7-14 atoms, past the reach of the closing-gap reference,
    # against one of 0-14, in either order
    h = _WORD_HANDLES[draw(st.sampled_from(sorted(_WORD_HANDLES)))]()
    atoms = h.enumerate_atoms(1)[0]
    long = tuple(draw(st.lists(st.sampled_from(atoms), min_size=7,
                               max_size=14)))
    other = tuple(draw(st.lists(st.sampled_from(atoms), max_size=14)))
    z, zp = (long, other) if draw(st.booleans()) else (other, long)
    return h, RigidFactorization(z, h.product(z)), \
        RigidFactorization(zp, h.product(zp))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_long_word_pairs())
def test_edit_distance_table_matches_king_move_reference(pair):
    h, z, zp = pair
    value, al = rigid_distance_alignment(h, z, zp)
    ref_value, ref, _ = king_move_reference(h, z, zp)
    assert (value, al.blocks, al.gap_costs, al.total) == \
        (ref_value, ref.blocks, ref.gap_costs, ref.total)
    if z.length + zp.length <= 10:
        assert value == rigid_distance_oracle(h, z, zp)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_atom_word_pairs(), _long_word_pairs()))
def test_matched_cells_take_their_diagonal(pair):
    # the match lemma behind the reduced path: in the king-move table a
    # class-matched cell equals its diagonal (adjacent cells differ by at
    # most 1), so every witness block has length 1
    h, z, zp = pair
    _, _, dist = king_move_reference(h, z, zp)
    ca = [h.atom_class(u) for u in z.atoms]
    cb = [h.atom_class(v) for v in zp.atoms]
    for x in range(1, z.length + 1):
        for y in range(1, zp.length + 1):
            if ca[x - 1] == cb[y - 1]:
                assert dist[x][y] == dist[x - 1][y - 1]
    _, al = rigid_distance_alignment(h, z, zp)
    assert all(ell == 1 for _, _, ell in al.blocks)


# the one comparison of class multisets ----------------------------------

# classes of one handle share a type: small ints, or words
_CLASS_ALPHABETS = [(0, 1, 2, 3), (("a",), ("b",), ("a", "b"), ("c", "b"))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_class_occurrences_give_the_common_sub_multiset(data):
    # the size of the common sub-multiset and the containment test, both
    # against a Counter reference, on random sorted class multisets
    alphabet = data.draw(st.sampled_from(_CLASS_ALPHABETS))
    x, y = (tuple(sorted(data.draw(st.lists(st.sampled_from(alphabet),
                                            max_size=8))))
            for _ in range(2))
    cx, cy = Counter(x), Counter(y)
    ox, oy = _class_occurrences(x), _class_occurrences(y)
    assert len(ox) == len(x)
    assert len(ox & oy) == sum((cx & cy).values())
    assert (ox <= oy) == all(cy[c] >= k for c, k in cx.items())
    assert (oy <= ox) == all(cx[c] >= k for c, k in cy.items())


def _counter_permutable_distance(h, z, zp):
    a = Counter(map(h.atom_class, z.atoms))
    b = Counter(map(h.atom_class, zp.atoms))
    common = sum((a & b).values())
    return max(z.length - common, zp.length - common)


def _tame_reference(h, a, pattern):
    """t_p(a, x) without occurrence sets: d_p recomputed from the atoms of
    each pair of representatives, and pattern containment by Counter."""
    for u in pattern:
        assert h.is_atom(u)
    pat = Counter(h.atom_class(u) for u in pattern)
    pfs, complete = permutable_factorizations(h, a)
    qualifying = [p for p in pfs
                  if all(Counter(p.classes)[c] >= k for c, k in pat.items())]
    if not qualifying:
        return 0, complete, None
    value, witness = 0, None
    for z in pfs:
        best, arg = None, None
        for zp in qualifying:
            d = _counter_permutable_distance(h, z.representative,
                                             zp.representative)
            if best is None or d < best:
                best, arg = d, zp
        if best > value:
            value, witness = best, (a, z.classes, arg.classes)
    return value, complete, witness


def _tame_cases(make_handle, elements, patterns):
    # one handle for the subject, one for the reference, queried in the
    # same order, so an uncertified answer sees the same exploration
    h, ref = make_handle(), make_handle()
    for a in elements:
        for pattern in patterns:
            rep = tame_element(h, a, pattern)
            assert (rep.value, rep.certified, rep.witness) \
                == _tame_reference(ref, a, pattern), (a, pattern)


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("budget", [None, ExplorationBudget(6, 40)])
def test_tame_element_matches_the_loop_over_representatives(name, budget):
    h = engine(name, budget)
    elements = h.enumerate_elements(3)[0]
    atoms = h.enumerate_atoms(2)[0][:4]
    patterns = [[u] for u in atoms] + [list(p) for p in
                                       itertools.combinations(atoms, 2)]
    _tame_cases(lambda: engine(name, budget), elements, patterns)


def test_tame_element_matches_the_loop_over_representatives_on_t2():
    # a non-reduced handle whose classes are (position, prime); each element
    # has one permutable factorization (delta transfers to a free abelian
    # monoid), so every value is 0: this checks the pattern test and the
    # certification on a handle with units
    h = TriangularMatrixHandle(2)
    elements = [((d1, b), (0, d2)) for d1 in (1, 2, 3, 4, 6)
                for d2 in (1, 2, 3, 4, 6) for b in (0, 1, 3)
                if d1 * d2 > 1]
    atoms = [((2, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 0), (0, 2)),
             ((3, 0), (0, 1)), ((1, 1), (0, 3))]
    assert all(h.is_atom(u) for u in atoms)
    patterns = [[u] for u in atoms] + [[atoms[0], atoms[2]],
                                       [atoms[0], atoms[0]]]
    _tame_cases(lambda: TriangularMatrixHandle(2), elements, patterns)
