"""The catenary variants against a brute threshold-connectivity oracle.

Under d_len and d_p the library builds its graph on one node per permutable
factorization.  The oracle below works on all rigid factorizations instead
and finds each value as the least threshold N whose graph (edges <= N) is
connected, so it shares no code with the graph views it checks.

``reference_graph`` keeps the node construction the graph had before its
d_len and d_p nodes came from class multisets; the properties at the end
require the same graphs (each node's class multiset and length, and the
distance matrix), values, certification and witnesses from both.
"""

import importlib
import itertools
from collections import Counter
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorum.catenary import (VARIANTS, catenary_in_fibers,
                               semigroup_catenary)
from factorum.distances import DistanceKind, distance
from factorum.divisibility import TameReport, tame_element
from factorum.factorizations import (PermutableFactorization, class_multiset,
                                    permutable_class_multisets,
                                    permutable_factorizations,
                                    rigid_factorizations)
from factorum.handles import FactorialVectorHandle
from factorum.matrices import (FullMatrixHandle, TriangularMatrixHandle,
                               delta_transfer_map, det_transfer_map,
                               identity_transfer_map)
from factorum.presentation import ExplorationBudget
from factorum.presets import engine, preset_names
from factorum.zerosum import (BlockMonoidHandle, FiniteAbelianGroup,
                              zero_sum_sequences)

KINDS = (DistanceKind.LENGTH, DistanceKind.PERMUTABLE)
# the package re-exports the function ``catenary`` under the module's name
catenary_module = importlib.import_module("factorum.catenary")
factorizations_module = importlib.import_module("factorum.factorizations")


def _least_threshold(nodes, d):
    """Least N such that the nodes are connected by steps of distance <= N."""
    if len(nodes) <= 1:
        return 0
    for bound in sorted({d(x, y) for x in nodes for y in nodes} | {0}):
        seen, stack = {nodes[0]}, [nodes[0]]
        while stack:
            x = stack.pop()
            for y in nodes:
                if y not in seen and d(x, y) <= bound:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == len(nodes):
            return bound


def _classes(facts, key):
    out = {}
    for i, z in enumerate(facts):
        out.setdefault(key(z), []).append(i)
    return [out[k] for k in sorted(out)]


def oracle(handle, a, kind, fiber=None):
    """Every variant's value over the rigid factorizations of a, and
    whether that set is complete."""
    fs = rigid_factorizations(handle, a)
    facts = list(fs)
    mat = [[distance(handle, kind, x, y) for y in facts] for x in facts]

    def d(i, j):
        return mat[i][j]

    def worst(classes):
        return max((_least_threshold(c, d) for c in classes), default=0)

    by_len = _classes(facts, lambda z: z.length)
    values = {"plain": worst([list(range(len(facts)))]),
              "equal": worst(by_len),
              "adjacent": max([min(mat[i][j] for i in k for j in l)
                               for k, l in zip(by_len, by_len[1:])], default=0)}
    values["monotone"] = max(values["equal"], values["adjacent"])
    if fiber is not None:
        values["fibers"] = worst(_classes(facts, fiber))
    return values, fs.complete


def check_variants(handle, a, kinds=KINDS):
    facts = set(rigid_factorizations(handle, a))
    for kind in kinds:
        values, complete = oracle(handle, a, kind)
        for variant, fn in VARIANTS.items():
            rep = fn(handle, a, kind)
            assert (rep.value, rep.certified) == (values[variant], complete)
            if rep.witness is not None:
                x, y = rep.witness.steps
                assert x in facts and y in facts
                assert distance(handle, kind, x, y) == rep.value


@pytest.mark.parametrize("name", preset_names())
def test_preset_elements_match_oracle(name):
    # d* too: its graph keeps rigid nodes, and it is where an adjacent view
    # that kept the in-length edges would go wrong (ab_cd_cede_ba, "a b a b a")
    h = engine(name)
    els, _ = h.enumerate_elements(4)
    if name == "ab_cd_cede_ba":
        els.append(h.element_from_str("a b a b a"))
    for a in els:
        check_variants(h, a, tuple(DistanceKind))


@pytest.mark.parametrize("orders", [(2, 2, 2), (2, 4)])
def test_zero_sum_sequences_match_oracle(orders):
    group = FiniteAbelianGroup(orders)
    h = BlockMonoidHandle(group)
    for seq in zero_sum_sequences(group, None, 6):
        check_variants(h, seq)


_NONZERO = st.integers(-6, 6).filter(bool)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=_NONZERO, b=st.integers(-6, 6), d=_NONZERO)
def test_triangular_elements_match_oracle(a, b, d):
    h = TriangularMatrixHandle(2)
    delta = delta_transfer_map(h)
    m = ((a, b), (0, d))
    check_variants(h, m)

    def fiber(z):
        return tuple(sorted(delta.target.atom_class(delta.apply(u))
                            for u in z.atoms))

    for kind in KINDS:
        values, complete = oracle(h, m, kind, fiber)
        rep = catenary_in_fibers(h, m, kind, delta)
        assert (rep.value, rep.certified) == (values["fibers"], complete)


# the graph under d_len and d_p as it was built before class multisets
# were its node source: every rigid factorization is listed, each class
# keeps the first one in the order of Z*(a), (length, atom keys), and
# every distance is computed pairwise from the representatives

def permutable_nodes(handle, a):
    """Z_p(a) from its definition: each class multiset once, with the
    first rigid factorization holding it as representative."""
    fs = rigid_factorizations(handle, a)
    first = {}
    for z in fs:
        first.setdefault(class_multiset(handle, z), z)
    return tuple(PermutableFactorization(k, len(k), first[k])
                 for k in sorted(first)), fs.complete


def reference_graph(handle, a, kind):
    nodes, complete = permutable_nodes(handle, a)
    mat = [[distance(handle, kind, x.representative, y.representative)
            for y in nodes] for x in nodes]
    return catenary_module._Graph(nodes, mat, complete,
                                  attrgetter("representative"))


def _shape(graph):
    """A graph as each node's class multiset and length, its distance
    matrix (a graph of fewer than two nodes needs none) and its
    completeness flag."""
    nodes = [(z.classes, z.length) for z in graph.nodes]
    return nodes, graph.mat if len(nodes) > 1 else None, graph.complete


def _answers(handle, a, transfer_map):
    """The graph of a under d_len and d_p, and every report on it as
    (value, certified, witness endpoints)."""
    graphs, reports = [], []
    for kind in KINDS:
        graphs.append(_shape(catenary_module._graph(handle, a, kind)))
        reps = [fn(handle, a, kind) for fn in VARIANTS.values()]
        reps.append(catenary_in_fibers(handle, a, kind, transfer_map))
        reports += [(r.value, r.certified,
                     r.witness.steps if r.witness is not None else None)
                    for r in reps]
    return graphs, reports


def check_against_reference(make_handle, make_map, elements):
    """Ask the same elements, in the same order, of two fresh handles: one
    with the library's graph, one with the reference graph, so that
    uncertified answers see the same exploration history.  An element is
    given as a function of the handle.  Returns the reports."""
    h, ref = make_handle(), make_handle()
    reports = []
    for element in elements:
        got = _answers(h, element(h), make_map(h))
        with mock.patch.object(catenary_module, "_graph", reference_graph):
            want = _answers(ref, element(ref), make_map(ref))
        assert got == want
        reports += got[1]
    return reports


def _values(xs):
    return [lambda h, x=x: x for x in xs]


BENCH_GROUPS = ((2, 2, 2), (5,), (2, 4), (3, 3))
_BLOCK_HANDLES = {g: BlockMonoidHandle(FiniteAbelianGroup(g))
                  for g in BENCH_GROUPS}


@st.composite
def _zero_sum_sequences(draw, orders):
    # products of atoms, up to eight terms
    atoms = _BLOCK_HANDLES[orders].atoms
    seq = ()
    for i in draw(st.lists(st.integers(0, len(atoms) - 1), min_size=1,
                           max_size=4)):
        if len(seq) + len(atoms[i]) <= 8:
            seq = tuple(sorted(seq + atoms[i]))
    return seq


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), orders=st.sampled_from(BENCH_GROUPS))
def test_block_monoid_nodes_match_reference(data, orders):
    seqs = data.draw(st.lists(_zero_sum_sequences(orders), min_size=1,
                              max_size=4))
    check_against_reference(
        lambda: BlockMonoidHandle(FiniteAbelianGroup(orders)),
        identity_transfer_map, _values(seqs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), data=st.data())
def test_factorial_vector_nodes_match_reference(n, data):
    # at most seven prime factors: the reference lists every ordering
    h = FactorialVectorHandle(n)
    vecs = data.draw(st.lists(st.tuples(*[st.integers(1, 60)] * n).filter(
        lambda v: h.length_cap(v) <= 7), min_size=1, max_size=4))
    check_against_reference(lambda: FactorialVectorHandle(n),
                            identity_transfer_map, _values(vecs))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(_NONZERO, st.integers(-6, 6), _NONZERO),
                        min_size=1, max_size=3))
def test_triangular_nodes_match_reference(entries):
    mats = [((a, b), (0, d)) for a, b, d in entries]
    check_against_reference(lambda: TriangularMatrixHandle(2),
                            delta_transfer_map, _values(mats))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(*[st.integers(-4, 4)] * 4), min_size=1,
                        max_size=3))
def test_full_matrix_nodes_match_reference(entries):
    mats = [((a, b), (c, d)) for a, b, c, d in entries
            if 2 <= abs(a * d - b * c) <= 12]
    check_against_reference(lambda: FullMatrixHandle(2), det_transfer_map,
                            _values(mats))


TRUNCATING = ExplorationBudget(6, 5)


def _words(words):
    return [lambda h, w=w: h.element_from_str(" ".join(w)) for w in words]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(preset_names()),
       budget=st.sampled_from((None, TRUNCATING)), data=st.data())
def test_preset_nodes_match_reference(name, budget, data):
    gens = engine(name).presentation.generators
    words = data.draw(st.lists(st.lists(st.sampled_from(gens), min_size=1,
                                        max_size=5), min_size=1, max_size=4))
    check_against_reference(lambda: engine(name, budget),
                            identity_transfer_map, _words(words))


@pytest.mark.parametrize("budget", [None, TRUNCATING])
def test_non_atomic_preset_matches_reference(budget):
    # every word of length <= 4, in shortlex order; only the powers of a
    # certify, since b = a b a is not atomic
    words = [w for n in range(1, 5) for w in itertools.product("ab", repeat=n)]
    reports = check_against_reference(lambda: engine("aba_b", budget),
                                      identity_transfer_map, _words(words))
    assert not all(certified for _, certified, _ in reports)


# the bottleneck kernel ----------------------------------------------------

def reference_bottleneck(nodes, mat):
    """Prim over a dict of the nodes outside the tree, taking the least
    (weight, node) each step: the kernel as it was before it kept
    parallel lists."""
    if len(nodes) <= 1:
        return 0, None
    best = {v: (mat[nodes[0]][v], nodes[0]) for v in nodes[1:]}
    value, arg = 0, None
    while best:
        v = min(best, key=lambda u: (best[u][0], u))
        w, parent = best.pop(v)
        if w > value:
            value, arg = w, (parent, v)
        for u in list(best):
            if mat[v][u] < best[u][0]:
                best[u] = (mat[v][u], v)
    return value, arg


@st.composite
def _weighted_graphs(draw):
    # weights 0-4 over up to 12 nodes, so most weights tie
    n = draw(st.integers(0, 12))
    mat = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        mat[i][j] = mat[j][i] = draw(st.integers(0, 4))
    return n, mat


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph=_weighted_graphs(), data=st.data())
def test_bottleneck_matches_reference(graph, data):
    n, mat = graph
    subset = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)))
                              if n else st.just(set())))
    assert catenary_module._bottleneck(subset, mat) == \
        reference_bottleneck(subset, mat)
    # the adjacent view joins two length classes, so a part need not be
    # in index order after its first node
    shuffled = data.draw(st.permutations(subset))
    assert catenary_module._bottleneck(shuffled, mat) == \
        reference_bottleneck(shuffled, mat)


def test_class_nodes_build_only_the_witness():
    # on an orderless handle a node is a class multiset, a class being its
    # atom's key: atoms (``atom_of_key``) are built only to show a
    # witness's ends
    group = FiniteAbelianGroup((2, 4))
    h = BlockMonoidHandle(group)
    idmap = identity_transfer_map(h)
    seen = {"one": 0, "several": 0}
    with mock.patch.object(h, "atom_of_key", wraps=h.atom_of_key) as asked:
        for seq in zero_sum_sequences(group, None, 7):
            classes, _ = permutable_class_multisets(h, seq)
            several = len(classes) > 1
            seen["several" if several else "one"] += 1
            for kind in KINDS:
                for fn in VARIANTS.values():
                    asked.reset_mock()
                    rep = fn(h, seq, kind)
                    shown = sorted(c for z in (rep.witness.steps
                                               if rep.witness else ())
                                   for c in class_multiset(h, z))
                    assert sorted(c.args[0] for c in asked.call_args_list) \
                        == shown
                    assert several or not shown
                asked.reset_mock()
                catenary_in_fibers(h, seq, kind, idmap)
                assert several or not asked.called
    assert seen["one"] and seen["several"]


# the class nodes against permutable factorizations ------------------------
# Z_p(a) from its definition (``permutable_nodes``) against
# ``permutable_factorizations``, the catenary reports against
# ``reference_graph``, and t_p against a reference on the same nodes that
# takes every distance between two representatives

def tame_reference(handle, a, pattern):
    """t_p(a, x) over the permutable factorizations of a: the worst
    distance from one to its first nearest one holding the pattern."""
    pfs, complete = permutable_nodes(handle, a)
    pat = Counter(map(handle.atom_class, pattern))
    qualifying = [zp for zp in pfs if not pat - Counter(zp.classes)]
    if not qualifying:
        return TameReport(tuple(pattern), 0, complete, None)
    value, witness = 0, None
    for z in pfs:
        dists = [distance(handle, DistanceKind.PERMUTABLE, z.representative,
                          zp.representative) for zp in qualifying]
        best = min(dists)
        if best > value:
            value = best
            witness = (a, z.classes, qualifying[dists.index(best)].classes)
    return TameReport(tuple(pattern), value, complete, witness)


def _steps(rep):
    return rep.witness.steps if rep.witness is not None else None


def _class_node_answers(handle, a, patterns, tame, permutable):
    reports = [permutable(handle, a)]
    for kind in KINDS:
        for fn in VARIANTS.values():
            rep = fn(handle, a, kind)
            reports.append((rep.value, rep.certified, _steps(rep)))
    return reports + [tame(handle, a, p) for p in patterns]


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("budget", [None, TRUNCATING])
def test_class_nodes_match_permutable_factorizations(name, budget):
    # every element of length <= 4, then the sweep of every variant; the
    # reference asks a handle of its own the same questions
    h, ref = engine(name, budget), engine(name, budget)
    els, complete = h.enumerate_elements(4)
    refs, _ = ref.enumerate_elements(4)
    patterns = [[h.element((g,))] for g in h.presentation.generators
                if h.is_atom(h.element((g,)))]
    ref_patterns = [[ref.element(p[0].word)] for p in patterns]
    for x, y in zip(els, refs):
        got = _class_node_answers(h, x, patterns, tame_element,
                                  permutable_factorizations)
        with mock.patch.object(catenary_module, "_graph", reference_graph):
            want = _class_node_answers(ref, y, ref_patterns, tame_reference,
                                       permutable_nodes)
        assert got == want
    for kind in KINDS:
        for variant in VARIANTS:
            got = semigroup_catenary(h, els, kind, variant, complete)
            with mock.patch.object(catenary_module, "_graph",
                                   reference_graph):
                want = semigroup_catenary(ref, refs, kind, variant, complete)
            assert (got.value, got.certified, _steps(got), got.element) == \
                (want.value, want.certified, _steps(want), want.element)


def test_presentation_class_nodes_build_only_the_witness():
    # on a presentation a node is read off the element's fact: a rigid
    # factorization is built only for a witness's two ends, and t_p, whose
    # witness is two class multisets, builds none
    h = engine("abc_cb")
    els, _ = h.enumerate_elements(5)
    built = mock.patch.object(factorizations_module, "_rigid_factorization",
                              wraps=factorizations_module._rigid_factorization)
    single = 0
    with built as rigid:
        for a in els:
            single += len(permutable_class_multisets(h, a)[0]) == 1
            for kind in KINDS:
                for fn in VARIANTS.values():
                    rigid.reset_mock()
                    rep = fn(h, a, kind)
                    assert rigid.call_count == len(_steps(rep) or ())
            rigid.reset_mock()
            tame_element(h, a, [h.element(("a",))])
            assert not rigid.called
    assert 0 < single < len(els)
