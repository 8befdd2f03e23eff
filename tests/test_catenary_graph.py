"""The catenary variants against a brute threshold-connectivity oracle.

Under d_len and d_p the library builds its graph on one node per permutable
factorization.  The oracle below works on all rigid factorizations instead
and finds each value as the least threshold N whose graph (edges <= N) is
connected, so it shares no code with the graph views it checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorum.catenary import VARIANTS, catenary_in_fibers
from factorum.distances import DistanceKind, distance
from factorum.factorizations import rigid_factorizations
from factorum.matrices import TriangularMatrixHandle, delta_transfer_map
from factorum.presets import engine, preset_names
from factorum.zerosum import (BlockMonoidHandle, FiniteAbelianGroup,
                              zero_sum_sequences)

KINDS = (DistanceKind.LENGTH, DistanceKind.PERMUTABLE)


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
