"""The block-monoid sweep over orbit minima of G \\ {0}, against the full
sweep of every zero-sum sequence, which stays as its oracle."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorum.zerosum as zerosum
from factorum.catenary import semigroup_catenary
from factorum.cli import main
from factorum.distances import DistanceKind
from factorum.zerosum import (BlockMonoidHandle, FiniteAbelianGroup,
                              _addition_table, _automorphism_ranks,
                              _block_catenary, _orbit_minima, block_catenary,
                              zero_sum_sequences)


def automorphisms(group):
    """Aut(G), each as the images of ``group.elements()`` in order."""
    elements = group.elements()
    return [tuple(elements[r] for r in sigma) for sigma in
            _automorphism_ranks(group, _addition_table(group, elements))]


def full_sweep(handle, max_len):
    return semigroup_catenary(handle, zero_sum_sequences(
        handle.group, handle.subset, max_len), DistanceKind.PERMUTABLE)


def answer(rep):
    return rep.value, rep.certified, rep.element, rep.witness


@pytest.mark.parametrize("orders, max_len", [
    ((1,), 4), ((2,), 6), ((3,), 6), ((4,), 8), ((5,), 10), ((6,), 12),
    ((7,), 10), ((8,), 10), ((2, 2), 6), ((2, 4), 10), ((3, 3), 10),
    ((2, 2, 2), 8)])
def test_sweep_matches_the_full_sweep(orders, max_len):
    handle = BlockMonoidHandle(FiniteAbelianGroup(orders))
    expected = full_sweep(handle, max_len)
    rep = _block_catenary(handle, max_len)
    assert answer(rep) == answer(expected)
    assert rep.notes[-1].startswith("swept G \\ {0} by Aut(G)-orbit")


@pytest.mark.parametrize("orders, subset", [
    ((4,), [(0,), (1,), (3,)]), ((4,), [(1,), (2,), (3,)]),
    ((2, 2), [(0, 0), (0, 1), (1, 0)]), ((6,), [(1,), (2,), (4,), (5,)])])
def test_sweep_matches_the_full_sweep_on_a_subset(orders, subset):
    # only the automorphisms that keep the support prune
    handle = BlockMonoidHandle(FiniteAbelianGroup(orders), subset)
    assert answer(_block_catenary(handle, 8)) == answer(full_sweep(handle, 8))


def test_sweep_past_the_endomorphism_cap_skips_aut(monkeypatch):
    def refuse(*args):
        raise AssertionError("Aut(G) enumerated past the cap")
    monkeypatch.setattr(zerosum, "_automorphism_ranks", refuse)
    # C2^5 has 2^25 endomorphisms, fewer than the walk's C(51, 20) nodes
    group = FiniteAbelianGroup((2,) * 5)
    plus = _addition_table(group, group.elements())
    assert zerosum._orbit_perms(group, plus, list(range(1, 32)), 20) is None
    monkeypatch.setattr(zerosum, "_MAX_ENDOMORPHISMS", 0)
    handle = BlockMonoidHandle(FiniteAbelianGroup((2, 4)))
    rep = _block_catenary(handle, 8)
    assert answer(rep) == answer(full_sweep(handle, 8))
    assert rep.notes[-1] == ("swept every sequence over G \\ {0}: "
                             "c(0^k S) = c(S)")


@pytest.mark.parametrize("orders", [(1,), ()])
def test_trivial_group_has_nothing_to_sweep(orders):
    group = FiniteAbelianGroup(orders)
    assert _orbit_minima(group, group.elements(), 4) == ([], 1)
    rep = block_catenary(group, 4)
    assert (rep.value, rep.element, rep.witness) == (0, None, None)


_GROUPS_TO_12 = [(n,) for n in range(1, 13)] + [
    (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (2, 6), (6, 2), (3, 3),
    (3, 4), (2, 2, 2), (2, 2, 3), (1, 4), (2, 1, 3)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), orders=st.sampled_from(_GROUPS_TO_12),
       max_len=st.integers(1, 5))
def test_prefix_prune_keeps_exactly_the_orbit_minima(data, orders, max_len):
    group = FiniteAbelianGroup(orders)
    elements = group.elements()
    support = data.draw(st.sets(st.sampled_from(elements))
                        | st.just(set(elements)))
    nonzero = sorted(set(support) - {group.zero()})
    maps = [dict(zip(elements, sigma)) for sigma in automorphisms(group)]
    kept = [m for m in maps if {m[g] for g in nonzero} == set(nonzero)]
    minima = [s for s in zero_sum_sequences(group, nonzero, max_len)
              if all(tuple(sorted(m[g] for g in s)) >= s for m in kept)]
    induced = {tuple(m[g] for g in nonzero) for m in kept}
    # prune however short the sweep, so that the prune itself is checked
    with mock.patch.object(zerosum, "comb", lambda n, k: 2 ** 64):
        found = _orbit_minima(group, support, max_len)
    assert found == (minima, len(induced))


@pytest.mark.parametrize("orders, max_len, count", [
    ((2, 2, 2, 2), 6, None), ((2, 2, 2, 2), 7, 20160),
    ((2, 2, 2), 4, None), ((2, 2, 2), 5, 168),
    ((3, 3), 2, None), ((3, 3), 3, 48), ((2, 2), 2, None), ((2, 2), 4, 6)])
def test_aut_is_listed_only_where_the_sweep_can_repay_it(orders, max_len,
                                                        count):
    # at most as many endomorphisms (2^16, 2^9, 3^4, 2^4) as
    # nondecreasing sequences of length <= L over G \ {0}
    group = FiniteAbelianGroup(orders)
    reps, found = _orbit_minima(group, group.elements(), max_len)
    assert found == count
    if count is None:
        nonzero = group.elements()[1:]
        assert reps == list(zero_sum_sequences(group, nonzero, max_len))


@pytest.mark.parametrize("orders, size", [
    ((7,), 6), ((8,), 4), ((2, 4), 8), ((3, 3), 48), ((2, 2, 2), 168),
    ((2, 6), 12), ((2, 2), 6), ((1,), 1)])
def test_automorphisms(orders, size):
    group = FiniteAbelianGroup(orders)
    elements = group.elements()
    auts = automorphisms(group)
    assert len(auts) == len(set(auts)) == size
    for sigma in auts:
        image = dict(zip(elements, sigma))
        assert sorted(sigma) == elements
        assert all(image[group.add(x, y)] == group.add(image[x], image[y])
                   for x, y in itertools.product(elements, repeat=2))


def run_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    return code, capsys.readouterr().out


# the JSON of the full sweep, each line without its newline
_FULL_SWEEP_JSON = {
    ('1', 'atoms'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "zss-a'
        'toms(trivial)", "schema": "factorum/1", "value": ["(0)"], "w'
        'arnings": [], "witnesses": []}'
    )),
    ('1', 'davenport'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "daven'
        'port(trivial)", "schema": "factorum/1", "value": 1, "warning'
        's": [], "witnesses": []}'
    )),
    ('1', 'catenary'): (2, (
        '{"budget": {}, "certification": "lower-bound", "invariant": '
        '"block-catenary(trivial)", "schema": "factorum/1", "value": '
        '0, "warnings": ["searched all zero-sum sequences of length <'
        '= 6"], "witnesses": []}'
    )),
    ('1', 'order-bound'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "order'
        '-bound(trivial)", "schema": "factorum/1", "value": {"bound":'
        ' 2, "classification": "trivial class group: catenary degree '
        '<= 2 and the order is d_sim-factorial", "computed_catenary":'
        ' 0}, "warnings": [], "witnesses": []}'
    )),
    ('2', 'atoms'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "zss-a'
        'toms(C2)", "schema": "factorum/1", "value": ["(0)", "(1 1)"]'
        ', "warnings": [], "witnesses": []}'
    )),
    ('2', 'davenport'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "daven'
        'port(C2)", "schema": "factorum/1", "value": 2, "warnings": ['
        '], "witnesses": []}'
    )),
    ('2', 'catenary'): (2, (
        '{"budget": {}, "certification": "lower-bound", "invariant": '
        '"block-catenary(C2)", "schema": "factorum/1", "value": 0, "w'
        'arnings": ["searched all zero-sum sequences of length <= 6"]'
        ', "witnesses": []}'
    )),
    ('2', 'order-bound'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "order'
        '-bound(C2)", "schema": "factorum/1", "value": {"bound": 2, "'
        'classification": "|C| <= 2: catenary degree <= 2", "computed'
        '_catenary": 0}, "warnings": [], "witnesses": []}'
    )),
    ('3', 'atoms'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "zss-a'
        'toms(C3)", "schema": "factorum/1", "value": ["(0)", "(1 2)",'
        ' "(1 1 1)", "(2 2 2)"], "warnings": [], "witnesses": []}'
    )),
    ('3', 'davenport'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "daven'
        'port(C3)", "schema": "factorum/1", "value": 3, "warnings": ['
        '], "witnesses": []}'
    )),
    ('3', 'catenary'): (2, (
        '{"budget": {}, "certification": "lower-bound", "invariant": '
        '"block-catenary(C3)", "schema": "factorum/1", "value": 3, "w'
        'arnings": ["searched all zero-sum sequences of length <= 6",'
        ' "classification value 3 for C3: computed bound agrees with '
        'it"], "witnesses": [{"element": "(1 1 1 2 2 2)"}]}'
    )),
    ('3', 'order-bound'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "order'
        '-bound(C3)", "schema": "factorum/1", "value": {"bound": 3, "'
        'classification": "catenary degree = 3 exactly for this class'
        ' group", "computed_catenary": 3}, "warnings": [], "witnesses'
        '": []}'
    )),
    ('4', 'atoms'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "zss-a'
        'toms(C4)", "schema": "factorum/1", "value": ["(0)", "(1 3)",'
        ' "(2 2)", "(1 1 2)", "(2 3 3)", "(1 1 1 1)", "(3 3 3 3)"], "'
        'warnings": [], "witnesses": []}'
    )),
    ('4', 'davenport'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "daven'
        'port(C4)", "schema": "factorum/1", "value": 4, "warnings": ['
        '], "witnesses": []}'
    )),
    ('4', 'catenary'): (2, (
        '{"budget": {}, "certification": "lower-bound", "invariant": '
        '"block-catenary(C4)", "schema": "factorum/1", "value": 3, "w'
        'arnings": ["searched all zero-sum sequences of length <= 6",'
        ' "classification value 4 for C4: computed bound below it"], '
        '"witnesses": [{"element": "(1 1 2 2 3 3)"}]}'
    )),
    ('4', 'order-bound'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "order'
        '-bound(C4)", "schema": "factorum/1", "value": {"bound": 4, "'
        'classification": "catenary degree = 4 exactly for this class'
        ' group", "computed_catenary": 4}, "warnings": [], "witnesses'
        '": []}'
    )),
    ('2,2', 'atoms'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "zss-a'
        'toms(C2 + C2)", "schema": "factorum/1", "value": ["(0+0)", "'
        '(0+1 0+1)", "(1+0 1+0)", "(1+1 1+1)", "(0+1 1+0 1+1)"], "war'
        'nings": [], "witnesses": []}'
    )),
    ('2,2', 'davenport'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "daven'
        'port(C2 + C2)", "schema": "factorum/1", "value": 3, "warning'
        's": [], "witnesses": []}'
    )),
    ('2,2', 'catenary'): (2, (
        '{"budget": {}, "certification": "lower-bound", "invariant": '
        '"block-catenary(C2 + C2)", "schema": "factorum/1", "value": '
        '3, "warnings": ["searched all zero-sum sequences of length <'
        '= 6", "classification value 3 for C2 + C2: computed bound ag'
        'rees with it"], "witnesses": [{"element": "(0+1 0+1 1+0 1+0 '
        '1+1 1+1)"}]}'
    )),
    ('2,2', 'order-bound'): (0, (
        '{"budget": {}, "certification": "exact", "invariant": "order'
        '-bound(C2 + C2)", "schema": "factorum/1", "value": {"bound":'
        ' 3, "classification": "catenary degree = 3 exactly for this '
        'class group", "computed_catenary": 3}, "warnings": [], "witn'
        'esses": []}'
    )),
}


@pytest.mark.parametrize("group, command", sorted(_FULL_SWEEP_JSON))
def test_zss_json_is_the_full_sweep_s(capsys, group, command):
    # byte for byte, but for the one note a block sweep appends
    code, out = run_json(capsys, "zss", "--group", group, command)
    expected_code, expected = _FULL_SWEEP_JSON[group, command]
    assert code == expected_code
    if command == "catenary":
        doc = json.loads(out)
        assert doc["warnings"].pop().startswith("swept G \\ {0} by")
        out = json.dumps(doc, sort_keys=True) + "\n"
    assert out == expected + "\n"
    if command == "order-bound":
        assert run_json(capsys, "order-bound", "--group", group) == (code, out)
