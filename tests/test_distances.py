import itertools
import random

import pytest

from factorum.distances import (DistanceKind, InstanceTooLarge, distance,
                                length_distance, permutable_distance,
                                rigid_distance, rigid_distance_alignment,
                                rigid_distance_oracle, verify_axioms)
from factorum.factorizations import (RigidFactorization, class_multiset,
                                     rigid_factorizations)
from factorum.presets import ab_ban, anbn, engine


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
    from factorum.matrices import TriangularMatrixHandle
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
