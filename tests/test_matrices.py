import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorum import matrices
from factorum.arith import big_omega, factor, is_prime
from factorum.catenary import VARIANTS, catenary_in_fibers
from factorum.distances import DistanceKind
from factorum.divisibility import divides_p, omega_semigroup, tame_element
from factorum.factorizations import (LengthSet, _class_walk, length_profile,
                                     permutable_class_multisets,
                                     permutable_factorizations,
                                     rigid_factorizations)
from factorum.matrices import (_DET_CAP, AtomProfile, DetTooLargeError,
                               FullMatrixHandle, NotAtomError,
                               TriangularMatrixHandle, _solve_upper,
                               annihilator_profile, delta_map,
                               delta_transfer_map, det_transfer_map,
                               identity_transfer_map, mat_det, mat_identity,
                               mat_is_atom, mat_mul, mat_left_divisors,
                               parse_matrix, snf, snf_ascending,
                               tri_associate_normal_form,
                               tri_atoms_associated, tri_is_atom, tri_is_unit,
                               tri_left_divisors, verify_transfer_properties)


# atoms and normal forms ----------------------------------------------------

def test_tri_is_atom_examples():
    assert tri_is_atom(((2, 0), (0, 1))) == AtomProfile(1, 2)
    assert tri_is_atom(((2, 0), (0, 3))) is None
    assert tri_is_atom(mat_identity(2)) is None
    assert tri_is_atom(((1, 7), (0, 3))) == AtomProfile(2, 3)
    assert tri_is_atom(((-5, 2), (0, -1))) == AtomProfile(1, 5)


def test_normal_form_examples():
    nf, (e, f) = tri_associate_normal_form(((2, 5), (0, 1)))
    assert nf == ((2, 0), (0, 1))
    assert mat_mul(e, mat_mul(((2, 5), (0, 1)), f)) == nf
    assert tri_is_unit(e) and tri_is_unit(f)

    nf2, _ = tri_associate_normal_form(((2, 0), (0, 1)))
    assert nf2 == ((2, 0), (0, 1))

    nf3, (e3, f3) = tri_associate_normal_form(((1, 7), (0, 3)))
    assert nf3 == ((1, 0), (0, 3))
    assert mat_mul(e3, mat_mul(((1, 7), (0, 3)), f3)) == nf3


def test_normal_form_t3():
    a = ((1, 4, -2), (0, -3, 5), (0, 0, 1))
    nf, (e, f) = tri_associate_normal_form(a)
    assert nf == ((1, 0, 0), (0, 3, 0), (0, 0, 1))
    assert mat_mul(e, mat_mul(a, f)) == nf


def test_normal_form_rejects_non_atoms():
    with pytest.raises(NotAtomError):
        tri_associate_normal_form(((2, 0), (0, 3)))


def test_profiles_and_association():
    assert tri_atoms_associated(((2, 5), (0, 1)), ((2, 0), (0, 1)))
    assert annihilator_profile(((2, 5), (0, 1))) == AtomProfile(1, 2)
    assert not tri_atoms_associated(((2, 0), (0, 1)), ((1, 0), (0, 2)))
    a = ((2, 3), (0, -1))
    assert tri_atoms_associated(a, a)


def test_profile_invariant_under_units():
    rng = random.Random(2)
    for _ in range(60):
        m = rng.choice([1, 2])
        p = rng.choice([2, 3, 5])
        base = tuple(tuple(p if i == j == m - 1 else (1 if i == j else 0)
                           for j in range(2)) for i in range(2))
        e = ((rng.choice([1, -1]), rng.randint(-3, 3)),
             (0, rng.choice([1, -1])))
        f = ((rng.choice([1, -1]), rng.randint(-3, 3)),
             (0, rng.choice([1, -1])))
        conj = mat_mul(e, mat_mul(base, f))
        assert annihilator_profile(conj) == AtomProfile(m, p)


def test_delta_map_examples():
    assert delta_map(((2, 0), (0, 3))) == (2, 3)
    assert delta_map(((2, 5), (0, 3))) == (2, 3)
    assert delta_map(((1, 0), (0, 1))) == (1, 1)
    assert delta_map(((-2, 1), (0, -3))) == (2, 3)


def test_delta_is_homomorphism():
    rng = random.Random(4)
    for _ in range(80):
        a = ((rng.choice([1, -1, 2, 3]), rng.randint(-4, 4)),
             (0, rng.choice([1, -1, 2])))
        b = ((rng.choice([1, -1, 2]), rng.randint(-4, 4)),
             (0, rng.choice([1, -1, 3])))
        lhs = delta_map(mat_mul(a, b))
        rhs = tuple(x * y for x, y in zip(delta_map(a), delta_map(b)))
        assert lhs == rhs


# divisor enumeration ---------------------------------------------------------

def _right_associated(u, v):
    """The oracle: u ~ v up to right multiplication by a unit of T_n(Z)."""
    x = _solve_upper(u, v)
    return x is not None and tri_is_unit(x)


def _m2_left_divides(u, a):
    """Whether u^{-1} a = adj(u) a / det(u) is integral, on M_2(Z)."""
    (w, x), (y, z) = u
    d = mat_det(u)
    return all(e % d == 0 for row in mat_mul(((z, -x), (-y, w)), a)
               for e in row)


def _gl_right_associated(u, v):
    """The oracle on M_2(Z): u ~ v up to right multiplication by a unit of
    GL_2(Z)."""
    return abs(mat_det(u)) == abs(mat_det(v)) and _m2_left_divides(u, v)


def _is_hermite_atom(u):
    """Whether u is diag(1, .., p, .., 1), p prime at (k, k), with residues
    mod p in row k right of it and zeros elsewhere."""
    n = len(u)
    k = next(i for i in range(n) if u[i][i] != 1)
    p = u[k][k]
    others = [u[i][j] - (i == j) for i in range(n) if i != k for j in range(n)]
    return is_prime(p) and not any(others) and not any(u[k][:k]) \
        and all(0 <= x < p for x in u[k][k + 1:])


def test_tri_divisors_diag14_example():
    # [[1,x],[0,2]], x in {0,1}, both left-divide diag(1,4), with quotients
    # [[1,-2x],[0,2]]; they are right-associated, so only the Hermite form
    # x = 0 is listed
    assert tri_left_divisors(((1, 0), (0, 4))) == \
        [(((1, 0), (0, 2)), ((1, 0), (0, 2)))]
    assert mat_mul(((1, 1), (0, 2)), ((1, -2), (0, 2))) == ((1, 0), (0, 4))
    assert _right_associated(((1, 1), (0, 2)), ((1, 0), (0, 2)))


def test_tri_divisors_recompose():
    h = TriangularMatrixHandle(2)
    rng = random.Random(6)
    for _ in range(100):
        a = ((rng.choice([x for x in range(-6, 7) if x]), rng.randint(-6, 6)),
             (0, rng.choice([x for x in range(-6, 7) if x])))
        for u, q in tri_left_divisors(a):
            assert mat_mul(u, q) == a
            assert tri_is_atom(u) is not None


def brute_tri_divisors(a, bound=8):
    """Scan all integer atoms with bounded entries dividing a on the left."""
    found = []
    n = len(a)
    entries = range(-bound, bound + 1)
    for diag in itertools.product(*(entries for _ in range(n))):
        if 0 in diag:
            continue
        for off in itertools.product(*(entries for _ in range(n * (n - 1) // 2))):
            u = [[0] * n for _ in range(n)]
            k = 0
            for i in range(n):
                u[i][i] = diag[i]
                for j in range(i + 1, n):
                    u[i][j] = off[k]
                    k += 1
            um = tuple(tuple(r) for r in u)
            if tri_is_atom(um) is None:
                continue
            q = _solve_upper(um, a)
            if q is not None:
                found.append(um)
    return found


@pytest.mark.parametrize("a", [((2, 1), (0, 3)), ((4, 0), (0, 1)),
                               ((2, 3), (0, 2)),
                               ((2, 1, 0), (0, 3, 1), (0, 0, 2))])
def test_tri_divisors_exhaustive_vs_brute(a):
    param = [u for u, _ in tri_left_divisors(a)]
    # bound 8 on T3 would scan about 20 M candidates; every Hermite form
    # here has entries below 3
    brute = brute_tri_divisors(a, bound=8 if len(a) == 2 else 3)
    assert set(param) <= set(brute)
    # every brute atom is right-associated to a parameterized one
    for u in brute:
        assert any(_right_associated(u, v) for v in param)
    # and the parameterized list is duplicate-free
    for i, u in enumerate(param):
        for v in param[i + 1:]:
            assert not _right_associated(u, v)


_DIAG = st.integers(-7, 7).filter(bool)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), data=st.data())
def test_tri_and_mat_divisors_agree_on_triangular(n, data):
    a = tuple(tuple(data.draw(_DIAG) if i == j
                    else data.draw(st.integers(-9, 9)) if i < j else 0
                    for j in range(n)) for i in range(n))
    assume(abs(mat_det(a)) <= 200)
    tri = tri_left_divisors(a)
    assert set(tri) == set(mat_left_divisors(a))
    for u, q in tri:
        assert mat_mul(u, q) == a and _is_hermite_atom(u)
    atoms = [u for u, _ in tri]
    for i, u in enumerate(atoms):
        for v in atoms[i + 1:]:
            assert not _right_associated(u, v)


@pytest.mark.parametrize("a", [((4, 1), (2, 5)), ((0, 2), (3, 1)),
                               ((2, 0), (0, 2))])
def test_mat_divisors_exhaustive_vs_brute(a):
    listed = [u for u, _ in mat_left_divisors(a)]
    bounded = itertools.product(range(-4, 5), repeat=4)
    brute = [u for u in ((e[:2], e[2:]) for e in bounded)
             if is_prime(abs(mat_det(u))) and _m2_left_divides(u, a)]
    assert set(listed) <= set(brute)
    # every bounded atom dividing a is right-associated to exactly one
    # listed atom
    for u in brute:
        assert sum(_gl_right_associated(u, v) for v in listed) == 1


def residue_divisors(a, pairs):
    """The oracle of the Hermite enumerator: for each (position k, prime p)
    pair, every residue row mod p in lexicographic order, kept when
    U^{-1} a is integral."""
    n = len(a)
    found = []
    for k, p in pairs:
        for residues in itertools.product(range(p), repeat=n - 1 - k):
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            u[k][k] = p
            u[k][k + 1:] = residues
            um = tuple(tuple(row) for row in u)
            q = _solve_upper(um, a)
            if q is not None:
                found.append((um, q))
    return found


def _t2_box():
    """Every [a b; 0 d] with 2 <= |ad| <= 60 and 0 <= b < 8."""
    for a in range(-60, 61):
        for d in range(-60, 61):
            if a and d and 2 <= abs(a * d) <= 60:
                for b in range(8):
                    yield ((a, b), (0, d))


def _m2_box():
    """Every 2x2 matrix with entries in [-5, 5] and 2 <= |det| <= 60."""
    for e in itertools.product(range(-5, 6), repeat=4):
        m = (e[:2], e[2:])
        if 2 <= abs(mat_det(m)) <= 60:
            yield m


def test_tri_divisors_match_residue_enumeration():
    for a in _t2_box():
        pairs = [(m, p) for m in range(2) for p in sorted(factor(a[m][m]))]
        assert tri_left_divisors(a) == residue_divisors(a, pairs), a


def test_mat_divisors_match_residue_enumeration():
    for a in _m2_box():
        pairs = [(k, p) for p in sorted(factor(mat_det(a))) for k in range(2)]
        assert mat_left_divisors(a) == residue_divisors(a, pairs), a


@pytest.mark.parametrize("n", [3, 4])
def test_divisors_match_residue_enumeration_on_larger_matrices(n):
    # scalar and near-scalar matrices, whose residue system has many
    # solutions, and random ones
    rng = random.Random(n)
    samples = [tuple(tuple(p * (i == j) + (i + 1 == j) * c for j in range(n))
                     for i in range(n)) for p in (2, 3, 5) for c in (0, 1, p)]
    while len(samples) < 60:
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                  for _ in range(n))
        if 2 <= abs(mat_det(a)) <= 60:
            samples.append(a)
    for a in samples:
        pairs = [(k, p) for p in sorted(factor(mat_det(a))) for k in range(n)]
        assert mat_left_divisors(a) == residue_divisors(a, pairs), a


def test_large_prime_divisors_solve_each_position_once(monkeypatch):
    # |det| = 999983, the largest prime under the cap: trying every
    # residue row would call _solve_upper 999983 times at position 0
    calls = []

    def counted(u, a):
        calls.append((u[0][0], u[1][1]))
        assert len(calls) <= 2, "_solve_upper called once per residue row"
        return _solve_upper(u, a)

    monkeypatch.setattr(matrices, "_solve_upper", counted)
    a = ((999983, 0), (0, 1))
    u = ((999983, 0), (0, 1))
    assert mat_left_divisors(a) == [(u, mat_identity(2))]
    assert len(calls) <= 2
    calls.clear()
    assert tri_left_divisors(a) == [(u, mat_identity(2))]
    assert len(calls) <= 1


def test_t2_permutable_factoriality_samples():
    h = TriangularMatrixHandle(2)
    rng = random.Random(12)
    for _ in range(120):
        a = ((rng.choice([x for x in range(-9, 10) if x]), rng.randint(-9, 9)),
             (0, rng.choice([x for x in range(-9, 10) if x])))
        if abs(mat_det(a)) > 36:
            continue
        sets, complete = permutable_class_multisets(h, a)
        assert complete and len(sets) == 1


def test_t3_factorization():
    h = TriangularMatrixHandle(3)
    a = ((2, 1, 0), (0, 1, 1), (0, 0, 3))
    fs = rigid_factorizations(h, a)
    assert fs.complete and len(fs) >= 1
    for z in fs:
        assert h.product(z.atoms) == a
    sets, complete = permutable_class_multisets(h, a)
    assert sets == frozenset({((1, 2), (3, 3))})


def test_normalize_key_preserves_classes():
    h = TriangularMatrixHandle(2)
    rng = random.Random(13)
    for _ in range(60):
        a = ((rng.choice([x for x in range(-8, 9) if x]), rng.randint(-8, 8)),
             (0, rng.choice([x for x in range(-8, 9) if x])))
        if abs(mat_det(a)) > 24:
            continue
        key = h.right_normalize_key(a)
        assert permutable_class_multisets(h, a)[0] == \
            permutable_class_multisets(h, key)[0]


def test_omega_of_t2_atoms_is_one():
    # omega_p(T2(Z), atom) = 1 on samples (atoms are almost prime-like)
    h = TriangularMatrixHandle(2)
    scope = []
    for a11 in (1, 2, 3, 4, 6):
        for a12 in (-1, 0, 2):
            for a22 in (1, 2, 3):
                if abs(a11 * a22) != 1:
                    scope.append(((a11, a12), (0, a22)))
    for atom in (((2, 0), (0, 1)), ((1, 1), (0, 3))):
        rep = omega_semigroup(h, atom, scope)
        assert rep.value == 1


# Smith Normal Form -----------------------------------------------------------

def test_snf_diag23():
    res = snf(((2, 0), (0, 3)))
    assert res.c == ((6, 0), (0, 1))
    assert mat_mul(res.u, mat_mul(res.c, res.v)) == ((2, 0), (0, 3))
    assert abs(mat_det(res.u)) == 1 and abs(mat_det(res.v)) == 1


def test_snf_identity():
    res = snf(mat_identity(2))
    assert res.c == mat_identity(2)


def test_snf_random():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.choice([2, 3])
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                  for _ in range(n))
        if mat_det(a) == 0:
            continue
        res = snf(a)
        assert mat_mul(res.u, mat_mul(res.c, res.v)) == a
        assert abs(mat_det(res.u)) == 1 and abs(mat_det(res.v)) == 1
        for i in range(n - 1):
            assert res.c[i][i] % res.c[i + 1][i + 1] == 0
        assert abs(mat_det(res.c)) == abs(mat_det(a))
        asc = snf_ascending(a)
        assert mat_mul(asc.u, mat_mul(asc.c, asc.v)) == a
        for i in range(n - 1):
            assert asc.c[i + 1][i + 1] % asc.c[i][i] == 0


def test_mat_atom_iff_prime_det():
    assert mat_is_atom(((0, 2), (1, 0)))    # det -2
    assert not mat_is_atom(((2, 0), (0, 2)))
    rng = random.Random(16)
    for _ in range(200):
        a = tuple(tuple(rng.randint(-6, 6) for _ in range(2))
                  for _ in range(2))
        if mat_det(a) == 0:
            continue
        assert mat_is_atom(a) == is_prime(abs(mat_det(a)))


def walked_length_profile(handle, a):
    """``length_profile`` as a cold walk of the class multisets finds it."""
    sets, need = _class_walk(handle, {}, {}, a, handle.length_cap(a))
    complete = need is not None and handle.certified(a)
    lengths = tuple(sorted({len(m) for m in sets}))
    delta = tuple(b - c for c, b in zip(lengths, lengths[1:]))
    rho = Fraction(lengths[-1], lengths[0]) if lengths[0] else Fraction(0)
    return LengthSet(lengths, delta, rho, complete)


def _three_by_three_sample():
    rng, out = random.Random(5), []
    while len(out) < 60:
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(3))
                  for _ in range(3))
        if 1 <= abs(mat_det(a)) <= 60:
            out.append(a)
    return out


def _m2_sample():
    entries = range(-6, 7)
    return [((a, b), (c, d))
            for a, b, c, d in itertools.product(entries, repeat=4)
            if 1 <= abs(a * d - b * c) <= 60]


def test_full_matrix_lengths_through_det_match_the_class_walk():
    # det is a transfer homomorphism onto N_{>0}: L(a) = {Omega(|det a|)}
    for n, sample in ((2, _m2_sample()), (3, _three_by_three_sample())):
        read, walked = FullMatrixHandle(n), FullMatrixHandle(n)
        for a in sample:
            assert length_profile(read, a) == walked_length_profile(walked, a)
        assert not read.memo.classes


def _t2_sample():
    return [((a11, a12), (0, a22))
            for a11, a22 in itertools.product(range(-12, 13), repeat=2)
            if a11 and a22 and abs(a11 * a22) <= 60
            for a12 in range(-3, 4)]


def _t3_sample():
    rng, out = random.Random(7), []
    while len(out) < 120:
        d = [rng.choice([x for x in range(-6, 7) if x]) for _ in range(3)]
        if abs(d[0] * d[1] * d[2]) <= 60:
            out.append(((d[0], rng.randint(-4, 4), rng.randint(-4, 4)),
                        (0, d[1], rng.randint(-4, 4)), (0, 0, d[2])))
    return out


@pytest.mark.parametrize("kind, n, sample", [
    (FullMatrixHandle, 2, _m2_sample),
    (FullMatrixHandle, 3, _three_by_three_sample),
    (TriangularMatrixHandle, 2, _t2_sample),
    (TriangularMatrixHandle, 3, _t3_sample),
], ids=["M2", "M3", "T2", "T3"])
def test_transfer_classes_match_the_class_walk(kind, n, sample):
    # a cold walk of the left divisors reads neither the transfer map nor
    # the rigid fact; it finds exactly one class multiset, the hook's
    handle = kind(n)
    for a in sample():
        sets, need = _class_walk(handle, {}, {}, a, handle.length_cap(a))
        assert need is not None and len(sets) == 1
        assert handle.transfer_classes(a) == sets[0]
        assert permutable_class_multisets(handle, a) == (frozenset(sets),
                                                         True)
    assert not handle.memo.rigid and not handle.memo.classes


_TWELVE = ((12, 0), (0, 12))


@pytest.mark.parametrize("kind, transfer_map, classes", [
    (TriangularMatrixHandle, delta_transfer_map,
     ((1, 2), (1, 2), (1, 3), (2, 2), (2, 2), (2, 3))),
    (FullMatrixHandle, det_transfer_map, (2, 2, 2, 2, 3, 3)),
], ids=["T2", "M2"])
def test_permutable_queries_of_twelve_list_no_rigid_factorization(
        kind, transfer_map, classes):
    # T2(Z) and M2(Z) are permutably factorial: 12 I has one class
    # multiset, although it has hundreds of rigid factorizations
    h = kind(2)
    atom = ((2, 0), (0, 1))
    assert permutable_class_multisets(h, _TWELVE) == (frozenset({classes}),
                                                      True)
    assert length_profile(h, _TWELVE) == LengthSet((6,), (), Fraction(1),
                                                   True)
    assert divides_p(h, atom, _TWELVE) == (True, True)
    assert tame_element(h, _TWELVE, [atom]) == ((atom,), 0, True, None)
    distances = (DistanceKind.LENGTH, DistanceKind.PERMUTABLE)
    reports = [variant(h, _TWELVE, d)
               for d in distances for variant in VARIANTS.values()]
    reports += [catenary_in_fibers(h, _TWELVE, d, transfer_map(h))
                for d in distances]
    assert {(r.value, r.certified, r.witness) for r in reports} == {
        (0, True, None)}
    assert not h.memo.rigid
    # the representative is still the first rigid factorization, read off
    # the rigid fact only when it is asked for
    (pf,), complete = permutable_factorizations(h, _TWELVE)
    first = rigid_factorizations(h, _TWELVE).factorizations[0]
    assert complete and pf == (classes, 6, first)
    assert len(rigid_factorizations(h, _TWELVE)) > 1


# 2^61 - 1 is prime, and 10^23 + ... has a large prime factor: trial
# division of either would not end in any test's time
_MERSENNE_61 = ((2 ** 61 - 1, 0), (0, 1))
_HUGE = ((99999999999999999999999, 0), (0, 1))


@pytest.mark.parametrize("a", [_MERSENNE_61, _HUGE], ids=["2^61-1", "10^23-1"])
@pytest.mark.parametrize("query", [
    lambda a: tri_is_atom(a),
    lambda a: mat_is_atom(a),
    lambda a: FullMatrixHandle(2).atom_class(a),
    lambda a: TriangularMatrixHandle(2).length_cap(a),
    lambda a: FullMatrixHandle(2).length_cap(a),
    lambda a: length_profile(FullMatrixHandle(2), a),
    lambda a: rigid_factorizations(TriangularMatrixHandle(2), a),
    lambda a: TriangularMatrixHandle(2).transfer_classes(a),
    lambda a: FullMatrixHandle(2).transfer_classes(a),
    lambda a: length_profile(TriangularMatrixHandle(2), a),
    lambda a: permutable_class_multisets(TriangularMatrixHandle(2), a),
], ids=["tri_is_atom", "mat_is_atom", "atom_class", "tri_length_cap",
        "mat_length_cap", "mat_lengths", "tri_factorize",
        "tri_transfer_classes", "mat_transfer_classes", "tri_lengths",
        "tri_class_multisets"])
def test_determinant_cap_is_checked_before_trial_division(a, query):
    with pytest.raises(DetTooLargeError, match=f"exceeds cap {_DET_CAP}"):
        query(a)


@pytest.mark.parametrize("handle, a, message", [
    (TriangularMatrixHandle(2), ((1, 0), (1, 1)), "upper triangular"),
    (TriangularMatrixHandle(2), ((0, 1), (0, 1)), "upper triangular"),
    (TriangularMatrixHandle(2), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
     "upper triangular"),
    (FullMatrixHandle(2), ((2, 4), (1, 2)), "square integer"),
    (FullMatrixHandle(3), ((1, 0), (0, 1)), "square integer"),
], ids=["tri-lower", "tri-singular", "tri-3x3", "mat-singular", "mat-2x2"])
@pytest.mark.parametrize("query", [
    rigid_factorizations, length_profile, permutable_class_multisets,
    lambda handle, a: handle.transfer_classes(a),
], ids=["factorize", "lengths", "class-multisets", "transfer-classes"])
def test_matrix_handles_reject_non_elements(handle, a, message, query):
    # the same check as ``matrix()``, with the same message
    with pytest.raises(ValueError, match=message + ".* with nonzero det"):
        handle.matrix(a)
    with pytest.raises(ValueError, match=message + ".* with nonzero det"):
        query(handle, a)


def test_determinant_cap_leaves_small_determinants_and_snf():
    # the largest prime under the cap is still an atom, one over is refused
    below = ((999983, 0), (0, 1))
    assert mat_is_atom(below) and tri_is_atom(below) == AtomProfile(1, 999983)
    assert FullMatrixHandle(2).length_cap(below) == 1
    over = ((1000003, 0), (0, 1))
    with pytest.raises(DetTooLargeError):
        tri_is_atom(over)
    # the Smith form and the diagonal map factor nothing
    assert snf(_MERSENNE_61).c == _MERSENNE_61
    assert delta_map(_HUGE) == (99999999999999999999999, 1)


def test_m2_lengths_are_omega():
    h = FullMatrixHandle(2)
    rng = random.Random(18)
    checked = 0
    while checked < 150:
        a = tuple(tuple(rng.randint(-8, 8) for _ in range(2))
                  for _ in range(2))
        d = mat_det(a)
        if d == 0 or abs(d) == 1 or abs(d) > 60:
            continue
        checked += 1
        L = length_profile(h, a)
        assert L.certified and L.lengths == (big_omega(d),)
        for u, q in mat_left_divisors(a):
            assert mat_mul(u, q) == a and mat_is_atom(u)


def test_m3_divisor_enumeration():
    a = ((2, 0, 1), (0, 3, 0), (0, 0, 1))
    for u, q in mat_left_divisors(a):
        assert mat_mul(u, q) == a and mat_is_atom(u)
    h = FullMatrixHandle(3)
    assert length_profile(h, a).lengths == (2,)


def test_parse_matrix():
    assert parse_matrix("2 5; 0 3") == ((2, 5), (0, 3))
    with pytest.raises(ValueError, match="row 1 has 3 entries, expected 2"):
        parse_matrix("1 2 3; 4 5")
    with pytest.raises(ValueError, match="row 2 has 1 entry, expected 2"):
        parse_matrix("1 2; 3")
    with pytest.raises(ValueError,
                       match="row 1, column 1: '1.5' is not an integer"):
        parse_matrix("1.5 2; 0 1")
    with pytest.raises(ValueError,
                       match="row 2, column 2: 'x' is not an integer"):
        parse_matrix("1 0; 0 x")
    for text in ("", "  "):
        with pytest.raises(ValueError, match="empty matrix"):
            parse_matrix(text)


# transfer verification -------------------------------------------------------

def _tri_sample():
    # all upper triangular shapes with |det| <= 30 and small entries
    out = []
    for a11 in range(-6, 7):
        for a12 in (-2, 0, 1, 3):
            for a22 in range(-6, 7):
                if a11 * a22 != 0 and abs(a11 * a22) <= 30:
                    out.append(((a11, a12), (0, a22)))
    return out


def test_verify_delta_transfer():
    h = TriangularMatrixHandle(2)
    rep = verify_transfer_properties(delta_transfer_map(h), _tri_sample())
    assert rep.passed, rep.counterexample


def test_verify_det_transfer():
    h = FullMatrixHandle(2)
    rng = random.Random(19)
    sample = []
    while len(sample) < 50:
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(2))
                  for _ in range(2))
        if mat_det(a) != 0 and abs(mat_det(a)) <= 30:
            sample.append(a)
    rep = verify_transfer_properties(det_transfer_map(h), sample)
    assert rep.passed, rep.counterexample


def test_verify_identity_transfer():
    from factorum.zerosum import BlockMonoidHandle, FiniteAbelianGroup
    handle = BlockMonoidHandle(FiniteAbelianGroup((3,)))
    sample = [handle.sequence([(1,), (2,)]),
              handle.sequence([(1,)] * 3),
              handle.sequence([(1,), (1,), (2,), (2,), (0,)])]
    rep = verify_transfer_properties(identity_transfer_map(handle), sample)
    assert rep.passed
