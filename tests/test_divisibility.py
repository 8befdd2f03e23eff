import itertools
import json
import random
from collections import Counter
from importlib import resources

import pytest

import factorum.divisibility as divisibility
from factorum.cli import main
from factorum.divisibility import (AlmostPrimeLikeReport, DivisibilityKind,
                                   NotAlmostPrimeLikeError, OmegaReport,
                                   OmegaWitness, UnsupportedOperation,
                                   ValuationSet, _nonunit_decompositions,
                                   divides, divides_p, is_almost_prime_like,
                                   is_prime_like, min_subproduct_k, occurs_in,
                                   omega_element, omega_semigroup,
                                   tame_element, tame_semigroup,
                                   valuation_set)
from factorum.factorizations import (permutable_factorizations,
                                     rigid_factorizations)
from factorum.matrices import (FullMatrixHandle, TriangularMatrixHandle,
                               mat_det)
from factorum.presentation import (BudgetError, ExplorationBudget,
                                   PresentationSemigroup, parse_presentation)
from factorum.presets import ab_ban, b_an_c, engine, preset_names


def make(text, mwl=12):
    return PresentationSemigroup(parse_presentation(text),
                                 ExplorationBudget(mwl))


def test_divides_p_ab_cd_cede_ba():
    h = engine("ab_cd_cede_ba")
    a = h.element_from_str("a")
    cd = h.element_from_str("c d")
    assert divides_p(h, a, cd).holds   # cd = ab, so a |_p cd


@pytest.mark.parametrize("make", [TriangularMatrixHandle, FullMatrixHandle])
def test_leftright_divides_unsupported_on_matrices(make):
    h = make(2)
    b, a = ((2, 0), (0, 1)), ((2, 0), (0, 3))
    with pytest.raises(UnsupportedOperation) as exc:
        divides(h, DivisibilityKind.LEFT_RIGHT, b, a)
    assert str(exc.value) == \
        f"left-right divisibility is not implemented for {h.name}"


def test_divides_reflexive_on_atoms():
    h = engine("abc_cb")
    u = h.element_from_str("b")
    assert divides_p(h, u, u).holds
    assert divides(h, DivisibilityKind.LEFT_RIGHT, u, u).holds


def test_atom_divisibility_kinds_agree():
    # for atoms, |_p and |_{l-r} coincide (explored pairs)
    for h in (engine("abc_cb"), engine("ab_cd_cede_ba"), ab_ban(3)):
        atoms, _ = h.enumerate_atoms(2)
        els, _ = h.enumerate_elements(4)
        for u in atoms:
            for a in els:
                dp = divides(h, DivisibilityKind.PERMUTATION, u, a)
                dlr = divides(h, DivisibilityKind.LEFT_RIGHT, u, a)
                if dp.certified and dlr.certified:
                    assert dp.holds == dlr.holds


def test_divisibility_relation_axioms():
    # (i) a|b or a|c implies a|bc; (ii) associate closure is trivial in the
    # reduced engine; (iii) atom | atom implies associated; (iv) nothing
    # non-trivial divides the identity
    rng = random.Random(23)
    for h in (engine("abc_cb"), ab_ban(3)):
        els, _ = h.enumerate_elements(3)
        atoms, _ = h.enumerate_atoms(2)
        for kind in DivisibilityKind:
            for _ in range(40):
                a, b, c = (rng.choice(els) for _ in range(3))
                hit = None
                if divides(h, kind, a, b).holds:
                    hit = True
                elif divides(h, kind, a, c).holds:
                    hit = True
                if hit:
                    assert divides(h, kind, a, h.multiply(b, c)).holds
            for u in atoms:
                for v in atoms:
                    if divides(h, kind, u, v).holds:
                        assert h.atoms_associated(u, v)
                assert not divides(h, kind, u, h.identity()).holds


def test_almost_prime_like_aba_ba3bc():
    h = engine("aba_ba3bc")
    els, comp = h.enumerate_elements(6)
    a, b, c = (h.element_from_str(x) for x in "abc")
    assert is_almost_prime_like(h, a, els).holds
    assert is_almost_prime_like(h, b, els).holds
    rep = is_almost_prime_like(h, c, els)
    assert not rep.holds
    el, z_with, z_without = rep.counterexample
    assert el.word == ("a", "b", "a")
    assert occurs_in(h, c, z_with) and not occurs_in(h, c, z_without)
    # counterexample factorizations recompose to the element
    assert h.product(z_with.atoms).word == el.word
    assert h.product(z_without.atoms).word == el.word


def _first_with_and_without(h, q, scope):
    """The counterexample as the two-list check finds it."""
    for a in scope:
        fs = rigid_factorizations(h, a)
        with_q = [z for z in fs if occurs_in(h, q, z)]
        without_q = [z for z in fs if not occurs_in(h, q, z)]
        if with_q and without_q:
            return a, with_q[0], without_q[0]
    return None


@pytest.mark.parametrize("name", ["aba_ba3bc", "ab_cd", "abc_cb",
                                  "ab_cd_cede_ba", "aba_bab"])
def test_almost_prime_like_witness_is_first_with_and_without(name):
    h = engine(name)
    els, comp = h.enumerate_elements(5)
    atoms, _ = h.enumerate_atoms(2)
    for q in atoms:
        rep = is_almost_prime_like(h, q, els, comp)
        assert rep.counterexample == _first_with_and_without(h, q, els)
        assert rep.holds == (rep.counterexample is None)


@pytest.mark.parametrize("q,with_q,without_q", [
    ("a", ["a", "b"], ["c", "d"]),      # [a, b] and [b, a] contain a
    ("c", ["c", "d"], ["a", "b"]),      # [a, b] and [b, a] do not contain c
])
def test_almost_prime_like_witness_takes_the_first_factorizations(
        q, with_q, without_q):
    h = make("gens: a b c d\nrel: a b = b a\nrel: a b = c d\n")
    ab = h.element_from_str("a b")
    assert len(rigid_factorizations(h, ab)) == 3
    rep = is_almost_prime_like(h, h.element_from_str(q), [ab])
    el, z_with, z_without = rep.counterexample
    assert el == ab and not rep.holds
    assert [u.word[0] for u in z_with.atoms] == with_q
    assert [u.word[0] for u in z_without.atoms] == without_q


def test_almost_prime_like_free_monoid():
    h = make("gens: a b\n")
    els, comp = h.enumerate_elements(4)
    rep = is_almost_prime_like(h, h.element_from_str("a"), els, comp)
    assert rep.holds and rep.certified


def test_almost_prime_like_ab_cd_counterexample():
    h = engine("ab_cd")
    els, _ = h.enumerate_elements(4)
    rep = is_almost_prime_like(h, h.element_from_str("a"), els)
    assert not rep.holds
    assert rep.counterexample[0].word == ("a", "b")


def test_valuations_aba_ba3bc():
    h = engine("aba_ba3bc")
    a, b = h.element_from_str("a"), h.element_from_str("b")
    aba = h.element_from_str("a b a")
    assert valuation_set(h, a, aba).values == (2, 3)
    assert valuation_set(h, b, aba).values == (1, 2)
    assert valuation_set(h, a, a).values == (1,)


@pytest.mark.parametrize("word", ["a b c", ""])
def test_valuation_set_refuses_a_non_atom(word):
    # a b has no valuation on abc_cb, the unit's included
    h = engine("abc_cb")
    q, a = h.element_from_str("a b"), h.element_from_str(word)
    with pytest.raises(ValueError, match="a b is not an atom"):
        valuation_set(h, q, a)
    assert valuation_set(h, h.element_from_str("b"), a).values \
        == ((1,) if word else (0,))


def test_valuation_precheck_raises():
    # prime-likeness reads valuation sets only after the almost-prime-like
    # check over the scope passed
    h = engine("aba_ba3bc")
    els, _ = h.enumerate_elements(6)
    c = h.element_from_str("c")
    with pytest.raises(NotAlmostPrimeLikeError, match="not almost prime-like"):
        is_prime_like(h, c, els)


def test_prime_like_but_not_permutably_factorial():
    # <a,b | a^2 = b a^2 b>: a is prime-like, yet |Z_p(a^2)| > 1
    h = make("gens: a b\nrel: a a = b a a b\n", 10)
    els, _ = h.enumerate_elements(4)
    rep = is_prime_like(h, h.element_from_str("a"), els, False)
    assert rep.holds
    pfs, _ = permutable_factorizations(h, h.element_from_str("a a"))
    assert len(pfs) > 1


def test_additivity_of_singleton_valuations():
    # prime-like q: V_q(ab) = V_q(a) + V_q(b) on samples
    h = b_an_c(3)
    els, _ = h.enumerate_elements(3)
    q = h.element_from_str("a")
    for x in els[:8]:
        for y in els[:8]:
            vx = valuation_set(h, q, x).values
            vy = valuation_set(h, q, y).values
            vxy = valuation_set(h, q, h.multiply(x, y)).values
            if len(vx) == 1 and len(vy) == 1 and len(vxy) == 1:
                assert vxy[0] == vx[0] + vy[0]


def test_consdivprod_atom_case():
    # almost-prime-like q |_p u_1...u_m with atoms u_i implies q ~ some u_i
    h = engine("aba_ba3bc")
    rng = random.Random(9)
    atoms, _ = h.enumerate_atoms(1)
    q = h.element_from_str("a")
    for _ in range(30):
        us = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
        prod = h.product(us)
        if divides_p(h, q, prod).holds:
            fs = rigid_factorizations(h, prod)
            if fs.complete and all(occurs_in(h, q, z) for z in fs):
                assert any(h.atoms_associated(q, u) for u in us)


def test_ab_cd_cede_ba_values():
    h = engine("ab_cd_cede_ba")
    a = h.element_from_str("a")
    els, comp = h.enumerate_elements(5)
    assert comp
    rep = omega_semigroup(h, a, els)
    assert rep.value == 2 and rep.certified
    ba = h.element_from_str("b a")
    repp = omega_element(h, ba, a, "nonunits")
    assert repp.value >= 3
    parts = tuple(h.element_from_str(s) for s in ("c e", "d", "e"))
    assert min_subproduct_k(h, parts, a)[0] == 3


@pytest.mark.parametrize("mode", ["atoms", "nonunits"])
def test_omega_with_a_unit_divisor_is_zero(mode):
    # the empty subproduct is divisible by a unit
    h = engine("ab_cd_cede_ba")
    unit = h.identity()
    rep = omega_element(h, h.element_from_str("c e d e"), unit, mode)
    assert (rep.value, rep.certified, rep.witness) == (0, True, None)
    els, _ = h.enumerate_elements(3)
    rep = omega_semigroup(h, unit, els, mode)
    assert (rep.value, rep.certified, rep.witness) == (0, True, None)


@pytest.mark.parametrize("mode", ["atoms", "nonunits"])
@pytest.mark.parametrize("name, divisor", [
    ("aba_b", "b"), ("aba_b", "a b"), ("abc_cb", "a"), ("ab_cd_cede_ba", "c e"),
])
def test_omega_of_the_unit_against_a_non_unit_is_exactly_zero(name, divisor,
                                                              mode):
    # the unit has only the empty class multiset, so no non-unit divides
    # it, even one whose own class multisets are incomplete (b on aba_b)
    h = engine(name)
    rep = omega_element(h, h.identity(), h.element_from_str(divisor), mode)
    assert (rep.value, rep.certified, rep.witness) == (0, True, None)


@pytest.mark.parametrize("mode", ["bogus", "", None])
def test_omega_checks_its_mode_first(mode):
    # before the unit check and before any divisibility test, so a divisor
    # that divides, one that does not, and a unit all raise alike
    h = engine("ab_cd_cede_ba")
    el = h.element_from_str
    for a, b in ((el("b a"), el("c")), (el("a"), el("d")),
                 (el("c e d e"), h.identity())):
        with pytest.raises(ValueError, match="mode must be 'atoms' or "
                                             "'nonunits'"):
            omega_element(h, a, b, mode)
        with pytest.raises(ValueError, match="mode must be 'atoms' or "
                                             "'nonunits'"):
            omega_semigroup(h, b, [a], mode)


def test_omega_free_monoid_prime():
    h = make("gens: a b\n")
    els, _ = h.enumerate_elements(4)
    rep = omega_semigroup(h, h.element_from_str("a"), els)
    assert rep.value == 1


def test_omega_banc_values():
    h = b_an_c(3)
    els, _ = h.enumerate_elements(5)
    assert omega_semigroup(h, h.element_from_str("a"), els).value == 1
    assert omega_semigroup(h, h.element_from_str("b"), els).value == 3
    assert omega_semigroup(h, h.element_from_str("c"), els).value == 3


def test_omega_le_omega_prime():
    h = engine("ab_cd_cede_ba")
    els, _ = h.enumerate_elements(4)
    for divisor in (h.element_from_str("a"), h.element_from_str("c")):
        for x in els[:20]:
            w = omega_element(h, x, divisor, "atoms").value
            wp = omega_element(h, x, divisor, "nonunits").value
            assert w <= wp


@pytest.mark.parametrize("n", [8, 9, 10])
def test_omega_prime_past_the_part_cap_is_not_exact(n):
    # on <a, b>, omega_p(a^n, a^n) = n, and omega'_p is at least omega_p;
    # a search cut at 8 parts may not call a smaller value exact
    h = make("gens: a b\n")
    an = h.element_from_str(" ".join("a" * n))
    rep = omega_element(h, an, an, "atoms")
    assert (rep.value, rep.certified) == (n, True)
    rep = omega_element(h, an, an, "nonunits")
    assert rep.value >= n or not rep.certified


@pytest.mark.parametrize("mode", ["atoms", "nonunits"])
def test_omega_builds_one_witness(mode, monkeypatch, capsys):
    # the sweep keeps the running maximiser's parts and indices and makes
    # the witness once, at the end; one element's query does the same
    built = []

    def counting(*fields):
        built.append(fields)
        return OmegaWitness(*fields)

    monkeypatch.setattr(divisibility, "OmegaWitness", counting)
    h = engine("ab_cd_cede_ba")
    a = h.element_from_str("a")
    els, _ = h.enumerate_elements(4)
    rep = omega_semigroup(h, a, els, mode)
    assert len(built) == 1 and rep.witness == OmegaWitness(*built[0])
    built.clear()
    rep = omega_element(h, h.element_from_str("b a"), a, mode)
    assert len(built) == 1 and rep.witness == OmegaWitness(*built[0])
    if mode == "atoms":
        built.clear()
        path = resources.files("factorum").joinpath(
            "presentations/ab_cd_cede_ba.pres")
        code = main(["--format", "json", "omega", str(path),
                     "--divisor", "a", "--max-length", "4"])
        out = json.loads(capsys.readouterr().out)
        assert (code, len(built)) == (2, 1)
        assert out["witnesses"] == [{"element": "a b", "parts": ["c", "d"],
                                     "min_k": 2, "subproduct_indices": [0, 1]}]


def test_tame_aba_bab():
    h = engine("aba_bab")
    els, comp = h.enumerate_elements(6)
    for g in "ab":
        rep = tame_semigroup(h, [h.element_from_str(g)], els,
                             scope_certified=comp)
        assert rep.value == 0 and rep.certified


def test_tame_banc():
    h = b_an_c(3)
    els, comp = h.enumerate_elements(6)
    assert tame_semigroup(h, [h.element_from_str("a")], els).value == 0
    assert tame_semigroup(h, [h.element_from_str("b")], els).value == 1
    assert tame_semigroup(h, [h.element_from_str("c")], els).value == 1


def test_tame_semigroup_checks_the_pattern_once_before_the_sweep(
        monkeypatch):
    h = engine("abc_cb")
    ab, a = h.element_from_str("a b"), h.element_from_str("a")
    # an empty scope reaches no element, yet a b is refused
    with pytest.raises(ValueError, match="pattern entry a b is not an atom"):
        tame_semigroup(h, [ab], [])
    els, complete = h.enumerate_elements(4)
    want = tame_semigroup(h, [a], els, complete)
    asked = []
    monkeypatch.setattr(h, "is_atom", lambda x: asked.append(x) or True)
    assert tame_semigroup(h, [a], els, complete) == want
    assert asked == [a]
    assert tame_element(h, ab, [a]) == tame_semigroup(h, [a], (ab,))


def test_tame_single_class_zero():
    h = engine("abc_cb")
    el = h.element_from_str("a b")   # unique factorization
    rep = tame_element(h, el, [h.element_from_str("a")])
    assert rep.value == 0


def test_tame_witness_takes_the_first_nearest_qualifying_class():
    # a b = c d e = c f g: both factorizations holding c are 3 from [a, b],
    # the worst node, and the witness names the first in multiset order
    h = make("gens: a b c d e f g\nrel: a b = c d e\nrel: d e = f g\n")
    ab = h.element_from_str("a b")
    rep = tame_element(h, ab, [h.element_from_str("c")])
    assert (rep.value, rep.certified) == (3, True)
    assert rep.witness == (ab, (("a",), ("b",)), (("c",), ("d",), ("e",)))


def test_permutable_factoriality_iff_prime_like_atoms():
    # within a finite scope: every atom prime-like <=> |Z_p| = 1 throughout
    free = make("gens: a b\n")
    els, _ = free.enumerate_elements(4)
    atoms, _ = free.enumerate_atoms(1)
    assert all(is_prime_like(free, u, els, False).holds for u in atoms)
    assert all(len(permutable_factorizations(free, el)[0]) == 1 for el in els)

    h = engine("ab_cd")   # ab = cd has two permutable factorizations
    els2, _ = h.enumerate_elements(3)
    assert any(len(permutable_factorizations(h, el)[0]) > 1 for el in els2)
    atoms2, _ = h.enumerate_atoms(1)
    flags = []
    for u in atoms2:
        try:
            flags.append(is_prime_like(h, u, els2, False).holds)
        except NotAlmostPrimeLikeError:
            flags.append(False)
    assert not all(flags)


# the class tuples shared by a set's queries against per-atom loops -------


def _apl_reference(h, q, scope, scope_certified=True):
    """is_almost_prime_like as a loop of occurs_in over every factorization,
    each asking atom_class of every atom."""
    if not h.is_atom(q):
        raise NotAlmostPrimeLikeError("q must be a certified atom")
    certified = scope_certified
    for a in scope:
        fs = rigid_factorizations(h, a)
        certified = certified and fs.complete
        with_q = without_q = None
        for z in fs:
            if occurs_in(h, q, z):
                if with_q is None:
                    with_q = z
            elif without_q is None:
                without_q = z
            if with_q is not None and without_q is not None:
                return AlmostPrimeLikeReport(q, False, True,
                                             (a, with_q, without_q))
    return AlmostPrimeLikeReport(q, True, certified, None)


def _valuation_reference(h, q, a):
    if h.is_unit(a):
        return ValuationSet(q, a, (0,), True)
    fs = rigid_factorizations(h, a)
    cls = h.atom_class(q)
    values = sorted({sum(1 for u in z.atoms if h.atom_class(u) == cls)
                     for z in fs})
    return ValuationSet(q, a, tuple(values), fs.complete)


def _spell(h, x):
    return h.format_element(x), h.certified(x)


def _apl_spelled(h, rep):
    cex = rep.counterexample and (
        _spell(h, rep.counterexample[0]),
        [_spell(h, u) for u in rep.counterexample[1].atoms],
        [_spell(h, u) for u in rep.counterexample[2].atoms])
    return _spell(h, rep.atom), rep.holds, rep.certified, cex


def _check_sweep(make, atoms, elements):
    """The apl-sweep's queries on one handle, the references on another,
    element by element and then over the whole scope."""
    h, ref = make(), make()
    xs, ys = [], []
    for element in elements:
        x, y = element(h), element(ref)
        xs.append(x)
        ys.append(y)
        for q in atoms:
            got = is_almost_prime_like(h, q(h), [x])
            want = _apl_reference(ref, q(ref), [y])
            assert _apl_spelled(h, got) == _apl_spelled(ref, want)
        for q in atoms:
            got, want = valuation_set(h, q(h), x), \
                _valuation_reference(ref, q(ref), y)
            assert (got.values, got.certified) == (want.values, want.certified)
    reports = []
    for q in atoms:
        got = is_almost_prime_like(h, q(h), xs, False)
        want = _apl_reference(ref, q(ref), ys, False)
        assert _apl_spelled(h, got) == _apl_spelled(ref, want)
        reports.append(got)
    return reports


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("budget", [None, ExplorationBudget(6, 5)])
def test_sweep_queries_match_the_per_atom_loops(name, budget):
    probe = engine(name, budget)
    words = [w for n in range(1, 5)
             for w in itertools.product(probe.presentation.generators,
                                        repeat=n)]
    random.Random(name).shuffle(words)
    atoms = [lambda e, g=g: e.element((g,))
             for g in probe.presentation.generators
             if probe.is_atom(probe.element((g,)))]
    _check_sweep(lambda: engine(name, budget), atoms,
                 [lambda e, w=w: e.element(w) for w in words[:250]])


def test_sweep_queries_keep_the_first_counterexample():
    atoms = [lambda e, g=g: e.element((g,)) for g in "abc"]
    words = [w for n in range(1, 6) for w in itertools.product("abc",
                                                               repeat=n)]
    reports = _check_sweep(lambda: engine("aba_ba3bc"), atoms,
                           [lambda e, w=w: e.element(w) for w in words])
    assert [r.holds for r in reports] == [True, True, False]
    assert reports[2].counterexample[0].word == ("a", "b", "a")


@pytest.mark.parametrize("make", [TriangularMatrixHandle, FullMatrixHandle])
def test_matrix_sweep_queries_match_the_per_atom_loops(make):
    # atom_class is not the key here: (position, prime) on T2(Z), |det| on
    # M2(Z), so associated atoms count as one
    rng = random.Random(7)
    lower = (lambda: 0) if make is TriangularMatrixHandle \
        else (lambda: rng.randint(-4, 4))
    matrices = []
    while len(matrices) < 40:
        m = ((rng.randint(-4, 4), rng.randint(-4, 4)),
             (lower(), rng.randint(-4, 4)))
        if 2 <= abs(mat_det(m)) <= 24:
            matrices.append(m)
    atoms = [lambda e, m=m: m for m in (((2, 0), (0, 1)), ((1, 0), (0, 2)),
                                        ((3, 1), (0, 1)), ((1, 1), (0, 3)))]
    reports = _check_sweep(lambda: make(2), atoms,
                           [lambda e, m=m: m for m in matrices])
    assert all(r.holds for r in reports)


@pytest.mark.parametrize("make", [TriangularMatrixHandle, FullMatrixHandle])
def test_matrix_valuations_are_read_off_the_transfer(make):
    # one class multiset per element: V_q(a) is one count and no element is
    # a counterexample, so the answers walk no rigid ordering, and they are
    # the rigid walk's reports, field for field
    rng = random.Random(11)
    lower = (lambda: 0) if make is TriangularMatrixHandle \
        else (lambda: rng.randint(-6, 6))
    matrices = [((12, 0), (0, 12)), ((1, 0), (0, 1))]
    while len(matrices) < 30:
        m = ((rng.randint(-8, 8), rng.randint(-8, 8)),
             (lower(), rng.randint(-8, 8)))
        if 1 <= abs(mat_det(m)) <= 60:
            matrices.append(m)
    atoms = (((2, 0), (0, 1)), ((1, 0), (0, 2)), ((3, 1), (0, 1)),
             ((1, 1), (0, 5)))
    h, ref = make(2), make(2)
    for q in atoms:
        for m in matrices:
            assert valuation_set(h, q, m) == _valuation_reference(ref, q, m)
        assert is_almost_prime_like(h, q, matrices) \
            == _apl_reference(ref, q, matrices)
    assert not h.memo.rigid and ref.memo.rigid


# omega_p from its definition ---------------------------------------------


def _divides_p_oracle(h, b, x):
    """b |_p x from the definition: the class multiset of some rigid
    factorization of b is a sub-multiset of one of x's; unknown when
    either set of rigid factorizations is incomplete."""
    if h.is_unit(b):
        return True, True
    fb, fx = rigid_factorizations(h, b), rigid_factorizations(h, x)
    mb = [Counter(map(h.atom_class, z.atoms)) for z in fb]
    mx = [Counter(map(h.atom_class, z.atoms)) for z in fx]
    if any(not m - n for m in mb for n in mx):
        return True, True
    certified = fb.complete and fx.complete
    return (False if certified else None), certified


def _omega_oracle(h, a, b, mode):
    """omega_p(a, b) or omega'_p(a, b) from its definition: over every
    decomposition of a, the least k with b |_p the subproduct of some k
    increasing indices, every index subset tried by size; the worst one
    and its first decomposition are the value and witness."""
    if h.is_unit(b):
        return OmegaReport(b, mode, 0, True, None)
    holds, certified = _divides_p_oracle(h, b, a)
    if holds is not True:
        return OmegaReport(b, mode, 0, certified, None)
    if mode == "atoms":
        fs = rigid_factorizations(h, a)
        decomps, complete = [z.atoms for z in fs], fs.complete
    else:
        decomps, complete = _nonunit_decompositions(h, a)
    value, witness, certified = 0, None, complete
    for parts in decomps:
        n = len(parts)
        cert = True
        for idxs in (s for k in range(1, n + 1)
                     for s in itertools.combinations(range(n), k)):
            holds, _ = _divides_p_oracle(
                h, b, h.product([parts[i] for i in idxs]))
            if holds:
                k = len(idxs)
                break
            if holds is None:
                cert = False
        else:
            # the whole product is a, so b |_p a was not certified
            k, idxs, cert = n, tuple(range(n)), False
        certified = certified and cert
        if k > value:
            value, witness = k, OmegaWitness(a, tuple(parts), k, idxs)
    return OmegaReport(b, mode, value, certified, witness)


def _omega_spelled(h, rep):
    w = rep.witness
    return (_spell(h, rep.divisor), rep.mode, rep.value, rep.certified,
            w and (_spell(h, w.element), [_spell(h, p) for p in w.parts],
                   w.min_k, w.subproduct))


def _omega_engine(name, budget):
    """The preset at the budget, or, where a relation side is longer than
    its word cap, at the shortest word cap that takes every side."""
    try:
        return engine(name, budget)
    except BudgetError:
        sides = [len(side) for r in engine(name).presentation.relations
                 for side in r]
        return engine(name, ExplorationBudget(max(sides),
                                              budget.max_ball_size))


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("budget", [None, ExplorationBudget(4, 5)])
def test_omega_matches_the_definition(name, budget):
    # each generator and b a as divisor, every element of length <= 4,
    # both modes; the oracle asks a handle of its own the same questions
    h, ref = _omega_engine(name, budget), _omega_engine(name, budget)
    gens = h.presentation.generators
    divisors = [(g,) for g in gens] + [(gens[1], gens[0])]
    els, _ = h.enumerate_elements(4)
    refs, _ = ref.enumerate_elements(4)
    for mode in ("atoms", "nonunits"):
        for d in divisors:
            b, rb = h.element(d), ref.element(d)
            want = [_omega_oracle(ref, y, rb, mode) for y in refs]
            got = [omega_element(h, x, b, mode) for x in els]
            assert [_omega_spelled(h, r) for r in got] == \
                [_omega_spelled(ref, r) for r in want]
            best = max(want, key=lambda r: r.value)   # the first maximum
            sup = OmegaReport(rb, mode, best.value,
                              all(r.certified for r in want),
                              best.witness if best.value else None)
            assert _omega_spelled(h, omega_semigroup(h, b, els, mode)) == \
                _omega_spelled(ref, sup)
