"""The regression suite: every shipped worked example, as checkable rows.

Each case evaluates one acceptance criterion and yields rows of
(label, expected, computed, certification).  A row passes when the values
agree and the computation certified as exact; a budget-starved run leaves
rows flagged as lower bounds instead of failing them.  The CLI command
``factorum regression`` prints the matrix, one ``format_row`` line per
row; the pytest acceptance module asserts every row and compares each
case's lines with the pinned output.  A ``CheckRow`` is a named tuple.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

from .abelianization import check_exwt, length_map, weak_transfer_counterexample
from .catenary import catenary
from .distances import (DistanceKind, permutable_distance, rigid_distance,
                        rigid_distance_oracle, verify_axioms)
from .divisibility import (is_almost_prime_like, min_subproduct_k,
                           omega_element, omega_semigroup, tame_semigroup,
                           valuation_set)
from .factorizations import (RigidFactorization, factorization_keys,
                             length_profile, permutable_factorizations,
                             rigid_factorizations)
from .matrices import (FullMatrixHandle, TriangularMatrixHandle,
                       delta_transfer_map, det_transfer_map, mat_det,
                       mat_mul, snf, tri_is_atom, tri_left_divisors,
                       verify_transfer_properties)
from .presentation import (BudgetOverride, ExplorationBudget,
                           PresentationSemigroup)
from .presets import ab_ban, anbn, b_an_c, load_preset
from .reports import Certification, certification
from .arith import big_omega, factor, is_prime
from .zerosum import (FiniteAbelianGroup, block_catenary, davenport,
                      maximal_order_bound)

_SEED = 20260809


class CheckRow(NamedTuple):
    label: str
    expected: object
    computed: object
    certification: Certification
    relation: str = "=="      # "==" or ">="

    @property
    def matches(self) -> bool:
        if self.relation == ">=":
            return self.computed >= self.expected
        return self.computed == self.expected

    @property
    def status(self) -> str:
        if self.certification is not Certification.EXACT:
            return "lower-bound"
        return "pass" if self.matches else "FAIL"


def format_row(case: str, row: CheckRow) -> str:
    """The line ``factorum regression`` prints for one row of a case."""
    rel = "" if row.relation == "==" else f" ({row.relation})"
    return (f"[{row.status:>11}] {case}: {row.label}: expected{rel} "
            f"{row.expected}, computed {row.computed}")


def _budget(override: Optional[BudgetOverride], default_len: int,
            default_ball: int = 100_000) -> ExplorationBudget:
    """A case's own budget with the overridden fields replaced."""
    budget = ExplorationBudget(default_len, default_ball)
    return budget if override is None else override.apply(budget)


def _engine(name: str, override: Optional[BudgetOverride],
            default_len: int, default_ball: int = 100_000
            ) -> PresentationSemigroup:
    p = load_preset(name)
    budget = _budget(override, default_len, default_ball)
    longest = max(max(len(r.lhs), len(r.rhs)) for r in p.relations) \
        if p.relations else 1
    budget = ExplorationBudget(max(budget.max_word_length, longest),
                               budget.max_ball_size)
    return PresentationSemigroup(p, budget)


def case_abc_cb(budget=None) -> List[CheckRow]:
    h = _engine("abc_cb", budget, 8)
    el = h.element_from_str("a b c")
    L = length_profile(h, el)
    rows = [
        CheckRow("L(abc)", (2, 3), L.lengths, certification(L.certified)),
        CheckRow("Delta(abc)", (1,), L.delta, certification(L.certified)),
    ]
    rep = catenary(h, el, DistanceKind.PERMUTABLE)
    rows.append(CheckRow("c_p(abc)", 1, rep.value, certification(rep.certified)))
    fs = rigid_factorizations(h, el)
    by_len = {z.length: z for z in fs}
    if 2 in by_len and 3 in by_len:
        d = permutable_distance(h, by_len[3], by_len[2])
        rows.append(CheckRow("d_p([a,b,c],[c,b])", 1, d, certification(fs.complete)))
    else:
        rows.append(CheckRow("d_p([a,b,c],[c,b])", 1, None,
                             Certification.LOWER_BOUND))
    return rows


def case_aba_b(budget=None) -> List[CheckRow]:
    h = _engine("aba_b", budget, 8)
    a, b = h.element_from_str("a"), h.element_from_str("b")
    z = RigidFactorization((a, b, a), h.element_from_str("a b a"))
    zp = RigidFactorization((b,), b)
    d = rigid_distance(h, z, zp)
    return [CheckRow("d*([a,b,a],[b])", 2, d, Certification.EXACT)]


def case_anbn(budget=None) -> List[CheckRow]:
    rows = []
    for n in (2, 3):
        scope = 2 * n + 4
        caps = _budget(budget, scope)
        h = anbn(n, caps.max_word_length, caps.max_ball_size)
        els, comp = h.enumerate_elements(scope)
        worst = 0
        cert = comp
        for el in els:
            rep = catenary(h, el, DistanceKind.PERMUTABLE)
            cert = cert and rep.certified
            worst = max(worst, rep.value)
        rows.append(CheckRow(f"n={n}: max c_p over |x|<={scope}", 0, worst,
                             certification(cert)))
        el = h.element_from_str(" ".join(["a"] * n + ["b"] * n))
        rep = catenary(h, el, DistanceKind.RIGID)
        rows.append(CheckRow(f"n={n}: c*(a^n b^n)", 2 * n, rep.value,
                             certification(rep.certified)))
    return rows


def case_ab_cd_cede_ba(budget=None) -> List[CheckRow]:
    h = _engine("ab_cd_cede_ba", budget, 14)
    a = h.element_from_str("a")
    els, comp = h.enumerate_elements(6)
    rep = omega_semigroup(h, a, els, "atoms")
    rows = [CheckRow("omega_p(S, a) over <=6 atoms", 2, rep.value,
                     certification(rep.certified and comp))]
    ba = h.element_from_str("b a")
    repp = omega_element(h, ba, a, "nonunits")
    rows.append(CheckRow("omega'_p(S, a)", 3, repp.value,
                         certification(repp.certified), relation=">="))
    parts = tuple(h.element_from_str(s) for s in ("c e", "d", "e"))
    k, _, cert = min_subproduct_k(h, parts, a)
    rows.append(CheckRow("witness (ce, d, e) needs k", 3, k, certification(cert)))
    return rows


def case_b_an_c(budget=None) -> List[CheckRow]:
    rows = []
    for n in (2, 3, 4):
        caps = _budget(budget, 3 * n + 3)
        h = b_an_c(n, caps.max_word_length, caps.max_ball_size)
        els, comp = h.enumerate_elements(n + 3)
        a, b, c = (h.element_from_str(x) for x in "abc")
        for atom, exp_t, exp_w in ((a, 0, 1), (b, 1, n), (c, 1, n)):
            t = tame_semigroup(h, [atom], els, scope_certified=comp)
            w = omega_semigroup(h, atom, els)
            name = h.format_element(atom)
            rows.append(CheckRow(f"n={n}: t_p(S,{name})", exp_t, t.value,
                                 certification(t.certified)))
            rows.append(CheckRow(f"n={n}: omega_p(S,{name})", exp_w, w.value,
                                 certification(w.certified and comp)))
    return rows


def _ab_ban_budget(n: int, m: int) -> int:
    # largest congruence class member over words of length <= m+1:
    # a^i b^k normalizes to b^k a^{i (n-1)^k}, i + k <= m + 1
    worst = 0
    for k in range(m + 2):
        i = m + 1 - k
        worst = max(worst, k + i * (n - 1) ** k)
    return worst


def case_ab_ban(budget=None) -> List[CheckRow]:
    rows = []
    for n in (3, 4):
        for m in (1, 2, 3):
            caps = _budget(budget, _ab_ban_budget(n, m))
            h = ab_ban(n, caps.max_word_length, caps.max_ball_size)
            el = h.element_from_str(" ".join(["a"] * m + ["b"]))
            L = length_profile(h, el)
            expected = tuple(sorted(m + 1 + k * (n - 2) for k in range(m + 1)))
            tag = f"n={n},m={m}"
            rows.append(CheckRow(f"{tag}: L(a^m b)", expected, L.lengths,
                                 certification(L.certified)))
            rows.append(CheckRow(f"{tag}: sup L", m * (n - 1) + 1,
                                 max(L.lengths) if L.lengths else None,
                                 certification(L.certified)))
            rows.append(CheckRow(f"{tag}: rho(a^m b)",
                                 Fraction(m * (n - 1) + 1, m + 1),
                                 L.elasticity, certification(L.certified)))
            rep = catenary(h, el, DistanceKind.PERMUTABLE)
            rows.append(CheckRow(f"{tag}: c_p(a^m b)", n - 2, rep.value,
                                 certification(rep.certified)))
            els, comp = h.enumerate_elements(m + 1)
            w = omega_semigroup(h, el, els)
            rows.append(CheckRow(f"{tag}: omega_p(S, a^m b)", m + 1, w.value,
                                 certification(w.certified and comp)))
    return rows


def case_aba_ba3bc(budget=None) -> List[CheckRow]:
    h = _engine("aba_ba3bc", budget, 36, 200_000)
    els, comp = h.enumerate_elements(10)
    a, b, c = (h.element_from_str(x) for x in "abc")
    rows = []
    for q in (a, b):
        rep = is_almost_prime_like(h, q, els, comp)
        rows.append(CheckRow(f"{h.format_element(q)} almost prime-like "
                             "up to length 10", True, rep.holds,
                             certification(rep.certified)))
    rep_c = is_almost_prime_like(h, c, els, comp)
    cex = (h.format_element(rep_c.counterexample[0])
           if rep_c.counterexample else None)
    rows.append(CheckRow("c counterexample element", "a b a", cex,
                         Certification.EXACT))
    aba = h.element_from_str("a b a")
    va = valuation_set(h, a, aba)
    vb = valuation_set(h, b, aba)
    rows.append(CheckRow("V_a(aba)", (2, 3), va.values, certification(va.certified)))
    rows.append(CheckRow("V_b(aba)", (1, 2), vb.values, certification(vb.certified)))
    return rows


def case_aba_bab(budget=None) -> List[CheckRow]:
    h = _engine("aba_bab", budget, 9)
    els, comp = h.enumerate_elements(7)
    a, b = h.element_from_str("a"), h.element_from_str("b")
    rows = []
    for atom in (a, b):
        t = tame_semigroup(h, [atom], els, scope_certified=comp)
        rows.append(CheckRow(f"t_p(S,{h.format_element(atom)})", 0, t.value,
                             certification(t.certified)))
    pf, compf = permutable_factorizations(h, h.element_from_str("a b a"))
    rows.append(CheckRow("|Z_p(aba)|", 2, len(pf), certification(compf),
                         relation=">="))
    return rows


def case_ab_cd(budget=None) -> List[CheckRow]:
    h = _engine("ab_cd", budget, 10)
    rep = check_exwt(h, 4)
    rows = [CheckRow("check_exwt verdict", False, rep.passed,
                     certification(rep.certified))]
    ab = h.element_from_str("a b")
    dc = h.element_from_str("d c")
    cex = weak_transfer_counterexample(h, ab, dc)
    rows.append(CheckRow("(ab, dc) is a counterexample pair", True,
                         cex is not None, Certification.EXACT))
    lm = length_map(h)
    rows.append(CheckRow("length map exists", True, lm is not None,
                         Certification.EXACT))
    if lm is not None:
        rows.append(CheckRow("length map (T1)/(T2) certified", True,
                             lm.transfer_certified, Certification.EXACT))
    return rows


def case_abc_de(budget=None) -> List[CheckRow]:
    h = _engine("abc_de", budget, 10)
    abc = h.element_from_str("a b c")
    bac = h.element_from_str("b a c")
    L1, L2 = length_profile(h, abc), length_profile(h, bac)
    rows = [
        CheckRow("L(abc)", (2, 3), L1.lengths, certification(L1.certified)),
        CheckRow("L(bac)", (3,), L2.lengths, certification(L2.certified)),
    ]
    rep = check_exwt(h, 4)
    rows.append(CheckRow("no weak transfer to the reduced abelianization",
                         False, rep.passed, certification(rep.certified)))
    return rows


def case_zero_sum(budget=None) -> List[CheckRow]:
    rows = []
    for n in range(1, 9):
        rows.append(CheckRow(f"D(C{n})", n,
                             davenport(FiniteAbelianGroup((n,))),
                             Certification.EXACT))
    rows.append(CheckRow("D(C2+C2)", 3, davenport(FiniteAbelianGroup((2, 2))),
                         Certification.EXACT))
    rows.append(CheckRow("D(C3+C3)", 5, davenport(FiniteAbelianGroup((3, 3))),
                         Certification.EXACT))
    for orders in ((3,), (2, 2)):
        g = FiniteAbelianGroup(orders)
        rep = block_catenary(g, max_sequence_length=6)
        rows.append(CheckRow(f"c_p(B({g.describe()})) witnessed", 3, rep.value,
                             Certification.EXACT))
        rows.append(CheckRow(f"B({g.describe()}) witness element exists", True,
                             rep.element is not None, Certification.EXACT))
    triv = maximal_order_bound(FiniteAbelianGroup((1,)))
    rows.append(CheckRow("maximal_order_bound(trivial)", 2, triv.bound,
                         Certification.EXACT))
    rows.append(CheckRow("trivial classification mentions d_sim", True,
                         "d_sim" in triv.classification, Certification.EXACT))
    c2 = maximal_order_bound(FiniteAbelianGroup((2,)))
    rows.append(CheckRow("maximal_order_bound(C2)", 2, c2.bound,
                         Certification.EXACT))
    rows.append(CheckRow("C2 classification cites |C| <= 2", True,
                         "|C| <= 2" in c2.classification, Certification.EXACT))
    return rows


def case_triangular(budget=None) -> List[CheckRow]:
    h = TriangularMatrixHandle(2)
    bad = 0
    total = 0
    all_complete = True
    for a11 in range(-16, 17):
        for a22 in range(-16, 17):
            d = a11 * a22
            if d == 0 or abs(d) > 64 or abs(d) == 1:
                continue
            f11, f22 = factor(abs(a11)), factor(abs(a22))
            expected = tuple(sorted(
                [(1, p) for p in f11 for _ in range(f11[p])]
                + [(2, p) for p in f22 for _ in range(f22[p])]))
            for a12 in range(-16, 17):
                total += 1
                A = ((a11, a12), (0, a22))
                key = h.right_normalize_key(A)
                # read off the rigid factorizations: the handle's
                # transfer_classes reads delta, so it would check delta
                # against itself
                _, classes, complete = factorization_keys(h, key)
                sets = {tuple(sorted(c)) for c in classes}
                all_complete = all_complete and complete
                if len(sets) != 1 or next(iter(sets)) != expected:
                    bad += 1
    rows = [CheckRow(f"T2 permutable factoriality over {total} matrices "
                     "(1 < |det| <= 64, entries <= 16)", 0, bad,
                     certification(all_complete))]
    rng = random.Random(_SEED)
    sample = []
    while len(sample) < 250:
        a11 = rng.choice([x for x in range(-9, 10) if x])
        a22 = rng.choice([x for x in range(-9, 10) if x])
        if abs(a11 * a22) > 30:
            continue
        sample.append(((a11, rng.randint(-9, 9)), (0, a22)))
    rep = verify_transfer_properties(delta_transfer_map(h), sample)
    rows.append(CheckRow("delta passes (T1)/(WT2)/isoatomicity", True,
                         rep.passed, Certification.EXACT))
    mismatches = 0
    for _ in range(1000):
        A = ((rng.choice([x for x in range(-9, 10) if x]), rng.randint(-9, 9)),
             (0, rng.choice([x for x in range(-9, 10) if x])))
        divisors = tri_left_divisors(A)
        independent = bool(divisors) and all(h.is_unit(q) for _, q in divisors)
        if (tri_is_atom(A) is not None) != independent:
            mismatches += 1
    rows.append(CheckRow("tri_is_atom vs divisor-based atom test, 1000 random",
                         0, mismatches, Certification.EXACT))
    return rows


def case_full_matrices(budget=None) -> List[CheckRow]:
    rng = random.Random(_SEED + 1)
    samples = []
    while len(samples) < 1000:
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2))
        if mat_det(A) != 0:
            samples.append(A)
    snf_bad = 0
    for A in samples:
        res = snf(A)
        ok = (mat_mul(res.u, mat_mul(res.c, res.v)) == A
              and abs(mat_det(res.u)) == 1 and abs(mat_det(res.v)) == 1
              and res.c[0][0] % res.c[1][1] == 0
              and abs(mat_det(res.c)) == abs(mat_det(A)))
        if not ok:
            snf_bad += 1
    rows = [CheckRow("SNF identity/unimodularity/divisibility, 1000 random",
                     0, snf_bad, Certification.EXACT)]
    h = FullMatrixHandle(2)
    len_bad = 0
    atom_bad = 0
    small = [A for A in samples if abs(mat_det(A)) <= 60]
    all_cert = True
    for A in small:
        d = mat_det(A)
        if h.is_atom(A) != is_prime(abs(d)):
            atom_bad += 1
        if abs(d) == 1:
            continue
        L = length_profile(h, A)
        all_cert = all_cert and L.certified
        if L.lengths != (big_omega(d),):
            len_bad += 1
    rows.append(CheckRow(f"L(A) = {{Omega(|det A|)}} on the {len(small)} "
                         "samples with |det| <= 60", 0, len_bad,
                         certification(all_cert)))
    rows.append(CheckRow("atom iff |det| prime on those samples", 0, atom_bad,
                         Certification.EXACT))
    rep = verify_transfer_properties(
        det_transfer_map(h),
        [A for A in _random_m2(rng, 80) if abs(mat_det(A)) <= 30])
    rows.append(CheckRow("det passes transfer checks on M2 sample", True,
                         rep.passed, Certification.EXACT))
    return rows


def _random_m2(rng, count):
    out = []
    while len(out) < count:
        A = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
        if mat_det(A) != 0:
            out.append(A)
    return out


def case_property_suites(budget=None) -> List[CheckRow]:
    # one engine per semigroup appearing in criteria 1-8
    engines = [
        _engine("abc_cb", None, 8),
        _engine("aba_b", None, 8),
        anbn(2), anbn(3),
        _engine("ab_cd_cede_ba", None, 14),
        b_an_c(2), b_an_c(3), b_an_c(4),
        ab_ban(3, 12), ab_ban(4, 12),
        _engine("aba_ba3bc", None, 16),
        _engine("aba_bab", None, 9),
    ]
    rows = []
    axiom_fail = None
    coarse_bad = 0
    delta_bad = 0
    pool = []
    for h in engines:
        els, _ = h.enumerate_elements(5)
        fsets = []
        for el in els:
            fs = rigid_factorizations(h, el)
            if not fs.complete:
                continue
            facts = list(fs)
            fsets.append(facts)
            if len(facts) >= 2:
                pool.extend((h, x, y) for i, x in enumerate(facts)
                            for y in facts[i + 1:])
            L = length_profile(h, el)
            rep = catenary(h, el, DistanceKind.PERMUTABLE)
            if L.delta and max(L.delta) > rep.value:
                delta_bad += 1
        atoms, _ = h.enumerate_atoms(2)
        for kind in DistanceKind:
            rep = verify_axioms(h, kind, fsets, atoms[:2])
            if not rep.passed and axiom_fail is None:
                axiom_fail = f"{h.name}/{kind.value}: {rep.violation}"
        for hh, x, y in pool[-200:]:
            dl = abs(x.length - y.length)
            dp = permutable_distance(hh, x, y)
            dr = rigid_distance(hh, x, y)
            if not dl <= dp <= dr:
                coarse_bad += 1
    rows.append(CheckRow("distance axioms (D1)-(D5) for all three kinds",
                         None, axiom_fail, Certification.EXACT))
    rows.append(CheckRow("coarseness chain d_len <= d_p <= d*", 0, coarse_bad,
                         Certification.EXACT))
    rng = random.Random(_SEED + 2)
    same_product = [t for t in pool
                    if t[1].length + t[2].length <= 10]
    rng.shuffle(same_product)
    oracle_bad = 0
    for hh, x, y in same_product[:500]:
        if rigid_distance(hh, x, y) != rigid_distance_oracle(hh, x, y):
            oracle_bad += 1
    rows.append(CheckRow(f"d* DP = brute oracle on {min(500, len(same_product))}"
                         " same-product pairs", 0, oracle_bad,
                         Certification.EXACT))
    rows.append(CheckRow("sup Delta(a) <= c_d(a) on explored elements", 0,
                         delta_bad, Certification.EXACT))
    return rows


CASES: Dict[str, Callable] = {
    "abc_cb": case_abc_cb,
    "rigid-distance-bound": case_aba_b,
    "anbn": case_anbn,
    "omega-gap": case_ab_cd_cede_ba,
    "tame-omega-family": case_b_an_c,
    "length-set-family": case_ab_ban,
    "aba_ba3bc": case_aba_ba3bc,
    "tame-zero": case_aba_bab,
    "length-transfer": case_ab_cd,
    "no-weak-transfer": case_abc_de,
    "zero-sum": case_zero_sum,
    "triangular": case_triangular,
    "full-matrices": case_full_matrices,
    "property-suites": case_property_suites,
}

CRITERIA = list(CASES)   # one case per acceptance criterion, in order


def run_case(name: str, budget: Optional[BudgetOverride] = None
             ) -> List[CheckRow]:
    return CASES[name](budget)
