"""The four benchmark workloads.

Each workload turns a seed into inputs (``__init__``, untimed), builds its
handles and engines once per round (``setup``, timed as set-up), and then
yields its queries in seeded order (``queries``, each one timed).  After a
round, ``summarize`` reduces every answer to a comparable value and
records its certification; ``check`` then tests the first round's answers
against known values or an independent oracle.  Later rounds must repeat
the first round's answers exactly, because every round starts from cold
engines on the same inputs.

Why these four (one layer each, so a change to one layer has a workload
that shows it and workloads that should stay flat):

* ``apl-sweep``: the word engine (ball closure, atom test, left divisors)
  under the almost-prime-like frontier sweep; no distance or graph code.
* ``distance-pairs``: the rigid block-alignment DP and the permutable
  distance on same-product pairs, including the non-reduced matrix
  handles whose shared blocks must also agree as products.
* ``block-catenary``: the catenary graph over block monoids, where the
  permutable distance matrix over commutative rigid orderings dominates;
  it never touches the presentation engine or the rigid DP.
* ``cli-mix``: the interactive path, with argparse, cold engines and
  report rendering, and the only workload reaching abelianization and
  the omega and tame degrees.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import factorum as F
import factorum.cli
import factorum.presets
import factorum.reports

import oracles

PRESENTATIONS = os.path.join(os.path.dirname(F.__file__), "presentations")

Summary = Tuple[object, Tuple[bool, ...], Tuple[bool, ...]]


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


class Workload:
    name = ""
    why = ""

    def setup(self):
        raise NotImplementedError

    def queries(self, ctx) -> Iterator[Tuple[object, object]]:
        raise NotImplementedError

    def summarize(self, label, result) -> Summary:
        """(comparable value, element-level certifications,
        sweep-level certifications)."""
        raise NotImplementedError

    def check(self, labels: List, summaries: List) -> Dict[int, str]:
        """Query index -> reason, for every answer that fails a check."""
        raise NotImplementedError

    def describe(self, label) -> str:
        return str(label)

    def bytes_out(self, result) -> int:
        """Bytes a query printed (the CLI's rendered report)."""
        return 0

    def notes(self, labels: List, summaries: List) -> List[str]:
        """Findings about the first round's answers that are not scored."""
        return []


# apl-sweep -------------------------------------------------------------------


class AplSweep(Workload):
    name = "apl-sweep"
    why = ("word engine: ball closure, atom test and left divisors under "
           "the almost-prime-like sweep on aba_ba3bc")
    # classes of length <= max_length, counted at the seed commit
    EXPECTED_CLASSES = {4: 120, 7: 3272}

    def __init__(self, seed: int, size: str):
        self.max_length = 7 if size == "full" else 4
        h = self._engine()
        els, _ = h.enumerate_elements(self.max_length)
        self.words = [e.word for e in els]
        self.order = list(range(len(self.words)))
        _rng(seed, self.name).shuffle(self.order)

    @staticmethod
    def _engine():
        pres = F.presets.load_preset("aba_ba3bc")
        return F.PresentationSemigroup(pres, F.ExplorationBudget(36, 200_000))

    def setup(self):
        h = self._engine()
        return h, tuple(h.element_from_str(x) for x in "abc")

    def queries(self, ctx):
        h, atoms = ctx
        scope = []
        yield "enumerate", lambda: scope.append(
            h.enumerate_elements(self.max_length)) or scope[0]
        els = scope[0][0] if scope else []
        for i in self.order:
            if i < len(els):
                yield i, functools.partial(_apl_query, h, atoms, els[i])

    def summarize(self, label, r):
        if label == "enumerate":
            els, complete = r
            return (tuple(e.word for e in els), complete), (), (complete,)
        apl, va, vb, lp = r
        cex = apl[2].counterexample[0].word if apl[2].counterexample else None
        value = (tuple(x.holds for x in apl), cex, va.values, vb.values,
                 lp.lengths)
        certs = tuple(x.certified for x in apl) + (va.certified, vb.certified,
                                                   lp.certified)
        return value, certs, ()

    def check(self, labels, summaries):
        bad = {}
        by_index = {}
        for q, (label, s) in enumerate(zip(labels, summaries)):
            if label == "enumerate":
                words, complete = s
                expected = self.EXPECTED_CLASSES[self.max_length]
                if not complete or words != tuple(self.words) \
                        or len(words) != expected:
                    bad[q] = (f"scope: {len(words)} classes, complete="
                              f"{complete}; expected {expected}")
            else:
                by_index[label] = (q, s)
        first_c = None
        for i, word in enumerate(self.words):
            if i not in by_index:
                bad[len(labels)] = f"no answer for {' '.join(word)}"
                continue
            q, (holds, cex, va, vb, lengths) = by_index[i]
            if not (holds[0] and holds[1]):
                bad[q] = f"a or b not almost prime-like on {' '.join(word)}"
            if not holds[2] and first_c is None:
                first_c = (q, word, cex)
            if not lengths:
                bad[q] = f"empty length set for {' '.join(word)}"
            if word == ("a", "b", "a") and (va, vb) != ((2, 3), (1, 2)):
                bad[q] = f"V_a(aba), V_b(aba) = {va}, {vb}"
        if self.max_length >= 3:
            if first_c is None or first_c[1] != ("a", "b", "a") \
                    or first_c[2] != ("a", "b", "a"):
                q = first_c[0] if first_c else 0
                bad[q] = f"first counterexample for c is {first_c}"
        return bad


def _apl_query(h, atoms, el):
    apl = tuple(F.is_almost_prime_like(h, q, [el]) for q in atoms)
    va = F.valuation_set(h, atoms[0], el)
    vb = F.valuation_set(h, atoms[1], el)
    return apl, va, vb, F.length_profile(h, el)


# distance-pairs ----------------------------------------------------------------


def _preset_engine(name: str, max_len: int):
    pres = F.presets.load_preset(name)
    longest = max(max(len(r.lhs), len(r.rhs)) for r in pres.relations)
    return F.PresentationSemigroup(
        pres, F.ExplorationBudget(max(max_len, longest), 100_000))


# one engine per semigroup of acceptance criteria 1-8, as in property-suites
_ENGINES = (
    lambda: _preset_engine("abc_cb", 8),
    lambda: _preset_engine("aba_b", 8),
    lambda: F.presets.anbn(2),
    lambda: F.presets.anbn(3),
    lambda: _preset_engine("ab_cd_cede_ba", 14),
    lambda: F.presets.b_an_c(2),
    lambda: F.presets.b_an_c(3),
    lambda: F.presets.b_an_c(4),
    lambda: F.presets.ab_ban(3, 12),
    lambda: F.presets.ab_ban(4, 12),
    lambda: _preset_engine("aba_ba3bc", 16),
    lambda: _preset_engine("aba_bab", 9),
)
_T2, _M2 = len(_ENGINES), len(_ENGINES) + 1


def _matrix_handles():
    return F.TriangularMatrixHandle(2), F.FullMatrixHandle(2)


class DistancePairs(Workload):
    name = "distance-pairs"
    why = ("distance kernels: rigid block-alignment DP and permutable "
           "distance on same-product pairs, incl. non-reduced matrices")
    # (factorizations, length) of the matrix sets given to verify_axioms
    AXIOM_SETS = ((2, 2), (3, 2), (3, 3))

    def __init__(self, seed: int, size: str):
        full = size == "full"
        rng = _rng(seed, self.name)
        engines = [make() for make in _ENGINES]
        pres_pairs: Dict[Tuple[int, int, int], list] = defaultdict(list)
        pres_sets: Dict[int, list] = defaultdict(list)
        self.extension: Dict[int, tuple] = {}
        for e, h in enumerate(engines):
            els, _ = h.enumerate_elements(5 if full else 3)
            for el in els:
                fs = F.rigid_factorizations(h, el)
                facts = list(fs)
                if not fs.complete or len(facts) < 2:
                    continue
                pres_sets[len(facts)].append((e, tuple(facts)))
                for i, x in enumerate(facts):
                    for y in facts[i + 1:]:
                        key = (e,) + tuple(sorted((x.length, y.length)))
                        pres_pairs[key].append((e, x, y))
            atoms, _ = h.enumerate_atoms(2)
            self.extension[e] = tuple(atoms[:2])
        # pairs: a fixed share of every (engine, length, length) stratum
        share = 0.35 if full else 0.05
        pairs = []
        for key in sorted(pres_pairs):
            stratum = pres_pairs[key]
            take = max(1, round(share * len(stratum)))
            pairs.extend(rng.sample(stratum, take))
        # seeded T2(Z) and M2(Z) elements: a fixed number of pairs for
        # every (handle, length) stratum
        per_stratum = 40 if full else 2
        mat_pairs, mat_sets = self._matrix_inputs(rng, per_stratum)
        pairs.extend(mat_pairs)
        # verify_axioms sets: the same for every seed, because their cost
        # varies fourfold within one set size; k picks per size, spread
        # evenly over the sets ranked by total atoms
        axiom_sets = []
        counts = {2: 8, 3: 4, 4: 2} if full else {2: 2, 3: 1}
        for n, k in counts.items():
            ranked = sorted(pres_sets[n], key=lambda s: (
                sum(z.length for z in s[1]), s[0],
                [[u.word for u in z.atoms] for z in s[1]]))
            for b in range(k):
                e, facts = ranked[(2 * b + 1) * len(ranked) // (2 * k)]
                axiom_sets.append((e, facts, self.extension[e]))
        axiom_sets.extend(mat_sets)
        self.items = [("pair", p) for p in pairs] + [
            ("axioms", (s, kind)) for s in axiom_sets for kind in F.DistanceKind]
        rng.shuffle(self.items)
        short = [i for i, (tag, p) in enumerate(self.items)
                 if tag == "pair" and p[1].length + p[2].length <= 10]
        self.oracle_subset = set(rng.sample(short, min(len(short),
                                                       150 if full else 10)))

    @staticmethod
    def _matrix_inputs(rng, per_stratum):
        """Pairs from seeded T2(Z) and M2(Z) elements, a fixed count per
        factorization length, and one small factorization set for each
        (set size, length) in AXIOM_SETS."""
        t2, m2 = _matrix_handles()
        pairs, sets = [], []
        for tag, h in ((_T2, t2), (_M2, m2)):
            strata: Dict[int, list] = defaultdict(list)
            by_shape: Dict[Tuple[int, int], list] = defaultdict(list)
            for _ in range(100_000):
                if all(len(strata[n]) >= per_stratum for n in (2, 3, 4)) \
                        and all(by_shape[k] for k in DistancePairs.AXIOM_SETS):
                    break
                if tag == _T2:
                    nz = [x for x in range(-12, 13) if x]
                    a = ((rng.choice(nz), rng.randint(-9, 9)),
                         (0, rng.choice(nz)))
                else:
                    a = tuple(tuple(rng.randint(-6, 6) for _ in range(2))
                              for _ in range(2))
                det = abs(F.matrices.mat_det(a))
                if not 4 <= det <= 60:
                    continue
                facts = list(F.rigid_factorizations(h, a))
                if len(facts) < 2:
                    continue
                n = facts[0].length
                if n in (2, 3, 4) and len(strata[n]) < per_stratum:
                    for i, x in enumerate(facts):
                        for y in facts[i + 1:]:
                            strata[n].append((tag, x, y))
                by_shape[(len(facts), n)].append(tuple(facts))
            else:
                raise RuntimeError("matrix inputs: strata not filled")
            for n in (2, 3, 4):
                pairs.extend(rng.sample(strata[n], per_stratum))
            for shape in DistancePairs.AXIOM_SETS:
                sets.append((tag, rng.choice(by_shape[shape]), ()))
        return pairs, sets

    def setup(self):
        return [make() for make in _ENGINES] + list(_matrix_handles())

    def queries(self, ctx):
        for i, (tag, item) in enumerate(self.items):
            if tag == "pair":
                e, x, y = item
                yield i, functools.partial(_pair_query, ctx[e], x, y)
            else:
                (e, facts, ext), kind = item
                yield i, functools.partial(F.verify_axioms, ctx[e], kind,
                                           [facts], ext)

    def summarize(self, label, r):
        if self.items[label][0] == "pair":
            (dr, alignment), dp, dl = r
            value = (dr, alignment.total, sum(alignment.gap_costs), dp, dl)
        else:
            value = (r.passed, r.violation, r.checked_pairs)
        # inputs come from complete factorization sets: every answer is exact
        return value, (True,), ()

    def check(self, labels, summaries):
        bad = {}
        handles = self.setup()
        for q, (label, s) in enumerate(zip(labels, summaries)):
            tag, item = self.items[label]
            if tag == "pair":
                dr, total, gaps, dp, dl = s
                e, x, y = item
                if not dl <= dp <= dr:
                    bad[q] = f"coarseness {dl} <= {dp} <= {dr} fails"
                elif total != dr or gaps != dr:
                    bad[q] = f"alignment total {total}, gaps {gaps} != {dr}"
                elif label in self.oracle_subset and \
                        F.rigid_distance_oracle(handles[e], x, y) != dr:
                    bad[q] = "rigid DP differs from the brute oracle"
            else:
                (e, facts, ext), kind = item
                passed = s[0]
                if e < _T2:
                    # axioms (D1)-(D5) hold on presentation engines
                    if not passed:
                        bad[q] = f"{kind.value} axioms fail: {s[1]}"
                else:
                    h = handles[e]
                    dist = {
                        F.DistanceKind.LENGTH:
                            lambda z, w: abs(z.length - w.length),
                        F.DistanceKind.PERMUTABLE:
                            lambda z, w: oracles.multiset_distance(
                                [h.atom_class(u) for u in z.atoms],
                                [h.atom_class(u) for u in w.atoms]),
                        F.DistanceKind.RIGID:
                            lambda z, w: F.rigid_distance_oracle(h, z, w),
                    }[kind]
                    if passed != oracles.axioms_hold(facts, dist):
                        bad[q] = f"{kind.value} axiom verdict {passed} " \
                                 "differs from brute force"
        return bad

    def notes(self, labels, summaries):
        violations = sum(1 for label, s in zip(labels, summaries)
                         if self.items[label][0] == "axioms"
                         and self.items[label][1][0][0] >= _T2
                         and s is not None and not s[0])
        return [f"verify_axioms reports violations on {violations} matrix "
                "factorization sets (its verdict is checked by brute force; "
                "the count is not scored)"]


def _pair_query(h, x, y):
    return (F.rigid_distance_alignment(h, x, y), F.permutable_distance(h, x, y),
            F.length_distance(x, y))


# block-catenary ----------------------------------------------------------------


class BlockCatenary(Workload):
    name = "block-catenary"
    why = ("catenary graph on block monoids: permutable distance matrix "
           "over commutative rigid orderings, no word engine, no rigid DP")
    # group -> (max sequence length, max catenary degree over that scope,
    # classification value of c(B(G)) where known)
    FULL = {(2, 2, 2): (7, 3, 4), (5,): (8, 3, 5), (2, 4): (7, 3, 4),
            (3, 3): (6, 3, 3)}
    TINY = {(2, 2, 2): (4, 0, 4), (5,): (5, 0, 5), (2, 4): (4, 0, 4),
            (3, 3): (4, 0, 3)}

    def __init__(self, seed: int, size: str):
        self.groups = self.FULL if size == "full" else self.TINY
        rng = _rng(seed, self.name)
        self.order = []
        for g, (max_len, _, _) in self.groups.items():
            group = F.FiniteAbelianGroup(g)
            count = sum(1 for _ in F.zero_sum_sequences(group, None, max_len))
            self.order.extend((g, i) for i in range(count))
        rng.shuffle(self.order)
        self.oracle_subset = set(rng.sample(range(len(self.order)),
                                            48 if size == "full" else 8))

    def setup(self):
        ctx = {}
        for g, (max_len, _, _) in self.groups.items():
            group = F.FiniteAbelianGroup(g)
            handle = F.BlockMonoidHandle(group)
            ctx[g] = (handle, list(F.zero_sum_sequences(group, handle.subset,
                                                        max_len)))
        return ctx

    def queries(self, ctx):
        kind = F.DistanceKind.PERMUTABLE
        for k, (g, i) in enumerate(self.order):
            handle, seqs = ctx[g]
            yield k, functools.partial(F.catenary, handle, seqs[i], kind)

    def summarize(self, label, r):
        return (r.element, r.value, r.certified), (r.certified,), ()

    def check(self, labels, summaries):
        bad = {}
        maxima = defaultdict(int)
        last = {}
        for q, (label, (seq, value, certified)) in enumerate(zip(labels, summaries)):
            g = self.order[label][0]
            maxima[g] = max(maxima[g], value)
            last[g] = q
            if not certified:
                bad[q] = "element-level catenary not certified"
            elif label in self.oracle_subset:
                expected = oracles.block_catenary_oracle(g, seq)
                if expected != value:
                    bad[q] = f"c_p = {value}, threshold oracle {expected}"
        for g, (_, expected, classified) in self.groups.items():
            if maxima[g] != expected or maxima[g] > classified:
                bad[last.get(g, 0)] = (f"max c_p over B({g}) is {maxima[g]}, "
                                       f"expected {expected}")
        return bad


# cli-mix -------------------------------------------------------------------------


# element-level answers come from these commands; the others answer for a
# bounded sweep, whose certification is recorded but not scored
_ELEMENT_COMMANDS = {"factorize", "lengths", "distance", "tri", "mat"}

# acceptance-suite elements of the shipped presentations
_ELEMENTS = (
    ("abc_cb", "a b c"), ("ab_cd_cede_ba", "c e d e"), ("ab_cd_cede_ba", "b a"),
    ("abc_de", "a b c"), ("abc_de", "b a c"), ("ab_cd", "a b"),
    ("ab_cd", "d c"), ("aba_ba3bc", "a b a"), ("aba_bab", "a b a"),
    ("a2b2", "a a b b"), ("a3b3", "a a a b b b"),
)
_KINDS = ("len", "perm", "rigid")
_VARIANTS = ("plain", "equal", "adjacent", "monotone")


class CliMix(Workload):
    name = "cli-mix"
    why = ("interactive path: in-process CLI calls with cold engines, "
           "argparse and JSON rendering, incl. abelianization, omega, tame")

    def __init__(self, seed: int, size: str):
        rng = _rng(seed, self.name)
        engines = {f: _cli_engine(f) for f, _ in _ELEMENTS}
        counts = {(f, el): len(F.rigid_factorizations(
            engines[f], engines[f].element_from_str(el))) for f, el in _ELEMENTS}
        calls: List[List[str]] = []

        def pres(name):
            return os.path.join(PRESENTATIONS, name + ".pres")

        # every element-level command over every element (and kind) the
        # same number of times, so that streams differ in order and in
        # arguments of equal cost, not in their mix
        for f, el in _ELEMENTS * 2:
            calls.append(["factorize", pres(f), "--element", el])
            calls.append(["lengths", pres(f), "--element", el])
        for i, ((f, el), kind) in enumerate(itertools.product(_ELEMENTS, _KINDS)):
            calls.append(["catenary", pres(f), "--kind", kind, "--variant",
                          _VARIANTS[i % len(_VARIANTS)], "--element", el])
            if counts[(f, el)] >= 2:
                z, zp = rng.sample(range(counts[(f, el)]), 2)
                calls.append(["distance", pres(f), "--kind", kind, "--element",
                              el, "--z", str(z), "--zprime", str(zp)])
        for f, el in _ELEMENTS:
            calls.append(["tame", pres(f), "--pattern", rng.choice(
                engines[f].presentation.generators), "--element", el])
        for el in ("b a", "c e d e") * 2:
            for extra in ([], ["--nonunits"]):
                calls.append(["omega", pres("ab_cd_cede_ba"), "--divisor", "a",
                              "--element", el] + extra)
        for sub in ("factorize", "atom", "delta") * 6:
            calls.append(["tri", "--matrix", _tri_matrix(rng), sub])
        for sub in ("snf", "atom", "lengths") * 6:
            calls.append(["mat", "--matrix", _mat_matrix(rng), sub])
        for group in ("2", "3", "4", "2,2", "5"):
            for sub in ("atoms", "davenport"):
                calls.append(["zss", "--group", group, sub])
        if size != "full":
            calls = rng.sample(calls, 24)
        # one bounded sweep of each kind per stream; the seed picks only
        # between variants of equal cost, so every stream does the same work
        calls.append(["primelike", pres("aba_ba3bc"), "--atom",
                      rng.choice("ab"), "--max-length", "5"])
        calls.append(["check-wth", pres("ab_cd"), "--max-length", "3"])
        calls.append(["omega", pres("ab_cd_cede_ba"), "--divisor",
                      rng.choice("ab"), "--max-length", "4"])
        calls.append(["tame", pres("aba_bab"), "--pattern", rng.choice("ab"),
                      "--max-length", "5"])
        calls.append(["catenary", pres("abc_cb"), "--kind", "perm", "--all",
                      "--max-length", "5"])
        calls.append(["zss", "--group", "2,2", "catenary", "--max-len", "6"])
        calls.append(["order-bound", "--group", "4"])
        calls.append(["zss", "--group", rng.choice(("3", "2,2")), "order-bound"])
        rng.shuffle(calls)
        self.calls = [["--format", "json"] + c for c in calls]

    def describe(self, label):
        return " ".join(os.path.basename(a) for a in self.calls[label][2:])

    def bytes_out(self, result):
        return len(result[1].encode("utf-8"))

    def setup(self):
        # what every call pays again: the parser and a cold engine per file
        F.cli.build_parser()
        return [_cli_engine(f) for f in sorted({f for f, _ in _ELEMENTS})]

    def queries(self, ctx):
        for i, argv in enumerate(self.calls):
            yield i, functools.partial(_cli_query, argv)

    def summarize(self, label, r):
        code, out = r
        argv = self.calls[label]
        try:
            doc = json.loads(out.splitlines()[0])
        except (ValueError, IndexError):
            doc = None
        exact = doc is not None and doc.get("certification") == "exact"
        value = (code, doc)
        if argv[2] in _ELEMENT_COMMANDS or "--element" in argv:
            return value, (exact,), ()
        return value, (), (exact,)

    def check(self, labels, summaries):
        bad = {}
        engines: Dict[str, object] = {}
        for q, (label, (code, doc)) in enumerate(zip(labels, summaries)):
            argv = self.calls[label]
            if code == 1 or doc is None or doc.get("schema") != "factorum/1":
                bad[q] = f"exit {code} or bad envelope for {argv[2:]}"
                continue
            expected = _direct_value(argv[2:], engines)
            if doc["value"] != expected:
                bad[q] = f"value {doc['value']!r} != library {expected!r}"
        return bad


def _cli_engine(name: str):
    with open(os.path.join(PRESENTATIONS, name + ".pres"), encoding="utf-8") as fh:
        pres = F.parse_presentation(fh.read())
    return F.PresentationSemigroup(pres, pres.budget)


def _tri_matrix(rng) -> str:
    nz = [x for x in range(-9, 10) if x]
    while True:
        a, d = rng.choice(nz), rng.choice(nz)
        if abs(a * d) <= 60:
            return f"{a} {rng.randint(-9, 9)}; 0 {d}"


def _mat_matrix(rng) -> str:
    while True:
        m = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        if 0 < abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) <= 40:
            return "; ".join(" ".join(map(str, r)) for r in m)


def _cli_query(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = F.cli.main(argv)
    return code, buf.getvalue()


def _opt(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def _direct_value(args, engines):
    """The value the CLI should print, from direct library calls."""
    render = F.reports.render_value
    cmd = args[0]
    if cmd in ("tri", "mat", "zss", "order-bound"):
        return _direct_structured(args)
    path = args[1]
    if path not in engines:
        with open(path, encoding="utf-8") as fh:
            pres = F.parse_presentation(fh.read())
        engines[path] = F.PresentationSemigroup(pres, pres.budget)
    h = engines[path]

    def facts(fs):
        return [[h.format_element(u) for u in z.atoms] for z in fs]

    el = h.element_from_str(_opt(args, "--element")) if "--element" in args else None
    kind = {"len": F.DistanceKind.LENGTH, "perm": F.DistanceKind.PERMUTABLE,
            "rigid": F.DistanceKind.RIGID}[_opt(args, "--kind", "perm")]
    max_len = int(_opt(args, "--max-length", 6))
    if cmd == "factorize":
        return facts(F.rigid_factorizations(h, el))
    if cmd == "lengths":
        lp = F.length_profile(h, el)
        return render({"lengths": list(lp.lengths), "delta": list(lp.delta),
                       "elasticity": lp.elasticity})
    if cmd == "distance":
        fs = list(F.rigid_factorizations(h, el))
        z, zp = fs[int(_opt(args, "--z"))], fs[int(_opt(args, "--zprime"))]
        return F.distance(h, kind, z, zp)
    if cmd == "catenary":
        variant = _opt(args, "--variant", "plain")
        if "--all" in args:
            els, complete = h.enumerate_elements(int(_opt(args, "--max-length")))
            return F.semigroup_catenary(h, els, kind, variant, complete).value
        fn = {"plain": F.catenary, "equal": F.equal_catenary,
              "adjacent": F.adjacent_catenary,
              "monotone": F.monotone_catenary}[variant]
        return fn(h, el, kind).value
    if cmd == "omega":
        divisor = h.element_from_str(_opt(args, "--divisor"))
        mode = "nonunits" if "--nonunits" in args else "atoms"
        if el is not None:
            return F.omega_element(h, el, divisor, mode).value
        els, _ = h.enumerate_elements(max_len)
        return F.omega_semigroup(h, divisor, els, mode).value
    if cmd == "tame":
        pattern = [h.element_from_str(_opt(args, "--pattern"))]
        if el is not None:
            return F.tame_element(h, el, pattern).value
        els, complete = h.enumerate_elements(max_len)
        return F.tame_semigroup(h, pattern, els, scope_certified=complete).value
    if cmd == "primelike":
        q = h.element_from_str(_opt(args, "--atom"))
        els, complete = h.enumerate_elements(max_len)
        rep = F.is_almost_prime_like(h, q, els, complete)
        value = {"almost_prime_like": rep.holds}
        if rep.holds and not rep.counterexample:
            value["prime_like"] = F.is_prime_like(h, q, els, complete).holds
        return value
    if cmd == "check-wth":
        rep = F.check_exwt(h, int(_opt(args, "--max-length", 4)))
        return {"weak_transfer_within_budget": rep.passed,
                "equiv_p_transitive": rep.equiv_p_transitive,
                "abelianization_cancellative_within_budget":
                    rep.abelianization_cancellative_within_budget}
    raise ValueError(f"no direct value for {cmd}")


def _direct_structured(args):
    render = F.reports.render_value
    cmd = args[0]
    if cmd in ("tri", "mat"):
        m = F.parse_matrix(_opt(args, "--matrix"))
        sub = args[-1]
        if cmd == "tri":
            h = F.TriangularMatrixHandle(len(m))
            if sub == "atom":
                p = F.tri_is_atom(m)
                value = {"atom": p is not None}
                if p:
                    value["profile"] = {"position": p.position, "prime": p.prime}
                return value
            if sub == "delta":
                return list(F.delta_map(m))
            return [[h.format_element(u) for u in z.atoms]
                    for z in F.rigid_factorizations(h, m)]
        h = F.FullMatrixHandle(len(m))
        if sub == "snf":
            r = F.snf(m)
            return {"U": [list(x) for x in r.u], "C": [list(x) for x in r.c],
                    "V": [list(x) for x in r.v]}
        if sub == "atom":
            return {"atom": h.is_atom(m), "abs_det": F.det_transfer(m)}
        lp = F.length_profile(h, m)
        return render({"lengths": list(lp.lengths), "delta": list(lp.delta),
                       "elasticity": lp.elasticity})
    group = F.FiniteAbelianGroup(tuple(int(t) for t in _opt(args, "--group").split(",")))
    sub = "order-bound" if cmd == "order-bound" else args[-1] \
        if args[-1] in ("atoms", "davenport", "order-bound") else "catenary"
    if sub == "atoms":
        h = F.BlockMonoidHandle(group)
        return [h.format_element(a) for a in F.atoms_of_block_monoid(group)]
    if sub == "davenport":
        return F.davenport(group)
    if sub == "catenary":
        return F.block_catenary(group, max_sequence_length=int(
            _opt(args, "--max-len", 6))).value
    res = F.maximal_order_bound(group)
    return {"bound": res.bound, "computed_catenary": res.computed_catenary,
            "classification": res.classification}


WORKLOADS = {w.name: w for w in (AplSweep, DistancePairs, BlockCatenary, CliMix)}
