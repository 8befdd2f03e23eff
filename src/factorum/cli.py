"""Command-line front end.

Load a presentation file, a finite abelian group, or a matrix; dispatch an
invariant computation; emit a human table or machine JSON ("factorum/1"
schema, byte-identical across repeated runs).  Exit codes: 0 success, 2 on
budget exhaustion with partial results, 1 on input errors (usage errors
included).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from .abelianization import abelianize, check_exwt
from .catenary import VARIANTS, semigroup_catenary
from .distances import (DistanceKind, distance, rigid_distance_alignment)
from .divisibility import (is_almost_prime_like, is_prime_like, omega_element,
                           omega_semigroup, tame_element, tame_semigroup)
from .factorizations import length_profile, rigid_factorizations
from .matrices import (FullMatrixHandle, TriangularMatrixHandle, delta_map,
                       det_transfer, parse_matrix, snf, tri_is_atom)
from .presentation import (BudgetOverride, Presentation, PresentationError,
                           PresentationSemigroup, check_adyan,
                           parse_presentation)
from .reports import Certification, InvariantReport, certification
from .zerosum import (BlockMonoidHandle, FiniteAbelianGroup, _block_catenary,
                      _davenport, maximal_order_bound)

_KINDS = {"len": DistanceKind.LENGTH, "perm": DistanceKind.PERMUTABLE,
          "rigid": DistanceKind.RIGID}


def _load_engine(args) -> PresentationSemigroup:
    with open(args.file, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    budget = BudgetOverride(args.budget_len, args.budget_ball).apply(pres.budget)
    return PresentationSemigroup(pres, budget)


def _report(h: PresentationSemigroup, invariant: str, value, cert,
            witnesses=(), notes=()) -> InvariantReport:
    """A presentation command's report: the engine's budget, then its
    warnings (read after the computation, which may add some) and the
    command's notes."""
    budget = {"max_word_length": h.budget.max_word_length,
              "max_ball_size": h.budget.max_ball_size}
    return InvariantReport(invariant, value, cert, budget,
                           list(witnesses), list(h.warnings) + list(notes))


def _group_from_spec(spec: str) -> FiniteAbelianGroup:
    orders = []
    for entry in spec.split(","):
        try:
            orders.append(int(entry))
        except ValueError:
            raise ValueError(f"--group {spec!r}: entry {entry!r} is not "
                             f"an integer") from None
    return FiniteAbelianGroup(tuple(orders))


def _emit(rep: InvariantReport, fmt: str) -> int:
    print(rep.to_json() if fmt == "json" else rep.to_table())
    return 0 if rep.certification is Certification.EXACT else 2


def _fact_strings(h, fs) -> list:
    return [[h.format_element(u) for u in z.atoms] for z in fs]


def _length_value(L) -> dict:
    return {"lengths": list(L.lengths), "delta": list(L.delta),
            "elasticity": L.elasticity}


_LOWER_BOUND_NOTE = ("semigroup-level value: certified lower bound over "
                     "elements of length <= {}")
_NONE_FOUND_NOTE = ("{}: no counterexample among the explored elements of "
                    "length <= {}")


def _swept_length(h: PresentationSemigroup, args) -> int:
    """The longest word a sweep meets: ``enumerate_elements`` stops at the
    budget's word cap whatever ``--max-length`` asks for."""
    cap = h.budget.max_word_length
    return min(args.max_length or cap, cap)


def _sweep_certification(h: PresentationSemigroup, args, counterexample,
                         claim: str):
    """A bounded sweep's certification and notes: a counterexample is
    exact, and finding none up to the swept length is only a lower bound."""
    if counterexample:
        return Certification.EXACT, []
    return Certification.LOWER_BOUND, [
        _NONE_FOUND_NOTE.format(claim, _swept_length(h, args))]


def cmd_parse(args) -> int:
    h = _load_engine(args)
    p = h.presentation
    return _emit(_report(h, "presentation", {
        "generators": list(p.generators),
        "relations": [" ".join(r.lhs) + " = " + " ".join(r.rhs)
                      for r in p.relations],
    }, Certification.EXACT), args.format)


def cmd_adyan(args) -> int:
    h = _load_engine(args)
    rep = check_adyan(h.presentation)
    return _emit(_report(h, "adyan", {
        "is_adyan": rep.is_adyan,
        "left_graph": [list(e) for e in rep.left_edges],
        "right_graph": [list(e) for e in rep.right_edges],
        "cancellativity": "certified" if rep.is_adyan else "assumed",
    }, Certification.EXACT), args.format)


def cmd_elements(args) -> int:
    h = _load_engine(args)
    els, complete = h.enumerate_elements(args.max_length)
    return _emit(_report(h, "elements", [h.format_element(e) for e in els],
                         certification(complete)), args.format)


def cmd_atoms(args) -> int:
    h = _load_engine(args)
    atoms, complete = h.enumerate_atoms(args.max_length)
    return _emit(_report(h, "atoms", [h.format_element(e) for e in atoms],
                         certification(complete)), args.format)


def cmd_factorize(args) -> int:
    h = _load_engine(args)
    fs = rigid_factorizations(h, h.element_from_str(args.element))
    return _emit(_report(h, "rigid-factorizations", _fact_strings(h, fs),
                         certification(fs.complete)), args.format)


def cmd_lengths(args) -> int:
    h = _load_engine(args)
    L = length_profile(h, h.element_from_str(args.element))
    return _emit(_report(h, "length-profile", _length_value(L),
                         certification(L.certified)), args.format)


def cmd_distance(args) -> int:
    h = _load_engine(args)
    el = h.element_from_str(args.element)
    fs = rigid_factorizations(h, el)
    facts = list(fs)
    if not facts:
        scope = "" if fs.complete else " within budget"
        raise ValueError(f"element {h.format_element(el)} has no rigid "
                         f"factorizations{scope}")
    if not (0 <= args.z < len(facts) and 0 <= args.zprime < len(facts)):
        raise ValueError(
            f"factorization index out of range (0..{len(facts)-1})")
    kind = _KINDS[args.kind]
    z, zp = facts[args.z], facts[args.zprime]
    witnesses = [{"z": _fact_strings(h, [z])[0],
                  "zprime": _fact_strings(h, [zp])[0]}]
    if kind is DistanceKind.RIGID:
        value, alignment = rigid_distance_alignment(h, z, zp)
        witnesses.append({"alignment_blocks": [list(b) for b in alignment.blocks],
                          "gap_costs": list(alignment.gap_costs)})
    else:
        value = distance(h, kind, z, zp)
    return _emit(_report(h, f"distance-{kind.value}", value,
                         certification(fs.complete), witnesses), args.format)


def cmd_catenary(args) -> int:
    h = _load_engine(args)
    kind = _KINDS[args.kind]
    notes = []
    if args.all:
        els, complete = h.enumerate_elements(args.max_length)
        rep = semigroup_catenary(h, els, kind, args.variant, complete)
        name = f"catenary-{kind.value}-{args.variant}-semigroup"
        cert = Certification.LOWER_BOUND
        notes.append(_LOWER_BOUND_NOTE.format(_swept_length(h, args)))
    elif args.element:
        el = h.element_from_str(args.element)
        rep = VARIANTS[args.variant](h, el, kind)
        name = f"catenary-{kind.value}-{args.variant}"
        cert = certification(rep.certified)
    else:
        raise ValueError("need --element or --all")
    witnesses = []
    if rep.witness is not None:
        witnesses.append({"chain": _fact_strings(h, rep.witness.steps),
                          "bound": rep.witness.bound})
    return _emit(_report(h, name, rep.value, cert, witnesses, notes),
                 args.format)


def cmd_omega(args) -> int:
    h = _load_engine(args)
    divisor = h.element_from_str(args.divisor)
    mode = "nonunits" if args.nonunits else "atoms"
    notes = []
    if args.element:
        el = h.element_from_str(args.element)
        rep = omega_element(h, el, divisor, mode)
        name = f"omega-{mode}"
        cert = certification(rep.certified)
    else:
        els, complete = h.enumerate_elements(args.max_length)
        rep = omega_semigroup(h, divisor, els, mode)
        name = f"omega-{mode}-semigroup"
        cert = Certification.LOWER_BOUND
        notes.append(_LOWER_BOUND_NOTE.format(_swept_length(h, args)))
    witnesses = []
    if rep.witness:
        witnesses.append({
            "element": h.format_element(rep.witness.element),
            "parts": [h.format_element(p) for p in rep.witness.parts],
            "min_k": rep.witness.min_k,
            "subproduct_indices": list(rep.witness.subproduct)})
    return _emit(_report(h, name, rep.value, cert, witnesses, notes),
                 args.format)


def cmd_tame(args) -> int:
    h = _load_engine(args)
    pattern = [h.element_from_str(tok) for tok in args.pattern]
    notes = []
    if args.element:
        el = h.element_from_str(args.element)
        rep = tame_element(h, el, pattern)
        name = "tame"
        cert = certification(rep.certified)
    else:
        els, complete = h.enumerate_elements(args.max_length)
        rep = tame_semigroup(h, pattern, els, scope_certified=complete)
        name = "tame-semigroup"
        cert = Certification.LOWER_BOUND
        notes.append(_LOWER_BOUND_NOTE.format(_swept_length(h, args)))
    witnesses = []
    if rep.witness:
        el, z, zp = rep.witness
        # an atom's class on a presentation is its word
        witnesses.append({"element": h.format_element(el),
                          "from": [" ".join(w) for w in z],
                          "to": [" ".join(w) for w in zp]})
    return _emit(_report(h, name, rep.value, cert, witnesses, notes),
                 args.format)


def cmd_primelike(args) -> int:
    h = _load_engine(args)
    q = h.element_from_str(args.atom)
    els, complete = h.enumerate_elements(args.max_length)
    rep = is_almost_prime_like(h, q, els, complete)
    value = {"almost_prime_like": rep.holds}
    witnesses = []
    if rep.counterexample:
        el, zw, zwo = rep.counterexample
        witnesses.append({"element": h.format_element(el),
                          "with": _fact_strings(h, [zw])[0],
                          "without": _fact_strings(h, [zwo])[0]})
    else:
        pl = is_prime_like(h, q, els, complete)
        value["prime_like"] = pl.holds
    cert, notes = _sweep_certification(
        h, args, rep.counterexample,
        "prime-likeness" if value.get("prime_like") else "almost prime-likeness")
    return _emit(_report(h, "prime-like", value, cert, witnesses, notes),
                 args.format)


def cmd_abelianize(args) -> int:
    h = _load_engine(args)
    ab = abelianize(h)

    def monomial(vec):
        return " ".join(f"{g}^{e}" if e > 1 else g
                        for g, e in zip(ab.generators, vec) if e) or "1"

    return _emit(_report(h, "abelianization", {
        "generators": list(ab.generators),
        "relations": [f"{monomial(lhs)} = {monomial(rhs)}"
                      for lhs, rhs in ab.relations],
        "reduced_within_budget": ab.unit_scan(),
    }, Certification.EXACT), args.format)


def cmd_check_wth(args) -> int:
    h = _load_engine(args)
    rep = check_exwt(h, args.max_length)
    value = {"weak_transfer_within_budget": rep.passed,
             "equiv_p_transitive": rep.equiv_p_transitive,
             "abelianization_cancellative_within_budget":
                 rep.abelianization_cancellative_within_budget}
    witnesses = []
    for a, b, mset in rep.counterexamples[:5]:
        witnesses.append({"pair": [h.format_element(a), h.format_element(b)],
                          "unliftable_multiset": [" ".join(w) for w in mset]})
    cert, notes = _sweep_certification(h, args, rep.counterexamples,
                                       "the weak-transfer condition")
    return _emit(_report(h, "check-wth", value, cert, witnesses,
                         list(rep.notes) + notes), args.format)


def cmd_zss(args) -> int:
    if args.zss_command == "order-bound":
        return cmd_order_bound(args)
    group = _group_from_spec(args.group)
    # one handle, so the atoms are enumerated once
    handle = BlockMonoidHandle(group)
    if args.zss_command == "atoms":
        rep = InvariantReport(f"zss-atoms({group.describe()})",
                              [handle.format_element(a) for a in handle.atoms],
                              Certification.EXACT)
    elif args.zss_command == "davenport":
        rep = InvariantReport(f"davenport({group.describe()})",
                              _davenport(handle.atoms), Certification.EXACT)
    else:   # catenary
        res = _block_catenary(handle, args.max_len or 6)
        witnesses = []
        if res.element is not None:
            witnesses.append({"element": handle.format_element(res.element)})
        rep = InvariantReport(f"block-catenary({group.describe()})", res.value,
                              Certification.LOWER_BOUND, witnesses=witnesses,
                              warnings=list(res.notes))
    return _emit(rep, args.format)


def cmd_order_bound(args) -> int:
    group = _group_from_spec(args.group)
    res = maximal_order_bound(group, args.max_len)
    rep = InvariantReport(
        f"order-bound({group.describe()})",
        {"bound": res.bound, "computed_catenary": res.computed_catenary,
         "classification": res.classification},
        certification(res.certified))
    return _emit(rep, args.format)


def cmd_tri(args) -> int:
    m = parse_matrix(args.matrix)
    h = TriangularMatrixHandle(len(m))
    m = h.matrix(m)
    if args.tri_command == "atom":
        profile = tri_is_atom(m)
        value = {"atom": profile is not None}
        if profile:
            value["profile"] = {"position": profile.position,
                                "prime": profile.prime}
        rep = InvariantReport("tri-atom", value, Certification.EXACT)
    elif args.tri_command == "delta":
        rep = InvariantReport("tri-delta", list(delta_map(m)),
                              Certification.EXACT)
    else:   # factorize
        fs = rigid_factorizations(h, m)
        rep = InvariantReport("tri-factorizations", _fact_strings(h, fs),
                              certification(fs.complete))
    return _emit(rep, args.format)


def cmd_mat(args) -> int:
    m = parse_matrix(args.matrix)
    h = FullMatrixHandle(len(m))
    m = h.matrix(m)
    if args.mat_command == "snf":
        res = snf(m)
        rep = InvariantReport("mat-snf", {
            "U": [list(r) for r in res.u], "C": [list(r) for r in res.c],
            "V": [list(r) for r in res.v]}, Certification.EXACT)
    elif args.mat_command == "atom":
        rep = InvariantReport("mat-atom",
                              {"atom": h.is_atom(m),
                               "abs_det": det_transfer(m)},
                              Certification.EXACT)
    else:   # lengths
        L = length_profile(h, m)
        rep = InvariantReport("mat-lengths", _length_value(L),
                              certification(L.certified))
    return _emit(rep, args.format)


def cmd_regression(args) -> int:
    # imported here, so that no other command compiles the regression cases
    from . import regression as regression_mod
    budget = BudgetOverride(args.budget_len, args.budget_ball)
    names = regression_mod.CRITERIA
    if args.case:
        if args.case not in names:
            raise ValueError(f"unknown case {args.case!r}; available: "
                             + ", ".join(names))
        names = [args.case]
    any_fail = False
    any_bound = False
    for i, name in enumerate(names, start=1):
        rows = regression_mod.run_case(name, budget)
        for row in rows:
            status = row.status
            if status == "FAIL":
                any_fail = True
            if status == "lower-bound":
                any_bound = True
            rel = "" if row.relation == "==" else f" ({row.relation})"
            print(f"[{status:>11}] {name}: {row.label}: expected{rel} "
                  f"{row.expected}, computed {row.computed}")
    if any_fail:
        return 1
    return 2 if any_bound else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other input error: exit code 2 means
    partial results under an exhausted budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state on it, so every ``main`` call shares it."""
    parser = _Parser(
        prog="factorum",
        description="factorization-theoretic invariants of noncommutative "
                    "cancellative semigroups")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--budget-len", type=int, default=None,
                        help="override max word length")
    parser.add_argument("--budget-ball", type=int, default=None,
                        help="override max congruence-ball size")
    sub = parser.add_subparsers(dest="command", required=True)

    def pres_cmd(name, fn, **options):
        # a presentation subcommand: the file, then one ``--option`` per
        # keyword (underscores become dashes), in the order given
        p = sub.add_parser(name)
        p.add_argument("file", help="presentation file")
        for opt, kw in options.items():
            p.add_argument("--" + opt.replace("_", "-"), **kw)
        p.set_defaults(func=fn)

    def length(text: str) -> int:
        # a --max-length or --max-len bound: a sweep to 0 proves nothing
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    kind = dict(choices=tuple(_KINDS), default="perm")
    sweep = dict(type=length)
    pres_cmd("parse", cmd_parse)
    pres_cmd("adyan", cmd_adyan)
    pres_cmd("elements", cmd_elements, max_length=sweep)
    pres_cmd("atoms", cmd_atoms, max_length=sweep)
    pres_cmd("factorize", cmd_factorize, element=dict(required=True))
    pres_cmd("lengths", cmd_lengths, element=dict(required=True))
    pres_cmd("distance", cmd_distance, kind=kind, element=dict(required=True),
             z=dict(type=int, required=True,
                    help="factorization index (enumeration order)"),
             zprime=dict(type=int, required=True))
    pres_cmd("catenary", cmd_catenary, kind=kind,
             variant=dict(choices=tuple(VARIANTS), default="plain"),
             element=dict(default=None), all=dict(action="store_true"),
             max_length=sweep)
    pres_cmd("omega", cmd_omega, divisor=dict(required=True),
             element=dict(default=None,
                          help="omit for the semigroup-level value"),
             nonunits=dict(action="store_true"),
             max_length=dict(sweep, default=6))
    pres_cmd("tame", cmd_tame, pattern=dict(nargs="+", required=True),
             element=dict(default=None), max_length=dict(sweep, default=6))
    pres_cmd("primelike", cmd_primelike, atom=dict(required=True),
             max_length=dict(sweep, default=6))
    pres_cmd("abelianize", cmd_abelianize)
    pres_cmd("check-wth", cmd_check_wth, max_length=dict(sweep, default=4))
    p = sub.add_parser("zss")
    p.add_argument("--group", required=True, help="cyclic orders, e.g. 2,2")
    p.add_argument("zss_command", choices=("atoms", "davenport", "catenary",
                                           "order-bound"))
    p.add_argument("--max-len", type=length, default=None,
                   help="longest zero-sum sequence swept (default: 6 for "
                        "catenary, 2*D(G) for order-bound)")
    p.set_defaults(func=cmd_zss)
    p = sub.add_parser("order-bound")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_order_bound, max_len=None)
    p = sub.add_parser("tri")
    p.add_argument("--matrix", required=True, help='e.g. "2 5; 0 3"')
    p.add_argument("tri_command", choices=("factorize", "atom", "delta"))
    p.set_defaults(func=cmd_tri)
    p = sub.add_parser("mat")
    p.add_argument("--matrix", required=True)
    p.add_argument("mat_command", choices=("snf", "atom", "lengths"))
    p.set_defaults(func=cmd_mat)
    p = sub.add_parser("regression")
    p.add_argument("--case", default=None)
    p.set_defaults(func=cmd_regression)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code.  It may be called
    repeatedly in one process."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PresentationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the walks recurse once per atom split off, so a long enough
        # element exhausts the interpreter's stack
        print("error: the element is too long for the factorization walk "
              "(recursion limit reached)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
