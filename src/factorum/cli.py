"""Command-line front end.

Load a presentation file, a finite abelian group, or a matrix; dispatch an
invariant computation; emit a human table or machine JSON ("factorum/1"
schema, byte-identical across repeated runs).  Exit codes: 0 success, 2 on
budget exhaustion with partial results, 1 on input errors (usage errors
included).

Every ``cmd_*`` returns its report, and ``main``, the one runner, prints
it and reads the exit code off its certification (``regression`` prints
its rows and returns its code).  ``pres_cmd`` hands each presentation
command its engine and adds the engine's budget and warnings; two of its
options that contradict each other (``--element`` with ``--all`` or with
``--max-length``) are a usage error, checked before the file is read.
``_element_or_sweep`` answers ``catenary``, ``omega`` and ``tame`` for one
element or over a sweep; ``_sweep_verdict`` certifies ``primelike`` and
``check-wth``.

Importing this module loads no layer: the commands read each name off the
package (``factorum.<name>``), which imports its module on first use, so
a command compiles only the layers it uses.  A read costs tens of
nanoseconds once loaded, where an import statement in each command would
cost microseconds on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

import factorum

# the parser's choices are plain strings, resolved when the command runs:
# --kind to a ``DistanceKind`` value and --variant to a key of
# ``catenary.VARIANTS``
_KINDS = {"len": "length", "perm": "permutable", "rigid": "rigid"}
_VARIANTS = ("plain", "equal", "adjacent", "monotone")
# the longest element an omega or tame sweep takes when --max-length is
# not given; it has no parser default, so that --element rejects it
_SWEEP_LENGTH = 6


def _report(invariant, value, exact, **fields) -> factorum.InvariantReport:
    """The report of ``value``, certified exact iff ``exact``."""
    reports = factorum.reports
    return reports.InvariantReport(invariant, value,
                                   reports.certification(exact), **fields)


def _group_from_spec(spec: str) -> factorum.FiniteAbelianGroup:
    orders = []
    for entry in spec.split(","):
        try:
            orders.append(int(entry))
        except ValueError:
            raise ValueError(f"--group {spec!r}: entry {entry!r} is not "
                             f"an integer") from None
    return factorum.FiniteAbelianGroup(tuple(orders))


def _fact_strings(h, fs) -> list:
    return [[h.format_element(u) for u in z.atoms] for z in fs]


def _length_value(L) -> dict:
    return {"lengths": list(L.lengths), "delta": list(L.delta),
            "elasticity": L.elasticity}


def _swept_length(h: factorum.PresentationSemigroup, max_length) -> int:
    """The longest word a sweep to ``max_length`` (None: no bound) meets:
    ``enumerate_elements`` stops at the budget's word cap whatever
    ``--max-length`` asks for."""
    cap = h.budget.max_word_length
    return min(max_length or cap, cap)


def _element_or_sweep(h: factorum.PresentationSemigroup, args, element,
                      invariant, of_element, of_sweep, witness,
                      max_length=None) -> factorum.InvariantReport:
    """The value at ``element`` (``""`` is the unit), or with ``element``
    None the supremum over the elements up to ``--max-length`` (else
    ``max_length``): a lower bound, which notes the length swept.
    ``witness`` renders the report's witness."""
    if element is None:
        max_length = args.max_length or max_length
        els, _ = h.enumerate_elements(max_length)
        rep = of_sweep(els)
        invariant += "-semigroup"
        exact = False
        notes = ["semigroup-level value: certified lower bound over "
                 f"elements of length <= {_swept_length(h, max_length)}"]
    else:
        rep = of_element(h.element_from_str(element))
        exact, notes = rep.certified, []
    witnesses = [] if rep.witness is None else [witness(rep.witness)]
    return _report(invariant, rep.value, exact, witnesses=witnesses,
                   warnings=notes)


def _sweep_verdict(h: factorum.PresentationSemigroup, args, invariant, value,
                   witnesses, claim, notes=()) -> factorum.InvariantReport:
    """A bounded search for counterexamples, one witness each: finding one
    is exact, and finding none up to the swept length is only a lower
    bound, noted after ``notes``."""
    notes = list(notes)
    if not witnesses:
        notes.append(f"{claim}: no counterexample among the explored "
                     f"elements of length <= "
                     f"{_swept_length(h, args.max_length)}")
    return _report(invariant, value, bool(witnesses), witnesses=witnesses,
                   warnings=notes)


def cmd_parse(h, args) -> factorum.InvariantReport:
    p = h.presentation
    return _report("presentation", {
        "generators": list(p.generators),
        "relations": [" ".join(r.lhs) + " = " + " ".join(r.rhs)
                      for r in p.relations],
    }, True)


def cmd_adyan(h, args) -> factorum.InvariantReport:
    rep = factorum.check_adyan(h.presentation)
    return _report("adyan", {
        "is_adyan": rep.is_adyan,
        "left_graph": [list(e) for e in rep.left_edges],
        "right_graph": [list(e) for e in rep.right_edges],
        "cancellativity": "certified" if rep.is_adyan else "assumed",
    }, True)


def cmd_elements(h, args) -> factorum.InvariantReport:
    els, complete = h.enumerate_elements(args.max_length)
    return _report("elements", [h.format_element(e) for e in els], complete)


def cmd_atoms(h, args) -> factorum.InvariantReport:
    atoms, complete = h.enumerate_atoms(args.max_length)
    return _report("atoms", [h.format_element(e) for e in atoms], complete)


def cmd_factorize(h, args) -> factorum.InvariantReport:
    fs = factorum.rigid_factorizations(h, h.element_from_str(args.element))
    return _report("rigid-factorizations", _fact_strings(h, fs), fs.complete)


def cmd_lengths(h, args) -> factorum.InvariantReport:
    L = factorum.length_profile(h, h.element_from_str(args.element))
    return _report("length-profile", _length_value(L), L.certified)


def cmd_distance(h, args) -> factorum.InvariantReport:
    el = h.element_from_str(args.element)
    fs = factorum.rigid_factorizations(h, el)
    facts = list(fs)
    if not facts:
        scope = "" if fs.complete else " within budget"
        raise ValueError(f"element {h.format_element(el)} has no rigid "
                         f"factorizations{scope}")
    if not (0 <= args.z < len(facts) and 0 <= args.zprime < len(facts)):
        raise ValueError(
            f"factorization index out of range (0..{len(facts)-1})")
    kind = factorum.DistanceKind(_KINDS[args.kind])
    z, zp = facts[args.z], facts[args.zprime]
    witnesses = [{"z": _fact_strings(h, [z])[0],
                  "zprime": _fact_strings(h, [zp])[0]}]
    if kind is factorum.DistanceKind.RIGID:
        value, alignment = factorum.rigid_distance_alignment(h, z, zp)
        witnesses.append({"alignment_blocks": [list(b) for b in alignment.blocks],
                          "gap_costs": list(alignment.gap_costs)})
    else:
        value = factorum.distance(h, kind, z, zp)
    return _report(f"distance-{kind.value}", value, fs.complete,
                   witnesses=witnesses)


def cmd_catenary(h, args) -> factorum.InvariantReport:
    if not args.all and args.element is None:
        raise ValueError("need --element or --all")
    # ``factorum.catenary`` is the function, so the module's table is
    # imported
    from .catenary import VARIANTS
    kind = factorum.DistanceKind(_KINDS[args.kind])
    return _element_or_sweep(
        h, args, None if args.all else args.element,
        f"catenary-{kind.value}-{args.variant}",
        lambda el: VARIANTS[args.variant](h, el, kind),
        lambda els: factorum.semigroup_catenary(h, els, kind, args.variant),
        lambda w: {"chain": _fact_strings(h, w.steps), "bound": w.bound})


def cmd_omega(h, args) -> factorum.InvariantReport:
    divisor = h.element_from_str(args.divisor)
    mode = "nonunits" if args.nonunits else "atoms"
    return _element_or_sweep(
        h, args, args.element, f"omega-{mode}",
        lambda el: factorum.omega_element(h, el, divisor, mode),
        lambda els: factorum.omega_semigroup(h, divisor, els, mode),
        lambda w: {"element": h.format_element(w.element),
                   "parts": [h.format_element(p) for p in w.parts],
                   "min_k": w.min_k,
                   "subproduct_indices": list(w.subproduct)},
        _SWEEP_LENGTH)


def cmd_tame(h, args) -> factorum.InvariantReport:
    pattern = [h.element_from_str(tok) for tok in args.pattern]
    # an atom's class on a presentation is its word
    return _element_or_sweep(
        h, args, args.element, "tame",
        lambda el: factorum.tame_element(h, el, pattern),
        lambda els: factorum.tame_semigroup(h, pattern, els),
        lambda w: {"element": h.format_element(w[0]),
                   "from": [" ".join(u) for u in w[1]],
                   "to": [" ".join(u) for u in w[2]]},
        _SWEEP_LENGTH)


def cmd_primelike(h, args) -> factorum.InvariantReport:
    q = h.element_from_str(args.atom)
    els, _ = h.enumerate_elements(args.max_length)
    rep = factorum.is_almost_prime_like(h, q, els)
    value = {"almost_prime_like": rep.holds}
    witnesses = []
    if rep.counterexample:
        el, zw, zwo = rep.counterexample
        witnesses.append({"element": h.format_element(el),
                          "with": _fact_strings(h, [zw])[0],
                          "without": _fact_strings(h, [zwo])[0]})
    else:
        value["prime_like"] = factorum.is_prime_like(h, q, els).holds
    return _sweep_verdict(
        h, args, "prime-like", value, witnesses,
        "prime-likeness" if value.get("prime_like") else "almost prime-likeness")


def cmd_abelianize(h, args) -> factorum.InvariantReport:
    ab = factorum.abelianize(h)

    def monomial(vec):
        return " ".join(f"{g}^{e}" if e > 1 else g
                        for g, e in zip(ab.generators, vec) if e) or "1"

    return _report("abelianization", {
        "generators": list(ab.generators),
        "relations": [f"{monomial(lhs)} = {monomial(rhs)}"
                      for lhs, rhs in ab.relations],
        "reduced_within_budget": ab.unit_scan(),
    }, True)


def cmd_check_wth(h, args) -> factorum.InvariantReport:
    rep = factorum.check_exwt(h, args.max_length)
    value = {"weak_transfer_within_budget": rep.passed,
             "equiv_p_transitive": rep.equiv_p_transitive,
             "abelianization_cancellative_within_budget":
                 rep.abelianization_cancellative_within_budget}
    witnesses = [{"pair": [h.format_element(a), h.format_element(b)],
                  "unliftable_multiset": [" ".join(w) for w in mset]}
                 for a, b, mset in rep.counterexamples[:5]]
    return _sweep_verdict(h, args, "check-wth", value, witnesses,
                          "the weak-transfer condition", rep.notes)


def cmd_zss(args) -> factorum.InvariantReport:
    if args.zss_command == "order-bound":
        return cmd_order_bound(args)
    group = _group_from_spec(args.group)
    # one handle, so the atoms are enumerated once
    handle = factorum.BlockMonoidHandle(group)
    if args.zss_command == "atoms":
        return _report(f"zss-atoms({group.describe()})",
                       [handle.format_element(a) for a in handle.atoms], True)
    zerosum = factorum.zerosum
    if args.zss_command == "davenport":
        return _report(f"davenport({group.describe()})",
                       zerosum._davenport(handle.atoms), True)
    res = zerosum._block_catenary(handle, args.max_len or 6)
    witnesses = []
    if res.element is not None:
        witnesses.append({"element": handle.format_element(res.element)})
    return _report(f"block-catenary({group.describe()})", res.value, False,
                   witnesses=witnesses, warnings=list(res.notes))


def cmd_order_bound(args) -> factorum.InvariantReport:
    group = _group_from_spec(args.group)
    res = factorum.maximal_order_bound(group, args.max_len)
    return _report(
        f"order-bound({group.describe()})",
        {"bound": res.bound, "computed_catenary": res.computed_catenary,
         "classification": res.classification},
        res.certified)


def cmd_tri(args) -> factorum.InvariantReport:
    m = factorum.parse_matrix(args.matrix)
    h = factorum.TriangularMatrixHandle(len(m))
    m = h.matrix(m)
    if args.tri_command == "atom":
        profile = factorum.tri_is_atom(m)
        value = {"atom": profile is not None}
        if profile:
            value["profile"] = {"position": profile.position,
                                "prime": profile.prime}
        return _report("tri-atom", value, True)
    if args.tri_command == "delta":
        return _report("tri-delta", list(factorum.delta_map(m)), True)
    fs = factorum.rigid_factorizations(h, m)
    return _report("tri-factorizations", _fact_strings(h, fs), fs.complete)


def cmd_mat(args) -> factorum.InvariantReport:
    m = factorum.parse_matrix(args.matrix)
    h = factorum.FullMatrixHandle(len(m))
    m = h.matrix(m)
    if args.mat_command == "snf":
        res = factorum.snf(m)
        return _report("mat-snf", {
            "U": [list(r) for r in res.u], "C": [list(r) for r in res.c],
            "V": [list(r) for r in res.v]}, True)
    if args.mat_command == "atom":
        return _report("mat-atom", {"atom": h.is_atom(m),
                                    "abs_det": factorum.det_transfer(m)},
                       True)
    L = factorum.length_profile(h, m)
    return _report("mat-lengths", _length_value(L), L.certified)


def cmd_regression(args) -> int:
    regression = factorum.regression
    budget = factorum.BudgetOverride(args.budget_len, args.budget_ball)
    names = regression.CRITERIA
    if args.case:
        if args.case not in names:
            raise ValueError(f"unknown case {args.case!r}; available: "
                             + ", ".join(names))
        names = [args.case]
    statuses = set()
    for name in names:
        for row in regression.run_case(name, budget):
            statuses.add(row.status)
            print(regression.format_row(name, row))
    if "FAIL" in statuses:
        return 1
    return 2 if "lower-bound" in statuses else 0


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

    def pres_cmd(name, fn, exclusive=(), **options):
        # a presentation subcommand: the file, then one ``--option`` per
        # keyword (underscores become dashes), in the order given; the
        # options named in ``exclusive`` contradict each other, so giving
        # two is a usage error.  ``fn`` gets the file's engine, and its
        # report gains the engine's budget and, before its own notes, the
        # engine's warnings, read after the computation, which may add some
        p = sub.add_parser(name)
        p.add_argument("file", help="presentation file")
        group = p.add_mutually_exclusive_group() if exclusive else None
        for opt, kw in options.items():
            (group if opt in exclusive else p).add_argument(
                "--" + opt.replace("_", "-"), **kw)

        def run(args) -> factorum.InvariantReport:
            if (getattr(args, "element", None) is not None
                    and getattr(args, "max_length", None) is not None):
                # one element leaves no sweep to bound; argparse puts an
                # option in one exclusive group only, and catenary's
                # --element is already grouped with --all
                p.error("argument --max-length: not allowed with argument "
                        "--element")
            with open(args.file, "r", encoding="utf-8") as fh:
                pres = factorum.parse_presentation(fh.read())
            h = factorum.PresentationSemigroup(pres, factorum.BudgetOverride(
                args.budget_len, args.budget_ball).apply(pres.budget))
            rep = fn(h, args)
            return rep._replace(
                budget={"max_word_length": h.budget.max_word_length,
                        "max_ball_size": h.budget.max_ball_size},
                warnings=list(h.warnings) + rep.warnings)

        p.set_defaults(func=run)

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
    sweep6 = dict(sweep, help=f"longest element swept (default "
                              f"{_SWEEP_LENGTH}); not with --element")
    pres_cmd("catenary", cmd_catenary, ("element", "all"), kind=kind,
             variant=dict(choices=_VARIANTS, default="plain"),
             element=dict(default=None), all=dict(action="store_true"),
             max_length=sweep)
    pres_cmd("omega", cmd_omega, ("element", "max_length"),
             divisor=dict(required=True),
             element=dict(default=None,
                          help="omit for the semigroup-level value"),
             nonunits=dict(action="store_true"), max_length=sweep6)
    pres_cmd("tame", cmd_tame, ("element", "max_length"),
             pattern=dict(nargs="+", required=True),
             element=dict(default=None), max_length=sweep6)
    pres_cmd("primelike", cmd_primelike, atom=dict(required=True),
             max_length=dict(sweep, default=6))
    pres_cmd("abelianize", cmd_abelianize)
    pres_cmd("check-wth", cmd_check_wth, max_length=dict(sweep, default=4))
    zss = sub.add_parser("zss")
    zss.add_argument("--group", required=True, help="cyclic orders, e.g. 2,2")
    zss.add_argument("zss_command", choices=("atoms", "davenport", "catenary",
                                             "order-bound"))
    zss.add_argument("--max-len", type=length, default=None,
                     help="longest zero-sum sequence swept by catenary "
                          "(default 6) or order-bound (default 2*D(G)); "
                          "not with atoms or davenport")

    def run_zss(args) -> factorum.InvariantReport:
        # atoms and davenport sweep no sequence, so a bound there would be
        # ignored; refused before the group's atoms are listed
        if args.max_len is not None \
                and args.zss_command in ("atoms", "davenport"):
            zss.error(f"argument --max-len: not allowed with "
                      f"{args.zss_command}")
        return cmd_zss(args)

    zss.set_defaults(func=run_zss)
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
    """Run one command, print its report and return the exit code: 0 for
    an exact report, 2 for a bound.  It may be called repeatedly in one
    process."""
    args = build_parser().parse_args(argv)
    try:
        rep = args.func(args)
        if isinstance(rep, int):    # regression printed its own rows
            return rep
        print(rep.to_json() if args.format == "json" else rep.to_table())
        return 0 if rep.certification is factorum.Certification.EXACT else 2
    except (ValueError, OSError) as exc:
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
