"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every row must hold with exact certification at the stated tolerances
(exact equality throughout).  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines, or ``factorum regression`` for the same
matrix from the CLI.

Each case's printed lines must also match ``data/regression.txt``, the
output of ``factorum regression`` pinned byte for byte, so an answer or a
label that changes shows up here; the cases run once, for both checks.
"""

import pathlib

import pytest

from factorum.regression import CRITERIA, format_row, run_case

PINNED = (pathlib.Path(__file__).parent / "data" / "regression.txt"
          ).read_text("utf-8").splitlines()


def _case_of(line):
    """The case a printed line belongs to: ``[<status>] <case>: ...``."""
    return line.split("] ", 1)[1].split(": ", 1)[0]

_DESCRIPTIONS = {
    "abc_cb": "criterion 1: <a,b,c | abc=cb> lengths, Delta, c_p, d_p",
    "rigid-distance-bound": "criterion 2: <a,b | aba=b> d*([a,b,a],[b]) = 2",
    "anbn": "criterion 3: <a,b | a^n b^n = b^n a^n> c_p = 0, c* = 2n",
    "omega-gap": "criterion 4: omega_p(S,a) = 2, omega'_p(S,a) >= 3",
    "tame-omega-family": "criterion 5: <a,b,c | ba^{n-1}=a^{n-1}c> t_p/omega_p",
    "length-set-family": "criterion 6: <a,b | ab=ba^{n-1}> L, rho, c_p, omega_p",
    "aba_ba3bc": "criterion 7: <a,b,c | aba=ba^3bc> (almost) prime-like",
    "tame-zero": "criterion 8: <a,b | aba=bab> t_p = 0, not perm. factorial",
    "length-transfer": "criterion 9: <a,b,c,d | ab=cd> exwt counterexample",
    "no-weak-transfer": "criterion 10: <a,b,c,d,e | abc=de> verdict",
    "zero-sum": "criterion 11: Davenport constants and block catenary",
    "triangular": "criterion 12: T2(Z) permutable factoriality and delta",
    "full-matrices": "criterion 13: M2(Z) SNF, lengths, atoms",
    "property-suites": "criterion 14: distance axioms, oracle, coarseness",
}


@pytest.mark.parametrize("case", CRITERIA)
def test_acceptance(case):
    rows = run_case(case)
    assert [format_row(case, r) for r in rows] == [
        line for line in PINNED if _case_of(line) == case]
    failures = [r for r in rows if r.status == "FAIL"]
    bounds = [r for r in rows if r.status == "lower-bound"]
    status = "PASS" if not failures and not bounds else "FAIL"
    print(f"\n[{status}] {_DESCRIPTIONS[case]} ({len(rows)} checks)")
    for r in failures + bounds:
        print(f"    {r.status}: {r.label}: expected {r.expected}, "
              f"computed {r.computed}")
    assert not failures, failures
    assert not bounds, ("criterion must be decided exactly at the stated "
                        "budgets", bounds)


def test_pinned_output_is_every_case_in_order():
    # with the per-case comparison above, the whole printed output is the
    # pinned file: its lines are grouped by case, in the CLI's order
    cases = [_case_of(line) for line in PINNED]
    assert sorted(set(cases), key=cases.index) == CRITERIA
    assert cases == sorted(cases, key=CRITERIA.index)
