import importlib
import json
import pathlib
from unittest import mock

import pytest

from factorum.cli import build_parser, main
from factorum.presentation import BudgetOverride, ExplorationBudget
from importlib import resources


def pres_path(name):
    return str(resources.files("factorum").joinpath(f"presentations/{name}.pres"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_parse_and_adyan(capsys):
    code, out, _ = run(capsys, "parse", pres_path("abc_cb"))
    assert code == 0 and "a b c = c b" in out
    code, out, _ = run(capsys, "adyan", pres_path("ab_cd_cede_ba"))
    assert code == 0 and '"is_adyan": true' in out


def test_catenary_command(capsys):
    code, out, _ = run(capsys, "catenary", "--kind", "perm",
                       "--element", "a b c", pres_path("abc_cb"))
    assert code == 0
    assert "catenary-permutable-plain: 1 [exact]" in out


def test_lengths_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "lengths",
                       pres_path("abc_cb"), "--element", "a b c")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "factorum/1"
    assert payload["value"]["lengths"] == [2, 3]
    assert payload["value"]["elasticity"] == "3/2"


def test_json_determinism(capsys):
    argv = ["--format", "json", "factorize", pres_path("abc_cb"),
            "--element", "a b c"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_distance_rigid_includes_alignment(capsys):
    code, out, _ = run(capsys, "--format", "json", "distance",
                       pres_path("abc_cb"), "--kind", "rigid",
                       "--element", "a b c", "--z", "0", "--zprime", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert any("alignment_blocks" in w for w in payload["witnesses"])


def test_distance_on_an_element_without_factorizations(capsys):
    # <a, b | aba = b> is not atomic: no search finds a factorization of b
    code, out, err = run(capsys, "distance", pres_path("aba_b"),
                         "--element", "b", "--z", "0", "--zprime", "0")
    assert code == 1 and out == ""
    assert err == ("error: element b has no rigid factorizations "
                   "within budget\n")


@pytest.mark.parametrize("command", ["lengths", "factorize"])
def test_an_element_too_long_for_the_walk_ends_with_one_error_line(
        capsys, tmp_path, command):
    # the self-loop b b = b b makes the presentation non-Adyan, so nothing
    # is read off and the walks recurse once per letter of a^1200; with
    # no b in the word its balls stay single words (a a = a a fails the
    # same way)
    pres = tmp_path / "f.pres"
    pres.write_text("gens: a b\nrel: b b = b b\n")
    code, out, err = run(capsys, command, str(pres),
                         "--element", " ".join(["a"] * 1200))
    assert code == 1 and out == ""
    assert err == ("error: the element is too long for the factorization "
                   "walk (recursion limit reached)\n")


@pytest.mark.parametrize("command", [
    ["catenary"], ["omega", "--divisor", "a"], ["tame", "--pattern", "a"],
], ids=lambda command: command[0])
def test_an_empty_element_is_the_unit(capsys, command):
    # "" names the unit, as " " does, and asks for no sweep
    runs = [run(capsys, "--format", "json", command[0], pres_path("abc_cb"),
                *command[1:], "--element", element) for element in ("", " ")]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    payload = json.loads(out)
    assert (code, payload["value"], payload["certification"]) == (0, 0,
                                                                  "exact")
    assert not payload["invariant"].endswith("-semigroup")


@pytest.mark.parametrize("element", ["", " "])
def test_omega_of_the_unit_is_exact_where_the_divisor_does_not_close(
        capsys, element):
    # on <a, b | a b a = b>, b has no complete class multisets, but the
    # unit has only the empty one, so no non-unit divides it
    code, out, _ = run(capsys, "--format", "json", "omega", pres_path("aba_b"),
                       "--divisor", "b", "--element", element)
    payload = json.loads(out)
    assert (code, payload["value"], payload["certification"]) == (0, 0,
                                                                  "exact")


def test_distance_index_out_of_range(capsys):
    code, _, err = run(capsys, "distance", pres_path("abc_cb"),
                       "--element", "a b c", "--z", "0", "--zprime", "2")
    assert code == 1 and "index out of range (0..1)" in err


def test_omega_command(capsys):
    # semigroup-level values are honest lower bounds: exit code 2
    code, out, _ = run(capsys, "omega", pres_path("ab_cd_cede_ba"),
                       "--divisor", "a", "--max-length", "4")
    assert code == 2 and "omega-atoms-semigroup: 2 [lower-bound]" in out


def test_tame_command(capsys):
    code, out, _ = run(capsys, "tame", pres_path("aba_bab"),
                       "--pattern", "a", "--max-length", "5")
    assert code == 2 and "tame-semigroup: 0 [lower-bound]" in out


def test_tame_element_witness_is_rendered_like_the_others(capsys):
    code, out, _ = run(capsys, "--format", "json", "tame", pres_path("abc_de"),
                       "--pattern", "a", "--element", "d e")
    rep = json.loads(out)
    assert code == 0
    assert (rep["value"], rep["certification"]) == (3, "exact")
    assert rep["witnesses"] == [
        {"element": "d e", "from": ["d", "e"], "to": ["a", "b", "c"]}]


@pytest.mark.parametrize("argv,table", [
    (("tame", pres_path("abc_de"), "--pattern", "a", "--element", "d e"),
     'tame: 3 [exact]\n'
     '  witness: {"element": "d e", "from": ["d", "e"], "to": ["a", "b", "c"]}\n'),
    (("catenary", pres_path("abc_cb"), "--kind", "rigid", "--element", "a b c"),
     'catenary-rigid-plain: 2 [exact]\n'
     '  witness: {"bound": 2, "chain": [["c", "b"], ["a", "b", "c"]]}\n'),
    (("omega", pres_path("ab_cd_cede_ba"), "--divisor", "a",
      "--max-length", "4"),
     'omega-atoms-semigroup: 2 [lower-bound]\n'
     '  witness: {"element": "a b", "min_k": 2, "parts": ["c", "d"], '
     '"subproduct_indices": [0, 1]}\n'
     '  warning: semigroup-level value: certified lower bound over '
     'elements of length <= 4\n'),
    (("zss", "--group", "3", "catenary", "--max-len", "6"),
     'block-catenary(C3): 3 [lower-bound]\n'
     '  witness: {"element": "(1 1 1 2 2 2)"}\n'
     '  warning: searched all zero-sum sequences of length <= 6\n'
     '  warning: classification value 3 for C3: computed bound agrees '
     'with it\n'
     '  warning: swept G \\ {0} by Aut(G)-orbit (|Aut| = 2): c(0^k S) = '
     'c(S), and c is constant on orbits\n'),
])
def test_table_witnesses_are_json(capsys, argv, table):
    code, out, _ = run(capsys, *argv)
    assert code == (2 if "[lower-bound]" in table else 0) and out == table


def test_primelike_command(capsys):
    code, out, _ = run(capsys, "primelike", pres_path("aba_ba3bc"),
                       "--atom", "c", "--max-length", "5")
    assert "a b a" in out


@pytest.mark.parametrize("argv, exit_code", [
    (("zss", "--group", "2,2", "atoms"), 0),
    (("zss", "--group", "2,2", "davenport"), 0),
    (("zss", "--group", "2,2", "catenary", "--max-len", "4"), 2),
    (("zss", "--group", "3", "order-bound"), 0),
    (("order-bound", "--group", "4"), 0)])
def test_block_monoid_commands_enumerate_the_atoms_once(capsys, argv,
                                                        exit_code):
    # the one enumerator, counted under every name the commands may call
    listed = mock.Mock(wraps=importlib.import_module(
        "factorum.zerosum").atoms_of_block_monoid)
    with mock.patch("factorum.zerosum.atoms_of_block_monoid", listed), \
            mock.patch("factorum.cli.atoms_of_block_monoid", listed,
                       create=True):
        code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == exit_code and json.loads(out)["schema"] == "factorum/1"
    assert listed.call_count == 1


def test_zss_commands(capsys):
    code, out, _ = run(capsys, "zss", "--group", "2,2", "davenport")
    assert code == 0 and "3" in out
    code, out, _ = run(capsys, "--format", "json", "zss", "--group", "3",
                       "catenary", "--max-len", "6")
    payload = json.loads(out)
    assert payload["value"] == 3
    code, out, _ = run(capsys, "order-bound", "--group", "4")
    assert code == 0 and '"bound": 4' in out


def test_tri_and_mat_commands(capsys):
    code, out, _ = run(capsys, "tri", "--matrix", "2 5; 0 3", "delta")
    assert code == 0 and "[2, 3]" in out
    code, out, _ = run(capsys, "mat", "--matrix", "2 0; 0 3", "snf")
    assert code == 0 and "[[6, 0], [0, 1]]" in out
    code, out, _ = run(capsys, "tri", "--matrix", "2 0; 0 1", "atom")
    assert code == 0 and '"atom": true' in out


def test_tri_malformed_matrix_names_the_entry(capsys):
    code, out, err = run(capsys, "tri", "--matrix", "1.5 2; 0 1", "atom")
    assert code == 1 and out == ""
    assert err == "error: row 1, column 1: '1.5' is not an integer\n"


@pytest.mark.parametrize("text,message", [
    ("gens: a b\nrel: a b = e\n",
     "line 2, column 12: undeclared generator 'e'"),
    ("gens: a b\nrel: a b = 1\n", "line 2, column 12: reduced presentations "
     "only (no empty or unit relation side)"),
    ("gens: a b\nrel: a b =\n", "line 2, column 10: reduced presentations "
     "only (no empty or unit relation side)")],
    ids=["undeclared-generator", "unit-side", "empty-side"])
def test_parse_error_names_line_and_column(capsys, tmp_path, text, message):
    path = tmp_path / "bad.pres"
    path.write_text(text)
    code, out, err = run(capsys, "parse", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_check_wth_command(capsys):
    code, out, _ = run(capsys, "check-wth", pres_path("ab_cd"))
    assert '"weak_transfer_within_budget": false' in out


@pytest.mark.parametrize("argv, value, note", [
    (["primelike", pres_path("aba_bab"), "--atom", "a", "--max-length", "2"],
     {"almost_prime_like": True, "prime_like": True},
     "prime-likeness: no counterexample among the explored elements of "
     "length <= 2"),
    (["primelike", pres_path("aba_bab"), "--atom", "a", "--max-length", "6"],
     {"almost_prime_like": True, "prime_like": False},
     "almost prime-likeness: no counterexample among the explored elements "
     "of length <= 6"),
    (["check-wth", pres_path("abc_cb"), "--max-length", "1"],
     {"abelianization_cancellative_within_budget": True,
      "equiv_p_transitive": True, "weak_transfer_within_budget": True},
     "the weak-transfer condition: no counterexample among the explored "
     "elements of length <= 1"),
], ids=["primelike-2", "primelike-6", "check-wth"])
def test_sweep_without_counterexample_is_a_lower_bound(capsys, argv, value,
                                                       note):
    code, out, _ = run(capsys, "--format", "json", *argv)
    payload = json.loads(out)
    assert (code, payload["certification"]) == (2, "lower-bound")
    assert payload["value"] == value and payload["warnings"][-1] == note


@pytest.mark.parametrize("argv", [
    ["primelike", pres_path("aba_ba3bc"), "--atom", "c", "--max-length", "5"],
    ["check-wth", pres_path("ab_cd")],
], ids=["primelike", "check-wth"])
def test_sweep_counterexample_is_exact(capsys, argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    payload = json.loads(out)
    assert (code, payload["certification"]) == (0, "exact")
    assert payload["witnesses"]


def test_input_error_exit_one(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/file.pres")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "zss", "--group", "zzz", "davenport")
    assert code == 1
    for spec, entry in (("2,,3", "''"), ("a", "'a'")):
        code, _, err = run(capsys, "zss", "--group", spec, "davenport")
        assert code == 1 and f"--group '{spec}'" in err and entry in err


@pytest.mark.parametrize("command", ["davenport", "atoms"])
@pytest.mark.parametrize("order", ["99999999999999999999", "1000000"])
def test_group_order_cap_is_checked_before_the_group_is_listed(
        capsys, command, order):
    code, out, err = run(capsys, "zss", "--group", order, command)
    assert (code, out) == (1, "")
    assert err == f"error: group order {order} exceeds cap 64\n"


@pytest.mark.parametrize("argv", [
    ["mat", "--matrix", "99999999999999999999999 0; 0 1", "lengths"],
    ["tri", "--matrix", "99999999999999999999999 0; 0 1", "factorize"],
    ["mat", "--matrix", "2305843009213693951 0; 0 1", "atom"],
    ["tri", "--matrix", "2305843009213693951 0; 0 1", "atom"],
], ids=["mat-lengths", "tri-factorize", "mat-atom", "tri-atom"])
def test_determinant_cap_is_checked_before_factoring(capsys, argv):
    code, out, err = run(capsys, *argv)
    det = argv[2].split()[0]
    assert (code, out) == (1, "")
    assert err == f"error: |det| = {det} exceeds cap 1000000\n"


def test_regression_single_case(capsys):
    code, out, _ = run(capsys, "regression", "--case", "abc_cb")
    assert code == 0
    assert out.count("pass") == 4
    # the case's lines of the pinned output of ``factorum regression``
    pinned = (pathlib.Path(__file__).parent / "data" / "regression.txt"
              ).read_text("utf-8").splitlines()
    assert out.splitlines() == [line for line in pinned
                                if line.startswith("[       pass] abc_cb: ")]


def test_regression_unknown_case(capsys):
    code, _, err = run(capsys, "regression", "--case", "nope")
    assert code == 1 and "unknown case" in err


def test_truncation_downgrades_certification(capsys):
    # injected truncation: no report may claim "exact" once a ball is cut
    code, out, _ = run(capsys, "--budget-ball", "1", "lengths",
                       pres_path("abc_cb"), "--element", "a b c")
    assert code == 2
    assert "[lower-bound]" in out and "[exact]" not in out


def test_regression_budget_starved_exit_two(capsys):
    code, out, _ = run(capsys, "--budget-ball", "1", "regression",
                       "--case", "abc_cb")
    assert code == 2
    assert "lower-bound" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("command", [("order-bound", "--group", "{}"),
                                     ("zss", "--group", "{}", "order-bound")])
@pytest.mark.parametrize("group,certification,exit_code",
                         [("4", "exact", 0), ("5", "lower-bound", 2)])
def test_order_bound_certification(capsys, command, group, certification,
                                   exit_code):
    argv = [part.format(group) for part in command]
    code, out, _ = run(capsys, "--format", "json", *argv)
    payload = json.loads(out)
    assert code == exit_code and payload["certification"] == certification


@pytest.mark.parametrize("matrix", ["1 0; 1 1", "0 1; 0 1"])
@pytest.mark.parametrize("command", ["delta", "factorize", "atom"])
def test_tri_rejects_non_members(capsys, matrix, command):
    # lower triangular, and singular: neither lies in T_2(Z)*
    code, out, err = run(capsys, "tri", "--matrix", matrix, command)
    assert code == 1 and out == ""
    assert "upper triangular matrix with nonzero det" in err


@pytest.mark.parametrize("command", ["snf", "atom", "lengths"])
def test_mat_rejects_singular_matrices(capsys, command):
    code, out, err = run(capsys, "mat", "--matrix", "2 4; 1 2", command)
    assert code == 1 and out == ""
    assert err == "error: need a square integer matrix with nonzero det\n"


def test_omega_with_a_unit_divisor_is_zero(capsys):
    code, out, _ = run(capsys, "--format", "json", "omega",
                       pres_path("ab_cd_cede_ba"), "--divisor", "",
                       "--element", "c e d e")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 0
    assert payload["certification"] == "exact" and not payload["witnesses"]


def test_zss_order_bound_honours_max_len(capsys):
    code, out, _ = run(capsys, "--format", "json", "zss", "--group", "2,2",
                       "order-bound", "--max-len", "2")
    payload = json.loads(out)
    assert code == 2 and payload["certification"] == "lower-bound"
    assert payload["value"]["computed_catenary"] != 3
    # without the flag both commands sweep to 2 D(G) and agree
    code, zss_out, _ = run(capsys, "zss", "--group", "2,2", "order-bound")
    assert code == 0 and '"computed_catenary": 3' in zss_out
    assert "[exact]" in zss_out
    _, top_out, _ = run(capsys, "order-bound", "--group", "2,2")
    assert top_out == zss_out


@pytest.mark.parametrize("flag", ["--budget-len", "--budget-ball"])
@pytest.mark.parametrize("command", [
    ("lengths", pres_path("abc_cb"), "--element", "a b c"),
    ("regression", "--case", "zero-sum")])
def test_zero_budget_rejected(capsys, flag, command):
    code, out, err = run(capsys, flag, "0", *command)
    assert code == 1 and out == ""
    assert "budget bounds must be positive" in err


def test_regression_keeps_the_cases_own_word_cap(capsys):
    # overriding the ball size alone leaves each case's word cap (here up
    # to 30 for <a, b | ab = ba^3>) in place
    code, out, _ = run(capsys, "--budget-ball", "100000", "regression",
                       "--case", "length-set-family")
    assert code == 0 and "lower-bound" not in out and "FAIL" not in out
    # and the ball size reaches the parametric families too
    code, out, _ = run(capsys, "--budget-ball", "1", "regression",
                       "--case", "length-set-family")
    assert code == 2 and "lower-bound" in out and "FAIL" not in out


def test_regression_passes_only_the_given_fields(monkeypatch, capsys):
    from factorum import regression
    seen = []
    monkeypatch.setitem(regression.CASES, "aba_ba3bc",
                        lambda budget: seen.append(budget) or [])
    run(capsys, "--budget-ball", "200000", "regression", "--case", "aba_ba3bc")
    run(capsys, "--budget-len", "20", "regression", "--case", "aba_ba3bc")
    assert seen == [BudgetOverride(None, 200_000), BudgetOverride(20, None)]
    # the case's own word cap for aba_ba3bc is 36, and its ball size 200,000
    assert [regression._budget(b, 36, 200_000) for b in seen] == [
        ExplorationBudget(36, 200_000), ExplorationBudget(20, 200_000)]


@pytest.mark.parametrize("argv,message", [
    (("--no-such-option", "parse", pres_path("abc_cb")), "unrecognized"),
    (("catenary", pres_path("abc_cb"), "--element", "a b c",
      "--budget-len", "1"), "unrecognized"),
    (("lengths", pres_path("abc_cb")), "required"),
    (("zss", "--group", "2", "bogus"), "invalid choice"),
    (("catenary", pres_path("abc_cb"), "--kind", "bogus"), "invalid choice"),
    # options that contradict each other
    (("catenary", pres_path("abc_cb"), "--all", "--element", "a b c",
      "--max-length", "2"), "--element: not allowed with argument --all"),
    (("catenary", pres_path("abc_cb"), "--element", "", "--all"),
     "--all: not allowed with argument --element"),
    # an explicit bound equal to the sweep's default contradicts too
    (("omega", pres_path("ab_cd_cede_ba"), "--divisor", "a", "--element",
      "b a", "--max-length", "6"),
     "--max-length: not allowed with argument --element"),
    (("tame", pres_path("abc_de"), "--pattern", "a", "--max-length", "4",
      "--element", "d e"), "--element: not allowed with argument --max-length"),
    # checked after parsing, since --element is grouped with --all
    (("catenary", pres_path("abc_cb"), "--element", "a b c", "--max-length",
      "1"), "--max-length: not allowed with argument --element"),
    (("catenary", pres_path("abc_cb"), "--max-length", "3", "--element", ""),
     "--max-length: not allowed with argument --element"),
    (("catenary", "no-such-file.pres", "--element", "a", "--max-length", "2"),
     "--max-length: not allowed with argument --element"),
])
def test_usage_errors_exit_one(capsys, argv, message):
    # exit code 2 is kept for partial results under an exhausted budget
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert message in err and "usage:" in err


@pytest.mark.parametrize("argv", [
    ("elements", pres_path("abc_cb"), "--max-length", "0"),
    ("atoms", pres_path("abc_cb"), "--max-length", "0"),
    ("catenary", pres_path("abc_cb"), "--all", "--max-length", "0"),
    ("omega", pres_path("ab_cd_cede_ba"), "--divisor", "a",
     "--max-length", "-1"),
    ("tame", pres_path("abc_de"), "--pattern", "a", "--max-length", "0"),
    # a sweep of nothing found no counterexample, and was called exact
    ("primelike", pres_path("aba_ba3bc"), "--atom", "c", "--max-length", "0"),
    ("check-wth", pres_path("abc_de"), "--max-length", "-1"),
    ("zss", "--group", "3", "catenary", "--max-len", "0"),
    ("zss", "--group", "3", "order-bound", "--max-len", "-1"),
], ids=lambda argv: argv[-3] if argv[0] == "zss" else argv[0])
def test_sweep_bound_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert f"must be >= 1, got {argv[-1]}" in err and "usage:" in err


@pytest.mark.parametrize("argv, swept", [
    (("omega", pres_path("ab_cd_cede_ba"), "--divisor", "a",
      "--max-length", "4"), 4),
    (("omega", pres_path("ab_cd_cede_ba"), "--divisor", "a", "--nonunits",
      "--max-length", "3"), 3),
    (("tame", pres_path("aba_bab"), "--pattern", "a", "--max-length", "5"),
     5),
    # the sweep stops at the budget's word cap, 12, and says so
    (("tame", pres_path("aba_bab"), "--pattern", "a", "--max-length", "30"),
     12),
], ids=["omega-atoms", "omega-nonunits", "tame", "tame-above-budget"])
def test_semigroup_values_note_their_scope(capsys, argv, swept):
    code, out, _ = run(capsys, "--format", "json", *argv)
    payload = json.loads(out)
    assert code == 2 and payload["certification"] == "lower-bound"
    assert ("semigroup-level value: certified lower bound over elements of "
            f"length <= {swept}") in payload["warnings"]


def write_pres(tmp_path, text):
    path = tmp_path / "p.pres"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("text,relations", [
    # a relation whose sides have equal exponent vectors stays, and the
    # next one keeps its orientation
    ("gens: a b c\nrel: a b = b a\nrel: a c c = b\n",
     ["a b = a b", "a c^2 = b"]),
    ("gens: a b c\nrel: a b = b a\nrel: a c = c a\nrel: a c c = b\n",
     ["a b = a b", "a c = a c", "a c^2 = b"]),
], ids=["one-commutation", "two-commutations"])
def test_abelianize_prints_every_relation_as_given(capsys, tmp_path, text,
                                                   relations):
    code, out, _ = run(capsys, "--format", "json", "abelianize",
                       write_pres(tmp_path, text))
    assert code == 0 and json.loads(out)["value"]["relations"] == relations


def test_check_wth_reports_non_cancellative_abelianization(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "check-wth",
                       write_pres(tmp_path, "gens: a b c\nrel: a c = b c\n"))
    value = json.loads(out)["value"]
    assert value["abelianization_cancellative_within_budget"] is False


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state(capsys):
    a = ("--format", "json", "--budget-len", "5", "lengths",
         pres_path("abc_cb"), "--element", "a b c")
    b = ("--budget-len", "7", "catenary", pres_path("ab_cd"), "--kind",
         "rigid", "--element", "a b")
    first = run(capsys, *a)
    other = run(capsys, *b)
    assert run(capsys, *a) == first != other
    assert json.loads(first[1])["budget"]["max_word_length"] == 5
    # a usage error in between changes nothing either
    with pytest.raises(SystemExit) as exc:
        main(["lengths", pres_path("abc_cb"), "--z", "1"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run(capsys, *b) == other


def test_help_is_the_same_every_time(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: factorum" in texts[0]


NON_ADYAN_WARNING = \
    "presentation is not certified Adyan; cancellativity is assumed"


@pytest.mark.parametrize("command", [
    ["parse"], ["adyan"], ["elements", "--max-length", "3"],
    ["atoms", "--max-length", "3"], ["factorize", "--element", "a b"],
    ["lengths", "--element", "a b"],
    ["distance", "--element", "a b", "--z", "0", "--zprime", "1"],
    ["catenary", "--element", "a b"],
    ["omega", "--divisor", "b", "--element", "a b"],
    ["tame", "--pattern", "b", "--element", "a b"],
    ["primelike", "--atom", "b", "--max-length", "3"], ["abelianize"],
    ["check-wth", "--max-length", "3"],
], ids=lambda command: command[0])
def test_presentation_reports_carry_budget_and_warnings(capsys, tmp_path,
                                                        command):
    path = tmp_path / "non_adyan.pres"
    path.write_text("gens: a b\nrel: a b = b b\n")
    code, out, _ = run(capsys, "--format", "json", "--budget-len", "5",
                       command[0], str(path), *command[1:])
    # primelike finds no counterexample here, and a bounded sweep that
    # finds none is a lower bound
    assert code == (2 if command[0] == "primelike" else 0)
    payload = json.loads(out)
    assert payload["budget"] == {"max_ball_size": 100_000,
                                 "max_word_length": 5}
    assert NON_ADYAN_WARNING in payload["warnings"]


@pytest.mark.parametrize("argv, exit_code, expected", [
    (["zss", "--group", "2,4", "catenary"], 2,
     '{"budget": {}, "certification": "lower-bound", "invariant": '
     '"block-catenary(C2 + C4)", "schema": "factorum/1", "value": 3, '
     '"warnings": ["searched all zero-sum sequences of length <= 6", '
     '"classification value 4 for C2 + C4: computed bound below it", '
     '"swept G \\\\ {0} by Aut(G)-orbit (|Aut| = 8): c(0^k S) = c(S), and '
     'c is constant on orbits"], '
     '"witnesses": [{"element": "(0+1 0+1 0+2 0+2 0+3 0+3)"}]}\n'),
    (["catenary", pres_path("abc_cb"), "--kind", "perm", "--all",
      "--max-length", "5"], 2,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "lower-bound", "invariant": '
     '"catenary-permutable-plain-semigroup", "schema": "factorum/1", '
     '"value": 1, "warnings": ["semigroup-level value: certified lower '
     'bound over elements of length <= 5"], "witnesses": [{"bound": 1, '
     '"chain": [["a", "b", "c"], ["c", "b"]]}]}\n'),
    (["elements", pres_path("abc_cb"), "--max-length", "3"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "exact", "invariant": "elements", "schema": '
     '"factorum/1", "value": ["a", "b", "c", "a a", "a b", "a c", "b a", '
     '"b b", "b c", "c a", "c b", "c c", "a a a", "a a b", "a a c", "a b '
     'a", "a b b", "a c a", "a c b", "a c c", "b a a", "b a b", "b a c", '
     '"b b a", "b b b", "b b c", "b c a", "b c b", "b c c", "c a a", "c '
     'a b", "c a c", "c b a", "c b b", "c b c", "c c a", "c c b", "c c '
     'c"], "warnings": [], "witnesses": []}\n'),
    (["atoms", pres_path("abc_cb"), "--max-length", "3"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "exact", "invariant": "atoms", "schema": '
     '"factorum/1", "value": ["a", "b", "c"], "warnings": [], '
     '"witnesses": []}\n'),
    (["factorize", pres_path("aba_ba3bc"), "--element", "a b a"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 16}, '
     '"certification": "exact", "invariant": "rigid-factorizations", '
     '"schema": "factorum/1", "value": [["a", "b", "a"], ["b", "a", "a", '
     '"a", "b", "c"]], "warnings": [], "witnesses": []}\n'),
    (["lengths", pres_path("aba_ba3bc"), "--element", "a b a"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 16}, '
     '"certification": "exact", "invariant": "length-profile", "schema": '
     '"factorum/1", "value": {"delta": [3], "elasticity": "2/1", '
     '"lengths": [3, 6]}, "warnings": [], "witnesses": []}\n'),
    (["distance", pres_path("aba_ba3bc"), "--kind", "rigid", "--element",
      "a b a", "--z", "0", "--zprime", "1"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 16}, '
     '"certification": "exact", "invariant": "distance-rigid", "schema": '
     '"factorum/1", "value": 4, "warnings": [], "witnesses": [{"z": '
     '["a", "b", "a"], "zprime": ["b", "a", "a", "a", "b", "c"]}, '
     '{"alignment_blocks": [[0, 3, 1], [1, 4, 1]], "gap_costs": [3, '
     '1]}]}\n'),
    (["catenary", pres_path("abc_cb"), "--kind", "rigid", "--element",
      "a b c"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "exact", "invariant": "catenary-rigid-plain", '
     '"schema": "factorum/1", "value": 2, "warnings": [], "witnesses": '
     '[{"bound": 2, "chain": [["c", "b"], ["a", "b", "c"]]}]}\n'),
    (["omega", pres_path("ab_cd_cede_ba"), "--divisor", "a", "--element",
      "b a", "--nonunits"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 14}, '
     '"certification": "exact", "invariant": "omega-nonunits", "schema": '
     '"factorum/1", "value": 3, "warnings": [], "witnesses": '
     '[{"element": "b a", "min_k": 3, "parts": ["c", "e d", "e"], '
     '"subproduct_indices": [0, 1, 2]}]}\n'),
    (["omega", pres_path("ab_cd_cede_ba"), "--divisor", "a", "--max-length",
      "4"], 2,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 14}, '
     '"certification": "lower-bound", "invariant": '
     '"omega-atoms-semigroup", "schema": "factorum/1", "value": 2, '
     '"warnings": ["semigroup-level value: certified lower bound over '
     'elements of length <= 4"], "witnesses": [{"element": "a b", '
     '"min_k": 2, "parts": ["c", "d"], "subproduct_indices": [0, 1]}]}\n'),
    (["tame", pres_path("abc_de"), "--pattern", "a", "--element", "d e"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "exact", "invariant": "tame", "schema": '
     '"factorum/1", "value": 3, "warnings": [], "witnesses": '
     '[{"element": "d e", "from": ["d", "e"], "to": ["a", "b", "c"]}]}\n'),
    (["tame", pres_path("abc_de"), "--pattern", "a", "--max-length", "4"], 2,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "lower-bound", "invariant": "tame-semigroup", '
     '"schema": "factorum/1", "value": 3, "warnings": ["semigroup-level '
     'value: certified lower bound over elements of length <= 4"], '
     '"witnesses": [{"element": "d e", "from": ["d", "e"], "to": ["a", '
     '"b", "c"]}]}\n'),
    (["primelike", pres_path("aba_ba3bc"), "--atom", "c", "--max-length",
      "5"], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 16}, '
     '"certification": "exact", "invariant": "prime-like", "schema": '
     '"factorum/1", "value": {"almost_prime_like": false}, "warnings": '
     '[], "witnesses": [{"element": "a b a", "with": ["b", "a", "a", '
     '"a", "b", "c"], "without": ["a", "b", "a"]}]}\n'),
    (["primelike", pres_path("abc_cb"), "--atom", "b", "--max-length", "4"], 2,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "lower-bound", "invariant": "prime-like", '
     '"schema": "factorum/1", "value": {"almost_prime_like": true, '
     '"prime_like": true}, "warnings": ["prime-likeness: no '
     'counterexample among the explored elements of length <= 4"], '
     '"witnesses": []}\n'),
    (["primelike", pres_path("aba_ba3bc"), "--atom", "a", "--max-length",
      "4"], 2,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 16}, '
     '"certification": "lower-bound", "invariant": "prime-like", '
     '"schema": "factorum/1", "value": {"almost_prime_like": true, '
     '"prime_like": false}, "warnings": ["almost prime-likeness: no '
     'counterexample among the explored elements of length <= 4"], '
     '"witnesses": []}\n'),
    (["abelianize", pres_path("abc_de")], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "exact", "invariant": "abelianization", "schema": '
     '"factorum/1", "value": {"generators": ["a", "b", "c", "d", "e"], '
     '"reduced_within_budget": true, "relations": ["a b c = d e"]}, '
     '"warnings": [], "witnesses": []}\n'),
    (["check-wth", pres_path("abc_de")], 0,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "exact", "invariant": "check-wth", "schema": '
     '"factorum/1", "value": '
     '{"abelianization_cancellative_within_budget": true, '
     '"equiv_p_transitive": false, "weak_transfer_within_budget": '
     'false}, "warnings": ["cancellativity of the abelianization is '
     'assumed; a bounded necessary condition was checked"], "witnesses": '
     '[{"pair": ["d e", "e d"], "unliftable_multiset": ["a", "b", "c"]}, '
     '{"pair": ["d e", "a c b"], "unliftable_multiset": ["d", "e"]}, '
     '{"pair": ["d e", "b a c"], "unliftable_multiset": ["d", "e"]}, '
     '{"pair": ["d e", "b c a"], "unliftable_multiset": ["d", "e"]}, '
     '{"pair": ["d e", "c a b"], "unliftable_multiset": ["d", "e"]}]}\n'),
    (["check-wth", pres_path("a2b2"), "--max-length", "3"], 2,
     '{"budget": {"max_ball_size": 100000, "max_word_length": 12}, '
     '"certification": "lower-bound", "invariant": "check-wth", '
     '"schema": "factorum/1", "value": '
     '{"abelianization_cancellative_within_budget": true, '
     '"equiv_p_transitive": true, "weak_transfer_within_budget": true}, '
     '"warnings": ["cancellativity of the abelianization is assumed; a '
     'bounded necessary condition was checked", "the weak-transfer '
     'condition: no counterexample among the explored elements of length '
     '<= 3"], "witnesses": []}\n'),
    (["zss", "--group", "2,2", "atoms"], 0,
     '{"budget": {}, "certification": "exact", "invariant": '
     '"zss-atoms(C2 + C2)", "schema": "factorum/1", "value": ["(0+0)", '
     '"(0+1 0+1)", "(1+0 1+0)", "(1+1 1+1)", "(0+1 1+0 1+1)"], '
     '"warnings": [], "witnesses": []}\n'),
    (["zss", "--group", "2,2", "davenport"], 0,
     '{"budget": {}, "certification": "exact", "invariant": '
     '"davenport(C2 + C2)", "schema": "factorum/1", "value": 3, '
     '"warnings": [], "witnesses": []}\n'),
    (["order-bound", "--group", "4"], 0,
     '{"budget": {}, "certification": "exact", "invariant": '
     '"order-bound(C4)", "schema": "factorum/1", "value": {"bound": 4, '
     '"classification": "catenary degree = 4 exactly for this class '
     'group", "computed_catenary": 4}, "warnings": [], "witnesses": '
     '[]}\n'),
    (["tri", "--matrix", "2 5; 0 3", "factorize"], 0,
     '{"budget": {}, "certification": "exact", "invariant": '
     '"tri-factorizations", "schema": "factorum/1", "value": [["[1 0; 0 '
     '3]", "[2 5; 0 1]"], ["[2 1; 0 1]", "[1 1; 0 3]"]], "warnings": [], '
     '"witnesses": []}\n'),
    (["tri", "--matrix", "2 0; 0 1", "atom"], 0,
     '{"budget": {}, "certification": "exact", "invariant": "tri-atom", '
     '"schema": "factorum/1", "value": {"atom": true, "profile": '
     '{"position": 1, "prime": 2}}, "warnings": [], "witnesses": []}\n'),
    (["tri", "--matrix", "2 5; 0 3", "delta"], 0,
     '{"budget": {}, "certification": "exact", "invariant": "tri-delta", '
     '"schema": "factorum/1", "value": [2, 3], "warnings": [], '
     '"witnesses": []}\n'),
    (["mat", "--matrix", "4 1; 2 5", "snf"], 0,
     '{"budget": {}, "certification": "exact", "invariant": "mat-snf", '
     '"schema": "factorum/1", "value": {"C": [[18, 0], [0, 1]], "U": '
     '[[0, 1], [-1, 5]], "V": [[1, 0], [4, 1]]}, "warnings": [], '
     '"witnesses": []}\n'),
    (["mat", "--matrix", "4 1; 2 5", "atom"], 0,
     '{"budget": {}, "certification": "exact", "invariant": "mat-atom", '
     '"schema": "factorum/1", "value": {"abs_det": 18, "atom": false}, '
     '"warnings": [], "witnesses": []}\n'),
    (["mat", "--matrix", "4 1; 2 5", "lengths"], 0,
     '{"budget": {}, "certification": "exact", "invariant": '
     '"mat-lengths", "schema": "factorum/1", "value": {"delta": [], '
     '"elasticity": "1/1", "lengths": [3]}, "warnings": [], "witnesses": '
     '[]}\n'),
], ids=["zss-catenary", "catenary-all", "elements", "atoms", "factorize",
        "lengths", "distance-rigid", "catenary-element", "omega-element",
        "omega-sweep", "tame-element", "tame-sweep",
        "primelike-counterexample", "primelike-prime-like",
        "primelike-almost-prime-like", "abelianize",
        "check-wth-counterexample", "check-wth-none-found", "zss-atoms",
        "zss-davenport", "order-bound", "tri-factorize", "tri-atom",
        "tri-delta", "mat-snf", "mat-atom", "mat-lengths"])
def test_semigroup_catenary_json_is_unchanged(capsys, argv, exit_code,
                                              expected):
    # one whole report per command family, as the commands printed it
    # before they shared one report path
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert (code, out) == (exit_code, expected)
