import contextlib
import io
import json
import os
import subprocess
import sys

from fractions import Fraction as F
from pathlib import Path

import pytest

import credalplp as c
from credalplp import cli, inference, models, oracle
from credalplp.cli import run

import fixtures as fx
from test_properties import count_replays


@pytest.fixture
def plp(tmp_path):
    def write(text, name="prog.plp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(plp, capsys):
    code, out, _ = invoke(capsys, "--no-timing", "check", plp(fx.ALARM))
    assert code == 0
    assert "ok: 6 rules, 5 probabilistic facts" in out


def test_check_reports_warnings(plp, capsys):
    code, out, _ = invoke(capsys, "--no-timing", "check", plp("0.5::v. v :- r. r."))
    assert code == 0
    assert "WARNING" in out and "disjointness" in out


def test_machine_check_is_one_json_object(plp, capsys):
    # the lint warnings go into the record, not onto lines before it
    text = "0.5::p(a). p(X) :- q(X). q(a)."
    path = plp(text)
    code, out, _ = invoke(capsys, "--mode", "machine", "--no-timing", "check", path)
    (diag,) = c.lint_program(c.parse_program(text), filename=path)
    assert code == 0 and json.loads(out) == {
        "command": "check", "rules": 2, "prob_facts": 1, "warnings": 1,
        "diagnostics": [{
            "level": "warning", "file": path, "line": 1, "col": 1, "message": diag.message,
        }],
    }
    code, out, _ = invoke(capsys, "--no-timing", "check", path)
    assert out == f"{diag}\nok: 2 rules, 1 probabilistic facts\n"


def test_syntax_error_exit_code(plp, capsys):
    code, _, err = invoke(capsys, "check", plp("p :- ."))
    assert code == 1
    assert "ERROR" in err


def test_truncated_weight_is_one_error_line(plp, capsys):
    path = plp("1/")
    code, out, err = invoke(capsys, "check", path)
    assert (code, out, err) == (1, "", f"ERROR {path}:1:3 expected a denominator\n")


@pytest.mark.parametrize("text", ["²::p.", "² p.", "p(٠٢). r :- p(٢)."])
def test_unreadable_digit_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "prog.plp"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "check", str(path))
    col, char = next((i + 1, ch) for i, ch in enumerate(text) if not ch.isascii())
    assert (code, out, err) == (1, "", f"ERROR {path}:1:{col} unexpected character {char!r}\n")


def test_unreadable_digit_in_a_query_is_one_error_line(plp, capsys):
    code, out, err = invoke(capsys, "query", plp("p(2)."), "--q", "p(٢)")
    assert (code, out, err) == (1, "", "ERROR <query>:1:3 unexpected character '٢'\n")


def test_missing_file_is_user_error(capsys):
    code, _, err = invoke(capsys, "check", "/nonexistent/x.plp")
    assert code == 1
    assert "error:" in err


def test_ground_stdout_and_file(plp, capsys, tmp_path):
    path = plp(fx.EXPR3)
    code, out, _ = invoke(capsys, "ground", path)
    assert code == 0 and out.startswith("atom 0 r\n")
    target = tmp_path / "dump.txt"
    code, out2, _ = invoke(capsys, "ground", path, "--out", str(target))
    assert code == 0 and out2 == ""
    assert target.read_text() == out


def test_classify_text(plp, capsys):
    code, out, _ = invoke(capsys, "--no-timing", "classify", plp(fx.ALARM))
    assert code == 0 and "classification: acyclic" in out
    code, out, _ = invoke(capsys, "--no-timing", "classify", plp(fx.PQR))
    assert "classification: general" in out and "witness cycle:" in out


def test_models_stable(plp, capsys):
    code, out, _ = invoke(
        capsys, "models", plp(fx.PQR), "--choice", "0", "--semantics", "stable"
    )
    assert code == 0
    blocks = out.strip().split("\n%%\n")
    assert sorted(blocks) == [
        "p=false\nq=true\nr=false",
        "p=true\nq=false\nr=false",
    ]


def test_models_wf(plp, capsys):
    code, out, _ = invoke(
        capsys, "models", plp(fx.PQR), "--choice", "1", "--semantics", "wf"
    )
    assert code == 0
    assert out.strip() == "p=false\nq=true\nr=true"


def test_models_bad_choice_bits(plp, capsys):
    code, _, err = invoke(capsys, "models", plp(fx.PQR), "--choice", "01")
    assert code == 1 and "--choice needs 1 bits" in err


def test_models_without_a_model_print_nothing(plp, capsys):
    # no stable model is no output; one model over no atoms is an empty line
    code, out, err = invoke(capsys, "models", plp("p :- not p."), "--choice", "")
    assert (code, out, err) == (0, "", "")
    code, out, err = invoke(capsys, "models", plp(""), "--choice", "")
    assert (code, out, err) == (0, "\n", "")


def test_query_auto_point(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.ALARM), "--q", "calls(a)"
    )
    assert code == 0
    assert "semantics: point" in out
    assert "P = 29/50 (0.58)" in out


def test_query_auto_refuses_general(plp, capsys):
    code, _, err = invoke(capsys, "query", plp(fx.PQR), "--q", "p")
    assert code == 1 and "pick --semantics" in err


def test_query_credal_interval(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.WINS),
        "--q", "wins(b)", "--semantics", "credal",
    )
    assert code == 0
    assert "P in [7/10, 1/1] (0.7, 1)" in out


def test_query_wf(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.WINS),
        "--q", "wins(b)=undefined", "--semantics", "wf",
    )
    assert code == 0 and "P = 3/10 (0.3)" in out


def test_query_undefined_assignment_needs_wf(plp, capsys):
    code, _, err = invoke(
        capsys, "query", plp(fx.WINS),
        "--q", "wins(b)=undefined", "--semantics", "credal",
    )
    assert code == 1 and "only valid with --semantics wf" in err


def test_query_conditional_undefined_result(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.EXPR3),
        "--q", "v", "--e", "v=true, r=false", "--semantics", "credal",
    )
    assert code == 0 and "result: undefined" in out


def test_query_machine_mode(plp, capsys):
    code, out, _ = invoke(
        capsys, "--mode", "machine", "--no-timing", "query", plp(fx.WINS),
        "--q", "wins(b)", "--semantics", "credal",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"] == {
        "type": "interval",
        "lower": "7/10",
        "upper": "1/1",
        "lower_decimal": "0.7",
        "upper_decimal": "1",
    }
    assert record["classification"] == "general"
    assert record["total_choices"] == 2
    assert record["choices_visited"] == 2
    assert record["models_visited"] == 3


def test_gamma_decision(plp, capsys):
    path = plp(fx.ALARM)
    code, out, _ = invoke(
        capsys, "--no-timing", "query", path, "--q", "calls(a)", "--gamma", "1/2"
    )
    assert code == 0 and "decision: YES" in out
    code, out, _ = invoke(
        capsys, "--no-timing", "query", path, "--q", "calls(a)", "--gamma", "0.58"
    )
    assert "decision: NO" in out  # not strictly greater


def test_gamma_no_on_undefined(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.EXPR3),
        "--q", "v", "--e", "v=true, r=false",
        "--semantics", "credal", "--gamma", "0",
    )
    assert code == 0 and "decision: NO" in out


def test_gamma_credal_uses_lower_bound(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.WINS),
        "--q", "wins(b)", "--semantics", "credal", "--gamma", "0.8",
    )
    # upper is 1 but the decision compares the lower bound 0.7
    assert code == 0 and "decision: NO" in out


def test_query_missing_atom_warns(plp, capsys):
    code, out, err = invoke(
        capsys, "--no-timing", "query", plp(fx.EXPR3),
        "--q", "typo", "--semantics", "credal",
    )
    assert code == 0
    assert "WARNING query atom typo" in err
    assert "P in [0/1, 0/1]" in out


def test_query_and_evidence_read_integer_constants_by_value(plp, capsys):
    code, out, err = invoke(
        capsys, "--no-timing", "query", plp("0.5::p(01). r :- p(1)."),
        "--q", "r, p(001)", "--e", "p(1)", "--semantics", "wf",
    )
    assert (code, err) == (0, "")
    assert "P = 1/1 (1)" in out


def test_query_inconsistent_exit_code(plp, capsys):
    code, _, err = invoke(
        capsys, "query", plp(fx.COLD), "--q", "cold", "--semantics", "credal"
    )
    assert code == 3
    assert "{discard a, keep b}" in err


def test_query_cross_check(plp, capsys):
    code, out, _ = invoke(
        capsys, "--no-timing", "query", plp(fx.WINS),
        "--q", "wins(b)", "--semantics", "credal", "--cross-check",
    )
    assert code == 0 and "P in [7/10, 1/1]" in out


def test_consistency_ok(plp, capsys):
    code, out, _ = invoke(capsys, "--no-timing", "consistency", plp(fx.WINS))
    assert code == 0 and "consistent: yes" in out


def test_consistency_witness_exit_3(plp, capsys):
    code, out, _ = invoke(capsys, "--no-timing", "consistency", plp(fx.COLD))
    assert code == 3
    assert "consistent: no" in out
    assert "witness: {discard a, keep b}" in out


def test_main_exits_with_the_exit_code_of_run(plp):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "credalplp.cli", "--no-timing", "consistency", plp(fx.COLD)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 3 and "consistent: no" in result.stdout


def test_export_bn(plp, capsys, tmp_path):
    path = plp(fx.ALARM)
    code, out, _ = invoke(capsys, "export-bn", path)
    assert code == 0 and out.startswith("node burglary\n")
    target = tmp_path / "bn.txt"
    invoke(capsys, "export-bn", path, "--out", str(target))
    assert target.read_text() == out


def test_export_bn_rejects_cyclic(plp, capsys):
    code, _, err = invoke(capsys, "export-bn", plp(fx.SMOKERS))
    assert code == 1 and "cycle" in err


@pytest.mark.parametrize("command", ["ground", "export-bn"])
def test_dump_to_a_redirected_stdout(plp, tmp_path, command):
    """Library callers capture output with `contextlib.redirect_stdout`, whose
    target need not have a binary `buffer`."""
    path = plp(fx.ALARM)
    target = tmp_path / "dump.txt"
    assert run([command, path, "--out", str(target)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([command, path])
    assert code == 0 and out.getvalue().encode() == target.read_bytes()


@pytest.mark.parametrize(
    "text,argv",
    [("0.5::v. v :- r. r.", ["check"]), (fx.ALARM, ["query", "--q", "calls(a)"])],
    ids=["check", "query"],
)
def test_byte_order_mark_is_skipped(tmp_path, capsys, text, argv):
    path = tmp_path / "prog.plp"
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode())
        outputs.append(invoke(capsys, "--no-timing", argv[0], str(path), *argv[1:]))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


def test_resource_guard_exit_code(plp, capsys):
    code, _, err = invoke(
        capsys, "--max-choices", "3", "query", plp(fx.ALARM),
        "--q", "calls(a)", "--semantics", "credal",
    )
    assert code == 2 and "resource guard" in err
    code, _, err = invoke(
        capsys, "--max-ground-rules", "2", "ground", plp(fx.ALARM)
    )
    assert code == 2


def test_env_var_caps(plp, capsys, monkeypatch):
    monkeypatch.setenv("CREDALPLP_MAX_CHOICES", "3")
    code, _, err = invoke(
        capsys, "query", plp(fx.ALARM), "--q", "calls(a)", "--semantics", "credal"
    )
    assert code == 2
    # explicit flag wins over the environment
    code, out, _ = invoke(
        capsys, "--no-timing", "--max-choices", "5", "query", plp(fx.ALARM),
        "--q", "calls(a)", "--semantics", "credal",
    )
    assert code == 0


@pytest.mark.parametrize(
    "name", ["CREDALPLP_MAX_CHOICES", "CREDALPLP_MAX_GROUND_RULES"]
)
def test_env_var_caps_must_be_integers(plp, capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code, out, err = invoke(
        capsys, "query", plp(fx.ALARM), "--q", "calls(a)", "--semantics", "credal"
    )
    assert code == 1 and out == ""
    assert err == f"error: {name} must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "flag, exit_at_zero",
    [("--max-choices", 2), ("--max-ground-rules", 2), ("--oracle-limit", 0)],
)
def test_negative_cap_flags_are_user_errors(plp, capsys, flag, exit_at_zero):
    def argv(value):
        query = ["query", plp(fx.ALARM), "--q", "calls(a)", "--cross-check"]
        if flag == "--oracle-limit":
            return query + [flag, value]
        return [flag, value] + query

    code, out, err = invoke(capsys, *argv("-1"))
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be non-negative, got -1\n"
    # 0 is a valid cap: ALARM exceeds the first two, and skips the cross-check
    assert invoke(capsys, *argv("0"))[0] == exit_at_zero


@pytest.mark.parametrize(
    "flag", ["--max-choices", "--max-ground-rules", "--oracle-limit"]
)
@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_malformed_cap_flags_are_one_line_user_errors(plp, capsys, flag, value):
    query = ["query", plp(fx.ALARM), "--q", "calls(a)", "--cross-check"]
    argv = query + [flag, value] if flag == "--oracle-limit" else [flag, value] + query
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be an integer, got {value!r}\n"


@pytest.mark.parametrize(
    "name", ["CREDALPLP_MAX_CHOICES", "CREDALPLP_MAX_GROUND_RULES"]
)
def test_negative_env_var_caps_are_user_errors(plp, capsys, monkeypatch, name):
    argv = ("query", plp(fx.ALARM), "--q", "calls(a)", "--semantics", "credal")
    monkeypatch.setenv(name, "-2")
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {name} must be non-negative, got -2\n"
    monkeypatch.setenv(name, "0")  # valid, and ALARM exceeds it
    code, _, err = invoke(capsys, *argv)
    assert code == 2 and err.startswith("resource guard:")


def test_parser_is_built_once_and_each_run_reads_its_environment(
    plp, capsys, monkeypatch
):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    monkeypatch.delenv("CREDALPLP_MAX_CHOICES", raising=False)
    monkeypatch.delenv("CREDALPLP_MAX_GROUND_RULES", raising=False)
    query = ("query", plp(fx.ALARM), "--q", "calls(a)", "--semantics", "credal")
    try:
        assert invoke(capsys, "--no-timing", *query)[0] == 0
        monkeypatch.setenv("CREDALPLP_MAX_CHOICES", "3")
        assert invoke(capsys, *query)[0] == 2
        assert invoke(capsys, "--no-timing", "--max-choices", "5", *query)[0] == 0
        monkeypatch.setenv("CREDALPLP_MAX_CHOICES", "x")
        assert invoke(capsys, "--max-choices", "5", *query) == (
            1, "", "error: CREDALPLP_MAX_CHOICES must be an integer, got 'x'\n"
        )
        monkeypatch.delenv("CREDALPLP_MAX_CHOICES")
        monkeypatch.setenv("CREDALPLP_MAX_GROUND_RULES", "2")
        assert invoke(capsys, "ground", plp(fx.ALARM))[0] == 2
        monkeypatch.delenv("CREDALPLP_MAX_GROUND_RULES")
        assert invoke(capsys, "--no-timing", *query)[0] == 0
        assert invoke(capsys, "ground", plp(fx.ALARM))[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_point_semantics_rejects_an_interval(plp, capsys, monkeypatch):
    monkeypatch.setattr(
        inference, "credal_conditional",
        lambda *args, **kwargs: inference.CredalInterval(F(0), F(1)),
    )
    code, out, err = invoke(capsys, "query", plp(fx.ALARM), "--q", "calls(a)")
    assert code == 1 and out == ""
    assert err.startswith("error: acyclic program gave the interval [0/1, 1/1]")
    assert err.count("\n") == 1


def test_byte_identical_output_without_timing(plp, capsys):
    path = plp(fx.WINS)
    argv = ("--no-timing", "query", path, "--q", "wins(b)", "--semantics", "credal")
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    assert out1 == out2


def test_timing_field_present_by_default(plp, capsys):
    code, out, _ = invoke(capsys, "check", plp(fx.EXPR3))
    assert code == 0 and "timing_ms:" in out


def test_help_exits_zero(capsys):
    assert run(["--help"]) in (0,)


@pytest.mark.parametrize("gamma", ["1/0", "abc", "3/2"])
def test_bad_gamma_is_a_user_error_before_the_sweep(plp, capsys, gamma):
    # COLD is inconsistent: reaching the sweep would exit 3
    code, out, err = invoke(
        capsys, "query", plp(fx.COLD), "--q", "cold",
        "--semantics", "credal", "--gamma", gamma,
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("gamma", ["1e-99999999", "1e3", "1_0"])
def test_gamma_outside_the_weight_grammar_is_refused_at_once(plp, gamma):
    # in a subprocess, so that a text whose value takes unbounded time to
    # build fails the timeout instead of hanging the suite
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "credalplp.cli", "query", plp(fx.ALARM),
         "--q", "calls(a)", "--gamma", gamma],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == f"error: {gamma!r} is not a number D, D.D or D/D\n"


def test_gamma_past_the_int_digit_limit_is_one_error_line(plp, capsys):
    """A ``--gamma`` the weight grammar accepts but ``int()`` refuses (more
    than 4300 digits) gets the parser's wording, not Python's advice."""
    code, out, err = invoke(
        capsys, "query", plp(fx.ALARM), "--q", "calls(a)",
        "--gamma", "0." + "0" * 5000 + "1",
    )
    assert code == 1 and out == ""
    assert err == "error: too many digits in a weight\n"


def test_empty_query_is_the_sure_event(plp, capsys):
    code, out, _ = invoke(capsys, "--no-timing", "query", plp(fx.EXPR3), "--q", "")
    assert code == 0 and out.splitlines()[2] == "P = 1/1 (1)"


def test_trailing_query_input_is_a_user_error(plp, capsys):
    code, out, err = invoke(capsys, "query", plp(fx.EXPR3), "--q", "b a")
    assert code == 1 and out == ""
    assert err == "ERROR <query>:1:3 unexpected trailing input 'a'\n"


def test_cross_check_leaves_output_unchanged(plp, capsys):
    path = plp(fx.WINS)
    for semantics, q in (("credal", "wins(b)"), ("wf", "wins(b)=undefined")):
        argv = ["--no-timing", "query", path, "--q", q, "--semantics", semantics]
        plain = invoke(capsys, *argv)
        assert plain[0] == 0
        assert invoke(capsys, *argv, "--cross-check") == plain


def test_cross_check_mismatch_is_a_user_error(plp, capsys, monkeypatch):
    real = models.stable_models
    monkeypatch.setattr(
        models, "stable_models", lambda k, facts=(): list(real(k, facts))[:-1]
    )
    code, out, err = invoke(
        capsys, "query", plp(fx.WINS), "--q", "wins(b)",
        "--semantics", "credal", "--cross-check",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: cross-check") and err.count("\n") == 1


def empty_seeded_gamma(monkeypatch, facts: int) -> None:
    """Make ``models._load`` seed an empty Γ(∅) each time it loads the
    facts (a mask) ``facts`` in place of others."""
    real = models._load

    def corrupted(g, loaded):
        gammas = getattr(g, "gammas", None)
        k = real(g, loaded)
        if k.gammas is not gammas and k.fact_mask == facts:
            k.gammas[0] = 0
        return k

    monkeypatch.setattr(models, "_load", corrupted)


def test_cross_check_searches_from_the_carried_least_models(plp, capsys, monkeypatch):
    """The cross-check checks the search the answers come from, seeded by
    ``models._load``: an empty Γ(∅) seeded for the first total choice is
    seen."""
    empty_seeded_gamma(monkeypatch, 0)
    code, out, err = invoke(
        capsys, "query", plp(fx.WINS), "--q", "wins(b)",
        "--semantics", "credal", "--cross-check",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: cross-check: ") and err.count("\n") == 1


def test_cross_check_checks_well_founded_models_past_the_oracle_limit(
    plp, capsys, monkeypatch
):
    """Where ``--oracle-limit`` skips the stable-model oracle, every total
    choice's well-founded model is still checked: an empty Γ(∅) seeded for
    the second total choice, which keeps only the first choice point's atom,
    is seen."""
    argv = [
        "query", plp(fx.WINS), "--q", "wins(b)", "--semantics", "wf",
        "--cross-check", "--oracle-limit", "2",
    ]
    assert invoke(capsys, *argv)[0] == 0
    second = 1 << fx.grd(fx.WINS).choice_points[0].ground_atom
    empty_seeded_gamma(monkeypatch, second)
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    skipped, error = err.splitlines()
    assert skipped.startswith("WARNING cross-check skipped: ")
    assert error == (
        "error: cross-check: the well-founded model of total choice "
        "{keep move(c, d)} differs from the alternating fixpoint"
    )


def test_cross_check_reads_the_kept_atoms_from_the_choice(plp, capsys, monkeypatch):
    """The oracle's facts come from each total choice itself, not from
    ``Kernel.kept_facts``: with those one kept atom short, the kernel
    answers for the wrong facts and the cross-check fails."""
    real = models.Kernel.kept_facts
    monkeypatch.setattr(
        models.Kernel, "kept_facts",
        lambda k, kept: (facts := real(k, kept)) & (facts - 1),
    )
    code, out, err = invoke(
        capsys, "query", plp(fx.WINS), "--q", "wins(b)", "--semantics", "credal",
        "--cross-check",
    )
    assert code == 1 and out == "" and err.startswith("error: cross-check: ")


@pytest.mark.parametrize("name", sorted(fx.ALL_PROGRAMS))
def test_well_founded_by_definition_matches_the_kernel(name):
    """The cross-check's alternating fixpoint (``oracle``), given each total
    choice's kept atoms as facts, agrees with the kernel's well-founded model."""
    g = fx.grd(fx.ALL_PROGRAMS[name])
    k = models.Kernel(g)
    for choice in inference.total_choices(g):
        kept = [cp.ground_atom for cp, on in zip(g.choice_points, choice.kept) if on]
        facts = k.kept_facts(choice.kept)
        assert oracle.well_founded_model(g, kept) == models.well_founded_model(k, facts)


def test_cross_check_sees_a_fault_in_the_least_model_kernel(plp, capsys, monkeypatch):
    """The cross-check's definitions share no code with the kernel: with
    ``models._extend`` firing a rule while one body atom is still missing,
    ``c`` holds when ``a`` or ``b`` is kept (P = 3/4, where the right answer
    is 1/4), and the cross-check fails instead of printing it."""

    def early(k, missing, true, queue, false=0):
        while queue:
            aid = queue.pop()
            if false >> aid & 1 and not true >> aid & 1:
                return None
            if not true >> aid & 1:
                true |= 1 << aid
                for ri in k.pos_watch[aid]:
                    missing[ri] -= 1
                    if missing[ri] <= 1:  # one body atom early
                        queue.append(k.heads[ri])
        return true

    argv = ["--no-timing", "query", plp("0.5::a. 0.5::b. c :- a, b. d :- not c."), "--q", "c"]
    assert invoke(capsys, *argv, "--cross-check")[1].splitlines()[2] == "P = 1/4 (0.25)"
    monkeypatch.setattr(models, "_extend", early)
    assert invoke(capsys, *argv)[1].splitlines()[2] == "P = 3/4 (0.75)"
    code, out, err = invoke(capsys, *argv, "--cross-check")
    assert code == 1 and out == "" and err.startswith("error: cross-check: ")


# win-move with 10 probabilistic moves: 18 atoms, 8 of them under negation
GAME10 = """wins(X) :- move(X,Y), not wins(Y).
1/10::move(p0,p4).
1/5::move(p0,p5).
1/10::move(p0,p6).
1/2::move(p1,p7).
1/5::move(p2,p7).
1/10::move(p3,p5).
1/10::move(p4,p2).
1/2::move(p5,p1).
1/5::move(p6,p3).
3/10::move(p7,p0).
"""


def test_cross_check_finishes_on_a_game_at_the_default_limit(plp, capsys):
    argv = [
        "--no-timing", "query", plp(GAME10), "--q", "wins(p0)", "--e", "wins(p4)",
        "--semantics", "credal",
    ]
    plain = invoke(capsys, *argv)
    assert plain[0] == 0 and "choices_visited: 1024" in plain[1]
    code, out, err = invoke(capsys, *argv, "--cross-check")
    assert (code, out, err) == plain


def test_cross_check_meets_replayed_models_on_the_game_credal_pool(
    tmp_path, capsys, monkeypatch
):
    """The cross-check of a benchmark pool's query is where the models a
    kernel replays from its residual memo meet the brute-force oracle: a
    game-credal query of the seed-1 pool replays some, and passes; with each
    replay missing its last model, which no stability check can see, it
    fails."""
    counts, solve = count_replays(monkeypatch)
    monkeypatch.setattr(models, "stable_models", lambda k, facts=(): iter(solve(k, facts)))
    case = fx.cases("game-credal", 1)[0]
    path = tmp_path / "game.plp"
    path.write_text(case.render())
    argv = ["--no-timing", "query", str(path), *case.args, "--cross-check"]
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == "" and counts["replayed"] > 0

    class Lossy(dict):
        def get(self, key):
            found = dict.get(self, key)
            return found and found[:-1]

    real = models.Kernel.__init__

    def init(self, g):
        real(self, g)
        self.residuals = Lossy()

    monkeypatch.setattr(models.Kernel, "__init__", init)
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: cross-check: the stable models of total choice ")


def test_cross_check_skip_is_reported(plp, capsys):
    path = plp(fx.WINS)
    argv = ["--no-timing", "query", path, "--q", "wins(b)", "--semantics", "credal"]
    plain = invoke(capsys, *argv)
    code, out, err = invoke(capsys, *argv, "--cross-check", "--oracle-limit", "2")
    assert (code, out) == plain[:2]
    assert err == (
        "WARNING cross-check skipped: 3 negatively occurring atoms exceeds "
        "--oracle-limit 2\n"
    )
    # a choice cap breach is a resource guard, not a skipped cross-check
    code, out, err = invoke(
        capsys, "--max-choices", "0", *argv, "--cross-check", "--oracle-limit", "2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("resource guard: ") and "WARNING" not in err


def test_cross_check_runs_on_a_large_definite_program(plp, capsys):
    # no atom occurs negatively, so the oracle guesses one set per choice
    text = (
        "edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n5). edge(n5, n6).\n"
        "0.5::edge(n6, n1). 1/3::edge(n3, n1).\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
    )
    assert fx.grd(text).n_atoms > oracle.DEFAULT_EXHAUSTIVE_LIMIT
    argv = ["--no-timing", "query", plp(text), "--q", "path(n4, n2)"]
    plain = invoke(capsys, *argv)
    assert plain[0] == 0 and plain[2] == ""
    assert invoke(capsys, *argv, "--cross-check") == plain


def test_interrupt_exits_2_without_a_traceback(plp, capsys, monkeypatch):
    def interrupted(args, started):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "query", interrupted)
    code, out, err = invoke(capsys, "query", plp(fx.WINS), "--q", "wins(b)")
    assert (code, out, err) == (2, "", "interrupted\n")
