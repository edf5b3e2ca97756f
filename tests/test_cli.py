import contextlib
import io
import json

from fractions import Fraction as F

import pytest

from credalplp import cli, inference, models
from credalplp.cli import run

import fixtures as fx


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


def test_syntax_error_exit_code(plp, capsys):
    code, _, err = invoke(capsys, "check", plp("p :- ."))
    assert code == 1
    assert "ERROR" in err


def test_truncated_weight_is_one_error_line(plp, capsys):
    path = plp("1/")
    code, out, err = invoke(capsys, "check", path)
    assert (code, out, err) == (1, "", f"ERROR {path}:1:3 expected a denominator\n")


@pytest.mark.parametrize("text", ["²::p.", "² p."])
def test_unreadable_digit_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "prog.plp"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "check", str(path))
    assert (code, out, err) == (1, "", f"ERROR {path}:1:1 expected a number, found '²'\n")


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
        inference, "credal_unconditional",
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
    assert fx.grd(text).n_atoms > models.DEFAULT_EXHAUSTIVE_LIMIT
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
