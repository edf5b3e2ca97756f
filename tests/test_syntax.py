from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import credalplp as c
from credalplp.syntax import _tokenize, format_rational

import fixtures as fx


def test_parse_expression3():
    p = c.parse_program(fx.EXPR3)
    assert len(p.prob_facts) == 2
    assert len(p.rules) == 1
    assert p.prob_facts[0].prob == Fraction(1, 2)
    rule = p.rules[0]
    assert rule.head.predicate == "v"
    assert [sg.atom.predicate for sg in rule.body] == ["r", "s"]


def test_parse_empty_program():
    p = c.parse_program("")
    assert p.rules == [] and p.prob_facts == []


def test_probability_out_of_range():
    # a fraction is reported whole, not by its numerator
    for weight in ("1.5", "3/2"):
        with pytest.raises(c.PlpSyntaxError) as exc:
            c.parse_program(f"{weight}::r.", filename="x.plp")
        diags = [str(d) for d in exc.value.diagnostics]
        assert diags == [f"ERROR x.plp:1:1 probability {weight} outside [0, 1]"]


def test_zero_denominator_in_a_weight():
    with pytest.raises(c.PlpSyntaxError) as exc:
        c.parse_program("1/0::p.", filename="x.plp")
    diags = [str(d) for d in exc.value.diagnostics]
    assert diags == ["ERROR x.plp:1:3 zero denominator"]


def test_fraction_probability_literal():
    p = c.parse_program("1/3::r.")
    assert p.prob_facts[0].prob == Fraction(1, 3)


def test_backslash_plus_negation():
    p = c.parse_program(r"q :- \+ p. p.")
    assert p.rules[0].body[0].negated


def test_comments_and_integer_constants():
    p = c.parse_program("% a comment\nedge(1, 2). % trailing\n")
    atom = p.rules[0].head
    assert atom.predicate == "edge"
    assert [t.name for t in atom.args] == ["1", "2"]
    assert all(not t.is_variable for t in atom.args)


def test_an_integer_constant_is_its_value():
    # leading zeros are dropped where an INT token becomes a constant
    p = c.parse_program("p(01). q(000). r :- p(1), q(0).")
    assert [str(rule.head) for rule in p.rules] == ["p(1)", "q(0)", "r"]
    g = c.ground(p)
    assert c.well_founded_model(g)[g.atom_id("r")] is True
    ((atom, _),) = c.parse_query("p(001)").q_assignments
    assert str(atom) == "p(1)"
    # past int()'s 4300-digit limit too
    (rule,) = c.parse_program(f"big(00{'9' * 5000}).").rules
    assert rule.head.args[0].name == "9" * 5000


def test_arity_mismatch_is_error():
    with pytest.raises(c.PlpSyntaxError) as exc:
        c.parse_program("p(a). p(a, b).")
    assert "arity" in str(exc.value)


def test_syntax_error_has_position():
    with pytest.raises(c.PlpSyntaxError) as exc:
        c.parse_program("p :- .")
    diag = exc.value.diagnostics[0]
    assert diag.level == "error"
    assert diag.line == 1 and diag.col >= 1


def test_token_positions_are_pinned():
    text = "% head\r\n0.25::a.\r\n1/2::b(1).\tc(X) :-\tb(X),\r\n  \\+ a. % to EOF"
    toks = [(t.kind, t.text, t.line, t.col) for t in _tokenize(text, "f")]
    assert toks == [
        ("DECIMAL", "0.25", 2, 1), ("PUNCT", "::", 2, 5), ("NAME", "a", 2, 7),
        ("PUNCT", ".", 2, 8),
        ("INT", "1", 3, 1), ("PUNCT", "/", 3, 2), ("INT", "2", 3, 3),
        ("PUNCT", "::", 3, 4), ("NAME", "b", 3, 6), ("PUNCT", "(", 3, 7),
        ("INT", "1", 3, 8), ("PUNCT", ")", 3, 9), ("PUNCT", ".", 3, 10),
        ("NAME", "c", 3, 12), ("PUNCT", "(", 3, 13), ("VAR", "X", 3, 14),
        ("PUNCT", ")", 3, 15), ("PUNCT", ":-", 3, 17), ("NAME", "b", 3, 20),
        ("PUNCT", "(", 3, 21), ("VAR", "X", 3, 22), ("PUNCT", ")", 3, 23),
        ("PUNCT", ",", 3, 24),
        ("NAME", "not", 4, 3), ("NAME", "a", 4, 6), ("PUNCT", ".", 4, 7),
        # the text ends inside a comment: EOF keeps the comment's column
        ("EOF", "", 4, 9),
    ]


@pytest.mark.parametrize(
    "text",
    [*fx.ALL_PROGRAMS.values(), "0.5::p. 1/2::q. r :- p, not q."],
    ids=[*fx.ALL_PROGRAMS, "weights"],
)
def test_truncated_programs_parse_or_raise_syntax_errors(text):
    for end in range(len(text) + 1):
        try:
            c.parse_program(text[:end])
        except c.PlpSyntaxError:
            pass


@pytest.mark.parametrize("text, col, message", [
    ("1", 2, "expected '::', found ''"),
    ("1/", 3, "expected a denominator"),
    ("1.", 2, "expected '::', found '.'"),
    ("0.5 p.", 5, "expected '::', found 'p'"),
])
def test_clause_starting_with_a_number_is_a_probabilistic_fact(text, col, message):
    with pytest.raises(c.PlpSyntaxError) as exc:
        c.parse_program(text)
    diag = exc.value.diagnostics[0]
    assert (diag.line, diag.col, diag.message) == (1, col, message)


@pytest.mark.parametrize("parse, text, col, message", [
    (c.parse_program, "p(a,", 5, "expected a term, found ''"),
    (c.parse_program, "p(a b)", 5, "expected ')', found 'b'"),
    (c.parse_program, "p :- q, .", 9, "expected an atom, found '.'"),
    (c.parse_query, "p=true, p=false", 9, "conflicting assignments for p"),
    (c.parse_query, "p q", 3, "unexpected trailing input 'q'"),
    (c.parse_query, "p=maybe", 3, "unknown truth value 'maybe'"),
    (c.parse_query, "p(X)", 1, "query atom p(X) is not ground"),
])
def test_malformed_lists_fail_where_they_go_wrong(parse, text, col, message):
    with pytest.raises(c.PlpSyntaxError) as exc:
        parse(text)
    diag = exc.value.diagnostics[0]
    assert (diag.line, diag.col, diag.message) == (1, col, message)


def test_query_assignments_keep_first_occurrence_order():
    p, q = c.Atom("p"), c.Atom("q")
    assert c.parse_query("p, q=false, p").q_assignments == [(p, "true"), (q, "false")]


@pytest.mark.parametrize("text, col, found", [
    ("²::p.", 1, "²"),
    ("² p.", 1, "²"),
    ("1/²::p.", 3, "²"),
    ("0.²::p.", 3, "²"),
])
def test_digits_no_number_reads_are_syntax_errors(text, col, found):
    # "²" passes str.isdigit, but numbers are read in ASCII digits only
    with pytest.raises(c.PlpSyntaxError) as exc:
        c.parse_program(text)
    diag = exc.value.diagnostics[0]
    assert (diag.line, diag.col, diag.message) == (1, col, f"unexpected character {found!r}")


@pytest.mark.parametrize("parse, text, found", [
    (c.parse_program, "p(²).", "²"),
    (c.parse_program, "p(٠٢). r :- p(٢).", "٠"),  # Arabic-Indic 02, then 2
    (c.parse_query, "p(٢)", "٢"),
])
def test_non_ascii_digits_are_no_constants(parse, text, found):
    with pytest.raises(c.PlpSyntaxError) as exc:
        parse(text)
    diag = exc.value.diagnostics[0]
    assert (diag.line, diag.col, diag.message) == (1, 3, f"unexpected character {found!r}")


def test_weight_past_the_int_digit_limit_is_a_syntax_error():
    with pytest.raises(c.PlpSyntaxError) as exc:
        c.parse_program(f"\n 0.{'0' * 5000}1::p.")
    diag = exc.value.diagnostics[0]
    assert (diag.line, diag.col, diag.message) == (2, 2, "too many digits in a weight")


def test_variables_upper_vs_lower():
    p = c.parse_program("q(X) :- r(X, a).")
    head, sub = p.rules[0].head, p.rules[0].body[0].atom
    assert head.args[0].is_variable
    assert sub.args[0].is_variable and not sub.args[1].is_variable


@pytest.mark.parametrize("name,text", sorted(fx.ALL_PROGRAMS.items()))
def test_round_trip_fixture(name, text):
    once = c.parse_program(text)
    twice = c.parse_program(c.format_program(once))
    assert once == twice
    assert c.format_program(once) == c.format_program(twice)


def test_format_contains_rule_text():
    out = c.format_program(c.parse_program(fx.EXPR3))
    assert "v :- r, s." in out


def test_format_empty():
    assert c.format_program(c.Program()) == ""


def test_programs_share_no_list():
    a, b = c.Program(), c.Program()
    a.rules.append(c.parse_program("p.").rules[0])
    a.prob_facts.append(c.parse_program("0.5::p.").prob_facts[0])
    assert b.rules == [] and b.prob_facts == []
    assert a != b and c.Program(list(a.rules), list(a.prob_facts)) == a
    assert b != [] and repr(b) == "Program(rules=[], prob_facts=[])"


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(3, 10), "0.3"),
        (Fraction(1, 2), "0.5"),
        (Fraction(1, 3), "1/3"),
        (Fraction(66, 625), "0.1056"),
        (Fraction(1), "1.0"),
        (Fraction(0), "0.0"),
        (Fraction(7, 40), "0.175"),
    ],
)
def test_format_rational(value, expected):
    assert format_rational(value) == expected


@given(st.integers(0, 10**6), st.integers(1, 10**6))
def test_format_rational_round_trips(num, den):
    value = Fraction(num, den)
    if value > 1:
        value = 1 / value
    assert Fraction(format_rational(value)) == value


@given(st.decimals(min_value=0, max_value=1, allow_nan=False, places=6))
def test_decimal_literals_parse_exactly(dec):
    # a k-digit decimal literal times 10^k must be an integer
    text = format(dec, "f")
    p = c.parse_program(f"{text}::r.")
    value = p.prob_facts[0].prob
    k = len(text.partition(".")[2])
    assert value * 10**k == int(round(float(dec) * 10**k)) or value == Fraction(text)
    assert value == Fraction(text)


def test_parse_query_simple():
    q = c.parse_query("calls(a)=true")
    assert [(str(a), v) for a, v in q.q_assignments] == [("calls(a)", "true")]


def test_parse_query_bare_atom_and_pairs():
    q = c.parse_query("wins(b)=true, wins(c)=false", evidence="alarm")
    assert [(str(a), v) for a, v in q.q_assignments] == [
        ("wins(b)", "true"),
        ("wins(c)", "false"),
    ]
    assert [(str(a), v) for a, v in q.e_assignments] == [("alarm", "true")]


def test_parse_query_non_ground_rejected():
    with pytest.raises(c.PlpSyntaxError):
        c.parse_query("smokes(X)")


def test_parse_query_unknown_truth_token():
    with pytest.raises(c.PlpSyntaxError):
        c.parse_query("p=maybe")


def test_parse_query_conflicting_duplicate():
    with pytest.raises(c.PlpSyntaxError):
        c.parse_query("p=true, p=false")
    q = c.parse_query("p=true, p=true")
    assert len(q.q_assignments) == 1


def test_disjointness_warning():
    p = c.parse_program("0.5::v. v :- r. r.")
    diags = c.lint_program(p)
    assert any(d.level == "warning" and "disjointness" in d.message for d in diags)
    # warnings never alter semantics
    assert p == c.parse_program("0.5::v. v :- r. r.")


def test_disjointness_warning_with_variables():
    p = c.parse_program("0.5::s(a). s(X) :- t(X). t(a).")
    assert c.lint_program(p)


def test_disjointness_warning_with_anonymous_variables():
    text = "0.5::p(a,b). p(_,_) :- q."
    program = c.parse_program(text)
    assert c.lint_program(program)
    assert c.lint_program(c.parse_program("0.5::p(a,b). p(X,X) :- q.")) == []
    assert c.format_program(program) == "0.5::p(a, b).\np(_, _) :- q.\n"
    assert c.parse_program(c.format_program(program)) == program


@pytest.mark.parametrize("rule", ["p(a) :- q.", "p(Y) :- q(Y)."])
def test_disjointness_warning_with_a_variable_in_the_fact(rule):
    diags = c.lint_program(c.parse_program(f"0.5::p(X). {rule}"), filename="x.plp")
    assert [str(d) for d in diags] == [
        f"WARNING x.plp:1:1 probabilistic fact p(X) unifies with the head of "
        f"rule '{rule}' (disjointness condition violated)"
    ]


def test_no_warning_when_disjoint():
    p = c.parse_program(fx.EXPR3)
    assert c.lint_program(p) == []


def test_diagnostic_format():
    diags = c.lint_program(c.parse_program("0.5::v. v :- r. r."), filename="x.plp")
    assert str(diags[0]).startswith("WARNING x.plp:1:1 ")


def test_diagnostic_reports_the_fact_position():
    text = "v :- r.\nr.\n0.5::v.\n  1/2::v.\n"
    program = c.parse_program(text)
    diags = c.lint_program(program, filename="x.plp")
    assert [(d.line, d.col) for d in diags] == [(3, 1), (4, 3)]
    assert str(diags[0]).startswith("WARNING x.plp:3:1 ")
    # positions are not part of a fact's identity
    again = c.parse_program(c.format_program(program))
    assert again == program
    assert [(pf.line, pf.col) for pf in again.prob_facts] == [(1, 1), (2, 1)]
    assert hash(again.prob_facts[0]) == hash(program.prob_facts[0])
    assert not again.prob_facts[0] != program.prob_facts[0]
    assert again.prob_facts[0] != tuple(again.prob_facts[0])
