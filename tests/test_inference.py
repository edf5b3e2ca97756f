from fractions import Fraction

import pytest

import credalplp as c

import fixtures as fx

F = Fraction


# ---------------------------------------------------------------------------
# total choices


def test_total_choices_binary_counting_order():
    g = fx.grd(fx.EXPR3)
    choices = list(c.total_choices(g))
    assert [ch.kept for ch in choices] == [
        (False, False),
        (True, False),
        (False, True),
        (True, True),
    ]
    assert all(ch.weight == F(1, 4) for ch in choices)


def test_total_choice_weights_sum_to_one():
    for text in fx.ALL_PROGRAMS.values():
        g = fx.grd(text)
        assert sum(ch.weight for ch in c.total_choices(g)) == 1


def test_total_choices_guard():
    g = fx.grd(fx.PATH)  # 7 choice points
    with pytest.raises(c.ResourceGuardError):
        list(c.total_choices(g, max_choices=6))


def test_total_choice_describe():
    g = fx.grd(fx.EXPR3)
    ch = list(c.total_choices(g))[1]
    assert ch.describe(g) == "{keep r, discard s}"
    assert str(ch) == "{10}"


def test_program_for_choice_adds_fact_rules():
    g = fx.grd(fx.EXPR3)
    ch = list(c.total_choices(g))[3]
    gc = c.program_for_choice(g, ch)
    facts = [r for r in gc.rules if not r.pos and not r.neg]
    assert {g.atoms[r.head] for r in facts} == {"r", "s"}
    assert c.least_model(c.reduct(gc, [True] * gc.n_atoms))[gc.atom_id("v")]


def test_credal_interval_rejects_bad_bounds():
    c.CredalInterval(F(0), F(1))
    for lower, upper in ((F(1, 2), F(1, 3)), (F(-1, 2), F(0)), (F(0), F(3, 2))):
        with pytest.raises(ValueError, match="lower <= upper"):
            c.CredalInterval(lower, upper)


# ---------------------------------------------------------------------------
# unconditional credal queries


def test_conjunction_of_independent_facts():
    g = fx.grd(fx.EXPR3)
    iv = fx.cred(g, "v")
    assert iv == c.CredalInterval(F(1, 4), F(1, 4))


def test_duplicate_facts_noisy_or():
    g = fx.grd(fx.DUPLICATE_FACTS)
    assert fx.cred(g, "r") == c.CredalInterval(F(4, 5), F(4, 5))
    assert fx.cred(g, "s(a)") == c.CredalInterval(F(11, 25), F(11, 25))
    assert fx.cred(g, "s(b)") == c.CredalInterval(F(3, 10), F(3, 10))
    assert fx.cred(g, "v") == c.CredalInterval(F(66, 625), F(66, 625))


def test_alarm_point_value():
    g = fx.grd(fx.ALARM)
    assert fx.cred(g, "calls(a)") == c.CredalInterval(F(29, 50), F(29, 50))


def test_wins_interval():
    g = fx.grd(fx.WINS)
    assert fx.cred(g, "wins(b)") == c.CredalInterval(F(7, 10), F(1))
    assert fx.cred(g, "wins(c)") == c.CredalInterval(F(3, 10), F(3, 10))


def test_dilbert_interval():
    g = fx.grd(fx.DILBERT)
    assert fx.cred(g, "single(dilbert)") == c.CredalInterval(F(0), F(9, 10))


def test_coloring_intervals():
    g = fx.grd(fx.COLORING)
    assert fx.cred(g, "color(1, yellow)") == c.CredalInterval(F(0), F(1, 2))
    assert fx.cred(g, "color(3, red)") == c.CredalInterval(F(1), F(1))
    assert fx.cred(g, "color(4, yellow)") == c.CredalInterval(F(1, 2), F(1))


def test_path_probability():
    g = fx.grd(fx.PATH)
    value = F(16932, 78125)
    assert fx.cred(g, "path(1, 6)") == c.CredalInterval(value, value)


def test_negated_query_atom():
    g = fx.grd(fx.WINS)
    iv = fx.cred(g, "wins(b)=false")
    assert iv == c.CredalInterval(F(0), F(3, 10))


def test_stats_counting():
    g = fx.grd(fx.EXPR3)
    stats = {}
    fx.cred(g, "v", stats=stats)
    assert stats == {"choices": 4, "models": 4}


def test_inconsistent_program_aborts_with_witness():
    g = fx.grd(fx.COLD)
    with pytest.raises(c.InconsistentProgramError) as exc:
        fx.cred(g, "cold")
    assert exc.value.description == "{discard a, keep b}"


def test_barber_inconsistency_witness():
    g = fx.grd(fx.BARBER)
    with pytest.raises(c.InconsistentProgramError) as exc:
        fx.cred(g, "shaves(b, a)")
    assert exc.value.description == "{keep villager(b)}"


# ---------------------------------------------------------------------------
# conditional credal queries


def test_conditional_interval():
    g = fx.grd(fx.PQR)
    iv = c.credal_conditional(g, fx.qevent("q"), fx.qevent("r=false"))
    assert iv == c.CredalInterval(F(0), F(1))


def test_conditional_tautological_evidence_reduces_to_unconditional():
    g = fx.grd(fx.WINS)
    for qtext in ("wins(b)", "wins(c)"):
        q = fx.qevent(qtext)
        taut = c.Or((c.Lit("wins(b)"), c.Lit("wins(b)", False)))
        assert c.credal_conditional(g, q, taut) == fx.cred(g, qtext)


def test_conditional_impossible_evidence_is_undefined():
    g = fx.grd(fx.EXPR3)
    e = c.And((c.Lit("r"), c.Lit("r", False)))
    assert c.credal_conditional(g, fx.qevent("v"), e) is c.UNDEFINED
    assert not c.UNDEFINED
    assert repr(c.UNDEFINED) == "Undefined"


def test_conditional_entailed_query():
    g = fx.grd(fx.EXPR3)
    iv = c.credal_conditional(g, fx.qevent("r"), fx.qevent("v"))
    assert iv == c.CredalInterval(F(1), F(1))


def test_conditional_refuted_query():
    g = fx.grd(fx.EXPR3)
    iv = c.credal_conditional(g, fx.qevent("v=false"), fx.qevent("v"))
    assert iv == c.CredalInterval(F(0), F(0))


def test_conditional_point_case():
    g = fx.grd(fx.ALARM)
    iv = c.credal_conditional(g, fx.qevent("burglary"), fx.qevent("alarm"))
    # P(burglary | alarm) = P(b and alarm) / P(alarm)
    pb_alarm = fx.cred(g, "burglary, alarm").lower
    p_alarm = fx.cred(g, "alarm").lower
    assert iv.lower == iv.upper == pb_alarm / p_alarm


# ---------------------------------------------------------------------------
# well-founded queries


def test_wf_game_undefined_mass():
    g = fx.grd(fx.WINS)
    assert fx.wfq(g, "wins(b)=undefined") == F(3, 10)
    assert fx.wfq(g, "wins(b)=true") == F(7, 10)
    assert fx.wfq(g, "wins(c)=true") == F(3, 10)


def test_wf_matches_credal_on_stratified():
    for name in ("expr3", "duplicate_facts", "alarm", "smokers", "path"):
        g = fx.grd(fx.ALL_PROGRAMS[name])
        atom = {
            "expr3": "v",
            "duplicate_facts": "v",
            "alarm": "calls(a)",
            "smokers": "smokes(a)",
            "path": "path(1, 6)",
        }[name]
        iv = fx.cred(g, atom)
        assert iv.lower == iv.upper == fx.wfq(g, atom)


def test_wf_barber():
    g = fx.grd(fx.BARBER)
    assert fx.wfq(g, "shaves(b, a)=true") == F(1)
    assert fx.wfq(g, "shaves(b, b)=undefined") == F(1, 2)
    assert fx.wfq(g, "shaves(b, b)=false") == F(1, 2)


def test_wf_conditional():
    g = fx.grd(fx.PQR)
    assert fx.wfq(g, "p=undefined", "r=false") == F(1)
    assert fx.wfq(g, "p=true", "r=true") == F(0)


def test_wf_conditional_impossible_evidence():
    g = fx.grd(fx.EXPR3)
    assert fx.wfq(g, "v=true", "v=true, r=false") is c.UNDEFINED


def test_wf_atom_distribution():
    g = fx.grd(fx.COLORING)
    dist = c.wf_atom_distribution(g, "color(1, yellow)")
    assert dist == c.WfDistribution(F(0), F(0), F(1))
    dist = c.wf_atom_distribution(g, "color(2, red)")
    assert dist == c.WfDistribution(F(1), F(0), F(0))
    d = c.wf_atom_distribution(g, "clash")
    assert d.p_true + d.p_false + d.p_undefined == 1


def test_wf_never_raises_on_inconsistent_programs():
    g = fx.grd(fx.COLD)
    assert fx.wfq(g, "cold=undefined") == F(33, 200)
    assert fx.wfq(g, "cold=true") == F(51, 200)
    assert fx.wfq(g, "cold=false") == F(29, 50)


# ---------------------------------------------------------------------------
# consistency checking


def test_check_consistency_positive():
    for name in ("expr3", "alarm", "wins", "coloring", "dilbert", "path"):
        assert c.check_consistency(fx.grd(fx.ALL_PROGRAMS[name])).consistent


def test_check_consistency_witnesses():
    g = fx.grd(fx.COLD)
    report = c.check_consistency(g)
    assert not report.consistent
    assert report.witness.describe(g) == "{discard a, keep b}"
    g = fx.grd(fx.BARBER)
    report = c.check_consistency(g)
    assert report.witness.describe(g) == "{keep villager(b)}"


def test_consistency_and_wf_distribution_count_into_stats():
    """Both count into ``stats`` as the other entry points do: every total
    choice and its one well-founded model; for a consistency check, the
    choices before the witness (all of them when there is none), each with
    the one stable model it stopped at, and a dict that already holds counts
    is added to."""
    inconsistent = 0
    for text in fx.ALL_PROGRAMS.values():
        g = fx.grd(text)
        n = 1 << len(g.choice_points)
        stats = {}
        c.wf_atom_distribution(g, g.atoms[0], stats=stats)
        assert stats == {"choices": n, "models": n}
        stats = {}
        report = c.check_consistency(g, stats=stats)
        solved = n
        if not report.consistent:
            solved = list(c.total_choices(g)).index(report.witness)
            inconsistent += 1
        assert stats == {"choices": solved, "models": solved}
        c.check_consistency(g, stats=stats)
        assert stats == {"choices": 2 * solved, "models": 2 * solved}
    assert inconsistent >= 2


# ---------------------------------------------------------------------------
# interval structure (spot checks; bulk property tests live elsewhere)


def test_event_bounds_tautology_and_contradiction():
    g = fx.grd(fx.WINS)
    taut = c.Or((c.Lit("wins(b)"), c.Lit("wins(b)", False)))
    contra = c.And((c.Lit("wins(b)"), c.Lit("wins(b)", False)))
    ivs = c.event_bounds(g, [taut, contra])
    assert ivs[0] == c.CredalInterval(F(1), F(1))
    assert ivs[1] == c.CredalInterval(F(0), F(0))


def test_conjugacy_spot_check():
    g = fx.grd(fx.WINS)
    e = fx.qevent("wins(b)")
    pos, neg = c.event_bounds(g, [e, c.Not(e)])
    assert pos.upper == 1 - neg.lower
    assert pos.lower == 1 - neg.upper


def test_two_monotonicity_spot_check():
    g = fx.grd(fx.COLORING)
    a = fx.qevent("color(1, yellow)")
    b = fx.qevent("color(3, red)")
    both, either, only_a, only_b = c.event_bounds(
        g, [c.And((a, b)), c.Or((a, b)), a, b]
    )
    assert both.lower + either.lower >= only_a.lower + only_b.lower
    assert both.upper + either.upper <= only_a.upper + only_b.upper


def test_missing_atoms_helper():
    g = fx.grd(fx.EXPR3)
    missing = c.missing_atoms(g, fx.qassign("v=true, nonsense(x)=false"))
    assert missing == ["nonsense(x)"]
