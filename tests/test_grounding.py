from fractions import Fraction

import pytest

import credalplp as c
from credalplp.cli import run
from credalplp.grounding import program_constants

import fixtures as fx


def test_duplicate_facts_five_choice_points():
    g = fx.grd(fx.DUPLICATE_FACTS)
    assert len(g.choice_points) == 5
    texts = [g.atoms[cp.ground_atom] for cp in g.choice_points]
    assert texts == ["r", "r", "s(a)", "s(a)", "s(b)"]
    assert [cp.id for cp in g.choice_points] == [0, 1, 2, 3, 4]
    probs = [cp.prob for cp in g.choice_points]
    assert probs == [
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(1, 5),
        Fraction(3, 10),
        Fraction(3, 10),
    ]


def test_smokers_ground_rules_include_influence_instance():
    g = fx.grd(fx.SMOKERS)
    rule_texts = {
        (g.atoms[r.head], tuple(g.atoms[p] for p in r.pos)) for r in g.rules
    }
    assert ("smokes(a)", ("influences(b, a)", "smokes(b)")) in rule_texts


def test_nothing_possibly_true_drops_rule():
    g = fx.grd("q :- p.")
    assert g.rules == []
    assert g.atom_id("p") is None and g.atom_id("q") is None


def test_choice_atoms_always_interned():
    g = fx.grd("0.4::lonely.")
    assert g.atom_id("lonely") == 0
    assert g.rules == []


def test_empty_universe_injects_reserved_constant():
    p = c.parse_program("0.5::q(X).")
    assert program_constants(p) == ["u0"]
    g = c.ground(p)
    assert g.atoms == ["q(u0)"]


def test_unsafe_rule_grounds_head_variable_over_universe():
    # variable only in head and negative subgoal
    g = fx.grd("smokes(X) :- not stress(X). person(a). person(b). 0.5::stress(a).")
    assert g.atom_id("smokes(a)") is not None
    assert g.atom_id("smokes(b)") is not None


def test_resource_guard():
    with pytest.raises(c.ResourceGuardError):
        c.ground(c.parse_program(fx.COLORING), max_rules=5)


def test_ground_is_deterministic():
    a = c.dump_ground(fx.grd(fx.COLORING))
    b = c.dump_ground(fx.grd(fx.COLORING))
    assert a == b


def test_dump_format():
    dump = c.dump_ground(fx.grd(fx.EXPR3))
    lines = dump.splitlines()
    assert "atom 0 r" in lines
    assert any(line.startswith("rule ") for line in lines)
    assert "choice 0 0 1/2" in lines


# ---------------------------------------------------------------------------
# dependency graph


def test_smokers_positive_two_cycle():
    g = fx.grd(fx.SMOKERS)
    dg = c.dependency_graph(g)
    sa, sb = g.atom_id("smokes(a)"), g.atom_id("smokes(b)")
    assert (sa, sb, "positive") in dg.edges
    assert (sb, sa, "positive") in dg.edges


def test_pqr_negative_edges():
    g = fx.grd(fx.PQR)
    dg = c.dependency_graph(g)
    p, q, r = g.atom_id("p"), g.atom_id("q"), g.atom_id("r")
    assert (q, p, "negative") in dg.edges
    assert (r, p, "negative") in dg.edges
    assert (p, q, "negative") in dg.edges


def test_facts_only_graph_is_edgeless():
    g = fx.grd("a. b(c).")
    assert c.dependency_graph(g).edges == set()


# ---------------------------------------------------------------------------
# classification


def _check_witness(dg, witness):
    plain = {(s, d) for s, d, _ in dg.edges}
    for i, node in enumerate(witness):
        assert (node, witness[(i + 1) % len(witness)]) in plain


def test_alarm_is_acyclic():
    klass = c.classify(c.dependency_graph(fx.grd(fx.ALARM)))
    assert klass.kind == "acyclic"
    assert klass.witness is None


def test_smokers_is_stratified_with_witness():
    g = fx.grd(fx.SMOKERS)
    dg = c.dependency_graph(g)
    klass = c.classify(dg)
    assert klass.kind == "stratified"
    _check_witness(dg, klass.witness)


def test_pqr_is_general():
    g = fx.grd(fx.PQR)
    dg = c.dependency_graph(g)
    klass = c.classify(dg)
    assert klass.kind == "general"
    _check_witness(dg, klass.witness)
    # the witness cycle must pass through a negative edge
    plain = {(s, d): sign for s, d, sign in dg.edges if sign == "negative"}
    pairs = [
        (klass.witness[i], klass.witness[(i + 1) % len(klass.witness)])
        for i in range(len(klass.witness))
    ]
    assert any(pair in plain for pair in pairs)


def test_negative_self_loop_is_general():
    g = fx.grd("clash :- not clash, a. a.")
    klass = c.classify(c.dependency_graph(g))
    assert klass.kind == "general"
    assert klass.witness == [g.atom_id("clash")]


def test_classify_monotone_under_rule_addition():
    order = {"acyclic": 0, "stratified": 1, "general": 2}
    base = "a :- b. b :- c. c."
    additions = ["c :- a.", "c :- not a.", "d :- a.", "a :- not d. d."]
    kind0 = c.classify(c.dependency_graph(fx.grd(base))).kind
    for extra in additions:
        kind1 = c.classify(c.dependency_graph(fx.grd(base + " " + extra))).kind
        assert order[kind1] >= order[kind0]


# ---------------------------------------------------------------------------
# active-grounding soundness against a full-Herbrand oracle


def full_ground(program: c.Program) -> c.GroundProgram:
    """Independent oracle: ground over the entire Herbrand base, keeping
    every rule instance and every atom."""
    import itertools

    universe = program_constants(program)
    g = c.GroundProgram()
    arities: dict[str, int] = {}
    all_atoms = [rule.head for rule in program.rules]
    all_atoms += [sg.atom for rule in program.rules for sg in rule.body]
    all_atoms += [pf.atom for pf in program.prob_facts]
    for atom in all_atoms:
        arities[atom.predicate] = len(atom.args)
    for pred in sorted(arities):
        for combo in itertools.product(universe, repeat=arities[pred]):
            g.intern(pred + (f"({', '.join(combo)})" if combo else ""))
    for pf in program.prob_facts:
        varnames = sorted(pf.atom.variables())
        for combo in itertools.product(universe, repeat=len(varnames)):
            subst = dict(zip(varnames, combo))
            text = _subst_text(pf.atom, subst)
            g.choice_points.append(
                c.ChoicePoint(len(g.choice_points), g.intern(text), pf.prob)
            )
    for rule in program.rules:
        varnames = sorted(rule.variables())
        for combo in itertools.product(universe, repeat=len(varnames)):
            subst = dict(zip(varnames, combo))
            g.rules.append(
                c.GroundRule(
                    g.intern(_subst_text(rule.head, subst)),
                    tuple(
                        g.intern(_subst_text(sg.atom, subst))
                        for sg in rule.body
                        if not sg.negated
                    ),
                    tuple(
                        g.intern(_subst_text(sg.atom, subst))
                        for sg in rule.body
                        if sg.negated
                    ),
                )
            )
            if not rule.body:
                g.fact_atoms.add(g.atom_id(_subst_text(rule.head, subst)))
    return g


def _subst_text(atom, subst):
    args = [subst.get(t.name, t.name) if t.is_variable else t.name for t in atom.args]
    return atom.predicate + (f"({', '.join(args)})" if args else "")


def _model_dicts(g, models):
    return sorted(
        tuple(sorted((g.atoms[i], v) for i, v in enumerate(m) if v)) for m in models
    )


@pytest.mark.parametrize(
    "name",
    [
        "expr3", "duplicate_facts", "pqr", "pqr_det", "game", "wins",
        "barber_det", "barber", "dilbert", "cold", "smokers", "smokers_det",
        "cases", "alarm_short",
    ],
)
def test_active_grounding_preserves_models(name):
    program = c.parse_program(fx.ALL_PROGRAMS[name])
    active = c.ground(program)
    full = full_ground(program)
    assert full.n_atoms <= 200
    for choice in c.total_choices(active, max_choices=8):
        ga = c.program_for_choice(active, choice)
        gf = c.program_for_choice(full, choice)
        sm_active = _model_dicts(active, c.stable_models(ga))
        sm_full = _model_dicts(full, c.stable_models(gf))
        assert sm_active == sm_full  # omitted atoms are false everywhere
        wf_a = c.well_founded_model(ga)
        wf_f = c.well_founded_model(gf)
        for aid, text in enumerate(full.atoms):
            got = c.truth3_in(active, wf_a, text)
            assert got == wf_f[aid]


def test_long_positive_body_grounds_without_recursion(capsys, tmp_path):
    n = 1200
    body = ", ".join(f"p{i}" for i in range(n))
    text = f"q :- {body}.\n" + " ".join(f"p{i}." for i in range(n))
    g = c.ground(c.parse_program(text))
    (rule,) = [r for r in g.rules if g.atoms[r.head] == "q"]
    assert [g.atoms[a] for a in rule.pos] == [f"p{i}" for i in range(n)]
    path = tmp_path / "long.plp"
    path.write_text(text)
    assert run(["--no-timing", "query", str(path), "--q", "q"]) == 0
    assert "P = 1/1 (1)" in capsys.readouterr().out
