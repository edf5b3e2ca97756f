import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import credalplp as c
from credalplp import grounding
from credalplp.cli import run

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
    g = c.ground(c.parse_program("0.5::q(X)."))
    assert g.atoms == ["q(u0)"]


def test_unsafe_rule_grounds_head_variable_over_universe():
    # variable only in head and negative subgoal
    g = fx.grd("smokes(X) :- not stress(X). person(a). person(b). 0.5::stress(a).")
    assert g.atom_id("smokes(a)") is not None
    assert g.atom_id("smokes(b)") is not None


def test_each_anonymous_variable_is_a_variable_of_its_own():
    g = fx.grd("e(a,b). q :- e(_, _).")
    assert fx.cred(g, "q") == c.CredalInterval(Fraction(1), Fraction(1))
    g = fx.grd("0.5::p(_, _). c(a). c(b).")
    texts = [g.atoms[cp.ground_atom] for cp in g.choice_points]
    assert texts == ["p(a, a)", "p(a, b)", "p(b, a)", "p(b, b)"]


@pytest.mark.parametrize("text", [
    "e(a,b). e(b,c). q(X) :- e(X, _), e(_, _), not e(_, X).",
    "0.5::e(a,b). 0.5::e(b,_). r(_, Y) :- e(_, Y), e(Y, _).",
    "e(a,b). e(b,c). q(X) :- e(X, _), not f(_B, X). 0.5::f(c, _).",
])
def test_anonymous_variables_ground_as_fresh_named_ones(text):
    # "_A<i>" sorts where "_" does, since no other variable starts with "_"
    parts = text.split("_")
    named = parts[0] + "".join(f"_A{i}{part}" for i, part in enumerate(parts[1:]))
    assert c.dump_ground(fx.grd(text)) == c.dump_ground(fx.grd(named))


def test_resource_guard():
    with pytest.raises(c.ResourceGuardError):
        c.ground(c.parse_program(fx.COLORING), max_rules=5)


def test_ground_is_deterministic():
    a = c.dump_ground(fx.grd(fx.COLORING))
    b = c.dump_ground(fx.grd(fx.COLORING))
    assert a == b


REACH_RULES = "path(X,Y) :- edge(X,Y).\npath(X,Z) :- edge(X,Y), path(Y,Z).\n"


def grid_program(side: int = 7) -> str:
    """Right and down edges of a side x side grid, two of them probabilistic."""
    uncertain = {("n23", "n24"): "1/3::", ("n41", "n51"): "0.75::"}
    lines = [REACH_RULES]
    for r, col in itertools.product(range(side), repeat=2):
        for r2, c2 in ((r, col + 1), (r + 1, col)):
            if r2 < side and c2 < side:
                u, v = f"n{r}{col}", f"n{r2}{c2}"
                lines.append(f"{uncertain.get((u, v), '')}edge({u},{v}).")
    return "\n".join(lines) + "\n"


def unreached_program(n: int = 8) -> str:
    """Reachability from n0 over a ring of certain and probabilistic edges,
    with the nodes it does not reach under negation."""
    lines = [REACH_RULES, "unreached(X) :- node(X), not path(n0,X)."]
    lines += [f"node(n{i})." for i in range(n)]
    lines += [f"edge(n{i},n{(i + 1) % n})." for i in range(0, n, 2)]
    lines += [f"0.5::edge(n{i},n{(i + 3) % n})." for i in range(1, n, 2)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, size, digest", [
    (grid_program(), (819, 1258, 2),
     "49de6eb2ac8dd19a72091a992dd84f7973e474be851458f2c1b27613e5903058"),
    (unreached_program(), (56, 60, 4),
     "93911ad78166964ffa503d00d22a7abbdd7b653a5df78a281de4c74ccc045073"),
], ids=["grid7", "unreached8"])
def test_dump_ground_golden(text, size, digest):
    # the dump bytes are pinned: a change to the grounder must keep them
    g = c.ground(c.parse_program(text))
    assert (g.n_atoms, len(g.rules), len(g.choice_points)) == size
    assert hashlib.sha256(c.dump_ground(g).encode()).hexdigest() == digest


def test_ground_rule_is_an_immutable_named_tuple():
    rule = c.GroundRule(1, (2,), ())
    assert repr(rule) == "GroundRule(head=1, pos=(2,), neg=())"
    assert rule == c.GroundRule(head=1, pos=(2,), neg=()) == (1, (2,), ())
    assert {rule: 0}[c.GroundRule(neg=(), pos=(2,), head=1)] == 0
    assert hash(rule) == hash((1, (2,), ()))
    with pytest.raises(AttributeError):
        rule.head = 3
    head, pos, neg = rule
    assert (head, pos, neg) == (rule.head, rule.pos, rule.neg) == (1, (2,), ())
    assert all(type(r) is c.GroundRule for r in fx.grd(fx.PQR).rules)


def test_atom_texts_read_back_through_parse_query():
    # a query atom finds its ground atom because both print as one text
    texts = list(fx.ALL_PROGRAMS.values())
    for workload in ("grid-ground", "reach-point", "game-credal"):
        texts += fx.pool(workload, 1)
    for text in texts:
        for atom in fx.grd(text).atoms:
            ((parsed, value),) = c.parse_query(atom).q_assignments
            assert (str(parsed), value) == (atom, "true")


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
    succ = c.dependency_graph(g)
    sa, sb = g.atom_id("smokes(a)"), g.atom_id("smokes(b)")
    assert (sb, False) in succ[sa]
    assert (sa, False) in succ[sb]


def test_pqr_negative_edges():
    g = fx.grd(fx.PQR)
    succ = c.dependency_graph(g)
    p, q, r = g.atom_id("p"), g.atom_id("q"), g.atom_id("r")
    assert (p, True) in succ[q]
    assert (p, True) in succ[r]
    assert (q, True) in succ[p]


def test_facts_only_graph_is_edgeless():
    g = fx.grd("a. b(c).")
    assert c.dependency_graph(g) == [[], []]


# ---------------------------------------------------------------------------
# classification


def _check_witness(succ, witness):
    plain = {(s, d) for s, edges in enumerate(succ) for d, _ in edges}
    for i, node in enumerate(witness):
        assert (node, witness[(i + 1) % len(witness)]) in plain


def test_alarm_is_acyclic():
    klass = c.classify(c.dependency_graph(fx.grd(fx.ALARM)))
    assert klass.kind == "acyclic"
    assert klass.witness is None


def test_smokers_is_stratified_with_witness():
    g = fx.grd(fx.SMOKERS)
    succ = c.dependency_graph(g)
    klass = c.classify(succ)
    assert klass.kind == "stratified"
    _check_witness(succ, klass.witness)


def test_pqr_is_general():
    g = fx.grd(fx.PQR)
    succ = c.dependency_graph(g)
    klass = c.classify(succ)
    assert klass.kind == "general"
    _check_witness(succ, klass.witness)
    # the witness cycle must pass through a negative edge
    negative = {(s, d) for s, edges in enumerate(succ) for d, negated in edges if negated}
    pairs = [
        (klass.witness[i], klass.witness[(i + 1) % len(klass.witness)])
        for i in range(len(klass.witness))
    ]
    assert any(pair in negative for pair in pairs)


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


def _reference_class(edges) -> tuple[str, list[int] | None]:
    """By reachability: an edge u -> v is on a cycle when u is reachable from
    v; the first such edge in sorted order, negative ones first, names the
    kind, and its witness is the breadth-first path v ~> u."""
    succ = {}
    for src, dst, _sign in sorted(edges):
        succ.setdefault(src, []).append(dst)

    def bfs_tree(start):
        prev, queue = {start: None}, collections.deque([start])
        while queue:
            x = queue.popleft()
            for y in succ.get(x, ()):
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        return prev

    on_cycle = [e for e in sorted(edges) if e[0] in bfs_tree(e[1])]
    if not on_cycle:
        return "acyclic", None
    negative = [e for e in on_cycle if e[2] == "negative"]
    u, v, sign = (negative or on_cycle)[0]
    prev = bfs_tree(v)
    path = [u]
    while path[-1] != v:
        path.append(prev[path[-1]])
    return ("general" if sign == "negative" else "stratified"), path[::-1]


def successors(n: int, edges) -> list[list[tuple[int, bool]]]:
    """The successor lists of nodes 0..n-1 over signed edges, in the form
    ``dependency_graph`` gives them."""
    succ = [[] for _ in range(n)]
    for src, dst, sign in edges:
        succ[src].append((dst, sign == "negative"))
    return succ


def test_classify_matches_reachability_reference_on_random_graphs():
    rng = random.Random(9)
    kinds = set()
    for _ in range(2000):
        n = rng.randint(1, 12)
        edges = {
            (rng.randrange(n), rng.randrange(n), rng.choice(("positive", "negative")))
            for _ in range(rng.randint(0, 2 * n))
        }
        klass = c.classify(successors(n, edges))
        assert (klass.kind, klass.witness) == _reference_class(edges)
        kinds.add(klass.kind)
    assert kinds == {"acyclic", "stratified", "general"}


def random_dag(rng: random.Random, n: int) -> set[tuple[int, int, str]]:
    """About 2n signed edges, each from an earlier to a later node of a
    random topological order, so the node numbers do not give the order."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for _ in range(2 * n):
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((order[i], order[j], rng.choice(("positive", "negative"))))
    return edges


def test_classify_matches_reachability_reference_on_large_dags():
    # the topological-order exit on graphs of 50-400 nodes, and the cyclic
    # path once one back edge closes a path of the graph into a cycle
    rng = random.Random(18)
    kinds = collections.Counter()
    for _ in range(16):
        n = rng.randint(50, 400)
        edges = random_dag(rng, n)
        succ = collections.defaultdict(list)
        for src, dst, _sign in sorted(edges):
            succ[src].append(dst)
        u = rng.choice(sorted(succ))
        w = u
        for _ in range(rng.randint(1, 12)):  # a random walk u ~> w
            if not succ[w]:
                break
            w = rng.choice(succ[w])
        back = {(w, u, rng.choice(("positive", "negative")))}
        for graph in (edges, edges | back):
            klass = c.classify(successors(n, graph))
            assert (klass.kind, klass.witness) == _reference_class(graph)
            kinds[klass.kind] += 1
    assert kinds["acyclic"] == 16
    assert kinds["stratified"] + kinds["general"] == 16
    assert kinds["stratified"] and kinds["general"]


@pytest.mark.parametrize("workload, kind", [
    ("grid-ground", "acyclic"), ("reach-point", "stratified"), ("game-credal", "general"),
])
def test_benchmark_pool_programs_keep_their_classes(workload, kind):
    for seed in (1, 2, 3):
        for text in fx.pool(workload, seed):
            assert c.classify(c.dependency_graph(fx.grd(text))).kind == kind


def test_classify_does_not_depend_on_rule_order():
    # each program's kind and witness again after its ground rules are
    # shuffled; each atom's successor list has one entry per body literal
    # over it, whatever the rule order
    rng = random.Random(27)
    texts = list(fx.ALL_PROGRAMS.values())
    for workload in ("grid-ground", "reach-point", "game-credal"):
        for seed in (1, 2, 3):
            texts += fx.pool(workload, seed)
    programs = [c.parse_program(text) for text in texts]
    programs += [random_relational_program(rng) for _ in range(300)]
    kinds = set()
    for program in programs:
        g = c.ground(program)
        rules = list(g.rules)
        rng.shuffle(rules)
        literals = [collections.Counter() for _ in range(g.n_atoms)]
        for head, pos, neg in g.rules:
            for atom in pos:
                literals[atom][head, False] += 1
            for atom in neg:
                literals[atom][head, True] += 1
        succ, moved = c.dependency_graph(g), c.dependency_graph(g.with_rules(rules))
        for graph in (succ, moved):
            assert [collections.Counter(edges) for edges in graph] == literals
        klass = c.classify(succ)
        assert c.classify(moved) == klass
        kinds.add(klass.kind)
    assert kinds == {"acyclic", "stratified", "general"}


def test_classify_long_cycle_and_chain_without_recursion():
    n = 20000
    cycle = {(i, (i + 1) % n, "positive") for i in range(n)}
    klass = c.classify(successors(n, cycle))
    assert klass.kind == "stratified"
    assert klass.witness == [*range(1, n), 0]
    chain = {(i, i + 1, "negative") for i in range(n - 1)}
    assert c.classify(successors(n, chain)).kind == "acyclic"


# ---------------------------------------------------------------------------
# active-grounding soundness against a full-Herbrand oracle


def herbrand_universe(program: c.Program) -> list[str]:
    """The reference grounders' universe: the constants the clauses mention,
    sorted, or the reserved constant ``u0`` when they mention none."""
    atoms = [pf.atom for pf in program.prob_facts]
    for rule in program.rules:
        atoms += [rule.head, *(sg.atom for sg in rule.body)]
    constants = {t.name for atom in atoms for t in atom.args if not t.is_variable}
    return sorted(constants) or ["u0"]


def full_ground(program: c.Program) -> c.GroundProgram:
    """Independent oracle: ground over the entire Herbrand base, keeping
    every rule instance and every atom."""
    import itertools

    universe = herbrand_universe(program)
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


def test_rule_cap_fires_during_the_fixpoint(capsys, tmp_path):
    # 40^4 possibly-true r atoms; each heads an emitted rule, so the cap
    # is known to be exceeded long before the fixpoint ends
    text = " ".join(f"c(k{i})." for i in range(40))
    text += "\nr(A, B, C, D) :- c(A), c(B), c(C), c(D).\n"
    with pytest.raises(c.ResourceGuardError, match="exceeds cap of 1000$"):
        c.ground(c.parse_program(text), max_rules=1000)
    path = tmp_path / "blowup.plp"
    path.write_text(text)
    assert run(["--max-ground-rules", "1000", "ground", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource guard: ground rule count exceeds cap of 1000\n"


def test_each_rule_instance_is_joined_once(monkeypatch):
    # the semi-naive rounds find every instance once, and emission joins no
    # rule again: as many substitutions as emitted rules (no duplicate rules)
    joined = 0
    match = grounding._match_positive

    def counting(*args):
        nonlocal joined
        for subst in match(*args):
            joined += 1
            yield subst

    monkeypatch.setattr(grounding, "_match_positive", counting)
    g = c.ground(c.parse_program(
        "path(X,Y) :- edge(X,Y). path(X,Z) :- edge(X,Y), path(Y,Z). "
        "edge(a,b). edge(b,c). 0.5::edge(c,a). edge(c,d)."
    ))
    assert len(g.rules) == 19 and joined == len(g.rules)


# ---------------------------------------------------------------------------
# indexed, semi-naive grounding against a naive reference grounder


def naive_ground(program: c.Program) -> c.GroundProgram:
    """Reference grounder: every rule instance over the whole Herbrand
    universe, a naive possibly-true fixpoint over those instances, then the
    emission of ``ground``: source order, substitutions in lexicographic
    order, negative literals over impossible atoms dropped, duplicates
    skipped."""
    universe = herbrand_universe(program)
    g = c.GroundProgram()
    possible = set()
    for pf in program.prob_facts:
        varnames = sorted(pf.atom.variables())
        for combo in itertools.product(universe, repeat=len(varnames)):
            text = _subst_text(pf.atom, dict(zip(varnames, combo)))
            g.choice_points.append(
                c.ChoicePoint(len(g.choice_points), g.intern(text), pf.prob)
            )
            possible.add(text)
    instances = []
    for rule in program.rules:
        varnames = sorted(rule.variables())
        for combo in itertools.product(universe, repeat=len(varnames)):
            subst = dict(zip(varnames, combo))
            texts = [
                [_subst_text(sg.atom, subst) for sg in rule.body if sg.negated == neg]
                for neg in (False, True)
            ]
            instances.append((_subst_text(rule.head, subst), *texts))
    changed = True
    while changed:
        changed = False
        for head, pos, _ in instances:
            if head not in possible and all(a in possible for a in pos):
                possible.add(head)
                changed = True
    seen = set()
    for head, pos, neg in instances:
        if not all(a in possible for a in pos):
            continue
        gr = c.GroundRule(
            g.intern(head),
            tuple(g.intern(a) for a in pos),
            tuple(g.intern(a) for a in neg if a in possible),
        )
        if gr not in seen:
            seen.add(gr)
            g.rules.append(gr)
    return g


_SIGNATURES = [("p", 1), ("p", 2), ("q", 1), ("r", 2), ("s", 0), ("t", 3)]


def random_relational_program(rng: random.Random) -> c.Program:
    """A small random program with variables, built as a syntax tree so that
    one predicate can occur at two arities (the parser rejects that)."""
    consts = ["a", "b", "c", "7"][: rng.randint(1, 4)]
    variables = ["X", "Y", "Z", "W"][: rng.randint(1, 4)]
    sigs = rng.sample(_SIGNATURES, rng.randint(2, 5))

    def atom(var_share):
        pred, arity = rng.choice(sigs)
        return c.Atom(pred, tuple(
            c.Term("var", rng.choice(variables)) if rng.random() < var_share
            else c.Term("const", rng.choice(consts))
            for _ in range(arity)
        ))

    facts = [c.Rule(atom(0)) for _ in range(rng.randint(0, 4))]
    prob_facts = [
        c.ProbFact(atom(0.3), Fraction(rng.randint(1, 9), 10))
        for _ in range(rng.randint(0, 3))
    ]
    if facts and rng.random() < 0.3:
        facts.append(rng.choice(facts))
    if prob_facts and rng.random() < 0.3:
        prob_facts.append(rng.choice(prob_facts))
    rules = [
        c.Rule(atom(0.8), tuple(
            c.Subgoal(atom(0.7), rng.random() < 0.3)
            for _ in range(rng.randint(0, 3))
        ))
        for _ in range(rng.randint(1, 5))
    ]
    program_rules = facts + rules
    rng.shuffle(program_rules)
    return c.Program(program_rules, prob_facts)


def _features(program: c.Program) -> set[str]:
    found = set()
    atoms = [pf.atom for pf in program.prob_facts]
    for rule in program.rules:
        atoms += [rule.head] + [sg.atom for sg in rule.body]
        pos_vars, neg_vars = (
            set().union(*(sg.atom.variables() for sg in rule.body if sg.negated == neg))
            for neg in (False, True)
        )
        if any(not t.is_variable for sg in rule.body for t in sg.atom.args):
            found.add("constant in a body")
        if rule.head.variables() - pos_vars - neg_vars:
            found.add("variable only in the head")
        if neg_vars - pos_vars - rule.head.variables():
            found.add("variable only under not")
        if rule.body and all(sg.negated for sg in rule.body):
            found.add("rule without a positive body")
    for a in atoms:
        names = [t.name for t in a.args if t.is_variable]
        if len(names) > len(set(names)):
            found.add("repeated variable")
    signatures = {(a.predicate, len(a.args)) for a in atoms}
    if len(signatures) > len({pred for pred, _ in signatures}):
        found.add("one predicate at two arities")
    if any(pf.atom.variables() for pf in program.prob_facts):
        found.add("probabilistic fact with variables")
    facts = [r.head for r in program.rules if not r.body]
    facts_p = [pf.atom for pf in program.prob_facts]
    if len(facts) > len(set(facts)) or len(facts_p) > len(set(facts_p)):
        found.add("duplicate facts")
    return found


def _check_against_naive(program: c.Program) -> int:
    got = c.ground(program)
    want = naive_ground(program)
    assert c.dump_ground(got) == c.dump_ground(want)
    # the cap fires exactly where the emitted rules exceed it
    n = len(got.rules)
    assert c.dump_ground(c.ground(program, max_rules=n)) == c.dump_ground(got)
    if n:
        with pytest.raises(c.ResourceGuardError):
            c.ground(program, max_rules=n - 1)
    return n


# s{k} is first derived in round k, and the rules over two of them come
# first in source order, so the last atom of each round is an s atom that a
# later round must pair, as an old atom, with the next one; z's negative
# literals show which c atoms the fixpoint found
_PAIRS = [(i, j) for i in range(4) for j in range(4) if i != j]
STAGGERED = " ".join(
    [f"c{i}{j} :- s{i}, s{j}." for i, j in _PAIRS]
    + ["s0."] + [f"s{k + 1} :- s{k}." for k in range(3)]
    + ["z :- " + ", ".join(f"not c{i}{j}" for i, j in _PAIRS) + "."]
)


@pytest.mark.parametrize("name", sorted(fx.ALL_PROGRAMS) + ["staggered", "grid5"])
def test_ground_matches_naive_reference_on_fixtures(name):
    text = {"staggered": STAGGERED, "grid5": grid_program(5)}.get(name)
    _check_against_naive(c.parse_program(text or fx.ALL_PROGRAMS[name]))


def test_ground_matches_naive_reference_on_random_relational_programs():
    rng = random.Random(20261018)
    seen: set[str] = set()
    rules = 0
    for _ in range(250):
        program = random_relational_program(rng)
        seen |= _features(program)
        rules += _check_against_naive(program)
    assert seen == {
        "repeated variable", "constant in a body", "variable only in the head",
        "variable only under not", "one predicate at two arities",
        "rule without a positive body", "probabilistic fact with variables",
        "duplicate facts",
    }
    assert rules > 1000


# ---------------------------------------------------------------------------
# emission reads each head and positive body atom by the number its join
# found: the dumps are those of building every atom again from the slots

DUMP_DIGEST = "376af80c760783c2a9f237d0fbb9e815ffd3648b989a98ff7e9ceedfe4cd1513"


def dump_digest() -> str:
    """One digest over the ``dump_ground`` bytes of the fixtures and of the
    benchmark pools at seeds 1-3 (game-wf's programs are game-credal's)."""
    texts = list(fx.ALL_PROGRAMS.values())
    for workload in ("reach-point", "game-credal", "grid-ground"):
        for seed in (1, 2, 3):
            texts += fx.pool(workload, seed)
    digest = hashlib.sha256()
    for text in texts:
        digest.update(c.dump_ground(fx.grd(text)).encode())
    return digest.hexdigest()


def test_dumps_of_fixtures_and_benchmark_pools_are_pinned():
    assert dump_digest() == DUMP_DIGEST
