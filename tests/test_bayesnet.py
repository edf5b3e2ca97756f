import hashlib
import random
from fractions import Fraction

import pytest

import credalplp as c
from credalplp.bayesnet import eval_formula

import fixtures as fx

F = Fraction


# ---------------------------------------------------------------------------
# Clark completion


def test_alarm_completion_formula():
    g = fx.grd(fx.ALARM)
    comp = c.clark_completion(g)
    alarm = comp[g.atom_id("alarm")]
    assert isinstance(alarm, c.Or) and len(alarm.parts) == 3
    first = alarm.parts[0]
    assert first == c.And(
        (c.Lit("burglary"), c.Lit("earthquake"), c.Lit("a1"))
    )
    third = alarm.parts[2]
    assert c.Lit("burglary", False) in third.parts
    # pure choice atoms are roots, not completed
    assert g.atom_id("burglary") not in comp
    # facts complete to an empty conjunction (true)
    neighbor = comp[g.atom_id("neighbor(a)")]
    assert neighbor == c.Or((c.And(()),))


def test_completion_rejects_cycles():
    for name in ("smokers", "pqr", "wins", "barber"):
        with pytest.raises(c.NotAcyclicError):
            c.clark_completion(fx.grd(fx.ALL_PROGRAMS[name]))
        with pytest.raises(c.NotAcyclicError, match="dependency graph has a cycle"):
            c.compile_bn(fx.grd(fx.ALL_PROGRAMS[name]))


# ---------------------------------------------------------------------------
# compilation


def test_single_fact_program_is_one_root():
    bn = c.compile_bn(fx.grd("0.7::b."))
    assert len(bn.nodes) == 1
    node = bn.nodes[0]
    assert node.is_root and node.name == "b" and node.prob == F(7, 10)


def test_alarm_network_shape():
    bn = c.compile_bn(fx.grd(fx.ALARM))
    assert [n.name for n in bn.nodes] == [
        "burglary",
        "earthquake",
        "a1",
        "a2",
        "a3",
        "neighbor(a)",
        "neighbor(b)",
        "alarm",
        "calls(a)",
        "calls(b)",
    ]
    alarm = bn.node("alarm")
    assert alarm.parents == ("burglary", "earthquake", "a1", "a2", "a3")
    assert not alarm.is_root
    assert bn.node("calls(a)").parents == ("alarm", "neighbor(a)")
    assert bn.node("missing") is None


def test_alarm_row_without_triggers_is_zero():
    bn = c.compile_bn(fx.grd(fx.ALARM))
    alarm = bn.node("alarm")
    # burglary=false, earthquake=false forces alarm false whatever a1..a3 do
    for a1 in (False, True):
        for a2 in (False, True):
            for a3 in (False, True):
                env = {
                    "burglary": False,
                    "earthquake": False,
                    "a1": a1,
                    "a2": a2,
                    "a3": a3,
                }
                assert eval_formula(alarm.formula, env) is False


def test_formulas_read_negation_and_refuse_non_events():
    assert eval_formula(c.Not(c.Lit("p")), {}) is True
    assert eval_formula(c.Not(c.Lit("p")), {"p": True}) is False
    with pytest.raises(TypeError):
        eval_formula("p", {})
    with pytest.raises(TypeError):
        c.inference.compile_event("p", c.GroundProgram())


def test_duplicate_choice_points_get_synthetic_roots():
    bn = c.compile_bn(fx.grd(fx.DUPLICATE_FACTS))
    r = bn.node("r")
    assert not r.is_root
    assert r.parents == ("choice#0", "choice#1")
    assert bn.node("choice#0").prob == F(1, 2)
    assert bn.node("choice#1").prob == F(3, 5)
    # single choice point stays a plain root
    assert bn.node("s(b)").is_root and bn.node("s(b)").prob == F(3, 10)
    assert c.bn_query(bn, fx.qassign("r=true")) == F(4, 5)
    assert c.bn_query(bn, fx.qassign("v=true")) == F(66, 625)


def test_topological_order_is_valid():
    for name in ("alarm", "duplicate_facts", "path", "expr3"):
        bn = c.compile_bn(fx.grd(fx.ALL_PROGRAMS[name]))
        seen = set()
        for node in bn.nodes:
            assert set(node.parents) <= seen
            seen.add(node.name)


def test_parent_cap():
    text = " ".join(f"0.5::p{i}." for i in range(5))
    text += " q :- " + ", ".join(f"p{i}" for i in range(5)) + "."
    with pytest.raises(c.ResourceGuardError):
        c.compile_bn(fx.grd(text), max_parents=4)
    c.compile_bn(fx.grd(text), max_parents=5)


# ---------------------------------------------------------------------------
# queries


def test_alarm_bn_query():
    bn = c.compile_bn(fx.grd(fx.ALARM))
    assert c.bn_query(bn, fx.qassign("calls(a)=true")) == F(29, 50)


def test_bn_query_conditional_self_is_one():
    bn = c.compile_bn(fx.grd(fx.ALARM))
    q = fx.qassign("alarm=true")
    assert c.bn_query(bn, q, q) == 1
    assert c.bn_query(bn, fx.qassign("burglary=true"), q) == F(
        c.bn_query(bn, fx.qassign("burglary=true, alarm=true"))
    ) / c.bn_query(bn, q)


def test_bn_query_impossible_evidence_is_undefined():
    bn = c.compile_bn(fx.grd(fx.EXPR3))
    e = fx.qassign("v=true, r=false")
    assert c.bn_query(bn, fx.qassign("v=true"), e) is c.UNDEFINED


@pytest.mark.parametrize(
    "name,atoms",
    [
        ("expr3", ["v", "r"]),
        ("alarm", ["alarm", "calls(a)", "calls(b)"]),
        ("alarm_short", ["alarm"]),
        ("duplicate_facts", ["r", "s(a)", "s(b)", "v"]),
        ("path", ["path(1, 6)", "path(2, 5)", "path(1, 5)"]),
        ("cold", None),  # not acyclic, skipped below
    ],
)
def test_bn_matches_credal_on_acyclic(name, atoms):
    g = fx.grd(fx.ALL_PROGRAMS[name])
    if atoms is None:
        assert c.classify(c.dependency_graph(g)).kind != "acyclic"
        return
    bn = c.compile_bn(g)
    for atom in atoms:
        iv = fx.cred(g, atom)
        p = c.bn_query(bn, fx.qassign(atom))
        assert iv.lower == iv.upper == p
        assert p == fx.wfq(g, atom)


# ---------------------------------------------------------------------------
# export


def test_export_deterministic_and_topological():
    g = fx.grd(fx.ALARM)
    data = c.export_bn(c.compile_bn(g))
    assert data == c.export_bn(c.compile_bn(fx.grd(fx.ALARM)))
    names = [
        line.split(" ", 1)[1]
        for line in data.decode().splitlines()
        if line.startswith("node ")
    ]
    assert names == [n.name for n in c.compile_bn(g).nodes]


def test_export_empty_program():
    assert c.export_bn(c.compile_bn(fx.grd(""))) == b""


def test_export_root_and_derived_rows():
    data = c.export_bn(c.compile_bn(fx.grd(fx.EXPR3))).decode()
    assert "node r\nparents \nrow - 1/2" in data
    assert "node v\nparents r;s\nrow 00 0/1\nrow 01 0/1\nrow 10 0/1\nrow 11 1/1" in data


def import_bn(data: bytes) -> c.BayesNet:
    """Minimal re-import of the export format, for round-trip checks only."""
    nodes = []
    name = parents = None
    rows = {}

    def flush():
        if name is None:
            return
        if "-" in rows and len(parents) == 0 and rows["-"] != F(0) and rows["-"] != F(1):
            nodes.append(c.BnNode(name, (), prob=rows["-"]))
            return
        disjuncts = []
        for bits, value in rows.items():
            if value == 0:
                continue
            pattern = () if bits == "-" else tuple(
                c.Lit(p, b == "1") for p, b in zip(parents, bits)
            )
            disjuncts.append(c.And(pattern))
        nodes.append(c.BnNode(name, parents, formula=c.Or(tuple(disjuncts))))

    for line in data.decode().splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "node":
            flush()
            name, parents, rows = rest, (), {}
        elif kind == "parents":
            parents = tuple(p for p in rest.split(";") if p)
        elif kind == "row":
            bits, prob = rest.split(" ")
            rows[bits] = F(prob)
    flush()
    return c.BayesNet(nodes)


@pytest.mark.parametrize("name", ["expr3", "alarm", "duplicate_facts", "path"])
def test_export_round_trip_preserves_answers(name):
    g = fx.grd(fx.ALL_PROGRAMS[name])
    bn = c.compile_bn(g)
    bn2 = import_bn(c.export_bn(bn))
    assert [n.name for n in bn2.nodes] == [n.name for n in bn.nodes]
    for aid in range(g.n_atoms):
        q = fx.qassign(f"{g.atoms[aid]}=true")
        assert c.bn_query(bn2, q) == c.bn_query(bn, q)


def test_bn_query_rejects_undefined_assignments():
    bn = c.compile_bn(fx.grd(fx.EXPR3))
    for q, e in (("v=undefined", None), ("v", "r=undefined")):
        with pytest.raises(ValueError, match="two-valued"):
            c.bn_query(bn, fx.qassign(q), e and fx.qassign(e))


def test_bn_query_rejects_unknown_truth_names():
    bn = c.compile_bn(fx.grd(fx.EXPR3))
    for q, e in (([("v", "maybe")], None), ([("v", "true")], [("r", "yes")])):
        with pytest.raises(ValueError, match="true/false/undefined"):
            c.bn_query(bn, q, e)


# ---------------------------------------------------------------------------
# golden export digest


def random_ground_program(rng: random.Random) -> c.GroundProgram:
    """A hand-built ground program with what the parser rarely or never
    yields: atoms that head no rule and carry no choice point, several choice
    points over one atom, choice atoms that head rules, probabilities 0 and 1,
    and (when a body may reach past its head) cycles."""
    g = c.GroundProgram()
    n = rng.randint(1, 7)
    for i in range(n):
        g.intern(f"a{i}")
    for cp in range(rng.randint(0, 5)):
        prob = F(rng.randint(0, 4), 4)
        g.choice_points.append(c.ChoicePoint(cp, rng.randrange(n), prob))
    for _ in range(rng.randint(0, 8)):
        head = rng.randrange(n)
        pool = range(n) if rng.random() < 0.15 else range(head)
        body = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        split = rng.randint(0, len(body))
        g.rules.append(c.GroundRule(head, tuple(body[:split]), tuple(body[split:])))
    return g


def test_export_bn_golden_digest():
    """One sha256 over the export (or the error's type and message) of the
    fixtures and 400 seeded random ground programs at `max_parents` 16 and 2.
    It was recorded from the per-rule compiler, so any change to node order,
    parent order, table rows or error texts shows here."""
    rng = random.Random(20261018)
    programs = [fx.grd(text) for text in fx.ALL_PROGRAMS.values()]
    programs += [random_ground_program(rng) for _ in range(400)]
    digest = hashlib.sha256()
    for g in programs:
        for cap in (16, 2):
            try:
                data = c.export_bn(c.compile_bn(g, cap))
            except (c.NotAcyclicError, c.ResourceGuardError) as exc:
                data = f"{type(exc).__name__}: {exc}".encode()
            digest.update(len(data).to_bytes(8, "big") + data)
    assert digest.hexdigest() == (
        "1114b1af5cb25dcdd47366328f4fd1f1169c5468fef520b48e3ad1c59854cda3"
    )


def test_bn_query_matches_the_engine_on_random_programs():
    """On the acyclic programs among seeded random ground programs, each
    atom's probability with no evidence and with one random evidence literal
    is the engine's point answer: the credal interval has lower = upper, and
    the well-founded answer is the same, Undefined included."""
    rng = random.Random(11)
    queries = undefined = 0
    for _ in range(1500):
        g = random_ground_program(rng)
        if c.classify(c.dependency_graph(g)).kind != "acyclic":
            continue
        bn = c.compile_bn(g)
        for atom in g.atoms:
            q = [(atom, "true")]
            for e in ([], [(rng.choice(g.atoms), rng.choice(["true", "false"]))]):
                p = c.bn_query(bn, q, e)
                iv = c.credal_conditional(
                    g, c.event_from_assignments(q), c.event_from_assignments(e)
                )
                if p is c.UNDEFINED:
                    undefined += 1
                    assert iv is c.UNDEFINED
                else:
                    assert iv.lower == iv.upper == p
                assert c.wf_query(g, q, e) == p
                queries += 1
    assert (queries, undefined) == (8896, 1827)
