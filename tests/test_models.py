import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import credalplp as c
from credalplp import models, oracle
from credalplp.inference import TRUE, FALSE
from credalplp.models import alternating_iterates

import fixtures as fx


def names(g, interp):
    return {g.atoms[i] for i, v in enumerate(interp) if v}


def names3(g, interp):
    return {
        g.atoms[i]: {True: "true", False: "false", None: "undefined"}[v]
        for i, v in enumerate(interp)
    }


# ---------------------------------------------------------------------------
# least model / reduct / stability


def test_least_model_smokers():
    g = fx.grd(fx.SMOKERS_DET)
    m = c.least_model(g)
    assert names(g, m) == {
        "influences(a, b)",
        "influences(b, a)",
        "stress(b)",
        "smokes(a)",
        "smokes(b)",
    }


def test_least_model_rejects_negation():
    with pytest.raises(ValueError):
        c.least_model(fx.grd(fx.PQR_DET))


def test_least_model_empty():
    assert c.least_model(c.GroundProgram()) == []


def test_reduct_drops_blocked_rules():
    g = fx.grd(fx.PQR_DET)
    p, q = g.atom_id("p"), g.atom_id("q")
    i_q = [False] * g.n_atoms
    i_q[q] = True
    red = c.reduct(g, i_q)
    # "p :- not q, not r" is blocked; "q :- not p" survives stripped
    assert [(r.head, r.pos, r.neg) for r in red.rules] == [(q, (), ())]
    i_p = [False] * g.n_atoms
    i_p[p] = True
    red = c.reduct(g, i_p)
    assert [(r.head, r.pos, r.neg) for r in red.rules] == [(p, (), ())]


def test_is_stable_examples():
    g = fx.grd(fx.PQR_DET)
    p, q = g.atom_id("p"), g.atom_id("q")
    only = lambda aid: [i == aid for i in range(g.n_atoms)]
    assert c.is_stable(g, only(p))
    assert c.is_stable(g, only(q))
    assert not c.is_stable(g, [False] * g.n_atoms)
    assert not c.is_stable(g, [True] * g.n_atoms)


def test_is_stable_reads_a_mask_as_the_list_of_its_bits():
    """The mask of an interpretation's true atoms answers as the list does,
    for every interpretation of small programs and any facts; a list of the
    wrong length is not stable, and neither is a mask with a bit past the
    last atom."""
    rng = random.Random(20261121)
    texts = [t for t in fx.ALL_PROGRAMS.values() if fx.grd(t).n_atoms <= 8]
    texts += [odd_loop_program(rng) for _ in range(40)]
    stable = 0
    for g in map(fx.grd, texts):
        n = g.n_atoms
        for facts in ((), tuple(rng.sample(range(n), min(2, n)))):
            for mask in range(1 << n):
                interp = [bool(mask >> a & 1) for a in range(n)]
                got = c.is_stable(g, mask, facts)
                assert got == c.is_stable(g, interp, facts)
                assert not c.is_stable(g, interp + [False], facts)
                stable += got
            assert not c.is_stable(g, 1 << n, facts)
    assert stable > 50


def test_unsupported_atom_is_not_stable():
    g = c.GroundProgram()
    a = g.intern("a")
    g.rules.append(c.GroundRule(a, (a,), ()))
    # {a} satisfies the rule but is unfounded
    assert not c.is_stable(g, [True])
    assert c.is_stable(g, [False])


def test_a_three_valued_interpretation_is_not_stable():
    """A list holding ``None`` is no stable model: ``is_stable`` answers
    False, where it used to raise ``TypeError``; a total well-founded model
    still answers True."""
    g = fx.grd("a :- not b. b :- not a.")
    wf = c.well_founded_model(g)
    assert wf == [None, None] and c.is_stable(g, wf) is False
    assert c.is_stable(g, [True, None]) is False
    g = fx.grd(fx.SMOKERS_DET)
    wf = c.well_founded_model(g)
    assert None not in wf and c.is_stable(g, wf) is True


# ---------------------------------------------------------------------------
# well-founded model


def test_wf_pqr_all_undefined():
    g = fx.grd(fx.PQR_DET)
    wf = c.well_founded_model(g)
    assert names3(g, wf) == {"p": "undefined", "q": "undefined"}


def test_wf_cases_total_on_p_only():
    g = fx.grd(fx.CASES)
    wf = c.well_founded_model(g)
    m = names3(g, wf)
    assert m["a"] == "undefined" and m["b"] == "undefined"
    # p is not decided by the alternating fixpoint even though every stable
    # model makes it true
    assert m["p"] == "undefined"


def test_wf_barber_mixed():
    g = fx.grd(fx.BARBER_DET)
    wf = c.well_founded_model(g)
    m = names3(g, wf)
    assert m["shaves(b, a)"] == "true"
    assert m["shaves(b, b)"] == "undefined"
    assert m["villager(a)"] == "true"


def test_wf_stratified_is_total():
    g = fx.grd(fx.SMOKERS_DET)
    wf = c.well_founded_model(g)
    assert None not in wf
    assert [bool(v) for v in wf] == c.least_model(g)


def test_wf_game():
    g = fx.grd(fx.GAME)
    wf = c.well_founded_model(g)
    m = names3(g, wf)
    assert m["wins(c)"] == "true"
    # wins(d) has no rule instance at all; it is dropped by grounding and
    # false everywhere
    assert c.truth3_in(g, wf, "wins(d)") is False
    assert m["wins(a)"] == "undefined"
    assert m["wins(b)"] == "undefined"


def test_alternating_iterates_monotone_and_short():
    for text in fx.ALL_PROGRAMS.values():
        g = fx.grd(text)
        ups = alternating_iterates(g, set())
        downs = alternating_iterates(g, set(range(g.n_atoms)))
        for earlier, later in zip(ups, ups[1:]):
            assert earlier & ~later == 0  # a subset, as masks
        for earlier, later in zip(downs, downs[1:]):
            assert later & ~earlier == 0
        assert len(ups) <= g.n_atoms + 1
        assert len(downs) <= g.n_atoms + 1
        assert ups[-1] & ~downs[-1] == 0


# ---------------------------------------------------------------------------
# stable-model enumeration


def test_stable_models_game():
    g = fx.grd(fx.GAME)
    models = [names(g, m) for m in c.stable_models(g)]
    base = {"move(a, b)", "move(b, a)", "move(b, c)", "move(c, d)", "wins(c)"}
    assert sorted(map(sorted, models)) == sorted(
        map(sorted, [base | {"wins(a)"}, base | {"wins(b)"}])
    )


def test_stable_models_barber_none():
    g = fx.grd(fx.BARBER_DET)
    assert list(c.stable_models(g)) == []


def test_stable_models_definite_single():
    g = fx.grd(fx.SMOKERS_DET)
    models = list(c.stable_models(g))
    assert models == [c.least_model(g)]


def test_stable_models_no_duplicates_and_deterministic():
    g = fx.grd(fx.COLORING)
    run1 = list(c.stable_models(g))
    run2 = list(c.stable_models(g))
    assert run1 == run2
    assert len(run1) == len({tuple(m) for m in run1})
    assert len(run1) == 2  # vertices 1, 3, 4 colorable two ways total


def test_deep_search_does_not_recurse():
    # 400 independent even loops: one decision per loop on the first path
    g = fx.grd("".join(f"p{i} :- not q{i}. q{i} :- not p{i}.\n" for i in range(400)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        model = next(c.stable_models(g))
    finally:
        sys.setrecursionlimit(limit)
    assert sum(model) == 400
    assert c.is_stable(g, model)


@pytest.mark.parametrize(
    "name", ["pqr_det", "game", "barber_det", "cases", "smokers_det", "dilbert"]
)
def test_enumeration_matches_exhaustive(name):
    g = fx.grd(fx.ALL_PROGRAMS[name])
    for choice in c.total_choices(g):
        gc = c.program_for_choice(g, choice)
        got = sorted(tuple(m) for m in c.stable_models(gc))
        want = sorted(tuple(m) for m in c.exhaustive_stable_models(gc))
        assert got == want


def test_exhaustive_limit_guard():
    g = fx.grd(fx.COLORING)
    with pytest.raises(c.ResourceGuardError):
        c.exhaustive_stable_models(g, limit=10)


def test_wf_literals_hold_in_every_stable_model():
    for text in fx.ALL_PROGRAMS.values():
        g = fx.grd(text)
        for choice in c.total_choices(g, max_choices=8):
            gc = c.program_for_choice(g, choice)
            wf = c.well_founded_model(gc)
            for model in c.stable_models(gc):
                for aid, val in enumerate(wf):
                    if val is not None:
                        assert model[aid] == val


def test_total_wf_is_the_unique_stable_model():
    for name in ("smokers_det", "alarm", "path"):
        g = fx.grd(fx.ALL_PROGRAMS[name])
        for choice in c.total_choices(g, max_choices=8):
            gc = c.program_for_choice(g, choice)
            wf = c.well_founded_model(gc)
            assert None not in wf
            assert list(c.stable_models(gc)) == [[bool(v) for v in wf]]


# ---------------------------------------------------------------------------
# events and entailment


def test_event_evaluation():
    g = fx.grd(fx.GAME)
    model = next(c.stable_models(g))
    assert c.eval_event(TRUE, g, model)
    assert not c.eval_event(FALSE, g, model)
    e = c.Or((c.Lit("wins(d)"), c.Not(c.Lit("wins(c)"))))
    assert not c.eval_event(e, g, model)
    # atoms outside the table are false
    assert c.eval_event(c.Lit("wins(z)", False), g, model)


def test_entail_game():
    """Without choice points, a lower bound of 1 is a cautious consequence
    and an upper bound of 1 a brave one."""
    g = fx.grd(fx.GAME)
    events = [fx.qevent(q) for q in ("wins(c)", "wins(a)", "wins(d)")]
    bounds = [(b.lower, b.upper) for b in c.event_bounds(g, events)]
    assert bounds == [(1, 1), (0, 1), (0, 0)]


def test_entail_without_models_is_vacuous():
    """No stable model at all is what ``check_consistency`` reports; the
    bounds refuse to read a vacuous consequence from it."""
    g = fx.grd(fx.BARBER_DET)
    assert list(c.stable_models(g)) == []
    report = c.check_consistency(g)
    assert not report.consistent and report.witness.kept == ()
    with pytest.raises(c.InconsistentProgramError):
        c.event_bounds(g, [fx.qevent("villager(a)")])


# ---------------------------------------------------------------------------
# randomized cross-check of the enumerator


def random_programs():
    atoms = st.sampled_from(list("abcdef"))
    literal = st.tuples(atoms, st.booleans())
    rule = st.tuples(atoms, st.lists(literal, max_size=3))
    return st.lists(rule, min_size=1, max_size=8)


def render(rules):
    out = []
    for head, body in rules:
        if body:
            lits = ", ".join(f"not {a}" if neg else a for a, neg in body)
            out.append(f"{head} :- {lits}.")
        else:
            out.append(f"{head}.")
    return "\n".join(out)


@settings(max_examples=150, deadline=None)
@given(random_programs())
def test_enumeration_matches_exhaustive_random(rules):
    g = fx.grd(render(rules))
    got = sorted(tuple(m) for m in c.stable_models(g))
    want = sorted(tuple(m) for m in c.exhaustive_stable_models(g))
    assert got == want


# ---------------------------------------------------------------------------
# one truth table for events over two- and three-valued models


def test_undefined_assignment_is_a_none_literal():
    e = c.event_from_assignments(fx.qassign("p=undefined, q=false, r"))
    assert e == c.And((c.Lit("p", None), c.Lit("q", False), c.Lit("r", True)))
    with pytest.raises(ValueError, match="true/false/undefined"):
        c.event_from_assignments([("p", "maybe")])


def test_events_compare_and_hash_by_type():
    assert TRUE != FALSE and not TRUE == FALSE
    assert len({TRUE, FALSE}) == 2
    e = c.Lit("p")
    parts = (e, c.Lit("q", False))
    for one, other in ((c.And(parts), c.Or(parts)), (c.Not(e), c.And((e,)))):
        assert one != other and not one == other
        assert hash(one) != hash(other)
    same = c.And((c.Lit("p"), c.Lit("q", False)))
    assert c.And(parts) == same and hash(c.And(parts)) == hash(same)
    assert e != ("p", True)


def test_ground_programs_share_no_list():
    a, b = c.GroundProgram(), c.GroundProgram()
    a.intern("p")
    a.rules.append(c.GroundRule(0, (), ()))
    a.choice_points.append(c.ChoicePoint(0, 0, 1))
    assert (b.atoms, b.index, b.rules, b.choice_points) == ([], {}, [], [])
    assert a != b and fx.grd("p. q :- p.") == fx.grd("p. q :- p.")
    assert b != [] and repr(b) == "GroundProgram(atoms=[], index={}, rules=[], choice_points=[])"


def test_event_matches_exact_three_valued_truth():
    g = fx.grd(fx.PQR_DET)  # p and q undefined, r absent from the table
    wf = c.well_founded_model(g)
    assert c.eval_event(c.Lit("p", None), g, wf)
    assert not c.eval_event(c.Lit("p", True), g, wf)
    assert not c.eval_event(c.Lit("p", False), g, wf)
    assert c.eval_event(c.Lit("r", False), g, wf)
    assert not c.eval_event(c.Lit("r", None), g, wf)


@settings(max_examples=100, deadline=None)
@given(random_programs())
def test_branching_order_is_most_occurrences_then_lowest_id(rules):
    k = c.Kernel(fx.grd(render(rules)))
    assert sorted(k.order) == list(range(k.n_atoms))
    occurrences = [0] * k.n_atoms
    for rule in k.rules:
        for a in rule.pos + rule.neg:
            occurrences[a] += 1
    keys = [(-occurrences[a], a) for a in k.order]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# the search against the oracle: the same models, in lexicographic order on
# Kernel.order (false before true), with one stability check per model


def odd_loop_program(rng: random.Random) -> str:
    """Up to 8 atoms, 3 choice points and 10 rules, negation in half the body
    literals, and an odd loop through negation half the time."""
    atoms = [f"a{i}" for i in range(rng.randint(3, 8))]
    lines = [f"1/2::{a}." for a in rng.sample(atoms, rng.randint(0, 3))]
    for _ in range(rng.randint(1, 10)):
        body = [
            ("not " if rng.random() < 0.5 else "") + a
            for a in rng.sample(atoms, rng.randint(0, 3))
        ]
        head = rng.choice(atoms)
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    if rng.random() < 0.5:
        x, y, z = rng.sample(atoms, 3)
        lines.append(f"{x} :- not {y}. {y} :- not {z}. {z} :- not {x}.")
    return "\n".join(lines)


def test_search_yields_the_oracle_models_in_order_checking_each_once(monkeypatch):
    calls = 0
    real = models.is_stable

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(models, "is_stable", counting)
    texts = list(fx.ALL_PROGRAMS.values())
    rng = random.Random(20261018)
    texts += [odd_loop_program(rng) for _ in range(300)]
    empty = 0
    for text in texts:
        g = fx.grd(text)
        if g.n_atoms > 12:
            continue
        kernel = c.Kernel(g)
        for choice in c.total_choices(g):
            brute = c.exhaustive_stable_models(c.program_for_choice(g, choice))
            want = sorted(brute, key=lambda m: tuple(m[a] for a in kernel.order))
            calls = 0
            assert list(c.stable_models(kernel, kernel.kept_facts(choice.kept))) == want
            assert calls == len(want)
            empty += not want
    assert empty > 0  # some choices have no stable model


# ---------------------------------------------------------------------------
# the per-choice cache of reduct least models: on a definite program one base
# least model per query and one extension per later total choice, bounded to
# one choice, immutable


def reach_program(rng: random.Random, nodes=8, edges=10) -> str:
    """``path/2`` reachability over ``nodes`` nodes with ``edges`` distinct
    probabilistic edges: definite, with cycles."""
    pairs = [(x, y) for x in range(nodes) for y in range(nodes) if x != y]
    lines = [
        "path(X,Y) :- edge(X,Y).",
        "path(X,Z) :- edge(X,Y), path(Y,Z).",
        *(f"1/2::edge(n{x},n{y})." for x, y in rng.sample(pairs, edges)),
    ]
    return "\n".join(lines)


def counting(monkeypatch, module, name, record=None):
    """Replace ``module.name`` with a wrapper; returns its call list, one
    ``record(*args)`` entry per call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(record(*args) if record else None)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def fresh_gamma(g, facts, key: int) -> int:
    """Γ by its definition (``oracle``): the least model of ``facts`` plus
    the rules of ``g`` whose negative body misses the mask ``key``, as a
    mask. ``g`` is a ground program or a ``Kernel``, whose ``rules`` are
    the program's own."""
    assumed = {a for a in range(g.n_atoms) if key >> a & 1}
    return sum(1 << a for a in oracle.reduct_least_model(g, facts, assumed))


def test_definite_programs_carry_one_least_model_across_total_choices(monkeypatch):
    """The sweep's carry starts each seed key from one ``_state``, and on a
    definite program (one seed key: no atom occurs negatively) each later
    total choice costs one extension by one atom, its lowest kept bit's;
    nothing else runs a least model."""
    states = counting(monkeypatch, models, "_state", lambda k, facts, key: key)
    extends = counting(
        monkeypatch, models, "_extend", lambda k, missing, true, queue, *_: list(queue)
    )
    texts = [*fx.ALL_PROGRAMS.values(), reach_program(random.Random(8))]
    programs = [fx.grd(text) for text in texts]
    programs = [g for g in programs if not any(rule.neg for rule in g.rules)]
    assert len(programs[-1].choice_points) == 10 and len(programs) >= 6
    for g in programs:
        n = len(g.choice_points)
        atoms = [cp.ground_atom for cp in g.choice_points]
        # the atom each later choice adds, in binary-counting order
        added = [[atoms[(m & -m).bit_length() - 1]] for m in range(1, 1 << n)]
        atom = g.atoms[-1]
        for query in (
            lambda: c.credal_unconditional(g, c.Lit(atom)),
            lambda: c.wf_query(g, [(atom, "true")]),
            lambda: c.check_consistency(g),
        ):
            del states[:], extends[:]
            query()
            assert states == [0]
            # the base state's own queue, then one atom per later choice
            assert len(extends) == 1 << n and extends[1:] == added


def recorded_kernels(monkeypatch):
    """Make ``inference`` record every ``Kernel`` it compiles."""
    kernels = []

    def recording(g):
        kernels.append(models.Kernel(g))
        return kernels[-1]

    monkeypatch.setattr(c.inference, "Kernel", recording)
    return kernels


@pytest.mark.parametrize("semantics", ["stable", "wf"])
@pytest.mark.parametrize("name", ["wins", "dilbert", "alarm", "coloring", "pqr"])
def test_cache_after_a_sweep_holds_the_last_choice_only(monkeypatch, name, semantics):
    g = fx.grd(fx.ALL_PROGRAMS[name])
    kernels = recorded_kernels(monkeypatch)
    solve = {"stable": c.inference.stable_models, "wf": c.inference._wf}[semantics]
    c.inference._sweep(g, tuple, solve, 20)
    (k,) = kernels
    last = list(c.total_choices(g))[-1]
    facts = k.kept_facts(last.kept)
    # solving the last choice alone on a fresh kernel fills the same entries
    fresh = models.Kernel(g)
    if semantics == "wf":
        c.well_founded_model(fresh, facts)
    else:
        list(c.stable_models(fresh, facts))
    assert k.facts == fresh.facts == tuple(facts)
    assert k.gammas == fresh.gammas and k.gammas
    # the base state too: the carry's, shared with its stack, and one built
    # by ``_state`` for these facts alone
    assert k.base == fresh.base and k.base[1] == k.gammas[k.negative]
    for key, true in k.gammas.items():
        assert key & ~k.negative == 0 and true == fresh_gamma(g, facts, key)


def test_propagate_caches_only_its_can_bound(monkeypatch):
    g = fx.grd(fx.GAME)
    k = models.Kernel(g)
    wf = c.well_founded_model(k)
    # the root: the well-founded literals set on a copy of the base state
    true = [a for a, v in enumerate(wf) if v]
    false = sum(1 << a for a, v in enumerate(wf) if v is False)
    missing = k.base[0].copy()
    must, false = models._propagate(k, missing, k.base[1], 0, true, false)
    before = dict(k.gammas)
    keys = counting(monkeypatch, models, "_gamma", lambda kernel, key: key)
    states = counting(monkeypatch, models, "_state")
    # per ``_extend`` call: whether it was given a false mask (the node's own)
    extends = counting(monkeypatch, models, "_extend", lambda *args: len(args) == 5)
    aid = g.atom_id("wins(a)")
    must, false = models._propagate(k, missing, must, false, [aid], 0)
    assert must >> aid & 1 and false >> g.atom_id("wins(b)") & 1
    # ``can`` goes through the cache: every new entry is the key of one of its
    # calls, and the only least models run are those entries' misses, each an
    # extension of a copy of the choice's base state
    assert set(k.gammas) == set(before) | set(keys)
    assert extends.count(False) == len(set(k.gammas) - set(before)) > 0 and states == []
    # ``must`` is carried, never cached: the entries of the choice's own facts
    # are all still there, and it is closed under the rules that ``false``
    # does not block
    assert k.facts == () and before.items() <= k.gammas.items()
    true = [a for a in range(g.n_atoms) if must >> a & 1]
    not_false = {a for a in range(g.n_atoms) if not false >> a & 1}
    assert oracle.reduct_least_model(g, true, not_false) == set(true)
    assert not must & false


def general_programs():
    """The fixtures with negation through a cycle, then the benchmark's game
    programs (the game-credal pool at seed 1)."""
    for text in fx.ALL_PROGRAMS.values():
        g = fx.grd(text)
        if c.classify(c.dependency_graph(g)).kind == "general":
            yield g
    yield from map(fx.grd, fx.pool("game-credal", 1))


def test_credal_sweeps_run_least_models_only_on_cache_misses(monkeypatch):
    """A credal sweep runs no least model from scratch but the carry's one
    ``_state`` per seed key: every other least model is one extension of
    the choice's base state inside a ``_gamma`` call that misses the
    choice's cache and the memo shared across choices (``Kernel.reducts``);
    a memo hit runs none. The stable-model search carries its lower bound
    and issues none of its own. The game-credal pool hits the memo, so a
    memo that never answers fails here."""
    calls = []  # per ``_gamma`` call: (choice miss, memo hit, extensions run)
    real = models._gamma

    def recording(k, key):
        miss = key not in k.gammas
        memo = key, k.fact_mask & models._relevant(k, key)
        hit = miss and memo in k.reducts
        before = len(extends)
        true = real(k, key)
        calls.append((miss, hit, len(extends) - before))
        return true

    states = counting(monkeypatch, models, "_state")
    extends = counting(monkeypatch, models, "_extend")
    searched = counting(monkeypatch, models, "_propagate")
    monkeypatch.setattr(models, "_gamma", recording)
    programs = list(general_programs())
    assert len(programs) >= 12
    misses = pool_hits = 0
    pool_from = len(programs) - len(fx.pool("game-credal", 1))
    for i, g in enumerate(programs):
        del calls[:], states[:]
        try:
            c.inference._sweep(g, tuple, c.inference.stable_models, 20)
        except c.InconsistentProgramError:
            pass
        assert len(states) == len({0, models.Kernel(g).negative})
        assert all(extensions == (miss and not hit) for miss, hit, extensions in calls)
        misses += sum(miss for miss, _, _ in calls)
        if i >= pool_from:
            pool_hits += sum(hit for _, hit, _ in calls)
    print(f"{pool_hits} memo hits on the pool, of {misses} choice misses in all")
    assert len(searched) > 1000 and misses > 1000 and pool_hits > misses // 4


def test_iterates_and_cached_least_models_are_immutable():
    """Iterates, cache entries and carried states are ints, so no caller can
    change what the kernel holds; a set given as the start is read, not
    kept."""
    for text in ("a :- not b. b :- not a.", fx.SMOKERS_DET, fx.GAME):
        g = fx.grd(text)
        k = models.Kernel(g)
        for start in (set(), set(range(g.n_atoms))):
            iterates = alternating_iterates(k, start, ())
            assert all(type(s) is int for s in iterates)
            assert iterates[0] == sum(1 << a for a in start)
            start.add(g.n_atoms)  # the caller's set is not an iterate
            assert not iterates[-1] >> g.n_atoms
        assert all(type(true) is int for true in k.gammas.values())
        for _ in models.carried(k, c.total_choices(g)):
            _, true = k.base
            assert type(true) is int and k.gammas[k.negative] is true


def test_stable_models_are_fresh_bool_lists(monkeypatch):
    """A total leaf is yielded as is, so no model may share its list with a
    later model, with the well-founded model or with the kernel."""
    texts = [*fx.ALL_PROGRAMS.values(), "a :- not b. b :- not a. c :- a. c :- b."]
    for g in map(fx.grd, texts):
        k = models.Kernel(g)
        for choice in c.total_choices(g):
            facts = k.kept_facts(choice.kept)
            fresh = models.Kernel(g)
            want = list(c.stable_models(fresh, facts))
            wf = c.well_founded_model(fresh, facts)
            got = []
            for model in c.stable_models(k, facts):
                assert type(model) is list
                assert all(type(v) is bool for v in model)
                got.append(list(model))
                model[:] = [None] * len(model)
            assert got == want
            assert c.well_founded_model(k, facts) == wf

    # answers stay the same when every yielded model is overwritten as soon
    # as its copy is taken
    real = c.inference.stable_models

    def overwriting(k, facts):
        for model in real(k, facts):
            copy = list(model)
            model[:] = [None] * len(model)
            yield copy

    programs = [fx.grd(text) for text in fx.ALL_PROGRAMS.values()]
    for g in [g for g in programs if c.check_consistency(g).consistent]:
        events = [c.Lit(atom) for atom in g.atoms]
        want = c.event_bounds(g, events)
        with monkeypatch.context() as patch:
            patch.setattr(c.inference, "stable_models", overwriting)
            assert c.event_bounds(g, events) == want


# several stable models per total choice: two even loops, and README's
# wins.plp with two more probabilistic moves
EVEN_LOOPS = """
a :- not b. b :- not a.
x :- not y. y :- not x.
a :- c1. y :- c2, not z. z :- c3, b.
0.5::c1. 0.5::c2. 0.5::c3.
"""

WINS_MORE = fx.WINS + "0.4::move(d,c). 0.6::move(d,a).\n"


@pytest.mark.parametrize(
    "text", [EVEN_LOOPS, WINS_MORE], ids=["even_loops", "wins_more"]
)
def test_interleaved_searches_on_one_kernel_match_fresh_ones(text):
    """Two stable-model searches of other facts, advanced in turn on one
    kernel with a well-founded model of third facts between their steps,
    each yield what a fresh kernel yields for their own facts: a search
    solves its own total choice whatever ran between its models."""
    g = fx.grd(text)
    k = models.Kernel(g)
    facts = [k.kept_facts(choice.kept) for choice in c.total_choices(g)]
    want = {f: list(c.stable_models(models.Kernel(g), f)) for f in facts}
    wfs = {f: c.well_founded_model(models.Kernel(g), f) for f in facts}
    assert max(map(len, want.values())) >= 3
    for i, first in enumerate(facts):
        for j, second in enumerate(facts[i + 1:]):
            others = [f for f in facts if f not in (first, second)]
            other = others[(i + j) % len(others)]
            searches = {f: c.stable_models(k, f) for f in (first, second)}
            got = {f: [] for f in searches}
            while searches:
                for f, search in list(searches.items()):
                    model = next(search, None)
                    if model is None:
                        del searches[f]
                        continue
                    got[f].append(model)
                    assert c.well_founded_model(k, other) == wfs[other]
            assert got == {f: want[f] for f in got}
