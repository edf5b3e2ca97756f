"""Randomized structural properties of the credal lower/upper bounds.

The lower probability of a consistent program is an infinitely monotone
Choquet capacity; these tests exercise the low-order consequences (conjugacy,
2-monotonicity, the n=3 inclusion-exclusion bound) on a seeded stream of
random programs, plus cross-oracle checks of the model enumerator, of the
compiled kernel the sweeps share across total choices, and of the credal and
well-founded entry points against a plain loop over total choices.
"""

import itertools
import random
from fractions import Fraction

import pytest

import credalplp as c

import fixtures as fx

ATOMS = ["a", "b", "d", "e", "f", "h"]


def random_program(rng: random.Random) -> str:
    """Up to 6 atoms, 8 rules, 4 choice points, bodies of length <= 3."""
    atoms = ATOMS[: rng.randint(2, 6)]
    lines = []
    for atom in rng.sample(atoms, rng.randint(0, min(4, len(atoms)))):
        prob = Fraction(rng.randint(1, 7), 8)
        lines.append(f"{prob.numerator}/{prob.denominator}::{atom}.")
    for _ in range(rng.randint(1, 8)):
        head = rng.choice(atoms)
        body = [
            ("not " if rng.random() < 0.4 else "") + a
            for a in rng.sample(atoms, rng.randint(0, min(3, len(atoms))))
        ]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines)


def random_event(rng: random.Random, depth=2) -> c.And:
    lits = [
        c.Lit(a, rng.random() < 0.5)
        for a in rng.sample(ATOMS, rng.randint(1, depth))
    ]
    return c.And(tuple(lits)) if rng.random() < 0.5 else c.Or(tuple(lits))


def consistent_programs(seed: int, count: int):
    """Yield exactly ``count`` consistent random ground programs."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        g = fx.grd(random_program(rng))
        if not c.check_consistency(g).consistent:
            continue
        produced += 1
        yield rng, g


def test_capacity_properties_on_200_random_programs():
    checked = 0
    for rng, g in consistent_programs(20260823, 200):
        a = random_event(rng)
        b = random_event(rng)
        e3 = random_event(rng)
        events = [
            a, b, e3,
            c.Not(a), c.Not(b), c.Not(e3),
            c.And((a, b)), c.Or((a, b)),
            c.And((a, e3)), c.And((b, e3)), c.And((a, b, e3)),
            c.Or((a, b, e3)),
        ]
        (iv_a, iv_b, iv_c, iv_na, iv_nb, iv_nc, iv_ab, iv_a_or_b,
         iv_ac, iv_bc, iv_abc, iv_union3) = c.event_bounds(g, events)

        # conjugacy: upper(X) = 1 - lower(not X)
        for pos, neg in ((iv_a, iv_na), (iv_b, iv_nb), (iv_c, iv_nc)):
            assert pos.upper == 1 - neg.lower
            assert pos.lower == 1 - neg.upper

        # 2-monotonicity
        assert iv_a_or_b.lower + iv_ab.lower >= iv_a.lower + iv_b.lower

        # inclusion-exclusion lower bound at n = 3
        assert iv_union3.lower >= (
            iv_a.lower + iv_b.lower + iv_c.lower
            - iv_ab.lower - iv_ac.lower - iv_bc.lower
            + iv_abc.lower
        )
        checked += 1
    assert checked == 200


def test_interval_sanity_and_weight_normalization_random():
    for _, g in consistent_programs(7, 50):
        assert sum(ch.weight for ch in c.total_choices(g)) == 1
        for atom in g.atoms:
            iv = fx.cred(g, atom)
            assert 0 <= iv.lower <= iv.upper <= 1


def test_enumerator_matches_exhaustive_random():
    rng = random.Random(99)
    for _ in range(200):
        g = fx.grd(random_program(rng))
        assert g.n_atoms <= 20
        for choice in c.total_choices(g):
            gc = c.program_for_choice(g, choice)
            got = sorted(map(tuple, c.stable_models(gc)))
            want = sorted(map(tuple, c.exhaustive_stable_models(gc)))
            assert got == want


def test_wf_literals_hold_in_stable_models_random():
    rng = random.Random(5)
    for _ in range(100):
        g = fx.grd(random_program(rng))
        for choice in c.total_choices(g):
            gc = c.program_for_choice(g, choice)
            wf = c.well_founded_model(gc)
            for model in c.stable_models(gc):
                assert all(
                    model[aid] == val
                    for aid, val in enumerate(wf)
                    if val is not None
                )


def test_stratified_collapse_random():
    seen = 0
    rng = random.Random(11)
    while seen < 60:
        g = fx.grd(random_program(rng))
        if c.classify(c.dependency_graph(g)).kind == "general":
            continue
        if not c.check_consistency(g).consistent:
            continue
        seen += 1
        for atom in g.atoms:
            iv = fx.cred(g, atom)
            assert iv.lower == iv.upper
            assert iv.lower == fx.wfq(g, atom)
            assert fx.wfq(g, f"{atom}=undefined") == 0


@pytest.mark.parametrize("name", sorted(fx.ALL_PROGRAMS))
def test_interval_sanity_fixtures(name):
    g = fx.grd(fx.ALL_PROGRAMS[name])
    if not c.check_consistency(g, max_choices=8).consistent:
        return
    for atom in g.atoms:
        iv = c.credal_unconditional(g, c.And((c.Lit(atom),)), max_choices=8)
        assert 0 <= iv.lower <= iv.upper <= 1


# ---------------------------------------------------------------------------
# the compiled kernel with kept choice atoms as facts, against the per-choice
# program copy and a naive oracle that shares no code with the kernel


def naive_least_model(g):
    """T_P iterated from the empty set until nothing new is derived."""
    true = set()
    while True:
        derived = {r.head for r in g.rules if all(p in true for p in r.pos)}
        if derived == true:
            return [aid in true for aid in range(g.n_atoms)]
        true = derived


def naive_stable_models(g):
    out = []
    for bits in itertools.product((False, True), repeat=g.n_atoms):
        interp = list(bits)
        if naive_least_model(c.reduct(g, interp)) == interp:
            out.append(interp)
    return out


def naive_well_founded_model(g):
    """Alternating fixpoint of the Gelfond-Lifschitz operator: iterate it
    twice from all-false (the true atoms) and from all-true (the atoms that
    are not false)."""

    def gamma(interp):
        return naive_least_model(c.reduct(g, interp))

    bounds = []
    for start in (False, True):
        interp = [start] * g.n_atoms
        while (nxt := gamma(gamma(interp))) != interp:
            interp = nxt
        bounds.append(interp)
    true, not_false = bounds
    return [True if t else None if u else False for t, u in zip(true, not_false)]


def edge_case_program(rng: random.Random) -> str:
    """A random program plus probabilities 0 and 1 and two probabilistic
    facts over one atom."""
    zero, one, twice = (rng.choice(ATOMS[:4]) for _ in range(3))
    return "\n".join(
        [random_program(rng), f"0::{zero}.", f"1::{one}.", f"1/2::{twice}.",
         f"1/3::{twice}."]
    )


# a kept choice atom heading a rule that one branch of an even loop blocks
KEPT_HEAD_IN_LOOP = "1/2::a. a :- not b. b :- not c. c :- not b."


def differential_programs():
    for text in [KEPT_HEAD_IN_LOOP, *fx.ALL_PROGRAMS.values()]:
        g = fx.grd(text)
        if g.n_atoms <= 10:
            yield g
    rng = random.Random(20261018)
    for i in range(60):
        yield fx.grd(edge_case_program(rng) if i % 3 == 0 else random_program(rng))


def test_kernel_with_kept_facts_matches_program_copy_and_oracle():
    for g in differential_programs():
        kernel = c.Kernel(g)
        for choice in c.total_choices(g):
            facts = kernel.kept_facts(choice.kept)
            gc = c.program_for_choice(g, choice)
            models = list(c.stable_models(kernel, facts))
            wf = c.well_founded_model(kernel, facts)
            assert models == list(c.stable_models(gc))
            assert wf == c.well_founded_model(gc)
            oracle = naive_stable_models(gc)
            assert sorted(map(tuple, models)) == sorted(map(tuple, oracle))
            brute = c.exhaustive_stable_models(gc)
            assert sorted(map(tuple, brute)) == sorted(map(tuple, oracle))
            assert all(c.is_stable(kernel, interp, facts) for interp in oracle)
            assert wf == naive_well_founded_model(gc)


def stratified_program(rng: random.Random) -> str:
    """Random rules over two strata: the upper one negates only the lower."""
    low, high = ATOMS[:3], ATOMS[3:]
    lines = [f"1/2::{a}." for a in rng.sample(low, rng.randint(1, 3))]
    for _ in range(rng.randint(2, 8)):
        head = rng.choice(ATOMS)
        body = rng.sample(ATOMS if head in high else low, rng.randint(0, 2))
        if head in high:
            body += [f"not {a}" for a in rng.sample(low, rng.randint(1, 2))]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines)


def odd_loop_program(rng: random.Random) -> str:
    x, y, z = rng.sample(ATOMS, 3)
    return f"{random_program(rng)}\n{x} :- not {y}. {y} :- not {z}. {z} :- not {x}."


def test_cached_reduct_least_models_match_fresh_ones(monkeypatch):
    """Every cached least model equals a fresh ``_lfp``, and the models,
    their order and the iterates equal those of an uncached run."""
    cached, lfp = c.models._gamma, c.models._lfp

    def checked(k, facts, assumed):
        true = cached(k, facts, assumed)
        assert true == lfp(k, facts, assumed)
        return true

    def uncached(k, facts, assumed):
        return frozenset(lfp(k, facts, assumed))

    def solve(g):
        k = c.Kernel(g)
        out = []
        for choice in c.total_choices(g):
            facts = k.kept_facts(choice.kept)
            stable = list(c.stable_models(k, facts))
            wf = c.well_founded_model(k, facts)
            candidates = [
                *stable, [v is True for v in wf], [v is not False for v in wf]
            ]
            out.append((
                stable, wf,
                c.models.alternating_iterates(k, set(), facts),
                c.models.alternating_iterates(k, set(range(g.n_atoms)), facts),
                [c.is_stable(k, m, facts) for m in candidates],
            ))
        return out

    rng = random.Random(20261020)
    texts = [KEPT_HEAD_IN_LOOP, *fx.ALL_PROGRAMS.values()]
    # half with an odd loop, a quarter with stratified negation
    makers = (odd_loop_program, stratified_program, odd_loop_program, random_program)
    texts += [makers[i % 4](rng) for i in range(160)]
    kinds, empty = set(), 0
    for text in texts:
        g = fx.grd(text)
        kinds.add(c.classify(c.dependency_graph(g)).kind)
        monkeypatch.setattr(c.models, "_gamma", uncached)
        want = solve(g)
        monkeypatch.setattr(c.models, "_gamma", checked)
        assert solve(g) == want
        empty += sum(not stable for stable, *_ in want)
    assert kinds == {"acyclic", "stratified", "general"} and empty > 0


def reference_iterates(k, start, facts):
    """Iterates of Γ∘Γ from ``start`` by the definition: each Γ a fresh
    ``_lfp`` of the whole set, with no cache and no skipped call."""
    lfp = c.models._lfp
    out = [frozenset(start)]
    while True:
        nxt = frozenset(lfp(k, facts, lfp(k, facts, out[-1])))
        if nxt == out[-1]:
            return out
        out.append(nxt)


def test_alternating_iterates_match_the_plain_loop(monkeypatch):
    """The skipped ``_gamma`` calls change no iterate, and a definite
    program costs one ``_gamma`` call per ``alternating_iterates`` call."""
    calls = [0]
    real = c.models._gamma

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(c.models, "_gamma", counting)
    rng = random.Random(20261021)
    makers = (
        lambda rng: random_program(rng).replace("not ", ""),  # definite
        stratified_program, odd_loop_program, random_program,
    )
    kinds, definite, lengths = set(), 0, set()
    for i in range(200):
        g = fx.grd(makers[i % 4](rng))
        k = c.Kernel(g)
        kinds.add(c.classify(c.dependency_graph(g)).kind)
        definite += not k.negative
        for choice in c.total_choices(g):
            facts = k.kept_facts(choice.kept)
            for start in (frozenset(), k.atoms):
                want = reference_iterates(k, start, facts)
                calls[0] = 0
                assert c.models.alternating_iterates(k, start, facts) == want
                if not k.negative:
                    assert calls[0] == 1
                lengths.add(len(want))
    assert kinds == {"acyclic", "stratified", "general"} and definite >= 50
    assert {1, 2, 3} <= lengths


def random_tree(rng: random.Random, atoms, depth: int):
    """A random event over ``atoms``: literals asserting true, false or
    undefined, negations, and conjunctions and disjunctions of 0-3 parts."""
    kind = rng.choice("LL" if depth == 0 else "LNAO")
    if kind == "L":
        return c.Lit(rng.choice(atoms), rng.choice((True, False, None)))
    if kind == "N":
        return c.Not(random_tree(rng, atoms, depth - 1))
    parts = tuple(random_tree(rng, atoms, depth - 1) for _ in range(rng.randint(0, 3)))
    return c.And(parts) if kind == "A" else c.Or(parts)


def reference_eval(e, g, model) -> bool:
    """Truth of ``e`` by recursion on the event, looking each atom up by its
    text: a literal holds when its atom has exactly its value, and an atom
    absent from ``g`` is false."""
    if isinstance(e, c.Lit):
        aid = g.atom_id(e.atom)
        return (False if aid is None else model[aid]) == e.value
    if isinstance(e, c.Not):
        return not reference_eval(e.sub, g, model)
    holds = [reference_eval(p, g, model) for p in e.parts]
    return all(holds) if isinstance(e, c.And) else any(holds)


def test_compiled_events_match_a_recursive_reference():
    rng = random.Random(20261022)
    seen = set()
    for _ in range(200):
        g = fx.grd(random_program(rng))
        atoms = [*g.atoms, "absent", "absent(x)"]
        e = random_tree(rng, atoms, rng.randint(0, 3))
        test = c.models.compile_event(e, g)
        for _ in range(6):
            model = [rng.choice((True, False, None)) for _ in range(g.n_atoms)]
            want = reference_eval(e, g, model)
            assert test(model) is want
            assert c.eval_event(e, g, model) is want
            seen.add(want)
        stack = [e]
        while stack:
            x = stack.pop()
            if isinstance(x, c.Lit):
                seen.add(("absent" if g.atom_id(x.atom) is None else "lit", x.value))
            elif isinstance(x, c.Not):
                stack.append(x.sub)
            else:
                seen.add((type(x).__name__, len(x.parts)))
                stack.extend(x.parts)
    assert {True, False, ("And", 0), ("Or", 0), ("And", 1), ("Or", 3)} <= seen
    assert {(kind, value) for kind in ("lit", "absent")
            for value in (True, False, None)} <= seen


PROBS = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7), Fraction(1, 2),
         Fraction(2, 9)]


@pytest.mark.parametrize("n", range(7))
def test_total_choices_match_per_bit_products(n):
    g = fx.grd("z.\n" + "".join(f"{p}::f{i}.\n" for i, p in enumerate(PROBS[:n])))
    probs = [cp.prob for cp in g.choice_points]
    assert sorted(probs) == sorted(PROBS[:n])
    want = []
    for mask in range(1 << n):
        kept = tuple(bool((mask >> i) & 1) for i in range(n))
        weight = Fraction(1)
        for p, k in zip(probs, kept):
            weight *= p if k else 1 - p
        want.append(c.TotalChoice(kept, weight))
    assert list(c.total_choices(g)) == want


def mixed_weight_program(rng: random.Random) -> str:
    """A random program plus probabilities 0 and 1 and two probabilistic
    facts over one atom, with weights over the denominators 3, 7 and 9."""
    twice = rng.choice(ATOMS[:4])
    facts = [f"0::{rng.choice(ATOMS)}.", f"1::{rng.choice(ATOMS)}."]
    facts += [f"{rng.choice(PROBS[2:])}::{atom}." for atom in (twice, twice)]
    return "\n".join([random_program(rng), *facts])


def test_sweep_mass_is_the_fraction_sum_of_choice_weights():
    """The sweep adds integer numerators over one denominator; per projected
    set that must be the plain ``Fraction`` sum of the choices' weights."""
    rng = random.Random(20261022)
    inconsistent = 0
    for _ in range(80):
        g = fx.grd(mixed_weight_program(rng))
        choices = list(c.total_choices(g))
        for semantics in ("stable", "wf"):
            want = {}
            for choice in choices:
                gc = c.program_for_choice(g, choice)
                if semantics == "wf":
                    models = [c.well_founded_model(gc)]
                else:
                    models = list(c.stable_models(gc))
                if not models:
                    want = None
                    break
                key = frozenset(map(tuple, models))
                want[key] = want.get(key, Fraction(0)) + choice.weight
            if want is None:
                inconsistent += 1
                with pytest.raises(c.InconsistentProgramError):
                    c.inference._sweep(g, tuple, semantics, 20)
                continue
            mass = c.inference._sweep(g, tuple, semantics, 20)
            assert mass == want
            assert all(type(weight) is Fraction for weight in mass.values())
    assert 0 < inconsistent < 80


# ---------------------------------------------------------------------------
# the credal and well-founded entry points against a plain loop over total
# choices with the exhaustive stable-model oracle


def reference_credal(g, events):
    """Per event, [lower, upper] summed choice by choice over the exhaustive
    stable models of each choice's program copy, plus the choice and model
    counts; or the description of the first choice without a stable model."""
    sums = [[Fraction(0), Fraction(0)] for _ in events]
    stats = {"choices": 0, "models": 0}
    for choice in c.total_choices(g):
        gc = c.program_for_choice(g, choice)
        models = c.exhaustive_stable_models(gc)
        if not models:
            return choice.describe(g)
        stats["choices"] += 1
        stats["models"] += len(models)
        for pair, event in zip(sums, events):
            holds = [c.eval_event(event, gc, m) for m in models]
            if all(holds):
                pair[0] += choice.weight
            if any(holds):
                pair[1] += choice.weight
    return sums, stats


def reference_conditional(sums):
    (a, b), (c_, d) = sums
    if b + d == 0:
        return "undefined", c.UNDEFINED
    if b + c_ == 0 and d > 0:
        return "zero", c.CredalInterval(Fraction(0), Fraction(0))
    if a + d == 0 and b > 0:
        return "one", c.CredalInterval(Fraction(1), Fraction(1))
    return "ratio", c.CredalInterval(a / (a + d), b / (b + c_))


def reference_wf(g, q_assignments, e_assignments, atom):
    """P(q and e), P(e) and the distribution of ``atom`` over true, false and
    undefined, summed over the well-founded model of each program copy."""
    names = {True: "true", False: "false", None: "undefined"}
    p_qe = p_e = Fraction(0)
    dist = {"true": Fraction(0), "false": Fraction(0), "undefined": Fraction(0)}
    for choice in c.total_choices(g):
        gc = c.program_for_choice(g, choice)
        wf = naive_well_founded_model(gc)
        value = {a: names[wf[aid]] for aid, a in enumerate(gc.atoms)}
        if all(value.get(a, "false") == v for a, v in e_assignments):
            p_e += choice.weight
            if all(value.get(a, "false") == v for a, v in q_assignments):
                p_qe += choice.weight
        dist[value.get(atom, "false")] += choice.weight
    return p_qe, p_e, dist


def random_assignments(rng: random.Random, atoms):
    return [
        (a, rng.choice(("true", "false", "undefined")))
        for a in rng.sample(atoms, rng.randint(1, min(2, len(atoms))))
    ]


def test_folded_entry_points_match_a_plain_reference_loop():
    rng = random.Random(20261019)
    programs = [fx.grd(text) for text in fx.ALL_PROGRAMS.values()]
    programs = [g for g in programs if g.n_atoms <= 10]
    programs += [
        fx.grd(edge_case_program(rng) if i % 4 == 0 else random_program(rng))
        for i in range(150)
    ]
    cases = set()
    for g in programs:
        q, e = random_event(rng), random_event(rng)
        # evidence on an atom of the program, against a sure, an impossible
        # and a contradicting query: the degenerate conditioning cases
        x = c.Lit(rng.choice(g.atoms)) if g.atoms else e
        conditionals = [(q, e), (c.And(()), x), (c.Or(()), x), (c.Not(x), x)]
        events = [q, e, c.Not(q)]
        for cq, ce in conditionals:
            events += [c.And((cq, ce)), c.And((c.Not(cq), ce))]

        want = reference_credal(g, events)
        if isinstance(want, str):
            cases.add("inconsistent")
            for entry in (
                lambda: c.event_bounds(g, events),
                lambda: c.credal_unconditional(g, q),
                lambda: c.credal_conditional(g, q, e),
            ):
                with pytest.raises(c.InconsistentProgramError) as exc:
                    entry()
                assert exc.value.description == want
        else:
            sums, ref_stats = want
            intervals = [c.CredalInterval(lo, up) for lo, up in sums]
            assert c.event_bounds(g, events) == intervals
            stats = {}
            assert c.credal_unconditional(g, q, stats=stats) == intervals[0]
            assert stats == ref_stats
            for j, (cq, ce) in enumerate(conditionals):
                case, interval = reference_conditional(sums[3 + 2 * j:5 + 2 * j])
                cases.add(case)
                stats = {}
                assert c.credal_conditional(g, cq, ce, stats=stats) == interval
                assert stats == ref_stats

        atoms = [*g.atoms, "missing"]
        q_as, e_as = random_assignments(rng, atoms), random_assignments(rng, atoms)
        atom = rng.choice(atoms)
        p_qe, p_e, dist = reference_wf(g, q_as, e_as, atom)
        p_q, _, _ = reference_wf(g, q_as, [], atom)
        stats = {}
        assert c.wf_query(g, q_as, stats=stats) == p_q
        n = 1 << len(g.choice_points)
        assert stats == {"choices": n, "models": n}
        assert c.wf_query(g, q_as, e_as) == (p_qe / p_e if p_e else c.UNDEFINED)
        cases.add("wf evidence" if p_e else "wf undefined")
        assert c.wf_atom_distribution(g, atom) == c.WfDistribution(
            dist["true"], dist["false"], dist["undefined"]
        )
    assert cases == {
        "inconsistent", "undefined", "zero", "one", "ratio", "wf evidence",
        "wf undefined",
    }
