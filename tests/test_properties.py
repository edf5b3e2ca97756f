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
from collections import Counter
from fractions import Fraction

import pytest

import credalplp as c
from credalplp import oracle

import fixtures as fx
from test_models import counting, fresh_gamma

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
# program copy and the definitions in ``oracle``, which share no code with it


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
            # every set of atoms that is the least model of its own reduct
            subsets = (
                set(itertools.compress(range(gc.n_atoms), bits))
                for bits in itertools.product((False, True), repeat=gc.n_atoms)
            )
            full = [
                [a in s for a in range(gc.n_atoms)]
                for s in subsets if oracle.reduct_least_model(gc, (), s) == s
            ]
            brute = oracle.exhaustive_stable_models(g, facts=facts)
            assert brute == c.exhaustive_stable_models(gc)
            assert sorted(map(tuple, models)) == sorted(map(tuple, full))
            assert sorted(map(tuple, brute)) == sorted(map(tuple, full))
            assert all(c.is_stable(kernel, interp, facts) for interp in full)
            assert wf == oracle.well_founded_model(g, facts)


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


def definite_program(rng: random.Random) -> str:
    return random_program(rng).replace("not ", "")


def odd_loop_program(rng: random.Random) -> str:
    x, y, z = rng.sample(ATOMS, 3)
    return f"{random_program(rng)}\n{x} :- not {y}. {y} :- not {z}. {z} :- not {x}."


def test_cached_reduct_least_models_match_fresh_ones(monkeypatch):
    """Every cached least model equals Γ by its definition, and the models,
    their order and the iterates equal those of a run that takes every Γ
    from the definition."""
    cached = c.models._gamma

    def checked(k, assumed):
        true = cached(k, assumed)
        assert true == fresh_gamma(k, k.facts, assumed)
        return true

    def uncached(k, assumed):
        return fresh_gamma(k, k.facts, assumed)

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


def reference_iterates(g, start, facts):
    """Iterates of Γ∘Γ from the mask ``start`` by the definition
    (``oracle``), as masks: no cache and no skipped call."""
    start = {a for a in range(g.n_atoms) if start >> a & 1}
    return [mask(s) for s in oracle.alternating_iterates(g, facts, start)]


def test_alternating_iterates_match_the_plain_loop(monkeypatch):
    """The skipped cache lookups change no iterate, and on a definite
    program a call after the choice is loaded is one cache hit: no
    ``_gamma`` call and no least model."""
    gammas = counting(monkeypatch, c.models, "_gamma")
    extends = counting(monkeypatch, c.models, "_extend")
    rng = random.Random(20261021)
    makers = (definite_program, stratified_program, odd_loop_program, random_program)
    kinds, definite, lengths = set(), 0, set()
    for i in range(200):
        g = fx.grd(makers[i % 4](rng))
        k = c.Kernel(g)
        kinds.add(c.classify(c.dependency_graph(g)).kind)
        definite += not k.negative
        for choice in c.total_choices(g):
            facts = k.kept_facts(choice.kept)
            for start in (0, k.atoms):
                want = reference_iterates(g, start, facts)
                c.models._load(k, facts)
                del gammas[:], extends[:]
                assert c.models.alternating_iterates(k, start, facts) == want
                if not k.negative:
                    assert gammas == extends == []
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
        test = c.inference.compile_event(e, g)
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
        want.append((kept, weight))
    assert [(ch.kept, ch.weight) for ch in c.total_choices(g)] == want


def mixed_weight_program(rng: random.Random) -> str:
    """A random program plus probabilities 0 and 1 and two probabilistic
    facts over one atom, with weights over the denominators 3, 7 and 9."""
    twice = rng.choice(ATOMS[:4])
    facts = [f"0::{rng.choice(ATOMS)}.", f"1::{rng.choice(ATOMS)}."]
    facts += [f"{rng.choice(PROBS[2:])}::{atom}." for atom in (twice, twice)]
    return "\n".join([random_program(rng), *facts])


def test_total_choices_are_named_tuples_over_one_denominator():
    """Each total choice is a ``TotalChoice`` tuple, equal to and hashed as
    its fields, with the program's common denominator, its exact weight,
    and the text of ``str`` and ``describe`` as before."""
    rng = random.Random(20261019)
    programs = list(fx.ALL_PROGRAMS.values())
    programs += [mixed_weight_program(rng) for _ in range(20)]
    for text in programs:
        g = fx.grd(text)
        d = 1
        for cp in g.choice_points:
            d *= cp.prob.denominator
        for ch in c.total_choices(g):
            assert type(ch) is c.TotalChoice and isinstance(ch, tuple)
            assert c.TotalChoice(*ch) == ch and hash(c.TotalChoice(*ch)) == hash(ch)
            assert ch == (ch.kept, ch.numerator, ch.denominator)
            assert ch.denominator == d
            assert ch.weight == Fraction(ch.numerator, ch.denominator)
            assert str(ch) == "{" + "".join("01"[k] for k in ch.kept) + "}"
            assert ch.describe(g) == "{" + ", ".join(
                f"{'keep' if k else 'discard'} {g.atoms[cp.ground_atom]}"
                for cp, k in zip(g.choice_points, ch.kept)
            ) + "}"
            assert c.TotalChoice(ch.kept, Fraction(1, 4)).weight == Fraction(1, 4)


def test_sweep_mass_is_the_fraction_sum_of_choice_weights():
    """The sweep adds integer numerators over one denominator; per projected
    set that must be the plain ``Fraction`` sum of the choices' weights."""
    rng = random.Random(20261022)
    inconsistent = 0
    for _ in range(80):
        g = fx.grd(mixed_weight_program(rng))
        choices = list(c.total_choices(g))
        for solve in (c.stable_models, c.inference._wf):
            want = {}
            for choice in choices:
                models = list(solve(c.Kernel(c.program_for_choice(g, choice)), ()))
                if not models:
                    want = None
                    break
                key = frozenset(map(tuple, models))
                want[key] = want.get(key, Fraction(0)) + choice.weight
            if want is None:
                inconsistent += 1
                with pytest.raises(c.InconsistentProgramError):
                    c.inference._sweep(g, tuple, solve, 20)
                continue
            mass = c.inference._sweep(g, tuple, solve, 20)
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
        wf = oracle.well_founded_model(gc)
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
        # and a contradicting query: the degenerate conditioning cases; and
        # no evidence (TRUE), the unconditional query as the CLI asks it
        x = c.Lit(rng.choice(g.atoms)) if g.atoms else e
        conditionals = [
            (q, e), (c.And(()), x), (c.Or(()), x), (c.Not(x), x), (q, c.And(())),
        ]
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
                lambda: c.credal_conditional(g, q, c.And(())),
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
            assert interval == intervals[0]  # given TRUE, the unconditional

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


# ---------------------------------------------------------------------------
# the least models the sweeps carry from one total choice to the next, against
# fresh least models and a plain loop over program copies


def shared_choice_program(rng: random.Random, make) -> str:
    """``make``'s program plus two choice points over one atom, which also
    heads a rule."""
    x, y = rng.sample(ATOMS, 2)
    return f"{make(rng)}\n1/3::{x}.\n2/5::{x}.\n{x} :- {y}."


def test_base_counts_positive_atoms_and_assumed_negative_ones_per_rule():
    """Every least model starts from ``Kernel.blocked``: per rule, its
    distinct positive body atoms plus its distinct negative ones, with
    ``free`` the heads of the rules at 0, in rule order. ``_state`` counts
    the negatively occurring atoms outside ``assumed`` false there: it ends
    with, per rule, its distinct positive body atoms outside the least model
    plus its distinct negative ones assumed true, and the least model is
    the oracle's set fixpoint."""
    rng = random.Random(20261105)
    makers = (random_program, repeated_literal_program)
    texts = [*fx.ALL_PROGRAMS.values(), *(makers[i % 2](rng) for i in range(200))]
    blocked = 0
    for g in map(fx.grd, texts):
        k = c.Kernel(g)
        assert k.blocked == [len(set(r.pos)) + len(set(r.neg)) for r in g.rules]
        assert k.free == [r.head for r in g.rules if not r.pos and not r.neg]
        some = sum(1 << a for a in range(g.n_atoms) if rng.random() < 0.5)
        for bits in (0, k.negative, some):
            missing, true = c.models._state(k, (), bits)
            assumed = {a for a in range(g.n_atoms) if bits >> a & 1}
            assert true == mask(oracle.reduct_least_model(g, (), assumed))
            want = [
                len({a for a in r.pos if not true >> a & 1}) + len(set(r.neg) & assumed)
                for r in g.rules
            ]
            assert missing == want
            blocked += any(set(r.neg) & assumed for r in g.rules)
    assert blocked > 200


def test_carried_least_models_match_fresh_ones_and_a_plain_reference_loop():
    rng = random.Random(20261023)
    makers = (definite_program, stratified_program, odd_loop_program, random_program)
    kinds, negation, inconsistent, headed = set(), set(), 0, 0
    for i in range(200):
        g = fx.grd(shared_choice_program(rng, makers[i % 4]))
        kinds.add(c.classify(c.dependency_graph(g)).kind)
        atoms = {cp.ground_atom for cp in g.choice_points}
        headed += any(rule.head in atoms for rule in g.rules)
        choices = list(c.total_choices(g))
        copies = [c.program_for_choice(g, choice) for choice in choices]

        # at every total choice the carry seeds Γ(∅) and Γ(negative), checked
        # here before the next choice re-seeds the cache
        k = c.Kernel(g)
        negation.add(bool(k.negative))
        seen = []
        for choice, facts in c.models.carried(k, c.total_choices(g, 20)):
            assert facts is k.facts and facts == k.kept_facts(choice.kept)
            assert set(k.gammas) == {0, k.negative}
            for key, true in k.gammas.items():
                assert true == fresh_gamma(g, facts, key)
            seen.append(choice)
        assert seen == choices

        events = [random_event(rng), random_event(rng), c.Not(random_event(rng))]
        want = reference_credal(g, events)
        witness = next(
            (ch for ch, gc in zip(choices, copies) if not c.exhaustive_stable_models(gc)),
            None,
        )
        report = c.check_consistency(g)
        assert report.consistent == (witness is None) and report.witness == witness
        if isinstance(want, str):
            inconsistent += 1
            assert want == witness.describe(g) == report.witness.describe(g)
            with pytest.raises(c.InconsistentProgramError) as exc:
                c.event_bounds(g, events)
            assert exc.value.witness == witness and exc.value.description == want
        else:
            sums, ref_stats = want
            stats = {}
            got = c.event_bounds(g, events, stats=stats)
            assert got == [c.CredalInterval(lo, up) for lo, up in sums]
            assert stats == ref_stats

        atom = rng.choice([*g.atoms, "missing"])
        aid = g.atom_id(atom)
        dist = {True: Fraction(0), False: Fraction(0), None: Fraction(0)}
        for choice, gc in zip(choices, copies):
            dist[False if aid is None else c.well_founded_model(gc)[aid]] += choice.weight
        assert c.wf_atom_distribution(g, atom) == c.WfDistribution(
            dist[True], dist[False], dist[None]
        )
    assert kinds == {"acyclic", "stratified", "general"}
    assert negation == {False, True} and 0 < inconsistent < 200 and headed >= 100


def key_subsets(rng: random.Random, negative: int):
    """Every subset of the mask ``negative`` when it has at most 6 atoms,
    else 8 seeded samples, as masks."""
    bits = [1 << a for a in range(negative.bit_length()) if negative >> a & 1]
    if len(bits) <= 6:
        picks = itertools.product((False, True), repeat=len(bits))
    else:
        picks = ([rng.random() < 0.5 for _ in bits] for _ in range(8))
    return [sum(itertools.compress(bits, pick)) for pick in picks]


def test_every_reduct_least_model_extends_the_choices_base_state():
    """On every carried choice, Γ of each key (a subset of the negatively
    occurring atoms) is Γ by its definition, though every miss
    extends the choice's base state. One kernel driven with the facts of two
    choices, A, then B, then A again, answers as fresh kernels do, so a base
    state left from other facts would show."""
    gamma = c.models._gamma
    rng = random.Random(20261107)
    makers = (stratified_program, odd_loop_program, random_program, repeated_literal_program)
    texts = [KEPT_HEAD_IN_LOOP, *fx.ALL_PROGRAMS.values(), *fx.pool("game-credal", 1)]
    texts += [shared_choice_program(rng, makers[i % 4]) for i in range(80)]
    sampled = switched = 0
    for g in map(fx.grd, texts):
        k = c.Kernel(g)
        sampled += k.negative.bit_count() > 6
        for _, facts in c.models.carried(k, c.total_choices(g, 20)):
            for key in key_subsets(rng, k.negative):
                assert gamma(k, key) == fresh_gamma(g, facts, key)
        choices = list(c.total_choices(g, 20))
        a, b = (k.kept_facts(choice.kept) for choice in (choices[0], choices[-1]))
        driven = c.Kernel(g)
        keys = key_subsets(rng, k.negative)
        for facts in (a, b, a):
            c.models._load(driven, facts)
            fresh = c.models._load(c.Kernel(g), facts)
            for key in keys:
                want = fresh_gamma(g, facts, key)
                assert gamma(driven, key) == gamma(fresh, key) == want
        switched += any(fresh_gamma(g, a, key) != fresh_gamma(g, b, key) for key in keys)
    assert sampled >= 8 and switched > 50


# ---------------------------------------------------------------------------
# the kernel's atom sets, int bitmasks, against the oracle's set fixpoint


def mask(atoms) -> int:
    return sum(1 << a for a in set(atoms))


def wide_program(rng: random.Random, facts: bool) -> str:
    """90 atoms, each heading one or two rules over up to 3 random literals
    (30% negative), and 3 choice points: over 64 ground atoms, so masks span
    several machine words. Without ``facts``, no rule has an empty body, so
    least models can be empty."""
    atoms = [f"w{i}" for i in range(90)]
    lines = [f"1/2::{a}." for a in rng.sample(atoms, 3)]
    for head in atoms:
        for _ in range(rng.randint(1, 2)):
            body = [
                ("not " if rng.random() < 0.3 else "") + a
                for a in rng.sample(atoms, rng.randint(0 if facts else 1, 3))
            ]
            lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines)


def test_bitmask_kernel_matches_a_plain_set_fixpoint(monkeypatch):
    """Every carried base state (counters and true set), every cached Γ and
    the well-founded model of each total choice equal the oracle's set
    fixpoint over ``g.rules``, on programs past 64 atoms, with atom 0 in
    some least models and other least models empty. An empty least model is
    the mask 0, which is falsy: its second lookup is still a cache hit, so
    each key costs one ``_extend`` per choice."""
    extends = counting(monkeypatch, c.models, "_extend")
    rng = random.Random(20261120)
    # Γ({b}) is empty and is neither of the keys the carry seeds
    texts = ["a :- not b, not c. b :- d. c :- d. 1/2::d."]
    texts += [wide_program(rng, i % 2 == 0) for i in range(16)]
    wide = empty = empty_misses = zero = 0
    for g in map(fx.grd, texts):
        k = c.Kernel(g)
        wide += g.n_atoms > 64
        negative = {a for r in g.rules for a in r.neg}
        assert k.negative == mask(negative) and k.atoms == mask(range(g.n_atoms))
        for _, facts in c.models.carried(k, c.total_choices(g)):
            missing, true = k.base
            want = oracle.reduct_least_model(g, facts, negative)
            assert true == mask(want)
            assert missing == [len(set(r.pos) - want) + len(set(r.neg) & negative)
                               for r in g.rules]
            keys = [0, k.negative, *key_subsets(rng, k.negative)]
            keys.append(sum(1 << a for a in range(g.n_atoms) if rng.random() < 0.5))
            for key in keys:
                assumed = {a for a in range(g.n_atoms) if key >> a & 1}
                want = oracle.reduct_least_model(g, facts, assumed)
                empty += not want
                zero += 0 in want
                if key & ~k.negative:
                    continue  # not a key: Γ reads only the negative atoms
                del extends[:]
                first = c.models._gamma(k, key)
                misses = len(extends)
                assert first == c.models._gamma(k, key) == mask(want)
                assert len(extends) == misses <= 1
                empty_misses += misses and not want
            assert c.well_founded_model(k, facts) == oracle.well_founded_model(g, facts)
            for key, true in k.gammas.items():
                assert true == fresh_gamma(g, facts, key)
    assert wide >= 12 and empty > 0 and empty_misses > 0 and zero > 0


# ---------------------------------------------------------------------------
# the stable-model search with its lower bound carried down the tree, against
# the search that computed the bound afresh in every propagation round


def reference_must(g, facts, assign):
    """``must`` by its definition: the least model of the facts and true atoms
    under the rules whose negative body is all false."""
    true = [a for a, v in enumerate(assign) if v]
    not_false = {a for a, v in enumerate(assign) if v is not False}
    return mask(oracle.reduct_least_model(g, [*facts, *true], not_false))


def reference_counters(g, assign, must):
    """Per rule of ``g``, its positive body atoms outside the mask ``must``
    plus its negative body atoms not false."""
    return [
        len({a for a in rule.pos if not must >> a & 1})
        + len({a for a in rule.neg if assign[a] is not False})
        for rule in g.rules
    ]


def fresh_must_search(g, k, facts, nodes):
    """The stable-model search with a fresh ``must`` in every round of
    propagation; appends (assignment on arrival, assignment after propagation
    or None when it fails) to ``nodes`` at every node it propagates: all but
    a total well-founded model, which is the one candidate as it is."""

    def propagate(assign):
        while True:
            must = reference_must(g, facts, assign)
            true = sum(1 << a for a, v in enumerate(assign) if v)
            false = sum(1 << a for a, v in enumerate(assign) if v is False)
            can = c.models._gamma(k, k.negative & true)
            if must & ~can or must & false:
                return False
            changed = False
            for a, v in enumerate(assign):
                if v is None and (must >> a & 1 or not can >> a & 1):
                    assign[a] = bool(must >> a & 1)
                    changed = True
            if not changed:
                return True

    wf = c.well_founded_model(k, facts)
    stack = [wf]
    while stack:
        assign = stack.pop()
        if assign is not wf or None in wf:
            arrival = list(assign)
            ok = propagate(assign)
            nodes.append((arrival, list(assign) if ok else None))
            if not ok:
                continue
        if None not in assign:
            if c.is_stable(k, assign, facts):
                yield assign
            continue
        aid = next(a for a in k.order if assign[a] is None)
        for value in (True, False):
            branch = list(assign)
            branch[aid] = value
            stack.append(branch)


def repeated_literal_program(rng: random.Random) -> str:
    """``random_program`` plus rules whose bodies repeat literals, such as
    ``p :- q, q, not r, not r.``"""
    lines = [random_program(rng)]
    for _ in range(rng.randint(1, 3)):
        head, *body = rng.choices(ATOMS, k=4)
        lits = [("not " if rng.random() < 0.5 else "") + a for a in body]
        lines.append(f"{head} :- {', '.join(rng.choices(lits, k=rng.randint(2, 5)))}.")
    return "\n".join(lines)


def test_carried_search_bound_matches_a_fresh_one_node_by_node(monkeypatch):
    """At every node the carried ``must`` and its counters are those of the
    definition, on arrival (the parent's, or the root's copy of the base
    state) and after propagation (the masks returned); the search visits the
    nodes of the fresh-``must`` search, with the same outcome, and yields its
    models in its order. Each choice gets a fresh kernel, whose empty
    residual memo makes every search run node by node (replays are checked
    in ``test_replayed_residuals_match_a_fresh_search_per_choice``)."""
    real = c.models._propagate
    nodes = []

    def assignment(n, must, false):
        return [
            True if must >> a & 1 else False if false >> a & 1 else None for a in range(n)
        ]

    def checked(k, missing, must, false, queue, new):
        parent = assignment(k.n_atoms, must, false)
        assert must == reference_must(k, k.facts, parent)
        assert missing == reference_counters(k, parent, must)
        arrival = assignment(k.n_atoms, must | sum(1 << a for a in queue), false | new)
        narrowed = real(k, missing, must, false, queue, new)
        after = None
        if narrowed is not None:
            after = assignment(k.n_atoms, *narrowed)
            assert narrowed[0] == reference_must(k, k.facts, after)
            assert missing == reference_counters(k, after, narrowed[0])
        nodes.append((arrival, after))
        return narrowed

    monkeypatch.setattr(c.models, "_propagate", checked)
    rng = random.Random(20261019)
    makers = (random_program, odd_loop_program, repeated_literal_program)
    texts = [KEPT_HEAD_IN_LOOP, *fx.ALL_PROGRAMS.values()]
    for i in range(240):
        make = makers[i % 3]
        # every other program gets two choice points over one atom that heads a rule
        texts.append(shared_choice_program(rng, make) if i % 2 else make(rng))
    searched = failed = empty = repeated = 0
    for text in texts:
        g = fx.grd(text)
        repeated += any(
            len(set(rule.pos)) < len(rule.pos) or len(set(rule.neg)) < len(rule.neg)
            for rule in g.rules
        )
        fresh = c.Kernel(g)
        for choice in c.total_choices(g):
            k = c.Kernel(g)
            facts = k.kept_facts(choice.kept)
            want_nodes = []
            want = list(fresh_must_search(g, fresh, facts, want_nodes))
            del nodes[:]
            assert list(c.stable_models(k, facts)) == want
            assert nodes == want_nodes
            searched += bool(nodes)
            failed += sum(after is None for _, after in nodes)
            empty += not want
    assert searched > 500 and failed > 100 and empty > 0 and repeated > 30


# ---------------------------------------------------------------------------
# the residual programs a kernel's searches store and replay, against a fresh
# kernel per total choice, which searches every time


def count_replays(monkeypatch):
    """Count the calls of ``models._propagate``; returns the Counter and
    ``solve(k, facts)``, the list of ``stable_models(k, facts)``, which adds
    to "partial" when the well-founded model it read from ``k.wf`` is
    partial and to "replayed" when it also propagated no node: its models
    came from ``k.residuals``."""
    counts = Counter()
    real = c.models._propagate

    def propagate(*args):
        counts["propagated"] += 1
        return real(*args)

    def solve(k, facts):
        before = counts["propagated"]
        models = list(c.stable_models(k, facts))
        true, not_false = k.wf
        if true != not_false:
            counts["partial"] += 1
            counts["replayed"] += counts["propagated"] == before
        return models

    monkeypatch.setattr(c.models, "_propagate", propagate)
    return counts, solve


# an even loop, undefined under both total choices, with a rule that ``t``
# kills under one choice and keeps under the other: the residuals differ
LOOP_RULE_BY_CHOICE = [
    f"1/2::c. t :- c. p :- not q. q :- not p. p :- q, {body}."
    for body in ("not t", "t")
]


def memo_programs():
    """Random, odd-loop and shared-choice programs, the inconsistent
    fixtures and the game-credal benchmark pool at seed 1."""
    rng = random.Random(20261029)
    texts = [KEPT_HEAD_IN_LOOP, *LOOP_RULE_BY_CHOICE]
    for text in fx.ALL_PROGRAMS.values():
        if not c.check_consistency(fx.grd(text)).consistent:
            texts.append(text)
    for i in range(240):
        make = (random_program, odd_loop_program)[i % 2]
        texts.append(shared_choice_program(rng, make) if i % 4 > 1 else make(rng))
    return [*texts, *fx.pool("game-credal", 1)]


def test_replayed_residuals_match_a_fresh_search_per_choice(monkeypatch):
    """One kernel carried over every total choice of a program, as a sweep
    carries it, yields the models of a fresh kernel per choice, in their
    order, though it replays most residual programs it meets again; the
    first choice with no model is the witness of both, and of the sweep."""
    counts, solve = count_replays(monkeypatch)
    inconsistent = 0
    for text in memo_programs():
        g = fx.grd(text)
        k, witness = c.Kernel(g), None
        for choice, facts in c.models.carried(k, c.total_choices(g)):
            got = solve(k, facts)
            assert got == list(c.stable_models(c.Kernel(g), facts))
            if not got and witness is None:
                witness = choice
        assert len(k.residuals) <= c.models.MEMO_CAP
        assert c.check_consistency(g).witness == witness
        if witness is not None:
            inconsistent += 1
            with pytest.raises(c.InconsistentProgramError) as exc:
                c.event_bounds(g, [c.inference.TRUE])
            assert exc.value.witness == witness
    print(f"replayed {counts['replayed']} of {counts['partial']} partial choices")
    assert inconsistent > 20 and counts["replayed"] > counts["partial"] // 2 > 1000


def test_a_search_stopped_early_stores_nothing(monkeypatch):
    """``check_consistency`` takes each choice's first model and stores no
    residual; a sweep, which takes them all, stores each residual it
    searched, and a later search of one kernel replays it."""
    kernels = []

    def kernel(g):
        kernels.append(c.Kernel(g))
        return kernels[-1]

    monkeypatch.setattr(c.inference, "Kernel", kernel)
    g = fx.grd(fx.DILBERT)  # two models when man(dilbert) is kept
    assert c.check_consistency(g).consistent and kernels[-1].residuals == {}
    c.credal_unconditional(g, fx.qevent("single(dilbert)=true"))
    assert len(kernels[-1].residuals) == 1

    counts, solve = count_replays(monkeypatch)
    k = c.Kernel(fx.grd(fx.CASES))  # two models, no choice point
    first = next(c.stable_models(k))
    assert k.residuals == {}
    both = solve(k, ())
    assert both[0] == first and len(both) == 2 and len(k.residuals) == 1
    assert counts["replayed"] == 0
    assert solve(k, ()) == both and counts["replayed"] == 1


def test_one_kernel_replays_for_arbitrary_facts(monkeypatch):
    """Facts loaded through ``_load`` outside a sweep, any atoms at all and
    two searches consumed in turn, get the models of a fresh kernel: the
    residual keys hold no facts."""
    counts, solve = count_replays(monkeypatch)
    rng = random.Random(20261030)
    for i in range(200):
        g = fx.grd((random_program, odd_loop_program)[i % 2](rng))
        k = c.Kernel(g)

        def facts():
            size = rng.randint(0, min(2, g.n_atoms))
            return tuple(rng.sample(range(g.n_atoms), size))

        for _ in range(8):
            f = facts()
            assert solve(k, f) == list(c.stable_models(c.Kernel(g), f))
        f1, f2 = facts(), facts()
        turns = [*itertools.zip_longest(c.stable_models(k, f1), c.stable_models(k, f2))]
        for side, f in enumerate((f1, f2)):
            got = [turn[side] for turn in turns if turn[side] is not None]
            assert got == list(c.stable_models(c.Kernel(g), f))
    print(f"replayed {counts['replayed']} of {counts['partial']} partial calls")
    assert counts["replayed"] > 100


def test_residuals_that_never_repeat_stay_under_the_cap(monkeypatch):
    """An even loop and 13 choice points, each keeping an atom that the loop
    leaves undefined: all 8192 residual programs differ, so every choice
    searches, and the memo is dropped when it reaches its cap."""
    counts, solve = count_replays(monkeypatch)
    n = 13
    lines = ["p :- not q. q :- not p."]
    lines += [f"1/2::c{i}. r{i} :- c{i}, not p." for i in range(n)]
    g = fx.grd("\n".join(lines))
    k, sizes = c.Kernel(g), []
    for choice, facts in c.models.carried(k, c.total_choices(g)):
        assert len(solve(k, facts)) == 2
        sizes.append(len(k.residuals))
    assert max(sizes) == c.models.MEMO_CAP < 1 << n
    assert sizes.count(1) == 2  # the first choice, and the first after the drop
    assert counts["partial"] == 1 << n and counts["replayed"] == 0


# ---------------------------------------------------------------------------
# the reduct least models a kernel shares across total choices (``_gamma``'s
# memo ``Kernel.reducts``), against the oracle for every Γ it returns


def checked_gammas(monkeypatch):
    """Wrap ``models._gamma``: every Γ it returns must equal Γ by its
    definition for the loaded facts, by that key. Returns a Counter of the
    choice-cache misses ("missed") and of those the memo answered ("hit")."""
    counts = Counter()
    real, relevant = c.models._gamma, c.models._relevant

    def gamma(k, key):
        if key not in k.gammas:
            counts["missed"] += 1
            counts["hit"] += (key, k.fact_mask & relevant(k, key)) in k.reducts
        true = real(k, key)
        assert true == fresh_gamma(k, k.facts, key)
        return true

    monkeypatch.setattr(c.models, "_gamma", gamma)
    return counts


def test_shared_reduct_least_models_match_fresh_ones_for_arbitrary_facts(monkeypatch):
    """One kernel per program, given arbitrary atoms as facts, in stable
    searches consumed in turn and interleaved with well-founded models:
    every Γ equals the oracle's, and every answer a fresh kernel's,
    though most Γ misses are answered by the memo. The facts cover atoms
    that are no choice atom, choice atoms that head rules and choice atoms
    under negation."""
    counts = checked_gammas(monkeypatch)
    rng = random.Random(20261120)
    makers = (random_program, odd_loop_program, repeated_literal_program)
    kinds = Counter()
    for i in range(240):
        make = makers[i % 3]
        g = fx.grd(shared_choice_program(rng, make) if i % 2 else make(rng))
        k = c.Kernel(g)
        choice = {cp.ground_atom for cp in g.choice_points}
        headed = {rule.head for rule in g.rules}

        def facts():
            drawn = tuple(rng.sample(range(g.n_atoms), rng.randint(0, min(3, g.n_atoms))))
            for a in drawn:
                kinds["choice atom" if a in choice else "other atom"] += 1
                kinds["choice atom heading a rule"] += a in choice and a in headed
                kinds["choice atom under negation"] += a in choice and k.negative >> a & 1
            return drawn

        for _ in range(6):
            f1, f2, f3 = facts(), facts(), facts()
            turns = itertools.zip_longest(c.stable_models(k, f1), c.stable_models(k, f2))
            got = ([], [])
            for turn in turns:
                for side, model in enumerate(turn):
                    if model is not None:
                        got[side].append(model)
                assert c.well_founded_model(k, f3) == c.well_founded_model(c.Kernel(g), f3)
            for side, f in enumerate((f1, f2)):
                assert got[side] == list(c.stable_models(c.Kernel(g), f))
            assert c.well_founded_model(k, f1) == c.well_founded_model(c.Kernel(g), f1)
        assert len(k.reducts) <= c.models.MEMO_CAP
    print(f"memo answered {counts['hit']} of {counts['missed']} Γ misses; {dict(kinds)}")
    assert min(kinds.values()) > 100 and counts["hit"] > 1000


def test_shared_reduct_least_models_match_fresh_ones_in_sweeps(monkeypatch):
    """A sweep of each program (carried choices, so the fact masks come
    from ``carried``'s stack) and a consistency check on the same kernel,
    which stops each search at its first model: every Γ equals the
    oracle's, and the answers are those of fresh kernels per choice."""
    texts = memo_programs()[::3]
    counts = checked_gammas(monkeypatch)
    for text in texts:
        g = fx.grd(text)
        k = c.Kernel(g)
        for _, facts in c.models.carried(k, c.total_choices(g)):
            assert list(c.stable_models(k, facts)) == list(c.stable_models(c.Kernel(g), facts))
        for _, facts in c.models.carried(k, c.total_choices(g)):
            first = next(iter(c.stable_models(k, facts)), None)
            assert first == next(iter(c.stable_models(c.Kernel(g), facts)), None)
            assert c.well_founded_model(k, facts) == c.well_founded_model(c.Kernel(g), facts)
    print(f"memo answered {counts['hit']} of {counts['missed']} Γ misses")
    assert counts["hit"] > 1000


def test_reduct_least_models_that_never_repeat_stay_under_the_cap(monkeypatch):
    """An even loop and 13 choice points whose atoms the rules that ``not
    p`` keeps alive read: under a key without ``p`` each choice's facts
    differ where Γ reads them, so every such Γ misses the memo, which is
    dropped, with the per-key cache, when it reaches its cap. Every Γ is
    still the oracle's."""
    counts = checked_gammas(monkeypatch)
    n = 13
    lines = ["p :- not q. q :- not p."]
    lines += [f"1/2::c{i}. r{i} :- c{i}, not p." for i in range(n)]
    g = fx.grd("\n".join(lines))
    k, sizes = c.Kernel(g), []
    for _, facts in c.models.carried(k, c.total_choices(g)):
        assert len(list(c.stable_models(k, facts))) == 2
        assert len(k.relevant) <= len(k.reducts)
        sizes.append(len(k.reducts))
    assert max(sizes) == c.models.MEMO_CAP < 1 << n
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert counts["missed"] > 1 << n
