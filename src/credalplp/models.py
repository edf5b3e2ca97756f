"""Model computation for ground normal programs.

Interpretations are lists indexed by atom id: ``bool`` entries for two-valued
models, ``bool | None`` for three-valued ones (``None`` = undefined). Atoms
omitted from the atom table by active grounding are false everywhere; the
truth lookup helpers below account for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator

from .errors import ResourceGuardError
from .grounding import GroundProgram, GroundRule
from .syntax import TRUTH

Interpretation = list  # list[bool]
PartialInterpretation = list  # list[bool | None]

DEFAULT_EXHAUSTIVE_LIMIT = 20


# ---------------------------------------------------------------------------
# Event formulas


@dataclass(frozen=True)
class Lit:
    """A ground-atom literal; ``value`` is the truth value it asserts
    (``None``: undefined)."""

    atom: str
    value: bool | None = True


@dataclass(frozen=True)
class Not:
    sub: "Event"


@dataclass(frozen=True)
class And:
    parts: tuple["Event", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Event", ...]


Event = Lit | Not | And | Or

TRUE: Event = And(())
FALSE: Event = Or(())


def event_from_assignments(assignments) -> Event:
    """Conjunction of assignments [(Atom|str, "true"|"false"|"undefined")]."""
    lits = []
    for atom, value in assignments:
        if value not in TRUTH:
            raise ValueError(f"event literal needs true/false/undefined, got {value!r}")
        lits.append(Lit(str(atom), TRUTH[value]))
    return And(tuple(lits))


def truth_in(g: GroundProgram, model: PartialInterpretation, atom: str):
    """Value of ``atom`` in a two- or three-valued model (false if not active)."""
    aid = g.atom_id(atom)
    return False if aid is None else model[aid]


truth3_in = truth_in


def compile_event(e: Event, g: GroundProgram) -> Callable[[PartialInterpretation], bool]:
    """``e`` as a test on the models of ``g``: each literal's atom text is
    looked up once, here, and the test reads the model by atom id. A literal
    holds when its atom has exactly the literal's value, so an undefined atom
    matches only an undefined literal, and an atom absent from ``g`` is false
    in every model. A conjunction or disjunction of one part is that part's
    test."""
    if isinstance(e, Lit):
        aid, value = g.atom_id(e.atom), e.value
        if aid is None:  # false in every model
            holds = False == value
            return lambda model: holds
        return lambda model: model[aid] == value
    if isinstance(e, Not):
        sub = compile_event(e.sub, g)
        return lambda model: not sub(model)
    if isinstance(e, (And, Or)):
        tests = [compile_event(p, g) for p in e.parts]
        fold = all if isinstance(e, And) else any
        if len(tests) == 1:
            return tests[0]
        return lambda model: fold(test(model) for test in tests)
    raise TypeError(f"not an event: {e!r}")


def eval_event(e: Event, g: GroundProgram, model: PartialInterpretation) -> bool:
    """Truth of ``e`` in a two- or three-valued model: ``compile_event``
    applied once. A sweep compiles its events once and applies the tests to
    every model."""
    return compile_event(e, g)(model)


# ---------------------------------------------------------------------------
# Compiled program and least model (Dowling-Gallier counter propagation)


class Kernel:
    """A ground program compiled once and shared by all its total choices.

    Holds the Dowling-Gallier index (per-rule heads and positive-body counts,
    positive and negative watch lists by atom, the rules without a positive
    body), the atoms with a negative watch list (``negative``) and the
    occurrence counts and branching order of the stable-model search. Kept
    choice atoms reach every routine below as extra facts, so no total choice
    copies the program.

    It also caches the reduct least models of one set of facts, the total
    choice being solved (see ``_gamma``): ``facts`` and ``gammas``, replaced
    when a call brings other facts, with ``gammas`` keyed by the negatively
    occurring atoms each model assumed true, a subset of ``negative``.
    ``alternating_iterates`` compares those keys to skip the calls whose
    answer it already holds. ``kept_facts`` returns a tuple, so the facts of
    one total choice reach ``_gamma`` as the very object it holds. ``atoms``
    (all atom ids) starts the downward iterates of ``well_founded_model``.
    """

    def __init__(self, g: GroundProgram):
        n = g.n_atoms
        self.n_atoms = n
        self.heads = [rule.head for rule in g.rules]
        self.pos_count = []
        self.pos_watch: list[list[int]] = [[] for _ in range(n)]
        self.neg_watch: list[list[int]] = [[] for _ in range(n)]
        self.occurrences = [0] * n
        for ri, rule in enumerate(g.rules):
            pos = set(rule.pos)
            self.pos_count.append(len(pos))
            for a in pos:
                self.pos_watch[a].append(ri)
            for a in rule.neg:
                self.neg_watch[a].append(ri)
            for a in rule.pos + rule.neg:
                self.occurrences[a] += 1
        self.body_free = [ri for ri, count in enumerate(self.pos_count) if count == 0]
        self.negative = frozenset(a for a in range(n) if self.neg_watch[a])
        self.atoms = frozenset(range(n))
        self.facts: tuple[int, ...] | None = None
        self.gammas: dict[frozenset[int], frozenset[int]] = {}
        # branching order: most body occurrences first, lowest id on ties
        self.order = sorted(range(n), key=lambda a: -self.occurrences[a])
        self.choice_atoms = [cp.ground_atom for cp in g.choice_points]

    def kept_facts(self, kept) -> tuple[int, ...]:
        """Atoms of the choice points a total choice keeps (``kept`` is
        indexed by choice-point id)."""
        return tuple(compress(self.choice_atoms, kept))


def _kernel(g) -> Kernel:
    return g if isinstance(g, Kernel) else Kernel(g)


def _lfp(k: Kernel, facts, assumed=()) -> set[int]:
    """Least model of ``facts`` plus the rules whose negative body misses
    ``assumed``, negative literals stripped: the least model of the reduct
    when ``assumed`` is the true set of an interpretation. Linear in total
    body size."""
    missing = k.pos_count.copy()
    neg_watch = k.neg_watch
    for a in assumed:
        for ri in neg_watch[a]:
            missing[ri] = -1  # blocked: never counts down to 0
    heads, pos_watch = k.heads, k.pos_watch
    queue = [heads[ri] for ri in k.body_free if missing[ri] == 0]
    queue += facts
    true: set[int] = set()
    while queue:
        aid = queue.pop()
        if aid in true:
            continue
        true.add(aid)
        for ri in pos_watch[aid]:
            missing[ri] -= 1
            if missing[ri] == 0:
                queue.append(heads[ri])
    return true


def _gamma(k: Kernel, facts, assumed) -> frozenset[int]:
    """``_lfp(k, facts, assumed)``, the least model of the reduct by
    ``assumed`` (Van Gelder's Γ), cached in ``k``. The reduct reads
    ``assumed`` only through its negatively occurring atoms,
    ``k.negative ∩ assumed``, so they key the entry, and two sets with one
    key have one answer; the cache holds the entries of the last ``facts``
    only."""
    if facts is not k.facts:
        facts = tuple(facts)
        if facts != k.facts:
            k.gammas = {}
        k.facts = facts
    key = k.negative.intersection(assumed)
    true = k.gammas.get(key)
    if true is None:
        true = k.gammas[key] = frozenset(_lfp(k, facts, key))
    return true


def least_model(g: GroundProgram) -> Interpretation:
    """Least fixpoint of the immediate-consequence operator. The program must
    be definite."""
    if any(rule.neg for rule in g.rules):
        raise ValueError("least_model requires a definite program")
    true = _lfp(Kernel(g), ())
    return [aid in true for aid in range(g.n_atoms)]


def reduct(g: GroundProgram, interp: Interpretation) -> GroundProgram:
    """Gelfond-Lifschitz reduct: drop rules blocked by true negated atoms,
    strip remaining negative literals."""
    out = GroundProgram(
        atoms=list(g.atoms),
        index=dict(g.index),
        choice_points=list(g.choice_points),
    )
    for rule in g.rules:
        if any(interp[n] for n in rule.neg):
            continue
        out.rules.append(GroundRule(rule.head, rule.pos, ()))
    return out


def is_stable(g: GroundProgram | Kernel, interp: Interpretation, facts=()) -> bool:
    """Whether ``interp`` is the least model of its reduct (with ``facts``)."""
    k = _kernel(g)
    true = set(compress(range(len(interp)), interp))
    return len(interp) == k.n_atoms and _gamma(k, facts, true) == true


# ---------------------------------------------------------------------------
# Well-founded model via the alternating fixpoint


def alternating_iterates(
    g: GroundProgram | Kernel, start: frozenset[int] | set[int], facts=()
) -> list[frozenset[int]]:
    """Iterates of Γ∘Γ from ``start`` until stabilization (inclusive), as
    frozensets, where Γ is the cached ``_gamma``.

    Γ reads a set only through its key, its negatively occurring atoms, so a
    call whose answer the keys already fix is skipped: when Γ(S) has the key
    of S, the next iterate Γ(Γ(S)) = Γ(S); and when a new iterate has the
    key of the one before it, the iterate after it equals it, so the list is
    complete. The lists are those of the plain loop. On a definite program
    every key is empty, so a call costs one ``_gamma`` call."""
    k = _kernel(g)
    negative = k.negative
    s = frozenset(start)
    key = negative.intersection(s)
    out = [s]
    while True:
        half = _gamma(k, facts, key)
        half_key = negative.intersection(half)
        nxt = half if half_key == key else _gamma(k, facts, half_key)
        if nxt == s:
            return out
        out.append(nxt)
        nxt_key = negative.intersection(nxt)
        if nxt_key == key:
            return out
        s, key = nxt, nxt_key


def well_founded_model(g: GroundProgram | Kernel, facts=()) -> PartialInterpretation:
    """The well-founded model (with ``facts`` added), a fresh list: the
    fixpoint of the iterates up from no atoms is true, the rest of the
    fixpoint of those down from all atoms (``Kernel.atoms``) undefined, and
    every other atom false."""
    k = _kernel(g)
    lfp = alternating_iterates(k, frozenset(), facts)[-1]
    gfp = alternating_iterates(k, k.atoms, facts)[-1]
    model: PartialInterpretation = [False] * k.n_atoms
    if len(lfp) != len(gfp):  # lfp ⊆ gfp: equal sizes leave nothing undefined
        for aid in gfp:
            model[aid] = None
    for aid in lfp:
        model[aid] = True
    return model


# ---------------------------------------------------------------------------
# Stable-model enumeration


def _propagate(k: Kernel, facts, assign) -> bool:
    """Narrow ``assign`` to what every stable model extending it agrees on,
    with two least models per round (the smodels atleast/atmost pair):

    - ``must``, the least model of the facts and true atoms under the rules
      whose negative body is all false: every such stable model contains it;
    - ``can``, the least model of the reduct by the true atoms: every such
      stable model is contained in it. It comes from the cache of ``_gamma``;
      ``must`` has other facts, so it does not.

    Undecided atoms in ``must`` become true and those outside ``can`` false,
    until nothing changes. Returns False when ``must`` has a false atom or
    leaves ``can``: no stable model extends ``assign``.
    """
    while True:
        true = [a for a, v in enumerate(assign) if v]
        not_false = [a for a, v in enumerate(assign) if v is not False]
        must = _lfp(k, [*facts, *true], not_false)
        can = _gamma(k, facts, true)
        if not must <= can or any(assign[a] is False for a in must):
            return False
        changed = False
        for a, v in enumerate(assign):
            if v is None and (a in must or a not in can):
                assign[a] = a in must
                changed = True
        if not changed:
            return True


def stable_models(g: GroundProgram | Kernel, facts=()) -> Iterator[Interpretation]:
    """All stable models (with ``facts`` added), no duplicates, deterministic
    order.

    Strategy: fix the well-founded literals, branch on the first undecided
    atom of ``Kernel.order`` (false before true) and ``_propagate`` after
    each decision, so models come in lexicographic order on ``Kernel.order``.
    A total leaf that survives propagation is closed under its reduct and
    inside its least model, so it is stable; ``is_stable`` still checks it by
    definition. The well-founded model itself is not propagated, so a total
    one is a leaf with a single ``is_stable`` call.

    Every model is a fresh list of ``bool``: a total leaf, with no ``None``
    left, is yielded as is, because no other assignment shares its list.
    """
    k = _kernel(g)
    wf = well_founded_model(k, facts)
    # explicit stack, not recursion: pushing True first explores False first
    stack = [wf]
    while stack:
        assign = stack.pop()
        # at the well-founded model (T, U), must = T and can = U: nothing to do
        if assign is not wf and not _propagate(k, facts, assign):
            continue
        if None not in assign:
            if is_stable(k, assign, facts):
                yield assign
            continue
        aid = next(a for a in k.order if assign[a] is None)
        for value in (True, False):
            branch = list(assign)
            branch[aid] = value
            stack.append(branch)


def exhaustive_stable_models(
    g: GroundProgram, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> list[Interpretation]:
    """Brute-force oracle. A stable model is the least model of its reduct,
    and the reduct depends only on which negatively occurring atoms are true:
    so guess every set N of those atoms and keep the least model of the
    reduct by N when it gives exactly N. Models come in binary-counting order
    over all atoms, atom 0 lowest. It takes 2^(negatively occurring atoms)
    least models, so more than ``limit`` of those atoms is refused."""
    k = Kernel(g)
    negative = sorted(k.negative)
    if len(negative) > limit:
        raise ResourceGuardError(
            f"{len(negative)} negatively occurring atoms exceeds exhaustive "
            f"limit of {limit}"
        )
    out = []
    for mask in range(1 << len(negative)):
        guess = {a for i, a in enumerate(negative) if (mask >> i) & 1}
        true = _lfp(k, (), guess)
        if true.intersection(negative) == guess:
            out.append([a in true for a in range(k.n_atoms)])
    return sorted(out, key=lambda m: m[::-1])


# ---------------------------------------------------------------------------
# Cautious / brave entailment


@dataclass
class EntailResult:
    has_model: bool
    some: bool  # brave: true in at least one stable model
    all: bool  # cautious: true in every stable model (vacuously true if none)


def entail(g: GroundProgram, e: Event) -> EntailResult:
    has_model = False
    some = False
    all_ = True
    for model in stable_models(g):
        has_model = True
        if eval_event(e, g, model):
            some = True
        else:
            all_ = False
        if some and not all_:
            break
    return EntailResult(has_model, some, all_)
