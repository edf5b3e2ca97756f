"""Exact probabilistic inference over total choices. Queries are events,
formulas over ground-atom literals that ``compile_event`` reads on a two- or
three-valued model, where an atom absent from the atom table is false.

All arithmetic is over ``fractions.Fraction``; decimal rendering happens only
at the presentation layer. Credal queries follow a strict consistency policy:
the first total choice without a stable model aborts the query with a witness
(no renormalization).

Every bound folds one mass function (the belief-function form of the credal
semantics): the weight of the total choices whose models, projected onto the
query and evidence, form exactly a set S; the lower (upper) probability sums
the sets S whose every (some) member satisfies the query. A well-founded
answer is the same fold with one three-valued model per total choice, so its
lower and upper probabilities coincide.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .errors import UNDEFINED, InconsistentProgramError, ResourceGuardError
from .grounding import GroundProgram, GroundRule
from .models import (
    Kernel,
    PartialInterpretation,
    stable_models,
    well_founded_model,
)
from .syntax import TRUTH

DEFAULT_MAX_CHOICES = 20


# ---------------------------------------------------------------------------
# Event formulas


# Events are named tuples that compare and hash by type as well as by
# fields, so that ``And(()) != Or(())`` (TRUE is not FALSE) and no event
# equals a plain tuple.


def _same(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _differ(self, other) -> bool:  # else tuple's != would ignore the type
    return not _same(self, other)


def _hash(self) -> int:
    return hash((type(self), *self))


class Lit(NamedTuple):
    """A ground-atom literal; ``value`` is the truth value it asserts
    (``None``: undefined)."""

    atom: str
    value: bool | None = True
    __eq__, __ne__, __hash__ = _same, _differ, _hash


class Not(NamedTuple):
    sub: "Event"
    __eq__, __ne__, __hash__ = _same, _differ, _hash


class And(NamedTuple):
    parts: tuple["Event", ...]
    __eq__, __ne__, __hash__ = _same, _differ, _hash


class Or(NamedTuple):
    parts: tuple["Event", ...]
    __eq__, __ne__, __hash__ = _same, _differ, _hash


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


def truth3_in(g: GroundProgram, model: PartialInterpretation, atom: str):
    """Value of ``atom`` in a model: the one its literal holds with."""
    values = (True, False, None)
    return next(v for v in values if eval_event(Lit(atom, v), g, model))


def compile_event(e: Event, g: GroundProgram) -> Callable[[PartialInterpretation], bool]:
    """``e`` as a test on the models of ``g``: each literal's atom text is
    looked up once, here, and the test reads the model by atom id. A literal
    holds when its atom has exactly the literal's value, so an undefined atom
    matches only an undefined literal, and an atom absent from ``g`` is false
    in every model. A conjunction or disjunction of one part is that part's
    test, and of none a constant."""
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
        if not tests:  # TRUE or FALSE, on every model
            holds = fold(())
            return lambda model: holds
        if len(tests) == 1:
            return tests[0]
        return lambda model: fold(test(model) for test in tests)
    raise TypeError(f"not an event: {e!r}")


def eval_event(e: Event, g: GroundProgram, model: PartialInterpretation) -> bool:
    """Truth of ``e`` in one model; a sweep compiles its events once."""
    return compile_event(e, g)(model)


# ---------------------------------------------------------------------------
# Total choices and the queries that sweep them


class TotalChoice(NamedTuple):
    """Which choice points a total choice keeps (``kept``, indexed by
    ChoicePoint id) and its weight, ``numerator / denominator``, as a plain
    tuple of those fields, compared and hashed by them. ``total_choices``
    gives all choices of a program one common denominator, so a sweep adds
    numerators with no ``Fraction`` per choice; ``TotalChoice(kept, w)``
    holds an exact weight ``w``. ``weight`` is the exact ``Fraction``."""

    kept: tuple[bool, ...]
    numerator: int | Fraction
    denominator: int = 1

    @property
    def weight(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return "{" + "".join("1" if k else "0" for k in self.kept) + "}"

    def describe(self, g: GroundProgram) -> str:
        parts = [
            f"{'keep' if k else 'discard'} {g.atoms[cp.ground_atom]}"
            for cp, k in zip(g.choice_points, self.kept)
        ]
        return "{" + ", ".join(parts) + "}"


class CredalInterval(NamedTuple("CredalInterval", [("lower", Fraction), ("upper", Fraction)])):
    """Lower and upper probability, checked on construction."""

    __slots__ = ()

    def __new__(cls, lower: Fraction, upper: Fraction):
        if not 0 <= lower <= upper <= 1:
            raise ValueError(
                f"credal interval needs 0 <= lower <= upper <= 1, got [{lower}, {upper}]"
            )
        return tuple.__new__(cls, (lower, upper))


class WfDistribution(NamedTuple):
    p_true: Fraction
    p_false: Fraction
    p_undefined: Fraction


class ConsistencyReport(NamedTuple):
    consistent: bool
    witness: TotalChoice | None = None


def total_choices(
    g: GroundProgram, max_choices: int = DEFAULT_MAX_CHOICES
) -> Iterator[TotalChoice]:
    """All 2^n total choices in binary-counting order on choice-point ids
    (id 0 is the least significant bit). Every weight is a numerator over
    D, the product of the choice points' denominators. A point's (discarded,
    kept) numerators over its own denominator are factors of integer suffix
    products, so a step recomputes only the factors of the bits it flips,
    about two integer multiplications per choice; no ``Fraction`` is built
    until a choice's ``weight`` is read."""
    n = len(g.choice_points)
    if n > max_choices:
        raise ResourceGuardError(
            f"{n} choice points exceeds cap of {max_choices} (2^n total choices)"
        )
    numerators, d = [], 1
    for cp in g.choice_points:
        num, den = cp.prob.numerator, cp.prob.denominator
        numerators.append((den - num, num))
        d *= den
    new = tuple.__new__  # a TotalChoice from its fields, without __new__'s call
    kept = [False] * n
    suffix = [1] * (n + 1)
    for mask in range(1 << n):
        # counting up to ``mask`` changed the bits below ``stop`` only
        stop = (mask & -mask).bit_length() or n
        for i in range(stop - 1, -1, -1):
            kept[i] = bool((mask >> i) & 1)
            suffix[i] = suffix[i + 1] * numerators[i][kept[i]]
        yield new(TotalChoice, (tuple(kept), suffix[0], d))


def program_for_choice(g: GroundProgram, choice: TotalChoice) -> GroundProgram:
    """Kept choice atoms become facts; discarded atoms stay in the table and
    are false unless derivable. The sweeps below pass the kept atoms to a
    compiled ``Kernel`` instead; this copy is the reference they match."""
    return g.with_rules([
        GroundRule(cp.ground_atom, (), ())
        for cp, kept in zip(g.choice_points, choice.kept) if kept
    ] + g.rules)


def _wf(k: Kernel, facts) -> list:
    return [well_founded_model(k, facts)]


def _sweep(g: GroundProgram, project, solve, max_choices, stats=None):
    """Map each set S of ``project`` images to the weight of the total choices
    whose models, ``solve(kernel, kept atoms)`` (``stable_models``, ``_wf`` or
    the first stable model, read from this module when called, so wrappers
    put here see them), project onto exactly S. The kept atoms are a mask:
    when each choice point i sits on atom i, the choice's index in the
    binary-counting order of ``total_choices``, else ``Kernel.kept_facts``.
    Aborts on the first choice without a model; counts choices and models
    into ``stats``. Weights add up as integer numerators over one
    denominator, one ``Fraction`` per set."""
    k = Kernel(g)
    counting = k.choice_bits == [1 << i for i in range(len(k.choice_bits))]
    mass: dict[frozenset, int] = {}
    choices = found = 0
    try:
        for index, choice in enumerate(total_choices(g, max_choices)):
            facts = index if counting else k.kept_facts(choice.kept)
            models = list(solve(k, facts))
            if not models:
                raise InconsistentProgramError(choice, choice.describe(g))
            choices += 1
            found += len(models)
            key = frozenset(map(project, models))
            mass[key] = mass.get(key, 0) + choice.numerator
    finally:  # an aborted sweep still reports the choices it solved
        if stats is not None:
            stats["choices"] = stats.get("choices", 0) + choices
            stats["models"] = stats.get("models", 0) + found
    d = choice.denominator  # there is always a choice, and all share it
    return {key: Fraction(num, d) for key, num in mass.items()}


def _fold(mass, test) -> tuple[Fraction, Fraction]:
    """(mass of the sets whose every element passes ``test``, mass of the
    sets with some element that does): the lower and upper probability."""
    lower = upper = Fraction(0)
    for images, weight in mass.items():
        holds = [test(image) for image in images]
        if all(holds):
            lower += weight
        if any(holds):
            upper += weight
    return lower, upper


def _bounds(g: GroundProgram, events, solve, max_choices, stats=None):
    """The (lower, upper) probability of each event, in one sweep."""
    tests = [compile_event(e, g) for e in events]
    mass = _sweep(
        g, lambda m: tuple([test(m) for test in tests]), solve, max_choices, stats
    )
    return [_fold(mass, itemgetter(i)) for i in range(len(events))]


def credal_unconditional(
    g: GroundProgram,
    q: Event,
    max_choices: int = DEFAULT_MAX_CHOICES,
    stats=None,
) -> CredalInterval:
    return event_bounds(g, [q], max_choices, stats)[0]


def _conditional(g: GroundProgram, q: Event, e: Event, solve, max_choices, stats):
    """Conditional bounds [a/(a+d), b/(b+c)] with the degenerate cases of the
    capacity-based conditioning rule; Undefined when evidence has upper
    probability zero. With one model per choice (well-founded), a = b and
    c = d, and the rule is P(q and e) / P(e)."""
    q_test, e_test = compile_event(q, g), compile_event(e, g)
    mass = _sweep(g, lambda m: (q_test(m), e_test(m)), solve, max_choices, stats)
    a, b = _fold(mass, lambda qe: qe[0] and qe[1])
    c, d = _fold(mass, lambda qe: not qe[0] and qe[1])
    if b + d == 0:
        return UNDEFINED
    if b + c == 0 and d > 0:
        return CredalInterval(Fraction(0), Fraction(0))
    if a + d == 0 and b > 0:
        return CredalInterval(Fraction(1), Fraction(1))
    return CredalInterval(a / (a + d), b / (b + c))


def credal_conditional(
    g: GroundProgram,
    q: Event,
    e: Event,
    max_choices: int = DEFAULT_MAX_CHOICES,
    stats=None,
):
    """Lower and upper P(q | e) over the stable models of every total choice;
    Undefined when evidence has upper probability zero."""
    return _conditional(g, q, e, stable_models, max_choices, stats)


def wf_query(
    g: GroundProgram,
    q_assignments,
    e_assignments=None,
    max_choices: int = DEFAULT_MAX_CHOICES,
    stats=None,
):
    """P(q) (or P(q | e)) under the well-founded semantics: exact three-valued
    match against the well-founded model of every total choice."""
    result = _conditional(
        g, event_from_assignments(q_assignments),
        event_from_assignments(e_assignments or ()), _wf, max_choices, stats,
    )
    return result if result is UNDEFINED else result.lower


def wf_atom_distribution(
    g: GroundProgram, atom: str, max_choices: int = DEFAULT_MAX_CHOICES, stats=None
) -> WfDistribution:
    events = [Lit(atom, value) for value in (True, False, None)]
    return WfDistribution(*(p for p, _ in _bounds(g, events, _wf, max_choices, stats)))


def check_consistency(
    g: GroundProgram, max_choices: int = DEFAULT_MAX_CHOICES, stats=None
) -> ConsistencyReport:
    """The sweep with each choice's first stable model only, where a query
    takes them all; the witness is the choice it aborts on, and its mass is
    not read. Counts into ``stats`` as a sweep does, one model per choice."""
    try:
        _sweep(g, len, lambda k, f: islice(stable_models(k, f), 1), max_choices, stats)
    except InconsistentProgramError as exc:
        return ConsistencyReport(False, exc.witness)
    return ConsistencyReport(True)


def event_bounds(
    g: GroundProgram,
    events: list[Event],
    max_choices: int = DEFAULT_MAX_CHOICES,
    stats=None,
) -> list[CredalInterval]:
    """Lower/upper bounds for several events in one sweep over total choices."""
    bounds = _bounds(g, events, stable_models, max_choices, stats)
    return [CredalInterval(lower, upper) for lower, upper in bounds]


def missing_atoms(g: GroundProgram, assignments) -> list[str]:
    """Query atoms absent from the active atom table; they are false in every
    model by the grounding guarantee (callers may warn)."""
    return [str(atom) for atom, _ in assignments if g.atom_id(str(atom)) is None]
