"""Exact probabilistic inference over total choices.

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

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator

from .errors import UNDEFINED, InconsistentProgramError, ResourceGuardError
from .grounding import GroundProgram, GroundRule
from .models import (
    Event,
    Kernel,
    compile_event,
    event_from_assignments,
    stable_models,
    well_founded_model,
)

# unused here, but the benchmark's tracer (plpbench/spans.py) wraps both in
# this module, and tests/test_trace_targets.py fails without them
from .models import eval_event, truth3_in  # noqa: F401

DEFAULT_MAX_CHOICES = 20


@dataclass(frozen=True)
class TotalChoice:
    kept: tuple[bool, ...]  # indexed by ChoicePoint id
    weight: Fraction

    def __str__(self) -> str:
        return "{" + "".join("1" if k else "0" for k in self.kept) + "}"

    def describe(self, g: GroundProgram) -> str:
        parts = [
            f"{'keep' if k else 'discard'} {g.atoms[cp.ground_atom]}"
            for cp, k in zip(g.choice_points, self.kept)
        ]
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class CredalInterval:
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper <= 1:
            raise ValueError(
                f"credal interval needs 0 <= lower <= upper <= 1, "
                f"got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class WfDistribution:
    p_true: Fraction
    p_false: Fraction
    p_undefined: Fraction


@dataclass
class ConsistencyReport:
    consistent: bool
    witness: TotalChoice | None = None


def _numerators(g: GroundProgram) -> tuple[list[tuple[int, int]], int]:
    """Per choice point, the integer numerators of its (discarded, kept)
    weights over that point's denominator; and D, the product of those
    denominators, the denominator of every total choice's weight."""
    numerators, d = [], 1
    for cp in g.choice_points:
        num, den = cp.prob.numerator, cp.prob.denominator
        numerators.append((den - num, num))
        d *= den
    return numerators, d


def total_choices(
    g: GroundProgram, max_choices: int = DEFAULT_MAX_CHOICES
) -> Iterator[TotalChoice]:
    """All 2^n total choices in binary-counting order on choice-point ids
    (id 0 is the least significant bit). Weight numerators are kept as
    integer suffix products over the common denominator D, so a step
    recomputes only the factors of the bits it flips, about two integer
    multiplications per choice, and builds one ``Fraction``."""
    n = len(g.choice_points)
    if n > max_choices:
        raise ResourceGuardError(
            f"{n} choice points exceeds cap of {max_choices} (2^n total choices)"
        )
    numerators, d = _numerators(g)
    kept = [False] * n
    suffix = [1] * (n + 1)
    for mask in range(1 << n):
        # counting up to ``mask`` changed the bits below ``stop`` only
        stop = (mask & -mask).bit_length() or n
        for i in range(stop - 1, -1, -1):
            kept[i] = bool((mask >> i) & 1)
            suffix[i] = suffix[i + 1] * numerators[i][kept[i]]
        yield TotalChoice(tuple(kept), Fraction(suffix[0], d))


def program_for_choice(g: GroundProgram, choice: TotalChoice) -> GroundProgram:
    """Kept choice atoms become facts; discarded atoms stay in the table and
    are false unless derivable. The sweeps below pass the kept atoms to a
    compiled ``Kernel`` instead; this copy is the reference they match."""
    out = GroundProgram(
        atoms=list(g.atoms),
        index=dict(g.index),
        choice_points=list(g.choice_points),
    )
    for cp, kept in zip(g.choice_points, choice.kept):
        if kept:
            out.rules.append(GroundRule(cp.ground_atom, (), ()))
    out.rules.extend(g.rules)
    return out


def _sweep(g: GroundProgram, project, semantics: str, max_choices, stats=None):
    """Map each set S of ``project`` images to the weight of the total choices
    whose models (all stable ones, or the well-founded one when ``semantics``
    is "wf") project onto exactly S. Aborts on the first choice without a
    stable model; counts choices and models into ``stats``. Weights add up
    as integer numerators over D (see ``_numerators``), with one ``Fraction``
    per set at the end."""
    k = Kernel(g)
    d = _numerators(g)[1]
    mass: dict[frozenset, int] = {}
    choices = found = 0
    try:
        for choice in total_choices(g, max_choices):
            facts = k.kept_facts(choice.kept)
            if semantics == "wf":
                models = [well_founded_model(k, facts)]
            else:
                models = list(stable_models(k, facts))
                if not models:
                    raise InconsistentProgramError(choice, choice.describe(g))
            choices += 1
            found += len(models)
            key = frozenset(map(project, models))
            weight = choice.weight
            mass[key] = mass.get(key, 0) + weight.numerator * (d // weight.denominator)
    finally:  # an aborted sweep still reports the choices it solved
        if stats is not None:
            stats["choices"] = stats.get("choices", 0) + choices
            stats["models"] = stats.get("models", 0) + found
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


def credal_unconditional(
    g: GroundProgram,
    q: Event,
    max_choices: int = DEFAULT_MAX_CHOICES,
    stats=None,
) -> CredalInterval:
    return event_bounds(g, [q], max_choices, stats)[0]


def _conditional(g: GroundProgram, q: Event, e: Event, semantics, max_choices, stats):
    """Conditional bounds [a/(a+d), b/(b+c)] with the degenerate cases of the
    capacity-based conditioning rule; Undefined when evidence has upper
    probability zero. With one model per choice ("wf"), a = b and c = d, and
    the rule is P(q and e) / P(e)."""
    q_test, e_test = compile_event(q, g), compile_event(e, g)
    mass = _sweep(g, lambda m: (q_test(m), e_test(m)), semantics, max_choices, stats)
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
    return _conditional(g, q, e, "stable", max_choices, stats)


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
        event_from_assignments(e_assignments or ()), "wf", max_choices, stats,
    )
    return result if result is UNDEFINED else result.lower


def wf_atom_distribution(
    g: GroundProgram, atom: str, max_choices: int = DEFAULT_MAX_CHOICES
) -> WfDistribution:
    aid = g.atom_id(atom)
    project = (lambda wf: False) if aid is None else itemgetter(aid)
    mass = _sweep(g, project, "wf", max_choices)
    return WfDistribution(
        *(_fold(mass, lambda v: v is value)[0] for value in (True, False, None))
    )


def check_consistency(
    g: GroundProgram, max_choices: int = DEFAULT_MAX_CHOICES
) -> ConsistencyReport:
    """Its own loop rather than a sweep: it stops at the first stable model of
    each choice, where a sweep would enumerate them all."""
    k = Kernel(g)
    for choice in total_choices(g, max_choices):
        if next(iter(stable_models(k, k.kept_facts(choice.kept))), None) is None:
            return ConsistencyReport(False, choice)
    return ConsistencyReport(True)


def event_bounds(
    g: GroundProgram,
    events: list[Event],
    max_choices: int = DEFAULT_MAX_CHOICES,
    stats=None,
) -> list[CredalInterval]:
    """Lower/upper bounds for several events in one sweep over total choices."""
    tests = [compile_event(e, g) for e in events]
    mass = _sweep(
        g, lambda m: tuple([test(m) for test in tests]), "stable", max_choices, stats
    )
    return [CredalInterval(*_fold(mass, itemgetter(i))) for i in range(len(events))]


def missing_atoms(g: GroundProgram, assignments) -> list[str]:
    """Query atoms absent from the active atom table; they are false in every
    model by the grounding guarantee (callers may warn)."""
    return [str(atom) for atom, _ in assignments if g.atom_id(str(atom)) is None]
