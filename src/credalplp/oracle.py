"""The semantics by definition, on sets of atom ids: the reference that
``--cross-check`` and the differential tests hold the engine to. It imports
only ``grounding`` and ``errors``, so it shares no code with the kernel it
checks. ``facts`` are extra facts, such as a total choice's kept atoms."""

from functools import partial
from itertools import compress, product

from .errors import ResourceGuardError
from .grounding import GroundProgram

DEFAULT_EXHAUSTIVE_LIMIT = 20


def reduct_least_model(g: GroundProgram, facts=(), assumed=frozenset()) -> set[int]:
    """The least model of ``facts`` plus the rules of ``g`` whose negative
    body misses the set ``assumed``, negative literals stripped: that of the
    Gelfond-Lifschitz reduct by ``assumed`` (Van Gelder's Γ). T_P is iterated
    until it adds nothing."""
    rules = [(head, set(pos)) for head, pos, neg in g.rules if assumed.isdisjoint(neg)]
    true = set(facts)
    while not (heads := {head for head, pos in rules if pos <= true}) <= true:
        true |= heads
    return true


def least_model(g: GroundProgram) -> list[bool]:
    """The least model of a definite program: its one stable model."""
    if any(rule.neg for rule in g.rules):
        raise ValueError("least_model requires a definite program")
    return exhaustive_stable_models(g)[0]


def alternating_iterates(g: GroundProgram, facts=(), start=()) -> list[set[int]]:
    """The iterates of Γ∘Γ from ``start``, up to the first that repeats."""
    out, gamma = [set(start)], partial(reduct_least_model, g, facts)
    while (nxt := gamma(gamma(out[-1]))) != out[-1]:
        out.append(nxt)
    return out


def well_founded_model(g: GroundProgram, facts=()) -> list[bool | None]:
    """Van Gelder's alternating fixpoint: the least fixpoint T of Γ∘Γ is
    true, the atoms of Γ(T) outside T undefined and the rest false."""
    true = alternating_iterates(g, facts)[-1]
    can = reduct_least_model(g, facts, true)
    return [True if a in true else None if a in can else False for a in range(g.n_atoms)]


def exhaustive_stable_models(
    g: GroundProgram, limit: int = DEFAULT_EXHAUSTIVE_LIMIT, facts=()
) -> list[list[bool]]:
    """Every stable model, by brute force. A stable model is the least model
    of its reduct, which depends only on which negatively occurring atoms are
    true: so guess every set N of those atoms and keep the least model of the
    reduct by N when it holds exactly N of them; more than ``limit`` of them is
    refused. Models come in binary-counting order over all atoms, atom 0 lowest."""
    negative = sorted({a for rule in g.rules for a in rule.neg})
    if len(negative) > limit:
        raise ResourceGuardError(
            f"{len(negative)} negatively occurring atoms exceeds exhaustive "
            f"limit of {limit}"
        )
    out = []
    for bits in product((False, True), repeat=len(negative)):
        guess = set(compress(negative, bits))
        true = reduct_least_model(g, facts, guess)
        if true.intersection(negative) == guess:
            out.append([a in true for a in range(g.n_atoms)])
    return sorted(out, key=lambda m: m[::-1])
