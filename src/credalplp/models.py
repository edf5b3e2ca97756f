"""Model computation for ground normal programs.

Interpretations are lists indexed by atom id: ``bool`` entries for two-valued
models, ``bool | None`` for three-valued ones (``None`` = undefined). Atoms
omitted from the atom table by active grounding are false everywhere; the
events of ``inference`` read models with that rule. Inside the kernel an atom
set is an immutable ``int`` mask, atom id i as bit i.
"""

from __future__ import annotations

from itertools import chain, compress, product
from typing import Iterator

from .errors import ResourceGuardError
from .grounding import GroundProgram, GroundRule

Interpretation = list  # list[bool]
PartialInterpretation = list  # list[bool | None]

DEFAULT_EXHAUSTIVE_LIMIT = 20


# ---------------------------------------------------------------------------
# Compiled program and least model (Dowling-Gallier counter propagation)


class Kernel:
    """A ground program compiled once and shared by all its total choices.

    Holds the Dowling-Gallier index (per-rule heads and counts of distinct
    positive body atoms, positive and negative watch lists by atom, each
    distinct body atom once, and the rules without a positive body), the
    atoms with a negative watch list (``negative``, an int mask like every
    atom set here) and, built on first use, the branching order of the
    search. Kept choice atoms are extra facts: no choice copies the program.

    It also holds one total choice, the one being solved: its ``facts``, the
    cache ``gammas`` of its reduct least models (see ``_gamma``) and
    ``base``, replaced together when ``_load`` brings other facts or
    ``carried`` the next choice of a sweep; nothing else assigns them.
    ``gammas`` is keyed by the negatively occurring atoms each model assumed
    true, a subset of ``negative``; ``base`` is the counters and true set of
    the least model that assumed them all true, Γ(``negative``), which every
    other entry extends. ``alternating_iterates`` compares the keys to skip
    the calls whose answer it already holds. ``kept_facts`` returns a tuple,
    so the facts a sweep passes on are the very object loaded. ``atoms``
    (all atom ids) starts the downward iterates of ``well_founded_model``.
    """

    def __init__(self, g: GroundProgram):
        n = g.n_atoms
        self.n_atoms = n
        self.rules = tuple(g.rules)
        self.heads = [head for head, _, _ in g.rules]
        self.pos_count: list[int] = []
        self.pos_watch: list[list[int]] = [[] for _ in range(n)]
        self.neg_watch: list[list[int]] = [[] for _ in range(n)]
        pos_count, pos_watch, neg_watch = self.pos_count, self.pos_watch, self.neg_watch
        for ri, (_, pos, neg) in enumerate(g.rules):
            if len(pos) > 1:  # each distinct atom once
                pos = set(pos)
            pos_count.append(len(pos))
            for a in pos:
                pos_watch[a].append(ri)
            for a in set(neg) if neg else ():
                neg_watch[a].append(ri)
        self.body_free = [ri for ri, count in enumerate(pos_count) if count == 0]
        self.negative = _mask(map(bool, neg_watch))
        self.atoms = (1 << n) - 1
        self.facts: tuple[int, ...] | None = None
        self.gammas: dict[int, int] = {}
        self.base: tuple[list[int], int] | None = None
        self.choice_atoms = [cp.ground_atom for cp in g.choice_points]
        self._order: list[int] | None = None

    @property
    def order(self) -> list[int]:
        """The branching order of the stable-model search: most occurrences
        in rule bodies first (repeats counted), lowest id on ties (the sort
        is stable, also reversed), counted and sorted on the first branch.
        Kept in ``_order``, which ``__init__`` sets:
        ``functools.cached_property`` would write through the instance
        ``__dict__``, and a materialised ``__dict__`` slows every attribute
        read of the kernel in the least-model loops."""
        if self._order is None:
            occurrences = [0] * self.n_atoms
            for _, pos, neg in self.rules:
                for a in pos + neg:
                    occurrences[a] += 1
            self._order = sorted(
                range(self.n_atoms), key=occurrences.__getitem__, reverse=True
            )
        return self._order

    def kept_facts(self, kept) -> tuple[int, ...]:
        """Atoms of the choice points a total choice keeps (``kept`` is
        indexed by choice-point id)."""
        return tuple(compress(self.choice_atoms, kept))


_BYTE_BOOLS = [bits[::-1] for bits in product((False, True), repeat=8)]  # low bit first
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def _bools(n: int, mask: int) -> Interpretation:
    """A fresh list of ``n`` bools, True at the atoms of ``mask``, by bytes."""
    by_byte = map(_BYTE_BOOLS.__getitem__, mask.to_bytes(n + 7 >> 3, "little"))
    return list(chain.from_iterable(by_byte))[:n]


def _mask(flags) -> int:
    """The mask of the atom ids whose entry in ``flags`` (bools) is True."""
    return int(bytes(flags)[::-1].translate(_BIT_CHARS) or b"0", 2)


def _ids(k: Kernel, mask: int) -> Iterator[int]:
    """The atom ids of ``mask``, ascending."""
    return compress(range(k.n_atoms), _bools(k.n_atoms, mask))


def _base(k: Kernel, assumed: int) -> tuple[list[int], list[int]]:
    """The counters every least model here starts from, and the queue of the
    heads of the rules at 0: per rule, its positive body atoms not yet true
    plus its negative body atoms not yet false, where only the atoms of the
    mask ``assumed`` are not false, so a rule whose negative body meets it
    never fires by positive atoms alone."""
    missing = k.pos_count.copy()
    neg_watch = k.neg_watch
    for a in _ids(k, assumed):
        for ri in neg_watch[a]:
            missing[ri] += 1
    heads = k.heads
    return missing, [heads[ri] for ri in k.body_free if missing[ri] == 0]


def _extend(k: Kernel, missing, true: int, queue, assign=None) -> int | None:
    """Dowling-Gallier propagation: add the ``queue`` atoms to the mask
    ``true``, count them down in the rules whose positive body holds them and
    fire each rule at 0, updating ``missing`` in place; returns the grown
    mask. Adding facts is monotone, so the counters and true set of a least
    model extend to those of the least model with more facts. Linear in the
    body size of the rules it fires. Given ``assign``, returns None as soon
    as an atom false in it would enter."""
    heads, pos_watch = k.heads, k.pos_watch
    while queue:
        aid = queue.pop()
        bit = 1 << aid
        if true & bit:
            continue
        if assign is not None and assign[aid] is False:
            return None
        true |= bit
        for ri in pos_watch[aid]:
            missing[ri] -= 1
            if missing[ri] == 0:
                queue.append(heads[ri])
    return true


def _state(k: Kernel, facts, assumed: int = 0) -> tuple[list[int], int]:
    """The counters and true set of the least model of ``facts`` plus the
    rules whose negative body misses ``assumed``, negative literals
    stripped, computed from scratch: the least model of the reduct when
    ``assumed`` is the true set of an interpretation. Linear in total body
    size."""
    missing, queue = _base(k, assumed)
    queue += facts
    return missing, _extend(k, missing, 0, queue)


def _lfp(k: Kernel, facts, assumed: int = 0) -> int:
    """The true set of ``_state``: the reference least model."""
    return _state(k, facts, assumed)[1]


def _count_false(k: Kernel, missing: list[int], atoms: int) -> list[int]:
    """Count ``atoms`` (a mask) false in ``_base``'s counters ``missing``, down
    in the rules whose negative body holds them; returns the heads at 0."""
    heads, neg_watch, queue = k.heads, k.neg_watch, []
    while atoms:  # ``_ids`` a bit at a time: few bits, on every cache miss
        low = atoms & -atoms
        for ri in neg_watch[low.bit_length() - 1]:
            missing[ri] -= 1
            if missing[ri] == 0:
                queue.append(heads[ri])
        atoms ^= low
    return queue


def _load(g: GroundProgram | Kernel, facts) -> Kernel:
    """The kernel of ``g`` (compiled if ``g`` is a program), holding the
    total choice whose kept atoms are ``facts``: other facts than those it
    holds replace ``facts``, ``gammas`` and ``base`` together, with
    Γ(``k.negative``) of the new facts run once as the base and its only
    entry. The one way into a total choice outside a sweep (``carried``)."""
    k = g if isinstance(g, Kernel) else Kernel(g)
    if facts is not k.facts:
        facts = tuple(facts)
        if facts != k.facts:
            k.base = _state(k, facts, k.negative)
            k.gammas = {k.negative: k.base[1]}
        k.facts = facts
    return k


def _gamma(k: Kernel, key: int) -> int:
    """The least model of the reduct by any set whose negatively occurring
    atoms are ``key``, a subset of ``k.negative`` (Van Gelder's Γ), for the
    loaded total choice, cached in ``k``: two sets with one key have one
    answer. A miss extends a copy of the base state Γ(``k.negative``)
    (``_unassume``): un-assuming the atoms of ``k.negative`` outside
    ``key`` only unblocks rules, so the least model only grows. In a sweep,
    ``carried`` has already put the keys ∅ and ``k.negative`` and the base
    state there, so no Γ of the sweep starts from ``_base``."""
    true = k.gammas.get(key)
    if true is None:  # not ``if not true``: an empty least model is 0
        true = k.gammas[key] = _extend(k, *_unassume(k, k.negative & ~key))
    return true


def _unassume(k: Kernel, atoms: int) -> tuple[list[int], int, list[int]]:
    """A copy of the counters of the loaded choice's Γ(``k.negative``)
    (``k.base``) and its true set, with the mask ``atoms`` (of
    ``k.negative``) counted false, and the heads of the rules that reach 0:
    ``_extend`` by those heads gives Γ(``k.negative`` minus ``atoms``)."""
    missing, true = k.base
    missing = missing.copy()
    return missing, true, _count_false(k, missing, atoms)


def carried(k: Kernel, choices) -> Iterator[tuple]:
    """Each total choice of ``choices`` (``inference.total_choices``, in its
    binary-counting order) with its kept atoms, once ``k``'s cache holds that
    choice's first two reduct least models, those of the well-founded model:
    Γ(∅) and Γ(``k.negative``), keyed ∅ and ``k.negative``.

    For one key, adding a fact only grows the least model. In
    binary-counting order the choice whose lowest kept bit is b keeps the
    atoms of the choice before it at the bits above b, plus atom b; so each
    key has a stack whose ``state[j]`` is the counters and true set of the
    kept atoms at bits >= j (the base state, with no kept atoms, at
    ``state[n]``). A choice copies ``state[b + 1]``, extends the copy by atom
    b and points ``state[0..b]`` at the result. That is one least model per
    key for the first choice and one extension per key for each later one;
    a stack holds at most n + 1 states. The ``k.negative`` stack's
    ``state[0]`` is also the choice's ``k.base``, shared, not copied: every
    other Γ of the choice extends a copy of it (``_gamma``). Each choice is
    loaded here, with the kept atoms as ``k.facts``, so the yielded facts
    are the very object ``_load`` finds there."""
    n = len(k.choice_atoms)
    stacks = dict.fromkeys((0, k.negative))  # one key if no negation
    for key in stacks:
        stacks[key] = [_state(k, (), key)] * (n + 1)
    for mask, choice in enumerate(choices):
        if mask:
            b = (mask & -mask).bit_length() - 1
            atom = k.choice_atoms[b]
            for state in stacks.values():
                missing, true = state[b + 1]
                missing = missing.copy()
                true = _extend(k, missing, true, [atom])
                state[: b + 1] = [(missing, true)] * (b + 1)
        facts = k.kept_facts(choice.kept)
        k.facts, k.base = facts, stacks[k.negative][0]
        k.gammas = {key: state[0][1] for key, state in stacks.items()}
        yield choice, facts


def least_model(g: GroundProgram) -> Interpretation:
    """Least fixpoint of the immediate-consequence operator. The program must
    be definite."""
    if any(rule.neg for rule in g.rules):
        raise ValueError("least_model requires a definite program")
    return _bools(g.n_atoms, _lfp(Kernel(g), ()))


def reduct(g: GroundProgram, interp: Interpretation) -> GroundProgram:
    """Gelfond-Lifschitz reduct: drop rules blocked by true negated atoms,
    strip remaining negative literals."""
    return g.with_rules([
        GroundRule(rule.head, rule.pos, ())
        for rule in g.rules if not any(interp[n] for n in rule.neg)
    ])


def is_stable(g: GroundProgram | Kernel, interp: Interpretation, facts=()) -> bool:
    """Whether ``interp`` (bools) is the least model of its reduct (with ``facts``)."""
    k = _load(g, facts)
    true = _mask(interp)
    return len(interp) == k.n_atoms and _gamma(k, k.negative & true) == true


# ---------------------------------------------------------------------------
# Well-founded model via the alternating fixpoint


def alternating_iterates(g: GroundProgram | Kernel, start, facts=()) -> list[int]:
    """Iterates of Γ∘Γ from ``start`` (a mask, or a set of atom ids) until
    stabilization (inclusive), as masks, where Γ is the cached ``_gamma``.

    Γ reads a set only through its key, its negatively occurring atoms,
    computed here once per set and looked up in the cache, a miss going to
    ``_gamma``: when Γ(S) has the key of S, the next iterate Γ(Γ(S)) = Γ(S)
    is a hit; and when a new iterate has the key of the one before it, the
    iterate after it equals it, so the list is complete, with no lookup for
    it. The lists are those of the plain loop. On a definite program every
    key is 0, so a call costs two lookups and no least model."""
    k = _load(g, facts)
    negative, gammas = k.negative, k.gammas
    s = start if type(start) is int else _mask(a in start for a in range(k.n_atoms))
    key = negative & s
    out = [s]
    while True:
        half = gammas[key] if key in gammas else _gamma(k, key)
        half_key = negative & half
        nxt = gammas[half_key] if half_key in gammas else _gamma(k, half_key)
        if nxt == s:
            return out
        out.append(nxt)
        nxt_key = negative & nxt
        if nxt_key == key:
            return out
        s, key = nxt, nxt_key


def well_founded_model(g: GroundProgram | Kernel, facts=()) -> PartialInterpretation:
    """The well-founded model (with ``facts`` added), a fresh list: the
    fixpoint of the iterates up from no atoms is true, the rest of the
    fixpoint of those down from all atoms (``Kernel.atoms``) undefined, and
    every other atom false."""
    k = _load(g, facts)
    lfp = alternating_iterates(k, 0, k.facts)[-1]
    gfp = alternating_iterates(k, k.atoms, k.facts)[-1]
    model: PartialInterpretation = _bools(k.n_atoms, lfp)
    if gfp != lfp:
        for aid in _ids(k, gfp ^ lfp):  # lfp ⊆ gfp
            model[aid] = None
    return model


# ---------------------------------------------------------------------------
# Stable-model enumeration


def _propagate(k: Kernel, assign, missing, must: int, aid) -> int | None:
    """Narrow ``assign``, just decided on ``aid``, to what every stable model
    extending it agrees on, with two least models per round (the smodels
    atleast/atmost pair), and return the narrowed ``must`` (a mask):

    - ``must``, the least model of the facts and true atoms under the rules
      whose negative body is all false: every such stable model contains it.
      It comes down the search tree with its ``_base`` counters ``missing``,
      updated in place: an atom set true enters ``must``, one set false is
      counted false (``_count_false``), and a rule at 0 puts its head into
      ``must``.
    - ``can``, the least model of the reduct by ``must``, which the round
      makes the true atoms: every such stable model is contained in it. It
      comes from the cache of ``_gamma``, for the loaded total choice.

    Undecided atoms in ``must`` become true and those outside ``can`` false,
    until nothing changes. Returns None as soon as a false atom enters
    ``must`` or ``must`` leaves ``can``: no stable model extends ``assign``.
    """
    queue = [aid] if assign[aid] else _count_false(k, missing, 1 << aid)
    while True:
        must = _extend(k, missing, must, queue, assign)
        if must is None:
            return None
        can = _gamma(k, k.negative & must)
        if must & ~can:
            return None
        decided = must | ~can
        changed = [a for a, v in enumerate(assign) if v is None and decided >> a & 1]
        if not changed:
            return must
        for a in changed:
            assign[a] = bool(must >> a & 1)
        queue = _count_false(k, missing, sum([1 << a for a in changed]) & ~must)


def stable_models(g: GroundProgram | Kernel, facts=()) -> Iterator[Interpretation]:
    """All stable models (with ``facts`` added), no duplicates, deterministic
    order.

    Strategy: fix the well-founded literals, branch on the first undecided
    atom of ``Kernel.order`` (false before true) and ``_propagate`` after
    each decision, so models come in lexicographic order on ``Kernel.order``.
    Propagation's lower bound is seeded at a well-founded model (T, U) that
    is not total, as the choice's ``Kernel.base`` with the atoms outside U
    counted false (``_unassume``), extended by T, and carried down: the
    false branch copies its parent's counters, the true branch, searched
    after it, takes them, and both take the mask ``must``. A total leaf that
    survives propagation is closed under its reduct and inside its least
    model, so it is stable; ``is_stable`` still checks it by definition.
    The well-founded model itself is not propagated, so a total one is a
    leaf with a single ``is_stable`` call.

    Every model is a fresh list of ``bool``: a total leaf, with no ``None``
    left, is yielded as is, because no other assignment shares its list.
    The consumer may load other facts into the kernel between two models, so
    the search loads its own again (``_load``) when it resumes.
    """
    k = _load(g, facts)
    facts = k.facts
    wf = well_founded_model(k, facts)
    # explicit stack, not recursion: pushing True first explores False first
    stack = [(wf, None, None, None)]
    while stack:
        assign, missing, must, aid = stack.pop()
        # at the well-founded model (T, U), must = T and can = U: nothing to do
        if assign is not wf:
            must = _propagate(k, assign, missing, must, aid)
            if must is None:
                continue
        if None not in assign:
            if is_stable(k, assign, facts):
                yield assign
                _load(k, facts)
            continue
        if assign is wf:
            false = k.negative & ~_mask([v is not False for v in wf])
            missing, must, queue = _unassume(k, false)
            must = _extend(k, missing, must, queue + [a for a, v in enumerate(wf) if v])
        aid = next(a for a in k.order if assign[a] is None)
        for value in (True, False):
            branch = list(assign)
            branch[aid] = value
            if not value:
                missing = missing.copy()
            stack.append((branch, missing, must, aid))


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
    negative = list(_ids(k, k.negative))
    if len(negative) > limit:
        raise ResourceGuardError(
            f"{len(negative)} negatively occurring atoms exceeds exhaustive "
            f"limit of {limit}"
        )
    out = []
    for mask in range(1 << len(negative)):
        guess = sum(1 << a for i, a in enumerate(negative) if (mask >> i) & 1)
        true = _lfp(k, (), guess)
        if true & k.negative == guess:
            out.append(_bools(k.n_atoms, true))
    return sorted(out, key=lambda m: m[::-1])
