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

from .grounding import GroundProgram, GroundRule

Interpretation = list  # list[bool]
PartialInterpretation = list  # list[bool | None]

MEMO_CAP = 4096  # entries of each memo kept across choices, all dropped when full


# ---------------------------------------------------------------------------
# Compiled program and least model (Dowling-Gallier counter propagation)


class Kernel:
    """A ground program compiled once and shared by all its total choices.

    Holds the Dowling-Gallier index (per-rule heads, positive and negative
    watch lists by atom, each distinct body atom once), the counters every
    least model starts from (``blocked``: per rule, its distinct body atoms,
    every negatively occurring atom assumed true) and ``free``, the heads of
    the rules at 0 there, the atoms with a negative watch list
    (``negative``, an int mask like every atom set here) and, built on first
    use, the branching order of the search. Kept choice atoms are extra
    facts: no choice copies the program.

    It also holds one total choice, the one being solved: its ``facts``
    (and their mask, ``fact_mask``), the cache ``gammas`` of its reduct
    least models (see ``_gamma``) and ``base``, replaced together when
    ``_load`` brings other facts or ``carried`` the next choice of a sweep;
    nothing else assigns them.
    ``gammas`` is keyed by the negatively occurring atoms each model assumed
    true, a subset of ``negative``; ``base`` is the counters and true set of
    the least model that assumed them all true, Γ(``negative``), which every
    other entry extends unless ``reducts`` holds it. ``alternating_iterates`` compares the keys to skip
    the calls whose answer it already holds. ``kept_facts`` returns a tuple,
    so the facts a sweep passes on are the very object loaded. ``atoms``
    (all atom ids) starts the downward iterates of ``well_founded_model``.
    The choice's state also holds ``wf``, the true and the not-false masks
    of its well-founded model, which ``well_founded_model`` leaves there
    each time it computes one, for ``stable_models`` to read.

    Two memos outlive the choices, each of at most ``MEMO_CAP`` entries
    that hold for any facts loaded. ``residuals`` maps the key of each
    residual program a search ran to the end on (see ``_residual``) to the
    undefined part of each model found, in order, for ``stable_models`` to
    replay. ``reducts`` maps a Γ key and the facts that Γ reads to the rest
    of its least model, with ``relevant`` the atoms each key's Γ reads (see
    ``_gamma``). ``masks`` (per rule, its body masks) and ``headed`` (every
    rule head) are built on the first need, never for a definite program.
    """

    def __init__(self, g: GroundProgram):
        n = g.n_atoms
        self.n_atoms = n
        self.rules = tuple(g.rules)
        self.heads = [head for head, _, _ in g.rules]
        self.blocked: list[int] = []
        self.free: list[int] = []
        self.pos_watch: list[list[int]] = [[] for _ in range(n)]
        self.neg_watch: list[list[int]] = [[] for _ in range(n)]
        blocked, free = self.blocked, self.free
        pos_watch, neg_watch = self.pos_watch, self.neg_watch
        for ri, (head, pos, neg) in enumerate(g.rules):
            if len(pos) > 1:  # each distinct atom once
                pos = set(pos)
            if len(neg) > 1:
                neg = set(neg)
            count = len(pos) + len(neg)
            blocked.append(count)
            if not count:
                free.append(head)
            for a in pos:
                pos_watch[a].append(ri)
            for a in neg:
                neg_watch[a].append(ri)
        self.negative = _mask(map(bool, neg_watch))
        self.atoms = (1 << n) - 1
        self.facts: tuple[int, ...] | None = None
        self.fact_mask = 0
        self.gammas: dict[int, int] = {}
        self.base: tuple[list[int], int] | None = None
        self.choice_atoms = [cp.ground_atom for cp in g.choice_points]
        self.wf = (0, 0)
        self.residuals: dict[tuple[int, int], tuple[int, ...]] = {}
        self.reducts: dict[tuple[int, int], int] = {}
        self.relevant: dict[int, int] = {}
        self._order: list[int] | None = None
        self.masks: list[tuple[int, int]] | None = None
        self.headed = 0
        self.by_head: list[list[tuple[int, int, int]]] | None = None

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


def _extend(k: Kernel, missing, true: int, queue, false: int = 0) -> int | None:
    """Dowling-Gallier propagation: add the ``queue`` atoms to the mask
    ``true``, count them down in the rules whose positive body holds them and
    fire each rule at 0, updating ``missing`` in place; returns the grown
    mask. Adding facts is monotone, so the counters and true set of a least
    model extend to those of the least model with more facts. Linear in the
    body size of the rules it fires. Returns None as soon as an atom of the
    mask ``false`` would enter."""
    heads, pos_watch = k.heads, k.pos_watch
    while queue:
        aid = queue.pop()
        bit = 1 << aid
        if true & bit:
            continue
        if false & bit:
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
    ``assumed`` is the true set of an interpretation. Starts from
    ``Kernel.blocked`` and its ``free`` heads, with the negatively occurring
    atoms outside ``assumed`` counted false. Linear in total body size."""
    missing = k.blocked.copy()
    queue = _count_false(k, missing, k.negative & ~assumed)
    return missing, _extend(k, missing, 0, [*k.free, *facts, *queue])


def _count_false(k: Kernel, missing: list[int], atoms: int) -> list[int]:
    """Count ``atoms`` (a mask) false in the counters ``missing``, down in the
    rules whose negative body holds them; returns the heads at 0. Counters
    are ``Kernel.blocked``'s: a negative body atom counts until it is false."""
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
    holds replace ``facts``, ``fact_mask``, ``gammas`` and ``base``
    together, with Γ(``k.negative``) of the new facts run once as the base
    and its only entry. The one way into a total choice outside a sweep
    (``carried``)."""
    k = g if isinstance(g, Kernel) else Kernel(g)
    if facts is not k.facts:
        facts = tuple(facts)
        if facts != k.facts:
            k.base = _state(k, facts, k.negative)
            k.gammas = {k.negative: k.base[1]}
            k.fact_mask = sum({1 << a for a in facts})
        k.facts = facts
    return k


def _rule_masks(k: Kernel) -> list[tuple[int, int]]:
    """``Kernel.masks``, per rule its (positive, negative) body masks, and
    ``Kernel.headed``, built on the first call."""
    if k.masks is None:
        k.masks = [
            (sum({1 << a for a in pos}), sum({1 << a for a in neg}))
            for _, pos, neg in k.rules
        ]
        k.headed = sum({1 << head for head in k.heads})
    return k.masks


def _relevant(k: Kernel, key: int) -> int:
    """The atoms Γ(``key``) reads of its facts: every rule head, and the
    positive body atoms of the rules ``key`` leaves alive (no negative body
    atom in ``key``)."""
    relevant = 0
    for pos, neg in _rule_masks(k):
        if not neg & key:
            relevant |= pos
    return relevant | k.headed


def _gamma(k: Kernel, key: int) -> int:
    """The least model of the reduct by any set whose negatively occurring
    atoms are ``key``, a subset of ``k.negative`` (Van Gelder's Γ), for the
    loaded total choice, cached in ``k``: two sets with one key have one
    answer. In a sweep, ``carried`` has already put the keys ∅ and
    ``k.negative`` and the base state there.

    A miss first asks ``k.reducts``, the memo shared by all choices, under
    ``(key, facts & R)``, where R (``_relevant``, cached per key in
    ``k.relevant``) is every rule head plus the positive body atoms of the
    rules ``key`` leaves alive. A fact outside R heads no rule and is in no
    live positive body: it fires nothing and nothing derives it, so it adds
    only itself, and Γ(key) = Γ'(key) | (facts & ~R), where Γ' is the least
    model of the facts in R alone under the same rules, fixed by the key and
    those facts. The memo holds Γ'; choices that differ only outside R share
    it. On a memo miss,
    the atoms of ``k.negative`` outside ``key`` are counted false in a copy
    of the base state Γ(``k.negative``) (``k.base``) and the copy is
    extended: un-assuming atoms only unblocks rules, so the least model
    only grows. So no Γ of a sweep starts from ``Kernel.blocked``
    (``_state``). The memo is dropped, with ``k.relevant``, when it holds
    ``MEMO_CAP`` entries."""
    true = k.gammas.get(key)
    if true is None:  # not ``if not true``: an empty least model is 0
        relevant = k.relevant.get(key)
        if relevant is None:
            relevant = k.relevant[key] = _relevant(k, key)
        loose = k.fact_mask & ~relevant
        memo = key, k.fact_mask & relevant
        part = k.reducts.get(memo)
        if part is None:
            missing = k.base[0].copy()
            queue = _count_false(k, missing, k.negative & ~key)
            part = _extend(k, missing, k.base[1], queue) & ~loose
            if len(k.reducts) >= MEMO_CAP:
                k.reducts.clear()
                k.relevant.clear()
            k.reducts[memo] = part
        true = k.gammas[key] = part | loose
    return true


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
    other Γ of the choice extends a copy of it or comes from the memo
    (``_gamma``). The mask of
    the kept atoms has a stack of its own, ``fact_masks``. Each choice is
    loaded here, with the kept atoms as ``k.facts``, so the yielded facts
    are the very object ``_load`` finds there."""
    n = len(k.choice_atoms)
    stacks = dict.fromkeys((0, k.negative))  # one key if no negation
    for key in stacks:
        stacks[key] = [_state(k, (), key)] * (n + 1)
    fact_masks = [0] * (n + 1)
    for mask, choice in enumerate(choices):
        if mask:
            b = (mask & -mask).bit_length() - 1
            atom = k.choice_atoms[b]
            for state in stacks.values():
                missing, true = state[b + 1]
                missing = missing.copy()
                true = _extend(k, missing, true, [atom])
                state[: b + 1] = [(missing, true)] * (b + 1)
            fact_masks[: b + 1] = [fact_masks[b + 1] | 1 << atom] * (b + 1)
        facts = k.kept_facts(choice.kept)
        k.facts, k.base, k.fact_mask = facts, stacks[k.negative][0], fact_masks[0]
        k.gammas = {key: state[0][1] for key, state in stacks.items()}
        yield choice, facts


def reduct(g: GroundProgram, interp: Interpretation) -> GroundProgram:
    """Gelfond-Lifschitz reduct: drop rules blocked by true negated atoms,
    strip remaining negative literals."""
    return g.with_rules([
        GroundRule(rule.head, rule.pos, ())
        for rule in g.rules if not any(interp[n] for n in rule.neg)
    ])


def is_stable(g: GroundProgram | Kernel, interp: Interpretation | int, facts=()) -> bool:
    """Whether ``interp`` is the least model of its reduct (with ``facts``):
    a list of bools, or the ``int`` mask of its true atoms, which
    ``stable_models`` passes so that no list is built for a candidate it
    may reject. A three-valued ``interp`` (holding ``None``) is not."""
    k = _load(g, facts)
    try:
        true = interp if type(interp) is int else _mask(interp)
    except TypeError:  # ``bytes`` refuses None; no scan on the total path
        return False
    if type(interp) is not int and len(interp) != k.n_atoms:
        return False
    return _gamma(k, k.negative & true) == true


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
    every other atom false. The two fixpoints are left in ``Kernel.wf``."""
    k = _load(g, facts)
    lfp = alternating_iterates(k, 0, k.facts)[-1]
    gfp = alternating_iterates(k, k.atoms, k.facts)[-1]
    k.wf = lfp, gfp
    model: PartialInterpretation = _bools(k.n_atoms, lfp)
    if gfp != lfp:
        for aid in _ids(k, gfp ^ lfp):  # lfp ⊆ gfp
            model[aid] = None
    return model


# ---------------------------------------------------------------------------
# Stable-model enumeration


def _propagate(k: Kernel, missing, must: int, false: int, queue, new: int):
    """Set the ``queue`` atoms true and the mask ``new`` false at a search
    node, then narrow it to what every stable model extending it agrees on,
    with two least models per round (the smodels atleast/atmost pair);
    returns the narrowed ``(must, false)``, or None when no stable model
    extends it (a false atom enters ``must``, or ``must`` leaves ``can``):

    - ``must``, the true atoms, is the least model of the facts and the
      atoms set true under the rules whose negative body is all ``false``.
      It comes down the search tree with its counters ``missing``
      (``Kernel.blocked``'s), updated in place by ``_count_false`` for each
      atom set false and by ``_extend`` for each atom entering ``must``.
    - ``can``, the least model of the reduct by ``must`` (cached by
      ``_gamma``), contains every such stable model; atoms outside it
      become false, until none is new.
    """
    while True:
        false |= new
        queue += _count_false(k, missing, k.negative & new)  # ``_extend`` empties it
        must = _extend(k, missing, must, queue, false)
        if must is None:
            return None
        can = _gamma(k, k.negative & must)
        if must & ~can:
            return None
        new = k.atoms & ~(can | false)
        if not new:
            return must, false


def _residual(k: Kernel, true: int, not_false: int) -> tuple[int, int]:
    """The key of the residual program of a well-founded model (the masks
    ``true`` and ``not_false``): its undefined atoms and the rules that head
    one and that it leaves alive, with no positive body atom false and no
    negative one true. Those rules, cut to their undefined literals, have
    as stable models the undefined parts of the program's (Brass, Dix,
    Freitag & Zukowski), so two total choices with one key share them.
    Reads ``Kernel.by_head``: per atom, (rule id, positive body mask,
    negative body mask) of each rule with that head, built here from
    ``Kernel.masks`` on the first call."""
    if k.by_head is None:
        k.by_head = [[] for _ in range(k.n_atoms)]
        for ri, (head, masks) in enumerate(zip(k.heads, _rule_masks(k))):
            k.by_head[head].append((ri, *masks))
    undefined, alive, by_head = not_false & ~true, 0, k.by_head
    atoms = undefined
    while atoms:
        low = atoms & -atoms
        for ri, pos, neg in by_head[low.bit_length() - 1]:
            if not (pos & ~not_false or neg & true):
                alive |= 1 << ri
        atoms ^= low
    return undefined, alive


def stable_models(g: GroundProgram | Kernel, facts=()) -> Iterator[Interpretation]:
    """All stable models (with ``facts`` added), no duplicates, in
    lexicographic order on ``Kernel.order``.

    A total well-founded model is the one candidate, yielded as is if
    ``is_stable``; its masks are read from ``Kernel.wf``. Otherwise, when
    ``Kernel.residuals`` holds the choice's residual program (``_residual``),
    its models are replayed on the well-founded true atoms, each checked by
    ``is_stable``. Otherwise a search node is two masks, the true atoms
    ``must`` and the ``false`` ones, with the counters of ``must``; the root
    sets the well-founded literals on a copy of the choice's ``Kernel.base``.
    Each node is narrowed by ``_propagate`` and branches on its first
    undecided atom of ``Kernel.order``, false first: that branch copies the
    counters, and the true one, searched after it, takes them. A decided
    leaf is closed under its reduct and inside its least model, so stable;
    ``is_stable`` checks it by definition. Every candidate goes to
    ``is_stable`` as a mask, and a fresh ``bool`` list is built only for a
    model yielded. A search run to the end is stored in
    ``Kernel.residuals``; one the consumer stops is not. The consumer may
    load other facts into the kernel between two models, so the search
    loads its own again (``_load``).
    """
    k = _load(g, facts)
    facts = k.facts
    wf = well_founded_model(k, facts)
    true, not_false = k.wf
    if true == not_false:
        if is_stable(k, true, facts):
            yield wf
        return
    key = _residual(k, true, not_false)
    replay = k.residuals.get(key)
    if replay is not None:
        for part in replay:
            if is_stable(k, true | part, facts):
                yield _bools(k.n_atoms, true | part)
        return
    undefined, found = key[0], []
    # (must, false, missing, atoms to set true, mask to set false); an
    # explicit stack, not recursion: pushing true first explores false first
    queue, false = list(_ids(k, true)), k.atoms & ~not_false
    stack = [(k.base[1], 0, k.base[0].copy(), queue, false)]
    while stack:
        must, false, missing, queue, new = stack.pop()
        node = _propagate(k, missing, must, false, queue, new)
        if node is None:
            continue
        must, false = node
        decided = must | false
        if decided == k.atoms:
            if is_stable(k, must, facts):
                found.append(must & undefined)
                yield _bools(k.n_atoms, must)
                _load(k, facts)
            continue
        aid = next(a for a in k.order if not decided >> a & 1)
        stack.append((must, false, missing, [aid], 0))
        stack.append((must, false, missing.copy(), [], 1 << aid))
    if len(k.residuals) >= MEMO_CAP:
        k.residuals.clear()
    k.residuals[key] = tuple(found)
