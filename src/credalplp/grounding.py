"""Grounding and structural classification.

Grounding is *active*: a ground rule is kept only when every positive body
atom is possibly true, where possibly-true is the least fixpoint seeded by
deterministic facts and choice-point atoms with negative subgoals treated as
satisfiable. Atoms that are never possibly true are omitted from the atom
table and are false in every stable/well-founded model of every total choice,
so negative literals over them are simply dropped.

Each rule is compiled once into a join plan over slots: a rule's values are
those of its variables, in sorted name order, then its constants, and each
argument of the head and of every subgoal is a slot, the index of its value.
Per positive subgoal the plan holds its predicate, arity and the argument
positions already bound when the join reaches it (constants and variables of
earlier subgoals), plus the variables no positive subgoal binds, which range
over the whole universe. A subgoal finds its candidates in a hash index on
those positions, one index per (predicate, arity, bound positions) that some
plan names, kept current as atoms are added. The join writes each value into
one list by slot and yields a substitution as the tuple of that list. The
fixpoint is semi-naive (Bancilhon & Ramakrishnan 1986): the heads of rules
without positive subgoals are added once, and each later round joins a rule
once per positive subgoal j, with subgoal j matching only atoms first added
in the previous round, the subgoals before j only older atoms, and those
after j any atom. A round's new heads are collected before any is added, so
no index changes under a running join. Each substitution is found in exactly
one round, the one that adds the highest-numbered of its positive atoms, so
ground rules are emitted, in source order and each rule's value tuples
sorted, by applying the slots to the tuples the rounds found. Probabilistic
facts are ground through the same plans, as rules without a body.

``max_rules`` caps the emitted rules. It also fires during the fixpoint, as
soon as the possibly-true atoms other than choice atoms outnumber it: each of
those heads at least one distinct emitted rule, so the cap would be exceeded
anyway, and a blown-up fixpoint stops early instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ResourceGuardError
from .syntax import ANONYMOUS, Program, Rule

DEFAULT_MAX_GROUND_RULES = 10**6

GroundAtom = tuple[str, tuple[str, ...]]  # (predicate, constant names)


def atom_text(atom: GroundAtom) -> str:
    pred, args = atom
    return f"{pred}({', '.join(args)})" if args else pred


@dataclass(frozen=True)
class ChoicePoint:
    id: int
    ground_atom: int  # AtomId
    prob: Fraction


@dataclass(frozen=True)
class GroundRule:
    head: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]


@dataclass
class GroundProgram:
    atoms: list[str] = field(default_factory=list)  # AtomId -> text
    index: dict[str, int] = field(default_factory=dict)  # text -> AtomId
    rules: list[GroundRule] = field(default_factory=list)
    choice_points: list[ChoicePoint] = field(default_factory=list)

    def atom_id(self, text: str) -> int | None:
        return self.index.get(text)

    def intern(self, text: str) -> int:
        aid = self.index.get(text)
        if aid is None:
            aid = len(self.atoms)
            self.atoms.append(text)
            self.index[text] = aid
        return aid

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass
class DependencyGraph:
    nodes: set[int]
    edges: set[tuple[int, int, str]]  # (src, dst, "positive" | "negative")


@dataclass
class ProgramClass:
    kind: str  # "acyclic" | "stratified" | "general"
    witness: list[int] | None = None  # cycle: edge witness[i] -> witness[i+1], wrapping


# ---------------------------------------------------------------------------
# Grounding


def program_constants(program: Program) -> list[str]:
    """The Herbrand universe, sorted. A reserved constant is injected when
    the program mentions none, so zero-arity-only programs still ground."""
    consts: set[str] = set()
    for rule in program.rules:
        for atom in [rule.head] + [sg.atom for sg in rule.body]:
            consts.update(t.name for t in atom.args if not t.is_variable)
    for pf in program.prob_facts:
        consts.update(t.name for t in pf.atom.args if not t.is_variable)
    return sorted(consts) if consts else ["u0"]


_Slots = tuple[str, tuple[int, ...]]  # (predicate, slot per argument)


def _fill(atom: _Slots, values) -> GroundAtom:
    pred, slots = atom
    return pred, tuple([values[s] for s in slots])


@dataclass(frozen=True)
class _Step:
    """One positive subgoal, as the join reaches it after the earlier ones."""

    atom: _Slots
    signature: tuple[str, int]  # (predicate, arity)
    bound: tuple[int, ...]  # positions known on arrival: constants, earlier variables
    key: tuple[int, ...]  # the slots at those positions
    binds: tuple[tuple[int, int], ...]  # (position, slot) of a variable first bound here
    checks: tuple[tuple[int, int], ...]  # (position, slot) repeating a bind


@dataclass(frozen=True)
class _Plan:
    """A rule compiled to slots: its values are those of its variables, in
    sorted name order, then its constants, and each argument is a slot, the
    index of its value."""

    head: _Slots
    steps: tuple[_Step, ...]  # the positive subgoals in body order
    neg: tuple[_Slots, ...]  # the negative subgoals in body order
    free: tuple[int, ...]  # slots of the variables no positive subgoal binds
    blank: tuple[str | None, ...]  # before a join: None per variable, then the constants


def _plan(rule: Rule) -> _Plan:
    # each `_` is a variable of its own, named "_ i": no source variable can
    # have that name, and it sorts where a variable named "_" would
    anonymous = itertools.count()
    terms = [
        [(t.is_variable, f"_ {next(anonymous)}" if t == ANONYMOUS else t.name)
         for t in atom.args]
        for atom in [rule.head] + [sg.atom for sg in rule.body]
    ]
    variables = sorted({term for atom in terms for term in atom if term[0]})
    slot = {term: i for i, term in enumerate(variables)}

    def slots(atom, args) -> _Slots:
        return atom.predicate, tuple(slot.setdefault(term, len(slot)) for term in args)

    head = slots(rule.head, terms[0])
    body = [(sg.negated, slots(sg.atom, args)) for sg, args in zip(rule.body, terms[1:])]
    blank = tuple(None if is_var else name for is_var, name in slot)
    known = {s for s, value in enumerate(blank) if value is not None}
    steps = []
    for negated, (pred, args) in body:
        if negated:
            continue
        bound = tuple(p for p, s in enumerate(args) if s in known)
        binds, checks = [], []
        for p, s in enumerate(args):
            if s not in known:
                (checks if any(s == b for _, b in binds) else binds).append((p, s))
        known.update(s for _, s in binds)
        steps.append(_Step(
            (pred, args), (pred, len(args)), bound, tuple(args[p] for p in bound),
            tuple(binds), tuple(checks),
        ))
    free = tuple(s for s in range(len(blank)) if s not in known)
    neg = tuple(atom for negated, atom in body if negated)
    return _Plan(head, tuple(steps), neg, free, blank)


class _PossiblyTrue:
    """The possibly-true atoms, numbered in the order they were added, with
    one hash index per (predicate, arity, bound positions) that a step of
    ``plans`` names. An index maps the values at its positions to the numbers
    of the matching atoms, in ascending order; ``add`` keeps it current."""

    def __init__(self, plans: list[_Plan]):
        self.atoms: list[GroundAtom] = []
        self.members: set[GroundAtom] = set()
        # (predicate, arity) -> bound positions -> key -> atom numbers
        self.indexes: dict[tuple[str, int], dict[tuple[int, ...], dict]] = {}
        for step in (step for plan in plans for step in plan.steps):
            self.indexes.setdefault(step.signature, {})[step.bound] = {}

    def add(self, ga: GroundAtom) -> None:
        if ga in self.members:
            return
        self.members.add(ga)
        self.atoms.append(ga)
        pred, args = ga
        n = len(self.atoms) - 1
        for bound, table in self.indexes.get((pred, len(args)), {}).items():
            table.setdefault(tuple(args[p] for p in bound), []).append(n)

    def lookup(self, step: _Step, key: tuple[str, ...]) -> list[int]:
        return self.indexes[step.signature][step.bound].get(key, ())


def _complete(plan: _Plan, values: list, universe):
    """Yield ``values`` as a tuple once per assignment of the free variables
    over the universe, in product order."""
    for combo in itertools.product(universe, repeat=len(plan.free)):
        for s, value in zip(plan.free, combo):
            values[s] = value
        yield tuple(values)


def _match_positive(plan: _Plan, possible: _PossiblyTrue, universe, delta: int, lo: int):
    """Yield the value tuples of one semi-naive round: subgoal ``delta``
    matches only atoms numbered ``lo`` or more, the subgoals before it only
    atoms numbered below ``lo``, and the subgoals after it any possibly-true
    atom; variables not bound by a positive subgoal range over the full
    universe. A depth-first join over an explicit stack of (i, n): the
    subgoals before i matched, subgoal i - 1 by atom n. Each subgoal writes
    the variables it binds into one list of values by slot, and is looked up
    in the index on its bound positions, whose slots earlier subgoals wrote.
    A rule without positive subgoals looks at no atom and yields its whole
    grounding."""
    steps, atoms = plan.steps, possible.atoms
    values = list(plan.blank)
    stack = [(0, -1)]
    while stack:
        i, n = stack.pop()
        if i:
            step, args = steps[i - 1], atoms[n][1]
            for p, s in step.binds:
                values[s] = args[p]
            if any(values[s] != args[p] for p, s in step.checks):
                continue
        if i == len(steps):
            yield from _complete(plan, values, universe)
            continue
        step = steps[i]
        found = possible.lookup(step, tuple([values[s] for s in step.key]))
        if i <= delta:
            cut = bisect_left(found, lo)
            found = found[:cut] if i < delta else found[cut:]
        stack.extend((i + 1, m) for m in reversed(found))


def _cap_exceeded(max_rules: int) -> ResourceGuardError:
    return ResourceGuardError(f"ground rule count exceeds cap of {max_rules}")


def ground(program: Program, max_rules: int = DEFAULT_MAX_GROUND_RULES) -> GroundProgram:
    universe = program_constants(program)
    plans = [_plan(rule) for rule in program.rules]
    g = GroundProgram()

    # choice points: one per grounding of each probabilistic fact, in source
    # order then substitution order; duplicates over one atom stay distinct
    possible = _PossiblyTrue(plans)
    for pf in program.prob_facts:
        plan = _plan(Rule(pf.atom))
        for values in _complete(plan, list(plan.blank), universe):
            ga = _fill(plan.head, values)
            aid = g.intern(atom_text(ga))
            g.choice_points.append(ChoicePoint(len(g.choice_points), aid, pf.prob))
            possible.add(ga)
    n_choice = len(possible.atoms)

    # possibly-true fixpoint, semi-naive: a round's new heads are collected
    # before any is added, so no index changes under a running join
    pending: dict[GroundAtom, None] = {}
    # rule position -> the value tuples of its substitutions
    found: dict[int, set[tuple[str, ...]]] = {i: set() for i in range(len(plans))}

    def derive(i: int, plan: _Plan, values: tuple[str, ...]) -> None:
        found[i].add(values)
        ga = _fill(plan.head, values)
        if ga in possible.members or ga in pending:
            return
        pending[ga] = None
        # each possibly-true atom that is not a choice atom heads an emitted rule
        if len(possible.atoms) + len(pending) - n_choice > max_rules:
            raise _cap_exceeded(max_rules)

    for i, plan in enumerate(plans):
        if not plan.steps:
            for values in _match_positive(plan, possible, universe, 0, 0):
                derive(i, plan, values)
    lo = 0  # atoms numbered lo or more were first added in the previous round
    while pending or lo < len(possible.atoms):
        for ga in pending:
            possible.add(ga)
        pending.clear()
        fresh = {(pred, len(args)) for pred, args in possible.atoms[lo:]}
        hi = len(possible.atoms)
        for i, plan in enumerate(plans):
            for j, step in enumerate(plan.steps):
                if step.signature in fresh:
                    for values in _match_positive(plan, possible, universe, j, lo):
                        derive(i, plan, values)
        lo = hi

    # emit ground rules: source order, then value tuples lexicographic; each
    # rule's set is released once emitted, so the peak memory does not grow;
    # ids number the atoms in order of first mention, choice atoms first
    ids: dict[GroundAtom, int] = {}

    def atom_id(ga: GroundAtom) -> int:  # its text is built and interned once
        aid = ids.get(ga)
        if aid is None:
            aid = ids[ga] = g.intern(atom_text(ga))
        return aid

    seen: set[tuple[int, tuple[int, ...], tuple[int, ...]]] = set()
    for i, plan in enumerate(plans):
        for values in sorted(found.pop(i)):
            # impossible atoms are false, so their negative literals hold
            neg = [ga for a in plan.neg if (ga := _fill(a, values)) in possible.members]
            rule = (
                atom_id(_fill(plan.head, values)),
                tuple([atom_id(_fill(st.atom, values)) for st in plan.steps]),
                tuple([atom_id(ga) for ga in neg]),
            )
            if rule in seen:
                continue
            seen.add(rule)
            g.rules.append(GroundRule(*rule))
            if len(g.rules) > max_rules:
                raise _cap_exceeded(max_rules)
    return g


# ---------------------------------------------------------------------------
# Dependency graph and classification


def dependency_graph(g: GroundProgram) -> DependencyGraph:
    edges: set[tuple[int, int, str]] = set()
    for rule in g.rules:
        for b in rule.pos:
            edges.add((b, rule.head, "positive"))
        for b in rule.neg:
            edges.add((b, rule.head, "negative"))
    return DependencyGraph(set(range(g.n_atoms)), edges)


def _components(nodes, succ, pred) -> dict[int, int]:
    """Map each node to a representative of its strongly connected component
    (Kosaraju-Sharir, iterative). Pass one orders the nodes by when a
    depth-first search over ``succ`` finishes them; pass two takes them last
    finished first, each unplaced one representing the unplaced nodes that
    reach it over ``pred``."""
    finished: list[int] = []
    seen: set[int] = set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    work.append((child, iter(succ.get(child, ()))))
                    break
            else:
                work.pop()
                finished.append(node)
    rep: dict[int, int] = {}
    for root in reversed(finished):
        if root in rep:
            continue
        rep[root] = root
        stack = [root]
        while stack:
            for src in pred.get(stack.pop(), ()):
                if src not in rep:
                    rep[src] = root
                    stack.append(src)
    return rep


def _cycle_witness(u: int, v: int, succ: dict[int, list[int]]) -> list[int]:
    """A cycle using edge u -> v: the breadth-first path v ~> u, closed by
    u -> v. Every node on a path v ~> u lies in u's component, and the search
    reaches those only through each other, as if confined to the component."""
    if u == v:
        return [u]
    prev = {v: None}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for y in succ.get(x, ()):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
        if u in prev:
            break
    path = [u]
    while path[-1] != v:
        path.append(prev[path[-1]])
    path.reverse()  # v ... u; edge u -> v wraps around
    return path


def classify(dg: DependencyGraph) -> ProgramClass:
    """Acyclic when no edge lies on a cycle, that is, inside one strongly
    connected component; else general when such an edge is negative and
    stratified when none is. The witness cycle runs through the first such
    edge in sorted order, negative edges first."""
    edges = sorted(dg.edges)
    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for src, dst, _sign in edges:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    rep = _components(dg.nodes, succ, pred)
    on_cycle = [(src, dst, sign) for src, dst, sign in edges if rep[src] == rep[dst]]
    if not on_cycle:
        return ProgramClass("acyclic")
    negative = [edge for edge in on_cycle if edge[2] == "negative"]
    u, v, sign = (negative or on_cycle)[0]
    kind = "general" if sign == "negative" else "stratified"
    return ProgramClass(kind, _cycle_witness(u, v, succ))


# ---------------------------------------------------------------------------
# Structured dump (CLI `ground --out`)


def dump_ground(g: GroundProgram) -> str:
    lines = []
    for aid, text in enumerate(g.atoms):
        lines.append(f"atom {aid} {text}")
    for rule in g.rules:
        pos = ",".join(map(str, rule.pos))
        neg = ",".join(map(str, rule.neg))
        lines.append(f"rule {rule.head} | {pos} | {neg}")
    for cp in g.choice_points:
        num, den = cp.prob.numerator, cp.prob.denominator
        lines.append(f"choice {cp.id} {cp.ground_atom} {num}/{den}")
    return "\n".join(lines) + ("\n" if lines else "")
