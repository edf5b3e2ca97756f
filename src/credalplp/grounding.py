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
over the whole universe. The universe is the constants the compiled plans
hold, those of the rules and of the probabilistic facts, sorted, or the
reserved constant ``u0`` when they hold none, so that a program of
zero-arity atoms still grounds. A subgoal finds its candidates in a hash index on
those positions, one index per (predicate, arity, bound positions) that some
plan names, kept current as atoms are added. The join writes each value into
one list by slot, checks repeated variables only at the subgoals that repeat
one, and yields a substitution as the tuple of that list, with no per-match
generator unless some variable is left to range over the universe. The
fixpoint is semi-naive (Bancilhon & Ramakrishnan 1986): round 0 joins the
rules without positive subgoals, and each later round joins a rule once per
positive subgoal j, with subgoal j matching only atoms first added in the
previous round, the subgoals before j only older atoms, and those after j
any atom. A round's new heads are collected before any is added, so no index
changes under a running join. Each substitution is found in exactly one
round, the one that adds the highest-numbered of its positive atoms, and
kept with the numbers of the atoms it matched and of its head: ground rules
are emitted from those, in source order and each rule's value tuples sorted,
and only negative subgoals are built from the slots again. A ground rule is
a named tuple, and the set that skips duplicate rules holds the rules
themselves. Probabilistic facts are ground through the same plans, as rules
without a body.

The dependency graph is one successor list per atom, built in one pass over
the ground rules. Classification decides acyclicity by a topological order
(Kahn's algorithm) over those lists; strongly connected components and a
witness cycle are computed only for a cyclic graph.

``max_rules`` caps the emitted rules. It also fires during the fixpoint, as
soon as the possibly-true atoms other than choice atoms outnumber it: each of
those heads at least one distinct emitted rule, so the cap would be exceeded
anyway, and a blown-up fixpoint stops early instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .errors import ResourceGuardError
from .syntax import ANONYMOUS, Program, Rule, atom_text

DEFAULT_MAX_GROUND_RULES = 10**6

GroundAtom = tuple[str, tuple[str, ...]]  # (predicate, constant names)


class ChoicePoint(NamedTuple):
    id: int
    ground_atom: int  # AtomId
    prob: Fraction


class GroundRule(NamedTuple):
    """One ground rule ``head :- pos, not neg``, by atom id. A plain tuple of
    its three fields: it is immutable, hashable and equal to ``(head, pos,
    neg)``."""

    head: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]


_rule = tuple.__new__  # GroundRule from a tuple of its fields, without __new__'s call


class GroundProgram:
    """The atom table, the ground rules and the choice points; each instance
    has lists and an index of its own."""

    __slots__ = ("atoms", "index", "rules", "choice_points")

    def __init__(
        self,
        atoms: list[str] | None = None,  # AtomId -> text
        index: dict[str, int] | None = None,  # text -> AtomId
        rules: list[GroundRule] | None = None,
        choice_points: list[ChoicePoint] | None = None,
    ):
        self.atoms = [] if atoms is None else atoms
        self.index = {} if index is None else index
        self.rules = [] if rules is None else rules
        self.choice_points = [] if choice_points is None else choice_points

    def __eq__(self, other) -> bool:
        if type(other) is not GroundProgram:
            return NotImplemented
        return (
            self.atoms == other.atoms and self.index == other.index
            and self.rules == other.rules and self.choice_points == other.choice_points
        )

    def __repr__(self) -> str:
        return (
            f"GroundProgram(atoms={self.atoms!r}, index={self.index!r}, "
            f"rules={self.rules!r}, choice_points={self.choice_points!r})"
        )

    def with_rules(self, rules: list[GroundRule]) -> GroundProgram:
        """A program with copies of this atom table, index and choice points,
        and ``rules``."""
        return GroundProgram(
            list(self.atoms), dict(self.index), rules, list(self.choice_points)
        )

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


class ProgramClass(NamedTuple):
    kind: str  # "acyclic" | "stratified" | "general"
    witness: list[int] | None = None  # cycle: edge witness[i] -> witness[i+1], wrapping


# ---------------------------------------------------------------------------
# Grounding


_Slots = tuple[str, tuple[int, ...]]  # (predicate, slot per argument)


def _fill(atom: _Slots, values) -> GroundAtom:
    pred, slots = atom
    return pred, tuple([values[s] for s in slots])


class _Step(NamedTuple):
    """One positive subgoal, as the join reaches it after the earlier ones."""

    signature: tuple[str, int]  # (predicate, arity)
    bound: tuple[int, ...]  # positions known on arrival: constants, earlier variables
    key: tuple[int, ...]  # the slots at those positions
    binds: tuple[tuple[int, int], ...]  # (position, slot) of a variable first bound here
    checks: tuple[tuple[int, int], ...]  # (position, slot) repeating a bind


class _Plan(NamedTuple):
    """A rule compiled to slots: its values are those of its variables, in
    sorted name order, then its constants, and each argument is a slot, the
    index of its value."""

    head: _Slots
    steps: tuple[_Step, ...]  # the positive subgoals in body order
    neg: tuple[_Slots, ...]  # the negative subgoals in body order
    free: tuple[int, ...]  # slots of the variables no positive subgoal binds
    blank: tuple[str | None, ...]  # before a join: None per variable, then the constants


def _plan(rule: Rule) -> _Plan:
    if not rule.body:
        names = [t.name for t in rule.head.args if t.kind == "const"]
        if len(names) == len(rule.head.args):  # a ground fact: no join to plan
            blank = tuple(dict.fromkeys(names))  # its constants, each once, in order
            head = rule.head.predicate, tuple(map(blank.index, names))
            return tuple.__new__(_Plan, (head, (), (), (), blank))
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
        return atom.predicate, tuple([slot.setdefault(term, len(slot)) for term in args])

    head = slots(rule.head, terms[0])
    body = [(sg.negated, slots(sg.atom, args)) for sg, args in zip(rule.body, terms[1:])]
    blank = tuple([None if is_var else name for is_var, name in slot])
    known = set(range(len(variables), len(blank)))  # the constants
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
            (pred, len(args)), bound, tuple(args[p] for p in bound), tuple(binds),
            tuple(checks),
        ))
    free = tuple([s for s in range(len(variables)) if s not in known])
    neg = tuple([atom for negated, atom in body if negated])
    return _Plan(head, tuple(steps), neg, free, blank)


def _complete(plan: _Plan, values: list, universe, numbers=()):
    """Yield ``values`` as a tuple, then ``numbers``, once per assignment of
    the free variables over the universe, in product order."""
    for combo in itertools.product(universe, repeat=len(plan.free)):
        for s, value in zip(plan.free, combo):
            values[s] = value
        yield (*values, *numbers)


def _match_positive(plan: _Plan, atoms, indexes, universe, delta: int, lo: int):
    """Yield the value tuples of one semi-naive round over the possibly-true
    ``atoms`` (by number) and their ``indexes``, as ``ground`` keeps them,
    each followed by the numbers of the atoms its positive subgoals matched:
    subgoal ``delta`` matches only atoms numbered ``lo`` or more, the
    subgoals before it only atoms numbered below ``lo``, and the subgoals
    after it any possibly-true atom; variables not bound by a positive
    subgoal range over the full universe. A depth-first join that keeps, per
    subgoal reached, an iterator over its remaining candidates: a match
    looks the next subgoal up and descends when it has candidates, and an
    exhausted iterator resumes the one above, so the last subgoal's
    candidates are read in one loop. Each subgoal writes the variables it
    binds into one list of values by slot, checks the variables it repeats,
    if any, and is looked up in the index on its bound positions, whose
    slots earlier subgoals wrote. A rule without positive subgoals looks at
    no atom and yields its whole grounding."""
    steps, free = plan.steps, plan.free
    values, matched = list(plan.blank), [0] * len(steps)
    if not steps:
        yield from _complete(plan, values, universe)
        return
    last = len(steps) - 1
    tables = [indexes[step.signature][step.bound] for step in steps]

    def candidates(i: int):
        found = tables[i].get(tuple([values[s] for s in steps[i].key]), ())
        if i <= delta:
            cut = bisect_left(found, lo)
            found = found[:cut] if i < delta else found[cut:]
        return found

    levels = [iter(candidates(0))]  # per subgoal reached: an iterator over its candidates
    i = 0
    while i >= 0:
        step = steps[i]
        binds, checks = step.binds, step.checks
        for n in levels[i]:
            args = atoms[n][1]
            for p, s in binds:
                values[s] = args[p]
            if checks and any(values[s] != args[p] for p, s in checks):
                continue
            matched[i] = n
            if i < last:
                found = candidates(i + 1)
                if found:
                    levels.append(iter(found))
                    i += 1
                    break
            elif free:
                yield from _complete(plan, values, universe, matched)
            else:
                yield (*values, *matched)
        else:
            levels.pop()
            i -= 1


def _cap_exceeded(max_rules: int) -> ResourceGuardError:
    return ResourceGuardError(f"ground rule count exceeds cap of {max_rules}")


def ground(program: Program, max_rules: int = DEFAULT_MAX_GROUND_RULES) -> GroundProgram:
    plans = [_plan(rule) for rule in program.rules]
    fact_plans = [_plan(Rule(pf.atom)) for pf in program.prob_facts]
    constants = {value for plan in plans + fact_plans for value in plan.blank} - {None}
    universe = sorted(constants) or ["u0"]
    g = GroundProgram()
    atoms: list[GroundAtom] = []  # the possibly-true atoms, numbered as added
    members: dict[GroundAtom, int] = {}  # atom -> its number
    # (predicate, arity) -> bound positions -> key -> atom numbers, ascending:
    # one index per (predicate, arity, bound positions) that a step names
    indexes: dict[tuple[str, int], dict[tuple[int, ...], dict]] = {}
    for step in (step for plan in plans for step in plan.steps):
        indexes.setdefault(step.signature, {})[step.bound] = {}
    pending: dict[GroundAtom, int] = {}  # atom -> the number it is added as

    # choice points: one per grounding of each probabilistic fact, in source
    # order then substitution order; duplicates over one atom stay distinct
    for pf, plan in zip(program.prob_facts, fact_plans):
        for values in _complete(plan, list(plan.blank), universe):
            ga = _fill(plan.head, values)
            aid = g.intern(atom_text(*ga))
            g.choice_points.append(ChoicePoint(len(g.choice_points), aid, pf.prob))
            pending.setdefault(ga, len(pending))
    n_choice = len(pending)

    # possibly-true fixpoint, semi-naive. Round 0 joins the rules without
    # positive subgoals; each later round joins a rule once per positive
    # subgoal over a (predicate, arity) that gained atoms in the round
    # before. A round's new heads are collected before any is added, so no
    # index changes under a running join.
    # rule position -> its substitutions: values, matched atom numbers, head number
    found: list[list[tuple]] = [[] for _ in plans]
    joins = [(i, 0) for i, plan in enumerate(plans) if not plan.steps]
    lo = 0  # atoms numbered lo or more were first added in the previous round
    while True:
        hi = len(atoms)
        for i, j in joins:
            plan, out = plans[i], found[i]
            pred, slots = plan.head
            for entry in _match_positive(plan, atoms, indexes, universe, j, lo):
                ga = (pred, tuple([entry[s] for s in slots]))
                head = members.get(ga)
                if head is None:
                    head = pending.setdefault(ga, hi + len(pending))
                    # each possibly-true atom that is not a choice atom
                    # heads an emitted rule
                    if hi + len(pending) - n_choice > max_rules:
                        raise _cap_exceeded(max_rules)
                out.append(entry + (head,))
        if not pending:
            break
        members.update(pending)
        atoms += pending
        for (pred, args), n in pending.items():
            for bound, table in indexes.get((pred, len(args)), {}).items():
                table.setdefault(tuple([args[p] for p in bound]), []).append(n)
        pending.clear()
        lo = hi
        fresh = {(pred, len(args)) for pred, args in atoms[lo:]}
        joins = [
            (i, j) for i, plan in enumerate(plans)
            for j, step in enumerate(plan.steps) if step.signature in fresh
        ]

    # emit ground rules: source order, then value tuples lexicographic; each
    # rule's list is released once emitted, so the peak memory does not grow;
    # ids number the atoms in order of first mention, choice atoms first
    ids: list[int | None] = [None] * len(atoms)  # by atom number

    def atom_id(n: int) -> int:  # its text is built and interned once
        aid = ids[n]
        if aid is None:
            aid = ids[n] = g.intern(atom_text(*atoms[n]))
        return aid

    seen: set[GroundRule] = set()  # g.rules as a set: a rule is kept once
    for i, plan in enumerate(plans):
        entries, found[i] = found[i], []
        entries.sort()  # the values come first, so they set the order
        width = len(plan.blank)
        for entry in entries:
            # impossible atoms are false, so their negative literals hold
            neg = plan.neg and [
                n for a in plan.neg if (n := members.get(_fill(a, entry))) is not None
            ]
            rule = _rule(GroundRule, (
                atom_id(entry[-1]),
                tuple([atom_id(n) for n in entry[width:-1]]),
                tuple([atom_id(n) for n in neg]) if neg else (),
            ))
            seen.add(rule)
            if len(seen) > len(g.rules):
                if len(seen) > max_rules:
                    raise _cap_exceeded(max_rules)
                g.rules.append(rule)
    return g


# ---------------------------------------------------------------------------
# Dependency graph and classification


def dependency_graph(g: GroundProgram) -> list[list[tuple[int, bool]]]:
    """The atom dependency graph as successor lists, by atom id: entry ``a``
    holds ``(head, negated)`` once per body literal over ``a``, in rule order."""
    succ: list[list[tuple[int, bool]]] = [[] for _ in range(g.n_atoms)]
    for head, pos, neg in g.rules:
        for b in pos:
            succ[b].append((head, False))
        for b in neg:
            succ[b].append((head, True))
    return succ


def _components(succ, pred) -> dict[int, int]:
    """Map each node to a representative of its strongly connected component
    (Kosaraju-Sharir, iterative). Pass one orders the nodes by when a
    depth-first search over ``succ`` finishes them; pass two takes them last
    finished first, each unplaced one representing the unplaced nodes that
    reach it over ``pred``."""
    finished: list[int] = []
    seen: set[int] = set()
    for root in succ:
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


def classify(succ: list[list[tuple[int, bool]]]) -> ProgramClass:
    """Classify the graph of ``dependency_graph``. Acyclic when it has a
    topological order, that is, when one pass of Kahn's algorithm, taking
    atoms without incoming edges left, removes every edge; this pass builds
    lists only. Otherwise the edges left, those whose source is still
    reachable from a cycle, are deduplicated, sorted and split into strongly
    connected components: an edge lies on a cycle when both its ends lie in
    one, and the program is general when such an edge is negative and
    stratified when none is. The witness cycle runs through the first such
    edge in sorted order, negative edges first. Neither depends on the order
    of the successor lists, so neither depends on the order of the rules."""
    indegree = [0] * len(succ)
    for edges in succ:
        for dst, _negated in edges:
            indegree[dst] += 1
    ready = [a for a, d in enumerate(indegree) if not d]
    while ready:
        for dst, _negated in succ[ready.pop()]:
            indegree[dst] -= 1
            if not indegree[dst]:
                ready.append(dst)
    if not any(indegree):
        return ProgramClass("acyclic")
    left = sorted({
        (src, dst, negated)
        for src, edges in enumerate(succ) if indegree[src]
        for dst, negated in edges
    })
    succ, pred = {}, {}  # the edges left, by source and by destination
    for src, dst, _negated in left:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    rep = _components(succ, pred)
    on_cycle = [edge for edge in left if rep[edge[0]] == rep[edge[1]]]
    u, v, negated = next((edge for edge in on_cycle if edge[2]), on_cycle[0])
    return ProgramClass("general" if negated else "stratified", _cycle_witness(u, v, succ))


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
