"""Grounding and structural classification.

Grounding is *active*: a ground rule is kept only when every positive body
atom is possibly true, where possibly-true is the least fixpoint seeded by
deterministic facts and choice-point atoms with negative subgoals treated as
satisfiable. Atoms that are never possibly true are omitted from the atom
table and are false in every stable/well-founded model of every total choice,
so negative literals over them are simply dropped.

Each rule is compiled once into a join plan: per positive subgoal, its
predicate, arity and arguments, and the argument positions already bound
when the join reaches it (constants and variables of earlier subgoals),
plus the variables no positive subgoal binds, which range over the whole
universe. A subgoal finds its candidates in a hash index on those positions,
one index per (predicate, arity, bound positions) that some plan names,
kept current as atoms are added. The fixpoint is semi-naive (Bancilhon &
Ramakrishnan 1986): the heads of rules without positive subgoals are added
once, and each later round joins a rule once per positive subgoal j, with
subgoal j matching only atoms first added in the previous round, the
subgoals before j only older atoms, and those after j any atom. A round's
new heads are collected before any is added, so no index changes under a
running join. Each substitution is found in exactly one round, the one that
adds the highest-numbered of its positive atoms, so ground rules are emitted,
in source order and each rule's substitutions sorted, from the substitutions
the rounds found.

``max_rules`` caps the emitted rules. It also fires during the fixpoint, as
soon as the possibly-true atoms other than choice atoms outnumber it: each of
those heads at least one distinct emitted rule, so the cap would be exceeded
anyway, and a blown-up fixpoint stops early instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ResourceGuardError
from .syntax import Program, Rule

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
    fact_atoms: set[int] = field(default_factory=set)

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


def _apply(atom, subst) -> GroundAtom:
    return (
        atom.predicate,
        tuple(subst[t.name] if t.is_variable else t.name for t in atom.args),
    )


@dataclass(frozen=True)
class _Step:
    """One positive subgoal, as the join reaches it after the earlier ones."""

    predicate: str
    arity: int
    bound: tuple[int, ...]  # positions known on arrival: constants, earlier variables
    key: tuple[tuple[bool, str], ...]  # (is_variable, name) at those positions
    binds: tuple[tuple[int, str], ...]  # (position, variable) first bound here
    checks: tuple[tuple[int, str], ...]  # (position, variable) repeating a bind


@dataclass(frozen=True)
class _Plan:
    rule: Rule
    steps: tuple[_Step, ...]  # the positive subgoals in body order
    free: tuple[str, ...]  # variables no positive subgoal binds, sorted
    variables: tuple[str, ...]  # every variable of the rule, sorted


def _plan(rule: Rule) -> _Plan:
    steps = []
    known: set[str] = set()
    for sg in rule.body:
        if sg.negated:
            continue
        args = sg.atom.args
        bound = tuple(
            i for i, t in enumerate(args) if not t.is_variable or t.name in known
        )
        binds, checks = [], []
        for i, t in enumerate(args):
            if t.is_variable and t.name not in known:
                first = all(name != t.name for _, name in binds)
                (binds if first else checks).append((i, t.name))
        known.update(name for _, name in binds)
        steps.append(_Step(
            sg.atom.predicate, len(args), bound,
            tuple((args[i].is_variable, args[i].name) for i in bound),
            tuple(binds), tuple(checks),
        ))
    variables = tuple(sorted(rule.variables()))
    free = tuple(v for v in variables if v not in known)
    return _Plan(rule, tuple(steps), free, variables)


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
            self.indexes.setdefault((step.predicate, step.arity), {})[step.bound] = {}

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
        return self.indexes[step.predicate, step.arity][step.bound].get(key, ())


def _match_positive(plan: _Plan, possible: _PossiblyTrue, universe, delta: int, lo: int):
    """Yield the substitutions of one semi-naive round: subgoal ``delta``
    matches only atoms numbered ``lo`` or more, the subgoals before it only
    atoms numbered below ``lo``, and the subgoals after it any possibly-true
    atom; variables not bound by a positive subgoal range over the full
    universe. A depth-first join over an explicit stack, one subgoal per
    level, each looked up in the index on its bound positions. A rule without
    positive subgoals looks at no atom and yields its whole grounding."""
    steps, atoms = plan.steps, possible.atoms
    stack: list[tuple[int, dict[str, str]]] = [(0, {})]
    while stack:
        i, subst = stack.pop()
        if i == len(steps):
            for combo in itertools.product(universe, repeat=len(plan.free)):
                yield {**subst, **dict(zip(plan.free, combo))}
            continue
        step = steps[i]
        found = possible.lookup(
            step, tuple(subst[name] if is_var else name for is_var, name in step.key)
        )
        if i < delta:
            found = itertools.takewhile(lo.__gt__, found)
        elif i == delta:
            found = itertools.takewhile(lo.__le__, reversed(found))
        children = []
        for n in found:
            args = atoms[n][1]
            new = dict(subst)
            for p, name in step.binds:
                new[name] = args[p]
            if all(new[name] == args[p] for p, name in step.checks):
                children.append((i + 1, new))
        stack.extend(reversed(children))


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
        varnames = sorted(pf.atom.variables())
        for combo in itertools.product(universe, repeat=len(varnames)):
            ga = _apply(pf.atom, dict(zip(varnames, combo)))
            aid = g.intern(atom_text(ga))
            g.choice_points.append(ChoicePoint(len(g.choice_points), aid, pf.prob))
            possible.add(ga)
    n_choice = len(possible.atoms)

    # possibly-true fixpoint, semi-naive: a round's new heads are collected
    # before any is added, so no index changes under a running join
    pending: dict[GroundAtom, None] = {}
    # rule position -> its substitutions, values in ``plan.variables`` order
    found: dict[int, set[tuple[str, ...]]] = {i: set() for i in range(len(plans))}

    def derive(i: int, plan: _Plan, subst: dict[str, str]) -> None:
        found[i].add(tuple(subst[v] for v in plan.variables))
        ga = _apply(plan.rule.head, subst)
        if ga in possible.members or ga in pending:
            return
        pending[ga] = None
        # each possibly-true atom that is not a choice atom heads an emitted rule
        if len(possible.atoms) + len(pending) - n_choice > max_rules:
            raise _cap_exceeded(max_rules)

    for i, plan in enumerate(plans):
        if not plan.steps:
            for subst in _match_positive(plan, possible, universe, 0, 0):
                derive(i, plan, subst)
    lo = 0  # atoms numbered lo or more were first added in the previous round
    while pending or lo < len(possible.atoms):
        for ga in pending:
            possible.add(ga)
        pending.clear()
        fresh = {(pred, len(args)) for pred, args in possible.atoms[lo:]}
        hi = len(possible.atoms)
        for i, plan in enumerate(plans):
            for j, step in enumerate(plan.steps):
                if (step.predicate, step.arity) in fresh:
                    for subst in _match_positive(plan, possible, universe, j, lo):
                        derive(i, plan, subst)
        lo = hi

    # emit ground rules: source order, then substitution lexicographic; each
    # rule's set is released once emitted, so the peak memory does not grow
    seen: set[GroundRule] = set()
    for i, plan in enumerate(plans):
        rule = plan.rule
        for combo in sorted(found.pop(i)):
            subst = dict(zip(plan.variables, combo))
            head = _apply(rule.head, subst)
            pos = [_apply(sg.atom, subst) for sg in rule.body if not sg.negated]
            neg = [
                ga
                for sg in rule.body
                if sg.negated
                for ga in [_apply(sg.atom, subst)]
                if ga in possible.members  # impossible atoms are false: literal holds
            ]
            gr = GroundRule(
                g.intern(atom_text(head)),
                tuple(g.intern(atom_text(a)) for a in pos),
                tuple(g.intern(atom_text(a)) for a in neg),
            )
            if gr in seen:
                continue
            seen.add(gr)
            g.rules.append(gr)
            if len(g.rules) > max_rules:
                raise _cap_exceeded(max_rules)
            if not rule.body:
                g.fact_atoms.add(gr.head)
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
