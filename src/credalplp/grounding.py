"""Grounding and structural classification.

Grounding is *active*: a ground rule is kept only when every positive body
atom is possibly true, where possibly-true is the least fixpoint seeded by
deterministic facts and choice-point atoms with negative subgoals treated as
satisfiable. Atoms that are never possibly true are omitted from the atom
table and are false in every stable/well-founded model of every total choice,
so negative literals over them are simply dropped.
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


def _match_positive(rule: Rule, by_pred: dict[str, list[GroundAtom]], universe):
    """Yield substitutions grounding the rule with all positive subgoals in
    the possibly-true set; variables not bound by a positive subgoal range
    over the full universe. A depth-first join over an explicit stack, one
    subgoal per level, in the order a recursive join would yield."""
    pos = [
        (sg.atom.predicate, [(t.is_variable, t.name) for t in sg.atom.args])
        for sg in rule.body
        if not sg.negated
    ]
    bound = {name for _, args in pos for is_var, name in args if is_var}
    free = sorted(rule.variables() - bound)
    stack: list[tuple[int, dict[str, str]]] = [(0, {})]
    while stack:
        i, subst = stack.pop()
        if i == len(pos):
            for combo in itertools.product(universe, repeat=len(free)):
                yield {**subst, **dict(zip(free, combo))}
            continue
        predicate, args = pos[i]
        children = []
        for cand in by_pred.get(predicate, ()):
            if len(cand[1]) != len(args):
                continue
            new = dict(subst)
            for (is_var, name), cname in zip(args, cand[1]):
                # a variable binds to cname unless it is bound already
                if (new.setdefault(name, cname) if is_var else name) != cname:
                    break
            else:
                children.append((i + 1, new))
        stack.extend(reversed(children))


def ground(program: Program, max_rules: int = DEFAULT_MAX_GROUND_RULES) -> GroundProgram:
    universe = program_constants(program)
    g = GroundProgram()

    # choice points: one per grounding of each probabilistic fact, in source
    # order then substitution order; duplicates over one atom stay distinct
    choice_atoms: list[GroundAtom] = []
    for pf in program.prob_facts:
        varnames = sorted(pf.atom.variables())
        for combo in itertools.product(universe, repeat=len(varnames)):
            ga = _apply(pf.atom, dict(zip(varnames, combo)))
            aid = g.intern(atom_text(ga))
            g.choice_points.append(ChoicePoint(len(g.choice_points), aid, pf.prob))
            choice_atoms.append(ga)

    # possibly-true fixpoint
    possible: set[GroundAtom] = set()
    by_pred: dict[str, list[GroundAtom]] = {}

    def add(ga: GroundAtom) -> bool:
        if ga in possible:
            return False
        possible.add(ga)
        by_pred.setdefault(ga[0], []).append(ga)
        return True

    for ga in choice_atoms:
        add(ga)

    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            for subst in _match_positive(rule, by_pred, universe):
                if add(_apply(rule.head, subst)):
                    changed = True

    # emit ground rules: source order, then substitution lexicographic
    seen: set[GroundRule] = set()
    for rule in program.rules:
        varnames = sorted(rule.variables())
        substs = sorted(
            {tuple(s[v] for v in varnames) for s in _match_positive(rule, by_pred, universe)}
        )
        for combo in substs:
            subst = dict(zip(varnames, combo))
            head = _apply(rule.head, subst)
            pos = [_apply(sg.atom, subst) for sg in rule.body if not sg.negated]
            neg = [
                ga
                for sg in rule.body
                if sg.negated
                for ga in [_apply(sg.atom, subst)]
                if ga in possible  # impossible atoms are false: literal holds
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
                raise ResourceGuardError(
                    f"ground rule count exceeds cap of {max_rules}"
                )
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


def _sccs(nodes: set[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = itertools.count()

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = next(counter)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out


def _cycle_witness(u: int, v: int, comp: set[int], succ: dict[int, list[int]]) -> list[int]:
    """A cycle using edge u -> v: path v ~> u inside comp, closed by u -> v."""
    if u == v:
        return [u]
    prev = {v: None}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for y in succ.get(x, ()):
                if y in comp and y not in prev:
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
    succ: dict[int, list[int]] = {}
    for src, dst, _sign in sorted(dg.edges):
        succ.setdefault(src, []).append(dst)
    comps = _sccs(dg.nodes, succ)
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    comp_sets = [set(c) for c in comps]

    neg_internal = None
    cyc_internal = None
    for src, dst, sign in sorted(dg.edges):
        if comp_of[src] != comp_of[dst]:
            continue
        if src == dst or len(comp_sets[comp_of[src]]) > 1:
            if sign == "negative" and neg_internal is None:
                neg_internal = (src, dst)
            if cyc_internal is None:
                cyc_internal = (src, dst)
    if neg_internal is not None:
        u, v = neg_internal
        return ProgramClass("general", _cycle_witness(u, v, comp_sets[comp_of[u]], succ))
    if cyc_internal is not None:
        u, v = cyc_internal
        return ProgramClass("stratified", _cycle_witness(u, v, comp_sets[comp_of[u]], succ))
    return ProgramClass("acyclic")


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
