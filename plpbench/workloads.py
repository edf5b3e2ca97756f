"""Seeded workload generators, their reference answers and property checks.

A workload turns ``--seed`` into a pool of ``POOL`` cases. Each case is one
generated program, the query arguments for ``credalplp query`` and the exact
answer computed by ``reference``. Generators fix the size of every program
(atoms, rules, choice points and relevance cone), so that query time depends
on the engine and not on which random graph a seed happened to draw.

Workloads, and why each exists:

- ``reach-point``: ``path/2`` reachability over 8 nodes and 10 probabilistic
  edges, with cycles (stratified), queried with ``--semantics auto``. The main
  stratified user path; its time goes to the alternating fixpoint. Its cone
  holds 7 of the 10 choice points, so relevance pruning shows here.
- ``game-credal``: win-move on a bipartite graph of 8 positions with 10
  probabilistic moves (only even cycles, so every choice is consistent), a
  conditional ``--semantics credal`` query. The one workload dominated by
  branching, propagation and the stability check. Its cone is all 10 choice
  points, so relevance pruning must leave it unchanged.
- ``game-wf``: the same programs with ``--semantics wf`` and an ``=undefined``
  query; the three-valued fixpoint through the separate ``wf_query`` loop.
- ``grid-ground``: 7x7 grid reachability (acyclic) with 2 probabilistic edges
  out of 84; grounding dominates and there are only 4 total choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import reference

POOL = 8

REACH_RULES = "path(X,Y) :- edge(X,Y).\npath(X,Z) :- edge(X,Y), path(Y,Z).\n"
GAME_RULES = "wins(X) :- move(X,Y), not wins(Y).\n"

# reach-point size class: 10 edges, 36 possible path atoms, 60 ground rules,
# 7 choice points in the cone of path(n0, n7)
REACH_NODES, REACH_EDGES = 8, 10
REACH_PATHS, REACH_RULE_COUNT, REACH_CONE = 36, 60, 7

GAME_SIDE = 4  # positions p0..p3 move to p4..p7 and back
GAME_MOVES = 10

GRID = 7


@dataclass(frozen=True)
class Case:
    rules: str
    facts: tuple[tuple[Fraction, str], ...]  # (probability, atom); 1 = fact
    args: tuple[str, ...]  # `credalplp query FILE` arguments after FILE
    atoms: tuple[str, ...]  # query and evidence atoms, as the ground dump names them
    expected: tuple  # ("point", p) or ("interval", lower, upper)

    def render(self) -> str:
        lines = [self.rules]
        for prob, atom in self.facts:
            prefix = "" if prob == 1 else f"{prob.numerator}/{prob.denominator}::"
            lines.append(f"{prefix}{atom}.\n")
        return "".join(lines)

    @property
    def choice_points(self) -> int:
        return sum(1 for prob, _ in self.facts if prob != 1)


@dataclass(frozen=True)
class Workload:
    name: str
    classification: str
    cone: str  # "lt": cone smaller than the choice points; "eq": equal; "any"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reach-point", "stratified", "lt"),
        Workload("game-credal", "general", "eq"),
        Workload("game-wf", "general", "eq"),
        Workload("grid-ground", "acyclic", "any"),
    )
}


def _prob(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), 10)


# ---------------------------------------------------------------------------
# reach-point


def _reach_closure(succ: list[int]) -> list[int]:
    """reach[u]: bitmask of nodes reachable from u by a non-empty path."""
    n = len(succ)
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for u in range(n):
            new = reach[u]
            for v in range(n):
                if (reach[u] >> v) & 1:
                    new |= reach[v]
            if new != reach[u]:
                reach[u] = new
                changed = True
    return reach


def _reach_sizes(edges, source, target):
    """(possible path atoms, ground rules, cone edges, has cycle, target
    reachable) of the reachability program, computed from the graph."""
    succ = [0] * REACH_NODES
    for u, v in edges:
        succ[u] |= 1 << v
    reach = _reach_closure(succ)
    paths = sum(bin(r).count("1") for r in reach)
    rules = len(edges) + sum(bin(reach[v]).count("1") for _, v in edges)
    # cone of path(source, target): path(u, target) depends on edge(u, v) and,
    # when v reaches target, on path(v, target)
    cone, seen, todo = set(), {source}, [source]
    while todo:
        u = todo.pop()
        for x, v in edges:
            if x == u and (v == target or (reach[v] >> target) & 1):
                cone.add((x, v))
                if (reach[v] >> target) & 1 and v not in seen:
                    seen.add(v)
                    todo.append(v)
    cyclic = any((reach[u] >> u) & 1 for u in range(REACH_NODES))
    return paths, rules, len(cone), cyclic, bool((reach[source] >> target) & 1)


def _reach_case(rng: random.Random) -> Case:
    pairs = [(u, v) for u in range(REACH_NODES) for v in range(REACH_NODES) if u != v]
    source, target = 0, REACH_NODES - 1
    while True:
        edges = sorted(rng.sample(pairs, REACH_EDGES))
        sizes = _reach_sizes(edges, source, target)
        if sizes == (REACH_PATHS, REACH_RULE_COUNT, REACH_CONE, True, True):
            break
    probs = [_prob(rng) for _ in edges]
    names = [(f"n{u}", f"n{v}") for u, v in edges]
    p = reference.reach_probability(names, probs, f"n{source}", f"n{target}")
    return Case(
        REACH_RULES,
        tuple((pr, f"edge({u},{v})") for pr, (u, v) in zip(probs, names)),
        ("--q", f"path(n{source},n{target})", "--semantics", "auto"),
        (f"path(n{source}, n{target})",),
        ("point", p),
    )


# ---------------------------------------------------------------------------
# game-credal / game-wf


def _game_structure_ok(moves) -> bool:
    """Every position has a move and is reachable from the query position
    p0, so every move is in the cone of wins(p0); some cycle exists, so the
    program is not stratified."""
    n = 2 * GAME_SIDE
    succ = [[] for _ in range(n)]
    for x, y in moves:
        succ[x].append(y)
    if any(not s for s in succ):
        return False
    seen, todo = set(), [0]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(succ[x])
    # bipartite, every position has a move: a walk must revisit a position
    return len(seen) == n


def _game_case(rng: random.Random) -> tuple[Case, Case]:
    """One program, as its game-credal and game-wf cases. Draws are redrawn
    until both answers are informative: the credal interval is neither a
    point nor [0, 1], and P(undefined) is strictly between 0 and 1."""
    side_a = range(GAME_SIDE)
    side_b = range(GAME_SIDE, 2 * GAME_SIDE)
    pairs = [(x, y) for x in side_a for y in side_b]
    pairs += [(y, x) for x, y in pairs]
    positions = [f"p{i}" for i in range(2 * GAME_SIDE)]
    while True:
        moves = sorted(rng.sample(pairs, GAME_MOVES))
        if not _game_structure_ok(moves):
            continue
        probs = [_prob(rng) for _ in moves]
        names = [(f"p{x}", f"p{y}") for x, y in moves]
        interval = reference.game_credal(positions, names, probs, "p0", "p4")
        undefined = reference.game_undefined(positions, names, probs, "p0")
        if (
            interval is not None
            and interval[0] != interval[1]
            and interval != (0, 1)
            and 0 < undefined < 1
        ):
            break
    facts = tuple((pr, f"move({x},{y})") for pr, (x, y) in zip(probs, names))
    credal = Case(
        GAME_RULES, facts,
        ("--q", "wins(p0)", "--e", "wins(p4)", "--semantics", "credal"),
        ("wins(p0)", "wins(p4)"),
        ("interval", *interval),
    )
    wf = Case(
        GAME_RULES, facts,
        ("--q", "wins(p0)=undefined", "--semantics", "wf"),
        ("wins(p0)",),
        ("point", undefined),
    )
    return credal, wf


# ---------------------------------------------------------------------------
# grid-ground


def _grid_case(rng: random.Random) -> Case:
    """Right and down edges of a GRID x GRID grid, two of them probabilistic.
    The query runs from the tail of the first probabilistic edge to a node
    further along its row or column, which has no other route, so
    0 < P < 1."""
    def node(r, c):
        return f"n{r}{c}"

    edges = []
    for r in range(GRID):
        for c in range(GRID):
            if c + 1 < GRID:
                edges.append(((r, c), (r, c + 1)))
            if r + 1 < GRID:
                edges.append(((r, c), (r + 1, c)))
    uncertain = rng.sample(range(len(edges)), 2)
    (r0, c0), (r1, c1) = edges[uncertain[0]]
    if r1 == r0:
        target = (r0, rng.randint(c1, GRID - 1))
    else:
        target = (rng.randint(r1, GRID - 1), c0)
    probs = [_prob(rng) if i in uncertain else Fraction(1) for i in range(len(edges))]
    names = [(node(*u), node(*v)) for u, v in edges]
    source, sink = node(r0, c0), node(*target)
    p = reference.reach_probability(names, probs, source, sink)
    return Case(
        REACH_RULES,
        tuple((pr, f"edge({u},{v})") for pr, (u, v) in zip(probs, names)),
        ("--q", f"path({source},{sink})", "--semantics", "auto"),
        (f"path({source}, {sink})",),
        ("point", p),
    )


# ---------------------------------------------------------------------------


def cases(workload: str, seed: int) -> list[Case]:
    """The pool of cases for one seed; the same seed gives the same cases."""
    out = []
    for i in range(POOL):
        if workload.startswith("game-"):
            rng = random.Random(f"game:{seed}:{i}")
            credal, wf = _game_case(rng)
            out.append(credal if workload == "game-credal" else wf)
        else:
            rng = random.Random(f"{workload}:{seed}:{i}")
            out.append((_reach_case if workload == "reach-point" else _grid_case)(rng))
    return out


def cone_choice_points(dump: str, atoms: tuple[str, ...]) -> int:
    """Choice points in the backward dependency cone of ``atoms``, computed
    from the ground dump that ``credalplp ground`` prints
    (``atom``/``rule``/``choice`` lines)."""
    ids: dict[str, int] = {}
    body: dict[int, list[int]] = {}
    choice_atoms: list[int] = []
    for line in dump.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "atom":
            aid, _, text = rest.partition(" ")
            ids[text] = int(aid)
        elif kind == "rule":
            head, pos, neg = (part.strip() for part in rest.split("|"))
            deps = [int(a) for a in (pos + "," + neg).split(",") if a]
            body.setdefault(int(head), []).extend(deps)
        elif kind == "choice":
            choice_atoms.append(int(rest.split()[1]))
    cone: set[int] = set()
    todo = [ids[a] for a in atoms if a in ids]
    while todo:
        aid = todo.pop()
        if aid not in cone:
            cone.add(aid)
            todo.extend(body.get(aid, ()))
    return sum(1 for aid in choice_atoms if aid in cone)


def property_errors(workload: str, case: Case, classification: str, cone: int) -> list[str]:
    """Violated generator properties of one case, given the engine's
    classification and the cone counted from its ground program."""
    w = WORKLOADS[workload]
    n = case.choice_points
    errors = []
    if classification != w.classification:
        errors.append(f"classified {classification}, expected {w.classification}")
    if w.cone == "lt" and not cone < n:
        errors.append(f"cone {cone} is not smaller than {n} choice points")
    if w.cone == "eq" and cone != n:
        errors.append(f"cone {cone} differs from {n} choice points")
    kind, *values = case.expected
    if kind == "point" and not 0 < values[0] < 1:
        errors.append(f"degenerate point answer {values[0]}")
    if kind == "interval" and (values[0] == values[1] or values == [0, 1]):
        errors.append(f"degenerate interval {values}")
    return errors
