"""Clark completion and Bayesian-network compilation for acyclic programs.

The network's structure is the grounded dependency graph: choice points
become root nodes carrying their probability, every other atom becomes a
deterministic node whose table rows evaluate its completion formula. Queries
are answered by exhaustive enumeration of root configurations, on each of
which query and evidence are read as events and tested with ``eval_formula``:
this keeps the module an independent oracle for the total-choice engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import UNDEFINED, NotAcyclicError, ResourceGuardError
from .grounding import GroundProgram, classify, dependency_graph
from .inference import And, Event, Lit, Not, Or, event_from_assignments

DEFAULT_MAX_PARENTS = 16


def eval_formula(e: Event, env: dict[str, bool]) -> bool:
    if isinstance(e, Lit):
        return env.get(e.atom, False) == e.value
    if isinstance(e, Not):
        return not eval_formula(e.sub, env)
    if isinstance(e, And):
        return all(eval_formula(p, env) for p in e.parts)
    if isinstance(e, Or):
        return any(eval_formula(p, env) for p in e.parts)
    raise TypeError(f"not a formula: {e!r}")


def clark_completion(g: GroundProgram) -> dict[int, Event]:
    """Per-atom completion formulas for an acyclic ground program
    (``NotAcyclicError`` otherwise).

    Pure choice-point atoms (no rules) are excluded; they become root nodes.
    An atom with rules maps to the disjunction of its rule bodies, a fact to
    TRUE (empty conjunction), an atom with no rules to FALSE.
    """
    if classify(dependency_graph(g)).kind != "acyclic":
        raise NotAcyclicError("program's grounded dependency graph has a cycle")
    bodies: dict[int, list[Event]] = {}
    for rule in g.rules:
        lits = [Lit(g.atoms[p], True) for p in rule.pos]
        lits += [Lit(g.atoms[n], False) for n in rule.neg]
        bodies.setdefault(rule.head, []).append(And(tuple(lits)))
    choice_atoms = {cp.ground_atom for cp in g.choice_points}
    return {
        aid: Or(tuple(bodies.get(aid, ())))
        for aid in range(g.n_atoms)
        if aid in bodies or aid not in choice_atoms
    }


class BnNode(NamedTuple):
    name: str
    parents: tuple[str, ...]
    prob: Fraction | None = None  # roots only
    formula: Event | None = None  # derived nodes only

    @property
    def is_root(self) -> bool:
        return self.prob is not None


class BayesNet(NamedTuple):
    nodes: list[BnNode]  # topological order

    def node(self, name: str) -> BnNode | None:
        for n in self.nodes:
            if n.name == name:
                return n
        return None


def compile_bn(
    g: GroundProgram, max_parents: int = DEFAULT_MAX_PARENTS
) -> BayesNet:
    completion = clark_completion(g)  # raises NotAcyclicError on a cycle
    cps_by_atom: dict[int, list] = {}
    for cp in g.choice_points:
        cps_by_atom.setdefault(cp.ground_atom, []).append(cp)

    created: list[BnNode] = []
    for aid, name in enumerate(g.atoms):
        cps = cps_by_atom.get(aid, [])
        if len(cps) == 1 and aid not in completion:
            created.append(BnNode(name, (), prob=cps[0].prob))
            continue
        # several choice points over one atom, or choice points mixed with
        # rules: each selection becomes its own root and the atom is derived
        roots = [BnNode(f"choice#{cp.id}", (), prob=cp.prob) for cp in cps]
        formula = Or(
            tuple(Lit(root.name, True) for root in roots)
            + completion.get(aid, Or(())).parts
        )
        parents = tuple(dict.fromkeys(
            lit.atom
            for part in formula.parts
            for lit in (part.parts if isinstance(part, And) else (part,))
        ))
        if len(parents) > max_parents:
            raise ResourceGuardError(
                f"node {name} has {len(parents)} parents (cap {max_parents})"
            )
        created += roots
        created.append(BnNode(name, parents, formula=formula))

    # Kahn's algorithm in waves: each wave is every node whose parents are all
    # placed, in creation order, which fixes the order export_bn writes
    topo: list[BnNode] = []
    placed: set[str] = set()
    while len(topo) < len(created):
        wave = [
            n for n in created
            if n.name not in placed and placed.issuperset(n.parents)
        ]
        if not wave:
            raise NotAcyclicError("cycle among network nodes")
        topo += wave
        placed.update(n.name for n in wave)
    return BayesNet(topo)


def bn_query(bn: BayesNet, q_assignments, e_assignments=None):
    """Exact joint summation over root configurations (no evidence is TRUE,
    of mass exactly 1); Undefined when the evidence has probability zero."""
    roots = [n for n in bn.nodes if n.is_root]
    q = event_from_assignments(q_assignments)
    e = event_from_assignments(e_assignments or ())
    if any(lit.value is None for lit in q.parts + e.parts):
        raise ValueError("undefined assignment: a Bayesian network is two-valued")
    # each configuration's weight is an integer numerator over the product
    # of the roots' denominators, which the final division cancels
    factors = [
        (root.prob.denominator - root.prob.numerator, root.prob.numerator)
        for root in roots
    ]
    p_qe = p_e = 0
    for mask in range(1 << len(roots)):
        weight = 1
        env: dict[str, bool] = {}
        for i, root in enumerate(roots):
            value = bool((mask >> i) & 1)
            env[root.name] = value
            weight *= factors[i][value]
        for node in bn.nodes:
            if not node.is_root:
                env[node.name] = eval_formula(node.formula, env)
        if eval_formula(e, env):
            p_e += weight
            if eval_formula(q, env):
                p_qe += weight
    if p_e == 0:
        return UNDEFINED
    return Fraction(p_qe, p_e)


def export_bn(bn: BayesNet) -> bytes:
    """Deterministic text dump: nodes in topological order, parents, table
    rows keyed by parent bit-pattern (parents in declared order, bit 1 =
    true), probabilities as num/den. Parents are ';'-separated since atom
    text contains commas."""
    lines = []
    for node in bn.nodes:
        lines.append(f"node {node.name}")
        lines.append("parents " + ";".join(node.parents))
        if node.is_root:
            lines.append(f"row - {node.prob.numerator}/{node.prob.denominator}")
        else:
            k = len(node.parents)
            for mask in range(1 << k):
                bits = format(mask, f"0{k}b") if k else "-"
                env = {
                    p: bool((mask >> (k - 1 - i)) & 1)
                    for i, p in enumerate(node.parents)
                }
                value = eval_formula(node.formula, env)
                lines.append(f"row {bits} {int(value)}/1")
    text = "\n".join(lines) + ("\n" if lines else "")
    return text.encode("utf-8")
