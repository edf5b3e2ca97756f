"""Exact reference answers that do not run the engine.

Each reference enumerates the total choices itself and decides the query
with a plain graph algorithm, so a wrong engine answer cannot also be a wrong
reference answer for the same reason.

- Reachability (``path/2`` over ``edge/2``): BFS over the kept edges.
- Win-move (``wins(X) :- move(X,Y), not wins(Y).``): retrograde game analysis
  gives the well-founded labelling (won / lost / drawn). Once the moves are
  fixed the program is tight, so its stable models are its supported models:
  every assignment to the drawn positions in which a drawn position wins
  exactly when it has a move to a non-winning position.

Probabilities are ``Fraction``; a probability of 1 marks a deterministic fact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator


def _choices(probs: list[Fraction]) -> Iterator[tuple[int, Fraction]]:
    """(mask, weight) for every subset of the uncertain facts; bit i of the
    mask keeps fact i. Facts with probability 1 are always kept."""
    fixed = sum(1 << i for i, p in enumerate(probs) if p == 1)
    uncertain = [i for i, p in enumerate(probs) if p != 1]
    for sub in range(1 << len(uncertain)):
        mask = fixed
        weight = Fraction(1)
        for j, i in enumerate(uncertain):
            if (sub >> j) & 1:
                mask |= 1 << i
                weight *= probs[i]
            else:
                weight *= 1 - probs[i]
        yield mask, weight


def reach_probability(
    edges: list[tuple[str, str]], probs: list[Fraction], source: str, target: str
) -> Fraction:
    """P(path(source, target)): weight of the total choices whose kept edges
    hold a non-empty path from source to target."""
    total = Fraction(0)
    for mask, weight in _choices(probs):
        succ: dict[str, list[str]] = {}
        for i, (u, v) in enumerate(edges):
            if (mask >> i) & 1:
                succ.setdefault(u, []).append(v)
        seen: set[str] = set()
        frontier = list(succ.get(source, ()))
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(succ.get(node, ()))
        if target in seen:
            total += weight
    return total


def _game_labels(n: int, succ: list[int]) -> tuple[int, int]:
    """Retrograde analysis: bitmasks of won and lost positions; the rest are
    drawn. A position is lost when every move reaches a won position (so a
    position without moves is lost) and won when some move reaches a lost
    one."""
    won = lost = 0
    changed = True
    while changed:
        changed = False
        for x in range(n):
            bit = 1 << x
            if (won | lost) & bit:
                continue
            if succ[x] & lost:
                won |= bit
                changed = True
            elif succ[x] & ~won == 0:
                lost |= bit
                changed = True
    return won, lost


def _game_models(n: int, succ: list[int], won: int, lost: int) -> list[int]:
    """Supported models as bitmasks of winning positions."""
    drawn = [x for x in range(n) if not ((won | lost) >> x) & 1]
    models = []
    for sub in range(1 << len(drawn)):
        wins = won
        for j, x in enumerate(drawn):
            if (sub >> j) & 1:
                wins |= 1 << x
        if all(
            bool((wins >> x) & 1) == bool(succ[x] & ~wins) for x in drawn
        ):
            models.append(wins)
    return models


def _game_choices(positions, moves, probs):
    index = {p: i for i, p in enumerate(positions)}
    n = len(positions)
    for mask, weight in _choices(probs):
        succ = [0] * n
        for i, (x, y) in enumerate(moves):
            if (mask >> i) & 1:
                succ[index[x]] |= 1 << index[y]
        yield index, succ, weight


def game_credal(
    positions: list[str],
    moves: list[tuple[str, str]],
    probs: list[Fraction],
    query: str,
    evidence: str | None = None,
):
    """Credal bounds on wins(query) (given wins(evidence)) under the
    capacity conditioning rule: [a/(a+d), b/(b+c)] with its degenerate
    cases. Returns (lower, upper), or None when the evidence has upper
    probability 0. Raises ValueError on a total choice without a stable
    model."""
    a = b = c = d = Fraction(0)
    n = len(positions)
    for index, succ, weight in _game_choices(positions, moves, probs):
        models = _game_models(n, succ, *_game_labels(n, succ))
        if not models:
            raise ValueError("a total choice has no stable model")
        q = 1 << index[query]
        e = 1 << index[evidence] if evidence is not None else 0
        qe = [bool(m & q) and (m & e) == e for m in models]
        nqe = [not (m & q) and (m & e) == e for m in models]
        a += weight if all(qe) else 0
        b += weight if any(qe) else 0
        c += weight if all(nqe) else 0
        d += weight if any(nqe) else 0
    if evidence is None:
        return a, b
    if b + d == 0:
        return None
    if b + c == 0 and d > 0:
        return Fraction(0), Fraction(0)
    if a + d == 0 and b > 0:
        return Fraction(1), Fraction(1)
    return a / (a + d), b / (b + c)


def game_undefined(
    positions: list[str],
    moves: list[tuple[str, str]],
    probs: list[Fraction],
    query: str,
) -> Fraction:
    """P(wins(query) = undefined) under the well-founded semantics: weight of
    the total choices in which the query position is drawn."""
    total = Fraction(0)
    n = len(positions)
    for index, succ, weight in _game_choices(positions, moves, probs):
        won, lost = _game_labels(n, succ)
        if not ((won | lost) >> index[query]) & 1:
            total += weight
    return total
