"""Shared program texts and small helpers for the test suite."""

import functools
import sys
from fractions import Fraction
from pathlib import Path

import credalplp as c

EXPR3 = "0.5::r. 0.5::s. v :- r, s."

DUPLICATE_FACTS = "0.5::r. 0.6::r. 0.2::s(a). 0.3::s(X). v :- r, s(a), s(b)."

ALARM = """
0.7::burglary. 0.2::earthquake.
alarm :- burglary, earthquake, a1.
alarm :- burglary, not earthquake, a2.
alarm :- not burglary, earthquake, a3.
0.9::a1. 0.8::a2. 0.1::a3.
calls(X) :- alarm, neighbor(X).
neighbor(a). neighbor(b).
"""

ALARM_SHORT = """
0.7::burglary. 0.2::earthquake.
alarm :- burglary, earthquake, a1.
alarm :- burglary, not earthquake, a2.
alarm :- not burglary, earthquake, a3.
0.9::a1. 0.8::a2. 0.1::a3.
"""

SMOKERS_DET = """
smokes(X) :- stress(X).
smokes(X) :- influences(Y,X), smokes(Y).
influences(a,b). influences(b,a). stress(b).
"""

SMOKERS = """
smokes(X) :- stress(X).
smokes(X) :- influences(Y,X), smokes(Y).
0.3::influences(a,b). 0.3::influences(b,a). 0.8::stress(b).
"""

SMOKERS_02 = SMOKERS.replace("0.8::stress(b)", "0.2::stress(b)")

# cyclic two-rule pattern plus a probabilistic fact on r
PQR = """
p :- not q, not r.
q :- not p.
0.3::r.
"""

PQR_DET = "p :- not q, not r. q :- not p."

GAME = """
wins(X) :- move(X,Y), not wins(Y).
move(a,b). move(b,a). move(b,c). move(c,d).
"""

WINS = """
wins(X) :- move(X,Y), not wins(Y).
move(a,b). move(b,a). move(b,c). 0.3::move(c,d).
"""

BARBER_DET = """
shaves(X,Y) :- barber(X), villager(Y), not shaves(Y,Y).
villager(a). barber(b). villager(b).
"""

BARBER = """
shaves(X,Y) :- barber(X), villager(Y), not shaves(Y,Y).
villager(a). barber(b). 0.5::villager(b).
"""

DILBERT = """
0.9::man(dilbert).
single(X) :- man(X), not husband(X).
husband(X) :- man(X), not single(X).
"""

COLD = """
cold :- headache, a.
cold :- not headache, not a.
0.34::a.
headache :- cold, b.
headache :- not b.
0.25::b.
"""

COLORING = """
color(V,red) :- not color(V,yellow), not color(V,green), vertex(V).
color(V,yellow) :- not color(V,red), not color(V,green), vertex(V).
color(V,green) :- not color(V,red), not color(V,yellow), vertex(V).
clash :- not clash, edge(V,U), color(V,C), color(U,C).
vertex(1). vertex(2). vertex(3). vertex(4). vertex(5).
color(2,red). color(5,green).
0.5::edge(4,5).
edge(1,3). edge(1,4). edge(2,1). edge(2,4). edge(3,5). edge(4,3).
"""

PATH = """
path(X,Y) :- edge(X,Y).
path(X,Z) :- edge(X,Y), path(Y,Z).
0.6::edge(1,2). 0.1::edge(1,3). 0.4::edge(2,5). 0.3::edge(2,6).
0.3::edge(3,4). 0.8::edge(4,5). 0.2::edge(5,6).
"""

CASES = "a :- not b. b :- not a. p :- a. p :- b."

ALL_PROGRAMS = {
    "expr3": EXPR3,
    "duplicate_facts": DUPLICATE_FACTS,
    "alarm": ALARM,
    "alarm_short": ALARM_SHORT,
    "smokers_det": SMOKERS_DET,
    "smokers": SMOKERS,
    "pqr": PQR,
    "pqr_det": PQR_DET,
    "game": GAME,
    "wins": WINS,
    "barber_det": BARBER_DET,
    "barber": BARBER,
    "dilbert": DILBERT,
    "cold": COLD,
    "coloring": COLORING,
    "path": PATH,
    "cases": CASES,
}


def grd(text: str) -> c.GroundProgram:
    return c.ground(c.parse_program(text))


def qassign(text: str):
    return c.parse_query(text).q_assignments


def qevent(text: str) -> c.And:
    return c.event_from_assignments(qassign(text))


def cred(g, qtext, **kw) -> c.CredalInterval:
    return c.credal_unconditional(g, qevent(qtext), **kw)


def wfq(g, qtext, etext=None, **kw):
    e = qassign(etext) if etext else None
    return c.wf_query(g, qassign(qtext), e, **kw)


def frac(text) -> Fraction:
    return Fraction(text)


PLPBENCH = Path(__file__).resolve().parent.parent / "plpbench"


@functools.cache
def cases(workload: str, seed: int) -> tuple:
    """The cases of one benchmark pool, as ``plpbench/workloads.py``
    generates them (game-wf asks other queries of the game-credal programs):
    each has its program text (``render()``) and its query arguments
    (``args``)."""
    if str(PLPBENCH) not in sys.path:
        sys.path.append(str(PLPBENCH))
    import workloads

    return tuple(workloads.cases(workload, seed))


def pool(workload: str, seed: int) -> tuple[str, ...]:
    """The program texts of one benchmark pool."""
    return tuple(case.render() for case in cases(workload, seed))
