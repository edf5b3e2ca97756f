"""Reproduce the ROADMAP baseline table.

Workload: random reachability ``path(n0,n7)`` over 8 nodes with n
probabilistic edges (stratified). For each n it prints the wall time of a
whole ``credalplp query`` under ``--semantics credal`` and ``wf``, and of the
sweeps over all 2^n total choices that those queries are made of:
least models, well-founded models, choice weights and per-choice program
copies. Single runs, like the table; times move with the host.

    python3 plpbench/baseline.py                 # n = 10 and 12, seed 0
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import credalplp as plp  # noqa: E402
from credalplp import cli  # noqa: E402

NODES = 8
SIZES = (10, 12)  # n, the number of probabilistic edges: the rows of the table
SEED = 0
RULES = "path(X,Y) :- edge(X,Y).\npath(X,Z) :- edge(X,Y), path(Y,Z).\n"


def program(n: int, seed: int) -> str:
    """n random edges with tenths probabilities, redrawn until n7 is
    reachable from n0 and some cycle makes the program stratified."""
    rng = random.Random(f"baseline:{seed}:{n}")
    pairs = [(u, v) for u in range(NODES) for v in range(NODES) if u != v]
    while True:
        edges = sorted(rng.sample(pairs, n))
        text = RULES + "".join(
            f"{rng.randint(1, 9)}/10::edge(n{u},n{v}).\n" for u, v in edges
        )
        g = plp.ground(plp.parse_program(text))
        if (
            g.atom_id("path(n0, n7)") is not None
            and plp.classify(plp.dependency_graph(g)).kind == "stratified"
        ):
            return text


def timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def row(n: int, path: Path) -> list[float]:
    def query(semantics):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["--no-timing", "query", str(path), "--q", "path(n0,n7)",
                            "--semantics", semantics])
        if code != 0:
            raise RuntimeError(f"query exited with code {code}")

    g = plp.ground(plp.parse_program(path.read_text(encoding="utf-8")))
    choices = list(plp.total_choices(g, n))
    programs = [plp.program_for_choice(g, c) for c in choices]
    return [
        timed(lambda: query("credal")),
        timed(lambda: query("wf")),
        timed(lambda: [plp.least_model(p) for p in programs]),
        timed(lambda: [plp.well_founded_model(p) for p in programs]),
        timed(lambda: list(plp.total_choices(g, n))),
        timed(lambda: [plp.program_for_choice(g, c) for c in choices]),
    ]


def main() -> int:
    print("| n | credal | wf | least-model sweep | WF-model sweep "
          "| choice weights | per-choice program copy |")
    print("|---|--------|----|-------------------|----------------"
          "|----------------|-------------------------|")
    work = ROOT / ".plpbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for n in SIZES:
            path = Path(tmp) / f"reach{n}.plp"
            path.write_text(program(n, SEED), encoding="utf-8")
            cells = " | ".join(f"{t:.2f} s" for t in row(n, path))
            print(f"| {n} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
