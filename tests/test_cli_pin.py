"""One digest over the exact output of many `credalplp query` and
`credalplp consistency` runs under `--no-timing`.

The programs are the fixtures plus seeded small random ground programs; each
is queried under every semantics, with and without evidence, in text and
machine mode, with and without `--gamma`, and through the error paths
(`=undefined` outside the well-founded semantics, inconsistent programs, a
choice cap, a bad gamma, a missing atom). A change to any message, exit code,
JSON key or number changes the digest. If a change of output is intended,
print `digest(corpus_runs(...))` and update DIGEST, saying why in the log.

A second digest, POOL_DIGEST, pins the runs of the benchmark pools' own
queries (`plpbench/workloads.py`, all four workloads at seed 1) in text and
machine mode; `digest(pool_runs(...))` prints it.

MASKED_DIGEST and MASKED_POOL_DIGEST pin the same runs with the work
counters `choices_visited` and `models_visited` masked, in text lines and
JSON keys alike (`digest(..., masked=True)`): a change that alters only how
much work a query does leaves them as they are.
"""

import contextlib
import hashlib
import io
import random
import re

import pytest

from credalplp.cli import run

import fixtures as fx

DIGEST = "2b43266f9482c2caf8ef892d484fba75d0ad3caff0eba562022ea154f9eded10"

POOL_DIGEST = "108c49fd7609a7f4dbaac3ad1b7369bb48941ab20e0f5eec57b478219d38e688"
MASKED_DIGEST = "1349a6bbfb7d3bdd6f9a9d1e7f0319d7e0a111c9da62fa0bd6c58f4dc121220c"
MASKED_POOL_DIGEST = "14174af94ea52a8050cde52a23ca8399cd4852f7e4e6aaf7f647c8a27fbd24b3"
POOL_WORKLOADS = ("reach-point", "game-credal", "game-wf", "grid-ground")

SEMANTICS = ("auto", "credal", "wf")


def random_program(rng: random.Random) -> str:
    """Up to 5 atoms, 6 rules and 3 choice points; some have odd loops."""
    atoms = ["a", "b", "d", "e", "f"][: rng.randint(2, 5)]
    lines = [
        f"{rng.randint(1, 3)}/4::{atom}."
        for atom in rng.sample(atoms, rng.randint(0, min(3, len(atoms))))
    ]
    for _ in range(rng.randint(1, 6)):
        body = [
            ("not " if rng.random() < 0.4 else "") + a
            for a in rng.sample(atoms, rng.randint(0, 2))
        ]
        head = rng.choice(atoms)
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines)


def programs():
    # coloring is left out: at 40 ms a run it would cost more than the rest
    for name, text in fx.ALL_PROGRAMS.items():
        if name != "coloring":
            yield name, text
    rng = random.Random(20261018)
    for i in range(6):
        yield f"random{i}", random_program(rng)


def argvs(path: str, text: str):
    """(mode, argv) pairs: each query under every semantics without
    `--gamma` and with two gammas, then the error paths."""
    names = sorted(fx.grd(text).atoms) or ["nosuch"]
    first, last = names[0], names[-1]
    yield "text", ["consistency", path]
    yield "machine", ["consistency", path]
    yield "text", ["--max-choices", "1", "consistency", path]
    for q, e in ((first, ""), (last, f"{first}=false")):
        for semantics in SEMANTICS:
            argv = ["query", path, "--q", q, "--semantics", semantics]
            argv += ["--e", e] if e else []
            yield "text", argv
            yield "machine", argv + ["--gamma", "1/2"]
            yield "text", argv + ["--gamma", "0"]
    yield "text", ["query", path, "--q", f"{last}=undefined", "--semantics", "credal"]
    yield "machine", ["query", path, "--q", f"{last}=undefined", "--semantics", "wf"]
    yield "text", ["query", path, "--q", f"{first}, {last}=false",
                   "--e", f"{last}=undefined", "--semantics", "wf"]
    yield "machine", ["query", path, "--q", "nosuch"]
    yield "text", ["query", path, "--q", first, "--gamma", "3/2"]
    yield "text", ["--max-choices", "1", "query", path, "--q", first, "--semantics", "wf"]


def corpus_runs(tmp_path) -> list[str]:
    """The repr of (name, argv, exit code, stdout, stderr) of each run."""
    runs = []
    for name, text in programs():
        path = str(tmp_path / f"{name}.plp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for mode, argv in argvs(path, text):
            full = ["--no-timing", "--mode", mode, *argv]
            code, out, err = _invoke(full)
            runs.append(repr((name, full, code, out, err)).replace(path, name))
    return runs


def pool_runs(tmp_path) -> list[str]:
    """The repr of (workload, index, argv, exit code, stdout, stderr) of each
    pool case's own query, in text and machine mode."""
    runs = []
    for workload in POOL_WORKLOADS:
        for index, case in enumerate(fx.cases(workload, 1)):
            path = str(tmp_path / f"{workload}-{index}.plp")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(case.render())
            for mode in ("text", "machine"):
                argv = ["--no-timing", "--mode", mode, "query", path, *case.args]
                code, out, err = _invoke(argv)
                record = (workload, index, argv, code, out, err)
                runs.append(repr(record).replace(path, "FILE"))
    return runs


# `choices_visited: 4` in a text line, `"choices_visited": 4` in a JSON key
WORK_COUNTERS = re.compile(r'((?:choices|models)_visited"?: )\d+')


def digest(runs: list[str], masked: bool = False) -> str:
    h = hashlib.sha256()
    for run_repr in runs:
        if masked:
            run_repr = WORK_COUNTERS.sub(r"\1*", run_repr)
        h.update(run_repr.encode("utf-8"))
    return h.hexdigest()


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# each corpus is run once per module, for its digest and its masked digest
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return corpus_runs(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    return pool_runs(tmp_path_factory.mktemp("pool"))


def test_query_and_consistency_output_is_pinned(corpus):
    assert len(corpus) > 500
    assert digest(corpus) == DIGEST


def test_benchmark_pool_queries_are_pinned(pool):
    assert len(pool) == 64
    assert digest(pool) == POOL_DIGEST


def test_output_with_work_counters_masked_is_pinned(corpus, pool):
    # each pool run answers its query, so it prints both counters
    assert all(len(WORK_COUNTERS.findall(run_repr)) == 2 for run_repr in pool)
    assert digest(corpus, masked=True) == MASKED_DIGEST
    assert digest(pool, masked=True) == MASKED_POOL_DIGEST
