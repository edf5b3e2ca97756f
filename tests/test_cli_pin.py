"""One digest over the exact output of many `credalplp query` and
`credalplp consistency` runs under `--no-timing`.

The programs are the fixtures plus seeded small random ground programs; each
is queried under every semantics, with and without evidence, in text and
machine mode, with and without `--gamma`, and through the error paths
(`=undefined` outside the well-founded semantics, inconsistent programs, a
choice cap, a bad gamma, a missing atom). A change to any message, exit code,
JSON key or number changes the digest. If a change of output is intended,
print `corpus_digest(...)` and update DIGEST, saying why in the log.

A second digest, POOL_DIGEST, pins the runs of the benchmark pools' own
queries (`plpbench/workloads.py`, all four workloads at seed 1) in text and
machine mode; `pool_digest(...)` prints it.
"""

import contextlib
import hashlib
import io
import random

from credalplp.cli import run

import fixtures as fx

DIGEST = "2b43266f9482c2caf8ef892d484fba75d0ad3caff0eba562022ea154f9eded10"

POOL_DIGEST = "108c49fd7609a7f4dbaac3ad1b7369bb48941ab20e0f5eec57b478219d38e688"
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


def corpus_digest(tmp_path) -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for name, text in programs():
        path = str(tmp_path / f"{name}.plp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for mode, argv in argvs(path, text):
            full = ["--no-timing", "--mode", mode, *argv]
            code, out, err = _invoke(full)
            record = (name, full, code, out, err)
            h.update(repr(record).replace(path, name).encode("utf-8"))
            count += 1
    return h.hexdigest(), count


def pool_digest(tmp_path) -> tuple[str, int]:
    """One digest over (workload, index, argv, exit code, stdout, stderr) of
    each pool case's own query, in text and machine mode."""
    h = hashlib.sha256()
    count = 0
    for workload in POOL_WORKLOADS:
        for index, case in enumerate(fx.cases(workload, 1)):
            path = str(tmp_path / f"{workload}-{index}.plp")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(case.render())
            for mode in ("text", "machine"):
                argv = ["--no-timing", "--mode", mode, "query", path, *case.args]
                code, out, err = _invoke(argv)
                record = (workload, index, argv, code, out, err)
                h.update(repr(record).replace(path, "FILE").encode("utf-8"))
                count += 1
    return h.hexdigest(), count


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_query_and_consistency_output_is_pinned(tmp_path):
    digest, count = corpus_digest(tmp_path)
    assert count > 500
    assert digest == DIGEST


def test_benchmark_pool_queries_are_pinned(tmp_path):
    digest, count = pool_digest(tmp_path)
    assert count == 64
    assert digest == POOL_DIGEST
