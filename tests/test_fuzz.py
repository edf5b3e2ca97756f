"""A seeded fuzz run of the command line: mutated fixture programs and query
strings go through ``cli.run`` in-process, over every command shape, with
small caps. Every run must end in an exit code of 0-3, with no exception
escaping: a traceback here is a bug the CLI's error handling missed."""

import contextlib
import io
import random
import re
from collections import Counter

from credalplp import cli

import fixtures as fx

CAPS = ["--no-timing", "--max-choices", "5", "--max-ground-rules", "150"]
FIXTURES = list(fx.ALL_PROGRAMS.values())
STATEMENTS = [s for text in FIXTURES for s in re.split(r"(?<=\.)\s+", text.strip())]
GROUND_ATOM = re.compile(r"[a-z]\w*(?:\([a-z0-9_, ]*\))?")


def mutate(rng: random.Random, text: str) -> str:
    """1-3 edits of ``text``, each at the first match of its pattern after a
    random place; most keep it a program."""
    for _ in range(rng.randint(1, 3)):
        atoms = GROUND_ATOM.findall(text) or ["a"]
        pattern, new = rng.choice([
            (r"(?<=\.)\s+\S[^\n]*?\.(?=\s|$)", ""),  # drop a statement
            (r"(?<=\.)\s", f"\n{rng.choice(STATEMENTS)}\n"),  # add one of any fixture
            (re.escape(rng.choice(atoms)), rng.choice([*atoms, "q(X)"])),  # rename an atom
            (r"(?<=[-,] )(?=[a-z])", "not "),  # negate a body atom
            (r"not ", ""),  # drop a negation
            (r"[0-9./]+::", rng.choice(["0::", "1::", "1/3::", "3/2::"])),  # a weight
            (r".{0,8}", rng.choice(["", ".", ",", "(", ":-", "::", "X", "%", "'", "é"])),
        ])
        i = rng.randint(0, len(text))
        text = text[:i] + re.sub(pattern, lambda _: new, text[i:], count=1, flags=re.S)
    return text


def assignments(rng: random.Random, text: str) -> str:
    """Query or evidence assignments over ground atoms of ``text``, at times
    mutated."""
    atoms, values = GROUND_ATOM.findall(text) or ["a"], ["", "", "=false", "=undefined"]
    query = ", ".join(rng.choice(atoms) + rng.choice(values) for _ in range(rng.randint(0, 3)))
    return mutate(rng, query) if rng.random() < 0.2 else query


def argv(rng: random.Random, path: str, text: str) -> list[str]:
    """One command over ``path``, with its options drawn at random."""
    commands = ["check", "ground", "classify", "models", "consistency", "export-bn"]
    command = rng.choice([*commands, "query", "query", "query"])
    args = [*CAPS, "--mode", rng.choice(["text", "machine"]), command, path]
    if command == "models":
        bits = rng.choices("01", k=max(0, text.count("::") - (rng.random() < 0.2)))
        args += ["--choice", "".join(bits), "--semantics", rng.choice(["stable", "wf"])]
    if command == "query":
        args += ["--q", assignments(rng, text)]
        args += ["--semantics", rng.choice(["credal", "wf", "auto"])]
        args += ["--e", assignments(rng, text)] * (rng.random() < 0.5)
        args += ["--gamma", rng.choice(["1/2", "0", "1", "x"])] * (rng.random() < 0.2)
        args += ["--cross-check", "--oracle-limit", "6"] * (rng.random() < 0.3)
    return args


def test_mutated_programs_and_queries_end_in_an_exit_code(tmp_path):
    rng, path = random.Random(20261021), tmp_path / "fuzz.plp"
    codes, commands = Counter(), Counter()
    for _ in range(1000):
        text = mutate(rng, rng.choice(FIXTURES))
        path.write_text(text, encoding="utf-8")
        args = argv(rng, str(path), text)
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = cli.run(args)
        assert type(code) is int and code in (0, 1, 2, 3), (args, text, code)
        codes[code] += 1
        commands[args[len(CAPS) + 2]] += 1
    # every exit code and every command was reached, and over 300 runs succeeded
    assert set(codes) == {0, 1, 2, 3} and codes[0] > 300, codes
    assert len(commands) == 7 and min(commands.values()) > 50, commands
