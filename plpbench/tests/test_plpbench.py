"""Tests of the benchmark itself: references, generators, trace integrity and
the pinned per-workload counters.

    PYTHONPATH=src python -m pytest -q plpbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WINS_POSITIONS = ["a", "b", "c", "d"]
WINS_MOVES = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")]
WINS_PROBS = [F(1), F(1), F(1), F(3, 10)]


def test_game_reference_reproduces_readme_answers():
    # README: credalplp query wins.plp --q "wins(b)" --semantics credal -> [7/10, 1]
    assert reference.game_credal(WINS_POSITIONS, WINS_MOVES, WINS_PROBS, "b") == (F(7, 10), F(1))
    assert reference.game_credal(WINS_POSITIONS, WINS_MOVES, WINS_PROBS, "c") == (F(3, 10), F(3, 10))
    assert reference.game_undefined(WINS_POSITIONS, WINS_MOVES, WINS_PROBS, "b") == F(3, 10)


def test_game_reference_conditional_degenerate_cases():
    # wins(c) holds only when c -> d is kept; then a and b are drawn and
    # wins(b) holds in one of the two stable models
    assert reference.game_credal(WINS_POSITIONS, WINS_MOVES, WINS_PROBS, "b", "c") == (F(0), F(1))
    # wins(d) never holds: the evidence has upper probability 0
    assert reference.game_credal(WINS_POSITIONS, WINS_MOVES, WINS_PROBS, "b", "d") is None


def test_reach_reference_by_hand():
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    half = [F(1, 2)] * 3
    # 1 - (1 - 1/4)(1 - 1/2)
    assert reference.reach_probability(edges, half, "a", "c") == F(5, 8)
    # a cycle does not make a node reach itself for free
    assert reference.reach_probability([("a", "b"), ("b", "a")], half[:2], "a", "a") == F(1, 4)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_properties(workload, seed, tmp_path):
    cases = workloads.cases(workload, seed)
    paths = [tmp_path / f"case{i}.plp" for i in range(len(cases))]
    for path, case in zip(paths, cases):
        path.write_text(case.render(), encoding="utf-8")
    errors, _ = run.property_errors(workload, seed, cases, paths)
    assert errors == []


def test_missing_trace_target_fails_loudly(monkeypatch):
    import credalplp.models

    monkeypatch.delattr(credalplp.models, "is_stable")
    with pytest.raises(RuntimeError, match="credalplp.models.is_stable"):
        spans.install(spans.Tracer())


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "plpbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "plpbench/run.py", "--workload", "grid-ground",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# Counters of one traced pass (one query per pool program) at seed 1.
PINNED = {
    "reach-point": {
        "grounding.atoms": 368, "grounding.rules": 480, "grounding.choice_points": 80,
        "grounding.cone_choice_points": 56, "inference.choices": 8192,
        "models.well_founded_model.calls": 8192, "models.fixpoint_rounds": 32752,
        "models.is_stable.calls": 8192, "models.models": 8192,
    },
    "game-credal": {
        "grounding.atoms": 144, "grounding.rules": 80, "grounding.choice_points": 80,
        "grounding.cone_choice_points": 80, "inference.choices": 8192,
        "models.well_founded_model.calls": 8192, "models.fixpoint_rounds": 42393,
        "models.is_stable.calls": 10618, "models.models": 10618,
    },
    "game-wf": {
        "grounding.atoms": 144, "grounding.rules": 80, "grounding.choice_points": 80,
        "grounding.cone_choice_points": 80, "inference.choices": 8192,
        "models.well_founded_model.calls": 8192, "models.fixpoint_rounds": 42393,
        "models.is_stable.calls": 0, "models.models": 8192,
    },
    "grid-ground": {
        "grounding.atoms": 6552, "grounding.rules": 10064, "grounding.choice_points": 16,
        "grounding.cone_choice_points": 8, "inference.choices": 32,
        "models.well_founded_model.calls": 32, "models.fixpoint_rounds": 120,
        "models.is_stable.calls": 32, "models.models": 32,
    },
}


def traced_counts(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_are_pinned_and_repeat(workload, capsys):
    first = traced_counts(workload, capsys)
    assert traced_counts(workload, capsys) == first
    assert first == PINNED[workload]
