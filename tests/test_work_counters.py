"""The work each benchmark pool's queries do, pinned: total choices solved,
well-founded models computed, alternating-fixpoint rounds, stability checks
and models found. Each is counted at the engine function through which the
engine calls it, as the benchmark's tracer (``plpbench/spans.py``) counts
it, over one CLI query per case of the seed-1 pool; the totals are those the
benchmark's own tests pin (``PINNED`` in ``plpbench/tests``). A change that
keeps the per-choice work must leave every total as it is."""

import contextlib
import io
from collections import Counter

import pytest

from credalplp import cli, inference, models

import fixtures as fx

PINNED = {
    "reach-point": {
        "inference.choices": 8192, "models.well_founded_model.calls": 8192,
        "models.fixpoint_rounds": 32752, "models.is_stable.calls": 8192,
        "models.models": 8192,
    },
    "game-credal": {
        "inference.choices": 8192, "models.well_founded_model.calls": 8192,
        "models.fixpoint_rounds": 42393, "models.is_stable.calls": 10618,
        "models.models": 10618,
    },
    "game-wf": {
        "inference.choices": 8192, "models.well_founded_model.calls": 8192,
        "models.fixpoint_rounds": 42393, "models.is_stable.calls": 0,
        "models.models": 8192,
    },
    "grid-ground": {
        "inference.choices": 32, "models.well_founded_model.calls": 32,
        "models.fixpoint_rounds": 120, "models.is_stable.calls": 32,
        "models.models": 32,
    },
}


def count_work(monkeypatch, counts: Counter) -> None:
    """Wrap the module attributes the engine calls through, adding to
    ``counts``: a model is one stable model yielded to ``inference`` or one
    well-founded model computed by its well-founded sweep."""

    def wrap(module, name, count):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kw: count(real(*args, **kw)))

    def items(key):  # one per item a generator yields
        def count(iterator):
            for item in iterator:
                counts[key] += 1
                yield item

        return count

    def calls(*keys, add=lambda result: 1):
        def count(result):
            for key in keys:
                counts[key] += add(result)
            return result

        return count

    wf_calls = "models.well_founded_model.calls"
    wrap(inference, "total_choices", items("inference.choices"))
    wrap(inference, "stable_models", items("models.models"))
    wrap(inference, "well_founded_model", calls(wf_calls, "models.models"))
    wrap(models, "well_founded_model", calls(wf_calls))
    wrap(models, "alternating_iterates", calls("models.fixpoint_rounds", add=len))
    wrap(models, "is_stable", calls("models.is_stable.calls"))


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pool_queries_do_the_pinned_work(workload, tmp_path, monkeypatch):
    counts = Counter()
    count_work(monkeypatch, counts)
    for index, case in enumerate(fx.cases(workload, 1)):
        path = tmp_path / f"{index}.plp"
        path.write_text(case.render(), encoding="utf-8")
        argv = ["--no-timing", "--mode", "machine", "query", str(path), *case.args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.run(argv) == 0, err.getvalue()
    assert {key: counts[key] for key in PINNED[workload]} == PINNED[workload]
