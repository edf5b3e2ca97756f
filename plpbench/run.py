"""credalplp benchmark: seeded query workloads, timed end to end, with a
separate traced pass that splits the time by layer.

    python3 plpbench/run.py --workload reach-point --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the engine is imported from ``src``. One
client sends one ``credalplp query`` at a time to a worker process
(``worker.py``), a closed loop. Every answer is checked against an exact
reference that does not run the engine (``reference.py``). The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".plpbench"
SETUP_REPS = 5  # fresh-interpreter set-ups per run; setup_s is their median
RUN_LIMIT_S = 170  # a run that cannot answer within this is abandoned
# Calibration seconds of the nominal host. Timed samples are reported as
# sample * CALIBRATION_REF_S / (calibration timed next to the sample): the
# hosts this runs on switch between speeds about 1.8x apart from one second
# to the next (other tenants; CPU time tracks wall time, so it is not
# scheduling), and a fixed task timed in the same process slows down with
# them.
CALIBRATION_REF_S = 0.03

TIME_METRICS = {  # per-layer metric: (span name, 0 = total / 1 = self seconds)
    "syntax.parse_program.s": ("syntax.parse_program", 0),
    "grounding.ground.s": ("grounding.ground", 0),
    "grounding.classify.s": ("grounding.classify", 0),
    "inference.total_choices.s": ("inference.total_choices", 0),
    "inference.program_for_choice.s": ("inference.program_for_choice", 0),
    "inference.event_eval.s": ("inference.event_eval", 0),
    "inference.query.self_s": ("inference.query", 1),
    "models.well_founded_model.s": ("models.well_founded_model", 0),
    "models.stable_models.self_s": ("models.stable_models", 1),
    "models.is_stable.s": ("models.is_stable", 0),
    "models.reduct.s": ("models.reduct", 0),
    "cli.run.self_s": ("cli.run", 1),
}
COUNT_METRICS = (
    "grounding.atoms",
    "grounding.rules",
    "grounding.choice_points",
    "grounding.cone_choice_points",
    "inference.choices",
    "models.well_founded_model.calls",
    "models.fixpoint_rounds",
    "models.is_stable.calls",
    "models.models",
)


class Worker:
    """One query process, spoken to over JSON lines."""

    def __init__(self, deadline: float, spans_path: Path | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py")]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.deadline = deadline
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            hello = self._reply()
        except BaseException:
            self._kill()
            raise
        self.import_s = hello["import_s"]
        self.calibration_s = hello["calibration_s"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _reply(self) -> dict:
        try:
            line = self.lines.get(timeout=max(1.0, self.deadline - time.monotonic()))
        except queue.Empty:
            raise TimeoutError("worker did not answer before the run limit") from None
        if line is None:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def query(self, argv: list[str]) -> dict:
        """The worker's reply, plus ``scale``: CALIBRATION_REF_S over the mean
        of the calibrations just before and just after the query, and
        ``calibrated_s``: the query seconds times ``scale``."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        around = (self.calibration_s + reply["calibration_s"]) / 2
        reply["scale"] = CALIBRATION_REF_S / around
        reply["calibrated_s"] = reply["elapsed_s"] * reply["scale"]
        self.calibration_s = reply["calibration_s"]
        return reply

    def close(self) -> float | None:
        """Stop the worker; returns its peak resident memory in MiB the first
        time."""
        rss = None
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("null\n")
                self.proc.stdin.close()
                rss = self._reply()["peak_rss_mib"]
            self.proc.wait(timeout=30)
        finally:
            self._kill()
        return rss

    def _kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=30)


@dataclass
class Samples:
    setup: list[float] = field(default_factory=list)  # calibrated seconds
    imports: list[float] = field(default_factory=list)  # raw seconds
    plain: list[float] = field(default_factory=list)  # calibrated seconds
    plain_raw: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)  # calibrated seconds
    calibration: list[float] = field(default_factory=list)
    summaries: list[tuple[dict, float]] = field(default_factory=list)  # (trace, scale)
    first_counts: dict[int, dict] = field(default_factory=dict)  # per case
    attempted: int = 0
    failed: int = 0


def query_argv(case: workloads.Case, path: Path) -> list[str]:
    return ["--no-timing", "--mode", "machine", "query", str(path), *case.args]


def check_reply(reply: dict, case: workloads.Case) -> tuple[str | None, dict]:
    """(why the query failed or None, the CLI's JSON record)."""
    if reply["error"]:
        return f"raised:\n{reply['error']}", {}
    if reply["rc"] != 0:
        return f"exit code {reply['rc']}: {reply['stderr'].strip()}", {}
    try:
        record = json.loads(reply["stdout"])
        result = record["result"]
        if result["type"] == "point":
            got = ("point", Fraction(result["value"]))
        else:
            got = ("interval", Fraction(result["lower"]), Fraction(result["upper"]))
    except (ValueError, KeyError) as exc:
        return f"unreadable output ({exc}): {reply['stdout']!r}", {}
    if got != case.expected:
        return f"answer {got} differs from the reference {case.expected}", record
    return None, record


def set_up(cases, rundir: Path, deadline: float, samples: Samples, workers: list):
    """Render and write the program files, then import credalplp.cli in a
    fresh interpreter, SETUP_REPS times after one warm-up (which fills the
    bytecode cache). Every worker started is added to ``workers``. Returns
    the paths and the last worker, which goes on to answer the queries."""
    paths = [rundir / f"case{i}.plp" for i in range(len(cases))]
    worker = None
    for rep in range(SETUP_REPS + 1):
        if worker is not None:
            worker.close()
        started = time.perf_counter()
        for path, case in zip(paths, cases):
            path.write_text(case.render(), encoding="utf-8")
        written = time.perf_counter() - started
        worker = Worker(deadline)
        workers.append(worker)
        if rep:
            scale = CALIBRATION_REF_S / worker.calibration_s
            samples.setup.append((written + worker.import_s) * scale)
            samples.imports.append(worker.import_s)
    return paths, worker


def property_errors(workload: str, seed: int, cases, paths) -> tuple[list[str], int]:
    """Generator property checks on the written files, using the engine's
    public grounding, classification and ground dump. Returns the violations
    and the summed cone size."""
    import credalplp as plp

    errors = []
    cone_total = 0
    again = workloads.cases(workload, seed)
    for i, (case, path) in enumerate(zip(cases, paths)):
        text = path.read_text(encoding="utf-8")
        if again[i].render() != text:
            errors.append(f"case {i}: the same seed gave different program bytes")
        g = plp.ground(plp.parse_program(text))
        classification = plp.classify(plp.dependency_graph(g)).kind
        cone = workloads.cone_choice_points(plp.dump_ground(g), case.atoms)
        cone_total += cone
        errors += [f"case {i}: {e}" for e in
                   workloads.property_errors(workload, case, classification, cone)]
    return errors, cone_total


def measure(worker: Worker, traced: Worker | None, cases, paths, seconds: float,
            samples: Samples, log) -> None:
    """The closed loop: cases in turn, one query at a time, for ``seconds``
    and at least one pass over the pool. With ``traced``, each query is sent
    to the traced worker right after the untraced one."""
    stop = time.perf_counter() + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < stop:
        k = i % len(cases)
        case, argv = cases[k], query_argv(cases[k], paths[k])
        for target in (worker, traced):
            if target is None:
                continue
            reply = target.query(argv)
            samples.attempted += 1
            error, record = check_reply(reply, case)
            if target is worker:
                samples.plain.append(reply["calibrated_s"])
                samples.plain_raw.append(reply["elapsed_s"])
                samples.calibration.append(reply["calibration_s"])
            else:
                samples.traced.append(reply["calibrated_s"])
                samples.summaries.append((reply["trace"], reply["scale"]))
                if error is None:
                    first = samples.first_counts.setdefault(k, counts_of(reply["trace"]))
                    error = trace_error(reply["trace"], record, first)
            if error is not None:
                samples.failed += 1
                log(f"query {i} (case {k}) failed: {error}")
        i += 1


def counts_of(summary: dict) -> dict:
    counts = dict(summary["counts"])
    for name, (_, _, calls) in summary["spans"].items():
        counts[f"{name}.calls"] = calls
    return counts


def trace_error(summary: dict, record: dict, first: dict) -> str | None:
    """Trace integrity: the traced counts agree with the CLI's own counters
    and repeat exactly on every traced query of the same case."""
    counts = counts_of(summary)
    for ours, theirs in (("inference.choices", "choices_visited"),
                         ("models.models", "models_visited")):
        if counts.get(ours, 0) != record.get(theirs):
            return (f"traced {ours}={counts.get(ours, 0)} but the CLI reports "
                    f"{theirs}={record.get(theirs)}")
    if counts != first:
        return "traced counts differ from the first traced query of this case"
    return None


def layer_metrics(samples: Samples, cone_total: int) -> dict:
    """Per-layer metrics: seconds are means per traced query, each scaled
    like that query's calibrated seconds, so they sit on the scale of
    ``query_s``; counts are totals over one pass of the pool."""
    metrics = {}
    for metric, (name, column) in TIME_METRICS.items():
        total = sum(s["spans"].get(name, [0.0, 0.0, 0])[column] * scale
                    for s, scale in samples.summaries)
        metrics[metric] = (total / len(samples.summaries), "s")
    totals: dict = {"grounding.cone_choice_points": cone_total}
    for counts in samples.first_counts.values():
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    for metric in COUNT_METRICS:
        metrics[metric] = (totals.get(metric, 0), "count")
    calls = totals.get("models.is_stable.calls", 0)
    accepted = totals.get("models.is_stable.true", 0)
    metrics["models.stable_accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
    metrics["cli.import_s"] = (statistics.median(samples.imports), "s")
    metrics["query.wall_s"] = (statistics.median(samples.plain_raw), "s")
    metrics["calibration_s"] = (statistics.median(samples.calibration), "s")
    metrics["trace_overhead_ratio"] = (
        statistics.median(samples.traced) / statistics.median(samples.plain) - 1, "ratio"
    )
    return metrics


def end_to_end_metrics(samples: Samples, peak_rss: float) -> dict:
    return {
        "query_s": (statistics.median(samples.plain), "s"),
        "setup_s": (statistics.median(samples.setup), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "success_ratio": ((samples.attempted - samples.failed) / samples.attempted, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(f"[plpbench {args.workload} seed={args.seed}] {message}", file=sys.stderr)

    if not (SRC / "credalplp" / "cli.py").is_file():
        log(f"no engine source at {SRC}; run from the root of a credalplp checkout")
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_LIMIT_S
    cases = workloads.cases(args.workload, args.seed)
    samples = Samples()
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    workers: list[Worker] = []
    try:
        paths, worker = set_up(cases, rundir, deadline, samples, workers)
        errors, cone_total = property_errors(args.workload, args.seed, cases, paths)
        for error in errors:
            log(f"property check failed: {error}")
        traced = None
        if args.trace:
            spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            traced = Worker(deadline, spans_path)
            workers.append(traced)
        measure(worker, traced, cases, paths, args.seconds, samples, log)
        peak_rss = worker.close()
        if traced is not None:
            traced.close()
            log(f"spans written to {spans_path.relative_to(ROOT)}")
    finally:
        for w in workers:
            w.close()
        shutil.rmtree(rundir, ignore_errors=True)
    log(f"{len(samples.plain)} untraced samples over {len(cases)} programs"
        + (f", {len(samples.traced)} traced" if args.trace else "")
        + "; median raw seconds per program: "
        + " ".join(f"{statistics.median(samples.plain_raw[k::len(cases)]):.4f}"
                   for k in range(len(cases)))
        + f"; median calibration {statistics.median(samples.calibration):.4f} s")
    if args.trace:
        metrics = layer_metrics(samples, cone_total)
    else:
        metrics = end_to_end_metrics(samples, peak_rss)
    print(json.dumps({
        "correct": samples.failed == 0 and not errors,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
