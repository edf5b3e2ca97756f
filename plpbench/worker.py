"""The process that answers queries. Only the queries and a small
calibration task run in it.

Usage: ``python3 plpbench/worker.py [--trace SPANS.jsonl]`` with the engine's
``src`` on ``PYTHONPATH``. It prints ``import_s`` (seconds to import
``credalplp.cli`` in this fresh interpreter) and a first ``calibration_s``,
then reads one JSON argv list per line from stdin and answers each with one
JSON line: exit code, captured output, the seconds ``credalplp.cli.run(argv)``
took from call to return, and the calibration timed right after it.
A ``null`` line ends it: it writes the spans (when tracing) and prints its
peak resident memory.
"""

import sys
import time

_started = time.perf_counter()
import credalplp.cli  # noqa: E402  (timed: the first import in the process)

IMPORT_S = time.perf_counter() - _started

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

# The calibration task: exact reachability on a fixed 10-edge graph, pure
# Python on a few hundred bytes of data. It runs after the import and after
# every query, so that each timed sample has a measure of the host's speed
# taken in the same process next to it. Garbage is collected before each
# query and each calibration, so that each starts from the same heap.
CALIBRATION_EDGES = [
    ("n0", "n3"), ("n0", "n7"), ("n1", "n0"), ("n1", "n2"), ("n2", "n5"),
    ("n2", "n7"), ("n3", "n7"), ("n6", "n5"), ("n7", "n1"), ("n7", "n6"),
]
CALIBRATION_PROBS = [Fraction(p, 10) for p in (8, 9, 5, 5, 6, 9, 8, 8, 9, 4)]


def calibration_s() -> float:
    gc.collect()
    started = time.perf_counter()
    reference.reach_probability(CALIBRATION_EDGES, CALIBRATION_PROBS, "n0", "n7")
    return time.perf_counter() - started


def main(argv: list[str]) -> None:
    spans_path = argv[1] if argv[:1] == ["--trace"] else None
    tracer = spans.Tracer() if spans_path else None
    if tracer is not None:
        spans.install(tracer)
    reply(import_s=IMPORT_S, calibration_s=calibration_s())
    for query, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request is None:
            break
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        if tracer is not None:
            tracer.begin(query)
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                rc = credalplp.cli.run(request)
            except Exception:  # a raising query is a failed query, not a dead worker
                error = traceback.format_exc()
            elapsed = time.perf_counter() - started
        reply(
            rc=rc, stdout=out.getvalue(), stderr=err.getvalue(), error=error,
            elapsed_s=elapsed, trace=tracer.summary() if tracer else None,
            calibration_s=calibration_s(),
        )
    if tracer is not None:
        tracer.dump(spans_path)
    # ru_maxrss is in KiB on Linux
    reply(peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def reply(**fields) -> None:
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
