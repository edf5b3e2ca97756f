"""Command-line front end.

Exit codes: 0 success, 1 user error, 2 resource guard exceeded or
interrupted, 3 inconsistent program (credal query aborted).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import bayesnet, grounding, inference, models, oracle, syntax
from .errors import (
    UNDEFINED,
    InconsistentProgramError,
    NotAcyclicError,
    PlpSyntaxError,
    ResourceGuardError,
)

EXIT_OK = 0
EXIT_USER = 1
EXIT_RESOURCE = 2
EXIT_INCONSISTENT = 3


def _env_int(name: str, default: int) -> int:
    return _cap(name, os.environ.get(name, default))


def _cap(name: str, text: str | int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _dec(value: Fraction) -> str:
    return format(float(value), ".6g")


def _parse_rational(text: str) -> Fraction:
    """A weight as a program writes one: D, D.D or D/D in ASCII digits."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]+|/[0-9]+)?", text):
        raise ValueError(f"{text!r} is not a number D, D.D or D/D")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text}: zero denominator") from None
    except ValueError:  # int() reads at most sys.get_int_max_str_digits()
        raise ValueError("too many digits in a weight") from None
    if not 0 <= value <= 1:
        raise ValueError(f"{text} outside [0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credalplp",
        description="Exact credal / well-founded inference for probabilistic "
        "logic programs.",
    )
    parser.add_argument(
        "--mode", choices=("text", "machine"), default="text",
        help="output style; machine emits one JSON object",
    )
    parser.add_argument(
        "--max-choices", default=inference.DEFAULT_MAX_CHOICES,
        help="cap on choice points (2^n total choices)",
    )
    parser.add_argument(
        "--max-ground-rules", default=grounding.DEFAULT_MAX_GROUND_RULES,
        help="cap on emitted ground rules",
    )
    parser.add_argument(
        "--no-timing", action="store_true", help="suppress the timing field"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    program = argparse.ArgumentParser(add_help=False)
    program.add_argument("file")
    command = functools.partial(sub.add_parser, parents=[program])

    command("check", help="parse and report diagnostics")

    p = command("ground", help="dump the active ground program")
    p.add_argument("--out", help="write the dump to a file instead of stdout")

    command("classify", help="acyclic / stratified / general")

    p = command("models", help="models for one total choice")
    p.add_argument(
        "--choice", default="",
        help="keep/discard bit per choice point, char i = choice id i",
    )
    p.add_argument("--semantics", choices=("stable", "wf"), default="stable")

    p = command("query", help="probability of a query")
    p.add_argument("--q", required=True, help="query assignments")
    p.add_argument("--e", default="", help="evidence assignments")
    p.add_argument("--semantics", choices=("credal", "wf", "auto"), default="auto")
    p.add_argument("--gamma", help="emit YES/NO for P > gamma (exact rational)")
    p.add_argument(
        "--cross-check", action="store_true",
        help="verify the enumeration against brute-force oracles when small",
    )
    p.add_argument(
        "--oracle-limit", default=oracle.DEFAULT_EXHAUSTIVE_LIMIT,
        help="cap on negatively occurring atoms for the exhaustive stable-model oracle",
    )

    command("consistency", help="stable model for every total choice?")

    p = command("export-bn", help="compile an acyclic program to a BN")
    p.add_argument("--out", help="write the export to a file instead of stdout")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first ``run``; each run sets
    its cap defaults from the environment before parsing."""
    return build_parser()


def _load(path: str) -> syntax.Program:
    with open(path, encoding="utf-8-sig") as handle:
        return syntax.parse_program(handle.read(), filename=path)


def _write(out: str | None, text: str) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, record: dict, text_lines: list[str], started: float):
    if not args.no_timing:
        elapsed = (time.perf_counter() - started) * 1000.0
        record["timing_ms"] = round(elapsed, 3)
        text_lines.append(f"timing_ms: {record['timing_ms']}")
    if args.mode == "machine":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_check(args, started) -> int:
    program = _load(args.file)
    diags = syntax.lint_program(program, filename=args.file)
    record = {
        "command": "check",
        "rules": len(program.rules),
        "prob_facts": len(program.prob_facts),
        "warnings": len(diags),
        "diagnostics": [diag._asdict() for diag in diags],
    }
    lines = [*map(str, diags), f"ok: {len(program.rules)} rules, "
             f"{len(program.prob_facts)} probabilistic facts"]
    _emit(args, record, lines, started)
    return EXIT_OK


def _cmd_ground(args, started) -> int:
    g = grounding.ground(_load(args.file), max_rules=args.max_ground_rules)
    _write(args.out, grounding.dump_ground(g))
    return EXIT_OK


def _cmd_classify(args, started) -> int:
    g = grounding.ground(_load(args.file), max_rules=args.max_ground_rules)
    klass = grounding.classify(grounding.dependency_graph(g))
    lines = [f"classification: {klass.kind}"]
    record = {"command": "classify", "classification": klass.kind}
    if klass.witness is not None:
        cycle = " -> ".join(g.atoms[a] for a in klass.witness)
        lines.append(f"witness cycle: {cycle}")
        record["witness"] = [g.atoms[a] for a in klass.witness]
    _emit(args, record, lines, started)
    return EXIT_OK


def _parse_choice_bits(g, bits: str) -> list[bool]:
    n = len(g.choice_points)
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ValueError(
            f"--choice needs {n} bits (one per choice point), got {bits!r}"
        )
    return [c == "1" for c in bits]


def _cmd_models(args, started) -> int:
    g = grounding.ground(_load(args.file), max_rules=args.max_ground_rules)
    kept = _parse_choice_bits(g, args.choice)
    kernel = models.Kernel(g)
    facts = kernel.kept_facts(kept)
    if args.semantics == "wf":
        found = [models.well_founded_model(kernel, facts)]
    else:
        found = models.stable_models(kernel, facts)
    names = {value: name for name, value in syntax.TRUTH.items()}
    order = sorted(range(g.n_atoms), key=lambda a: g.atoms[a])
    blocks = ["\n".join(f"{g.atoms[a]}={names[m[a]]}" for a in order) for m in found]
    if blocks:  # no model prints nothing; one model over no atoms an empty line
        print("\n%%\n".join(blocks))
    return EXIT_OK


def _resolve_semantics(args, klass) -> str:
    if args.semantics != "auto":
        return args.semantics
    if klass.kind in ("acyclic", "stratified"):
        return "point"
    raise ValueError(
        "general program: pick --semantics credal or wf explicitly "
        "(the two semantics disagree on non-stratified programs)"
    )


def _warn_missing(g, query):
    for name in inference.missing_atoms(g, query.q_assignments + query.e_assignments):
        print(
            f"WARNING query atom {name} is not in the active ground program; "
            "it is false in every model",
            file=sys.stderr,
        )


def _cross_check(g, args):
    """Compare the kernel's well-founded model and stable models of each
    total choice, loaded as a sweep loads it (``Kernel.kept_facts``), with
    their definitions in ``oracle``, given the atoms the choice keeps (read
    from it here): the alternating fixpoint of reduct least models, and the
    brute-force oracle to ``--oracle-limit``."""
    kernel = models.Kernel(g)
    exhaustive = True
    for choice in inference.total_choices(g, args.max_choices):
        kept = [cp.ground_atom for cp, on in zip(g.choice_points, choice.kept) if on]
        facts = kernel.kept_facts(choice.kept)
        wf = models.well_founded_model(kernel, facts)
        if wf != oracle.well_founded_model(g, kept):
            raise ValueError(
                "cross-check: the well-founded model of total choice "
                f"{choice.describe(g)} differs from the alternating fixpoint"
            )
        if not exhaustive:
            continue
        try:
            brute = oracle.exhaustive_stable_models(g, args.oracle_limit, kept)
        except ResourceGuardError:
            print(
                f"WARNING cross-check skipped: {kernel.negative.bit_count()} negatively "
                f"occurring atoms exceeds --oracle-limit {args.oracle_limit}",
                file=sys.stderr,
            )
            exhaustive = False
            continue
        found = models.stable_models(kernel, facts)
        if sorted(map(tuple, found)) != sorted(map(tuple, brute)):
            raise ValueError(
                "cross-check: the stable models of total choice "
                f"{choice.describe(g)} differ from the brute-force oracle"
            )


def _answer(g, query, semantics: str, args, stats: dict):
    """The answer as (lower, upper), or UNDEFINED; a well-founded answer is
    the point (p, p). No evidence is the event TRUE, given which the credal
    answer is never UNDEFINED but [bel(q), pl(q)], the unconditional one."""
    if semantics == "wf":
        p = inference.wf_query(
            g, query.q_assignments, query.e_assignments,
            max_choices=args.max_choices, stats=stats,
        )
        return p if p is UNDEFINED else (p, p)
    assignments = query.q_assignments + query.e_assignments
    if any(value == "undefined" for _, value in assignments):
        raise ValueError("undefined assignments are only valid with --semantics wf")
    result = inference.credal_conditional(
        g, inference.event_from_assignments(query.q_assignments),
        inference.event_from_assignments(query.e_assignments),
        max_choices=args.max_choices, stats=stats,
    )
    return result if result is UNDEFINED else (result.lower, result.upper)


def _cmd_query(args, started) -> int:
    gamma = None if args.gamma is None else _parse_rational(args.gamma)
    g = grounding.ground(_load(args.file), max_rules=args.max_ground_rules)
    klass = grounding.classify(grounding.dependency_graph(g))
    semantics = _resolve_semantics(args, klass)
    query = syntax.parse_query(args.q, args.e)
    _warn_missing(g, query)
    if args.cross_check:
        _cross_check(g, args)
    stats: dict = {}
    answer = _answer(g, query, semantics, args, stats)

    if answer is UNDEFINED:
        result, line = {"type": "undefined"}, "result: undefined"
    elif semantics == "credal":
        lower, upper = answer
        result = {
            "type": "interval",
            "lower": _rat(lower),
            "upper": _rat(upper),
            "lower_decimal": _dec(lower),
            "upper_decimal": _dec(upper),
        }
        line = f"P in [{_rat(lower)}, {_rat(upper)}] ({_dec(lower)}, {_dec(upper)})"
    else:
        lower, upper = answer
        if lower != upper:
            raise ValueError(
                f"{klass.kind} program gave the interval [{_rat(lower)}, "
                f"{_rat(upper)}] where its semantics has a point probability"
            )
        result = {"type": "point", "value": _rat(lower), "value_decimal": _dec(lower)}
        line = f"P = {_rat(lower)} ({_dec(lower)})"
    record = {
        "command": "query",
        "semantics": semantics,
        "classification": klass.kind,
        "total_choices": 1 << len(g.choice_points),
        "result": result,
        "choices_visited": stats.get("choices", 0),
        "models_visited": stats.get("models", 0),
    }
    lines = [f"classification: {klass.kind}", f"semantics: {semantics}", line,
             f"choices_visited: {record['choices_visited']}",
             f"models_visited: {record['models_visited']}"]
    if gamma is not None:
        # YES iff P > gamma: the lower bound of an interval, and NO on an
        # undefined conditional (the P(E)=0 convention)
        record["gamma"] = args.gamma
        yes = answer is not UNDEFINED and answer[0] > gamma
        record["decision"] = "YES" if yes else "NO"
        lines.append(f"decision: {record['decision']}")
    _emit(args, record, lines, started)
    return EXIT_OK


def _cmd_consistency(args, started) -> int:
    g = grounding.ground(_load(args.file), max_rules=args.max_ground_rules)
    report = inference.check_consistency(g, max_choices=args.max_choices)
    record = {"command": "consistency", "consistent": report.consistent}
    lines = [f"consistent: {'yes' if report.consistent else 'no'}"]
    if not report.consistent:
        record["witness"] = report.witness.describe(g)
        lines.append(f"witness: {record['witness']}")
    _emit(args, record, lines, started)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _cmd_export_bn(args, started) -> int:
    g = grounding.ground(_load(args.file), max_rules=args.max_ground_rules)
    _write(args.out, bayesnet.export_bn(bayesnet.compile_bn(g)).decode("utf-8"))
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "ground": _cmd_ground,
    "classify": _cmd_classify,
    "models": _cmd_models,
    "query": _cmd_query,
    "consistency": _cmd_consistency,
    "export-bn": _cmd_export_bn,
}


def run(argv: list[str]) -> int:
    try:
        defaults = {
            "max_choices": _env_int(
                "CREDALPLP_MAX_CHOICES", inference.DEFAULT_MAX_CHOICES
            ),
            "max_ground_rules": _env_int(
                "CREDALPLP_MAX_GROUND_RULES", grounding.DEFAULT_MAX_GROUND_RULES
            ),
        }
    except ValueError as exc:  # a malformed CREDALPLP_* setting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    parser = _parser()
    parser.set_defaults(**defaults)  # an explicit flag still wins
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USER if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        for flag in ("--max-choices", "--max-ground-rules", "--oracle-limit"):
            name = flag[2:].replace("-", "_")
            if hasattr(args, name):
                setattr(args, name, _cap(flag, getattr(args, name)))
        return _COMMANDS[args.command](args, started)
    except PlpSyntaxError as exc:
        for diag in exc.diagnostics:
            print(str(diag), file=sys.stderr)
        return EXIT_USER
    except InconsistentProgramError as exc:
        print(f"inconsistent program: no stable model for total choice "
              f"{exc.description}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RESOURCE
    except (NotAcyclicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
