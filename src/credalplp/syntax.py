"""Front end: lexing, parsing, validation and pretty-printing.

The surface language is ProbLog-like:

    % a comment
    0.3::edge(a, b).          probabilistic fact (decimal or num/den weight)
    path(X, Y) :- edge(X, Y), not blocked(X, Y).
    vertex(a).                deterministic fact

Probability literals are kept as exact ``fractions.Fraction`` values; no
floating point is used anywhere in the front end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import PlpSyntaxError


# ---------------------------------------------------------------------------
# AST: named tuples, equal to the plain tuple of their fields (but ProbFact)


class Term(NamedTuple):
    """A constant (lowercase identifier, or unsigned integer without leading
    zeros) or a variable."""

    kind: str  # "const" | "var"
    name: str

    @property
    def is_variable(self) -> bool:
        return self.kind == "var"

    def __str__(self) -> str:
        return self.name


# `_` is anonymous: each of its occurrences in a clause is a variable of its own
ANONYMOUS = Term("var", "_")


class Atom(NamedTuple):
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def is_ground(self) -> bool:
        return all(not t.is_variable for t in self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if t.is_variable}

    def __str__(self) -> str:
        return atom_text(self.predicate, [t.name for t in self.args])


def atom_text(predicate: str, args) -> str:
    """``pred(a, b)``, or ``pred`` without arguments: the one text of an atom,
    which ``Atom.__str__`` prints and grounding interns."""
    return f"{predicate}({', '.join(args)})" if args else predicate


class Subgoal(NamedTuple):
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


class Rule(NamedTuple):
    head: Atom
    body: tuple[Subgoal, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def variables(self) -> set[str]:
        vs = self.head.variables()
        for sg in self.body:
            vs |= sg.atom.variables()
        return vs

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(map(str, self.body))}."


class ProbFact(NamedTuple):
    """A weighted fact. ``line`` and ``col`` say where the clause starts, for
    diagnostics, and are not part of its identity: it compares and hashes
    by ``(atom, prob)`` and equals no plain tuple."""

    atom: Atom
    prob: Fraction
    line: int = 1
    col: int = 1

    def __eq__(self, other) -> bool:
        return type(other) is ProbFact and self[:2] == other[:2]

    def __ne__(self, other) -> bool:  # else tuple's != would read the positions
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    def __str__(self) -> str:
        return f"{format_rational(self.prob)}::{self.atom}."


class Program:
    """The clauses of a program in source order; each instance has lists of
    its own."""

    __slots__ = ("rules", "prob_facts")

    def __init__(
        self, rules: list[Rule] | None = None, prob_facts: list[ProbFact] | None = None
    ):
        self.rules = [] if rules is None else rules
        self.prob_facts = [] if prob_facts is None else prob_facts

    def __eq__(self, other) -> bool:
        if type(other) is not Program:
            return NotImplemented
        return self.rules == other.rules and self.prob_facts == other.prob_facts

    def __repr__(self) -> str:
        return f"Program(rules={self.rules!r}, prob_facts={self.prob_facts!r})"


# truth-value names of query assignments; None is undefined
TRUTH = {"true": True, "false": False, "undefined": None}


class Query(NamedTuple):
    """Ground truth assignments: the query part and optional evidence."""

    q_assignments: list[tuple[Atom, str]]
    e_assignments: list[tuple[Atom, str]] | tuple[()] = ()


# ---------------------------------------------------------------------------
# Diagnostics


class Diagnostic(NamedTuple):
    level: str  # "error" | "warning"
    file: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.level.upper()} {self.file}:{self.line}:{self.col} {self.message}"


# ---------------------------------------------------------------------------
# Lexer

class _Token(NamedTuple):
    kind: str  # NAME VAR INT DECIMAL PUNCT EOF
    text: str
    line: int
    col: int


def _tokenize(text: str, filename: str) -> list[_Token]:
    """Split ``text`` into tokens, ending with EOF. Only the offset ``i``
    advances: a token's column is its offset from the start of its line, plus
    one. Text that ends inside a comment gives EOF the comment's column."""
    toks: list[_Token] = []
    i, line, line_start, n = 0, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line, line_start = line + 1, i
            continue
        if c.isspace():
            i += 1
            continue
        if c == "%":
            end = text.find("\n", i)
            if end < 0:
                break
            i = end
            continue
        start, col = i, i - line_start + 1
        if "0" <= c <= "9":  # numbers in ASCII digits only
            while i < n and "0" <= text[i] <= "9":
                i += 1
            kind = "INT"
            # decimal point only when followed by another digit; a bare "."
            # after digits terminates the clause
            if i + 1 < n and text[i] == "." and "0" <= text[i + 1] <= "9":
                i += 1
                while i < n and "0" <= text[i] <= "9":
                    i += 1
                kind = "DECIMAL"
        elif c.isalpha() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            kind = "VAR" if (c.isupper() or c == "_") else "NAME"
        elif text.startswith(("::", ":-"), i):
            i += 2
            kind = "PUNCT"
        elif text.startswith("\\+", i):
            # alternate spelling of default negation
            i += 2
            kind = "NAME"
        elif c in ",().=/":
            i += 1
            kind = "PUNCT"
        else:
            raise PlpSyntaxError(
                [Diagnostic("error", filename, line, col, f"unexpected character {c!r}")]
            )
        toks.append(_Token(kind, "not" if c == "\\" else text[start:i], line, col))
    toks.append(_Token("EOF", "", line, i - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.toks = _tokenize(text, filename)
        self.pos = 0
        self.arities: dict[str, tuple[int, _Token]] = {}

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def error(self, tok: _Token, msg: str):
        raise PlpSyntaxError(
            [Diagnostic("error", self.filename, tok.line, tok.col, msg)]
        )

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.error(tok, f"expected {text!r}, found {tok.text!r}")
        return tok

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "INT":  # a number is its value: p(01) is p(1)
            return Term("const", tok.text.lstrip("0") or "0")
        if tok.kind == "NAME":
            return Term("const", tok.text)
        if tok.kind == "VAR":
            return Term("var", tok.text)
        self.error(tok, f"expected a term, found {tok.text!r}")

    def parse_atom(self) -> Atom:
        tok = self.next()
        if tok.kind != "NAME":
            self.error(tok, f"expected an atom, found {tok.text!r}")
        args: list[Term] = []
        if self.peek().text == "(":
            self.next()
            args = self.parse_list(self.parse_term)
            self.expect(")")
        atom = Atom(tok.text, tuple(args))
        self._check_arity(tok, atom)
        return atom

    def parse_list(self, item) -> list:
        """``item()`` once, then again after each comma."""
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        return out

    def _check_arity(self, tok: _Token, atom: Atom):
        seen = self.arities.get(atom.predicate)
        if seen is None:
            self.arities[atom.predicate] = (len(atom.args), tok)
        elif seen[0] != len(atom.args):
            self.error(
                tok,
                f"predicate {atom.predicate!r} used with arity {len(atom.args)} "
                f"but earlier with arity {seen[0]} "
                f"(at {seen[1].line}:{seen[1].col})",
            )

    def parse_subgoal(self) -> Subgoal:
        if self.peek().text == "not":
            self.next()
            return Subgoal(self.parse_atom(), negated=True)
        return Subgoal(self.parse_atom())

    def parse_probability(self) -> Fraction:
        """The weight at the start of a clause: a DECIMAL, INT or INT/INT."""
        tok = self.next()
        text = tok.text
        if tok.kind == "INT" and self.peek().text == "/":
            self.next()
            den = self.next()
            if den.kind != "INT":
                self.error(den, "expected a denominator")
            if not den.text.strip("0"):
                self.error(den, "zero denominator")
            text += "/" + den.text
        try:
            value = Fraction(text)
        except ValueError:  # int() reads at most sys.get_int_max_str_digits()
            self.error(tok, "too many digits in a weight")
        if not 0 <= value <= 1:
            self.error(tok, f"probability {text} outside [0, 1]")
        return value

    def parse_clause(self, program: Program):
        # an atom starts with a NAME, so a leading number is a weight
        start = self.peek()
        if start.kind in ("DECIMAL", "INT"):
            prob = self.parse_probability()
            self.expect("::")
            atom = self.parse_atom()
            self.expect(".")
            program.prob_facts.append(ProbFact(atom, prob, start.line, start.col))
            return
        head = self.parse_atom()
        body: list[Subgoal] = []
        if self.peek().text == ":-":
            self.next()
            body = self.parse_list(self.parse_subgoal)
        self.expect(".")
        program.rules.append(Rule(head, tuple(body)))

    def parse_program(self) -> Program:
        program = Program()
        while self.peek().kind != "EOF":
            self.parse_clause(program)
        return program


def parse_program(text: str, filename: str = "<string>") -> Program:
    """Parse a program, raising PlpSyntaxError with diagnostics on failure."""
    return _Parser(text, filename).parse_program()


def parse_query(text: str, evidence: str = "", filename: str = "<query>") -> Query:
    """Parse ``atom=true|false|undefined`` assignment lists.

    A bare ``atom`` abbreviates ``atom=true``. All atoms must be ground.
    """
    return Query(
        _parse_assignments(text, filename),
        _parse_assignments(evidence, filename) if evidence else [],
    )


def _parse_assignments(text: str, filename: str) -> list[tuple[Atom, str]]:
    parser = _Parser(text, filename)
    seen: dict[Atom, str] = {}  # in order of first occurrence

    def assignment():
        tok = parser.peek()
        atom = parser.parse_atom()
        value = "true"
        if parser.peek().text == "=":
            parser.next()
            vtok = parser.next()
            if vtok.text not in TRUTH:
                parser.error(vtok, f"unknown truth value {vtok.text!r}")
            value = vtok.text
        if not atom.is_ground:
            parser.error(tok, f"query atom {atom} is not ground")
        if seen.setdefault(atom, value) != value:
            parser.error(tok, f"conflicting assignments for {atom}")

    if parser.peek().kind != "EOF":
        parser.parse_list(assignment)
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.error(tok, f"unexpected trailing input {tok.text!r}")
    return list(seen.items())


# ---------------------------------------------------------------------------
# Pretty printing


def format_rational(value: Fraction) -> str:
    """Render exactly: finite decimal when the denominator is 2^a*5^b,
    otherwise ``num/den``."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    k = max(twos, fives)
    scaled = value.numerator * 10**k // value.denominator
    digits = str(scaled).rjust(k + 1, "0")
    if k == 0:
        return f"{digits}.0"
    return f"{digits[:-k]}.{digits[-k:]}"


def format_program(program: Program) -> str:
    """Canonical text; re-parsing it yields a structurally equal Program."""
    lines = [str(pf) for pf in program.prob_facts]
    lines += [str(rule) for rule in program.rules]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Lint (advisory diagnostics; never alter semantics)


def _unifies(a: Atom, b: Atom) -> bool:
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return False
    # variables of the two atoms are standardized apart via a side tag
    bindings: dict[tuple[str, str], tuple[str, Term]] = {}

    def resolve(side: str, t: Term) -> tuple[str, Term]:
        while t.is_variable and (side, t.name) in bindings:
            side, t = bindings[(side, t.name)]
        return side, t

    for ta, tb in zip(a.args, b.args):
        if ANONYMOUS in (ta, tb):  # it binds nothing, so it matches any term
            continue
        sa, ta = resolve("l", ta)
        sb, tb = resolve("r", tb)
        if ta.is_variable:
            if not (sa == sb and ta == tb):
                bindings[(sa, ta.name)] = (sb, tb)
        elif tb.is_variable:
            bindings[(sb, tb.name)] = (sa, ta)
        elif ta.name != tb.name:
            return False
    return True


def lint_program(program: Program, filename: str = "<string>") -> list[Diagnostic]:
    """Advisory checks: probabilistic facts unifying with rule heads."""
    out = []
    for pf in program.prob_facts:
        for rule in program.rules:
            if _unifies(pf.atom, rule.head):
                out.append(
                    Diagnostic(
                        "warning",
                        filename,
                        pf.line,
                        pf.col,
                        f"probabilistic fact {pf.atom} unifies with the head of "
                        f"rule '{rule}' (disjointness condition violated)",
                    )
                )
    return out
