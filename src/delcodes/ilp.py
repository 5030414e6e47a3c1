"""Model container, LP text exchange, solution verification, built-in solver.

A model holds one binary variable per length-n word and maximizes how many
are selected, subject to linear rows of (word value, coefficient) terms that
are evaluated on a bitmask of the selected values. A Solution holds such a
selection bitmask. x_<bits> names appear only at the file boundary and in
the read-only Solution.assignment view: write_lp and read_lp move models
through the common text LP format so external solvers can be used;
write_solution and read_solution move selections through `name value`
files; verify_solution replays every row on the selection and independently
re-checks the selected words as a code. solve_builtin is a self-contained
exact 0-1 solver: it classifies the rows, propagates fixes and picks its
warm-start seeds here, then runs the branch-and-bound kernel it shares with
the conflict-graph search (sdecc._branch_and_bound), which completes those
seeds and searches from the best of them. Because the two searches
share that kernel, the tests check both against a brute-force enumeration
of independent sets rather than only against each other.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import IO, Iterator, Mapping, Sequence

from .bitseq import Word, WordSet
from .sdecc import (
    SdeccResult,
    SearchOptions,
    _SENSE_HOLDS,
    _branch_and_bound,
    _incidence,
    _ones,
    is_sdecc,
)
from .vt import vt_code

_VAR_NAME = re.compile(r"^x_([01]+)$")
# int() and float() also take "1_0", non-ASCII digits and "infinity"; the
# file formats allow only ASCII numerals, so each reader matches its own
_LP_INTEGER = re.compile(r"[+-]?[0-9]+")
_LP_MAGNITUDE = re.compile(r"[0-9]+")
_SOLUTION_VALUE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|nan)",
    re.IGNORECASE,
)
_SENSES = ("<=", ">=", "=")
# a backslash starts a comment that runs to the next str.splitlines boundary
_LP_COMMENT = re.compile(r"\\[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


class InfeasibleModelError(RuntimeError):
    """The model admits no 0-1 solution.

    With the generators in this package that is mathematically impossible,
    so hitting it means a generator bug or a hand-edited model; it is
    raised loudly rather than folded into a status code.
    """


def variable_name(word: Word) -> str:
    """LP variable name for a word: x_ followed by its bits."""
    return f"x_{word}"


def _variable_names(n: int) -> tuple[str, ...]:
    """Names of all length-n words, in ascending word order."""
    return tuple(variable_name(Word(n, v)) for v in range(1 << n))


@dataclass(frozen=True)
class LinearConstraint:
    """One linear row: (value, coeff) terms, sense, int rhs, unique label."""

    terms: tuple[tuple[int, int], ...]
    sense: str
    rhs: int
    label: str

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {self.sense!r}")
        if not self.label:
            raise ValueError("constraint label must be nonempty")
        # LP tokens split on whitespace (str.isspace, as split() tests it)
        # and a backslash starts a comment
        if self.label.split() != [self.label] or "\\" in self.label:
            raise ValueError(
                f"constraint label {self.label!r} holds whitespace or a backslash"
            )
        seen: set[int] = set()
        for value, coeff in self.terms:
            if coeff == 0:
                raise ValueError(f"{self.label}: zero coefficient on value {value}")
            if value in seen:
                raise ValueError(f"{self.label}: duplicate variable value {value}")
            seen.add(value)

    def evaluate(self, selection: int) -> int:
        """Left-hand side when exactly the words whose bits are set are 1."""
        return sum(c for v, c in self.terms if selection >> v & 1)

    def satisfied(self, selection: int) -> bool:
        return _SENSE_HOLDS[self.sense](self.evaluate(selection), self.rhs)


@dataclass(frozen=True)
class IlpModel:
    """Maximize-cardinality 0-1 model over all words of one length.

    The objective is fixed by construction: every variable has coefficient
    one and the sense is maximize, so only n, the rows, and provenance
    metadata vary.
    """

    n: int
    constraints: tuple[LinearConstraint, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 24:
            raise ValueError(f"model length must lie in 1..24, got {self.n}")
        labels: set[str] = set()
        for row in self.constraints:
            if row.label in labels:
                raise ValueError(f"duplicate constraint label {row.label!r}")
            labels.add(row.label)
            for value, _ in row.terms:
                if not 0 <= value < 1 << self.n:
                    raise ValueError(
                        f"{row.label}: value {value} is not in 0..2^{self.n}-1"
                    )

    @cached_property
    def variable_names(self) -> tuple[str, ...]:
        return _variable_names(self.n)

    def word_of(self, name: str) -> Word:
        m = _VAR_NAME.match(name)
        if not m or len(m.group(1)) != self.n:
            raise ValueError(f"not a variable of this model: {name!r}")
        return Word.parse(m.group(1))

    def selected_words(self, solution: "Solution") -> WordSet:
        if solution.n != self.n:
            raise ValueError(f"solution has length {solution.n}, not {self.n}")
        return WordSet(self.n, _ones(solution.selection))


@dataclass(frozen=True)
class Solution:
    """A 0-1 value per length-n word: bit v of selection is word v's value."""

    n: int
    selection: int
    source: str  # "built-in" or "imported"
    solver_status: str  # "optimal", "feasible", or "unknown"

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 24:
            raise ValueError(f"solution length {self.n} is not in 1..24")
        if self.selection < 0 or self.selection.bit_length() > 1 << self.n:
            raise ValueError(f"selection is not in 0..2^(2^{self.n})-1")
        if self.source not in ("built-in", "imported"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.solver_status not in ("optimal", "feasible", "unknown"):
            raise ValueError(f"unknown status {self.solver_status!r}")

    @property
    def objective(self) -> int:
        return self.selection.bit_count()

    @cached_property
    def assignment(self) -> Mapping[str, int]:
        """Read-only map from each variable name, ascending, to its value."""
        bits = bin(self.selection)[:1:-1].ljust(1 << self.n, "0")
        names = _variable_names(self.n)
        return MappingProxyType(dict(zip(names, map(int, bits))))


# ------------------------------------------------------------- LP text format


def _term_tokens(
    terms: Sequence[tuple[int, int]], names: Sequence[str]
) -> Iterator[str]:
    for position, (value, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        if position == 0 and sign == "+":
            sign = ""
        magnitude = "" if abs(coeff) == 1 else f"{abs(coeff)} "
        body = f"{magnitude}{names[value]}"
        yield f"{sign} {body}" if sign else body


def _wrapped(head: str, parts: Sequence[str], limit: int = 72) -> Iterator[str]:
    line = head
    for part in parts:
        grown = f"{line} {part}" if line else part
        if len(grown) > limit and line.strip():
            yield line
            line = f"  {part}"
        else:
            line = grown
    if line:
        yield line


def write_lp(model: IlpModel, sink: IO[str]) -> int:
    """Write the model in text LP format; returns the byte count written.

    Output is deterministic byte-for-byte for a given model: fixed section
    order, constraint order as stored, unit coefficients omitted, lines
    wrapped at 72 columns with two-space continuations, LF endings.
    """
    meta = model.metadata
    generator = str(meta.get("generator", "delcodes"))
    families = ",".join(str(f) for f in meta.get("families", ())) or "-"
    header = f"\\ {generator} model"
    shape = f"\\ n={model.n} families={families}"
    c6_params = meta.get("c6_params", ()) or ()
    if c6_params:
        shape += " c6=" + ";".join(f"{p},{q}" for p, q in c6_params)

    names = model.variable_names
    lines: list[str] = [header, shape, "Maximize"]
    objective_terms = [(v, 1) for v in range(1 << model.n)]
    lines.extend(_wrapped(" obj:", list(_term_tokens(objective_terms, names))))
    lines.append("Subject To")
    for row in model.constraints:
        parts = list(_term_tokens(row.terms, names))
        parts.append(f"{row.sense} {row.rhs}")
        lines.extend(_wrapped(f" {row.label}:", parts))
    lines.append("Binary")
    lines.extend(_wrapped(f" {names[0]}", names[1:]))
    lines.append("End")

    text = "\n".join(lines) + "\n"
    sink.write(text)
    return len(text.encode("utf-8"))


def _parse_expression(
    items: list[str],
    pos: int,
    stop: tuple[str, ...],
    where: str,
    values: dict[str, int],
) -> tuple[list[tuple[int, int]], int]:
    """Parse `[±] [coef] name` terms from items[pos] until a sense or keyword.

    Returns the (value, coefficient) terms and the position of the token
    that ended them. values maps every x_<bits> name met so far to its
    word value, so the name pattern and int() run once per distinct name.
    A coefficient after a separate sign token is an unsigned magnitude;
    only a term without one may carry its sign in the number (`-3 x_0`).
    where, the label of the row being read, prefixes every error.
    """
    terms: list[tuple[int, int]] = []
    end = len(items)
    while True:
        if pos == end:
            raise ValueError(f"{where} expression ran past end of file")
        tok = items[pos]
        sign = 1
        number = _LP_INTEGER
        if tok == "+" or tok == "-":
            sign = -1 if tok == "-" else 1
            number = _LP_MAGNITUDE  # "- -3" would otherwise read as +3
            pos += 1
            if pos == end:
                raise ValueError(f"{where} dangling sign at end of file")
            tok = items[pos]
        elif tok in _SENSES or tok.lower() in stop:
            return terms, pos
        coeff = sign
        value = values.get(tok)
        if value is None and not _VAR_NAME.match(tok):
            if not number.fullmatch(tok):
                raise ValueError(
                    f"{where} expected coefficient or variable, got {tok!r}"
                )
            coeff = sign * int(tok)
            pos += 1
            if pos == end:
                raise ValueError(
                    f"{where} coefficient without a variable at end of file"
                )
            tok = items[pos]
            value = values.get(tok)
        if value is None:
            if not _VAR_NAME.match(tok):
                raise ValueError(f"{where} expected variable name, got {tok!r}")
            value = values[tok] = int(tok[2:], 2)
        pos += 1
        terms.append((value, coeff))


def read_lp(source: IO[str]) -> IlpModel:
    """Read a model in the dialect write_lp emits.

    Strict about structure: the objective must be all-unit over exactly
    the variables the Binary section declares, those must be x_<bits>
    names of one common width covering every word of that length, every
    constraint may reference only declared variables, and labels must be
    unique. Term order inside rows is preserved. One pass walks the
    tokens by index and turns each distinct name into its word value
    once; the checks on names run after the Binary section is read.
    """
    items = _LP_COMMENT.sub("", source.read()).split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos == len(items):
            raise ValueError("unexpected end of LP file")
        pos += 1
        return items[pos - 1]

    # every x_<bits> name read, in order of first appearance
    values: dict[str, int] = {}
    if take().lower() != "maximize":
        raise ValueError("LP file must start with Maximize")
    obj_label = take()
    if not obj_label.endswith(":"):
        raise ValueError(f"objective needs a label, got {obj_label!r}")
    objective, pos = _parse_expression(
        items, pos, ("subject",), obj_label, values
    )
    if any(coeff != 1 for _, coeff in objective):
        raise ValueError("objective must have unit coefficients")
    objective_names = set(values)
    if take().lower() != "subject" or take().lower() != "to":
        raise ValueError("expected Subject To after the objective")

    raw_rows: list[tuple[str, list[tuple[int, int]], str, int]] = []
    while True:
        if pos == len(items):
            raise ValueError("LP file ended inside Subject To")
        if items[pos].lower() in ("binary", "end"):
            break
        label = take()
        if not label.endswith(":") or len(label) == 1:
            raise ValueError(f"expected a constraint label, got {label!r}")
        terms, pos = _parse_expression(
            items, pos, ("binary", "end"), label, values
        )
        sense = take()
        if sense not in _SENSES:
            raise ValueError(f"{label} expected a sense, got {sense!r}")
        rhs_token = take()
        if not _LP_INTEGER.fullmatch(rhs_token):
            raise ValueError(f"{label} right-hand side {rhs_token!r} is not an integer")
        raw_rows.append((label[:-1], terms, sense, int(rhs_token)))

    if take().lower() != "binary":
        raise ValueError("expected a Binary section")
    binary: list[str] = []
    while True:
        tok = take()
        if tok.lower() == "end":
            break
        binary.append(tok)
    if pos < len(items):
        raise ValueError(f"unexpected content after End: {items[pos]!r}")

    if not binary:
        raise ValueError("Binary section declares no variables")
    widths = set()
    for name in binary:
        m = _VAR_NAME.match(name)
        if not m:
            raise ValueError(f"not a variable name: {name!r}")
        widths.add(len(m.group(1)))
    if len(widths) != 1:
        raise ValueError(f"mixed variable widths {sorted(widths)}")
    n = widths.pop()
    declared = set(binary)
    if len(declared) != len(binary):
        raise ValueError("duplicate names in the Binary section")
    if len(declared) != 1 << n:
        raise ValueError(
            f"expected all {1 << n} variables of length {n}, got {len(declared)}"
        )
    if objective_names != declared:
        raise ValueError("objective does not cover exactly the declared variables")
    # names of other widths can share a value, so the check is by name; the
    # first undeclared name in file order is the first one a row references
    for name in values:
        if name not in declared:
            raise ValueError(f"constraint references undeclared {name!r}")

    rows = tuple(
        LinearConstraint(terms=tuple(terms), sense=sense, rhs=rhs, label=label)
        for label, terms, sense, rhs in raw_rows
    )
    return IlpModel(
        n=n, constraints=rows, metadata={"generator": "lp-import", "n": n}
    )


# ------------------------------------------------------------ solution files


def read_solution(
    source: IO[str], model: IlpModel, strict: bool = False
) -> Solution:
    """Import `name value` lines as a solution to the model.

    Comment text after # is ignored, blank lines are skipped, variables
    missing from the input default to 0, and values round to {0,1} at
    threshold 0.5. In strict mode a value farther than 1e-6 from 0 or 1
    is an error instead. Values are ASCII decimal numerals; NaN is an
    error in both modes.
    """
    values: dict[str, int] = {}
    for lineno, raw in enumerate(source.read().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, value_text = parts
        if len(name) != model.n + 2 or not _VAR_NAME.match(name):
            raise ValueError(f"line {lineno}: unknown variable {name!r}")
        if name in values:
            raise ValueError(f"line {lineno}: duplicate assignment for {name}")
        if not _SOLUTION_VALUE.fullmatch(value_text):
            raise ValueError(f"line {lineno}: non-numeric value {value_text!r}")
        value = float(value_text)
        # NaN fails every comparison, so neither test below would catch it
        if math.isnan(value):
            raise ValueError(f"line {lineno}: {name} = {value_text} is NaN")
        if strict and min(abs(value), abs(value - 1.0)) > 1e-6:
            raise ValueError(
                f"line {lineno}: {name} = {value_text} is not 0/1 within 1e-6"
            )
        values[name] = 1 if value >= 0.5 else 0
    selection = 0
    for name, value in values.items():
        if value:
            selection |= 1 << int(name[2:], 2)
    return Solution(model.n, selection, "imported", "unknown")


def write_solution(solution: Solution, sink: IO[str]) -> None:
    """Write the solution in the format read_solution reads.

    A `# delcodes solution objective=... status=...` header, then one
    `name value` line per variable in ascending word order, LF endings.
    """
    lines = [
        f"# delcodes solution objective={solution.objective} "
        f"status={solution.solver_status}"
    ]
    lines.extend(f"{name} {one}" for name, one in solution.assignment.items())
    sink.write("\n".join(lines) + "\n")


# --------------------------------------------------------------- verification


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of replaying a solution against a model and the code rules."""

    ok: bool
    objective: int
    checked: int
    violated: tuple[str, ...]
    foreign_names: tuple[str, ...]
    code_result: SdeccResult
    words: WordSet

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        lines = [f"verification: {'PASS' if self.ok else 'FAIL'}"]
        lines.append(
            f"objective: {self.objective} ({len(self.words)} words selected)"
        )
        lines.append(
            f"constraints: {self.checked} checked, {len(self.violated)} violated"
        )
        if self.violated:
            lines.append("violated: " + ", ".join(self.violated))
        if self.foreign_names:
            lines.append(
                "foreign variables: " + ", ".join(self.foreign_names)
            )
        if self.code_result.ok:
            lines.append("code check: valid single-deletion code")
        else:
            x, y = self.code_result.first_pair
            lines.append(
                f"code check: INVALID, {x} and {y} share deleted word "
                f"{self.code_result.shared}"
            )
        return "\n".join(lines)


def verify_solution(model: IlpModel, solution: Solution) -> VerifyReport:
    """Replay every row and independently re-check the selected words.

    The code check does not trust the model: it runs is_sdecc on the
    selected words directly, so a model missing packing rows cannot hide
    an invalid selection.
    """
    selection = solution.selection
    foreign: tuple[str, ...] = ()
    if solution.n != model.n:
        # none of its variables belongs to the model, which selects nothing
        foreign = tuple(
            name for name, value in solution.assignment.items() if value
        )
        selection = 0
    violated = tuple(
        row.label
        for row in model.constraints
        if not row.satisfied(selection)
    )
    words = WordSet(model.n, _ones(selection))
    if model.n >= 2:
        code_result = is_sdecc(words)
    else:
        code_result = SdeccResult(len(words) <= 1, None, None)
    return VerifyReport(
        ok=not violated and code_result.ok and solution.n == model.n,
        objective=solution.objective,
        checked=len(model.constraints),
        violated=violated,
        foreign_names=foreign,
        code_result=code_result,
        words=words,
    )


# ------------------------------------------------------------ built-in solver


def _classify_rows(model: IlpModel):
    """Split rows into packing members, singleton fixes, and generic rows.

    Generic rows come as (sense, rhs) pairs; var_rows[v] lists the
    (generic row index, coefficient) pairs of variable v in row order.
    """
    nv = 1 << model.n
    packing: list[tuple[int, ...]] = []
    fixes: dict[int, int] = {}
    generic: list[tuple[str, int]] = []
    var_rows: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for row in model.constraints:
        coeffs = [c for _, c in row.terms]
        if row.sense == "=" and len(row.terms) == 1:
            v, coeff = row.terms[0]
            if row.rhs % coeff:
                raise InfeasibleModelError(
                    f"{row.label}: forces a fractional value"
                )
            value = row.rhs // coeff
            if value not in (0, 1):
                raise InfeasibleModelError(
                    f"{row.label}: forces {Word(model.n, v)} to {value}"
                )
            prior = fixes.setdefault(v, value)
            if prior != value:
                raise InfeasibleModelError(
                    f"{row.label}: conflicts with an earlier fix of "
                    f"{Word(model.n, v)}"
                )
            continue
        if row.sense == "<=" and row.rhs == 1 and all(c == 1 for c in coeffs):
            if len(row.terms) > 1:
                packing.append(tuple(v for v, _ in row.terms))
            continue  # a single-variable x <= 1 row is vacuous
        for v, c in row.terms:
            var_rows[v].append((len(generic), c))
        generic.append((row.sense, row.rhs))
    return nv, packing, fixes, generic, var_rows


def solve_builtin(
    model: IlpModel, options: SearchOptions | None = None
) -> Solution:
    """Exact 0-1 solve of the model by branch and bound.

    Root handling applies singleton equality fixes and their packing
    consequences. The search is the kernel the exact graph search uses
    (sdecc._branch_and_bound). It warm-starts from deterministic seeds,
    the given incumbent, the empty seed (a plain greedy fill), VT_0 and
    its complement, each greedily completed against the actual rows;
    the first of the largest completions that meets every row starts
    the search. It branches on the packing row with the most undecided
    variables and decides its lowest member first; bounds come from
    LP-weighted and greedy covers by the packing rows, while the other
    rows prune by reachability and gate incumbents.
    Exhausts the space unless the node or time budget, counted from the
    start of this call, interrupts, in which case the best incumbent is
    returned with solver_status "feasible" (or "unknown" when none was
    found). A proven-empty feasible set raises InfeasibleModelError.
    """
    started = time.monotonic()
    opts = options or SearchOptions()
    n = model.n
    nv, packing_rows, fixes, generic, var_rows = _classify_rows(model)
    if not packing_rows:
        raise ValueError("solve_builtin needs at least one packing row")

    packing, rows_of, closed = _incidence(nv, packing_rows)
    if any(not rows for rows in rows_of):
        raise ValueError("every variable must appear in some packing row")

    # propagate fixes: a selected word saturates its packing rows
    ones = [v for v, value in fixes.items() if value == 1]
    for v in reversed(ones):
        others = closed[v] & ~(1 << v)
        while others:
            low = others & -others
            u = low.bit_length() - 1
            others ^= low
            if fixes.get(u) == 1:
                raise InfeasibleModelError(
                    f"fixed selections {Word(n, v)} and {Word(n, u)} conflict"
                )
            fixes.setdefault(u, 0)

    ones_mask = 0
    for v in ones:
        ones_mask |= 1 << v
    fixed_mask = 0
    for v in fixes:
        fixed_mask |= 1 << v

    # of all VT classes and their complements, only these ever won on the
    # generated models
    vt0 = vt_code(n, 0).values
    seeds: list[Sequence[int]] = [(), vt0, sorted((nv - 1) ^ v for v in vt0)]
    if opts.incumbent is not None:
        inc = opts.incumbent
        if inc.n != n:
            raise ValueError(f"incumbent has length {inc.n}, expected {n}")
        seeds.insert(0, inc.values)

    selection, _, exhausted = _branch_and_bound(
        packing, rows_of, closed, var_rows, ((1 << nv) - 1) & ~fixed_mask,
        seeds, opts, started, generic=generic, included=ones_mask,
    )
    if selection is None:
        if not exhausted:
            raise InfeasibleModelError(
                "search exhausted without any feasible selection"
            )
        return Solution(n, 0, "built-in", "unknown")
    status = "feasible" if exhausted else "optimal"
    return Solution(n, selection, "built-in", status)
