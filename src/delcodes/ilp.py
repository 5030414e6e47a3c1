"""Model container, LP text exchange, solution verification, built-in solver.

A model holds one binary variable per length-n word and maximizes how many
are selected, subject to linear rows of (word value, coefficient) terms that
are evaluated on a bitmask of the selected values. A Solution holds such a
selection bitmask. x_<bits> names appear only at the file boundary and in
the read-only Solution.assignment view: write_lp and read_lp move models
through the common text LP format so external solvers can be used, read_lp
by one walk over the file's tokens, line by line; write_solution and
read_solution move selections through `name value` files; verify_solution
replays every row on the selection and independently re-checks the selected
words as a code.
solve_builtin is a self-contained exact 0-1 solver: it classifies the rows,
propagates fixes and picks its warm-start seeds here, then runs the
branch-and-bound kernel it shares with the conflict-graph search
(sdecc._branch_and_bound), which completes those seeds and searches from the
best of them. Because the two searches share that kernel, the tests check
both against a brute-force enumeration of independent sets rather than only
against each other.
"""

from __future__ import annotations

import math
import operator
import re
import time
import weakref
from functools import cached_property, partial
from itertools import chain, filterfalse, islice, starmap
from operator import itemgetter
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .bitseq import MAX_LEN, Word, WordSet, _Frozen, _is_int
from .sdecc import (
    SdeccResult,
    SearchOptions,
    _branch_and_bound,
    _incidence,
    _ones,
    is_sdecc,
)
from .vt import vt_code

# used with fullmatch only: match would also take "x_01\n"
_VAR_NAME = re.compile(r"x_([01]+)")
# int() and float() also take "1_0", non-ASCII digits and "infinity"; the
# file formats allow only ASCII numerals, so each reader matches its own
_LP_INTEGER = re.compile(r"[+-]?[0-9]+")
_LP_MAGNITUDE = re.compile(r"[0-9]+")
_SOLUTION_VALUE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|nan)",
    re.IGNORECASE,
)
# what each row sense requires of (left-hand side, right-hand side)
_SENSE_HOLDS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}
_SENSES = tuple(_SENSE_HOLDS)
# the sign each half of a row takes to read as sum <= rhs
_SIGNS = {"<=": (1,), ">=": (-1,), "=": (1, -1)}
# a backslash starts a comment that runs to the next str.splitlines boundary
_LP_COMMENT = re.compile(r"\\[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


class _NameTerms(dict):
    """x_<bits> name -> (word value, 1), made on the name's first lookup.

    The keys are the names met so far, in order of first appearance, and
    every unit-coefficient term of a name is its one shared pair.
    """

    def __missing__(self, name: str) -> tuple[int, int]:
        term = self[name] = (int(name[2:], 2), 1)
        return term


class _UnitTerms(list):
    """The (value, 1) term of every length-n word, indexed by value.

    The generators take their unit terms from it, so a model shares one
    pair per word across its rows. _unit_terms holds the tables weakly
    (a list, unlike a tuple, can be), so a table lives only while some
    caller holds it, as build_model does while its families are built.
    """

    __slots__ = ("__weakref__",)


_unit_tables: weakref.WeakValueDictionary[int, _UnitTerms] = (
    weakref.WeakValueDictionary()
)


def _unit_terms(n: int) -> _UnitTerms:
    table = _unit_tables.get(n)
    if table is None:
        table = _unit_tables[n] = _UnitTerms((v, 1) for v in range(1 << n))
    return table


def _bit_string(selection: int, size: int) -> str:
    """Character v is "1" when bit v of selection is set, for v < size."""
    return bin(selection)[:1:-1].ljust(size, "0")


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
    """Names of all length-n words, in ascending word order.

    The same names as variable_name, formatted straight from the values.
    """
    return tuple(map(f"x_{{:0{n}b}}".format, range(1 << n)))


class LinearConstraint(_Frozen):
    """One linear row: (value, coeff) terms, sense, int rhs, unique label."""

    __slots__ = _fields = ("terms", "sense", "rhs", "label")

    def __init__(
        self,
        terms: tuple[tuple[int, int], ...],
        sense: str,
        rhs: int,
        label: str,
    ) -> None:
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        if not label:
            raise ValueError("constraint label must be nonempty")
        # LP tokens split on whitespace (str.isspace, as split() tests it)
        # and a backslash starts a comment
        if label.split() != [label] or "\\" in label:
            raise ValueError(
                f"constraint label {label!r} holds whitespace or a backslash"
            )
        # write_lp writes what it is given, and read_lp reads ints only
        if type(rhs) is not int:  # a bool is an int, but not an LP numeral
            raise ValueError(f"{label}: right-hand side {rhs!r} is not an int")
        seen: set[int] = set()
        for value, coeff in terms:
            if type(coeff) is not int:
                raise ValueError(f"{label}: coefficient {coeff!r} is not an int")
            if coeff == 0:
                raise ValueError(f"{label}: zero coefficient on value {value}")
            if value in seen:
                raise ValueError(f"{label}: duplicate variable value {value}")
            seen.add(value)
        self._set(terms, sense, rhs, label)

    def evaluate(self, selection: int | str) -> int:
        """Left-hand side when exactly the words whose bits are set are 1.

        selection is a bitmask, or its _bit_string covering every value of
        the row, so that one string serves every row of a model.
        """
        if isinstance(selection, int):
            size = max(self.terms, default=(-1, 0))[0] + 1
            selection = _bit_string(selection, size)
        return sum(c for v, c in self.terms if selection[v] == "1")

    def satisfied(self, selection: int | str) -> bool:
        return _SENSE_HOLDS[self.sense](self.evaluate(selection), self.rhs)


class IlpModel(_Frozen):
    """Maximize-cardinality 0-1 model over all words of one length.

    The objective is fixed by construction: every variable has coefficient
    one and the sense is maximize, so only n, the rows, and provenance
    metadata (a fresh empty dict when not given) vary.
    """

    _fields = ("n", "constraints", "metadata")

    def __init__(
        self,
        n: int,
        constraints: tuple[LinearConstraint, ...],
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        if not _is_int(n) or not 1 <= n <= MAX_LEN:
            raise ValueError(
                f"model length must lie in 1..{MAX_LEN}, got {n!r}"
            )
        labels: set[str] = set()
        for row in constraints:
            if row.label in labels:
                raise ValueError(f"duplicate constraint label {row.label!r}")
            labels.add(row.label)
            for value, _ in row.terms:
                if not 0 <= value < 1 << n:
                    raise ValueError(
                        f"{row.label}: value {value} is not in 0..2^{n}-1"
                    )
        self._set(n, constraints, {} if metadata is None else metadata)

    @cached_property
    def variable_names(self) -> tuple[str, ...]:
        return _variable_names(self.n)

    def word_of(self, name: str) -> Word:
        m = _VAR_NAME.fullmatch(name)
        if not m or len(m.group(1)) != self.n:
            raise ValueError(f"not a variable of this model: {name!r}")
        return Word.parse(m.group(1))

    def selected_words(self, solution: "Solution") -> WordSet:
        if solution.n != self.n:
            raise ValueError(f"solution has length {solution.n}, not {self.n}")
        return WordSet(self.n, _ones(solution.selection))


# Rows and models whose caller has made every __init__ check itself: the
# generators, which fix each row's shape, and read_lp for a file whose walk
# met nothing those checks refuse. Rows are many, so theirs are set through
# the slot descriptors.

_set_terms = LinearConstraint.terms.__set__
_set_sense = LinearConstraint.sense.__set__
_set_rhs = LinearConstraint.rhs.__set__
_set_label = LinearConstraint.label.__set__


def _unchecked_row(
    terms: tuple[tuple[int, int], ...], sense: str, rhs: int, label: str
) -> LinearConstraint:
    row = object.__new__(LinearConstraint)
    _set_terms(row, terms)
    _set_sense(row, sense)
    _set_rhs(row, rhs)
    _set_label(row, label)
    return row


def _unchecked_model(
    n: int,
    constraints: tuple[LinearConstraint, ...],
    metadata: Mapping[str, object],
) -> IlpModel:
    model = object.__new__(IlpModel)
    model._set(n, constraints, metadata)
    return model


class Solution(_Frozen):
    """A 0-1 value per length-n word: bit v of selection is word v's value.

    source is "built-in" or "imported"; solver_status is "optimal",
    "feasible" or "unknown".
    """

    _fields = ("n", "selection", "source", "solver_status")

    def __init__(
        self, n: int, selection: int, source: str, solver_status: str
    ) -> None:
        if not _is_int(n) or not 1 <= n <= MAX_LEN:
            raise ValueError(f"solution length {n!r} is not in 1..{MAX_LEN}")
        if not _is_int(selection):
            raise ValueError(f"selection must be an int, got {selection!r}")
        if selection < 0 or selection.bit_length() > 1 << n:
            raise ValueError(f"selection is not in 0..2^(2^{n})-1")
        if source not in ("built-in", "imported"):
            raise ValueError(f"unknown source {source!r}")
        if solver_status not in ("optimal", "feasible", "unknown"):
            raise ValueError(f"unknown status {solver_status!r}")
        self._set(n, selection, source, solver_status)

    @property
    def objective(self) -> int:
        return self.selection.bit_count()

    @cached_property
    def assignment(self) -> Mapping[str, int]:
        """Read-only map from each variable name, ascending, to its value."""
        bits = _bit_string(self.selection, 1 << self.n)
        names = _variable_names(self.n)
        return MappingProxyType(dict(zip(names, map(int, bits))))


# ------------------------------------------------------------- LP text format


def _term_tokens(
    terms: Sequence[tuple[int, int]],
    names: Sequence[str],
    signed: Sequence[str],
) -> list[str]:
    """Each term as `+ name`, `- name`, `+ k name` or `- k name`.

    signed[v] is "+ " + names[v], so a unit term is one lookup; a first
    term with a positive coefficient drops its "+ ".
    """
    parts = [
        signed[v] if c == 1
        else f"- {names[v]}" if c == -1
        else f"+ {c} {names[v]}" if c > 0
        else f"- {-c} {names[v]}"
        for v, c in terms
    ]
    if parts and parts[0][0] == "+":
        parts[0] = parts[0][2:]
    return parts


_LP_WIDTH = 72


def _wrapped(head: str, parts: Iterable[str]) -> list[str]:
    """head and the parts joined by spaces, in lines of at most 72 columns.

    A part goes on the current line if it fits, else it starts a line
    indented by two spaces; every head and part is non-empty, so no line
    is ever blank.
    """
    lines = []
    line = [head]
    width = len(head)
    for part in parts:
        width += 1 + len(part)
        if width > _LP_WIDTH:
            lines.append(" ".join(line))
            line = ["  " + part]
            width = 2 + len(part)
        else:
            line.append(part)
    lines.append(" ".join(line))
    return lines


def _lp_sections(
    model: IlpModel, header: str, shape: str
) -> Iterator[Iterable[str]]:
    """write_lp's lines: the head to Subject To, each row's, Binary to End."""
    names = model.variable_names
    signed = ["+ " + name for name in names]
    head = [header, shape, "Maximize"]
    head.extend(_wrapped(" obj:", [names[0], *signed[1:]]))
    head.append("Subject To")
    yield head
    for row in model.constraints:
        parts = _term_tokens(row.terms, names, signed)
        parts.append(f"{row.sense} {row.rhs}")
        yield _wrapped(f" {row.label}:", parts)
    yield ["Binary", *_wrapped(f" {names[0]}", names[1:]), "End"]


def write_lp(model: IlpModel, sink: IO[str]) -> int:
    """Write the model in text LP format; returns the byte count written.

    Output is deterministic byte-for-byte for a given model: fixed section
    order, constraint order as stored, unit coefficients omitted, lines
    wrapped at 72 columns with two-space continuations, LF endings.
    The generator, family names and C6 parameters go into the comment
    header; a line break in any of them would end its comment early, so
    it raises ValueError before anything is written. The text goes to the
    sink as it is formatted: the head through Subject To, then one write
    per row, then Binary through End, so the whole file is never held;
    each chunk's UTF-8 length is added to the count.
    """
    meta = model.metadata
    generator = str(meta.get("generator", "delcodes"))
    families = ",".join(str(f) for f in meta.get("families", ())) or "-"
    c6_params = meta.get("c6_params", ()) or ()
    c6 = ";".join(f"{p},{q}" for p, q in c6_params)
    for field_name, text in (
        ("generator", generator), ("families", families), ("c6_params", c6)
    ):
        if "".join(text.splitlines()) != text:
            raise ValueError(f"{field_name} metadata holds a line break")
    header = f"\\ {generator} model"
    shape = f"\\ n={model.n} families={families}"
    if c6:
        shape += " c6=" + c6

    written = 0
    for lines in _lp_sections(model, header, shape):
        chunk = "\n".join(lines) + "\n"
        sink.write(chunk)
        written += len(chunk if chunk.isascii() else chunk.encode("utf-8"))
    return written


# the magnitudes of `+ k name` terms the walk takes in one step: the
# canonical numerals only, so `07`, `0` and `1` take the general path
_LP_COEFFICIENTS = {str(k): k for k in range(2, 100)}


def _named_term(
    tok: str | None, where: str, names: _NameTerms
) -> tuple[int, int]:
    """The term of the name after a coefficient, when no name met so far."""
    if tok is None:
        raise ValueError(f"{where} coefficient without a variable at end of file")
    if not _VAR_NAME.fullmatch(tok):
        raise ValueError(f"{where} expected variable name, got {tok!r}")
    return names[tok]


def _parse_expression(
    tokens: Iterator[str],
    stop: tuple[str, ...],
    where: str,
    names: _NameTerms,
) -> tuple[list[tuple[int, int]], str]:
    """Parse `[±] [coef] name` terms from tokens until a sense or keyword.

    Returns the (value, coefficient) terms and the token that ended them.
    names holds every x_<bits> name met so far, so the name pattern and
    int() run once per distinct name, and every unit term of a name is
    its one shared pair. The shapes write_lp emits take a dict lookup per
    token when the name was met before: `+ name`, `- name` and `+ k name`
    for k in 2..99; any other term takes the general path.
    A coefficient after a separate sign token is an unsigned magnitude;
    only a term without one may carry its sign in the number (`-3 x_0`).
    where, the label of the row being read, prefixes every error.
    """
    terms: list[tuple[int, int]] = []
    append = terms.append
    for tok in tokens:
        if tok == "+":
            tok = next(tokens, None)
            term = names.get(tok)
            if term is not None:  # `+ name`, most of write_lp's terms
                append(term)
                continue
            coeff = _LP_COEFFICIENTS.get(tok)
            if coeff is not None:  # `+ k name`
                tok = next(tokens, None)
                term = names.get(tok) or _named_term(tok, where, names)
                append((term[0], coeff))
                continue
            sign = 1
            number = _LP_MAGNITUDE
        elif tok == "-":
            tok = next(tokens, None)
            term = names.get(tok)
            if term is not None:  # `- name`
                append((term[0], -1))
                continue
            sign = -1
            number = _LP_MAGNITUDE  # "- -3" would otherwise read as +3
        elif tok in _SENSES or tok.lower() in stop:
            return terms, tok
        else:
            sign = 1
            number = _LP_INTEGER
            term = names.get(tok)
        if tok is None:  # only after a sign
            raise ValueError(f"{where} dangling sign at end of file")
        coeff = sign
        if term is None:
            # no name is a numeral, so the cheaper numeral test goes first
            if number.fullmatch(tok):
                coeff = sign * int(tok)
                tok = next(tokens, None)
                term = names.get(tok) or _named_term(tok, where, names)
            elif _VAR_NAME.fullmatch(tok):
                term = names[tok]
            else:
                raise ValueError(
                    f"{where} expected coefficient or variable, got {tok!r}"
                )
        append(term if coeff == 1 else (term[0], coeff))
    raise ValueError(f"{where} expression ran past end of file")


def read_lp(source: IO[str]) -> IlpModel:
    """Read a model in the dialect write_lp emits.

    Strict about structure: the objective must be all-unit over exactly
    the variables the Binary section declares, those must be x_<bits>
    names of one common width covering every word of that length, every
    constraint may reference only declared variables, and labels must be
    unique. Term order inside rows is preserved. One walk takes the
    whitespace-separated tokens of the source's lines, a few hundred
    lines at a time, as it needs them: the objective and every row
    through _parse_expression, then the Binary section to End at once.
    Neither the text nor a list of all its tokens is held, and
    source.read() is never called. The walk defines the language read_lp
    accepts, and its ValueError words the first fault in file order. It
    also notes what would fail a row's or the model's own checks, a zero
    coefficient, a value twice in one row or a label twice; only then,
    or past MAX_LEN, are rows and model built through LinearConstraint
    and IlpModel, which word that fault. Otherwise, once every name is a
    declared one of a single width, nothing in them can fail a check, so
    they are built unchecked.
    """
    # a comment ends at a line boundary, so stripping and splitting lines
    # 256 at a time, joined by line breaks, leaves the same tokens as the
    # whole text would; a sub and a split per line cost twice the time
    lines = iter(source)
    chunks = iter(lambda: "\n".join(islice(lines, 256)), "")
    tokens = chain.from_iterable(
        map(str.split, map(partial(_LP_COMMENT.sub, ""), chunks))
    )
    # every x_<bits> name read, in order of first appearance
    names = _NameTerms()
    tok = next(tokens, None)
    if tok is None:
        raise ValueError("unexpected end of LP file")
    if tok.lower() != "maximize":
        raise ValueError("LP file must start with Maximize")
    obj_label = next(tokens, None)
    if obj_label is None:
        raise ValueError("unexpected end of LP file")
    if not obj_label.endswith(":"):
        raise ValueError(f"objective needs a label, got {obj_label!r}")
    objective, tok = _parse_expression(tokens, ("subject",), obj_label, names)
    if any(coeff != 1 for _, coeff in objective):
        raise ValueError("objective must have unit coefficients")
    objective_names = set(names)
    if tok.lower() != "subject":
        raise ValueError("expected Subject To after the objective")
    tok = next(tokens, None)
    if tok is None:
        raise ValueError("unexpected end of LP file")
    if tok.lower() != "to":
        raise ValueError("expected Subject To after the objective")

    raw_rows = []
    checked = False
    while True:
        label = next(tokens, None)
        if label is None:
            raise ValueError("LP file ended inside Subject To")
        if label.lower() in ("binary", "end"):
            break
        if not label.endswith(":") or len(label) == 1:
            raise ValueError(f"expected a constraint label, got {label!r}")
        terms, sense = _parse_expression(tokens, ("binary", "end"), label, names)
        if sense not in _SENSES:
            raise ValueError(f"{label} expected a sense, got {sense!r}")
        rhs_token = next(tokens, None)
        if rhs_token is None:
            raise ValueError("unexpected end of LP file")
        if not _LP_INTEGER.fullmatch(rhs_token):
            raise ValueError(f"{label} right-hand side {rhs_token!r} is not an integer")
        # a zero coefficient or a value twice leaves fewer values than terms
        if len({v for v, c in terms if c}) != len(terms):
            checked = True
        raw_rows.append((tuple(terms), sense, int(rhs_token), label[:-1]))

    if label.lower() != "binary":
        raise ValueError("expected a Binary section")
    binary = list(tokens)
    end = next((i for i, tok in enumerate(binary) if tok.lower() == "end"), -1)
    if end < 0:
        raise ValueError("unexpected end of LP file")
    if end + 1 < len(binary):
        raise ValueError(f"unexpected content after End: {binary[end + 1]!r}")
    del binary[end:]

    if not binary:
        raise ValueError("Binary section declares no variables")
    # a name the walk has met is a well-formed one
    unmet = filterfalse(names.__contains__, binary)
    bad = next(filterfalse(_VAR_NAME.fullmatch, unmet), None)
    if bad is not None:
        raise ValueError(f"not a variable name: {bad!r}")
    widths = {size - 2 for size in set(map(len, binary))}
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
    undeclared = names.keys() - declared
    if undeclared:
        first = next(name for name in names if name in undeclared)
        raise ValueError(f"constraint references undeclared {first!r}")

    metadata = {"generator": "lp-import", "n": n}
    labels = set(map(itemgetter(3), raw_rows))
    if checked or len(labels) != len(raw_rows) or n > MAX_LEN:
        rows = tuple(starmap(LinearConstraint, raw_rows))
        return IlpModel(n, rows, metadata)
    rows = tuple(starmap(_unchecked_row, raw_rows))
    return _unchecked_model(n, rows, metadata)



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
        if len(name) != model.n + 2 or not _VAR_NAME.fullmatch(name):
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
    bits = _bit_string(solution.selection, 1 << solution.n)
    lines.extend(map("{} {}".format, _variable_names(solution.n), bits))
    sink.write("\n".join(lines) + "\n")


# --------------------------------------------------------------- verification


class VerifyReport(NamedTuple):
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
            shared = self.code_result.shared
            lines.append(
                f"code check: INVALID, {x} and {y} share deleted word "
                f"{'(the empty word)' if shared is None else shared}"
            )
        return "\n".join(lines)


def verify_solution(model: IlpModel, solution: Solution) -> VerifyReport:
    """Replay every row and independently re-check the selected words.

    The code check does not trust the model: it runs is_sdecc on the
    selected words directly, at every length, so a model missing packing
    rows cannot hide an invalid selection.
    """
    selection = solution.selection
    foreign: tuple[str, ...] = ()
    if solution.n != model.n:
        # none of its variables belongs to the model, which selects nothing;
        # named from the set bits, not from the 2^n names of the assignment
        name = f"x_{{:0{solution.n}b}}".format
        foreign = tuple(map(name, _ones(selection)))
        selection = 0
    # one bit string serves every row, instead of a shift of the whole
    # selection per term
    bits = _bit_string(selection, 1 << model.n)
    violated = tuple(
        row.label
        for row in model.constraints
        if not row.satisfied(bits)
    )
    words = WordSet(model.n, _ones(selection))
    code_result = is_sdecc(words)
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

    Each generic row reaches the kernel as the rhs of sum <= rhs, a >= row
    negated and an = row as both (the <= half first). var_rows[v] lists
    v's (generic row index, coefficient) pairs in row order, one shared
    pair per distinct coefficient of a row.
    """
    nv = 1 << model.n
    packing: list[tuple[int, ...]] = []
    fixes: dict[int, int] = {}
    generic: list[int] = []
    var_rows: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for row in model.constraints:
        terms = row.terms
        if row.sense == "=" and len(terms) == 1:
            (v, coeff), = terms
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
        elif (
            row.sense == "<=" and row.rhs == 1
            and set(map(itemgetter(1), terms)) <= {1}
        ):
            if len(terms) > 1:  # a single-variable x <= 1 row is vacuous
                packing.append(tuple(map(itemgetter(0), terms)))
        else:
            coeffs = set(map(itemgetter(1), terms))
            for sign in _SIGNS[row.sense]:
                ri = len(generic)
                pairs = {c: (ri, sign * c) for c in coeffs}
                for v, c in terms:
                    var_rows[v].append(pairs[c])
                generic.append(sign * row.rhs)
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
    greedy covers by the packing rows and from an LP-weighted cover by
    those rows and the clique rows separated from them (coverlp, whose
    packing LP re-solves warm as clique rows are added; read only at
    nodes the greedy cover does not cut, and built at the first of them),
    while the other rows prune by reachability and gate incumbents.
    Exhausts the space unless the node or time budget, counted from the
    start of this call, interrupts, in which case the best incumbent is
    returned with solver_status "feasible" (or "unknown" when none was
    found). A proven-empty feasible set raises InfeasibleModelError.

    Complementing maps syndrome s to n(n+1)/2 - s, so VT_0's complement
    is VT_{n(n+1)/2 mod (n+1)}: VT_0 itself at even n, where the kernel
    completes the two equal seeds once.
    """
    started = time.monotonic()
    opts = options or SearchOptions()
    n = model.n
    nv, packing_rows, fixes, generic, var_rows = _classify_rows(model)
    packing, rows_of, closed = _incidence(nv, packing_rows)
    if any(not rows for rows in rows_of):
        raise ValueError("every variable must appear in some packing row")

    # propagate fixes: a selected word saturates its packing rows, so every
    # word sharing one with it is fixed to 0
    ones = [v for v, value in fixes.items() if value == 1]
    ones_mask = sum(1 << v for v in ones)
    fixed_mask = sum(1 << v for v in fixes)
    for v in reversed(ones):
        clash = closed[v] & ones_mask ^ 1 << v
        if clash:
            u = (clash & -clash).bit_length() - 1
            raise InfeasibleModelError(
                f"fixed selections {Word(n, v)} and {Word(n, u)} conflict"
            )
        fixed_mask |= closed[v]

    # of all VT classes and their complements, only these ever won on the
    # generated models
    vt0 = vt_code(n, 0).values
    seeds: list[Iterable[int]] = [(), vt0, ((nv - 1) ^ v for v in vt0)]
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
