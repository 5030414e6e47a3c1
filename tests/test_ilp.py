"""LP exchange, solution import, verification, and the built-in solver."""

import functools
import hashlib
import io
import itertools
import random
import re
import sys
import time
import tracemalloc

import pytest

from delcodes.bitseq import Word, WordSet
from delcodes import coverlp, ilp as ilp_module
from delcodes.constraints import FAMILY_IDS, build_model, dominated_words
from delcodes.ilp import (
    IlpModel,
    InfeasibleModelError,
    LinearConstraint,
    Solution,
    read_lp,
    read_solution,
    solve_builtin,
    variable_name,
    verify_solution,
    write_lp,
    write_solution,
)
from delcodes.sdecc import (
    SearchOptions,
    conflict_graph,
    is_sdecc,
    max_sdecc_exact,
)
from delcodes.vt import vt_code


def lp_text(model: IlpModel) -> str:
    buf = io.StringIO()
    write_lp(model, buf)
    return buf.getvalue()


def selection_of(values) -> int:
    return sum(1 << v for v in set(values))


def vt_solution(model: IlpModel, a: int = 0) -> Solution:
    selection = selection_of(vt_code(model.n, a).values)
    return Solution(model.n, selection, "imported", "unknown")


# ----------------------------------------------------------------- the types


def test_constraint_rejects_bad_sense():
    with pytest.raises(ValueError):
        LinearConstraint(((0b01, 1),), "<", 1, "row")


def test_constraint_rejects_duplicate_variable():
    with pytest.raises(ValueError):
        LinearConstraint(((0b01, 1), (0b01, 1)), "<=", 1, "row")


def test_constraint_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        LinearConstraint(((0b01, 0),), "<=", 1, "row")


def test_constraint_requires_label():
    with pytest.raises(ValueError):
        LinearConstraint(((0b01, 1),), "<=", 1, "")


@pytest.mark.parametrize("label", ["a b", "a\\b", "tab\there"])
def test_constraint_rejects_a_label_lp_text_cannot_hold(label):
    # LP tokens split on whitespace and a backslash starts a comment, so
    # read_lp would refuse the file write_lp made from such a row
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        LinearConstraint(((0b01, 1),), "<=", 1, label)


def test_model_rejects_duplicate_labels():
    row = LinearConstraint(((0b01, 1),), "<=", 1, "dup")
    with pytest.raises(ValueError):
        IlpModel(2, (row, row))


def test_model_rejects_foreign_word_length():
    # a term is a word value, so a foreign word is one outside 0..2^n-1
    IlpModel(2, (LinearConstraint(((3, 1),), "<=", 1, "row"),))
    for value in (4, -1):
        row = LinearConstraint(((value, 1),), "<=", 1, "row")
        with pytest.raises(ValueError, match="not in 0..2"):
            IlpModel(2, (row,))


@pytest.mark.parametrize("n", [0, 25])
def test_model_rejects_a_length_outside_the_word_range(n):
    with pytest.raises(ValueError, match=r"model length must lie in 1\.\.24"):
        IlpModel(n, ())


def test_model_rejects_a_bool_length():
    with pytest.raises(ValueError, match=r"lie in 1\.\.24, got True$"):
        IlpModel(True, ())


@pytest.mark.parametrize("n", range(1, 13))
def test_model_variable_names_are_the_word_names(n):
    names = IlpModel(n, ()).variable_names
    assert names == tuple(variable_name(Word(n, v)) for v in range(1 << n))


def test_word_of_refuses_a_name_with_a_trailing_line_break():
    # a name pattern anchored with $ also matches before a final newline
    model = IlpModel(3, ())
    with pytest.raises(ValueError, match="not a variable"):
        model.word_of("x_011\n")


def test_model_variable_names_cover_all_words():
    model = IlpModel(3, ())
    assert len(model.variable_names) == 8
    assert model.variable_names[0] == "x_000"
    assert model.variable_names[-1] == "x_111"
    assert model.word_of("x_101") == Word.parse("101")
    with pytest.raises(ValueError):
        model.word_of("x_0000")
    with pytest.raises(ValueError):
        model.word_of("y_000")


def test_solution_objective_must_count_ones():
    sol = Solution(2, 0b1001, "built-in", "optimal")
    assert sol.objective == 2
    assert dict(sol.assignment) == {"x_00": 1, "x_01": 0, "x_10": 0, "x_11": 1}
    with pytest.raises(TypeError):
        sol.assignment["x_01"] = 1  # a read-only view of the bitmask
    with pytest.raises(ValueError):
        Solution(1, 0b1, "oracle", "optimal")
    with pytest.raises(ValueError):
        Solution(1, 0b1, "built-in", "great")


@pytest.mark.parametrize("n,selection", [(1, 4), (2, 1 << 16), (3, -1), (0, 0)])
def test_solution_rejects_selection_out_of_range(n, selection):
    with pytest.raises(ValueError):
        Solution(n, selection, "imported", "unknown")


def test_solution_rejects_a_bool_length():
    with pytest.raises(ValueError, match=r"solution length True is not in"):
        Solution(True, 0, "built-in", "optimal")


def test_selected_words_reads_ones():
    model = build_model(3, {"C0"})
    sol = vt_solution(model)
    words = model.selected_words(sol)
    assert isinstance(words, WordSet)
    assert words.values == vt_code(3, 0).values


def test_selected_words_refuses_a_solution_of_another_length():
    model = build_model(3, {"C0"})
    with pytest.raises(ValueError, match="solution has length 4, not 3"):
        model.selected_words(Solution(4, 1, "imported", "unknown"))


# ------------------------------------------------------------------ write_lp


def test_write_lp_returns_exact_byte_count():
    model = build_model(4, {"C0", "C1"})
    buf = io.StringIO()
    nbytes = write_lp(model, buf)
    assert nbytes == len(buf.getvalue().encode("utf-8"))


def test_write_lp_counts_the_utf8_bytes_of_non_ascii_text():
    rows = (LinearConstraint(((0, 1), (1, 1)), "<=", 1, "ряд_π"),)
    model = IlpModel(2, rows, metadata={"generator": "délcodes ✓"})
    buf = io.StringIO()
    nbytes = write_lp(model, buf)
    text = buf.getvalue()
    assert nbytes == len(text.encode("utf-8")) > len(text)
    assert read_lp(io.StringIO(text)).constraints == rows


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_write_lp_streams_the_file_in_small_writes():
    model = build_model(10, FAMILY_IDS)
    sink = RecordingSink()
    nbytes = write_lp(model, sink)
    text = "".join(sink.writes)
    assert text == lp_text(model) and nbytes == len(text.encode("utf-8"))
    assert len(sink.writes) > 1
    assert max(map(len, sink.writes)) <= len(text) / 10


def test_write_lp_is_byte_deterministic():
    a = lp_text(build_model(6, {"C0", "C1", "C4", "C5"}))
    b = lp_text(build_model(6, {"C0", "C1", "C4", "C5"}))
    assert a == b


def test_write_lp_layout():
    text = lp_text(build_model(3, {"C0", "C3"}))
    lines = text.splitlines()
    assert lines[0].startswith("\\ delcodes")
    assert "n=3 families=C0,C3" in lines[1]
    assert "Maximize" in lines
    assert "Subject To" in lines
    assert "Binary" in lines
    assert lines[-1] == "End"
    assert text.endswith("End\n")
    assert "\r" not in text
    assert all(len(line) <= 72 for line in lines)


# sha256 of write_lp(build_model(n, C0..C6)). The header names the package
# version, so a version bump changes these too; any other change to them
# changes the file format and must be deliberate.
GOLDEN_LP_SHA256 = {
    6: "1434bfde8e62a64484c01a7da157fdf268bc8c094e9b06979be81c0c88672a02",
    7: "fe76b14b39a233471702df3ceaff9a2e7b8c742d390f2c1d7186c1c023ed7940",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_LP_SHA256))
def test_write_lp_bytes_match_golden_digest(n):
    text = lp_text(build_model(n, FAMILY_IDS))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_LP_SHA256[n]


def test_write_lp_omits_unit_coefficients():
    text = lp_text(build_model(3, {"C0"}))
    assert " 1 x_" not in text


def test_write_lp_renders_negative_coefficients():
    model = build_model(4, {"C0", "C4"})
    text = lp_text(model)
    assert "- x_" in text  # the balance row carries minus-one terms


# The term formatting and line wrapping write_lp replaced, kept as the
# reference its bytes are compared with beyond the golden digests.
def _reference_term_tokens(terms, names):
    for position, (value, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        if position == 0 and sign == "+":
            sign = ""
        magnitude = "" if abs(coeff) == 1 else f"{abs(coeff)} "
        body = f"{magnitude}{names[value]}"
        yield f"{sign} {body}" if sign else body


def _reference_wrapped(head, parts):
    line = head
    for part in parts:
        grown = f"{line} {part}"
        if len(grown) > 72:
            yield line
            line = f"  {part}"
        else:
            line = grown
    yield line


def reference_write_lp(model: IlpModel) -> str:
    meta = model.metadata
    generator = str(meta.get("generator", "delcodes"))
    families = ",".join(str(f) for f in meta.get("families", ())) or "-"
    c6 = ";".join(f"{p},{q}" for p, q in meta.get("c6_params", ()) or ())
    names = [variable_name(Word(model.n, v)) for v in range(1 << model.n)]
    lines = [
        f"\\ {generator} model",
        f"\\ n={model.n} families={families}" + (f" c6={c6}" if c6 else ""),
        "Maximize",
    ]
    objective = [(v, 1) for v in range(1 << model.n)]
    lines += _reference_wrapped(
        " obj:", list(_reference_term_tokens(objective, names))
    )
    lines.append("Subject To")
    for row in model.constraints:
        parts = list(_reference_term_tokens(row.terms, names))
        parts.append(f"{row.sense} {row.rhs}")
        lines += _reference_wrapped(f" {row.label}:", parts)
    lines += ["Binary", *_reference_wrapped(f" {names[0]}", names[1:]), "End"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(2, 11))
def test_write_lp_matches_the_reference_writer_on_family_models(n):
    selections = [{"C0", family} for family in FAMILY_IDS] + [FAMILY_IDS]
    for selected in selections:
        model = build_model(n, selected)
        assert lp_text(model) == reference_write_lp(model), sorted(selected)


def random_wide_model(rng: random.Random) -> IlpModel:
    """Mixed signs and magnitudes 1..150, one-term rows, overlong labels."""
    n = rng.randint(1, 5)
    rows = []
    for i in range(rng.randint(1, 6)):
        size = rng.choice((1, 1, rng.randint(2, 1 << n)))
        values = rng.sample(range(1 << n), size)
        terms = tuple(
            (v, rng.choice((-1, 1)) * rng.choice((1, 1, rng.randint(2, 150))))
            for v in values
        )
        if rng.random() < 0.3:
            terms = ((terms[0][0], -abs(terms[0][1])),) + terms[1:]
        label = f"r{i}_" + "w" * rng.choice((0, 5, 70, 80))
        sense = rng.choice(("<=", ">=", "="))
        rhs = rng.randint(-200, 200)
        rows.append(LinearConstraint(terms, sense, rhs, label))
    return IlpModel(n, tuple(rows))


def test_write_lp_matches_the_reference_writer_on_random_int_models():
    rng = random.Random(7300)
    for case in range(400):
        model = random_wide_model(rng)
        text = lp_text(model)
        assert text == reference_write_lp(model), case
        n_read, rows, _ = assert_reads_like_the_reference(text)
        assert (n_read, rows) == (model.n, model.constraints), case


# ------------------------------------------------------------------- read_lp

# The token-walk reader read_lp replaced, kept as the reference its results
# and error messages are compared with. Tokens hold no line break, so the
# $ of _REF_VAR_NAME cannot match early here.
_REF_VAR_NAME = re.compile(r"^x_([01]+)$")
_REF_INTEGER = re.compile(r"[+-]?[0-9]+")
_REF_MAGNITUDE = re.compile(r"[0-9]+")
_REF_SENSES = ("<=", ">=", "=")
_REF_COMMENT = re.compile(r"\\[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def _reference_parse_expression(items, pos, stop, where, values):
    terms = []
    end = len(items)
    while True:
        if pos == end:
            raise ValueError(f"{where} expression ran past end of file")
        tok = items[pos]
        sign = 1
        number = _REF_INTEGER
        if tok == "+" or tok == "-":
            sign = -1 if tok == "-" else 1
            number = _REF_MAGNITUDE
            pos += 1
            if pos == end:
                raise ValueError(f"{where} dangling sign at end of file")
            tok = items[pos]
        elif tok in _REF_SENSES or tok.lower() in stop:
            return terms, pos
        coeff = sign
        value = values.get(tok)
        if value is None and not _REF_VAR_NAME.match(tok):
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
            if not _REF_VAR_NAME.match(tok):
                raise ValueError(f"{where} expected variable name, got {tok!r}")
            value = values[tok] = int(tok[2:], 2)
        pos += 1
        terms.append((value, coeff))


def reference_read_lp(source) -> IlpModel:
    items = _REF_COMMENT.sub("", source.read()).split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos == len(items):
            raise ValueError("unexpected end of LP file")
        pos += 1
        return items[pos - 1]

    values = {}
    if take().lower() != "maximize":
        raise ValueError("LP file must start with Maximize")
    obj_label = take()
    if not obj_label.endswith(":"):
        raise ValueError(f"objective needs a label, got {obj_label!r}")
    objective, pos = _reference_parse_expression(
        items, pos, ("subject",), obj_label, values
    )
    if any(coeff != 1 for _, coeff in objective):
        raise ValueError("objective must have unit coefficients")
    objective_names = set(values)
    if take().lower() != "subject" or take().lower() != "to":
        raise ValueError("expected Subject To after the objective")

    raw_rows = []
    while True:
        if pos == len(items):
            raise ValueError("LP file ended inside Subject To")
        if items[pos].lower() in ("binary", "end"):
            break
        label = take()
        if not label.endswith(":") or len(label) == 1:
            raise ValueError(f"expected a constraint label, got {label!r}")
        terms, pos = _reference_parse_expression(
            items, pos, ("binary", "end"), label, values
        )
        sense = take()
        if sense not in _REF_SENSES:
            raise ValueError(f"{label} expected a sense, got {sense!r}")
        rhs_token = take()
        if not _REF_INTEGER.fullmatch(rhs_token):
            raise ValueError(f"{label} right-hand side {rhs_token!r} is not an integer")
        raw_rows.append((label[:-1], terms, sense, int(rhs_token)))

    if take().lower() != "binary":
        raise ValueError("expected a Binary section")
    binary = []
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
        m = _REF_VAR_NAME.match(name)
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


def read_outcome(read, text: str):
    """The model a reader makes of text, or the message of its ValueError."""
    try:
        model = read(io.StringIO(text))
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (model.n, model.constraints, dict(model.metadata))


def assert_reads_like_the_reference(text: str):
    outcome = read_outcome(read_lp, text)
    assert outcome == read_outcome(reference_read_lp, text), text
    return outcome


def rows_key(model: IlpModel):
    return [
        (row.label, row.terms, row.sense, row.rhs)
        for row in model.constraints
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_lp_round_trip_all_families(n):
    model = build_model(n, {"C0", "C1", "C2", "C3", "C4", "C5", "C6"})
    text = lp_text(model)
    back = read_lp(io.StringIO(text))
    assert back.n == n
    assert rows_key(back) == rows_key(model)
    # writing the reread model reproduces the rows byte-identically
    again = lp_text(back)
    assert again.splitlines()[2:] == text.splitlines()[2:]  # headers differ


def random_model(rng: random.Random) -> IlpModel:
    n = rng.randint(2, 4)
    rows = []
    for i in range(rng.randint(1, 5)):
        values = rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
        terms = tuple(
            (v, rng.choice((-3, -2, -1, 1, 2, 3))) for v in values
        )
        sense = rng.choice(("<=", ">=", "="))
        rows.append(LinearConstraint(terms, sense, rng.randint(-4, 6), f"r{i}"))
    return IlpModel(n, tuple(rows))


def test_lp_round_trip_random_int_models():
    rng = random.Random(7100)
    for case in range(300):
        model = random_model(rng)
        text = lp_text(model)
        back = read_lp(io.StringIO(text))
        assert back.n == model.n, case
        assert rows_key(back) == rows_key(model), case
        assert_reads_like_the_reference(text)


def mutate_lp(rng: random.Random, text: str) -> str:
    """One seeded edit: truncate, replace a character, drop or repeat a token."""
    kind = rng.randrange(4)
    if kind == 0:
        return text[: rng.randrange(len(text))]
    if kind == 1:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("01x_: +-<=>\\\n9aE.") + text[i + 1:]
    pieces = re.split(r"(\s+)", text)
    i = rng.randrange(0, len(pieces), 2)  # even slots hold the tokens
    if kind == 2:
        return "".join(pieces[:i] + pieces[i + 1:])
    return "".join(pieces[:i] + [pieces[i], " "] + pieces[i:])


def test_read_lp_mutations_raise_only_value_error():
    # each mutation reads to the reference reader's model or error message
    rng = random.Random(7200)
    sources = [lp_text(build_model(n, FAMILY_IDS)) for n in (2, 3)]
    sources += [lp_text(random_model(rng)) for _ in range(8)]
    rejected = 0
    for case in range(3000):
        text = mutate_lp(rng, rng.choice(sources))
        try:
            outcome = assert_reads_like_the_reference(text)
        except Exception as exc:  # any other type is a parser bug
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{text}")
        rejected += outcome[0] == "ValueError"
    assert 0 < rejected < 3000


@functools.lru_cache(maxsize=None)
def full_model_text(n: int) -> str:
    return lp_text(build_model(n, FAMILY_IDS))


@pytest.mark.parametrize("n", range(2, 11))
def test_read_lp_matches_the_reference_reader_on_full_models(n):
    n_read, rows, _ = assert_reads_like_the_reference(full_model_text(n))
    assert n_read == n and rows == build_model(n, FAMILY_IDS).constraints


class LinesOnly:
    """A text source that can only be iterated line by line."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __iter__(self):
        return iter(io.StringIO(self.text))

    def read(self, *args):
        raise AssertionError("read_lp called read()")


@pytest.mark.parametrize("n", range(2, 11))
def test_read_lp_reads_full_models_line_by_line(n):
    model = read_lp(LinesOnly(full_model_text(n)))
    assert model.constraints == build_model(n, FAMILY_IDS).constraints


@pytest.mark.parametrize("n", (3, 6))
def test_read_lp_shares_one_unit_term_per_value(n):
    model = read_lp(io.StringIO(full_model_text(n)))
    shared = {}
    for row in model.constraints:
        for term in row.terms:
            if term[1] == 1:
                assert shared.setdefault(term[0], term) is term, row.label
    assert len(shared) == 1 << n


SMALL_LP = (
    "Maximize\n"
    " obj: x_00 + x_01\n"
    "  + x_10 + x_11\n"
    "Subject To\n"
    " r1: 2 x_00 - 3 x_01\n"
    "  + x_10 <= 4\n"
    " r2: x_00 + x_11 >= 1\n"
    " r3: - x_01 = 0\n"
    "Binary\n"
    " x_00 x_01\n"
    " x_10 x_11\n"
    "End\n"
)
# whitespace str.split() splits on besides the space and the newline
OTHER_WHITESPACE = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
LINE_BOUNDARIES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                   "\x85", "\u2028", "\u2029"]


def without_header(text: str) -> str:
    """The LP text from Maximize on, without write_lp's comment lines."""
    return text[text.index("Maximize"):]


def layout_cases():
    """(id, text) pairs in layouts other than write_lp's, good and bad."""
    sources = {"small": SMALL_LP, "n4": without_header(full_model_text(4))}
    for name, text in sources.items():
        yield f"{name}-crlf", text.replace("\n", "\r\n")
        for ws in OTHER_WHITESPACE:
            yield f"{name}-space-{ws!r}", text.replace(" ", ws)
            yield f"{name}-newline-{ws!r}", text.replace("\n", ws)
        for boundary in LINE_BOUNDARIES:
            # a comment that ran past its boundary would swallow a token
            yield (f"{name}-comment-{boundary!r}",
                   text.replace("\n", f" \\ x_00 <= 1{boundary}"))
        yield f"{name}-upper-keywords", text.upper().replace("X_", "x_")
        yield f"{name}-lower-keywords", text.lower()
    edits = {
        "adjacent-signless-terms": ("2 x_00 - 3 x_01", "3 x_00 4 x_01"),
        "adjacent-names": ("x_00 + x_11", "x_00 x_11"),
        "signed-integer": ("2 x_00", "-3 x_00"),
        "plus-integer": ("2 x_00", "+3 x_00"),
        "leading-zeros": ("2 x_00", "007 x_00"),
        "zero-coefficient": ("2 x_00", "- 0 x_00"),
        "signed-after-sign": ("- 3 x_01", "- -3 x_01"),
        "empty-row": ("r2: x_00 + x_11 >= 1", "r2: >= 1"),
        "empty-row-at-end": ("r3: - x_01 = 0", "r3: = 0"),
        "glued-sense": ("x_11 >= 1", "x_11>=1"),
        "sense-after-sign": ("- x_01 = 0", "- = 0"),
        "coefficient-before-sense": ("x_11 >= 1", "x_11 + 2 >= 1"),
        "missing-rhs": ("= 0\nBinary", "=\nBinary"),
        "missing-sense": (" >= 1", " 1"),
        "wider-name-in-row": ("x_00 + x_11 >=", "x_00 + x_110 >="),
        "wider-name-in-objective": ("obj: x_00", "obj: x_000"),
        "wider-name-in-binary": ("x_10 x_11", "x_10 x_11 x_000"),
        "narrower-name-in-row": ("- x_01 =", "- x_0 ="),
        "duplicate-name-in-row": ("x_00 + x_11 >=", "x_00 + x_00 >="),
        "duplicate-label": ("r3:", "r1:"),
        "label-colon-only": ("r2:", ":"),
        "label-double-colon": ("r2:", "r2::"),
        "label-keyword": ("r2:", "Binary:"),
        "objective-coefficient": ("obj: x_00", "obj: 2 x_00"),
        "objective-sign-first": ("obj: x_00", "obj: + x_00"),
        "objective-empty": ("obj: x_00 + x_01\n  + x_10 + x_11", "obj:"),
        "objective-with-sense": ("+ x_11\nSubject", "+ x_11 <= 1\nSubject"),
        "subject-only": ("Subject To", "Subject"),
        "no-rows": (" r1: 2 x_00 - 3 x_01\n  + x_10 <= 4\n r2: x_00 + x_11 >= 1\n"
                    " r3: - x_01 = 0\n", ""),
        "no-binary": ("Binary\n x_00 x_01\n x_10 x_11\n", ""),
        "empty-binary": (" x_00 x_01\n x_10 x_11\n", ""),
        "bad-binary-name": ("x_10 x_11", "x_10 y_11"),
        "duplicate-binary-name": ("x_10 x_11", "x_10 x_10 x_11"),
        "objective-minus": ("+ x_10", "- x_10"),
        "objective-adjacent-names": ("x_00 + x_01", "x_00 x_01"),
        "content-after-end": ("End\n", "End\nEnd\n"),
        "name-after-end": ("End\n", "End\n x_00\n"),
        "end-inside-binary": ("x_10 x_11", "x_10 end x_11"),
        "lowercase-end": ("End\n", "end\n"),
        "end-glued": ("End\n", "Endx\n"),
        "no-end": ("End\n", ""),
        "huge-rhs": (">= 1", ">= " + "9" * 400),
        "huge-coefficient": ("2 x_00", "9" * 400 + " x_00"),
        "overlong-coefficient": ("2 x_00", "9" * 5000 + " x_00"),
        # re.IGNORECASE would take these keywords; str.lower() does not
        "long-s-subject": ("Subject To", "\u017fubject To"),
        "dotted-capital-i-binary": ("Binary", "B\u0130nary"),
        "dotless-i-maximize": ("Maximize", "Max\u0131mize"),
    }
    for name, (old, new) in edits.items():
        assert old in SMALL_LP, name
        yield name, SMALL_LP.replace(old, new, 1)


@pytest.mark.parametrize(
    "text", [pytest.param(text, id=name) for name, text in layout_cases()]
)
def test_read_lp_matches_the_reference_reader_on_other_layouts(text):
    assert_reads_like_the_reference(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("2 x_00", "0 x_00", "r1: zero coefficient on value 0",
                     id="zero-magnitude"),
        pytest.param("- 3 x_01", "- 0 x_01", "r1: zero coefficient on value 1",
                     id="zero-magnitude-after-sign"),
        # equal values with different coefficients: unequal terms
        pytest.param("r3: - x_01", "r3: x_01 - 2 x_01",
                     "r3: duplicate variable value 1",
                     id="value-twice-in-signed-row"),
        pytest.param("x_00 + x_11 >=", "x_11 + x_11 >=",
                     "r2: duplicate variable value 3",
                     id="value-twice-in-unit-row"),
        pytest.param("r3:", "r2:", "duplicate constraint label 'r2'",
                     id="label-twice"),
    ],
)
def test_read_lp_leaves_rows_no_model_holds_to_the_constructors(
    old, new, message
):
    # read_lp builds rows unchecked unless its walk met one of these, so
    # each must still reach the checked constructors that word its error
    text = SMALL_LP.replace(old, new, 1)
    assert assert_reads_like_the_reference(text) == ("ValueError", message)


SMALL_BINARY = "Binary\n x_00 x_01 x_10 x_11\nEnd\n"


def lp_with_rows(rows: str, tail: str = SMALL_BINARY) -> str:
    return (
        "Maximize\n obj: x_00 + x_01\n  + x_10 + x_11\nSubject To\n"
        + rows + tail
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        pytest.param(lp_with_rows(" r1: - x_01 - x_10 <= 0\n"),
                     ((1, -1), (2, -1)), id="minus-name"),
        pytest.param(lp_with_rows(" r1: x_00 + 2 x_01 + 99 x_10 <= 3\n"),
                     ((0, 1), (1, 2), (2, 99)), id="plus-k-name"),
        pytest.param(lp_with_rows(" r1: x_00 + 3 x_000 <= 1\n"),
                     ("ValueError",
                      "constraint references undeclared 'x_000'"),
                     id="plus-k-new-name"),
        pytest.param(lp_with_rows(" r1: x_00 + 3 y_01 <= 1\n"),
                     ("ValueError", "r1: expected variable name, got 'y_01'"),
                     id="plus-k-bad-name"),
        pytest.param(lp_with_rows(" r1: x_00 + 07 x_01 <= 1\n"),
                     ((0, 1), (1, 7)), id="plus-leading-zero"),
        pytest.param(lp_with_rows(" r1: x_00 + 100 x_01 <= 1\n"),
                     ((0, 1), (1, 100)), id="plus-100"),
        pytest.param(lp_with_rows(" r1: x_00 + 1 x_01 <= 1\n"),
                     ((0, 1), (1, 1)), id="plus-1"),
        pytest.param(lp_with_rows(" r1: x_00 + 0 x_01 <= 1\n"),
                     ("ValueError", "r1: zero coefficient on value 1"),
                     id="plus-0"),
        pytest.param(lp_with_rows(" r1: x_00 + 3", tail=""),
                     ("ValueError",
                      "r1: coefficient without a variable at end of file"),
                     id="plus-k-at-end-of-file"),
    ],
)
def test_read_lp_takes_write_lp_term_shapes_like_the_reference(text, expected):
    outcome = assert_reads_like_the_reference(text)
    if outcome[0] == "ValueError":
        assert outcome == expected
    else:
        assert outcome[1][0].terms == expected


def test_read_lp_reads_a_written_unit_coefficient_as_the_shared_pair():
    text = lp_with_rows(" r1: x_00 + 1 x_01 <= 1\n r2: x_01 + x_10 <= 1\n")
    r1, r2 = read_lp(io.StringIO(text)).constraints
    assert r1.terms[1] is r2.terms[0] == (1, 1)


def test_read_lp_accepts_explicit_coefficients_and_wraps():
    text = (
        "Maximize\n"
        " obj: x_00 + x_01\n"
        "  + x_10 + x_11\n"
        "Subject To\n"
        " r1: 2 x_00 - 3 x_01\n"
        "  + x_10 <= 4\n"
        " r2: x_00 + x_11 >= 1\n"
        " r3: x_01 = 0\n"
        "Binary\n"
        " x_00 x_01\n"
        " x_10 x_11\n"
        "End\n"
    )
    model = read_lp(io.StringIO(text))
    assert model.n == 2
    r1 = model.constraints[0]
    assert r1.label == "r1" and r1.sense == "<=" and r1.rhs == 4
    assert r1.terms == ((0b00, 2), (0b01, -3), (0b10, 1))


def test_read_lp_strips_comments():
    model = build_model(2, {"C0"})
    text = "\\ leading comment\n" + lp_text(model) + "\\ trailing\n"
    text = text.replace("Subject To", "Subject To \\ inline comment")
    assert rows_key(read_lp(io.StringIO(text))) == rows_key(model)


@pytest.mark.parametrize(
    "boundary", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                 "\x85", "\u2028", "\u2029"],
)
def test_read_lp_ends_a_comment_at_every_line_boundary(boundary):
    # the first row's label follows the boundary, so a comment that ran
    # past it would swallow the label
    model = build_model(2, {"C0"})
    text = lp_text(model)
    commented = text.replace("Subject To\n", f"Subject To \\ x_00 {boundary}")
    plain = text.replace("Subject To\n", f"Subject To {boundary}")
    assert rows_key(read_lp(io.StringIO(commented))) == rows_key(model)
    assert rows_key(read_lp(io.StringIO(plain))) == rows_key(model)


@pytest.mark.parametrize("boundary", ["\n", "\r", "\u2028"])
@pytest.mark.parametrize(
    "field,metadata",
    [
        ("generator", lambda text: {"generator": f"my{text}tool"}),
        ("families", lambda text: {"families": ("C0", f"C{text}1")}),
    ],
)
def test_write_lp_refuses_a_header_field_with_a_line_break(
    boundary, field, metadata
):
    # the rest of the field would start a line outside the comment, which
    # read_lp would refuse to read
    model = IlpModel(
        3, build_model(3, {"C0"}).constraints, metadata=metadata(boundary)
    )
    sink = io.StringIO()
    with pytest.raises(ValueError, match=field):
        write_lp(model, sink)
    assert sink.getvalue() == ""


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda t: t.replace("Maximize", "Minimize"), "Maximize"),
        (lambda t: t.replace("Subject To", "Such That"), "Such"),
        (lambda t: t.replace("Binary", "General"), "constraint label"),
        (lambda t: t + "junk\n", "after End"),
        (lambda t: t.replace("<= 1", "<= 1.5"), "integer"),
        (lambda t: t.replace(" c0_y0:", " bad row", 1), "label"),
    ],
)
def test_read_lp_rejects_malformed_files(mutate, message):
    text = lp_text(build_model(2, {"C0"}))
    with pytest.raises(ValueError, match=message):
        read_lp(io.StringIO(mutate(text)))


@pytest.mark.parametrize(
    "coeff,rhs,message",
    [
        ("1_0", "1", "r1: expected coefficient or variable, got '1_0'"),
        ("\u0661", "1", "r1: expected coefficient or variable, got '\u0661'"),
        ("2", "1_0", "r1: right-hand side '1_0' is not an integer"),
        ("2", "\u0661", "r1: right-hand side '\u0661' is not an integer"),
    ],
)
def test_read_lp_rejects_numerals_int_would_take(coeff, rhs, message):
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1
    text = (
        "Maximize\n obj: x_0 + x_1\nSubject To\n"
        f" r1: {coeff} x_0 + x_1 <= {rhs}\n"
        "Binary\n x_0 x_1\nEnd\n"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        read_lp(io.StringIO(text))


@pytest.mark.parametrize(
    "expression,token",
    [
        ("- -3 x_0 + x_1", "-3"),
        ("x_0 + +2 x_1", "+2"),
        ("- +1 x_0 + x_1", "+1"),
    ],
)
def test_read_lp_rejects_a_signed_coefficient_after_a_sign(expression, token):
    # a sign token leaves a bare magnitude, else "- -3 x_0" reads as +3 x_0
    text = (
        "Maximize\n obj: x_0 + x_1\nSubject To\n"
        f" r1: {expression} <= 1\n"
        "Binary\n x_0 x_1\nEnd\n"
    )
    message = f"r1: expected coefficient or variable, got '{token}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_lp(io.StringIO(text))


def test_read_lp_accepts_a_leading_signed_coefficient():
    text = (
        "Maximize\n obj: x_0 + x_1\nSubject To\n"
        " r1: -3 x_0 + 2 x_1 <= 1\n"
        " r2: +2 x_0 - x_1 >= -1\n"
        "Binary\n x_0 x_1\nEnd\n"
    )
    r1, r2 = read_lp(io.StringIO(text)).constraints
    assert r1.terms == ((0, -3), (1, 2))
    assert r2.terms == ((0, 2), (1, -1)) and r2.rhs == -1


def test_read_lp_rejects_undeclared_variable_in_row():
    text = lp_text(build_model(2, {"C0"}))
    text = text.replace("c0_y0: x_00", "c0_y0: x_000")
    with pytest.raises(ValueError):
        read_lp(io.StringIO(text))


def test_read_lp_rejects_incomplete_binary_section():
    text = lp_text(build_model(2, {"C0"})).replace("Binary\n x_00", "Binary\n", 1)
    with pytest.raises(ValueError, match="expected all"):
        read_lp(io.StringIO(text))


def test_read_lp_rejects_nonunit_objective():
    text = lp_text(build_model(2, {"C0"})).replace("obj: x_00", "obj: 2 x_00")
    with pytest.raises(ValueError, match="unit"):
        read_lp(io.StringIO(text))


# ------------------------------------------------------------- read_solution


def test_read_solution_parses_comments_defaults_and_rounds():
    model = build_model(2, {"C0"})
    text = (
        "# a comment line\n"
        "\n"
        "x_00 1\n"
        "x_01 0.7  # inline comment\n"
        "x_10 0.2\n"
    )
    sol = read_solution(io.StringIO(text), model)
    assert sol.n == 2 and sol.selection == 0b0011
    assert sol.assignment == {"x_00": 1, "x_01": 1, "x_10": 0, "x_11": 0}
    assert sol.objective == 2
    assert sol.source == "imported" and sol.solver_status == "unknown"


def test_write_solution_round_trips_in_the_cli_format():
    sol = Solution(2, 0b1001, "built-in", "optimal")
    buf = io.StringIO()
    write_solution(sol, buf)
    assert buf.getvalue() == (
        "# delcodes solution objective=2 status=optimal\n"
        "x_00 1\nx_01 0\nx_10 0\nx_11 1\n"
    )
    back = read_solution(io.StringIO(buf.getvalue()), build_model(2, {"C0"}))
    assert back.selection == sol.selection
    model = build_model(7, {"C0"})
    sol = solve_builtin(model)
    buf = io.StringIO()
    write_solution(sol, buf)
    back = read_solution(io.StringIO(buf.getvalue()), model, strict=True)
    assert back.selection == sol.selection and sol.objective == 16


def test_read_solution_strict_rejects_fractional_values():
    model = build_model(2, {"C0"})
    with pytest.raises(ValueError, match="1e-6"):
        read_solution(io.StringIO("x_00 0.7\n"), model, strict=True)
    # within tolerance is fine
    sol = read_solution(io.StringIO("x_00 0.9999999\n"), model, strict=True)
    assert sol.assignment["x_00"] == 1


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("value", ["nan", "NaN"])
def test_read_solution_rejects_nan(value, strict):
    # NaN fails every comparison, so rounding and the strict test miss it
    model = build_model(2, {"C0"})
    text = f"x_00 1\nx_01 {value}\n"
    with pytest.raises(ValueError, match=f"line 2: x_01 = {value} is NaN"):
        read_solution(io.StringIO(text), model, strict=strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("value", ["1_0", "\u0661", "infinity", "inf"])
def test_read_solution_rejects_numerals_float_would_take(value, strict):
    # float() takes all of these; a solution value must be an ASCII numeral
    model = build_model(2, {"C0"})
    text = f"x_00 1\nx_01 {value}\n"
    message = f"line 2: non-numeric value '{value}'"
    with pytest.raises(ValueError, match=message):
        read_solution(io.StringIO(text), model, strict=strict)


def mutate_solution(rng: random.Random, text: str) -> str:
    """One seeded edit: truncate, replace a character, drop a token, or
    repeat a line.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return text[: rng.randrange(len(text))]
    if kind == 1:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("01x_# .+-eE\n9naif\u0661") + text[i + 1:]
    if kind == 2:
        pieces = re.split(r"(\s+)", text)
        i = rng.randrange(0, len(pieces), 2)  # even slots hold the tokens
        return "".join(pieces[:i] + pieces[i + 1:])
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return "".join(lines[: i + 1] + lines[i:])


def test_read_solution_mutations_raise_only_value_error():
    rng = random.Random(7300)
    model = build_model(3, {"C0"})
    sol = vt_solution(model)
    plain = "".join(
        f"{name} {sol.assignment[name]}\n" for name in model.variable_names
    )
    commented = "# header\n" + plain.replace(" 0\n", " 0.0  # zero\n", 3)
    sources = [plain, commented]
    rejected = 0
    for case in range(3000):
        text = mutate_solution(rng, rng.choice(sources))
        try:
            read_solution(io.StringIO(text), model, strict=rng.random() < 0.5)
        except ValueError:
            rejected += 1
        except Exception as exc:  # any other type is a reader bug
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{text}")
    assert 0 < rejected < 3000


@pytest.mark.parametrize(
    "text,message",
    [
        ("x_00\n", "name value"),
        ("x_00 1 extra\n", "name value"),
        ("x_99 1\n", "unknown variable"),
        ("x_00 one\n", "non-numeric"),
        ("x_00 1\nx_00 0\n", "duplicate"),
    ],
)
def test_read_solution_rejects_malformed_lines(text, message):
    model = build_model(2, {"C0"})
    with pytest.raises(ValueError, match=message):
        read_solution(io.StringIO(text), model)


# -------------------------------------------------------------- verification


def test_verify_accepts_vt_solution():
    model = build_model(5, {"C0", "C1"})
    report = verify_solution(model, vt_solution(model))
    assert report.ok and bool(report)
    assert report.objective == 6
    assert report.violated == ()
    assert "PASS" in report.render()
    assert "valid single-deletion code" in report.render()


def test_verify_flags_packing_violation_and_invalid_code():
    model = build_model(5, {"C0"})
    values = set(vt_code(5, 0).values) | {0b10000}  # conflicts with 00000
    sol = Solution(5, selection_of(values), "imported", "unknown")
    report = verify_solution(model, sol)
    assert not report.ok
    assert "c0_y0000" in report.violated
    assert not report.code_result.ok
    rendered = report.render()
    assert "FAIL" in rendered and "INVALID" in rendered
    assert "share deleted word" in rendered


def test_verify_flags_lower_bound_shortfall():
    model = build_model(5, {"C0", "C1"})
    report = verify_solution(
        model, Solution(5, 1 << 0b00000, "imported", "unknown")
    )
    assert not report.ok
    assert report.violated == ("c1",)
    assert report.code_result.ok  # a single word is still a valid code


def test_verify_flags_foreign_variables():
    # a solution over length-3 words selects none of the length-2 model's
    model = build_model(2, {"C0"})
    report = verify_solution(
        model, Solution(3, 1 << 0b000, "imported", "unknown")
    )
    assert not report.ok
    assert report.foreign_names == ("x_000",)
    assert len(report.words) == 0
    assert "foreign variables: x_000" in report.render().splitlines()


def test_verify_names_foreign_variables_without_every_name():
    # two words of length 20: naming only the set bits, not all 2^20
    # variables of the solution's assignment, keeps the check small
    model = build_model(3, {"C0"})
    solution = Solution(20, 1 | 1 << (1 << 20) - 1, "imported", "unknown")
    tracemalloc.start()
    try:
        report = verify_solution(model, solution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.foreign_names == ("x_" + "0" * 20, "x_" + "1" * 20)
    assert not report.ok
    assert peak < 16 << 20, peak


def test_verify_flags_the_rows_a_bitwise_replay_flags():
    # every row reads one bit string of the selection; row_holds shifts
    # the selection once per term
    model = build_model(6, FAMILY_IDS)
    rng = random.Random(7300)
    for _ in range(40):
        selection = rng.getrandbits(64) & rng.getrandbits(64)
        report = verify_solution(
            model, Solution(6, selection, "imported", "unknown")
        )
        assert report.violated == tuple(
            row.label for row in model.constraints
            if not row_holds(row, selection)
        )


def test_verify_passes_one_selected_word_of_length_one():
    # a single word is a code at any length, length 1 included
    model = IlpModel(1, ())
    report = verify_solution(model, Solution(1, 0b10, "imported", "unknown"))
    assert report.ok
    assert report.code_result.ok
    assert [str(w) for w in report.words] == ["1"]


def test_verify_empty_selection_passes_packing_only_model():
    model = build_model(3, {"C0"})
    report = verify_solution(model, Solution(3, 0, "imported", "unknown"))
    assert report.ok


# ------------------------------------------------------------------- solving


def test_solve_packing_only_length_five():
    model = build_model(5, {"C0"})
    sol = solve_builtin(model)
    assert sol.objective == 6
    assert sol.solver_status == "optimal" and sol.source == "built-in"
    assert verify_solution(model, sol).ok


def test_solve_constants_with_dominance_leaves_two_words():
    model = build_model(3, {"C0", "C2", "C3"})
    sol = solve_builtin(model)
    assert sol.objective == 2
    assert [str(w) for w in model.selected_words(sol)] == ["000", "111"]


def test_solve_length_eight_with_lower_bound_and_constants():
    model = build_model(8, {"C0", "C1", "C3"})
    sol = solve_builtin(model)
    assert sol.objective == 30
    assert sol.solver_status == "optimal"
    assert verify_solution(model, sol).ok


@pytest.mark.parametrize("n", range(2, 8))
def test_solver_agrees_with_graph_search(n):
    model = build_model(n, {"C0"})
    sol = solve_builtin(model)
    search = max_sdecc_exact(n)
    assert sol.objective == search.size
    assert sol.solver_status == "optimal"
    assert search.proof_status == "optimal"


def test_every_length_seven_family_model_closes_at_the_root():
    # a search that needed a second node would stop at this budget with
    # status feasible
    optional = FAMILY_IDS[1:]
    for k in range(len(optional) + 1):
        for combo in itertools.combinations(optional, k):
            model = build_model(7, {"C0", *combo})
            sol = solve_builtin(model, SearchOptions(node_limit=1))
            assert (sol.objective, sol.solver_status) == (16, "optimal"), combo


def test_solve_respects_node_budget():
    model = build_model(9, {"C0"})
    sol = solve_builtin(model, SearchOptions(node_limit=10))
    assert sol.solver_status == "feasible"
    assert sol.objective >= 52  # the warm start already finds a strong code
    assert verify_solution(model, sol).ok


def test_solve_unknown_status_when_budget_blocks_everything():
    # M(5) = 6, so no code reaches 7; a >= 20 row would be refuted at the
    # root, where dominance leaves too few candidates, before any budget
    rows = list(build_model(5, {"C0"}).constraints)
    rows.append(
        LinearConstraint(
            tuple((v, 1) for v in range(32)), ">=", 7, "impossible"
        )
    )
    model = IlpModel(5, tuple(rows))
    sol = solve_builtin(model, SearchOptions(node_limit=1))
    assert sol.solver_status == "unknown"
    assert sol.objective == 0
    assert all(v == 0 for v in sol.assignment.values())
    with pytest.raises(InfeasibleModelError):
        solve_builtin(model)


def test_solve_raises_on_proven_infeasible_model():
    rows = list(build_model(5, {"C0"}).constraints)
    rows.append(
        LinearConstraint(
            tuple((v, 1) for v in range(32)), ">=", 20, "impossible"
        )
    )
    model = IlpModel(5, tuple(rows))
    with pytest.raises(InfeasibleModelError):
        solve_builtin(model)


def test_solve_raises_on_conflicting_fixed_words():
    rows = list(build_model(5, {"C0"}).constraints)
    rows.append(LinearConstraint(((0b00000, 1),), "=", 1, "f0"))
    rows.append(LinearConstraint(((0b10000, 1),), "=", 1, "f1"))
    with pytest.raises(InfeasibleModelError):
        solve_builtin(IlpModel(5, tuple(rows)))


def test_conflicting_fixes_are_named_from_the_last_fix_in_row_order():
    # 10000, 00000 and 00001 pairwise share a deleted word; the walk starts
    # at the last fix, 00001, and names its lowest fixed neighbour
    rows = list(build_model(5, {"C0"}).constraints)
    for i, word in enumerate(("10000", "00000", "00001")):
        rows.append(LinearConstraint(((int(word, 2), 1),), "=", 1, f"f{i}"))
    with pytest.raises(
        InfeasibleModelError, match="fixed selections 00001 and 00000 conflict"
    ):
        solve_builtin(IlpModel(5, tuple(rows)))


@pytest.mark.parametrize("n", (4, 7))
def test_generic_rows_share_one_pair_per_coefficient(n):
    _, _, _, generic, var_rows = ilp_module._classify_rows(
        build_model(n, FAMILY_IDS)
    )
    shared = {}
    for pairs in var_rows:
        for pair in pairs:
            assert shared.setdefault(pair, pair) is pair
    assert {ri for ri, _ in shared} == set(range(len(generic)))


def test_generic_rows_reach_the_kernel_as_sums_at_most_rhs():
    # <= as stated, >= negated, = as both (the <= half first); the take
    # test reads every half alike
    rows = (
        LinearConstraint(((0, 2), (1, -1)), "<=", 3, "le"),
        LinearConstraint(((1, 1), (2, 3)), ">=", 1, "ge"),
        LinearConstraint(((0, 1), (3, -2)), "=", 1, "eq"),
    )
    _, packing, fixes, generic, var_rows = ilp_module._classify_rows(
        IlpModel(2, rows)
    )
    assert (packing, fixes) == ([], {})
    assert generic == [3, -1, 1, -1]
    assert var_rows == [
        [(0, 2), (2, 1), (3, -1)],
        [(0, -1), (1, -1)],
        [(1, -3)],
        [(2, -2), (3, 2)],
    ]


def test_solve_requires_packing_rows():
    with pytest.raises(ValueError, match="every variable must appear"):
        solve_builtin(IlpModel(3, ()))


def test_solve_requires_every_variable_in_a_packing_row():
    # words 10 and 11 are in no packing row
    pair = LinearConstraint(((0b00, 1), (0b01, 1)), "<=", 1, "pair")
    with pytest.raises(ValueError, match="every variable must appear"):
        solve_builtin(IlpModel(2, (pair,)))


def test_solve_rejects_wrong_length_incumbent():
    model = build_model(5, {"C0"})
    with pytest.raises(ValueError):
        solve_builtin(
            model, SearchOptions(incumbent=WordSet(4, [0]))
        )


def test_solve_accepts_warm_start():
    model = build_model(6, {"C0"})
    sol = solve_builtin(
        model, SearchOptions(incumbent=vt_code(6, 0))
    )
    assert sol.objective == 10 and sol.solver_status == "optimal"


def test_solve_is_deterministic():
    model = build_model(6, {"C0", "C2", "C4"})
    a = solve_builtin(model)
    b = solve_builtin(model)
    assert a == b


def test_solve_round_trips_through_lp_text():
    model = build_model(5, {"C0", "C3"})
    back = read_lp(io.StringIO(lp_text(model)))
    assert solve_builtin(back).objective == solve_builtin(model).objective


@pytest.mark.parametrize("n", range(2, 7))
def test_solved_codes_are_valid_sdeccs(n):
    model = build_model(n, {"C0"})
    sol = solve_builtin(model)
    assert is_sdecc(model.selected_words(sol))


def test_time_limit_holds_on_the_full_length_twelve_model():
    model = build_model(12, {"C0", "C1", "C2", "C3", "C4", "C5", "C6"})
    start = time.perf_counter()
    sol = solve_builtin(model, SearchOptions(time_limit=1.0))
    elapsed = time.perf_counter() - start
    assert sol.solver_status == "feasible"
    assert verify_solution(model, sol).ok
    assert elapsed < 1.5, f"a 1.0 s limit took {elapsed:.2f}s"


@pytest.mark.parametrize("n,known", [(9, 52), (10, 94), (11, 172)])
def test_full_model_keeps_the_known_optimum_past_length_eight(n, known):
    # criterion 6 proves family subsets sound only through n=8; M(n) is
    # known here, so reaching it under all of C0..C6 shows no family cuts
    # the optimum at these lengths either
    model = build_model(n, FAMILY_IDS)
    sol = solve_builtin(model, SearchOptions(node_limit=1))
    assert sol.objective == known
    assert sol.solver_status == "feasible"
    assert verify_solution(model, sol).ok


def independent_sets(n: int) -> list[int]:
    """Every independent set of the conflict graph, as a mask of values."""
    adjacency = conflict_graph(n).adjacency
    conflicts = [sum(1 << u for u in adjacency[v]) for v in range(1 << n)]
    found: list[int] = []

    def grow(chosen: int, cand: int) -> None:
        if not cand:
            found.append(chosen)
            return
        v = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << v)
        grow(chosen, rest)
        grow(chosen | 1 << v, rest & ~conflicts[v])

    grow(0, (1 << (1 << n)) - 1)
    return found


def row_holds(row: LinearConstraint, selection: int) -> bool:
    lhs = sum(c for v, c in row.terms if selection >> v & 1)
    if row.sense == "<=":
        return lhs <= row.rhs
    if row.sense == ">=":
        return lhs >= row.rhs
    return lhs == row.rhs


def random_row(rng: random.Random, n: int, label: str) -> LinearConstraint:
    values = list(range(1 << n))
    if rng.random() < 0.25:  # a single-term equality, i.e. a fix
        value = rng.choice(values)
        coeff = rng.choice((-2, -1, 1, 2))
        rhs = rng.randint(-2, 2)
        return LinearConstraint(((value, coeff),), "=", rhs, label)
    terms = tuple(
        (v, rng.choice((-2, -1, 1, 2)))
        for v in rng.sample(values, rng.randint(1, 6))
    )
    sense = rng.choice(("<=", ">=", "="))
    return LinearConstraint(terms, sense, rng.randint(-2, 4), label)


@pytest.mark.parametrize("n", (4, 5))
def test_ge_row_keeps_a_dominated_word_selectable(n):
    # the root drops dominated words only when the swap keeps every
    # generic row; a >= row asking for one of them must block its drop
    sets = independent_sets(n)
    base = build_model(n, {"C0"}).constraints
    for word in sorted(dominated_words(n)):
        row = LinearConstraint(((word.value, 1),), ">=", 1, "force")
        model = IlpModel(n, base + (row,))
        sol = solve_builtin(model)
        assert sol.objective == max(
            s.bit_count() for s in sets if s >> word.value & 1
        ), word
        assert sol.solver_status == "optimal"
        assert word in model.selected_words(sol)
        assert verify_solution(model, sol).ok


@pytest.mark.parametrize("n", (3, 4, 5))
def test_solver_matches_enumeration_under_extra_rows(n):
    # extra rows exercise the generic-row paths of the search: pruning by
    # reachability, gating incumbents, and refusing to take a variable
    sets = independent_sets(n)
    base = build_model(n, {"C0"}).constraints
    rng = random.Random(4000 + n)
    infeasible = 0
    for case in range(150):
        extra = tuple(
            random_row(rng, n, f"r{case}_{i}")
            for i in range(rng.randint(1, 3))
        )
        model = IlpModel(n, base + extra)
        sizes = [
            s.bit_count()
            for s in sets
            if all(row_holds(row, s) for row in extra)
        ]
        if not sizes:
            infeasible += 1
            with pytest.raises(InfeasibleModelError):
                solve_builtin(model)
            continue
        sol = solve_builtin(model)
        assert sol.objective == max(sizes), (case, extra)
        assert sol.solver_status == "optimal"
        assert verify_solution(model, sol).ok
    assert 0 < infeasible < 150


def test_a_dive_may_take_more_words_than_the_recursion_limit():
    # 1,024 pair rows x_2i + x_2i+1 <= 1 at n = 11, plus a row asking for
    # the last pair's 11111111110 and the first pair's 00000000001: the
    # optimum takes one word from every pair, and the dive that finds it
    # takes all 1,024 on one path
    n = 11
    rows = tuple(
        LinearConstraint(((2 * i, 1), (2 * i + 1, 1)), "<=", 1, f"p{i}")
        for i in range(1 << (n - 1))
    ) + (LinearConstraint(((0b11111111110, 1), (1, 1)), ">=", 2, "both"),)
    model = IlpModel(n, rows)
    assert sys.getrecursionlimit() < 1024
    sol = solve_builtin(model)
    assert (sol.objective, sol.solver_status) == (1024, "optimal")
    report = verify_solution(model, sol)
    # every row holds; no 1,024 words of length 11 form a deletion code,
    # and the pair rows do not ask for one
    assert (report.checked, report.violated) == (1025, ())


@pytest.mark.parametrize("n, size, nodes", [(6, 10, 165), (7, 16, 63841)])
def test_generic_rows_cut_the_same_nodes(monkeypatch, n, size, nodes):
    # with no LP-weighted cover, the C4 row (negated into sum <= rhs), the
    # C5 rows and the C6 rows decide, through cur and neg, which takes
    # fit and which nodes stay reachable; solve_builtin hides the kernel's
    # node count, so it is read from the kernel's return
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    monkeypatch.setattr(coverlp, "_MAX_PIVOTS", 0)
    counts = []
    kernel = ilp_module._branch_and_bound

    def counted(*args, **kwargs):
        result = kernel(*args, **kwargs)
        counts.append(result[1])
        return result

    monkeypatch.setattr(ilp_module, "_branch_and_bound", counted)
    model = build_model(n, {"C0", "C4", "C5", "C6"})
    sol = solve_builtin(model)
    assert (sol.objective, sol.solver_status) == (size, "optimal")
    assert counts == [nodes]
    assert verify_solution(model, sol).ok


def test_full_length_twelve_selection_is_pinned():
    # which warm-start seed wins, and what 20 nodes add to it, decide this
    # selection; its digest pins both
    model = build_model(12, FAMILY_IDS)
    sol = solve_builtin(model, SearchOptions(node_limit=20))
    values = model.selected_words(sol).values
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
    assert (sol.objective, sol.solver_status) == (316, "feasible")
    assert digest == (
        "531eddc460c67386501feb0d0313188d867e255016077256903cb03554fbf575"
    )


@pytest.mark.parametrize("n,pairs", [(4, None), (5, 80)])
def test_warm_start_seeds_that_miss_a_ge_row_are_refused(n, pairs):
    # with no node to search, the answer is the best seed that meets every
    # row, or status unknown when every seed misses the pair row
    sets = independent_sets(n)
    base = build_model(n, {"C0"}).constraints
    candidates = list(itertools.combinations(range(1 << n), 2))
    if pairs is not None:
        candidates = random.Random(6000 + n).sample(candidates, pairs)
    missed = 0
    for x, y in candidates:
        row = LinearConstraint(((x, 1), (y, 1)), ">=", 2, "pair")
        model = IlpModel(n, base + (row,))
        warm = solve_builtin(model, SearchOptions(node_limit=0))
        if warm.solver_status == "unknown":
            missed += 1
        else:
            assert warm.solver_status == "feasible"
            assert verify_solution(model, warm).ok, (x, y)
        sizes = [s.bit_count() for s in sets if row_holds(row, s)]
        if not sizes:
            with pytest.raises(InfeasibleModelError):
                solve_builtin(model)
            continue
        sol = solve_builtin(model)
        assert sol.objective == max(sizes), (x, y)
        assert sol.solver_status == "optimal"
        assert verify_solution(model, sol).ok
    assert missed > 0


@pytest.mark.parametrize("n", (4, 5))
def test_warm_start_repairs_an_incumbent_that_breaks_a_le_row(n):
    incumbent = vt_code(n, 0)
    row = LinearConstraint(
        tuple((v, 1) for v in incumbent.values), "<=", 2, "few"
    )
    model = IlpModel(n, build_model(n, {"C0"}).constraints + (row,))
    assert not row_holds(row, sum(1 << v for v in incumbent.values))
    warm = solve_builtin(model, SearchOptions(node_limit=0, incumbent=incumbent))
    assert warm.solver_status == "feasible"
    assert verify_solution(model, warm).ok
    sol = solve_builtin(model, SearchOptions(incumbent=incumbent))
    assert sol.objective == max(
        s.bit_count() for s in independent_sets(n) if row_holds(row, s)
    )
    assert sol.solver_status == "optimal"
    assert verify_solution(model, sol).ok


def test_fixes_that_alone_break_a_le_row_are_infeasible():
    # C3 fixes both constant words to 1, which puts this row at 3 > 2
    row = LinearConstraint(((0b00000, 2), (0b11111, 1)), "<=", 2, "over")
    model = IlpModel(5, build_model(5, {"C0", "C3"}).constraints + (row,))
    with pytest.raises(InfeasibleModelError):
        solve_builtin(model)
