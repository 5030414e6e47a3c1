"""LP exchange, solution import, verification, and the built-in solver."""

import hashlib
import io
import itertools
import random
import re
import time

import pytest

from delcodes.bitseq import Word, WordSet
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


def test_selected_words_reads_ones():
    model = build_model(3, {"C0"})
    sol = vt_solution(model)
    words = model.selected_words(sol)
    assert isinstance(words, WordSet)
    assert words.values == vt_code(3, 0).values


# ------------------------------------------------------------------ write_lp


def test_write_lp_returns_exact_byte_count():
    model = build_model(4, {"C0", "C1"})
    buf = io.StringIO()
    nbytes = write_lp(model, buf)
    assert nbytes == len(buf.getvalue().encode("utf-8"))


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


# ------------------------------------------------------------------- read_lp


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
        back = read_lp(io.StringIO(lp_text(model)))
        assert back.n == model.n, case
        assert rows_key(back) == rows_key(model), case


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
    rng = random.Random(7200)
    sources = [lp_text(build_model(n, FAMILY_IDS)) for n in (2, 3)]
    sources += [lp_text(random_model(rng)) for _ in range(8)]
    rejected = 0
    for case in range(3000):
        text = mutate_lp(rng, rng.choice(sources))
        try:
            read_lp(io.StringIO(text))
        except ValueError:
            rejected += 1
        except Exception as exc:  # any other type is a parser bug
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{text}")
    assert 0 < rejected < 3000


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


def test_solve_respects_node_budget():
    model = build_model(7, {"C0"})
    sol = solve_builtin(model, SearchOptions(node_limit=10))
    assert sol.solver_status == "feasible"
    assert sol.objective >= 14  # the warm start already finds a strong code
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


def test_solve_requires_packing_rows():
    with pytest.raises(ValueError):
        solve_builtin(IlpModel(3, ()))


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


@pytest.mark.parametrize("n", (3, 4))
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
