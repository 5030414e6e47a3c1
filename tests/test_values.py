"""The package's value types: construction, checks, immutability, equality.

Each type is built positionally and by keyword, its defaults are read
back, every check is tripped with its message, assignment is refused,
and equality, ordering and hashing are pinned where they exist.
"""

import math

import pytest

from delcodes.bitseq import Word, WordSet
from delcodes.constraints import ConstraintFamily, RunClass
from delcodes.ilp import (
    IlpModel,
    LinearConstraint,
    Solution,
    VerifyReport,
)
from delcodes.sdecc import (
    BoundsRecord,
    SdeccResult,
    SearchOptions,
    SearchResult,
    bounds,
)


def _refuses_assignment(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)


# ----------------------------------------------------------------------- Word


def test_word_construction_and_fields():
    assert Word(3, 5) == Word(n=3, value=5)
    w = Word(3, 5)
    assert (w.n, w.value) == (3, 5)
    assert str(w) == "101"
    assert repr(w) == "Word.parse('101')"


@pytest.mark.parametrize("args, message", [
    ((0, 0), "word length must be in 1..24, got 0"),
    ((25, 0), "word length must be in 1..24, got 25"),
    ((True, 0), "word length must be an int, got True"),
    ((2.0, 0), "word length must be an int, got 2.0"),
    ((3, 8), "value 8 does not fit in 3 bits"),
    ((3, -1), "value -1 does not fit in 3 bits"),
    ((3, 2.0), "word value must be an int, got 2.0"),
    ((3, True), "word value must be an int, got True"),
    ((3, "1"), "word value must be an int, got '1'"),
])
def test_word_checks(args, message):
    with pytest.raises(ValueError) as info:
        Word(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["", "012", " 01", "01 ", "1\n", "x", "１"])
def test_word_parse_refuses_anything_but_binary_digits(text):
    with pytest.raises(ValueError) as info:
        Word.parse(text)
    assert str(info.value) == f"not a binary word: {text!r}"


def test_word_is_immutable_and_slotted():
    w = Word(3, 5)
    _refuses_assignment(w, "n")
    _refuses_assignment(w, "value")
    assert not hasattr(w, "__dict__")


def test_word_equality_order_and_hash():
    assert Word(3, 5) == Word(3, 5)
    assert Word(3, 5) != Word(4, 5)
    assert Word(3, 5) != (3, 5)
    assert (3, 5) != Word(3, 5)
    assert Word(3, 5) != 5
    words = [Word(3, 5), Word(2, 3), Word(3, 1), Word(2, 0)]
    assert sorted(words) == [Word(2, 0), Word(2, 3), Word(3, 1), Word(3, 5)]
    assert Word(2, 3) < Word(3, 0) <= Word(3, 0) < Word(3, 1)
    assert Word(3, 1) > Word(2, 3) and Word(3, 1) >= Word(3, 1)
    assert hash(Word(3, 5)) == hash(Word(3, 5))
    assert len({Word(3, 5), Word(3, 5), Word(4, 5)}) == 2
    with pytest.raises(TypeError):
        Word(3, 5) < (3, 6)


# -------------------------------------------------------------------- WordSet


def test_word_set_is_immutable_and_slotted():
    code = WordSet(3, [7, 0])
    # deleting a slot would leave a set that no longer works
    for name in ("n", "values", "_sorted", "_members"):
        _refuses_assignment(code, name)
    assert (code.n, code.values, code.members) == (3, (0, 7), {0, 7})
    assert not hasattr(code, "__dict__")
    assert code == WordSet(n=3, values=(0, 7))
    assert code != WordSet(4, [0, 7])
    assert code != (3, (0, 7))
    assert hash(code) == hash((3, (0, 7)))
    assert code.__reduce__() == (WordSet, (3, (0, 7)))


# ---------------------------------------------------------- LinearConstraint


def test_linear_constraint_construction():
    row = LinearConstraint(((1, 1), (2, -3)), "<=", 4, "r")
    assert row == LinearConstraint(
        terms=((1, 1), (2, -3)), sense="<=", rhs=4, label="r"
    )
    assert (row.terms, row.sense, row.rhs, row.label) == (
        ((1, 1), (2, -3)), "<=", 4, "r"
    )
    assert row != LinearConstraint(((1, 1), (2, -3)), "<=", 4, "s")
    assert row != (((1, 1), (2, -3)), "<=", 4, "r")
    assert hash(row) == hash(LinearConstraint(((1, 1), (2, -3)), "<=", 4, "r"))
    assert repr(row) == (
        "LinearConstraint(terms=((1, 1), (2, -3)), sense='<=', rhs=4, label='r')"
    )
    _refuses_assignment(row, "rhs")


@pytest.mark.parametrize("args, message", [
    (((), "<", 1, "r"), "sense must be one of ('<=', '>=', '='), got '<'"),
    (((), "<=", 1, ""), "constraint label must be nonempty"),
    (((), "<=", 1, "a b"), "constraint label 'a b' holds whitespace or a backslash"),
    (((), "<=", 1, "a\\b"), "constraint label 'a\\\\b' holds whitespace or a backslash"),
    ((((3, 0),), "<=", 1, "r"), "r: zero coefficient on value 3"),
    ((((3, 1), (3, 2)), "<=", 1, "r"), "r: duplicate variable value 3"),
    (((), "<=", 1.5, "r"), "r: right-hand side 1.5 is not an int"),
    (((), "<=", True, "r"), "r: right-hand side True is not an int"),
    ((((3, 0.5),), "<=", 1, "r"), "r: coefficient 0.5 is not an int"),
    ((((3, True),), "<=", 1, "r"), "r: coefficient True is not an int"),
])
def test_linear_constraint_checks(args, message):
    with pytest.raises(ValueError) as info:
        LinearConstraint(*args)
    assert str(info.value) == message


# ------------------------------------------------------------------ IlpModel


def test_ilp_model_construction_and_fresh_metadata():
    row = LinearConstraint(((0, 1), (7, 1)), "<=", 1, "r")
    model = IlpModel(3, (row,))
    assert model == IlpModel(n=3, constraints=(row,))
    assert model.metadata == {}
    other = IlpModel(3, (row,))
    assert model.metadata is not other.metadata
    tagged = IlpModel(3, (row,), {"generator": "t"})
    assert tagged.metadata == {"generator": "t"}
    assert tagged != model
    assert model != IlpModel(4, (row,))
    assert repr(model) == (
        "IlpModel(n=3, constraints=(LinearConstraint(terms=((0, 1), (7, 1)), "
        "sense='<=', rhs=1, label='r'),), metadata={})"
    )
    _refuses_assignment(model, "n")
    _refuses_assignment(model, "constraints")


def test_ilp_model_cached_variable_names():
    model = IlpModel(2, ())
    names = model.variable_names
    assert names == ("x_00", "x_01", "x_10", "x_11")
    assert model.variable_names is names
    assert model == IlpModel(2, ())  # the cache takes no part in equality


@pytest.mark.parametrize("args, message", [
    ((0, ()), "model length must lie in 1..24, got 0"),
    ((25, ()), "model length must lie in 1..24, got 25"),
    ((3, (LinearConstraint(((1, 1),), "<=", 1, "r"),
          LinearConstraint(((2, 1),), "<=", 1, "r"))),
     "duplicate constraint label 'r'"),
    ((3, (LinearConstraint(((8, 1),), "<=", 1, "r"),)),
     "r: value 8 is not in 0..2^3-1"),
])
def test_ilp_model_checks(args, message):
    with pytest.raises(ValueError) as info:
        IlpModel(*args)
    assert str(info.value) == message


# ------------------------------------------------------------------ Solution


def test_solution_construction_and_cached_assignment():
    sol = Solution(2, 0b1001, "built-in", "optimal")
    assert sol == Solution(
        n=2, selection=0b1001, source="built-in", solver_status="optimal"
    )
    assert sol.objective == 2
    assignment = sol.assignment
    assert dict(assignment) == {"x_00": 1, "x_01": 0, "x_10": 0, "x_11": 1}
    assert sol.assignment is assignment
    with pytest.raises(TypeError):
        assignment["x_00"] = 0
    assert sol == Solution(2, 0b1001, "built-in", "optimal")
    assert sol != Solution(2, 0b1001, "imported", "optimal")
    assert hash(sol) == hash(Solution(2, 0b1001, "built-in", "optimal"))
    assert repr(sol) == (
        "Solution(n=2, selection=9, source='built-in', solver_status='optimal')"
    )
    _refuses_assignment(sol, "selection")


@pytest.mark.parametrize("args, message", [
    ((0, 0, "built-in", "optimal"), "solution length 0 is not in 1..24"),
    ((2, -1, "built-in", "optimal"), "selection is not in 0..2^(2^2)-1"),
    ((2, 1 << 4, "built-in", "optimal"), "selection is not in 0..2^(2^2)-1"),
    ((2, 0, "mine", "optimal"), "unknown source 'mine'"),
    ((2, 0, "imported", "done"), "unknown status 'done'"),
    ((2, 1.0, "built-in", "optimal"), "selection must be an int, got 1.0"),
    ((2, True, "built-in", "optimal"), "selection must be an int, got True"),
])
def test_solution_checks(args, message):
    with pytest.raises(ValueError) as info:
        Solution(*args)
    assert str(info.value) == message


# -------------------------------------------------------------- VerifyReport


def test_verify_report_construction():
    words = WordSet(3, [0, 7])
    code = SdeccResult(True, None, None)
    report = VerifyReport(True, 2, 5, (), (), code, words)
    assert report == VerifyReport(
        ok=True, objective=2, checked=5, violated=(), foreign_names=(),
        code_result=code, words=words,
    )
    assert report and not VerifyReport(False, 2, 5, ("r",), (), code, words)
    assert report.render().startswith("verification: PASS")
    assert hash(report) == hash(VerifyReport(True, 2, 5, (), (), code, words))
    _refuses_assignment(report, "ok")


# -------------------------------------------------------------- BoundsRecord


def test_bounds_record_construction():
    record = BoundsRecord(7, 16, 16, 25, 16, 16)
    assert record == BoundsRecord(
        n=7, lower_vt=16, lower_ratio=16, upper_kk=25, known_M=16,
        known_upper=16,
    )
    assert record == bounds(7)
    assert record != BoundsRecord(7, 16, 16, 25, None, None)
    assert hash(record) == hash(bounds(7))
    assert repr(BoundsRecord(7, 16, 16, 25, None, None)) == (
        "BoundsRecord(n=7, lower_vt=16, lower_ratio=16, upper_kk=25, "
        "known_M=None, known_upper=None)"
    )
    _refuses_assignment(record, "known_M")


@pytest.mark.parametrize("args", [
    (7, 16, 17, 25, 16, 16),
    (7, 16, 16, 25, 15, 16),
    (7, 16, 16, 25, None, 26),
])
def test_bounds_record_refuses_a_chain_out_of_order(args):
    n, lower_vt, lower_ratio, upper_kk, known_M, known_upper = args
    chain = [lower_ratio, lower_vt, known_M, known_upper, upper_kk]
    with pytest.raises(RuntimeError) as info:
        BoundsRecord(*args)
    assert str(info.value) == f"bounds chain out of order: {chain}"


# ------------------------------------------------------------- SearchOptions


def test_search_options_construction_and_defaults():
    opts = SearchOptions()
    assert (opts.node_limit, opts.time_limit, opts.incumbent) == (
        None, None, None
    )
    code = WordSet(3, [0, 7])
    full = SearchOptions(10, 1.5, code)
    assert full == SearchOptions(node_limit=10, time_limit=1.5, incumbent=code)
    assert full != SearchOptions(10, 1.5)
    assert SearchOptions(0, 0.0).node_limit == 0
    assert SearchOptions(time_limit=2).time_limit == 2  # an int is a number
    assert hash(full) == hash(SearchOptions(10, 1.5, code))
    assert hash(opts) == hash(SearchOptions())
    assert repr(code) == "WordSet(n=3, {000, 111})"
    assert repr(full) == (
        "SearchOptions(node_limit=10, time_limit=1.5, "
        "incumbent=WordSet(n=3, {000, 111}))"
    )
    assert repr(opts) == (
        "SearchOptions(node_limit=None, time_limit=None, incumbent=None)"
    )
    _refuses_assignment(full, "node_limit")


@pytest.mark.parametrize("kwargs, message", [
    ({"node_limit": -1}, "node_limit must be a number >= 0, got -1"),
    ({"time_limit": -0.5}, "time_limit must be a number >= 0, got -0.5"),
    ({"time_limit": math.nan}, "time_limit must be a number >= 0, got nan"),
    ({"node_limit": 1, "time_limit": math.nan},
     "time_limit must be a number >= 0, got nan"),
    # a bool is an int, and a budget given as text used to raise TypeError
    ({"node_limit": True}, "node_limit must be an int, got True"),
    ({"node_limit": 2.5}, "node_limit must be an int, got 2.5"),
    ({"node_limit": "3"}, "node_limit must be an int, got '3'"),
    ({"time_limit": True}, "time_limit must be a number, got True"),
    ({"time_limit": "1"}, "time_limit must be a number, got '1'"),
    # a list used to be taken, and the search then raised AttributeError
    ({"incumbent": [1, 2]}, "incumbent must be a WordSet, got [1, 2]"),
])
def test_search_options_checks(kwargs, message):
    with pytest.raises(ValueError) as info:
        SearchOptions(**kwargs)
    assert str(info.value) == message


# -------------------------------------------------------------- SearchResult


def test_search_result_construction():
    code = WordSet(3, [0, 7])
    result = SearchResult(3, 2, code, "optimal", 4)
    assert result == SearchResult(
        n=3, size=2, witness=code, proof_status="optimal", nodes=4
    )
    assert (result.n, result.size, result.witness, result.proof_status,
            result.nodes) == (3, 2, code, "optimal", 4)
    assert result != SearchResult(3, 2, code, "bound-limited", 4)
    assert hash(result) == hash(SearchResult(3, 2, code, "optimal", 4))
    # past eight members a WordSet's repr gives its size instead
    assert repr(WordSet(4, range(9))) == "WordSet(n=4, size=9)"
    _refuses_assignment(result, "size")


# ------------------------------------------------------------- constraints


def test_constraint_family_construction_and_length():
    row = LinearConstraint(((0, 1), (1, 1)), "<=", 1, "r")
    family = ConstraintFamily("C0", (), (row,))
    assert family == ConstraintFamily(id="C0", parameters=(), constraints=(row,))
    assert len(family) == 1 and family
    assert not ConstraintFamily("C1", (("p", 1),), ())
    assert family != ConstraintFamily("C2", (), (row,))
    assert hash(family) == hash(ConstraintFamily("C0", (), (row,)))
    assert repr(ConstraintFamily("C1", (("p", 1),), ())) == (
        "ConstraintFamily(id='C1', parameters=(('p', 1),), constraints=())"
    )
    _refuses_assignment(family, "id")


def test_run_class_construction():
    rc = RunClass(5, 2, 2, 1)
    assert rc == RunClass(n=5, w=2, alpha=2, beta=1)
    assert (rc.n, rc.w, rc.alpha, rc.beta) == (5, 2, 2, 1)
    assert rc != RunClass(5, 2, 1, 2)
    assert hash(rc) == hash(RunClass(5, 2, 2, 1))
    _refuses_assignment(rc, "w")


# ------------------------------------------------------------------ pickling


def _one_of_each():
    row = LinearConstraint(((0, 1), (7, 1)), "<=", 1, "r")
    code = WordSet(3, [0, 7])
    values = [
        Word(3, 5),
        row,
        IlpModel(3, (row,), {"generator": "t"}),
        Solution(3, 0b10000001, "imported", "unknown"),
        bounds(7),
        SearchOptions(10, 1.5),
        ConstraintFamily("C0", (), (row,)),
        RunClass(5, 2, 2, 1),
        code,
        SearchResult(3, 2, code, "optimal", 4),
        VerifyReport(True, 2, 5, (), (), SdeccResult(True, None, None), code),
    ]
    params = [pytest.param(v, id=type(v).__name__) for v in values]
    params.append(pytest.param(
        SearchOptions(10, 1.5, code), id="SearchOptions-incumbent"
    ))
    return params


@pytest.mark.parametrize("value", _one_of_each())
def test_values_survive_pickling_and_copying(value):
    import copy
    import pickle

    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value
