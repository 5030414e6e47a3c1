"""Constraint family generators: shapes, oracles, and validity on known codes."""

import itertools
import re
from math import comb

import pytest

from delcodes.bitseq import (
    Word,
    WordSet,
    complement,
    deletion_surface,
    enumerate_words,
    hamming_weight,
    run_count,
    runs_of,
)
from delcodes.constraints import (
    FAMILY_IDS,
    GEN_MAX_N,
    RunClass,
    build_model,
    c6_preset,
    dominated_words,
    gen_c0,
    gen_c1,
    gen_c2,
    gen_c3,
    gen_c4,
    gen_c5,
    gen_c6,
    run_class_members,
)
from delcodes.ilp import IlpModel, LinearConstraint, _unit_tables
from delcodes.sdecc import KNOWN_SIZES, conflict_graph, is_sdecc
from delcodes.vt import vt_code, vt0_size


def surface_set(word: Word) -> frozenset:
    return frozenset(w.value for w in deletion_surface(word))


def assignment_for(n: int, values) -> int:
    """Selection bitmask with exactly the given word values set."""
    selection = 0
    for v in values:
        assert 0 <= v < 1 << n
        selection |= 1 << v
    return selection


# ---------------------------------------------------------------- C0 packing


@pytest.mark.parametrize("n", range(2, 11))
def test_c0_row_count_is_centers(n):
    fam = gen_c0(n)
    assert fam.id == "C0"
    assert len(fam.constraints) == 1 << (n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_c0_rows_are_center_cliques(n):
    fam = gen_c0(n)
    for row in fam.constraints:
        assert row.sense == "<=" and row.rhs == 1
        center = Word.parse(row.label[len("c0_y"):])
        members = {v for v, c in row.terms}
        assert all(c == 1 for _, c in row.terms)
        expected = {
            w.value
            for w in enumerate_words(n)
            if center.value in surface_set(w)
        }
        assert members == expected
        # each shorter word has exactly n + 1 words covering it
        assert len(members) == n + 1


@pytest.mark.parametrize("n", range(2, 9))
def test_c0_each_word_appears_run_count_times(n):
    fam = gen_c0(n)
    seen: dict = {}
    for row in fam.constraints:
        for v, _ in row.terms:
            seen[v] = seen.get(v, 0) + 1
    for w in enumerate_words(n):
        assert seen[w.value] == run_count(w, 0) + run_count(w, 1)


def test_c0_labels_sorted_and_unique():
    fam = gen_c0(5)
    labels = [row.label for row in fam.constraints]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)
    assert labels[0] == "c0_y0000" and labels[-1] == "c0_y1111"


@pytest.mark.parametrize("n", range(2, 11))
def test_c0_rows_list_the_conflict_graph_cliques_in_order(n):
    rows = gen_c0(n).constraints
    cliques = conflict_graph(n).cliques_by_center
    assert [tuple(v for v, _ in row.terms) for row in rows] == list(
        cliques.values()
    )
    assert [row.label for row in rows] == [
        f"c0_y{Word(n - 1, c)}" for c in cliques
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_every_vt_class_satisfies_c0(n):
    fam = gen_c0(n)
    for a in range(n + 1):
        assignment = assignment_for(n, vt_code(n, a).values)
        assert all(row.satisfied(assignment) for row in fam.constraints)


# ------------------------------------------------------------ C1 lower bound


@pytest.mark.parametrize("n", range(2, 13))
def test_c1_single_row_full_support(n):
    fam = gen_c1(n)
    (row,) = fam.constraints
    assert row.label == "c1" and row.sense == ">=" and row.rhs == vt0_size(n)
    assert len(row.terms) == 1 << n
    assert all(c == 1 for _, c in row.terms)


def test_c1_pinned_rhs_examples():
    assert gen_c1(10).constraints[0].rhs == 94
    assert gen_c1(11).constraints[0].rhs == 172


@pytest.mark.parametrize("n", range(2, 9))
def test_vt0_meets_c1_with_equality(n):
    row = gen_c1(n).constraints[0]
    assignment = assignment_for(n, vt_code(n, 0).values)
    assert row.evaluate(assignment) == row.rhs


# -------------------------------------------------------------- C2 dominance


def dominated_by_rival_sets(n):
    """Reference for larger n: for each x, test every word sharing a
    center with x, since only those can have a surface inside x's."""
    surfaces = {w.value: surface_set(w) for w in enumerate_words(n)}
    coverers = {}
    for v, surf in surfaces.items():
        for c in surf:
            coverers.setdefault(c, []).append(v)
    out = set()
    for x, sx in surfaces.items():
        rivals = {y for c in sx for y in coverers[c]}
        rivals.discard(x)
        if any(surfaces[y] < sx for y in rivals):
            out.add(x)
    return out


@pytest.mark.parametrize("n", range(2, 15))
def test_dominated_words_brute_force(n):
    surfaces = {w.value: surface_set(w) for w in enumerate_words(n)}
    if n <= 8:
        expected = {
            x
            for x, sx in surfaces.items()
            if any(sy < sx for y, sy in surfaces.items() if y != x)
        }
    else:  # all pairs would take minutes
        expected = dominated_by_rival_sets(n)
    assert {w.value for w in dominated_words(n)} == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_weight_one_words_are_dominated(n):
    dom = {w.value for w in dominated_words(n)}
    for i in range(n):
        assert (1 << i) in dom  # the all-zero word dominates them
        assert (1 << i) ^ ((1 << n) - 1) in dom  # dually for weight n-1


@pytest.mark.parametrize("n", range(2, 11))
def test_constant_words_never_dominated(n):
    dom = {w.value for w in dominated_words(n)}
    assert 0 not in dom and ((1 << n) - 1) not in dom


@pytest.mark.parametrize("n", range(2, 9))
def test_dominated_set_is_complement_closed(n):
    dom = {w.value for w in dominated_words(n)}
    top = (1 << n) - 1
    assert dom == {top ^ v for v in dom}


def test_dominated_counts_in_vt0():
    # how many VT_0 members the dominance rows would strike, by length
    counts = {
        n: len({w.value for w in dominated_words(n)} & set(vt_code(n, 0).values))
        for n in range(5, 9)
    }
    assert counts == {5: 1, 6: 2, 7: 3, 8: 0}


@pytest.mark.parametrize("n", range(2, 9))
def test_c2_rows_fix_dominated_words_to_zero(n):
    fam = gen_c2(n)
    dom = sorted(w.value for w in dominated_words(n))
    assert [row.label for row in fam.constraints] == [
        f"c2_x{Word(n, v)}" for v in dom
    ]
    for row, v in zip(fam.constraints, dom):
        assert row.sense == "=" and row.rhs == 0
        assert row.terms == ((v, 1),)


def test_c2_length_two_strikes_the_mixed_words():
    assert [str(w) for w in dominated_words(2)] == ["01", "10"]
    assert len(gen_c2(2).constraints) == 2


# -------------------------------------------------------------- C3 constants


@pytest.mark.parametrize("n", range(2, 9))
def test_c3_fixes_both_constant_words(n):
    fam = gen_c3(n)
    zero, one = fam.constraints
    assert zero.label == "c3_zero"
    assert zero.terms == ((0, 1),) and zero.rhs == 1
    assert one.label == "c3_one"
    assert one.terms == (((1 << n) - 1, 1),) and one.rhs == 1
    assert zero.sense == one.sense == "="


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_vt0_contains_both_constants_even_lengths(n):
    code = vt_code(n, 0)
    assert code.has_value(0) and code.has_value((1 << n) - 1)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_vt0_misses_all_ones_at_odd_lengths(n):
    # the all-ones syndrome n(n+1)/2 is nonzero mod n+1 exactly for odd n
    assert not vt_code(n, 0).has_value((1 << n) - 1)


# ---------------------------------------------------------------- C4 balance


@pytest.mark.parametrize("n", range(2, 10))
def test_c4_coefficients_by_weight(n):
    (row,) = gen_c4(n).constraints
    assert row.label == "c4" and row.sense == ">=" and row.rhs == 0
    coeffs = dict(row.terms)
    for w in enumerate_words(n):
        weight = hamming_weight(w)
        if 2 * weight < n:
            assert coeffs[w.value] == 1
        elif 2 * weight > n:
            assert coeffs[w.value] == -1
        else:
            assert w.value not in coeffs  # middle weight carries no term


def test_c4_pinned_length_three_row():
    (row,) = gen_c4(3).constraints
    rendered = [(str(Word(3, v)), c) for v, c in row.terms]
    assert rendered == [
        ("000", 1), ("001", 1), ("010", 1), ("011", -1),
        ("100", 1), ("101", -1), ("110", -1), ("111", -1),
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_c4_complement_antisymmetry(n):
    (row,) = gen_c4(n).constraints
    coeffs = dict(row.terms)
    for v, c in coeffs.items():
        assert coeffs[v ^ ((1 << n) - 1)] == -c


@pytest.mark.parametrize("n", range(2, 9))
def test_complement_closed_codes_meet_c4_with_equality(n):
    (row,) = gen_c4(n).constraints
    values = vt_code(n, 0).values
    top = (1 << n) - 1
    mirrored = sorted({top ^ v for v in values} | set(values))
    assignment = assignment_for(n, mirrored)
    assert row.evaluate(assignment) == 0


# ------------------------------------------------------- C5 run-class counts


@pytest.mark.parametrize(
    "rc,expected",
    [
        (RunClass(5, 0, 1, 0), ["00000"]),
        (RunClass(5, 2, 2, 4), []),
        (RunClass(4, 2, 1, 2), ["1001"]),
    ],
)
def test_run_class_pinned_examples(rc, expected):
    assert [str(w) for w in run_class_members(rc)] == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_run_classes_partition_each_weight(n):
    for w in range(n + 1):
        total = 0
        for alpha in range(n + 1):
            for beta in range(n + 1):
                total += len(run_class_members(RunClass(n, w, alpha, beta)))
        assert total == comb(n, w)


@pytest.mark.parametrize("n", range(1, 8))
def test_run_class_membership_matches_run_counts(n):
    for x in enumerate_words(n):
        rc = RunClass(n, hamming_weight(x), runs_of(x.value, n, 0), runs_of(x.value, n, 1))
        assert x in run_class_members(rc)


def test_run_class_rejects_out_of_range():
    with pytest.raises(ValueError):
        run_class_members(RunClass(4, 5, 1, 1))
    with pytest.raises(ValueError):
        run_class_members(RunClass(4, 2, -1, 1))
    for n in (0, GEN_MAX_N + 1):
        with pytest.raises(ValueError, match="run classes support 1 <= n"):
            run_class_members(RunClass(n, 0, 0, 0))


@pytest.mark.parametrize("n", range(2, 9))
def test_c5_rows_match_run_count_oracle(n):
    fam = gen_c5(n)
    assert len(fam.constraints) == n  # one row per weight 0..n-1
    for w, row in enumerate(fam.constraints):
        assert row.label == f"c5_w{w}"
        assert row.sense == "<=" and row.rhs == comb(n - 1, w)
        coeffs = dict(row.terms)
        expected: dict = {}
        for x in enumerate_words(n):
            weight = hamming_weight(x)
            if weight == w:
                expected[x.value] = runs_of(x.value, n, 0)
            elif weight == w + 1:
                expected[x.value] = runs_of(x.value, n, 1)
        expected = {v: c for v, c in expected.items() if c}
        assert coeffs == expected


def test_c5_pinned_length_five_shapes():
    fam = gen_c5(5)
    shapes = [(row.label, len(row.terms), row.rhs) for row in fam.constraints]
    assert shapes == [
        ("c5_w0", 6, 1),
        ("c5_w1", 15, 4),
        ("c5_w2", 20, 6),
        ("c5_w3", 15, 4),
        ("c5_w4", 6, 1),
    ]


@pytest.mark.parametrize("n", range(2, 10))
def test_every_sdecc_sample_satisfies_c5(n):
    fam = gen_c5(n)
    for a in range(n + 1):
        code = vt_code(n, a)
        assert is_sdecc(code)
        assignment = assignment_for(n, code.values)
        for row in fam.constraints:
            assert row.satisfied(assignment), (a, row.label)


@pytest.mark.parametrize("n", range(3, 9))
def test_strengthened_c5_keeps_only_weight_two_terms_at_w1(n):
    fam = gen_c5(n, strengthened=True)
    assert fam.parameters == (("strengthened", 1),)
    row = next(r for r in fam.constraints if r.label == "c5_w1")
    assert row.terms and all(v.bit_count() == 2 for v, _ in row.terms)
    assert all(c == runs_of(v, n, 1) for v, c in row.terms)
    assert row.rhs == comb(n - 1, 1)
    # other rows are unchanged relative to the plain family
    plain = {r.label: r for r in gen_c5(n).constraints}
    for r in fam.constraints:
        if r.label != "c5_w1":
            assert plain[r.label].terms == r.terms


@pytest.mark.parametrize("n", range(3, 9))
def test_strengthened_c5_valid_when_weight_one_words_are_zero(n):
    # with the weight-1 words forced out (as C0 + C3 do), each VT class
    # still satisfies the strengthened w=1 row
    row = next(
        r
        for r in gen_c5(n, strengthened=True).constraints
        if r.label == "c5_w1"
    )
    for a in range(n + 1):
        values = [
            v
            for v in vt_code(n, a).values
            if hamming_weight(Word(n, v)) != 1
        ]
        assert row.satisfied(assignment_for(n, values))


# ---------------------------------------------------------- C6 substructure


def test_c6_pinned_prefix_example():
    fam = gen_c6(10, 1, 0)
    assert fam.parameters == (("p", 1), ("q", 0))
    assert len(fam.constraints) == 2
    labels = [row.label for row in fam.constraints]
    assert labels == ["c6_p1q0_u0_v-", "c6_p1q0_u1_v-"]
    for row in fam.constraints:
        assert len(row.terms) == 512
        assert row.sense == "<=" and row.rhs == KNOWN_SIZES[9][0] == 52


def test_c6_pinned_two_sided_example():
    fam = gen_c6(10, 4, 4)
    assert len(fam.constraints) == 256
    assert all(len(row.terms) == 4 for row in fam.constraints)
    assert all(row.rhs == 2 for row in fam.constraints)
    assert fam.constraints[0].label == "c6_p4q4_u0000_v0000"


@pytest.mark.parametrize("n,p,q", [(6, 1, 0), (6, 0, 1), (7, 1, 1), (8, 2, 0)])
def test_c6_rows_enumerate_fixed_affix_words(n, p, q):
    r = n - p - q
    fam = gen_c6(n, p, q)
    assert len(fam.constraints) == 1 << (p + q)
    seen = set()
    for row in fam.constraints:
        members = {v for v, c in row.terms}
        assert len(members) == 1 << r
        assert all(c == 1 for _, c in row.terms)
        seen |= members
        # all members share the prefix and suffix the label names
        u_bits, v_bits = row.label.split("_")[2:]
        u = u_bits[1:]
        v = v_bits[1:]
        for value, _ in row.terms:
            text = str(Word(n, value))
            if p:
                assert text[:p] == u
            else:
                assert u == "-"
            if q:
                assert text[n - q:] == v
            else:
                assert v == "-"
        assert row.rhs == KNOWN_SIZES[r][0]
    assert len(seen) == 1 << n  # the rows partition the variables


@pytest.mark.parametrize("n", range(4, 9))
def test_every_vt_class_satisfies_c6_preset(n):
    rows = [
        row
        for (p, q) in c6_preset(n)
        for row in gen_c6(n, p, q).constraints
    ]
    for a in range(n + 1):
        assignment = assignment_for(n, vt_code(n, a).values)
        for row in rows:
            assert row.satisfied(assignment), (a, row.label)


def test_c6_rejects_unknown_remainder_and_bad_shape():
    with pytest.raises(ValueError):
        gen_c6(6, 0, 0)
    with pytest.raises(ValueError):
        gen_c6(6, 3, 3)  # r = 0
    with pytest.raises(ValueError):
        gen_c6(6, 5, 0)  # r = 1 below the valid code lengths
    with pytest.raises(ValueError):
        gen_c6(14, 1, 0)  # r = 13 has no known maximum
    for p, q in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="section widths must be nonneg"):
            gen_c6(8, p, q)


@pytest.mark.parametrize("p,q", [(True, False), (1.0, 0)])
def test_c6_rejects_section_widths_that_are_not_ints(p, q):
    message = f"section widths must be nonnegative, got p={p!r} q={q!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        gen_c6(7, p, q)


def test_build_model_rejects_bool_c6_params():
    with pytest.raises(ValueError, match="got p=True q=False"):
        build_model(7, {"C0", "C6"}, c6_params=[(True, False)])


def test_c6_preset_drops_unusable_shapes():
    assert c6_preset(10) == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    # at n = 4 the two-symbol affixes would leave r = 2, still usable
    assert c6_preset(4) == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert c6_preset(3) == ((1, 0), (0, 1))


# ---------------------------------------------------------------- the bundle


def test_family_ids_are_the_seven_generators():
    assert FAMILY_IDS == ("C0", "C1", "C2", "C3", "C4", "C5", "C6")


def test_build_model_requires_c0():
    with pytest.raises(ValueError):
        build_model(5, {"C1"})
    with pytest.raises(ValueError):
        build_model(5, set())


def test_build_model_rejects_unknown_families():
    with pytest.raises(ValueError):
        build_model(5, {"C0", "C9"})


def test_build_model_rejects_c6_params_without_c6():
    with pytest.raises(ValueError):
        build_model(5, {"C0"}, c6_params=((1, 0),))


def test_build_model_rejects_repeated_c6_params():
    # the same (p, q) twice repeats every C6 label
    with pytest.raises(ValueError, match="duplicate constraint label"):
        build_model(7, {"C0", "C6"}, c6_params=[(1, 0), (1, 0)])


def test_build_model_accepts_lowercase_ids():
    model = build_model(4, {"c0", "c3"})
    assert model.metadata["families"] == ("C0", "C3")


def test_build_model_rows_ordered_by_family():
    model = build_model(5, {"C0", "C1", "C3", "C4"})
    labels = [row.label for row in model.constraints]
    assert labels == (
        [f"c0_y{Word.parse(format(v, '04b'))}" for v in range(16)]
        + ["c1", "c3_zero", "c3_one", "c4"]
    )


def test_build_model_strengthens_c5_only_with_c3():
    plain = build_model(5, {"C0", "C5"})
    strong = build_model(5, {"C0", "C3", "C5"})
    row_plain = next(r for r in plain.constraints if r.label == "c5_w1")
    row_strong = next(r for r in strong.constraints if r.label == "c5_w1")
    assert len(row_plain.terms) == 15
    assert len(row_strong.terms) == 10
    assert all(v.bit_count() == 2 for v, _ in row_strong.terms)


def test_build_model_c6_params_override_preset():
    model = build_model(8, {"C0", "C6"}, c6_params=((2, 1),))
    c6_labels = [r.label for r in model.constraints if r.label.startswith("c6")]
    assert len(c6_labels) == 8
    assert all(lbl.startswith("c6_p2q1_") for lbl in c6_labels)
    assert model.metadata["c6_params"] == ((2, 1),)


def test_build_model_metadata_and_shape():
    model = build_model(11, {"C0", "C1", "C5"})
    assert len(model.constraints) == 1024 + 1 + 11
    assert len(model.variable_names) == 2048
    assert model.metadata["n"] == 11
    assert model.metadata["families"] == ("C0", "C1", "C5")
    assert str(model.metadata["generator"]).startswith("delcodes ")


@pytest.mark.parametrize("n", [11, 12])
def test_full_models_build_without_error(n):
    model = build_model(n, set(FAMILY_IDS))
    assert len(model.variable_names) == 1 << n
    assert len({row.label for row in model.constraints}) == len(model.constraints)


@pytest.mark.parametrize("n", range(2, 11))
def test_full_models_share_one_unit_pair_per_word(n):
    unit: dict[int, tuple[int, int]] = {}
    count = 0
    for row in build_model(n, FAMILY_IDS).constraints:
        for term in row.terms:
            if term[1] == 1:
                assert unit.setdefault(term[0], term) is term, (row.label, term)
                count += 1
    # C1 alone names every word once with coefficient 1
    assert sorted(unit) == list(range(1 << n)) and count > 1 << n
    # the table of pairs is dropped once the model is built
    assert n not in _unit_tables


def _usable_c6_params(n):
    return tuple(
        (p, q)
        for p in range(4)
        for q in range(4)
        if p + q and n - p - q >= 2 and KNOWN_SIZES[n - p - q][0] is not None
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_generated_rows_pass_the_public_checks(n):
    # the generators build rows and models without the checks of
    # LinearConstraint and IlpModel, so rebuilding through them must
    # raise nothing and give equal rows and models
    models = [
        build_model(n, FAMILY_IDS),
        build_model(n, set(FAMILY_IDS) - {"C3"}),  # C5 not strengthened
        build_model(n, FAMILY_IDS, c6_params=_usable_c6_params(n)),
    ]
    for model in models:
        rows = tuple(
            LinearConstraint(row.terms, row.sense, row.rhs, row.label)
            for row in model.constraints
        )
        assert rows == model.constraints
        assert IlpModel(model.n, rows, model.metadata) == model


def test_generators_reject_out_of_range_lengths():
    for gen in (gen_c0, gen_c1, gen_c2, gen_c3, gen_c4, gen_c5):
        with pytest.raises(ValueError):
            gen(1)
        with pytest.raises(ValueError):
            gen(GEN_MAX_N + 1)
    with pytest.raises(ValueError):
        build_model(1, {"C0"})
