"""Word arithmetic checked against independent string-based oracles."""

import random
from itertools import combinations, groupby, product

import pytest

from delcodes.bitseq import (
    MAX_LEN,
    Word,
    WordSet,
    complement,
    concat,
    delete_position,
    deletion_surface,
    enumerate_words,
    hamming_weight,
    insertion_values,
    levenshtein_id,
    run_count,
    surface_size_sum,
    surface_union_size,
    surface_values,
)
from delcodes.vt import vt_code


def _all_strings(n):
    return ["".join(p) for p in product("01", repeat=n)]


def _surface_oracle(s):
    return {s[:i] + s[i + 1:] for i in range(len(s))}


def _runs_oracle(s, b):
    return sum(1 for ch, _ in groupby(s) if ch == str(b))


def _bfs_distance_oracle(a, b):
    # plain breadth-first search over insert/delete edits, no LCS theory;
    # depth is capped by the trivial delete-all-then-insert-all path
    cap = len(a) + len(b)
    frontier = {a}
    seen = {a}
    for dist in range(cap + 1):
        if b in frontier:
            return dist
        nxt = set()
        for w in frontier:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1:])
            for i in range(len(w) + 1):
                nxt.add(w[:i] + "0" + w[i:])
                nxt.add(w[:i] + "1" + w[i:])
        frontier = {w for w in nxt if w and w not in seen}
        seen |= frontier
    return cap


# ---------------------------------------------------------------- Word basics


def test_parse_and_str_round_trip():
    for s in ("0", "1", "10001", "0000000001", "1" * MAX_LEN):
        w = Word.parse(s)
        assert str(w) == s
        assert w.n == len(s)


def test_parse_rejects_garbage():
    for bad in ("", "012", "abc", "1 0"):
        with pytest.raises(ValueError):
            Word.parse(bad)


def test_word_validates_length_and_value():
    with pytest.raises(ValueError):
        Word(0, 0)
    with pytest.raises(ValueError):
        Word(MAX_LEN + 1, 0)
    with pytest.raises(ValueError):
        Word(3, 8)
    with pytest.raises(ValueError):
        Word(3, -1)


def test_bit_positions_are_one_based_from_the_left():
    w = Word.parse("10001")
    assert [w.bit(i) for i in range(1, 6)] == [1, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        w.bit(0)
    with pytest.raises(ValueError):
        w.bit(6)


def test_canonical_order_matches_string_order():
    for n in (1, 3, 5):
        strings = _all_strings(n)
        words = sorted(Word.parse(s) for s in strings)
        assert [str(w) for w in words] == sorted(strings)


def test_enumerate_words_is_canonical_and_complete():
    for n in (1, 2, 4):
        ws = list(enumerate_words(n))
        assert len(ws) == 2 ** n
        assert [str(w) for w in ws] == _all_strings(n)


# ------------------------------------------------------------------- WordSet


def test_wordset_dedupes_sorts_and_freezes():
    ws = WordSet(3, [6, 1, 6, Word.parse("011")])
    assert ws.values == (1, 3, 6)
    assert [str(w) for w in ws] == ["001", "011", "110"]
    assert Word.parse("011") in ws
    assert Word.parse("010") not in ws
    assert Word.parse("0011") not in ws
    with pytest.raises(AttributeError):
        ws.n = 4


def test_wordset_rejects_mismatched_members():
    with pytest.raises(ValueError):
        WordSet(3, [Word.parse("0101")])
    with pytest.raises(ValueError):
        WordSet(3, [8])


@pytest.mark.parametrize("values, message", [
    ([1, 9, 2, -1], "value 9 does not fit in 3 bits"),
    (iter([5, -1, 8]), "value -1 does not fit in 3 bits"),
    ([1, Word.parse("01"), 8], "word 01 has length 2, expected 3"),
    ([Word.parse("001"), 8, Word.parse("0001")],
     "value 8 does not fit in 3 bits"),
    ([1.5, 2], "word value must be an int, got 1.5"),
    ([2.0], "word value must be an int, got 2.0"),
    ([2, True], "word value must be an int, got True"),
    ([False], "word value must be an int, got False"),
    ([9, 1.5], "value 9 does not fit in 3 bits"),
    ([Word.parse("001"), 0.0], "word value must be an int, got 0.0"),
])
def test_wordset_names_the_first_bad_member(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WordSet(3, values)


def test_wordset_takes_ints_words_and_iterators_alike():
    expect = WordSet(4, [0, 5, 15])
    assert WordSet(4, (15, 0, 5, 5)) == expect
    assert WordSet(4, iter([5, 15, 0])) == expect
    assert WordSet(4, {0: None, 15: None, 5: None}) == expect
    assert WordSet(4, [Word(4, 15), 0, Word(4, 5)]) == expect
    assert WordSet(4, []).values == ()
    # an int subclass takes the checking loop and is kept
    assert WordSet(4, [type("Value", (int,), {})(15), 0, 5]) == expect


def test_wordset_equality_and_hash():
    a = WordSet(3, [1, 2])
    b = WordSet(3, [2, 1])
    c = WordSet(4, [1, 2])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != WordSet(3, [1])


# ----------------------------------------------------------- weights and runs


def test_hamming_weight_example():
    assert hamming_weight(Word.parse("1010001001")) == 4


def test_run_count_example():
    x = Word.parse("1010001001")
    assert run_count(x, 0) == 3
    assert run_count(x, 1) == 4


@pytest.mark.parametrize("n", range(1, 11))
def test_weight_and_runs_match_string_oracle(n):
    for s in _all_strings(n):
        w = Word.parse(s)
        assert hamming_weight(w) == s.count("1")
        assert run_count(w, 0) == _runs_oracle(s, 0)
        assert run_count(w, 1) == _runs_oracle(s, 1)


def test_run_count_rejects_other_symbols():
    with pytest.raises(ValueError):
        run_count(Word.parse("01"), 2)


# ------------------------------------------------------------------ deletions


def test_surface_examples_from_length_five():
    cases = {
        "00000": {"0000"},
        "10001": {"0001", "1001", "1000"},
        "01010": {"1010", "0010", "0110", "0100", "0101"},
        "11011": {"1011", "1111", "1101"},
        "11100": {"1100", "1110"},
        "00111": {"0111", "0011"},
    }
    for s, expected in cases.items():
        got = deletion_surface(Word.parse(s))
        assert {str(w) for w in got} == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_surface_matches_string_oracle_and_run_size_law(n):
    for s in _all_strings(n):
        w = Word.parse(s)
        got = {str(x) for x in deletion_surface(w)}
        assert got == _surface_oracle(s)
        assert len(got) == run_count(w, 0) + run_count(w, 1)


def test_surface_size_bounds():
    for n in (2, 5, 8):
        for w in enumerate_words(n):
            assert 1 <= len(deletion_surface(w)) <= n


def test_deeper_surfaces_match_combinations_oracle():
    for s in ("110100", "0101010", "11110000"):
        n = len(s)
        for t in (2, 3):
            expected = {
                "".join(s[i] for i in range(n) if i not in drop)
                for drop in combinations(range(n), t)
            }
            got = {str(w) for w in deletion_surface(Word.parse(s), t)}
            assert got == expected


def test_deletion_surface_rejects_bad_t():
    w = Word.parse("0101")
    for t in (0, -1, 4, 5):
        with pytest.raises(ValueError):
            deletion_surface(w, t)


def test_insertion_values_match_string_oracle():
    # every value up to n = 12: all 2(n+1) insertions, n+2 of them distinct
    for n in range(1, 13):
        for s in _all_strings(n):
            expected = {
                s[:i] + b + s[i:] for i in range(n + 1) for b in "01"
            }
            got = insertion_values(n, int(s, 2))
            assert set(format(v, f"0{n + 1}b") for v in got) == expected
            # the n+2 distinct supersequences of one insertion, each once
            assert len(got) == len(set(got)) == n + 2


def test_delete_position_agrees_with_slicing():
    for s in _all_strings(5):
        v = int(s, 2)
        for i in range(1, 6):
            assert delete_position(v, 5, i) == int(s[:i - 1] + s[i:], 2)


def test_surface_values_int_layer_matches_word_layer():
    for w in enumerate_words(6):
        assert surface_values(6, w.value) == set(
            deletion_surface(w).values
        )


def _surface_union_reference(n, values):
    return len({d for v in values for d in surface_values(n, v)})


@pytest.mark.parametrize("n", range(2, 17))
def test_surface_union_size_matches_the_set_union_on_random_codes(n):
    # sparse codes reach every position k with a few bits set, dense ones
    # fill whole bytes; n = 2..16 covers the in-byte table (k < 3), the
    # strided byte slices and the wide-block slices of the squeeze
    rng = random.Random(7100 + n)
    words = range(1 << n)
    counts = {0, 1, 2, 5, 1 << max(0, n - 6), 1 << (n - 1)}
    for count in sorted(counts):
        for _ in range(2):
            values = rng.sample(words, min(count, 1 << n))
            assert surface_union_size(n, values) == _surface_union_reference(
                n, values
            ), (n, count)
    assert surface_union_size(n, words) == 1 << (n - 1)


@pytest.mark.parametrize("n", range(2, 15))
def test_surface_union_size_matches_the_set_union_on_vt_classes(n):
    for a in range(n + 1):
        values = vt_code(n, a).values
        got = surface_union_size(n, values)
        assert got == _surface_union_reference(n, values), (n, a)


def test_surface_union_size_of_single_words():
    # one word's surface has one member per run of the word
    for n in (1, 3, 4, 9):
        for s in _all_strings(n):
            expected = _runs_oracle(s, 0) + _runs_oracle(s, 1)
            assert surface_union_size(n, [int(s, 2)]) == expected, s


@pytest.mark.parametrize("n", range(1, 11))
def test_surface_size_sum_adds_the_surface_sizes(n):
    words = range(1 << n)
    expected = sum(len(surface_values(n, v)) for v in words)
    assert surface_size_sum(n, words) == expected
    assert surface_size_sum(n, []) == 0


def _surface_size_sum_reference(n, values):
    # one surface member per run: a run starts at the first bit and at
    # every bit that differs from the one before it
    return sum(
        1 + sum(a != b for a, b in zip(s, s[1:]))
        for s in (format(v, f"0{n}b") for v in values)
    )


@pytest.mark.parametrize("n", (16, 20, 24))
def test_surface_size_sum_matches_a_per_word_count_across_chunks(n):
    # 4,096 words go into one packed int: one word short of a chunk, a
    # whole chunk and one word into the next, with the extremes of the
    # field (all zeros, all ones, alternating bits) among them
    rng = random.Random(7400 + n)
    top = (1 << n) - 1
    edge = [0, top, top // 3, top - top // 3, 1, 1 << (n - 1)]
    for count in (1, 4095, 4096, 4097, 3 * 4096 + 5):
        values = edge + [rng.randrange(1 << n) for _ in range(count)]
        expected = _surface_size_sum_reference(n, values)
        assert surface_size_sum(n, values) == expected, (n, count)
        assert surface_size_sum(n, tuple(values)) == expected
        # a one-shot iterator is read once, chunk by chunk
        assert surface_size_sum(n, iter(values)) == expected
        assert surface_size_sum(n, (v for v in values)) == expected
    assert surface_size_sum(n, ()) == 0
    assert surface_size_sum(n, iter(())) == 0
    assert surface_size_sum(n, [0]) == surface_size_sum(n, [top]) == 1
    assert surface_size_sum(n, [top // 3]) == n  # 0101...: n runs


def test_insertion_values_match_the_string_oracle_at_every_length():
    rng = random.Random(7200)
    for n in range(1, MAX_LEN + 1):
        top = (1 << n) - 1
        words = [0, top, top // 3] + [rng.randrange(1 << n) for _ in range(20)]
        for value in words:
            s = format(value, f"0{n}b")
            expected = {
                int(s[:i] + b + s[i:], 2) for i in range(n + 1) for b in "01"
            }
            got = insertion_values(n, value)
            assert type(got) is tuple
            assert set(got) == expected, s
            assert len(got) == n + 2, s  # distinct: conflict_graph relies on it


# ------------------------------------------------------------------- distance


def test_levenshtein_id_examples():
    assert levenshtein_id(Word.parse("01"), Word.parse("10")) == 2
    assert levenshtein_id(Word.parse("101"), Word.parse("101")) == 0
    assert levenshtein_id(Word.parse("1"), Word.parse("0")) == 2


def test_levenshtein_id_matches_bfs_oracle_on_short_words():
    pool = [s for n in (1, 2, 3) for s in _all_strings(n)]
    for a in pool:
        for b in pool:
            assert levenshtein_id(Word.parse(a), Word.parse(b)) == \
                _bfs_distance_oracle(a, b), (a, b)


def test_levenshtein_id_is_a_metric_on_length_six():
    import random

    rng = random.Random(7)
    pool = [Word(6, rng.randrange(64)) for _ in range(12)]
    for x in pool:
        assert levenshtein_id(x, x) == 0
        for y in pool:
            d = levenshtein_id(x, y)
            assert d == levenshtein_id(y, x)
            assert d % 2 == 0  # equal lengths force even distance
            for z in pool:
                assert d <= levenshtein_id(x, z) + levenshtein_id(z, y)


def test_levenshtein_id_length_difference_lower_bound():
    x = Word.parse("10101")
    assert levenshtein_id(x, Word.parse("101")) == 2
    assert levenshtein_id(x, Word.parse("010")) == 2  # 010 is a subsequence
    assert levenshtein_id(Word.parse("111"), Word.parse("000")) == 6


def test_surface_membership_iff_distance_one_deletion():
    # y in dS(x) exactly when y arises from x by one deletion, i.e. the
    # insert/delete distance between them is 1
    for x in enumerate_words(5):
        surf = deletion_surface(x)
        for y in enumerate_words(4):
            assert (y in surf) == (levenshtein_id(x, y) == 1)


# -------------------------------------------------------- concat / complement


def test_concat_example():
    got = concat([Word.parse("101"), Word.parse("0011")])
    assert str(got) == "1010011"


def test_concat_single_and_many():
    w = Word.parse("0110")
    assert concat([w]) == w
    got = concat([Word.parse("1"), Word.parse("0"), Word.parse("11")])
    assert str(got) == "1011"


def test_concat_guards():
    with pytest.raises(ValueError):
        concat([])
    with pytest.raises(ValueError):
        concat([Word(20, 0), Word(5, 0)])


def test_complement_example():
    assert str(complement(Word.parse("10110"))) == "01001"


def test_complement_is_involutive_and_weight_reversing():
    for w in enumerate_words(7):
        c = complement(w)
        assert complement(c) == w
        assert hamming_weight(c) == 7 - hamming_weight(w)
        assert str(c) == "".join("1" if ch == "0" else "0" for ch in str(w))
