"""VT construction and size formulas against frozen tables and oracles."""

import itertools
import re
from math import gcd

import pytest

from delcodes.vt import (
    euler_phi,
    format_code,
    is_perfect,
    moebius,
    parse_code,
    vt0_size,
    vt1_size,
    vt_code,
    vt_syndrome,
)
from delcodes.bitseq import (
    Word,
    WordSet,
    deletion_surface,
    enumerate_words,
    surface_values,
)

# |VT_a(n)| for n = 1..8, a = 0..n, row by row
SIZE_TABLE = {
    1: (1, 1),
    2: (2, 1, 1),
    3: (2, 2, 2, 2),
    4: (4, 3, 3, 3, 3),
    5: (6, 5, 5, 6, 5, 5),
    6: (10, 9, 9, 9, 9, 9, 9),
    7: (16, 16, 16, 16, 16, 16, 16, 16),
    8: (30, 28, 28, 29, 28, 28, 29, 28, 28),
}


def _phi_oracle(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _mu_oracle(d):
    if d == 1:
        return 1
    factors = []
    m = d
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    if m > 1:
        factors.append(m)
    if len(set(factors)) != len(factors):
        return 0
    return -1 if len(factors) % 2 else 1


def _syndrome_oracle(s):
    return sum(i for i, ch in enumerate(s, start=1) if ch == "1") % (len(s) + 1)


# ------------------------------------------------------------------ syndromes


@pytest.mark.parametrize("n", range(1, 10))
def test_syndrome_matches_positional_sum(n):
    for w in enumerate_words(n):
        assert vt_syndrome(w) == _syndrome_oracle(str(w))


def test_syndrome_partitions_all_words():
    for n in (3, 6, 9):
        counts = [0] * (n + 1)
        for w in enumerate_words(n):
            counts[vt_syndrome(w)] += 1
        assert sum(counts) == 2 ** n
        assert counts == [len(vt_code(n, a)) for a in range(n + 1)]


# ------------------------------------------------------------- construction


def test_vt0_of_length_five_is_the_known_code():
    got = {str(w) for w in vt_code(5, 0)}
    assert got == {"00000", "10001", "01010", "11011", "11100", "00111"}


def test_vt_code_members_have_the_right_syndrome():
    for n in (2, 5, 8):
        for a in range(n + 1):
            code = vt_code(n, a)
            assert all(vt_syndrome(w) == a for w in code)


@pytest.mark.parametrize("n", sorted(SIZE_TABLE))
def test_size_table(n):
    row = SIZE_TABLE[n]
    assert tuple(len(vt_code(n, a)) for a in range(n + 1)) == row
    assert sum(row) == 2 ** n


def _syndrome_reference(n, v):
    bits = format(v, f"0{n}b")
    return sum(i for i, ch in enumerate(bits, start=1) if ch == "1") % (n + 1)


@pytest.mark.parametrize("n", range(1, 17))
def test_vt_code_matches_a_brute_syndrome_filter(n):
    # n = 1 has an empty low half: its bucket table holds one pattern
    syndromes = [_syndrome_reference(n, v) for v in range(1 << n)]
    for a in range(n + 1):
        expected = tuple(v for v, s in enumerate(syndromes) if s == a)
        assert vt_code(n, a).values == expected, (n, a)


@pytest.mark.parametrize("n", range(1, 15))
def test_the_complement_of_vt0_is_another_vt_class(n):
    # a complement's syndrome is the sum of all positions, n(n+1)/2, less
    # the word's; at even n the class is VT_0 again, so solve_builtin's
    # VT_0 and complement seeds are one seed, which the kernel completes once
    top = (1 << n) - 1
    complement = WordSet(n, (top ^ v for v in vt_code(n, 0).values))
    a = n * (n + 1) // 2 % (n + 1)
    assert complement == vt_code(n, a)
    assert (a == 0) == (n % 2 == 0)


def test_vt_code_rejects_bad_residue():
    with pytest.raises(ValueError):
        vt_code(5, 6)
    with pytest.raises(ValueError):
        vt_code(5, -1)


@pytest.mark.parametrize("a", [True, 1.0])
def test_vt_code_rejects_a_residue_that_is_not_an_int(a):
    message = f"residue must be in 0..5, got {a!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        vt_code(5, a)


def test_all_vt_codes_are_single_deletion_codes():
    # surfaces within one residue class never intersect
    from delcodes.sdecc import is_sdecc

    for n in range(2, 9):
        for a in range(n + 1):
            assert is_sdecc(vt_code(n, a))


# ------------------------------------------------------------ phi and moebius


@pytest.mark.parametrize("d", list(range(1, 200)) + [720, 1024, 2310])
def test_phi_against_coprime_count(d):
    assert euler_phi(d) == _phi_oracle(d)


@pytest.mark.parametrize("d", list(range(1, 200)) + [720, 1024, 2310])
def test_moebius_against_factorization_oracle(d):
    assert moebius(d) == _mu_oracle(d)


def test_phi_and_moebius_reject_nonpositive():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            euler_phi(bad)
        with pytest.raises(ValueError):
            moebius(bad)


# -------------------------------------------------------------- size formulas


@pytest.mark.parametrize("n", range(1, 15))
def test_formulas_match_enumeration(n):
    assert vt0_size(n) == len(vt_code(n, 0))
    assert vt1_size(n) == len(vt_code(n, 1))


def test_formula_values_from_known_table():
    known_vt0 = {
        2: 2, 3: 2, 4: 4, 5: 6, 6: 10, 7: 16, 8: 30, 9: 52, 10: 94,
        11: 172, 12: 316, 13: 586, 14: 1096, 15: 2048,
    }
    for n, size in known_vt0.items():
        assert vt0_size(n) == size
    assert vt1_size(5) == 5
    assert vt1_size(8) == 28


def test_formula_range_guard():
    assert vt0_size(62) > 0  # top of the supported range
    for bad in (0, 63):
        with pytest.raises(ValueError):
            vt0_size(bad)
        with pytest.raises(ValueError):
            vt1_size(bad)


@pytest.mark.parametrize("size", [vt0_size, vt1_size])
def test_formula_rejects_a_bool_length(size):
    message = "formula supports 1 <= n <= 62, got True"
    with pytest.raises(ValueError, match=re.escape(message)):
        size(True)


def test_vt0_is_never_smaller_than_other_residues():
    for n in range(1, 11):
        sizes = [len(vt_code(n, a)) for a in range(n + 1)]
        assert vt0_size(n) == max(sizes)


# ---------------------------------------------------------------- perfectness


@pytest.mark.parametrize("n", range(2, 11))
def test_vt0_is_perfect(n):
    assert is_perfect(vt_code(n, 0))


def test_vt0_length_five_surfaces_partition_sixteen_words():
    code = vt_code(5, 0)
    sizes = sorted(len(deletion_surface(w)) for w in code)
    assert sizes == [1, 2, 2, 3, 3, 5]
    union = set()
    for w in code:
        surf = set(deletion_surface(w).values)
        assert not (union & surf)
        union |= surf
    assert len(union) == 16


def test_imperfect_cases():
    # a valid code that covers too little
    assert not is_perfect(WordSet(3, [0]))
    # overlapping surfaces
    assert not is_perfect(WordSet.from_words(
        [Word.parse("000"), Word.parse("001")]
    ))
    # at n = 1 the surfaces tile {0,1}^0 when they cover the empty word
    # exactly once
    for k in range(3):
        for values in itertools.combinations((0, 1), k):
            surfaces = [surface_values(1, v) for v in values]
            tiles = sum(map(len, surfaces)) == len(set().union(*surfaces)) == 1
            assert is_perfect(WordSet(1, values)) == tiles == (k == 1), values


def test_perfectness_needs_disjoint_surfaces_and_full_cover():
    # run sum 1 + 3 = 4 = 2^2, but both surfaces hold 00
    assert not is_perfect(WordSet.from_words(
        [Word.parse("000"), Word.parse("010")]
    ))
    # disjoint surfaces {00} and {11} with a run sum of 2 < 4
    assert not is_perfect(WordSet.from_words(
        [Word.parse("000"), Word.parse("111")]
    ))
    # every word of length 4: the union is all 8 shorter words, but the
    # run sum is far larger
    assert not is_perfect(WordSet(4, range(16)))


@pytest.mark.parametrize("n", range(2, 9))
def test_every_residue_class_is_perfect(n):
    # the n+1 residue classes partition the words, and each one tiles
    # the shorter space with its deletion surfaces
    for a in range(n + 1):
        assert is_perfect(vt_code(n, a))


# -------------------------------------------------------------- file exchange


def test_code_round_trip_through_text():
    code = vt_code(6, 0)
    text = format_code(code)
    assert parse_code(text) == code


def test_parse_code_accepts_comments_and_blanks():
    text = "# a comment\n\n01010\n# another\n00111\n"
    code = parse_code(text)
    assert [str(w) for w in code] == ["00111", "01010"]


def test_parse_code_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_code("0101\n010\n")  # mixed lengths
    with pytest.raises(ValueError):
        parse_code("01a1\n")
    with pytest.raises(ValueError):
        parse_code("# only comments\n")
