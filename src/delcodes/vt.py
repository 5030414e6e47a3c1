"""VT congruence codes, exact size formulas, and perfectness.

VT_a(n) collects the length-n words whose weighted sum sum(i * x_i) is
congruent to a modulo n+1. The two closed-form sizes below cover a = 0
(Euler phi over odd divisors of n+1) and a = 1 (same sum with the Moebius
function); no closed form is implemented for other residues.
"""

from __future__ import annotations

from .bitseq import (
    Word,
    WordSet,
    _check_length,
    _check_range,
    _is_int,
    surface_size_sum,
    surface_union_size,
)

FORMULA_MAX_N = 62

CODE_FILE_HEADER = "# delcodes code file"


def vt_syndrome(x: Word) -> int:
    """sum(i * x_i) mod (n + 1), positions counted 1..n from the left."""
    n = x.n
    s = 0
    v = x.value
    while v:
        low = v & -v
        s += n - low.bit_length() + 1
        v ^= low
    return s % (n + 1)


def vt_code(n: int, a: int) -> WordSet:
    """All length-n words with syndrome a mod (n + 1), in ascending order.

    Each value splits into a high half (the top n - n//2 bits) and a low
    half (the n//2 bits below), and the syndrome is the sum of the two
    halves' weighted sums. The low halves are bucketed by their sum mod
    n + 1 once; each high half, in ascending order, then takes the whole
    bucket that completes residue a. The work is about 2^n / (n + 1)
    words, the size of the class, rather than 2^n.
    """
    _check_length(n)
    m = n + 1
    if not _is_int(a) or not 0 <= a < m:
        raise ValueError(f"residue must be in 0..{n}, got {a!r}")
    h = n // 2
    buckets: list[list[int]] = [[] for _ in range(m)]
    for low, s in enumerate(_syndrome_table(n, 0, h)):
        buckets[s % m].append(low)
    members: list[int] = []
    for high, s in enumerate(_syndrome_table(n, h, n)):
        members.extend(map((high << h).__or__, buckets[(a - s) % m]))
    return WordSet(n, members)


def _syndrome_table(n: int, lo_bit: int, hi_bit: int) -> list[int]:
    """Weighted-position sums for every pattern of bits lo_bit..hi_bit-1."""
    width = hi_bit - lo_bit
    table = [0] * (1 << width)
    for v in range(1, 1 << width):
        low = v & -v
        # bit lo_bit+k of the word sits at 1-based position n-(lo_bit+k)
        table[v] = table[v ^ low] + (n - (lo_bit + low.bit_length() - 1))
    return table


def _prime_powers(d: int) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing d, p ascending."""
    powers = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            powers.append((p, k))
        p += 1 if p == 2 else 2
    if d > 1:
        powers.append((d, 1))
    return powers


def euler_phi(d: int) -> int:
    """Count of integers in 1..d coprime to d."""
    if d < 1:
        raise ValueError(f"phi is defined for positive integers, got {d}")
    result = 1
    for p, k in _prime_powers(d):
        result *= (p - 1) * p ** (k - 1)
    return result


def moebius(d: int) -> int:
    """0 if d has a squared prime factor, else (-1)^(number of prime factors)."""
    if d < 1:
        raise ValueError(f"mu is defined for positive integers, got {d}")
    powers = _prime_powers(d)
    return 0 if any(k > 1 for _, k in powers) else (-1) ** len(powers)


def _odd_divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0 and d % 2 == 1]


def _divisor_sum_size(n: int, weight) -> int:
    _check_range(n, 1, FORMULA_MAX_N, "formula supports")
    m = n + 1
    total = sum(weight(d) * (1 << (m // d)) for d in _odd_divisors(m))
    if total % (2 * m):
        raise RuntimeError(
            f"divisor sum {total} not divisible by {2 * m} at n={n}; "
            "size formula implementation is broken"
        )
    return total // (2 * m)


def vt0_size(n: int) -> int:
    """|VT_0(n)| = (1 / 2(n+1)) * sum over odd d | n+1 of phi(d) 2^((n+1)/d)."""
    return _divisor_sum_size(n, euler_phi)


def vt1_size(n: int) -> int:
    """|VT_1(n)| = (1 / 2(n+1)) * sum over odd d | n+1 of mu(d) 2^((n+1)/d)."""
    return _divisor_sum_size(n, moebius)


def is_perfect(code: WordSet) -> bool:
    """Whether the single-deletion surfaces of the code tile {0,1}^(n-1).

    True exactly when the surfaces are pairwise disjoint and their union is
    all of {0,1}^(n-1): every shorter word then has a unique decoding. A
    word's surface has one member per run of the word, so that holds when
    the run sum, the union size and 2^(n-1) all agree. At n = 1 the one
    shorter word is the empty word, so {0} and {1} are perfect.
    """
    n = code.n
    values = code.values
    return (
        surface_size_sum(n, values) == 1 << (n - 1)
        == surface_union_size(n, values)
    )


def parse_code(text: str) -> WordSet:
    """Read a code from newline-separated words; '#' starts a comment line."""
    values: list[int] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if any(ch not in "01" for ch in line):
            raise ValueError(f"line {lineno}: not a binary word: {line!r}")
        if n is None:
            n = len(line)
        elif len(line) != n:
            raise ValueError(
                f"line {lineno}: length {len(line)} differs from {n}"
            )
        values.append(int(line, 2))
    if n is None:
        raise ValueError("code file contains no words")
    return WordSet(n, values)


def format_code(code: WordSet) -> str:
    """Render a code in the exchange format, one word per line."""
    lines = [CODE_FILE_HEADER, f"# n={code.n} size={len(code)}"]
    lines.extend(format(v, f"0{code.n}b") for v in code.values)
    return "\n".join(lines) + "\n"
