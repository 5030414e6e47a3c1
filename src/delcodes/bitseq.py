"""Fixed-length binary words packed into ints, plus deletion primitives.

A word x_1..x_n (1 <= n <= 24) is stored as the integer whose binary
rendering, zero-padded to n digits, equals the word read left to right:
bit n-i of the int holds x_i. Canonical order over equal-length words is
therefore plain integer order.

The Word/WordSet classes are the public face; the module also exposes the
raw int helpers (delete_position, surface_values, insertion_values) that
the graph, search, and constraint generators use in their hot loops, and
two whole-set counts the validity and perfectness checks rest on:
surface_size_sum adds up a code's surface sizes from its run counts, and
surface_union_size counts the union of its deletion surfaces with bit
operations on a 2^n-bit mask instead of a set of |C| n ints.

insertion_values and surface_size_sum work word-parallel: they pack words
into the 32-bit fields of one int (a word and its insertions have at most
MAX_LEN + 1 bits) and act on every field with a few big-int operations,
moving fields in and out through '<I' structs.
"""

from __future__ import annotations

import functools
import itertools
import struct
from typing import Iterable, Iterator

MAX_LEN = 24


def _is_int(x: object) -> bool:
    """Whether x is an int and not a bool, which is an int too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_length(n: int) -> None:
    # the int test is written out, not a call of _is_int: every Word
    # construction runs it
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"word length must be an int, got {n!r}")
    if not 1 <= n <= MAX_LEN:
        raise ValueError(f"word length must be in 1..{MAX_LEN}, got {n}")


def _check_range(n: int, lo: int, hi: int, what: str) -> None:
    """Refuse n unless it is an int, not a bool, in lo..hi."""
    if not _is_int(n) or not lo <= n <= hi:
        raise ValueError(f"{what} {lo} <= n <= {hi}, got {n!r}")


class _Frozen:
    """Base of the package's value types: fields fixed after __init__.

    A subclass names its fields, in signature order, in _fields; they give
    equality (within one type), the hash, the repr and pickling. __init__
    sets them past the refusing __setattr__, with _set or, where
    construction is hot, through each slot's member descriptor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        # in _fields order, so that instance dicts share the class's key
        # layout
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__name__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class Word(_Frozen):
    """One binary word; position 1 is the leftmost symbol.

    Words compare, order and hash by (n, value), among Words only:
    _Frozen gives equality and the hash, and total_ordering the orderings
    other than __lt__.
    """

    __slots__ = _fields = ("n", "value")

    def __init__(self, n: int, value: int) -> None:
        _check_length(n)
        # a plain int, the hot case, skips the call
        if value.__class__ is not int and not _is_int(value):
            raise ValueError(f"word value must be an int, got {value!r}")
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        _set_word_n(self, n)
        _set_word_value(self, value)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Build a word from a string of '0' and '1' characters."""
        if not text or text.strip("01"):
            raise ValueError(f"not a binary word: {text!r}")
        return cls(len(text), int(text, 2))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.value) < (other.n, other.value)

    def bit(self, i: int) -> int:
        """Symbol at 1-based position i, counted from the left."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        return (self.value >> (self.n - i)) & 1

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"Word.parse({str(self)!r})"


_set_word_n = Word.n.__set__
_set_word_value = Word.value.__set__


class WordSet(_Frozen):
    """An immutable set of words sharing one length, iterated canonically."""

    __slots__ = ("n", "_sorted", "_members")
    _fields = ("n", "values")

    def __init__(self, n: int, values: Iterable[int | Word] = ()):
        _check_length(n)
        items = values if isinstance(values, (list, tuple)) else list(values)
        # plain ints are checked in bulk, by their types and the ends of
        # their sorted order; Word members, other types and out-of-range
        # values take the loop, which names the first offender in input
        # order
        try:
            vals = frozenset(items)
            fits = {*map(type, vals)} <= {int}
        except TypeError:
            fits = False
        if fits:
            ordered = sorted(vals)
            fits = not ordered or 0 <= ordered[0] and ordered[-1] < (1 << n)
        if not fits:
            checked = set()
            for v in items:
                if isinstance(v, Word):
                    if v.n != n:
                        raise ValueError(
                            f"word {v} has length {v.n}, expected {n}"
                        )
                    v = v.value
                elif not _is_int(v):
                    raise ValueError(f"word value must be an int, got {v!r}")
                elif not 0 <= v < (1 << n):
                    raise ValueError(f"value {v} does not fit in {n} bits")
                checked.add(v)
            vals = frozenset(checked)
            ordered = sorted(vals)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_sorted", tuple(ordered))
        object.__setattr__(self, "_members", vals)

    @classmethod
    def from_words(cls, words: Iterable[Word]) -> "WordSet":
        ws = list(words)
        if not ws:
            raise ValueError("cannot infer length from an empty iterable")
        return cls(ws[0].n, ws)

    @property
    def values(self) -> tuple[int, ...]:
        """Member values in ascending order."""
        return self._sorted

    @property
    def members(self) -> frozenset[int]:
        """Member values as a frozenset, for set operations."""
        return self._members

    def has_value(self, value: int) -> bool:
        return value in self._members

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self) -> Iterator[Word]:
        n = self.n
        return (Word(n, v) for v in self._sorted)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Word):
            return item.n == self.n and item.value in self._members
        return False

    def __repr__(self) -> str:
        if len(self._sorted) <= 8:
            body = ", ".join(format(v, f"0{self.n}b") for v in self._sorted)
            return f"WordSet(n={self.n}, {{{body}}})"
        return f"WordSet(n={self.n}, size={len(self._sorted)})"


def hamming_weight(x: Word) -> int:
    """Number of 1 symbols in x."""
    return x.value.bit_count()


def runs_of(value: int, n: int, b: int) -> int:
    """Number of maximal runs of symbol b in the n-bit packed value."""
    if b == 0:
        value = ~value & ((1 << n) - 1)
    elif b != 1:
        raise ValueError(f"symbol must be 0 or 1, got {b}")
    # each run contributes exactly one bit that has a 0 above it
    return (value & ~(value >> 1)).bit_count()


def run_count(x: Word, b: int) -> int:
    """Number of maximal runs of symbol b in x."""
    return runs_of(x.value, x.n, b)


def levenshtein_id(x: Word, y: Word) -> int:
    """Insertion/deletion edit distance: n + m - 2 * lcs(x, y)."""
    a, b = str(x), str(y)
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return len(a) + len(b) - 2 * prev[-1]


def delete_position(value: int, n: int, i: int) -> int:
    """Packed value with 1-based position i removed (result has n-1 bits)."""
    k = n - i
    return ((value >> (k + 1)) << k) | (value & ((1 << k) - 1))


def surface_values(n: int, value: int) -> set[int]:
    """Distinct packed values reachable from value by one deletion."""
    return {delete_position(value, n, i) for i in range(1, n + 1)}


def insertion_values(n: int, value: int) -> tuple[int, ...]:
    """The n+2 distinct packed values reachable from an n-bit value by one
    insertion, in no particular order.

    Inserting b above the k low bits keeps those bits, shifts the rest up
    by one and puts b at bit k. For k >= 1, inserting bit k-1 itself gives
    the same word as inserting it at k-1, so only its complement is
    inserted there; at k = 0 both bits are. That makes exactly the n+2
    distinct insertions. They are built at once, one per 32-bit field of
    a single int: value times the spread holds a copy of value in every
    field, and each field's masks make its own insertion.
    """
    spread, high, low, flip, fields = _insertion_fields(n)
    copies = value * spread
    return fields.unpack(
        ((copies << 1 & high ^ flip) | copies & low).to_bytes(
            fields.size, "little"
        )
    )


@functools.lru_cache(maxsize=MAX_LEN + 1)
def _insertion_fields(n: int) -> tuple[int, int, int, int, struct.Struct]:
    """(spread, high, low, flip, fields) for the n+2 32-bit fields.

    spread has a 1 at the bottom of every field. Field 0 keeps the value
    shifted up by one, which inserts 0 at k = 0; field k+1, for
    k = 0..n, keeps the bits of the shifted copy at k and up, so bit k
    holds value's bit k-1 (0 for k = 0), flips bit k to its complement
    and takes the k low bits of the unshifted copy. Insertions have at
    most MAX_LEN + 1 bits, so no field carries into the next.
    """
    field = (1 << 32) - 1
    spread = high = low = flip = 0
    for k in range(-1, n + 1):
        shift = 32 * (k + 1)
        spread |= 1 << shift
        if k < 0:
            high |= field << shift
        else:
            high |= (field & -1 << k) << shift
            low |= ((1 << k) - 1) << shift
            flip |= 1 << k << shift
    return spread, high, low, flip, struct.Struct(f"<{n + 2}I")


_RUN_CHUNK = 4096  # words per packed int in surface_size_sum


def surface_size_sum(n: int, values: Iterable[int]) -> int:
    """Sum of the single-deletion surface sizes of n-bit values.

    A word's surface has one member per run of the word, and each run
    after the first starts where two adjacent bits differ. The values are
    packed _RUN_CHUNK at a time into the 32-bit fields of one int p, so
    each chunk's run starts are the set bits of (p ^ p >> 1) masked to the
    n-1 low bits of every field, counted at once; the shift's carry from
    one field lands on bit 31 of the one below, which the mask drops.
    """
    edges = ((1 << (n - 1)) - 1).to_bytes(4, "little")
    values = iter(values)
    total = 0
    while chunk := list(itertools.islice(values, _RUN_CHUNK)):
        size = len(chunk)
        p = int.from_bytes(struct.pack(f"<{size}I", *chunk), "little")
        mask = int.from_bytes(edges * size, "little")
        total += ((p ^ p >> 1) & mask).bit_count() + size
    return total


def surface_union_size(n: int, values: Iterable[int]) -> int:
    """Size of the union of the single-deletion surfaces of n-bit values.

    Works on the whole set at once. The values become a 2^n-bit mask with
    bit v set for each value v, so for every bit position k the deletion
    results are that mask with each index's bit k removed: the half of
    the mask whose index has bit k = 1 is folded onto the half where it is
    0, and bit k is squeezed out of the index. Bit i of the mask is bit
    i & 7 of byte i >> 3, so for k >= 3 bit k names whole blocks of
    2^(k-3) bytes and the squeeze is byte slicing; for k < 3 it stays
    inside each byte and goes through a 256-entry translate table. The
    work is about n 2^n / 8 bytes and the memory a few 2^n / 8-byte
    buffers, whatever the number of values.
    """
    size = max(1, (1 << n) >> 3)  # bytes of the 2^n-bit mask
    buf = bytearray(size)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    mask = int.from_bytes(buf, "little")
    union = 0
    for k in range(n):
        # afterwards bit i, for i with bit k = 0, covers i and i | 2^k
        folded = (mask | mask >> (1 << k)).to_bytes(size, "little")
        union |= _squeeze_bit(folded, k)
    return union.bit_count()


def _squeeze_bit(mask: bytes, k: int) -> int:
    """The bits of a little-endian bit mask whose index has bit k = 0, in
    index order."""
    if k < 3:
        # each byte keeps a nibble; nibbles of odd bytes move up by four
        tables = _squeeze_tables()
        nibbles = mask.translate(tables[k])
        high = nibbles[1::2].translate(tables[3])
        return int.from_bytes(nibbles[0::2], "little") | int.from_bytes(
            high, "little"
        )
    block = 1 << (k - 3)  # bytes per run of indices with one value of bit k
    step = 2 * block
    if block * block <= len(mask) >> 1:
        # fewer strides than blocks: byte t of every kept block at once
        out = bytearray(len(mask) >> 1)
        for t in range(block):
            out[t::block] = mask[t::step]
    else:
        out = b"".join(mask[i:i + block] for i in range(0, len(mask), step))
    return int.from_bytes(out, "little")


@functools.cache
def _squeeze_tables() -> tuple[bytes, ...]:
    """Translate tables: for k < 3, entry b packs the four bits of b whose
    index has bit k = 0 into a nibble; the last one shifts a nibble up."""
    byte = range(256)
    return (
        bytes(b & 1 | b >> 1 & 2 | b >> 2 & 4 | b >> 3 & 8 for b in byte),
        bytes(b & 3 | b >> 2 & 12 for b in byte),
        bytes(b & 15 for b in byte),
        bytes(b << 4 & 0xFF for b in byte),
    )


def deletion_surface(x: Word, t: int = 1) -> WordSet:
    """All distinct words obtained from x by deleting exactly t symbols.

    Iterates single deletions t times with dedup at every level; the radius-1
    surface of x has run_count(x, 0) + run_count(x, 1) members.
    """
    if not _is_int(t) or t < 1:
        raise ValueError(f"deletion count must be a positive int, got {t!r}")
    if t >= x.n:
        raise ValueError(f"cannot delete {t} symbols from a length-{x.n} word")
    level = {x.value}
    n = x.n
    for _ in range(t):
        level = {d for v in level for d in surface_values(n, v)}
        n -= 1
    return WordSet(n, level)


def concat(parts: Iterable[Word]) -> Word:
    """Concatenate words left to right into one word."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat needs at least one word")
    n = 0
    value = 0
    for p in parts:
        n += p.n
        if n > MAX_LEN:
            raise ValueError(f"concatenated length {n} exceeds {MAX_LEN}")
        value = (value << p.n) | p.value
    return Word(n, value)


def complement(x: Word) -> Word:
    """Flip every symbol of x."""
    return Word(x.n, x.value ^ ((1 << x.n) - 1))


def enumerate_words(n: int) -> Iterator[Word]:
    """All words of length n in canonical (ascending value) order."""
    _check_length(n)
    return (Word(n, v) for v in range(1 << n))
