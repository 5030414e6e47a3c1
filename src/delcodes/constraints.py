"""Linear constraint families over the 0-1 word-selection variables.

Each family states a fact about valid (or some maximum) single-deletion
codes as linear rows over the variables V_x, one per length-n word:

  C0  per-center packing: every length-(n-1) word is covered at most once
  C1  total size at least |VT_0(n)|
  C2  words with a strictly smaller-surfaced rival are excluded
  C3  the all-zero and all-one words are selected
  C4  light words (weight below n/2) at least match heavy words
  C5  per-weight run-count capacities
  C6  fixed prefix/suffix sections are themselves small codes

C0 alone carves out exactly the valid codes. C1..C6 hold for some maximum
code, so they do not lower the best objective; C2 removes words that some
maximum code avoids. They are stated for external solvers and do not
narrow the built-in solver's search: the model's LP relaxation with every
family equals C0's for n = 6..11, and with greedy covers alone
solve_builtin at n = 7 takes 26,511 nodes for {C0}, {C0, C1} and
{C0, C4}, and 63,841 for {C0, C6} (ROADMAP item 15).

Rows hold (word value, coefficient) int terms, each coefficient-1 term
being its word's one pair from ilp._unit_terms; the ilp module names
variables x_<bits> only in files. build_model assembles any selection
into a model for the ilp module. Each generator fixes the shape of its
rows itself (a valid sense, a label of its own without whitespace,
distinct values below 2^n, no zero coefficient), so the rows and the
model are built without the checks of LinearConstraint and IlpModel;
build_model still rejects the labels that repeated c6_params repeat.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple, Sequence

from .bitseq import Word, WordSet, _Frozen, _check_range, _is_int, runs_of
from .ilp import (
    IlpModel,
    LinearConstraint,
    _unchecked_model,
    _unchecked_row,
    _unit_terms,
)
from .sdecc import GRAPH_MAX_N, KNOWN_SIZES, conflict_graph
from .vt import vt0_size

GEN_MAX_N = GRAPH_MAX_N  # the conflict graph's memory guard

FAMILY_IDS = ("C0", "C1", "C2", "C3", "C4", "C5", "C6")

# (p, q) candidates for the convenience preset, smallest sections first
_PRESET_PQ = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _check_n(n: int) -> None:
    _check_range(n, 2, GEN_MAX_N, "constraint generation supports")


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b") if width else "-"


class ConstraintFamily(_Frozen):
    """One generated family: its id, parameters, and rows.

    Its length is its number of rows.
    """

    __slots__ = _fields = ("id", "parameters", "constraints")

    def __init__(
        self,
        id: str,
        parameters: tuple[tuple[str, int], ...],
        constraints: tuple[LinearConstraint, ...],
    ) -> None:
        self._set(id, parameters, constraints)

    def __len__(self) -> int:
        return len(self.constraints)


class RunClass(NamedTuple):
    """Words of one length grouped by weight and run counts."""

    n: int
    w: int
    alpha: int
    beta: int


def run_class_members(rc: RunClass) -> WordSet:
    """All length-n words with weight w, alpha 0-runs, and beta 1-runs.

    Empty whenever the shape is impossible, in particular when the run
    counts differ by more than one or there are more 1-runs than 1s.
    """
    n = rc.n
    _check_range(n, 1, GEN_MAX_N, "run classes support")
    for name, value in (("w", rc.w), ("alpha", rc.alpha), ("beta", rc.beta)):
        if not 0 <= value <= n:
            raise ValueError(f"{name} must lie in 0..{n}, got {value}")
    members = [
        v
        for v in range(1 << n)
        if v.bit_count() == rc.w
        and runs_of(v, n, 0) == rc.alpha
        and runs_of(v, n, 1) == rc.beta
    ]
    return WordSet(n, members)


def gen_c0(n: int) -> ConstraintFamily:
    """Packing rows: each length-(n-1) center is covered at most once.

    One row per center y, over the n+1 words whose surface contains y:
    y's clique in the conflict graph. These rows alone characterize
    validity; every other family assumes they are present.
    """
    _check_n(n)
    unit = _unit_terms(n)
    rows = tuple(
        _unchecked_row(
            terms=tuple(map(unit.__getitem__, members)),
            sense="<=",
            rhs=1,
            label=f"c0_y{_bits(center, n - 1)}",
        )
        for center, members in conflict_graph(n).cliques_by_center.items()
    )
    return ConstraintFamily("C0", (), rows)


def gen_c1(n: int) -> ConstraintFamily:
    """One row: the selection is at least as large as VT_0(n)."""
    _check_n(n)
    row = _unchecked_row(
        terms=tuple(_unit_terms(n)),
        sense=">=",
        rhs=vt0_size(n),
        label="c1",
    )
    return ConstraintFamily("C1", (), (row,))


def dominated_words(n: int) -> set[Word]:
    """Words x for which some y has dS(y) a proper subset of dS(x).

    Such an x can be swapped for its smaller-surfaced rival in any code,
    so some maximum code avoids x entirely. There are 4n-6 of them: the
    words of weight 1 or n-1, and 0^k 1 0 1^(n-2-k) and its complement
    for 1 <= k <= n-3. The reason: two distinct words of one length share
    at most two single-deletion results (Levenshtein, "Efficient
    reconstruction of sequences", IEEE Trans. Inf. Theory 2001). So when
    dS(y) lies strictly inside dS(x), it lies in dS(x) & dS(y), which has
    at most two elements, and y has at most two runs. For y = 0^n the
    rivals are the weight-1 words. For y = 0^a 1^b the only word other
    than y that both of y's deletions reach by one insertion is
    0^(a-1) 1 0 1^(b-1). The 1-led cases follow by complement.
    """
    _check_n(n)
    top = (1 << n) - 1
    # weight 1, then 0^k 1 0 1^m for k, m >= 1 with k + m = n - 2
    half = [1 << i for i in range(n)]
    half += [(2 << m) | ((1 << m) - 1) for m in range(1, n - 2)]
    return {Word(n, v) for x in half for v in (x, top ^ x)}


def gen_c2(n: int) -> ConstraintFamily:
    """Exclusion rows: every dominated word is fixed to 0.

    The dominated words are the 4n-6 words of weight 1 or n-1 and
    0^k 1 0 1^(n-2-k) with its complement for 1 <= k <= n-3; that two
    words share at most two deletions (Levenshtein 2001) leaves no others
    (see dominated_words). The built-in searches apply the same rule by
    themselves at the root of their shared kernel (sdecc._drop_dominated),
    wherever the model's other rows allow the swap; these rows state it
    for external solvers.
    """
    _check_n(n)
    unit = _unit_terms(n)
    rows = tuple(
        _unchecked_row(
            terms=(unit[w.value],),
            sense="=",
            rhs=0,
            label=f"c2_x{w}",
        )
        for w in sorted(dominated_words(n))
    )
    return ConstraintFamily("C2", (), rows)


def gen_c3(n: int) -> ConstraintFamily:
    """Fix the all-zero and all-one words into the selection.

    Some maximum code contains both, so the fixing preserves the optimum
    while breaking symmetry. Neither word is ever dominated: each has a
    single-element surface.
    """
    _check_n(n)
    unit = _unit_terms(n)
    zero = _unchecked_row(
        terms=(unit[0],), sense="=", rhs=1, label="c3_zero"
    )
    one = _unchecked_row(
        terms=(unit[-1],), sense="=", rhs=1, label="c3_one"
    )
    return ConstraintFamily("C3", (), (zero, one))


def gen_c4(n: int) -> ConstraintFamily:
    """Weight balance: light words at least match heavy words.

    Complementing every word maps codes to codes and swaps the two sides,
    so some maximum code satisfies the row. For even n the middle weight
    n/2 appears on both sides and cancels; those words are omitted rather
    than listed with coefficient 0.
    """
    _check_n(n)
    unit = _unit_terms(n)
    terms = []
    for v in range(1 << n):
        doubled = 2 * v.bit_count()
        if doubled < n:
            terms.append(unit[v])
        elif doubled > n:
            terms.append((v, -1))
    row = _unchecked_row(
        terms=tuple(terms), sense=">=", rhs=0, label="c4"
    )
    return ConstraintFamily("C4", (), (row,))


def gen_c5(n: int, strengthened: bool = False) -> ConstraintFamily:
    """Run-count capacity rows, one per weight w of the shorter length.

    Deleting a 0 from a weight-w word or a 1 from a weight-(w+1) word
    lands in the weight-w words of length n-1, and a valid code's
    landings are all distinct, so row w reads: every weight-w word
    contributes its 0-run count, every weight-(w+1) word its 1-run
    count, and the total is at most C(n-1, w).

    With strengthened=True (sound only when the all-zero word is fixed
    into the selection, as C3 does), the w=1 row drops the weight-1
    terms: those words conflict with the all-zero word and cannot be
    selected. The right-hand side C(n-1, 1) = n-1 is unchanged.

    The w = 0 and w = n-1 rows are C0's rows for 0^(n-1) and 1^(n-1).
    They stay in the model, so an external solver reads the same LP; the
    built-in solver keeps one packing row per member set.
    """
    _check_n(n)
    unit = _unit_terms(n)

    def term(v: int, coeff: int) -> tuple[int, int]:
        return unit[v] if coeff == 1 else (v, coeff)

    by_weight: dict[int, list[tuple[int, int]]] = {w: [] for w in range(n)}
    for v in range(1 << n):
        weight = v.bit_count()
        if weight <= n - 1:
            by_weight[weight].append(term(v, runs_of(v, n, 0)))
        if weight >= 1:
            by_weight[weight - 1].append(term(v, runs_of(v, n, 1)))
    rows = []
    for w in range(n):
        terms = by_weight[w]
        if strengthened and w == 1:
            terms = [term for term in terms if term[0].bit_count() == 2]
        terms.sort()
        rows.append(_unchecked_row(
            terms=tuple(terms),
            sense="<=",
            rhs=comb(n - 1, w),
            label=f"c5_w{w}",
        ))
    params = (("strengthened", int(strengthened)),)
    return ConstraintFamily("C5", params, tuple(rows))


def _known_m(r: int) -> int | None:
    entry = KNOWN_SIZES.get(r)
    return entry[0] if entry else None


def gen_c6(n: int, p: int, q: int) -> ConstraintFamily:
    """Section rows: each fixed prefix/suffix holds a short code.

    For every prefix u of length p and suffix v of length q, the middle
    sections of selected words of the form u x v form a valid code of
    length r = n - p - q, so their count is at most the exact maximum
    M(r), read from the embedded known-value table; lengths whose maximum
    is unestablished are rejected.
    """
    _check_n(n)
    if not (_is_int(p) and _is_int(q)) or p < 0 or q < 0:
        raise ValueError(
            f"section widths must be nonnegative, got p={p!r} q={q!r}"
        )
    if p + q == 0:
        raise ValueError("at least one of p, q must be positive")
    r = n - p - q
    if r < 2:
        raise ValueError(f"middle section must keep length >= 2, got r={r}")
    m_r = _known_m(r)
    if m_r is None:
        raise ValueError(f"exact maximum for length {r} is not known")
    unit = _unit_terms(n)
    rows = []
    for u in range(1 << p):
        for v in range(1 << q):
            head = u << (r + q)
            tail = v
            terms = tuple(unit[head | (x << q) | tail] for x in range(1 << r))
            rows.append(_unchecked_row(
                terms=terms,
                sense="<=",
                rhs=m_r,
                label=f"c6_p{p}q{q}_u{_bits(u, p)}_v{_bits(v, q)}",
            ))
    params = (("p", p), ("q", q))
    return ConstraintFamily("C6", params, tuple(rows))


def c6_preset(n: int) -> tuple[tuple[int, int], ...]:
    """Default C6 parameters: all (p, q) with p + q <= 2 that are usable.

    Usable means the middle keeps length at least 2 and its exact maximum
    is known. Small sections first, prefix before suffix.
    """
    _check_n(n)
    return tuple(
        (p, q)
        for p, q in _PRESET_PQ
        if n - p - q >= 2 and _known_m(n - p - q) is not None
    )


def build_model(
    n: int,
    selected: Iterable[str],
    c6_params: Sequence[tuple[int, int]] | None = None,
) -> IlpModel:
    """Assemble selected families into a maximize-cardinality model.

    C0 must be selected: without the packing rows the variables do not
    describe codes at all. C5 is emitted in its strengthened form exactly
    when C3 is co-selected. C6 uses c6_params when given, otherwise the
    preset; passing c6_params without selecting C6 is rejected.
    """
    _check_n(n)
    ids = {str(s).upper() for s in selected}
    unknown = ids - set(FAMILY_IDS)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")
    if "C0" not in ids:
        raise ValueError("C0 is the validity core and must be selected")
    if c6_params is not None and "C6" not in ids:
        raise ValueError("c6_params given but C6 not selected")

    # held while the families are built, so that they share its pairs
    unit = _unit_terms(n)
    families: list[ConstraintFamily] = [gen_c0(n)]
    if "C1" in ids:
        families.append(gen_c1(n))
    if "C2" in ids:
        families.append(gen_c2(n))
    if "C3" in ids:
        families.append(gen_c3(n))
    if "C4" in ids:
        families.append(gen_c4(n))
    if "C5" in ids:
        families.append(gen_c5(n, strengthened="C3" in ids))
    pairs: tuple[tuple[int, int], ...] = ()
    if "C6" in ids:
        pairs = tuple(c6_params) if c6_params is not None else c6_preset(n)
        for p, q in pairs:
            families.append(gen_c6(n, p, q))

    constraints = tuple(
        row for family in families for row in family.constraints
    )

    from . import __version__

    metadata = {
        "generator": f"delcodes {__version__}",
        "n": n,
        "families": tuple(sorted(ids)),
        "c6_params": pairs,
    }
    # repeated c6_params repeat labels, which IlpModel words as its error
    if len({row.label for row in constraints}) != len(constraints):
        return IlpModel(n=n, constraints=constraints, metadata=metadata)
    return _unchecked_model(n, constraints, metadata)
