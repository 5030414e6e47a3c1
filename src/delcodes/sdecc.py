"""Single-deletion code validity, decoding, conflict graphs, and exact maxima.

A set of length-n words is a valid single-deletion code when the deletion
surfaces of its members are pairwise disjoint; any received length-(n-1)
word then points back to at most one codeword. The conflict graph makes the
pairwise condition concrete: vertices are all 2^n words, edges join words
whose surfaces intersect, and independent sets are exactly the valid codes.
Every center y of length n-1 induces a clique of n+1 vertices (its possible
originals); covers by these cliques, both greedy and LP-weighted, drive the
pruning of the exact search, and the same cliques become the covering rows
of the generated ILP models. Before branching, the exact search drops
every word whose deletion surface contains another word's: swapping it for
that rival keeps any code valid, so some maximum code avoids it.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .bitseq import (
    Word,
    WordSet,
    insertion_values,
    surface_values,
)
from .vt import vt0_size, vt_code

GRAPH_MAX_N = 14

# n -> (|VT_0(n)|, exact maximum when known, best published upper bound)
KNOWN_SIZES: dict[int, tuple[int, int | None, int]] = {
    2: (2, 2, 2),
    3: (2, 2, 2),
    4: (4, 4, 4),
    5: (6, 6, 6),
    6: (10, 10, 10),
    7: (16, 16, 16),
    8: (30, 30, 30),
    9: (52, 52, 52),
    10: (94, 94, 94),
    11: (172, 172, 172),
    12: (316, None, 320),
    13: (586, None, 593),
    14: (1096, None, 1104),
    15: (2048, None, 2184),
}


class SdeccResult(NamedTuple):
    """Validity verdict; truthy exactly when the code is a valid SDECC."""

    ok: bool
    first_pair: tuple[Word, Word] | None
    shared: Word | None

    def __bool__(self) -> bool:
        return self.ok


def is_sdecc(code: WordSet) -> SdeccResult:
    """Check pairwise-disjoint deletion surfaces.

    The surfaces are disjoint exactly when their sizes add up to the size
    of their union; a word's surface has one element per run of the word.
    Only when they do not is the code scanned in ascending order, each
    surface in ascending order, so that the result carries the first
    violating pair in that order together with the first shared deleted
    word of the later one.
    """
    n = code.n
    if n < 2:
        raise ValueError(f"validity needs length >= 2, got {n}")
    values = code.values
    lows = [(k, (1 << k) - 1) for k in range(n)]  # deleting bit k of v
    union = {(v >> (k + 1) << k) | (v & low) for v in values for k, low in lows}
    edges = (1 << (n - 1)) - 1
    runs = sum(((v ^ (v >> 1)) & edges).bit_count() + 1 for v in values)
    if len(union) == runs:
        return SdeccResult(True, None, None)
    owner: dict[int, int] = {}
    for v in values:
        for c in sorted({(v >> (k + 1) << k) | (v & low) for k, low in lows}):
            prev = owner.get(c)
            if prev is not None:
                return SdeccResult(
                    False, (Word(n, prev), Word(n, v)), Word(n - 1, c)
                )
            owner[c] = v
    raise RuntimeError("surfaces overlap but no shared deleted word was found")


def decode_single(code: WordSet, received: Word) -> Word | None:
    """Recover the codeword that received arose from by one deletion.

    Returns None when no codeword covers received. The caller promises the
    code is a valid SDECC; two covering codewords mean that promise was
    broken and raise RuntimeError.
    """
    n = code.n
    if received.n != n - 1:
        raise ValueError(
            f"received word must have length {n - 1}, got {received.n}"
        )
    hits = [
        v
        for v in insertion_values(received.n, received.value)
        if code.has_value(v)
    ]
    if not hits:
        return None
    if len(hits) > 1:
        a, b = sorted(hits)[:2]
        raise RuntimeError(
            f"code is not a valid SDECC: {Word(n, a)} and {Word(n, b)} "
            f"both cover {received}"
        )
    return Word(n, hits[0])


class ConflictGraph:
    """Conflict structure over all words of one length.

    cliques_by_center maps every length-(n-1) word to the sorted tuple of
    the n+1 words whose surface contains it. Adjacency is derived from the
    cliques on first use and cached.
    """

    def __init__(self, n: int, cliques_by_center: dict[int, tuple[int, ...]]):
        self.n = n
        self.cliques_by_center = cliques_by_center

    @property
    def vertex_count(self) -> int:
        return 1 << self.n

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1 << self.n)}
        for members in self.cliques_by_center.values():
            for a in members:
                adj[a].update(members)
        return {v: frozenset(s - {v}) for v, s in adj.items()}

    def conflicts(self, x: Word, y: Word) -> bool:
        """Whether two distinct words share a deleted word."""
        if x.n != self.n or y.n != self.n:
            raise ValueError("words must match the graph length")
        if x.value == y.value:
            return False
        return bool(
            surface_values(self.n, x.value) & surface_values(self.n, y.value)
        )

    def __repr__(self) -> str:
        return f"ConflictGraph(n={self.n}, vertices={self.vertex_count})"


def conflict_graph(n: int) -> ConflictGraph:
    """Build the conflict graph for length n (2 <= n <= 14)."""
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= GRAPH_MAX_N:
        raise ValueError(
            f"conflict graph supports 2 <= n <= {GRAPH_MAX_N}, got {n!r}"
        )
    cliques: dict[int, list[int]] = {}
    for v in range(1 << n):
        for c in surface_values(n, v):
            cliques.setdefault(c, []).append(v)
    return ConflictGraph(
        n, {c: tuple(vs) for c, vs in sorted(cliques.items())}
    )


@dataclass(frozen=True)
class BoundsRecord:
    """Sandwich of lower and upper bounds on the maximum code size."""

    n: int
    lower_vt: int  # |VT_0(n)|, constructive bound
    lower_ratio: int  # ceil(2^n / (n+1)), averaging bound
    upper_kk: int  # floor((2^n - 2) / (n - 2))
    known_M: int | None  # exact maximum when established
    known_upper: int | None  # best tabulated upper bound

    def __post_init__(self) -> None:
        chain = [self.lower_ratio, self.lower_vt, self.known_M,
                 self.known_upper, self.upper_kk]
        present = [b for b in chain if b is not None]
        if any(a > b for a, b in zip(present, present[1:])):
            raise RuntimeError(f"bounds chain out of order: {chain}")


def bounds(n: int) -> BoundsRecord:
    """Lower and upper bounds on the maximum code size for length n."""
    if not 3 <= n <= 62:
        raise ValueError(f"bounds supports 3 <= n <= 62, got {n}")
    known = KNOWN_SIZES.get(n)
    return BoundsRecord(
        n=n,
        lower_vt=vt0_size(n),
        lower_ratio=-(-(1 << n) // (n + 1)),
        upper_kk=((1 << n) - 2) // (n - 2),
        known_M=known[1] if known else None,
        known_upper=known[2] if known else None,
    )


# --- clique-cover bounds and the branch-and-bound kernel, shared with ilp ---

# lcm(1..11): every dual these instances produce rationalizes upward with
# negligible loss at this denominator
_COVER_DENOM = 27720
# the dense-tableau simplex is reliable up to this many columns; larger
# instances fall back to the greedy cover alone
_COVER_MAX_VERTICES = 256
_cover_weight_cache: dict[
    tuple[int, tuple[int, ...]], tuple[int, ...] | None
] = {}


def _packing_duals(masks: Sequence[int], nv: int) -> np.ndarray | None:
    """Row duals of the fractional relaxation of a set-packing problem.

    The primal maximizes the sum of nv variables in [0,1] subject to one
    row per mask: the variables named by the mask's bits sum to at most 1.
    Solved with a dense primal simplex from the slack basis. The instances
    are heavily degenerate, so right-hand sides and costs carry tiny
    deterministic perturbations and Dantzig pricing falls back to Bland's
    rule after a stall. Returns None when the pivot cap is hit. numpy is
    imported here, not with the package, so that commands which never
    reach the LP do not pay for loading it.
    """
    import numpy as np

    nc = len(masks)
    tab = np.zeros((nc + 1, nv + nc + 1))
    for i, m in enumerate(masks):
        row = tab[i]
        t = m
        while t:
            low = t & -t
            row[low.bit_length() - 1] = 1.0
            t ^= low
        tab[i, nv + i] = 1.0
        tab[i, -1] = 1.0 + 1e-7 * (i + 1)
    jitter = (np.arange(nv) * 2654435761 % 8192) / 8192.0
    tab[-1, :nv] = -1.0 - 1e-6 * jitter
    stall = 0
    for _ in range(20000):
        costs = tab[-1, :-1]
        if stall <= 400:
            j = int(np.argmin(costs))
            if costs[j] >= -1e-9:
                break
        else:
            negative = np.nonzero(costs < -1e-9)[0]
            if negative.size == 0:
                break
            j = int(negative[0])
        col = tab[:nc, j]
        positive = col > 1e-9
        if not positive.any():
            return None
        ratios = np.full(nc, np.inf)
        ratios[positive] = tab[:nc, -1][positive] / col[positive]
        i = int(np.argmin(ratios))
        previous = tab[-1, -1]
        tab[i] /= tab[i, j]
        scale = tab[:, j].copy()
        scale[i] = 0.0
        tab -= np.outer(scale, tab[i])
        stall = stall + 1 if tab[-1, -1] - previous < 1e-12 else 0
    else:
        return None
    return np.maximum(tab[-1, nv:nv + nc], 0.0)


def _cover_weights(nv: int, masks: Sequence[int]) -> tuple[int, ...] | None:
    """Integer weights turning the mask family into a weighted cover bound.

    The weights satisfy, for every vertex v < nv, sum of W over masks
    containing v >= _COVER_DENOM. Any selection that puts at most one
    vertex into each mask then has size at most the sum of W over masks
    meeting the selectable set, floor-divided by _COVER_DENOM: each
    selected vertex consumes a full denominator of weight and no mask is
    charged twice. Weights come from simplex duals rationalized upward,
    then any per-vertex shortfall is repaired in exact integer arithmetic,
    so the bound stays sound even when the LP solve was inexact. Returns
    None when some vertex appears in no mask, the instance is too large,
    or the simplex gives up; callers then rely on greedy covers alone.
    Results are cached per mask family; a family too large to solve is
    neither hashed nor kept.
    """
    if not masks or nv > _COVER_MAX_VERTICES:
        return None
    key = (nv, tuple(masks))
    try:
        return _cover_weight_cache[key]
    except KeyError:
        pass
    result: tuple[int, ...] | None = None
    duals = _packing_duals(masks, nv)
    if duals is not None:
        denom = _COVER_DENOM
        weights = [math.ceil(d * denom - 1e-9) for d in duals]
        by_vertex: list[list[int]] = [[] for _ in range(nv)]
        for idx, m in enumerate(masks):
            t = m
            while t:
                low = t & -t
                by_vertex[low.bit_length() - 1].append(idx)
                t ^= low
        for v in range(nv):
            rows = by_vertex[v]
            if not rows:
                break
            got = sum(weights[i] for i in rows)
            if got < denom:
                weights[rows[0]] += denom - got
        else:
            result = tuple(weights)
    _cover_weight_cache[key] = result
    return result


# what each row sense requires of (left-hand side, right-hand side)
_SENSE_HOLDS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}


@dataclass(frozen=True)
class SearchOptions:
    """Budgets and warm start for the exact searches."""

    node_limit: int | None = None
    time_limit: float | None = None
    incumbent: WordSet | None = None

    def __post_init__(self) -> None:
        for name in ("node_limit", "time_limit"):
            limit = getattr(self, name)
            # NaN fails every comparison, so it would never trip the deadline
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} must be a number >= 0, got {limit!r}")


@dataclass(frozen=True)
class SearchResult:
    n: int
    size: int
    witness: WordSet
    proof_status: str  # "optimal" or "bound-limited"
    nodes: int


def _ones(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    return [v for v, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _incidence(
    nv: int, rows: Iterable[Sequence[int]]
) -> tuple[list[int], list[list[int]], list[int]]:
    """Packing masks from member tuples, with the rows through each variable.

    Each row lists the distinct word values of its members. masks[i] has a
    bit per member of row i; rows_of[v] lists the masks containing v
    in row order; closed[v] is their union, i.e. v together with every
    variable it shares a row with.
    """
    masks: list[int] = []
    rows_of: list[list[int]] = [[] for _ in range(nv)]
    for members in rows:
        mask = 0
        for v in members:
            mask |= 1 << v
        masks.append(mask)
        for v in members:
            rows_of[v].append(mask)
    # the unions are built after the masks: interleaving the two scatters
    # the long-lived masks in memory (pipeline peak RSS 100 -> 106 MB)
    closed = [functools.reduce(operator.or_, ms, 0) for ms in rows_of]
    return masks, rows_of, closed


def _drop_dominated(
    cand: int,
    rows_of: Sequence[Sequence[int]],
    var_rows: Sequence[Sequence[tuple[int, int]]],
    generic: Sequence[tuple[str, int]],
) -> int:
    """The cand mask without candidates that some optimum can avoid.

    This is the closed-neighborhood domination rule for maximum independent
    set (Fomin, Grandoni and Kratsch, J. ACM 2009). Candidates y are walked
    in ascending order. Another candidate x lying in every packing row
    through y has N[y] inside N[x], so in any feasible S holding x, the
    set S - x + y packs as well and has the same size. x is dropped when
    that swap also keeps every generic row: y's coefficient relates to x's
    by the row's sense (an absent term counts as 0). y is itself still a
    candidate when x goes, so of two variables with equal row sets only
    one is dropped. On the conflict graph with no generic rows this drops
    exactly the words C2 excludes (constraints.dominated_words).
    """
    # a set and a bit string, not mask arithmetic, track membership: every
    # operation on the 2^n-bit cand costs time linear in its width
    dropped: set[int] = set()
    for y, bit in enumerate(bin(cand)[:1:-1]):
        rows = rows_of[y]
        if bit == "0" or y in dropped or not rows:
            continue
        common = rows[0]
        for mask in rows[1:]:
            common &= mask
        common = common & cand ^ 1 << y  # y lies in every row through y
        if not common:
            continue
        y_coeffs = dict(var_rows[y])
        for x, xbit in enumerate(bin(common)[:1:-1]):
            if xbit == "0" or x in dropped:
                continue
            x_coeffs = dict(var_rows[x])
            if all(
                _SENSE_HOLDS[generic[ri][0]](
                    y_coeffs.get(ri, 0), x_coeffs.get(ri, 0)
                )
                for ri in y_coeffs.keys() | x_coeffs.keys()
            ):
                dropped.add(x)
    for x in dropped:
        cand ^= 1 << x
    return cand


def _branch_and_bound(
    packing: Sequence[int],
    rows_of: Sequence[Sequence[int]],
    closed: Sequence[int],
    var_rows: Sequence[Sequence[tuple[int, int]]],
    cand: int,
    seeds: Iterable[Sequence[int]],
    opts: SearchOptions,
    started: float,
    generic: Sequence[tuple[str, int]] = (),
    included: int = 0,
) -> tuple[int | None, int, bool]:
    """Exact 0-1 maximum of |included| + |S| over sets S inside the cand mask.

    S puts at most one variable into each packing row (rows_of and closed
    come from _incidence) and, together with the variables already selected
    in included, satisfies every generic row (sense, rhs); var_rows[v]
    lists v's (row index, coefficient) pairs in row order.

    Warm start: each seed, a sequence of variables, is completed greedily
    over cand, its members first in order, then every variable still free
    in ascending order, taking those that no taken one blocks and that
    pass the take test. The first of the largest completions that meets
    every generic row becomes the incumbent.

    Depth-first, taking a variable before excluding it; a node is cut when
    the LP-weighted cover (exact integer weights, see _cover_weights) or a
    greedy most-covering-row cover shows it cannot beat the incumbent. The
    branch variable is the lowest candidate in the first packing row
    holding the most candidates, so every variable must lie in some
    packing row. After the warm start, candidates dominated by another
    candidate are dropped once (see _drop_dominated); nodes below the root
    do not repeat the sweep.

    Budgets are checked on every node, the deadline being started +
    opts.time_limit. Returns (selection, nodes, exhausted): selection is
    the bitmask of the best selection found, a completed seed or a tree
    result, and None only when no seed was accepted and the tree found
    nothing; exhausted is true when a budget stopped the search early.
    """
    node_limit = opts.node_limit
    deadline = (
        started + opts.time_limit if opts.time_limit is not None else None
    )
    nv = len(closed)
    weights = _cover_weights(nv, packing)
    weighted = (
        None
        if weights is None
        else [(m, w) for m, w in zip(packing, weights) if w]
    )
    denom = _COVER_DENOM
    max_row_size = max(mask.bit_count() for mask in packing)

    def fits(v: int, cur, neg) -> bool:
        # the take test, with neg the undecided negative mass per row; a
        # negative term cannot fail it where reachable holds
        for ri, c in var_rows[v]:
            if c > 0:
                sense, rhs = generic[ri]
                if sense != ">=" and cur[ri] + c - neg[ri] > rhs:
                    return False
        return True

    def reachable(cur, pos, neg) -> bool:
        for ri, (sense, rhs) in enumerate(generic):
            if sense in (">=", "=") and cur[ri] + pos[ri] < rhs:
                return False
            if sense in ("<=", "=") and cur[ri] - neg[ri] > rhs:
                return False
        return True

    def settled(cur) -> bool:
        for ri, (sense, rhs) in enumerate(generic):
            if not _SENSE_HOLDS[sense](cur[ri], rhs):
                return False
        return True

    root_cur = [0] * len(generic)
    for v in _ones(included):
        for ri, c in var_rows[v]:
            root_cur[ri] += c

    # the warm start fills over every candidate: the reduced set would
    # change which completion wins
    zeros = [0] * len(generic)  # the fill counts on no negative term
    best = -1
    best_selection: int | None = None
    for seed in seeds:
        selection = included
        free = cand
        cur = root_cur.copy()
        for v in seed:
            if free >> v & 1 and fits(v, cur, zeros):
                selection |= 1 << v
                free &= ~closed[v]
                for ri, c in var_rows[v]:
                    cur[ri] += c
        # walk the free rest by its lowest bit: each operation on a
        # 2^n-bit mask costs time linear in its width, so visit few bits
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            if fits(v, cur, zeros):
                selection |= low
                free &= ~closed[v]
                for ri, c in var_rows[v]:
                    cur[ri] += c
        if selection.bit_count() > best and settled(cur):
            best = selection.bit_count()
            best_selection = selection

    cand = _drop_dominated(cand, rows_of, var_rows, generic)

    nodes = 0
    exhausted = False

    def visit(cand: int, selection: int, count: int, cur, pos, neg) -> None:
        nonlocal best, best_selection, nodes, exhausted
        while True:
            nodes += 1
            if (node_limit is not None and nodes > node_limit) or (
                deadline is not None and time.monotonic() > deadline
            ):
                exhausted = True
                break
            if generic and not reachable(cur, pos, neg):
                break
            if count > best and (not generic or settled(cur)):
                best = count
                best_selection = selection
            if cand == 0:
                break
            need = best - count
            if need >= 0:
                if weighted is not None:
                    total = 0
                    for m, w in weighted:
                        if m & cand:
                            total += w
                    if total // denom <= need:
                        break
                k = 0
                rest = cand
                while rest and k <= need:
                    r = (rest & -rest).bit_length() - 1
                    pick_mask = 0
                    pick_size = 0
                    for m in rows_of[r]:
                        c = (m & rest).bit_count()
                        if c > pick_size:
                            pick_size = c
                            pick_mask = m
                    rest &= ~pick_mask
                    k += 1
                if not rest and k <= need:
                    break  # even this cover cannot beat the incumbent

            # branch on the packing row with the most undecided members
            chosen = 0
            chosen_size = 0
            for mask in packing:
                c = (mask & cand).bit_count()
                if c > chosen_size:
                    chosen_size = c
                    chosen = mask
                    if c == max_row_size:
                        break
            undecided = chosen & cand
            v = (undecided & -undecided).bit_length() - 1
            bit = 1 << v
            nbr = closed[v]

            if fits(v, cur, neg):
                ccur, cpos, cneg = cur, pos, neg
                if generic:
                    ccur = cur[:]
                    cpos = pos[:]
                    cneg = neg[:]
                    t = cand & nbr
                    while t:
                        low = t & -t
                        t ^= low
                        for ri, c in var_rows[low.bit_length() - 1]:
                            if c > 0:
                                cpos[ri] -= c
                            else:
                                cneg[ri] += c
                    for ri, c in var_rows[v]:
                        ccur[ri] += c
                visit(cand & ~nbr, selection | bit, count + 1, ccur, cpos, cneg)
                if exhausted:
                    break

            cand ^= bit  # exclude v and carry on in this frame
            for ri, c in var_rows[v]:
                if c > 0:
                    pos[ri] -= c
                else:
                    neg[ri] += c

    pos = [0] * len(generic)
    neg = [0] * len(generic)
    for v in _ones(cand):
        for ri, c in var_rows[v]:
            if c > 0:
                pos[ri] += c
            else:
                neg[ri] -= c
    visit(cand, included, included.bit_count(), root_cur, pos, neg)
    return best_selection, nodes, exhausted


def max_sdecc_exact(n: int, options: SearchOptions | None = None) -> SearchResult:
    """Maximum size of a single-deletion code of length n, with witness.

    Branch and bound over the conflict graph (see _branch_and_bound, shared
    with the built-in ILP solver): the center cliques, in canonical center
    order, are the packing rows over the canonical word values. The kernel
    warm-starts from VT_0(n), then from the incumbent in the options, each
    greedily completed; the first of the largest starts the search, so
    VT_0 wins a tie and stays the witness when the tree finds nothing
    larger. Before the first node the kernel drops every word whose
    surface contains a kept rival's surface; these are exactly the words
    the C2 family excludes (see _drop_dominated). With them dropped and
    branching on the fullest clique, the n = 7 proof takes 6,903 nodes.
    Exhausting the node or time budget downgrades proof_status to
    "bound-limited"; the returned witness is always a valid code of the
    reported size.

    Optimality proofs are fast through n = 8; n = 9 and beyond want a
    budget. n = 1 is the trivial single-word case.
    """
    started = time.monotonic()
    opts = options or SearchOptions()
    inc = opts.incumbent
    if inc is not None and inc.n != n:
        raise ValueError(f"incumbent has length {inc.n}, expected {n}")
    if n == 1:
        return SearchResult(1, 1, WordSet(1, [0]), "optimal", 0)
    graph = conflict_graph(n)

    # VT_0 is perfect, so its completion adds nothing; listed first, it
    # wins ties against the incumbent
    seeds = [vt_code(n, 0).values]
    if inc is not None:
        if not is_sdecc(inc):
            raise ValueError("incumbent is not a valid single-deletion code")
        seeds.append(inc.values)

    size = 1 << n
    clique_masks, rows_of, closed = _incidence(
        size, graph.cliques_by_center.values()
    )

    selection, nodes, exhausted = _branch_and_bound(
        clique_masks, rows_of, closed, [()] * size, (1 << size) - 1,
        seeds, opts, started,
    )
    return SearchResult(
        n=n,
        size=selection.bit_count(),
        witness=WordSet(n, _ones(selection)),
        proof_status="bound-limited" if exhausted else "optimal",
        nodes=nodes,
    )
