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
that rival keeps any code valid, so some maximum code avoids it. The
LP-weighted cover comes from coverlp, which also takes larger cliques of
the conflict graph, found where the LP point violates them, and re-solves
its packing LP warm after each batch until the bound reaches the
incumbent.
"""

from __future__ import annotations

import functools
import operator
import re
import time
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bitseq import (
    Word,
    WordSet,
    _Frozen,
    _check_range,
    _is_int,
    insertion_values,
    surface_size_sum,
    surface_union_size,
    surface_values,
)
from .coverlp import _COVER_DENOM, _cover_weights
from .vt import FORMULA_MAX_N, vt0_size, vt_code

GRAPH_MAX_N = 14

# n -> (exact maximum when known, best published upper bound)
KNOWN_SIZES: dict[int, tuple[int | None, int]] = {
    2: (2, 2),
    3: (2, 2),
    4: (4, 4),
    5: (6, 6),
    6: (10, 10),
    7: (16, 16),
    8: (30, 30),
    9: (52, 52),
    10: (94, 94),
    11: (172, 172),
    12: (None, 320),
    13: (None, 593),
    14: (None, 1104),
    15: (None, 2184),
}


class SdeccResult(NamedTuple):
    """Validity verdict; truthy exactly when the code is a valid SDECC.

    For an invalid code, first_pair is the first conflicting pair and
    shared the first deleted word they share. Two length-1 words share
    the empty word, which has no Word, so there shared is None.
    """

    ok: bool
    first_pair: tuple[Word, Word] | None
    shared: Word | None

    def __bool__(self) -> bool:
        return self.ok


def is_sdecc(code: WordSet) -> SdeccResult:
    """Check pairwise-disjoint deletion surfaces, at any length n >= 1.

    At n = 1 every word deletes to the empty word, so a code of at most
    one word is valid and {0, 1} is not. The surfaces are disjoint
    exactly when their sizes, summed by bitseq.surface_size_sum, add up
    to the size of their union, which bitseq.surface_union_size counts
    on a 2^n-bit mask; so the check costs about n 2^n / 8 bytes of work
    for any code size. Only when the sizes disagree is the code scanned
    in ascending order, each surface in ascending order, so that the
    result carries the first violating pair in that order together with
    the first shared deleted word of the later one.
    """
    n = code.n
    values = code.values
    if surface_union_size(n, values) == surface_size_sum(n, values):
        return SdeccResult(True, None, None)
    owner: dict[int, int] = {}
    for v in values:
        for c in sorted(surface_values(n, v)):
            prev = owner.get(c)
            if prev is not None:
                return SdeccResult(
                    False,
                    (Word(n, prev), Word(n, v)),
                    Word(n - 1, c) if n > 1 else None,
                )
            owner[c] = v
    raise RuntimeError("surfaces overlap but no shared deleted word was found")


def decode_single(code: WordSet, received: Word) -> Word | None:
    """Recover the codeword that received arose from by one deletion.

    The candidates are received's n+1 distinct single insertions, which
    bitseq's insertion_values builds together in one int's packed
    fields; the code's members are intersected with that tuple in one
    set operation. Returns None when no codeword covers received. The
    caller promises the code is a valid SDECC; two covering codewords
    mean that promise was broken and raise RuntimeError.
    """
    n = code.n
    if received.n != n - 1:
        raise ValueError(
            f"received word must have length {n - 1}, got {received.n}"
        )
    hits = code.members.intersection(
        insertion_values(received.n, received.value)
    )
    if not hits:
        return None
    if len(hits) > 1:
        a, b = sorted(hits)[:2]
        raise RuntimeError(
            f"code is not a valid SDECC: {Word(n, a)} and {Word(n, b)} "
            f"both cover {received}"
        )
    (hit,) = hits
    return Word(n, hit)


class ConflictGraph:
    """Conflict structure over all words of one length.

    cliques_by_center maps every length-(n-1) word to the sorted tuple of
    its n+1 single insertions, the words whose surface contains it.
    Adjacency is derived from the cliques on first use and cached.
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
    """Build the conflict graph for length n (2 <= n <= 14).

    Each center's clique is the tuple of its n+1 insertions from
    bitseq.insertion_values, distinct by construction, sorted as built.
    """
    _check_range(n, 2, GRAPH_MAX_N, "conflict graph supports")
    return ConflictGraph(n, {
        c: tuple(sorted(insertion_values(n - 1, c)))
        for c in range(1 << (n - 1))
    })


class BoundsRecord(_Frozen):
    """Sandwich of lower and upper bounds on the maximum code size.

    lower_vt is |VT_0(n)|, the constructive bound; lower_ratio is
    ceil(2^n / (n+1)), the averaging bound; upper_kk is
    floor((2^n - 2) / (n - 2)); known_M is the exact maximum when
    established and known_upper the best tabulated upper bound, each None
    when unknown.
    """

    __slots__ = _fields = (
        "n", "lower_vt", "lower_ratio", "upper_kk", "known_M", "known_upper",
    )

    def __init__(
        self,
        n: int,
        lower_vt: int,
        lower_ratio: int,
        upper_kk: int,
        known_M: int | None,
        known_upper: int | None,
    ) -> None:
        chain = [lower_ratio, lower_vt, known_M, known_upper, upper_kk]
        present = [b for b in chain if b is not None]
        if any(a > b for a, b in zip(present, present[1:])):
            raise RuntimeError(f"bounds chain out of order: {chain}")
        self._set(n, lower_vt, lower_ratio, upper_kk, known_M, known_upper)


def bounds(n: int) -> BoundsRecord:
    """Lower and upper bounds on the maximum code size for length n."""
    _check_range(n, 3, FORMULA_MAX_N, "bounds supports")
    known = KNOWN_SIZES.get(n)
    return BoundsRecord(
        n=n,
        lower_vt=vt0_size(n),
        lower_ratio=-(-(1 << n) // (n + 1)),
        upper_kk=((1 << n) - 2) // (n - 2),
        known_M=known[0] if known else None,
        known_upper=known[1] if known else None,
    )


# --- the branch-and-bound kernel, shared with ilp ---


class SearchOptions(_Frozen):
    """Budgets and warm start for the exact searches."""

    __slots__ = _fields = ("node_limit", "time_limit", "incumbent")

    def __init__(
        self,
        node_limit: int | None = None,
        time_limit: float | None = None,
        incumbent: WordSet | None = None,
    ) -> None:
        if node_limit is not None and not _is_int(node_limit):
            raise ValueError(f"node_limit must be an int, got {node_limit!r}")
        timed = _is_int(time_limit) or isinstance(time_limit, float)
        if time_limit is not None and not timed:
            raise ValueError(f"time_limit must be a number, got {time_limit!r}")
        if incumbent is not None and not isinstance(incumbent, WordSet):
            raise ValueError(f"incumbent must be a WordSet, got {incumbent!r}")
        limits = (("node_limit", node_limit), ("time_limit", time_limit))
        for name, limit in limits:
            # NaN fails every comparison, so it would never trip the deadline
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} must be a number >= 0, got {limit!r}")
        self._set(node_limit, time_limit, incumbent)


class SearchResult(NamedTuple):
    n: int
    size: int
    witness: WordSet
    proof_status: str  # "optimal" or "bound-limited"
    nodes: int


def _ones(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    bits = bin(mask)[:1:-1]
    if mask.bit_count() * 3 > len(bits):  # dense: a pass beats a match per bit
        return [v for v, bit in enumerate(bits) if bit == "1"]
    return [m.start() for m in re.finditer("1", bits)]


class _ClosedNeighbourhoods(dict):
    """v -> v's closed neighbourhood mask, made on v's first lookup.

    The mask is the union of rows_of[v], the packing masks through v: v
    together with every variable it shares a row with. A search reads
    only the masks of the variables it takes: a 20-node solve of the full
    n = 13 model reads 1,530 of 8,192, so the rest are never built.
    """

    __slots__ = ("rows_of",)

    def __init__(self, rows_of: Sequence[Sequence[int]]) -> None:
        super().__init__()
        self.rows_of = rows_of

    def __missing__(self, v: int) -> int:
        mask = self[v] = functools.reduce(operator.or_, self.rows_of[v], 0)
        return mask


def _incidence(
    nv: int, rows: Iterable[Sequence[int]]
) -> tuple[list[int], list[list[int]], _ClosedNeighbourhoods]:
    """Packing masks from member tuples, with the rows through each variable.

    Each row lists the distinct word values of its members. masks has a
    bit mask per distinct member set, in the order of its first row: a
    later row with the same members is dropped, so a family equal to
    another up to repeated rows gets the same masks and shares its cached
    cover. rows_of[v] lists the masks containing v in that order;
    closed[v] is their union, i.e. v together with every variable it
    shares a row with, built on its first lookup (see
    _ClosedNeighbourhoods).
    """
    masks: list[int] = []
    rows_of: list[list[int]] = [[] for _ in range(nv)]
    for members in rows:
        mask = 0
        for v in members:
            mask |= 1 << v
        if mask and mask in rows_of[members[0]]:
            continue  # an equal earlier row lists members[0] too
        masks.append(mask)
        for v in members:
            rows_of[v].append(mask)
    return masks, rows_of, _ClosedNeighbourhoods(rows_of)


def _drop_dominated(
    cand: int,
    rows_of: Sequence[Sequence[int]],
    var_rows: Sequence[Sequence[tuple[int, int]]],
) -> int:
    """The cand mask without candidates that some optimum can avoid.

    This is the closed-neighborhood domination rule for maximum independent
    set (Fomin, Grandoni and Kratsch, J. ACM 2009). Candidates y are walked
    in ascending order. Another candidate x lying in every packing row
    through y has N[y] inside N[x], so in any feasible S holding x, the
    set S - x + y packs as well and has the same size. x is dropped when
    that swap also keeps every generic row, each a sum <= rhs: y's
    coefficient is at most x's (an absent term counts as 0). y is itself
    still a candidate when x goes, so of two variables with equal row sets
    only one is dropped. On the conflict graph with no generic rows this
    drops exactly the words C2 excludes: those of weight 1 or n-1 and
    0^k 1 0 1^(n-2-k) with its complement for 1 <= k <= n-3, since two
    words share at most two deletions (Levenshtein 2001; see
    constraints.dominated_words).
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
        # common has few set bits: walk them, not its width
        while common:
            low = common & -common
            common ^= low
            x = low.bit_length() - 1
            if x in dropped:
                continue
            x_coeffs = dict(var_rows[x])
            if all(
                y_coeffs.get(ri, 0) <= x_coeffs.get(ri, 0)
                for ri in y_coeffs.keys() | x_coeffs.keys()
            ):
                dropped.add(x)
    for x in dropped:
        cand ^= 1 << x
    return cand


def _branch_and_bound(
    packing: Sequence[int],
    rows_of: Sequence[Sequence[int]],
    closed: Mapping[int, int],
    var_rows: Sequence[Sequence[tuple[int, int]]],
    cand: int,
    seeds: Iterable[Iterable[int]],
    opts: SearchOptions,
    started: float,
    generic: Sequence[int] = (),
    included: int = 0,
) -> tuple[int | None, int, bool]:
    """Exact 0-1 maximum of |included| + |S| over sets S inside the cand mask.

    S puts at most one variable into each packing row (rows_of and closed
    come from _incidence) and, together with the variables already selected
    in included, keeps every generic row's sum <= rhs. generic holds each
    row's rhs, and var_rows[v] lists v's (row index, coefficient) pairs in
    row order. The variables are 0 .. len(rows_of) - 1; closed is read
    only at the variables the warm start or the tree takes and those
    coverlp's clique separation visits, so its masks may be built lazily.

    Warm start: each seed lists distinct variables and is read as a set;
    each distinct set is completed once, greedily over cand: its members
    first, then every variable still free, each part in ascending order,
    taking those that no taken one blocks and that pass the take test. The
    first of the largest completions that meets every generic row becomes
    the incumbent.

    Depth-first, taking a variable before excluding it, in one loop over a
    stack of pending nodes (cand, selection, cur, neg) rather than a
    recursion, so a dive may take as many variables as the largest
    selection; a node's count is its selection's size. A node is cut when
    a greedy most-covering-row cover or the LP-weighted cover shows it
    cannot beat the incumbent. The greedy cover cuts when at most
    need = best - count packing rows cover the candidates. Each pick is
    the row through the lowest uncovered candidate that covers most of
    the others, and a pick removes at most max_row_size candidates. So
    the cover stops as soon as more candidates are left than
    max_row_size times (need + 1 - picks made): it could no longer end
    within need picks, the node would not be cut, and stopping there
    changes no outcome.

    A node with need >= 0 reads the LP-weighted cover only when the
    greedy cover does not cut it, and the first such node builds it.
    coverlp._cover_weights adds clique rows separated from the
    packing rows, re-solving one packing LP by dual simplex from its last
    optimum after each batch, until its root bound is at most the warm
    start's size, no violated clique is left, the row cap is reached or
    the deadline has passed, and gives every row an exact integer weight.
    A later call with the same row family and target gets the cached
    round. A cut drops only subtrees holding nothing strictly better than
    the incumbent, so the incumbents the tree finds do not depend on the
    separated rows. The branch variable is the lowest candidate in the
    first packing row holding the most candidates, so every variable must
    lie in some packing row. After the warm start, candidates dominated by
    another candidate are dropped once (see _drop_dominated); nodes below
    the root do not repeat the sweep.

    Budgets are checked on every node and between separation rounds, the
    deadline being started + opts.time_limit. Returns (selection, nodes,
    exhausted): selection is the bitmask of the best selection found, a
    completed seed or a tree result, and None only when no seed was
    accepted and the tree found nothing; exhausted is true when a budget
    stopped the search early.
    """
    node_limit = opts.node_limit
    deadline = (
        started + opts.time_limit if opts.time_limit is not None else None
    )
    nv = len(rows_of)
    max_row_size = max(mask.bit_count() for mask in packing)

    def fits(v: int, cur, neg) -> bool:
        # the take test, with neg the undecided negative mass per row; a
        # negative term cannot fail it where reachable holds
        for ri, c in var_rows[v]:
            if c > 0 and cur[ri] + c - neg[ri] > generic[ri]:
                return False
        return True

    def reachable(cur, neg) -> bool:
        for ri, rhs in enumerate(generic):
            if cur[ri] - neg[ri] > rhs:
                return False
        return True

    root_cur = [0] * len(generic)
    for v in _ones(included):
        for ri, c in var_rows[v]:
            root_cur[ri] += c

    # the warm start fills over every candidate: the reduced set would
    # change which completion wins
    # nothing undecided: the fill counts on no negative term, and
    # reachable(cur, zeros) holds exactly when cur meets every row
    zeros = [0] * len(generic)
    best = -1
    best_selection: int | None = None
    for seed in dict.fromkeys(sum(1 << v for v in seed) for seed in seeds):
        selection = included
        free = cand
        cur = root_cur.copy()
        # walk the seed's words, then every candidate, by the lowest free
        # bit: an operation on a 2^n-bit mask costs time linear in its width
        for walk in (seed, cand):
            walk &= free
            while walk:
                low = walk & -walk
                walk ^= low
                v = low.bit_length() - 1
                if fits(v, cur, zeros):
                    selection |= low
                    blocked = ~closed[v]
                    free &= blocked
                    walk &= blocked
                    for ri, c in var_rows[v]:
                        cur[ri] += c
        if selection.bit_count() > best and reachable(cur, zeros):
            best = selection.bit_count()
            best_selection = selection

    # the LP-weighted cover's rows with a weight, None until built and
    # empty if there is none; whichever node builds it aims at this size
    target = best
    weighted = None

    cand = _drop_dominated(cand, rows_of, var_rows)

    neg = [0] * len(generic)
    for v in _ones(cand):
        for ri, c in var_rows[v]:
            if c < 0:
                neg[ri] -= c
    nodes = 0
    # each entry is a pending node (cand, selection, cur, neg); a node
    # pushes itself with v excluded, then the child taking v, so the take
    # is searched first
    stack = [(cand, included, root_cur, neg)]
    while stack:
        cand, selection, cur, neg = stack.pop()
        count = selection.bit_count()
        nodes += 1
        if (node_limit is not None and nodes > node_limit) or (
            deadline is not None and time.monotonic() > deadline
        ):
            return best_selection, nodes, True
        if generic and not reachable(cur, neg):
            continue
        if count > best and (not generic or reachable(cur, zeros)):
            best = count
            best_selection = selection
        if cand == 0:
            continue
        need = best - count
        if need >= 0:
            # room is (need + 1 - picks) * max_row_size: a pick removes at
            # most max_row_size of the left candidates, so once they exceed
            # room the cover cannot end within need picks
            rest = cand
            left = cand.bit_count()
            room = (need + 1) * max_row_size
            while rest and left <= room:
                r = (rest & -rest).bit_length() - 1
                pick_mask = 0
                pick_size = 0
                for m in rows_of[r]:
                    c = (m & rest).bit_count()
                    if c > pick_size:
                        pick_size = c
                        pick_mask = m
                rest &= ~pick_mask
                left -= pick_size
                room -= max_row_size
            if not rest and room > 0:
                continue  # even this cover cannot beat the incumbent
            if weighted is None:
                cover = _cover_weights(nv, packing, closed, target, deadline)
                weighted = [] if cover is None else [
                    (m, w) for m, w in zip(*cover) if w
                ]
            if weighted:
                total = 0
                for m, w in weighted:
                    if m & cand:
                        total += w
                if total // _COVER_DENOM <= need:
                    continue

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

        took = fits(v, cur, neg)
        if took:
            ccur, cneg = cur, neg
            if generic:
                ccur = cur[:]
                cneg = neg[:]
                t = cand & nbr
                while t:
                    low = t & -t
                    t ^= low
                    for ri, c in var_rows[low.bit_length() - 1]:
                        if c < 0:
                            cneg[ri] += c
                for ri, c in var_rows[v]:
                    ccur[ri] += c

        cand ^= bit  # exclude v: this node stays pending without it
        for ri, c in var_rows[v]:
            if c < 0:
                neg[ri] += c
        stack.append((cand, selection, cur, neg))
        if took:
            stack.append((cand & ~nbr, selection | bit, ccur, cneg))
    return best_selection, nodes, False


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
    the C2 family excludes (see _drop_dominated). Each proof through
    n = 8 closes at its first node, through n = 5 by the greedy cover
    alone; separated clique rows bring the n = 7 LP bound to 16.99 (17.15
    and 6,903 nodes with the center cliques alone).
    Exhausting the node or time budget downgrades proof_status to
    "bound-limited"; the returned witness is always a valid code of the
    reported size.

    Optimality proofs are fast through n = 8; n = 9 and beyond want a
    budget. n = 1 is the trivial single-word case; n outside
    1..GRAPH_MAX_N, or not an int (a bool included), raises ValueError.
    """
    started = time.monotonic()
    _check_range(n, 1, GRAPH_MAX_N, "max supports")
    opts = options or SearchOptions()
    inc = opts.incumbent
    if inc is not None:
        if inc.n != n:
            raise ValueError(f"incumbent has length {inc.n}, expected {n}")
        if not is_sdecc(inc):
            raise ValueError("incumbent is not a valid single-deletion code")
    if n == 1:
        return SearchResult(1, 1, WordSet(1, [0]), "optimal", 0)
    graph = conflict_graph(n)

    # VT_0 is perfect, so its completion adds nothing; listed first, it
    # wins ties against the incumbent
    seeds = [vt_code(n, 0).values]
    if inc is not None:
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
