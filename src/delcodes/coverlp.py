"""The packing LP and the clique separation behind the LP-weighted cover.

The exact searches bound a node by a weighted cover of its candidates:
rows that each admit at most one selected variable, with integer weights
giving every variable at least _COVER_DENOM in total. The weights come
from the duals of the set-packing LP relaxation over those rows. Word
reversal and complement map deletion surfaces onto deletion surfaces, so
when they map a family's rows onto themselves the LP is solved on the
orbit quotient: a column per orbit of variables, a row per orbit of rows,
with duals shared out evenly over each row orbit. One PackingLP object
holds that LP as a dense tableau: it solves from the slack basis once,
then takes clique rows separated from its optimal point, each with its
orbit, and re-solves from its last optimal tableau by dual simplex, so a
round costs the few pivots the new rows need rather than a whole solve.
_cover_weights keeps the round that meets a call's target, serving later
calls on the same mask family and target without an LP.

The per-mask bookkeeping works on the 0/1 member matrix (a row per mask,
a column per vertex) of a family's distinct masks rather than bit by bit:
a symmetry's images of the masks are a column permutation of it, serving
the symmetry test, the grouping of rows into orbits and the orbits of new
cliques alike; a round's per-vertex weight totals are one reduction over
its (row, vertex) pairs; and the clique search takes the support's
columns of the kernel's closed neighbourhoods.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

# lcm(1..11): every dual these instances produce rationalizes upward with
# negligible loss at this denominator
_COVER_DENOM = 27720
# the cover LP runs only on families of at most this many vertices
# (words); larger ones fall back to the greedy cover alone. The cap is on
# vertices, not LP columns: the n = 8 orbit-quotient LP has 72 columns
_COVER_MAX_VERTICES = 256
# (nv, masks, target) -> the (rows, weights) round served; at most
# _COVER_CACHE_ENTRIES entries, the least recently used evicted first
_cover_weight_cache: dict[
    tuple[int, tuple[int, ...], int], tuple[tuple[int, ...], tuple[int, ...]]
] = {}
# an entry holds only its rows and weights, 7 to 17 KB on the n = 7 and 8
# center cliques; over the test suite, 772 of the 773 calls the cache
# served found their entry among the 16 most recently used
_COVER_CACHE_ENTRIES = 64
# a clique row counts as violated when the LP point puts more than this on it
_CLIQUE_SLACK = 1 + 1e-6
# pivots one solve may take before it gives up; the instances here need
# fewer than a thousand
_MAX_PIVOTS = 20000


class PackingLP:
    """The set-packing LP over nv variables, re-solved as rows are added.

    The LP maximizes the sum of x >= 0 subject to one row per mask: the
    variables named by the mask's bits sum to at most 1. It is solved
    over x constant on each of the given orbits, a partition of the nv
    variables listed by their vertices (by default each vertex alone):
    column j holds the common value y_j of orbit j and has cost |orbit
    j|, and a mask's row has coefficient |mask & orbit j| on it. For a
    row set closed under a symmetry group whose orbits these are, that
    is the quotient LP, with the optimum of the plain one. The
    instances are heavily degenerate, so the right-hand side of row i is
    1 + 1e-7 (i + 1) and the cost of column j is |orbit j| times 1 plus
    a deterministic jitter below 1e-6. The perturbed LP has one optimal
    basis, so solving rows in one go or a few at a time reaches the same
    point and the same duals.

    The tableau is condensed: a row per constraint, labelled with the
    variable basic in it, and a column per nonbasic variable; variables
    j < columns are structural and columns + i is the slack of row i.
    The last column holds the basic values and the last row the reduced
    costs of the minimization of -(perturbed sum of x). add_rows writes
    each new row in terms of the current nonbasic variables, with its
    slack basic. A violated new row makes the basis primal infeasible but
    keeps it dual feasible, so dual simplex (most negative basic value
    leaves, ratio test on the reduced costs) restores feasibility, and
    primal simplex with Dantzig pricing then clears any reduced cost left
    negative. From the slack basis every basic value is positive, so the
    first add_rows is a plain primal solve.

    numpy is imported here, not with the package, so that commands which
    never reach the LP do not pay for loading it.
    """

    def __init__(
        self, nv: int, orbits: Sequence[Sequence[int]] | None = None
    ) -> None:
        import numpy as np

        if orbits is None:
            orbits = [(v,) for v in range(nv)]
        self.nv = nv
        self.columns = len(orbits)
        sizes = np.array([len(orbit) for orbit in orbits])
        # a row's coefficient on column j sums its member bits over orbit
        # j, whose vertices self._order lists from self._starts[j] on
        self._starts = np.cumsum(sizes) - sizes
        self._order = np.array([v for orbit in orbits for v in orbit])
        # the column of each vertex
        self._column = np.empty(nv, dtype=np.int64)
        self._column[self._order] = np.repeat(np.arange(self.columns), sizes)
        jitter = (np.arange(self.columns) * 2654435761 % 8192) / 8192.0
        self._tab = np.zeros((1, self.columns + 1))
        self._tab[0, :-1] = -sizes * (1.0 + 1e-6 * jitter)
        self._basic = np.zeros(0, dtype=np.int64)  # the variable of each row
        self._nonbasic = np.arange(self.columns)  # the variable of each column
        self._outer = None

    def add_rows(self, masks: Sequence[int]) -> bool:
        """Add one row per mask and re-solve; False when the simplex gives up.

        It gives up when a solve hits the pivot cap, or when the tableau
        claims the LP unbounded (a variable in no row) or infeasible (only
        rounding can cause that); the object must then not be used again.
        """
        import numpy as np

        tab = self._tab
        basic = self._basic
        nonbasic = self._nonbasic
        m = len(basic)
        columns = self.columns
        coeffs = np.add.reduceat(
            _member_matrix(self.nv, masks)[:, self._order], self._starts,
            axis=1, dtype=np.float64,
        )
        # row k: its structural columns and its slack, in terms of the
        # nonbasic variables: a basic column contributes minus its row
        # times the row's coefficient on it
        new = np.zeros((len(masks), columns + 1))
        new[:, -1] = 1.0 + 1e-7 * np.arange(m + 1, m + len(masks) + 1)
        free = np.flatnonzero(nonbasic < columns)
        new[:, free] = coeffs[:, nonbasic[free]]
        held = np.flatnonzero(basic < columns)
        if held.size:
            # sums of scaled rows: a matrix product would have BLAS
            # allocate its work buffers, raising peak memory for this one
            # product
            for k, row in enumerate(coeffs[:, basic[held]]):
                hit = row != 0
                new[k] -= (row[hit, None] * tab[held[hit]]).sum(axis=0)
        self._tab = np.vstack((tab[:-1], new, tab[-1:]))
        self._basic = np.concatenate(
            (basic, np.arange(columns + m, columns + m + len(masks)))
        )
        # a pivot writes its outer product here; dropped after the solve,
        # so between rounds the LP holds only its tableau
        self._outer = np.empty_like(self._tab)
        solved = self._solve()
        self._outer = None
        return solved

    def _solve(self) -> bool:
        import numpy as np

        tab = self._tab
        m = len(self._basic)
        values = tab[:m, -1]
        costs = tab[-1, :-1]
        for _ in range(_MAX_PIVOTS):
            r = values.argmin()
            if values[r] < -1e-9:  # dual simplex: row r leaves
                row = tab[r, :-1]
                eligible = (row < -1e-9).nonzero()[0]
                if not eligible.size:
                    return False
                ratios = np.maximum(costs[eligible], 0.0) / -row[eligible]
                self._pivot(r, eligible[ratios.argmin()])
                continue
            c = costs.argmin()  # primal simplex: column c enters
            if costs[c] >= -1e-9:
                return True
            positive = (tab[:m, c] > 1e-9).nonzero()[0]
            if not positive.size:
                return False
            ratios = values[positive] / tab[positive, c]
            self._pivot(positive[ratios.argmin()], c)
        return False

    def _pivot(self, r: int, c: int) -> None:
        # the nonbasic variable of column c enters in row r; the variable
        # leaving row r takes over column c
        import numpy as np

        tab = self._tab
        inverse = 1.0 / tab[r, c]
        pivot_row = tab[r] * inverse
        col = tab[:, c].copy()
        col[r] = 0.0
        tab -= np.multiply.outer(col, pivot_row, out=self._outer)
        tab[r] = pivot_row
        np.multiply(col, -inverse, out=tab[:, c])
        tab[r, c] = inverse
        self._basic[r], self._nonbasic[c] = self._nonbasic[c], self._basic[r]

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """(duals, x): row duals clipped at 0, and the primal point.

        x has one entry per vertex, the value of the vertex's orbit.
        """
        import numpy as np

        columns = self.columns
        tab = self._tab
        m = len(self._basic)
        y = np.zeros(columns)
        rows = np.flatnonzero(self._basic < columns)
        y[self._basic[rows]] = tab[rows, -1]
        duals = np.zeros(m)
        cols = np.flatnonzero(self._nonbasic >= columns)
        duals[self._nonbasic[cols] - columns] = tab[-1, cols]
        return np.maximum(duals, 0.0), y[self._column]


def _member_matrix(nv: int, masks: Sequence[int]) -> np.ndarray:
    """The 0/1 uint8 matrix whose row k holds the nv bits of masks[k]."""
    import numpy as np

    width = (nv + 7) // 8
    packed = np.frombuffer(
        b"".join(mask.to_bytes(width, "little") for mask in masks),
        dtype=np.uint8,
    ).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=nv, bitorder="little")


def _mask_list(members: np.ndarray) -> list[int]:
    """The masks of a 0/1 matrix's rows, bit v from column v."""
    import numpy as np

    packed = np.packbits(members, axis=1, bitorder="little")
    data = packed.tobytes()
    width = packed.shape[1]
    return [
        int.from_bytes(data[i * width:(i + 1) * width], "little")
        for i in range(len(packed))
    ]


def _violated_cliques(
    x: Sequence[float], closed: Sequence[int], nv: int, known: set[int],
    limit: int,
) -> list[int]:
    """Up to limit maximal cliques of the row graph that x violates.

    Two variables are adjacent when they share a packing row, so closed[v]
    is v's closed neighbourhood. Bron-Kerbosch with Tomita pivoting (TCS
    2006) lists the maximal cliques of the subgraph on x's support,
    skipping every branch whose clique and candidates together weigh at
    most _CLIQUE_SLACK. The search runs on the support renumbered 0, 1, ...
    in ascending order, so its masks are as short as the support: the
    support's columns of the member matrix of the support's closed
    neighbourhoods. Each listed clique heavier than that is grown to a
    maximal clique of the whole graph, lowest vertex first; the vertices
    it gains lie outside the support, so distinct cliques stay distinct.
    Returns the grown cliques not in known as masks over all nv
    variables, in the order they were found; the search stops at the
    limit-th, since a point spread evenly over a dense graph violates
    exponentially many.
    """
    import numpy as np

    x = np.asarray(x)
    at = np.flatnonzero(x > 1e-9)
    support = at.tolist()
    weights = x[at].tolist()
    adjacent = _member_matrix(nv, [closed[v] for v in support])[:, at]
    np.fill_diagonal(adjacent, 0)  # closed[v] holds v itself
    nbrs = _mask_list(adjacent)
    found: list[int] = []

    def expand(clique: int, held: float, cand: int, done: int) -> None:
        if len(found) >= limit:
            return
        mass = 0
        t = cand
        while t:
            low = t & -t
            mass += weights[low.bit_length() - 1]
            t ^= low
        if held + mass <= _CLIQUE_SLACK:
            return
        if not cand:
            if not done:  # maximal within the support
                grown = 0
                grow = -1
                while clique:
                    low = clique & -clique
                    v = support[low.bit_length() - 1]
                    grown |= 1 << v
                    grow &= closed[v]
                    clique ^= low
                grow &= ~grown
                while grow:
                    low = grow & -grow
                    grown |= low
                    grow &= closed[low.bit_length() - 1] ^ low
                if grown not in known:
                    found.append(grown)
            return
        pivot = -1
        most = -1
        t = cand | done
        while t:
            low = t & -t
            u = low.bit_length() - 1
            count = (cand & nbrs[u]).bit_count()
            if count > most:
                most = count
                pivot = u
            t ^= low
        t = cand & ~nbrs[pivot]
        while t:
            low = t & -t
            v = low.bit_length() - 1
            expand(clique | low, held + weights[v], cand & nbrs[v],
                   done & nbrs[v])
            cand ^= low
            done |= low
            t ^= low

    expand(0, 0.0, (1 << len(support)) - 1, 0)
    del expand  # it calls itself: a cycle that would hold closed until gc
    return found


def _images(
    members: np.ndarray, perms: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The images of a member matrix's masks, one list per permutation.

    The image of a mask has bit perm[v] for each bit v of the mask. Every
    permutation here is its own inverse, so the image's column w is the
    member matrix's column perm[w].
    """
    import numpy as np

    image = np.empty_like(members)
    return [
        _mask_list(np.take(members, perm, axis=1, out=image))
        for perm in perms
    ]


def _symmetries(
    nv: int, masks: Sequence[int], members: np.ndarray
) -> tuple[list[list[int]], list[list[int]]]:
    """The reversal/complement symmetries that map the masks onto themselves.

    When nv = 2^n, vertex v is an n-bit word, and reversing that word,
    complementing it (v ^ (nv - 1)) and doing both map single-deletion
    surfaces onto single-deletion surfaces. Returns (group, images): as
    vertex permutations with the identity first, those of the three that
    are not the identity and map the set of masks onto itself, and the
    masks' images under each kept one (under the identity, the masks).
    With the identity they form a group, since the product of two kept
    ones is the third, each its own inverse. Any other nv gets the
    identity alone. members is the masks' member matrix (_member_matrix).
    """
    identity = list(range(nv))
    group, images = [identity], [list(masks)]
    n = nv.bit_length() - 1
    if nv != 1 << n:
        return group, images
    reverse = [int(format(v, f"0{n}b")[::-1], 2) for v in identity]
    complement = [v ^ (nv - 1) for v in identity]
    both = [reverse[v] for v in complement]
    perms = (reverse, complement, both)
    for perm, image in zip(perms, _images(members, perms)):
        if perm not in group and set(image) == set(masks):
            group.append(perm)
            images.append(image)
    return group, images


def _orbits(group: Sequence[Sequence[int]]) -> list[list[int]]:
    """The vertex orbits of a permutation group, by least member."""
    orbits = []
    placed: set[int] = set()
    for v in range(len(group[0])):
        if v not in placed:
            orbit = sorted({perm[v] for perm in group})
            placed.update(orbit)
            orbits.append(orbit)
    return orbits


def _separation_rounds(
    nv: int, masks: Sequence[int], closed: Mapping[int, int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The rounds of _cover_weights on one mask family, as (rows, weights).

    The packing LP is solved on the quotient by the symmetries of the
    masks (_symmetries): an optimal point may be taken constant on vertex
    orbits and optimal duals constant on row orbits (Bödi, Herr and
    Joswig, Math. Prog. 2013), so the PackingLP has a column per vertex
    orbit and a row per row orbit, given by one member of the orbit. The
    masks, distinct as sdecc._incidence gives them, fall into row orbits
    in input order. Each round solves that LP over the rows so
    far and gives each row of an orbit R the dual of R divided by |R|;
    every vertex then still gets at least 1 in total, because an orbit
    of rows meets the vertices of an orbit of vertices equally often. It
    rationalizes those duals upward and repairs any per-vertex shortfall
    in exact integer arithmetic, so the bound stays sound even when the
    LP solve was inexact: the per-vertex totals come from one reduction
    over the (row, vertex) pairs of the rows' member matrices, and only
    the vertices short there are repaired, in ascending order, each
    re-summed at its turn; a repair only raises weights, so no other
    vertex falls short. The next round takes the cliques
    _violated_cliques separates from the LP point, lifted to one value
    per vertex, and adds each new clique with its whole orbit as one row
    of the same PackingLP, which re-solves from the last round's tableau.
    Separation adds at most nv rows in all, counting every row of an
    orbit, and skips an orbit that does not fit. With the identity alone
    every orbit is a single vertex or row, and this is the plain LP.
    Stops when a simplex gives up, as the first does when some vertex
    appears in no mask, or when no new violated clique is found. closed[v]
    is the union of the masks through v (sdecc._ClosedNeighbourhoods).
    """
    import numpy as np

    denom = _COVER_DENOM
    members = _member_matrix(nv, masks)
    group, images = _symmetries(nv, masks, members)
    lp = PackingLP(nv, _orbits(group))
    rows = list(masks)
    known = set(rows)
    lp_row = [-1] * len(rows)  # the LP row standing for each row
    sizes: list[int] = []  # the number of rows each LP row stands for
    new = []
    index = {m: idx for idx, m in enumerate(rows)}
    for idx, m in enumerate(rows):
        if lp_row[idx] < 0:
            orbit = {image[idx] for image in images}
            for image in orbit:
                lp_row[index[image]] = len(sizes)
            sizes.append(len(orbit))
            new.append(m)
    # every (row, vertex) membership, by row then vertex
    hit_row, hit_vertex = np.nonzero(members)
    # later rounds read none of these: freed now, they do not add to the
    # peak memory of separation
    del members, images, index
    room = nv  # how many rows separation may still add
    while True:
        if not lp.add_rows(new):
            return
        duals, x = lp.solution()
        shares = duals / sizes
        ceiled = np.ceil(shares[lp_row] * denom - 1e-9)
        weights = ceiled.astype(np.int64).tolist()
        totals = np.bincount(
            hit_vertex, weights=ceiled[hit_row], minlength=nv
        )  # sums of integers below 2^53: exact in any order
        for v in np.flatnonzero(totals < denom).tolist():
            through = hit_row[hit_vertex == v].tolist()
            got = sum(weights[i] for i in through)
            if got < denom:
                weights[through[0]] += denom - got
        yield tuple(rows), tuple(weights)
        new = []
        start = len(rows)
        found = _violated_cliques(x, closed, nv, known, room)
        found_images = [found] + _images(_member_matrix(nv, found), group[1:])
        for k, c in enumerate(found):
            if c in known:  # the image of a clique taken this round
                continue
            orbit = list(dict.fromkeys(image[k] for image in found_images))
            if len(orbit) > room:
                continue
            room -= len(orbit)
            rows += orbit
            lp_row += [len(sizes)] * len(orbit)
            known.update(orbit)
            sizes.append(len(orbit))
            new.append(c)
        if not new:
            return
        added_row, added_vertex = np.nonzero(_member_matrix(nv, rows[start:]))
        hit_row = np.concatenate((hit_row, added_row + start))
        hit_vertex = np.concatenate((hit_vertex, added_vertex))


def _cover_weights(
    nv: int, masks: Sequence[int], closed: Mapping[int, int], target: int,
    deadline: float | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Clique rows and integer weights making a weighted cover bound.

    masks and closed come from sdecc._incidence; a repeated mask would
    weaken the bound, not break it. The rows are the masks, in input
    order, then any clique rows separated from them, each followed by its
    images under the masks' symmetries. Every row puts at most one vertex
    into any selection that puts at most one vertex into each mask: its
    members pairwise share a mask. The weights satisfy, for every vertex
    v < nv, sum of W over rows containing v >= _COVER_DENOM. Such a
    selection then has size at most the sum of W over rows meeting the
    selectable set, floor-divided by _COVER_DENOM: each selected vertex
    consumes a full denominator of weight and no row is charged twice.

    Returns the first round whose bound is at most target, else the last
    round run. Rounds after the first are not started once the monotonic
    clock passes deadline. Returns None when the first round does not
    exist: some vertex appears in no mask, the instance is too large, or
    the first simplex gives up; callers then rely on greedy covers alone.
    The round served is kept per (nv, masks, target), unless the deadline
    cut the rounds short; the rounds are deterministic, so it serves later
    calls with that key. A family too large to solve is neither hashed nor
    kept. The cache keeps the _COVER_CACHE_ENTRIES most recent rounds.
    """
    if not masks or nv > _COVER_MAX_VERTICES:
        return None
    key = (nv, tuple(masks), target)
    served = _cover_weight_cache.pop(key, None)
    if served is None:
        for served in _separation_rounds(nv, masks, closed):
            if sum(served[1]) // _COVER_DENOM <= target:
                break
            if deadline is not None and time.monotonic() > deadline:
                return served  # not kept: a later call runs every round
        if served is None:
            return None
    # put back as the most recent entry, whichever call made it
    while len(_cover_weight_cache) >= _COVER_CACHE_ENTRIES:
        del _cover_weight_cache[next(iter(_cover_weight_cache))]
    _cover_weight_cache[key] = served
    return served
