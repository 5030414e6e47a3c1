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
_cover_weights runs those rounds per mask family and caches them together
with the LP, so a later call on the same family resumes warm.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

# lcm(1..11): every dual these instances produce rationalizes upward with
# negligible loss at this denominator
_COVER_DENOM = 27720
# the dense-tableau simplex is reliable up to this many columns; larger
# instances fall back to the greedy cover alone
_COVER_MAX_VERTICES = 256
# per mask family: the separation rounds run so far, and the generator
# that runs the next ones (None once it has stopped); at most
# _COVER_CACHE_ENTRIES families, the least recently used evicted first
_cover_weight_cache: dict[
    tuple[int, tuple[int, ...]],
    tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], Iterator | None],
] = {}
# a family holds its PackingLP tableau, up to about a megabyte at nv = 256;
# over the test suite, 1,164 of 1,168 resumed families had been used
# within the 16 families before
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

    def add_rows(self, masks: Sequence[int]) -> bool:
        """Add one row per mask and re-solve; False when the simplex gives up.

        It gives up when a solve hits the pivot cap, or when the tableau
        claims the LP unbounded (a variable in no row) or infeasible (only
        rounding can cause that); the object must then not be used again.
        """
        import numpy as np

        nv = self.nv
        tab = self._tab
        basic = self._basic
        nonbasic = self._nonbasic
        m = len(basic)
        columns = self.columns
        width = (nv + 7) // 8
        packed = np.frombuffer(
            b"".join(mask.to_bytes(width, "little") for mask in masks),
            dtype=np.uint8,
        ).reshape(len(masks), width)
        members = np.unpackbits(packed, axis=1, bitorder="little")[:, :nv]
        coeffs = np.add.reduceat(
            members[:, self._order], self._starts, axis=1, dtype=np.float64
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
        return self._solve()

    def _solve(self) -> bool:
        import numpy as np

        tab = self._tab
        m = len(self._basic)
        values = tab[:m, -1]
        costs = tab[-1, :-1]
        for _ in range(_MAX_PIVOTS):
            r = int(np.argmin(values))
            if values[r] < -1e-9:  # dual simplex: row r leaves
                row = tab[r, :-1]
                eligible = row < -1e-9
                if not eligible.any():
                    return False
                ratios = np.divide(
                    np.maximum(costs, 0.0), -row,
                    out=np.full(self.columns, np.inf), where=eligible,
                )
                self._pivot(r, int(np.argmin(ratios)))
                continue
            c = int(np.argmin(costs))  # primal simplex: column c enters
            if costs[c] >= -1e-9:
                return True
            col = tab[:m, c]
            positive = col > 1e-9
            if not positive.any():
                return False
            ratios = np.divide(
                values, col, out=np.full(m, np.inf), where=positive
            )
            self._pivot(int(np.argmin(ratios)), c)
        return False

    def _pivot(self, r: int, c: int) -> None:
        # the nonbasic variable of column c enters in row r; the variable
        # leaving row r takes over column c
        tab = self._tab
        inverse = 1.0 / tab[r, c]
        pivot_row = tab[r] * inverse
        col = tab[:, c].copy()
        col[r] = 0.0
        tab -= col[:, None] * pivot_row
        tab[r] = pivot_row
        tab[:, c] = col * -inverse
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
    in ascending order, so its masks are as short as the support. Each
    listed clique heavier than that is grown to a maximal clique of the
    whole graph, lowest vertex first; the vertices it gains lie outside the
    support, so distinct cliques stay distinct. Returns the grown cliques
    not in known as masks over all nv variables, in the order they were
    found; the search stops at the limit-th, since a point spread evenly
    over a dense graph violates exponentially many.
    """
    support = [v for v in range(nv) if x[v] > 1e-9]
    weights = [float(x[v]) for v in support]
    where = {v: 1 << i for i, v in enumerate(support)}
    within = sum(1 << v for v in support)
    nbrs = []  # in support positions; closed[v] holds v itself, dropped here
    for v in support:
        t = closed[v] & within ^ 1 << v
        mask = 0
        while t:
            low = t & -t
            mask |= where[low.bit_length() - 1]
            t ^= low
        nbrs.append(mask)
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
    return found


def _image(mask: int, perm: Sequence[int]) -> int:
    """The mask of the vertices perm[v] for the vertices v of mask."""
    image = 0
    while mask:
        low = mask & -mask
        image |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return image


def _symmetries(nv: int, masks: Sequence[int]) -> list[list[int]]:
    """The reversal/complement symmetries that map the masks onto themselves.

    When nv = 2^n, vertex v is an n-bit word, and reversing that word,
    complementing it (v ^ (nv - 1)) and doing both map single-deletion
    surfaces onto single-deletion surfaces. Returns, as vertex
    permutations with the identity first, those of the three that are
    not the identity and map the list of masks onto itself as a
    multiset; with the identity they form a group, since the product of
    two kept ones is the third. Any other nv gets the identity alone.
    """
    identity = list(range(nv))
    n = nv.bit_length() - 1
    if nv != 1 << n:
        return [identity]
    reverse = [int(format(v, f"0{n}b")[::-1], 2) for v in identity]
    complement = [v ^ (nv - 1) for v in identity]
    both = [reverse[v] for v in complement]
    ordered = sorted(masks)
    group = [identity]
    for perm in (reverse, complement, both):
        images = sorted(_image(m, perm) for m in masks)
        if perm not in group and images == ordered:
            group.append(perm)
    return group


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
    nv: int, masks: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The rounds of _cover_weights on one mask family, as (rows, weights).

    The packing LP is solved on the quotient by the symmetries of the
    masks (_symmetries): an optimal point may be taken constant on vertex
    orbits and optimal duals constant on row orbits (Bödi, Herr and
    Joswig, Math. Prog. 2013), so the PackingLP has a column per vertex
    orbit and a row per row orbit, given by one member of the orbit. The
    input masks fall into row orbits in input order, copies pairing off
    as the multiset allows. Each round solves that LP over the rows so
    far and gives each row of an orbit R the dual of R divided by |R|;
    every vertex then still gets at least 1 in total, because an orbit
    of rows meets the vertices of an orbit of vertices equally often. It
    rationalizes those duals upward and repairs any per-vertex shortfall
    in exact integer arithmetic, so the bound stays sound even when the
    LP solve was inexact. The next round takes the cliques
    _violated_cliques separates from the LP point, lifted to one value
    per vertex, and adds each new clique with its whole orbit as one row
    of the same PackingLP, which re-solves from the last round's tableau.
    Separation adds at most nv rows in all, counting every row of an
    orbit, and skips an orbit that does not fit. With the identity alone
    every orbit is a single vertex or row, and this is the plain LP.
    Stops when a simplex gives up, as the first does when some vertex
    appears in no mask, or when no new violated clique is found.
    """
    denom = _COVER_DENOM
    group = _symmetries(nv, masks)
    lp = PackingLP(nv, _orbits(group))
    rows = list(masks)
    known = set(rows)
    lp_row = [-1] * len(rows)  # the LP row standing for each row
    sizes: list[int] = []  # the number of rows each LP row stands for
    new = []
    unpaired: dict[int, list[int]] = {}  # mask -> unplaced indices, last first
    for idx in reversed(range(len(rows))):
        unpaired.setdefault(rows[idx], []).append(idx)
    for idx, m in enumerate(rows):
        if lp_row[idx] < 0:
            images = {_image(m, perm) for perm in group}
            for image in images:
                lp_row[unpaired[image].pop()] = len(sizes)
            sizes.append(len(images))
            new.append(m)
    by_vertex: list[list[int]] = [[] for _ in range(nv)]
    closed = [0] * nv  # v and every variable sharing an input mask with it
    for idx, m in enumerate(rows):
        t = m
        while t:
            low = t & -t
            v = low.bit_length() - 1
            by_vertex[v].append(idx)
            closed[v] |= m
            t ^= low
    room = nv  # how many rows separation may still add
    while True:
        if not lp.add_rows(new):
            return
        duals, x = lp.solution()
        shares = duals / sizes
        weights = [math.ceil(shares[r] * denom - 1e-9) for r in lp_row]
        for through in by_vertex:
            got = sum(weights[i] for i in through)
            if got < denom:
                weights[through[0]] += denom - got
        yield tuple(rows), tuple(weights)
        new = []
        for c in _violated_cliques(x, closed, nv, known, room):
            if c in known:  # the image of a clique taken this round
                continue
            images = list(dict.fromkeys(_image(c, perm) for perm in group))
            if len(images) > room:
                continue
            room -= len(images)
            for image in images:
                t = image
                while t:
                    low = t & -t
                    by_vertex[low.bit_length() - 1].append(len(rows))
                    t ^= low
                rows.append(image)
                lp_row.append(len(sizes))
            known.update(images)
            sizes.append(len(images))
            new.append(c)
        if not new:
            return


def _cover_weights(
    nv: int, masks: Sequence[int], target: int,
    deadline: float | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Clique rows and integer weights making a weighted cover bound.

    The rows are the masks, in input order, then any clique rows
    separated from them, each followed by its images under the masks'
    symmetries (see _separation_rounds). Every row puts at most one
    vertex into any selection that puts at most one vertex into each
    mask: its members pairwise share a mask. The weights satisfy, for
    every vertex v < nv, sum of W over rows containing v >= _COVER_DENOM.
    Such a selection then has size at most the sum of W over rows meeting
    the selectable set, floor-divided by _COVER_DENOM: each selected
    vertex consumes a full denominator of weight and no row is charged
    twice.

    Returns the first round whose bound is at most target, else the last
    round run. Rounds after the first are not started once the monotonic
    clock passes deadline. Returns None when the first round does not
    exist: some vertex appears in no mask, the instance is too large, or
    the first simplex gives up; callers then rely on greedy covers alone.
    The rounds are cached per mask family, with the generator that holds
    the family's PackingLP, and a later call resumes where an earlier one
    stopped; a family too large to solve is neither hashed nor kept. The
    cache keeps the _COVER_CACHE_ENTRIES most recently used families.
    """
    if not masks or nv > _COVER_MAX_VERTICES:
        return None
    key = (nv, tuple(masks))
    # taken out while the rounds run: an interrupted call leaves no entry
    # whose generator has died mid-round
    entry = _cover_weight_cache.pop(key, None)
    rounds, more = entry or ([], _separation_rounds(nv, masks))
    denom = _COVER_DENOM
    met = next((r for r in rounds if sum(r[1]) // denom <= target), None)
    while met is None and more is not None:
        if rounds and deadline is not None and time.monotonic() > deadline:
            break
        step = next(more, None)
        if step is None:
            more = None
            break
        rounds.append(step)
        if sum(step[1]) // denom <= target:
            met = step
    # put back as the most recent family, whichever round serves the call
    while len(_cover_weight_cache) >= _COVER_CACHE_ENTRIES:
        del _cover_weight_cache[next(iter(_cover_weight_cache))]
    _cover_weight_cache[key] = rounds, more
    return met or (rounds[-1] if rounds else None)
