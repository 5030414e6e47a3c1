"""Packing-LP tests: warm re-solves against cold solves, duals, pinned rounds.

A PackingLP that takes rows in several batches must reach the optimum a
fresh one reaches with all of them at once, and its duals must stay
feasible. The LP on the quotient by the reversal/complement symmetries
must have the plain LP's optimum, its lifted weights must cover every
vertex, and a family without symmetry must run exactly the plain rounds.
The length-7 separation rounds are pinned, together with the pivots the
warm start saves on them, and so is every round's rows and integer
weights on a set of families, by digests. Each family is put through
sdecc._incidence, as the kernel's are, so its masks are distinct. The
cache of served rounds keeps a bounded number of them, one that serves a
call among them; each target is served the round it would run to, and a
round the deadline cut short is not kept. An LP file that repeats rows is
solved on the family of its distinct rows.
"""

import hashlib
import itertools
import random
import time
from typing import Mapping

import numpy as np
import pytest

from delcodes import coverlp
from delcodes.constraints import build_model
from delcodes.coverlp import (
    _COVER_CACHE_ENTRIES,
    _COVER_DENOM,
    PackingLP,
    _cover_weight_cache,
    _cover_weights,
    _member_matrix,
    _orbits,
    _separation_rounds,
    _symmetries,
)
from delcodes.ilp import (
    IlpModel,
    LinearConstraint,
    _classify_rows,
    read_lp,
    solve_builtin,
    write_lp,
)
from delcodes.sdecc import (
    SearchOptions,
    _incidence,
    conflict_graph,
    max_sdecc_exact,
)


def center_family(n: int) -> tuple[int, list[int], Mapping[int, int]]:
    cliques = conflict_graph(n).cliques_by_center.values()
    masks, _, closed = _incidence(1 << n, cliques)
    return 1 << n, masks, closed


def center_masks(n: int) -> list[int]:
    return center_family(n)[1]


def family(nv: int, masks) -> tuple[int, list[int], Mapping[int, int]]:
    # the family as the kernel hands it over: through _incidence, so its
    # masks are distinct, each at its first copy, with their row graph's
    # closed neighbourhoods
    masks, _, closed = _incidence(nv, [_members(m) for m in masks])
    return nv, masks, closed


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def image(mask: int, perm) -> int:
    # the mask of the vertices perm[v] for the vertices v of mask
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def symmetries(nv: int, masks) -> list[list[int]]:
    group, images = _symmetries(nv, masks, _member_matrix(nv, masks))
    assert images == [[image(m, perm) for m in masks] for perm in group]
    return group


def length_seven_rounds() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return list(itertools.islice(_separation_rounds(*center_family(7)), 4))


def quotient_rows(rows, group) -> list[int]:
    # one row per row orbit, its first member in row order, as
    # _separation_rounds gives them to its PackingLP
    reps: list[int] = []
    seen: set[int] = set()
    for row in rows:
        if row not in seen:
            reps.append(row)
            seen.update(image(row, perm) for perm in group)
    return reps


def unperturbed_objective(lp: PackingLP, rows, orbits) -> float:
    # the objective of lp's final basis under the unperturbed costs |O|
    # and right-hand sides 1, checked to be optimal there too
    coeffs = np.array([
        [sum(row >> v & 1 for v in orbit) for orbit in orbits]
        for row in rows
    ])
    full = np.hstack((coeffs, np.eye(len(rows))))
    costs = np.concatenate(([len(o) for o in orbits], np.zeros(len(rows))))
    basis = full[:, lp._basic]
    values = np.linalg.solve(basis, np.ones(len(rows)))
    duals = np.linalg.solve(basis.T, costs[lp._basic])
    assert values.min() >= -1e-9
    assert (costs - full.T @ duals).max() <= 1e-9
    return float(costs[lp._basic] @ values)


def check_against_cold(lp: PackingLP, rows, case) -> None:
    cold = PackingLP(lp.nv)
    assert cold.add_rows(rows), case
    warm_duals, warm_x = lp.solution()
    cold_duals, cold_x = cold.solution()
    assert len(warm_duals) == len(rows), case
    assert abs(warm_x.sum() - cold_x.sum()) <= 1e-7, case
    for duals in (warm_duals, cold_duals):
        for v in range(lp.nv):
            got = sum(d for m, d in zip(rows, duals) if m >> v & 1)
            assert got >= 1 - 1e-7, (case, v, got)


def test_warm_resolve_matches_a_cold_solve_on_random_families():
    rng = random.Random(9200)
    for case in range(150):
        nv = rng.randint(1, 40)

        def random_masks(count: int) -> list[int]:
            return [
                sum(1 << v for v in rng.sample(range(nv), rng.randint(1, nv)))
                for _ in range(count)
            ]

        rows = random_masks(rng.randint(1, 30))
        for v in range(nv):  # every vertex lies in some row
            if not any(m >> v & 1 for m in rows):
                rows[rng.randrange(len(rows))] |= 1 << v
        lp = PackingLP(nv)
        assert lp.add_rows(rows), case
        check_against_cold(lp, rows, case)
        for batch in range(rng.randint(1, 3)):
            new = random_masks(rng.randint(1, 10))
            assert lp.add_rows(new), (case, batch)
            rows += new
            check_against_cold(lp, rows, (case, batch))


@pytest.mark.parametrize("n", range(4, 9))
def test_warm_resolve_matches_a_cold_solve_on_separated_rounds(n):
    nv = 1 << n
    lp = PackingLP(nv)
    rows: list[int] = []
    # iterating every round runs the separation to convergence
    for round_rows, _ in _separation_rounds(*center_family(n)):
        assert lp.add_rows(round_rows[len(rows):]), (n, len(round_rows))
        rows = list(round_rows)
        check_against_cold(lp, rows, (n, len(rows)))


def test_length_seven_rounds_are_pinned():
    rounds = length_seven_rounds()
    assert [len(rows) for rows, _ in rounds] == [64, 102, 114, 124]
    assert [sum(w) // _COVER_DENOM for _, w in rounds] == [17, 17, 16, 16]


def pinned_families() -> list[tuple[int, list[int]]]:
    # the center cliques at n = 2..8, with the full group; the distinct
    # packing rows of the n = 7 C0-led models (today all the n = 7 center
    # cliques, so they add no family); the n = 7 cliques without a row of
    # orbit four, with the identity alone;
    # the cocktail-party pairs, with the complement alone; and seeded
    # random families over the full group, some orbits cut short or given
    # twice, which _incidence keeps once
    families = [(1 << n, center_masks(n)) for n in range(2, 9)]
    for extra in itertools.chain.from_iterable(
        itertools.combinations(("C1", "C2", "C3", "C4", "C5", "C6"), k)
        for k in range(7)
    ):
        nv, packing, _, _, _ = _classify_rows(build_model(7, ("C0",) + extra))
        masks, _, _ = _incidence(nv, packing)
        if (nv, masks) not in families:
            families.append((nv, masks))
    masks = center_masks(7)
    del masks[1]
    families.append((128, masks))
    families.append((32, [
        1 << u | 1 << v for u in range(32) for v in range(u + 1, 32)
        if v != u ^ 1
    ]))
    rng = random.Random(2027)
    for case in range(12):
        nv = 1 << rng.choice((4, 5, 6))
        full = symmetries(nv, [])
        masks = []
        for _ in range(rng.randint(1, 12)):
            m = sum(1 << v for v in rng.sample(range(nv), rng.randint(1, 6)))
            orbit = list(dict.fromkeys(image(m, perm) for perm in full))
            masks += orbit[:1 if case % 3 == 0 else None] * rng.choice((1, 2))
        for v in range(nv):  # every vertex lies in some mask
            if not any(m >> v & 1 for m in masks):
                masks += dict.fromkeys(image(1 << v, perm) for perm in full)
        rng.shuffle(masks)
        families.append((nv, masks))
    return families


def rounds_digest(families) -> str:
    digest = hashlib.sha256()
    for nv, masks in families:
        # iterating every round runs the separation to convergence
        rounds = _separation_rounds(*family(nv, masks))
        digest.update(repr(list(rounds)).encode())
    return digest.hexdigest()


def test_separation_rounds_are_pinned_bit_for_bit():
    # every round's rows and integer weights, run to convergence
    assert rounds_digest(pinned_families()) == (
        "96724063b9abdb1c679adeb5786dd433bce5c88de9c7ec21c16579b2ed17ece8"
    )


def test_repaired_weights_are_pinned_bit_for_bit(monkeypatch):
    # duals scaled down leave some vertices short and others not, so the
    # exact integer repair runs on part of the vertices of every round
    solution = PackingLP.solution

    def scaled(self):
        duals, x = solution(self)
        return duals * 0.8, x

    monkeypatch.setattr(PackingLP, "solution", scaled)
    families = [(1 << n, center_masks(n)) for n in range(3, 8)]
    assert rounds_digest(families) == (
        "58104a6d0b1e5b61c9ed811439a9045974e869bc579e31365276631573c3fe04"
    )


def test_warm_rounds_take_fewer_pivots_than_cold_solves(monkeypatch):
    pivots = 0
    pivot = PackingLP._pivot

    def counted(self, r, c):
        nonlocal pivots
        pivots += 1
        pivot(self, r, c)

    monkeypatch.setattr(PackingLP, "_pivot", counted)
    # the LP the rounds solve: a column per vertex orbit, a row per row orbit
    group = symmetries(128, center_masks(7))
    orbits = _orbits(group)
    rounds = [quotient_rows(rows, group) for rows, _ in length_seven_rounds()]
    for before, after in zip(rounds, rounds[1:]):
        warm = PackingLP(128, orbits)
        assert warm.add_rows(before)
        pivots = 0
        assert warm.add_rows(after[len(before):])
        warm_pivots = pivots
        pivots = 0
        assert PackingLP(128, orbits).add_rows(after)
        assert 0 < warm_pivots < pivots / 2, (len(after), warm_pivots, pivots)


@pytest.mark.parametrize("n", range(4, 9))
def test_quotient_lp_has_the_plain_lp_optimum(n):
    nv = 1 << n
    masks = center_masks(n)
    group = symmetries(nv, masks)
    orbits = _orbits(group)
    assert len(orbits) < nv
    rows = quotient_rows(masks, group)
    quotient = PackingLP(nv, orbits)
    assert quotient.add_rows(rows)
    plain = PackingLP(nv)
    assert plain.add_rows(masks)
    singletons = [[v] for v in range(nv)]
    got = unperturbed_objective(quotient, rows, orbits)
    want = unperturbed_objective(plain, masks, singletons)
    assert abs(got - want) <= 1e-7, (got, want)
    # the lifted point is the quotient's point, constant on orbits
    _, x = quotient.solution()
    assert all(len({x[v] for v in orbit}) == 1 for orbit in orbits)


def reverse(n: int, v: int) -> int:
    return int(format(v, f"0{n}b")[::-1], 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_center_cliques_have_the_full_group(n):
    nv = 1 << n
    masks = center_masks(n)
    group = symmetries(nv, masks)
    assert group == [
        list(range(nv)),
        [reverse(n, v) for v in range(nv)],
        [v ^ (nv - 1) for v in range(nv)],
        [reverse(n, v ^ (nv - 1)) for v in range(nv)],
    ]
    # without one row, what is left is the row's stabilizer: from n = 4 on
    # some row has an orbit of four, and dropping it leaves the identity
    stabilizers = set()
    for i, m in enumerate(masks):
        kept = symmetries(nv, masks[:i] + masks[i + 1:])
        assert kept == [perm for perm in group if image(m, perm) == m]
        stabilizers.add(len(kept))
    assert min(stabilizers) == (2 if n == 3 else 1)


def test_cocktail_party_rows_keep_only_the_complement():
    # partners v, v ^ 1 are the only non-adjacent pairs: complementing
    # keeps partners together, reversal moves bit 0 to bit 4
    nv = 32
    masks = [
        1 << u | 1 << v
        for u in range(nv) for v in range(u + 1, nv) if v != u ^ 1
    ]
    assert symmetries(nv, masks) == [
        list(range(nv)), [v ^ (nv - 1) for v in range(nv)]
    ]


def test_lifted_weights_cover_every_vertex_on_symmetric_families():
    rng = random.Random(9300)
    for case in range(60):
        n = rng.choice((4, 5, 6))
        nv = 1 << n
        full = symmetries(nv, [])
        masks: list[int] = []
        for _ in range(rng.randint(1, 12)):
            m = sum(1 << v for v in rng.sample(range(nv), rng.randint(1, 6)))
            orbit = list(dict.fromkeys(image(m, perm) for perm in full))
            masks += orbit * rng.choice((1, 1, 2))  # some orbits twice
        for v in range(nv):  # every vertex lies in some mask
            if not any(m >> v & 1 for m in masks):
                masks += dict.fromkeys(image(1 << v, perm) for perm in full)
        rng.shuffle(masks)
        _, masks, closed = family(nv, masks)  # a repeated mask is kept once
        assert len(symmetries(nv, masks)) == 4, case
        # the first round's weights price the plain LP optimum, plus at
        # most the rounding up of each row's share
        _, weights = next(_separation_rounds(nv, masks, closed))
        plain = PackingLP(nv)
        assert plain.add_rows(masks), case
        excess = sum(weights) / _COVER_DENOM - plain.solution()[1].sum()
        assert -1e-4 <= excess <= len(masks) / _COVER_DENOM, (case, excess)
        rows, weights = _cover_weights(nv, masks, closed, -1)
        assert rows[:len(masks)] == tuple(masks), case
        assert min(weights) >= 0, case
        for v in range(nv):
            got = sum(w for m, w in zip(rows, weights) if m >> v & 1)
            assert got >= _COVER_DENOM, (case, v, got)


def test_a_family_without_symmetry_runs_the_plain_rounds():
    masks = center_masks(7)
    del masks[1]  # its orbit has four rows
    assert len(symmetries(128, masks)) == 1
    rounds = list(_separation_rounds(*family(128, masks)))
    # the rounds of the plain LP, before the quotient existed
    assert [len(rows) for rows, _ in rounds] == [63, 91, 109, 118, 121]
    assert [sum(w) // _COVER_DENOM for _, w in rounds] == [17] * 5
    digest = hashlib.sha256(repr(rounds).encode()).hexdigest()
    assert digest == (
        "9ec1f4a58d1de75c27cbea4bd9ba22d48656f9be5632ead7bb64bed391fdc1a6"
    )


def test_cover_weight_cache_keeps_the_most_recent_families():
    _cover_weight_cache.clear()
    nv = 12
    # distinct families: a chain of pairs, each with one extra row that is
    # not a chain row
    chain = [(1 << v) | (1 << (v + 1)) for v in range(nv - 1)]
    extras = range(1, 3 * _COVER_CACHE_ENTRIES + 1)
    families = [
        family(nv, chain + [extra]) for extra in extras if extra not in chain
    ]
    newest = families.pop()
    for fam in families:
        assert _cover_weights(*fam, -1) is not None
        assert len(_cover_weight_cache) <= _COVER_CACHE_ENTRIES
    kept = [key[1] for key in _cover_weight_cache]
    assert kept == [
        tuple(fam[1]) for fam in families[-_COVER_CACHE_ENTRIES:]
    ]
    # a family served again becomes the most recent one and outlives the rest
    oldest = families[-_COVER_CACHE_ENTRIES]
    _cover_weights(*oldest, -1)
    _cover_weights(*newest, -1)
    kept = [key[1] for key in _cover_weight_cache]
    assert len(kept) == _COVER_CACHE_ENTRIES
    assert kept[-2:] == [tuple(oldest[1]), tuple(newest[1])]
    assert tuple(families[1 - _COVER_CACHE_ENTRIES][1]) not in kept
    _cover_weight_cache.clear()


def test_halved_duals_are_repaired_to_a_sound_cover(monkeypatch):
    # duals that price each vertex at half its due make every vertex short,
    # so the exact integer repair has to supply the rest
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    solution = PackingLP.solution

    def halved(self):
        duals, x = solution(self)
        return duals / 2, x

    monkeypatch.setattr(PackingLP, "solution", halved)
    rows, weights = _cover_weights(*center_family(6), -1)
    for v in range(64):
        got = sum(w for m, w in zip(rows, weights) if m >> v & 1)
        assert got >= _COVER_DENOM, (v, got)
    assert sum(weights) // _COVER_DENOM >= 10  # M(6) = 10
    result = max_sdecc_exact(6)
    assert (result.size, result.proof_status) == (10, "optimal")


def test_a_simplex_that_gives_up_leaves_greedy_covers(monkeypatch):
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    monkeypatch.setattr(coverlp, "_MAX_PIVOTS", 0)
    assert _cover_weights(*center_family(6), -1) is None
    result = max_sdecc_exact(6)
    assert (result.size, result.proof_status) == (10, "optimal")
    assert result.nodes > 1  # the LP closes n = 6 at the root


@pytest.mark.parametrize("n, size, nodes", [(6, 10, 61), (7, 16, 26511)])
def test_greedy_covers_alone_cut_the_same_nodes(monkeypatch, n, size, nodes):
    # with no LP-weighted cover every cut is a greedy cover's, so a cover
    # that stopped one row too early would leave nodes uncut
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    monkeypatch.setattr(coverlp, "_MAX_PIVOTS", 0)
    result = max_sdecc_exact(n)
    assert (result.size, result.proof_status) == (size, "optimal")
    assert result.nodes == nodes


def test_a_vertex_in_no_mask_has_no_cover_weights(monkeypatch):
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    assert _cover_weights(*family(4, [0b0011]), -1) is None


def test_a_packing_lp_with_a_vertex_in_no_row_gives_up():
    # vertex 2 lies in no row, so its column is unbounded
    assert PackingLP(3).add_rows([0b011]) is False


def test_a_cached_round_that_serves_a_call_stays_cached(monkeypatch):
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    runs = []
    separation_rounds = coverlp._separation_rounds

    def counted(nv, masks, closed):
        runs.append(nv)
        return separation_rounds(nv, masks, closed)

    monkeypatch.setattr(coverlp, "_separation_rounds", counted)
    nv, masks, closed = center_family(7)
    # M(7) = 16: a separated round meets the target, and later calls are
    # served by that cached round
    served = [_cover_weights(nv, masks, closed, 16) for _ in range(3)]
    assert runs == [128]
    assert served[0] == served[1] == served[2]
    assert sum(served[0][1]) // _COVER_DENOM <= 16
    assert list(coverlp._cover_weight_cache) == [(128, tuple(masks), 16)]


def test_a_call_past_its_deadline_keeps_no_round(monkeypatch):
    # the first round always runs; one the deadline cut short is served
    # but not kept, so a later call runs the rounds it skipped
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    started = time.monotonic()
    rows, weights = _cover_weights(*center_family(7), 16, started - 1)
    assert (len(rows), sum(weights) // _COVER_DENOM) == (64, 17)
    assert coverlp._cover_weight_cache == {}


def test_each_target_is_served_the_round_it_would_run_to(monkeypatch):
    # the first round whose bound meets the target, else the last round,
    # whichever targets were asked before
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    fam = center_family(7)
    rounds = list(_separation_rounds(*fam))
    for target in (16, -1, 16, 17, 30, -1):
        met = [r for r in rounds if sum(r[1]) // _COVER_DENOM <= target]
        want = met[0] if met else rounds[-1]
        assert _cover_weights(*fam, target) == want, target


def test_c5_rows_that_repeat_c0_rows_share_its_cached_family(monkeypatch):
    # C5's w = 0 and w = n-1 rows are C0's rows for 0^(n-1) and 1^(n-1);
    # with them dropped the {C0, C5} model has {C0}'s packing masks, so its
    # solve is served {C0}'s cover instead of separating a second family
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    for families in ({"C0"}, {"C0", "C5"}):
        sol = solve_builtin(build_model(7, families))
        assert (sol.objective, sol.solver_status) == (16, "optimal")
    assert [key[0] for key in coverlp._cover_weight_cache] == [128]


def test_an_lp_file_repeating_every_c0_row_is_solved_on_c0s_family(
    monkeypatch, tmp_path
):
    # each C0 row again under another label: the solver keeps the first
    # copy of each, so the cover is C0's, separated once and closing the
    # root
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    rows = build_model(7, {"C0"}).constraints
    again = tuple(
        LinearConstraint(row.terms, row.sense, row.rhs, f"again_{row.label}")
        for row in rows
    )
    path = tmp_path / "c0-twice.lp"
    with open(path, "w", encoding="utf-8") as sink:
        write_lp(IlpModel(7, rows + again), sink)
    with open(path, encoding="utf-8") as source:
        model = read_lp(source)
    assert len(model.constraints) == 128
    sol = solve_builtin(model, SearchOptions(node_limit=1))
    assert (sol.objective, sol.solver_status) == (16, "optimal")
    masks = center_masks(7)
    assert len(masks) == 64
    assert list(coverlp._cover_weight_cache) == [(128, tuple(masks), 16)]
