"""Packing-LP tests: warm re-solves against cold solves, duals, pinned rounds.

A PackingLP that takes rows in several batches must reach the optimum a
fresh one reaches with all of them at once, and its duals must stay
feasible. The length-7 separation rounds are pinned, together with the
pivots the warm start saves on them. The cache of rounds per mask family
keeps a bounded number of families.
"""

import itertools
import random

import pytest

from delcodes.coverlp import (
    _COVER_CACHE_ENTRIES,
    _COVER_DENOM,
    PackingLP,
    _cover_weight_cache,
    _cover_weights,
    _separation_rounds,
)
from delcodes.sdecc import _incidence, conflict_graph


def center_masks(n: int) -> list[int]:
    cliques = conflict_graph(n).cliques_by_center.values()
    masks, _, _ = _incidence(1 << n, cliques)
    return masks


def length_seven_rounds() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return list(itertools.islice(_separation_rounds(128, center_masks(7)), 4))


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
    for round_rows, _ in _separation_rounds(nv, center_masks(n)):
        assert lp.add_rows(round_rows[len(rows):]), (n, len(round_rows))
        rows = list(round_rows)
        check_against_cold(lp, rows, (n, len(rows)))


def test_length_seven_rounds_are_pinned():
    rounds = length_seven_rounds()
    assert [len(rows) for rows, _ in rounds] == [64, 94, 130, 141]
    assert [sum(w) // _COVER_DENOM for _, w in rounds] == [17, 17, 17, 16]


def test_warm_rounds_take_fewer_pivots_than_cold_solves(monkeypatch):
    pivots = 0
    pivot = PackingLP._pivot

    def counted(self, r, c):
        nonlocal pivots
        pivots += 1
        pivot(self, r, c)

    monkeypatch.setattr(PackingLP, "_pivot", counted)
    rounds = [rows for rows, _ in length_seven_rounds()]
    for before, after in zip(rounds, rounds[1:]):
        warm = PackingLP(128)
        assert warm.add_rows(before)
        pivots = 0
        assert warm.add_rows(after[len(before):])
        warm_pivots = pivots
        pivots = 0
        assert PackingLP(128).add_rows(after)
        assert 0 < warm_pivots < pivots / 2, (len(after), warm_pivots, pivots)


def test_cover_weight_cache_keeps_the_most_recent_families():
    _cover_weight_cache.clear()
    nv = 12
    # distinct families: a chain of pairs, each with one extra row
    chain = [(1 << v) | (1 << (v + 1)) for v in range(nv - 1)]
    extras = range(1, 3 * _COVER_CACHE_ENTRIES + 1)
    families = [chain + [extra] for extra in extras]
    newest = families.pop()
    for masks in families:
        assert _cover_weights(nv, masks, -1) is not None
        assert len(_cover_weight_cache) <= _COVER_CACHE_ENTRIES
    kept = [key[1] for key in _cover_weight_cache]
    assert kept == [tuple(m) for m in families[-_COVER_CACHE_ENTRIES:]]
    # a resumed family becomes the most recent one and outlives the rest
    oldest = families[-_COVER_CACHE_ENTRIES]
    _cover_weights(nv, oldest, -1)
    _cover_weights(nv, newest, -1)
    kept = [key[1] for key in _cover_weight_cache]
    assert len(kept) == _COVER_CACHE_ENTRIES
    assert kept[-2:] == [tuple(oldest), tuple(newest)]
    assert tuple(families[1 - _COVER_CACHE_ENTRIES]) not in kept
    _cover_weight_cache.clear()
