"""Validity, decoding, conflict-graph, bounds, and exact-search tests.

The exact search is checked against the known maxima table and, with the
built-in solver, against brute-force enumeration; graph structure is
cross-checked against direct surface computations, and validity verdicts
against independent-set membership for small lengths.
"""

import itertools
import random

import pytest

from delcodes.bitseq import (
    Word,
    WordSet,
    deletion_surface,
    enumerate_words,
    surface_values,
)
from delcodes.constraints import build_model, dominated_words
from delcodes.ilp import solve_builtin
from delcodes.sdecc import (
    KNOWN_SIZES,
    SearchOptions,
    _COVER_DENOM,
    _cover_weight_cache,
    _cover_weights,
    _drop_dominated,
    _incidence,
    bounds,
    conflict_graph,
    decode_single,
    is_sdecc,
    max_sdecc_exact,
)
from delcodes.vt import vt_code


def code_of(*strings: str) -> WordSet:
    return WordSet.from_words([Word.parse(s) for s in strings])


# ------------------------------------------------------------------ validity


def test_six_word_code_of_length_five_is_valid():
    code = code_of("00000", "10001", "01010", "11011", "11100", "00111")
    result = is_sdecc(code)
    assert result.ok
    assert bool(result)
    assert result.first_pair is None
    assert result.shared is None


def test_shared_surface_element_is_reported():
    result = is_sdecc(code_of("00000", "10000"))
    assert not result.ok
    assert not bool(result)
    a, b = result.first_pair
    assert (str(a), str(b)) == ("00000", "10000")
    assert str(result.shared) == "0000"
    # the witness element really lies in both surfaces
    assert result.shared.value in surface_values(5, a.value)
    assert result.shared.value in surface_values(5, b.value)


def test_single_word_codes_are_always_valid():
    for w in enumerate_words(4):
        assert is_sdecc(WordSet(4, [w.value]))


def test_validity_rejects_length_one():
    with pytest.raises(ValueError):
        is_sdecc(WordSet(1, [0, 1]))


@pytest.mark.parametrize("n", range(2, 7))
def test_validity_matches_pairwise_surface_disjointness(n):
    rng = random.Random(4000 + n)
    words = list(range(1 << n))
    for _ in range(60):
        sample = rng.sample(words, rng.randint(2, min(8, 1 << n)))
        expected = all(
            not (surface_values(n, x) & surface_values(n, y))
            for x, y in itertools.combinations(sample, 2)
        )
        assert bool(is_sdecc(WordSet(n, sample))) == expected


def ordered_scan(n, values):
    """Reference verdict: words ascending, each surface ascending, and the
    first deleted word already owned by an earlier word is the collision."""
    owner = {}
    for bits in sorted(format(v, f"0{n}b") for v in values):
        for deleted in sorted({bits[:i] + bits[i + 1:] for i in range(n)}):
            if deleted in owner:
                return False, (owner[deleted], bits), deleted
            owner[deleted] = bits
    return True, None, None


@pytest.mark.parametrize("n", range(3, 11))
def test_validity_reports_the_first_collision_of_an_ordered_scan(n):
    rng = random.Random(5000 + n)
    words = range(1 << n)
    cases = [rng.sample(words, rng.randint(2, min(24, 1 << n))) for _ in range(60)]
    for a in range(n + 1):
        members = set(vt_code(n, a).values)
        covered = {c for v in members for c in surface_values(n, v)}
        # one outside word whose surface meets the class's
        intruders = [
            x for x in words
            if x not in members and surface_values(n, x) & covered
        ]
        cases.append(sorted(members | {rng.choice(intruders)}))
    invalid = 0
    for values in cases:
        result = is_sdecc(WordSet(n, values))
        ok, pair, shared = ordered_scan(n, values)
        assert result.ok == ok, values
        if ok:
            assert result.first_pair is None and result.shared is None
            continue
        invalid += 1
        assert tuple(str(w) for w in result.first_pair) == pair, values
        assert str(result.shared) == shared, values
    assert invalid > n + 1  # every injected class, and some random sets


# ------------------------------------------------------------------ decoding


def test_decode_recovers_paper_listing_words():
    code = vt_code(5, 0)
    assert decode_single(code, Word.parse("1001")) == Word.parse("10001")
    assert decode_single(code, Word.parse("0000")) == Word.parse("00000")


def test_decode_returns_none_when_uncovered():
    code = code_of("00000", "11111")
    assert decode_single(code, Word.parse("1010")) is None


def test_decode_rejects_wrong_received_length():
    with pytest.raises(ValueError):
        decode_single(vt_code(5, 0), Word.parse("101"))


def test_decode_flags_ambiguity_on_invalid_code():
    # both words cover 0000, so the validity promise is broken
    code = code_of("00000", "10000")
    with pytest.raises(RuntimeError):
        decode_single(code, Word.parse("0000"))


@pytest.mark.parametrize("n", range(2, 11))
def test_decode_round_trips_every_surface_element(n):
    code = vt_code(n, 0)
    for x in code:
        for y in deletion_surface(x):
            assert decode_single(code, y) == x


# ------------------------------------------------------------ conflict graph


def test_graph_edges_for_length_two():
    g = conflict_graph(2)
    adj = g.adjacency
    assert 0b10 in adj[0b01] and 0b01 in adj[0b10]  # share both 0 and 1
    assert 0b01 in adj[0b00] and 0b10 in adj[0b00]  # share the deleted 0
    assert 0b11 not in adj[0b00]
    assert adj[0b00] == frozenset({0b01, 0b10})


def test_graph_cliques_for_length_two():
    g = conflict_graph(2)
    assert g.cliques_by_center[0b0] == (0b00, 0b01, 0b10)
    assert g.cliques_by_center[0b1] == (0b01, 0b10, 0b11)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_center_has_exactly_n_plus_one_coverers(n):
    g = conflict_graph(n)
    assert len(g.cliques_by_center) == 1 << (n - 1)
    assert all(len(c) == n + 1 for c in g.cliques_by_center.values())


def test_vertex_count_and_repr():
    g = conflict_graph(3)
    assert g.vertex_count == 8
    assert "n=3" in repr(g)


@pytest.mark.parametrize("bad", [1, 15, 0, -3, 2.0, True])
def test_graph_rejects_out_of_range_lengths(bad):
    with pytest.raises(ValueError):
        conflict_graph(bad)


@pytest.mark.parametrize("n", range(2, 6))
def test_adjacency_is_symmetric_irreflexive_and_surface_driven(n):
    g = conflict_graph(n)
    adj = g.adjacency
    for x in range(1 << n):
        assert x not in adj[x]
        for y in range(1 << n):
            if x == y:
                continue
            expected = bool(surface_values(n, x) & surface_values(n, y))
            assert (y in adj[x]) == expected
            assert (x in adj[y]) == expected
            assert g.conflicts(Word(n, x), Word(n, y)) == expected


def test_conflicts_rejects_foreign_lengths():
    g = conflict_graph(3)
    with pytest.raises(ValueError):
        g.conflicts(Word.parse("0101"), Word.parse("010"))


def test_edges_equal_union_of_clique_pairs():
    g = conflict_graph(5)
    from_cliques: set[frozenset[int]] = set()
    for members in g.cliques_by_center.values():
        for a, b in itertools.combinations(members, 2):
            from_cliques.add(frozenset((a, b)))
    from_adjacency = {
        frozenset((x, y)) for x, nbrs in g.adjacency.items() for y in nbrs
    }
    assert from_cliques == from_adjacency


@pytest.mark.parametrize("n", range(2, 7))
def test_independent_sets_are_exactly_the_valid_codes(n):
    g = conflict_graph(n)
    adj = g.adjacency

    def independent(vals):
        return all(
            y not in adj[x] for x, y in itertools.combinations(vals, 2)
        )

    words = list(range(1 << n))
    for k in (2, 3):
        for vals in itertools.combinations(words, k):
            assert independent(vals) == bool(is_sdecc(WordSet(n, vals)))
    rng = random.Random(900 + n)
    for _ in range(40):
        vals = rng.sample(words, rng.randint(4, min(12, 1 << n)))
        assert independent(vals) == bool(is_sdecc(WordSet(n, vals)))


# -------------------------------------------------------------------- bounds


def test_bounds_for_length_eleven():
    rec = bounds(11)
    assert rec.lower_ratio == 171
    assert rec.lower_vt == 172
    assert rec.known_M == 172
    assert rec.upper_kk == 227


def test_bounds_for_length_twelve_has_no_exact_maximum():
    rec = bounds(12)
    assert rec.lower_vt == 316
    assert rec.known_M is None
    assert rec.known_upper == 320


def test_bounds_known_maximum_for_length_eight():
    assert bounds(8).known_M == 30


@pytest.mark.parametrize("n", range(3, 16))
def test_bounds_chain_is_ordered(n):
    rec = bounds(n)
    chain = [rec.lower_ratio, rec.lower_vt, rec.known_M,
             rec.known_upper, rec.upper_kk]
    present = [b for b in chain if b is not None]
    assert present == sorted(present)


def test_bounds_outside_table_leaves_optionals_empty():
    rec = bounds(20)
    assert rec.known_M is None
    assert rec.known_upper is None
    assert rec.lower_ratio <= rec.lower_vt <= rec.upper_kk


def test_bounds_supports_the_full_formula_range():
    rec = bounds(62)
    assert rec.lower_ratio == -(-(1 << 62) // 63)
    assert rec.upper_kk == ((1 << 62) - 2) // 60


@pytest.mark.parametrize("bad", [2, 63, 0])
def test_bounds_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        bounds(bad)


# -------------------------------------------------------------- exact search


def test_trivial_length_one_maximum():
    r = max_sdecc_exact(1)
    assert r.size == 1
    assert r.proof_status == "optimal"
    assert r.witness == WordSet(1, [0])


@pytest.mark.parametrize("n", range(2, 7))
def test_search_matches_known_maxima_small(n):
    r = max_sdecc_exact(n)
    assert r.size == KNOWN_SIZES[n][1]
    assert r.proof_status == "optimal"
    assert is_sdecc(r.witness)
    assert len(r.witness) == r.size


def brute_force_max_code(n: int) -> int:
    """Largest valid code of length n by plain enumeration.

    Conflicts come only from pairwise deletion-surface intersections, and
    every independent set is visited: no bound, cover, ordering or row
    machinery is shared with the searches under test.
    """
    surfaces = {
        w.value: {s.value for s in deletion_surface(w)}
        for w in enumerate_words(n)
    }
    conflicts = {
        x: sum(
            1 << y for y in surfaces if y != x and surfaces[x] & surfaces[y]
        )
        for x in surfaces
    }

    def largest(cand: int) -> int:
        if not cand:
            return 0
        v = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << v)
        return max(largest(rest), 1 + largest(rest & ~conflicts[v]))

    return largest((1 << (1 << n)) - 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_both_searches_match_brute_force_enumeration(n):
    # the two searches share one kernel, so agreement between them alone
    # would not catch a kernel bug; this oracle shares nothing with it
    expected = brute_force_max_code(n)
    assert max_sdecc_exact(n).size == expected
    assert solve_builtin(build_model(n, {"C0"})).objective == expected


def test_search_proves_length_eight_quickly():
    r = max_sdecc_exact(8)
    assert r.size == 30
    assert r.proof_status == "optimal"
    assert is_sdecc(r.witness)


def test_root_reduction_keeps_the_length_seven_proof_small():
    r = max_sdecc_exact(7)
    assert r.size == 16 and r.proof_status == "optimal"
    # 6,903 branching on the fullest clique over canonical labels; 49,913
    # branching on the lowest word by surface size, 268,601 without the
    # root reduction
    assert r.nodes < 10_000


@pytest.mark.parametrize("n", range(2, 11))
def test_root_reduction_drops_exactly_the_c2_words(n):
    graph = conflict_graph(n)
    nv = 1 << n
    _, rows_of, _ = _incidence(nv, graph.cliques_by_center.values())
    kept = _drop_dominated((1 << nv) - 1, rows_of, [()] * nv, ())
    dropped = {v for v in range(nv) if not kept >> v & 1}
    assert dropped == {w.value for w in dominated_words(n)}


def test_root_reduction_keeps_one_of_two_twins():
    # 0 and 1 share their only row, so each dominates the other; the
    # dominator must still be a candidate, so exactly one of them goes
    _, rows_of, _ = _incidence(2, [(0, 1)])
    assert _drop_dominated(0b11, rows_of, [()] * 2, ()) == 0b01


def test_cover_weights_cover_every_vertex_on_random_families():
    rng = random.Random(9100)
    for case in range(200):
        nv = rng.randint(1, 40)
        masks = [
            sum(1 << v for v in rng.sample(range(nv), rng.randint(1, nv)))
            for _ in range(rng.randint(1, 30))
        ]
        for v in range(nv):  # every vertex lies in some mask
            if not any(m >> v & 1 for m in masks):
                masks[rng.randrange(len(masks))] |= 1 << v
        weights = _cover_weights(nv, masks)
        assert weights is not None, case
        assert len(weights) == len(masks) and min(weights) >= 0, case
        for v in range(nv):
            got = sum(w for m, w in zip(masks, weights) if m >> v & 1)
            assert got >= _COVER_DENOM, (case, v, got)


def test_cover_weight_cache_keeps_only_families_it_solves():
    # above the simplex cap the 2^n-bit masks are neither hashed nor kept
    solve_builtin(build_model(9, {"C0"}), SearchOptions(node_limit=1))
    assert all(nv <= 256 for nv, _ in _cover_weight_cache)
    for key in [key for key in _cover_weight_cache if key[0] == 128]:
        del _cover_weight_cache[key]
    solve_builtin(build_model(7, {"C0"}), SearchOptions(node_limit=1))
    assert any(nv == 128 for nv, _ in _cover_weight_cache)


def test_node_budget_degrades_to_bound_limited():
    r = max_sdecc_exact(7, SearchOptions(node_limit=5))
    assert r.proof_status == "bound-limited"
    # the starting incumbent is already the true maximum here
    assert r.size == 16
    assert is_sdecc(r.witness)
    assert r.nodes <= 6


def test_time_budget_degrades_to_bound_limited():
    r = max_sdecc_exact(7, SearchOptions(time_limit=0.0))
    assert r.proof_status in ("optimal", "bound-limited")
    assert r.size >= 16
    assert is_sdecc(r.witness)


@pytest.mark.parametrize(
    "limits",
    [
        {"time_limit": float("nan")},
        {"time_limit": -1.0},
        {"node_limit": -1},
    ],
)
def test_budgets_that_could_never_hold_are_rejected(limits):
    # NaN never trips the deadline; a negative budget stops after one node
    with pytest.raises(ValueError, match=next(iter(limits))):
        SearchOptions(**limits)


def test_zero_and_infinite_budgets_stay_valid():
    SearchOptions(node_limit=0, time_limit=0.0)
    r = max_sdecc_exact(6, SearchOptions(time_limit=float("inf")))
    assert r.proof_status == "optimal" and r.size == 10


def test_incumbent_must_match_length_and_be_valid():
    with pytest.raises(ValueError):
        max_sdecc_exact(5, SearchOptions(incumbent=vt_code(4, 0)))
    with pytest.raises(ValueError):
        max_sdecc_exact(
            5, SearchOptions(incumbent=code_of("00000", "10000"))
        )


def test_incumbent_warm_start_is_accepted():
    # seeding with the known optimum still proves optimality
    witness = max_sdecc_exact(6).witness
    r = max_sdecc_exact(6, SearchOptions(incumbent=witness))
    assert r.size == 10
    assert r.proof_status == "optimal"


@pytest.mark.parametrize("n", range(2, 9))
def test_witness_is_vt0_through_length_eight(n):
    # VT_0 is optimal here and the first seed, so no node replaces it
    assert max_sdecc_exact(n).witness == vt_code(n, 0)


@pytest.mark.parametrize("n", (9, 10, 11))
def test_witness_is_vt0_when_no_node_may_run(n):
    r = max_sdecc_exact(n, SearchOptions(node_limit=0))
    vt0 = vt_code(n, 0)
    assert r.witness == vt0 and r.size == len(vt0)
    assert r.proof_status == "bound-limited" and r.nodes == 1


def test_search_is_deterministic():
    a = max_sdecc_exact(6)
    b = max_sdecc_exact(6)
    assert a == b
