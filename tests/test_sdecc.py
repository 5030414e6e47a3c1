"""Validity, decoding, conflict-graph, bounds, and exact-search tests.

The exact search is checked against the known maxima table and, with the
built-in solver, against brute-force enumeration; graph structure is
cross-checked against direct surface computations, and validity verdicts
against independent-set membership for small lengths.
"""

import gc
import itertools
import random
import re
import time

import pytest

from delcodes import coverlp
from delcodes import ilp as ilp_module
from delcodes import sdecc as sdecc_module
from delcodes.bitseq import (
    MAX_LEN,
    Word,
    WordSet,
    deletion_surface,
    enumerate_words,
    surface_values,
)
from delcodes.constraints import build_model, dominated_words
from delcodes.coverlp import (
    _COVER_DENOM,
    _cover_weight_cache,
    _cover_weights,
    _violated_cliques,
)
from delcodes.ilp import (
    IlpModel,
    LinearConstraint,
    _classify_rows,
    solve_builtin,
)
from delcodes.sdecc import (
    GRAPH_MAX_N,
    KNOWN_SIZES,
    BoundsRecord,
    SearchOptions,
    _drop_dominated,
    _incidence,
    _ones,
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


def test_validity_at_length_one():
    # every length-1 word deletes to the empty word, which is no Word
    for k in range(3):
        for values in itertools.combinations((0, 1), k):
            expected = all(
                not (surface_values(1, x) & surface_values(1, y))
                for x, y in itertools.combinations(values, 2)
            )
            result = is_sdecc(WordSet(1, values))
            assert result.ok == expected == (k <= 1), values
            if not expected:
                assert result.first_pair == (Word(1, 0), Word(1, 1))
                assert result.shared is None


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


@pytest.mark.parametrize("n", (16, 18, 20))
def test_decode_round_trips_random_deletions_at_long_lengths(n):
    rng = random.Random(7300 + n)
    code = vt_code(n, rng.randrange(n + 1))
    values = code.values
    for _ in range(300):
        sent = rng.choice(values)
        bits = format(sent, f"0{n}b")
        i = rng.randrange(n)
        received = Word.parse(bits[:i] + bits[i + 1:])
        assert decode_single(code, received) == Word(n, sent), (bits, i)


def _sparse_code_at_max_len():
    # random words at n = MAX_LEN, each kept only if its surface misses
    # every kept one: a valid code whose neighbours are all far apart
    n = MAX_LEN
    rng = random.Random(7500)
    kept, covered = [], set()
    while len(kept) < 40:
        v = rng.randrange(1 << n)
        surface = surface_values(n, v)
        if not surface & covered:
            kept.append(v)
            covered |= surface
    return WordSet(n, kept)


def test_decode_round_trips_every_deletion_of_a_sparse_code_at_max_len():
    code = _sparse_code_at_max_len()
    n = code.n
    assert is_sdecc(code)
    for sent in code.values:
        bits = format(sent, f"0{n}b")
        for i in range(n):
            received = Word.parse(bits[:i] + bits[i + 1:])
            assert decode_single(code, received) == Word(n, sent), (bits, i)
    # a received word no codeword covers decodes to None
    covered = {c for v in code.values for c in surface_values(n, v)}
    uncovered = next(v for v in range(1 << (n - 1)) if v not in covered)
    assert decode_single(code, Word(n - 1, uncovered)) is None


def test_decode_names_both_covering_words_at_max_len():
    # 0^24 and 0^23 1 both cover 0^23, and no two words are lower
    n = MAX_LEN
    code = WordSet(n, _sparse_code_at_max_len().values + (0, 1))
    zeros = "0" * (n - 1)
    with pytest.raises(
        RuntimeError,
        match=f"code is not a valid SDECC: {zeros}0 and {zeros}1 both cover "
        f"{zeros}$",
    ):
        decode_single(code, Word(n - 1, 0))


def test_decode_names_the_two_lowest_covering_words():
    # 00000, 00001 and 10000 all cover 0000
    code = code_of("10000", "00001", "00000", "11111")
    with pytest.raises(RuntimeError, match="00000 and 00001 both cover 0000"):
        decode_single(code, Word.parse("0000"))


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


@pytest.mark.parametrize("n", range(2, GRAPH_MAX_N + 1))
def test_every_center_has_exactly_n_plus_one_coverers(n):
    g = conflict_graph(n)
    assert list(g.cliques_by_center) == list(range(1 << (n - 1)))
    for c in g.cliques_by_center.values():
        # n+1 distinct words, ascending, each of length n
        assert len(c) == n + 1
        assert all(a < b for a, b in zip(c, c[1:]))
        assert 0 <= c[0] and c[-1] < 1 << n


@pytest.mark.parametrize("n", range(2, 9))
def test_cliques_match_a_scan_of_every_surface(n):
    scanned: dict[int, list[int]] = {}
    for v in range(1 << n):
        for c in surface_values(n, v):
            scanned.setdefault(c, []).append(v)
    expected = [(c, tuple(vs)) for c, vs in sorted(scanned.items())]
    assert list(conflict_graph(n).cliques_by_center.items()) == expected


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


def test_bounds_record_refuses_a_chain_out_of_order():
    with pytest.raises(RuntimeError, match="bounds chain out of order"):
        BoundsRecord(n=8, lower_vt=30, lower_ratio=29, upper_kk=42,
                     known_M=31, known_upper=30)


@pytest.mark.parametrize("bad", [2, 63, 0])
def test_bounds_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        bounds(bad)


@pytest.mark.parametrize("bad", [5.0, True])
def test_bounds_rejects_a_length_that_is_not_an_int(bad):
    message = f"bounds supports 3 <= n <= 62, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        bounds(bad)


# -------------------------------------------------------------- exact search


def test_trivial_length_one_maximum():
    r = max_sdecc_exact(1)
    assert r.size == 1
    assert r.proof_status == "optimal"
    assert r.witness == WordSet(1, [0])


@pytest.mark.parametrize("bad", [0, 15, -1, True, 7.0])
def test_exact_search_rejects_out_of_range_lengths(bad):
    # checked before the n = 1 shortcut, so True is not taken as n = 1
    with pytest.raises(ValueError, match="max supports 1 <= n <= 14"):
        max_sdecc_exact(bad)


@pytest.mark.parametrize("n", range(2, 7))
def test_search_matches_known_maxima_small(n):
    r = max_sdecc_exact(n)
    assert r.size == KNOWN_SIZES[n][0]
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
    # separated clique rows bring the cover bound under 17 at the root;
    # with the center cliques alone it is 17.15 and the tree takes 6,903
    # nodes (268,601 without the root reduction)
    assert r.nodes == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_root_reduction_drops_exactly_the_c2_words(n):
    graph = conflict_graph(n)
    nv = 1 << n
    _, rows_of, _ = _incidence(nv, graph.cliques_by_center.values())
    kept = _drop_dominated((1 << nv) - 1, rows_of, [()] * nv)
    dropped = {v for v in range(nv) if not kept >> v & 1}
    assert dropped == {w.value for w in dominated_words(n)}


def test_root_reduction_keeps_one_of_two_twins():
    # 0 and 1 share their only row, so each dominates the other; the
    # dominator must still be a candidate, so exactly one of them goes
    _, rows_of, _ = _incidence(2, [(0, 1)])
    assert _drop_dominated(0b11, rows_of, [()] * 2) == 0b01


def test_ones_lists_the_set_bits_of_sparse_and_dense_masks():
    rng = random.Random(31)
    for width in (0, 1, 7, 64, 300, 8192):
        for density in (0.0, 0.01, 0.2, 0.3, 0.5, 1.0):
            mask = sum(
                1 << v for v in range(width) if rng.random() < density
            )
            assert _ones(mask) == [
                v for v in range(mask.bit_length()) if mask >> v & 1
            ]


def test_ones_walks_a_sparse_mask_at_the_cost_of_its_bit_string():
    # two set bits in 2^22 positions: a walk over every position in Python
    # took over 40 times as long as bin() of the mask
    mask = 1 | 1 << (1 << 22) - 1
    assert _ones(mask) == [0, (1 << 22) - 1]

    def fastest(f):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            f(mask)
            best = min(best, time.perf_counter() - start)
        return best

    assert fastest(_ones) < 10 * fastest(bin)


def _closed_by_scan(nv, rows):
    # v with every variable it shares a row with, read off the member lists
    closed = [0] * nv
    for members in rows:
        mask = sum(1 << v for v in members)
        for v in members:
            closed[v] |= mask
    return closed


def _or(masks):
    total = 0
    for m in masks:
        total |= m
    return total


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_neighbourhoods_of_the_conflict_graph(n):
    graph = conflict_graph(n)
    nv = 1 << n
    cliques = graph.cliques_by_center.values()
    _, rows_of, closed = _incidence(nv, cliques)
    assert len(closed) == 0  # nothing is built before it is read
    expected = _closed_by_scan(nv, cliques)
    for v in range(nv):
        assert closed[v] == expected[v] == _or(rows_of[v])
        assert closed[v] == sum(1 << u for u in graph.adjacency[v]) | 1 << v
    assert len(closed) == nv


def test_closed_neighbourhoods_of_random_packing_families():
    rng = random.Random(2020)
    for case in range(200):
        nv = rng.randint(1, 40)
        rows = [
            rng.sample(range(nv), rng.randint(1, nv))
            for _ in range(rng.randint(0, 30))
        ]
        _, rows_of, closed = _incidence(nv, rows)
        expected = _closed_by_scan(nv, rows)
        # in a scattered order, each lookup building or reading its mask
        for v in rng.sample(range(nv), nv) * 2:
            assert closed[v] == expected[v] == _or(rows_of[v]), (case, v)


def test_incidence_keeps_the_first_of_rows_with_equal_members():
    # (2, 1, 0) and (3, 1) repeat earlier member sets in another order
    rows = [(0, 1, 2), (1, 3), (2, 1, 0), (3, 1), (0, 3)]
    masks, rows_of, closed = _incidence(4, rows)
    assert masks == [0b0111, 0b1010, 0b1001]
    assert rows_of == [
        [0b0111, 0b1001], [0b0111, 0b1010], [0b0111], [0b1010, 0b1001]
    ]
    assert [closed[v] for v in range(4)] == [0b1111, 0b1111, 0b0111, 0b1011]


def test_built_in_solve_builds_few_closed_neighbourhoods(monkeypatch):
    built = []

    def recording_incidence(nv, rows):
        masks, rows_of, closed = _incidence(nv, rows)
        built.append(closed)
        return masks, rows_of, closed

    monkeypatch.setattr(ilp_module, "_incidence", recording_incidence)
    model = build_model(12, {"C0", "C1", "C2", "C3", "C4", "C5", "C6"})
    solve_builtin(model, SearchOptions(node_limit=20))
    [closed] = built
    assert 0 < len(closed) < 4096


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
        # the kernel's family: each repeated mask kept once
        masks, _, closed = _incidence(nv, map(_members, masks))
        # a target no bound meets runs the separation to convergence
        cover = _cover_weights(nv, masks, closed, -1)
        assert cover is not None, case
        rows, weights = cover
        assert rows[:len(masks)] == tuple(masks), case
        assert len(weights) == len(rows) and min(weights) >= 0, case
        for v in range(nv):
            got = sum(w for m, w in zip(rows, weights) if m >> v & 1)
            assert got >= _COVER_DENOM, (case, v, got)


def test_cover_weight_cache_keeps_only_families_it_solves():
    # above the simplex cap the 2^n-bit masks are neither hashed nor kept
    solve_builtin(build_model(9, {"C0"}), SearchOptions(node_limit=1))
    assert all(nv <= 256 for nv, *_ in _cover_weight_cache)
    for key in [key for key in _cover_weight_cache if key[0] == 128]:
        del _cover_weight_cache[key]
    solve_builtin(build_model(7, {"C0"}), SearchOptions(node_limit=1))
    # the kept round is the first whose bound is M(7), the incumbent's size
    [(rows, weights)] = [
        entry for key, entry in _cover_weight_cache.items() if key[0] == 128
    ]
    assert (len(rows), sum(weights) // _COVER_DENOM) == (114, 16)


def test_proofs_the_greedy_cover_closes_build_no_cover_lp(monkeypatch):
    # through n = 5 the greedy cover cuts the root, so no packing LP is
    # solved; n = 6 needs the LP-weighted cover
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    for n in range(2, 6):
        assert max_sdecc_exact(n).nodes == 1
    assert coverlp._cover_weight_cache == {}
    assert max_sdecc_exact(6).nodes == 1
    assert [key[0] for key in coverlp._cover_weight_cache] == [64]


def test_a_search_stopped_at_its_first_node_builds_no_cover_lp(monkeypatch):
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    sol = solve_builtin(build_model(7, {"C0"}), SearchOptions(node_limit=0))
    assert (sol.objective, sol.solver_status) == (16, "feasible")
    assert coverlp._cover_weight_cache == {}


def test_a_cover_built_without_an_incumbent_aims_at_minus_one(monkeypatch):
    # no warm-start seed holds both x_000001 and x_000110, so the search
    # starts without an incumbent and its first node with need >= 0 comes
    # after the tree has found one; the cover built there still has the
    # rounds of target -1
    base = build_model(6, {"C0"})
    both = LinearConstraint(((1, 1), (6, 1)), ">=", 2, "both")
    model = IlpModel(6, base.constraints + (both,))
    monkeypatch.setattr(coverlp, "_cover_weight_cache", {})
    targets = []
    cover_weights = sdecc_module._cover_weights

    def recorded(nv, masks, closed, target, deadline=None):
        targets.append(target)
        return cover_weights(nv, masks, closed, target, deadline)

    monkeypatch.setattr(sdecc_module, "_cover_weights", recorded)
    sol = solve_builtin(model)
    assert (sol.objective, sol.solver_status) == (9, "optimal")
    assert targets == [-1]
    [lazy] = coverlp._cover_weight_cache.values()
    coverlp._cover_weight_cache.clear()
    masks, _, closed = _incidence(64, _classify_rows(model)[1])
    # the kept round has separated rows, and a fresh call runs to it
    assert len(lazy[0]) > len(masks)
    assert lazy == _cover_weights(64, masks, closed, -1)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_separated_rows_are_maximal_cliques_of_the_input_rows(n):
    nv = 1 << n
    masks, _, closed = _incidence(
        nv, conflict_graph(n).cliques_by_center.values()
    )
    rows, _ = _cover_weights(nv, masks, closed, -1)
    assert rows[:len(masks)] == tuple(masks) and len(rows) > len(masks)
    # adjacency is read off the masks themselves, not off closed
    share: set[tuple[int, int]] = set()
    for m in masks:
        share.update(itertools.permutations(_members(m), 2))
    for row in rows[len(masks):]:
        members = _members(row)
        pairs = itertools.combinations(members, 2)
        assert all(pair in share for pair in pairs), row
        assert not any(
            all((w, u) in share for u in members)
            for w in range(nv)
            if not row >> w & 1
        ), row


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def random_packing_model(rng: random.Random, n: int) -> IlpModel:
    nv = 1 << n
    rows = [
        rng.sample(range(nv), rng.randint(2, 4))
        for _ in range(rng.randint(nv // 2, 2 * nv))
    ]
    covered = {v for row in rows for v in row}
    rows += [[v, (v + 1) % nv] for v in range(nv) if v not in covered]
    return IlpModel(n, tuple(
        LinearConstraint(tuple((v, 1) for v in sorted(row)), "<=", 1, f"p{i}")
        for i, row in enumerate(rows)
    ))


def brute_force_max_packing(model: IlpModel) -> int:
    # branches on the candidate of most conflicts and takes a candidate
    # with none outright: a different order from the kernel's
    nv = 1 << model.n
    nbr = [1 << v for v in range(nv)]
    for row in model.constraints:
        mask = sum(1 << v for v, _ in row.terms)
        for v, _ in row.terms:
            nbr[v] |= mask

    def largest(cand: int) -> int:
        if not cand:
            return 0
        degree, v = max(
            ((nbr[v] & cand).bit_count(), v) for v in _members(cand)
        )
        if degree == 1:
            return cand.bit_count()
        return max(largest(cand ^ 1 << v), 1 + largest(cand & ~nbr[v]))

    return largest((1 << nv) - 1)


def test_solver_matches_brute_force_on_random_packing_models(monkeypatch):
    separated = 0
    calls = 0
    violated_cliques = coverlp._violated_cliques

    def counted(*args):
        nonlocal calls
        calls += 1
        return violated_cliques(*args)

    monkeypatch.setattr(coverlp, "_violated_cliques", counted)
    rng = random.Random(8000)
    for case in range(300):
        model = random_packing_model(rng, 4 + case % 2)
        before = calls
        sol = solve_builtin(model)
        separated += calls > before
        assert sol.solver_status == "optimal", case
        assert sol.objective == brute_force_max_packing(model), case
    assert separated >= 100


def test_length_eight_root_adds_no_rows():
    # the center cliques alone bound the root by 30.32, whose floor is
    # already M(8), so no clique is separated
    masks, _, _ = _incidence(256, conflict_graph(8).cliques_by_center.values())
    _cover_weight_cache.pop((256, tuple(masks), 30), None)
    max_sdecc_exact(8)
    rows, _ = _cover_weight_cache[256, tuple(masks), 30]
    assert len(rows) == 128


def cocktail_party_model(n: int) -> IlpModel:
    # each variable conflicts with every other but its partner v ^ 1: the
    # LP optimum spreads 1/2 over all, and every one of the 2^(nv/2)
    # maximal cliques is violated
    nv = 1 << n
    return IlpModel(n, tuple(
        LinearConstraint(((u, 1), (v, 1)), "<=", 1, f"p{u}_{v}")
        for u in range(nv)
        for v in range(u + 1, nv)
        if v != u ^ 1
    ))


def test_separation_is_capped_on_a_point_violating_every_clique():
    nv = 32
    model = cocktail_party_model(5)
    masks, _, closed = _incidence(
        nv, [[v for v, _ in row.terms] for row in model.constraints]
    )
    found = _violated_cliques([0.5] * nv, closed, nv, {masks[0]}, 10)
    assert len(found) == len(set(found)) == 10
    assert all(c.bit_count() == 16 and c not in masks for c in found)
    rows, _ = _cover_weights(nv, masks, closed, -1)
    assert len(masks) < len(rows) <= len(masks) + nv


def test_solver_closes_the_cocktail_party_model():
    started = time.monotonic()
    sol = solve_builtin(cocktail_party_model(5))
    assert (sol.objective, sol.solver_status) == (2, "optimal")
    assert time.monotonic() - started < 10


def test_time_budget_stops_separation_after_the_first_round(monkeypatch):
    # the >= row rejects every seed, so the rounds would run to convergence
    rows = list(build_model(8, {"C0"}).constraints)
    rows.append(
        LinearConstraint(((0b00000001, 1), (0b00000110, 1)), ">=", 2, "both")
    )
    model = IlpModel(8, tuple(rows))
    masks, _, closed = _incidence(
        256, [[v for v, _ in row.terms] for row in rows[:-1]]
    )
    _cover_weight_cache.pop((256, tuple(masks), -1), None)
    calls = 0
    violated_cliques = coverlp._violated_cliques

    def counted(*args):
        nonlocal calls
        calls += 1
        return violated_cliques(*args)

    monkeypatch.setattr(coverlp, "_violated_cliques", counted)
    sol = solve_builtin(model, SearchOptions(time_limit=0.0))
    assert sol.solver_status == "unknown" and calls == 0
    # the cut-short round was not kept, so this call runs the later rounds
    rows, _ = _cover_weights(256, masks, closed, -1)
    assert calls > 0 and len(rows) > len(masks)


def test_node_budget_degrades_to_bound_limited():
    r = max_sdecc_exact(9, SearchOptions(node_limit=5))
    assert r.proof_status == "bound-limited"
    # the starting incumbent is already the true maximum here
    assert r.size == 52
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
    # a float member is refused where the incumbent is built, not as a
    # TypeError inside the kernel
    message = "^word value must be an int, got 0.0$"
    with pytest.raises(ValueError, match=message):
        max_sdecc_exact(5, SearchOptions(incumbent=WordSet(5, [0.0])))


def test_an_invalid_incumbent_is_refused_at_length_one():
    # the n = 1 answer follows the incumbent checks, as at every length
    with pytest.raises(ValueError, match="not a valid single-deletion code"):
        max_sdecc_exact(1, SearchOptions(incumbent=WordSet(1, [0, 1])))
    r = max_sdecc_exact(1, SearchOptions(incumbent=WordSet(1, [1])))
    assert (r.size, r.proof_status) == (1, "optimal")


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


def test_the_searches_leave_no_reference_cycle():
    # what the kernel sets up (16 MB at n = 13) must go when it returns,
    # not wait for the cyclic collector
    model = build_model(5, {"C0", "C1", "C3"})
    max_sdecc_exact(5)  # a first search imports numpy, which leaves cycles
    gc.collect()
    gc.disable()
    try:
        max_sdecc_exact(6)
        solve_builtin(model)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0
