import math
from itertools import combinations, product

import numpy as np
import pytest
from test_graph import _reference_components

from oxgrid import oracle
from oxgrid.errors import InputError, SizeError
from oxgrid.generators import _multiset_counts_from_codes
from oxgrid.graph import BipartiteMultigraph, block_tree_census
from oxgrid.oracle import (
    ExhaustiveCensus,
    _covering_subsets,
    _spanning_tree_verdicts,
    enumerate_bipartite_trees,
    exhaustive_census,
    tp_equivalence_test,
    tv_distance,
)
from oxgrid.rng import make_stream
from oxgrid.theory import count_exact, labeled_tree_count


def test_census_smallest_instances():
    c = exhaustive_census(2, 2, 2)
    assert (c.total_sequences, c.valid_count) == (16, 4)
    # two perfect matchings, each producible in two orders
    assert c.outcome_frequencies == {(0, 3): 2, (1, 2): 2}
    c = exhaustive_census(1, 1, 1)
    assert (c.total_sequences, c.valid_count) == (1, 1)


def test_census_known_counts():
    assert exhaustive_census(2, 2, 3).valid_count == 36
    assert exhaustive_census(1, 2, 2).valid_count == 2
    assert exhaustive_census(2, 3, 4).valid_count == 504
    assert exhaustive_census(2, 2, 4).valid_count == 196


def test_census_matches_formula_exactly():
    c = exhaustive_census(2, 2, 3)
    assert c.valid_count == count_exact(2, 2, 3)


def test_census_frequencies_sum_to_valid_count():
    c = exhaustive_census(2, 3, 4)
    assert sum(c.outcome_frequencies.values()) == c.valid_count
    assert len(c.outcome_frequencies) == 30


def test_census_infeasible_t_short_circuits():
    c = exhaustive_census(3, 5, 2)
    assert c.valid_count == 0
    assert c.outcome_frequencies == {}
    assert c.total_sequences == 15**2


def test_census_rejects_a_bad_triple_as_input():
    # a zero side used to raise SizeError, which means a size cap was hit
    with pytest.raises(InputError, match="m and n must be >= 1"):
        exhaustive_census(0, 2, 3)
    with pytest.raises(InputError, match="t must be an edge count >= 0"):
        exhaustive_census(2, 2, -1)


def test_census_cap():
    with pytest.raises(SizeError):
        exhaustive_census(3, 3, 9)  # 9^9 > 1e7
    with pytest.raises(SizeError):
        exhaustive_census(4, 4, 6, cap=10**6)
    # the cap is checked before an uncoverable triple returns its empty census
    with pytest.raises(SizeError):
        exhaustive_census(9, 9, 8)
    assert exhaustive_census(9, 9, 3).valid_count == 0


def test_census_chunking_is_associative(monkeypatch):
    # partitioning the index space differently must not change anything
    b = exhaustive_census(2, 3, 4)
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    a = exhaustive_census(2, 3, 4)
    assert a == b


@pytest.mark.parametrize("m,n,t", [(1, 1, 5), (1, 3, 2), (2, 2, 3), (2, 3, 4), (3, 2, 4)])
def test_census_matches_product_brute_force(monkeypatch, m, n, t):
    valid = 0
    freq: dict[tuple[int, ...], int] = {}
    for seq in product(range(m * n), repeat=t):
        if {c // n for c in seq} == set(range(m)) and {c % n for c in seq} == set(range(n)):
            valid += 1
            key = tuple(sorted(seq))
            freq[key] = freq.get(key, 0) + 1
    reference = ExhaustiveCensus(m, n, t, (m * n) ** t, valid, freq)
    assert exhaustive_census(m, n, t) == reference
    # 11 divides neither the index space nor a table width
    monkeypatch.setattr(oracle, "_CHUNK", 11)
    assert exhaustive_census(m, n, t) == reference


@pytest.mark.parametrize("i,j", [(1, 4), (2, 3), (3, 3), (4, 2), (3, 4), (4, 3), (2, 5)])
def test_enumerate_trees_matches_bfs_brute_force(i, j):
    # (3, 3) has 5-edge subsets that cover every vertex without being a
    # tree (a 4-cycle plus an edge), so coverage alone overcounts there
    tree = [(i, j, i + j - 1)]
    expected = sum(
        _reference_components(
            BipartiteMultigraph(i, j, [(c // j, c % j) for c in subset])
        )
        == tree
        for subset in combinations(range(i * j), i + j - 1)
    )
    assert enumerate_bipartite_trees(i, j) == expected


def _masks_with_popcount(bits: int, k: int) -> np.ndarray:
    """Every ``bits``-bit mask with exactly k bits set, as int32 (bits <= 20).

    The mask splits into a low and a high half. Each half's popcounts come
    from a table of at most 2^10 entries, and the high halves with c bits
    set pair with every low half with k - c bits set."""
    low = bits // 2
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(bits - low):
        popcount = np.concatenate([popcount, popcount + 1])
    low_count = popcount[: 1 << low]
    parts = []
    for c in range(max(k - low, 0), min(k, bits - low) + 1):
        highs = np.flatnonzero(popcount == c).astype(np.int32) << low
        lows = np.flatnonzero(low_count == k - c).astype(np.int32)
        parts.append((highs[:, None] | lows).ravel())
    return np.concatenate(parts)


def _reference_covering_subsets(i: int, j: int) -> np.ndarray:
    """All ij-bit masks with i+j-1 bits set, filtered to those with a bit
    in every row and every column."""
    subsets = _masks_with_popcount(i * j, i + j - 1)
    edge_bits = (1 << np.arange(i * j)).reshape(i, j)
    for vertex in edge_bits.sum(axis=1).tolist() + edge_bits.sum(axis=0).tolist():
        subsets = subsets[(subsets & vertex) != 0]
    return subsets


def test_masks_with_popcount_reference():
    masks = _masks_with_popcount(6, 3)
    assert sorted(masks.tolist()) == sorted(sum(1 << b for b in c) for c in combinations(range(6), 3))


@pytest.mark.parametrize(
    "i,j", [(i, j) for i in range(1, 21) for j in range(1, 21) if i * j <= 20]
)
def test_covering_subsets_are_exactly_the_covering_masks(i, j):
    built = _covering_subsets(i, j)
    assert built.dtype == np.int32
    assert np.unique(built).size == built.size
    assert np.array_equal(np.sort(built), np.sort(_reference_covering_subsets(i, j)))


@pytest.mark.parametrize(
    "i,j", [(3, 3), (4, 4), (2, 5), (4, 5), (5, 4), (2, 10), (1, 20), (20, 1)]
)
def test_tree_verdicts_match_block_census_subset_by_subset(i, j):
    subsets = _covering_subsets(i, j)
    # each subset's edge codes: its set bits, in ascending order
    codes = np.nonzero((subsets[:, None] >> np.arange(i * j)) & 1)[1].reshape(-1, i + j - 1)
    edges = np.stack([codes // j, codes % j], axis=-1)
    census = block_tree_census(i, j, edges, i, j)[:, i, j]
    verdicts = _spanning_tree_verdicts(i, j, subsets)
    assert verdicts.shape == subsets.shape
    assert np.array_equal(verdicts, census == 1)
    # with a side of at most 2 vertices every covering subset is a tree;
    # otherwise some hold a cycle and leave a component out
    assert verdicts.any() and (verdicts.all() == (min(i, j) <= 2))


def _reference_verdicts(i: int, j: int, subsets: np.ndarray) -> np.ndarray:
    """Spanning-tree verdicts by a reachability closure from left vertex 0.

    A covering (i+j-1)-edge subset is a tree exactly when it is connected,
    and it is connected exactly when the right vertices reached from left
    vertex 0 are all of them. A left vertex whose row meets the reached set
    adds its whole row, and the sweeps over the rows repeat until no reached
    set changes."""
    full = (1 << j) - 1
    rows = [(subsets >> (a * j)) & full for a in range(i)]
    reached = rows[0]
    while True:
        before = reached
        for row in rows[1:]:
            reached = np.where((row & reached) != 0, reached | row, reached)
        if np.array_equal(reached, before):
            return reached == full


@pytest.mark.parametrize(
    "i,j", [(i, j) for i in range(1, 21) for j in range(1, 21) if i * j <= 20]
)
def test_tree_verdicts_match_the_reachability_closure(i, j):
    # the overlap graph is taken on the left side when i <= j and on the
    # right side otherwise, so the ordered pairs cover both orientations
    subsets = _covering_subsets(i, j)
    verdicts = _spanning_tree_verdicts(i, j, subsets)
    assert verdicts.dtype == bool
    assert np.array_equal(verdicts, _reference_verdicts(i, j, subsets))


@pytest.mark.parametrize("size,connected", [(1, 1), (2, 1), (3, 4), (4, 38)])
def test_connected_graph_table_counts_the_connected_labeled_graphs(size, connected):
    # connected labeled graphs on 1-4 vertices: 1, 1, 4, 38 (OEIS A001187)
    pairs = list(combinations(range(size), 2))
    table = oracle._connected_graphs(size, pairs)
    assert table.shape == (1 << len(pairs),)
    assert np.count_nonzero(table) == connected
    # the complete graph is connected, and without edges only one vertex is
    assert table[-1] and table[0] == (size == 1)


def _unique_tally(rows):
    uniq, counts = np.unique(np.sort(rows, axis=1), axis=0, return_counts=True)
    return {tuple(int(v) for v in row): int(c) for row, c in zip(uniq, counts)}


@pytest.mark.parametrize(
    "rows",
    [
        make_stream(7).integers(0, 6, size=(5000, 4)),
        make_stream(8).integers(0, 50, size=(300, 6)),
        np.array([[5, 1, 3]]),
        np.full((40, 3), 2),
        make_stream(9).integers(0, 4, size=(100, 1)),
        # 12-bit codes pack 5 to a word, so 8 codes need two words
        make_stream(10).integers(0, 3844, size=(2000, 8)),
        np.concatenate([make_stream(11).integers(0, 3, size=(500, 8)), np.full((1, 8), 3843)]),
        np.zeros((7, 2), dtype=np.int32),
    ],
    ids=["random", "sparse", "single-row", "all-equal", "t=1", "two-words",
         "two-words-dense", "zeros-int32"],
)
def test_multiset_tally_matches_unique(rows):
    # equal items in equal (lexicographic) order
    assert list(_multiset_counts_from_codes(rows).items()) == list(
        _unique_tally(rows).items()
    )


def test_enumerate_trees_matches_formula():
    assert enumerate_bipartite_trees(1, 1) == 1
    assert enumerate_bipartite_trees(2, 2) == 4
    assert enumerate_bipartite_trees(2, 3) == 12
    assert enumerate_bipartite_trees(3, 3) == 81
    assert enumerate_bipartite_trees(4, 4) == labeled_tree_count(4, 4)
    with pytest.raises(SizeError):
        enumerate_bipartite_trees(5, 5)


@pytest.mark.parametrize("i,j", [(0, 3), (3, 0), (-1, 2), (0, 0)])
def test_enumerate_trees_rejects_an_empty_side_as_input(i, j):
    # a side below 1 used to raise SizeError, which means a size cap was
    # hit; labeled_tree_count raises InputError for the same shape
    with pytest.raises(InputError, match="i and j must be >= 1"):
        enumerate_bipartite_trees(i, j)
    with pytest.raises(InputError, match="i and j must be >= 1"):
        labeled_tree_count(i, j)


def test_enumerate_trees_is_symmetric_in_the_sides():
    # the verdicts read the shorter side's overlap graph off the rows when
    # i <= j and off the columns otherwise; both orientations count the same
    for i in range(1, 21):
        for j in range(1, 20 // i + 1):
            count = enumerate_bipartite_trees(i, j)
            assert count == enumerate_bipartite_trees(j, i) == labeled_tree_count(i, j)
            unoriented = _spanning_tree_verdicts(i, j, _covering_subsets(i, j))
            assert np.count_nonzero(unoriented) == count

def test_tv_distance():
    assert tv_distance({(0,): 1.0}, {(0,): 1.0}) == 0.0
    assert tv_distance({(0,): 1.0}, {(1,): 1.0}) == 1.0
    assert tv_distance({(0,): 0.5, (1,): 0.5}, {(0,): 1.0}) == pytest.approx(0.5)


def test_equivalence_single_outcome_is_exact():
    report = tp_equivalence_test(1, 1, 3, 500, make_stream(1))
    assert report.tv_distance == 0.0
    assert report.n_outcomes == 1
    assert report.passed


def test_equivalence_below_max_side_has_no_law_to_test():
    # t < max(m, n): no sequence covers every vertex, so there is nothing to compare
    with pytest.raises(SizeError, match="no valid outcomes"):
        tp_equivalence_test(2, 3, 2, 100, make_stream(0))


def test_equivalence_refuses_samples_that_cannot_fail():
    # every draw lies in the support, so TV < 1, and at samples <= 9 *
    # n_outcomes the threshold 3 * sqrt(n_outcomes / samples) >= 1 passes
    # any sampler: (2, 2, 3) has 8 outcomes, so 72 is refused before a draw
    assert oracle.equivalence_min_samples(2, 2, 3) == 73
    rng = make_stream(5)
    state = rng.bit_generator.state
    with pytest.raises(SizeError, match="at least 73"):
        tp_equivalence_test(2, 2, 3, 72, rng)
    assert rng.bit_generator.state == state
    report = tp_equivalence_test(2, 2, 3, 73, rng)
    assert (report.samples, report.n_outcomes) == (73, 8)
    assert report.threshold < 1


def test_equivalence_small_campaign():
    report = tp_equivalence_test(2, 2, 2, 50_000, make_stream(2))
    assert report.passed
    assert report.threshold == pytest.approx(3 * math.sqrt(2 / 50_000))
