import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from oxgrid.errors import InputError
from oxgrid.graph import (
    BipartiteMultigraph,
    block_tree_census,
    components,
    degrees,
    is_connected,
    max_degree,
    min_degree,
    tree_census,
)
from oxgrid.generators import sample_gr
from oxgrid.rng import make_stream, split_stream


def test_path_component_is_tree():
    g = BipartiteMultigraph(2, 1, [(0, 0), (1, 0)])
    s = components(g)
    assert s.n_components == 1
    assert (s.left[0], s.right[0], s.edges[0], s.is_tree[0]) == (2, 1, 2, True)
    assert is_connected(g)


def test_parallel_edge_is_not_a_tree():
    g = BipartiteMultigraph(1, 1, [(0, 0), (0, 0)])
    s = components(g)
    assert s.n_components == 1
    assert s.edges[0] == 2
    assert not s.is_tree[0]


def test_four_cycle_is_not_a_tree():
    g = BipartiteMultigraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    census = tree_census(components(g), 4, 4)
    assert census.sum() == 0


def test_two_disjoint_edges_not_connected():
    g = BipartiteMultigraph(2, 2, [(0, 0), (1, 1)])
    assert not is_connected(g)


def test_connectivity_conventions():
    assert is_connected(BipartiteMultigraph(0, 0, []))
    assert not is_connected(BipartiteMultigraph(1, 0, []))
    assert not is_connected(BipartiteMultigraph(2, 1, [(0, 0)]))
    assert is_connected(BipartiteMultigraph(1, 1, [(0, 0)]))


def test_validation_and_immutability():
    with pytest.raises(InputError):
        BipartiteMultigraph(2, 2, [(0, 2)])
    with pytest.raises(InputError):
        BipartiteMultigraph(2, 2, [(-1, 0)])
    with pytest.raises(InputError):
        BipartiteMultigraph(-1, 2, [])
    g = BipartiteMultigraph(2, 2, [(0, 0)])
    with pytest.raises(AttributeError):
        g.m = 5
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1


def test_parallel_edges_never_deduplicated():
    g = BipartiteMultigraph(2, 2, [(0, 0)] * 5)
    assert g.t == 5
    assert degrees(g)[0].tolist() == [5, 0]


def test_degree_helpers():
    g = BipartiteMultigraph(2, 2, [(0, 0), (0, 0), (0, 1)])
    assert min_degree(g) == (0, 1)
    assert max_degree(g) == 3
    assert min_degree(BipartiteMultigraph(0, 1, [])) == (0, 0)


def _reference_components(g):
    """Independent BFS component finder used as an oracle for the labelling."""
    adjacency = {v: set() for v in range(g.m + g.n)}
    for l, r in g.edges:
        adjacency[int(l)].add(int(r) + g.m)
        adjacency[int(r) + g.m].add(int(l))
    seen = set()
    comps = []
    for start in range(g.m + g.n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        members = []
        while queue:
            v = queue.pop()
            members.append(v)
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        left = sum(1 for v in members if v < g.m)
        edge_count = sum(1 for l, r in g.edges if int(l) in set(members))
        comps.append((left, len(members) - left, edge_count))
    return sorted(comps)


@pytest.mark.parametrize("seed", range(6))
def test_components_match_bfs_reference(seed):
    rng = make_stream(seed)
    m, n, t = rng.integers(1, 12), rng.integers(1, 12), rng.integers(0, 30)
    g = sample_gr(int(m), int(n), int(t), rng)
    s = components(g)
    got = sorted(zip(s.left.tolist(), s.right.tolist(), s.edges.tolist()))
    assert got == _reference_components(g)


@pytest.mark.parametrize("seed", range(4))
def test_summary_totals_reconcile(seed):
    rng = make_stream(100 + seed)
    g = sample_gr(15, 9, 25, rng)
    s = components(g)
    assert s.left.sum() == g.m
    assert s.right.sum() == g.n
    assert s.edges.sum() == g.t
    assert s.isolated_left == sum(1 for d in degrees(g)[0] if d == 0)
    assert s.isolated_right == sum(1 for d in degrees(g)[1] if d == 0)
    census = tree_census(s, 6, 6)
    assert census.sum() <= s.n_components


@pytest.mark.parametrize("seed", range(4))
def test_census_is_edge_order_invariant(seed):
    rng = make_stream(200 + seed)
    g = sample_gr(10, 10, 22, rng)
    shuffled = BipartiteMultigraph(g.m, g.n, g.edges[rng.permutation(g.t)])
    a = components(g)
    b = components(shuffled)
    assert np.array_equal(tree_census(a, 5, 5), tree_census(b, 5, 5))
    assert a == b
    assert a.largest == b.largest


@pytest.mark.parametrize("seed", range(8))
def test_is_connected_matches_summary_definition(seed):
    rng = make_stream(300 + seed)
    g = sample_gr(4, 4, int(rng.integers(4, 14)), rng)
    s = components(g)
    expected = s.n_components == 1 and s.isolated_left == 0 and s.isolated_right == 0
    assert is_connected(g) == expected


def test_tree_census_bounds():
    g = BipartiteMultigraph(3, 1, [(0, 0), (1, 0), (2, 0)])
    s = components(g)
    assert tree_census(s, 3, 1)[3, 1] == 1
    assert tree_census(s, 2, 2).sum() == 0  # (3,1) tree lies outside bounds
    with pytest.raises(InputError):
        tree_census(s, 0, 1)


@pytest.mark.parametrize(
    "m, n, t, max_i, max_j",
    [(5, 7, 6, 3, 4), (7, 5, 6, 4, 3), (1, 1, 2, 1, 1), (3, 4, 0, 2, 2), (22, 38, 67, 2, 2),
     (40, 40, 45, 6, 5)],
)
def test_block_tree_census_matches_per_graph_census(m, n, t, max_i, max_j):
    # sparse gr graphs: isolated vertices on both sides, parallel edges,
    # trees of many shapes, some larger than the census bounds
    graphs = [sample_gr(m, n, t, split_stream(410, i)) for i in range(37)]
    edges = np.stack([g.edges for g in graphs])
    census = block_tree_census(m, n, edges, max_i, max_j)
    assert census.shape == (len(graphs), max_i + 1, max_j + 1)
    for b, g in enumerate(graphs):
        assert np.array_equal(census[b], tree_census(components(g), max_i, max_j))
    with pytest.raises(InputError):
        block_tree_census(m, n, edges, 0, 1)


@pytest.mark.parametrize(
    "m, n, t",
    [(0, 0, 0), (1, 0, 0), (0, 3, 0), (1, 1, 0), (5, 3, 0), (1, 1, 4), (2, 7, 3),
     (30, 20, 25), (200, 300, 150), (1000, 1000, 1500), (10_000, 7000, 12_000),
     (10_000, 10_000, 30_000)],
)
def test_components_match_scipy(m, n, t):
    rng = make_stream(400 + m + n + t)
    # parallel edges and isolated vertices occur at these densities
    g = sample_gr(m, n, t, rng) if m and n else BipartiteMultigraph(m, n, [])
    s = components(g)
    total = m + n
    adjacency = coo_matrix(
        (np.ones(g.t), (g.edges[:, 0], g.edges[:, 1] + m)), shape=(total, total)
    )
    k, label = connected_components(adjacency, directed=False)
    assert s.n_components == k
    assert np.array_equal(s.left, np.bincount(label[:m], minlength=k))
    assert np.array_equal(s.right, np.bincount(label[m:], minlength=k))
    assert np.array_equal(s.edges, np.bincount(label[g.edges[:, 0]], minlength=k))
    sizes = s.left + s.right
    assert s.largest_size == (sizes.max() if k else 0)
    if k:
        assert s.largest == np.flatnonzero(sizes == sizes.max())[0]
    assert s.second_largest_size == (np.sort(sizes)[-2] if k > 1 else 0)
    assert is_connected(g) == (total == 0 or (k == 1 and g.t > 0))
