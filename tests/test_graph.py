import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from oxgrid.errors import InputError
from oxgrid.graph import (
    BipartiteMultigraph,
    _component_labels,
    block_tree_census,
    components,
    degrees,
    is_connected,
    max_degree,
    min_degree,
    tree_census,
)
from oxgrid.generators import sample_gr, sample_tp
from oxgrid.rng import make_stream, split_stream
from oxgrid.theory import connectivity_edge_count


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


def _check_against_scipy(g):
    """components, is_connected and the labels themselves against scipy."""
    total = g.m + g.n
    adjacency = coo_matrix(
        (np.ones(g.t), (g.edges[:, 0], g.edges[:, 1] + g.m)), shape=(total, total)
    )
    k, label = connected_components(adjacency, directed=False)
    s = components(g)
    assert s.n_components == k
    assert np.array_equal(s.left, np.bincount(label[: g.m], minlength=k))
    assert np.array_equal(s.right, np.bincount(label[g.m :], minlength=k))
    assert np.array_equal(s.edges, np.bincount(label[g.edges[:, 0]], minlength=k))
    # scipy numbers components by their smallest vertex, which is our label
    smallest = np.unique(label, return_index=True)[1]
    assert np.array_equal(_component_labels(g.m, g.n, g.edges), smallest[label])
    assert is_connected(g) == (k == 1)
    return k


@pytest.mark.parametrize(
    "m, n, t, reps",
    [(3000, 3000, 5792, 3), (3000, 3000, 4185, 3)]
    + [(2000, 2000, connectivity_edge_count(2000, 2000, c), 8) for c in (0.6, 1.0, 1.6)]
    + [(100_000, 100_000, 158_198, 1)],
)
def test_tp_labels_and_connectivity_match_scipy(m, n, t, reps):
    for i in range(reps):
        _check_against_scipy(sample_tp(m, n, t, split_stream(430, i)))


def _connected_tp_graph() -> BipartiteMultigraph:
    # at c = 1.6 most tp graphs on 2000 + 2000 vertices are connected
    t = connectivity_edge_count(2000, 2000, 1.6)
    for i in range(20):
        g = sample_tp(2000, 2000, t, split_stream(440, i))
        if _check_against_scipy(g) == 1:
            return g
    raise AssertionError("no connected graph in 20 draws")


def test_the_early_exit_keeps_the_labels_of_a_connected_graph():
    g = _connected_tp_graph()
    assert is_connected(g)
    assert not _component_labels(g.m, g.n, g.edges, early_out=True).any()


def test_two_copies_of_a_connected_graph_finish_together():
    # the copies hook in lock step and complete in the same round, so a
    # complete component never meets a cross edge and the exit never fires
    g = _connected_tp_graph()
    twice = BipartiteMultigraph(2 * g.m, 2 * g.n, np.concatenate([g.edges, g.edges + [g.m, g.n]]))
    assert _check_against_scipy(twice) == 2
    assert np.array_equal(
        _component_labels(twice.m, twice.n, twice.edges, early_out=True),
        _component_labels(twice.m, twice.n, twice.edges),
    )


@pytest.mark.parametrize("extra_left, extra_right", [(1, 1), (1, 0), (0, 1)])
def test_an_isolated_edge_or_vertex_stops_the_labelling_early(extra_left, extra_right):
    g = _connected_tp_graph()
    edges = g.edges
    if extra_left and extra_right:  # one isolated edge
        edges = np.concatenate([edges, [[g.m, g.n]]])
    h = BipartiteMultigraph(g.m + extra_left, g.n + extra_right, edges)
    assert _check_against_scipy(h) == 2
    assert _component_labels(h.m, h.n, h.edges, early_out=True) is None


def test_the_exit_fires_in_the_round_that_leaves_a_component_complete():
    # the path 0 - (right 0) - 1 needs two rounds and the edge 2 - (right 1)
    # one, so only the second round can see the edge's component complete
    # beside a cross edge; a third round finds no cross edge and labels all
    edges = np.array([(0, 0), (1, 0), (2, 1)])
    assert _component_labels(3, 2, edges, early_out=True) is None
    assert np.array_equal(_component_labels(3, 2, edges), [0, 0, 2, 0, 2])
