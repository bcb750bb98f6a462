"""Bipartite multigraphs and their component analysis.

Graphs are immutable after construction: ``m`` left vertices, ``n`` right
vertices, and an ordered sequence of edge slots that may repeat (parallel
edges are preserved, never deduplicated). Components come from one
vectorized hook-and-pointer-jump labelling, whose rounds carry only the
edges that still join two labels, and are summarised as parallel numpy
arrays, so sweeps can run millions of analyses. :func:`is_connected` runs
the same labelling and stops at the first round that leaves one component
complete while others remain.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "BipartiteMultigraph",
    "ComponentSummary",
    "components",
    "tree_census",
    "block_tree_census",
    "is_connected",
    "min_degree",
    "max_degree",
    "degrees",
]


class BipartiteMultigraph:
    """m left vertices, n right vertices, ordered multi-edge list."""

    __slots__ = ("m", "n", "edges")

    def __init__(self, m: int, n: int, edges) -> None:
        try:
            m, n = operator.index(m), operator.index(n)
            raw = np.asarray(edges)
        except (TypeError, ValueError) as err:
            raise InputError(f"vertex counts must be integers and edges an array: {err}") from err
        if m < 0 or n < 0:
            raise InputError(f"vertex counts must be >= 0, got m={m}, n={n}")
        if raw.size and raw.dtype.kind not in "iu":
            raise InputError(f"edge endpoints must be integers, got dtype {raw.dtype}")
        arr = raw.astype(np.int64, copy=False)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("edges must be a sequence of (left, right) pairs")
        if arr.size and (
            arr[:, 0].min() < 0
            or arr[:, 0].max() >= m
            or arr[:, 1].min() < 0
            or arr[:, 1].max() >= n
        ):
            raise InputError("edge endpoint out of range")
        arr.setflags(write=False)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", arr)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("BipartiteMultigraph is immutable")

    @property
    def t(self) -> int:
        """Number of edge slots, counting parallel edges."""
        return self.edges.shape[0]

    def __repr__(self) -> str:
        return f"BipartiteMultigraph(m={self.m}, n={self.n}, t={self.t})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteMultigraph)
            and self.m == other.m
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )


@dataclass(frozen=True)
class ComponentSummary:
    """All components of a graph as parallel arrays, one entry per component,
    ordered by each component's smallest vertex (right vertex j counts as
    m + j), plus the derived statistics sweeps need."""

    m: int
    n: int
    t: int
    left: np.ndarray
    right: np.ndarray
    edges: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComponentSummary)
            and (self.m, self.n, self.t) == (other.m, other.n, other.t)
            and np.array_equal(self.left, other.left)
            and np.array_equal(self.right, other.right)
            and np.array_equal(self.edges, other.edges)
        )

    @property
    def n_components(self) -> int:
        return len(self.left)

    @property
    def is_tree(self) -> np.ndarray:
        # A connected multigraph with exactly left+right-1 edge slots cannot
        # contain a repeated edge (it would disconnect), so this single test
        # covers both the edge count and the no-parallel-edge condition.
        return self.edges == self.left + self.right - 1

    @property
    def largest(self) -> int:
        """Index of the first component of maximal size; ValueError when the
        graph has no vertex."""
        return int(np.argmax(self.left + self.right))

    @property
    def largest_size(self) -> int:
        return int((self.left + self.right).max(initial=0))

    @property
    def second_largest_size(self) -> int:
        sizes = self.left + self.right
        if len(sizes) < 2:
            return 0
        return int(np.partition(sizes, -2)[-2])

    @property
    def isolated_left(self) -> int:
        return int(np.count_nonzero((self.edges == 0) & (self.left == 1)))

    @property
    def isolated_right(self) -> int:
        return int(np.count_nonzero((self.edges == 0) & (self.right == 1)))


def _component_labels(
    m: int, n: int, edges: np.ndarray, early_out: bool = False
) -> np.ndarray | None:
    """Smallest vertex of each vertex's component (right vertex j is m + j).

    Hook-and-pointer-jump labelling (Shiloach & Vishkin 1982): every edge
    whose endpoints carry different labels hooks the larger label under the
    smaller, then labels jump to their labels' labels until stable. Labels
    only decrease and stay inside their component, so a component's smallest
    vertex is its one fixed point. An edge whose ends share a label keeps
    sharing it, so each round keeps only the cross edges, by one index.

    With ``early_out``, None as soon as a root that no cross edge touches
    coexists with cross edges: its component is complete and another
    remains, so the graph is not connected.
    """
    ids = np.arange(m + n)
    label = ids.copy()
    u = np.ascontiguousarray(edges[:, 0])
    v = edges[:, 1] + m
    while True:
        lu = label[u]
        lv = label[v]
        cross = np.flatnonzero(lu != lv)
        if not cross.size:
            return label
        u, v, lu, lv = u.take(cross), v.take(cross), lu.take(cross), lv.take(cross)
        lo = np.minimum(lu, lv)
        np.minimum.at(label, np.maximum(lu, lv), lo)
        if early_out:
            # the roots that no hook moved and no edge hooks onto
            done = label == ids
            done[lo] = False
            if done.any():
                return None
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _component_counts(
    m: int, n: int, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(roots, left, right, edges)``: each component's smallest vertex and
    its left-vertex, right-vertex and edge-slot counts, in root order."""
    label = _component_labels(m, n, edges)
    total = m + n
    roots = np.flatnonzero(label == np.arange(total))
    return (
        roots,
        np.bincount(label[:m], minlength=total)[roots],
        np.bincount(label[m:], minlength=total)[roots],
        np.bincount(label[edges[:, 0]], minlength=total)[roots],
    )


def components(g: BipartiteMultigraph) -> ComponentSummary:
    """Exact connected components; isolated vertices become their own
    zero-edge components."""
    fields = _component_counts(g.m, g.n, g.edges)[1:]
    for a in fields:
        a.setflags(write=False)
    return ComponentSummary(g.m, g.n, g.t, *fields)


def _count_trees(
    shape: tuple[int, ...],
    leading: tuple,
    left: np.ndarray,
    right: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Census of the tree components that fit ``shape``, whose last two axes
    are (left, right) vertex counts: each counts at ``(*leading, left,
    right)``, where ``leading`` holds one array of coordinates per leading
    axis."""
    max_i, max_j = shape[-2] - 1, shape[-1] - 1
    # a connected multigraph with exactly left + right - 1 edge slots has no
    # repeated edge, as ComponentSummary.is_tree notes
    keep = (
        (edges == left + right - 1)
        & (left >= 1)
        & (left <= max_i)
        & (right >= 1)
        & (right <= max_j)
    )
    cells = np.ravel_multi_index((*(a[keep] for a in leading), left[keep], right[keep]), shape)
    return np.bincount(cells, minlength=math.prod(shape)).reshape(shape)


def tree_census(summary: ComponentSummary, max_i: int, max_j: int) -> np.ndarray:
    """Matrix A with A[i][j] = number of (i, j)-tree components, 1 <= i <= max_i,
    1 <= j <= max_j. Row 0 and column 0 are unused and stay zero."""
    if max_i < 1 or max_j < 1:
        raise InputError("census bounds must be >= 1")
    return _count_trees((max_i + 1, max_j + 1), (), summary.left, summary.right, summary.edges)


def block_tree_census(
    m: int, n: int, edges: np.ndarray, max_i: int, max_j: int
) -> np.ndarray:
    """Tree census of many graphs on the same m + n vertices, shape
    (blocks, max_i + 1, max_j + 1); block b's matrix is
    ``tree_census(components(BipartiteMultigraph(m, n, edges[b])), max_i, max_j)``.

    ``edges`` has shape (blocks, e, 2). The graphs are laid out as one
    disjoint union, block b's left vertex a at b*m + a and its right vertex
    c at b*n + c, so one labelling covers them all; a component belongs to
    the block of its smallest vertex.
    """
    if max_i < 1 or max_j < 1:
        raise InputError("census bounds must be >= 1")
    blocks, e = edges.shape[:2]
    shift = np.arange(blocks)[:, None] * np.tile([m, n], e)  # (blocks, 2e)
    union = (edges.reshape(blocks, -1) + shift).reshape(-1, 2)
    roots, left, right, edge_count = _component_counts(blocks * m, blocks * n, union)
    # a tree has a left vertex, so its smallest vertex is a left one; the
    # out-of-range blocks of right roots (isolated right vertices) go unused
    block = roots // max(m, 1)
    return _count_trees((blocks, max_i + 1, max_j + 1), (block,), left, right, edge_count)


def is_connected(g: BipartiteMultigraph) -> bool:
    """True iff there is exactly one component and no isolated vertex.

    The empty graph (m = n = 0) is connected by convention; a lone
    degree-zero vertex is not. The labelling stops at the first round that
    leaves a component complete while others still join up, so a graph with
    a small component is told apart in a round or two.
    """
    if g.m + g.n == 0:
        return True
    if g.t == 0 or g.t < g.m + g.n - 1:
        return False
    label = _component_labels(g.m, g.n, g.edges, early_out=True)
    return label is not None and not label.any()


def degrees(g: BipartiteMultigraph) -> tuple[np.ndarray, np.ndarray]:
    """Degree vectors (left, right), counting parallel edges with multiplicity."""
    left = np.bincount(g.edges[:, 0], minlength=g.m)
    right = np.bincount(g.edges[:, 1], minlength=g.n)
    return left, right


def min_degree(g: BipartiteMultigraph) -> tuple[int, int]:
    """(min left degree, min right degree); 0 for an empty side."""
    left, right = degrees(g)
    return (
        int(left.min()) if g.m else 0,
        int(right.min()) if g.n else 0,
    )


def max_degree(g: BipartiteMultigraph) -> int:
    """Largest degree over both sides; 0 for an edgeless graph."""
    left, right = degrees(g)
    best = 0
    if g.m:
        best = max(best, int(left.max()))
    if g.n:
        best = max(best, int(right.max()))
    return best
