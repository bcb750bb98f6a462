"""Oxford-grid dataset parsing and the bundled genome-comparison fixtures.

Two interchange formats:

* edge list — CSV with one ``left_label,right_label`` pair per line,
  an optional ``left,right`` header, ``#`` comments, LF or CRLF endings.
  Duplicate lines become parallel edges (kept, with a warning).
* matrix — whitespace- or comma-delimited 0/1 grid, optional leading label
  row and label column; zero rows/columns are legal and yield isolated
  vertices. Column labels may be numbers when the label row starts with an
  empty corner cell or is one token shorter than the labelled rows; under
  an empty corner, row labels may be numbers too.

Five comparisons ship under ``datasets/``; each has a JSON sidecar with the
published summary values (m, n, t, rates, expected and observed tree
counts) and data-quality notes where the published drawing was ambiguous.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EmptyError, InputError, ParseError
from .graph import BipartiteMultigraph

__all__ = [
    "Dataset",
    "parse_edge_list",
    "parse_matrix",
    "parse_auto",
    "emit_edge_list",
    "emit_matrix",
    "fixture_names",
    "load_fixture",
]

FIXTURES = (
    "human_elephant",
    "human_monkey",
    "human_cat",
    "human_dog",
    "human_lemur",
)


@dataclass
class Dataset:
    """A parsed Oxford grid: labels, graph, and optional published metadata."""

    name: str
    left_labels: list[str]
    right_labels: list[str]
    graph: BipartiteMultigraph
    published: dict | None = None
    notes: list[str] = field(default_factory=list)

    def validate_published(self) -> list[str]:
        """Compare parsed dimensions against published m/n/t; returns the
        list of discrepancies (empty when consistent or no metadata)."""
        problems = []
        if not self.published:
            return problems
        for key, actual in (("m", self.graph.m), ("n", self.graph.n), ("t", self.graph.t)):
            expected = self.published.get(key)
            if expected is not None and expected != actual:
                problems.append(f"published {key}={expected} but parsed {key}={actual}")
        return problems


def _split_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_edge_list(text: str, name: str = "") -> Dataset:
    """Parse CSV edge lines into a dataset; labels are indexed in
    first-appearance order."""
    lines = _split_lines(text)
    if not lines:
        raise EmptyError("no edges found in input")
    if lines and [f.strip().lower() for f in lines[0][1].split(",")] == ["left", "right"]:
        lines = lines[1:]
        if not lines:
            raise EmptyError("header only, no edges found in input")
    left_index: dict[str, int] = {}
    right_index: dict[str, int] = {}
    edges = []
    seen_pairs = set()
    duplicates = 0
    for lineno, line in lines:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(
                f"line {lineno}: expected 'left_label,right_label', got {line!r}"
            )
        l, r = fields
        li = left_index.setdefault(l, len(left_index))
        ri = right_index.setdefault(r, len(right_index))
        if (li, ri) in seen_pairs:
            duplicates += 1
        seen_pairs.add((li, ri))
        edges.append((li, ri))
    if duplicates:
        warnings.warn(
            f"{name or 'edge list'}: {duplicates} duplicate line(s) kept as parallel edges",
            stacklevel=2,
        )
    graph = BipartiteMultigraph(len(left_index), len(right_index), edges)
    return Dataset(
        name=name,
        left_labels=list(left_index),
        right_labels=list(right_index),
        graph=graph,
    )


def _tokenize_row(line: str) -> list[str]:
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def _is_cell(token: str) -> bool:
    return token in ("0", "1")


def parse_matrix(text: str, name: str = "") -> Dataset:
    """Parse a 0/1 grid; edge (i, j) present iff cell (i, j) is 1."""
    lines = _split_lines(text)
    if not lines:
        raise EmptyError("no rows found in input")
    rows = [(lineno, _tokenize_row(line)) for lineno, line in lines]

    # the first row is a header when it holds no 0/1 cell at all, starts
    # with an empty corner cell, or is one token shorter than a labelled row
    # below it; a row-label column is marked by that corner or by a non-cell
    # first token on a data row. Under a corner, as emit_matrix writes it,
    # labels on both axes may be numbers
    header: list[str] | None = None
    if len(rows) > 1:
        first, below = rows[0][1], rows[1][1]
        if (
            not any(map(_is_cell, first))
            or first[0] == ""
            or (len(first) == len(below) - 1 and not _is_cell(below[0]))
        ):
            header = list(first)
            rows = rows[1:]
    corner = header is not None and header[0] == ""
    has_row_labels = corner or any(not _is_cell(r[1][0]) for r in rows if r[1])

    right_labels: list[str] | None = None
    if header is not None:
        if has_row_labels and len(header) == len(rows[0][1]):
            # header includes a corner cell above the row-label column
            right_labels = header[1:]
        else:
            right_labels = header

    left_labels: list[str] = []
    matrix: list[list[int]] = []
    width = None
    for lineno, tokens in rows:
        if has_row_labels:
            if _is_cell(tokens[0]) and not corner:
                raise ParseError(f"line {lineno}: expected a row label")
            left_labels.append(tokens[0])
            cells = tokens[1:]
        else:
            cells = tokens
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"line {lineno}: ragged row ({len(cells)} cells, expected {width})"
            )
        row = []
        for tok in cells:
            if not _is_cell(tok):
                raise ParseError(f"line {lineno}: matrix entries must be 0 or 1, got {tok!r}")
            row.append(int(tok))
        matrix.append(row)
    if width == 0:
        raise EmptyError("matrix has no columns")
    if not has_row_labels:
        left_labels = [f"L{i + 1}" for i in range(len(matrix))]
    if right_labels is None:
        right_labels = [f"R{j + 1}" for j in range(width)]
    if len(right_labels) != width:
        raise ParseError(
            f"header has {len(right_labels)} labels but rows have {width} cells"
        )
    if len(set(left_labels)) != len(left_labels) or len(set(right_labels)) != len(right_labels):
        raise ParseError("duplicate row or column label")
    arr = np.asarray(matrix, dtype=np.int64)
    edges = np.argwhere(arr == 1)
    graph = BipartiteMultigraph(len(left_labels), width, edges)
    return Dataset(
        name=name, left_labels=left_labels, right_labels=right_labels, graph=graph
    )


def parse_auto(text: str, name: str = "") -> Dataset:
    """Sniff the format: a first row of more than two fields, or an input
    whose every field is 0 or 1, is a matrix; anything else is an edge
    list, numeric labels such as ``7,1`` included. A labelled one-column
    grid (``A,1``) therefore reads as an edge list: parse it with
    :func:`parse_matrix`."""
    lines = _split_lines(text)
    if not lines:
        raise EmptyError("empty input")
    cells = (_is_cell(tok) for _, line in lines for tok in _tokenize_row(line))
    if len(_tokenize_row(lines[0][1])) > 2 or all(cells):
        return parse_matrix(text, name=name)
    return parse_edge_list(text, name=name)


def emit_edge_list(dataset: Dataset) -> str:
    """Serialize to the CSV edge-list format (isolated vertices cannot be
    represented and are dropped)."""
    out = ["left,right"]
    for l, r in dataset.graph.edges:
        out.append(f"{dataset.left_labels[l]},{dataset.right_labels[r]}")
    return "\n".join(out) + "\n"


def emit_matrix(dataset: Dataset) -> str:
    """Serialize to the labeled 0/1 matrix format; requires a simple graph.

    The grid cannot carry edge order, so re-parsing returns the edges in
    row-major order."""
    g = dataset.graph
    grid = np.zeros((g.m, g.n), dtype=np.int64)
    for l, r in g.edges:
        if grid[l, r]:
            raise InputError("matrix format cannot represent parallel edges")
        grid[l, r] = 1
    lines = ["," + ",".join(dataset.right_labels)]
    for i in range(g.m):
        lines.append(dataset.left_labels[i] + "," + ",".join(map(str, grid[i])))
    return "\n".join(lines) + "\n"


def _fixture_dir() -> Path:
    return Path(str(resources.files("oxgrid").joinpath("datasets")))


def fixture_names() -> tuple[str, ...]:
    return FIXTURES


def load_fixture(name: str, datasets_dir: str | Path | None = None) -> Dataset:
    """Load a bundled (or externally supplied) comparison by name.

    Reads ``<name>.csv`` (edge list) or ``<name>.txt`` (matrix) plus the
    ``<name>.json`` sidecar, and raises ParseError if the parsed graph
    contradicts the published m/n/t.
    """
    base = Path(datasets_dir) if datasets_dir is not None else _fixture_dir()
    csv_path = base / f"{name}.csv"
    txt_path = base / f"{name}.txt"
    if csv_path.exists():
        dataset = parse_edge_list(csv_path.read_text(encoding="utf-8-sig"), name=name)
    elif txt_path.exists():
        dataset = parse_matrix(txt_path.read_text(encoding="utf-8-sig"), name=name)
    else:
        raise InputError(f"no fixture file for {name!r} under {base}")
    meta_path = base / f"{name}.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8-sig"))
        dataset.published = meta.get("published")
        dataset.notes = list(meta.get("notes", []))
    problems = dataset.validate_published()
    if problems:
        raise ParseError(f"fixture {name}: " + "; ".join(problems))
    return dataset
