import numpy as np
import pytest

from oxgrid.errors import EmptyError, InputError, ParseError
from oxgrid.graph import components, is_connected, tree_census
from oxgrid.ingest import (
    Dataset,
    emit_edge_list,
    emit_matrix,
    fixture_names,
    load_fixture,
    parse_auto,
    parse_edge_list,
    parse_matrix,
)


# ----------------------------------------------------------------------
# edge-list format
# ----------------------------------------------------------------------


def test_parse_edge_list_basic():
    d = parse_edge_list("H17,E11\nH5,E3")
    assert (d.graph.m, d.graph.n, d.graph.t) == (2, 2, 2)
    assert d.left_labels == ["H17", "H5"]
    assert d.right_labels == ["E11", "E3"]


def test_parse_edge_list_header_comments_crlf():
    text = "# comment\r\nleft,right\r\nA,B\r\nC,D # trailing\r\n\r\n"
    d = parse_edge_list(text)
    assert (d.graph.m, d.graph.n, d.graph.t) == (2, 2, 2)


def test_parse_edge_list_duplicates_become_parallel():
    with pytest.warns(UserWarning, match="parallel"):
        d = parse_edge_list("A,B\nA,B")
    assert d.graph.t == 2
    assert not components(d.graph).is_tree[0]


def test_parse_edge_list_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("A,B\nBAD LINE")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("A,B,C")
    with pytest.raises(EmptyError):
        parse_edge_list("# nothing here\n")
    with pytest.raises(EmptyError):
        parse_edge_list("left,right\n")


# ----------------------------------------------------------------------
# matrix format
# ----------------------------------------------------------------------


def test_parse_matrix_identity_two_trees():
    d = parse_matrix("1 0\n0 1")
    census = tree_census(components(d.graph), 1, 1)
    assert census[1, 1] == 2


def test_parse_matrix_all_ones_is_cycle():
    d = parse_matrix("1,1\n1,1")
    s = components(d.graph)
    assert s.n_components == 1
    assert not s.is_tree[0]


def test_parse_matrix_with_labels_and_isolates():
    text = ",C1,C2,C3\nR1,1,0,0\nR2,0,0,0\n"
    d = parse_matrix(text)
    assert d.left_labels == ["R1", "R2"]
    assert d.right_labels == ["C1", "C2", "C3"]
    s = components(d.graph)
    assert s.isolated_left == 1
    assert s.isolated_right == 2


def test_parse_matrix_errors():
    with pytest.raises(ParseError, match="ragged"):
        parse_matrix("1 0\n1")
    with pytest.raises(ParseError, match="0 or 1"):
        parse_matrix("a,1\nb,2")
    with pytest.raises(ParseError, match="duplicate"):
        parse_matrix(",X,X\nA,1,0\nB,0,1")
    with pytest.raises(EmptyError):
        parse_matrix("")


def test_parse_auto_sniffs_format():
    assert parse_auto("1 0 1\n0 1 0").graph.n == 3
    assert parse_auto("H1,E2\nH3,E4").graph.n == 2
    assert parse_auto("A,1,0\nB,0,1").graph.n == 2


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------


def test_matrix_round_trip_all_fixtures():
    # the grid format normalizes edge order to row-major, so round-tripping
    # preserves the edge set, labels, and dimensions
    for name in fixture_names():
        d = load_fixture(name)
        again = parse_matrix(emit_matrix(d), name=name)
        assert (again.graph.m, again.graph.n, again.graph.t) == (
            d.graph.m, d.graph.n, d.graph.t,
        )
        assert sorted(map(tuple, again.graph.edges.tolist())) == sorted(
            map(tuple, d.graph.edges.tolist())
        )
        assert again.left_labels == d.left_labels
        assert again.right_labels == d.right_labels


def test_edge_list_round_trip_preserves_census():
    for name in ("human_elephant", "human_monkey", "human_dog", "human_lemur"):
        d = load_fixture(name)
        again = parse_edge_list(emit_edge_list(d), name=name)
        a = tree_census(components(d.graph), 4, 4)
        b = tree_census(components(again.graph), 4, 4)
        assert np.array_equal(a, b)


def test_emit_matrix_rejects_parallel_edges():
    with pytest.warns(UserWarning):
        d = parse_edge_list("A,B\nA,B")
    with pytest.raises(InputError):
        emit_matrix(d)


# ----------------------------------------------------------------------
# bundled fixtures
# ----------------------------------------------------------------------

PUBLISHED_DIMENSIONS = {
    "human_elephant": (22, 27, 44),
    "human_monkey": (22, 21, 28),
    "human_cat": (22, 19, 32),
    "human_dog": (22, 38, 67),
    "human_lemur": (20, 22, 38),
}


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_dimensions_match_published(name):
    d = load_fixture(name)
    assert (d.graph.m, d.graph.n, d.graph.t) == PUBLISHED_DIMENSIONS[name]
    assert d.validate_published() == []
    assert len(set(d.left_labels)) == d.graph.m
    assert len(set(d.right_labels)) == d.graph.n


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_census_matches_published_observations(name):
    d = load_fixture(name)
    census = tree_census(components(d.graph), 2, 2)
    observed = d.published["observed_trees"]
    assert census[1, 1] == observed["1,1"]
    assert census[2, 1] == observed["2,1"]
    assert census[1, 2] == observed["1,2"]


def test_monkey_component_size_profile():
    d = load_fixture("human_monkey")
    s = components(d.graph)
    sizes = sorted((s.left + s.right).tolist())
    assert s.n_components == 17
    assert sizes == [2] * 12 + [3, 3, 3, 4, 6]
    assert not is_connected(d.graph)


def test_elephant_component_profile():
    s = components(load_fixture("human_elephant").graph)
    sizes = sorted((s.left + s.right).tolist(), reverse=True)
    assert sizes == [33, 8, 2, 2, 2, 2]
    big = s.largest
    assert (s.left[big], s.right[big], s.is_tree[big]) == (14, 19, True)


def test_dog_component_profile():
    s = components(load_fixture("human_dog").graph)
    sizes = sorted((s.left + s.right).tolist(), reverse=True)
    assert sizes == [54, 2, 2, 2]


def test_lemur_no_small_trees_despite_supercritical_rates():
    d = load_fixture("human_lemur")
    census = tree_census(components(d.graph), 2, 2)
    assert census[1, 1] == 0 and census[2, 1] == 0 and census[1, 2] == 1


def test_cat_keeps_isolated_column():
    d = load_fixture("human_cat")
    assert components(d.graph).isolated_right == 1
    assert "X" in d.right_labels


@pytest.mark.parametrize("name", ["human_monkey", "human_cat", "human_lemur"])
def test_reconstruction_notes_present(name):
    assert load_fixture(name).notes


def test_load_fixture_validates_published(tmp_path):
    (tmp_path / "human_cat.csv").write_text("A,B\n")
    (tmp_path / "human_cat.json").write_text('{"published": {"m": 5, "n": 1, "t": 1}}')
    with pytest.raises(ParseError, match="published m=5"):
        load_fixture("human_cat", tmp_path)
    with pytest.raises(InputError):
        load_fixture("no_such_fixture")


def test_dataset_validate_published_passes_without_metadata():
    d = parse_edge_list("A,B\n")
    assert isinstance(d, Dataset)
    assert d.validate_published() == []
