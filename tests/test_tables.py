"""Table model, fixed-margin enumeration, and transforms."""

import numpy as np
import pytest

from exactsens.tables import (
    ContingencyTable,
    Margins,
    _enumerate_rec,
    collapse,
    crosscut,
    enumerate_fixed_margin_array,
    enumerate_fixed_margin_tables,
    read_numbers,
)
from tests.conftest import multiset_permutations


def tables_set(m):
    return {t.counts for t in enumerate_fixed_margin_tables(m)}


def test_smallest_nondegenerate_case():
    got = tables_set(Margins((1, 1), (1, 1)))
    assert got == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def test_one_degree_of_freedom():
    tabs = list(enumerate_fixed_margin_tables(Margins((2, 2), (2, 2))))
    assert len(tabs) == 3
    assert sorted(t.counts[0][0] for t in tabs) == [0, 1, 2]


def test_margin_preservation_and_uniqueness():
    m = Margins((3, 2, 4), (2, 3, 4))
    seen = set()
    for t in enumerate_fixed_margin_tables(m):
        assert t.row_margins() == m.rows
        assert t.col_margins() == m.cols
        assert t.counts not in seen
        seen.add(t.counts)


@pytest.mark.parametrize("rows,cols", [
    pytest.param((3, 2), (2, 1, 2), id="2x3"),
    pytest.param((5,), (2, 0, 3), id="one-row"),
    pytest.param((2, 3), (2, 0, 3), id="empty-middle-column"),
    pytest.param((2, 2, 1), (3, 2, 0), id="empty-last-column"),
    pytest.param((3, 2, 4, 1), (4, 3, 3), id="4x3"),
])
def test_lexicographic_order_and_array_agreement(rows, cols):
    # the stream behind enumerate_fixed_margin_tables, which also runs at
    # I = 1, where no ContingencyTable exists
    m = Margins(rows, cols)
    flat = [tuple(cells) for cells in _enumerate_rec(m.rows, m.cols)]
    assert flat == sorted(flat)
    arr = enumerate_fixed_margin_array(m)
    assert [tuple(a.ravel()) for a in arr] == flat


@pytest.mark.parametrize("rows,cols", [((5,), (2, 0, 3)), ((2, 3), (5,))],
                         ids=["one-row", "one-column"])
def test_table_stream_refuses_a_degenerate_shape_at_the_call(rows, cols):
    # no ContingencyTable has fewer than 2 rows or columns; the refusal must
    # not wait for the first next() on the stream
    with pytest.raises(ValueError, match="at least 2 rows and 2 columns"):
        enumerate_fixed_margin_tables(Margins(rows, cols))


def brute_force_table_count(rows, cols):
    """Group every treatment assignment by its induced table."""
    outcomes = []
    for j, c in enumerate(cols):
        outcomes.extend([j] * c)
    base = []
    for i, r in enumerate(rows):
        base.extend([i] * r)
    seen = set()
    for z in multiset_permutations(base):
        key = [0] * (len(rows) * len(cols))
        for zi, rj in zip(z, outcomes):
            key[zi * len(cols) + rj] += 1
        seen.add(tuple(key))
    return len(seen)


@pytest.mark.parametrize(
    "rows,cols",
    [((2, 2), (2, 2)), ((3, 2), (1, 2, 2)), ((2, 2, 2), (3, 3)), ((4, 3), (2, 2, 3))],
)
def test_enumeration_completeness_small(rows, cols):
    m = Margins(rows, cols)
    assert len(tables_set(m)) == brute_force_table_count(rows, cols)


def test_enumeration_count_against_assignment_grouping_n15():
    # brute force walks all 756756 treatment assignments of the (5,5,5) x
    # (2,5,8) margins and groups them by induced table
    m = Margins((5, 5, 5), (2, 5, 8))
    assert len(tables_set(m)) == brute_force_table_count((5, 5, 5), (2, 5, 8))


def test_collapse_examples():
    t = ContingencyTable.from_array([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    out = collapse(t, [(0,), (1, 2)], [(0, 1), (2,)])
    assert out.counts == ((2, 1), (4, 2))
    ident = collapse(t, [(0,), (1,), (2,)], [(0,), (1,), (2,)])
    assert ident.counts == t.counts


def test_collapse_figure_v1():
    t = ContingencyTable.from_array([[12, 3, 0], [18, 12, 3], [17, 25, 4]])
    v1 = collapse(t, [(0,), (1,), (2,)], [(0, 1), (2,)])
    assert v1.counts == ((15, 0), (30, 3), (42, 4))
    # new first cell sums the first two cells of the original row
    assert v1.counts[0][0] == t.counts[0][0] + t.counts[0][1]


def test_collapse_commutes_with_margins():
    rng = np.random.default_rng(3)
    t = ContingencyTable.from_array(rng.integers(0, 6, size=(3, 3)) + 1)
    rg, cg = [(0, 1), (2,)], [(0,), (1, 2)]
    out = collapse(t, rg, cg)
    assert out.row_margins() == (sum(t.row_margins()[:2]), t.row_margins()[2])
    assert out.col_margins() == (t.col_margins()[0], sum(t.col_margins()[1:]))



def _collapse_by_loop(t, rg, cg):
    # the cell-by-cell definition: cell (a, b) sums the block rg[a] x cg[b]
    arr = t.as_array()
    out = np.zeros((len(rg), len(cg)), dtype=np.int64)
    for a, rr in enumerate(rg):
        for b, cc in enumerate(cg):
            out[a, b] = arr[np.ix_(rr, cc)].sum()
    return out


def _random_partition(rng, n):
    # contiguous runs cut at random points, singletons included, in a
    # shuffled block order, which collapse accepts
    cuts = sorted(rng.choice(np.arange(1, n), size=rng.integers(0, n), replace=False).tolist())
    blocks = [tuple(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    return [blocks[k] for k in rng.permutation(len(blocks))]


def test_collapse_matches_the_blockwise_loop():
    rng = np.random.default_rng(20)
    singletons = 0
    for _ in range(300):
        I, J = rng.integers(2, 7, size=2)
        t = ContingencyTable.from_array(rng.integers(0, 9, size=(I, J)) + (rng.random() < 0.5))
        rg, cg = _random_partition(rng, I), _random_partition(rng, J)
        if len(rg) < 2 or len(cg) < 2:
            continue
        singletons += any(len(b) == 1 for b in rg + cg)
        assert collapse(t, rg, cg).as_array().tolist() == _collapse_by_loop(t, rg, cg).tolist()
    assert singletons > 100

def test_collapse_rejects_non_partition():
    t = ContingencyTable.from_array([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        collapse(t, [(0,)], [(0,), (1,)])
    with pytest.raises(ValueError):
        collapse(t, [(0,), (1,)], [(0, 1), (1,)])


def test_crosscut():
    t = ContingencyTable.from_array([[3, 2, 1], [0, 2, 4], [0, 1, 5]])
    cut = crosscut(t, (0, 2), (0, 2))
    assert cut.counts == ((3, 1), (0, 5))
    assert cut.N == 9  # dropped subjects shrink the table
    assert crosscut(t, (0, 1, 2), (0, 1, 2)).counts == t.counts
    with pytest.raises(ValueError):
        crosscut(t, (0,), (0, 2))


def test_crosscut_refuses_a_repeated_index():
    # a repeated row used to count its subjects twice
    t = ContingencyTable.from_array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(ValueError, match="repeats row index 0"):
        crosscut(t, (0, 0, 2), (0, 2))
    with pytest.raises(ValueError, match="repeats column index 2"):
        crosscut(t, (0, 1), (2, 0, 2))


def test_crosscut_of_an_unset_axis_keeps_every_level():
    t = ContingencyTable.from_array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert crosscut(t, (0, 2), None).counts == ((1, 2, 3), (7, 8, 9))
    assert crosscut(t, None, (2, 0)).counts == ((1, 3), (4, 6), (7, 9))
    assert crosscut(t, None, None).counts == t.counts


def test_stacked_transforms_equal_per_table_transforms():
    rng = np.random.default_rng(3)
    stack = rng.integers(0, 4, size=(40, 3, 3))
    stack[:, 2, 2] += 1
    stack[:5, 1] = 0  # an empty middle row
    stack[5:9, 0, [0, 2]] = 0  # the cross-cut keeps nobody of row 0
    cases = [
        (collapse, [(0,), (1, 2)], [(0, 1), (2,)]),
        (collapse, [(1, 2), (0,)], [(2,), (0, 1)]),
        (collapse, [(0,), (1,), (2,)], [(0,), (1, 2)]),
        (crosscut, (0, 2), (0, 2)),
        (crosscut, (2, 0), None),
        (crosscut, None, (1, 2)),
    ]
    for transform, a, b in cases:
        got = transform(stack, a, b)
        assert got.dtype == stack.dtype and got.ndim == 3
        want = [transform(ContingencyTable.from_array(tab), a, b).counts for tab in stack]
        assert [tuple(map(tuple, g)) for g in got.tolist()] == want
    assert (crosscut(stack, (0, 2), (0, 2))[5:9, 0] == 0).all()


def test_validation():
    with pytest.raises(ValueError):
        ContingencyTable.from_array([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        ContingencyTable.from_array([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        Margins((2, 0), (1, 1))
    with pytest.raises(ValueError):
        Margins((2, 2), (1, 1))


def test_csv_json_roundtrip(tmp_path):
    t = ContingencyTable.from_array([[3, 2, 1], [0, 2, 4]])
    assert ContingencyTable.from_csv("# header\n" + t.to_csv()).counts == t.counts
    assert ContingencyTable.from_json(t.to_json()).counts == t.counts


def test_read_numbers_returns_exactly_the_values_written():
    assert read_numbers(" 0, 0.25 ,1.5", "--alpha", text=True) == (0.0, 0.25, 1.5)
    counts = read_numbers("3, 4", "line 1", int, text=True)
    assert counts == (3, 4) and all(type(v) is int for v in counts)
    assert read_numbers([0, 1.5], "alpha") == (0.0, 1.5)
    assert read_numbers([3, 4], "counts row 1", int) == (3, 4)


@pytest.mark.parametrize("value, kind, text, message", [
    ("", float, True, "empty --x list"),
    (",", float, True, "empty --x list"),
    ("0,,1", float, True, "--x entry '' is not a number: '0,,1'"),
    ("0,1,", int, True, "--x entry '' is not an integer: '0,1,'"),
    ("1,3.5", int, True, "--x entry '3.5' is not an integer: '1,3.5'"),
    ("1,a", float, True, "--x entry 'a' is not a number: '1,a'"),
    ([], float, False, "empty --x list"),
    ("1,2", float, False, '--x must be an array of numbers, not "1,2"'),
    (5, int, False, "--x must be an array of numbers, not 5"),
    ([1, "3"], float, False, '--x entry "3" is not a number: [1, "3"]'),
    ([1, True], int, False, "--x entry true is not an integer: [1, true]"),
    ([1, None], float, False, "--x entry null is not a number: [1, null]"),
    ([1, 3.9], int, False, "--x entry 3.9 is not an integer: [1, 3.9]"),
    # a count is written as an integer: 3.0 is refused like 3.9, as "3.0" is in a CSV
    ([1, 3.0], int, False, "--x entry 3.0 is not an integer: [1, 3.0]"),
])
def test_read_numbers_refuses_what_it_cannot_read_exactly(value, kind, text, message):
    with pytest.raises(ValueError) as exc:
        read_numbers(value, "--x", kind, text=text)
    assert str(exc.value) == message


def test_table_json_count_written_as_a_float_is_refused():
    with pytest.raises(ValueError, match="counts row 1 entry 3.0 is not an integer"):
        ContingencyTable.from_json('{"counts": [[3.0, 1], [2, 4]]}')
    with pytest.raises(ValueError, match="line 2 entry '3.0' is not an integer"):
        ContingencyTable.from_csv("1,2\n3.0,4\n")
