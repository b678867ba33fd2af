"""Bitwise agreement of the graph and pattern helpers with scalar oracles.

``reference.py`` holds the original per-row and per-vertex loops.  The
production helpers are vectorized (pattern algebra) or run on Python
lists (traversals); on random patterns with empty rows, isolated
vertices, self loops, nonsymmetric structure and duplicate entries they
must return exactly what the loops return: the same visit orders and
levels, the same component order, the same storage order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from repro.ordering import (
    adjacency_from_pattern,
    bfs_levels,
    connected_components,
    nested_dissection_order,
    pseudo_peripheral_node,
    reverse_cuthill_mckee,
)
from repro.ordering.nd import _Dissection
from repro.sparse import pattern
from repro.sparse.csr import CSRMatrix

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def patterns(draw, square=True, max_n=24, max_nnz=80, shape=None):
    """CSR with rows in storage order as drawn: unsorted, duplicates kept.

    Values are distinct so any reordering of entries is visible.
    """
    if shape is not None:
        n_rows, n_cols = shape
    else:
        n_rows = draw(st.integers(0, max_n))
        n_cols = n_rows if square else draw(st.integers(0, max_n))
    if n_rows == 0 or n_cols == 0:
        entries = []
    else:
        entries = draw(
            st.lists(
                st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                max_size=max_nnz,
            )
        )
    rows = np.array([r for r, _ in entries], dtype=np.int64)
    cols = np.array([c for _, c in entries], dtype=np.int64)
    by_row = np.argsort(rows, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    data = np.arange(1, len(entries) + 1, dtype=np.float64)
    return CSRMatrix(n_rows, n_cols, indptr, cols[by_row], data, sort=False)


def sorted_copy(A):
    return A.copy().sort_indices()


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def graph_and_mask(draw, A):
    n = A.n_rows
    symmetrize = draw(st.booleans())
    xadj, adjncy = ref.adjacency_from_pattern(A, symmetrize=symmetrize)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return xadj, adjncy, mask


# ----------------------------------------------------------------------
# pattern algebra
# ----------------------------------------------------------------------
@SETTINGS
@given(patterns(square=False))
def test_transpose_matches_bucket_fill(A):
    assert_same_csr(A.transpose(), ref.transpose(A))


@SETTINGS
@given(st.data())
def test_pattern_union_matches_per_row_union1d(data):
    a = data.draw(patterns(square=False))
    b = data.draw(patterns(shape=a.shape))
    assert_same_csr(pattern.pattern_union(a, b), ref.pattern_union(a, b))


@SETTINGS
@given(patterns())
def test_symmetrize_matches_union_with_transpose(A):
    assert_same_csr(pattern.symmetrize_pattern(A), ref.symmetrize_pattern(A))


@SETTINGS
@given(patterns(square=False), st.booleans())
def test_has_full_diagonal_matches_searchsorted(A, fill):
    A = sorted_copy(A)
    if fill:
        A = pattern.add_diagonal_pattern(A)
    assert pattern.has_full_diagonal(A) == ref.has_full_diagonal(A)


@SETTINGS
@given(patterns(square=False), st.sampled_from(sorted(ref.TRIANGULAR)))
def test_triangular_patterns_keep_storage_order(A, name):
    assert_same_csr(getattr(pattern, name)(A), ref.TRIANGULAR[name](A))


@SETTINGS
@given(patterns(), st.booleans())
def test_adjacency_matches_per_row_loop(A, symmetrize):
    got = adjacency_from_pattern(A, symmetrize=symmetrize)
    want = ref.adjacency_from_pattern(A, symmetrize=symmetrize)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# traversals
# ----------------------------------------------------------------------
@SETTINGS
@given(st.data())
def test_bfs_matches_scalar_oracle(data):
    A = data.draw(patterns().filter(lambda A: A.n_rows > 0))
    xadj, adjncy, mask = graph_and_mask(data.draw, A)
    root = data.draw(st.integers(0, A.n_rows - 1))
    use_mask = data.draw(st.booleans())
    m = mask if use_mask else None
    if use_mask and not mask[root]:
        with pytest.raises(ValueError, match="root not in mask"):
            bfs_levels(xadj, adjncy, root, mask=m)
        return
    levels, order = bfs_levels(xadj, adjncy, root, mask=m)
    want_levels, want_order = ref.bfs_levels(xadj, adjncy, root, mask=m)
    assert np.array_equal(levels, want_levels)
    assert np.array_equal(order, want_order)


@SETTINGS
@given(st.data())
def test_components_match_scalar_oracle(data):
    A = data.draw(patterns())
    xadj, adjncy, mask = graph_and_mask(data.draw, A)
    m = mask if data.draw(st.booleans()) else None
    labels, k = connected_components(xadj, adjncy, mask=m)
    want_labels, want_k = ref.connected_components(xadj, adjncy, mask=m)
    assert k == want_k
    assert np.array_equal(labels, want_labels)


@SETTINGS
@given(st.data())
def test_pseudo_peripheral_matches_scalar_oracle(data):
    A = data.draw(patterns().filter(lambda A: A.n_rows > 0))
    xadj, adjncy, mask = graph_and_mask(data.draw, A)
    start = data.draw(st.integers(0, A.n_rows - 1))
    mask[start] = True
    m = mask if data.draw(st.booleans()) else None
    max_iter = data.draw(st.integers(0, 8))
    v, levels, order = pseudo_peripheral_node(xadj, adjncy, start, mask=m, max_iter=max_iter)
    wv, wlevels, worder = ref.pseudo_peripheral_node(
        xadj, adjncy, start, mask=m, max_iter=max_iter
    )
    assert v == wv
    assert np.array_equal(levels, wlevels)
    assert np.array_equal(order, worder)


@SETTINGS
@given(patterns(max_n=40, max_nnz=120))
def test_rcm_matches_scalar_oracle(A):
    xadj, adjncy = ref.adjacency_from_pattern(A)
    want = ref.reverse_cuthill_mckee(xadj, adjncy)
    assert np.array_equal(reverse_cuthill_mckee(xadj, adjncy), want)


@SETTINGS
@given(patterns(max_n=60, max_nnz=150), st.sampled_from([1, 2, 3, 5, 8, 32]))
def test_nested_dissection_matches_scalar_oracle(A, leaf_size):
    got = nested_dissection_order(A, leaf_size=leaf_size)
    assert np.array_equal(got, ref.nested_dissection_order(A, leaf_size=leaf_size))


@SETTINGS
@given(st.data())
def test_dissection_components_match_oracle(data):
    """An ND node splits its vertex set into components by first
    appearance in the set, members sorted."""
    A = data.draw(patterns(max_n=40, max_nnz=60).filter(lambda A: A.n_rows > 0))
    verts = np.array(data.draw(st.permutations(range(A.n_rows))), dtype=np.int64)
    xadj, adjncy = adjacency_from_pattern(A)
    want = ref.components_of(xadj, adjncy, verts)
    if len(want) < 2:
        return
    pieces = _Dissection(xadj, adjncy, 0, [])._split(verts)
    assert len(pieces) == len(want)
    for got, w in zip(pieces, want):
        assert np.array_equal(got, w)
