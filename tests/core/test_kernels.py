"""Unit tests for the shared vectorized kernels: the plain-numpy helpers
in ``repro.core.kernels`` and the numpy reference backend's methods."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import kernels
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.partition import Coloring

REFERENCE = NumpyBackend()


def _random_csr(n, density, seed):
    generator = np.random.default_rng(seed)
    dense = generator.random((n, n)) * (generator.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    return sp.csr_matrix(dense)


class TestTakeRanges:
    def test_basic(self):
        starts = np.array([0, 10, 5])
        counts = np.array([3, 2, 1])
        np.testing.assert_array_equal(
            REFERENCE.take_ranges(starts, counts), [0, 1, 2, 10, 11, 5]
        )

    def test_empty_ranges_skipped(self):
        starts = np.array([4, 7, 2])
        counts = np.array([2, 0, 3])
        np.testing.assert_array_equal(
            REFERENCE.take_ranges(starts, counts), [4, 5, 2, 3, 4]
        )

    def test_all_empty(self):
        result = REFERENCE.take_ranges(np.array([3, 9]), np.array([0, 0]))
        assert result.size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive(self, seed):
        generator = np.random.default_rng(seed)
        starts = generator.integers(0, 50, size=12)
        counts = generator.integers(0, 6, size=12)
        naive = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
            + [np.empty(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(
            REFERENCE.take_ranges(starts, counts), naive
        )


class TestScatterSelectSums:
    @pytest.mark.parametrize("seed", range(4))
    def test_csc_columns_equal_dense_sum(self, seed):
        matrix = _random_csr(20, 0.3, seed)
        csc = matrix.tocsc()
        members = np.array([1, 4, 7, 15])
        column = REFERENCE.scatter_select_sums(
            csc.indptr, csc.indices, csc.data, members, 20
        )
        np.testing.assert_allclose(
            column, matrix.toarray()[:, members].sum(axis=1)
        )

    def test_empty_selection(self):
        matrix = _random_csr(10, 0.3, 0)
        column = REFERENCE.scatter_select_sums(
            matrix.indptr,
            matrix.indices,
            matrix.data,
            np.empty(0, dtype=np.int64),
            10,
        )
        np.testing.assert_array_equal(column, np.zeros(10))


class TestColorDegreeMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_indicator_product(self, seed):
        matrix = _random_csr(25, 0.25, seed)
        generator = np.random.default_rng(seed)
        coloring = Coloring(generator.integers(0, 5, size=25))
        k = coloring.n_colors
        expected = matrix.toarray() @ coloring.indicator().toarray()
        d_out = kernels.color_degree_matrix(
            matrix.indptr, matrix.indices, matrix.data, coloring.labels, k
        )
        np.testing.assert_allclose(d_out, expected)
        transposed = kernels.color_degree_matrix_t(
            matrix.indptr, matrix.indices, matrix.data, coloring.labels, k
        )
        np.testing.assert_allclose(transposed, expected.T)

    def test_zero_colors(self):
        matrix = _random_csr(5, 0.4, 1)
        result = kernels.color_degree_matrix(
            matrix.indptr, matrix.indices, matrix.data, np.zeros(5, int), 0
        )
        assert result.shape == (5, 0)


class TestGroupedMinmax:
    def test_zero_colors(self):
        upper, lower = kernels.grouped_minmax_by_labels(
            np.empty((0, 0)), np.empty(0, dtype=np.int64), 0
        )
        assert upper.shape == lower.shape == (0, 0)
        upper, lower = REFERENCE.grouped_minmax_ordered(
            np.empty((3, 0)), *kernels.members_order([])
        )
        assert upper.shape == lower.shape == (3, 0)

    def test_empty_graph_max_q_err(self):
        from repro.core.qerror import max_q_err

        empty = sp.csr_matrix((0, 0))
        assert max_q_err(empty, Coloring(np.empty(0, dtype=np.int64))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_members_variant_matches_labels_variant(self, seed):
        generator = np.random.default_rng(seed)
        n, k, r = 30, 4, 3
        labels = generator.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every class non-empty
        values = generator.standard_normal((r, n))
        members = [np.flatnonzero(labels == c) for c in range(k)]
        upper_m, lower_m = REFERENCE.grouped_minmax_ordered(
            values, *kernels.members_order(members)
        )
        upper_l, lower_l = kernels.grouped_minmax_by_labels(values.T, labels, k)
        np.testing.assert_allclose(upper_m, upper_l.T)
        np.testing.assert_allclose(lower_m, lower_l.T)


class TestScatterSelectColorSums:
    """The block-weight row/column kernel behind the pipeline's
    incremental ``W = S^T A S`` tracker."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_block_weights_row(self, seed):
        from repro.core.reduced import block_weights
        from tests.conftest import random_adjacency

        matrix = random_adjacency(25, 0.3, seed)
        generator = np.random.default_rng(seed)
        k = 5
        labels = generator.integers(0, k, size=25)
        labels[:k] = np.arange(k)
        coloring = Coloring(labels)
        expected = block_weights(matrix, coloring).toarray()
        csc = matrix.tocsc()
        for color in range(coloring.n_colors):
            members = coloring.members(color)
            row = REFERENCE.scatter_select_color_sums(
                matrix.indptr, matrix.indices, matrix.data,
                members, coloring.labels, coloring.n_colors,
            )
            np.testing.assert_allclose(row, expected[color], rtol=1e-12)
            col = REFERENCE.scatter_select_color_sums(
                csc.indptr, csc.indices, csc.data,
                members, coloring.labels, coloring.n_colors,
            )
            np.testing.assert_allclose(col, expected[:, color], rtol=1e-12)

    def test_empty_selection(self):
        matrix = sp.csr_matrix(np.eye(3))
        out = REFERENCE.scatter_select_color_sums(
            matrix.indptr, matrix.indices, matrix.data,
            np.empty(0, dtype=np.int64), np.zeros(3, dtype=np.int64), 1,
        )
        np.testing.assert_array_equal(out, [0.0])


class TestScatterAdd:
    def test_accumulates(self):
        out = REFERENCE.scatter_add(
            np.array([0, 2, 2, 4]), np.array([1.0, 2.0, 3.0, 4.0]), 6
        )
        np.testing.assert_allclose(out, [1.0, 0.0, 5.0, 0.0, 4.0, 0.0])

    def test_empty(self):
        np.testing.assert_array_equal(
            REFERENCE.scatter_add(np.empty(0, int), np.empty(0), 3),
            np.zeros(3),
        )


class TestAsCsrSquare:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            kernels.as_csr_square(np.zeros((2, 3)))

    def test_dense_roundtrip(self):
        dense = np.arange(9.0).reshape(3, 3)
        assert kernels.as_csr_square(dense).toarray().tolist() == dense.tolist()


class TestColorDegreeSlice:
    """``color_degree_slice_pair``: layer 0 slices the CSR (out) arrays,
    layer 1 the CSC (in) arrays."""

    @staticmethod
    def _pair(matrix, rows, labels, k):
        csc = matrix.tocsc()
        return REFERENCE.color_degree_slice_pair(
            (matrix.indptr, matrix.indices, matrix.data),
            (csc.indptr, csc.indices, csc.data),
            rows, labels, k,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_degree_matrix(self, seed):
        matrix = _random_csr(22, 0.3, seed)
        generator = np.random.default_rng(seed)
        k = 4
        labels = generator.integers(0, k, size=22)
        rows = np.array([0, 3, 9, 17, 21])
        indicator = np.eye(k)[labels]
        dense = matrix.toarray()
        pair = self._pair(matrix, rows, labels, k)
        np.testing.assert_allclose(pair[0], (dense @ indicator)[rows].T)
        np.testing.assert_allclose(pair[1], (dense.T @ indicator)[rows].T)

    def test_exact_zeros(self):
        """Entries with no contributing edge are exactly 0.0 (the
        geometric/relative thresholds depend on it)."""
        matrix = sp.csr_matrix(
            np.array([[0.0, 0.3], [0.0, 0.0]])
        )
        labels = np.array([0, 1])
        block = self._pair(matrix, np.array([0, 1]), labels, 2)
        assert block[0, 0, 0] == 0.0 and block[0, 0, 1] == 0.0
        assert block[0, 1, 0] == 0.3 and block[0, 1, 1] == 0.0
        assert block[1, 0, 0] == 0.0 and block[1, 0, 1] == 0.3
        assert block[1, 1, 0] == 0.0 and block[1, 1, 1] == 0.0

    def test_empty_rows(self):
        matrix = _random_csr(10, 0.3, 1)
        block = self._pair(
            matrix, np.empty(0, dtype=np.int64),
            np.zeros(10, dtype=np.int64), 1,
        )
        assert block.shape == (2, 1, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_stacks_both_directions(self, seed):
        matrix = _random_csr(18, 0.3, seed + 7)
        csc = matrix.tocsc()
        generator = np.random.default_rng(seed)
        k = 3
        labels = generator.integers(0, k, size=18)
        rows = np.array([2, 5, 11])
        pair = self._pair(matrix, rows, labels, k)
        d_out = kernels.color_degree_matrix(
            matrix.indptr, matrix.indices, matrix.data, labels, k
        )
        d_in = kernels.color_degree_matrix(
            csc.indptr, csc.indices, csc.data, labels, k
        )
        np.testing.assert_allclose(pair[0], d_out[rows].T)
        np.testing.assert_allclose(pair[1], d_in[rows].T)


class TestSelectDegreesToward:
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_target_matches_dense(self, seed):
        matrix = _random_csr(20, 0.35, seed)
        generator = np.random.default_rng(seed)
        labels = generator.integers(0, 3, size=20)
        rows = np.array([1, 6, 13, 19])
        degrees = REFERENCE.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data, rows, labels, 2
        )
        dense = matrix.toarray()
        expected = dense[np.ix_(rows, np.flatnonzero(labels == 2))].sum(axis=1)
        np.testing.assert_allclose(degrees, expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_per_row_targets(self, seed):
        matrix = _random_csr(16, 0.4, seed + 3)
        generator = np.random.default_rng(seed)
        labels = generator.integers(0, 3, size=16)
        rows = np.array([0, 4, 9, 15])
        targets = np.array([2, 0, 1, 2])
        degrees = REFERENCE.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data, rows, labels, targets
        )
        dense = matrix.toarray()
        for row, target, got in zip(rows, targets, degrees):
            expected = dense[row, labels == target].sum()
            assert got == pytest.approx(expected)

    def test_no_matching_edges_exact_zero(self):
        matrix = sp.csr_matrix(np.array([[0.0, 0.5], [0.0, 0.0]]))
        labels = np.array([0, 0])
        degrees = REFERENCE.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data,
            np.array([0, 1]), labels, 1,
        )
        assert degrees[0] == 0.0 and degrees[1] == 0.0

    def test_empty_rows(self):
        matrix = _random_csr(8, 0.3, 0)
        degrees = REFERENCE.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data,
            np.empty(0, dtype=np.int64), np.zeros(8, dtype=np.int64), 0,
        )
        assert degrees.size == 0


class TestMembersOrder:
    @pytest.mark.parametrize("seed", range(3))
    def test_ordered_reduce_matches_by_members(self, seed):
        generator = np.random.default_rng(seed)
        n, k = 30, 5
        labels = np.concatenate([np.arange(k), generator.integers(0, k, n - k)])
        members = [np.flatnonzero(labels == c) for c in range(k)]
        values = generator.random((3, n))
        order, starts = kernels.members_order(members)
        upper, lower = REFERENCE.grouped_minmax_ordered(values, order, starts)
        for color, member in enumerate(members):
            np.testing.assert_array_equal(
                upper[:, color], values[:, member].max(axis=1)
            )
            np.testing.assert_array_equal(
                lower[:, color], values[:, member].min(axis=1)
            )

    def test_empty_members(self):
        order, starts = kernels.members_order([])
        assert order.size == 0 and starts.size == 0
        upper, lower = REFERENCE.grouped_minmax_ordered(
            np.zeros((2, 0)), order, starts
        )
        assert upper.shape == (2, 0) and lower.shape == (2, 0)
