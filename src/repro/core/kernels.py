"""Plain-numpy helpers shared by the coloring engines and metrics.

The hot kernels (scatters, gathers, degree slices, ordered min/max)
live on the :class:`~repro.core.backends.base.Backend` instance the
caller resolved — :class:`~repro.core.rothko.Rothko` holds its own,
everything else asks :func:`repro.core.backends.resolve_backend` — and
are called as methods on it.  This module keeps only the helpers no
backend implements:

* :func:`as_csr_square` — shared square-CSR input coercion;
* :func:`color_degree_matrix` / :func:`color_degree_matrix_t` /
  :func:`color_degree_matrices` — the full dense degree matrices in one
  ``O(m)`` ``np.bincount`` over flattened ``(node, color)`` keys, for
  verification, the q-error recount, and the dynamic engine's seed;
* :func:`grouped_minmax_by_labels` — per-color max/min (the ``U``/``L``
  boundary matrices of Algorithm 1) via argsort + ``reduceat``;
* :func:`members_order` — the color-sorted node order that lets
  ``Backend.grouped_minmax_ordered`` skip that argsort;
* :func:`relative_spread` — the Sec. 3.1 relative error with its zero
  convention.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "as_csr_square",
    "color_degree_matrix",
    "color_degree_matrix_t",
    "color_degree_matrices",
    "grouped_minmax_by_labels",
    "members_order",
    "relative_spread",
]


def as_csr_square(adjacency: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Coerce to a square float64 CSR matrix (shared input validation)."""
    matrix = sp.csr_matrix(adjacency, dtype=np.float64)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got {matrix.shape}")
    return matrix


def color_degree_matrix(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    n_colors: int,
) -> np.ndarray:
    """Dense ``n x k`` degree matrix from compressed-sparse arrays.

    On CSR arrays of ``A`` this is ``D_out[v, c] = w(v, P_c)``; on the CSC
    arrays (where the "row" ranges are columns of ``A``) it is
    ``D_in[v, c] = w(P_c, v)``.  One ``O(m)`` bincount over flattened
    ``(node, color)`` keys — considerably faster than ``A @ S`` with a
    sparse indicator followed by densification.
    """
    n = indptr.size - 1
    if n_colors == 0 or n == 0:
        return np.zeros((n, n_colors), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    flat = rows * n_colors + labels[indices]
    return np.bincount(
        flat, weights=data, minlength=n * n_colors
    ).reshape(n, n_colors)


def color_degree_matrix_t(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    n_colors: int,
) -> np.ndarray:
    """Transposed variant of :func:`color_degree_matrix`: dense ``k x n``.

    Color-major storage keeps each degree *column* contiguous, which is
    the access pattern of the Rothko engine's verification recompute.
    """
    n = indptr.size - 1
    if n_colors == 0 or n == 0:
        return np.zeros((n_colors, n), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    flat = labels[indices] * n + rows
    return np.bincount(
        flat, weights=data, minlength=n_colors * n
    ).reshape(n_colors, n)


def color_degree_matrices(
    matrix: sp.csr_matrix, labels: np.ndarray, n_colors: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both dense degree matrices ``(D_out, D_in)`` of a CSR adjacency."""
    csc = matrix.tocsc()
    d_out = color_degree_matrix(
        matrix.indptr, matrix.indices, matrix.data, labels, n_colors
    )
    d_in = color_degree_matrix(
        csc.indptr, csc.indices, csc.data, labels, n_colors
    )
    return d_out, d_in


def grouped_minmax_by_labels(
    values: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-label max/min of a row-per-node array (1-D or 2-D).

    The ``argsort`` + ``reduceat`` kernel shared by the q-error metrics,
    :meth:`Rothko.verify_state <repro.core.rothko.Rothko.verify_state>`
    and :class:`repro.dynamic.DynamicColoring`.  Labels must be
    contiguous ``0..k-1`` with no empty classes (``reduceat`` over
    duplicated start offsets would silently read the wrong element
    otherwise).
    """
    if k == 0:
        shape = (0,) if values.ndim == 1 else (0, values.shape[1])
        return (
            np.empty(shape, dtype=values.dtype),
            np.empty(shape, dtype=values.dtype),
        )
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=k)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    sorted_values = values[order]
    if values.ndim == 1:
        upper = np.maximum.reduceat(sorted_values, starts)
        lower = np.minimum.reduceat(sorted_values, starts)
    else:
        upper = np.maximum.reduceat(sorted_values, starts, axis=0)
        lower = np.minimum.reduceat(sorted_values, starts, axis=0)
    return upper, lower


def members_order(
    members: list[np.ndarray], sizes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Color-sorted node order and ``reduceat`` starts of member lists.

    The concatenated member lists *are* a color-sorted node order, so
    per-color reductions need no argsort.  Build this once per refresh
    and feed it to ``Backend.grouped_minmax_ordered`` for every value
    chunk.  Member lists must be non-empty.  Callers that already
    maintain the per-color sizes (the Rothko engine) pass them via
    ``sizes`` to skip the per-list size scan.
    """
    if not members:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if sizes is None:
        sizes = np.array([m.size for m in members], dtype=np.int64)
    order = np.concatenate(members)
    starts = np.empty(len(members), dtype=np.int64)
    starts[0] = 0
    np.cumsum(sizes[:-1], out=starts[1:])
    return order, starts


def relative_spread(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Per-block relative error ``log(max / min)`` with the Sec. 3.1 zero
    convention: blocks mixing zero and nonzero degrees get ``inf``."""
    spread = np.zeros_like(upper)
    mixed = (lower <= 0.0) & (upper > 0.0)
    positive = lower > 0.0
    spread[mixed] = np.inf
    spread[positive] = np.log(upper[positive] / lower[positive])
    return spread
