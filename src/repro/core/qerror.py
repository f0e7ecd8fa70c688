"""Degree/error matrices for quasi-stable colorings (Sec. 5.2).

Given an adjacency matrix ``A`` and a coloring with indicator ``S``:

* ``D_out = A @ S``   — ``D_out[v, j] = w(v, P_j)``, node ``v``'s total
  outgoing weight into color ``j``;
* ``D_in  = A.T @ S`` — ``D_in[v, i] = w(P_i, v)``, total incoming weight
  from color ``i``.

Grouping rows by the node's color and taking max/min per column yields the
``U`` and ``L`` matrices of Algorithm 1 and the error matrix
``Err = U - L``.  We track both directions (Definition 1 constrains
outgoing *and* incoming weights):

* ``out_err[i, j]`` — spread of ``w(x, P_j)`` over ``x in P_i``
  (a witness here splits the *source* color ``P_i``);
* ``in_err[i, j]``  — spread of ``w(P_i, y)`` over ``y in P_j``
  (a witness here splits the *target* color ``P_j``).

On symmetric adjacency (undirected graphs) ``in_err = out_err.T``.

The degree matrices are one ``O(m)`` bincount each
(:mod:`repro.core.kernels`), the per-color min/max runs on the
process-default backend's ``grouped_minmax_ordered`` kernel (the one
the Rothko engine uses), and the metric functions accept precomputed
matrices so a full report builds them exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core import kernels
from repro.core.backends import resolve_backend
from repro.core.partition import Coloring

def _as_csr(adjacency: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    return kernels.as_csr_square(adjacency)


def color_degree_matrices(
    adjacency: sp.spmatrix | np.ndarray, coloring: Coloring
) -> tuple[np.ndarray, np.ndarray]:
    """Return dense ``(D_out, D_in)``, each ``n x k``."""
    matrix = _as_csr(adjacency)
    return kernels.color_degree_matrices(
        matrix, coloring.labels, coloring.n_colors
    )


def grouped_minmax(
    values: np.ndarray, coloring: Coloring
) -> tuple[np.ndarray, np.ndarray]:
    """Per-color column-wise max and min of a row-per-node matrix.

    ``U[i, j] = max_{v in P_i} values[v, j]`` and symmetrically for ``L``.
    One stable argsort gives the color-sorted node order; the reduction
    is the process-default backend's ``grouped_minmax_ordered`` over the
    feature-major view ``values.T``.
    """
    if values.shape[0] != coloring.n:
        raise ValueError(
            f"values has {values.shape[0]} rows but coloring has {coloring.n} nodes"
        )
    sizes = coloring.sizes
    order = np.argsort(coloring.labels, kind="stable")
    upper, lower = resolve_backend(None).grouped_minmax_ordered(
        values.T, order, np.cumsum(sizes) - sizes
    )
    return upper.T, lower.T


def error_matrices(
    adjacency: sp.spmatrix | np.ndarray,
    coloring: Coloring,
    degree_matrices: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(out_err, in_err)``, both ``k x k`` (see module docstring).

    Pass ``degree_matrices=(D_out, D_in)`` to reuse matrices you already
    have (e.g. from :func:`color_degree_matrices`) instead of rebuilding
    them from the adjacency.
    """
    if degree_matrices is None:
        degree_matrices = color_degree_matrices(adjacency, coloring)
    d_out, d_in = degree_matrices
    upper_out, lower_out = grouped_minmax(d_out, coloring)
    upper_in, lower_in = grouped_minmax(d_in, coloring)
    out_err = upper_out - lower_out
    # grouped_minmax groups by the *node's* color: for D_in the node is the
    # target, so rows of (upper_in - lower_in) are target colors and columns
    # are source colors.  Transpose into (source, target) orientation.
    in_err = (upper_in - lower_in).T
    return out_err, in_err


def max_q_err(
    adjacency: sp.spmatrix | np.ndarray,
    coloring: Coloring,
    degree_matrices: tuple[np.ndarray, np.ndarray] | None = None,
    errors: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """The maximum q-error of the coloring over both directions.

    This is the smallest ``q`` for which the coloring is q-stable
    (Definition 1 with the ``~q`` relation).  ``errors`` accepts a
    precomputed :func:`error_matrices` pair to skip the reduction.
    """
    if errors is None:
        errors = error_matrices(
            adjacency, coloring, degree_matrices=degree_matrices
        )
    out_err, in_err = errors
    if out_err.size == 0:
        return 0.0
    return float(max(out_err.max(), in_err.max()))


def mean_q_err(
    adjacency: sp.spmatrix | np.ndarray,
    coloring: Coloring,
    degree_matrices: tuple[np.ndarray, np.ndarray] | None = None,
    errors: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Average q-error over color pairs that have any adjacency.

    Table 4's "Mean q" statistic: the spread averaged over the ordered
    color pairs ``(i, j)`` with at least one edge from ``P_i`` to ``P_j``
    (pairs without edges are exactly regular and would dilute the metric).

    ``errors`` accepts a precomputed :func:`error_matrices` pair so
    callers that already reduced the degree matrices skip the second
    grouped min/max sweep.
    """
    if degree_matrices is None:
        degree_matrices = kernels.color_degree_matrices(
            _as_csr(adjacency), coloring.labels, coloring.n_colors
        )
    d_out, _ = degree_matrices
    # Block weight = column sums of D_out grouped by the node's color;
    # no extra sparse triple product needed.
    indicator = coloring.indicator()
    block_weight = np.asarray((indicator.T @ d_out))
    if errors is None:
        errors = error_matrices(
            adjacency, coloring, degree_matrices=degree_matrices
        )
    out_err, in_err = errors
    mask = block_weight != 0.0
    if not mask.any():
        return 0.0
    spread = np.maximum(out_err, in_err)
    return float(spread[mask].mean())


@dataclass(frozen=True)
class QErrorReport:
    """Summary statistics of a coloring's q-error (Table 4 row)."""

    n_colors: int
    max_q: float
    mean_q: float
    compression_ratio: float

    def as_row(self) -> dict:
        return {
            "colors": self.n_colors,
            "max_q": self.max_q,
            "mean_q": self.mean_q,
            "compression": f"{self.compression_ratio:.0f}:1"
            if self.compression_ratio >= 10
            else f"{self.compression_ratio:.2f}:1",
        }


def q_error_report(
    adjacency: sp.spmatrix | np.ndarray, coloring: Coloring
) -> QErrorReport:
    """Bundle the Table 4 statistics for one coloring.

    The degree matrices *and* the error matrices are each built exactly
    once and threaded through both metrics (they used to be rebuilt three
    times over).
    """
    matrix = _as_csr(adjacency)
    degree_matrices = kernels.color_degree_matrices(
        matrix, coloring.labels, coloring.n_colors
    )
    errors = error_matrices(
        matrix, coloring, degree_matrices=degree_matrices
    )
    return QErrorReport(
        n_colors=coloring.n_colors,
        max_q=max_q_err(matrix, coloring, errors=errors),
        mean_q=mean_q_err(
            matrix, coloring, degree_matrices=degree_matrices, errors=errors
        ),
        compression_ratio=coloring.compression_ratio(),
    )


def is_q_stable(
    adjacency: sp.spmatrix | np.ndarray, coloring: Coloring, q: float
) -> bool:
    """Whether the coloring is q-stable on the given graph."""
    return max_q_err(adjacency, coloring) <= q


def is_quasi_stable(
    adjacency: sp.spmatrix | np.ndarray,
    coloring: Coloring,
    similarity,
) -> bool:
    """Whether the coloring is ``~``quasi-stable for an arbitrary relation.

    Checks Definition 1 directly: for every ordered color pair, the
    outgoing row sums are pairwise similar and the incoming column sums are
    pairwise similar.  Quadratic in ``k``; intended for validation/tests.
    """
    d_out, d_in = color_degree_matrices(adjacency, coloring)
    for members in coloring.classes():
        for j in range(coloring.n_colors):
            if not similarity.all_similar(d_out[members, j]):
                return False
            if not similarity.all_similar(d_in[members, j]):
                return False
    return True
