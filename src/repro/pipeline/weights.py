"""Incremental maintenance of the block-weight matrix ``W = S^T A S``.

Every reduction the pipeline performs starts from the ``k x k`` block
aggregates ``W[i, j] = w(P_i, P_j)`` (Sec. 3.2): flow capacities
``c_hat_2`` are ``W`` itself, the LP reduction (Eq. 6) is ``W`` of the
extended matrix's bipartite graph rescaled by class sizes.  A naive
multi-k sweep recomputes the sparse triple product ``S^T A S`` — an
``O(m)`` pass — at *every* color budget.

:class:`BlockWeightTracker` instead keeps ``W`` in lockstep with a
:class:`~repro.core.rothko.Rothko` engine: a split of color ``c`` into
``(c, t)`` dirties exactly the rows ``{c, t}`` and columns ``{c, t}``
(every other block keeps its members on both sides).  Dirty lines are
rebuilt by the backend's ``scatter_select_color_sums`` kernel (the
process default, see :mod:`repro.core.backends`) in
``O(nnz(color) + k)`` each — direct sums of the affected edge
weights, so exact zeros stay exact and no subtraction residue can
materialize spurious blocks.  Dirty colors may be accumulated across
several splits and refreshed in one batch (the progressive runner does
this per checkpoint), since only the *final* membership matters.

The tracker works in *engine* color-id space (split order); callers
materializing a canonical :class:`~repro.core.partition.Coloring` remap
via :meth:`weights` with the engine's label array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.backends import resolve_backend
from repro.core.kernels import as_csr_square
from repro.core.partition import first_occurrence_values

__all__ = ["BlockWeightTracker", "canonical_order"]


def canonical_order(labels: np.ndarray) -> np.ndarray:
    """Map engine color ids to canonical :class:`Coloring` ids.

    ``canonical_order(labels)[e]`` is the id that engine color ``e``
    receives after ``Coloring(labels)`` renumbers colors by first
    occurrence.  Engine ids are contiguous ``0..k-1``, so the
    first-occurrence value list is a permutation and this is its
    inverse.
    """
    values = first_occurrence_values(labels)  # canonical id -> engine id
    order = np.empty(values.size, dtype=np.int64)
    order[values] = np.arange(values.size)
    return order


class BlockWeightTracker:
    """``W = S^T A S`` kept current across Rothko splits."""

    def __init__(
        self, adjacency: sp.spmatrix | np.ndarray, labels: np.ndarray, k: int
    ) -> None:
        self._csr = as_csr_square(adjacency)
        self._csc = self._csr.tocsc()
        self.k = int(k)
        capacity = max(16, 2 * self.k)
        self._w = np.zeros((capacity, capacity), dtype=np.float64)
        if self.k:
            n = self._csr.shape[0]
            indicator = sp.csr_matrix(
                (np.ones(n), (np.arange(n), labels)), shape=(n, self.k)
            )
            self._w[: self.k, : self.k] = (
                indicator.T @ self._csr @ indicator
            ).toarray()

    def _grow(self, k: int) -> None:
        capacity = self._w.shape[0]
        if k <= capacity:
            return
        new_capacity = max(2 * capacity, k)
        grown = np.zeros((new_capacity, new_capacity), dtype=np.float64)
        grown[:capacity, :capacity] = self._w
        self._w = grown

    def refresh(
        self,
        colors: Iterable[int],
        members_of: Sequence[np.ndarray],
        labels: np.ndarray,
        k: int,
    ) -> None:
        """Rebuild the rows and columns of the dirty ``colors``.

        ``colors`` must contain every color whose membership changed
        since the last sync — for a batch of Rothko splits that is each
        split's parent plus every color created (in particular all ids
        in ``[old k, new k)``).  ``members_of[i]`` holds the *current*
        members of ``colors[i]`` and ``labels`` the current engine
        label array.
        """
        colors = list(colors)
        missing = set(range(self.k, k)).difference(colors)
        if missing:
            raise ValueError(
                f"new colors {sorted(missing)} missing from the dirty set"
            )
        self._grow(k)
        self.k = k
        w = self._w
        kernel = resolve_backend(None)
        for color, members in zip(colors, members_of):
            w[color, :k] = kernel.scatter_select_color_sums(
                self._csr.indptr, self._csr.indices, self._csr.data,
                members, labels, k,
            )
            w[:k, color] = kernel.scatter_select_color_sums(
                self._csc.indptr, self._csc.indices, self._csc.data,
                members, labels, k,
            )

    def apply_split(
        self,
        parent: int,
        new_color: int,
        retain: np.ndarray,
        eject: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Patch ``W`` after ``parent`` split off ``new_color``.

        The single-split convenience form of :meth:`refresh`:
        ``retain``/``eject`` are the post-split member lists and
        ``labels`` the post-split engine label array.
        """
        if new_color != self.k:
            raise ValueError(
                f"split out of order: expected new color {self.k}, "
                f"got {new_color}"
            )
        self.refresh(
            (parent, new_color), (retain, eject), labels, new_color + 1
        )

    def weights(self, labels: np.ndarray | None = None) -> np.ndarray:
        """Current ``k x k`` block weights (a copy).

        With ``labels`` (the engine's label array) the matrix is
        permuted into canonical :class:`Coloring` id order, aligning it
        with ``Coloring(labels)`` — the form every reduction consumes.
        """
        k = self.k
        block = self._w[:k, :k]
        if labels is None:
            return block.copy()
        order = canonical_order(labels)
        out = np.empty_like(block)
        out[np.ix_(order, order)] = block
        return out
