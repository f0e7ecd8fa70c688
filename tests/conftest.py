"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import karate_club


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def karate() -> WeightedDiGraph:
    return karate_club()


@pytest.fixture
def small_directed() -> WeightedDiGraph:
    """A fixed 6-node weighted digraph used across unit tests."""
    graph = WeightedDiGraph(directed=True)
    edges = [
        (0, 1, 2.0),
        (0, 2, 1.0),
        (1, 2, 3.0),
        (1, 3, 1.0),
        (2, 3, 2.0),
        (3, 4, 4.0),
        (4, 5, 1.0),
        (2, 5, 0.5),
    ]
    graph.add_weighted_edges(edges)
    return graph


def random_adjacency(
    n: int, density: float, seed: int, weighted: bool = True
) -> sp.csr_matrix:
    """Random square sparse adjacency with integer-ish weights."""
    generator = np.random.default_rng(seed)
    mask = generator.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = (
        generator.integers(1, 5, size=(n, n)).astype(float)
        if weighted
        else np.ones((n, n))
    )
    return sp.csr_matrix(np.where(mask, weights, 0.0))


def store_graph_with_weights(path, src, dst, weights) -> WeightedDiGraph:
    """A memmapped graph over an edge store whose weights may be NaN/inf.

    Ingest refuses non-finite weights, so the store is written with unit
    weights and the requested ones are patched into its CSR and CSC
    weight files afterwards — the state of a store corrupted on disk.
    """
    from repro.graphs.edgestore import ingest_arrays

    store = ingest_arrays(path, src, dst)
    csr_src = np.load(store.path / "src.npy")
    csr_dst = np.load(store.path / "dst.npy")
    csc_indptr = np.load(store.path / "csc_indptr.npy")
    csc_indices = np.load(store.path / "csc_indices.npy")
    csr_weight = np.load(store.path / "weight.npy", mmap_mode="r+")
    csc_weight = np.load(store.path / "csc_data.npy", mmap_mode="r+")
    for u, v, w in zip(src, dst, weights):
        csr_weight[(csr_src == u) & (csr_dst == v)] = w
        begin, end = csc_indptr[v], csc_indptr[v + 1]
        csc_weight[begin + np.flatnonzero(csc_indices[begin:end] == u)] = w
    csr_weight.flush()
    csc_weight.flush()
    del csr_weight, csc_weight
    return WeightedDiGraph.from_edgestore(store)
