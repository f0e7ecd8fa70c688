"""Flow networks and flow validation (Sec. 4.2 definitions).

A network is ``G = (X, c, S, T)`` — here specialized to single source and
sink (as in Theorem 6); capacities are the positive arc weights of a
:class:`~repro.graphs.digraph.WeightedDiGraph`.  Undirected graphs work
unchanged: their adjacency already stores both arc directions, each with
the full capacity, the standard reduction.

Solving is delegated to the CSR-native solver core of
:mod:`repro.solvers`: one flat :class:`~repro.solvers.arcstore.ArcStore`
per graph, vectorized BFS, and flat-array residual updates.

``FlowResult`` carries the flow value and the per-arc assignment so
callers can validate capacity and conservation (done in
:func:`validate_flow` — O(m) numpy reductions — used heavily by the
test suite).  The solvers produce flows as flat arrays; the
``arc_flow`` dict view is materialized lazily for compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

import numpy as np

from repro.exceptions import FlowError
from repro.graphs.digraph import WeightedDiGraph

ArcFlow = Dict[Tuple[int, int], float]

#: (tails, heads, flows) — the flat-array form of a flow assignment
ArcFlowArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FlowNetwork:
    """A single-source single-sink flow network."""

    graph: WeightedDiGraph
    source: Hashable
    sink: Hashable

    def __post_init__(self) -> None:
        if not self.graph.has_node(self.source):
            raise FlowError(f"source {self.source!r} not in graph")
        if not self.graph.has_node(self.sink):
            raise FlowError(f"sink {self.sink!r} not in graph")
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        for _, _, weight in self.graph.edges():
            # Written so NaN fails too: every comparison with NaN is False.
            if not 0.0 <= weight < math.inf:
                raise FlowError(
                    f"capacity {weight} is not finite and non-negative"
                )

    @property
    def source_index(self) -> int:
        return self.graph.index_of(self.source)

    @property
    def sink_index(self) -> int:
        return self.graph.index_of(self.sink)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


class FlowResult:
    """A max-flow answer: the value plus per-arc flows (by node index).

    The per-arc assignment is stored either as a dict (:func:`~repro.
    flow.approx.lift_flow`, hand-built fixtures) or as flat ``(tails,
    heads, flows)`` arrays (the solvers); each view is materialized
    lazily from the other on first access.
    """

    __slots__ = ("value", "_arc_flow", "_arc_arrays")

    def __init__(
        self,
        value: float,
        arc_flow: ArcFlow | None = None,
        arc_arrays: ArcFlowArrays | None = None,
    ) -> None:
        self.value = value
        self._arc_flow = arc_flow
        self._arc_arrays = arc_arrays
        if arc_flow is None and arc_arrays is None:
            self._arc_flow = {}

    @property
    def arc_flow(self) -> ArcFlow:
        """Dict view ``(u, v) -> flow`` (materialized lazily)."""
        if self._arc_flow is None:
            tails, heads, flows = self._arc_arrays
            self._arc_flow = {
                (int(u), int(v)): float(f)
                for u, v, f in zip(tails, heads, flows)
            }
        return self._arc_flow

    def arc_arrays(self) -> ArcFlowArrays:
        """Flat ``(tails, heads, flows)`` view (materialized lazily)."""
        if self._arc_arrays is None:
            items = self._arc_flow.items()
            tails = np.fromiter(
                (u for (u, _), _ in items), dtype=np.int64, count=len(items)
            )
            heads = np.fromiter(
                (v for (_, v), _ in items), dtype=np.int64, count=len(items)
            )
            flows = np.fromiter(
                (f for _, f in items), dtype=np.float64, count=len(items)
            )
            self._arc_arrays = (tails, heads, flows)
        return self._arc_arrays

    def out_flow(self, node: int) -> float:
        tails, _, flows = self.arc_arrays()
        return float(flows[tails == node].sum())

    def in_flow(self, node: int) -> float:
        _, heads, flows = self.arc_arrays()
        return float(flows[heads == node].sum())

    def __eq__(self, other: object) -> bool:
        # Value equality over (value, per-arc flows), matching the
        # frozen-dataclass semantics this class replaced.
        if not isinstance(other, FlowResult):
            return NotImplemented
        return self.value == other.value and self.arc_flow == other.arc_flow

    # Explicitly unhashable: hashing the frozen dataclass this class
    # replaced also always raised (its dict field is unhashable).
    __hash__ = None

    def __repr__(self) -> str:
        return f"FlowResult(value={self.value!r})"


def validate_flow(
    network: FlowNetwork, result: FlowResult, tol: float = 1e-7
) -> None:
    """Raise :class:`FlowError` unless ``result`` is a valid s-t flow.

    Checks the capacity condition, conservation at internal nodes, and
    that the claimed value matches the net out-flow at the source — all
    as O(m) numpy reductions over the flat arc arrays (the per-arc dict
    is never touched, so validating an arcstore result stays cheap).
    """
    graph = network.graph
    n = graph.n_nodes
    tails, heads, flows = result.arc_arrays()

    if flows.size:
        worst = int(np.argmin(flows))
        if flows[worst] < -tol:
            raise FlowError(
                f"negative flow {flows[worst]} on arc "
                f"{(int(tails[worst]), int(heads[worst]))}"
            )
        # Out-of-range endpoints first: the flat key encoding below is
        # only injective over valid node indices.
        out_of_range = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
        if out_of_range.any():
            first = int(np.argmax(out_of_range))
            raise FlowError(
                f"flow on non-existent arc "
                f"{(int(tails[first]), int(heads[first]))}"
            )
        # Capacity lookup: CSR arc keys are sorted (row-major, sorted
        # columns), so one searchsorted resolves every flow arc.
        matrix = graph.to_csr()
        matrix.sort_indices()
        graph_keys = (
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(matrix.indptr)
            )
            * n
            + matrix.indices
        )
        flow_keys = tails.astype(np.int64) * n + heads
        positions = np.searchsorted(graph_keys, flow_keys)
        positions_clipped = np.minimum(positions, max(graph_keys.size - 1, 0))
        missing = (
            (positions >= graph_keys.size)
            | (graph_keys[positions_clipped] != flow_keys)
            if graph_keys.size
            else np.ones(flow_keys.size, dtype=bool)
        )
        if missing.any():
            first = int(np.argmax(missing))
            raise FlowError(
                f"flow on non-existent arc "
                f"{(int(tails[first]), int(heads[first]))}"
            )
        capacities = matrix.data[positions_clipped]
        over = flows > capacities + tol
        if over.any():
            first = int(np.argmax(over))
            raise FlowError(
                f"flow {flows[first]} exceeds capacity {capacities[first]} "
                f"on {(int(tails[first]), int(heads[first]))}"
            )

    net = np.zeros(n)
    if flows.size:
        net += np.bincount(tails, weights=flows, minlength=n)
        net -= np.bincount(heads, weights=flows, minlength=n)
    s, t = network.source_index, network.sink_index
    interior = np.abs(net) > tol
    interior[s] = interior[t] = False
    if interior.any():
        node = int(np.argmax(interior))
        raise FlowError(
            f"conservation violated at node {node}: {net[node]}"
        )
    if abs(net[s] - result.value) > tol:
        raise FlowError(
            f"claimed value {result.value} but source pushes {net[s]}"
        )
    if abs(net[t] + result.value) > tol:
        raise FlowError(
            f"claimed value {result.value} but sink receives {-net[t]}"
        )


def max_flow(
    network: FlowNetwork,
    algorithm: str = "push_relabel",
    backend=None,
) -> FlowResult:
    """Dispatch to one of the max-flow solvers.

    ``algorithm`` is one of ``push_relabel`` (the paper's exact
    baseline), ``dinic`` or ``edmonds_karp``.  ``backend`` reaches the
    solver-kernel dispatch (explicit wins, else the process default).
    """
    from repro.solvers import arc_store_for, dinic, edmonds_karp, push_relabel

    solvers = {
        "push_relabel": push_relabel,
        "dinic": dinic,
        "edmonds_karp": edmonds_karp,
    }
    if algorithm not in solvers:
        raise ValueError(
            f"algorithm must be one of {sorted(solvers)}, "
            f"got {algorithm!r}"
        )
    store = arc_store_for(network.graph)
    value, cap = solvers[algorithm](
        store, network.source_index, network.sink_index, backend=backend
    )
    return FlowResult(
        value=value, arc_arrays=store.extract_flow_arrays(cap)
    )
