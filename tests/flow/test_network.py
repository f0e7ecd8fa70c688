"""Tests for repro.flow.network (network and flow validation)."""

import pytest

from repro.exceptions import FlowError, GraphError
from repro.flow.network import (
    FlowNetwork,
    FlowResult,
    validate_flow,
)
from repro.graphs.digraph import WeightedDiGraph
from tests.conftest import store_graph_with_weights


def _store_graph(tmp_path, src, dst, weights):
    """A graph over an edge store whose weight files hold NaN/inf: the
    array-built entry path, which does not scan weights."""
    return store_graph_with_weights(tmp_path / "store", src, dst, weights)


@pytest.fixture
def diamond():
    """s -> {a, b} -> t with capacities 3/2/2/3."""
    graph = WeightedDiGraph(directed=True)
    graph.add_edge("s", "a", 3.0)
    graph.add_edge("s", "b", 2.0)
    graph.add_edge("a", "t", 2.0)
    graph.add_edge("b", "t", 3.0)
    return FlowNetwork(graph, "s", "t")


class TestFlowNetwork:
    def test_valid(self, diamond):
        assert diamond.n_nodes == 4
        assert diamond.source_index == 0

    def test_missing_source(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(FlowError):
            FlowNetwork(graph, 99, 1)

    def test_same_source_sink(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(FlowError):
            FlowNetwork(graph, 0, 0)

    def test_negative_capacity(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, -2.0)
        with pytest.raises(FlowError):
            FlowNetwork(graph, 0, 1)

    def test_nan_capacity(self, tmp_path):
        # NaN passes a plain ``< 0`` check; a NaN arc on the only path
        # used to give a silent max-flow and min-cut of 0.0.  Resident
        # graphs refuse it at add_edge and ingest refuses it too, so the
        # network is built over a store corrupted after ingest.
        with pytest.raises(GraphError, match="finite"):
            WeightedDiGraph(directed=True).add_edge(0, 1, float("nan"))
        graph = _store_graph(tmp_path, [0, 1], [1, 2], [float("nan"), 1.0])
        with pytest.raises(FlowError, match="finite"):
            FlowNetwork(graph, 0, 2)

    def test_infinite_capacity(self, tmp_path):
        # An all-inf path used to solve to inf (inf - inf in the flow
        # extraction along the way).
        inf = float("inf")
        with pytest.raises(GraphError, match="finite"):
            WeightedDiGraph(directed=True).add_edge(0, 1, inf)
        graph = _store_graph(tmp_path, [0, 1], [1, 2], [inf, inf])
        with pytest.raises(FlowError, match="finite"):
            FlowNetwork(graph, 0, 2)


class TestValidateFlow:
    def test_valid_flow_accepted(self, diamond):
        flow = {
            (0, 1): 2.0,  # s->a
            (0, 2): 2.0,  # s->b
            (1, 3): 2.0,  # a->t
            (2, 3): 2.0,  # b->t
        }
        validate_flow(diamond, FlowResult(value=4.0, arc_flow=flow))

    def test_capacity_violation(self, diamond):
        flow = {(0, 1): 5.0, (1, 3): 5.0}
        with pytest.raises(FlowError, match="exceeds capacity"):
            validate_flow(diamond, FlowResult(value=5.0, arc_flow=flow))

    def test_conservation_violation(self, diamond):
        flow = {(0, 1): 1.0}
        with pytest.raises(FlowError, match="conservation"):
            validate_flow(diamond, FlowResult(value=1.0, arc_flow=flow))

    def test_phantom_arc(self, diamond):
        flow = {(1, 2): 1.0}
        with pytest.raises(FlowError, match="non-existent"):
            validate_flow(diamond, FlowResult(value=0.0, arc_flow=flow))

    def test_out_of_range_arc(self, diamond):
        # Endpoints beyond n must not collide with real arcs through
        # the vectorized validator's flat key encoding.
        flow = {(1, 7): 1.0}
        with pytest.raises(FlowError, match="non-existent"):
            validate_flow(diamond, FlowResult(value=0.0, arc_flow=flow))

    def test_wrong_value(self, diamond):
        flow = {(0, 1): 1.0, (1, 3): 1.0}
        with pytest.raises(FlowError, match="claimed value"):
            validate_flow(diamond, FlowResult(value=7.0, arc_flow=flow))

    def test_negative_flow(self, diamond):
        flow = {(0, 1): -1.0, (1, 3): -1.0}
        with pytest.raises(FlowError, match="negative flow"):
            validate_flow(diamond, FlowResult(value=-1.0, arc_flow=flow))
