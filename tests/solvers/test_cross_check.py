"""Property sweep: the arc-store solver core vs networkx.

The acceptance contract of the CSR-native solver core: on random
directed/undirected weighted graphs every max-flow algorithm must match
networkx's flow value, max-flow must equal min-cut, the min-cut source
side must be exactly the set reachable in networkx's residual network,
lifted lower-bound flows must validate on the original network, and
betweenness must match networkx's Brandes to 1e-9.
"""

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.flow import edmonds_karp

from repro.centrality.brandes import betweenness_centrality
from repro.flow.approx import lift_flow, reduced_network, color_flow_network
from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, max_flow, validate_flow
from repro.graphs.digraph import WeightedDiGraph

ALGORITHMS = ("edmonds_karp", "dinic", "push_relabel")


def random_flow_network(seed: int, n: int = 14, density: float = 0.3):
    generator = np.random.default_rng(seed)
    nx_graph = nx.gnp_random_graph(
        n, density, seed=int(generator.integers(10**6)), directed=True
    )
    graph = WeightedDiGraph(directed=True)
    for i in range(n):
        graph.add_node(i)
    for u, v in nx_graph.edges():
        capacity = float(generator.integers(1, 10))
        graph.add_edge(u, v, capacity)
        nx_graph[u][v]["capacity"] = capacity
    return FlowNetwork(graph, 0, n - 1), nx_graph


def random_weighted_graph(seed: int, n: int = 18, directed: bool = False):
    generator = np.random.default_rng(seed)
    nx_graph = nx.gnp_random_graph(n, 0.25, seed=seed, directed=directed)
    graph = WeightedDiGraph(directed=directed)
    for i in range(n):
        graph.add_node(i)
    for u, v in nx_graph.edges():
        weight = float(generator.integers(1, 7))
        graph.add_edge(u, v, weight)
        nx_graph[u][v]["weight"] = weight
    return graph, nx_graph


class TestMaxFlowCrossCheck:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_engines_agree_with_networkx(self, algorithm, seed):
        network, nx_graph = random_flow_network(seed)
        expected = nx.maximum_flow_value(nx_graph, 0, network.n_nodes - 1)
        result = max_flow(network, algorithm=algorithm)
        assert result.value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_arcstore_flow_is_valid(self, algorithm, seed):
        network, _ = random_flow_network(seed)
        result = max_flow(network, algorithm=algorithm)
        validate_flow(network, result)

    @pytest.mark.parametrize("seed", range(6))
    def test_undirected_engines_agree(self, seed):
        generator = np.random.default_rng(seed)
        nx_graph = nx.gnp_random_graph(12, 0.35, seed=seed)
        graph = WeightedDiGraph(directed=False)
        for i in range(12):
            graph.add_node(i)
        for u, v in nx_graph.edges():
            capacity = float(generator.integers(1, 8))
            graph.add_edge(u, v, capacity)
            nx_graph[u][v]["capacity"] = capacity
        network = FlowNetwork(graph, 0, 11)
        expected = nx.maximum_flow_value(nx_graph, 0, 11)
        for algorithm in ALGORITHMS:
            value = max_flow(network, algorithm=algorithm).value
            assert value == pytest.approx(expected, abs=1e-9), algorithm


class TestMinCutDuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_maxflow_equals_mincut_both_engines(self, seed):
        network, _ = random_flow_network(seed)
        flow_value = max_flow(network).value
        cut_value, source_side, cut_arcs = min_cut(network)
        assert cut_value == pytest.approx(flow_value, abs=1e-9)
        assert network.source_index in source_side
        assert network.sink_index not in source_side
        # Cut arcs all leave the source side.
        for u, v in cut_arcs:
            assert u in source_side and v not in source_side

    @pytest.mark.parametrize("seed", range(8))
    def test_engines_find_same_reachable_set(self, seed):
        """The source side is the minimal one: every maximum flow leaves
        the same set reachable from the source, so networkx's residual
        network must reach exactly the nodes our cut puts there."""
        network, nx_graph = random_flow_network(seed)
        _, source_side, _ = min_cut(network)
        residual = edmonds_karp(nx_graph, 0, network.n_nodes - 1)
        open_arcs = nx.DiGraph(
            (u, v)
            for u, v, attrs in residual.edges(data=True)
            if attrs["capacity"] - attrs["flow"] > 1e-12
        )
        open_arcs.add_node(0)
        assert source_side == nx.descendants(open_arcs, 0) | {0}


class TestLiftedFlowValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_lower_bound_lift_validates(self, seed):
        network, _ = random_flow_network(seed, n=12, density=0.4)
        coloring = color_flow_network(network, n_colors=6).coloring
        reduced = reduced_network(network, coloring, bound="lower")
        reduced_result = max_flow(reduced)
        lifted = lift_flow(network, coloring, reduced_result)
        validate_flow(network, lifted)
        assert lifted.value == pytest.approx(reduced_result.value, abs=1e-9)
        # Theorem 6: the lifted lower bound cannot exceed maxFlow(G).
        assert lifted.value <= max_flow(network).value + 1e-9


class TestBetweennessCrossCheck:
    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("seed", range(5))
    def test_engines_match_networkx(self, directed, seed):
        graph, nx_graph = random_weighted_graph(seed, directed=directed)
        reference = nx.betweenness_centrality(nx_graph, normalized=False)
        reference_vec = np.array([reference[i] for i in range(graph.n_nodes)])
        scores = betweenness_centrality(graph)
        assert np.allclose(scores, reference_vec, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_engines_match_networkx(self, seed):
        graph, nx_graph = random_weighted_graph(seed)
        reference = nx.betweenness_centrality(
            nx_graph, weight="weight", normalized=False
        )
        reference_vec = np.array([reference[i] for i in range(graph.n_nodes)])
        scores = betweenness_centrality(graph, weighted=True)
        assert np.allclose(scores, reference_vec, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_restricted_sources_agree(self, seed):
        """The pivot hook (sources + weights) is the weighted sum of
        networkx's single-source subset betweenness."""
        graph, nx_graph = random_weighted_graph(seed)
        sources = list(range(0, graph.n_nodes, 3))
        weights = [1.0 + 0.5 * i for i in range(len(sources))]
        scores = betweenness_centrality(
            graph, sources=sources, source_weights=weights
        )
        expected = np.zeros(graph.n_nodes)
        for source, weight in zip(sources, weights):
            subset = nx.betweenness_centrality_subset(
                nx_graph, [source], list(nx_graph), normalized=False
            )
            expected += weight * np.array(
                [subset[i] for i in range(graph.n_nodes)]
            )
        assert np.allclose(scores, expected, atol=1e-9)

    def test_normalized_agrees(self):
        graph, nx_graph = random_weighted_graph(1)
        reference = nx.betweenness_centrality(nx_graph, normalized=True)
        scores = betweenness_centrality(graph, normalized=True)
        assert np.allclose(
            scores,
            [reference[i] for i in range(graph.n_nodes)],
            atol=1e-9,
        )
