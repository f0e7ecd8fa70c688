"""Exact solver core timings on the paper's baseline workloads.

Two mid-size workloads:

* exact Dinic max-flow on the ``tsukuba0`` stereo instance — the
  vectorized level BFS plus the compacted level-graph DFS;
* exact Brandes betweenness on the ``deezer`` social graph — the
  frontier-batched multi-lane BFS with per-level sigma/dependency
  scatters.

``test_dinic_solve`` / ``test_brandes_betweenness`` record their
medians in ``benchmarks/results/bench_solver_core.json`` (via
``run_benchmarks.py --json``).  Correctness is held by the networkx
cross-checks in ``tests/solvers/test_cross_check.py``.
"""

from __future__ import annotations

from repro.centrality.brandes import betweenness_centrality
from repro.datasets.registry import load_flow, load_graph
from repro.flow.network import max_flow

from _bench_utils import run_once, scale_factor

FLOW_SCALE = 0.2
CENTRALITY_SCALE = 0.06


def _flow_network():
    return load_flow("tsukuba0", scale=scale_factor(FLOW_SCALE))


def _graph():
    return load_graph("deezer", scale=scale_factor(CENTRALITY_SCALE))


def _solve_dinic(network):
    return max_flow(network, algorithm="dinic")


def test_dinic_solve(benchmark):
    network = _flow_network()
    _solve_dinic(network)  # warm dataset + arc-store caches
    result = run_once(benchmark, _solve_dinic, network)
    assert result.value > 0


def test_brandes_betweenness(benchmark):
    graph = _graph()
    result = run_once(benchmark, betweenness_centrality, graph)
    assert result.max() > 0
