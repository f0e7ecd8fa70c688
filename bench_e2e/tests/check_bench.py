"""The benchmark's own tests.

Run from the repository root (the file name keeps them out of the
package's test collection)::

    python -m pytest -q bench_e2e/tests/check_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.exceptions import FaultInjected  # noqa: E402
from repro.resilience.faults import FaultPlan, injecting  # noqa: E402

OFF = Tracer(enabled=False)
CATALOGUE = workloads.make_workloads(BENCH_DIR / ".work" / "unused")
#: metrics ``run.py`` adds to what the workload reports
RUN_END_TO_END = {"setup_s", "peak_rss_mb"}
RUN_PER_LAYER = {
    "import.repro_s",
    "datasets.load_s",
    "datasets.churn_gen_s",
    "trace.run_s",
    "trace.overhead_pct",
}


# -- percentile rule ---------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (200, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= metrics.TAIL_MIN_BEYOND - 1e-9


def _rep(samples: int) -> workloads.Rep:
    return workloads.Rep(
        rep_s=5.0,
        attempted=samples,
        values={
            "run_s": 1.0,
            "exact_s": 2.0,
            "rel_error": 0.01,
            "max_q": 6.0,
            "latencies": [0.001 * i for i in range(1, samples + 1)],
            "colors": 40,
            "ingest_s": 0.5,
            "arcs": 1000,
            "outofcore_s": 1.0,
        },
    )


@pytest.mark.parametrize("workload", CATALOGUE.values(), ids=CATALOGUE)
def test_latency_tail_is_p90_per_session_with_its_sample_count(workload):
    assert metrics.tail_percentile(workload.churn_updates) == 90.0
    reps = [_rep(100), _rep(100), _rep(100)]
    reps[1].values["latencies"] = [2 * s for s in reps[1].values["latencies"]]
    assert workload.session_metrics(reps[0])["update_p90_ms"] == pytest.approx(90.1)
    reported = workload.end_to_end(reps)
    assert reported["update_p90_ms"] == pytest.approx(90.1)  # the median
    assert workload.samples(reps) == {"update_latency_samples": [100, 100, 100]}
    with pytest.raises(RuntimeError):
        workload.session_metrics(_rep(99))


# -- metric names --------------------------------------------------------
@pytest.mark.parametrize(
    "name, ok",
    [
        ("run_s", True),
        ("core.ms_per_split", True),
        ("9lives", True),
        ("a" * 64, True),
        ("a" * 65, False),
        ("_hidden", False),
        (".dot", False),
        ("has space", False),
        ("per/slash", False),
        ("", False),
    ],
)
def test_name_rule(name, ok):
    assert metrics.valid_name(name) is ok


@pytest.mark.parametrize(
    "unit, ok",
    [("s", True), ("1/s", True), ("%", True), ("arcs/s", True),
     ("", False), ("x" * 17, False), ("m s", False)],
)
def test_unit_rule(unit, ok):
    assert metrics.valid_unit(unit) is ok


def test_catalogue_names_units_and_bounds_are_valid():
    names = [metric.name for metric in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert metrics.valid_name(metric.name), metric
        assert metrics.valid_unit(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in metrics.END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = metrics.CATALOGUE["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(metric.bound for metric in metrics.END_TO_END)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(CATALOGUE)
    for entry in spec["workloads"]:
        assert entry["why"] == CATALOGUE[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_render_rejects_undeclared_and_non_finite():
    assert metrics.render("run_s", 1.5) == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        metrics.render("run_seconds", 1.0)
    with pytest.raises(ValueError):
        metrics.render("run_s", math.nan)


# -- tracing ---------------------------------------------------------------
def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert first.parent == outer.id and second.parent == outer.id
    times = tracer.self_times()
    inner = (first.end - first.start) + (second.end - second.start)
    assert times["inner"] == pytest.approx(inner)
    assert times["outer"] == pytest.approx(outer.end - outer.start - inner)


def test_disabled_tracer_records_nothing():
    with OFF.span("anything"):
        pass
    assert OFF.spans == []


# -- small sessions ------------------------------------------------------------
class _Small:
    budgets = (4, 8, 16)
    churn_updates = 10
    store_nodes = 2_000
    store_out_degree = 4
    store_chunk_arcs = 2_000
    store_colors = 8


class SmallStereo(_Small, workloads.MaxflowStereo):
    scale = 0.01
    churn_scale = 0.01


class SmallSocial(_Small, workloads.CentralitySocial):
    scale = 0.005


SMALL_WORKLOADS = (SmallStereo, SmallSocial)


def _csr_arrays(graph):
    csr = graph.to_csr()
    return csr.indptr, csr.indices, csr.data


def _indices(problem) -> np.ndarray:
    """CSR column indices of a sweep problem (a graph or a network)."""
    return getattr(problem, "graph", problem).to_csr().indices


def test_rotation_keeps_the_problem_and_changes_the_arrays():
    base = workloads.load_graph("karate")
    edges = sorted(base.edges())
    one = workloads.rotate_nodes(base, 1)
    again = workloads.rotate_nodes(base, 1)
    other = workloads.rotate_nodes(base, 2)
    for a, b in zip(_csr_arrays(one), _csr_arrays(again)):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(one.to_csr().indices, other.to_csr().indices)
    for graph in (one, other):
        assert sorted(
            (min(u, v), max(u, v), w) for u, v, w in graph.edges()
        ) == sorted((min(u, v), max(u, v), w) for u, v, w in edges)


@pytest.mark.parametrize("cls", SMALL_WORKLOADS, ids=lambda c: c.name)
def test_every_workload_reports_every_metric(cls, tmp_path):
    workload = cls(tmp_path / "work")
    inputs = workload.setup(1, OFF)
    untraced = [workload.rep(inputs, OFF)]
    tracer = Tracer()
    traced = [workload.rep(inputs, tracer)]
    tracer.enabled = False
    # Pool the latencies to the sample count a real run has.
    untraced[0].values["latencies"] *= 10
    assert untraced[0].failed == traced[0].failed == 0
    end_to_end = workload.end_to_end(untraced)
    per_layer = workload.per_layer(traced, tracer.self_times())
    assert set(end_to_end) | RUN_END_TO_END == {m.name for m in metrics.END_TO_END}
    assert set(per_layer) | RUN_PER_LAYER == {m.name for m in metrics.PER_LAYER}
    for name, value in {**end_to_end, **per_layer}.items():
        assert math.isfinite(value), name
    # End-to-end metrics and layer times are never 0; the work counts of
    # so small a session may be.
    for name, value in end_to_end.items():
        assert value > 0.0, name
    for name, value in per_layer.items():
        assert value > 0.0 or not name.endswith("_s"), name
    workload.close()


@pytest.mark.parametrize("cls", SMALL_WORKLOADS, ids=lambda c: c.name)
def test_same_seed_same_quality_other_seed_other_inputs(cls, tmp_path):
    workload = cls(tmp_path / "work")
    first = workload.rep(workload.setup(1, OFF), OFF)
    second = workload.rep(workload.setup(1, OFF), OFF)
    assert first.failed == second.failed == 0
    for key in ("max_q", "rel_error", "colors", "arcs"):
        assert first.values[key] == second.values[key], key
    # The churn trace is replayed by label on every seed's rotation.
    one, again, two = (workload.setup(seed, OFF) for seed in (1, 1, 2))
    for _ in range(2):  # the same sequence of per-repetition orders
        np.testing.assert_array_equal(
            _indices(workload.problem_for_rep(one)),
            _indices(workload.problem_for_rep(again)),
        )
    assert not np.array_equal(
        _indices(workload.problem_for_rep(one)),
        _indices(workload.problem_for_rep(two)),
    )
    assert one.updates == two.updates
    assert not np.array_equal(
        one.churn_graph.to_csr().indices, two.churn_graph.to_csr().indices
    )
    workload.close()


def test_stereo_draws_a_new_rotation_for_each_repetition(tmp_path):
    workload = SmallStereo(tmp_path / "work")
    inputs = workload.setup(1, OFF)
    first, second = (workload.problem_for_rep(inputs) for _ in range(2))
    assert not np.array_equal(_indices(first), _indices(second))


def test_churn_trace_follows_seed_and_fixed_mix():
    graph = workloads.load_graph("epinions", scale=0.01)
    trace = workloads.churn_trace(graph, 5, 12, "IIDID")
    assert trace == workloads.churn_trace(graph, 5, 12, "IIDID")
    assert trace != workloads.churn_trace(graph, 6, 12, "IIDID")
    kinds = "".join("I" if u.kind == "insert" else "D" for u in trace)
    assert kinds == "IIDIDIIDIDII"


# -- out-of-core cleanup -------------------------------------------------------
def _leftovers(workload) -> list[str]:
    if not workload.work_dir.exists():
        return []
    return sorted(path.name for path in workload.work_dir.iterdir())


def test_store_phase_checks_and_cleans_up(tmp_path):
    workload = SmallSocial(tmp_path / "work")
    inputs = workload.setup(3, OFF)
    first, second = workloads.Rep(), workloads.Rep()
    workload.store_phase(inputs, OFF, first)
    workload.store_phase(inputs, OFF, second)
    assert first.attempted == 2 and first.failed == 0
    assert first.values["arcs"] == second.values["arcs"] > 0
    assert _leftovers(workload) == []
    workload.close()
    assert not workload.work_dir.exists()


def test_failed_ingest_leaves_no_store_or_journal(tmp_path):
    workload = SmallSocial(tmp_path / "work")
    inputs = workload.setup(3, OFF)
    plan = FaultPlan().on("edgestore.merge.chunk", occurrence=1)
    with injecting(plan), pytest.raises(FaultInjected):
        workload.store_phase(inputs, OFF, workloads.Rep())
    assert _leftovers(workload) == []


def test_failed_coloring_leaves_no_store(tmp_path, monkeypatch):
    workload = SmallSocial(tmp_path / "work")
    inputs = workload.setup(3, OFF)

    def broken(*args, **kwargs):
        raise RuntimeError("coloring failed")

    monkeypatch.setattr(workloads, "q_color", broken)
    with pytest.raises(RuntimeError):
        workload.store_phase(inputs, OFF, workloads.Rep())
    assert _leftovers(workload) == []


# -- the command -----------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"]
        + ["--workload", "maxflow-stereo", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
