"""The two benchmark workloads (see README.md for why each exists).

Every workload runs the same session of four phases on its own graph
family, so that every run exercises every layer and reports every
metric:

1. **sweep** — one :func:`repro.pipeline.progressive_sweep` of the
   workload's task (upper-bound max-flow or pivot betweenness);
2. **exact** — the task's exact reference on the original graph, the
   answer the sweep's ``rel_error`` is measured against;
3. **churn** — single-edge updates through :class:`DynamicColoring`,
   each followed by a q-error read;
4. **store** — ingest a synthetic digraph into an edge store, verify
   it, open it memmapped and color it with :func:`q_color`.

Each workload generates its inputs from the workload seed in
:meth:`Workload.setup` and runs one repetition of the session, with
output checks, in :meth:`Workload.rep`.  A failed check never raises: it
counts the operation as failed.

Registry datasets are loaded at their registry instance; the workload
seed then rotates their node ids by a seeded offset (:func:`rotate_nodes`).
Each seed so gets different input arrays for the same problem.
Different generator seeds of the stereo stand-in differ 4x in
``rel_error`` at 256 colors, which no end-to-end bound could absorb;
a rotation keeps the exact answer and the memory locality of the
original order, which a full shuffle destroys (push-relabel runs 3.5x
slower on a shuffled stereo grid).
"""

from __future__ import annotations

import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from repro import DynamicColoring, WeightedDiGraph, max_q_err, q_color
from repro import obs
from repro.datasets import load_flow, load_graph, random_churn
from repro.exceptions import ColoringError, StoreError
from repro.flow.network import FlowNetwork
from repro.graphs.edgestore import (
    INGEST_SUFFIX,
    STAGING_SUFFIX,
    ingest_uniform_random,
    verify_store,
)
from repro.pipeline import (
    CentralityTask,
    ColoringCache,
    MaxFlowTask,
    progressive_sweep,
)

from metrics import tail_percentile
from tracing import TracedColoringCache, Tracer, trace_task

#: float slack for the q-error checks (sums patched incrementally)
Q_SLACK = 1e-6
#: the latency tail the manifest names (``update_p90_ms``)
TAIL = 90.0


@dataclass
class Inputs:
    """What :meth:`Workload.setup` builds from the seed."""

    problem: object  # the sweep's problem, node ids rotated
    churn_graph: WeightedDiGraph
    updates: list
    seed: int
    rng: np.random.Generator


@dataclass
class Rep:
    """One repetition of the session: timings, checks, observations."""

    rep_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def check(self, ok: bool, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations


def rotate_nodes(graph: WeightedDiGraph, seed) -> WeightedDiGraph:
    """``graph`` with node ``i`` moved to index ``(i + offset) mod n``,
    the offset drawn from ``seed`` (an int or a Generator); labels and
    weights are unchanged."""
    n = graph.n_nodes
    offset = int(np.random.default_rng(seed).integers(1, n))
    coo = graph.to_csr().tocoo()
    row, col, data = coo.row, coo.col, coo.data
    if not graph.directed:
        keep = row <= col  # from_arrays takes each undirected edge once
        row, col, data = row[keep], col[keep], data[keep]
    labels = graph.labels()
    return WeightedDiGraph.from_arrays(
        (row + offset) % n,
        (col + offset) % n,
        data,
        n_nodes=n,
        directed=graph.directed,
        labels=labels[n - offset:] + labels[: n - offset],
    )


def churn_trace(graph: WeightedDiGraph, seed, n_updates: int, pattern: str):
    """Seeded random churn with the insert/delete mix fixed by ``pattern``.

    Inserts are drawn among the graph's non-edges and deletes among its
    edges, so the two streams never touch the same pair and any
    interleaving of them is a valid trace.
    """
    kinds = (pattern * n_updates)[:n_updates]
    rng = np.random.default_rng(seed)
    streams = {
        kind: iter(
            random_churn(
                graph,
                kinds.count(kind),
                seed=rng,
                insert_fraction=1.0 if kind == "I" else 0.0,
            )
        )
        for kind in "ID"
    }
    return [next(streams[kind]) for kind in kinds]


def _recording(tracer: Tracer):
    """The ``repro.obs`` counters, switched on for traced reps only."""
    return obs.recording() if tracer.enabled else nullcontext()


def _add_counters(rep: Rep, phase: str, recorder) -> None:
    if recorder is None:
        return
    for name, value in recorder.snapshot()["counters"].items():
        key = f"{phase}.{name}"
        rep.counters[key] = rep.counters.get(key, 0) + value


def _mean(reps: list[Rep], *keys: str) -> float:
    """Mean over ``reps`` of the summed counters ``keys``."""
    return sum(rep.counters.get(key, 0) for rep in reps for key in keys) / len(reps)


class Workload:
    name = ""
    why = ""
    budgets: tuple[int, ...] = ()
    #: untimed repetitions before the measured ones: the first sweep of
    #: a process runs up to 40% slower
    warmup_reps = 1
    #: the churn trace repeats insert, insert, delete, insert, delete —
    #: the 60/40 mix of ``random_churn``, but fixed: a delete costs many
    #: inserts (it runs up to 64 merge tests), so a drawn mix would
    #: spread ``updates_per_s`` by the binomial spread of the delete count
    churn_pattern = "IIDID"
    churn_updates = 100
    #: the trace is drawn once, on the unrotated graph, and replayed by
    #: label on every seed's rotation: the dynamic coloring is the same
    #: under rotation, while drawn traces moved the final color count
    #: 71..90 and the median latency 30% on the stereo churn graph
    churn_seed = 0
    q_tolerance = 8.0
    #: the store phase: a uniform digraph ingested in several spilled runs
    store_nodes = 50_000
    store_out_degree = 8
    store_chunk_arcs = 100_000
    store_colors = 32
    #: benchmark-side spans whose self time per rep is a per-layer metric
    layer_spans = (
        "graphs.ingest",
        "graphs.verify",
        "graphs.open",
        "core.color",
        "core.store_color",
        "pipeline.spec",
        "pipeline.reduce",
        "pipeline.lift",
        "solvers.reduced_solve",
        "solvers.exact",
        "dynamic.seed",
        "dynamic.apply",
        "dynamic.read",
    )

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = Path(work_dir)
        self.store = self.work_dir / "store"

    # -- the workload's own parts --------------------------------------
    def load(self):
        """The sweep's problem and the churn graph, unrotated."""
        raise NotImplementedError

    def rotate_problem(self, problem, seed):
        return rotate_nodes(problem, seed)

    def make_task(self, problem, rng: np.random.Generator):
        raise NotImplementedError

    def problem_for_rep(self, inputs: Inputs):
        return inputs.problem

    def check_sweep(self, results, exact, problem, rep: Rep) -> None:
        raise NotImplementedError

    # -- the session ------------------------------------------------------
    def setup(self, seed: int, tracer: Tracer) -> Inputs:
        with tracer.span("datasets.load"):
            problem, churn_graph = self.load()
        with tracer.span("datasets.churn_gen"):
            updates = churn_trace(
                churn_graph, self.churn_seed, self.churn_updates, self.churn_pattern
            )
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return Inputs(
            problem=self.rotate_problem(problem, seed),
            churn_graph=rotate_nodes(churn_graph, seed),  # labels are kept
            updates=updates,
            seed=seed,
            rng=np.random.default_rng(seed),
        )

    def rep(self, inputs: Inputs, tracer: Tracer) -> Rep:
        rep = Rep()
        began = time.perf_counter()
        self.sweep_phase(inputs, tracer, rep)
        self.churn_phase(inputs, tracer, rep)
        self.store_phase(inputs, tracer, rep)
        rep.rep_s = time.perf_counter() - began
        return rep

    def sweep_phase(self, inputs: Inputs, tracer: Tracer, rep: Rep) -> None:
        problem = self.problem_for_rep(inputs)
        task = self.make_task(problem, inputs.rng)
        cache = ColoringCache()
        if tracer.enabled:
            trace_task(task, tracer)
            cache = TracedColoringCache(tracer)
        with _recording(tracer) as rec:
            start = time.perf_counter()
            with tracer.span("pipeline.sweep"):
                results = progressive_sweep(task, self.budgets, cache=cache)
            rep.values["run_s"] = time.perf_counter() - start
        _add_counters(rep, "sweep", rec)
        with _recording(tracer) as rec:
            start = time.perf_counter()
            with tracer.span("solvers.exact"):
                exact = task.exact_reference()
            rep.values["exact_s"] = time.perf_counter() - start
        _add_counters(rep, "exact", rec)
        last = results[-1]
        rep.values["rel_error"] = task.certified_error(exact, last)
        rep.values["max_q"] = last.max_q_err
        self.check_sweep(results, exact, problem, rep)
        # The last checkpoint's q-error must match a from-scratch recount.
        graph = getattr(problem, "graph", problem)
        recomputed = max_q_err(graph.to_csr(), last.coloring)
        rep.check(abs(recomputed - last.max_q_err) <= Q_SLACK)

    def churn_phase(self, inputs: Inputs, tracer: Tracer, rep: Rep) -> None:
        graph = inputs.churn_graph.copy()  # each pass starts afresh
        latencies = []
        failed = 0
        with tracer.span("dynamic.seed"):
            dynamic = DynamicColoring(graph, q_tolerance=self.q_tolerance)
        try:
            for update in inputs.updates:
                began = time.perf_counter()
                with tracer.span("dynamic.apply"):
                    dynamic.apply(update)
                with tracer.span("dynamic.read"):
                    read = dynamic.max_q_err()
                latencies.append(time.perf_counter() - began)
                if not read <= self.q_tolerance + Q_SLACK:
                    failed += 1
            achieved = max_q_err(graph.to_csr(), dynamic.snapshot())
            try:
                dynamic.verify_consistency()
                consistent = True
            except ColoringError:
                consistent = False
        finally:
            dynamic.detach()
        if not (achieved <= self.q_tolerance + Q_SLACK and consistent):
            failed = len(inputs.updates)  # the final state vouches for all
        rep.attempted += len(inputs.updates)
        rep.failed += failed
        rep.values["latencies"] = latencies
        rep.values["colors"] = dynamic.k
        stats = dynamic.stats
        for key in ("splits", "merges", "rebuilds", "pairs_checked"):
            rep.counters[f"dynamic.{key}"] = getattr(stats, key)

    def _remove_store(self) -> None:
        for path in (
            self.store,
            self.store.with_name(self.store.name + INGEST_SUFFIX),
            self.store.with_name(self.store.name + STAGING_SUFFIX),
        ):
            shutil.rmtree(path, ignore_errors=True)

    def store_phase(self, inputs: Inputs, tracer: Tracer, rep: Rep) -> None:
        try:
            with _recording(tracer) as rec:
                start = time.perf_counter()
                with tracer.span("graphs.ingest"):
                    store = ingest_uniform_random(
                        self.store,
                        self.store_nodes,
                        self.store_out_degree,
                        seed=inputs.seed,
                        chunk_arcs=self.store_chunk_arcs,
                        overwrite=True,
                    )
                ingest_s = time.perf_counter() - start
                with tracer.span("graphs.verify"):
                    try:
                        verify_store(self.store)
                        verified = True
                    except StoreError:
                        verified = False
                with tracer.span("graphs.open"):
                    graph = WeightedDiGraph.from_edgestore(self.store)
                with tracer.span("core.store_color"):
                    result = q_color(graph, n_colors=self.store_colors)
                rep.values["outofcore_s"] = time.perf_counter() - start
            _add_counters(rep, "store", rec)
        finally:
            self._remove_store()
        labels = result.coloring.labels
        rep.check(verified)
        rep.check(
            labels.size == self.store_nodes
            and bool(np.all(labels >= 0))
            and result.n_colors == self.store_colors
        )
        rep.values["ingest_s"] = ingest_s
        rep.values["arcs"] = store.n_arcs

    # -- reporting ------------------------------------------------------------
    def session_metrics(self, rep: Rep) -> dict[str, float]:
        """One session's end-to-end figures; its update latencies give
        their own percentiles."""
        latencies = rep.values["latencies"]
        if tail_percentile(len(latencies)) != TAIL:
            raise RuntimeError(
                f"{len(latencies)} latency samples give no p{TAIL:g}"
            )
        p50, p90 = np.percentile(latencies, [50.0, TAIL]) * 1e3
        values = rep.values
        return {
            "run_s": values["run_s"],
            "exact_s": values["exact_s"],
            "rel_error": values["rel_error"],
            "max_q": values["max_q"],
            "update_p50_ms": float(p50),
            "update_p90_ms": float(p90),
            "updates_per_s": len(latencies) / math.fsum(latencies),
            "colors": float(values["colors"]),
            "ingest_arcs_per_s": values["arcs"] / values["ingest_s"],
            "outofcore_s": values["outofcore_s"],
        }

    def end_to_end(self, reps: list[Rep]) -> dict[str, float]:
        """Metrics beyond ``setup_s``/``peak_rss_mb``: the median over
        the untraced sessions of each session's figure."""
        sessions = [self.session_metrics(rep) for rep in reps]
        return {
            name: median([session[name] for session in sessions])
            for name in sessions[0]
        }

    def per_layer(self, reps: list[Rep], self_times: dict) -> dict:
        """Layer metrics from traced reps, per rep; ``self_times`` holds
        each span name's self time summed over the traced reps."""
        n = len(reps)
        layers = {
            f"{name}_s": self_times.get(name, 0.0) / n for name in self.layer_spans
        }
        splits = _mean(reps, "sweep.rothko.splits", "store.rothko.splits")
        layers["graphs.ingest_arcs"] = reps[-1].values["arcs"]
        layers["core.splits"] = splits
        layers["core.kernel_cells"] = _mean(
            reps, "sweep.kernels.bincount_cells", "store.kernels.bincount_cells"
        )
        layers["core.ms_per_split"] = (
            (layers["core.color_s"] + layers["core.store_color_s"]) * 1e3 / splits
        )
        layers["dynamic.splits"] = _mean(reps, "dynamic.splits")
        layers["dynamic.merges"] = _mean(reps, "dynamic.merges")
        layers["dynamic.pairs_checked"] = _mean(reps, "dynamic.pairs_checked")
        return layers

    def counters(self, reps: list[Rep]) -> dict:
        """Every counter of the traced reps, per rep (for the record)."""
        names = sorted({name for rep in reps for name in rep.counters})
        return {name: _mean(reps, name) for name in names}

    def samples(self, reps: list[Rep]) -> dict:
        """Sample counts behind the reported percentiles."""
        return {
            "update_latency_samples": [len(rep.values["latencies"]) for rep in reps]
        }

    def close(self) -> None:
        """Release anything the workload left on disk."""
        self._remove_store()
        shutil.rmtree(self.work_dir, ignore_errors=True)


class MaxflowStereo(Workload):
    name = "maxflow-stereo"
    why = (
        "stereo grid: upper-bound max-flow sweep 16..256 vs exact "
        "push-relabel, churn on a small stereo grid, store ingest+color; "
        "coloring-bound sweep"
    )
    dataset = "tsukuba0"
    scale = 0.25
    churn_scale = 0.03
    budgets = (16, 32, 64, 128, 256)

    def load(self):
        network = load_flow(self.dataset, scale=self.scale)
        churn = load_flow(self.dataset, scale=self.churn_scale).graph
        return network, churn

    def rotate_problem(self, network, seed):
        return network  # each rep draws its own rotation

    def problem_for_rep(self, inputs) -> FlowNetwork:
        """The next node order of the run's seeded sequence.

        Each repetition draws a new rotation: push-relabel's work depends
        on the order (118k to 180k pushes across rotations), so medians
        over several orders keep ``exact_s`` off a single draw.
        """
        network = inputs.problem
        return FlowNetwork(
            rotate_nodes(network.graph, inputs.rng), network.source, network.sink
        )

    def make_task(self, network, rng):
        return MaxFlowTask(network, bound="upper")

    def check_sweep(self, results, exact, network, rep):
        # Every checkpoint must bound the exact value from above (Thm 6).
        for result in results:
            rep.check(result.value >= exact * (1.0 - 1e-12))
        rep.check(math.isfinite(exact) and exact > 0.0)


class CentralitySocial(Workload):
    name = "centrality-social"
    why = (
        "social graph: pivot-betweenness sweep 32..256 vs exact Brandes, "
        "churn on the same graph, store ingest+color; solver-bound sweep"
    )
    dataset = "epinions"
    scale = 0.03
    budgets = (32, 64, 128, 256)

    def load(self):
        graph = load_graph(self.dataset, scale=self.scale)
        return graph, graph

    def make_task(self, graph, rng):
        """Each repetition draws new pivots from the run's seeded
        sequence: the error of one draw moved 0.27..0.30 across seeds, so
        the median over several draws keeps ``rel_error`` off one draw."""
        return CentralityTask(graph, seed=int(rng.integers(2**31)))

    def check_sweep(self, results, exact, graph, rep):
        for result in results:
            scores = np.asarray(result.lifted)
            rep.check(bool(np.all(np.isfinite(scores)) and np.all(scores >= 0.0)))
        rep.check(bool(np.all(np.isfinite(exact)) and np.all(exact >= 0.0)))


def make_workloads(work_dir: Path) -> dict[str, Workload]:
    workloads = (MaxflowStereo(work_dir), CentralitySocial(work_dir))
    return {workload.name: workload for workload in workloads}
