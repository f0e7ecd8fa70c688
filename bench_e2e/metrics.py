"""The benchmark's metric catalogue and the statistics it reports with.

Every metric a run may print is declared here once, with its unit and
direction; ``BENCHMARK.json`` at the repository root repeats the same
names (``tests/check_bench.py`` keeps the two in step).  Every workload
prints every end-to-end metric in an untraced run and every per-layer
metric in a traced one.  End-to-end metrics
carry the bound by which a change may worsen them; per-layer metrics
are reported without one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

#: name rule: starts with a letter or digit, at most 64 of [A-Za-z0-9_.-]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: unit rule: at most 16 of [A-Za-z0-9_/%.-]
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: percentiles the tail rule may choose from, highest first
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("exact_s", "s", "lower", 0.25),
    Metric("rel_error", "ratio", "lower", 0.1),
    Metric("max_q", "q", "lower", 0.1),
    Metric("update_p50_ms", "ms", "lower", 0.25),
    Metric("update_p90_ms", "ms", "lower", 0.25),
    Metric("updates_per_s", "1/s", "higher", 0.25),
    Metric("colors", "count", "lower", 0.1),
    Metric("ingest_arcs_per_s", "arcs/s", "higher", 0.25),
    Metric("outofcore_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("import.repro_s", "s", "lower"),
    Metric("datasets.load_s", "s", "lower"),
    Metric("datasets.churn_gen_s", "s", "lower"),
    Metric("graphs.ingest_s", "s", "lower"),
    Metric("graphs.ingest_arcs", "arcs", "higher"),
    Metric("graphs.verify_s", "s", "lower"),
    Metric("graphs.open_s", "s", "lower"),
    Metric("core.color_s", "s", "lower"),
    Metric("core.store_color_s", "s", "lower"),
    Metric("core.splits", "count", "lower"),
    Metric("core.ms_per_split", "ms", "lower"),
    Metric("core.kernel_cells", "count", "lower"),
    Metric("pipeline.spec_s", "s", "lower"),
    Metric("pipeline.reduce_s", "s", "lower"),
    Metric("pipeline.lift_s", "s", "lower"),
    Metric("solvers.reduced_solve_s", "s", "lower"),
    Metric("solvers.exact_s", "s", "lower"),
    Metric("dynamic.seed_s", "s", "lower"),
    Metric("dynamic.apply_s", "s", "lower"),
    Metric("dynamic.read_s", "s", "lower"),
    Metric("dynamic.splits", "count", "lower"),
    Metric("dynamic.merges", "count", "lower"),
    Metric("dynamic.pairs_checked", "count", "lower"),
    Metric("trace.run_s", "s", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
)

CATALOGUE = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def valid_name(name: str) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def tail_percentile(n_samples: int) -> float | None:
    """The highest candidate percentile with at least
    ``TAIL_MIN_BEYOND`` of ``n_samples`` lying beyond it, or ``None``
    when even the median has too few."""
    for percentile in TAIL_CANDIDATES:
        if n_samples * (1.0 - percentile / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return percentile
    return None


def render(name: str, value: float) -> dict:
    """One ``metrics`` entry of the result line, checked against the
    catalogue so a typo'd or undeclared metric fails the run."""
    metric = CATALOGUE.get(name)
    if metric is None or not valid_name(name) or not valid_unit(metric.unit):
        raise ValueError(f"undeclared or invalid metric {name!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric {name} is not finite: {value}")
    return {"value": value, "unit": metric.unit}
