"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 bench_e2e/run.py --workload maxflow-stereo --seed 1 \
        --seconds 35 --trace 0

The run imports ``repro`` from ``src/``, generates the workload's inputs
from ``--seed``, repeats the workload's session for about
``--seconds``, checks every output, and prints each metric by name and
unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced repetitions
so that ``trace.overhead_pct`` compares the two inside one process.

Each result is also written, with a machine fingerprint and the run's
configuration, to ``bench_e2e/results/``; a traced run writes its spans
there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

#: setup repetitions; setup_s reports the median
SETUP_REPEATS = 3
#: no run measures past this many seconds, whatever --seconds says
HARD_CAP_S = 120.0


def pin_threads() -> None:
    """One process, one worker, and BLAS/OpenMP pools of one thread;
    must run before numpy is imported."""
    os.environ["REPRO_WORKERS"] = "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def child_import_s() -> float:
    """Import time of the workload modules (``repro`` and its layers)
    in a fresh interpreter, timed inside it."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "began = time.perf_counter()\n"
        "import workloads\n"
        "print(time.perf_counter() - began)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.core.backends import resolve_backend
    from repro.core.backends.executor import resolve_workers

    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": resolve_backend(None).name,
        "workers": resolve_workers(None),
    }


def measure(workload, inputs, seconds: float, trace: bool, tracer):
    """Repeat the workload's session for about ``seconds``.

    The workload's warm-up repetitions come first; they are checked but
    neither timed nor counted against ``seconds``.  A measured
    repetition starts only while at least half of the previous one still
    fits.  Traced runs interleave untraced and traced repetitions as
    U T T U U T T ..., so drift over the run affects both alike.
    """
    untraced, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = -workload.warmup_reps
    while True:
        is_traced = trace and index >= 0 and index % 4 in (1, 2)
        tracer.enabled = is_traced
        began = time.perf_counter()
        try:
            rep = workload.rep(inputs, tracer)
        except Exception:  # a crashed session counts as one failed operation
            traceback.print_exc()
            attempted += 1
            failed += 1
            rep = None
        finally:
            tracer.enabled = False
        index += 1
        if rep is not None:
            attempted += rep.attempted
            failed += rep.failed
            if index > 0:
                (traced if is_traced else untraced).append(rep)
        if index == 0:
            start = time.perf_counter()  # warm-up done: the clock starts
            continue
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - began
        measured = untraced and (traced or not trace)
        # Past the deadline, three attempts bound a run whose reps crash.
        if (measured or index >= 3) and elapsed + last / 2 >= seconds:
            break
        if elapsed >= HARD_CAP_S:
            break
    return untraced, traced, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    began = time.perf_counter()
    import workloads as workloads_mod  # imports repro and its layers

    import_s = time.perf_counter() - began
    from metrics import render
    from tracing import Tracer

    run_dir = WORK_DIR / f"run-{os.getpid()}"
    catalogue = workloads_mod.make_workloads(run_dir)
    workload = catalogue.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(catalogue)}",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer(enabled=False)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            tracer.enabled = bool(args.trace)
            began = time.perf_counter()
            inputs = workload.setup(args.seed, tracer)
            setup_times.append(time.perf_counter() - began)
        tracer.enabled = False
        untraced, traced, attempted, failed = measure(
            workload, inputs, args.seconds, bool(args.trace), tracer
        )
    finally:
        workload.close()
        try:
            WORK_DIR.rmdir()  # only if no other run is using it
        except OSError:
            pass
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        self_times = tracer.self_times()
        values = {"import.repro_s": import_s}
        for name in ("datasets.load", "datasets.churn_gen"):
            if name in self_times:
                values[f"{name}_s"] = self_times.pop(name) / SETUP_REPEATS
        values.update(workload.per_layer(traced, self_times))
        traced_run_s = median([rep.rep_s for rep in traced])
        untraced_run_s = median([rep.rep_s for rep in untraced])
        values["trace.run_s"] = traced_run_s
        values["trace.overhead_pct"] = (traced_run_s / untraced_run_s - 1.0) * 100.0
    else:
        # One in-process import is a single noisy sample: the median
        # takes it with fresh-interpreter imports.
        imports = [import_s] + [child_import_s() for _ in range(SETUP_REPEATS - 1)]
        values = {"setup_s": median(imports) + median(setup_times)}
        values.update(workload.end_to_end(untraced))
        values["peak_rss_mb"] = peak_rss_mb
    metrics = {name: render(name, value) for name, value in values.items()}

    record = {
        "workload": workload.name,
        "fingerprint": fingerprint(),
        "config": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_repeats": SETUP_REPEATS,
            "untraced_reps": len(untraced),
            "traced_reps": len(traced),
            **workload.samples(untraced),
        },
        "counters": workload.counters(traced) if args.trace else {},
        "sessions": [workload.session_metrics(rep) for rep in untraced],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_jsonl(RESULTS_DIR / f"{stem}.spans.jsonl")

    print(f"# fingerprint {json.dumps(record['fingerprint'])}")
    print(f"# config {json.dumps(record['config'])}")
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
