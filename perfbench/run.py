"""Benchmark of the JABA-SD reproduction: three workloads, one single-threaded process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-quick --seed 2001 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs the same work untraced and then traced, and prints the per-layer
metrics; the spans go to ``.perfbench-out/``.  The last line of standard
output is the result; the line before it records the environment and the
measured times before the gauge scaled them (``perfbench/gauge.py``).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 2001
#: Seed kept out of tuning; later claims are re-checked on it.
HELD_OUT_SEED = 4242
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("paper-quick", "fleet-20k", "admission-heavy")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else None


def _environment(seed: int) -> dict:
    import hashlib
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as source:
                digest.update(name.encode() + source.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _commit():
    """The checked-out commit when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(git, ref[5:]), encoding="utf-8") as target:
            return target.read().strip()
    except OSError:
        return None


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            started: float, spans_dir=None, workload=None):
    """Run one workload; return (result, diagnostics) as printed by :func:`main`."""
    import gc
    import resource
    import statistics

    from perfbench import tracer as tracing
    from perfbench.gauge import Gauge
    from perfbench.workloads import WORKLOADS

    imported = time.perf_counter()
    workload = workload or WORKLOADS[workload_name](seed, seconds)
    setup_gauge, builds, state = Gauge(), [], None
    setup_gauge.sample(force=True)
    for _ in range(SETUP_REPEATS):
        # Free the previous build first, so the peak holds one build plus the run.
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.prepare()
        builds.append((start, time.perf_counter()))
        setup_gauge.sample(force=True)
    untraced = workload.execute(state)
    del state
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(untraced.problems)
    # End-to-end times as measured (diagnostics) and scaled to the gauge's speed (metrics).
    times = {}
    for kind, setup_scale, scale in (
        ("measured", lambda a, b: b - a, lambda a, b: b - a),
        ("scaled", setup_gauge.scaled, untraced.gauge.scaled),
    ):
        frame_ms = [1e3 * scale(a, b) for a, b in untraced.frames]
        decision_ms = [1e3 * scale(a, b) for a, b in untraced.decisions]
        times[kind] = {
            "setup_s": setup_scale(started, imported)
            + statistics.median(setup_scale(a, b) for a, b in builds),
            "wall_s": sum(scale(a, b) for a, b in untraced.measured),
            "frame_ms_p50": _percentile(frame_ms, 50),
            "frame_ms_p90": _percentile(frame_ms, 90),
            "decision_ms_p50": _percentile(decision_ms, 50),
            "decision_ms_p90": _percentile(decision_ms, 90),
        }
    loop_ms = untraced.gauge.loop_ms()
    diagnostics = {
        "workload": workload.name, "seconds": seconds, "cpu_s": untraced.cpu_s,
        "section_s": untraced.total_s, "measured": times["measured"],
        "import_s": imported - started, "setup_builds_s": [b - a for a, b in builds],
        "frames_timed": len(untraced.frames), "decisions_timed": len(untraced.decisions),
        "gauge_samples": len(loop_ms),
        "gauge_loop_ms_quartiles": statistics.quantiles(loop_ms, n=4) if len(loop_ms) > 1
        else loop_ms,
        **untraced.extra,
    }
    if trace:
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches)
        try:
            traced = workload.execute(workload.prepare(), tracer)
        finally:
            patches.restore()
        problems += traced.problems
        if traced.outputs != untraced.outputs:
            problems.append("traced outputs differ from the untraced run")
        # Both walls scaled by their own gauge, so the overhead leaves out the machine's phases.
        metrics = tracing.layer_metrics(
            tracer, traced.units, traced.gauge.scaled(traced.start, traced.end),
            untraced.gauge.scaled(untraced.start, untraced.end), untraced.cpu_s,
        )
        if spans_dir is not None:
            os.makedirs(spans_dir, exist_ok=True)
            tracer.write(os.path.join(spans_dir, f"{workload.name}-seed{seed}.spans.jsonl"))
        diagnostics["traced_section_s"] = traced.total_s
        diagnostics["missing_traced_calls"] = patches.missing
        diagnostics["self_time_sum_s"] = sum(tracing.self_time_partition(tracer).values())
    else:
        scaled = times["scaled"]
        attempted = max(untraced.attempted, 1)
        metrics = {
            "setup_s": (scaled["setup_s"], "s"),
            "wall_s": (scaled["wall_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            **{name: (scaled[name], "ms") for name in (
                "frame_ms_p50", "frame_ms_p90", "decision_ms_p50", "decision_ms_p90")},
            "completed_fraction": ((attempted - untraced.failed) / attempted, "1"),
        }
    diagnostics["problems"] = {"count": len(problems), "first": problems[:5]}
    result = {
        "correct": not problems and untraced.failed == 0,
        "attempted": max(untraced.attempted, 1),
        "failed": untraced.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One thread: pin the BLAS/OpenMP pools before NumPy loads.
    os.environ.update({variable: "1" for variable in THREAD_VARIABLES})
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import json

    result, diagnostics = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), _STARTED,
        spans_dir=os.path.join(ROOT, ".perfbench-out"),
    )
    print(json.dumps({"env": _environment(args.seed), "diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
