"""Workload process, launched by ``run.py``.

Usage: ``python worker.py --workload W --seed N --seconds S --trace 0|1
[--setup-only]``, from the checkout root with ``src`` on ``PYTHONPATH``.

Set-up imports kipa (timed), generates the seeded inputs under
``perfbench/work/<workload>`` and computes the references the checks need;
then the worker prints one JSON line holding the ``time.perf_counter()``
reading at which its first timed operation starts (CLOCK_MONOTONIC, the
same clock in every process). Unless ``--setup-only``, it then runs the
closed loop -- one client, each operation after the previous one ends --
for ``--seconds`` and at least one pass over the workload's input pool,
checks every operation's outputs, and prints one JSON result line.

With ``--trace 1`` every operation runs twice, traced and untraced in
alternating order; the per-layer metrics come from the traced runs and
the ratio of the two totals gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_mix", "design_sweep", "calibration")


def percentile(values, q):
    """Linear-interpolated percentile, ``q`` in (0, 100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def make_workload(name, seed, workdir, spans_path):
    if name == "cli_mix":
        from wl_cli_mix import CliMix
        return CliMix(seed, workdir, ROOT, spans_path)
    if name == "design_sweep":
        from wl_design_sweep import DesignSweep
        return DesignSweep(seed, workdir)
    from wl_calibration import Calibration
    return Calibration(seed, workdir)


def measure(wl, seconds, trace, control_cmd):
    """Closed loop over ``wl.pool``; returns the run's statistics."""
    pool = wl.pool
    tracer = tracing.Tracer() if trace else None
    modules = tracing.layer_modules() if trace and wl.in_process else None
    latencies, cpu_untraced, controls = [], [], []
    mode_ms = {False: 0.0, True: 0.0}  # total operation time untraced / traced
    canonical = {}
    errors = []
    attempted = failed = exits_nonzero = traced_ops = 0
    rss_kb = 0
    check_stats = {}
    control_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(pool) or time.perf_counter() < deadline:
        if i % wl.control_every == 0:
            c0 = time.perf_counter()
            subprocess.run(control_cmd, check=True)
            controls.append(time.perf_counter() - c0)
            control_s += controls[-1]
        entry = pool[i % len(pool)]
        # a traced run executes every operation both ways, in alternating
        # order, so that the tracing overhead is measured on equal inputs
        for traced in ((i % 2 == 0, i % 2 == 1) if trace else (False,)):
            attempted += 1
            if traced:
                traced_ops += 1
                tracer.op = attempted
                root = tracer.open("bench.op")
                if modules:
                    tracer.install(modules)
            exc = None
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result, info = wl.run(entry, tracer if traced else None)
            except Exception as e:  # a failed operation counts, it is not retried
                exc, info = e, {}
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            cpu_ms = info.get("cpu_ms", (time.process_time() - cpu0) * 1e3)
            if traced:
                if modules:
                    tracer.uninstall()
                tracer.close(root, error=exc is not None)
                tracer.op = None
            else:
                cpu_untraced.append(cpu_ms)
            latencies.append(elapsed_ms)
            mode_ms[traced] += elapsed_ms
            rss_kb = max(rss_kb, info.get("rss_kb", 0))
            exits_nonzero += info.get("exit", 0) != 0
            if exc is not None:
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                problems, text, stats = wl.check(entry, result)
                for key, value in stats.items():
                    check_stats[key] = max(check_stats.get(key, 0.0), value)
                if text is not None and canonical.setdefault(entry["id"], text) != text:
                    problems.append("output differs from an earlier run of the same input")
            if problems:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"op {attempted} ({entry['id']}): " + "; ".join(problems))
        i += 1
    timed_s = time.perf_counter() - start - control_s

    digest = hashlib.sha256()
    for entry in pool:
        digest.update(f"{entry['id']}\n{canonical.get(entry['id'])}\n".encode("utf-8"))
    if not rss_kb:  # in-process workloads: this process
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digest.hexdigest(),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 90),
        "ops_per_s": (attempted - failed) / timed_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "startup.python_ms": statistics.median(controls) * 1e3,
        "proc.cpu_ms_p50": statistics.median(cpu_untraced) if cpu_untraced else 0.0,
        "cli.exit_nonzero": exits_nonzero,
        "check_stats": check_stats,
    }
    if trace:
        out["trace.overhead_frac"] = mode_ms[True] / mode_ms[False] - 1.0
        out["per_layer"] = tracing.summarize(tracer.spans, traced_ops)
        out["import_samples_ms"] = [(s[tracing.END] - s[tracing.START]) * 1e3
                                    for s in tracer.spans if s[tracing.NAME] == "import.kipa"]
        out["tracer"] = tracer
    return out


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    before = len(sys.modules)
    t0 = time.perf_counter()
    import kipa  # noqa: F401  (the timed import)
    import_ms = (time.perf_counter() - t0) * 1e3
    modules = len(sys.modules) - before
    scipy = sum(1 for name in sys.modules if name.split(".", 1)[0] == "scipy")

    workdir = HERE / "work" / args.workload
    spans_path = workdir / "child_spans.json"
    wl = make_workload(args.workload, args.seed, workdir, spans_path)
    ready = time.perf_counter()
    print(json.dumps({
        "ready": ready, "import_ms": import_ms, "modules_loaded": modules,
        "scipy_loaded": scipy, "numpy": _version("numpy"),
        "scipy": _version("scipy"), "pool": len(wl.pool),
    }), flush=True)
    if args.setup_only:
        return 0
    result = measure(wl, args.seconds, args.trace,
                     [sys.executable, "-c", "pass"])
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.dump(workdir / "spans.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
