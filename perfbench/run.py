"""kipa benchmark: one command runs one seeded workload against ``src/``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli_mix|design_sweep|calibration \\
        --seed N --seconds S --trace 0|1

The set-up (interpreter start, ``import kipa``, generating and writing the
seeded inputs, computing check references) runs ``SETUPS`` times in fresh
worker processes; ``setup_s`` is the median time from launch to the first
timed operation. The last launch then measures the closed loop for
``--seconds`` (see ``worker.py``). With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics. Every metric is printed by name with its unit, followed by one
JSON record with provenance and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.

The benchmark and every process it starts get ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1. At most one child
process runs at a time. Exits 2 when the checkout holds no ``src/kipa``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_GRACE_S = 150.0


def worker_env():
    env = dict(os.environ, KIPA_LOG="quiet")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, setup_only, env):
    """Start one worker; returns (process, setup seconds, ready record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise RuntimeError(f"worker exited {proc.returncode} during set-up")
    ready = json.loads(line)
    return proc, ready["ready"] - start, ready


def finish(proc, timeout):
    """Read the worker's last line and wait for it to end."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def cache_sizes():
    """Cache level -> size string of CPU 0, from sysfs where it exists."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def provenance(ready):
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": ready["numpy"],
        "scipy": ready["scipy"],
        "nproc": os.cpu_count(),
        "caches": cache_sizes(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="kipa benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("cli_mix", "design_sweep", "calibration"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kipa" / "__init__.py").is_file():
        print(f"perfbench: no kipa source tree at {ROOT / 'src' / 'kipa'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.update({name: "1" for name in THREAD_VARS})
    env = worker_env()

    setups, readies = [], []
    try:
        for _ in range(SETUPS - 1):
            proc, setup_s, ready = launch(args, True, env)
            finish(proc, WORKER_GRACE_S)
            setups.append(setup_s)
            readies.append(ready)
        proc, setup_s, ready = launch(args, False, env)
        setups.append(setup_s)
        readies.append(ready)
        result = finish(proc, args.seconds + WORKER_GRACE_S)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = {
        "setup_s": statistics.median(setups),
        **{key: result[key] for key in ("op_p50_ms", "op_p90_ms", "ops_per_s",
                                        "peak_rss_mb")},
    }
    if args.trace:
        checks = result["check_stats"]
        values.update(result["per_layer"])
        values.update({
            "import.kipa_ms": statistics.median(
                [r["import_ms"] for r in readies] + result["import_samples_ms"]),
            "import.modules_loaded": ready["modules_loaded"],
            "import.scipy_loaded": ready["scipy_loaded"],
            "oracle.rk4_rel_err": checks.get("rk4_rel_err", 0.0),
            "calfit.recovery_max_rel_err": checks.get("recovery_max_rel_err", 0.0),
        })
        for key in ("startup.python_ms", "proc.cpu_ms_p50", "cli.exit_nonzero",
                    "trace.overhead_frac"):
            values[key] = result[key]
    metrics = {}
    for item in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[item["name"]] = {"value": values[item["name"]], "unit": item["unit"]}

    error_rate = result["failed"] / result["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']!r} {metric['unit']}")
    print(f"  {'error_rate':<44} {error_rate!r} 1")
    for line in result["errors"]:
        print(f"  failure: {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s_samples": setups, "error_rate": error_rate,
        "startup_python_ms": result["startup.python_ms"],
        "digest": result["digest"], "errors": result["errors"],
        "provenance": provenance(ready),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
