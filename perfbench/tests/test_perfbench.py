"""Self-tests of the benchmark harness.

Run from the repository root: ``python -m pytest perfbench/tests -q``
(one to two minutes; every workload runs one pass over its input pool).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, seed, trace=0):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("record "):])
    return lines, record, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    runs = {}
    for workload, trace in (("cli_mix", 0), ("design_sweep", 1), ("calibration", 0)):
        runs[workload, trace] = parse(run_bench(workload, 11, trace))
    return runs


def test_short_run_of_each_workload_is_correct(smoke):
    for (workload, _), (_, record, result) in smoke.items():
        assert result["correct"] is True, record["errors"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_every_metric_is_printed_with_its_unit(smoke):
    for (workload, trace), (lines, _, result) in smoke.items():
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            assert any(line.split()[:1] == [metric["name"]]
                       and line.split()[-1] == metric["unit"] for line in lines)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_the_layers_it_exercises(smoke):
    metrics = smoke["design_sweep", 1][2]["metrics"]
    for name in ("import.kipa_ms", "ampcore.self_ms", "ampcore.calls",
                 "oracle.self_ms", "oracle.rk4_steps", "startup.python_ms"):
        assert metrics[name]["value"] > 0, name


def test_same_seed_gives_the_same_digest(smoke):
    _, first, _ = smoke["design_sweep", 1]
    _, again, _ = parse(run_bench("design_sweep", 11, 0))
    _, other, _ = parse(run_bench("design_sweep", 12, 0))
    assert again["digest"] == first["digest"]
    assert other["digest"] != first["digest"]


def test_corrupted_reference_raises_error_rate(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.chdir(ROOT)  # cli_mix argv paths are relative to the root
    control = [sys.executable, "-c", "pass"]
    work = BENCH / "work" / "selftest"

    design = worker.make_workload("design_sweep", 3, work / "design", None)
    design.pool = design.pool[:2]
    design.pool[1]["rk4_expected"] *= 1.05
    stats = worker.measure(design, 0.0, 0, control)
    assert stats["failed"] == 1 and stats["attempted"] == 2

    cli = worker.make_workload("cli_mix", 3, work / "cli", work / "spans.json")
    cli.pool = [e for e in cli.pool if e["cmd"] in ("stability", "noise")]
    cli.pool[0]["reference"]["g_hz"]["value"] *= 1.0 + 1e-12
    stats = worker.measure(cli, 0.0, 0, control)
    assert stats["failed"] / stats["attempted"] > 0


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
