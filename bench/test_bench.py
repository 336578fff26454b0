"""Self-check of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_bench.py

Kept beside the benchmark, outside the test suite's `testpaths`, because it
spawns interpreters and takes tens of seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
from workloads import Command  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(trace):
    out = _bench("--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    for workload in spec.WORKLOADS:
        for name, (unit, *_) in table.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and math.isfinite(metric["value"])
            printed = [ln for ln in lines if ln.startswith(f"metric {workload} {name} ")]
            assert len(printed) == 1 and printed[0].endswith(f" {unit}")
        assert any(ln.startswith(f"metric {workload} error_rate 0 ratio") for ln in lines)
        assert any(ln.startswith(f"digest {workload} sha256:") for ln in lines)
    assert lines[0].startswith("machine ")


def test_fixed_seed_gives_identical_digests():
    first = run.run_workload("roots", 5, 0, False, "tiny")["digest"]
    assert run.run_workload("roots", 5, 0, False, "tiny")["digest"] == first
    assert run.run_workload("roots", 6, 0, False, "tiny")["digest"] != first


def test_injected_failure_raises_error_rate():
    bad = Command("plans:bad", ["solve", "--config", "../inputs/missing.json",
                                "--alpha", "0.5", "--beta", "0.5"], "minimal", 1)
    res = run.run_workload("plans", 1, 0, False, "tiny", inject=[bad])
    assert res["failed"] == res["passes"]
    assert res["error_rate"] == pytest.approx(res["passes"] / res["attempted"])
    assert res["problems"][0].startswith("plans:bad solve")


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    out = _bench("--workload", "roots", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
