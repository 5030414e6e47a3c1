"""Smoke test for the benchmark: every workload at tiny sizes, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload prints every metric BENCHMARK.json names, with
its unit, that no operation fails, that the traced run writes its spans,
and that the benchmark refuses to report without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PRINTED = {
    "prove": ["sdecc_nodes"],
    "families": ["models_per_s"],
    "pipeline": ["cli_gen_s", "cli_solve_s", "cli_verify_s", "decodes_per_s"],
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_fails_nothing(workload, trace):
    spans = HERE / "out" / f"{workload}-seed7-trace1-smoke-spans.jsonl"
    spans.unlink(missing_ok=True)
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name in [*END_TO_END, "setup_raw_s", "wall_raw_s", "calibration_s",
                 *PRINTED[workload]]:
        assert any(line.split()[:1] == [name] for line in lines), name
    fail_frac = [line.split() for line in lines if line.split()[:1] == ["fail_frac"]]
    assert len(fail_frac) == 1 and float(fail_frac[0][1]) == 0.0
    if trace:
        first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
        assert {"name", "start", "end", "parent", "rep"} <= set(first)


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
