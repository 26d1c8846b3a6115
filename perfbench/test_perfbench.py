"""Self-test of the benchmark: every workload at tiny size prints exactly the
metrics BENCHMARK.json declares, and the benchmark refuses to run without
the program's sources. The four tiny runs go in parallel to keep this short.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _start(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_every_declared_metric_is_printed():
    runs = {(w["name"], 0): _start(w["name"], 0) for w in SPEC["workloads"]}
    runs[("solve-grid", 1)] = _start("solve-grid", 1)
    for (name, trace), proc in runs.items():
        out, err = proc.communicate(timeout=170)
        assert proc.returncode == 0, f"{name} trace={trace}: {err}"
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], f"{name} trace={trace}: {err}"
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared, f"{name} trace={trace}"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _start("solve-grid", 0, cwd=tmp_path)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert out == ""
