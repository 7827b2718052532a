"""Self-check of the benchmark harness, at tiny sizes.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload once at its --m 3 size, untraced and traced, through
run.py's command line, and checks the result line against BENCHMARK.json:
exactly the four keys, every op correct, and every declared end-to-end
(untraced) or per-layer (traced) metric present, numeric and with its
declared unit. Then checks that run.py fails without printing a result in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_selfcheck"


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    done = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        if entry.get("unit") != declared.get(name):
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)) or entry.get("missing"):
            problems.append(f"{where}: {name} has no measured value: {entry}")
    return problems


def check_without_sources(spec: dict) -> list[str]:
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(SCRATCH, "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(SCRATCH)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    found = check_without_sources(spec)
    print(f"without sources: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
