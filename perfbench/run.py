"""design-forge benchmark: four fixed CLI workloads in a closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

One client, one ``python -m design_forge.cli`` child at a time: the next
invocation starts only after the previous one has exited, and operations
("ops") repeat for about S seconds: at least one, and another only if, at
the pace of the last, it would end less than half an op past S. Every op's
stdout and --out bytes are hashed and compared with perfbench/digests.json,
recorded at the seed commit; a wrong exit code or digest is a failed op.
stderr carries timing only and is not checked.

Workloads (the seed is the workload seed; the program only receives argv):
  lifted     verify-gdd --m 5 --k 6 --alpha A: one 722,176-block grouped
             design, the only memory-heavy op. The seed draws A in 1..63 for
             each op. The report does not depend on A, so one digest serves
             every seed.
  audit      crosscheck --m 3..4 --k 3..6 --gdd: 154 small enumerations and
             sweeps, one per (m, k, alpha) cell, so per-call cost dominates.
  table      params --m 12 --out FILE: recurrences and CSV formatting only;
             no enumeration and no sweep.
  roundtrip  export --m 6 --k 5 --out F, then verify-bibd --blocks F: 109,368
             blocks written and read back as JSON lines.
audit, table and roundtrip ignore the seed: each is a whole sweep or a whole
table, with no free input to draw.

--trace 0 measures untraced ops. Before every op it times three ``--help``
invocations (interpreter start, imports, parser), each followed by a base
start (the interpreter importing the same standard-library modules, without
the program), and one run of perfbench/refkernel.py, fixed pure-Python work
that does not import the program; one more reference run follows the last
op. It prints the end-to-end metrics: wall_ref and cpu_ref, the mean op wall
(child CPU) time divided by the mean time of the reference runs; the median
peak RSS per op; and setup_s, the median over pairs of --help wall / base
start wall, in seconds of a host on which the base start takes BASE_START_S.
Raw medians (per-op wall and CPU, --help wall) are printed too, but not
gated: the host's speed drifts between runs by more than any bound allows.
--trace 1 alternates untraced ops with ops run under perfbench/traced.py
and prints the per-layer metrics, each the median over traced ops of its
per-op value.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it give each metric with its unit, fail_ratio,
the sample count and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traced

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units are declared there only
WORK = Path(".perfbench_work")  # relative to ROOT, so argv is the same everywhere
WORKLOADS = ("lifted", "audit", "table", "roundtrip")
SETUP_PER_OP = 3  # --help / base start pairs timed before every op
SETUP_MIN = 15  # pairs per run at least; short runs top up after the last op# Reference kernel time before each op and after the last, as a share of the
# previous op's wall: long ops get more reference samples to divide by.
REF_SHARE = 0.15
# The standard-library modules design_forge.cli and the modules it imports
# load. A base start imports these and nothing else, so it is the --help
# invocation without the program.
BASE_IMPORTS = (
    "import argparse, bisect, collections, dataclasses, itertools, json, math, "
    "os, sys, tempfile, time, typing"
)
# Median base start wall time on the 2-vCPU host the benchmark was built on
# (Python 3, quiet host). setup_s is expressed in seconds of a host that
# starts the base in this time, so the host's drift cancels out of it.
BASE_START_S = 0.070

# The trace labels (traced.TARGETS keys, plus the budget) each metric is
# read from; a metric is missing when every one of its labels is.
SOURCES = {
    "blocks.enum_s": ["blocks.enum"],
    "blocks.validate_s": ["blocks.validate"],
    "blocks.nodes": [traced.BUDGET_LABEL],
    "blocks.blocks_out": ["blocks.enum"],
    "blocks.calls": ["blocks.enum"],
    "blocks.yield": ["blocks.enum", traced.BUDGET_LABEL],
    "designs.sweep_s": ["designs.sweep"],
    "designs.calls": ["designs.sweep"],
    "designs.pair_incs": ["designs.sweep"],
    "params.table_s": [label for label in traced.TARGETS if label.startswith("params.")],
    "params.weights_s": ["params.weights"],
    "params.weights_calls": ["params.weights"],
    "params.replication_s": ["params.replication"],
    "params.balance_s": ["params.balance"],
    "params.gdd_balance_s": ["params.gdd_balance"],
    "cli.command_s": ["cli.command"],
    "cli.self_s": ["cli.command"],
    "cli.jsonl_encode_s": ["cli.jsonl_encode"],
    "cli.jsonl_decode_s": ["cli.jsonl_decode"],
    "cli.csv_encode_s": ["cli.csv_encode"],
    "cli.write_s": ["cli.write"],
    "cli.bytes_out": ["cli.write"],
    "proc.outside_s": ["cli.command"],
    "trace.overhead_s": [],
}
# Self-time metrics that partition a traced op's handler time. With
# proc.outside_s they add up to the op's wall time.
ACCOUNTED = (
    "blocks.enum_s",
    "blocks.validate_s",
    "designs.sweep_s",
    "params.table_s",
    "cli.self_s",
    "cli.jsonl_encode_s",
    "cli.jsonl_decode_s",
    "cli.csv_encode_s",
    "cli.write_s",
    "proc.outside_s",
)


class HarnessError(Exception):
    """The benchmark itself cannot run here (not a failed op)."""


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise HarnessError(f"cannot read metric declarations from {SPEC}: {exc}") from None


# ---------------------------------------------------------------------------
# workloads


def op_steps(workload: str, size: str, rng: random.Random) -> list[tuple[list[str], Path | None]]:
    """One op: a list of (cli argv, --out file or None). tiny is the --m 3
    version of each workload, used by selfcheck.py."""
    full = size == "full"
    if workload == "lifted":
        m, k = ("5", "6") if full else ("3", "3")
        alpha = rng.randrange(1, 1 << (int(m) + 1))
        return [(["verify-gdd", "--m", m, "--k", k, "--alpha", str(alpha)], None)]
    if workload == "audit":
        m, k = ("3..4", "3..6") if full else ("3", "3..4")
        return [(["crosscheck", "--m", m, "--k", k, "--gdd"], None)]
    if workload == "table":
        out = WORK / "table.csv"
        return [(["params", "--m", "12" if full else "3", "--out", str(out)], out)]
    if workload == "roundtrip":
        m, k = ("6", "5") if full else ("3", "4")
        out = WORK / "blocks.jsonl"
        return [
            (["export", "--m", m, "--k", k, "--out", str(out)], out),
            (["verify-bibd", "--m", m, "--k", k, "--blocks", str(out)], None),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running children


def _child_env() -> dict:
    # Only the checkout's own source; a fixed hash seed removes one source
    # of run-to-run variation.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def spawn(argv: list[str], env: dict) -> dict:
    """Run one child to completion; stdout and stderr go to files in WORK."""
    stdout_path, stderr_path = WORK / "stdout", WORK / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "exit": os.waitstatus_to_exitcode(status),
        "stdout": stdout_path.read_bytes(),
        "stderr": stderr_path.read_bytes(),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(steps, env: dict, op_id: int, trace: bool) -> dict:
    """Run every step of one op; returns timings, outputs and, if traced, spans.

    The op's wall time is the sum of its children's: hashing outputs and
    reading spans happen between children and are not timed.
    """
    for _, out in steps:
        if out is not None and out.exists():
            out.unlink()
    observed, invocations = [], []
    wall = cpu = rss = 0.0
    for argv, out in steps:
        if trace:
            spans_path = WORK / "spans.json"
            child = spawn([str(BENCH / "traced.py"), str(spans_path), str(op_id), *argv], env)
            if spans_path.exists():
                invocations.append(json.loads(spans_path.read_text(encoding="utf-8")))
                spans_path.unlink()
            else:  # the child died before main(); its exit code fails the op
                invocations.append({"spans": [], "missing": []})
        else:
            child = spawn(["-m", "design_forge.cli", *argv], env)
        wall += child["wall"]
        cpu += child["cpu"]
        rss = max(rss, child["rss_mb"])
        observed.append(
            {
                "exit": child["exit"],
                "stdout": _sha256(child["stdout"]),
                "out": _sha256(out.read_bytes()) if out is not None and out.exists() else None,
            }
        )
        if child["exit"] != 0:
            sys.stderr.write(child["stderr"][-2000:].decode("utf-8", "replace"))
    return {"wall": wall, "cpu": cpu, "rss_mb": rss, "observed": observed, "invocations": invocations}


# ---------------------------------------------------------------------------
# per-layer values of one traced op


def layer_values(invocations: list[dict], wall: float) -> dict:
    spans = [s for inv in invocations for s in inv["spans"]]

    def self_s(*labels):
        return sum(s["self"] for s in spans if s["label"] in labels)

    def outer(label):
        return [s for s in spans if s["label"] == label and s["outer"]]

    enum, sweeps, commands = outer("blocks.enum"), outer("designs.sweep"), outer("cli.command")
    nodes = sum(s["nodes"] for s in enum)
    searched = sum(s["blocks"] for s in enum if s["nodes"] > 0)
    command_s = sum(s["end"] - s["start"] for s in commands)
    return {
        "blocks.enum_s": self_s("blocks.enum"),
        "blocks.validate_s": self_s("blocks.validate"),
        "blocks.nodes": nodes,
        "blocks.blocks_out": sum(s["blocks"] for s in enum),
        "blocks.calls": len(enum),
        "blocks.yield": searched / nodes if nodes else 0.0,
        "designs.sweep_s": self_s("designs.sweep"),
        "designs.calls": len(sweeps),
        "designs.pair_incs": sum(s["pair_incs"] for s in sweeps),
        "params.table_s": self_s(*SOURCES["params.table_s"]),
        "params.weights_s": self_s("params.weights"),
        "params.weights_calls": sum(1 for s in spans if s["label"] == "params.weights"),
        "params.replication_s": self_s("params.replication"),
        "params.balance_s": self_s("params.balance"),
        "params.gdd_balance_s": self_s("params.gdd_balance"),
        "cli.command_s": command_s,
        "cli.self_s": self_s("cli.command"),
        "cli.jsonl_encode_s": self_s("cli.jsonl_encode"),
        "cli.jsonl_decode_s": self_s("cli.jsonl_decode"),
        "cli.csv_encode_s": self_s("cli.csv_encode"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_out": sum(s["bytes"] for s in outer("cli.write")),
        "proc.outside_s": wall - command_s,
    }


def missing_metrics(invocations: list[dict]) -> set[str]:
    missing_names = {name for inv in invocations for name in inv["missing"]}
    absent = {
        label
        for label, targets in traced.TARGETS.items()
        if all(f"{mod}.{path}" in missing_names for mod, path in targets)
    }
    if ".".join(traced.BUDGET_TARGET) in missing_names:
        absent.add(traced.BUDGET_LABEL)
    return {
        name
        for name, labels in SOURCES.items()
        if labels and all(label in absent for label in labels)
    }


# ---------------------------------------------------------------------------
# one measured run


def load_digests(size: str, workload: str) -> list[dict]:
    try:
        table = json.loads(DIGESTS.read_text(encoding="utf-8"))
        return table[size][workload]
    except (OSError, ValueError, KeyError) as exc:
        raise HarnessError(f"no recorded digests for {size}/{workload}: {exc}") from None


def time_setup(env: dict, count: int) -> list[tuple[float, float]]:
    """(--help wall, base start wall) pairs, each base start right after its
    --help: the no-work invocation (interpreter start, imports, parser) and
    the same start without the program."""
    pairs = []
    for _ in range(count):
        child = spawn(["-m", "design_forge.cli", "--help"], env)
        if child["exit"] != 0:
            raise HarnessError("design_forge.cli --help failed")
        base = spawn(["-c", BASE_IMPORTS], env)
        if base["exit"] != 0:
            raise HarnessError("base start failed")
        pairs.append((child["wall"], base["wall"]))
    return pairs


def _ref_ratio(ops: list[dict], refs: list[dict], key: str) -> float:
    """Mean op time / mean reference time over one run.

    The host alternates between fast and slow phases within a second, and
    the share of slow time drifts from run to run. A median of a few short
    reference runs lands on one phase or the other; means over references
    interleaved with the ops sample the same mix of phases as the ops did.
    """
    return statistics.fmean(op[key] for op in ops) / statistics.fmean(r[key] for r in refs)


def run_references(env: dict, seconds: float) -> list[dict]:
    """Reference kernel runs, at least one, until they have taken seconds."""
    refs, spent = [], 0.0
    while not refs or spent < seconds:
        child = spawn([str(BENCH / "refkernel.py")], env)
        if child["exit"] != 0:
            raise HarnessError("reference kernel failed")
        refs.append(child)
        spent += child["wall"]
    return refs


def highest_percentile(n: int) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return f"p{best}" if best else "none"


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    expected = load_digests(size, workload)
    env = _child_env()
    rng = random.Random(seed)
    setup: list[tuple[float, float]] = []
    if not trace:
        time_setup(env, 1)  # warm-up: fills the page and bytecode caches
    plain, traced_ops, overheads, argvs, refs = [], [], [], [], []
    attempted = failed = 0
    deadline = cycle_start = time.perf_counter()
    deadline += seconds
    op_id = 0
    while True:
        if not trace:
            # Spread over the run, so setup_s and the reference see the
            # same host conditions as the ops.
            setup += time_setup(env, SETUP_PER_OP)
            refs += run_references(env, REF_SHARE * (plain[-1]["wall"] if plain else 0.0))
        steps = op_steps(workload, size, rng)
        argvs.append([argv for argv, _ in steps])
        # Traced runs pair each traced op with an untraced one on the same
        # argv, alternating which goes first.
        modes = [False] if not trace else ([False, True] if op_id % 2 == 0 else [True, False])
        pair = {}
        for mode in modes:
            result = run_op(steps, env, op_id, mode)
            attempted += 1
            if result["observed"] != expected:
                failed += 1
            pair[mode] = result
            (traced_ops if mode else plain).append(result)
        if trace:
            overheads.append(pair[True]["wall"] - pair[False]["wall"])
        op_id += 1
        now = time.perf_counter()
        cycle, cycle_start = now - cycle_start, now
        # Another op at this pace would end more than half a cycle past the
        # deadline: stop here, so a run lasts about `seconds` on average
        # instead of overrunning by up to one whole op.
        if now + cycle / 2 >= deadline:
            break
    report = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "attempted": attempted,
        "failed": failed,
        "argv": argvs,
        "plain_walls": [r["wall"] for r in plain],
    }
    if not trace:
        refs += run_references(env, REF_SHARE * plain[-1]["wall"])
        setup += time_setup(env, max(0, SETUP_MIN - len(setup)))
        raw = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "ref_wall_s": statistics.median(r["wall"] for r in refs),
            "ref_cpu_s": statistics.median(r["cpu"] for r in refs),
            "setup_raw_s": statistics.median(help_wall for help_wall, _ in setup),
            "base_start_s": statistics.median(base for _, base in setup),
        }
        report["raw"] = raw
        report["ref_walls"] = [r["wall"] for r in refs]
        report["metrics"] = {
            "wall_ref": _ref_ratio(plain, refs, "wall"),
            "cpu_ref": _ref_ratio(plain, refs, "cpu"),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "setup_s": BASE_START_S * statistics.median(h / b for h, b in setup),
        }
        return report
    per_op = [layer_values(r["invocations"], r["wall"]) for r in traced_ops]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    report["metrics"] = metrics
    report["missing"] = sorted(set().union(*(missing_metrics(r["invocations"]) for r in traced_ops)))
    report["accounting"] = [
        (sum(op[name] for name in ACCOUNTED), r["wall"]) for op, r in zip(per_op, traced_ops)
    ]
    # A structural invariant of the tracer: proc.outside_s is defined as the
    # rest of the op wall, so this only fails if a span lies outside every
    # handler or a label has no metric.
    if any(abs(total - wall) > 1e-6 for total, wall in report["accounting"]):
        raise HarnessError(f"layer self times do not add up to op wall: {report['accounting']}")
    # The measured check: the handler spans (timed in the child) must fit
    # inside the child's wall time (timed here).
    if any(op["proc.outside_s"] < 0 for op in per_op):
        raise HarnessError(f"handler time exceeds op wall: {[op['proc.outside_s'] for op in per_op]}")
    return report


# ---------------------------------------------------------------------------
# provenance and output


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    # Identifies the measured code where the checkout has no git metadata.
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, load_before: tuple) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "seed": seed,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def describe(report: dict, trace: bool) -> list[str]:
    n = len(report["plain_walls"])
    lines = [
        f"workload {report['workload']} (size {report['size']}, seed {report['seed']}): "
        f"{report['attempted']} ops attempted, {report['failed']} failed, "
        f"fail_ratio {report['failed'] / report['attempted']:.4f}"
    ]
    units = declared_units(trace)
    for name, value in report["metrics"].items():
        note = " (missing)" if name in report.get("missing", ()) else ""
        lines.append(f"  {name} {value!r} {units[name]}{note}")
    for name, value in report.get("raw", {}).items():
        lines.append(f"  {name} {value!r} s (raw, not gated)")
    p = highest_percentile(n)
    tail = f"wall_s {p} {percentile(report['plain_walls'], int(p[1:]))!r} s" if p != "none" else (
        "no percentile above the median has ten samples beyond it"
    )
    walls = ", ".join(f"{w:.3f}" for w in report["plain_walls"])
    lines.append(f"  untraced ops: n={n}; {tail}; op walls [{walls}] s")
    if "ref_walls" in report:
        walls = ", ".join(f"{w:.3f}" for w in report["ref_walls"])
        lines.append(f"  reference kernel walls [{walls}] s")
    if trace:
        worst = max(abs(total - wall) for total, wall in report["accounting"])
        lines.append(
            "  accounting: layer self times + proc.outside_s vs traced op wall, "
            f"largest gap {worst!r} s over {len(report['accounting'])} traced ops"
        )
    return lines


def result_line(reports: list[dict], trace: bool, prefix: bool) -> dict:
    units = declared_units(trace)
    metrics = {}
    for report in reports:
        for name, value in report["metrics"].items():
            entry = {"value": value, "unit": units[name]}
            if name in report.get("missing", ()):
                entry["missing"] = True
            metrics[f"{report['workload']}/{name}" if prefix else name] = entry
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_digests() -> None:
    """Write digests.json from one untraced op of every workload and size."""
    env = _child_env()
    table = {}
    for size in ("full", "tiny"):
        table[size] = {}
        for workload in WORKLOADS:
            result = run_op(op_steps(workload, size, random.Random(0)), env, 0, False)
            table[size][workload] = result["observed"]
            print(size, workload, result["observed"], flush=True)
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")


def _clear_work() -> None:
    if WORK.exists():
        for path in WORK.iterdir():
            path.unlink()
        WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "design_forge" / "cli.py").is_file():
        print(f"error: no design_forge sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    _clear_work()
    WORK.mkdir()
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        load_before = os.getloadavg()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        trace = bool(args.trace)
        reports = []
        declared = declared_units(trace)
        for name in names:
            report = measure(name, args.seed, args.seconds, trace, args.size)
            if set(report["metrics"]) != set(declared):
                raise HarnessError(
                    f"metrics differ from BENCHMARK.json: {sorted(set(report['metrics']) ^ set(declared))}"
                )
            reports.append(report)
            print("\n".join(describe(report, trace)), flush=True)
        record = provenance(args.seed, load_before)
        record["argv"] = {
            r["workload"]: [json.loads(a) for a in sorted({json.dumps(a) for a in r["argv"]})]
            for r in reports
        }
        print("provenance " + json.dumps(record))
        print(json.dumps(result_line(reports, trace, prefix=len(reports) > 1)))
        return 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _clear_work()


if __name__ == "__main__":
    sys.exit(main())
