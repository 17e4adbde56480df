"""Layered scenario benchmark for coverlab.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario files from the seed, then runs them
through the same public path as ``coverlab run`` in fresh worker
processes (bench/worker.py), one scenario after another, with BLAS at
its default thread count.  Every report is checked: against the
committed digest (bench/reference.json) when the scenario file is
byte-identical to the default seed's, otherwise against its expected
status and a byte-identical rerun.

With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced pass, next to an
untraced pass of the same files.  The line before it holds the run's
metadata.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# a run must finish within 180 s; leave room to print and clean up
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 3

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name == "folner.sets_per_s":
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Checker:
    """Compares every report against the reference or against a rerun."""

    def __init__(self, files: list[workloads.ScenarioFile], reference: dict):
        self.expected = {}
        for item in files:
            ref = reference.get(item.name)
            if ref is not None and ref["input_sha256"] == hashlib.sha256(item.text).hexdigest():
                self.expected[item.name] = (ref["status"], ref["exit"], ref["report_sha256"])
            else:
                self.expected[item.name] = (item.expected, None, None)
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def unreferenced(self) -> list[str]:
        return sorted(name for name, (_s, _e, digest) in self.expected.items() if digest is None)

    def check(self, entries: list[dict], label: str) -> None:
        for entry in entries:
            name = entry["name"]
            status, exit_code, digest = self.expected[name]
            problems = []
            if entry["status"] != status:
                problems.append(f"status {entry['status']} != {status}")
            if exit_code is not None and entry["exit"] != exit_code:
                problems.append(f"exit {entry['exit']} != {exit_code}")
            if digest is not None and entry["sha256"] != digest:
                problems.append("report differs from the reference")
            if entry["sha256"] != self.first_digest.setdefault(name, entry["sha256"]):
                problems.append("report differs from an earlier run")
            self.attempted += 1
            if problems:
                self.failures.append(f"{label}: {name}: " + "; ".join(problems))


class Runner:
    """Starts worker processes inside one run's scratch directory."""

    def __init__(self, workdir: Path, paths: list[Path], deadline: float):
        self.workdir = workdir
        self.paths = paths
        self.deadline = deadline
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def __call__(self, *extra: str, trace: Path | None = None) -> dict:
        self.count += 1
        out = self.workdir / f"worker{self.count}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(out), *extra]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += ["--", *(str(p) for p in self.paths)]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError("a worker overran the run's time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))


def measure(runner: Runner, checker: Checker, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for at least `seconds` of run time, plus set-up samples."""
    passes = []
    while True:
        result = runner()
        checker.check(result["scenarios"], f"pass {len(passes) + 1}")
        passes.append(result)
        measured = sum(p["run_s"] for p in passes)
        if measured >= seconds or runner.remaining() < 2.5 * result["run_s"] + 10:
            break
    setups = [p["setup_s"] for p in passes]
    rerun = checker.unreferenced()
    if rerun and len(passes) == 1:
        result = runner("--only", *rerun)
        checker.check(result["scenarios"], "rerun")
        setups.append(result["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner("--setup-only")["setup_s"])
    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "passes": [{**{k: p[k] for k in ("run_s", "cpu_s", "setup_s", "peak_rss_mb")},
                    "scenario_s": {e["name"]: e["s"] for e in p["scenarios"]}}
                   for p in passes],
        "setup_samples": setups,
        "reran": rerun if len(passes) == 1 else [],
    }
    return metrics, {**detail, **_versions(passes[0])}


def trace(runner: Runner, checker: Checker) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics from the spans."""
    plain = runner()
    checker.check(plain["scenarios"], "untraced pass")
    spans_path = runner.workdir / "spans.jsonl"
    traced = runner(trace=spans_path)
    # the traced reports must be byte-identical to the untraced ones
    checker.check(traced["scenarios"], "traced pass")
    apply_calls, spans = tracer.read_spans(spans_path)
    metrics = tracer.summarize(spans, apply_calls, traced["run_s"], plain["run_s"])
    detail = {"untraced_run_s": plain["run_s"], "traced_run_s": traced["run_s"],
              "spans": len(spans)}
    return metrics, {**detail, **_versions(plain)}


def _versions(result: dict) -> dict:
    return {key: result[key] for key in ("python", "numpy", "scipy", "blas_threads")}


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered scenario benchmark for coverlab.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum run time to measure, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "coverlab" / "__init__.py").is_file():
        print(f"error: no coverlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    files = workloads.generate(args.workload, args.seed)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    checker = Checker(files, reference["workloads"][args.workload])

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = workloads.write(files, workdir / "scenarios")
        runner = Runner(workdir, paths, deadline)
        if args.trace:
            values, detail = trace(runner, checker)
            units = {name: per_layer_unit(name) for name in tracer.PER_LAYER}
        else:
            values, detail = measure(runner, checker, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.failures)
    for failure in checker.failures:
        print(f"mismatch: {failure}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "scenarios": [{"name": f.name, "expected": f.expected, "why": f.why} for f in files],
        "failed_frac": failed / checker.attempted,
        "failures": checker.failures,
        **detail,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
