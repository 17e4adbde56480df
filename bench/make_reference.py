"""Rebuild bench/reference.json from `coverlab run` on the default seed.

    python3 bench/make_reference.py

Each default-seed scenario file goes through the real command line in
its own process, so the committed digests are those of `coverlab run`
output, byte for byte.  Run it only when a change to the program is
meant to change reports, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import workloads
from run_bench import BENCH, ROOT, WORK


def main() -> int:
    workdir = WORK / f"reference-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    table = {}
    try:
        for workload in workloads.WORKLOADS:
            files = workloads.generate(workload, workloads.DEFAULT_SEED)
            paths = workloads.write(files, workdir / workload)
            entries = {}
            for item, path in zip(files, paths):
                proc = subprocess.run(
                    [sys.executable, "-m", "coverlab.cli", "run", str(path)],
                    capture_output=True, env=env, cwd=ROOT,
                )
                report = json.loads(proc.stdout)
                entries[item.name] = {
                    "input_sha256": hashlib.sha256(item.text).hexdigest(),
                    "status": report["status"],
                    "exit": proc.returncode,
                    "report_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                    "report_bytes": len(proc.stdout),
                }
                print(f"{workload}/{item.name}: {report['status']} exit {proc.returncode}",
                      file=sys.stderr)
            table[workload] = dict(sorted(entries.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": table}, indent=1)
    (BENCH / "reference.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
