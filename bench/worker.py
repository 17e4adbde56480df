"""One benchmark pass in a fresh process: load every scenario, then run them.

Runs the same public path as ``coverlab run``: ``scenario.load_scenario``,
then ``cli.execute_scenario`` and ``cli.render_json``, one scenario after
another.  Caches are cold because the process is new.  The result (times,
CPU, peak RSS and one digest per report) is written as JSON to --out.

    python3 bench/worker.py --out result.json [--trace spans.jsonl]
        [--setup-only] [--only NAME ...] scenario.json ...
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only these scenarios after loading all of them")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import coverlab
    from coverlab import cli, scenario
    if Path(coverlab.__file__).resolve().parent != ROOT / "src" / "coverlab":
        raise SystemExit(f"coverlab imported from {coverlab.__file__}, not {ROOT / 'src'}")

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    loaded = []
    for path in args.paths:
        if tracer is not None:
            tracer.scenario = path.stem
        loaded.append(scenario.load_scenario(path))
    result = {"setup_s": time.perf_counter() - started, "scenarios": []}
    if not args.setup_only:
        selected = [s for s in loaded if args.only is None or s.name in args.only]
        if tracer is not None:
            tracer.phase = "run"
        cpu0 = _cpu_seconds()
        run0 = time.perf_counter()
        for scn in selected:
            if tracer is not None:
                tracer.scenario = scn.name
            entry = {"name": scn.name}
            scenario_started = time.perf_counter()
            try:
                report, _columns, _rows, status, _headline = cli.execute_scenario(scn)
                text = cli.render_json(report)
            except Exception:  # a crash is a failed scenario, not a dead benchmark
                traceback.print_exc()
                entry.update(status="crash", exit=None, sha256=None, bytes=0)
            else:
                data = text.encode("utf-8")
                entry.update(status=status, exit=cli.STATUS_EXIT[status],
                             sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
            entry["s"] = time.perf_counter() - scenario_started
            result["scenarios"].append(entry)
        result["run_s"] = time.perf_counter() - run0
        result["cpu_s"] = _cpu_seconds() - cpu0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)

    import numpy
    import scipy

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_threads=blas_threads(),
    )
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
