"""Command line runner: scenario files in, deterministic reports out.

Reports serialize every real as a '.17g' decimal string and every exact
ratio as a numerator/denominator pair, with sorted keys, so identical
scenario files, a run's only input, produce byte-identical reports.
Wall-clock timing goes to stderr only, never into a report.

Exit codes: 0 success, 1 input or usage error, 2 audited inequality violated
(a bug, not a refutation), 3 budget exhausted or search inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import __version__, spectrum, transfer
from .errors import (
    BudgetExceededError,
    FolnerVerificationError,
    InequalityViolation,
    InputError,
    NumericalError,
)
from .folner import folner_sequence
from .scenario import Scenario, _under, load_scenario

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3

STATUS_EXIT = {
    "ok": EXIT_OK,
    "input-error": EXIT_INPUT,
    "violation": EXIT_VIOLATION,
    "budget-exceeded": EXIT_BUDGET,
    "inconclusive": EXIT_BUDGET,
}

# worst first when aggregating a batch
_SEVERITY_ORDER = (EXIT_INPUT, EXIT_VIOLATION, EXIT_BUDGET, EXIT_OK)


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(node: Any) -> Any:
    """Reduce a payload to deterministic JSON-safe primitives."""
    if isinstance(node, bool) or node is None or isinstance(node, (int, str)):
        return node
    if isinstance(node, float):
        return _num(node)
    if isinstance(node, Fraction):
        return {"numerator": node.numerator, "denominator": node.denominator}
    if isinstance(node, dict):
        return {str(k): _jsonable(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_jsonable(v) for v in node]
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _cell(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _num(x)
    return str(x)


def render_json(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=1) + "\n"


def render_csv(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# task handlers: each calls its library function with the scenario's params
# as keyword arguments and returns (payload, rows, status, headline), its
# rows under the task's columns in _RUNNERS; a payload with a result
# dataclass's keys is built by asdict, or by _fields when some of its fields
# hold points to encode


def _fields(result, *omit: str) -> dict:
    """A result dataclass's fields by name, unconverted, except those in omit."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name not in omit}


def _encoded(action, points) -> list[str]:
    """The points encoded, in the action's sort order: the one order a report lists points in."""
    return [action.encode_fn(x) for x in sorted(points, key=action.sort_key)]


def _certificate_payload(cert) -> dict:
    # every generator acts bijectively, so ratio_g |E| / 2 = |E \ g^{-1}E|
    signed_sum = sum(r * cert.size / 2 for r in cert.per_generator_ratios.values())
    return {
        "epsilon": cert.epsilon,
        "size": cert.size,
        "members": _encoded(cert.action, cert.members),
        "max_ratio": cert.max_ratio,
        "boundary_ratio": cert.boundary_ratio,
        "per_generator_ratios": {str(g): r
                                 for g, r in sorted(cert.per_generator_ratios.items())},
        "boundary_size": cert.boundary_size,
        "signed_exit_sum": int(signed_sum),
    }


def _run_folner(scn: Scenario):
    action = scn.fiber
    reports = folner_sequence(action, **scn.params)
    exhausted = reports[-1].outcome != "found"
    runs = []
    rows = []
    for eps, rep in zip(scn.params["epsilons"], reports):
        cert = rep.certificate
        runs.append({
            **_fields(rep, "best_set"),
            "epsilon": eps,
            "certificate": _certificate_payload(cert) if cert else None,
        })
        rows.append([
            scn.name, eps, rep.outcome,
            cert.size if cert else None,
            rep.best_ratio,
            cert.boundary_ratio if cert else None,
            rep.sets_examined, rep.radius_reached,
        ])
    payload = {
        "action": action.name,
        "generator_count": action.generator_count,
        "runs": runs,
        "exhausted": exhausted,
    }
    status = "inconclusive" if exhausted else "ok"
    last = reports[-1]
    if exhausted:
        headline = f"exhausted at epsilon={runs[-1]['epsilon']} best_ratio={last.best_ratio}"
    else:
        cert = last.certificate
        headline = f"size={cert.size} max_ratio={cert.max_ratio}"
    return payload, rows, status, headline


def _run_spectrum(scn: Scenario):
    report = transfer.easy_direction_check(scn.cover, scn.potential, seed=scn.seed,
                                           **scn.params)
    rows = [[scn.name, row.a, row.lambda_min_base, row.base_nonnegative,
             win.radius, win.value, win.size]
            for row in report.rows for win in row.windows]
    payload = asdict(report)
    headline = "min_window=" + _num(min(w.value for r in report.rows for w in r.windows))
    return payload, rows, "ok", headline


def _run_interval(scn: Scenario):
    report = transfer.interval_comparison(scn.cover, scn.potential, seed=scn.seed,
                                          **scn.params)
    rows = [[scn.name, row.a, row.lambda_min_base, row.window.value,
             row.cover_refuted, row.transfer_status,
             report.interval.lower, report.interval.upper]
            for row in report.rows]
    # a breach of the inclusion raises, so the key is always true
    payload = {**asdict(report), "inclusion_ok": True}
    headline = (f"interval=[{_num(report.interval.lower)}, "
                f"{_num(report.interval.upper)}]")
    return payload, rows, "ok", headline


def _witness_payload(cover, rep) -> dict:
    return {
        **_fields(rep),
        "members": _encoded(cover.fiber_action, rep.members),
        "collar_tiles": _encoded(cover.fiber_action, rep.collar_tiles),
        "collar_ratio": rep.collar_ratio,
        # build_witness raises on a breach, so the key is always true
        "verified": True,
    }


def _run_transfer(scn: Scenario):
    params = dict(scn.params)
    radius = params.pop("radius", None)
    a = params["a"]
    out = _under("scenario.params.a", transfer.transfer_negativity, scn.cover, scn.potential,
                 seed=scn.seed, **params)
    window = None
    if radius is not None:
        window = spectrum.dirichlet_window(scn.cover, radius, scn.potential, a, scn.seed)
    rep = out.report
    payload = {
        **_fields(out, "witness"),
        "a": a,
        "witness_support": (sorted(scn.cover.encode(p) for p in out.witness.support)
                            if out.witness is not None else None),
        "report": _witness_payload(scn.cover, rep) if rep is not None else None,
        "attempts": [{"epsilon": w.epsilon_used, "b": w.b, "c": w.c}
                     for w in out.attempts],
        "window": asdict(window) if window is not None else None,
    }
    rows = [[
        scn.name, a, out.lambda_min_base, out.r_star, out.epsilon_used,
        rep.b if rep else None, rep.c if rep else None,
        rep.Q_cover if rep else None, rep.final_bound if rep else None,
        out.status,
    ]]
    status = "ok" if out.status == "transferred" else "inconclusive"
    if out.status == "transferred":
        headline = f"b/c={rep.collar_ratio} Q_cover={_num(rep.Q_cover)}"
    else:
        headline = f"inconclusive best_ratio={out.best_collar_ratio}"
    return payload, rows, status, headline


def _run_counterexample(scn: Scenario):
    a = scn.params["a"]
    report = _under("scenario.params.a", transfer.counterexample_check, scn.cover,
                    scn.potential, seed=scn.seed, **scn.params)
    out = report.transfer
    # counterexample_check raises unless the inclusion is strict
    outcome = "strict inclusion"
    payload = {
        "a": a,
        "lambda_min_base": out.lambda_min_base,
        "r_star": out.r_star,
        "alpha": out.alpha,
        "transfer_status": out.status,
        "transfer_message": out.message,
        "best_collar_ratio": out.best_collar_ratio,
        "windows": [asdict(w) for w in report.windows],
        "outcome": outcome,
    }
    rows = [[scn.name, a, out.lambda_min_base, out.r_star, out.status,
             out.best_collar_ratio, w.radius, w.value, outcome]
            for w in report.windows]
    headline = f"{outcome}; min_window=" + _num(min(w.value for w in report.windows))
    return payload, rows, "ok", headline


def _run_corollary(scn: Scenario):
    report = _under("scenario.potential", spectrum.corollary_check, scn.base, scn.potential,
                    seed=scn.seed, **scn.params)
    outcome = "full line" if report.zero_potential else "interval pinned to zero"
    payload = {**asdict(report), "outcome": outcome}
    interval = report.interval
    if report.zero_potential:
        rows = [[scn.name, None, None, None, interval.lower, interval.upper,
                 interval.endpoint_tolerance]]
    else:
        rows = [[scn.name, a, rq, lam, interval.lower, interval.upper,
                 interval.endpoint_tolerance]
                for (a, rq), (_a, lam) in zip(report.rayleigh_constant,
                                              report.lambda_samples)]
    headline = (f"interval=[{_num(interval.lower)}, {_num(interval.upper)}]"
                f" ({outcome})")
    return payload, rows, "ok", headline


# every task's handler and CSV columns
_RUNNERS = {
    "folner": (_run_folner, ["scenario", "epsilon", "outcome", "set_size", "max_ratio",
                             "boundary_ratio", "sets_examined", "radius_reached"]),
    "spectrum": (_run_spectrum, ["scenario", "a", "lambda_min_base", "base_nonnegative",
                                 "radius", "window_value", "window_size"]),
    "interval": (_run_interval, ["scenario", "a", "lambda_min_base", "window_value",
                                 "cover_refuted", "transfer_status", "interval_lower",
                                 "interval_upper"]),
    "transfer": (_run_transfer, ["scenario", "a", "lambda_min_base", "r_star", "epsilon_used",
                                 "b", "c", "Q_cover", "final_bound", "outcome"]),
    "counterexample": (_run_counterexample, ["scenario", "a", "lambda_min_base", "r_star",
                                             "transfer_status", "best_ratio", "radius",
                                             "window_value", "outcome"]),
    "corollary": (_run_corollary, ["scenario", "a", "rayleigh_constant", "lambda_min",
                                   "interval_lower", "interval_upper", "endpoint_tolerance"]),
}


def execute_scenario(scn: Scenario):
    """Run one scenario; returns (report, columns, rows, status, headline).

    Input errors propagate (nothing trustworthy to report); everything
    else is folded into the report status so batches keep going.  The
    columns are the task's whatever the status; a failed run has no rows.
    """
    handler, columns = _RUNNERS[scn.task]
    rows: list[list] = []
    try:
        payload, rows, status, headline = handler(scn)
    except (InequalityViolation, FolnerVerificationError, NumericalError) as exc:
        payload = {"error": str(exc)}
        status = "violation"
        headline = str(exc)
    except BudgetExceededError as exc:
        payload = {"error": str(exc)}
        status = "budget-exceeded"
        headline = str(exc)
    report = {
        "version": __version__,
        "scenario": scn.name,
        "task": scn.task,
        "seed": scn.seed,
        "status": status,
        "outcome": payload,
    }
    return report, columns, rows, status, headline


# ---------------------------------------------------------------------------
# commands


def _execute_logged(scn: Scenario):
    """execute_scenario, with an input error as status "input-error" and
    report None; the status line and the wall time go to stderr."""
    started = time.perf_counter()
    try:
        report, columns, rows, status, headline = execute_scenario(scn)
    except InputError as exc:
        report, columns, rows, status, headline = None, [], [], "input-error", str(exc)
    elapsed = time.perf_counter() - started
    print(f"[coverlab] {scn.name}: {status} ({headline}) in {elapsed:.3f}s",
          file=sys.stderr)
    return report, columns, rows, status, headline


def _cmd_run(args) -> int:
    report, columns, rows, status, headline = _execute_logged(load_scenario(args.path))
    if report is None:
        raise InputError(f"{Path(args.path)}: {headline}")
    if args.format == "csv":
        text = render_csv(columns, rows)
    else:
        text = render_json(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return STATUS_EXIT[status]


def _worst_exit(codes) -> int:
    return min(codes, key=_SEVERITY_ORDER.index)


def _cmd_batch(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise InputError(f"no scenario files (*.json) in {directory}")

    scenarios: list[Scenario] = []
    seen: dict[str, Path] = {}
    for path in paths:
        scn = load_scenario(path)
        if scn.name in seen:
            raise InputError(
                f"duplicate scenario name '{scn.name}' in {seen[scn.name].name} "
                f"and {path.name}"
            )
        seen[scn.name] = path
        scenarios.append(scn)

    out_dir = Path(args.out) if args.out else directory / "_reports"
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    codes = set()
    for scn in sorted(scenarios, key=lambda s: s.name):
        report, _cols, _rows, status, headline = _execute_logged(scn)
        exit_code = STATUS_EXIT[status]
        codes.add(exit_code)
        if report is not None:
            (out_dir / f"{scn.name}.json").write_text(
                render_json(report), encoding="utf-8")
        summary_rows.append([scn.name, scn.task, status, exit_code, headline])
    summary = render_csv(["scenario", "task", "status", "exit", "detail"],
                         summary_rows)
    (out_dir / "summary.csv").write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    return _worst_exit(codes)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coverlab",
        description="Folner certificates, voltage covers, and spectral "
                    "positivity audits from scenario files.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("path", help="scenario JSON file")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--format", choices=("json", "csv"), default="json")

    batch = sub.add_parser("batch", help="run every scenario in a directory")
    batch.add_argument("dir", help="directory of scenario JSON files")
    batch.add_argument("--out", help="report directory (default <dir>/_reports)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_batch(args)
    except (InputError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
