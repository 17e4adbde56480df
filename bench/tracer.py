"""Outside-in tracing of coverlab's public layer functions.

The tracer replaces each listed function with a wrapper in every
coverlab module that bound the name (``search_folner`` lives in
``folner`` and is imported into ``transfer``; ``boundary`` is imported
into ``folner`` and ``transfer``), records one span per call and puts
every original back on ``uninstall``.  Private helpers such as
``_boundary_ball`` are not reachable from outside, so their cost shows
up as the self time of the public caller.

A span is ``[name, start, end, parent, scenario, phase, counters]``;
spans stay in memory and are written once, at the end of the pass.
``summarize`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, SCENARIO, PHASE, COUNTERS = range(7)


def _len_points(args, kwargs, result, state):
    return {"points": len(result.points)}


def _len_result(args, kwargs, result, state):
    return {"points": len(result)}


def _search_counters(args, kwargs, result, state):
    return {"examined": result.sets_examined, "found": int(result.outcome == "found")}


def _witness_counters(args, kwargs, result, state):
    return {"collar_ball_bound": result[1].collar_ball_bound}


def _transfer_counters(args, kwargs, result, state):
    return {"transferred": int(result.status == "transferred")}


def _cutoff_counters(args, kwargs, result, state):
    return {"vertices": len(result.omega)}


def _form_counters(args, kwargs, result, state):
    func = args[3] if len(args) > 3 else kwargs["func"]
    return {"support": len(func.support)}


def _ball_state(args, kwargs):
    return len(args[0]._ball_cache)


def _ball_counters(args, kwargs, result, state):
    # a hit leaves the memo table as it was; a miss adds the new ball
    return {"points": len(result), "hit": int(len(args[0]._ball_cache) == state)}


def _window_counters(args, kwargs, result, state):
    return {"n": result.size}


def _render_counters(args, kwargs, result, state):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, counter hook, pre-call hook); an
# attribute "Class.method" wraps the method on the class
TARGETS = (
    ("actions", "orbit_ball", "actions.orbit_ball", _len_points, None),
    ("actions", "boundary", "actions.boundary", None, None),
    ("folner", "search_folner", "folner.search_folner", _search_counters, None),
    ("folner", "verify_certificate", "folner.verify_certificate", None, None),
    ("folner", "translation_box", "folner.translation_box", _len_result, None),
    ("transfer", "build_witness", "transfer.build_witness", _witness_counters, None),
    ("transfer", "transfer_negativity", "transfer.transfer_negativity", _transfer_counters, None),
    ("geometry", "cutoff", "geometry.cutoff", _cutoff_counters, None),
    ("geometry", "cover_form_parts", "geometry.cover_form_parts", _form_counters, None),
    ("geometry", "VoltageCover.ball", "geometry.ball", _ball_counters, _ball_state),
    ("geometry", "build_cover", "geometry.build_cover", None, None),
    ("spectrum", "min_eigenvalue", "spectrum.min_eigenvalue", None, None),
    ("spectrum", "dirichlet_window", "spectrum.dirichlet_window", _window_counters, None),
    ("spectrum", "stability_interval", "spectrum.stability_interval", None, None),
    ("spectrum", "eigh", "spectrum.solve_dense", None, None),
    ("spectrum", "eigsh", "spectrum.solve_sparse", None, None),
    ("scenario", "load_scenario", "scenario.load_scenario", None, None),
    ("cli", "execute_scenario", "cli.execute_scenario", None, None),
    ("cli", "render_json", "cli.render_json", _render_counters, None),
)

# carrier action factories; their actions get a counting apply_fn, and
# every fiber action is built on a carrier, so one count covers all
ACTION_FACTORIES = (
    "lattice_action", "free_group_action", "finite_permutation_action",
    "free_quotient_lattice_action",
)


class Tracer:
    """Installs span wrappers into the coverlab modules and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.scenario: str | None = None
        self.phase = "setup"
        self.apply_calls = [0]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "coverlab" and not name.startswith("coverlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span_name, counters, before in TARGETS:
            module = sys.modules[f"coverlab.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(span_name, original, counters, before))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._wrap(span_name, original, counters, before))
        actions = sys.modules["coverlab.actions"]
        for factory in ACTION_FACTORIES:
            original = getattr(actions, factory)
            self._patch_everywhere(original, self._counting_factory(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, fn, counters, before):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else None,
                      self.scenario, self.phase, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if counters is not None:
                record[COUNTERS] = counters(args, kwargs, result, state)
            return result

        return traced

    def _counting_factory(self, factory):
        cell = self.apply_calls

        @functools.wraps(factory)
        def build(*args, **kwargs):
            action = factory(*args, **kwargs)
            inner = action.apply_fn

            def apply_fn(g, x):
                cell[0] += 1
                return inner(g, x)

            return dataclasses.replace(action, apply_fn=apply_fn)

        return build

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"apply_calls": self.apply_calls[0]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> tuple[int, list[list]]:
    with open(path, encoding="utf-8") as src:
        header = json.loads(src.readline())
        return header["apply_calls"], [json.loads(line) for line in src]


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


PER_LAYER = (
    "actions.orbit_ball.s", "actions.orbit_ball.calls", "actions.orbit_ball.points",
    "actions.boundary.s", "actions.boundary.calls", "actions.apply_fn.calls",
    "actions.self_s",
    "folner.search_folner.s", "folner.search_folner.self_s", "folner.search_folner.calls",
    "folner.sets_examined", "folner.sets_per_s", "folner.found_ratio",
    "folner.verify_certificate.s", "folner.verify_certificate.calls",
    "folner.translation_box.s", "folner.translation_box.points", "folner.self_s",
    "transfer.build_witness.s", "transfer.build_witness.self_s",
    "transfer.build_witness.calls", "transfer.collar_ball_bound",
    "transfer.witness_useful_ratio", "transfer.transfer_negativity.s",
    "transfer.transfer_negativity.calls", "transfer.self_s",
    "geometry.cutoff.s", "geometry.cutoff.vertices",
    "geometry.cover_form_parts.s", "geometry.cover_form_parts.support",
    "geometry.ball.s", "geometry.ball.calls", "geometry.ball.points",
    "geometry.ball.cache_hit_ratio", "geometry.build_cover.s", "geometry.self_s",
    "spectrum.min_eigenvalue.s", "spectrum.min_eigenvalue.calls",
    "spectrum.dirichlet_window.s", "spectrum.dirichlet_window.calls",
    "spectrum.dirichlet_window.max_n",
    "spectrum.solve_dense.s", "spectrum.solve_dense.calls",
    "spectrum.solve_sparse.s", "spectrum.solve_sparse.calls",
    "spectrum.assembly_s", "spectrum.first_solve_s",
    "spectrum.stability_interval.s", "spectrum.stability_interval.eigensolves",
    "spectrum.self_s",
    "scenario.load_scenario.s", "scenario.load_scenario.calls",
    "cli.execute_scenario.s", "cli.render_json.s", "cli.report_bytes", "cli.self_s",
    "trace.run_s", "trace.overhead_s", "trace.self_coverage",
)

LAYERS = ("actions", "folner", "transfer", "geometry", "spectrum", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _under(spans: list[list], index: int, ancestor: str) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans: list[list], apply_calls: int, traced_run_s: float,
              untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER.

    Every span adds to ``<name>.s``, ``<name>.self_s``, ``<name>.calls``
    and ``<name>.<counter>``; the metrics that are not such sums are
    derived below.
    """
    selfs = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    solves = []
    window_sizes = [0]
    for index, span in enumerate(spans):
        name = span[NAME]
        m[f"{name}.s"] += span[END] - span[START]
        m[f"{name}.self_s"] += selfs[index]
        m[f"{name}.calls"] += 1
        for key, value in (span[COUNTERS] or {}).items():
            m[f"{name}.{key}"] += value
        if span[PHASE] == "run":
            m[f"{name.split('.')[0]}.self_s"] += selfs[index]
        if name in ("spectrum.solve_dense", "spectrum.solve_sparse"):
            solves.append(span[END] - span[START])
        if name in ("spectrum.min_eigenvalue", "spectrum.dirichlet_window"):
            m["spectrum.assembly_s"] += selfs[index]
        if name == "spectrum.min_eigenvalue" and _under(spans, index, "spectrum.stability_interval"):
            m["spectrum.stability_interval.eigensolves"] += 1
        if name == "spectrum.dirichlet_window" and span[COUNTERS]:
            window_sizes.append(span[COUNTERS]["n"])

    m["actions.apply_fn.calls"] = apply_calls
    m["folner.sets_examined"] = m["folner.search_folner.examined"]
    m["folner.sets_per_s"] = _ratio(m["folner.sets_examined"], m["folner.search_folner.s"])
    m["folner.found_ratio"] = _ratio(m["folner.search_folner.found"],
                                     m["folner.search_folner.calls"])
    m["transfer.collar_ball_bound"] = m["transfer.build_witness.collar_ball_bound"]
    # transfer_negativity stops at the first witness that beats r*, so
    # each transferred outcome is exactly one useful witness
    m["transfer.witness_useful_ratio"] = _ratio(
        m["transfer.transfer_negativity.transferred"], m["transfer.build_witness.calls"])
    m["geometry.ball.cache_hit_ratio"] = _ratio(m["geometry.ball.hit"], m["geometry.ball.calls"])
    m["spectrum.dirichlet_window.max_n"] = max(window_sizes)
    m["spectrum.first_solve_s"] = solves[0] if solves else 0.0
    m["cli.report_bytes"] = m["cli.render_json.bytes"]
    m["trace.run_s"] = traced_run_s
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    m["trace.self_coverage"] = _ratio(
        sum(m[f"{layer}.self_s"] for layer in LAYERS), traced_run_s)
    return {key: float(m[key]) for key in PER_LAYER}
