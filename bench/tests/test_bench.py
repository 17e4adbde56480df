"""Tests of the benchmark itself: generator, tracer, metric names, counts.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run_bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BUNDLED = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_bytes(workload):
    for seed in (0, 7):
        first = workloads.generate(workload, seed)
        second = workloads.generate(workload, seed)
        assert [(f.name, f.text) for f in first] == [(f.name, f.text) for f in second]


def test_seeds_vary_generated_scenarios():
    for workload in ("folner_search", "cover_spectral"):
        texts = {seed: {f.name: f.text for f in workloads.generate(workload, seed)}
                 for seed in range(4)}
        assert len({tuple(sorted(t.items())) for t in texts.values()}) > 1


@pytest.mark.parametrize("seed", [0, 3])
def test_every_seed_carries_the_bundled_scenarios_byte_for_byte(seed):
    carried = {}
    for workload in workloads.WORKLOADS:
        for item in workloads.generate(workload, seed):
            if item.name in BUNDLED:
                carried[item.name] = item.text
    assert sorted(carried) == BUNDLED
    for name, text in carried.items():
        assert text == (ROOT / "scenarios" / f"{name}.json").read_bytes()


def test_reference_covers_the_default_seed():
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        files = workloads.generate(workload, workloads.DEFAULT_SEED)
        checker = run_bench.Checker(files, reference["workloads"][workload])
        assert checker.unreferenced() == []
        for item in files:
            assert reference["workloads"][workload][item.name]["status"] == item.expected


# -- tracer ---------------------------------------------------------------


def _bindings():
    """Every coverlab module attribute and the traced method, by identity."""
    from coverlab import geometry

    snapshot = {(name, attr): id(value)
                for name, module in sys.modules.items()
                if name == "coverlab" or name.startswith("coverlab.")
                for attr, value in vars(module).items()}
    snapshot[("VoltageCover", "ball")] = id(geometry.VoltageCover.__dict__["ball"])
    return snapshot


def _run_bundled(name):
    from coverlab import cli, scenario

    scn = scenario.load_scenario(ROOT / "scenarios" / f"{name}.json")
    report, _c, _r, _s, _h = cli.execute_scenario(scn)
    return cli.render_json(report)


def test_wrappers_are_removed_after_a_traced_run():
    from coverlab import folner, transfer

    plain = _run_bundled("triangle_transfer")
    before = _bindings()
    original = folner.search_folner
    tr = tracer.Tracer()
    tr.install()
    assert transfer.search_folner is folner.search_folner is not original
    assert transfer.search_folner.__wrapped__ is original
    try:
        tr.phase = "run"
        traced = _run_bundled("triangle_transfer")
    finally:
        tr.uninstall()
    assert traced == plain
    assert _bindings() == before
    names = {span[tracer.NAME] for span in tr.spans}
    assert {"scenario.load_scenario", "cli.execute_scenario", "folner.search_folner",
            "transfer.build_witness", "spectrum.solve_dense"} <= names
    assert tr.apply_calls[0] > 0


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8]
    spans = [
        ["cli.execute_scenario", 0.0, 10.0, None, "x", "run", None],
        ["folner.search_folner", 1.0, 4.0, 0, "x", "run", {"examined": 5, "found": 1}],
        ["transfer.build_witness", 5.0, 9.0, 0, "x", "run", {"collar_ball_bound": 7}],
        ["geometry.cutoff", 6.0, 8.0, 2, "x", "run", {"vertices": 12}],
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    m = tracer.summarize(spans, apply_calls=11, traced_run_s=10.0, untraced_run_s=8.0)
    assert m["cli.self_s"] == 3.0
    assert m["folner.search_folner.self_s"] == 3.0
    assert m["transfer.build_witness.s"] == 4.0
    assert m["transfer.build_witness.self_s"] == 2.0
    assert m["geometry.self_s"] == 2.0
    assert m["trace.self_coverage"] == 1.0
    assert m["trace.overhead_s"] == 2.0
    assert m["folner.sets_per_s"] == 5 / 3
    assert m["transfer.collar_ball_bound"] == 7
    assert m["actions.apply_fn.calls"] == 11


# -- metric names ---------------------------------------------------------


def test_metric_names_match_benchmark_json():
    declared = _declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run_bench.END_TO_END
    assert [m["name"] for m in declared["per_layer"]] == list(tracer.PER_LAYER)
    for metric in declared["per_layer"]:
        assert metric["unit"] == run_bench.per_layer_unit(metric["name"])
    assert {w["name"]: w["why"] for w in declared["workloads"]} == workloads.WHY
    assert declared["paths"] == ["bench"]


# -- counts repeat --------------------------------------------------------

COUNTED = ("folner.sets_examined", "actions.apply_fn.calls",
           "spectrum.stability_interval.eigensolves", "transfer.collar_ball_bound")


def _traced_counts(tmp_path: Path, paths: list[Path], label: str) -> dict:
    out, spans = tmp_path / f"{label}.json", tmp_path / f"{label}.jsonl"
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--out", str(out),
                    "--trace", str(spans), "--", *map(str, paths)], check=True)
    apply_calls, records = tracer.read_spans(spans)
    m = tracer.summarize(records, apply_calls, 1.0, 1.0)
    return {k: v for k, v in m.items()
            if k in COUNTED or k.endswith((".calls", ".points"))}


def test_work_counts_repeat_across_traced_runs(tmp_path):
    small = [f for f in workloads.generate("folner_search", 5)
             if f.name in ("z_folner", "f2_on_z_folner", "perm_orbit", "z2_epsilons")]
    small += [f for f in workloads.generate("cover_spectral", 5)
              if f.name in ("triangle_interval", "k4_tree_spectrum", "torus_corollary",
                            "triangle_transfer")]
    paths = workloads.write(small, tmp_path / "scenarios")
    first = _traced_counts(tmp_path, paths, "first")
    second = _traced_counts(tmp_path, paths, "second")
    assert first == second
    assert first["spectrum.stability_interval.eigensolves"] > 0
    assert first["actions.apply_fn.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "folner_search",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
