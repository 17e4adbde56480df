"""Command line interface: exit codes, determinism, batch runs."""

import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import time
import warnings

import pytest

from coverlab import (
    FolnerVerificationError,
    finite_permutation_action,
    folner_sequence,
    free_group_action,
    free_quotient_lattice_action,
    lattice_action,
    orbit_ball,
    search_folner,
    verify_certificate,
)
from coverlab import (
    WitnessReport,
    corollary_check,
    counterexample_check,
    easy_direction_check,
    folner,
    geometry,
    interval_comparison,
    transfer_negativity,
)
from coverlab.cli import (
    _certificate_payload,
    _witness_payload,
    execute_scenario,
    main,
)
from oracles import folner_boundary_bound
from coverlab.scenario import _KEYWORDS, TASKS, load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def triangle_base():
    return {
        "mu": ["1", "1", "1"],
        "edges": [[0, 1, "1"], [0, 2, "1"], [1, 2, "1"]],
    }


def heavy_triangle_scenario(tmp_path):
    # w = 8 makes the witness gradient term overshoot its bound
    obj = {
        "name": "w8_triangle",
        "task": "transfer",
        "seed": 0,
        "base": {
            "mu": ["1", "1", "1"],
            "edges": [[0, 1, "8"], [0, 2, "8"], [1, 2, "8"]],
        },
        "potential": ["-0.05", "-0.05", "-0.05"],
        "fiber": {"kind": "lattice", "dimension": 1},
        "voltages": [[0, 1, [1]]],
        "params": {"a": "1", "alpha": 2},
    }
    return write_json(tmp_path / "w8_triangle.json", obj)


def nonfinite_triangle_scenario(tmp_path):
    # parses, but w / mu = 1e310 overflows the symmetrized operator
    obj = {
        "name": "nonfinite_triangle",
        "task": "interval",
        "seed": 0,
        "base": {
            "mu": ["1e-10", "1", "1"],
            "edges": [[0, 1, "1e300"], [0, 2, "1"], [1, 2, "1"]],
        },
        "potential": ["1", "-1", "0"],
        "fiber": {"kind": "lattice", "dimension": 1},
        "voltages": [[0, 1, [1]]],
        "params": {"a_samples": ["-1", "0", "1"], "radius": 3, "alpha": 2},
    }
    return write_json(tmp_path / "nonfinite_triangle.json", obj)


def run_main(capsys, *args):
    """`coverlab` with these arguments, in process: (exit code, stdout, stderr)."""
    try:
        code = main(list(args))
    except SystemExit as exc:  # a usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_cli(*args, timeout=600):
    """`python -m coverlab.cli` with these arguments, in a fresh interpreter:
    for the entry point itself and for a run that a time limit must kill."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "coverlab.cli", *args],
        capture_output=True, env=env, cwd=ROOT, timeout=timeout,
    )


def tree_transfer_scenario(tmp_path):
    obj = {
        "name": "tree_transfer",
        "task": "transfer",
        "seed": 0,
        "base": {
            "mu": ["1", "1", "1", "1"],
            "edges": [
                [0, 1, "1"],
                [0, 2, "1"],
                [0, 3, "1"],
                [1, 2, "1"],
                [1, 3, "1"],
                [2, 3, "1"],
            ],
        },
        "potential": ["-0.1", "-0.1", "-0.1", "-0.1"],
        "fiber": {"kind": "free_group", "rank": 3},
        "voltages": [[1, 2, [1]], [1, 3, [2]], [2, 3, [3]]],
        "params": {
            "a": "1",
            "alpha": 4,
            "budget": {"max_radius": 3, "subset_size_cap": 10, "max_subsets": 20000},
        },
    }
    return write_json(tmp_path / "tree_transfer.json", obj)


def test_run_ok_json(tmp_path, capsys):
    code = main(["run", str(SCENARIOS / "torus_corollary.json")])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["scenario"] == "torus_corollary"
    assert report["status"] == "ok"
    assert report["task"] == "corollary"


def test_zero_potential_corollary_reports_the_full_line(tmp_path, capsys):
    obj = {"name": "zero_corollary", "task": "corollary", "base": triangle_base(),
           "potential": ["0", "0", "0"]}
    path = str(write_json(tmp_path / "zero_corollary.json", obj))
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["outcome"]["outcome"] == "full line"
    assert report["outcome"]["interval"] == {
        "lower": "-inf", "upper": "inf", "endpoint_tolerance": "0"}
    out = tmp_path / "zero.csv"
    assert main(["run", path, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["zero_corollary,,,,-inf,inf,0"]


def corollary_scenario(tmp_path, mu, potential):
    obj = {"name": "corollary", "task": "corollary",
           "base": {**triangle_base(), "mu": mu}, "potential": potential,
           "params": {}}
    return str(write_json(tmp_path / "corollary.json", obj))


def test_corollary_accepts_an_exactly_balanced_potential(tmp_path, capsys):
    # balanced exactly, though a float sum of V mu reads -1.1e-16
    path = corollary_scenario(tmp_path, ["0.7", "1", "0.7"], ["-0.5", "-0.7", "1.5"])
    assert main(["run", path]) == 0
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    assert outcome["interval"] == {"lower": "-4.76837158203125e-07",
                                   "upper": "4.76837158203125e-07",
                                   "endpoint_tolerance": "4.76837158203125e-07"}
    assert [rq for _a, rq in outcome["rayleigh_constant"]] == ["0"] * 4


def test_corollary_refuses_floats_that_balance_only_as_decimals(tmp_path, capsys):
    # balanced as decimals, but the parsed floats sum to 5.55e-19
    path = corollary_scenario(tmp_path, ["0.3", "0.3", "2.5"], ["0.7", "0.5", "-0.144"])
    assert main(["run", path]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: {path}: scenario.potential: potential is not balanced: "
        "sum V mu = 5.551115123125788e-19\n")


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def complete_graph_cover(m):
    """K_m with a star of identity edges at 0 and one free letter on every other edge."""
    edges = [[u, v, "1"] for u in range(m) for v in range(u + 1, m)]
    voltages = [[u, v, [k]] for k, (u, v, _w) in enumerate(edges[m - 1:], 1)]
    return {
        "name": f"k{m}_cover", "task": "spectrum", "seed": 0,
        "base": {"mu": ["1"] * m, "edges": edges},
        "potential": ["0"] * m,
        "fiber": {"kind": "free_group", "rank": len(voltages)},
        "voltages": voltages,
        "params": {"a_samples": ["1"], "radii": [1]},
    }


def test_large_complete_graph_covers_parse_quickly(tmp_path):
    # the star of identity edges at 0 is the spanning tree, so each of the
    # m(m-1)/2 - (m-1) letters is one fiber generator
    for m, letters in ((10, 36), (20, 171), (46, 990)):
        path = write_json(tmp_path / f"k{m}.json", complete_graph_cover(m))
        start = time.perf_counter()
        scn = load_scenario(path)
        assert time.perf_counter() - start < 1.0
        assert scn.cover.fiber_action.generator_count == letters


def test_connected_cover_whose_walks_leave_the_window_parses(tmp_path):
    # C5 with net voltage 1 around its cycle covers the bi-infinite path;
    # every walk from 0@0 to 0@1 passes vertex 3 at fiber step 3, and the
    # gauged word of the one non-tree edge (2, 3) moves the fiber by 1
    obj = {
        "name": "c5_path", "task": "spectrum", "seed": 0,
        "base": {"mu": ["1"] * 5,
                 "edges": [[0, 1, "1"], [1, 2, "1"], [2, 3, "1"], [3, 4, "1"], [0, 4, "1"]]},
        "potential": ["0"] * 5,
        "fiber": {"kind": "lattice", "dimension": 1},
        "voltages": [[0, 1, [1]], [1, 2, [1]], [2, 3, [1]], [3, 4, [-1]], [4, 0, [-1]]],
        "params": {"a_samples": ["1"], "radii": [1]},
    }
    scn = load_scenario(write_json(tmp_path / "c5_path.json", obj))
    assert scn.cover.base.vertex_count == 5
    assert list(scn.cover.voltages) == [(2, 3)]
    assert scn.cover.fiber_action.translation_vectors == ((1,),)


def test_gauge_relabelled_triangle_transfers_as_the_bundled_one(tmp_path, capsys):
    # shifting vertex 2's fiber coordinates by 3 gives the same cover; the
    # tree gauge moves its net voltage 1 onto the non-tree edge (1, 2)
    obj = json.loads((SCENARIOS / "triangle_transfer.json").read_text())
    obj["voltages"] = [[0, 1, [1]], [0, 2, [1, 1, 1]], [1, 2, [1, 1, 1]]]
    path = write_json(tmp_path / "triangle_transfer.json", obj)
    assert load_scenario(path).cover.voltages == {(1, 2): (-1, -1, -1, 1, 1, 1, 1)}
    rows = []
    for scenario in (SCENARIOS / "triangle_transfer.json", path):
        code, out, _err = run_main(capsys, "run", str(scenario), "--format", "csv")
        assert code == 0
        rows.append(next(csv.DictReader(out.splitlines())))
    bundled, relabelled = rows
    assert relabelled["outcome"] == "transferred"
    assert (relabelled["b"], relabelled["c"]) == ("4", "37")
    assert float(relabelled.pop("Q_cover")) == pytest.approx(
        float(bundled.pop("Q_cover")), rel=1e-12, abs=0)
    assert relabelled == bundled


def test_alpha_past_the_point_budget_exits_1(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "triangle_transfer.json").read_text())
    obj["params"]["alpha"] = 10**400
    path = write_json(tmp_path / "triangle_transfer.json", obj)
    code, out, err = run_main(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: scenario.params.alpha: must be at most 1000000, "
                   f"got 1{'0' * 199}...\n")


def test_run_input_error_exit_1(tmp_path, capsys):
    obj = {
        "name": "bad_float",
        "task": "corollary",
        "seed": 0,
        "base": triangle_base(),
        "potential": [1.0, -1.0, 0.0],
        "params": {},
    }
    path = write_json(tmp_path / "bad_float.json", obj)
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "decimal string" in err


@pytest.mark.parametrize("field, value, path", [
    ("a_samples", ["1e400"], "scenario.params.a_samples[0]"),
    ("a_samples", ["nan"], "scenario.params.a_samples[0]"),
    ("radius", -1, "scenario.params.radius"),
])
def test_run_bad_interval_field_exit_1(tmp_path, capsys, field, value, path):
    obj = {
        "name": "bad_interval",
        "task": "interval",
        "base": triangle_base(),
        "potential": ["-0.05", "0.1", "-0.05"],
        "fiber": {"kind": "lattice", "dimension": 1},
        "voltages": [[0, 1, [1]]],
        "params": {"a_samples": ["1"], "radius": 1, "alpha": 2},
    }
    obj["params"][field] = value
    code = main(["run", str(write_json(tmp_path / "bad_interval.json", obj))])
    err = capsys.readouterr().err
    assert code == 1
    assert path in err
    assert "Traceback" not in err


# settings that no scenario set left the schema; each is refused at parse
@pytest.mark.parametrize("stem, edit, message", [
    ("z_folner", lambda params: params.update(budget={"max_points": 10}),
     "scenario.params.budget: unknown field 'max_points'"),
    ("triangle_interval", lambda params: params.update(tolerance="1e-6"),
     "scenario.params: unknown field 'tolerance'"),
    ("torus_corollary", lambda params: params.update(a_samples=["1"]),
     "scenario.params: unknown field 'a_samples'"),
    ("triangle_interval", lambda params: params.pop("alpha"),
     "scenario.params: missing required field 'alpha'"),
], ids=["max_points", "tolerance", "a_samples", "alpha"])
def test_run_refuses_a_removed_setting_exit_1(tmp_path, capsys, stem, edit, message):
    obj = json.loads((SCENARIOS / f"{stem}.json").read_text())
    edit(obj["params"])
    path = write_json(tmp_path / f"{stem}.json", obj)
    code, _out, err = run_main(capsys, "run", str(path))
    assert code == 1
    assert err.endswith(f"error: {path}: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("task", ["[]", "{}"])
def test_run_refuses_a_task_that_is_not_a_string(task, tmp_path, capsys):
    # an unhashable task used to end in a TypeError traceback
    path = tmp_path / "z_folner.json"
    path.write_text(_z_folner_text(task=task))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {path}: scenario.task: {task} is not one of folner, ")


def test_run_violation_exit_2(tmp_path, capsys):
    code = main(["run", str(heavy_triangle_scenario(tmp_path))])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "violation"
    assert "gradient term" in report["outcome"]["error"]


def test_run_nonfinite_operator_is_violation(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(capsys, "run", str(nonfinite_triangle_scenario(tmp_path)))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "violation"
    assert report["outcome"]["error"] == (
        "operator entry inf in row 0 (vertex (0, 0)) is not finite")
    assert "Traceback" not in err
    assert "Warning" not in err and caught == []


# a bundled scenario with one field changed so that a sum of finite terms
# leaves float range, and the sum the run names
OVERFLOWING_SUMS = {
    "triangle_transfer": (("potential",), ["1e308", "1e308", "-1e308"],
                          "potential part of the cover form"),
    "k4_tree_spectrum": (("base", "edges"),
                         [[0, 1, "1e308"], [0, 2, "1e308"], [0, 3, "1"], [1, 2, "1"],
                          [1, 3, "1"], [2, 3, "1"]],
                         "weighted degree of vertex 0"),
    "triangle_interval": (("potential",), ["1e308", "-1e308", "0"],
                          "potential part of the cover form"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_SUMS))
def test_run_overflowing_sum_is_violation(tmp_path, capsys, name):
    keys, value, sum_name = OVERFLOWING_SUMS[name]
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    owner = obj
    for key in keys[:-1]:
        owner = owner[key]
    owner[keys[-1]] = value
    code, out, err = run_main(capsys, "run", str(write_json(tmp_path / f"{name}.json", obj)))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "violation"
    assert report["outcome"]["error"] == f"{sum_name} overflows float range"
    assert "Traceback" not in err


# triangle_transfer with one param or section changed, and the status its
# run ends in; a failed run's CSV is its task's header and no rows
FAILED_TRANSFERS = {
    "violation": ("potential", ["1e308", "1e308", "-1e308"], 2),
    "budget-exceeded": ("alpha", 10**6, 3),
}


@pytest.mark.parametrize("status", sorted(FAILED_TRANSFERS))
def test_failed_run_csv_is_the_task_header(tmp_path, capsys, status):
    key, value, exit_code = FAILED_TRANSFERS[status]
    obj = json.loads((SCENARIOS / "triangle_transfer.json").read_text())
    (obj["params"] if key in obj["params"] else obj)[key] = value
    path = write_json(tmp_path / "triangle_transfer.json", obj)
    code, out, err = run_main(capsys, "run", str(path), "--format", "csv")
    assert code == exit_code
    assert out == ("scenario,a,lambda_min_base,r_star,epsilon_used,"
                   "b,c,Q_cover,final_bound,outcome\n")
    assert f"triangle_transfer: {status} (" in err


def test_batch_nonfinite_operator_is_violation(tmp_path, capsys):
    src = tmp_path / "jobs"
    src.mkdir()
    shutil.copy(SCENARIOS / "torus_corollary.json", src / "torus_corollary.json")
    nonfinite_triangle_scenario(src)
    out = tmp_path / "out"
    code = main(["batch", str(src), "--out", str(out)])
    capsys.readouterr()
    assert code == 2
    assert json.loads((out / "torus_corollary.json").read_text())["status"] == "ok"
    report = json.loads((out / "nonfinite_triangle.json").read_text())
    assert report["status"] == "violation"
    assert "is not finite" in report["outcome"]["error"]
    assert len((out / "summary.csv").read_text().splitlines()) == 3


def test_run_inconclusive_exit_3(tmp_path, capsys):
    code = main(["run", str(tree_transfer_scenario(tmp_path))])
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "inconclusive"
    assert report["outcome"]["status"] == "inconclusive"
    # no certificate, so no witness: only the best set's collar ratio
    assert report["outcome"]["report"] is None
    ratio = report["outcome"]["best_collar_ratio"]
    assert (ratio["numerator"], ratio["denominator"]) == (937, 187)


def test_run_bad_budget_field_exit_1(tmp_path, capsys):
    obj = json.loads(tree_transfer_scenario(tmp_path).read_text())
    obj["params"]["budget"]["max_subsets"] = -5
    path = write_json(tmp_path / "negative_budget.json", obj)
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "params.budget.max_subsets" in err


def test_run_deterministic_bytes(tmp_path):
    for fmt in ("json", "csv"):
        paths = []
        for k in (0, 1):
            out = tmp_path / f"report_{fmt}_{k}.{fmt}"
            code = main(
                [
                    "run",
                    str(SCENARIOS / "triangle_transfer.json"),
                    "--format",
                    fmt,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def schema_csv_columns():
    """Task -> its column list, from the "CSV" section of docs/schema.md."""
    text = (ROOT / "docs" / "schema.md").read_text()
    section = text[text.index("### CSV"):text.index("### Batch")]
    return dict(re.findall(r"^- (\w+): `([^`]*)`$", section, re.M))


CSV_SCENARIOS = {
    "folner": "z_folner",
    "spectrum": "k4_tree_spectrum",
    "interval": "triangle_interval",
    "transfer": "triangle_transfer",
    "counterexample": "tree_counterexample",
    "corollary": "torus_corollary",
}


@pytest.fixture(scope="session")
def csv_run(tmp_path_factory):
    """`coverlab run --format csv` on a bundled scenario, in process and once
    per scenario: name -> (exit code, report bytes)."""
    out_dir = tmp_path_factory.mktemp("csv_reports")

    @functools.cache
    def run(name):
        out = out_dir / f"{name}.csv"
        code = main(["run", str(SCENARIOS / f"{name}.json"), "--format", "csv",
                     "--out", str(out)])
        return code, out.read_bytes()

    return run


@pytest.mark.parametrize("task", sorted(CSV_SCENARIOS))
def test_csv_header_matches_schema(csv_run, task):
    assert load_scenario(SCENARIOS / f"{CSV_SCENARIOS[task]}.json").task == task
    code, report = csv_run(CSV_SCENARIOS[task])
    assert code == 0
    header = report.decode("utf-8").splitlines()[0]
    assert header.split(",") == schema_csv_columns()[task].split(", ")


def test_run_refuses_box_doublings_field(tmp_path, capsys):
    # the box is verified at its first side, so there is no doubling to budget
    obj = json.loads((SCENARIOS / "z_folner.json").read_text())
    obj["params"]["budget"] = {"max_box_doublings": 0}
    code = main(["run", str(write_json(tmp_path / "doublings.json", obj))])
    assert code == 1
    assert "scenario.params.budget: unknown field 'max_box_doublings'" in capsys.readouterr().err


def test_run_refuses_max_halvings_field(tmp_path, capsys):
    # the halving budget is the fixed transfer.MAX_HALVINGS
    obj = json.loads((SCENARIOS / "triangle_transfer.json").read_text())
    obj["params"]["max_halvings"] = 3
    code = main(["run", str(write_json(tmp_path / "halvings.json", obj))])
    assert code == 1
    assert "scenario.params: unknown field 'max_halvings'" in capsys.readouterr().err


def test_run_refuses_oversized_quotient_exit_1(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "z_folner.json").read_text())
    obj["fiber"] = {"kind": "quotient", "vectors": [[1]] * 1001}
    code, _out, err = run_main(capsys, "run", str(write_json(tmp_path / "quotient.json", obj)))
    assert code == 1
    assert ("scenario.fiber: quotient takes at most 1000 vectors of dimension at most "
            "1000, got 1001 of dimension 1") in err
    assert "Traceback" not in err


def test_interval_endpoint_past_float_resolution_returns(tmp_path, capsys, capped_probes):
    # the upper endpoint is near 1.5e10, where floats are 2^-19 apart,
    # wider than the default tolerance 1e-6
    obj = json.loads((SCENARIOS / "triangle_interval.json").read_text())
    obj["potential"] = ["1", "-1e-10", "0"]
    assert main(["run", str(write_json(tmp_path / "tiny.json", obj))]) == 0
    interval = json.loads(capsys.readouterr().out)["outcome"]["interval"]
    assert interval["endpoint_tolerance"] == repr(2.0**-20)
    assert float(interval["upper"]) == pytest.approx(1.5e10, rel=1e-6)


def test_witness_payload_keys_are_the_report_fields():
    scn = load_scenario(SCENARIOS / "triangle_transfer.json")
    out = transfer_negativity(scn.cover, scn.potential, scn.params["a"], scn.params["alpha"])
    payload = _witness_payload(scn.cover, out.report)
    names = {f.name for f in dataclasses.fields(WitnessReport)}
    assert set(payload) == names | {"collar_ratio", "verified"}


def test_failing_box_is_a_violation_not_a_retry(monkeypatch, capsys):
    sides = []

    def sparse_box(action, side):
        sides.append(side)
        return frozenset({(0,), (2,)})

    monkeypatch.setattr(folner, "translation_box", sparse_box)
    with pytest.raises(FolnerVerificationError):
        search_folner(lattice_action(1), "0.5")
    assert sides == [4]
    sides.clear()
    code = main(["run", str(SCENARIOS / "z_folner.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "violation"
    assert len(sides) == 1


def test_budget_flag_forces_exhaustion(tmp_path, capsys):
    # every 1/1000-Folner set of Z^2 has at least 2000^2 points, over the
    # point budget, so it is refused by the size floor before anything is searched
    obj = json.loads((SCENARIOS / "z2_folner.json").read_text())
    obj["params"]["epsilon"] = "0.001"
    code = main(["run", str(write_json(tmp_path / "z2_folner.json", obj))])
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "budget-exceeded"
    assert report["outcome"]["error"] == (
        "every 1/1000-Folner set of lattice(2) has at least (2/epsilon)^2 = 2000^2 "
        "points, above the point budget 1000000")


def test_cutoff_over_the_point_budget_exits_3(capsys, monkeypatch):
    # the witness set has 37 tiles of 3 vertices: 111 > 100
    monkeypatch.setattr(geometry, "DEFAULT_POINT_BUDGET", 100)
    code = main(["run", str(SCENARIOS / "triangle_transfer.json")])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "budget-exceeded"
    assert report["outcome"]["error"] == ("cutoff over 37 tiles of 3 vertices holds 111 "
                                          "vertices, above the point budget 100")


def test_budget_environment_variable_is_ignored(capsys, monkeypatch):
    # the scenario file is the only route to the search limits
    path = str(SCENARIOS / "z_folner.json")
    assert main(["run", path]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("COVERLAB_BUDGET", "50")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == plain


# each task's library call; its handler passes the scenario's params to it
LIBRARY_CALLS = {
    "folner": folner_sequence,
    "spectrum": easy_direction_check,
    "interval": interval_comparison,
    "transfer": transfer_negativity,
    "counterexample": counterexample_check,
    "corollary": corollary_check,
}


def test_every_stored_param_is_a_keyword_of_its_library_call():
    assert LIBRARY_CALLS.keys() == TASKS.keys()
    for task, spec in TASKS.items():
        stored = {_KEYWORDS.get(key, key) for key in spec.required + spec.optional}
        if task == "transfer":
            stored.remove("radius")  # the handler's own Dirichlet window
        keywords = inspect.signature(LIBRARY_CALLS[task]).parameters
        assert stored <= keywords.keys(), (task, stored - keywords.keys())
    # only the search tasks take a budget
    assert [task for task, spec in TASKS.items() if "budget" in spec.optional] == [
        "folner", "interval", "transfer", "counterexample"]


def test_batch_directory(tmp_path, capsys):
    src = tmp_path / "jobs"
    src.mkdir()
    shutil.copy(SCENARIOS / "torus_corollary.json", src / "torus_corollary.json")
    shutil.copy(SCENARIOS / "z_folner.json", src / "z_folner.json")
    tree_transfer_scenario(src)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(["batch", str(src), "--out", str(out_a)])
    summary_a = capsys.readouterr().out
    code_b = main(["batch", str(src), "--out", str(out_b)])
    summary_b = capsys.readouterr().out

    # worst severity wins: tree_transfer is inconclusive
    assert code_a == code_b == 3
    assert summary_a == summary_b
    for name in ("torus_corollary", "z_folner", "tree_transfer"):
        ja = (out_a / f"{name}.json").read_bytes()
        jb = (out_b / f"{name}.json").read_bytes()
        assert ja == jb
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    summary = (out_a / "summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,task,status,exit,detail"
    assert len(summary) == 4


def test_run_and_batch_log_a_runtime_input_error_alike(tmp_path, capsys):
    # at a = 0 the base has no negativity to transfer: an input error that
    # only running the scenario finds
    src = tmp_path / "jobs"
    src.mkdir()
    obj = json.loads((SCENARIOS / "triangle_transfer.json").read_text())
    obj["params"]["a"] = "0"
    path = write_json(src / "triangle_transfer.json", obj)
    line = re.compile(r"^\[coverlab\] triangle_transfer: input-error \(.+\) in \d+\.\d{3}s$",
                      re.MULTILINE)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(line.findall(err)) == 1
    assert "\nerror: " in err
    assert main(["batch", str(src), "--out", str(tmp_path / "out")]) == 1
    assert len(line.findall(capsys.readouterr().err)) == 1


def _bundled_with(name, **params):
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    obj["params"].update(params)
    return obj


NOTHING_TO_TRANSFER = (r"scenario\.params\.a: base lambda_min = \S+ is nonnegative; "
                       "nothing to transfer")

# scenarios that parse but are refused once they run, with the detail
# (field path and message) their refusal reads, as a pattern
RUN_TIME_REFUSALS = {
    "corollary": ({"name": "unbalanced", "task": "corollary", "base": triangle_base(),
                   "potential": ["1", "-1", "-1"]},
                  re.escape("scenario.potential: potential is not balanced: sum V mu = -1.0")),
    "transfer": (_bundled_with("triangle_transfer", a="0"), NOTHING_TO_TRANSFER),
    "counterexample": (_bundled_with("tree_counterexample", a="0"), NOTHING_TO_TRANSFER),
}


@pytest.mark.parametrize("task", sorted(RUN_TIME_REFUSALS))
def test_run_time_refusal_names_its_file_and_field(task, tmp_path, capsys):
    # run printed only the library's message, with neither file nor field
    obj, detail = RUN_TIME_REFUSALS[task]
    src = tmp_path / "jobs"
    src.mkdir()
    path = write_json(src / f"{obj['name']}.json", obj)
    code, _out, err = run_main(capsys, "run", str(path))
    assert code == 1
    assert re.fullmatch(f"error: {re.escape(str(path))}: {detail}", err.splitlines()[-1])
    code, _out, _err = run_main(capsys, "batch", str(src), "--out", str(tmp_path / "out"))
    assert code == 1
    with open(tmp_path / "out" / "summary.csv", newline="", encoding="utf-8") as fh:
        [row] = csv.DictReader(fh)
    assert row["status"] == "input-error"
    assert re.fullmatch(detail, row["detail"])


@pytest.mark.parametrize("command", ["run", "batch"])
def test_help_names_no_override(command, capsys):
    # a run reads its scenario file and nothing else
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    for text in ("--seed", "--budget", "--radius", "overrid"):
        assert text not in out


@pytest.mark.parametrize("flag, value", [("--seed", "9"), ("--budget", "50"),
                                         ("--radius", "1")])
def test_removed_override_flag_is_a_usage_error(flag, value, tmp_path, capsys):
    src = tmp_path / "jobs"
    src.mkdir()
    path = shutil.copy(SCENARIOS / "z_folner.json", src / "z_folner.json")
    for args in (["run", str(path), flag, value], ["batch", str(src), flag, value]):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("usage: coverlab")
        assert err.endswith(f"coverlab: error: unrecognized arguments: {flag} {value}\n")
        assert "Traceback" not in err
    assert not (src / "_reports").exists()


def test_batch_refuses_a_negative_epsilon_before_any_run(tmp_path, capsys):
    src = tmp_path / "jobs"
    src.mkdir()
    shutil.copy(SCENARIOS / "torus_corollary.json", src / "torus_corollary.json")
    obj = json.loads((SCENARIOS / "z_folner.json").read_text())
    obj["params"]["epsilon"] = "-0.5"
    write_json(src / "z_folner.json", obj)
    out = tmp_path / "out"
    code = main(["batch", str(src), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {src / 'z_folner.json'}: "
                   "scenario.params.epsilon: must be at least 0, got '-0.5'\n")
    assert not out.exists()


def test_run_out_in_a_missing_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["run", str(SCENARIOS / "z_folner.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert not out.parent.exists()


def test_batch_out_that_is_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["batch", str(SCENARIOS), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "batch"])
def test_scenario_that_is_not_utf8_exits_1(command, tmp_path, capsys):
    src = tmp_path / "jobs"
    src.mkdir()
    path = src / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    target = path if command == "run" else src
    assert main([command, str(target)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: invalid start byte at byte 0\n")


def test_batch_has_no_jobs_option(tmp_path, capsys):
    # batch runs one scenario at a time; --jobs is a usage error, exit 1
    with pytest.raises(SystemExit) as exc:
        main(["batch", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["run", "scenarios/z_folner.json", "--out"],
     "coverlab run: error: argument --out: expected one argument"),
    (["run"], "coverlab run: error: the following arguments are required: path"),
    (["batch", "scenarios", "--jobs", "2"], "coverlab: error: unrecognized arguments: --jobs 2"),
])
def test_usage_error_exits_1(args, message, capsys):
    # 2 is reserved for an audited inequality that failed
    code, _out, err = run_main(capsys, *args)
    assert code == 1
    assert err.startswith("usage: coverlab")
    assert err.endswith(message + "\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["run", "--help"]])
def test_help_and_version_exit_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["run", "batch"])
def test_integer_past_the_digit_limit_exits_1(command, tmp_path, capsys):
    src = tmp_path / "jobs"
    src.mkdir()
    path = src / "z_folner.json"
    text = (SCENARIOS / "z_folner.json").read_text()
    path.write_text(text.replace('"seed": 0', '"seed": 1' + "0" * 5000))
    code, _out, err = run_main(capsys, command, str(path if command == "run" else src))
    assert code == 1
    assert err == (f"error: {path}: scenario.seed: integer of 5001 digits, "
                   "above the limit of 4300 digits\n")


@pytest.mark.parametrize("params, field", [
    ({"epsilon": "1e-4300"}, "scenario.params.epsilon"),
    ({"epsilons": ["0.5", "1.6e-4300"]}, "scenario.params.epsilons[1]"),
])
def test_epsilon_too_long_to_print_exits_1(params, field, tmp_path, capsys):
    obj = json.loads((SCENARIOS / "z_folner.json").read_text())
    obj["params"] = params
    path = write_json(tmp_path / "z_folner.json", obj)
    code, _out, err = run_main(capsys, "run", str(path))
    assert code == 1
    assert err == (f"error: {path}: {field}: a ratio whose numerator or denominator, "
                   "doubled, has more than 4300 digits cannot be printed\n")


def test_longest_printable_epsilon_runs(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "z_folner.json").read_text())
    obj["params"] = {"epsilon": "1e-4299"}
    assert main(["run", str(write_json(tmp_path / "z_folner.json", obj))]) == 3
    error = json.loads(capsys.readouterr().out)["outcome"]["error"]
    assert error.endswith(f"= {2 * 10**4299}^1 points, above the point budget 1000000")


def test_dense_quotient_refusal_is_short(tmp_path, capsys):
    # the quotient is named by its vector count once its listing is long
    rng = random.Random(3)
    vectors = [[rng.randint(-3, 3) for _ in range(300)] for _ in range(300)]
    obj = {"name": "dense", "task": "folner", "fiber": {"kind": "quotient", "vectors": vectors},
           "params": {"epsilon": "0.5"}}
    out = tmp_path / "dense_report.json"
    assert main(["run", str(write_json(tmp_path / "dense.json", obj)), "--out", str(out)]) == 3
    error = json.loads(out.read_text())["outcome"]["error"]
    assert error == ("every 1/2-Folner set of free_quotient(300 vectors of dimension 300) has "
                     "at least (2/epsilon)^10 = 4^10 points, above the point budget 1000000")
    assert len(out.read_text()) < 1000


def test_batch_duplicate_names(tmp_path, capsys):
    src = tmp_path / "dup"
    src.mkdir()
    obj = {
        "name": "same",
        "task": "corollary",
        "seed": 0,
        "base": triangle_base(),
        "potential": ["1", "-1", "0"],
        "params": {},
    }
    write_json(src / "one.json", obj)
    write_json(src / "two.json", obj)
    code = main(["batch", str(src)])
    err = capsys.readouterr().err
    assert code == 1
    assert "one.json" in err and "two.json" in err


def test_batch_empty_dir(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    assert main(["batch", str(src)]) == 1


def test_batch_on_a_file_exits_1(capsys):
    path = SCENARIOS / "z_folner.json"
    assert main(["batch", str(path)]) == 1
    assert capsys.readouterr().err == f"error: not a directory: {path}\n"


def test_subnormal_mu_exits_1_naming_its_field(tmp_path, capsys):
    # it used to parse, then end as a violation: operator entry inf in row 1
    obj = json.loads((SCENARIOS / "triangle_transfer.json").read_text())
    obj["base"]["mu"][1] = "1e-320"
    path = write_json(tmp_path / "triangle_transfer.json", obj)
    code, out, err = run_main(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: scenario.base: mu[1]: must be at least "
                   f"2.2250738585072014e-308, got 1e-320\n")


@pytest.mark.parametrize("field, value, maximum", [("subset_size_cap", 1500, 14),
                                                   ("max_subsets", 200_001, 200_000),
                                                   ("max_radius", 13, 12)])
def test_search_limit_above_its_default_exits_1(field, value, maximum, tmp_path, capsys):
    # a search limit may lower its default, never raise it: max_subsets = 2^63
    # on tree_counterexample ran for minutes before it was refused at parse
    # (the value tested is the least refused one, so a regression runs briefly)
    obj = json.loads((SCENARIOS / "tree_counterexample.json").read_text())
    obj["params"]["budget"][field] = value
    path = write_json(tmp_path / "tree_counterexample.json", obj)
    code, out, err = run_main(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: scenario.params.budget.{field}: "
                   f"must be at most {maximum}, got {value}\n")


def reference_digests():
    # bench/reference.json holds the sha256 of `coverlab run` on every
    # scenario the benchmark runs, grouped by workload; it is read only
    table = json.loads((ROOT / "bench" / "reference.json").read_text())
    return {
        name: entry
        for entries in table["workloads"].values()
        for name, entry in entries.items()
    }


@pytest.fixture(scope="session")
def batch_reports(tmp_path_factory):
    """One `coverlab batch` over the bundled scenarios, through the entry
    point in a fresh interpreter as the benchmark runs it: name -> (exit
    code from summary.csv, report bytes, empty when none was written)."""
    out = tmp_path_factory.mktemp("batch_reports")
    run_cli("batch", str(SCENARIOS), "--out", str(out))
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reports = {}
    for row in rows:
        report = out / f"{row['scenario']}.json"
        reports[row["scenario"]] = (int(row["exit"]),
                                    report.read_bytes() if report.exists() else b"")
    return reports


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_report_matches_reference_digest(path, batch_reports):
    entry = reference_digests()[path.stem]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["input_sha256"]
    code, report = batch_reports[path.stem]
    assert code == entry["exit"]
    assert hashlib.sha256(report).hexdigest() == entry["report_sha256"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 28: a spectral report's bytes depend on "
                   "the BLAS thread count and CPU kernel")
@pytest.mark.parametrize("variable, value", [
    ("OPENBLAS_NUM_THREADS", "1"), ("OPENBLAS_CORETYPE", "Haswell"),
])
def test_spectral_report_bytes_depend_on_the_blas(variable, value, monkeypatch):
    # the variable is set for the child only: this process's BLAS is already loaded
    monkeypatch.setenv(variable, value)
    proc = run_cli("run", str(SCENARIOS / "triangle_interval.json"))
    assert proc.returncode == 0
    entry = reference_digests()["triangle_interval"]
    assert hashlib.sha256(proc.stdout).hexdigest() == entry["report_sha256"]


# sha256 of `coverlab run --format csv` on each bundled scenario; every run exits 0
CSV_REPORT_SHA256 = {
    "f2_on_z_folner": "a366285b5e8c09f97099f3db481e48d6c411ecb8a05cca78f6704d4e4852be87",
    "k4_tree_spectrum": "537d573f037834efce95932851bc021c59567221e90933ec636eff7c9dc58325",
    "torus_corollary": "a10030b46b973bc43c1e9915e964fb0076b292dd2615144efe44aa4d539d7a4d",
    "tree_counterexample": "180318c25432e42a1bfef960d56983f5c2caf2cd2c43b3b6336e33e93e2a416d",
    "triangle_interval": "a55de36869df1e1ceae82e99015bb692b0359527848a3edde42bc8c198013488",
    "triangle_transfer": "606a4865a841049f5dc0dcbb50b83eba4c0015185199c3eb3e75db8ad9307af4",
    "z2_folner": "0b915917857b4ca7598fb8e2ecfb27bef483b6e075c0577adc19be1e7b10248a",
    "z_folner": "d4d7315819c541a431f94cac6e37bc039a58bf2f659bfc9e3891af3af8f14e47",
}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_csv_report_matches_pinned_digest(path, csv_run):
    code, report = csv_run(path.stem)
    assert code == 0
    assert hashlib.sha256(report).hexdigest() == CSV_REPORT_SHA256[path.stem]


def _payload_counts(action, members):
    cert = verify_certificate(action, members, 2)  # every ratio is at most 2
    payload = _certificate_payload(cert)
    return payload["boundary_size"], payload["signed_exit_sum"]


def test_bundled_certificate_counts_match_boundary_bound():
    # the payload reads its counts off the verified certificate; recount
    # them independently on every certificate the bundled folner runs find
    checked = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        scn = load_scenario(path)
        if scn.task != "folner":
            continue
        reports = folner_sequence(scn.fiber, scn.params["epsilons"], scn.params.get("budget"))
        for cert in (rep.certificate for rep in reports if rep.certificate):
            payload = _certificate_payload(cert)
            assert (payload["boundary_size"], payload["signed_exit_sum"]) == \
                folner_boundary_bound(scn.fiber, cert.members)
            checked += 1
    assert checked == 3


CERTIFICATE_FAMILIES = {
    "Z1": lattice_action(1),
    "Z2": lattice_action(2),
    "Z3": lattice_action(3),
    "quotient-repeated": free_quotient_lattice_action([(1, 0), (1, 0), (0, 1)]),
    "quotient-zero": free_quotient_lattice_action([(1,), (0,)]),
    # the origin's orbit is {0, 1, 2, 3}; generator 2 fixes 0 and 1 and swaps 2 and 3
    "permutation-fixed-points": finite_permutation_action(
        [(1, 2, 3, 0, 4, 5), (0, 1, 3, 2, 4, 5)], 6),
    "F2": free_group_action(2),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_FAMILIES))
def test_certificate_counts_match_boundary_bound(name):
    action = CERTIFICATE_FAMILIES[name]
    rng = random.Random(5)
    sets = [orbit_ball(action, r).points for r in range(4)]
    # sampled in sort order, so the seeded draws are fixed
    pool = sorted(sets[-1], key=action.sort_key)
    for _ in range(10):
        sets.append(rng.sample(pool, rng.randrange(1, len(pool) + 1)))
    for members in sets:
        assert _payload_counts(action, members) == folner_boundary_bound(action, members)


def in_sort_order(action, points):
    """The points as the library hands them back, a set, checked to iterate
    out of sort order, and then encoded in sort order."""
    ordered = sorted(points, key=action.sort_key)
    assert isinstance(points, frozenset) and list(points) != ordered
    return [action.encode_fn(x) for x in ordered]


def test_the_report_writer_orders_the_points_it_lists():
    # the library hands back point sets; cli alone puts a report's lists in
    # the fiber action's sort order
    scn = load_scenario(SCENARIOS / "z2_folner.json")
    cert = folner_sequence(scn.fiber, **scn.params)[-1].certificate
    run = execute_scenario(scn)[0]["outcome"]["runs"][-1]
    assert run["certificate"]["members"] == in_sort_order(scn.fiber, cert.members)

    scn = load_scenario(SCENARIOS / "triangle_transfer.json")
    params = {k: v for k, v in scn.params.items() if k != "radius"}
    witness = transfer_negativity(scn.cover, scn.potential, seed=scn.seed, **params).report
    report = execute_scenario(scn)[0]["outcome"]["report"]
    fiber = scn.cover.fiber_action
    assert report["members"] == in_sort_order(fiber, witness.members)
    assert report["collar_tiles"] == in_sort_order(fiber, witness.collar_tiles)


def test_permutation_family_moves_and_fixes_orbit_points():
    # generator 2 must both fix and move points the certificates reach
    action = CERTIFICATE_FAMILIES["permutation-fixed-points"]
    orbit = orbit_ball(action, 3).points
    images = [action.apply_fn(2, x) for x in orbit]
    assert any(y == x for x, y in zip(orbit, images))
    assert any(y != x for x, y in zip(orbit, images))


@pytest.mark.parametrize("command", ["run", "batch"])
def test_overlong_name_is_refused_briefly(command, tmp_path, capsys):
    # <name>.json must fit a file name; batch used to run the scenario and
    # then fail writing its report, echoing the name twice
    src = tmp_path / "jobs"
    src.mkdir()
    path = src / "long.json"
    path.write_text(_z_folner_text(name=json.dumps("n" * 100_000)))
    code, out, err = run_main(capsys, command, str(path if command == "run" else src))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and "is not a valid identifier" in err
    assert len(err.encode()) < 1000
    assert out == ""
    assert sorted(p.name for p in src.iterdir()) == ["long.json"]


def _z_folner_text(**fields):
    """z_folner.json as text, with each given top-level field's JSON text."""
    obj = json.loads((SCENARIOS / "z_folner.json").read_text())
    for key in fields:
        obj[key] = f"@{key}@"
    text = json.dumps(obj)
    for key, value in fields.items():
        text = text.replace(f'"@{key}@"', value)
    return text


# scenario texts that each used to end in a traceback, a run past memory
# or an error message of millions of characters
UNBOUNDED_INPUTS = {
    "deep-nesting": _z_folner_text(seed="[" * 100_000 + "]" * 100_000),
    "quotient-shape": _z_folner_text(fiber=json.dumps(
        {"kind": "quotient", "vectors": [[1] * 1000] * 999 + [[1] * 999]})),
    "repeated-permutation-entry": _z_folner_text(fiber=json.dumps(
        {"kind": "finite_permutation", "degree": 100_000,
         "generators": [[0] + list(range(1, 100_000))[:-1] + [0]]})),
    "seed-list": _z_folner_text(seed=json.dumps([0] * 10**6)),
    "max-subsets-past-memory": _z_folner_text(params=(
        '{"epsilon": "1e-4290", "budget": {"max_subsets": ' + "9" * 4299 + "}}")),
}


@pytest.mark.parametrize("name", sorted(UNBOUNDED_INPUTS))
def test_unbounded_input_is_refused_quickly_and_briefly(name, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(UNBOUNDED_INPUTS[name])
    # a run past the bound is killed, so a box past memory cannot fill it
    proc = run_cli("run", str(path), timeout=5)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert len(proc.stderr) < 2000
    assert len(err.removeprefix(f"error: {path}: ")) < 1000

