"""The bench tracer still finds every coverlab name it wraps.

bench/tests is outside the tier-1 test paths, so this loads
bench/tracer.py by path and installs it: a rename in src/ of a traced
function, or of VoltageCover._ball_cache, fails here, and so does a
counter hook that no longer reads its result, or a traced coverlab
module that is not in sys.modules after the worker's imports.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from coverlab import actions, cli, geometry, scenario, transfer

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
BUNDLED = sorted((ROOT / "scenarios").glob("*.json"))


def load_tracer():
    spec = importlib.util.spec_from_file_location("coverlab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(tree_cover):
    tracer_module = load_tracer()
    ball = geometry.VoltageCover.__dict__["ball"]
    orbit_ball, boundary = actions.orbit_ball, actions.boundary
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert geometry.VoltageCover.__dict__["ball"] is not ball
        assert transfer.boundary is not boundary
        for _ in range(2):
            tree_cover.ball(1)
    finally:
        tracer.uninstall()
    assert geometry.VoltageCover.__dict__["ball"] is ball
    assert (actions.orbit_ball, actions.boundary, transfer.boundary) == (
        orbit_ball, boundary, boundary)
    spans = [span for span in tracer.spans if span[tracer_module.NAME] == "geometry.ball"]
    # the second query is a memo hit, read from _ball_cache before the call
    assert [span[tracer_module.COUNTERS]["hit"] for span in spans] == [0, 1]


def run_bundled():
    """The JSON report of every bundled scenario, loaded and run afresh."""
    return [cli.render_json(cli.execute_scenario(scenario.load_scenario(path))[0])
            for path in BUNDLED]


def test_traced_bundled_runs_match_untraced_and_record_every_span():
    tracer_module = load_tracer()
    assert len(BUNDLED) == 8
    plain = run_bundled()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = run_bundled()
    finally:
        tracer.uninstall()
    assert traced == plain
    recorded = {span[tracer_module.NAME] for span in tracer.spans}
    assert {target[2] for target in tracer_module.TARGETS} <= recorded
    assert tracer.apply_calls[0] > 0


def run_with_tracer(script: str) -> str:
    """Run script in a new interpreter from the repository root, with src
    on PYTHONPATH and bench/tracer.py's path as its one argument; return
    what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(TRACER)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# bench/worker.py's imports, then load_tracer's steps
WORKER_IMPORTS = """
import importlib.util, json, sys
import coverlab
from coverlab import cli, scenario
"""
LOAD_TRACER = """
spec = importlib.util.spec_from_file_location("coverlab_bench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
"""


def test_tracer_installs_after_the_worker_imports():
    # install reads every module it wraps from sys.modules, so geometry,
    # spectrum and transfer are there before their code has run
    script = WORKER_IMPORTS + LOAD_TRACER + """
tracer = tracer_module.Tracer()
tracer.install()
tracer.uninstall()
print("uninstalled")
"""
    assert run_with_tracer(script) == "uninstalled\n"


# bench/worker.py's order: the package, cli and scenario are imported and
# the tracer is installed before anything has loaded numpy or scipy
INSTALL_BEFORE_SOLVERS = WORKER_IMPORTS + """
from coverlab import spectrum
solvers_loaded = "scipy" in sys.modules
""" + LOAD_TRACER + """


def run():
    scn = scenario.load_scenario("scenarios/k4_tree_spectrum.json")
    return cli.render_json(cli.execute_scenario(scn)[0])


tracer = tracer_module.Tracer()
tracer.install()
try:
    traced = run()
finally:
    tracer.uninstall()
import scipy.linalg
print(json.dumps({
    "solvers_loaded_before_install": solvers_loaded,
    "dense_spans": sum(span[tracer_module.NAME] == "spectrum.solve_dense"
                       for span in tracer.spans),
    "same_report": traced == run(),
    "eigh_restored": spectrum.eigh is scipy.linalg.eigh,
}))
"""


def test_tracer_installed_before_the_solvers_load_still_traces_them():
    result = json.loads(run_with_tracer(INSTALL_BEFORE_SOLVERS).splitlines()[-1])
    assert result.pop("dense_spans") >= 1
    assert result == {"solvers_loaded_before_install": False, "same_report": True,
                      "eigh_restored": True}
