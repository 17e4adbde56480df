"""The bench tracer still finds every coverlab name it wraps.

bench/tests is outside the tier-1 test paths, so this loads
bench/tracer.py by path and installs it: a rename in src/ of a traced
function, or of VoltageCover._ball_cache, fails here, and so does a
counter hook that no longer reads its result.
"""

import importlib.util
import pathlib

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
            tree_cover.ball(tree_cover.tile(()), 1)
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
