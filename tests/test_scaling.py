"""Unit scaling: the same operator written in other units gives the same verdicts.

Multiplying every edge weight and every potential value by s > 0 turns
A(a) into s A(a) at every coupling a, so every sign, and with it every
verdict, must stay; window and eigenvalue fields scale by s, and the
stability interval, a set of couplings, does not move.
"""

import functools
import json
import pathlib
from decimal import Decimal

import pytest

from coverlab.cli import execute_scenario, render_json
from coverlab.scenario import parse_scenario
from coverlab.spectrum import DENSE_LIMIT

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
SCALES = ("1e-6", "1e-3", "1e3", "1e6")
WITH_POTENTIAL = ("k4_tree_spectrum", "torus_corollary", "tree_counterexample",
                  "triangle_interval", "triangle_transfer")

# scaled runs whose verdict departs today: the transfer's r* and its
# witness audit are not scale-free yet (ROADMAP item 14b).  At s = 1e-6
# r* falls to about 2e-7 and the transfers end inconclusive; at 1e3 and
# 1e6 the audit fails with "gradient term ... exceeds its bound".  Each
# must be asserted to depart until that lands, then moved out of here.
DEPARTS = {
    ("triangle_interval", "1e-6"), ("triangle_interval", "1e3"), ("triangle_interval", "1e6"),
    ("triangle_transfer", "1e-6"), ("triangle_transfer", "1e3"), ("triangle_transfer", "1e6"),
}

# keys whose values are verdicts or structure, equal at every scale
SAME = {"status", "outcome", "base_nonnegative", "cover_refuted", "transfer_status",
        "inclusion_ok", "equality_evidence", "zero_potential", "a", "radius", "size"}
# keys holding an eigenvalue or a window value, which scale by s
SCALED = {"lambda_min_base", "value"}
# a transfer's witness and its attempts, sized by r*, which is not
# scale-free yet (ROADMAP item 14b); its status is compared
WITNESS = {"report", "witness_support", "attempts"}
# |scaled - s x| may reach TOLERANCE s max(1, |x|): rounding of an
# eigensolve, relative to an operator norm of a few units.  A shift-invert
# window (above DENSE_LIMIT vertices) keeps its shift a fixed 1.0 below
# the Gershgorin floor, which at s = 1e-6 is far from the spectrum; its
# Lanczos values then agree to SPARSE_TOLERANCE only (measured: 5.6e-9).
TOLERANCE = 1e-12
SPARSE_TOLERANCE = 1e-7


def scaled(obj, s):
    """The scenario with every edge weight and potential value times s, exactly."""
    obj = json.loads(json.dumps(obj))
    k = Decimal(s)
    obj["base"]["edges"] = [[u, v, str(Decimal(w) * k)] for u, v, w in obj["base"]["edges"]]
    obj["potential"] = [str(Decimal(x) * k) for x in obj["potential"]]
    return obj


def report(obj):
    return json.loads(render_json(execute_scenario(parse_scenario(obj))[0]))


@functools.cache
def unscaled_report(name):
    return report(json.loads((SCENARIOS / f"{name}.json").read_text()))


def departures(ref, got, s, path="report"):
    """Each place where got is not ref at scale s, as a readable line."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref)} became {sorted(got)}"]
        out = []
        sparse = ref.get("size", 0) > DENSE_LIMIT
        for key, x in ref.items():
            y = got[key]
            where = f"{path}.{key}"
            if key in WITNESS:
                continue
            if key in SCALED and x is not None:
                tol = (SPARSE_TOLERANCE if sparse else TOLERANCE) * s * max(1.0, abs(float(x)))
                if not abs(float(y) - s * float(x)) <= tol:
                    out.append(f"{where}: {y} is not {s} x {x} within {tol:.1e}")
            elif key == "lambda_samples":
                # (a, lambda_min(a)) pairs of a corollary
                for i, ((a, lam), (b, mu)) in enumerate(zip(x, y)):
                    if a != b or not abs(float(mu) - s * float(lam)) <= (
                            TOLERANCE * s * max(1.0, abs(float(lam)))):
                        out.append(f"{where}[{i}]: ({b}, {mu}) is not ({a}, {s} x {lam})")
            elif key == "interval":
                if x != y:
                    out.append(f"{where}: {x} moved to {y}")
            elif isinstance(x, (dict, list)):
                out.extend(departures(x, y, s, where))
            elif key in SAME and x != y:
                out.append(f"{where}: {x!r} became {y!r}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} became {len(got)}"]
        return [line for i, (x, y) in enumerate(zip(ref, got))
                for line in departures(x, y, s, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", WITH_POTENTIAL)
def test_scaled_units_keep_every_verdict(name, s):
    ref = unscaled_report(name)
    assert ref["status"] == "ok"
    got = report(scaled(json.loads((SCENARIOS / f"{name}.json").read_text()), s))
    lines = departures(ref, got, float(s))
    if (name, s) in DEPARTS:
        assert lines, f"{name} at s = {s} keeps its verdicts now: move it out of DEPARTS"
    else:
        assert not lines, "\n".join(lines)


def test_departures_are_found():
    ref = unscaled_report("torus_corollary")
    got = json.loads(json.dumps(ref))
    assert departures(ref, got, 1.0) == []
    got["outcome"]["interval"]["upper"] = "1"
    got["outcome"]["lambda_samples"][0][1] = "-1"
    got["status"] = "violation"
    assert len(departures(ref, got, 1.0)) == 3
