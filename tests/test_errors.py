"""One rule for an integer argument: errors._check_int and every library site that uses it."""

import dataclasses
import pathlib
import time

import numpy as np
import pytest

from coverlab import (
    InputError,
    SearchBudget,
    WeightedGraph,
    build_cover,
    cutoff,
    dirichlet_window,
    finite_permutation_action,
    free_group_action,
    lattice_action,
    orbit_ball,
    regular_tree_dirichlet_value,
    required_ratio,
)
from coverlab import geometry
from coverlab.errors import _check_int
from coverlab.folner import translation_box
from coverlab.scenario import load_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FLAT_V3 = (-0.05, -0.05, -0.05)


def test_check_int_accepts_an_integer_in_range():
    assert _check_int(3, "n", 1, 3) == 3
    assert _check_int(-7, "n") == -7
    value = _check_int(np.int64(2), "n", 0)
    assert value == 2 and type(value) is int


@pytest.mark.parametrize("value", [True, np.True_, 2.0, 2.5, "2", None, np.float64(2)])
def test_check_int_refuses_what_is_not_an_integer(value):
    with pytest.raises(InputError) as err:
        _check_int(value, "n", 0)
    assert str(err.value) == f"n: expected an integer, got {value!r}"


def test_check_int_words_a_bound_and_bounds_its_echo():
    with pytest.raises(InputError, match="^n: must be at least 1, got 0$"):
        _check_int(0, "n", 1)
    with pytest.raises(InputError, match="^n: must be at most 5, got 6$"):
        _check_int(6, "n", 1, 5)
    with pytest.raises(InputError) as err:
        _check_int(10**5000, "n", maximum=5)
    assert str(err.value) == "n: must be at most 5, got <int past the int-to-str digit limit>"


def _triangle():
    return WeightedGraph([1.0] * 3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def _triangle_cover():
    return build_cover(_triangle(), lattice_action(1), {(0, 1): (1,)})


# every library site of the rule: its label, and a call that takes the
# checked integer n (valid at 2) and returns something comparable
SITES = {
    "lattice_action": ("lattice dimension", lambda n: lattice_action(n).name),
    "free_group_action": ("free group rank", lambda n: free_group_action(n).name),
    "finite_permutation_action": (
        "degree", lambda n: finite_permutation_action([(1, 0)], n).name),
    "orbit_ball": ("radius", lambda n: orbit_ball(lattice_action(1), (0,), n).points),
    "VoltageCover.ball": ("radius", lambda n: _triangle_cover().ball(n)),
    "dirichlet_window": (
        "radius", lambda n: dirichlet_window(_triangle_cover(), n, FLAT_V3, 1.0).size),
    "cutoff": ("alpha", lambda n: cutoff(_triangle_cover(), [(0,)], n).values),
    "required_ratio": (
        "alpha", lambda n: required_ratio(_triangle(), (1.0,) * 3, n, FLAT_V3, 1.0)),
    "regular_tree_dirichlet_value degree": (
        "tree degree", lambda n: regular_tree_dirichlet_value(n, 2)),
    "regular_tree_dirichlet_value radius": (
        "radius", lambda n: regular_tree_dirichlet_value(3, n)),
    "translation_box": ("box side", lambda n: translation_box(lattice_action(2), n, 100)),
    "SearchBudget": ("max_radius", lambda n: SearchBudget(max_radius=n)),
}


@pytest.mark.parametrize("value", ["2", 2.5, True])
@pytest.mark.parametrize("site", sorted(SITES))
def test_site_refuses_a_value_that_is_not_an_integer(site, value):
    label, call = SITES[site]
    with pytest.raises(InputError) as err:
        call(value)
    assert str(err.value) == f"{label}: expected an integer, got {value!r}"


@pytest.mark.parametrize("site", sorted(SITES))
def test_site_takes_a_numpy_integer_as_the_int(site):
    _label, call = SITES[site]
    assert call(np.int64(2)) == call(2)


def test_ball_refuses_true_once_radius_1_is_memoized():
    cover = _triangle_cover()
    cover.ball(1)
    with pytest.raises(InputError, match="^radius: expected an integer, got True$"):
        cover.ball(True)


def _count_steps(action):
    steps = []

    def apply_fn(g, x):
        steps.append(g)
        return action.apply_fn(g, x)
    return dataclasses.replace(action, apply_fn=apply_fn), steps


def test_fractional_radius_is_refused_before_any_search(monkeypatch):
    # radius 2 is a 22-vertex window of this F3 cover; a radius that no
    # BFS depth equals used to grow the window to the point budget
    cover = load_scenario(SCENARIOS / "tree_counterexample.json").cover

    def no_bfs(*_args):
        raise AssertionError("a search ran for a radius that is not an integer")

    monkeypatch.setattr(geometry, "bfs_depths", no_bfs)
    start = time.perf_counter()
    with pytest.raises(InputError, match=r"^radius: expected an integer, got 2\.5$"):
        dirichlet_window(cover, 2.5, (-0.1,) * cover.base.vertex_count, 1.0)
    action, steps = _count_steps(cover.fiber_action)
    with pytest.raises(InputError, match=r"^radius: expected an integer, got 2\.5$"):
        orbit_ball(action, action.origin, 2.5)
    assert time.perf_counter() - start < 0.1
    assert steps == []
