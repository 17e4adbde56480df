"""One rule each for an integer, a real and a nonempty argument:
errors._check_int, errors._check_real, errors._check_nonempty and every
library site that uses them."""

import dataclasses
import math
import pathlib
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from coverlab import (
    CompactFunction,
    InputError,
    SearchBudget,
    WeightedGraph,
    as_potential,
    boundary,
    build_cover,
    cutoff,
    dirichlet_window,
    finite_permutation_action,
    folner_sequence,
    free_group_action,
    free_quotient_lattice_action,
    generate_group,
    lattice_action,
    min_eigenvalue,
    orbit_ball,
    regular_tree_dirichlet_value,
    required_ratio,
    search_folner,
    stability_interval,
    transfer_negativity,
    verify_certificate,
    word_action,
)
from coverlab import geometry, scenario, spectrum
from coverlab.errors import _check_int, _check_nonempty, _check_real, _echo
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
    "orbit_ball": ("radius", lambda n: orbit_ball(lattice_action(1), n).points),
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
    "translation_box": ("box side", lambda n: translation_box(lattice_action(2), n)),
    "SearchBudget": ("max_radius", lambda n: SearchBudget(max_radius=n)),
    "min_eigenvalue seed": (
        "seed", lambda n: min_eigenvalue(_triangle(), FLAT_V3, 1.0, n).lambda_min),
    "dirichlet_window seed": (
        "seed", lambda n: dirichlet_window(_triangle_cover(), 1, FLAT_V3, 1.0, n).value),
    "stability_interval seed": (
        "seed", lambda n: stability_interval(_triangle(), (1.0, -0.5, 0.5), n)),
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
        orbit_ball(action, 2.5)
    assert time.perf_counter() - start < 0.1
    assert steps == []


def test_check_real_accepts_a_finite_real():
    assert _check_real(2, "x") == 2.0 and type(_check_real(2, "x")) is float
    value = _check_real(np.float64(-1.5), "x")
    assert value == -1.5 and type(value) is float
    assert _check_real(1e-320, "x", positive=True) == 1e-320
    assert _check_real(Fraction(1, 3), "x") == 1 / 3


@pytest.mark.parametrize("value", [True, "x", None, 1j, [1.0]])
def test_check_real_refuses_what_is_not_a_real_number(value):
    with pytest.raises(InputError) as err:
        _check_real(value, "x")
    assert str(err.value) == f"x: expected a real number, got {value!r}"


@pytest.mark.parametrize("value", [math.nan, -math.inf,
                                   pytest.param(Fraction(10**400), id="1e400"),
                                   np.float64(math.inf)])
def test_check_real_refuses_what_is_not_finite(value):
    with pytest.raises(InputError) as err:
        _check_real(value, "x")
    assert str(err.value) == f"x: must be finite, got {_echo(value)}"


@pytest.mark.parametrize("value", ["2", np.True_, Decimal("1")],
                         ids=["str", "np.True_", "Decimal"])
def test_check_real_takes_numbers_only(value):
    # a decimal string is read by the scenario parser alone
    with pytest.raises(InputError) as err:
        _check_real(value, "x")
    assert str(err.value) == f"x: expected a real number, got {value!r}"


def test_library_graph_refuses_decimal_strings():
    # float() used to read them, so this built with mu = (1.0, 1.0) and w = 2.0
    with pytest.raises(InputError) as err:
        WeightedGraph(["1", "1"], [(0, 1, "2")])
    assert str(err.value) == "mu[0]: expected a real number, got '1'"


def test_check_real_words_positivity_and_bounds_its_echo():
    assert _check_real(0.0, "x") == 0.0
    for value in (0, -0.0, -1e-300):
        with pytest.raises(InputError) as err:
            _check_real(value, "x", positive=True)
        assert str(err.value) == f"x: must be positive, got {value!r}"
    # an int past float range is not finite; its echo is cut at 200 digits
    with pytest.raises(InputError) as err:
        _check_real(10**400, "x")
    assert str(err.value) == f"x: must be finite, got 1{'0' * 199}..."


# every library site of the real rule: its label, and a call that takes
# the checked real x (valid at 2) and returns something comparable
REAL_SITES = {
    "WeightedGraph mu": ("mu[0]", lambda x: WeightedGraph([x, 1.0], [(0, 1, 1.0)]).mu),
    "WeightedGraph w": ("w[0]", lambda x: WeightedGraph([1.0, 1.0], [(0, 1, x)]).edges),
    "as_potential": ("V[0]", lambda x: as_potential([x, 0.0, 0.0], _triangle())),
    "required_ratio": (
        "f[0]", lambda x: required_ratio(_triangle(), (x, 2.0, 2.0), 2, FLAT_V3, 1.0)),
    "CompactFunction": ("function value at 0", lambda x: CompactFunction({0: x}).values),
    "stability_interval": (
        "V[0]", lambda x: stability_interval(_triangle(), (x, -1.0, 0.0))),
    "min_eigenvalue a": ("a", lambda x: min_eigenvalue(_triangle(), FLAT_V3, x).lambda_min),
    "dirichlet_window a": (
        "a", lambda x: dirichlet_window(_triangle_cover(), 1, FLAT_V3, x).value),
    "required_ratio a": ("a", lambda x: required_ratio(_triangle(), (1.0,) * 3, 2, FLAT_V3, x)),
    "cover_form_parts a": ("a", lambda x: geometry.cover_form_parts(
        _triangle_cover(), FLAT_V3, x, CompactFunction({(0, (0,)): 1.0}))),
    "transfer_negativity a": (
        "a", lambda x: transfer_negativity(_triangle_cover(), FLAT_V3, x, 2).r_star),
}


@pytest.mark.parametrize("value", [True, "x"])
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_site_refuses_a_value_that_is_not_a_real_number(site, value):
    label, call = REAL_SITES[site]
    with pytest.raises(InputError) as err:
        call(value)
    assert str(err.value) == f"{label}: expected a real number, got {value!r}"


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_site_takes_a_numpy_float_as_the_float(site):
    _label, call = REAL_SITES[site]
    assert call(np.float64(2)) == call(2.0)


# the coupling and the seed are checked once per call, before any solve
# (the SITES and REAL_SITES rows of each take a bool, a string and a
# float or numpy value); these used to end in a bare OverflowError, and
# in numpy's ValueError or a TypeError from the sparse path's generator
COUPLING_AND_SEED = {
    "a-past-float-range": (lambda: min_eigenvalue(_triangle(), FLAT_V3, 10**400),
                           f"a: must be finite, got 1{'0' * 199}..."),
    "sparse-window-seed-negative": (
        lambda: dirichlet_window(_triangle_cover(), 1100, FLAT_V3, 1.0, seed=-1),
        "seed: must be at least 0, got -1"),
    "sparse-window-seed-fractional": (
        lambda: dirichlet_window(_triangle_cover(), 1100, FLAT_V3, 1.0, seed=2.5),
        "seed: expected an integer, got 2.5"),
}


@pytest.mark.parametrize("case", sorted(COUPLING_AND_SEED))
def test_coupling_and_seed_are_refused_before_any_solve(case, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an operator was solved")

    monkeypatch.setattr(spectrum, "_smallest_pair", unreachable)
    call, message = COUPLING_AND_SEED[case]
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


# every library entry of the exact-ratio rule: its label, and a call that
# takes the ratio.  A zero denominator used to escape as ZeroDivisionError
RATIO_SITES = {
    "search_folner": ("epsilon", lambda eps: search_folner(lattice_action(1), eps)),
    "verify_certificate": (
        "epsilon", lambda eps: verify_certificate(lattice_action(1), [(0,)], eps)),
    "folner_sequence": ("epsilons[0]", lambda eps: folner_sequence(lattice_action(1), [eps])),
}


@pytest.mark.parametrize("value", ["1/0", "0/0"])
@pytest.mark.parametrize("site", sorted(RATIO_SITES))
def test_ratio_site_refuses_a_zero_denominator(site, value):
    label, call = RATIO_SITES[site]
    with pytest.raises(InputError) as err:
        call(value)
    assert str(err.value) == f"{label}: expected an exact ratio, got {value!r}"


def test_edge_endpoints_follow_the_integer_rule():
    with pytest.raises(InputError, match="^edge 0 endpoint: expected an integer, got False$"):
        WeightedGraph([1, 1], [(False, True, 1.0)])
    with pytest.raises(InputError, match="^edge 0 endpoint: must be at most 1, got 2$"):
        WeightedGraph([1, 1], [(0, 2, 1.0)])
    graph = WeightedGraph([1, 1], [(np.int64(1), np.int64(0), 1.0)])
    assert graph.edges == ((0, 1, 1.0),)
    assert all(type(u) is int and type(v) is int for u, v, _w in graph.edges)


def test_generators_follow_the_integer_rule():
    for build in (lambda g: word_action(lattice_action(1), [(g,)]),
                  lambda g: build_cover(_triangle(), lattice_action(1), {(0, 1): [g]})):
        with pytest.raises(InputError, match="^generator id: expected an integer, got True$"):
            build(True)
    words = word_action(lattice_action(2), [(np.int64(1), np.int64(-2))])
    assert words.translation_vectors == ((1, -1),)
    cover = build_cover(_triangle(), lattice_action(1), {(0, 1): [np.int64(1)]})
    assert [type(g) for g in cover.voltages[(0, 1)]] == [int]


@pytest.mark.parametrize("vectors, message", [
    ([(2.7, True)], "vectors[0][0]: expected an integer, got 2.7"),
    ([(1, 0), (0, True)], "vectors[1][1]: expected an integer, got True"),
    ([("3",)], "vectors[0][0]: expected an integer, got '3'"),
])
def test_quotient_vectors_are_not_truncated(vectors, message):
    # each entry used to go through int(), so 2.7 became 2 and '3' became 3
    with pytest.raises(InputError) as err:
        free_quotient_lattice_action(vectors)
    assert str(err.value) == message


def test_check_nonempty_returns_the_items_or_names_the_label():
    items = [0]
    assert _check_nonempty(items, "xs") is items
    for empty in ((), [], frozenset(), {}):
        with pytest.raises(InputError) as err:
            _check_nonempty(empty, "xs")
        assert str(err.value) == "xs: must be nonempty"


# every site of the emptiness rule: its label, and a call that takes the
# collection (nonempty in the valid case) and returns something comparable
EMPTY_SITES = {
    "WeightedGraph": ("mu", lambda xs: WeightedGraph([1.0] * len(xs), []).mu),
    "cutoff": ("members", lambda xs: cutoff(_triangle_cover(), xs, 1).values),
    "collar_counts": ("members", lambda xs: geometry.collar_counts(_triangle_cover(), xs, 1)),
    "boundary": ("members", lambda xs: boundary(lattice_action(1), xs)),
    "verify_certificate": (
        "members", lambda xs: verify_certificate(lattice_action(1), xs, 2).members),
    "folner_sequence": (
        "epsilons", lambda xs: folner_sequence(lattice_action(1), [2] * len(xs))[0].outcome),
    "generate_group": ("generators", lambda xs: generate_group([(1, 0)] * len(xs))),
    "free_quotient_lattice_action": (
        "vectors", lambda xs: free_quotient_lattice_action([(1,)] * len(xs)).name),
    "scenario list": (
        "scenario.params.a_samples",
        lambda xs: scenario._nonempty_list(scenario._expect_real)(
            ["1"] * len(xs), "scenario.params.a_samples")),
}


@pytest.mark.parametrize("site", sorted(EMPTY_SITES))
def test_site_refuses_an_empty_collection(site):
    label, call = EMPTY_SITES[site]
    assert call([(0,)])
    with pytest.raises(InputError, match=rf"^{re.escape(label)}: must be nonempty$"):
        call([])


def test_mu_below_the_smallest_normal_float_is_refused():
    # a subnormal mu used to parse, then overflow the operator's w / mu
    tiny = sys.float_info.min
    with pytest.raises(InputError) as err:
        WeightedGraph([1.0, 1e-320], [(0, 1, 1.0)])
    assert str(err.value) == f"mu[1]: must be at least {tiny!r}, got 1e-320"
    assert WeightedGraph([tiny, 1.0], [(0, 1, 1.0)]).mu == (tiny, 1.0)
    # a subnormal weight stays legal
    assert WeightedGraph([1.0, 1.0], [(0, 1, 1e-320)]).edges == ((0, 1, 1e-320),)
