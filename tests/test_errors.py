"""One rule each for an integer, a real, a collection and a nonempty
argument (errors._check_int, _check_real, _check_collection and
_check_nonempty), one for an edge-keyed row (geometry._edge_rows), and
every library site that uses them."""

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
    counterexample_check,
    cutoff,
    dirichlet_window,
    easy_direction_check,
    finite_permutation_action,
    folner_sequence,
    free_group_action,
    free_quotient_lattice_action,
    generate_group,
    interval_comparison,
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
from coverlab import folner, geometry, scenario, spectrum, transfer
from coverlab.errors import _check_collection, _check_int, _check_nonempty, _check_real, _echo
from coverlab.folner import translation_box
from coverlab.scenario import load_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FLAT_V3 = (-0.05, -0.05, -0.05)
FLAT_V4 = (-0.1,) * 4


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
    return build_cover(_triangle(), lattice_action(1), [(0, 1, (1,))])


def _tree_cover():
    return load_scenario(SCENARIOS / "tree_counterexample.json").cover


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
                  lambda g: build_cover(_triangle(), lattice_action(1), [(0, 1, [g])])):
        with pytest.raises(InputError, match="^generator id: expected an integer, got True$"):
            build(True)
    words = word_action(lattice_action(2), [(np.int64(1), np.int64(-2))])
    assert words.translation_vectors == ((1, -1),)
    cover = build_cover(_triangle(), lattice_action(1), [(0, 1, [np.int64(1)])])
    assert [type(g) for g in cover.voltages[(0, 1)]] == [int]


def test_voltage_endpoints_follow_the_integer_rule():
    # each used to be read as the edge (1, 2)
    for row, shown in (((True, 2, (1,)), "True"), ((1.0, 2.0, (1,)), "1.0")):
        with pytest.raises(InputError) as err:
            build_cover(_triangle(), lattice_action(1), [row])
        assert str(err.value) == f"voltage 0 endpoint: expected an integer, got {shown}"


# each check of the one rule for edge-keyed rows, in its order: rows over
# the triangle's vertices, with W standing for the third entry
W = object()
EDGE_ROW_FAULTS = {
    "not-a-triple": ([(0, 1, 2, 0)], "{noun} 0 is not a (u, v, {third}) triple: (0, 1, 2, 0)"),
    "endpoint-not-an-integer": ([(0, 1, W), (0, "2", W)],
                                "{noun} 1 endpoint: expected an integer, got '2'"),
    "endpoint-out-of-range": ([(3, 0, W)], "{noun} 0 endpoint: must be at most 2, got 3"),
    "loop": ([(0, 1, W), (2, 2, W)], "{noun} 1 is a loop at vertex 2"),
    "repeat": ([(0, 1, W), (0, 1, W)], "{noun} 1 repeats edge (0, 1)"),
    "reversed-repeat": ([(1, 2, W), (0, 1, W), (2, 1, W)], "{noun} 2 repeats edge (1, 2)"),
}
# each reader of edge-keyed rows: its noun, its name for the third entry,
# and a call on rows whose third entries are W
EDGE_ROW_READERS = {
    "WeightedGraph": ("edge", "w", lambda rows: WeightedGraph(
        [1.0] * 3, [tuple(1.0 if x is W else x for x in row) for row in rows])),
    "build_cover": ("voltage", "word", lambda rows: build_cover(
        _triangle(), lattice_action(1), [tuple((1,) if x is W else x for x in row)
                                         for row in rows])),
}


@pytest.mark.parametrize("reader", sorted(EDGE_ROW_READERS))
@pytest.mark.parametrize("fault", sorted(EDGE_ROW_FAULTS))
def test_edge_rows_are_read_by_one_rule(fault, reader):
    rows, message = EDGE_ROW_FAULTS[fault]
    noun, third, read = EDGE_ROW_READERS[reader]
    with pytest.raises(InputError) as err:
        read(rows)
    assert str(err.value) == message.format(noun=noun, third=third)


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


def test_check_collection_reads_any_iterable_or_names_the_label():
    assert _check_collection(iter([2, 1, 2]), "xs") == (2, 1, 2)
    assert _check_collection([(0,), (0,)], "xs", hashable=True) == frozenset({(0,)})
    # a large certificate's member set is not copied on the way in
    points, rows = frozenset({(0,), (1,)}), ((0, 1, 1.0),)
    assert _check_collection(points, "xs", hashable=True) is points
    assert _check_collection(rows, "xs") is rows
    for value in (5, None, 2.5):
        with pytest.raises(InputError) as err:
            _check_collection(value, "xs")
        assert str(err.value) == f"xs: expected a collection, got {value!r}"
    with pytest.raises(InputError) as err:
        _check_collection([(0,), [1]], "xs", hashable=True)
    assert str(err.value) == "xs: expected hashable items, got [(0,), [1]]"


# every site of the collection rule: its label, a call that takes the
# collection, and a valid one; each used to end in a bare TypeError or
# AttributeError on an int
COLLECTION_SITES = {
    "WeightedGraph mu": ("mu", lambda xs: WeightedGraph(xs, [(0, 1, 1.0)]).mu, [1.0, 2.0]),
    "WeightedGraph edges": (
        "edges", lambda xs: WeightedGraph([1.0, 1.0], xs).edges, [(0, 1, 1.0)]),
    "build_cover voltages": (
        "voltages", lambda xs: build_cover(_triangle(), lattice_action(1), xs).voltages,
        [(0, 1, (1,))]),
    "build_cover word": (
        "voltage 0 word",
        lambda xs: build_cover(_triangle(), lattice_action(1), [(0, 1, xs)]).voltages, [1]),
    "word_action words": ("words", lambda xs: word_action(lattice_action(1), xs).name, [(1,)]),
    "word_action word": (
        "words[0]", lambda xs: word_action(lattice_action(1), [xs]).translation_vectors, [1]),
    "boundary": ("members", lambda xs: boundary(lattice_action(1), xs), [(0,)]),
    "verify_certificate": (
        "members", lambda xs: verify_certificate(lattice_action(1), xs, 2).members, [(0,)]),
    "cutoff": ("members", lambda xs: cutoff(_triangle_cover(), xs, 1).values, [(0,)]),
    "collar_counts": (
        "members", lambda xs: geometry.collar_counts(_triangle_cover(), xs, 1), [(0,)]),
    "easy_direction_check a_samples": (
        "a_samples", lambda xs: easy_direction_check(_triangle_cover(), FLAT_V3, xs, [1]),
        [1.0, -1.0]),
    "easy_direction_check radii": (
        "radii", lambda xs: easy_direction_check(_triangle_cover(), FLAT_V3, [1.0, -1.0], xs),
        [0, 1]),
    "interval_comparison a_samples": (
        "a_samples", lambda xs: interval_comparison(_triangle_cover(), FLAT_V3, xs, 1, 2).rows,
        [0.5]),
    "counterexample_check radii": (
        "radii", lambda xs: counterexample_check(
            _tree_cover(), FLAT_V4, 1.0, 4, xs, SearchBudget(0, 1, 1)).windows, [0, 1]),
}


@pytest.mark.parametrize("site", sorted(COLLECTION_SITES))
def test_site_refuses_what_is_not_a_collection(site):
    label, call, _valid = COLLECTION_SITES[site]
    with pytest.raises(InputError) as err:
        call(5)
    assert str(err.value) == f"{label}: expected a collection, got 5"


@pytest.mark.parametrize("site", sorted(COLLECTION_SITES))
def test_site_reads_a_one_shot_iterator_as_its_list(site):
    _label, call, valid = COLLECTION_SITES[site]
    assert call(iter(valid)) == call(valid)


@pytest.mark.parametrize("site", ["boundary", "verify_certificate", "cutoff", "collar_counts"])
def test_member_site_refuses_an_unhashable_point(site):
    # cutoff used to end in "unhashable type: 'list'"
    _label, call, _valid = COLLECTION_SITES[site]
    with pytest.raises(InputError) as err:
        call([[0]])
    assert str(err.value) == "members: expected hashable items, got [[0]]"


# every library site that takes a search budget: None is the default, and
# anything else that is not a SearchBudget used to end in a bare
# AttributeError (0 and False were read as the default, and a translation
# fiber's box search ignored the budget)
BUDGET_SITES = {
    "search_folner": lambda b: search_folner(free_group_action(2), Fraction(1, 2), b),
    "search_folner on a translation fiber": (
        lambda b: search_folner(lattice_action(1), Fraction(1, 2), b)),
    "folner_sequence": lambda b: folner_sequence(free_group_action(2), ["1/2"], b),
    "transfer_negativity": lambda b: transfer_negativity(_tree_cover(), FLAT_V4, 1.0, 4, b),
    "counterexample_check": lambda b: counterexample_check(
        _tree_cover(), FLAT_V4, 1.0, 4, [0], budget=b),
}


def _no_search_or_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a search or solve ran")

    for module, name in ((folner, "_search_box"), (folner, "orbit_ball"),
                         (transfer, "min_eigenvalue")):
        monkeypatch.setattr(module, name, unreachable)


@pytest.mark.parametrize("value", [5, {"max_radius": 2}, "x", 0, False])
@pytest.mark.parametrize("site", sorted(BUDGET_SITES))
def test_site_refuses_a_budget_that_is_not_a_search_budget(site, value, monkeypatch):
    _no_search_or_solve(monkeypatch)
    with pytest.raises(InputError) as err:
        BUDGET_SITES[site](value)
    assert str(err.value) == f"budget: expected a SearchBudget, got {value!r}"


def test_counterexample_radii_are_refused_before_the_transfer(monkeypatch):
    # radii=5 used to end in a bare TypeError, after the whole transfer attempt
    _no_search_or_solve(monkeypatch)
    with pytest.raises(InputError) as err:
        counterexample_check(_tree_cover(), FLAT_V4, 1.0, 4, 5)
    assert str(err.value) == "radii: expected a collection, got 5"


def test_mu_below_the_smallest_normal_float_is_refused():
    # a subnormal mu used to parse, then overflow the operator's w / mu
    tiny = sys.float_info.min
    with pytest.raises(InputError) as err:
        WeightedGraph([1.0, 1e-320], [(0, 1, 1.0)])
    assert str(err.value) == f"mu[1]: must be at least {tiny!r}, got 1e-320"
    assert WeightedGraph([tiny, 1.0], [(0, 1, 1.0)]).mu == (tiny, 1.0)
    # a subnormal weight stays legal
    assert WeightedGraph([1.0, 1.0], [(0, 1, 1e-320)]).edges == ((0, 1, 1e-320),)
