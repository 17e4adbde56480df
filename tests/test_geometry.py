"""Weighted graphs, voltage covers, cutoffs, and quadratic forms."""

import dataclasses
import json
import math
import pathlib
import time
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest

import coverlab.geometry as geometry
from coverlab import (
    BudgetExceededError,
    CompactFunction,
    InputError,
    WeightedGraph,
    as_potential,
    build_cover,
    cover_form_parts,
    cutoff,
    dirichlet_window,
    finite_permutation_action,
    free_group_action,
    lattice_action,
    min_eigenvalue,
    orbit_ball,
)
from coverlab.geometry import collar_counts
from coverlab.scenario import load_scenario
import oracles
from oracles import cover_quadratic_form, lift_function, rayleigh

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def brute_ball(cover, roots, radius):
    # independent BFS, no caching, no budget
    seen = dict.fromkeys(roots, 0)
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        if seen[p] == radius:
            continue
        for q, _w in cover.neighbors(p):
            if q not in seen:
                seen[q] = seen[p] + 1
                queue.append(q)
    return tuple(sorted(seen, key=cover.sort_key))


def test_graph_validation_errors():
    with pytest.raises(InputError):
        WeightedGraph((), ())
    with pytest.raises(InputError):
        WeightedGraph((1.0, 1.0), [(0, 1)])
    with pytest.raises(InputError):
        WeightedGraph((1.0, 1.0), [(0, 0, 1.0)])
    with pytest.raises(InputError):
        WeightedGraph((1.0, 1.0), [(0, 2, 1.0)])
    with pytest.raises(InputError):
        WeightedGraph((1.0, 1.0), [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(InputError):
        WeightedGraph((1.0, 1.0), [(0, 1, -1.0)])
    with pytest.raises(InputError):
        WeightedGraph((1.0, -1.0), [(0, 1, 1.0)])
    with pytest.raises(InputError):
        WeightedGraph((1.0,) * 4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_quadratic_form_hand_value():
    # the base form is the trivial cover's, on f keyed at its one tile 0
    graph = WeightedGraph((1.0, 2.0), [(0, 1, 3.0)])
    f = CompactFunction({(0, 0): 1.0, (1, 0): 2.0})
    grad, pot = cover_form_parts(oracles.trivial_cover(graph), (0.5, -1.0), 2.0, f)
    # 3*(1-2)^2 + 2*(0.5*1*1 + (-1)*4*2) = 3 - 15
    assert (grad, pot) == (3.0, -15.0)
    assert grad + pot == -12.0


def test_potential_length_mismatch(triangle):
    with pytest.raises(InputError, match="potential has 2 entries for 3 vertices"):
        as_potential((1.0, 2.0), triangle)
    with pytest.raises(InputError, match=r"^V\[1\]: must be finite, got inf$"):
        as_potential((1.0, math.inf, 0.0), triangle)
    assert as_potential([1, -2, 0.5], triangle) == (1.0, -2.0, 0.5)


HUGE = 10**400  # an int past float range


@pytest.mark.parametrize("build, label", [
    (lambda g: WeightedGraph([HUGE, 1.0, 1.0], g.edges), "mu[0]"),
    (lambda g: WeightedGraph(g.mu, [(0, 1, 1.0), (0, 2, HUGE), (1, 2, 1.0)]), "w[1]"),
    (lambda g: as_potential([HUGE, 0, 0], g), "V[0]"),
    (lambda g: geometry._per_vertex([1, 1, HUGE], g, "f", "function"), "f[2]"),
    (lambda g: CompactFunction({(0, 0): HUGE}), "function value at (0, 0)"),
])
def test_real_past_float_range_is_an_input_error(triangle, build, label):
    # float() of such an int raises OverflowError, which used to escape bare
    with pytest.raises(InputError) as info:
        build(triangle)
    # the message echoes the first 200 digits
    assert str(info.value) == f"{label}: must be finite, got 1{'0' * 199}..."


def test_compact_function_drops_zeros():
    f = CompactFunction({0: 1.0, 1: 0.0, 2: -2.0})
    assert f.support == frozenset({0, 2})
    assert f(1) == 0.0
    assert not CompactFunction({0: 0.0}).values
    with pytest.raises(InputError, match="^function value at 0: must be finite, got inf$"):
        CompactFunction({0: math.inf})
    # a value that is not a number used to escape as a bare ValueError
    with pytest.raises(InputError,
                       match=r"^function value at \(0, 0\): expected a real number, got 'x'$"):
        CompactFunction({(0, 0): "x"})


def test_support_and_omega_are_views_of_the_values(triangle_cover):
    # neither is a copy of the keys: a write to values shows through.
    # (dict_keys.mapping is a new read-only proxy on each read, so it is
    # compared by value, and identity is shown by the write.)
    f = CompactFunction({0: 1.0, 1: 0.0, 2: -2.0})
    xi = cutoff(triangle_cover, [(0,), (1,)], 2)
    for view, values in ((f.support, f.values), (xi.omega, xi.values)):
        assert type(view) is type({}.keys())
        assert view.mapping == values
        values["added"] = 1
        assert "added" in view and len(view) == len(values)


def test_voltage_reversed_orientation_is_inverted(triangle):
    cover = build_cover(triangle, lattice_action(1), {(1, 0): (1,)})
    assert cover.voltages == {(0, 1): (-1,)}


def test_identity_voltage_dropped(triangle):
    cover = build_cover(triangle, lattice_action(1), {(0, 1): ()})
    assert cover.voltages == {}


def test_voltage_rejections(triangle):
    with pytest.raises(InputError):
        build_cover(triangle, lattice_action(1), {(0, 3): (1,)})
    with pytest.raises(InputError):
        build_cover(triangle, lattice_action(1), {(0, 1): (1,), (1, 0): (1,)})
    with pytest.raises(InputError):
        build_cover(triangle, lattice_action(1), {(0, 1): (5,)})


@pytest.mark.parametrize("voltages", [{(0, 1): (), (1, 0): (1,)}, {(1, 0): (1,), (0, 1): ()},
                                      {(1, 0): (), (0, 1): ()}])
def test_second_voltage_for_an_edge_is_refused_even_when_a_word_is_empty(triangle, voltages):
    with pytest.raises(InputError, match=r"^duplicate voltage for edge \(0, 1\)$"):
        build_cover(triangle, lattice_action(1), voltages)


def assert_reads_as_the_base(cover, generators, V):
    # one tile: the fiber orbit of the origin is the origin alone, and the
    # radius-2 window is the base's own operator
    fiber = cover.fiber_action
    assert fiber.generator_count == generators
    assert orbit_ball(fiber, fiber.origin, 1).points == (fiber.origin,)
    assert cover.ball(2) == cover.tile(fiber.origin)
    window = dirichlet_window(cover, 2, V, 1.0)
    assert window.value == min_eigenvalue(cover.base, V, 1.0).lambda_min


def test_bridge_voltage_disconnects():
    # a voltage on the only edge tears the derived graph into a perfect
    # matching; the cover is its origin tile's component, the base itself
    edge = WeightedGraph((1.0, 1.0), [(0, 1, 1.0)])
    cover = build_cover(edge, lattice_action(1), {(0, 1): (1,)})
    assert cover.voltages == {}
    assert_reads_as_the_base(cover, 0, (-1.0, 0.5))


def test_zero_cycle_voltage_disconnects(triangle):
    # net voltage around the triangle is 1 + 1 - 2 = 0, so every tile is a
    # component; the gauged word of the non-tree edge fixes every point
    cover = build_cover(
        triangle,
        lattice_action(1),
        {(0, 1): (1,), (1, 2): (1,), (0, 2): (1, 1)},
    )
    assert cover.voltages == {(1, 2): (-1, -1, 1, 1)}
    assert_reads_as_the_base(cover, 1, (-1.0, 0.5, 0.25))


def test_bundled_voltages_stay_on_their_edges():
    # the edges without a voltage span every bundled base, so every tree
    # path word is empty and the gauge moves no voltage
    for path in sorted(SCENARIOS.glob("*.json")):
        obj = json.loads(path.read_text())
        if "voltages" in obj:
            assert load_scenario(path).cover.voltages == {
                (u, v): tuple(word) for u, v, word in obj["voltages"]}


def test_cover_preserves_weighted_degree(tree_cover, triangle_cover):
    for cover in (tree_cover, triangle_cover):
        base = cover.base
        base_degree = [0.0] * base.vertex_count
        for u, v, w in base.edges:
            base_degree[u] += w
            base_degree[v] += w
        for p in cover.ball(2):
            lifted = math.fsum(w for _q, w in cover.neighbors(p))
            assert lifted == pytest.approx(base_degree[p[0]], rel=1e-15)


def test_tile_roundtrip(triangle_cover):
    x = (7,)
    tile = triangle_cover.tile(x)
    assert tile == ((0, x), (1, x), (2, x))


def test_ball_matches_plain_bfs(triangle_cover, tree_cover):
    for cover, radius in ((triangle_cover, 6), (tree_cover, 3)):
        assert cover.ball(radius) == brute_ball(cover, cover.tile(cover.carrier.origin), radius)


def test_ball_memoized(triangle_cover):
    first = triangle_cover.ball(4)
    assert triangle_cover.ball(4) is first


def test_ball_budget(tree_cover, monkeypatch):
    monkeypatch.setattr(geometry, "DEFAULT_POINT_BUDGET", 40)
    with pytest.raises(BudgetExceededError) as info:
        tree_cover.ball(5)
    assert info.value.partial_count == 41
    assert str(info.value) == "cover window exceeded 40 vertices at hop 3"


def test_ball_over_budget_is_not_memoized(tree_cover, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "DEFAULT_POINT_BUDGET", 40)
        with pytest.raises(BudgetExceededError):
            tree_cover.ball(5)
    assert not tree_cover._ball_cache
    ball = tree_cover.ball(5)
    assert ball == brute_ball(tree_cover, tree_cover.tile(tree_cover.carrier.origin), 5)
    assert len(ball) > 40


def test_fiber_action_dedupes_words(k4):
    cover = build_cover(
        k4,
        lattice_action(1),
        {(1, 2): (1,), (1, 3): (1,), (2, 3): (-1,)},
    )
    # equal net vectors and inverse pairs collapse to one generator
    assert cover.fiber_action.generator_count == 1


def edge_word_neighbors(cover, p):
    # each edge's own stored word, letter by letter on the carrier: forward
    # (rightmost letter first) from its lower end, inverted from its upper end
    v, x = p
    out = []
    for u, w in cover.base.neighbors(v):
        word = cover.voltages.get((min(u, v), max(u, v)), ())
        letters = word[::-1] if v < u else tuple(-g for g in word)
        y = x
        for letter in letters:
            y = cover.carrier.apply_fn(letter, y)
        out.append(((u, y), w))
    return out


def test_neighbors_apply_each_edge_word_through_the_carrier(k4):
    covers = [load_scenario(path).cover for path in sorted(SCENARIOS.glob("*.json"))
              if "voltages" in json.loads(path.read_text())]
    covers += [
        # equal displacement (1, 1): one generator
        build_cover(k4, lattice_action(2), {(1, 2): (1, 2), (1, 3): (2, 1)}),
        # the second word is the first one's inverse: a negative generator
        build_cover(k4, free_group_action(2), {(0, 1): (1, 2), (1, 2): (-2, -1)}),
        # zero displacement: the generator fixes every fiber point
        build_cover(k4, lattice_action(2), {(0, 1): (1, -1)}),
    ]
    assert [c.fiber_action.generator_count for c in covers] == [3, 3, 1, 1, 1, 1, 1]
    for cover in covers:
        for p in cover.ball(3):
            assert cover.neighbors(p) == edge_word_neighbors(cover, p)


def test_lift_function_support(triangle_cover):
    lifted = lift_function(triangle_cover, (1.0, 0.0, 2.0), [(0,), (5,)])
    assert lifted.support == frozenset(
        {(0, (0,)), (2, (0,)), (0, (5,)), (2, (5,))}
    )
    assert lifted((2, (5,))) == 2.0
    assert lifted((1, (0,))) == 0.0


def test_cutoff_validation(triangle_cover):
    with pytest.raises(InputError):
        cutoff(triangle_cover, [], 2)
    with pytest.raises(InputError):
        cutoff(triangle_cover, [(0,)], 0)
    with pytest.raises(InputError):
        cutoff(triangle_cover, [(0,)], 1.5)


def test_cutoff_values_and_collar(triangle_cover):
    members = [(x,) for x in range(-18, 19)]
    xi = cutoff(triangle_cover, members, 2)
    assert all(isinstance(v, Fraction) for v in xi.values.values())
    assert xi((0, (18,))) == Fraction(1, 2)
    assert xi((1, (-18,))) == Fraction(1, 2)
    assert xi((2, (18,))) == 1
    assert xi((0, (0,))) == 1
    assert xi((1, (19,))) == 0
    assert xi.collar_tiles == frozenset({(-19,), (-18,), (18,), (19,)})
    assert xi.omega == frozenset().union(
        *(triangle_cover.tile(x) for x in members)
    )


def test_cutoff_lipschitz_bound(triangle_cover, tree_cover):
    cases = [
        (triangle_cover, [(x,) for x in range(-5, 6)], 3),
        (tree_cover, [tree_cover.carrier.origin], 1),
        (tree_cover, [(), (1,), (2,), (3,)], 2),
    ]
    for cover, members, alpha in cases:
        xi = cutoff(cover, members, alpha)
        for p in sorted(xi.omega, key=cover.sort_key):
            for q, _w in cover.neighbors(p):
                assert abs(xi(p) - xi(q)) <= Fraction(1, alpha)


def test_cutoff_refuses_sets_over_the_point_budget(triangle_cover, monkeypatch):
    # 37 tiles of 3 vertices: 111 vertices, checked before the sweep allocates
    members = [(x,) for x in range(-18, 19)]
    monkeypatch.setattr(geometry, "DEFAULT_POINT_BUDGET", 110)
    for count in (cutoff, collar_counts):
        with pytest.raises(BudgetExceededError) as info:
            count(triangle_cover, members, 2)
        assert info.value.partial_count == 111
        assert str(info.value) == ("cutoff over 37 tiles of 3 vertices holds 111 "
                                   "vertices, above the point budget 110")
    monkeypatch.setattr(geometry, "DEFAULT_POINT_BUDGET", 111)
    assert len(cutoff(triangle_cover, members, 2).omega) == 111
    assert collar_counts(triangle_cover, members, 2) == (4, 37)


def test_single_tile_cutoff_on_tree(tree_cover):
    xi = cutoff(tree_cover, [tree_cover.carrier.origin], 1)
    assert all(v == 1 for v in xi.values.values())
    assert len(xi.collar_tiles) == 7
    assert tree_cover.carrier.origin in xi.collar_tiles


def test_form_parts_compose(triangle_cover):
    f = lift_function(triangle_cover, (1.0, -0.5, 0.25), [(0,), (1,)])
    V = (-0.3, 0.7, 0.1)
    grad, pot = cover_form_parts(triangle_cover, V, 1.7, f)
    assert grad + pot == cover_quadratic_form(triangle_cover, V, 1.7, f)
    assert grad >= 0.0


def test_trivial_cover_form_matches_base(trivial_cover):
    f = (1.0, -2.0, 0.5)
    V = (0.4, -0.9, 0.2)
    lifted = lift_function(trivial_cover, f, [trivial_cover.carrier.origin])
    norm = math.fsum(x ** 2 * mu for x, mu in zip(f, trivial_cover.base.mu))
    assert rayleigh(trivial_cover.base, V, 1.3, f) == (
        cover_quadratic_form(trivial_cover, V, 1.3, lifted) / norm
    )


def sorted_sweep_cutoff(cover, members, alpha):
    # the three sorted sweeps with one Fraction per vertex, kept as an oracle
    member_list = tuple(sorted(set(members), key=cover.carrier.sort_key))
    omega = set()
    for x in member_list:
        omega.update(cover.tile(x))
    distance = {}
    queue = deque()
    for p in sorted(omega, key=cover.sort_key):
        if any(q not in omega for q, _w in cover.neighbors(p)):
            distance[p] = 1
            queue.append(p)
    while queue:
        p = queue.popleft()
        d = distance[p]
        if d >= alpha:
            continue
        for q, _w in cover.neighbors(p):
            if q in omega and q not in distance:
                distance[q] = d + 1
                queue.append(q)
    ordered = sorted(omega, key=cover.sort_key)
    values = {}
    for p in ordered:
        d = distance.get(p)
        values[p] = Fraction(1) if d is None else Fraction(min(d, alpha), alpha)
    collar = set()
    for p, value in values.items():
        if 0 < value < 1:
            collar.add(p[1])
    for p in ordered:
        xp = values[p]
        for q, _w in cover.neighbors(p):
            if xp != values.get(q, Fraction(0)):
                collar.add(p[1])
                collar.add(q[1])
    return member_list, values, frozenset(omega), frozenset(collar)


@pytest.fixture
def k4_z2_cover(k4):
    return build_cover(k4, lattice_action(2), {(1, 2): (1,), (1, 3): (2,), (2, 3): (1, 2)})


@pytest.fixture
def fixed_tile_cover(triangle):
    """Voltage (0 1) on three tiles: tile 2 is joined to itself across it."""
    return build_cover(triangle, finite_permutation_action([(1, 0, 2)], 3), {(0, 1): (1,)})


def cutoff_cases(triangle_cover, k4_z2_cover, tree_cover, fixed_tile_cover):
    cases = [
        (fixed_tile_cover, [2]),
        (fixed_tile_cover, [0]),
        (fixed_tile_cover, [0, 1, 2]),
        # tiles 0 and 1 touch across the voltage edge
        (triangle_cover, [(0,), (1,)]),
        (triangle_cover, [(x,) for x in range(-6, 7)]),
        (triangle_cover, [(-3,), (0,), (1,), (5,)]),
        # tile (1,) is joined to both members, so its two preimages count it once
        (triangle_cover, [(0,), (2,)]),
        # tiles (1, 0) and (0, 1) each have two member neighbours
        (k4_z2_cover, [(0, 0), (1, 1)]),
    ]
    for cover in (triangle_cover, k4_z2_cover, tree_cover):
        fiber = cover.fiber_action
        cases.append((cover, [fiber.origin]))
        for radius in (1, 3):
            cases.append((cover, orbit_ball(fiber, fiber.origin, radius).points))
    far = orbit_ball(tree_cover.fiber_action, (), 3).points[-1]
    cases.append((tree_cover, [(), (1,), far]))
    cases.append((k4_z2_cover, [(0, 0), (0, 1), (4, 4)]))
    return cases


def test_cutoff_matches_sorted_sweep_oracle(triangle_cover, k4_z2_cover, tree_cover,
                                            fixed_tile_cover):
    for cover, members in cutoff_cases(triangle_cover, k4_z2_cover, tree_cover,
                                       fixed_tile_cover):
        for alpha in range(1, 5):
            xi = cutoff(cover, members, alpha)
            member_list, values, omega, collar = sorted_sweep_cutoff(cover, members, alpha)
            assert xi.members == member_list
            assert xi.values == values
            assert xi.omega == omega
            assert xi.collar_tiles == collar
            assert collar_counts(cover, members, alpha) == (len(collar), len(member_list))


def test_collar_counts_move_each_member_tile_once_per_word(tree_cover, monkeypatch):
    members = orbit_ball(tree_cover.fiber_action, (), 3).points
    fiber = tree_cover.fiber_action
    calls = []

    def counting(g, x):
        calls.append((g, x))
        return fiber.apply_fn(g, x)

    monkeypatch.setattr(tree_cover, "fiber_action", dataclasses.replace(fiber, apply_fn=counting))
    _b, c = collar_counts(tree_cover, members, 2)
    assert c == len(members) == 187
    member_set = set(members)
    moves = [g for g, x in calls if x in member_set]
    probes = [g for g, x in calls if x not in member_set]
    # six distinct oriented one-letter words, each applied to each member once
    assert len(moves) == 6 * c
    assert all(moves.count(g) == c for g in (-3, -2, -1, 1, 2, 3))
    # each word leaves the ball from 125 of its 150 rim tiles, and each tile
    # it lands on is probed with the inverse of every word swept before it;
    # in a tree no probe lands back in the ball, so none stops early
    assert len(probes) == sum(k * 125 for k in range(6)) == 1875


def test_collar_counts_hold_no_outside_tile(tree_cover):
    # the radius-5 ball has 4,687 tiles and 18,750 outside tiles along its
    # rim; holding those as fiber-point tuples in a set peaks near 700
    # bytes per member tile, counting them through their owners near 300
    members = orbit_ball(tree_cover.fiber_action, (), 5).points
    assert len(members) == 4687
    tracemalloc.start()
    try:
        b, c = collar_counts(tree_cover, members, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (b, c) == (18_750 + 4_500, 4687)
    assert peak < 500 * c


def test_sweep_work_is_bounded_by_the_set_not_alpha(triangle_cover, k4_z2_cover,
                                                    tree_cover, fixed_tile_cover):
    # alpha far beyond every depth: the ramp reads d / alpha throughout
    alpha = 10**5
    for cover, members in cutoff_cases(triangle_cover, k4_z2_cover, tree_cover,
                                       fixed_tile_cover):
        xi = cutoff(cover, members, alpha)
        _members, values, _omega, collar = sorted_sweep_cutoff(cover, members, alpha)
        assert xi.values == values
        assert xi.collar_tiles == collar
        assert collar_counts(cover, members, alpha) == (len(collar), len(xi.members))
    members = [(x,) for x in range(-6, 7)]
    # one level per depth reached, not alpha + 1 of them
    tracemalloc.start()
    try:
        cutoff(triangle_cover, members, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # the sweep ends with its frontier, 20 hops into these 13 tiles, even
    # at the largest alpha taken
    started = time.process_time()
    assert collar_counts(triangle_cover, members, 10**6) == (15, 13)
    assert time.process_time() - started < 5.0


def test_cutoff_without_rim_is_flat(fixed_tile_cover):
    # tile 2 is a whole component of the cover, so nothing ramps
    xi = cutoff(fixed_tile_cover, [2], 3)
    assert set(xi.values.values()) == {1}
    assert xi.collar_tiles == frozenset()


def brute_form_parts(cover, V, a, func):
    edges = {}
    for p in func.support:
        for q, w in cover.neighbors(p):
            edges[frozenset((p, q))] = (p, q, w)
    grad = math.fsum(w * (func(p) - func(q)) ** 2 for p, q, w in edges.values())
    pot = math.fsum(V[p[0]] * func(p) ** 2 * cover.base.mu[p[0]] for p in func.support)
    return grad, a * pot


def test_form_parts_match_unique_edge_sum(triangle_cover, k4_z2_cover, tree_cover,
                                          fixed_tile_cover):
    for cover, members in cutoff_cases(triangle_cover, k4_z2_cover, tree_cover,
                                       fixed_tile_cover):
        n = cover.base.vertex_count
        f = [1.0 - 0.37 * v for v in range(n)]
        V = [(-1) ** v * 0.1 * (v + 1) for v in range(n)]
        xi = cutoff(cover, members, 2)
        witness = CompactFunction({p: float(x) * f[p[0]] for p, x in xi.values.items()})
        for func in (witness, lift_function(cover, f, members)):
            assert cover_form_parts(cover, V, 0.7, func) == brute_form_parts(cover, V, 0.7, func)


def test_form_parts_keep_no_visited_set(triangle_cover):
    # a witness of 12,000 vertices; a visited set over them would hold at
    # least one 8-byte slot per vertex in its hash table
    xi = cutoff(triangle_cover, [(x,) for x in range(4000)], 3)
    witness = CompactFunction({p: float(x) for p, x in xi.values.items()})
    n = len(witness.values)
    assert n == 12_000
    tracemalloc.start()
    try:
        cover_form_parts(triangle_cover, (-0.1, 0.2, 0.3), 1.0, witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def test_an_edge_is_echoed_up_to_a_prefix():
    # a 10^6-entry edge used to put 7,888,924 characters in the message
    edge = tuple(range(10**6))
    with pytest.raises(InputError) as info:
        WeightedGraph((1.0, 1.0), [edge])
    assert str(info.value) == f"edge 0 is not a (u, v, w) triple: {repr(edge)[:200]}..."
    with pytest.raises(InputError) as info:
        WeightedGraph((1.0, 1.0), [(0, 1)])
    assert str(info.value) == "edge 0 is not a (u, v, w) triple: (0, 1)"
