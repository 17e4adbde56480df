"""Folner machinery: exact ratios, searches, budgets, sequences."""

import dataclasses
import gc
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coverlab import (
    BudgetExceededError,
    FolnerVerificationError,
    InputError,
    SearchBudget,
    boundary,
    exact_fraction,
    finite_permutation_action,
    folner_sequence,
    free_group_action,
    free_quotient_lattice_action,
    lattice_action,
    orbit_ball,
    search_folner,
    verify_certificate,
    word_action,
)
from coverlab import actions, folner
from coverlab.folner import _connected_subsets, translation_box
from oracles import folner_boundary_bound, rank_by_full_elimination, set_ratios


def box_within(action, side, points):
    """translation_box under a point budget of points instead of the default."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folner, "DEFAULT_POINT_BUDGET", points)
        return translation_box(action, side)


def crossing_within(vectors, base, points):
    """_crossing_rank against a point budget of points instead of the default."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folner, "DEFAULT_POINT_BUDGET", points)
        return folner._crossing_rank(vectors, base)


def test_exact_fraction_decimal_and_float():
    assert exact_fraction("0.01") == Fraction(1, 100)
    assert exact_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert exact_fraction(3) == Fraction(3)
    # a float has lost the decimal it was written as, so it is refused
    for value in (0.1, float("nan")):
        with pytest.raises(InputError, match="^epsilon: expected an exact ratio, got "):
            exact_fraction(value)


@pytest.mark.parametrize("value, message", [
    (True, "epsilon: expected an exact ratio, got True"),
    ("abc", "epsilon: expected an exact ratio, got 'abc'"),
    (-1, "epsilon: must be at least 0, got -1"),
    ("-0.5", "epsilon: must be at least 0, got '-0.5'"),
    ("1." + "0" * 5000, "epsilon: has a digit run above the limit of 4300 digits"),
], ids=["bool", "unreadable", "negative", "negative-string", "digit-run"])
def test_exact_fraction_is_the_one_ratio_rule(value, message):
    with pytest.raises(InputError) as err:
        exact_fraction(value)
    assert str(err.value) == message


def test_exact_fraction_echo_is_bounded_and_takes_numpy_integers():
    # Fraction()'s own ValueError repeated the whole string: 1,000,032 characters
    with pytest.raises(InputError) as err:
        search_folner(lattice_action(1), "x" * 10**6)
    assert str(err.value) == f"epsilon: expected an exact ratio, got '{'x' * 199}..."
    value = exact_fraction(np.int64(3))
    assert value == 3 and type(value.numerator) is int


def test_every_ratio_is_refused_below_zero_by_the_one_rule():
    # verify_certificate raised FolnerVerificationError, on the first generator
    with pytest.raises(InputError, match="^epsilon: must be at least 0, got -1$"):
        verify_certificate(lattice_action(1), [(0,)], -1)
    with pytest.raises(InputError, match="^epsilon: must be at least 0, got Fraction"):
        search_folner(lattice_action(1), Fraction(-1, 2))
    with pytest.raises(InputError, match=r"^epsilons\[1\]: must be at least 0, got '-0.1'$"):
        folner_sequence(lattice_action(1), ["0.5", "-0.1"])


def test_interval_ratios_exact():
    act = lattice_action(1)
    cert = verify_certificate(act, [(i,) for i in range(10)], Fraction(1, 5))
    assert cert.per_generator_ratios[1] == Fraction(1, 5)
    assert cert.per_generator_ratios[-1] == Fraction(1, 5)
    assert cert.max_ratio == Fraction(1, 5)
    assert cert.boundary_ratio == Fraction(2, 10)


def test_verify_certificate_rejects_sparse_set():
    act = lattice_action(1)
    with pytest.raises(FolnerVerificationError) as err:
        verify_certificate(act, [(0,), (2,)], Fraction(1, 2))
    assert err.value.generator == 1
    assert err.value.ratio == Fraction(2, 1)


def test_boundary_bound_on_random_sets():
    import random

    rng = random.Random(7)
    act = lattice_action(2)
    for _ in range(25):
        pts = {(rng.randrange(-4, 5), rng.randrange(-4, 5))
               for _ in range(rng.randrange(1, 25))}
        lhs, rhs = folner_boundary_bound(act, pts)
        assert lhs <= rhs


def test_search_box_on_z():
    rep = search_folner(lattice_action(1), Fraction(1, 100))
    assert rep.outcome == "found"
    assert rep.certificate.size == 200
    assert rep.certificate.max_ratio == Fraction(1, 100)


def test_search_box_on_z2():
    rep = search_folner(lattice_action(2), Fraction(1, 10))
    assert rep.outcome == "found"
    assert rep.certificate.size == 40 * 40
    assert rep.certificate.max_ratio <= Fraction(1, 10)


def test_search_quotient_with_identity_generator():
    act = free_quotient_lattice_action([(1,), (0,)])
    rep = search_folner(act, Fraction(1, 100))
    assert rep.outcome == "found"
    assert rep.certificate.per_generator_ratios[2] == 0
    assert rep.certificate.size == 400


def test_search_zero_generator_action():
    # every set is invariant: the radius-0 ball, or the one-point box of a
    # zero-word translation fiber, is found at once, even at epsilon 0
    lattice_fiber = word_action(lattice_action(2), [])
    assert lattice_fiber.translation_vectors == ()
    for act in (finite_permutation_action([], 1), lattice_fiber,
                word_action(free_group_action(2), [])):
        for eps in (Fraction(1, 1000), Fraction(0)):
            rep = search_folner(act, eps)
            assert rep.outcome == "found"
            assert tuple(sorted(rep.certificate.members, key=act.sort_key)) == (act.origin,)
            assert rep.certificate.max_ratio == Fraction(0)
            assert tuple(sorted(rep.best_set, key=act.sort_key)) == (act.origin,)
            assert rep.best_ratio == 0
            assert rep.sets_examined == 1
            assert rep.radius_reached == 0


def test_subset_enumeration_counts_intervals():
    # connected subsets of Z containing 0 with size <= k are intervals:
    # exactly k (k + 1) / 2 of them, plus the radius-0 ball seen first.
    # F1 is Z with one generator and no translation vectors, so neither
    # the size floor nor the box answers first
    k = 6
    budget = SearchBudget(max_radius=0, subset_size_cap=k, max_subsets=200_000)
    rep = search_folner(free_group_action(1), Fraction(1, 10**9), budget)
    assert rep.outcome == "exhausted"
    assert rep.sets_examined == 1 + k * (k + 1) // 2
    # the best interval has size k and exact ratio 2/k
    assert rep.best_ratio == Fraction(2, k)
    assert len(rep.best_set) == k


def test_f2_exhausts_with_large_best_ratio():
    budget = SearchBudget(max_radius=3, subset_size_cap=6, max_subsets=5000)
    rep = search_folner(free_group_action(2), Fraction(3, 10), budget)
    assert rep.outcome == "exhausted"
    assert rep.best_ratio >= Fraction(1, 2)


def test_ball_scores_pinned_on_f2():
    # subset_size_cap=1 leaves only the root after the balls of radius 0..4;
    # the values were recorded when balls were scored one Fraction per
    # signed generator, before balls and subsets shared one overlap score
    act = free_group_action(2)
    budget = SearchBudget(max_radius=4, subset_size_cap=1, max_subsets=1)
    rep = search_folner(act, Fraction(1, 2), budget)
    assert rep.outcome == "exhausted"
    assert rep.sets_examined == 6
    assert rep.best_ratio == Fraction(162, 161)
    assert rep.best_set == orbit_ball(act, 4).points
    assert rep.radius_reached == 4


@pytest.mark.parametrize("points, radius, examined, ratio", [
    (17, 2, 4, Fraction(18, 17)),  # the radius-2 ball fills the budget exactly
    (16, 1, 3, Fraction(6, 5)),  # the radius-2 ball is over budget
])
def test_orbit_balls_stop_at_the_point_budget(monkeypatch, points, radius, examined, ratio):
    # the balls stop below max_radius; the one subset left is the root.
    # orbit_ball reads the budget in actions, the ball stop in folner
    for module in (actions, folner):
        monkeypatch.setattr(module, "DEFAULT_POINT_BUDGET", points)
    budget = SearchBudget(max_radius=12, subset_size_cap=3, max_subsets=1)
    rep = search_folner(free_group_action(2), "0.5", budget)
    assert rep.outcome == "exhausted"
    assert (rep.radius_reached, rep.sets_examined, rep.best_ratio) == (radius, examined, ratio)


def test_ball_found_permutation_certificate_pinned():
    # on the 7-cycle the radius-2 ball {5, 6, 0, 1, 2} is the first set
    # within 1/2; recorded under the same per-generator scoring
    act = finite_permutation_action([(1, 2, 3, 4, 5, 6, 0)], 7)
    rep = search_folner(act, Fraction(1, 2))
    assert rep.outcome == "found"
    assert rep.sets_examined == 3
    assert rep.best_ratio == Fraction(2, 5)
    assert rep.best_set == rep.certificate.members
    assert tuple(sorted(rep.best_set, key=act.sort_key)) == (0, 1, 2, 5, 6)
    assert rep.radius_reached == 2
    assert rep.certificate.per_generator_ratios == {1: Fraction(2, 5), -1: Fraction(2, 5)}


def test_folner_sequence_stops_at_first_miss():
    act = free_group_action(2)
    budget = SearchBudget(max_radius=2, subset_size_cap=4, max_subsets=500)
    reports = folner_sequence(act, [Fraction(2, 1), Fraction(1, 10), Fraction(1, 20)], budget)
    # the third epsilon is never searched
    assert [r.outcome for r in reports] == ["found", "exhausted"]
    assert reports[0].certificate is not None
    assert reports[1].certificate is None


def test_folner_sequence_all_found_on_z():
    reports = folner_sequence(lattice_action(1), ["0.5", "0.25", "0.125"])
    assert [r.outcome for r in reports] == ["found"] * 3
    assert [r.certificate.size for r in reports] == [4, 8, 16]
    # ratios shrink along the sequence
    ratios = [r.certificate.max_ratio for r in reports]
    assert ratios == sorted(ratios, reverse=True)


def test_box_doubling_beats_pessimistic_side():
    # the first box always verifies (test_box_ratio_is_at_most_two_over_side);
    # check that searches never hand back an unverified set
    rep = search_folner(lattice_action(2), Fraction(3, 100))
    cert = rep.certificate
    again = verify_certificate(cert.action, cert.members, cert.epsilon)
    assert again.per_generator_ratios == cert.per_generator_ratios


def collected_subsets(action, size_cap, max_subsets):
    # every subset the enumerator visits, copied, with its overlap counts
    visited = []

    def visit(members, overlap):
        visited.append((frozenset(members), overlap))
        return False

    assert _connected_subsets(action, size_cap, max_subsets, visit) is False
    return visited


@pytest.mark.parametrize("action, size_cap", [
    (lattice_action(1), 9),
    (lattice_action(2), 6),
    (lattice_action(3), 5),
    (free_group_action(2), 6),
    # the zero vector makes generator 2 fix every point
    (free_quotient_lattice_action([(1, 0), (0, 0), (1, 1)]), 6),
    # generator 2 fixes 0, 1 and 2; generator 3 is the identity
    (finite_permutation_action([(1, 2, 3, 4, 0), (0, 1, 2, 4, 3), (0, 1, 2, 3, 4)], 5), 5),
], ids=lambda p: p.name if hasattr(p, "name") else str(p))
def test_carried_overlaps_match_set_ratios(action, size_cap):
    seen = set()
    for E, overlap in collected_subsets(action, size_cap, 3000):
        assert E not in seen and action.origin in E and len(E) <= size_cap
        seen.add(E)
        assert len(overlap) == action.generator_count
        ratios = set_ratios(action, E)
        for g in action.generators():
            assert ratios[g] == Fraction(2 * (len(E) - overlap[abs(g) - 1]), len(E))
    assert seen


def rescanning_subsets(action, root, size_cap, max_subsets):
    # the enumerator as it was before the point table: every add applies
    # all 2n generators to the point and sorts its fresh images again
    gens = action.generators()
    n = action.generator_count
    if max_subsets < 1:
        return
    members = set()
    seen = {root}
    frontier = []

    def add(v, overlap):
        img = [action.apply_fn(g, v) for g in gens]
        overlap = tuple(
            ov + (img[i] in members or img[i] == v) + (img[n + i] in members)
            for i, ov in enumerate(overlap)
        )
        members.add(v)
        fresh = []
        if len(members) < size_cap:
            fresh = sorted({u for u in img if u not in seen}, key=action.sort_key)
            seen.update(fresh)
            frontier.extend(fresh)
        return overlap, fresh

    def remove(v, fresh):
        members.remove(v)
        seen.difference_update(fresh)
        del frontier[len(frontier) - len(fresh):]

    overlap, fresh = add(root, (0,) * n)
    yield members, overlap
    emitted = 1
    stack = [[0, len(frontier), overlap, root, fresh]]
    while stack and emitted < max_subsets:
        frame = stack[-1]
        i, end = frame[0], frame[1]
        if i == end:
            stack.pop()
            remove(frame[3], frame[4])
            continue
        frame[0] = i + 1
        v = frontier[i]
        overlap, fresh = add(v, frame[2])
        yield members, overlap
        emitted += 1
        if len(members) < size_cap:
            stack.append([i + 1, len(frontier), overlap, v, fresh])
        else:
            remove(v, fresh)


ENUMERATION_FAMILIES = {
    "Z1": lattice_action(1),
    "Z2": lattice_action(2),
    "Z3": lattice_action(3),
    "F2": free_group_action(2),
    "F3": free_group_action(3),
    "quotient-repeated": free_quotient_lattice_action([(1, 0), (1, 0), (0, 1)]),
    # the zero vector makes generator 2 fix every point
    "quotient-zero": free_quotient_lattice_action([(1, 0), (0, 0), (1, 1)]),
    # the orbit of 0 is 0..4; generator 1 fixes 2 to 5, generator 2 fixes 0 and 5
    "permutation-fixed-points": finite_permutation_action(
        [(1, 0, 2, 3, 4, 5), (0, 2, 3, 4, 1, 5)], 6),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_FAMILIES))
def test_table_enumeration_matches_rescanning_oracle(name):
    action = ENUMERATION_FAMILIES[name]
    for size_cap in range(1, 9):
        for max_subsets in (1, 2, 3000):
            table = collected_subsets(action, size_cap, max_subsets)
            oracle = [(frozenset(m), ov) for m, ov in
                      rescanning_subsets(action, action.origin, size_cap, max_subsets)]
            assert table == oracle, (size_cap, max_subsets)


def test_table_enumeration_applies_each_generator_once_per_point():
    action = free_group_action(3)
    calls = Counter()

    def counting(g, x, apply_fn=action.apply_fn):
        calls[x] += 1
        return apply_fn(g, x)

    counted = dataclasses.replace(action, apply_fn=counting)
    added = set()
    items = 0
    for members, _overlap in collected_subsets(counted, 12, 50_000):
        added |= members
        items += 1
    assert items == 50_000
    # 2n applications to every point ever added, and to no other point
    assert calls == {x: 6 for x in added}
    assert sum(calls.values()) == 8_622


def test_an_accepting_visit_stops_the_enumeration_at_its_subset():
    action = free_group_action(2)
    every = collected_subsets(action, 6, 3000)
    for stop in (0, 1, 17, len(every) - 1):
        visited = []

        def visit(members, overlap):
            visited.append((frozenset(members), overlap))
            return len(visited) > stop

        assert _connected_subsets(action, 6, 3000, visit) is True
        assert visited == every[:stop + 1]


def test_enumeration_at_the_largest_cap_fits_a_low_recursion_limit():
    # the recursion takes one call per member, so the largest cap a budget
    # admits needs 14 frames and a few helpers' beyond its caller's
    cap = SearchBudget().subset_size_cap
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        sizes = [len(E) for E, _overlap in collected_subsets(free_group_action(3), cap, 5000)]
    finally:
        sys.setrecursionlimit(limit)
    assert len(sizes) == 5000
    assert max(sizes) == cap


def test_enumeration_releases_its_point_table():
    # the recursion reaches itself through a closure cell, a reference cycle
    # that would keep the 1.1 MB point table alive until a cyclic collection;
    # the frozen full collection empties the interpreter's free lists (of
    # point and overlap tuples) and collects no cycle
    action = free_group_action(3)
    visits = 0

    def visit(_members, _overlap):
        nonlocal visits
        visits += 1
        return False

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _connected_subsets(action, 12, 50_000, visit)
        gc.freeze()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.unfreeze()
        gc.enable()
    assert visits == 50_000
    assert left < 0.1 * 2**20


def test_subset_search_pins_free3_enum_budget():
    # the bench's free3_enum budget; recorded before the point table
    action = free_group_action(3)
    budget = SearchBudget(max_radius=6, subset_size_cap=12, max_subsets=50_000)
    rep = search_folner(action, Fraction(1, 2), budget)
    assert rep.outcome == "exhausted"
    assert rep.sets_examined == 50_007
    assert rep.best_ratio == Fraction(31250, 23437)
    assert rep.best_set == orbit_ball(action, 6).points
    assert rep.radius_reached == 6


def test_subset_search_pins_f2():
    # values recorded before the enumeration carried its overlap counts
    budget = SearchBudget(max_radius=1, subset_size_cap=9, max_subsets=6000)
    action = free_group_action(2)
    rep = search_folner(action, Fraction(3, 10), budget)
    assert rep.outcome == "exhausted"
    assert rep.sets_examined == 6002
    assert rep.best_ratio == Fraction(10, 9)
    assert tuple(sorted(rep.best_set, key=action.sort_key)) == (
        (), (-2,), (-1,), (1,), (2,), (-2, -2), (-2, -1), (-1, -2), (1, -2))


def test_subset_search_pins_z3():
    # the size floor 40^3 of a 1/20-Folner set in Z^3 is within the point
    # budget, so the search runs; the first box, 120^3 points, overruns it,
    # so the subsets decide
    budget = SearchBudget(max_radius=1, subset_size_cap=10, max_subsets=4000)
    action = lattice_action(3)
    rep = search_folner(action, Fraction(1, 20), budget)
    assert rep.outcome == "exhausted"
    assert rep.sets_examined == 4002
    assert rep.best_ratio == Fraction(6, 5)
    assert tuple(sorted(rep.best_set, key=action.sort_key)) == (
        (-1, -1, 0), (-1, 0, -1), (-1, 0, 0), (0, -1, -1), (0, -1, 0), (0, 0, -1),
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_subset_search_certificate_is_verified():
    # a 6-cycle: the radius-0 ball scores 2, the first two-point arc scores 1
    act = finite_permutation_action([(1, 2, 3, 4, 5, 0)], 6)
    budget = SearchBudget(max_radius=0, subset_size_cap=6, max_subsets=100)
    rep = search_folner(act, Fraction(1), budget)
    assert rep.outcome == "found"
    assert rep.sets_examined == 3
    assert tuple(sorted(rep.certificate.members, key=act.sort_key)) == (0, 1)
    assert rep.certificate.max_ratio == Fraction(1)


def test_independent_box_refused_before_it_is_built(monkeypatch):
    def no_points(*args):
        raise AssertionError("an oversized box must not be built")

    monkeypatch.setattr(folner, "_translate", no_points)
    with pytest.raises(BudgetExceededError) as info:
        translation_box(lattice_action(3), 120)
    assert str(info.value) == "translation box of side 120 exceeds 1000000 points"
    monkeypatch.undo()
    # side**3 == the point budget is within it and still built
    assert len(box_within(lattice_action(3), 10, 1000)) == 1000


def test_translation_box_refuses_an_action_that_is_not_translation():
    with pytest.raises(InputError, match=r"^free\(2\) is not a translation action$"):
        translation_box(free_group_action(2), 3)


def test_size_floor_refuses_before_any_set_is_built(monkeypatch):
    # every 1/2-Folner set of Z^20 has at least 4^20 points, far over the budget;
    # the refusal names the rank at which the floor crossed it, 4^10
    def unreachable(*args, **kwargs):
        raise AssertionError("a set was built below the size floor")

    for name in ("orbit_ball", "_connected_subsets", "translation_box"):
        monkeypatch.setattr(folner, name, unreachable)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        search_folner(lattice_action(20), Fraction(1, 2))
    assert time.perf_counter() - started < 1.0
    assert str(info.value) == ("every 1/2-Folner set of lattice(20) has at least "
                               "(2/epsilon)^10 = 4^10 points, above the point budget 1000000")
    # (20/3)^2 is just over 44
    with pytest.MonkeyPatch.context() as patch, pytest.raises(
            BudgetExceededError, match=r"= \(20/3\)\^2 points, above the point budget 44$"):
        patch.setattr(folner, "DEFAULT_POINT_BUDGET", 44)
        search_folner(lattice_action(2), Fraction(3, 10))
    # a dependent family is refused by its rank: three vectors of rank 2
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"\(2/epsilon\)\^2 = 2000\^2 points, above the point budget 1000000$"):
        search_folner(free_quotient_lattice_action([(1, 0), (0, 1), (1, 1)]), Fraction(1, 1000))
    assert time.perf_counter() - started < 1.0


def floor_tight_sizes(action, shape):
    """Check |E| r^k >= 2^k on every nonempty subset E of the box, for r
    the largest ratio of E and k the rank of the action's vectors, and
    return the sizes of the subsets that meet it with equality."""
    k = rank_by_full_elimination(action.translation_vectors)
    points = list(itertools.product(*(range(n) for n in shape)))
    tight = set()
    for mask in range(1, 2 ** len(points)):
        E = [p for i, p in enumerate(points) if mask >> i & 1]
        r = max(set_ratios(action, E).values())
        assert len(E) * r**k >= 2**k
        if len(E) * r**k == 2**k:
            tight.add(len(E))
    return tight


@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (2, 2, 2), (3, 2, 2)])
def test_size_floor_holds_on_every_subset_of_a_small_box(shape):
    # squares and cubes meet the floor with equality
    d = len(shape)
    assert 2**d in floor_tight_sizes(lattice_action(d), shape)


@pytest.mark.parametrize("vectors, shape, tight", [
    ([(1,), (2,)], (9,), {1}),
    ([(1, 0), (0, 1), (1, 1)], (3, 3), {1}),
    # (2, 0) splits Z^2 into two cosets
    ([(2, 0), (0, 1), (1, 0)], (4, 3), {1}),
    # a repeated and a non-primitive vector
    ([(1, 0), (1, 0), (0, 2)], (3, 3), {1, 4}),
    ([(3, 0), (0, 1), (1, 1), (0, 0)], (4, 3), {1}),
])
def test_rank_floor_holds_on_every_subset_of_a_small_box(vectors, shape, tight):
    # the floor of a dependent family is (2/epsilon)^rank; a point has
    # ratio 2 under every nonzero vector, so it always meets it
    assert floor_tight_sizes(free_quotient_lattice_action(vectors), shape) == tight


def test_degenerate_box_keeps_its_true_image():
    action = free_quotient_lattice_action([(1, 0), (0, 1), (1, 1)])
    side = 10
    image = {
        (a + c, b + c)
        for a in range(side) for b in range(side) for c in range(side)
    }
    assert len(image) < side**3
    assert box_within(action, side, len(image)) == image
    with pytest.raises(BudgetExceededError):
        box_within(action, side, len(image) - 1)


def layered_box(action, side, max_points):
    # the box as it was first built: each layer swept one step at a time,
    # translating the whole partial image per step
    moving = [v for v in action.translation_vectors if any(v)]
    if side ** len(moving) > max_points and rank_by_full_elimination(moving) == len(moving):
        raise BudgetExceededError("refused before it is built", partial_count=0)
    points = {action.origin}
    for vector in moving:
        layer = set(points)
        acc = set(points)
        for _ in range(side - 1):
            layer = {tuple(c + d for c, d in zip(x, vector)) for x in layer}
            acc |= layer
            if len(acc) > max_points:
                raise BudgetExceededError("over budget", partial_count=len(acc))
        points = acc
    return frozenset(points)


def box_families(count=40, seed=20):
    # zero, repeated, negative and non-primitive vectors in Z^1..Z^3
    families = [
        [(2,)], [(-3,), (2,), (0,)], [(2, 0)], [(2, 0), (2, 4), (-3, 3)],
        [(1, 0), (1, 0), (0, 0), (-1, 2)], [(1, 1, 0), (0, 2, -2), (1, 3, -2), (0, 0, 0)],
    ]
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 3)
        vectors = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if vectors and roll < 0.2:
                vectors.append(rng.choice(vectors))
            elif roll < 0.3:
                vectors.append((0,) * dim)
            elif vectors and roll < 0.45:
                k = rng.choice((-3, -2, -1, 2, 3))
                vectors.append(tuple(k * c for c in rng.choice(vectors)))
            else:
                vectors.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
        families.append(vectors)
    return families


def test_crossing_rank_matches_full_elimination(monkeypatch):
    # 2^r > 2^k - 1 first at r = k, so the crossing is k while the rank reaches
    # it; the elimination stops there, having taken k pivots and no more, and
    # a crossing past the vector count is answered without any pivot
    independent = folner._independent
    taken = []

    def counted(vectors):
        for pivot in independent(vectors):
            taken.append(pivot)
            yield pivot

    monkeypatch.setattr(folner, "_independent", counted)
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(1, 6)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(dim))
                   for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            # an integer combination of earlier vectors makes the family dependent
            u, v = rng.choice(vectors), rng.choice(vectors)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            vectors.insert(rng.randrange(len(vectors) + 1),
                           tuple(s * x + t * y for x, y in zip(u, v)))
        rank = rank_by_full_elimination(vectors)
        for k in range(len(vectors) + 2):
            taken.clear()
            crossing = crossing_within(vectors, 2, 2**k - 1)
            assert crossing == (k if k <= rank else None), (vectors, k)
            assert len(taken) == (min(k, rank) if k <= len(vectors) else 0), (vectors, k)


def test_crossing_rank_of_a_unit_basis_is_fast():
    # a row whose pivot-column entry is 0 is left as it is, not rebuilt
    basis = list(lattice_action(300).translation_vectors)
    start = time.perf_counter()
    assert crossing_within(basis, 2, 2**300 - 1) == 300
    assert crossing_within(basis, 2, 2**300) is None
    assert time.perf_counter() - start < 10.0


def test_crossing_rank_forms_no_power_past_the_crossing():
    # a base of 4001 digits crosses any budget at once, and one under 1 never
    vectors = list(lattice_action(1000).translation_vectors)
    assert folner._crossing_rank(vectors, Fraction(2 * 10**4000)) == 1
    assert folner._crossing_rank(vectors, Fraction(1, 2)) is None
    assert folner._crossing_rank(vectors, 1) is None
    # one point is over a budget under 1, so the crossing is rank 0
    assert crossing_within(vectors, 1, 0) == 0
    assert crossing_within([(0, 0)], 5, 0) == 0


def test_floor_over_a_dense_family_stops_at_the_rank_where_it_crosses():
    # a full elimination of 300 dense vectors takes seconds; at epsilon 1/2 the
    # floor crosses the default budget at rank 10, where the elimination stops
    rng = random.Random(3)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(300)) for _ in range(300)]
    action = free_quotient_lattice_action(vectors)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"\(2/epsilon\)\^10 = 4\^10 points, above the point budget 1000000$"):
        search_folner(action, Fraction(1, 2))
    assert time.perf_counter() - started < 1.0


def test_box_matches_layered_construction():
    for vectors in box_families():
        action = free_quotient_lattice_action(vectors)
        moving = [v for v in vectors if any(v)]
        rank = rank_by_full_elimination(moving)
        for side in range(1, 8):
            image = layered_box(action, side, 10**9)
            assert translation_box(action, side) == image, (vectors, side)
            assert box_within(action, side, len(image)) == image
            try:
                layered_box(action, side, len(image) - 1)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError) as info:
                    box_within(action, side, len(image) - 1)
                # side**rank points of the image already overflow, so the box is
                # refused unbuilt, dependent or not; else every layer outgrows
                # the last, so only the full one is refused
                unbuilt = side**rank > len(image) - 1
                assert info.value.partial_count == (0 if unbuilt else len(image))
            else:
                # the oracle sweeps nothing for a dependent family at side 1;
                # the box refuses its one point under a zero budget unbuilt
                assert (side, rank == len(moving)) == (1, False)
                with pytest.raises(BudgetExceededError) as info:
                    box_within(action, 1, 0)
                assert info.value.partial_count == 0


def test_box_ratio_is_at_most_two_over_side():
    # the box is A + [0, side) v_i, so every coset line of Z v_i meets it in
    # runs of at least side points with one exit each: ratio <= 2 / side
    families = box_families(400, seed=16)
    assert len(families) >= 400
    reached = 0
    for vectors in families:
        action = free_quotient_lattice_action(vectors)
        for side in range(1, 9):
            box = translation_box(action, side)
            cert = verify_certificate(action, box, Fraction(2, side))
            reached += cert.max_ratio == Fraction(2, side)
    assert reached > 0


def test_subset_table_stops_at_the_point_budget(monkeypatch):
    monkeypatch.setattr(folner, "DEFAULT_POINT_BUDGET", 100)
    action = free_group_action(3)
    table = {action.origin}

    def recording(g, x, apply_fn=action.apply_fn):
        y = apply_fn(g, x)
        table.add(y)
        return y

    counted = dataclasses.replace(action, apply_fn=recording)
    emitted = len(collected_subsets(counted, 14, 10**6))
    # the table outgrew the bound by one added point's 2n images, no more
    assert 100 < len(table) <= 100 + 2 * action.generator_count
    assert emitted < 10**6
    rep = search_folner(action, Fraction(1, 100), SearchBudget(max_radius=0))
    assert rep.outcome == "exhausted"
    assert rep.best_set is not None
    assert rep.sets_examined < 200


def test_one_point_box_needs_one_point_of_budget():
    # one point is over a zero budget, so every family is refused unbuilt
    origin = (0, 0)
    for vectors in ([(1, 0), (2, 0)], [(1, 0), (0, 1)], [(0, 0)]):
        action = free_quotient_lattice_action(vectors)
        with pytest.raises(BudgetExceededError) as info:
            box_within(action, 1, 0)
        assert info.value.partial_count == 0, vectors
        assert box_within(action, 1, 1) == {origin}


def test_dense_box_is_refused_unbuilt(monkeypatch):
    # 200 dense vectors: the first three pivots put 200^3 points over the budget
    rng = random.Random(0)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(200)) for _ in range(200)]
    action = free_quotient_lattice_action(vectors)

    def no_points(*args):
        raise AssertionError("an oversized box must not be built")

    monkeypatch.setattr(folner, "_translate", no_points)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        translation_box(action, 200)
    assert time.perf_counter() - started < 0.2
    assert info.value.partial_count == 0


def test_dependent_box_is_refused_unbuilt(monkeypatch):
    # rank 2 of three vectors: 10^2 points of the image overflow a budget of 99
    monkeypatch.setattr(folner, "_translate", lambda *args: pytest.fail("box was built"))
    action = free_quotient_lattice_action([(1, 0), (0, 1), (1, 1)])
    monkeypatch.setattr(folner, "DEFAULT_POINT_BUDGET", 99)
    with pytest.raises(BudgetExceededError) as info:
        translation_box(action, 10)
    assert str(info.value) == "translation box of side 10 exceeds 99 points"
    assert info.value.partial_count == 0


def test_tiny_epsilon_floor_names_rank_1_at_once():
    # (2/epsilon)^1 alone is 4001 digits; no power of it is formed past rank 1
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        search_folner(lattice_action(1000), Fraction(1, 10**4000))
    assert time.perf_counter() - started < 0.5
    assert str(info.value).endswith(
        f"has at least (2/epsilon)^1 = {2 * 10**4000}^1 points, above the point budget 1000000")


def test_zero_vectors_box_with_a_long_side_is_found():
    # side ceil(10 / epsilon) has 4301 digits; the box is the origin, and the
    # refusal message that cannot print it is never worded
    action = free_quotient_lattice_action([(0,)] * 5)
    rep = search_folner(action, Fraction(1, 10**4299))
    assert rep.outcome == "found"
    assert tuple(sorted(rep.certificate.members, key=action.sort_key)) == ((0,),)


def verifier_sets():
    rng = random.Random(5)
    sets = []
    for dim in (1, 2, 3):
        act = lattice_action(dim)
        sets.append((act, translation_box(act, 4)))
        sets.append((act, orbit_ball(act, 3).points))
        for _ in range(6):
            sets.append((act, {tuple(rng.randrange(-3, 4) for _ in range(dim))
                               for _ in range(rng.randrange(1, 30))}))
    # the zero vector makes generator 2 fix every point
    quotient = free_quotient_lattice_action([(1, 0), (0, 0), (1, 1)])
    sets.append((quotient, translation_box(quotient, 5)))
    sets.append((quotient, orbit_ball(quotient, 2).points))
    sets.append((quotient, {(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(20)}))
    # generator 2 fixes 0, 1 and 2; generator 3 is the identity
    perm = finite_permutation_action([(1, 2, 3, 4, 0), (0, 1, 2, 4, 3), (0, 1, 2, 3, 4)], 5)
    sets += [(perm, {0}), (perm, {0, 1, 3}), (perm, {3, 4}), (perm, set(range(5)))]
    f2 = free_group_action(2)
    # sampled in sort order, so the seeded draws are fixed
    ball = sorted(orbit_ball(f2, 3).points, key=f2.sort_key)
    sets += [(f2, orbit_ball(f2, r).points) for r in range(4)]
    sets += [(f2, set(rng.sample(ball, rng.randrange(1, 20)))) for _ in range(5)]
    return sets


def test_verifier_matches_independent_oracles():
    for action, members in verifier_sets():
        E = frozenset(members)
        probes = Counter()

        def counting(g, x, apply_fn=action.apply_fn):
            probes[g] += 1
            return apply_fn(g, x)

        cert = verify_certificate(dataclasses.replace(action, apply_fn=counting), E, 2)
        # one pass: every signed generator moves every point exactly once
        assert probes == {g: len(E) for g in action.generators()}
        assert cert.per_generator_ratios == set_ratios(action, E)
        assert cert.boundary_size == len(boundary(action, E))


@pytest.mark.parametrize("dim, epsilon, generator, ratio", [
    (2, Fraction(1, 2), 1, Fraction(2, 3)),
    (3, Fraction(1), 2, Fraction(2)),
])
def test_verifier_names_first_failing_generator(dim, epsilon, generator, ratio):
    # a segment along the first axis fails two generators at epsilon 1/2
    # (1, then the worse 2) and two at epsilon 1 (2 and 3); the first in
    # generator order is named, as before verification took one pass
    segment = [(k,) + (0,) * (dim - 1) for k in range(3)]
    with pytest.raises(FolnerVerificationError) as err:
        verify_certificate(lattice_action(dim), segment, epsilon)
    assert (err.value.generator, err.value.ratio) == (generator, ratio)


BUDGET_MINIMA = {"max_radius": 0, "subset_size_cap": 1, "max_subsets": 1}


@pytest.mark.parametrize("name", sorted(BUDGET_MINIMA))
def test_budget_refuses_a_field_below_its_minimum(name):
    least = BUDGET_MINIMA[name]
    assert getattr(SearchBudget(**{name: least}), name) == least
    with pytest.raises(InputError) as err:
        SearchBudget(**{name: least - 1})
    assert str(err.value) == f"{name}: must be at least {least}, got {least - 1}"


@pytest.mark.parametrize("value", [True, 1.5, "3"])
@pytest.mark.parametrize("name", sorted(BUDGET_MINIMA))
def test_budget_refuses_a_field_that_is_not_an_integer(name, value):
    with pytest.raises(InputError) as err:
        SearchBudget(**{name: value})
    assert str(err.value) == f"{name}: expected an integer, got {value!r}"


@pytest.mark.parametrize("field", dataclasses.fields(SearchBudget), ids=lambda f: f.name)
def test_budget_field_may_lower_its_default_but_not_raise_it(field):
    assert getattr(SearchBudget(**{field.name: field.default}), field.name) == field.default
    with pytest.raises(InputError) as err:
        SearchBudget(**{field.name: field.default + 1})
    assert str(err.value) == (f"{field.name}: must be at most {field.default}, "
                              f"got {field.default + 1}")
    # a value too long to print is named, not printed
    with pytest.raises(InputError) as err:
        SearchBudget(**{field.name: 10**5000})
    assert str(err.value) == (f"{field.name}: must be at most {field.default}, "
                              "got <int past the int-to-str digit limit>")


def test_budget_is_frozen():
    budget = SearchBudget()
    with pytest.raises(dataclasses.FrozenInstanceError):
        budget.max_subsets = 5
    assert budget.max_subsets == SearchBudget().max_subsets


SMALLEST_BUDGET = SearchBudget(max_radius=0, subset_size_cap=1, max_subsets=1)


@pytest.mark.parametrize("action, epsilon", [
    (lattice_action(2), Fraction(0)),
    (free_group_action(2), Fraction(1, 2)),
    (finite_permutation_action([(1, 2, 0), (1, 0, 2)], 3), Fraction(0)),
    (free_quotient_lattice_action([(1, 0), (0, 1), (1, 1)]), Fraction(0)),
], ids=["lattice", "free_group", "permutation", "quotient"])
def test_the_smallest_budget_still_leaves_a_best_set(action, epsilon):
    # every budget scores at least the radius-0 ball
    rep = search_folner(action, epsilon, SMALLEST_BUDGET)
    assert rep.outcome == "exhausted"
    assert isinstance(rep.best_ratio, Fraction)
    assert tuple(sorted(rep.best_set, key=action.sort_key)) == (action.origin,)


def test_epsilon_too_long_to_print_is_refused():
    # 10^4299 has 4300 digits and twice it still 4300; 10^4300 has 4301
    assert exact_fraction("1e-4299") == Fraction(1, 10**4299)
    for value in ("1e-4300", "1.6e-4300", Fraction(10**4300), 5 * 10**4299):
        with pytest.raises(InputError, match="has more than 4300 digits cannot be printed"):
            exact_fraction(value)
    with pytest.raises(InputError, match="4300 digits"):
        search_folner(lattice_action(1), Fraction(1, 10**4300))
