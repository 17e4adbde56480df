"""Witness construction and two-sided transfer checks."""

import dataclasses
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from coverlab import transfer
from coverlab import (
    BudgetExceededError,
    InequalityViolation,
    InputError,
    NumericalError,
    SearchBudget,
    WeightedGraph,
    build_cover,
    build_witness,
    counterexample_check,
    cutoff,
    easy_direction_check,
    interval_comparison,
    lattice_action,
    orbit_ball,
    required_ratio,
    search_folner,
    transfer_negativity,
    verify_certificate,
)
from coverlab.cli import main
from coverlab.scenario import load_scenario
import oracles
from oracles import cover_quadratic_form, lift_function

FLAT_V3 = (-0.05, -0.05, -0.05)
FLAT_V4 = (-0.1, -0.1, -0.1, -0.1)
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_required_ratio_hand_value(k4):
    # f = 1: Q_base = -0.4, bracket = 4/16 + 0.4, ratio = 0.4/0.65 = 8/13
    ratio = required_ratio(k4, (1.0,) * 4, 4, FLAT_V4, 1.0)
    assert ratio == pytest.approx(8.0 / 13.0, abs=1e-12)


def test_required_ratio_rejections(triangle):
    with pytest.raises(InputError):
        required_ratio(triangle, (1.0,) * 3, 0, FLAT_V3, 1.0)
    with pytest.raises(InputError):
        required_ratio(triangle, (0.0,) * 3, 2, FLAT_V3, 1.0)
    with pytest.raises(InputError):
        required_ratio(triangle, (1.0,) * 3, 2, (0.05, 0.05, 0.05), 1.0)


def test_alpha_past_the_point_budget_is_refused(triangle_cover):
    # an alpha whose square is past float range used to overflow the base
    # sums' division with a bare OverflowError
    alpha = 10**400
    message = rf"^alpha: must be at most 1000000, got 1{'0' * 199}\.\.\.$"
    for call in (lambda: required_ratio(triangle_cover.base, (1.0,) * 3, alpha, FLAT_V3, 1.0),
                 lambda: cutoff(triangle_cover, [(0,)], alpha)):
        with pytest.raises(InputError, match=message):
            call()


@pytest.mark.parametrize("f, message", [
    (("x", 1, 1), "f[0]: expected a real number, got 'x'"),
    ((1, None, 1), "f[1]: expected a real number, got None"),
    ((1, 1, float("nan")), "f[2]: must be finite, got nan"),
    ((1, 1), "function has 2 entries for 3 vertices"),
])
def test_base_function_is_checked_per_vertex(triangle_cover, f, message):
    # a non-numeric entry used to escape as a bare ValueError
    cert = verify_certificate(triangle_cover.fiber_action, [(0,)], 2)
    for call in (lambda: required_ratio(triangle_cover.base, f, 2, FLAT_V3, 1.0),
                 lambda: build_witness(triangle_cover, f, cert, 2, FLAT_V3, 1.0)):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


def support_only_sums(graph, f, V, a, alpha):
    """The base sums as they were taken over the support of f alone."""
    values = {v: float(x) for v, x in enumerate(f) if float(x) != 0.0}

    def func(v):
        return values.get(v, 0.0)

    support = sorted(values)
    s_f2 = math.fsum(func(v) ** 2 * graph.mu[v] for v in support)
    s_df2 = math.fsum(w * (func(u) - func(v)) ** 2 for u, v, w in graph.edges)
    s_vf2 = math.fsum(V[v] * func(v) ** 2 * graph.mu[v] for v in support)
    s_neg = math.fsum(max(0.0, -a * V[v]) * func(v) ** 2 * graph.mu[v] for v in support)
    q_base = s_df2 + a * s_vf2
    bracket = s_f2 / alpha**2 + (2.0 / alpha) * math.sqrt(s_df2 * s_f2) + s_neg
    return s_f2, s_df2, s_vf2, s_neg, q_base, bracket


def test_base_sums_over_the_vector_equal_the_support_sums():
    rng = random.Random(11)
    for n in (3, 6, 10):
        graph = WeightedGraph([rng.uniform(0.1, 3.0) for _ in range(n)],
                              [(v, (v + 1) % n, rng.uniform(0.1, 3.0)) for v in range(n)]
                              + [(0, k, rng.uniform(0.1, 3.0)) for k in range(2, n - 1)])
        for _ in range(20):
            f = tuple(rng.choice([0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-1e-8, 1e-8)])
                      for _ in range(n))
            V = tuple(rng.uniform(-3, 3) for _ in range(n))
            a, alpha = rng.uniform(-2, 2), rng.randint(1, 5)
            assert transfer._base_sums(graph, f, V, a, alpha) == \
                support_only_sums(graph, f, V, a, alpha)
    # where f vanishes, a product that overflows adds no term
    graph = WeightedGraph([1.0, 1.0], [(0, 1, 1.0)])
    f, V = (1.0, 0.0), (-1.0, -1e308)
    assert transfer._base_sums(graph, f, V, 1e10, 1) == support_only_sums(graph, f, V, 1e10, 1)


@pytest.mark.parametrize("f, V, name", [
    ((1e154,) * 3, FLAT_V3, "S_f2"),
    ((1.0,) * 3, (1e308, 1e308, -1e308), "S_Vf2"),
])
def test_required_ratio_reports_a_base_sum_past_float_range(triangle, f, V, name):
    # every term is finite, but a partial sum is not
    with pytest.raises(NumericalError, match=f"^{name} overflows float range$"):
        required_ratio(triangle, f, 2, V, 1.0)


def test_witness_chain_hand_values(triangle_cover):
    # every finite set has every ratio <= 2, so epsilon 2 always certifies
    cert = verify_certificate(triangle_cover.fiber_action, [(x,) for x in range(36)], 2)
    witness, report = build_witness(
        triangle_cover, (1.0, 1.0, 1.0), cert, 2, FLAT_V3, 1.0
    )
    assert report.c == 36
    assert report.b == 4
    assert report.collar_ratio == Fraction(1, 9)
    assert report.term_grad == pytest.approx(1.0, abs=1e-12)
    assert report.bound_grad == pytest.approx(3.0, abs=1e-12)
    assert report.term_pot == pytest.approx(-5.325, rel=1e-12)
    assert report.bound_pot == pytest.approx(-4.8, rel=1e-12)
    assert report.Q_cover == pytest.approx(-4.325, rel=1e-12)
    assert report.final_bound == pytest.approx(-1.8, rel=1e-12)
    assert witness((0, (35,))) == 0.5
    assert witness((1, (0,))) == 0.5
    assert witness((2, (17,))) == 1.0
    assert witness((1, (36,))) == 0.0
    # the audited cover energy is the quadratic form of the witness itself
    assert report.Q_cover == cover_quadratic_form(
        triangle_cover, FLAT_V3, 1.0, witness
    )
    trivial = oracles.trivial_cover(triangle_cover.base)
    assert report.Q_base == cover_quadratic_form(
        trivial, FLAT_V3, 1.0, lift_function(trivial, (1.0, 1.0, 1.0), [0])
    )


def test_witness_accepts_certificate(triangle_cover):
    search = search_folner(triangle_cover.fiber_action, Fraction(1, 5))
    assert search.outcome == "found"
    _witness, report = build_witness(
        triangle_cover, (1.0, 1.0, 1.0), search.certificate, 2, FLAT_V3, 1.0
    )
    assert report.epsilon_used == Fraction(1, 5)
    assert report.c == search.certificate.size


@pytest.mark.parametrize("cover_name, radius, f, V, c, b", [
    ("triangle_cover", 0, (1.0,) * 3, FLAT_V3, 1, 3),
    ("tree_cover", 0, (1.0,) * 4, FLAT_V4, 1, 7),
    ("tree_cover", 1, (1.0,) * 4, FLAT_V4, 7, 36),
], ids=["z-one-tile", "f3-one-tile", "f3-radius-1-ball"])
def test_witness_with_more_collar_than_member_tiles_verifies(cover_name, radius, f, V, c, b,
                                                              request):
    # final_bound = c Q_base + b bracket holds for every b, so b > c is no breach
    cover = request.getfixturevalue(cover_name)
    members = orbit_ball(cover.fiber_action, cover.carrier.origin, radius).points
    cert = verify_certificate(cover.fiber_action, members, 2)
    witness, report = build_witness(cover, f, cert, 1, V, 1.0)
    assert (report.c, report.b) == (c, b)
    assert report.b <= report.collar_ball_bound
    assert report.Q_cover == pytest.approx(cover_quadratic_form(cover, V, 1.0, witness))
    assert report.Q_cover <= report.final_bound
    xi = cutoff(cover, members, 1)
    assert (len(xi.collar_tiles), len(xi.members)) == (b, c)


def test_exhausted_search_counts_ratio_without_witness(tree_cover, monkeypatch):
    def refuse(*_args):
        raise AssertionError("witness built over a set that never certified")

    def no_sweep(*_args):
        raise AssertionError("Omega swept vertex by vertex only to count a collar")

    monkeypatch.setattr(transfer, "build_witness", refuse)
    monkeypatch.setattr(transfer, "cutoff", no_sweep)
    monkeypatch.setattr(tree_cover, "neighbors", no_sweep)
    budget = SearchBudget(max_radius=3, subset_size_cap=10, max_subsets=20000)
    outcome = transfer_negativity(tree_cover, FLAT_V4, 1.0, alpha=4, budget=budget)
    assert outcome.status == "inconclusive"
    assert outcome.report is None
    assert outcome.best_collar_ratio == Fraction(937, 187)
    assert "the Folner search exhausted its budget" in outcome.message
    # the first search is the one that exhausted; it is deterministic, so rerun it
    best = search_folner(tree_cover.fiber_action, outcome.epsilon_first, budget).best_set
    assert len(best) == 187
    assert Fraction(*transfer.collar_counts(tree_cover, best, 4)) == outcome.best_collar_ratio
    # the exact radius-alpha ball around the best set's inner boundary
    assert transfer._boundary_ball(tree_cover.fiber_action, best, 4) == 117187


def test_verify_checks_collar_ball_bound(triangle_cover, monkeypatch):
    # a witness whose collar count exceeds the boundary ball is a breach
    search = search_folner(triangle_cover.fiber_action, Fraction(1, 5))
    monkeypatch.setattr(transfer, "_boundary_ball", lambda *_args: 0)
    with pytest.raises(InequalityViolation, match="boundary ball bound 0"):
        build_witness(
            triangle_cover, (1.0, 1.0, 1.0), search.certificate, 2, FLAT_V3, 1.0
        )


@pytest.mark.parametrize("field, shift, message", [
    ("term_pot", "bound_pot", "potential term {term_pot!r} exceeds its bound {bound_pot!r}"),
    ("Q_cover", "final_bound", "cover energy {Q_cover!r} exceeds the final bound {final_bound!r}"),
    ("final_bound", "final_bound",
     "final bound {final_bound!r} disagrees with the split form {split!r}"),
], ids=["potential", "energy", "split"])
def test_verify_names_each_breach_of_the_chain(triangle_cover, field, shift, message):
    # one field of a verified witness report moved one unit past what the chain allows
    search = search_folner(triangle_cover.fiber_action, Fraction(1, 5))
    _witness, report = build_witness(
        triangle_cover, (1.0, 1.0, 1.0), search.certificate, 2, FLAT_V3, 1.0
    )
    bad = dataclasses.replace(report, **{field: getattr(report, shift) + 1})
    expected = message.format(split=bad.bound_grad + bad.bound_pot, **vars(bad))
    with pytest.raises(InequalityViolation) as info:
        bad.verify()
    assert str(info.value) == expected


def test_collar_ball_honours_the_point_budget(triangle_cover, monkeypatch):
    search = search_folner(triangle_cover.fiber_action, Fraction(1, 5))
    monkeypatch.setattr(transfer, "DEFAULT_POINT_BUDGET", 3)
    with pytest.raises(BudgetExceededError,
                       match="collar ball of radius 2 exceeded 3 points at radius 1") as err:
        build_witness(
            triangle_cover, (1.0, 1.0, 1.0), search.certificate, 2, FLAT_V3, 1.0
        )
    assert err.value.partial_count == 4


def test_trivial_cover_witness_identity(trivial_cover):
    f = (1.0, -0.5, 0.25)
    V = (0.3, -0.8, 0.1)
    cert = verify_certificate(trivial_cover.fiber_action, [trivial_cover.carrier.origin], 2)
    witness, report = build_witness(trivial_cover, f, cert, 1, V, 1.0)
    assert (report.b, report.c) == (0, 1)
    assert report.Q_cover == report.Q_base
    assert report.final_bound == pytest.approx(report.Q_base, rel=1e-12)
    origin = trivial_cover.carrier.origin
    assert all(witness((v, origin)) == f[v] for v in range(3))


def test_transfer_on_amenable_cover(triangle_cover):
    outcome = transfer_negativity(triangle_cover, FLAT_V3, 1.0, alpha=2)
    assert outcome.status == "transferred"
    assert outcome.lambda_min_base == pytest.approx(-0.05, abs=1e-12)
    assert outcome.r_star == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert outcome.epsilon_used == outcome.epsilon_first
    assert len(outcome.attempts) == 1
    assert (outcome.report.b, outcome.report.c) == (4, 37)
    assert outcome.best_collar_ratio == Fraction(4, 37)
    assert outcome.best_collar_ratio < Fraction(outcome.r_star)
    assert outcome.report.Q_cover < 0.0


def test_transfer_rejects_nonnegative_base(triangle_cover):
    with pytest.raises(InputError):
        transfer_negativity(triangle_cover, (0.05, 0.05, 0.05), 1.0, alpha=2)


def test_transfer_inconclusive_on_tree(tree_cover):
    budget = SearchBudget(max_radius=3, subset_size_cap=10, max_subsets=20000)
    outcome = transfer_negativity(tree_cover, FLAT_V4, 1.0, alpha=4, budget=budget)
    assert outcome.status == "inconclusive"
    assert "the Folner search exhausted its budget" in outcome.message
    assert search_folner(tree_cover.fiber_action, outcome.epsilon_first, budget).outcome == "exhausted"
    assert not outcome.attempts
    assert outcome.report is None
    assert outcome.best_collar_ratio > Fraction(outcome.r_star)
    assert outcome.r_star == pytest.approx(8.0 / 13.0, abs=1e-12)


def test_counterexample_strict_inclusion(tree_cover):
    budget = SearchBudget(max_radius=3, subset_size_cap=10, max_subsets=20000)
    report = counterexample_check(
        tree_cover, FLAT_V4, 1.0, alpha=4, radii=(0, 2, 4), budget=budget
    )
    assert report.transfer.status == "inconclusive"
    assert report.transfer.lambda_min_base == pytest.approx(-0.1, abs=1e-9)
    assert report.transfer.alpha == 4
    floor = 3.0 - 2.0 * math.sqrt(2.0) - 0.1
    assert all(w.value >= floor - 1e-9 for w in report.windows)


def test_counterexample_rejects_transferring_cover(triangle_cover):
    # on an amenable fiber the transfer succeeds, so no gap can be claimed
    with pytest.raises(InequalityViolation):
        counterexample_check(triangle_cover, FLAT_V3, 1.0, alpha=2, radii=(0, 2))


def test_easy_direction_rows(triangle_cover):
    report = easy_direction_check(
        triangle_cover, (0.1, 0.1, 0.1), a_samples=(1.0, -1.0), radii=(0, 3)
    )
    by_a = {row.a: row for row in report.rows}
    assert by_a[1.0].base_nonnegative
    assert not by_a[-1.0].base_nonnegative
    for row in report.rows:
        assert [w.radius for w in row.windows] == [0, 3]
    for window in by_a[1.0].windows:
        assert window.value >= -1e-9


def test_interval_comparison_balanced(triangle_cover):
    report = interval_comparison(
        triangle_cover,
        (1.0, -1.0, 0.0),
        a_samples=(-1.0, 0.0, 1.0),
        radius=60,
        alpha=2,
    )
    assert abs(report.interval.lower) <= 1e-6
    assert abs(report.interval.upper) <= 1e-6
    assert report.equality_evidence
    by_a = {row.a: row for row in report.rows}
    assert by_a[0.0].base_nonnegative
    assert by_a[1.0].transfer_status == "transferred"
    assert by_a[-1.0].transfer_status == "transferred"


TREE_BUDGET = SearchBudget(max_radius=3, subset_size_cap=10, max_subsets=20000)


def test_the_smallest_budget_still_leaves_a_best_collar_ratio(tree_cover):
    budget = SearchBudget(max_points=1, max_radius=0, subset_size_cap=1, max_subsets=1)
    outcome = transfer_negativity(tree_cover, FLAT_V4, 1.0, alpha=4, budget=budget)
    assert outcome.status == "inconclusive"
    assert isinstance(outcome.best_collar_ratio, Fraction)
    assert outcome.message.endswith(f"; best ratio seen {outcome.best_collar_ratio}")


def test_interval_evidence_fails_on_an_inconclusive_transfer(tree_cover):
    # at a = 1 the base is negative, the radius-2 window is positive and the search exhausts
    report = interval_comparison(tree_cover, FLAT_V4, a_samples=(1.0, 0.0), radius=2,
                                 alpha=4, budget=TREE_BUDGET)
    assert not report.equality_evidence
    negative, zero = report.rows
    assert (negative.base_nonnegative, negative.cover_refuted) == (False, False)
    assert negative.transfer_status == "inconclusive"
    assert zero.base_nonnegative and zero.transfer_status is None


def test_interval_evidence_fails_on_an_unrefuted_window_without_alpha(tree_cover):
    report = interval_comparison(tree_cover, FLAT_V4, a_samples=(1.0, 0.0), radius=2)
    assert not report.equality_evidence
    assert [row.transfer_status for row in report.rows] == [None, None]
    assert not report.rows[0].cover_refuted


def test_transfer_halves_epsilon_until_the_collar_ratio_beats_r_star():
    # C4 unrolled along Z: f = 1 gives Q_base = -4 and bracket 8, so r* = 1/2 exactly
    square = WeightedGraph([1.0] * 4, [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    cover = build_cover(square, lattice_action(1), {(1, 2): (1,)})
    outcome = transfer_negativity(cover, (-1.0,) * 4, 1.0, alpha=1)
    assert outcome.r_star == 0.5
    assert [(w.epsilon_used, w.b, w.c) for w in outcome.attempts] == [
        (Fraction(1, 4), 4, 8), (Fraction(1, 8), 4, 16)]
    assert outcome.status == "transferred"
    assert outcome.epsilon_used == Fraction(1, 8)


def test_transfer_gives_up_after_max_halvings(monkeypatch):
    # the C4-over-Z case above, allowed no halving after its first attempt
    monkeypatch.setattr(transfer, "MAX_HALVINGS", 0)
    square = WeightedGraph([1.0] * 4, [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    cover = build_cover(square, lattice_action(1), {(1, 2): (1,)})
    outcome = transfer_negativity(cover, (-1.0,) * 4, 1.0, alpha=1)
    assert outcome.status == "inconclusive"
    assert outcome.attempts == (outcome.report,)
    assert (outcome.report.epsilon_used, outcome.report.b, outcome.report.c) == (
        Fraction(1, 4), 4, 8)
    assert outcome.best_collar_ratio == Fraction(1, 2)
    assert outcome.message == ("no witness with collar ratio below r* = 0.5: "
                               "0 epsilon halvings after the first search never beat r*; "
                               "best ratio seen 1/2")


def test_transfer_refuses_a_base_nonnegative_up_to_rounding():
    # at a = 0 the triangle's lambda_min is zero up to rounding, and reads just below it
    scn = load_scenario(SCENARIOS / "triangle_transfer.json")
    with pytest.raises(InputError,
                       match=r"^base lambda_min = .* is nonnegative; nothing to transfer$"):
        transfer_negativity(scn.cover, scn.potential, 0.0, scn.params["alpha"])


def sink_windows(monkeypatch):
    """Make every Dirichlet window the transfer checks read come back -1e-6."""
    def sunk(win):
        return dataclasses.replace(win, value=-1e-6)

    window = transfer.dirichlet_window
    monkeypatch.setattr(transfer, "dirichlet_window",
                        lambda *args, **kwargs: sunk(window(*args, **kwargs)))


INCLUSION_BREACH = r"^a=1\.0: base lambda_min=\S+ is nonnegative but the radius-{} window is -1e-06$"


def test_easy_direction_raises_on_negative_window(triangle_cover, monkeypatch):
    sink_windows(monkeypatch)
    with pytest.raises(InequalityViolation, match=INCLUSION_BREACH.format(0)):
        easy_direction_check(triangle_cover, (0.1, 0.1, 0.1), a_samples=(1.0,), radii=(0, 3))


def test_interval_comparison_raises_on_negative_window(triangle_cover, monkeypatch):
    sink_windows(monkeypatch)
    with pytest.raises(InequalityViolation, match=INCLUSION_BREACH.format(3)):
        interval_comparison(triangle_cover, (0.1, 0.1, 0.1), a_samples=(1.0,), radius=3)


def test_counterexample_raises_on_negative_window(tree_cover, monkeypatch):
    sink_windows(monkeypatch)
    budget = SearchBudget(max_radius=2, subset_size_cap=6, max_subsets=200)
    with pytest.raises(InequalityViolation,
                       match=r"^radius-0 window is -1e-06 < 0; the cover is negative after all$"):
        counterexample_check(tree_cover, FLAT_V4, 1.0, alpha=4, radii=(0, 2), budget=budget)


def test_cli_spectrum_negative_window_exit_2(monkeypatch, capsys):
    sink_windows(monkeypatch)
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "k4_tree_spectrum.json"
    code = main(["run", str(path), "--radius", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "violation"
    assert "is nonnegative but the radius-1 window is -1e-06" in report["outcome"]["error"]
