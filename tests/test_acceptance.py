"""End-to-end acceptance checks, one printed verdict line per criterion."""

import math
import pathlib
import time
from fractions import Fraction

import numpy as np
import pytest

from coverlab import (
    SearchBudget,
    WeightedGraph,
    all_subgroups,
    build_cover,
    build_witness,
    coset_duality_check,
    corollary_check,
    cutoff,
    dirichlet_lambda0,
    easy_direction_check,
    free_group_action,
    free_quotient_lattice_action,
    finite_permutation_action,
    lattice_action,
    min_eigenvalue,
    orbit_ball,
    regular_tree_dirichlet_value,
    search_folner,
    transfer_negativity,
)
from coverlab.cli import execute_scenario, render_json
from coverlab.scenario import load_scenario
from oracles import folner_boundary_bound

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
TREE_LIMIT = 3.0 - 2.0 * math.sqrt(2.0)

S3_GENS = [(1, 0, 2), (1, 2, 0)]
S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]


def report_line(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {label}: {verdict}{suffix}")


def leq_rel(x, y, tol=1e-12):
    return x <= y + tol * max(1.0, abs(x), abs(y))


def triangle_z_cover():
    triangle = WeightedGraph(
        [1.0, 1.0, 1.0], [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    )
    return build_cover(triangle, lattice_action(1), [(0, 1, (1,))])


def k4_tree_cover():
    k4 = WeightedGraph(
        [1.0] * 4,
        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
    )
    return build_cover(
        k4, free_group_action(3), [(1, 2, (1,)), (1, 3, (2,)), (2, 3, (3,))]
    )


def random_small_cover(rng):
    """Base on 3..8 vertices with 1 or 2 dimensional lattice voltages."""
    n = int(rng.integers(3, 9))
    tree = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        tree.add((u, v))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    order = rng.permutation(len(rest))
    k_extra = int(rng.integers(1, min(3, len(rest)) + 1))
    extras = [rest[i] for i in order[:k_extra]]
    all_edges = sorted(tree | set(extras))
    edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in all_edges]
    mu = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
    graph = WeightedGraph(mu, edges)

    dim = 2 if (len(extras) >= 2 and rng.random() < 0.5) else 1
    if dim == 1:
        voltages = [(*extras[0], (1,))]
        if len(extras) > 1 and rng.random() < 0.5:
            voltages.append((*extras[1], (int(rng.choice([1, -1])),)))
    else:
        voltages = [(*extras[0], (1,)), (*extras[1], (2,))]
    cover = build_cover(graph, lattice_action(dim), voltages)

    alpha = int(rng.choice([1, 2, 3]))
    eps = Fraction(1, 4 * alpha) if dim == 1 else Fraction(1, 2 * (alpha + 1))
    search = search_folner(cover.fiber_action, eps)
    assert search.outcome == "found"

    f = [float(x) for x in rng.standard_normal(n)]
    if rng.random() < 0.2:
        f[int(rng.integers(0, n))] = 0.0
    V = [float(x) for x in rng.uniform(-1.0, 1.0, size=n)]
    a = float(rng.uniform(-1.5, 1.5))
    return cover, f, search.certificate, alpha, V, a


def random_unit_graph(rng, max_n=12):
    n = int(rng.integers(2, max_n + 1))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, 4))):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v))
    return WeightedGraph([1.0] * n, [(u, v, 1.0) for u, v in sorted(edges)])


def test_criterion_1_randomized_witness_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = -math.inf
    failures = []
    for i in range(100):
        cover, f, cert, alpha, V, a = random_small_cover(rng)
        _witness, rep = build_witness(cover, f, cert, alpha, V, a)
        checks = (
            ("grad", rep.term_grad, rep.bound_grad),
            ("pot", rep.term_pot, rep.bound_pot),
            ("final", rep.Q_cover, rep.final_bound),
        )
        for tag, lhs, rhs in checks:
            margin = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            worst = max(worst, margin)
            if not leq_rel(lhs, rhs):
                failures.append((i, tag, lhs, rhs))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report_line(
        1,
        "witness chain inequalities on 100 random covers",
        ok,
        f"worst relative slack {worst:.2e}, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_criterion_2_amenable_transfer():
    start = time.perf_counter()
    cover = triangle_z_cover()
    V = (-0.05, -0.05, -0.05)
    outcome = transfer_negativity(cover, V, 1.0, alpha=2)
    window = dirichlet_lambda0(cover, 200, V, 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        outcome.status == "transferred"
        and outcome.report.Q_cover < -1e-6
        and window < 0.0
        and elapsed < 30.0
    )
    report_line(
        2,
        "amenable cover inherits strict negativity",
        ok,
        f"Q_cover={outcome.report.Q_cover:.6f}, window_200={window:.6f}, {elapsed:.1f}s",
    )
    assert outcome.status == "transferred"
    assert outcome.report.Q_cover < -1e-6
    assert window < 0.0
    assert elapsed < 30.0


def test_criterion_3_tree_counterexample_regime():
    start = time.perf_counter()
    cover = k4_tree_cover()
    V = (-0.1, -0.1, -0.1, -0.1)
    lam = min_eigenvalue(cover.base, V, 1.0).lambda_min
    floor = TREE_LIMIT - 0.1 - 1e-6
    windows = {
        r: dirichlet_lambda0(cover, r, V, 1.0)
        for r in (0, 2, 4, 6, 8, 10, 12)
    }
    budget = SearchBudget(max_radius=6, subset_size_cap=12, max_subsets=50000)
    outcome = transfer_negativity(cover, V, 1.0, alpha=4, budget=budget)
    elapsed = time.perf_counter() - start
    ok = (
        abs(lam + 0.1) <= 1e-9
        and all(w >= floor for w in windows.values())
        and outcome.status == "inconclusive"
        and outcome.best_collar_ratio > Fraction(outcome.r_star)
        and elapsed < 120.0
    )
    report_line(
        3,
        "free cover keeps windows positive over a negative base",
        ok,
        f"lambda={lam:.12f}, min_window={min(windows.values()):.6f}, "
        f"best_ratio={outcome.best_collar_ratio}, r_star={outcome.r_star:.4f}, "
        f"{elapsed:.1f}s",
    )
    assert abs(lam + 0.1) <= 1e-9
    for r, w in windows.items():
        assert w >= floor, (r, w)
    assert outcome.status == "inconclusive"
    assert outcome.best_collar_ratio > Fraction(outcome.r_star)
    assert elapsed < 120.0


def tree_secular_value(degree, vertex_radius):
    """Dirichlet bottom eigenvalue of the radius-R vertex ball in the
    d-regular tree, from the closed form rather than an eigensolver.

    A radial eigenfunction f_k = (d-1)^(-k/2) sin((R+1-k) theta) meets
    every shell equation and the outer Dirichlet condition, with
    lambda = d - 2 sqrt(d-1) cos(theta).  The root shell equation leaves
    2 (d-1) cos(theta) sin((R+1) theta) = d sin(R theta).  The ground
    state is the positive eigenfunction, so theta is the one root in
    (0, pi/(R+1)); the left side minus the right is positive just above
    0 and negative at pi/(R+1), and plain bisection finds it.
    """
    d, r = degree, vertex_radius

    def secular(theta):
        return 2 * (d - 1) * math.cos(theta) * math.sin((r + 1) * theta) - d * math.sin(r * theta)

    lo, hi = 0.0, math.pi / (r + 1)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if secular(mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return d - 2 * math.sqrt(d - 1) * math.cos(mid)


def test_criterion_4_tree_dirichlet_profile():
    values = {r: regular_tree_dirichlet_value(3, r) for r in (5, 10, 20)}
    # cross-check the radial solver against explicit cover windows; tile
    # radius r in the K4 cover is vertex radius r + 1 in the tree
    cover = k4_tree_cover()
    window5 = dirichlet_lambda0(cover, 4, (0.0,) * 4, 0.0)
    window10 = dirichlet_lambda0(cover, 9, (0.0,) * 4, 0.0)
    solver_agrees = abs(window5 - values[5]) <= 1e-12
    window10_agrees = abs(window10 - values[10]) <= 1e-12
    # and against the closed form, solved without any eigensolver
    secular20 = tree_secular_value(3, 20)
    secular_agrees = abs(secular20 - values[20]) <= 1e-12
    pinned = {5: 0.371404183569495, 10: 0.246018090784810, 20: 0.196029581936553}
    matches_pinned = all(abs(values[r] - pinned[r]) <= 1e-12 for r in values)

    decreasing = values[5] > values[10] > values[20]
    above_limit = all(v >= TREE_LIMIT - 1e-6 for v in values.values())
    # the secular root lies below pi/(R+1), which bounds each value strictly
    envelopes = {r: 3.0 - 2.0 * math.sqrt(2.0) * math.cos(math.pi / (r + 1)) for r in values}
    under_envelope = all(values[r] < envelopes[r] for r in values)
    ok = (
        solver_agrees and window10_agrees and secular_agrees and matches_pinned
        and decreasing and above_limit and under_envelope
    )
    report_line(
        4,
        "tree Dirichlet profile matches windows, closed form and pinned values, "
        "under the envelope",
        ok,
        ", ".join(f"r{r}={values[r]:.12f} (envelope {envelopes[r]:.12f})" for r in values)
        + f", limit={TREE_LIMIT:.12f}",
    )
    assert solver_agrees, f"radius-5 solver {values[5]!r} vs window {window5!r}"
    assert window10_agrees, f"radius-10 solver {values[10]!r} vs window {window10!r}"
    assert secular_agrees, f"radius-20 solver {values[20]!r} vs closed form {secular20!r}"
    assert matches_pinned, f"profile {values} differs from pinned {pinned}"
    assert decreasing
    assert above_limit
    assert under_envelope, f"profile {values} not under envelope {envelopes}"


def test_criterion_5_balanced_potentials():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(100):
        graph = random_unit_graph(rng)
        n = graph.vertex_count
        ints = [int(x) for x in rng.integers(-3, 4, size=n)]
        ints[-1] -= sum(ints)
        if all(x == 0 for x in ints):
            ints[0], ints[1] = 1, -1
        V = tuple(float(x) for x in ints)
        report = corollary_check(graph, V)
        assert not report.zero_potential
        for _a, lam in report.lambda_samples:
            assert lam < -1e-12
        checked += 1
    # the zero potential case: full line on a fresh random graph
    graph = random_unit_graph(rng)
    zero_report = corollary_check(graph, (0.0,) * graph.vertex_count)
    elapsed = time.perf_counter() - start
    ok = (
        checked == 100
        and zero_report.zero_potential
        and math.isinf(zero_report.interval.lower)
        and math.isinf(zero_report.interval.upper)
        and elapsed < 120.0
    )
    report_line(
        5,
        "balanced potentials pin the stability interval to zero",
        ok,
        f"{checked} graphs, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_folner_search():
    start = time.perf_counter()
    z1 = search_folner(lattice_action(1), Fraction(1, 100))
    z2 = search_folner(lattice_action(2), Fraction(1, 10))
    f2_budget = SearchBudget(max_radius=6, subset_size_cap=12, max_subsets=200000)
    f2 = search_folner(free_group_action(2), Fraction(3, 10), f2_budget)
    collapsed = search_folner(
        free_quotient_lattice_action(((1,), (0,))), Fraction(1, 100)
    )
    elapsed = time.perf_counter() - start

    z1_ok = (
        z1.outcome == "found"
        and z1.certificate.size >= 200
        and z1.certificate.max_ratio <= Fraction(1, 100)
    )
    z2_ok = z2.outcome == "found" and z2.certificate.max_ratio <= Fraction(1, 10)
    f2_ok = f2.outcome == "exhausted" and f2.best_ratio >= Fraction(1, 2)
    collapsed_ok = (
        collapsed.outcome == "found"
        and collapsed.certificate.max_ratio <= Fraction(1, 100)
    )
    ok = z1_ok and z2_ok and f2_ok and collapsed_ok and elapsed < 120.0
    report_line(
        6,
        "Folner certificates where they exist, exhaustion where they do not",
        ok,
        f"z1 size={z1.certificate.size}, z2 size={z2.certificate.size}, "
        f"f2 best={f2.best_ratio}, collapsed size={collapsed.certificate.size}, "
        f"{elapsed:.1f}s",
    )
    assert z1_ok
    assert z2_ok
    assert f2_ok
    assert collapsed_ok
    assert elapsed < 120.0


def test_criterion_7_easy_direction_on_bundled_scenarios():
    start = time.perf_counter()
    nonneg_rows = 0
    scanned = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scn = load_scenario(path)
        if scn.cover is None:
            continue
        params = scn.params
        if "a_samples" in params:
            a_samples = params["a_samples"]
        else:
            a_samples = (params["a"],)
        if "radii" in params:
            radii = params["radii"]
        elif "radius" in params:
            radii = (min(params["radius"], 40),)
        else:
            radii = (0, 2)
        report = easy_direction_check(scn.cover, scn.potential, a_samples, radii)
        for row in report.rows:
            if row.base_nonnegative:
                nonneg_rows += 1
                assert all(w.value >= -1e-9 for w in row.windows), (scn.name, row.a)
        scanned.append(scn.name)
    elapsed = time.perf_counter() - start
    ok = nonneg_rows > 0 and elapsed < 60.0
    report_line(
        7,
        "nonnegative bases never refuted by any window",
        ok,
        f"{len(scanned)} covers, {nonneg_rows} nonnegative rows, {elapsed:.1f}s",
    )
    assert nonneg_rows > 0
    assert elapsed < 60.0


def test_criterion_8_invariants_and_determinism():
    start = time.perf_counter()

    # generator round-trips on three kinds of actions
    roundtrip_ok = True
    actions = (
        lattice_action(2),
        free_group_action(2),
        finite_permutation_action(S3_GENS, 3),
    )
    for action in actions:
        points = orbit_ball(action, 2).points
        for g in action.generators():
            for x in points:
                if action.apply_fn(-g, action.apply_fn(g, x)) != x:
                    roundtrip_ok = False

    # boundary never beats the summed one-sided deficits
    rng = np.random.default_rng(8)
    boundary_ok = True
    pool = [lattice_action(1), lattice_action(2), free_group_action(2)]
    # drawn from in sort order, so the seeded draws are fixed
    pool_points = [sorted(orbit_ball(a, 3).points, key=a.sort_key) for a in pool]
    for _ in range(200):
        pick = int(rng.integers(0, len(pool)))
        action, points = pool[pick], pool_points[pick]
        take = rng.random(len(points)) < 0.4
        members = [x for x, keep in zip(points, take) if keep] or [action.origin]
        lhs, rhs = folner_boundary_bound(action, members)
        if lhs > rhs:
            boundary_ok = False

    # coset duality across every subgroup of the two small symmetric groups
    duality_ok = True
    for gens in (S3_GENS, S4_GENS):
        for subgroup in all_subgroups(gens):
            if not coset_duality_check(gens, sorted(subgroup)).ok:
                duality_ok = False

    # midpoint concavity of the ground state in the coupling
    concave_ok = True
    for _ in range(50):
        graph = random_unit_graph(rng, max_n=9)
        V = tuple(float(x) for x in rng.uniform(-1.0, 1.0, graph.vertex_count))
        a1, a2 = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        lam = lambda a: min_eigenvalue(graph, V, a).lambda_min
        if lam((a1 + a2) / 2) < (lam(a1) + lam(a2)) / 2 - 1e-9:
            concave_ok = False

    # exact Lipschitz bound for every cutoff we build
    lipschitz_ok = True
    tri = triangle_z_cover()
    tree = k4_tree_cover()
    builds = [
        (tri, [(x,) for x in range(-6, 7)], 1),
        (tri, [(x,) for x in range(-6, 7)], 2),
        (tri, [(x,) for x in range(-6, 7)], 3),
        (tree, [tree.carrier.origin], 1),
        (tree, [(), (1,), (2,), (3,)], 2),
    ]
    for cover, members, alpha in builds:
        xi = cutoff(cover, members, alpha)
        for p in xi.omega:
            for q, _w in cover.neighbors(p):
                if abs(xi(p) - xi(q)) > Fraction(1, alpha):
                    lipschitz_ok = False

    # byte-identical reports on repeated runs
    determinism_ok = True
    for name in ("triangle_transfer", "z_folner"):
        scn_a = load_scenario(SCENARIOS / f"{name}.json")
        scn_b = load_scenario(SCENARIOS / f"{name}.json")
        rep_a = render_json(execute_scenario(scn_a)[0])
        rep_b = render_json(execute_scenario(scn_b)[0])
        if rep_a != rep_b:
            determinism_ok = False

    elapsed = time.perf_counter() - start
    ok = (
        roundtrip_ok
        and boundary_ok
        and duality_ok
        and concave_ok
        and lipschitz_ok
        and determinism_ok
        and elapsed < 60.0
    )
    report_line(
        8,
        "structural invariants hold and reports are deterministic",
        ok,
        f"roundtrip={roundtrip_ok}, boundary={boundary_ok}, duality={duality_ok}, "
        f"concavity={concave_ok}, lipschitz={lipschitz_ok}, "
        f"determinism={determinism_ok}, {elapsed:.1f}s",
    )
    assert roundtrip_ok
    assert boundary_ok
    assert duality_ok
    assert concave_ok
    assert lipschitz_ok
    assert determinism_ok
    assert elapsed < 60.0
