"""Eigenvalue solvers, Dirichlet windows, and stability intervals."""

import dataclasses
import json
import math
import pathlib
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csc_matrix

import coverlab.geometry as geometry_module
import coverlab.spectrum as spectrum_module
from coverlab import (
    BudgetExceededError,
    InequalityViolation,
    InputError,
    NumericalError,
    WeightedGraph,
    build_cover,
    corollary_check,
    dirichlet_lambda0,
    dirichlet_window,
    free_group_action,
    lattice_action,
    min_eigenvalue,
    regular_tree_dirichlet_value,
    stability_interval,
)
from coverlab.cli import execute_scenario
from coverlab.scenario import load_scenario
import oracles
from oracles import doubling_stability_interval, eigenvalue_stability_interval, rayleigh

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def cycle_graph(n):
    return WeightedGraph([1.0] * n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def interval_within(graph, V, width):
    """stability_interval bisected to width instead of INTERVAL_WIDTH."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum_module, "INTERVAL_WIDTH", width)
        return stability_interval(graph, V)


def grid_torus(rows, cols):
    """Doubly periodic unit grid; sides >= 3 keep it a simple graph."""
    def vid(r, c):
        return (r % rows) * cols + (c % cols)
    edges = {tuple(sorted((vid(r, c), q))) for r in range(rows) for c in range(cols)
             for q in (vid(r, c + 1), vid(r + 1, c))}
    return WeightedGraph([1.0] * (rows * cols), [(u, v, 1.0) for u, v in edges])


def random_graph(rng, n):
    mu = rng.uniform(0.5, 2.0, n)
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))))
    present = {(min(u, v), max(u, v)) for u, v, _w in edges}
    for _ in range(int(rng.integers(0, 3))):
        u, v = sorted(rng.choice(n, size=2, replace=False))
        if (u, v) not in present:
            present.add((u, v))
            edges.append((int(u), int(v), float(rng.uniform(0.5, 2.0))))
    return WeightedGraph(tuple(float(m) for m in mu), edges)


def dense_oracle(graph, V, a):
    # generalized eigenproblem (L + a diag(V mu)) f = lambda diag(mu) f
    n = graph.vertex_count
    L = np.zeros((n, n))
    for u, v, w in graph.edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    M = np.diag(np.asarray(graph.mu))
    A = L + a * np.diag(np.asarray(V) * np.asarray(graph.mu))
    return scipy.linalg.eigh(A, M, eigvals_only=True)[0]


# The two assemblies min_eigenvalue and dirichlet_window kept before they
# shared one path, dense branch only (every matrix here is small).  The
# shared path must reproduce them bit for bit.


def edge_list_pair(diag, rows, cols, weights, mu):
    n = len(diag)
    d = 1.0 / np.sqrt(mu)
    diag_s = diag * d * d
    off_s = weights * d[rows] * d[cols]
    A = csc_matrix((np.concatenate([off_s, diag_s]),
                    (np.concatenate([rows, np.arange(n)]),
                     np.concatenate([cols, np.arange(n)]))), shape=(n, n))
    vals, vecs = scipy.linalg.eigh(A.toarray(), subset_by_index=[0, 0])
    y = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    f = d * y
    if f[int(np.argmax(np.abs(f)))] < 0:
        f = -f
    return float(vals[0]), tuple(float(x) for x in f)


def edge_list_min_eigenvalue(graph, V, a):
    n = graph.vertex_count
    degree = [math.fsum(w for u, v, w in graph.edges if x in (u, v)) for x in range(n)]
    diag = np.array([degree[v] + a * V[v] * graph.mu[v] for v in range(n)])
    rows, cols, weights = [], [], []
    for u, v, w in graph.edges:
        rows.extend((u, v))
        cols.extend((v, u))
        weights.extend((-w, -w))
    return edge_list_pair(diag, np.array(rows, dtype=int), np.array(cols, dtype=int),
                          np.array(weights, dtype=float), np.array(graph.mu))


def per_point_window(cover, radius, V, a):
    window = cover.ball(radius)
    index = {p: i for i, p in enumerate(window)}
    diag = np.zeros(len(window))
    rows, cols, weights = [], [], []
    for p in window:
        i = index[p]
        acc = []
        for q, w in cover.neighbors(p):
            acc.append(w)
            j = index.get(q)
            if j is not None and j != i:
                rows.append(i)
                cols.append(j)
                weights.append(-w)
        diag[i] = math.fsum(acc) + a * V[p[0]] * cover.base.mu[p[0]]
    mu = np.array([cover.base.mu[v] for v, _x in window])
    lam, _f = edge_list_pair(diag, np.array(rows, dtype=int), np.array(cols, dtype=int),
                             np.array(weights, dtype=float), mu)
    return lam


def test_min_eigenvalue_against_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        graph = random_graph(rng, n)
        V = tuple(float(x) for x in rng.uniform(-1.0, 1.0, n))
        a = float(rng.uniform(-1.5, 1.5))
        result = min_eigenvalue(graph, V, a)
        assert result.lambda_min == pytest.approx(dense_oracle(graph, V, a), abs=1e-10)
        assert result.residual <= 1e-9
        lam, f = edge_list_min_eigenvalue(graph, V, a)
        assert result.lambda_min == lam
        assert result.eigenvector == f


def test_eigenvector_normalized_and_canonical(triangle):
    V = (0.3, -0.2, 0.5)
    result = min_eigenvalue(triangle, V, 0.7)
    f = np.asarray(result.eigenvector)
    norm = math.fsum(x * x * m for x, m in zip(f, triangle.mu))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert f[int(np.argmax(np.abs(f)))] > 0
    assert rayleigh(triangle, V, 0.7, tuple(f)) == pytest.approx(
        result.lambda_min, abs=1e-12
    )


def test_sparse_branch_constant_potential():
    # n > dense limit forces the shift-invert path; flat V pins lambda_min
    n = 2500
    graph = cycle_graph(n)
    result = min_eigenvalue(graph, (0.25,) * n, -2.0)
    assert result.lambda_min == pytest.approx(-0.5, abs=1e-9)
    assert result.residual <= 1e-9


@pytest.mark.parametrize("solver, dense_limit",
                         [("eigh", spectrum_module.DENSE_LIMIT), ("eigsh", 1)])
def test_nan_pair_rejected(solver, dense_limit, triangle, monkeypatch):
    def nan_pair(A, *args, **kwargs):
        return np.array([np.nan]), np.ones((A.shape[0], 1))

    monkeypatch.setattr(spectrum_module, "DENSE_LIMIT", dense_limit)
    monkeypatch.setattr(spectrum_module, solver, nan_pair)
    with pytest.raises(NumericalError, match="residual nan"):
        min_eigenvalue(triangle, (0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("a", [1e8, 1e10])
def test_residual_is_judged_against_the_operator_norm(a, triangle):
    # the residual grows like eps ||A(a)||: 2.2e-8 at a = 1e8, 2.9e-6 at
    # a = 1e10, both far above an absolute 1e-9 and both rounding-level
    result = min_eigenvalue(triangle, (1.0, -0.5, 0.5), a)
    assert result.lambda_min == pytest.approx(-0.5 * a, rel=1e-6)
    norm = a + 4.0  # largest absolute row sum of A(a): |2 + a| + 1 + 1, at vertex 0
    bound = spectrum_module.RESIDUAL_FACTOR * 3 * np.finfo(float).eps * norm
    assert 1e-9 < result.residual <= bound


@pytest.mark.parametrize("dense_limit", [spectrum_module.DENSE_LIMIT, 1])
def test_nonfinite_operator_rejected_before_either_solver(dense_limit, monkeypatch):
    # w / mu = 1e310 overflows row 0 and its edge to vertex 1
    def unreachable(*args, **kwargs):
        raise AssertionError("solver ran on a non-finite operator")

    monkeypatch.setattr(spectrum_module, "DENSE_LIMIT", dense_limit)
    monkeypatch.setattr(spectrum_module, "eigh", unreachable)
    monkeypatch.setattr(spectrum_module, "eigsh", unreachable)
    monkeypatch.setattr(spectrum_module, "dpotrf", unreachable)
    graph = WeightedGraph([1e-10, 1.0, 1.0], [(0, 1, 1e300), (0, 2, 1.0), (1, 2, 1.0)])
    message = r"operator entry inf in row 0 \(vertex \(0, 0\)\)"
    with pytest.raises(NumericalError, match=message):
        min_eigenvalue(graph, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(NumericalError, match=message):
        stability_interval(graph, (1.0, -1.0, 0.0))


def test_size_limit_budget(triangle, monkeypatch):
    monkeypatch.setattr(spectrum_module, "DEFAULT_SIZE_LIMIT", 2)
    message = "^graph has 3 vertices, above the eigensolve budget 2$"
    with pytest.raises(BudgetExceededError, match=message):
        min_eigenvalue(triangle, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(BudgetExceededError, match=message):
        stability_interval(triangle, (1.0, -1.0, 0.0))


def decimal_base(rng):
    """A connected base of 3 to 8 vertices whose weights, mu and V are
    parsed from two-decimal strings, as a scenario's would be."""
    n = int(rng.integers(3, 9))

    def decimal(lo, hi):
        return float(f"{rng.integers(lo, hi) / 100:.2f}")

    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    pairs |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
              for _ in range(int(rng.integers(0, 4)))}
    graph = WeightedGraph([decimal(10, 300) for _ in range(n)],
                          [(u, v, decimal(10, 300)) for u, v in sorted(pairs)])
    return graph, tuple(decimal(-200, 201) for _ in range(n))


def test_base_sign_rules_match_the_exact_pivots():
    rng = np.random.default_rng(29)
    verdicts = []
    for _ in range(20):
        graph, V = decimal_base(rng)
        op = spectrum_module._base_operator(graph, V)
        for a in (-3.0, -1.25, -0.4, -0.05, 0.05, 0.4, 1.25, 3.0):
            sr = min_eigenvalue(graph, V, a)
            if abs(sr.lambda_min) < 1e-6:
                continue
            exact = oracles.positive_definite_exactly(graph, V, a)
            assert spectrum_module._is_nonnegative(op, a, 0) == exact
            assert sr.nonnegative == exact
            verdicts.append(exact)
    # both signs are met, each many times
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_trivial_cover_window_is_base_spectrum(trivial_cover):
    V = (0.2, -0.4, 0.1)
    base = min_eigenvalue(trivial_cover.base, V, 1.1).lambda_min
    window = dirichlet_lambda0(trivial_cover, 0, V, 1.1)
    assert window == base


def test_window_matches_per_point_assembly():
    # vertex 0 carries 0.1, 0.2 and 0.3, whose plain sum rounds away from
    # the correctly rounded one, so the diagonal must come from fsum
    assert 0.1 + 0.2 + 0.3 != math.fsum((0.1, 0.2, 0.3))
    graph = WeightedGraph(
        [0.3, 1.7, 0.9, 1.1],
        [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3), (1, 2, 0.7), (1, 3, 1.1), (2, 3, 1.3)],
    )
    V = (0.3, -0.7, 0.1, 0.45)
    for carrier, voltages in (
        (lattice_action(1), {(0, 1): (1,), (2, 3): (1,)}),
        (free_group_action(3), {(1, 2): (1,), (1, 3): (2,), (2, 3): (3,)}),
    ):
        cover = build_cover(graph, carrier, voltages)
        for radius in (0, 2, 5):
            assert dirichlet_lambda0(cover, radius, V, 1.3) == (
                per_point_window(cover, radius, V, 1.3)
            )


def test_window_profile_monotone(triangle_cover):
    V = (-0.05, -0.05, -0.05)
    profile = [dirichlet_window(triangle_cover, r, V, 1.0) for r in range(0, 25, 4)]
    values = [w.value for w in profile]
    sizes = [w.size for w in profile]
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert values[-1] < values[0]
    assert sizes == sorted(sizes)


def test_window_dominates_base(triangle_cover):
    # Dirichlet windows never undercut the base ground state
    for V, a in (((-0.05, -0.05, -0.05), 1.0), ((0.4, -0.3, 0.1), -1.2)):
        base = min_eigenvalue(triangle_cover.base, V, a).lambda_min
        for radius in (0, 3, 9):
            window = dirichlet_lambda0(triangle_cover, radius, V, a)
            assert window >= base - 1e-12


ABELIAN_SCENARIOS = ("triangle_interval", "triangle_transfer")


def couplings(scn):
    return scn.params["a_samples"] if "a_samples" in scn.params else (scn.params["a"],)


def abelian_cases(k4):
    """(cover, V, couplings) for the bundled abelian scenarios and one Z^2 cover."""
    scenarios = [load_scenario(SCENARIOS / f"{name}.json") for name in ABELIAN_SCENARIOS]
    k4_over_z2 = build_cover(k4, lattice_action(2),
                             {(1, 2): (1,), (1, 3): (2,), (2, 3): (1, -2)})
    return ([(scn.cover, scn.potential, couplings(scn)) for scn in scenarios]
            + [(k4_over_z2, (0.3, -0.4, 0.2, -0.1), (-1.0, 0.5, 2.0))])


def test_bloch_bottom_is_the_base_and_bounds_every_twist(k4):
    rng = np.random.default_rng(13)
    for cover, V, couplings in abelian_cases(k4):
        d = len(cover.carrier.origin)
        for a in couplings:
            base = min_eigenvalue(cover.base, V, a).lambda_min
            assert abs(oracles.bloch_lambda_min(cover, V, a, np.zeros(d)) - base) <= 1e-12
            for theta in rng.uniform(-math.pi, math.pi, (8, d)):
                assert oracles.bloch_lambda_min(cover, V, a, theta) >= base - 1e-12


def test_bundled_abelian_windows_lie_above_the_bloch_bottom(k4):
    # a window is a Dirichlet problem on a finite piece of the cover, so it
    # lies strictly above the cover's bottom, which Floquet-Bloch puts at H(0)
    cases = []
    for name in ABELIAN_SCENARIOS:
        scn = load_scenario(SCENARIOS / f"{name}.json")
        cases.append((scn.cover, scn.potential, couplings(scn), scn.params["radius"], scn.seed))
    # the benchmark's generated K4-over-Z^2 windows at seed 0: radius 40
    # holds 2,283 vertices, so the window takes the shift-invert branch
    k4_over_z2 = build_cover(k4, lattice_action(2), {(1, 2): (1,), (1, 3): (2,)})
    cases.append((k4_over_z2, (0.1, 0.3, -0.2, -0.1), (-0.5, 2.0), 40, 97))
    for cover, V, samples, radius, seed in cases:
        d = len(cover.carrier.origin)
        for a in samples:
            bottom = oracles.bloch_lambda_min(cover, V, a, [0.0] * d)
            window = dirichlet_window(cover, radius, V, a, seed)
            assert window.value > bottom
    assert window.size == 2283 > spectrum_module.DENSE_LIMIT


def test_long_abelian_window_matches_the_effective_mass(triangle_cover):
    # near theta = 0 the Bloch bottom is lambda_base + M theta^2 / 2, so a
    # window of L tiles in a row sits near lambda_base + M (pi / (L + 1))^2 / 2
    V, a = (0.1, 0.2, -0.3), 1.0
    base = oracles.bloch_lambda_min(triangle_cover, V, a, [0.0])
    h = 1e-4
    mass = 2.0 * (oracles.bloch_lambda_min(triangle_cover, V, a, [h]) - base) / h**2
    assert mass == pytest.approx(0.21918, rel=1e-4)
    window = dirichlet_window(triangle_cover, 990, V, a)
    assert window.size == 1983  # dense: at most DENSE_LIMIT vertices
    tiles = window.size / 3
    predicted = base + 0.5 * mass * (math.pi / (tiles + 1)) ** 2
    gap = window.value - base
    assert gap > 0
    assert abs(window.value - predicted) <= 0.01 * gap


def test_window_reports_size(tree_cover):
    window = dirichlet_window(tree_cover, 0, (0.0,) * 4, 1.0)
    assert window.size == 4
    assert window.radius == 0


def test_window_budget(tree_cover, monkeypatch):
    monkeypatch.setattr(geometry_module, "DEFAULT_POINT_BUDGET", 50)
    with pytest.raises(BudgetExceededError):
        dirichlet_window(tree_cover, 6, (0.0,) * 4, 1.0)


def test_dense_window_bit_identical_to_copying_eigh(tree_cover, monkeypatch):
    # the in-place solve must return what the copying default returns on
    # the same assembled matrix, at a size the small oracles never reach
    real = spectrum_module.eigh
    calls = []

    def recording(a, **kwargs):
        matrix = a.copy(order="K")  # LAPACK overwrites a
        result = real(a, **kwargs)
        calls.append((matrix, result))
        return result

    monkeypatch.setattr(spectrum_module, "eigh", recording)
    window = dirichlet_window(tree_cover, 7, (-0.1,) * 4, 1.0)
    assert window.size == 766
    [(matrix, (vals, vecs))] = calls
    ref_vals, ref_vecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 0])
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()
    assert window.value == float(ref_vals[0])


def test_dense_window_holds_one_copy(tree_cover):
    # numpy reports its buffers to tracemalloc; a second n x n copy would
    # put the peak above 2 * 8 n^2 bytes
    n = len(tree_cover.ball(7))  # cached for the window
    assert 700 <= n <= spectrum_module.DENSE_LIMIT
    tracemalloc.start()
    try:
        dirichlet_window(tree_cover, 7, (-0.1,) * 4, 1.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_regular_tree_values():
    assert regular_tree_dirichlet_value(3, 0) == 3.0
    assert regular_tree_dirichlet_value(3, 1) == pytest.approx(
        3.0 - math.sqrt(3.0), abs=1e-12
    )
    limit = 3.0 - 2.0 * math.sqrt(2.0)
    previous = math.inf
    for radius in range(0, 40, 5):
        value = regular_tree_dirichlet_value(3, radius)
        assert limit < value < previous
        previous = value


def test_tree_window_matches_radial_solver(tree_cover):
    # K4 universal cover is the 3-regular tree; tile ball r = vertex ball r+1
    V = (-0.1, -0.1, -0.1, -0.1)
    for radius in (0, 1, 3, 5):
        window = dirichlet_lambda0(tree_cover, radius, V, 1.0)
        assert window == pytest.approx(
            regular_tree_dirichlet_value(3, radius + 1) - 0.1, abs=1e-12
        )


def test_stability_interval_zero_potential(triangle):
    interval = stability_interval(triangle, (0.0, 0.0, 0.0))
    assert interval.lower == -math.inf
    assert interval.upper == math.inf
    assert interval.lower <= 1e9 <= interval.upper


def test_stability_interval_signed_potential():
    # P2 with V = (1, 0): lambda_min(a) = ((2+a) - sqrt(a^2+4))/2, zero at a = 0
    graph = WeightedGraph((1.0, 1.0), [(0, 1, 1.0)])
    interval = interval_within(graph, (1.0, 0.0), 1e-8)
    assert interval.upper == math.inf
    assert abs(interval.lower) <= 1e-8
    a = 0.37
    assert min_eigenvalue(graph, (1.0, 0.0), a).lambda_min == pytest.approx(
        ((2 + a) - math.sqrt(a * a + 4)) / 2, abs=1e-12
    )


def test_stability_interval_balanced_potential(triangle):
    interval = interval_within(triangle, (1.0, -1.0, 0.0), 1e-7)
    assert abs(interval.lower) <= 1e-7
    assert abs(interval.upper) <= 1e-7
    assert interval.endpoint_tolerance <= 1e-7


POTENTIALS = ("signed", "positive", "negative", "balanced")
TOLERANCES = (1e-6, 1e-8, 1e-10)


def random_case(rng, kind):
    n = int(rng.integers(2, 20))
    graph = random_graph(rng, n)
    if kind == "balanced":
        # dyadic mu and integer V make every V mu exact, and the last
        # vertex (mu = 1) cancels the rest: sum V mu is exactly zero
        mu = [float(k) / 8 for k in rng.integers(4, 17, n - 1)] + [1.0]
        graph = WeightedGraph(mu, graph.edges)
        V = [float(x) for x in rng.integers(-3, 4, n - 1)]
        V.append(-math.fsum(v * m for v, m in zip(V, mu)))
        return graph, tuple(V)
    V = rng.uniform(-1.0, 1.0, n)
    if kind == "positive":
        V = np.abs(V)
    elif kind == "negative":
        V = -np.abs(V)
    return graph, tuple(float(x) for x in V)


def random_cases(seed, rounds):
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        for kind in POTENTIALS:
            for tol in TOLERANCES:
                yield kind, tol, *random_case(rng, kind)


@pytest.fixture
def recorded_probes(monkeypatch):
    """Every (operator, a, verdict) the bisection decides, in order."""
    probes = []
    real = spectrum_module._is_nonnegative

    def recording(op, a, seed):
        verdict = real(op, a, seed)
        probes.append((op, a, verdict))
        return verdict

    monkeypatch.setattr(spectrum_module, "_is_nonnegative", recording)
    return probes


def test_stability_interval_matches_eigenvalue_bisection():
    # the oracle's balanced bisections below tol 1e-6 probe where
    # lambda_min is at rounding level; the library decides them exactly
    # (test_balanced_interval_is_exact_without_a_factorization)
    compared = 0
    for kind, tol, graph, V in random_cases(seed=15, rounds=10):
        if kind == "balanced" and tol < 1e-6:
            continue
        assert interval_within(graph, V, tol) == (
            eigenvalue_stability_interval(graph, V, tol))
        compared += 1
    assert compared == 100


def test_sign_rules_differ_only_at_rounding_level(recorded_probes):
    # a balanced V tilted by 2^-30 at one vertex gives lambda_min(a) ~
    # a 2^-30 / sum mu - c a^2, which sinks below the rounding of either
    # solver near a = 0: there both verdicts are noise.  (An untilted
    # balanced V is decided without a probe.)
    differ = 0
    for kind, tol, graph, V in random_cases(seed=16, rounds=4):
        if kind != "balanced" or tol == 1e-6:
            continue
        V = V[:-1] + (V[-1] + 2.0**-30,)
        recorded_probes.clear()
        interval_within(graph, V, tol)
        for op, a, verdict in recorded_probes:
            lam = min_eigenvalue(graph, V, a).lambda_min
            if (lam >= 0.0) != verdict:
                differ += 1
                norm = abs(op.at(a)).sum(axis=0).max()
                assert abs(lam) <= graph.vertex_count * np.finfo(float).eps * norm
    assert differ > 0


def test_balanced_torus_interval_factors_once_per_probe(recorded_probes, monkeypatch):
    # the checkerboard is balanced and would need no probe, so one vertex
    # is tilted to sum V mu = 1/2: the upper side bisects, the lower is known
    def unreachable(*args, **kwargs):
        raise AssertionError("the bisection ran an eigensolve")

    factored = []
    real = spectrum_module.dpotrf

    def counting(a, **kwargs):
        factored.append(a.shape)
        return real(a, **kwargs)

    monkeypatch.setattr(spectrum_module, "eigh", unreachable)
    monkeypatch.setattr(spectrum_module, "eigsh", unreachable)
    monkeypatch.setattr(spectrum_module, "dpotrf", counting)
    torus = grid_torus(20, 30)
    V = tuple(1.0 if (i // 30 + i % 30) % 2 == 0 else -1.0 for i in range(600))
    V = (1.5,) + V[1:]
    # numpy reports its buffers to tracemalloc; a second n x n copy would
    # put the peak above 2 * 8 n^2 bytes
    tracemalloc.start()
    try:
        interval = stability_interval(torus, V)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 600 * 600
    # the upper side: a = 1, then 20 halvings down to width 2^-20 <= 1e-6
    probes = [a for _op, a, _verdict in recorded_probes]
    assert len(probes) == len(set(probes)) == 21
    assert min(probes) > 0
    assert factored == [(600, 600)] * 21
    assert (interval.lower, interval.endpoint_tolerance) == (-2.0**-21, 2.0**-21)
    assert 0 < interval.upper < 1


@pytest.mark.parametrize("tol", TOLERANCES)
def test_balanced_interval_is_exact_without_a_factorization(tol, monkeypatch):
    # the constant function puts lambda_min(a) below 0 at every a != 0, so
    # both sides halve from 1 to width h <= tol: [-h/2, h/2] at every tol
    def unreachable(*args, **kwargs):
        raise AssertionError("a balanced interval ran a solver")

    for name in ("dpotrf", "eigh", "eigsh"):
        monkeypatch.setattr(spectrum_module, name, unreachable)
    width = 1.0
    while width > tol:
        width /= 2
    exact = spectrum_module.StabilityInterval(-width / 2, width / 2, width / 2)
    cases = [(graph, V) for kind, _tol, graph, V in random_cases(seed=18, rounds=2)
             if kind == "balanced" and any(V)]
    assert len(cases) >= 5
    for graph, V in cases:
        assert interval_within(graph, V, tol) == exact


@pytest.mark.parametrize("tol, half", [
    (2.0, 0.5), (1.0, 0.5), (2.0**-20, 2.0**-21), (1e-6, 2.0**-21), (1e-300, 2.0**-998),
])
def test_balanced_sides_read_the_halving_they_skip(tol, half, triangle):
    # halving from 1 with every probe negative stops at the first power of
    # two within tol, or at 1 itself, and reports its midpoint
    interval = interval_within(triangle, (1.0, -1.0, 0.0), tol)
    assert (interval.lower, interval.upper, interval.endpoint_tolerance) == (-half, half, half)


def test_a_tiny_negative_entry_gives_a_finite_far_endpoint(triangle, capped_probes):
    # the indicator of vertex 2 puts lambda_min(a) at or below 2 - 1e-20 a,
    # so the upper endpoint is finite, near 2e20
    interval = stability_interval(triangle, (1.0, 1.0, -1e-20))
    assert math.isfinite(interval.upper)
    assert abs(interval.upper - 2e20) <= interval.endpoint_tolerance
    # sum V mu > 0 decides the lower side without a probe
    assert interval.lower == -2.0**-21


def test_bisection_stops_at_float_resolution(triangle, capped_probes):
    # near the upper endpoint 2.6 floats are 2^-51 apart, far wider than
    # tol: the bisection ends once its bracket holds two adjacent floats
    V = (1.0, -0.5, 0.5)
    fine = interval_within(triangle, V, 1e-20)
    coarse = interval_within(triangle, V, 1e-7)
    assert fine.endpoint_tolerance == math.ulp(fine.upper) / 2
    assert abs(fine.upper - coarse.upper) <= coarse.endpoint_tolerance
    assert abs(fine.lower) <= 1e-20


def interval_or_error(compute):
    try:
        return compute()
    except NumericalError as exc:
        return str(exc)


@pytest.mark.parametrize("V", [
    (1.0, 1.0, -1e-20),  # the upper endpoint near 2e20 lies in [2^67, 2^68]
    (1e10, 1e10, -2.0**-899),  # near 2^900; the gallop's probe at 2^1023 overflows
    (1e10, 1e10, -1e-300),  # the doubling overflows at 2^991 before it fails
    (1.0, 1.0, -5e-324),  # every power up to 2^1023 holds, and the step to inf raises
    (1.0, -0.5, 0.5),  # the upper endpoint near 2.6: probes 1, 2, 4 as plain doubling
])
def test_galloped_bracket_is_the_doubling_bracket(triangle, V):
    # the library's Cholesky sign, bracketed by plain doubling from 1, gives
    # the same endpoints, tolerance and error.  (The eigenvalue oracle does
    # not: near a = 2e20 an eigensolve's rounding, about eps ||A|| = 4e4,
    # swamps lambda_min = -2, and its doubling runs on to 7.8e76.)
    op = spectrum_module._base_operator(triangle, V)

    def cholesky_sign(a):
        return spectrum_module._is_nonnegative(op, a, 0)

    reference = interval_or_error(lambda: doubling_stability_interval(V, 1e-6, cholesky_sign))
    assert interval_or_error(lambda: stability_interval(triangle, V)) == reference


def test_gallop_brackets_a_far_endpoint_in_few_probes(triangle, recorded_probes):
    # plain doubling probed a = 1, 2, ..., 2^68: 69 probes.  The gallop
    # probes 1, then 2^e for e = 1, 2, 4, ..., 128, then 96, 80, 72, 68, 66, 67
    stability_interval(triangle, (1.0, 1.0, -1e-20))
    bracket = [a for _op, a, _verdict in recorded_probes if math.frexp(a)[0] == 0.5]
    assert len(bracket) <= 15


def test_far_torus_endpoint_in_under_a_second():
    # one entry -1e-300 puts the upper endpoint near 4e300, past 2^997; plain
    # doubling factored the 600 x 600 operator 1,052 times, in about 5 s, and
    # found this same interval
    torus = grid_torus(20, 30)
    V = (-1e-300,) + (1.0,) * 599
    started = time.perf_counter()
    interval = stability_interval(torus, V)
    assert time.perf_counter() - started < 1.0
    assert interval == spectrum_module.StabilityInterval(-2.0**-21, 4e300,
                                                          2.974033816955566e284)


def test_eigenvalue_oracle_stops_at_float_resolution(triangle, monkeypatch):
    # the oracle bisects like stability_interval, so it must stop at adjacent floats too
    solves = [0]
    real = oracles.min_eigenvalue

    def capped(*args):
        solves[0] += 1
        assert solves[0] <= 400, "the oracle's bisection does not stop"
        return real(*args)

    monkeypatch.setattr(oracles, "min_eigenvalue", capped)
    V = (1.0, -0.5, 0.5)
    oracle = eigenvalue_stability_interval(triangle, V, 1e-20)
    library = interval_within(triangle, V, 1e-20)
    assert oracle.endpoint_tolerance == math.ulp(oracle.upper) / 2
    assert abs(oracle.lower - library.lower) <= library.endpoint_tolerance
    # Near a = 2.6 the eigensolve and the Cholesky sign can disagree by a few
    # floats, but only where lambda_min is at rounding level; so test that band.
    op = spectrum_module._base_operator(triangle, V)
    a, stop = sorted((oracle.upper, library.upper))
    while a <= stop:
        lam = real(triangle, V, a).lambda_min
        norm = abs(op.at(a)).sum(axis=0).max()
        assert abs(lam) <= triangle.vertex_count * np.finfo(float).eps * norm
        a = math.nextafter(a, math.inf)


BISECTING_SCENARIOS = sorted(
    path for path in SCENARIOS.glob("*.json")
    if json.loads(path.read_text())["task"] in ("interval", "corollary"))


@pytest.mark.parametrize("path", BISECTING_SCENARIOS, ids=lambda p: p.stem)
def test_bundled_bisections_never_repeat_a_probe(path, recorded_probes):
    # the bundled potentials are balanced, so their runs probe nothing; a
    # tilt of 1/2 at vertex 0 makes the upper side bisect on the same graph
    scn = load_scenario(path)
    report, *_ = execute_scenario(scn)
    assert report["status"] == "ok"
    assert recorded_probes == []
    graph = scn.base or scn.cover.base
    stability_interval(graph, (scn.potential[0] + 0.5,) + scn.potential[1:])
    probes = [a for _op, a, _verdict in recorded_probes]
    assert probes
    assert min(probes) > 0
    assert len(probes) == len(set(probes))


def test_sparse_sign_gives_the_same_interval(monkeypatch):
    # above DENSE_LIMIT each sign comes from the shift-inverted eigensolve
    cases = [(graph, V, tol) for kind, tol, graph, V in random_cases(seed=17, rounds=1)
             if kind != "balanced" and graph.vertex_count >= 3]
    dense = [interval_within(graph, V, tol) for graph, V, tol in cases]
    solved = []
    real = spectrum_module.eigsh

    def counting(*args, **kwargs):
        solved.append(1)
        return real(*args, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("factored above DENSE_LIMIT")

    monkeypatch.setattr(spectrum_module, "DENSE_LIMIT", 1)
    monkeypatch.setattr(spectrum_module, "eigsh", counting)
    monkeypatch.setattr(spectrum_module, "dpotrf", unreachable)
    sparse = [interval_within(graph, V, tol) for graph, V, tol in cases]
    assert len(cases) >= 5
    assert solved
    assert sparse == dense


def test_corollary_check_unbalanced(triangle):
    with pytest.raises(InputError):
        corollary_check(triangle, (1.0, 1.0, 0.0))


def test_corollary_check_torus():
    torus = grid_torus(4, 4)
    V = tuple(1.0 if (i // 4 + i % 4) % 2 == 0 else -1.0 for i in range(16))
    report = corollary_check(torus, V)
    assert not report.zero_potential
    assert all(value == 0.0 for _a, value in report.rayleigh_constant)
    assert all(lam < 0 for _a, lam in report.lambda_samples)
    assert abs(report.interval.lower) <= 1e-6
    assert abs(report.interval.upper) <= 1e-6


def test_corollary_check_zero_potential(triangle):
    report = corollary_check(triangle, (0.0, 0.0, 0.0))
    assert report.zero_potential
    assert report.interval.lower == -math.inf
    assert report.interval.upper == math.inf


def test_corollary_check_flags_violation(triangle, monkeypatch):
    # a fabricated nonnegative sample must trip the strictness check
    import coverlab.spectrum as spectrum_module

    real = spectrum_module.min_eigenvalue

    def fake(graph, V, a, seed=0):
        return dataclasses.replace(real(graph, V, a, seed), lambda_min=0.0)

    monkeypatch.setattr(
        spectrum_module,
        "stability_interval",
        lambda graph, V, seed=0: (
            spectrum_module.StabilityInterval(0.0, 0.0, spectrum_module.INTERVAL_WIDTH)
        ),
    )
    monkeypatch.setattr(spectrum_module, "min_eigenvalue", fake)
    with pytest.raises(InequalityViolation):
        corollary_check(triangle, (1.0, -1.0, 0.0))


def test_solves_on_one_graph_share_one_trivial_cover():
    # values recorded when every solve built its own trivial cover, and
    # kept while each graph cached one; solves build their own again
    graph = WeightedGraph([1, 2, 0.5, 1.5],
                          [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 0, 1.0)])
    interval = interval_within(graph, (0.5, -1.0, 0.0, 2.0), 1e-8)
    assert interval == spectrum_module.StabilityInterval(
        -3.725290298461914e-09, 0.22544461861252785, 3.725290298461914e-09)

    # the corollary's interval and its samples
    torus = grid_torus(4, 4)
    V = tuple(1.0 if (i // 4 + i % 4) % 2 == 0 else -1.0 for i in range(16))
    report = corollary_check(torus, V)
    assert report.lambda_samples == (
        (1.0, -0.12310562561766086), (-1.0, -0.12310562561766047),
        (0.5, -0.03112887414927521), (-0.5, -0.031128874149275627))
