"""Bottom of spectrum of the weighted operator L + a V, and what it implies.

The generalized problem (L + a diag(V mu)) f = lambda diag(mu) f is
symmetrized with M^{-1/2} so one standard symmetric eigensolve suffices;
dense below DENSE_LIMIT vertices, shift-inverted Lanczos above.  Only
the operator's diagonal depends on a, so a stability-interval bisection
assembles its base operator once and reads every probe from it.  Every
other solve assembles its own: min_eigenvalue the base operator, and
dirichlet_window its window, once per call, so easy_direction_check
assembles each window once per coupling (20 assemblies for
k4_tree_spectrum's 5 radii at 4 couplings).  Finiteness is checked on
the assembled sparse entries before anything solves or factors them,
and a dense branch holds one n x n array, which LAPACK factors in
place.  Every eigenpair carries an explicit residual and is rejected
past 100 n eps ||A||_1, or when it is not a number.
A stability-interval bisection needs only the sign of lambda_min at each
probe, which a Cholesky factorization decides up to DENSE_LIMIT vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import dpotrf
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import eigsh

from .actions import finite_permutation_action
from .errors import (BudgetExceededError, InequalityViolation, InputError, NumericalError,
                     _check_int, _check_real)
from .geometry import VoltageCover, WeightedGraph, as_potential

DENSE_LIMIT = 2000
DEFAULT_SIZE_LIMIT = 5000

# Tolerances, all in one place (docs/schema.md lists them).
# an eigensolve's pair is rejected as unconverged when the largest entry
# of its normalized residual A y - lambda y exceeds this many n eps ||A||_1,
# the rounding a backward-stable solve of the n x n matrix A may leave
RESIDUAL_FACTOR = 100
# mixed absolute and relative slack of each witness audit inequality
AUDIT_TOLERANCE = 1e-12
# a Dirichlet window refutes cover positivity only below this noise floor
REFUTE_FLOOR = -1e-9
# a stability-interval endpoint is bisected to a bracket this wide
INTERVAL_WIDTH = 1e-6


@dataclass(frozen=True)
class SpectralResult:
    lambda_min: float
    eigenvector: tuple[float, ...]
    residual: float
    rounding: float  # n eps ||A(a)||_1 of the n x n symmetrized operator

    @property
    def nonnegative(self) -> bool:
        """lambda_min >= 0 up to RESIDUAL_FACTOR times the rounding of its solve,
        a floor that scales with the operator."""
        return self.lambda_min >= -RESIDUAL_FACTOR * self.rounding


class _Operator:
    """The symmetrized operator D (L + a V) D on listed cover vertices.

    Functions vanish off the list, so every edge keeps its conductance
    in the diagonal, which each vertex reads from its base vertex: a
    cover vertex carries exactly its base vertex's edge weights.  The
    pencil (L + a diag(V mu)) f = lambda diag(mu) f is symmetrized with
    D = diag(mu^-1/2).  Only the diagonal depends on a, so the cover is
    walked once and ``at(a)`` builds the matrix for any a.
    """

    def __init__(self, cover: VoltageCover, points: Sequence, V):
        base = cover.base
        pot = as_potential(V, base)
        index = {p: i for i, p in enumerate(points)}
        base_of = np.array([v for v, _x in points], dtype=int)
        self.points = points
        self.degree = np.array([base.weighted_degree(v)
                                for v in range(base.vertex_count)])[base_of]
        self.pot = np.array(pot)[base_of]
        self.mu = np.array(base.mu)[base_of]
        # a neighbour always lies over another base vertex, so never on p itself
        rows, cols, weights = [], [], []
        for i, p in enumerate(points):
            for q, w in cover.neighbors(p):
                j = index.get(q)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    weights.append(-w)
        self.d = d = 1.0 / np.sqrt(self.mu)
        rows = np.array(rows, dtype=int)
        cols = np.array(cols, dtype=int)
        with np.errstate(over="ignore"):  # an overflow is reported by at(a), by entry
            self.off = np.array(weights, dtype=float) * d[rows] * d[cols]
        n = len(points)
        self.rows = np.concatenate([rows, np.arange(n)])
        self.cols = np.concatenate([cols, np.arange(n)])

    def at(self, a: float) -> csc_matrix:
        """A(a), after checking that each stored entry is finite."""
        with np.errstate(over="ignore"):  # an overflow is reported below, by entry
            diag_s = (self.degree + a * self.pot * self.mu) * self.d * self.d
        n = len(self.points)
        A = csc_matrix((np.concatenate([self.off, diag_s]), (self.rows, self.cols)),
                       shape=(n, n))
        # the CSC sums duplicates, so A.data holds every nonzero of A.toarray()
        bad = np.flatnonzero(~np.isfinite(A.data))
        if bad.size:
            k = bad[np.argmin(A.indices[bad])]
            row = int(A.indices[k])
            raise NumericalError(f"operator entry {float(A.data[k])!r} in row {row} "
                                 f"(vertex {self.points[row]!r}) is not finite")
        return A


def _smallest_pair(op: _Operator, a: float,
                   seed: int) -> tuple[float, np.ndarray, float, float]:
    """Smallest eigenpair of A(a): (lambda, eigenvector in original
    coordinates, residual, n eps ||A(a)||_1)."""
    A = op.at(a)
    n = A.shape[0]
    # A is symmetric, so its largest absolute row sum is ||A||_1
    abs_rows = np.abs(A).sum(axis=1).A1
    if n <= DENSE_LIMIT:
        vals, vecs = eigh(A.toarray(order="F"), subset_by_index=[0, 0],
                          overwrite_a=True, check_finite=False)
        lam = float(vals[0])
        y = vecs[:, 0]
    else:
        # Gershgorin floor keeps the shift strictly below the spectrum
        diag_s = A.diagonal()
        row_abs = abs_rows - np.abs(diag_s)
        sigma = float((diag_s - row_abs).min()) - 1.0
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        vals, vecs = eigsh(A, k=1, sigma=sigma, which="LM", v0=v0, tol=0)
        lam = float(vals[0])
        y = vecs[:, 0]
    y = y / np.linalg.norm(y)
    residual = float(np.max(np.abs(A @ y - lam * y)))
    rounding = float(n * np.finfo(float).eps * abs_rows.max())
    bound = RESIDUAL_FACTOR * rounding
    if not residual <= bound:
        raise NumericalError(f"eigensolve residual {residual:.3e} exceeds {bound:.3e} "
                             f"= {RESIDUAL_FACTOR} n eps ||A||_1")
    f = op.d * y
    pivot = int(np.argmax(np.abs(f)))
    if f[pivot] < 0:
        f = -f
    return lam, f, residual, rounding


def _is_nonnegative(op: _Operator, a: float, seed: int) -> bool:
    """Sign of lambda_min(A(a)), without the eigenvector when dense.

    A finite symmetric matrix is positive definite exactly when its
    Cholesky factorization succeeds, so up to DENSE_LIMIT vertices LAPACK
    factors the one dense copy in place; the two rules differ only where
    lambda_min is at rounding level.  Larger operators are solved.
    """
    A = op.at(a)
    if A.shape[0] <= DENSE_LIMIT:
        _c, info = dpotrf(A.toarray(order="F"), lower=1, clean=0, overwrite_a=1)
        return info == 0
    return _smallest_pair(op, a, seed)[0] >= 0.0


def _base_operator(graph: WeightedGraph, V) -> _Operator:
    """The graph as its own trivial cover, one tile with no boundary,
    within the size budget DEFAULT_SIZE_LIMIT."""
    n = graph.vertex_count
    if n > DEFAULT_SIZE_LIMIT:
        raise BudgetExceededError("graph", n, DEFAULT_SIZE_LIMIT, "vertices")
    trivial = VoltageCover(graph, finite_permutation_action((), 1), {})
    return _Operator(trivial, trivial.tile(0), V)


def min_eigenvalue(graph: WeightedGraph, V, a: float, seed: int = 0) -> SpectralResult:
    """Bottom of the mu-weighted spectrum of L + a V on a finite graph.

    Connectivity is enforced by WeightedGraph itself; this only guards
    the size budget DEFAULT_SIZE_LIMIT and the solver tolerance.
    """
    a, seed = _check_real(a, "a"), _check_int(seed, "seed", 0)
    lam, f, residual, rounding = _smallest_pair(_base_operator(graph, V), a, seed)
    return SpectralResult(lam, tuple(float(x) for x in f), residual, rounding)


@dataclass(frozen=True)
class WindowValue:
    radius: int
    value: float
    size: int

    @property
    def refutes(self) -> bool:
        """The window refutes cover positivity: its value is below REFUTE_FLOOR."""
        return self.value < REFUTE_FLOOR


def dirichlet_window(cover: VoltageCover, radius: int, V, a: float,
                     seed: int = 0) -> WindowValue:
    """Dirichlet bottom eigenvalue of the hop ball around the origin tile.

    Functions vanish outside the ball, so each boundary edge contributes
    its full conductance to the diagonal; the value is non-increasing in
    the radius and never certifies positivity of the infinite cover,
    only refutes it (``WindowValue.refutes``).
    """
    a, seed = _check_real(a, "a"), _check_int(seed, "seed", 0)
    window = cover.ball(radius)
    lam, *_ = _smallest_pair(_Operator(cover, window, V), a, seed)
    return WindowValue(radius=radius, value=lam, size=len(window))


def dirichlet_lambda0(cover: VoltageCover, radius: int, V, a: float,
                      seed: int = 0) -> float:
    return dirichlet_window(cover, radius, V, a, seed).value


def regular_tree_dirichlet_value(degree: int, vertex_radius: int) -> float:
    """Dirichlet bottom eigenvalue of the radius-R vertex ball in the
    d-regular infinite tree, via the exact radial reduction.

    The ball's ground state is radial (it is the unique positive
    eigenvector and the ball's automorphisms act transitively on each
    sphere), so the problem collapses to a tridiagonal chain over
    shells: diagonal d everywhere, couplings sqrt(d) then sqrt(d-1).

    The radius counts shells: the ball is the root plus R spheres around
    it, 1 + d ((d-1)^R - 1) / (d-2) vertices for d > 2.  In the K4 cover
    with free voltages (the 3-regular tree), tile radius r of
    ``dirichlet_window`` is vertex radius R = r + 1.

    The value lies strictly inside the envelope
    d - 2 sqrt(d-1) < lambda_R < d - 2 sqrt(d-1) cos(pi/(R+1)), so it
    converges to the tree's bottom of spectrum d - 2 sqrt(d-1) as the
    radius grows.
    """
    degree = _check_int(degree, "tree degree", 2)
    vertex_radius = _check_int(vertex_radius, "radius", 0)
    m = vertex_radius + 1
    diag = np.full(m, float(degree))
    if m == 1:
        return float(degree)
    off = np.full(m - 1, math.sqrt(degree - 1.0))
    off[0] = math.sqrt(float(degree))
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def _balance(graph: WeightedGraph, pot) -> Fraction:
    """sum V mu over the parsed floats, exactly."""
    return sum(Fraction(v) * Fraction(m) for v, m in zip(pot, graph.mu))


@dataclass(frozen=True)
class StabilityInterval:
    """Closed set {a : lambda_min(a) >= 0}; an interval containing 0."""

    lower: float  # -inf when V <= 0 everywhere
    upper: float  # +inf when V >= 0 everywhere
    endpoint_tolerance: float


def _doubling_bracket(fails) -> tuple[float, float]:
    """[2^(k-1), 2^k] for the first k >= 1 with fails(2^k), given that 1 holds.

    Doubling from 1 would probe 2, 4, ..., 2^k.  For a monotone fails a
    gallop over the exponents 1, 2, 4, ..., 512 and the cap 1023, then a
    bisection between the last two, stops at the same k in O(log k)
    probes; past 2^1023 the doubling steps to inf, where a V is never
    finite.  A probe that raises NumericalError fails too, and its error
    is raised when it is the probe at 2^k, the one the doubling would
    have stopped on; a non-finite operator entry, which only grows with
    a, is therefore raised exactly when the doubling would raise it.
    """
    errors = {}

    def failed(e: int) -> bool:
        try:
            return fails(math.ldexp(1.0, e) if e < 1024 else math.inf)
        except NumericalError as exc:
            errors[e] = exc
            return True

    good = 0
    for bad in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1023, 1024):
        if failed(bad):
            break
        good = bad
    while bad - good > 1:
        mid = (good + bad) // 2
        if failed(mid):
            bad = mid
        else:
            good = mid
    if bad in errors:
        raise errors[bad]
    return math.ldexp(1.0, good), math.ldexp(1.0, bad)


def stability_interval(graph: WeightedGraph, V, seed: int = 0) -> StabilityInterval:
    """Endpoints of {a : lambda_min(a) >= 0} by sign bisection.

    lambda_min is a minimum of functions affine in a, hence concave, and
    vanishes at a = 0 on connected graphs, so the set is a closed
    interval around 0.  A side where a V >= 0 everywhere is infinite,
    without a probe.  On a side where a sum V mu <= 0 (summed in exact
    fractions) the constant function puts lambda_min(a) at or below
    a sum V mu / sum mu, strictly below 0 as V != 0, so every probe
    there is known negative and none is factored: a balanced V gives
    exactly [-h, h], h = 2^-21.  Other endpoints are bracketed in
    [0, 1], or between consecutive powers of two (_doubling_bracket),
    and bisected to width INTERVAL_WIDTH, or to adjacent floats; the
    half-width reached is the endpoint tolerance.  The doubling stops by
    itself: once |a V(v)| mu(v) exceeds deg(v) at a vertex where a V is
    negative, that diagonal entry is negative.  An endpoint beyond float
    range raises NumericalError on the non-finite operator entry
    (V = (1, 1, -5e-324) on the unit triangle).  No probe repeats: the
    bracket probes are distinct powers of two, and each midpoint lies
    strictly inside its bracket.  The operator is assembled once, on the
    graph's trivial cover, and each probe needs only its sign: one
    in-place Cholesky factorization up to DENSE_LIMIT vertices, an
    eigensolve above it.
    """
    seed = _check_int(seed, "seed", 0)
    pot = as_potential(V, graph)
    if not any(pot):
        return StabilityInterval(-math.inf, math.inf, 0.0)
    op = _base_operator(graph, pot)
    balance = _balance(graph, pot)

    def endpoint(sign: float) -> tuple[float, float]:
        if all(sign * v >= 0.0 for v in pot):
            return sign * math.inf, 0.0
        known_negative = sign * balance <= 0  # no probe there is factored

        def fails(a: float) -> bool:
            return known_negative or not _is_nonnegative(op, sign * a, seed)

        lo, hi = (0.0, 1.0) if fails(1.0) else _doubling_bracket(fails)
        while hi - lo > INTERVAL_WIDTH:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):  # adjacent floats: the resolution is reached
                break
            if fails(mid):
                hi = mid
            else:
                lo = mid
        return sign * (lo + hi) / 2.0, (hi - lo) / 2.0

    upper, tol_up = endpoint(1.0)
    lower, tol_dn = endpoint(-1.0)
    return StabilityInterval(lower, upper, max(tol_up, tol_dn))


@dataclass(frozen=True)
class CorollaryReport:
    zero_potential: bool
    interval: StabilityInterval
    rayleigh_constant: tuple[tuple[float, float], ...]
    lambda_samples: tuple[tuple[float, float], ...]


def corollary_check(graph: WeightedGraph, V, seed: int = 0) -> CorollaryReport:
    """Balanced potentials pin the stability interval to the point {0}.

    Requires sum V mu = 0, summed exactly over the parsed floats.  The
    constant function then has zero energy at every a, so each
    rayleigh_constant row is 0 and lambda_min(a) <= 0; a nonzero
    balanced V has entries of both signs, so the interval is the exact
    [-h, h], h = 2^-21, that ``stability_interval`` bisects to
    INTERVAL_WIDTH.  What is audited is the sign of lambda_min at the
    couplings 1, -1, 0.5 and -0.5: strictly negative at each.  A zero V
    gives the full line and no samples.
    """
    pot = as_potential(V, graph)
    balance = _balance(graph, pot)
    if balance:
        raise InputError(f"potential is not balanced: sum V mu = {float(balance)!r}")
    interval = stability_interval(graph, pot, seed=seed)
    if not any(pot):
        return CorollaryReport(True, interval, (), ())

    lam_rows = []
    for a in (1.0, -1.0, 0.5, -0.5):
        sr = min_eigenvalue(graph, pot, a, seed=seed)
        if sr.nonnegative:
            raise InequalityViolation(
                f"lambda_min({a}) = {sr.lambda_min!r} is not strictly negative")
        lam_rows.append((a, sr.lambda_min))
    rq_rows = tuple((a, 0.0) for a, _lam in lam_rows)
    return CorollaryReport(False, interval, rq_rows, tuple(lam_rows))
