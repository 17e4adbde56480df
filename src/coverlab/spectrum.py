"""Bottom of spectrum of the weighted operator L + a V, and what it implies.

The generalized problem (L + a diag(V mu)) f = lambda diag(mu) f is
symmetrized with M^{-1/2} so one standard symmetric eigensolve suffices;
dense below DENSE_LIMIT vertices, shift-inverted Lanczos above.  The
operator is assembled once per vertex list; only its diagonal depends
on a.  Finiteness is checked on the assembled sparse entries before
anything solves or factors them, and a dense branch holds one n x n
array, which LAPACK factors in place.  Every eigenpair carries an
explicit residual and is rejected past 100 n eps ||A||_1, or when it is
not a number.
A stability-interval bisection needs only the sign of lambda_min at each
probe, which a Cholesky factorization decides up to DENSE_LIMIT vertices.

numpy and scipy are loaded by ``load_solvers``, not at import, so a task
that never solves (a Folner search) never pays for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InequalityViolation, InputError, NumericalError
from .geometry import (
    CompactFunction,
    VoltageCover,
    WeightedGraph,
    as_potential,
    base_function,
    cover_form_parts,
)

DENSE_LIMIT = 2000
DEFAULT_SIZE_LIMIT = 5000

# Tolerances, all in one place (docs/schema.md lists them).
# an eigensolve's pair is rejected as unconverged when the largest entry
# of its normalized residual A y - lambda y exceeds this many n eps ||A||_1,
# the rounding a backward-stable solve of the n x n matrix A may leave
RESIDUAL_FACTOR = 100
# sign threshold for classifying an eigenvalue as nonnegative: well above
# solver noise, far below any honest spectral quantity in these scenarios
SIGN_FLOOR = 1e-12
# mixed absolute and relative slack of each witness audit inequality
AUDIT_TOLERANCE = 1e-12
# a Dirichlet window refutes cover positivity only below this noise floor
REFUTE_FLOOR = -1e-9

_SOLVER_NAMES = ("np", "eigh", "eigh_tridiagonal", "dpotrf", "csc_matrix", "eigsh")


def load_solvers() -> None:
    """Import numpy and the scipy solvers and bind them as module globals.

    A name that is already bound is kept, so a patched or traced solver
    survives a later call; every call after the first is a few lookups.
    """
    import numpy as np
    from scipy.linalg import eigh, eigh_tridiagonal
    from scipy.linalg.lapack import dpotrf
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import eigsh

    bound = globals()
    for name, value in zip(_SOLVER_NAMES, (np, eigh, eigh_tridiagonal, dpotrf,
                                           csc_matrix, eigsh)):
        bound.setdefault(name, value)


def __getattr__(name: str):
    # PEP 562: serves the solver names to readers outside the module
    if name in _SOLVER_NAMES:
        load_solvers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SpectralResult:
    lambda_min: float
    eigenvector: tuple[float, ...]
    residual: float


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
        load_solvers()
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


def _smallest_pair(op: _Operator, a: float, seed: int) -> tuple[float, np.ndarray, float]:
    """Smallest eigenpair of A(a): (lambda, eigenvector in original
    coordinates, residual)."""
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
    bound = RESIDUAL_FACTOR * n * np.finfo(float).eps * float(abs_rows.max())
    if not residual <= bound:
        raise NumericalError(f"eigensolve residual {residual:.3e} exceeds {bound:.3e} "
                             f"= {RESIDUAL_FACTOR} n eps ||A||_1")
    f = op.d * y
    pivot = int(np.argmax(np.abs(f)))
    if f[pivot] < 0:
        f = -f
    return lam, f, residual


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
        raise BudgetExceededError(
            f"graph has {n} vertices, above the eigensolve budget {DEFAULT_SIZE_LIMIT}",
            partial_count=n,
        )
    trivial = graph.trivial_cover
    return _Operator(trivial, trivial.tile(0), V)


def min_eigenvalue(graph: WeightedGraph, V, a: float, seed: int = 0) -> SpectralResult:
    """Bottom of the mu-weighted spectrum of L + a V on a finite graph.

    Connectivity is enforced by WeightedGraph itself; this only guards
    the size budget DEFAULT_SIZE_LIMIT and the solver tolerance.
    """
    lam, f, residual = _smallest_pair(_base_operator(graph, V), a, seed)
    return SpectralResult(lam, tuple(float(x) for x in f), residual)


def rayleigh(graph: WeightedGraph, V, a: float, f) -> float:
    """The trivial cover's form on the lift of f, over the mu-weighted square norm of f."""
    func = base_function(f, graph)
    if func.is_zero():
        raise InputError("Rayleigh quotient of the zero function is undefined")
    norm = fsum(func(v) ** 2 * graph.mu[v] for v in sorted(func.support))
    lift = CompactFunction({(v, 0): x for v, x in func.values.items()})
    grad, pot = cover_form_parts(graph.trivial_cover, V, a, lift)
    return (grad + pot) / norm


@dataclass(frozen=True)
class WindowValue:
    radius: int
    value: float
    size: int


def dirichlet_window(cover: VoltageCover, root_tile, radius: int, V, a: float,
                     seed: int = 0) -> WindowValue:
    """Dirichlet bottom eigenvalue of the hop ball around one tile.

    Functions vanish outside the ball, so each boundary edge contributes
    its full conductance to the diagonal; the value is non-increasing in
    the radius and never certifies positivity of the infinite cover,
    only refutes it when negative.
    """
    window = cover.ball(cover.tile(root_tile), radius)
    lam, _f, _residual = _smallest_pair(_Operator(cover, window, V), a, seed)
    return WindowValue(radius=radius, value=lam, size=len(window))


def dirichlet_lambda0(cover: VoltageCover, root_tile, radius: int, V, a: float,
                      seed: int = 0) -> float:
    return dirichlet_window(cover, root_tile, radius, V, a, seed).value


def dirichlet_profile(cover: VoltageCover, root_tile, radii: Iterable[int], V, a: float,
                      seed: int = 0) -> tuple[WindowValue, ...]:
    return tuple(dirichlet_window(cover, root_tile, r, V, a, seed) for r in radii)


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
    if degree < 2:
        raise InputError(f"tree degree must be >= 2, got {degree}")
    if vertex_radius < 0:
        raise InputError(f"radius must be nonnegative, got {vertex_radius}")
    load_solvers()
    m = vertex_radius + 1
    diag = np.full(m, float(degree))
    if m == 1:
        return float(degree)
    off = np.full(m - 1, math.sqrt(degree - 1.0))
    off[0] = math.sqrt(float(degree))
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


@dataclass(frozen=True)
class StabilityInterval:
    """Closed set {a : lambda_min(a) >= 0}; an interval containing 0."""

    lower: float  # -inf when V <= 0 everywhere
    upper: float  # +inf when V >= 0 everywhere
    endpoint_tolerance: float


MAX_BRACKET = 2.0**60


def stability_interval(graph: WeightedGraph, V, tol: float = 1e-6,
                       seed: int = 0) -> StabilityInterval:
    """Endpoints of {a : lambda_min(a) >= 0} by sign bisection.

    lambda_min is a minimum of functions affine in a, hence concave, and
    vanishes at a = 0 on connected graphs, so the set is a closed
    interval around 0.  One-sided infiniteness is decided exactly by the
    sign pattern of V; finite endpoints are bracketed by doubling from
    |a| = 1 and bisected to width tol, or to adjacent floats; the
    half-width reached is the endpoint tolerance.  No probe repeats: the
    doublings are distinct powers of two, and each midpoint lies strictly
    inside its bracket.  The operator is assembled once, on the graph's
    trivial cover, and each probe needs only its sign: one in-place
    Cholesky factorization up to DENSE_LIMIT vertices, an eigensolve
    above it.
    """
    if not tol > 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    pot = as_potential(V, graph)
    if not any(pot):
        return StabilityInterval(-math.inf, math.inf, 0.0)
    op = _base_operator(graph, pot)

    def endpoint(sign: float) -> tuple[float, float]:
        hi = 1.0
        lo = 0.0
        while _is_nonnegative(op, sign * hi, seed):
            lo = hi
            hi *= 2.0
            if hi > MAX_BRACKET:
                return sign * math.inf, 0.0
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):  # adjacent floats: the resolution is reached
                break
            if _is_nonnegative(op, sign * mid, seed):
                lo = mid
            else:
                hi = mid
        return sign * (lo + hi) / 2.0, (hi - lo) / 2.0

    if all(v >= 0.0 for v in pot):
        upper, tol_up = math.inf, 0.0
    else:
        upper, tol_up = endpoint(1.0)
    if all(v <= 0.0 for v in pot):
        lower, tol_dn = -math.inf, 0.0
    else:
        lower, tol_dn = endpoint(-1.0)
    return StabilityInterval(lower, upper, max(tol_up, tol_dn))


@dataclass(frozen=True)
class CorollaryReport:
    zero_potential: bool
    interval: StabilityInterval
    rayleigh_constant: tuple[tuple[float, float], ...]
    lambda_samples: tuple[tuple[float, float], ...]


def corollary_check(graph: WeightedGraph, V,
                    a_samples: Sequence[float] = (1.0, -1.0, 0.5, -0.5),
                    tol: float = 1e-6, seed: int = 0) -> CorollaryReport:
    """Balanced potentials pin the stability interval to the point {0}.

    Requires sum V mu = 0 exactly (fsum is exactly rounded, so integer
    style potentials balance to literal zero).  The constant function
    then has zero energy at every a, forcing lambda_min(a) <= 0, and any
    nonzero balanced V tilts some direction strictly negative; the
    operation audits exactly that, or the full line when V is zero.
    """
    pot = as_potential(V, graph)
    balance = fsum(pot[v] * graph.mu[v] for v in range(graph.vertex_count))
    if balance != 0.0:
        raise InputError(f"potential is not balanced: sum V mu = {balance!r}")
    interval = stability_interval(graph, pot, tol=tol, seed=seed)
    if not any(pot):
        if not (math.isinf(interval.lower) and math.isinf(interval.upper)):
            raise InequalityViolation(
                f"zero potential must give the full line, got {interval}"
            )
        return CorollaryReport(True, interval, (), ())

    rq_rows = []
    lam_rows = []
    for a in a_samples:
        rq = rayleigh(graph, pot, a, [1.0] * graph.vertex_count)
        if rq != 0.0:
            raise InequalityViolation(
                f"constant-function energy at a={a} is {rq!r}, expected exact 0"
            )
        rq_rows.append((float(a), rq))
        lam = min_eigenvalue(graph, pot, a, seed=seed).lambda_min
        if not lam < -SIGN_FLOOR:
            raise InequalityViolation(
                f"lambda_min({a}) = {lam!r} is not strictly negative"
            )
        lam_rows.append((float(a), lam))
    if not (abs(interval.lower) <= tol and abs(interval.upper) <= tol):
        raise InequalityViolation(
            f"stability interval {interval} is not [0, 0] within {tol}"
        )
    return CorollaryReport(False, interval, tuple(rq_rows), tuple(lam_rows))
