"""Independent oracles the tests check coverlab against.

Nothing in coverlab calls these; each recomputes a quantity from its
definition, by a different route than the library takes.
"""

import math
from fractions import Fraction

import numpy as np

from coverlab import (
    CompactFunction,
    InputError,
    boundary,
    build_cover,
    cover_form_parts,
    finite_permutation_action,
    min_eigenvalue,
)
from coverlab.spectrum import StabilityInterval


def apply(action, g, point):
    """One signed generator applied to a point, with the id checked first."""
    action.check_generator(g)
    return action.apply_fn(g, point)


def apply_word(carrier, word, point):
    """A word applied letter by letter through its carrier, rightmost letter first."""
    for letter in reversed(word):
        point = apply(carrier, letter, point)
    return point


def net_displacement(carrier, word):
    """Net translation of a word, summed from the carrier's translation_vectors."""
    net = [0] * len(carrier.origin)
    for letter in word:
        sign = 1 if letter > 0 else -1
        net = [c + sign * d for c, d in zip(net, carrier.translation_vectors[abs(letter) - 1])]
    return tuple(net)


def set_ratios(action, members):
    """Exact |E symdiff gE| / |E| for every signed generator."""
    E = frozenset(members)
    if not E:
        raise InputError("ratios of the empty set are undefined")
    ratios = {}
    for g in action.generators():
        # y lies in E intersect gE iff y in E and g^{-1} y in E
        overlap = sum(1 for y in E if action.apply_fn(-g, y) in E)
        ratios[g] = Fraction(2 * (len(E) - overlap), len(E))
    return ratios


def folner_boundary_bound(action, members):
    """Boundary size versus the summed one-sided deficits that bound it.

    Returns (|dE|, sum over signed g of |E \\ g^{-1}E|); the first never
    exceeds the second, since each boundary point is counted by at least
    one generator that moves it out.
    """
    E = frozenset(members)
    if not E:
        raise InputError("boundary bound of the empty set is undefined")
    lhs = len(boundary(action, E))
    rhs = 0
    for g in action.generators():
        rhs += sum(1 for x in E if action.apply_fn(g, x) not in E)
    return lhs, rhs


def rank_by_full_elimination(vectors):
    """Exact rank over the rationals; every pivot updates every remaining row."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((j for j, c in enumerate(pivot) if c), None)
        if col is not None:
            rank += 1
            rows = [[a - r[col] / pivot[col] * b for a, b in zip(r, pivot)] for r in rows]
    return rank


def trivial_cover(graph):
    """The graph as its own cover: one tile, over the one-point fiber 0."""
    return build_cover(graph, finite_permutation_action([], 1), [])


def lift_function(cover, f, tiles):
    """Lift of a base function, one value per base vertex, to finitely many
    tiles, zero elsewhere."""
    if len(f) != cover.base.vertex_count:
        raise InputError(f"function has {len(f)} entries for {cover.base.vertex_count} vertices")
    return CompactFunction({(v, x): fv for x in set(tiles) for v, fv in enumerate(f)})


def cover_quadratic_form(cover, V, a, func):
    """Gradient plus potential part of the cover's form at coupling a."""
    grad, pot = cover_form_parts(cover, V, a, func)
    return grad + pot


def rayleigh(graph, V, a, f):
    """The trivial cover's form on the lift of f, over the mu-weighted square norm of f."""
    cover = trivial_cover(graph)
    lift = lift_function(cover, f, [0])
    norm = math.fsum(x ** 2 * graph.mu[v] for (v, _x), x in lift.values.items())
    return cover_quadratic_form(cover, V, a, lift) / norm


def positive_definite_exactly(graph, V, a):
    """Whether L + a diag(V mu) is positive definite, over the parsed floats.

    The matrix is built in Fraction arithmetic and reduced by symmetric
    Gaussian elimination, whose pivots are those of its LDL^T factors;
    by Sylvester's criterion it is positive definite exactly when every
    pivot is positive.  As diag(mu) is positive, that is lambda_min > 0.
    """
    n = graph.vertex_count
    A = [[Fraction(0)] * n for _ in range(n)]
    for u, v, w in graph.edges:
        w = Fraction(w)
        A[u][u] += w
        A[v][v] += w
        A[u][v] -= w
        A[v][u] -= w
    for v in range(n):
        A[v][v] += Fraction(a) * Fraction(V[v]) * Fraction(graph.mu[v])
    for k in range(n):
        pivot = A[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = A[i][k] / pivot
            for j in range(k + 1, n):
                A[i][j] -= factor * A[k][j]
    return True


def doubling_stability_interval(V, tol, nonnegative):
    """{a : nonnegative(a)} by plain doubling from 1, then bisection.

    The bracket doubles |a| from 1 until nonnegative fails, then the
    same midpoints and stop at adjacent floats as ``stability_interval``;
    a side where a V >= 0 everywhere is infinite.
    """
    def endpoint(sign):
        hi = 1.0
        lo = 0.0
        while nonnegative(sign * hi):
            lo = hi
            hi *= 2.0
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):
                break
            if nonnegative(sign * mid):
                lo = mid
            else:
                hi = mid
        return sign * (lo + hi) / 2.0, (hi - lo) / 2.0

    if all(v == 0.0 for v in V):
        return StabilityInterval(-math.inf, math.inf, 0.0)
    upper, tol_up = (math.inf, 0.0) if min(V) >= 0.0 else endpoint(1.0)
    lower, tol_dn = (-math.inf, 0.0) if max(V) <= 0.0 else endpoint(-1.0)
    return StabilityInterval(lower, upper, max(tol_up, tol_dn))


def eigenvalue_stability_interval(graph, V, tol, seed=0):
    """{a : lambda_min(a) >= 0} bisected on the sign of a full eigensolve.

    The doubling and bisection of ``doubling_stability_interval``, every
    probe solving for lambda_min.
    """
    return doubling_stability_interval(
        V, tol, lambda a: min_eigenvalue(graph, V, a, seed).lambda_min >= 0.0)


def bloch_lambda_min(cover, V, a, theta):
    """Bottom of the twisted base operator H(theta) of an abelian cover.

    On a cover whose carrier acts by translations, a Bloch function
    f(v, x) = exp(i theta.x) g(v) turns L + a V into a Hermitian operator
    on the base: the edge {u, v} whose voltage moves fibers by m couples
    u to v with -w exp(i theta.m).  H(0) is the base operator, and
    |g| never has more energy than g, so theta = 0 gives the bottom over
    all theta, which is the cover's bottom of spectrum (Floquet-Bloch).
    """
    base = cover.base
    n = base.vertex_count
    H = np.zeros((n, n), dtype=complex)
    for u, v, w in base.edges:
        m = net_displacement(cover.carrier, cover.voltages.get((u, v), ()))
        phase = np.exp(1j * np.dot(theta, m))
        H[u, u] += w
        H[v, v] += w
        H[u, v] -= w * phase
        H[v, u] -= w * np.conj(phase)
    H += np.diag([a * V[x] * base.mu[x] for x in range(n)])
    d = 1.0 / np.sqrt(np.array(base.mu))
    return float(np.linalg.eigvalsh(d[:, None] * H * d[None, :])[0])
