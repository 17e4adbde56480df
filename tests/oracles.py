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
    base_function,
    boundary,
    cover_form_parts,
    min_eigenvalue,
)
from coverlab.actions import net_displacement
from coverlab.spectrum import MAX_BRACKET, StabilityInterval


def apply(action, g, point):
    """One signed generator applied to a point, with the id checked first."""
    action.check_generator(g)
    return action.apply_fn(g, point)


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


def lift_function(cover, f, tiles):
    """Lift of a base function to finitely many tiles, zero elsewhere."""
    func = base_function(f, cover.base)
    values = {}
    for x in set(tiles):
        for v in func.support:
            values[(v, x)] = func(v)
    return CompactFunction(values)


def cover_quadratic_form(cover, V, a, func):
    """Gradient plus potential part of the cover's form at coupling a."""
    grad, pot = cover_form_parts(cover, V, a, func)
    return grad + pot


def eigenvalue_stability_interval(graph, V, tol, seed=0):
    """{a : lambda_min(a) >= 0} bisected on the sign of a full eigensolve.

    The same bracket doubling, midpoints and stop at adjacent floats as
    ``stability_interval``, but every probe solves for lambda_min.
    """
    def lam(a):
        return min_eigenvalue(graph, V, a, seed).lambda_min

    def endpoint(sign):
        hi = 1.0
        lo = 0.0
        while lam(sign * hi) >= 0.0:
            lo = hi
            hi *= 2.0
            if hi > MAX_BRACKET:
                return sign * math.inf, 0.0
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):
                break
            if lam(sign * mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return sign * (lo + hi) / 2.0, (hi - lo) / 2.0

    if all(v == 0.0 for v in V):
        return StabilityInterval(-math.inf, math.inf, 0.0)
    upper, tol_up = (math.inf, 0.0) if min(V) >= 0.0 else endpoint(1.0)
    lower, tol_dn = (-math.inf, 0.0) if max(V) <= 0.0 else endpoint(-1.0)
    return StabilityInterval(lower, upper, max(tol_up, tol_dn))


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
