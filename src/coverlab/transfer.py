"""Transfer of strict base negativity to a cover through cutoff witnesses.

A base function f with negative energy lifts to the tiles of a Folner
set E and is tapered by a width-alpha cutoff.  The energy of the tapered
lift splits into a bulk proportional to |E| = c and a collar correction
proportional to the number b of tiles the taper touches, so a small
enough collar ratio b/c forces the cover energy negative.  Every step of
that bound is re-audited numerically on the concrete witness; nothing
is trusted from the derivation alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .actions import DEFAULT_POINT_BUDGET, GroupAction, _action_step, bfs_depths, boundary
from .errors import (BudgetExceededError, InequalityViolation, InputError, _check_collection,
                     _check_int, _check_real)
from .folner import (FolnerCertificate, SearchBudget, SearchReport, _search_budget,
                     search_folner)
from .geometry import (
    CompactFunction,
    VoltageCover,
    WeightedGraph,
    _per_vertex,
    as_potential,
    checked_fsum,
    collar_counts,
    cover_form_parts,
    cutoff,
)
from .spectrum import (
    AUDIT_TOLERANCE,
    StabilityInterval,
    WindowValue,
    dirichlet_window,
    min_eigenvalue,
    stability_interval,
)


MAX_HALVINGS = 20  # epsilon halvings after the first search; a fixed budget


def _leq(x: float, y: float) -> bool:
    """x <= y up to mixed absolute and relative slack."""
    return x <= y + AUDIT_TOLERANCE * max(1.0, abs(x), abs(y))


def _boundary_ball(action: GroupAction, members: Sequence, alpha: int) -> int:
    """Size of the radius-alpha ball around the members' boundary, within the point budget."""
    return len(bfs_depths(boundary(action, members), _action_step(action), alpha,
                          DEFAULT_POINT_BUDGET, f"collar ball of radius {alpha}"))


@dataclass(frozen=True)
class WitnessReport:
    """Audit trail for one tapered lift xi * f.

    c counts member tiles, b counts collar tiles (both sides of the
    taper), and collar_ball_bound is the size of the radius-alpha ball
    around the members' inner boundary.  b may exceed c: final_bound,
    c * Q_base + b * (the r* bracket), holds for every b.  Every term_*
    is recomputed from the witness function itself; every bound_* comes
    from the base sums alone, so verify() confronts the two derivations
    at each step.
    """

    c: int
    b: int
    alpha: int
    epsilon_used: Fraction
    members: frozenset
    collar_tiles: frozenset
    collar_ball_bound: int
    base_f2: float
    base_df2: float
    base_Vf2: float
    base_negVf2: float
    Q_base: float
    Q_cover: float
    term_grad: float
    bound_grad: float
    term_pot: float
    bound_pot: float
    final_bound: float

    @property
    def collar_ratio(self) -> Fraction:
        return Fraction(self.b, self.c)

    def verify(self) -> "WitnessReport":
        """Re-check every inequality in the chain; raise on any breach."""
        if self.b > self.collar_ball_bound:
            raise InequalityViolation(
                f"collar count b={self.b} exceeds the boundary ball bound "
                f"{self.collar_ball_bound}"
            )
        if not _leq(self.term_grad, self.bound_grad):
            raise InequalityViolation(
                f"gradient term {self.term_grad!r} exceeds its bound "
                f"{self.bound_grad!r}"
            )
        if not _leq(self.term_pot, self.bound_pot):
            raise InequalityViolation(
                f"potential term {self.term_pot!r} exceeds its bound "
                f"{self.bound_pot!r}"
            )
        if not _leq(self.Q_cover, self.final_bound):
            raise InequalityViolation(
                f"cover energy {self.Q_cover!r} exceeds the final bound "
                f"{self.final_bound!r}"
            )
        split = self.bound_grad + self.bound_pot
        if abs(self.final_bound - split) > AUDIT_TOLERANCE * max(
            1.0, abs(self.final_bound), abs(split)
        ):
            raise InequalityViolation(
                f"final bound {self.final_bound!r} disagrees with the split "
                f"form {split!r}"
            )
        return self


def _base_sums(graph: WeightedGraph, f: tuple, V, a: float, alpha: int):
    """The base sums S_f2, S_df2, S_Vf2, S_neg, then Q_base and the r* bracket;
    f holds one checked value per base vertex, and where it vanishes no term is summed."""
    pot, mu = as_potential(V, graph), graph.mu
    support = [(v, x) for v, x in enumerate(f) if x]
    s_f2 = checked_fsum((x ** 2 * mu[v] for v, x in support), "S_f2")
    s_df2 = checked_fsum((w * (f[u] - f[v]) ** 2 for u, v, w in graph.edges), "S_df2")
    s_vf2 = checked_fsum((pot[v] * x ** 2 * mu[v] for v, x in support), "S_Vf2")
    s_neg = checked_fsum((max(0.0, -a * pot[v]) * x ** 2 * mu[v] for v, x in support),
                         "S_neg")
    q_base = s_df2 + a * s_vf2
    bracket = s_f2 / alpha**2 + (2.0 / alpha) * math.sqrt(s_df2 * s_f2) + s_neg
    return s_f2, s_df2, s_vf2, s_neg, q_base, bracket


def required_ratio(graph: WeightedGraph, f, alpha: int, V, a: float) -> float:
    """Collar ratio below which the tapered lift must go negative.

    r* = -Q_base / (S_f2/alpha^2 + (2/alpha) sqrt(S_df2 S_f2) + S_neg);
    meaningful only when Q_base < 0, and always <= 1 because the bracket
    dominates -Q_base term by term.
    """
    alpha, a = _check_int(alpha, "alpha", 1, DEFAULT_POINT_BUDGET), _check_real(a, "a")
    f = _per_vertex(f, graph, "f", "function")
    if not any(f):
        raise InputError("required ratio needs a nonzero base function")
    *_, q_base, bracket = _base_sums(graph, f, V, a, alpha)
    if q_base >= 0.0:
        raise InputError(
            f"base energy {q_base!r} is nonnegative; there is no negativity "
            "to transfer"
        )
    return -q_base / bracket


def build_witness(cover: VoltageCover, f, cert: FolnerCertificate, alpha: int, V,
                  a: float) -> tuple[CompactFunction, WitnessReport]:
    """Tapered lift of f over a certified Folner set, with its verified audit report.

    f holds one value per base vertex.  The witness covers the
    certificate's members and its report carries the certificate's
    epsilon.  The report's inequality chain is checked before it is
    returned, so every report that leaves here is verified; a breach
    raises InequalityViolation.
    """
    members = cert.members
    f = _per_vertex(f, cover.base, "f", "function")
    if not any(f):
        raise InputError("cannot build a witness from the zero function")

    xi = cutoff(cover, members, alpha)
    witness = CompactFunction({p: float(x) * f[p[0]] for p, x in xi.values.items()})
    term_grad, term_pot = cover_form_parts(cover, V, a, witness)
    q_cover = term_grad + term_pot

    s_f2, s_df2, s_vf2, s_neg, q_base, bracket = _base_sums(cover.base, f, V, a, alpha)
    c = len(members)
    b = len(xi.collar_tiles)
    bound_grad = (
        (b / alpha**2) * s_f2
        + (2.0 * b / alpha) * math.sqrt(s_f2 * s_df2)
        + c * s_df2
    )
    bound_pot = c * (a * s_vf2) + b * s_neg
    final_bound = c * (q_base + (b / c) * bracket)

    report = WitnessReport(
        c=c,
        b=b,
        alpha=alpha,
        epsilon_used=cert.epsilon,
        members=members,
        collar_tiles=xi.collar_tiles,
        collar_ball_bound=_boundary_ball(cover.fiber_action, members, alpha),
        base_f2=s_f2,
        base_df2=s_df2,
        base_Vf2=s_vf2,
        base_negVf2=s_neg,
        Q_base=q_base,
        Q_cover=q_cover,
        term_grad=term_grad,
        bound_grad=bound_grad,
        term_pot=term_pot,
        bound_pot=bound_pot,
        final_bound=final_bound,
    )
    return witness, report.verify()


@dataclass(frozen=True)
class TransferOutcome:
    status: str  # "transferred" or "inconclusive"
    lambda_min_base: float
    r_star: float
    alpha: int
    epsilon_first: Fraction
    epsilon_used: Optional[Fraction]
    witness: Optional[CompactFunction]
    report: Optional[WitnessReport]
    attempts: tuple
    best_collar_ratio: Optional[Fraction]
    message: str


def transfer_negativity(cover: VoltageCover, V, a: float, alpha: int,
                        budget: Optional[SearchBudget] = None,
                        seed: int = 0) -> TransferOutcome:
    """Try to push the base ground state's negativity into the cover.

    The base function is the ground state's eigenvector, one value per
    base vertex, passed as is to required_ratio and build_witness.
    Starts from epsilon = r* / (1 + n alpha), whose Folner sets obey
    b/c <= collar_ball/c <= n alpha epsilon/(...) comfortably below r*
    in the regular cases, and halves epsilon whenever a certificate's
    collar ratio still lands at or above r*, at most MAX_HALVINGS
    times.  Success requires the audited witness energy to be strictly
    negative; anything else on a sub-r* ratio is raised as a violation,
    not smoothed over.

    Witnesses are built only over certificates.  When the search
    exhausts before any certificate, the best set's collar ratio b/c is
    counted by the collar sweep alone and report is None; a best set over
    the sweep's point budget leaves the ratio None, and the message says
    why.  A base that is nonnegative up to its rounding has nothing to
    transfer: an input error.
    """
    budget = _search_budget(budget)
    base = cover.base
    sr = min_eigenvalue(base, V, a, seed=seed)
    if sr.nonnegative:
        raise InputError(
            f"base lambda_min = {sr.lambda_min!r} is nonnegative; nothing to "
            "transfer"
        )
    r_star = required_ratio(base, sr.eigenvector, alpha, V, a)
    fiber = cover.fiber_action
    epsilon_first = Fraction(r_star) / (1 + fiber.generator_count * alpha)

    attempts: list[WitnessReport] = []
    exhausted: Optional[SearchReport] = None
    witness: Optional[CompactFunction] = None
    eps = epsilon_first
    for _ in range(MAX_HALVINGS + 1):
        search = search_folner(fiber, eps, budget)
        if search.outcome != "found":
            exhausted = search
            break
        candidate, wrep = build_witness(cover, sr.eigenvector, search.certificate, alpha, V, a)
        attempts.append(wrep)
        if wrep.collar_ratio < Fraction(r_star):
            if not wrep.Q_cover < 0.0:
                raise InequalityViolation(
                    f"witness with collar ratio {wrep.collar_ratio} below "
                    f"r*={r_star!r} has nonnegative energy {wrep.Q_cover!r}"
                )
            witness = candidate
            break
        eps = eps / 2

    # every attempt before a winner scored at least r*, so the minimum is the
    # winner's; with no certificate to build a witness over, the search
    # exhausted, and b/c of its best set is counted by the collar sweep,
    # unless that set is over the sweep's point budget
    best = refused = None
    if attempts:
        best = min(w.collar_ratio for w in attempts)
    else:
        try:
            best = Fraction(*collar_counts(cover, exhausted.best_set, alpha))
        except BudgetExceededError as exc:
            refused = exc
    report = attempts[-1] if attempts else None
    if witness is not None:
        message = (f"collar ratio {report.collar_ratio} < r* = {r_star:.6g}; "
                   f"cover energy {report.Q_cover:.6g} < 0")
    else:
        detail = ("the Folner search exhausted its budget" if exhausted is not None
                  else f"{MAX_HALVINGS} epsilon halvings after the first search never beat r*")
        seen = f"best ratio not counted: {refused}" if refused else f"best ratio seen {best}"
        message = f"no witness with collar ratio below r* = {r_star:.6g}: {detail}; {seen}"
    return TransferOutcome(
        status="transferred" if witness is not None else "inconclusive",
        lambda_min_base=sr.lambda_min,
        r_star=r_star,
        alpha=alpha,
        epsilon_first=epsilon_first,
        epsilon_used=report.epsilon_used if witness is not None else None,
        witness=witness,
        report=report,
        attempts=tuple(attempts),
        best_collar_ratio=best,
        message=message,
    )


def _sample(cover: VoltageCover, V, a: float, radii: Sequence[int], seed: int):
    """The base solve at a and the Dirichlet windows around the origin tile.

    The easy direction is checked on the spot: over a nonnegative base
    no window may refute cover positivity.
    """
    sr = min_eigenvalue(cover.base, V, a, seed=seed)
    windows = tuple(dirichlet_window(cover, r, V, a, seed) for r in radii)
    for win in windows:
        if sr.nonnegative and win.refutes:
            raise InequalityViolation(
                f"a={a}: base lambda_min={sr.lambda_min!r} is nonnegative but the "
                f"radius-{win.radius} window is {win.value!r}"
            )
    return sr, windows


@dataclass(frozen=True)
class EasyDirectionRow:
    a: float
    lambda_min_base: float
    base_nonnegative: bool
    windows: tuple[WindowValue, ...]


@dataclass(frozen=True)
class EasyDirectionReport:
    rows: tuple[EasyDirectionRow, ...]


def easy_direction_check(cover: VoltageCover, V, a_samples: Sequence[float],
                         radii: Sequence[int], seed: int = 0) -> EasyDirectionReport:
    """Base nonnegativity must show up in every Dirichlet window.

    Each window value dominates the base bottom eigenvalue, so whenever
    the base operator is nonnegative every window must clear the noise
    floor; a dip below it contradicts the covering inequality and is
    raised as a violation.
    """
    a_samples = _check_collection(a_samples, "a_samples")
    radii = _check_collection(radii, "radii")
    rows = []
    for a in a_samples:
        sr, windows = _sample(cover, V, a, radii, seed)
        rows.append(EasyDirectionRow(float(a), sr.lambda_min, sr.nonnegative, windows))
    return EasyDirectionReport(tuple(rows))


@dataclass(frozen=True)
class IntervalSampleRow:
    a: float
    lambda_min_base: float
    base_nonnegative: bool
    window: WindowValue
    cover_refuted: bool
    transfer_status: Optional[str]
    collar_ratio: Optional[Fraction]


@dataclass(frozen=True)
class IntervalComparisonReport:
    interval: StabilityInterval
    rows: tuple[IntervalSampleRow, ...]
    equality_evidence: bool


def interval_comparison(cover: VoltageCover, V, a_samples: Sequence[float],
                        radius: int, alpha: int, seed: int = 0) -> IntervalComparisonReport:
    """Compare the base stability interval against cover evidence.

    For every sampled coupling the base operator is classified by its
    bottom eigenvalue and the cover by one Dirichlet window; nonnegative
    base with a refuted cover is a violation.  Where the base is strictly
    negative, a transfer attempt at alpha supplies the other inclusion;
    its failure leaves equality_evidence False rather than raising,
    because windows and budgets only ever half-decide it.
    """
    a_samples = _check_collection(a_samples, "a_samples")
    interval = stability_interval(cover.base, V, seed=seed)
    rows = []
    for a in a_samples:
        sr, (window,) = _sample(cover, V, a, (radius,), seed)
        status = ratio = None
        if not sr.nonnegative:
            outcome = transfer_negativity(cover, V, a, alpha, seed=seed)
            status, ratio = outcome.status, outcome.best_collar_ratio
        rows.append(IntervalSampleRow(
            float(a), sr.lambda_min, sr.nonnegative, window,
            window.refutes, status, ratio,
        ))
    # a negative sample is evidence only if its window refutes or it transferred
    equality_evidence = all(row.base_nonnegative or row.cover_refuted
                            or row.transfer_status == "transferred" for row in rows)
    return IntervalComparisonReport(interval, tuple(rows), equality_evidence)


@dataclass(frozen=True)
class CounterexampleReport:
    transfer: TransferOutcome
    windows: tuple[WindowValue, ...]


def counterexample_check(cover: VoltageCover, V, a: float, alpha: int,
                         radii: Sequence[int],
                         budget: Optional[SearchBudget] = None,
                         seed: int = 0) -> CounterexampleReport:
    """Check strict inclusion: negative base, yet no cover negativity.

    Expects the transfer attempt to come back inconclusive and every
    Dirichlet window to stay above the refutation floor.  A successful
    transfer or a negative window means the scenario is not the strict
    inclusion it claims to be, which is raised as a violation.
    """
    radii = _check_collection(radii, "radii")
    outcome = transfer_negativity(cover, V, a, alpha, budget, seed=seed)
    if outcome.status == "transferred":
        raise InequalityViolation(
            "negativity transferred to the cover; strict inclusion fails"
        )
    windows = tuple(dirichlet_window(cover, r, V, a, seed) for r in radii)
    for win in windows:
        if win.refutes:
            raise InequalityViolation(
                f"radius-{win.radius} window is {win.value!r} < 0; the cover "
                "is negative after all"
            )
    return CounterexampleReport(transfer=outcome, windows=windows)
