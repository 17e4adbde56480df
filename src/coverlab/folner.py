"""Folner certificates: exact almost-invariance ratios and their search.

A finite set E is an epsilon-Folner set for an action when every signed
generator gamma satisfies |E symdiff gamma E| <= epsilon * |E|.  All
ratios here are exact fractions; floating point never enters the
verdict.  The searcher tries, in order, one closed-form box (translation
actions only), orbit balls of growing radius, and finally a truncated
enumeration of connected subsets, reporting the best ratio seen when no
certificate exists within budget.  A translation action whose every
epsilon-Folner set is larger than the point budget, by the size floor
(2/epsilon)^r for r the rank of its vectors, is refused before any of
them runs.

The box is built one generator line at a time: each layer's points are
grouped by their coset of Z v and every point of the swept lines is
built once, so its cost is the size of its image.  The enumeration
recurses, one call per member, over a private table of integer point ids:
each point's images are computed once, the first time it is added,
and membership is a flag per id, so the table holds at most 2n + 1 ids
per distinct added point.  It carries each subset's per-generator
overlap counts as it grows, so a subset is scored in integers from
O(#generators) probes.  Orbit balls are scored by the same counts,
probing only the sphere each ball adds to the previous one, whose
images all lie inside it.
Whatever set the search returns as a certificate is re-checked from
scratch by verify_certificate, independently of them, in one pass that
moves each point by each signed generator once.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable

from .actions import DEFAULT_POINT_BUDGET, GroupAction, orbit_ball
from .errors import (BudgetExceededError, FolnerVerificationError, InputError,
                     _check_collection, _check_int, _check_nonempty, _echo)


def exact_fraction(value, label: str = "epsilon") -> Fraction:
    """value as an exact Fraction, refused as an InputError naming label
    unless it is a string Fraction() reads or a rational (never a bool), at
    least 0 and printable with its 2/value.  A float is refused: the decimal
    it was written as is already lost."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(value, str) and limit and re.search(rf"\d{{{limit + 1}}}", value):
        raise InputError(f"{label}: has a digit run above the limit of {limit} digits")
    try:
        if isinstance(value, bool) or not isinstance(value, (str, numbers.Rational)):
            raise ValueError
        ratio = Fraction(value) if isinstance(value, str) else Fraction(
            int(value.numerator), int(value.denominator))
    except (ValueError, ZeroDivisionError):  # Fraction('1/0') raises the latter
        raise InputError(f"{label}: expected an exact ratio, got {_echo(value)}") from None
    if ratio < 0:
        raise InputError(f"{label}: must be at least 0, got {_echo(value)}")
    if limit and 2 * max(ratio.numerator, ratio.denominator) >= 10**limit:
        raise InputError(f"{label}: a ratio whose numerator or denominator, doubled, has "
                         f"more than {limit} digits cannot be printed")
    return ratio


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for Folner searches; a bad field raises InputError naming it.

    Each field may lower its default, never raise it: 12, 14 and 200,000.
    The point budget is DEFAULT_POINT_BUDGET, read each time it is spent.
    """

    max_radius: int = 12
    subset_size_cap: int = 14
    max_subsets: int = 200_000

    def __post_init__(self):
        # a zero radius is a real (if tiny) search, zero subsets is none:
        # so every search scores at least the radius-0 ball
        for f in fields(self):
            object.__setattr__(self, f.name, _check_int(
                getattr(self, f.name), f.name, 0 if f.name == "max_radius" else 1, f.default))


def _search_budget(budget) -> SearchBudget:
    """budget, or the default SearchBudget for None; anything else is an InputError."""
    if budget is not None and not isinstance(budget, SearchBudget):
        raise InputError(f"budget: expected a SearchBudget, got {_echo(budget)}")
    return budget or SearchBudget()


@dataclass
class FolnerCertificate:
    """A verified finite set of points with its exact almost-invariance ratios."""

    action: GroupAction = field(repr=False)
    members: frozenset
    epsilon: Fraction
    per_generator_ratios: dict[int, Fraction]
    boundary_size: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def boundary_ratio(self) -> Fraction:
        return Fraction(self.boundary_size, self.size)

    @property
    def max_ratio(self) -> Fraction:
        return max(self.per_generator_ratios.values(), default=Fraction(0))


def verify_certificate(action: GroupAction, members: Iterable, epsilon) -> FolnerCertificate:
    """Check the Folner condition exactly, or raise on the first violation.

    One probe pass, independent of anything the search carried: every
    point of E is moved by every signed generator exactly once.  The
    points that -g moves out of E number |E \\ gE| = |E symdiff gE| / 2,
    and a point is on the boundary when some generator moves it out.
    Generators are checked in order, so the error names the first one
    over epsilon.
    """
    eps = exact_fraction(epsilon)
    E = _check_nonempty(_check_collection(members, "members", hashable=True), "members")
    apply_fn = action.apply_fn
    exits = {g: {x for x in E if apply_fn(g, x) not in E} for g in action.generators()}
    ratios = {g: Fraction(2 * len(exits[-g]), len(E)) for g in exits}
    for g, ratio in ratios.items():
        if ratio > eps:
            raise FolnerVerificationError(g, ratio, eps)
    return FolnerCertificate(action, E, eps, ratios, len(set().union(*exits.values())))


@dataclass
class SearchReport:
    """One search's outcome; best_set is the set of points with the best ratio."""

    outcome: str  # "found" or "exhausted"
    certificate: FolnerCertificate | None
    best_ratio: Fraction
    best_set: frozenset
    sets_examined: int
    radius_reached: int


# ---------------------------------------------------------------------------
# strategy 1: boxes for translation actions


def _translate(point: tuple, vector: tuple[int, ...], times: int) -> tuple:
    return tuple(c + times * d for c, d in zip(point, vector))


def _independent(vectors: list[tuple[int, ...]]):
    """Yield one pivot row per independent vector, by fraction-free elimination.

    Each cleared row is divided by the gcd of its entries, so entries stay
    small integers, and a caller that stops early pays only for its pivots.
    """
    rows = [list(v) for v in vectors]
    while rows:
        pivot = rows.pop()
        col = next((j for j, c in enumerate(pivot) if c), None)
        if col is None:
            continue
        yield pivot
        p = pivot[col]
        for i, row in enumerate(rows):
            c = row[col]
            if c:
                row = [p * x - c * y for x, y in zip(row, pivot)]
                g = math.gcd(*row) or 1
                rows[i] = [x // g for x in row]


def _crossing_rank(vectors: list[tuple[int, ...]], base) -> int | None:
    """The first r >= 0 with base**r > DEFAULT_POINT_BUDGET, or None if the rank stays below.

    Powers grow one factor at a time and pivots come one at a time, so
    none past r is formed, and no pivot at all when r > len(vectors).
    """
    r, power = 0, 1
    while power <= DEFAULT_POINT_BUDGET:
        if base <= 1 or r == len(vectors):
            return None
        r, power = r + 1, power * base
    return r if sum(1 for _ in zip(range(r), _independent(vectors))) == r else None


def translation_box(action: GroupAction, side: int) -> frozenset:
    """Image of the coordinate box [0, side)^n under the translation map.

    Built one layer per nonzero vector v: the layer is the previous one
    swept by 0..side-1 steps of v.  Its points are grouped into lines,
    the cosets of Z v, each keyed by its point x - q v with
    q = x[i] // v[i] at the first nonzero entry v[i].  On a line the
    runs [q, q + side) are merged and every point of their union is
    built once, so degenerate families (repeated, zero or non-primitive
    vectors) cost the size of the true image, never side**n.

    A layer whose merged runs exceed DEFAULT_POINT_BUDGET is refused with
    BudgetExceededError before it is built; partial_count is its size.
    Any r independent vectors already put side**r distinct points in the
    image, so a box is refused before any point is built, as holding at
    least side^r points, once side**r exceeds the budget for some r up to
    the rank.  The side is shown by _echo, so it may be too long to print.
    """
    if action.translation_vectors is None:
        raise InputError(f"{action.name} is not a translation action")
    side = _check_int(side, "box side", 1)
    moving = [v for v in action.translation_vectors if any(v)]
    r = _crossing_rank(moving, side)
    if r is not None:
        shown = _echo(side, str)
        raise BudgetExceededError(f"translation box of side {shown}", f"{shown}^{r}",
                                  DEFAULT_POINT_BUDGET)
    points = [action.origin]
    for layer, vector in enumerate(moving, 1):
        i = next(j for j, c in enumerate(vector) if c)
        lines: dict = {}
        for x in points:
            q = x[i] // vector[i]
            lines.setdefault(_translate(x, vector, -q), []).append(q)
        runs = []
        for anchor, qs in lines.items():
            qs.sort()
            lo, hi = qs[0], qs[0] + side
            for q in qs:
                if q > hi:
                    runs.append((anchor, lo, hi))
                    lo = q
                hi = q + side
            runs.append((anchor, lo, hi))
        size = sum(hi - lo for _anchor, lo, hi in runs)
        if size > DEFAULT_POINT_BUDGET:
            raise BudgetExceededError(f"layer {layer} of the translation box of side "
                                      f"{_echo(side, str)}", size, DEFAULT_POINT_BUDGET)
        points = [_translate(anchor, vector, t) for anchor, lo, hi in runs for t in range(lo, hi)]
    return frozenset(points)


def _search_box(action: GroupAction, eps: Fraction) -> SearchReport | None:
    """Answer a translation search in one step: found, refused, or None.

    None for eps 0.  Else let r be the rank of the nonzero vectors and
    pick r independent ones v_1..v_r.  Each line x + Z v_i meets an
    epsilon-Folner set E in a finite set, whose last point v_i moves out
    of E and whose first no point of E is moved to; so the projection
    P_i of E along v_i has 2 |P_i(E)| <= |E symdiff (E + v_i)| <= eps |E|.
    On each coset c of the lattice the v_i span, a copy of Z^r that E
    meets, Loomis-Whitney (|E_c|^(r-1) <= prod_i |P_i(E_c)|) and AM-GM
    give |E_c|^((r-1)/r) <= (1/r) sum_i |P_i(E_c)|.  Lines never cross
    cosets, and t^((r-1)/r) is subadditive, so summed over c this reads
    |E|^((r-1)/r) <= eps |E| / 2, that is |E| >= (2/eps)^r.  A floor
    over DEFAULT_POINT_BUDGET raises BudgetExceededError before any point
    is built: every set holds at least (2/epsilon)^rank points, for the
    first rank the elimination reaches with (2/eps)^rank over the budget,
    a lower bound on r, so the floor holds; partial_count is 0.

    Else the box of side ceil(2n / eps) is A + [0, side) v_i for each
    generator i: every coset line of Z v_i meets it in runs of at least
    side points, each with one exit, so every ratio is at most
    2 / side <= eps / n.  None when translation_box refuses it; a box
    that fails verification is a bug, and its error propagates.
    """
    if eps == 0:
        return None
    moving = [v for v in action.translation_vectors if any(v)]
    base = 2 / eps
    r = _crossing_rank(moving, base)
    if r is not None:
        shown = str(base) if base.denominator == 1 else f"({base})"
        raise BudgetExceededError(f"every {eps}-Folner set of {action.name}",
                                  f"(2/epsilon)^{r} = {shown}^{r}", DEFAULT_POINT_BUDGET)
    side = max(1, math.ceil(2 * action.generator_count / eps))
    try:
        box = translation_box(action, side)
    except BudgetExceededError:
        return None
    cert = verify_certificate(action, box, eps)
    return SearchReport("found", cert, cert.max_ratio, cert.members, 1, 0)


# ---------------------------------------------------------------------------
# strategy 3: truncated enumeration of connected subsets


def _connected_subsets(action: GroupAction, size_cap: int, max_subsets: int, visit) -> bool:
    """Call visit(members, overlap) on each connected subset of the Cayley
    graph containing the origin; True at the first one visit accepts.

    Redelmeier's extension scheme with a forbidden set, run depth first
    by a recursion at most size_cap calls deep.  Each qualifying subset
    is visited exactly once; enumeration stops after max_subsets, or once
    the point table below holds more than DEFAULT_POINT_BUDGET ids.

    overlap[i - 1] is |E intersect g_i^{-1} E| for the positive generator
    g_i; the signed generator -g_i has the same overlap, and |E symdiff gE|
    is 2 (|E| - overlap).  The counts are updated in O(#generators) probes
    per added point instead of rescored per subset.  members is the
    enumerator's live set: visit copies what it keeps.

    The search runs over a private point table.  A point gets an integer
    id when first seen; when first added, its 2n images are computed
    once, in generator order, as ids, together with its distinct images
    sorted once by the action's sort_key, the order in which they join
    the frontier.  Membership and the forbidden set are then flags in
    bytearrays indexed by id, so a point the search revisits costs no
    generator application, and a probe reads a flag instead of hashing
    a point.  Each added point brings at
    most 2n new ids, so the table holds at most 2n + 1 ids per distinct
    added point, and there are at most max_subsets of those; the
    DEFAULT_POINT_BUDGET stop bounds it for many generators, where
    max_subsets alone would not.  Measured
    with tracemalloc at 200,000 subsets: 4.2 MB for F3 at size cap 12,
    2.5 MB at the default cap 14, and 0.14 MB for Z^3 at cap 14.
    """
    gens = action.generators()
    n = action.generator_count
    apply_fn = action.apply_fn
    key = action.sort_key
    # ids[x] is the id of point x and points[i] the point with id i;
    # images[i] and order[i] are filled when point i is first added
    ids = {action.origin: 0}
    points = [action.origin]
    images: list = [None]
    order: list = [None]
    in_members = bytearray(1)
    # members, forbidden and frontier points of the current branch
    in_seen = bytearray(b"\x01")
    members: set = set()
    frontier: list = []
    emitted = 0

    def id_of(x) -> int:
        i = ids.get(x)
        if i is None:
            i = ids[x] = len(points)
            points.append(x)
            images.append(None)
            order.append(None)
            in_members.append(0)
            in_seen.append(0)
        return i

    def grow(v: int, start: int, overlap: tuple) -> bool:
        # visit members + v, then extend it by each of frontier[start:] and
        # the points v brings in turn; v leaves again unless visit accepts
        nonlocal emitted
        img = images[v]
        if img is None:
            x = points[v]
            img = images[v] = [id_of(apply_fn(g, x)) for g in gens]
            order[v] = sorted(set(img), key=lambda u: key(points[u]))
        # the pairs (v, g v) and (g^{-1} v, v); g v == v counts once
        overlap = tuple(
            ov + (in_members[img[i]] or img[i] == v) + in_members[img[n + i]]
            for i, ov in enumerate(overlap)
        )
        in_members[v] = 1
        members.add(points[v])
        emitted += 1
        if visit(members, overlap):
            return True
        if len(members) < size_cap:
            fresh = [u for u in order[v] if not in_seen[u]]
            for u in fresh:
                in_seen[u] = 1
            frontier.extend(fresh)
            for i in range(start, len(frontier)):
                if emitted >= max_subsets or len(points) > DEFAULT_POINT_BUDGET:
                    break
                if grow(frontier[i], i + 1, overlap):
                    return True
            for u in fresh:
                in_seen[u] = 0
            del frontier[len(frontier) - len(fresh):]
        in_members[v] = 0
        members.remove(points[v])
        return False

    found = grow(0, 0, (0,) * n)
    # grow reaches itself through its closure cell, a reference cycle that
    # would keep the point table alive until the next cyclic collection
    del grow
    return found


def search_folner(
    action: GroupAction,
    epsilon,
    budget: SearchBudget | None = None,
) -> SearchReport:
    """Look for an epsilon-Folner set around the action's origin.

    Outcome "found" carries a verified certificate.  Outcome "exhausted"
    carries the best (smallest) maximal ratio among all sets examined,
    which for nonamenable actions stays bounded away from zero.  A
    translation action is answered first by _search_box, which raises
    BudgetExceededError when its size floor exceeds DEFAULT_POINT_BUDGET.
    """
    eps = exact_fraction(epsilon)
    budget = _search_budget(budget)

    if action.translation_vectors is not None:
        boxed = _search_box(action, eps)
        if boxed is not None:
            return boxed

    # the best so far is best_excess / best_size, starting from 1 / 0 = infinity
    examined = radius_reached = 0
    best_excess, best_size, best_set = 1, 0, None
    eps_num, eps_den = eps.numerator, eps.denominator

    def score(members, overlap) -> bool:
        # overlap[i - 1] = |E intersect g_i^{-1} E| as _connected_subsets; the
        # worst ratio over all signed generators is 2 (|E| - min overlap) / |E|,
        # and 0 when there are none (tested inline: min's default= keyword
        # triples the cost of a call made once per scored set).  A set within
        # eps is the new best, since every set scored before it was above eps
        nonlocal examined, best_excess, best_size, best_set
        examined += 1
        size = len(members)
        excess = 2 * (size - (min(overlap) if overlap else size))
        if excess * best_size < best_excess * size:
            best_excess, best_size = excess, size
            best_set = frozenset(members)  # a copy of the enumerator's live set
        return excess * eps_den <= eps_num * size

    # orbit balls of growing radius, then connected subsets
    found = False
    inner = frozenset()
    for radius in range(budget.max_radius + 1):
        try:
            E = orbit_ball(action, radius).points
        except BudgetExceededError:
            break
        radius_reached = radius
        # the previous ball moves into E, so only its new sphere can exit
        sphere = E - inner
        found = score(E, [len(E) - sum(1 for y in sphere if action.apply_fn(g, y) not in E)
                          for g in range(1, action.generator_count + 1)])
        if found or len(E) >= DEFAULT_POINT_BUDGET:
            break
        inner = E
    if found or _connected_subsets(action, budget.subset_size_cap, budget.max_subsets, score):
        cert = verify_certificate(action, best_set, eps)
        return SearchReport("found", cert, cert.max_ratio, cert.members, examined, radius_reached)
    return SearchReport("exhausted", None, Fraction(best_excess, best_size), best_set,
                        examined, radius_reached)


def folner_sequence(
    action: GroupAction,
    epsilons: Iterable,
    budget: SearchBudget | None = None,
) -> tuple[SearchReport, ...]:
    """One search per requested ratio, in order, stopping after the first miss."""
    eps_list = _check_nonempty(
        [exact_fraction(e, f"epsilons[{k}]") for k, e in enumerate(epsilons)], "epsilons")
    reports = []
    for eps in eps_list:
        reports.append(search_folner(action, eps, budget))
        if reports[-1].outcome != "found":
            break
    return tuple(reports)
