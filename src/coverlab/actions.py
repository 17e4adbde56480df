"""Finitely generated group actions with explicit point enumeration.

An action is described by a symmetric generating set: generators are the
signed integers +1..+n and -1..-n, where -i always acts as the inverse of
+i.  Points can be any hashable values; each built-in family fixes a
canonical encoding so that sets of points serialize deterministically.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .errors import BudgetExceededError, InputError

DEFAULT_POINT_BUDGET = 10**6

# a lattice action holds a d x d basis, and a free group's radius-1 ball
# of 2 rank + 1 points takes 2 rank moves per point to score; refuse a
# dimension or rank whose square outgrows the point budget
MAX_LATTICE_DIMENSION = math.isqrt(DEFAULT_POINT_BUDGET)

# permutation group enumeration refuses to materialize groups larger than this
MAX_GROUP_ORDER = 10**4


@dataclass(frozen=True)
class GroupAction:
    """A finitely generated action given by its generator rule.

    apply_fn maps (signed generator, point) to a point and must define a
    genuine action: apply_fn(-g, apply_fn(g, x)) == x for every generator.
    translation_vectors is set only for lattice-like actions where every
    generator acts by adding a fixed integer vector; the Folner search
    uses it for the closed-form box construction.
    """

    name: str
    generator_count: int
    origin: Any
    apply_fn: Callable[[int, Any], Any] = field(repr=False)
    sort_key: Callable[[Any], Any] = field(repr=False)
    encode_fn: Callable[[Any], str] = field(repr=False)
    translation_vectors: tuple[tuple[int, ...], ...] | None = None

    def generators(self) -> tuple[int, ...]:
        """All signed generator ids, inverses included."""
        n = self.generator_count
        return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))

    def check_generator(self, g: int) -> None:
        if not isinstance(g, int) or g == 0 or abs(g) > self.generator_count:
            raise InputError(
                f"generator id {g!r} out of range for {self.name} "
                f"(expected nonzero integer with |g| <= {self.generator_count})"
            )

    def encode(self, point: Any) -> str:
        return self.encode_fn(point)


@dataclass(frozen=True)
class OrbitGraph:
    """The points within a hop radius of a center, sorted by the action's key."""

    points: tuple

    def point_set(self) -> frozenset:
        return frozenset(self.points)


def bfs_depths(roots: Iterable, step: Callable[[Any], Iterable], radius: int | None = None,
               max_points: int | None = None, overflow: Callable[[int], str] | None = None) -> dict:
    """Hop depth of each point within radius of the roots (radius None: the closure).

    step(x) lists the neighbors of x; points are keyed in the order reached.
    Past max_points points it raises BudgetExceededError(overflow(d)), d
    the hop of the point that overflowed, with the count reached so far.
    """
    seen = dict.fromkeys(roots, 0)
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        d = seen[x]
        if d == radius:
            continue
        for y in step(x):
            if y not in seen:
                seen[y] = d + 1
                if max_points is not None and len(seen) > max_points:
                    raise BudgetExceededError(overflow(d + 1), partial_count=len(seen))
                queue.append(y)
    return seen


def _action_step(action: GroupAction) -> Callable[[Any], list]:
    """x -> its images under every signed generator, for bfs_depths."""
    gens = action.generators()
    apply_fn = action.apply_fn
    return lambda x: [apply_fn(g, x) for g in gens]


def orbit_ball(
    action: GroupAction,
    center: Any,
    radius: int,
    max_points: int = DEFAULT_POINT_BUDGET,
) -> OrbitGraph:
    """Breadth-first ball of the given hop radius around a point.

    Raises BudgetExceededError (with the partial count) if the ball
    grows past max_points before the radius is exhausted.
    """
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    seen = bfs_depths(
        [center], _action_step(action), radius, max_points,
        lambda d: f"orbit ball around {action.encode(center)} exceeded "
                  f"{max_points} points at radius {d}",
    )
    return OrbitGraph(points=tuple(sorted(seen, key=action.sort_key)))


def boundary(action: GroupAction, members: Iterable) -> frozenset:
    """Points of the set that some signed generator maps outside it."""
    E = frozenset(members)
    if not E:
        raise InputError("boundary of the empty set is undefined")
    gens = action.generators()
    return frozenset(
        x for x in E if any(action.apply_fn(g, x) not in E for g in gens)
    )


# ---------------------------------------------------------------------------
# built-in families


def _tuple_encode(point: tuple) -> str:
    return ",".join(str(c) for c in point)


def lattice_action(dimension: int) -> GroupAction:
    """Z^n acting on itself; generator i translates coordinate i by one."""
    if dimension < 1:
        raise InputError(f"lattice dimension must be >= 1, got {dimension}")
    if dimension > MAX_LATTICE_DIMENSION:
        raise InputError(
            f"lattice dimension must be at most {MAX_LATTICE_DIMENSION}, got {dimension}"
        )

    def apply_fn(g: int, x: tuple) -> tuple:
        i = abs(g) - 1
        step = 1 if g > 0 else -1
        return x[:i] + (x[i] + step,) + x[i + 1 :]

    basis = tuple(
        tuple(1 if j == i else 0 for j in range(dimension))
        for i in range(dimension)
    )
    return GroupAction(
        name=f"lattice({dimension})",
        generator_count=dimension,
        origin=(0,) * dimension,
        apply_fn=apply_fn,
        sort_key=lambda x: x,
        encode_fn=_tuple_encode,
        translation_vectors=basis,
    )


def free_group_action(rank: int) -> GroupAction:
    """The free group on `rank` letters acting on itself by left multiplication.

    Points are reduced words stored as tuples of signed letter ids.
    """
    if rank < 1:
        raise InputError(f"free group rank must be >= 1, got {rank}")
    if rank > MAX_LATTICE_DIMENSION:
        raise InputError(
            f"free group rank must be at most {MAX_LATTICE_DIMENSION}, got {rank}"
        )

    def apply_fn(g: int, w: tuple) -> tuple:
        if w and w[0] == -g:
            return w[1:]
        return (g,) + w

    return GroupAction(
        name=f"free({rank})",
        generator_count=rank,
        origin=(),
        apply_fn=apply_fn,
        sort_key=lambda w: (len(w), w),
        encode_fn=_tuple_encode,
    )


def _check_permutation(perm: tuple, degree: int, label: str) -> None:
    # the length first, so a huge degree never builds its range
    if len(perm) != degree or sorted(perm) != list(range(degree)):
        raise InputError(f"{label} is not a permutation of 0..{degree - 1}: {perm!r}")


def finite_permutation_action(perms: Iterable[tuple], degree: int) -> GroupAction:
    """An action on {0..degree-1} generated by explicit permutations."""
    gens = tuple(tuple(p) for p in perms)
    if degree < 1:
        raise InputError(f"degree must be >= 1, got {degree}")
    for k, p in enumerate(gens):
        _check_permutation(p, degree, f"generator {k + 1}")
    inverses = tuple(permutation_inverse(p) for p in gens)

    def apply_fn(g: int, x: int) -> int:
        if g > 0:
            return gens[g - 1][x]
        return inverses[-g - 1][x]

    return GroupAction(
        name=f"perm(degree={degree},gens={len(gens)})",
        generator_count=len(gens),
        origin=0,
        apply_fn=apply_fn,
        sort_key=lambda x: x,
        encode_fn=str,
    )


def free_quotient_lattice_action(vectors: Iterable[tuple]) -> GroupAction:
    """Coset action of a free group on a lattice.

    Generator k of the free group acts on Z^d by translation with
    vectors[k-1].  Zero vectors are allowed (that generator acts as the
    identity), which is how amenable actions of nonamenable groups are
    built here.  Both the vector count and the dimension are capped at
    MAX_LATTICE_DIMENSION, as the lattice dimension and free rank are.
    """
    vecs = tuple(tuple(int(c) for c in v) for v in vectors)
    if not vecs:
        raise InputError("at least one generator vector is required")
    dim = len(vecs[0])
    if dim < 1 or any(len(v) != dim for v in vecs):
        raise InputError(f"generator vectors must share a positive dimension: {vecs!r}")
    if max(len(vecs), dim) > MAX_LATTICE_DIMENSION:
        raise InputError(
            f"quotient takes at most {MAX_LATTICE_DIMENSION} vectors of dimension at most "
            f"{MAX_LATTICE_DIMENSION}, got {len(vecs)} of dimension {dim}"
        )

    def apply_fn(g: int, x: tuple) -> tuple:
        v = vecs[abs(g) - 1]
        step = 1 if g > 0 else -1
        return tuple(c + step * d for c, d in zip(x, v))

    return GroupAction(
        name=f"free_quotient({vecs})",
        generator_count=len(vecs),
        origin=(0,) * dim,
        apply_fn=apply_fn,
        sort_key=lambda x: x,
        encode_fn=_tuple_encode,
        translation_vectors=vecs,
    )


def net_displacement(carrier: GroupAction, word: Iterable[int]) -> tuple[int, ...]:
    """Net translation vector of a word in a translation action's generators."""
    net = [0] * len(carrier.origin)
    for letter in word:
        v = carrier.translation_vectors[abs(letter) - 1]
        sign = 1 if letter > 0 else -1
        net = [c + sign * d for c, d in zip(net, v)]
    return tuple(net)


def word_action(
    carrier: GroupAction,
    words: Iterable[tuple[int, ...]],
    name: str | None = None,
) -> GroupAction:
    """Action whose generators are fixed words in a carrier action.

    Generator k applies words[k-1] (leftmost letter last); its inverse
    applies the reversed, negated word.  An empty word list is allowed
    and yields the action with no generators (every set is invariant).
    Translation vectors are propagated as the net displacement of each
    word when the carrier itself acts by translations.
    """
    word_list = tuple(tuple(w) for w in words)
    for w in word_list:
        for letter in w:
            carrier.check_generator(letter)
    inverses = tuple(tuple(-g for g in reversed(w)) for w in word_list)

    def apply_fn(g: int, x: Any) -> Any:
        w = word_list[g - 1] if g > 0 else inverses[-g - 1]
        for letter in reversed(w):
            x = carrier.apply_fn(letter, x)
        return x

    vectors = None
    if carrier.translation_vectors is not None:
        vectors = tuple(net_displacement(carrier, w) for w in word_list)

    return GroupAction(
        name=name or f"words({len(word_list)} over {carrier.name})",
        generator_count=len(word_list),
        origin=carrier.origin,
        apply_fn=apply_fn,
        sort_key=carrier.sort_key,
        encode_fn=carrier.encode_fn,
        translation_vectors=vectors,
    )


# ---------------------------------------------------------------------------
# coset translation duality for finite permutation groups


def permutation_compose(p: tuple, q: tuple) -> tuple:
    """(p * q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def permutation_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def generate_group(generators: Iterable[tuple]) -> frozenset:
    """Close a set of permutations under composition, up to MAX_GROUP_ORDER elements."""
    gens = [tuple(p) for p in generators]
    if not gens:
        raise InputError("a permutation group needs at least one generator")
    degree = len(gens[0])
    for k, p in enumerate(gens):
        _check_permutation(p, degree, f"generator {k + 1}")
    seen = bfs_depths(
        [tuple(range(degree))], lambda x: [permutation_compose(p, x) for p in gens],
        max_points=MAX_GROUP_ORDER,
        overflow=lambda _d: f"group order exceeds {MAX_GROUP_ORDER}",
    )
    return frozenset(seen)


@dataclass(frozen=True)
class CosetDualityReport:
    group_order: int
    subgroup_order: int
    left_coset_count: int
    right_coset_count: int
    bijective: bool
    equivariant: bool

    @property
    def ok(self) -> bool:
        return (
            self.bijective
            and self.equivariant
            and self.left_coset_count == self.right_coset_count
            and self.left_coset_count * self.subgroup_order == self.group_order
        )


def coset_duality_check(
    group_generators: Iterable[tuple],
    subgroup_generators: Iterable[tuple],
) -> CosetDualityReport:
    """Check that inversion swaps the left and right coset translation actions.

    The left action sends a coset sH to (g s)H, the right action sends
    Hs to H(s g^{-1}).  The map sH -> H s^{-1} must be a bijection that
    intertwines the two; this is verified exhaustively.
    """
    G = generate_group(group_generators)
    H = generate_group(subgroup_generators)
    if not H <= G:
        raise InputError("subgroup generators leave the ambient group")

    left_cosets = {frozenset(permutation_compose(s, h) for h in H) for s in G}
    right_cosets = {frozenset(permutation_compose(h, s) for h in H) for s in G}

    def invert_coset(coset: frozenset) -> frozenset:
        return frozenset(permutation_inverse(x) for x in coset)

    images = {invert_coset(c) for c in left_cosets}
    bijective = images == right_cosets and len(images) == len(left_cosets)

    equivariant = True
    gens = [tuple(p) for p in group_generators]
    for coset in left_cosets:
        rep = next(iter(coset))
        for g in gens:
            moved_left = frozenset(permutation_compose(g, x) for x in coset)
            lhs = invert_coset(moved_left)
            g_inv = permutation_inverse(g)
            rhs = frozenset(
                permutation_compose(x, g_inv) for x in invert_coset(coset)
            )
            if lhs != rhs:
                equivariant = False
                break
        if not equivariant:
            break

    return CosetDualityReport(
        group_order=len(G),
        subgroup_order=len(H),
        left_coset_count=len(left_cosets),
        right_coset_count=len(right_cosets),
        bijective=bijective,
        equivariant=equivariant,
    )


def all_subgroups(group_generators: Iterable[tuple]) -> list[frozenset]:
    """All subgroups reachable from one or two group elements.

    Every subgroup of the small symmetric groups used in the test-suite is
    generated by at most two elements, so pair closures enumerate them all.
    """
    G = sorted(generate_group(group_generators))
    found: set[frozenset] = set()
    for a in G:
        found.add(generate_group([a]))
    for a, b in itertools.combinations(G, 2):
        found.add(generate_group([a, b]))
    return sorted(found, key=lambda s: (len(s), sorted(s)))
