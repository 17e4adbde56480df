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

from .errors import BudgetExceededError, InputError, _check_int, _echo

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
    of_words(name, words), set only by each family's private constructor,
    returns that family's action whose generator k applies words[k-1] in
    one step, each word composed once.  translation_vectors, read by the
    Folner search, is set only where every generator adds a fixed vector.
    """

    name: str
    generator_count: int
    origin: Any
    apply_fn: Callable[[int, Any], Any] = field(repr=False)
    sort_key: Callable[[Any], Any] = field(repr=False)
    encode_fn: Callable[[Any], str] = field(repr=False)
    of_words: Callable[[str, tuple], GroupAction] = field(repr=False)
    translation_vectors: tuple[tuple[int, ...], ...] | None = None

    def generators(self) -> tuple[int, ...]:
        """All signed generator ids, inverses included."""
        n = self.generator_count
        return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))

    def check_generator(self, g: int) -> int:
        """g as an int, refused unless it is a signed generator id."""
        g = _check_int(g, "generator id")
        if g == 0 or abs(g) > self.generator_count:
            raise InputError(
                f"generator id {_echo(g)} out of range for {self.name} "
                f"(expected nonzero integer with |g| <= {self.generator_count})"
            )
        return g


@dataclass(frozen=True)
class OrbitGraph:
    """The points within a hop radius of a center, sorted by the action's key."""

    points: tuple


def bfs_depths(roots: Iterable, step: Callable[[Any], Iterable], radius: int | None = None,
               max_points: int | None = None, overflow: Callable[[int], str] | None = None) -> dict:
    """Hop depth of each point within radius of the roots (radius None: the
    closure; else an integer of at least 0, checked before any step).

    step(x) lists the neighbors of x; points are keyed in the order reached.
    Past max_points points it raises BudgetExceededError(overflow(d)), d
    the hop of the point that overflowed, with the count reached so far.
    """
    if radius is not None:
        radius = _check_int(radius, "radius", 0)
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
    seen = bfs_depths(
        [center], _action_step(action), radius, max_points,
        lambda d: f"orbit ball around {action.encode_fn(center)} exceeded "
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


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a word: its letters reversed, each one inverted."""
    return tuple(-g for g in reversed(word))


def _apply_word(action: GroupAction, word: tuple[int, ...], x: Any) -> Any:
    """x moved by a word, rightmost letter first; composes words at build time."""
    for letter in reversed(word):
        x = action.apply_fn(letter, x)
    return x


def _translation_action(name: str, dimension: int,
                        vectors: tuple[tuple[int, ...], ...]) -> GroupAction:
    """Z^dimension with generator k adding vectors[k-1]; apply_fn is built
    from translation_vectors and adds only each vector's nonzero entries."""
    steps = {}
    for k, v in enumerate(vectors, 1):
        steps[k] = tuple((i, c) for i, c in enumerate(v) if c)
        steps[-k] = tuple((i, -c) for i, c in steps[k])

    def apply_fn(g: int, x: tuple) -> tuple:
        y = list(x)
        for i, c in steps[g]:
            y[i] += c
        return tuple(y)

    action = GroupAction(
        name=name,
        generator_count=len(vectors),
        origin=(0,) * dimension,
        apply_fn=apply_fn,
        sort_key=lambda x: x,
        encode_fn=_tuple_encode,
        of_words=lambda label, word_list: _translation_action(
            label, dimension, tuple(_apply_word(action, w, action.origin) for w in word_list)),
        translation_vectors=vectors,
    )
    return action


def lattice_action(dimension: int) -> GroupAction:
    """Z^n acting on itself; generator i translates coordinate i by one.
    Its apply_fn is built from translation_vectors, the standard basis."""
    dimension = _check_int(dimension, "lattice dimension", 1, MAX_LATTICE_DIMENSION)
    basis = tuple((0,) * i + (1,) + (0,) * (dimension - 1 - i) for i in range(dimension))
    return _translation_action(f"lattice({dimension})", dimension, basis)


def _free_action(name: str, words: tuple[tuple[int, ...], ...]) -> GroupAction:
    """A free group acting on its reduced words; generator k multiplies on
    the left by the reduced word words[k-1]."""
    # only a point starting with -u[-1] cancels against u; no point starts with 0
    moves = {g: (u, -u[-1] if u else 0) for k, w in enumerate(words, 1)
             for g, u in ((k, w), (-k, _inverse(w)))}

    def apply_fn(g: int, x: tuple) -> tuple:
        u, cancel = moves[g]
        if not x or x[0] != cancel:
            return u + x
        i, n = 1, min(len(u), len(x))
        while i < n and x[i] == -u[-1 - i]:
            i += 1
        return u[:len(u) - i] + x[i:]

    action = GroupAction(
        name=name,
        generator_count=len(words),
        origin=(),
        apply_fn=apply_fn,
        sort_key=lambda w: (len(w), w),
        encode_fn=_tuple_encode,
        of_words=lambda label, word_list: _free_action(
            label, tuple(_apply_word(action, w, ()) for w in word_list)),
    )
    return action


def free_group_action(rank: int) -> GroupAction:
    """The free group on `rank` letters acting on itself by left multiplication.

    Points are reduced words, tuples of signed letter ids; a word action
    over it multiplies a point by each word's reduced product in one step."""
    rank = _check_int(rank, "free group rank", 1, MAX_LATTICE_DIMENSION)
    return _free_action(f"free({rank})", tuple((k,) for k in range(1, rank + 1)))


def _check_permutation(perm: tuple, degree: int, label: str) -> None:
    # the length first, so a huge degree never builds its range
    if len(perm) != degree or sorted(perm) != list(range(degree)):
        raise InputError(f"{label} is not a permutation of 0..{degree - 1}: {_echo(perm)}")


def _permutation_action(name: str, degree: int, perms: tuple[tuple, ...]) -> GroupAction:
    """{0..degree-1} with generator k looking x up in the table perms[k-1]."""
    tables = {}
    for k, p in enumerate(perms, 1):
        tables[k], tables[-k] = p, permutation_inverse(p)

    action = GroupAction(
        name=name,
        generator_count=len(perms),
        origin=0,
        apply_fn=lambda g, x: tables[g][x],
        sort_key=lambda x: x,
        encode_fn=str,
        of_words=lambda label, word_list: _permutation_action(label, degree, tuple(
            tuple(_apply_word(action, w, x) for x in range(degree)) for w in word_list)),
    )
    return action


def finite_permutation_action(perms: Iterable[tuple], degree: int) -> GroupAction:
    """An action on {0..degree-1} generated by explicit permutations; a word
    action over it moves a point by one lookup in the word's composed table."""
    gens = tuple(tuple(p) for p in perms)
    degree = _check_int(degree, "degree", 1)
    for k, p in enumerate(gens):
        _check_permutation(p, degree, f"generator {k + 1}")
    return _permutation_action(f"perm(degree={degree},gens={len(gens)})", degree, gens)


def free_quotient_lattice_action(vectors: Iterable[tuple]) -> GroupAction:
    """Coset action of a free group on a lattice.

    Generator k of the free group acts on Z^d by translation with
    vectors[k-1].  Zero vectors are allowed (that generator acts as the
    identity), which is how amenable actions of nonamenable groups are
    built here.  Both the vector count and the dimension are capped at
    MAX_LATTICE_DIMENSION, as the lattice dimension and free rank are.
    Its apply_fn is built from translation_vectors, the vectors given.
    Its name lists the vectors while that takes at most 200 characters,
    and past that gives their count and dimension.
    """
    vecs = tuple(tuple(_check_int(c, f"vectors[{k}][{i}]") for i, c in enumerate(v))
                 for k, v in enumerate(vectors))
    if not vecs:
        raise InputError("at least one generator vector is required")
    dim = len(vecs[0])
    if dim < 1 or any(len(v) != dim for v in vecs):
        raise InputError(f"generator vectors must share a positive dimension: {_echo(vecs)}")
    if max(len(vecs), dim) > MAX_LATTICE_DIMENSION:
        raise InputError(
            f"quotient takes at most {MAX_LATTICE_DIMENSION} vectors of dimension at most "
            f"{MAX_LATTICE_DIMENSION}, got {len(vecs)} of dimension {dim}"
        )
    name = f"free_quotient({vecs})"
    if len(name) > 200:
        name = f"free_quotient({len(vecs)} vectors of dimension {dim})"
    return _translation_action(name, dim, vecs)


def word_action(
    carrier: GroupAction,
    words: Iterable[tuple[int, ...]],
    name: str | None = None,
) -> GroupAction:
    """Action whose generators are fixed words in a carrier action.

    Generator k applies words[k-1] (leftmost letter last); its inverse
    applies the reversed, negated word.  An empty word list is allowed
    and yields the action with no generators (every set is invariant).
    carrier.of_words builds it in the carrier's family, composing each
    word once (a net displacement, a reduced word or a table), so every
    generator moves a point in one step.
    """
    word_list = tuple(tuple(carrier.check_generator(letter) for letter in w) for w in words)
    return carrier.of_words(name or f"words({len(word_list)} over {carrier.name})", word_list)


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
