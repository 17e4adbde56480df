"""Weighted graphs as discrete spaces, voltage covers, tilings, cutoffs.

The discrete model: a finite connected graph with vertex measure mu and
edge conductances w carries the quadratic form

    Q(f) = sum_edges w(e) (f(u) - f(v))^2  +  a * sum_v V(v) f(v)^2 mu(v).

A voltage cover assigns a word in a group action's generators to each
base edge; cover vertices are (base vertex, fiber point) pairs, and each
fiber point indexes one tile, a full copy of the base vertex set.  Each
edge moves fiber points by one generator of the cover's fiber action; on
a translation fiber, words of equal displacement are one generator.  The
cover is enumerated lazily around the origin tile, never materialized.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Iterable, KeysView, Mapping, Sequence

from .actions import (
    DEFAULT_POINT_BUDGET,
    GroupAction,
    _apply_word,
    _inverse,
    bfs_depths,
    word_action,
)
from .errors import (BudgetExceededError, InputError, NumericalError, _check_int, _check_real,
                     _echo)


def checked_fsum(terms: Iterable[float], name: str) -> float:
    """fsum of the terms, or a NumericalError naming the sum when it leaves
    float range: fsum raises OverflowError once a partial sum does, even
    if every term is finite, and ValueError on inf - inf."""
    try:
        return fsum(terms)
    except (OverflowError, ValueError):
        raise NumericalError(f"{name} overflows float range") from None


class WeightedGraph:
    """Finite connected simple graph with mu > 0 and conductances w > 0.

    Vertices are 0..n-1.  Edges are stored canonically as (u, v, w) with
    u < v; loops and parallel edges are rejected, as is any graph that
    is not connected.
    """

    def __init__(self, mu: Sequence, edges: Iterable[tuple]):
        self.mu = tuple(_check_real(m, f"mu[{i}]", positive=True) for i, m in enumerate(mu))
        n = len(self.mu)
        if n == 0:
            raise InputError("a graph needs at least one vertex")
        canon = {}
        for k, edge in enumerate(edges):
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {k} is not a (u, v, w) triple: {_echo(edge)}") from None
            u, v = (_check_int(x, f"edge {k} endpoint", 0, n - 1) for x in (u, v))
            if u == v:
                raise InputError(f"edge {k} is a loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in canon:
                raise InputError(f"duplicate edge between {key[0]} and {key[1]}")
            canon[key] = _check_real(w, f"w[{k}]", positive=True)
        self.edges = tuple((u, v, canon[(u, v)]) for (u, v) in sorted(canon))
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self._adjacency = tuple(tuple(sorted(row)) for row in adj)
        seen = bfs_depths([0], lambda x: [y for y, _w in self._adjacency[x]])
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen.keys())
            raise InputError(f"graph is not connected; unreachable vertices {missing}")

    @property
    def vertex_count(self) -> int:
        return len(self.mu)

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        return self._adjacency[v]

    def weighted_degree(self, v: int) -> float:
        return checked_fsum((w for _u, w in self._adjacency[v]),
                            f"weighted degree of vertex {v}")


def _per_vertex(values, graph: WeightedGraph, label: str, noun: str) -> tuple[float, ...]:
    """One checked finite real per base vertex: entry i is label[i], and
    a wrong length is refused as '<noun> has N entries for M vertices'."""
    vec = tuple(_check_real(x, f"{label}[{i}]") for i, x in enumerate(values))
    if len(vec) != graph.vertex_count:
        raise InputError(f"{noun} has {len(vec)} entries for {graph.vertex_count} vertices")
    return vec


def as_potential(V, graph: WeightedGraph) -> tuple[float, ...]:
    """V as one checked finite real per base vertex."""
    return _per_vertex(V, graph, "V", "potential")


class CompactFunction:
    """Finitely supported real function; exact zeros are dropped."""

    def __init__(self, values: Mapping):
        clean = {}
        for point, value in values.items():
            x = _check_real(value, f"function value at {_echo(point)}")
            if x != 0.0:
                clean[point] = x
        self.values = clean
        self.support = clean.keys()  # a view, not a copy

    def __call__(self, point) -> float:
        return self.values.get(point, 0.0)


# ---------------------------------------------------------------------------
# voltage covers


class VoltageCover:
    """Cover of a finite base graph driven by edge voltages.

    Vertices are (v, x) with v a base vertex and x a carrier point; the
    base edge {u, v} (u < v) with voltage word s joins (u, x) to
    (v, s.x) for every fiber point x.  Tiles are indexed by fiber
    points: tile(x) = {(v, x) : v in base}.  fiber_action has one
    generator per distinct word up to inverses (per distinct net
    displacement on a translation carrier), and neighbors moves fiber
    points only through it.  Build through build_cover, which validates
    the voltages and gauges them on a spanning tree.
    """

    def __init__(self, base: WeightedGraph, carrier: GroupAction,
                 voltages: Mapping[tuple[int, int], tuple[int, ...]]):
        self.base = base
        self.carrier = carrier
        self.voltages = dict(voltages)
        # One fiber generator per distinct voltage word up to inverses, so
        # two tiles are adjacent exactly when a generator maps one to the
        # other; signed[(u, v)] moves the u-side fiber point to the v side.
        words = []
        generator_of: dict = {}
        signed: dict[tuple[int, int], int] = {}
        for u, v, _w in base.edges:
            word = self.voltages.get((u, v))
            if not word:
                continue
            marker = self._word_marker(word)
            inverse = self._word_marker(_inverse(word))
            if marker in generator_of:
                g = generator_of[marker]
            elif inverse in generator_of:
                g = -generator_of[inverse]
            else:
                words.append(word)
                g = generator_of[marker] = len(words)
            signed[(u, v)], signed[(v, u)] = g, -g
        self.fiber_action = word_action(carrier, words, name=f"fiber({carrier.name})")
        self._stencil = tuple(
            tuple((u, w, signed.get((v, u), 0)) for u, w in base.neighbors(v))
            for v in range(base.vertex_count)
        )
        self._ball_cache: dict = {}

    # -- canonical ordering ------------------------------------------------

    def sort_key(self, p) -> tuple:
        v, x = p
        return (v, self.carrier.sort_key(x))

    def encode(self, p) -> str:
        v, x = p
        return f"{v}@{self.carrier.encode_fn(x)}"

    # -- structure ---------------------------------------------------------

    def tile(self, x) -> tuple:
        return tuple((v, x) for v in range(self.base.vertex_count))

    def neighbors(self, p) -> list[tuple[tuple, float]]:
        v, x = p
        move = self.fiber_action.apply_fn
        return [((u, move(g, x) if g else x), w) for u, w, g in self._stencil[v]]

    def _word_marker(self, word: tuple[int, ...]):
        if self.carrier.translation_vectors is None:
            return word
        return _apply_word(self.carrier, word, self.carrier.origin)

    def ball(self, radius: int) -> tuple:
        """Cover vertices within hop-radius of the origin tile, sorted.

        Past DEFAULT_POINT_BUDGET vertices it raises BudgetExceededError.
        Results are memoized by radius; a ball over budget raises before
        it is stored.
        """
        radius = _check_int(radius, "radius", 0)  # before the memo, where True == 1
        hit = self._ball_cache.get(radius)
        if hit is not None:
            return hit
        seen = bfs_depths(
            self.tile(self.carrier.origin), lambda p: [q for q, _w in self.neighbors(p)],
            radius, DEFAULT_POINT_BUDGET,
            lambda d: f"cover window exceeded {DEFAULT_POINT_BUDGET} vertices at hop {d}",
        )
        result = tuple(sorted(seen, key=self.sort_key))
        self._ball_cache[radius] = result
        return result


def build_cover(base: WeightedGraph, carrier: GroupAction,
                voltages: Mapping[tuple[int, int], Iterable[int]]) -> VoltageCover:
    """Assemble a voltage cover in the gauge of a spanning tree T.

    Voltages are given per base edge (either orientation; the reversed
    orientation gets the inverted word) as words in the carrier's
    generators, at most one per edge.  T comes from a 0/1 breadth-first
    search from vertex 0 over the sorted adjacency, an edge without a
    voltage weighing 0, so T keeps to such edges whenever they span the
    base.  With p_v the word of the T-path from 0 to v, a non-tree edge
    (u, v) with word s carries inverse(p_v) + s + p_u, a tree edge none.
    (v, x) -> (v, p_v^-1 x) maps the origin tile's component onto the
    cover, so it is connected: an input whose derived graph falls apart
    is read as that component (a voltage on a bridge gives the base).
    """
    canon: dict[tuple[int, int], tuple[int, ...]] = {}
    edge_set = {(u, v) for u, v, _w in base.edges}
    for key, word in voltages.items():
        try:
            u, v = key
        except (TypeError, ValueError):
            raise InputError(f"voltage key {_echo(key)} is not a vertex pair") from None
        word = tuple(carrier.check_generator(letter) for letter in word)
        if (u, v) in edge_set:
            cu, cv, cword = u, v, word
        elif (v, u) in edge_set:
            cu, cv, cword = v, u, _inverse(word)
        else:
            raise InputError(f"voltage on nonexistent edge {_echo(key)}")
        if (cu, cv) in canon:
            raise InputError(f"duplicate voltage for edge ({cu}, {cv})")
        canon[(cu, cv)] = cword
    paths, tree = {}, set()
    queue = deque([(0, (), None)])  # (vertex, path word, tree edge reaching it)
    while queue:
        v, path, edge = queue.popleft()
        if v in paths:
            continue
        paths[v] = path
        tree.add(edge)
        for u, _w in base.neighbors(v):
            key = (min(u, v), max(u, v))
            word = canon.get(key, ())
            (queue.append if word else queue.appendleft)(
                (u, (word if v < u else _inverse(word)) + path, key))
    gauged = {(u, v): _inverse(paths[v]) + canon.get((u, v), ()) + paths[u]
              for u, v, _w in base.edges if (u, v) not in tree}
    return VoltageCover(base, carrier, {edge: word for edge, word in gauged.items() if word})


@dataclass(frozen=True)
class CutoffFunction:
    """Ramp of width alpha from the rim of Omega toward its interior.

    values hold exact fractions min(1, d(p, complement)/alpha) for p in
    Omega and are absent (zero) outside, so the edge Lipschitz bound
    1/alpha holds exactly by construction; omega is a live view of
    their keys.  collar_tiles contains every tile with a strictly
    intermediate value and every tile on either side of an edge where
    the ramp changes, including tiles outside the member set.
    """

    members: tuple
    values: Mapping
    omega: KeysView
    collar_tiles: frozenset

    def __call__(self, p) -> Fraction:
        return self.values.get(p, Fraction(0))


def _rim_sweep(cover: VoltageCover, member_list: tuple, alpha: int):
    """Depth-alpha BFS inward from the rim of Omega, over tile indices.

    Vertex (v, member_list[i]) gets the id i * nv + v.  Each signed
    fiber generator of the stencil moves each member tile once, into
    moved[g][i]: the index of the tile it lands on, or -1 when that tile
    is outside the set.  A vertex is on the rim when one of its
    generators leaves the set.  Returns (depth, reached, owned):
    depth[id] is the hop distance to the complement, 0 where the sweep
    stopped short at depth alpha; reached lists, read from depth, the
    member tiles it reached; owned[g] lists the member indices i that
    own the outside tile g.x_i.  Generators are swept in stencil order,
    and (g, i) owns g.x_i unless the inverse of a generator swept before
    g maps g.x_i back into the set, in which case an earlier pair
    already owns it.  So the owned pairs are exactly the distinct
    non-member tiles joined to Omega by an edge, counted without holding
    any of them, each at the cost of at most k - 1 inverse moves for k
    signed fiber generators.  The sweep ends early once its frontier is
    empty, so its work is bounded by the set, not by alpha.  A set whose
    vertex count len(member_list) * nv exceeds DEFAULT_POINT_BUDGET is
    refused with BudgetExceededError before anything is allocated; with
    no outside tile held, that count bounds the sweep's whole state.
    """
    if not member_list:
        raise InputError("cutoff needs a nonempty tile set")
    alpha = _check_int(alpha, "alpha", 1, DEFAULT_POINT_BUDGET)
    nv = cover.base.vertex_count
    size = len(member_list) * nv
    if size > DEFAULT_POINT_BUDGET:
        raise BudgetExceededError(
            f"cutoff over {len(member_list)} tiles of {nv} vertices holds {size} "
            f"vertices, above the point budget {DEFAULT_POINT_BUDGET}",
            partial_count=size,
        )
    index = {x: i for i, x in enumerate(member_list)}
    move = cover.fiber_action.apply_fn
    users: dict[int, list[int]] = {}  # signed generator -> base vertices it leaves from
    for v, row in enumerate(cover._stencil):
        for _u, _w, g in row:
            users.setdefault(g, []).append(v)

    depth = [0] * size
    # frontier[v] lists the tile indices i of the frontier vertices (v, i)
    frontier: list[list[int]] = [[] for _ in range(nv)]
    owned: dict[int, array] = {}
    inverses: list[int] = []  # inverses of the generators swept so far
    moved_by: dict[int, Sequence[int]] = {}
    for g, sources in users.items():
        if not g:
            moved_by[g] = range(len(member_list))
            continue
        moved = []
        owners = owned[g] = array("q")
        for i, x in enumerate(member_list):
            x = move(g, x)
            j = index.get(x, -1)
            if j < 0:
                for h in inverses:
                    if move(h, x) in index:
                        break
                else:
                    owners.append(i)
                for v in sources:
                    p = i * nv + v
                    if not depth[p]:
                        depth[p] = 1
                        frontier[v].append(i)
            moved.append(j)
        moved_by[g] = moved
        inverses.append(-g)
    steps = [[(u, moved_by[g]) for u, _w, g in row] for row in cover._stencil]

    for d in range(2, alpha + 1):
        if not any(frontier):
            break
        nxt: list[list[int]] = [[] for _ in range(nv)]
        for v, tiles in enumerate(frontier):
            for u, moved in steps[v]:
                out = nxt[u]
                for i in tiles:
                    j = moved[i]
                    if j >= 0 and not depth[j * nv + u]:
                        depth[j * nv + u] = d
                        out.append(j)
        frontier = nxt
    reached = [i for i, tile in enumerate(zip(*[iter(depth)] * nv)) if any(tile)]
    return depth, reached, owned


def cutoff(cover: VoltageCover, members: Iterable, alpha: int) -> CutoffFunction:
    """Cutoff xi(p) = min(1, hop_dist(p, complement of Omega)/alpha).

    The sorted member tiles are indexed once, and a table moved[g][i]
    holds the index of the tile that each signed fiber generator moves
    tile i to (-1 outside the set), so each generator moves each member
    tile once.  The BFS from the rim runs over integer vertex ids through
    that table (see _rim_sweep); only its result is turned back into
    (vertex, tile) pairs.  Each outside collar tile is rebuilt from the
    one pair (g, i) that owns it, with one move; finding the owners took
    at most k - 1 inverse moves per outside pair, for k signed fiber
    generators.
    """
    member_list = tuple(sorted(set(members), key=cover.carrier.sort_key))
    depth, reached, owned = _rim_sweep(cover, member_list, alpha)
    nv = cover.base.vertex_count
    move = cover.fiber_action.apply_fn
    # depth 0 marks a vertex deeper than alpha, which reads full height
    levels = [Fraction(1)] + [Fraction(k, alpha) for k in range(1, max(depth) + 1)]
    values = {
        (v, x): levels[depth[i * nv + v]]
        for i, x in enumerate(member_list)
        for v in range(nv)
    }
    # The ramp changes across an edge exactly when it leaves Omega from the
    # rim or joins reached vertices on different levels (an unreached vertex
    # and its reached neighbors, stopped at depth alpha, all read 1).  Every
    # reached vertex has such an edge: to the outside at depth 1, to the
    # vertex that reached it at depth d > 1.  So the collar is the reached
    # tiles plus the outside tiles along the rim.
    collar = [member_list[i] for i in reached]
    collar += (move(g, member_list[i]) for g, owners in owned.items() for i in owners)
    return CutoffFunction(
        members=member_list,
        values=values,
        omega=values.keys(),
        collar_tiles=frozenset(collar),
    )


def collar_counts(cover: VoltageCover, members: Iterable, alpha: int) -> tuple[int, int]:
    """(b, c) of cutoff(cover, members, alpha), without building the cutoff.

    b counts the collar tiles and c the member tiles, from the same sweep
    that cutoff reads; no values, Omega or collar tile set is built, and
    no outside tile is held: each is counted once, at the pair (g, i)
    that owns it (see _rim_sweep), for at most k - 1 inverse moves per
    outside pair, k the number of signed fiber generators.
    """
    member_list = tuple(set(members))
    _depth, reached, owned = _rim_sweep(cover, member_list, alpha)
    return sum(map(len, owned.values())) + len(reached), len(member_list)


def cover_form_parts(cover: VoltageCover, V, a: float, func: CompactFunction) -> tuple[float, float]:
    """(gradient part, signed potential part including a) of the cover form.

    Sums run over the support and each edge touching it once, an edge
    inside the support from its end over the smaller base vertex (no
    cover edge joins two over one base vertex).  The term order is free:
    fsum is correctly rounded, and (f(p) - f(q))^2 == (f(q) - f(p))^2.
    """
    pot = as_potential(V, cover.base)
    mu = cover.base.mu
    values = func.values

    def grad_terms():
        for p, fp in values.items():
            for q, w in cover.neighbors(p):
                if p[0] < q[0] or q not in values:
                    yield w * (fp - values.get(q, 0.0)) ** 2

    grad = checked_fsum(grad_terms(), "gradient part of the cover form")
    pot_term = checked_fsum((pot[v] * fp ** 2 * mu[v] for (v, _x), fp in values.items()),
                            "potential part of the cover form")
    return grad, a * pot_term

