"""Group actions: round-trips, balls, boundaries, coset duality."""

import random

import pytest

import coverlab.actions as actions
from coverlab import (
    BudgetExceededError,
    InputError,
    all_subgroups,
    boundary,
    coset_duality_check,
    finite_permutation_action,
    free_group_action,
    free_quotient_lattice_action,
    generate_group,
    lattice_action,
    orbit_ball,
    word_action,
)
from coverlab.actions import bfs_depths, permutation_compose, permutation_inverse
from coverlab.errors import _echo
from oracles import apply, apply_word

S3_GENS = [(1, 0, 2), (1, 2, 0)]
S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]


def test_generator_listing_order():
    act = lattice_action(2)
    assert act.generators() == (1, 2, -1, -2)
    with pytest.raises(InputError):
        act.check_generator(3)
    with pytest.raises(InputError):
        act.check_generator(0)


def test_lattice_round_trips():
    act = lattice_action(3)
    p = (4, -7, 2)
    for g in act.generators():
        assert apply(act, -g, apply(act, g, p)) == p
    assert act.encode_fn(p) == "4,-7,2"
    assert apply(word_action(act, [(1, 2, -1)]), 1, p) == (4, -6, 2)


def test_free_group_reduction():
    act = free_group_action(2)
    # leftmost letter acts last: word (1, 2) maps w to g1 g2 w
    words = word_action(act, [(1, 2)])
    w = apply(words, 1, act.origin)
    assert w == (1, 2)
    assert apply(act, -1, w) == (2,)
    assert apply(words, -1, w) == act.origin
    # cancellation happens at the prepend site
    assert apply(act, 1, (-1, 2)) == (2,)


def test_permutation_action_and_helpers():
    act = finite_permutation_action(S3_GENS, 3)
    assert apply(act, 1, 0) == 1
    assert apply(act, -1, apply(act, 1, 2)) == 2
    p, q = (1, 2, 0), (1, 0, 2)
    comp = permutation_compose(p, q)
    assert comp == tuple(p[q[i]] for i in range(3))
    assert permutation_compose(p, permutation_inverse(p)) == (0, 1, 2)


def test_quotient_lattice_action_zero_vector():
    act = free_quotient_lattice_action([(1,), (0,)])
    assert act.generator_count == 2
    assert apply(act, 1, (5,)) == (6,)
    assert apply(act, 2, (5,)) == (5,)
    assert act.translation_vectors == ((1,), (0,))


def test_word_action_composes_words():
    base = lattice_action(1)
    act = word_action(base, [(1, 1), (-1,)])
    assert apply(act, 1, (0,)) == (2,)
    assert apply(act, 2, (0,)) == (-1,)
    assert apply(act, -1, (2,)) == (0,)


TRANSLATION_CARRIERS = {
    "lattice1": lattice_action(1),
    "lattice2": lattice_action(2),
    "lattice3": lattice_action(3),
    "zero": free_quotient_lattice_action([(1, 0), (0, 0)]),
    "repeated": free_quotient_lattice_action([(1, 1), (1, 1)]),
    "non_primitive": free_quotient_lattice_action([(2, 4), (0, 3)]),
    "negative": free_quotient_lattice_action([(-1, 2), (3, -5)]),
}
# multi-letter, repeated-letter, cancelling, non-reduced and repeated
# words; on a one-generator carrier the letter 2 folds onto 1
CONTRACT_WORDS = [(1, 2, -1), (2, 2), (1, -1), (1, 2, -2), (1, 2, -1)]


def _contract_words(carrier):
    n = carrier.generator_count
    return [tuple(min(g, n) if g > 0 else max(g, -n) for g in w) for w in CONTRACT_WORDS]


def _signed_word(words, g):
    """Generator g's word: words[g-1], or for -g that word reversed and negated."""
    w = words[abs(g) - 1]
    return w if g > 0 else tuple(-c for c in reversed(w))


def _seeded_points(carrier, seed):
    rng = random.Random(seed)
    dim = len(carrier.origin)
    return [carrier.origin] + [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(8)]


def _assert_translation_contract(action, points, oracle=None):
    for g in action.generators():
        vector = action.translation_vectors[abs(g) - 1]
        sign = 1 if g > 0 else -1
        for x in points:
            y = action.apply_fn(g, x)
            assert y == tuple(c + sign * d for c, d in zip(x, vector))
            assert action.apply_fn(-g, y) == x
            if oracle is not None:
                assert y == oracle(g, x)


@pytest.mark.parametrize("key", sorted(TRANSLATION_CARRIERS))
def test_translation_carrier_moves_by_its_vectors(key):
    carrier = TRANSLATION_CARRIERS[key]
    _assert_translation_contract(carrier, _seeded_points(carrier, 0))


@pytest.mark.parametrize("key", sorted(TRANSLATION_CARRIERS))
def test_translation_word_action_moves_by_net_displacement_in_one_step(key):
    carrier = TRANSLATION_CARRIERS[key]
    words = _contract_words(carrier)
    act = word_action(carrier, words)
    assert act.generator_count == len(words)

    def through_carrier(g, x):
        return apply_word(carrier, _signed_word(words, g), x)

    _assert_translation_contract(act, _seeded_points(carrier, 1), through_carrier)
    # a cancelling word is the zero translation
    assert act.translation_vectors[2] == carrier.origin
    empty = word_action(carrier, [])
    assert empty.translation_vectors == ()
    assert empty.generators() == ()
    assert empty.origin == carrier.origin


def _reduced(word):
    """Free reduction with a stack: the reference for reduced-word moves."""
    out = []
    for c in word:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _free_points(rank, seed):
    rng = random.Random(seed)
    letters = [g for k in range(1, rank + 1) for g in (k, -k)]
    return [()] + [_reduced(rng.choices(letters, k=rng.randint(1, 8))) for _ in range(12)]


FIVE_GENS = [(1, 2, 3, 4, 0), (0, 1, 2, 4, 3), (0, 1, 2, 3, 4)]
# each carrier with its seeded points, and its tables for a permutation carrier
WORD_CARRIERS = {
    **{f"free{n}": (free_group_action(n), _free_points(n, n), None) for n in (1, 2, 3)},
    "s3": (finite_permutation_action(S3_GENS, 3), range(3), S3_GENS),
    "five": (finite_permutation_action(FIVE_GENS, 5), range(5), FIVE_GENS),
}


def _assert_word_contract(action, points, oracle):
    for g in action.generators():
        for x in points:
            y = action.apply_fn(g, x)
            assert y == oracle(g, x)
            assert action.apply_fn(-g, y) == x
            if action.origin == ():
                assert y == _reduced(y)


@pytest.mark.parametrize("key", sorted(WORD_CARRIERS))
def test_free_and_permutation_carriers_move_by_their_rule(key):
    carrier, points, tables = WORD_CARRIERS[key]

    def rule(g, x):
        if tables is None:
            return _reduced((g,) + x)
        table = tables[abs(g) - 1]
        return table[x] if g > 0 else table.index(x)

    _assert_word_contract(carrier, points, rule)


@pytest.mark.parametrize("key", sorted(WORD_CARRIERS))
def test_free_and_permutation_word_actions_move_by_the_composed_word(key):
    carrier, points, _tables = WORD_CARRIERS[key]
    words = _contract_words(carrier)
    act = word_action(carrier, words)
    assert act.generator_count == len(words)
    assert act.origin == carrier.origin
    assert [act.encode_fn(x) for x in points] == [carrier.encode_fn(x) for x in points]
    _assert_word_contract(act, points,
                          lambda g, x: apply_word(carrier, _signed_word(words, g), x))
    # a word action composes words over its own generators the same way
    outer = [(1, -2, 3), (4, 4), (-5,)]
    nested = word_action(act, outer)
    _assert_word_contract(nested, points,
                          lambda g, x: apply_word(act, _signed_word(outer, g), x))
    empty = word_action(carrier, [])
    assert empty.generators() == ()
    assert empty.origin == carrier.origin


def test_orbit_ball_sizes():
    assert len(orbit_ball(lattice_action(1), 5).points) == 11
    # diamond in Z^2: 2r^2 + 2r + 1
    assert len(orbit_ball(lattice_action(2), 3).points) == 25
    # 4-regular tree: 1 + 2 (3^r - 1)
    assert len(orbit_ball(free_group_action(2), 3).points) == 53


def test_lattice_dimension_limit():
    assert actions.MAX_LATTICE_DIMENSION == 1000
    # 1001 is refused before its 1001 x 1001 basis is built
    with pytest.raises(InputError, match="^lattice dimension: must be at most 1000, got 1001$"):
        lattice_action(1001)


def test_free_group_rank_limit():
    assert free_group_action(1000).generator_count == 1000
    with pytest.raises(InputError, match="^free group rank: must be at most 1000, got 1001$"):
        free_group_action(1001)


def test_quotient_vector_limits():
    assert free_quotient_lattice_action([(1,)] * 1000).generator_count == 1000
    assert free_quotient_lattice_action([(1,) * 1000]).origin == (0,) * 1000
    with pytest.raises(InputError, match=(
            r"^quotient takes at most 1000 vectors of dimension at most 1000, "
            r"got 1001 of dimension 1$")):
        free_quotient_lattice_action([(1,)] * 1001)
    with pytest.raises(InputError, match=(
            r"^quotient takes at most 1000 vectors of dimension at most 1000, "
            r"got 2 of dimension 1001$")):
        free_quotient_lattice_action([(1,) * 1001, (0,) * 1001])


def test_quotient_name_lists_its_vectors_only_while_short():
    # the bundled f2_on_z_folner and the benchmark's quotient_box keep their names
    assert free_quotient_lattice_action([(1,), (0,)]).name == "free_quotient(((1,), (0,)))"
    assert (free_quotient_lattice_action([(1, 0), (0, -1), (1, -1)]).name
            == "free_quotient(((1, 0), (0, -1), (1, -1)))")
    # 200 characters is the longest listed name
    listed = free_quotient_lattice_action([(1,)] * 29 + [(100000,)])
    assert len(listed.name) == 200
    assert listed.name.startswith("free_quotient(((1,), ")
    assert (free_quotient_lattice_action([(1,)] * 29 + [(1000000,)]).name
            == "free_quotient(30 vectors of dimension 1)")
    assert (free_quotient_lattice_action([(1,) * 1000] * 1000).name
            == "free_quotient(1000 vectors of dimension 1000)")


def ball_within(action, radius, points):
    """orbit_ball under a point budget of points instead of the default."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions, "DEFAULT_POINT_BUDGET", points)
        return orbit_ball(action, radius)


def test_orbit_ball_budget():
    with pytest.raises(BudgetExceededError) as err:
        ball_within(lattice_action(2), 50, 30)
    assert str(err.value) == "orbit ball around 0,0 exceeded 30 points at radius 4"
    assert err.value.partial_count > 30


def test_bfs_depths_from_several_roots():
    depths = bfs_depths([0, 5], lambda x: [x - 1, x + 1], radius=2)
    assert depths == {0: 0, 5: 0, -1: 1, 1: 1, 4: 1, 6: 1, -2: 2, 2: 2, 3: 2, 7: 2}


def test_bfs_depths_radius_cap_and_closure():
    def step(x):
        return [(x + 1) % 7, (x - 1) % 7]

    assert bfs_depths([0], step, radius=1) == {0: 0, 1: 1, 6: 1}
    assert bfs_depths([0], step, radius=0) == {0: 0}
    closure = bfs_depths([0], step)
    assert closure == {x: min(x, 7 - x) for x in range(7)}
    # a budget the closure fits in exactly is not exceeded
    assert bfs_depths([0], step, max_points=7) == closure


def test_bfs_depths_overflow_names_the_callers_message():
    with pytest.raises(BudgetExceededError, match="^walk passed 4 points at hop 2$") as err:
        bfs_depths([0], lambda x: [x + 1, x - 1], max_points=4,
                   overflow=lambda d: f"walk passed 4 points at hop {d}")
    assert err.value.partial_count == 5


def test_bfs_depths_counts_its_roots_against_the_budget():
    # ten roots overflow a budget of 3 before any step is taken
    def no_step(x):
        raise AssertionError("a root over budget was stepped from")

    with pytest.raises(BudgetExceededError, match="^10 roots at hop 0$") as err:
        bfs_depths(range(10), no_step, None, 3, lambda d: f"10 roots at hop {d}")
    assert err.value.partial_count == 10
    assert bfs_depths(range(3), lambda x: [], None, 3, None) == dict.fromkeys(range(3), 0)


def test_orbit_ball_center_needs_one_point_of_budget():
    with pytest.raises(BudgetExceededError) as err:
        ball_within(lattice_action(1), 0, 0)
    assert str(err.value) == "orbit ball around 0 exceeded 0 points at radius 0"
    assert err.value.partial_count == 1
    assert ball_within(lattice_action(1), 0, 1).points == {(0,)}


def test_boundary_of_interval():
    act = lattice_action(1)
    members = [(i,) for i in range(10)]
    assert boundary(act, members) == frozenset({(0,), (9,)})
    with pytest.raises(InputError):
        boundary(act, [])


def test_generate_group_s3_and_budget(monkeypatch):
    group = generate_group(S3_GENS)
    assert len(group) == 6
    monkeypatch.setattr(actions, "MAX_GROUP_ORDER", 10)
    with pytest.raises(BudgetExceededError, match="^group order exceeds 10$"):
        generate_group([tuple((i + 1) % 40 for i in range(40))])


def test_coset_duality_s3_transposition():
    report = coset_duality_check(S3_GENS, [(1, 0, 2)])
    assert report.group_order == 6
    assert report.subgroup_order == 2
    assert report.left_coset_count == 3
    assert report.right_coset_count == 3
    assert report.bijective and report.equivariant and report.ok


def test_coset_duality_reads_iterator_generators_once(monkeypatch):
    # a one-shot iterator read twice would leave the equivariance check no
    # generator to run on, and it would still report equivariant
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return permutation_compose(p, q)

    monkeypatch.setattr(actions, "permutation_compose", counting)
    counts = []
    for gens in (S3_GENS, iter(S3_GENS)):
        calls.clear()
        assert coset_duality_check(gens, [(1, 0, 2)]).ok
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_coset_duality_refuses_subgroup_generators_outside_the_group():
    with pytest.raises(InputError, match="^subgroup generators leave the ambient group$"):
        coset_duality_check([(1, 0, 2)], [(0, 2, 1)])


def test_all_subgroups_counts():
    assert len(all_subgroups(S3_GENS)) == 6
    assert len(all_subgroups(S4_GENS)) == 30


def test_all_subgroups_duality_smoke():
    for sub in all_subgroups(S3_GENS):
        report = coset_duality_check(S3_GENS, sorted(sub))
        assert report.ok


def test_echo_keeps_a_short_value_and_cuts_a_long_one():
    assert _echo("a" * 198) == repr("a" * 198)
    assert _echo("a" * 199) == "'" + "a" * 199 + "..."
    assert _echo(12, str) == "12"
    assert _echo(10**5000) == "<int past the int-to-str digit limit>"


@pytest.mark.parametrize("build, prefix", [
    (lambda: free_quotient_lattice_action([(1,) * 1000] * 999 + [(1,) * 999]),
     "generator vectors must share a positive dimension: ((1, 1, "),
    (lambda: finite_permutation_action([(0,) + tuple(range(1, 99_999)) + (0,)], 100_000),
     "generator 1 is not a permutation of 0..99999: (0, 1, 2, "),
])
def test_refusals_echo_a_bounded_prefix(build, prefix):
    # these echoed every entry: 3,002,048 and 688,936 characters
    with pytest.raises(InputError) as info:
        build()
    message = str(info.value)
    assert message.startswith(prefix)
    assert message.endswith("...")
    assert len(message) < 300
