import pytest

import coverlab.spectrum as spectrum_module
import coverlab.transfer as transfer_module
from coverlab import (
    SearchBudget,
    WeightedGraph,
    build_cover,
    finite_permutation_action,
    free_group_action,
    lattice_action,
    search_folner,
)

# a search budget under which the transfer's search on the 3-regular tree
# cover exhausts in well under a second
TREE_BUDGET = SearchBudget(max_radius=3, subset_size_cap=10, max_subsets=20000)


@pytest.fixture
def capped_probes(monkeypatch):
    """Fail, rather than spin, once the bisections take over 200 sign probes.

    Each endpoint's bracket takes at most 22 probes: a = 1, twelve gallop
    steps over the exponents and nine bisection steps between them (15
    for the triangle's -1e-20 entry).  Then it takes under 70 halvings
    for any tolerance down to 1e-20.
    """
    real = spectrum_module._is_nonnegative
    count = [0]

    def capped(op, a, seed):
        count[0] += 1
        assert count[0] <= 200, "the bisection does not stop"
        return real(op, a, seed)

    monkeypatch.setattr(spectrum_module, "_is_nonnegative", capped)


@pytest.fixture
def tree_search_budget(monkeypatch):
    """Hold every Folner search of the transfer to TREE_BUDGET, since the
    transfer task and interval_comparison take no budget."""
    def held(action, epsilon, _budget):
        return search_folner(action, epsilon, TREE_BUDGET)

    monkeypatch.setattr(transfer_module, "search_folner", held)


@pytest.fixture
def triangle():
    return WeightedGraph([1.0, 1.0, 1.0], [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


@pytest.fixture
def k4():
    return WeightedGraph(
        [1.0] * 4,
        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
    )


@pytest.fixture
def triangle_cover(triangle):
    """Triangle unrolled along Z through one voltaged edge."""
    return build_cover(triangle, lattice_action(1), [(0, 1, (1,))])


@pytest.fixture
def tree_cover(k4):
    """K4 with the three non-tree edges voltaged freely: the 3-regular tree."""
    return build_cover(
        k4, free_group_action(3), [(1, 2, (1,)), (1, 3, (2,)), (2, 3, (3,))]
    )


@pytest.fixture
def trivial_cover(triangle):
    """A one-point fiber: the cover is the base itself."""
    return build_cover(triangle, finite_permutation_action([], 1), [])
