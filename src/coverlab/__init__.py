"""Discrete laboratory for spectral positivity under graph coverings.

``actions``, ``errors`` and ``folner`` load with the package.
``geometry``, ``spectrum`` and ``transfer`` load lazily
(``importlib.util.LazyLoader``): each is in ``sys.modules`` from the
start, but its code runs only when one of its attributes is first read,
so a ``folner`` run, which needs none of them, never runs them.
"""

import importlib.util
import sys

from .actions import (
    CosetDualityReport,
    GroupAction,
    OrbitGraph,
    all_subgroups,
    boundary,
    coset_duality_check,
    free_group_action,
    free_quotient_lattice_action,
    finite_permutation_action,
    generate_group,
    lattice_action,
    orbit_ball,
    word_action,
)
from .errors import (
    BudgetExceededError,
    CoverlabError,
    FolnerVerificationError,
    InequalityViolation,
    InputError,
    NumericalError,
)
from .folner import (
    FolnerCertificate,
    SearchBudget,
    SearchReport,
    exact_fraction,
    folner_sequence,
    search_folner,
    verify_certificate,
)


def _lazy_module(name: str):
    """coverlab.<name>, registered in sys.modules at once; its code runs on
    the first read of any of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


geometry = _lazy_module("geometry")
spectrum = _lazy_module("spectrum")
transfer = _lazy_module("transfer")

# every name re-exported from a lazy module, with its module; __getattr__
# reads the module afresh on each access, so a patched attribute is served
# and a restored one is too
_LAZY_EXPORTS = {
    **dict.fromkeys((
        "CompactFunction",
        "CutoffFunction",
        "VoltageCover",
        "WeightedGraph",
        "as_potential",
        "build_cover",
        "cover_form_parts",
        "cutoff",
    ), geometry),
    **dict.fromkeys((
        "CorollaryReport",
        "SpectralResult",
        "StabilityInterval",
        "WindowValue",
        "corollary_check",
        "dirichlet_lambda0",
        "dirichlet_window",
        "min_eigenvalue",
        "regular_tree_dirichlet_value",
        "stability_interval",
    ), spectrum),
    **dict.fromkeys((
        "CounterexampleReport",
        "EasyDirectionReport",
        "IntervalComparisonReport",
        "TransferOutcome",
        "WitnessReport",
        "build_witness",
        "counterexample_check",
        "easy_direction_check",
        "interval_comparison",
        "required_ratio",
        "transfer_negativity",
    ), transfer),
}


def __getattr__(name: str):
    # PEP 562: serves the names re-exported from the lazy modules
    if name in _LAZY_EXPORTS:
        return getattr(_LAZY_EXPORTS[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
