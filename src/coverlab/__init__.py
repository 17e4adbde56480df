"""Discrete laboratory for spectral positivity under graph coverings."""

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
from .geometry import (
    CompactFunction,
    CutoffFunction,
    VoltageCover,
    WeightedGraph,
    as_potential,
    base_function,
    build_cover,
    cover_form_parts,
    cutoff,
)
from .spectrum import (
    CorollaryReport,
    SpectralResult,
    StabilityInterval,
    WindowValue,
    corollary_check,
    dirichlet_lambda0,
    dirichlet_window,
    min_eigenvalue,
    regular_tree_dirichlet_value,
    stability_interval,
)
from .transfer import (
    CounterexampleReport,
    EasyDirectionReport,
    IntervalComparisonReport,
    TransferOutcome,
    WitnessReport,
    build_witness,
    counterexample_check,
    easy_direction_check,
    interval_comparison,
    required_ratio,
    transfer_negativity,
)

__version__ = "0.1.0"
