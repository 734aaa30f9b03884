"""Spectral refutation certificates for odd-arity XOR instances built from
hypergraph matchings, via balanced and imbalanced-bipartite Kikuchi graphs."""

from ._version import __version__
from .decompose import (
    DecomposedInstance,
    Thresholds,
    compute_thresholds,
    decompose,
    recombination_check,
    verify_decomposition,
)
from .graphs import (
    KikuchiGraph,
    assemble_basic,
    assemble_bipartite,
    assemble_regular_cs,
    build_basic_even,
    build_bipartite,
    build_naive_odd,
    build_regular_cs,
    lift_assignment,
    matvec,
    quadratic_form,
)
from .instances import (
    BipartiteXorInstance,
    XorInstance,
    brute_force_val,
    eval_phi,
    eval_psi_bipartite,
    expected_val,
    generate_planted_linear_instance,
    generate_random_matching_instance,
    validate_matching,
)
from .prune import PruningError, conditional_degree_moment, prune, target_degrees
from .refute import (
    FullRefutation,
    RegularityError,
    refute_bipartite,
    refute_full,
    refute_regular,
)
from .setops import degree, symmetric_difference
from .spectral import (
    NormEstimate,
    block_spectral_norms,
    estimate_expected_norm,
    khintchine_bound,
    khintchine_sigma,
    spectral_norm,
)
