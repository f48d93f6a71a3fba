"""Decision-tree decompositions, Fourier analysis, and learners for
submodular functions on {0,1}^n, with exhaustive desk-scale verification."""

from .cube import (
    DimensionTooLarge,
    ProductDistribution,
    enum_cap,
    fw_rank,
    fw_unrank,
)
from .decompose import (
    DecompositionReport,
    approximate_by_tree,
    build_exact_discrete_tree,
    build_lipschitz_grid,
    build_lipschitz_tree,
    build_lipschitz_trees,
    build_monotone_tree,
    constantize_leaves,
    proper_learn_discrete,
)
from .dtree import (
    ConstLeaf,
    DecisionTree,
    Node,
    OracleLeaf,
    exact_distance,
    exact_distances,
    pruning_bound,
    pruning_depth_for,
    random_tree,
    rank,
    to_spectrum,
    tree_depth,
    tree_size,
    truncate,
)
from .fourier import (
    LabeledSample,
    Spectrum,
    estimate_coefficient,
    low_degree_estimate,
    spectral_l1,
    transform,
)
from .funcs import (
    FamilySpec,
    Restriction,
    ValueOracle,
    derivative,
    flip_oracle,
    generate_random,
    instantiate,
    is_alpha_monotone_decreasing,
    is_submodular,
    lipschitz_constant,
    restrict,
    second_derivative,
)
from .hardness import (
    EmbeddingSpec,
    GadgetSpec,
    NoisySource,
    alternating_partial_sum,
    correlation_closed_form,
    embed_build,
    embed_decode,
    lpn_reduce,
    make_gadget,
    noisy_examples,
)
from .learn import (
    Hypothesis,
    agnostic_l2_learn,
    find_influential_variables,
    km_search,
    pac_learn,
    threshold_decompose,
)

__version__ = "0.1.0"
