"""Random M-Lipschitz functions and graph homomorphisms on expander graphs:
generation, expansion parameters, exact counting, sampling, phases and
verification of the flattening-map counting machinery."""

from .expansion import (
    ExpansionReport,
    certify,
    check_expansion_props,
    exhaustive_lambda,
    goodness,
    spectral_lambda,
)
from .graphs import (
    Graph,
    GraphError,
    ball,
    build_graph,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    graph_from_text,
    graph_to_text,
    read_graph,
)
from .heights import (
    PhaseError,
    phase_hom,
    phase_lipschitz,
    validate,
)
from .samplers import (
    CapExceeded,
    EnumerationResult,
    enumerate_functions,
    mcmc_sample_array,
)
from .transform import (
    ContextError,
    VerifyReport,
    apply_transform,
    build_context,
    verify_counting,
)
from .treedp import TreeDP, tree_dp, tree_sample
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    emit_report,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "ball",
    "build_graph",
    "gen_random_regular",
    "gen_random_bipartite_regular",
    "gen_tree",
    "graph_from_text",
    "graph_to_text",
    "read_graph",
    "ExpansionReport",
    "certify",
    "check_expansion_props",
    "exhaustive_lambda",
    "spectral_lambda",
    "goodness",
    "PhaseError",
    "phase_hom",
    "phase_lipschitz",
    "validate",
    "CapExceeded",
    "EnumerationResult",
    "enumerate_functions",
    "mcmc_sample_array",
    "ContextError",
    "VerifyReport",
    "apply_transform",
    "build_context",
    "verify_counting",
    "TreeDP",
    "tree_dp",
    "tree_sample",
    "ExperimentConfig",
    "ExperimentResult",
    "emit_report",
    "parse_config",
    "run_experiment",
]
