"""Random bipartite multigraphs with minimum degree one.

Generators for the with-replacement, conditioned, configuration, and
independent-edge models; exact and asymptotic counting; giant-component and
connectivity predictions; a brute-force oracle; Oxford-grid dataset
ingestion with five bundled genome comparisons; and a seeded Monte Carlo
harness behind the ``oxgrid`` CLI.
"""

from .distributions import (
    TruncatedPoissonParams,
    implied_mean,
    implied_variance,
    pmf,
    sample_truncated,
    size_biased_pmf,
    solve_rate,
    tail_bounds,
)
from .errors import (
    AttemptsExhausted,
    DomainError,
    EmptyError,
    InputError,
    OxgridError,
    ParseError,
    SizeError,
)
from .generators import (
    ModelSpec,
    er_params_for,
    sample_er,
    sample_gr,
    sample_gr1,
    sample_tp,
)
from .graph import (
    BipartiteMultigraph,
    ComponentSummary,
    components,
    degrees,
    is_connected,
    max_degree,
    min_degree,
    tree_census,
)
from .ingest import (
    Dataset,
    fixture_names,
    load_fixture,
    parse_edge_list,
    parse_matrix,
)
from .oracle import (
    EquivalenceReport,
    ExhaustiveCensus,
    enumerate_bipartite_trees,
    exhaustive_census,
    tp_equivalence_test,
)
from .rng import make_stream, split_stream
from .theory import (
    Extinction,
    PredictionReport,
    birthday_factor,
    connectivity_parameter,
    count_asymptotic_log,
    count_exact,
    count_exact_log,
    distinct_ratio_bracket,
    er_expected_trees,
    expected_trees,
    expected_trees_exact,
    extinction_probabilities,
    labeled_tree_count,
    poisson_tail,
    predict,
)

__version__ = "0.1.0"
