"""PageRank on directed multigraphs and samplers of their local limits."""

from .census import (
    NeighborhoodCensus,
    TailSample,
    ccdf,
    census,
    census_limit,
    hill_estimator,
    ks_distance,
    tv_distance,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InputError,
    InvariantViolation,
    PagerankLimitsError,
    ResourceError,
    SizeError,
    UsageError,
)
from .generators import (
    BiDegreeLaw,
    BiDegreeSequence,
    CtbpParams,
    PamParams,
    RngStream,
    gen_ctbp_tree,
    gen_dcm,
    gen_dpa,
    gen_irg,
    sample_bidegree_sequence,
)
from .graph import (
    DirectedMultigraph,
    MarkedNeighborhood,
    build_graph,
    canonical_code,
    explore_neighborhood,
    read_edgelist,
    write_edgelist,
)
from .limits import (
    LimitForest,
    LimitTree,
    PolyaParams,
    gw_root_rank_pool,
    limit_law,
    malthusian,
    solve_fixed_point_mc,
)
from .pagerank import (
    GeneralizedWeights,
    PageRankParams,
    PageRankVector,
    pagerank_truncated,
    solve_pagerank,
)

__version__ = "0.1.0"
