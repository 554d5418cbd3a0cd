"""Exact computational geometry on finite metric trees.

Segment, betweenness, median, and covering queries on weighted trees;
tree-metric recognition and reconstruction from distance matrices; per-n
covering profiles realizing the set/ball measure-of-noncompactness
identities; and Lifschitz-characteristic constructions.  Every optimized
algorithm is backed by a brute-force oracle in the test suite.
"""

from .core import (
    MetricTree,
    PointArray,
    Segment,
    Tolerance,
    TreePoint,
    is_metric_segment,
    segment_intersection,
    validate_tree,
)
from .covering import (
    BallCover,
    CoverProfile,
    DiameterPartition,
    PointSet,
    alpha_profile,
    ball_diameter,
    beta_profile,
    beta_star_profile,
    circumcenter,
    diameter,
    min_ball_cover,
    min_diameter_partition,
    oracle_min_cover,
    oracle_profiles,
)
from .errors import (
    BadParams,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EmptySet,
    ForeignPoint,
    InvalidDistanceMatrix,
    MetricTreeError,
    NegativeDiameter,
    NegativeRadius,
    NonpositiveEdgeLength,
    NotAMetric,
    NotIsometric,
    NotTreeMetric,
    ParameterOutOfRange,
    PreconditionViolation,
    TooFewPoints,
    TooLargeForOracle,
    TreeParseError,
    TreeValidationError,
    UnknownGallery,
    UnknownPoint,
)
from .ingest import (
    DistanceMatrix,
    TreeDocument,
    check_four_point,
    format_matrix_csv,
    gallery,
    matrix_from_points,
    parse_matrix,
    parse_tree,
    serialize_tree,
    tree_from_distances,
)
from .noncompactness import (
    BoundCheckReport,
    ContractionReport,
    EmbeddingReport,
    MeasureReport,
    PointMap,
    contraction_bound_check,
    contraction_constants,
    embedding_invariance_check,
    measure_report,
)
from .sampling import edge_samples, random_point, random_points, random_tree
from .structure import (
    CounterexampleRecord,
    KappaReport,
    LeafSet,
    LifschitzWitness,
    WitnessVerification,
    kappa_probe,
    leaf_cover_check,
    leaf_through,
    leaves,
    lifschitz_counterexample,
    lifschitz_witness,
)

__version__ = "0.1.0"
