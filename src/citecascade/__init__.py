"""Citation-cascade corpus construction, co-citation mapping, and overlay comparison."""

from .errors import (
    CiteCascadeError,
    EmptyDatasetError,
    FormatError,
    UnknownPublicationError,
    ValidationError,
)
from .records import ArticleRecord, Dataset, RecordStore, dataset_union, year_distribution
from .sources import SourceQuery
from .expansion import ExpansionSpec, ExpansionStage, run_cascade
from .cocitation import (
    CoCitationNetwork,
    NetworkConfig,
    build_network,
    network_stats,
    prune_links,
)
from .clustering import ClusterPartition, detect_communities, modularity, silhouette, sub_cluster
from .labeling import build_concept_tree, label_cluster
from .overlay import coverage_report, overlap_matrix, project_overlay
from .render import layout, render_distribution, render_map

__version__ = "0.1.0"

__all__ = [
    "ArticleRecord",
    "CiteCascadeError",
    "ClusterPartition",
    "CoCitationNetwork",
    "Dataset",
    "EmptyDatasetError",
    "ExpansionSpec",
    "ExpansionStage",
    "FormatError",
    "NetworkConfig",
    "RecordStore",
    "SourceQuery",
    "UnknownPublicationError",
    "ValidationError",
    "build_concept_tree",
    "build_network",
    "coverage_report",
    "dataset_union",
    "detect_communities",
    "label_cluster",
    "layout",
    "modularity",
    "network_stats",
    "overlap_matrix",
    "project_overlay",
    "prune_links",
    "render_distribution",
    "render_map",
    "run_cascade",
    "silhouette",
    "sub_cluster",
    "year_distribution",
]
