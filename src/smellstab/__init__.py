"""smellstab: code smells, dependency neighborhoods, and class stability.

Measures, for every class in a Java repository snapshot, its code smells,
the smells of its efferent neighbors, smell coupling/interaction along
static dependencies, and one year of subsequent change activity, then fits
negative-binomial mixed models over the resulting dataset.
"""

__version__ = "0.1.0"

from .model import ArtifactId, ArtifactKind, RelationKind, SourceCorpus
from .corpus import ingest_corpus
from .lexer import logical_lines, logical_loc
from .graph import DependencyEdge, DependencyGraph, efferent_neighbors, extract_dependencies
from .metrics import ClassMetrics, MethodMetrics, build_metrics_context, compute_class_metrics, compute_method_metrics
from .smells import SmellInstance, SmellType, ThresholdConfig, detect_smells_with_diagnostics
from .neighborhood import (
    ClassObservation,
    build_all_observations,
    build_observation,
    efferent_interactions,
    smell_footprint,
)

__all__ = [
    "__version__",
    "ArtifactId", "ArtifactKind", "RelationKind", "SourceCorpus",
    "ingest_corpus", "logical_lines", "logical_loc",
    "DependencyEdge", "DependencyGraph", "efferent_neighbors", "extract_dependencies",
    "ClassMetrics", "MethodMetrics", "build_metrics_context", "compute_class_metrics",
    "compute_method_metrics",
    "SmellInstance", "SmellType", "ThresholdConfig", "detect_smells_with_diagnostics",
    "ClassObservation", "build_all_observations", "build_observation",
    "efferent_interactions", "smell_footprint",
]
