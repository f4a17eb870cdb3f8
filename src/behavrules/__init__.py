"""Non-redundant behavioral association rule mining for categorical event logs."""

from .datamodel import (
    ConfigError,
    ContextSchema,
    Dataset,
    EmptyDatasetError,
    Instance,
    Rule,
    RuleStats,
    SchemaViolation,
    rule_stats,
)
from .precedence import PrecedenceRanking, entropy, information_gain, rank_contexts
from .agt import (
    AgtNode,
    MiningConfig,
    build_tree,
    extract_rules,
    tree_to_dot,
)
from .apriori import (
    FrequentItemset,
    filter_redundant,
    generate_cars,
    mine_frequent,
    shadows,
)
from .ingest import (
    ColumnMapping,
    IngestError,
    SegmentationConfig,
    derive_behavior,
    load_log,
    segment_timestamp,
)
from .synth import GenerationError, PlantedRuleSpec, generate
from .harness import SweepReport, SweepRow, parse_threshold, sweep

__all__ = [
    "AgtNode",
    "ColumnMapping",
    "ConfigError",
    "ContextSchema",
    "Dataset",
    "EmptyDatasetError",
    "FrequentItemset",
    "GenerationError",
    "IngestError",
    "Instance",
    "MiningConfig",
    "PlantedRuleSpec",
    "PrecedenceRanking",
    "Rule",
    "RuleStats",
    "SchemaViolation",
    "SegmentationConfig",
    "SweepReport",
    "SweepRow",
    "build_tree",
    "derive_behavior",
    "entropy",
    "extract_rules",
    "filter_redundant",
    "generate",
    "generate_cars",
    "information_gain",
    "load_log",
    "mine_frequent",
    "parse_threshold",
    "rank_contexts",
    "rule_stats",
    "segment_timestamp",
    "shadows",
    "sweep",
    "tree_to_dot",
]
