"""The CFD formalism: pattern tuples, CFDs, tableaux and their semantics.

This package is the paper's primary contribution in library form: the data
structures the constraint engine stores, the textual syntax users specify
CFDs in, and the tuple-level semantics every other component builds on.
"""

from .cfd import CFD, PatternMatcher, normalize_all
from .parser import format_cfd, parse_cfd, parse_cfds
from .pattern import WILDCARD_TOKEN, PatternTuple, PatternValue
from .satisfaction import (
    multi_tuple_violation_groups,
    ViolationScan,
    satisfies,
    satisfies_all,
    scan_violations,
    single_tuple_violations,
    violating_tids,
    violation_counts,
)
from .tableau import (
    PATTERN_ID_COLUMN,
    merge_cfds,
    relation_to_tableau,
    split_constant_variable,
    tableau_size,
    tableau_to_relation,
)

__all__ = [
    "CFD",
    "PatternMatcher",
    "PatternTuple",
    "PatternValue",
    "WILDCARD_TOKEN",
    "PATTERN_ID_COLUMN",
    "normalize_all",
    "parse_cfd",
    "parse_cfds",
    "format_cfd",
    "merge_cfds",
    "tableau_to_relation",
    "relation_to_tableau",
    "tableau_size",
    "split_constant_variable",
    "satisfies",
    "satisfies_all",
    "scan_violations",
    "ViolationScan",
    "single_tuple_violations",
    "multi_tuple_violation_groups",
    "violating_tids",
    "violation_counts",
]
