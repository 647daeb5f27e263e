"""Sampling helpers for discovery on large relations.

Discovery over the full relation can be expensive; the usual practice is to
mine candidate CFDs on a sample and validate them on the full data (or on a
held-out portion).  These helpers provide deterministic, seeded sampling and
a simple split, plus a validator that measures each candidate's confidence
on arbitrary data.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..core.cfd import CFD
from ..core.satisfaction import scan_violations
from ..engine.relation import Relation


def sample_relation(relation: Relation, size: int, seed: int = 0) -> Relation:
    """A uniform random sample of ``size`` tuples (without replacement).

    Tuple ids are *not* preserved: the sample is a fresh relation, as a DBMS
    sample would be.
    """
    rng = random.Random(seed)
    tids = relation.tids()
    chosen = tids if size >= len(tids) else rng.sample(tids, size)
    sample = Relation(relation.schema)
    for tid in sorted(chosen):
        sample.insert(relation.get(tid))
    return sample


def split_relation(
    relation: Relation, holdout_fraction: float = 0.25, seed: int = 0
) -> Tuple[Relation, Relation]:
    """Split into (training, holdout) relations for mine-then-validate workflows."""
    rng = random.Random(seed)
    tids = relation.tids()
    rng.shuffle(tids)
    holdout_size = int(len(tids) * holdout_fraction)
    holdout_tids = set(tids[:holdout_size])
    training = Relation(relation.schema)
    holdout = Relation(relation.schema)
    for tid in relation.tids():
        target = holdout if tid in holdout_tids else training
        target.insert(relation.get(tid))
    return training, holdout


def validate_cfds(relation: Relation, cfds: Sequence[CFD]) -> Dict[str, Dict[str, float]]:
    """Measure each CFD's violation footprint on ``relation``.

    Returns, per CFD identifier, the number of single-tuple violations, the
    number of violating multi-tuple groups and the fraction of tuples that
    are involved in some violation of that CFD ("violation rate").  Mined
    candidates whose violation rate on the holdout exceeds a tolerance should
    be discarded.
    """
    total = len(relation) or 1
    results: Dict[str, Dict[str, float]] = {}
    for cfd in cfds:
        scan = scan_violations(relation, cfd)
        singles = scan.single_tuple_violations()
        groups = scan.multi_tuple_violation_groups()
        involved = {tid for tid, _pattern in singles}
        for _pattern, _key, tids in groups:
            involved.update(tids)
        results[cfd.identifier] = {
            "single_violations": float(len(singles)),
            "multi_groups": float(len(groups)),
            "violation_rate": len(involved) / total,
        }
    return results
