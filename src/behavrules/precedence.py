"""Information-gain ranking of context attributes.

The attribute with the highest gain gets the highest splitting precedence.
Gains are compared in double precision with a 1e-12 tolerance; ties break
by ascending attribute name so rankings (and therefore trees) are
reproducible. Class counts come from the dataset's row bitsets
(Dataset.bits), so the tree can rank the rows of any node without
building a sub-dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, NamedTuple, Sequence

from .datamodel import Dataset, SchemaViolation

GAIN_TOLERANCE = 1e-12


def _entropy(counts: Iterable[int], n: int) -> float:
    total = 0.0
    for count in counts:
        p = count / n
        total -= p * math.log2(p)
    return total


def entropy(ds: Dataset) -> float:
    """Class impurity -sum p*log2(p) over behavior classes present in ds.

    Absent classes contribute 0 (the 0*log2(0) convention); an empty
    dataset has entropy 0.
    """
    return _entropy(ds.class_counts().values(), len(ds))


class Split(NamedTuple):
    """One way to partition a node's rows: by the values of attr."""

    attr: str
    gain: float
    # (value, class counts) of each non-empty child, in domain order
    children: list[tuple[str, dict[str, int]]]


def split(ds: Dataset, rows: int, counts: dict[str, int], attr: str) -> Split:
    """Partition the rows in bitset rows (see Dataset.bits) by attr.

    counts are the class counts of rows, in first-row order. Children are
    summed in domain order and each child's classes in first-row order,
    so the gain is the same float however the rows are stored.
    """
    domain = ds.schema.domain(attr)  # also rejects an unknown attribute
    n = sum(counts.values())
    if n == 0:
        return Split(attr, 0.0, [])
    bits = ds.bits
    children = []
    split_entropy = 0.0
    for val in domain:
        sub = rows & bits.conditions[attr, val]
        if sub:
            child = bits.class_counts(sub)
            size = sum(child.values())
            split_entropy += (size / n) * _entropy(child.values(), size)
            children.append((val, child))
    gain = _entropy(counts.values(), n) - split_entropy
    # numeric noise can push a zero gain slightly negative
    return Split(attr, max(gain, 0.0), children)


def information_gain(ds: Dataset, attr: str) -> float:
    """Expected entropy reduction from partitioning ds by attr's values."""
    return split(ds, ds.bits.rows, ds.class_counts(), attr).gain


def _compare(a: Split, b: Split) -> int:
    if a.gain > b.gain + GAIN_TOLERANCE:
        return -1
    if b.gain > a.gain + GAIN_TOLERANCE:
        return 1
    return -1 if a.attr < b.attr else (1 if a.attr > b.attr else 0)


def rank_splits(
    ds: Dataset, rows: int, counts: dict[str, int], candidates: Sequence[str]
) -> list[Split]:
    """Splits of rows by each candidate, highest gain first; ties by name."""
    splits = [split(ds, rows, counts, name) for name in candidates]
    splits.sort(key=cmp_to_key(_compare))
    return splits


@dataclass(frozen=True)
class PrecedenceRanking:
    """Attributes ordered by information gain, highest precedence first."""

    entries: tuple[tuple[str, float], ...]
    computed_over: str  # dataset fingerprint

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def __str__(self) -> str:
        lines = ["rank  attribute            gain"]
        for i, (name, gain) in enumerate(self.entries, start=1):
            lines.append("%-5d %-20s %.6f" % (i, name, gain))
        return "\n".join(lines)


def rank_contexts(ds: Dataset, candidates: Sequence[str]) -> PrecedenceRanking:
    """Rank candidate attributes by gain, descending; ties by name."""
    if len(candidates) != len(set(candidates)):
        raise SchemaViolation("duplicate candidate attributes: %r" % list(candidates))
    splits = rank_splits(ds, ds.bits.rows, ds.class_counts(), candidates)
    return PrecedenceRanking(tuple((s.attr, s.gain) for s in splits), ds.fingerprint())
