"""Information-gain ranking of context attributes.

The attribute with the highest gain gets the highest splitting precedence.
Gains are compared in double precision with a 1e-12 tolerance; ties break
by ascending attribute name so rankings (and therefore trees) are
reproducible. An entropy is an exactly rounded sum (math.fsum), so a
gain is one float in any class order. A node's rows are a list of
ascending distinct-row ids (see Dataset.codes), and one RowCodes.tally
of them, each weighted by its count, gives the class counts of every
child of a split (child_counts), so the tree can rank the rows of any
node without building a sub-dataset. The tree calls split, which
computes the gain, only at nodes with attributes to choose from, and
child_counts alone elsewhere; rank_contexts and information_gain
compute every gain. Apriori counts its itemsets with the same tally."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, NamedTuple, Sequence

from .datamodel import Dataset, SchemaViolation

GAIN_TOLERANCE = 1e-12


def _entropy(counts: Iterable[int], n: int) -> float:
    """-sum p*log2(p), p = count / n, over the non-zero counts; exactly rounded."""
    # 0.0 - makes a pure node's -0.0 a +0.0, which prints without a sign
    return 0.0 - math.fsum([c / n * math.log2(c / n) for c in counts if c])


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
    # (value, class counts in labels order) of each non-empty child, in domain order
    children: list[tuple[str, tuple[int, ...]]]


def all_rows(ds: Dataset) -> tuple[range, tuple[int, ...]]:
    """Every distinct-row id of ds and its class counts, as split takes them."""
    counts = ds.class_counts()
    return range(len(ds.codes.counts)), tuple(counts.get(c, 0) for c in ds.codes.labels)


def child_counts(ds: Dataset, rows: Iterable[int], attr: str) -> list[tuple[str, tuple[int, ...]]]:
    """(value, class counts in labels order) of each value of attr among rows,
    ascending distinct-row ids of ds (see Dataset.codes), in domain order.

    One RowCodes.tally gives them all; this is the list split puts in
    Split.children, for a node that has no attributes to rank.
    """
    domain = ds.schema.domain(attr)  # also rejects an unknown attribute
    return [(domain[v], child) for v, child in ds.codes.tally(attr, rows)]


def split(ds: Dataset, rows: Sequence[int], counts: Sequence[int], attr: str) -> Split:
    """Partition rows, ascending distinct-row ids of ds (see Dataset.codes), by attr.

    counts are the class counts, in labels order, of the dataset rows that
    rows stand for, and child_counts gives every child's. Children are
    summed in domain order, so the gain is the same float however the rows
    are counted.
    """
    children = child_counts(ds, rows, attr)
    n = sum(counts)
    if n == 0:
        return Split(attr, 0.0, children)
    split_entropy = 0.0
    for _, child in children:
        size = sum(child)
        split_entropy += (size / n) * _entropy(child, size)
    gain = _entropy(counts, n) - split_entropy
    # numeric noise can push a zero gain slightly negative
    return Split(attr, max(gain, 0.0), children)


def information_gain(ds: Dataset, attr: str) -> float:
    """Expected entropy reduction from partitioning ds by attr's values."""
    return split(ds, *all_rows(ds), attr).gain


def _compare(a: Split, b: Split) -> int:
    if a.gain > b.gain + GAIN_TOLERANCE:
        return -1
    if b.gain > a.gain + GAIN_TOLERANCE:
        return 1
    return -1 if a.attr < b.attr else (1 if a.attr > b.attr else 0)


def rank_splits(splits: Iterable[Split]) -> list[Split]:
    """The splits, highest gain first; ties by name. The tolerance is not
    transitive, so the result may depend on the order given: give candidate order."""
    return sorted(splits, key=cmp_to_key(_compare))


@dataclass(frozen=True)
class PrecedenceRanking:
    """Attributes ordered by information gain, highest precedence first."""

    entries: tuple[tuple[str, float], ...]

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
    rows, counts = all_rows(ds)
    splits = rank_splits(split(ds, rows, counts, name) for name in candidates)
    return PrecedenceRanking(tuple((s.attr, s.gain) for s in splits))
