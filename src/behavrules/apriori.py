"""Apriori class-association-rule baseline plus a post-hoc redundancy filter.

Itemsets range over context conditions only; behavior classes appear only
as rule consequents, which keeps the rule space directly comparable with
the tree miner's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_

from .datamodel import Condition, ConfigError, Dataset, Rule


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset[Condition]
    support: int  # number of instances matching every condition


def mine_frequent(ds: Dataset, min_support: int = 1) -> list[FrequentItemset]:
    """Level-wise frequent itemset mining over context conditions.

    Candidates joining two conditions on the same attribute are skipped
    outright (single-valued nominal data gives them zero coverage), and
    any candidate with an infrequent subset is pruned before counting.
    Counting is vertical: a candidate's rows are its prefix's rows ANDed
    with its last condition's rows (see Dataset.bits).
    """
    if min_support < 1:
        raise ConfigError("min_support must be >= 1, got %d" % min_support)

    conditions = ds.bits.conditions
    singles = sorted((cond,) for cond in conditions)

    # itemsets are kept as sorted condition tuples and each level, a dict
    # from itemset to its rows, is kept sorted, so the prefix join and
    # subset lookups line up
    result: list[FrequentItemset] = []
    level: dict[tuple[Condition, ...], int] = {}
    for itemset in singles:
        rows = conditions[itemset[0]]
        cov = rows.bit_count()
        if cov >= min_support:
            level[itemset] = rows
            result.append(FrequentItemset(frozenset(itemset), cov))

    while level:
        ordered = list(level)
        candidates = []
        for i, left in enumerate(ordered):
            for right in ordered[i + 1:]:
                if left[:-1] != right[:-1]:
                    break  # sorted level: no further shared prefix
                if left[-1][0] == right[-1][0]:
                    continue  # two values of one attribute never co-occur
                candidate = left + (right[-1],)
                if all(
                    candidate[:j] + candidate[j + 1:] in level
                    for j in range(len(candidate))
                ):
                    candidates.append(candidate)
        prefixes, level = level, {}
        for itemset in sorted(candidates):
            rows = prefixes[itemset[:-1]] & conditions[itemset[-1]]
            cov = rows.bit_count()
            if cov >= min_support:
                level[itemset] = rows
                result.append(FrequentItemset(frozenset(itemset), cov))
    return result


def generate_cars(
    ds: Dataset,
    frequent: list[FrequentItemset],
    threshold: Fraction,
    min_support: int = 1,
) -> list[Rule]:
    """Emit every class-association rule meeting support and confidence.

    Complete over (frequent itemset) x (behavior class); output order is
    itemset size, then sorted conditions, then class label.
    """
    ordered = sorted(
        frequent, key=lambda fi: (len(fi.items), tuple(sorted(fi.items)))
    )
    bits = ds.bits
    rules: list[Rule] = []
    for fi in ordered:
        rows = reduce(and_, (bits.conditions[c] for c in fi.items), bits.rows)
        for cls, cls_rows in bits.classes.items():  # sorted labels
            support = (rows & cls_rows).bit_count()
            if support >= min_support and Fraction(support, fi.support) >= threshold:
                rules.append(Rule(fi.items, cls, support, fi.support))
    return rules


def mine(ds: Dataset, threshold: Fraction, min_support: int = 1) -> list[Rule]:
    """Frequent itemsets plus rule generation in one call."""
    return generate_cars(ds, mine_frequent(ds, min_support), threshold, min_support)


def filter_redundant(rules: list[Rule]) -> list[Rule]:
    """Drop every rule that strictly extends another rule with the same consequent.

    Input is assumed threshold-valid already; only minimal-antecedent rules
    survive, in their original order. Each rule looks up its proper
    antecedent subsets (the empty one included) instead of scanning every
    other rule.
    """
    present = {(rule.consequent, rule.antecedent) for rule in rules}
    kept = []
    for rule in rules:
        items = tuple(rule.antecedent)
        shadowed = any(
            (rule.consequent, frozenset(sub)) in present
            for k in range(len(items))
            for sub in combinations(items, k)
        )
        if not shadowed:
            kept.append(rule)
    return kept
