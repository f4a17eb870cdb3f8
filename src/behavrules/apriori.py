"""Apriori class-association-rule baseline plus a post-hoc redundancy filter.

Itemsets range over context conditions only; behavior classes appear only
as rule consequents, which keeps the rule space directly comparable with
the tree miner's output. One level-wise pass finds the frequent itemsets
and, while each one's rows are in hand, its support in every class, so
rule generation only compares counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from typing import Optional

from .datamodel import Condition, ConfigError, Dataset, Rule, threshold_terms

# mine_frequent raises ConfigError rather than list more frequent itemsets than
# this: far above the 12,749 possible ones of the benchmark's four attributes,
# far below the 2**n - 1 of n constant columns, which no miner lists in time.
MAX_ITEMSETS = 200_000


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset[Condition]
    support: int  # number of instances matching every condition
    # instances matching every condition, per class in sorted-label order
    class_supports: tuple[int, ...]


def mine_frequent(ds: Dataset, min_support: int = 1) -> list[FrequentItemset]:
    """Level-wise frequent itemset mining over context conditions.

    Output is level-wise, then by sorted conditions. Itemsets sharing a
    prefix are bucketed by their last condition's attribute, and each is
    joined only with those of later buckets: two values of one attribute
    never co-occur in single-valued nominal data, so same-attribute pairs
    are never formed. A candidate with an infrequent subset is pruned
    before counting. Counting is vertical: a candidate's rows are its
    prefix's rows ANDed with its last condition's rows (see Dataset.bits),
    and each frequent itemset's class supports are taken from the same rows.
    """
    if min_support < 1:
        raise ConfigError("min_support must be >= 1, got %d" % min_support)

    conditions = ds.bits.conditions
    classes = list(ds.bits.classes.values())
    result: list[FrequentItemset] = []

    def frequent(itemset, rows, cov):
        if len(result) == MAX_ITEMSETS:
            raise ConfigError("more than %d frequent itemsets (apriori.MAX_ITEMSETS)"
                              % MAX_ITEMSETS)
        supports = tuple([(rows & cls_rows).bit_count() for cls_rows in classes])
        result.append(FrequentItemset(frozenset(itemset), cov, supports))

    # itemsets are kept as sorted condition tuples and each level, a dict
    # from itemset to its rows, is filled in sorted order, so itemsets
    # sharing a prefix are adjacent and candidates come out sorted
    level: dict[tuple[Condition, ...], int] = {}
    for cond in sorted(conditions):
        rows = conditions[cond]
        cov = rows.bit_count()
        if cov >= min_support:
            level[(cond,)] = rows
            frequent((cond,), rows, cov)

    while level:
        prefixes, level = level, {}
        for _, group in groupby(prefixes, key=lambda itemset: itemset[:-1]):
            buckets = [list(b) for _, b in groupby(group, key=lambda itemset: itemset[-1][0])]
            for b, bucket in enumerate(buckets):
                later = [itemset[-1] for rest in buckets[b + 1:] for itemset in rest]
                for left in bucket:
                    left_rows = prefixes[left]
                    for last in later:
                        candidate = left + (last,)
                        # dropping either of the last two conditions gives
                        # left or its join partner, both in the level
                        if all(
                            candidate[:j] + candidate[j + 1:] in prefixes
                            for j in range(len(candidate) - 2)
                        ):
                            rows = left_rows & conditions[last]
                            cov = rows.bit_count()
                            if cov >= min_support:
                                level[candidate] = rows
                                frequent(candidate, rows, cov)
    return result


def generate_cars(
    ds: Dataset,
    frequent: list[FrequentItemset],
    threshold: Fraction,
    min_support: int = 1,
) -> list[Rule]:
    """Emit every class-association rule meeting support and confidence.

    Complete over (frequent itemset) x (behavior class), reading each
    itemset's class_supports. frequent must be in mine_frequent's order,
    itemset size, then sorted conditions; output keeps that order, then
    class label.
    """
    num, den = threshold_terms(threshold)
    labels = list(ds.bits.classes)  # sorted
    rules: list[Rule] = []
    for fi in frequent:
        floor = num * fi.support  # support/coverage >= t is support*den >= floor
        for cls, support in zip(labels, fi.class_supports, strict=True):
            if support >= min_support and support * den >= floor:
                rules.append(Rule(fi.items, cls, support, fi.support))
    return rules


def mine(ds: Dataset, threshold: Fraction, min_support: int = 1) -> list[Rule]:
    """Frequent itemsets plus rule generation in one call."""
    return generate_cars(ds, mine_frequent(ds, min_support), threshold, min_support)


def shadows(rules: list[Rule]) -> list[Optional[tuple[int, int]]]:
    """Each rule's shadow: the best rule it strictly extends with its consequent.

    The shadow is the (support, coverage) of the highest-confidence rule in
    rules whose antecedent is a proper subset of the rule's own (the empty
    one included) and whose consequent is the same, or None when there is
    none. Among rules that meet a threshold t, a rule is redundant exactly
    when its shadow's confidence meets t as well. Each rule looks up its
    proper antecedent subsets instead of scanning every other rule. Ties
    in confidence go to the first subset in (size, sorted conditions)
    order, and among equal antecedents to the first rule given.
    """
    # antecedents as sorted tuples, whose combinations are sorted tuples too
    best: dict[tuple[str, tuple[Condition, ...]], tuple[int, int]] = {}
    for rule in rules:
        key = (rule.consequent, rule.sort_antecedent)
        held = best.get(key)
        if held is None or rule.support * held[1] > held[0] * rule.coverage:
            best[key] = (rule.support, rule.coverage)
    out: list[Optional[tuple[int, int]]] = []
    for rule in rules:
        items = rule.sort_antecedent
        shadow = None
        for k in range(len(items)):
            for sub in combinations(items, k):
                found = best.get((rule.consequent, sub))
                if found is not None and (
                    shadow is None or found[0] * shadow[1] > shadow[0] * found[1]
                ):
                    shadow = found
        out.append(shadow)
    return out


def filter_redundant(rules: list[Rule]) -> list[Rule]:
    """Drop every rule that strictly extends another rule with the same consequent.

    Input is assumed threshold-valid already; only minimal-antecedent rules,
    those without a shadow (see shadows), survive, in their original order.
    """
    return [rule for rule, shadow in zip(rules, shadows(rules)) if shadow is None]
