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
from typing import Optional

from .datamodel import Condition, ConfigError, Dataset, Rule, threshold_terms


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
    num, den = threshold_terms(threshold)
    bits = ds.bits
    rules: list[Rule] = []
    for fi in ordered:
        rows = reduce(and_, (bits.conditions[c] for c in fi.items), bits.rows)
        floor = num * fi.support  # support/coverage >= t is support*den >= floor
        for cls, cls_rows in bits.classes.items():  # sorted labels
            support = (rows & cls_rows).bit_count()
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
    proper antecedent subsets instead of scanning every other rule.
    """
    best: dict[tuple[str, frozenset[Condition]], tuple[int, int]] = {}
    for rule in rules:
        key = (rule.consequent, rule.antecedent)
        held = best.get(key)
        if held is None or rule.support * held[1] > held[0] * rule.coverage:
            best[key] = (rule.support, rule.coverage)
    out: list[Optional[tuple[int, int]]] = []
    for rule in rules:
        items = tuple(rule.antecedent)
        shadow = None
        for k in range(len(items)):
            for sub in combinations(items, k):
                found = best.get((rule.consequent, frozenset(sub)))
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
