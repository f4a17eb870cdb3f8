"""Apriori class-association-rule baseline plus a post-hoc redundancy filter.

Itemsets range over context conditions only; behavior classes appear only
as rule consequents, which keeps the rule space directly comparable with
the tree miner's output. The rule set is complete: every rule over every
frequent condition set. One depth-first partition of the distinct rows
finds the frequent itemsets and, from the same tallies (RowCodes.tally),
each one's support in every class, so rule generation only compares counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .datamodel import Condition, ConfigError, Dataset, Rule, confidence_test

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
    """Every frequent itemset over context conditions, with its class supports.

    Output is by itemset size, then by sorted conditions. Attributes are
    single-valued and nominal, so the frequent itemsets are the cells of
    an iceberg cube, found by recursive partitioning (Beyer and
    Ramakrishnan's BUC): an itemset's distinct rows (see Dataset.codes)
    are tallied by each later attribute in name order (see
    RowCodes.tally), which gives the class supports of every one-condition
    extension at once, in the sorted-label order class_supports keeps,
    and each frequent extension is partitioned off and extended in turn.
    No extension of an infrequent itemset is frequent, so an infrequent
    one is neither partitioned nor extended.
    """
    if min_support < 1:
        raise ConfigError("min_support must be >= 1, got %d" % min_support)

    codes = ds.codes
    # in name order, so each itemset's conditions are sorted; one tuple per
    # condition, shared by every itemset that holds it
    attrs = [(name, [(name, val) for val in domain])
             for name, domain in sorted(ds.schema.attributes)]
    found: list[tuple[tuple[Condition, ...], int, tuple[int, ...]]] = []
    # (itemset, its distinct rows, index in attrs of the first attribute to add)
    stack = [((), range(len(codes.counts)), 0)]
    while stack:
        itemset, rows, start = stack.pop()
        for i in range(start, len(attrs)):
            name, conditions = attrs[i]
            deeper = i + 1 < len(attrs)
            groups = None  # the partition's groups, whose order is the tally's
            for j, (v, supports) in enumerate(codes.tally(name, rows)):
                if sum(supports) < min_support:
                    continue
                if len(found) == MAX_ITEMSETS:
                    raise ConfigError("more than %d frequent itemsets (apriori.MAX_ITEMSETS)"
                                      % MAX_ITEMSETS)
                extended = itemset + (conditions[v],)
                found.append((extended, sum(supports), supports))
                if deeper:
                    groups = groups or codes.partition(name, rows)
                    stack.append((extended, groups[j], i + 1))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    return [FrequentItemset(frozenset(items), cov, supports) for items, cov, supports in found]


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
    meets = confidence_test(threshold)
    labels = ds.codes.labels
    rules: list[Rule] = []
    for fi in frequent:
        for cls, support in zip(labels, fi.class_supports, strict=True):
            if support >= min_support and meets(support, fi.support):
                rules.append(Rule(fi.items, cls, support, fi.support))
    return rules


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
