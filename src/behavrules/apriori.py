"""Apriori class-association-rule baseline plus a post-hoc redundancy filter.

Itemsets range over context conditions only; behavior classes appear only
as rule consequents, which keeps the rule space directly comparable with
the tree miner's output. The rule set is complete: every rule over every
frequent condition set. One depth-first partition of the distinct rows
lists the frequent itemsets in output order with, from the same tallies
(RowCodes.tally), each one's class supports: rules only compare counts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .datamodel import Condition, ConfigError, Dataset, Rule, confidence_test

# mine_frequent raises ConfigError rather than list more frequent itemsets than
# this: far above the 12,749 possible ones of the benchmark's four attributes,
# far below the 2**n - 1 of n constant columns, which no miner lists in time.
MAX_ITEMSETS = 200_000


class FrequentItemset(NamedTuple):
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
    extension at once, in the sorted-label order class_supports keeps.
    Only a frequent itemset has frequent extensions, so only those are
    partitioned off and extended in turn, in sorted-condition order: a
    preorder walk of the itemset trie, which meets each size's itemsets
    in output order, so nothing is sorted at the end.
    """
    if min_support < 1:
        raise ConfigError("min_support must be >= 1, got %d" % min_support)

    codes = ds.codes
    # in name order, so each itemset's conditions are sorted; one tuple per
    # condition, shared by every itemset that holds it
    attrs = [(name, [(name, val) for val in domain])
             for name, domain in sorted(ds.schema.attributes)]
    levels: list[list[FrequentItemset]] = [[] for _ in attrs]  # by size, each in output order
    found = 0
    # (itemset, its distinct rows, index in attrs of the first attribute to add)
    stack = [((), range(len(codes.counts)), 0)]
    while stack:
        itemset, rows, start = stack.pop()
        children = []  # in sorted-condition order
        for i in range(start, len(attrs)):
            name, conditions = attrs[i]
            tallied = codes.tally(name, rows)
            # each frequent condition's index in tallied and in the partition's groups
            frequent = {conditions[v]: j for j, (v, supports) in enumerate(tallied)
                        if sum(supports) >= min_support}
            found += len(frequent)
            if found > MAX_ITEMSETS:
                raise ConfigError("more than %d frequent itemsets (apriori.MAX_ITEMSETS)"
                                  % MAX_ITEMSETS)
            groups = codes.partition(name, rows) if frequent and i + 1 < len(attrs) else None
            level = levels[len(itemset)]
            for condition in sorted(frequent):  # by value, not in first-observation order
                extended, supports = itemset + (condition,), tallied[frequent[condition]][1]
                level.append(FrequentItemset(frozenset(extended), sum(supports), supports))
                if groups:
                    children.append((extended, groups[frequent[condition]], i + 1))
        stack.extend(reversed(children))  # so they pop in ascending order
    return [fi for level in levels for fi in level]


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
    proper antecedent subsets among its consequent's rules. Ties
    in confidence go to the first subset in (size, sorted conditions)
    order, and among equal antecedents to the first rule given.
    """
    # by consequent, then antecedent as a sorted tuple, like its combinations
    best: dict[str, dict[tuple[Condition, ...], tuple[int, int]]] = {}
    for rule in rules:
        of_class = best.setdefault(rule.consequent, {})
        held = of_class.get(rule.sort_antecedent)
        if held is None or rule.support * held[1] > held[0] * rule.coverage:
            of_class[rule.sort_antecedent] = (rule.support, rule.coverage)
    out: list[Optional[tuple[int, int]]] = []
    for rule in rules:
        items = rule.sort_antecedent
        lookup = best[rule.consequent].get
        shadow = None
        for k in range(len(items)):
            for sub in combinations(items, k):
                found = lookup(sub)
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
