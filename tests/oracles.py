"""Independent reference implementations used to check the miners.

Nothing here shares code with the package's mining paths: rules are found
by exhaustive enumeration with direct counting, with no candidate pruning,
and the reference tree and filter are the row-scanning and pairwise
versions the package replaced.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

from behavrules.datamodel import ContextSchema, Dataset, Instance, Rule

GAIN_TOLERANCE = 1e-12


def brute_force_cars(ds, threshold, min_support=1):
    """Every rule over every condition subset and class, by direct counting."""
    rules = set()
    attrs = ds.schema.attributes
    for k in range(1, len(attrs) + 1):
        for chosen in itertools.combinations(attrs, k):
            for values in itertools.product(*(domain for _, domain in chosen)):
                conditions = tuple(
                    (name, val) for (name, _), val in zip(chosen, values)
                )
                coverage = sum(1 for i in ds.instances if i.matches(conditions))
                if coverage == 0:
                    continue
                per_class = {}
                for inst in ds.instances:
                    if inst.matches(conditions):
                        per_class[inst.behavior] = per_class.get(inst.behavior, 0) + 1
                for cls, support in per_class.items():
                    if support >= min_support and coverage >= min_support:
                        if Fraction(support, coverage) >= threshold:
                            rules.add((frozenset(conditions), cls, support, coverage))
    return rules


def direct_frequent(ds, min_support=1):
    """{frozenset(conditions): support} of every frequent condition set."""
    found = {}
    attrs = ds.schema.attributes
    for k in range(1, len(attrs) + 1):
        for chosen in itertools.combinations(attrs, k):
            for values in itertools.product(*(domain for _, domain in chosen)):
                conditions = tuple(
                    (name, val) for (name, _), val in zip(chosen, values)
                )
                support = sum(1 for i in ds.instances if i.matches(conditions))
                if support >= min_support:
                    found[frozenset(conditions)] = support
    return found


def reference_filter_redundant(rules):
    """The quadratic minimal-antecedent filter: compare every pair of rules."""
    kept = []
    for rule in rules:
        shadowed = any(
            other.consequent == rule.consequent and other.antecedent < rule.antecedent
            for other in rules
        )
        if not shadowed:
            kept.append(rule)
    return kept


def _class_counts(instances):
    counts = {}
    for inst in instances:
        counts[inst.behavior] = counts.get(inst.behavior, 0) + 1
    return counts


def _entropy(instances):
    n = len(instances)
    total = 0.0
    for count in _class_counts(instances).values():
        p = count / n
        total -= p * math.log2(p)
    return total


def _gain(schema, instances, attr):
    n = len(instances)
    if n == 0:
        return 0.0
    split_entropy = 0.0
    for val in schema.domain(attr):
        sub = [i for i in instances if i.values[attr] == val]
        if sub:
            split_entropy += (len(sub) / n) * _entropy(sub)
    return max(_entropy(instances) - split_entropy, 0.0)


def reference_ranking(schema, instances, candidates):
    """(attribute, gain) pairs by gain, ties within 1e-12 by name."""
    gains = [(name, _gain(schema, instances, name)) for name in candidates]

    def compare(a, b):
        if a[1] > b[1] + GAIN_TOLERANCE:
            return -1
        if b[1] > a[1] + GAIN_TOLERANCE:
            return 1
        return -1 if a[0] < b[0] else (1 if a[0] > b[0] else 0)

    gains.sort(key=cmp_to_key(compare))
    return tuple(gains)


def reference_tree(ds, cfg):
    """Grow the association generation tree by filtering instance lists.

    The tree miner before it counted with row bitsets: every node holds
    its instances and every gain partitions them anew.
    """
    from behavrules.agt import AgtNode

    schema = ds.schema
    contexts = list(schema.attribute_names)
    global_order = None
    if cfg.global_ranking:
        global_order = [a for a, _ in reference_ranking(schema, ds.instances, contexts)]
    t = cfg.confidence_threshold
    next_id = 1

    def grow(instances, branch, remaining, ancestors):
        nonlocal next_id
        counts = _class_counts(instances)
        dominant = min(counts, key=lambda c: (-counts[c], c))
        node = AgtNode(next_id, branch, dominant, counts[dominant], len(instances))
        next_id += 1
        if ancestors and node.confidence >= t:
            compare_to = [ancestors[-1]]
            if cfg.strict_redundancy:
                qualifying = [a for a in ancestors if a.confidence >= t]
                if qualifying:
                    compare_to.append(qualifying[-1])
            node.redundant = any(
                anc.confidence >= t and anc.dominant_behavior == dominant
                for anc in compare_to
            )
        if node.confidence == 1 or not remaining:
            return node
        if global_order is not None:
            split = next(a for a in global_order if a in remaining)
        else:
            split = reference_ranking(schema, instances, remaining)[0][0]
        node.split_attribute = split
        rest = [a for a in remaining if a != split]
        for val in schema.domain(split):
            sub = [i for i in instances if i.values[split] == val]
            if sub:
                node.children.append(grow(sub, (split, val), rest, ancestors + [node]))
        return node

    return grow(list(ds.instances), None, contexts, [])


def random_dataset(rng: random.Random, max_attrs=4, max_vals=4, max_inst=12):
    """Small random categorical dataset for property checks."""
    n_attrs = rng.randint(1, max_attrs)
    attrs = []
    for i in range(n_attrs):
        n_vals = rng.randint(1, max_vals)
        attrs.append(("a%d" % i, ["v%d" % j for j in range(n_vals)]))
    n_classes = rng.randint(2, 3)
    classes = ["c%d" % j for j in range(n_classes)]
    schema = ContextSchema.create(attrs, classes)
    n = rng.randint(1, max_inst)
    instances = [
        Instance(
            {name: rng.choice(domain) for name, domain in schema.attributes},
            rng.choice(classes),
        )
        for _ in range(n)
    ]
    return Dataset.create(schema, instances)


def example_tree():
    """Hand-built tree mirroring the worked three-context example.

    Root splits on Activity; the Meeting branch splits on Relation (its
    Friend child repeats the parent's class and is REDUNDANT), the Lunch
    branch sits below an 80% threshold and splits on Relation as well.
    Node ids are chosen so rule-producing nodes are 2, 3, 4, 5 and 7.
    """
    from behavrules.agt import AgtNode

    lecture = AgtNode(2, ("Activity", "Lecture"), "Reject", 100, 100)
    meeting = AgtNode(3, ("Activity", "Meeting"), "Reject", 85, 100,
                      split_attribute="Relation")
    lunch_friend = AgtNode(4, ("Relation", "Friend"), "Accept", 92, 100)
    lunch_unknown = AgtNode(5, ("Relation", "Unknown"), "Missed", 95, 100)
    meeting_friend = AgtNode(6, ("Relation", "Friend"), "Reject", 90, 100,
                             redundant=True)
    meeting_boss = AgtNode(7, ("Relation", "Boss"), "Accept", 100, 100)
    lunch = AgtNode(8, ("Activity", "Lunch"), "Accept", 55, 100,
                    split_attribute="Relation")
    meeting.children = [meeting_friend, meeting_boss]
    lunch.children = [lunch_friend, lunch_unknown]
    root = AgtNode(1, None, "Reject", 150, 300, split_attribute="Activity")
    root.children = [lecture, meeting, lunch]
    return root


def rule_keys(rules):
    """Comparable identity tuples for a list of package Rule objects."""
    return {(r.antecedent, r.consequent, r.support, r.coverage) for r in rules}
