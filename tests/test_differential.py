"""The bitset-counting miners against the row-scanning references in oracles.py."""

import random
from fractions import Fraction

import pytest

from behavrules import agt, apriori, precedence
from behavrules.datamodel import Rule

from oracles import (
    direct_frequent,
    random_dataset,
    reference_filter_redundant,
    reference_ranking,
    reference_tree,
)

THRESHOLDS = [Fraction(1), Fraction(9, 10), Fraction(3, 4), Fraction(1, 2)]
# (max_attrs, max_vals, max_inst): tiny trees and wider ones with ties
SHAPES = [(3, 3, 12), (4, 4, 60), (5, 3, 150)]


def _datasets(seed, count):
    rng = random.Random(seed)
    return [random_dataset(rng, *SHAPES[i % len(SHAPES)]) for i in range(count)]


def _node_fields(root):
    return [
        (n.node_id, n.branch, n.dominant_behavior, n.support, n.size,
         n.redundant, n.split_attribute)
        for n in root.walk()
    ]


@pytest.mark.parametrize("global_ranking", [False, True])
@pytest.mark.parametrize("strict", [False, True])
def test_tree_matches_reference_node_by_node(global_ranking, strict):
    for ds in _datasets(31, 60):
        for t in THRESHOLDS:
            cfg = agt.MiningConfig(t, global_ranking=global_ranking, strict_redundancy=strict)
            assert _node_fields(agt.build_tree(ds, cfg)) == _node_fields(reference_tree(ds, cfg))


def test_ranking_and_gains_match_reference_exactly():
    for ds in _datasets(37, 90):
        names = list(ds.schema.attribute_names)
        expected = reference_ranking(ds.schema, ds.instances, names)
        # exact float equality: the sums run in the same order
        assert precedence.rank_contexts(ds, names).entries == expected
        for name, gain in expected:
            assert precedence.information_gain(ds, name) == gain


def test_class_counts_keep_first_occurrence_order():
    for ds in _datasets(41, 60):
        direct = {}
        for inst in ds.instances:
            direct[inst.behavior] = direct.get(inst.behavior, 0) + 1
        assert list(ds.class_counts().items()) == list(direct.items())


@pytest.mark.parametrize("min_support", [1, 2, 3])
def test_mine_frequent_supports_match_direct_counting(min_support):
    for ds in _datasets(43, 45):
        found = apriori.mine_frequent(ds, min_support)
        assert {fi.items: fi.support for fi in found} == direct_frequent(ds, min_support)
        keys = [(len(fi.items), sorted(fi.items)) for fi in found]
        assert keys == sorted(keys)  # level-wise, then sorted conditions


def _random_rules(rng):
    attrs = [("a%d" % i, ["v0", "v1"]) for i in range(4)]
    pool = []
    for _ in range(rng.randint(0, 25)):
        chosen = rng.sample(attrs, rng.randint(0, len(attrs)))
        antecedent = frozenset((name, rng.choice(domain)) for name, domain in chosen)
        coverage = rng.randint(1, 9)
        pool.append(Rule(antecedent, rng.choice("xy"), rng.randint(1, coverage), coverage))
    rules = pool + [rng.choice(pool) for _ in range(rng.randint(0, 3)) if pool]
    rng.shuffle(rules)
    return rules


def test_filter_redundant_matches_pairwise_reference():
    rng = random.Random(47)
    empty_seen = duplicate_seen = False
    for _ in range(400):
        rules = _random_rules(rng)
        empty_seen |= any(not r.antecedent for r in rules)
        duplicate_seen |= len(set(rules)) < len(rules)
        assert apriori.filter_redundant(rules) == reference_filter_redundant(rules)
    assert empty_seen and duplicate_seen
