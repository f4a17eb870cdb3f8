"""The bitset-counting miners against the row-scanning references in oracles.py,
and the one-pass sweep against one independent run per threshold."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behavrules import agt, apriori, harness, precedence
from behavrules.datamodel import ContextSchema, Dataset, Instance, Rule

from oracles import (
    direct_frequent,
    random_dataset,
    reference_filter_redundant,
    reference_ranking,
    reference_sweep,
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


SETTINGS = settings(max_examples=150, deadline=None)
FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def datasets(draw):
    return random_dataset(draw(st.randoms(use_true_random=False)), *draw(st.sampled_from(SHAPES)))


@SETTINGS
@given(
    ds=datasets(),
    thresholds=st.lists(FRACTIONS.filter(bool), min_size=1, max_size=5),
    global_ranking=st.booleans(),
    strict=st.booleans(),
)
def test_remarked_tree_matches_reference_at_last_threshold(ds, thresholds, global_ranking, strict):
    configs = [
        agt.MiningConfig(t, global_ranking=global_ranking, strict_redundancy=strict)
        for t in thresholds
    ]
    root = agt.build_tree(ds, configs[0])
    for cfg in configs[1:]:
        agt.mark_redundant(root, cfg)
    assert _node_fields(root) == _node_fields(reference_tree(ds, configs[-1]))


# thresholds outside (0, 1] and min_support 0 give error rows
SWEEP_THRESHOLDS = st.lists(
    st.one_of(FRACTIONS, st.sampled_from([Fraction(-1, 2), Fraction(5, 4)])),
    min_size=0, max_size=6, unique=True,
).map(sorted)


@st.composite
def edge_datasets(draw):
    """An empty dataset or one without context attributes: every row fails."""
    if draw(st.booleans()):
        schema = ContextSchema.create([("a", ["x"])], ["c0", "c1"])
        return Dataset.create(schema, [])
    schema = ContextSchema.create([], ["c0", "c1"])
    return Dataset.create(schema, [Instance({}, "c0")] * draw(st.integers(1, 3)))


@SETTINGS
@given(
    ds=st.one_of(datasets(), datasets(), datasets(), edge_datasets()),  # 1 in 4 edge cases
    thresholds=SWEEP_THRESHOLDS,
    decreasing=st.booleans(),
    min_support=st.integers(0, 4),
)
def test_sweep_matches_one_run_per_threshold(ds, thresholds, decreasing, min_support):
    if decreasing:
        thresholds.reverse()
    assert harness.sweep(ds, thresholds, min_support) == reference_sweep(
        ds, thresholds, min_support
    )


@SETTINGS
@given(rng=st.randoms(use_true_random=False), t=FRACTIONS)
def test_shadows_mark_exactly_what_the_pairwise_filter_drops(rng, t):
    rules = _random_rules(rng)
    pairs = [(r, s) for r, s in zip(rules, apriori.shadows(rules)) if r.confidence >= t]
    base = [r for r, _ in pairs]
    kept = [r for r, s in pairs if s is None or Fraction(*s) < t]
    assert kept == reference_filter_redundant(base)
