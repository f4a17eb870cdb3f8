"""The miners against the row-scanning references in oracles.py, and the
interval-counting sweep against one independent run per threshold.

Both miners tally distinct-row lists weighted by their multiplicities;
the references filter instance lists, enumerate condition sets and join
row bitsets level by level."""

import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behavrules import agt, apriori, harness, precedence
from behavrules.datamodel import (
    ConfigError,
    ContextSchema,
    Dataset,
    EmptyDatasetError,
    Instance,
    Rule,
)

from oracles import (
    brute_force_cars,
    direct_frequent,
    distinct_row_ids,
    level_wise_frequent,
    random_dataset,
    reference_filter_redundant,
    reference_ranking,
    reference_sweep,
    reference_tree,
    rule_keys,
)

THRESHOLDS = [Fraction(1), Fraction(9, 10), Fraction(3, 4), Fraction(1, 2)]
# (max_attrs, max_vals, max_inst): tiny trees and wider ones with ties, and
# nodes with many children, like a 2-hour weekday Time attribute's
SHAPES = [(3, 3, 12), (4, 4, 60), (5, 3, 150), (4, 24, 400)]
# the shapes whose every condition set the exhaustive references can enumerate
ENUMERABLE = SHAPES[:3]


def _datasets(seed, count, shapes=SHAPES):
    rng = random.Random(seed)
    return [random_dataset(rng, *shapes[i % len(shapes)]) for i in range(count)]


def _node_fields(root):
    return [
        (n.node_id, n.branch, n.dominant_behavior, n.support, n.size,
         n.redundant)
        for n in root.walk()
    ]


def _extracted_tree(ds, cfg):
    """build_tree's tree after the one extract_rules for cfg that marks it."""
    root = agt.build_tree(ds, cfg)
    agt.extract_rules(root, cfg)
    return root


@pytest.mark.parametrize("global_ranking", [False, True])
@pytest.mark.parametrize("strict", [False, True])
def test_tree_matches_reference_node_by_node(global_ranking, strict):
    for ds in _datasets(31, 80):
        for t in THRESHOLDS:
            cfg = agt.MiningConfig(t, global_ranking=global_ranking, strict_redundancy=strict)
            assert _node_fields(_extracted_tree(ds, cfg)) == _node_fields(reference_tree(ds, cfg))


def test_ranking_and_gains_match_reference_exactly():
    for ds in _datasets(37, 120):
        names = list(ds.schema.attribute_names)
        expected = reference_ranking(ds.schema, ds.instances, names)
        # exact float equality: entropies are exactly rounded sums, children summed
        # in domain order on both sides
        assert precedence.rank_contexts(ds, names).entries == expected
        for name, gain in expected:
            assert precedence.information_gain(ds, name) == gain


def _first_seen_counts(labels):
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return counts


def test_class_counts_keep_first_occurrence_order():
    for ds in _datasets(41, 80):
        direct = _first_seen_counts(inst.behavior for inst in ds.instances)
        assert list(ds.class_counts().items()) == list(direct.items())


def _label_counts(labels, behaviors):
    behaviors = list(behaviors)
    return tuple(behaviors.count(label) for label in labels)


@pytest.mark.parametrize("global_ranking", [False, True])
def test_every_split_counts_classes_in_label_order(monkeypatch, global_ranking):
    # (dataset, distinct-row ids, class counts or None, attribute, children) of every
    # split and of every child_counts, which growth calls where it ranks nothing
    calls = []
    real_split, real_child_counts = precedence.split, precedence.child_counts

    def recording_split(ds, rows, counts, attr):
        result = real_split(ds, rows, counts, attr)
        calls.append((ds, list(rows), counts, result.attr, result.children))
        return result

    def recording_child_counts(ds, rows, attr):
        result = real_child_counts(ds, rows, attr)
        calls.append((ds, list(rows), None, attr, result))
        return result

    monkeypatch.setattr(precedence, "split", recording_split)
    monkeypatch.setattr(precedence, "child_counts", recording_child_counts)
    for ds in _datasets(53, 40):
        agt.build_tree(ds, agt.MiningConfig(Fraction(1), global_ranking=global_ranking))
    assert any(counts is not None for _, _, counts, _, _ in calls)
    groups = {}
    for ds, ids, _, _, _ in calls:
        assert len(set(ids)) == len(ids)
        if id(ds) not in groups:
            groups[id(ds)] = distinct_row_ids(ds)
    # the dataset rows that each call's distinct-row ids stand for
    calls = [
        (ds, sorted(i for d in ids for i in groups[id(ds)][d]), counts, attr, children)
        for ds, ids, counts, attr, children in calls
    ]
    assert any(len(rows) < len(ds) for ds, rows, _, _, _ in calls)  # below the root too
    for ds, rows, counts, attr, children in calls:
        labels = sorted(ds.schema.behavior_classes)
        node = [ds.instances[i] for i in rows]  # the node's instances
        if counts is not None:
            assert tuple(counts) == _label_counts(labels, (i.behavior for i in node))
        present = {i.values[attr] for i in node}
        domain = ds.schema.domain(attr)
        assert [val for val, _ in children] == [v for v in domain if v in present]
        for val, child in children:
            scanned = (i.behavior for i in node if i.values[attr] == val)
            assert child == _label_counts(labels, scanned)


@pytest.mark.parametrize("min_support", [1, 2, 3])
def test_mine_frequent_supports_match_direct_counting(min_support):
    for ds in _datasets(43, 45, ENUMERABLE):
        found = apriori.mine_frequent(ds, min_support)
        assert {fi.items: fi.support for fi in found} == direct_frequent(ds, min_support)
        labels = sorted(ds.schema.behavior_classes)
        for fi in found:
            matching = [i.behavior for i in ds.instances if i.values.items() >= fi.items]
            assert fi.class_supports == tuple(matching.count(cls) for cls in labels)
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
    return random_dataset(
        draw(st.randoms(use_true_random=False)), *draw(st.sampled_from(ENUMERABLE))
    )


@SETTINGS
@given(
    ds=datasets(),
    thresholds=st.lists(FRACTIONS.filter(bool), min_size=1, max_size=5),
    min_support=st.integers(1, 4),
    class_filter=st.none() | st.frozensets(st.sampled_from(["c0", "c1", "c2"])),
    global_ranking=st.booleans(),
    strict=st.booleans(),
)
def test_remarked_tree_matches_reference_at_last_threshold(
    ds, thresholds, min_support, class_filter, global_ranking, strict
):
    configs = [
        agt.MiningConfig(
            t, min_support, class_filter,
            global_ranking=global_ranking, strict_redundancy=strict,
        )
        for t in thresholds
    ]
    # every extraction re-marks the one tree; nothing else does
    root = agt.build_tree(ds, configs[0])
    for cfg in configs:
        rules = agt.extract_rules(root, cfg)
    cfg = configs[-1]
    assert _node_fields(root) == _node_fields(reference_tree(ds, cfg))
    assert rules == agt.extract_rules(agt.build_tree(ds, cfg), cfg)
    assert rule_keys(rules) <= brute_force_cars(ds, cfg.confidence_threshold, min_support)


@SETTINGS
@given(
    ds=datasets(),
    t=FRACTIONS.filter(bool),
    min_support=st.integers(1, 4),
    class_filter=st.none() | st.frozensets(st.sampled_from(["c0", "c1", "c2"])),
    global_ranking=st.booleans(),
    strict=st.booleans(),
)
def test_growth_marks_nothing_and_one_extraction_marks_like_the_reference(
    ds, t, min_support, class_filter, global_ranking, strict
):
    cfg = agt.MiningConfig(
        t, min_support, class_filter, global_ranking=global_ranking, strict_redundancy=strict,
    )
    root = agt.build_tree(ds, cfg)
    assert not any(n.redundant for n in root.walk())
    agt.extract_rules(root, cfg)
    assert _node_fields(root) == _node_fields(reference_tree(ds, cfg))


@st.composite
def duplicate_heavy_datasets(draw):
    """A few distinct rows, each repeated, in any order.

    Counts are skewed, all 1 (every row distinct), or all equal with every
    class for each context (ties in class counts). One distinct row gives
    a single row or an all-duplicates dataset.
    """
    pool = random_dataset(
        draw(st.randoms(use_true_random=False)), *draw(st.sampled_from(ENUMERABLE))
    )
    chosen = draw(st.lists(
        st.sampled_from(pool.instances), min_size=1, max_size=5,
        unique_by=lambda inst: (tuple(sorted(inst.values.items())), inst.behavior),
    ))
    mode = draw(st.sampled_from(["skewed", "distinct", "tied"]))
    rows = []
    if mode == "tied":
        for inst in chosen:
            rows += [Instance(inst.values, c) for c in sorted(pool.schema.behavior_classes)]
        rows *= draw(st.integers(1, 30))
    else:
        for inst in chosen:
            count = 1 if mode == "distinct" else draw(st.sampled_from([1, 2, 3, 8, 40, 150]))
            rows += [inst] * count
    return Dataset.create(pool.schema, draw(st.permutations(rows)))


def _rows_of(*rows):
    schema = ContextSchema.create([("a0", ["v0", "v1"]), ("a1", ["v0", "v1"])], ["c0", "c1"])
    return Dataset.create(
        schema, [Instance({"a0": a0, "a1": a1}, c) for a0, a1, c in rows]
    )


EVERY_ROW = [(a0, a1, c) for a0 in ("v0", "v1") for a1 in ("v0", "v1") for c in ("c0", "c1")]


@SETTINGS
@given(ds=duplicate_heavy_datasets(), t=st.sampled_from(THRESHOLDS))
@example(ds=_rows_of(("v0", "v1", "c0")), t=Fraction(1))  # a single row
@example(ds=_rows_of(*[("v1", "v0", "c1")] * 50), t=Fraction(1))  # all duplicates
@example(ds=_rows_of(*EVERY_ROW), t=Fraction(1, 2))  # all distinct, every count tied
@example(ds=_rows_of(*EVERY_ROW * 3, *EVERY_ROW[:3] * 9), t=Fraction(3, 4))  # skewed
def test_duplicate_heavy_trees_and_rankings_match_reference(ds, t):
    assert ds.codes.counts == [len(ids) for ids in distinct_row_ids(ds)]
    for global_ranking in (False, True):
        for strict in (False, True):
            cfg = agt.MiningConfig(t, global_ranking=global_ranking, strict_redundancy=strict)
            assert _node_fields(_extracted_tree(ds, cfg)) == _node_fields(reference_tree(ds, cfg))
    names = list(ds.schema.attribute_names)
    expected = reference_ranking(ds.schema, ds.instances, names)
    assert precedence.rank_contexts(ds, names).entries == expected  # exact floats
    for name, gain in expected:
        assert precedence.information_gain(ds, name) == gain


def test_trees_of_empty_and_attributeless_datasets_still_raise():
    empty = Dataset.create(ContextSchema.create([("a", ["x"])], ["c0", "c1"]), [])
    bare = Dataset.create(ContextSchema.create([], ["c0", "c1"]), [Instance({}, "c0")] * 3)
    with pytest.raises(EmptyDatasetError, match="cannot mine an empty dataset"):
        agt.build_tree(empty, agt.MiningConfig(Fraction(1)))
    with pytest.raises(ConfigError, match="schema has no context attributes"):
        agt.build_tree(bare, agt.MiningConfig(Fraction(1)))
    assert precedence.rank_contexts(empty, ["a"]).entries == (("a", 0.0),)
    assert precedence.rank_contexts(bare, []).entries == ()


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
@given(ds=st.one_of(duplicate_heavy_datasets(), edge_datasets()), data=st.data())
def test_tally_counts_like_a_scan_of_the_instances(ds, data):
    rows = list(dict.fromkeys(zip(*ds.columns, ds.behaviors)))  # in distinct-row id order
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    chosen = [d for d, kept in enumerate(keep) if kept]  # ascending distinct-row ids
    wanted = {rows[d] for d in chosen}
    names = ds.schema.attribute_names
    labels = sorted(ds.schema.behavior_classes)
    for attr in names:
        domain = ds.schema.domain(attr)
        expected = {}
        for inst in ds.instances:
            if (*(inst.values[name] for name in names), inst.behavior) in wanted:
                by_class = expected.setdefault(domain.index(inst.values[attr]), [0] * len(labels))
                by_class[labels.index(inst.behavior)] += 1
        # each present value's class counts in label order, values ascending
        assert ds.codes.tally(attr, chosen) == [(v, tuple(expected[v])) for v in sorted(expected)]


@SETTINGS
@given(
    ds=st.one_of(datasets(), duplicate_heavy_datasets(), edge_datasets()),
    min_support=st.integers(1, 4),
    reverse=st.booleans(),
)
def test_mine_frequent_returns_the_order_generate_cars_needs(ds, min_support, reverse):
    if reverse:  # so schema order is not name order
        schema = ContextSchema.create(ds.schema.attributes[::-1], ds.schema.behavior_classes)
        ds = Dataset.from_columns(schema, ds.columns[::-1], ds.behaviors)
    # generate_cars does not sort: its output order is its input's
    found = apriori.mine_frequent(ds, min_support)
    keys = [(len(fi.items), tuple(sorted(fi.items))) for fi in found]
    assert keys == sorted(keys)
    assert [(fi.items, fi.support, fi.class_supports) for fi in found] == \
        level_wise_frequent(ds, min_support)


@SETTINGS
@given(
    ds=st.one_of(datasets(), duplicate_heavy_datasets()),
    t=st.sampled_from(THRESHOLDS),
    min_support=st.integers(1, 4),
)
def test_filtered_apriori_keeps_the_minimal_brute_force_rules(ds, t, min_support):
    every = brute_force_cars(ds, t, min_support)
    minimal = {
        rule for rule in every
        if not any(other[1] == rule[1] and other[0] < rule[0] for other in every)
    }
    cars = apriori.generate_cars(ds, apriori.mine_frequent(ds, min_support), t, min_support)
    assert rule_keys(apriori.filter_redundant(cars)) == minimal


def _breakpoints(ds):
    """Every tree node and CAR confidence of ds: the ends of every rule's interval.

    They include every parent confidence and every shadow's, which is a
    CAR's.
    """
    points = {Fraction(s, c) for _, _, s, c in brute_force_cars(ds, Fraction(0))}
    if len(ds) and ds.schema.attribute_names:
        tree = reference_tree(ds, agt.MiningConfig(Fraction(1)))
        points |= {Fraction(n.support, n.size) for n in tree.walk()}
    return points


@st.composite
def sweep_cases(draw):
    """A dataset and thresholds: arbitrary ones, or its breakpoints and the midpoints between."""
    ds = draw(st.one_of(datasets(), datasets(), datasets(), edge_datasets()))  # 1 in 4 edge
    points = sorted(_breakpoints(ds) | {Fraction(1)})
    between = [(a + b) / 2 for a, b in zip([Fraction(0)] + points, points)]
    at_breakpoints = st.lists(st.sampled_from(points + between), max_size=8, unique=True)
    return ds, draw(st.one_of(SWEEP_THRESHOLDS, at_breakpoints.map(sorted)))


@SETTINGS
@given(case=sweep_cases(), decreasing=st.booleans(), min_support=st.integers(0, 4))
def test_sweep_matches_one_run_per_threshold(case, decreasing, min_support):
    ds, thresholds = case
    if decreasing:
        thresholds.reverse()
    if min_support < 1 or not all(0 < t <= 1 for t in thresholds):
        # an input error of the whole sweep, raised alike
        with pytest.raises(ConfigError) as expected:
            reference_sweep(ds, thresholds, min_support)
        with pytest.raises(ConfigError, match="^%s$" % re.escape(str(expected.value))):
            harness.sweep(ds, thresholds, min_support)
        return
    with mock.patch.object(apriori, "mine_frequent", wraps=apriori.mine_frequent) as mine, \
            mock.patch.object(agt, "build_tree", wraps=agt.build_tree) as build, \
            mock.patch.object(agt, "extract_rules", wraps=agt.extract_rules) as extract:
        report = harness.sweep(ds, thresholds, min_support)
    assert report == reference_sweep(ds, thresholds, min_support)
    # the sweep mines the baseline once and counts rule intervals of at most
    # one tree; it extracts nothing
    assert build.call_count <= mine.call_count == (1 if thresholds else 0)
    assert extract.call_count == 0
    if any(row.error is None for row in report.rows):
        assert build.call_count == 1


@SETTINGS
@given(ds=st.one_of(datasets(), duplicate_heavy_datasets()), min_support=st.integers(1, 3))
def test_rule_intervals_hold_each_threshold_the_extracted_rules_meet(ds, min_support):
    # one tree, grown once, is extracted at every probe
    root = agt.build_tree(ds, agt.MiningConfig(Fraction(1)))
    intervals = [
        (Fraction(*lo), Fraction(*hi)) for lo, hi in agt.rule_intervals(root, min_support)
    ]
    ends = sorted({end for interval in intervals for end in interval if end})
    between = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for t in ends + between:
        held = sum(1 for lo, hi in intervals if lo < t <= hi)
        assert held == len(agt.extract_rules(root, agt.MiningConfig(t, min_support)))


@SETTINGS
@given(rng=st.randoms(use_true_random=False), t=FRACTIONS)
def test_shadows_mark_exactly_what_the_pairwise_filter_drops(rng, t):
    rules = _random_rules(rng)
    pairs = [(r, s) for r, s in zip(rules, apriori.shadows(rules)) if r.confidence >= t]
    base = [r for r, _ in pairs]
    kept = [r for r, s in pairs if s is None or Fraction(*s) < t]
    assert kept == reference_filter_redundant(base)
