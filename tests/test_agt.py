import gc
import json
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import behavrules
from behavrules import apriori, serialize
from behavrules.agt import (
    MiningConfig,
    build_tree,
    extract_rules,
    tree_to_dot,
)
from behavrules.datamodel import (
    ConfigError,
    ContextSchema,
    Dataset,
    EmptyDatasetError,
    Instance,
)
from behavrules.fixtures import demo_dataset, demo_schema

from oracles import distinct_row_ids, example_tree, random_dataset, reference_tree, rule_keys

T75 = MiningConfig(Fraction(3, 4))
T100 = MiningConfig(Fraction(1))
DOT_NODE = re.compile(r'^  n\d+ \[label="((?:[^"\\\n]|\\.)*)"( style=dashed color=red)?\];$')


def _mine(ds, cfg):
    return extract_rules(build_tree(ds, cfg), cfg)


def _rule_set(rules):
    return {(r.sort_antecedent, r.consequent, r.support, r.coverage) for r in rules}


class TestBuildTree:
    def test_demo_tree_structure(self):
        root = build_tree(demo_dataset(), T75)
        assert not any(n.redundant for n in root.walk())  # growth marks nothing
        extract_rules(root, T75)
        assert root.node_id == 1
        assert root.branch is None
        assert not root.redundant
        assert [c.branch for c in root.children] == [
            ("Relation", "Boss"), ("Relation", "Friend"),
        ]

        boss, friend = root.children
        assert (boss.dominant_behavior, boss.support, boss.size) == ("Accept", 3, 3)
        assert boss.children == []  # pure node, never elaborated
        assert not boss.redundant

        assert (friend.dominant_behavior, friend.support, friend.size) == ("Reject", 4, 5)
        assert not friend.redundant
        meeting, lunch = friend.children
        assert meeting.branch == ("Activity", "Meeting")
        assert (meeting.dominant_behavior, meeting.support, meeting.size) == ("Reject", 4, 4)
        assert meeting.redundant  # same class as parent, both above threshold
        assert lunch.branch == ("Activity", "Lunch")
        assert (lunch.dominant_behavior, lunch.support, lunch.size) == ("Accept", 1, 1)
        assert not lunch.redundant

    def test_node_ids_follow_depth_first_creation(self):
        root = build_tree(demo_dataset(), T75)
        assert [n.node_id for n in root.walk()] == [1, 2, 3, 4, 5]

    def test_redundancy_depends_on_threshold(self):
        root = build_tree(demo_dataset(), T100)
        extract_rules(root, T100)
        friend = root.children[1]
        meeting = friend.children[0]
        # at t=100% the parent (80%) fails the threshold, so the pure
        # Meeting child is not redundant
        assert not meeting.redundant

    def test_single_class_dataset_is_a_pure_root_leaf(self):
        ds = Dataset.create(
            demo_schema(),
            [Instance({"Activity": "Lunch", "Relation": "Boss"}, "Accept")] * 4,
        )
        root = build_tree(ds, T75)
        assert root.children == []
        assert root.support == root.size == 4

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            build_tree(Dataset.create(demo_schema(), []), T75)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            MiningConfig(Fraction(0))
        with pytest.raises(ConfigError):
            MiningConfig(Fraction(3, 2))
        with pytest.raises(ConfigError):
            MiningConfig(Fraction(1, 2), min_support=0)

    def test_growth_leaves_no_cycle_holding_the_dataset(self):
        # the dataset is freed when the caller drops it, without the cyclic GC
        ds = demo_dataset()
        ref = weakref.ref(ds)
        gc.disable()
        try:
            root = build_tree(ds, T75)
            del ds
            assert ref() is None
        finally:
            gc.enable()
        assert root.children

    def test_trees_are_deterministic(self):
        rng = random.Random(31)
        for _ in range(20):
            ds = random_dataset(rng)
            a = build_tree(ds, T75)
            b = build_tree(ds, T75)
            extract_rules(a, T75)
            extract_rules(b, T75)
            assert [(n.node_id, n.branch, n.redundant) for n in a.walk()] == [
                (n.node_id, n.branch, n.redundant) for n in b.walk()
            ]


class TestExtractRules:
    def test_demo_rules_at_75(self):
        assert _rule_set(_mine(demo_dataset(), T75)) == {
            ((("Relation", "Boss"),), "Accept", 3, 3),
            ((("Relation", "Friend"),), "Reject", 4, 5),
            ((("Activity", "Lunch"), ("Relation", "Friend")), "Accept", 1, 1),
        }

    def test_demo_rules_at_100(self):
        assert _rule_set(_mine(demo_dataset(), T100)) == {
            ((("Relation", "Boss"),), "Accept", 3, 3),
            ((("Activity", "Meeting"), ("Relation", "Friend")), "Reject", 4, 4),
            ((("Activity", "Lunch"), ("Relation", "Friend")), "Accept", 1, 1),
        }

    def test_example_tree_rules_at_80(self):
        cfg = MiningConfig(Fraction(4, 5))
        rules = extract_rules(example_tree(), cfg)
        assert [(r.sort_antecedent, r.consequent, r.confidence) for r in rules] == [
            ((("Activity", "Lecture"),), "Reject", Fraction(1)),
            ((("Activity", "Meeting"),), "Reject", Fraction(85, 100)),
            ((("Activity", "Lunch"), ("Relation", "Friend")), "Accept", Fraction(92, 100)),
            ((("Activity", "Lunch"), ("Relation", "Unknown")), "Missed", Fraction(95, 100)),
            ((("Activity", "Meeting"), ("Relation", "Boss")), "Accept", Fraction(1)),
        ]

    def test_class_filter_restricts_output(self):
        cfg = MiningConfig(Fraction(3, 4), class_filter=frozenset(["Accept"]))
        rules = _mine(demo_dataset(), cfg)
        assert {r.consequent for r in rules} == {"Accept"}

    def test_min_support_prunes_rules(self):
        cfg = MiningConfig(Fraction(3, 4), min_support=2)
        rules = _mine(demo_dataset(), cfg)
        assert all(r.support >= 2 for r in rules)
        assert _rule_set(rules) == {
            ((("Relation", "Boss"),), "Accept", 3, 3),
            ((("Relation", "Friend"),), "Reject", 4, 5),
        }


class TestProperties:
    def _corpus(self, count=100, seed=41):
        rng = random.Random(seed)
        return [random_dataset(rng) for _ in range(count)]

    def test_rules_meet_threshold_and_support(self):
        for ds in self._corpus():
            for t in (Fraction(1, 2), Fraction(4, 5), Fraction(1)):
                for rule in _mine(ds, MiningConfig(t)):
                    assert rule.confidence >= t
                    assert rule.support >= 1

    def test_agt_rules_subset_of_apriori(self):
        for ds in self._corpus():
            for t in (Fraction(3, 5), Fraction(4, 5), Fraction(1)):
                agt_rules = rule_keys(_mine(ds, MiningConfig(t)))
                base = rule_keys(apriori.generate_cars(ds, apriori.mine_frequent(ds), t))
                assert agt_rules <= base

    def test_no_parent_child_redundant_pair_in_output(self):
        for ds in self._corpus():
            t = Fraction(4, 5)
            rules = _mine(ds, MiningConfig(t))
            for a in rules:
                for b in rules:
                    if a is b or a.consequent != b.consequent:
                        continue
                    # a one-condition extension along a tree edge with the
                    # same consequent must not satisfy t on both sides
                    if a.antecedent < b.antecedent and len(b.antecedent) == len(a.antecedent) + 1:
                        assert not (a.confidence >= t and b.confidence >= t)

    def test_path_attributes_are_distinct(self):
        for ds in self._corpus(40):
            root = build_tree(ds, MiningConfig(Fraction(1, 2)))

            def walk(node, seen):
                if node.branch:
                    assert node.branch[0] not in seen
                    seen = seen | {node.branch[0]}
                for child in node.children:
                    walk(child, seen)

            walk(root, set())

    def test_global_ranking_mode_uses_root_order(self):
        ds = demo_dataset()
        cfg = MiningConfig(Fraction(3, 4), global_ranking=True)
        root = build_tree(ds, cfg)
        assert [c.branch[0] for c in root.children] == ["Relation", "Relation"]
        friend = root.children[1]
        assert [c.branch[0] for c in friend.children] == ["Activity", "Activity"]

    def test_global_ranking_splits_the_root_once_per_attribute(self, monkeypatch):
        from behavrules import precedence

        ds = demo_dataset()
        groups = distinct_row_ids(ds)
        sizes = []

        def counted(ds, rows, counts, attr, split=precedence.split):
            # the dataset rows that the distinct-row ids stand for
            sizes.append(sum(len(groups[d]) for d in rows))
            return split(ds, rows, counts, attr)

        monkeypatch.setattr(precedence, "split", counted)
        build_tree(ds, MiningConfig(Fraction(3, 4), global_ranking=True))
        # the ranking's own splits of the root; no child holds every row
        assert sizes.count(len(ds)) == len(ds.schema.attribute_names)

    @staticmethod
    def _entropy_sizes(monkeypatch):
        """The n of every precedence._entropy call from now on."""
        from behavrules import precedence

        sizes = []

        def counted(counts, n, entropy=precedence._entropy):
            sizes.append(n)
            return entropy(counts, n)

        monkeypatch.setattr(precedence, "_entropy", counted)
        return sizes

    def test_one_attribute_grows_without_an_entropy(self, monkeypatch):
        # no node has two attributes to choose from, so no gain is compared
        rng = random.Random(61)
        datasets = [random_dataset(rng, 1, 6, 200) for _ in range(20)]
        expected = [tree_to_dot(reference_tree(ds, T75)) for ds in datasets]
        sizes = self._entropy_sizes(monkeypatch)
        roots = [build_tree(ds, T75) for ds in datasets]
        assert sizes == []
        assert sum(len(root.children) for root in roots) > 0
        for root in roots:
            extract_rules(root, T75)  # marks the tree as reference_tree does
        assert [tree_to_dot(root) for root in roots] == expected

    def test_global_ranking_computes_entropies_at_the_root_alone(self, monkeypatch):
        from behavrules import precedence

        cfg = MiningConfig(Fraction(3, 4), global_ranking=True)
        rng = random.Random(67)
        datasets = [random_dataset(rng, 4, 4, 200) for _ in range(30)]
        # the root ranks only where it has two attributes or more
        datasets = [ds for ds in datasets if len(ds.schema.attribute_names) > 1]
        expected = [tree_to_dot(reference_tree(ds, cfg)) for ds in datasets]
        sizes = self._entropy_sizes(monkeypatch)
        for ds, dot in zip(datasets, expected):
            precedence.rank_contexts(ds, list(ds.schema.attribute_names))
            at_root = sizes[:]
            sizes.clear()
            root = build_tree(ds, cfg)
            assert sizes == at_root
            sizes.clear()
            extract_rules(root, cfg)
            assert tree_to_dot(root) == dot

    def test_strict_redundancy_checks_nearest_qualifying_ancestor(self):
        # grandparent and grandchild agree at threshold, parent dips below
        schema = ContextSchema.create(
            [("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
            ["X", "Y"],
        )

        def inst(a, b, c, cls):
            return Instance({"A": a, "B": b, "C": c}, cls)

        instances = (
            [inst("a1", "b1", "c1", "X")] * 6
            + [inst("a1", "b1", "c2", "Y")] * 4
            + [inst("a1", "b2", "c1", "X")] * 8
            + [inst("a2", "b1", "c1", "Y")] * 10
        )
        ds = Dataset.create(schema, instances)
        t = Fraction(7, 10)
        lax = _mine(ds, MiningConfig(t))
        strict = _mine(ds, MiningConfig(t, strict_redundancy=True))
        assert rule_keys(strict) <= rule_keys(lax)


class TestDotExport:
    def test_dot_contains_all_nodes_and_marks_redundant(self):
        root = build_tree(demo_dataset(), T75)
        assert "dashed" not in tree_to_dot(root)  # drawn before any extraction
        extract_rules(root, T75)
        dot = tree_to_dot(root)
        assert dot.startswith("digraph agt {")
        for node in root.walk():
            assert "n%d [label=" % node.node_id in dot
        assert dot.count("style=dashed color=red") == 1  # the redundant node
        assert "n1 -> n2;" in dot

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_labels_escape_backslashes_quotes_and_line_feeds(self, data):
        # names, values and classes drawn from the characters a DOT string must
        # escape and the letters of graphviz's own escapes (\N, \l, \n)
        text = st.text(alphabet='\\"\nNln =|%', min_size=1, max_size=5)
        names = data.draw(st.lists(text, min_size=1, max_size=2, unique=True))
        attrs = [(name, data.draw(st.lists(text, min_size=1, max_size=3, unique=True)))
                 for name in names]
        classes = data.draw(st.lists(text, min_size=2, max_size=3, unique=True))
        rows = data.draw(st.lists(
            st.tuples(*(st.sampled_from(d) for _, d in attrs), st.sampled_from(classes)),
            min_size=1, max_size=12,
        ))
        *columns, behaviors = zip(*rows)
        ds = Dataset.from_columns(ContextSchema.create(attrs, classes), columns, behaviors)
        root = build_tree(ds, T75)
        extract_rules(root, T75)
        lines = tree_to_dot(root).split("\n")
        nodes = list(root.walk())
        edges = ["  n%d -> n%d;" % (n.node_id, c.node_id) for n in nodes for c in n.children]
        assert lines[2 + len(nodes):] == edges + ["}", ""]
        for node, line in zip(nodes, lines[2:]):
            match = DOT_NODE.match(line)
            assert match, line
            label = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], match[1])
            branch = "%s=%s" % node.branch if node.branch else "root"
            assert label == "%d | %s | %s %.0f%%" % (
                node.node_id, branch, node.dominant_behavior, node.support / node.size * 100,
            )


REPO = Path(__file__).resolve().parents[1]


def test_traced_mine_agt_counts_the_tree_it_grows(tmp_path):
    """The benchmark's tracer (perfbench/op.py, TRACE=1) still finds the tree miner."""
    dataset = REPO / "tests" / "golden" / "dataset.csv"
    src = Path(behavrules.__file__).resolve().parents[1]
    command = ["mine-agt", str(dataset), "--min-conf", "80", "--dot", "t.dot"]
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "op.py"), str(src), str(tmp_path), "1",
         json.dumps(command)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0, result["error"]
    ds = serialize.dataset_from_csv(dataset.read_text(encoding="utf-8"))
    cfg = MiningConfig(Fraction(4, 5))
    root = build_tree(ds, cfg)
    rules = extract_rules(root, cfg)  # marks the tree as the command does
    redundant = sum(n.redundant for n in root.walk())
    assert rules and redundant
    assert result["layers"]["agt.build_tree_calls"] == 1
    assert result["layers"]["agt.nodes"] == len(list(root.walk()))
    assert result["layers"]["agt.rules"] == len(rules)
    assert result["layers"]["agt.redundant_nodes"] == redundant
