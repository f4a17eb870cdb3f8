import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import behavrules
from behavrules import apriori, serialize
from behavrules.apriori import (
    filter_redundant,
    generate_cars,
    mine_frequent,
)
from behavrules.cli import main
from behavrules.datamodel import ConfigError, ContextSchema, Dataset, Rule
from behavrules.fixtures import (
    demo_dataset,
    demo_schema,
    sample_rule_dataset,
    sample_rule_set,
)

from oracles import brute_force_cars, level_wise_frequent, random_dataset, rule_keys


def _cars(ds, threshold):
    return generate_cars(ds, mine_frequent(ds), threshold)


def _itemsets(frequent):
    return {fi.items: fi.support for fi in frequent}


class TestMineFrequent:
    def test_empty_dataset_yields_nothing(self):
        assert mine_frequent(Dataset.create(demo_schema(), []), 1) == []

    def test_demo_support_one_finds_all_eight(self):
        found = _itemsets(mine_frequent(demo_dataset(), 1))
        expected = {
            frozenset({("Activity", "Meeting")}): 6,
            frozenset({("Activity", "Lunch")}): 2,
            frozenset({("Relation", "Boss")}): 3,
            frozenset({("Relation", "Friend")}): 5,
            frozenset({("Activity", "Meeting"), ("Relation", "Boss")}): 2,
            frozenset({("Activity", "Meeting"), ("Relation", "Friend")}): 4,
            frozenset({("Activity", "Lunch"), ("Relation", "Boss")}): 1,
            frozenset({("Activity", "Lunch"), ("Relation", "Friend")}): 1,
        }
        assert found == expected

    def test_demo_support_five(self):
        found = _itemsets(mine_frequent(demo_dataset(), 5))
        assert found == {
            frozenset({("Activity", "Meeting")}): 6,
            frozenset({("Relation", "Friend")}): 5,
        }

    def test_downward_closure(self):
        rng = random.Random(51)
        for _ in range(50):
            ds = random_dataset(rng)
            frequent = mine_frequent(ds, 2)
            supports = _itemsets(frequent)
            for items in supports:
                for item in items:
                    if len(items) > 1:
                        sub = items - {item}
                        assert sub in supports
                        assert supports[sub] >= supports[items]

    def test_bad_min_support_rejected(self):
        with pytest.raises(ConfigError):
            mine_frequent(demo_dataset(), 0)

    @pytest.mark.parametrize("bound", [1, 8, 9, 10, 35, 36, 62, 63, 64])
    def test_the_itemset_bound_holds_exactly_at_its_edge(self, monkeypatch, bound):
        ds = _reverse_order_dataset()
        every = mine_frequent(ds)
        # 9 itemsets of one condition, 27 of two and 27 of three
        assert [len(fi.items) for fi in every] == [1] * 9 + [2] * 27 + [3] * 27
        monkeypatch.setattr(apriori, "MAX_ITEMSETS", bound)
        if bound >= len(every):
            assert mine_frequent(ds) == every
        else:
            message = "more than %d frequent itemsets (apriori.MAX_ITEMSETS)" % bound
            with pytest.raises(ConfigError, match=r"^%s$" % re.escape(message)):
                mine_frequent(ds)


class TestGenerateCars:
    def test_demo_at_75_has_seven_rules(self):
        rules = _cars(demo_dataset(), Fraction(3, 4))
        expected = {
            (frozenset({("Relation", "Boss")}), "Accept", 3, 3),
            (frozenset({("Relation", "Friend")}), "Reject", 4, 5),
            (frozenset({("Activity", "Lunch")}), "Accept", 2, 2),
            (frozenset({("Activity", "Meeting"), ("Relation", "Boss")}), "Accept", 2, 2),
            (frozenset({("Activity", "Meeting"), ("Relation", "Friend")}), "Reject", 4, 4),
            (frozenset({("Activity", "Lunch"), ("Relation", "Boss")}), "Accept", 1, 1),
            (frozenset({("Activity", "Lunch"), ("Relation", "Friend")}), "Accept", 1, 1),
        }
        assert rule_keys(rules) == expected
        # Meeting => Reject sits at 4/6 and must be excluded
        assert (frozenset({("Activity", "Meeting")}), "Reject", 4, 6) not in rule_keys(rules)

    def test_demo_at_100_drops_friend_reject(self):
        at75 = rule_keys(_cars(demo_dataset(), Fraction(3, 4)))
        at100 = rule_keys(_cars(demo_dataset(), Fraction(1)))
        assert at100 == at75 - {(frozenset({("Relation", "Friend")}), "Reject", 4, 5)}

    def test_vacuous_threshold_gives_empty_list(self):
        from behavrules.datamodel import ContextSchema, Instance

        schema = ContextSchema.create([("A", ["x"])], ["c1", "c2"])
        ds = Dataset.create(
            schema, [Instance({"A": "x"}, "c1"), Instance({"A": "x"}, "c2")]
        )
        # every condition set sits at 50% confidence, so nothing reaches 100%
        assert _cars(ds, Fraction(1)) == []
        assert _cars(Dataset.create(demo_schema(), []), Fraction(1)) == []

    def test_monotone_in_threshold(self):
        rng = random.Random(61)
        for _ in range(30):
            ds = random_dataset(rng)
            lower = rule_keys(_cars(ds, Fraction(3, 5)))
            higher = rule_keys(_cars(ds, Fraction(9, 10)))
            assert higher <= lower

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(71)
        for _ in range(40):
            ds = random_dataset(rng)
            for t in (Fraction(1, 2), Fraction(4, 5)):
                assert rule_keys(_cars(ds, t)) == brute_force_cars(ds, t)


class TestFilterRedundant:
    def test_sample_rules_keep_minimal_pair(self):
        kept = filter_redundant(sample_rule_set())
        assert [(r.sort_antecedent, r.consequent) for r in kept] == [
            ((("Activity", "Meeting"),), "Reject"),
            ((("Activity", "Meeting"), ("Relation", "Boss")), "Accept"),
        ]

    def test_single_rule_passes_through(self):
        rule = sample_rule_set()[0]
        assert filter_redundant([rule]) == [rule]

    def test_same_antecedent_different_consequents_both_kept(self):
        a = Rule(frozenset({("A", "x")}), "c1", 4, 5)
        b = Rule(frozenset({("A", "x")}), "c2", 1, 5)
        assert filter_redundant([a, b]) == [a, b]

    def test_idempotent_and_consistent(self):
        rng = random.Random(81)
        for _ in range(30):
            ds = random_dataset(rng)
            rules = _cars(ds, Fraction(3, 5))
            once = filter_redundant(rules)
            assert filter_redundant(once) == once
            for a in once:
                for b in once:
                    assert not (
                        a is not b
                        and a.consequent == b.consequent
                        and a.antecedent < b.antecedent
                    )

    def test_end_to_end_sample_dataset(self):
        rules = filter_redundant(_cars(sample_rule_dataset(), Fraction(4, 5)))
        assert {(r.sort_antecedent, r.consequent) for r in rules} == {
            ((("Activity", "Meeting"),), "Reject"),
            ((("Activity", "Meeting"), ("Relation", "Boss")), "Accept"),
        }


def _reverse_order_dataset(no_contexts=False):
    """Every combination of three three-valued contexts, listed so that each
    domain is first observed in reverse string order, in a schema that is
    not in name order; the class leans on Location. With no_contexts, the
    same classes without a context attribute."""
    domains = [("Relation", ["Stranger", "Friend", "Boss"]),
               ("Location", ["Road", "Office", "Home"]),
               ("Activity", ["Walking", "Meeting", "Idle"])]
    rows = list(itertools.product(*(domain for _, domain in domains)))
    labels = {"Road": "Missed", "Office": "Reject", "Home": "Accept"}
    behaviors = [labels[row[1]] if i % 4 else "Accept" for i, row in enumerate(rows)]
    if no_contexts:
        domains, rows = [], []
    schema = ContextSchema.create(domains, ["Accept", "Missed", "Reject"])
    return Dataset.from_columns(schema, list(zip(*rows)), behaviors)


@pytest.mark.parametrize("no_contexts", [False, True], ids=["reverse-domains", "no-contexts"])
class TestOutputOrder:
    """Output is by size, then sorted conditions, whatever the domains' order."""

    @pytest.mark.parametrize("min_support", [1, 2, 3])
    def test_mine_frequent_matches_the_level_wise_reference(self, no_contexts, min_support):
        ds = _reverse_order_dataset(no_contexts)
        found = [(fi.items, fi.support, fi.class_supports) for fi in mine_frequent(ds, min_support)]
        assert found == level_wise_frequent(ds, min_support)
        assert bool(found) != no_contexts

    def test_mine_apriori_prints_the_reference_order(self, tmp_path, capsys, no_contexts):
        ds = _reverse_order_dataset(no_contexts)
        path = tmp_path / "dataset.csv"
        path.write_text(serialize.dataset_to_csv(ds), encoding="utf-8")
        # a dataset file's domains are in first-observation order
        assert serialize.dataset_from_csv(path.read_text(encoding="utf-8")).schema == ds.schema
        rules = [Rule(items, cls, support, coverage) for items, cls, support, coverage
                 in brute_force_cars(ds, Fraction(3, 5))]
        rules.sort(key=lambda r: (len(r.antecedent), r.sort_antecedent, r.consequent))
        assert bool(rules) != no_contexts
        assert main(["mine-apriori", str(path), "--min-conf", "60"]) == 0
        assert capsys.readouterr().out == serialize.rules_to_text(rules)


# Every rule of one or two conditions over six attributes sits at 50%
# confidence with its own (support, coverage), so each longer rule's shadow
# is decided by which of its equally confident subsets comes first.
TIED_SHADOWS = """
from itertools import combinations
from behavrules.apriori import shadows
from behavrules.datamodel import Rule

conds = [("a%d" % i, "v") for i in range(6)]
rules = []
for k in range(1, 5):
    for sub in combinations(conds, k):
        m = len(rules) + 1
        support, coverage = (m, 2 * m) if k < 3 else (1, 1)
        rules.append(Rule(frozenset(sub), "x", support, coverage))
print(repr(shadows(rules)))
"""


class TestShadows:
    def test_ties_do_not_depend_on_the_hash_seed(self):
        src = str(Path(behavrules.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", TIED_SHADOWS],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1
        # ties go to the first subset in (size, sorted conditions) order
        assert outputs.pop().startswith("[None, None, None, None, None, None, (1, 2), (1, 2),")
