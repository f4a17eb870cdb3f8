import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from behavrules.datamodel import (
    ContextSchema,
    Dataset,
    Instance,
    Rule,
    SchemaViolation,
    confidence_test,
    rule_stats,
)
from behavrules.fixtures import demo_dataset, demo_schema

from oracles import random_dataset


class TestSchema:
    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(SchemaViolation):
            ContextSchema.create([("A", ["x"]), ("A", ["y"])], ["c"])

    def test_empty_domain_rejected(self):
        with pytest.raises(SchemaViolation):
            ContextSchema.create([("A", [])], ["c"])

    def test_empty_domain_value_rejected(self):
        with pytest.raises(SchemaViolation):
            ContextSchema.create([("A", ["x", ""])], ["c"])

    def test_empty_classes_rejected(self):
        with pytest.raises(SchemaViolation):
            ContextSchema.create([("A", ["x"])], [])

    def test_fingerprint_ignores_domain_order(self):
        a = ContextSchema.create([("A", ["x", "y"])], ["c", "d"])
        b = ContextSchema.create([("A", ["y", "x"])], ["d", "c"])
        assert a.fingerprint() == b.fingerprint()


class TestInstance:
    def test_missing_attribute_rejected(self):
        with pytest.raises(SchemaViolation):
            Dataset.create(demo_schema(), [Instance({"Activity": "Lunch"}, "Accept")])

    def test_extra_attribute_rejected(self):
        inst = Instance(
            {"Activity": "Lunch", "Relation": "Boss", "Mood": "Happy"}, "Accept"
        )
        with pytest.raises(SchemaViolation):
            Dataset.create(demo_schema(), [inst])

    def test_unknown_behavior_rejected(self):
        inst = Instance({"Activity": "Lunch", "Relation": "Boss"}, "Snoozed")
        with pytest.raises(SchemaViolation):
            Dataset.create(demo_schema(), [inst])


class TestColumns:
    def test_columns_are_the_stored_form(self):
        ds = demo_dataset()
        assert ds.columns == tuple(
            tuple(i.values[name] for i in ds.instances) for name in ds.schema.attribute_names
        )
        assert ds.behaviors == tuple(i.behavior for i in ds.instances)
        assert Dataset.from_columns(ds.schema, ds.columns, ds.behaviors) == ds

    def test_instances_view_is_built_once(self):
        ds = Dataset.from_columns(demo_schema(), [["Lunch"], ["Boss"]], ["Accept"])
        assert "instances" not in ds.__dict__
        first = ds.instances
        assert first == (Instance({"Activity": "Lunch", "Relation": "Boss"}, "Accept"),)
        assert ds.instances is first

    def test_the_given_instances_are_the_instances_view(self):
        given = [Instance({"Activity": "Lunch", "Relation": "Boss"}, "Accept"),
                 Instance({"Activity": "Meeting", "Relation": "Friend"}, "Reject")]
        ds = Dataset(demo_schema(), iter(given))
        assert len(ds.instances) == 2
        assert all(kept is inst for kept, inst in zip(ds.instances, given))

    def test_equality_compares_columns_not_the_view(self):
        a, b = demo_dataset(), demo_dataset()
        a.instances  # build one view only
        assert a == b and hash(a) == hash(b)
        rotated = a.behaviors[1:] + a.behaviors[:1]
        swapped = Dataset.from_columns(a.schema, a.columns, rotated)
        assert rotated != a.behaviors
        assert swapped != a

    @pytest.mark.parametrize(
        "ids", [[0, 2], [0, 1, -1], [2 ** 40]], ids=["past-the-end", "negative", "huge"])
    def test_a_distinct_row_id_out_of_range_is_refused(self, ids):
        distinct = [["Lunch", "Meeting"], ["Boss", "Friend"], ["Accept", "Reject"]]
        with pytest.raises(SchemaViolation, match=r"^distinct-row id not in range\(2\)$"):
            Dataset.from_distinct(demo_schema(), distinct, ids)

    @pytest.mark.parametrize("ids,unused", [([0, 0, 0], 1), ([1, 1], 0), ([], 0)])
    def test_a_distinct_row_no_id_names_is_refused(self, ids, unused):
        distinct = [["Lunch", "Meeting"], ["Boss", "Friend"], ["Accept", "Reject"]]
        with pytest.raises(SchemaViolation, match=r"^distinct row %d has no id$" % unused):
            Dataset.from_distinct(demo_schema(), distinct, ids)

    def test_attribute_names_are_computed_once(self):
        schema = demo_schema()
        assert schema.attribute_names == ("Activity", "Relation")
        assert schema.attribute_names is schema.attribute_names


class TestSubset:
    def test_lunch_subset_has_two_instances(self):
        sub = demo_dataset().subset("Activity", "Lunch")
        assert len(sub) == 2
        assert all(i.values["Activity"] == "Lunch" for i in sub.instances)

    def test_value_absent_from_data_gives_empty_dataset(self):
        schema = ContextSchema.create([("A", ["x", "y"])], ["c"])
        ds = Dataset.create(schema, [Instance({"A": "x"}, "c")])
        assert len(ds.subset("A", "y")) == 0

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaViolation):
            demo_dataset().subset("Mood", "Happy")

    def test_out_of_domain_value_raises(self):
        with pytest.raises(SchemaViolation):
            demo_dataset().subset("Activity", "Travel")

    def test_subset_is_idempotent(self):
        ds = demo_dataset()
        once = ds.subset("Relation", "Friend")
        twice = once.subset("Relation", "Friend")
        assert once.instances == twice.instances

    def test_subsets_partition_instances(self):
        rng = random.Random(11)
        for _ in range(50):
            ds = random_dataset(rng)
            for attr, domain in ds.schema.attributes:
                parts = [ds.subset(attr, v).instances for v in domain]
                merged = [i for part in parts for i in part]
                assert sorted(map(id, merged)) == sorted(map(id, ds.instances))


class TestRuleStats:
    def test_friend_reject_stats(self):
        stats = rule_stats(demo_dataset(), [("Relation", "Friend")], "Reject")
        assert (stats.support, stats.coverage) == (4, 5)

    def test_empty_antecedent_matches_everything(self):
        stats = rule_stats(demo_dataset(), [], "Accept")
        assert (stats.support, stats.coverage) == (4, 8)

    def test_no_coverage_is_flagged_not_raised(self):
        schema = ContextSchema.create([("A", ["x", "y"])], ["c"])
        ds = Dataset.create(schema, [Instance({"A": "x"}, "c")])
        stats = rule_stats(ds, [("A", "y")], "c")
        assert (stats.support, stats.coverage) == (0, 0)

    def test_schema_violations_raise(self):
        with pytest.raises(SchemaViolation):
            rule_stats(demo_dataset(), [("Mood", "Happy")], "Accept")
        with pytest.raises(SchemaViolation):
            rule_stats(demo_dataset(), [], "Snoozed")

    def test_confidence_bounds_and_anti_monotone_support(self):
        def counted(stats):
            return stats.support, stats.coverage

        def row_count(ds, conditions, cls):
            covered = [inst for inst in ds.instances if inst.values.items() >= set(conditions)]
            return sum(inst.behavior == cls for inst in covered), len(covered)

        rng = random.Random(23)
        for _ in range(100):
            ds = random_dataset(rng)
            names = list(ds.schema.attribute_names)
            attr = rng.choice(names)
            val = rng.choice(ds.schema.domain(attr))
            cls = rng.choice(sorted(ds.schema.behavior_classes))
            # the column scan agrees with the row view: no conditions, and
            # conditions in schema order, reversed and shuffled
            chosen = set(rng.sample(names, rng.randint(1, len(names))))
            conditions = [(a, rng.choice(ds.schema.domain(a))) for a in names if a in chosen]
            shuffled = rng.sample(conditions, len(conditions))
            for conds in ([], conditions, conditions[::-1], shuffled):
                assert counted(rule_stats(ds, conds, cls)) == row_count(ds, conds, cls)
            assert rule_stats(ds, [], cls).coverage == len(ds)
            base = rule_stats(ds, [(attr, val)], cls)
            assert counted(base) == row_count(ds, [(attr, val)], cls)
            assert 0 <= base.support <= base.coverage
            others = [a for a in names if a != attr]
            if others:
                extra = rng.choice(others)
                extended = rule_stats(
                    ds,
                    [(attr, val), (extra, rng.choice(ds.schema.domain(extra)))],
                    cls,
                )
                assert extended.support <= base.support


class TestRule:
    def test_repeated_attribute_rejected(self):
        with pytest.raises(SchemaViolation):
            Rule(frozenset([("A", "x"), ("A", "y")]), "c", 1, 2)

    def test_confidence_is_exact(self):
        rule = Rule(frozenset([("A", "x")]), "c", 4, 5)
        assert rule.confidence == Fraction(4, 5)
        assert rule.confidence >= Fraction(80, 100)

    @given(st.integers(1, 10**9).flatmap(lambda b: st.tuples(st.integers(1, b), st.just(b))))
    def test_int_division_is_the_fractions_float(self, counts):
        # Rule.__str__ and tree_to_dot print support / coverage, not the Fraction
        a, b = counts
        assert a / b == float(Fraction(a, b))

    def test_empty_dataset_operations_are_legal(self):
        ds = Dataset.create(demo_schema(), [])
        assert len(ds.subset("Activity", "Lunch")) == 0
        assert ds.class_counts() == {}


class TestConfidenceTest:
    # any range: the sweep mines at its lowest threshold even when that is invalid
    @given(
        t=st.fractions(min_value=-2, max_value=2, max_denominator=30),
        coverage=st.integers(1, 400),
        data=st.data(),
    )
    def test_agrees_with_the_exact_comparison(self, t, coverage, data):
        support = data.draw(st.integers(0, coverage))
        assert confidence_test(t)(support, coverage) == (Fraction(support, coverage) >= t)

    @given(t=st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool),
           k=st.integers(1, 50))
    def test_a_confidence_equal_to_the_threshold_meets_it(self, t, k):
        support, coverage = t.numerator * k, t.denominator * k
        assert Fraction(support, coverage) == t
        assert confidence_test(t)(support, coverage)
        assert not confidence_test(t)(support - 1, coverage)
