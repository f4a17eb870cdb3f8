import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from behavrules.datamodel import ContextSchema, Dataset, Instance, SchemaViolation
from behavrules.fixtures import demo_dataset, demo_schema
from behavrules.precedence import (
    PrecedenceRanking,
    _entropy,
    entropy,
    information_gain,
    rank_contexts,
)

from oracles import random_dataset

# reference values computed independently with 40-digit arithmetic
H_262 = 1.370950594454669
IG_RELATION = 0.548794940695399
IG_ACTIVITY = 0.311278124459133


def _dataset(class_counts):
    schema = ContextSchema.create([("A", ["x"])], list(class_counts))
    instances = []
    for cls, count in class_counts.items():
        instances.extend(Instance({"A": "x"}, cls) for _ in range(count))
    return Dataset.create(schema, instances)


class TestEntropy:
    def test_pure_dataset_is_zero(self):
        assert entropy(_dataset({"Reject": 10})) == 0.0

    def test_uniform_binary_is_one(self):
        assert entropy(_dataset({"Accept": 5, "Reject": 5})) == 1.0

    def test_three_class_mix_matches_reference(self):
        ds = _dataset({"Accept": 2, "Reject": 6, "Missed": 2})
        assert entropy(ds) == pytest.approx(H_262, abs=1e-9)

    def test_empty_dataset_is_zero(self):
        assert entropy(Dataset.create(demo_schema(), [])) == 0.0

    def test_permutation_invariant(self):
        ds = demo_dataset()
        shuffled = Dataset.create(
            ds.schema, random.Random(3).sample(ds.instances, len(ds))
        )
        assert entropy(shuffled) == entropy(ds)

    def test_bounded_by_log_classes_present(self):
        rng = random.Random(5)
        for _ in range(100):
            ds = random_dataset(rng)
            present = len(ds.class_counts())
            assert 0.0 <= entropy(ds) <= math.log2(present) + 1e-12


class TestInformationGain:
    def test_single_valued_attribute_gains_nothing(self):
        schema = ContextSchema.create([("A", ["x"])], ["c", "d"])
        ds = Dataset.create(
            schema, [Instance({"A": "x"}, "c"), Instance({"A": "x"}, "d")]
        )
        assert information_gain(ds, "A") == 0.0

    def test_perfect_separator_gains_full_entropy(self):
        schema = ContextSchema.create([("A", ["x", "y"])], ["c", "d"])
        ds = Dataset.create(
            schema,
            [Instance({"A": "x"}, "c")] * 3 + [Instance({"A": "y"}, "d")] * 5,
        )
        assert information_gain(ds, "A") == pytest.approx(entropy(ds), abs=1e-12)

    def test_demo_fixture_values(self):
        ds = demo_dataset()
        assert information_gain(ds, "Relation") == pytest.approx(IG_RELATION, abs=1e-9)
        assert information_gain(ds, "Activity") == pytest.approx(IG_ACTIVITY, abs=1e-9)

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaViolation):
            information_gain(demo_dataset(), "Mood")

    def test_gain_within_entropy_bounds(self):
        rng = random.Random(7)
        for _ in range(200):
            ds = random_dataset(rng)
            h = entropy(ds)
            for attr in ds.schema.attribute_names:
                gain = information_gain(ds, attr)
                assert 0.0 <= gain <= h + 1e-9


class TestRanking:
    def test_demo_ranking_prefers_relation(self):
        ranking = rank_contexts(demo_dataset(), ["Activity", "Relation"])
        assert ranking.attributes == ("Relation", "Activity")
        gains = dict(ranking.entries)
        assert gains["Relation"] == pytest.approx(IG_RELATION, abs=1e-9)

    def test_zero_entropy_falls_back_to_name_order(self):
        schema = ContextSchema.create([("B", ["x"]), ("A", ["y"])], ["c"])
        ds = Dataset.create(schema, [Instance({"B": "x", "A": "y"}, "c")] * 4)
        ranking = rank_contexts(ds, ["B", "A"])
        assert ranking.attributes == ("A", "B")

    def test_single_candidate(self):
        ranking = rank_contexts(demo_dataset(), ["Activity"])
        assert ranking.attributes == ("Activity",)

    def test_empty_candidates_give_empty_ranking(self):
        assert rank_contexts(demo_dataset(), []).entries == ()

    def test_ranking_is_deterministic_under_instance_order(self):
        ds = demo_dataset()
        shuffled = Dataset.create(
            ds.schema, random.Random(9).sample(ds.instances, len(ds))
        )
        names = list(ds.schema.attribute_names)
        assert rank_contexts(ds, names).entries == rank_contexts(shuffled, names).entries

    def test_ranking_computes_no_fingerprint(self, monkeypatch):
        def no_fingerprint(self):
            raise AssertionError("rank_contexts fingerprinted the dataset")

        monkeypatch.setattr(Dataset, "fingerprint", no_fingerprint)
        monkeypatch.setattr(ContextSchema, "fingerprint", no_fingerprint)
        ranking = rank_contexts(demo_dataset(), ["Activity"])
        assert ranking == PrecedenceRanking(ranking.entries)


@given(
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=8).filter(any),
    data=st.data(),
)
def test_entropy_is_one_float_in_any_order_and_with_zeros(counts, data):
    n = sum(counts)
    padded = counts + [0] * data.draw(st.integers(0, 4))
    reordered = data.draw(st.permutations(padded))
    # bit for bit: hex tells 0.0 from -0.0
    assert _entropy(reordered, n).hex() == _entropy(counts, n).hex()
