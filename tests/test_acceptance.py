"""End-to-end acceptance checks; each test prints one pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import random
import time
from fractions import Fraction

import pytest

from behavrules import agt, apriori, precedence, serialize
from behavrules.agt import MiningConfig
from behavrules.cli import main
from behavrules.datamodel import ContextSchema, rule_stats
from behavrules.fixtures import demo_dataset, sample_rule_dataset, sample_rule_set
from behavrules.harness import DEFAULT_THRESHOLDS, sweep
from behavrules.ingest import ColumnMapping, derive_behavior, load_log
from behavrules.synth import PlantedRuleSpec, generate, write_log

from oracles import brute_force_cars, example_tree, random_dataset, rule_keys


def _report(name):
    print("\nACCEPTANCE %-40s PASS" % name)


def _corpus(count=200, seed=97):
    rng = random.Random(seed)
    return [random_dataset(rng) for _ in range(count)]


def test_criterion_1_sample_rule_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    kept = apriori.filter_redundant(sample_rule_set())
    assert {(r.sort_antecedent, r.consequent) for r in kept} == {
        ((("Activity", "Meeting"),), "Reject"),
        ((("Activity", "Meeting"), ("Relation", "Boss")), "Accept"),
    }

    path = tmp_path / "sample.csv"
    path.write_text(serialize.dataset_to_csv(sample_rule_dataset()))
    assert main([
        "mine-apriori", str(path), "--min-conf", "0.80", "--filter-redundant",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Activity=Meeting => Reject")
    assert lines[1].startswith("Activity=Meeting, Relation=Boss => Accept")
    assert time.perf_counter() - start < 1.0
    _report("1: redundancy-filter fixture")


def test_criterion_2_example_tree_extraction():
    start = time.perf_counter()
    rules = agt.extract_rules(example_tree(), MiningConfig(Fraction(4, 5)))
    assert [(r.sort_antecedent, r.consequent, r.confidence) for r in rules] == [
        ((("Activity", "Lecture"),), "Reject", Fraction(1)),
        ((("Activity", "Meeting"),), "Reject", Fraction(85, 100)),
        ((("Activity", "Lunch"), ("Relation", "Friend")), "Accept", Fraction(92, 100)),
        ((("Activity", "Lunch"), ("Relation", "Unknown")), "Missed", Fraction(95, 100)),
        ((("Activity", "Meeting"), ("Relation", "Boss")), "Accept", Fraction(1)),
    ]
    assert time.perf_counter() - start < 1.0
    _report("2: hand-built tree rule extraction")


def test_criterion_3_apriori_brute_force_equivalence():
    start = time.perf_counter()
    rng = random.Random(103)
    for ds in _corpus(200):
        t = Fraction(rng.randint(50, 100), 100)
        for min_support in (1, 2, 3):
            frequent = apriori.mine_frequent(ds, min_support)
            found = rule_keys(apriori.generate_cars(ds, frequent, t, min_support))
            assert found == brute_force_cars(ds, t, min_support)
    assert time.perf_counter() - start < 30.0
    _report("3: baseline equals exhaustive enumeration")


def test_criterion_4_agt_subset_of_apriori():
    for ds in _corpus():
        for t in (Fraction(3, 5), Fraction(4, 5), Fraction(1)):
            cfg = MiningConfig(t)
            agt_rules = rule_keys(agt.extract_rules(agt.build_tree(ds, cfg), cfg))
            base = rule_keys(apriori.generate_cars(ds, apriori.mine_frequent(ds), t))
            assert agt_rules <= base, "tree rule missing from baseline output"
    _report("4: tree rules subset of baseline")


def test_criterion_5_non_redundancy_guarantee():
    # every emitted rule satisfies t, so a one-condition extension pair with
    # a shared consequent would be exactly a redundant parent/child edge
    for ds in _corpus():
        for t in (Fraction(3, 5), Fraction(4, 5), Fraction(1)):
            cfg = MiningConfig(t)
            rules = agt.extract_rules(agt.build_tree(ds, cfg), cfg)
            emitted = {(r.antecedent, r.consequent) for r in rules}
            for rule in rules:
                for condition in rule.antecedent:
                    general = rule.antecedent - {condition}
                    assert (general, rule.consequent) not in emitted, (
                        "redundant pair survived: %s" % (rule,)
                    )
    _report("5: no parent/child redundant pairs")


TREND_SCHEMA = ContextSchema.create(
    [
        ("Activity", ["Meeting", "Lecture", "Lunch", "Travel"]),
        ("Relation", ["Boss", "Friend", "Colleague", "Stranger"]),
        ("Location", ["Office", "Home", "Outside"]),
    ],
    ["Accept", "Reject", "Missed", "Outgoing"],
)

# high-confidence children under a moderate-confidence Meeting branch:
# at low thresholds the children subsume into the branch node, so the tree
# miner's output shrinks while the baseline's grows
TREND_SPECS = [
    PlantedRuleSpec(
        (("Activity", "Meeting"), ("Relation", "Friend")), "Reject", Fraction(96, 100), 0.12
    ),
    PlantedRuleSpec(
        (("Activity", "Meeting"), ("Relation", "Colleague")), "Reject", Fraction(97, 100), 0.12
    ),
    PlantedRuleSpec(
        (("Activity", "Meeting"), ("Relation", "Stranger")), "Reject", Fraction(98, 100), 0.12
    ),
    PlantedRuleSpec(
        (("Activity", "Meeting"), ("Relation", "Boss")), "Accept", Fraction(96, 100), 0.08
    ),
    PlantedRuleSpec((("Activity", "Lecture"),), "Reject", Fraction(9, 10), 0.15),
]


def test_criterion_6_threshold_trend():
    start = time.perf_counter()
    ds = generate(TREND_SCHEMA, TREND_SPECS, 5000, seed=23)
    assert len(ds) >= 5000
    report = sweep(ds, list(DEFAULT_THRESHOLDS))  # 1.00 down to 0.60
    counts = {float(r.threshold): (r.apriori_rules, r.agt_rules) for r in report.rows}
    apriori_by_rising_t = [
        counts[t][0] for t in sorted(counts)
    ]
    assert apriori_by_rising_t == sorted(apriori_by_rising_t, reverse=True)
    assert counts[0.60][1] <= counts[0.95][1]
    for a_count, g_count in counts.values():
        assert g_count <= a_count
    assert time.perf_counter() - start < 10.0
    _report("6: threshold sweep trends")


def test_criterion_7_numeric_checks():
    start = time.perf_counter()
    ds = demo_dataset()
    assert precedence.entropy(ds) == 1.0  # 4 Accept vs 4 Reject
    assert precedence.information_gain(ds, "Relation") == pytest.approx(
        0.548794940695399, abs=1e-9
    )
    assert precedence.information_gain(ds, "Activity") == pytest.approx(
        0.311278124459133, abs=1e-9
    )
    rng = random.Random(107)
    for _ in range(1000):
        sample = random_dataset(rng)
        h = precedence.entropy(sample)
        for attr in sample.schema.attribute_names:
            gain = precedence.information_gain(sample, attr)
            assert 0.0 <= gain <= h + 1e-9
    assert time.perf_counter() - start < 5.0
    _report("7: entropy and information gain")


def test_criterion_8_preprocessing_contract(tmp_path):
    start = time.perf_counter()
    cases = [
        ("incoming", 0, "Reject"),
        ("incoming", 1, "Accept"),
        ("incoming", 600, "Accept"),
        ("missed", 0, "Missed"),
        ("outgoing", 0, "Outgoing"),
        ("outgoing", 30, "Outgoing"),
    ]
    for call_type, duration, expected in cases:
        assert derive_behavior(call_type, duration) == expected

    ds = generate(
        TREND_SCHEMA, TREND_SPECS, 5119, seed=29
    )
    path = tmp_path / "big.csv"
    write_log(ds, str(path))
    mapping = ColumnMapping(
        timestamp_col="timestamp",
        type_col="call_type",
        duration_col="duration",
        context_cols=("Activity", "Relation", "Location"),
    )
    loaded, summary = load_log(str(path), mapping)
    assert len(loaded) == 5119
    assert summary.skipped == 0
    assert time.perf_counter() - start < 2.0
    _report("8: behavior derivation and load shape")


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    import json

    spec = {
        "attributes": {
            "Time": ["Friday[08:00-10:00]", "Monday[12:00-14:00]"],
            "Relation": ["Boss", "Friend", "Stranger"],
        },
        "classes": ["Accept", "Reject", "Missed", "Outgoing"],
        "rules": [
            {
                "antecedent": {"Relation": "Boss"},
                "consequent": "Accept",
                "confidence": 0.9,
                "weight": 0.4,
            }
        ],
        "n": 400,
        "seed": 7,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    mapping = tmp_path / "map.conf"
    mapping.write_text(
        "timestamp_col=timestamp\ntype_col=call_type\n"
        "duration_col=duration\ncontext_cols=Relation\n"
    )

    outputs = []
    for run in ("a", "b"):
        log = tmp_path / ("log_%s.csv" % run)
        dataset = tmp_path / ("ds_%s.csv" % run)
        assert main(["gen", "--spec", str(spec_path), "--out", str(log)]) == 0
        assert main([
            "ingest", str(log), "--mapping", str(mapping), "--out", str(dataset),
        ]) == 0
        assert main(["sweep", str(dataset)]) == 0
        captured = capsys.readouterr().out
        outputs.append((log.read_bytes(), dataset.read_bytes(), captured))
    assert outputs[0] == outputs[1]
    _report("9: byte-identical end-to-end runs")
