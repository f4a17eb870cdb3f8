from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from behavrules import agt
from behavrules.datamodel import ConfigError, ContextSchema
from behavrules.fixtures import demo_dataset
from behavrules.harness import (
    DEFAULT_THRESHOLDS,
    parse_threshold,
    report_to_csv,
    report_to_json,
    sweep,
)
from behavrules.synth import PlantedRuleSpec, generate


class TestParseThreshold:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.8", Fraction(4, 5)),
            ("80", Fraction(4, 5)),
            ("80%", Fraction(4, 5)),
            ("1", Fraction(1)),
            ("100", Fraction(1)),
            ("0.95", Fraction(19, 20)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_threshold(text) == expected

    @pytest.mark.parametrize("text", ["0", "-5", "101", "abc", "", "0%", "101%", "%"])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_threshold(text)

    @pytest.mark.parametrize(
        "text,expected",
        [("1%", Fraction(1, 100)), ("0.5%", Fraction(1, 200)), ("100%", Fraction(1))],
    )
    def test_small_percentages(self, text, expected):
        assert parse_threshold(text) == expected

    @given(st.integers(1, 100_000))
    def test_percent_suffix_always_divides_by_100(self, thousandths):
        text = "%d.%03d%%" % divmod(thousandths, 1000)
        assert parse_threshold(text) == Fraction(thousandths, 100_000)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=1000).filter(bool))
    def test_bare_numbers_keep_their_meaning(self, value):
        expected = value if value <= 1 else value / 100
        assert parse_threshold(str(value)) == expected
        if value > 1:  # a bare percentage and its "%" form agree
            assert parse_threshold("%s%%" % value) == expected


class TestSweep:
    def test_demo_counts(self):
        report = sweep(demo_dataset(), [Fraction(1), Fraction(3, 4)])
        rows = report.rows
        assert (rows[0].threshold, rows[0].apriori_rules, rows[0].agt_rules) == (
            Fraction(1), 6, 3,
        )
        assert (rows[1].threshold, rows[1].apriori_rules, rows[1].agt_rules) == (
            Fraction(3, 4), 7, 3,
        )

    def test_empty_threshold_list_gives_empty_report(self):
        assert sweep(demo_dataset(), []).rows == ()

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            sweep(demo_dataset(), [Fraction(1), Fraction(1)])

    def test_non_monotone_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            sweep(demo_dataset(), [Fraction(1), Fraction(1, 2), Fraction(3, 4)])

    def test_rows_match_independent_runs(self):
        ds = demo_dataset()
        report = sweep(ds, list(DEFAULT_THRESHOLDS))
        for row in report.rows:
            independent = agt.mine(ds, agt.MiningConfig(row.threshold))
            assert row.agt_rules == len(independent)

    def test_apriori_counts_monotone_on_planted_data(self):
        schema = ContextSchema.create(
            [
                ("Activity", ["Meeting", "Lunch", "Travel"]),
                ("Relation", ["Boss", "Friend", "Stranger"]),
            ],
            ["Accept", "Reject", "Missed", "Outgoing"],
        )
        spec = PlantedRuleSpec(
            (("Activity", "Meeting"),), "Reject", Fraction(85, 100), weight=0.4
        )
        ds = generate(schema, [spec], 500, seed=19)
        report = sweep(ds)  # default thresholds, decreasing
        counts = [row.apriori_rules for row in report.rows]
        assert counts == sorted(counts)  # rises as the threshold falls
        ratios = [row.apriori_redundancy_ratio for row in report.rows]
        assert all(0 <= r <= 1 for r in ratios)

    def test_report_rendering(self):
        report = sweep(demo_dataset(), [Fraction(1), Fraction(3, 4)])
        csv_text = report_to_csv(report)
        lines = csv_text.splitlines()
        assert lines[0] == "threshold,apriori_rules,agt_rules,apriori_redundancy_ratio"
        assert lines[1].startswith("1,6,3,")
        assert lines[2].startswith("0.75,7,3,")
        json_text = report_to_json(report)
        assert '"apriori_rules": 6' in json_text
        # identical inputs render identical reports
        again = sweep(demo_dataset(), [Fraction(1), Fraction(3, 4)])
        assert report_to_csv(again) == csv_text
        assert report_to_json(again) == json_text
