import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import behavrules
from behavrules import agt, apriori, serialize
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
        "text", ["1e-1000", "1E1000", "8e+1000%", "1e-1_000", "0.5e-1234"])
    def test_an_exponent_of_1000_or_more_is_refused(self, text):
        with pytest.raises(ConfigError, match="^bad threshold "):
            parse_threshold(text)

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-999, 999), st.booleans())
    def test_an_exponent_below_1000_keeps_its_value(self, mantissa, exponent, percent):
        value = Fraction(mantissa) * Fraction(10) ** exponent
        if percent or value > 1:
            value /= 100
        text = "%de%d%s" % (mantissa, exponent, "%" if percent else "")
        if 0 < value <= 1:
            assert parse_threshold(text) == value
        else:
            with pytest.raises(ConfigError, match="^threshold must be in"):
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

    @pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(0), Fraction(-1, 2)])
    def test_a_threshold_out_of_range_is_refused_before_mining(self, bad):
        # patched on their modules, where the sweep looks them up
        message = "confidence threshold must be in (0, 1], got %s" % bad
        with mock.patch.object(apriori, "mine_frequent", wraps=apriori.mine_frequent) as mine, \
                mock.patch.object(agt, "build_tree", wraps=agt.build_tree) as grow, \
                pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
            sweep(demo_dataset(), sorted([Fraction(1, 2), bad], reverse=True))
        assert (mine.call_count, grow.call_count) == (0, 0)

    def test_a_miner_defect_propagates(self):
        # only a refusal fills the rows; anything else a miner raises is a defect
        with mock.patch.object(apriori, "mine_frequent", side_effect=ValueError("defect")), \
                pytest.raises(ValueError, match="^defect$"):
            sweep(demo_dataset(), [Fraction(1), Fraction(3, 4)])

    def test_a_miner_refusal_fills_every_row(self):
        with mock.patch.object(apriori, "mine_frequent", side_effect=ConfigError("refused")):
            report = sweep(demo_dataset(), [Fraction(1), Fraction(3, 4)])
        assert [(row.apriori_rules, row.agt_rules, row.error) for row in report.rows] == \
            [(None, None, "refused")] * 2

    def test_rows_match_independent_runs(self):
        ds = demo_dataset()
        report = sweep(ds, list(DEFAULT_THRESHOLDS))
        for row in report.rows:
            cfg = agt.MiningConfig(row.threshold)
            independent = agt.extract_rules(agt.build_tree(ds, cfg), cfg)
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


REPO = Path(__file__).resolve().parents[1]


def test_traced_sweep_counts_what_the_miners_return(tmp_path):
    """The benchmark's tracer (perfbench/op.py, TRACE=1) still finds the miners."""
    dataset = REPO / "tests" / "golden" / "dataset.csv"
    src = Path(behavrules.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "op.py"), str(src), str(tmp_path), "1",
         json.dumps(["sweep", str(dataset)])],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0, result["error"]
    ds = serialize.dataset_from_csv(dataset.read_text(encoding="utf-8"))
    frequent = apriori.mine_frequent(ds, 1)
    cars = apriori.generate_cars(ds, frequent, min(DEFAULT_THRESHOLDS), 1)
    assert result["layers"]["apriori.frequent_itemsets"] == len(frequent)
    assert result["layers"]["apriori.cars"] == len(cars)
