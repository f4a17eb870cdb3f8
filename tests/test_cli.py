import json

import pytest

from behavrules import serialize
from behavrules.cli import main
from behavrules.fixtures import demo_dataset, sample_rule_dataset

GEN_SPEC = {
    "attributes": {
        "Time": ["Friday[08:00-10:00]", "Monday[12:00-14:00]", "Sunday[18:00-20:00]"],
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
    "n": 300,
    "seed": 7,
}

MAPPING_TEXT = (
    "timestamp_col=timestamp\n"
    "type_col=call_type\n"
    "duration_col=duration\n"
    "context_cols=Relation\n"
)


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(serialize.dataset_to_csv(demo_dataset()))
    return str(path)


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(serialize.dataset_to_csv(sample_rule_dataset()))
    return str(path)


class TestMining:
    def test_mine_apriori_filtered_prints_two_rules(self, sample_csv, capsys):
        code = main(["mine-apriori", sample_csv, "--min-conf", "0.80", "--filter-redundant"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[0].startswith("Activity=Meeting => Reject")
        assert out[1].startswith("Activity=Meeting, Relation=Boss => Accept")

    def test_mine_agt_with_dot_export(self, demo_csv, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        code = main(["mine-agt", demo_csv, "--min-conf", "75", "--dot", str(dot)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("=>") == 3
        assert dot.read_text().startswith("digraph agt {")

    def test_jsonl_output(self, demo_csv, capsys):
        code = main(["mine-agt", demo_csv, "--min-conf", "0.75", "--format", "jsonl"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert {
            (tuple(r["antecedent"]), r["consequent"], r["confidence_num"], r["confidence_den"])
            for r in records
        } == {
            (("Relation=Boss",), "Accept", 1, 1),
            (("Relation=Friend",), "Reject", 4, 5),
            (("Activity=Lunch", "Relation=Friend"), "Accept", 1, 1),
        }

    def test_rank_prints_table(self, demo_csv, capsys):
        assert main(["rank", demo_csv]) == 0
        out = capsys.readouterr().out
        assert "Relation" in out and "Activity" in out
        assert out.index("Relation") < out.index("Activity")

    def test_sweep_header_and_rows(self, demo_csv, capsys):
        assert main(["sweep", demo_csv, "--thresholds", "100", "75"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "threshold,apriori_rules,agt_rules,apriori_redundancy_ratio"
        assert lines[1] == "1,6,3,0.5"
        assert lines[2].startswith("0.75,7,3,")


class TestErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self, demo_csv):
        with pytest.raises(SystemExit) as exc:
            main(["rank", demo_csv, "--bogus"])
        assert exc.value.code == 1

    def test_missing_dataset_file_exits_1(self, capsys):
        assert main(["rank", "/nonexistent/ds.csv"]) == 1

    def test_bad_threshold_exits_1(self, demo_csv, capsys):
        assert main(["mine-agt", demo_csv, "--min-conf", "0"]) == 1

    @pytest.mark.parametrize(
        "tail",
        [
            b"\xff\xfe,incoming,1,Boss\n",  # not UTF-8
            b"2004-09-17 09:30:00,incoming,42," + b"x" * 200_000 + b"\n",  # csv.Error
        ],
        ids=["not-utf8", "csv-error"],
    )
    def test_unreadable_log_exits_1_with_one_line(self, tmp_path, capsys, tail):
        log = tmp_path / "log.csv"
        log.write_bytes(b"timestamp,call_type,duration,Relation\n" + tail)
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        assert main(["ingest", str(log), "--mapping", str(mapping)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_dataset_exits_1(self, tmp_path, capsys):
        dataset = tmp_path / "ds.csv"
        dataset.write_bytes(b"Relation,behavior\n\xffBoss,Accept\n")
        assert main(["mine-agt", str(dataset), "--min-conf", "80"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_short_log_row_is_counted_and_skipped(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "timestamp,call_type,duration,Relation\n"
            "2004-09-17 09:30:00,incoming,42,Boss\n"
            "2004-09-17 10:30:00,incoming\n"
        )
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        args = ["ingest", str(log), "--mapping", str(mapping)]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "skipped:      1" in err
        assert "line 3: row has fewer cells than the header" in err
        assert main(args + ["--strict"]) == 1


class TestPipeline:
    def test_gen_ingest_round_trip_fingerprint(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(GEN_SPEC))
        log = tmp_path / "log.csv"
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        dataset = tmp_path / "dataset.csv"

        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0
        assert main([
            "ingest", str(log), "--mapping", str(mapping), "--out", str(dataset),
        ]) == 0
        capsys.readouterr()

        from behavrules.datamodel import ContextSchema
        from behavrules.synth import PlantedRuleSpec, generate
        from fractions import Fraction

        schema = ContextSchema.create(list(GEN_SPEC["attributes"].items()), GEN_SPEC["classes"])
        expected = generate(
            schema,
            [PlantedRuleSpec((("Relation", "Boss"),), "Accept", Fraction(9, 10), 0.4)],
            300,
            7,
        )
        loaded = serialize.dataset_from_csv(dataset.read_text())
        assert loaded.fingerprint() == expected.fingerprint()

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_output_dir_env_var(self, tmp_path, monkeypatch, demo_csv, capsys):
        monkeypatch.setenv("BEHAVRULES_OUT", str(tmp_path))
        assert main(["mine-agt", demo_csv, "--min-conf", "75", "--dot", "tree.dot"]) == 0
        assert (tmp_path / "tree.dot").exists()
