import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
MAPPING = {
    "timestamp_col": "timestamp",
    "type_col": "call_type",
    "duration_col": "duration",
    "context_cols": ["Relation"],
}
LOG_TEXT = (
    "timestamp,call_type,duration,Relation,behavior\n"
    "2004-09-17 09:30:00,incoming,42,Boss,y\n"
    "2004-09-18 10:30:00,missed,0,Friend,z\n"
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


class TestInputErrors:
    @pytest.fixture
    def inputs(self, tmp_path, demo_csv):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(GEN_SPEC))
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        log = tmp_path / "log.csv"
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0
        folder = tmp_path / "folder"
        folder.mkdir()
        return {"dataset": demo_csv, "spec": str(spec), "mapping": str(mapping),
                "log": str(log), "folder": str(folder)}

    ARGV = {
        "dataset": ["mine-agt", "{folder}", "--min-conf", "80"],
        "log": ["ingest", "{folder}", "--mapping", "{mapping}"],
        "mapping": ["ingest", "{log}", "--mapping", "{folder}"],
        "spec": ["gen", "--spec", "{folder}"],
        "out": ["gen", "--spec", "{spec}", "--out", "{folder}"],
        "dot": ["mine-agt", "{dataset}", "--min-conf", "80", "--dot", "{folder}"],
    }

    @pytest.mark.parametrize("which", list(ARGV))
    def test_directory_for_a_file_exits_1_with_one_line(self, inputs, capsys, which):
        capsys.readouterr()
        argv = [arg.format(**inputs) for arg in self.ARGV[which]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1

    def test_file_for_a_directory_exits_1_with_one_line(self, inputs, capsys):
        capsys.readouterr()
        out = inputs["log"] + "/dataset.csv"
        assert main(["ingest", inputs["log"], "--mapping", inputs["mapping"], "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 20] Not a directory") and err.count("\n") == 1

    def test_unreadable_file_exits_1_with_one_line(self, demo_csv, capsys, monkeypatch):
        import builtins

        real_open = builtins.open

        def guarded_open(file, *args, **kwargs):
            if file == demo_csv:
                raise PermissionError(13, "Permission denied", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded_open)
        assert main(["rank", demo_csv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 13] Permission denied") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec,message",
        [
            ([1, 2], "is not a JSON object"),
            (dict(GEN_SPEC, n="many"), "spec n must be an integer, got 'many'"),
            (dict(GEN_SPEC, seed=1.5), "spec seed must be an integer, got 1.5"),
            ({k: v for k, v in GEN_SPEC.items() if k != "attributes"},
             "spec lacks key 'attributes'"),
            *[
                (dict(GEN_SPEC, rules=[dict(GEN_SPEC["rules"][0], weight=w)]),
                 "weight must be in (0, 1], got %s" % got)
                for w, got in (("nan", "nan"), ("inf", "inf"), (1e308, "1e+308"))
            ],
        ],
        ids=["not-an-object", "n-not-integer", "seed-not-integer", "missing-key",
             "weight-nan", "weight-inf", "weight-1e308"],
    )
    def test_bad_gen_spec_exits_1_naming_the_problem(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["gen", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            (MAPPING_TEXT + "delimiter=ab\n", "delimiter must be one character, got 'ab'"),
            (MAPPING_TEXT + "delimiter=\n", "delimiter must be one character, got ''"),
            (json.dumps(dict(MAPPING, delimiter=5)), "delimiter must be one character, got 5"),
            (json.dumps(dict(MAPPING, context_cols=5)),
             "context_cols must be a list or a comma-separated string, got 5"),
        ],
        ids=["delimiter-two-chars", "delimiter-empty", "delimiter-number", "context-number"],
    )
    def test_bad_mapping_exits_1_naming_the_problem(self, tmp_path, capsys, text, message):
        log, mapping = tmp_path / "log.csv", tmp_path / "map.conf"
        log.write_text(LOG_TEXT)
        mapping.write_text(text)
        assert main(["ingest", str(log), "--mapping", str(mapping)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_context_column_named_behavior_exits_1(self, tmp_path, capsys):
        log, mapping = tmp_path / "log.csv", tmp_path / "map.conf"
        log.write_text(LOG_TEXT)
        mapping.write_text(json.dumps(dict(MAPPING, context_cols=["behavior"])))
        out = tmp_path / "dataset.csv"
        assert main(["ingest", str(log), "--mapping", str(mapping), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "collides" in err and err.count("\n") == 1
        assert not out.exists()

    def test_dataset_naming_behavior_twice_exits_1(self, tmp_path, capsys):
        dataset = tmp_path / "ds.csv"
        dataset.write_text("Time,behavior,behavior\nMonday,y,Accept\nFriday,z,Reject\n")
        assert main(["mine-agt", str(dataset), "--min-conf", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and "more than once" in err and err.count("\n") == 1

    def test_internal_key_error_is_not_an_input_error(self, monkeypatch):
        from behavrules import cli

        def broken(args):
            raise KeyError("internal")

        monkeypatch.setitem(cli._COMMANDS, "selftest", broken)
        with pytest.raises(KeyError):
            main(["selftest"])

    def test_gen_to_stdout_matches_the_written_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(GEN_SPEC))
        log = tmp_path / "log.csv"
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0
        assert main(["gen", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert out.encode() == log.read_bytes().replace(b"\r\n", b"\n")


# the log's column names, separators and the names that collide
NAMES = ["timestamp", "call_type", "duration", "Relation", "behavior", "Time",
         ",", ";", "ab", "", "Relation,Time", "Relation,Relation"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(NAMES)
    | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _line_value(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@st.composite
def mapping_texts(draw):
    """A working mapping with up to two keys dropped or changed, as JSON or key=value lines."""
    raw = dict(MAPPING, delimiter=",")
    for key in draw(st.sets(st.sampled_from(sorted(raw)), max_size=2)):
        if draw(st.booleans()):
            del raw[key]
        else:
            name = st.sampled_from(NAMES)
            raw[key] = draw(name | st.lists(name) | JSON_VALUES)
    if draw(st.booleans()):
        return json.dumps(raw)
    return "".join("%s=%s\n" % (key, _line_value(value)) for key, value in raw.items())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mapping_texts() | st.text(max_size=40))
def test_any_mapping_text_exits_0_or_1(tmp_path, text):
    log, mapping = tmp_path / "log.csv", tmp_path / "map.conf"
    log.write_text(LOG_TEXT)
    mapping.write_text(text, encoding="utf-8")
    out = tmp_path / "dataset.csv"
    assert main(["ingest", str(log), "--mapping", str(mapping), "--out", str(out)]) in (0, 1)


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

    def test_load_and_mine_paths_build_no_instances(self, tmp_path, monkeypatch, capsys):
        from behavrules.datamodel import Instance

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(GEN_SPEC))
        log, dataset = tmp_path / "log.csv", tmp_path / "dataset.csv"
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0

        def no_rows(*args, **kwargs):
            raise AssertionError("an Instance was built")

        monkeypatch.setattr(Instance, "__init__", no_rows)
        for argv in (
            ["ingest", str(log), "--mapping", str(mapping), "--out", str(dataset)],
            ["rank", str(dataset)],
            ["mine-agt", str(dataset), "--min-conf", "80", "--dot", str(tmp_path / "t.dot")],
            ["mine-apriori", str(dataset), "--min-conf", "80", "--filter-redundant"],
            ["sweep", str(dataset), "--thresholds", "90", "70"],
        ):
            assert main(argv) == 0, argv

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_output_dir_env_var(self, tmp_path, monkeypatch, demo_csv, capsys):
        monkeypatch.setenv("BEHAVRULES_OUT", str(tmp_path))
        assert main(["mine-agt", demo_csv, "--min-conf", "75", "--dot", "tree.dot"]) == 0
        assert (tmp_path / "tree.dot").exists()
