import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from behavrules import serialize
from behavrules.agt import MiningConfig, tree_to_dot
from behavrules.cli import main
from behavrules.datamodel import ConfigError, EmptyDatasetError, SchemaViolation
from behavrules.fixtures import demo_dataset, sample_rule_dataset
from behavrules.ingest import ColumnMapping, IngestError, load_log
from behavrules.synth import GenerationError

from oracles import reference_tree

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


def _constant_columns(tmp_path, width, classes):
    """A dataset file of width constant columns, one row per class label."""
    header = ",".join("a%d" % i for i in range(width)) + ",behavior"
    path = tmp_path / "wide.csv"
    path.write_text("\n".join([header] + [",".join(["x"] * width + [c]) for c in classes]))
    return path


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


@pytest.fixture
def inputs(tmp_path, demo_csv):
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


def _run_cli(*argv):
    """The command line in a fresh interpreter, which fails the test if it runs past 10 s."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "behavrules", *argv],
                          env=env, capture_output=True, text=True, timeout=10)


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

    def test_dot_escapes_a_quoted_value(self, tmp_path, capsys):
        path, dot = tmp_path / "dataset.csv", tmp_path / "tree.dot"
        path.write_text('Place,behavior\n"Road ""A""",Missed\n"Road ""A""",Missed\n'
                        "Home,Accept\nHome,Accept\nHome,Missed\n")
        assert main(["mine-agt", str(path), "--min-conf", "60", "--dot", str(dot)]) == 0
        assert '  n2 [label="2 | Place=Road \\"A\\" | Missed 100%" style=dashed color=red];' \
            in dot.read_text().splitlines()

    def test_deep_tree_mines_under_a_low_recursion_limit(self, tmp_path, capsys):
        # 300 constant columns over classes A/B/A/B grow a chain 301 nodes deep
        path = _constant_columns(tmp_path, 300, "ABAB")
        dot = tmp_path / "tree.dot"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            code = main(["mine-agt", str(path), "--min-conf", "50", "--dot", str(dot)])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0
        assert dot.read_text().count(" -> ") == 300

    def test_a_chain_of_lone_children_splits_each_attribute_once(self, tmp_path, monkeypatch):
        from behavrules import precedence

        path = _constant_columns(tmp_path, 300, "ABAB")
        calls = []

        def counted(ds, rows, counts, attr, split=precedence.split):
            calls.append(attr)
            return split(ds, rows, counts, attr)

        monkeypatch.setattr(precedence, "split", counted)
        dot = tmp_path / "tree.dot"
        assert main(["mine-agt", str(path), "--min-conf", "50", "--dot", str(dot)]) == 0
        # a lone child holds its parent's rows and ranks the parent's other
        # splits, so only the root tallies: 300 calls, not 300 + 299 + ... + 1
        assert len(calls) <= 300
        ds = serialize.dataset_from_csv(path.read_text())
        assert dot.read_text() == tree_to_dot(reference_tree(ds, MiningConfig(Fraction(1, 2))))

    def test_global_ranking_on_a_chain_matches_the_reference_tree(self, tmp_path):
        path = _constant_columns(tmp_path, 300, "ABAB")
        dot = tmp_path / "tree.dot"
        argv = ["mine-agt", str(path), "--min-conf", "80", "--global-ranking", "--dot", str(dot)]
        assert main(argv) == 0
        ds = serialize.dataset_from_csv(path.read_text())
        cfg = MiningConfig(Fraction(4, 5), global_ranking=True)
        assert dot.read_text() == tree_to_dot(reference_tree(ds, cfg))

    def test_apriori_stops_at_its_itemset_bound_in_seconds(self, tmp_path, capsys):
        # 1,200 constant columns hold 2**1200 - 1 frequent itemsets
        from behavrules.apriori import MAX_ITEMSETS

        path = _constant_columns(tmp_path, 1200, "ABAC")
        reason = "more than %d frequent itemsets (apriori.MAX_ITEMSETS)" % MAX_ITEMSETS
        assert main(["mine-apriori", str(path), "--min-conf", "80"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % reason
        assert main(["sweep", str(path), "--thresholds", "90", "70"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "0.9,,,  # %s" % reason, "0.7,,,  # %s" % reason]

    # stdout's sha256 of each command on the many-class file, recorded without a memory limit
    MANY_CLASS_DIGESTS = {
        "rank": "e4a511b48e845d8224eda72dabb3a9f16ff9ded8d69b4891cbc802fcc6b46b10",
        "mine-agt": "1dfb8042ed12c5d36c0e80572423dedf943d6d45728b5a3e94654c23d982d0ea",
        "mine-apriori": "851be2e0b6375d6a44983d1435a3e834905d8fed2e6b30e80b5498d7dc0b7779",
        "sweep": "fb015eb3a885cfd6fa10f3830aeaac1b3f274c6ae0d3f38b8956b533be35fd42",
    }

    @pytest.mark.parametrize(
        "argv",
        [["rank"], ["mine-agt", "--min-conf", "80"],
         ["mine-apriori", "--min-conf", "80", "--filter-redundant"], ["sweep"]],
        ids=lambda argv: argv[0],
    )
    def test_a_class_per_row_mines_in_256_mib(self, tmp_path, argv):
        # 2,000 values × 2,000 classes: a cost sized by domain × classes exceeds the limit
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS on this platform")
        rng = random.Random(5)
        path = tmp_path / "many-classes.csv"
        path.write_text("A,B,behavior\n" + "".join(
            "a%d,b%d,c%d\n" % (i, rng.randrange(7), i) for i in range(2000)))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "behavrules", argv[0], str(path), *argv[1:]],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            timeout=60, preexec_fn=limit_memory,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-500:]
        assert hashlib.sha256(proc.stdout).hexdigest() == self.MANY_CLASS_DIGESTS[argv[0]]

    def test_a_tree_that_cannot_grow_fills_every_sweep_row(self, tmp_path, capsys):
        path, report = tmp_path / "classes.csv", tmp_path / "r.json"
        path.write_text("behavior\nA\nB\nA\n")
        reason = "schema has no context attributes"
        assert main(["sweep", str(path), "--thresholds", "90", "80", "--json", str(report)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "0.9,,,  # %s" % reason, "0.8,,,  # %s" % reason]
        assert json.loads(report.read_text())["rows"] == [
            {"threshold": t, "apriori_rules": None, "agt_rules": None,
             "apriori_redundancy_ratio": None, "error": reason}
            for t in ("0.9", "0.8")]

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

    def test_mine_agt_marks_its_tree_once_and_sweep_never(
        self, demo_csv, tmp_path, monkeypatch, capsys
    ):
        from behavrules import agt

        calls = []

        def counted(threshold, test=agt.confidence_test):
            calls.append(threshold)
            return test(threshold)

        monkeypatch.setattr(agt, "confidence_test", counted)
        dot = tmp_path / "tree.dot"
        assert main(["mine-agt", demo_csv, "--min-conf", "75", "--dot", str(dot)]) == 0
        assert calls == [Fraction(3, 4)]  # extract_rules' walk; growth marks nothing
        calls.clear()
        assert main(["sweep", demo_csv]) == 0
        assert calls == []  # the sweep counts intervals of an unmarked tree

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
        "argv",
        [["mine-agt", "--min-conf", "80", "--classes"], ["rank", "--attrs"],
         ["sweep", "--thresholds"]],
        ids=["classes", "attrs", "thresholds"],
    )
    def test_a_list_flag_without_values_exits_1_with_usage(self, demo_csv, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], demo_csv, *argv[1:]])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: behavrules %s " % argv[0])
        assert captured.err.endswith(
            "error: argument %s: expected at least one argument\n" % argv[-1])

    @pytest.mark.parametrize("command", ["mine-agt", "mine-apriori", "sweep"])
    def test_min_support_below_1_exits_1_with_one_line(self, demo_csv, tmp_path, capsys, command):
        report = tmp_path / "report.json"
        extra = ["--json", str(report)] if command == "sweep" else ["--min-conf", "80"]
        assert main([command, demo_csv, "--min-support", "0", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: min_support must be >= 1, got 0\n"
        assert not report.exists()

    def test_unknown_class_filter_exits_1(self, demo_csv, capsys):
        assert main(["mine-agt", demo_csv, "--min-conf", "75", "--classes", "Accept", "Acept"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown behavior class 'Acept'\n"

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
    ARGV = {
        "dataset": ["mine-agt", "{folder}", "--min-conf", "80"],
        "log": ["ingest", "{folder}", "--mapping", "{mapping}"],
        "mapping": ["ingest", "{log}", "--mapping", "{folder}"],
        "spec": ["gen", "--spec", "{folder}"],
        "out": ["gen", "--spec", "{spec}", "--out", "{folder}"],
        "dot": ["mine-agt", "{dataset}", "--min-conf", "80", "--dot", "{folder}"],
        "json": ["sweep", "{dataset}", "--json", "{folder}"],
    }

    @pytest.mark.parametrize("which", list(ARGV))
    def test_directory_for_a_file_exits_1_with_one_line(self, inputs, capsys, which):
        capsys.readouterr()
        argv = [arg.format(**inputs) for arg in self.ARGV[which]]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1
        assert out == ""

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

    PATH_ARGV = {
        "rank-dataset": ["rank", "{bad}"],
        "ingest-log": ["ingest", "{bad}", "--mapping", "{mapping}"],
        "mapping": ["ingest", "{log}", "--mapping", "{bad}"],
        "spec": ["gen", "--spec", "{bad}"],
        "ingest-out": ["ingest", "{log}", "--mapping", "{mapping}", "--out", "{bad}"],
        "dot": ["mine-agt", "{dataset}", "--min-conf", "80", "--dot", "{bad}"],
        "json": ["sweep", "{dataset}", "--json", "{bad}"],
        "gen-out": ["gen", "--spec", "{spec}", "--out", "{bad}"],
    }

    @pytest.mark.parametrize("bad", ["long-name", "symlink-loop"])
    @pytest.mark.parametrize("which", list(PATH_ARGV))
    def test_any_os_error_on_a_path_exits_1_with_one_line(
        self, inputs, tmp_path, capsys, which, bad
    ):
        if bad == "long-name":
            path = tmp_path / ("a" * 300)  # past the 255-byte limit on one name
        else:
            path, other = tmp_path / "loop", tmp_path / "pool"
            path.symlink_to(other)
            other.symlink_to(path)
        capsys.readouterr()
        argv = [arg.format(bad=path, **inputs) for arg in self.PATH_ARGV[which]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--spec", "--mapping"])
    def test_a_json_integer_past_the_digit_limit_exits_1_with_one_line(
        self, inputs, tmp_path, capsys, option
    ):
        path = tmp_path / "big.json"
        base = GEN_SPEC if option == "--spec" else MAPPING
        # written by hand: json.dumps cannot convert such an integer either
        path.write_text('{"x": %s, %s' % ("1" * 5000, json.dumps(base)[1:]))
        if option == "--spec":
            argv = ["gen", "--spec", str(path)]
        else:
            argv = ["ingest", inputs["log"], "--mapping", str(path)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(4300 digits)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--spec", "--mapping"])
    def test_deeply_nested_json_exits_1_with_one_line(self, inputs, tmp_path, capsys, option):
        path = tmp_path / "nested.json"
        # past the json decoder's recursion limit; a mapping is read as JSON only after "{"
        path.write_text(("" if option == "--spec" else '{"x": ') + "[" * 200_000)
        if option == "--spec":
            argv = ["gen", "--spec", str(path)]
        else:
            argv = ["ingest", inputs["log"], "--mapping", str(path)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec,argv",
        [
            (dict(GEN_SPEC, rules=[dict(GEN_SPEC["rules"][0], weight=10**400)]), []),
            (GEN_SPEC, ["--n", str(10**309)]),
            (dict(GEN_SPEC, rules=[]), ["--n", str(sys.maxsize + 1)]),
        ],
        ids=["weight-past-float", "n-past-float", "n-past-index"],
    )
    def test_a_number_past_float_or_index_range_exits_1_with_one_line(
        self, tmp_path, capsys, spec, argv
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["gen", "--spec", str(path), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path):
        # a rule-free spec draws every row; sys.maxsize of them cannot fit in 128 MiB
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS") or not sys.platform.startswith("linux"):
            # where the limit is not enforced, the run would fill the machine's memory
            pytest.skip("no enforced RLIMIT_AS on this platform")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(GEN_SPEC, rules=[])))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "behavrules", "gen", "--spec", str(path),
             "--n", str(sys.maxsize)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=60, preexec_fn=limit_memory,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine-agt", "{dataset}", "--min-conf", "1e-100000000"],
            ["sweep", "{dataset}", "--thresholds", "80", "1e-100000000"],
            ["gen", "--spec", "{exponent_spec}"],
        ],
        ids=["min-conf", "thresholds", "spec-confidence"],
    )
    def test_a_huge_threshold_exponent_exits_1_at_once(self, inputs, tmp_path, argv):
        spec = tmp_path / "exponent.json"
        rule = dict(GEN_SPEC["rules"][0], confidence="1e-100000000")
        spec.write_text(json.dumps(dict(GEN_SPEC, rules=[rule])))
        proc = _run_cli(*(arg.format(exponent_spec=spec, **inputs) for arg in argv))
        assert proc.returncode == 1
        assert proc.stderr == "error: bad threshold '1e-100000000'\n"

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
            (dict(GEN_SPEC, rules=[dict(GEN_SPEC["rules"][0], weight=True)]),
             "spec rule 1 weight must be a number, got True"),
            (dict(GEN_SPEC, attributes=dict(GEN_SPEC["attributes"], Time=[1, 2])),
             "spec attribute 'Time' value 1 is not a string"),
            (dict(GEN_SPEC, classes=[["Accept"]]), "spec class ['Accept'] is not a string"),
            (dict(GEN_SPEC, attributes=dict(GEN_SPEC["attributes"], Relation=[True, "Friend"])),
             "spec attribute 'Relation' value True is not a string"),
            *[
                (dict(GEN_SPEC, rules=[dict(GEN_SPEC["rules"][0], consequent=c)]),
                 "spec rule 1 consequent %r is not a string" % (c,))
                for c in (["Accept"], {"a": 1})
            ],
        ],
        ids=["not-an-object", "n-not-integer", "seed-not-integer", "missing-key",
             "weight-nan", "weight-inf", "weight-1e308", "weight-true", "value-number",
             "class-list", "value-bool", "consequent-list", "consequent-object"],
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

    def test_tab_delimiter_escape_matches_json_tab(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_text(LOG_TEXT.replace(",", "\t"))
        key_value, as_json = tmp_path / "map.conf", tmp_path / "map.json"
        key_value.write_text(MAPPING_TEXT + "delimiter=\\t\n")
        as_json.write_text(json.dumps(dict(MAPPING, delimiter="\t")))
        written = []
        for mapping in (key_value, as_json):
            out = tmp_path / (mapping.name + ".csv")
            assert main(["ingest", str(log), "--mapping", str(mapping), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"\n") == 3  # header and both rows

    def test_internal_key_error_is_not_an_input_error(self, monkeypatch):
        from behavrules import cli

        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "_cmd_selftest", broken)
        with pytest.raises(KeyError):
            main(["selftest"])

    @pytest.mark.parametrize(
        "refusal",
        [ConfigError, EmptyDatasetError, SchemaViolation, IngestError, GenerationError],
    )
    def test_every_refusal_exits_1_with_one_line(self, monkeypatch, capsys, refusal):
        from behavrules import cli

        def refuses(args):
            raise refusal("refused")

        monkeypatch.setattr(cli, "_cmd_selftest", refuses)
        assert main(["selftest"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: refused\n")

    def test_gen_to_stdout_matches_the_written_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(GEN_SPEC))
        log = tmp_path / "log.csv"
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0
        assert main(["gen", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert out.encode() == log.read_bytes().replace(b"\r\n", b"\n")

    def test_a_carriage_return_value_is_quoted_in_a_log_and_refused_in_a_dataset(
        self, tmp_path, capsys
    ):
        # a log quotes a bare CR with either line end, so ingest reads it back; a
        # dataset file is read with universal newlines, so ingest refuses the value
        spec, mapping = tmp_path / "spec.json", tmp_path / "map.conf"
        attributes = {"Relation": ["Boss", "Friend", "x\ry"]}
        spec.write_text(json.dumps(dict(GEN_SPEC, attributes=attributes, n=3000)))
        mapping.write_text(MAPPING_TEXT)
        log, saved, out = tmp_path / "log.csv", tmp_path / "saved.csv", tmp_path / "dataset.csv"
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0
        assert main(["gen", "--spec", str(spec)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode() == log.read_bytes().replace(b"\r\n", b"\n")
        saved.write_text(stdout, encoding="utf-8", newline="")  # as saved from stdout
        for path in (log, saved):
            ds, summary = load_log(str(path), ColumnMapping.from_file(str(mapping)))
            assert (summary.loaded, summary.skipped) == (3000, 0)
            column = ds.columns[ds.schema.attribute_names.index("Relation")]
            assert set(column) == set(attributes["Relation"])
            argv = ["ingest", str(path), "--mapping", str(mapping), "--out", str(out)]
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                "error: 'x\\ry' holds a carriage return, which a dataset file "
                "reads back as a line feed\n")
            assert not out.exists()

    @pytest.mark.parametrize(
        "attributes,message",
        [
            ({"duration": ["short", "long"], "Place": ["Home"]},
             "context attribute 'duration' collides with a call-record column"),
            ({"Place": ["Home"], "timestamp": ["now"]},
             "context attribute 'timestamp' collides with a call-record column"),
            ({"call_type": ["voice"]},
             "context attribute 'call_type' collides with a call-record column"),
            ({"Place": [" Home", "Road"]},
             "context attribute 'Place' value ' Home' has outer whitespace"),
            ({"Place": ["Home", "Road\t"]},
             "context attribute 'Place' value 'Road\\t' has outer whitespace"),
        ],
        ids=["duration", "timestamp", "call_type", "leading-space", "trailing-tab"],
    )
    def test_gen_refuses_a_log_that_ingest_would_misread(
        self, tmp_path, capsys, attributes, message
    ):
        spec, log = tmp_path / "spec.json", tmp_path / "log.csv"
        spec.write_text(json.dumps({"attributes": attributes, "classes": ["Accept"], "n": 20}))
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not log.exists()


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


SPEC_SLOTS = ["attributes", "domain value", "classes", "antecedent value", "consequent",
              "confidence", "weight"]


@st.composite
def specs_with_one_slot_changed(draw):
    """GEN_SPEC at a small n with one slot holding an arbitrary JSON value."""
    spec = json.loads(json.dumps(dict(GEN_SPEC, n=20)))  # a deep copy; a huge n would allocate
    rule, value = spec["rules"][0], draw(JSON_VALUES)
    slot = draw(st.sampled_from(SPEC_SLOTS))
    if slot == "domain value":
        spec["attributes"]["Relation"][draw(st.integers(0, 2))] = value
    elif slot == "antecedent value":
        rule["antecedent"]["Relation"] = value
    elif slot in rule:
        rule[slot] = value
    else:
        spec[slot] = value
    return spec


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=specs_with_one_slot_changed())
def test_any_spec_value_exits_0_or_1(tmp_path, capsys, spec):
    path, log = tmp_path / "spec.json", tmp_path / "log.csv"
    path.write_text(json.dumps(spec))
    code = main(["gen", "--spec", str(path), "--out", str(log)])
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


DATASET_CELLS = {
    "Time": ["Monday", "Friday"],
    "Relation": ["Boss", "Friend", "Stranger"],
    "behavior": ["Accept", "Reject", "Missed"],
}
DATASET_FAULTS = ["drop cell", "extra cell", "empty cell", "empty row", "no behavior",
                  "two behaviors", "one column", "not utf-8", "no rows"]


@st.composite
def dataset_bytes(draw):
    """A valid dataset file with up to two faults: a cell dropped, added or
    emptied, an empty row, a missing or doubled behavior header, no context
    column, a byte that is not UTF-8, or no rows."""
    header = draw(st.permutations(list(DATASET_CELLS)))
    rows = [[draw(st.sampled_from(DATASET_CELLS[name])) for name in header]
            for _ in range(draw(st.integers(1, 8)))]
    bad_byte = b""
    for fault in draw(st.lists(st.sampled_from(DATASET_FAULTS), max_size=2)):
        row = draw(st.sampled_from(rows)) if rows else header
        if fault == "drop cell" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "extra cell":
            row.append(draw(st.sampled_from(DATASET_CELLS["Relation"])))
        elif fault == "empty cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = ""
        elif fault == "empty row":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif fault == "no behavior" and "behavior" in header:
            header[header.index("behavior")] = "Activity"
        elif fault == "two behaviors":
            header[0] = "behavior"
        elif fault == "one column":
            header, rows = ["behavior"], [[r[-1]] if r else [] for r in rows]
        elif fault == "not utf-8":
            bad_byte = draw(st.sampled_from([b"\xff", b"\xc3"]))
        elif fault == "no rows":
            rows = []
    data = "\n".join(",".join(line) for line in [header] + rows).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + bad_byte + data[cut:]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=dataset_bytes())
def test_any_dataset_file_exits_0_or_1(tmp_path, capsys, data):
    dataset = tmp_path / "dataset.csv"
    dataset.write_bytes(data)
    assert main(["mine-agt", str(dataset), "--min-conf", "50"]) in (0, 1)
    assert main(["rank", str(dataset)]) in (0, 1)
    capsys.readouterr()


LOG_COLUMNS = ["timestamp", "call_type", "duration", "Relation"]
LOG_CELLS = {
    "timestamp": ["2004-09-17 09:30:00", "2004-02-30 10:00:00", " 2004-9-1 8:0:0 ", "soon", ""],
    "call_type": ["incoming", "missed", "outgoing", "Missed ", "fax", ""],
    "duration": ["42", "0", "-1", "1e3", " 7 ", ""],
    "Relation": ["Boss", "Friend", "", "a,b", 'say "hi"', "two\nlines", "behavior"],
}
LOG_FAULTS = ["drop cell", "extra cell", "empty row", "lone quote", "cr only", "nul",
              "not utf-8", "bom", "huge cell", "header only", "no header"]


@st.composite
def log_bytes(draw):
    """A call log with up to three faults: a cell dropped or added, an empty
    row, a lone quote, bare CR line ends, a NUL, a byte that is not UTF-8,
    a byte-order mark, a cell past csv's field limit, no rows or nothing."""
    header = draw(st.permutations(LOG_COLUMNS + draw(st.lists(
        st.sampled_from(["extra", "Relation", "timestamp"]), max_size=2))))

    def quote(cell):
        return '"%s"' % cell.replace('"', '""') if set(cell) & set(',"\n') else cell

    rows = [[quote(draw(st.sampled_from(LOG_CELLS.get(c, ["x", ""])))) for c in header]
            for _ in range(draw(st.integers(1, 6)))]
    faults = draw(st.lists(st.sampled_from(LOG_FAULTS), max_size=3))
    for fault in faults:
        row = draw(st.sampled_from(rows)) if rows else header
        if fault == "drop cell" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "extra cell":
            row.append("surplus")
        elif fault == "empty row":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif fault == "lone quote" and row:
            row[draw(st.integers(0, len(row) - 1))] += '"'
        elif fault == "huge cell" and row:
            row[-1] = "x" * 200_000
        elif fault == "header only":
            rows = []
        elif fault == "no header":
            header, rows = [], []
    ending = "\r" if "cr only" in faults else draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(",".join(line) for line in [header] + rows)
    data = text.encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    extra = {"nul": b"\x00", "not utf-8": draw(st.sampled_from([b"\xff", b"\xc3"]))}
    for fault in faults:
        data = data[:cut] + extra.get(fault, b"") + data[cut:]
    return (b"\xef\xbb\xbf" if "bom" in faults else b"") + data


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=log_bytes(), strict=st.booleans())
def test_any_call_log_file_exits_0_or_1(tmp_path, capsys, data, strict):
    log, mapping = tmp_path / "log.csv", tmp_path / "map.conf"
    log.write_bytes(data)
    mapping.write_text(MAPPING_TEXT)
    out = tmp_path / "dataset.csv"
    argv = ["ingest", str(log), "--mapping", str(mapping), "--out", str(out)]
    code = main(argv + ["--strict"] if strict else argv)
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert len(serialize.dataset_from_csv(out.read_text(encoding="utf-8"))) > 0


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

        def no_rows(*args, **kwargs):
            raise AssertionError("an Instance was built")

        monkeypatch.setattr(Instance, "__init__", no_rows)
        for argv in (
            ["gen", "--spec", str(spec), "--out", str(log)],
            ["selftest"],
            ["ingest", str(log), "--mapping", str(mapping), "--out", str(dataset)],
            ["rank", str(dataset)],
            ["mine-agt", str(dataset), "--min-conf", "80", "--dot", str(tmp_path / "t.dot")],
            ["mine-apriori", str(dataset), "--min-conf", "80", "--filter-redundant"],
            ["sweep", str(dataset), "--thresholds", "90", "70"],
        ):
            assert main(argv) == 0, argv

    def test_miners_and_sweep_on_a_dataset_file_build_no_row_columns(
        self, tmp_path, monkeypatch, capsys
    ):
        from behavrules.datamodel import Dataset, Instance

        spec, log, dataset = tmp_path / "spec.json", tmp_path / "log.csv", tmp_path / "ds.csv"
        spec.write_text(json.dumps(GEN_SPEC))
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        assert main(["gen", "--spec", str(spec), "--out", str(log)]) == 0
        assert main(["ingest", str(log), "--mapping", str(mapping), "--out", str(dataset)]) == 0

        def per_row(*args, **kwargs):
            raise AssertionError("a per-row view was built")

        for name in ("columns", "behaviors", "instances"):
            monkeypatch.setattr(Dataset, name, property(per_row))
        monkeypatch.setattr(Instance, "__init__", per_row)
        for argv in (
            ["rank", str(dataset)],
            ["mine-agt", str(dataset), "--min-conf", "80", "--dot", str(tmp_path / "t.dot")],
            ["mine-agt", str(dataset), "--min-conf", "60", "--global-ranking",
             "--strict-redundancy", "--min-support", "3", "--format", "jsonl"],
            ["mine-apriori", str(dataset), "--min-conf", "80"],
            ["mine-apriori", str(dataset), "--min-conf", "60", "--filter-redundant",
             "--format", "jsonl"],
            ["sweep", str(dataset), "--thresholds", "90", "70"],
        ):
            assert main(argv) == 0, argv

    def test_a_byte_order_mark_is_not_part_of_a_dataset_file(self, tmp_path, capsys):
        text = serialize.dataset_to_csv(demo_dataset())
        outputs = []
        for name, data in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path, dot = tmp_path / (name + ".csv"), tmp_path / (name + ".dot")
            path.write_bytes(data + text.encode("utf-8"))
            assert main(["rank", str(path)]) == 0
            assert main(["mine-agt", str(path), "--min-conf", "75", "--dot", str(dot)]) == 0
            outputs.append((capsys.readouterr().out, dot.read_bytes()))
        assert "\ufeff" not in outputs[1][0] and outputs[0] == outputs[1]

    def test_a_byte_order_mark_is_not_part_of_a_call_log(self, tmp_path, capsys):
        mapping = tmp_path / "map.conf"
        mapping.write_text(MAPPING_TEXT)
        outputs = []
        for name, data in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            log, out = tmp_path / (name + ".log"), tmp_path / (name + ".csv")
            log.write_bytes(data + LOG_TEXT.encode("utf-8"))
            assert main(["ingest", str(log), "--mapping", str(mapping), "--out", str(out)]) == 0
            outputs.append((capsys.readouterr(), out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mine_agt_reads_lf_and_crlf_files_alike(self, tmp_path, capsys):
        from pathlib import Path

        golden = (Path(__file__).parent / "golden" / "dataset.csv").read_bytes()
        assert b"\r" not in golden
        outputs = []
        for name, data in (("lf", golden), ("crlf", golden.replace(b"\n", b"\r\n"))):
            path, dot = tmp_path / (name + ".csv"), tmp_path / (name + ".dot")
            path.write_bytes(data)
            assert main(["mine-agt", str(path), "--min-conf", "80", "--dot", str(dot)]) == 0
            outputs.append((capsys.readouterr().out, dot.read_bytes()))
        assert outputs[0][0] and outputs[0] == outputs[1]

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_python_m_behavrules_runs_the_command_line(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "behavrules", "selftest"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("PASS") == 7

    def test_output_dir_env_var(self, tmp_path, monkeypatch, demo_csv, capsys):
        monkeypatch.setenv("BEHAVRULES_OUT", str(tmp_path))
        assert main(["mine-agt", demo_csv, "--min-conf", "75", "--dot", "tree.dot"]) == 0
        assert (tmp_path / "tree.dot").exists()


class TestOutputDir:
    OUT_ARGV = {
        "json": ["sweep", "{dataset}", "--json", "{path}"],
        "dot": ["mine-agt", "{dataset}", "--min-conf", "80", "--dot", "{path}"],
        "ingest-out": ["ingest", "{log}", "--mapping", "{mapping}", "--out", "{path}"],
        "gen-out": ["gen", "--spec", "{spec}", "--out", "{path}"],
    }

    @pytest.fixture
    def base(self, tmp_path, monkeypatch):
        base = tmp_path / "out"
        base.mkdir()
        monkeypatch.setenv("BEHAVRULES_OUT", str(base))
        return base

    def _argv(self, which, inputs, path):
        return [arg.format(path=path, **inputs) for arg in self.OUT_ARGV[which]]

    @pytest.mark.parametrize("which", list(OUT_ARGV))
    def test_a_relative_path_lands_under_the_output_dir(
        self, inputs, base, monkeypatch, capsys, which
    ):
        monkeypatch.chdir(inputs["folder"])
        assert main(self._argv(which, inputs, "result")) == 0
        assert (base / "result").stat().st_size > 0
        assert os.listdir(inputs["folder"]) == []

    @pytest.mark.parametrize("which", list(OUT_ARGV))
    def test_an_absolute_path_or_dash_ignores_the_output_dir(
        self, inputs, base, tmp_path, capsys, which
    ):
        target = tmp_path / "result"
        assert main(self._argv(which, inputs, target)) == 0
        capsys.readouterr()
        assert main(self._argv(which, inputs, "-")) == 0
        # read_text reads a CRLF log's line ends as "\n", like gen's stdout
        assert target.read_text() in capsys.readouterr().out
        assert os.listdir(base) == []

    @pytest.mark.parametrize("which", list(OUT_ARGV))
    def test_a_missing_output_dir_exits_1_with_one_line(
        self, inputs, tmp_path, monkeypatch, capsys, which
    ):
        monkeypatch.setenv("BEHAVRULES_OUT", str(tmp_path / "missing"))
        capsys.readouterr()
        assert main(self._argv(which, inputs, "result")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert err.count("\n") == 1


class TestCycleCollector:
    @pytest.mark.parametrize("outcome", ["returns 0", "exits 1", "raises"])
    def test_main_restores_the_collector_state_it_found(
        self, demo_csv, monkeypatch, capsys, outcome
    ):
        from behavrules import precedence

        seen = []

        def rank(ds, candidates, real=precedence.rank_contexts):
            seen.append(gc.isenabled())
            if outcome == "exits 1":
                raise ConfigError("refused")
            if outcome == "raises":
                raise RuntimeError("a defect")
            return real(ds, candidates)

        monkeypatch.setattr(precedence, "rank_contexts", rank)
        enabled = gc.isenabled()
        try:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                if outcome == "raises":
                    with pytest.raises(RuntimeError):
                        main(["rank", demo_csv])
                else:
                    assert main(["rank", demo_csv]) == (0 if outcome == "returns 0" else 1)
                assert gc.isenabled() is state
        finally:
            (gc.enable if enabled else gc.disable)()
        assert seen == [False, False]  # paused while the command runs

    @pytest.mark.parametrize(
        "argv",
        [["mine-agt", "--min-conf", "80"],
         ["mine-apriori", "--min-conf", "80", "--filter-redundant"], ["sweep"]],
        ids=lambda argv: argv[0],
    )
    def test_a_command_leaves_no_cyclic_garbage_that_grows_with_its_input(
        self, tmp_path, capsys, argv
    ):
        rng = random.Random(11)

        def cyclic_garbage(n):
            """The objects gc.collect() finds after the command on n random rows."""
            path = tmp_path / ("rows-%d.csv" % n)
            path.write_text("A,B,C,D,behavior\n" + "".join(
                "a%d,b%d,c%d,d%d,%s\n" % (
                    rng.randrange(3), rng.randrange(4), rng.randrange(5), rng.randrange(6),
                    rng.choice("XYZ"))
                for _ in range(n)))
            enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                assert main([argv[0], str(path), *argv[1:]]) == 0
                return gc.collect()
            finally:
                if enabled:
                    gc.enable()

        assert cyclic_garbage(500) == cyclic_garbage(4000)
