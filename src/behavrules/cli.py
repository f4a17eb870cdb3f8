"""Command-line front end.

Subcommands: gen, ingest, rank, mine-agt, mine-apriori, sweep, selftest.
Exit status: 0 success, 1 input/configuration error, 2 internal invariant
violation (including a failing selftest).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import agt, apriori, fixtures, harness, precedence, serialize, synth
from .datamodel import ConfigError, EmptyDatasetError, SchemaViolation
from .ingest import ColumnMapping, IngestError, SegmentationConfig, load_log
from .synth import GenerationError, PlantedRuleSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _out_path(path: str) -> str:
    base = os.environ.get("BEHAVRULES_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_dataset(path: str):
    with open(path, encoding="utf-8") as fh:
        return serialize.dataset_from_csv(fh.read())


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(_out_path(path), "w", encoding="utf-8") as fh:
            fh.write(text)


def _seg_config(args) -> SegmentationConfig:
    return SegmentationConfig(mode=args.seg_mode, bucket_hours=args.bucket_hours)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="behavrules", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic call log from a spec file")
    p.add_argument("--spec", required=True, help="JSON generation spec")
    p.add_argument("--n", type=int, default=None, help="override instance count")
    p.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p.add_argument("--out", default="-", help="raw call-log output path")

    p = sub.add_parser("ingest", help="load a raw call log into a dataset file")
    p.add_argument("log", help="delimited call-log file with a header row")
    p.add_argument("--mapping", required=True, help="column-mapping config file")
    p.add_argument("--out", default="-", help="dataset CSV output path")
    p.add_argument("--strict", action="store_true", help="abort on the first bad row")
    p.add_argument("--seg-mode", default="weekday-hour-bucket",
                   choices=["weekday-hour-bucket", "weekday-only"])
    p.add_argument("--bucket-hours", type=int, default=2)

    p = sub.add_parser("rank", help="rank context attributes by information gain")
    p.add_argument("dataset", help="dataset CSV file")
    p.add_argument("--attrs", nargs="*", default=None, help="candidate attributes")

    p = sub.add_parser("mine-agt", help="mine non-redundant rules with the tree miner")
    p.add_argument("dataset")
    p.add_argument("--min-conf", required=True, help="confidence threshold (80, 80%% or 0.8)")
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--classes", nargs="*", default=None, help="only emit these classes")
    p.add_argument("--global-ranking", action="store_true")
    p.add_argument("--strict-redundancy", action="store_true")
    p.add_argument("--dot", default=None, help="also write the tree as DOT")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")

    p = sub.add_parser("mine-apriori", help="mine class-association rules (baseline)")
    p.add_argument("dataset")
    p.add_argument("--min-conf", required=True)
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--filter-redundant", action="store_true")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")

    p = sub.add_parser("sweep", help="compare both miners across thresholds")
    p.add_argument("dataset")
    p.add_argument("--thresholds", nargs="*", default=None)
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--json", default=None, help="also write a JSON twin of the report")

    sub.add_parser("selftest", help="run the built-in fixture checks")
    return parser


def _cmd_gen(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    attributes = spec["attributes"]
    if isinstance(attributes, dict):
        attributes = list(attributes.items())
    from .datamodel import ContextSchema

    schema = ContextSchema.create(attributes, spec["classes"])
    planted = [
        PlantedRuleSpec(
            antecedent=tuple(sorted(r["antecedent"].items())),
            consequent=r["consequent"],
            target_confidence=harness.parse_threshold(str(r["confidence"])),
            weight=float(r["weight"]),
        )
        for r in spec.get("rules", [])
    ]
    n = args.n if args.n is not None else int(spec["n"])
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    ds = synth.generate(schema, planted, n, seed)
    if args.out == "-":
        import tempfile

        with tempfile.NamedTemporaryFile("r", suffix=".csv", delete=False) as tmp:
            path = tmp.name
        synth.write_log(ds, path)
        with open(path, encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
        os.unlink(path)
    else:
        synth.write_log(ds, _out_path(args.out))
    return 0


def _cmd_ingest(args) -> int:
    mapping = ColumnMapping.from_file(args.mapping)
    ds, summary = load_log(args.log, mapping, _seg_config(args), strict=args.strict)
    _write(args.out, serialize.dataset_to_csv(ds))
    sys.stderr.write(str(summary) + "\n")
    return 0


def _cmd_rank(args) -> int:
    ds = _load_dataset(args.dataset)
    candidates = args.attrs if args.attrs else list(ds.schema.attribute_names)
    print(precedence.rank_contexts(ds, candidates))
    return 0


def _cmd_mine_agt(args) -> int:
    ds = _load_dataset(args.dataset)
    cfg = agt.MiningConfig(
        confidence_threshold=harness.parse_threshold(args.min_conf),
        min_support=args.min_support,
        class_filter=frozenset(args.classes) if args.classes else None,
        global_ranking=args.global_ranking,
        strict_redundancy=args.strict_redundancy,
    )
    root = agt.build_tree(ds, cfg)
    rules = agt.extract_rules(root, cfg)
    if args.dot:
        _write(args.dot, agt.tree_to_dot(root))
    render = serialize.rules_to_jsonl if args.format == "jsonl" else serialize.rules_to_text
    sys.stdout.write(render(rules))
    return 0


def _cmd_mine_apriori(args) -> int:
    ds = _load_dataset(args.dataset)
    threshold = harness.parse_threshold(args.min_conf)
    rules = apriori.mine(ds, threshold, args.min_support)
    if args.filter_redundant:
        rules = apriori.filter_redundant(rules)
    render = serialize.rules_to_jsonl if args.format == "jsonl" else serialize.rules_to_text
    sys.stdout.write(render(rules))
    return 0


def _cmd_sweep(args) -> int:
    ds = _load_dataset(args.dataset)
    if args.thresholds:
        thresholds = [harness.parse_threshold(t) for t in args.thresholds]
    else:
        thresholds = list(harness.DEFAULT_THRESHOLDS)
    report = harness.sweep(ds, thresholds, args.min_support)
    sys.stdout.write(harness.report_to_csv(report))
    if args.json:
        _write(args.json, harness.report_to_json(report))
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print("%-52s %s" % (name, "PASS" if ok else "FAIL"))
        if not ok:
            failures += 1

    kept = apriori.filter_redundant(fixtures.sample_rule_set())
    check(
        "redundancy filter keeps only the two minimal rules",
        [sorted(r.antecedent) for r in kept]
        == [
            [("Activity", "Meeting")],
            [("Activity", "Meeting"), ("Relation", "Boss")],
        ],
    )

    ds = fixtures.sample_rule_dataset()
    end_to_end = apriori.filter_redundant(apriori.mine(ds, Fraction(4, 5)))
    check(
        "end-to-end filtered mining yields the same two rules",
        {(r.sort_antecedent, r.consequent) for r in end_to_end}
        == {
            ((("Activity", "Meeting"),), "Reject"),
            ((("Activity", "Meeting"), ("Relation", "Boss")), "Accept"),
        },
    )

    demo = fixtures.demo_dataset()
    ranking = precedence.rank_contexts(demo, ["Activity", "Relation"])
    check("demo ranking puts Relation first", ranking.attributes == ("Relation", "Activity"))

    agt_rules = agt.mine(demo, agt.MiningConfig(Fraction(3, 4)))
    check("tree miner finds 3 rules on the demo dataset", len(agt_rules) == 3)
    base = apriori.mine(demo, Fraction(3, 4))
    check("baseline finds 7 rules on the demo dataset", len(base) == 7)
    check(
        "tree rules are a subset of the baseline rules",
        {r.key() for r in agt_rules} <= {r.key() for r in base},
    )
    if failures:
        raise AssertionError("%d selftest checks failed" % failures)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "ingest": _cmd_ingest,
    "rank": _cmd_rank,
    "mine-agt": _cmd_mine_agt,
    "mine-apriori": _cmd_mine_apriori,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        ConfigError,
        IngestError,
        SchemaViolation,
        GenerationError,
        EmptyDatasetError,
        FileNotFoundError,
        UnicodeDecodeError,
        csv.Error,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except AssertionError as exc:
        sys.stderr.write("invariant violation: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
