"""Command-line front end.

Subcommands: gen, ingest, rank, mine-agt, mine-apriori, sweep, selftest.
Exit status: 0 success, 1 input/configuration error, 2 internal invariant
violation (including a failing selftest).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from fractions import Fraction

from . import agt, apriori, fixtures, harness, ingest, precedence, serialize, synth
from .datamodel import ConfigError, ContextSchema, InputError


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
    # utf-8-sig drops a leading byte-order mark, which would join the first column's name
    with open(path, encoding="utf-8-sig") as fh:
        return serialize.dataset_from_csv(fh)


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(_out_path(path), "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="behavrules", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic call log from a spec file")
    p.add_argument("--spec", required=True, help="JSON generation spec")
    p.add_argument("--n", type=int, default=None, help="override instance count")
    p.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p.add_argument("--out", default="-", help="raw call-log output path")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("ingest", help="load a raw call log into a dataset file")
    p.add_argument("log", help="delimited call-log file with a header row")
    p.add_argument("--mapping", required=True, help="column-mapping config file")
    p.add_argument("--out", default="-", help="dataset CSV output path")
    p.add_argument("--strict", action="store_true", help="abort on the first bad row")
    p.add_argument("--seg-mode", default="weekday-hour-bucket",
                   choices=["weekday-hour-bucket", "weekday-only"])
    p.add_argument("--bucket-hours", type=int, default=2)
    p.set_defaults(run=_cmd_ingest)

    p = sub.add_parser("rank", help="rank context attributes by information gain")
    p.add_argument("dataset", help="dataset CSV file")
    p.add_argument("--attrs", nargs="+", default=None, help="candidate attributes")
    p.set_defaults(run=_cmd_rank)

    p = sub.add_parser("mine-agt", help="mine non-redundant rules with the tree miner")
    p.add_argument("dataset")
    p.add_argument("--min-conf", required=True, help="confidence threshold (80, 80%% or 0.8)")
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--classes", nargs="+", default=None, help="only emit these classes")
    p.add_argument("--global-ranking", action="store_true")
    p.add_argument("--strict-redundancy", action="store_true")
    p.add_argument("--dot", default=None, help="also write the tree as DOT")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.set_defaults(run=_cmd_mine_agt)

    p = sub.add_parser("mine-apriori", help="mine class-association rules (baseline)")
    p.add_argument("dataset")
    p.add_argument("--min-conf", required=True)
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--filter-redundant", action="store_true")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.set_defaults(run=_cmd_mine_apriori)

    p = sub.add_parser("sweep", help="compare both miners across thresholds")
    p.add_argument("dataset")
    p.add_argument("--thresholds", nargs="+", default=None)
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--json", default=None, help="also write a JSON twin of the report")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in fixture checks")
    p.set_defaults(run=_cmd_selftest)
    return parser


def _spec_key(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError("%s lacks key %r" % (where, key))
    return obj[key]


def _spec_int(value, key: str) -> int:
    """An integer given as a JSON number or a decimal string."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError("spec %s must be an integer, got %r" % (key, value))


def _read_spec(path: str):
    """(schema, planted rules, spec) from a JSON generation spec."""
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
            raise ConfigError(str(exc)) from None
    if not isinstance(spec, dict):
        raise ConfigError("spec %s is not a JSON object" % path)
    attributes = _spec_key(spec, "attributes", "spec")
    if isinstance(attributes, dict):
        attributes = list(attributes.items())
    if not (
        isinstance(attributes, list)
        and all(isinstance(a, (list, tuple)) and len(a) == 2 and isinstance(a[1], list)
                for a in attributes)
    ):
        raise ConfigError("spec attributes must map each name to a list of values")
    classes = _spec_key(spec, "classes", "spec")
    if not isinstance(classes, list):
        raise ConfigError("spec classes must be a list")
    for name, values in attributes:
        if not isinstance(name, str):
            raise ConfigError("spec attribute name %r is not a string" % (name,))
        for value in values:
            if not isinstance(value, str):
                raise ConfigError("spec attribute %r value %r is not a string" % (name, value))
    for item in classes:
        if not isinstance(item, str):
            raise ConfigError("spec class %r is not a string" % (item,))
    schema = ContextSchema.create(attributes, classes)
    rules = spec.get("rules", [])
    if not isinstance(rules, list):
        raise ConfigError("spec rules must be a list")
    planted = []
    for i, r in enumerate(rules, start=1):
        where = "spec rule %d" % i
        if not isinstance(r, dict):
            raise ConfigError("%s is not a JSON object" % where)
        antecedent = _spec_key(r, "antecedent", where)
        if not isinstance(antecedent, dict):
            raise ConfigError("%s antecedent is not a JSON object" % where)
        consequent = _spec_key(r, "consequent", where)
        if not isinstance(consequent, str):
            raise ConfigError("%s consequent %r is not a string" % (where, consequent))
        weight = _spec_key(r, "weight", where)
        try:
            if isinstance(weight, bool):  # float() would read true as 1.0
                raise TypeError
            weight = float(weight)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("%s weight must be a number, got %r" % (where, weight)) from None
        planted.append(synth.PlantedRuleSpec(
            antecedent=tuple(sorted(antecedent.items())),
            consequent=consequent,
            target_confidence=harness.parse_threshold(str(_spec_key(r, "confidence", where))),
            weight=weight,
        ))
    return schema, planted, spec


def _cmd_gen(args) -> int:
    schema, planted, spec = _read_spec(args.spec)
    n = args.n if args.n is not None else _spec_int(_spec_key(spec, "n", "spec"), "n")
    seed = args.seed if args.seed is not None else _spec_int(spec.get("seed", 0), "seed")
    ds = synth.generate(schema, planted, n, seed)
    synth.write_log(ds, sys.stdout if args.out == "-" else _out_path(args.out))
    return 0


def _cmd_ingest(args) -> int:
    mapping = ingest.ColumnMapping.from_file(args.mapping)
    seg = ingest.SegmentationConfig(mode=args.seg_mode, bucket_hours=args.bucket_hours)
    ds, summary = ingest.load_log(args.log, mapping, seg, strict=args.strict)
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
    for label in args.classes or ():
        if label not in ds.schema.behavior_classes:
            raise ConfigError("unknown behavior class %r" % label)
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
    frequent = apriori.mine_frequent(ds, args.min_support)
    rules = apriori.generate_cars(ds, frequent, threshold, args.min_support)
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
    text = harness.report_to_csv(report)
    if args.json == "-":
        text += harness.report_to_json(report)
    elif args.json:  # written before stdout, so a file that fails leaves stdout empty
        _write(args.json, harness.report_to_json(report))
    sys.stdout.write(text)
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
    cars = apriori.generate_cars(ds, apriori.mine_frequent(ds), Fraction(4, 5))
    end_to_end = apriori.filter_redundant(cars)
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

    cfg = agt.MiningConfig(Fraction(3, 4))
    agt_rules = agt.extract_rules(agt.build_tree(demo, cfg), cfg)
    check("tree miner finds 3 rules on the demo dataset", len(agt_rules) == 3)
    regrown = agt.build_tree(demo, agt.MiningConfig(Fraction(1)))
    check(
        "a tree built at 1 extracts the same rules at 3/4",
        agt.extract_rules(regrown, cfg) == agt_rules,
    )
    base = apriori.generate_cars(demo, apriori.mine_frequent(demo), Fraction(3, 4))
    check("baseline finds 7 rules on the demo dataset", len(base) == 7)
    check(
        "tree rules are a subset of the baseline rules",
        set(agt_rules) <= set(base),
    )
    if failures:
        raise AssertionError("%d selftest checks failed" % failures)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Commands build large long-lived containers (distinct rows, tree nodes,
    # itemsets) and create no reference cycles, so the cycle collector would
    # only rescan them as they grow; reference counting frees what they drop.
    # The parser's own cycles are young, and one young collection frees them.
    collecting = gc.isenabled()
    gc.collect(1)
    gc.disable()
    try:
        return args.run(args)
    except (InputError, OSError, UnicodeDecodeError, csv.Error) as exc:
        message = str(exc)
    except MemoryError:
        # written after the handler, once the frames holding the memory are freed
        message = "out of memory"
    except AssertionError as exc:
        sys.stderr.write("invariant violation: %s\n" % exc)
        return 2
    finally:
        if collecting:
            gc.enable()
    sys.stderr.write("error: %s\n" % message)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
