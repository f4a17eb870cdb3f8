"""In-memory span tracing around the public functions of each behavrules layer.

The tracer patches module and class attributes in place, so it is meant for
a process that runs one traced operation and exits (see op.py). Spans are
kept in parallel arrays (name id, parent id, start, end) and written out
once the operation is over.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from collections import Counter, defaultdict

# name, unit, better: the per-layer metrics the traced run reports, in order.
# RUN_LAYER_METRICS are filled in by run.py from the untraced and traced ops.
RUN_LAYER_METRICS = ("trace.overhead", "cli.raw_wall_s", "machine.slowdown")
LAYER_METRICS = (
    ("trace.overhead", "ratio", "lower"),
    ("cli.raw_wall_s", "s", "lower"),
    ("machine.slowdown", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("ingest.load_log_s", "s", "lower"),
    ("ingest.rows_read", "count", "higher"),
    ("ingest.rows_skipped", "count", "lower"),
    ("serialize.dataset_to_csv_s", "s", "lower"),
    ("serialize.dataset_from_csv_s", "s", "lower"),
    ("serialize.render_s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("datamodel.create_s", "s", "lower"),
    ("datamodel.subset_calls", "count", "lower"),
    ("datamodel.subset_s", "s", "lower"),
    ("datamodel.subset_rows_scanned", "count", "lower"),
    ("datamodel.class_counts_calls", "count", "lower"),
    ("datamodel.class_counts_s", "s", "lower"),
    ("precedence.rank_calls", "count", "lower"),
    ("precedence.gain_calls", "count", "lower"),
    ("precedence.rank_self_s", "s", "lower"),
    ("agt.build_tree_s", "s", "lower"),
    ("agt.build_tree_calls", "count", "lower"),
    ("agt.extract_rules_s", "s", "lower"),
    ("agt.tree_to_dot_s", "s", "lower"),
    ("agt.nodes", "count", "lower"),
    ("agt.depth", "levels", "lower"),
    ("agt.redundant_nodes", "count", "lower"),
    ("agt.rules", "count", "higher"),
    ("agt.rule_yield", "ratio", "higher"),
    ("apriori.mine_frequent_s", "s", "lower"),
    ("apriori.generate_cars_s", "s", "lower"),
    ("apriori.frequent_itemsets", "count", "lower"),
    ("apriori.frequent_l1", "count", "lower"),
    ("apriori.frequent_l2", "count", "lower"),
    ("apriori.frequent_l3", "count", "lower"),
    ("apriori.frequent_l4", "count", "lower"),
    ("apriori.cars", "count", "lower"),
    ("apriori.filter_redundant_s", "s", "lower"),
    ("apriori.filter_calls", "count", "lower"),
    ("apriori.kept_ratio", "ratio", "higher"),
    ("harness.sweep_self_s", "s", "lower"),
)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i in range(len(starts)):
        covered = 0.0
        reach = starts[i]
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo = max(starts[c], reach)
            hi = min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def tree_depth(root) -> int:
    """Edges on the longest root-to-leaf path of an AgtNode tree."""
    deepest = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children)
    return deepest


class Tracer:
    """Records a span per call of each wrapped function."""

    def __init__(self):
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.kept: dict[str, list] = defaultdict(list)

    def wrap(self, name, fn, keep=None):
        """Return fn recording one span per call; keep(args, result) is stored."""
        if name not in self.span_names:
            self.span_names.append(name)
        nid = self.span_names.index(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        kept = self.kept[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    def count(self, name, fn):
        """Return fn counting its calls without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every layer boundary the per-layer metrics read.

        Names bound by `from x import y` are patched where they are used:
        cli.load_log and agt.rank_contexts.
        """
        from behavrules import agt, apriori, cli, datamodel, harness, ingest, precedence, serialize

        def result(args, r):
            return r

        load_log = self.wrap("ingest.load_log", ingest.load_log, lambda a, r: r[1])
        ingest.load_log = cli.load_log = load_log

        serialize.dataset_to_csv = self.wrap(
            "serialize.dataset_to_csv", serialize.dataset_to_csv, result)
        serialize.rules_to_text = self.wrap("serialize.render", serialize.rules_to_text, result)
        serialize.rules_to_jsonl = self.wrap("serialize.render", serialize.rules_to_jsonl, result)
        serialize.dataset_from_csv = self.wrap(
            "serialize.dataset_from_csv", serialize.dataset_from_csv)

        ds_cls = datamodel.Dataset
        ds_cls.create = classmethod(
            self.wrap("datamodel.create", ds_cls.__dict__["create"].__func__))
        ds_cls.subset = self.wrap(
            "datamodel.subset", ds_cls.subset, lambda a, r: len(a[0].instances))
        ds_cls.class_counts = self.wrap("datamodel.class_counts", ds_cls.class_counts)

        rank = self.wrap("precedence.rank_contexts", precedence.rank_contexts)
        precedence.rank_contexts = agt.rank_contexts = rank
        precedence.information_gain = self.count(
            "precedence.information_gain", precedence.information_gain)

        agt.build_tree = self.wrap("agt.build_tree", agt.build_tree, result)
        agt.extract_rules = self.wrap("agt.extract_rules", agt.extract_rules, lambda a, r: len(r))
        agt.tree_to_dot = self.wrap("agt.tree_to_dot", agt.tree_to_dot)

        apriori.mine_frequent = self.wrap("apriori.mine_frequent", apriori.mine_frequent, result)
        apriori.generate_cars = self.wrap(
            "apriori.generate_cars", apriori.generate_cars, lambda a, r: len(r))
        apriori.filter_redundant = self.wrap(
            "apriori.filter_redundant", apriori.filter_redundant,
            lambda a, r: (len(a[0]), len(r)))

        harness.sweep = self.wrap("harness.sweep", harness.sweep)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        own = self_times(self.parents, self.starts, self.ends)
        calls, total, self_s = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.names):
            name = self.span_names[nid]
            calls[name] += 1
            total[name] += self.ends[i] - self.starts[i]
            self_s[name] += own[i]
        return calls, total, self_s, own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but RUN_LAYER_METRICS, from the recorded spans."""
        calls, total, self_s, _ = self.totals()
        kept = self.kept
        summaries = kept["ingest.load_log"]
        trees = kept["agt.build_tree"]
        nodes = [node for root in trees for node in root.walk()]
        rules = sum(kept["agt.extract_rules"])
        frequent = [fi for level in kept["apriori.mine_frequent"] for fi in level]
        sizes = Counter(len(fi.items) for fi in frequent)
        filtered = kept["apriori.filter_redundant"]
        filter_in = sum(n_in for n_in, _ in filtered)
        written = kept["serialize.dataset_to_csv"] + kept["serialize.render"]
        return {
            "cli.self_s": self_s["cli.main"],
            "ingest.load_log_s": total["ingest.load_log"],
            "ingest.rows_read": sum(s.rows_read for s in summaries),
            "ingest.rows_skipped": sum(s.skipped for s in summaries),
            "serialize.dataset_to_csv_s": total["serialize.dataset_to_csv"],
            "serialize.dataset_from_csv_s": total["serialize.dataset_from_csv"],
            "serialize.render_s": total["serialize.render"],
            "serialize.bytes_out": sum(len(text.encode("utf-8")) for text in written),
            "datamodel.create_s": total["datamodel.create"],
            "datamodel.subset_calls": calls["datamodel.subset"],
            "datamodel.subset_s": total["datamodel.subset"],
            "datamodel.subset_rows_scanned": sum(kept["datamodel.subset"]),
            "datamodel.class_counts_calls": calls["datamodel.class_counts"],
            "datamodel.class_counts_s": total["datamodel.class_counts"],
            "precedence.rank_calls": calls["precedence.rank_contexts"],
            "precedence.gain_calls": self.counts["precedence.information_gain"],
            "precedence.rank_self_s": self_s["precedence.rank_contexts"],
            "agt.build_tree_s": total["agt.build_tree"],
            "agt.build_tree_calls": calls["agt.build_tree"],
            "agt.extract_rules_s": total["agt.extract_rules"],
            "agt.tree_to_dot_s": total["agt.tree_to_dot"],
            "agt.nodes": len(nodes),
            "agt.depth": max((tree_depth(root) for root in trees), default=0),
            "agt.redundant_nodes": sum(1 for node in nodes if node.redundant),
            "agt.rules": rules,
            "agt.rule_yield": rules / (len(nodes) - len(trees)) if len(nodes) > len(trees) else 0.0,
            "apriori.mine_frequent_s": total["apriori.mine_frequent"],
            "apriori.generate_cars_s": total["apriori.generate_cars"],
            "apriori.frequent_itemsets": len(frequent),
            "apriori.frequent_l1": sizes[1],
            "apriori.frequent_l2": sizes[2],
            "apriori.frequent_l3": sizes[3],
            "apriori.frequent_l4": sizes[4],
            "apriori.cars": sum(kept["apriori.generate_cars"]),
            "apriori.filter_redundant_s": total["apriori.filter_redundant"],
            "apriori.filter_calls": calls["apriori.filter_redundant"],
            "apriori.kept_ratio": (
                sum(n_out for _, n_out in filtered) / filter_in if filter_in else 0.0),
            "harness.sweep_self_s": self_s["harness.sweep"],
        }

    def write(self, path) -> None:
        """One CSV row per span, times in seconds from the first span's start."""
        *_, own = self.totals()
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "parent", "name", "start_s", "end_s", "self_s"])
            for i, nid in enumerate(self.names):
                out.writerow([
                    i, self.parents[i], self.span_names[nid],
                    "%.9f" % (self.starts[i] - origin),
                    "%.9f" % (self.ends[i] - origin),
                    "%.9f" % own[i],
                ])
