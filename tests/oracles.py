"""Independent reference implementations used to check the miners and loaders.

Rules are found by exhaustive enumeration with direct counting, with no
candidate pruning; the reference tree, filter and frequent itemsets are
the row-scanning, pairwise and level-wise bitset versions the package
replaced; the reference loaders, encoder and generator build one
dict and one Instance per row, as the package did before datasets were
stored as columns; and the reference dataset and call-log writers hand
every row to csv.writer, as the package did before it quoted each value
once. None of these shares code with the package's mining, loading,
writing or generating paths. The one exception is the reference
sweep: it calls the package's miners afresh for every threshold and
counts the rules they return, where the sweep counts each rule's
threshold interval from one tree and one redundancy pass.
"""

import csv
import io
import itertools
import math
import os
import random
import sys
from contextlib import nullcontext
from datetime import datetime
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, repeat
from typing import Iterable

from behavrules.datamodel import (
    ConfigError,
    ContextSchema,
    Dataset,
    Instance,
    Rule,
    RowCodes,
    SchemaViolation,
)
from behavrules.ingest import (
    BEHAVIOR_CLASSES,
    DAY_NAMES,
    TIME_ATTRIBUTE,
    UNKNOWN_VALUE,
    UNSEGMENTED,
    IngestError,
    IngestSummary,
    derive_behavior,
)
from behavrules.serialize import BEHAVIOR_COLUMN
from behavrules.synth import (
    _BEHAVIOR_TO_CALL,
    CONFIDENCE_SLACK,
    GenerationError,
    PlantedRuleSpec,
    _timestamp_for,
)

GAIN_TOLERANCE = 1e-12


def brute_force_cars(ds, threshold, min_support=1):
    """Every rule over every condition subset and class, by direct counting."""
    rules = set()
    attrs = ds.schema.attributes
    for k in range(1, len(attrs) + 1):
        for chosen in itertools.combinations(attrs, k):
            for values in itertools.product(*(domain for _, domain in chosen)):
                conditions = tuple(
                    (name, val) for (name, _), val in zip(chosen, values)
                )
                coverage = sum(1 for i in ds.instances if i.matches(conditions))
                if coverage == 0:
                    continue
                per_class = {}
                for inst in ds.instances:
                    if inst.matches(conditions):
                        per_class[inst.behavior] = per_class.get(inst.behavior, 0) + 1
                for cls, support in per_class.items():
                    if support >= min_support and coverage >= min_support:
                        if Fraction(support, coverage) >= threshold:
                            rules.add((frozenset(conditions), cls, support, coverage))
    return rules


def direct_frequent(ds, min_support=1):
    """{frozenset(conditions): support} of every frequent condition set."""
    found = {}
    attrs = ds.schema.attributes
    for k in range(1, len(attrs) + 1):
        for chosen in itertools.combinations(attrs, k):
            for values in itertools.product(*(domain for _, domain in chosen)):
                conditions = tuple(
                    (name, val) for (name, _), val in zip(chosen, values)
                )
                support = sum(1 for i in ds.instances if i.matches(conditions))
                if support >= min_support:
                    found[frozenset(conditions)] = support
    return found


def reference_filter_redundant(rules):
    """The quadratic minimal-antecedent filter: compare every pair of rules."""
    kept = []
    for rule in rules:
        shadowed = any(
            other.consequent == rule.consequent and other.antecedent < rule.antecedent
            for other in rules
        )
        if not shadowed:
            kept.append(rule)
    return kept


def reference_sweep(ds, thresholds, min_support=1):
    """harness.sweep as one independent run per threshold.

    The baseline rules are mined once at the lowest threshold, then each
    threshold filters them by confidence and runs the pairwise redundancy
    filter, and grows and extracts a fresh tree; each column is the length
    of a rule list, not a count of intervals.
    """
    from behavrules import agt, apriori
    from behavrules.datamodel import ConfigError
    from behavrules.harness import SweepReport, SweepRow

    if min_support < 1:  # fails every threshold, so it fails the sweep
        raise ConfigError("min_support must be >= 1, got %d" % min_support)
    for t in thresholds:  # so does a threshold outside (0, 1], before anything is mined
        agt.MiningConfig(t, min_support)
    all_rules = None
    baseline_error = None
    if thresholds:
        try:
            frequent = apriori.mine_frequent(ds, min_support)
            all_rules = apriori.generate_cars(ds, frequent, min(thresholds), min_support)
        except (ValueError, ArithmeticError) as exc:
            baseline_error = exc
    rows = []
    for t in thresholds:
        try:
            if baseline_error is not None:
                raise baseline_error
            base = [r for r in all_rules if r.confidence >= t]
            kept = reference_filter_redundant(base)
            removed = Fraction(len(base) - len(kept), len(base)) if base else Fraction(0)
            cfg = agt.MiningConfig(t, min_support)
            agt_rules = agt.extract_rules(agt.build_tree(ds, cfg), cfg)
            rows.append(SweepRow(t, len(base), len(agt_rules), removed))
        except (ValueError, ArithmeticError) as exc:
            rows.append(SweepRow(t, None, None, None, error=str(exc)))
    return SweepReport(ds.fingerprint(), min_support, tuple(rows))


def _class_counts(instances):
    counts = {}
    for inst in instances:
        counts[inst.behavior] = counts.get(inst.behavior, 0) + 1
    return counts


def _entropy(instances):
    """Exactly rounded, like precedence._entropy, so class order cannot change it."""
    n = len(instances)
    return 0.0 - math.fsum([c / n * math.log2(c / n) for c in _class_counts(instances).values()])


def _gain(schema, instances, attr):
    n = len(instances)
    if n == 0:
        return 0.0
    split_entropy = 0.0
    for val in schema.domain(attr):
        sub = [i for i in instances if i.values[attr] == val]
        if sub:
            split_entropy += (len(sub) / n) * _entropy(sub)
    return max(_entropy(instances) - split_entropy, 0.0)


def reference_ranking(schema, instances, candidates):
    """(attribute, gain) pairs by gain, ties within 1e-12 by name."""
    gains = [(name, _gain(schema, instances, name)) for name in candidates]

    def compare(a, b):
        if a[1] > b[1] + GAIN_TOLERANCE:
            return -1
        if b[1] > a[1] + GAIN_TOLERANCE:
            return 1
        return -1 if a[0] < b[0] else (1 if a[0] > b[0] else 0)

    gains.sort(key=cmp_to_key(compare))
    return tuple(gains)


def reference_tree(ds, cfg):
    """Grow the association generation tree by filtering instance lists.

    The tree miner as it was before it counted encoded rows: every node
    holds its instances and every gain partitions them anew.
    """
    from behavrules.agt import AgtNode

    schema = ds.schema
    contexts = list(schema.attribute_names)
    global_order = None
    if cfg.global_ranking:
        global_order = [a for a, _ in reference_ranking(schema, ds.instances, contexts)]
    t = cfg.confidence_threshold
    next_id = 1

    def grow(instances, branch, remaining, ancestors):
        nonlocal next_id
        counts = _class_counts(instances)
        dominant = min(counts, key=lambda c: (-counts[c], c))
        node = AgtNode(next_id, branch, dominant, counts[dominant], len(instances))
        next_id += 1
        if ancestors and node.confidence >= t:
            compare_to = [ancestors[-1]]
            if cfg.strict_redundancy:
                qualifying = [a for a in ancestors if a.confidence >= t]
                if qualifying:
                    compare_to.append(qualifying[-1])
            node.redundant = any(
                anc.confidence >= t and anc.dominant_behavior == dominant
                for anc in compare_to
            )
        if node.confidence == 1 or not remaining:
            return node
        if global_order is not None:
            split = next(a for a in global_order if a in remaining)
        else:
            split = reference_ranking(schema, instances, remaining)[0][0]
        node.split_attribute = split
        rest = [a for a in remaining if a != split]
        for val in schema.domain(split):
            sub = [i for i in instances if i.values[split] == val]
            if sub:
                node.children.append(grow(sub, (split, val), rest, ancestors + [node]))
        return node

    return grow(list(ds.instances), None, contexts, [])


def random_dataset(rng: random.Random, max_attrs=4, max_vals=4, max_inst=12):
    """Small random categorical dataset for property checks."""
    n_attrs = rng.randint(1, max_attrs)
    attrs = []
    for i in range(n_attrs):
        n_vals = rng.randint(1, max_vals)
        # reverse string order, so that a miner taking domain order for value order shows
        attrs.append(("a%d" % i, sorted(["v%d" % j for j in range(n_vals)], reverse=True)))
    n_classes = rng.randint(2, 3)
    classes = ["c%d" % j for j in range(n_classes)]
    schema = ContextSchema.create(attrs, classes)
    n = rng.randint(1, max_inst)
    instances = [
        Instance(
            {name: rng.choice(domain) for name, domain in schema.attributes},
            rng.choice(classes),
        )
        for _ in range(n)
    ]
    return Dataset.create(schema, instances)


def example_tree():
    """Hand-built tree mirroring the worked three-context example.

    Root splits on Activity; the Meeting branch splits on Relation (its
    Friend child repeats the parent's class and is REDUNDANT), the Lunch
    branch sits below an 80% threshold and splits on Relation as well.
    Node ids are chosen so rule-producing nodes are 2, 3, 4, 5 and 7.
    """
    from behavrules.agt import AgtNode

    lecture = AgtNode(2, ("Activity", "Lecture"), "Reject", 100, 100)
    meeting = AgtNode(3, ("Activity", "Meeting"), "Reject", 85, 100,
                      split_attribute="Relation")
    lunch_friend = AgtNode(4, ("Relation", "Friend"), "Accept", 92, 100)
    lunch_unknown = AgtNode(5, ("Relation", "Unknown"), "Missed", 95, 100)
    meeting_friend = AgtNode(6, ("Relation", "Friend"), "Reject", 90, 100,
                             redundant=True)
    meeting_boss = AgtNode(7, ("Relation", "Boss"), "Accept", 100, 100)
    lunch = AgtNode(8, ("Activity", "Lunch"), "Accept", 55, 100,
                    split_attribute="Relation")
    meeting.children = [meeting_friend, meeting_boss]
    lunch.children = [lunch_friend, lunch_unknown]
    root = AgtNode(1, None, "Reject", 150, 300, split_attribute="Activity")
    root.children = [lecture, meeting, lunch]
    return root


def rule_keys(rules):
    """Comparable identity tuples for a list of package Rule objects."""
    return {(r.antecedent, r.consequent, r.support, r.coverage) for r in rules}


def distinct_row_ids(ds):
    """The dataset row ids of each distinct (values, behavior) row of ds.

    Distinct rows come in order of first occurrence, the order of the
    distinct-row ids that tree growth hands to precedence.split and
    precedence.child_counts.
    """
    names = ds.schema.attribute_names
    groups = {}
    for i, inst in enumerate(ds.instances):
        key = (tuple(inst.values[name] for name in names), inst.behavior)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def reference_row_codes(schema, instances):
    """RowCodes of instances, each distinct row coded from its first Instance."""
    labels = tuple(sorted(schema.behavior_classes))
    first, counts = {}, {}
    for inst in instances:
        key = (tuple(inst.values[name] for name in schema.attribute_names), inst.behavior)
        first.setdefault(key, inst)
        counts[key] = counts.get(key, 0) + 1
    values = {name: [domain.index(inst.values[name]) for inst in first.values()]
              for name, domain in schema.attributes}
    value_class = {
        name: [v * len(labels) + labels.index(inst.behavior)
               for v, inst in zip(values[name], first.values())]
        for name in schema.attribute_names
    }
    return RowCodes(labels, values, value_class, list(counts.values()))


def reference_row_bits(schema, instances):
    """(conditions, classes): one row-id bitset per (attr, value) and per
    behavior class, labels sorted, set bit by bit from each Instance's
    values dict. Row i of n is bit n-1-i."""
    last = len(instances) - 1
    size = (len(instances) + 7) >> 3
    columns = {
        name: {val: bytearray(size) for val in domain}
        for name, domain in schema.attributes
    }
    labels = {c: bytearray(size) for c in sorted(schema.behavior_classes)}
    for i, inst in enumerate(instances):
        j = last - i
        byte, bit = j >> 3, 1 << (j & 7)
        for name, column in columns.items():
            column[inst.values[name]][byte] |= bit
        labels[inst.behavior][byte] |= bit
    conditions = {
        (name, val): int.from_bytes(buf, "little")
        for name, column in columns.items()
        for val, buf in column.items()
    }
    return conditions, {c: int.from_bytes(buf, "little") for c, buf in labels.items()}


def level_wise_frequent(ds, min_support=1):
    """(items, support, class_supports) of every frequent itemset, level-wise
    and then by sorted conditions, as apriori.mine_frequent returns them.

    The level-wise join apriori used before it partitioned distinct rows:
    itemsets sharing a prefix are bucketed by their last condition's
    attribute and joined only with later buckets, a candidate with an
    infrequent subset is pruned, and a candidate's rows are its prefix's
    row bitset ANDed with its last condition's (see reference_row_bits).
    """
    conditions, classes = reference_row_bits(ds.schema, ds.instances)
    classes = list(classes.values())
    result = []

    def frequent(itemset, rows, cov):
        supports = tuple((rows & cls_rows).bit_count() for cls_rows in classes)
        result.append((frozenset(itemset), cov, supports))

    # each level maps sorted condition tuples to their rows, filled in
    # sorted order, so itemsets sharing a prefix are adjacent
    level = {}
    for cond in sorted(conditions):
        rows = conditions[cond]
        cov = rows.bit_count()
        if cov >= min_support:
            level[(cond,)] = rows
            frequent((cond,), rows, cov)
    while level:
        prefixes, level = level, {}
        for _, group in itertools.groupby(prefixes, key=lambda itemset: itemset[:-1]):
            buckets = [list(b) for _, b in
                       itertools.groupby(group, key=lambda itemset: itemset[-1][0])]
            for b, bucket in enumerate(buckets):
                later = [itemset[-1] for rest in buckets[b + 1:] for itemset in rest]
                for left in bucket:
                    for last in later:
                        candidate = left + (last,)
                        if all(candidate[:j] + candidate[j + 1:] in prefixes
                               for j in range(len(candidate) - 2)):
                            rows = prefixes[left] & conditions[last]
                            cov = rows.bit_count()
                            if cov >= min_support:
                                level[candidate] = rows
                                frequent(candidate, rows, cov)
    return result


def _instances_dataset(attr_names, domains, classes, rows):
    schema = ContextSchema.create([(name, domains[name]) for name in attr_names], classes)
    instances = [Instance(values, behavior) for values, behavior in rows]
    for inst in instances:
        inst.validate(schema)
    return schema, instances


def reference_dataset_from_csv(text):
    """(schema, instances) of a dataset file, read one dict per row."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaViolation("dataset file is empty") from None
    if BEHAVIOR_COLUMN not in header:
        raise SchemaViolation("dataset file lacks a %r column" % BEHAVIOR_COLUMN)
    behavior_idx = header.index(BEHAVIOR_COLUMN)
    attrs = [c for i, c in enumerate(header) if i != behavior_idx]
    rows = []
    domains = {a: [] for a in attrs}
    classes = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaViolation("row has %d cells, expected %d" % (len(row), len(header)))
        behavior = row[behavior_idx]
        values = {}
        for i, cell in enumerate(row):
            if i == behavior_idx:
                continue
            attr = attrs[i] if i < behavior_idx else attrs[i - 1]
            values[attr] = cell
            if cell not in domains[attr]:
                domains[attr].append(cell)
        if behavior not in classes:
            classes.append(behavior)
        rows.append((values, behavior))
    if not rows:
        raise SchemaViolation("dataset file has no rows")
    return _instances_dataset(attrs, domains, classes, rows)


def reference_dataset_to_csv(ds):
    """A dataset file written row by row through csv.writer."""
    if BEHAVIOR_COLUMN in ds.schema.attribute_names:
        raise SchemaViolation(
            "context attribute %r collides with the class column" % BEHAVIOR_COLUMN
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(ds.schema.attribute_names) + [BEHAVIOR_COLUMN])
    writer.writerows(zip(*ds.columns, ds.behaviors))
    return buf.getvalue()


def reference_write_log(ds, out):
    """A raw call log written row by row through csv.writer, with no check
    on attribute names or values beyond the call classes."""
    unknown = set(ds.schema.behavior_classes) - set(BEHAVIOR_CLASSES)
    if unknown:
        raise GenerationError(
            "classes %r cannot be encoded as call records" % sorted(unknown)
        )
    names = ds.schema.attribute_names
    context_cols = [a for a in names if a != TIME_ATTRIBUTE]
    context = [values for a, values in zip(names, ds.columns) if a != TIME_ATTRIBUTE]
    if TIME_ATTRIBUTE in names:
        labels = ds.columns[names.index(TIME_ATTRIBUTE)]
        stamp = {label: _timestamp_for(label) for label in dict.fromkeys(labels)}
        stamps = map(stamp.__getitem__, labels)
    else:
        stamps = repeat("2004-09-13 12:00:00")
    calls = map(_BEHAVIOR_TO_CALL.__getitem__, ds.behaviors)
    rows = ((ts, *call, *cells) for ts, call, *cells in zip(stamps, calls, *context))
    header = ["timestamp", "call_type", "duration"] + context_cols
    to_path = isinstance(out, (str, os.PathLike))
    with open(out, "w", encoding="utf-8", newline="") if to_path else nullcontext(out) as fh:
        for row in chain([header], rows):
            # as csv.writer writes a CR LF-ended row, so a CR in a field is quoted
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(row)
            fh.write(line.getvalue() if to_path else line.getvalue()[:-2] + "\n")


def reference_segment_timestamp(ts, cfg):
    """The time-segment label of ts, parsing custom "hh:mm" bounds on every call."""
    day = DAY_NAMES[ts.weekday()]
    if cfg.mode == "weekday-only":
        return day
    if cfg.mode == "weekday-hour-bucket":
        start = (ts.hour // cfg.bucket_hours) * cfg.bucket_hours
        return "%s[%02d:00-%02d:00]" % (day, start, start + cfg.bucket_hours)
    minute = ts.hour * 60 + ts.minute
    for seg in cfg.segments:
        lo, hi = (int(b[:-3]) * 60 + int(b[-2:]) for b in (seg.start, seg.end))
        if seg.day == day and lo <= minute < hi:
            return seg.name()
    return UNSEGMENTED


def reference_segments_error(segments):
    """The ConfigError message custom segments with well-formed times earn, or None.

    Checks each segment in order against every earlier one, pair by pair.
    """
    bounds = []
    for seg in segments:
        if seg.day not in DAY_NAMES:
            return "unknown day %r" % seg.day
        start, end = (int(b[:-3]) * 60 + int(b[-2:]) for b in (seg.start, seg.end))
        if start >= end:
            return "segment %s is empty" % seg.name()
        for day, lo, hi in bounds:
            if day == seg.day and start < hi and lo < end:
                return "overlapping segments on %s" % seg.day
        bounds.append((seg.day, start, end))
    return None


def reference_load_log(path, mapping, seg, strict=False):
    """(schema, instances, summary) of a call log read with csv.DictReader.

    Skip reasons number the records from 2, which names the wrong file
    line after a blank line or a cell that spans lines.
    """
    summary = IngestSummary()
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=mapping.delimiter)
        header = reader.fieldnames or []
        needed = [mapping.timestamp_col, mapping.type_col, mapping.duration_col]
        needed.extend(mapping.context_cols)
        for col in needed:
            if col not in header:
                raise ConfigError("mapped column %r not in header %r" % (col, header))
        last_col = header[-1]
        for lineno, row in enumerate(reader, start=2):
            summary.rows_read += 1
            try:
                if row[last_col] is None:
                    raise IngestError("row has fewer cells than the header")
                stamp = row[mapping.timestamp_col].strip()
                ts = datetime.strptime(stamp, "%Y-%m-%d %H:%M:%S")
                duration = int(row[mapping.duration_col].strip())
                behavior = derive_behavior(row[mapping.type_col], duration)
            except (ValueError, IngestError) as exc:
                if strict:
                    raise IngestError("line %d: %s" % (lineno, exc)) from exc
                summary.skipped += 1
                summary.skip_reasons.append("line %d: %s" % (lineno, exc))
                continue
            label = reference_segment_timestamp(ts, seg)
            if label == UNSEGMENTED:
                summary.unsegmented += 1
            values = {TIME_ATTRIBUTE: label}
            for col in mapping.context_cols:
                cell = (row.get(col) or "").strip()
                values[col] = cell if cell else UNKNOWN_VALUE
            rows.append((values, behavior))
    attr_names = [TIME_ATTRIBUTE] + list(mapping.context_cols)
    domains = {name: [] for name in attr_names}
    classes = []
    for values, behavior in rows:
        for name in attr_names:
            if values[name] not in domains[name]:
                domains[name].append(values[name])
        if behavior not in classes:
            classes.append(behavior)
    if not rows:
        raise IngestError("no loadable rows in %s" % path)
    schema, instances = _instances_dataset(attr_names, domains, classes, rows)
    summary.loaded = len(instances)
    summary.cardinalities = {name: len(domains[name]) for name in attr_names}
    return schema, instances, summary


# synth.generate as it was when it built two Instances per row, probed them
# with Instance.matches and validated the rows with Dataset.create
def reference_generate(
    schema: ContextSchema,
    specs: Iterable[PlantedRuleSpec],
    n: int,
    seed: int,
) -> Dataset:
    """Deterministic dataset of n instances realizing the planted rules.

    Instances matching a spec's antecedent get the consequent class for an
    exact quota of round(target * quota) of them; remaining instances draw
    uniform context values that match no spec antecedent, with uniform
    classes.
    """
    specs = list(specs)
    if n < 1:
        raise GenerationError("n must be >= 1, got %d" % n)
    if n > sys.maxsize:
        raise GenerationError("n must be <= %d" % sys.maxsize)
    for spec in specs:
        for attr, val in spec.antecedent:
            if val not in schema.domain(attr):
                raise GenerationError("spec condition %s=%s not in schema" % (attr, val))
        if spec.consequent not in schema.behavior_classes:
            raise GenerationError("spec consequent %r not in schema" % spec.consequent)

    rng = random.Random(seed)
    classes = sorted(schema.behavior_classes)
    quotas = [round(spec.weight * n) for spec in specs]
    if sum(quotas) > n:
        raise GenerationError(
            "quotas sum to %d but only %d instances requested" % (sum(quotas), n)
        )
    if any(q == 0 for q in quotas):
        raise GenerationError("a planted rule's quota rounded to zero; raise n or weight")

    instances: list[Instance] = []
    for spec, quota in zip(specs, quotas):
        positives = round(float(spec.target_confidence) * quota)
        realized = Fraction(positives, quota)
        if abs(realized - spec.target_confidence) > CONFIDENCE_SLACK:
            raise GenerationError(
                "quota %d too small to realize confidence %s within 2pp"
                % (quota, spec.target_confidence)
            )
        fixed = dict(spec.antecedent)
        others = [c for c in classes if c != spec.consequent]
        foreign = [s.antecedent for s in specs if s is not spec]
        for i in range(quota):
            for _attempt in range(10000):
                values = {}
                for attr, domain in schema.attributes:
                    values[attr] = fixed.get(attr) or rng.choice(domain)
                # overlap with another planted antecedent would skew its
                # realized confidence
                probe = Instance(values, spec.consequent)
                if not any(probe.matches(a) for a in foreign):
                    break
            else:
                raise GenerationError(
                    "could not draw instances for %s avoiding other planted antecedents"
                    % (spec.antecedent,)
                )
            if i < positives:
                behavior = spec.consequent
            else:
                behavior = rng.choice(others) if others else spec.consequent
            instances.append(Instance(values, behavior))

    antecedents = [spec.antecedent for spec in specs]
    for _ in range(n - sum(quotas)):
        for _attempt in range(10000):
            values = {
                attr: rng.choice(domain) for attr, domain in schema.attributes
            }
            probe = Instance(values, classes[0])
            if not any(probe.matches(a) for a in antecedents):
                break
        else:
            raise GenerationError(
                "could not draw background instances avoiding the planted antecedents"
            )
        instances.append(Instance(values, rng.choice(classes)))

    rng.shuffle(instances)
    return Dataset.create(schema, instances)
