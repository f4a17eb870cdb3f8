"""Output checks for the benchmark's commands, run outside the timed span.

Each check reads what one command left in its working directory and
returns a list of problems; an empty list means the output is correct.
The checks use the generated dataset the inputs were written from, not
anything the command under test computed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

from behavrules.datamodel import Dataset, rule_stats

RULE_RE = re.compile(
    r"^(?P<conds>.+) => (?P<cls>\S+)  "
    r"\(conf=(?P<pct>\d+\.\d)%, support=(?P<support>\d+)/(?P<coverage>\d+)\)$"
)
SWEEP_HEADER = "threshold,apriori_rules,agt_rules,apriori_redundancy_ratio"


def output_path(workdir: Path, name: str) -> Path:
    """"stdout" names the captured standard output; anything else a file."""
    return workdir / ("stdout.txt" if name == "stdout" else name)


def digests(workdir: Path, outputs) -> dict[str, str | None]:
    """sha256 of each output's bytes; None for an output that is missing."""
    found = {}
    for name in outputs:
        path = output_path(workdir, name)
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return found


def check_ingest(workdir: Path, ds: Dataset, argv) -> list[str]:
    """All rows loaded, none skipped, and the dataset file holds ds's rows in order."""
    problems = []
    summary = (workdir / "stderr.txt").read_text(encoding="utf-8")
    for key, want in (("loaded", len(ds)), ("skipped", 0)):
        match = re.search(r"^%s:\s+(\d+)$" % key, summary, re.M)
        if match is None or int(match.group(1)) != want:
            problems.append("ingest summary %s is not %d" % (key, want))
    attrs = list(ds.schema.attribute_names)
    with open(workdir / argv[argv.index("--out") + 1], encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != attrs + ["behavior"]:
            problems.append("dataset header is not %r" % (attrs + ["behavior"]))
        for i, (row, inst) in enumerate(zip_longest(reader, ds.instances)):
            if inst is None or row != [inst.values[a] for a in attrs] + [inst.behavior]:
                problems.append("dataset row %d differs from the generated instance" % (i + 1))
                break
    return problems


def check_agt(workdir: Path, ds: Dataset, argv) -> list[str]:
    """Recount every emitted rule over ds and check it meets the threshold."""
    problems = []
    threshold = Fraction(argv[argv.index("--min-conf") + 1]) / 100
    buckets: dict[tuple[str, str], list] = {}
    for inst in ds.instances:
        for cond in inst.values.items():
            buckets.setdefault(cond, []).append(inst)
    lines = output_path(workdir, "stdout").read_text(encoding="utf-8").splitlines()
    if not lines:
        problems.append("no rules emitted")
    if len(set(lines)) != len(lines):
        problems.append("a rule is emitted twice")
    for line in lines:
        match = RULE_RE.match(line)
        if match is None:
            problems.append("unparseable rule line %r" % line)
            continue
        conds = [] if match["conds"] == "(any)" else [
            tuple(c.split("=", 1)) for c in match["conds"].split(", ")]
        support, coverage = int(match["support"]), int(match["coverage"])
        # every instance a rule covers matches each of its conditions, so
        # counting within the smallest condition's bucket counts them all
        rows = min((buckets.get(c, []) for c in conds), key=len) if conds else ds.instances
        stats = rule_stats(Dataset(ds.schema, tuple(rows)), conds, match["cls"])
        if (stats.support, stats.coverage) != (support, coverage):
            problems.append("rule %r recounts to %d/%d" % (line, stats.support, stats.coverage))
        elif Fraction(support, coverage) < threshold:
            problems.append("rule %r is below the threshold" % line)
        elif match["pct"] != "%.1f" % (100.0 * support / coverage):
            problems.append("rule %r prints the wrong confidence" % line)
    dot = workdir / argv[argv.index("--dot") + 1]
    text = dot.read_text(encoding="utf-8") if dot.is_file() else ""
    if not (text.startswith("digraph agt {") and text.endswith("}\n")):
        problems.append("tree DOT file is missing or truncated")
    return problems


def check_sweep(workdir: Path, ds: Dataset, argv) -> list[str]:
    """Per threshold: tree rules <= Apriori rules; Apriori never rises with it."""
    problems = []
    report = json.loads((workdir / argv[argv.index("--json") + 1]).read_text(encoding="utf-8"))
    rows = report["rows"]
    csv_lines = output_path(workdir, "stdout").read_text(encoding="utf-8").splitlines()
    expected_csv = [SWEEP_HEADER] + [
        "%s,%s,%s,%s" % (r["threshold"], r["apriori_rules"], r["agt_rules"],
                         r["apriori_redundancy_ratio"])
        for r in rows
    ]
    if csv_lines != expected_csv:
        problems.append("sweep CSV does not match its JSON twin")
    if len(rows) != 9:
        problems.append("sweep has %d rows, not the 9 default thresholds" % len(rows))
    for row in rows:
        if row["error"] is not None:
            problems.append("threshold %s failed: %s" % (row["threshold"], row["error"]))
        elif row["agt_rules"] > row["apriori_rules"]:
            problems.append("threshold %s: more tree rules than Apriori rules" % row["threshold"])
    counts = [r["apriori_rules"] for r in sorted(rows, key=lambda r: Fraction(r["threshold"]))]
    if any(b is not None and a is not None and b > a for a, b in zip(counts, counts[1:])):
        problems.append("Apriori rule count rises with the threshold")
    return problems


CHECKS = {"ingest": check_ingest, "mine-agt": check_agt, "sweep": check_sweep}


def check_outputs(workdir: Path, ds: Dataset, argv) -> list[str]:
    """Run the check for argv's subcommand; a missing output is a problem too."""
    try:
        return CHECKS[argv[0]](workdir, ds, argv)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["output unreadable: %s: %s" % (type(exc).__name__, exc)]
