"""File formats: canonical dataset CSV, rule text, and JSON-lines rules."""

from __future__ import annotations

import csv
import io
import json

from .datamodel import ContextSchema, Dataset, Rule, SchemaViolation

BEHAVIOR_COLUMN = "behavior"


def dataset_to_csv(ds: Dataset) -> str:
    """Canonical dataset file: context columns plus a trailing behavior column."""
    if BEHAVIOR_COLUMN in ds.schema.attribute_names:
        raise SchemaViolation(
            "context attribute %r collides with the class column" % BEHAVIOR_COLUMN
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(ds.schema.attribute_names) + [BEHAVIOR_COLUMN])
    writer.writerows(zip(*ds.columns, ds.behaviors))
    return buf.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    """Rebuild a dataset; domains take first-observation order."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaViolation("dataset file is empty") from None
    if BEHAVIOR_COLUMN not in header:
        raise SchemaViolation("dataset file lacks a %r column" % BEHAVIOR_COLUMN)
    if header.count(BEHAVIOR_COLUMN) > 1:
        raise SchemaViolation("dataset file names the %r column more than once" % BEHAVIOR_COLUMN)
    behavior_idx = header.index(BEHAVIOR_COLUMN)
    # one list per file column, filled as rows arrive: keeping every row
    # list for a transpose makes the cyclic GC rescan them all
    columns: list[list[str]] = [[] for _ in header]
    for row in reader:
        if len(row) != len(header):
            if not row:
                continue
            raise SchemaViolation("row has %d cells, expected %d" % (len(row), len(header)))
        for column, cell in zip(columns, row):
            column.append(cell)
    behaviors = columns.pop(behavior_idx)
    if not behaviors:
        raise SchemaViolation("dataset file has no rows")
    attrs = [c for i, c in enumerate(header) if i != behavior_idx]
    schema = ContextSchema.create(
        [(a, dict.fromkeys(values)) for a, values in zip(attrs, columns)],
        behaviors,
    )
    return Dataset.from_columns(schema, columns, behaviors)


def rules_to_text(rules: list[Rule]) -> str:
    return "\n".join(str(r) for r in rules) + ("\n" if rules else "")


def rules_to_jsonl(rules: list[Rule]) -> str:
    lines = []
    for rule in rules:
        lines.append(json.dumps({
            "antecedent": ["%s=%s" % c for c in rule.sort_antecedent],
            "consequent": rule.consequent,
            "support": rule.support,
            "confidence_num": rule.confidence.numerator,
            "confidence_den": rule.confidence.denominator,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
