"""File formats: canonical dataset CSV, rule text, and JSON-lines rules.

A dataset file loads as its weighted distinct rows (Dataset.from_distinct):
a row is kept at its first occurrence, and each copy adds only its id.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from typing import TextIO

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


def dataset_from_csv(source: str | TextIO) -> Dataset:
    """Rebuild a dataset from file text or an open text file.

    Domains and classes take first-observation order. A file is read as
    it was opened: the CLI opens it as UTF-8 with universal newlines, so
    a quoted CR LF inside a cell reads as LF.
    """
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaViolation("dataset file is empty") from None
    if BEHAVIOR_COLUMN not in header:
        raise SchemaViolation("dataset file lacks a %r column" % BEHAVIOR_COLUMN)
    if header.count(BEHAVIOR_COLUMN) > 1:
        raise SchemaViolation("dataset file names the %r column more than once" % BEHAVIOR_COLUMN)
    behavior_idx = header.index(BEHAVIOR_COLUMN)
    index: dict[tuple[str, ...], int] = {}  # distinct row -> id, first occurrence order
    ids = array("I")
    for row in reader:
        if len(row) != len(header):
            if not row:
                continue
            raise SchemaViolation("row has %d cells, expected %d" % (len(row), len(header)))
        ids.append(index.setdefault(tuple(row), len(index)))
    if not ids:
        raise SchemaViolation("dataset file has no rows")
    rows = list(index)
    if behavior_idx < len(header) - 1:  # move the behavior last
        rows = [r[:behavior_idx] + r[behavior_idx + 1:] + (r[behavior_idx],) for r in rows]
    *columns, behaviors = zip(*rows)
    attrs = [c for i, c in enumerate(header) if i != behavior_idx]
    schema = ContextSchema.create(
        [(a, dict.fromkeys(values)) for a, values in zip(attrs, columns)],
        behaviors,
    )
    return Dataset.from_distinct(schema, rows, ids)


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
