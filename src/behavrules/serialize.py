"""File formats: canonical dataset CSV, rule text, and JSON-lines rules.

A dataset file costs what its distinct content costs. It loads as its
weighted distinct rows (Dataset.from_distinct): each distinct line is
CSV-parsed once, at its first occurrence, and each repeat costs one dict
lookup and adds only its row's id. Writing quotes each distinct value
and class label once and joins the rendered cells of each line.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from typing import TextIO

from .datamodel import ContextSchema, Dataset, Rule, SchemaViolation

BEHAVIOR_COLUMN = "behavior"


class _Echo:
    """A csv.writer target whose write hands the written row back to writerow's caller."""

    @staticmethod
    def write(line: str) -> str:
        return line


def dataset_to_csv(ds: Dataset) -> str:
    """Canonical dataset file: context columns plus a trailing behavior column.

    Each distinct value is quoted once, by the one csv.writer dialect, and
    each line joins its cells' renderings. The bytes are csv.writer's:
    QUOTE_MINIMAL quotes a field by its own characters, and schema values
    are never empty, so a cell renders alike alone and within a row.
    """
    if BEHAVIOR_COLUMN in ds.schema.attribute_names:
        raise SchemaViolation(
            "context attribute %r collides with the class column" % BEHAVIOR_COLUMN
        )
    render = csv.writer(_Echo(), lineterminator="\n").writerow  # returns the line
    header = render(list(ds.schema.attribute_names) + [BEHAVIOR_COLUMN])
    cell = {v: render((v,))[:-1] for _, domain in ds.schema.attributes for v in domain}
    last = {c: render((c,)) for c in ds.schema.behavior_classes}  # ends its line
    lines = zip(*[map(cell.__getitem__, column) for column in ds.columns],
                map(last.__getitem__, ds.behaviors))
    return header + "".join(map(",".join, lines))


class _Pending:
    """The lines of a file, after one line put back in front of them."""

    def __init__(self, lines):
        self.lines = lines
        self.line: str | None = None

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line, self.line = self.line, None
        return next(self.lines) if line is None else line


_BLANK = -1  # the memo entry of a line that holds no cells


def dataset_from_csv(source: str | TextIO) -> Dataset:
    """Rebuild a dataset from file text or an open text file.

    Domains and classes take first-observation order. A file is read as
    it was opened: the CLI opens it as UTF-8 with universal newlines and
    drops a leading byte-order mark, so a quoted CR LF inside a cell reads
    as LF.

    Each distinct line is parsed once. A line seen before costs one dict
    lookup; a new line goes to the one csv.reader, which pulls the
    continuation lines of a multi-line record from the file. A line is
    remembered only when its record is that line alone, so a line read as
    part of a multi-line record is never looked up. The first bad line in
    order of first occurrence is the first bad line of the file, so
    errors come in file order.
    """
    lines = iter(io.StringIO(source) if isinstance(source, str) else source)
    pending = _Pending(lines)
    reader = csv.reader(pending)
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
    memo: dict[str, int] = {}  # line read alone -> its row's id, or _BLANK
    ids = array("I")
    for line in lines:
        rid = memo.get(line)
        if rid is None:
            pending.line = line
            start = reader.line_num
            row = next(reader)
            if len(row) != len(header):
                if row:
                    raise SchemaViolation(
                        "row has %d cells, expected %d" % (len(row), len(header)))
                rid = _BLANK
            else:
                rid = index.setdefault(tuple(row), len(index))
            if reader.line_num == start + 1:
                memo[line] = rid
        if rid != _BLANK:
            ids.append(rid)
    del memo  # its lines are dead weight while the dataset is built
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
