"""Load raw call logs into schema-validated datasets.

Behavior classes are derived from call type and duration (an incoming
call with duration > 0 was accepted, with duration 0 rejected), and raw
timestamps are replaced by nominal time-segment labels such as
"Friday[08:00-10:00]".
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from .datamodel import ConfigError, ContextSchema, Dataset, Instance

ACCEPT = "Accept"
REJECT = "Reject"
MISSED = "Missed"
OUTGOING = "Outgoing"
BEHAVIOR_CLASSES = (ACCEPT, REJECT, MISSED, OUTGOING)

TIME_ATTRIBUTE = "Time"
UNKNOWN_VALUE = "Unknown"  # sentinel for missing/empty context cells
UNSEGMENTED = "Unsegmented"

DAY_NAMES = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)


class IngestError(ValueError):
    """Raised for unreadable rows in strict mode and bad call types."""


def derive_behavior(call_type: str, duration_seconds: int) -> str:
    """Map (call type, duration) to a behavior class."""
    if duration_seconds < 0:
        raise IngestError("negative duration %d" % duration_seconds)
    kind = call_type.strip().lower()
    if kind == "incoming":
        return ACCEPT if duration_seconds > 0 else REJECT
    if kind == "missed":
        return MISSED
    if kind == "outgoing":
        return OUTGOING
    raise IngestError("unknown call type %r" % call_type)


@dataclass(frozen=True)
class CustomSegment:
    day: str  # e.g. "Friday"
    start: str  # "hh:mm", inclusive
    end: str  # "hh:mm", exclusive; "24:00" allowed
    label: Optional[str] = None

    def name(self) -> str:
        return self.label or "%s[%s-%s]" % (self.day, self.start, self.end)


@dataclass(frozen=True)
class SegmentationConfig:
    mode: str = "weekday-hour-bucket"  # or "weekday-only" / "custom-boundaries"
    bucket_hours: int = 2
    segments: tuple[CustomSegment, ...] = ()

    def __post_init__(self):
        if self.mode not in ("weekday-hour-bucket", "weekday-only", "custom-boundaries"):
            raise ConfigError("unknown segmentation mode %r" % self.mode)
        if self.mode == "weekday-hour-bucket":
            if self.bucket_hours < 1 or 24 % self.bucket_hours != 0:
                raise ConfigError(
                    "bucket_hours must divide 24, got %d" % self.bucket_hours
                )
        if self.mode == "custom-boundaries":
            if not self.segments:
                raise ConfigError("custom-boundaries mode needs segments")
            by_day: dict[str, list[tuple[int, int]]] = {}
            for seg in self.segments:
                if seg.day not in DAY_NAMES:
                    raise ConfigError("unknown day %r" % seg.day)
                span = (_minutes(seg.start), _minutes(seg.end))
                if span[0] >= span[1]:
                    raise ConfigError("segment %s is empty" % seg.name())
                for other in by_day.setdefault(seg.day, []):
                    if span[0] < other[1] and other[0] < span[1]:
                        raise ConfigError("overlapping segments on %s" % seg.day)
                by_day[seg.day].append(span)

    def labels(self) -> list[str]:
        """All labels this config can produce (minus "Unsegmented")."""
        if self.mode == "weekday-only":
            return list(DAY_NAMES)
        if self.mode == "weekday-hour-bucket":
            out = []
            for day in DAY_NAMES:
                for start in range(0, 24, self.bucket_hours):
                    out.append(
                        "%s[%02d:00-%02d:00]" % (day, start, start + self.bucket_hours)
                    )
            return out
        return [seg.name() for seg in self.segments]


def _minutes(hhmm: str) -> int:
    try:
        hh, mm = hhmm.split(":")
        value = int(hh) * 60 + int(mm)
    except ValueError as exc:
        raise ConfigError("bad time %r" % hhmm) from exc
    if not (0 <= value <= 24 * 60):
        raise ConfigError("time out of range: %r" % hhmm)
    return value


def segment_timestamp(ts: datetime, cfg: SegmentationConfig) -> str:
    """Deterministic nominal label for an instant; buckets are [start, end)."""
    day = DAY_NAMES[ts.weekday()]
    if cfg.mode == "weekday-only":
        return day
    if cfg.mode == "weekday-hour-bucket":
        start = (ts.hour // cfg.bucket_hours) * cfg.bucket_hours
        return "%s[%02d:00-%02d:00]" % (day, start, start + cfg.bucket_hours)
    minute = ts.hour * 60 + ts.minute
    for seg in cfg.segments:
        if seg.day == day and _minutes(seg.start) <= minute < _minutes(seg.end):
            return seg.name()
    return UNSEGMENTED


@dataclass(frozen=True)
class ColumnMapping:
    timestamp_col: str
    type_col: str
    duration_col: str
    context_cols: tuple[str, ...]
    delimiter: str = ","

    @classmethod
    def from_file(cls, path: str) -> "ColumnMapping":
        """Read a mapping config, either JSON or key=value lines."""
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            raw = {}
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("bad mapping line %r" % line)
                key, value = line.split("=", 1)
                raw[key.strip()] = value.strip()
        try:
            context = raw["context_cols"]
        except KeyError as exc:
            raise ConfigError("mapping missing key context_cols") from exc
        if isinstance(context, str):
            context = [c.strip() for c in context.split(",") if c.strip()]
        try:
            return cls(
                timestamp_col=raw["timestamp_col"],
                type_col=raw["type_col"],
                duration_col=raw["duration_col"],
                context_cols=tuple(context),
                delimiter=raw.get("delimiter", ","),
            )
        except KeyError as exc:
            raise ConfigError("mapping missing key %s" % exc) from exc


@dataclass
class IngestSummary:
    rows_read: int = 0
    loaded: int = 0
    skipped: int = 0
    unsegmented: int = 0
    cardinalities: dict[str, int] = field(default_factory=dict)
    skip_reasons: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            "rows read:    %d" % self.rows_read,
            "loaded:       %d" % self.loaded,
            "skipped:      %d" % self.skipped,
            "unsegmented:  %d" % self.unsegmented,
        ]
        for attr, card in self.cardinalities.items():
            lines.append("attribute %-16s %d values" % (attr, card))
        for reason in self.skip_reasons[:20]:
            lines.append("skipped row: %s" % reason)
        return "\n".join(lines)


def parse_timestamp(text: str) -> datetime:
    return datetime.strptime(text.strip(), "%Y-%m-%d %H:%M:%S")


def load_log(
    path: str,
    mapping: ColumnMapping,
    seg: SegmentationConfig = SegmentationConfig(),
    strict: bool = False,
) -> tuple[Dataset, IngestSummary]:
    """One instance per valid row; schema domains come from observed values.

    Lenient mode counts and skips unparseable rows; strict mode aborts on
    the first one. Missing context cells become the "Unknown" value.
    """
    summary = IngestSummary()
    rows: list[tuple[dict[str, str], str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=mapping.delimiter)
        try:
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
                    # DictReader fills the cells a short row lacks with None
                    if row[last_col] is None:
                        raise IngestError("row has fewer cells than the header")
                    ts = parse_timestamp(row[mapping.timestamp_col])
                    duration = int(row[mapping.duration_col].strip())
                    behavior = derive_behavior(row[mapping.type_col], duration)
                except (ValueError, IngestError) as exc:
                    if strict:
                        raise IngestError("line %d: %s" % (lineno, exc)) from exc
                    summary.skipped += 1
                    summary.skip_reasons.append("line %d: %s" % (lineno, exc))
                    continue
                label = segment_timestamp(ts, seg)
                if label == UNSEGMENTED:
                    summary.unsegmented += 1
                values = {TIME_ATTRIBUTE: label}
                for col in mapping.context_cols:
                    cell = (row.get(col) or "").strip()
                    values[col] = cell if cell else UNKNOWN_VALUE
                rows.append((values, behavior))
        except UnicodeDecodeError as exc:
            raise IngestError("%s is not UTF-8 text: %s" % (path, exc)) from exc
        except csv.Error as exc:
            raise IngestError("%s line %d: %s" % (path, reader.line_num, exc)) from exc

    attr_names = [TIME_ATTRIBUTE] + list(mapping.context_cols)
    domains: dict[str, list[str]] = {name: [] for name in attr_names}
    classes: list[str] = []
    for values, behavior in rows:
        for name in attr_names:
            if values[name] not in domains[name]:
                domains[name].append(values[name])
        if behavior not in classes:
            classes.append(behavior)
    if not rows:
        raise IngestError("no loadable rows in %s" % path)

    schema = ContextSchema.create(
        [(name, domains[name]) for name in attr_names], classes
    )
    ds = Dataset.create(schema, (Instance(v, b) for v, b in rows))
    summary.loaded = len(ds)
    summary.cardinalities = {name: len(domains[name]) for name in attr_names}
    return ds, summary
