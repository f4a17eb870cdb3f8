"""Load raw call logs into schema-validated datasets.

Behavior classes are derived from call type and duration (an incoming
call with duration > 0 was accepted, with duration 0 rejected), and raw
timestamps are replaced by nominal time-segment labels such as
"Friday[08:00-10:00]".
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from .datamodel import ConfigError, ContextSchema, Dataset

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
    # (day, start minute, end minute, label) of each custom segment, parsed once
    bounds: tuple[tuple[str, int, int, str], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

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
            bounds: list[tuple[str, int, int, str]] = []
            for seg in self.segments:
                if seg.day not in DAY_NAMES:
                    raise ConfigError("unknown day %r" % seg.day)
                start, end = _minutes(seg.start), _minutes(seg.end)
                if start >= end:
                    raise ConfigError("segment %s is empty" % seg.name())
                for day, lo, hi, _ in bounds:
                    if day == seg.day and start < hi and lo < end:
                        raise ConfigError("overlapping segments on %s" % seg.day)
                bounds.append((seg.day, start, end, seg.name()))
            object.__setattr__(self, "bounds", tuple(bounds))

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
    for seg_day, start, end, label in cfg.bounds:
        if seg_day == day and start <= minute < end:
            return label
    return UNSEGMENTED


@dataclass(frozen=True)
class ColumnMapping:
    timestamp_col: str
    type_col: str
    duration_col: str
    context_cols: tuple[str, ...]
    delimiter: str = ","

    def __post_init__(self):
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise ConfigError(
                "mapping delimiter must be one character, got %r" % (self.delimiter,)
            )
        columns = (self.timestamp_col, self.type_col, self.duration_col, *self.context_cols)
        if not all(isinstance(col, str) for col in columns):
            raise ConfigError("mapping columns must be strings, got %r" % (columns,))

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
        elif not isinstance(context, list):
            raise ConfigError(
                "mapping context_cols must be a list or a comma-separated string, got %r"
                % (context,)
            )
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


_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")


def parse_timestamp(text: str) -> datetime:
    """Parse "%Y-%m-%d %H:%M:%S" exactly as datetime.strptime does.

    The zero-padded form takes the faster datetime.fromisoformat; anything
    else, and anything fromisoformat rejects, goes to strptime, so accepted
    forms, values and error messages are strptime's.
    """
    text = text.strip()
    if _CANONICAL_TIMESTAMP.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass
    return datetime.strptime(text, "%Y-%m-%d %H:%M:%S")


def load_log(
    path: str,
    mapping: ColumnMapping,
    seg: SegmentationConfig = SegmentationConfig(),
    strict: bool = False,
) -> tuple[Dataset, IngestSummary]:
    """One row per valid record; schema domains come from observed values.

    Lenient mode counts and skips unparseable rows; strict mode aborts on
    the first one. Missing context cells become the "Unknown" value.
    Skip reasons name the file line a record ends on. Kept rows go
    straight into one list per attribute.
    """
    summary = IngestSummary()
    # a label depends only on the weekday and hour, and on the minute in
    # custom mode, so each is formatted once
    labels: dict[tuple[int, ...], str] = {}
    by_minute = seg.mode == "custom-boundaries"
    times: list[str] = []
    contexts: list[list[str]] = [[] for _ in mapping.context_cols]
    behaviors: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=mapping.delimiter)
        try:
            header = next(reader, [])
            needed = [mapping.timestamp_col, mapping.type_col, mapping.duration_col]
            needed.extend(mapping.context_cols)
            for col in needed:
                if col not in header:
                    raise ConfigError("mapped column %r not in header %r" % (col, header))
            index = {name: i for i, name in enumerate(header)}  # last duplicate wins
            ts_i = index[mapping.timestamp_col]
            type_i = index[mapping.type_col]
            duration_i = index[mapping.duration_col]
            cells = list(zip(contexts, [index[col] for col in mapping.context_cols]))
            width = len(header)
            for row in reader:
                if not row:  # blank line
                    continue
                summary.rows_read += 1
                try:
                    if len(row) < width:
                        raise IngestError("row has fewer cells than the header")
                    ts = parse_timestamp(row[ts_i])
                    duration = int(row[duration_i].strip())
                    behavior = derive_behavior(row[type_i], duration)
                except (ValueError, IngestError) as exc:
                    reason = "line %d: %s" % (reader.line_num, exc)
                    if strict:
                        raise IngestError(reason) from exc
                    summary.skipped += 1
                    summary.skip_reasons.append(reason)
                    continue
                if by_minute:
                    key = (ts.weekday(), ts.hour, ts.minute)
                else:
                    key = (ts.weekday(), ts.hour)
                label = labels.get(key)
                if label is None:
                    label = labels[key] = segment_timestamp(ts, seg)
                if label == UNSEGMENTED:
                    summary.unsegmented += 1
                times.append(label)
                behaviors.append(behavior)
                for column, i in cells:
                    column.append(row[i].strip() or UNKNOWN_VALUE)
        except UnicodeDecodeError as exc:
            raise IngestError("%s is not UTF-8 text: %s" % (path, exc)) from exc
        except csv.Error as exc:
            raise IngestError("%s line %d: %s" % (path, reader.line_num, exc)) from exc

    if not behaviors:
        raise IngestError("no loadable rows in %s" % path)
    attr_names = [TIME_ATTRIBUTE] + list(mapping.context_cols)
    columns = [times] + contexts
    domains = [dict.fromkeys(values) for values in columns]
    schema = ContextSchema.create(zip(attr_names, domains), behaviors)
    ds = Dataset.from_columns(schema, columns, behaviors)
    summary.loaded = len(ds)
    summary.cardinalities = {name: len(d) for name, d in zip(attr_names, domains)}
    return ds, summary
