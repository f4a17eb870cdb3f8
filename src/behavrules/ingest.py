"""Load raw call logs into schema-validated datasets.

Behavior classes are derived from call type and duration (an incoming
call with duration > 0 was accepted, with duration 0 rejected), and raw
timestamps are replaced by nominal time-segment labels such as
"Friday[08:00-10:00]".

load_log decodes each distinct cell once: each distinct (call-type cell,
duration cell) pair is mapped to its behavior once, and each context
column maps each distinct raw cell to its value once. A timestamp is
decoded from its parts: each distinct calendar date is parsed once and
memoised by its "YYYY-MM-DD" text, and the clock is read from fixed
tables of the 1,440 "HH:MM" and 60 "SS" texts. Whole timestamps are not
memoised: a real log at one-second resolution seldom repeats an instant,
so such a memo would only grow. The date memo is bounded: it starts over
after DATES_KEPT dates.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Optional

from .datamodel import ConfigError, ContextSchema, Dataset, InputError

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
DAY_MINUTES = 24 * 60


class IngestError(InputError):
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
    """How timestamps become nominal time-segment labels.

    `table` holds the label of every minute of the week, Monday 00:00
    first, built here once for every mode, so labelling an instant is one
    lookup. Minutes outside every custom segment are "Unsegmented".
    """

    mode: str = "weekday-hour-bucket"  # or "weekday-only" / "custom-boundaries"
    bucket_hours: int = 2
    segments: tuple[CustomSegment, ...] = ()
    table: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.mode == "weekday-hour-bucket":
            hours = self.bucket_hours
            if not isinstance(hours, int) or hours < 1 or 24 % hours != 0:
                raise ConfigError("bucket_hours must divide 24, got %r" % (hours,))
            table = []
            for day in DAY_NAMES:
                for start in range(0, 24, hours):
                    table += ["%s[%02d:00-%02d:00]" % (day, start, start + hours)] * (60 * hours)
        elif self.mode == "weekday-only":
            table = [day for day in DAY_NAMES for _ in range(DAY_MINUTES)]
        elif self.mode == "custom-boundaries":
            if not self.segments:
                raise ConfigError("custom-boundaries mode needs segments")
            table = [None] * (7 * DAY_MINUTES)  # None: no segment has the minute yet
            for seg in self.segments:
                if seg.day not in DAY_NAMES:
                    raise ConfigError("unknown day %r" % seg.day)
                start, end = _minutes(seg.start), _minutes(seg.end)
                if start >= end:
                    raise ConfigError("segment %s is empty" % seg.name())
                day = DAY_NAMES.index(seg.day) * DAY_MINUTES
                if any(label is not None for label in table[day + start:day + end]):
                    raise ConfigError("overlapping segments on %s" % seg.day)
                table[day + start:day + end] = [seg.name()] * (end - start)
            table = [UNSEGMENTED if label is None else label for label in table]
        else:
            raise ConfigError("unknown segmentation mode %r" % self.mode)
        object.__setattr__(self, "table", tuple(table))

    def labels(self) -> list[str]:
        """All labels this config can produce, each once in week order (minus "Unsegmented")."""
        return [label for label in dict.fromkeys(self.table) if label != UNSEGMENTED]


_HHMM = re.compile(r"([0-9]{1,2}):([0-5][0-9])")


def _minutes(hhmm: str) -> int:
    """Minutes past midnight of an "h:mm" or "hh:mm" time, at most "24:00"."""
    match = _HHMM.fullmatch(hhmm) if isinstance(hhmm, str) else None
    minutes = int(match[1]) * 60 + int(match[2]) if match else -1
    if not 0 <= minutes <= DAY_MINUTES:
        raise ConfigError("bad time %r" % hhmm)
    return minutes


def segment_timestamp(ts: datetime, cfg: SegmentationConfig) -> str:
    """The label of the instant's minute of the week; buckets are [start, end)."""
    return cfg.table[ts.weekday() * DAY_MINUTES + ts.hour * 60 + ts.minute]


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
        """Read a mapping config: JSON, or key=value lines, where delimiter=\\t is a tab."""
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            try:
                raw = json.loads(text)
            except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
                raise ConfigError(str(exc)) from None
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
            if raw.get("delimiter") == "\\t":
                raw["delimiter"] = "\t"
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


SKIP_REASONS_KEPT = 20


@dataclass
class IngestSummary:
    rows_read: int = 0
    loaded: int = 0
    skipped: int = 0
    unsegmented: int = 0
    cardinalities: dict[str, int] = field(default_factory=dict)
    # the first SKIP_REASONS_KEPT reasons; skipped counts every skipped row
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
        for reason in self.skip_reasons[:SKIP_REASONS_KEPT]:
            lines.append("skipped row: %s" % reason)
        return "\n".join(lines)


def parse_timestamp(text: str) -> datetime:
    """Parse "%Y-%m-%d %H:%M:%S", outer blanks aside, with datetime.strptime."""
    return datetime.strptime(text.strip(), "%Y-%m-%d %H:%M:%S")


DATES_KEPT = 4096  # the date memo starts over when full: over eleven years of days


def load_log(
    path: str,
    mapping: ColumnMapping,
    seg: Optional[SegmentationConfig] = None,
    strict: bool = False,
) -> tuple[Dataset, IngestSummary]:
    """One row per valid record; schema domains come from observed values.

    Lenient mode counts and skips unparseable rows; strict mode aborts on
    the first one. Missing context cells become the "Unknown" value.
    Skip reasons name the file line a record ends on; the summary keeps
    the first SKIP_REASONS_KEPT of them. Kept rows go straight into one
    list per attribute; a row's time label is seg.table's entry for its
    minute of the week, whatever the segmentation mode.

    A row's behavior comes from a memo keyed by its raw (call type,
    duration) cells, and each context value from its column's memo keyed
    by the raw cell. A pair that fails is never stored, so every row that
    holds it is refused with its own line. A context domain is its memo's
    values, which keep first-observation order; the class set is the
    behavior memo's values, so the dataset is built without from_columns'
    domain check, which could not fail.

    A canonical timestamp cell, "YYYY-MM-DD HH:MM:SS" with nothing around
    it and a real date and time, is decoded from its parts: the minute of
    the week its day starts at comes from a memo keyed by the date text,
    filled by one date.fromisoformat per new date, and the minute of the
    day from the fixed clock table, with the seconds checked against the
    60 valid texts. Every other cell goes to parse_timestamp, so accepted
    forms, values and error messages are strptime's. Whole timestamps are
    not memoised, since distinct instants are the rule in a real log. The
    date memo holds one entry per day the log covers, and starts over
    after DATES_KEPT of them, so a log whose dates seldom recur pays a
    small memo's miss on each row and no ever-growing one.
    """
    summary = IngestSummary()
    table = (seg or SegmentationConfig()).table
    times: list[str] = []
    contexts: list[list[str]] = [[] for _ in mapping.context_cols]
    behaviors: list[str] = []
    behavior_of: dict[tuple[str, str], str] = {}  # (call-type cell, duration cell) -> behavior
    value_of: list[dict[str, str]] = [{} for _ in mapping.context_cols]  # raw cell -> value
    day_start: dict[str, int] = {}  # "YYYY-MM-DD" -> minute of the week its day starts at
    # the rest of a canonical timestamp: " HH:MM:" gives the minute of the day,
    # then "SS" is a valid second; built here, so commands that load no log skip them
    clock_minute = {" %02d:%02d:" % (h, m): h * 60 + m for h in range(24) for m in range(60)}
    seconds = frozenset("%02d" % s for s in range(60))
    with open(path, encoding="utf-8-sig", newline="") as fh:  # drops a byte-order mark
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
            cells = list(zip(contexts, value_of, [index[col] for col in mapping.context_cols]))
            width = len(header)
            for row in reader:
                if not row:  # blank line
                    continue
                try:
                    if len(row) < width:
                        raise IngestError("row has fewer cells than the header")
                    stamp = row[ts_i]
                    key = stamp[:10]
                    day = day_start.get(key)
                    clock = clock_minute.get(stamp[10:17])
                    # a matched clock makes key 10 characters; with dashes at 4 and 7,
                    # fromisoformat reads it only as "YYYY-MM-DD", as strptime would
                    if day is None and clock is not None and key[4] == key[7] == "-":
                        try:
                            day = date.fromisoformat(key).weekday() * DAY_MINUTES
                        except ValueError:  # no such date; parse_timestamp says why
                            pass
                        else:
                            if len(day_start) == DATES_KEPT:
                                day_start.clear()
                            day_start[key] = day
                    if day is None or clock is None or stamp[17:] not in seconds:
                        ts = parse_timestamp(stamp)
                        day, clock = ts.weekday() * DAY_MINUTES, ts.hour * 60 + ts.minute
                    call = row[type_i], row[duration_i]
                    behavior = behavior_of.get(call)
                    if behavior is None:
                        behavior = derive_behavior(call[0], int(call[1].strip()))
                        behavior_of[call] = behavior
                except ValueError as exc:
                    reason = "line %d: %s" % (reader.line_num, exc)
                    if strict:
                        raise IngestError(reason) from exc
                    summary.skipped += 1
                    if len(summary.skip_reasons) < SKIP_REASONS_KEPT:
                        summary.skip_reasons.append(reason)
                    continue
                times.append(table[day + clock])
                behaviors.append(behavior)
                for column, memo, i in cells:
                    cell = row[i]
                    value = memo.get(cell)
                    if value is None:
                        value = memo[cell] = cell.strip() or UNKNOWN_VALUE
                    column.append(value)
        except UnicodeDecodeError as exc:
            raise IngestError("%s is not UTF-8 text: %s" % (path, exc)) from exc
        except csv.Error as exc:
            raise IngestError("%s line %d: %s" % (path, reader.line_num, exc)) from exc

    if not behaviors:
        raise IngestError("no loadable rows in %s" % path)
    attr_names = [TIME_ATTRIBUTE] + list(mapping.context_cols)
    columns = [times] + contexts
    domains = [dict.fromkeys(times)] + [dict.fromkeys(memo.values()) for memo in value_of]
    schema = ContextSchema.create(zip(attr_names, domains), behavior_of.values())
    ds = Dataset._of_columns(schema, columns, behaviors)  # the domains are these very values
    summary.loaded = len(ds)
    summary.rows_read = summary.loaded + summary.skipped
    summary.unsegmented = times.count(UNSEGMENTED)
    summary.cardinalities = {name: len(d) for name, d in zip(attr_names, domains)}
    return ds, summary
