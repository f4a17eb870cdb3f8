"""The column-building loaders against the row-wise references in oracles.py.

Both loaders must give the schema (domain order included), the instances,
the ingest summary and the distinct-row codes that the one-dict-per-row
loaders gave; skip reasons must name the file line each record ends on.
"""

import csv
import io
import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from behavrules import ingest, serialize
from behavrules.cli import main
from behavrules.datamodel import (
    ContextSchema,
    Dataset,
    Instance,
    SchemaViolation,
)
from behavrules.ingest import (
    ColumnMapping,
    CustomSegment,
    IngestError,
    SegmentationConfig,
    load_log,
)
from behavrules.serialize import dataset_from_csv, dataset_to_csv

from oracles import (
    reference_dataset_from_csv,
    reference_dataset_to_csv,
    reference_load_log,
    reference_row_codes,
)

SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# cells csv must quote: separators, quotes, line breaks and padding; an
# empty cell (a schema error) now and then
CELL = st.integers(0, 40).flatmap(
    lambda k: st.just("") if k == 0 else st.text(alphabet="ab ,\"\n", min_size=1, max_size=4)
)
NAME = st.text(alphabet="abcXY ,\"", min_size=1, max_size=4)


def _csv_text(rows, terminator, blank_after):
    """rows written by csv.writer, with a blank line after the chosen rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=terminator)
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i in blank_after:
            buf.write(terminator)
    return buf.getvalue()


def _assert_same_failure(got, expected):
    assert type(got) is type(expected)
    assert str(got) == str(expected)


@st.composite
def dataset_files(draw):
    attrs = draw(st.lists(NAME, min_size=1, max_size=4))
    header = attrs[:]
    header.insert(draw(st.integers(0, len(attrs))), "behavior")
    n = draw(st.integers(1, 12))
    rows = [header]
    for _ in range(n):
        width = len(header) if draw(st.integers(0, 30)) else draw(st.integers(1, 6))
        rows.append([draw(CELL) for _ in range(width)])
    blank_after = set(draw(st.lists(st.integers(0, n), max_size=3)))
    return _csv_text(rows, draw(st.sampled_from(["\n", "\r\n"])), blank_after)


@SETTINGS
@given(dataset_files())
def test_dataset_from_csv_matches_row_wise_reference(text):
    try:
        schema, instances = reference_dataset_from_csv(text)
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as got:
            dataset_from_csv(text)
        _assert_same_failure(got.value, exc)
        return
    ds = dataset_from_csv(text)
    assert ds.schema == schema
    assert ds.instances == tuple(instances)
    assert ds.codes == reference_row_codes(schema, instances)
    assert dataset_from_csv(dataset_to_csv(ds)) == ds


# cells with no empty one and no CR: a quoted CR LF inside a cell reads as
# LF from an open file (universal newlines) but not from text
FILE_CELL = st.text(alphabet="ab ,\"\n", min_size=1, max_size=3)
ROW_FAULTS = [None] * 8 + ["short", "long", "empty cell", "empty class"]


@st.composite
def distinct_row_files(draw):
    """(file text, columns, behaviors) of a duplicate-heavy, an all-distinct
    or a single-row file, now and then with one bad row (columns None)."""
    attrs = draw(st.lists(NAME, max_size=3, unique=True))
    b = draw(st.integers(0, len(attrs)))
    row_of = st.tuples(*[FILE_CELL] * (len(attrs) + 1))
    kind = draw(st.sampled_from(["duplicates", "distinct", "single"]))
    if kind == "duplicates":
        pool = draw(st.lists(row_of, min_size=1, max_size=3))
        rows = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=30))
    elif kind == "distinct":
        rows = draw(st.lists(row_of, min_size=2, max_size=12, unique=True))
    else:
        rows = [draw(row_of)]
    lines = [attrs[:b] + ["behavior"] + attrs[b:]]
    lines += [list(r[:b]) + [r[-1]] + list(r[b:-1]) for r in rows]
    fault = draw(st.sampled_from(ROW_FAULTS))
    if fault == "short" and len(lines[0]) == 1:
        fault = None  # a row without its one cell is a blank line, which is skipped
    if fault is not None:
        line = draw(st.sampled_from(lines[1:]))
        where = draw(st.integers(0, len(line) - 1))
        if fault == "short":
            del line[where]
        elif fault == "long":
            line.append("a")
        else:
            line[b if fault == "empty class" else where] = ""
    blank_after = set(draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)))
    text = _csv_text(lines, draw(st.sampled_from(["\n", "\r\n"])), blank_after)
    if fault is not None:
        return text, None, None
    return text, list(zip(*rows))[:-1], [r[-1] for r in rows]


def _load_both_ways(text, tmp_path):
    """dataset_from_csv of the text, and of the file opened as the CLI opens it."""
    path = tmp_path / "dataset.csv"
    path.write_bytes(text.encode("utf-8"))
    loaded = []
    for entry in ("text", "file"):
        try:
            if entry == "text":
                loaded.append(dataset_from_csv(text))
            else:
                with open(path, encoding="utf-8") as fh:
                    loaded.append(dataset_from_csv(fh))
        except SchemaViolation as exc:
            loaded.append(exc)
    return loaded


@SETTINGS
@given(distinct_row_files())
def test_loading_into_distinct_rows_matches_column_built_and_reference(tmp_path, case):
    text, columns, behaviors = case
    try:
        schema, instances = reference_dataset_from_csv(text)
    except SchemaViolation as exc:
        assert columns is None
        for got in _load_both_ways(text, tmp_path):
            _assert_same_failure(got, exc)
        return
    names = [n for n, _ in schema.attributes]
    assert ([tuple(i.values[n] for i in instances) for n in names], [i.behavior for i in instances]
            ) == ([tuple(c) for c in columns], behaviors)
    built = Dataset.from_columns(schema, columns, behaviors)
    codes = reference_row_codes(schema, instances)
    class_counts = list(Counter(behaviors).items())  # first-occurrence order
    assert built.codes == codes and list(built.class_counts().items()) == class_counts
    for ds in _load_both_ways(text, tmp_path):
        assert ds == built and ds.schema == schema and len(ds) == len(built)
        assert ds.codes == codes  # labels, values, value_class, counts
        assert list(ds.class_counts().items()) == class_counts
        assert ds.columns == built.columns and ds.behaviors == built.behaviors
        assert ds.instances == built.instances == tuple(instances)


class _CountingReader:
    """A csv.reader that counts the records it returns."""

    def __init__(self, reader, records):
        self.reader, self.records = reader, records

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.reader)
        self.records.append(row)
        return row

    @property
    def line_num(self):
        return self.reader.line_num


def test_a_repeated_line_is_parsed_once(tmp_path, monkeypatch):
    records = []
    reader = csv.reader
    monkeypatch.setattr(serialize.csv, "reader",
                        lambda *args, **kwargs: _CountingReader(reader(*args, **kwargs), records))
    text = "A,behavior\n" + "x,P\ny,Q\n\"a,b\",P\n" * 10_000
    path = tmp_path / "dataset.csv"
    path.write_text(text)
    with open(path, encoding="utf-8") as fh:
        ds = dataset_from_csv(fh)
    assert len(records) <= 4  # the header and each distinct line
    assert len(ds) == 30_000 and len(ds.codes.counts) == 3
    records.clear()
    assert dataset_from_csv(text) == ds and len(records) <= 4


@pytest.mark.parametrize("text", [
    # a line alone, then as the continuation of a quoted cell, then alone
    'A,behavior\nb",P\n"a\nb",P\nb",P\n',
    # the same line as a continuation first, then alone
    'A,behavior\n"a\nb",P\nb",P\nb",P\n',
    # a multi-line record twice, and its first line alone
    'A,behavior\n"a\nb",P\n"a\nb",P\n"a\nx,Q\n',
    # a last line without its newline, equal in text to an earlier line
    "A,behavior\nx,P\ny,Q\nx,P",
    # blank lines between duplicates
    "A,behavior\nx,P\n\nx,P\n\n\nx,P\n\n",
    # LF and CR LF copies of one row
    "A,behavior\r\nx,P\r\nx,P\nx,P\r\ny,Q\nx,P",
    # a bad row after the repeats of a good one
    "A,behavior\nx,P\nx,P\nx,P,extra\ny\n",
])
def test_loading_distinct_lines_matches_the_reference(tmp_path, text):
    try:
        schema, instances = reference_dataset_from_csv(text)
    except SchemaViolation as exc:
        for got in _load_both_ways(text, tmp_path):
            _assert_same_failure(got, exc)
        return
    for ds in _load_both_ways(text, tmp_path):
        assert ds.schema == schema and ds.instances == tuple(instances)
        assert ds.codes == reference_row_codes(schema, instances)


# values csv must quote, and non-ASCII
VALUE = st.text(alphabet='ab ,"\né€', min_size=1, max_size=4)


@st.composite
def writable_datasets(draw, values=VALUE):
    """A column-built dataset, zero to 12 rows, maybe with no context attribute."""
    attrs = draw(st.lists(NAME.filter(lambda n: n != "behavior"), max_size=3, unique=True))
    domains = [draw(st.lists(values, min_size=1, max_size=4, unique=True)) for _ in attrs]
    classes = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 12))
    columns = [[draw(st.sampled_from(domain)) for _ in range(n)] for domain in domains]
    behaviors = [draw(st.sampled_from(classes)) for _ in range(n)]
    schema = ContextSchema.create(zip(attrs, domains), classes)
    return Dataset.from_columns(schema, columns, behaviors)


@SETTINGS
@given(writable_datasets())
def test_dataset_to_csv_writes_the_bytes_of_a_row_wise_writer(ds):
    text = dataset_to_csv(ds)
    assert text == reference_dataset_to_csv(ds)
    if len(ds):
        loaded = dataset_from_csv(text)  # domains: the values seen, in order
        assert (loaded.columns, loaded.behaviors) == (ds.columns, ds.behaviors)
        assert dataset_to_csv(loaded) == reference_dataset_to_csv(loaded) == text


@SETTINGS
@given(writable_datasets(st.text(alphabet='a,"\r\n', min_size=1, max_size=3)))
def test_dataset_to_csv_refuses_a_carriage_return(ds):
    # a dataset file is read with universal newlines, so a quoted CR would read as LF
    domains = [domain for _, domain in ds.schema.attributes]
    if not any("\r" in v for v in chain(*domains, ds.schema.behavior_classes)):
        assert dataset_to_csv(ds) == reference_dataset_to_csv(ds)
        return
    with pytest.raises(SchemaViolation, match="holds a carriage return"):
        dataset_to_csv(ds)


STAMPS = st.one_of(
    st.builds(
        "{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format,
        st.integers(2000, 2010), st.integers(1, 12), st.integers(1, 28),
        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    ),
    st.sampled_from([
        "2004-09-17 09:30:00", " 2004-09-13 23:59:59 ", "2004-9-14 8:0:0",
        "2004-13-01 10:00:00", "2004-02-30 10:00:00", "2004-09-17 24:00:00",
        "not-a-date", "",
    ]),
    st.builds(
        "{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format,
        st.integers(2000, 2010), st.integers(0, 13), st.integers(0, 32),
        st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
    ),
    # a few dates recur with varied clocks, valid or not, canonical or not, so a
    # later row of a date is decoded from the date memo or refused on its own line
    st.builds(
        str.format,
        st.sampled_from(["{} {}"] * 4 + [" {} {} ", "{}T{}", "{} {}.5", "{}  {}", "{} {}\t"]),
        st.sampled_from(["2004-09-17", "2004-02-29", "2010-12-31", "2004-02-30", "2004-9-14",
                         "2004-W38-5"]),
        st.sampled_from(["09:30:00", "00:00:00", "23:59:59", "12:15:07", "24:00:00",
                         "12:60:00", "12:00:60", "12:00:61", "8:0:0", "09:30"]),
    ),
)
# cells that decode alike but differ as text: case, padding, a sign, a leading zero
CALL_TYPES = st.sampled_from(
    ["incoming", "missed", "outgoing", " Incoming", "INCOMING", "videocall"])
DURATIONS = st.sampled_from(["0", "42", " 7 ", "0", "42", "042", "+7", "-1", "x", ""])
CONTEXT = st.sampled_from(["Boss", " Boss", "Boss ", "Friend", "", "  ", "a,b", 'say "hi"',
                           "two\nlines", "Time"])


@st.composite
def call_logs(draw):
    """(csv text, mapping, {record index: file line it ends on})."""
    # a context column named Time clashes with the time attribute
    context_cols = draw(st.lists(st.sampled_from(["rel", "act", "loc", "rel", "act", "Time"]),
                                 min_size=1, max_size=3, unique=True))
    header = ["timestamp", "call_type", "duration"] + context_cols
    header += draw(st.lists(st.sampled_from(["extra", "rel", "timestamp"]), max_size=2))
    header = draw(st.permutations(header))
    mapping = ColumnMapping("timestamp", "call_type", "duration", tuple(context_cols),
                            delimiter=draw(st.sampled_from([",", ";"])))
    fill = {"timestamp": STAMPS, "call_type": CALL_TYPES, "duration": DURATIONS}
    # now and then every row repeats one of a few, so memoised cells and
    # failures recur on later lines
    pool = [[draw(fill.get(col, CONTEXT)) for col in header]
            for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3])))]
    rows = [header]
    for _ in range(draw(st.integers(0, 10))):
        if pool:
            row = list(draw(st.sampled_from(pool)))
        else:
            row = [draw(fill.get(col, CONTEXT)) for col in header]
        if not draw(st.integers(0, 8)):
            row = row[:draw(st.integers(1, len(row)))]
        elif not draw(st.integers(0, 8)):
            row.append("surplus")
        rows.append(row)
    blank_after = set(draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=mapping.delimiter, lineterminator=terminator)
    ends = []
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i:
            ends.append(buf.getvalue().count("\n"))
        if i in blank_after:
            buf.write(terminator)
    return buf.getvalue(), mapping, ends


def _true_lines(message, ends):
    """The reference's record numbers (records count from line 2) as file lines."""
    return re.sub(r"line (\d+)", lambda m: "line %d" % ends[int(m.group(1)) - 2], message,
                  count=1)


SEGMENTATIONS = st.sampled_from([
    SegmentationConfig(),
    SegmentationConfig(bucket_hours=3),
    SegmentationConfig(mode="weekday-only"),
    # minute-level bounds, a labelled segment and gaps (Unsegmented)
    SegmentationConfig(mode="custom-boundaries", segments=tuple(
        CustomSegment(day, start, end, label)
        for day in ("Monday", "Wednesday", "Friday", "Saturday")
        for start, end, label in (("00:00", "09:30", None), ("09:30", "09:31", "Brief"),
                                  ("12:15", "24:00", None))
    )),
])


def _one_line_records(*stamps):
    """A call_logs value of one incoming call per stamp, one line per record."""
    lines = ["timestamp,call_type,duration,rel"] + ["%s,incoming,42,Boss" % s for s in stamps]
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("rel",))
    return "\n".join(lines) + "\n", mapping, list(range(2, len(stamps) + 2))


# Each clock edge on a memoised date (a Friday's) and on a new date (a Sunday,
# the last day of the table), then a padded canonical cell and cells too short
# to hold a clock. Explicit examples run first and are never shrunk, so a
# loader that misreads one of them fails at once.
CLOCK_EDGES = ["24:00:00", "12:60:00", "12:00:60"]
EDGE_STAMPS = (["2004-09-17 09:30:00"] + ["2004-09-17 " + c for c in CLOCK_EDGES]
               + ["2004-09-19 " + c for c in CLOCK_EDGES] + [" 2004-09-17 09:30:00 ", "", "2004"])


@SETTINGS
@example(log=_one_line_records(*EDGE_STAMPS), strict=False, seg=SegmentationConfig())
@example(log=_one_line_records("2004-09-17 09:30:00", "2004-09-17 24:00:00"),
         strict=True, seg=SegmentationConfig())
@example(log=_one_line_records("2004-09-17 09:30:00", "2004-09-17 12:60:00"),
         strict=True, seg=SegmentationConfig())
@example(log=_one_line_records("2004-09-19 12:00:60"), strict=True, seg=SegmentationConfig())
@given(log=call_logs(), strict=st.booleans(), seg=SEGMENTATIONS)
def test_load_log_matches_row_wise_reference(tmp_path, log, strict, seg):
    text, mapping, ends = log
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        schema, instances, summary = reference_load_log(str(path), mapping, seg, strict)
    except (ValueError, IngestError) as exc:
        with pytest.raises(type(exc)) as got:
            load_log(str(path), mapping, seg, strict)
        assert str(got.value) == _true_lines(str(exc), ends)
        return
    ds, got = load_log(str(path), mapping, seg, strict)
    assert ds.schema == schema
    assert ds.instances == tuple(instances)
    assert ds.codes == reference_row_codes(schema, instances)
    for name in ("rows_read", "loaded", "skipped", "unsegmented", "cardinalities"):
        assert getattr(got, name) == getattr(summary, name)
    assert got.skip_reasons == [_true_lines(r, ends) for r in summary.skip_reasons]
    if ends == list(range(2, len(ends) + 2)):  # one line per record, no blank lines
        assert got.skip_reasons == summary.skip_reasons


def test_skip_reasons_name_the_file_line(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "timestamp,call_type,duration,relation\n"  # line 1
        "2004-09-17 09:30:00,incoming,42,Boss\n"
        "\n"
        "\n"
        "not-a-date,incoming,42,Boss\n"  # line 5, the 2nd record
        '2004-09-17 09:30:00,incoming,42,"Best\n'
        'Friend"\n'  # the record on lines 6-7
        "2004-09-17 09:30:00,videocall,42,Boss\n"  # line 8, the 4th record
    )
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("relation",))
    ds, summary = load_log(str(path), mapping)
    assert summary.skip_reasons == [
        "line 5: time data 'not-a-date' does not match format '%Y-%m-%d %H:%M:%S'",
        "line 8: unknown call type 'videocall'",
    ]
    assert [i.values["relation"] for i in ds.instances] == ["Boss", "Best\nFriend"]
    with pytest.raises(IngestError, match="^line 5: "):
        load_log(str(path), mapping, strict=True)


def test_a_bad_clock_on_a_memoised_date_is_refused_on_its_own_line(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text(
        "timestamp,call_type,duration,relation\n"  # line 1
        "2004-09-17 09:30:00,incoming,42,Boss\n"  # a Friday, now memoised
        "2004-09-17 12:00:60,incoming,42,Boss\n"  # line 3
        "2004-09-17 23:59:59,incoming,42,Boss\n"
        "2004-09-17 24:00:00,incoming,42,Boss\n"  # line 5
        "2004-09-17 12:60:00,incoming,42,Boss\n"
        "2004-09-17 12:00:61,incoming,42,Boss\n"
        " 2004-09-17 07:00:00 ,incoming,42,Boss\n"  # padded, so parsed whole
        "2004-09-17T11:00:00,incoming,42,Boss\n"  # line 9
        "2004-09-17 11:00:00.5,incoming,42,Boss\n"
        "2004-09-17 8:0:0,incoming,42,Boss\n"
        "2004-9-17 08:00:00,incoming,42,Boss\n"
        "2004-02-30 08:00:00,incoming,42,Boss\n"  # line 13, a date that never was
        "2004-02-30 08:00:00,incoming,42,Boss\n"
        "2004-W38-5 08:00:00,incoming,42,Boss\n"  # an ISO week date, which strptime refuses
    )
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("relation",))
    ds, summary = load_log(str(path), mapping)
    _, instances, reference = reference_load_log(str(path), mapping, SegmentationConfig())
    assert summary.skip_reasons == reference.skip_reasons
    assert summary.skip_reasons[:3] == [
        "line 3: second must be in 0..59",
        "line 5: time data '2004-09-17 24:00:00' does not match format '%Y-%m-%d %H:%M:%S'",
        "line 6: time data '2004-09-17 12:60:00' does not match format '%Y-%m-%d %H:%M:%S'",
    ]
    assert [r.split(":")[0] for r in summary.skip_reasons] == [
        "line %d" % n for n in (3, 5, 6, 7, 9, 10, 13, 14, 15)]
    assert ds.instances == tuple(instances)
    assert ds.columns[0] == ("Friday[08:00-10:00]", "Friday[22:00-24:00]", "Friday[06:00-08:00]",
                             "Friday[08:00-10:00]", "Friday[08:00-10:00]")
    with pytest.raises(IngestError, match=r"^line 3: second must be in 0\.\.59$"):
        load_log(str(path), mapping, strict=True)
    conf = tmp_path / "map.conf"
    conf.write_text("timestamp_col=timestamp\ntype_col=call_type\nduration_col=duration\n"
                    "context_cols=relation\n")
    out = tmp_path / "dataset.csv"
    assert main(["ingest", str(path), "--mapping", str(conf), "--out", str(out), "--strict"]) == 1
    assert capsys.readouterr().err == "error: line 3: second must be in 0..59\n"
    assert not out.exists()


def test_the_date_memo_starts_over_when_full(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "DATES_KEPT", 2)
    dates = ["2004-09-%02d" % d for d in (13, 14, 15, 13, 16, 14, 17, 13, 15, 31)]
    clocks = ["09:30:00", "23:59:59", "12:00:60", "00:00:00", "24:00:00", "12:15:07", "07:00:00"]
    rows = ["%s %s,incoming,42,Boss" % (d, clocks[i % 7]) for i, d in enumerate(dates * 3)]
    path = tmp_path / "log.csv"
    path.write_text("timestamp,call_type,duration,relation\n" + "\n".join(rows) + "\n")
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("relation",))
    ds, summary = load_log(str(path), mapping)
    _, instances, reference = reference_load_log(str(path), mapping, SegmentationConfig())
    assert ds.instances == tuple(instances)
    assert summary.skip_reasons == reference.skip_reasons
    assert summary.skipped == 10  # eight bad clocks, and two good ones on September 31


def test_a_repeated_bad_call_is_refused_on_each_line(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "timestamp,call_type,duration,relation\n"  # line 1
        "2004-09-17 09:30:00,videocall,42,Boss\n"
        "2004-09-17 09:30:00,incoming,42,Boss\n"
        "2004-09-17 09:30:00,videocall,42,Friend\n"  # line 4, the pair of line 2
    )
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("relation",))
    ds, summary = load_log(str(path), mapping)
    assert summary.skipped == 2 and summary.loaded == len(ds) == 1
    assert summary.skip_reasons == [
        "line 2: unknown call type 'videocall'",
        "line 4: unknown call type 'videocall'",
    ]
    with pytest.raises(IngestError, match="^line 2: "):
        load_log(str(path), mapping, strict=True)


def test_a_domain_holds_stripped_values_in_first_observation_order(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "timestamp,call_type,duration,location\n"
        "2004-09-17 09:30:00,incoming,42, Home\n"
        "2004-09-17 09:30:00,incoming,42,Office \n"
        "2004-09-17 09:30:00,incoming,42,Home\n"
        "2004-09-17 09:30:00,incoming,42,\n"
    )
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("location",))
    ds, summary = load_log(str(path), mapping)
    assert ds.schema.domain("location") == ("Home", "Office", "Unknown")
    assert ds.columns[1] == ("Home", "Office", "Home", "Unknown")
    assert summary.cardinalities["location"] == 3


def test_summary_keeps_the_first_skip_reasons_and_counts_every_skip(tmp_path):
    path = tmp_path / "log.csv"
    bad = ["2004-09-17 09:30:00,incoming,%d.5,Boss\n" % k for k in range(25)]
    path.write_text(
        "timestamp,call_type,duration,relation\n"
        + "".join(bad)
        + "2004-09-17 09:30:00,incoming,42,Boss\n"
    )
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("relation",))
    _, summary = load_log(str(path), mapping)
    _, _, every = reference_load_log(str(path), mapping, SegmentationConfig())
    assert len(every.skip_reasons) == every.skipped == summary.skipped == 25
    assert summary.skip_reasons == every.skip_reasons[:20]
    assert str(summary) == str(every)


def test_last_duplicate_header_wins(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "relation,timestamp,call_type,duration,relation\n"
        "first,2004-09-17 09:30:00,incoming,42,second\n"
    )
    mapping = ColumnMapping("timestamp", "call_type", "duration", ("relation",))
    ds, _ = load_log(str(path), mapping)
    assert ds.columns[1] == ("second",)


SCHEMA = ContextSchema.create([("A", ["x", "y"]), ("B", ["u"])], ["c", "d"])


def _validate_message(instance):
    with pytest.raises(SchemaViolation) as exc:
        instance.validate(SCHEMA)
    return str(exc.value)


@pytest.mark.parametrize(
    "columns,behaviors,first_bad",
    [
        ((("x", "y", "z"), ("u", "u", "u")), ("c", "d", "c"), 2),
        ((("x", "y"), ("u", "w")), ("c", "d"), 1),
        ((("x", "y"), ("u", "u")), ("c", "e"), 1),
        # row 1 lacks B; row 2's unknown class comes later
        ((("x", "y", "y"), ("u",)), ("c", "d", "e"), 1),
        # the first bad row decides, whatever the column order
        ((("x", "x", "q"), ("u", "w", "u")), ("c", "c", "c"), 1),
    ],
    ids=["unknown-value", "unknown-value-2nd-column", "unknown-class", "ragged", "first-row"],
)
def test_from_columns_rejects_with_validate_message(columns, behaviors, first_bad):
    names = SCHEMA.attribute_names
    row = {name: col[first_bad] for name, col in zip(names, columns) if first_bad < len(col)}
    with pytest.raises(SchemaViolation) as exc:
        Dataset.from_columns(SCHEMA, columns, behaviors)
    assert str(exc.value) == _validate_message(Instance(row, behaviors[first_bad]))


def test_from_columns_rejects_wrong_shapes():
    with pytest.raises(SchemaViolation, match="1 columns for 2 attributes"):
        Dataset.from_columns(SCHEMA, [("x",)], ("c",))
    with pytest.raises(SchemaViolation, match="column 'B' has 2 values for 1 rows"):
        Dataset.from_columns(SCHEMA, [("x",), ("u", "u")], ("c",))


def test_create_reports_the_first_bad_instance():
    rows = [
        Instance({"A": "x", "B": "u"}, "c"),
        Instance({"A": "z", "B": "u"}, "c"),  # first bad row: unknown value
        Instance({"A": "x"}, "c"),  # lacks B
    ]
    with pytest.raises(SchemaViolation, match="^value 'z' not in domain of 'A'$"):
        Dataset.create(SCHEMA, rows)
    with pytest.raises(SchemaViolation, match="^instance missing attribute 'B'$"):
        Dataset.create(SCHEMA, [rows[0], rows[2], rows[1]])


def test_high_cardinality_attribute_round_trips():
    values = ["v%03d" % i for i in range(300)]
    schema = ContextSchema.create([("Wide", values), ("Flag", ["on", "off"])], ["c", "d"])
    rows = [Instance({"Wide": values[(7 * i) % 300], "Flag": ("on", "off")[i % 2]},
                     "cd"[i % 3 == 0]) for i in range(900)]
    text = dataset_to_csv(Dataset.create(schema, rows))
    back = dataset_from_csv(text)  # domains now in first-observation order
    assert dataset_to_csv(back) == text
    assert back.instances == tuple(rows)
    assert back.codes == reference_row_codes(back.schema, rows)
    covered = Counter()
    for v, count in zip(back.codes.values["Wide"], back.codes.counts):
        covered[v] += count
    assert sorted(covered) == list(range(300)) and set(covered.values()) == {3}
