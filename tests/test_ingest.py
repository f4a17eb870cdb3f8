import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import behavrules
from behavrules.datamodel import ConfigError
from behavrules.ingest import (
    ColumnMapping,
    CustomSegment,
    IngestError,
    SegmentationConfig,
    derive_behavior,
    load_log,
    parse_timestamp,
    segment_timestamp,
)
from oracles import reference_segment_timestamp, reference_segments_error

MAPPING = ColumnMapping(
    timestamp_col="timestamp",
    type_col="call_type",
    duration_col="duration",
    context_cols=("relation", "activity"),
)

GOOD_ROWS = [
    "timestamp,call_type,duration,relation,activity",
    "2004-09-17 09:30:00,incoming,42,Boss,Meeting",
    "2004-09-17 10:05:00,incoming,0,Friend,Meeting",
    "2004-09-18 13:00:00,missed,0,Friend,Lunch",
    "2004-09-18 19:20:00,outgoing,120,Colleague,Dinner",
]


class TestDeriveBehavior:
    @pytest.mark.parametrize(
        "call_type,duration,expected",
        [
            ("incoming", 42, "Accept"),
            ("incoming", 1, "Accept"),
            ("incoming", 0, "Reject"),
            ("missed", 0, "Missed"),
            ("outgoing", 0, "Outgoing"),
            ("outgoing", 55, "Outgoing"),
            ("Incoming", 10, "Accept"),  # call type is case-insensitive
        ],
    )
    def test_mapping(self, call_type, duration, expected):
        assert derive_behavior(call_type, duration) == expected

    def test_unknown_call_type_raises(self):
        with pytest.raises(IngestError):
            derive_behavior("videocall", 10)

    def test_negative_duration_raises(self):
        with pytest.raises(IngestError):
            derive_behavior("incoming", -1)


DIGIT_SETS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
              "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]


def _field(width, top):
    """A number up to top, zero-padded to width or not, in ASCII or other digits."""
    return st.builds(
        lambda value, padded, digits: (("%0*d" % (width, value)) if padded else str(value))
        .translate(str.maketrans("0123456789", digits)),
        st.integers(0, top), st.booleans(),
        st.sampled_from(DIGIT_SETS[:1] * 6 + DIGIT_SETS[1:]),
    )


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), value


class TestParseTimestamp:
    @settings(max_examples=600, deadline=None)
    @given(
        st.builds(
            "{}{}-{}-{} {}:{}:{}{}".format,
            st.sampled_from(["", " ", "\t"]),
            _field(4, 10000), _field(2, 13), _field(2, 32),
            _field(2, 25), _field(2, 61), _field(2, 61),
            st.sampled_from(["", " ", "\n"]),
        )
    )
    def test_same_result_or_message_as_strptime(self, text):
        def reference(t):
            return datetime.strptime(t.strip(), "%Y-%m-%d %H:%M:%S")

        assert _outcome(parse_timestamp, text) == _outcome(reference, text)

    @pytest.mark.parametrize("text", [
        "2004-00-14 08:00:00", "2004-13-14 08:00:00", "2004-02-30 08:00:00",
        "2004-09-14 24:00:00", "2004-09-14 08:60:00", "2004-09-14 08:00:60",
        "0000-09-14 08:00:00", "2004-9-14 8:0:0", "\uff12004-09-14 08:00:00",
    ])
    def test_edge_forms_match_strptime(self, text):
        def reference(t):
            return datetime.strptime(t.strip(), "%Y-%m-%d %H:%M:%S")

        assert _outcome(parse_timestamp, text) == _outcome(reference, text)


class TestSegmentation:
    def test_two_hour_bucket_example(self):
        ts = datetime(2004, 9, 17, 9, 30)  # a Friday
        cfg = SegmentationConfig(bucket_hours=2)
        assert segment_timestamp(ts, cfg) == "Friday[08:00-10:00]"

    def test_weekday_only_projection(self):
        cfg = SegmentationConfig(mode="weekday-only")
        assert segment_timestamp(datetime(2004, 9, 13, 23, 59), cfg) == "Monday"

    def test_boundary_goes_to_starting_bucket(self):
        ts = datetime(2004, 9, 17, 10, 0, 0)
        cfg = SegmentationConfig(bucket_hours=2)
        assert segment_timestamp(ts, cfg) == "Friday[10:00-12:00]"

    def test_bucket_labels_enumerate_the_week(self):
        for hours in (1, 2, 3, 6, 24):
            cfg = SegmentationConfig(bucket_hours=hours)
            labels = cfg.labels()
            assert len(labels) == 7 * (24 // hours)
            assert len(set(labels)) == len(labels)

    def test_a_label_shared_by_two_custom_segments_is_listed_once(self):
        cfg = _custom(
            ("Friday", "10:00", "12:00", "Busy"), ("Monday", "08:00", "09:00"),
            ("Saturday", "10:00", "12:00", "Busy"),
        )
        assert cfg.labels() == ["Monday[08:00-09:00]", "Busy"]

    def test_bad_bucket_hours_rejected(self):
        for hours in (5, 0, -2, 48, 2.0, "2", None):
            with pytest.raises(ConfigError, match="bucket_hours must divide 24, got "):
                SegmentationConfig(bucket_hours=hours)

    def test_custom_segment_lookup(self):
        cfg = SegmentationConfig(
            mode="custom-boundaries",
            segments=(
                CustomSegment("Friday", "09:00", "11:00"),
                CustomSegment("Friday", "11:00", "13:00", label="FridayLunch"),
            ),
        )
        assert segment_timestamp(datetime(2004, 9, 17, 9, 0), cfg) == "Friday[09:00-11:00]"
        assert segment_timestamp(datetime(2004, 9, 17, 12, 30), cfg) == "FridayLunch"

    def test_instant_outside_custom_segments_is_unsegmented(self):
        cfg = SegmentationConfig(
            mode="custom-boundaries",
            segments=(CustomSegment("Friday", "09:00", "11:00"),),
        )
        assert segment_timestamp(datetime(2004, 9, 13, 9, 30), cfg) == "Unsegmented"

    def test_overlapping_custom_segments_rejected(self):
        with pytest.raises(ConfigError):
            SegmentationConfig(
                mode="custom-boundaries",
                segments=(
                    CustomSegment("Friday", "09:00", "11:00"),
                    CustomSegment("Friday", "10:00", "12:00"),
                ),
            )


def _custom(*segments):
    return SegmentationConfig(
        mode="custom-boundaries", segments=tuple(CustomSegment(*s) for s in segments)
    )


FIXED_CONFIGS = {
    **{"hours-%d" % h: SegmentationConfig(bucket_hours=h) for h in (1, 2, 3, 4, 6, 8, 12, 24)},
    "weekday-only": SegmentationConfig(mode="weekday-only"),
}
TABLE_CONFIGS = {
    **FIXED_CONFIGS,
    # adjacent segments, one ending at 24:00, on several days, with h:mm bounds
    "custom-adjacent": _custom(
        ("Monday", "0:00", "9:30"), ("Monday", "09:30", "09:31", "Brief"),
        ("Monday", "12:15", "24:00"), ("Wednesday", "23:59", "24:00"),
        ("Sunday", "00:00", "24:00", "AllSunday"),
    ),
    # a segment labelled like the gaps, and a label shared by two segments
    "custom-shared-labels": _custom(
        ("Friday", "08:00", "10:00", "Unsegmented"), ("Friday", "10:00", "12:00", "Busy"),
        ("Saturday", "10:00", "12:00", "Busy"),
    ),
}


class TestSegmentationTable:
    @pytest.mark.parametrize("cfg", TABLE_CONFIGS.values(), ids=TABLE_CONFIGS)
    def test_every_minute_of_the_week_matches_the_reference(self, cfg):
        monday = datetime(2004, 9, 13)
        for minute in range(7 * 24 * 60):
            ts = monday + timedelta(minutes=minute, seconds=minute % 60)
            assert segment_timestamp(ts, cfg) == reference_segment_timestamp(ts, cfg)

    @pytest.mark.parametrize("cfg", FIXED_CONFIGS.values(), ids=FIXED_CONFIGS)
    def test_fixed_mode_labels_follow_the_week(self, cfg):
        monday = datetime(2004, 9, 13)
        week = (monday + timedelta(minutes=m) for m in range(7 * 24 * 60))
        assert cfg.labels() == list(dict.fromkeys(
            reference_segment_timestamp(ts, cfg) for ts in week
        ))

    @pytest.mark.parametrize("time", [
        "09:60", "12:99", "10:-5", "+9:00", " 9:00", "9:00 ", "09:00\n", "24:01", "25:00",
        "99:00", "9", "9:0", "009:00", "09:000", "9:00:00", "", ":", "ab:cd", "\u0669:00",
        "09.00", 900, None,
    ])
    def test_malformed_time_rejected(self, time):
        with pytest.raises(ConfigError) as info:
            _custom(("Friday", time, "24:00"))
        assert str(info.value) == "bad time %r" % (time,)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["Tuesday", "Friday"]),
            st.integers(0, 1440), st.integers(0, 1440),
            st.sampled_from([None, "A", "B", "Unsegmented"]),
            st.sampled_from(["%d:%02d", "%02d:%02d"]),
        ),
        min_size=1, max_size=4,
    ))
    def test_custom_validation_matches_the_pairwise_reference(self, drawn):
        segments = tuple(
            CustomSegment(day, form % divmod(lo, 60), form % divmod(hi, 60), label)
            for day, lo, hi, label, form in drawn
        )
        try:
            SegmentationConfig(mode="custom-boundaries", segments=segments)
            outcome = None
        except ConfigError as exc:
            outcome = str(exc)
        assert outcome == reference_segments_error(segments)


class TestLoadLog:
    def _write(self, tmp_path, lines):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_clean_file_loads_every_row(self, tmp_path):
        ds, summary = load_log(self._write(tmp_path, GOOD_ROWS), MAPPING)
        assert len(ds) == 4
        assert summary.skipped == 0
        assert summary.loaded == 4
        behaviors = [i.behavior for i in ds.instances]
        assert behaviors == ["Accept", "Reject", "Missed", "Outgoing"]
        assert ds.instances[0].values["Time"] == "Friday[08:00-10:00]"

    def test_corrupt_timestamp_skipped_in_lenient_mode(self, tmp_path):
        rows = GOOD_ROWS[:]
        rows[2] = "not-a-date,incoming,0,Friend,Meeting"
        ds, summary = load_log(self._write(tmp_path, rows), MAPPING)
        assert len(ds) == 3
        assert summary.skipped == 1
        assert "line 3" in summary.skip_reasons[0]

    def test_strict_mode_aborts_on_first_bad_row(self, tmp_path):
        rows = GOOD_ROWS[:]
        rows[2] = "not-a-date,incoming,0,Friend,Meeting"
        with pytest.raises(IngestError):
            load_log(self._write(tmp_path, rows), MAPPING, strict=True)

    def test_missing_mapped_column_is_config_error(self, tmp_path):
        rows = ["timestamp,call_type,duration,relation"] + GOOD_ROWS[1:]
        with pytest.raises(ConfigError):
            load_log(self._write(tmp_path, rows), MAPPING)

    def test_empty_context_cell_becomes_unknown(self, tmp_path):
        rows = GOOD_ROWS[:3] + ["2004-09-18 13:00:00,missed,0,,  "]
        rows[0] = GOOD_ROWS[0]
        ds, _ = load_log(self._write(tmp_path, rows), MAPPING)
        last = ds.instances[-1]
        assert last.values["relation"] == "Unknown"
        assert last.values["activity"] == "Unknown"

    def test_loading_is_deterministic(self, tmp_path):
        path = self._write(tmp_path, GOOD_ROWS)
        first, _ = load_log(path, MAPPING)
        second, _ = load_log(path, MAPPING)
        assert first == second

    def test_mapping_from_key_value_file(self, tmp_path):
        cfg = tmp_path / "map.conf"
        cfg.write_text(
            "timestamp_col=timestamp\n"
            "type_col=call_type\n"
            "duration_col=duration\n"
            "context_cols=relation, activity\n"
        )
        assert ColumnMapping.from_file(str(cfg)) == MAPPING

    def test_mapping_from_json_file(self, tmp_path):
        cfg = tmp_path / "map.json"
        cfg.write_text(
            '{"timestamp_col": "timestamp", "type_col": "call_type",'
            ' "duration_col": "duration", "context_cols": ["relation", "activity"]}'
        )
        assert ColumnMapping.from_file(str(cfg)) == MAPPING

    def test_mapping_missing_key_raises(self, tmp_path):
        cfg = tmp_path / "map.conf"
        cfg.write_text("timestamp_col=timestamp\n")
        with pytest.raises(ConfigError):
            ColumnMapping.from_file(str(cfg))

    def test_short_row_skipped_in_lenient_mode(self, tmp_path):
        rows = GOOD_ROWS[:]
        rows[2] = "2004-09-17 10:05:00,incoming"
        ds, summary = load_log(self._write(tmp_path, rows), MAPPING)
        assert len(ds) == 3
        assert summary.skipped == 1
        assert summary.skip_reasons == ["line 3: row has fewer cells than the header"]

    def test_short_row_aborts_in_strict_mode(self, tmp_path):
        rows = GOOD_ROWS[:]
        rows[2] = "2004-09-17 10:05:00,incoming,0,Friend"
        with pytest.raises(IngestError, match="line 3"):
            load_log(self._write(tmp_path, rows), MAPPING, strict=True)

    def test_non_utf8_input_is_ingest_error(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(("\n".join(GOOD_ROWS) + "\n").encode() + b"\xff\xfe,bad\n")
        with pytest.raises(IngestError, match="codec can't decode"):
            load_log(str(path), MAPPING)

    def test_malformed_csv_is_ingest_error(self, tmp_path):
        rows = GOOD_ROWS + ["2004-09-17 09:30:00,incoming,42,Boss," + "x" * 200_000]
        with pytest.raises(IngestError, match="field larger than field limit"):
            load_log(self._write(tmp_path, rows), MAPPING)

    def test_custom_labels_follow_the_minute_within_an_hour(self, tmp_path):
        seg = SegmentationConfig(
            mode="custom-boundaries",
            segments=(
                CustomSegment("Friday", "09:00", "09:30"),
                CustomSegment("Friday", "09:30", "10:00", label="Late"),
            ),
        )
        stamps = ["09:29:59", "09:30:00", "09:00:00", "10:00:00", "09:59:00", "09:29:00"]
        rows = [GOOD_ROWS[0]] + [
            "2004-09-17 %s,incoming,42,Boss,Meeting" % s for s in stamps
        ]
        ds, summary = load_log(self._write(tmp_path, rows), MAPPING, seg)
        assert [i.values["Time"] for i in ds.instances] == [
            "Friday[09:00-09:30]", "Late", "Friday[09:00-09:30]",
            "Unsegmented", "Late", "Friday[09:00-09:30]",
        ]
        assert summary.unsegmented == 1


def test_importing_the_package_builds_no_segmentation_config():
    # load_log builds its default config when called, not when imported
    code = (
        "import gc, behavrules.cli\n"
        "from behavrules.ingest import SegmentationConfig\n"
        "print(sum(isinstance(o, SegmentationConfig) for o in gc.get_objects()))\n"
    )
    src = Path(behavrules.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
