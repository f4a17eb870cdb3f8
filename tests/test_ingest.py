from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_bad_bucket_hours_rejected(self):
        with pytest.raises(ConfigError):
            SegmentationConfig(bucket_hours=5)

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
