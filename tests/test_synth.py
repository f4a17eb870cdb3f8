import io
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from behavrules.agt import MiningConfig, build_tree, extract_rules
from behavrules.datamodel import ContextSchema, Dataset, rule_stats
from behavrules.ingest import (
    BEHAVIOR_CLASSES,
    TIME_ATTRIBUTE,
    ColumnMapping,
    SegmentationConfig,
    load_log,
)
from behavrules.synth import GenerationError, PlantedRuleSpec, generate, write_log

from oracles import reference_generate, reference_write_log

SCHEMA = ContextSchema.create(
    [
        ("Activity", ["Meeting", "Lecture", "Lunch", "Travel"]),
        ("Relation", ["Boss", "Friend", "Colleague", "Stranger"]),
        ("Location", ["Office", "Home", "Outside"]),
    ],
    ["Accept", "Reject", "Missed", "Outgoing"],
)

MEETING_REJECT = PlantedRuleSpec(
    antecedent=(("Activity", "Meeting"),),
    consequent="Reject",
    target_confidence=Fraction(85, 100),
    weight=0.5,
)


class TestGenerate:
    def test_planted_confidence_is_realized(self):
        ds = generate(SCHEMA, [MEETING_REJECT], 1000, seed=7)
        assert len(ds) == 1000
        stats = rule_stats(ds, [("Activity", "Meeting")], "Reject")
        assert stats.coverage == 500
        assert Fraction(83, 100) <= stats.confidence <= Fraction(87, 100)

    def test_single_instance_at_full_confidence(self):
        spec = PlantedRuleSpec(
            (("Activity", "Lunch"),), "Accept", Fraction(1), weight=1.0
        )
        ds = generate(SCHEMA, [spec], 1, seed=3)
        assert len(ds) == 1
        inst = ds.instances[0]
        assert inst.values["Activity"] == "Lunch"
        assert inst.behavior == "Accept"

    def test_same_arguments_reproduce_identical_datasets(self):
        a = generate(SCHEMA, [MEETING_REJECT], 400, seed=42)
        b = generate(SCHEMA, [MEETING_REJECT], 400, seed=42)
        assert a == b
        c = generate(SCHEMA, [MEETING_REJECT], 400, seed=43)
        assert a != c

    def test_overlapping_specs_stay_within_tolerance(self):
        boss_accept = PlantedRuleSpec(
            (("Relation", "Boss"),), "Accept", Fraction(9, 10), weight=0.25
        )
        ds = generate(SCHEMA, [MEETING_REJECT, boss_accept], 2000, seed=5)
        for spec in (MEETING_REJECT, boss_accept):
            stats = rule_stats(ds, spec.antecedent, spec.consequent)
            assert abs(stats.confidence - spec.target_confidence) <= Fraction(2, 100)

    def test_oversubscribed_quotas_rejected(self):
        heavy = PlantedRuleSpec(
            (("Activity", "Lecture"),), "Reject", Fraction(1), weight=0.7
        )
        with pytest.raises(GenerationError):
            generate(SCHEMA, [MEETING_REJECT, heavy], 100, seed=1)

    def test_zero_quota_rejected(self):
        tiny = PlantedRuleSpec(
            (("Activity", "Lecture"),), "Reject", Fraction(1), weight=0.001
        )
        with pytest.raises(GenerationError):
            generate(SCHEMA, [tiny], 10, seed=1)

    def test_unsatisfiable_confidence_rejected(self):
        # quota 2 cannot sit within 2pp of 85%
        spec = PlantedRuleSpec(
            (("Activity", "Meeting"),), "Reject", Fraction(85, 100), weight=0.5
        )
        with pytest.raises(GenerationError):
            generate(SCHEMA, [spec], 4, seed=1)

    def test_planted_rule_recovered_by_tree_miner(self):
        ds = generate(SCHEMA, [MEETING_REJECT], 1500, seed=11)
        t = MEETING_REJECT.target_confidence - Fraction(2, 100)
        cfg = MiningConfig(t)
        rules = extract_rules(build_tree(ds, cfg), cfg)
        planted = frozenset(MEETING_REJECT.antecedent)
        hits = [
            r for r in rules
            if r.consequent == "Reject" and r.antecedent <= planted
        ]
        assert hits, "planted rule (or a generalization) not recovered"


@st.composite
def generation_args(draw):
    """A random schema, 0-3 planted specs, n and seed.

    Specs may overlap or repeat an attribute; now and then one is empty,
    names a value outside its attribute's domain or an unknown class.
    """

    def rarely():
        return draw(st.integers(0, 9)) == 0

    domains = [
        ["v%d" % j for j in range(draw(st.integers(1, 4)))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    classes = ["c%d" % j for j in range(draw(st.integers(1, 4)))]
    schema = ContextSchema.create([("a%d" % i, d) for i, d in enumerate(domains)], classes)

    def condition():
        i = draw(st.integers(0, len(domains) - 1))
        return "a%d" % i, "zz" if rarely() else draw(st.sampled_from(domains[i]))

    specs = [
        PlantedRuleSpec(
            tuple(condition() for _ in range(0 if rarely() else draw(st.integers(1, 3)))),
            "cX" if rarely() else draw(st.sampled_from(classes)),
            draw(st.fractions(Fraction(1, 20), 1, max_denominator=20)),
            draw(st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0])),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return schema, specs, draw(st.integers(1, 300)), draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(args=generation_args())
def test_generate_matches_the_row_object_reference(args):
    try:
        want = reference_generate(*args)
    except GenerationError as exc:
        with pytest.raises(GenerationError) as got:
            generate(*args)
        assert str(got.value) == str(exc)
        return
    got = generate(*args)
    assert got.columns == want.columns
    assert got.behaviors == want.behaviors


class TestWriteLog:
    def test_round_trip_through_ingest(self, tmp_path):
        ds = generate(SCHEMA, [MEETING_REJECT], 600, seed=9)
        path = tmp_path / "log.csv"
        write_log(ds, str(path))
        mapping = ColumnMapping(
            timestamp_col="timestamp",
            type_col="call_type",
            duration_col="duration",
            context_cols=("Activity", "Relation", "Location"),
        )
        loaded, summary = load_log(str(path), mapping)
        assert summary.skipped == 0
        assert len(loaded) == 600
        # behavior classes survive the call-record encoding
        assert loaded.class_counts() == ds.class_counts()

    def test_round_trip_preserves_time_segments(self, tmp_path):
        schema = ContextSchema.create(
            [
                ("Time", ["Friday[08:00-10:00]", "Monday[12:00-14:00]"]),
                ("Relation", ["Boss", "Friend"]),
            ],
            ["Accept", "Reject"],
        )
        spec = PlantedRuleSpec(
            (("Relation", "Boss"),), "Accept", Fraction(9, 10), weight=0.5
        )
        ds = generate(schema, [spec], 200, seed=13)
        path = tmp_path / "log.csv"
        write_log(ds, str(path))
        mapping = ColumnMapping(
            timestamp_col="timestamp",
            type_col="call_type",
            duration_col="duration",
            context_cols=("Relation",),
        )
        loaded, _ = load_log(str(path), mapping)
        assert len(loaded) == 200
        assert loaded.fingerprint() == ds.fingerprint()
        for orig, back in zip(ds.instances, loaded.instances):
            assert back.values["Time"] == orig.values["Time"]
            assert back.behavior == orig.behavior

    def test_write_is_deterministic(self, tmp_path):
        ds = generate(SCHEMA, [MEETING_REJECT], 300, seed=17)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log(ds, str(p1))
        write_log(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_foreign_classes_rejected(self, tmp_path):
        schema = ContextSchema.create([("A", ["x"])], ["Snoozed"])
        from behavrules.datamodel import Dataset, Instance

        ds = Dataset.create(schema, [Instance({"A": "x"}, "Snoozed")])
        with pytest.raises(GenerationError):
            write_log(ds, str(tmp_path / "log.csv"))

    def test_stream_gets_the_file_rows_with_newline_ends(self, tmp_path):
        import io

        ds = generate(SCHEMA, [MEETING_REJECT], 300, seed=17)
        path = tmp_path / "log.csv"
        write_log(ds, path)  # a PathLike works as well as a str
        stream = io.StringIO()
        write_log(ds, stream)
        assert stream.getvalue().encode() == path.read_bytes().replace(b"\r\n", b"\n")
        assert "instances" not in ds.__dict__  # written from the columns


CALL_COLUMNS = ("timestamp", "call_type", "duration")
# the CSV specials, whitespace and non-ASCII
TEXT = st.text('ab ,"\r\n\té€', min_size=1, max_size=5)
TRIMMED = TEXT.filter(lambda v: v == v.strip())


@st.composite
def call_log_datasets(draw, names, values):
    """(dataset, segmentation mode): 1-3 context attributes drawn from
    names, with values drawn from values; maybe a Time attribute of 2-hour
    bucket or weekday-only labels; and 1-12 rows of 1-4 call classes."""
    attributes = [(name, draw(st.lists(values, min_size=1, max_size=3, unique=True)))
                  for name in draw(st.lists(names, min_size=1, max_size=3, unique=True))]
    mode = draw(st.sampled_from(["weekday-hour-bucket", "weekday-only", None]))
    if mode is not None:
        labels = SegmentationConfig(mode).labels()
        domain = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
        attributes.insert(draw(st.integers(0, len(attributes))), (TIME_ATTRIBUTE, domain))
    classes = draw(st.lists(st.sampled_from(BEHAVIOR_CLASSES), min_size=1, unique=True))
    n = draw(st.integers(1, 12))
    columns = [draw(st.lists(st.sampled_from(d), min_size=n, max_size=n)) for _, d in attributes]
    behaviors = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    schema = ContextSchema.create(attributes, classes)
    return Dataset.from_columns(schema, columns, behaviors), mode or "weekday-hour-bucket"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=call_log_datasets(TRIMMED, TRIMMED))
def test_write_log_writes_the_bytes_of_a_row_wise_writer(tmp_path, drawn):
    ds, _ = drawn
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_log(ds, got)
    reference_write_log(ds, want)
    assert got.read_bytes() == want.read_bytes()
    got, want = io.StringIO(), io.StringIO()
    write_log(ds, got)
    reference_write_log(ds, want)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=call_log_datasets(TEXT | st.sampled_from(CALL_COLUMNS), TEXT))
def test_ingest_reads_back_every_log_write_log_accepts(tmp_path, drawn):
    ds, mode = drawn
    path = tmp_path / "log.csv"
    path.unlink(missing_ok=True)
    context = [(a, d) for a, d in ds.schema.attributes if a != TIME_ATTRIBUTE]
    try:
        write_log(ds, str(path))
    except GenerationError:
        assert any(a in CALL_COLUMNS or any(v != v.strip() for v in d) for a, d in context)
        assert not path.exists()
        return
    mapping = ColumnMapping("timestamp", "call_type", "duration", tuple(a for a, _ in context))
    stream = io.StringIO()
    write_log(ds, stream)
    saved = tmp_path / "saved.csv"  # the stream's "\n"-ended text, as saved from stdout
    saved.write_text(stream.getvalue(), encoding="utf-8", newline="")
    for log in (path, saved):
        loaded, summary = load_log(str(log), mapping, SegmentationConfig(mode))
        assert summary.skipped == summary.unsegmented == 0
        assert loaded.behaviors == ds.behaviors
        read = dict(zip(loaded.schema.attribute_names, loaded.columns))
        for attr, values in zip(ds.schema.attribute_names, ds.columns):
            assert read[attr] == values
