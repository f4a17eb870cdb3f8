"""Small built-in datasets and rule sets used by the selftest command."""

from __future__ import annotations

from .datamodel import ContextSchema, Dataset, Rule


def demo_schema() -> ContextSchema:
    return ContextSchema.create(
        [("Activity", ["Meeting", "Lunch"]), ("Relation", ["Boss", "Friend"])],
        ["Accept", "Reject"],
    )


def demo_dataset() -> Dataset:
    """Eight call events over two contexts; splits cleanly on Relation."""
    rows = (
        [("Meeting", "Boss", "Accept")] * 2
        + [("Meeting", "Friend", "Reject")] * 4
        + [("Lunch", "Friend", "Accept")]
        + [("Lunch", "Boss", "Accept")]
    )
    *columns, behaviors = zip(*rows)
    return Dataset.from_columns(demo_schema(), columns, behaviors)


def sample_rule_set() -> list[Rule]:
    """Six threshold-valid rules; only the first and last are non-redundant."""

    def rule(conds, consequent, pct):
        return Rule(frozenset(conds), consequent, pct, 100)

    meeting = ("Activity", "Meeting")
    return [
        rule([meeting], "Reject", 83),
        rule([meeting, ("Relation", "Friend")], "Reject", 90),
        rule([meeting, ("Relation", "Colleague")], "Reject", 88),
        rule([meeting, ("Relation", "Friend"), ("Time", "Monday[09:00-11:00]")], "Reject", 100),
        rule([meeting, ("Relation", "Colleague"), ("Time", "Friday[12:00-13:00]")], "Reject", 98),
        rule([meeting, ("Relation", "Boss")], "Accept", 100),
    ]


def sample_rule_dataset() -> Dataset:
    """A dataset whose filtered class-association rules at t=80% are exactly
    Meeting=>Reject and Meeting,Boss=>Accept.

    Lunch rows dilute every single-relation rule below the threshold while
    keeping the Meeting rules intact.
    """
    schema = ContextSchema.create(
        [
            ("Activity", ["Meeting", "Lunch"]),
            ("Relation", ["Boss", "Friend", "Colleague"]),
        ],
        ["Accept", "Reject", "Missed"],
    )
    rows = (
        [("Meeting", "Boss", "Accept")] * 2
        + [("Meeting", "Friend", "Reject")] * 9
        + [("Meeting", "Friend", "Accept")]
        + [("Meeting", "Colleague", "Reject")] * 7
        + [("Meeting", "Colleague", "Accept")]
        + [("Lunch", "Friend", "Accept")] * 2
        + [("Lunch", "Friend", "Missed")]
        + [("Lunch", "Colleague", "Accept")] * 2
        + [("Lunch", "Colleague", "Missed")]
        + [("Lunch", "Boss", "Accept")]
        + [("Lunch", "Boss", "Reject")]
        + [("Lunch", "Boss", "Missed")]
    )
    *columns, behaviors = zip(*rows)
    return Dataset.from_columns(schema, columns, behaviors)
