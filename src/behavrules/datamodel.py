"""Core categorical-data types: schema, instances, datasets, rules.

Schemas, datasets and rules are frozen dataclasses. A Dataset is built
in one of two forms. Dataset.from_columns takes one tuple of values per
attribute, in schema order, plus a tuple of behavior labels; the
generator and the fixtures build datasets this way, with no per-row
objects. ingest hands its columns to Dataset._of_columns, the same form
without the domain check, since its domains are the values it read.
Dataset.from_distinct takes the distinct rows, each once in order of
first occurrence, as columns, plus every dataset row's distinct-row id;
a loaded dataset file is built this way, so it is its weighted distinct
rows and never holds a value per cell. Each form's missing views are
derived and cached on first use: `columns` and `behaviors` from the ids,
and the distinct rows' columns and counts from the columns. So are
`instances`, one Instance per row (its values are a plain dict, which
callers must not mutate); and `codes`, per attribute each distinct row's
value index and its code, value index × len(labels) + class index, which
both miners tally weighted by the counts and partition by value (see
RowCodes). The caches never change what a public method returns. The row
layer (Instance, `instances`, Dataset(schema, instances), create,
subset) and rule_stats serve only the tests and the benchmark.
Confidence values are exact rationals (support / coverage), and every
threshold is applied by confidence_test's integer cross-multiplication,
so comparisons like ">= 80%" never suffer float rounding.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Callable, Iterable


class InputError(ValueError):
    """Input the program refuses; the command line exits 1 with its message."""


class SchemaViolation(InputError):
    """Raised when data does not conform to its declared schema."""


class EmptyDatasetError(InputError):
    """Raised by operations that require at least one instance."""


class ConfigError(InputError):
    """Raised for invalid configuration (bad attributes, thresholds, ...)."""


Condition = tuple[str, str]  # (attribute name, categorical value)


@dataclass(frozen=True)
class ContextSchema:
    """Declares the context attributes (with value domains) and behavior classes.

    Attribute and domain order is significant: it fixes child-creation order
    in tree mining, so it is kept as declared.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]
    behavior_classes: frozenset[str]
    attribute_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _domains: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(name for name, _ in self.attributes)
        if len(names) != len(set(names)):
            raise SchemaViolation("duplicate attribute names: %r" % list(names))
        for name, domain in self.attributes:
            if not name:
                raise SchemaViolation("empty attribute name")
            if not domain:
                raise SchemaViolation("attribute %r has an empty domain" % name)
            if any(not v for v in domain):
                raise SchemaViolation("attribute %r has an empty domain value" % name)
            if len(set(domain)) != len(domain):
                raise SchemaViolation("attribute %r has duplicate domain values" % name)
        if not self.behavior_classes:
            raise SchemaViolation("behavior_classes must be non-empty")
        if any(not c for c in self.behavior_classes):
            raise SchemaViolation("empty behavior class label")
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "_domains", dict(self.attributes))

    @classmethod
    def create(cls, attributes, behavior_classes) -> "ContextSchema":
        """Build a schema from any iterable of (name, values) pairs."""
        attrs = tuple((name, tuple(values)) for name, values in attributes)
        return cls(attrs, frozenset(behavior_classes))

    def domain(self, attr: str) -> tuple[str, ...]:
        if attr not in self._domains:
            raise SchemaViolation("unknown attribute %r" % attr)
        return self._domains[attr]

    def fingerprint(self) -> str:
        """Stable hash of the schema shape, insensitive to domain order."""
        h = hashlib.sha256()
        for name, domain in self.attributes:
            h.update(name.encode())
            h.update(b"\x00")
            for v in sorted(domain):
                h.update(v.encode())
                h.update(b"\x01")
            h.update(b"\x02")
        for c in sorted(self.behavior_classes):
            h.update(c.encode())
            h.update(b"\x03")
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class Instance:
    """One event: a full assignment of context values plus a behavior label."""

    values: dict[str, str]
    behavior: str

    def validate(self, schema: ContextSchema) -> None:
        for name, domain in schema.attributes:
            if name not in self.values:
                raise SchemaViolation("instance missing attribute %r" % name)
            if self.values[name] not in domain:
                raise SchemaViolation(
                    "value %r not in domain of %r" % (self.values[name], name)
                )
        extra = set(self.values) - set(schema.attribute_names)
        if extra:
            raise SchemaViolation("instance has unknown attributes %r" % sorted(extra))
        if self.behavior not in schema.behavior_classes:
            raise SchemaViolation("unknown behavior class %r" % self.behavior)


@dataclass(frozen=True)
class RowCodes:
    """Per-attribute integer codes of one dataset's distinct rows, for both miners.

    A distinct row is one (context values, behavior) combination; they are
    kept in order of first occurrence, and counts[d] is the number of
    dataset rows equal to distinct row d. values[attr][d] is the index of
    row d's value in attr's domain, and value_class[attr][d] is
    values[attr][d] * len(labels) + the index of row d's class in labels,
    computed from row d alone, so encoding never costs domain × classes, and
    one pass over the value_class codes weighted by counts counts rows by
    value and class at once. Only tally reads value_class.
    """

    labels: tuple[str, ...]  # behavior classes, sorted
    values: dict[str, list[int]]
    value_class: dict[str, list[int]]
    counts: list[int]  # dataset rows per distinct row

    @classmethod
    def encode(cls, schema: ContextSchema, columns, counts) -> "RowCodes":
        """Codes of distinct rows, given as columns (see Dataset.from_distinct),
        and their counts."""
        labels = tuple(sorted(schema.behavior_classes))
        *columns, behaviors = columns
        k = len(labels)
        classes = list(map({label: b for b, label in enumerate(labels)}.__getitem__, behaviors))
        values, value_class = {}, {}
        for (name, domain), column in zip(schema.attributes, columns):
            values[name] = list(map({val: v for v, val in enumerate(domain)}.__getitem__, column))
            value_class[name] = [v * k + b for v, b in zip(values[name], classes)]
        return cls(labels, values, value_class, list(counts))

    def tally(self, attr: str, rows: Iterable[int]) -> list[tuple[int, tuple[int, ...]]]:
        """(value index, dataset rows per class in labels order) of each value of
        attr among rows, distinct-row ids each weighted by its count; values
        ascending, like partition's groups."""
        value_class, weights = self.value_class[attr], self.counts
        tally: dict[int, int] = {}
        for row in rows:
            code = value_class[row]
            tally[code] = tally.get(code, 0) + weights[row]
        k = len(self.labels)
        by_value: dict[int, list[int]] = {}
        for code, count in tally.items():
            v, b = divmod(code, k)
            by_value.setdefault(v, [0] * k)[b] = count
        return [(v, tuple(by_value[v])) for v in sorted(by_value)]

    def partition(self, attr: str, rows: Iterable[int]) -> list[list[int]]:
        """rows, ascending distinct-row ids, grouped by their value of attr;
        groups in domain order, each ascending."""
        value = self.values[attr].__getitem__
        # a stable sort groups by value and keeps each group ascending
        return [list(group) for _, group in groupby(sorted(rows, key=value), value)]


def _transpose(rows, width: int) -> tuple:
    """The columns of rows of width values each; width empty columns if no rows."""
    return tuple(zip(*rows)) or ((),) * width


def _first_miss(values, allowed) -> int:
    """Index of the first value not in allowed, or len(values) if none."""
    return next((i for i, v in enumerate(values) if v not in allowed), len(values))


def _check_columns(schema: ContextSchema, columns, behaviors) -> None:
    """Raise the SchemaViolation Instance.validate raises for the first bad row.

    Each column is checked with one set containment; the rows are only
    searched when a check fails.
    """
    if len(columns) != len(schema.attributes):
        raise SchemaViolation(
            "%d columns for %d attributes" % (len(columns), len(schema.attributes))
        )
    n = len(behaviors)
    bad = n
    for (name, domain), values in zip(schema.attributes, columns):
        if len(values) > n:
            raise SchemaViolation(
                "column %r has %d values for %d rows" % (name, len(values), n)
            )
        allowed = frozenset(domain)
        if len(values) < n or not allowed.issuperset(values):
            bad = min(bad, _first_miss(values, allowed))
    if not schema.behavior_classes.issuperset(behaviors):
        bad = min(bad, _first_miss(behaviors, schema.behavior_classes))
    if bad == n:
        return
    for (name, domain), values in zip(schema.attributes, columns):
        if bad >= len(values):
            raise SchemaViolation("instance missing attribute %r" % name)
        if values[bad] not in domain:
            raise SchemaViolation("value %r not in domain of %r" % (values[bad], name))
    raise SchemaViolation("unknown behavior class %r" % behaviors[bad])


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Ordered rows sharing one schema, held as columns or as distinct rows.

    columns holds one tuple of values per schema attribute, in schema
    order; behaviors holds the rows' labels; _distinct holds each distinct
    row once with its count. A dataset built from one form derives the
    others on first use. Two datasets are equal when their schemas and
    rows are, whichever form they were built from. Empty datasets are
    legal; every operation on them returns an empty/zero result rather
    than an error.
    """

    schema: ContextSchema

    def __init__(self, schema: ContextSchema, instances: Iterable[Instance]):
        """Columns of instances, which are taken as valid (see create) and kept."""
        instances = tuple(instances)
        columns = tuple(tuple(i.values[name] for i in instances) for name in schema.attribute_names)
        behaviors = tuple(i.behavior for i in instances)
        self._fill(schema, len(instances), columns=columns, behaviors=behaviors, instances=instances)

    def _fill(self, schema, size, **views) -> "Dataset":
        """Set the schema, the row count and the given views, unchecked."""
        object.__setattr__(self, "schema", schema)
        self.__dict__.update(views, _size=size)
        return self

    @classmethod
    def create(cls, schema: ContextSchema, instances: Iterable[Instance]) -> "Dataset":
        """Validate every instance against the schema, in row order."""
        instances = tuple(instances)
        for inst in instances:
            inst.validate(schema)
        return cls(schema, instances)

    @classmethod
    def from_columns(cls, schema: ContextSchema, columns, behaviors) -> "Dataset":
        """Validate one sequence of values per attribute, in schema order,
        and one of behavior labels, all of the same length."""
        columns = tuple(map(tuple, columns))
        behaviors = tuple(behaviors)
        _check_columns(schema, columns, behaviors)
        return cls._of_columns(schema, columns, behaviors)

    @classmethod
    def _of_columns(cls, schema: ContextSchema, columns, behaviors) -> "Dataset":
        """from_columns without its check, for values the domains were built from."""
        columns = tuple(map(tuple, columns))
        behaviors = tuple(behaviors)
        return cls.__new__(cls)._fill(schema, len(behaviors), columns=columns, behaviors=behaviors)

    @classmethod
    def from_distinct(cls, schema: ContextSchema, columns, ids) -> "Dataset":
        """Validate distinct rows given as columns: one sequence of values per
        attribute, in schema order, then one of behavior labels, entry d of
        each for distinct row d; ids[i] is the distinct row of dataset row i,
        and every distinct row has an id.

        Only the distinct rows are checked, so a bad row raises what
        from_columns raises for its first occurrence, and an id outside
        range(len(behaviors)), or a distinct row that no id names, raises
        SchemaViolation.
        """
        *values, behaviors = columns = tuple(map(tuple, columns))
        _check_columns(schema, values, behaviors)
        counts = [0] * len(behaviors)
        try:
            for d in array("I", ids):  # a negative id raises OverflowError
                counts[d] += 1
        except (OverflowError, IndexError):
            raise SchemaViolation("distinct-row id not in range(%d)" % len(behaviors)) from None
        if 0 in counts:
            raise SchemaViolation("distinct row %d has no id" % counts.index(0))
        return cls.__new__(cls)._fill(schema, len(ids), _ids=ids, _distinct=(columns, counts))

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.schema, self.columns, self.behaviors) == (
            other.schema, other.columns, other.behaviors)

    def __hash__(self) -> int:
        return hash((self.schema, self._size))

    def _expand(self, column) -> tuple[str, ...]:
        """Each dataset row's entry of a distinct-row column, from the distinct-row ids."""
        return tuple(map(column.__getitem__, self._ids))

    @cached_property
    def columns(self) -> tuple[tuple[str, ...], ...]:
        """One tuple of values per schema attribute, in schema order."""
        return tuple(map(self._expand, self._distinct[0][:-1]))

    @cached_property
    def behaviors(self) -> tuple[str, ...]:
        """Each row's behavior label."""
        return self._expand(self._distinct[0][-1])

    @cached_property
    def _distinct(self) -> tuple[tuple[tuple[str, ...], ...], list[int]]:
        """(columns, counts) of the distinct rows, in order of first occurrence:
        one tuple of values per schema attribute, then one of behaviors, and
        how many dataset rows equal each distinct row."""
        tally = Counter(zip(*self.columns, self.behaviors))
        return _transpose(tally, len(self.schema.attributes) + 1), list(tally.values())

    @cached_property
    def instances(self) -> tuple[Instance, ...]:
        """One Instance per row, built on first use and then shared."""
        names = self.schema.attribute_names
        return tuple(
            Instance(dict(zip(names, row)), row[-1])
            for row in zip(*self.columns, self.behaviors)
        )

    def subset(self, attr: str, val: str) -> "Dataset":
        """Rows carrying attr == val, original order, same schema.

        The subset's instances are the very objects of this dataset's.
        """
        if val not in self.schema.domain(attr):  # also rejects unknown attr
            raise SchemaViolation("value %r not in domain of %r" % (val, attr))
        column = self.columns[self.schema.attribute_names.index(attr)]
        return Dataset(self.schema, [inst for inst, v in zip(self.instances, column) if v == val])

    @cached_property
    def codes(self) -> RowCodes:
        """Codes of the distinct rows, built on first use."""
        return RowCodes.encode(self.schema, *self._distinct)

    def class_counts(self) -> dict[str, int]:
        """Instances per behavior class, in order of each class's first instance."""
        counts: dict[str, int] = {}
        columns, weights = self._distinct
        for label, n in zip(columns[-1], weights):
            counts[label] = counts.get(label, 0) + n
        return counts

    def fingerprint(self) -> str:
        return "%d:%s" % (len(self), self.schema.fingerprint())


@dataclass(frozen=True)
class RuleStats:
    """Support/coverage counts for one candidate rule over a dataset.

    coverage == 0 means the antecedent matched nothing, so the rule has
    no confidence; otherwise its confidence is support / coverage.
    """

    support: int
    coverage: int


def confidence_test(threshold) -> Callable[[int, int], bool]:
    """The exact test support / coverage >= threshold, for coverage > 0.

    It cross-multiplies integers, so hot loops build no Fraction. The
    threshold's range is not checked: callers that need (0, 1] check it.
    """
    t = Fraction(threshold)
    num, den = t.numerator, t.denominator
    return lambda support, coverage: support * den >= num * coverage


def rule_stats(ds: Dataset, antecedent: Iterable[Condition], consequent: str) -> RuleStats:
    """Count antecedent matches and antecedent-plus-consequent matches."""
    conditions = list(antecedent)
    for attr, val in conditions:
        if val not in ds.schema.domain(attr):
            raise SchemaViolation("value %r not in domain of %r" % (val, attr))
    if consequent not in ds.schema.behavior_classes:
        raise SchemaViolation("unknown behavior class %r" % consequent)
    names = ds.schema.attribute_names
    columns = [ds.columns[names.index(attr)] for attr, _ in conditions]
    wanted = [val for _, val in conditions]
    coverage = support = 0
    for behavior, *values in zip(ds.behaviors, *columns):
        if values == wanted:
            coverage += 1
            support += behavior == consequent
    return RuleStats(support, coverage)


@dataclass(frozen=True)
class Rule:
    """A behavioral association rule: antecedent conditions => behavior class."""

    antecedent: frozenset[Condition]
    consequent: str
    support: int
    coverage: int
    sort_antecedent: tuple[Condition, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        attrs = [a for a, _ in self.antecedent]
        if len(attrs) != len(set(attrs)):
            raise SchemaViolation("antecedent repeats an attribute: %r" % attrs)
        if not (1 <= self.support <= self.coverage):
            raise SchemaViolation(
                "bad counts: support=%d coverage=%d" % (self.support, self.coverage)
            )
        object.__setattr__(self, "sort_antecedent", tuple(sorted(self.antecedent)))

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.support, self.coverage)

    def __str__(self) -> str:
        conds = ", ".join("%s=%s" % c for c in self.sort_antecedent) or "(any)"
        pct = self.support / self.coverage * 100.0  # int division rounds like Fraction's float
        return "%s => %s  (conf=%.1f%%, support=%d/%d)" % (
            conds, self.consequent, pct, self.support, self.coverage,
        )
