"""Core categorical-data types: schema, instances, datasets, rules.

Schemas, datasets and rules are frozen dataclasses; an Instance holds its
context values in a plain dict, which callers must not mutate. A Dataset
caches one derived encoding (row-id bitsets, see RowBits) on first use;
the cache never changes what a public method returns.
Confidence values are exact rationals (support / coverage), so threshold
comparisons like ">= 80%" never suffer float rounding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional


class SchemaViolation(ValueError):
    """Raised when data does not conform to its declared schema."""


class EmptyDatasetError(ValueError):
    """Raised by operations that require at least one instance."""


class ConfigError(ValueError):
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

    def __post_init__(self):
        names = [name for name, _ in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaViolation("duplicate attribute names: %r" % names)
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

    @classmethod
    def create(cls, attributes, behavior_classes) -> "ContextSchema":
        """Build a schema from any iterable of (name, values) pairs."""
        attrs = tuple((name, tuple(values)) for name, values in attributes)
        return cls(attrs, frozenset(behavior_classes))

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    def domain(self, attr: str) -> tuple[str, ...]:
        for name, domain in self.attributes:
            if name == attr:
                return domain
        raise SchemaViolation("unknown attribute %r" % attr)

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

    def matches(self, antecedent: Iterable[Condition]) -> bool:
        return all(self.values.get(a) == v for a, v in antecedent)


@dataclass(frozen=True)
class RowBits:
    """Row-id bitsets of one dataset, one Python int per set.

    Every count the miners take is the popcount of an AND of these sets,
    e.g. ``(conditions[c] & classes[k]).bit_count()``. Row i of an n-row
    dataset is bit n-1-i, so a set's first row is its highest bit, which
    int.bit_length reads in O(1); finding the lowest bit costs a pass over
    the whole int.
    """

    rows: int  # every row
    conditions: dict[Condition, int]  # rows carrying each (attr, value)
    classes: dict[str, int]  # rows of each behavior class, labels sorted

    @classmethod
    def encode(cls, schema: ContextSchema, instances: tuple[Instance, ...]) -> "RowBits":
        last = len(instances) - 1
        size = (len(instances) + 7) >> 3
        columns = {
            name: {val: bytearray(size) for val in domain}
            for name, domain in schema.attributes
        }
        labels = {c: bytearray(size) for c in sorted(schema.behavior_classes)}
        for i, inst in enumerate(instances):
            j = last - i
            byte, bit = j >> 3, 1 << (j & 7)
            values = inst.values
            for name, column in columns.items():
                column[values[name]][byte] |= bit
            labels[inst.behavior][byte] |= bit
        return cls(
            rows=(1 << len(instances)) - 1,
            conditions={
                (name, val): int.from_bytes(buf, "little")
                for name, column in columns.items()
                for val, buf in column.items()
            },
            classes={c: int.from_bytes(buf, "little") for c, buf in labels.items()},
        )

    def class_counts(self, rows: int) -> dict[str, int]:
        """Class sizes within rows, in order of each class's first row."""
        present = []
        for label, bits in self.classes.items():
            hit = rows & bits
            if hit:
                present.append((-hit.bit_length(), label, hit))
        present.sort()
        return {label: hit.bit_count() for _, label, hit in present}


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of instances sharing one schema.

    Empty datasets are legal; every operation on them returns an
    empty/zero result rather than an error.
    """

    schema: ContextSchema
    instances: tuple[Instance, ...]

    @classmethod
    def create(cls, schema: ContextSchema, instances: Iterable[Instance]) -> "Dataset":
        """Validate every instance against the schema; derived datasets
        (subsets of an already-validated one) skip re-validation."""
        ds = cls(schema, tuple(instances))
        for inst in ds.instances:
            inst.validate(schema)
        return ds

    def __len__(self) -> int:
        return len(self.instances)

    def subset(self, attr: str, val: str) -> "Dataset":
        """Instances carrying values[attr] == val, original order, same schema."""
        if val not in self.schema.domain(attr):  # also rejects unknown attr
            raise SchemaViolation("value %r not in domain of %r" % (val, attr))
        kept = tuple(i for i in self.instances if i.values[attr] == val)
        return Dataset(self.schema, kept)

    @cached_property
    def bits(self) -> RowBits:
        """Row-id bitsets over this dataset, built on first use."""
        return RowBits.encode(self.schema, self.instances)

    def class_counts(self) -> dict[str, int]:
        """Instances per behavior class, in order of each class's first instance."""
        return self.bits.class_counts(self.bits.rows)

    def fingerprint(self) -> str:
        return "%d:%s" % (len(self.instances), self.schema.fingerprint())


@dataclass(frozen=True)
class RuleStats:
    """Support/coverage counts for one candidate rule over a dataset.

    coverage == 0 means the antecedent matched nothing; confidence is then
    undefined (None) rather than an error.
    """

    support: int
    coverage: int

    @property
    def covered(self) -> bool:
        return self.coverage > 0

    @property
    def confidence(self) -> Optional[Fraction]:
        if self.coverage == 0:
            return None
        return Fraction(self.support, self.coverage)


def rule_stats(ds: Dataset, antecedent: Iterable[Condition], consequent: str) -> RuleStats:
    """Count antecedent matches and antecedent-plus-consequent matches."""
    conditions = list(antecedent)
    for attr, val in conditions:
        if val not in ds.schema.domain(attr):
            raise SchemaViolation("value %r not in domain of %r" % (val, attr))
    if consequent not in ds.schema.behavior_classes:
        raise SchemaViolation("unknown behavior class %r" % consequent)
    coverage = 0
    support = 0
    for inst in ds.instances:
        if inst.matches(conditions):
            coverage += 1
            if inst.behavior == consequent:
                support += 1
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

    def key(self) -> tuple:
        """Identity used when comparing rule sets across miners."""
        return (self.antecedent, self.consequent, self.support, self.coverage)

    def __str__(self) -> str:
        conds = ", ".join("%s=%s" % c for c in self.sort_antecedent) or "(any)"
        pct = float(self.confidence) * 100.0
        return "%s => %s  (conf=%.1f%%, support=%d/%d)" % (
            conds, self.consequent, pct, self.support, self.coverage,
        )
