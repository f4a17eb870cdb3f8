"""Seeded synthetic context logs with planted rules.

Label quotas are allocated exactly (counts, then a seeded shuffle) rather
than sampled independently, so each planted rule's realized confidence
stays within 2 percentage points of its target even at small sizes.

PRNG: python's random.Random (Mersenne Twister, MT19937), seeded per call, so
identical arguments always reproduce the same dataset. The stream depends on
getrandbits alone: each draw below m is getrandbits(m.bit_length()), redrawn
while >= m, the way random.choice and random.shuffle draw on CPython 3.10-3.13.
"""

from __future__ import annotations

import os
import random
import re
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable

from .datamodel import Condition, ContextSchema, Dataset
from .ingest import (
    ACCEPT,
    BEHAVIOR_CLASSES,
    DAY_NAMES,
    MISSED,
    OUTGOING,
    REJECT,
    TIME_ATTRIBUTE,
)
from .serialize import _csv_lines

CONFIDENCE_SLACK = Fraction(2, 100)


class GenerationError(ValueError):
    """Raised when the requested quotas cannot be realized."""


@dataclass(frozen=True)
class PlantedRuleSpec:
    antecedent: tuple[Condition, ...]
    consequent: str
    target_confidence: Fraction
    weight: float  # fraction of all instances that match the antecedent

    def __post_init__(self):
        if not (0 < self.target_confidence <= 1):
            raise GenerationError(
                "target confidence must be in (0, 1], got %s" % self.target_confidence
            )
        if not (0 < self.weight <= 1):  # NaN fails too
            raise GenerationError("weight must be in (0, 1], got %s" % self.weight)


def generate(
    schema: ContextSchema,
    specs: Iterable[PlantedRuleSpec],
    n: int,
    seed: int,
) -> Dataset:
    """Deterministic dataset of n instances realizing the planted rules.

    Instances matching a spec's antecedent get the consequent class for an
    exact quota of round(target * quota) of them; remaining instances draw
    uniform context values that match no spec antecedent, with uniform
    classes.
    """
    specs = list(specs)
    if n < 1:
        raise GenerationError("n must be >= 1, got %d" % n)
    for spec in specs:
        for attr, val in spec.antecedent:
            if val not in schema.domain(attr):
                raise GenerationError("spec condition %s=%s not in schema" % (attr, val))
        if spec.consequent not in schema.behavior_classes:
            raise GenerationError("spec consequent %r not in schema" % spec.consequent)

    getrandbits = random.Random(seed).getrandbits
    classes = sorted(schema.behavior_classes)
    quotas = [round(spec.weight * n) for spec in specs]
    if sum(quotas) > n:
        raise GenerationError(
            "quotas sum to %d but only %d instances requested" % (sum(quotas), n)
        )
    if any(q == 0 for q in quotas):
        raise GenerationError("a planted rule's quota rounded to zero; raise n or weight")

    def sampler(seq):
        """Endless draws of seq[r], r the first getrandbits(len(seq).bit_length()) < len(seq)."""
        size = len(seq)
        return map(seq.__getitem__, filter(size.__gt__, map(getrandbits, repeat(size.bit_length()))))

    position = {name: i for i, name in enumerate(schema.attribute_names)}

    def matcher(ante):
        """(get, want) with get(values) == want just when a row of values matches ante."""
        ps, vs = [position[a] for a, _ in ante], tuple(v for _, v in ante)
        return (itemgetter(*ps), vs if len(vs) > 1 else vs[0]) if ps else (lambda values: (), ())

    def draws(fixed, avoid, stuck):
        """Rows of values in schema order, fixed where given, each matching none of avoid."""
        sources = [repeat(fixed[a]) if a in fixed else sampler(d) for a, d in schema.attributes]
        avoid = [matcher(ante) for ante in avoid]
        while True:
            for _attempt in range(10000):
                values = tuple(map(next, sources))
                for get, want in avoid:
                    if get(values) == want:
                        break
                else:
                    yield values
                    break
            else:
                raise GenerationError(stuck)

    rows: list[tuple[str, ...]] = []  # values in schema order, then the class
    for spec, quota in zip(specs, quotas):
        positives = round(float(spec.target_confidence) * quota)
        realized = Fraction(positives, quota)
        if abs(realized - spec.target_confidence) > CONFIDENCE_SLACK:
            raise GenerationError(
                "quota %d too small to realize confidence %s within 2pp"
                % (quota, spec.target_confidence)
            )
        others = [c for c in classes if c != spec.consequent]
        negatives = sampler(others) if others else repeat(spec.consequent)
        # overlap with another planted antecedent would skew its realized confidence
        foreign = [s.antecedent for s in specs if s is not spec]
        stuck = ("could not draw instances for %s avoiding other planted antecedents"
                 % (spec.antecedent,))
        for i, values in zip(range(quota), draws(dict(spec.antecedent), foreign, stuck)):
            rows.append((*values, spec.consequent if i < positives else next(negatives)))

    stuck = "could not draw background instances avoiding the planted antecedents"
    drawn = zip(draws({}, [spec.antecedent for spec in specs], stuck), sampler(classes))
    rows.extend((*values, label) for values, label in islice(drawn, n - sum(quotas)))
    del drawn  # its generator holds the samplers; free them before the transpose

    for i in range(len(rows) - 1, 0, -1):  # as random.shuffle swaps, j drawn as sampler draws
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        rows[i], rows[j] = rows[j], rows[i]
    *columns, behaviors = zip(*rows)
    return Dataset.from_columns(schema, columns, behaviors)


# --- emitting datasets in the raw call-log format the ingest module reads ---

_BASE_DATES = {  # a fixed week: 2004-09-13 was a Monday
    day: "2004-09-%02d" % (13 + i) for i, day in enumerate(DAY_NAMES)
}
_LABEL_RE = re.compile(r"^(\w+)\[(\d{2}):(\d{2})-\d{2}:\d{2}\]$")

_CALL_COLUMNS = ("timestamp", "call_type", "duration")
_BEHAVIOR_TO_CALL = {  # behavior -> (call type, duration)
    ACCEPT: ("incoming", "60"),
    REJECT: ("incoming", "0"),
    MISSED: ("missed", "0"),
    OUTGOING: ("outgoing", "60"),
}


def _timestamp_for(label: str) -> str:
    """Invert a time-segment label to a concrete instant inside it."""
    match = _LABEL_RE.match(label)
    if match:
        day, hh, mm = match.group(1), match.group(2), match.group(3)
        if day in _BASE_DATES:
            return "%s %s:%s:00" % (_BASE_DATES[day], hh, mm)
    if label in _BASE_DATES:
        return "%s 12:00:00" % _BASE_DATES[label]
    raise GenerationError("cannot place a timestamp inside segment %r" % label)


def write_log(ds: Dataset, out) -> None:
    """Write ds as a raw call log (timestamp/type/duration + context columns).

    out is a file path, written with csv's default CRLF line ends, or an
    open text stream, written with "\n" line ends; serialize renders the
    lines, and quotes a value holding a CR or LF either way. Behavior classes must be the four call classes so they survive
    the round trip through behavior derivation. A "Time" attribute, when
    present, is inverted to timestamps inside its segment; otherwise rows
    get a fixed placeholder timestamp. Context attributes named like a
    call-record column and context values with outer whitespace, which
    ingest strips, are refused before anything is written.
    """
    unknown = set(ds.schema.behavior_classes) - set(BEHAVIOR_CLASSES)
    if unknown:
        raise GenerationError(
            "classes %r cannot be encoded as call records" % sorted(unknown)
        )
    names = ds.schema.attribute_names
    if TIME_ATTRIBUTE in names:
        labels = ds.columns[names.index(TIME_ATTRIBUTE)]
        columns = [(labels, {label: _timestamp_for(label) for label in dict.fromkeys(labels)})]
    else:
        columns = [(ds.behaviors, dict.fromkeys(_BEHAVIOR_TO_CALL, "2004-09-13 12:00:00"))]
    columns += [(ds.behaviors, {b: c[i] for b, c in _BEHAVIOR_TO_CALL.items()}) for i in (0, 1)]
    for (attr, domain), values in zip(ds.schema.attributes, ds.columns):
        if attr == TIME_ATTRIBUTE:
            continue
        if attr in _CALL_COLUMNS:
            raise GenerationError("context attribute %r collides with a call-record column" % attr)
        for value in domain:
            if value != value.strip():
                raise GenerationError("context attribute %r value %r has outer whitespace, "
                                      "which ingest strips" % (attr, value))
        columns.append((values, dict(zip(domain, domain))))
    header = [*_CALL_COLUMNS, *(attr for attr in names if attr != TIME_ATTRIBUTE)]
    to_path = isinstance(out, (str, os.PathLike))
    with open(out, "w", encoding="utf-8", newline="") if to_path else nullcontext(out) as fh:
        fh.writelines(_csv_lines(header, columns, "\r\n" if to_path else "\n"))
