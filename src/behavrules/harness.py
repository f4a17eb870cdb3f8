"""Threshold sweeps comparing the tree miner against the Apriori baseline.

A sweep refuses bad input before it mines anything. Each rule either miner
emits is emitted on one threshold interval, so a sweep mines once and
counts, per threshold, the intervals that hold it, testing each distinct
interval's ends once with datamodel.confidence_test. Only a miner's
refusal, an InputError such as the apriori.MAX_ITEMSETS bound, a schema
with no context attributes or an empty dataset, fills every row; any
other error is a defect and propagates.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import agt, apriori
from .datamodel import ConfigError, Dataset, InputError, confidence_test

DEFAULT_THRESHOLDS = tuple(
    Fraction(p, 100) for p in (100, 95, 90, 85, 80, 75, 70, 65, 60)
)

REPORT_HEADER = "threshold,apriori_rules,agt_rules,apriori_redundancy_ratio"


def parse_threshold(text: str) -> Fraction:
    """Accept "80", "80%", or "0.8".

    A "%" suffix always means percent ("0.5%" is 1/200); a bare number
    above 1 is a percentage too, so "80" and "0.8" agree. An exponent of
    1000 or more in magnitude is refused before Fraction scales by it.
    """
    number = text.strip()
    percent = number.endswith("%")
    if percent:
        number = number[:-1]
    _, e, exponent = number.lower().partition("e")
    try:
        if e and abs(int(exponent)) >= 1000:  # 1e-10000000 takes Fraction seconds
            raise ValueError(exponent)
        value = Fraction(number)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("bad threshold %r" % text) from exc
    if percent or value > 1:
        value /= 100
    if not (0 < value <= 1):
        raise ConfigError("threshold must be in (0, 1], got %s" % text)
    return value


def _count(intervals: Counter, t: Fraction) -> int:
    """How many intervals (lo, hi], each end a (support, coverage) pair, hold t.

    intervals maps each distinct interval to its multiplicity; far fewer
    intervals are distinct than there are rules.
    """
    meets = confidence_test(t)
    return sum(
        n for ((ls, lc), (s, c)), n in intervals.items() if not meets(ls, lc) and meets(s, c)
    )


@dataclass(frozen=True)
class SweepRow:
    threshold: Fraction
    apriori_rules: Optional[int]
    agt_rules: Optional[int]
    apriori_redundancy_ratio: Optional[Fraction]
    # a miner's refusal (an InputError), which fills every row and leaves the counts None
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepReport:
    dataset_id: str
    min_support: int
    rows: tuple[SweepRow, ...]


def sweep(
    ds: Dataset,
    thresholds: Sequence[Fraction] = DEFAULT_THRESHOLDS,
    min_support: int = 1,
) -> SweepReport:
    """Count both miners' rules at each threshold, refusing bad input before mining."""
    if min_support < 1:  # MiningConfig checks it too, but only when there is a threshold
        raise ConfigError("min_support must be >= 1, got %d" % min_support)
    thresholds = list(thresholds)
    if len(set(thresholds)) != len(thresholds):
        raise ConfigError("duplicate thresholds in sweep")
    if len(thresholds) > 1:
        increasing = all(a < b for a, b in zip(thresholds, thresholds[1:]))
        decreasing = all(a > b for a, b in zip(thresholds, thresholds[1:]))
        if not (increasing or decreasing):
            raise ConfigError("thresholds must be strictly increasing or decreasing")
    configs = [agt.MiningConfig(t, min_support) for t in thresholds]  # refuses t outside (0, 1]
    if not thresholds:
        return SweepReport(ds.fingerprint(), min_support, ())

    # the baseline rule space is complete, so the CARs at any threshold are
    # among those of the lowest one: mine it once. A CAR counts on (0, c]
    # and is kept after filtering on (shadow confidence, c]. The tree's
    # shape does not depend on the threshold: grow it once.
    try:
        cars = apriori.generate_cars(
            ds, apriori.mine_frequent(ds, min_support), min(thresholds), min_support)
        base = Counter(((0, 1), (r.support, r.coverage)) for r in cars)
        kept = Counter(
            (s or (0, 1), (r.support, r.coverage)) for r, s in zip(cars, apriori.shadows(cars)))
        del cars  # only integer pairs are held while the tree grows
        tree = Counter(agt.rule_intervals(agt.build_tree(ds, configs[0]), min_support))
    except InputError as exc:
        rows = [SweepRow(t, None, None, None, error=str(exc)) for t in thresholds]
    else:
        rows = []
        for t in thresholds:
            n_base, n_kept = _count(base, t), _count(kept, t)
            removed_ratio = Fraction(n_base - n_kept, n_base) if n_base else Fraction(0)
            rows.append(SweepRow(t, n_base, _count(tree, t), removed_ratio))
    return SweepReport(ds.fingerprint(), min_support, tuple(rows))


def _fmt_fraction(value: Fraction) -> str:
    return ("%.4f" % float(value)).rstrip("0").rstrip(".") or "0"


def _row_view(row: SweepRow) -> dict:
    """A row's fields as both renderings print them, keyed by REPORT_HEADER's names."""
    ratio = row.apriori_redundancy_ratio
    return {
        "threshold": _fmt_fraction(row.threshold),
        "apriori_rules": row.apriori_rules,
        "agt_rules": row.agt_rules,
        "apriori_redundancy_ratio": None if ratio is None else _fmt_fraction(ratio),
        "error": row.error,
    }


def report_to_csv(report: SweepReport) -> str:
    lines = [REPORT_HEADER]
    for view in map(_row_view, report.rows):
        if view["error"] is None:
            lines.append(",".join(str(view[name]) for name in REPORT_HEADER.split(",")))
        else:
            lines.append("%s,,,  # %s" % (view["threshold"], view["error"]))
    return "\n".join(lines) + "\n"


def report_to_json(report: SweepReport) -> str:
    payload = {
        "dataset": report.dataset_id,
        "min_support": report.min_support,
        "rows": [_row_view(row) for row in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
