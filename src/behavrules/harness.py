"""Threshold sweeps comparing the tree miner against the Apriori baseline."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import agt, apriori
from .datamodel import ConfigError, Dataset

DEFAULT_THRESHOLDS = tuple(
    Fraction(p, 100) for p in (100, 95, 90, 85, 80, 75, 70, 65, 60)
)

REPORT_HEADER = "threshold,apriori_rules,agt_rules,apriori_redundancy_ratio"


def parse_threshold(text: str) -> Fraction:
    """Accept "80", "80%", or "0.8".

    A "%" suffix always means percent ("0.5%" is 1/200); a bare number
    above 1 is a percentage too, so "80" and "0.8" agree.
    """
    number = text.strip()
    percent = number.endswith("%")
    if percent:
        number = number[:-1]
    try:
        value = Fraction(number)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("bad threshold %r" % text) from exc
    if percent or value > 1:
        value /= 100
    if not (0 < value <= 1):
        raise ConfigError("threshold must be in (0, 1], got %s" % text)
    return value


@dataclass(frozen=True)
class SweepRow:
    threshold: Fraction
    apriori_rules: Optional[int]
    agt_rules: Optional[int]
    apriori_redundancy_ratio: Optional[Fraction]
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
    """Run both miners once per threshold; a failing threshold records its reason."""
    thresholds = list(thresholds)
    if len(set(thresholds)) != len(thresholds):
        raise ConfigError("duplicate thresholds in sweep")
    if len(thresholds) > 1:
        increasing = all(a < b for a, b in zip(thresholds, thresholds[1:]))
        decreasing = all(a > b for a, b in zip(thresholds, thresholds[1:]))
        if not (increasing or decreasing):
            raise ConfigError("thresholds must be strictly increasing or decreasing")

    # the baseline rule space is complete, so rules at any threshold are
    # the confidence-filtered rules of the lowest one; mine it once
    all_rules = None
    baseline_error = None
    if thresholds:
        try:
            all_rules = apriori.mine(ds, min(thresholds), min_support)
        except (ValueError, ArithmeticError) as exc:
            baseline_error = exc

    rows = []
    for t in thresholds:
        try:
            if baseline_error is not None:
                raise baseline_error
            base = [r for r in all_rules if r.confidence >= t]
            kept = apriori.filter_redundant(base)
            removed_ratio = (
                Fraction(len(base) - len(kept), len(base)) if base else Fraction(0)
            )
            agt_rules = agt.mine(ds, agt.MiningConfig(t, min_support))
            rows.append(SweepRow(t, len(base), len(agt_rules), removed_ratio))
        except (ValueError, ArithmeticError) as exc:
            rows.append(SweepRow(t, None, None, None, error=str(exc)))
    return SweepReport(ds.fingerprint(), min_support, tuple(rows))


def _fmt_fraction(value: Fraction) -> str:
    return ("%.4f" % float(value)).rstrip("0").rstrip(".") or "0"


def report_to_csv(report: SweepReport) -> str:
    lines = [REPORT_HEADER]
    for row in report.rows:
        if row.error is not None:
            lines.append("%s,,,  # %s" % (_fmt_fraction(row.threshold), row.error))
        else:
            lines.append("%s,%d,%d,%s" % (
                _fmt_fraction(row.threshold),
                row.apriori_rules,
                row.agt_rules,
                _fmt_fraction(row.apriori_redundancy_ratio),
            ))
    return "\n".join(lines) + "\n"


def report_to_json(report: SweepReport) -> str:
    payload = {
        "dataset": report.dataset_id,
        "min_support": report.min_support,
        "rows": [
            {
                "threshold": _fmt_fraction(row.threshold),
                "apriori_rules": row.apriori_rules,
                "agt_rules": row.agt_rules,
                "apriori_redundancy_ratio": (
                    None if row.apriori_redundancy_ratio is None
                    else _fmt_fraction(row.apriori_redundancy_ratio)
                ),
                "error": row.error,
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
