"""Metamorphic relations of the miners, checked at a size the brute-force oracle cannot reach.

Scaling: repeating every row of a dataset k times multiplies every count
by k and changes nothing else. The tree keeps its shape and dominant
classes, each rule at min_support k*m is the rule at m with its counts
times k, and the sweep at k*m reads as the sweep at m. The relation
needs no second implementation of any miner, so it referees the miners
on the benchmark's generator at 5,000 rows.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from behavrules import agt, cli, harness, synth
from behavrules.datamodel import Dataset

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
K = 3


@pytest.fixture(scope="module")
def datasets():
    """(perfbench/spec.json's dataset of 5,000 rows at seed 1, the same
    dataset with each row repeated K times in place)."""
    schema, planted, _ = cli._read_spec(str(SPEC))  # the spec reader of `gen`
    ds = synth.generate(schema, planted, 5_000, 1)
    columns = [[v for v in column for _ in range(K)] for column in ds.columns]
    behaviors = [b for b in ds.behaviors for _ in range(K)]
    return ds, Dataset.from_columns(ds.schema, columns, behaviors)


def _nodes(root, k=1):
    return [(n.node_id, n.branch, n.dominant_behavior, n.support * k, n.size * k)
            for n in root.walk()]


def _rules(rules, k=1):
    return [(r.sort_antecedent, r.consequent, r.support * k, r.coverage * k) for r in rules]


@pytest.mark.parametrize("global_ranking", [False, True])
def test_repeating_rows_scales_the_tree_and_keeps_its_shape(datasets, global_ranking):
    ds, repeated = datasets
    cfg = agt.MiningConfig(Fraction(4, 5), global_ranking=global_ranking)
    tree, scaled = agt.build_tree(ds, cfg), agt.build_tree(repeated, cfg)
    assert len(_nodes(tree)) > 100  # a tree of some depth, not a root and its leaves
    assert _nodes(scaled) == _nodes(tree, K)

    for strict in (False, True):
        for t in (Fraction(4, 5), Fraction(3, 5)):
            for m in (1, 2):
                at_m = agt.MiningConfig(t, m, global_ranking=global_ranking,
                                        strict_redundancy=strict)
                at_km = agt.MiningConfig(t, K * m, global_ranking=global_ranking,
                                         strict_redundancy=strict)
                rules = agt.extract_rules(tree, at_m)
                assert rules
                assert _rules(agt.extract_rules(scaled, at_km)) == _rules(rules, K)


@pytest.mark.parametrize("m", [1, 2])
def test_repeating_rows_keeps_the_sweep_at_scaled_support(datasets, m):
    ds, repeated = datasets
    report = harness.sweep(ds, min_support=m)
    scaled = harness.sweep(repeated, min_support=K * m)
    assert all(row.error is None and row.apriori_rules for row in report.rows)
    assert scaled.rows == report.rows
