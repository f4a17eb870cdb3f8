"""Association generation tree: grow, then mark redundant nodes and extract rules.

The tree is grown top-down. Each node carries the dominant behavior class
of its instance subset and an exact-rational confidence. A node's subset
is a list of ascending row ids: precedence.split tallies it once per
remaining attribute, and only the chosen attribute's rows are sorted
into the children's lists. Growth does not depend on the confidence
threshold: a node is a leaf when it is pure or its contexts are
exhausted. The threshold only decides the REDUNDANT marks and which
rules are extracted, and one walk does both: extract_rules rewrites
every node's mark for its config as it collects the rules, so one grown
tree can be extracted at any number of thresholds. A child whose
dominant class equals its parent's is REDUNDANT when both confidences
meet the threshold; redundant nodes emit no rule but their subtrees are
still explored, so a deviating grandchild can surface. Threshold tests
are exact integer cross-multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .datamodel import (
    Condition,
    ConfigError,
    Dataset,
    EmptyDatasetError,
    Rule,
    threshold_terms,
)
from .precedence import rank_contexts, rank_splits, split


@dataclass(frozen=True)
class MiningConfig:
    confidence_threshold: Fraction
    min_support: int = 1
    class_filter: Optional[frozenset[str]] = None
    # rank contexts once at the root instead of per subtree
    global_ranking: bool = False
    # also compare against the nearest threshold-satisfying ancestor,
    # not just the immediate parent
    strict_redundancy: bool = False

    def __post_init__(self):
        if not (0 < self.confidence_threshold <= 1):
            raise ConfigError(
                "confidence threshold must be in (0, 1], got %s"
                % self.confidence_threshold
            )
        if self.min_support < 1:
            raise ConfigError("min_support must be >= 1, got %d" % self.min_support)


@dataclass
class AgtNode:
    node_id: int
    branch: Optional[Condition]  # arriving condition; None at the root
    dominant_behavior: str
    support: int  # instances at this node with the dominant behavior
    size: int  # all instances at this node
    redundant: bool = False
    split_attribute: Optional[str] = None
    children: list["AgtNode"] = field(default_factory=list)

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.support, self.size)

    def walk(self):
        """Depth-first preorder over the whole tree, redundant nodes included."""
        yield self
        for child in self.children:
            yield from child.walk()


def _dominant(counts: dict[str, int]) -> str:
    # ties break by ascending class label
    return min(counts, key=lambda c: (-counts[c], c))


def _grow(ds: Dataset, global_ranking: bool) -> AgtNode:
    """Grow the threshold-free tree over ds; every node's redundant is False."""
    if len(ds) == 0:
        raise EmptyDatasetError("cannot mine an empty dataset")
    contexts = list(ds.schema.attribute_names)
    if not contexts:
        raise ConfigError("schema has no context attributes")

    global_order: Optional[tuple[str, ...]] = None
    if global_ranking:
        global_order = rank_contexts(ds, contexts).attributes

    values = ds.codes.values
    next_id = 1

    # rows are this node's row ids, ascending, and counts their class
    # counts, which the parent's split already took
    def grow(rows, counts, branch, remaining) -> AgtNode:
        nonlocal next_id
        dominant = _dominant(counts)
        node = AgtNode(
            node_id=next_id,
            branch=branch,
            dominant_behavior=dominant,
            support=counts[dominant],
            size=sum(counts.values()),
        )
        next_id += 1

        if node.support == node.size or not remaining:
            return node  # pure node or exhausted contexts: leaf

        if global_order is not None:
            best = split(ds, rows, counts, next(a for a in global_order if a in remaining))
        else:
            best = rank_splits(ds, rows, counts, remaining)[0]
        node.split_attribute = best.attr
        rest = [a for a in remaining if a != best.attr]
        # a stable sort groups the rows by value in domain order, the
        # children's order, and keeps each group ascending
        ordered = sorted(rows, key=values[best.attr].__getitem__)
        start = 0
        for val, child_counts in best.children:
            end = start + sum(child_counts.values())
            node.children.append(grow(ordered[start:end], child_counts, (best.attr, val), rest))
            start = end
        return node

    return grow(range(len(ds)), ds.class_counts(), None, contexts)


def _mark_and_extract(root: AgtNode, cfg: MiningConfig) -> list[Rule]:
    """Rewrite every node's REDUNDANT flag for cfg and collect its rules, in one walk.

    A node is REDUNDANT when its confidence and its anchor's both meet the
    threshold and both have the same dominant class. The anchor is the
    parent; in strict mode it is the nearest ancestor meeting the
    threshold, even when the parent misses it. The root is never REDUNDANT.
    A non-root node generates a rule when its confidence meets the
    threshold, its support meets min_support, it is not REDUNDANT, and its
    class passes the optional filter. Descendants of redundant nodes are
    still visited.
    """
    num, den = threshold_terms(cfg.confidence_threshold)
    strict = cfg.strict_redundancy
    found: list[tuple[int, Rule]] = []

    # anchor: the ancestor a qualifying node is compared against, or None
    def visit(node: AgtNode, anchor: Optional[AgtNode], path: tuple[Condition, ...]):
        meets = node.support * den >= num * node.size
        node.redundant = (
            meets and anchor is not None
            and anchor.dominant_behavior == node.dominant_behavior
        )
        if node.branch is not None:
            path = path + (node.branch,)
            if (
                meets and not node.redundant
                and node.support >= cfg.min_support
                and (cfg.class_filter is None or node.dominant_behavior in cfg.class_filter)
            ):
                rule = Rule(
                    antecedent=frozenset(path),
                    consequent=node.dominant_behavior,
                    support=node.support,
                    coverage=node.size,
                )
                found.append((node.node_id, rule))
        if meets:
            anchor = node
        elif not strict:
            anchor = None
        for child in node.children:
            visit(child, anchor, path)

    visit(root, None, ())
    found.sort(key=lambda pair: pair[0])
    return [rule for _, rule in found]


def build_tree(ds: Dataset, cfg: MiningConfig) -> AgtNode:
    """Grow the tree over ds and mark it for cfg; node ids follow depth-first creation order."""
    root = _grow(ds, cfg.global_ranking)
    # not through extract_rules, so a tracer that wraps it (perfbench/spans.py)
    # counts only the extractions callers ask for
    _mark_and_extract(root, cfg)
    return root


def extract_rules(root: AgtNode, cfg: MiningConfig) -> list[Rule]:
    """Mark root's tree for cfg and return its rules, ordered by node id.

    The result depends only on the tree's shape and cfg, whatever
    threshold the tree was marked for before.
    """
    return _mark_and_extract(root, cfg)


def tree_to_dot(root: AgtNode) -> str:
    """Render the tree as a graphviz digraph; REDUNDANT nodes are dashed red."""
    lines = ["digraph agt {", '  node [shape=box, fontname="Helvetica"];']
    for node in root.walk():
        branch = "%s=%s" % node.branch if node.branch else "root"
        pct = float(node.confidence) * 100.0
        label = "%d | %s | %s %.0f%%" % (
            node.node_id, branch, node.dominant_behavior, pct,
        )
        style = ' style=dashed color=red' if node.redundant else ""
        lines.append('  n%d [label="%s"%s];' % (node.node_id, label, style))
    for node in root.walk():
        for child in node.children:
            lines.append("  n%d -> n%d;" % (node.node_id, child.node_id))
    lines.append("}")
    return "\n".join(lines) + "\n"
