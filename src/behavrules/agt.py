"""Association generation tree: build, mark redundant nodes, extract rules.

The tree is grown top-down. Each node carries the dominant behavior class
of its instance subset and an exact-rational confidence. A child whose
dominant class equals its parent's is marked REDUNDANT when both
confidences meet the threshold; redundant nodes emit no rule but their
subtrees are still explored, so a deviating grandchild can surface.
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


def build_tree(ds: Dataset, cfg: MiningConfig) -> AgtNode:
    """Grow the tree over ds; node ids follow depth-first creation order."""
    if len(ds) == 0:
        raise EmptyDatasetError("cannot mine an empty dataset")
    contexts = list(ds.schema.attribute_names)
    if not contexts:
        raise ConfigError("schema has no context attributes")

    global_order: Optional[tuple[str, ...]] = None
    if cfg.global_ranking:
        global_order = rank_contexts(ds, contexts).attributes

    bits = ds.bits
    t = cfg.confidence_threshold
    next_id = 1

    # rows is the bitset of this node's instances (see Dataset.bits) and
    # counts their class counts, which the parent's split already took
    def grow(rows: int, counts, branch, remaining, ancestors) -> AgtNode:
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

        if ancestors and node.confidence >= t:
            compare_to = [ancestors[-1]]
            if cfg.strict_redundancy:
                qualifying = [a for a in ancestors if a.confidence >= t]
                if qualifying:
                    compare_to.append(qualifying[-1])
            for anc in compare_to:
                if anc.confidence >= t and anc.dominant_behavior == dominant:
                    node.redundant = True
                    break

        if node.confidence == 1 or not remaining:
            return node  # pure node or exhausted contexts: leaf

        if global_order is not None:
            best = split(ds, rows, counts, next(a for a in global_order if a in remaining))
        else:
            best = rank_splits(ds, rows, counts, remaining)[0]
        node.split_attribute = best.attr
        rest = [a for a in remaining if a != best.attr]
        for val, child_counts in best.children:
            child = rows & bits.conditions[best.attr, val]
            node.children.append(
                grow(child, child_counts, (best.attr, val), rest, ancestors + [node])
            )
        return node

    return grow(bits.rows, bits.class_counts(bits.rows), None, contexts, [])


def extract_rules(root: AgtNode, cfg: MiningConfig) -> list[Rule]:
    """Collect one rule per valid non-root node, ordered by node id.

    A node generates a rule when its confidence meets the threshold, its
    support meets min_support, it is not REDUNDANT, and its class passes
    the optional filter. Descendants of redundant nodes are still visited.
    """
    found: list[tuple[int, Rule]] = []

    def visit(node: AgtNode, path: tuple[Condition, ...]):
        if node.branch is not None:
            path = path + (node.branch,)
            if (
                not node.redundant
                and node.confidence >= cfg.confidence_threshold
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
        for child in node.children:
            visit(child, path)

    visit(root, ())
    found.sort(key=lambda pair: pair[0])
    return [rule for _, rule in found]


def mine(ds: Dataset, cfg: MiningConfig) -> list[Rule]:
    """Convenience wrapper: build the tree and extract its rules."""
    return extract_rules(build_tree(ds, cfg), cfg)


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
