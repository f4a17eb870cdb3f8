"""Association generation tree: grow, then mark redundant nodes and extract rules.

The tree is grown top-down. Each node carries the dominant behavior class
of its instance subset and an exact-rational confidence. A node's subset
is a list of ascending distinct-row ids, each standing for as many rows
as its multiplicity (see Dataset.codes), and its size is the sum of its
class counts (by sorted label). Gains are computed only where a node has
a choice: precedence.split tallies it once per remaining attribute when
two or more are left, under global ranking at the root alone; elsewhere
one precedence.child_counts tallies the attribute it splits on. Only the
chosen attribute's rows are partitioned into the children's lists (see
RowCodes.partition); children with no attribute left are made as leaves
in place at their parent, and their rows are never listed. A lone child
holds its parent's rows, so it takes the other splits instead of
tallying again.
Growth reads no confidence threshold: a node is a leaf when it is pure
or its contexts are exhausted, and build_tree leaves every node
unmarked. A child whose dominant class equals its parent's is REDUNDANT
when both confidences meet the threshold; redundant nodes emit no rule
but their subtrees are still explored, so a deviating grandchild can
surface. extract_rules is the one walk that marks: it rewrites every
node's mark for its config as it collects the rules, so one grown tree
can be extracted at any threshold. rule_intervals gives the threshold
interval on which each node's rule is emitted, which the sweep counts,
and tree_to_dot draws the marks of the last extraction. Each of the four
is one walk of the tree, with an explicit stack. Thresholds are tested
with datamodel.confidence_test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import precedence
from .datamodel import (
    Condition,
    ConfigError,
    Dataset,
    EmptyDatasetError,
    Rule,
    confidence_test,
)


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
    redundant: bool = False  # set by extract_rules for its config; build_tree leaves it False
    split_attribute: Optional[str] = None
    children: list["AgtNode"] = field(default_factory=list)

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.support, self.size)

    def walk(self):
        """Depth-first preorder over the whole tree, redundant nodes included."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += node.children[::-1]


def _node(node_id: int, branch: Optional[Condition], labels, counts) -> AgtNode:
    """A new unmarked node of rows whose class counts, in labels order, are counts."""
    support = max(counts)  # in labels order, a tie for the largest goes to the lowest label
    return AgtNode(node_id, branch, labels[counts.index(support)], support, sum(counts))


def build_tree(ds: Dataset, cfg: MiningConfig) -> AgtNode:
    """Grow the tree over ds, ranked as cfg.global_ranking says; node ids follow preorder.

    Gains are computed only where a node has attributes to choose from:
    at every node with two or more left under per-node ranking, and at
    the root alone under global ranking. Elsewhere the children's counts
    come from one precedence.child_counts, or from the split a lone
    child's parent made over the same rows. Children with no attribute
    left are made as leaves at their parent. Growth reads no threshold,
    so every node comes back unmarked (redundant False); extract_rules
    marks the tree for a config.
    """
    if len(ds) == 0:
        raise EmptyDatasetError("cannot mine an empty dataset")
    contexts = list(ds.schema.attribute_names)
    if not contexts:
        raise ConfigError("schema has no context attributes")

    global_ranking = cfg.global_ranking
    labels = ds.codes.labels
    next_id = 1
    top: list[AgtNode] = []

    # nodes to make, each with an attribute left: its rows and their class counts,
    # its branch, its attributes in ranking order, their splits over its rows if its
    # parent made them, and its siblings; children go on last first, so ids follow preorder
    stack = [(*precedence.all_rows(ds), None, contexts, None, top)]
    while stack:
        rows, counts, branch, remaining, splits, siblings = stack.pop()
        node = _node(next_id, branch, labels, counts)
        next_id += 1
        siblings.append(node)
        if node.support == node.size:
            continue  # pure node: leaf

        if len(remaining) > 1 and (branch is None or not global_ranking):
            if splits is None:  # in remaining order, as rank_splits needs
                splits = [precedence.split(ds, rows, counts, a) for a in remaining]
            best, *others = precedence.rank_splits(splits)
            if not global_ranking:  # the rest keep remaining order, as rank_splits needs
                others = [s for s in splits if s is not best]
            attr, children = best.attr, best.children
            rest = [s.attr for s in others]
        else:  # one attribute left, or below the root under global ranking: no choice
            attr, rest = remaining[0], remaining[1:]
            if splits is not None:
                children, others = splits[0].children, splits[1:]
            else:
                children, others = precedence.child_counts(ds, rows, attr), None
        node.split_attribute = attr
        if not rest:  # contexts exhausted: the children are leaves, next in preorder
            for val, sub in children:
                node.children.append(_node(next_id, (attr, val), labels, sub))
                next_id += 1
        elif len(children) == 1:  # a lone child holds these rows, so it takes these splits
            [(val, sub)] = children
            stack.append((rows, sub, (attr, val), rest, others, node.children))
        else:
            groups = ds.codes.partition(attr, rows)  # the children's order
            for (val, sub), group in zip(reversed(children), reversed(groups)):
                stack.append((group, sub, (attr, val), rest, None, node.children))
    return top[0]


def extract_rules(root: AgtNode, cfg: MiningConfig) -> list[Rule]:
    """Mark root's tree for cfg and return its rules, ordered by node id, in one walk.

    Every node's REDUNDANT flag is rewritten for cfg. A node is REDUNDANT
    when its confidence and its anchor's both meet the threshold and both
    have the same dominant class. The anchor is the parent; in strict mode
    it is the nearest ancestor meeting the threshold, even when the parent
    misses it. The root is never REDUNDANT. A non-root node generates a
    rule when its confidence meets the threshold, its support meets
    min_support, it is not REDUNDANT, and its class passes the optional
    filter. Descendants of redundant nodes are still visited. The result
    depends only on the tree's shape and cfg, whatever threshold the tree
    was marked for before.
    """
    meets_threshold = confidence_test(cfg.confidence_threshold)
    strict = cfg.strict_redundancy
    found: list[tuple[int, tuple[Condition, ...], AgtNode]] = []

    # anchor: the ancestor a qualifying node is compared against, or None
    stack: list[tuple[AgtNode, Optional[AgtNode], tuple[Condition, ...]]] = [(root, None, ())]
    while stack:
        node, anchor, path = stack.pop()
        meets = meets_threshold(node.support, node.size)
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
                found.append((node.node_id, path, node))
        if meets:
            anchor = node
        elif not strict:
            anchor = None
        if node.children:  # most nodes are leaves
            for child in reversed(node.children):
                stack.append((child, anchor, path))
    # a hand-built tree need not number its nodes in preorder
    found.sort(key=lambda entry: entry[0])
    return [
        Rule(frozenset(path), node.dominant_behavior, node.support, node.size)
        for _, path, node in found
    ]


def rule_intervals(root: AgtNode, min_support: int) -> list[tuple[tuple, tuple]]:
    """The threshold interval (lo, hi] of each non-root node with support >= min_support.

    The node's rule is emitted at t exactly when lo < t <= hi. Each end is a
    (support, size) pair: hi is the node's own, lo its parent's when the two
    share a dominant class, else (0, 1). This is the REDUNDANT rule that
    extract_rules applies with strict_redundancy=False. It reads no marks.
    """
    found = []
    for node in root.walk():
        for child in node.children:
            if child.support >= min_support:
                same = child.dominant_behavior == node.dominant_behavior
                lo = (node.support, node.size) if same else (0, 1)
                found.append((lo, (child.support, child.size)))
    return found


def tree_to_dot(root: AgtNode) -> str:
    """Render the tree as a graphviz digraph; REDUNDANT nodes are dashed red.

    The marks are those of the last extract_rules on the tree, so a tree
    never extracted has none. Every node's line comes first, then every
    edge's, each in preorder. A label writes a backslash as \\\\, a double
    quote as \\" and a line feed as \\n, so no value ends the string, breaks
    the line or starts a graphviz escape."""
    nodes = ["digraph agt {", '  node [shape=box, fontname="Helvetica"];']
    edges = []
    for node in root.walk():
        branch = "%s=%s" % node.branch if node.branch else "root"
        pct = node.support / node.size * 100.0  # int division rounds like Fraction's float
        label = "%d | %s | %s %.0f%%" % (
            node.node_id, branch, node.dominant_behavior, pct,
        )
        if "\\" in label or '"' in label or "\n" in label:  # seldom, so test first
            label = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        style = ' style=dashed color=red' if node.redundant else ""
        nodes.append('  n%d [label="%s"%s];' % (node.node_id, label, style))
        for child in node.children:
            edges.append("  n%d -> n%d;" % (node.node_id, child.node_id))
    return "\n".join([*nodes, *edges, "}"]) + "\n"
