"""Preprocessing passes that turn a parsed AMR graph into a condensed tree.

Three passes run in a fixed order: drop ignored relations, condense entity
subgraphs (``:quant``/``:unit`` pairs, date fields) into single multi-word
concepts, then merge constant ``:op`` children into their owner. Dropping
runs first so nothing is condensed into a subtree that is about to go away.
:func:`preprocess` copies the parsed tree once and the passes change that
copy in place, so the caller's graph is left as it was. The result is a
tree of :class:`CondensedNode`, the unit that question generation
traverses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .penman import AmrGraph, AmrNode, Concept, Relation

DEFAULT_ENTITY_CONCEPTS = frozenset({
    "date-entity",
    "temporal-quantity",
    "distance-entity",
    "area-entity",
    "volume-entity",
})

DEFAULT_IGNORED_RELATIONS = frozenset({
    "polarity",
    "wiki",
    "polite",
    "polite-of",
    "mode",
})

# absorption order is fixed so condensed text is deterministic
_DATE_FIELD_ORDER = ("day", "month", "year", "weekday", "time")
_QUANTITY_FIELD_ORDER = ("quant", "unit")

_OP_RE = re.compile(r"^op(\d+)$")

# indexed like calendar.month_name, but English whatever the locale:
# calendar.month_name follows LC_TIME once a caller runs locale.setlocale
_MONTH_NAMES = ("", "January", "February", "March", "April", "May", "June",
                "July", "August", "September", "October", "November",
                "December")


@dataclass(eq=False)
class CondensedNode:
    """One position in the preprocessed tree.

    ``concept_text`` may be multi-word after condensation ("1 year",
    "Barack Obama"). ``source_concepts`` lists the node's own original
    concept first, then every concept folded into it. Reentrant references
    keep their own tree position with ``is_reference`` set and share the
    definition's text.
    """

    variable: str | None
    concept_text: str
    source_concepts: tuple[Concept, ...]
    relation_to_parent: Relation | None
    children: list["CondensedNode"] = field(default_factory=list)
    is_reference: bool = False
    parent: "CondensedNode | None" = None


def _copy_node(node: AmrNode) -> AmrNode:
    clone = AmrNode(variable=node.variable, concept=node.concept,
                    is_reentrant_ref=node.is_reentrant_ref, absorbed=node.absorbed)
    clone.children = [(rel, _copy_node(child)) for rel, child in node.children]
    return clone


def _is_leaf_value(node: AmrNode, referenced: frozenset[str]) -> bool:
    """True for nodes whose concept can be absorbed as plain text: constants
    and childless concept-bearing nodes. References are never absorbed, and
    neither is a definition some other position still refers to."""
    if node.is_reentrant_ref:
        return False
    if node.variable is not None and node.variable in referenced:
        return False
    return node.concept is not None and not node.children


def _referenced_variables(root: AmrNode) -> frozenset[str]:
    out = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_reentrant_ref:
            out.add(node.variable)
        stack.extend(child for _, child in node.children)
    return frozenset(out)


def _month_name(value: str) -> str:
    try:
        number = int(value)
    except ValueError:
        return value
    if 1 <= number <= 12:
        return _MONTH_NAMES[number]
    return value


def drop_ignored(root: AmrNode) -> None:
    """Remove, in place, edges whose relation is ignored, along with subtrees
    reachable only through them. If a dropped subtree held the definition of
    a variable still referenced elsewhere, the first surviving reference (in
    pre-order) adopts the definition, so no reference dangles. An adopted
    subtree may repeat a definition an earlier reference already adopted;
    that later occurrence becomes a reference, so each variable keeps one
    definition."""
    dropped_defs: dict[str, AmrNode] = {}

    def record_defs(node: AmrNode):
        if node.variable is not None and not node.is_reentrant_ref:
            dropped_defs[node.variable] = node
        for _, child in node.children:
            record_defs(child)

    def prune(node: AmrNode):
        kept = []
        for rel, child in node.children:
            if rel.name in DEFAULT_IGNORED_RELATIONS:
                prune(child)  # clean the subtree in case it gets promoted
                record_defs(child)
            else:
                prune(child)
                kept.append((rel, child))
        node.children = kept

    prune(root)
    if not dropped_defs:
        return

    def definitions(top: AmrNode):
        # a caller that turns a yielded node into a reference (no children)
        # is not led below it
        stack = [top]
        while stack:
            node = stack.pop()
            if node.variable is not None and not node.is_reentrant_ref:
                yield node
                stack.extend(child for _, child in node.children)

    # every definition in the tree, so a reference that comes before its
    # definition is not promoted
    defined = {node.variable for node in definitions(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_reentrant_ref and node.variable not in defined \
                and node.variable in dropped_defs:
            definition = dropped_defs.pop(node.variable)
            node.concept = definition.concept
            # a copy: the dropped node may turn up again inside a subtree
            # adopted later, and must not share its list with this position
            node.children = list(definition.children)
            node.absorbed = definition.absorbed
            node.is_reentrant_ref = False
            # the adopted subtree may hold a definition an earlier reference
            # adopted; the tree has it already, so this one becomes a
            # reference (no variable is defined twice in one parsed graph,
            # so the order of this walk does not matter)
            for inner in definitions(node):
                if inner.variable not in defined:
                    defined.add(inner.variable)
                else:
                    inner.concept = None
                    inner.children = []
                    inner.absorbed = ()
                    inner.is_reentrant_ref = True
        stack.extend(child for _, child in reversed(node.children))


def condense_entities(root: AmrNode, referenced: frozenset[str]) -> None:
    """Replace, in place, entity nodes (date-entity, temporal-quantity, ...)
    by a single concept whose text joins their absorbable children in a
    fixed field order. Children that cannot be absorbed, or whose variable
    is in ``referenced``, stay attached."""

    def visit(node: AmrNode):
        for _, child in node.children:
            visit(child)
        if node.is_reentrant_ref or node.concept is None or node.concept.is_constant:
            return
        if node.concept.label not in DEFAULT_ENTITY_CONCEPTS:
            return
        is_date = node.concept.label == "date-entity"
        order = _DATE_FIELD_ORDER if is_date else _QUANTITY_FIELD_ORDER
        by_field: dict[str, list[tuple[int, AmrNode]]] = {}
        for index, (rel, child) in enumerate(node.children):
            if rel.name in order and _is_leaf_value(child, referenced):
                by_field.setdefault(rel.name, []).append((index, child))
        if not by_field:
            return
        parts = []
        absorbed_concepts = []
        absorbed_indices = set()
        for name in order:
            for index, child in by_field.get(name, ()):
                text = child.concept.label
                if is_date and name == "month":
                    text = _month_name(text)
                parts.append(text)
                absorbed_concepts.append(child.concept)
                absorbed_indices.add(index)
        base = node.absorbed if node.absorbed else (node.concept,)
        node.absorbed = base + tuple(absorbed_concepts)
        node.concept = Concept(label=" ".join(parts))
        node.children = [pair for index, pair in enumerate(node.children)
                         if index not in absorbed_indices]

    visit(root)


def merge_ops(root: AmrNode, referenced: frozenset[str]) -> None:
    """Join, in place, constant ``:opN`` children (numeric order) into their
    owner's concept text. Only constants merge; ``:op`` children that are
    concept nodes, as under conjunctions, stay separate. A merged ``name``
    node then replaces its parent's ``:name`` edge, so the parent carries
    the proper noun directly, unless its variable is in ``referenced``."""

    def merge_node(node: AmrNode):
        ops = []
        for index, (rel, child) in enumerate(node.children):
            m = _OP_RE.match(rel.name)
            if m and child.is_constant:
                ops.append((int(m.group(1)), index, child))
        if not ops:
            return
        ops.sort(key=lambda item: (item[0], item[1]))
        joined = " ".join(child.concept.label for _, _, child in ops)
        merged_indices = {index for _, index, _ in ops}
        base = node.absorbed if node.absorbed else (node.concept,)
        node.absorbed = base + tuple(child.concept for _, _, child in ops)
        node.concept = Concept(label=joined)
        node.children = [pair for index, pair in enumerate(node.children)
                         if index not in merged_indices]

    def hoist_name(node: AmrNode):
        for index, (rel, child) in enumerate(node.children):
            if rel.name != "name" or child.is_reentrant_ref or not child.absorbed:
                continue
            if child.absorbed[0].label != "name":
                continue
            if child.variable is not None and child.variable in referenced:
                continue
            base = node.absorbed if node.absorbed else (node.concept,)
            node.absorbed = base + child.absorbed
            node.concept = child.concept
            # keep any leftover structure the name node still had
            node.children = (node.children[:index] + child.children
                             + node.children[index + 1:])
            break

    # a node's merge and hoist see only its own children, each already
    # merged and hoisted, so one post-order walk does both
    def visit(node: AmrNode):
        for _, child in node.children:
            visit(child)
        merge_node(node)
        hoist_name(node)

    visit(root)


def preprocess(graph: AmrGraph) -> CondensedNode:
    """Full pipeline: drop ignored edges, condense entities, merge ops, and
    build the condensed tree. ``graph`` is not changed. Reentrant references
    resolve to their definition's text but remain distinct positions."""
    root = _copy_node(graph.root)
    drop_ignored(root)
    # only promotion in drop_ignored changes which variables are referenced
    referenced = _referenced_variables(root)
    condense_entities(root, referenced)
    merge_ops(root, referenced)

    definitions: dict[str, CondensedNode] = {}
    references: list[CondensedNode] = []

    def build(node: AmrNode, relation: Relation | None,
              parent: CondensedNode | None) -> CondensedNode:
        out = CondensedNode(variable=node.variable, concept_text="",
                            source_concepts=(), relation_to_parent=relation,
                            is_reference=node.is_reentrant_ref, parent=parent)
        if node.is_reentrant_ref:
            references.append(out)  # its text is its definition's, set below
            return out
        out.concept_text = node.concept.label
        out.source_concepts = node.absorbed if node.absorbed else (node.concept,)
        if node.variable is not None:
            definitions[node.variable] = out
        for rel, child in node.children:
            out.children.append(build(child, rel, out))
        return out

    tree = build(root, None, None)
    for ref in references:
        definition = definitions[ref.variable]
        ref.concept_text = definition.concept_text
        ref.source_concepts = definition.source_concepts
    return tree


def preorder(tree: CondensedNode) -> list[CondensedNode]:
    """Depth-first pre-order: root first, parents before children, siblings
    in source order."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def format_tree(tree: CondensedNode) -> str:
    """Stable plain-text rendering, one node per line, used for golden-file
    comparison and CLI inspection."""
    lines = []

    def visit(node: CondensedNode, depth: int):
        head = f":{node.relation_to_parent.name} " if node.relation_to_parent else ""
        var = f" [{node.variable}]" if node.variable is not None else ""
        ref = " (ref)" if node.is_reference else ""
        lines.append(f"{'  ' * depth}{head}{node.concept_text}{var}{ref}")
        for child in node.children:
            visit(child, depth + 1)

    visit(tree, 0)
    return "\n".join(lines) + "\n"
