"""Preprocessing that turns a parsed AMR graph into a condensed tree.

:func:`preprocess` reads the parsed graph once into a tree of
:class:`CondensedNode`, leaving out ignored relations and the subtrees
reachable only through them, so nothing is condensed into a subtree that
goes away. Two passes then change that tree in place, in a fixed order,
each walking the build's pre-order list of nodes children first: condense
entity subgraphs (``:quant``/``:unit`` pairs, date fields) into single
multi-word concepts, then merge constant ``:op`` children into their owner.
The caller's graph is left as it was. That tree is the unit question
generation traverses.
"""

from __future__ import annotations

import re

from .penman import AmrNode, Concept

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

_OP_RE = re.compile(r"^op(\d+)$", re.ASCII)

# month number -> name, English whatever the locale: calendar.month_name
# follows LC_TIME once a caller runs locale.setlocale
_MONTH_NAMES = {str(number): name for number, name in enumerate((
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December"), start=1)}


class CondensedNode:
    """One position in the preprocessed tree.

    ``concept_text`` may be multi-word after condensation ("1 year",
    "Barack Obama"). ``source_concepts`` lists the node's own original
    concept first, then every concept folded into it. Reentrant references
    keep their own tree position with ``is_reference`` set and share the
    definition's text. The passes change these nodes in place, and a
    reference's text is set once they are done. A node holds no link to its
    parent, so a tree has no cycle and is freed as soon as it is dropped.
    """

    __slots__ = ("variable", "concept_text", "source_concepts",
                 "relation_to_parent", "children", "is_reference")

    def __init__(self, variable: str | None, concept_text: str,
                 source_concepts: tuple[Concept, ...],
                 relation_to_parent: str | None,
                 is_reference: bool = False):
        self.variable = variable
        self.concept_text = concept_text
        self.source_concepts = source_concepts
        self.relation_to_parent = relation_to_parent
        self.children = []
        self.is_reference = is_reference


def _claim(top: AmrNode, owner: dict[str, AmrNode],
           dropped: dict[str, AmrNode]) -> None:
    """Make ``top`` the owner of every definition in its subtree that no
    subtree owns yet, and record in ``dropped`` the definitions under its
    ignored edges. Below a definition owned elsewhere, which is a reference
    in this subtree, nothing is claimed."""
    stack = [(top, False)]
    while stack:
        node, ignored = stack.pop()
        variable = node.variable
        if variable is None or node.concept is None:
            continue
        if ignored:
            dropped[variable] = node
        elif variable in owner:
            continue
        else:
            owner[variable] = top
        for relation, child in node.children:
            stack.append((child, ignored
                          or relation in DEFAULT_IGNORED_RELATIONS))


def _build(root: AmrNode) -> tuple[list[CondensedNode],
                                   dict[str, CondensedNode],
                                   list[CondensedNode]]:
    """The nodes of the condensed tree of ``root`` without its ignored
    edges, in pre-order (root first), before the other passes, with its
    definitions by variable and its references, which have no text yet. A
    definition found only under an ignored edge is built at the first
    reference to its variable in pre-order. That placed subtree owns each
    definition in it that no other subtree owns, and one owned elsewhere is
    a reference there, so each variable has one definition."""
    owner: dict[str, AmrNode] = {}
    dropped: dict[str, AmrNode] = {}
    _claim(root, owner, dropped)
    definitions: dict[str, CondensedNode] = {}
    references: list[CondensedNode] = []
    nodes: list[CondensedNode] = []   # popped in pre-order
    stack = [(root, None, [], root)]   # the root has no parent
    while stack:
        node, relation, siblings, top = stack.pop()
        variable = node.variable
        if node.concept is None and variable not in owner:
            node = top = dropped[variable]
            _claim(top, owner, dropped)
        if node.concept is None or (variable is not None
                                    and owner[variable] is not top):
            built = CondensedNode(variable, "", (), relation, True)
            references.append(built)
        else:
            built = CondensedNode(variable, node.concept.label,
                                  (node.concept,), relation)
            if variable is not None:
                definitions[variable] = built
            for rel, child in reversed(node.children):
                if rel not in DEFAULT_IGNORED_RELATIONS:
                    stack.append((child, rel, built.children, top))
        siblings.append(built)
        nodes.append(built)
    return nodes, definitions, references


def _is_leaf_value(node: CondensedNode, referenced: frozenset[str]) -> bool:
    """True for nodes whose text can be absorbed as it is: constants and
    childless definitions. References are never absorbed, and neither is a
    definition some other position still refers to."""
    return not (node.is_reference or node.variable in referenced
                or node.children)


def _month_name(value: str) -> str:
    """The English name of month ``value`` when it is ASCII digits ("3",
    "03"), else ``value``; int() would also read "+3", "0_3" and "\u0663"."""
    return _MONTH_NAMES.get(value.lstrip("0"), value)


def _absorb(node: CondensedNode, text: str, taken: list[tuple]) -> None:
    """Fold the ``(index, child)`` pairs ``taken`` into ``node``, in order:
    ``text`` becomes its text, and each child's concept joins its
    ``source_concepts``. A child that has absorbed others contributes its
    text as one concept."""
    node.source_concepts += tuple(
        child.source_concepts[0] if len(child.source_concepts) == 1
        else Concept(child.concept_text) for _, child in taken)
    node.concept_text = text
    indices = {index for index, _ in taken}
    node.children = [child for index, child in enumerate(node.children)
                     if index not in indices]


def condense_entities(nodes: list[CondensedNode],
                      referenced: frozenset[str]) -> None:
    """Replace, in place, entity nodes (date-entity, temporal-quantity, ...)
    among ``nodes``, a tree's nodes in pre-order, by a single concept whose
    text joins their absorbable children in a fixed field order. Children
    that cannot be absorbed, or whose variable is in ``referenced``, stay
    attached."""
    # children first: a node's text joins its children's condensed texts
    for node in reversed(nodes):
        _condense_entity(node, referenced)


def _condense_entity(node: CondensedNode, referenced: frozenset[str]) -> None:
    if node.is_reference or node.concept_text not in DEFAULT_ENTITY_CONCEPTS:
        return
    is_date = node.concept_text == "date-entity"
    order = _DATE_FIELD_ORDER if is_date else _QUANTITY_FIELD_ORDER
    by_field: dict[str, list[tuple[int, CondensedNode]]] = {}
    for index, child in enumerate(node.children):
        name = child.relation_to_parent
        if name in order and _is_leaf_value(child, referenced):
            by_field.setdefault(name, []).append((index, child))
    if not by_field:
        return
    parts = []
    taken = []
    for name in order:
        for index, child in by_field.get(name, ()):
            text = child.concept_text
            if is_date and name == "month":
                text = _month_name(text)
            parts.append(text)
            taken.append((index, child))
    _absorb(node, " ".join(parts), taken)


def merge_ops(nodes: list[CondensedNode], referenced: frozenset[str]) -> None:
    """Join, in place, constant ``:opN`` children (numeric order) of
    ``nodes``, a tree's nodes in pre-order, into their owner's concept text.
    Only constants merge; ``:op`` children that are concept nodes, as under
    conjunctions, stay separate. A merged ``name`` node then replaces its
    parent's ``:name`` edge, so the parent carries the proper noun directly,
    unless its variable is in ``referenced``."""
    # a node's merge and hoist see only its own children, each already
    # merged and hoisted, so one children-first walk does both. A node
    # either pass absorbed is childless, and both passes leave such a node
    # as it is, so the build's list still serves after condensing.
    for node in reversed(nodes):
        _merge_op_constants(node)
        _hoist_name(node, referenced)


def _merge_op_constants(node: CondensedNode) -> None:
    ops = []
    for index, child in enumerate(node.children):
        m = _OP_RE.match(child.relation_to_parent)
        if m and child.variable is None:   # only constants lack one
            ops.append((int(m.group(1)), index, child))
    if not ops:
        return
    ops.sort(key=lambda item: (item[0], item[1]))
    taken = [(index, child) for _, index, child in ops]
    _absorb(node, " ".join(child.concept_text for _, child in taken), taken)


def _hoist_name(node: CondensedNode, referenced: frozenset[str]) -> None:
    for index, child in enumerate(node.children):
        if child.relation_to_parent != "name" or child.is_reference:
            continue
        # a merged name node: its own concept and what it absorbed
        if len(child.source_concepts) < 2 \
                or child.source_concepts[0].label != "name":
            continue
        if child.variable in referenced:
            continue
        node.source_concepts += child.source_concepts
        node.concept_text = child.concept_text
        # keep any leftover structure the name node still had
        node.children = (node.children[:index] + child.children
                         + node.children[index + 1:])
        break


def preprocess(graph: AmrNode) -> CondensedNode:
    """Full pipeline: build the condensed tree without ignored edges, then
    condense entities and merge ops on it, both passes walking the build's
    pre-order list of its nodes. ``graph`` is not changed.
    Reentrant references resolve to their definition's text but remain
    distinct positions."""
    nodes, definitions, references = _build(graph)
    referenced = frozenset(ref.variable for ref in references)
    condense_entities(nodes, referenced)
    merge_ops(nodes, referenced)
    # neither pass absorbs a referenced definition, so each is still in place
    for ref in references:
        definition = definitions[ref.variable]
        ref.concept_text = definition.concept_text
        ref.source_concepts = definition.source_concepts
    return nodes[0]


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
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        head = f":{node.relation_to_parent} " if node.relation_to_parent else ""
        var = f" [{node.variable}]" if node.variable is not None else ""
        ref = " (ref)" if node.is_reference else ""
        lines.append(f"{'  ' * depth}{head}{node.concept_text}{var}{ref}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"
