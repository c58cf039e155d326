"""Question generation.

Every non-root condensed node is inspected together with the relation to its
parent. For core roles the parent predicate picks the thematic role; for
non-core relations the relation name keys the template lookup directly.
Blank 0 is always the predicate-side word: the parent's aligned surface
form, or its concept lemma (sense stripped) when unaligned. Extra blanks
take the node's aligned surface form, or its concept text when unaligned.

Inverse relations (``:ARG0-of`` etc.) swap the two ends: the child carries
the predicate and supplies blank 0, the parent is the entity asked about,
and the name without ``-of`` keys the lookup. Every name ending in ``-of``
is inverse except ``consist-of``, ``prep-out-of`` and ``prep-on-behalf-of``.
The predicate-argument fact is the same either way round; only the graph
orientation differs.

Tense comes from the predicate-side aligned token (unaligned predicates
default to present). Candidates are scored for fluency and the argmax wins,
with ties going to the earlier template in resource order.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import isfinite
from typing import NamedTuple

from .agen import SENSE, Answer, span_text
from .annotate import (
    PRESENT,
    Alignment,
    SentenceAnnotation,
    infer_tense,
    range_head,
)
from .penman import Concept, strip_sense
from .preprocess import CondensedNode
from .templates import Template, TemplateStore, lookup_templates

# relations that end in "-of" without being inverses
_NON_INVERSE_OF = frozenset({"consist-of", "prep-out-of", "prep-on-behalf-of"})


class ArityMismatch(ValueError):
    pass


class QuestionCandidate(NamedTuple):
    """A filled template for one tree position. ``entity_ref`` is the node
    the answer comes from (the parent when the relation was inverse)."""

    template_id: str
    filled_text: str
    entity_ref: CondensedNode
    relation: str


def fill_template(template: Template, fills: list[str]) -> str:
    """Blank ``{k}`` replaced by ``fills[k]``; spacing and the terminal
    question mark come from the pattern itself."""
    if len(fills) != template.blank_count:
        raise ArityMismatch(
            f"template {template.id} has {template.blank_count} blanks, "
            f"got {len(fills)} fills")
    pieces = list(template.pieces)
    pieces[1::2] = [fills[index] for index in pieces[1::2]]
    return "".join(pieces)


def _guess_pos(node: CondensedNode) -> str:
    """Coarse POS for an unaligned fill: predicates pattern as verbs,
    numbers as numerals, everything else as nouns."""
    if node.source_concepts and node.source_concepts[0].sense:
        return "VERB"
    text = node.concept_text
    try:   # float() also reads "inf", "nan" and "1_000": no numerals
        return "NUM" if "_" not in text and isfinite(float(text)) else "NOUN"
    except ValueError:
        return "NOUN"


def _fill_info(node: CondensedNode, ann: SentenceAnnotation,
               alignment: Alignment) -> tuple[str, str, int | None]:
    """(surface text, POS, aligned head index) for one fill."""
    if node in alignment:
        span = alignment[node]
        head = range_head(ann, span)
        return span_text(ann, span), ann.token(head).upos, head
    return strip_sense(node.concept_text), _guess_pos(node), None


def generate_candidates(node: CondensedNode, parent: CondensedNode,
                        store: TemplateStore, ann: SentenceAnnotation,
                        alignment: Alignment) -> list[QuestionCandidate]:
    """All templates for the node's relation, filled. Empty when the
    relation has no templates, the role cannot be resolved, or every
    template fails a tense or POS constraint; callers count such skips."""
    relation = node.relation_to_parent
    if relation is None:
        return []
    if relation.endswith("-of") and relation not in _NON_INVERSE_OF:
        supplier, entity, base = node, parent, relation[:-3]
    else:
        supplier, entity, base = parent, node, relation
    predicate = supplier.source_concepts[0] if supplier.source_concepts else None
    templates = lookup_templates(store, base, predicate)
    if not templates:
        return []
    fill0, pos0, head = _fill_info(supplier, ann, alignment)
    tense = infer_tense(ann, head) if head is not None else PRESENT

    candidates: list[QuestionCandidate] = []
    entity_info: tuple[str, str, int | None] | None = None
    for template in templates:
        if not template.accepts(tense, pos0):
            continue
        fills = [fill0]
        if template.blank_count > 1:
            if entity_info is None:
                entity_info = _fill_info(entity, ann, alignment)
            entity_text, entity_pos, _ = entity_info
            if any(entity_pos not in template.blank_pos[i]
                   for i in range(1, template.blank_count)):
                continue
            fills.extend([entity_text] * (template.blank_count - 1))
        candidates.append(QuestionCandidate(
            template.id, fill_template(template, fills), entity, relation))
    return candidates


def best_question(candidates: list[QuestionCandidate],
                  scores: Mapping[str, float]) -> QuestionCandidate | None:
    """Argmax over candidate texts of ``scores``, which maps each text to
    its score; the earlier candidate wins ties, so template resource order
    is the tie-break. Nothing is changed."""
    return max(candidates, key=lambda c: scores[c.filled_text],
               default=None)


def sense_question(node: CondensedNode, ann: SentenceAnnotation,
                   alignment: Alignment) -> tuple[str, Answer] | None:
    """(question, answer) asking the predicate sense of a definition node
    whose concept carries a sense suffix and which is aligned to a verb
    token. The answer keeps the full label (e.g. ``break-01``): the suffix
    is the payload here."""
    if node.is_reference or not node.source_concepts:
        return None
    own = node.source_concepts[0]
    if not own.sense or node not in alignment:
        return None
    surface, pos, _ = _fill_info(node, ann, alignment)
    if pos != "VERB":
        return None
    return (f"What is the sense of {surface} ?",
            Answer(kind=SENSE, text=own.label, span=None,
                   source_node=node.variable or ""))
