"""Answer extraction.

An aligned node answers with the sentence span dominated by its aligned
token (the dependency subtree, so modifiers come along: the answer for
"desert" in "He stood in the middle of the desert" is the phrase headed by
"desert"). Unaligned nodes fall back to the condensed concept text. Sense
questions carry the full predicate label and use their own answer kind,
because unlike fallback answers they must keep the sense suffix.
"""

from __future__ import annotations

from typing import NamedTuple

from .annotate import Alignment, SentenceAnnotation, range_head, subtree_span
from .penman import strip_sense
from .preprocess import CondensedNode

SPAN = "span"
CONCEPT_FALLBACK = "concept_fallback"
SENSE = "sense"


class Answer(NamedTuple):
    kind: str
    text: str
    span: tuple[int, int] | None = None
    source_node: str = ""


def span_text(ann: SentenceAnnotation, span: tuple[int, int]) -> str:
    """Surfaces in the range joined by single spaces (span answers and
    question fills share this whitespace convention)."""
    return " ".join([t.surface for t in ann.tokens[span[0] - 1:span[1]]])


def extract_answer(node: CondensedNode, ann: SentenceAnnotation,
                   alignment: Alignment) -> Answer:
    """Answer for a node that produced a question.

    Aligned: the span covered by the subtree of the aligned token. For a
    multi-word alignment the subtree root is the range's externally-headed
    token. Unaligned: the concept text, sense suffix stripped.
    """
    if node in alignment:
        head = range_head(ann, alignment[node])
        covered = subtree_span(ann, head)
        return Answer(kind=SPAN, text=span_text(ann, covered), span=covered,
                      source_node=node.variable or "")
    return Answer(kind=CONCEPT_FALLBACK, text=strip_sense(node.concept_text),
                  span=None, source_node=node.variable or "")
