"""Sentence annotations from CoNLL-U and concept-to-token alignment.

The toolkit never runs a tagger or parser itself; it consumes CoNLL-U
produced by any UD pipeline (tokens, lemmas, POS, dependency heads) and
offers the three queries question generation needs: which token realizes an
AMR concept, what tense that token carries, and which contiguous span the
token's dependency subtree covers. Malformed input raises ConlluError.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NamedTuple

from .penman import strip_sense
from .preprocess import CondensedNode, preorder


class ConlluError(ValueError):
    """Any CoNLL-U ingestion failure; the message names the fault."""

    def __init__(self, message: str, line: int | None = None,
                 sentence_id: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if sentence_id is not None:
            where.append(f"sentence {sentence_id!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.sentence_id = sentence_id


class Token(NamedTuple):
    """One CoNLL-U word line; its index is its 1-based position in the
    sentence. ``feats`` is the FEATS column as written; ``head`` is the
    index of the governor, 0 for the root."""

    surface: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    head: int


class SentenceAnnotation:
    """One sentence's tokens. ConlluError is raised unless every head
    chain ends at the root (0)."""

    def __init__(self, sentence_id: str, tokens: list[Token]):
        self.sentence_id = sentence_id
        self.tokens = tokens
        children: dict[int, list[int]] = {}
        for index, token in enumerate(tokens, start=1):
            children.setdefault(token.head, []).append(index)
        # a chain ends at the root exactly when a walk down from the root
        # reaches its token; each index has one head, so none is reached twice
        reached = [0]
        for index in reached:
            reached.extend(children.get(index, ()))
        if len(reached) != len(tokens) + 1:
            raise ConlluError("dependency heads form a cycle",
                              sentence_id=sentence_id)
        self._children = children

    def token(self, index: int) -> Token:
        return self.tokens[index - 1]

    def children_of(self, index: int) -> list[int]:
        """The indices of the dependents of token ``index`` (0: the root)."""
        return self._children.get(index, [])


def _check_tree(tokens: list[Token], lines: list[int], sentence_id: str):
    # heads in range; SentenceAnnotation itself refuses a cycle
    for token, line in zip(tokens, lines):
        if not 0 <= token.head <= len(tokens):
            raise ConlluError(f"head {token.head} points outside the sentence",
                              line=line, sentence_id=sentence_id)


# the ids that are read and skipped: multiword ranges and empty nodes
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


def iter_conllu(lines: Iterable[str]) -> Iterator[SentenceAnnotation]:
    """Read CoNLL-U blocks into :class:`SentenceAnnotation` objects, one
    sentence at a time, from ``lines``: the lines of a text-mode file.

    Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are skipped;
    any other id, or a HEAD, that is not ASCII digits is a malformed line.
    The word ids of a sentence must run 1, 2, ... n in order. A block is
    a sentence when it has a word line, a ``# sent_id`` or a ``# text``
    comment; the text itself and MISC are not read. Blocks without
    ``# sent_id`` are numbered by position, starting at 1.
    """
    count = 0
    tokens: list[Token] = []
    token_lines: list[int] = []
    sent_id: str | None = None
    has_text = False
    # the file's lines split in turn give its text's splitlines(); a blank
    # line after them ends the last sentence
    split = chain.from_iterable(line.splitlines() for line in lines)
    for line_no, line in enumerate(chain(split, [""]), start=1):
        if not line.strip():
            if tokens or sent_id is not None or has_text:
                count += 1
                identifier = sent_id if sent_id is not None else str(count)
                _check_tree(tokens, token_lines, identifier)
                yield SentenceAnnotation(identifier, tokens)
                tokens, token_lines, sent_id, has_text = [], [], None, False
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep:
                key = key.strip()
                if key == "sent_id":
                    sent_id = value.strip()
                elif key == "text":
                    has_text = True
            continue
        columns = line.split("\t")
        if len(columns) != 10:
            raise ConlluError(f"expected 10 columns, found {len(columns)}",
                              line=line_no)
        identifier = columns[0]
        if _SKIPPED_ID.fullmatch(identifier):
            continue  # multiword range or empty node
        # int() would also take "+1", " 1", "1_0" and non-ASCII digits
        if not (identifier.isascii() and identifier.isdigit()):
            raise ConlluError(f"token id {identifier!r} is not an integer",
                              line=line_no)
        index = int(identifier)
        if index != len(tokens) + 1:
            raise ConlluError(f"word id {index} out of sequence, expected "
                              f"{len(tokens) + 1}", line=line_no)
        if not (columns[6].isascii() and columns[6].isdigit()):
            raise ConlluError(f"head {columns[6]!r} is not an integer",
                              line=line_no)
        head = int(columns[6])
        # surface, lemma, UPOS, XPOS and FEATS are columns 1-5
        tokens.append(Token(*columns[1:6], head))
        token_lines.append(line_no)


def parse_conllu(text: str) -> list[SentenceAnnotation]:
    """Every sentence of a whole CoNLL-U text (see :func:`iter_conllu`)."""
    return list(iter_conllu(io.StringIO(text)))


# condensed-tree node -> 1-based token span: ``(i, i)`` for a single word,
# a contiguous range for a multi-word concept; unaligned nodes are absent
Alignment = dict[CondensedNode, tuple[int, int]]


def align_concepts(tree: CondensedNode, ann: SentenceAnnotation) -> Alignment:
    """Match each condensed node to sentence tokens.

    The node's concept text (sense suffix stripped, lowercased) is compared
    against token lemmas for single words, or against consecutive token
    surfaces/lemmas for multi-word concepts. Scanning is left to right and a
    token is consumed by at most one node; the first unused match wins.
    Abstract concepts with no surface realization stay unaligned. Reentrant
    references inherit the span of their definition.
    """
    spans: Alignment = {}
    definitions: dict[str, CondensedNode] = {}
    nodes = preorder(tree)
    tokens = ann.tokens
    # each token's lemma, lowercased; None once a node has the token
    lemmas: list[str | None] = [token.lemma.lower() for token in tokens]

    for node in nodes:
        if node.is_reference:
            continue
        if node.variable is not None:
            definitions[node.variable] = node
        words = [w.lower() for w in strip_sense(node.concept_text).split()]
        if not words:
            continue
        if len(words) == 1:
            try:
                at = lemmas.index(words[0])
            except ValueError:
                continue
            spans[node] = (at + 1, at + 1)
            lemmas[at] = None
        else:
            width = len(words)
            for start in range(len(tokens) - width + 1):
                end = start + width
                window = lemmas[start:end]
                if None not in window and all(
                        token.surface.lower() == word or lemma == word
                        for token, lemma, word
                        in zip(tokens[start:end], window, words)):
                    spans[node] = (start + 1, end)
                    lemmas[start:end] = [None] * width
                    break

    for node in nodes:
        if node.is_reference:
            definition = definitions.get(node.variable)
            if definition is not None and definition in spans:
                spans[node] = spans[definition]

    return spans


PAST = "past"
PRESENT = "present"
FUTURE = "future"


def infer_tense(ann: SentenceAnnotation, token_index: int) -> str:
    """Tense tag for one token: past from morphology (FEATS Tense=Past or
    XPOS VBD/VBN), future from an auxiliary child "will"/"shall", otherwise
    present. Total: any token yields one of the three tags."""
    token = ann.token(token_index)
    # a feature named twice keeps its last value
    feats = dict(item.partition("=")[::2] for item in token.feats.split("|"))
    if feats.get("Tense") == "Past" or token.xpos in ("VBD", "VBN"):
        return PAST
    for child in map(ann.token, ann.children_of(token_index)):
        if child.surface.lower() in ("will", "shall") \
                or child.lemma.lower() in ("will", "shall"):
            return FUTURE
    return PRESENT


def subtree_span(ann: SentenceAnnotation, token_index: int) -> tuple[int, int]:
    """Range [leftmost, rightmost] of the tokens dominated by ``token_index``
    (itself included). The dominated set may be discontiguous for
    non-projective trees; the enclosing range is returned because answers
    must be contiguous sentence spans."""
    seen = [token_index]
    for index in seen:
        seen.extend(ann.children_of(index))
    return (min(seen), max(seen))


def range_head(ann: SentenceAnnotation, span: tuple[int, int]) -> int:
    """Index of the token inside ``span`` whose head lies outside it, i.e.
    the dependency root of the slice. The sentence root (head 0) counts as
    externally headed. For ranges that are not dependency constituents more
    than one token can qualify; the leftmost wins."""
    start, end = span
    for index in range(start, end + 1):
        head = ann.token(index).head
        if head < start or head > end:
            return index
    return start
