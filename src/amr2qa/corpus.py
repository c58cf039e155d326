"""Corpus I/O and dataset bookkeeping.

Reads AMR release files (blank-line-separated blocks of ``# ::key value``
metadata followed by one PENMAN graph) block by block, writes the generated
question-answer dataset as JSON Lines, and computes summary statistics.

Spans are 1-based inclusive token ranges, matching CoNLL-U indices, so one
indexing convention holds end-to-end. Statistics are counted in integers;
each average is rounded half up to two places from its exact total.
"""

from __future__ import annotations

import io
import os
import re
# the C function json.encoder quotes with, taken without loading json
from _json import encode_basestring as _quote
from collections.abc import Iterable, Iterator
from contextlib import suppress
from itertools import chain
from typing import NamedTuple

from .agen import CONCEPT_FALLBACK, Answer
from .penman import AmrNode, PenmanError, parse_penman


class CorpusError(ValueError):
    def __init__(self, message: str, block: int | None = None):
        super().__init__(message if block is None
                         else f"{message} (block {block})")
        self.block = block


class MissingSentence(CorpusError):
    pass


class BlockParseError(CorpusError):
    pass


class NoAnnotation(CorpusError):
    """by-id found no annotation with the block's label."""


class PairMismatch(CorpusError):
    """A block's ``::snt`` is not spelled by its annotation's words."""


class CountMismatch(CorpusError):
    pass


class UnresolvedId(CorpusError):
    pass


class ZeroSentences(CorpusError):
    pass


class DatasetFormatError(CorpusError):
    def __init__(self, message: str, line: int | None = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)
        self.line = line


class QaPair(NamedTuple):
    sentence_id: str
    question: str
    answer: Answer
    relation: str
    node: str
    template_id: str
    score: float | None = None
    scorer_id: str = ""


class RawBlock(NamedTuple):
    """One corpus block before graph parsing: metadata plus the PENMAN body.
    Lets the pipeline treat a malformed graph as a per-sentence failure
    instead of aborting the whole read."""

    position: int                 # 1-based block ordinal
    id: str | None
    sentence: str | None
    body: str

    @property
    def label(self) -> str:
        """The ``::id``, or else the block ordinal."""
        return self.id if self.id is not None else str(self.position)


_METADATA_RE = re.compile(r"#\s*::(\S.*)")
_NEXT_KEY_RE = re.compile(r"\s+::(?=\S)")
_FIELD_RE = re.compile(r"(\S+)\s*(.*)")


def metadata_fields(line: str) -> list[tuple[str, str]]:
    """The ``(key, value)`` fields of one ``# ::key value ::key value``
    line, none for any other line. A value ends where whitespace, then
    ``::``, then a non-space begin the next key."""
    match = _METADATA_RE.match(line.strip())
    fields = _NEXT_KEY_RE.split(match.group(1)) if match else ()
    return [_FIELD_RE.match(field).groups() for field in fields]


def iter_blocks(lines: Iterable[str]) -> Iterator[RawBlock]:
    r"""Blocks of an AMR file, one at a time, from ``lines``: the lines of a
    text-mode file, read once. A block ends where ``re.split(r"\n\s*\n",
    text)`` cuts the whole text, at each whitespace line after the first;
    blank blocks are skipped. A block's first ``::id`` and ``::snt`` win."""
    position = 0
    chunk: list[str] = []
    fields: dict[str, str] = {}
    for number, line in enumerate(chain(lines, [None])):
        if line is None or number and line.endswith("\n") and line.isspace():
            # a cut takes the newline before it; the end of input takes none
            body = "".join(chunk)[:None if line is None else -1]
            if body.strip():
                position += 1
                yield RawBlock(position, fields.get("id"), fields.get("snt"),
                               body)
            chunk, fields = [], {}
            continue
        chunk.append(line)
        for piece in line.splitlines():
            for key, value in metadata_fields(piece):
                fields.setdefault(key, value)


def split_blocks(text: str) -> list[RawBlock]:
    """Every block of a whole AMR text (see :func:`iter_blocks`)."""
    return list(iter_blocks(io.StringIO(text)))


def parse_block(raw: RawBlock) -> AmrNode:
    """The root of one block's graph. Blocks without a ``::snt`` line (or
    with an empty one) are rejected; graph errors carry the block ordinal."""
    if not raw.sentence:
        raise MissingSentence("block has no ::snt sentence", block=raw.position)
    try:
        return parse_penman(raw.body)
    except PenmanError as exc:
        raise BlockParseError(str(exc), block=raw.position) from exc


# one dataset line; every field but span and score is a JSON string
_LINE = ('{"sentence_id": %s, "question": %s, "answer": {"kind": %s, '
         '"text": %s, "span": %s, "source_node": %s}, "relation": %s, '
         '"node": %s, "template_id": %s, "score": %s, "scorer_id": %s}\n')
# the float reprs JSON spells otherwise, as json.dumps spells them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def pair_to_line(pair: QaPair) -> str:
    """The pair's dataset line, newline included, from one format string:
    the text ``json.dumps(..., ensure_ascii=False)`` gives for the object
    :func:`pair_from_json` reads. A span is two ints, a score a float."""
    answer = pair.answer
    span = "null" if answer.span is None else "[%d, %d]" % answer.span
    score = "null" if pair.score is None else repr(pair.score)
    return _LINE % (_quote(pair.sentence_id), _quote(pair.question),
                    _quote(answer.kind), _quote(answer.text), span,
                    _quote(answer.source_node), _quote(pair.relation),
                    _quote(pair.node), _quote(pair.template_id),
                    _NON_FINITE.get(score, score), _quote(pair.scorer_id))


def _string(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {type(value).__name__}")
    return value


def pair_from_json(obj: dict) -> QaPair:
    """The pair of a parsed ``pair_to_line`` line. A sentence id, question,
    answer kind or answer text that is not a string raises TypeError."""
    answer = obj["answer"]
    span = answer["span"]
    return QaPair(
        sentence_id=_string(obj, "sentence_id"),
        question=_string(obj, "question"),
        answer=Answer(kind=_string(answer, "kind"),
                      text=_string(answer, "text"),
                      span=tuple(span) if span is not None else None,
                      source_node=answer.get("source_node", "")),
        relation=obj["relation"],
        node=obj["node"],
        template_id=obj["template_id"],
        score=obj["score"],
        scorer_id=obj["scorer_id"],
    )


def write_dataset(pairs: Iterable[QaPair], path) -> None:
    """One JSON object per line, UTF-8, LF, stable field order, written to
    ``<path>.tmp`` as ``pairs`` yields them and renamed onto ``path`` once
    they run out and are synced to disk, so after a crash ``path`` holds
    the old file or the whole new one. On any exception the tmp file is
    removed instead and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(map(pair_to_line, pairs))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def iter_dataset(path) -> Iterator[QaPair]:
    """The pairs of a JSONL dataset, one at a time; a byte-order mark and
    blank lines are skipped."""
    import json

    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                pair = pair_from_json(json.loads(line))
            # ValueError covers bad JSON and integers past the digit limit
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetFormatError(f"bad dataset line: {exc}",
                                         line=line_no) from exc
            yield pair


def _mean(total: int, count: int) -> str:
    """``total / count`` to two places, rounded half up in integer
    arithmetic. A count of 0 comes with a total of 0: ``0.00``."""
    count = count or 1
    return "%d.%02d" % divmod((200 * total + count) // (2 * count), 100)


def compute_stats(pairs: Iterable[QaPair], sentence_count: int,
                  skipped_node_count: int = 0) -> dict:
    """Dataset summary, in one pass over ``pairs``, in the order the table
    and ``stats --json`` print it. Lengths are whitespace token counts;
    unique words are lowercased question tokens. Counts are ints, averages
    strings to two places, rounded half up; an empty dataset (no pairs, a
    ``sentence_count`` of 0) has averages of 0.00."""
    total = question_tokens = answer_tokens = fallbacks = 0
    unique_words: set[str] = set()
    for pair in pairs:
        words = pair.question.split()
        total += 1
        question_tokens += len(words)
        answer_tokens += len(pair.answer.text.split())
        unique_words.update(word.lower() for word in words)
        fallbacks += pair.answer.kind == CONCEPT_FALLBACK
    return {
        "total_questions": total,
        "avg_questions_per_sentence": _mean(total, sentence_count),
        "unique_word_count": len(unique_words),
        "avg_question_length": _mean(question_tokens, total),
        "avg_answer_length": _mean(answer_tokens, total),
        "skipped_node_count": skipped_node_count,
        "fallback_answer_count": fallbacks,
    }


_STATS_LABELS = (
    ("total_questions", "Total questions"),
    ("avg_questions_per_sentence", "Avg questions per sentence"),
    ("unique_word_count", "Unique question words"),
    ("avg_question_length", "Avg question length (tokens)"),
    ("avg_answer_length", "Avg answer length (tokens)"),
    ("skipped_node_count", "Skipped nodes"),
    ("fallback_answer_count", "Fallback answers"),
)


def format_stats_table(stats: dict) -> str:
    width = max(len(label) for _, label in _STATS_LABELS)
    lines = [f"{label:<{width}}  {stats[key]}" for key, label in _STATS_LABELS]
    return "\n".join(lines) + "\n"
