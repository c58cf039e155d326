"""Corpus I/O and dataset bookkeeping.

Reads AMR release files (blank-line-separated blocks of ``# ::key value``
metadata followed by one PENMAN graph) block by block, writes the generated
question-answer dataset as JSON Lines, and computes summary statistics.

Spans are 1-based inclusive token ranges, matching CoNLL-U indices, so one
indexing convention holds end-to-end. Statistics are kept exact internally
(fractions) and rounded half-up to two decimals only for display.
"""

from __future__ import annotations

import io
import json
import os
import re
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .agen import CONCEPT_FALLBACK, Answer
from .penman import AmrGraph, PenmanError, parse_penman

if TYPE_CHECKING:  # stats imports it when it runs; generate never needs it
    from fractions import Fraction


class CorpusError(ValueError):
    pass


class MissingSentence(CorpusError):
    def __init__(self, message: str, block: int):
        super().__init__(f"{message} (block {block})")
        self.block = block


class BlockParseError(CorpusError):
    def __init__(self, message: str, block: int):
        super().__init__(f"{message} (block {block})")
        self.block = block


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


@dataclass
class AmrCorpusEntry:
    id: str
    sentence: str
    graph: AmrGraph


@dataclass
class QaPair:
    sentence_id: str
    question: str
    answer: Answer
    relation: str
    node: str
    template_id: str
    score: float | None = None
    scorer_id: str = ""


@dataclass(frozen=True)
class RawBlock:
    """One corpus block before graph parsing: metadata plus the PENMAN body.
    Lets the pipeline treat a malformed graph as a per-sentence failure
    instead of aborting the whole read."""

    position: int                 # 1-based block ordinal
    id: str | None
    sentence: str | None
    body: str


_METADATA_RE = re.compile(r"^#\s*::(\S+)\s*(.*)$")


def _chunks(lines: Iterable[str]) -> Iterator[str]:
    r"""The text of ``lines`` cut as ``re.split(r"\n\s*\n", text)`` cuts
    it: at each line but the first that is whitespace up to its newline."""
    chunk: list[str] = []
    for number, line in enumerate(lines):
        if number and line.endswith("\n") and line.isspace():
            if chunk:
                yield "".join(chunk)[:-1]
            chunk = []
        else:
            chunk.append(line)
    yield "".join(chunk)


def iter_blocks(lines: Iterable[str]) -> Iterator[RawBlock]:
    """Blocks of an AMR file, one at a time, from ``lines``: the lines of
    a text-mode file. Chunks of whitespace alone are skipped."""
    position = 0
    for chunk in _chunks(lines):
        if not chunk.strip():
            continue
        position += 1
        block_id = None
        sentence = None
        for line in chunk.splitlines():
            match = _METADATA_RE.match(line.strip())
            if match:
                key, value = match.group(1), match.group(2).strip()
                if key == "id" and block_id is None:
                    block_id = value
                elif key == "snt" and sentence is None:
                    sentence = value
        yield RawBlock(position=position, id=block_id, sentence=sentence,
                       body=chunk)


def split_blocks(text: str) -> list[RawBlock]:
    """Every block of a whole AMR text (see :func:`iter_blocks`)."""
    return list(iter_blocks(io.StringIO(text)))


def parse_block(raw: RawBlock) -> AmrCorpusEntry:
    """Entry for one block. Blocks without a ``::snt`` line (or with an
    empty one) are rejected; graph errors carry the block ordinal."""
    if not raw.sentence:
        raise MissingSentence("block has no ::snt sentence", block=raw.position)
    try:
        graph = parse_penman(raw.body)
    except PenmanError as exc:
        raise BlockParseError(str(exc), block=raw.position) from exc
    identifier = raw.id if raw.id is not None else str(raw.position)
    return AmrCorpusEntry(id=identifier, sentence=raw.sentence, graph=graph)


def pair_to_json(pair: QaPair) -> dict:
    answer = pair.answer
    return {
        "sentence_id": pair.sentence_id,
        "question": pair.question,
        "answer": {
            "kind": answer.kind,
            "text": answer.text,
            "span": list(answer.span) if answer.span is not None else None,
            "source_node": answer.source_node,
        },
        "relation": pair.relation,
        "node": pair.node,
        "template_id": pair.template_id,
        "score": pair.score,
        "scorer_id": pair.scorer_id,
    }


def pair_from_json(obj: dict) -> QaPair:
    answer = obj["answer"]
    span = answer["span"]
    return QaPair(
        sentence_id=obj["sentence_id"],
        question=obj["question"],
        answer=Answer(kind=answer["kind"], text=answer["text"],
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
    they run out. On any exception the tmp file is removed instead and
    ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            for pair in pairs:
                handle.write(json.dumps(pair_to_json(pair), ensure_ascii=False))
                handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def iter_dataset(path) -> Iterator[QaPair]:
    """The pairs of a JSONL dataset, one at a time; blank lines are
    skipped."""
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                pair = pair_from_json(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DatasetFormatError(f"bad dataset line: {exc}",
                                         line=line_no) from exc
            yield pair


def read_dataset(path) -> list[QaPair]:
    """Every pair of a dataset (see :func:`iter_dataset`)."""
    return list(iter_dataset(path))


@dataclass
class CorpusStats:
    total_questions: int
    avg_questions_per_sentence: Fraction
    unique_word_count: int
    avg_question_length: Fraction
    avg_answer_length: Fraction
    skipped_node_count: int
    fallback_answer_count: int


def _round2(value: Fraction) -> str:
    from decimal import ROUND_HALF_UP, Decimal

    quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def compute_stats(pairs: Iterable[QaPair], sentence_count: int,
                  skipped_node_count: int = 0) -> CorpusStats:
    """Dataset summary, in one pass over ``pairs``. Lengths are whitespace
    token counts; unique words are lowercased question tokens. Averages
    stay exact (fractions)."""
    from fractions import Fraction

    if sentence_count < 1:
        raise ZeroSentences("sentence count must be >= 1")
    total = question_tokens = answer_tokens = fallbacks = 0
    unique_words: set[str] = set()
    for pair in pairs:
        words = pair.question.split()
        total += 1
        question_tokens += len(words)
        answer_tokens += len(pair.answer.text.split())
        unique_words.update(word.lower() for word in words)
        fallbacks += pair.answer.kind == CONCEPT_FALLBACK
    return CorpusStats(
        total_questions=total,
        avg_questions_per_sentence=Fraction(total, sentence_count),
        unique_word_count=len(unique_words),
        avg_question_length=(Fraction(question_tokens, total)
                             if total else Fraction(0)),
        avg_answer_length=(Fraction(answer_tokens, total)
                           if total else Fraction(0)),
        skipped_node_count=skipped_node_count,
        fallback_answer_count=fallbacks,
    )


def stats_display(stats: CorpusStats) -> dict:
    """JSON-friendly view: counts stay integers, averages become two-decimal
    strings rounded half-up."""
    return {
        "total_questions": stats.total_questions,
        "avg_questions_per_sentence": _round2(stats.avg_questions_per_sentence),
        "unique_word_count": stats.unique_word_count,
        "avg_question_length": _round2(stats.avg_question_length),
        "avg_answer_length": _round2(stats.avg_answer_length),
        "skipped_node_count": stats.skipped_node_count,
        "fallback_answer_count": stats.fallback_answer_count,
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


def format_stats_table(stats: CorpusStats) -> str:
    display = stats_display(stats)
    width = max(len(label) for _, label in _STATS_LABELS)
    lines = [f"{label:<{width}}  {display[key]}" for key, label in _STATS_LABELS]
    return "\n".join(lines) + "\n"
