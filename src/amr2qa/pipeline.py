"""End-to-end generation: read, pair, preprocess, align, generate, answer,
write.

Sentences stream: the AMR file is read block by block and the CoNLL-U file
sentence by sentence (by-id pairing indexes the annotations, so it holds
that file), and each sentence's lines are written in input order as soon
as they are ready. Output bytes do not depend on worker count, and memory
grows with the sentences in flight, not with the corpus. The dataset is
renamed from ``<out>.tmp`` onto ``<out>`` only when the run completes.
Every question text is scored through a run-scoped memo, so a text that
recurs across sentences reaches the scorer once per run (up to
``MEMO_CAPACITY`` texts held at a time); a fallback score is never stored
and empties the memo. A failure inside one sentence (malformed graph,
missing annotation, any generation error) is logged and counted, never
fatal. Unreadable files, bad template resources, malformed CoNLL-U and
count mismatches abort the run.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain, zip_longest

from .agen import extract_answer
from .annotate import SentenceAnnotation, align_concepts, iter_conllu
from .corpus import (
    CountMismatch,
    QaPair,
    RawBlock,
    UnresolvedId,
    ZeroSentences,
    iter_blocks,
    parse_block,
    write_dataset,
)
from .preprocess import preorder, preprocess
from .qgen import best_question, generate_candidates, sense_question
from .scorer import QuestionScore, make_scorer
from .templates import (
    TemplateStore,
    bundled_mapping_path,
    bundled_template_path,
    load_store,
)

logger = logging.getLogger("amr2qa")

# Texts the score memo holds at once; bounds its memory whatever the
# corpus size.
MEMO_CAPACITY = 4096

# Sentences read but not yet written per worker thread, when there are
# several: keeps each busy behind a slow sentence, and bounds memory.
IN_FLIGHT_PER_WORKER = 4


@dataclass
class RunConfig:
    amr_path: str
    conllu_path: str
    output_path: str
    template_path: str | None = None   # None = bundled pack
    mapping_path: str | None = None
    scorer: str = "baseline"
    scorer_url: str | None = None
    scorer_timeout: float = 5.0
    pairing: str = "by-order"
    workers: int = 1


@dataclass
class RunReport:
    """Run accounting. Every non-root condensed node of every processed
    sentence lands in exactly one bucket: a primary question, skipped with
    no usable template, or skipped as a duplicate. Sense questions are
    emitted on top of that."""

    sentences_processed: int = 0
    sentences_failed: int = 0
    questions_emitted: int = 0
    sense_questions: int = 0
    non_root_nodes: int = 0
    skipped_no_template: int = 0
    skipped_duplicate: int = 0
    scorer_fallbacks: int = 0
    scorer_memo_hits: int = 0
    wall_time_seconds: float = 0.0

    @property
    def primary_questions(self) -> int:
        return self.questions_emitted - self.sense_questions

    def lines(self) -> list[str]:
        return [
            f"sentences processed   {self.sentences_processed}",
            f"sentences failed      {self.sentences_failed}",
            f"questions emitted     {self.questions_emitted}",
            f"  sense questions     {self.sense_questions}",
            f"non-root nodes        {self.non_root_nodes}",
            f"  skipped no-template {self.skipped_no_template}",
            f"  skipped duplicate   {self.skipped_duplicate}",
            f"scorer fallbacks      {self.scorer_fallbacks}",
            f"scorer memo hits      {self.scorer_memo_hits}",
            f"wall time             {self.wall_time_seconds:.2f}s",
        ]


class _ScoreMemo:
    """Run-scoped, bounded memo in front of a scorer, with the same
    ``score(text)`` contract.

    Only scores carrying the scorer's own ``scorer_id`` are stored. A
    fallback score is returned, never stored, and empties the memo, so
    from then on every text goes to the scorer as it would without a
    memo: once a fallback circuit opens, no node mixes memoized scores
    with fallback ones. A score whose call began before the latest
    fallback is not stored either. When full, the oldest entry is
    evicted. The lock is never held across a scorer call: two threads
    that miss on one text may both score it, and either stores its score.
    """

    def __init__(self, scorer):
        self._scorer = scorer
        self._scorer_id = scorer.scorer_id
        # OrderedDict, not dict: evicting a plain dict's first key scans
        # the deleted slots left at its front, which costs more than a
        # baseline score.
        self._scores: OrderedDict[str, QuestionScore] = OrderedDict()
        self._lock = threading.Lock()
        self._fallbacks_seen = 0
        self.hits = 0

    def score(self, text: str) -> QuestionScore:
        # One dict read is atomic, so a lookup skips the lock; the hit
        # count and every update take it.
        cached = self._scores.get(text)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        fallbacks_before = self._fallbacks_seen
        result = self._scorer.score(text)
        with self._lock:
            if result.scorer_id != self._scorer_id:
                self._fallbacks_seen += 1
                self._scores.clear()
            elif fallbacks_before == self._fallbacks_seen:
                self._scores[text] = result
                if len(self._scores) > MEMO_CAPACITY:
                    self._scores.popitem(last=False)
        return result


@dataclass
class _SentenceResult:
    pairs: list[QaPair] = field(default_factory=list)
    non_root: int = 0
    no_template: int = 0
    duplicate: int = 0
    sense: int = 0
    error: str | None = None


def process_sentence(entry, ann: SentenceAnnotation, store: TemplateStore,
                     scorer) -> _SentenceResult:
    """QA pairs for one (graph, annotation) pair.

    Primary questions come from non-root nodes in traversal order, then
    sense questions from predicate definitions. Within a sentence no two
    pairs share (question text, answer text); later duplicates are skipped.
    """
    tree = preprocess(entry.graph)
    alignment = align_concepts(tree, ann)
    nodes = preorder(tree)
    result = _SentenceResult()
    seen: set[tuple[str, str]] = set()

    for node in nodes[1:]:
        result.non_root += 1
        candidates = generate_candidates(node, node.parent, store, ann,
                                         alignment)
        if not candidates:
            result.no_template += 1
            continue
        best = best_question(candidates, scorer)
        answer = extract_answer(best.entity_ref, ann, alignment)
        key = (best.filled_text, answer.text)
        if key in seen:
            result.duplicate += 1
            continue
        seen.add(key)
        result.pairs.append(QaPair(
            sentence_id=entry.id,
            question=best.filled_text,
            answer=answer,
            relation=best.relation,
            node=node.variable or "",
            template_id=best.template_id,
            score=best.score.value,
            scorer_id=best.score.scorer_id,
        ))

    for node in nodes:
        pair = sense_question(node, ann, alignment)
        if pair is None:
            continue
        key = (pair.question, pair.answer.text)
        if key in seen:
            continue
        seen.add(key)
        scored = scorer.score(pair.question)
        result.pairs.append(replace(pair, sentence_id=entry.id,
                                    score=scored.value,
                                    scorer_id=scored.scorer_id))
        result.sense += 1
    return result


def _pair_blocks(blocks: Iterable[RawBlock], annotations, strategy):
    """(block, annotation-or-None) work items, drawn as they are consumed.
    A missing by-id annotation becomes a per-sentence failure downstream;
    count and uniqueness problems abort because silent misalignment would
    corrupt every pair."""
    if strategy == "by-order":
        return _lockstep(blocks, annotations)
    if strategy == "by-id":
        index = {}
        for ann in list(annotations):   # any ConlluError before this one
            if ann.sentence_id in index:
                raise UnresolvedId(
                    f"annotation id {ann.sentence_id!r} is not unique")
            index[ann.sentence_id] = ann
        return ((raw, index.get(raw.id if raw.id is not None
                                else str(raw.position)))
                for raw in blocks)
    raise ValueError(f"unknown pairing strategy {strategy!r}")


def _lockstep(blocks: Iterable[RawBlock], annotations) -> Iterator[tuple]:
    """by-order pairs. The side that is left over is counted to its end
    for the CountMismatch message; counting annotations reads them all, so
    a malformed CoNLL-U line raises first."""
    pairs = zip_longest(blocks, annotations)
    for count, (raw, ann) in enumerate(pairs):
        if raw is None or ann is None:
            longer = count + 1 + sum(1 for _ in pairs)
            sizes = (count, longer) if raw is None else (longer, count)
            raise CountMismatch("%d graph blocks vs %d annotations" % sizes)
        yield raw, ann


def _in_order(work: Callable, tasks: Iterable, workers: int) -> Iterator:
    """``work(task)`` for each task, in input order: in the calling thread
    for one worker, else on N threads with at most ``IN_FLIGHT_PER_WORKER
    * N`` tasks read whose results have not been handed over."""
    if workers == 1:
        yield from map(work, tasks)
        return
    window: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for task in tasks:
            window.append(pool.submit(work, task))
            if len(window) == IN_FLIGHT_PER_WORKER * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def run_generate(config: RunConfig) -> RunReport:
    started = time.perf_counter()
    if config.workers < 1:
        raise ValueError("worker count must be >= 1")

    store = load_store(config.template_path or bundled_template_path(),
                       config.mapping_path or bundled_mapping_path())
    scorer = make_scorer(config.scorer, config.scorer_url,
                         timeout=config.scorer_timeout)
    memo = _ScoreMemo(scorer)
    report = RunReport()

    def work(task) -> _SentenceResult:
        raw, ann = task
        label = raw.id or str(raw.position)
        if ann is None:
            return _SentenceResult(error=f"no annotation with id {label!r}")
        try:
            entry = parse_block(raw)
            return process_sentence(entry, ann, store, memo)
        except Exception as exc:   # per-sentence skip policy
            return _SentenceResult(error=f"sentence {label!r}: {exc}")

    def counted(results: Iterator[_SentenceResult]) -> Iterator[QaPair]:
        for result in results:
            if result.error is not None:
                report.sentences_failed += 1
                logger.warning("skipped: %s", result.error)
                continue
            report.sentences_processed += 1
            report.non_root_nodes += result.non_root
            report.skipped_no_template += result.no_template
            report.skipped_duplicate += result.duplicate
            report.sense_questions += result.sense
            report.questions_emitted += len(result.pairs)
            yield from result.pairs

    with open(config.amr_path, encoding="utf-8") as amr:
        blocks = iter_blocks(amr)
        first = next(blocks, None)
        if first is None:
            raise ZeroSentences("no sentences in the AMR corpus")
        with open(config.conllu_path, encoding="utf-8") as conllu:
            tasks = _pair_blocks(chain([first], blocks), iter_conllu(conllu),
                                 config.pairing)
            with closing(_in_order(work, tasks, config.workers)) as results:
                write_dataset(counted(results), config.output_path)

    report.scorer_fallbacks = getattr(scorer, "fallback_calls", 0)
    report.scorer_memo_hits = memo.hits
    report.wall_time_seconds = time.perf_counter() - started
    return report
