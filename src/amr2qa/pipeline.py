"""End-to-end generation: read, pair, preprocess, align, generate, answer,
write.

Sentences stream: the AMR file is read block by block and the CoNLL-U file
sentence by sentence (by-id pairing indexes the annotations, so it holds
that file). Sentences run one at a time, in input order, in the calling
thread, and each sentence's lines are written as soon as they are ready,
so memory grows with one sentence's work, not with the corpus. Nothing a
sentence builds holds a reference cycle, so its trees and candidates are
freed when it is done, without waiting for the cyclic collector. The
dataset is renamed from ``<out>.tmp`` onto ``<out>`` only when the run
completes. Each sentence's question texts are scored as one batch (see
``BatchScorer``): all of a sentence's scores (``score(text) -> float``)
come from one scorer, and a remote scorer is asked for a text that
recurs across sentences once per run (up to ``MEMO_CAPACITY`` texts held
at a time). Only a remote scorer's requests run on threads, ``workers``
of them; output bytes do not depend on worker count. An input error in
one sentence (a block without ``::snt`` or with a malformed graph, no
annotation, or an annotation whose words do not spell ``::snt``) is
logged and counted, never fatal. Unreadable files, bad template
resources, malformed CoNLL-U and count mismatches abort the run, and so
does any other exception in a sentence: it is a bug, not bad input.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import closing
from itertools import chain, zip_longest
from typing import NamedTuple

from . import warn
from .agen import Answer, extract_answer
from .annotate import SentenceAnnotation, align_concepts, iter_conllu
from .corpus import (
    CorpusError,
    CountMismatch,
    PairMismatch,
    QaPair,
    RawBlock,
    UnresolvedId,
    ZeroSentences,
    iter_blocks,
    parse_block,
    write_dataset,
)
from .penman import AmrNode
from .preprocess import preorder, preprocess
from .qgen import best_question, generate_candidates, sense_question
from .scorer import BaselineScorer, ScorerUnavailable, make_scorer
from .templates import (
    TemplateStore,
    bundled_mapping_path,
    bundled_template_path,
    load_store,
)

# Texts a remote scorer's score memo holds at once; bounds its memory
# whatever the corpus size.
MEMO_CAPACITY = 4096

# Consecutive sentences with a failed scorer request that open the circuit.
MAX_FAILURES = 3

# The relation and template id of every sense question's pair.
SENSE_RELATION = "sense"
SENSE_TEMPLATE_ID = "verb-sense"


class RunConfig(NamedTuple):
    amr_path: str
    conllu_path: str
    output_path: str
    template_path: str | None = None   # None = bundled pack
    mapping_path: str | None = None
    scorer: str = "baseline"
    scorer_url: str | None = None
    pairing: str = "by-order"
    workers: int = 1


class RunReport:
    """Run accounting. Every non-root condensed node of every processed
    sentence lands in exactly one bucket: a primary question, skipped with
    no usable template, or skipped as a duplicate. Sense questions are
    emitted on top of that. Each counter starts at the class's 0 and
    ``run_generate`` adds to it."""

    sentences_processed = 0
    sentences_failed = 0
    questions_emitted = 0
    sense_questions = 0
    non_root_nodes = 0
    skipped_no_template = 0
    skipped_duplicate = 0
    scorer_fallbacks = 0
    scorer_memo_hits = 0
    wall_time_seconds = 0.0

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


class BatchScorer:
    """Scores one sentence's question texts at a time, on one scale.

    ``score_all(texts)`` returns ``(scorer_id, scores)``, a score for every
    text, all from the configured scorer or, when any of its requests for
    the batch fails, all from the bundled baseline, so no argmax compares
    scores of two scorers. A baseline scores each distinct text of the
    batch once, afresh, which costs less than remembering its score. For
    any other scorer a run-scoped memo holds up to ``MEMO_CAPACITY`` of its
    scores (oldest evicted first); only the texts it lacks are requested,
    once each, and a batch that falls back stores nothing. ``hits`` and
    ``fallbacks`` count the distinct texts of each batch that the memo
    answered or the baseline scored instead, so a repeat counts once. After
    ``MAX_FAILURES`` consecutive failed batches the circuit opens and every
    later batch goes straight to the baseline, so an unreachable service
    costs a bounded number of timeouts per run. With ``workers > 1`` a
    batch's requests go over a pool of that many threads, made on first use
    and shut down by ``close()``; a failed request cancels the batch's
    requests not yet started. Otherwise they run in the calling thread, and
    the first failure ends the batch.
    """

    def __init__(self, scorer, workers: int):
        self._scorer = scorer
        self._workers = workers
        self._pool = None
        self._fallback = None
        # OrderedDict, not dict: evicting a plain dict's first key scans
        # the deleted slots left at its front.
        self._scores: OrderedDict[str, float] = OrderedDict()
        self._failures = 0
        self.hits = 0        # distinct texts of a batch the memo answered
        self.fallbacks = 0   # distinct texts of a batch the baseline scored

    @property
    def circuit_open(self) -> bool:
        return self._failures >= MAX_FAILURES

    def score_all(self, texts: list[str]) -> tuple[str, dict[str, float]]:
        scorer = self._scorer
        if isinstance(scorer, BaselineScorer):
            return scorer.scorer_id, {text: scorer.score(text)
                                      for text in dict.fromkeys(texts)}
        if not self.circuit_open:
            scores = {text: self._scores.get(text) for text in texts}
            missing = [text for text, score in scores.items() if score is None]
            try:
                scores.update(zip(missing, self._request(missing)))
            except ScorerUnavailable:
                self._failures += 1
            else:
                if missing:
                    self._failures = 0
                self._store(missing, scores)
                self.hits += len(scores) - len(missing)
                return scorer.scorer_id, scores
        if self._fallback is None:
            self._fallback = BaselineScorer.bundled()
        scorer = self._fallback
        scores = {text: scorer.score(text) for text in dict.fromkeys(texts)}
        self.fallbacks += len(scores)
        return scorer.scorer_id, scores

    def _request(self, texts: list[str]) -> list[float]:
        if self._workers == 1 or len(texts) < 2:
            return [self._scorer.score(text) for text in texts]
        if self._pool is None:
            # only a remote run with more than one worker loads it
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self._workers)
        return list(self._pool.map(self._scorer.score, texts))

    def _store(self, texts: list[str], scores: dict[str, float]):
        for text in texts:
            self._scores[text] = scores[text]
            if len(self._scores) > MEMO_CAPACITY:
                self._scores.popitem(last=False)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


class _SentenceResult:
    no_template = duplicate = sense = 0

    def __init__(self, non_root: int):
        self.pairs: list[QaPair] = []
        self.non_root = non_root


def check_pair(raw: RawBlock, ann: SentenceAnnotation) -> None:
    """Raises PairMismatch unless the annotation's words spell the
    ``::snt`` of ``raw``, a block :func:`parse_block` accepts: the two are
    equal once all whitespace is removed."""
    words = "".join(token.surface for token in ann.tokens)
    if "".join(raw.sentence.split()) != "".join(words.split()):
        raise PairMismatch(f"::snt is not spelled by the words of annotation "
                           f"{ann.sentence_id!r}", block=raw.position)


def process_sentence(root: AmrNode, label: str, ann: SentenceAnnotation,
                     store: TemplateStore,
                     scorer: BatchScorer) -> _SentenceResult:
    """QA pairs for one parsed graph and its annotation, labelled ``label``.

    Primary questions come from non-root nodes in traversal order, then
    sense questions from predicate definitions. Every candidate and sense
    question is scored in one batch, before any is selected. Within a
    sentence no two pairs share (question text, answer text); later
    duplicates are skipped.
    """
    tree = preprocess(root)
    alignment = align_concepts(tree, ann)
    nodes = preorder(tree)
    result = _SentenceResult(len(nodes) - 1)
    parent = {child: node for node in nodes for child in node.children}
    per_node = [generate_candidates(node, parent[node], store, ann, alignment)
                for node in nodes[1:]]
    senses: dict[tuple[str, str], Answer] = {}
    for node in nodes:
        sense = sense_question(node, ann, alignment)
        if sense is not None:
            question, answer = sense
            senses.setdefault((question, answer.text), answer)
    scorer_id, scores = scorer.score_all(
        [candidate.filled_text for candidates in per_node
         for candidate in candidates]
        + [question for question, _ in senses])
    seen: set[tuple[str, str]] = set()

    for node, candidates in zip(nodes[1:], per_node):
        if not candidates:
            result.no_template += 1
            continue
        best = best_question(candidates, scores)
        answer = extract_answer(best.entity_ref, ann, alignment)
        key = (best.filled_text, answer.text)
        if key in seen:
            result.duplicate += 1
            continue
        seen.add(key)
        result.pairs.append(QaPair(
            sentence_id=label,
            question=best.filled_text,
            answer=answer,
            relation=best.relation,
            node=node.variable or "",
            template_id=best.template_id,
            score=scores[best.filled_text],
            scorer_id=scorer_id,
        ))

    for key, answer in senses.items():
        if key in seen:
            continue
        seen.add(key)
        result.pairs.append(QaPair(label, key[0], answer, SENSE_RELATION,
                                   answer.source_node, SENSE_TEMPLATE_ID,
                                   scores[key[0]], scorer_id))
        result.sense += 1
    return result


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


def _by_id(blocks: Iterable[RawBlock], annotations):
    """by-id pairs. A block no annotation id matches gets None, a
    per-sentence failure downstream. The annotations are indexed before
    the first pair is drawn; a repeated id aborts the run, since it would
    pair a sentence with the wrong annotation."""
    index = {}
    for ann in list(annotations):   # any ConlluError before this one
        if ann.sentence_id in index:
            raise UnresolvedId(
                f"annotation id {ann.sentence_id!r} is not unique")
        index[ann.sentence_id] = ann
    return ((raw, index.get(raw.label)) for raw in blocks)


# --pair value -> (blocks, annotations) -> (block, annotation-or-None)
# work items, drawn as they are consumed
PAIRINGS = {"by-order": _lockstep, "by-id": _by_id}


def run_generate(config: RunConfig) -> RunReport:
    """Checks the settings, then runs. An unknown or non-string pairing
    or scorer, a worker count that is not an int of at least 1, or a
    missing or malformed scorer URL raises ValueError before any input file
    is read."""
    started = time.perf_counter()
    pairing = config.pairing
    pair_up = PAIRINGS.get(pairing) if isinstance(pairing, str) else None
    if pair_up is None:
        raise ValueError(f"unknown pairing strategy {pairing!r}")
    # type(), not isinstance(): True is not a worker count
    if type(config.workers) is not int or config.workers < 1:
        raise ValueError(f"workers must be an integer >= 1, "
                         f"got {config.workers!r}")
    # only a remote scorer's requests reach BatchScorer's threads
    scorer = BatchScorer(make_scorer(config.scorer, config.scorer_url),
                         config.workers)
    store = load_store(config.template_path or bundled_template_path(),
                       config.mapping_path or bundled_mapping_path())
    report = RunReport()

    def sentences(tasks) -> Iterator[QaPair]:
        for raw, ann in tasks:
            if ann is None:
                report.sentences_failed += 1
                warn("skipped: no annotation with id %r", raw.label)
                continue
            try:
                root = parse_block(raw)
                check_pair(raw, ann)
            except CorpusError as exc:   # bad input costs its sentence
                report.sentences_failed += 1
                warn("skipped: sentence %r: %s", raw.label, exc)
                continue
            result = process_sentence(root, raw.label, ann, store, scorer)
            report.sentences_processed += 1
            report.non_root_nodes += result.non_root
            report.skipped_no_template += result.no_template
            report.skipped_duplicate += result.duplicate
            report.sense_questions += result.sense
            report.questions_emitted += len(result.pairs)
            yield from result.pairs

    with closing(scorer), open(config.amr_path, encoding="utf-8-sig") as amr:
        blocks = iter_blocks(amr)
        first = next(blocks, None)
        if first is None:
            raise ZeroSentences("no sentences in the AMR corpus")
        with open(config.conllu_path, encoding="utf-8-sig") as conllu:
            tasks = pair_up(chain([first], blocks), iter_conllu(conllu))
            write_dataset(sentences(tasks), config.output_path)

    report.scorer_fallbacks = scorer.fallbacks
    report.scorer_memo_hits = scorer.hits
    report.wall_time_seconds = time.perf_counter() - started
    return report
