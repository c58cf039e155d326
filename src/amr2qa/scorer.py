"""Fluency scoring for candidate questions.

Two scorers share one contract (``score(text) -> QuestionScore``): a bundled
add-k smoothed n-gram baseline, and an HTTP client for an external language
model. A wrapper composes the two so remote failures degrade to the baseline
instead of aborting a run. Every scorer's ``scorer_id`` attribute is the id
its own (non-fallback) results carry.

Scores are length-normalized (mean per-token log-probability) so candidates
of different lengths compare fairly. Training pads each corpus line with
boundary markers; scoring does not pad, and questions shorter than the model
order fall back to mean smoothed unigram log-probability.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

BOS = "<s>"
EOS = "</s>"


class ScorerUnavailable(RuntimeError):
    """The external scoring service could not produce a score."""


class EmptyCorpus(ValueError):
    pass


@dataclass(frozen=True)
class QuestionScore:
    value: float
    scorer_id: str


class NgramModel:
    """Add-k smoothed n-gram counts. Immutable after construction, so one
    instance can be shared across worker threads."""

    def __init__(self, order: int = 2, smoothing: float = 1.0,
                 counts: dict[tuple[str, ...], int] | None = None):
        if order < 2:
            raise ValueError("order must be >= 2")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.order = order
        self.smoothing = smoothing
        self.counts: dict[tuple[str, ...], int] = dict(counts or {})
        self._finalize()

    def _finalize(self):
        self.context_counts: dict[tuple[str, ...], int] = {}
        self.unigram_counts: dict[str, int] = {}
        vocab: set[str] = set()
        for gram, count in self.counts.items():
            self.context_counts[gram[:-1]] = (
                self.context_counts.get(gram[:-1], 0) + count)
            self.unigram_counts[gram[0]] = (
                self.unigram_counts.get(gram[0], 0) + count)
            vocab.update(gram)
        self.vocabulary = frozenset(vocab)
        self.total = sum(self.counts.values())

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)

    def logprob(self, gram: tuple[str, ...]) -> float:
        """Smoothed log P(gram[-1] | gram[:-1]). Finite for any tokens."""
        if len(gram) != self.order:
            raise ValueError(f"expected {self.order}-gram, got {len(gram)}")
        k = self.smoothing
        denominator = self.context_counts.get(gram[:-1], 0) + k * self.vocabulary_size
        return math.log((self.counts.get(gram, 0) + k) / denominator)

    def unigram_logprob(self, token: str) -> float:
        k = self.smoothing
        denominator = self.total + k * self.vocabulary_size
        return math.log((self.unigram_counts.get(token, 0) + k) / denominator)


def train_ngram(corpus, order: int = 2, smoothing: float = 1.0) -> NgramModel:
    """Count boundary-padded n-grams over the corpus.

    ``corpus`` is a string (one sentence per line) or an iterable of
    sentence strings; tokens split on whitespace.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    lines = corpus.splitlines() if isinstance(corpus, str) else corpus
    counts: dict[tuple[str, ...], int] = {}
    saw_tokens = False
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        saw_tokens = True
        padded = [BOS] * (order - 1) + tokens + [EOS]
        for i in range(len(padded) - order + 1):
            gram = tuple(padded[i:i + order])
            counts[gram] = counts.get(gram, 0) + 1
    if not saw_tokens:
        raise EmptyCorpus("no tokens in corpus")
    return NgramModel(order=order, smoothing=smoothing, counts=counts)


def score_text(model: NgramModel, text: str) -> float:
    """Mean per-token log-probability, without boundary padding. Texts
    shorter than the model order score as mean smoothed unigram log-prob."""
    tokens = text.split()
    if not tokens:
        raise ValueError("cannot score an empty question")
    if len(tokens) < model.order:
        values = [model.unigram_logprob(t) for t in tokens]
    else:
        values = [model.logprob(tuple(tokens[i:i + model.order]))
                  for i in range(len(tokens) - model.order + 1)]
    return sum(values) / len(values)


def bundled_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "fluency_corpus.txt"


class BaselineScorer:
    scorer_id = "baseline"

    def __init__(self, model: NgramModel):
        self.model = model

    @classmethod
    def bundled(cls) -> "BaselineScorer":
        text = bundled_corpus_path().read_text(encoding="utf-8")
        return cls(train_ngram(text))

    def score(self, question: str) -> QuestionScore:
        return QuestionScore(score_text(self.model, question), self.scorer_id)


class RemoteScorer:
    """POSTs ``{"text": <question>}`` and reads ``{"logprob": <number>}``.

    In-flight requests are capped by a semaphore; every call carries a
    timeout. Timeouts, connection errors, non-2xx statuses and malformed
    replies all surface as ScorerUnavailable.
    """

    scorer_id = "remote"

    def __init__(self, url: str, timeout: float = 5.0, max_in_flight: int = 4):
        # the HTTP client loads here, not at module import: a baseline run
        # never needs it, and a remote run pays for it during set-up
        import urllib.request

        self._client = urllib.request
        self.url = url
        self.timeout = timeout
        self._slots = threading.Semaphore(max_in_flight)

    def score(self, question: str) -> QuestionScore:
        payload = json.dumps({"text": question}).encode("utf-8")
        request = self._client.Request(
            self.url, data=payload,
            headers={"Content-Type": "application/json"}, method="POST")
        with self._slots:
            try:
                with self._client.urlopen(request, timeout=self.timeout) as reply:
                    if not 200 <= reply.status < 300:
                        raise ScorerUnavailable(f"status {reply.status}")
                    body = reply.read()
            except ScorerUnavailable:
                raise
            except (OSError, ValueError) as exc:  # URLError is an OSError
                raise ScorerUnavailable(str(exc)) from exc
        try:
            decoded = json.loads(body.decode("utf-8"))
            value = decoded["logprob"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ScorerUnavailable(f"malformed reply: {exc}") from exc
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScorerUnavailable(f"logprob is not a number: {value!r}")
        return QuestionScore(float(value), self.scorer_id)


class FallbackScorer:
    """Primary scorer with a local stand-in.

    After ``max_failures`` consecutive primary failures the circuit opens and
    later calls skip straight to the fallback, so an unreachable service
    costs a bounded number of timeouts per run. Counters are thread-safe.

    ``scorer_id`` is the primary's: a result carrying any other id is a
    fallback score.
    """

    def __init__(self, primary, fallback, max_failures: int = 3):
        self.primary = primary
        self.fallback = fallback
        self.scorer_id = primary.scorer_id
        self.max_failures = max_failures
        self.fallback_calls = 0
        self.primary_calls = 0
        self._consecutive_failures = 0
        self._circuit_open = False
        self._lock = threading.Lock()

    @property
    def circuit_open(self) -> bool:
        return self._circuit_open

    def score(self, question: str) -> QuestionScore:
        with self._lock:
            attempt_primary = not self._circuit_open
        if attempt_primary:
            try:
                result = self.primary.score(question)
            except ScorerUnavailable:
                with self._lock:
                    self._consecutive_failures += 1
                    if self._consecutive_failures >= self.max_failures:
                        self._circuit_open = True
            else:
                with self._lock:
                    self._consecutive_failures = 0
                    self.primary_calls += 1
                return result
        with self._lock:
            self.fallback_calls += 1
        return self.fallback.score(question)


def make_scorer(kind: str = "baseline", url: str | None = None,
                timeout: float = 5.0, max_in_flight: int = 4):
    """Scorer factory used by the pipeline and CLI. ``remote`` always wraps
    the bundled baseline as fallback."""
    if kind == "baseline":
        return BaselineScorer.bundled()
    if kind == "remote":
        if not url:
            raise ValueError("remote scorer requires a URL")
        remote = RemoteScorer(url, timeout=timeout, max_in_flight=max_in_flight)
        return FallbackScorer(remote, BaselineScorer.bundled())
    raise ValueError(f"unknown scorer kind {kind!r}")
