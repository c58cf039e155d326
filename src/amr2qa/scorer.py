"""Fluency scoring for candidate questions.

Two scorers share one contract (``score(text) -> QuestionScore``): a bundled
add-one smoothed bigram baseline, and an HTTP client for an external language
model. Every scorer's ``scorer_id`` attribute is the id its results carry.
The pipeline scores each sentence as one batch and, when a remote request
fails, rescores that whole sentence with the baseline
(``pipeline.BatchScorer``), so a remote failure degrades a run instead of
aborting it.

Scores are length-normalized (mean per-token log-probability) so candidates
of different lengths compare fairly. Training pads each corpus line with
boundary markers; scoring does not pad, and one-word questions fall back to
the smoothed unigram log-probability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

BOS = "<s>"
EOS = "</s>"
ADD_K = 1.0            # add-one smoothing of the bigram baseline


class ScorerUnavailable(RuntimeError):
    """The external scoring service could not produce a score."""


class EmptyCorpus(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class QuestionScore:
    value: float
    scorer_id: str


class NgramModel:
    """Add-one smoothed bigram counts, read-only after construction."""

    def __init__(self, counts: dict[tuple[str, str], int]):
        self.counts = counts
        self.context_counts: dict[tuple[str], int] = {}
        self.unigram_counts: dict[str, int] = {}
        vocab: set[str] = set()
        for gram, count in counts.items():
            self.context_counts[gram[:-1]] = (
                self.context_counts.get(gram[:-1], 0) + count)
            self.unigram_counts[gram[0]] = (
                self.unigram_counts.get(gram[0], 0) + count)
            vocab.update(gram)
        self.vocabulary = frozenset(vocab)
        self.vocabulary_size = len(vocab)
        self.total = sum(counts.values())

    def logprob(self, gram: tuple[str, str]) -> float:
        """Smoothed log P(gram[1] | gram[0]). Finite for any tokens."""
        k = ADD_K
        denominator = self.context_counts.get(gram[:-1], 0) + k * self.vocabulary_size
        return math.log((self.counts.get(gram, 0) + k) / denominator)

    def unigram_logprob(self, token: str) -> float:
        k = ADD_K
        denominator = self.total + k * self.vocabulary_size
        return math.log((self.unigram_counts.get(token, 0) + k) / denominator)


def train_ngram(text: str) -> NgramModel:
    """Count boundary-padded bigrams over ``text``, one sentence per line;
    tokens split on whitespace."""
    counts: dict[tuple[str, str], int] = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        padded = [BOS, *tokens, EOS]
        for gram in zip(padded, padded[1:]):
            counts[gram] = counts.get(gram, 0) + 1
    if not counts:
        raise EmptyCorpus("no tokens in corpus")
    return NgramModel(counts)


def score_text(model: NgramModel, text: str) -> float:
    """Mean per-token log-probability, without boundary padding. A one-word
    text scores as its smoothed unigram log-prob."""
    tokens = text.split()
    if not tokens:
        raise ValueError("cannot score an empty question")
    if len(tokens) == 1:
        values = [model.unigram_logprob(tokens[0])]
    else:
        values = [model.logprob(gram) for gram in zip(tokens, tokens[1:])]
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

    One call is one request, and every request carries a timeout.
    Timeouts, connection errors, non-2xx statuses, malformed replies and
    non-finite logprobs all surface as ScorerUnavailable.
    """

    scorer_id = "remote"

    def __init__(self, url: str, timeout: float = 5.0):
        # the HTTP client loads here, not at module import: a baseline run
        # never needs it, and a remote run pays for it during set-up
        import urllib.request

        self._client = urllib.request
        self.url = url
        self.timeout = timeout

    def score(self, question: str) -> QuestionScore:
        payload = json.dumps({"text": question}).encode("utf-8")
        request = self._client.Request(
            self.url, data=payload,
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with self._client.urlopen(request, timeout=self.timeout) as reply:
                if not 200 <= reply.status < 300:
                    raise ScorerUnavailable(f"status {reply.status}")
                body = reply.read()
        except ScorerUnavailable:
            raise
        except (OSError, ValueError) as exc:  # URLError is an OSError
            raise ScorerUnavailable(str(exc)) from exc
        # ValueError covers bad UTF-8, bad JSON and an integer longer than
        # the int() digit limit
        try:
            decoded = json.loads(body.decode("utf-8"))
            value = decoded["logprob"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ScorerUnavailable(f"malformed reply: {exc}") from exc
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScorerUnavailable(f"logprob is not a number: {value!r}")
        try:
            logprob = float(value)
        except OverflowError:  # an integer beyond the float range
            logprob = math.inf
        if not math.isfinite(logprob):
            raise ScorerUnavailable(f"non-finite logprob: {logprob}")
        return QuestionScore(logprob, self.scorer_id)


def make_scorer(kind: str = "baseline", url: str | None = None,
                timeout: float = 5.0):
    """Scorer factory used by the pipeline and CLI. The pipeline, not the
    scorer, falls back to the bundled baseline when a remote request fails."""
    if kind == "baseline":
        return BaselineScorer.bundled()
    if kind == "remote":
        if not url:
            raise ValueError("remote scorer requires a URL")
        return RemoteScorer(url, timeout=timeout)
    raise ValueError(f"unknown scorer kind {kind!r}")
