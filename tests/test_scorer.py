"""N-gram baseline, remote client and fallback."""

import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, strategies as st

from amr2qa.scorer import (
    BOS,
    EOS,
    BaselineScorer,
    EmptyCorpus,
    FallbackScorer,
    NgramModel,
    QuestionScore,
    RemoteScorer,
    ScorerUnavailable,
    bundled_corpus_path,
    make_scorer,
    score_text,
    train_ngram,
)


class TestTrain:
    def test_hand_counted_bigrams(self):
        model = train_ngram("a b . a b .", order=2)
        assert model.counts[("a", "b")] == 2
        assert model.counts[("b", ".")] == 2
        assert model.counts[(".", "a")] == 1
        assert model.counts[(BOS, "a")] == 1
        assert model.counts[(".", EOS)] == 1

    def test_lines_padded_independently(self):
        model = train_ngram(["a b", "a b"], order=2)
        assert model.counts[(BOS, "a")] == 2
        assert model.counts[("b", EOS)] == 2
        assert ("b", "a") not in model.counts

    def test_order_three_padding(self):
        model = train_ngram(["x y"], order=3)
        assert model.counts[(BOS, BOS, "x")] == 1
        assert model.counts[(BOS, "x", "y")] == 1
        assert model.counts[("x", "y", EOS)] == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_ngram("")
        with pytest.raises(EmptyCorpus):
            train_ngram(["", "   "])

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            train_ngram("a b", order=1)
        with pytest.raises(ValueError):
            NgramModel(order=1)

    def test_unseen_bigram_has_positive_probability(self):
        model = train_ngram("a b", order=2)
        value = model.logprob(("never", "seen"))
        assert math.isfinite(value)
        assert math.exp(value) > 0

    def test_vocabulary_includes_boundaries(self):
        model = train_ngram("a b", order=2)
        assert model.vocabulary == {BOS, EOS, "a", "b"}


class TestScoreText:
    def setup_method(self):
        self.model = train_ngram("a b c . a b d .", order=2)

    def test_mean_of_window_logprobs(self):
        expected = (self.model.logprob(("a", "b"))
                    + self.model.logprob(("b", "c"))) / 2
        assert score_text(self.model, "a b c") == pytest.approx(expected)

    def test_no_padding_at_score_time(self):
        # only the interior bigram counts, not (<s>, a) or (b, </s>)
        assert score_text(self.model, "a b") == pytest.approx(
            self.model.logprob(("a", "b")))

    def test_single_token_uses_unigram(self):
        assert score_text(self.model, "a") == pytest.approx(
            self.model.unigram_logprob("a"))

    def test_below_order_uses_mean_unigram(self):
        model3 = train_ngram("a b c . a b d .", order=3)
        expected = (model3.unigram_logprob("a")
                    + model3.unigram_logprob("b")) / 2
        assert score_text(model3, "a b") == pytest.approx(expected)

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            score_text(self.model, "   ")

    def test_deterministic(self):
        first = score_text(self.model, "a b c d")
        again = score_text(self.model, "a b c d")
        assert first == again

    @given(st.lists(st.sampled_from(["a", "b", "c", "zz", "?", "What"]),
                    min_size=1, max_size=8))
    def test_always_finite(self, tokens):
        assert math.isfinite(score_text(self.model, " ".join(tokens)))


class TestBundledBaseline:
    def setup_method(self):
        self.scorer = BaselineScorer.bundled()

    def test_auxiliary_variant_preferred(self):
        with_aux = self.scorer.score("What was broken ?")
        without = self.scorer.score("What broken ?")
        assert with_aux.value > without.value
        assert with_aux.scorer_id == "baseline"

    def test_identical_strings_identical_scores(self):
        a = self.scorer.score("Where did someone go ?")
        b = self.scorer.score("Where did someone go ?")
        assert a == b

    def test_in_corpus_line_beats_shuffle(self):
        line = "The engine was broken ."
        tokens = line.split()
        rng = random.Random(3)
        shuffled = tokens[:]
        while shuffled == tokens:
            rng.shuffle(shuffled)
        assert (self.scorer.score(line).value
                >= self.scorer.score(" ".join(shuffled)).value)

    def test_corpus_never_contains_dropped_auxiliary_bigram(self):
        text = bundled_corpus_path().read_text(encoding="utf-8")
        assert "What broken" not in text

    def test_retrains_identically(self):
        other = BaselineScorer.bundled()
        for question in ("Who made the cake ?", "What was lost ?", "zz qq"):
            assert other.score(question) == self.scorer.score(question)


class _Handler(BaseHTTPRequestHandler):
    behavior = staticmethod(lambda body: (200, b'{"logprob": -3.2}'))
    received: list[bytes] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).received.append(body)
        status, payload = type(self).behavior(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.received = []
    _Handler.behavior = staticmethod(lambda body: (200, b'{"logprob": -3.2}'))
    yield f"http://127.0.0.1:{server.server_port}/score"
    server.shutdown()
    thread.join()


class TestRemoteScorer:
    def test_pass_through(self, mock_server):
        result = RemoteScorer(mock_server).score("What was broken ?")
        assert result == QuestionScore(-3.2, "remote")

    def test_posts_text_as_json(self, mock_server):
        RemoteScorer(mock_server).score("Who made the cake ?")
        assert json.loads(_Handler.received[0].decode("utf-8")) == {
            "text": "Who made the cake ?"}

    def test_non_2xx_status(self, mock_server):
        _Handler.behavior = staticmethod(lambda body: (500, b"boom"))
        with pytest.raises(ScorerUnavailable):
            RemoteScorer(mock_server).score("What ?")

    def test_malformed_json(self, mock_server):
        _Handler.behavior = staticmethod(lambda body: (200, b"{not json"))
        with pytest.raises(ScorerUnavailable):
            RemoteScorer(mock_server).score("What ?")

    def test_missing_or_non_numeric_logprob(self, mock_server):
        for payload in (b"{}", b'{"logprob": "low"}', b'{"logprob": true}',
                        b'{"logprob": null}', b'[1, 2]'):
            _Handler.behavior = staticmethod(
                lambda body, p=payload: (200, p))
            with pytest.raises(ScorerUnavailable):
                RemoteScorer(mock_server).score("What ?")

    def test_unreachable_endpoint(self):
        scorer = RemoteScorer("http://127.0.0.1:1/score", timeout=0.5)
        with pytest.raises(ScorerUnavailable):
            scorer.score("What was broken ?")

    def test_integer_logprob_accepted(self, mock_server):
        _Handler.behavior = staticmethod(lambda body: (200, b'{"logprob": -4}'))
        assert RemoteScorer(mock_server).score("What ?").value == -4.0


class _StubScorer:
    def __init__(self, fail=False, value=-1.0, scorer_id="stub"):
        self.fail = fail
        self.calls = 0
        self.value = value
        self.scorer_id = scorer_id

    def score(self, question):
        self.calls += 1
        if self.fail:
            raise ScorerUnavailable("stubbed outage")
        return QuestionScore(self.value, self.scorer_id)


class TestFallbackScorer:
    def test_primary_used_when_healthy(self):
        primary = _StubScorer(value=-2.0, scorer_id="remote")
        fallback = _StubScorer(value=-9.0, scorer_id="baseline")
        scorer = FallbackScorer(primary, fallback)
        result = scorer.score("What ?")
        assert result.scorer_id == "remote"
        assert scorer.fallback_calls == 0

    def test_scorer_id_is_the_primary_s(self):
        scorer = FallbackScorer(_StubScorer(scorer_id="remote"),
                                _StubScorer(scorer_id="baseline"))
        assert scorer.scorer_id == "remote"

    def test_failure_falls_back_and_is_recorded(self):
        scorer = FallbackScorer(_StubScorer(fail=True),
                                _StubScorer(scorer_id="baseline"))
        result = scorer.score("What ?")
        assert result.scorer_id == "baseline"
        assert scorer.fallback_calls == 1

    def test_circuit_opens_after_consecutive_failures(self):
        primary = _StubScorer(fail=True)
        scorer = FallbackScorer(primary, _StubScorer(), max_failures=3)
        for _ in range(10):
            scorer.score("What ?")
        assert scorer.circuit_open
        assert primary.calls == 3
        assert scorer.fallback_calls == 10

    def test_success_resets_failure_streak(self):
        primary = _StubScorer(scorer_id="remote")
        scorer = FallbackScorer(primary, _StubScorer(), max_failures=3)
        for _ in range(2):
            primary.fail = True
            scorer.score("What ?")
            primary.fail = False
            scorer.score("What ?")
            primary.fail = True
            scorer.score("What ?")
        assert not scorer.circuit_open

    def test_concurrent_calls_account_for_every_score(self):
        primary = _StubScorer(fail=True)
        scorer = FallbackScorer(primary, _StubScorer(), max_failures=3)
        threads = [threading.Thread(target=scorer.score, args=("What ?",))
                   for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert scorer.fallback_calls == 16


class TestMakeScorer:
    def test_baseline(self):
        assert isinstance(make_scorer("baseline"), BaselineScorer)

    def test_remote_wraps_fallback(self):
        scorer = make_scorer("remote", url="http://127.0.0.1:1/score")
        assert isinstance(scorer, FallbackScorer)
        assert isinstance(scorer.primary, RemoteScorer)
        assert isinstance(scorer.fallback, BaselineScorer)

    def test_scorer_id_matches_its_own_scores(self, mock_server):
        # The pipeline's score memo stores only results carrying this id.
        for scorer in (make_scorer("baseline"),
                       make_scorer("remote", url=mock_server)):
            result = scorer.score("What ?")
            assert result.scorer_id == scorer.scorer_id
        assert scorer.fallback_calls == 0

    def test_remote_requires_url(self):
        with pytest.raises(ValueError):
            make_scorer("remote")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scorer("quantum")
