"""N-gram baseline, remote client and the per-sentence fallback.

The TLS tests use a self-signed certificate for ``localhost`` and
``127.0.0.1`` in ``fixtures/tls``, made once with OpenSSL 3.5 (``-not_before``
needs OpenSSL 3.4 or later) by::

    openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 \
        -nodes -keyout key.pem -out cert.pem -not_before 20000101000000Z \
        -days 36500 -subj "/CN=localhost" \
        -addext "subjectAltName=DNS:localhost,IP:127.0.0.1"
"""

import gc
import inspect
import itertools
import json
import math
import random
import socket
import threading
import time
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, strategies as st

from amr2qa.pipeline import MAX_FAILURES, BatchScorer
from amr2qa.scorer import (
    BOS,
    EOS,
    REQUEST_TIMEOUT,
    BaselineScorer,
    EmptyCorpus,
    RemoteScorer,
    ScorerUnavailable,
    bundled_corpus_path,
    make_scorer,
)

from helpers import (
    TLS_CERT,
    MockLM,
    RawReplyServer,
    no_cyclic_garbage,
    server_tls,
)

OK_REPLY = (b"HTTP/1.0 200 OK\r\nContent-Length: 17\r\n\r\n"
            b'{"logprob": -1.5}')


class TestTrain:
    """A two-word text scores as its one bigram's log-prob, and a one-word
    text as its unigram's."""

    def test_hand_counted_bigrams(self):
        model = BaselineScorer("a b . a b .")
        # padded: <s> a b . a b . </s>; vocabulary of 5; contexts <s> once,
        # a, b and . twice each
        assert model.score("a b") == math.log(3 / 7)
        assert model.score("b .") == math.log(3 / 7)
        assert model.score(". a") == math.log(2 / 7)
        assert model.score(f"{BOS} a") == math.log(2 / 6)
        assert model.score(f". {EOS}") == math.log(2 / 7)
        assert model.score("a .") == math.log(1 / 7)

    def test_lines_padded_independently(self):
        model = BaselineScorer("a b\na b")
        # <s> a b </s> twice: vocabulary of 4, each context twice, and no
        # (b, a) across the line break
        assert model.score(f"{BOS} a") == math.log(3 / 6)
        assert model.score(f"b {EOS}") == math.log(3 / 6)
        assert model.score("b a") == math.log(1 / 6)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            BaselineScorer("")
        with pytest.raises(EmptyCorpus):
            BaselineScorer("\n   \n")

    def test_unseen_bigram_has_positive_probability(self):
        model = BaselineScorer("a b")
        value = model.score("never seen")
        assert math.isfinite(value)
        assert math.exp(value) > 0

    def test_vocabulary_includes_boundaries(self):
        model = BaselineScorer("a b")
        # add-one over a vocabulary of 4: <s>, a, b and </s>; three bigrams
        assert model.score("zz a") == math.log(1 / 4)
        assert model.score("zz") == math.log(1 / 7)

    def test_add_one_smoothing_by_hand(self):
        model = BaselineScorer("a b")
        # bigrams (<s>, a), (a, b), (b, </s>); vocabulary of 4; context a once
        assert model.score("a b") == pytest.approx(math.log(2 / 5))
        assert model.score("a zz") == pytest.approx(math.log(1 / 5))
        # three bigrams in all, one of them starting with a
        assert model.score("a") == pytest.approx(math.log(2 / 7))


class TestScoreText:
    def setup_method(self):
        # padded: <s> a b c . a b d . </s>; vocabulary of 7; nine bigrams,
        # two of them (a, b)
        self.model = BaselineScorer("a b c . a b d .")

    def test_mean_of_window_logprobs(self):
        expected = (self.model.score("a b") + self.model.score("b c")) / 2
        assert self.model.score("a b c") == pytest.approx(expected)

    def test_no_padding_at_score_time(self):
        # only the interior bigram counts, not (<s>, a) or (b, </s>)
        assert self.model.score("a b") == pytest.approx(math.log(3 / 9))

    def test_single_token_uses_unigram(self):
        assert self.model.score("a") == pytest.approx(math.log(3 / 16))

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            self.model.score("   ")

    def test_deterministic(self):
        first = self.model.score("a b c d")
        again = self.model.score("a b c d")
        assert first == again

    @given(st.lists(st.sampled_from(["a", "b", "c", "zz", "?", "What"]),
                    min_size=1, max_size=8))
    def test_always_finite(self, tokens):
        assert math.isfinite(self.model.score(" ".join(tokens)))


class TestTablesMatchCounts:
    """The precomputed tables give, bit for bit, the add-one formula
    evaluated on the corpus's padded bigram counts, counted here."""

    @staticmethod
    def padded_bigrams(corpus):
        counts = Counter()
        for line in corpus.splitlines():
            if line.split():
                padded = [BOS, *line.split(), EOS]
                counts.update(zip(padded, padded[1:]))
        return counts

    @staticmethod
    def counted(counts, text):
        """The score of ``text`` from the counts at each lookup, added in
        one running total, left to right."""
        vocabulary = {token for gram in counts for token in gram}
        context = Counter()   # count of bigrams that start with a token
        for (first, _), count in counts.items():
            context[first] += count
        smoothing = 1.0 * len(vocabulary)
        tokens = text.split()
        if len(tokens) == 1:
            return math.log((context[tokens[0]] + 1.0)
                            / (sum(counts.values()) + smoothing))
        total = 0.0
        for gram in zip(tokens, tokens[1:]):
            total += math.log((counts.get(gram, 0) + 1.0)
                              / (context[gram[0]] + smoothing))
        return total / (len(tokens) - 1)

    def test_bundled_model(self):
        corpus = bundled_corpus_path().read_text(encoding="utf-8")
        model = BaselineScorer(corpus)
        counts = self.padded_bigrams(corpus)
        lines = [line for line in corpus.splitlines() if line.split()]
        vocabulary = {token for gram in counts for token in gram}
        tokens = sorted(vocabulary) + ["zz", "qq", "What?", ""]
        rng = random.Random(11)
        texts = lines + [
            " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 8)))
            for _ in range(3000)]
        texts = [text for text in texts if text.split()]
        assert any(len(text.split()) == 1 for text in texts)
        for text in texts:
            assert model.score(text) == self.counted(counts, text)
        for token in tokens[:-1]:
            assert model.score(token) == self.counted(counts, token)


class TestBundledBaseline:
    def setup_method(self):
        self.scorer = BaselineScorer.bundled()

    def test_auxiliary_variant_preferred(self):
        with_aux = self.scorer.score("What was broken ?")
        without = self.scorer.score("What broken ?")
        assert with_aux > without
        assert self.scorer.scorer_id == "baseline"

    def test_same_score_on_every_python(self):
        # a sum() of these log-probs gives -4.1541914243670925 on Python
        # 3.12 and later, which round a float sum differently
        assert self.scorer.score("What will someone buy ?") \
            == -4.154191424367092

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
        assert (self.scorer.score(line)
                >= self.scorer.score(" ".join(shuffled)))

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
    connection_headers: list[str | None] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).received.append(body)
        type(self).connection_headers.append(self.headers["Connection"])
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
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    _Handler.received = []
    _Handler.connection_headers = []
    _Handler.behavior = staticmethod(lambda body: (200, b'{"logprob": -3.2}'))
    yield f"http://127.0.0.1:{server.server_port}/score"
    server.shutdown()
    thread.join()
    server.server_close()


@pytest.fixture
def no_leaked_sockets():
    """Fails the test if a socket or file it opened was never closed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []


@pytest.fixture
def refused():
    """A 127.0.0.1 address that refuses connections: its port is bound,
    but nothing listens on it."""
    with socket.socket() as bound:
        bound.bind(("127.0.0.1", 0))
        yield bound.getsockname()


def resolving_to(monkeypatch, *addresses):
    """Makes the remote scorer's resolver answer ``addresses``, as IPv4
    stream addresses in that order; returns the ``(host, port)`` pairs it
    is asked for."""
    asked = []

    def getaddrinfo(host, port, *args):
        asked.append((host, port))
        return [(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "",
                 address) for address in addresses]

    monkeypatch.setattr("_socket.getaddrinfo", getaddrinfo)
    return asked


class TestRemoteScorer:
    def test_pass_through(self, mock_server):
        scorer = RemoteScorer(mock_server)
        assert scorer.score("What was broken ?") == -3.2
        assert scorer.scorer_id == "remote"

    def test_posts_text_as_json(self, mock_server):
        RemoteScorer(mock_server).score("Who made the cake ?")
        assert json.loads(_Handler.received[0].decode("utf-8")) == {
            "text": "Who made the cake ?"}

    def test_asks_the_server_to_close_the_connection(self, mock_server):
        RemoteScorer(mock_server).score("What ?")
        assert _Handler.connection_headers == ["close"]

    def test_non_2xx_status(self, mock_server):
        _Handler.behavior = staticmethod(lambda body: (500, b"boom"))
        with pytest.raises(ScorerUnavailable):
            RemoteScorer(mock_server).score("What ?")

    def test_malformed_json(self, mock_server):
        _Handler.behavior = staticmethod(lambda body: (200, b"{not json"))
        with pytest.raises(ScorerUnavailable):
            RemoteScorer(mock_server).score("What ?")

    def test_missing_or_non_numeric_logprob(self, mock_server):
        # NaN, Infinity, 1e400 and huge integers are valid to json.loads but
        # are not finite scores; a 5,000-digit integer trips the int limit
        for payload in (b"{}", b'{"logprob": "low"}', b'{"logprob": true}',
                        b'{"logprob": null}', b'[1, 2]', b'{"logprob": NaN}',
                        b'{"logprob": -Infinity}', b'{"logprob": 1e400}',
                        b'{"logprob": -' + b"9" * 400 + b"}",
                        b'{"logprob": -' + b"9" * 5000 + b"}"):
            _Handler.behavior = staticmethod(
                lambda body, p=payload: (200, p))
            with pytest.raises(ScorerUnavailable):
                RemoteScorer(mock_server).score("What ?")

    def test_unreachable_endpoint(self, no_leaked_sockets, monkeypatch):
        monkeypatch.setattr("amr2qa.scorer.REQUEST_TIMEOUT", 0.5)
        scorer = RemoteScorer("http://127.0.0.1:1/score")
        with pytest.raises(ScorerUnavailable):
            scorer.score("What was broken ?")

    def test_a_refused_address_is_passed_over(self, monkeypatch, refused,
                                              no_leaked_sockets):
        # the addresses are tried in order, as socket.create_connection
        # tries them, and a failed one leaves no socket and no cycle open
        with MockLM() as lm:
            resolving_to(monkeypatch, refused, lm.server_address)
            scorer = RemoteScorer(lm.url)
            with no_cyclic_garbage():
                assert scorer.score("What ?") == -6.0
        assert lm.requests == {"What ?": 1}

    def test_only_refused_addresses(self, monkeypatch, refused,
                                    no_leaked_sockets):
        resolving_to(monkeypatch, refused, refused)
        with pytest.raises(ScorerUnavailable, match="refused"):
            RemoteScorer("http://scorer.example/s").score("What ?")

    def test_no_address(self, monkeypatch):
        resolving_to(monkeypatch)
        with pytest.raises(ScorerUnavailable, match="empty list"):
            RemoteScorer("http://scorer.example/s").score("What ?")

    def test_ascii_host_is_resolved_as_ascii_bytes(self, monkeypatch):
        # the host the URL parser gives, lower-cased; the Host header keeps
        # the URL's spelling
        with RawReplyServer(OK_REPLY) as raw:
            asked = resolving_to(monkeypatch, raw.server_address)
            url = f"http://Scorer.Example:{raw.server_address[1]}/s"
            assert RemoteScorer(url).score("What ?") == -1.5
        assert asked == [(b"scorer.example", raw.server_address[1])]
        assert f"Host: Scorer.Example:{raw.server_address[1]}\r\n".encode() \
            in raw.heads[0]

    def test_non_ascii_host_is_sent_and_resolved_in_idna(self, monkeypatch):
        with RawReplyServer(OK_REPLY) as raw:
            asked = resolving_to(monkeypatch, raw.server_address)
            scorer = RemoteScorer("http://bücher.example:8080/s")
            assert scorer.score("What ?") == -1.5
        assert asked == [(b"xn--bcher-kva.example", 8080)]
        assert b"Host: xn--bcher-kva.example:8080\r\n" in raw.heads[0]

    def test_integer_logprob_accepted(self, mock_server):
        _Handler.behavior = staticmethod(lambda body: (200, b'{"logprob": -4}'))
        assert RemoteScorer(mock_server).score("What ?") == -4.0

    def test_waits_five_seconds(self):
        assert REQUEST_TIMEOUT == 5.0

    @pytest.mark.parametrize("tls", [False, True], ids=["http", "https"])
    def test_each_connection_waits_request_timeout(self, monkeypatch, tls):
        # read at each connection, so it reaches a scorer built before
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        with MockLM(tls=server_tls() if tls else None) as lm:
            remote = RemoteScorer(lm.url)
            monkeypatch.setattr("amr2qa.scorer.REQUEST_TIMEOUT", 2.5)
            sock = remote._connect()
            try:
                assert sock.gettimeout() == 2.5
            finally:
                sock.close()

    def test_slow_reply_times_out(self, mock_server, monkeypatch):
        def slow(body):
            time.sleep(0.3)
            return 200, b'{"logprob": -1.0}'
        _Handler.behavior = staticmethod(slow)
        monkeypatch.setattr("amr2qa.scorer.REQUEST_TIMEOUT", 0.05)
        scorer = RemoteScorer(mock_server)
        with pytest.raises(ScorerUnavailable):
            scorer.score("What ?")

    @pytest.mark.parametrize("reply", [
        b"garbage\r\n\r\n",   # not a status line
        b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n"
        b'{"logprob": -1}',   # shorter than its Content-Length
    ], ids=["bad-status-line", "short-body"])
    def test_http_protocol_error(self, reply):
        with RawReplyServer(reply) as server:
            with pytest.raises(ScorerUnavailable):
                RemoteScorer(server.url).score("What ?")

    @pytest.mark.parametrize("url", ["ftp://x/score", "x/score", "http:///s",
                                     "http://127.0.0.1:port/score",
                                     "http://a b/score",
                                     "http://user:pw@127.0.0.1:9/score",
                                     "http://127.0.0.1:9/a b",
                                     "http://127.0.0.1:9/a\x00b",
                                     "http://127.0.0.1:9/a\x7fb",
                                     "http://127.0.0.1:9/a\r\nX-Injected: 1",
                                     "http://127.0.0.1:9/score?q=a b",
                                     "http://127.0.0.1:9/sc\u00f6re"])
    def test_only_http_and_https_urls(self, url):
        with pytest.raises(ValueError):
            make_scorer("remote", url)

    def test_proxy_for_the_url_scheme_is_warned_about(self, monkeypatch,
                                                       caplog):
        for name in ("http_proxy", "https_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("HTTPS_PROXY", "http://127.0.0.1:3128")
        RemoteScorer("http://127.0.0.1:9/score")
        assert caplog.records == []
        RemoteScorer("https://127.0.0.1:9/score")
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "https_proxy is set" in caplog.text


class TestHttp10:
    """What the scorer writes and reads on the wire: one HTTP/1.0 request,
    and a reply that ends at its Content-Length or at the end of the
    connection."""

    def score(self, reply, timeout=5.0, **server):
        with pytest.MonkeyPatch.context() as patch, \
                RawReplyServer(reply, **server) as raw:
            patch.setattr("amr2qa.scorer.REQUEST_TIMEOUT", timeout)
            return RemoteScorer(raw.url).score("What ?")

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b'11\r\n{"logprob": -1.5}\r\n0\r\n\r\n',
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: identity\r\n\r\n"
        b'{"logprob": -1.5}',
    ], ids=["chunked", "identity"])
    def test_transfer_encoding_is_refused(self, reply):
        # RFC 9112 §6.1: a server must not send it to an HTTP/1.0 request
        with pytest.raises(ScorerUnavailable, match="Transfer-Encoding"):
            self.score(reply)

    def test_reply_without_length_is_read_to_the_end(self):
        reply = b'HTTP/1.0 200 OK\r\nServer: x\r\n\r\n{"logprob": -1.5}'
        assert self.score(reply) == -1.5

    def test_reply_written_a_few_bytes_at_a_time(self):
        assert self.score(OK_REPLY, write_size=3) == -1.5

    def test_reply_read_to_its_length_when_the_server_holds_on(self):
        # the server closes only after the client does, so waiting for the
        # end of the connection would time out instead
        assert self.score(OK_REPLY, timeout=1.0, hold_open=True) == -1.5

    def test_timeout_in_the_middle_of_a_reply(self, no_leaked_sockets):
        with pytest.raises(ScorerUnavailable, match="timed out"):
            self.score(OK_REPLY[:-5], timeout=0.2, hold_open=True)

    def test_reply_head_over_64_kib(self):
        filler = b"X-Filler: " + b"y" * 1000 + b"\r\n"
        reply = OK_REPLY.replace(b"\r\n\r\n", b"\r\n" + filler * 66 + b"\r\n")
        with pytest.raises(ScorerUnavailable, match="reply head"):
            self.score(reply)
        # just under the cap is read
        reply = OK_REPLY.replace(b"\r\n\r\n", b"\r\n" + filler * 60 + b"\r\n")
        assert self.score(reply) == -1.5

    @pytest.mark.parametrize("length", [10**15, 10**30, -1],
                             ids=["1e15", "1e30", "negative"])
    def test_content_length_out_of_range(self, length):
        # read() would try to allocate the first, cannot take the second,
        # and reads to the end for the third
        reply = (b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % length
                 + b'{"logprob": -1.5}')
        with pytest.raises(ScorerUnavailable, match="Content-Length"):
            self.score(reply)

    @pytest.mark.parametrize("value", [b"+17", b"0_17", b"-0", b"", b"1 7",
                                       b"17.0", b"\xd9\xa1\xd9\xa7"])
    def test_content_length_not_digits(self, value):
        # RFC 9110 §8.6: 1*DIGIT; int() would take a sign or an underscore
        reply = OK_REPLY.replace(b"17", value, 1)
        with pytest.raises(ScorerUnavailable, match="Content-Length"):
            self.score(reply)

    def test_content_length_compared_as_a_number(self):
        reply = OK_REPLY.replace(b"Content-Length: 17",
                                 b"Content-Length:  17 \r\nContent-Length: 017")
        assert self.score(reply) == -1.5

    def test_differing_content_lengths_are_refused(self):
        # RFC 9112 §6.3: differing values are invalid framing
        reply = OK_REPLY.replace(b"Content-Length: 17",
                                 b"Content-Length: 3\r\nContent-Length: 17")
        with pytest.raises(ScorerUnavailable, match="Content-Length"):
            self.score(reply)

    def test_repeated_equal_content_length_is_read(self):
        reply = OK_REPLY.replace(b"Content-Length: 17",
                                 b"Content-Length: 17\r\nContent-Length: 17")
        assert self.score(reply) == -1.5

    def test_reply_without_length_over_64_kib(self):
        reply = b'HTTP/1.0 200 OK\r\n\r\n{"logprob": -1.5}' + b" " * 70_000
        with pytest.raises(ScorerUnavailable, match="reply over"):
            self.score(reply)

    @pytest.mark.parametrize("path, target", [
        ("/score", b"/score"), ("", b"/"), ("/s?q=1", b"/s?q=1")])
    def test_request_line_and_host(self, path, target):
        with RawReplyServer(OK_REPLY) as raw:
            RemoteScorer(raw.url.removesuffix("/score") + path).score("What ?")
        request_line, *headers = raw.heads[0]
        assert request_line == b"POST " + target + b" HTTP/1.0\r\n"
        fields = dict(line.rstrip(b"\r\n").split(b": ", 1) for line in headers)
        assert fields[b"Host"] == f"127.0.0.1:{raw.server_address[1]}".encode()
        assert fields[b"Content-Length"] == b"18"   # {"text": "What ?"}

    def test_ipv6_literal_round_trips(self):
        try:
            raw = RawReplyServer(OK_REPLY, host="::1")
        except OSError as exc:
            pytest.skip(f"cannot bind ::1: {exc}")
        with raw:
            url = f"http://[::1]:{raw.server_address[1]}/"
            assert RemoteScorer(url).score("What ?") == -1.5
        host = [line for line in raw.heads[0] if line.startswith(b"Host:")]
        assert host == [f"Host: [::1]:{raw.server_address[1]}\r\n".encode()]


class TestTls:
    """An https scorer verifies the server: the CA store it trusts comes
    from ``ssl.create_default_context()``, so ``SSL_CERT_FILE`` applies."""

    def test_trusted_certificate_scores(self, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        with MockLM(tls=server_tls()) as lm:
            assert lm.url.startswith("https://127.0.0.1:")
            assert RemoteScorer(lm.url).score("What ?") == -6.0

    def test_untrusted_certificate_is_unavailable(self, monkeypatch,
                                                  no_leaked_sockets):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        with MockLM(tls=server_tls()) as lm:
            with pytest.raises(ScorerUnavailable,
                               match="CERTIFICATE_VERIFY_FAILED"):
                RemoteScorer(lm.url).score("What ?")
            assert lm.requests == {}

    def test_hostname_that_does_not_match(self, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        try:   # the certificate names localhost and 127.0.0.1 only
            raw = RawReplyServer(OK_REPLY, host="127.0.0.2", tls=server_tls())
        except OSError as exc:
            pytest.skip(f"cannot bind 127.0.0.2: {exc}")
        with raw:
            with pytest.raises(ScorerUnavailable, match="mismatch"):
                RemoteScorer(raw.url).score("What ?")
        assert raw.heads == []


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
        return self.value


class TestBatchFallback:
    """The pipeline's per-sentence fallback and its circuit; each call
    scores a new text, so the memo never answers it."""

    def setup_method(self):
        self.texts = (f"What {n} ?" for n in itertools.count())

    def batches(self, scorer, count):
        return [scorer.score_all([next(self.texts)]) for _ in range(count)]

    def test_primary_used_when_healthy(self):
        scorer = BatchScorer(_StubScorer(value=-2.0, scorer_id="remote"),
                             workers=1)
        scorer_id, scores = self.batches(scorer, 1)[0]
        assert (scorer_id, *scores.values()) == ("remote", -2.0)
        assert scorer.fallbacks == 0

    def test_failure_falls_back_and_is_recorded(self):
        scorer = BatchScorer(_StubScorer(fail=True), workers=1)
        scorer_id, scores = self.batches(scorer, 1)[0]
        assert (scorer_id, len(scores)) == ("baseline", 1)
        assert scorer.fallbacks == 1

    def test_circuit_opens_after_consecutive_failures(self):
        primary = _StubScorer(fail=True)
        scorer = BatchScorer(primary, workers=1)
        self.batches(scorer, 10)
        assert scorer.circuit_open
        assert primary.calls == 3
        assert scorer.fallbacks == 10

    def test_circuit_closed_until_max_failures(self):
        primary = _StubScorer(fail=True)
        scorer = BatchScorer(primary, workers=1)
        self.batches(scorer, MAX_FAILURES - 1)
        assert not scorer.circuit_open
        self.batches(scorer, 1)
        assert scorer.circuit_open
        assert primary.calls == MAX_FAILURES

    def test_success_resets_failure_streak(self):
        primary = _StubScorer(scorer_id="remote")
        scorer = BatchScorer(primary, workers=1)
        for _ in range(2):
            for fail in (True, False, True):
                primary.fail = fail
                self.batches(scorer, 1)
        assert not scorer.circuit_open
        assert primary.calls == 6

    def test_failed_request_ends_the_batch(self):
        primary = _StubScorer(fail=True)
        scorer = BatchScorer(primary, workers=1)
        scorer_id, _ = scorer.score_all(["What ?", "Who ?", "What ?"])
        assert primary.calls == 1
        assert scorer_id == "baseline"
        assert scorer.fallbacks == 2   # distinct texts


class TestMakeScorer:
    def test_baseline(self):
        assert isinstance(make_scorer("baseline"), BaselineScorer)

    def test_remote_is_the_bare_client(self):
        # the pipeline owns the fallback, so each request is one score call
        scorer = make_scorer("remote", url="http://127.0.0.1:1/score")
        assert type(scorer) is RemoteScorer

    def test_scorer_id_matches_its_own_scores(self, mock_server):
        for scorer in (make_scorer("baseline"),
                       make_scorer("remote", url=mock_server)):
            batch = BatchScorer(scorer, workers=1)
            scorer_id, _ = batch.score_all(["What ?"])
            assert scorer_id == scorer.scorer_id

    def test_remote_requires_url(self):
        with pytest.raises(ValueError):
            make_scorer("remote")
        for url in (None, ""):
            with pytest.raises(ValueError, match="requires a scorer URL"):
                RemoteScorer(url)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scorer("quantum")

    def test_non_string_kind(self):
        for kind in (["baseline"], {"remote": "x"}, None, 1):
            with pytest.raises(ValueError):
                make_scorer(kind)

    @pytest.mark.parametrize("url", [
        5, 1.5, b"http://127.0.0.1:1/score", ["http://127.0.0.1:1/score"]],
        ids=["int", "float", "bytes", "list"])
    def test_non_string_url(self, url):
        with pytest.raises(ValueError, match="must be a string"):
            make_scorer("remote", url)

    def test_takes_a_kind_and_a_url_only(self):
        # how long a request waits is REQUEST_TIMEOUT, not a setting
        assert list(inspect.signature(make_scorer).parameters) == [
            "kind", "url"]
        with pytest.raises(TypeError):
            make_scorer("remote", "http://127.0.0.1:1/score", 0.5)
