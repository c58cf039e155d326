"""Fluency scoring for candidate questions.

Two scorers share one contract (``score(text) -> float``): a bundled
add-one smoothed bigram baseline, ``BaselineScorer``, which builds its
log-probability tables from its corpus text at construction, and an HTTP
client for an external language model, ``RemoteScorer``. A scorer's
``scorer_id`` attribute names the scale of its scores. The pipeline scores
each sentence as one batch and, when a remote request fails, rescores that
whole sentence with the baseline (``pipeline.BatchScorer``), so a remote
failure degrades a run instead of aborting it.

Scores are length-normalized (mean per-token log-probability) so candidates
of different lengths compare fairly. The baseline pads each corpus line
with boundary markers when it counts; scoring does not pad, and one-word
questions fall back to the smoothed unigram log-probability.
"""

from __future__ import annotations

import io
import math
import re
from pathlib import Path

from . import warn

BOS = "<s>"
EOS = "</s>"
ADD_K = 1.0            # add-one smoothing of the bigram baseline
MAX_REPLY = 65536      # bytes of status line, headers and body a reply may use
REQUEST_TIMEOUT = 5.0  # seconds to connect, and for each read or write
_STATUS_LINE = re.compile(rb"HTTP/\d\.\d (\d{3})\b")


class ScorerUnavailable(RuntimeError):
    """The external scoring service could not produce a score."""


class EmptyCorpus(ValueError):
    pass


def bundled_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "fluency_corpus.txt"


class BaselineScorer:
    """Add-one smoothed bigram log-probabilities over ``text``, one sentence
    per line, tokens split on whitespace. Each line is padded with ``BOS``
    and ``EOS``; every table is computed from the counts at construction and
    read-only after it."""

    scorer_id = "baseline"

    def __init__(self, text: str):
        counts: dict[tuple[str, str], int] = {}
        for line in text.splitlines():
            tokens = line.split()
            if tokens:
                padded = [BOS, *tokens, EOS]
                for gram in zip(padded, padded[1:]):
                    counts[gram] = counts.get(gram, 0) + 1
        if not counts:
            raise EmptyCorpus("no tokens in corpus")
        context_counts: dict[str, int] = {}
        vocab: set[str] = set()
        for gram, count in counts.items():
            context_counts[gram[0]] = context_counts.get(gram[0], 0) + count
            vocab.update(gram)
        k = ADD_K
        smoothing = k * len(vocab)
        # log P(b | a) for each seen bigram, for an unseen b after each
        # seen a, and for any b after an unseen a
        self._bigrams = {
            gram: math.log((count + k) / (context_counts[gram[0]] + smoothing))
            for gram, count in counts.items()}
        self._unseen_after = {token: math.log(k / (count + smoothing))
                              for token, count in context_counts.items()}
        self._unseen_context = math.log(k / smoothing)
        total = sum(counts.values())
        self._unigrams = {token: math.log((count + k) / (total + smoothing))
                          for token, count in context_counts.items()}
        self._unseen_unigram = math.log(k / (total + smoothing))

    @classmethod
    def bundled(cls) -> "BaselineScorer":
        return cls(bundled_corpus_path().read_text(encoding="utf-8"))

    def score(self, question: str) -> float:
        """Mean per-token log-probability, without boundary padding. A
        one-word question scores as its smoothed unigram log-prob."""
        tokens = question.split()
        if not tokens:
            raise ValueError("cannot score an empty question")
        if len(tokens) == 1:
            return self._unigrams.get(tokens[0], self._unseen_unigram)
        # a running total: sum() of floats rounds differently since 3.12
        total = 0.0
        for gram in zip(tokens, tokens[1:]):
            value = self._bigrams.get(gram)
            if value is None:
                value = self._unseen_after.get(gram[0], self._unseen_context)
            total += value
        return total / (len(tokens) - 1)


class RemoteScorer:
    """POSTs ``{"text": <question>}`` and reads ``{"logprob": <number>}``.

    One call is one HTTP/1.0 request on a new connection, which it asks the
    server to close, under ``REQUEST_TIMEOUT``. It connects with ``_socket``
    and a ``bytes`` host: ``socket`` loads only with ``ssl``, for ``https``,
    and the IDNA codec only for a non-ASCII host. ``json`` loads when the
    scorer is built.
    Timeouts, connection and protocol errors, non-2xx statuses, malformed
    replies and non-finite logprobs all surface as ScorerUnavailable.
    """

    scorer_id = "remote"

    def __init__(self, url: str | None):
        import json
        import os
        from urllib.parse import urlsplit

        if not url:
            raise ValueError("remote scorer requires a scorer URL")
        if not isinstance(url, str):
            raise ValueError(f"scorer URL must be a string, got {url!r}")
        parts = urlsplit(url)
        default_port = {"http": 80, "https": 443}.get(parts.scheme)
        if default_port is None or not parts.hostname:
            raise ValueError(f"remote scorer needs an http(s) URL: {url!r}")
        if parts.username is not None:
            raise ValueError("remote scorer URL must not carry a user name")
        # urlsplit drops tabs and line breaks, so check the URL as given
        if any(c <= " " or c == "\x7f" for c in url):
            raise ValueError(f"space or control character in URL: {url!r}")
        # the port goes apart from the host, so an IPv6 host is not split;
        # the host is resolved as bytes, so an ASCII one loads no IDNA codec
        self._hostname = name = parts.hostname
        self._address = (name.encode("ascii" if name.isascii() else "idna"),
                         default_port if parts.port is None else parts.port)
        self._tls = None
        if parts.scheme == "https":   # one TLS context for every connection
            import ssl

            self._tls = ssl.create_default_context()
        host = parts.netloc if parts.netloc.isascii() else (
            parts.netloc.encode("idna").decode())
        target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        self._head = (f"POST {target} HTTP/1.0\r\nHost: {host}\r\n"
                      "Content-Type: application/json\r\n"
                      "Connection: close\r\nContent-Length: ").encode("ascii")
        self._dumps, self._loads = json.dumps, json.loads
        proxy = f"{parts.scheme}_proxy"
        if os.environ.get(proxy) or os.environ.get(proxy.upper()):
            warn("%s is set, but the remote scorer does not use a proxy: "
                 "it connects to %s directly", proxy, parts.hostname)

    def _connect(self):
        # addresses in order, as socket.create_connection tries them, through
        # _socket: socket's enum tables cost about 0.5 MiB of peak RSS
        import _socket

        found = _socket.getaddrinfo(*self._address, 0, _socket.SOCK_STREAM)
        if not found:
            raise OSError("getaddrinfo returns an empty list")
        for tried, (family, kind, proto, _, address) in enumerate(found, 1):
            sock = None
            try:
                sock = _socket.socket(family, kind, proto)
                sock.settimeout(REQUEST_TIMEOUT)
                sock.connect(address)
                break
            except OSError:
                if sock is not None:
                    sock.close()
                if tried == len(found):
                    raise
        if self._tls is None:
            return sock
        import socket   # ssl has loaded it

        sock = socket.socket(family, kind, proto, fileno=sock.detach())
        sock.settimeout(REQUEST_TIMEOUT)   # a new socket object blocks
        with sock:   # a failed handshake closes it; a wrapped one is detached
            return self._tls.wrap_socket(sock, server_hostname=self._hostname)

    def score(self, question: str) -> float:
        payload = self._dumps({"text": question}).encode("utf-8")
        try:
            sock = self._connect()
            try:
                sock.sendall(self._head + b"%d\r\n\r\n" % len(payload) + payload)
                body = _read_reply(io.BufferedReader(_Received(sock)))
            finally:
                sock.close()
        except (OSError, ValueError) as exc:
            raise ScorerUnavailable(str(exc)) from exc
        # ValueError covers bad UTF-8, bad JSON and an integer longer than
        # the int() digit limit
        try:
            decoded = self._loads(body.decode("utf-8"))
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
        return logprob


class _Received(io.RawIOBase):
    """What ``sock`` receives, as a raw binary file: a ``_socket`` socket
    has no ``makefile``."""

    def __init__(self, sock):
        self.readinto = sock.recv_into

    def readable(self) -> bool:
        return True


def _read_reply(reply) -> bytes:
    """The body of the 2xx reply read from the binary file ``reply``. A
    reply to HTTP/1.0 has no ``Transfer-Encoding`` (RFC 9112 §6.1), so it
    ends at its ``Content-Length`` or else when the server closes (§6.3);
    a ``Content-Length`` that is not ASCII digits, or differing values,
    are refused.
    Head and body together may use ``MAX_REPLY`` bytes."""
    budget = MAX_REPLY
    lines = []
    while (line := reply.readline(budget + 1)) not in (b"\r\n", b"\n", b""):
        budget -= len(line)
        if budget < 0:
            raise ScorerUnavailable(f"reply head over {MAX_REPLY} bytes")
        lines.append(line)
    status = _STATUS_LINE.match(lines[0]) if lines else None
    if status is None or not 200 <= int(status[1]) < 300:
        raise ScorerUnavailable(f"status line {lines[:1]}")
    fields = [(name.strip().lower(), value) for name, _, value in
              (line.partition(b":") for line in lines[1:])]
    if any(name == b"transfer-encoding" for name, _ in fields):
        raise ScorerUnavailable("Transfer-Encoding in a reply to HTTP/1.0")
    values = [value.strip() for name, value in fields
              if name == b"content-length"]
    if not all(map(bytes.isdigit, values)):   # 1*DIGIT (RFC 9110 §8.6)
        raise ScorerUnavailable(f"Content-Length {values} is not digits")
    lengths = set(map(int, values))
    if not lengths:   # read to the end, within budget
        body = reply.read(budget + 1)
        if len(body) > budget:
            raise ScorerUnavailable(f"reply over {MAX_REPLY} bytes")
        return body
    if len(lengths) > 1:   # invalid framing (§6.3)
        raise ScorerUnavailable(f"differing Content-Length {sorted(lengths)}")
    length, = lengths
    if length > budget:   # read() would allocate it up front
        raise ScorerUnavailable(f"Content-Length {length} out of range")
    body = reply.read(length)
    if len(body) < length:
        raise ScorerUnavailable(f"{len(body)} of {length} body bytes")
    return body


# --scorer value -> factory(url)
SCORERS = {"baseline": lambda url: BaselineScorer.bundled(),
           "remote": RemoteScorer}


def make_scorer(kind: str, url: str | None = None):
    """Scorer factory used by the pipeline. An unknown or non-string kind,
    or a remote scorer without an http(s) URL, raises ValueError before any
    file is read. The pipeline, not the scorer, falls back to the bundled
    baseline when a remote request fails."""
    factory = SCORERS.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise ValueError(f"unknown scorer {kind!r}")
    return factory(url)
