"""Shared fixture loading, fuzz-input generation and a mock language-model
endpoint for the test suite."""

import gc
import json
import os
import pathlib
import random
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import amr2qa
from amr2qa.annotate import SentenceAnnotation, Token
from amr2qa.templates import (
    bundled_mapping_path,
    bundled_template_path,
    load_store,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TLS_CERT = FIXTURES / "tls" / "cert.pem"   # self-signed: localhost, 127.0.0.1
SRC = str(pathlib.Path(amr2qa.__file__).resolve().parent.parent)


def run_bare(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a child interpreter started with ``-S``, so no
    ``site`` ``.pth`` file imports anything first, and with ``PYTHONPATH``
    set to the directory that holds the imported ``amr2qa`` package.
    Return the finished child, which exited 0, with its stdout and stderr
    as text."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result


def server_tls() -> ssl.SSLContext:
    """A server-side TLS context that presents ``TLS_CERT``."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_CERT, FIXTURES / "tls" / "key.pem")
    return context


@contextmanager
def no_cyclic_garbage():
    """Assert that the block leaves nothing that only the cyclic garbage
    collector can free: collect first, run the block with the collector
    off, then expect ``gc.collect()`` to find nothing unreachable."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


def default_store():
    """The store built from the bundled template pack and role mapping."""
    return load_store(bundled_template_path(), bundled_mapping_path())


def random_tree_heads(rng: random.Random, n: int) -> list[int]:
    """Random valid dependency heads for tokens 1..n: exactly one root,
    acyclic, arbitrary (possibly non-projective) shape. Entry i-1 is the
    head of token i."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    for position, index in enumerate(order):
        heads[index] = 0 if position == 0 else order[rng.randrange(position)]
    return heads[1:]


def annotation_from_heads(heads: list[int], sentence_id: str = "x") -> SentenceAnnotation:
    tokens = [Token(surface=f"w{i}", lemma=f"w{i}", upos="NOUN", xpos="NN",
                    feats="_", head=head)
              for i, head in enumerate(heads, start=1)]
    return SentenceAnnotation(sentence_id, tokens)

# characters weighted toward PENMAN structure so random strings hit the
# parser's interesting paths instead of failing at the first byte
_FUZZ_POOL = '(((())))//::  ""~~##\n\tabgzABG0159-+._eo'


def load_penman_corpus() -> list[str]:
    """Graphs from the round-trip corpus, one string per blank-line block."""
    text = (FIXTURES / "penman_corpus.txt").read_text(encoding="utf-8")
    blocks = [b.strip() for b in text.split("\n\n")]
    return [b for b in blocks if b]


_CONCEPTS = ["run-02", "see-01", "dog", "cat", "person", "city", "go-02",
             "want-01", "book", "give-01", "happy", "green", "house", "war-01"]
_RELATIONS = ["ARG0", "ARG1", "ARG2", "time", "location", "mod", "manner",
              "poss", "ARG0-of", "ARG1-of", "instrument", "topic", "source"]
_IGNORED = ["polarity", "wiki", "mode", "polite"]
_NAMES = ["Alice", "Tesla", "Berlin", "Rio", "Omaha", "Nikola"]


def random_amr_text(rng: random.Random, max_nodes: int = 14) -> str:
    """Build a random but well-formed PENMAN string: mixed concepts, entity
    subgraphs, name/op constants, ignored relations and reentrancy."""
    counter = [0]
    defined: list[str] = []

    def fresh_var() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def build(depth: int) -> str:
        var = fresh_var()
        defined.append(var)
        kind = rng.randrange(10)
        if kind == 0 and depth > 0:
            unit = fresh_var()
            defined.append(unit)
            return (f"({var} / temporal-quantity :quant {rng.randrange(1, 9)}"
                    f" :unit ({unit} / year))")
        if kind == 1 and depth > 0:
            return (f"({var} / date-entity :month {rng.randrange(1, 13)}"
                    f" :year {rng.randrange(1990, 2024)})")
        parts = [f"({var} / {rng.choice(_CONCEPTS)}"]
        if kind == 2:
            name_var = fresh_var()
            defined.append(name_var)
            ops = " ".join(f':op{i + 1} "{rng.choice(_NAMES)}"'
                           for i in range(rng.randrange(1, 3)))
            parts.append(f" :name ({name_var} / name {ops})")
        n_children = rng.randrange(0, 3 if depth < 3 and counter[0] < max_nodes else 1)
        for _ in range(n_children):
            rel = rng.choice(_RELATIONS)
            roll = rng.randrange(8)
            if roll == 0 and len(defined) > 1:
                parts.append(f" :{rel} {rng.choice(defined)}")
            elif roll == 1:
                parts.append(f" :{rel} {rng.randrange(1, 100)}")
            else:
                parts.append(f" :{rel} {build(depth + 1)}")
        if rng.randrange(4) == 0:
            ignored = rng.choice(_IGNORED)
            if ignored == "polarity":
                parts.append(" :polarity -")
            elif ignored == "wiki":
                parts.append(' :wiki "Q42"')
            elif ignored == "mode":
                parts.append(" :mode imperative")
            else:
                parts.append(f" :polite {build(depth + 1)}")
        parts.append(")")
        return "".join(parts)

    return build(0)


def random_promotion_amr_text(rng: random.Random, max_nodes: int = 12) -> str:
    """Build a well-formed PENMAN string whose ignored-relation subtrees,
    nested ones among them, define variables that other positions refer to,
    before and after the definition, so preprocessing has to promote
    definitions out of dropped subtrees. References are drawn once the whole
    tree exists, so any variable can be referenced anywhere; most name a
    variable defined under an ignored edge."""
    variables: list[str] = []
    dropped: list[str] = []

    def build(depth: int, under_ignored: bool) -> str:
        var = f"v{len(variables) + 1}"
        variables.append(var)
        if under_ignored:
            dropped.append(var)
        parts = [f"({var} / {rng.choice(_CONCEPTS)}"]
        room = depth < 4 and len(variables) < max_nodes
        for _ in range(rng.randrange(1, 4) if room else rng.randrange(2)):
            ignored = rng.randrange(3) == 0
            rel = rng.choice(_IGNORED if ignored else _RELATIONS)
            if rng.randrange(3) == 0 or len(variables) >= max_nodes:
                parts.append(f" :{rel} {{}}")   # a reference, drawn below
            else:
                parts.append(f" :{rel} {build(depth + 1, under_ignored or ignored)}")
        parts.append(")")
        return "".join(parts)

    text = build(0, False)
    return text.format(*(rng.choice(dropped if dropped and rng.randrange(4)
                                    else variables)
                         for _ in range(text.count("{}"))))


def fuzz_strings(count: int, seed: int = 7):
    """Yield `count` adversarial parser inputs, deterministically.

    Half are random character soup, half are single-character mutations of
    valid corpus graphs (the latter exercise deep error paths).
    """
    rng = random.Random(seed)
    corpus = load_penman_corpus()
    for i in range(count):
        if i % 2 == 0:
            length = rng.randrange(0, 120)
            yield "".join(rng.choice(_FUZZ_POOL) for _ in range(length))
        else:
            text = rng.choice(corpus)
            pos = rng.randrange(0, len(text))
            op = rng.randrange(3)
            ch = rng.choice(_FUZZ_POOL)
            if op == 0:
                yield text[:pos] + ch + text[pos:]
            elif op == 1:
                yield text[:pos] + text[pos + 1:]
            else:
                yield text[:pos] + ch + text[pos + 1:]


class _MockLMHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        lm = self.server
        text = json.loads(self.rfile.read(
            int(self.headers["Content-Length"])))["text"]
        with lm.lock:
            lm.requests[text] += 1
            lm.open += 1
            lm.peak = max(lm.peak, lm.open)
        lm.gate.wait(timeout=10)
        with lm.lock:
            lm.open -= 1
        if text in lm.fail_on:
            status, payload = 500, b"down"
        else:
            status = 200
            payload = json.dumps({"logprob": -float(len(text))}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _ServedInThread:
    """Mixin for a socketserver served from its own thread. Use it as a
    context manager: leaving stops the server, waits for its request
    threads and closes its socket. Given an ``ssl.SSLContext`` as ``tls``,
    it serves HTTPS; handshakes run in the serving thread, on accept."""

    daemon_threads = False   # so server_close joins the request threads

    def _start_thread(self, tls=None):
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        host, port = self.server_address[:2]
        host = f"[{host}]" if ":" in host else host
        self.url = f"{'http' if tls is None else 'https'}://{host}:{port}/score"
        # a short poll, so leaving does not wait out the default 0.5 s
        self._thread = threading.Thread(target=self.serve_forever,
                                        args=(0.01,))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self._thread.join()
        self.server_close()


class MockLM(_ServedInThread, ThreadingHTTPServer):
    """A local language-model endpoint for the remote scorer, one thread
    per request. It scores a text ``-len(text)``, below the baseline's
    score for questions of ordinary length, answers status 500 for the texts in
    ``fail_on``, and holds every request while ``gate`` is clear
    (``held=True``). ``open`` is the number of requests it holds now and
    ``peak`` the most at once; ``requests`` counts them by text. Leaving
    it as a context manager also opens the gate."""

    def __init__(self, fail_on=(), held=False, tls=None):
        super().__init__(("127.0.0.1", 0), _MockLMHandler)
        self.fail_on = set(fail_on)
        self.gate = threading.Event()
        if not held:
            self.gate.set()
        self.lock = threading.Lock()
        self.open = self.peak = 0
        self.requests = Counter()
        self._start_thread(tls)

    def __exit__(self, *exc):
        self.gate.set()
        super().__exit__(*exc)


class _RawReplyHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True   # so each small write goes out alone

    def handle(self):
        server = self.server
        head = []
        for line in self.rfile:   # the request line, then headers
            if not line.strip():
                break
            head.append(line)
        server.heads.append(head)
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        step = server.write_size or len(server.reply) or 1
        try:
            for start in range(0, len(server.reply), step):
                if start:
                    time.sleep(0.001)
                self.wfile.write(server.reply[start:start + step])
        except OSError:   # the client gave up on the reply
            return
        if server.hold_open:   # until the client closes its end, or 10 s
            self.request.settimeout(10)
            try:
                self.rfile.read()
            except TimeoutError:
                pass


class RawReplyServer(_ServedInThread, socketserver.ThreadingTCPServer):
    """Answers the first request on each connection with the bytes
    ``reply``, whatever they are, and closes the connection.

    ``host`` is the address it binds (``"::1"`` binds IPv6). With
    ``write_size`` it writes the reply that many bytes at a time, with a
    short pause between writes. With ``hold_open`` it keeps the
    connection open after the reply until the client closes it.
    ``heads`` lists each request's request line and header lines, as
    received."""

    def __init__(self, reply: bytes, host="127.0.0.1", write_size=None,
                 hold_open=False, tls=None):
        self.address_family = socket.AF_INET6 if ":" in host else socket.AF_INET
        super().__init__((host, 0), _RawReplyHandler)
        self.reply = reply
        self.write_size = write_size
        self.hold_open = hold_open
        self.heads = []
        self._start_thread(tls)
