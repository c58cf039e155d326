"""Shared fixture loading, fuzz-input generation and a mock language-model
endpoint for the test suite."""

import json
import os
import pathlib
import random
import subprocess
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import amr2qa
from amr2qa.annotate import SentenceAnnotation, Token

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = str(pathlib.Path(amr2qa.__file__).resolve().parent.parent)


def run_bare(script: str) -> str:
    """Run ``script`` in a child interpreter started with ``-S``, so no
    ``site`` ``.pth`` file imports anything first, and with ``PYTHONPATH``
    set to the directory that holds the imported ``amr2qa`` package.
    Return the child's stdout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


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
    tokens = [Token(index=i, surface=f"w{i}", lemma=f"w{i}", upos="NOUN",
                    xpos="NN", feats={}, head=head, deprel="dep")
              for i, head in enumerate(heads, start=1)]
    return SentenceAnnotation(sentence_id, " ".join(t.surface for t in tokens), tokens)

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


class MockLM(ThreadingHTTPServer):
    """A local language-model endpoint for the remote scorer, one thread
    per request. It scores a text ``-len(text)``, below the baseline's
    score for questions of ordinary length, answers status 500 for the texts in
    ``fail_on``, and holds every request while ``gate`` is clear
    (``held=True``). ``open`` is the number of requests it holds now and
    ``peak`` the most at once; ``requests`` counts them by text. Use it as
    a context manager: leaving opens the gate, stops the server, waits for
    its request threads and closes its socket."""

    daemon_threads = False   # so server_close joins the request threads

    def __init__(self, fail_on=(), held=False):
        super().__init__(("127.0.0.1", 0), _MockLMHandler)
        self.fail_on = set(fail_on)
        self.gate = threading.Event()
        if not held:
            self.gate.set()
        self.lock = threading.Lock()
        self.open = self.peak = 0
        self.requests = Counter()
        self.url = f"http://127.0.0.1:{self.server_port}/score"
        self._thread = threading.Thread(target=self.serve_forever)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.gate.set()
        self.shutdown()
        self._thread.join()
        self.server_close()
