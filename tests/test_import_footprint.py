"""The baseline and remote paths load only the modules they use.

Each check runs its work in a bare child interpreter (``helpers.run_bare``)
that prints ``sys.modules`` once the work is done.
"""

import re

import pytest
from helpers import FIXTURES, TLS_CERT, MockLM, run_bare, server_tls

# dataclasses and what it loads to generate methods: inspect, which pulls
# in ast and dis. The record types are named tuples and plain classes,
# which need none of it; loading it cost about 1 MiB of peak RSS and a
# fifth of the package's import time.
NO_CLASS_GENERATION = ("dataclasses", "inspect", "ast", "dis")

# the HTTP clients the remote scorer no longer uses and what they pull in,
# the exact numeric types stats no longer uses (its averages are rounded
# in integers), the remote scorer's request pool, the resource reader the
# bundled data no longer goes through, and hashlib with its OpenSSL module
# (template ids are hashed with the built-in SHA-1), logging and what it
# pulls in, which load only with a first warning, and the json package,
# which loads only to parse a config file, a dataset or a remote scorer's
# reply (dataset lines are quoted with _json, which may load), and
# argparse: the CLI reads its flags with getopt
NOT_ON_BASELINE_PATH = (
    "urllib.request", "http.client", "ssl", "email", "calendar", "decimal",
    "fractions", "concurrent.futures", "importlib.resources", "hashlib",
    "_hashlib", "logging", "traceback", "linecache", "tokenize", "string",
    "json", "json.decoder", "json.scanner", "argparse",
) + NO_CLASS_GENERATION

# the remote scorer speaks HTTP/1.0 over a socket: none of the standard
# HTTP clients, and OpenSSL only for https. It connects with _socket, so
# socket (and selectors, which socket imports) loads only with ssl, and it
# resolves an ASCII host as bytes, which loads no IDNA codec and none of
# the nameprep tables that codec pulls in. It loads logging (and what
# logging pulls in) only to warn that a proxy variable is set
NOT_ON_HTTP_PATH = ("http.client", "email", "ssl", "_ssl", "urllib.request",
                    "hashlib", "_hashlib", "socket", "selectors",
                    "encodings.idna", "stringprep", "unicodedata",
                    "logging", "traceback", "linecache",
                    "tokenize") + NO_CLASS_GENERATION

SETUP = """
from amr2qa.scorer import make_scorer
from amr2qa.templates import bundled_mapping_path, bundled_template_path, load_store
load_store(bundled_template_path(), bundled_mapping_path())
scorer = make_scorer({scorer_args})
"""

MINI_DATASET = FIXTURES / "corpus" / "mini_dataset.jsonl"

GENERATE = """
from amr2qa.cli import main
code = main(["generate", "--amr", {amr!r}, "--conllu", {conllu!r},
             "--out", {out!r}, "--workers", {workers!r}])
assert code == 0, code
"""


def loaded_after(code: str) -> set[str]:
    return set(run_loaded(code).stdout.split())


def run_loaded(code: str):
    """The bare child that ran ``code`` and then printed ``sys.modules``."""
    return run_bare(code + "\nimport sys\nprint('\\n'.join(sys.modules))\n")


def test_baseline_set_up_loads_none_of_them():
    loaded = loaded_after(SETUP.format(scorer_args='"baseline"'))
    assert loaded.isdisjoint(NOT_ON_BASELINE_PATH), \
        sorted(loaded.intersection(NOT_ON_BASELINE_PATH))


def generate_loads(tmp_path, workers: str) -> set[str]:
    loaded = loaded_after(GENERATE.format(
        amr=str(FIXTURES / "corpus" / "mini.amr"),
        conllu=str(FIXTURES / "corpus" / "mini.conllu"),
        out=str(tmp_path / "out.jsonl"), workers=workers))
    assert (tmp_path / "out.jsonl").stat().st_size > 0
    return loaded


def test_one_worker_generate_loads_none_of_them(tmp_path):
    loaded = generate_loads(tmp_path, "1")
    assert loaded.isdisjoint(NOT_ON_BASELINE_PATH), \
        sorted(loaded.intersection(NOT_ON_BASELINE_PATH))


def test_four_worker_baseline_generate_loads_none_of_them(tmp_path):
    # workers only bound the remote scorer's requests; a baseline run
    # makes no thread pool
    loaded = generate_loads(tmp_path, "4")
    assert loaded.isdisjoint(NOT_ON_BASELINE_PATH), \
        sorted(loaded.intersection(NOT_ON_BASELINE_PATH))


# the run report of mini.amr, whatever is appended that fails, but for the
# wall time line
MINI_REPORT = [
    "sentences processed   3",
    "sentences failed      1",
    "questions emitted     9",
    "  sense questions     3",
    "non-root nodes        6",
    "  skipped no-template 0",
    "  skipped duplicate   0",
    "scorer fallbacks      0",
    "scorer memo hits      0",
]


def test_a_skipped_sentence_loads_logging_and_warns_on_stderr(tmp_path):
    # no logging is configured: the warning reaches stderr as its bare
    # message, through the last-resort handler
    corpus = FIXTURES / "corpus"
    amr, conllu = tmp_path / "bad.amr", tmp_path / "bad.conllu"
    amr.write_text((corpus / "mini.amr").read_text()
                   + "\n# ::id bad.1\n# ::snt Broken .\n(x / oops\n")
    annotations = (corpus / "mini.conllu").read_text()
    conllu.write_text(annotations + "\n" + annotations.split("\n\n")[0]
                      + "\n\n")
    child = run_loaded(GENERATE.format(
        amr=str(amr), conllu=str(conllu), out=str(tmp_path / "out.jsonl"),
        workers="1"))
    assert "logging" in child.stdout.split()
    warning, *report, wall_time = child.stderr.splitlines()
    assert warning == ("skipped: sentence 'bad.1': unclosed '(' "
                       "(at offset 40) (block 4)")
    assert report == MINI_REPORT
    assert re.fullmatch(r"wall time             \d+\.\d\ds", wall_time)
    assert (tmp_path / "out.jsonl").read_bytes() == \
        (corpus / "mini_golden.jsonl").read_bytes()


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["table", "json"])
def test_stats_loads_no_exact_numeric_types(flags):
    loaded = loaded_after(
        "from amr2qa.cli import main\n"
        f"assert main(['stats', *{flags!r}, {str(MINI_DATASET)!r}]) == 0\n")
    exact = {"fractions", "decimal", "_decimal", "numbers"}
    assert loaded.isdisjoint(exact), sorted(loaded.intersection(exact))


def remote_scorer_loads(url: str) -> set[str]:
    """What is loaded after set-up with a remote scorer at ``url`` and one
    scored request."""
    return loaded_after(SETUP.format(scorer_args=f'"remote", {url!r}')
                        + 'assert scorer.score("What ?") == -6.0')


def test_http_scorer_loads_no_http_client_and_no_ssl(monkeypatch):
    for name in ("http_proxy", "https_proxy"):   # no proxy warning to log
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    with MockLM() as lm:
        loaded = remote_scorer_loads(lm.url)
    assert loaded.isdisjoint(NOT_ON_HTTP_PATH), \
        sorted(loaded.intersection(NOT_ON_HTTP_PATH))


def test_https_scorer_loads_ssl_but_no_http_client(monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    with MockLM(tls=server_tls()) as lm:
        loaded = remote_scorer_loads(lm.url)
    assert "ssl" in loaded
    assert loaded.isdisjoint({"http.client", "email"}), \
        sorted(loaded.intersection({"http.client", "email"}))
