"""The baseline path loads only the modules it uses.

Each check runs its work in a bare child interpreter (``helpers.run_bare``)
that prints ``sys.modules`` once the work is done.
"""

from helpers import FIXTURES, run_bare

# the remote scorer's HTTP client and what it pulls in, the urllib client
# it replaced, the stats-only numeric types, the remote scorer's request
# pool, the resource reader the bundled data no longer goes through, and
# hashlib with its OpenSSL module (template ids are hashed with the
# built-in SHA-1)
NOT_ON_BASELINE_PATH = (
    "urllib.request", "http.client", "ssl", "email", "calendar", "decimal",
    "fractions", "concurrent.futures", "importlib.resources", "hashlib",
    "_hashlib",
)

SETUP = """
from amr2qa.scorer import make_scorer
from amr2qa.templates import bundled_mapping_path, bundled_template_path, load_store
load_store(bundled_template_path(), bundled_mapping_path())
make_scorer({scorer_args})
"""

GENERATE = """
from amr2qa.cli import main
code = main(["generate", "--amr", {amr!r}, "--conllu", {conllu!r},
             "--out", {out!r}, "--workers", {workers!r}])
assert code == 0, code
"""


def loaded_after(code: str) -> set[str]:
    script = code + "\nimport sys\nprint('\\n'.join(sys.modules))\n"
    return set(run_bare(script).split())


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


def test_remote_scorer_loads_the_http_client_when_built():
    # building the scorer opens no connection, so the port need not listen
    loaded = loaded_after(SETUP.format(
        scorer_args='"remote", "http://127.0.0.1:9/score"'))
    assert "http.client" in loaded
    # urllib.request would bring hashlib, tempfile, shutil and the
    # compression modules, none of which a scorer uses
    assert loaded.isdisjoint({"urllib.request", "hashlib", "_hashlib"}), \
        sorted(loaded.intersection({"urllib.request", "hashlib", "_hashlib"}))
