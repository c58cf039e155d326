"""The baseline path loads only the modules it uses.

Each check runs a child interpreter with ``-S``, so no ``site`` ``.pth``
file imports anything first, and with ``PYTHONPATH`` set to the directory
that holds the imported ``amr2qa`` package. The child prints
``sys.modules`` once its work is done.
"""

import os
import subprocess
import sys
from pathlib import Path

import amr2qa
from helpers import FIXTURES

SRC = str(Path(amr2qa.__file__).resolve().parent.parent)

# the remote scorer's HTTP client and what it pulls in, the stats-only
# numeric types, the thread pool, and the resource reader the bundled data
# no longer goes through
NOT_ON_BASELINE_PATH = (
    "urllib.request", "http.client", "ssl", "email", "calendar", "decimal",
    "fractions", "concurrent.futures", "importlib.resources",
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
             "--out", {out!r}, "--workers", "1"])
assert code == 0, code
"""


def loaded_after(code: str) -> set[str]:
    script = code + "\nimport sys\nprint('\\n'.join(sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_baseline_set_up_loads_none_of_them():
    loaded = loaded_after(SETUP.format(scorer_args='"baseline"'))
    assert loaded.isdisjoint(NOT_ON_BASELINE_PATH), \
        sorted(loaded.intersection(NOT_ON_BASELINE_PATH))


def test_one_worker_generate_loads_none_of_them(tmp_path):
    loaded = loaded_after(GENERATE.format(
        amr=str(FIXTURES / "corpus" / "mini.amr"),
        conllu=str(FIXTURES / "corpus" / "mini.conllu"),
        out=str(tmp_path / "out.jsonl")))
    assert (tmp_path / "out.jsonl").stat().st_size > 0
    assert loaded.isdisjoint(NOT_ON_BASELINE_PATH), \
        sorted(loaded.intersection(NOT_ON_BASELINE_PATH))


def test_remote_scorer_loads_the_http_client_when_built():
    # building the scorer opens no connection, so the port need not listen
    loaded = loaded_after(SETUP.format(
        scorer_args='"remote", "http://127.0.0.1:9/score"'))
    assert "urllib.request" in loaded
