"""Command line interface: flags, config merging, exit codes, output."""

import gc
import json
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import amr2qa
from amr2qa import cli, pipeline
from amr2qa.annotate import ConlluError
from amr2qa.cli import main
from amr2qa.corpus import CorpusError, parse_block, split_blocks
from amr2qa.penman import serialize_penman
from amr2qa.pipeline import RunConfig, run_generate
from amr2qa.preprocess import format_tree, preorder, preprocess
from amr2qa.qgen import ArityMismatch
from amr2qa.templates import (
    TemplateError,
    bundled_mapping_path,
    bundled_template_path,
)

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"
MINI_AMR = str(FIXTURES / "mini.amr")
MINI_CONLLU = str(FIXTURES / "mini.conllu")
MINI_DATASET = str(FIXTURES / "mini_dataset.jsonl")
MINI_GOLDEN = FIXTURES / "mini_golden.jsonl"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ASQ_SCORER_URL", raising=False)


def gen_args(out, *extra):
    return ["generate", "--amr", MINI_AMR, "--conllu", MINI_CONLLU,
            "--out", str(out), *extra]


def peak_memory(argv, capsys) -> int:
    """tracemalloc peak of ``main(argv)``, which must exit 0."""
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()


def repeated(tmp_path, source: str, old: str, new: str, copies: int) -> str:
    """``copies`` copies of ``source`` in one file, the k-th with ``old``
    replaced by ``new`` formatted with k, so ids stay unique."""
    text = Path(source).read_text(encoding="utf-8")
    path = tmp_path / f"{copies}-{Path(source).name}"
    path.write_text("\n".join(text.replace(old, new.format(k))
                              for k in range(copies)), encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_mini_corpus(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(gen_args(out)) == 0
        captured = capsys.readouterr()
        assert "sentences processed   3" in captured.err
        assert "questions emitted     9" in captured.err
        assert captured.out == ""          # data never goes to stdout
        assert len(out.read_text().splitlines()) == 9

    def test_mini_corpus_matches_golden(self, tmp_path, capsys):
        # pins questions, template ids, answers and scores byte for byte
        out = tmp_path / "out.jsonl"
        assert main(gen_args(out)) == 0
        assert out.read_bytes() == MINI_GOLDEN.read_bytes()

    @pytest.mark.parametrize("pairing", ["by-order", "by-id"])
    @pytest.mark.parametrize("marked", [("amr",), ("conllu",),
                                        ("amr", "conllu")],
                             ids=["amr", "conllu", "both"])
    def test_byte_order_marks_change_nothing(self, tmp_path, caplog,
                                             pairing, marked):
        # a leading U+FEFF on either file is not part of its first line
        amr, conllu = tmp_path / "bom.amr", tmp_path / "bom.conllu"
        for copy, source in ((amr, MINI_AMR), (conllu, MINI_CONLLU)):
            bom = b"\xef\xbb\xbf" if copy.suffix[1:] in marked else b""
            copy.write_bytes(bom + Path(source).read_bytes())
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--amr", str(amr), "--conllu", str(conllu),
                     "--out", str(out), "--pair", pairing]) == 0
        assert caplog.messages == []
        assert out.read_bytes() == MINI_GOLDEN.read_bytes()

    @pytest.mark.parametrize("name", ["dataset", "config", "templates",
                                      "mapping"])
    def test_byte_order_mark_on_any_input_changes_nothing(self, tmp_path,
                                                          capsys, name):
        data = Path(amr2qa.__file__).parent / "data"
        out = tmp_path / "out.jsonl"
        config = json.dumps({"amr": MINI_AMR, "conllu": MINI_CONLLU,
                             "out": str(out)}).encode()
        plain = {"dataset": Path(MINI_DATASET).read_bytes(), "config": config,
                 "templates": (data / "templates.txt").read_bytes(),
                 "mapping": (data / "role_mapping.txt").read_bytes()}[name]
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        if name == "dataset":
            assert main(["stats", MINI_DATASET]) == 0
            expected = capsys.readouterr()
            assert main(["stats", str(marked)]) == 0
            assert capsys.readouterr() == expected
            return
        argv = (["generate", "--config", str(marked)] if name == "config"
                else gen_args(out, f"--{name}", str(marked)))
        assert main(argv) == 0
        assert out.read_bytes() == MINI_GOLDEN.read_bytes()

    def test_missing_required_flag(self, tmp_path, capsys):
        rc = main(["generate", "--amr", MINI_AMR, "--conllu", MINI_CONLLU])
        assert rc == 1
        assert "--out is required" in capsys.readouterr().err

    def test_invalid_flag_value(self, tmp_path, capsys):
        rc = main(gen_args(tmp_path / "o.jsonl", "--pair", "sideways"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_value_after_an_equals_sign_or_as_the_next_argument(
            self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["generate", f"--amr={MINI_AMR}", "--conllu",
                     MINI_CONLLU, f"--out={out}", "--pair=by-id"]) == 0
        assert out.read_bytes() == MINI_GOLDEN.read_bytes()

    def test_a_unique_prefix_names_its_flag(self, tmp_path, capsys,
                                             scorer_server):
        out = tmp_path / "out.jsonl"
        assert main(gen_args(out, "--scorer", "remote",
                             "--scorer-u", scorer_server)) == 0
        assert _ScorerHandler.received
        capsys.readouterr()
        assert main(["generate", "--co", MINI_CONLLU, "--amr", MINI_AMR,
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.jsonl").exists()

    def test_a_flag_where_a_value_belongs_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--amr", MINI_AMR, "--conllu", MINI_CONLLU,
                     "--out", "--pair", "by-id"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["\u0662", "+2", "1_0", " 2"])
    def test_workers_must_be_ascii_digits(self, tmp_path, capsys, value):
        # int() would read these as 2, 2, 10 and 2
        out = tmp_path / "o.jsonl"
        assert main(gen_args(out, "--workers", value)) == 1
        assert capsys.readouterr().err == (
            f"error: option --workers: {value!r} is not an integer\n")
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_amr_file(self, tmp_path, capsys):
        rc = main(["generate", "--amr", str(tmp_path / "nope.amr"),
                   "--conllu", MINI_CONLLU,
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2

    def test_empty_corpus(self, tmp_path, capsys):
        amr = tmp_path / "empty.amr"
        amr.write_text("\n \n\n")
        rc = main(["generate", "--amr", str(amr), "--conllu", MINI_CONLLU,
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 3
        assert "no sentences" in capsys.readouterr().err

    def test_all_blocks_malformed(self, tmp_path, capsys):
        amr = tmp_path / "bad.amr"
        amr.write_text("# ::id a\n# ::snt The engine was broken .\n(x /\n")
        conllu = tmp_path / "one.conllu"
        conllu.write_text(
            Path(MINI_CONLLU).read_text().strip().split("\n\n")[0] + "\n")
        rc = main(["generate", "--amr", str(amr), "--conllu", str(conllu),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 3
        assert "no sentences could be processed" in capsys.readouterr().err

    def test_one_malformed_block_still_succeeds(self, tmp_path, capsys):
        amr = tmp_path / "mixed.amr"
        amr.write_text(
            "# ::id s1\n# ::snt The engine was broken .\n"
            "(b / break-01 :ARG1 (e / engine))\n\n"
            "# ::id s2\n# ::snt Mary visits museums twice .\n"
            "(v / visit-01 :ARG0 (p /\n\n"
            "# ::id s3\n# ::snt He stood in the middle of the desert .\n"
            "(s / stand-01 :ARG0 (h / he))\n")
        out = tmp_path / "o.jsonl"
        rc = main(["generate", "--amr", str(amr), "--conllu", MINI_CONLLU,
                   "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "sentences processed   2" in err
        assert "sentences failed      1" in err

    def test_malformed_conllu(self, tmp_path, capsys):
        conllu = tmp_path / "bad.conllu"
        conllu.write_text("1\tonly\tfour\tcolumns\n")
        rc = main(["generate", "--amr", MINI_AMR, "--conllu", str(conllu),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2

    def test_conllu_word_ids_out_of_order(self, tmp_path, capsys):
        # token(i) reads the i-th word line, so swapped ids would give the
        # answer "engine The"
        lines = Path(MINI_CONLLU).read_text().splitlines(keepends=True)
        lines[2:4] = lines[3:1:-1]
        conllu = tmp_path / "swapped.conllu"
        conllu.write_text("".join(lines))
        out = tmp_path / "o.jsonl"
        rc = main(["generate", "--amr", MINI_AMR, "--conllu", str(conllu),
                   "--out", str(out)])
        assert rc == 2
        assert "word id 2 out of sequence" in capsys.readouterr().err
        assert not out.exists()

    def test_amr_file_not_utf8(self, tmp_path, capsys):
        amr = tmp_path / "bad.amr"
        amr.write_bytes(b"\xff\xfe")
        rc = main(["generate", "--amr", str(amr), "--conllu", MINI_CONLLU,
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_conllu_file_not_utf8_leaves_no_dataset(self, tmp_path, capsys):
        # the CoNLL-U file is read while the dataset is being written
        conllu = tmp_path / "bad.conllu"
        conllu.write_bytes(Path(MINI_CONLLU).read_bytes() + b"\xff\n")
        out = tmp_path / "o.jsonl"
        rc = main(["generate", "--amr", MINI_AMR, "--conllu", str(conllu),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert not (tmp_path / "o.jsonl.tmp").exists()

    def test_count_mismatch(self, tmp_path, capsys):
        conllu = tmp_path / "short.conllu"
        conllu.write_text(
            Path(MINI_CONLLU).read_text().strip().split("\n\n")[0] + "\n")
        rc = main(["generate", "--amr", MINI_AMR, "--conllu", str(conllu),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2

    def test_zero_workers(self, tmp_path, capsys):
        rc = main(gen_args(tmp_path / "o.jsonl", "--workers", "0"))
        assert rc == 1

    def test_remote_without_url(self, tmp_path, capsys):
        rc = main(gen_args(tmp_path / "o.jsonl", "--scorer", "remote"))
        assert rc == 1
        assert "requires a scorer URL" in capsys.readouterr().err

    def test_remote_url_that_is_not_http(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        rc = main(gen_args(out, "--scorer", "remote",
                           "--scorer-url", "ftp://x/score"))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_swapped_annotations_fail_by_order_not_by_id(self, tmp_path,
                                                         capsys, caplog):
        blocks = Path(MINI_CONLLU).read_text().strip().split("\n\n")
        swapped = tmp_path / "swapped.conllu"
        swapped.write_text("\n\n".join([blocks[1], blocks[0], blocks[2]])
                           + "\n")
        args = ["generate", "--amr", MINI_AMR, "--conllu", str(swapped)]
        assert main([*args, "--out", str(tmp_path / "order.jsonl")]) == 0
        assert "sentences failed      2" in capsys.readouterr().err.split("\n")
        assert caplog.messages == [
            "skipped: sentence 's1': ::snt is not spelled by the words of "
            "annotation 's2' (block 1)",
            "skipped: sentence 's2': ::snt is not spelled by the words of "
            "annotation 's1' (block 2)"]
        out = tmp_path / "id.jsonl"
        assert main([*args, "--pair", "by-id", "--out", str(out)]) == 0
        assert out.read_bytes() == MINI_GOLDEN.read_bytes()

    @pytest.mark.parametrize("error", [ArityMismatch("boom"),
                                       KeyError("boom")])
    def test_a_bug_propagates(self, tmp_path, capsys, monkeypatch, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(pipeline, "generate_candidates", failing)
        out = tmp_path / "o.jsonl"
        with pytest.raises(type(error)):
            main(gen_args(out))
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("url", ["http://h:99999/s",
                                     "http://" + "\xfc" * 70 + "/s"],
                             ids=["port", "idna"])
    def test_remote_url_the_library_refuses(self, tmp_path, capsys, url):
        # urllib's plain ValueError and the IDNA codec's UnicodeError are
        # setting errors, not bugs
        out = tmp_path / "o.jsonl"
        rc = main(gen_args(out, "--scorer", "remote", "--scorer-url", url))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_workers_flag_output_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(gen_args(a, "--workers", "1")) == 0
        assert main(gen_args(b, "--workers", "8")) == 0
        assert a.read_bytes() == b.read_bytes()


def _replace(old: str, new: str):
    def edit(text: str) -> str:
        assert old in text
        return text.replace(old, new, 1)
    return edit


# one row per kind of CoNLL-U or template-pack fault: the input it is made
# in, how, and the error line main gives for it. A CoNLL-U fault exits 2,
# a template or mapping fault 1.
INPUT_FAULTS = {
    "column-count": ("conllu", _replace("5\t.\t.\tPUNCT\t.\t_\t4\tpunct\t_\t_",
                                        "5\t."),
                     "expected 10 columns, found 2 (line 7)"),
    "non-integer-head": ("conllu", _replace("VerbForm=Part\t0\t",
                                            "VerbForm=Part\tx\t"),
                         "head 'x' is not an integer (line 6)"),
    "head-out-of-range": ("conllu", _replace("VerbForm=Part\t0\t",
                                             "VerbForm=Part\t9\t"),
                          "head 9 points outside the sentence "
                          "(line 6, sentence 's1')"),
    "cyclic-tree": ("conllu", _replace("VerbForm=Part\t0\t",
                                       "VerbForm=Part\t2\t"),
                    "dependency heads form a cycle (sentence 's1')"),
    "malformed-record": ("templates",
                         _replace("core|Agent|past|Who {0} ?|VERB\n",
                                  "core|Agent|past|Who {0} ?\n"),
                         "expected 5 fields, found 4 (line 9)"),
    "duplicate-record": ("templates",
                         _replace("core|Agent|past|Who {0} ?|VERB\n",
                                  "core|Agent|past|Who {0} ?|VERB\n" * 2),
                         "duplicate template record "
                         "'core|Agent|past|Who {0} ?|VERB' (line 10)"),
    "unknown-pos-tag": ("templates",
                        _replace("core|Agent|past|Who {0} ?|VERB\n",
                                 "core|Agent|past|Who {0} ?|VRB\n"),
                        "unknown POS tag 'VRB' (line 9)"),
    "blank-index-gap": ("templates",
                        _replace("core|Agent|past|Who {0} ?|VERB\n",
                                 "core|Agent|past|Who {1} ?|VERB\n"),
                        "blank indices [1] are not contiguous from 0 "
                        "(line 9)"),
    "incomplete-mapping": ("mapping", lambda text: text + "zzz|01|ARG0|Nobody\n",
                           "role 'Nobody' is mapped to but has no core "
                           "template"),
}


@pytest.mark.parametrize("name, edit, line", INPUT_FAULTS.values(),
                         ids=INPUT_FAULTS)
def test_each_input_fault_has_its_error_line_and_exit_code(tmp_path, capsys,
                                                           name, edit, line):
    sources = {"conllu": MINI_CONLLU, "templates": bundled_template_path(),
               "mapping": bundled_mapping_path()}
    argv = ["generate", "--amr", MINI_AMR]
    for key, source in sources.items():
        text = Path(source).read_text(encoding="utf-8")
        path = tmp_path / f"{key}.txt"
        path.write_text(edit(text) if key == name else text, encoding="utf-8")
        argv += [f"--{key}", str(path)]
    out = tmp_path / "o.jsonl"
    code = 2 if name == "conllu" else 1
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not out.exists()
    assert not (tmp_path / "o.jsonl.tmp").exists()


def test_one_error_class_per_resource_reader():
    # the message names the fault, so no subclass tells one from another
    assert ConlluError.__subclasses__() == TemplateError.__subclasses__() == []


class TestConfigFile:
    def test_config_supplies_everything(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "amr": MINI_AMR, "conllu": MINI_CONLLU, "out": str(out),
            "workers": 2, "pair": "by-order"}))
        assert main(["generate", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        config_out = tmp_path / "from_config.jsonl"
        flag_out = tmp_path / "from_flag.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "amr": MINI_AMR, "conllu": MINI_CONLLU,
            "out": str(config_out)}))
        rc = main(["generate", "--config", str(cfg),
                   "--out", str(flag_out)])
        assert rc == 0
        assert flag_out.exists()
        assert not config_out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"amr": MINI_AMR, "connlu": "typo"}))
        rc = main(["generate", "--config", str(cfg)])
        assert rc == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(["amr", "conllu"]))
        assert main(["generate", "--config", str(cfg)]) == 1

    def test_config_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{amr: no quotes}")
        assert main(["generate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("bad", [
        {"out": 1}, {"amr": None}, {"templates": 3}, {"mapping": ["m.txt"]},
        {"scorer": "remote", "scorer_url": 5},
        {"workers": True}, {"workers": 2.9}, {"workers": "2"}])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, bad):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"amr": MINI_AMR, "conllu": MINI_CONLLU,
                                   "out": str(tmp_path / "o.jsonl"), **bad}))
        assert main(["generate", "--config", str(cfg)]) == 1
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_config_file_missing(self, tmp_path, capsys):
        rc = main(["generate", "--config", str(tmp_path / "gone.json")])
        assert rc == 2


# Settings errors, as config-file keys. Each is refused before any input
# file is read, whichever door it comes through; a value that is not a
# string or an int is tried only where a flag cannot say it.
BAD_SETTINGS = {
    "unknown-pairing": {"pair": "by-vibes"},
    "unknown-scorer": {"scorer": "oracle"},
    "remote-without-url": {"scorer": "remote"},
    "ftp-url": {"scorer": "remote", "scorer_url": "ftp://x/score"},
    "zero-workers": {"workers": 0},
    "bool-workers": {"workers": True},
    "list-pairing": {"pair": ["by-id"]},
    "dict-scorer": {"scorer": {"remote": "http://x/score"}},
    "int-url": {"scorer": "remote", "scorer_url": 5},
}

def flag_can_say(bad: dict) -> bool:
    return all(type(value) in (str, int) for value in bad.values())


def test_every_setting_has_a_flag_and_a_config_key():
    assert set(cli._FIELDS.values()) == set(RunConfig._fields)


# for each config key, a value that is not RunConfig's default
SETTING_VALUES = {"amr": "a.amr", "conllu": "a.conllu", "out": "a.jsonl",
                  "templates": "t.txt", "mapping": "m.txt",
                  "scorer": "remote", "scorer_url": "http://127.0.0.1:1/s",
                  "pair": "by-id", "workers": 3}


@pytest.mark.parametrize("door", ["flags", "config"])
@pytest.mark.parametrize("key", sorted(cli._FIELDS))
def test_each_setting_reaches_its_field(tmp_path, key, door):
    settings = {"amr": "x.amr", "conllu": "x.conllu", "out": "x.jsonl",
                key: SETTING_VALUES[key]}
    if door == "flags":
        argv = ["generate"] + [
            arg for name, value in settings.items()
            for arg in ("--" + name.replace("_", "-"), str(value))]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(settings))
        argv = ["generate", "--config", str(cfg)]
    config = cli.resolve_config(cli.parse_args(argv)[1])
    assert config == RunConfig(**{cli._FIELDS[name]: value
                                  for name, value in settings.items()})


class TestSettingsCheckedFirst:
    @pytest.fixture(params=["missing", "empty"])
    def amr(self, request, tmp_path):
        path = tmp_path / "in.amr"
        if request.param == "empty":
            path.write_text("")
        return str(path)

    @pytest.mark.parametrize("name, door", [
        (name, door) for name, bad in BAD_SETTINGS.items()
        for door in ("flags", "config", "library")
        if door != "flags" or flag_can_say(bad)])
    def test_refused_before_any_input_is_read(self, tmp_path, capsys, amr,
                                              name, door):
        bad = BAD_SETTINGS[name]
        out = tmp_path / "o.jsonl"
        if door == "library":
            config = RunConfig(amr_path=amr, conllu_path=MINI_CONLLU,
                               output_path=str(out),
                               **{"pairing" if key == "pair" else key: value
                                  for key, value in bad.items()})
            with pytest.raises(ValueError) as caught:
                run_generate(config)
            # not ZeroSentences, which is a ValueError too
            assert caught.type is ValueError
        else:
            paths = {"amr": amr, "conllu": MINI_CONLLU, "out": str(out)}
            cfg = tmp_path / "run.json"
            if door == "flags":
                argv = ["generate"] + [
                    arg for key, value in {**paths, **bad}.items()
                    for arg in ("--" + key.replace("_", "-"), str(value))]
                # the config file that says what the flags say: a flag
                # gives a string, or an int for --workers
                cfg.write_text(json.dumps({
                    key: value if key == "workers" else str(value)
                    for key, value in {**paths, **bad}.items()}))
                assert main(["generate", "--config", str(cfg)]) == 1
                config_err = capsys.readouterr().err
            else:
                cfg.write_text(json.dumps({**paths, **bad}))
                argv = ["generate", "--config", str(cfg)]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            if door == "flags":   # checked once, in the same words
                assert err == config_err
        assert not out.exists()
        assert not (tmp_path / "o.jsonl.tmp").exists()


class _ScorerHandler(BaseHTTPRequestHandler):
    received: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).received.append(body["text"])
        payload = json.dumps({"logprob": -1.5}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scorer_server():
    _ScorerHandler.received = []
    server = HTTPServer(("127.0.0.1", 0), _ScorerHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/score"
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


class TestEnvironmentOverride:
    def test_env_url_beats_flag_and_config(self, tmp_path, capsys,
                                           monkeypatch, scorer_server):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "scorer_url": "http://127.0.0.1:1/config-dead"}))
        monkeypatch.setenv("ASQ_SCORER_URL", scorer_server)
        out = tmp_path / "out.jsonl"
        rc = main(gen_args(out, "--config", str(cfg), "--scorer", "remote",
                           "--scorer-url", "http://127.0.0.1:1/flag-dead"))
        assert rc == 0
        assert _ScorerHandler.received          # the live env URL was hit
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["scorer_id"] for r in rows} == {"remote"}
        assert {r["score"] for r in rows} == {-1.5}

    def test_unreachable_remote_falls_back(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("ASQ_SCORER_URL", "http://127.0.0.1:1/score")
        out = tmp_path / "out.jsonl"
        rc = main(gen_args(out, "--scorer", "remote"))
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["scorer_id"] for r in rows} == {"baseline"}


class TestStats:
    def test_table_from_hand_tallied_fixture(self, capsys):
        assert main(["stats", MINI_DATASET]) == 0
        out = capsys.readouterr().out
        assert "Total questions               6" in out
        assert "Avg questions per sentence    2.00" in out
        assert "Unique question words         18" in out
        assert "Avg question length (tokens)  4.83" in out
        assert "Fallback answers              1" in out

    def test_json_output(self, capsys):
        assert main(["stats", MINI_DATASET, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "total_questions": 6,
            "avg_questions_per_sentence": "2.00",
            "unique_word_count": 18,
            "avg_question_length": "4.83",
            "avg_answer_length": "2.00",
            "skipped_node_count": 0,
            "fallback_answer_count": 1,
        }

    def test_json_flag_before_the_dataset(self, capsys):
        assert main(["stats", MINI_DATASET, "--json"]) == 0
        after = capsys.readouterr()
        assert main(["stats", "--json", MINI_DATASET]) == 0
        assert capsys.readouterr() == after

    def test_empty_dataset(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "Total questions               0" in out
        assert "Avg question length (tokens)  0.00" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "gone.jsonl")]) == 2

    def test_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"sentence_id": "\xff"}\n')
        assert main(["stats", str(bad)]) == 2

    # a good line, then a bad one
    GOOD = Path(MINI_DATASET).read_text(encoding="utf-8").splitlines()[0]

    @pytest.mark.parametrize("line", [
        '{"sentence_id": "s1"',
        # an integer past the int() digit limit
        GOOD.replace('"score": -3.52', '"score": 1' + "0" * 5000),
        GOOD.replace('"question": "What was broken ?"', '"question": 5'),
        GOOD.replace('"text": "The engine"', '"text": null'),
        GOOD.replace('"sentence_id": "s1"', '"sentence_id": [1]'),
    ], ids=["truncated", "huge-int", "question-number", "text-null",
            "id-list"])
    def test_malformed_line(self, tmp_path, capsys, line):
        assert line != self.GOOD
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{self.GOOD}\n{line}\n")
        assert main(["stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad dataset line: ")
        assert err.endswith(" (line 2)\n")

    def test_peak_memory_does_not_grow_with_the_dataset(self, tmp_path,
                                                         capsys):
        def peak(copies):
            dataset = repeated(tmp_path, MINI_DATASET, '"sentence_id": "s',
                               '"sentence_id": "c{}s', copies)
            return peak_memory(["stats", dataset], capsys)

        # 16 copies of the 6-pair dataset hold 84 pairs more than 2 do. The
        # sentence-id and question-word sets stats keeps grow about 120 B
        # a pair; holding every parsed pair would cost about 650 B a pair
        peak(2)   # the first run fills lazily built tables
        assert peak(16) - peak(2) < 256 * 84


def after_first_block(tmp_path, block: str) -> str:
    """mini.amr's first block, then ``block``, in one file."""
    first = Path(MINI_AMR).read_text().split("\n\n")[0]
    path = tmp_path / "two.amr"
    path.write_text(first + "\n\n" + block + "\n")
    return str(path)


# a second block that inspect and generate both refuse, and the error
BAD_BLOCKS = {
    "malformed": ("# ::snt Beta .\n(b / beta",
                  "unclosed '(' (at offset 25) (block 2)"),
    "no-sentence": ("(b / beta)", "block has no ::snt sentence (block 2)"),
    "empty-sentence": ("# ::snt\n(b / beta)",
                       "block has no ::snt sentence (block 2)"),
    "unmatched-close": ("# ::snt Beta .\n(b / beta))",
                        "unmatched ')' (at offset 25) (block 2)"),
    "duplicate-variable": ("# ::snt Beta .\n(b / beta :ARG0 (b / gamma))",
                           "variable 'b' defined twice (at offset 32) "
                           "(block 2)"),
    "no-concept": ("# ::snt Beta .\n(b / )",
                   "expected a concept for variable 'b' (at offset 20) "
                   "(block 2)"),
    "no-graph": ("# ::snt Beta .\nbeta",
                 "graph must start with '(' (at offset 15) (block 2)"),
}


class TestInspect:
    def test_shows_original_condensed_traversal(self, capsys):
        assert main(["inspect", "--amr", MINI_AMR, "--index", "2"]) == 0
        out = capsys.readouterr().out
        assert "id: s3" in out
        assert "sentence: He stood in the middle of the desert ." in out
        assert ("original: (s / stand-01 :ARG0 (h / he) "
                ":location (m2 / middle :part (d / desert)))") in out
        assert "condensed:" in out
        assert ":location middle [m2]" in out
        assert "traversal: stand-01 -> he -> middle -> desert" in out

    def test_condensed_entity_rendering(self, tmp_path, capsys):
        amr = tmp_path / "duration.amr"
        amr.write_text(
            "# ::id d1\n# ::snt She slept for 1 year .\n"
            "(s / sleep-01 :ARG0 (sh / she) :duration "
            "(t / temporal-quantity :quant 1 :unit (y / year)))\n")
        assert main(["inspect", "--amr", str(amr), "--index", "0"]) == 0
        out = capsys.readouterr().out
        assert ":duration 1 year [t]" in out
        assert "traversal: sleep-01 -> she -> 1 year" in out

    def test_block_without_id_uses_position(self, tmp_path, capsys):
        amr = tmp_path / "noid.amr"
        amr.write_text("# ::snt It works .\n(w / work-09)\n")
        assert main(["inspect", "--amr", str(amr), "--index", "0"]) == 0
        assert "id: 1" in capsys.readouterr().out

    def test_index_out_of_range(self, capsys):
        assert main(["inspect", "--amr", MINI_AMR, "--index", "7"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_negative_index(self, capsys):
        assert main(["inspect", "--amr", MINI_AMR, "--index", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: index -1 out of "
                                                  "range")

    def test_negative_index_must_be_ascii_digits(self, capsys):
        # a "-" before anything but ASCII digits starts a flag, so the
        # value is missing; int() would read "-\u0663" as -3
        assert main(["inspect", "--amr", MINI_AMR, "--index", "-\u0663"]) == 1
        assert capsys.readouterr().err == (
            "error: option --index requires argument\n")

    def test_malformed_block(self, tmp_path, capsys):
        amr = tmp_path / "bad.amr"
        amr.write_text("# ::snt Broken .\n(x / oops-\n")
        assert main(["inspect", "--amr", str(amr), "--index", "0"]) == 2

    @pytest.mark.parametrize("block, message", BAD_BLOCKS.values(),
                             ids=BAD_BLOCKS)
    def test_block_errors_name_the_block(self, tmp_path, capsys, block,
                                         message):
        amr = after_first_block(tmp_path, block)
        assert main(["inspect", "--amr", amr, "--index", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("block, message", BAD_BLOCKS.values(),
                             ids=BAD_BLOCKS)
    def test_generate_skips_the_block_with_the_same_error(
            self, tmp_path, capsys, caplog, block, message):
        conllu = tmp_path / "two.conllu"
        conllu.write_text("\n\n".join(
            Path(MINI_CONLLU).read_text().split("\n\n")[:2]) + "\n\n")
        argv = ["generate", "--amr", after_first_block(tmp_path, block),
                "--conllu", str(conllu), "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 0
        assert caplog.messages == [f"skipped: sentence '2': {message}"]
        assert "sentences failed      1" in capsys.readouterr().err

    def test_byte_order_mark_is_not_metadata(self, tmp_path, capsys):
        amr = tmp_path / "bom.amr"
        amr.write_bytes(b"\xef\xbb\xbf" + Path(MINI_AMR).read_bytes())
        assert main(["inspect", "--amr", str(amr), "--index", "0"]) == 0
        assert capsys.readouterr().out.startswith("id: s1\n")

    @pytest.mark.parametrize("name, index", [
        *(("corpus/mini.amr", index) for index in (-4, -1, 0, 1, 2, 3, 7)),
        *((f"preprocess/{path.name}", index) for path in sorted(
            (FIXTURES.parent / "preprocess").glob("*.amr"))
          for index in (0, 1)),
    ])
    def test_same_output_as_reading_the_whole_file(self, name, index,
                                                   tmp_path, capsys):
        path = FIXTURES.parent / name
        if path.parent.name == "preprocess":   # bare graphs: add a ::snt
            copy = tmp_path / path.name
            copy.write_text("# ::snt -\n" + path.read_text(encoding="utf-8"),
                            encoding="utf-8")
            path = copy
        path = str(path)
        code = main(["inspect", "--amr", path, "--index", str(index)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            whole_file_inspect(path, index)

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path, capsys):
        def peak(copies):
            amr = repeated(tmp_path, MINI_AMR, "# ::id s", "# ::id c{}s",
                           copies)
            return peak_memory(["inspect", "--amr", amr, "--index", "0"],
                               capsys)

        peak(2)   # the first run fills lazily built tables
        assert peak(16) < 1.5 * peak(2)


def whole_file_inspect(path, index):
    """Reference for ``inspect``: (exit code, stdout, stderr) from reading
    and splitting the whole file, then indexing the block list."""
    blocks = split_blocks(Path(path).read_text(encoding="utf-8"))
    if not 0 <= index < len(blocks):
        return 1, "", (f"error: index {index} out of range "
                       f"({len(blocks)} blocks in {path})\n")
    raw = blocks[index]
    try:
        graph = parse_block(raw)
    except CorpusError as exc:
        return 2, "", f"error: {exc}\n"
    tree = preprocess(graph)
    lines = [f"id: {raw.id if raw.id is not None else raw.position}",
             f"sentence: {raw.sentence}",
             f"original: {serialize_penman(graph)}", "condensed:",
             format_tree(tree).rstrip("\n"),
             "traversal: " + " -> ".join(n.concept_text
                                         for n in preorder(tree))]
    return 0, "\n".join(lines) + "\n", ""


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        # each names every setting's flag and --config
        for argv in (["--help"], ["-h"], ["generate", "--help"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: amr2qa")
            for key in [*cli._FIELDS, "config"]:
                assert "--" + key.replace("_", "-") + " " in out, (argv, key)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amr2qa.cli", "stats", MINI_DATASET],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "Total questions" in proc.stdout

    def test_a_bug_exits_1_with_its_traceback(self, tmp_path):
        script = ("import sys\n"
                  "from amr2qa import cli, pipeline, qgen\n"
                  "def failing(*args):\n"
                  "    raise qgen.ArityMismatch('boom')\n"
                  "pipeline.generate_candidates = failing\n"
                  f"sys.exit(cli.main({gen_args(tmp_path / 'o.jsonl')!r}))\n")
        package_root = str(Path(amr2qa.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=package_root))
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback (most recent call last):")
        assert proc.stderr.endswith("amr2qa.qgen.ArityMismatch: boom\n")
        assert "error:" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_console_script(self, tmp_path):
        # Runs the wrapper pip writes for the [project.scripts] entry, so the
        # declared target is checked from a source checkout with no install.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["amr2qa"]
        module, attr = target.split(":")
        script = tmp_path / "amr2qa"
        script.write_text(
            "import re\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '',"
            " sys.argv[0])\n"
            f"    sys.exit({attr}())\n")
        # the child imports the same amr2qa package this process imported
        package_root = str(Path(amr2qa.__file__).parents[1])
        pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        proc = subprocess.run([sys.executable, str(script), "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: amr2qa")

    @pytest.mark.skipif(shutil.which("amr2qa") is None,
                        reason="no amr2qa console script on PATH")
    def test_installed_console_script(self):
        proc = subprocess.run(["amr2qa", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: amr2qa")
