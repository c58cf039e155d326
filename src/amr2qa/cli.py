"""Command line front end.

Subcommands:
  generate   full corpus run: AMR + CoNLL-U in, scored QA dataset out
  stats      summary table for a previously generated dataset
  inspect    show one graph before and after preprocessing

Flags are read with getopt: ``--flag value`` or ``--flag=value``, a unique
prefix of a flag's name, ``-h``/``--help`` for usage. Each generate flag is
a config-file key with - for _, and its value reaches run_generate as the
key's does, so the library checks it once, with the same message.

Settings resolve in precedence order: built-in defaults, then a --config
JSON file, then command line flags, then the ASQ_SCORER_URL environment
variable (URL only). Warnings and the run report go to standard error; the
only data written to stdout is stats/inspect output. No logging is set up:
a warning reaches standard error as its bare message, through the logging
module's last-resort handler, unless the caller configured handlers.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed input files, 3 nothing produced. Any other exception is a bug:
it propagates with its traceback, and the interpreter exits 1.
"""

from __future__ import annotations

import getopt
import os
import re
import sys

from .annotate import ConlluError
from .corpus import (
    CorpusError,
    ZeroSentences,
    compute_stats,
    format_stats_table,
    iter_blocks,
    iter_dataset,
    parse_block,
)
from .penman import serialize_penman
from .pipeline import PAIRINGS, RunConfig, run_generate
from .preprocess import format_tree, preorder, preprocess
from .scorer import SCORERS
from .templates import TemplateError


class UsageError(ValueError):
    """Bad flags or bad configuration; maps to exit code 1."""


# config-file key -> RunConfig field; the key with - for _ is its flag
_FIELDS = {"amr": "amr_path", "conllu": "conllu_path", "out": "output_path",
           "templates": "template_path", "mapping": "mapping_path",
           "scorer": "scorer", "scorer_url": "scorer_url", "pair": "pairing",
           "workers": "workers"}

# each command's long options, as getopt takes them: "name=" has a value
_OPTIONS = {"generate": [key.replace("_", "-") + "=" for key in _FIELDS]
                        + ["config="],
            "stats": ["json"], "inspect": ["amr=", "index="]}

# an integer value; int() would also take "+2", " 2", "1_0" and "\u0662"
_INTEGER = re.compile(r"-?[0-9]+")

# each command's usage; -h prints its own, or all three
_USAGE = {"generate": "generate [-h] --amr F --conllu F --out F [--templates F]"
                      f"\n{' ' * 14}[--mapping F] [--scorer {'|'.join(SCORERS)}]"
                      f" [--scorer-url U]\n{' ' * 14}[--pair "
                      f"{'|'.join(PAIRINGS)}] [--workers N] [--config JSON]\n",
          "stats": "stats [-h] DATASET [--json]\n",
          "inspect": "inspect [-h] --amr F --index N\n"}


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command ``argv`` names ("" for -h alone) and its options, each
    under its name with _ for - ("help" for -h, "dataset" for stats'
    operand). Values stay strings but --workers and --index, ASCII digits
    made ints; a flag's value is checked where the same config key's is."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        return "", {"help": ""}
    if command not in _OPTIONS:
        raise UsageError(f"expected a command: {', '.join(_OPTIONS)} "
                         f"(got {command!r})")
    try:
        pairs, operands = getopt.gnu_getopt(rest, "h",
                                            [*_OPTIONS[command], "help"])
    except getopt.GetoptError as exc:
        raise UsageError(str(exc)) from None
    options = {}
    for flag, value in pairs:
        # getopt takes whatever follows as the value: a flag there means
        # the value is missing (a negative number is not a flag)
        if value[:1] == "-" and value[1:] and not _INTEGER.fullmatch(value):
            raise UsageError(f"option {flag} requires argument")
        key = "help" if flag == "-h" else flag[2:].replace("-", "_")
        if key in ("workers", "index"):
            if not _INTEGER.fullmatch(value):
                raise UsageError(f"option {flag}: {value!r} is not an integer")
            value = int(value)
        options[key] = value
    if "help" not in options and (
            len(operands) != (command == "stats") or command == "inspect"
            and not {"amr", "index"} <= options.keys()):
        raise UsageError(f"usage: amr2qa {_USAGE[command]}".rstrip())
    options.update(zip(["dataset"], operands))
    return command, options


def _load_config_file(path: str) -> dict:
    import json

    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path}: expected a JSON object")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise UsageError(f"config {path}: unknown keys {', '.join(unknown)}")
    for key, value in data.items():
        # every flag but --workers gives a string; run_generate checks
        # workers
        if key != "workers" and not isinstance(value, str):
            raise UsageError(f"config {path}: {key} must be a string, "
                             f"got {value!r}")
    return data


def resolve_config(options: dict) -> RunConfig:
    """Merge config file, flags (``options`` from :func:`parse_args`), and
    environment into a RunConfig. A setting none of them gives keeps
    RunConfig's default; run_generate checks the values."""
    config = options.get("config")
    settings = _load_config_file(config) if config else {}
    settings.update((key, value) for key, value in options.items()
                    if key in _FIELDS)
    env_url = os.environ.get("ASQ_SCORER_URL")
    if env_url:
        settings["scorer_url"] = env_url
    for key in ("amr", "conllu", "out"):
        if not settings.get(key):
            raise UsageError(f"--{key} is required")
    return RunConfig(**{_FIELDS[key]: value
                        for key, value in settings.items()})


def _cmd_generate(options: dict) -> int:
    config = resolve_config(options)
    report = run_generate(config)
    for line in report.lines():
        print(line, file=sys.stderr)
    if report.sentences_processed == 0:
        print("error: no sentences could be processed", file=sys.stderr)
        return 3
    return 0


def _cmd_stats(options: dict) -> int:
    # two passes over the file, so no more than one pair is held at a time
    dataset = options["dataset"]
    sentence_count = len({pair.sentence_id for pair in iter_dataset(dataset)})
    stats = compute_stats(iter_dataset(dataset), sentence_count)
    if "json" in options:
        import json

        print(json.dumps(stats, indent=2))
    else:
        print(format_stats_table(stats), end="")
    return 0


def _cmd_inspect(options: dict) -> int:
    # reading stops at the block asked for; only an index out of range
    # reads the whole file, to count its blocks for the message
    path, index = options["amr"], options["index"]
    with open(path, encoding="utf-8-sig") as handle:
        count = 0
        for raw in iter_blocks(handle):
            if count == index:
                break
            count += 1
        else:
            raise UsageError(f"index {index} out of range "
                             f"({count} blocks in {path})")
    graph = parse_block(raw)
    tree = preprocess(graph)
    print(f"id: {raw.label}")
    print(f"sentence: {raw.sentence}")
    print(f"original: {serialize_penman(graph)}")
    print("condensed:")
    print(format_tree(tree), end="")
    print("traversal: " + " -> ".join(n.concept_text for n in preorder(tree)))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        command, options = parse_args(sys.argv[1:] if argv is None else argv)
        if "help" in options:
            usages = [_USAGE[command]] if command else _USAGE.values()
            print("usage: amr2qa " + "       amr2qa ".join(usages), end="")
            return 0
        if command == "generate":
            return _cmd_generate(options)
        if command == "stats":
            return _cmd_stats(options)
        return _cmd_inspect(options)
    except ZeroSentences as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError, ConlluError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # settings are refused with a plain ValueError, hosts and texts the
        # codecs cannot take with a UnicodeError; any other ValueError class,
        # such as qgen.ArityMismatch, is a bug and shows its traceback
        if type(exc) is not ValueError and not isinstance(
                exc, (UsageError, TemplateError, UnicodeError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
