"""Command line front end.

Subcommands:
  generate   full corpus run: AMR + CoNLL-U in, scored QA dataset out
  stats      summary table for a previously generated dataset
  inspect    show one graph before and after preprocessing

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

import argparse
import os
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route through our own
    # exception so the documented exit codes hold
    def error(self, message):
        raise UsageError(message)


# config-file key (the flag's dest) -> RunConfig field
_FIELDS = {"amr": "amr_path", "conllu": "conllu_path", "out": "output_path",
           "templates": "template_path", "mapping": "mapping_path",
           "scorer": "scorer", "scorer_url": "scorer_url", "pair": "pairing",
           "workers": "workers"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="amr2qa",
                     description="Generate question-answer pairs from "
                                 "sentence-aligned AMR graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full generation pipeline")
    gen.add_argument("--amr", help="AMR corpus file (blocks of ::id/::snt "
                                   "metadata plus one graph each)")
    gen.add_argument("--conllu", help="CoNLL-U annotations for the same "
                                      "sentences")
    gen.add_argument("--templates", help="template resource file "
                                         "(default: bundled pack)")
    gen.add_argument("--mapping", help="role mapping file "
                                       "(default: bundled pack)")
    gen.add_argument("--out", help="output JSONL dataset path")
    gen.add_argument("--scorer", choices=tuple(SCORERS),
                     help="question scorer (default baseline)")
    gen.add_argument("--scorer-url", dest="scorer_url",
                     help="endpoint for --scorer remote")
    gen.add_argument("--pair", choices=tuple(PAIRINGS),
                     help="how graphs match annotations (default by-order)")
    gen.add_argument("--workers", type=int,
                     help="concurrent requests to the remote scorer; no "
                          "effect with the baseline (default 1)")
    gen.add_argument("--config", help="JSON file with the same keys as the "
                                      "flags; flags take precedence")

    stats = sub.add_parser("stats", help="summarize a generated dataset")
    stats.add_argument("dataset", help="JSONL dataset file")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output instead of the table")

    ins = sub.add_parser("inspect", help="show one graph before and after "
                                         "preprocessing")
    ins.add_argument("--amr", required=True, help="AMR corpus file")
    ins.add_argument("--index", type=int, required=True,
                     help="0-based block index")
    return parser


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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file, flags, and environment into a RunConfig. A
    setting none of them gives keeps RunConfig's default; run_generate
    checks the values."""
    settings = _load_config_file(args.config) if args.config else {}
    for key in _FIELDS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    env_url = os.environ.get("ASQ_SCORER_URL")
    if env_url:
        settings["scorer_url"] = env_url
    for key in ("amr", "conllu", "out"):
        if not settings.get(key):
            raise UsageError(f"--{key} is required")
    return RunConfig(**{_FIELDS[key]: value
                        for key, value in settings.items()})


def _cmd_generate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    report = run_generate(config)
    for line in report.lines():
        print(line, file=sys.stderr)
    if report.sentences_processed == 0:
        print("error: no sentences could be processed", file=sys.stderr)
        return 3
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # two passes over the file, so no more than one pair is held at a time
    sentence_count = len({pair.sentence_id
                          for pair in iter_dataset(args.dataset)})
    stats = compute_stats(iter_dataset(args.dataset), sentence_count)
    if args.json:
        import json

        print(json.dumps(stats, indent=2))
    else:
        print(format_stats_table(stats), end="")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    # reading stops at the block asked for; only an index out of range
    # reads the whole file, to count its blocks for the message
    with open(args.amr, encoding="utf-8-sig") as handle:
        count = 0
        for raw in iter_blocks(handle):
            if count == args.index:
                break
            count += 1
        else:
            raise UsageError(f"index {args.index} out of range "
                             f"({count} blocks in {args.amr})")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_inspect(args)
    except SystemExit as exc:      # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
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
