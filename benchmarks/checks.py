"""Output checks for benchmark runs.

There is no independent reference output for these inputs, so a run is
checked against invariants and for byte stability:

- the child exits 0;
- every dataset record is valid: ``answer.kind`` is ``span``,
  ``concept_fallback`` or ``sense``; ``answer.span`` lies inside its
  sentence; a ``span`` answer's text is the space-joined surfaces of the
  CoNLL-U tokens it names; ``scorer_id`` is the workload's scorer;
- the stderr run report balances: primary questions + skipped no-template
  + skipped duplicate = non-root nodes, and processed + failed sentences =
  the sentences in the input;
- the dataset sha256 is the same for every run of one workload and seed,
  the traced run included (checked by the caller).
"""

from __future__ import annotations

import hashlib
import json

ANSWER_KINDS = ("span", "concept_fallback", "sense")

_REPORT_KEYS = {
    "sentences processed": "sentences_processed",
    "sentences failed": "sentences_failed",
    "questions emitted": "questions_emitted",
    "sense questions": "sense_questions",
    "non-root nodes": "non_root_nodes",
    "skipped no-template": "skipped_no_template",
    "skipped duplicate": "skipped_duplicate",
    "scorer fallbacks": "scorer_fallbacks",
}


def conllu_surfaces(conllu: str) -> dict[str, list[str]]:
    """Token surfaces per ``sent_id``, read independently of the program."""
    surfaces: dict[str, list[str]] = {}
    for block in conllu.split("\n\n"):
        sent_id, tokens = None, []
        for line in block.splitlines():
            if line.startswith("# sent_id = "):
                sent_id = line[len("# sent_id = "):]
            elif line and not line.startswith("#"):
                tokens.append(line.split("\t")[1])
        if sent_id is not None:
            surfaces[sent_id] = tokens
    return surfaces


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_dataset(path, surfaces: dict[str, list[str]],
                  scorer_id: str) -> list[str]:
    """Problems found in the dataset's records (empty when valid)."""
    problems: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if len(problems) >= 5:
                break
            where = f"record {line_no}"
            try:
                record = json.loads(line)
                answer = record["answer"]
                kind, span = answer["kind"], answer["span"]
                tokens = surfaces.get(record["sentence_id"])
                if tokens is None:
                    problems.append(f"{where}: unknown sentence id")
                    continue
                if kind not in ANSWER_KINDS:
                    problems.append(f"{where}: answer kind {kind!r}")
                if span is not None:
                    start, end = span
                    if not 1 <= start <= end <= len(tokens):
                        problems.append(f"{where}: span {span} outside a "
                                        f"{len(tokens)}-token sentence")
                        continue
                if kind == "span" and (
                        span is None
                        or answer["text"] != " ".join(tokens[start - 1:end])):
                    problems.append(f"{where}: span answer text does not "
                                    f"match its tokens")
                if record["scorer_id"] != scorer_id:
                    problems.append(f"{where}: scorer_id "
                                    f"{record['scorer_id']!r}, expected "
                                    f"{scorer_id!r}")
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{where}: malformed ({exc!r})")
    return problems


def parse_report(stderr: str) -> dict[str, int]:
    """The run report ``generate`` prints to stderr, by field."""
    report = {}
    for line in stderr.splitlines():
        label, _, value = line.strip().rpartition(" ")
        key = _REPORT_KEYS.get(label.strip())
        if key is not None and value.isdigit():
            report[key] = int(value)
    return report


def check_report(report: dict[str, int], sentences: int) -> list[str]:
    missing = sorted(set(_REPORT_KEYS.values()) - set(report))
    if missing:
        return [f"run report lacks {', '.join(missing)}"]
    problems = []
    primary = report["questions_emitted"] - report["sense_questions"]
    buckets = (primary + report["skipped_no_template"]
               + report["skipped_duplicate"])
    if buckets != report["non_root_nodes"]:
        problems.append(f"run report does not balance: {buckets} bucketed "
                        f"vs {report['non_root_nodes']} non-root nodes")
    seen = report["sentences_processed"] + report["sentences_failed"]
    if seen != sentences:
        problems.append(f"run report covers {seen} of {sentences} sentences")
    return problems
