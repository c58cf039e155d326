"""Shipped-guarantee checks, one test per criterion.

Each test prints a single PASS/FAIL line to the real stderr so the verdicts
are visible in any run, captured or not. The three full-corpus checks (5, 6,
8) run against a deterministic 1,562-sentence synthetic corpus unless
LITTLE_PRINCE_AMR and LITTLE_PRINCE_CONLLU point at a real corpus on disk;
the printed line names the substrate used.
"""

import os
import random
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import synth_corpus
from amr2qa.agen import extract_answer
from amr2qa.annotate import align_concepts, subtree_span
from amr2qa.cli import main as cli_main
from amr2qa.corpus import compute_stats, iter_dataset, split_blocks
from amr2qa.penman import PenmanError, parse_penman, serialize_penman, to_triples
from amr2qa.pipeline import RunConfig, run_generate
from amr2qa.preprocess import format_tree, preorder, preprocess
from amr2qa.qgen import best_question, generate_candidates
from amr2qa.scorer import BaselineScorer

from helpers import (
    FIXTURES,
    MockLM,
    annotation_from_heads,
    default_store,
    load_penman_corpus,
    random_tree_heads,
)
from test_preprocess import fixture_pairs, run_passes
from test_qgen import BROKEN

YES_NO_OPENERS = {"is", "are", "was", "were", "am", "do", "does", "did",
                  "will", "would", "can", "could", "should", "shall",
                  "has", "have", "had", "may", "might", "must"}

# consumed by conftest's terminal-summary hook
VERDICT_LINES: list[str] = []


def _report(criterion: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {criterion}: {verdict} ({detail})"
    VERDICT_LINES.append(line)
    print(f"[acceptance] {line}", file=sys.__stderr__, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    amr_env = os.environ.get("LITTLE_PRINCE_AMR")
    conllu_env = os.environ.get("LITTLE_PRINCE_CONLLU")
    if amr_env and conllu_env:
        return Path(amr_env), Path(conllu_env), "real corpus"
    root = tmp_path_factory.mktemp("bigrun")
    amr_text, conllu_text = synth_corpus.generate()
    amr = root / "big.amr"
    conllu = root / "big.conllu"
    amr.write_text(amr_text, encoding="utf-8")
    conllu.write_text(conllu_text, encoding="utf-8")
    return amr, conllu, "synthetic stand-in"


def test_criterion_1_penman_round_trip():
    started = time.perf_counter()
    graphs = load_penman_corpus()
    assert any("-of" in g for g in graphs)          # inverse relations
    assert any("\n" in g for g in graphs)           # multi-line layouts
    assert any('"' in g for g in graphs)            # string constants
    reentrant = 0
    for text in graphs:
        first = parse_penman(text)
        second = parse_penman(serialize_penman(first))
        triples = to_triples(first)
        assert sorted(triples) == sorted(to_triples(second)), text
        # reentrancy: a defined variable is the target of two edges, or the
        # root is the target of any edge
        variables = {t[0] for t in triples if t[1] == "instance"}
        targets = Counter(t[2] for t in triples
                          if t[1] != "instance" and t[2] in variables)
        if targets.get(triples[0][0], 0) >= 1 or any(
                count >= 2 for count in targets.values()):
            reentrant += 1
    assert reentrant >= 1

    rng = random.Random(0xF022)
    for _ in range(10_000):
        blob = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 80))).decode("latin-1")
        try:
            parse_penman(blob)
        except PenmanError:
            pass                 # rejection is fine, any other raise is not
    elapsed = time.perf_counter() - started
    ok = len(graphs) >= 50 and elapsed < 10.0
    _report("1 (round-trip + fuzz)", ok,
            f"{len(graphs)} fixtures stable, 10000 random byte strings, "
            f"{elapsed:.1f}s")


def test_criterion_2_preprocessing_goldens():
    pairs = fixture_pairs()
    for amr, golden, name in pairs:
        graph = parse_penman(amr)
        assert format_tree(preprocess(graph)) == golden, name
        once = run_passes(graph)
        twice = run_passes(once)
        assert serialize_penman(once) == serialize_penman(twice), name
    ok = len(pairs) >= 20
    _report("2 (preprocessing goldens)", ok,
            f"{len(pairs)} fixtures byte-identical and idempotent")


def test_criterion_3_subtree_oracle():
    started = time.perf_counter()
    rng = random.Random(0x5AB7)
    checked = 0
    for _ in range(1000):
        n = rng.randrange(1, 31)
        heads = random_tree_heads(rng, n)
        ann = annotation_from_heads(heads)
        children = defaultdict(list)
        for index, head in enumerate(heads, start=1):
            children[head].append(index)
        for index in range(1, n + 1):
            seen = {index}
            todo = [index]
            while todo:
                for child in children[todo.pop()]:
                    if child not in seen:
                        seen.add(child)
                        todo.append(child)
            assert subtree_span(ann, index) == (min(seen), max(seen))
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    _report("3 (subtree oracle)", ok,
            f"1000 trees / {checked} spans match brute force, {elapsed:.1f}s")


def test_criterion_4_engine_example_selection():
    tree = preprocess(parse_penman("(b / break-01 :ARG1 (e / engine))"))
    alignment = align_concepts(tree, BROKEN)
    engine = preorder(tree)[1]
    candidates = generate_candidates(engine, tree, default_store(),
                                     BROKEN, alignment)
    texts = [c.filled_text for c in candidates]
    assert "What was broken ?" in texts
    assert "What broken ?" in texts
    baseline = BaselineScorer.bundled()
    best = best_question(candidates, {text: baseline.score(text)
                                      for text in texts})
    answer = extract_answer(best.entity_ref, BROKEN, alignment)
    ok = (best.filled_text == "What was broken ?"
          and answer.span == (1, 2) and answer.text == "The engine")
    _report("4 (scored selection)", ok,
            f"picked {best.filled_text!r} over 'What broken ?', "
            f"answer {answer.text!r} span {answer.span}")


def test_criterion_5_full_run_validity(big_corpus, tmp_path):
    amr, conllu, substrate = big_corpus
    out = tmp_path / "full.jsonl"
    started = time.perf_counter()
    report = run_generate(RunConfig(amr_path=str(amr),
                                    conllu_path=str(conllu),
                                    output_path=str(out), workers=4))
    elapsed = time.perf_counter() - started
    assert report.sentences_failed == 0
    if substrate == "synthetic stand-in":
        assert report.sentences_processed == 1562

    sentences = {}
    for raw in split_blocks(amr.read_text(encoding="utf-8")):
        label = raw.id if raw.id is not None else str(raw.position)
        sentences[label] = raw.sentence or ""
    pairs = list(iter_dataset(str(out)))
    assert pairs

    bad_end = sum(1 for p in pairs if not p.question.endswith("?"))
    bad_start = sum(1 for p in pairs
                    if p.question.split()[0].lower() in YES_NO_OPENERS)
    with_token = sum(
        1 for p in pairs
        if {w.lower() for w in p.question.split()}
        & {w.lower() for w in sentences[p.sentence_id].split()})
    overlap = with_token / len(pairs)
    dupes = sum(1 for count in Counter(
        (p.sentence_id, p.question, p.answer.text) for p in pairs).values()
        if count > 1)

    ok = (bad_end == 0 and bad_start == 0 and overlap >= 0.90
          and dupes == 0 and elapsed < 60.0)
    _report("5 (full-run validity)", ok,
            f"{substrate}: {len(pairs)} questions / "
            f"{report.sentences_processed} sentences, 100% end '?', "
            f"{bad_start} yes/no openers, {overlap:.1%} contain a sentence "
            f"token, {dupes} duplicates, {elapsed:.1f}s")


def test_criterion_6_worker_determinism(big_corpus, tmp_path):
    amr, conllu, substrate = big_corpus
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}.jsonl"
        run_generate(RunConfig(amr_path=str(amr), conllu_path=str(conllu),
                               output_path=str(out), workers=workers))
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report("6 (worker determinism)", ok,
            f"{substrate}: --workers 1 and --workers 8 byte-identical "
            f"({len(outputs[0])} bytes)")


def test_criterion_6_worker_determinism_remote(big_corpus, tmp_path):
    amr, conllu, substrate = big_corpus
    outputs, fallbacks = [], []
    with MockLM() as lm:
        for workers in (1, 8):
            out = tmp_path / f"w{workers}.jsonl"
            report = run_generate(RunConfig(
                amr_path=str(amr), conllu_path=str(conllu),
                output_path=str(out), scorer="remote", scorer_url=lm.url,
                workers=workers))
            outputs.append(out.read_bytes())
            fallbacks.append(report.scorer_fallbacks)
    scorer_ids = {p.scorer_id for p in iter_dataset(str(out))}
    ok = (outputs[0] == outputs[1] and len(outputs[0]) > 0
          and fallbacks == [0, 0] and scorer_ids == {"remote"})
    _report("6 (worker determinism, remote)", ok,
            f"{substrate}: threaded mock LM, --workers 1 and --workers 8 "
            f"byte-identical ({len(outputs[0])} bytes), "
            f"{sum(lm.requests.values())} requests, fallbacks {fallbacks}")


def test_criterion_7_stats_oracle():
    dataset = FIXTURES / "corpus" / "mini_dataset.jsonl"
    pairs = list(iter_dataset(str(dataset)))
    display = compute_stats(pairs, sentence_count=3)
    # hand tally over the fixture: 6 questions / 3 sentences; question
    # lengths 4+7+3+5+5+5 = 29 tokens; answer lengths 2+1+1+1+6+1 = 12;
    # 18 distinct lowercased question words; one fallback answer
    expected = {
        "total_questions": 6,
        "avg_questions_per_sentence": "2.00",
        "unique_word_count": 18,
        "avg_question_length": "4.83",
        "avg_answer_length": "2.00",
        "skipped_node_count": 0,
        "fallback_answer_count": 1,
    }
    ok = display == expected
    _report("7 (stats oracle)", ok,
            f"3-sentence fixture matches hand tally: {display}")


def test_criterion_8_fallback_safety(big_corpus, tmp_path, monkeypatch):
    monkeypatch.delenv("ASQ_SCORER_URL", raising=False)
    amr, conllu, substrate = big_corpus
    out = tmp_path / "fallback.jsonl"
    rc = cli_main(["generate", "--amr", str(amr), "--conllu", str(conllu),
                   "--out", str(out), "--scorer", "remote",
                   "--scorer-url", "http://127.0.0.1:1/score",
                   "--workers", "4"])
    pairs = list(iter_dataset(str(out)))
    scorer_ids = {p.scorer_id for p in pairs}
    ok = rc == 0 and len(pairs) > 0 and scorer_ids == {"baseline"}
    _report("8 (fallback safety)", ok,
            f"{substrate}: unreachable scorer URL, exit code {rc}, "
            f"{len(pairs)} questions all scored by {sorted(scorer_ids)}")
