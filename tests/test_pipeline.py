"""End-to-end pipeline behavior on small corpora."""

import gc
import hashlib
import importlib.util
import io
import json
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_corpus
from amr2qa import corpus, pipeline
from amr2qa.agen import SPAN, span_text
from amr2qa.annotate import (
    ConlluError,
    SentenceAnnotation,
    Token,
    align_concepts,
    iter_conllu,
    parse_conllu,
)
from amr2qa.corpus import (
    CorpusError,
    CountMismatch,
    UnresolvedId,
    ZeroSentences,
    iter_blocks,
    iter_dataset,
    parse_block,
    split_blocks,
    write_dataset,
)
from amr2qa.penman import parse_penman, strip_sense
from amr2qa.pipeline import (
    BatchScorer,
    PAIRINGS,
    SENSE_RELATION,
    RunConfig,
    RunReport,
    check_pair,
    process_sentence,
    run_generate,
)
from amr2qa.preprocess import preorder, preprocess
from amr2qa.qgen import ArityMismatch, generate_candidates
from amr2qa.templates import UPOS_TAGS
from amr2qa.scorer import (
    BaselineScorer,
    RemoteScorer,
    ScorerUnavailable,
)

from helpers import (
    MockLM,
    RawReplyServer,
    default_store,
    fuzz_strings,
    no_cyclic_garbage,
    random_amr_text,
    random_promotion_amr_text,
    random_tree_heads,
)
from test_penman import nested_graph
from test_qgen import BROKEN

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"
MINI_AMR = str(FIXTURES / "mini.amr")
MINI_CONLLU = str(FIXTURES / "mini.conllu")


def mini_config(out, **overrides) -> RunConfig:
    base = dict(amr_path=MINI_AMR, conllu_path=MINI_CONLLU,
                output_path=str(out))
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def store():
    return default_store()


@pytest.fixture(scope="module")
def baseline():
    return BaselineScorer.bundled()


@pytest.fixture
def report():
    return RunReport()


@pytest.fixture
def batch(baseline, report):
    return BatchScorer(baseline, workers=1, report=report)


def parsed_block(amr_text: str, position: int = 1):
    """The root and label of a one-block corpus, as ``run_generate``
    hands them to ``process_sentence``."""
    raw = split_blocks(f"# ::id t{position}\n# ::snt dummy\n{amr_text}")[0]
    return parse_block(raw), raw.label


class TestProcessSentence:
    def test_engine_sentence(self, store, batch, report):
        text = Path(MINI_AMR).read_text()
        first = split_blocks(text)[0]
        pairs = process_sentence(parse_block(first), first.label, BROKEN,
                                 store, batch, report)
        assert report.non_root_nodes == 1
        assert report.skipped_no_template == 0
        assert report.skipped_duplicate == 0
        assert report.sense_questions == 1
        assert report.questions_emitted == 2
        questions = [p.question for p in pairs]
        assert questions == ["What was broken ?",
                             "What is the sense of broken ?"]
        primary = pairs[0]
        assert primary.answer.text == "The engine"
        assert primary.answer.span == (1, 2)
        assert primary.sentence_id == "s1"
        assert primary.score is not None
        assert primary.scorer_id == "baseline"

    def test_sense_pair_carries_block_label(self, store, batch, report):
        sentence = parsed_block("(b / break-01 :ARG1 (e / engine))",
                                position=7)
        pairs = process_sentence(*sentence, BROKEN, store, batch, report)
        sense = [p for p in pairs if p.relation == "sense"]
        assert len(sense) == 1
        assert sense[0].sentence_id == "t7"
        assert sense[0].question == "What is the sense of broken ?"
        assert sense[0].answer.text == "break-01"
        assert (sense[0].node, sense[0].template_id) == ("b", "verb-sense")
        assert sense[0].score is not None

    def test_duplicate_question_answer_skipped(self, store, batch, report):
        # both ARG1 children are unaligned copies: identical question text
        # and identical fallback answer, so the second one is a duplicate
        sentence = parsed_block(
            "(x / xyzzyfy-01 :ARG1 (p / plugh) :ARG1 (p2 / plugh))")
        pairs = process_sentence(*sentence, BROKEN, store, batch, report)
        assert report.non_root_nodes == 2
        assert report.skipped_duplicate == 1
        texts = [(p.question, p.answer.text) for p in pairs
                 if p.relation != "sense"]
        assert len(texts) == len(set(texts)) == 1

    def test_unknown_relation_counts_as_no_template(self, store, batch,
                                                    report):
        sentence = parsed_block("(b / break-01 :quibble (e / engine))")
        pairs = process_sentence(*sentence, BROKEN, store, batch, report)
        assert report.non_root_nodes == 1
        assert report.skipped_no_template == 1
        assert [p.relation for p in pairs] == ["sense"]

    def test_candidates_get_their_tree_parent(self, store, batch, report,
                                              monkeypatch):
        calls = []

        def recorded(node, parent, *args):
            candidates = generate_candidates(node, parent, *args)
            calls.append((node, parent, candidates))
            return candidates

        monkeypatch.setattr(pipeline, "generate_candidates", recorded)
        sentence = parsed_block(
            "(p / person :ARG0-of (i / invent-01 :ARG1 (c / car)))")
        process_sentence(*sentence, BROKEN, store, batch, report)
        assert [(node.variable, parent.variable)
                for node, parent, _ in calls] == [("i", "p"), ("c", "i")]
        assert all(node in parent.children for node, parent, _ in calls)
        # the inverse edge asks about the parent: the answer comes from p
        invent, person, candidates = calls[0]
        assert candidates
        assert all(c.entity_ref is person for c in candidates)

    def test_every_node_lands_in_one_bucket(self, store, batch, report):
        sentence = parsed_block(
            "(s / stand-01 :ARG0 (h / he) :location (m / middle "
            ":part (d / desert)) :quibble (q / quux))")
        pairs = process_sentence(*sentence, BROKEN, store, batch, report)
        primary = sum(1 for p in pairs if p.relation != "sense")
        assert (primary + report.skipped_no_template
                + report.skipped_duplicate == report.non_root_nodes == 4)


_XPOS = ["NN", "NNS", "NNP", "VB", "VBD", "VBN", "VBG", "VBP", "VBZ", "JJ",
         "RB", "MD", "CD", "DT", "IN", "PRP"]
_TENSE_FEATS = ["_", "Tense=Past", "Tense=Pres"]
_FILLER = ["the", "will", "shall", "of", "in", "quickly", "Mary", "3"]


def random_sentence(rng: random.Random) -> tuple[str, SentenceAnnotation]:
    """A random graph and an annotation of 1-12 tokens over a random tree.
    About half the lemmas spell the graph's concepts, whole concepts in
    order where there is room, so that single- and multi-word alignment and
    span answers both run; the rest are filler, "will" among them."""
    make = rng.choice([random_amr_text, random_promotion_amr_text])
    amr_text = make(rng)
    concepts = [strip_sense(node.concept_text).split()
                for node in preorder(preprocess(parse_penman(amr_text)))]
    concepts = [words for words in concepts if words]
    n = rng.randrange(1, 13)
    lemmas: list[str] = []
    while len(lemmas) < n:
        if concepts and rng.randrange(2):
            lemmas.extend(rng.choice(concepts))
        else:
            lemmas.append(rng.choice(_FILLER))
    tokens = [Token(surface=rng.choice([lemma, lemma.upper(), lemma + "s"]),
                    lemma=lemma, upos=rng.choice(sorted(UPOS_TAGS)),
                    xpos=rng.choice(_XPOS), feats=rng.choice(_TENSE_FEATS),
                    head=head)
              for lemma, head in zip(lemmas, random_tree_heads(rng, n))]
    return amr_text, SentenceAnnotation("r", tokens)


class TestProcessSentenceProperty:
    """Invariants of one sentence's result on random (graph, annotation)
    pairs. An exception in a stage is a bug that stops a run, so a fault
    shows here before a corpus meets it."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariants(self, store, baseline, seed):
        amr_text, ann = random_sentence(random.Random(seed))
        report = RunReport()
        batch = BatchScorer(baseline, workers=1, report=report)
        pairs = process_sentence(*parsed_block(amr_text), ann, store, batch,
                                 report)
        primary = [p for p in pairs if p.relation != SENSE_RELATION]
        assert (len(primary) + report.skipped_no_template
                + report.skipped_duplicate == report.non_root_nodes)
        assert len(pairs) - len(primary) == report.sense_questions
        assert len(pairs) == report.questions_emitted
        n = len(ann.tokens)
        for pair in pairs:
            if pair.answer.kind == SPAN:
                start, end = pair.answer.span
                assert 1 <= start <= end <= n
                assert pair.answer.text == span_text(ann, pair.answer.span)
        assert len({p.scorer_id for p in pairs}) <= 1
        keys = [(p.question, p.answer.text) for p in pairs]
        assert len(set(keys)) == len(keys)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_aligned_span_spells_its_concept(self, seed):
        amr_text, ann = random_sentence(random.Random(seed))
        tree = preprocess(parse_penman(amr_text))
        for node, (start, end) in align_concepts(tree, ann).items():
            if node.is_reference:
                continue
            words = strip_sense(node.concept_text).lower().split()
            window = ann.tokens[start - 1:end]
            assert 1 <= start <= end <= len(ann.tokens)
            assert len(window) == len(words)
            assert all(word in (token.lemma.lower(), token.surface.lower())
                       for token, word in zip(window, words))


class TestPairBlocks:
    def blocks(self):
        return split_blocks(Path(MINI_AMR).read_text())

    def anns(self):
        from amr2qa.annotate import parse_conllu
        return parse_conllu(Path(MINI_CONLLU).read_text())

    def test_by_order_zips(self):
        tasks = PAIRINGS["by-order"](self.blocks(), self.anns())
        assert [(raw.id, ann.sentence_id) for raw, ann in tasks] == [
            ("s1", "s1"), ("s2", "s2"), ("s3", "s3")]

    def test_by_order_count_mismatch(self):
        with pytest.raises(CountMismatch):
            list(PAIRINGS["by-order"](self.blocks(), self.anns()[:2]))

    def test_by_id_reorders(self):
        anns = self.anns()
        tasks = PAIRINGS["by-id"](self.blocks(), list(reversed(anns)))
        assert [(raw.id, ann.sentence_id) for raw, ann in tasks] == [
            ("s1", "s1"), ("s2", "s2"), ("s3", "s3")]

    def test_by_id_missing_annotation_yields_none(self):
        tasks = list(PAIRINGS["by-id"](self.blocks(), self.anns()[:2]))
        assert tasks[2][1] is None
        assert tasks[0][1] is not None

    def test_by_id_duplicate_annotation_ids(self):
        anns = self.anns()
        with pytest.raises(UnresolvedId):
            PAIRINGS["by-id"](self.blocks(), [anns[0], anns[0]])

    def test_unknown_strategy(self, tmp_path):
        with pytest.raises(ValueError, match="by-balloon"):
            run_generate(mini_config(tmp_path / "o.jsonl",
                                     pairing="by-balloon"))


class TestRunGenerate:
    def test_mini_corpus_report(self, tmp_path):
        out = tmp_path / "out.jsonl"
        report = run_generate(mini_config(out))
        assert report.sentences_processed == 3
        assert report.sentences_failed == 0
        assert report.non_root_nodes == 6
        assert report.sense_questions == 3
        assert report.questions_emitted == 9
        primary = report.questions_emitted - report.sense_questions
        assert (primary + report.skipped_no_template
                + report.skipped_duplicate == report.non_root_nodes)
        assert report.wall_time_seconds >= 0

    def test_dataset_contents(self, tmp_path):
        out = tmp_path / "out.jsonl"
        run_generate(mini_config(out))
        pairs = list(iter_dataset(str(out)))
        assert pairs[0].question == "What was broken ?"
        assert pairs[0].answer.text == "The engine"
        assert pairs[0].answer.span == (1, 2)
        assert {p.sentence_id for p in pairs} == {"s1", "s2", "s3"}
        assert all(p.scorer_id == "baseline" for p in pairs)

    def test_worker_count_does_not_change_output(self, tmp_path):
        byte_versions = set()
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}.jsonl"
            run_generate(mini_config(out, workers=workers))
            byte_versions.add(out.read_bytes())
        assert len(byte_versions) == 1

    def test_by_id_matches_by_order_on_shuffled_annotations(self, tmp_path):
        blocks = Path(MINI_CONLLU).read_text().strip().split("\n\n")
        shuffled = tmp_path / "shuffled.conllu"
        shuffled.write_text("\n\n".join([blocks[2], blocks[0], blocks[1]])
                            + "\n")
        ordered_out = tmp_path / "ordered.jsonl"
        run_generate(mini_config(ordered_out))
        shuffled_out = tmp_path / "byid.jsonl"
        run_generate(mini_config(shuffled_out, conllu_path=str(shuffled),
                                 pairing="by-id"))
        assert shuffled_out.read_bytes() == ordered_out.read_bytes()

    def test_malformed_block_is_skipped_not_fatal(self, tmp_path):
        amr = tmp_path / "mixed.amr"
        amr.write_text(
            "# ::id s1\n# ::snt The engine was broken .\n"
            "(b / break-01 :ARG1 (e / engine))\n\n"
            "# ::id s2\n# ::snt Mary visits museums twice .\n"
            "(v / visit-01 :ARG0 (p /\n\n"
            "# ::id s3\n# ::snt He stood in the middle of the desert .\n"
            "(s / stand-01 :ARG0 (h / he))\n")
        out = tmp_path / "out.jsonl"
        report = run_generate(mini_config(out, amr_path=str(amr)))
        assert report.sentences_processed == 2
        assert report.sentences_failed == 1
        ids = {p.sentence_id for p in iter_dataset(str(out))}
        assert ids == {"s1", "s3"}

    def test_block_nested_too_deep_is_skipped(self, tmp_path, caplog):
        amr = tmp_path / "deep.amr"
        amr.write_text(
            "# ::id s1\n# ::snt The engine was broken .\n"
            "(b / break-01 :ARG1 (e / engine))\n\n"
            "# ::id s2\n# ::snt Mary visits museums twice .\n"
            + nested_graph(sys.getrecursionlimit()) + "\n\n"
            "# ::id s3\n# ::snt He stood in the middle of the desert .\n"
            "(s / stand-01 :ARG0 (h / he))\n")
        out = tmp_path / "out.jsonl"
        with caplog.at_level("WARNING", logger="amr2qa"):
            report = run_generate(mini_config(out, amr_path=str(amr)))
        assert report.sentences_processed == 2
        assert report.sentences_failed == 1
        [record] = caplog.records
        assert record.getMessage() == (
            "skipped: sentence 's2': graph nesting too deep (at offset 0) "
            "(block 2)")
        assert {p.sentence_id for p in iter_dataset(str(out))} == {"s1", "s3"}

    def test_by_id_missing_annotation_fails_that_sentence(self, tmp_path,
                                                          caplog):
        blocks = Path(MINI_CONLLU).read_text().strip().split("\n\n")
        partial = tmp_path / "partial.conllu"
        partial.write_text("\n\n".join(blocks[:2]) + "\n")
        out = tmp_path / "out.jsonl"
        with caplog.at_level("WARNING", logger="amr2qa"):
            report = run_generate(mini_config(out, conllu_path=str(partial),
                                              pairing="by-id"))
        assert report.sentences_processed == 2
        assert report.sentences_failed == 1
        assert {p.sentence_id for p in iter_dataset(str(out))} == {"s1", "s2"}
        assert caplog.messages == [
            "skipped: sentence 's3': no annotation with id 's3' (block 3)"]

    @pytest.mark.parametrize("sent_id, warning", [
        ("", "skipped: sentence '': "),
        ("s1", "skipped: sentence '': no annotation with id '' (block 1)"),
    ], ids=["failed-block", "no-annotation"])
    def test_empty_id_is_logged_under_its_pairing_label(
            self, tmp_path, caplog, sent_id, warning):
        # "# ::id" with no value: by-id pairing looks the block up under
        # '', not under its ordinal, so the warning must name '' too
        amr = tmp_path / "empty-id.amr"
        amr.write_text("# ::id\n# ::snt The engine was broken .\n"
                       "(b / break-01 :ARG1 (e /\n")
        first = Path(MINI_CONLLU).read_text().split("\n\n")[0]
        conllu = tmp_path / "one.conllu"
        conllu.write_text(first.replace("s1", sent_id) + "\n")
        with caplog.at_level("WARNING", logger="amr2qa"):
            report = run_generate(mini_config(
                tmp_path / "out.jsonl", amr_path=str(amr),
                conllu_path=str(conllu), pairing="by-id"))
        assert report.sentences_failed == 1
        [record] = caplog.records
        assert record.getMessage().startswith(warning)

    def test_empty_corpus_raises(self, tmp_path):
        amr = tmp_path / "empty.amr"
        amr.write_text("\n\n  \n")
        with pytest.raises(ZeroSentences):
            run_generate(mini_config(tmp_path / "o.jsonl",
                                     amr_path=str(amr)))

    def test_count_mismatch_aborts(self, tmp_path):
        blocks = Path(MINI_CONLLU).read_text().strip().split("\n\n")
        short = tmp_path / "short.conllu"
        short.write_text(blocks[0] + "\n")
        with pytest.raises(CountMismatch):
            run_generate(mini_config(tmp_path / "o.jsonl",
                                     conllu_path=str(short)))

    def test_bad_worker_count(self, tmp_path):
        with pytest.raises(ValueError):
            run_generate(mini_config(tmp_path / "o.jsonl", workers=0))

    def test_unknown_scorer_kind(self, tmp_path):
        with pytest.raises(ValueError):
            run_generate(mini_config(tmp_path / "o.jsonl", scorer="oracle"))

    def test_unreachable_remote_scorer_degrades_to_baseline(self, tmp_path):
        out = tmp_path / "out.jsonl"
        report = run_generate(mini_config(
            out, scorer="remote", scorer_url="http://127.0.0.1:1/score"))
        assert report.sentences_processed == 3
        assert report.scorer_fallbacks > 0
        pairs = list(iter_dataset(str(out)))
        assert pairs
        assert {p.scorer_id for p in pairs} == {"baseline"}

    def test_all_blocks_malformed_yields_empty_output(self, tmp_path):
        amr = tmp_path / "bad.amr"
        amr.write_text("# ::id a\n# ::snt The engine was broken .\n(x /\n")
        conllu = tmp_path / "one.conllu"
        conllu.write_text(
            Path(MINI_CONLLU).read_text().strip().split("\n\n")[0] + "\n")
        out = tmp_path / "out.jsonl"
        report = run_generate(mini_config(out, amr_path=str(amr),
                                          conllu_path=str(conllu)))
        assert report.sentences_processed == 0
        assert report.sentences_failed == 1
        assert out.read_bytes() == b""

    def test_output_is_valid_jsonl(self, tmp_path):
        out = tmp_path / "out.jsonl"
        run_generate(mini_config(out))
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {
                "sentence_id", "question", "answer", "relation", "node",
                "template_id", "score", "scorer_id"}


def corrupt(block: str, kind: str, at: int) -> str:
    """``block`` with its ``::snt`` line dropped, or with its one-line
    graph cut short, given one parenthesis too few or too many, or nested
    3,000 deep. A parse uses up its parentheses in pairs, so a graph that
    is cut short or has unpaired parentheses cannot parse."""
    lines = block.split("\n")
    if kind == "drop-snt":
        return "\n".join(line for line in lines
                         if not line.startswith("# ::snt"))
    graph = lines[-1]
    parens = [i for i, char in enumerate(graph) if char in "()"]
    if kind == "nest":
        graph = ("".join(f"(d{i} / deep :mod " for i in range(3000)) + graph
                 + ")" * 3000)
    elif kind == "truncate":
        graph = graph[:1 + at % (len(graph) - 1)]
    elif kind == "delete":
        cut = parens[at % len(parens)]
        graph = graph[:cut] + graph[cut + 1:]
    else:   # insert, before a parenthesis, so never inside a string
        cut = parens[at % len(parens)]
        graph = graph[:cut] + "()"[at % 2] + graph[cut:]
    return "\n".join(lines[:-1] + [graph])


SMALL_AMR, SMALL_CONLLU = synth_corpus.generate(20, seed=11)


def run_text(directory: Path, amr_text: str, conllu_text=SMALL_CONLLU,
             **settings):
    """The report and dataset text of a run on ``amr_text`` and
    ``conllu_text``, by default the small corpus's annotations, with
    ``settings`` as RunConfig fields."""
    amr, conllu = directory / "in.amr", directory / "in.conllu"
    amr.write_text(amr_text)
    conllu.write_text(conllu_text)
    out = directory / "out.jsonl"
    report = run_generate(mini_config(out, amr_path=str(amr),
                                      conllu_path=str(conllu), **settings))
    return report, out.read_text()


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    report, text = run_text(tmp_path_factory.mktemp("clean"), SMALL_AMR)
    return report, text.splitlines()


class TestBadSentence:
    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, 19),
           kind=st.sampled_from(["truncate", "delete", "insert", "nest",
                                 "drop-snt"]),
           at=st.integers(0, 10**6))
    def test_costs_only_that_sentence(self, clean_run, tmp_path_factory,
                                      index, kind, at):
        clean_report, clean_lines = clean_run
        blocks = SMALL_AMR.rstrip("\n").split("\n\n")
        bad_id = blocks[index].split("\n")[0].removeprefix("# ::id ")
        blocks[index] = corrupt(blocks[index], kind, at)
        report, text = run_text(tmp_path_factory.mktemp("bad"),
                                "\n\n".join(blocks) + "\n")
        assert report.sentences_failed == clean_report.sentences_failed + 1
        assert text.splitlines() == [
            line for line in clean_lines
            if json.loads(line)["sentence_id"] != bad_id]


def spelling(text: str) -> str:
    return "".join(text.split())


def subclasses(cls) -> list[type]:
    """``cls`` and every class below it, by name."""
    found = [cls]
    for sub in found:
        found.extend(sub.__subclasses__())
    return sorted(found, key=lambda c: c.__name__)


class TestPairCheck:
    def test_shifted_annotations_fail_their_sentences(self, tmp_path,
                                                      caplog):
        # annotation 101 dropped and the last one repeated, so the counts
        # still match and by-order pairs each later graph with the words
        # of the sentence after it
        amr, conllu = synth_corpus.generate()
        annotations = conllu.rstrip("\n").split("\n\n")
        shifted = annotations[:100] + annotations[101:] + annotations[-1:]
        snts = [raw.sentence for raw in split_blocks(amr)]
        texts = [ann.split("\n")[1].removeprefix("# text = ")
                 for ann in shifted]
        mismatched = sum(spelling(snt) != spelling(text)
                         for snt, text in zip(snts, texts))
        assert mismatched > 1400
        with caplog.at_level("WARNING", logger="amr2qa"):
            report, _ = run_text(tmp_path, amr, "\n\n".join(shifted) + "\n")
        assert report.sentences_failed == mismatched
        assert report.sentences_processed == len(snts) - mismatched
        assert len(caplog.records) == mismatched
        assert caplog.records[0].getMessage() == (
            "skipped: sentence 'lp0101': ::snt is not spelled by the words "
            "of annotation 'lp0102' (block 101)")

    def test_spacing_and_multiword_ranges_do_not_count(self, tmp_path):
        # the words of "The engine was broken ." spell the ::snt however
        # the sentence is spaced; a multiword range is not a word
        amr = Path(MINI_AMR).read_text().replace(
            "The engine was broken .", "The\tengine  was broken.")
        conllu = Path(MINI_CONLLU).read_text().replace(
            "3\twas", "3-4\twas broken\t_\t_\t_\t_\t_\t_\t_\t_\n3\twas")
        report, _ = run_text(tmp_path, amr, conllu)
        assert (report.sentences_processed, report.sentences_failed) == (3, 0)


class TestSkipPolicy:
    @pytest.mark.parametrize("error", [KeyError("boom"),
                                       ArityMismatch("boom")])
    def test_a_bug_in_a_stage_stops_the_run(self, tmp_path, monkeypatch,
                                            error):
        seen = []
        real = pipeline.align_concepts

        def align(tree, ann):
            seen.append(ann.sentence_id)
            if len(seen) == 2:
                raise error
            return real(tree, ann)

        monkeypatch.setattr(pipeline, "align_concepts", align)
        out = tmp_path / "out.jsonl"
        with pytest.raises(type(error), match="boom"):
            run_generate(mini_config(out))
        assert seen == ["s1", "s2"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", subclasses(CorpusError),
                             ids=lambda cls: cls.__name__)
    def test_each_input_error_costs_one_sentence(self, tmp_path,
                                                 monkeypatch, caplog, error):
        real = pipeline.parse_block

        def parse(raw):
            if raw.position == 2:
                raise error("bad input")
            return real(raw)

        monkeypatch.setattr(pipeline, "parse_block", parse)
        out = tmp_path / "out.jsonl"
        with caplog.at_level("WARNING", logger="amr2qa"):
            report = run_generate(mini_config(out))
        assert (report.sentences_processed, report.sentences_failed) == (2, 1)
        assert caplog.messages == ["skipped: sentence 's2': bad input"]
        assert {p.sentence_id for p in iter_dataset(str(out))} == {"s1", "s3"}

    def test_fuzz_run_fails_exactly_the_refused_blocks(self, tmp_path):
        # each block gets a one-word annotation spelling its ::snt, so the
        # blocks that parse pair up, and any exception but a refusal stops
        # the run
        amr = "\n\n".join(f"# ::id f{i}\n# ::snt fuzz {i}\n{text}"
                           for i, text in enumerate(fuzz_strings(1000,
                                                                 seed=11)))
        blocks = split_blocks(amr)
        refused = 0
        for raw in blocks:
            try:
                parse_block(raw)
            except CorpusError:
                refused += 1
        conllu = "".join(
            f"1\t{spelling(raw.sentence or 'x')}\tx\tX\tX\t_\t0\troot\t_\t_"
            "\n\n" for raw in blocks)
        report, _ = run_text(tmp_path, amr, conllu)
        assert 0 < refused < len(blocks)
        assert report.sentences_failed == refused
        assert report.sentences_processed == len(blocks) - refused


# every RunReport counter but the float wall time; Python 3.13 adds
# ``__firstlineno__`` to every class dict
COUNTERS = [name for name, value in vars(RunReport).items()
            if type(value) is int and not name.startswith("_")]


class TestConcatenation:
    @settings(max_examples=6, deadline=None)
    @given(sizes=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    def test_two_corpora_run_together_concatenate(self, tmp_path_factory,
                                                  sizes, seeds):
        # each corpus's ids get their own prefix, so no id is shared
        parts = []
        for k, (n, seed) in enumerate(zip(sizes, seeds)):
            amr, conllu = synth_corpus.generate(n, seed=seed)
            parts.append((amr.replace("# ::id lp", f"# ::id c{k}lp"),
                          conllu.replace("# sent_id = lp",
                                         f"# sent_id = c{k}lp")))
        (amr_a, conllu_a), (amr_b, conllu_b) = parts
        runs = [run_text(tmp_path_factory.mktemp("cat"), amr, conllu)
                for amr, conllu in [*parts, (amr_a + "\n" + amr_b,
                                             conllu_a + "\n" + conllu_b)]]
        (report_a, text_a), (report_b, text_b), (report, text) = runs
        assert text == text_a + text_b
        assert report.sentences_processed == sum(sizes)
        assert {name: getattr(report, name) for name in COUNTERS} == {
            name: getattr(report_a, name) + getattr(report_b, name)
            for name in COUNTERS}


class TestLibraryPath:
    @pytest.mark.parametrize("kind", ["baseline", "remote"])
    def test_same_pairs_and_counters_as_run_generate(
            self, tmp_path, monkeypatch, store, baseline, kind):
        # one block has no ::snt, so a sentence fails on either path; the
        # remote stand-in fails two batches and answers the rest, some from
        # the memo
        amr, conllu = synth_corpus.generate(120, seed=6)
        blocks = amr.rstrip("\n").split("\n\n")
        blocks[9] = corrupt(blocks[9], "drop-snt", 0)
        amr = "\n\n".join(blocks) + "\n"

        def make_scorer():
            return (baseline if kind == "baseline"
                    else FailsOnceOn({"Which harbor ?", "What was waited ?"}))

        monkeypatch.setattr(pipeline, "make_scorer",
                            lambda *args, **kwargs: make_scorer())
        report, text = run_text(tmp_path, amr, conllu)
        library = RunReport()
        batch = BatchScorer(make_scorer(), workers=1, report=library)
        pairs = []
        for raw, ann in zip(iter_blocks(io.StringIO(amr)),
                            iter_conllu(io.StringIO(conllu)), strict=True):
            try:
                root = parse_block(raw)
                check_pair(raw, ann)
            except CorpusError:
                library.sentences_failed += 1
                continue
            library.sentences_processed += 1
            pairs += process_sentence(root, raw.label, ann, store, batch,
                                      library)
        assert "".join(map(corpus.pair_to_line, pairs)) == text
        assert {name: getattr(library, name) for name in COUNTERS} == {
            name: getattr(report, name) for name in COUNTERS}
        assert report.sentences_failed == 1
        if kind == "remote":
            assert report.scorer_fallbacks and report.scorer_memo_hits


class TestPairing:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_by_id_over_a_permutation_equals_by_order(
            self, clean_run, tmp_path_factory, seed):
        _, clean_lines = clean_run
        blocks = SMALL_CONLLU.rstrip("\n").split("\n\n")
        random.Random(seed).shuffle(blocks)
        _, text = run_text(tmp_path_factory.mktemp("perm"), SMALL_AMR,
                           "\n\n".join(blocks) + "\n", pairing="by-id")
        assert text == "".join(line + "\n" for line in clean_lines)


def lines_by_sentence(lines) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for line in lines:
        grouped.setdefault(json.loads(line)["sentence_id"], []).append(line)
    return grouped


@pytest.fixture(scope="module")
def remote_run(tmp_path_factory):
    """Every text the small corpus asks a remote scorer for, and a healthy
    remote run's lines by sentence."""
    with MockLM() as lm:
        _, text = run_text(tmp_path_factory.mktemp("remote"), SMALL_AMR,
                           scorer="remote", scorer_url=lm.url)
    return sorted(lm.requests), lines_by_sentence(text.splitlines())


class TestRandomRemoteFailures:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10**6), failing=st.integers(1, 12))
    def test_each_sentence_stays_on_one_scale(
            self, clean_run, remote_run, tmp_path_factory, seed, failing):
        # the mock scores below the baseline, so a sentence that mixed the
        # two scales, or fell back only in part, would select otherwise
        texts, healthy = remote_run
        baseline = lines_by_sentence(clean_run[1])
        fail_on = random.Random(seed).sample(texts, failing)
        outputs = []
        for workers in (1, 4):
            with MockLM(fail_on=fail_on) as lm:
                report, text = run_text(
                    tmp_path_factory.mktemp("fail"), SMALL_AMR,
                    scorer="remote", scorer_url=lm.url, workers=workers)
            assert report.scorer_fallbacks > 0
            outputs.append(text)
            for sentence, lines in lines_by_sentence(
                    text.splitlines()).items():
                [scorer_id] = {json.loads(line)["scorer_id"]
                               for line in lines}
                expected = baseline if scorer_id == "baseline" else healthy
                assert lines == expected[sentence]
        assert outputs[0] == outputs[1]


PIPELINE_GOLDEN = FIXTURES.parent / "pipeline_runs.golden"
WORKLOADS_PATH = (Path(__file__).resolve().parent.parent / "benchmarks"
                  / "workloads.py")


def load_workloads():
    """Import ``benchmarks/workloads.py`` by path, read-only."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shuffled(conllu_text: str, seed: int) -> str:
    blocks = conllu_text.rstrip("\n").split("\n\n")
    random.Random(seed).shuffle(blocks)
    return "\n\n".join(blocks) + "\n"


def whole_run_lines(tmp_path_factory) -> list[str]:
    """One line per pinned run: its corpus and settings, the dataset's
    sha256 and every RunReport counter. The runs are the synth corpus at
    three seeds, by-id pairing over a shuffled CoNLL-U file, a remote
    scorer on MockLM with four workers, healthy and with three of the
    texts it was asked for failing, and the benchmark's long-fresh corpus
    (multi-clause sentences under an ``and`` root) at two seeds."""
    lines = []

    def run(label, amr_text, conllu_text, **settings):
        directory = tmp_path_factory.mktemp("golden")
        report, _ = run_text(directory, amr_text, conllu_text, **settings)
        digest = hashlib.sha256(
            (directory / "out.jsonl").read_bytes()).hexdigest()
        lines.append(" ".join([label, f"sha256={digest}"] + [
            f"{name}={getattr(report, name)}" for name in COUNTERS]))

    for seed in (1, 2, 3):
        run(f"synth n=300 seed={seed} by-order baseline workers=1",
            *synth_corpus.generate(300, seed=seed))
    amr, conllu = synth_corpus.generate(300, seed=4)
    run("synth n=300 seed=4 by-id-shuffled baseline workers=1",
        amr, shuffled(conllu, 4), pairing="by-id")
    amr, conllu = synth_corpus.generate(300, seed=5)
    with MockLM() as lm:
        run("synth n=300 seed=5 by-order remote workers=4", amr, conllu,
            scorer="remote", scorer_url=lm.url, workers=4)
    with MockLM(fail_on=sorted(lm.requests)[::60]) as lm:
        run("synth n=300 seed=5 by-order remote-failing workers=4", amr,
            conllu, scorer="remote", scorer_url=lm.url, workers=4)
    long_corpus = load_workloads().long_corpus
    for seed in (1, 2):
        run(f"long-fresh n=150 seed={seed} by-order baseline workers=1",
            *long_corpus(150, seed))
    return lines


class TestWholeRunGolden:
    def test_runs_match_golden(self, tmp_path_factory):
        golden = PIPELINE_GOLDEN.read_text(encoding="ascii").splitlines()
        assert whole_run_lines(tmp_path_factory) == golden


def repeated_corpus(tmp_path, copies: int = 3) -> tuple[str, str]:
    """The mini corpus ``copies`` times over, with unique graph ids, so
    every question text recurs across sentences."""
    amr = "\n".join(Path(MINI_AMR).read_text().replace("# ::id s",
                                                       f"# ::id c{k}s")
                    for k in range(copies))
    conllu = "\n".join([Path(MINI_CONLLU).read_text()] * copies)
    amr_path, conllu_path = tmp_path / "rep.amr", tmp_path / "rep.conllu"
    amr_path.write_text(amr)
    conllu_path.write_text(conllu)
    return str(amr_path), str(conllu_path)


class CountingScorer:
    """Wraps a scorer and counts the texts it is asked to score."""

    scorer_id = "baseline"

    def __init__(self, inner):
        self.inner = inner
        self.texts = Counter()

    def score(self, text):
        self.texts[text] += 1
        return self.inner.score(text)


class FailsOnceOn:
    """Primary scorer that fails the first request for each text in
    ``fail_on`` and answers every other request."""

    scorer_id = "remote"

    def __init__(self, fail_on):
        self.pending = set(fail_on)
        self.texts = Counter()

    def score(self, text):
        self.texts[text] += 1
        if text in self.pending:
            self.pending.discard(text)
            raise ScorerUnavailable("transient")
        return -float(len(text))


class FailsFrom:
    """Primary scorer that answers until it is asked for a text containing
    ``trigger``, and fails every request from then on."""

    scorer_id = "remote"

    def __init__(self, trigger):
        self.trigger = trigger
        self.down = False

    def score(self, text):
        self.down = self.down or self.trigger in text
        if self.down:
            raise ScorerUnavailable("down")
        return -float(len(text))


TRIGGER_AMR = """# ::id t1
# ::snt The engine was fixed .
(f / fix-01
   :ARG1 (e / engine))
"""

TRIGGER_CONLLU = """# sent_id = t1
# text = The engine was fixed .
1\tThe\tthe\tDET\tDT\tDefinite=Def|PronType=Art\t2\tdet\t_\t_
2\tengine\tengine\tNOUN\tNN\tNumber=Sing\t4\tnsubj:pass\t_\t_
3\twas\tbe\tAUX\tVBD\tTense=Past\t4\taux:pass\t_\t_
4\tfixed\tfix\tVERB\tVBN\tTense=Past|VerbForm=Part\t0\troot\t_\t_
5\t.\t.\tPUNCT\t.\t_\t4\tpunct\t_\t_
"""


class TestScoreMemo:
    def test_each_distinct_text_scored_once_per_run(self, tmp_path,
                                                    monkeypatch, baseline):
        counting = CountingScorer(baseline)
        monkeypatch.setattr(pipeline, "make_scorer",
                            lambda *args, **kwargs: counting)
        amr, conllu = repeated_corpus(tmp_path)
        report = run_generate(mini_config(
            tmp_path / "out.jsonl", amr_path=amr, conllu_path=conllu,
            scorer="remote", scorer_url="http://unused"))
        assert report.sentences_processed == 9
        assert counting.texts
        assert set(counting.texts.values()) == {1}
        assert report.scorer_memo_hits >= 2 * len(counting.texts)
        assert (f"scorer memo hits      {report.scorer_memo_hits}"
                in report.lines())

    def test_text_repeated_within_a_batch_is_no_memo_hit(self):
        primary, report = FailsOnceOn(()), RunReport()
        scorer = BatchScorer(primary, workers=1, report=report)
        assert scorer.score_all(["a ?", "a ?", "b ?"])[0] == "remote"
        assert report.scorer_memo_hits == 0
        scorer.score_all(["a ?", "a ?", "c ?"])
        assert report.scorer_memo_hits == 1
        assert primary.texts == {"a ?": 1, "b ?": 1, "c ?": 1}

    def test_baseline_keeps_no_memo(self, baseline, report):
        scorer = BatchScorer(baseline, workers=1, report=report)
        texts = [f"What is item{i} ?" for i in range(5000)]
        for text in texts:
            scorer.score_all([text])
        assert scorer.score_all(texts[:2]) == (
            "baseline", {text: baseline.score(text) for text in texts[:2]})
        assert (report.scorer_memo_hits, len(scorer._scores)) == (0, 0)

    def test_baseline_run_reports_no_memo_hits(self, tmp_path):
        amr, conllu = repeated_corpus(tmp_path)
        report = run_generate(mini_config(tmp_path / "out.jsonl",
                                          amr_path=amr, conllu_path=conllu))
        assert report.sentences_processed == 9
        assert "scorer memo hits      0" in report.lines()

    def test_fallback_score_is_not_reused(self, tmp_path, monkeypatch):
        flaky_text = "What was broken ?"
        primary = FailsOnceOn({flaky_text})
        monkeypatch.setattr(pipeline, "make_scorer",
                            lambda *args, **kwargs: primary)
        amr, conllu = repeated_corpus(tmp_path)
        out = tmp_path / "out.jsonl"
        report = run_generate(mini_config(
            out, amr_path=amr, conllu_path=conllu,
            scorer="remote", scorer_url="http://unused"))
        # the first sentence's three texts are scored by the baseline
        assert report.scorer_fallbacks == 3
        # the failed first try, then one successful primary score that
        # the third occurrence reuses
        assert primary.texts[flaky_text] == 2
        assert set(primary.texts.values()) == {1, 2}
        ids = [(p.sentence_id, p.scorer_id) for p in iter_dataset(str(out))]
        assert {scorer for sentence, scorer in ids
                if sentence == "c0s1"} == {"baseline"}
        assert {scorer for sentence, scorer in ids
                if sentence != "c0s1"} == {"remote"}

    def test_memo_holds_at_most_capacity(self, baseline, report):
        counting = CountingScorer(baseline)
        memo = BatchScorer(counting, workers=1, report=report)
        texts = [f"What is item{i} ?" for i in range(pipeline.MEMO_CAPACITY
                                                    + 100)]
        for text in texts:
            memo.score_all([text])
        assert len(memo._scores) == pipeline.MEMO_CAPACITY
        for text in texts[-pipeline.MEMO_CAPACITY:]:
            memo.score_all([text])
        assert report.scorer_memo_hits == pipeline.MEMO_CAPACITY
        memo.score_all([texts[0]])
        assert counting.texts[texts[0]] == 2
        assert len(memo._scores) == pipeline.MEMO_CAPACITY

    @pytest.mark.parametrize("copies", [1, 3])
    def test_bytes_match_unmemoized_run(self, tmp_path, store, baseline,
                                        copies):
        amr, conllu = ((MINI_AMR, MINI_CONLLU) if copies == 1
                       else repeated_corpus(tmp_path, copies))
        memoized = tmp_path / "memo.jsonl"
        run_generate(mini_config(memoized, amr_path=amr, conllu_path=conllu))
        pairs = []
        blocks = split_blocks(Path(amr).read_text())
        for raw, ann in zip(blocks, parse_conllu(Path(conllu).read_text())):
            report = RunReport()
            batch = BatchScorer(baseline, workers=1, report=report)
            pairs.extend(process_sentence(parse_block(raw), raw.label, ann,
                                          store, batch, report))
        plain = tmp_path / "plain.jsonl"
        write_dataset(pairs, str(plain))
        assert memoized.read_bytes() == plain.read_bytes()

    def test_remote_going_down_keeps_each_sentence_on_one_scale(
            self, tmp_path, monkeypatch):
        # One copy of the mini corpus, a sentence whose texts take the
        # remote down for good, then two more copies whose texts the memo
        # already holds.
        amr, conllu = repeated_corpus(tmp_path, copies=3)
        amr_text, conllu_text = Path(amr).read_text(), Path(conllu).read_text()
        cut_amr = amr_text.index("# ::id c1s1")
        cut_conllu = len(Path(MINI_CONLLU).read_text()) + 1
        Path(amr).write_text(amr_text[:cut_amr] + TRIGGER_AMR + "\n"
                             + amr_text[cut_amr:])
        Path(conllu).write_text(conllu_text[:cut_conllu] + TRIGGER_CONLLU
                                + "\n" + conllu_text[cut_conllu:])

        def lines(trigger):
            monkeypatch.setattr(pipeline, "make_scorer",
                                lambda *args, **kwargs: FailsFrom(trigger))
            out = tmp_path / "out.jsonl"
            report = run_generate(mini_config(
                out, amr_path=amr, conllu_path=conllu,
                scorer="remote", scorer_url="http://unused"))
            assert report.sentences_processed == 10
            return report, out.read_text().splitlines()

        healthy_report, healthy = lines("never asked")
        report, failing = lines("fixed")
        assert healthy_report.scorer_fallbacks == 0
        # the trigger sentence falls back whole, and every later sentence
        # is answered from the memo with no request, on the remote scale
        assert report.scorer_fallbacks == 3
        for before, after in zip(healthy, failing, strict=True):
            if '"sentence_id": "t1"' in after:
                assert before.endswith('"scorer_id": "remote"}')
                assert after.endswith('"scorer_id": "baseline"}')
            else:
                assert after == before


class TestBatchScorer:
    def test_one_scale_per_sentence(self, tmp_path):
        # "Who is visits ?" is the third candidate of s2's first node; the
        # mock's scores are below the baseline's, so a node that mixed the
        # two scales would pick the one baseline-scored candidate
        amr, conllu = repeated_corpus(tmp_path, copies=2)
        outputs = {}
        for workers in (1, 4):
            with MockLM(fail_on={"Who is visits ?"}) as lm:
                out = tmp_path / f"w{workers}.jsonl"
                report = run_generate(mini_config(
                    out, amr_path=amr, conllu_path=conllu, scorer="remote",
                    scorer_url=lm.url, workers=workers))
            assert report.sentences_processed == 6
            assert lm.requests["Who is visits ?"] == 2
            outputs[workers] = out.read_bytes()
            ids: dict[str, set] = {}
            for pair in iter_dataset(str(out)):
                ids.setdefault(pair.sentence_id, set()).add(pair.scorer_id)
            assert ids == {f"c{k}s{n}": {"baseline" if n == 2 else "remote"}
                           for k in range(2) for n in (1, 2, 3)}
        assert outputs[1] == outputs[4]

    def test_failed_batch_is_all_baseline_and_stores_nothing(self,
                                                            baseline,
                                                            report):
        primary = FailsOnceOn({"b ?"})
        scorer = BatchScorer(primary, workers=1, report=report)
        assert scorer.score_all(["a ?"])[0] == "remote"
        # "a ?" is in the memo, but the batch fails on "b ?"
        failed = scorer.score_all(["a ?", "b ?", "a ?"])
        assert failed == ("baseline", {text: baseline.score(text)
                                       for text in ("a ?", "b ?")})
        assert (report.scorer_memo_hits, report.scorer_fallbacks) == (0, 2)
        again = scorer.score_all(["a ?", "b ?"])
        assert again[0] == "remote"
        assert report.scorer_memo_hits == 1
        assert primary.texts == {"a ?": 1, "b ?": 2}
        assert not scorer.circuit_open

    @pytest.mark.parametrize("direct", [True, False],
                             ids=["baseline", "fallback"])
    def test_repeated_text_scored_once(self, monkeypatch, direct):
        calls = Counter()
        score = BaselineScorer.score

        def counted(self, text):
            calls[text] += 1
            return score(self, text)

        monkeypatch.setattr(BaselineScorer, "score", counted)
        scorer = BatchScorer(BaselineScorer.bundled() if direct
                             else FailsOnceOn({"a ?"}), workers=1,
                             report=RunReport())
        scorer_id, scores = scorer.score_all(["a ?"] * 3)
        assert (scorer_id, list(scores)) == ("baseline", ["a ?"])
        assert calls == {"a ?": 1}

    @pytest.mark.parametrize("missing", [1, 3, 4, 9])
    def test_requests_in_flight_match_the_worker_count(self, missing):
        texts = [f"What is item{i} ?" for i in range(missing)]
        expected = min(4, missing)
        results = []
        with MockLM(held=True) as lm:
            scorer = BatchScorer(RemoteScorer(lm.url), workers=4,
                                 report=RunReport())
            thread = threading.Thread(
                target=lambda: results.append(scorer.score_all(texts)))
            thread.start()
            deadline = time.monotonic() + 5
            while lm.open < expected and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)   # a request past the bound would open now
            held = lm.open
            lm.gate.set()
            thread.join(timeout=10)
            scorer.close()
        assert not thread.is_alive()
        assert held == lm.peak == expected
        scorer_id, scores = results[0]
        assert sorted(scores) == sorted(texts)
        assert scorer_id == "remote"

    def test_remote_run_closes_its_request_threads(self, tmp_path):
        amr, conllu = repeated_corpus(tmp_path, copies=2)
        threads_before = threading.active_count()
        with MockLM() as lm:   # leaving joins the mock's own threads
            report = run_generate(mini_config(
                tmp_path / "out.jsonl", amr_path=amr, conllu_path=conllu,
                scorer="remote", scorer_url=lm.url, workers=4))
        assert threading.active_count() == threads_before
        assert report.scorer_fallbacks == 0
        assert sum(lm.requests.values()) == len(lm.requests)

    def test_http_protocol_error_falls_back(self, tmp_path):
        with RawReplyServer(b"garbage\r\n\r\n") as server:
            report = run_generate(mini_config(
                tmp_path / "out.jsonl", scorer="remote",
                scorer_url=server.url))
        assert "sentences failed      0" in report.lines()
        assert report.sentences_processed == 3
        assert report.scorer_fallbacks > 0

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.0 200 OK\r\nContent-Length: 1000000000000000\r\n\r\n",
        b'HTTP/1.0 200 OK\r\n\r\n{"logprob": -1.5}' + b" " * 70_000,
    ], ids=["huge-length", "no-length"])
    def test_oversized_reply_falls_back(self, tmp_path, reply):
        with RawReplyServer(reply) as server:
            report = run_generate(mini_config(
                tmp_path / "out.jsonl", scorer="remote",
                scorer_url=server.url))
        assert "sentences failed      0" in report.lines()
        assert report.sentences_processed == 3
        assert report.scorer_fallbacks > 0


OLD_BYTES = b'{"previous": "dataset"}\n'


def seeded_out(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_bytes(OLD_BYTES)
    return out


def assert_untouched(out):
    assert out.read_bytes() == OLD_BYTES
    assert list(out.parent.glob("*.tmp")) == []


def corpus_files(tmp_path, amr_copies, conllu_copies, conllu_tail=""):
    """The mini corpus ``amr_copies`` times over and its annotations
    ``conllu_copies`` times over, ids unique as in ``repeated_corpus``;
    ``conllu_tail`` is appended to the last annotation."""
    amr, _ = repeated_corpus(tmp_path, amr_copies)
    mini = Path(MINI_CONLLU).read_text()
    conllu = tmp_path / "annotations.conllu"
    conllu.write_text("\n".join(mini.replace("# sent_id = s",
                                             f"# sent_id = c{k}s")
                                for k in range(conllu_copies))
                      + conllu_tail)
    return amr, str(conllu)


class TestAtomicPublish:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_failed_write_leaves_old_output(self, tmp_path, monkeypatch,
                                            workers):
        out = seeded_out(tmp_path)
        serialized = []
        real = corpus.pair_to_line

        def failing(pair):
            serialized.append(pair)
            if len(serialized) == 5:
                raise OSError(28, "No space left on device")
            return real(pair)

        monkeypatch.setattr(corpus, "pair_to_line", failing)
        amr, conllu = repeated_corpus(tmp_path, copies=3)
        threads_before = threading.active_count()
        with pytest.raises(OSError, match="No space left"):
            run_generate(mini_config(out, amr_path=amr, conllu_path=conllu,
                                     workers=workers))
        assert len(serialized) == 5
        assert_untouched(out)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("amr_copies, conllu_copies, message", [
        (3, 2, "9 graph blocks vs 6 annotations"),
        (2, 3, "6 graph blocks vs 9 annotations"),
    ])
    def test_count_mismatch_leaves_old_output(self, tmp_path, amr_copies,
                                              conllu_copies, message):
        out = seeded_out(tmp_path)
        amr, conllu = corpus_files(tmp_path, amr_copies, conllu_copies)
        with pytest.raises(CountMismatch, match=message):
            run_generate(mini_config(out, amr_path=amr, conllu_path=conllu))
        assert_untouched(out)

    def test_bad_conllu_line_in_last_sentence_leaves_old_output(self,
                                                               tmp_path):
        out = seeded_out(tmp_path)
        amr, conllu = corpus_files(tmp_path, 3, 3, conllu_tail="7\tbad\n")
        with pytest.raises(ConlluError,
                           match="expected 10 columns, found 2") as error:
            run_generate(mini_config(out, amr_path=amr, conllu_path=conllu))
        assert error.value.line == len(Path(conllu).read_text().splitlines())
        assert_untouched(out)

    def test_completed_run_replaces_old_output(self, tmp_path):
        out = seeded_out(tmp_path)
        run_generate(mini_config(out))
        fresh = tmp_path / "fresh.jsonl"
        run_generate(mini_config(fresh))
        assert out.read_bytes() == fresh.read_bytes() != OLD_BYTES
        assert list(tmp_path.glob("*.tmp")) == []


class TestErrorPrecedence:
    def test_zero_sentences_before_reading_annotations(self, tmp_path):
        amr = tmp_path / "empty.amr"
        amr.write_text("\n \n")
        out = seeded_out(tmp_path)
        for conllu in (tmp_path / "missing.conllu",
                       corpus_files(tmp_path, 1, 1, "7\tbad\n")[1]):
            with pytest.raises(ZeroSentences):
                run_generate(mini_config(out, amr_path=str(amr),
                                         conllu_path=str(conllu)))
        assert_untouched(out)

    @pytest.mark.parametrize("amr_copies, conllu_copies",
                             [(1, 3), (3, 2), (3, 3)])
    def test_malformed_conllu_before_count_mismatch(self, tmp_path,
                                                   amr_copies,
                                                   conllu_copies):
        out = seeded_out(tmp_path)
        amr, conllu = corpus_files(tmp_path, amr_copies, conllu_copies,
                                   conllu_tail="7\tbad\n")
        with pytest.raises(ConlluError, match="expected 10 columns, found 2"):
            run_generate(mini_config(out, amr_path=amr, conllu_path=conllu))
        assert_untouched(out)

    def test_malformed_conllu_before_duplicate_id(self, tmp_path):
        out = seeded_out(tmp_path)
        # the repeated CoNLL-U text repeats its sentence ids
        amr, conllu = repeated_corpus(tmp_path, copies=2)
        Path(conllu).write_text(Path(conllu).read_text() + "7\tbad\n")
        with pytest.raises(ConlluError, match="expected 10 columns, found 2"):
            run_generate(mini_config(out, amr_path=amr, conllu_path=conllu,
                                     pairing="by-id"))
        assert_untouched(out)


class TestStreaming:
    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        def peak(copies):
            amr, conllu = repeated_corpus(tmp_path, copies)
            gc.collect()
            tracemalloc.start()
            try:
                run_generate(mini_config(tmp_path / "out.jsonl",
                                         amr_path=amr, conllu_path=conllu))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)   # the first run fills lazily built tables
        assert peak(16) < 1.5 * peak(2)

    def test_a_run_leaves_no_cyclic_garbage(self, tmp_path):
        # each sentence's trees and candidates are freed when it is done
        config = mini_config(tmp_path / "out.jsonl")
        run_generate(config)   # the first run fills lazily built tables
        with no_cyclic_garbage():
            run_generate(config)

    def test_sentences_in_flight_stay_within_the_bound(self, tmp_path,
                                                       monkeypatch):
        # one sentence at a time, whatever the worker count
        workers = 4
        amr, conllu = repeated_corpus(tmp_path, copies=20)
        read: list[str] = []
        written: set[str] = set()
        in_flight: list[int] = []   # sampled at each read and each start
        real_blocks, real_process = pipeline.iter_blocks, process_sentence
        real_to_line = corpus.pair_to_line

        def blocks(lines):
            for raw in real_blocks(lines):
                read.append(raw.id)
                in_flight.append(len(read) - len(written))
                yield raw

        def process(raw, *args, **kwargs):
            in_flight.append(len(read) - len(written))
            return real_process(raw, *args, **kwargs)

        def to_line(pair):
            written.add(pair.sentence_id)
            return real_to_line(pair)

        monkeypatch.setattr(pipeline, "iter_blocks", blocks)
        monkeypatch.setattr(pipeline, "process_sentence", process)
        monkeypatch.setattr(corpus, "pair_to_line", to_line)
        report = run_generate(mini_config(tmp_path / "out.jsonl",
                                          amr_path=amr, conllu_path=conllu,
                                          workers=workers))
        # every sentence has lines, so ``written`` counts sentences whose
        # lines have started to be written
        assert report.sentences_processed == len(read) == 60
        assert written == set(read)
        assert len(in_flight) == 2 * len(read)
        assert max(in_flight) == 1

    def test_one_worker_runs_in_the_calling_thread(self, tmp_path,
                                                   monkeypatch):
        threads = set()
        real = process_sentence

        def process(*args, **kwargs):
            threads.add(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "process_sentence", process)
        run_generate(mini_config(tmp_path / "out.jsonl"))
        assert threads == {threading.current_thread()}

    def test_by_id_output_does_not_depend_on_workers(self, tmp_path):
        amr, conllu = corpus_files(tmp_path, 8, 8)
        outputs = set()
        for workers in (1, 3):
            out = tmp_path / f"w{workers}.jsonl"
            report = run_generate(mini_config(
                out, amr_path=amr, conllu_path=conllu, pairing="by-id",
                workers=workers))
            assert report.sentences_processed == 24
            outputs.add(out.read_bytes())
        assert len(outputs) == 1
