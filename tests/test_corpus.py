"""AMR corpus reading, annotation pairing, dataset writes and round-trips,
and stats."""

import io
import json
import math
import random
import re
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr2qa.agen import Answer
from amr2qa.annotate import iter_conllu
from amr2qa.corpus import (
    BlockParseError,
    CountMismatch,
    DatasetFormatError,
    MissingSentence,
    QaPair,
    RawBlock,
    UnresolvedId,
    _mean,
    compute_stats,
    format_stats_table,
    iter_blocks,
    iter_dataset,
    metadata_fields,
    pair_to_line,
    parse_block,
    split_blocks,
    write_dataset,
)
from amr2qa.pipeline import PAIRINGS, RunConfig, run_generate

from helpers import FIXTURES, load_penman_corpus

MINI_AMR = FIXTURES / "corpus" / "mini.amr"
MINI_CONLLU = FIXTURES / "corpus" / "mini.conllu"
MINI_DATASET = FIXTURES / "corpus" / "mini_dataset.jsonl"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_blocks(path):
    """(block, graph) for every block of the file at ``path``."""
    with open(path, encoding="utf-8") as handle:
        return [(raw, parse_block(raw)) for raw in iter_blocks(handle)]


class TestReadAmrCorpus:
    """Reading an AMR file the way the pipeline does: ``iter_blocks`` over
    the open file, then ``parse_block`` on each block."""

    def test_single_block(self, tmp_path):
        path = write(tmp_path, "c.amr",
                     "# ::id x1\n# ::snt Dogs bark .\n(b / bark-01)\n")
        [(raw, graph)] = read_blocks(path)
        assert raw.label == "x1"
        assert raw.sentence == "Dogs bark ."
        assert graph.concept.label == "bark-01"

    def test_mini_fixture(self):
        blocks = [raw for raw, _ in read_blocks(MINI_AMR)]
        assert [raw.label for raw in blocks] == ["s1", "s2", "s3"]
        assert blocks[1].sentence == "Mary visits museums twice ."

    def test_order_preserved(self, tmp_path):
        path = write(tmp_path, "c.amr",
                     "# ::snt one\n(a / alpha)\n\n# ::snt two\n(b / beta)\n")
        assert [(raw.sentence, graph.concept.label)
                for raw, graph in read_blocks(path)] == [("one", "alpha"),
                                                         ("two", "beta")]

    def test_graph_only_block_rejected(self, tmp_path):
        path = write(tmp_path, "c.amr", "(b / bark-01)\n")
        with pytest.raises(MissingSentence) as e:
            read_blocks(path)
        assert e.value.block == 1

    def test_empty_snt_rejected(self, tmp_path):
        path = write(tmp_path, "c.amr", "# ::snt\n(b / bark-01)\n")
        with pytest.raises(MissingSentence):
            read_blocks(path)

    def test_missing_id_numbered_by_position(self, tmp_path):
        path = write(tmp_path, "c.amr",
                     "# ::snt one\n(a / alpha)\n\n# ::snt two\n(b / beta)\n")
        assert [raw.label for raw, _ in read_blocks(path)] == ["1", "2"]

    def test_bad_graph_names_block(self, tmp_path):
        path = write(tmp_path, "c.amr",
                     "# ::snt one\n(a / alpha)\n\n# ::snt two\n(b / beta\n")
        with pytest.raises(BlockParseError) as e:
            read_blocks(path)
        assert e.value.block == 2
        assert "block 2" in str(e.value)

    def test_block_count_preserved(self, tmp_path):
        graphs = load_penman_corpus()
        text = "\n\n".join(f"# ::snt sentence {i}\n{g}"
                           for i, g in enumerate(graphs))
        path = write(tmp_path, "c.amr", text)
        assert len(read_blocks(path)) == len(graphs)

    def test_unknown_metadata_ignored(self, tmp_path):
        path = write(tmp_path, "c.amr",
                     "# ::id z\n# ::save-date Fri Dec 28, 2012 ::file x.txt\n"
                     "# ::snt ok\n(a / alpha)\n")
        [(raw, _)] = read_blocks(path)
        assert (raw.id, raw.sentence) == ("z", "ok")

    def test_empty_file(self, tmp_path):
        assert read_blocks(write(tmp_path, "c.amr", "\n\n")) == []

    def test_release_id_line_holds_several_fields(self, tmp_path):
        # the AMR 2.0 release writes every field of a block on one line
        path = write(tmp_path, "c.amr", AMR2_ID_LINE
                     + "\n# ::snt Dogs bark .\n(b / bark-01)\n")
        [(raw, _)] = read_blocks(path)
        assert raw.id == "bolt12_07_4800.1"
        assert raw.sentence == "Dogs bark ."

    def test_metadata_fields(self):
        assert metadata_fields("  # ::id a b ::x ::snt  Hi :: there ") == [
            ("id", "a b"), ("x", ""), ("snt", "Hi :: there")]
        assert metadata_fields("# ::id a::b") == [("id", "a::b")]
        assert metadata_fields("# note ::id a") == []
        assert metadata_fields("# :: id") == []

    def test_split_blocks_keeps_metadata(self):
        blocks = split_blocks(MINI_AMR.read_text(encoding="utf-8"))
        assert [b.position for b in blocks] == [1, 2, 3]
        assert blocks[2].id == "s3"
        assert "stand-01" in blocks[2].body


AMR2_ID_LINE = ("# ::id bolt12_07_4800.1 ::date 2012-12-19T12:53:14 "
                "::annotator SDL-AMR-09 ::preferred")


def mini_pairs():
    with open(MINI_AMR, encoding="utf-8") as handle:
        blocks = list(iter_blocks(handle))
    with open(MINI_CONLLU, encoding="utf-8") as handle:
        annotations = list(iter_conllu(handle))
    return blocks, annotations


class TestPairAnnotations:
    """The pipeline's pairing of graph blocks with annotations."""

    def test_by_order(self):
        blocks, annotations = mini_pairs()
        paired = list(PAIRINGS["by-order"](blocks, annotations))
        assert [(b.id, a.sentence_id) for b, a in paired] == [
            ("s1", "s1"), ("s2", "s2"), ("s3", "s3")]

    def test_by_order_count_mismatch(self):
        blocks, annotations = mini_pairs()
        with pytest.raises(CountMismatch):
            list(PAIRINGS["by-order"](blocks, annotations[:2]))

    def test_by_id_handles_reordering(self):
        blocks, annotations = mini_pairs()
        shuffled = [annotations[2], annotations[0], annotations[1]]
        paired = list(PAIRINGS["by-id"](blocks, shuffled))
        assert all(b.id == a.sentence_id for b, a in paired)
        assert [b.id for b, _ in paired] == ["s1", "s2", "s3"]

    def test_by_id_unresolved(self, tmp_path, caplog):
        # an unresolved id fails that sentence alone, named in the log
        blocks, annotations = mini_pairs()
        paired = list(PAIRINGS["by-id"](blocks, annotations[:2]))
        assert [(b.id, a is None) for b, a in paired] == [
            ("s1", False), ("s2", False), ("s3", True)]
        conllu = write(tmp_path, "two.conllu", "\n\n".join(
            MINI_CONLLU.read_text(encoding="utf-8").split("\n\n")[:2]))
        report = run_generate(RunConfig(
            amr_path=str(MINI_AMR), conllu_path=str(conllu),
            output_path=str(tmp_path / "out.jsonl"), pairing="by-id"))
        assert report.sentences_failed == 1
        assert "no annotation with id 's3'" in caplog.text

    def test_by_id_pairs_a_release_id_line(self, tmp_path):
        amr = write(tmp_path, "c.amr", AMR2_ID_LINE
                    + "\n# ::snt Dogs bark\n(b / bark-01 :ARG0 (d / dog))\n")
        conllu = write(tmp_path, "c.conllu",
                       "# sent_id = bolt12_07_4800.1\n"
                       "1\tDogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
                       "2\tbark\tbark\tVERB\tVBP\t_\t0\troot\t_\t_\n")
        out = tmp_path / "out.jsonl"
        report = run_generate(RunConfig(
            amr_path=str(amr), conllu_path=str(conllu),
            output_path=str(out), pairing="by-id"))
        assert (report.sentences_processed, report.sentences_failed) == (1, 0)
        rows = list(iter_dataset(out))
        assert rows and {row.sentence_id for row in rows} == {
            "bolt12_07_4800.1"}

    def test_by_id_duplicate_annotation_ids(self):
        blocks, annotations = mini_pairs()
        with pytest.raises(UnresolvedId):
            list(PAIRINGS["by-id"](blocks, annotations + [annotations[0]]))

    def test_unknown_strategy(self, tmp_path):
        with pytest.raises(ValueError, match="by-vibes"):
            run_generate(RunConfig(
                amr_path=str(MINI_AMR), conllu_path=str(MINI_CONLLU),
                output_path=str(tmp_path / "out.jsonl"), pairing="by-vibes"))


def whole_text_split_blocks(text):
    """The whole-text block splitter as it was before the streaming reader:
    the oracle for ``iter_blocks``."""
    blocks = []
    for chunk in re.split(r"\n\s*\n", text):
        if not chunk.strip():
            continue
        block_id = None
        sentence = None
        for line in chunk.splitlines():
            for key, value in metadata_fields(line):
                if key == "id" and block_id is None:
                    block_id = value
                elif key == "snt" and sentence is None:
                    sentence = value
        blocks.append(RawBlock(position=len(blocks) + 1, id=block_id,
                               sentence=sentence, body=chunk))
    return blocks


# whitespace that splitlines() breaks at and \s matches, other whitespace,
# line endings, and pieces of metadata and graphs
AMR_PIECES = ["\n", "\n", "\n", " ", "\t", "\x0c", "\x0b", "\x85", "\x1c",
              "\u2028", "\xa0", "\u3000", "\r", "\r\n", "# ::id a",
              "# ::id b", "# ::snt one", "# ::snt", "#::snt two ",
              "# ::id c ::date 2012",
              "(b / bark-01)", "(x", "x"]
amr_texts = st.lists(st.sampled_from(AMR_PIECES), max_size=30).map("".join)


class TestIterBlocksMatchesWholeText:
    @settings(max_examples=400, deadline=None)
    @given(amr_texts)
    def test_same_blocks_as_the_whole_text_split(self, text):
        expected = whole_text_split_blocks(text)
        assert list(iter_blocks(io.StringIO(text))) == expected
        assert split_blocks(text) == expected

    @settings(max_examples=200, deadline=None)
    @given(amr_texts)
    def test_same_blocks_from_a_file_handle(self, text):
        # a text-mode file translates \r and \r\n to \n on read
        def handle():
            return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                    encoding="utf-8")
        assert (list(iter_blocks(handle()))
                == whole_text_split_blocks(handle().read()))

    @pytest.mark.parametrize("text", [
        "", "\n", "  \n(a)", "\n  \n(a)", " \n \n(a)", "(a)\n\n  ",
        "(a)\n \x0c\n(b)", "(a)\x0c\x0c(b)", "(a)\r\n\r\n(b)",
        "# ::snt one\n(a)\n\n\n\n# ::snt two\n(b)",
        "# ::id a\x0c# ::snt one\x85two\n(a)",
        "# ::snt one\x0c# ::id a ::snt two\x85# ::id b\n(a)",
        "# ::id a\n# ::snt one\n(a\n# ::id b\n# ::snt two\n)"])
    def test_edge_cases(self, text):
        assert split_blocks(text) == whole_text_split_blocks(text)

    @pytest.mark.parametrize("text", [
        # \x0c and \x85 end a metadata line inside a file line
        "# ::id a\x0c# ::snt one\x85two\n(a)",
        "# ::snt one\x0c# ::id a ::snt two\x85# ::id b\n(a)",
        # metadata after the graph's lines does not replace the first
        "# ::id a\n# ::snt one\n(a\n# ::id b\n# ::snt two\n)"])
    def test_first_id_and_sentence_win(self, text):
        [raw] = split_blocks(text)
        assert (raw.id, raw.sentence) == ("a", "one")


def sample_pair(**overrides):
    fields = dict(
        sentence_id="s1",
        question="What was broken ?",
        answer=Answer(kind="span", text="The engine", span=(1, 2),
                      source_node="e"),
        relation="ARG1",
        node="e",
        template_id="core:Patient:deadbeef",
        score=-3.5,
        scorer_id="baseline",
    )
    fields.update(overrides)
    return QaPair(**fields)


def old_pair_dict(pair):
    """The object each dataset line held when lines were encoded with
    ``json.dumps(..., ensure_ascii=False)``: the reference for
    ``pair_to_line``."""
    answer = pair.answer
    return {
        "sentence_id": pair.sentence_id,
        "question": pair.question,
        "answer": {
            "kind": answer.kind,
            "text": answer.text,
            "span": list(answer.span) if answer.span is not None else None,
            "source_node": answer.source_node,
        },
        "relation": pair.relation,
        "node": pair.node,
        "template_id": pair.template_id,
        "score": pair.score,
        "scorer_id": pair.scorer_id,
    }


# any code point, lone surrogates included, with the characters JSON
# escapes drawn often
LINE_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\ud800\udfffé中'))
SCORES = st.none() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0,
                                      -0.0]) | st.floats()
SPANS = st.none() | st.tuples(st.integers(), st.integers())
QA_PAIRS = st.builds(
    QaPair, LINE_TEXT, LINE_TEXT,
    st.builds(Answer, LINE_TEXT, LINE_TEXT, SPANS, LINE_TEXT),
    LINE_TEXT, LINE_TEXT, LINE_TEXT, SCORES, LINE_TEXT)


class TestLineFormat:
    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(QA_PAIRS, max_size=3))
    def test_lines_equal_the_json_encoder(self, tmp_path_factory, pairs):
        lines = [json.dumps(old_pair_dict(pair), ensure_ascii=False) + "\n"
                 for pair in pairs]
        assert [pair_to_line(pair) for pair in pairs] == lines
        directory = tmp_path_factory.getbasetemp() / "lines"
        directory.mkdir(exist_ok=True)
        path = directory / "d.jsonl"
        try:
            expected = "".join(lines).encode("utf-8")
        except UnicodeEncodeError:   # a lone surrogate has no UTF-8 form
            with pytest.raises(UnicodeEncodeError):
                write_dataset(pairs, path)
            assert list(directory.iterdir()) == []
        else:
            write_dataset(pairs, path)
            assert path.read_bytes() == expected
            path.unlink()


class TestDatasetRoundTrip:
    def test_empty_list_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([], path)
        assert path.read_bytes() == b""
        assert list(iter_dataset(path)) == []

    def test_one_pair_round_trips(self, tmp_path):
        path = tmp_path / "d.jsonl"
        original = sample_pair()
        write_dataset([original], path)
        assert list(iter_dataset(path)) == [original]

    def test_fallback_and_unscored_pairs_round_trip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        pairs = [
            sample_pair(answer=Answer(kind="concept_fallback",
                                      text="sometimes", span=None,
                                      source_node="t"), score=None,
                        scorer_id=""),
            sample_pair(question="What is the sense of broken ?",
                        answer=Answer(kind="sense", text="break-01",
                                      span=None, source_node="b")),
        ]
        write_dataset(pairs, path)
        assert list(iter_dataset(path)) == pairs

    def test_span_encoding(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([sample_pair(answer=Answer(
            kind="span", text="broken", span=(5, 5), source_node="b"))], path)
        line = path.read_text(encoding="utf-8").splitlines()[0]
        assert '"span": [5, 5]' in line
        assert json.loads(line)["answer"]["span"] == [5, 5]

    def test_stable_field_order(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([sample_pair()], path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert list(obj) == ["sentence_id", "question", "answer", "relation",
                             "node", "template_id", "score", "scorer_id"]
        assert list(obj["answer"]) == ["kind", "text", "span", "source_node"]

    def test_unicode_not_escaped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([sample_pair(question="Who was Tomáš ?")], path)
        assert "Tomáš" in path.read_text(encoding="utf-8")

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([sample_pair(), sample_pair()], path)
        raw = path.read_bytes()
        assert raw.count(b"\n") == 2
        assert b"\r" not in raw

    def test_failure_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"old\n")

        def pairs():
            yield sample_pair()
            raise RuntimeError("generation failed")

        with pytest.raises(RuntimeError):
            write_dataset(pairs(), path)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([sample_pair()], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{oops\n")
        with pytest.raises(DatasetFormatError) as e:
            list(iter_dataset(path))
        assert e.value.line == 2

    def test_blank_lines_skipped_on_read(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([sample_pair()], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert len(list(iter_dataset(path))) == 1


class TestComputeStats:
    def test_two_question_average(self):
        pairs = [sample_pair(question="What was broken ?"),
                 sample_pair(question="Why ?")]
        stats = compute_stats(pairs, 1)
        assert stats["avg_question_length"] == "3.00"

    def test_empty_pairs_zero_table(self):
        stats = compute_stats([], 1)
        assert stats["total_questions"] == 0
        assert stats["avg_question_length"] == "0.00"
        assert stats["avg_questions_per_sentence"] == "0.00"
        assert stats["unique_word_count"] == 0

    def test_zero_sentences_zero_averages(self):
        stats = compute_stats([], 0)
        assert stats["avg_questions_per_sentence"] == "0.00"
        assert stats["avg_question_length"] == "0.00"

    def test_rounding_is_half_up(self):
        pairs = [sample_pair() for _ in range(401)]
        stats = compute_stats(pairs, 200)
        assert stats["avg_questions_per_sentence"] == "2.01"
        eighth = compute_stats([sample_pair()], 8)
        assert eighth["avg_questions_per_sentence"] == "0.13"

    def test_unique_words_lowercased(self):
        pairs = [sample_pair(question="What was Broken ?"),
                 sample_pair(question="what WAS broken ?")]
        assert compute_stats(pairs, 1)["unique_word_count"] == 4

    def test_fallback_count(self):
        pairs = [
            sample_pair(),
            sample_pair(answer=Answer(kind="concept_fallback", text="x",
                                      span=None)),
            sample_pair(answer=Answer(kind="sense", text="break-01",
                                      span=None)),
        ]
        assert compute_stats(pairs, 1)["fallback_answer_count"] == 1

    def test_skipped_count_passthrough(self):
        stats = compute_stats([], 1, skipped_node_count=7)
        assert stats["skipped_node_count"] == 7

    def test_hand_tallied_fixture(self):
        pairs = list(iter_dataset(MINI_DATASET))
        stats = compute_stats(pairs, 3, skipped_node_count=2)
        # hand tally: 6 questions over 3 sentences; question tokens
        # 4+7+3+5+5+5 = 29; answer tokens 2+1+1+1+6+1 = 12; 18 distinct
        # lowercased question words; one fallback answer
        expected = {
            "total_questions": 6,
            "avg_questions_per_sentence": "2.00",
            "unique_word_count": 18,
            "avg_question_length": "4.83",
            "avg_answer_length": "2.00",
            "skipped_node_count": 2,
            "fallback_answer_count": 1,
        }
        assert stats == expected
        # the keys in the order the table and stats --json print them
        assert list(stats) == list(expected)

    def test_table_rendering(self):
        stats = compute_stats(iter_dataset(MINI_DATASET), 3)
        table = format_stats_table(stats)
        lines = table.splitlines()
        assert lines[0].startswith("Total questions")
        assert lines[0].rstrip().endswith("6")
        assert any("4.83" in line for line in lines)
        assert table.endswith("\n")


def _round_half_up(value: Fraction) -> str:
    """The two-decimal, half-up rounding of ``value``, through Decimal."""
    quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _recount(pairs, sentence_count):
    """Independent reimplementation used as the stats oracle."""
    questions = [p.question.split() for p in pairs]
    answers = [p.answer.text.split() for p in pairs]
    words = set()
    for tokens in questions:
        for token in tokens:
            words.add(token.lower())
    n = len(pairs)
    return {
        "total_questions": n,
        "avg_questions_per_sentence": _round_half_up(
            Fraction(n, sentence_count)),
        "unique_word_count": len(words),
        "avg_question_length": _round_half_up(
            Fraction(sum(map(len, questions)), n) if n else Fraction(0)),
        "avg_answer_length": _round_half_up(
            Fraction(sum(map(len, answers)), n) if n else Fraction(0)),
        "skipped_node_count": 0,
        "fallback_answer_count": sum(
            1 for p in pairs if p.answer.kind == "concept_fallback"),
    }


class TestStatsAgainstRecount:
    @pytest.mark.parametrize("total,count,expected", [
        (1, 8, "0.13"), (401, 200, "2.01"), (1, 200, "0.01"), (0, 0, "0.00"),
    ])
    def test_mean_half_way_cases(self, total, count, expected):
        assert _mean(total, count) == expected
        assert _round_half_up(Fraction(total, count or 1)) == expected

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=1, max_value=10**9))
    def test_mean_matches_decimal(self, total, count):
        assert _mean(total, count) == _round_half_up(Fraction(total, count))

    def test_random_pair_lists(self):
        rng = random.Random(5)
        vocabulary = ["What", "Who", "was", "the", "engine", "?", "broken",
                      "Mary", "desert", "year"]
        kinds = ["span", "concept_fallback", "sense"]
        for _ in range(60):
            count = rng.randint(0, 12)
            sentence_count = rng.randint(1, 5)
            pairs = []
            for i in range(count):
                question = " ".join(rng.choice(vocabulary)
                                    for _ in range(rng.randint(1, 8)))
                answer_text = " ".join(rng.choice(vocabulary)
                                       for _ in range(rng.randint(1, 4)))
                pairs.append(sample_pair(
                    question=question,
                    answer=Answer(kind=rng.choice(kinds), text=answer_text,
                                  span=None)))
            # an iterator: the pairs can be read only once
            stats = compute_stats(iter(pairs), sentence_count)
            assert stats == _recount(pairs, sentence_count)
