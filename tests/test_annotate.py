"""Tests for CoNLL-U ingestion, alignment, tense and subtree spans."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr2qa.annotate import (
    BadColumnCount,
    CyclicTree,
    ConlluError,
    HeadOutOfRange,
    NonIntegerHead,
    SentenceAnnotation,
    Token,
    align_concepts,
    _check_tree,
    infer_tense,
    iter_conllu,
    parse_conllu,
    subtree_span,
)
from amr2qa.penman import parse_penman
from amr2qa.preprocess import preorder, preprocess

from helpers import FIXTURES, annotation_from_heads, random_tree_heads

SAMPLE = (FIXTURES / "conllu" / "sample.conllu").read_text(encoding="utf-8")


def sentences():
    return {ann.sentence_id: ann for ann in parse_conllu(SAMPLE)}


def tree_of(amr: str):
    return preprocess(parse_penman(amr))


def node_by_text(tree, text):
    matches = [n for n in preorder(tree) if n.concept_text == text]
    assert matches, text
    return matches[0]


class TestParseConllu:

    def test_two_token_fixture(self):
        ann = sentences()["s1"]
        assert [t.surface for t in ann.tokens] == ["Dogs", "bark", "."]
        assert [t.head for t in ann.tokens] == [2, 0, 2]
        assert ann.tokens[0].lemma == "dog"
        assert ann.tokens[1].upos == "VERB"

    def test_empty_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_sentence_count_and_ids(self):
        ids = [ann.sentence_id for ann in parse_conllu(SAMPLE)]
        assert ids == ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]

    def test_multiword_range_skipped(self):
        ann = sentences()["s5"]
        assert [t.surface for t in ann.tokens] == ["It", "'s", "good", "."]

    def test_empty_node_skipped(self):
        ann = sentences()["s6"]
        assert [t.surface for t in ann.tokens] == ["Mary", "makes", "cakes"]

    def test_feats_parsed(self):
        token = sentences()["s2"].token(4)
        assert token.feats == "Tense=Past|VerbForm=Part|Voice=Pass"

    def test_missing_sent_id_numbered_by_position(self):
        text = "1\tHi\thi\tINTJ\tUH\t_\t0\troot\t_\t_\n"
        anns = parse_conllu(text)
        assert len(anns) == 1
        assert anns[0].sentence_id == "1"

    def test_bad_column_count(self):
        text = "# sent_id = x\n1\tHi\thi\tINTJ\tUH\t_\t0\troot\t_\t_\n2\tbad\tbad\n"
        with pytest.raises(BadColumnCount) as exc:
            parse_conllu(text)
        assert exc.value.line == 3

    def test_non_integer_head(self):
        text = "1\tHi\thi\tINTJ\tUH\t_\tx\troot\t_\t_\n"
        with pytest.raises(NonIntegerHead) as exc:
            parse_conllu(text)
        assert exc.value.line == 1

    def test_cycle_detected(self):
        text = ("# sent_id = loop\n"
                "1\ta\ta\tX\tX\t_\t2\tdep\t_\t_\n"
                "2\tb\tb\tX\tX\t_\t1\tdep\t_\t_\n")
        with pytest.raises(CyclicTree) as exc:
            parse_conllu(text)
        assert exc.value.sentence_id == "loop"

    def test_self_loop_detected(self):
        text = "1\ta\ta\tX\tX\t_\t1\tdep\t_\t_\n"
        with pytest.raises(CyclicTree):
            parse_conllu(text)

    def test_head_out_of_range(self):
        text = "1\ta\ta\tX\tX\t_\t9\tdep\t_\t_\n"
        with pytest.raises(HeadOutOfRange) as exc:
            parse_conllu(text)
        assert exc.value.line == 1

    # token(i) is tokens[i - 1], so any other order of ids would hand
    # alignment and answers the wrong words
    @pytest.mark.parametrize("ids, line", [
        ((2, 1, 3), 2),      # out of order
        ((1, 3), 3),         # a gap
        ((1, 2, 2), 4),      # repeated
    ], ids=["out-of-order", "gap", "repeated"])
    def test_word_ids_must_run_from_one_in_order(self, ids, line):
        text = "# sent_id = x\n" + "".join(
            f"{i}\tw\tw\tX\tX\t_\t{0 if i == 1 else 1}\tdep\t_\t_\n"
            for i in ids)
        with pytest.raises(ConlluError) as exc:
            parse_conllu(text)
        assert exc.value.line == line
        assert f"word id {ids[line - 2]} " in str(exc.value)

    def test_ranges_and_empty_nodes_do_not_count_as_word_ids(self):
        text = ("1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "1\tdo\tdo\tAUX\tVBP\t_\t0\troot\t_\t_\n"
                "1.1\tx\tx\tX\tX\t_\t_\t_\t_\t_\n"
                "2\tn't\tnot\tPART\tRB\t_\t1\tadvmod\t_\t_\n")
        assert [t.surface for t in parse_conllu(text)[0].tokens] == ["do", "n't"]


def whole_text_parse_conllu(text):
    """The whole-text CoNLL-U reader as it was before the streaming one:
    the oracle for ``iter_conllu``, as ``(sentence_id, tokens)`` pairs."""
    sentences = []
    tokens, token_lines = [], []
    sent_id, has_text = None, False

    def flush():
        nonlocal tokens, token_lines, sent_id, has_text
        if not tokens and sent_id is None and not has_text:
            return
        identifier = sent_id if sent_id is not None else str(len(sentences) + 1)
        _check_tree(tokens, token_lines, identifier)
        SentenceAnnotation(identifier, tokens)  # refuses a cycle
        sentences.append((identifier, tokens))
        tokens, token_lines, sent_id, has_text = [], [], None, False

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                key = key.strip()
                if key == "sent_id":
                    sent_id = value.strip()
                elif key == "text":
                    has_text = True
            continue
        columns = line.split("\t")
        if len(columns) != 10:
            raise BadColumnCount(f"expected 10 columns, found {len(columns)}",
                                 line=line_no)
        identifier = columns[0]
        if "-" in identifier or "." in identifier:
            continue
        try:
            index = int(identifier)
        except ValueError:
            raise BadColumnCount(f"token id {identifier!r} is not an integer",
                                 line=line_no) from None
        if index != len(tokens) + 1:
            raise ConlluError(f"word id {index} out of sequence, expected "
                              f"{len(tokens) + 1}", line=line_no)
        try:
            head = int(columns[6])
        except ValueError:
            raise NonIntegerHead(f"head {columns[6]!r} is not an integer",
                                 line=line_no) from None
        tokens.append(Token(surface=columns[1], lemma=columns[2],
                            upos=columns[3], xpos=columns[4],
                            feats=columns[5], head=head))
        token_lines.append(line_no)
    flush()
    return sentences


def outcome(read):
    """The sentences ``read()`` returns, or the class, line and message of
    the ConlluError it raises."""
    try:
        return read()
    except ConlluError as exc:
        return type(exc), exc.line, str(exc)


def id_tokens(sentences):
    return [(ann.sentence_id, ann.tokens) for ann in sentences]


# token lines (good, bad head, bad column count, bad id, cycle, multiword),
# comments, whitespace that splitlines() breaks at, and line endings
CONLLU_PIECES = [
    "1\tDogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_",
    "2\tbark\tbark\tVERB\tVBP\tTense=Pres\t0\troot\t_\tSpaceAfter=No",
    "1\tw\tw\tX\tX\t_\t0\troot\t_\t_",
    "2\tv\tv\tX\tX\t_\t1\tdep\t_\t_",
    "2\tv\tv\tX\tX\t_\t2\tdep\t_\t_",
    "1\tw\tw\tX\tX\t_\tx\tdep\t_\t_",
    "1-2\tww\t_\t_\t_\t_\t_\t_\t_\t_",
    "a\tw\tw\tX\tX\t_\t0\troot\t_\t_", "1\tw",
    "# sent_id = a", "# sent_id = b", "# text = Dogs bark", "# note",
    "\n", "\n", "\n", " ", "\t", "\x0c", "\x0b", "\x85", "\x1c", "\u2028",
    "\r", "\r\n", "\xa0",
]
conllu_texts = st.lists(st.sampled_from(CONLLU_PIECES), max_size=25).map(
    "".join)


class TestIterConlluMatchesWholeText:
    @settings(max_examples=400, deadline=None)
    @given(conllu_texts)
    def test_same_sentences_or_error_as_the_whole_text_parse(self, text):
        expected = outcome(lambda: whole_text_parse_conllu(text))
        assert outcome(lambda: id_tokens(iter_conllu(io.StringIO(text)))) \
            == expected
        assert outcome(lambda: id_tokens(parse_conllu(text))) == expected

    @settings(max_examples=200, deadline=None)
    @given(conllu_texts)
    def test_same_sentences_from_a_file_handle(self, text):
        def handle():
            return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                    encoding="utf-8")
        assert (outcome(lambda: id_tokens(iter_conllu(handle())))
                == outcome(lambda: whole_text_parse_conllu(handle().read())))

    def test_sentences_before_a_bad_line_are_yielded(self):
        sentences = iter_conllu(io.StringIO(SAMPLE + "\n1\tbad\n"))
        assert [next(sentences).sentence_id for _ in range(8)] == [
            f"s{k}" for k in range(1, 9)]
        with pytest.raises(BadColumnCount):
            next(sentences)


class TestAlignConcepts:

    def test_lemma_match_for_sense_concept(self):
        ann = sentences()["s2"]
        tree = tree_of("(b / break-01 :ARG1 (e / engine))")
        alignment = align_concepts(tree, ann)
        assert alignment[node_by_text(tree, "break-01")] == (4, 4)
        assert alignment[node_by_text(tree, "engine")] == (2, 2)

    def test_multiword_contiguous_range(self):
        ann = sentences()["s7"]
        tree = tree_of('(i / invent-01 :ARG0 (p / person :name (n / name :op1 "Nikola" :op2 "Tesla")) :ARG1 (c / coil))')
        alignment = align_concepts(tree, ann)
        assert alignment[node_by_text(tree, "Nikola Tesla")] == (1, 2)

    def test_abstract_concept_unaligned(self):
        ann = sentences()["s2"]
        tree = tree_of("(b / break-01 :ARG1 (s / something))")
        node = node_by_text(tree, "something")
        assert node not in align_concepts(tree, ann)

    def test_condensed_quantity_aligns_to_token_window(self):
        ann = sentences()["s8"]
        tree = tree_of("(l / last-01 :ARG1 (i / it) :ARG2 (t / temporal-quantity :quant 1 :unit (y / year)))")
        alignment = align_concepts(tree, ann)
        assert alignment[node_by_text(tree, "1 year")] == (3, 4)

    def test_first_unused_match_and_injectivity(self):
        text = ("# sent_id = dd\n"
                "# text = The dog saw the dog\n"
                "1\tThe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
                "2\tdog\tdog\tNOUN\tNN\t_\t3\tnsubj\t_\t_\n"
                "3\tsaw\tsee\tVERB\tVBD\tTense=Past\t0\troot\t_\t_\n"
                "4\tthe\tthe\tDET\tDT\t_\t5\tdet\t_\t_\n"
                "5\tdog\tdog\tNOUN\tNN\t_\t3\tobj\t_\t_\n")
        ann = parse_conllu(text)[0]
        tree = tree_of("(s / see-01 :ARG0 (d / dog) :ARG1 (d2 / dog))")
        alignment = align_concepts(tree, ann)
        spans = [alignment.get(n) for n in preorder(tree)]
        assert spans == [(3, 3), (2, 2), (5, 5)]
        singles = [s for s in spans if s is not None]
        assert len(set(singles)) == len(singles)

    def test_reference_inherits_definition_span(self):
        text = ("# sent_id = w\n"
                "# text = The boy wants to go\n"
                "1\tThe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
                "2\tboy\tboy\tNOUN\tNN\t_\t3\tnsubj\t_\t_\n"
                "3\twants\twant\tVERB\tVBZ\tTense=Pres\t0\troot\t_\t_\n"
                "4\tto\tto\tPART\tTO\t_\t5\tmark\t_\t_\n"
                "5\tgo\tgo\tVERB\tVB\t_\t3\txcomp\t_\t_\n")
        ann = parse_conllu(text)[0]
        tree = tree_of("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        alignment = align_concepts(tree, ann)
        boys = [n for n in preorder(tree) if n.concept_text == "boy"]
        assert alignment[boys[0]] == (2, 2)
        assert alignment[boys[1]] == (2, 2)

    def test_case_insensitive(self):
        ann = sentences()["s6"]
        tree = tree_of('(m / make-01 :ARG0 (p / person :name (n / name :op1 "mary")) :ARG1 (c / cake))')
        alignment = align_concepts(tree, ann)
        assert alignment[node_by_text(tree, "mary")] == (1, 1)
        assert alignment[node_by_text(tree, "cake")] == (3, 3)

    def test_keys_are_tree_nodes_and_spans_in_range(self):
        ann = sentences()["s7"]
        tree = tree_of('(i / invent-01 :ARG0 (p / person :name (n / name :op1 "Nikola" :op2 "Tesla")) :ARG1 (c / coil))')
        alignment = align_concepts(tree, ann)
        nodes = preorder(tree)
        assert alignment
        for node, (start, end) in alignment.items():
            assert any(node is n for n in nodes)
            assert 1 <= start <= end <= len(ann.tokens)


class TestInferTense:

    def test_past_participle(self):
        assert infer_tense(sentences()["s2"], 4) == "past"

    def test_past_by_feats(self):
        assert infer_tense(sentences()["s8"], 2) == "past"

    def test_present_morphology(self):
        assert infer_tense(sentences()["s6"], 2) == "present"

    def test_future_from_aux_child(self):
        assert infer_tense(sentences()["s3"], 3) == "future"

    def test_non_verb_is_present(self):
        assert infer_tense(sentences()["s1"], 1) == "present"

    def test_past_morphology_beats_future_aux(self):
        text = ("1\tHe\the\tPRON\tPRP\t_\t3\tnsubj\t_\t_\n"
                "2\twill\twill\tAUX\tMD\t_\t3\taux\t_\t_\n"
                "3\tgone\tgo\tVERB\tVBN\tTense=Past\t0\troot\t_\t_\n")
        ann = parse_conllu(text)[0]
        assert infer_tense(ann, 3) == "past"

    @pytest.mark.parametrize("feats,tense", [
        ("Tense=Past|Tense=Pres", "present"),
        ("Tense=Pres|Tense=Past", "past"),
        ("Mood=Ind|Tense=Past|Tense", "present"),
    ])
    def test_last_tense_feature_counts(self, feats, tense):
        text = f"1\tgo\tgo\tVERB\tVBP\t{feats}\t0\troot\t_\t_\n"
        assert infer_tense(parse_conllu(text)[0], 1) == tense

    def test_total_over_all_tokens(self):
        for ann in sentences().values():
            for index in range(1, len(ann.tokens) + 1):
                assert infer_tense(ann, index) in ("past", "present", "future")


class TestSubtreeSpan:

    def test_leaf_singleton(self):
        assert subtree_span(sentences()["s1"], 1) == (1, 1)

    def test_root_covers_sentence(self):
        assert subtree_span(sentences()["s2"], 4) == (1, 5)

    def test_noun_phrase(self):
        ann = sentences()["s4"]
        assert subtree_span(ann, 8) == (6, 8)
        assert subtree_span(ann, 5) == (3, 8)

    def test_engine_with_determiner(self):
        assert subtree_span(sentences()["s2"], 2) == (1, 2)

    def test_brute_force_small_trees(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 12)
            heads = random_tree_heads(rng, n)
            ann = annotation_from_heads(heads)
            for index in range(1, n + 1):
                assert subtree_span(ann, index) == _oracle_span(heads, index)

    @given(st.integers(0, 10**9), st.integers(1, 25))
    @settings(max_examples=150, deadline=None)
    def test_brute_force_property(self, seed, n):
        rng = random.Random(seed)
        heads = random_tree_heads(rng, n)
        ann = annotation_from_heads(heads)
        index = rng.randrange(1, n + 1)
        assert subtree_span(ann, index) == _oracle_span(heads, index)


def _chain_loops(heads: list[int]) -> bool:
    """Oracle: follow each token's head chain; more steps than tokens
    means a loop."""
    for start in range(1, len(heads) + 1):
        current = start
        for _ in range(len(heads) + 1):
            if heads[current - 1] == 0:
                break
            current = heads[current - 1]
        else:
            return True
    return False


class TestAcyclicTree:
    """An annotation is built only over heads that form a tree."""

    def test_cycle_raises(self):
        tokens = [Token("a", "a", "X", "X", {}, 1)]
        with pytest.raises(CyclicTree) as exc:
            SentenceAnnotation("bad", tokens)
        assert exc.value.sentence_id == "bad"

    @given(st.integers(0, 12).flatmap(
        lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_on_a_loop(self, heads):
        if _chain_loops(heads):
            with pytest.raises(CyclicTree):
                annotation_from_heads(heads)
        else:
            ann = annotation_from_heads(heads)
            edges = [(index, child) for index in range(len(heads) + 1)
                     for child in ann.children_of(index)]
            assert sorted(child for _, child in edges) \
                == list(range(1, len(heads) + 1))
            assert all(heads[child - 1] == index for index, child in edges)


def _oracle_span(heads: list[int], root: int) -> tuple[int, int]:
    """Transitive-closure reference: token j is dominated by `root` when the
    head chain from j passes through it."""
    dominated = []
    for j in range(1, len(heads) + 1):
        current = j
        while current != 0:
            if current == root:
                dominated.append(j)
                break
            current = heads[current - 1]
    return (min(dominated), max(dominated))
