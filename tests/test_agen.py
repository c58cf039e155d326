"""Answer extraction: subtree spans for aligned nodes, concept fallbacks,
and range-head selection for multi-word alignments."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr2qa.agen import CONCEPT_FALLBACK, SPAN, extract_answer, span_text
from amr2qa.annotate import align_concepts, parse_conllu, range_head
from amr2qa.penman import parse_penman
from amr2qa.preprocess import preorder, preprocess

from helpers import annotation_from_heads, random_tree_heads
from test_qgen import BROKEN, STOOD, VISITS, build, make_ann, tok

TESLA = make_ann([
    tok(1, "Nikola", "Nikola", "PROPN", "NNP", 2, deprel="compound"),
    tok(2, "Tesla", "Tesla", "PROPN", "NNP", 3, deprel="nsubj"),
    tok(3, "invented", "invent", "VERB", "VBD", 0, feats="Tense=Past",
        deprel="root"),
    tok(4, "the", "the", "DET", "DT", 5, deprel="det"),
    tok(5, "coil", "coil", "NOUN", "NN", 3, deprel="obj"),
    tok(6, ".", ".", "PUNCT", ".", 3, deprel="punct"),
])


class TestSpans:
    def test_single_word_alignment_takes_subtree(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        engine = preorder(tree)[1]
        answer = extract_answer(engine, BROKEN, alignment)
        assert answer.kind == SPAN
        assert answer.span == (1, 2)
        assert answer.text == "The engine"
        assert answer.source_node == "e"

    def test_nested_modifier_phrases(self):
        tree, alignment = build(
            "(s / stand-01 :ARG0 (h / he) :location (m / middle "
            ":part (d / desert)))", STOOD)
        nodes = preorder(tree)
        middle = nodes[2]
        desert = nodes[3]
        assert extract_answer(desert, STOOD, alignment).span == (6, 8)
        assert extract_answer(desert, STOOD, alignment).text == "of the desert"
        middle_answer = extract_answer(middle, STOOD, alignment)
        assert middle_answer.span == (3, 8)
        assert middle_answer.text == "in the middle of the desert"

    def test_leaf_token_single_word_span(self):
        tree, alignment = build("(v / visit-01 :frequency (m / museum))",
                                VISITS)
        museum = preorder(tree)[1]
        answer = extract_answer(museum, VISITS, alignment)
        assert answer.span == (3, 3)
        assert answer.text == "museums"

    def test_multi_word_alignment_uses_range_head(self):
        tree, alignment = build(
            '(p / person :name (n / name :op1 "Nikola" :op2 "Tesla") '
            ':ARG0-of (i / invent-01 :ARG1 (c / coil)))', TESLA)
        person = preorder(tree)[0]
        assert alignment[person] == (1, 2)
        answer = extract_answer(person, TESLA, alignment)
        assert answer.span == (1, 2)
        assert answer.text == "Nikola Tesla"

    def test_root_predicate_spans_whole_sentence(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        answer = extract_answer(tree, BROKEN, alignment)
        assert answer.span == (1, 5)
        assert answer.text == "The engine was broken ."


class TestFallback:
    def test_unaligned_plain_concept(self):
        tree, alignment = build("(k / know-01 :time (s / sometimes))", BROKEN)
        sometimes = preorder(tree)[1]
        answer = extract_answer(sometimes, BROKEN, alignment)
        assert answer.kind == CONCEPT_FALLBACK
        assert answer.text == "sometimes"
        assert answer.span is None

    def test_unaligned_predicate_loses_sense_suffix(self):
        tree, alignment = build("(f / fix-01 :ARG1 (e / engine))", BROKEN)
        answer = extract_answer(tree, BROKEN, alignment)
        assert answer.kind == CONCEPT_FALLBACK
        assert answer.text == "fix"

    def test_condensed_entity_text_survives(self):
        tree, alignment = build(
            "(x / happen-01 :time (d / date-entity :day 5 :month 2 "
            ":year 2013))", BROKEN)
        date = preorder(tree)[1]
        answer = extract_answer(date, BROKEN, alignment)
        assert answer.text == "5 February 2013"

    def test_no_fallback_carries_sense_suffix(self):
        graphs = [
            "(f / fix-01 :ARG1 (e / engine))",
            "(w / want-01 :ARG1 (g / go-02))",
            "(x / happen-01 :time (d / date-entity :month 2 :year 2013))",
        ]
        for text in graphs:
            tree, alignment = build(text, BROKEN)
            for node in preorder(tree):
                answer = extract_answer(node, BROKEN, alignment)
                if answer.kind == CONCEPT_FALLBACK:
                    assert not re.search(r"-\d\d$", answer.text)


class TestRangeHead:
    def test_externally_headed_token_wins(self):
        assert range_head(TESLA, (1, 2)) == 2

    def test_single_token_range(self):
        assert range_head(TESLA, (5, 5)) == 5

    def test_whole_sentence_returns_root(self):
        assert range_head(TESLA, (1, 6)) == 3

    def test_leftmost_of_several_external_heads(self):
        # tokens 4 and 6 both point outside (4 -> 5 is inside, 5 -> 3 and
        # 6 -> 3 point out), so the scan finds token 5 first
        assert range_head(TESLA, (4, 6)) == 5


def _oracle_descendants(heads, root):
    out = {root}
    changed = True
    while changed:
        changed = False
        for index, head in enumerate(heads, start=1):
            if head in out and index not in out:
                out.add(index)
                changed = True
    return out


class _FakeNode:
    variable = "n"
    concept_text = "thing"
    source_concepts = ()


class TestSpanAgainstBruteForce:
    def test_random_trees(self):
        rng = random.Random(99)
        for _ in range(150):
            heads = random_tree_heads(rng, rng.randint(1, 12))
            ann = annotation_from_heads(heads)
            index = rng.randint(1, len(heads))
            node = _FakeNode()
            answer = extract_answer(node, ann, {node: (index, index)})
            expected = _oracle_descendants(heads, index)
            assert answer.span == (min(expected), max(expected))
            assert answer.text == span_text(ann, answer.span)

    @settings(max_examples=60)
    @given(st.integers(0, 10_000))
    def test_seeded_property(self, seed):
        rng = random.Random(seed)
        heads = random_tree_heads(rng, rng.randint(1, 10))
        ann = annotation_from_heads(heads)
        index = rng.randint(1, len(heads))
        node = _FakeNode()
        answer = extract_answer(node, ann, {node: (index, index)})
        expected = _oracle_descendants(heads, index)
        assert answer.span == (min(expected), max(expected))
