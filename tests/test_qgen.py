"""Question generation: template filling, candidate building, argmax
selection and predicate-sense questions."""

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr2qa.agen import SENSE, Answer
from amr2qa.annotate import align_concepts, parse_conllu
from amr2qa.penman import parse_penman
from amr2qa.preprocess import preorder, preprocess
from amr2qa.qgen import (
    ArityMismatch,
    QuestionCandidate,
    best_question,
    fill_template,
    generate_candidates,
    sense_question,
)
from amr2qa.scorer import BaselineScorer
from amr2qa.templates import Template, TemplateStore, split_pattern

from helpers import default_store


def tok(index, surface, lemma, upos, xpos, head,
        feats="_", deprel="dep", misc="_"):
    return "\t".join([str(index), surface, lemma, upos, xpos, feats,
                      str(head), deprel, "_", misc])


def make_ann(rows):
    return parse_conllu("\n".join(rows) + "\n")[0]


BROKEN = make_ann([
    tok(1, "The", "the", "DET", "DT", 2, deprel="det"),
    tok(2, "engine", "engine", "NOUN", "NN", 4, deprel="nsubj:pass"),
    tok(3, "was", "be", "AUX", "VBD", 4, feats="Tense=Past", deprel="aux:pass"),
    tok(4, "broken", "break", "VERB", "VBN", 0,
        feats="Tense=Past|VerbForm=Part", deprel="root"),
    tok(5, ".", ".", "PUNCT", ".", 4, deprel="punct"),
])

VISITS = make_ann([
    tok(1, "Mary", "Mary", "PROPN", "NNP", 2, deprel="nsubj"),
    tok(2, "visits", "visit", "VERB", "VBZ", 0, feats="Tense=Pres",
        deprel="root"),
    tok(3, "museums", "museum", "NOUN", "NNS", 2, deprel="obj"),
    tok(4, "twice", "twice", "ADV", "RB", 2, deprel="advmod"),
    tok(5, ".", ".", "PUNCT", ".", 2, deprel="punct"),
])

STOOD = make_ann([
    tok(1, "He", "he", "PRON", "PRP", 2, deprel="nsubj"),
    tok(2, "stood", "stand", "VERB", "VBD", 0, feats="Tense=Past",
        deprel="root"),
    tok(3, "in", "in", "ADP", "IN", 5, deprel="case"),
    tok(4, "the", "the", "DET", "DT", 5, deprel="det"),
    tok(5, "middle", "middle", "NOUN", "NN", 2, deprel="obl"),
    tok(6, "of", "of", "ADP", "IN", 8, deprel="case"),
    tok(7, "the", "the", "DET", "DT", 8, deprel="det"),
    tok(8, "desert", "desert", "NOUN", "NN", 5, deprel="nmod"),
    tok(9, ".", ".", "PUNCT", ".", 2, deprel="punct"),
])

DANCE = make_ann([
    tok(1, "The", "the", "DET", "DT", 2, deprel="det"),
    tok(2, "dance", "dance", "NOUN", "NN", 3, deprel="nsubj"),
    tok(3, "ended", "end", "VERB", "VBD", 0, feats="Tense=Past",
        deprel="root"),
    tok(4, ".", ".", "PUNCT", ".", 3, deprel="punct"),
])


def build(amr_text, ann):
    tree = preprocess(parse_penman(amr_text))
    alignment = align_concepts(tree, ann)
    return tree, alignment


def template_for(pattern, tense="past", pos="VERB", kind="core", key="Patient"):
    blanks = {int(m) for m in re.findall(r"\{(\d+)\}", pattern)}
    return Template(id=f"test:{pattern}", kind=kind, key=key, tense=tense,
                    pattern=pattern,
                    blank_pos=tuple(frozenset({pos}) for _ in blanks),
                    pieces=split_pattern(pattern))


class TestFillTemplate:
    def test_single_blank(self):
        t = template_for("What was {0} ?")
        assert fill_template(t, ["broken"]) == "What was broken ?"

    def test_two_blanks(self):
        t = template_for("How many times someone {0} {1} ?")
        assert fill_template(t, ["visited", "museums"]) == \
            "How many times someone visited museums ?"

    def test_arity_mismatch(self):
        t = template_for("What was {0} ?")
        with pytest.raises(ArityMismatch):
            fill_template(t, [])
        with pytest.raises(ArityMismatch):
            fill_template(t, ["a", "b"])

    def test_zero_blank_pass_through(self):
        t = Template(id="x", kind="core", key="k", tense="any",
                     pattern="Who knows ?", blank_pos=(),
                     pieces=split_pattern("Who knows ?"))
        assert fill_template(t, []) == "Who knows ?"

    def test_fill_text_is_literal(self):
        t = template_for("What was {0} ?")
        assert fill_template(t, ["50%{1}"]) == "What was 50%{1} ?"

    def test_repeated_blank_index(self):
        t = template_for("Who {0} and {0} ?")
        assert fill_template(t, ["ran"]) == "Who ran and ran ?"


class TestGenerateCandidates:
    def setup_method(self):
        self.store = default_store()

    def test_broken_engine_pair(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        engine = preorder(tree)[1]
        candidates = generate_candidates(engine, tree, self.store,
                                         BROKEN, alignment)
        assert [c.filled_text for c in candidates] == [
            "What was broken ?", "What broken ?"]
        first = candidates[0]
        assert first.relation == "ARG1"
        assert first.entity_ref is engine

    def test_inverse_relation_swaps_supplier(self):
        tree, alignment = build("(e / engine :ARG1-of (b / break-01))", BROKEN)
        predicate = preorder(tree)[1]
        candidates = generate_candidates(predicate, tree, self.store,
                                         BROKEN, alignment)
        assert [c.filled_text for c in candidates] == [
            "What was broken ?", "What broken ?"]
        assert candidates[0].relation == "ARG1-of"
        assert candidates[0].entity_ref is tree  # answer comes from the parent

    def test_location_under_past_verb(self):
        tree, alignment = build("(s / stand-01 :location (m / middle))", STOOD)
        middle = preorder(tree)[1]
        candidates = generate_candidates(middle, tree, self.store,
                                         STOOD, alignment)
        assert [c.filled_text for c in candidates] == [
            "Where was stood ?", "Where did someone stood ?"]

    def test_unaligned_supplier_uses_lemma_and_present(self):
        tree, alignment = build("(f / fix-01 :ARG1 (e / engine))", BROKEN)
        engine = preorder(tree)[1]
        candidates = generate_candidates(engine, tree, self.store,
                                         BROKEN, alignment)
        assert [c.filled_text for c in candidates] == [
            "What does someone fix ?", "What is fix ?"]

    def test_two_blank_fill_from_entity(self):
        tree, alignment = build("(v / visit-01 :frequency (m / museum))",
                                VISITS)
        museum = preorder(tree)[1]
        candidates = generate_candidates(museum, tree, self.store,
                                         VISITS, alignment)
        assert [c.filled_text for c in candidates] == [
            "How many times someone visits museums ?",
            "How many times something visits museums ?"]

    def test_numeric_entity_fails_noun_blank(self):
        tree, alignment = build("(v / visit-01 :frequency 2)", VISITS)
        two = preorder(tree)[1]
        assert generate_candidates(two, tree, self.store, VISITS,
                                   alignment) == []

    @pytest.mark.parametrize("constant", [
        "inf", "-Infinity", "NaN", "nan", "1_000"])
    def test_non_numeral_constant_fills_noun_blank(self, constant):
        # float() reads these, but they are words, not numerals
        tree, alignment = build(f"(v / visit-01 :frequency {constant})",
                                VISITS)
        node = preorder(tree)[1]
        candidates = generate_candidates(node, tree, self.store, VISITS,
                                         alignment)
        assert [c.filled_text for c in candidates] == [
            f"How many times someone visits {constant} ?",
            f"How many times something visits {constant} ?"]

    @pytest.mark.parametrize("constant", ["-3", "2.5", "1e3"])
    def test_other_finite_numerals_fail_noun_blank(self, constant):
        tree, alignment = build(f"(v / visit-01 :frequency {constant})",
                                VISITS)
        node = preorder(tree)[1]
        assert generate_candidates(node, tree, self.store, VISITS,
                                   alignment) == []

    def test_unknown_relation_skipped(self):
        tree, alignment = build("(b / break-01 :quibble (e / engine))", BROKEN)
        engine = preorder(tree)[1]
        assert generate_candidates(engine, tree, self.store, BROKEN,
                                   alignment) == []

    def test_op_children_skipped(self):
        tree, alignment = build(
            "(a / and :op1 (b / break-01) :op2 (e / engine))", BROKEN)
        first = preorder(tree)[1]
        assert generate_candidates(first, tree, self.store, BROKEN,
                                   alignment) == []

    def test_root_yields_nothing(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        assert generate_candidates(tree, tree, self.store, BROKEN,
                                   alignment) == []

    def test_agent_from_inverse_arg0(self):
        text = ('(p / person :name (n / name :op1 "Nikola" :op2 "Tesla") '
                ':ARG0-of (i / invent-01))')
        ann = make_ann([
            tok(1, "Nikola", "Nikola", "PROPN", "NNP", 2, deprel="compound"),
            tok(2, "Tesla", "Tesla", "PROPN", "NNP", 3, deprel="nsubj"),
            tok(3, "invented", "invent", "VERB", "VBD", 0,
                feats="Tense=Past", deprel="root"),
            tok(4, ".", ".", "PUNCT", ".", 3, deprel="punct"),
        ])
        tree, alignment = build(text, ann)
        predicate = preorder(tree)[1]
        candidates = generate_candidates(predicate, tree, self.store,
                                         ann, alignment)
        assert "Who invented ?" in [c.filled_text for c in candidates]
        assert len(candidates) == 6  # Agent past templates
        assert all(c.entity_ref is tree for c in candidates)


def keyed_template(key, kind="noncore"):
    """A template whose text names its lookup key, with blank 0 for the
    predicate side and blank 1 for the entity, either a verb or a noun."""
    pattern = key + " {0} {1} ?"
    either = frozenset({"VERB", "NOUN"})
    return Template(id=f"test:{key}", kind=kind, key=key, tense="any",
                    pattern=pattern, blank_pos=(either, either),
                    pieces=split_pattern(pattern))


KEYED_STORE = TemplateStore(
    core={"ARG0": [keyed_template("ARG0", "core")]},
    noncore={key: [keyed_template(key)] for key in (
        "location", "mod", "consist-of", "prep-out-of", "prep-on-behalf-of")})


class TestInverseRule:
    """A name ending in ``-of`` is inverse, except three names that only
    end like one: an inverse relation swaps the two ends and looks up its
    name without ``-of``; any other relation looks up itself."""

    @pytest.mark.parametrize("relation, key, inverse", [
        ("ARG0-of", "ARG0", True),
        ("location-of", "location", True),
        ("ARG0", "ARG0", False),
        ("mod", "mod", False),
        ("consist-of", "consist-of", False),
        ("prep-out-of", "prep-out-of", False),
        ("prep-on-behalf-of", "prep-on-behalf-of", False),
    ])
    def test_lookup_key_and_ends(self, relation, key, inverse):
        tree = preprocess(parse_penman(f"(h / hold-01 :{relation} (c / cup))"))
        child = preorder(tree)[1]
        candidates = generate_candidates(child, tree, KEYED_STORE, BROKEN, {})
        # unaligned fills: the sense-stripped concepts
        if inverse:   # the child supplies blank 0; the answer is the parent
            expected = (f"{key} cup hold ?", tree)
        else:
            expected = (f"{key} hold cup ?", child)
        assert [(c.filled_text, c.entity_ref, c.relation)
                for c in candidates] == [(*expected, relation)]


class _ConstantScorer:
    def __init__(self, value=-1.0):
        self.value = value

    def score(self, question):
        return self.value


class _AffineScorer:
    def __init__(self, inner, scale, shift):
        self.inner = inner
        self.scale = scale
        self.shift = shift

    def score(self, question):
        return self.scale * self.inner.score(question) + self.shift


def scored(candidates, scorer):
    """The text -> score mapping ``best_question`` selects from."""
    return {c.filled_text: scorer.score(c.filled_text) for c in candidates}


def _candidate(text, template_id="t"):
    return QuestionCandidate(template_id=template_id, filled_text=text,
                             entity_ref=None, relation="ARG1")


class TestBestQuestion:
    def setup_method(self):
        self.baseline = BaselineScorer.bundled()

    def test_language_model_prefers_auxiliary(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        engine = preorder(tree)[1]
        candidates = generate_candidates(engine, tree, default_store(),
                                         BROKEN, alignment)
        best = best_question(candidates, scored(candidates, self.baseline))
        assert best.filled_text == "What was broken ?"

    def test_empty_input(self):
        assert best_question([], {}) is None

    def test_candidates_are_left_unchanged(self):
        candidates = [_candidate("Who ran ?", "first"),
                      _candidate("Who ran far ?", "second")]
        before = [copy.copy(c) for c in candidates]
        best_question(candidates, scored(candidates, self.baseline))
        assert candidates == before
        with pytest.raises(AttributeError):
            candidates[0].template_id = "other"
        assert candidates[0].template_id == "first"

    def test_singleton(self):
        only = _candidate("What was broken ?")
        assert best_question([only], scored([only], self.baseline)) is only

    def test_tie_goes_to_resource_order(self):
        first = _candidate("Who ran ?", "first")
        second = _candidate("Who jumped ?", "second")
        best = best_question([first, second],
                             scored([first, second], _ConstantScorer()))
        assert best is first

    @settings(max_examples=40)
    @given(st.floats(min_value=0.01, max_value=40), st.floats(-50, 50))
    def test_argmax_invariant_under_positive_affine(self, scale, shift):
        candidates = [_candidate("What was broken ?"),
                      _candidate("What broken ?"),
                      _candidate("Where did someone stood ?")]
        plain = best_question(candidates, scored(candidates, self.baseline))
        scaled = best_question(candidates, scored(
            candidates, _AffineScorer(self.baseline, scale, shift)))
        assert scaled.filled_text == plain.filled_text


class TestSenseQuestion:
    def test_aligned_predicate(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        question, answer = sense_question(tree, BROKEN, alignment)
        assert question == "What is the sense of broken ?"
        assert answer == Answer(kind=SENSE, text="break-01", span=None,
                                source_node="b")

    def test_senseless_concept(self):
        tree, alignment = build("(b / break-01 :ARG1 (e / engine))", BROKEN)
        engine = preorder(tree)[1]
        assert sense_question(engine, BROKEN, alignment) is None

    def test_unaligned_predicate(self):
        tree, alignment = build("(f / fix-01 :ARG1 (e / engine))", BROKEN)
        assert sense_question(tree, BROKEN, alignment) is None

    def test_predicate_aligned_to_noun(self):
        tree, alignment = build("(x / end-01 :ARG1 (d / dance-01))", DANCE)
        nominal = preorder(tree)[1]
        assert sense_question(nominal, DANCE, alignment) is None
        question, answer = sense_question(tree, DANCE, alignment)
        assert question == "What is the sense of ended ?"
        assert answer.text == "end-01"

    def test_reference_position_suppressed(self):
        tree, alignment = build(
            "(a / and :op1 (b / break-01 :ARG1 (e / engine)) :op2 b)", BROKEN)
        nodes = preorder(tree)
        reference = nodes[-1]
        assert reference.is_reference
        assert sense_question(reference, BROKEN, alignment) is None
        definition = nodes[1]
        assert sense_question(definition, BROKEN, alignment) is not None
