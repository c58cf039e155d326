"""Tests for PENMAN parsing, serialization and the triple view."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr2qa.penman import (
    AmrNode,
    Concept,
    DanglingVariableReference,
    DuplicateVariableDefinition,
    EmptyInput,
    MalformedGraph,
    PenmanError,
    UnbalancedParens,
    parse_penman,
    serialize_penman,
    to_triples,
)

from helpers import fuzz_strings, load_penman_corpus

OUTCOMES_GOLDEN = Path(__file__).parent / "fixtures" / "penman_outcomes.golden"

# lexical corners the fuzz pool never produces: escapes, an unterminated
# string or a bare ':' behind an earlier structural error, '#' and '~'
# inside atoms, and Unicode whitespace as separators
EDGE_CASES = [
    '(a / "x\\', '(a / b :c "x\\"', '(a / b :c "x\\\\")', '(a / b :c "x\\\ny")',
    '(a / b :c "\\q\\"\\\\")', '"', '"abc', ')"abc', '(a / b c "abc', '(a / b :c x "',
    '(a / b :"x")', '(a / b :(c / d))', '(a / b :', '(a / b) :', '(a / b :c :d)',
    ':', ') :', '(a / b) "', '(a :', '(a / :c d)',
    '(a / b#c)', '(a / b :c d#e\n)', '(a / b~e.1c)', '(a / b~)', '(a#b / c)',
    '(a~e.1 / b :c~e.2 d~e.3)', '(a / b :c d~e.1"x)', '(a / b~e.1(c))',
    '(a / b :c~ d)', '(a / b ~e.1:c d)', '(a / b) # trailing', '# only a comment',
    '#x\n(a / b)', '(a / b\n# c :d e\n:f g)',
    '(a\r/\rb\r:c\rd)', '(a\x1c/\x1cb\x1c:c\x1cd)',
    '(a\u00a0/\u00a0b\u00a0:c\u00a0d)', '(a\u2028/\u2028b\u2028:c\u2028d)',
    '(a / "b\u2028c" :d "\r\x1c")', '\u00a0\u2028\r\x1c', '(a\\ / b\\)', '(a / b)~',
]


def outcome(text: str) -> str:
    """One golden line: ``ok`` and the serialization, or the error class,
    offset and message; escaped so every outcome stays on one line."""
    try:
        line = "ok " + serialize_penman(parse_penman(text))
    except PenmanError as e:
        line = f"{type(e).__name__} {e.offset} {e}"
    return line.encode("unicode_escape").decode("ascii")


def outcomes() -> list[str]:
    return [outcome(text) for text in [*fuzz_strings(3000, seed=11), *EDGE_CASES]]


class TestTriples:

    def test_basic_graph(self):
        g = parse_penman("(b / break-01 :ARG1 (e / engine))")
        assert to_triples(g) == [
            ("b", "instance", "break-01"),
            ("e", "instance", "engine"),
            ("b", "ARG1", "e"),
        ]

    def test_reentrancy(self):
        g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        assert to_triples(g) == [
            ("w", "instance", "want-01"),
            ("b", "instance", "boy"),
            ("g", "instance", "go-02"),
            ("w", "ARG0", "b"),
            ("w", "ARG1", "g"),
            ("g", "ARG0", "b"),
        ]

    def test_double_reentrancy_preorder(self):
        g = parse_penman(
            "(t / think-01 :ARG0 (g / girl) :ARG1 (k / know-01"
            " :ARG0 (b / boy) :ARG1 (l / love-01 :ARG0 b :ARG1 g)))")
        assert to_triples(g) == [
            ("t", "instance", "think-01"),
            ("g", "instance", "girl"),
            ("k", "instance", "know-01"),
            ("b", "instance", "boy"),
            ("l", "instance", "love-01"),
            ("t", "ARG0", "g"),
            ("t", "ARG1", "k"),
            ("k", "ARG0", "b"),
            ("k", "ARG1", "l"),
            ("l", "ARG0", "b"),
            ("l", "ARG1", "g"),
        ]

    def test_constant_targets_keep_source_form(self):
        g = parse_penman('(c / city :wiki "New_York_City" :quant 3 :polarity -)')
        assert to_triples(g) == [
            ("c", "instance", "city"),
            ("c", "wiki", '"New_York_City"'),
            ("c", "quant", "3"),
            ("c", "polarity", "-"),
        ]

    def test_single_node(self):
        assert to_triples(parse_penman("(d / dog)")) == [("d", "instance", "dog")]

    def test_forward_reference(self):
        g = parse_penman("(a / and :op1 b :op2 (b / boy))")
        assert to_triples(g) == [
            ("a", "instance", "and"),
            ("b", "instance", "boy"),
            ("a", "op1", "b"),
            ("a", "op2", "b"),
        ]


class TestGraphStructure:

    def test_nodes_map_defining_occurrences_only(self):
        g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        # four tree occurrences: w, b, g and the reentrant b
        occurrences = list(g.walk())
        definitions = {n.variable: n.concept.label for n in occurrences
                       if n.concept is not None}
        assert definitions == {"w": "want-01", "b": "boy", "g": "go-02"}
        assert len(occurrences) == 4
        assert sum(1 for n in occurrences if n.concept is None) == 1

    def test_child_order_is_source_order(self):
        g = parse_penman("(g / give-01 :ARG2 (r / recipient) :ARG1 (b / book))")
        assert [rel for rel, _ in g.children] == ["ARG2", "ARG1"]

    def test_constants_have_no_variable(self):
        g = parse_penman("(g / go-02 :mode imperative)")
        _, child = g.children[0]
        assert child.variable is None and child.concept is not None
        assert child.concept.label == "imperative"

    def test_unusual_but_defined_variable_names(self):
        g = parse_penman("(ii / i :mod (s2 / sad))")
        assert {n.variable for n in g.walk() if n.concept is not None} == {"ii", "s2"}

    def test_relations_are_their_names(self):
        # inverse names are kept as written, without the colon
        g = parse_penman("(b / boy :ARG0-of (r / run-02) :consist-of (c / cell))")
        assert [rel for rel, _ in g.children] == ["ARG0-of", "consist-of"]
        for text in load_penman_corpus():
            for node in parse_penman(text).walk():
                for rel, _ in node.children:
                    assert type(rel) is str and rel[:1] != ":", text


class TestConcept:

    def test_sense_suffix(self):
        c = Concept.from_label("break-01")
        assert (c.lemma, c.sense) == ("break", "01")

    def test_multiword_frame(self):
        c = Concept.from_label("have-degree-91")
        assert (c.lemma, c.sense) == ("have-degree", "91")

    def test_no_sense(self):
        assert Concept.from_label("engine").sense is None
        assert Concept.from_label("engine").lemma == "engine"

    def test_one_and_three_digit_suffixes_are_not_senses(self):
        assert Concept.from_label("x-1").sense is None
        assert Concept.from_label("run-100").sense is None

    def test_lemma_requires_real_character_before_suffix(self):
        assert Concept.from_label("-01").sense is None


def nested_graph(depth: int) -> str:
    """A chain of ``depth`` nodes, each the :ARG0 of the one before."""
    return ("".join(f"(v{i} / thing :ARG0 " for i in range(depth))
            + "(leaf / thing)" + ")" * depth)


class TestErrors:

    def test_empty_input(self):
        with pytest.raises(EmptyInput) as exc:
            parse_penman("")
        assert exc.value.offset == 0

    def test_whitespace_only(self):
        with pytest.raises(EmptyInput) as exc:
            parse_penman("  \n ")
        assert exc.value.offset == 4

    def test_unclosed_paren(self):
        with pytest.raises(UnbalancedParens) as exc:
            parse_penman("(b / break-01")
        assert exc.value.offset == 13

    def test_extra_close_paren(self):
        with pytest.raises(UnbalancedParens) as exc:
            parse_penman("(b / x))")
        assert exc.value.offset == 7

    def test_close_without_open(self):
        with pytest.raises(UnbalancedParens) as exc:
            parse_penman(")")
        assert exc.value.offset == 0

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariableDefinition) as exc:
            parse_penman("(b / x :ARG0 (b / y))")
        assert exc.value.offset == 14

    def test_dangling_reference(self):
        with pytest.raises(DanglingVariableReference) as exc:
            parse_penman("(w / want-01 :ARG1 g)")
        assert exc.value.offset == 19

    def test_dangling_reference_with_digit(self):
        with pytest.raises(DanglingVariableReference) as exc:
            parse_penman("(b / x :ARG0 q2)")
        assert exc.value.offset == 13

    def test_multiletter_unknown_atom_is_constant_not_dangling(self):
        g = parse_penman("(b / x :ARG0 somebody)")
        _, child = g.children[0]
        assert child.variable is None and child.concept is not None

    def test_bare_word_input(self):
        with pytest.raises(MalformedGraph) as exc:
            parse_penman("boy")
        assert exc.value.offset == 0

    def test_trailing_second_graph(self):
        with pytest.raises(MalformedGraph) as exc:
            parse_penman("(b / x)(c / y)")
        assert exc.value.offset == 7

    def test_unterminated_string(self):
        with pytest.raises(MalformedGraph) as exc:
            parse_penman('(b / x :mod "unterminated')
        assert exc.value.offset == 12

    def test_missing_concept(self):
        with pytest.raises(MalformedGraph):
            parse_penman("(b :ARG0 (c / cat))")

    def test_nesting_past_the_recursion_limit(self):
        # the parser recurses once per level, so this text is deeper than
        # any stack it may use
        text = nested_graph(sys.getrecursionlimit())
        with pytest.raises(PenmanError) as exc:
            parse_penman(text)
        assert type(exc.value) is MalformedGraph
        assert str(exc.value) == "graph nesting too deep (at offset 0)"
        assert exc.value.offset == 0

    def test_errors_are_value_errors(self):
        for bad in ["", ")", "(b", "(b / x))", "(a / a :ARG0 z9)"]:
            with pytest.raises(PenmanError):
                parse_penman(bad)
            with pytest.raises(ValueError):
                parse_penman(bad)


class TestLexicalDetails:

    def test_alignment_markers_stripped(self):
        plain = parse_penman("(s / see-01 :ARG0 (i / i) :ARG1 (e / elephant))")
        marked = parse_penman("(s / see-01~e.2 :ARG0~e.1 (i / i~e.0) :ARG1 (e / elephant~e.4))")
        assert to_triples(marked) == to_triples(plain)

    def test_comment_lines_ignored(self):
        text = "# ::id x1\n# ::snt The dog barked .\n(b / bark-01 :ARG0 (d / dog))"
        assert to_triples(parse_penman(text)) == [
            ("b", "instance", "bark-01"),
            ("d", "instance", "dog"),
            ("b", "ARG0", "d"),
        ]

    def test_quoted_string_with_spaces_and_escapes(self):
        g = parse_penman('(n / name :op1 "Rio de Janeiro" :op2 "say \\"no\\"")')
        targets = [child.concept.label for _, child in g.children]
        assert targets == ["Rio de Janeiro", 'say "no"']

    def test_numbers_and_signs(self):
        g = parse_penman("(c / change-01 :quant -5 :value 5.50 :polite +)")
        targets = [child.concept.label for _, child in g.children]
        assert targets == ["-5", "5.50", "+"]

    def test_compact_slash(self):
        assert to_triples(parse_penman("(a/alpha :mod (b/beta))")) == [
            ("a", "instance", "alpha"),
            ("b", "instance", "beta"),
            ("a", "mod", "b"),
        ]


class TestOutcomesGolden:

    def test_outcomes_match_golden(self):
        """Pins the result of every fuzz and edge-case input: the
        serialization of what parses, the class, offset and message of what
        fails. Regenerate with ``PYTHONPATH=src python tests/test_penman.py``
        only when a change of outcome is intended."""
        golden = OUTCOMES_GOLDEN.read_text(encoding="ascii").splitlines()
        assert outcomes() == golden


class TestRoundTrip:

    def test_corpus_has_at_least_50_graphs(self):
        assert len(load_penman_corpus()) >= 50

    def test_corpus_round_trip(self):
        for text in load_penman_corpus():
            g = parse_penman(text)
            once = serialize_penman(g)
            g2 = parse_penman(once)
            assert to_triples(g2) == to_triples(g), text
            assert serialize_penman(g2) == once, text

    def test_serialization_is_canonical(self):
        text = "(w / want-01\n   :ARG0 (b / boy)\n   :ARG1 (g / go-02\n      :ARG0 b))"
        assert serialize_penman(parse_penman(text)) == \
            "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"

    def test_already_canonical_text_is_fixed_point(self):
        text = "(b / break-01 :ARG1 (e / engine))"
        assert serialize_penman(parse_penman(text)) == text

    def test_quoted_concept_round_trips(self):
        text = '(x / "strange label" :ARG0 (y / yes))'
        g = parse_penman(text)
        assert serialize_penman(parse_penman(serialize_penman(g))) == serialize_penman(g)

    @pytest.mark.parametrize("text, label", [
        (r'(a / b :c "x\\")', "x\\"),
        (r'(a / b :c "x\\y")', "x\\y"),
        (r'(a / b :c "\\\"")', '\\"'),
        (r'(a / b :c "q\"\\")', 'q"\\'),
        (r'(a / "p\\q")', "p\\q"),
    ])
    def test_backslash_in_quoted_label_round_trips(self, text, label):
        g = parse_penman(text)
        node = g.children[0][1] if g.children else g
        assert node.concept.label == label
        once = serialize_penman(g)
        assert once == text
        assert to_triples(parse_penman(once)) == to_triples(g)


class TestFuzz:

    def test_seeded_fuzz_parser_is_total(self):
        """Parser either returns a graph or raises PenmanError, never
        anything else, and every accepted input round-trips."""
        for text in fuzz_strings(2000, seed=7):
            try:
                g = parse_penman(text)
            except PenmanError:
                continue
            assert isinstance(g, AmrNode)
            # a definition's variable is unique, a reference names one and
            # a constant has a concept
            nodes = list(g.walk())
            defined = [n.variable for n in nodes if n.concept is not None
                       and n.variable is not None]
            assert len(defined) == len(set(defined)), text
            assert all(n.variable in defined for n in nodes
                       if n.concept is None), text
            assert all(n.concept is not None for n in nodes
                       if n.variable is None), text
            again = parse_penman(serialize_penman(g))
            assert to_triples(again) == to_triples(g)

    @given(st.text(alphabet='()/: "~#\nabz019-+.ARG', max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_structured_random_text(self, text):
        try:
            g = parse_penman(text)
        except PenmanError:
            return
        assert to_triples(parse_penman(serialize_penman(g))) == to_triples(g)

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_unicode_text(self, text):
        try:
            parse_penman(text)
        except PenmanError:
            pass


if __name__ == "__main__":
    OUTCOMES_GOLDEN.write_text("\n".join(outcomes()) + "\n", encoding="ascii")
