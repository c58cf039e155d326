"""Tests for graph preprocessing: drop, condense, merge, tree building."""

import calendar
import json
import random
import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from amr2qa.penman import (
    AmrNode,
    Concept,
    parse_penman,
    serialize_penman,
    to_triples,
)
from amr2qa.preprocess import (
    DEFAULT_ENTITY_CONCEPTS,
    DEFAULT_IGNORED_RELATIONS,
    CondensedNode,
    _build,
    condense_entities,
    format_tree,
    merge_ops,
    preorder,
    preprocess,
)

from helpers import (
    FIXTURES,
    no_cyclic_garbage,
    random_amr_text,
    random_promotion_amr_text,
)

PP_DIR = FIXTURES / "preprocess"
RANDOM_GOLDEN = FIXTURES / "preprocess_random.golden"
MONTHS = ["", "January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]


def fixture_pairs():
    pairs = []
    for amr_path in sorted(PP_DIR.glob("*.amr")):
        golden = amr_path.with_suffix(".golden")
        pairs.append((amr_path.read_text(encoding="utf-8"),
                      golden.read_text(encoding="utf-8"), amr_path.name))
    return pairs


def random_golden_text():
    """``format_tree`` and then each node's ``source_concepts`` labels, in
    pre-order, for seeds 0-99 of each random graph generator."""
    blocks = []
    for make in (random_amr_text, random_promotion_amr_text):
        for seed in range(100):
            tree = preprocess(parse_penman(make(random.Random(seed))))
            sources = "".join(
                json.dumps([c.label for c in node.source_concepts]) + "\n"
                for node in preorder(tree))
            blocks.append(f"# {make.__name__} {seed}\n{format_tree(tree)}"
                          f"source_concepts:\n{sources}")
    return "".join(blocks)


def as_graph(node: CondensedNode) -> AmrNode:
    """The parsed-graph form of a condensed tree that the passes ran on, the
    inverse of ``_build``: a node that absorbed others has its text as
    its concept, and a reference has no concept."""
    if len(node.source_concepts) == 1:
        concept = node.source_concepts[0]
    elif node.source_concepts:
        concept = Concept(label=node.concept_text)
    else:
        concept = None
    graph = AmrNode(node.variable, concept)
    graph.children = [(child.relation_to_parent, as_graph(child))
                      for child in node.children]
    return graph


def built(graph):
    """``_build``'s pre-order nodes for ``graph`` and the variables it
    references."""
    nodes, _, references = _build(graph)
    return nodes, frozenset(ref.variable for ref in references)


def run_passes(graph):
    """A new graph: all the passes run on ``graph``'s condensed tree."""
    nodes, referenced = built(graph)
    condense_entities(nodes, referenced)
    merge_ops(nodes, referenced)
    return as_graph(nodes[0])


def dropped(text):
    return as_graph(_build(parse_penman(text))[0][0])


def condensed_tree(text):
    nodes, referenced = built(parse_penman(text))
    condense_entities(nodes, referenced)
    return nodes[0]


def condensed(text):
    return as_graph(condensed_tree(text))


def merged_tree(text):
    nodes, referenced = built(parse_penman(text))
    merge_ops(nodes, referenced)
    return nodes[0]


def merged(text):
    return as_graph(merged_tree(text))


def defined(graph):
    """Variable -> defining node, read from ``walk()``."""
    return {node.variable: node for node in graph.walk()
            if node.variable is not None and node.concept is not None}


class TestDefaults:

    def test_entity_concepts(self):
        assert DEFAULT_ENTITY_CONCEPTS == {
            "date-entity", "temporal-quantity", "distance-entity",
            "area-entity", "volume-entity"}

    def test_ignored_relations(self):
        assert DEFAULT_IGNORED_RELATIONS == {
            "polarity", "wiki", "polite", "polite-of", "mode"}


class TestDropIgnored:

    def test_polarity_removed(self):
        g = dropped("(g / go-02 :polarity -)")
        assert to_triples(g) == [("g", "instance", "go-02")]

    def test_untouched_graph_unchanged(self):
        text = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"
        assert to_triples(dropped(text)) == to_triples(parse_penman(text))

    def test_wiki_removed_name_kept(self):
        g = dropped('(c / city :wiki "Q60" :name (n / name :op1 "NYC"))')
        assert to_triples(g) == [
            ("c", "instance", "city"),
            ("n", "instance", "name"),
            ("c", "name", "n"),
            ("n", "op1", '"NYC"'),
        ]

    def test_subtree_under_ignored_edge_removed(self):
        g = dropped('(s / see-01 :ARG0 (i / i) :wiki (t / thing :poss (h / he)))')
        assert set(defined(g)) == {"s", "i"}

    def test_dropped_definition_promoted_at_first_reference(self):
        g = dropped("(x / x-01 :mode (p / person) :ARG0 p :ARG1 p)")
        kinds = [(rel, child.concept is None) for rel, child in g.children]
        assert kinds == [("ARG0", False), ("ARG1", True)]
        assert defined(g)["p"].concept.label == "person"

    def test_promoted_definition_keeps_subtree(self):
        g = dropped('(k / know-01 :polite (p / person :name (n / name :op1 "Bo")) :ARG0 p)')
        assert set(defined(g)) == {"k", "p", "n"}
        rel, child = g.children[0]
        assert (rel, child.concept.label) == ("ARG0", "person")

    def test_nested_definition_already_promoted_becomes_reference(self):
        g = dropped("(x / x-01 :mode (u / u-thing :ARG0 (v / person))"
                    " :ARG1 v :ARG2 u)")
        (_, first), (_, second) = g.children
        assert (first.variable, first.concept is None) == ("v", False)
        assert (second.variable, second.concept is None) == ("u", False)
        (_, inner), = second.children
        assert (inner.variable, inner.concept is None) == ("v", True)
        assert inner.concept is None and inner.children == []

    def test_placed_subtree_claims_its_definitions_when_placed(self):
        # the promoted subtree of a owns b's definition under :ARG2, so the
        # :ARG1 reference reached first stays a reference
        g = dropped("(r / root-01 :ARG0 a :mode (a / alpha :ARG1 b"
                    " :ARG2 (b / beta)))")
        (_, alpha), = g.children
        kinds = [(rel, child.variable, child.concept is None)
                 for rel, child in alpha.children]
        assert kinds == [("ARG1", "b", True), ("ARG2", "b", False)]
        assert defined(g)["b"].concept.label == "beta"

    def test_reference_inside_dropped_subtree_vanishes(self):
        g = dropped("(s / see-01 :ARG0 (i / i) :wiki (t / thing :poss i))")
        assert to_triples(g) == [
            ("s", "instance", "see-01"),
            ("i", "instance", "i"),
            ("s", "ARG0", "i"),
        ]


class TestCondenseEntities:

    def test_temporal_quantity(self):
        tree = condensed_tree("(t / temporal-quantity :quant 1 :unit (y / year))")
        g = as_graph(tree)
        assert g.concept.label == "1 year"
        assert g.children == []
        assert [c.label for c in tree.source_concepts] == ["temporal-quantity", "1", "year"]

    def test_entity_condensed_before_its_ops_merge(self):
        # the :quant child still has an :op child when condensing runs, so
        # only the unit is absorbed; its op merges afterwards
        tree = preprocess(parse_penman(
            "(t / temporal-quantity :quant (x / thing :op1 5) :unit (y / year))"))
        assert format_tree(tree) == "year [t]\n  :quant 5 [x]\n"
        assert [c.label for c in tree.source_concepts] == \
            ["temporal-quantity", "year"]

    def test_non_entity_graph_unchanged(self):
        text = "(e / eat-01 :ARG0 (m / mouse) :ARG1 (c / cheese))"
        assert to_triples(condensed(text)) == to_triples(parse_penman(text))

    def test_date_entity_month_name(self):
        g = condensed("(d / date-entity :month 2 :year 2013)")
        assert g.concept.label == "February 2013"

    def test_date_entity_brute_force_ordering(self):
        # independent oracle: pull fields out of the source text by regex and
        # join them in the documented order
        text = "(d / date-entity :weekday (t / tuesday) :year 2013 :month 2 :day 5)"
        fields = dict(re.findall(r":(day|month|year) (\d+)", text))
        fields["weekday"] = re.search(r":weekday \(\w+ / (\w+)\)", text).group(1)
        expected = " ".join([fields["day"], MONTHS[int(fields["month"])],
                             fields["year"], fields["weekday"]])
        g = condensed(text)
        assert g.concept.label == expected == "5 February 2013 tuesday"

    def test_all_month_names(self):
        for month in range(1, 13):
            g = condensed(f"(d / date-entity :month {month})")
            assert g.concept.label == MONTHS[month]

    def test_month_name_is_english_whatever_the_locale(self, monkeypatch):
        # calendar.month_name follows LC_TIME after locale.setlocale
        monkeypatch.setattr(calendar, "month_name",
                            ["", "janvier", "février", "mars"] + ["x"] * 9)
        tree = preprocess(parse_penman("(d / date-entity :month 3)"))
        assert format_tree(tree) == "March [d]\n"

    def test_non_numeric_month_kept(self):
        g = condensed('(d / date-entity :month "Feb")')
        assert g.concept.label == "Feb"

    def test_unabsorbable_children_stay(self):
        g = condensed("(d / date-entity :month 2 :mod (a / approximate))")
        assert g.concept.label == "February"
        assert [rel for rel, _ in g.children] == ["mod"]

    def test_entity_with_no_absorbable_children_unchanged(self):
        text = "(d / date-entity :mod (a / approximate))"
        assert to_triples(condensed(text)) == to_triples(parse_penman(text))

    def test_referenced_unit_not_absorbed(self):
        g = condensed(
            "(a / and :op1 (t / temporal-quantity :quant 1 :unit (y / year)) :op2 y)")
        t = defined(g)["t"]
        assert t.concept.label == "1"
        assert [rel for rel, _ in t.children] == ["unit"]

    def test_monetary_quantity_not_in_defaults(self):
        text = "(m / monetary-quantity :quant 5.50 :unit (d / dollar))"
        assert to_triples(condensed(text)) == to_triples(parse_penman(text))


class TestMergeOps:

    def test_name_hoisted_into_parent(self):
        text = '(p / person :name (n / name :op1 "Nikola" :op2 "Tesla"))'
        expected = " ".join(m.group(1) for m in
                            re.finditer(r':op\d+ "([^"]+)"', text))
        tree = merged_tree(text)
        g = as_graph(tree)
        assert g.concept.label == expected == "Nikola Tesla"
        assert g.children == []
        assert [c.label for c in tree.source_concepts] == \
            ["person", "name", "Nikola", "Tesla"]

    def test_numeric_op_order_beats_source_order(self):
        g = merged('(n / name :op2 "Tesla" :op1 "Nikola")')
        assert g.concept.label == "Nikola Tesla"

    def test_no_op_children_unchanged(self):
        text = "(b / break-01 :ARG1 (e / engine))"
        assert to_triples(merged(text)) == to_triples(parse_penman(text))

    def test_node_ops_not_merged(self):
        text = "(a / and :op1 (x / dog) :op2 (y / cat))"
        assert to_triples(merged(text)) == to_triples(parse_penman(text))

    def test_constant_ops_merged_on_non_name_node(self):
        g = merged("(a / and :op1 3 :op2 5)")
        assert g.concept.label == "3 5"

    def test_single_op(self):
        g = merged('(n / name :op1 "Rio de Janeiro")')
        assert g.concept.label == "Rio de Janeiro"

    def test_mixed_ops_merge_constants_only(self):
        g = merged('(n / name :op1 "Nikola" :op2 (t / thing))')
        assert g.concept.label == "Nikola"
        assert [rel for rel, _ in g.children] == ["op2"]

    def test_referenced_name_not_hoisted(self):
        g = merged('(s / say-01 :ARG0 (p / person :name (n / name :op1 "Bo")) :ARG1 n)')
        nodes = defined(g)
        assert nodes["p"].concept.label == "person"
        assert nodes["n"].concept.label == "Bo"


class TestPreprocess:

    def test_identity_two_nodes(self):
        tree = preprocess(parse_penman("(b / break-01 :ARG1 (e / engine))"))
        assert format_tree(tree) == "break-01 [b]\n  :ARG1 engine [e]\n"

    def test_figure_layout_counts(self):
        tree = preprocess(parse_penman(
            "(b / break-01 :ARG1 (e / engine :poss (i / i)) :location (s / something))"))
        nodes = preorder(tree)
        assert len(nodes) - 1 == 3
        assert nodes[0].concept_text == "break-01"

    def test_references_share_text_but_not_position(self):
        tree = preprocess(parse_penman(
            "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"))
        nodes = preorder(tree)
        boys = [n for n in nodes if n.concept_text == "boy"]
        assert len(boys) == 2
        assert [n.is_reference for n in boys] == [False, True]
        assert boys[0] is not boys[1]

    def test_golden_fixtures(self):
        pairs = fixture_pairs()
        assert len(pairs) == 21
        for amr, golden, name in pairs:
            assert format_tree(preprocess(parse_penman(amr))) == golden, name

    def test_random_graph_golden(self):
        assert random_golden_text() == RANDOM_GOLDEN.read_text(encoding="utf-8")

    def test_source_concepts_start_with_own_concept(self):
        tree = preprocess(parse_penman(
            '(s / say-01 :ARG0 (p / person :name (n / name :op1 "Barack" :op2 "Obama")))'))
        person = tree.children[0]
        assert [c.label for c in person.source_concepts] == \
            ["person", "name", "Barack", "Obama"]


class TestPreorder:

    def test_chain(self):
        tree = preprocess(parse_penman("(a / alpha :mod (b / beta :mod (c / gamma)))"))
        assert [n.concept_text for n in preorder(tree)] == ["alpha", "beta", "gamma"]

    def test_branching(self):
        tree = preprocess(parse_penman(
            "(r / root-01 :ARG0 (x / xray :mod (z / zulu)) :ARG1 (y / yankee))"))
        assert [n.concept_text for n in preorder(tree)] == \
            ["root-01", "xray", "zulu", "yankee"]


class TestInvariants:

    def test_idempotence_on_fixtures(self):
        for amr, _, name in fixture_pairs():
            graph = parse_penman(amr)
            once = run_passes(graph)
            assert format_tree(preprocess(once)) == format_tree(preprocess(graph)), name

    def test_input_graph_untouched_on_fixtures(self):
        for amr, _, name in fixture_pairs():
            graph = parse_penman(amr)
            before = serialize_penman(graph)
            preprocess(graph)
            assert serialize_penman(graph) == before, name

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_input_graph_untouched_on_random_graphs(self, seed):
        graph = parse_penman(random_amr_text(random.Random(seed)))
        before = serialize_penman(graph)
        preprocess(graph)
        assert serialize_penman(graph) == before

    def test_no_ignored_relation_survives_fixtures(self):
        for amr, _, name in fixture_pairs():
            tree = preprocess(parse_penman(amr))
            for node in preorder(tree):
                if node.relation_to_parent is not None:
                    assert type(node.relation_to_parent) is str, name
                    assert node.relation_to_parent not in DEFAULT_IGNORED_RELATIONS, name

    def test_relations_come_from_original_edges(self):
        for amr, _, name in fixture_pairs():
            original_relations = {rel for _, rel, _ in
                                  _edges(parse_penman(amr))}
            tree = preprocess(parse_penman(amr))
            for node in preorder(tree)[1:]:
                assert type(node.relation_to_parent) is str, name
                assert node.relation_to_parent in original_relations, name

    def test_node_accounting_without_promotion(self):
        # positions in = positions out + absorbed + dropped, with dropped
        # counted by an independent walk of the original graph
        for amr, _, name in fixture_pairs():
            if "promoted" in name:
                continue
            graph = parse_penman(amr)
            original = sum(1 for _ in graph.walk())
            tree = preprocess(parse_penman(amr))
            nodes = preorder(tree)
            absorbed = sum(len(n.source_concepts) - 1
                           for n in nodes if not n.is_reference)
            dropped = _count_dropped_positions(graph)
            assert original == len(nodes) + absorbed + dropped, name

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_random_graph_properties(self, seed):
        rng = random.Random(seed)
        graph = parse_penman(random_amr_text(rng))
        tree = preprocess(graph)
        nodes = preorder(tree)
        for node in nodes:
            assert node.concept_text
            if node.relation_to_parent is None:
                assert node is tree
            else:
                assert node.relation_to_parent not in DEFAULT_IGNORED_RELATIONS
        once = run_passes(graph)
        assert format_tree(preprocess(once)) == format_tree(tree)

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_one_definition_per_variable_after_promotion(self, seed):
        graph = parse_penman(random_promotion_amr_text(random.Random(seed)))
        nodes, definitions, references = _build(graph)
        assert nodes == preorder(nodes[0])   # the list the passes walk
        positions, seen = [], set()
        stack = [nodes[0]]
        while stack:
            node = stack.pop()
            assert id(node) not in seen   # no node reached twice, no cycle
            seen.add(id(node))
            positions.append(node)
            stack.extend(node.children)
        children_lists = {id(node.children) for node in positions}
        assert len(children_lists) == len(positions)
        assert sorted(id(node) for node in references) == \
            sorted(id(node) for node in positions if node.is_reference)
        assert {var: id(node) for var, node in definitions.items()} == \
            {node.variable: id(node) for node in positions
             if node.variable is not None and not node.is_reference}
        _assert_one_definition_each(
            (node.variable, node.is_reference) for node in positions)
        tree = preprocess(graph)
        _assert_one_definition_each(
            (node.variable, node.is_reference) for node in preorder(tree))

    @given(st.integers(0, 10**9), st.sampled_from(
        [random_amr_text, random_promotion_amr_text]))
    @settings(max_examples=60, deadline=None)
    def test_no_cyclic_garbage(self, seed, make):
        text = make(random.Random(seed))
        with no_cyclic_garbage():
            graph = parse_penman(text)
            format_tree(preprocess(graph))
            to_triples(graph)


def _assert_one_definition_each(occurrences):
    """Every variable has exactly one non-reference occurrence, and every
    reference names a defined variable."""
    occurrences = [(var, ref) for var, ref in occurrences if var is not None]
    definitions = Counter(var for var, ref in occurrences if not ref)
    assert all(count == 1 for count in definitions.values()), definitions
    assert {var for var, ref in occurrences if ref} <= set(definitions)


def _edges(graph):
    out = []
    for node in graph.walk():
        for rel, child in node.children:
            out.append((node, rel, child))
    return out


def _count_dropped_positions(graph):
    """Independent counter: subtree sizes under ignored edges (no promotion)."""

    def size(node):
        return 1 + sum(size(child) for _, child in node.children)

    total = 0
    for node, rel, child in _edges(graph):
        if rel in DEFAULT_IGNORED_RELATIONS:
            total += size(child)
    return total
