"""Template resource loading, validation, role resolution at load and
selection."""

import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from amr2qa.penman import Concept
from amr2qa.preprocess import DEFAULT_IGNORED_RELATIONS
from amr2qa.templates import (
    CORE_RELATIONS,
    TENSES,
    UPOS_TAGS,
    TemplateError,
    bundled_mapping_path,
    bundled_template_path,
    load_mapping,
    load_store,
    load_templates,
    lookup_templates,
)

from helpers import default_store, run_bare


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL_MAPPING = "*|*|ARG0|Agent\n"
MINIMAL_TEMPLATES = "core|Agent|past|Who {0} ?|VERB\n"
SELECT_GOLDEN = Path(__file__).parent / "fixtures" / "select_templates.golden"


def resource_rows(path) -> list[list[str]]:
    """The stripped ``|``-separated fields of each record of a bundled
    resource file, comments and blank lines left out."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([c.strip() for c in line.split("|")])
    return rows


def select_templates(store, relation, predicate, tense, pos):
    """The edge's templates that accept ``tense`` and blank-0 ``pos``, as
    ``generate_candidates`` picks them."""
    return [t for t in lookup_templates(store, relation, predicate)
            if t.accepts(tense, pos)]


def selection_lines() -> list[str]:
    """One line per non-empty ``select_templates`` result on the bundled
    pack, for every tense and UPOS tag: relation, predicate (``-`` for
    none), tense, UPOS and the template ids. The edges are every mapping
    entry; each ARGn with no predicate, an unlisted one, a senseless one
    and a sense the mapping does not list; and every non-core key with and
    without a predicate."""
    store = default_store()
    edges = [(relation, f"{lemma}-{sense}") for lemma, sense, relation, _
             in resource_rows(bundled_mapping_path()) if lemma != "*"]
    edges += [(relation, label) for relation in sorted(CORE_RELATIONS)
              for label in (None, "jettison-01", "dog", "make-02")]
    noncore = dict.fromkeys(key for kind, key, *_ in
                            resource_rows(bundled_template_path())
                            if kind == "noncore")
    edges += [(relation, label) for relation in noncore
              for label in (None, "make-01")]
    lines = []
    for relation, label in edges:
        predicate = Concept.from_label(label) if label else None
        for tense in TENSES:
            for pos in sorted(UPOS_TAGS):
                hits = select_templates(store, relation, predicate, tense, pos)
                if hits:
                    lines.append(" ".join([relation, label or "-", tense, pos,
                                           *(t.id for t in hits)]))
    return lines


class TestLoadTemplates:
    def test_single_core_record(self, tmp_path):
        templates = load_templates(write(tmp_path, "t.txt", MINIMAL_TEMPLATES))
        assert len(templates) == 1
        t = templates[0]
        assert t.kind == "core"
        assert t.key == "Agent"
        assert t.tense == "past"
        assert t.pattern == "Who {0} ?"
        assert t.blank_pos == (frozenset({"VERB"}),)
        assert t.blank_count == 1

    def test_single_noncore_record(self, tmp_path):
        templates = write(tmp_path, "t.txt",
                          MINIMAL_TEMPLATES
                          + "noncore|location|present|Where is {0} ?|VERB\n")
        store = load_store(templates, write(tmp_path, "m.txt", MINIMAL_MAPPING))
        t = load_templates(templates)[1]
        assert t.kind == "noncore"
        assert t.key == "location"
        assert store.noncore["location"] == [t]

    def test_two_blank_record(self, tmp_path):
        line = "noncore|frequency|present|How many times someone {0} {1} ?|VERB,NOUN\n"
        t = load_templates(write(tmp_path, "t.txt", line))[0]
        assert t.blank_count == 2
        assert t.blank_pos == (frozenset({"VERB"}), frozenset({"NOUN"}))

    def test_pos_alternatives(self, tmp_path):
        t = load_templates(write(
            tmp_path, "t.txt", "noncore|degree|any|How {0} ?|ADJ/ADV\n"))[0]
        assert t.blank_pos[0] == frozenset({"ADJ", "ADV"})

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "# header\n\n" + MINIMAL_TEMPLATES + "\n# trailer\n"
        assert len(load_templates(write(tmp_path, "t.txt", text))) == 1

    def test_file_order_preserved(self, tmp_path):
        text = ("core|Patient|past|What was {0} ?|VERB\n"
                "core|Patient|past|What {0} ?|VERB\n")
        store = load_store(write(tmp_path, "t.txt", text),
                           write(tmp_path, "m.txt", "*|*|ARG1|Patient\n"))
        assert [t.pattern for t in store.core["ARG1"]] == [
            "What was {0} ?", "What {0} ?"]

    def test_ids_unique_and_content_derived(self, tmp_path):
        a = load_templates(write(tmp_path, "a.txt", MINIMAL_TEMPLATES))[0]
        b = load_templates(write(tmp_path, "b.txt",
                                 "# moved\n\n" + MINIMAL_TEMPLATES))[0]
        assert a.id == b.id
        c = load_templates(write(
            tmp_path, "c.txt", "core|Agent|present|Who {0} ?|VERB\n"))[0]
        assert c.id != a.id


class TestLoadErrors:
    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="expected 5 fields, found 4") as e:
            load_templates(write(tmp_path, "t.txt", "core|Agent|past|Who {0} ?\n"))
        assert e.value.line == 1

    def test_bad_kind(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="kind must be core or noncore"):
            load_templates(write(tmp_path, "t.txt",
                                 "middling|Agent|past|Who {0} ?|VERB\n"))

    def test_empty_key(self, tmp_path):
        with pytest.raises(TemplateError) as e:
            load_templates(write(tmp_path, "t.txt",
                                 "core||any|What {0} ?|VERB\n"))
        assert str(e.value) == "empty key (line 1)"
        assert e.value.line == 1

    def test_bad_tense(self, tmp_path):
        with pytest.raises(TemplateError, match="unknown tense 'preterite'"):
            load_templates(write(tmp_path, "t.txt",
                                 "core|Agent|preterite|Who {0} ?|VERB\n"))

    def test_pattern_must_open_with_wh_word(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="pattern must start with a wh-word"):
            load_templates(write(tmp_path, "t.txt",
                                 "core|Agent|past|Did someone {0} ?|VERB\n"))

    def test_pattern_needs_a_blank(self, tmp_path):
        with pytest.raises(TemplateError, match="has no blank markers"):
            load_templates(write(tmp_path, "t.txt",
                                 "core|Agent|past|Who did it ?|VERB\n"))

    def test_blank_markers_are_ascii_digits(self, tmp_path):
        # \d would also take "\u0660", and int() read it as blank 0
        with pytest.raises(TemplateError, match="has no blank markers"):
            load_templates(write(tmp_path, "t.txt",
                                 "core|Agent|past|Who {\u0660} ?|VERB\n"))

    def test_blank_pos_count_mismatch(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="2 blanks but 1 POS constraints"):
            load_templates(write(tmp_path, "t.txt",
                                 "core|Agent|past|Who {0} {1} ?|VERB\n"))

    def test_duplicate_record(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="duplicate template record") as e:
            load_templates(write(tmp_path, "t.txt",
                                 MINIMAL_TEMPLATES + MINIMAL_TEMPLATES))
        assert e.value.line == 2

    def test_unknown_pos_tag(self, tmp_path):
        with pytest.raises(TemplateError, match="unknown POS tag 'VRB'"):
            load_templates(write(tmp_path, "t.txt",
                                 "core|Agent|past|Who {0} ?|VRB\n"))

    def test_blank_index_gap(self, tmp_path):
        with pytest.raises(TemplateError, match="not contiguous from 0"):
            load_templates(write(tmp_path, "t.txt",
                                 "noncore|frequency|any|How {0} {2} ?|VERB,NOUN\n"))

    def test_blank_must_start_at_zero(self, tmp_path):
        with pytest.raises(TemplateError, match="not contiguous from 0"):
            load_templates(write(tmp_path, "t.txt",
                                 "noncore|frequency|any|How many {1} ?|NOUN\n"))

    def test_line_numbers_count_comments(self, tmp_path):
        text = "# one\n# two\ncore|Agent|past|Who {0} ?\n"
        with pytest.raises(TemplateError,
                           match="expected 5 fields, found 4") as e:
            load_templates(write(tmp_path, "t.txt", text))
        assert e.value.line == 3


class TestLoadMapping:
    def test_entries_and_fallback_split(self, tmp_path):
        text = ("make|01|ARG1|Product\n"
                "*|*|ARG1|Theme\n")
        mapping = load_mapping(write(tmp_path, "m.txt", text))
        assert mapping == {("make", "01", "ARG1"): "Product", "ARG1": "Theme"}

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="expected 4 fields, found 3") as e:
            load_mapping(write(tmp_path, "m.txt", "# header\nmake|01|ARG1\n"))
        assert e.value.line == 2

    def test_noncore_relation_rejected(self, tmp_path):
        with pytest.raises(TemplateError,
                           match="'location' is not a core relation"):
            load_mapping(write(tmp_path, "m.txt", "make|01|location|Place\n"))

    def test_empty_role(self, tmp_path):
        with pytest.raises(TemplateError) as e:
            load_mapping(write(tmp_path, "m.txt", "break|01|ARG1|\n"))
        assert str(e.value) == "empty role (line 1)"
        assert e.value.line == 1

    def test_duplicate_entry(self, tmp_path):
        text = "make|01|ARG1|Product\nmake|01|ARG1|Theme\n"
        with pytest.raises(TemplateError, match="duplicate mapping for") as e:
            load_mapping(write(tmp_path, "m.txt", text))
        assert e.value.line == 2

    def test_duplicate_fallback(self, tmp_path):
        text = "*|*|ARG1|Theme\n*|*|ARG1|Patient\n"
        with pytest.raises(TemplateError,
                           match="duplicate fallback for ARG1") as e:
            load_mapping(write(tmp_path, "m.txt", text))
        assert e.value.line == 2

    def test_incomplete_mapping_rejected_at_store_load(self, tmp_path):
        templates = write(tmp_path, "t.txt", MINIMAL_TEMPLATES)
        mapping = write(tmp_path, "m.txt", "*|*|ARG0|Agent\n*|*|ARG1|Theme\n")
        with pytest.raises(TemplateError, match="has no core template") as e:
            load_store(templates, mapping)
        assert "'Theme'" in str(e.value)

    def test_incomplete_mapping_names_the_first_role_in_order(self, tmp_path):
        templates = write(tmp_path, "t.txt", MINIMAL_TEMPLATES)
        mapping = write(tmp_path, "m.txt", "*|*|ARG1|Theme\n"
                                           "make|01|ARG2|Material\n")
        with pytest.raises(TemplateError, match="has no core template") as e:
            load_store(templates, mapping)
        assert "'Material'" in str(e.value)

    def test_complete_mapping_resolves_each_key_to_its_role(self, tmp_path):
        templates = write(tmp_path, "t.txt", MINIMAL_TEMPLATES
                          + "core|Theme|past|What {0} ?|VERB\n")
        mapping = write(tmp_path, "m.txt", MINIMAL_MAPPING
                        + "make|01|ARG0|Theme\n*|*|ARG1|Agent\n")
        store = load_store(templates, mapping)
        agent, theme = ([t] for t in load_templates(templates))
        assert store.core == {"ARG0": agent, ("make", "01", "ARG0"): theme,
                              "ARG1": agent}


class TestResolveRole:
    """A core edge takes the templates of its exact mapping entry, else of
    its ARGn fallback."""

    def setup_method(self):
        self.store = default_store()

    def keys(self, label, relation):
        predicate = Concept.from_label(label) if label else None
        hits = select_templates(self.store, relation, predicate, "any", "VERB")
        return {t.key for t in hits}

    def test_exact_entry_wins(self):
        assert self.keys("make-01", "ARG1") == {"Product"}

    def test_break_arg1_is_patient(self):
        assert self.keys("break-01", "ARG1") == {"Patient"}

    def test_unlisted_predicate_falls_back(self):
        assert self.keys("jettison-01", "ARG1") == {"Theme"}

    def test_senseless_concept_falls_back(self):
        assert self.keys("dog", "ARG0") == {"Agent"}

    def test_none_predicate_falls_back(self):
        assert self.keys(None, "ARG0") == {"Agent"}

    def test_sense_must_match(self):
        # make-02 has no entry, so ARG1 drops to the fallback
        assert self.keys("make-02", "ARG1") == {"Theme"}

    def test_no_fallback_selects_nothing(self, tmp_path):
        store = load_store(write(tmp_path, "t.txt", MINIMAL_TEMPLATES),
                           write(tmp_path, "m.txt", "make|01|ARG0|Agent\n"))
        assert select_templates(store, "ARG0", Concept.from_label("dog"),
                                "past", "VERB") == []
        assert len(select_templates(store, "ARG0", Concept.from_label(
            "make-01"), "past", "VERB")) == 1


class TestSelect:
    def setup_method(self):
        self.store = default_store()

    def test_break_arg1_past_verb_exact_pair(self):
        hits = select_templates(self.store, "ARG1",
                                Concept.from_label("break-01"), "past", "VERB")
        assert [t.pattern for t in hits] == ["What was {0} ?", "What {0} ?"]

    def test_make_arg1_past_verb(self):
        hits = select_templates(self.store, "ARG1",
                                Concept.from_label("make-01"), "past", "VERB")
        assert [t.pattern for t in hits] == [
            "Who does someone {0} ?", "What does someone {0} ?"]

    def test_location_present_verb(self):
        hits = select_templates(self.store, "location", None, "present", "VERB")
        assert "Where is {0} ?" in [t.pattern for t in hits]

    def test_location_past_verb(self):
        hits = select_templates(self.store, "location", None, "past", "VERB")
        assert [t.pattern for t in hits] == [
            "Where was {0} ?", "Where did someone {0} ?"]

    def test_frequency_two_blank_selection(self):
        hits = select_templates(self.store, "frequency", None, "present", "VERB")
        assert len(hits) == 2
        assert all(t.blank_count == 2 for t in hits)

    def test_any_tense_template_matches_every_query(self):
        for tense in ("past", "present", "future"):
            hits = select_templates(self.store, "poss", None, tense, "NOUN")
            assert [t.pattern for t in hits] == ["Whose {0} ?"]

    def test_any_query_tense_matches_everything(self):
        hits = select_templates(self.store, "location", None, "any", "VERB")
        assert len(hits) == 4

    def test_pos_filter_on_blank_zero(self):
        hits = select_templates(self.store, "location", None, "present", "NOUN")
        assert [t.pattern for t in hits] == ["Where is {0} ?"]
        assert hits[0].tense == "any"

    def test_unknown_relation_empty(self):
        assert select_templates(self.store, "quibble", None, "past", "VERB") == []

    def test_agent_past_verb_from_fallback(self):
        hits = select_templates(self.store, "ARG0",
                                Concept.from_label("jettison-01"), "past", "VERB")
        assert [t.pattern for t in hits] == [
            "Who {0} ?", "What {0} ?", "Who was {0} ?", "What was {0} ?",
            "Who were {0} ?", "What were {0} ?"]

    def test_noncore_record_named_like_a_core_relation_is_not_core(
            self, tmp_path):
        templates = write(tmp_path, "t.txt", MINIMAL_TEMPLATES
                          + "noncore|ARG0|past|What {0} ?|VERB\n")
        store = load_store(templates, write(tmp_path, "m.txt", MINIMAL_MAPPING))
        hits = select_templates(store, "ARG0", None, "past", "VERB")
        assert [t.pattern for t in hits] == ["Who {0} ?"]

    def test_bundled_selection_matches_golden(self):
        golden = SELECT_GOLDEN.read_text(encoding="ascii").splitlines()
        assert selection_lines() == golden

    def test_degree_accepts_adjective_and_adverb(self):
        for pos in ("ADJ", "ADV"):
            hits = select_templates(self.store, "degree", None, "present", pos)
            assert [t.pattern for t in hits] == ["How {0} ?"]
        assert select_templates(self.store, "degree", None, "present", "VERB") == []


BUNDLED_IDS = """
import sys
{block}
from amr2qa.templates import (
    bundled_mapping_path, bundled_template_path, load_store, load_templates)
load_store(bundled_template_path(), bundled_mapping_path())
print("\\n".join(t.id for t in load_templates(bundled_template_path())))
print("hashlib loaded:", "hashlib" in sys.modules)
"""


class TestBundledPack:
    def setup_method(self):
        self.templates = load_templates(bundled_template_path())
        self.store = default_store()

    def test_pack_size(self):
        kinds = Counter(t.kind for t in self.templates)
        assert kinds["core"] >= 50
        assert kinds["noncore"] >= 90

    def test_all_ids_unique(self):
        ids = [t.id for t in self.templates]
        assert len(ids) == len(set(ids))

    def test_ids_are_the_sha1_of_the_joined_fields(self):
        expected = []
        for fields in resource_rows(bundled_template_path()):
            digest = hashlib.sha1("|".join(fields).encode()).hexdigest()[:8]
            expected.append(f"{fields[0]}:{fields[1]}:" + digest)
        assert [t.id for t in self.templates] == expected

    def test_ids_are_the_same_without_the_built_in_sha1(self):
        # a build without the _sha1 module hashes through hashlib
        script = BUNDLED_IDS.format(block='sys.modules["_sha1"] = None')
        fallback = run_bare(script).stdout.splitlines()
        assert fallback.pop() == "hashlib loaded: True"
        built_in = run_bare(BUNDLED_IDS.format(block="")).stdout.splitlines()
        assert built_in.pop() == "hashlib loaded: False"
        assert fallback == built_in == [t.id for t in self.templates]

    def test_every_pattern_opens_with_wh_word(self):
        openers = {t.pattern.split(" ", 1)[0] for t in self.templates}
        assert openers <= {"Who", "What", "When", "Where", "Which",
                           "Whose", "Whom", "Why", "How"}

    def test_every_pattern_has_blank_zero(self):
        assert all("{0}" in t.pattern for t in self.templates)

    def test_mapped_keys_all_have_core_templates(self):
        for key, templates in self.store.core.items():
            assert templates, key
            assert {t.kind for t in templates} == {"core"}, key
            assert len({t.key for t in templates}) == 1, key

    def test_fallbacks_cover_all_core_relations(self):
        assert {key for key in self.store.core if isinstance(key, str)} == {
            "ARG0", "ARG1", "ARG2", "ARG3", "ARG4", "ARG5"}

    def test_every_listed_relation_covered_or_ignored(self):
        listed = []
        path = bundled_template_path().with_name("noncore_relations.txt")
        text = path.read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                listed.append(line)
        assert len(listed) >= 50
        for relation in listed:
            covered = relation in self.store.noncore
            ignored = relation in DEFAULT_IGNORED_RELATIONS
            assert covered or ignored, relation


class TestFuzz:
    def test_garbage_lines_raise_template_errors_only(self, tmp_path):
        rng = random.Random(11)
        pool = "core|noncr|Agent{0}{1} ?WhoVERB,/ \txyz#"
        for i in range(300):
            n = rng.randint(1, 40)
            line = "".join(rng.choice(pool) for _ in range(n))
            path = tmp_path / f"f{i}.txt"
            path.write_text(line + "\n", encoding="utf-8")
            try:
                load_templates(path)
            except TemplateError:
                pass

    def test_mutated_valid_lines(self, tmp_path):
        rng = random.Random(12)
        base = "core|Agent|past|Who {0} ?|VERB"
        for i in range(300):
            chars = list(base)
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars.insert(pos, rng.choice("|{}?,/X0"))
            elif op == 1:
                del chars[pos]
            else:
                chars[pos] = rng.choice("|{}?,/X0")
            path = tmp_path / f"m{i}.txt"
            path.write_text("".join(chars) + "\n", encoding="utf-8")
            try:
                load_templates(path)
            except TemplateError:
                pass
