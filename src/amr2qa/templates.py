"""Question template resource: loading, validation and selection.

Core roles (ARG0..ARG5) are predicate-dependent, so their templates are keyed
by thematic role and reached through a (lemma, sense, ARGn) -> role mapping
with per-relation fallbacks. Non-core templates are keyed by the relation
name directly. Each template stores a tense tag and per-blank accepted POS
tags; selection filters on both.

File formats (UTF-8, LF, ``#`` comments):
  templates: ``kind|key|tense|pattern|pos0[,pos1...]`` one record per line,
  where posN constrains blank N; alternatives within one blank join with "/".
  mapping: ``lemma|sense|ARGn|role``; the row ``*|*|ARGn|role`` declares the
  fallback for ARGn.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

try:  # the built-in SHA-1 spares a run hashlib's OpenSSL
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

from .penman import CORE_RELATIONS, Concept

UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})

TENSES = ("past", "present", "future", "any")

WH_OPENERS = frozenset({
    "Who", "What", "When", "Where", "Which", "Whose", "Whom", "Why", "How",
})

_BLANK_RE = re.compile(r"\{(\d+)\}")


class TemplateError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)
        self.line = line


class MalformedRecord(TemplateError):
    pass


class DuplicateId(TemplateError):
    pass


class UnknownPosTag(TemplateError):
    pass


class BlankIndexGap(TemplateError):
    pass


class NoMappingAndNoFallback(TemplateError):
    pass


class IncompleteMapping(TemplateError):
    """A mapping names a thematic role that has no core template."""


class Template(NamedTuple):
    """One question pattern. ``blank_pos[k]`` is the set of coarse POS tags
    accepted for blank ``{k}``. ``pieces`` is the pattern as
    :func:`split_pattern` cuts it."""

    id: str
    kind: str            # "core" | "noncore"
    key: str             # thematic role (core) or relation name (noncore)
    tense: str           # "past" | "present" | "future" | "any"
    pattern: str
    blank_pos: tuple[frozenset[str], ...]
    pieces: tuple[str | int, ...]

    @property
    def blank_count(self) -> int:
        return len(self.blank_pos)

    def matches_tense(self, tense: str) -> bool:
        return self.tense == "any" or tense == "any" or self.tense == tense


class RoleMapping:
    """(lemma, sense, ARGn) -> thematic role, with per-ARGn fallbacks."""

    def __init__(self):
        self.entries: dict[tuple[str, str, str], str] = {}
        self.fallback: dict[str, str] = {}

    def roles_used(self) -> set[str]:
        return set(self.entries.values()) | set(self.fallback.values())


class TemplateStore:
    """Immutable after load; templates keep resource-file order throughout."""

    def __init__(self, templates: list[Template], mapping: RoleMapping | None = None):
        self.templates = list(templates)
        self.mapping = mapping
        self.core: dict[str, list[Template]] = {}
        self.noncore: dict[str, list[Template]] = {}
        for template in self.templates:
            bucket = self.core if template.kind == "core" else self.noncore
            bucket.setdefault(template.key, []).append(template)


def _parse_blank_pos(column: str, line_no: int) -> tuple[frozenset[str], ...]:
    blanks = []
    for spec in column.split(","):
        tags = frozenset(tag.strip() for tag in spec.split("/"))
        for tag in tags:
            if tag not in UPOS_TAGS:
                raise UnknownPosTag(f"unknown POS tag {tag!r}", line=line_no)
        blanks.append(tags)
    return tuple(blanks)


def split_pattern(pattern: str) -> tuple[str | int, ...]:
    """``pattern`` cut at its ``{k}`` blanks: the literal text between them
    at even positions, each blank's index ``k`` at the odd ones."""
    pieces: list = _BLANK_RE.split(pattern)
    pieces[1::2] = map(int, pieces[1::2])
    return tuple(pieces)


def _parse_template_line(line: str, line_no: int) -> Template:
    columns = line.split("|")
    if len(columns) != 5:
        raise MalformedRecord(f"expected 5 fields, found {len(columns)}", line=line_no)
    kind, key, tense, pattern, pos_column = (c.strip() for c in columns)
    if kind not in ("core", "noncore"):
        raise MalformedRecord(f"kind must be core or noncore, found {kind!r}",
                              line=line_no)
    if not key:
        raise MalformedRecord("empty key", line=line_no)
    if tense not in TENSES:
        raise MalformedRecord(f"unknown tense {tense!r}", line=line_no)
    first_word = pattern.split(" ", 1)[0] if pattern else ""
    if first_word not in WH_OPENERS:
        raise MalformedRecord(
            f"pattern must start with a wh-word or How, found {first_word!r}",
            line=line_no)
    pieces = split_pattern(pattern)
    indices = sorted(set(pieces[1::2]))
    if not indices:
        raise MalformedRecord("pattern has no blank markers", line=line_no)
    if indices != list(range(len(indices))):
        raise BlankIndexGap(f"blank indices {indices} are not contiguous from 0",
                            line=line_no)
    blank_pos = _parse_blank_pos(pos_column, line_no)
    if len(blank_pos) != len(indices):
        raise MalformedRecord(
            f"{len(indices)} blanks but {len(blank_pos)} POS constraints",
            line=line_no)
    digest = sha1(
        "|".join([kind, key, tense, pattern, pos_column]).encode("utf-8")
    ).hexdigest()[:8]
    return Template(id=f"{kind}:{key}:{digest}", kind=kind, key=key,
                    tense=tense, pattern=pattern, blank_pos=blank_pos,
                    pieces=pieces)


def load_templates(path) -> TemplateStore:
    """Read and validate a template resource file. The returned store has no
    role mapping attached; see :func:`load_store`."""
    templates: list[Template] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            template = _parse_template_line(line, line_no)
            if template.id in seen:
                raise DuplicateId(f"duplicate template record {line!r}", line=line_no)
            seen.add(template.id)
            templates.append(template)
    return TemplateStore(templates)


def load_mapping(path) -> RoleMapping:
    mapping = RoleMapping()
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            columns = [c.strip() for c in line.split("|")]
            if len(columns) != 4:
                raise MalformedRecord(f"expected 4 fields, found {len(columns)}",
                                      line=line_no)
            lemma, sense, relation, role = columns
            if relation not in CORE_RELATIONS:
                raise MalformedRecord(f"{relation!r} is not a core relation",
                                      line=line_no)
            if not role:
                raise MalformedRecord("empty role", line=line_no)
            if lemma == "*" and sense == "*":
                if relation in mapping.fallback:
                    raise MalformedRecord(f"duplicate fallback for {relation}",
                                          line=line_no)
                mapping.fallback[relation] = role
            else:
                key = (lemma, sense, relation)
                if key in mapping.entries:
                    raise MalformedRecord(f"duplicate mapping for {key}", line=line_no)
                mapping.entries[key] = role
    return mapping


def load_store(template_path, mapping_path) -> TemplateStore:
    """Load templates and mapping together and check the cross-invariant:
    every thematic role the mapping can produce has at least one core
    template."""
    store = load_templates(template_path)
    mapping = load_mapping(mapping_path)
    for role in sorted(mapping.roles_used()):
        if role not in store.core:
            raise IncompleteMapping(
                f"role {role!r} is mapped to but has no core template")
    return TemplateStore(store.templates, mapping)


def resolve_core_role(mapping: RoleMapping, predicate: Concept | None,
                      relation: str) -> str:
    """Thematic role for (predicate, ARGn): the exact (lemma, sense) entry
    when present, the ARGn fallback otherwise."""
    if predicate is not None:
        key = (predicate.lemma, predicate.sense or "", relation)
        if key in mapping.entries:
            return mapping.entries[key]
    if relation in mapping.fallback:
        return mapping.fallback[relation]
    raise NoMappingAndNoFallback(
        f"no mapping for {relation} and no fallback configured")


def select_templates(store: TemplateStore, relation: str,
                     predicate: Concept | None, tense: str,
                     pos: str) -> list[Template]:
    """Templates for one edge, in resource-file order.

    ``relation`` is the base relation name (callers strip ``-of``). The core
    path resolves the thematic role first; the non-core path keys on the
    relation directly. Results are filtered by tense compatibility and by the
    blank-0 POS constraint. An empty list is a normal outcome.
    """
    if relation in CORE_RELATIONS:
        if store.mapping is None:
            return []
        try:
            role = resolve_core_role(store.mapping, predicate, relation)
        except NoMappingAndNoFallback:
            return []
        candidates = store.core.get(role, [])
    else:
        candidates = store.noncore.get(relation, [])
    return [t for t in candidates
            if t.matches_tense(tense) and pos in t.blank_pos[0]]


# the bundled files are read by path: they ship next to this module
# (package-data in pyproject.toml)
_DATA_DIR = Path(__file__).parent / "data"


def bundled_template_path() -> Path:
    return _DATA_DIR / "templates.txt"


def bundled_mapping_path() -> Path:
    return _DATA_DIR / "role_mapping.txt"
