"""Question template resource: loading, validation and selection.

Core roles (ARG0..ARG5) are predicate-dependent, so their templates are keyed
by thematic role and reached through a (lemma, sense, ARGn) -> role mapping
with per-relation fallbacks. The mapping is resolved once, at load: each of
its keys points straight at its role's templates. Non-core templates are
keyed by the relation name directly. Each template stores a tense tag and
per-blank accepted POS tags; selection filters on both.

File formats (UTF-8, LF, ``#`` comments):
  templates: ``kind|key|tense|pattern|pos0[,pos1...]`` one record per line,
  where posN constrains blank N; alternatives within one blank join with "/".
  mapping: ``lemma|sense|ARGn|role``; the row ``*|*|ARGn|role`` declares the
  fallback for ARGn.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

try:  # the built-in SHA-1 spares a run hashlib's OpenSSL
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

from .penman import Concept

CORE_RELATIONS = frozenset({"ARG0", "ARG1", "ARG2", "ARG3", "ARG4", "ARG5"})

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

    def accepts(self, tense: str, pos: str) -> bool:
        """Whether it suits ``tense`` and a blank-0 fill of POS ``pos``."""
        return (self.tense == "any" or tense == "any" or self.tense == tense) \
            and pos in self.blank_pos[0]


# a mapping entry's (lemma, sense, ARGn), or ARGn for its fallback
MappingKey = tuple[str, str, str] | str


class TemplateStore(NamedTuple):
    """A template pack with its role mapping resolved. ``core`` maps each
    mapping key to its role's core templates and ``noncore`` each relation
    name to its templates; every list keeps resource-file order."""

    core: dict[MappingKey, list[Template]]
    noncore: dict[str, list[Template]]


def _records(path, fields: int) -> Iterator[tuple[int, list[str]]]:
    """The line number and stripped ``|``-separated fields of each record
    of a resource file. Blank and ``#`` lines are skipped; a record with
    another field count raises MalformedRecord."""
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            columns = [c.strip() for c in line.split("|")]
            if len(columns) != fields:
                raise MalformedRecord(
                    f"expected {fields} fields, found {len(columns)}",
                    line=line_no)
            yield line_no, columns


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


def _parse_template(columns: list[str], line_no: int) -> Template:
    kind, key, tense, pattern, pos_column = columns
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
    digest = sha1("|".join(columns).encode("utf-8")).hexdigest()[:8]
    return Template(id=f"{kind}:{key}:{digest}", kind=kind, key=key,
                    tense=tense, pattern=pattern, blank_pos=blank_pos,
                    pieces=pieces)


def load_templates(path) -> list[Template]:
    """Read and validate a template resource file, in file order."""
    templates: list[Template] = []
    seen: set[str] = set()
    for line_no, columns in _records(path, 5):
        template = _parse_template(columns, line_no)
        if template.id in seen:
            raise DuplicateId(
                f"duplicate template record {'|'.join(columns)!r}",
                line=line_no)
        seen.add(template.id)
        templates.append(template)
    return templates


def load_mapping(path) -> dict[MappingKey, str]:
    """Read a role mapping file: each entry's (lemma, sense, ARGn), and
    ARGn for each ``*|*`` fallback, to its thematic role."""
    mapping: dict[MappingKey, str] = {}
    for line_no, (lemma, sense, relation, role) in _records(path, 4):
        if relation not in CORE_RELATIONS:
            raise MalformedRecord(f"{relation!r} is not a core relation",
                                  line=line_no)
        if not role:
            raise MalformedRecord("empty role", line=line_no)
        fallback = lemma == "*" and sense == "*"
        key = relation if fallback else (lemma, sense, relation)
        if key in mapping:
            raise MalformedRecord(
                f"duplicate fallback for {relation}" if fallback
                else f"duplicate mapping for {key}", line=line_no)
        mapping[key] = role
    return mapping


def load_store(template_path, mapping_path) -> TemplateStore:
    """Load templates and mapping together and resolve each mapping key to
    its role's core templates. A role with no core template raises
    IncompleteMapping, naming the first such role in sorted order."""
    templates = load_templates(template_path)
    mapping = load_mapping(mapping_path)
    roles: dict[str, list[Template]] = {}
    noncore: dict[str, list[Template]] = {}
    for template in templates:
        bucket = roles if template.kind == "core" else noncore
        bucket.setdefault(template.key, []).append(template)
    missing = sorted(set(mapping.values()) - roles.keys())
    if missing:
        raise IncompleteMapping(
            f"role {missing[0]!r} is mapped to but has no core template")
    core = {key: roles[role] for key, role in mapping.items()}
    return TemplateStore(core, noncore)


def lookup_templates(store: TemplateStore, relation: str,
                     predicate: Concept | None) -> Sequence[Template]:
    """Every template for one edge, in resource-file order. ``relation``
    is the base relation name (callers strip ``-of``). A core relation
    takes the templates of the predicate's exact mapping entry, else of
    the relation's fallback; a non-core one keys on the relation itself."""
    if relation in CORE_RELATIONS:
        exact = None if predicate is None else store.core.get(
            (predicate.lemma, predicate.sense or "", relation))
        return exact or store.core.get(relation, ())
    return store.noncore.get(relation, ())


# the bundled files are read by path: they ship next to this module
# (package-data in pyproject.toml)
_DATA_DIR = Path(__file__).parent / "data"


def bundled_template_path() -> Path:
    return _DATA_DIR / "templates.txt"


def bundled_mapping_path() -> Path:
    return _DATA_DIR / "role_mapping.txt"
