"""Parser and serializer for AMR graphs written in PENMAN notation.

An AMR is a rooted, labeled graph. The PENMAN string form nests each node as
``(variable / concept :relation value ...)`` where a value is another node, a
constant (number, quoted string, ``-``, ``+``, bare symbol) or a bare variable
reference (reentrancy). This module holds PENMAN syntax only: parsing,
serializing, the triple view and concept labels. A parse is the spanning
tree induced by the nesting, returned as its root :class:`AmrNode`: child
order is source order, a relation is its name without the colon, inverse
relations (``:ARG0-of``) are kept as written, and reentrant references stay
distinct tree positions, a variable with no concept, that resolve to the
single defining occurrence of their variable.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

# exactly two digits after the last hyphen, preceded by a real lemma char,
# so "break-01" and "have-degree-91" have senses but "run-100" does not
_SENSE_RE = re.compile(r"^(.*[^\d-])-(\d{2})$")
_STRICT_VAR_RE = re.compile(r"^[a-z][0-9]*$")
# skip whitespace, ``#`` comment lines and ``~`` alignment markers, then
# capture one token: ( ) /, a string, a '"' that opens none, a relation, an
# atom (names stop at whitespace or ()/:"~#), or the empty EOF at the end.
# It matches at every position, so findall cuts a text into its tokens.
_TOKEN_RE = re.compile(r"""
    \s* (?: (?: \#[^\n]*\n? | ~[^\s()~:]* ) \s* )*
    ( [()/] | "(?:[^"\\]|\\.)*" | " | :[^\s()/:"~\#]* | [^\s()/:"~\#]+ | \Z )
""", re.VERBOSE | re.DOTALL)
# a token's kind from its first character; any other starts an ATOM
_KINDS = {"(": "LPAREN", ")": "RPAREN", "/": "SLASH", '"': "STRING",
          ":": "REL", "": "EOF"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


class PenmanError(ValueError):
    """Base class for all parse failures; carries a source offset."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EmptyInput(PenmanError):
    pass


class UnbalancedParens(PenmanError):
    pass


class DuplicateVariableDefinition(PenmanError):
    pass


class DanglingVariableReference(PenmanError):
    pass


class MalformedGraph(PenmanError):
    """Structural errors other than the dedicated classes above."""


class Concept(NamedTuple):
    """Label on an AMR node: a frame (``break-01``), a word, or a constant."""

    label: str
    sense: str | None = None
    quoted: bool = False  # constant came from a quoted string

    @property
    def lemma(self) -> str:
        """Label with the 2-digit sense suffix removed, if any."""
        return self.label[: -(len(self.sense) + 1)] if self.sense else self.label

    @staticmethod
    def from_label(label: str) -> "Concept":
        m = _SENSE_RE.match(label)
        if m:
            return Concept(label, m.group(2))
        return Concept(label)


def strip_sense(label: str) -> str:
    """Remove a trailing 2-digit sense suffix: "break-01" -> "break"."""
    m = _SENSE_RE.match(label)
    return m.group(1) if m else label


class AmrNode:
    """One position in the PENMAN tree. A definition has a variable and a
    concept, a reference (reentrancy) has a variable and no concept, and a
    constant has a concept and no variable. A parsed graph is its root.
    Preprocessing reads these nodes into a tree of its own and does not
    change them.
    """

    __slots__ = ("variable", "concept", "children")

    def __init__(self, variable: str | None, concept: Concept | None):
        self.variable = variable
        self.concept = concept
        self.children: list[tuple[str, AmrNode]] = []

    def walk(self):
        """Yield this node and every position below it in depth-first
        pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for _, child in reversed(node.children))


def _constant_text(concept: Concept) -> str:
    if concept.quoted:
        return '"%s"' % concept.label.replace("\\", "\\\\").replace('"', '\\"')
    return concept.label


def to_triples(root: AmrNode) -> list[tuple[str, str, str]]:
    """Logical-triple view: one ``instance`` triple per concept definition in
    pre-order, then one triple per edge in pre-order. Constant targets render
    in their source form (quotes kept)."""
    instances = []
    edges = []
    # each edge is listed when its target is reached, so in pre-order
    stack = [(root, None)]
    while stack:
        node, edge = stack.pop()
        if edge is not None:
            edges.append(edge)
        if node.variable is not None and node.concept is not None:
            instances.append((node.variable, "instance", node.concept.label))
        for rel, child in reversed(node.children):
            target = child.variable if child.variable is not None else _constant_text(child.concept)
            stack.append((child, (node.variable, rel, target)))
    return instances + edges


class _Parser:
    """Recursive descent over the token texts of one graph. A token's
    source offset is worked out only when an error names it."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _TOKEN_RE.findall(source)
        self.index = -1
        self.defined: dict[str, AmrNode] = {}
        # each bare atom with its text and token index, see resolve()
        self.pending: list[tuple[AmrNode, str, int]] = []
        self.advance()

    def advance(self):
        """Move to the next token: its ``kind``, and its ``text`` without
        quotes or colon. A lone '"' or ':' raises only once the parser
        reaches it, so an earlier structural error still wins."""
        self.index += 1
        token = self.tokens[self.index]
        self.kind = kind = _KINDS.get(token[:1], "ATOM")
        if kind == "REL":
            token = token[1:]
            if not token:
                raise MalformedGraph("relation name missing after ':'",
                                     self.offset())
        elif kind == "STRING":
            if len(token) == 1:
                raise MalformedGraph("unterminated string literal",
                                     self.offset())
            token = token[1:-1]
            if "\\" in token:
                token = _ESCAPE_RE.sub(r"\1", token)
        self.text = token

    def offset(self, index: int | None = None) -> int:
        """Source offset of token ``index``, by default the current one."""
        matches = _TOKEN_RE.finditer(self.source)
        index = self.index if index is None else index
        return next(islice(matches, index, None)).start(1)

    def parse(self) -> AmrNode:
        if self.kind == "EOF":
            raise EmptyInput("empty input", self.offset())
        if self.kind == "RPAREN":
            raise UnbalancedParens("unmatched ')'", self.offset())
        if self.kind != "LPAREN":
            raise MalformedGraph("graph must start with '('", self.offset())
        root = self.node()
        if self.kind != "EOF":
            if self.kind == "RPAREN":
                raise UnbalancedParens("unmatched ')'", self.offset())
            raise MalformedGraph("trailing content after graph", self.offset())
        self.resolve()
        return root

    def node(self) -> AmrNode:
        """The node whose '(' is the current token."""
        self.advance()
        var, at = self.text, self.index
        if self.kind != "ATOM":
            raise MalformedGraph("expected a variable name after '('",
                                 self.offset())
        self.advance()
        if var in self.defined:
            raise DuplicateVariableDefinition(f"variable {var!r} defined twice",
                                              self.offset(at))
        if self.kind != "SLASH":
            raise MalformedGraph(
                f"expected '/' and a concept for variable {var!r}",
                self.offset())
        self.advance()
        if self.kind == "ATOM":
            concept = Concept.from_label(self.text)
        elif self.kind == "STRING":
            concept = Concept(self.text, None, True)
        else:
            raise MalformedGraph(f"expected a concept for variable {var!r}",
                                 self.offset())
        self.advance()
        node = AmrNode(var, concept)
        self.defined[var] = node
        children = node.children
        while self.kind == "REL":
            relation = self.text
            self.advance()
            children.append((relation, self.value()))
        if self.kind != "RPAREN":
            if self.kind == "EOF":
                raise UnbalancedParens("unclosed '('", self.offset())
            raise MalformedGraph(f"expected ')', found {self.text!r}",
                                 self.offset())
        self.advance()
        return node

    def value(self) -> AmrNode:
        kind = self.kind
        if kind == "LPAREN":
            return self.node()
        if kind == "STRING":
            constant = AmrNode(None, Concept(self.text, None, True))
            self.advance()
            return constant
        if kind == "ATOM":
            atom = AmrNode(None, None)   # see resolve()
            self.pending.append((atom, self.text, self.index))
            self.advance()
            return atom
        raise MalformedGraph(f"expected a value, found {self.text!r}",
                             self.offset())

    def resolve(self):
        """Classify bare atoms: reentrant reference vs constant.

        An atom is a reference when its text names a defined variable. A
        strictly variable-shaped atom (letter plus digits) that is never
        defined is a dangling reference; everything else (numbers, ``-``,
        ``+``, words like ``imperative``) is a constant. Each atom's node
        is filled in place.
        """
        for atom, text, index in self.pending:
            if text in self.defined:
                atom.variable = text
            elif _STRICT_VAR_RE.match(text):
                raise DanglingVariableReference(
                    f"reference to undefined variable {text!r}",
                    self.offset(index))
            else:
                atom.concept = Concept(text)


def parse_penman(text: str) -> AmrNode:
    """Parse one PENMAN expression into its root :class:`AmrNode`.

    Whitespace, newlines, ``~`` alignment markers and ``#`` comment lines are
    tolerated. Raises a :class:`PenmanError` subclass (never anything else)
    on malformed input.
    """
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise MalformedGraph("graph nesting too deep", 0) from None


def _render(node: AmrNode, out: list[str]):
    if node.concept is None:
        out.append(node.variable)
        return
    if node.variable is None:
        out.append(_constant_text(node.concept))
        return
    out.append("(")
    out.append(node.variable)
    out.append(" / ")
    out.append(_constant_text(node.concept))
    for rel, child in node.children:
        out.append(" :" + rel + " ")
        _render(child, out)
    out.append(")")


def serialize_penman(root: AmrNode) -> str:
    """Canonical single-line PENMAN. ``parse_penman(serialize_penman(g))`` is
    isomorphic to ``g``: same triples, same child order."""
    out: list[str] = []
    _render(root, out)
    return "".join(out)
