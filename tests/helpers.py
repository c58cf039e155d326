"""Shared fixture loading and fuzz-input generation for the test suite."""

import pathlib
import random

from amr2qa.annotate import SentenceAnnotation, Token

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def random_tree_heads(rng: random.Random, n: int) -> list[int]:
    """Random valid dependency heads for tokens 1..n: exactly one root,
    acyclic, arbitrary (possibly non-projective) shape. Entry i-1 is the
    head of token i."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    for position, index in enumerate(order):
        heads[index] = 0 if position == 0 else order[rng.randrange(position)]
    return heads[1:]


def annotation_from_heads(heads: list[int], sentence_id: str = "x") -> SentenceAnnotation:
    tokens = [Token(index=i, surface=f"w{i}", lemma=f"w{i}", upos="NOUN",
                    xpos="NN", feats={}, head=head, deprel="dep")
              for i, head in enumerate(heads, start=1)]
    return SentenceAnnotation(sentence_id, " ".join(t.surface for t in tokens), tokens)

# characters weighted toward PENMAN structure so random strings hit the
# parser's interesting paths instead of failing at the first byte
_FUZZ_POOL = '(((())))//::  ""~~##\n\tabgzABG0159-+._eo'


def load_penman_corpus() -> list[str]:
    """Graphs from the round-trip corpus, one string per blank-line block."""
    text = (FIXTURES / "penman_corpus.txt").read_text(encoding="utf-8")
    blocks = [b.strip() for b in text.split("\n\n")]
    return [b for b in blocks if b]


_CONCEPTS = ["run-02", "see-01", "dog", "cat", "person", "city", "go-02",
             "want-01", "book", "give-01", "happy", "green", "house", "war-01"]
_RELATIONS = ["ARG0", "ARG1", "ARG2", "time", "location", "mod", "manner",
              "poss", "ARG0-of", "ARG1-of", "instrument", "topic", "source"]
_IGNORED = ["polarity", "wiki", "mode", "polite"]
_NAMES = ["Alice", "Tesla", "Berlin", "Rio", "Omaha", "Nikola"]


def random_amr_text(rng: random.Random, max_nodes: int = 14) -> str:
    """Build a random but well-formed PENMAN string: mixed concepts, entity
    subgraphs, name/op constants, ignored relations and reentrancy."""
    counter = [0]
    defined: list[str] = []

    def fresh_var() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def build(depth: int) -> str:
        var = fresh_var()
        defined.append(var)
        kind = rng.randrange(10)
        if kind == 0 and depth > 0:
            unit = fresh_var()
            defined.append(unit)
            return (f"({var} / temporal-quantity :quant {rng.randrange(1, 9)}"
                    f" :unit ({unit} / year))")
        if kind == 1 and depth > 0:
            return (f"({var} / date-entity :month {rng.randrange(1, 13)}"
                    f" :year {rng.randrange(1990, 2024)})")
        parts = [f"({var} / {rng.choice(_CONCEPTS)}"]
        if kind == 2:
            name_var = fresh_var()
            defined.append(name_var)
            ops = " ".join(f':op{i + 1} "{rng.choice(_NAMES)}"'
                           for i in range(rng.randrange(1, 3)))
            parts.append(f" :name ({name_var} / name {ops})")
        n_children = rng.randrange(0, 3 if depth < 3 and counter[0] < max_nodes else 1)
        for _ in range(n_children):
            rel = rng.choice(_RELATIONS)
            roll = rng.randrange(8)
            if roll == 0 and len(defined) > 1:
                parts.append(f" :{rel} {rng.choice(defined)}")
            elif roll == 1:
                parts.append(f" :{rel} {rng.randrange(1, 100)}")
            else:
                parts.append(f" :{rel} {build(depth + 1)}")
        if rng.randrange(4) == 0:
            ignored = rng.choice(_IGNORED)
            if ignored == "polarity":
                parts.append(" :polarity -")
            elif ignored == "wiki":
                parts.append(' :wiki "Q42"')
            elif ignored == "mode":
                parts.append(" :mode imperative")
            else:
                parts.append(f" :polite {build(depth + 1)}")
        parts.append(")")
        return "".join(parts)

    return build(0)


def random_promotion_amr_text(rng: random.Random, max_nodes: int = 12) -> str:
    """Build a well-formed PENMAN string whose ignored-relation subtrees,
    nested ones among them, define variables that other positions refer to,
    before and after the definition, so preprocessing has to promote
    definitions out of dropped subtrees. References are drawn once the whole
    tree exists, so any variable can be referenced anywhere; most name a
    variable defined under an ignored edge."""
    variables: list[str] = []
    dropped: list[str] = []

    def build(depth: int, under_ignored: bool) -> str:
        var = f"v{len(variables) + 1}"
        variables.append(var)
        if under_ignored:
            dropped.append(var)
        parts = [f"({var} / {rng.choice(_CONCEPTS)}"]
        room = depth < 4 and len(variables) < max_nodes
        for _ in range(rng.randrange(1, 4) if room else rng.randrange(2)):
            ignored = rng.randrange(3) == 0
            rel = rng.choice(_IGNORED if ignored else _RELATIONS)
            if rng.randrange(3) == 0 or len(variables) >= max_nodes:
                parts.append(f" :{rel} {{}}")   # a reference, drawn below
            else:
                parts.append(f" :{rel} {build(depth + 1, under_ignored or ignored)}")
        parts.append(")")
        return "".join(parts)

    text = build(0, False)
    return text.format(*(rng.choice(dropped if dropped and rng.randrange(4)
                                    else variables)
                         for _ in range(text.count("{}"))))


def fuzz_strings(count: int, seed: int = 7):
    """Yield `count` adversarial parser inputs, deterministically.

    Half are random character soup, half are single-character mutations of
    valid corpus graphs (the latter exercise deep error paths).
    """
    rng = random.Random(seed)
    corpus = load_penman_corpus()
    for i in range(count):
        if i % 2 == 0:
            length = rng.randrange(0, 120)
            yield "".join(rng.choice(_FUZZ_POOL) for _ in range(length))
        else:
            text = rng.choice(corpus)
            pos = rng.randrange(0, len(text))
            op = rng.randrange(3)
            ch = rng.choice(_FUZZ_POOL)
            if op == 0:
                yield text[:pos] + ch + text[pos:]
            elif op == 1:
                yield text[:pos] + text[pos + 1:]
            else:
                yield text[:pos] + ch + text[pos + 1:]
