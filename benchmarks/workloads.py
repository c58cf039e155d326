"""Seeded inputs for the benchmark workloads.

Each builder returns matched (AMR corpus text, CoNLL-U text). The program
under test only ever sees these two files.

- ``short-repeat`` and ``remote-lm`` use ``tests/synth_corpus.generate``:
  2-4 condensed nodes per sentence over small fixed word lists, so scored
  question texts repeat heavily.
- ``long-fresh`` joins 3-6 synth-style clauses per sentence under an
  ``and`` root, with verbs, nouns and names drawn from a seeded pseudo-word
  pool large enough that most scored texts are distinct. Invented verb
  frames resolve through the ``*|*|ARGn`` wildcard role mapping. A clause
  sometimes repeats the one before it, so the duplicate-skip path runs.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYNTH_PATH = ROOT / "tests" / "synth_corpus.py"

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gl", "kr", "pl", "sk", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u"]
_CODAS = ["", "", "", "n", "r", "l", "m", "s", "k"]

# Pool sizes: with about 4.5 clauses a sentence, a verb pool this size
# keeps repeated (verb, tense) pairs rare at the workload's sentence count.
_POOL_SIZES = {"verb": 40000, "noun": 20000, "name": 5000, "adj": 2000}
_REPEAT_CLAUSE = 0.12


def load_synth():
    """Import ``tests/synth_corpus.py`` by path, read-only."""
    spec = importlib.util.spec_from_file_location("synth_corpus", SYNTH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synth_corpus(n: int, seed: int) -> tuple[str, str]:
    return load_synth().generate(n, seed)


class WordPool:
    """Disjoint seeded pools of pronounceable pseudo-words."""

    def __init__(self, rng: random.Random):
        seen: set[str] = set()
        self.words: dict[str, list[str]] = {}
        for kind, size in _POOL_SIZES.items():
            words = []
            while len(words) < size:
                word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                               for _ in range(rng.randint(2, 3)))
                word += rng.choice(_CODAS)
                if word not in seen:
                    seen.add(word)
                    words.append(word)
            self.words[kind] = words

    def draw(self, rng: random.Random, kind: str) -> str:
        word = rng.choice(self.words[kind])
        return word.capitalize() if kind == "name" else word


# A clause is (AMR graph text, tokens, index of the clause's dependency
# root). Token heads are clause-local, 1-based; 0 marks the clause root.
# Variables end in the clause number k, so clauses never share one.

def _name_node(k, name):
    return f'(p{k} / person :name (m{k} / name :op1 "{name}"))'


def _passive(rng, pool, k):
    verb, noun = pool.draw(rng, "verb"), pool.draw(rng, "noun")
    graph = f"(v{k} / {verb}-01 :ARG1 (n{k} / {noun}))"
    return graph, [
        ("The", "the", "DET", "DT", "_", 2, "det"),
        (noun, noun, "NOUN", "NN", "_", 4, "nsubj:pass"),
        ("was", "be", "AUX", "VBD", "Tense=Past", 4, "aux:pass"),
        (verb + "ed", verb, "VERB", "VBN", "Tense=Past|VerbForm=Part", 0,
         "root")], 4


def _active_present(rng, pool, k):
    verb, name, noun = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        pool.draw(rng, "noun"))
    graph = (f"(v{k} / {verb}-01 :ARG0 {_name_node(k, name)} "
             f":ARG1 (o{k} / {noun}))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 2, "nsubj"),
        (verb + "s", verb, "VERB", "VBZ", "Tense=Pres", 0, "root"),
        ("the", "the", "DET", "DT", "_", 4, "det"),
        (noun, noun, "NOUN", "NN", "_", 2, "obj")], 2


def _location_past(rng, pool, k):
    verb, name, noun = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        pool.draw(rng, "noun"))
    graph = (f"(v{k} / {verb}-01 :ARG0 {_name_node(k, name)} "
             f":location (l{k} / {noun}))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 2, "nsubj"),
        (verb + "ed", verb, "VERB", "VBD", "Tense=Past", 0, "root"),
        ("in", "in", "ADP", "IN", "_", 5, "case"),
        ("the", "the", "DET", "DT", "_", 5, "det"),
        (noun, noun, "NOUN", "NN", "_", 2, "obl")], 2


def _duration(rng, pool, k, units):
    verb, name, unit = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        rng.choice(units))
    graph = (f"(v{k} / {verb}-01 :ARG0 {_name_node(k, name)} :duration "
             f"(t{k} / temporal-quantity :quant 1 :unit (u{k} / {unit})))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 2, "nsubj"),
        (verb + "ed", verb, "VERB", "VBD", "Tense=Past", 0, "root"),
        ("for", "for", "ADP", "IN", "_", 5, "case"),
        ("1", "1", "NUM", "CD", "_", 5, "nummod"),
        (unit, unit, "NOUN", "NN", "_", 2, "obl")], 2


def _dated_event(rng, pool, k, months):
    verb, noun = pool.draw(rng, "verb"), pool.draw(rng, "noun")
    month, year = rng.randrange(1, 13), rng.randrange(1950, 2024)
    graph = (f"(v{k} / {verb}-01 :ARG1 (n{k} / {noun}) "
             f":time (d{k} / date-entity :month {month} :year {year}))")
    month_name = months[month - 1]
    return graph, [
        ("The", "the", "DET", "DT", "_", 2, "det"),
        (noun, noun, "NOUN", "NN", "_", 3, "nsubj"),
        (verb + "ed", verb, "VERB", "VBD", "Tense=Past", 0, "root"),
        ("in", "in", "ADP", "IN", "_", 5, "case"),
        (month_name, month_name, "PROPN", "NNP", "_", 3, "obl"),
        (str(year), str(year), "NUM", "CD", "_", 5, "nummod")], 3


def _future(rng, pool, k):
    verb, name, noun = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        pool.draw(rng, "noun"))
    graph = (f"(v{k} / {verb}-01 :ARG0 {_name_node(k, name)} "
             f":ARG1 (o{k} / {noun}))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 3, "nsubj"),
        ("will", "will", "AUX", "MD", "_", 3, "aux"),
        (verb, verb, "VERB", "VB", "VerbForm=Inf", 0, "root"),
        ("the", "the", "DET", "DT", "_", 5, "det"),
        (noun, noun, "NOUN", "NN", "_", 3, "obj")], 3


def _control_reentrant(rng, pool, k):
    verb, inner, name = (pool.draw(rng, "verb"), pool.draw(rng, "verb"),
                         pool.draw(rng, "name"))
    graph = (f"(v{k} / {verb}-01 :ARG0 {_name_node(k, name)} "
             f":ARG1 (g{k} / {inner}-01 :ARG0 p{k}))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 2, "nsubj"),
        (verb + "s", verb, "VERB", "VBZ", "Tense=Pres", 0, "root"),
        ("to", "to", "PART", "TO", "_", 4, "mark"),
        (inner, inner, "VERB", "VB", "VerbForm=Inf", 2, "xcomp")], 2


def _negated(rng, pool, k):
    verb, name, noun = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        pool.draw(rng, "noun"))
    graph = (f"(v{k} / {verb}-01 :polarity - :ARG0 {_name_node(k, name)} "
             f":ARG1 (f{k} / {noun}))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 4, "nsubj"),
        ("does", "do", "AUX", "VBZ", "Tense=Pres", 4, "aux"),
        ("not", "not", "PART", "RB", "_", 4, "advmod"),
        (verb, verb, "VERB", "VB", "VerbForm=Inf", 0, "root"),
        (noun, noun, "NOUN", "NN", "_", 4, "obj")], 4


def _modified_subject(rng, pool, k):
    verb, adj, noun = (pool.draw(rng, "verb"), pool.draw(rng, "adj"),
                       pool.draw(rng, "noun"))
    graph = f"(v{k} / {verb}-01 :ARG0 (n{k} / {noun} :mod (j{k} / {adj})))"
    return graph, [
        ("The", "the", "DET", "DT", "_", 3, "det"),
        (adj, adj, "ADJ", "JJ", "_", 3, "amod"),
        (noun, noun, "NOUN", "NN", "_", 4, "nsubj"),
        (verb + "ed", verb, "VERB", "VBD", "Tense=Past", 0, "root")], 4


def _inverse_relative(rng, pool, k):
    verb, name, noun = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        pool.draw(rng, "noun"))
    graph = (f'(p{k} / person :name (m{k} / name :op1 "{name}") '
             f":ARG0-of (i{k} / {verb}-01 :ARG1 (c{k} / {noun})))")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 2, "nsubj"),
        (verb + "ed", verb, "VERB", "VBD", "Tense=Past", 0, "root"),
        ("the", "the", "DET", "DT", "_", 4, "det"),
        (noun, noun, "NOUN", "NN", "_", 2, "obj")], 2


def _frequency_constant(rng, pool, k):
    verb, name, noun = (pool.draw(rng, "verb"), pool.draw(rng, "name"),
                        pool.draw(rng, "noun"))
    graph = (f"(v{k} / {verb}-01 :ARG0 {_name_node(k, name)} "
             f":ARG1 (o{k} / {noun}) :frequency 2)")
    return graph, [
        (name, name, "PROPN", "NNP", "_", 2, "nsubj"),
        (verb + "s", verb, "VERB", "VBZ", "Tense=Pres", 0, "root"),
        ("the", "the", "DET", "DT", "_", 4, "det"),
        (noun, noun, "NOUN", "NN", "_", 2, "obj"),
        ("twice", "twice", "ADV", "RB", "_", 2, "advmod")], 2


def long_corpus(n: int, seed: int) -> tuple[str, str]:
    """Matched (AMR, CoNLL-U) text: n sentences of 3-6 clauses joined as
    ``c1 , c2 , ... and cK .`` under ``(a / and :op1 ... :opK ...)``.
    Clause roots after the first attach to the first as ``conj``."""
    synth = load_synth()
    rng = random.Random(seed)
    pool = WordPool(random.Random(rng.getrandbits(64)))
    kinds = [_passive, _active_present, _location_past,
             lambda r, p, k: _duration(r, p, k, synth.UNITS),
             lambda r, p, k: _dated_event(r, p, k, synth.MONTHS),
             _future, _control_reentrant, _negated, _modified_subject,
             _inverse_relative, _frequency_constant]
    amr_blocks, conllu_blocks = [], []
    for i in range(1, n + 1):
        sid = f"lf{i:05d}"
        clause_count = rng.randint(3, 6)
        draws = []
        for _ in range(clause_count):
            if draws and rng.random() < _REPEAT_CLAUSE:
                draws.append(draws[-1])
            else:
                draws.append((rng.choice(kinds), rng.getrandbits(64)))
        ops, rows = [], []
        first_root = 0
        for k, (kind, clause_seed) in enumerate(draws, start=1):
            graph, tokens, root = kind(random.Random(clause_seed), pool, k)
            ops.append(f":op{k} {graph}")
            offset = len(rows)
            if k > 1:
                separator = "and" if k == clause_count else ","
                rows.append((separator, separator,
                             "CCONJ" if separator == "and" else "PUNCT",
                             "CC" if separator == "and" else ",", "_",
                             offset + 1 + root,
                             "cc" if separator == "and" else "punct"))
                offset += 1
            else:
                first_root = root
            for surface, lemma, upos, xpos, feats, head, deprel in tokens:
                if head == 0:
                    head, deprel = ((0, "root") if k == 1
                                    else (first_root, "conj"))
                else:
                    head += offset
                rows.append((surface, lemma, upos, xpos, feats, head, deprel))
        rows.append((".", ".", "PUNCT", ".", "_", first_root, "punct"))
        sentence = " ".join(row[0] for row in rows)
        amr_blocks.append(f"# ::id {sid}\n# ::snt {sentence}\n"
                          f"(a / and {' '.join(ops)})")
        lines = [f"{index}\t{surface}\t{lemma}\t{upos}\t{xpos}\t{feats}"
                 f"\t{head}\t{deprel}\t_\t_"
                 for index, (surface, lemma, upos, xpos, feats, head, deprel)
                 in enumerate(rows, start=1)]
        conllu_blocks.append(f"# sent_id = {sid}\n# text = {sentence}\n"
                             + "\n".join(lines))
    return ("\n\n".join(amr_blocks) + "\n",
            "\n\n".join(conllu_blocks) + "\n")


def validate_inputs(amr: str, conllu: str) -> int:
    """Sentence count after checking that every block parses with the
    program's own readers and that the two files pair up by order."""
    from amr2qa.annotate import parse_conllu
    from amr2qa.corpus import parse_block, split_blocks

    blocks = split_blocks(amr)
    for raw in blocks:
        parse_block(raw)
    annotations = parse_conllu(conllu)
    if len(blocks) != len(annotations) or not blocks:
        raise ValueError(f"{len(blocks)} AMR blocks vs "
                         f"{len(annotations)} CoNLL-U sentences")
    return len(blocks)
