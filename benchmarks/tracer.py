"""Traced in-process run of ``amr2qa generate``, for the per-layer metrics.

Usage: ``python tracer.py METRICS_JSON SPANS_JSON -- generate --amr ...``
(everything after ``--`` is the CLI's own argument list). The exit status
is the CLI's.

The tracer wraps, from outside the program, the names ``amr2qa.pipeline``
imported from the other modules, ``amr2qa.corpus.parse_penman``, the
``run_generate`` the CLI calls, and every public ``score*`` method of the
scorer ``make_scorer`` returns. Then it runs the real CLI. Each call
becomes a span: name, start, end, parent span, sentence and thread. Spans
stay in memory and are written once, at the end. A name the program no
longer has, or never calls, is reported as absent and its metrics as 0.

Self time is a span's duration minus the time its child spans cover,
tracer bookkeeping included. Children are assumed not to overlap in time,
which holds at ``--workers 1``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# name imported into amr2qa.pipeline -> span name (layer.function)
PIPELINE_SPANS = {
    "split_blocks": "corpus.split_blocks",
    "parse_block": "corpus.parse_block",
    "write_dataset": "corpus.write_dataset",
    "parse_conllu": "annotate.parse_conllu",
    "align_concepts": "annotate.align_concepts",
    "preprocess": "preprocess.preprocess",
    "generate_candidates": "qgen.generate_candidates",
    "best_question": "qgen.best_question",
    "sense_question": "qgen.sense_question",
    "extract_answer": "agen.extract_answer",
    "load_store": "templates.load_store",
    "make_scorer": "scorer.make_scorer",
}

SPAN_FIELDS = ("id", "name", "outer_start", "start", "end", "outer_end",
               "parent", "sentence", "thread")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.texts: set[str] = set()
        self.report = None
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``. ``before(args)`` and
        ``after(args, result)`` update counters outside the timed interval
        but inside the span's outer interval, so parents do not count
        them as self time."""
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            outer_start = perf_counter()
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            span_id = next(ids)
            if self._root is None:
                self._root = span_id
            if before is not None:
                before(args)
            stack.append(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if self._root == span_id:
                    self._root = None
                if ok and after is not None:
                    after(args, result)
                spans.append((span_id, name, outer_start, start, end,
                              perf_counter(), parent,
                              getattr(local, "sentence", None),
                              threading.get_ident()))
            return result

        return traced

    def _patch(self, module, attr, name, before=None, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(name)
            return
        setattr(module, attr, self.wrap(name, fn, before, after))

    def install(self):
        from amr2qa import cli, corpus, pipeline
        from amr2qa.preprocess import preorder

        local, counts = self._local, self.counts

        def enter_sentence(args):
            raw = args[0]
            local.sentence = raw.id if raw.id is not None else str(raw.position)

        def count_graph(args):
            counts["preprocess.nodes_in"] += sum(1 for _ in args[0].walk())

        def count_tree(args, tree):
            counts["preprocess.nodes_out"] += len(preorder(tree))

        def count_aligned(args, alignment):
            nodes = preorder(args[0])
            counts["annotate.nodes"] += len(nodes)
            counts["annotate.aligned"] += sum(node in alignment
                                              for node in nodes)

        def count_candidates(args, candidates):
            counts["qgen.candidates"] += len(candidates)

        def count_selected(args, best):
            counts["qgen.scored"] += len(args[0])
            counts["qgen.selected"] += best is not None

        def count_answer(args, answer):
            counts["agen.answers"] += 1
            counts["agen.span"] += answer.kind == "span"

        def count_bytes(args, _):
            counts["corpus.output_bytes"] += os.path.getsize(args[1])

        def record_texts(args):
            texts = [args[0]] if isinstance(args[0], str) else list(args[0])
            counts["scorer.texts"] += len(texts)
            self.texts.update(texts)

        def wrap_scorer(args, scorer):
            methods = [attr for attr in dir(scorer)
                       if attr.startswith("score")
                       and callable(getattr(scorer, attr))]
            for attr in methods:
                setattr(scorer, attr, self.wrap("scorer.call",
                                                getattr(scorer, attr),
                                                before=record_texts))
            if not methods:
                self.absent.add("scorer.call")

        def keep_report(args, report):
            self.report = report

        hooks = {
            "parse_block": (enter_sentence, None),
            "preprocess": (count_graph, count_tree),
            "align_concepts": (None, count_aligned),
            "generate_candidates": (None, count_candidates),
            "best_question": (None, count_selected),
            "extract_answer": (None, count_answer),
            "write_dataset": (None, count_bytes),
            "make_scorer": (None, wrap_scorer),
        }
        for attr, name in PIPELINE_SPANS.items():
            before, after = hooks.get(attr, (None, None))
            self._patch(pipeline, attr, name, before, after)
        self._patch(corpus, "parse_penman", "penman.parse_penman")
        self._patch(cli, "run_generate", "pipeline.run_generate",
                    after=keep_report)

    def metrics(self) -> dict:
        durations = defaultdict(list)
        self_time = defaultdict(float)
        covered = defaultdict(float)
        for span in self.spans:
            if span[6] is not None:
                covered[span[6]] += span[5] - span[2]
        for span in self.spans:
            duration = span[4] - span[3]
            durations[span[1]].append(duration)
            self_time[span[1]] += duration - covered[span[0]]
        self.absent.update(
            name for name in {*PIPELINE_SPANS.values(), "penman.parse_penman",
                              "pipeline.run_generate", "scorer.call"}
            if name not in durations)

        def busy(name):
            return sum(durations[name])

        def pct_us(name, q):
            values = sorted(durations[name])
            if not values:
                return 0.0
            rank = max(1, -(-len(values) * q // 100))
            return values[rank - 1] * 1e6

        def ratio(num, den):
            return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

        report = self.report
        texts = self.counts["scorer.texts"]
        return {
            "penman.parse_s": busy("penman.parse_penman"),
            "penman.parse_p50_us": pct_us("penman.parse_penman", 50),
            "penman.parse_p99_us": pct_us("penman.parse_penman", 99),
            "corpus.split_blocks_s": busy("corpus.split_blocks"),
            "corpus.parse_block_self_s": self_time["corpus.parse_block"],
            "corpus.write_dataset_s": busy("corpus.write_dataset"),
            "corpus.output_bytes": self.counts["corpus.output_bytes"],
            "annotate.parse_conllu_s": busy("annotate.parse_conllu"),
            "annotate.align_s": busy("annotate.align_concepts"),
            "annotate.align_p99_us": pct_us("annotate.align_concepts", 99),
            "annotate.aligned_ratio": ratio("annotate.aligned",
                                            "annotate.nodes"),
            "preprocess.s": busy("preprocess.preprocess"),
            "preprocess.p50_us": pct_us("preprocess.preprocess", 50),
            "preprocess.p99_us": pct_us("preprocess.preprocess", 99),
            "preprocess.nodes_in": self.counts["preprocess.nodes_in"],
            "preprocess.nodes_out": self.counts["preprocess.nodes_out"],
            "templates.load_store_s": busy("templates.load_store"),
            "qgen.candidates_s": busy("qgen.generate_candidates"),
            "qgen.candidates": self.counts["qgen.candidates"],
            "qgen.best_question_self_s": self_time["qgen.best_question"],
            "qgen.selected_ratio": ratio("qgen.selected", "qgen.scored"),
            "qgen.sense_s": busy("qgen.sense_question"),
            "scorer.setup_s": busy("scorer.make_scorer"),
            "scorer.score_s": busy("scorer.call"),
            "scorer.calls": len(durations["scorer.call"]),
            "scorer.distinct_ratio": len(self.texts) / texts if texts else 0.0,
            "scorer.fallbacks": getattr(report, "scorer_fallbacks", 0),
            "scorer.request_p50_us": pct_us("scorer.call", 50),
            "scorer.request_p99_us": pct_us("scorer.call", 99),
            "agen.extract_answer_s": busy("agen.extract_answer"),
            "agen.span_ratio": ratio("agen.span", "agen.answers"),
            "pipeline.self_s": self_time["pipeline.run_generate"],
            "pipeline.sentences_failed": getattr(report, "sentences_failed", 0),
            "pipeline.skipped_no_template": getattr(report,
                                                    "skipped_no_template", 0),
            "pipeline.skipped_duplicate": getattr(report,
                                                  "skipped_duplicate", 0),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py METRICS_JSON SPANS_JSON -- CLI-ARGS...",
              file=sys.stderr)
        return 1
    metrics_path, spans_path, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    from amr2qa import cli

    status = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, handle)
    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": tracer.metrics(),
                   "absent": sorted(tracer.absent)}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
