"""Benchmark for ``amr2qa generate``, measured from outside the program.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --trace 1   # every workload

One run builds the workload's inputs from the seed, then:

1. times a set-up child ``SETUP_PROBES`` times (``setup_probe.py``: import
   amr2qa, ``load_store`` on the bundled pack, ``make_scorer``); ``setup_s``
   is the median wall time;
2. launches ``python -m amr2qa.cli generate`` with ``src`` on PYTHONPATH
   until ``--seconds`` have passed (at least ``MIN_RUNS`` times), and
   reports the median over those children of ``sentences_per_s``
   (sentences processed / wall time from launch to exit) and
   ``peak_rss_mb`` (the child's ``ru_maxrss`` from ``os.wait4``; children
   start from ``measure_child.py`` so the harness's RSS does not count);
3. with ``--trace 1``, also runs the CLI once in a child under
   ``tracer.py`` and reports the per-layer metrics it records.

Every run is checked (see ``checks.py``). There is no independent
reference output, so the checks are invariants and byte stability: the
dataset sha256 must be the same across all runs of one workload and seed,
the traced run included. A run that exits non-zero or fails a check counts
all of its sentences as failed. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (sentences over all
generate children, so failed / attempted is ``failed_ratio``) and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). Full results, with the Python version, CPU count and load average
before and after the run, go to ``.bench_work/results/``.

Workloads (all ``--pair by-order --workers 1``; with two cores, more
workers spread too widely between runs to meet the bounds):

- ``short-repeat``: ``tests/synth_corpus.generate`` at 6,248 sentences,
  baseline scorer. Fixed per-sentence costs dominate and scored texts
  repeat heavily (``scorer.distinct_ratio`` well under 0.05).
- ``long-fresh``: 3-6 clauses per sentence over a seeded pseudo-word pool
  (``workloads.long_corpus``), baseline scorer. Per-node work dominates,
  most scored texts are distinct, and the no-template (``:opN``) and
  duplicate-skip paths run.
- ``remote-lm``: the ``short-repeat`` generator at 520 sentences with
  ``--scorer remote`` against ``stub_lm.py``, one request in flight.
  Scoring is I/O-bound and dominates; ``stub.requests`` must equal
  ``scorer.calls`` and ``scorer.fallbacks`` must be 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"sentences_per_s": "sentences/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}


# per-layer metric -> unit; ``tracer.py`` defines each metric
PER_LAYER = {
    "penman.parse_s": "s",
    "penman.parse_p50_us": "us",
    "penman.parse_p99_us": "us",
    "corpus.split_blocks_s": "s",
    "corpus.parse_block_self_s": "s",
    "corpus.write_dataset_s": "s",
    "corpus.output_bytes": "bytes",
    "annotate.parse_conllu_s": "s",
    "annotate.align_s": "s",
    "annotate.align_p99_us": "us",
    "annotate.aligned_ratio": "ratio",
    "preprocess.s": "s",
    "preprocess.p50_us": "us",
    "preprocess.p99_us": "us",
    "preprocess.nodes_in": "count",
    "preprocess.nodes_out": "count",
    "templates.load_store_s": "s",
    "qgen.candidates_s": "s",
    "qgen.candidates": "count",
    "qgen.best_question_self_s": "s",
    "qgen.selected_ratio": "ratio",
    "qgen.sense_s": "s",
    "scorer.setup_s": "s",
    "scorer.score_s": "s",
    "scorer.calls": "count",
    "scorer.distinct_ratio": "ratio",
    "scorer.fallbacks": "count",
    "scorer.request_p50_us": "us",
    "scorer.request_p99_us": "us",
    "stub.requests": "count",
    "agen.extract_answer_s": "s",
    "agen.span_ratio": "ratio",
    "pipeline.self_s": "s",
    "pipeline.sentences_failed": "count",
    "pipeline.skipped_no_template": "count",
    "pipeline.skipped_duplicate": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    corpus: Callable[[int, int], tuple[str, str]]
    sentences: int
    scorer: str


WORKLOADS = {
    "short-repeat": Workload(workloads.synth_corpus, 6248, "baseline"),
    "long-fresh": Workload(workloads.long_corpus, 1200, "baseline"),
    "remote-lm": Workload(workloads.synth_corpus, 520, "remote"),
}


class Stop(Exception):
    """SIGTERM arrived; unwinds so every child is stopped."""


def _on_sigterm(signum, frame):
    raise Stop()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stderr_path: Path) -> dict:
    """Run one child to completion through ``measure_child.py``: wall time
    from launch to exit, exit code, peak RSS (MiB) and its stderr text."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "measure_child.py"),
                             str(stderr_path), "--", *argv],
                            cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.terminate()   # measure_child.py stops its command first
            proc.wait()
    result = json.loads(out)
    result["stderr"] = stderr_path.read_text(encoding="utf-8")
    return result


@contextmanager
def stub_server():
    """Start ``stub_lm.py``, wait until it serves, yield its URL; stop it
    on every exit path."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "stub_lm.py")],
                            cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        port = proc.stdout.readline().strip() if ready else ""
        if not port.isdigit():
            raise RuntimeError("stub language model did not start")
        url = f"http://127.0.0.1:{port}/"
        stub_requests(url)
        yield url
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def stub_requests(url: str | None) -> int:
    if url is None:
        return 0
    with urllib.request.urlopen(url + "requests", timeout=10) as reply:
        return json.load(reply)["requests"]


def summary(values: list[float]) -> dict:
    """Median and quartiles, with the sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3}


class WorkloadRun:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 scale: float):
        self.name, self.seed, self.seconds, self.trace = (
            name, seed, seconds, trace)
        self.workload = WORKLOADS[name]
        self.size = max(3, round(self.workload.sentences * scale))
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.runs: list[dict] = []
        self.setup: list[float] = []
        self.traced: dict | None = None

    def cli_args(self, out: Path, url: str | None) -> list[str]:
        args = ["generate", "--amr", str(self.dir / "in.amr"),
                "--conllu", str(self.dir / "in.conllu"), "--out", str(out),
                "--pair", "by-order", "--workers", "1",
                "--scorer", self.workload.scorer]
        return args + (["--scorer-url", url] if url else [])

    def execute(self) -> dict:
        env_before = environment()
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            amr, conllu = self.workload.corpus(self.size, self.seed)
            self.sentences = workloads.validate_inputs(amr, conllu)
            (self.dir / "in.amr").write_text(amr, encoding="utf-8")
            (self.dir / "in.conllu").write_text(conllu, encoding="utf-8")
            self.input_sha = checks.sha256_file(self.dir / "in.amr")
            self.surfaces = checks.conllu_surfaces(conllu)
            del amr, conllu
            remote = self.workload.scorer == "remote"
            with stub_server() if remote else nullcontext() as url:
                self.measure(url)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        return self.result(env_before, environment())

    def measure(self, url: str | None) -> None:
        # compile bytecode and warm the file cache before timing
        run_child([sys.executable, "-c", "import amr2qa.cli"],
                  self.dir / "warm.err")
        probe = [sys.executable, str(BENCH / "setup_probe.py"),
                 self.workload.scorer] + ([url] if url else [])
        for _ in range(SETUP_PROBES):
            child = run_child(probe, self.dir / "setup.err")
            if child["exit"] != 0:
                self.problems.append(f"set-up child exited {child['exit']}")
            self.setup.append(child["wall_s"])

        started = perf_counter()
        while len(self.runs) < MIN_RUNS or perf_counter() - started < self.seconds:
            out = self.dir / "out.jsonl"
            before = stub_requests(url)
            child = run_child([sys.executable, "-m", "amr2qa.cli"]
                              + self.cli_args(out, url),
                              self.dir / "run.err")
            child["stub_requests"] = stub_requests(url) - before
            self.runs.append(self.check(child, out))

        if self.trace:
            out = self.dir / "traced.jsonl"
            metrics_path = self.dir / "trace.json"
            spans_path = WORK / "results" / f"{self.name}.spans.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            before = stub_requests(url)
            child = run_child([sys.executable, str(BENCH / "tracer.py"),
                               str(metrics_path), str(spans_path), "--"]
                              + self.cli_args(out, url),
                              self.dir / "trace.err")
            child["stub_requests"] = stub_requests(url) - before
            self.traced = self.check(child, out)
            if metrics_path.exists():
                self.traced.update(json.loads(metrics_path.read_text()))

    def check(self, child: dict, out: Path) -> dict:
        """Apply the output checks to one generate child; the record checks
        run once per distinct dataset sha256."""
        problems = []
        if child["exit"] != 0:
            problems.append(f"exit code {child['exit']}")
        report = checks.parse_report(child.pop("stderr"))
        problems += checks.check_report(report, self.sentences)
        if self.workload.scorer == "remote" and report.get("scorer_fallbacks"):
            problems.append(f"{report['scorer_fallbacks']} scorer fallbacks")
        child["sha256"] = checks.sha256_file(out) if out.exists() else None
        first = self.runs[0] if self.runs else None
        if first is None:
            if child["sha256"] is None:
                problems.append("no dataset written")
            else:
                problems += checks.check_dataset(out, self.surfaces,
                                                 self.workload.scorer)
        else:
            if child["sha256"] != first["sha256"]:
                problems.append("dataset sha256 differs from the first run")
            if child["stub_requests"] != first["stub_requests"]:
                problems.append("stub request count differs from the "
                                "first run")
        child["report"] = report
        child["problems"] = problems
        child["failed"] = (self.sentences if problems
                           else report.get("sentences_failed", 0))
        self.problems += problems
        return child

    def result(self, env_before: dict, env_after: dict) -> dict:
        walls = [run["wall_s"] for run in self.runs]
        end_to_end = {
            "sentences_per_s": summary([
                run["report"].get("sentences_processed", 0) / run["wall_s"]
                for run in self.runs]),
            "setup_s": summary(self.setup),
            "peak_rss_mb": summary([run["rss_mib"] for run in self.runs]),
        }
        children = self.runs + ([self.traced] if self.traced else [])
        attempted = self.sentences * len(children)
        failed = sum(child["failed"] for child in children)
        per_layer, absent = None, []
        if self.traced is not None:
            per_layer = dict.fromkeys(PER_LAYER, 0)
            per_layer.update(self.traced.get("metrics", {}))
            absent = self.traced.get("absent", [])
            if "metrics" not in self.traced:
                self.problems.append("traced run wrote no metrics")
            per_layer["stub.requests"] = self.traced["stub_requests"]
            per_layer["trace.overhead_s"] = (self.traced["wall_s"]
                                             - statistics.median(walls))
            if (self.workload.scorer == "remote"
                    and per_layer["stub.requests"] != per_layer["scorer.calls"]):
                self.problems.append("stub.requests != scorer.calls")
        return {
            "workload": self.name, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "sentences": self.sentences, "input_sha256": self.input_sha,
            "dataset_sha256": self.runs[0]["sha256"],
            "env_before": env_before, "env_after": env_after,
            "correct": not self.problems, "problems": self.problems[:20],
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "absent_layers": absent, "runs": self.runs,
            "traced_run": self.traced,
        }


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"sentences {result['sentences']}  "
          f"input sha256 {result['input_sha256'][:16]}  "
          f"dataset sha256 {result['dataset_sha256'] or '-'}")
    for key in ("env_before", "env_after"):
        env = result[key]
        print(f"   {key:<10} python {env['python']}  nproc {env['nproc']}  "
              f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    for name, stats in result["end_to_end"].items():
        print(f"   {name:<16} {END_TO_END[name]:<12} runs {stats['runs']:>3}  "
              f"median {stats['median']:.4f}  q1 {stats['q1']:.4f}  "
              f"q3 {stats['q3']:.4f}")
    ratio = result["failed"] / result["attempted"]
    print(f"   {'failed_ratio':<16} {'fraction':<12} "
          f"runs {len(result['runs']) + bool(result['traced_run']):>3}  "
          f"{ratio:.4f} ({result['failed']} of {result['attempted']})")
    if result["per_layer"] is not None:
        print("   per-layer (traced run):")
        for name, value in result["per_layer"].items():
            print(f"     {name:<28} {value:>14.6g} {PER_LAYER[name]}")
        if result["absent_layers"]:
            print(f"   absent: {', '.join(result['absent_layers'])}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": value, "unit": PER_LAYER[name]}
                for name, value in result["per_layer"].items()}
    return {name: {"value": stats["median"], "unit": END_TO_END[name]}
            for name, stats in result["end_to_end"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each workload's sentence count "
                             "(smoke tests use a tiny one)")
    args = parser.parse_args(argv)
    if not (SRC / "amr2qa").is_dir() or not workloads.SYNTH_PATH.is_file():
        print("error: run from a full checkout (src/amr2qa and "
              "tests/synth_corpus.py are missing)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = WorkloadRun(name, args.seed, args.seconds, bool(args.trace),
                             args.scale).execute()
        results.append(result)
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(result, indent=1), encoding="utf-8")
        print_result(result)

    if len(results) == 1:
        metrics = metrics_of(results[0], bool(args.trace))
    else:
        metrics = {f"{result['workload']}.{name}": value
                   for result in results
                   for name, value in metrics_of(result,
                                                 bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
