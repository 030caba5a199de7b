"""Benchmark for senseparse: eval throughput, parse latency, quality and
role structure on one workload.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The run generates the workload's inputs in a child
process (``perfbench/gen.py``), so input generation is outside the measured
process, then works in one closed loop in this process, with no extra
threads:

- set-up: ``load_resources`` plus the corpus and advice readers;
- eval: ``evaluation.run_experiment`` over all five variants, one corpus
  chunk per sample (the synthetic corpora are built of interchangeable
  chunks, see ``gen.py``; the fixture corpus is one chunk);
- parse: ``senseparse.cli.main(["parse", ...])`` in-process, one sentence
  per call, writing the logical form to a file, cycling through the
  sentences and variants.

The three are interleaved by a scheduler that keeps each near its share of
the run, so all of them sample the same stretch of machine speed, which
drifts by tens of percent over seconds on a shared machine.  A garbage
collection precedes every timed sample, outside the timing, so each sample
starts from the same heap.  After ``--seconds`` the run stops once every
activity has its minimum sample count.  ``setup_s`` is the median set-up,
``sent_parses_per_s`` the sentence-parses done over the seconds spent in
``run_experiment``, and ``parse_ms_p50``/``parse_ms_p90`` the deciles of
the per-call latencies.  An eval pass that raises ends the run; a
``parse`` call that raises or exits with code 1 counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the same loop runs with per-layer wrappers installed
(``layers.py``) and reports the per-layer metrics instead.  Every run first
makes one untimed reference eval pass and checks its logical forms with
``checks.py``; a failed check exits with code 3 and names the check, the
sentence and the variant.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("fixture", "long-ambig", "wide-lexicon")
VARIANTS = ("plain", "pre", "prog", "comb", "fixed")
# Workloads whose advice is the gold sense at confidence 1.0.
GOLD_ADVICE = {"fixture"}

# Share of the run each activity gets, and its minimum sample count: p90
# needs ten samples beyond it, and a median needs a few passes.
SHARES = {"setup": 0.1, "eval": 0.45, "parse": 0.45}
MIN_SAMPLES = {"setup": 5, "eval": 5, "parse": 100}


END_TO_END = {
    "setup_s": "s",
    "sent_parses_per_s": "1/s",
    "parse_ms_p50": "ms",
    "parse_ms_p90": "ms",
    "peak_rss_mb": "MB",
    **{f"f_score.{v}": "ratio" for v in VARIANTS},
    **{f"role_edges.{v}": "count" for v in VARIANTS},
}


class Failure(Exception):
    """The run cannot produce a result (missing program or inputs)."""


def import_program():
    src = ROOT / "src"
    if not (src / "senseparse" / "__init__.py").is_file():
        raise Failure(f"no program source at {src}/senseparse")
    sys.path.insert(0, str(src))
    import senseparse

    if Path(senseparse.__file__).resolve().parent != (src / "senseparse").resolve():
        raise Failure(f"imported senseparse from {senseparse.__file__}, not from {src}")


def generate(workload: str, seed: int, work: Path) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work)],
        capture_output=True, text=True,
    )
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise Failure(f"input generation failed with exit code {done.returncode}")


class Bench:
    def __init__(self, workload: str, work: Path) -> None:
        from senseparse.evaluation import VariantConfig

        self.workload = workload
        self.work = work
        self.variants = [VariantConfig(v) for v in VARIANTS]
        self.fallback = self.variants[0].parser.fallback_type
        self.facts = checks.read_ontology(work / "ontology.txt")
        self.gold = checks.read_gold(work / "corpus.txt")
        if workload == "fixture":
            hypernyms = checks.read_hypernyms(work / "synsets.txt")
            self.gold_types = {
                synset: checks.path_gold_type(synset, hypernyms, self.facts.synset_type)
                for _, tokens in self.gold.values() for synset in tokens.values()
            }
        else:
            self.gold_types = dict(
                line.split() for line in (work / "gold_types.txt").read_text().splitlines()
            )
        sentences = [
            line.split("\t") for line in
            (work / "cli_sentences.txt").read_text(encoding="utf-8").splitlines()
        ]
        # round-robin: every sentence once per cycle, each cycle shifting the
        # variant, so any prefix mixes sentences and variants evenly
        self.calls = [
            (sid, text, VARIANTS[(k + cycle) % len(VARIANTS)])
            for cycle in range(len(VARIANTS))
            for k, (sid, text) in enumerate(sentences)
        ]
        self.resource_args = []
        for flag in ("ontology", "synsets", "lexicon", "grammar"):
            self.resource_args += [f"--{flag}", str(work / f"{flag}.txt")]
        self.lf_path = work / "parse_output.txt"
        self.attempted = 0
        self.failed = 0

    # -- the three activities -----------------------------------------------------

    def setup(self, tracer=None):
        from senseparse.advice import load_advice, load_corpus
        from senseparse.evaluation import load_resources

        w = self.work
        resources = load_resources(w / "ontology.txt", w / "synsets.txt", w / "lexicon.txt", w / "grammar.txt")
        t0 = time.perf_counter_ns()
        corpus = load_corpus(w / "corpus.txt")
        advice = load_advice(w / "advice.txt")
        if tracer is not None:
            tracer.acc["load.inputs_ns"] += time.perf_counter_ns() - t0
        return resources, corpus, advice

    def evaluate(self, state, sentences=None):
        from senseparse.evaluation import run_experiment

        resources, corpus, advice = state
        return run_experiment(resources, corpus if sentences is None else sentences, advice, self.variants)

    def parse(self, index: int) -> int:
        from senseparse import cli

        sid, text, variant = self.calls[index % len(self.calls)]
        argv = ["parse", *self.resource_args, "--advice", str(self.work / "cli_advice.txt"),
                "--sentence", text, "--sentence-id", sid, "--variant", variant,
                "--output", str(self.lf_path)]
        try:
            return cli.main(argv)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"parse {sid} {variant} raised {exc!r}", file=sys.stderr)
            return 1

    def check_parse_output(self, index: int, code: int) -> None:
        sid, _, variant = self.calls[index % len(self.calls)]
        self.attempted += 1
        if code not in (0, 2):
            self.failed += 1
            return
        lf = checks.read_lf(self.lf_path.read_text(encoding="utf-8"))
        checks.check_lf(lf, self.gold[sid][0], self.facts, sid, f"parse:{variant}")

    # -- reference pass -------------------------------------------------------------

    def reference(self, state):
        """One untimed eval pass over the whole corpus whose logical forms
        are checked; returns the report and the role-edge count per variant."""
        from senseparse import evaluation

        captured = {}
        original = evaluation.run_variant

        def capture(resources, corpus, advice, config, *args, **kwargs):
            out = original(resources, corpus, advice, config, *args, **kwargs)
            captured[config.variant] = out[0]
            return out

        evaluation.run_variant = capture
        try:
            report = self.evaluate(state)
        finally:
            evaluation.run_variant = original
        self.attempted += len(VARIANTS) * len(state[1])

        edges = {}
        for row in report.rows:
            results = captured.get(row.variant)
            if results is None:
                raise checks.CheckFailed("f-score", "*", row.variant, "run_experiment did not go through run_variant")
            lfs = {sid: checks.read_lf(str(r.logical_form)) for sid, r in results.items()}
            for sid, lf in lfs.items():
                checks.check_lf(lf, self.gold[sid][0], self.facts, sid, row.variant)
            exact = self.workload in GOLD_ADVICE and row.variant == "fixed"
            score = checks.score(lfs, self.gold, self.gold_types, self.fallback, row.variant, exact)
            checks.check_f(row.f_score, score, row.variant)
            edges[row.variant] = sum(len(lf.edges) for lf in lfs.values())
        return report, edges


def schedule(seconds: float, minimum: dict[str, int], run_one) -> dict[str, int]:
    """Interleave the activities until ``seconds`` have passed and each has
    its minimum sample count; ``run_one(name)`` runs one sample and returns
    its duration in seconds."""
    spent = {name: 0.0 for name in SHARES}
    count = {name: 0 for name in SHARES}
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        short = [n for n in SHARES if count[n] < minimum[n]]
        if over and not short:
            return count
        pool = short if over else list(SHARES)
        name = min(pool, key=lambda n: (spent[n] / SHARES[n], n))
        spent[name] += run_one(name)
        count[name] += 1


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (q in 1..9) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[q - 1]


def run_loop(bench: Bench, seconds: float, tracer: layers.Tracer | None):
    """The measured loop shared by the plain and the traced run.

    An eval sample is ``run_experiment`` over one chunk of the corpus,
    rotating through the chunks; each chunk's report must repeat exactly.
    Returns the reference report, role edges, chunk size and, per activity,
    a list of (chunk or call index, seconds, tracer snapshot or None).
    """
    state = bench.setup()
    report, edges = bench.reference(state)
    corpus = state[1]
    frames = gen.FRAME_LENGTHS.get(bench.workload)
    size = len(frames) if frames else len(corpus)
    chunks = [corpus[i:i + size] for i in range(0, len(corpus), size)]
    first_report: dict[int, str] = {}
    samples = {name: [] for name in SHARES}
    index = {name: 0 for name in SHARES}
    if tracer is not None:
        tracer.install()

    def run_one(name: str) -> float:
        nonlocal state
        i = index[name]
        index[name] += 1
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        if name == "setup":
            state = bench.setup(tracer)
            elapsed = time.perf_counter() - t0
        elif name == "eval":
            chunk = chunks[i % len(chunks)]
            got = bench.evaluate(state, chunk).to_tsv()
            elapsed = time.perf_counter() - t0
            bench.attempted += len(VARIANTS) * len(chunk)
            if first_report.setdefault(i % len(chunks), got) != got:
                raise checks.CheckFailed("report-repeat", f"chunk {i % len(chunks)}", "*",
                                         "eval report differs from the chunk's first report")
        else:
            code = bench.parse(i)
            elapsed = time.perf_counter() - t0
            bench.check_parse_output(i, code)
        snapshot = None
        if tracer is not None:
            snapshot = (tracer.acc, tracer.distinct)
        samples[name].append((i % len(chunks) if name == "eval" else i, elapsed, snapshot))
        return elapsed

    minimum = dict(MIN_SAMPLES, eval=max(MIN_SAMPLES["eval"], len(chunks)))
    try:
        counts = schedule(seconds, minimum, run_one)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(f"samples: setup {counts['setup']}, eval chunks {counts['eval']} "
          f"({len(chunks)} chunks of {size} sentences), parse calls {counts['parse']}")
    return report, edges, size, samples


def throughput(chunk_size: int, eval_samples: list) -> float:
    """Sentence-parses per second of time spent in ``run_experiment``."""
    return len(VARIANTS) * chunk_size * len(eval_samples) / sum(t for _, t, _ in eval_samples)


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    report, edges, size, samples = run_loop(bench, seconds, None)
    parse_ms = [t * 1e3 for _, t, _ in samples["parse"]]
    metrics = {
        "setup_s": statistics.median(t for _, t, _ in samples["setup"]),
        "sent_parses_per_s": throughput(size, samples["eval"]),
        "parse_ms_p50": statistics.median(parse_ms),
        "parse_ms_p90": quantile(parse_ms, 9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for row in report.rows:
        metrics[f"f_score.{row.variant}"] = row.f_score
        metrics[f"role_edges.{row.variant}"] = edges[row.variant]
    return metrics


def measure_traced(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics.  Eval metrics are per corpus pass: counts and
    ratios come from the first rotation through the chunks, and each time
    is the sum over chunks of the chunk's median.  Set-up and ``parse``
    metrics are medians per sample."""
    _, _, size, samples = run_loop(bench, seconds, layers.Tracer())
    print(f"traced sent_parses_per_s {throughput(size, samples['eval'])}")

    metrics: dict[str, float] = {}
    for rows in ([layers.setup_metrics(acc) for _, _, (acc, _) in samples["setup"]],
                 [layers.cli_metrics(acc) for _, _, (acc, _) in samples["parse"]]):
        for key in rows[0]:
            metrics[key] = statistics.median(row[key] for row in rows)

    rotation_acc: dict[str, float] = {}
    rotation_distinct: dict[str, set] = {}
    by_chunk: dict[int, list[dict[str, float]]] = {}
    for chunk, _, (acc, distinct) in samples["eval"]:
        if chunk not in by_chunk:
            for key, value in acc.items():
                rotation_acc[key] = rotation_acc.get(key, 0.0) + value
            for key, values in distinct.items():
                rotation_distinct.setdefault(key, set()).update(values)
        by_chunk.setdefault(chunk, []).append(layers.eval_metrics(acc, distinct))
    for key, value in layers.eval_metrics(rotation_acc, rotation_distinct).items():
        if is_time(key):
            value = sum(statistics.median(row[key] for row in rows) for rows in by_chunk.values())
        metrics[key] = value
    return metrics


def is_time(key: str) -> bool:
    return key.endswith("_ms") or "_ms." in key


def per_layer_units(metrics: dict[str, float]) -> dict[str, str]:
    def unit(key: str) -> str:
        if is_time(key):
            return "ms"
        if key == "lexicon.entries_per_token":
            return "entries/token"
        if key.endswith("_ratio"):
            return "ratio"
        return "count"
    return {key: unit(key) for key in metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="senseparse benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        import_program()
        generate(args.workload, args.seed, work)
        bench = Bench(args.workload, work)
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
            units = per_layer_units(metrics)
        else:
            metrics = measure(bench, args.seconds)
            units = END_TO_END
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except checks.CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass

    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
