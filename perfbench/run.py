#!/usr/bin/env python3
"""End-to-end benchmark of the citecascade command-line pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

One user runs one workload's commands one after another, each as its own
``python -m citecascade.cli`` child process (a closed loop with one client).
The benchmark repeats the workload until ``--seconds`` have passed (at least
once), checks every session against the recorded reference, and prints the
metrics of BENCHMARK.json as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See perfbench/README.md for the workloads and metrics.

``--record`` rewrites the workload's entry in perfbench/reference.json from
the current code; use it only when outputs are meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import gate
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

# Set-up is timed this many times per iteration; the median over the run is reported.
SETUP_REPEATS = 5

COMMANDS = ("ingest", "enrich", "search", "union", "expand", "network", "cluster", "compare", "render", "report")
STORE_READS = ("search", "expand", "union", "compare", "report")


@dataclass
class Workload:
    articles: int
    steps: list[list[str]]  # the first step is the set-up ingest into an empty session


def atlas(n: int = 2000) -> Workload:
    """The paper's full map pipeline: clustering, labeling and render dominate."""
    return Workload(n, [
        ["ingest", "{corpus}"],
        ["search", "--name", "F", "--phrase", "reinforcement learning"],
        ["expand", "--name", "S3", "--seed", corpus.article_id(40, n), "--stages", "F:3",
         "--theta-citer", "1", "--theta-ref", "1"],
        ["union", "--name", "combined", "--datasets", "F,S3"],
        ["network", "--dataset", "combined", "--min-citations", "0", "--top-n", "100"],
        ["cluster", "--network", "combined", "--levels", "2", "--top-k", "3"],
        ["compare", "--datasets", "F,S3", "--base", "combined"],
        ["render", "--network", "combined", "--overlay"],
        ["render", "--network", "combined"],
        ["render", "--distributions", "F,S3,combined"],
        ["report", "--kind", "datasets"],
        ["report", "--kind", "overlap", "--datasets", "F,S3,combined"],
        ["report", "--kind", "networks"],
    ])


def sweep(n: int = 8000) -> Workload:
    """The LRF/LBY/top-N sensitivity study: cocitation and network I/O dominate."""
    network = ["network", "--dataset", "combined", "--name"]
    return Workload(n, [
        ["ingest", "{corpus}"],
        ["search", "--name", "F", "--phrase", "reinforcement learning"],
        ["expand", "--name", "S3", "--seed", corpus.article_id(40, n), "--stages", "F:3",
         "--theta-citer", "1", "--theta-ref", "1"],
        ["union", "--name", "combined", "--datasets", "F,S3"],
        network + ["base"],
        network + ["lrf2", "--lrf", "2"],
        network + ["lrf8", "--lrf", "8"],
        network + ["nolby", "--no-lby"],
        network + ["top400", "--top-n", "400", "--no-lby"],
        network + ["slice3", "--top-n", "200", "--slice-years", "3"],
        ["report", "--kind", "networks"],
    ])


def grow(n: int = 32000) -> Workload:
    """Corpus building: store writes beside reads that each replay the log."""
    six = "shard1,shard2,RL,C1,C2,ALL"
    return Workload(n, [
        ["ingest", "{shard1}", "--dataset", "shard1"],
        ["ingest", "{shard2}", "--dataset", "shard2"],
        ["enrich", "{enrich}"],
        ["search", "--name", "RL", "--phrase", "reinforcement learning"],
        ["search", "--name", "EPI", "--phrase", "network epidemics", "--phrase", "contact tracing"],
        ["search", "--name", "FOLD", "--kind", "phrase-in-fulltext-proxy", "--phrase", "protein folding"],
        ["expand", "--name", "C1", "--seed", corpus.article_id(40, n), "--stages", "F:3,B:1",
         "--theta-citer", "1", "--theta-ref", "1"],
        ["expand", "--name", "C2", "--seed", corpus.article_id(n - 41, n), "--stages", "B:1,F:2",
         "--theta-citer", "1", "--theta-ref", "1", "--cap", "500"],
        ["union", "--name", "ALL", "--datasets", "RL,EPI,FOLD,C1,C2"],
        ["compare", "--datasets", six],
        ["render", "--distributions", "shard1,shard2,ALL"],
        ["report", "--kind", "datasets"],
        ["report", "--kind", "overlap", "--datasets", six],
    ])


WORKLOADS = {"atlas": atlas, "sweep": sweep, "grow": grow}


# -- running commands ------------------------------------------------------------


@dataclass
class Step:
    command: str
    seconds: float
    rss_mb: float
    exit_code: int


@dataclass
class Iteration:
    setups: list[Step] = field(default_factory=list)  # the pipeline continues the last one's session
    steps: list[Step] = field(default_factory=list)  # the commands after set-up
    session_bytes: int = 0
    found: dict = field(default_factory=dict)  # gate.collect() of the session
    problems: list[str] = field(default_factory=list)

    def children(self) -> list[Step]:
        return self.setups + self.steps

    def seconds(self, commands) -> float:
        return sum(s.seconds for s in self.steps if s.command in commands)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(session: Path, argv: list[str], log: Path) -> Step:
    """Run one CLI command; wall time includes interpreter start."""
    command = [sys.executable, "-m", "citecascade.cli", "--session", str(session), *argv]
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err, env=_child_env())
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Step(argv[0], seconds, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def _expand(steps: list[list[str]], inputs: dict[str, Path]) -> list[list[str]]:
    names = {name: str(path) for name, path in inputs.items()}
    return [[arg.format(**names) for arg in step] for step in steps]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_iteration(workload: Workload, inputs: dict[str, Path], workdir: Path, reference) -> Iteration:
    steps = _expand(workload.steps, inputs)
    log = workdir / "stderr.log"
    session = workdir / "session"
    it = Iteration()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(session, ignore_errors=True)
        it.setups.append(run_child(session, steps[0], log))
    for argv in steps[1:]:
        it.steps.append(run_child(session, argv, log))
    it.problems += _failed(it.children(), log)
    it.session_bytes = _dir_bytes(session)
    it.found = gate.collect(session)
    if reference is not None:
        it.problems += gate.compare(it.found, reference)
    shutil.rmtree(session)
    return it


def _failed(steps: list[Step], log: Path) -> list[str]:
    bad = [f"{s.command} exited {s.exit_code}" for s in steps if s.exit_code != 0]
    if bad and log.exists():
        bad.append("stderr: " + log.read_text(encoding="utf-8", errors="replace")[-2000:])
    return bad


# -- traced run -------------------------------------------------------------------


def traced_run(workload: Workload, inputs: dict[str, Path], session: Path) -> tuple[Tracer, int]:
    """Drive cli.main in this process with every layer wrapped.

    Returns the tracer and the number of commands that did not exit 0.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import citecascade.cli as cli

    tracer = Tracer()
    tracer.install()
    failures = 0
    try:
        for argv in _expand(workload.steps, inputs):
            index = tracer.open(f"cli.{argv[0]}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--session", str(session), *argv])
            tracer.close(index)
            failures += code != 0
    finally:
        tracer.uninstall()
    return tracer, failures


def _store_counts(session: Path) -> tuple[int, int]:
    """Lines in the store log and live records after replay."""
    from citecascade.records import RecordStore

    store_path = session / "store.jsonl"
    with open(store_path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    return lines, len(RecordStore.load(store_path))


def _cluster_counts(session: Path) -> tuple[int, int]:
    clusters = singletons = 0
    for path in (session / "networks").glob("*.clusters.json"):
        for cluster in json.loads(path.read_text(encoding="utf-8"))["level1"]["clusters"]:
            clusters += 1
            singletons += cluster["size"] == 1
    return clusters, singletons


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(untraced: Iteration, tracer: Tracer, session: Path) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    kept = untraced.setups[-1:] + untraced.steps
    for command in COMMANDS:
        chosen = [s for s in kept if s.command == command]
        m[f"cli.{command}.s"] = (sum(s.seconds for s in chosen), "s")
        m[f"cli.{command}.rss_mb"] = (max((s.rss_mb for s in chosen), default=0.0), "MB")
    m["cluster_s"] = (untraced.seconds(("cluster",)), "s")
    m["render_s"] = (untraced.seconds(("render",)), "s")
    m["network_s"] = (untraced.seconds(("network",)), "s")
    m["store_write_s"] = (untraced.seconds(("ingest", "enrich")), "s")
    children = untraced.children()
    m["fail_share"] = (sum(s.exit_code != 0 for s in children) / len(children), "ratio")

    own = tracer.self_by_name()
    calls = tracer.calls
    totals = tracer.totals

    def self_s(name: str) -> None:
        m[f"{name}.self_s"] = (own.get(name, 0.0), "s")

    def count(name: str, value: float) -> None:
        m[name] = (int(value), "count")

    for name in ("labeling.label_cluster", "labeling.phrase_document_frequencies", "labeling.build_concept_tree"):
        self_s(name)
    count("labeling.label_cluster.calls", calls["labeling.label_cluster"])
    count("labeling.extract_phrases.calls", calls["labeling.extract_phrases"])
    m["labeling.phrase_reuse_ratio"] = (_ratio(len(tracer.texts), calls["labeling.extract_phrases"]), "ratio")

    for name in ("silhouette", "detect_communities", "sub_cluster", "top_citing_articles"):
        self_s(f"clustering.{name}")
    clusters, singletons = _cluster_counts(session)
    count("clustering.clusters", clusters)
    m["clustering.singleton_share"] = (_ratio(singletons, clusters), "ratio")

    self_s("render.layout")
    count("render.layout.calls", calls["render.layout"])
    m["render.layout.peak_mb"] = (totals["render.layout.peak_mb"], "MB")
    self_s("render.render_map")
    self_s("render.render_distribution")

    for name in ("build_network", "prune_links", "network_stats"):
        self_s(f"cocitation.{name}")
    count("cocitation.cocite_pairs.calls", calls["cocitation.cocite_pairs"])
    count("cocitation.pairs_counted", totals["cocitation.pairs_counted"])
    m["cocitation.links_kept_ratio"] = (
        _ratio(totals["cocitation.links_kept"], totals["cocitation.links_in"]), "ratio"
    )

    for name in ("save_network", "load_network", "save_clusters", "load_partition", "save_dataset", "load_dataset"):
        self_s(f"session.{name}")
    m["session.network_bytes"] = (int(totals["session.network_bytes"]), "bytes")

    self_s("records.load")
    count("records.load.calls", calls["records.load"])
    for name in ("ingest", "enrich_abstracts", "append_records"):
        self_s(f"records.{name}")
    log_lines, live = _store_counts(session)
    count("records.log_lines", log_lines)
    m["records.live_ratio"] = (_ratio(live, log_lines), "ratio")

    self_s("sources.from_store")
    count("sources.from_store.calls", calls["sources.from_store"])
    self_s("sources.search")

    self_s("expansion.run_cascade")
    count("expansion.candidates_found", totals["expansion.candidates_found"])
    m["expansion.admit_ratio"] = (
        _ratio(totals["expansion.admitted"], totals["expansion.candidates_found"]), "ratio"
    )

    for name in ("overlap_matrix", "project_overlay", "coverage_report"):
        self_s(f"overlay.{name}")

    commands = [span for span in tracer.spans if span[3] < 0]
    traced_pipeline = sum(end - start for _name, start, end, _parent in commands[1:])
    m["trace.overhead_s"] = (traced_pipeline - untraced.seconds(COMMANDS), "s")
    covered = tracer.descendants_self("cli.cluster", {"labeling", "clustering", "session"})
    cluster_span = sum(end - start for name, start, end, _parent in commands if name == "cli.cluster")
    m["trace.cluster_coverage"] = (_ratio(covered, cluster_span), "ratio")
    return m


# -- main ---------------------------------------------------------------------------


def fastest_seconds(iterations: list[Iteration], commands) -> float:
    """Sum over the post-set-up steps of each step's fastest time in the run.

    On a shared machine whole phases of a run slow down; the fastest of a
    step's samples, taken an iteration apart, is the steadiest estimate.
    """
    per_step = zip(*(it.steps for it in iterations))
    return sum(min(s.seconds for s in samples) for samples in per_step if samples[0].command in commands)


def end_to_end_metrics(iterations: list[Iteration]) -> dict[str, tuple[float, str]]:
    median = statistics.median
    return {
        "setup_s": (median(s.seconds for it in iterations for s in it.setups), "s"),
        "pipeline_s": (fastest_seconds(iterations, COMMANDS), "s"),
        "store_read_s": (fastest_seconds(iterations, STORE_READS), "s"),
        "peak_rss_mb": (median(max(s.rss_mb for s in it.children()) for it in iterations), "MB"),
        "artifact_mb": (median(it.session_bytes / 1e6 for it in iterations), "MB"),
    }


def _environment(workload: str, spec: Workload) -> dict:
    import numpy

    return {
        "workload": workload,
        "articles": spec.articles,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="citecascade CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="shuffles the input row order")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--record", action="store_true", help="rewrite this workload's reference")
    args = parser.parse_args(argv)

    if not (SRC / "citecascade" / "cli.py").is_file():
        print(f"error: no citecascade sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    key = f"{args.workload}/{workload.articles}/{args.corpus_seed}"
    reference = None if args.record else references.get(key)
    if reference is None and not args.record:
        print(f"error: no reference for {key} in {REFERENCE}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = corpus.write_inputs(workdir / "inputs", workload.articles, args.corpus_seed, args.seed)
        if args.record:
            iteration = run_iteration(workload, inputs, workdir, None)
            if iteration.problems:
                print("error: " + "; ".join(iteration.problems), file=sys.stderr)
                return 1
            references[key] = iteration.found
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"recorded {key}")
            return 0

        iterations: list[Iteration] = []
        deadline = time.perf_counter() + args.seconds
        while not iterations or (args.trace == 0 and time.perf_counter() < deadline):
            iterations.append(run_iteration(workload, inputs, workdir, reference))
        problems = [p for it in iterations for p in it.problems]
        attempted = sum(len(it.children()) for it in iterations)
        failed = sum(s.exit_code != 0 for it in iterations for s in it.children())

        if args.trace:
            traced_session = workdir / "traced"
            tracer, traced_failures = traced_run(workload, inputs, traced_session)
            attempted += len(workload.steps)
            failed += traced_failures
            problems += [f"traced run: {p}" for p in gate.compare(gate.collect(traced_session), reference)]
            metrics = per_layer_metrics(iterations[0], tracer, traced_session)
        else:
            metrics = end_to_end_metrics(iterations)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    env = _environment(args.workload, workload)
    env["iterations"] = len(iterations)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
