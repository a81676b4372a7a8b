"""Command-line pipeline: ingest -> search/expand -> network -> cluster -> compare -> render.

All commands operate inside a session directory (``--session``, default
``./session``) and are re-runnable: identical inputs overwrite their outputs
byte-identically. Errors print a single machine-parseable line to stderr;
exit codes: 0 ok, 2 bad command line, 3 validation failure, 4 data error. A
command that fails writes nothing: each writes its files in one
``Session.write`` call after its last check. A command that succeeds prints
each warning it raised as one ``warning:`` line.

Every setting is a flag of the command that uses it: a network flag left out
takes the default of its ``NetworkConfig`` field. Render settings (layout
seed, palettes, node radii, labelled clusters) are constants of
:mod:`citecascade.render`.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from . import clustering, labeling
from .cocitation import NetworkConfig, build_network, network_stats
from .errors import CiteCascadeError, EmptyDatasetError, UsageError, ValidationError
from .expansion import ExpansionSpec, ExpansionStage, run_cascade, trace_report
from .overlay import coverage_report, overlap_matrix, project_overlay
from .records import Dataset, RecordStore, csv_text, dataset_union, json_text, year_distribution
from .render import render_distribution, render_map, wrap_html
from .session import Session, check_name
from .sources import QUERY_KINDS, SourceQuery, search

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_DATA = 4

_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-inf" or "-1e999" after an option for another option,
        # not its value; no option here looks like a number, so let every
        # negative float spelling through to the value's type check.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # single-line, machine-parseable
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    value = float(text)  # a ValueError becomes argparse's "invalid value" error
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number: {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="citecascade", description=__doc__)
    parser.add_argument("--session", default="session", help="session directory (default: ./session)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load records from a file into the session store")
    p.add_argument("path")
    p.add_argument("--format", choices=["jsonl", "dimensions-csv"], default="jsonl")
    p.add_argument("--dataset", help="also register the loaded ids as a named dataset")

    p = sub.add_parser("enrich", help="attach abstracts from an enrichment file")
    p.add_argument("path")

    p = sub.add_parser("search", help="phrase or id search over the record store")
    p.add_argument("--name", required=True, help="name for the result dataset")
    p.add_argument("--phrase", action="append", default=[], help="repeatable; OR-combined")
    p.add_argument("--kind", choices=QUERY_KINDS, default="phrase-in-title-abstract")

    p = sub.add_parser("union", help="union existing datasets into a new one")
    p.add_argument("--name", required=True)
    p.add_argument("--datasets", required=True, help="comma-separated dataset names")

    p = sub.add_parser("expand", help="run a staged citation-cascade expansion")
    p.add_argument("--name", required=True, help="name for the result dataset")
    p.add_argument("--seed", action="append", default=[], help="seed id (repeatable)")
    p.add_argument("--stages", help="e.g. F:3 or F:1,B:1 (applied left to right)")
    p.add_argument("--theta-citer", type=int, default=10)
    p.add_argument("--theta-ref", type=int, default=10)
    p.add_argument("--cap", type=int, default=None, help="max additions per generation")

    p = sub.add_parser("network", help="build a co-citation network from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--name", help="network name (default: dataset name)")
    p.add_argument("--lrf", type=_finite_float, default=None)
    p.add_argument("--lby", type=int, default=None)
    p.add_argument("--no-lby", action="store_true", help="disable the look-back bound")
    p.add_argument("--min-citations", type=int, default=None)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--slice-years", type=int, default=None)

    p = sub.add_parser("cluster", help="detect, score, and label communities")
    p.add_argument("--network", required=True)
    p.add_argument("--levels", type=int, choices=[1, 2], default=1)
    p.add_argument("--top-k", type=int, default=5,
                   help="largest clusters that get level-2 sub-clusters and concept trees")

    p = sub.add_parser("compare", help="overlap matrix and base-map overlays")
    p.add_argument("--datasets", required=True, help="comma-separated dataset names")
    p.add_argument("--base", help="base network name (needs an existing clustering)")
    p.add_argument("--threshold", type=float, default=0.10)
    p.add_argument("--epsilon", type=float, default=0.05)

    p = sub.add_parser("render", help="emit SVG/HTML artifacts")
    p.add_argument("--network", help="render this network's map")
    p.add_argument("--overlay", action="store_true", help="color by the compare projection")
    p.add_argument("--distributions", help="comma-separated dataset names for a year chart")
    p.add_argument("--log", action="store_true", help="plot ln(1+count)")

    p = sub.add_parser("report", help="emit dataset/overlap/network summary tables")
    p.add_argument("--kind", choices=["datasets", "overlap", "networks"], required=True)
    p.add_argument("--datasets", help="comma-separated dataset names (overlap kind)")

    return parser


def _split_names(text: str) -> list[str]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ValidationError("no dataset names given")
    return names


def _parse_stages(text: str) -> list[ExpansionStage]:
    stages = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        direction, colon, gens = chunk.partition(":")
        try:
            stages.append(ExpansionStage(direction, int(gens) if colon else 1))
        except ValueError:
            raise ValidationError(f"bad stage syntax: {chunk!r} (expected e.g. F:3)") from None
    if not stages:
        raise ValidationError("no stages given")
    return stages


def _dataset_year_range(dataset: Dataset, store: RecordStore) -> str:
    """The dataset's year range as the year chart reads it, ``first-last``; empty
    when it has no dated member."""
    span = year_distribution(dataset, store).range if dataset.member_ids else None
    return f"{span[0]}-{span[1]}" if span else ""


# -- command handlers -----------------------------------------------------------


def _cmd_ingest(args, session: Session) -> int:
    store = session.load_store()
    report = store.ingest(args.path, args.format)
    files = {session.path("load_report", Path(args.path).stem, check=False): report.to_csv()}
    if report.loaded:
        files[session.store_path] = store.json_lines()
    if args.dataset is not None:
        dataset = Dataset(args.dataset, set(report.loaded_ids),
                          {"kind": "ingest", "source": Path(args.path).name, "format": args.format})
        files[session.path("dataset", args.dataset)] = lambda: json_text(dataset.to_json_dict())
    report_file = session.write(files)[0]
    print(
        f"loaded {report.loaded} records ({report.merged} merged), "
        f"{len(report.rejected)} rejected; report: {report_file}"
    )
    return EXIT_OK


def _cmd_enrich(args, session: Session) -> int:
    store = session.load_store()
    report = store.enrich_abstracts(args.path)
    if report.enriched:
        session.write({session.store_path: store.json_lines()})
    print(
        f"enriched {report.enriched} records, {len(report.unmatched)} unmatched, "
        f"{len(report.skipped_rows)} rows skipped"
    )
    return EXIT_OK


def _cmd_search(args, session: Session) -> int:
    query = SourceQuery(kind=args.kind, phrases=args.phrase)
    dataset = search(session.load_store(), query, name=args.name)
    session.save_dataset(dataset)
    print(f"dataset {dataset.name}: {len(dataset)} articles")
    return EXIT_OK


def _cmd_union(args, session: Session) -> int:
    datasets = [session.load_dataset(n) for n in _split_names(args.datasets)]
    combined = dataset_union(datasets, args.name)
    session.save_dataset(combined)
    print(f"dataset {combined.name}: {len(combined)} articles")
    return EXIT_OK


def _cmd_expand(args, session: Session) -> int:
    if not args.seed or not args.stages:
        raise ValidationError("expand needs --seed and --stages")
    spec = ExpansionSpec(
        seed_ids=set(args.seed),
        stages=_parse_stages(args.stages),
        theta_citer=args.theta_citer,
        theta_ref=args.theta_ref,
        per_generation_cap=args.cap,
    )
    store = session.load_store()
    dataset, trace = run_cascade(store, spec, args.name)
    csv_path = session.write({
        session.path("trace_table", args.name): trace_report(trace),
        session.path("trace", args.name): lambda: json_text(trace.to_json_dict()),
        session.path("dataset", dataset.name): lambda: json_text(dataset.to_json_dict()),
    })[0]
    print(
        f"dataset {dataset.name}: {len(dataset)} articles after "
        f"{len(trace.generations)} generation(s); terminal: {trace.terminal_reason}; "
        f"trace: {csv_path}"
    )
    return EXIT_OK


def _network_config(args) -> NetworkConfig:
    """The network flags given, over the ``NetworkConfig`` defaults; ``--no-lby`` wins."""
    given = {f.name: getattr(args, f.name) for f in fields(NetworkConfig)}
    given = {name: value for name, value in given.items() if value is not None}
    if args.no_lby:
        given["lby"] = None
    return NetworkConfig(**given)


def _cmd_network(args, session: Session) -> int:
    name = check_name(args.name or args.dataset)
    dataset = session.load_dataset(args.dataset)
    store = session.load_store()
    config = _network_config(args)
    network = build_network(dataset, store, config)
    if not network.nodes:
        raise ValidationError(f"dataset {args.dataset!r} gives a network with no node; nothing written")
    stats = network_stats(network)
    session.save_network(name, network, stats)
    print(
        f"network {name}: {stats.nodes} nodes, {stats.edges} links, "
        f"LCC {stats.lcc_size} ({stats.lcc_pct}% rounded / {stats.lcc_pct_floor}% truncated)"
    )
    return EXIT_OK


def _cmd_cluster(args, session: Session) -> int:
    if args.top_k < 0:
        raise UsageError(f"--top-k must not be negative: {args.top_k}")
    network = session.load_network(args.network)
    store = session.load_store()
    partition = clustering.detect_communities(network)
    silhouettes = clustering.silhouette(network, partition)
    partition.cluster_silhouettes = silhouettes.cluster_scores
    partition.mean_silhouette = silhouettes.mean
    phrase_index = labeling.PhraseIndex(store)
    clusters = partition.clusters()
    citers = [labeling.cited_by(members, store) for members in clusters]
    labeling.label_all_clusters(partition, citers, set().union(*citers), phrase_index)

    payload_level1 = partition.to_json_dict()
    for cluster, cluster_citers in zip(payload_level1["clusters"], citers):
        cluster["top_citers"] = [
            {"id": c, "members_cited": n, "citations": g}
            for c, n, g in clustering.top_citing_articles(cluster_citers, store, 5)
        ]
    payload: dict = {"level1": payload_level1}

    top_indices = sorted(range(len(clusters)), key=lambda i: -len(clusters[i]))[: args.top_k]
    if args.levels >= 2:
        level2: dict[str, dict] = {}
        for index in top_indices:
            sub = clustering.sub_cluster(clusters[index], network, index)
            sub_citers = [labeling.cited_by(members, store) for members in sub.clusters()]
            labeling.label_all_clusters(sub, sub_citers, citers[index], phrase_index)
            level2[str(index)] = sub.to_json_dict()
        payload["level2"] = level2

    concept_json: dict[str, dict] = {}
    concept_text_parts: list[str] = []
    for index in top_indices:
        tree = labeling.build_concept_tree(citers[index], store, phrase_index)
        concept_json[str(index)] = tree.to_json_dict()
        label = partition.labels.get(index, "")
        concept_text_parts.append(f"== cluster #{index} {label}\n{tree.to_text()}")
    payload["concept_trees"] = concept_json

    table = clustering.partition_to_csv(partition, silhouettes)
    session.save_clusters(args.network, payload, table, "\n".join(concept_text_parts))
    print(
        f"network {args.network}: {partition.num_clusters()} clusters, "
        f"Q={partition.modularity_q:.4f}, mean silhouette={silhouettes.mean:.4f} "
        f"(unweighted over clusters)"
    )
    return EXIT_OK


def _overlap_csv(session: Session, names_text: str, store: RecordStore) -> tuple[list[Dataset], str]:
    """The named datasets and their overlap matrix CSV, with a Range row of years."""
    names = _split_names(names_text)
    if len(names) < 2:
        raise ValidationError("need at least 2 datasets")
    datasets = [session.load_dataset(n) for n in names]
    return datasets, overlap_matrix(datasets).to_csv([_dataset_year_range(ds, store) for ds in datasets])


def _cmd_compare(args, session: Session) -> int:
    datasets, overlap_text = _overlap_csv(session, args.datasets, session.load_store())
    files, keyed = {session.path("compare"): overlap_text}, {}
    if args.base:
        network = session.load_network(args.base)
        partition = session.load_partition(args.base, network)
        projection = project_overlay(network, datasets, partition)
        files[session.path("projection")] = session.projection_text(args.base, projection)
        coverage = coverage_report(projection, args.threshold, args.epsilon)
        keyed[session.path("coverage")] = coverage.to_csv(partition.labels)
    print("wrote " + ", ".join(map(str, session.write(files, keyed))))
    return EXIT_OK


def _cmd_render(args, session: Session) -> int:
    files = {}
    if args.network:
        network = session.load_network(args.network)
        partition = session.load_partition(args.network, network, required=False)
        projection = session.load_projection(args.network) if args.overlay else None
        kind = "overlay" if args.overlay else "map"
        positions = session.layout_positions(args.network, network)
        svg = render_map(network, positions, partition, projection)
        files[session.path(kind, args.network)] = svg
        files[session.path(f"{kind}_page", args.network)] = wrap_html(svg, title=f"{args.network} {kind}")
    if args.distributions:
        names = _split_names(args.distributions)
        store = session.load_store()
        distributions = [year_distribution(session.load_dataset(name), store) for name in names]
        files[session.path("years", *names)] = render_distribution(distributions, log=args.log)
    if not files:
        raise ValidationError("render needs --network and/or --distributions")
    print("wrote " + ", ".join(map(str, session.write(files))))
    return EXIT_OK


def _cmd_report(args, session: Session) -> int:
    if args.kind == "datasets":
        store = session.load_store()
        rows = [("name", "kind", "records", "with_abstracts", "range")]
        for name in session.names("dataset"):
            dataset = session.load_dataset(name)
            with_abstracts = sum(1 for record in map(store.get, dataset.member_ids) if record and record.abstract)
            rows.append((name, dataset.provenance.get("kind", ""), len(dataset), with_abstracts,
                         _dataset_year_range(dataset, store)))
        text = csv_text(rows)
    elif args.kind == "overlap":
        if not args.datasets:
            raise ValidationError("report --kind overlap needs --datasets")
        _datasets, text = _overlap_csv(session, args.datasets, session.load_store())
    else:  # networks
        rows = [("name", "nodes", "links", "lcc", "lcc_pct_rounded", "lcc_pct_truncated", "modularity",
                 "mean_silhouette")]
        for name in session.names("network"):
            # The network is parsed only when its counts file is not current, or to
            # check a clustering against its nodes.
            stats, partition = session.network_counts(name), None
            if stats is None or session.path("clusters", name).exists():
                network = session.load_network(name)
                stats = stats or network_stats(network)
                partition = session.load_partition(name, network, required=False)
            scores = (partition.modularity_q, partition.mean_silhouette) if partition else (None, None)
            rows.append((
                name, stats.nodes, stats.edges, stats.lcc_size, stats.lcc_pct, stats.lcc_pct_floor,
                *("" if score is None else f"{score:.4f}" for score in scores),
            ))
        text = csv_text(rows, comments=[
            "lcc_pct_rounded uses round-half-up; lcc_pct_truncated floors the same ratio"
            " (both emitted on purpose); silhouette is the unweighted mean over clusters",
        ])
    session.write({session.path(f"{args.kind}_report"): text})
    print(text, end="")
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "enrich": _cmd_enrich,
    "search": _cmd_search,
    "union": _cmd_union,
    "expand": _cmd_expand,
    "network": _cmd_network,
    "cluster": _cmd_cluster,
    "compare": _cmd_compare,
    "render": _cmd_render,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        session = Session(args.session)
        with session.lock(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _HANDLERS[args.command](args, session)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, EmptyDatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CiteCascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
