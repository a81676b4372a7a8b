"""Session directory layout for the command-line pipeline.

A session holds everything one analysis produces::

    <session>/
      store.jsonl    # record store, one JSON line per record
      store.summary.json
                     # each stored id's year and abstract flag, keyed to store.jsonl;
                     # written by ingest and enrich, read by compare, render
                     # --distributions and report --kind datasets|overlap
      datasets/      # <name>.json: member ids and provenance; the file name is the name
      networks/      # <name>.json and .graphml, and <name>.stats: the network's node,
                     # link and LCC counts; after `cluster`, <name>.clusters.json (each
                     # level's partitions and labels, the concept trees) and .clusters.csv
      renders/       # <name>.map.svg and <name>.overlay.svg; <name>.positions.json caches
                     # the layout; <a>,<b>,<c>.years.svg charts datasets a, b and c
      reports/       # <ingested file stem>.load-report.csv, compare.csv, projection.json,
                     # coverage.csv, datasets.csv, overlap.csv, networks.csv
      traces/        # <name>.trace.json: each generation of the expansion and each stage's reason

``ARTIFACTS`` is this layout as a table, and ``Session.path`` forms every path
but ``store.jsonl``, ``store.summary.json`` and ``.lock`` from it. A name may not
end in an ending that would turn one kind's file into another kind's in the same
directory, such as ``.clusters``: ``reserved_endings`` derives them from the table.

One command runs at a time per session, enforced with an advisory lock on
``.lock`` that the OS releases when its holder exits or dies. Each command
writes its group of files in one ``Session.write`` call after its last check,
so a failing one writes nothing: every temp file, then one rename per file, a
file keyed to a file of its group just before that file (``ingest`` keys the
store summary to ``store.jsonl`` and renames the dataset of ``--dataset`` last).
Each file is a text, a stream of text chunks or a JSON object, written as UTF-8
into its temp file as it comes, so the large ones (the network, the clustering,
the maps) are never held whole. ``write`` forms every key, hashing an input of
the same group from the bytes written. A killed command leaves each file old or
new, never half written (the whole ``store.jsonl`` too), and the next command
removes its temp files.

Each derived artifact holds the key of its inputs in a top-level ``"inputs"``
field or a first ``# inputs <key>`` line: see ``Session._input_key``. One that
is stale, unkeyed or names a missing input counts as missing. Those a command
reads back are JSON, read by ``Session._read_json``: damage, or a value the
loader rejects (each loader checks the kind of every value with ``records._typed``),
is a ``FormatError`` naming the file, checked before the key.
Three files are only shortcuts, and one rule reads them all (``Session._cached``):
the layout cache, the network counts and the store summary each read back as
their content when current and None when missing, stale or damaged. The command
then does the work itself: it lays the network out, counts it, or replays the
store. A ``Session`` only stores and reads; it computes nothing.

A session holds no settings: each command takes its settings from its flags,
and rendering from the constants of :mod:`citecascade.render`. A file that an
older version kept in the session and this one does not write (a settings
file, a map's HTML page, a network's concept text file, an expansion's trace
table) is neither read nor rewritten. Every JSON file is written on one line, as
``records.json_chunks`` lays it out; one that an older version wrote indented still
loads, and a keyed one stays current, as keys are compared by the ``inputs`` value.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

from . import lazy
from .errors import CiteCascadeError, FormatError, UsageError, ValidationError
from .records import Dataset, RecordStore, StoreSummary, json_chunks

clustering = lazy("citecascade.clustering")
cocitation = lazy("citecascade.cocitation")
overlay = lazy("citecascade.overlay")

# Each artifact kind's directory, and the suffix after its names joined by ","; a suffix
# that does not start with "." is a whole file name, of a kind that takes no name.
ARTIFACTS = {kind: (directory, suffix) for directory, kinds in {
    "datasets": {"dataset": ".json"},
    "networks": {"network": ".json", "graphml": ".graphml", "counts": ".stats", "clusters": ".clusters.json",
                 "cluster_table": ".clusters.csv"},
    "renders": {"map": ".map.svg", "overlay": ".overlay.svg", "years": ".years.svg", "positions": ".positions.json"},
    "reports": {"load_report": ".load-report.csv", "compare": "compare.csv", "projection": "projection.json",
                "coverage": "coverage.csv", "datasets_report": "datasets.csv", "overlap_report": "overlap.csv",
                "networks_report": "networks.csv"},
    "traces": {"trace": ".trace.json"},
}.items() for kind, suffix in kinds.items()}
DIRECTORIES = sorted({directory for directory, _suffix in ARTIFACTS.values()})


def reserved_endings(table: dict[str, tuple[str, str]]) -> tuple[str, ...]:
    """Each ``x`` that one kind's suffix holds before another kind's suffix in the same
    directory: name ``a`` + ``x`` of the second kind would name the first kind's file of ``a``."""
    return tuple(sorted({long[: -len(short)] for directory, long in table.values() for other, short in table.values()
                         if other == directory and long != short and long.endswith(short)}))


RESERVED_ENDINGS = reserved_endings(ARTIFACTS)


def check_name(name: str) -> str:
    """A dataset or network name, which must stay one file name of one kind in its
    directory and one item of a comma-separated ``--datasets`` list."""
    forbidden = {"/", os.sep, os.altsep, ","} - {None}
    if (name in ("", ".", "..") or name != name.strip() or name.endswith(RESERVED_ENDINGS)
            or any(ch in forbidden or ch < " " for ch in name)):
        raise UsageError(f"invalid name {name!r}: names must be non-empty, not '.' or '..', contain no "
                         "path separator, comma or control character, neither start nor end with a space, "
                         f"and not end in {' or '.join(RESERVED_ENDINGS)}")
    return name


def _write_temp(temp: Path, value: str | Iterable[str] | dict, head: str = "") -> None:
    """Write ``head``, then ``value`` (a text, text chunks, or a JSON object as ``json_chunks``
    lays it out) to ``temp`` as UTF-8, line ends as given."""
    with open(temp, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        fh.writelines(json_chunks(value) if isinstance(value, dict) else [value] if isinstance(value, str) else value)


def _sha256(path: Path) -> str:
    """The sha256 of the bytes in ``path``, read a block at a time; ``missing`` when it is gone."""
    if not path.exists():
        return "missing"
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


class Session:
    """Filesystem wrapper for one analysis directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.store_path = self.root / "store.jsonl"
        self.summary_path = self.root / "store.summary.json"
        self.root.mkdir(parents=True, exist_ok=True)
        for directory in DIRECTORIES:
            (self.root / directory).mkdir(exist_ok=True)

    def path(self, kind: str, *names: str, check: bool = True) -> Path:
        """The file of artifact ``kind`` for ``names``, each a checked session name unless
        ``check`` is false (a load report's is the ingested file's stem)."""
        directory, suffix = ARTIFACTS[kind]
        return self.root / directory / (",".join(map(check_name, names) if check else names) + suffix)

    def names(self, kind: str) -> list[str]:
        """The names of the session's ``kind`` files; a name ``check_name`` rejects is another kind's."""
        directory, suffix = ARTIFACTS[kind]
        found = []
        for path in (self.root / directory).glob("*" + suffix):
            with suppress(UsageError):
                found.append(check_name(path.name[: -len(suffix)]))
        return sorted(found)

    # -- reading and writing ----------------------------------------------------------

    def _read_json(self, path: Path, build, inputs=None):
        """``build`` applied to the JSON in ``path``; damage, or a value ``build`` rejects, is
        a FormatError naming the file. Given ``inputs``, None when the file is missing or,
        once built, holds a key other than the one ``inputs(data)`` gives now."""
        if inputs is not None and not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            artifact = build(data)
            current = inputs is None or data.get("inputs") == self._input_key(inputs(data))
            return artifact if current else None
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError, CiteCascadeError) as exc:
            raise FormatError(f"unreadable session file {path}: {exc!r}") from None

    def _cached(self, path: Path, build, inputs: list[Path | str]):
        """``build`` applied to the JSON in ``path`` if its key matches ``inputs``; None when
        the file is missing, stale or damaged, for a file that is only a shortcut."""
        with suppress(FormatError):
            return self._read_json(path, build, lambda _data: inputs)
        return None

    def write(self, files: dict[Path, str | Iterable[str] | dict],
              inputs: dict[Path, list[Path | str]] | None = None) -> list[Path]:
        """Write one command's group through temp files, then rename each; return the paths of
        ``files`` in their order. A value is a text, an iterable of text chunks written as they
        come, or a JSON object. A file in ``inputs`` holds the ``_input_key`` of its inputs as an
        ``"inputs"`` field or a first ``# inputs <key>`` line. An input of the group is hashed
        from its temp file, so one with inputs of the group itself comes before the files keyed
        to it. Files are renamed in the order of ``files``, the one a later command reads back
        last, but a file with inputs of the group just before the first of them renamed."""
        inputs = inputs or {}
        temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
        keyed = [path for path in files if any(i in files for i in inputs.get(path, ()))]
        order = [path for path in files if path not in keyed]
        try:
            for path in [*order, *keyed]:
                value, head = files[path], ""
                if path in inputs:
                    key = self._input_key(inputs[path], temps)
                    if isinstance(value, dict):
                        value = {**value, "inputs": key}
                    else:
                        head = f"# inputs {key}\n"
                _write_temp(temps[path], value, head)
            for path in keyed:
                order.insert(min(order.index(i) for i in inputs[path] if i in files), path)
            for path in order:
                os.replace(temps[path], path)
        finally:  # a temp file is left only when a write or a rename raised
            for temp in temps.values():
                temp.unlink(missing_ok=True)
        return list(files)

    # -- locking ----------------------------------------------------------------

    @contextmanager
    def lock(self):
        # The lock file is never unlinked: a command that opened it just before
        # an unlink would lock the removed file while the next command locks a
        # new one, and both would run.
        fd = os.open(self.root / ".lock", os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ValidationError(f"session {self.root} is locked by another command") from None
            # The lock holder is the only writer, so each temp file is a killed command's.
            for directory in ["", *DIRECTORIES]:
                for temp in (self.root / directory).glob(".*.tmp"):
                    temp.unlink(missing_ok=True)
            yield self
        finally:
            os.close(fd)

    # -- store --------------------------------------------------------------------

    def load_store(self) -> RecordStore:
        return RecordStore.load(self.store_path)

    def store_summary(self) -> StoreSummary | None:
        """The years and abstract flags of the stored records, read back from ``store.summary.json``
        when its key matches ``store.jsonl`` as it is now; None when that file is missing, stale or
        damaged, and the caller summarizes the replayed store."""
        return self._cached(self.summary_path, StoreSummary.from_json_dict, [self.store_path])

    # -- datasets -------------------------------------------------------------------

    def save_dataset(self, dataset: Dataset) -> Path:
        return self.write({self.path("dataset", dataset.name): dataset.to_json_dict()})[0]

    def load_dataset(self, name: str) -> Dataset:
        path = self.path("dataset", name)
        if not path.exists():
            raise CiteCascadeError(f"no dataset named {name!r} in session")
        return self._read_json(path, lambda data: Dataset.from_json_dict(data, name))

    # -- networks & partitions ---------------------------------------------------------

    def network_paths(self, name: str) -> tuple[Path, Path]:
        return self.path("graphml", name), self.path("network", name)

    def save_network(self, name: str, network: cocitation.CoCitationNetwork, stats: cocitation.NetworkStats) -> None:
        """Write network ``name``: its GraphML, its counts ``stats`` keyed to its JSON, then that."""
        json_path, counts = self.path("network", name), self.path("counts", name)
        self.write({self.path("graphml", name): network.to_graphml(), json_path: network.to_json(),
                    counts: asdict(stats)}, {counts: [json_path]})

    def network_counts(self, name: str) -> cocitation.NetworkStats | None:
        """The counts of network ``name``, read back from ``networks/<name>.stats`` when current;
        None when that file is missing, stale or damaged, and the caller counts the network."""
        return self._cached(self.path("counts", name), cocitation.NetworkStats.from_json_dict,
                            [self.path("network", name)])

    def load_network(self, name: str) -> cocitation.CoCitationNetwork:
        json_path = self.path("network", name)
        if not json_path.exists():
            raise CiteCascadeError(f"no network named {name!r} in session")
        return self._read_json(json_path, cocitation.CoCitationNetwork.from_json_dict)

    def save_clusters(self, name: str, payload: dict, table: str) -> None:
        """Write the clustering of network ``name``: its table keyed to its JSON, then that, keyed to the network."""
        json_path, table_path = self.path("clusters", name), self.path("cluster_table", name)
        self.write({json_path: payload, table_path: table},
                   {json_path: [self.path("network", name)], table_path: [json_path]})

    def load_partition(
        self, name: str, network: cocitation.CoCitationNetwork, required: bool = True
    ) -> clustering.ClusterPartition | None:
        """The partition of network ``name`` if current; else None, or an error if ``required``.
        A current one that does not cover exactly the nodes of ``network`` is a ValidationError."""
        partition = self._read_json(
            self.path("clusters", name), lambda data: clustering.ClusterPartition.from_json_dict(data["level1"]),
            inputs=lambda _data: [self.path("network", name)],
        )
        if partition is not None:
            clustering.check_partition(network, partition)
        elif required:
            raise CiteCascadeError(f"no current clustering of network {name!r}; run cluster --network {name}")
        return partition

    def projection_inputs(self, base: str, names: list[str]) -> list[Path]:
        """The inputs of the projection of datasets ``names`` onto network ``base``."""
        return [self.path("network", base), self.path("clusters", base), *(self.path("dataset", n) for n in names)]

    def load_projection(self, base: str) -> overlay.OverlayProjection:
        """The projection onto network ``base`` if it is current; else an error."""
        projection = self._read_json(
            self.path("projection"), overlay.OverlayProjection.from_json_dict,
            inputs=lambda data: self.projection_inputs(base, data["datasets"]),
        )
        if projection is None:
            raise CiteCascadeError(f"no current projection onto network {base!r}; run compare --base {base}")
        return projection

    def _input_key(self, inputs: Iterable[Path | str], temps: dict[Path, Path] | None = None) -> str:
        """The key of an artifact computed from ``inputs``: each session path and the sha256 of
        its bytes, or of its temp file in ``temps``, and each parameter text as it is. The
        clustering's input is the network's JSON; the positions' that and ``render.LAYOUT_KEY``;
        the projection's the base network, its clustering and each compared dataset; the store
        summary's ``store.jsonl``; a table's or the counts' the JSON written with it. A stored
        key is current when it equals the key its inputs give now."""
        temps = temps or {}
        return " ".join(item if isinstance(item, str) else
                        f"{item.relative_to(self.root).as_posix()}={_sha256(temps.get(item, item))}" for item in inputs)

    # -- layout positions ---------------------------------------------------------------

    def layout_positions(
        self, name: str, network: cocitation.CoCitationNetwork, inputs: list[Path | str]
    ) -> dict[str, tuple[float, float]] | None:
        """The positions of network ``name``, read back from ``renders/<name>.positions.json`` when its
        key matches ``inputs``; None when that file is missing, stale or damaged, and the caller lays
        the network out."""
        nodes = sorted(network.nodes)

        def build(data: dict) -> dict[str, tuple[float, float]]:
            xs, ys = data["x"], data["y"]
            if not (isinstance(xs, list) and isinstance(ys, list) and len(xs) == len(ys) == len(nodes)
                    and all(type(v) is float and math.isfinite(v) for v in (*xs, *ys))):
                raise ValueError("x and y are not one finite float per node")
            return dict(zip(nodes, zip(xs, ys)))

        return self._cached(self.path("positions", name), build, inputs)


def positions_json(positions: dict[str, tuple[float, float]]) -> dict[str, list[float]]:
    """``positions`` as ``layout_positions`` reads them back: the ``x`` and ``y`` lists in sorted
    node-id order. The file's key pins the network, so it pins the ids too."""
    nodes = sorted(positions)
    return {"x": [positions[node][0] for node in nodes], "y": [positions[node][1] for node in nodes]}
