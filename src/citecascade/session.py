"""Session directory layout for the command-line pipeline.

A session holds everything one analysis produces::

    <session>/
      store.jsonl    # record store, one JSON line per record
      datasets/      # <name>.json: member ids and provenance
      networks/      # <name>.json and .graphml, and <name>.stats: the network's node,
                     # link and LCC counts; after `cluster`, <name>.clusters.json,
                     # .clusters.csv and .concepts.txt
      renders/       # maps and charts; <name>.positions.json caches the layout
      reports/ traces/

One command runs at a time per session, enforced with an advisory lock on
``.lock`` that the OS releases when its holder exits or dies. Every artifact
is written to a temp file and renamed into place, so a killed command leaves
each file either old or new, never half written. That holds for
``store.jsonl`` too: ``ingest`` and ``enrich`` write it whole.

Each derived artifact (network counts, clustering, layout positions,
projection, coverage) holds the key of its inputs in a top-level ``"inputs"``
field or a first ``# inputs <key>`` line: see ``Session._input_key``. One that
is stale, unkeyed or names a missing input counts as missing. Those a command
reads back are JSON, read by ``Session._read_json``: damage, or a value the
loader rejects, is a ``FormatError`` naming the file, checked before the key;
only a damaged layout cache is laid out again instead, and damaged network
counts are counted again from the network.

A session holds no settings: each command takes its settings from its flags,
and rendering from the constants of :mod:`citecascade.render`. A settings
file that an older version kept in the session is neither read nor rewritten.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

from .clustering import ClusterPartition
from .cocitation import CoCitationNetwork, NetworkStats
from .errors import CiteCascadeError, FormatError, UsageError, ValidationError
from .overlay import OverlayProjection, check_partition
from .records import Dataset, RecordStore, json_text
from .render import LAYOUT_ITERATIONS, LAYOUT_SEED, LAYOUT_VERSION, layout

SUBDIRS = ("datasets", "networks", "reports", "renders", "traces")


def check_name(name: str) -> str:
    """A dataset or network name, which must stay one file name in its directory and
    one item of a comma-separated ``--datasets`` list."""
    forbidden = {"/", os.sep, os.altsep, ","} - {None}
    if name in ("", ".", "..") or any(ch in forbidden or ch < " " for ch in name):
        raise UsageError(f"invalid name {name!r}: names must be non-empty, not '.' or '..', "
                         "and contain no path separator, comma or control character")
    return name


class Session:
    """Filesystem wrapper for one analysis directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for sub in SUBDIRS:
            (self.root / sub).mkdir(exist_ok=True)

    # -- reading and writing ----------------------------------------------------------

    def _read_json(self, path: Path, build, inputs=None, **params):
        """``build`` applied to the JSON in ``path``; damage, or a value ``build`` rejects, is
        a FormatError naming the file. Given ``inputs``, None when the file is missing or,
        once built, holds a key other than the one ``inputs(data)`` and ``params`` give now."""
        if inputs is not None and not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            artifact = build(data)
            current = inputs is None or data.get("inputs") == self._input_key(inputs(data), **params)
            return artifact if current else None
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError, CiteCascadeError) as exc:
            raise FormatError(f"unreadable session file {path}: {exc!r}") from None

    def write_text(self, path: Path, text: str | Iterable[str]) -> Path:
        """Write a session file, given whole or as a stream of chunks, through a
        temp file and a rename over ``path``. The temp name ends in ``.tmp``,
        so no ``*.json``/``*.csv``/``*.svg`` scan sees it."""
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temp, "w", encoding="utf-8") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        return path

    # -- locking ----------------------------------------------------------------

    @property
    def lock_path(self) -> Path:
        return self.root / ".lock"

    @contextmanager
    def lock(self):
        # The lock file is never unlinked: a command that opened it just before
        # an unlink would lock the removed file while the next command locks a
        # new one, and both would run.
        fd = os.open(self.lock_path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ValidationError(f"session {self.root} is locked by another command") from None
            yield self
        finally:
            os.close(fd)

    # -- store --------------------------------------------------------------------

    @property
    def store_path(self) -> Path:
        return self.root / "store.jsonl"

    def load_store(self) -> RecordStore:
        return RecordStore.load(self.store_path)

    def save_store(self, store: RecordStore) -> None:
        self.write_text(self.store_path, store.json_lines())

    # -- datasets -------------------------------------------------------------------

    def dataset_path(self, name: str) -> Path:
        return self.root / "datasets" / f"{check_name(name)}.json"

    def save_dataset(self, dataset: Dataset) -> Path:
        return self.write_text(self.dataset_path(dataset.name), json_text(dataset.to_json_dict()))

    def load_dataset(self, name: str) -> Dataset:
        path = self.dataset_path(name)
        if not path.exists():
            raise CiteCascadeError(f"no dataset named {name!r} in session")
        return self._read_json(path, Dataset.from_json_dict)

    def dataset_names(self) -> list[str]:
        return sorted(p.stem for p in (self.root / "datasets").glob("*.json"))

    # -- networks & partitions ---------------------------------------------------------

    def network_paths(self, name: str) -> tuple[Path, Path]:
        base = self.root / "networks"
        check_name(name)
        return base / f"{name}.graphml", base / f"{name}.json"

    def save_network(self, name: str, network: CoCitationNetwork, stats: NetworkStats) -> None:
        """Write network ``name`` as GraphML and JSON, then its counts ``stats``
        keyed to that JSON."""
        graphml_path, json_path = self.network_paths(name)
        self.write_text(graphml_path, network.to_graphml())
        self.write_text(json_path, network.to_json())
        key = self._input_key([json_path])
        self.write_text(json_path.with_suffix(".stats"), json_text({**asdict(stats), "inputs": key}))

    def network_counts(self, name: str) -> NetworkStats | None:
        """The counts of network ``name`` from ``networks/<name>.stats`` if current;
        None when that file is missing, stale or damaged."""
        json_path = self.network_paths(name)[1]

        def build(data: dict) -> NetworkStats:
            values = {field.name: data[field.name] for field in fields(NetworkStats)}
            if any(type(value) is not int for value in values.values()):
                raise ValueError("a count is not an integer")
            return NetworkStats(**values)

        try:
            return self._read_json(json_path.with_suffix(".stats"), build, inputs=lambda _data: [json_path])
        except FormatError:  # only a shortcut: damaged counts are counted again from the network
            return None

    def load_network(self, name: str) -> CoCitationNetwork:
        _graphml_path, json_path = self.network_paths(name)
        if not json_path.exists():
            raise CiteCascadeError(f"no network named {name!r} in session")
        return self._read_json(json_path, CoCitationNetwork.from_json_dict)

    def network_names(self) -> list[str]:
        return sorted(
            p.stem
            for p in (self.root / "networks").glob("*.json")
            if not p.name.endswith(".clusters.json")
        )

    def cluster_paths(self, name: str) -> tuple[Path, Path, Path]:
        """The clustering of network ``name``: its JSON, its CSV table and its concept trees."""
        base = self.root / "networks"
        check_name(name)
        return base / f"{name}.clusters.json", base / f"{name}.clusters.csv", base / f"{name}.concepts.txt"

    def save_clusters(self, name: str, payload: dict, table: str, concepts: str) -> None:
        """Write the clustering of network ``name``: its JSON, CSV table and concept trees."""
        json_path, csv_path, concepts_path = self.cluster_paths(name)
        key = self._input_key([self.network_paths(name)[1]])
        self.write_text(json_path, json_text({**payload, "inputs": key}))
        self.write_text(csv_path, [f"# inputs {key}\n", table])
        self.write_text(concepts_path, [f"# inputs {key}\n", concepts])

    def load_partition(self, name: str, network: CoCitationNetwork, required: bool = True) -> ClusterPartition | None:
        """The partition of network ``name`` if current; else None, or an error if ``required``.
        A current one that does not cover exactly the nodes of ``network`` is a ValidationError."""
        partition = self._read_json(
            self.cluster_paths(name)[0], lambda data: ClusterPartition.from_json_dict(data["level1"]),
            inputs=lambda _data: [self.network_paths(name)[1]],
        )
        if partition is not None:
            check_partition(network, partition)
        elif required:
            raise CiteCascadeError(f"no current clustering of network {name!r}; run cluster --network {name}")
        return partition

    def _projection_inputs(self, base: str, dataset_names: list[str]) -> list[Path]:
        network, clustering = self.network_paths(base)[1], self.cluster_paths(base)[0]
        return [network, clustering, *map(self.dataset_path, dataset_names)]

    def save_projection(self, base: str, projection: OverlayProjection, coverage: str) -> list[Path]:
        """Write the projection onto network ``base`` and its coverage table."""
        key = self._input_key(self._projection_inputs(base, projection.dataset_names))
        paths = [self.report_path("projection.json"), self.report_path("coverage.csv")]
        self.write_text(paths[0], json_text({**projection.to_json_dict(), "inputs": key}))
        self.write_text(paths[1], [f"# inputs {key}\n", coverage])
        return paths

    def load_projection(self, base: str) -> OverlayProjection:
        """The projection onto network ``base`` if it is current; else an error."""
        projection = self._read_json(
            self.report_path("projection.json"), OverlayProjection.from_json_dict,
            inputs=lambda data: self._projection_inputs(base, data["datasets"]),
        )
        if projection is None:
            raise CiteCascadeError(f"no current projection onto network {base!r}; run compare --base {base}")
        return projection

    def _input_key(self, inputs: Iterable[Path], **params) -> str:
        """The key of an artifact computed from session files ``inputs`` and ``params``:
        each file's path and sha256 (``missing`` once it is gone), then each parameter.
        The network counts' and the clustering's input is the network's JSON; the
        positions' that, the layout seed, the iteration count and the layout version;
        the projection's and coverage's the base network, its clustering and each
        compared dataset. A stored key is current when it equals the key its inputs
        give now."""
        parts = [
            f"{path.relative_to(self.root).as_posix()}="
            + (hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing")
            for path in inputs
        ]
        return " ".join(parts + [f"{name}={value}" for name, value in params.items()])

    # -- layout positions ---------------------------------------------------------------

    def layout_positions(self, name: str, network: CoCitationNetwork) -> dict[str, tuple[float, float]]:
        """``layout(network, LAYOUT_SEED)`` for network ``name``, read back from
        ``renders/<name>.positions.json`` when that file is current; computed and
        written otherwise. The file holds the key and the ``x`` and ``y`` lists in
        sorted node-id order: the key pins the network, so it pins the ids too."""
        path = self.render_path(f"{name}.positions.json")
        inputs = [self.network_paths(name)[1]]
        params = {"seed": LAYOUT_SEED, "iterations": LAYOUT_ITERATIONS, "layout": LAYOUT_VERSION}
        nodes = sorted(network.nodes)

        def build(data: dict) -> dict[str, tuple[float, float]]:
            xs, ys = data["x"], data["y"]
            if not (isinstance(xs, list) and isinstance(ys, list) and len(xs) == len(ys) == len(nodes)
                    and all(type(v) is float and math.isfinite(v) for v in (*xs, *ys))):
                raise ValueError("x and y are not one finite float per node")
            return dict(zip(nodes, zip(xs, ys)))

        try:
            positions = self._read_json(path, build, inputs=lambda _data: inputs, **params)
        except FormatError:  # only a cache: a damaged one costs one layout, not the command
            positions = None
        if positions is None:
            positions = layout(network, LAYOUT_SEED)
            self.write_text(path, json_text({
                "inputs": self._input_key(inputs, **params),
                "x": [positions[node][0] for node in nodes],
                "y": [positions[node][1] for node in nodes],
            }))
        return positions

    # -- simple path helpers ----------------------------------------------------------

    def report_path(self, filename: str) -> Path:
        return self.root / "reports" / filename

    def render_path(self, filename: str) -> Path:
        return self.root / "renders" / filename

    def trace_path(self, filename: str) -> Path:
        return self.root / "traces" / filename

