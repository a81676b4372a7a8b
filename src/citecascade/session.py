"""Session directory layout and configuration for the command-line pipeline.

A session holds everything one analysis produces::

    <session>/
      session.json   # configuration (round-trips losslessly)
      store.jsonl    # record store, one JSON line per record
      datasets/      # <name>.json: member ids and provenance
      networks/      # <name>.json and .graphml; after `cluster`, <name>.clusters.json,
                     # .clusters.csv and .concepts.txt
      renders/       # maps and charts; <name>.positions.csv caches the layout
      reports/ traces/

One command runs at a time per session, enforced with an advisory lock on
``.lock`` that the OS releases when its holder exits or dies. Every artifact
is written to a temp file and renamed into place, so a killed command leaves
each file either old or new, never half written. That holds for
``store.jsonl`` too: ``ingest`` and ``enrich`` write it whole.

Each derived artifact (clustering, layout positions, projection, coverage)
holds the key of its inputs in a top-level ``"inputs"`` field or a first
``# inputs <key>`` line: see ``Session._input_key``. One that is stale,
unkeyed or names a missing input counts as missing; damage is still a
``FormatError``, checked before the key.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import math
import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .clustering import ClusterPartition
from .cocitation import CoCitationNetwork, NetworkConfig
from .errors import CiteCascadeError, FormatError, UsageError, ValidationError
from .overlay import OverlayProjection
from .records import Dataset, RecordStore, json_text
from .render import LAYOUT_ITERATIONS, RenderSpec, layout

SUBDIRS = ("datasets", "networks", "reports", "renders", "traces")


def check_name(name: str) -> str:
    """A dataset or network name, which must stay one file name in its directory."""
    separators = {"/", os.sep, os.altsep, "\0"} - {None}
    if name in ("", ".", "..") or any(sep in name for sep in separators):
        raise UsageError(f"invalid name {name!r}: names must be non-empty, not '.' or '..', "
                         "and contain no path separator")
    return name


@dataclass
class SessionConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    theta_citer: int = 10
    theta_ref: int = 10
    render: RenderSpec = field(default_factory=RenderSpec)

    def to_json_dict(self) -> dict:
        return {
            "network": self.network.to_json_dict(),
            "theta_citer": self.theta_citer,
            "theta_ref": self.theta_ref,
            "render": self.render.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SessionConfig":
        return cls(
            network=NetworkConfig.from_json_dict(data.get("network", {})),
            theta_citer=int(data.get("theta_citer", 10)),
            theta_ref=int(data.get("theta_ref", 10)),
            render=RenderSpec.from_json_dict(data.get("render", {})),
        )


class Session:
    """Filesystem wrapper for one analysis directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for sub in SUBDIRS:
            (self.root / sub).mkdir(exist_ok=True)
        self.config = self._load_or_create_config()

    # -- config ---------------------------------------------------------------

    @property
    def config_path(self) -> Path:
        return self.root / "session.json"

    def _load_or_create_config(self) -> SessionConfig:
        if self.config_path.exists():
            return self._read_json(self.config_path, SessionConfig.from_json_dict, "session config")
        config = SessionConfig()
        self.save_config(config)
        return config

    def save_config(self, config: SessionConfig) -> None:
        self.write_text(self.config_path, json_text(config.to_json_dict()))

    # -- reading and writing ----------------------------------------------------------

    def _read_json(self, path: Path, build, what: str = "session file", inputs=None):
        """``build`` applied to the JSON in ``path``; damage is a FormatError naming the file.
        Given ``inputs``, None when the file is missing or, once built, holds a key other
        than the one ``inputs(data)`` gives now."""
        if inputs is not None and not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            artifact = build(data)
            return artifact if inputs is None or data.get("inputs") == self._input_key(inputs(data)) else None
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError, UsageError) as exc:
            raise FormatError(f"unreadable {what} {path}: {exc!r}") from None

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

    def save_network(self, name: str, network: CoCitationNetwork) -> None:
        graphml_path, json_path = self.network_paths(name)
        self.write_text(graphml_path, network.to_graphml())
        self.write_text(json_path, network.to_json())

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

    def load_partition(self, name: str, required: bool = True) -> ClusterPartition | None:
        """The partition of network ``name`` if current; else None, or an error if ``required``."""
        partition = self._read_json(
            self.cluster_paths(name)[0], lambda data: ClusterPartition.from_json_dict(data["level1"]),
            inputs=lambda _data: [self.network_paths(name)[1]],
        )
        if partition is None and required:
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
        The clustering's input is its network's JSON; the positions' that, the render
        seed and the iteration count; the projection's and coverage's the base network,
        its clustering and each compared dataset. A stored key is current when it
        equals the key its inputs give now."""
        parts = [
            f"{path.relative_to(self.root).as_posix()}="
            + (hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing")
            for path in inputs
        ]
        return " ".join(parts + [f"{name}={value}" for name, value in params.items()])

    # -- layout positions ---------------------------------------------------------------

    def layout_positions(self, name: str, network: CoCitationNetwork) -> dict[str, tuple[float, float]]:
        """``layout(network, seed)`` for network ``name`` under the session's render
        seed, read back from its positions file when that file is current; computed
        and written otherwise."""
        seed = self.config.render.seed
        key = self._input_key([self.network_paths(name)[1]], seed=seed, iterations=LAYOUT_ITERATIONS)
        key = f"# inputs {key}\n"
        path = self.render_path(f"{name}.positions.csv")
        positions = _read_positions(path, key, network)
        if positions is None:
            positions = layout(network, seed)
            rows = io.StringIO()
            writer = csv.writer(rows, lineterminator="\n")
            writer.writerow(["id", "x", "y"])
            writer.writerows((node, repr(x), repr(y)) for node, (x, y) in positions.items())
            self.write_text(path, [key, rows.getvalue()])
        return positions

    # -- simple path helpers ----------------------------------------------------------

    def report_path(self, filename: str) -> Path:
        return self.root / "reports" / filename

    def render_path(self, filename: str) -> Path:
        return self.root / "renders" / filename

    def trace_path(self, filename: str) -> Path:
        return self.root / "traces" / filename


def _read_positions(
    path: Path, key: str, network: CoCitationNetwork
) -> dict[str, tuple[float, float]] | None:
    """The positions stored in ``path`` under ``key`` for exactly the nodes of
    ``network``, or None when the file is missing, keyed otherwise, cut short
    or otherwise damaged."""
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, ValueError):
        return None
    if not text.startswith(key) or not text.endswith("\n"):
        return None
    positions: dict[str, tuple[float, float]] = {}
    try:
        rows = csv.reader(io.StringIO(text[len(key):]))
        if next(rows, None) != ["id", "x", "y"]:
            return None
        for row in rows:
            if len(row) != 3 or row[0] in positions:
                return None
            x, y = float(row[1]), float(row[2])
            if not (math.isfinite(x) and math.isfinite(y)):
                return None
            positions[row[0]] = (x, y)
    except (ValueError, csv.Error):
        return None
    return positions if positions.keys() == network.nodes.keys() else None
