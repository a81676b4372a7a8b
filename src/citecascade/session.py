"""Session directory layout for the command-line pipeline.

A session holds everything one analysis produces::

    <session>/
      store.jsonl    # record store, one JSON line per record
      datasets/      # <name>.json: member ids and provenance
      networks/      # <name>.json and .graphml, and <name>.stats: the network's node,
                     # link and LCC counts; after `cluster`, <name>.clusters.json,
                     # .clusters.csv and .concepts.txt
      renders/       # <name>.map and .overlay (.svg, .html); <name>.positions.json caches
                     # the layout; <a>,<b>,<c>.years.svg charts datasets a, b and c
      reports/       # <ingested file stem>.load-report.csv, compare.csv, projection.json,
                     # coverage.csv, datasets.csv, overlap.csv, networks.csv
      traces/        # <name>.trace.csv and .trace.json

``ARTIFACTS`` is this layout as a table, and ``Session.path`` forms every path
but ``store.jsonl`` and ``.lock`` from it. A name may not end in an ending that
would turn one kind's file into another kind's in the same directory, such as
``.clusters``: ``reserved_endings`` derives them from the table.

One command runs at a time per session, enforced with an advisory lock on
``.lock`` that the OS releases when its holder exits or dies. Each command
writes its group of files in one ``Session.write`` call after its last check,
so a failing one writes nothing: every temp file, then one rename per file,
the file a later command reads back last and each keyed sibling keyed to it.
A killed command leaves each file old or new, never half written (the whole
``store.jsonl`` too), and the next command removes its temp files.

Each derived artifact holds the key of its inputs in a top-level ``"inputs"``
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
from collections.abc import Callable, Iterable
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields
from pathlib import Path

from .clustering import ClusterPartition
from .cocitation import CoCitationNetwork, NetworkStats
from .errors import CiteCascadeError, FormatError, UsageError, ValidationError
from .overlay import OverlayProjection, check_partition
from .records import Dataset, RecordStore, json_text
from .render import LAYOUT_ITERATIONS, LAYOUT_SEED, LAYOUT_VERSION, layout

# Each artifact kind's directory, and the suffix after its names joined by ","; a suffix
# that does not start with "." is a whole file name, of a kind that takes no name.
ARTIFACTS = {kind: (directory, suffix) for directory, kinds in {
    "datasets": {"dataset": ".json"},
    "networks": {"network": ".json", "graphml": ".graphml", "counts": ".stats", "clusters": ".clusters.json",
                 "cluster_table": ".clusters.csv", "concepts": ".concepts.txt"},
    "renders": {"map": ".map.svg", "map_page": ".map.html", "overlay": ".overlay.svg",
                "overlay_page": ".overlay.html", "years": ".years.svg", "positions": ".positions.json"},
    "reports": {"load_report": ".load-report.csv", "compare": "compare.csv", "projection": "projection.json",
                "coverage": "coverage.csv", "datasets_report": "datasets.csv", "overlap_report": "overlap.csv",
                "networks_report": "networks.csv"},
    "traces": {"trace_table": ".trace.csv", "trace": ".trace.json"},
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


def _write_temp(temp: Path, text, digest: bool = False) -> str:
    """Write ``text``, whole or in chunks, or what the function ``text`` builds, to ``temp``;
    given ``digest``, the sha256 of a whole text."""
    if callable(text):
        text = text()
    if isinstance(text, str):
        with open(temp, "wb") as fh:
            fh.write(data := text.encode())
        return hashlib.sha256(data).hexdigest() if digest else ""
    with open(temp, "w", encoding="utf-8") as fh:
        fh.writelines(text)
    return ""


class Session:
    """Filesystem wrapper for one analysis directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.store_path = self.root / "store.jsonl"
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

    def write(self, files: dict[Path, str | Iterable[str] | Callable],
              keyed: dict[Path, str | dict] | None = None) -> list[Path]:
        """Write one command's group through temp files, then rename each; return the paths of
        ``files``, then of ``keyed``. A value of ``files`` is a text, whole or in chunks, or a
        function that builds it when its temp file is written, so one large text is alive at a
        time. The last of ``files`` is the file a later command reads back, and it is renamed
        last. Each of ``keyed`` is keyed to it, by its session path and the sha256 of its text:
        a text under a first ``# inputs <key>`` line, a JSON object with an ``"inputs"`` field."""
        *siblings, last = files
        keyed = keyed or {}
        temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in [*files, *keyed]}
        try:
            for path in siblings:
                _write_temp(temps[path], files[path])
            key = f"{last.relative_to(self.root).as_posix()}=" + _write_temp(temps[last], files[last], digest=True)
            for path, value in keyed.items():
                _write_temp(temps[path], json_text({**value, "inputs": key}) if isinstance(value, dict)
                            else [f"# inputs {key}\n", value])
            for path in [*siblings, *keyed, last]:
                os.replace(temps[path], path)
        finally:  # a temp file is left only when a write or a rename raised
            for temp in temps.values():
                temp.unlink(missing_ok=True)
        return list(temps)

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

    # -- datasets -------------------------------------------------------------------

    def save_dataset(self, dataset: Dataset) -> Path:
        return self.write({self.path("dataset", dataset.name): json_text(dataset.to_json_dict())})[0]

    def load_dataset(self, name: str) -> Dataset:
        path = self.path("dataset", name)
        if not path.exists():
            raise CiteCascadeError(f"no dataset named {name!r} in session")
        return self._read_json(path, Dataset.from_json_dict)

    # -- networks & partitions ---------------------------------------------------------

    def network_paths(self, name: str) -> tuple[Path, Path]:
        return self.path("graphml", name), self.path("network", name)

    def save_network(self, name: str, network: CoCitationNetwork, stats: NetworkStats) -> None:
        """Write network ``name``: its GraphML, its counts ``stats`` keyed to its JSON, then that."""
        self.write({self.path("graphml", name): network.to_graphml, self.path("network", name): network.to_json},
                   {self.path("counts", name): asdict(stats)})

    def network_counts(self, name: str) -> NetworkStats | None:
        """The counts of network ``name`` from ``networks/<name>.stats`` if current;
        None when that file is missing, stale or damaged."""

        def build(data: dict) -> NetworkStats:
            values = {field.name: data[field.name] for field in fields(NetworkStats)}
            if any(type(value) is not int for value in values.values()):
                raise ValueError("a count is not an integer")
            return NetworkStats(**values)

        try:
            return self._read_json(self.path("counts", name), build, inputs=lambda _data: [self.path("network", name)])
        except FormatError:  # only a shortcut: damaged counts are counted again from the network
            return None

    def load_network(self, name: str) -> CoCitationNetwork:
        json_path = self.path("network", name)
        if not json_path.exists():
            raise CiteCascadeError(f"no network named {name!r} in session")
        return self._read_json(json_path, CoCitationNetwork.from_json_dict)

    def save_clusters(self, name: str, payload: dict, table: str, concepts: str) -> None:
        """Write the clustering of network ``name``: its table and concept trees keyed to its JSON, then that."""
        inputs = self._input_key([self.path("network", name)])
        self.write({self.path("clusters", name): json_text({**payload, "inputs": inputs})},
                   {self.path("cluster_table", name): table, self.path("concepts", name): concepts})

    def load_partition(self, name: str, network: CoCitationNetwork, required: bool = True) -> ClusterPartition | None:
        """The partition of network ``name`` if current; else None, or an error if ``required``.
        A current one that does not cover exactly the nodes of ``network`` is a ValidationError."""
        partition = self._read_json(
            self.path("clusters", name), lambda data: ClusterPartition.from_json_dict(data["level1"]),
            inputs=lambda _data: [self.path("network", name)],
        )
        if partition is not None:
            check_partition(network, partition)
        elif required:
            raise CiteCascadeError(f"no current clustering of network {name!r}; run cluster --network {name}")
        return partition

    def _projection_inputs(self, base: str, names: list[str]) -> list[Path]:
        return [self.path("network", base), self.path("clusters", base), *(self.path("dataset", n) for n in names)]

    def projection_text(self, base: str, projection: OverlayProjection) -> str:
        """The projection onto network ``base`` as written, with the key of its inputs."""
        inputs = self._input_key(self._projection_inputs(base, projection.dataset_names))
        return json_text({**projection.to_json_dict(), "inputs": inputs})

    def load_projection(self, base: str) -> OverlayProjection:
        """The projection onto network ``base`` if it is current; else an error."""
        projection = self._read_json(
            self.path("projection"), OverlayProjection.from_json_dict,
            inputs=lambda data: self._projection_inputs(base, data["datasets"]),
        )
        if projection is None:
            raise CiteCascadeError(f"no current projection onto network {base!r}; run compare --base {base}")
        return projection

    def _input_key(self, inputs: Iterable[Path], **params) -> str:
        """The key of an artifact computed from session files ``inputs`` and ``params``:
        each file's path and sha256 (``missing`` once it is gone), then each parameter.
        The clustering's input is the network's JSON; the positions' that, the layout seed,
        the iteration count and the layout version; the projection's the base network, its
        clustering and each compared dataset. ``write`` keys a group's siblings to the file
        read back. A stored key is current when it equals the key its inputs give now."""
        parts = [
            f"{path.relative_to(self.root).as_posix()}="
            + (hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing")
            for path in inputs
        ]
        return " ".join(parts + [f"{name}={value}" for name, value in params.items()])

    # -- layout positions ---------------------------------------------------------------

    def layout_positions(self, name: str, network: CoCitationNetwork) -> dict[str, tuple[float, float]]:
        """``layout(network, LAYOUT_SEED)`` for network ``name``, read back from ``renders/<name>.positions.json``
        when that file is current; computed and written otherwise, the one write apart from a command's group.
        The file holds the key and the ``x`` and ``y`` lists in sorted node-id order: the key pins the
        network, so it pins the ids too."""
        path = self.path("positions", name)
        inputs = [self.path("network", name)]
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
            self.write({path: json_text({
                "inputs": self._input_key(inputs, **params),
                "x": [positions[node][0] for node in nodes],
                "y": [positions[node][1] for node in nodes],
            })})
        return positions
