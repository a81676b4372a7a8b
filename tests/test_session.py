"""The artifact table: one path per kind and names, reserved name endings, temp-file cleanup,
and groups of files that a kill at any rename leaves consistent."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citecascade
from citecascade.clustering import ClusterPartition
from citecascade.cocitation import CoCitationNetwork, EdgeInfo, NetworkConfig, NodeInfo, network_stats
from citecascade.errors import UsageError
from citecascade.records import Dataset, json_text
from citecascade.session import ARTIFACTS, RESERVED_ENDINGS, Session, check_name, reserved_endings

from conftest import SYNTHETIC_CORPUS
from test_cli import BUNDLED_PIPELINE, run, session_files
from test_cocitation import synthetic_network

# Runs one command in a child whose k-th rename exits the process the way SIGKILL would:
# no except or finally block runs, so the temp files of that command's group stay behind.
KILLED_AT_RENAME = """
import os, sys
from citecascade.cli import main
k, replace, calls = int(sys.argv[1]), os.replace, []
def killing_replace(*args):
    calls.append(args)
    if len(calls) == k:
        os._exit(137)
    replace(*args)
os.replace = killing_replace
sys.exit(main(["--session", *sys.argv[2:]]))
"""
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(citecascade.__file__).parents[1]))


def killed_at_rename(k: int, session_dir: Path, *argv: str) -> int:
    return subprocess.run([sys.executable, "-c", KILLED_AT_RENAME, str(k), str(session_dir), *argv],
                          env=CHILD_ENV, capture_output=True).returncode


def is_name(name: str) -> bool:
    try:
        return check_name(name) == name
    except UsageError:
        return False


# Names made of a base and an ending drawn from the table's suffixes, so that one name is
# often another with an ending added, as a network name must not be its clustering's.
NAMES = st.builds(str.__add__, st.sampled_from(["a", "a-a", "a.a", "é x"]),
                  st.sampled_from(["", ".clusters", ".clusters.a", "clusters", ".json", ".map", "-a"])).filter(is_name)


@pytest.fixture(scope="module")
def empty_session(tmp_path_factory) -> Session:
    return Session(tmp_path_factory.mktemp("table") / "sess")


@settings(max_examples=200)
@given(names=st.lists(NAMES, min_size=1, max_size=5, unique=True))
def test_no_two_artifacts_share_a_path(empty_session, names):
    """Every kind with every tuple of the names it takes: none for a fixed file, one to
    three for a year chart, one otherwise."""
    owners: dict[Path, tuple[str, tuple[str, ...]]] = {}
    for kind, (_directory, suffix) in ARTIFACTS.items():
        counts = (0,) if not suffix.startswith(".") else (1, 2, 3) if kind == "years" else (1,)
        for chosen in (chosen for count in counts for chosen in itertools.product(names, repeat=count)):
            path = empty_session.path(kind, *chosen)
            assert owners.setdefault(path, (kind, chosen)) == (kind, chosen)
            assert path.parent.parent == empty_session.root


NETWORK = CoCitationNetwork({"x": NodeInfo(1, 2000), "y": NodeInfo(1, 2000)}, {("x", "y"): EdgeInfo(1, 2000)},
                            NetworkConfig())


@settings(max_examples=40, deadline=None)
@given(names=st.lists(NAMES, min_size=1, max_size=5, unique=True))
def test_names_are_the_saved_networks_and_datasets(names):
    with tempfile.TemporaryDirectory() as root:
        session = Session(root)
        for name in names:
            session.save_dataset(Dataset(name, {"x"}))
            session.save_network(name, NETWORK, network_stats(NETWORK))
            session.save_clusters(name, {}, "")
        assert session.names("network") == session.names("dataset") == sorted(names)


@pytest.mark.parametrize("stream", [False, True], ids=["text", "stream"])
def test_siblings_are_keyed_to_the_bytes_written(tmp_path, stream):
    """The sha256 in each sibling's key is that of the last file's bytes on disk, whether
    that file came as one text or as a stream of chunks; the bytes are the UTF-8 of the
    text, line ends as given. A file keyed to a file of its group and to one on disk at once
    holds both, then its parameter texts."""
    session = Session(tmp_path / "sess")
    on_disk = session.save_dataset(Dataset("d", {"x"}))
    text = '{"name": "\u00e9 \U0001f600",\r\n"rows": [1, 2]}\n'
    last, table, counts = session.path("network", "n"), session.path("cluster_table", "n"), session.path("counts", "n")
    session.write({session.path("graphml", "n"): "<graphml />\n",
                   last: iter(text.splitlines(keepends=True)) if stream else text,
                   table: "table\n", counts: {"nodes": 1}},
                  {table: [last, on_disk, "seed=42"], counts: [last]})
    assert last.read_bytes() == text.encode("utf-8")
    key = f"networks/n.json={hashlib.sha256(text.encode('utf-8')).hexdigest()}"
    on_disk_key = f"datasets/d.json={hashlib.sha256(on_disk.read_bytes()).hexdigest()}"
    assert table.read_text(encoding="utf-8") == f"# inputs {key} {on_disk_key} seed=42\ntable\n"
    assert json.loads(counts.read_text(encoding="utf-8")) == {"inputs": key, "nodes": 1}


@st.composite
def write_groups(draw):
    """A group for ``Session.write``: up to six files, each a text, a stream or a JSON object,
    some keyed to a mix of earlier files of the group, files already on disk, a file that
    is missing and parameter texts; and the files on disk before the write."""
    count = draw(st.integers(1, 6))
    on_disk = [f"datasets/disk{i}.json" for i in range(draw(st.integers(0, 3)))]
    names = [f"reports/f{i}.csv" for i in range(count)]
    texts = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=20)
    files, inputs = {}, {}
    for i, name in enumerate(names):
        kind = draw(st.sampled_from(["text", "stream", "json"]))
        files[name] = (kind, draw(st.lists(texts, max_size=3)))
        pool = [*names[:i], *on_disk, "reports/missing.csv", "seed=42", "layout=2"]
        chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
        if chosen:
            inputs[name] = chosen
    return {name: draw(texts) for name in on_disk}, files, inputs


@settings(max_examples=60, deadline=None)
@given(group=write_groups())
def test_each_key_is_that_of_its_inputs_as_written(group):
    """After ``write``, each file's key equals the key its inputs give on disk, its value
    follows the key as written, and a file keyed to a file of its group is renamed before
    it, with only files keyed to a file of the group between them; the other files are
    renamed in the group's order."""
    on_disk, drawn, named_inputs = group
    with tempfile.TemporaryDirectory() as root, mock.patch("os.replace", wraps=os.replace) as replace:
        session = Session(root)
        for name, text in on_disk.items():
            (session.root / name).write_text(text, encoding="utf-8")
        path = {name: session.root / name for name in [*drawn, "reports/missing.csv"]}
        path.update((name, session.root / name) for name in on_disk)
        files = {path[name]: (chunks if kind == "stream" else "".join(chunks) if kind == "text"
                              else {"chunks": chunks}) for name, (kind, chunks) in drawn.items()}
        inputs = {path[name]: [path.get(item, item) for item in items] for name, items in named_inputs.items()}
        streams = {file: iter(value) if isinstance(value, list) else value for file, value in files.items()}
        assert session.write(streams, inputs) == list(files)
        renamed = [call.args[1] for call in replace.call_args_list]
        assert sorted(renamed) == sorted(files) and not list(session.root.rglob("*.tmp"))
        for file, value in files.items():
            written = file.read_bytes().decode("utf-8")
            if file not in inputs:
                assert written == (json_text(value) if isinstance(value, dict) else "".join(value))
                continue
            key = session._input_key(inputs[file])
            if isinstance(value, dict):
                assert written == json_text({**value, "inputs": key})
            else:
                assert written == f"# inputs {key}\n" + "".join(value)
        keyed = {file for file in files if any(item in files for item in inputs.get(file, ()))}
        for file in keyed:
            at = renamed.index(file)
            first = min(renamed.index(item) for item in inputs[file] if item in files)
            assert at < first and set(renamed[at:first]) <= keyed, (file, renamed)
        assert [file for file in renamed if file not in keyed] == [file for file in files if file not in keyed]


def traced_peak(write) -> int:
    """The peak of the memory Python allocates while ``write()`` runs."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saving_a_network_holds_neither_of_its_texts_whole(tmp_path):
    """Its GraphML and JSON stream into their temp files, and the key reads the JSON back a
    block at a time, so the peak stays below half the JSON file's size."""
    network = synthetic_network(10_000, 40_000)
    session = Session(tmp_path / "sess")
    peak = traced_peak(lambda: session.save_network("n", network, network_stats(network)))
    size = session.path("network", "n").stat().st_size
    assert size > 3_000_000 and peak < size / 2, (peak, size)


def test_saving_a_clustering_holds_no_whole_text(tmp_path):
    """``clusters.json`` streams into its temp file, and its key reads the network back a
    block at a time, so the peak stays below half the size of either file."""
    network = synthetic_network(10_000, 40_000)
    session = Session(tmp_path / "sess")
    session.save_network("n", network, network_stats(network))
    ids = [f"P{i:06d}" for i in range(100_000)]
    partition = ClusterPartition(assignment={n: i % 2_000 for i, n in enumerate(ids)}, modularity_q=0.25,
                                 labels={c: f"label {c}" for c in range(2_000)},
                                 cluster_silhouettes={c: c / 2_000 for c in range(2_000)}, mean_silhouette=0.5)
    payload = {"level1": partition.to_json_dict()}
    peak = traced_peak(lambda: session.save_clusters("n", payload, "table\n"))
    size = session.path("clusters", "n").stat().st_size
    assert size > 1_000_000 and peak < min(size, session.path("network", "n").stat().st_size) / 2, (peak, size)


def test_reserved_endings_come_from_the_table():
    assert RESERVED_ENDINGS == reserved_endings(ARTIFACTS) == (".clusters",)
    assert reserved_endings({**ARTIFACTS, "thumbnail": ("renders", ".small.map.svg")}) == (".clusters", ".small")
    assert reserved_endings({**ARTIFACTS, "thumbnail": ("traces", ".small.map.svg")}) == (".clusters",)


def test_the_session_does_not_load_render():
    """A session only stores and reads: laying a network out is the render command's work."""
    child = subprocess.run(
        [sys.executable, "-c", "import sys, citecascade.session; sys.exit('citecascade.render' in sys.modules)"],
        env=CHILD_ENV, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr


def test_a_name_spelling_a_clustering_writes_nothing(tmp_path, capsys):
    session_dir = tmp_path / "sess"
    for argv in (
        ["ingest", str(SYNTHETIC_CORPUS)],
        ["search", "--name", "F", "--phrase", "reinforcement learning"],
        ["network", "--dataset", "F", "--name", "a"],
        ["cluster", "--network", "a"],
    ):
        assert run(session_dir, *argv) == 0
    before = session_files(session_dir)
    capsys.readouterr()
    assert run(session_dir, "network", "--dataset", "F", "--name", "a.clusters") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid name 'a.clusters'") and err.count("\n") == 1
    assert session_files(session_dir) == before
    assert run(session_dir, "report", "--kind", "networks") == 0
    assert run(session_dir, "render", "--network", "a") == 0


def test_year_charts_of_two_lists_are_two_files(tmp_path):
    session_dir = tmp_path / "sess"
    assert run(session_dir, "ingest", str(SYNTHETIC_CORPUS)) == 0
    for name in ("F", "F-S3", "combined", "S3-combined"):
        assert run(session_dir, "search", "--name", name, "--phrase", "reinforcement learning") == 0
    assert run(session_dir, "render", "--distributions", "F-S3,combined") == 0
    assert run(session_dir, "render", "--distributions", "F,S3-combined", "--log") == 0
    first, second = (session_dir / "renders" / f"{names}.years.svg" for names in ("F-S3,combined", "F,S3-combined"))
    assert first.read_bytes() != second.read_bytes()


@pytest.mark.parametrize("stem", ["a,b", "x.clusters", " spaced "])
def test_load_report_is_named_after_any_file_stem(tmp_path, stem):
    corpus = tmp_path / f"{stem}.jsonl"
    corpus.write_bytes(SYNTHETIC_CORPUS.read_bytes())
    assert run(tmp_path / "sess", "ingest", str(corpus)) == 0
    assert (tmp_path / "sess" / "reports" / f"{stem}.load-report.csv").is_file()
    assert (tmp_path / "sess" / "store.jsonl").is_file()


def test_next_command_removes_a_killed_commands_temp_file(tmp_path):
    session_dir = tmp_path / "sess"
    assert run(session_dir, "ingest", str(SYNTHETIC_CORPUS)) == 0
    assert run(session_dir, "search", "--name", "F", "--phrase", "reinforcement learning") == 0
    assert killed_at_rename(1, session_dir, "network", "--dataset", "F") == 137
    before = session_files(session_dir)
    temps = sorted(rel for rel in before if rel.endswith(".tmp"))
    assert [rel.rsplit(".", 2)[0] for rel in temps] == ["networks/.F.graphml", "networks/.F.json", "networks/.F.stats"]
    assert run(session_dir, "report", "--kind", "datasets") == 0
    after = session_files(session_dir)
    report = after.pop("reports/datasets.csv")
    assert report and after == {rel: data for rel, data in before.items() if rel not in temps}


# Each command that writes a group of files: it runs after the first <index> commands of
# BUNDLED_PIPELINE and the commands that leave older files of its group, from other flags or
# an older input file ({older}); then the file of the group a later command reads back (render's
# is the layout cache, renamed last); and its renames. A bundled command is BUNDLED_PIPELINE's
# <index>-th; enrich attaches abstracts ({abstracts}) to the bundled store.
KILL_CASES = {
    "ingest": (0, BUNDLED_PIPELINE[0], [["ingest", "{older}"]], "store.jsonl", 3),
    "enrich": (1, ["enrich", "{abstracts}"], [], "store.jsonl", 2),
    "expand": (2, BUNDLED_PIPELINE[2], [["expand", "--name", "S3", "--seed", "P010", "--stages", "F:2",
                                         "--theta-citer", "1", "--theta-ref", "1"]], "datasets/S3.json", 2),
    "network": (4, BUNDLED_PIPELINE[4], [["network", "--dataset", "combined", "--min-citations", "0",
                                          "--top-n", "50"]], "networks/combined.json", 3),
    "cluster": (5, BUNDLED_PIPELINE[5], [["cluster", "--network", "combined", "--levels", "1", "--top-k", "1"]],
                "networks/combined.clusters.json", 2),
    "compare": (6, BUNDLED_PIPELINE[6], [["compare", "--datasets", "S3,F", "--base", "combined"]],
                "reports/projection.json", 3),
    "render-overlay": (7, BUNDLED_PIPELINE[7], [], "renders/combined.positions.json", 2),
    "render": (8, BUNDLED_PIPELINE[8], [], None, 1),
}
# Readers of a session that a kill may have left mixed.
PROBES = [
    ["report", "--kind", "networks"],
    ["render", "--network", "combined"],
    ["compare", "--datasets", "F,S3", "--base", "combined"],
    ["report", "--kind", "datasets"],
]


def current_key(files: dict[str, bytes], rel: str) -> bool:
    """Whether ``rel`` holds a key, each of whose files has the sha256 the key gives."""
    text = files[rel].decode("utf-8")
    if text.startswith("# inputs "):
        key = text.split("\n", 1)[0].removeprefix("# inputs ")
    elif rel.endswith((".json", ".stats")):
        key = json.loads(text).get("inputs") if text.startswith("{") else None
    else:
        return False
    entries = [entry.partition("=") for entry in (key or "").split(" ")
               if "/" in entry or entry.startswith("store.jsonl=")]
    return bool(entries) and all(
        hashlib.sha256(files[path]).hexdigest() == digest if path in files else digest == "missing"
        for path, _eq, digest in entries)


@pytest.mark.parametrize("case", list(KILL_CASES))
def test_a_command_killed_at_any_rename_leaves_a_consistent_session(tmp_path, capsys, case):
    """Pillai et al.'s crash states, at each rename of the command: a sibling whose key says
    it goes with the file read back as it is now was written with it, readers exit cleanly,
    and the command run again gives the clean run's session."""
    index, argv, others, read_back, renames = KILL_CASES[case]
    corpus = SYNTHETIC_CORPUS.read_text(encoding="utf-8").splitlines(True)
    older = tmp_path / "older" / SYNTHETIC_CORPUS.name  # every other record of the bundled corpus
    older.parent.mkdir()
    older.write_text("".join(corpus[::2]), encoding="utf-8")
    abstracts = tmp_path / "abstracts.jsonl"  # for every third record
    abstracts.write_text("".join(json.dumps({"id": json.loads(line)["id"], "abstract": "enriched"}) + "\n"
                                 for line in corpus[::3]), encoding="utf-8")
    argv = [arg.format(abstracts=abstracts) for arg in argv]
    before_dir, clean_dir = tmp_path / "before", tmp_path / "clean"
    for step in [*BUNDLED_PIPELINE[:index], *others]:
        assert run(before_dir, *(arg.format(older=older) for arg in step)) == 0
    shutil.copytree(before_dir, clean_dir)
    assert run(clean_dir, *argv) == 0
    states = [session_files(clean_dir), session_files(before_dir)]
    if read_back:
        assert states[0][read_back] != states[1].get(read_back)
    for k in range(1, renames + 2):
        killed_dir, probe_dir = tmp_path / f"killed{k}", tmp_path / f"probe{k}"
        shutil.copytree(before_dir, killed_dir)
        if k > renames:  # the command makes no rename after the last one counted
            assert killed_at_rename(k, killed_dir, *argv) == 0
            assert session_files(killed_dir) == states[0]
            break
        assert killed_at_rename(k, killed_dir, *argv) == 137
        files = {rel: data for rel, data in session_files(killed_dir).items() if not rel.endswith(".tmp")}
        if read_back:
            state = next(state for state in states if state.get(read_back) == files.get(read_back))
            if state is states[0]:  # the file read back lands last, after the rest of its group
                assert files == state, k
            for rel in files:
                if rel != "store.jsonl" and current_key(files, rel):
                    assert files[rel] == state.get(rel), (k, rel)
        shutil.copytree(killed_dir, probe_dir)
        capsys.readouterr()
        for probe in PROBES:
            code = run(probe_dir, *probe)
            err = capsys.readouterr().err
            assert code == 0 or (code in (3, 4) and err.startswith("error: ") and err.count("\n") == 1), (k, probe, err)
        assert run(killed_dir, *argv) == 0
        assert session_files(killed_dir) == states[0], k
