"""The artifact table: one path per kind and names, reserved name endings, temp-file cleanup."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citecascade
from citecascade.cocitation import CoCitationNetwork, EdgeInfo, NetworkConfig, NodeInfo, network_stats
from citecascade.errors import UsageError
from citecascade.records import Dataset
from citecascade.session import ARTIFACTS, RESERVED_ENDINGS, Session, check_name, reserved_endings

from conftest import SYNTHETIC_CORPUS
from test_cli import run, session_files

# Runs one command in a child whose first rename exits the process the way SIGKILL would:
# no except or finally block runs, so the temp file of that write stays behind.
KILLED_AT_FIRST_RENAME = """
import os, sys
from citecascade.cli import main
os.replace = lambda *_args: os._exit(137)
main(["--session", *sys.argv[1:]])
"""


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
            session.save_clusters(name, {}, "", "")
        assert session.names("network") == session.names("dataset") == sorted(names)


def test_reserved_endings_come_from_the_table():
    assert RESERVED_ENDINGS == reserved_endings(ARTIFACTS) == (".clusters",)
    assert reserved_endings({**ARTIFACTS, "thumbnail": ("renders", ".small.map.svg")}) == (".clusters", ".small")
    assert reserved_endings({**ARTIFACTS, "thumbnail": ("traces", ".small.map.svg")}) == (".clusters",)


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
    env = dict(os.environ, PYTHONPATH=str(Path(citecascade.__file__).parents[1]))
    killed = subprocess.run([sys.executable, "-c", KILLED_AT_FIRST_RENAME, str(session_dir),
                             "network", "--dataset", "F"], env=env)
    assert killed.returncode == 137
    before = session_files(session_dir)
    temps = [rel for rel in before if rel.endswith(".tmp")]
    assert len(temps) == 1 and temps[0].startswith("networks/.F.graphml.")
    assert run(session_dir, "report", "--kind", "datasets") == 0
    after = session_files(session_dir)
    report = after.pop("reports/datasets.csv")
    assert report and after == {rel: data for rel, data in before.items() if rel not in temps}
