"""Property: no input a user can supply makes ``cli.main`` raise.

Damaged store logs, ingest and enrichment files, and numeric flags are
generated at random, dataset files of the wrong shape are written by hand, and
each is fed to commands run in a copy of a small finished session. Every run
must end with exit code 0, 2, 3 or 4 (argparse's ``SystemExit`` counted as its
code), and a failing run must print exactly one ``error:`` line to stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade.cli import main

from test_cli import write_corpus

EXAMPLES = settings(max_examples=25, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
NUMBERS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "0", "-1", "-0.5", "1e-300"]),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(str),
)


@pytest.fixture(scope="module")
def finished_session(tmp_path_factory) -> Path:
    """Datasets 'a' (the whole corpus) and 'b', a clustered network 'net' of 'a', the corpus file."""
    root = tmp_path_factory.mktemp("base")
    corpus = root / "corpus.jsonl"
    write_corpus(corpus)
    session = root / "sess"
    for argv in (
        ["ingest", str(corpus), "--dataset", "a"],
        ["search", "--name", "b", "--phrase", "topic alpha"],
        ["network", "--dataset", "a", "--name", "net", "--min-citations", "0"],
        ["cluster", "--network", "net"],
    ):
        assert main(["--session", str(session), *argv]) == 0, argv
    return root


@contextlib.contextmanager
def session_copy(finished_session: Path):
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        shutil.copytree(finished_session / "sess", work / "sess")
        shutil.copy(finished_session / "corpus.jsonl", work / "corpus.jsonl")
        yield work


def run_cli(session: Path, *argv: str) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(["--session", str(session), *argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code != 0:
        text = err.getvalue()
        assert text.startswith("error:") and text.count("\n") == 1, (argv, text)
    return code


@EXAMPLES
@given(tail=st.binary(max_size=120), newline=st.booleans())
def test_damaged_store_log(finished_session, tail, newline):
    with session_copy(finished_session) as work:
        session = work / "sess"
        with open(session / "store.jsonl", "ab") as fh:
            fh.write(tail + (b"\n" if newline else b""))
        torn = b"\n" not in tail and not newline
        search = run_cli(session, "search", "--name", "s", "--phrase", "topic")
        enrichment = work / "abstracts.jsonl"
        enrichment.write_text(json.dumps({"id": "c00", "abstract": "text"}) + "\n")
        enrich = run_cli(session, "enrich", str(enrichment))
        again = run_cli(session, "search", "--name", "s", "--phrase", "topic")
        if torn:  # a torn last line never bricks the session
            assert search == enrich == again == 0


CSV_COLUMNS = ["Publication ID", "Title", "PubYear", "Cited references", "Times cited"]


def csv_file(columns: list[str], rows: list[list[str]]) -> bytes:
    lines = [",".join(columns)] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


@EXAMPLES
@given(data=st.data(), fmt=st.sampled_from(["jsonl", "dimensions-csv"]))
def test_ingest_files(finished_session, data, fmt):
    with session_copy(finished_session) as work:
        corpus = (work / "corpus.jsonl").read_bytes()
        kind = data.draw(st.sampled_from(["bytes", "truncated", "csv"]))
        if kind == "bytes":
            content = data.draw(st.binary(max_size=200))
        elif kind == "truncated":
            content = corpus[: data.draw(st.integers(0, len(corpus)))]
        else:
            columns = data.draw(st.lists(st.sampled_from(CSV_COLUMNS), unique=True))
            cell = st.text(st.characters(blacklist_categories=["Cs"]), max_size=6)
            rows = data.draw(st.lists(st.lists(cell, max_size=len(columns) + 1), max_size=4))
            content = csv_file(columns, rows)
        path = work / "input.dat"
        path.write_bytes(content)
        run_cli(work / "sess", "ingest", str(path), "--format", fmt, "--dataset", "in")
        run_cli(work / "sess", "search", "--name", "s", "--phrase", "topic")


@EXAMPLES
@given(
    content=st.one_of(
        st.binary(max_size=120),
        st.lists(JSON_VALUES.map(json.dumps), max_size=4).map(lambda rows: "\n".join(rows).encode()),
    )
)
def test_enrichment_files(finished_session, content):
    with session_copy(finished_session) as work:
        path = work / "abstracts.jsonl"
        path.write_bytes(content)
        run_cli(work / "sess", "enrich", str(path))


FLAG_COMMANDS = {
    "--lrf": ["network", "--dataset", "a", "--name", "n2"],
    "--lby": ["network", "--dataset", "a", "--name", "n2"],
    "--top-n": ["network", "--dataset", "a", "--name", "n2"],
    "--slice-years": ["network", "--dataset", "a", "--name", "n2"],
    "--min-citations": ["network", "--dataset", "a", "--name", "n2"],
    "--threshold": ["compare", "--datasets", "a,b", "--base", "net"],
    "--epsilon": ["compare", "--datasets", "a,b", "--base", "net"],
    "--theta-citer": ["expand", "--name", "x", "--seed", "seed", "--stages", "F:1"],
    "--theta-ref": ["expand", "--name", "x", "--seed", "seed", "--stages", "B:1"],
    "--cap": ["expand", "--name", "x", "--seed", "seed", "--stages", "F:2"],
    "--top-k": ["cluster", "--network", "net", "--levels", "2"],
}


@settings(EXAMPLES, max_examples=40)
@given(flag=st.sampled_from(sorted(FLAG_COMMANDS)), value=NUMBERS, joined=st.booleans())
def test_numeric_flags(finished_session, flag, value, joined):
    with session_copy(finished_session) as work:
        argv = [f"{flag}={value}"] if joined else [flag, value]
        run_cli(work / "sess", *FLAG_COMMANDS[flag], *argv)


@pytest.mark.parametrize("fields, commands", [
    ({"member_ids": "P001"}, [["report", "--kind", "datasets"], ["union", "--name", "u", "--datasets", "bad,a"]]),
    ({"member_ids": [1, 2]}, [["union", "--name", "u", "--datasets", "bad,a"], ["network", "--dataset", "bad", "--name", "n"]]),
    ({"name": 5}, [["render", "--distributions", "bad,a"], ["union", "--name", "u", "--datasets", "bad,a"]]),
    ({"provenance": []}, [["report", "--kind", "datasets"]]),
])
def test_dataset_file_of_the_wrong_shape(finished_session, fields, commands):
    """A dataset file of the wrong shape exits 4. A ``name`` in the file, as older versions
    wrote it, is not part of its shape: whatever it holds, the file loads under its file name."""
    with session_copy(finished_session) as work:
        session = work / "sess"
        bad = session / "datasets" / "bad.json"
        bad.write_text(json.dumps({"member_ids": ["c00"], "provenance": {}, **fields}))
        for argv in commands:
            assert run_cli(session, *argv) == (0 if "name" in fields else 4), argv
        if "name" in fields:
            assert (session / "renders" / "bad,a.years.svg").exists()
            union = json.loads((session / "datasets" / "u.json").read_text(encoding="utf-8"))
            assert union["provenance"]["inputs"] == ["bad", "a"]
