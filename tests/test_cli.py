"""Command-line pipeline: exit codes, session artifacts, re-runnability, locking."""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citecascade
import citecascade.cli as cli_module
import citecascade.session as session_module
from citecascade.cli import main
from citecascade.cocitation import CoCitationNetwork, EdgeInfo, NetworkConfig, NodeInfo, network_stats
from citecascade.errors import ValidationError
from citecascade.records import RecordStore, csv_text, json_text
from citecascade.render import layout
from citecascade.session import Session

from conftest import SYNTHETIC_CORPUS

# Takes the session lock the way a command does, reports it, then waits to be killed.
HOLD_LOCK = """
import sys, time
from citecascade.session import Session
with Session(sys.argv[1]).lock():
    print("locked", flush=True)
    time.sleep(120)
"""


def write_corpus(path: Path) -> None:
    """A small citable corpus: 8 dated references, 12 citing articles, one seed."""
    rows = []
    for i in range(8):
        rows.append(
            {
                "id": f"r{i}",
                "title": f"foundation result {i}",
                "year": 1996 + i,
                "reference_ids": [],
                "global_citation_count": 12 + i,
            }
        )
    rows.append(
        {
            "id": "seed",
            "title": "survey of topic alpha",
            "year": 2004,
            "reference_ids": ["r0", "r1"],
            "global_citation_count": 40,
        }
    )
    for i in range(12):
        topic = "alpha" if i % 2 == 0 else "beta"
        refs = [f"r{(i + k) % 8}" for k in range(3)]
        if i < 6:
            refs.append("seed")
        rows.append(
            {
                "id": f"c{i:02d}",
                "title": f"study of topic {topic} methods {i}",
                "year": 2006 + (i % 6),
                "reference_ids": refs,
                "global_citation_count": 3 + i,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture
def corpus(tmp_path) -> Path:
    path = tmp_path / "corpus.jsonl"
    write_corpus(path)
    return path


def run(session_dir: Path, *argv: str) -> int:
    return main(["--session", str(session_dir), *argv])


def session_files(session_dir: Path) -> dict[str, bytes]:
    """Every file of a session by its path in the session."""
    return {path.relative_to(session_dir).as_posix(): path.read_bytes()
            for path in session_dir.rglob("*") if path.is_file()}


class TestPipeline:
    def test_end_to_end(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(corpus), "--format", "jsonl") == 0
        assert "loaded 21 records" in capsys.readouterr().out

        assert run(session_dir, "search", "--name", "F", "--phrase", "topic alpha") == 0
        assert run(
            session_dir,
            "expand", "--name", "S",
            "--seed", "seed", "--stages", "F:2",
            "--theta-citer", "0", "--theta-ref", "0",
        ) == 0
        assert (session_dir / "traces" / "S.trace.csv").exists()
        assert run(session_dir, "union", "--name", "combined", "--datasets", "F,S") == 0

        assert run(
            session_dir,
            "network", "--dataset", "combined", "--name", "combined",
            "--min-citations", "0", "--top-n", "50",
        ) == 0
        assert (session_dir / "networks" / "combined.graphml").exists()
        assert (session_dir / "networks" / "combined.json").exists()

        assert run(session_dir, "cluster", "--network", "combined", "--levels", "2", "--top-k", "2") == 0
        clusters_payload = json.loads(
            (session_dir / "networks" / "combined.clusters.json").read_text()
        )
        assert "level1" in clusters_payload and "level2" in clusters_payload
        assert all(
            "top_citers" in cluster for cluster in clusters_payload["level1"]["clusters"]
        )

        assert run(session_dir, "compare", "--datasets", "F,S", "--base", "combined") == 0
        assert (session_dir / "reports" / "compare.csv").exists()
        assert (session_dir / "reports" / "projection.json").exists()
        assert (session_dir / "reports" / "coverage.csv").exists()

        assert run(session_dir, "render", "--network", "combined", "--overlay") == 0
        assert (session_dir / "renders" / "combined.overlay.svg").exists()
        assert (session_dir / "renders" / "combined.overlay.html").exists()
        assert run(session_dir, "render", "--distributions", "F,S", "--log") == 0
        assert (session_dir / "renders" / "F,S.years.svg").exists()

        for kind in ("datasets", "networks"):
            assert run(session_dir, "report", "--kind", kind) == 0
        assert run(session_dir, "report", "--kind", "overlap", "--datasets", "F,S,combined") == 0
        out = capsys.readouterr().out
        assert "Articles" in out and "Range" in out

    def test_networks_report_emits_both_roundings(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        run(session_dir, "expand", "--name", "S", "--seed", "seed", "--stages", "F:1",
            "--theta-citer", "0", "--theta-ref", "0")
        run(session_dir, "network", "--dataset", "S", "--min-citations", "0")
        capsys.readouterr()
        assert run(session_dir, "report", "--kind", "networks") == 0
        out = capsys.readouterr().out
        assert "lcc_pct_rounded" in out and "lcc_pct_truncated" in out

    def test_expand_forward_then_backward_by_flags(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        assert run(session_dir, "expand", "--name", "NB", "--seed", "seed", "--stages", "F:1,B:1",
                   "--theta-citer", "0", "--theta-ref", "0") == 0
        before = session_files(session_dir)
        capsys.readouterr()
        assert run(session_dir, "expand", "--name", "NB", "--seed", "ghost", "--stages", "F:1") == 4
        assert "ghost" in one_error_line(capsys)
        assert session_files(session_dir) == before  # the cascade failed after reading the store
        dataset = json.loads((session_dir / "datasets" / "NB.json").read_text())
        assert "seed" in dataset["member_ids"]
        assert dataset["provenance"]["spec"] == {
            "seeds": ["seed"],
            "stages": [{"dir": "F", "gens": 1}, {"dir": "B", "gens": 1}],
            "theta_citer": 0,
            "theta_ref": 0,
        }

    def test_ingest_registers_dataset(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(corpus), "--dataset", "everything") == 0
        dataset = json.loads((session_dir / "datasets" / "everything.json").read_text())
        assert len(dataset["member_ids"]) == 21

    def test_enrich_updates_store(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        enrichment = tmp_path / "abstracts.jsonl"
        enrichment.write_text(
            json.dumps({"id": "seed", "abstract": "long form text"}) + "\n", encoding="utf-8"
        )
        assert run(session_dir, "enrich", str(enrichment)) == 0
        store_lines = (session_dir / "store.jsonl").read_text().splitlines()
        enriched = [json.loads(l) for l in store_lines if json.loads(l)["id"] == "seed"]
        assert enriched[-1]["abstract"] == "long form text"


class TestExitCodes:
    def test_unknown_command_exits_2(self, tmp_path, capsys):
        # An option the command does not have exits 2 the same way.
        for argv in (["frobnicate"], ["expand", "--name", "x", "--spec", "f.json"],
                     ["network", "--dataset", "a", "--e-param", "1"]):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path / "s", *argv)
            assert excinfo.value.code == 2
            one_error_line(capsys)

    def test_compare_single_dataset_exits_3(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus), "--dataset", "only")
        capsys.readouterr()
        assert run(session_dir, "compare", "--datasets", "only") == 3
        assert "error: need at least 2 datasets" in capsys.readouterr().err

    def test_missing_input_file_exits_4(self, tmp_path, capsys):
        assert run(tmp_path / "sess", "ingest", str(tmp_path / "ghost.jsonl")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_dataset_exits_4(self, tmp_path, capsys):
        assert run(tmp_path / "sess", "network", "--dataset", "nope") == 4
        assert "no dataset named" in capsys.readouterr().err

    def test_bad_threshold_exits_3(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus), "--dataset", "a")
        run(session_dir, "search", "--name", "b", "--phrase", "topic")
        run(session_dir, "expand", "--name", "S", "--seed", "seed", "--stages", "F:1",
            "--theta-citer", "0", "--theta-ref", "0")
        run(session_dir, "network", "--dataset", "S", "--min-citations", "0")
        run(session_dir, "cluster", "--network", "S")
        capsys.readouterr()
        for bad in (["--threshold", "1.5"], ["--epsilon", "nan"], ["--epsilon", "-3"],
                    ["--epsilon", "1"], ["--epsilon", "inf"]):
            assert run(session_dir, "compare", "--datasets", "a,b", "--base", "S", *bad) == 3, bad
            assert "must lie" in one_error_line(capsys)
            assert not (session_dir / "reports" / "compare.csv").exists(), bad
        assert not (session_dir / "reports" / "coverage.csv").exists()

    @pytest.mark.parametrize(
        "value",
        [
            "nan", "inf", "-inf", "1e999",
            # A separate argument that starts with "-" must still read as the value.
            *(pytest.param([v], id=f"separate{v}") for v in ("-inf", "-nan", "-1e999")),
        ],
    )
    @pytest.mark.parametrize("flag", ["--lrf"])
    def test_non_finite_network_values_exit_2(self, tmp_path, corpus, capsys, flag, value):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus), "--dataset", "a")
        capsys.readouterr()
        argv = [flag, *value] if isinstance(value, list) else [f"{flag}={value}"]
        with pytest.raises(SystemExit) as excinfo:
            run(session_dir, "network", "--dataset", "a", *argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: must be a finite number")
        assert err.count("\n") == 1
        assert not list((session_dir / "networks").iterdir())

    def test_negative_top_k_exits_2(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus), "--dataset", "a")
        run(session_dir, "network", "--dataset", "a", "--min-citations", "0")
        capsys.readouterr()
        assert run(session_dir, "cluster", "--network", "a", "--levels", "2", "--top-k", "-1") == 2
        assert one_error_line(capsys) == "error: --top-k must not be negative: -1\n"
        assert not (session_dir / "networks" / "a.clusters.json").exists()
        assert run(session_dir, "cluster", "--network", "a", "--top-k", "0") == 0

    @pytest.mark.parametrize("phrases", [[""], [" "], ["topic alpha", " "]])
    def test_blank_phrase_exits_3_and_writes_nothing(self, tmp_path, corpus, capsys, phrases):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        capsys.readouterr()
        before = session_files(session_dir)
        argv = [arg for phrase in phrases for arg in ("--phrase", phrase)]
        assert run(session_dir, "search", "--name", "X", *argv) == 3
        assert one_error_line(capsys) == "error: query phrases must not be blank\n"
        assert session_files(session_dir) == before

    @pytest.mark.parametrize("name", ["../../escaped", "a/b", "..", ".", "", "a,b", "a\nb", " G", "G ", "a.clusters"])
    def test_bad_names_exit_2_and_write_nothing_outside(self, tmp_path, corpus, capsys, name):
        session_dir = tmp_path / "outer" / "sess"
        run(session_dir, "ingest", str(corpus))
        capsys.readouterr()
        more = tmp_path / "more.jsonl"  # a record the store lacks
        more.write_text(json.dumps({"id": "new", "title": "a new record", "year": 2000, "reference_ids": []}) + "\n",
                        encoding="utf-8")
        before = session_files(tmp_path)
        assert run(session_dir, "search", "--name", name, "--phrase", "topic") == 2
        assert run(session_dir, "ingest", str(more), "--dataset", name) == 2  # after ingesting in memory
        assert run(session_dir, "cluster", "--network", name) == 2
        err = capsys.readouterr().err
        assert err.count("error: invalid name") == 3 and err.count("\n") == 3
        assert session_files(tmp_path) == before

    def test_locked_session_exits_3(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        session_dir.mkdir()
        with open(session_dir / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run(session_dir, "ingest", str(corpus)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "locked" in err and err.count("\n") == 1
        assert not (session_dir / "store.jsonl").exists()

    def test_lock_released_after_run(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(corpus)) == 0
        with open(session_dir / ".lock") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)  # raises if still held
        assert run(session_dir, "ingest", str(corpus)) == 0

    def test_lock_released_when_holder_is_killed(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        env = dict(os.environ, PYTHONPATH=str(Path(citecascade.__file__).parents[1]))
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_LOCK, str(session_dir)], stdout=subprocess.PIPE, env=env
        )
        try:
            assert holder.stdout.readline() == b"locked\n"
            assert run(session_dir, "ingest", str(corpus)) == 3
            holder.kill()  # SIGKILL: no finally block of the holder runs
            holder.wait()
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()
            holder.stdout.close()
        capsys.readouterr()
        assert run(session_dir, "ingest", str(corpus)) == 0

    def test_help_available_for_all_subcommands(self, capsys):
        for command in (
            "ingest", "enrich", "search", "union", "expand",
            "network", "cluster", "compare", "render", "report",
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert "--" in capsys.readouterr().out


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestWarnings:
    """A command that succeeds prints each warning it raised as one ``warning:`` line."""

    def test_network_reports_the_member_without_a_year(self, tmp_path, capsys):
        session_dir = tmp_path / "sess"
        for argv in BUNDLED_PIPELINE[:4]:
            assert run(session_dir, *argv) == 0
        assert BUNDLED_PIPELINE[4][0] == "network"
        capsys.readouterr()
        assert run(session_dir, *BUNDLED_PIPELINE[4]) == 0
        assert capsys.readouterr().err == "warning: 1 dataset member(s) without a usable year skipped\n"

    def test_small_top_cluster_warns_at_level_2(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "network", "--dataset", "F", "--name", "G", "--min-citations", "0") == 0
        capsys.readouterr()
        assert run(session_dir, "cluster", "--network", "G", "--levels", "2", "--top-k", "3") == 0
        assert capsys.readouterr().err == (
            "warning: cluster #2 has fewer than 3 members; returning one sub-cluster\n")

    def test_warning_then_failure_prints_one_error_line(self, tmp_path, capsys, monkeypatch):
        def warn_then_fail(args, session):
            warnings.warn("dropped with the failure")
            raise ValidationError("the failure")

        monkeypatch.setitem(cli_module._HANDLERS, "report", warn_then_fail)
        assert run(tmp_path / "sess", "report", "--kind", "datasets") == 3
        assert one_error_line(capsys) == "error: the failure\n"


class TestBadInput:
    """Damaged session logs and unreadable user files end in one error line."""

    def test_torn_store_tail_is_ignored_then_cut(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        store_path = session_dir / "store.jsonl"
        intact = store_path.read_bytes()
        with open(store_path, "ab") as fh:
            fh.write(b'{"id": "c99", "title": "half wri')  # an append killed mid-line
        assert run(session_dir, "search", "--name", "F", "--phrase", "topic alpha") == 0
        enrichment = tmp_path / "abstracts.jsonl"
        enrichment.write_text(json.dumps({"id": "seed", "abstract": "text"}) + "\n")
        assert run(session_dir, "enrich", str(enrichment)) == 0
        repaired = store_path.read_bytes()
        assert repaired.endswith(b"\n") and repaired.count(b"\n") == intact.count(b"\n")
        changed = [
            (json.loads(old), json.loads(new))
            for old, new in zip(intact.splitlines(), repaired.splitlines())
            if old != new
        ]
        assert len(changed) == 1
        before, after = changed[0]
        assert before["id"] == "seed" and after == {**before, "abstract": "text"}

    def test_garbled_store_line_exits_4(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        with open(session_dir / "store.jsonl", "ab") as fh:
            fh.write(b"not a record\n")
        capsys.readouterr()
        assert run(session_dir, "search", "--name", "F", "--phrase", "topic") == 4
        assert "line 22" in one_error_line(capsys)

    def test_invalid_record_line_exits_4_and_keeps_the_store(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        store_path = session_dir / "store.jsonl"
        lines = store_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = json.dumps({**json.loads(lines[4]), "year": "1999"}, sort_keys=True) + "\n"
        store_path.write_text("".join(lines), encoding="utf-8")
        damaged = store_path.read_bytes()
        enrichment = tmp_path / "abstracts.jsonl"
        enrichment.write_text(json.dumps({"id": "seed", "abstract": "text"}) + "\n")
        capsys.readouterr()
        assert run(session_dir, "search", "--name", "F", "--phrase", "topic") == 4
        err = one_error_line(capsys)
        assert "line 5" in err and "year is not an integer" in err
        assert run(session_dir, "enrich", str(enrichment)) == 4
        assert "line 5" in one_error_line(capsys)
        assert store_path.read_bytes() == damaged
        assert not (session_dir / "datasets" / "F.json").exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "dimensions-csv"])
    def test_non_utf8_ingest_exits_4(self, tmp_path, capsys, fmt):
        path = tmp_path / "latin1.txt"
        path.write_bytes("Publication ID,Title,PubYear\np1,Caf\u00e9,2001\n".encode("latin-1"))
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(path), "--format", fmt) == 4
        one_error_line(capsys)
        assert not (session_dir / "store.jsonl").exists()

    def test_non_utf8_enrich_exits_4(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        before = (session_dir / "store.jsonl").read_bytes()
        path = tmp_path / "abstracts.jsonl"
        path.write_bytes(b'{"id": "seed", "abstract": "caf\xe9"}\n')
        capsys.readouterr()
        assert run(session_dir, "enrich", str(path)) == 4
        one_error_line(capsys)
        assert (session_dir / "store.jsonl").read_bytes() == before

    def test_wrong_row_types_are_rejected_rows(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        rows = [
            {"id": "a", "title": "t", "year": 2000, "reference_ids": [], "authors": 5},
            {"id": "b", "title": "t", "year": 2000, "reference_ids": [], "abstract": 7},
            {"id": "c", "title": "t", "year": 2000, "reference_ids": []},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows) + "[1]\n", encoding="utf-8")
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(path)) == 0
        report = (session_dir / "reports" / "rows.load-report.csv").read_text()
        assert report.splitlines()[1:] == [
            "1,authors is not a list", "2,abstract is not a string", "4,row is not an object",
        ]
        enrichment = tmp_path / "abstracts.jsonl"
        enrichment.write_text('[1]\n"text"\n{"id": "c", "abstract": "ok"}\n', encoding="utf-8")
        assert run(session_dir, "enrich", str(enrichment)) == 0
        assert "enriched 1 records, 0 unmatched, 2 rows skipped" in capsys.readouterr().out


def finished_session(tmp_path, corpus) -> Path:
    """A session holding datasets F and S, network F with its clusters, and a projection."""
    session_dir = tmp_path / "sess"
    for argv in (
        ["ingest", str(corpus)],
        ["search", "--name", "F", "--phrase", "topic alpha"],
        ["expand", "--name", "S", "--seed", "seed", "--stages", "F:2",
         "--theta-citer", "0", "--theta-ref", "0"],
        ["union", "--name", "combined", "--datasets", "F,S"],
        ["network", "--dataset", "combined", "--name", "F", "--min-citations", "0"],
        ["cluster", "--network", "F"],
        ["compare", "--datasets", "F,S", "--base", "F"],
    ):
        assert run(session_dir, *argv) == 0
    return session_dir


# A valid JSON value of the wrong shape for each artifact.
WRONG_SHAPE = {
    "datasets/F.json": '{"name": "F", "member_ids": 7}',
    "networks/F.json": '{"nodes": 5, "edges": []}',
    "networks/F.clusters.json": '{"level1": []}',
    "reports/projection.json": '{"datasets": ["F"], "membership": []}',
}


class TestDamagedArtifacts:
    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape"])
    @pytest.mark.parametrize(
        "damaged, argv",
        [
            ("datasets/F.json", ["union", "--name", "U", "--datasets", "F,S"]),
            ("networks/F.json", ["report", "--kind", "networks"]),
            ("networks/F.clusters.json", ["render", "--network", "F"]),
            ("reports/projection.json", ["render", "--network", "F", "--overlay"]),
        ],
    )
    def test_damaged_artifact_exits_4(self, tmp_path, corpus, capsys, damaged, argv, damage):
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / damaged
        if damage == "truncated":
            text = path.read_bytes()
            path.write_bytes(text[: len(text) // 2])
        else:
            path.write_text(WRONG_SHAPE[damaged], encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        assert f"unreadable session file {path}" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv", [["report", "--kind", "networks"], ["cluster", "--network", "F"], ["render", "--network", "F"]]
    )
    def test_edge_to_an_unlisted_node_exits_4(self, tmp_path, corpus, capsys, argv):
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["edges"].append({"source": "ghost", "target": data["nodes"][0]["id"],
                              "weight": 1, "first_cocited_year": 2000})
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and "'ghost'" in err

    @pytest.mark.parametrize(
        "argv", [["report", "--kind", "networks"], ["cluster", "--network", "F"], ["render", "--network", "F"]]
    )
    def test_self_loop_exits_4(self, tmp_path, corpus, capsys, argv):
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["nodes"].append({"id": "ZZZ", "count": 1, "year": 2000})
        data["edges"].append({"source": "ZZZ", "target": "ZZZ", "weight": 1, "first_cocited_year": 2000})
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and "'ZZZ' to itself" in err

    @pytest.mark.parametrize(
        "argv", [["report", "--kind", "networks"], ["cluster", "--network", "F"], ["render", "--network", "F"]]
    )
    def test_non_string_node_id_exits_4(self, tmp_path, corpus, capsys, argv):
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["nodes"].append({"id": 5, "count": 1, "year": 2000})
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and "node id 5 is not a string" in err

    @pytest.mark.parametrize(
        "what, value",
        [("edge weight", 0), ("edge weight", -1), ("edge weight", 2.5), ("node count", 0)],
    )
    @pytest.mark.parametrize(
        "argv", [["report", "--kind", "networks"], ["cluster", "--network", "F"], ["render", "--network", "F"]]
    )
    def test_weight_or_count_below_one_exits_4(self, tmp_path, corpus, capsys, argv, what, value):
        # A weight of -1 once drew a complex stroke width, and 2.5 was read as 2.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        if what == "edge weight":
            data["edges"][0]["weight"] = value
        else:
            data["nodes"][0]["count"] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and f"{what} {value!r} is not an integer >= 1" in err

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("node year", "1999", "node year '1999' is not an integer"),
            ("node year", True, "node year True is not an integer"),
            ("first_cocited_year", 2000.7, "first_cocited_year 2000.7 is not an integer"),
            ("slice start", 1999.5, "slice start 1999.5 is not an integer"),
            ("slice citers", "P001", "slice citers 'P001' is not a list of strings"),
            ("slice citers", [1], "slice citers [1] is not a list of strings"),
            ("top_n", 2.5, "config top_n 2.5 is not an integer"),
            ("lrf", "4", "config lrf '4' is not a number"),
            ("lby", 2.5, "config lby 2.5 is not an integer or null"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["report", "--kind", "networks"], ["cluster", "--network", "F"], ["render", "--network", "F"]]
    )
    def test_mistyped_network_value_exits_4(self, tmp_path, corpus, capsys, argv, where, value, message):
        # Each was once read: "1999" and 2000.7 through int(), "P001" as four citers.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        if where == "node year":
            data["nodes"][0]["year"] = value
        elif where == "first_cocited_year":
            data["edges"][0]["first_cocited_year"] = value
        elif where == "slice start":
            data["slices"][0]["start"] = value
        elif where == "slice citers":
            data["slices"][0]["citers"] = value
        else:
            data["config"][where] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and message in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("top_n", 0, "top_n and slice_years must be >= 1"),
            ("slice_years", 0, "top_n and slice_years must be >= 1"),
            ("lby", 0, "lby must be >= 1 when set"),
            ("lrf", -1.0, "lrf must be a finite positive number"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["report", "--kind", "networks"], ["cluster", "--network", "F"], ["render", "--network", "F"]]
    )
    def test_network_config_out_of_range_exits_4(self, tmp_path, corpus, capsys, argv, field, value, message):
        # Once exit 3 with the config's own message, naming no file.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["config"][field] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and message in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("index '0'", "cluster index '0' is not an integer"),
            ("index 99", "cluster index 99 is not its position 0"),
            ("members a string", "is not a list of strings"),
            ("members not strings", "members of cluster 0 [7] is not a list of strings"),
            ("no members", "cluster 0 lists no member, or one listed before"),
            ("member twice", "cluster 1 lists no member, or one listed before"),
            ("label 5", "label 5 is not a string or null"),
            ("silhouette true", "silhouette True is not a number or null"),
            ("modularity 'x'", "modularity 'x' is not a number or null"),
            ("mean_silhouette false", "mean_silhouette False is not a number or null"),
            ("level '1'", "level '1' is not an integer"),
            ("parent 0.5", "parent 0.5 is not an integer or null"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [["render", "--network", "F"], ["compare", "--datasets", "F,S", "--base", "F"],
         ["report", "--kind", "networks"]],
    )
    def test_damaged_clusters_file_exits_4(self, tmp_path, corpus, capsys, argv, damage, message):
        # The inputs key still matches, so the damaged file counts as current. "index '0'"
        # and "modularity 'x'" once ended in tracebacks, and a string of members was read
        # as its characters.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.clusters.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        level1 = data["level1"]
        first, second = level1["clusters"][0], level1["clusters"][1]
        if damage == "index '0'":
            first["index"] = "0"
        elif damage == "index 99":
            first["index"] = 99
        elif damage == "members a string":
            first["members"] = first["members"][0]
        elif damage == "members not strings":
            first["members"] = [7]
        elif damage == "no members":
            first["members"] = []
        elif damage == "member twice":
            second["members"].append(first["members"][0])
        elif damage == "label 5":
            first["label"] = 5
        elif damage == "silhouette true":
            first["silhouette"] = True
        else:
            field, value = damage.split(" ")
            level1[field] = json.loads(value.replace("'", '"'))
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and message in err

    def test_partition_member_outside_the_base_network_exits_3(self, tmp_path, corpus, capsys):
        # Once a KeyError traceback.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.clusters.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["level1"]["clusters"][0]["members"].append("ghost")
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, "compare", "--datasets", "F,S", "--base", "F") == 3
        assert "partition member 'ghost' is not a node of the base network" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "change, message",
        [
            ("ghost", "partition member 'ghost' is not a node of the base network"),
            ("missing member", "partition does not cover the base network (1 nodes missing)"),
        ],
    )
    @pytest.mark.parametrize("argv", [["render", "--network", "F"], ["report", "--kind", "networks"]])
    def test_partition_of_other_nodes_exits_3(self, tmp_path, corpus, capsys, argv, change, message):
        # Both once exited 0: the render skipped the ghost, the report printed the scores.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "networks" / "F.clusters.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        largest = max(data["level1"]["clusters"], key=lambda cluster: len(cluster["members"]))
        assert len(largest["members"]) >= 2
        if change == "ghost":
            largest["members"].append("ghost")
        else:
            largest["members"].pop()
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, *argv) == 3
        assert message in one_error_line(capsys)


def cluster_files(session_dir: Path, name: str) -> list[Path]:
    networks = session_dir / "networks"
    return [networks / f"{name}.{suffix}" for suffix in ("clusters.json", "clusters.csv", "concepts.txt")]


class TestRebuiltNetwork:
    def test_changed_network_drops_its_clustering(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        network_path = session_dir / "networks" / "F.json"
        before = network_path.read_bytes()
        assert run(session_dir, "network", "--dataset", "combined", "--name", "F",
                   "--min-citations", "0", "--lrf", "1") == 0
        assert network_path.read_bytes() != before
        kept = {path: path.read_bytes() for path in cluster_files(session_dir, "F")}
        assert all(kept.values())  # kept on disk, not used from here on

        capsys.readouterr()
        assert run(session_dir, "report", "--kind", "networks") == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.startswith("F,") and row.endswith(",,")  # no modularity, no silhouette
        assert run(session_dir, "render", "--network", "F") == 0
        svg = (session_dir / "renders" / "F.map.svg").read_text(encoding="utf-8")
        fills = set(re.findall(r'<circle [^>]*fill="([^"]+)"', svg))
        assert fills == {"#4878a8"}  # drawn without a partition
        assert {path: path.read_bytes() for path in kept} == kept

    def test_identical_rebuild_keeps_the_clustering(self, tmp_path, corpus):
        session_dir = finished_session(tmp_path, corpus)
        kept = {path: path.read_bytes() for path in cluster_files(session_dir, "F")}
        assert run(session_dir, "network", "--dataset", "combined", "--name", "F",
                   "--min-citations", "0") == 0
        assert {path: path.read_bytes() for path in kept} == kept


def strip_keys(session_dir: Path) -> None:
    """Rewrite the keyed artifacts of network F as earlier versions wrote them: no
    ``inputs`` field or line, and the layout cache as a CSV file in place of the JSON."""
    for rel in ("networks/F.clusters.json", "reports/projection.json"):
        path = session_dir / rel
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["inputs"]
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for rel in ("networks/F.clusters.csv", "networks/F.concepts.txt", "reports/coverage.csv"):
        path = session_dir / rel
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        assert first.startswith("# inputs ")
        path.write_text(rest, encoding="utf-8")
    positions = session_dir / "renders" / "F.positions.json"
    cached = json.loads(positions.read_text(encoding="utf-8"))
    positions.unlink()
    nodes = sorted(Session(session_dir).load_network("F").nodes)
    rows = [(node, repr(x), repr(y)) for node, x, y in zip(nodes, cached["x"], cached["y"])]
    (session_dir / "renders" / "F.positions.csv").write_text(
        csv_text([("id", "x", "y"), *rows], comments=[f"inputs {cached['inputs']}"]), encoding="utf-8")


class TestInputKeys:
    """Each derived artifact is used only with the inputs it was computed from."""

    def test_keys_name_each_input_and_change_nothing_else(self, tmp_path, corpus):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "render", "--network", "F") == 0

        def sha(rel: str) -> str:
            return hashlib.sha256((session_dir / rel).read_bytes()).hexdigest()

        network_key = f"networks/F.json={sha('networks/F.json')}"
        projection_key = (f"{network_key} networks/F.clusters.json={sha('networks/F.clusters.json')} "
                          f"datasets/F.json={sha('datasets/F.json')} datasets/S.json={sha('datasets/S.json')}")
        clusters = json.loads((session_dir / "networks" / "F.clusters.json").read_text(encoding="utf-8"))
        assert clusters["inputs"] == network_key
        projection = json.loads((session_dir / "reports" / "projection.json").read_text(encoding="utf-8"))
        assert projection["inputs"] == projection_key
        assert sorted(projection) == ["coverage", "datasets", "inputs", "membership"]
        positions = json.loads((session_dir / "renders" / "F.positions.json").read_text(encoding="utf-8"))
        assert positions["inputs"] == f"{network_key} seed=42 iterations=50 layout=2"
        assert sorted(positions) == ["inputs", "x", "y"]
        first_lines = {
            rel: (session_dir / rel).read_text(encoding="utf-8").split("\n", 1)[0]
            for rel in ("networks/F.clusters.csv", "networks/F.concepts.txt", "reports/coverage.csv")
        }
        clusters_key = f"networks/F.clusters.json={sha('networks/F.clusters.json')}"
        assert first_lines == {
            "networks/F.clusters.csv": f"# inputs {clusters_key}",
            "networks/F.concepts.txt": f"# inputs {clusters_key}",
            "reports/coverage.csv": f"# inputs reports/projection.json={sha('reports/projection.json')}",
        }
        coverage = (session_dir / "reports" / "coverage.csv").read_text(encoding="utf-8")
        assert coverage.splitlines()[1] == "# threshold=0.1 epsilon=0.05"
        table = (session_dir / "networks" / "F.clusters.csv").read_text(encoding="utf-8")
        assert table.splitlines()[1] == "node,cluster,silhouette"

    def test_overlap_report_keeps_the_compared_matrix(self, tmp_path, corpus):
        session_dir = finished_session(tmp_path, corpus)
        reports = session_dir / "reports"
        compared = (reports / "compare.csv").read_bytes()
        assert run(session_dir, "report", "--kind", "overlap", "--datasets", "F,S,combined") == 0
        assert (reports / "compare.csv").read_bytes() == compared
        assert table_rows(reports / "compare.csv")[0] == ["name", "F", "S"]
        assert table_rows(reports / "overlap.csv")[0] == ["name", "F", "S", "combined"]

    def test_rebuilt_base_needs_a_new_compare(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "render", "--network", "F", "--overlay") == 0
        assert run(session_dir, "network", "--dataset", "combined", "--name", "F",
                   "--min-citations", "0", "--lrf", "1") == 0
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "F", "--overlay") == 4
        assert "run compare --base F" in one_error_line(capsys)
        previous = (session_dir / "reports" / "compare.csv").read_bytes()
        for names in ("F,S", "S,F"):  # S,F would write another matrix
            assert run(session_dir, "compare", "--datasets", names, "--base", "F") == 4
            assert "run cluster --network F" in one_error_line(capsys)
        assert (session_dir / "reports" / "compare.csv").read_bytes() == previous
        for argv in (["cluster", "--network", "F"], ["compare", "--datasets", "F,S", "--base", "F"],
                     ["render", "--network", "F", "--overlay"]):
            assert run(session_dir, *argv) == 0

    def test_stale_and_damaged_clustering_is_a_format_error(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "network", "--dataset", "combined", "--name", "F",
                   "--min-citations", "0", "--lrf", "1") == 0
        clusters = session_dir / "networks" / "F.clusters.json"
        clusters.write_text(WRONG_SHAPE["networks/F.clusters.json"], encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "F") == 4
        assert f"unreadable session file {clusters}" in one_error_line(capsys)

    def test_never_compared_network_has_no_overlay(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "network", "--dataset", "S", "--name", "G", "--min-citations", "0") == 0
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "G", "--overlay") == 4
        assert "no current projection onto network 'G'; run compare --base G" in one_error_line(capsys)
        assert not list((session_dir / "renders").glob("G.overlay.*"))
        before = session_files(session_dir)
        assert run(session_dir, "compare", "--datasets", "F,S", "--base", "G") == 4  # G has no clustering
        assert "run cluster --network G" in one_error_line(capsys)
        assert session_files(session_dir) == before

    @pytest.mark.parametrize("change", ["re-searched", "deleted"])
    def test_changed_or_missing_dataset_needs_a_new_compare(self, tmp_path, corpus, capsys, change):
        session_dir = finished_session(tmp_path, corpus)
        if change == "re-searched":
            assert run(session_dir, "search", "--name", "F", "--phrase", "topic beta") == 0
        else:
            (session_dir / "datasets" / "S.json").unlink()
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "F", "--overlay") == 4
        assert "run compare --base F" in one_error_line(capsys)
        assert run(session_dir, "render", "--network", "F") == 0  # the clustering is still current

    def test_identical_rebuild_keeps_the_overlay(self, tmp_path, corpus):
        session_dir = finished_session(tmp_path, corpus)
        overlay = session_dir / "renders" / "F.overlay.svg"
        assert run(session_dir, "render", "--network", "F", "--overlay") == 0
        first = overlay.read_bytes()
        for argv in (["search", "--name", "F", "--phrase", "topic alpha"],
                     ["network", "--dataset", "combined", "--name", "F", "--min-citations", "0"],
                     ["render", "--network", "F", "--overlay"]):
            assert run(session_dir, *argv) == 0
        assert overlay.read_bytes() == first

    def test_session_of_the_previous_format(self, tmp_path, corpus, capsys, layout_calls):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "render", "--network", "F") == 0
        fresh = (session_dir / "renders" / "F.positions.json").read_bytes()
        strip_keys(session_dir)
        older = (session_dir / "renders" / "F.positions.csv").read_bytes()
        capsys.readouterr()
        assert run(session_dir, "report", "--kind", "networks") == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(",,")  # no modularity, no silhouette
        for _ in range(2):
            assert run(session_dir, "render", "--network", "F") == 0
        assert layout_calls == [42, 42]  # recomputed once, then read back
        assert (session_dir / "renders" / "F.positions.json").read_bytes() == fresh
        assert (session_dir / "renders" / "F.positions.csv").read_bytes() == older  # neither read nor deleted
        svg = (session_dir / "renders" / "F.map.svg").read_text(encoding="utf-8")
        assert set(re.findall(r'<circle [^>]*fill="([^"]+)"', svg)) == {"#4878a8"}
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "F", "--overlay") == 4
        assert "run compare --base F" in one_error_line(capsys)
        assert run(session_dir, "compare", "--datasets", "F,S", "--base", "F") == 4
        assert "run cluster --network F" in one_error_line(capsys)


@pytest.fixture
def layout_calls(monkeypatch) -> list[int]:
    """The seed of every layout the session computes, in call order."""
    calls: list[int] = []

    def counting_layout(network, seed):
        calls.append(seed)
        return layout(network, seed)

    monkeypatch.setattr(session_module, "layout", counting_layout)
    return calls


@st.composite
def cache_networks(draw) -> CoCitationNetwork:
    """Up to 10 nodes whose ids hold quotes, commas, spaces and non-ASCII letters,
    linked at random; nodes left without a link stay in as isolated nodes."""
    ids = draw(st.lists(st.text('a",é€ ', min_size=1, max_size=4), min_size=1, max_size=10, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=15))
    edges = {tuple(sorted(pair)): EdgeInfo(1, 2000) for pair in pairs if pair[0] != pair[1]}
    return CoCitationNetwork({node: NodeInfo(1, 2000) for node in ids}, edges, NetworkConfig())


# One bad value in a layout cache, each of which must be laid out again.
ONE_VALUE_DAMAGE = {
    "short list": lambda cached: cached["x"].pop(),
    "extra value": lambda cached: cached["y"].append(0.5),
    "NaN": lambda cached: cached["x"].__setitem__(0, float("nan")),
    "true": lambda cached: cached["y"].__setitem__(0, True),
    "string": lambda cached: cached["x"].__setitem__(0, "1.0"),
    "no y": lambda cached: cached.pop("y"),
}


class TestLayoutCache:
    def test_second_render_reads_the_positions(self, tmp_path, corpus, layout_calls):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "render", "--network", "F", "--overlay") == 0
        assert run(session_dir, "render", "--network", "F") == 0
        assert layout_calls == [42]
        session = Session(session_dir)
        network = session.load_network("F")
        assert session.layout_positions("F", network) == layout(network, 42)  # exact floats
        assert layout_calls == [42]

    def test_cached_and_fresh_renders_are_byte_identical(self, tmp_path, corpus, layout_calls):
        session_dir = finished_session(tmp_path, corpus)
        renders = session_dir / "renders"
        outputs = []
        for _ in range(2):  # the first render lays out, the second reads the file
            assert run(session_dir, "render", "--network", "F", "--overlay") == 0
            outputs.append({p.name: p.read_bytes() for p in renders.glob("F.overlay.*")})
        assert layout_calls == [42]
        assert sorted(outputs[0]) == ["F.overlay.html", "F.overlay.svg"]
        assert outputs[0] == outputs[1]

    def test_changed_network_or_seed_recomputes(self, tmp_path, corpus, layout_calls):
        session_dir = finished_session(tmp_path, corpus)
        positions = session_dir / "renders" / "F.positions.json"
        assert run(session_dir, "render", "--network", "F") == 0
        first = positions.read_bytes()
        assert run(session_dir, "network", "--dataset", "combined", "--name", "F",
                   "--min-citations", "0", "--lrf", "1") == 0
        assert run(session_dir, "render", "--network", "F") == 0
        assert layout_calls == [42, 42]
        assert positions.read_bytes() != first
        key = json.loads(positions.read_text(encoding="utf-8"))["inputs"]
        assert re.fullmatch(r"networks/F\.json=[0-9a-f]{64} seed=42 iterations=50 layout=2", key)

    def test_positions_of_the_previous_layout_are_recomputed(self, tmp_path, corpus, layout_calls):
        session_dir = finished_session(tmp_path, corpus)
        positions = session_dir / "renders" / "F.positions.json"
        assert run(session_dir, "render", "--network", "F") == 0
        fresh = positions.read_bytes()
        svg = (session_dir / "renders" / "F.map.svg").read_bytes()
        cached = json.loads(fresh)
        assert cached["inputs"].endswith(" seed=42 iterations=50 layout=2")
        # The key the whole-network layout wrote, over positions that are not this layout's.
        older = {"inputs": cached["inputs"].removesuffix(" layout=2"), "x": cached["y"], "y": cached["x"]}
        positions.write_text(json_text(older), encoding="utf-8")
        assert run(session_dir, "render", "--network", "F") == 0
        assert layout_calls == [42, 42]
        assert positions.read_bytes() == fresh
        assert (session_dir / "renders" / "F.map.svg").read_bytes() == svg

    @pytest.mark.parametrize("damage", ["truncated", "non-numeric", "missing-node", "extra-node"])
    def test_damaged_positions_are_recomputed(self, tmp_path, corpus, capsys, layout_calls, damage):
        session_dir = finished_session(tmp_path, corpus)
        positions = session_dir / "renders" / "F.positions.json"
        assert run(session_dir, "render", "--network", "F") == 0
        fresh = positions.read_bytes()
        cached = json.loads(fresh)
        if damage == "truncated":
            positions.write_bytes(fresh[:-7])
        else:
            if damage == "non-numeric":
                cached["x"][-1] = "abc"
            elif damage == "missing-node":
                del cached["x"][-1], cached["y"][-1]
            else:
                cached["x"].append(0.5)
                cached["y"].append(0.5)
            positions.write_text(json_text(cached), encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "F") == 0
        assert capsys.readouterr().err == ""
        assert layout_calls == [42, 42]
        assert positions.read_bytes() == fresh

    @settings(max_examples=25, deadline=None)
    @given(network=cache_networks(), damage=st.sampled_from(sorted(ONE_VALUE_DAMAGE)))
    def test_positions_read_back_exactly_and_one_bad_value_recomputes(self, network, damage):
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(session_module, "layout", wraps=layout) as counted:
            session = Session(root)
            session.save_network("N", network, network_stats(network))
            first = session.layout_positions("N", network)
            assert list(first) == sorted(network.nodes)
            assert list(session.layout_positions("N", network).items()) == list(first.items())  # exact floats
            assert counted.call_count == 1
            path = session.path("positions", "N")
            fresh = path.read_bytes()
            cached = json.loads(fresh)
            ONE_VALUE_DAMAGE[damage](cached)
            path.write_text(json.dumps(cached), encoding="utf-8")
            assert list(session.layout_positions("N", network).items()) == list(first.items())
            assert counted.call_count == 2
            assert path.read_bytes() == fresh

    def test_networks_report_does_not_list_the_positions(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        assert run(session_dir, "render", "--network", "F") == 0
        assert (session_dir / "renders" / "F.positions.json").exists()
        capsys.readouterr()
        assert run(session_dir, "report", "--kind", "networks") == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["F"]


# Re-runs every command that does no arithmetic, in one process, then names the
# numpy modules that got loaded.
WITHOUT_ARITHMETIC = """
import json, sys
from citecascade.cli import main
session, corpus, enrichment = sys.argv[1:]
for argv in (
    ["ingest", corpus],
    ["enrich", enrichment],
    ["search", "--name", "F", "--phrase", "topic alpha"],
    ["expand", "--name", "S", "--seed", "seed", "--stages", "F:2", "--theta-citer", "0", "--theta-ref", "0"],
    ["union", "--name", "combined", "--datasets", "F,S"],
    ["network", "--dataset", "combined", "--name", "F", "--min-citations", "0"],
    ["compare", "--datasets", "F,S", "--base", "F"],
    ["render", "--distributions", "F,S"],
    ["report", "--kind", "datasets"],
    ["report", "--kind", "overlap", "--datasets", "F,S"],
    ["report", "--kind", "networks"],
):
    assert main(["--session", session, *argv]) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "numpy")))
"""


def test_commands_without_arithmetic_do_not_load_numpy(tmp_path, corpus):
    session_dir = finished_session(tmp_path, corpus)
    enrichment = tmp_path / "abstracts.jsonl"
    enrichment.write_text(json.dumps({"id": "seed", "abstract": "long form text"}) + "\n",
                          encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(citecascade.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_ARITHMETIC, str(session_dir), str(corpus), str(enrichment)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_network_report_reads_no_store(tmp_path, corpus, monkeypatch):
    session_dir = finished_session(tmp_path, corpus)
    assert run(session_dir, "report", "--kind", "networks") == 0
    table = session_dir / "reports" / "networks.csv"
    expected = table.read_bytes()
    table.unlink()

    def refuse(self):
        raise AssertionError("report --kind networks loaded the store")

    monkeypatch.setattr(Session, "load_store", refuse)
    assert run(session_dir, "report", "--kind", "networks") == 0
    assert table.read_bytes() == expected


def counted_session(tmp_path, corpus) -> Path:
    """A session holding networks A and B, built from one dataset with two link
    bounds, and no clustering."""
    session_dir = tmp_path / "sess"
    for argv in (
        ["ingest", str(corpus)],
        ["search", "--name", "F", "--phrase", "topic alpha"],
        ["expand", "--name", "S", "--seed", "seed", "--stages", "F:2",
         "--theta-citer", "0", "--theta-ref", "0"],
        ["union", "--name", "combined", "--datasets", "F,S"],
        ["network", "--dataset", "combined", "--name", "A", "--min-citations", "0"],
        ["network", "--dataset", "combined", "--name", "B", "--min-citations", "0", "--lrf", "1"],
    ):
        assert run(session_dir, *argv) == 0
    return session_dir


def parsed_networks_report(session_dir: Path) -> bytes:
    """``reports/networks.csv`` as the report writes it when it parses every network,
    counted in a copy of the session without its counts files."""
    with tempfile.TemporaryDirectory() as root:
        copy = Path(root) / "sess"
        copy.mkdir()
        for rel, data in session_files(session_dir).items():
            if not rel.endswith(".stats") and rel != ".lock":
                (copy / rel).parent.mkdir(parents=True, exist_ok=True)
                (copy / rel).write_bytes(data)
        assert main(["--session", str(copy), "report", "--kind", "networks"]) == 0
        return (copy / "reports" / "networks.csv").read_bytes()


class TestNetworkCounts:
    """``network`` writes ``networks/<name>.stats``, keyed to the network JSON, and
    ``report --kind networks`` reads it instead of the network when it is current."""

    @pytest.mark.parametrize("case", [
        "current", "deleted", "stale", "truncated", "non-int count", "bool count", "missing field", "not an object",
    ])
    def test_report_is_the_same_whatever_the_counts_file(self, tmp_path, corpus, capsys, case):
        session_dir = finished_session(tmp_path, corpus)  # F has a clustering
        for argv in (["network", "--dataset", "combined", "--name", "A", "--min-citations", "0"],
                     ["network", "--dataset", "combined", "--name", "B", "--min-citations", "0", "--lrf", "1"]):
            assert run(session_dir, *argv) == 0
        counts = session_dir / "networks" / "A.stats"
        fresh = json.loads(counts.read_text(encoding="utf-8"))
        if case == "deleted":
            counts.unlink()
        elif case == "stale":  # rebuilt under the same name with other flags, old counts put back
            old = counts.read_bytes()
            assert run(session_dir, "network", "--dataset", "combined", "--name", "A",
                       "--min-citations", "0", "--lrf", "1") == 0
            assert json.loads(counts.read_text(encoding="utf-8"))["edges"] != fresh["edges"]
            counts.write_bytes(old)
        elif case == "truncated":
            counts.write_bytes(counts.read_bytes()[:-9])
        elif case != "current":
            damaged = dict(fresh)
            if case == "non-int count":
                damaged["edges"] = float(fresh["edges"])
            elif case == "bool count":
                damaged["lcc_pct_floor"] = True
            elif case == "missing field":
                del damaged["lcc_size"]
            else:
                damaged = [damaged]
            counts.write_text(json_text(damaged), encoding="utf-8")
        expected = parsed_networks_report(session_dir)
        networks = {rel: data for rel, data in session_files(session_dir).items() if rel.startswith("networks/")}
        capsys.readouterr()
        assert run(session_dir, "report", "--kind", "networks") == 0
        assert capsys.readouterr().err == ""
        assert (session_dir / "reports" / "networks.csv").read_bytes() == expected
        assert [row.split(",")[0] for row in expected.decode().splitlines()[2:]] == ["A", "B", "F"]
        assert {rel: data for rel, data in session_files(session_dir).items()
                if rel.startswith("networks/")} == networks  # the report writes nothing there

    def test_current_counts_parse_no_network(self, tmp_path, corpus, monkeypatch):
        session_dir = counted_session(tmp_path, corpus)
        expected = parsed_networks_report(session_dir)

        def refuse(cls, data):
            raise AssertionError("report --kind networks parsed a network")

        monkeypatch.setattr(CoCitationNetwork, "from_json_dict", classmethod(refuse))
        assert run(session_dir, "report", "--kind", "networks") == 0
        assert (session_dir / "reports" / "networks.csv").read_bytes() == expected

    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape"])
    def test_damaged_network_next_to_its_old_counts_exits_4(self, tmp_path, corpus, capsys, damage):
        session_dir = counted_session(tmp_path, corpus)
        path = session_dir / "networks" / "A.json"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-9])
        else:
            path.write_text(WRONG_SHAPE["networks/F.json"], encoding="utf-8")
        capsys.readouterr()
        assert run(session_dir, "report", "--kind", "networks") == 4
        assert f"unreadable session file {path}" in one_error_line(capsys)

    def test_bundled_counts_agree_with_the_network(self, bundled_session):
        session = Session(bundled_session)
        stats = network_stats(session.load_network("combined"))
        assert asdict(stats) == {"nodes": 341, "edges": 1364, "lcc_size": 205, "lcc_pct": 60, "lcc_pct_floor": 60}
        network_json = (bundled_session / "networks" / "combined.json").read_bytes()
        key = "networks/combined.json=" + hashlib.sha256(network_json).hexdigest()
        counts = (bundled_session / "networks" / "combined.stats").read_text(encoding="utf-8")
        assert counts == json_text({**asdict(stats), "inputs": key})
        assert session.network_counts("combined") == stats

    @settings(max_examples=25, deadline=None)
    @given(network=cache_networks())
    def test_counts_read_back_for_odd_ids(self, network):
        with tempfile.TemporaryDirectory() as root:
            session = Session(root)
            stats = network_stats(network)
            session.save_network("N", network, stats)
            assert session.network_counts("N") == stats
            assert session.names("network") == ["N"]
            assert session.load_network("N").nodes == network.nodes

    def test_empty_network_is_not_written(self, tmp_path, corpus, capsys):
        session_dir = finished_session(tmp_path, corpus)
        before = session_files(session_dir)
        capsys.readouterr()
        for name in ("E", "F"):  # a new name, and the name of a network with its clustering
            assert run(session_dir, "network", "--dataset", "F", "--name", name, "--min-citations", "0",
                       "--lby", "1") == 3
            assert "dataset 'F'" in one_error_line(capsys)
        assert session_files(session_dir) == before
        assert run(session_dir, "report", "--kind", "networks") == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["F"]


def store_lines(session_dir: Path) -> list[dict]:
    return [json.loads(line) for line in (session_dir / "store.jsonl").read_bytes().splitlines()]


class TestStoreWrites:
    """ingest and enrich write store.jsonl whole, one line per record."""

    @staticmethod
    def shards(tmp_path, corpus) -> tuple[Path, Path, Path]:
        """Two overlapping shards (the second extends the reference lists it
        shares) and an enrichment file matching one record by id, one by title."""
        rows = [json.loads(line) for line in corpus.read_text().splitlines()]
        second = [dict(row, reference_ids=row["reference_ids"] + ["r7"]) for row in rows[12:]]
        paths = (tmp_path / "shard1.jsonl", tmp_path / "shard2.jsonl", tmp_path / "abstracts.jsonl")
        enrichment = [
            {"id": "c01", "abstract": "first"},
            {"title": rows[0]["title"].upper(), "year": rows[0]["year"], "abstract": "second"},
        ]
        for path, part in zip(paths, (rows[:16], second, enrichment)):
            path.write_text("".join(json.dumps(row) + "\n" for row in part), encoding="utf-8")
        return paths

    def test_ingest_ingest_enrich_leave_one_line_per_record(self, tmp_path, corpus):
        shard1, shard2, enrichment = self.shards(tmp_path, corpus)
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(shard1)) == 0
        assert run(session_dir, "ingest", str(shard2)) == 0
        assert run(session_dir, "enrich", str(enrichment)) == 0
        expected = RecordStore()
        expected.ingest(shard1, "jsonl")
        expected.ingest(shard2, "jsonl")
        assert expected.enrich_abstracts(enrichment).enriched == 2
        lines = store_lines(session_dir)
        assert lines == [record.to_json_dict() for record in expected]
        assert len({line["id"] for line in lines}) == len(lines) == len(expected) == 21
        loaded = RecordStore.load(session_dir / "store.jsonl")
        assert [r.to_json_dict() for r in loaded] == lines

    @pytest.mark.parametrize("command", ["ingest", "enrich"])
    def test_older_append_log_loads_then_compacts(self, tmp_path, corpus, command):
        shard1, shard2, enrichment = self.shards(tmp_path, corpus)
        store = RecordStore()
        store.ingest(shard1, "jsonl")
        log = list(store.json_lines())
        store.ingest(shard2, "jsonl")
        log += store.json_lines()  # the lines shard 2 supersedes stay in an append log
        session_dir = tmp_path / "sess"
        Session(session_dir)
        store_path = session_dir / "store.jsonl"
        store_path.write_bytes("".join(log).encode() + b'{"id": "c03", "tit')
        replayed = RecordStore.load(store_path)
        assert [r.to_json_dict() for r in replayed] == [r.to_json_dict() for r in store]
        if command == "ingest":
            assert run(session_dir, "ingest", str(shard2)) == 0
            store.ingest(shard2, "jsonl")
        else:
            assert run(session_dir, "enrich", str(enrichment)) == 0
            store.enrich_abstracts(enrichment)
        assert store_path.read_text() == "".join(store.json_lines())

    def test_ingest_loading_no_row_writes_no_store(self, tmp_path, capsys):
        path = tmp_path / "rejects.jsonl"
        path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(path)) == 0
        assert "loaded 0 records (0 merged), 2 rejected" in capsys.readouterr().out
        assert not (session_dir / "store.jsonl").exists()

    def test_enrich_enriching_nothing_keeps_the_bytes(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        store_path = session_dir / "store.jsonl"
        with open(store_path, "a", encoding="utf-8") as fh:  # a superseded line, as appended
            fh.write(json.dumps(store_lines(session_dir)[0]) + "\n")
        before = store_path.read_bytes()
        enrichment = tmp_path / "abstracts.jsonl"
        enrichment.write_text('{"id": "ghost", "abstract": "text"}\n', encoding="utf-8")
        assert run(session_dir, "enrich", str(enrichment)) == 0
        assert store_path.read_bytes() == before

    def test_interrupted_store_write_keeps_the_old_store(self, tmp_path, corpus, monkeypatch):
        shard1, shard2, _enrichment = self.shards(tmp_path, corpus)
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(shard1))
        before = (session_dir / "store.jsonl").read_bytes()

        def killed(*_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            run(session_dir, "ingest", str(shard2))
        monkeypatch.undo()
        assert (session_dir / "store.jsonl").read_bytes() == before
        assert not list(session_dir.glob(".*.tmp"))
        assert run(session_dir, "ingest", str(shard2)) == 0


class TestRerunnability:
    def test_reingest_same_file_appends_nothing(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        before = (session_dir / "store.jsonl").read_bytes()
        run(session_dir, "ingest", str(corpus))
        after = (session_dir / "store.jsonl").read_bytes()
        assert before == after

    def test_rerun_overwrites_byte_identically(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        run(session_dir, "expand", "--name", "S", "--seed", "seed", "--stages", "F:2",
            "--theta-citer", "0", "--theta-ref", "0")
        run(session_dir, "network", "--dataset", "S", "--min-citations", "0")
        run(session_dir, "cluster", "--network", "S")

        watched = [
            session_dir / "datasets" / "S.json",
            session_dir / "traces" / "S.trace.csv",
            session_dir / "networks" / "S.graphml",
            session_dir / "networks" / "S.json",
            session_dir / "networks" / "S.clusters.json",
        ]
        first = {p: p.read_bytes() for p in watched}
        run(session_dir, "expand", "--name", "S", "--seed", "seed", "--stages", "F:2",
            "--theta-citer", "0", "--theta-ref", "0")
        run(session_dir, "network", "--dataset", "S", "--min-citations", "0")
        run(session_dir, "cluster", "--network", "S")
        for path, content in first.items():
            assert path.read_bytes() == content, path


# sha256 of the bundled pipeline's clusters.json with its float fields taken out
# (partitions, labels, top citers and concept trees). Re-recorded when the
# network config lost its unused ``e_param``: the ``inputs`` key hashes the
# network JSON, and nothing else in the file changed.
BUNDLED_CLUSTERS_SHA256 = "a65e99be3b22140246ab6fa48e5aae8244e5d5c08892f32053522a275966bd35"
FLOAT_FIELDS = {"modularity", "mean_silhouette", "silhouette"}


def without_floats(value):
    if isinstance(value, dict):
        return {k: without_floats(v) for k, v in value.items() if k not in FLOAT_FIELDS}
    if isinstance(value, list):
        return [without_floats(v) for v in value]
    return value


# The bundled pipeline; its first six commands end with the clustering.
BUNDLED_PIPELINE = [
    ["ingest", str(SYNTHETIC_CORPUS), "--format", "jsonl"],
    ["search", "--name", "F", "--phrase", "reinforcement learning"],
    ["expand", "--name", "S3", "--seed", "P010", "--stages", "F:3",
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
]


def test_bundled_clusters_and_top_citers_are_pinned(tmp_path):
    session_dir = tmp_path / "sess"
    for argv in BUNDLED_PIPELINE[:6]:
        assert run(session_dir, *argv) == 0
    payload = json.loads((session_dir / "networks" / "combined.clusters.json").read_text(encoding="utf-8"))
    assert sum(len(c["top_citers"]) for c in payload["level1"]["clusters"]) == 391
    digest = hashlib.sha256(json.dumps(without_floats(payload), sort_keys=True).encode()).hexdigest()
    assert digest == BUNDLED_CLUSTERS_SHA256


# sha256 of every table the bundled pipeline writes, recorded before every table
# went through records.csv_text; clusters.csv and coverage.csv re-recorded with
# the clusters file, for their ``# inputs`` line; compare.csv added when compare's
# matrix got its own file (overlap.csv is the report's, as before). The layout
# positions are pinned by the layout digest and TestLayoutCache instead.
# coverage.csv re-recorded again when the blocked silhouette join moved the last
# digit of stored silhouettes in the clusters file its ``# inputs`` line names.
# clusters.csv and coverage.csv re-recorded when their ``# inputs`` line came to name
# the file of their own group that is read back: clusters.json and projection.json.
BUNDLED_TABLE_SHA256 = {
    "networks/combined.clusters.csv": "ee920bc607781381bfcf14972f634e014965dbf70752d98fc44b4ae56d5f2176",
    "reports/compare.csv": "a245a79a4fd330b243e6372dbefa6860b68ef00fd1ec0dfbef395461769d0302",
    "reports/coverage.csv": "89059ae58cac7eb494ca487f5c9fa655e92ef27c2a0663e63df1cccbbe668952",
    "reports/datasets.csv": "283de53b742be45fd8ba4ac6b2ec9300d0b5aeb2b7461eedec50f4e85a9a7922",
    "reports/networks.csv": "7d43bd05d73e7058ea570694d30e33ed79eb9343155e0f13667adfa503529aa1",
    "reports/overlap.csv": "4ce43f77b326db532f5d02638b57cb7b4c576d63d4a65ca2f9644f9ff9675d6d",
    "reports/synthetic_500.load-report.csv": "6fac5a0a654694482a278b05771df56191d52da37f5ae4a1d60a28902d80e3c6",
    "traces/S3.trace.csv": "ea04d85d3ac28d722d5b67a166c31ed1a1747c1743cffa496fae81aa9f949c72",
}


# sha256 of the bundled pipeline's network files, recorded before network
# construction became one pass per stage (slice grouping, pair map, prune).
BUNDLED_NETWORK_SHA256 = {
    "networks/combined.json": "5b9fcdb23aced10af2f3a0b19da1a0f9cab1ab986b9cb8f045fd6d476b38d7c5",
    "networks/combined.graphml": "7a6f28af0d093cf85ed63417bc4ffc3d011bf365c49cb11dfa662206ac28d170",
}


# sha256 of the bundled pipeline's maps and year chart; the maps re-recorded
# when each component got its own layout, packed and fitted with one scale, and
# the map page added when the SVG moved from xml.etree to template rows. The year
# chart's key renamed, same digest, when its file took the charted names joined by ",".
BUNDLED_RENDER_SHA256 = {
    "renders/combined.map.svg": "c724639cc241cabc0356c2b6e4f961805d75570cddcb3d54d1a37d62e138f081",
    "renders/combined.overlay.svg": "79dca943752b05c29c954e3bb15cf09b9b20544627314982786442251530abe6",
    "renders/combined.map.html": "fa76da6a405072cc604ae6ecda0f46865fbabd348acb8799cb2fa47037bdf7eb",
    "renders/combined.overlay.html": "df2fa2130398819df74c05eafe92fa679f09c4c344ce399ecf36630323e3acac",
    "renders/F,S3,combined.years.svg": "0a38cde894b9c8df6b3a53dbb54c744b3bb0417f258abb9b5b0c6cbe6cf004cc",
}


@pytest.fixture(scope="module")
def bundled_session(tmp_path_factory) -> Path:
    """A fresh session after the whole bundled pipeline; tests only read it."""
    session_dir = tmp_path_factory.mktemp("bundled") / "sess"
    for argv in BUNDLED_PIPELINE:
        assert run(session_dir, *argv) == 0
    return session_dir


def test_bundled_tables_are_pinned(bundled_session):
    digests = {
        path.relative_to(bundled_session).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in bundled_session.rglob("*.csv")
    }
    assert digests == BUNDLED_TABLE_SHA256
    renders = {rel: hashlib.sha256((bundled_session / rel).read_bytes()).hexdigest()
               for rel in BUNDLED_RENDER_SHA256}
    assert renders == BUNDLED_RENDER_SHA256
    networks = {rel: hashlib.sha256((bundled_session / rel).read_bytes()).hexdigest()
                for rel in BUNDLED_NETWORK_SHA256}
    assert networks == BUNDLED_NETWORK_SHA256


def table_rows(path: Path) -> list[list[str]]:
    """The rows of a written table, comment lines left out."""
    rows = csv.reader(io.StringIO(path.read_text(encoding="utf-8")))
    return [row for row in rows if not row[0].startswith("#")]


def test_tables_give_back_ids_and_names_with_commas_and_quotes(tmp_path, layout_calls):
    node, name = 'P0,"10', 'say "x"'
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(SYNTHETIC_CORPUS.read_text(encoding="utf-8").replace('"P010"', json.dumps(node)),
                      encoding="utf-8")
    session_dir = tmp_path / "sess"
    for argv in (
        ["ingest", str(corpus), "--dataset", name],
        ["search", "--name", "F", "--phrase", "reinforcement learning"],
        ["network", "--dataset", name, "--name", "all", "--min-citations", "0", "--top-n", "100"],
        ["cluster", "--network", "all"],
        ["compare", "--datasets", f"F,{name}", "--base", "all"],
        ["render", "--network", "all"],
        ["report", "--kind", "datasets"],
    ):
        assert run(session_dir, *argv) == 0
    rows = table_rows(session_dir / "networks" / "all.clusters.csv")
    assert all(len(row) == 3 for row in rows)
    assert node in [row[0] for row in rows]
    session = Session(session_dir)
    network = session.load_network("all")
    assert session.layout_positions("all", network) == layout(network, 42)  # read back, whole ids
    assert layout_calls == [42]
    reports = session_dir / "reports"
    assert [row[0] for row in table_rows(reports / "datasets.csv")] == ["name", "F", name]
    overlap = table_rows(reports / "compare.csv")
    assert overlap[0] == ["name", "F", name] and overlap[-1][0] == name
    assert table_rows(reports / "coverage.csv")[0] == ["cluster", "label", "F", name]


# session.json as older versions wrote it into every session: the defaults of
# settings that are now flags and render constants.
OLDER_SESSION_JSON = {
    "network": {"e_param": None, "lby": 10, "lrf": 4.0, "min_citations": 1, "slice_years": 1, "top_n": 100},
    "render": {
        "dataset_palette": ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                            "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"],
        "label_top_k": 5,
        "node_radius": [2.5, 12.0],
        "seed": 42,
        "year_palette": ["#2c7bb6", "#00a6ca", "#90eb9d", "#ffff8c", "#f9d057", "#d7191c"],
    },
    "theta_citer": 10,
    "theta_ref": 10,
}
OLDER_SESSION_JSON_SHA256 = "d222244c9cf7ac29a9aa740aa39cba6f2243e68c36961eb3ddcfb50bfe2579c2"


class TestSessionConfig:
    """A session keeps no settings; a session.json of an older version is ignored."""

    @pytest.mark.parametrize("older", ["default", "customized", "unparseable"])
    def test_older_session_json_is_ignored_and_kept(self, tmp_path, bundled_session, older):
        text = json.dumps(OLDER_SESSION_JSON, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == OLDER_SESSION_JSON_SHA256
        if older == "customized":
            custom = json.loads(text)
            custom["render"]["seed"], custom["network"]["top_n"] = 7, 5
            text = json.dumps(custom, indent=2, sort_keys=True) + "\n"
        elif older == "unparseable":
            text = text[:100]
        session_dir = tmp_path / "sess"
        session_dir.mkdir()
        (session_dir / "session.json").write_text(text, encoding="utf-8")
        for argv in BUNDLED_PIPELINE:
            assert run(session_dir, *argv) == 0, argv
        fresh = session_files(bundled_session)
        assert "session.json" not in fresh
        assert session_files(session_dir) == {**fresh, "session.json": text.encode()}

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        from citecascade.records import Dataset

        session = Session(tmp_path / "sess")
        path = session.save_dataset(Dataset("d", {"a"}))
        before = path.read_bytes()

        def killed(*_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            session.save_dataset(Dataset("d", {"b"}))
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["d.json"]
