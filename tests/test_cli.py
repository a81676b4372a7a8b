"""Command-line pipeline: exit codes, session artifacts, re-runnability, locking."""

from __future__ import annotations

import contextlib
import csv
import fcntl
import hashlib
import io
import json
import os
import re
import shutil
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
from citecascade.cli import main
from citecascade.cocitation import CoCitationNetwork, EdgeInfo, NetworkConfig, NodeInfo, network_stats
from citecascade.errors import ValidationError
from citecascade.records import RecordStore, StoreSummary, csv_text, json_text
from citecascade.render import LAYOUT_KEY, LAYOUT_SEED, layout
from citecascade.session import Session, positions_json

from conftest import SYNTHETIC_CORPUS, reference_dict

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
        assert (session_dir / "traces" / "S.trace.json").exists()
        assert not list(session_dir.rglob("*.trace.csv"))
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
        assert not (session_dir / "renders" / "combined.overlay.html").exists()
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

    def test_compare_single_dataset_exits_2(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus), "--dataset", "only")
        capsys.readouterr()
        assert run(session_dir, "compare", "--datasets", "only") == 2
        assert "error: need at least 2 datasets" in capsys.readouterr().err

    def test_missing_input_file_exits_4(self, tmp_path, capsys):
        assert run(tmp_path / "sess", "ingest", str(tmp_path / "ghost.jsonl")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_dataset_exits_4(self, tmp_path, capsys):
        assert run(tmp_path / "sess", "network", "--dataset", "nope") == 4
        assert "no dataset named" in capsys.readouterr().err

    def test_out_of_range_flags_exit_2_before_anything_is_read(self, tmp_path, corpus, capsys, monkeypatch):
        """A flag outside the range its settings class holds is a command-line mistake. Each
        case once exited 3, those of network and compare only after reading the session."""
        session_dir = finished_session(tmp_path, corpus)
        capsys.readouterr()
        before = session_files(session_dir)
        for reader in ("load_store", "load_dataset", "load_network", "store_summary"):
            monkeypatch.setattr(Session, reader, lambda *args, **kwargs: pytest.fail("the session was read"))
        expand = ["expand", "--name", "G", "--seed", "seed", "--stages", "F:1"]
        network = ["network", "--dataset", "combined", "--name", "G"]
        compare = ["compare", "--datasets", "F,S", "--base", "F"]
        for argv, message in [
            ([*expand, "--theta-citer", "-1"], "thresholds must be >= 0"),
            ([*expand, "--theta-ref", "-1"], "thresholds must be >= 0"),
            ([*expand, "--cap", "0"], "per_generation_cap must be >= 1 when set"),
            ([*network, "--top-n", "0"], "top_n and slice_years must be >= 1"),
            ([*network, "--slice-years", "0"], "top_n and slice_years must be >= 1"),
            ([*network, "--lby", "0"], "lby must be >= 1 when set"),
            ([*network, "--lrf", "0"], "lrf must be a finite positive number"),
            ([*network, "--min-citations", "-5"], "min_citations must be >= 0"),
            ([*compare, "--threshold", "1.5"], "threshold must lie strictly between 0 and 1"),
            *(([*compare, "--epsilon", bad], "epsilon must lie in [0, 1)") for bad in ("nan", "-3", "1", "inf")),
        ]:
            assert run(session_dir, *argv) == 2, argv
            assert one_error_line(capsys) == f"error: {message}\n", argv
            assert session_files(session_dir) == before, argv

    def test_malformed_stages_and_name_lists_exit_2_before_anything_is_read(self, tmp_path, corpus, capsys,
                                                                           monkeypatch):
        """A stage list or a dataset name list that names no stage or too few datasets, a
        comparison that names a dataset twice, or a search without a phrase is a command-line
        mistake. Each case once exited 3, those of search after replaying the
        store, those of compare, report and render only after reading the store summary (and
        for a name given twice the datasets) or laying the network out."""
        session_dir = finished_session(tmp_path, corpus)
        capsys.readouterr()
        before = session_files(session_dir)
        for reader in ("load_store", "load_dataset", "load_network", "store_summary", "load_partition",
                       "load_projection", "layout_positions"):
            monkeypatch.setattr(Session, reader, lambda *args, **kwargs: pytest.fail("the session was read"))
        expand = ["expand", "--name", "G", "--seed", "seed", "--stages"]
        for argv, message in [
            ([*expand, "F:0"], "stage generations must be >= 1"),
            ([*expand, "X:1"], "unknown expansion direction: 'X'"),
            ([*expand, ","], "no stages given"),
            (["union", "--name", "G", "--datasets", ","], "no dataset names given"),
            (["compare", "--datasets", ","], "no dataset names given"),
            (["compare", "--datasets", "F"], "need at least 2 datasets"),
            (["report", "--kind", "overlap", "--datasets", "F"], "need at least 2 datasets"),
            (["render", "--network", "F", "--distributions", ","], "no dataset names given"),
            (["compare", "--datasets", "F,S,F"], "dataset names must be unique in a comparison"),
            (["report", "--kind", "overlap", "--datasets", "F,F"], "dataset names must be unique in a comparison"),
            (["search", "--name", "X"], "query needs at least one phrase"),
        ]:
            assert run(session_dir, *argv) == 2, argv
            assert one_error_line(capsys) == f"error: {message}\n", argv
            assert session_files(session_dir) == before, argv

    @pytest.mark.parametrize("phrases", [[""], [" "], ["topic alpha", " "]])
    def test_blank_phrase_exits_2_before_anything_is_read(self, tmp_path, corpus, capsys, monkeypatch, phrases):
        """This once exited 3, after replaying the store."""
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        capsys.readouterr()
        before = session_files(session_dir)
        monkeypatch.setattr(Session, "load_store", lambda *args, **kwargs: pytest.fail("the store was read"))
        argv = [arg for phrase in phrases for arg in ("--phrase", phrase)]
        assert run(session_dir, "search", "--name", "X", *argv) == 2
        assert one_error_line(capsys) == "error: query phrases must not be blank\n"
        assert session_files(session_dir) == before

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

    @pytest.mark.parametrize("argv, message", [
        (["--distributions", "F", "--overlay"], "--overlay needs --network"),
        (["--network", "F", "--log"], "--log needs --distributions"),
        ([], "render needs --network and/or --distributions"),
    ])
    def test_render_flag_it_would_ignore_exits_2_and_writes_nothing(self, tmp_path, corpus, capsys, argv, message):
        session_dir = finished_session(tmp_path, corpus)
        capsys.readouterr()
        before = session_files(session_dir)
        assert run(session_dir, "render", *argv) == 2
        assert one_error_line(capsys) == f"error: {message}\n"
        assert session_files(session_dir) == before

    @pytest.mark.parametrize("argv, message", [
        (["expand", "--name", "G", "--stages", "F:1"], "the following arguments are required: --seed"),
        (["expand", "--name", "G", "--seed", "seed"], "the following arguments are required: --stages"),
        (["report", "--kind", "overlap"], "report --kind overlap needs --datasets"),
        (["report", "--kind", "datasets", "--datasets", "F,S"], "--datasets is for --kind overlap"),
        (["report", "--kind", "networks", "--datasets", "F,S"], "--datasets is for --kind overlap"),
        (["compare", "--datasets", "F,S", "--threshold", "0.2"], "--threshold needs --base"),
        (["compare", "--datasets", "F,S", "--epsilon", "0.1"], "--epsilon needs --base"),
        (["network", "--dataset", "combined", "--name", "G", "--lby", "3", "--no-lby"],
         "argument --no-lby: not allowed with argument --lby"),
    ])
    def test_command_line_mistake_exits_2_and_writes_nothing(self, tmp_path, corpus, capsys, argv, message):
        """A missing or conflicting flag, or one the command would ignore, is refused before
        anything is read, by the parser or by the command."""
        session_dir = finished_session(tmp_path, corpus)
        capsys.readouterr()
        before = session_files(session_dir)
        try:
            code = run(session_dir, *argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert one_error_line(capsys) == f"error: {message}\n"
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

    @pytest.mark.parametrize("field, value, reason", [
        ("global_citation_count", True, "global_citation_count must be a non-negative integer"),
        ("year", True, "year is not an integer"),
        ("year", False, "year is not an integer"),
        ("id", None, "id is not a string or an integer"),
        ("id", True, "id is not a string or an integer"),
        ("id", ["b"], "id is not a string or an integer"),
        ("id", {"b": 1}, "id is not a string or an integer"),
        ("reference_ids", [None, 5], "a reference id is not a string or an integer"),
        ("reference_ids", ["r", False], "a reference id is not a string or an integer"),
        ("reference_ids", [["r"]], "a reference id is not a string or an integer"),
        ("reference_ids", [{"id": "r"}], "a reference id is not a string or an integer"),
    ])
    def test_a_bool_is_not_an_integer_and_an_id_is_a_string_or_an_integer(self, tmp_path, capsys, field, value,
                                                                           reason):
        """A rejected row at ingest, and a store line that fails replay with exit 4."""
        path = tmp_path / "rows.jsonl"
        rows = [{"id": 7, "title": "t", "year": 2000, "reference_ids": ["r", 5], "global_citation_count": 0},
                {"id": "b", "title": "t", "year": 2000, "reference_ids": [], field: value}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(path)) == 0
        report = (session_dir / "reports" / "rows.load-report.csv").read_text()
        assert report.splitlines()[1:] == [f"2,{reason}"]
        store_path = session_dir / "store.jsonl"
        stored = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert [(line["id"], line["reference_ids"]) for line in stored] == [("7", ["r", "5"])]  # integers as digits
        with open(store_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rows[1]) + "\n")
        capsys.readouterr()
        assert run(session_dir, "search", "--name", "F", "--phrase", "t") == 4
        err = one_error_line(capsys)
        assert "line 2" in err and reason in err

    @pytest.mark.parametrize("row, reason", [
        ({"id": "b", "title": ["x", "y"]}, "title is not a string"),
        ({"id": "b", "title": True}, "title is not a string"),
        ({"id": "b", "title": 5}, "title is not a string"),
        ({"title": ["x"]}, "title is not a string"),  # no id to derive one from the title
        ({"id": "b", "title": "t", "venue": [1]}, "venue is not a string"),
        ({"id": "b", "title": "t", "venue": False}, "venue is not a string"),
        ({"id": "b", "title": "t", "source_tag": 3}, "source_tag is not a string"),
        ({"id": "b", "title": "t", "abstract": ["a"]}, "abstract is not a string"),
        ({"id": "b", "title": "t", "authors": [1, None]}, "an author is not a string"),
        ({"id": "b", "title": "t", "authors": ["Ann", ["Bo"]]}, "an author is not a string"),
    ])
    def test_text_fields_are_strings(self, tmp_path, capsys, row, reason):
        """The title is a string; the venue, source tag and abstract each a string or null; the
        authors null or a list of strings. A rejected row at ingest, and a store line that fails
        replay with exit 4."""
        path = tmp_path / "rows.jsonl"
        rows = [{"id": "a", "title": "t", "year": 2000, "reference_ids": [], "venue": None, "source_tag": None,
                 "abstract": None, "authors": ["Ann"]},
                {"year": 2000, "reference_ids": [], **row}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(path)) == 0
        report = (session_dir / "reports" / "rows.load-report.csv").read_text()
        assert report.splitlines()[1:] == [f"2,{reason}"]
        store_path = session_dir / "store.jsonl"
        assert [json.loads(line)["id"] for line in store_path.read_text().splitlines()] == ["a"]
        with open(store_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "b", **rows[1]}, sort_keys=True) + "\n")
        capsys.readouterr()
        assert run(session_dir, "search", "--name", "F", "--phrase", "t") == 4
        err = one_error_line(capsys)
        assert "line 2" in err and reason in err


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

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("membership", "1x", "'1x' is not one 0 or 1 per dataset"),
            ("membership", "111", "'111' is not one 0 or 1 per dataset"),
            ("membership", "", "'' is not one 0 or 1 per dataset"),
            ("coverage", "a", "coverage of cluster 0 by F 'a' is not a number"),
            ("datasets", "F,S", "datasets 'F,S' is not a list of strings"),
        ],
    )
    def test_damaged_projection_exits_4(self, tmp_path, corpus, capsys, where, value, message):
        # The inputs key still matches, so the damaged file counts as current. Each of the
        # first four once drew an overlay, and "F,S" was read as its characters.
        session_dir = finished_session(tmp_path, corpus)
        path = session_dir / "reports" / "projection.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        if where == "membership":
            data["membership"][min(data["membership"])] = value
        elif where == "coverage":
            data["coverage"]["0"]["F"] = value
        else:
            data["datasets"] = value
        path.write_text(json_text(data), encoding="utf-8")
        before = session_files(session_dir)
        capsys.readouterr()
        assert run(session_dir, "render", "--network", "F", "--overlay") == 4
        err = one_error_line(capsys)
        assert f"unreadable session file {path}" in err and message in err
        assert session_files(session_dir) == before

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
    return [networks / f"{name}.{suffix}" for suffix in ("clusters.json", "clusters.csv")]


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
    for rel in ("networks/F.clusters.csv", "reports/coverage.csv"):
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
            for rel in ("networks/F.clusters.csv", "reports/coverage.csv")
        }
        clusters_key = f"networks/F.clusters.json={sha('networks/F.clusters.json')}"
        assert first_lines == {
            "networks/F.clusters.csv": f"# inputs {clusters_key}",
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
    """The seed of every layout the commands compute, in call order. A command lays the
    network out itself when ``Session.layout_positions`` gives None, as it does for a
    missing, stale or damaged layout cache; a ``Session`` lays nothing out."""
    calls: list[int] = []

    def counting_layout(network, seed):
        calls.append(seed)
        return layout(network, seed)

    monkeypatch.setattr("citecascade.render.layout", counting_layout)
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
        inputs = [session.path("network", "F"), *LAYOUT_KEY]
        assert session.layout_positions("F", network, inputs) == layout(network, 42)  # exact floats
        assert layout_calls == [42]

    def test_cached_and_fresh_renders_are_byte_identical(self, tmp_path, corpus, layout_calls):
        session_dir = finished_session(tmp_path, corpus)
        renders = session_dir / "renders"
        outputs = []
        for _ in range(2):  # the first render lays out, the second reads the file
            assert run(session_dir, "render", "--network", "F", "--overlay") == 0
            outputs.append({p.name: p.read_bytes() for p in renders.glob("F.overlay.*")})
        assert layout_calls == [42]
        assert sorted(outputs[0]) == ["F.overlay.svg"]
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
                mock.patch("citecascade.render.layout", wraps=layout) as counted:
            session = Session(root)

            def layout_positions() -> tuple[dict[str, tuple[float, float]], dict[Path, object]]:
                """As render gets them: the positions read back, else laid out with the file to write."""
                cached = session.layout_positions("N", network, layout_inputs)
                if cached is not None:
                    return cached, {}
                laid_out = cli_module.render.layout(network, LAYOUT_SEED)
                return laid_out, {session.path("positions", "N"): positions_json(laid_out)}

            layout_inputs = [session.path("network", "N"), *LAYOUT_KEY]
            inputs = {session.path("positions", "N"): layout_inputs}

            session.save_network("N", network, network_stats(network))
            path = session.path("positions", "N")
            first, cache = layout_positions()
            assert list(first) == sorted(network.nodes)
            assert list(cache) == [path] and not path.exists()  # the caller writes it in its group
            session.write(cache, inputs)
            read_back, cache = layout_positions()
            assert list(read_back.items()) == list(first.items()) and cache == {}  # exact floats
            assert counted.call_count == 1
            fresh = path.read_bytes()
            cached = json.loads(fresh)
            ONE_VALUE_DAMAGE[damage](cached)
            path.write_text(json.dumps(cached), encoding="utf-8")
            again, cache = layout_positions()
            assert list(again.items()) == list(first.items())
            assert counted.call_count == 2
            session.write(cache, inputs)
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


# Imports the command line and notes which layers are then in sys.modules, runs the
# commands given as JSON in one process, then prints those layers and the ones whose
# module body has run. A module's own __dict__, read past its attribute hook, sets off
# no lazy load; running the body puts __builtins__ into it.
LAYERS_RUN = """
import json, sys
import citecascade.cli
LAYERS = ("clustering", "labeling", "cocitation", "expansion", "overlay", "render")
modules = [sys.modules.get(f"citecascade.{layer}") for layer in LAYERS]
registered = [layer for layer, module in zip(LAYERS, modules) if module is not None]
for argv in json.loads(sys.argv[2]):
    assert citecascade.cli.main(["--session", sys.argv[1], *argv]) == 0, argv
ran = [layer for layer, module in zip(LAYERS, modules)
       if module is not None and "__builtins__" in object.__getattribute__(module, "__dict__")]
print(json.dumps([registered, ran]))
"""


@pytest.mark.parametrize("commands, layers", [
    ([], []),
    ([["union", "--name", "U", "--datasets", "F,S"], ["search", "--name", "T", "--phrase", "topic"],
      ["report", "--kind", "datasets"]], []),
    ([["network", "--dataset", "combined", "--name", "N", "--min-citations", "0"]], ["cocitation"]),
    ([["render", "--network", "F"]], ["clustering", "cocitation", "render"]),
    ([["report", "--kind", "networks"]], ["clustering", "cocitation"]),
])
def test_each_command_runs_only_the_layers_it_uses(tmp_path, corpus, commands, layers):
    """Every layer is in sys.modules once the command line is imported, so a wrapper from
    outside sees each one; a layer's body runs only when a command uses it."""
    session_dir = finished_session(tmp_path, corpus)
    env = dict(os.environ, PYTHONPATH=str(Path(citecascade.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", LAYERS_RUN, str(session_dir), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    registered, run_bodies = json.loads(result.stdout.splitlines()[-1])
    assert registered == ["clustering", "labeling", "cocitation", "expansion", "overlay", "render"]
    assert run_bodies == layers


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


# sha256 of store.jsonl and store.summary.json after the bundled corpus's ingest, and
# after a second ingest and an enrich of the rows below, recorded before each store
# line came from one template. The store summary's re-recorded when every JSON file
# came to be written on one line, like a store line.
BUNDLED_STORE_SHA256 = {
    "ingest": {
        "store.jsonl": "2682c3cf6565c5365412379f24f85fb72f15702fd9ff9e5efe8487147486594a",
        "store.summary.json": "6778ef8bcc7c2b92374d2b0b1d31c19c501840be4e7eb0da5ff15918c0a9c2b7",
    },
    "ingest, ingest, enrich": {
        "store.jsonl": "063230c8dc0c8d41d6e89085fe8e615dd252297613bf47de8fe34195c1a98ec6",
        "store.summary.json": "a2d25c21accbd532f18371246bc737f52f14ecccc0599386f0ad979a04d67755",
    },
}
# Rows with every optional field, ids that are integers, and texts holding non-ASCII and
# astral characters, a line separator, quotes, backslashes and control characters; P010
# extends its reference list and so takes the merge path, and the abstracts match by an
# integer id, by title and year, and by a string id.
STORE_PIN_ROWS = [
    {"id": 7, "title": "Café \"quoted\" \\ back\tslash", "year": 2001, "reference_ids": [3, "P000", 7],
     "venue": "J. Études 中文", "authors": ["Adélaïde \U0001d4d0", "O'Brien"],
     "global_citation_count": 0, "source_tag": "pin\x7f"},
    {"id": "P010", "title": "extended \U0001f600 line\nbreak", "year": None,
     "reference_ids": ["P000", "P004", 7, "xÿ"], "global_citation_count": 12, "authors": []},
    {"id": "", "title": "no id \u2028 given \x01", "year": 1999, "reference_ids": [], "venue": ""},
]
STORE_PIN_ABSTRACTS = [
    {"id": 7, "abstract": "résumé \"with\" \\ escapes \u0000 and \U0001f4da"},
    {"title": "NO ID \u2028 GIVEN \x01", "year": 1999, "abstract": "matched by é title"},
    {"id": "P032", "abstract": "lone \ud800 surrogate"},
]


class TestStoreWrites:
    """ingest and enrich write store.jsonl whole, one line per record."""

    def test_store_bytes_are_pinned(self, tmp_path):
        session_dir = tmp_path / "sess"

        def digests() -> dict[str, str]:
            return {name: hashlib.sha256((session_dir / name).read_bytes()).hexdigest()
                    for name in ("store.jsonl", "store.summary.json")}

        assert run(session_dir, "ingest", str(SYNTHETIC_CORPUS)) == 0
        found = {"ingest": digests()}
        rows, abstracts = tmp_path / "rows.jsonl", tmp_path / "abstracts.jsonl"
        rows.write_text("".join(json.dumps(row) + "\n" for row in STORE_PIN_ROWS), encoding="utf-8")
        abstracts.write_text("".join(json.dumps(row) + "\n" for row in STORE_PIN_ABSTRACTS), encoding="utf-8")
        assert run(session_dir, "ingest", str(rows)) == 0
        assert run(session_dir, "enrich", str(abstracts)) == 0
        found["ingest, ingest, enrich"] = digests()
        assert found == BUNDLED_STORE_SHA256

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
        assert lines == [reference_dict(record) for record in expected]
        assert len({line["id"] for line in lines}) == len(lines) == len(expected) == 21
        loaded = RecordStore.load(session_dir / "store.jsonl")
        assert [reference_dict(r) for r in loaded] == lines

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
        assert [reference_dict(r) for r in replayed] == [reference_dict(r) for r in store]
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
            session_dir / "traces" / "S.trace.json",
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
# network JSON, and nothing else in the file changed. Re-recorded when each level
# lost its ``level`` and ``parent`` keys, which its place in the file gives.
# Re-recorded, for the ``inputs`` key alone, when the network JSON came to be
# written on one line.
BUNDLED_CLUSTERS_SHA256 = "ba724802f431687092f58375c04f0e226d79a001a6b06cbed4c4616f92fd886a"
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
# Both re-recorded, for that line, when the clusters file lost each level's ``level``
# and ``parent`` keys and the dataset files their ``name`` (the projection's key
# hashes the compared dataset files). The expansion's trace table left when
# ``expand`` came to write its trace once, as trace.json. clusters.csv and
# coverage.csv re-recorded, for that line, when every JSON file came to be written
# on one line.
BUNDLED_TABLE_SHA256 = {
    "networks/combined.clusters.csv": "6dad785a97cbee2488c76c0d8cb9e9fd0ee2b45af75146740dbe1446cbd8ef6d",
    "reports/compare.csv": "a245a79a4fd330b243e6372dbefa6860b68ef00fd1ec0dfbef395461769d0302",
    "reports/coverage.csv": "d11631a1d997b30308647d38a1f4a40ecae328ca543baf6969e66f60f7da1026",
    "reports/datasets.csv": "283de53b742be45fd8ba4ac6b2ec9300d0b5aeb2b7461eedec50f4e85a9a7922",
    "reports/networks.csv": "7d43bd05d73e7058ea570694d30e33ed79eb9343155e0f13667adfa503529aa1",
    "reports/overlap.csv": "4ce43f77b326db532f5d02638b57cb7b4c576d63d4a65ca2f9644f9ff9675d6d",
    "reports/synthetic_500.load-report.csv": "6fac5a0a654694482a278b05771df56191d52da37f5ae4a1d60a28902d80e3c6",
}


# sha256 of the bundled pipeline's network files, recorded before network
# construction became one pass per stage (slice grouping, pair map, prune); the
# JSON's re-recorded when it came to be written on one line (the GraphML's stays).
BUNDLED_NETWORK_SHA256 = {
    "networks/combined.json": "9408c33aaa3c45961e24db2ba93d4a391e8c7b2106704fc0474f00da13ab3550",
    "networks/combined.graphml": "7a6f28af0d093cf85ed63417bc4ffc3d011bf365c49cb11dfa662206ac28d170",
}


# sha256 of the bundled pipeline's maps and year chart; the maps re-recorded
# when each component got its own layout, packed and fitted with one scale, and
# when a panel's edges became one <path> per style (their node, label and tooltip
# rows unchanged). The year chart's key renamed, same digest, when its file took
# the charted names joined by ",". A map is its SVG file alone: no HTML page.
BUNDLED_RENDER_SHA256 = {
    "renders/combined.map.svg": "75a55483b342892422e655ee5088db80573ea73695c5677c663a1997a5c1bb99",
    "renders/combined.overlay.svg": "3c64c3f02c7480e539beb8806d710752261bde8c8f656e02dc4c3da296f4534d",
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


class TestOneJsonLayout:
    """Every JSON file is written on one line, as a store line is. A file that an older
    version wrote indented still loads, and a keyed one stays current: keys compare the
    ``inputs`` field by content, not the file's bytes."""

    def test_every_json_file_is_one_line(self, bundled_session):
        paths = sorted([*bundled_session.rglob("*.json"), *bundled_session.rglob("*.stats")])
        assert len(paths) == 10
        for path in paths:  # the network's JSON too, written from its own row templates
            text = path.read_text(encoding="utf-8")
            assert text == json_text(json.loads(text)) and text.count("\n") == 1, path

    def test_indented_files_of_an_older_version_still_serve(self, tmp_path, bundled_session, monkeypatch,
                                                           layout_calls):
        session_dir = tmp_path / "sess"
        shutil.copytree(bundled_session, session_dir)
        for rel in ("networks/combined.clusters.json", "renders/combined.positions.json", "store.summary.json",
                    "datasets/F.json", "datasets/S3.json", "datasets/combined.json"):
            path = session_dir / rel
            indented = json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=2, sort_keys=True) + "\n"
            path.write_text(indented, encoding="utf-8")
        monkeypatch.setattr(Session, "load_store", lambda self: pytest.fail("the store was replayed"))
        for argv in (["render", "--network", "combined"], *BUNDLED_PIPELINE[10:]):
            assert run(session_dir, *argv) == 0, argv
        assert layout_calls == []
        for rel in ("renders/combined.map.svg", "reports/datasets.csv", "reports/overlap.csv",
                    "reports/networks.csv"):
            assert (session_dir / rel).read_bytes() == (bundled_session / rel).read_bytes(), rel


# One failing command line per command that writes, and its exit code; expand fails after
# it has read the store, render after it has laid the network out. "{missing}" is a file
# that does not exist.
FAILING_COMMANDS = [
    (["ingest", "{missing}", "--dataset", "G"], 4),
    (["enrich", "{missing}"], 4),
    (["search", "--name", "G"], 2),
    (["union", "--name", "G", "--datasets", "F,nosuch"], 4),
    (["expand", "--name", "G", "--seed", "nosuch", "--stages", "F:3"], 4),
    (["network", "--dataset", "combined", "--name", "combined.clusters"], 2),
    (["cluster", "--network", "combined", "--top-k", "-1"], 2),
    (["compare", "--datasets", "F,S3", "--base", "nosuch"], 4),
    (["render", "--network", "combined", "--distributions", "nosuch"], 4),
    (["render", "--network", "combined", "--overlay", "--distributions", "F,S3,nosuch"], 4),
    (["report", "--kind", "overlap", "--datasets", "F,nosuch"], 4),
]


def test_a_failing_command_writes_nothing(tmp_path, bundled_session, capsys):
    """Without a layout cache too: render lays the network out, then fails on a dataset, and
    the cache it computed is not written."""
    session_dir = tmp_path / "sess"
    shutil.copytree(bundled_session, session_dir)
    (session_dir / "renders" / "combined.positions.json").unlink()
    before = session_files(session_dir)
    capsys.readouterr()
    for argv, code in FAILING_COMMANDS:
        assert run(session_dir, *(arg.format(missing=tmp_path / "missing.jsonl") for arg in argv)) == code, argv
        one_error_line(capsys)
        assert session_files(session_dir) == before, argv


class TestCopiedDataset:
    """A dataset's name is its file's name, so a copied dataset file is a dataset of the
    copy's name. Each case once gave the original's name."""

    @pytest.fixture
    def session_dir(self, tmp_path, bundled_session) -> Path:
        session_dir = tmp_path / "sess"
        shutil.copytree(bundled_session, session_dir)
        shutil.copy(session_dir / "datasets" / "F.json", session_dir / "datasets" / "G.json")
        return session_dir

    def test_compare_tells_the_copy_from_the_original(self, session_dir):
        # Once exit 3: "dataset names must be unique".
        assert run(session_dir, "compare", "--datasets", "F,G") == 0
        assert table_rows(session_dir / "reports" / "compare.csv")[0] == ["name", "F", "G"]

    def test_projection_lists_the_copy_and_is_keyed_to_it(self, session_dir):
        assert run(session_dir, "compare", "--datasets", "G,S3", "--base", "combined") == 0
        projection = json.loads((session_dir / "reports" / "projection.json").read_text(encoding="utf-8"))
        assert projection["datasets"] == ["G", "S3"]
        datasets = [part for part in projection["inputs"].split() if part.startswith("datasets/")]
        copy = hashlib.sha256((session_dir / "datasets" / "G.json").read_bytes()).hexdigest()
        assert datasets[0] == f"datasets/G.json={copy}" and len(datasets) == 2
        assert run(session_dir, "render", "--network", "combined", "--overlay") == 0  # read back as current

    def test_union_records_the_copy(self, session_dir):
        assert run(session_dir, "union", "--name", "U", "--datasets", "G") == 0
        union = json.loads((session_dir / "datasets" / "U.json").read_text(encoding="utf-8"))
        assert union["provenance"]["inputs"] == ["G"]
        assert "name" not in union


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
    inputs = [session.path("network", "all"), *LAYOUT_KEY]
    assert session.layout_positions("all", network, inputs) == layout(network, 42)  # read back, whole ids
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


# The bundled commands that read the store summary, not the store.
SUMMARY_READERS = [BUNDLED_PIPELINE[index] for index in (6, 9, 10, 11)]
# Damage done by hand to the bundled store.summary.json; each keeps a current key, if any.
SUMMARY_DAMAGE = {
    "wrong-type": lambda text: json_text({**json.loads(text), "with_abstract": []}),
    "year-key": lambda text: re.sub(r'"(\d)(\d{3})":', r'"\1_\2":', text, count=1),
    "truncated": lambda text: text[: len(text) // 2],
}


def summary_reader_outputs(session_dir: Path, capsys, monkeypatch) -> tuple[list, dict[str, bytes], int]:
    """Each summary reader's exit code, stdout and stderr; the report and render files after
    them; and how many times they replayed the store."""
    replays, load = [], Session.load_store
    capsys.readouterr()
    results = []
    with monkeypatch.context() as patch:
        patch.setattr(Session, "load_store", lambda self: replays.append(self) or load(self))
        for argv in SUMMARY_READERS:
            code = run(session_dir, *argv)
            results.append((code, *capsys.readouterr()))
    files = {rel: data for rel, data in session_files(session_dir).items() if rel.startswith(("reports/", "renders/"))}
    return results, files, len(replays)


def bundled_copy(bundled_session: Path, session_dir: Path) -> tuple[Path, Path]:
    """A fresh copy of the bundled session at ``session_dir``; its store and summary paths."""
    shutil.rmtree(session_dir, ignore_errors=True)
    shutil.copytree(bundled_session, session_dir)
    return session_dir / "store.jsonl", session_dir / "store.summary.json"


class TestStoreSummary:
    """compare, render --distributions and report --kind datasets|overlap read the keyed store
    summary instead of replaying the store; a missing, stale or damaged one is not used."""

    def test_ingest_and_enrich_key_the_summary_to_the_store(self, tmp_path, bundled_session):
        store, summary = (bundled_session / name for name in ("store.jsonl", "store.summary.json"))
        key = "store.jsonl=" + hashlib.sha256(store.read_bytes()).hexdigest()
        expected = StoreSummary.of(RecordStore.load(store))
        assert summary.read_text(encoding="utf-8") == json_text({**expected.to_json_dict(), "inputs": key})
        session_dir = tmp_path / "sess"
        enrichment = tmp_path / "abstracts.jsonl"
        enrichment.write_text(json.dumps({"id": "P010", "abstract": "enriched"}) + "\n", encoding="utf-8")
        bundled_copy(bundled_session, session_dir)
        assert run(session_dir, "enrich", str(enrichment)) == 0
        session = Session(session_dir)
        enriched = StoreSummary.of(session.load_store())
        assert enriched.with_abstract == expected.with_abstract | {"P010"} != expected.with_abstract
        assert StoreSummary.from_json_dict(json.loads(session.summary_path.read_text(encoding="utf-8"))) == enriched
        assert session.store_summary() == enriched

    def test_ingest_with_a_dataset_renames_it_last(self, tmp_path, corpus, monkeypatch):
        renamed, replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: renamed.append(Path(dst).name) or replace(src, dst))
        assert run(tmp_path / "sess", "ingest", str(corpus), "--dataset", "all") == 0
        assert renamed == ["corpus.load-report.csv", "store.summary.json", "store.jsonl", "all.json"]
        assert Session(tmp_path / "sess").store_summary() == StoreSummary.of(Session(tmp_path / "sess").load_store())

    @pytest.mark.parametrize("state", ["deleted", "stale", *SUMMARY_DAMAGE])
    def test_readers_write_the_same_bytes_without_a_usable_summary(self, tmp_path, bundled_session, capsys,
                                                                   monkeypatch, state):
        session_dir = tmp_path / "sess"
        bundled_copy(bundled_session, session_dir)
        results, files, replays = summary_reader_outputs(session_dir, capsys, monkeypatch)
        assert [code for code, _out, _err in results] == [0] * len(SUMMARY_READERS) and replays == 0
        assert files == {rel: data for rel, data in session_files(bundled_session).items() if rel in files}
        store, summary = bundled_copy(bundled_session, session_dir)
        if state == "deleted":
            summary.unlink()
        elif state == "stale":  # the same records, their lines in reverse order
            store.write_text("".join(reversed(store.read_text(encoding="utf-8").splitlines(True))), encoding="utf-8")
        else:
            damaged = SUMMARY_DAMAGE[state](summary.read_text(encoding="utf-8"))
            assert damaged != summary.read_text(encoding="utf-8")
            summary.write_text(damaged, encoding="utf-8")
        assert summary_reader_outputs(session_dir, capsys, monkeypatch) == (results, files, len(SUMMARY_READERS))

    def test_a_stale_summary_is_not_read(self, tmp_path, bundled_session, capsys, monkeypatch):
        """store.jsonl rewritten by hand with every year 1999: the readers give what that store
        holds, as they do with no summary, not what the summary holds."""
        session_dir = tmp_path / "sess"
        outputs = []
        for keep_summary in (False, True):
            store, summary = bundled_copy(bundled_session, session_dir)
            lines = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
            store.write_text("".join(json.dumps({**line, "year": 1999}) + "\n" for line in lines), encoding="utf-8")
            if not keep_summary:
                summary.unlink()
            outputs.append(summary_reader_outputs(session_dir, capsys, monkeypatch))
        assert outputs[0] == outputs[1]
        report = outputs[0][1]["reports/datasets.csv"].decode()
        assert "1999-1999" in report and report != (bundled_session / "reports" / "datasets.csv").read_text()


# Each file of the bundled session that a command reads back, and the commands that read it:
# the bundled ones, and union and network for a dataset.
READ_BACK = {
    "datasets/F.json": [["union", "--name", "U", "--datasets", "F,S3"], ["network", "--dataset", "F", "--name", "G"],
                        *SUMMARY_READERS],
    "networks/combined.json": [BUNDLED_PIPELINE[i] for i in (5, 6, 8, 12)],
    "networks/combined.clusters.json": [BUNDLED_PIPELINE[i] for i in (6, 8, 12)],
    "networks/combined.stats": [BUNDLED_PIPELINE[12]],
    "reports/projection.json": [BUNDLED_PIPELINE[7]],
    "renders/combined.positions.json": [BUNDLED_PIPELINE[8]],
    "store.summary.json": SUMMARY_READERS,
}
# What a damaged leaf is replaced with: each JSON kind, a control character and a number
# beyond any count.
REPLACEMENTS = [None, True, 1.5, -3, "", [], {}, "\x07", 10**30]


def json_leaves(value, path=()) -> list[tuple]:
    """The path of each leaf of a JSON value (a key or an index per level); an empty list or
    object is a leaf."""
    if type(value) not in (dict, list) or not value:
        return [path]
    keys = value if type(value) is dict else range(len(value))
    return [leaf for key in keys for leaf in json_leaves(value[key], (*path, key))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_damaged_leaf_of_a_read_back_file_fails_cleanly(bundled_session, data):
    """One leaf of one read-back file replaced: each reader of the file exits 0, 2, 3 or 4,
    raises nothing and prints at most one error line."""
    rel = data.draw(st.sampled_from(sorted(READ_BACK)))
    document = json.loads((bundled_session / rel).read_text(encoding="utf-8"))
    *path, last = data.draw(st.sampled_from(json_leaves(document)))
    container = document
    for key in path:
        container = container[key]
    container[last] = data.draw(st.sampled_from(REPLACEMENTS))
    with tempfile.TemporaryDirectory() as root:
        session_dir = Path(root) / "sess"
        shutil.copytree(bundled_session, session_dir)
        (session_dir / rel).write_text(json_text(document), encoding="utf-8")
        for argv in READ_BACK[rel]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(session_dir, *argv)
            assert code in (0, 2, 3, 4) and err.getvalue().count("error:") <= 1, (rel, path, last, argv, err.getvalue())
