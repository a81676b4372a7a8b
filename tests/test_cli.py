"""Command-line pipeline: exit codes, session artifacts, re-runnability, locking."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from citecascade.cli import main
from citecascade.session import Session, SessionConfig


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
        assert (session_dir / "reports" / "overlap.csv").exists()
        assert (session_dir / "reports" / "projection.json").exists()
        assert (session_dir / "reports" / "coverage.csv").exists()

        assert run(session_dir, "render", "--network", "combined", "--overlay") == 0
        assert (session_dir / "renders" / "combined.overlay.svg").exists()
        assert (session_dir / "renders" / "combined.overlay.html").exists()
        assert run(session_dir, "render", "--distributions", "F,S", "--log") == 0
        assert (session_dir / "renders" / "F-S.years.svg").exists()

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

    def test_expand_from_spec_file(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "seeds": ["seed"],
                    "stages": [{"dir": "F", "gens": 1}, {"dir": "B", "gens": 1}],
                    "theta_citer": 0,
                    "theta_ref": 0,
                }
            ),
            encoding="utf-8",
        )
        assert run(session_dir, "expand", "--name", "NB", "--spec", str(spec_path)) == 0
        dataset = json.loads((session_dir / "datasets" / "NB.json").read_text())
        assert "seed" in dataset["member_ids"]

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
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path / "s", "frobnicate")
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

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
        assert run(
            session_dir, "compare", "--datasets", "a,b", "--base", "S", "--threshold", "1.5"
        ) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("flag", ["--lrf", "--e-param"])
    def test_non_finite_network_values_exit_2(self, tmp_path, corpus, capsys, flag, value):
        session_dir = tmp_path / "sess"
        run(session_dir, "ingest", str(corpus), "--dataset", "a")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run(session_dir, "network", "--dataset", "a", f"{flag}={value}")
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list((session_dir / "networks").iterdir())

    @pytest.mark.parametrize("name", ["../../escaped", "a/b", "..", ".", ""])
    def test_bad_names_exit_2_and_write_nothing_outside(self, tmp_path, corpus, capsys, name):
        session_dir = tmp_path / "outer" / "sess"
        run(session_dir, "ingest", str(corpus))
        capsys.readouterr()
        before = sorted(p for p in tmp_path.rglob("*"))
        assert run(session_dir, "search", "--name", name, "--phrase", "topic") == 2
        assert run(session_dir, "ingest", str(corpus), "--dataset", name) == 2
        assert run(session_dir, "cluster", "--network", name) == 2
        err = capsys.readouterr().err
        assert err.count("error: invalid name") == 3 and err.count("\n") == 3
        assert sorted(p for p in tmp_path.rglob("*")) == before

    def test_locked_session_exits_3(self, tmp_path, corpus, capsys):
        session_dir = tmp_path / "sess"
        session_dir.mkdir()
        (session_dir / ".lock").write_text("held")
        assert run(session_dir, "ingest", str(corpus)) == 3
        assert "locked" in capsys.readouterr().err

    def test_lock_released_after_run(self, tmp_path, corpus):
        session_dir = tmp_path / "sess"
        assert run(session_dir, "ingest", str(corpus)) == 0
        assert not (session_dir / ".lock").exists()

    def test_help_available_for_all_subcommands(self, capsys):
        for command in (
            "ingest", "enrich", "search", "union", "expand",
            "network", "cluster", "compare", "render", "report",
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert "--" in capsys.readouterr().out


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


class TestSessionConfig:
    def test_config_roundtrips_losslessly(self, tmp_path):
        session = Session(tmp_path / "sess")
        original = session.config_path.read_bytes()
        config = SessionConfig.from_json_dict(
            json.loads(original.decode("utf-8"))
        )
        session.save_config(config)
        assert session.config_path.read_bytes() == original

    def test_default_seed_recorded(self, tmp_path):
        session = Session(tmp_path / "sess")
        payload = json.loads(session.config_path.read_text())
        assert payload["render"]["seed"] == 42

    def test_duplicate_dataset_name_guard(self, tmp_path):
        from citecascade.errors import ValidationError
        from citecascade.records import Dataset

        session = Session(tmp_path / "sess")
        session.save_dataset(Dataset("twin", {"a"}))
        with pytest.raises(ValidationError):
            session.save_dataset(Dataset("twin", {"b"}), overwrite=False)
