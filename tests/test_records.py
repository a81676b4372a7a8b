"""Record store: ingestion, merge rules, citer index, shared ids, datasets, year distributions."""

from __future__ import annotations

import json
import math
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade.cli import _dataset_year_range, main
from citecascade.errors import EmptyDatasetError, FormatError, ValidationError
from citecascade.records import (
    _CONTROL_RE,
    MIN_YEAR,
    _PunctuationToSpace,
    ArticleRecord,
    Dataset,
    RecordStore,
    StoreSummary,
    YearDistribution,
    _is_id,
    _log_record,
    _record_from_json_dict,
    canonical_id,
    dataset_union,
    max_plausible_year,
    normalize_title,
    year_distribution,
)
from citecascade.session import Session

from conftest import make_record, reference_dict


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def valid_row(pub_id, year=2000, refs=(), **extra):
    row = {"id": pub_id, "title": f"title {pub_id}", "year": year, "reference_ids": list(refs)}
    row.update(extra)
    return row


class TestIngestJsonl:
    def test_five_wellformed_records_load(self, tmp_path):
        path = tmp_path / "five.jsonl"
        write_jsonl(path, [valid_row(f"p{i}") for i in range(5)])
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert report.loaded == 5
        assert report.rejected == []
        assert len(store) == 5

    def test_duplicate_id_keeps_longer_reference_list(self, tmp_path):
        # Hand-applied merge rule on a 2-row file: the 3-ref copy must win.
        path = tmp_path / "dup.jsonl"
        write_jsonl(
            path,
            [
                valid_row("p1", refs=["r1"]),
                valid_row("p1", refs=["r1", "r2", "r3"]),
            ],
        )
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert report.loaded == 2
        assert report.merged == 1
        assert len(store) == 1
        assert store.get("p1").reference_ids == ["r1", "r2", "r3"]

    def test_duplicate_tie_keeps_first_seen(self, tmp_path):
        path = tmp_path / "tie.jsonl"
        write_jsonl(
            path,
            [
                valid_row("p1", refs=["r1"], venue="first"),
                valid_row("p1", refs=["r9"], venue="second"),
            ],
        )
        store = RecordStore()
        store.ingest(path, "jsonl")
        assert store.get("p1").reference_ids == ["r1"]
        assert store.get("p1").venue == "first"

    def test_merge_fills_missing_fields_from_loser(self, tmp_path):
        path = tmp_path / "fill.jsonl"
        write_jsonl(
            path,
            [
                valid_row("p1", refs=["r1"], abstract="kept abstract"),
                valid_row("p1", refs=["r1", "r2"]),
            ],
        )
        store = RecordStore()
        store.ingest(path, "jsonl")
        merged = store.get("p1")
        assert merged.reference_ids == ["r1", "r2"]
        assert merged.abstract == "kept abstract"

    def test_rows_missing_essentials_rejected_not_fatal(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        write_jsonl(
            path,
            [
                valid_row("p1"),
                {"title": "no id or year", "reference_ids": []},
                {"id": "p2", "title": "no year", "reference_ids": []},
                {"id": "p3", "year": 2000, "reference_ids": []},
            ],
        )
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert report.loaded == 1
        reasons = dict(report.rejected)
        assert reasons[3] == "missing year"
        assert reasons[4] == "missing title"
        assert any("missing" in r for r in reasons.values())

    @pytest.mark.parametrize("bad_id", ["P0\r10", "P\n1", "P\x001", "\x1f"])
    def test_id_with_control_character_rejected(self, tmp_path, bad_id):
        path = tmp_path / "control.jsonl"
        write_jsonl(path, [valid_row("p1"), valid_row(bad_id)])
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert store.ids() == ["p1"]
        assert report.rejected == [(2, f"record id {bad_id!r} holds a control character")]

    def test_row_without_id_derives_canonical_id(self, tmp_path):
        path = tmp_path / "derived.jsonl"
        write_jsonl(path, [{"title": "Some Work", "year": 1999, "reference_ids": []}])
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert report.loaded == 1
        assert store.get(canonical_id("Some Work", 1999)) is not None

    def test_null_year_accepted_as_unknown(self, tmp_path):
        path = tmp_path / "nullyear.jsonl"
        write_jsonl(path, [valid_row("p1", year=None)])
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert report.loaded == 1
        assert store.get("p1").year is None

    def test_year_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "badyear.jsonl"
        write_jsonl(path, [valid_row("p1", year=1200), valid_row("p2", year=3000)])
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        assert report.loaded == 0
        assert len(report.rejected) == 2

    def test_unknown_format_and_missing_file(self, tmp_path):
        store = RecordStore()
        with pytest.raises(FormatError):
            store.ingest(tmp_path / "absent.jsonl", "jsonl")
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [valid_row("p1")])
        with pytest.raises(FormatError):
            store.ingest(path, "marc21")

    def test_ingest_idempotent(self, tmp_path):
        path = tmp_path / "idem.jsonl"
        write_jsonl(path, [valid_row(f"p{i}", refs=[f"r{i}"]) for i in range(4)])
        once = RecordStore()
        once.ingest(path, "jsonl")
        twice = RecordStore()
        twice.ingest(path, "jsonl")
        twice.ingest(path, "jsonl")
        assert [reference_dict(r) for r in map(once.get, once.ids())] == [
            reference_dict(r) for r in map(twice.get, twice.ids())
        ]

    def test_load_report_csv(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        write_jsonl(path, [{"id": "p2", "title": "no year", "reference_ids": []}])
        store = RecordStore()
        report = store.ingest(path, "jsonl")
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "line_number,reason"
        assert "1,missing year" in csv_text


class TestIngestDimensionsCsv:
    def test_header_driven_parse(self, tmp_path):
        path = tmp_path / "dims.csv"
        path.write_text(
            "Publication ID,Title,PubYear,Cited references,Times cited\n"
            "pub.1,First article,2010,pub.2; pub.3,14\n"
            "pub.2,Second article,2008,,0\n",
            encoding="utf-8",
        )
        store = RecordStore()
        report = store.ingest(path, "dimensions-csv")
        assert report.loaded == 2
        first = store.get("pub.1")
        assert first.reference_ids == ["pub.2", "pub.3"]
        assert first.global_citation_count == 14
        assert first.year == 2010

    def test_missing_required_column_is_fatal(self, tmp_path):
        path = tmp_path / "dims.csv"
        path.write_text("Publication ID,Title\npub.1,First\n", encoding="utf-8")
        store = RecordStore()
        with pytest.raises(FormatError):
            store.ingest(path, "dimensions-csv")

    def test_empty_pubyear_cell_is_unknown_year(self, tmp_path):
        path = tmp_path / "dims.csv"
        path.write_text(
            "Publication ID,Title,PubYear\npub.1,First article,\n", encoding="utf-8"
        )
        store = RecordStore()
        report = store.ingest(path, "dimensions-csv")
        assert report.loaded == 1
        assert store.get("pub.1").year is None


class TestEnrichment:
    def test_enrich_by_exact_id(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p1"))
        path = tmp_path / "abs.jsonl"
        write_jsonl(path, [{"id": "p1", "abstract": "an abstract"}])
        report = store.enrich_abstracts(path)
        assert report.enriched == 1
        assert store.get("p1").abstract == "an abstract"

    def test_enrich_by_normalized_title_year(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p1", year=2001, title="Graph-based Retrieval: A Survey"))
        path = tmp_path / "abs.jsonl"
        write_jsonl(
            path,
            [{"title": "graph based retrieval a survey", "year": 2001, "abstract": "matched"}],
        )
        report = store.enrich_abstracts(path)
        assert report.enriched == 1
        assert store.get("p1").abstract == "matched"

    def test_enrich_unknown_id_reported_unmatched(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p1"))
        path = tmp_path / "abs.jsonl"
        write_jsonl(path, [{"id": "ghost", "abstract": "text"}])
        report = store.enrich_abstracts(path)
        assert report.enriched == 0
        assert report.unmatched == ["ghost"]

    def test_existing_abstract_never_lost(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p1", abstract="original"))
        path = tmp_path / "abs.jsonl"
        write_jsonl(path, [{"id": "p1", "abstract": "replacement"}])
        report = store.enrich_abstracts(path)
        assert report.enriched == 0
        assert store.get("p1").abstract == "original"

    def test_malformed_rows_skipped(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p1"))
        path = tmp_path / "abs.jsonl"
        path.write_text('{"id": "p1"}\nnot json\n', encoding="utf-8")
        report = store.enrich_abstracts(path)
        assert len(report.skipped_rows) == 2

    def test_rows_follow_ingest_type_rules(self, tmp_path):
        """An id is a string or an integer, a title a string, a year an integer or null; other
        rows are skipped with their reason, and a year "2003" does not match the undated record."""
        store = RecordStore()
        for record in (make_record("p1", year=2000, title="a b c"), make_record("u1", year=None, title="a b c"),
                       make_record("7", year=2001), make_record("u2", year=None, title="d e f")):
            store.insert(record)
        path = tmp_path / "abs.jsonl"
        rows = [
            {"id": True}, {"id": [1]}, {"id": 1.5}, {"id": None, "title": "a b c", "year": 2000},
            {"title": ["a b c"], "year": 2000}, {"title": "a b c", "year": True},
            {"title": "a b c", "year": 2000.0}, {"title": "a b c", "year": "2003"},
            {"id": 7}, {"title": "D-E-F", "year": None},
        ]
        write_jsonl(path, [{**row, "abstract": f"abstract {i}"} for i, row in enumerate(rows, start=1)])
        report = store.enrich_abstracts(path)
        assert report.skipped_rows == [
            (1, "id is not a string or an integer"), (2, "id is not a string or an integer"),
            (3, "id is not a string or an integer"), (4, "id is not a string or an integer"),
            (5, "title is not a string"), (6, "year is not an integer"),
            (7, "year is not an integer"), (8, "year is not an integer"),
        ]
        assert (report.enriched, report.unmatched) == (2, [])
        assert [store.get(pub_id).abstract for pub_id in ("p1", "u1", "7", "u2")] == [
            None, None, "abstract 9", "abstract 10"]  # integer ids match their digits, null years the undated


def punctuation_to_space(text: str) -> str:
    """Per-character reference: each punctuation character (category P) a space."""
    return "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in text)


class TestNormalization:
    def test_translate_table_is_the_per_character_map_on_every_code_point(self):
        # One fresh table per plane-sized block, so the test holds no table of every code point.
        for start in range(0, 0x110000, 0x10000):
            block = "".join(chr(c) for c in range(start, start + 0x10000) if not 0xD800 <= c <= 0xDFFF)
            assert block.translate(_PunctuationToSpace()) == punctuation_to_space(block)

    @given(st.text())
    def test_titles_normalize_as_the_per_character_reference_does(self, title):
        text = punctuation_to_space(unicodedata.normalize("NFC", title).lower())
        assert normalize_title(title) == re.sub(r"\s+", " ", text).strip()

    def test_case_punctuation_whitespace(self):
        assert normalize_title("  Fish-Oil,  And   Health! ") == normalize_title(
            "fish oil and health"
        )

    def test_canonical_id_stable(self):
        assert canonical_id("A Title", 2000) == canonical_id("a   title!", 2000)
        assert canonical_id("A Title", 2000) != canonical_id("A Title", 2001)


class TestRecordInvariants:
    def test_reference_list_dedup_and_no_self(self):
        record = make_record("p1", refs=["a", "b", "a", "p1", "c"])
        assert record.reference_ids == ["a", "b", "c"]

    def test_bad_values_raise(self):
        with pytest.raises(ValidationError):
            ArticleRecord(id="", title="x", year=2000)
        with pytest.raises(ValidationError):
            make_record("p1", year=1400)
        with pytest.raises(ValidationError):
            make_record("p1", count=-1)


def year_distribution_reference(dataset: Dataset, store: RecordStore) -> YearDistribution:
    """The year distribution read from the store's records, as it was before the summary."""
    if not dataset.member_ids:
        raise EmptyDatasetError(f"dataset {dataset.name!r} is empty; nothing to summarize")
    counts: dict[int, int] = {}
    unknown = 0
    for pub_id in dataset.member_ids:
        record = store.get(pub_id)
        if record is None or record.year is None:
            unknown += 1
            continue
        counts[record.year] = counts.get(record.year, 0) + 1
    year_range = (min(counts), max(counts)) if counts else None
    log_counts = {year: math.log1p(n) for year, n in counts.items()}
    return YearDistribution(dataset.name, counts, unknown, year_range, log_counts)


class TestYearDistribution:
    def test_three_records_same_year(self):
        store = RecordStore()
        for i in range(3):
            store.insert(make_record(f"p{i}", year=2010))
        dist = year_distribution(Dataset("d", {"p0", "p1", "p2"}), StoreSummary.of(store))
        assert dist.counts == {2010: 3}
        assert dist.range == (2010, 2010)
        assert dist.log_counts[2010] == pytest.approx(math.log(4))

    def test_earliest_year_defines_range_minimum(self):
        store = RecordStore()
        store.insert(make_record("old", year=1936))
        store.insert(make_record("new", year=2019))
        dist = year_distribution(Dataset("d", {"old", "new"}), StoreSummary.of(store))
        assert dist.range == (1936, 2019)

    def test_unknown_year_bucket_excluded_from_range(self):
        store = RecordStore()
        store.insert(make_record("p1", year=2000))
        store.insert(make_record("p2", year=None))
        dist = year_distribution(Dataset("d", {"p1", "p2"}), StoreSummary.of(store))
        assert dist.unknown == 1
        assert dist.range == (2000, 2000)
        assert dist.total() == 2

    def test_empty_dataset_errors(self):
        with pytest.raises(EmptyDatasetError):
            year_distribution(Dataset("d", set()), StoreSummary.of(RecordStore()))

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(1980, 2020))),
            min_size=1,
            max_size=40,
        )
    )
    def test_counts_plus_unknown_equals_size(self, items):
        store = RecordStore()
        members = set()
        for i, (suffix, year) in enumerate(items):
            pub_id = f"p{i}_{suffix}"
            store.insert(make_record(pub_id, year=year))
            members.add(pub_id)
        dist = year_distribution(Dataset("d", members), StoreSummary.of(store))
        assert dist.total() == len(members)


# Ids with quotes, spaces, commas and non-ASCII characters, but no control character.
SUMMARY_IDS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x2FF), min_size=1, max_size=4)
SUMMARY_RECORDS = st.dictionaries(
    SUMMARY_IDS,
    st.tuples(st.one_of(st.none(), st.integers(1990, 1994)), st.sampled_from([None, "", "an abstract"])),
    max_size=25,
)


class TestStoreSummary:
    """The summary answers what the store answered: years, Range cells, abstract counts."""

    @given(records=SUMMARY_RECORDS,
           members=st.lists(st.sets(SUMMARY_IDS, max_size=12), min_size=1, max_size=3),
           picks=st.lists(st.sets(st.integers(0, 30), max_size=12), min_size=3, max_size=3))
    def test_summary_read_back_answers_as_the_store(self, tmp_path_factory, records, members, picks):
        store = RecordStore()
        for pub_id, (year, abstract) in records.items():
            store.insert(make_record(pub_id, year=year, abstract=abstract))
        stored = sorted(records)
        # Each dataset holds stored ids and ids the store lacks.
        datasets = [Dataset(f"d{i}", extra | {stored[j] for j in pick if j < len(stored)})
                    for i, (extra, pick) in enumerate(zip(members, picks))]
        session = Session(tmp_path_factory.mktemp("summary"))
        summary = StoreSummary.of(store)
        session.write({session.store_path: store.json_lines()}, {session.summary_path: summary.to_json_dict()})

        def refuse():
            raise AssertionError("the store was replayed")

        session.load_store = refuse
        assert session.store_summary() == summary
        assert summary.years == {pub_id: year for pub_id, (year, _abstract) in records.items()}
        for dataset in datasets:
            with_abstracts = sum(1 for record in map(store.get, dataset.member_ids) if record and record.abstract)
            assert len(dataset.member_ids & summary.with_abstract) == with_abstracts
            if not dataset.member_ids:
                continue
            assert year_distribution(dataset, summary) == year_distribution_reference(dataset, store)
            span = year_distribution_reference(dataset, store).range
            assert _dataset_year_range(dataset, summary) == (f"{span[0]}-{span[1]}" if span else "")

    def test_groups_are_sorted_ids_joined_by_newlines(self):
        store = RecordStore()
        for pub_id, year, abstract in [("b", 2001, "x"), ("a", 2001, "y"), ("c", None, ""), ("d", 2001, None)]:
            store.insert(make_record(pub_id, year=year, abstract=abstract))
        assert StoreSummary.of(store).to_json_dict() == {
            "with_abstract": {"2001": "a\nb"}, "without_abstract": {"2001": "d", "undated": "c"}}

    @pytest.mark.parametrize("damage", [
        {"with_abstract": []},
        {"with_abstract": {"2001": ["a"]}},
        {"with_abstract": {"1_999": "a"}},
        {"with_abstract": {"01999": "a"}},
        {"with_abstract": {" 1999": "a"}},
        {"with_abstract": {"\u0661\u0669\u0669\u0669": "a"}},
        {"with_abstract": {"1499": "a"}},
        {"with_abstract": {"Undated": "a"}},
        {"with_abstract": {"2001": ""}},
        {"with_abstract": {"2001": "a\n"}},
        {"with_abstract": {"2001": "a\tb"}},
        {"with_abstract": {"2001": "b", "2002": "b"}},
        {"with_abstract": {"2001": "z"}, "without_abstract": {"undated": "z"}},
        {"without_abstract": None},
    ], ids=repr)
    def test_damaged_form_is_rejected(self, damage):
        data = {"with_abstract": {"2001": "a\nb"}, "without_abstract": {"2001": "c", "undated": "d"}, **damage}
        with pytest.raises((ValueError, TypeError, KeyError)):
            StoreSummary.from_json_dict(data)


class TestDatasetUnion:
    def test_simple_union(self):
        u = dataset_union(
            [Dataset("x", {"a", "b"}), Dataset("y", {"b", "c"})], name="u"
        )
        assert u.member_ids == {"a", "b", "c"}
        assert u.provenance["inputs"] == ["x", "y"]

    def test_self_union_idempotent(self):
        ds = Dataset("x", {"a", "b"})
        assert dataset_union([ds, ds], "u").member_ids == ds.member_ids

    def test_needs_input(self):
        with pytest.raises(ValidationError):
            dataset_union([], "u")

    @given(
        st.lists(st.sets(st.integers(0, 20), max_size=10), min_size=1, max_size=5),
        st.permutations(range(5)),
    )
    def test_union_commutative_associative(self, member_sets, order):
        datasets = [Dataset(f"d{i}", {str(x) for x in s}) for i, s in enumerate(member_sets)]
        straight = dataset_union(datasets, "u").member_ids
        shuffled = [datasets[i % len(datasets)] for i in order]
        assert dataset_union(shuffled + datasets, "u2").member_ids == straight


def write_log(path, records, tail=b""):
    """A store file as older versions left it: one appended line per record state."""
    lines = "".join(json.dumps(reference_dict(r), sort_keys=True) + "\n" for r in records)
    path.write_bytes(lines.encode("utf-8") + tail)


def rewrite(path, store):
    """What a session write puts in the file: the store's lines, whole."""
    path.write_text("".join(store.json_lines()), encoding="utf-8")


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p1", refs=["p2"], abstract="text"))
        store.insert(make_record("p2", count=7))
        path = tmp_path / "store.jsonl"
        path.write_text(
            "".join(json.dumps(reference_dict(store.get(i))) + "\n" for i in store.ids()),
            encoding="utf-8",
        )
        loaded = RecordStore.load(path)
        assert [reference_dict(r) for r in map(loaded.get, loaded.ids())] == [
            reference_dict(r) for r in map(store.get, store.ids())
        ]

    def test_json_lines_one_per_record_in_first_seen_order(self, tmp_path):
        store = RecordStore()
        store.insert(make_record("p2"))
        store.insert(make_record("p1", abstract="text"))
        store.insert(make_record("p2", refs=["p1"]))  # merged in place, keeps its position
        lines = list(store.json_lines())
        assert [json.loads(line)["id"] for line in lines] == ["p2", "p1"]
        assert lines[0] == json.dumps(reference_dict(store.get("p2")), sort_keys=True) + "\n"
        path = tmp_path / "store.jsonl"
        rewrite(path, store)
        loaded = RecordStore.load(path)
        assert [reference_dict(r) for r in loaded] == [reference_dict(r) for r in store]

    def test_torn_last_line_is_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_log(path, [make_record("p1"), make_record("p2")], b'{"id": "p3", "tit')
        assert RecordStore.load(path).ids() == ["p1", "p2"]

    def test_torn_invalid_record_tail_is_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_log(path, [make_record("p1")], b'{"id": "p3", "title": "t"}')
        assert RecordStore.load(path).ids() == ["p1"]

    def test_torn_multibyte_tail_is_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        # cut inside a character
        write_log(path, [make_record("p1")], "{\"title\": \"caf\u00e9".encode("utf-8")[:-1])
        assert RecordStore.load(path).ids() == ["p1"]

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b'{"id": "p\xff"}\n',
        b'{"id": "p3", "reference_ids": [], "title": "t", "year": "1999"}\n',
        b'{"id": "P\\r1", "reference_ids": [], "title": "t", "year": 1999}\n',
    ])
    def test_unreadable_inner_line_is_a_format_error(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        write_log(path, [make_record("p1")], line)
        with open(path, "ab") as fh:
            fh.write(json.dumps(reference_dict(make_record("p2"))).encode() + b"\n")
        with pytest.raises(FormatError, match="line 2"):
            RecordStore.load(path)

    def test_rewrite_drops_a_torn_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_log(path, [make_record("p1")])
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b'{"id": "p9", "ti')
        store = RecordStore.load(path)
        rewrite(path, store)
        assert path.read_bytes() == intact
        store.insert(make_record("p2"))
        rewrite(path, store)
        assert path.read_bytes() == intact + json.dumps(
            reference_dict(make_record("p2")), sort_keys=True
        ).encode() + b"\n"
        assert RecordStore.load(path).ids() == ["p1", "p2"]

    def test_rewrite_keeps_a_complete_tail_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(reference_dict(make_record("p1"))), encoding="utf-8")
        store = RecordStore.load(path)
        store.insert(make_record("p2"))
        rewrite(path, store)
        assert RecordStore.load(path).ids() == ["p1", "p2"]
        assert path.read_text(encoding="utf-8").count("\n") == 2

    def test_append_log_replay_last_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        old = make_record("p1")
        updated = make_record("p1", abstract="later state")
        write_log(path, [old, make_record("p2"), updated])
        loaded = RecordStore.load(path)
        assert loaded.get("p1").abstract == "later state"
        assert [r.id for r in loaded] == ["p1", "p2"]  # first-seen order
        rewrite(path, loaded)
        assert path.read_text(encoding="utf-8").count("\n") == 2
        assert reference_dict(RecordStore.load(path).get("p1")) == reference_dict(updated)

    def test_replayed_records_are_slotted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_log(path, [make_record("p1", refs=["p2"], abstract="text"), make_record("p2", count=3)])
        for record in RecordStore.load(path):
            assert not hasattr(record, "__dict__")


# -- oracles: the store line and the row parser ---------------------------------------


def reference_record_from_json_dict(row: dict) -> tuple[ArticleRecord | None, str | None]:
    """The row parser as it was first written, with ``isinstance`` tests and one check
    per reference and author. ``_record_from_json_dict`` must give the same record or
    the same reason for every row."""
    if not isinstance(row, dict):
        return None, "row is not an object"
    raw_id = row.get("id", "")
    title = row.get("title")
    if "year" not in row:
        return None, "missing year"
    year = row.get("year")
    if year is not None and type(year) is not int:  # a bool is not an integer
        return None, "year is not an integer"
    if not _is_id(raw_id):
        return None, "id is not a string or an integer"
    if title is not None and not isinstance(title, str):
        return None, "title is not a string"
    if not raw_id:
        if not title:
            return None, "missing id"
        raw_id = canonical_id(title, year)
    if title is None:
        return None, "missing title"
    if "reference_ids" not in row or not isinstance(row["reference_ids"], list):
        return None, "missing reference_ids"
    if not all(map(_is_id, row["reference_ids"])):
        return None, "a reference id is not a string or an integer"
    gcc = row.get("global_citation_count")
    if gcc is not None and (type(gcc) is not int or gcc < 0):
        return None, "global_citation_count must be a non-negative integer"
    for key in ("venue", "source_tag", "abstract"):
        if row.get(key) is not None and not isinstance(row[key], str):
            return None, f"{key} is not a string"
    authors = row.get("authors")
    if authors is not None and not isinstance(authors, list):
        return None, "authors is not a list"
    if authors is not None and not all(isinstance(author, str) for author in authors):
        return None, "an author is not a string"
    try:
        record = ArticleRecord(
            id=str(raw_id),
            title=title,
            year=year,
            reference_ids=[str(r) for r in row["reference_ids"]],
            venue=row.get("venue"),
            authors=authors,
            abstract=row.get("abstract"),
            global_citation_count=gcc,
            source_tag=row.get("source_tag"),
        )
    except ValidationError as exc:
        return None, str(exc)
    return record, None


# Texts with what JSON escapes: quotes, backslashes, control characters, non-ASCII,
# astral characters and lone surrogates. A high surrogate followed by a low one is
# left out: JSON reads the pair back as the one astral character it spells.
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
CODEC_TEXTS = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", "\udfff"]),
), max_size=8).filter(lambda text: not SURROGATE_PAIR.search(text))
CODEC_IDS = st.one_of(
    st.text(st.one_of(st.characters(min_codepoint=0x20), st.sampled_from(['"', "\\", "\ud83d"])), min_size=1,
            max_size=5),
    st.integers().filter(bool),
)
CODEC_OPTIONAL = {
    "venue": CODEC_TEXTS,
    "authors": st.lists(CODEC_TEXTS, max_size=3),
    "abstract": CODEC_TEXTS,
    "global_citation_count": st.integers(min_value=0, max_value=10**20),
    "source_tag": CODEC_TEXTS,
}


@st.composite
def codec_rows(draw) -> dict:
    """A valid row, each optional field absent, null or set."""
    row = {
        "id": draw(CODEC_IDS),
        "title": draw(CODEC_TEXTS),
        "year": draw(st.none() | st.integers(MIN_YEAR, max_plausible_year())),
        "reference_ids": draw(st.lists(CODEC_IDS, max_size=4)),
    }
    for name, values in CODEC_OPTIONAL.items():
        choice = draw(st.sampled_from(["absent", "null", "set"]))
        if choice != "absent":
            row[name] = None if choice == "null" else draw(values)
    return row


# The values a field of a parsed row takes in the parser oracle; MISSING leaves it out.
MISSING = object()
FIELD_VALUES = [MISSING, None, True, 0, 1, -3, 1.5, "", "x", "\x01", [], ["a"], [1], [True], {}]
# Per field, the values of FIELD_VALUES that pass its checks, drawn for most fields
# of a row so that rows also reach the later checks.
PASSING_VALUES = {
    "id": ["x", 1, -3],
    "title": ["x", "\x01"],
    "year": [None],
    "reference_ids": [[], ["a"], [1]],
    "venue": [MISSING, None, "", "x", "\x01"],
    "authors": [MISSING, None, [], ["a"]],
    "abstract": [MISSING, None, "", "x", "\x01"],
    "global_citation_count": [MISSING, None, 0, 1],
    "source_tag": [MISSING, None, "", "x", "\x01"],
}


@st.composite
def oracle_rows(draw):
    """A row whose every field is drawn from FIELD_VALUES, or a value that is no object."""
    if draw(st.integers(0, 19)) == 19:
        return draw(st.sampled_from(FIELD_VALUES[1:]))
    row = {}
    for name, passing in PASSING_VALUES.items():
        value = draw(st.sampled_from(FIELD_VALUES if draw(st.integers(0, 3)) == 3 else passing))
        if value is not MISSING:
            row[name] = value
    return row


class TestCodecOracles:
    @settings(max_examples=300, deadline=None)
    @given(codec_rows())
    def test_json_line_is_the_sorted_dump_and_replays_to_the_record(self, row):
        record, reason = _record_from_json_dict(row)
        assert reason is None
        line = record.json_line()
        assert line == json.dumps(reference_dict(record), sort_keys=True) + "\n"
        assert _log_record(line) == record

    @settings(max_examples=1500, deadline=None)
    @given(oracle_rows())
    def test_row_parser_matches_the_reference_parser(self, row):
        record, reason = _record_from_json_dict(row)
        expected, expected_reason = reference_record_from_json_dict(row)
        assert reason == expected_reason
        assert record == expected


# -- oracles: the reference dedup loop and the set-based citer index ---------------


def reference_oracle(pub_id, refs):
    """A record's references as the per-reference loop keeps them: first-seen order,
    no duplicates, no "" and not the record itself."""
    seen: set[str] = set()
    out: list[str] = []
    for ref in refs:
        if ref and ref != pub_id and ref not in seen:
            seen.add(ref)
            out.append(ref)
    return out


def citers_oracle(store):
    """The inverse reference index as one set per stored id."""
    index: dict[str, set[str]] = {i: set() for i in store.ids()}
    for record in store:
        for ref in record.reference_ids:
            if ref in index:
                index[ref].add(record.id)
    return index


STORE_IDS = ["p0", "p1", "p2", "p3", "p4"]
STORE_CHANGES = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace"]),
        st.sampled_from(STORE_IDS),
        st.lists(st.sampled_from([*STORE_IDS, "ghost", ""]), max_size=8),
    ),
    min_size=1,
    max_size=20,
)


class TestCiterIndex:
    @given(changes=STORE_CHANGES)
    def test_lookups_match_the_oracles_after_every_change(self, changes):
        # Every change comes after the previous check built the index.
        store = RecordStore()
        given_refs: dict[str, list[str]] = {}  # each id's winning reference list, as given
        for op, pub_id, refs in changes:
            if op == "replace" or pub_id not in given_refs or (
                len(reference_oracle(pub_id, refs)) > len(reference_oracle(pub_id, given_refs[pub_id]))
            ):
                given_refs[pub_id] = refs
            getattr(store, op)(make_record(pub_id, refs=refs))
            oracle = citers_oracle(store)
            for i in STORE_IDS:
                if i not in store:
                    continue
                assert store.get(i).reference_ids == reference_oracle(i, given_refs[i])
                assert store.get_citers(i) == sorted(oracle[i])
                assert store.citation_count(i) == len(oracle[i])

    @given(text=st.text(
        alphabet=st.sampled_from(["\x00", "\t", "\x1f", "\x20", "\x7f", "\x85", "\u00e9", "\u2028"])
        | st.characters(),
        max_size=12,
    ))
    def test_control_character_regex_matches_the_scan(self, text):
        assert (_CONTROL_RE.search(text) is not None) == any(ch < " " for ch in text)


def test_loaded_ids_are_one_object_per_id(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [
        valid_row("p1", refs=["p2", "p3", "ghost"]),
        valid_row("p2", refs=["p3", "p1", "p3"]),
        valid_row("p3"),
        valid_row("p4", refs=["p1", "p2", "p3", "ghost"]),
    ])
    assert main(["--session", str(tmp_path / "s"), "ingest", str(corpus), "--dataset", "d"]) == 0
    session = Session(tmp_path / "s")
    store = session.load_store()
    dataset = session.load_dataset("d")
    resolved = [ref for record in store for ref in record.reference_ids if ref in store]
    assert len(resolved) == 7 and len(dataset) == 4
    for pub_id in [*resolved, *dataset.member_ids]:
        assert pub_id is store.get(pub_id).id, pub_id
