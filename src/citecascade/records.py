"""Bibliographic record store: ingestion, dedup, datasets, search, year statistics.

Records come from JSONL exports or header-driven Dimensions-style CSV files,
get normalized into :class:`ArticleRecord`, and live in a :class:`RecordStore`
(in-memory index, saved as one JSONL line per record), which also answers the
citation queries: what a record cites and who cites it, the latter from a list
of citers per cited id. Every article id read from a file, as a record id, a
reference or a dataset member, is interned, so the process holds one string
object per id however often it is cited. Named article-id sets are
:class:`Dataset` objects, such as a :func:`search` of the titles and abstracts;
per-dataset year statistics are :class:`YearDistribution` objects, counted
from a :class:`StoreSummary` of the store's years and abstract flags.
:func:`json_chunks` is the one JSON layout of every artifact the package
writes, one line each (:func:`json_text` joins it), :func:`csv_text` the one
CSV layout of every table, and :func:`xml_text` and :func:`xml_attribute` the
one XML escaping of GraphML and SVG.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import re
import sys
import unicodedata
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from .errors import EmptyDatasetError, FormatError, UnknownPublicationError, ValidationError

MIN_YEAR = 1500

_WS_RE = re.compile(r"\s+")
_CONTROL_RE = re.compile(r"[\x00-\x1f]")


def json_chunks(payload) -> Iterator[str]:
    """Every written artifact's JSON layout, in chunks: one line as a store line, sorted keys, final newline."""
    yield from json.JSONEncoder(sort_keys=True).iterencode(payload)
    yield "\n"


def json_text(payload) -> str:
    """``json_chunks`` of ``payload`` joined."""
    return "".join(json_chunks(payload))


def csv_text(rows, comments=()) -> str:
    """The CSV layout of every written table: each comment as a ``# `` line, written
    as given, then one row per item of ``rows`` (header first), ``\\n`` line ends,
    quotes only where a field needs them."""
    out = io.StringIO()
    out.writelines(f"# {comment}\n" for comment in comments)
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def xml_text(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped, as ``xml.etree``
    writes element text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def xml_attribute(text: str) -> str:
    """``text`` as a double-quoted XML attribute value, escaped as ``xml.etree``'s
    ``_escape_attrib`` does: also ``"``, and CR, LF and tab as character references."""
    return (
        xml_text(text).replace('"', "&quot;")
        .replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")
    )


@functools.cache
def max_plausible_year() -> int:
    """Latest year a record may carry: the calendar year after the one in which the
    process first asks. The bound is fixed for the life of the process."""
    return date.today().year + 1


class _PunctuationToSpace(dict):
    """A ``str.translate`` table that maps each punctuation character (Unicode category P)
    to a space and every other character to itself, filled as characters are first seen."""

    def __missing__(self, code: int) -> str | int:
        self[code] = value = " " if unicodedata.category(chr(code)).startswith("P") else code
        return value


_PUNCTUATION_TO_SPACE = _PunctuationToSpace()


def normalize_title(title: str) -> str:
    """Normalize a title for matching: NFC, lowercase, no punctuation, single spaces."""
    text = unicodedata.normalize("NFC", title).lower().translate(_PUNCTUATION_TO_SPACE)
    return _WS_RE.sub(" ", text).strip()


def canonical_id(title: str, year: int | None) -> str:
    """Derive a stable id for records whose source provides none."""
    key = f"{normalize_title(title)}:{year if year is not None else ''}"
    return hashlib.sha1(key.encode("utf-8")).hexdigest()


_OPTIONAL_FIELDS = ("venue", "authors", "abstract", "global_citation_count", "source_tag")


@dataclass(slots=True)
class ArticleRecord:
    """One publication: identity, text fields, outgoing references, citation count.

    ``year`` may be None (unknown); such records land in the UNKNOWN bucket of
    year distributions. ``global_citation_count`` is the citation count reported
    by the source for the whole publication universe, not just this store.

    A record's store line is :meth:`json_line`, one template; ``tests/conftest.py``
    holds ``json.dumps(sort_keys=True)`` of the dict form as its byte oracle.
    Records are slotted, so a replayed store holds no attribute dict per record.
    """

    id: str
    title: str
    year: int | None
    reference_ids: list[str] = field(default_factory=list)
    venue: str | None = None
    authors: list[str] | None = None
    abstract: str | None = None
    global_citation_count: int | None = None
    source_tag: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("record id must be nonempty")
        if _CONTROL_RE.search(self.id):
            raise ValidationError(f"record id {self.id!r} holds a control character")
        if self.year is not None and not (MIN_YEAR <= self.year <= max_plausible_year()):
            raise ValidationError(f"year {self.year} outside [{MIN_YEAR}, {max_plausible_year()}]")
        if self.global_citation_count is not None and self.global_citation_count < 0:
            raise ValidationError("global_citation_count must be >= 0")
        # Reference lists keep their order but never contain dups, "" or the record itself.
        refs = dict.fromkeys(self.reference_ids)
        refs.pop(self.id, None)
        refs.pop("", None)
        self.reference_ids = list(refs)

    def json_line(self) -> str:
        """The store line: the fields as one JSON object with sorted keys, each optional
        field only when it is set, ASCII escapes, then a newline."""
        abstract = "" if self.abstract is None else f'"abstract": {_json_string(self.abstract)}, '
        authors = "" if self.authors is None else f'"authors": [{", ".join(map(_json_string, self.authors))}], '
        count = ("" if self.global_citation_count is None
                 else f'"global_citation_count": {self.global_citation_count}, ')
        tag = "" if self.source_tag is None else f'"source_tag": {_json_string(self.source_tag)}, '
        venue = "" if self.venue is None else f'"venue": {_json_string(self.venue)}, '
        year = "null" if self.year is None else self.year
        return (f'{{{abstract}{authors}{count}"id": {_json_string(self.id)}, '
                f'"reference_ids": [{", ".join(map(_json_string, self.reference_ids))}], '
                f'{tag}"title": {_json_string(self.title)}, {venue}"year": {year}}}\n')


@dataclass
class LoadReport:
    """Outcome of one ingest: how many records landed, which rows were rejected."""

    loaded: int = 0
    merged: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)
    loaded_ids: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        return csv_text([("line_number", "reason"), *self.rejected])


@dataclass
class EnrichmentReport:
    enriched: int = 0
    unmatched: list[str] = field(default_factory=list)
    skipped_rows: list[tuple[int, str]] = field(default_factory=list)


def _merge_records(first: ArticleRecord, second: ArticleRecord) -> ArticleRecord:
    """Merge two records with the same id.

    The record with the longer reference list wins (richer citation data);
    ties keep the first seen. The winner's empty optional fields are filled
    from the loser so no information is dropped.
    """
    if len(second.reference_ids) > len(first.reference_ids):
        winner, loser = second, first
    else:
        winner, loser = first, second
    return ArticleRecord(
        id=winner.id,
        title=winner.title or loser.title,
        reference_ids=list(winner.reference_ids),
        **{
            name: getattr(winner, name) if getattr(winner, name) is not None else getattr(loser, name)
            for name in ("year", *_OPTIONAL_FIELDS)
        },
    )


class RecordStore:
    """In-memory id -> record index with JSONL persistence and citation lookups.

    The persistent form holds one JSON line per record, in first-seen order
    (:meth:`json_lines`), and is written whole. Each line comes from the one
    template, :meth:`ArticleRecord.json_line`. Loading replays the lines in
    order, each as the current state of its id, so a later line supersedes an
    earlier one: a log that older versions appended to loads the same way.

    A loaded store holds one string object per article id: each record id and
    each reference is interned as its record is built.

    The citation lookups read the inverse reference index (cited id -> list of
    the ids of the stored records citing it, one entry per citing record; ids
    no stored record cites have no entry), built on the first lookup that needs
    it and dropped by every :meth:`insert` or :meth:`replace`.
    """

    def __init__(self) -> None:
        self._records: dict[str, ArticleRecord] = {}
        self._citer_index: dict[str, list[str]] | None = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self._records

    def get(self, pub_id: str) -> ArticleRecord | None:
        return self._records.get(pub_id)

    def ids(self) -> list[str]:
        return sorted(self._records)

    def __iter__(self):
        """The records in first-seen order."""
        return iter(self._records.values())

    def insert(self, record: ArticleRecord) -> None:
        """Insert a record, or merge it into the stored one with the same id."""
        existing = self._records.get(record.id)
        self._records[record.id] = record if existing is None else _merge_records(existing, record)
        self._citer_index = None

    def replace(self, record: ArticleRecord) -> None:
        """Overwrite the stored state of ``record.id`` (replay on load)."""
        self._records[record.id] = record
        self._citer_index = None

    # -- citation lookups ----------------------------------------------------

    def _citers(self) -> dict[str, list[str]]:
        # A record's references hold no duplicates and each record is visited
        # once, so no citer list holds an id twice.
        if self._citer_index is None:
            index: dict[str, list[str]] = defaultdict(list)
            for record in self._records.values():
                for ref in record.reference_ids:
                    if ref in self._records:
                        index[ref].append(record.id)
            self._citer_index = index
        return self._citer_index

    def record(self, pub_id: str) -> ArticleRecord:
        record = self._records.get(pub_id)
        if record is None:
            raise UnknownPublicationError(pub_id)
        return record

    def get_references(self, pub_id: str) -> list[str]:
        """Ids the record cites, restricted to ids the store holds."""
        return [ref for ref in self.record(pub_id).reference_ids if ref in self._records]

    def unresolved_references(self, pub_id: str) -> list[str]:
        """Cited ids that no stored record carries (kept out of analyses)."""
        return [ref for ref in self.record(pub_id).reference_ids if ref not in self._records]

    def get_citers(self, pub_id: str) -> list[str]:
        """Sorted ids of stored records whose reference list contains ``pub_id``."""
        self.record(pub_id)  # an unknown id raises
        return sorted(self._citers().get(pub_id, ()))

    def citation_count(self, pub_id: str) -> int:
        """Universe-wide citation count when the source reported one, else the
        store-local citer count."""
        record = self.record(pub_id)
        if record.global_citation_count is not None:
            return record.global_citation_count
        return len(self._citers().get(pub_id, ()))

    # -- persistence ---------------------------------------------------------

    def json_lines(self):
        """The persistent form, each record's :meth:`ArticleRecord.json_line`, first-seen order."""
        for record in self:
            yield record.json_line()

    @classmethod
    def load(cls, path: str | Path) -> "RecordStore":
        """Replay the lines. A last line without its newline that is not a valid
        record is the remains of a killed append by an older version: it is
        ignored (and gone after the next write). Any other such line is a
        :class:`FormatError` naming the line and the reason."""
        store = cls()
        path = Path(path)
        if not path.exists():
            return store
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    record = _log_record(line)
                except ValueError as exc:
                    if not line.endswith("\n"):
                        break
                    raise FormatError(f"{path}: line {line_no} is not a valid record: {exc}") from None
                if record is not None:
                    store.replace(record)
        return store

    # -- ingestion -----------------------------------------------------------

    def ingest(self, source_path: str | Path, format: str) -> LoadReport:
        """Load records from a file in one of the supported formats.

        Rows missing essentials are rejected (reported, not fatal); duplicate
        ids are merged, longer reference list winning.
        """
        source_path = Path(source_path)
        if not source_path.exists():
            raise FormatError(f"unreadable file: {source_path}")
        if format == "jsonl":
            rows = _parse_jsonl(source_path)
        elif format == "dimensions-csv":
            rows = _parse_dimensions_csv(source_path)
        else:
            raise FormatError(f"unknown format: {format}")

        report = LoadReport()
        for line_no, record, reason in rows:
            if record is None:
                report.rejected.append((line_no, reason or "invalid row"))
                continue
            if record.id in self._records:
                report.merged += 1
            self.insert(record)
            report.loaded += 1
            report.loaded_ids.append(record.id)
        return report

    def enrich_abstracts(self, enrichment_path: str | Path) -> EnrichmentReport:
        """Attach abstracts from an enrichment file (JSONL).

        Each row carries ``abstract`` plus either ``id`` or ``title``+``year``;
        title matching uses the same normalization as id derivation. An id is a
        string or an integer, a title a string and a year an integer or null
        (undated), as ingest takes them; a row with another type is skipped with
        its reason. Existing abstracts are never overwritten.
        """
        enrichment_path = Path(enrichment_path)
        if not enrichment_path.exists():
            raise FormatError(f"unreadable file: {enrichment_path}")

        by_title_year: dict[tuple[str, int | None], str] = {}
        for record in self._records.values():
            by_title_year.setdefault((normalize_title(record.title), record.year), record.id)

        report = EnrichmentReport()
        for line_no, line in _text_lines(enrichment_path):
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                report.skipped_rows.append((line_no, "not valid JSON"))
                continue
            if not isinstance(row, dict):
                report.skipped_rows.append((line_no, "row is not an object"))
                continue
            abstract = row.get("abstract")
            if not isinstance(abstract, str) or not abstract:
                report.skipped_rows.append((line_no, "missing abstract"))
                continue
            raw_id, title, year = row.get("id", ""), row.get("title"), row.get("year")
            if not _is_id(raw_id):
                report.skipped_rows.append((line_no, "id is not a string or an integer"))
                continue
            if raw_id:
                target = str(raw_id)
            elif title and "year" in row:
                if not isinstance(title, str):
                    report.skipped_rows.append((line_no, "title is not a string"))
                    continue
                if year is not None and type(year) is not int:  # a bool is not an integer
                    report.skipped_rows.append((line_no, "year is not an integer"))
                    continue
                target = by_title_year.get((normalize_title(title), year))
            else:
                report.skipped_rows.append((line_no, "needs id or title+year"))
                continue
            record = self._records.get(target) if target else None
            if record is None:
                report.unmatched.append(target if target else f"line {line_no}")
                continue
            if not record.abstract:
                record.abstract = abstract
                report.enriched += 1
        return report


_ID_TYPES = frozenset((str, int))
_STR_TYPE = frozenset((str,))


def _is_id(value) -> bool:
    """Whether ``value`` may be a record or reference id: a string, or an integer kept as its digits."""
    return type(value) in _ID_TYPES


def _record_from_json_dict(row: dict) -> tuple[ArticleRecord | None, str | None]:
    """Build a record from a parsed JSONL row; (None, reason) when rejected.

    The id and each reference id are a string or an integer, the year an integer or
    null, the title a string, the venue, source tag and abstract each a string or null,
    and the authors null or a list of strings; a row with another type is rejected.
    Each test is of the exact type, as JSON decodes values (a bool is not an integer).
    """
    if type(row) is not dict:
        return None, "row is not an object"
    raw_id = row.get("id", "")
    title = row.get("title")
    if "year" not in row:
        return None, "missing year"
    year = row["year"]
    if year is not None and type(year) is not int:
        return None, "year is not an integer"
    if type(raw_id) not in _ID_TYPES:
        return None, "id is not a string or an integer"
    if title is not None and type(title) is not str:
        return None, "title is not a string"
    if not raw_id:
        # No source id: derive one from title+year when possible.
        if not title:
            return None, "missing id"
        raw_id = canonical_id(title, year)
    if title is None:
        return None, "missing title"
    refs = row.get("reference_ids")
    if type(refs) is not list:
        return None, "missing reference_ids"
    ref_types = set(map(type, refs))
    if not ref_types <= _ID_TYPES:
        return None, "a reference id is not a string or an integer"
    gcc = row.get("global_citation_count")
    if gcc is not None and (type(gcc) is not int or gcc < 0):
        return None, "global_citation_count must be a non-negative integer"
    venue, tag, abstract = row.get("venue"), row.get("source_tag"), row.get("abstract")
    for key, value in (("venue", venue), ("source_tag", tag), ("abstract", abstract)):
        if value is not None and type(value) is not str:
            return None, f"{key} is not a string"
    authors = row.get("authors")
    if authors is not None and type(authors) is not list:
        return None, "authors is not a list"
    if authors is not None and not set(map(type, authors)) <= _STR_TYPE:
        return None, "an author is not a string"
    try:
        record = ArticleRecord(
            sys.intern(str(raw_id)), title, year,
            list(map(sys.intern, refs if ref_types <= _STR_TYPE else map(str, refs))),
            venue, authors, abstract, gcc, tag,
        )
    except ValidationError as exc:
        return None, str(exc)
    return record, None


def _text_lines(path: Path):
    """(line number, stripped text) of each non-blank line; undecodable bytes are a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield line_no, line
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _log_record(line: str) -> ArticleRecord | None:
    """One store line as its record, None when blank; ValueError when it does not
    parse or is not a valid record.

    The store is written as ASCII, so a non-ASCII line is checked for bytes
    that did not decode (kept as surrogate escapes by the reader).
    """
    line = line.strip()
    if not line:
        return None
    if not line.isascii():
        line.encode("utf-8")
    record, reason = _record_from_json_dict(json.loads(line))
    if record is None:
        raise ValueError(reason)
    return record


def _parse_jsonl(path: Path) -> list[tuple[int, ArticleRecord | None, str | None]]:
    rows: list[tuple[int, ArticleRecord | None, str | None]] = []
    for line_no, line in _text_lines(path):
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            rows.append((line_no, None, "not valid JSON"))
            continue
        record, reason = _record_from_json_dict(parsed)
        rows.append((line_no, record, reason))
    return rows


# Dimensions-style CSV: header-driven, these column names are the contract.
_CSV_ID = "Publication ID"
_CSV_TITLE = "Title"
_CSV_YEAR = "PubYear"
_CSV_REFS = "Cited references"
_CSV_TIMES_CITED = "Times cited"


def _parse_dimensions_csv(path: Path) -> list[tuple[int, ArticleRecord | None, str | None]]:
    rows: list[tuple[int, ArticleRecord | None, str | None]] = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for required in (_CSV_ID, _CSV_TITLE, _CSV_YEAR):
                if required not in header:
                    raise FormatError(f"dimensions-csv missing required column: {required}")
            for line_no, row in enumerate(reader, start=2):
                raw: dict = {}
                raw_id = (row.get(_CSV_ID) or "").strip()
                title = (row.get(_CSV_TITLE) or "").strip()
                year_text = (row.get(_CSV_YEAR) or "").strip()
                if year_text:
                    try:
                        raw["year"] = int(year_text)
                    except ValueError:
                        rows.append((line_no, None, f"unparseable PubYear: {year_text!r}"))
                        continue
                else:
                    raw["year"] = None
                if raw_id:
                    raw["id"] = raw_id
                if title:
                    raw["title"] = title
                refs_text = (row.get(_CSV_REFS) or "").strip()
                raw["reference_ids"] = [r.strip() for r in refs_text.split(";") if r.strip()]
                cited_text = (row.get(_CSV_TIMES_CITED) or "").strip()
                if cited_text:
                    try:
                        raw["global_citation_count"] = int(cited_text)
                    except ValueError:
                        rows.append((line_no, None, f"unparseable Times cited: {cited_text!r}"))
                        continue
                raw["source_tag"] = "dimensions-csv"
                record, reason = _record_from_json_dict(raw)
                rows.append((line_no, record, reason))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path} is not a readable CSV file: {exc}") from None
    return rows


# -- datasets ----------------------------------------------------------------


@dataclass
class Dataset:
    """A named set of article ids plus how it came to be."""

    name: str
    member_ids: set[str]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.member_ids)

    def to_json_dict(self) -> dict:
        """The JSON form, without the name: a dataset's name is its file's name."""
        return {"provenance": self.provenance, "member_ids": sorted(self.member_ids)}

    @classmethod
    def from_json_dict(cls, data: dict, name: str) -> "Dataset":
        """Dataset ``name`` from its JSON form, ignoring the ``name`` an older version wrote
        there; ValueError when ``member_ids`` is not a list of strings or ``provenance`` not an
        object. Members are interned, like the ids of the records they name."""
        members, provenance = data["member_ids"], data.get("provenance", {})
        if not isinstance(members, list) or not all(type(m) is str for m in members):
            raise ValueError("member_ids is not a list of strings")
        if type(provenance) is not dict:
            raise ValueError("provenance is not an object")
        return cls(name=name, member_ids=set(map(sys.intern, members)), provenance=provenance)


def dataset_union(datasets: list[Dataset], name: str) -> Dataset:
    """Union of one or more datasets; provenance records the input names."""
    if not datasets:
        raise ValidationError("dataset_union needs at least one input dataset")
    members: set[str] = set()
    for ds in datasets:
        members |= ds.member_ids
    return Dataset(
        name=name,
        member_ids=members,
        provenance={"kind": "union", "inputs": [ds.name for ds in datasets]},
    )


# phrase-in-fulltext-proxy matches title and abstract too (records carry no full text).
QUERY_KINDS = ("phrase-in-fulltext-proxy", "phrase-in-title-abstract", "id-lookup")


def search(store: RecordStore, kind: str, phrases: list[str], name: str) -> Dataset:
    """The records that hold any of ``phrases`` (case-insensitive) in their title or
    their abstract, or for ``id-lookup`` the stored ids among them, as a named dataset.
    A phrase split across title and abstract does not match."""
    if kind not in QUERY_KINDS:
        raise ValidationError(f"unknown query kind: {kind}")
    if not phrases:
        raise ValidationError("query needs at least one phrase")
    if not all(phrase.strip() for phrase in phrases):
        raise ValidationError("query phrases must not be blank")
    if kind == "id-lookup":
        members = {p for p in phrases if p in store}
    else:
        needles = [p.lower() for p in phrases]
        members = {record.id for record in store
                   if any(needle in text for text in (record.title.lower(), (record.abstract or "").lower())
                          for needle in needles)}
    return Dataset(name, members, {"kind": "query", "query_kind": kind, "phrases": list(phrases)})


@dataclass
class YearDistribution:
    """Article counts per publication year, with an UNKNOWN bucket.

    ``range`` spans the min/max year with count > 0; unknown-year records sit
    in ``unknown`` and never affect the range. ``log_counts`` holds ln(1+count).
    """

    dataset_name: str
    counts: dict[int, int]
    unknown: int
    range: tuple[int, int] | None
    log_counts: dict[int, float]

    def total(self) -> int:
        return sum(self.counts.values()) + self.unknown


_UNDATED = "undated"


@dataclass
class StoreSummary:
    """What year charts and dataset tables ask of a store: each stored id's year (None
    when undated) and the ids whose record has an abstract (one that is neither None
    nor ``""``).

    Its JSON form groups the ids by year, ``"undated"`` for None, under
    ``"with_abstract"`` and ``"without_abstract"``; each group is its sorted ids joined
    by ``"\\n"``, which no id holds (:class:`ArticleRecord` rejects control characters).
    """

    years: dict[str, int | None]
    with_abstract: frozenset[str]

    @classmethod
    def of(cls, store: RecordStore) -> "StoreSummary":
        return cls({record.id: record.year for record in store},
                   frozenset(record.id for record in store if record.abstract))

    def to_json_dict(self) -> dict:
        groups: dict[str, defaultdict[str, list[str]]] = {
            "with_abstract": defaultdict(list), "without_abstract": defaultdict(list)}
        for pub_id, year in self.years.items():
            side = "with_abstract" if pub_id in self.with_abstract else "without_abstract"
            groups[side][_UNDATED if year is None else str(year)].append(pub_id)
        return {side: {year: "\n".join(sorted(ids)) for year, ids in by_year.items()}
                for side, by_year in groups.items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StoreSummary":
        """A summary from its JSON form; ValueError when a side is not an object, a key is
        neither ``"undated"`` nor a year as written, or a group is not a string of ids each
        non-empty, free of control characters and found once in the whole summary."""
        years: dict[str, int | None] = {}
        with_abstract: set[str] = set()
        listed = 0
        for side in ("with_abstract", "without_abstract"):
            if type(data[side]) is not dict:
                raise ValueError(f"{side} is not an object")
            for key, text in data[side].items():
                year = None if key == _UNDATED else int(key)
                if year is not None and (str(year) != key or not MIN_YEAR <= year <= max_plausible_year()):
                    raise ValueError(f"{key!r} is not a year")
                if type(text) is not str or _CONTROL_RE.search(text.replace("\n", " ")):
                    raise ValueError(f"the ids of {side} {key} are not a text of ids")
                ids = text.split("\n")
                if "" in ids:
                    raise ValueError(f"an id of {side} {key} is empty")
                years.update(dict.fromkeys(ids, year))
                if side == "with_abstract":
                    with_abstract.update(ids)
                listed += len(ids)
        if listed != len(years):
            raise ValueError("an id is listed twice")
        return cls(years, frozenset(with_abstract))


def year_distribution(dataset: Dataset, summary: StoreSummary) -> YearDistribution:
    """The year counts of ``dataset``'s members, each dated by ``summary``; a member the
    summary does not hold, or holds undated, counts as unknown."""
    if not dataset.member_ids:
        raise EmptyDatasetError(f"dataset {dataset.name!r} is empty; nothing to summarize")
    counts: dict[int, int] = {}
    unknown = 0
    for pub_id in dataset.member_ids:
        year = summary.years.get(pub_id)
        if year is None:
            unknown += 1
            continue
        counts[year] = counts.get(year, 0) + 1
    year_range = (min(counts), max(counts)) if counts else None
    log_counts = {year: math.log1p(n) for year, n in counts.items()}
    return YearDistribution(
        dataset_name=dataset.name,
        counts=counts,
        unknown=unknown,
        range=year_range,
        log_counts=log_counts,
    )
