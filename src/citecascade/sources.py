"""Uniform access to citation links over an offline snapshot.

A :class:`CitationSnapshot` is an immutable view of a record store with the
reference relation inverted: ``citer_index[a]`` holds every id whose reference
list contains ``a``. Forward lookups (who cites X) and backward lookups (what
X cites) both run off this structure. :func:`search` scans titles and
abstracts, which needs only the record store.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownPublicationError, ValidationError
from .records import ArticleRecord, Dataset, RecordStore

QUERY_KINDS = ("phrase-in-fulltext-proxy", "phrase-in-title-abstract", "id-lookup")


@dataclass
class SourceQuery:
    """A search request: phrases OR-combined, or a direct id lookup.

    The fulltext-proxy kind matches against title+abstract exactly like
    phrase-in-title-abstract does — snapshots carry no full text, so it is an
    explicit approximation, kept as a distinct kind for provenance.
    """

    kind: str
    phrases: list[str]

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValidationError(f"unknown query kind: {self.kind}")
        if not self.phrases:
            raise ValidationError("query needs at least one phrase")


class CitationSnapshot:
    """Immutable citation view: records plus the inverse reference index."""

    def __init__(self, records: dict[str, ArticleRecord]):
        self._records = dict(records)
        self._citer_index: dict[str, set[str]] = {pub_id: set() for pub_id in self._records}
        for record in self._records.values():
            for ref in record.reference_ids:
                if ref in self._records:
                    self._citer_index[ref].add(record.id)

    @classmethod
    def from_store(cls, store: RecordStore) -> "CitationSnapshot":
        return cls({record.id: record for record in store.records()})

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, pub_id: str) -> bool:
        return pub_id in self._records

    def ids(self) -> list[str]:
        return sorted(self._records)

    def record(self, pub_id: str) -> ArticleRecord:
        record = self._records.get(pub_id)
        if record is None:
            raise UnknownPublicationError(pub_id)
        return record

    def get_references(self, pub_id: str) -> list[str]:
        """Ids the record cites, restricted to ids resolvable in the snapshot."""
        record = self.record(pub_id)
        return [ref for ref in record.reference_ids if ref in self._records]

    def unresolved_references(self, pub_id: str) -> list[str]:
        """Cited ids that no snapshot record carries (kept out of analyses)."""
        record = self.record(pub_id)
        return [ref for ref in record.reference_ids if ref not in self._records]

    def get_citers(self, pub_id: str) -> list[str]:
        """Ids of snapshot records whose reference list contains ``pub_id``."""
        if pub_id not in self._records:
            raise UnknownPublicationError(pub_id)
        return sorted(self._citer_index[pub_id])

    def citation_count(self, pub_id: str) -> int:
        """Universe-wide citation count when the source reported one, else the
        snapshot-local citer count."""
        record = self.record(pub_id)
        if record.global_citation_count is not None:
            return record.global_citation_count
        return len(self._citer_index[pub_id])


def search(store: RecordStore, query: SourceQuery, name: str) -> Dataset:
    """Run a query over the store's titles and abstracts (or ids), wrapping hits
    as a named dataset."""
    if query.kind == "id-lookup":
        members = {p for p in query.phrases if p in store}
    else:
        needles = [p.lower() for p in query.phrases]
        members = set()
        for record in store:
            haystack = record.title.lower()
            if record.abstract:
                haystack += " " + record.abstract.lower()
            if any(needle in haystack for needle in needles):
                members.add(record.id)
    return Dataset(
        name=name,
        member_ids=members,
        provenance={"kind": "query", "query_kind": query.kind, "phrases": list(query.phrases)},
    )
