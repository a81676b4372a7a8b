"""Search queries over the record store.

:func:`search` matches phrases against each record's title and abstract (or
looks ids up directly) and wraps the hits as a named dataset. The citation
lookups live on :class:`~citecascade.records.RecordStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .records import Dataset, RecordStore

QUERY_KINDS = ("phrase-in-fulltext-proxy", "phrase-in-title-abstract", "id-lookup")


@dataclass
class SourceQuery:
    """A search request: phrases OR-combined, or a direct id lookup.

    The fulltext-proxy kind matches against title and abstract exactly like
    phrase-in-title-abstract does — records carry no full text, so it is an
    explicit approximation, kept as a distinct kind for provenance.
    """

    kind: str
    phrases: list[str]

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValidationError(f"unknown query kind: {self.kind}")
        if not self.phrases:
            raise ValidationError("query needs at least one phrase")
        if not all(phrase.strip() for phrase in self.phrases):
            raise ValidationError("query phrases must not be blank")


def search(store: RecordStore, query: SourceQuery, name: str) -> Dataset:
    """Run a query over the store's titles and abstracts (or ids), wrapping hits
    as a named dataset. A phrase matches when the title or the abstract holds
    it; a phrase split across the two fields does not."""
    if query.kind == "id-lookup":
        members = {p for p in query.phrases if p in store}
    else:
        needles = [p.lower() for p in query.phrases]
        members = set()
        for record in store:
            fields = (record.title.lower(), (record.abstract or "").lower())
            if any(needle in text for needle in needles for text in fields):
                members.add(record.id)
    return Dataset(
        name=name,
        member_ids=members,
        provenance={"kind": "query", "query_kind": query.kind, "phrases": list(query.phrases)},
    )
