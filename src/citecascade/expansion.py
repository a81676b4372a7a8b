"""Staged citation-cascade expansion with threshold filters and audit traces.

An expansion grows a seed set of publications by following citation links.
Each stage walks one direction (FORWARD = who cites the set, BACKWARD = what
the set cites) for a number of generations. Generation 1 of a stage expands
the whole accumulated set; every later generation expands only the previous
generation's additions, so a k-generation stage reaches exactly the k-hop
neighbourhood. Candidates must clear a citation-count threshold to be
admitted; seeds bypass the filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownPublicationError, ValidationError
from .records import Dataset, RecordStore

FORWARD = "FORWARD"
BACKWARD = "BACKWARD"

REASON_EXHAUSTED = "generations exhausted"
REASON_EMPTY_FRONTIER = "empty frontier"
REASON_CAP = "cap reached"


def parse_direction(text: str) -> str:
    upper = text.strip().upper()
    if upper in ("F", FORWARD):
        return FORWARD
    if upper in ("B", BACKWARD):
        return BACKWARD
    raise ValidationError(f"unknown expansion direction: {text!r}")


@dataclass
class ExpansionStage:
    direction: str
    generations: int

    def __post_init__(self) -> None:
        self.direction = parse_direction(self.direction)
        if self.generations < 1:
            raise ValidationError("stage generations must be >= 1")


@dataclass
class ExpansionSpec:
    """The expansion program: seeds, ordered stages, thresholds, optional cap.

    ``theta_citer`` applies to FORWARD candidates (a citer qualifies when its
    own citation count reaches the threshold); ``theta_ref`` applies to
    BACKWARD candidates the same way.
    """

    seed_ids: set[str]
    stages: list[ExpansionStage]
    theta_citer: int = 0
    theta_ref: int = 0
    per_generation_cap: int | None = None

    def __post_init__(self) -> None:
        if not self.seed_ids:
            raise ValidationError("expansion needs at least one seed id")
        if not self.stages:
            raise ValidationError("expansion needs at least one stage")
        if self.theta_citer < 0 or self.theta_ref < 0:
            raise ValidationError("thresholds must be >= 0")
        if self.per_generation_cap is not None and self.per_generation_cap < 1:
            raise ValidationError("per_generation_cap must be >= 1 when set")

    def to_json_dict(self) -> dict:
        out: dict = {
            "seeds": sorted(self.seed_ids),
            "stages": [
                {"dir": "F" if s.direction == FORWARD else "B", "gens": s.generations}
                for s in self.stages
            ],
            "theta_citer": self.theta_citer,
            "theta_ref": self.theta_ref,
        }
        if self.per_generation_cap is not None:
            out["cap"] = self.per_generation_cap
        return out


@dataclass
class GenerationRecord:
    stage_index: int
    direction: str
    examined: int
    candidates_found: int
    candidates_qualified: int
    added_ids: list[str]
    accumulated_size: int


@dataclass
class ExpansionTrace:
    """Per-generation audit log of one cascade run."""

    generations: list[GenerationRecord] = field(default_factory=list)
    stage_reasons: dict[int, str] = field(default_factory=dict)
    terminal_reason: str = REASON_EXHAUSTED

    def to_json_dict(self) -> dict:
        return {
            "generations": [
                {
                    "stage": g.stage_index,
                    "direction": g.direction,
                    "examined": g.examined,
                    "found": g.candidates_found,
                    "qualified": g.candidates_qualified,
                    "added_ids": list(g.added_ids),
                    "accumulated": g.accumulated_size,
                }
                for g in self.generations
            ],
            "stage_reasons": {str(k): v for k, v in self.stage_reasons.items()},
            "terminal_reason": self.terminal_reason,
        }


def _qualified_step(
    store: RecordStore, frontier: set[str], direction: str, known: set[str], theta: int
) -> tuple[set[str], list[str]]:
    """One step's candidates (frontier neighbours not in ``known``) and, sorted,
    those whose citation count reaches ``theta``."""
    candidates: set[str] = set()
    for pub_id in frontier:
        if direction == FORWARD:
            candidates.update(store.get_citers(pub_id))
        else:
            candidates.update(store.get_references(pub_id))
    candidates -= known
    return candidates, sorted(c for c in candidates if store.citation_count(c) >= theta)


def run_cascade(
    store: RecordStore, spec: ExpansionSpec, name: str
) -> tuple[Dataset, ExpansionTrace]:
    """Execute the staged expansion, returning the dataset and its trace.

    Candidate admission is a deterministic merge in sorted id order; when the
    per-generation cap bites, candidates are admitted by citation count
    descending (ties: id ascending) and the stage ends with "cap reached".
    """
    missing = sorted(s for s in spec.seed_ids if s not in store)
    if missing:
        raise UnknownPublicationError(", ".join(missing))

    accumulated: set[str] = set(spec.seed_ids)
    trace = ExpansionTrace()
    for stage_index, stage in enumerate(spec.stages):
        theta = spec.theta_citer if stage.direction == FORWARD else spec.theta_ref
        frontier = set(accumulated)
        reason = REASON_EXHAUSTED
        for _generation in range(stage.generations):
            if not frontier:
                reason = REASON_EMPTY_FRONTIER
                break
            candidates, qualified = _qualified_step(
                store, frontier, stage.direction, accumulated, theta
            )
            capped = (
                spec.per_generation_cap is not None
                and len(qualified) > spec.per_generation_cap
            )
            if capped:
                by_count = sorted(qualified, key=lambda c: (-store.citation_count(c), c))
                added = sorted(by_count[: spec.per_generation_cap])
            else:
                added = qualified
            accumulated.update(added)
            trace.generations.append(
                GenerationRecord(
                    stage_index=stage_index,
                    direction=stage.direction,
                    examined=len(frontier),
                    candidates_found=len(candidates),
                    candidates_qualified=len(qualified),
                    added_ids=added,
                    accumulated_size=len(accumulated),
                )
            )
            if capped:
                reason = REASON_CAP
                break
            frontier = set(added)
        trace.stage_reasons[stage_index] = reason
        trace.terminal_reason = reason

    dataset = Dataset(
        name=name,
        member_ids=accumulated,
        provenance={"kind": "expansion", "spec": spec.to_json_dict()},
    )
    return dataset, trace
