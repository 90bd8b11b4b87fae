"""Banff lesion grades g, ptc, v from per-instance inflammatory-cell counts.

Grading rules
-------------
g (glomerulitis): a glomerulus is inflamed when it contains more than
``GLOMERULUS_CELL_THRESHOLD`` (= 3) cells.  With ``rho`` the inflamed
fraction over all N glomeruli: grade 0 when rho = 0, 1 when 0 < rho < 1/4,
2 when 1/4 <= rho <= 1/2, 3 when rho > 1/2.  ``rho`` is kept as an exact
rational so the 1/4 and 1/2 edges never suffer floating-point
misclassification.

ptc (peritubular capillaritis) and v (intimal arteritis): graded from the
maximum per-instance count: 0 at 0, 1 for 1..4, 2 for 5..10, 3 above 10.

A section with zero instances of the required structure class is
``Unscorable`` rather than grade 0: "no tissue to assess" must not be
conflated with "no lesion".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from . import __version__
from .config import RunConfig
from .errors import MalformedDocument
from .geometry import assign_detections, build_index
from .ingest import canonical_json_bytes, checked_integer, dedup_detections
from .model import (
    ARTERY,
    GLOMERULUS,
    PERITUBULAR_CAPILLARY,
    SCORABLE_STRUCTURE_KINDS,
    SectionScene,
)

GLOMERULUS_CELL_THRESHOLD = 3  # a glomerulus is inflamed when count is strictly greater

_ONE_QUARTER = Fraction(1, 4)
_ONE_HALF = Fraction(1, 2)


def grade_from_inflamed_fraction(fraction: Fraction) -> int:
    """Map the inflamed-glomeruli fraction to grade 0-3 (exact rational compare)."""
    if fraction == 0:
        return 0
    if fraction < _ONE_QUARTER:
        return 1
    if fraction <= _ONE_HALF:
        return 2
    return 3


def grade_from_max_count(count: int) -> int:
    """Map a maximum per-instance cell count to grade 0-3."""
    if count == 0:
        return 0
    if count <= 4:
        return 1
    if count <= 10:
        return 2
    return 3


@dataclass(frozen=True)
class Unscorable:
    """Indicator cannot be scored: the section has no instances of the
    required structure class.  A value, not an error."""

    reason: str


@dataclass(frozen=True)
class GScoreDetail:
    """Glomerulitis breakdown: per-glomerulus counts, inflamed flags, the
    exact inflamed fraction, and the resulting grade."""

    per_instance: Tuple[Tuple[str, int, bool], ...]  # (instance id, count, inflamed)
    n_structures: int
    inflamed_fraction: Fraction
    grade: int


@dataclass(frozen=True)
class MaxCountDetail:
    """Max-count indicator breakdown (ptc and v)."""

    per_instance: Tuple[Tuple[str, int], ...]  # (instance id, count)
    max_count: int
    grade: int


GradeDetail = Union[GScoreDetail, MaxCountDetail, Unscorable]


def score_g(counts: Mapping[str, int]) -> Union[GScoreDetail, Unscorable]:
    """Glomerulitis grade from per-glomerulus cell counts."""
    if not counts:
        return Unscorable("no glomeruli")
    items = tuple(
        (iid, count, count > GLOMERULUS_CELL_THRESHOLD) for iid, count in sorted(counts.items())
    )
    inflamed = sum(1 for _, _, flag in items if flag)
    fraction = Fraction(inflamed, len(items))
    return GScoreDetail(
        per_instance=items,
        n_structures=len(items),
        inflamed_fraction=fraction,
        grade=grade_from_inflamed_fraction(fraction),
    )


def _score_max(counts: Mapping[str, int], empty_reason: str) -> Union[MaxCountDetail, Unscorable]:
    if not counts:
        return Unscorable(empty_reason)
    items = tuple(sorted(counts.items()))
    max_count = max(count for _, count in items)
    return MaxCountDetail(per_instance=items, max_count=max_count, grade=grade_from_max_count(max_count))


def score_ptc(counts: Mapping[str, int]) -> Union[MaxCountDetail, Unscorable]:
    """Peritubular capillaritis grade from per-capillary cell counts."""
    return _score_max(counts, "no peritubular capillaries")


def score_v(counts: Mapping[str, int]) -> Union[MaxCountDetail, Unscorable]:
    """Intimal arteritis grade from per-artery cell counts."""
    return _score_max(counts, "no arteries")


_REGRADE = {"g": score_g, "ptc": score_ptc, "v": score_v}


@dataclass(frozen=True)
class ScoreReport:
    """Grades plus full intermediates for one section."""

    section_id: str
    g: Union[GScoreDetail, Unscorable]
    ptc: Union[MaxCountDetail, Unscorable]
    v: Union[MaxCountDetail, Unscorable]
    config: Dict[str, object] = field(default_factory=dict)

    def grade(self, indicator: str) -> Union[int, Unscorable]:
        detail = getattr(self, indicator)
        return detail if isinstance(detail, Unscorable) else detail.grade


def score_section(scene: SectionScene, config: RunConfig = RunConfig()) -> ScoreReport:
    """Filter detections per config, assign them to structures, and grade.

    Deterministic: identical (scene, config) always produce an identical
    report, and the report embeds the config snapshot it was computed with.
    """
    detections = scene.detections.take(scene.detections.keep(config.cell_classes, config.min_confidence))
    if config.dedup_radius is not None:
        detections = dedup_detections(detections, config.dedup_radius)
    scorable = [inst for inst in scene.instances if inst.cls.kind in SCORABLE_STRUCTURE_KINDS]
    table = assign_detections(detections, scorable, build_index(scorable))
    by_kind: Dict[str, Dict[str, int]] = {kind: {} for kind in SCORABLE_STRUCTURE_KINDS}
    for inst in scorable:
        by_kind[inst.cls.kind][inst.id] = table.counts[inst.id]
    return ScoreReport(
        section_id=scene.section_id,
        g=score_g(by_kind[GLOMERULUS]),
        ptc=score_ptc(by_kind[PERITUBULAR_CAPILLARY]),
        v=score_v(by_kind[ARTERY]),
        config=config.snapshot(),
    )


# ---------------------------------------------------------------------------
# report (de)serialization

def _detail_to_dict(detail: GradeDetail) -> dict:
    if isinstance(detail, Unscorable):
        return {"status": "unscorable", "reason": detail.reason}
    if isinstance(detail, GScoreDetail):
        return {
            "status": "scored",
            "grade": detail.grade,
            "n_structures": detail.n_structures,
            "inflamed_fraction": float(detail.inflamed_fraction),
            "inflamed_fraction_ratio": [
                detail.inflamed_fraction.numerator,
                detail.inflamed_fraction.denominator,
            ],
            "per_instance": [
                {"id": iid, "count": count, "inflamed": flag}
                for iid, count, flag in detail.per_instance
            ],
        }
    return {
        "status": "scored",
        "grade": detail.grade,
        "max_count": detail.max_count,
        "per_instance": [{"id": iid, "count": count} for iid, count in detail.per_instance],
    }


def report_to_dict(report: ScoreReport) -> dict:
    return {
        "schema": "banffscore.score_report/1",
        "tool_version": __version__,
        "section_id": report.section_id,
        "config": report.config,
        "g": _detail_to_dict(report.g),
        "ptc": _detail_to_dict(report.ptc),
        "v": _detail_to_dict(report.v),
    }


def report_to_json(report: ScoreReport) -> bytes:
    return canonical_json_bytes(report_to_dict(report))


def _detail_from_dict(doc: dict, indicator: str) -> GradeDetail:
    """Re-grade the detail's per-instance counts; every key this program
    writes for those counts must read back as the same JSON text."""
    counts: Dict[str, int] = {}
    if doc.get("status") != "unscorable":
        entries = doc.get("per_instance")
        if not isinstance(entries, list):
            raise MalformedDocument(f"{indicator}.per_instance: expected a list")
        for k, entry in enumerate(entries):
            where = f"{indicator}.per_instance[{k}]"
            iid = entry.get("id") if isinstance(entry, dict) else None
            if not isinstance(iid, str):
                raise MalformedDocument(f"{where}.id: expected a string, got {iid!r}")
            if iid in counts:
                raise MalformedDocument(f"{where}.id: {iid!r} repeats")
            count = checked_integer(entry.get("count"), f"{where}.count", MalformedDocument)
            if count < 0:
                raise MalformedDocument(f"{where}.count: expected an integer >= 0, got {count}")
            counts[iid] = count
    detail = _REGRADE[indicator](counts)
    for key, value in _detail_to_dict(detail).items():
        if json.dumps(doc.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            raise MalformedDocument(f"{indicator}.{key}: does not match the re-graded per_instance counts")
    return detail


def report_from_dict(doc: dict) -> ScoreReport:
    if not isinstance(doc, dict) or doc.get("schema") != "banffscore.score_report/1":
        raise MalformedDocument("not a banffscore score report")
    details: Dict[str, GradeDetail] = {}
    for indicator in ("g", "ptc", "v"):
        entry = doc.get(indicator)
        if not isinstance(entry, dict):
            raise MalformedDocument(f"score report missing {indicator!r}")
        details[indicator] = _detail_from_dict(entry, indicator)
    config = doc.get("config", {})
    section_id = doc.get("section_id", "")
    if not isinstance(section_id, str):
        raise MalformedDocument(f"section_id: expected a string, got {section_id!r}")
    return ScoreReport(
        section_id=section_id,
        g=details["g"],
        ptc=details["ptc"],
        v=details["v"],
        config=config if isinstance(config, dict) else {},
    )
