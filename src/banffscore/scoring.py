"""Banff lesion grades from per-instance inflammatory-cell counts.

The rules are the README's "Grading rules" table: each indicator of
:data:`~banffscore.model.INDICATORS` grades its structure kind, and its
grade is the number of :data:`GRADE_EDGES` its statistic passes.  The
inflamed fraction of g is an exact rational, so no edge is decided by
floating point.

A section with zero instances of the required structure class is
``Unscorable`` rather than grade 0: "no tissue to assess" must not be
conflated with "no lesion".
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import IndexMismatch, MalformedDocument, echo
from .geometry import SpatialIndex, build_index, contained_pairs
from .ingest import canonical_json_bytes, checked_integer, dedup_detections
from .model import (
    ARTERY,
    GLOMERULUS,
    INDICATORS,
    PERITUBULAR_CAPILLARY,
    SCORABLE_STRUCTURE_KINDS,
    DetectionTable,
    Instance,
    SectionScene,
)

GLOMERULUS_CELL_THRESHOLD = 3  # a glomerulus is inflamed when count is strictly greater

# Per indicator, its ordered edges over the inflamed fraction of glomeruli
# (g) or the maximum per-instance count (the others).  A statistic passes
# an open edge (">") above its value and a closed one (">=") also at it.
GRADE_EDGES: Dict[str, Tuple[Tuple[str, Union[int, Fraction]], ...]] = {
    "g": ((">", Fraction(0)), (">=", Fraction(1, 4)), (">", Fraction(1, 2))),
    "ptc": ((">", 0), (">", 4), (">", 10)),
    "v": ((">", 0), (">", 4), (">", 10)),
}

_UNSCORABLE_REASON = {
    GLOMERULUS: "no glomeruli",
    PERITUBULAR_CAPILLARY: "no peritubular capillaries",
    ARTERY: "no arteries",
}


def _grade(indicator: str, statistic: Union[int, Fraction]) -> int:
    """The number of the indicator's edges that ``statistic`` passes."""
    edges = GRADE_EDGES[indicator]
    return sum(statistic > value or (op == ">=" and statistic == value) for op, value in edges)


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


def score_indicator(indicator: str, counts: Mapping[str, int]) -> GradeDetail:
    """The grade detail of ``indicator`` from the cell counts of the
    instances of its structure kind, keyed by instance id."""
    kind = INDICATORS[indicator]
    if not counts:
        return Unscorable(_UNSCORABLE_REASON[kind])
    if kind == GLOMERULUS:
        flagged = tuple(
            (iid, count, count > GLOMERULUS_CELL_THRESHOLD) for iid, count in sorted(counts.items())
        )
        fraction = Fraction(sum(1 for _, _, flag in flagged if flag), len(flagged))
        return GScoreDetail(per_instance=flagged, n_structures=len(flagged), inflamed_fraction=fraction,
                            grade=_grade(indicator, fraction))
    items = tuple(sorted(counts.items()))
    max_count = max(count for _, count in items)
    return MaxCountDetail(per_instance=items, max_count=max_count, grade=_grade(indicator, max_count))


def score_g(counts: Mapping[str, int]) -> Union[GScoreDetail, Unscorable]:
    """Glomerulitis grade from per-glomerulus cell counts."""
    return score_indicator("g", counts)


def score_ptc(counts: Mapping[str, int]) -> Union[MaxCountDetail, Unscorable]:
    """Peritubular capillaritis grade from per-capillary cell counts."""
    return score_indicator("ptc", counts)


def score_v(counts: Mapping[str, int]) -> Union[MaxCountDetail, Unscorable]:
    """Intimal arteritis grade from per-artery cell counts."""
    return score_indicator("v", counts)


@dataclass(frozen=True)
class ScoreReport:
    """Grades plus full intermediates for one section, one field per
    indicator of :data:`~banffscore.model.INDICATORS`."""

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
    scorable = [inst for inst in scene.instances if inst.cls.kind in SCORABLE_STRUCTURE_KINDS]
    details = _section_details(scene.detections, config, scorable, build_index(scorable))
    return ScoreReport(section_id=scene.section_id, config=config.snapshot(), **details)


def _section_details(detections: DetectionTable, config: RunConfig, scorable: Sequence[Instance],
                     index: SpatialIndex) -> Dict[str, GradeDetail]:
    """The grade details :func:`score_section` reports for a scene with these
    detections, whose scorable instances are ``scorable`` (ids distinct, or
    IndexMismatch), indexed by ``index``."""
    detections = _counted(detections, config)
    repeated = [i for i, n in Counter(inst.id for inst in scorable).items() if n > 1]
    if repeated:
        raise IndexMismatch(f"duplicate instance id {echo(repeated[0])}")
    found = contained_pairs(index, detections.xs, detections.ys)[1]
    return _graded(scorable, np.bincount(found, minlength=len(scorable)).tolist())


def _counted(detections: DetectionTable, config: RunConfig) -> DetectionTable:
    """The detections scoring counts: those of the configured classes and
    confidence, deduplicated when the config gives a radius."""
    keep = detections.keep(config.cell_classes, config.min_confidence)
    if not keep.all():
        detections = detections.take(keep)
    if config.dedup_radius is not None:
        detections = dedup_detections(detections, config.dedup_radius)
    return detections


def _graded(instances: Sequence[Instance], counts: Sequence[int]) -> Dict[str, GradeDetail]:
    """Per indicator, its grade detail when scorable instance ``instances[k]``
    holds ``counts[k]`` cells; the ids are distinct."""
    by_kind: Dict[str, Dict[str, int]] = {kind: {} for kind in SCORABLE_STRUCTURE_KINDS}
    for inst, count in zip(instances, counts):
        by_kind[inst.cls.kind][inst.id] = count
    return {name: score_indicator(name, by_kind[kind]) for name, kind in INDICATORS.items()}


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
        **{name: _detail_to_dict(getattr(report, name)) for name in INDICATORS},
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
                raise MalformedDocument(f"{where}.id: expected a string, got {echo(iid)}")
            if iid in counts:
                raise MalformedDocument(f"{where}.id: {echo(iid)} repeats")
            count = checked_integer(entry.get("count"), f"{where}.count", MalformedDocument)
            if count < 0:
                raise MalformedDocument(
                    f"{where}.count: expected an integer >= 0, got {echo(count)}"
                )
            counts[iid] = count
    detail = score_indicator(indicator, counts)
    for key, value in _detail_to_dict(detail).items():
        if json.dumps(doc.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            raise MalformedDocument(f"{indicator}.{key}: does not match the re-graded per_instance counts")
    return detail


def report_from_dict(doc: dict) -> ScoreReport:
    if not isinstance(doc, dict) or doc.get("schema") != "banffscore.score_report/1":
        raise MalformedDocument("not a banffscore score report")
    details: Dict[str, GradeDetail] = {}
    for indicator in INDICATORS:
        entry = doc.get(indicator)
        if not isinstance(entry, dict):
            raise MalformedDocument(f"score report missing {indicator!r}")
        details[indicator] = _detail_from_dict(entry, indicator)
    config = doc.get("config", {})
    section_id = doc.get("section_id", "")
    if not isinstance(section_id, str):
        raise MalformedDocument(f"section_id: expected a string, got {echo(section_id)}")
    return ScoreReport(section_id=section_id, config=config if isinstance(config, dict) else {}, **details)
