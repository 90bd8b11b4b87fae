"""Scene data model: anatomical structures, cell detections, ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .geometry import Polygon

GLOMERULUS = "glomerulus"
PERITUBULAR_CAPILLARY = "peritubular_capillary"
ARTERY = "artery"
OTHER = "other"
LYMPHOCYTE = "lymphocyte"
MONOCYTE = "monocyte"

SCORABLE_STRUCTURE_KINDS = (GLOMERULUS, PERITUBULAR_CAPILLARY, ARTERY)
KNOWN_CELL_KINDS = (LYMPHOCYTE, MONOCYTE)

# Annotation tools vary in label vocabulary; these defaults are overridable
# via config (`alias.<label> = <kind>` / `cell_alias.<label> = <kind>`).
DEFAULT_STRUCTURE_ALIASES: Dict[str, str] = {
    "glomerulus": GLOMERULUS,
    "glomerular tuft": GLOMERULUS,
    "ptc": PERITUBULAR_CAPILLARY,
    "peritubular capillary": PERITUBULAR_CAPILLARY,
    "artery": ARTERY,
    "arterial": ARTERY,
}

DEFAULT_CELL_ALIASES: Dict[str, str] = {
    "lymphocyte": LYMPHOCYTE,
    "monocyte": MONOCYTE,
}


def normalize_label(label: str) -> str:
    """Lowercase, trim, and collapse underscores/whitespace runs to one space."""
    return " ".join(str(label).replace("_", " ").split()).lower()


@dataclass(frozen=True)
class StructureClass:
    """Structure class: one of the three scorable kinds, or ``other`` with the
    original annotation label retained."""

    kind: str
    label: str = ""

    @classmethod
    def from_label(cls, label: object, aliases: Optional[Dict[str, str]] = None) -> "StructureClass":
        table = DEFAULT_STRUCTURE_ALIASES if aliases is None else aliases
        kind = table.get(normalize_label(label)) if label is not None else None
        if kind in SCORABLE_STRUCTURE_KINDS:
            return cls(kind)
        return cls(OTHER, "" if label is None else str(label))

    def to_string(self) -> str:
        if self.kind != OTHER:
            return self.kind
        return f"other:{self.label}" if self.label else "other"

    @classmethod
    def from_string(cls, s: str) -> "StructureClass":
        if s in SCORABLE_STRUCTURE_KINDS:
            return cls(s)
        if s == "other":
            return cls(OTHER)
        if s.startswith("other:"):
            return cls(OTHER, s[len("other:"):])
        raise ValueError(f"unknown structure class {s!r}")


@dataclass(frozen=True)
class CellClass:
    """Inflammatory-cell class, or ``other`` with the original label."""

    kind: str
    label: str = ""

    @classmethod
    def from_label(cls, label: object, aliases: Optional[Dict[str, str]] = None) -> "CellClass":
        table = DEFAULT_CELL_ALIASES if aliases is None else aliases
        kind = table.get(normalize_label(label)) if label is not None else None
        if kind in KNOWN_CELL_KINDS:
            return cls(kind)
        return cls(OTHER, "" if label is None else str(label))

    def to_string(self) -> str:
        if self.kind != OTHER:
            return self.kind
        return f"other:{self.label}" if self.label else "other"

    @classmethod
    def from_string(cls, s: str) -> "CellClass":
        if s in KNOWN_CELL_KINDS:
            return cls(s)
        if s == "other":
            return cls(OTHER)
        if s.startswith("other:"):
            return cls(OTHER, s[len("other:"):])
        raise ValueError(f"unknown cell class {s!r}")


@dataclass(frozen=True)
class Instance:
    """One segmented anatomical structure."""

    id: str
    cls: StructureClass
    polygon: Polygon
    properties: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Detection:
    """One verified inflammatory-cell point."""

    id: str
    point: Tuple[float, float]
    cls: CellClass
    confidence: float = 1.0


@dataclass
class SectionScene:
    """All instances and detections for one tissue section."""

    section_id: str
    instances: List[Instance] = field(default_factory=list)
    detections: List[Detection] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)


def scene_canvas(scene: SectionScene) -> Tuple[float, float, float, float]:
    """(min_x, min_y, max_x, max_y) working area of a scene.

    Uses ``metadata["canvas"]`` when present (``read_scene`` checks it),
    otherwise the padded bounding box of all geometry and detection points;
    (0, 0, 100, 100) for an empty scene.
    """
    canvas = scene.metadata.get("canvas")
    if canvas is not None:
        return tuple(map(float, canvas))
    xs: List[float] = []
    ys: List[float] = []
    for inst in scene.instances:
        b = inst.polygon.bounds
        xs.extend((b.min_x, b.max_x))
        ys.extend((b.min_y, b.max_y))
    for det in scene.detections:
        xs.append(det.point[0])
        ys.append(det.point[1])
    if not xs:
        return (0.0, 0.0, 100.0, 100.0)
    pad = 10.0
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


@dataclass(frozen=True)
class GroundTruthGrades:
    """Expert grades for one section; ``None`` marks an un-annotated indicator."""

    section_id: str
    g: Optional[int] = None
    ptc: Optional[int] = None
    v: Optional[int] = None
