"""Scene data model: anatomical structures, cell detections, ground truth."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple, Type, TypeVar

import numpy as np

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


_Label = TypeVar("_Label", bound="_ClassLabel")


@dataclass(frozen=True)
class _ClassLabel:
    """A class label: one of the type's ``kinds``, or ``other`` with the
    original annotation label retained.  Subclasses set ``kinds``, the
    ``default_aliases`` :meth:`from_label` maps through, and the ``noun``
    of :meth:`from_string`'s error; two types never compare equal."""

    kind: str
    label: str = ""

    kinds: ClassVar[Tuple[str, ...]] = ()
    default_aliases: ClassVar[Dict[str, str]] = {}
    noun: ClassVar[str] = ""

    @classmethod
    def from_label(cls: Type[_Label], label: object, aliases: Optional[Dict[str, str]] = None) -> _Label:
        table = cls.default_aliases if aliases is None else aliases
        kind = table.get(normalize_label(label)) if label is not None else None
        if kind in cls.kinds:
            return cls(kind)
        return cls(OTHER, "" if label is None else str(label))

    def to_string(self) -> str:
        if self.kind != OTHER:
            return self.kind
        return f"other:{self.label}" if self.label else "other"

    @classmethod
    def from_string(cls: Type[_Label], s: str) -> _Label:
        if s in cls.kinds:
            return cls(s)
        if s == "other":
            return cls(OTHER)
        if s.startswith("other:"):
            return cls(OTHER, s[len("other:"):])
        raise ValueError(f"unknown {cls.noun} class {s!r}")


class StructureClass(_ClassLabel):
    """Structure class: one of the three scorable kinds, or ``other``."""

    kinds = SCORABLE_STRUCTURE_KINDS
    default_aliases = DEFAULT_STRUCTURE_ALIASES
    noun = "structure"


class CellClass(_ClassLabel):
    """Inflammatory-cell class, or ``other``."""

    kinds = KNOWN_CELL_KINDS
    default_aliases = DEFAULT_CELL_ALIASES
    noun = "cell"


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


class DetectionTable(Sequence):
    """Detections as columns: ``ids`` (object array of str), ``xs``, ``ys``
    and ``confidences`` (float64), and ``codes``, each an index into
    ``classes``, the distinct cell classes.

    A ``Sequence[Detection]``: ``len``, indexing and iteration build
    :class:`Detection` rows on demand, so code written for a list of rows
    reads a table unchanged.  A slice is a table.
    """

    __slots__ = ("ids", "xs", "ys", "confidences", "codes", "classes")

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, confidences: np.ndarray,
                 codes: np.ndarray, classes: Tuple[CellClass, ...]):
        self.ids, self.xs, self.ys = ids, xs, ys
        self.confidences, self.codes, self.classes = confidences, codes, classes

    @classmethod
    def from_labels(cls, ids: Sequence[str], xs: np.ndarray, ys: np.ndarray, confidences: np.ndarray,
                    labels: Sequence, parse: Callable[..., CellClass] = lambda c: c) -> "DetectionTable":
        """The table of these columns, row ``i`` of class ``parse(labels[i])``.
        Each distinct label is parsed once, in order of first appearance."""
        code_of_class: Dict[CellClass, int] = {}
        code_of = {x: code_of_class.setdefault(parse(x), len(code_of_class)) for x in dict.fromkeys(labels)}
        codes = np.fromiter(map(code_of.__getitem__, labels), dtype=np.intp, count=len(labels))
        ids_column = np.empty(len(ids), dtype=object)
        ids_column[:] = ids
        return cls(ids_column, xs, ys, confidences, codes, tuple(code_of_class))

    @classmethod
    def from_rows(cls, detections: "Sequence[Detection]") -> "DetectionTable":
        """The table of any sequence of detections; a table is returned as is."""
        if isinstance(detections, DetectionTable):
            return detections
        numbers = np.array([(*d.point, d.confidence) for d in detections], dtype=np.float64)
        xs, ys, confidences = numbers.reshape(len(detections), 3).T.copy()
        return cls.from_labels([d.id for d in detections], xs, ys, confidences, [d.cls for d in detections])

    def __len__(self) -> int:
        return self.xs.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return Detection(self.ids[i], (float(self.xs[i]), float(self.ys[i])),
                         self.classes[self.codes[i]], float(self.confidences[i]))

    def __iter__(self) -> Iterator[Detection]:
        classes = self.classes
        for did, x, y, code, c in zip(self.ids.tolist(), self.xs.tolist(), self.ys.tolist(),
                                      self.codes.tolist(), self.confidences.tolist()):
            yield Detection(did, (x, y), classes[code], c)

    # a table equals the list of its rows, and a list has no hash
    __hash__ = None

    def __eq__(self, other):
        """Row by row against any sequence of detections, a table included."""
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __add__(self, other):
        """This table's rows, then those of ``other``, any sequence of detections."""
        if not isinstance(other, Sequence):
            return NotImplemented
        other = DetectionTable.from_rows(other)
        classes = tuple(dict.fromkeys(self.classes + other.classes))
        codes = np.array([classes.index(c) for c in other.classes], dtype=np.intp)[other.codes]
        columns = zip((self.ids, self.xs, self.ys, self.confidences, self.codes),
                      (other.ids, other.xs, other.ys, other.confidences, codes))
        return DetectionTable(*map(np.concatenate, columns), classes)

    def __radd__(self, other):
        return DetectionTable.from_rows(other) + self if isinstance(other, Sequence) else NotImplemented

    def take(self, rows) -> "DetectionTable":
        """The rows a boolean mask, a position array or a slice selects, in order."""
        return DetectionTable(self.ids[rows], self.xs[rows], self.ys[rows], self.confidences[rows],
                              self.codes[rows], self.classes)

    def kind_codes(self) -> np.ndarray:
        """Per row, an integer that is equal for two rows iff their classes
        have the same ``kind``."""
        kinds = [c.kind for c in self.classes]
        return np.array([kinds.index(k) for k in kinds], dtype=np.intp)[self.codes]

    def keep(self, kinds: Optional[Iterable[str]], min_confidence: float) -> np.ndarray:
        """Mask of the rows whose class kind is in ``kinds`` (every kind when
        None) and whose confidence is >= ``min_confidence``."""
        mask = self.confidences >= min_confidence
        if kinds is not None:
            wanted = set(kinds)
            mask &= np.array([c.kind in wanted for c in self.classes], dtype=bool)[self.codes]
        return mask


@dataclass
class SectionScene:
    """All instances and detections for one tissue section; ``detections``,
    given as any sequence of detections, is held as a :class:`DetectionTable`."""

    section_id: str
    instances: List[Instance] = field(default_factory=list)
    detections: DetectionTable = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.detections = DetectionTable.from_rows(self.detections)


@dataclass(frozen=True)
class GroundTruthGrades:
    """Expert grades for one section; ``None`` marks an un-annotated indicator."""

    section_id: str
    g: Optional[int] = None
    ptc: Optional[int] = None
    v: Optional[int] = None
