"""Scene data model: anatomical structures, cell detections, ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type, TypeVar

import numpy as np

from .errors import echo
from .geometry import Polygon

GLOMERULUS = "glomerulus"
PERITUBULAR_CAPILLARY = "peritubular_capillary"
ARTERY = "artery"
OTHER = "other"
LYMPHOCYTE = "lymphocyte"
MONOCYTE = "monocyte"

# The Banff indicators in report order, each with the structure kind it
# grades: the one place the indicator set is written down.
INDICATORS: Dict[str, str] = {"g": GLOMERULUS, "ptc": PERITUBULAR_CAPILLARY, "v": ARTERY}

SCORABLE_STRUCTURE_KINDS = tuple(INDICATORS.values())
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
        raise ValueError(f"unknown {cls.noun} class {echo(s)}")


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


class DetectionTable:
    """Detections as columns: ``ids`` (object array of str), ``xs``, ``ys``
    and ``confidences`` (float64), and ``codes``, each an index into
    ``classes``, the distinct cell classes.

    Rows come in through :meth:`from_rows`, iteration gives them back as
    :class:`Detection` objects, and :meth:`take` selects them.  Equality and
    ``+`` are table to table: two tables are equal when their rows are, in
    order, each class compared by value and not by code.
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

    def __iter__(self) -> Iterator[Detection]:
        classes = self.classes
        for did, x, y, code, c in zip(self.ids.tolist(), self.xs.tolist(), self.ys.tolist(),
                                      self.codes.tolist(), self.confidences.tolist()):
            yield Detection(did, (x, y), classes[code], c)

    def __eq__(self, other):
        if not isinstance(other, DetectionTable):
            return NotImplemented
        classes = tuple(dict.fromkeys(self.classes + other.classes))
        return all(map(np.array_equal, (self.ids, self.xs, self.ys, self.confidences, self._codes_in(classes)),
                       (other.ids, other.xs, other.ys, other.confidences, other._codes_in(classes))))

    def __add__(self, other):
        """This table's rows, then those of ``other``."""
        if not isinstance(other, DetectionTable):
            return NotImplemented
        classes = tuple(dict.fromkeys(self.classes + other.classes))
        columns = zip((self.ids, self.xs, self.ys, self.confidences, self.codes),
                      (other.ids, other.xs, other.ys, other.confidences, other._codes_in(classes)))
        return DetectionTable(*map(np.concatenate, columns), classes)

    def _codes_in(self, classes: Tuple[CellClass, ...]) -> np.ndarray:
        """Per row, the position of its class in ``classes``."""
        return np.array([classes.index(c) for c in self.classes], dtype=np.intp)[self.codes]

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
    given as a table or a list of :class:`Detection` rows, is held as a
    :class:`DetectionTable` (rows go through :meth:`DetectionTable.from_rows`)."""

    section_id: str
    instances: List[Instance] = field(default_factory=list)
    detections: DetectionTable = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.detections = DetectionTable.from_rows(self.detections)


@dataclass(frozen=True)
class GroundTruthGrades:
    """Expert grades for one section, one field per indicator of
    :data:`INDICATORS`; ``None`` marks an un-annotated indicator."""

    section_id: str
    g: Optional[int] = None
    ptc: Optional[int] = None
    v: Optional[int] = None
