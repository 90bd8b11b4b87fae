"""Seeded synthetic scenes with grades known by construction, plus error injection.

Scenes are built from explicit per-instance planted cell counts, so the
ground-truth grades come straight from the grading rules applied to those
counts -- :func:`~banffscore.scoring.score_indicator` without the geometry
pipeline, which the test suite cross-checks against it.  Instances are
convex polygons (randomized 12-24-gon approximations of ellipses) placed
without overlap via bounding-circle rejection sampling, each attempt tested
against the placed circles a grid finds near it (:class:`_Circles`);
convexity keeps uniform interior sampling cheap and grades depend only on
containment counts, not boundary realism.

The scene stream is read in a fixed order: every placement, then every
planted cell (read in blocks as :func:`_plant` describes), then the
background.

Perturbations run in a fixed order -- instance omission, instance
hallucination, detection false-negative dropout, false-positive insertion,
coordinate jitter -- because the operations do not commute; the order
mirrors pipeline causality (segmentation errors precede detection errors).
Each stage and each sensitivity trial draws from its own stream derived via
:func:`banffscore.seeds.derive_seed`.  Jittered detections may leave their
instance; there is deliberately no clamping.

The trials of :func:`sensitivity_run` share the baseline scene's index and
circle grid, and each gives the row that scoring its perturbed scene whole
would give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Container, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .errors import ConfigError, PlacementFailure, echo
from .geometry import (
    _BLOCK_PAIRS,
    Polygon,
    SpatialIndex,
    _contains,
    _EdgeTable,
    build_index,
    contained_pairs,
)
from .ingest import (
    _ring_columns,
    as_number,
    checked_canvas,
    checked_integer,
    is_finite,
    is_int,
    scene_canvas,
)
from .model import (
    ARTERY,
    GLOMERULUS,
    INDICATORS,
    KNOWN_CELL_KINDS,
    LYMPHOCYTE,
    MONOCYTE,
    OTHER,
    PERITUBULAR_CAPILLARY,
    SCORABLE_STRUCTURE_KINDS,
    CellClass,
    DetectionTable,
    GroundTruthGrades,
    Instance,
    SectionScene,
    StructureClass,
)
from .scoring import GradeDetail, Unscorable, _counted, _graded, _section_details, score_indicator
from .seeds import derive_seed

DEFAULT_RADIUS_RANGES: Dict[str, Tuple[float, float]] = {
    GLOMERULUS: (90.0, 150.0),
    PERITUBULAR_CAPILLARY: (16.0, 28.0),
    ARTERY: (50.0, 90.0),
}

_PLACEMENT_ATTEMPTS = 500
_PLACEMENT_MARGIN = 4.0

# Spec values arrive from JSON.  They are checked on construction, so a bad
# value is a ConfigError naming its field, never a traceback, a silent
# truncation (1.7 cells) or a stage that does nothing (an unknown FP class).


class _Spec:
    """One reader and one writer for the spec documents: scene and
    perturbation specs and their nested hallucination entries."""

    _document = "spec"

    @classmethod
    def from_dict(cls, doc, where: str = ""):
        """The spec the JSON object ``doc`` holds.  A non-object or an unknown
        key is an error naming ``where``, or else the document; when ``where``
        names a nested entry, a field's own error gets ``where.`` before it."""
        name = where or cls._document
        if not isinstance(doc, Mapping):
            raise ConfigError(f"{name}: expected a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"{name}: unknown keys {echo(sorted(unknown))}")
        try:
            return cls(**doc)
        except ConfigError as exc:
            if not where:
                raise
            raise ConfigError(f"{where}.{exc}") from None

    def to_dict(self) -> dict:
        """The spec as a JSON object that :meth:`from_dict` reads back as
        it: tuples as lists, nested specs as objects, a None field left out."""
        return {f.name: _json_value(v) for f in fields(self) if (v := getattr(self, f.name)) is not None}


def _json_value(value):
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {k: _json_value(v) for k, v in value.items()}
    return list(value) if isinstance(value, tuple) else value


# The largest count a spec may give (and the most trials a sensitivity run
# may take), and the most cells a scene spec may plant in all (planted plus
# background) or one perturbation may add (the hallucinated instances' cells
# plus the false positives): some ten times a whole slide's detections, and
# few enough to generate in memory.
MAX_COUNT = 10**6


def _count(name: str, value) -> int:
    if not (is_int(value) and value >= 0):
        raise ConfigError(f"{name}: expected an integer >= 0, got {echo(value)}")
    if value > MAX_COUNT:
        raise ConfigError(f"{name}: {echo(value)} is over the limit of {MAX_COUNT}")
    return checked_integer(value, name, ConfigError)


def _check_total(names: str, total: int) -> None:
    if total > MAX_COUNT:
        raise ConfigError(f"{names}: {total} cells in all is over the limit of {MAX_COUNT}")


def _check_seed(value) -> None:
    if not is_int(value):
        raise ConfigError(f"seed: expected an integer, got {echo(value)}")


def _radius_range(name: str, value) -> Tuple[float, float]:
    is_pair = isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_finite, value))
    if not (is_pair and 0 < value[0] <= value[1]):
        raise ConfigError(f"{name}: expected [min, max] with 0 < min <= max, got {echo(value)}")
    return (as_number(value[0]), as_number(value[1]))


@dataclass(frozen=True)
class SceneSpec(_Spec):
    """Recipe for one synthetic section.  The cell-count lists fix the number
    of instances per class and the number of cells planted in each."""

    _document = "scene spec"

    section_id: str = "synthetic"
    canvas: Tuple[float, float, float, float] = (0.0, 0.0, 4096.0, 4096.0)
    glomerulus_cells: Tuple[int, ...] = ()
    ptc_cells: Tuple[int, ...] = ()
    artery_cells: Tuple[int, ...] = ()
    background_cells: int = 0
    glomerulus_radius: Tuple[float, float] = DEFAULT_RADIUS_RANGES[GLOMERULUS]
    ptc_radius: Tuple[float, float] = DEFAULT_RADIUS_RANGES[PERITUBULAR_CAPILLARY]
    artery_radius: Tuple[float, float] = DEFAULT_RADIUS_RANGES[ARTERY]
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.section_id, str):
            raise ConfigError(f"section_id: expected a string, got {echo(self.section_id)}")
        object.__setattr__(self, "canvas", checked_canvas(self.canvas, "canvas", ConfigError))
        for name in ("glomerulus_cells", "ptc_cells", "artery_cells"):
            counts = getattr(self, name)
            if not isinstance(counts, (list, tuple)):
                raise ConfigError(f"{name}: expected a list of integers >= 0, got {echo(counts)}")
            object.__setattr__(
                self, name, tuple(_count(f"{name}[{i}]", c) for i, c in enumerate(counts))
            )
        for name in ("glomerulus_radius", "ptc_radius", "artery_radius"):
            object.__setattr__(self, name, _radius_range(name, getattr(self, name)))
        object.__setattr__(self, "background_cells", _count("background_cells", self.background_cells))
        planted = sum(c for _, _, counts, _ in self.plan() for c in counts)
        _check_total("glomerulus_cells, ptc_cells, artery_cells and background_cells",
                     planted + self.background_cells)
        _check_seed(self.seed)

    def plan(self) -> Tuple[Tuple[str, str, Tuple[int, ...], Tuple[float, float]], ...]:
        """Per structure kind, in scene order: the kind, its instance id
        prefix, its planted cell counts and its radius range."""
        return (
            (GLOMERULUS, "glom", self.glomerulus_cells, self.glomerulus_radius),
            (PERITUBULAR_CAPILLARY, "ptc", self.ptc_cells, self.ptc_radius),
            (ARTERY, "art", self.artery_cells, self.artery_radius),
        )


def planted_grades(spec: SceneSpec) -> GroundTruthGrades:
    """Grades implied by the planted counts alone (no geometry involved),
    graded by the scorer; an unscorable indicator is None."""
    cells = {kind: counts for kind, _, counts, _ in spec.plan()}
    grades = {}
    for name, kind in INDICATORS.items():
        detail = score_indicator(name, dict(enumerate(cells[kind])))
        grades[name] = None if isinstance(detail, Unscorable) else detail.grade
    return GroundTruthGrades(section_id=spec.section_id, **grades)


def _ellipse_polygon(rng: np.random.Generator, cx: float, cy: float, a: float, b: float) -> Polygon:
    n = int(rng.integers(12, 25))
    theta = rng.uniform(0.0, math.pi)
    phase = rng.uniform(0.0, 2.0 * math.pi / n)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    verts = []
    for k in range(n):
        alpha = 2.0 * math.pi * k / n + phase
        ex = a * math.cos(alpha)
        ey = b * math.sin(alpha)
        verts.append((cx + ex * cos_t - ey * sin_t, cy + ex * sin_t + ey * cos_t))
    return Polygon(exterior=tuple(verts))


class _Circles:
    """Bounding circles ``(x, y, radius)`` that placement keeps clear of, in a
    grid of square cells keyed by the cell of each centre.

    The cell side is ``2 * r + _PLACEMENT_MARGIN`` for the largest radius
    ``r`` the placements draw, the farthest apart two such circles can
    conflict.  :meth:`near` scans the window of cells that can hold a circle
    in conflict with a new one, padded by one cell.  While every window bound
    is below 2**49 cells in magnitude, the rounding of the centres, the reach,
    the quotients and ``math.hypot`` moves a bound by less than half a cell,
    so the pad covers it.  Where the window is larger than the occupied cells,
    or its bounds are not that small (coordinates near the float range, an
    infinite radius), every occupied cell is scanned instead.  A circle
    whose coordinates and radius do not sum to a finite number (one is not
    finite, or all are near the float range) is scanned by every query.

    A :meth:`view` sees the circles of its base grid but those at the
    positions in ``hidden``, and keeps the circles added to it to itself, so
    the trials of a sensitivity run share one grid of the scene's circles.
    """

    def __init__(self, side: float, circles: Iterable[Tuple[float, float, float]] = (),
                 base: Optional[_Circles] = None, hidden: Container[int] = ()):
        self._side, self._base, self._hidden = side, base, hidden
        self._cells: Dict[Tuple[int, int], List[Tuple[float, float, float, int]]] = {}
        self._loose: List[Tuple[float, float, float, int]] = []
        self._count = 0
        self._radius = 0.0  # the largest finite radius held
        for circle in circles:
            self.add(circle)

    def add(self, circle: Tuple[float, float, float]) -> None:
        x, y, r = circle
        entry = (x, y, r, self._count)
        self._count += 1
        if math.isfinite(x + y + r):
            self._cells.setdefault((math.floor(x / self._side), math.floor(y / self._side)), []).append(entry)
            self._radius = max(self._radius, r)
        else:
            self._loose.append(entry)

    def view(self, hidden: Container[int]) -> _Circles:
        """An empty grid over this one, which hides the circles at the positions in ``hidden``."""
        return _Circles(self._side, base=self, hidden=hidden)

    def near(self, cx: float, cy: float, radius: float) -> Iterator[Tuple[float, float, float]]:
        """A superset of the circles that a circle of ``radius`` at ``(cx, cy)`` conflicts with."""
        if self._base is not None:
            yield from ((x, y, r) for x, y, r, k in self._base._entries(cx, cy, radius) if k not in self._hidden)
        yield from ((x, y, r) for x, y, r, _ in self._entries(cx, cy, radius))

    def _entries(self, cx: float, cy: float, radius: float) -> Iterator[Tuple[float, float, float, int]]:
        yield from self._loose
        reach = radius + self._radius + _PLACEMENT_MARGIN
        bounds = ((cx - reach) / self._side, (cx + reach) / self._side,
                  (cy - reach) / self._side, (cy + reach) / self._side)
        if all(abs(b) < 2.0**49 for b in bounds):  # a NaN bound fails
            x0, x1, y0, y1 = map(math.floor, bounds)
            if (x1 - x0 + 3) * (y1 - y0 + 3) <= len(self._cells):
                for key in itertools.product(range(x0 - 1, x1 + 2), range(y0 - 1, y1 + 2)):
                    yield from self._cells.get(key, ())
                return
        for entries in self._cells.values():
            yield from entries


def _place_polygon(
    rng: np.random.Generator,
    canvas: Tuple[float, float, float, float],
    radius_range: Tuple[float, float],
    occupied: _Circles,
    what: str,
) -> Tuple[Polygon, Tuple[float, float, float]]:
    """Place one convex polygon whose bounding circle avoids all occupied
    circles; raises PlacementFailure after the attempt cap.

    An attempt is tested only against the circles the grid finds near it
    (:meth:`_Circles.near`), a superset of those it conflicts with, by the
    same ``math.hypot`` comparison a scan of every circle would make, so
    the placements do not depend on the grid."""
    x0, y0, x1, y1 = canvas
    r_lo, r_hi = radius_range
    for _ in range(_PLACEMENT_ATTEMPTS):
        a = rng.uniform(r_lo, r_hi)
        b = rng.uniform(r_lo, r_hi)
        radius = max(a, b)
        margin = radius + _PLACEMENT_MARGIN
        if x1 - x0 <= 2 * margin or y1 - y0 <= 2 * margin:
            raise PlacementFailure(f"{what}: canvas too small for radius {radius:.1f}")
        cx = rng.uniform(x0 + margin, x1 - margin)
        cy = rng.uniform(y0 + margin, y1 - margin)
        if all(
            math.hypot(cx - ox, cy - oy) > radius + orad + _PLACEMENT_MARGIN
            for ox, oy, orad in occupied.near(cx, cy, radius)
        ):
            return _ellipse_polygon(rng, cx, cy, a, b), (cx, cy, radius)
    raise PlacementFailure(f"{what}: no non-overlapping placement in {_PLACEMENT_ATTEMPTS} attempts")


def _cell_side(radius_ranges: Iterable[Tuple[float, float]]) -> float:
    """The side of a :class:`_Circles` grid for placements that draw from ``radius_ranges``."""
    return 2 * max((hi for _, hi in radius_ranges), default=0.0) + _PLACEMENT_MARGIN


def _cells(ids: List[str], xs: np.ndarray, ys: np.ndarray, u_class: np.ndarray,
           u_confidence: np.ndarray) -> DetectionTable:
    """Synthetic cells at ``(xs, ys)``, each from two uniform doubles in [0,
    1): ``u_class`` picks its class, ``u_confidence`` its confidence, mapped
    as ``rng.uniform(0.6, 1.0)`` maps a double and rounded to 4 decimals by
    Python's ``round`` (``np.round`` scales by 10**4 first, which rounds some
    values near a half the other way)."""
    labels = np.where(u_class < 0.5, LYMPHOCYTE, MONOCYTE).tolist()
    confidences = np.array([round(0.6 + (1.0 - 0.6) * u, 4) for u in u_confidence.tolist()], dtype=np.float64)
    return DetectionTable.from_labels(ids, xs, ys, confidences, labels, CellClass)


def _plant(rng: np.random.Generator, edges: _EdgeTable, counts: Sequence[int], ids: List[str]) -> DetectionTable:
    """One cell per id at a uniform point inside a convex polygon of the
    table ``edges`` (its exterior ring; the table :func:`_check_rings`
    returns has no holes): the first ``counts[0]`` ids in polygon 0, the
    next ``counts[1]`` in polygon 1, and so on.

    Each cell reads five doubles: its fan triangle ``(a, b, c)``
    (``rng.choice`` with the triangles' area weights), ``u`` and ``w`` of its
    point ``(1 - sqrt(u)) * a + sqrt(u) * (1 - w) * b + sqrt(u) * w * c``,
    its class and its confidence.  The cells are drawn as ``(k, 5)``
    blocks: the triangle pick is ``rng.choice``'s own ``searchsorted`` over
    the normalized cumulative weights (a count of the entries ``<=`` the
    double), and one kernel call tests all the points.  At a block's first
    rejected point, the generator goes back to its state before the block
    and reads the accepted cells' doubles and the rejected point's three
    again, and the next block starts at the rejected cell.  The state is
    restored rather than rewound with ``advance()``, which would drop the
    buffered 32-bit half that ``rng.integers`` leaves behind.  A cell whose
    point is rejected 100 times in a row is a PlacementFailure.
    """
    owner = np.repeat(np.arange(edges.n_rings.size), counts)
    apex = edges.ring_start[edges.first_ring]  # vertex 0 of each exterior, every fan triangle's first corner
    sizes = edges.ring_size[edges.first_ring]
    cdf = np.full((edges.n_rings.size, int((sizes - 2).max(initial=0))), np.inf)
    for k, (start, n) in enumerate(zip(apex.tolist(), sizes.tolist())):
        x, y = edges.x1[start:start + n], edges.y1[start:start + n]
        areas = np.abs((x[1:-1] - x[0]) * (y[2:] - y[0]) - (x[2:] - x[0]) * (y[1:-1] - y[0])) / 2.0
        cumulative = (areas / areas.sum()).cumsum()
        cumulative /= cumulative[-1]  # as rng.choice normalizes its p
        cdf[k, :n - 2] = cumulative
    columns = np.empty((4, owner.size))  # x, y, class double, confidence double
    i = misses = 0
    while i < owner.size:
        state = rng.bit_generator.state
        block = rng.random((min(_BLOCK_PAIRS, owner.size - i), 5))
        own = owner[i:i + len(block)]
        b = apex[own] + 1 + np.count_nonzero(cdf[own] <= block[:, :1], axis=1)
        u, w = np.sqrt(block[:, 1]), block[:, 2]
        a, c = apex[own], b + 1
        xs = (1 - u) * edges.x1[a] + u * (1 - w) * edges.x1[b] + u * w * edges.x1[c]
        ys = (1 - u) * edges.y1[a] + u * (1 - w) * edges.y1[b] + u * w * edges.y1[c]
        inside = _contains(edges, xs, ys, own)
        good = int(np.argmin(inside)) if not inside.all() else len(block)
        columns[:, i:i + good] = (xs[:good], ys[:good], block[:good, 3], block[:good, 4])
        if good:
            misses = 0
        if good < len(block):
            misses += 1
            if misses == 100:
                raise PlacementFailure("interior sampling failed")
            rng.bit_generator.state = state
            rng.random(5 * good + 3)
        i += good
    return _cells(ids, *columns)


def _check_rings(instances: List[Instance]) -> _EdgeTable:
    """The table of the instances' exterior rings, or PlacementFailure
    naming the first instance whose ring :func:`~banffscore.ingest.read_scene`
    would reject or change, as a tiny radius can make it: the first ring
    that the ring checks (:func:`~banffscore.ingest._ring_columns`) reject
    or that cleaning changed (it repeats a vertex).  On one ring a repeat
    ranks after cleaning and zero area, which leave the ring out of the
    table, and before self-intersection."""
    rings = [inst.polygon.exterior for inst in instances]
    columns = _ring_columns(rings, np.ones(len(rings), dtype=np.intp))
    sizes = columns.edges.ring_size
    changed = np.flatnonzero(sizes != np.fromiter(map(len, rings[:sizes.size]), dtype=np.intp, count=sizes.size))
    if changed.size and changed[0] <= columns.bad:
        raise PlacementFailure(f"{instances[changed[0]].id}: ring repeats a vertex")
    if columns.error is not None:
        raise PlacementFailure(f"{instances[columns.bad].id}: {columns.error}")
    return columns.edges


def generate_scene(spec: SceneSpec) -> Tuple[SectionScene, GroundTruthGrades]:
    """Build a scene per spec; deterministic for a fixed seed.

    Returns the scene together with the grades implied by the planted
    counts (computed without touching the geometry pipeline).
    """
    rng = np.random.default_rng(derive_seed(spec.seed, "scene"))
    x0, y0, x1, y1 = spec.canvas
    occupied = _Circles(_cell_side(radius_range for _, _, counts, radius_range in spec.plan() if counts))
    instances: List[Instance] = []
    for kind, prefix, cell_counts, radius_range in spec.plan():
        for j in range(len(cell_counts)):
            poly, circle = _place_polygon(
                rng, spec.canvas, radius_range, occupied, f"{prefix}-{j + 1}"
            )
            occupied.add(circle)
            instances.append(
                Instance(id=f"{prefix}-{j + 1}", cls=StructureClass(kind), polygon=poly)
            )
    edges = _check_rings(instances)
    counts = [c for _, _, cell_counts, _ in spec.plan() for c in cell_counts]
    planted = _plant(rng, edges, counts, [f"cell-{k}" for k in range(1, sum(counts) + 1)])
    # The background stream is a sequence of pairs of doubles: an attempt's
    # x and y, mapped as rng.uniform maps a double, and after a free attempt
    # that cell's class and confidence.  It is read and tested a block at a
    # time.  The background is the scene stream's last stage, so the pairs
    # the walk leaves unread in the last block need no rewind.
    index = SpatialIndex([inst.id for inst in instances], edges)
    background: List[Tuple[float, float, float, float]] = []
    point, misses = None, 0
    while len(background) < spec.background_cells:
        u = rng.random((min(_BLOCK_PAIRS, 2 * (spec.background_cells - len(background))), 2))
        xs, ys = x0 + (x1 - x0) * u[:, 0], y0 + (y1 - y0) * u[:, 1]
        busy = np.zeros(len(u), dtype=bool)
        busy[contained_pairs(index, xs, ys)[0]] = True
        walk = zip(u.tolist(), xs.tolist(), ys.tolist(), busy.tolist())
        for (u_class, u_confidence), x, y, hit in walk:
            if point is not None:
                background.append((*point, u_class, u_confidence))
                point = None
                if len(background) == spec.background_cells:
                    break
            elif not hit:
                point, misses = (x, y), 0
            elif (misses := misses + 1) == _PLACEMENT_ATTEMPTS:
                raise PlacementFailure(f"background cell {len(background) + 1}: no free canvas space")
    bg_ids = [f"bg-{j}" for j in range(1, len(background) + 1)]
    detections = planted + _cells(bg_ids, *np.array(background, dtype=np.float64).reshape(-1, 4).T)
    scene = SectionScene(
        section_id=spec.section_id,
        instances=instances,
        detections=detections,
        metadata={"canvas": list(spec.canvas), "seed": spec.seed, "generator": "banffscore.synth"},
    )
    return scene, planted_grades(spec)


# ---------------------------------------------------------------------------
# perturbation

@dataclass(frozen=True)
class HallucinationSpec(_Spec):
    """How many fake instances of one class to insert and how many cells to
    plant in each; ``radius`` falls back to the class default range."""

    count: int = 0
    cells_per_instance: int = 0
    radius: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        object.__setattr__(self, "count", _count("count", self.count))
        object.__setattr__(
            self, "cells_per_instance", _count("cells_per_instance", self.cells_per_instance)
        )
        if self.radius is not None:
            object.__setattr__(self, "radius", _radius_range("radius", self.radius))


_FP_CELL_CLASSES = KNOWN_CELL_KINDS + (OTHER,)


def _check_probability(name: str, value) -> None:
    if not (is_finite(value) and 0 <= value <= 1):
        raise ConfigError(f"{name}: expected a number in [0, 1], got {echo(value)}")


@dataclass(frozen=True)
class PerturbationSpec(_Spec):
    """Error-injection recipe applied by :func:`perturb_scene`.  A
    hallucination entry given as an object is read as a
    :class:`HallucinationSpec`."""

    _document = "perturbation spec"

    omit_instance_prob: Mapping[str, float] = field(default_factory=dict)
    hallucinate_instances: Mapping[str, HallucinationSpec] = field(default_factory=dict)
    detection_fn_prob: float = 0.0
    detection_fp_count: int = 0
    fp_cell_class: str = LYMPHOCYTE
    jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("omit_instance_prob", "hallucinate_instances"):
            if not isinstance(getattr(self, name), Mapping):
                raise ConfigError(f"{name}: expected an object keyed by structure kind")
            object.__setattr__(self, name, dict(getattr(self, name)))
        for kind, p in self.omit_instance_prob.items():
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"omit_instance_prob: unknown structure kind {echo(kind)}")
            _check_probability(f"omit_instance_prob[{kind!r}]", p)
        for kind, h in self.hallucinate_instances.items():
            if kind not in SCORABLE_STRUCTURE_KINDS:
                raise ConfigError(f"hallucinate_instances: unknown structure kind {echo(kind)}")
            if not isinstance(h, HallucinationSpec):
                self.hallucinate_instances[kind] = HallucinationSpec.from_dict(
                    h, f"hallucinate_instances[{kind!r}]"
                )
        _check_probability("detection_fn_prob", self.detection_fn_prob)
        _count("detection_fp_count", self.detection_fp_count)
        added = sum(h.count * h.cells_per_instance for h in self.hallucinate_instances.values())
        _check_total("hallucinate_instances and detection_fp_count", added + self.detection_fp_count)
        if self.fp_cell_class not in _FP_CELL_CLASSES:
            expected = ", ".join(_FP_CELL_CLASSES)
            raise ConfigError(
                f"fp_cell_class: expected one of {expected}, got {echo(self.fp_cell_class)}"
            )
        if not (is_finite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ConfigError(
                f"jitter_sigma: expected a finite number >= 0, got {echo(self.jitter_sigma)}"
            )
        _check_seed(self.seed)


def _scene_circles(scene: SectionScene, pspec: PerturbationSpec) -> Optional[_Circles]:
    """The grid of the bounding circles of the scene's instances that
    hallucination places against, or None when ``pspec`` hallucinates
    nothing; the same for every seed of ``pspec``."""
    ranges = [h.radius if h.radius is not None else DEFAULT_RADIUS_RANGES[kind]
              for kind, h in pspec.hallucinate_instances.items() if h.count]
    if not ranges:
        return None
    return _Circles(_cell_side(ranges), (inst.polygon.bounding_circle for inst in scene.instances))


def _perturbation(
    scene: SectionScene, pspec: PerturbationSpec, circles: Optional[_Circles]
) -> Tuple[np.ndarray, List[Instance], DetectionTable]:
    """The stages of :func:`perturb_scene` in their fixed order: per instance
    of the scene whether omission drops it, the hallucinated instances, and
    the detections the detection stages leave.  ``circles`` is
    :func:`_scene_circles` of the scene and ``pspec``.

    Omission reads one double per instance of a kind it may omit, in
    instance order, as one array."""
    omitted = np.zeros(len(scene.instances), dtype=bool)
    omit = {k: p for k, p in pspec.omit_instance_prob.items() if p > 0}
    if omit:
        rng = np.random.default_rng(derive_seed(pspec.seed, "omit"))
        p = np.array([omit.get(inst.cls.kind, 0.0) for inst in scene.instances], dtype=np.float64)
        eligible = np.flatnonzero(p > 0)
        omitted[eligible] = rng.random(eligible.size) < p[eligible]
    detections = scene.detections

    added: List[Instance] = []
    for kind in SCORABLE_STRUCTURE_KINDS:  # fixed class order
        hspec = pspec.hallucinate_instances.get(kind)
        if hspec is None or hspec.count == 0:
            continue
        rng = np.random.default_rng(derive_seed(pspec.seed, f"hallucinate:{kind}"))
        canvas = scene_canvas(scene)
        # the circles of the kept and the earlier kinds' hallucinated instances
        occupied = circles.view(set(np.flatnonzero(omitted).tolist()))
        for inst in added:
            occupied.add(inst.polygon.bounding_circle)
        radius_range = hspec.radius if hspec.radius is not None else DEFAULT_RADIUS_RANGES[kind]
        taken = {inst.id for inst in scene.instances}
        names = (f"hall-{kind}-{n}" for n in itertools.count(1))
        for iid in itertools.islice((name for name in names if name not in taken), hspec.count):
            poly, circle = _place_polygon(rng, canvas, radius_range, occupied, iid)
            occupied.add(circle)
            added.append(Instance(id=iid, cls=StructureClass(kind), polygon=poly))
            # planting draws before the next placement, so each ring is checked alone
            edges = _check_rings(added[-1:])
            cell_ids = [f"{iid}-cell-{c}" for c in range(1, hspec.cells_per_instance + 1)]
            detections = detections + _plant(rng, edges, [hspec.cells_per_instance], cell_ids)

    if pspec.detection_fn_prob > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "fn"))
        detections = detections.take(~(rng.random(len(detections)) < pspec.detection_fn_prob))

    n = pspec.detection_fp_count
    if n > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "fp"))
        x0, y0, x1, y1 = scene_canvas(scene)
        # row j holds FP j's x, then its y: the order of one draw per coordinate
        xy = rng.uniform((x0, y0), (x1, y1), size=(n, 2))
        ids, labels = [f"fp-{j + 1}" for j in range(n)], [pspec.fp_cell_class] * n
        detections = detections + DetectionTable.from_labels(ids, *xy.T, np.ones(n), labels, CellClass)

    if pspec.jitter_sigma > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "jitter"))
        dx, dy = rng.normal(0.0, pspec.jitter_sigma, size=(len(detections), 2)).T
        detections = DetectionTable(detections.ids, detections.xs + dx, detections.ys + dy,
                                    detections.confidences, detections.codes, detections.classes)

    return omitted, added, detections


def perturb_scene(scene: SectionScene, pspec: PerturbationSpec) -> SectionScene:
    """Apply omission, hallucination, FN dropout, FP insertion, and jitter,
    in that fixed order; an all-zero spec returns a scene equal to the input.
    Only hallucination and FP insertion read the scene's canvas.  The
    hallucinated instances of a kind take the ids ``hall-<kind>-<n>`` for
    n = 1, 2, ... that no instance of the input scene has."""
    omitted, added, detections = _perturbation(scene, pspec, _scene_circles(scene, pspec))
    return SectionScene(
        section_id=scene.section_id,
        instances=[inst for inst, gone in zip(scene.instances, omitted.tolist()) if not gone] + added,
        detections=detections,
        metadata=dict(scene.metadata),
    )


# ---------------------------------------------------------------------------
# sensitivity analysis

GRADE_BINS = ("0", "1", "2", "3", "unscorable")


@dataclass(frozen=True)
class IndicatorSensitivity:
    baseline: str
    histogram: Dict[str, int]
    flip_rate: float
    mean_abs_shift: Optional[float]


@dataclass(frozen=True)
class SensitivityReport:
    """Grade-stability statistics over perturbation trials.

    Flip rate counts any change from the unperturbed grade, including a
    change to unscorable; the mean absolute shift averages |grade - base|
    over the trials where both values are numeric.
    """

    trials: int
    per_indicator: Dict[str, IndicatorSensitivity]
    rows: Tuple[Tuple[str, ...], ...]  # per-trial grade keys, one per indicator

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "per_indicator": {
                name: {
                    "baseline": s.baseline,
                    "histogram": dict(s.histogram),
                    "flip_rate": s.flip_rate,
                    "mean_abs_shift": s.mean_abs_shift,
                }
                for name, s in self.per_indicator.items()
            },
        }

    def to_csv(self, comment: Optional[str] = None) -> bytes:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append(",".join(("trial", *INDICATORS)))
        for i, row in enumerate(self.rows):
            lines.append(",".join((str(i), *row)))
        return ("\n".join(lines) + "\n").encode("utf-8")


def _grade_keys(details: Mapping[str, GradeDetail]) -> Tuple[str, ...]:
    """Per indicator, its grade as a CSV cell: the number, or ``unscorable``."""
    return tuple("unscorable" if isinstance(details[name], Unscorable) else str(details[name].grade)
                 for name in INDICATORS)


def sensitivity_run(
    scene: SectionScene,
    pspec: PerturbationSpec,
    trials: int,
    config: RunConfig = RunConfig(),
) -> SensitivityReport:
    """Perturb + rescore ``trials`` times; trial i uses the child seed
    ``derive_seed(pspec.seed, f"trial:{i}")``.  Every trial owns an
    independent stream, so row i does not depend on the other trials.

    Row i is the grades of ``score_section(perturb_scene(scene, tspec),
    config)`` for trial i's spec ``tspec``, but the trials share the
    baseline: its scorable instances are indexed once, and the baseline is
    scored through that index.  A trial drops the candidate pairs of the
    instances it omits (:func:`~banffscore.geometry.contained_pairs`'s
    ``live`` mask), so an omitted instance is never gated, as when it is
    absent, and tests its detections against its hallucinated instances in
    their own small index.  Hallucination places against one grid of the
    scene's bounding circles, with the omitted ones hidden."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if trials > MAX_COUNT:
        raise ConfigError(f"trials: {echo(trials)} is over the limit of {MAX_COUNT}")
    positions = np.array([k for k, inst in enumerate(scene.instances) if inst.cls.kind in SCORABLE_STRUCTURE_KINDS],
                         dtype=np.intp)
    scorable = [scene.instances[k] for k in positions.tolist()]
    index = build_index(scorable)
    baseline = _grade_keys(_section_details(scene.detections, config, [inst.cls.kind for inst in scorable], index))
    circles = _scene_circles(scene, pspec)

    def run_trial(i: int) -> Tuple[str, ...]:
        tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
        omitted, added, detections = _perturbation(scene, tspec, circles)
        detections = _counted(detections, config)
        live = ~omitted[positions]
        found = contained_pairs(index, detections.xs, detections.ys, live)[1]
        counts = np.bincount(found, minlength=len(scorable))[live].tolist()
        if added:
            found = contained_pairs(build_index(added), detections.xs, detections.ys)[1]
            counts += np.bincount(found, minlength=len(added)).tolist()
        graded = [inst for inst, on in zip(scorable, live.tolist()) if on] + added
        return _grade_keys(_graded([inst.id for inst in graded], [inst.cls.kind for inst in graded], counts))

    rows = tuple(run_trial(i) for i in range(trials))

    per_indicator: Dict[str, IndicatorSensitivity] = {}
    for pos, name in enumerate(INDICATORS):
        values = [row[pos] for row in rows]
        histogram = {b: 0 for b in GRADE_BINS}
        for v in values:
            histogram[v] += 1
        base = baseline[pos]
        flips = sum(1 for v in values if v != base)
        shifts = [abs(int(v) - int(base)) for v in values if v != "unscorable" and base != "unscorable"]
        per_indicator[name] = IndicatorSensitivity(
            baseline=base,
            histogram=histogram,
            flip_rate=flips / trials,
            mean_abs_shift=(sum(shifts) / len(shifts)) if shifts else None,
        )
    return SensitivityReport(trials=trials, per_indicator=per_indicator, rows=rows)
