"""Planar geometry: polygons with holes, containment tests, and a grid index.

Containment is ray casting with a boundary-inclusive amendment: a point that
lies exactly on any ring segment (exterior or hole) counts as inside.  It is
decided in one place, :func:`_ring_hits`, which evaluates the edge predicate

    d = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)

for every edge of a ring against a block of points at once, in exactly this
operation order (the test oracles repeat it, so agreement is bit-exact).
For an edge that straddles the horizontal line through the point (half-open
rule ``(y1 <= py) != (y2 <= py)``), the ray to +x crosses it iff ``d > 0``
for an upward edge or ``d < 0`` for a downward edge; an odd crossing count
means inside.  ``d == 0`` with the point inside the edge's bounding box
means the point sits on the segment itself.  :func:`contains_points` combines
the exterior with the holes, and :func:`point_in_polygon` is its one-point
call.  See Hormann & Agathos, "The point in polygon problem for arbitrary
polygons", Comput. Geom. 20(3), 2001.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateGeometry, IndexMismatch

Point = Tuple[float, float]


class BoundingBox(NamedTuple):
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y


def _as_ring(vertices) -> Tuple[Point, ...]:
    return tuple((float(p[0]), float(p[1])) for p in vertices)


def ring_area(vertices: Sequence[Point]) -> float:
    """Unsigned shoelace area of an implicitly closed ring."""
    n = len(vertices)
    if n < 3:
        raise DegenerateGeometry(f"ring has {n} vertices, need at least 3")
    acc = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2.0


@dataclass(frozen=True)
class Polygon:
    """Polygon with an exterior ring and zero or more hole rings.

    Rings are implicitly closed (the first vertex is not repeated).  Holes
    must lie inside the exterior and be pairwise disjoint; the parsers
    enforce that at ingest time.  Instances are immutable and safe to share
    across threads.
    """

    exterior: Tuple[Point, ...]
    holes: Tuple[Tuple[Point, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exterior", _as_ring(self.exterior))
        object.__setattr__(self, "holes", tuple(_as_ring(h) for h in self.holes))

    @cached_property
    def bounds(self) -> BoundingBox:
        xs = [p[0] for p in self.exterior]
        ys = [p[1] for p in self.exterior]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def area(self) -> float:
        outer = ring_area(self.exterior)
        if outer == 0.0:
            raise DegenerateGeometry("exterior ring has zero area")
        inner = 0.0
        for h in self.holes:
            a = ring_area(h)
            if a == 0.0:
                raise DegenerateGeometry("hole ring has zero area")
            inner += a
        return outer - inner

    @cached_property
    def _exterior_arr(self) -> np.ndarray:
        return np.asarray(self.exterior, dtype=np.float64)

    @cached_property
    def _hole_arrs(self) -> Tuple[np.ndarray, ...]:
        return tuple(np.asarray(h, dtype=np.float64) for h in self.holes)


# Edge x point pairs evaluated at once by _ring_hits; bounds its temporaries
# so peak memory stays flat however many vertices a ring has.
_BLOCK_PAIRS = 1 << 16


def _ring_hits(ring: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(odd crossing parity, point on a ring segment) for each point, one ring."""
    nxt = np.roll(ring, -1, axis=0)
    x1, y1 = ring[:, 0:1], ring[:, 1:2]
    x2, y2 = nxt[:, 0:1], nxt[:, 1:2]
    lo_x, hi_x = np.minimum(x1, x2), np.maximum(x1, x2)
    lo_y, hi_y = np.minimum(y1, y2), np.maximum(y1, y2)
    dx, dy = x2 - x1, y2 - y1
    up, down = y2 > y1, y2 < y1
    inside = np.empty(xs.shape, dtype=bool)
    on_edge = np.empty(xs.shape, dtype=bool)
    step = max(1, _BLOCK_PAIRS // ring.shape[0])
    for lo in range(0, xs.size, step):
        px, py = xs[lo : lo + step], ys[lo : lo + step]
        d = dx * (py - y1) - (px - x1) * dy
        on = (d == 0.0) & (px >= lo_x) & (px <= hi_x) & (py >= lo_y) & (py <= hi_y)
        crosses = ((y1 <= py) != (y2 <= py)) & ((up & (d > 0.0)) | (down & (d < 0.0)))
        inside[lo : lo + step] = np.count_nonzero(crosses, axis=0) % 2 == 1
        on_edge[lo : lo + step] = on.any(axis=0)
    return inside, on_edge


def contains_points(poly: Polygon, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boundary-inclusive containment of many points in one polygon."""
    poly.area  # validity gate: raises DegenerateGeometry on invalid rings
    inside, boundary = _ring_hits(poly._exterior_arr, xs, ys)
    keep = inside.copy()
    for hole in poly._hole_arrs:
        h_in, h_on = _ring_hits(hole, xs, ys)
        boundary |= h_on
        keep &= ~(h_in & ~h_on)
    return keep | boundary


def point_in_polygon(point: Point, poly: Polygon) -> bool:
    """True iff the point is inside the polygon; ring boundaries count as inside."""
    xs = np.array([point[0]], dtype=np.float64)
    ys = np.array([point[1]], dtype=np.float64)
    return bool(contains_points(poly, xs, ys)[0])


class SpatialIndex:
    """Uniform grid over the bounds of a set of instances, immutable after
    construction.

    Points are bucketed by grid cell; :meth:`candidate_positions` returns
    every point whose cell overlaps a bounding box's cell range, and
    :meth:`instances_at` every instance whose bbox cell range covers a
    point's cell.  Being a superset of the exact bbox hits is the
    correctness contract, the grid only narrows the scan.
    """

    def __init__(
        self,
        ids: Sequence[str],
        bboxes: Sequence[BoundingBox],
        bounds: Optional[BoundingBox],
        nx: int,
        ny: int,
    ):
        self._ids: Tuple[str, ...] = tuple(ids)
        self._bboxes: Tuple[BoundingBox, ...] = tuple(bboxes)
        self._bounds = bounds
        self._nx = nx
        self._ny = ny
        if bounds is not None:
            self._cell_w = max(bounds.width / nx, 1e-12)
            self._cell_h = max(bounds.height / ny, 1e-12)
        else:
            self._cell_w = self._cell_h = 1.0

    @property
    def ids(self) -> Tuple[str, ...]:
        return self._ids

    def _cell_coords(self, x: float, y: float) -> Tuple[int, int]:
        b = self._bounds
        ix = min(int((x - b.min_x) / self._cell_w), self._nx - 1)
        iy = min(int((y - b.min_y) / self._cell_h), self._ny - 1)
        return max(ix, 0), max(iy, 0)

    def _cell_range(self, bbox: BoundingBox) -> Tuple[int, int, int, int]:
        ix0, iy0 = self._cell_coords(bbox.min_x, bbox.min_y)
        ix1, iy1 = self._cell_coords(bbox.max_x, bbox.max_y)
        return ix0, iy0, ix1, iy1

    def point_cells(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Grid cell code per point, -1 for points outside the index bounds."""
        codes = np.full(xs.shape, -1, dtype=np.int64)
        b = self._bounds
        if b is None:
            return codes
        ok = (xs >= b.min_x) & (xs <= b.max_x) & (ys >= b.min_y) & (ys <= b.max_y)
        ix = np.clip(((xs - b.min_x) / self._cell_w).astype(np.int64), 0, self._nx - 1)
        iy = np.clip(((ys - b.min_y) / self._cell_h).astype(np.int64), 0, self._ny - 1)
        codes[ok] = (iy * self._nx + ix)[ok]
        return codes

    @cached_property
    def _cell_members(self) -> Tuple[Tuple[int, ...], ...]:
        cells: List[List[int]] = [[] for _ in range(self._nx * self._ny)]
        for pos, bbox in enumerate(self._bboxes):
            ix0, iy0, ix1, iy1 = self._cell_range(bbox)
            for iy in range(iy0, iy1 + 1):
                for ix in range(ix0, ix1 + 1):
                    cells[iy * self._nx + ix].append(pos)
        return tuple(tuple(c) for c in cells)

    def instances_at(self, x: float, y: float) -> Tuple[int, ...]:
        """Positions (into the indexed instances, ascending) of the instances
        whose bbox cell range covers the point's grid cell.  Superset of the
        instances whose bbox contains the point."""
        b = self._bounds
        if b is None or not b.contains(x, y):
            return ()
        ix, iy = self._cell_coords(x, y)
        return self._cell_members[iy * self._nx + ix]

    def candidate_positions(
        self, bbox: BoundingBox, sorted_codes: np.ndarray, order: np.ndarray
    ) -> np.ndarray:
        """Positions (into the original point arrays) of points whose grid cell
        overlaps the bbox's cell range.  Superset of the points inside bbox."""
        if self._bounds is None:
            return np.empty(0, dtype=np.int64)
        ix0, iy0, ix1, iy1 = self._cell_range(bbox)
        parts = []
        nx = self._nx
        for iy in range(iy0, iy1 + 1):
            lo = np.searchsorted(sorted_codes, iy * nx + ix0, side="left")
            hi = np.searchsorted(sorted_codes, iy * nx + ix1, side="right")
            if hi > lo:
                parts.append(order[lo:hi])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


def build_index(instances: Sequence) -> SpatialIndex:
    """Grid index over the bounding boxes of ``instances`` (objects with
    ``.id`` and ``.polygon``).  An empty list yields an index that returns
    no candidates."""
    ids = [inst.id for inst in instances]
    bboxes = [inst.polygon.bounds for inst in instances]
    if not instances:
        return SpatialIndex(ids, bboxes, None, 1, 1)
    min_x = min(b.min_x for b in bboxes)
    min_y = min(b.min_y for b in bboxes)
    max_x = max(b.max_x for b in bboxes)
    max_y = max(b.max_y for b in bboxes)
    side = max(1, min(128, 2 * math.isqrt(len(instances))))
    return SpatialIndex(ids, bboxes, BoundingBox(min_x, min_y, max_x, max_y), side, side)


@dataclass(frozen=True)
class AssignmentTable:
    """Per-instance detection counts and the ids of detections contained by
    no instance.  The unassigned ids are sorted, so the table is independent
    of input order and of batch partitioning."""

    counts: Dict[str, int]
    unassigned: Tuple[str, ...]


def assign_detections(detections: Sequence, instances: Sequence, index: SpatialIndex) -> AssignmentTable:
    """Assign each detection to every instance whose polygon contains it.

    A detection inside several instances counts toward each of them.
    Raises IndexMismatch if ``index`` was built over a different instance set.
    """
    inst_ids = [inst.id for inst in instances]
    if len(inst_ids) != len(index.ids) or set(inst_ids) != set(index.ids):
        raise IndexMismatch(
            f"index covers {len(index.ids)} instances, got {len(inst_ids)} with different ids"
        )
    counts: Dict[str, int] = {i: 0 for i in inst_ids}
    if not detections:
        return AssignmentTable(counts, ())
    m = len(detections)
    xs = np.fromiter((d.point[0] for d in detections), dtype=np.float64, count=m)
    ys = np.fromiter((d.point[1] for d in detections), dtype=np.float64, count=m)
    assigned = np.zeros(m, dtype=bool)
    if instances:
        codes = index.point_cells(xs, ys)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        for inst in instances:
            bbox = inst.polygon.bounds
            cand = index.candidate_positions(bbox, sorted_codes, order)
            if cand.size == 0:
                continue
            cx = xs[cand]
            cy = ys[cand]
            in_box = (cx >= bbox.min_x) & (cx <= bbox.max_x) & (cy >= bbox.min_y) & (cy <= bbox.max_y)
            cand = cand[in_box]
            if cand.size == 0:
                continue
            hit = contains_points(inst.polygon, xs[cand], ys[cand])
            sel = cand[hit]
            if sel.size:
                counts[inst.id] = int(sel.size)
                assigned[sel] = True
    unassigned = tuple(sorted(detections[j].id for j in np.nonzero(~assigned)[0]))
    return AssignmentTable(counts=counts, unassigned=unassigned)
