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
from typing import Dict, NamedTuple, Sequence, Tuple

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
    """Uniform grid over the bounds of a set of instances.

    One table backs both queries: for each grid cell, the ascending positions
    of the instances whose bbox cell range covers that cell, stored as CSR
    arrays (``_offsets`` into ``_members``).  Points and bbox corners map to
    cells through the same monotone arithmetic, so a cell's list is a
    superset of the instances whose bbox holds any point of that cell.
    :meth:`pairs` filters it to the exact closed-bbox hits; :meth:`instances_at`
    returns the unfiltered list for one point.  The answers never change
    after construction.  An empty index has empty bounds (+inf minima,
    -inf maxima), which hold no point.
    """

    def __init__(self, ids: Sequence[str], bboxes: Sequence[BoundingBox]):
        self._ids: Tuple[str, ...] = tuple(ids)
        n = len(self._ids)
        self._boxes = np.asarray(bboxes, dtype=np.float64).reshape(n, 4)
        self._side = max(1, min(128, 2 * math.isqrt(n)))
        lo = self._boxes[:, :2].min(axis=0, initial=math.inf).tolist()
        hi = self._boxes[:, 2:].max(axis=0, initial=-math.inf).tolist()
        self._bounds = BoundingBox(*lo, *hi)
        self._cell_w = max(self._bounds.width / self._side, 1e-12)
        self._cell_h = max(self._bounds.height / self._side, 1e-12)
        # cell range of each bbox, then one (cell, instance) entry per covered cell
        ix0, iy0 = self._cells(self._boxes[:, 0], self._boxes[:, 1])
        ix1, iy1 = self._cells(self._boxes[:, 2], self._boxes[:, 3])
        w = ix1 - ix0 + 1
        span = w * (iy1 - iy0 + 1)
        owner = np.repeat(np.arange(n, dtype=np.int64), span)
        k = np.arange(owner.size, dtype=np.int64) - np.repeat(np.cumsum(span) - span, span)
        cell = (iy0[owner] + k // w[owner]) * self._side + ix0[owner] + k % w[owner]
        self._members = owner[np.argsort(cell, kind="stable")]
        self._offsets = np.zeros(self._side * self._side + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=self._side * self._side), out=self._offsets[1:])
        self._at: Dict[int, Tuple[int, ...]] = {}  # instances_at's tuple per cell, filled on use

    @property
    def ids(self) -> Tuple[str, ...]:
        return self._ids

    def _cells(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid column and row of points inside the index bounds."""
        b, last = self._bounds, self._side - 1
        ix = np.minimum(((xs - b.min_x) / self._cell_w).astype(np.int64), last)
        iy = np.minimum(((ys - b.min_y) / self._cell_h).astype(np.int64), last)
        return ix, iy

    def pairs(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every (point position, instance position) pair whose closed bbox
        holds the point, ordered by point, then by instance."""
        b = self._bounds
        pts = np.flatnonzero((xs >= b.min_x) & (xs <= b.max_x) & (ys >= b.min_y) & (ys <= b.max_y))
        ix, iy = self._cells(xs[pts], ys[pts])
        cell = iy * self._side + ix
        start, stop = self._offsets[cell], self._offsets[cell + 1]
        n = stop - start
        pt = np.repeat(pts, n)
        inst = self._members[np.arange(pt.size, dtype=np.int64) + np.repeat(start - (np.cumsum(n) - n), n)]
        px, py, box = xs[pt], ys[pt], self._boxes[inst]
        hit = (px >= box[:, 0]) & (px <= box[:, 2]) & (py >= box[:, 1]) & (py <= box[:, 3])
        return pt[hit], inst[hit]

    def instances_at(self, x: float, y: float) -> Tuple[int, ...]:
        """Positions (into the indexed instances, ascending) listed for the
        point's grid cell: a superset of the instances whose bbox holds the
        point.  Same cell arithmetic as :meth:`pairs`, on Python floats."""
        b = self._bounds
        if not b.contains(x, y):
            return ()
        last = self._side - 1
        ix = min(int((x - b.min_x) / self._cell_w), last)
        cell = min(int((y - b.min_y) / self._cell_h), last) * self._side + ix
        if cell not in self._at:
            self._at[cell] = tuple(self._members[self._offsets[cell] : self._offsets[cell + 1]].tolist())
        return self._at[cell]


def build_index(instances: Sequence) -> SpatialIndex:
    """Grid index over the bounding boxes of ``instances`` (objects with
    ``.id`` and ``.polygon``).  An empty list yields an index that returns
    no candidates."""
    return SpatialIndex([inst.id for inst in instances], [inst.polygon.bounds for inst in instances])


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
    Raises IndexMismatch unless ``index`` was built over the same instances
    in the same order.
    """
    inst_ids = tuple(inst.id for inst in instances)
    if inst_ids != index.ids:
        raise IndexMismatch(
            f"index covers {len(index.ids)} instances, got {len(inst_ids)} with different ids or order"
        )
    counts: Dict[str, int] = {i: 0 for i in inst_ids}
    m = len(detections)
    xs = np.fromiter((d.point[0] for d in detections), dtype=np.float64, count=m)
    ys = np.fromiter((d.point[1] for d in detections), dtype=np.float64, count=m)
    pt, inst = index.pairs(xs, ys)
    order = np.argsort(inst, kind="stable")
    pt, inst = pt[order], inst[order]
    assigned = np.zeros(m, dtype=bool)
    cuts = np.flatnonzero(np.diff(inst, prepend=-1, append=len(inst_ids)))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        k, cand = int(inst[lo]), pt[lo:hi]
        sel = cand[contains_points(instances[k].polygon, xs[cand], ys[cand])]
        if sel.size:
            counts[inst_ids[k]] = int(sel.size)
            assigned[sel] = True
    unassigned = tuple(sorted(detections[j].id for j in np.nonzero(~assigned)[0]))
    return AssignmentTable(counts=counts, unassigned=unassigned)
