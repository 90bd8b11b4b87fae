"""Planar geometry: polygons with holes, containment tests, and a grid index.

Containment is ray casting with a boundary-inclusive amendment: a point that
lies exactly on any ring segment (exterior or hole) counts as inside.  It is
decided in one place, the kernel :func:`_contains`, over (point, polygon)
pairs.  The rings of the polygons form one flat edge table
(:class:`_EdgeTable`); each pair expands to one (point, ring) row per ring
of its polygon and each row to one test per edge of its ring, a bounded
block of tests at a time.  Each test evaluates the edge predicate

    d = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)

with :func:`orient`, in exactly this operation order (the test oracles
repeat it up to the order of the factors of a product, which IEEE
multiplication ignores, so agreement is bit-exact).  Where ``d`` is not
finite, :func:`orient` gives its exact sign instead, as an exact predicate
would (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast
Robust Geometric Predicates", Discrete Comput. Geom. 18(3), 1997).  For an
edge that straddles the horizontal line through the point (half-open rule
``(y1 <= py) != (y2 <= py)``), the ray to +x crosses it iff ``d > 0`` for an
upward edge or ``d < 0`` for a downward edge; an odd crossing count per row
means inside the ring.  ``d == 0`` with the point
inside the edge's bounding box means the point sits on the segment itself.
A pair holds when the point is inside the exterior and strictly inside no
hole, or on any ring.  A :class:`SpatialIndex` is built over an edge table
and keeps it, and :func:`contained_pairs`, the one entry point, runs the
kernel once over every candidate pair the index finds, for
:func:`assign_detections`, scoring, the nested-hole check and the synthetic
background draws; the test of hole vertices against their exterior and the
synthetic planted cells call the kernel directly, each point with its own
polygon.  See Hormann & Agathos, "The point in polygon problem for
arbitrary polygons", Comput. Geom. 20(3), 2001.

It runs a validity gate first: a candidate polygon with a zero-area ring,
by :func:`ring_area`'s float shoelace sum in vertex order over the table's
float64 vertices, raises DegenerateGeometry.  :meth:`_EdgeTable.first_zero_area`
decides it, in one place: one vector sum per ring (:func:`_nonzero_areas`)
vouches for every ring whose sum is far enough from zero that no order of
adding its terms could make it halve to 0.0, and only the rest are summed.
The table decides the rest of ring validity for the parsers and the scene
generator too: self-intersection (the other caller of :func:`orient`) and
holes outside their exterior or inside another hole.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateGeometry, IndexMismatch, echo

Point = Tuple[float, float]


class BoundingBox(NamedTuple):
    min_x: float
    min_y: float
    max_x: float
    max_y: float


def _within(lo_x, hi_x, lo_y, hi_y, px, py):
    return (lo_x <= px) & (px <= hi_x) & (lo_y <= py) & (py <= hi_y)


def _cross(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orient(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray, cx: np.ndarray,
           cy: np.ndarray) -> np.ndarray:
    """Per element, twice the signed area of triangle abc: positive when c
    lies left of the line from a to b, zero when the three are collinear.

    The value is float64.  Where it is not finite (an intermediate
    overflowed), it is replaced by the exact sign, -1.0, 0.0 or 1.0,
    computed with Fractions of the float operands.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = _cross(ax, ay, bx, by, cx, cy)
    for k in np.flatnonzero(~np.isfinite(d)).tolist():
        exact = _cross(*(Fraction(float(v[k])) for v in (ax, ay, bx, by, cx, cy)))
        d[k] = (exact > 0) - (exact < 0)
    return d


def ring_area(vertices: Sequence[Point]) -> float:
    """Unsigned shoelace area of an implicitly closed ring.  If the float
    sum is not finite, the area is the exact sum of the float vertices,
    rounded (infinity beyond the float range), so a zero area reads 0.0."""
    n = len(vertices)
    if n < 3:
        raise DegenerateGeometry(f"ring has {n} vertices, need at least 3")
    acc = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    if math.isfinite(acc):
        return abs(acc) / 2.0
    exact = _exact_area(vertices)
    return float(exact) if exact <= sys.float_info.max else math.inf


def _nonzero_areas(edges: _EdgeTable) -> np.ndarray:
    """Per ring of ``edges``, whether :func:`ring_area` certainly gives it a
    non-zero area, from one vector sum of its shoelace terms.

    The terms ``t = x1*y2 - x2*y1`` are bit-identical to those that
    :func:`ring_area` adds in vertex order, but ``np.add.reduceat`` may add
    them in another order, giving ``s``.  Any two orders of adding the same n
    floats differ by at most ``2*gamma(n-1)*sum|t|``, with ``gamma(k) =
    k*eps/(1 - k*eps)`` and ``eps = 2**-53`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, section 4.2).  So
    where ``|s| > 4*n*eps*sum|t|`` (for ``n < 2**24``), the sequential sum is
    within ``|s|/2`` of ``s``; where ``|s|`` is also at least the least
    normal float, that sum halves to a non-zero area; and where ``2*sum|t|``
    is finite, no partial sum overflows.  A ring that fails any of these
    tests, or has fewer than 3 vertices, is left to :func:`ring_area`.
    """
    eps = sys.float_info.epsilon / 2
    with np.errstate(over="ignore", invalid="ignore"):
        terms = edges.x1 * edges.y2 - edges.x2 * edges.y1
        # a trailing zero keeps the start of an empty last ring in range
        s = np.abs(np.add.reduceat(np.append(terms, 0.0), edges.ring_start))
        scale = np.add.reduceat(np.append(np.abs(terms), 0.0), edges.ring_start)
        return (
            (edges.ring_size >= 3) & (edges.ring_size < 1 << 24) & np.isfinite(scale + scale)
            & (s >= sys.float_info.min) & (s > 4 * eps * edges.ring_size * scale)
        )


def _exact_area(vertices: Sequence[Point]) -> Fraction:
    """Unsigned shoelace area of a ring, exact in the float vertices."""
    ring = [(Fraction(x), Fraction(y)) for x, y in vertices]
    return abs(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]))) / 2


@dataclass(frozen=True)
class Polygon:
    """Polygon with an exterior ring and zero or more hole rings.

    Rings are tuples of float pairs, kept as given, and implicitly closed
    (the first vertex is not repeated).  Holes must lie inside the exterior
    and be pairwise disjoint; the parsers enforce that at ingest time.
    Instances are immutable and safe to share across threads.
    """

    exterior: Tuple[Point, ...]
    holes: Tuple[Tuple[Point, ...], ...] = ()

    @cached_property
    def bounds(self) -> BoundingBox:
        xs = [p[0] for p in self.exterior]
        ys = [p[1] for p in self.exterior]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def bounding_circle(self) -> Tuple[float, float, float]:
        """``(cx, cy, radius)``: the centre of :attr:`bounds` and the distance
        from it to the farthest exterior vertex."""
        b = self.bounds
        cx = (b.min_x + b.max_x) / 2.0
        cy = (b.min_y + b.max_y) / 2.0
        return (cx, cy, max(math.hypot(x - cx, y - cy) for x, y in self.exterior))


# (point, edge) evaluations at once in the containment kernel; bounds its
# temporaries so peak memory stays flat however many pairs and vertices a
# call has.
_BLOCK_PAIRS = 1 << 16


class _EdgeTable:
    """Rings as one flat edge table, the one place their layout is derived.

    ``xy`` holds the vertices ring after ring: ``ring_size[r]`` for ring
    ``r``, and polygon ``k`` has the next ``n_rings[k]`` rings, its exterior
    first, from ring ``first_ring[k]`` on.  Ring ``r`` owns edges
    ``ring_start[r]`` on, and edge ``e`` runs from vertex ``e``, ``(x1[e],
    y1[e])``, to the next vertex of its ring, ``nxt[e]`` at ``(x2[e],
    y2[e])``.  ``n_edges[k]`` counts the edges of polygon ``k``.
    """

    def __init__(self, xy: np.ndarray, ring_size: np.ndarray, n_rings: np.ndarray):
        self.xy, self.ring_size, self.n_rings = xy, ring_size, n_rings
        self.first_ring = np.cumsum(n_rings) - n_rings
        self.ring_start = np.cumsum(ring_size) - ring_size
        self.is_hole = np.ones(ring_size.size, dtype=bool)
        self.is_hole[self.first_ring] = False
        self.n_edges = np.add.reduceat(ring_size, self.first_ring)  # every polygon has a ring
        self.nxt = np.arange(1, len(xy) + 1)
        filled = ring_size > 0  # an empty ring is left to the validity gate
        self.nxt[(self.ring_start + ring_size - 1)[filled]] = self.ring_start[filled]
        self.x1, self.y1 = xy.T
        self.x2, self.y2 = self.x1[self.nxt], self.y1[self.nxt]

    @classmethod
    def of(cls, polygons: Sequence[Polygon]) -> _EdgeTable:
        """The table of the rings of ``polygons``, the one place vertex tuples become columns."""
        rings = [r for poly in polygons for r in (poly.exterior, *poly.holes)]
        ring_size = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings))
        n_rings = np.fromiter((1 + len(p.holes) for p in polygons), dtype=np.intp, count=len(polygons))
        xy = np.fromiter(chain.from_iterable(chain.from_iterable(rings)), dtype=np.float64, count=2 * ring_size.sum())
        return cls(xy.reshape(-1, 2), ring_size, n_rings)

    def take(self, polygons: np.ndarray) -> _EdgeTable:
        """The table of the polygons that the mask ``polygons`` marks, in order."""
        rings = polygons[self.ring_polygon]
        return _EdgeTable(self.xy[rings[self.vertex_ring]], self.ring_size[rings], self.n_rings[polygons])

    @cached_property
    def boxes(self) -> np.ndarray:
        """Per ring, the ``(min_x, min_y, max_x, max_y)`` of its vertices."""
        # the last vertex, repeated, keeps the start of an empty last ring in range
        xy = np.concatenate((self.xy, self.xy[-1:]))
        return np.hstack((np.minimum.reduceat(xy, self.ring_start), np.maximum.reduceat(xy, self.ring_start)))

    @cached_property
    def vertex_ring(self) -> np.ndarray:
        """Per vertex, the position of its ring."""
        return np.repeat(np.arange(self.ring_size.size), self.ring_size)

    @cached_property
    def ring_polygon(self) -> np.ndarray:
        """Per ring, the position of its polygon."""
        return np.repeat(np.arange(self.n_rings.size), self.n_rings)

    @cached_property
    def unsure(self) -> np.ndarray:
        """Positions of the rings whose area :func:`_nonzero_areas` cannot vouch for."""
        return np.flatnonzero(~_nonzero_areas(self))

    def first_zero_area(self, live: Optional[np.ndarray] = None) -> Optional[int]:
        """The first ring, of the polygons the mask ``live`` marks (of every
        polygon when None), whose :func:`ring_area` over the table's float64
        vertices is 0.0, or None: the one place zero area is decided.  Only
        the :attr:`unsure` rings are summed; one of fewer than 3 vertices
        raises :func:`ring_area`'s error."""
        rings = self.unsure
        if live is not None:
            rings = rings[live[self.ring_polygon[rings]]]
        for r in rings.tolist():
            start = self.ring_start[r]
            if ring_area(self.xy[start:start + self.ring_size[r]].tolist()) == 0.0:
                return r
        return None

    def first_self_intersecting_ring(self) -> int:
        """The first ring that touches or crosses itself, or -1.

        Every ring must already be clean (at least 3 vertices, no repeated
        consecutive vertex, implicitly closed).  Adjacent edges share a vertex
        and are rejected only for a zero-width spike through it (collinear and
        pointing back).  Any other pair of edges is rejected when the closed
        segments meet, decided by :func:`orient` on the lower-numbered edge
        first; pairs whose closed bounding boxes are disjoint never meet, and
        only the others are tested.  They are found by a sweep over the edges
        sorted by ring, then by ``lo_x``: an edge's candidates are the later
        edges of its ring whose ``lo_x`` is at most its ``hi_x``, generated
        ``_BLOCK_PAIRS`` at a time.
        """
        n_rings = self.ring_size.size
        if not n_rings:
            return -1
        x, y, x2, y2, nxt, ring = self.x1, self.y1, self.x2, self.y2, self.nxt, self.vertex_ring
        nv = x.size
        vertex = np.arange(nv)
        prev = np.empty_like(nxt)
        prev[nxt] = vertex
        # The spike at vertex 0 is tested as (v1, v0, v[n-1]), every other one
        # as (v[k-1], v[k], v[k+1]).
        at_start = vertex == self.ring_start[ring]
        before, after = np.where(at_start, nxt, prev), np.where(at_start, prev, nxt)
        px, py, ax, ay = x[before], y[before], x[after], y[after]
        with np.errstate(over="ignore", invalid="ignore"):
            spike = (orient(px, py, x, y, ax, ay) == 0.0) & (
                (px - x) * (ax - x) + (py - y) * (ay - y) > 0
            )
        first = int(ring[spike][0]) if spike.any() else n_rings

        lo_x, hi_x = np.minimum(x, x2), np.maximum(x, x2)
        lo_y, hi_y = np.minimum(y, y2), np.maximum(y, y2)
        # Candidates of the edge at sorted position p are positions p+1 .. end-1,
        # where end is found on keys that order (ring, x rank) as one integer.
        _, rank = np.unique(np.concatenate((lo_x, hi_x)), return_inverse=True)
        base = ring * (int(rank.max()) + 1)
        keys_lo = base + rank[:nv]
        order = np.argsort(keys_lo, kind="stable")
        ends = np.searchsorted(keys_lo[order], (base + rank[nv:])[order], side="right")
        counts = ends - np.arange(1, nv + 1)
        cum = np.cumsum(counts)
        total = int(cum[-1])
        for t0 in range(0, total, _BLOCK_PAIRS):
            t = np.arange(t0, min(t0 + _BLOCK_PAIRS, total))
            p = np.searchsorted(cum, t, side="right")
            e, f = order[p], order[p + 1 + t - (cum[p] - counts[p])]
            if ring[e[0]] >= first:
                break
            keep = (lo_y[e] <= hi_y[f]) & (lo_y[f] <= hi_y[e])
            i, j = np.minimum(e[keep], f[keep]), np.maximum(e[keep], f[keep])
            keep = (nxt[i] != j) & (nxt[j] != i)  # not adjacent
            i, j = i[keep], j[keep]
            if not i.size:
                continue
            a1x, a1y, a2x, a2y = x[i], y[i], x2[i], y2[i]
            b1x, b1y, b2x, b2y = x[j], y[j], x2[j], y2[j]
            d1 = orient(b1x, b1y, b2x, b2y, a1x, a1y)
            d2 = orient(b1x, b1y, b2x, b2y, a2x, a2y)
            d3 = orient(a1x, a1y, a2x, a2y, b1x, b1y)
            d4 = orient(a1x, a1y, a2x, a2y, b2x, b2y)
            hit = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
                ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
            )
            hit |= (d1 == 0) & _within(lo_x[j], hi_x[j], lo_y[j], hi_y[j], a1x, a1y)
            hit |= (d2 == 0) & _within(lo_x[j], hi_x[j], lo_y[j], hi_y[j], a2x, a2y)
            hit |= (d3 == 0) & _within(lo_x[i], hi_x[i], lo_y[i], hi_y[i], b1x, b1y)
            hit |= (d4 == 0) & _within(lo_x[i], hi_x[i], lo_y[i], hi_y[i], b2x, b2y)
            if hit.any():
                first = min(first, int(ring[i[hit]].min()))
        return first if first < n_rings else -1

    def first_bad_hole(self) -> Optional[Tuple[int, str]]:
        """The position of the first polygon with a hole that is not inside
        its exterior ring or whose first vertex another hole of its polygon
        holds, and the error message for that hole; None if there is none.
        First is as a loop over each polygon's holes finds it: lowest hole,
        its "not inside" check first, then the lowest other hole.  One kernel
        call tests the hole vertices in their exterior's bbox, on the rings
        as a table in which each ring is its own polygon; only polygons with
        two or more holes put them in an index, over a table of those hole
        rings, which tests their first vertices."""
        if not self.is_hole.any():
            return None
        ring, polygon = self.vertex_ring, self.ring_polygon
        v = np.flatnonzero(self.is_hole[ring])
        exterior, x, y = self.first_ring[polygon[ring[v]]], self.x1[v], self.y1[v]
        box = self.boxes[exterior]
        near = _within(box[:, 0], box[:, 2], box[:, 1], box[:, 3], x, y)
        inside = ~self.is_hole[ring]
        each_ring = _EdgeTable(self.xy, self.ring_size, np.ones_like(self.ring_size))
        inside[v[near]] = _contains(each_ring, x[near], y[near], exterior[near])
        outside = np.flatnonzero(~np.logical_and.reduceat(inside, self.ring_start))
        bad = [(int(r), 0, 0) for r in outside[:1]]
        nests = np.flatnonzero(self.is_hole & (self.n_rings[polygon] > 2))
        if nests.size:
            first, size = self.ring_start[nests], self.ring_size[nests]
            vertex = np.repeat(first - (np.cumsum(size) - size), size) + np.arange(size.sum())
            index = SpatialIndex(nests, _EdgeTable(self.xy[vertex], size, np.ones_like(size)))
            h, other = (nests[k] for k in contained_pairs(index, self.x1[first], self.y1[first]))
            pair = (h != other) & (polygon[h] == polygon[other])
            bad += [(int(a), 1, int(b)) for a, b in zip(h[pair][:1], other[pair][:1])]
        if not bad:
            return None
        r, nested, o = min(bad)
        k = int(polygon[r])
        base = int(self.first_ring[k]) + 1  # the ring of the polygon's hole 0
        if nested:
            return k, f"holes {o - base} and {r - base} are nested"
        return k, f"hole {r - base} is not inside the exterior ring"

    def polygons(self) -> List[Polygon]:
        """The table's polygons, the one place columns become vertex tuples."""
        points = list(zip(self.x1.tolist(), self.y1.tolist()))
        rings = iter([tuple(points[a:a + n]) for a, n in zip(self.ring_start.tolist(), self.ring_size.tolist())])
        return [Polygon(exterior=next(rings), holes=tuple(islice(rings, m - 1))) for m in self.n_rings.tolist()]


def _contains(edges: _EdgeTable, px: np.ndarray, py: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Whether polygon ``owner[i]`` holds point ``(px[i], py[i])``, for every
    (point, polygon) pair ``i``: the one containment kernel.

    Pairs expand to (pair, ring) rows and those to (row, edge) tests, about
    ``_BLOCK_PAIRS`` tests per block.  Each test evaluates the edge
    predicate ``d`` and the half-open straddle rule in the module's
    operation order; ``np.add.reduceat`` gives each row's crossing parity
    and ``np.logical_or.reduceat`` whether the point is on the ring.
    """
    hit = np.empty(owner.size, dtype=bool)
    cum = np.cumsum(edges.n_edges[owner])
    start = 0
    while start < owner.size:
        done = int(cum[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(cum, done + _BLOCK_PAIRS, side="right")))
        own = owner[start:stop]
        nr = edges.n_rings[own]
        pair = np.repeat(np.arange(own.size), nr)
        first = np.cumsum(nr) - nr
        ring = edges.first_ring[own][pair] + np.arange(pair.size) - first[pair]
        ne = edges.ring_size[ring]
        row_start = np.cumsum(ne) - ne
        row = np.repeat(np.arange(ring.size), ne)
        e = edges.ring_start[ring][row] + np.arange(row.size) - row_start[row]
        qx, qy = px[start:stop][pair][row], py[start:stop][pair][row]
        x1, y1, x2, y2 = edges.x1[e], edges.y1[e], edges.x2[e], edges.y2[e]
        d = orient(x1, y1, x2, y2, qx, qy)
        on = (d == 0.0) & (qx >= np.minimum(x1, x2)) & (qx <= np.maximum(x1, x2))
        on &= (qy >= np.minimum(y1, y2)) & (qy <= np.maximum(y1, y2))
        crosses = ((y1 <= qy) != (y2 <= qy)) & (((y2 > y1) & (d > 0.0)) | ((y2 < y1) & (d < 0.0)))
        inside = np.add.reduceat(crosses, row_start, dtype=np.intp) % 2 == 1
        on_ring = np.logical_or.reduceat(on, row_start)
        in_hole = np.logical_or.reduceat(edges.is_hole[ring] & inside, first)
        hit[start:stop] = (inside[first] & ~in_hole) | np.logical_or.reduceat(on_ring, first)
        start = stop
    return hit


class SpatialIndex:
    """Uniform grid over the exterior bounds of the polygons of an edge
    table (:class:`_EdgeTable`), which it keeps for :func:`contained_pairs`;
    ``ids[k]`` names the table's polygon ``k``.

    One table backs its one query, :meth:`pairs`: for each grid cell, the
    ascending positions of the polygons whose bbox cell range covers that
    cell, stored as CSR arrays (``_offsets`` into ``_members``).  Points and
    bbox corners map to cells through the same monotone arithmetic, so a
    cell's list is a superset of the polygons whose bbox holds any point of
    that cell, and :meth:`pairs` filters it to the exact closed-bbox hits.
    The answers never change after construction.  An empty index has empty
    bounds (+inf minima, -inf maxima), which hold no point.
    """

    def __init__(self, ids: Sequence[str], edges: _EdgeTable):
        self._ids: Tuple[str, ...] = tuple(ids)
        n = len(self._ids)
        if n != edges.n_rings.size:
            raise IndexMismatch(f"{n} ids for {edges.n_rings.size} polygons")
        self._edges = edges
        self._boxes = edges.boxes[edges.first_ring]  # each polygon's bbox is that of its exterior ring
        self._side = max(1, min(128, 2 * math.isqrt(n)))
        lo = self._boxes[:, :2].min(axis=0, initial=math.inf).tolist()
        hi = self._boxes[:, 2:].max(axis=0, initial=-math.inf).tolist()
        self._bounds = BoundingBox(*lo, *hi)
        # hi / side - lo / side stays finite for bounds that span more than the float range
        self._cell_w = max(hi[0] / self._side - lo[0] / self._side, 1e-12)
        self._cell_h = max(hi[1] / self._side - lo[1] / self._side, 1e-12)
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

    @property
    def ids(self) -> Tuple[str, ...]:
        return self._ids

    def _cells(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid column and row of points inside the index bounds.  The float
        cell coordinate is clamped before the int conversion, since ``xs -
        min_x`` may overflow to infinity."""
        b, last = self._bounds, self._side - 1
        with np.errstate(over="ignore"):
            ix = np.clip((xs - b.min_x) / self._cell_w, 0, last).astype(np.int64)
            iy = np.clip((ys - b.min_y) / self._cell_h, 0, last).astype(np.int64)
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


def contained_pairs(index: SpatialIndex, xs: np.ndarray, ys: np.ndarray,
                    live: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Every (point position, polygon position) pair in which a polygon of
    ``index`` holds the point, ordered by point, then by polygon: the
    validity gate over the polygons that have candidates, then one kernel
    call over the candidate pairs.  Given ``live``, a mask over the
    polygons, the candidates of the others are dropped first, so they are
    neither gated nor counted, as if they were not in the index."""
    pt, k = index.pairs(xs, ys)
    if live is not None:
        keep = live[k]
        pt, k = pt[keep], k[keep]
    edges = index._edges
    zero = edges.first_zero_area(np.bincount(k, minlength=len(index.ids)) > 0)
    if zero is not None:
        raise DegenerateGeometry(f"{'hole' if edges.is_hole[zero] else 'exterior'} ring has zero area")
    hit = _contains(edges, xs[pt], ys[pt], k)
    return pt[hit], k[hit]


def build_index(instances: Sequence) -> SpatialIndex:
    """Grid index over the polygons of ``instances`` (objects with ``.id``
    and ``.polygon``).  An empty list yields an index that returns no
    candidates."""
    return SpatialIndex([inst.id for inst in instances], _EdgeTable.of([inst.polygon for inst in instances]))


@dataclass(frozen=True)
class AssignmentTable:
    """Per-instance detection counts and the ids of detections contained by
    no instance.  The unassigned ids are sorted, so the table is independent
    of input order and of batch partitioning."""

    counts: Dict[str, int]
    unassigned: Tuple[str, ...]


def assign_detections(detections, instances: Sequence, index: SpatialIndex) -> AssignmentTable:
    """Assign each detection (a ``DetectionTable``, or a list of rows) to
    every instance whose polygon contains it.

    A detection inside several instances counts toward each of them.
    Raises IndexMismatch unless ``index`` was built over the same instances
    in the same order, or if two instances share an id, since the counts are
    keyed by id.
    """
    from .model import DetectionTable  # model imports this module

    inst_ids = tuple(inst.id for inst in instances)
    if inst_ids != index.ids:
        raise IndexMismatch(
            f"index covers {len(index.ids)} instances, got {len(inst_ids)} with different ids or order"
        )
    repeated = [i for i, n in Counter(inst_ids).items() if n > 1]
    if repeated:
        raise IndexMismatch(f"duplicate instance id {echo(repeated[0])}")
    table = DetectionTable.from_rows(detections)
    pt, inst = contained_pairs(index, table.xs, table.ys)
    counts = np.bincount(inst, minlength=len(inst_ids)).tolist()
    assigned = np.zeros(len(table), dtype=bool)
    assigned[pt] = True
    return AssignmentTable(
        counts=dict(zip(inst_ids, counts)),
        unassigned=tuple(sorted(table.take(~assigned).ids.tolist())),
    )
