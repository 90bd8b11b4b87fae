"""Independent reference implementations the suite checks the package against.

These are deliberately written from the definitions, not from the package
code: scalar loops instead of the indexed/vectorized production paths,
different control flow, and in the kappa case a different algebraic
formulation.  Two things are intentionally shared: the boundary-inclusive
edge predicate ``d = (x2-x1)*(py-y1) - (px-x1)*(y2-y1)`` and the ring
orientation predicate ``(bx-ax)*(cy-ay) - (by-ay)*(cx-ax)`` are evaluated
with the same operation order as the package (the package writes the edge
predicate's second product with its factors swapped, which IEEE
multiplication ignores), because the suite asserts bit-exact agreement on
arbitrary float input and only an identical IEEE evaluation sequence makes
that meaningful.  Where a predicate overflows, the package decides its sign
exactly and these oracles do not; the inputs they are compared on never
come near the float range, and the overflow cases are named tests.  The
all-pairs containment oracle may skip, per polygon, the points outside the
box of its raw exterior vertices, which it can neither hold nor touch; a
test compares that skip with the full scan.  The ring self-intersection
oracle tests every pair of edges one at a time, as the reference for the
package's batched sweep, and the hole oracle tests every hole vertex one
at a time, as the reference for its batched hole check.  The bucket-scan
dedup and the per-instance assignment loop are the package's earlier
implementations, kept as references for its pair-based dedup and its
batched containment kernel.
The scene generator and the omission/FN/FP/jitter stages are the package's
earlier per-object loops (a scan of every placed circle per placement
attempt, an all-instance scan per background draw, a triangulation per
planted cell, one scalar draw per instance, detection or coordinate): they
must consume the random streams in exactly the package's order, since the
suite asserts identical scenes.  The sensitivity rows are the package's
earlier trial loop, which built and scored each perturbed scene whole.
The detection file and scene detection readers check each entry in turn
and build one row per entry, as the package did before one pass (a loop
over the structural checks, then the number checks as columns) named the
first defect; they are the reference that pass must agree with.  The scene
document is built as objects for the stdlib's ``json.dumps``, as
the package's writer once built it; the planting loop draws one cell at a
time, as the package did before it drew cells in blocks.  The structure
parser cleans each ring one vertex at a time as it reads it, sweeps that
ring alone for self-intersection and checks each polygon's holes once its
rings are read, as the package did before one columnar pass named a
document's first defect; it is the reference that pass must agree with.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from banffscore.config import RunConfig
from banffscore.errors import DegenerateGeometry, MalformedDocument, PlacementFailure, SchemaViolation, echo
from banffscore.geometry import AssignmentTable, Polygon, SpatialIndex, _EdgeTable, contained_pairs, ring_area
from banffscore.ingest import (
    _feature_entries,
    as_number,
    load_json_bytes,
    scene_canvas,
)
from banffscore.model import (
    ARTERY,
    GLOMERULUS,
    INDICATORS,
    KNOWN_CELL_KINDS,
    LYMPHOCYTE,
    MONOCYTE,
    PERITUBULAR_CAPILLARY,
    CellClass,
    Detection,
    DetectionTable,
    Instance,
    SectionScene,
    StructureClass,
)
from banffscore.scoring import Unscorable, score_section
from banffscore.seeds import derive_seed
from banffscore.synth import _PLACEMENT_ATTEMPTS, _PLACEMENT_MARGIN, _ellipse_polygon, perturb_scene, planted_grades


# ---------------------------------------------------------------------------
# areas

def trapezoid_ring_area(ring: Sequence[Tuple[float, float]]) -> float:
    """Unsigned ring area via the trapezoid formula (not the shoelace form)."""
    acc = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        acc += (x1 - x2) * (y1 + y2) / 2.0
    return abs(acc)


# ---------------------------------------------------------------------------
# naive scalar ray casting (boundary-inclusive)

def _ring_state(ring, px: float, py: float) -> Tuple[bool, bool]:
    crossings = 0
    on_boundary = False
    closed = list(ring) + [ring[0]]
    for (x1, y1), (x2, y2) in zip(closed[:-1], closed[1:]):
        d = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
        if (
            d == 0.0
            and min(x1, x2) <= px <= max(x1, x2)
            and min(y1, y2) <= py <= max(y1, y2)
        ):
            on_boundary = True
        if (y1 <= py) != (y2 <= py):
            if (y2 > y1 and d > 0.0) or (y2 < y1 and d < 0.0):
                crossings += 1
    return crossings % 2 == 1, on_boundary


def naive_point_in_polygon(point, exterior, holes=()) -> bool:
    """Classic per-edge ray cast over raw rings; boundaries count as inside.

    The bounding-box short circuit is exact (outside the box implies outside
    the polygon), it only skips work.
    """
    px, py = float(point[0]), float(point[1])
    xs = [p[0] for p in exterior]
    ys = [p[1] for p in exterior]
    if px < min(xs) or px > max(xs) or py < min(ys) or py > max(ys):
        return False
    ext_in, ext_on = _ring_state(exterior, px, py)
    if ext_on:
        return True
    if not ext_in:
        return False
    for hole in holes:
        h_in, h_on = _ring_state(hole, px, py)
        if h_on:
            return True
        if h_in:
            return False
    return True


def naive_first_bad_hole(exterior, holes):
    """The error message for the first bad hole of a polygon, or None: each
    hole in turn, one vertex at a time, must lie inside the exterior ring,
    then its first vertex inside no other hole, lowest other hole first.
    Inside counts the boundary, by :func:`naive_point_in_polygon`."""
    for h, hole in enumerate(holes):
        for vertex in hole:
            if not naive_point_in_polygon(vertex, exterior):
                return f"hole {h} is not inside the exterior ring"
        for o, other in enumerate(holes):
            if o != h and naive_point_in_polygon(hole[0], other):
                return f"holes {o} and {h} are nested"
    return None


# ---------------------------------------------------------------------------
# vectorized brute-force containment (no index, every polygon vs every point)

def _ring_state_many(ring: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    vertices = ring.tolist()
    parity = np.zeros(xs.shape, dtype=bool)
    on_boundary = np.zeros(xs.shape, dtype=bool)
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        d = (x2 - x1) * (ys - y1) - (xs - x1) * (y2 - y1)
        zero = d == 0.0
        if zero.any():  # off the edge's line, a point is not on the edge
            on_boundary |= (
                zero
                & (xs >= min(x1, x2))
                & (xs <= max(x1, x2))
                & (ys >= min(y1, y2))
                & (ys <= max(y1, y2))
            )
        if y2 != y1:
            straddle = (y1 <= ys) != (y2 <= ys)
            parity ^= straddle & ((d > 0.0) if y2 > y1 else (d < 0.0))
    return parity, on_boundary


def brute_contains_many(exterior, holes, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    ext = np.asarray(exterior, dtype=np.float64)
    parity, boundary = _ring_state_many(ext, xs, ys)
    result = parity.copy()
    for hole in holes:
        h_parity, h_boundary = _ring_state_many(np.asarray(hole, dtype=np.float64), xs, ys)
        boundary |= h_boundary
        result &= ~(h_parity & ~h_boundary)
    return result | boundary


# ---------------------------------------------------------------------------
# the package's answer for one polygon, not an oracle

def package_contains(poly, points) -> np.ndarray:
    """Per point of ``points`` (``(x, y)`` pairs or an ``(n, 2)`` array),
    whether ``poly`` holds it, by the package's one containment entry point,
    :func:`banffscore.geometry.contained_pairs`, over a one-polygon index."""
    xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    hit = np.zeros(len(xy), dtype=bool)
    hit[contained_pairs(SpatialIndex(["polygon"], _EdgeTable.of([poly])), xy[:, 0].copy(), xy[:, 1].copy())[0]] = True
    return hit


def _in_exterior_box(inst, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per point, whether the closed box of ``inst``'s raw exterior vertices
    holds it."""
    pts = inst.polygon.exterior
    return (
        (min(p[0] for p in pts) <= xs) & (xs <= max(p[0] for p in pts))
        & (min(p[1] for p in pts) <= ys) & (ys <= max(p[1] for p in pts))
    )


def brute_bbox_hits(instances, xs, ys) -> List[set]:
    """Exhaustive bounding-box scan: for each point, the ids of the instances
    whose bbox (taken from the exterior vertices) contains it.  Every
    instance is compared with every point; no grid."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    hits: List[set] = [set() for _ in range(xs.size)]
    for inst in instances:
        for j in np.flatnonzero(_in_exterior_box(inst, xs, ys)).tolist():
            hits[j].add(inst.id)
    return hits


def brute_members(detections, instances, prune: bool = True) -> Dict[str, Tuple[str, ...]]:
    """All-pairs containment: every polygon tested against every detection
    (a table, or a list of rows); the sorted ids of the detections inside
    each instance.  With ``prune``, a polygon skips the points outside the
    closed box of its exterior vertices, which it can neither hold nor
    touch."""
    table = DetectionTable.from_rows(detections)
    xs, ys = np.asarray(table.xs, dtype=np.float64), np.asarray(table.ys, dtype=np.float64)
    members: Dict[str, Tuple[str, ...]] = {}
    for inst in instances:
        rows = np.flatnonzero(_in_exterior_box(inst, xs, ys)) if prune else np.arange(xs.size)
        hit = brute_contains_many(inst.polygon.exterior, inst.polygon.holes, xs[rows], ys[rows])
        members[inst.id] = tuple(sorted(table.ids[rows[hit]].tolist()))
    return members


def brute_assign_table(detections, instances, prune: bool = True) -> AssignmentTable:
    """The assignment table of :func:`brute_members`."""
    table = DetectionTable.from_rows(detections)
    members = brute_members(table, instances, prune)
    inside = {m for ids in members.values() for m in ids}
    return AssignmentTable(
        counts={iid: len(ids) for iid, ids in members.items()},
        unassigned=tuple(sorted(d for d in table.ids.tolist() if d not in inside)),
    )


# ---------------------------------------------------------------------------
# grading bands, straight from the piecewise definitions

def g_band(rho_num: int, rho_den: int) -> int:
    rho = Fraction(rho_num, rho_den)
    if rho == 0:
        return 0
    if Fraction(0) < rho < Fraction(1, 4):
        return 1
    if Fraction(1, 4) <= rho <= Fraction(1, 2):
        return 2
    return 3


def max_count_band(count: int) -> int:
    if count == 0:
        return 0
    if 1 <= count <= 4:
        return 1
    if 5 <= count <= 10:
        return 2
    return 3


# ---------------------------------------------------------------------------
# ring self-intersection: all pairs of edges, one pair at a time

def _orient(ax, ay, bx, by, cx, cy) -> float:
    """The float predicate; where it overflows to infinity or NaN, the
    exact sign of the same expression over the float operands."""
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if math.isfinite(d):
        return d
    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    exact = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return float((exact > 0) - (exact < 0))


def _collinear_within(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_cross(p1, p2, p3, p4) -> bool:
    """Closed-segment intersection, proper or touching."""
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _collinear_within(*p3, *p4, *p1):
        return True
    if d2 == 0 and _collinear_within(*p3, *p4, *p2):
        return True
    if d3 == 0 and _collinear_within(*p1, *p2, *p3):
        return True
    if d4 == 0 and _collinear_within(*p1, *p2, *p4):
        return True
    return False


def _boxes_disjoint(a1, a2, b1, b2) -> bool:
    return (
        max(a1[0], a2[0]) < min(b1[0], b2[0])
        or max(b1[0], b2[0]) < min(a1[0], a2[0])
        or max(a1[1], a2[1]) < min(b1[1], b2[1])
        or max(b1[1], b2[1]) < min(a1[1], a2[1])
    )


def naive_ring_self_intersects(pts) -> bool:
    """True iff a clean ring touches or crosses itself.  Closed segments
    whose bounding boxes are disjoint never meet, so those pairs are
    skipped before the float predicate can call a near-collinear pair a
    proper crossing."""
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            b1, b2 = pts[j], pts[(j + 1) % n]
            if j == i + 1 or (i == 0 and j == n - 1):
                # Adjacent edges share one endpoint; reject only collinear
                # back-tracking (a zero-width spike through the shared vertex).
                if j == i + 1:
                    prev_pt, shared, next_pt = a1, a2, b2
                else:
                    prev_pt, shared, next_pt = pts[1], pts[0], pts[n - 1]
                if _orient(*prev_pt, *shared, *next_pt) == 0.0:
                    dot = (prev_pt[0] - shared[0]) * (next_pt[0] - shared[0]) + (
                        prev_pt[1] - shared[1]
                    ) * (next_pt[1] - shared[1])
                    if dot > 0:
                        return True
                continue
            if _boxes_disjoint(a1, a2, b1, b2):
                continue
            if _segments_cross(a1, a2, b1, b2):
                return True
    return False


# ---------------------------------------------------------------------------
# dedup: quadratic greedy suppression

def greedy_dedup_quadratic(detections, radius: float) -> List:
    ranked = sorted(detections, key=lambda d: (-d.confidence, d.id))
    kept = []
    for d in ranked:
        clash = False
        for e in kept:
            if e.cls.kind == d.cls.kind and math.dist(e.point, d.point) <= radius:
                clash = True
                break
        if not clash:
            kept.append(d)
    keep_ids = {d.id for d in kept}
    return [d for d in detections if d.id in keep_ids]


def bucket_dedup(detections, radius: float) -> List:
    """The package's earlier dedup: a greedy scan over buckets of side
    ``max(radius, 1.0)``, each detection compared with the kept ones in the
    3x3 buckets around its own."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ranked = sorted(detections, key=lambda d: (-d.confidence, d.id))
    kept_ids: Set[str] = set()
    # buckets at least 1 wide, so a tiny radius cannot push a cell index to infinity
    side = max(radius, 1.0)
    buckets: Dict[Tuple[str, int, int], List[Detection]] = {}
    for d in ranked:
        cx = math.floor(d.point[0] / side)
        cy = math.floor(d.point[1] / side)
        suppressed = False
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for other in buckets.get((d.cls.kind, nx, ny), ()):
                    if math.dist(d.point, other.point) <= radius:
                        suppressed = True
                        break
                if suppressed:
                    break
            if suppressed:
                break
        if not suppressed:
            buckets.setdefault((d.cls.kind, cx, cy), []).append(d)
            kept_ids.add(d.id)
    return [d for d in detections if d.id in kept_ids]


# ---------------------------------------------------------------------------
# assignment: the package's earlier per-instance loop

def per_instance_assign(detections: Sequence, instances: Sequence, index) -> AssignmentTable:
    """Groups the index's (point, instance) pairs by instance and calls
    :func:`package_contains` once per instance that has a pair."""
    inst_ids = tuple(inst.id for inst in instances)
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
        sel = cand[package_contains(instances[k].polygon, np.stack((xs[cand], ys[cand]), axis=1))]
        if sel.size:
            counts[inst_ids[k]] = int(sel.size)
            assigned[sel] = True
    unassigned = tuple(sorted(detections[j].id for j in np.nonzero(~assigned)[0]))
    return AssignmentTable(counts=counts, unassigned=unassigned)


# ---------------------------------------------------------------------------
# quadratic-weighted kappa via the agreement-weight formulation

def weighted_kappa_direct(cells) -> float:
    k = len(cells)
    n = float(sum(sum(row) for row in cells))
    row_sums = [float(sum(row)) for row in cells]
    col_sums = [float(sum(cells[i][j] for i in range(k))) for j in range(k)]
    po = 0.0
    pe = 0.0
    for i in range(k):
        for j in range(k):
            w = 1.0 - ((i - j) ** 2) / ((k - 1) ** 2)
            po += w * cells[i][j] / n
            pe += w * row_sums[i] * col_sums[j] / (n * n)
    if pe == 1.0:
        return 1.0
    return (po - pe) / (1.0 - pe)


# ---------------------------------------------------------------------------
# scene generation and perturbation, one object at a time

def per_call_point_inside(rng: np.random.Generator, poly) -> Tuple[float, float]:
    """Uniform point inside a convex polygon via fan triangulation."""
    verts = poly.exterior
    tris = [(verts[0], verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)]
    areas = np.array(
        [
            abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])) / 2.0
            for a, b, c in tris
        ]
    )
    weights = areas / areas.sum()
    for _ in range(100):
        a, b, c = tris[int(rng.choice(len(tris), p=weights))]
        u = math.sqrt(rng.random())
        w = rng.random()
        x = (1 - u) * a[0] + u * (1 - w) * b[0] + u * w * c[0]
        y = (1 - u) * a[1] + u * (1 - w) * b[1] + u * w * c[1]
        if package_contains(poly, [(x, y)])[0]:
            return (x, y)
    raise PlacementFailure("interior sampling failed")  # pragma: no cover


def per_cell_plant(rng: np.random.Generator, polygons, counts, ids) -> List[Detection]:
    """``synth._plant`` one cell at a time: a point by :func:`per_call_point_inside`,
    then the cell's class and confidence doubles."""
    owners = [poly for poly, count in zip(polygons, counts) for _ in range(count)]
    cells = []
    for cell_id, poly in zip(ids, owners):
        point = per_call_point_inside(rng, poly)
        u_class, u_confidence = rng.random(2).tolist()
        cls = CellClass(LYMPHOCYTE if u_class < 0.5 else MONOCYTE)
        cells.append(Detection(cell_id, point, cls, round(0.6 + (1.0 - 0.6) * u_confidence, 4)))
    return cells


def full_scan_place_polygon(rng: np.random.Generator, canvas, radius_range, occupied, what: str):
    """``synth._place_polygon`` with every attempt tested against every
    circle ``(x, y, radius)`` of the list ``occupied``."""
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
            for ox, oy, orad in occupied
        ):
            return _ellipse_polygon(rng, cx, cy, a, b), (cx, cy, radius)
    raise PlacementFailure(f"{what}: no non-overlapping placement in {_PLACEMENT_ATTEMPTS} attempts")


def all_instance_scan_generate_scene(spec):
    """``synth.generate_scene`` with every placement attempt tested against
    every placed circle, every background draw tested against every instance
    and the fan triangulation rebuilt for every planted cell."""
    rng = np.random.default_rng(derive_seed(spec.seed, "scene"))
    x0, y0, x1, y1 = spec.canvas
    occupied: List[Tuple[float, float, float]] = []
    instances: List[Instance] = []
    plan = (
        (GLOMERULUS, "glom", spec.glomerulus_cells, spec.glomerulus_radius),
        (PERITUBULAR_CAPILLARY, "ptc", spec.ptc_cells, spec.ptc_radius),
        (ARTERY, "art", spec.artery_cells, spec.artery_radius),
    )
    for kind, prefix, cell_counts, radius_range in plan:
        for j in range(len(cell_counts)):
            poly, circle = full_scan_place_polygon(
                rng, spec.canvas, radius_range, occupied, f"{prefix}-{j + 1}"
            )
            occupied.append(circle)
            instances.append(
                Instance(id=f"{prefix}-{j + 1}", cls=StructureClass(kind), polygon=poly)
            )
    detections: List[Detection] = []
    cell_counter = 0
    for inst, want in zip(instances, [c for _, _, counts, _ in plan for c in counts]):
        for _ in range(want):
            cell_counter += 1
            detections.append(
                Detection(
                    id=f"cell-{cell_counter}",
                    point=per_call_point_inside(rng, inst.polygon),
                    cls=CellClass(LYMPHOCYTE if rng.random() < 0.5 else MONOCYTE),
                    confidence=round(rng.uniform(0.6, 1.0), 4),
                )
            )
    for j in range(spec.background_cells):
        for _ in range(_PLACEMENT_ATTEMPTS):
            x = rng.uniform(x0, x1)
            y = rng.uniform(y0, y1)
            if not any(
                inst.polygon.bounds.min_x <= x <= inst.polygon.bounds.max_x
                and inst.polygon.bounds.min_y <= y <= inst.polygon.bounds.max_y
                and package_contains(inst.polygon, [(x, y)])[0]
                for inst in instances
            ):
                break
        else:
            raise PlacementFailure(f"background cell {j + 1}: no free canvas space")
        detections.append(
            Detection(
                id=f"bg-{j + 1}",
                point=(x, y),
                cls=CellClass(LYMPHOCYTE if rng.random() < 0.5 else MONOCYTE),
                confidence=round(rng.uniform(0.6, 1.0), 4),
            )
        )
    scene = SectionScene(
        section_id=spec.section_id,
        instances=instances,
        detections=detections,
        metadata={"canvas": list(spec.canvas), "seed": spec.seed, "generator": "banffscore.synth"},
    )
    return scene, planted_grades(spec)


def scalar_omission(instances, pspec) -> List:
    """The omission stage of ``synth.perturb_scene``: the instances it keeps,
    one scalar draw per instance of a kind it may omit."""
    omit = {k: p for k, p in pspec.omit_instance_prob.items() if p > 0}
    if not omit:
        return list(instances)
    rng = np.random.default_rng(derive_seed(pspec.seed, "omit"))
    kept = []
    for inst in instances:
        p = omit.get(inst.cls.kind, 0.0)
        if p > 0 and rng.random() < p:
            continue
        kept.append(inst)
    return kept


def per_trial_sensitivity_rows(scene, pspec, trials: int, config: RunConfig = RunConfig()):
    """``synth.sensitivity_run``'s rows with each trial's perturbed scene
    built and scored whole: ``score_section(perturb_scene(scene, tspec),
    config)``, its own index rebuilt every trial."""
    rows = []
    for i in range(trials):
        tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
        report = score_section(perturb_scene(scene, tspec), config)
        grades = (report.grade(name) for name in INDICATORS)
        rows.append(tuple("unscorable" if isinstance(g, Unscorable) else str(g) for g in grades))
    return tuple(rows)


def scalar_fn_dropout(detections, pspec) -> List:
    """The false-negative stage of ``synth.perturb_scene``, one draw per detection."""
    if pspec.detection_fn_prob > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "fn"))
        detections = [d for d in detections if not rng.random() < pspec.detection_fn_prob]
    return detections


def scalar_jitter(detections, pspec) -> List:
    """The jitter stage of ``synth.perturb_scene``, two draws per detection."""
    if pspec.jitter_sigma > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "jitter"))
        jittered = []
        for d in detections:
            dx = rng.normal(0.0, pspec.jitter_sigma)
            dy = rng.normal(0.0, pspec.jitter_sigma)
            jittered.append(replace(d, point=(d.point[0] + dx, d.point[1] + dy)))
        detections = jittered
    return detections


def scalar_fp_insertion(scene, pspec) -> List:
    """The false-positive stage of ``synth.perturb_scene``: the FPs it
    appends, two scalar draws per FP, x then y."""
    detections = []
    if pspec.detection_fp_count > 0:
        rng = np.random.default_rng(derive_seed(pspec.seed, "fp"))
        x0, y0, x1, y1 = scene_canvas(scene)
        for j in range(pspec.detection_fp_count):
            detections.append(
                Detection(
                    id=f"fp-{j + 1}",
                    point=(rng.uniform(x0, x1), rng.uniform(y0, y1)),
                    cls=CellClass(pspec.fp_cell_class),
                    confidence=1.0,
                )
            )
    return detections


def _checked_point(entry: dict, where: str, confidence_key: str, error: type) -> Tuple[float, float, float]:
    """The point and confidence of one detection entry, named ``where``,
    checked as detection and scene files check them: a point of two
    numbers, both finite, then a confidence that is a number in [0, 1]."""
    pt = entry.get("point")
    is_pair = isinstance(pt, (list, tuple)) and len(pt) > 1
    x, y = (as_number(pt[0]), as_number(pt[1])) if is_pair else (None, None)
    if x is None or y is None:
        raise error(f"{where}.point: expected [x, y] of numbers, got {echo(pt)}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise error(f"{where}.point: non-finite point coordinates {echo(pt)}")
    raw = entry.get(confidence_key, 1.0)
    confidence = as_number(raw)
    if confidence is None or not 0.0 <= confidence <= 1.0:
        raise error(f"{where}.{confidence_key}: expected a number in [0, 1], got {echo(raw)}")
    return x, y, confidence


def per_entry_parse_detections(data: bytes, min_confidence: float = 0.5,
                               classes: Optional[Iterable] = KNOWN_CELL_KINDS) -> List[Detection]:
    """The detections ``ingest.parse_detections`` keeps, each entry checked
    in turn, as it once checked them: an object, then a string ``name``,
    then its point and probability."""
    doc = load_json_bytes(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise MalformedDocument('expected an object with a "points" array')
    kinds = None if classes is None else {c.kind if isinstance(c, CellClass) else str(c) for c in classes}
    out = []
    for i, entry in enumerate(doc["points"]):
        where = f"points[{i}]"
        if not isinstance(entry, dict):
            raise SchemaViolation(f"{where}: not an object")
        if not isinstance(entry.get("name"), str):
            raise SchemaViolation(f"{where}: missing or non-string 'name'")
        x, y, probability = _checked_point(entry, where, "probability", SchemaViolation)
        cls = CellClass.from_label(entry["name"])
        if (kinds is None or cls.kind in kinds) and probability >= min_confidence:
            out.append(Detection(f"d{i}", (x, y), cls, probability))
    return out


def per_entry_scene_detections(entries) -> List[Detection]:
    """The rows of a scene document's ``detections`` array, one
    ``Detection`` per entry, each entry checked in turn as
    ``ingest.read_scene`` once checked it: an object with an ``id``, a
    string id, a known class, its point and confidence, then an id that an
    earlier entry holds."""
    out: List[Detection] = []
    seen: Set[str] = set()
    for i, entry in enumerate(entries):
        where = f"detections[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise MalformedDocument(f"{where}: expected an object with an 'id'")
        did, label = entry["id"], entry.get("class")
        if not isinstance(did, str):
            raise MalformedDocument(f"{where}.id: expected a string, got {echo(did)}")
        try:
            cls = CellClass.from_string(label if isinstance(label, str) else "")
        except ValueError:
            raise MalformedDocument(f"{where}.class: unknown class {echo(label)}") from None
        x, y, confidence = _checked_point(entry, where, "confidence", MalformedDocument)
        if did in seen:
            raise MalformedDocument(f"duplicate detection id {echo(did)}")
        seen.add(did)
        out.append(Detection(did, (x, y), cls, confidence))
    return out


def json_dumps_bytes(obj) -> bytes:
    """The stdlib's canonical text of ``obj``: what ``canonical_json_bytes`` must write."""
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")


def generic_scene_document(scene) -> dict:
    """The scene document ``write_scene`` writes, as plain objects."""
    table = scene.detections
    names = [c.to_string() for c in table.classes]
    columns = (table.ids, table.codes, table.xs, table.ys, table.confidences)
    return {
        "section_id": scene.section_id,
        "instances": [
            {
                "id": inst.id,
                "class": inst.cls.to_string(),
                "polygon": {
                    "exterior": [[x, y] for x, y in inst.polygon.exterior],
                    "holes": [[[x, y] for x, y in hole] for hole in inst.polygon.holes],
                },
                "properties": inst.properties,
            }
            for inst in scene.instances
        ],
        "detections": [
            {"id": did, "class": names[code], "point": [x, y], "confidence": confidence}
            for did, code, x, y, confidence in zip(*(column.tolist() for column in columns))
        ],
        "metadata": scene.metadata,
    }


def clean_ring(coords, owner: str) -> Tuple[Tuple[float, float], ...]:
    """One ring cleaned one vertex at a time: each vertex an ``[x, y]`` pair
    of finite numbers, a vertex equal to the one before it dropped, then a
    last vertex equal to the first, leaving at least 3 vertices and a
    non-zero area; anything else raises, naming ``owner``."""
    if not isinstance(coords, (list, tuple)):
        raise MalformedDocument(f"{owner}: ring is not a coordinate array")
    pts: List[Tuple[float, float]] = []
    for item in coords:
        if not isinstance(item, (list, tuple)) or len(item) < 2:
            raise MalformedDocument(f"{owner}: ring vertex {echo(item)} is not an [x, y] pair")
        x, y = as_number(item[0]), as_number(item[1])
        if x is None or y is None:
            raise MalformedDocument(f"{owner}: non-numeric ring vertex {echo(item)}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DegenerateGeometry(f"{owner}: non-finite ring vertex")
        if pts and pts[-1] == (x, y):
            continue
        pts.append((x, y))
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        raise DegenerateGeometry(f"{owner}: ring has fewer than 3 distinct vertices")
    if ring_area(pts) == 0.0:
        raise DegenerateGeometry(f"{owner}: ring has zero area")
    return tuple(pts)


def polygon_from_coords(coords, owner: str) -> Polygon:
    """A polygon from GeoJSON-style rings, exterior first: each ring cleaned
    and swept for self-intersection on its own as it is read, then the
    polygon's holes checked."""
    if not isinstance(coords, (list, tuple)) or not coords:
        raise MalformedDocument(f"{owner}: polygon has no rings")
    rings = []
    for ring in coords:
        rings.append(clean_ring(ring, owner))
        if _EdgeTable.of([Polygon(exterior=rings[-1])]).first_self_intersecting_ring() >= 0:
            raise DegenerateGeometry(f"{owner}: self-intersecting ring")
    polygon = Polygon(exterior=rings[0], holes=tuple(rings[1:]))
    if polygon.holes and (bad := _EdgeTable.of([polygon]).first_bad_hole()):
        raise DegenerateGeometry(f"{owner}: {bad[1]}")
    return polygon


def per_ring_parse_structures(data: bytes) -> List[Instance]:
    """The instances of a FeatureCollection, read one entry and one ring at
    a time (:func:`polygon_from_coords`), each id checked for a repeat once
    its polygon is built."""
    features = load_json_bytes(data)["features"]
    out: List[Instance] = []
    seen: Set[str] = set()
    for iid, cls, rings, props in _feature_entries(features, None):
        polygon = polygon_from_coords(rings, f"feature {iid}")
        if iid in seen:
            raise MalformedDocument(f"duplicate instance id {iid!r}")
        seen.add(iid)
        out.append(Instance(id=iid, cls=cls, polygon=polygon, properties=dict(props)))
    return out
