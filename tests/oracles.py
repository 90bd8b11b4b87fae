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
come near the float range, and the overflow cases are named tests.  The ring self-intersection
oracle tests every pair of edges one at a time, as the reference for the
package's batched sweep, and the hole oracle tests every hole vertex one
at a time, as the reference for its batched hole check.  The bucket-scan
dedup and the per-instance assignment loop are the package's earlier
implementations, kept as references for its pair-based dedup and its
batched containment kernel.
The scene generator and the FN/FP/jitter stages are the package's earlier
per-object loops (an all-instance scan per background draw, a
triangulation per planted cell, one scalar draw per detection or
coordinate): they must consume the random streams in exactly the
package's order, since the suite asserts identical scenes.  The scene
detection reader builds one row per entry, as the package once did, and
the scene document is built as objects for the stdlib's ``json.dumps``, as
the package's writer once built it; the planting loop draws one cell at a
time, as the package did before it drew cells in blocks.  The structure
parser cleans each ring as it reads it and returns what it built, as the
package did before it checked a document's rings as columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from banffscore.errors import MalformedDocument, PlacementFailure
from banffscore.geometry import AssignmentTable, SpatialIndex, contained_pairs
from banffscore.ingest import (
    _feature_entries,
    _polygon_from_coords,
    _self_intersection_sweep,
    load_json_bytes,
    scene_canvas,
)
from banffscore.model import (
    ARTERY,
    GLOMERULUS,
    LYMPHOCYTE,
    MONOCYTE,
    PERITUBULAR_CAPILLARY,
    CellClass,
    Detection,
    Instance,
    SectionScene,
    StructureClass,
)
from banffscore.seeds import derive_seed
from banffscore.synth import _PLACEMENT_ATTEMPTS, _place_polygon, planted_grades


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


def trapezoid_polygon_area(exterior, holes=()) -> float:
    return trapezoid_ring_area(exterior) - sum(trapezoid_ring_area(h) for h in holes)


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
    vx, vy = ring[:, 0], ring[:, 1]
    wx, wy = np.roll(vx, -1), np.roll(vy, -1)
    parity = np.zeros(xs.shape, dtype=bool)
    on_boundary = np.zeros(xs.shape, dtype=bool)
    for x1, y1, x2, y2 in zip(vx, vy, wx, wy):
        d = (x2 - x1) * (ys - y1) - (xs - x1) * (y2 - y1)
        on_boundary |= (
            (d == 0.0)
            & (xs >= min(x1, x2))
            & (xs <= max(x1, x2))
            & (ys >= min(y1, y2))
            & (ys <= max(y1, y2))
        )
        if y2 != y1:
            straddle = (y1 <= ys) != (y2 <= ys)
            if y2 > y1:
                parity = np.logical_xor(parity, straddle & (d > 0.0))
            else:
                parity = np.logical_xor(parity, straddle & (d < 0.0))
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
    hit[contained_pairs(SpatialIndex(["polygon"], [poly]), xy[:, 0].copy(), xy[:, 1].copy())[0]] = True
    return hit


def brute_bbox_hits(instances, xs, ys) -> List[set]:
    """Exhaustive bounding-box scan: for each point, the ids of the instances
    whose bbox (taken from the exterior vertices) contains it.  Every
    instance is compared with every point; no grid."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    hits: List[set] = [set() for _ in range(xs.size)]
    for inst in instances:
        pts = inst.polygon.exterior
        inside = (
            (min(p[0] for p in pts) <= xs) & (xs <= max(p[0] for p in pts))
            & (min(p[1] for p in pts) <= ys) & (ys <= max(p[1] for p in pts))
        )
        for j in np.flatnonzero(inside).tolist():
            hits[j].add(inst.id)
    return hits


def brute_members(detections, instances) -> Dict[str, Tuple[str, ...]]:
    """All-pairs containment: every polygon tested against every detection;
    the sorted ids of the detections inside each instance."""
    members: Dict[str, Tuple[str, ...]] = {inst.id: () for inst in instances}
    if not detections:
        return members
    xs = np.array([d.point[0] for d in detections], dtype=np.float64)
    ys = np.array([d.point[1] for d in detections], dtype=np.float64)
    for inst in instances:
        hit = brute_contains_many(inst.polygon.exterior, inst.polygon.holes, xs, ys)
        members[inst.id] = tuple(sorted(detections[j].id for j in np.nonzero(hit)[0]))
    return members


def brute_assign_table(detections, instances) -> AssignmentTable:
    """The assignment table of :func:`brute_members`."""
    members = brute_members(detections, instances)
    inside = {m for ids in members.values() for m in ids}
    return AssignmentTable(
        counts={iid: len(ids) for iid, ids in members.items()},
        unassigned=tuple(sorted(d.id for d in detections if d.id not in inside)),
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
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


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


def all_instance_scan_generate_scene(spec):
    """``synth.generate_scene`` with every background draw tested against
    every instance and the fan triangulation rebuilt for every planted cell."""
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
            poly, circle = _place_polygon(
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


def per_entry_scene_detections(entries) -> List[Detection]:
    """The rows of a valid scene document's ``detections`` array, one
    ``Detection`` per entry, as ``ingest.read_scene`` once built them."""
    return [
        Detection(
            e["id"],
            (float(e["point"][0]), float(e["point"][1])),
            CellClass.from_string(e["class"]),
            float(e.get("confidence", 1.0)),
        )
        for e in entries
    ]


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


def per_ring_parse_structures(data: bytes) -> List[Instance]:
    """The instances of a FeatureCollection, each ring cleaned by
    ``_clean_ring`` as it is read, each polygon's holes checked as it is
    built and one self-intersection sweep per document."""
    features = load_json_bytes(data)["features"]
    out: List[Instance] = []
    seen: Set[str] = set()
    with _self_intersection_sweep() as cleaned:
        for iid, cls, rings, props in _feature_entries(features, None):
            polygon = _polygon_from_coords(rings, f"feature {iid}", cleaned)
            if iid in seen:
                raise MalformedDocument(f"duplicate instance id {iid!r}")
            seen.add(iid)
            out.append(Instance(id=iid, cls=cls, polygon=polygon, properties=dict(props)))
    return out
