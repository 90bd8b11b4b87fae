"""Parsers and writers for annotation, detection, ground-truth, and scene files.

File schemas
------------
Structures: GeoJSON ``FeatureCollection``; geometries ``Polygon`` or
``MultiPolygon`` (a MultiPolygon expands to one instance per member polygon
with ids suffixed ``#0``, ``#1``, ...).  The class label is read from
``properties.classification.name`` with ``properties.class`` as fallback and
mapped through the alias table; unmapped labels yield ``other`` instances
that are retained but never scored.  First ring is the exterior, the rest
are holes.  Degenerate rings (fewer than 3 distinct vertices, zero area,
self-intersecting) are rejected, never repaired: silent repair would hide
the upstream segmentation defects this tool exists to expose.

Detections: ``{"points": [{"name": str, "point": [x, y],
"probability": float}, ...]}``; ``probability`` is optional and defaults
to 1.0.

Ground truth: integer grades under the keys ``banff_g``, ``banff_ptc`` and
``banff_v``, either on collection-level ``properties`` (which take
precedence) or on feature ``properties``, where the per-indicator maximum
across features applies.

Scene interchange: one JSON document ``{"section_id", "instances",
"detections", "metadata"}`` serialized with sorted keys and 2-space
indentation; ``read_scene(write_scene(s))`` is identity.  Scene rings pass
the same validation as GeoJSON rings.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import DegenerateGeometry, GradeOutOfRange, MalformedDocument, SchemaViolation
from .geometry import Point, Polygon, point_in_polygon, ring_area
from .model import (
    KNOWN_CELL_KINDS,
    CellClass,
    Detection,
    GroundTruthGrades,
    Instance,
    SectionScene,
    StructureClass,
)

GRADE_KEYS = {"g": "banff_g", "ptc": "banff_ptc", "v": "banff_v"}


def load_json_bytes(data: bytes):
    """JSON loader with the package's MalformedDocument error contract."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON serialization: sorted keys, 2-space indent, trailing
    newline.  Same object always yields the same bytes."""
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# structures (GeoJSON)

def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _collinear_within(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_cross(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
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


def _ring_self_intersects(pts: Sequence[Point]) -> bool:
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
            if _segments_cross(a1, a2, b1, b2):
                return True
    return False


def _clean_ring(coords, owner: str) -> Tuple[Point, ...]:
    if not isinstance(coords, (list, tuple)):
        raise MalformedDocument(f"{owner}: ring is not a coordinate array")
    pts: List[Point] = []
    for item in coords:
        if not isinstance(item, (list, tuple)) or len(item) < 2:
            raise MalformedDocument(f"{owner}: ring vertex {item!r} is not an [x, y] pair")
        try:
            x, y = float(item[0]), float(item[1])
        except (TypeError, ValueError):
            raise MalformedDocument(f"{owner}: non-numeric ring vertex {item!r}") from None
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
    if _ring_self_intersects(pts):
        raise DegenerateGeometry(f"{owner}: self-intersecting ring")
    return tuple(pts)


def _polygon_from_coords(coords, owner: str) -> Polygon:
    if not isinstance(coords, (list, tuple)) or not coords:
        raise MalformedDocument(f"{owner}: polygon has no rings")
    rings = [_clean_ring(ring, owner) for ring in coords]
    exterior, holes = rings[0], rings[1:]
    poly = Polygon(exterior=exterior, holes=tuple(holes))
    shell = Polygon(exterior=exterior)
    for h, hole in enumerate(holes):
        if not all(point_in_polygon(p, shell) for p in hole):
            raise DegenerateGeometry(f"{owner}: hole {h} is not inside the exterior ring")
        for other in range(len(holes)):
            if other != h and point_in_polygon(hole[0], Polygon(exterior=holes[other])):
                raise DegenerateGeometry(f"{owner}: holes {other} and {h} are nested")
    return poly


def parse_structures(data: bytes, aliases: Optional[Dict[str, str]] = None) -> List[Instance]:
    """Parse a GeoJSON FeatureCollection of segmented structures.

    Every feature becomes at least one instance or is named in the raised
    error; nothing is silently dropped.
    """
    doc = load_json_bytes(data)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise MalformedDocument("expected a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise MalformedDocument("FeatureCollection has no features array")
    out: List[Instance] = []
    seen: Set[str] = set()
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise MalformedDocument(f"features[{i}] is not an object")
        props = feature.get("properties")
        props = props if isinstance(props, dict) else {}
        fid = feature.get("id", props.get("id"))
        fid = str(fid) if fid is not None else f"f{i + 1}"
        label = None
        classification = props.get("classification")
        if isinstance(classification, dict) and classification.get("name") is not None:
            label = classification["name"]
        elif props.get("class") is not None:
            label = props["class"]
        cls = StructureClass.from_label(label, aliases)
        geom = feature.get("geometry")
        if not isinstance(geom, dict):
            raise MalformedDocument(f"feature {fid}: missing geometry")
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "Polygon":
            member_coords = [coords]
            multi = False
        elif gtype == "MultiPolygon":
            if not isinstance(coords, (list, tuple)) or not coords:
                raise MalformedDocument(f"feature {fid}: empty MultiPolygon")
            member_coords = list(coords)
            multi = True
        else:
            raise MalformedDocument(f"feature {fid}: unsupported geometry type {gtype!r}")
        for j, pcoords in enumerate(member_coords):
            iid = f"{fid}#{j}" if multi else fid
            polygon = _polygon_from_coords(pcoords, f"feature {iid}")
            if iid in seen:
                raise MalformedDocument(f"duplicate instance id {iid!r}")
            seen.add(iid)
            out.append(Instance(id=iid, cls=cls, polygon=polygon, properties=dict(props)))
    return out


# ---------------------------------------------------------------------------
# detections (JSON point lists)

def parse_detections(
    data: bytes,
    min_confidence: float = 0.5,
    classes: Optional[Iterable] = KNOWN_CELL_KINDS,
    aliases: Optional[Dict[str, str]] = None,
) -> List[Detection]:
    """Parse detector output, keeping points with class in ``classes`` and
    confidence >= ``min_confidence``.  ``classes=None`` keeps every class.
    Ids are ``d<i>`` over the document order, stable under filtering."""
    doc = load_json_bytes(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise MalformedDocument('expected an object with a "points" array')
    allowed = None
    if classes is not None:
        allowed = {c.kind if isinstance(c, CellClass) else str(c) for c in classes}
    out: List[Detection] = []
    for i, entry in enumerate(doc["points"]):
        where = f"points[{i}]"
        if not isinstance(entry, dict):
            raise SchemaViolation(f"{where}: not an object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise SchemaViolation(f"{where}: missing or non-string 'name'")
        pt = entry.get("point")
        if not isinstance(pt, (list, tuple)) or len(pt) < 2:
            raise SchemaViolation(f"{where}: missing 'point' [x, y]")
        try:
            x, y = float(pt[0]), float(pt[1])
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where}: non-numeric point {pt!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise SchemaViolation(f"{where}: non-finite point coordinates")
        prob = entry.get("probability", 1.0)
        if isinstance(prob, bool) or not isinstance(prob, (int, float)):
            raise SchemaViolation(f"{where}: non-numeric probability {prob!r}")
        prob = float(prob)
        if not 0.0 <= prob <= 1.0:
            raise SchemaViolation(f"{where}: probability {prob} outside [0, 1]")
        cls = CellClass.from_label(name, aliases)
        if allowed is not None and cls.kind not in allowed:
            continue
        if prob < min_confidence:
            continue
        out.append(Detection(id=f"d{i}", point=(x, y), cls=cls, confidence=prob))
    return out


# ---------------------------------------------------------------------------
# ground truth

def _grade_value(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GradeOutOfRange(f"{key}={value!r} is not an integer grade")
    if float(value) != int(value):
        raise GradeOutOfRange(f"{key}={value!r} is not an integer grade")
    grade = int(value)
    if not 0 <= grade <= 3:
        raise GradeOutOfRange(f"{key}={value!r} outside 0-3")
    return grade


def parse_ground_truth(data: bytes) -> GroundTruthGrades:
    """Extract expert grades from a GeoJSON collection or a bare object.

    Collection-level properties win; otherwise the per-indicator maximum
    over feature properties applies.  Absent keys yield absent grades.
    """
    doc = load_json_bytes(data)
    if not isinstance(doc, dict):
        raise MalformedDocument("expected a JSON object")
    feature_props: List[dict] = []
    if doc.get("type") == "FeatureCollection":
        coll = doc.get("properties")
        coll = coll if isinstance(coll, dict) else {}
        features = doc.get("features")
        if features is not None and not isinstance(features, list):
            raise MalformedDocument("FeatureCollection has a non-array features member")
        for f in features or []:
            if isinstance(f, dict) and isinstance(f.get("properties"), dict):
                feature_props.append(f["properties"])
    else:
        props = doc.get("properties")
        coll = props if isinstance(props, dict) else doc
    grades: Dict[str, Optional[int]] = {}
    for name, key in GRADE_KEYS.items():
        if key in coll:
            grades[name] = _grade_value(coll[key], key)
        else:
            values = [_grade_value(fp[key], key) for fp in feature_props if key in fp]
            grades[name] = max(values) if values else None
    section_id = coll.get("section_id", doc.get("section_id", ""))
    return GroundTruthGrades(section_id=str(section_id), **grades)


# ---------------------------------------------------------------------------
# detection dedup

def dedup_detections(detections: Sequence[Detection], radius: float) -> List[Detection]:
    """Greedy same-class suppression, highest confidence first (id breaks ties).

    A detection is kept iff no already-kept detection of the same class lies
    within Euclidean distance <= radius.  Radius 0 suppresses only exact
    same-class coordinate duplicates.  Output preserves input order.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ranked = sorted(detections, key=lambda d: (-d.confidence, d.id))
    kept_ids: Set[str] = set()
    if radius == 0:
        seen_points: Set[Tuple[str, float, float]] = set()
        for d in ranked:
            key = (d.cls.kind, d.point[0], d.point[1])
            if key in seen_points:
                continue
            seen_points.add(key)
            kept_ids.add(d.id)
    else:
        buckets: Dict[Tuple[str, int, int], List[Detection]] = {}
        for d in ranked:
            cx = math.floor(d.point[0] / radius)
            cy = math.floor(d.point[1] / radius)
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
# scene interchange

def scene_to_dict(scene: SectionScene) -> dict:
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
            {
                "id": det.id,
                "class": det.cls.to_string(),
                "point": [det.point[0], det.point[1]],
                "confidence": det.confidence,
            }
            for det in scene.detections
        ],
        "metadata": scene.metadata,
    }


def write_scene(scene: SectionScene) -> bytes:
    """Serialize a scene deterministically; see :func:`canonical_json_bytes`."""
    return canonical_json_bytes(scene_to_dict(scene))


def scene_from_dict(doc: dict) -> SectionScene:
    if not isinstance(doc, dict):
        raise MalformedDocument("scene document is not an object")
    for key in ("section_id", "instances", "detections"):
        if key not in doc:
            raise MalformedDocument(f"scene document missing {key!r}")
    if not isinstance(doc["instances"], list) or not isinstance(doc["detections"], list):
        raise MalformedDocument("scene instances/detections must be arrays")
    instances: List[Instance] = []
    seen: Set[str] = set()
    for entry in doc["instances"]:
        try:
            iid = str(entry["id"])
            rings = [entry["polygon"]["exterior"], *entry["polygon"].get("holes", [])]
            inst = Instance(
                id=iid,
                cls=StructureClass.from_string(entry["class"]),
                polygon=_polygon_from_coords(rings, f"instance {iid}"),
                properties=dict(entry.get("properties", {})),
            )
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedDocument(f"bad instance entry: {exc}") from exc
        if inst.id in seen:
            raise MalformedDocument(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        instances.append(inst)
    detections: List[Detection] = []
    seen_d: Set[str] = set()
    for entry in doc["detections"]:
        try:
            det = Detection(
                id=str(entry["id"]),
                point=(entry["point"][0], entry["point"][1]),
                cls=CellClass.from_string(entry["class"]),
                confidence=float(entry.get("confidence", 1.0)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedDocument(f"bad detection entry: {exc}") from exc
        if det.id in seen_d:
            raise MalformedDocument(f"duplicate detection id {det.id!r}")
        seen_d.add(det.id)
        detections.append(det)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MalformedDocument("scene metadata must be an object")
    return SectionScene(
        section_id=str(doc["section_id"]),
        instances=instances,
        detections=detections,
        metadata=metadata,
    )


def read_scene(data: bytes) -> SectionScene:
    return scene_from_dict(load_json_bytes(data))
