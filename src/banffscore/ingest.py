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

A document's rings are checked in one pass, which also names the first
defect of a rejected document.  One gather pass reads each feature or scene
instance (id, class, geometry shape); one columnar pass cleans every ring at
once (:func:`_ring_columns`) up to the first it rejects, and the table of the
clean rings checks them for zero area and self-intersection, and then every
hole (:class:`~banffscore.geometry._EdgeTable`, where ring validity is
decided).  The first defect in document order is raised (:func:`_checked`):
entry by entry, and in one entry its rings in order, then its holes, then a
repeated id.  :func:`parse_structures` then builds ``Instance`` rows from the
checked table; the ``score`` command keeps the table itself
(:func:`_structure_table`) and builds no row.

Detections: ``{"points": [{"name": str, "point": [x, y],
"probability": float}, ...]}``; ``probability`` is optional and defaults
to 1.0.  A parsed table keeps each entry's document position ``i`` in place
of its id ``d<i>``, which is written only where a string is read.

Ground truth: integer grades under the keys of ``GRADE_KEYS``, either on
collection-level ``properties`` (which take precedence) or on feature
``properties``, where the per-indicator maximum across features applies.
:func:`write_ground_truth` writes them on collection-level ``properties``.

Scene interchange: one JSON document ``{"section_id", "instances",
"detections", "metadata"}`` serialized with sorted keys and 2-space
indentation; ``read_scene(write_scene(s))`` is identity.  Scene rings pass
the same validation as GeoJSON rings.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import suppress
from itertools import chain
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import (
    BanffScoreError,
    DegenerateGeometry,
    GradeOutOfRange,
    MalformedDocument,
    SchemaViolation,
    echo,
    echo_id,
)
from .geometry import Point, _EdgeTable
from .model import (
    INDICATORS,
    KNOWN_CELL_KINDS,
    CellClass,
    Detection,
    DetectionTable,
    GroundTruthGrades,
    Instance,
    SectionScene,
    StructureClass,
)

GRADE_KEYS = {name: f"banff_{name}" for name in INDICATORS}


def load_json_bytes(data: bytes):
    """JSON loader with the package's MalformedDocument error contract."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data)
    except ValueError as exc:  # bad UTF-8, bad JSON, or an int literal too long to convert
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the decoder recurses
        raise MalformedDocument("not valid JSON: nested too deeply") from exc


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON serialization: sorted keys, 2-space indent, trailing
    newline.  The bytes are those of ``json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False) + "\\n"`` for every document, and a non-finite
    float raises its ValueError; see :func:`_json_text`."""
    return (_json_text(obj, "") + "\n").encode("utf-8")


_encode_str = json.encoder.encode_basestring_ascii


class _RawJson:
    """A value already written as canonical JSON text, as at the top level
    of a document; :func:`_json_text` indents it to where it goes."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_text(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False)`` writes it, nested at ``indent``.

    Strings and keys go through the stdlib's own ASCII string encoder, ints
    and floats through ``int.__repr__`` and ``float.__repr__``, each type
    tested in the stdlib encoder's order; empty containers stay ``[]`` and
    ``{}``.  A non-finite float, a dict with a key that is not a string
    (the stdlib sorts such keys before it converts them) and any type JSON
    has no value for go to ``json.dumps`` itself, re-indented, so the text
    and the errors stay the stdlib's.  CPython 3.10 and 3.11 write indented
    JSON with the stdlib's pure-Python encoder, as their C encoder has no
    indent branch; this walk skips that encoder's generators.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(value, inner) for value in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        items = [_encode_str(key) + ": " + _json_text(obj[key], inner) for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, _RawJson):
        return obj.text.replace("\n", "\n" + indent)
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n" + indent)


# ---------------------------------------------------------------------------
# numbers: one rule for a value that any input file gives as a number

def as_number(value) -> Optional[float]:
    """``value`` as a float if it is a real number, else None.  Strings and
    bools are never numbers; an int too large for a float reads as infinity."""
    if type(value) is float:  # the per-coordinate case
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_finite(value) -> bool:
    return (number := as_number(value)) is not None and math.isfinite(number)


def is_int(value) -> bool:
    """An integer proper: ``2.0`` and ``True`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def checked_integer(value, where: str, error: type) -> int:
    """``value`` as an int if it is a finite number without a fraction (``2``
    or ``2.0``); anything else raises ``error`` naming ``where``."""
    number = as_number(value)
    if number is None or not number.is_integer():
        raise error(f"{where}: expected an integer, got {echo(value)}")
    return value if type(value) is int else int(number)


def checked_canvas(value, where: str, error: type) -> Tuple[float, float, float, float]:
    """``value`` as ``(x0, y0, x1, y1)``, four finite numbers with x0 < x1 and
    y0 < y1 whose width and height are finite; anything else raises
    ``error`` naming ``where``."""
    if isinstance(value, (list, tuple)) and len(value) == 4 and all(map(is_finite, value)):
        x0, y0, x1, y1 = map(as_number, value)
        if 0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf:
            return (x0, y0, x1, y1)
    raise error(
        f"{where}: expected [x0, y0, x1, y1] with x0 < x1, y0 < y1 and a finite width and height, "
        f"got {echo(value)}"
    )


# ---------------------------------------------------------------------------
# structures (GeoJSON)

# A document's instances before their rings are checked: (id, class, raw
# rings with the exterior first, properties).
_Entry = Tuple[str, StructureClass, object, dict]

# A ring and a vertex are JSON arrays (lists), or tuples in a generated scene,
# and a coordinate is a JSON number, never a bool.
_ARRAYS = {list, tuple}
_NUMBERS = {float, int}


class _RingColumns(NamedTuple):
    """The first ring ``bad`` that a ring check rejects and ``error``, why,
    without its owner, or None (``bad`` is then the ring count); ``edges``
    is the table of the cleaned rings before the first that cleaning or
    zero area rejects, of the polygons cut short there."""

    edges: _EdgeTable
    bad: int
    error: Optional[BanffScoreError]


def _coordinates(rings: list) -> Optional[np.ndarray]:
    """The vertices of ``rings`` as an ``(n, 2)`` float array, or None if a
    ring or a vertex is not an array, a vertex has fewer than 2 items (only
    its first two are read), a coordinate is not an int or a float, or one
    is not finite.  ``np.array`` converts as ``float()`` does; an int beyond
    the float range raises OverflowError there, which rejects."""
    if not set(map(type, rings)) <= _ARRAYS:
        return None
    vertices = list(chain.from_iterable(rings))
    if not set(map(type, vertices)) <= _ARRAYS:
        return None
    lengths = set(map(len, vertices))
    if min(lengths, default=2) < 2:
        return None
    if lengths == {2}:
        flat = list(chain.from_iterable(vertices))
    else:
        flat = [v[k] for v in vertices for k in (0, 1)]
    if not set(map(type, flat)) <= _NUMBERS:
        return None
    try:
        xy = np.array(flat, dtype=np.float64).reshape(-1, 2)
    except OverflowError:
        return None
    return xy if np.isfinite(xy).all() else None


def _vertex_error(ring) -> Optional[BanffScoreError]:
    """Why :func:`_coordinates` rejects ``ring``, worded at its first bad
    vertex, or None if it accepts it."""
    if type(ring) not in _ARRAYS:
        return MalformedDocument("ring is not a coordinate array")
    for vertex in ring:
        if type(vertex) not in _ARRAYS or len(vertex) < 2:
            return MalformedDocument(f"ring vertex {echo(vertex)} is not an [x, y] pair")
        if not {type(vertex[0]), type(vertex[1])} <= _NUMBERS:
            return MalformedDocument(f"non-numeric ring vertex {echo(vertex)}")
        if not (is_finite(vertex[0]) and is_finite(vertex[1])):
            return DegenerateGeometry("non-finite ring vertex")
    return None


def _ring_columns(rings: list, n_rings: np.ndarray) -> _RingColumns:
    """The rings, for polygons of ``n_rings[k]`` rings each, cleaned in one
    columnar pass up to the first ring that cleaning rejects, and checked.
    Each ring reads as finite ``[x, y]`` pairs (:func:`_coordinates`; only
    if the rings fail together are they read one at a time, and the first
    bad ring's vertex named by :func:`_vertex_error`), has at least 3
    vertices, keeps 3 once a vertex equal to the one before it and then a
    last vertex equal to the first are dropped, has a non-zero area and
    neither touches nor crosses itself (the table's
    :meth:`~banffscore.geometry._EdgeTable.first_zero_area` and
    :meth:`~banffscore.geometry._EdgeTable.first_self_intersecting_ring`
    decide).  Each check runs on the rings before the first that an earlier
    one rejected, so the ring named is the first any check rejects.
    """
    bad, error = len(rings), None
    xy = _coordinates(rings)
    if xy is None:
        for r, ring in enumerate(rings):
            if _coordinates([ring]) is None and (error := _vertex_error(ring)):
                bad = r
                break
        xy = _coordinates(rings[:bad])  # every ring before ``bad`` reads alone, so together too
    sizes = np.fromiter(map(len, rings[:bad]), dtype=np.intp, count=bad)
    if (sizes < 3).any():  # before an empty ring leaves a start with no vertex
        bad, error = int(np.argmax(sizes < 3)), DegenerateGeometry("ring has fewer than 3 distinct vertices")
        sizes, xy = sizes[:bad], xy[:sizes[:bad].sum()]
    x, y, start = xy[:, 0], xy[:, 1], np.cumsum(sizes) - sizes
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    keep[start] = True
    kept = np.add.reduceat(keep, start, dtype=np.intp)
    last = np.flatnonzero(keep)[np.cumsum(kept) - 1]
    closed = (kept > 1) & (x[last] == x[start]) & (y[last] == y[start])
    keep[last[closed]] = False
    sizes = kept - closed
    if (sizes < 3).any():
        bad, error = int(np.argmax(sizes < 3)), DegenerateGeometry("ring has fewer than 3 distinct vertices")

    def table(upto: int) -> _EdgeTable:
        # the polygon that ring ``upto`` falls in keeps its rings before it, or goes if it has none
        counts = np.diff(np.minimum(np.cumsum(n_rings), upto), prepend=0)
        return _EdgeTable(xy[keep][:sizes[:upto].sum()], sizes[:upto], counts[counts > 0])

    edges = table(bad)
    zero = edges.first_zero_area()
    if zero is not None:
        bad, error, edges = zero, DegenerateGeometry("ring has zero area"), table(zero)
    crossing = edges.first_self_intersecting_ring()
    if crossing >= 0:
        bad, error = crossing, DegenerateGeometry("self-intersecting ring")
    return _RingColumns(edges, bad, error)


def _checked(entries: Iterator[_Entry], kind: str) -> Tuple[List[_Entry], _EdgeTable]:
    """A document's entries, which ``entries`` yields in document order and
    which are read once, and the table of their checked rings; ``kind``
    names an entry in an error.

    The entries read go through one pass.  The rings of those before the
    first whose rings are not a non-empty array are checked up to the first
    that a ring check rejects (:func:`_ring_columns`), the table of the
    checked rings finds the first polygon with a bad hole
    (:meth:`~banffscore.geometry._EdgeTable.first_bad_hole`), and a scan of
    the ids the first repeat.  The least (entry, check) of these defects is raised;
    with none, the package error that reading the next entry raised.
    """
    listed: List[_Entry] = []
    unread = None
    try:
        for entry in entries:
            listed.append(entry)
    except BanffScoreError as exc:
        unread = exc
    ids = [iid for iid, _, _, _ in listed]
    ring_lists = [rings for _, _, rings, _ in listed]
    found = []  # (entry, check, error), the checks of one entry in the order they rank
    n = len(ring_lists)
    if not (set(map(type, ring_lists)) <= _ARRAYS and all(ring_lists)):
        n = next(k for k, rings in enumerate(ring_lists) if type(rings) not in _ARRAYS or not rings)
        found.append((n, 0, MalformedDocument(f"{kind} {echo_id(ids[n])}: polygon has no rings")))
    n_rings = np.fromiter(map(len, ring_lists[:n]), dtype=np.intp, count=n)
    columns = _ring_columns(list(chain.from_iterable(ring_lists[:n])), n_rings)
    if columns.error is not None:
        k = int(np.searchsorted(np.cumsum(n_rings), columns.bad, side="right"))
        found.append((k, 1, type(columns.error)(f"{kind} {echo_id(ids[k])}: {columns.error}")))
    if (hole := columns.edges.first_bad_hole()) is not None:
        k, message = hole
        found.append((k, 2, DegenerateGeometry(f"{kind} {echo_id(ids[k])}: {message}")))
    if len(set(ids)) < len(ids):
        seen: Set[str] = set()
        k = next(k for k, iid in enumerate(ids) if iid in seen or seen.add(iid))
        found.append((k, 3, MalformedDocument(f"duplicate instance id {echo(ids[k])}")))
    if found:
        raise min(found, key=lambda defect: defect[:2])[2]
    if unread:
        raise unread
    return listed, columns.edges


def _instances(listed: List[_Entry], edges: _EdgeTable) -> List[Instance]:
    """The instances of checked entries and their table (:func:`_checked`),
    the only place a parser builds vertex tuples."""
    return [
        Instance(id=iid, cls=cls, polygon=polygon, properties=dict(props))
        for (iid, cls, _, props), polygon in zip(listed, edges.polygons())
    ]


def _feature_id(i: int, feature: dict, props: dict) -> str:
    """The id of feature ``i``: its ``id``, else its ``properties.id``, else
    ``f<i + 1>``.  An id is a string or a number (RFC 7946), and a number
    reads as ``str()`` writes it."""
    where, fid = (f"features[{i}].id", feature["id"]) if "id" in feature else (
        f"features[{i}].properties.id", props.get("id"))
    if fid is None:
        return f"f{i + 1}"
    if type(fid) in (str, int, float):
        return str(fid)
    raise MalformedDocument(f"{where}: expected a string or a number, got {echo(fid)}")


def _feature_entries(features: list, aliases: Optional[Dict[str, str]]) -> Iterator[_Entry]:
    """The entries of the features, one per member polygon.  Each distinct
    string label is parsed once; a label of another type is parsed each time."""
    classes: Dict[str, StructureClass] = {}
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise MalformedDocument(f"features[{i}] is not an object")
        props = feature.get("properties")
        props = props if isinstance(props, dict) else {}
        fid = _feature_id(i, feature, props)
        label = None
        classification = props.get("classification")
        if isinstance(classification, dict) and classification.get("name") is not None:
            label = classification["name"]
        elif props.get("class") is not None:
            label = props["class"]
        if not isinstance(label, str):
            cls = StructureClass.from_label(label, aliases)
        elif (cls := classes.get(label)) is None:
            cls = classes[label] = StructureClass.from_label(label, aliases)
        geom = feature.get("geometry")
        if not isinstance(geom, dict):
            raise MalformedDocument(f"feature {echo_id(fid)}: missing geometry")
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "Polygon":
            yield fid, cls, coords, props
        elif gtype == "MultiPolygon":
            if not isinstance(coords, (list, tuple)) or not coords:
                raise MalformedDocument(f"feature {echo_id(fid)}: empty MultiPolygon")
            for j, pcoords in enumerate(coords):
                yield f"{fid}#{j}", cls, pcoords, props
        else:
            raise MalformedDocument(f"feature {echo_id(fid)}: unsupported geometry type {echo(gtype)}")


def _structure_entries(data: bytes, aliases: Optional[Dict[str, str]]) -> Iterator[_Entry]:
    """The entries of a GeoJSON FeatureCollection's features; the
    document's own shape is checked before any entry is read."""
    doc = load_json_bytes(data)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise MalformedDocument("expected a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise MalformedDocument("FeatureCollection has no features array")
    return _feature_entries(features, aliases)


def parse_structures(data: bytes, aliases: Optional[Dict[str, str]] = None) -> List[Instance]:
    """Parse a GeoJSON FeatureCollection of segmented structures.

    Every feature becomes at least one instance or is named in the raised
    error; nothing is silently dropped.
    """
    return _instances(*_checked(_structure_entries(data, aliases), "feature"))


def _structure_table(data: bytes, aliases: Optional[Dict[str, str]]) -> Tuple[List[str], List[str], _EdgeTable]:
    """The ids and class kinds of the instances :func:`parse_structures`
    gives, and the checked table of their polygons, with the same errors;
    no vertex tuple and no :class:`~banffscore.model.Instance` is built."""
    listed, edges = _checked(_structure_entries(data, aliases), "feature")
    return [iid for iid, _, _, _ in listed], [cls.kind for _, cls, _, _ in listed], edges


# ---------------------------------------------------------------------------
# detections (JSON point lists)

def _number_column(values: list) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as float64 by :func:`as_number`, NaN where one is not a
    number, and the mask of those that are.  Ints and floats convert at
    once, as ``float()`` converts them; other types and an int beyond the
    float range go through :func:`as_number`."""
    if set(map(type, values)) <= {float, int}:
        with suppress(OverflowError):
            column = np.array(values, dtype=np.float64)
            return column, np.ones(column.size, dtype=bool)
    numbers = list(map(as_number, values))
    is_number = np.array([v is not None for v in numbers], dtype=bool)
    return np.array([math.nan if v is None else v for v in numbers], dtype=np.float64), is_number


def _point_numbers(entries: list, pairs: list, confidences: list, where: str, confidence_key: str, error: type,
                   found: list) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, ys, confidences) of the first ``len(pairs)`` entries, from their
    raw points (``(None, None)`` where not an array of 2 or more items) and
    confidences.  The number checks run as columns: two numbers, both
    finite, a confidence in [0, 1].  An entry's first failure ranks as its
    check 1, after the structural checks (0), before a repeated id (2); the
    least (entry, check) of it and the defects ``found`` is raised."""
    xs, x_ok = _number_column([p[0] for p in pairs])
    ys, y_ok = _number_column([p[1] for p in pairs])
    probs, _ = _number_column(confidences)  # NaN fails the range check
    checks = (~(x_ok & y_ok), ~(np.isfinite(xs) & np.isfinite(ys)), ~((probs >= 0.0) & (probs <= 1.0)))
    bad = np.flatnonzero(checks[0] | checks[1] | checks[2])
    if bad.size:
        i = int(bad[0])
        at, point, raw = f"{where}[{i}]", entries[i].get("point"), entries[i].get(confidence_key, 1.0)
        messages = (f"{at}.point: expected [x, y] of numbers, got {echo(point)}",
                    f"{at}.point: non-finite point coordinates {echo(point)}",
                    f"{at}.{confidence_key}: expected a number in [0, 1], got {echo(raw)}")
        found.append((i, 1, error(next(m for m, check in zip(messages, checks) if check[i]))))
    if found:
        raise min(found, key=lambda defect: defect[:2])[2]
    return xs, ys, probs


def parse_detections(
    data: bytes,
    min_confidence: float = 0.5,
    classes: Optional[Iterable] = KNOWN_CELL_KINDS,
    aliases: Optional[Dict[str, str]] = None,
) -> DetectionTable:
    """Parse detector output, keeping points with class in ``classes`` and
    confidence >= ``min_confidence``.  ``classes=None`` keeps every class.
    Ids are ``d<i>`` over the document order, stable under filtering; the
    table keeps the positions ``i`` and writes the strings only when its
    ``ids`` are read.

    The entries go through one pass, whose error names the first bad entry
    and its first bad field.  A loop reads them up to the first that is not
    an object or has no string ``name``; the number checks of those before
    it run as columns (:func:`_point_numbers`).
    """
    doc = load_json_bytes(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise MalformedDocument('expected an object with a "points" array')
    points = doc["points"]
    labels, pairs, probabilities = [], [], []
    found = []  # (entry, check, error)
    for i, entry in enumerate(points):
        if type(entry) is not dict or type(name := entry.get("name")) is not str:
            problem = "not an object" if type(entry) is not dict else "missing or non-string 'name'"
            found.append((i, 0, SchemaViolation(f"points[{i}]: {problem}")))
            break
        labels.append(name)
        pairs.append(pt if type(pt := entry.get("point")) is list and len(pt) > 1 else (None, None))
        probabilities.append(entry.get("probability", 1.0))
    columns = _point_numbers(points, pairs, probabilities, "points", "probability", SchemaViolation, found)
    positions = np.arange(len(points), dtype=np.intp)
    table = DetectionTable.from_labels(positions, *columns, labels, lambda s: CellClass.from_label(s, aliases))
    if classes is not None:
        classes = {c.kind if isinstance(c, CellClass) else str(c) for c in classes}
    return table.take(table.keep(classes, min_confidence))


# ---------------------------------------------------------------------------
# ground truth

def _grade_value(value, key: str) -> int:
    grade = checked_integer(value, key, GradeOutOfRange)
    if not 0 <= grade <= 3:
        raise GradeOutOfRange(f"{key}={echo(value)} outside 0-3")
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
    if not isinstance(section_id, str):
        raise MalformedDocument(f"section_id: expected a string, got {echo(section_id)}")
    return GroundTruthGrades(section_id=section_id, **grades)


def write_ground_truth(gt: GroundTruthGrades) -> bytes:
    """The ground-truth file that :func:`parse_ground_truth` reads as ``gt``:
    an empty FeatureCollection whose ``properties`` hold the section id and
    each grade that is not None; see :func:`canonical_json_bytes`."""
    grades = {key: getattr(gt, name) for name, key in GRADE_KEYS.items() if getattr(gt, name) is not None}
    doc = {"type": "FeatureCollection", "features": [], "properties": {"section_id": gt.section_id, **grades}}
    return canonical_json_bytes(doc)


# ---------------------------------------------------------------------------
# detection dedup

def _cell_keys(table: DetectionTable, radius: float) -> Tuple[np.ndarray, int]:
    """Per row, an integer naming its class kind and its grid cell of side
    ``radius``, and the key step from one cell to the next in x.

    Cells are the dense ranks of ``floor(x / radius)`` and ``floor(y /
    radius)`` (floats, so no coordinate overflows an integer), or at radius 0
    of ``x`` and ``y`` themselves, so that a cell is one point (``-0.0`` and
    ``0.0`` are one coordinate, as for ``math.dist``).  A spare rank on each
    axis keeps a neighbour offset from wrapping into the next row.  Two rows
    of one kind within ``radius`` have keys that differ by one of ``ox *
    step + oy`` with ``ox, oy`` in (-1, 0, 1).  A radius below ``|x| /
    1.8e308`` makes ``x / radius`` overflow; every such coordinate of one
    sign then shares the infinite cell, which stays correct but is scanned
    like one bucket.
    """
    cx, cy = table.xs, table.ys
    if radius > 0:
        with np.errstate(over="ignore"):
            cx, cy = np.floor(cx / radius), np.floor(cy / radius)
    _, rx = np.unique(cx, return_inverse=True)
    _, ry = np.unique(cy, return_inverse=True)
    nx, ny = int(rx.max(initial=-1)) + 2, int(ry.max(initial=-1)) + 2
    return (table.kind_codes() * nx + rx + 1) * ny + ry + 1, ny


def _cell_groups(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows grouped by ``key``: their positions sorted by key, and per
    distinct key, ascending, its first place in that order, its row count
    and the key itself.  The order of the rows of one key is unspecified."""
    order = np.argsort(key)
    sorted_key = key[order]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    return order, starts, np.diff(starts, append=key.size), sorted_key[starts]


def _forward(cells: np.ndarray, step: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Per forward neighbour offset (``+1``, ``step - 1``, ``step``, ``step +
    1``), the places ``(a, b)`` in ``cells`` of each cell and of that
    neighbour, where both hold rows."""
    for offset in (1, step - 1, step, step + 1):
        c = np.minimum(np.searchsorted(cells, cells + offset), cells.size - 1)
        a = np.flatnonzero(cells[c] == cells + offset)
        yield a, c[a]


def _cross(order: np.ndarray, starts: np.ndarray, size: np.ndarray, a: np.ndarray,
           b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every row of cell ``a[k]`` with every row of cell ``b[k]``, for every
    ``k``, as two arrays of row positions (see :func:`_cell_groups`)."""
    n = size[a] * size[b]
    t = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    i = order[np.repeat(starts[a], n) + t // np.repeat(size[b], n)]
    j = order[np.repeat(starts[b], n) + t % np.repeat(size[b], n)]
    return i, j


def _maybe_close(table: DetectionTable, key: np.ndarray, step: int, radius: float) -> np.ndarray:
    """Mask of the rows that may have a same-kind row within ``radius``.

    A row outside the mask has none.  The mask holds every row that shares
    its cell, and both rows of each pair, between a cell and one of its four
    forward neighbours (:func:`_forward`), with ``|dx|, |dy| <=
    nextafter(radius, inf)``, which no pair within ``radius`` fails and
    which squares nothing.  Two cells are paired only if one holds a single
    row, and a cell has eight neighbours, so at most ``8 * len(table)``
    pairs are compared, whatever the radius.
    """
    order, starts, size, cells = _cell_groups(key)
    maybe = np.zeros(key.size, dtype=bool)
    maybe[order[np.repeat(size > 1, size)]] = True
    reach = np.nextafter(radius, math.inf)
    for a, b in _forward(cells, step):
        single = (size[a] == 1) | (size[b] == 1)
        i, j = _cross(order, starts, size, a[single], b[single])
        with np.errstate(over="ignore"):
            near = (np.abs(table.xs[i] - table.xs[j]) <= reach) & (np.abs(table.ys[i] - table.ys[j]) <= reach)
        maybe[i[near]] = maybe[j[near]] = True
    return maybe


def _neighbour_pairs(points: List[Point], key: np.ndarray, step: int,
                     radius: float) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The pairs ``(u, v)``, ``u < v``, of rows ``points[u]`` and
    ``points[v]`` within ``radius`` (``math.dist``) whose cell keys
    (:func:`_cell_keys`) are one of the 3x3 apart, or None if there are more
    than ``8 * len(points)`` candidates.

    The candidates are every ordered pair of rows of one cell and every row
    of a cell with every row of one of its four forward neighbours.  They
    are counted from the cell sizes before any is built, so a crowd, whose
    candidates grow with the square of its size, is counted but not built.
    """
    order, starts, size, cells = _cell_groups(key)
    each = np.arange(cells.size)
    links = [(each, each), *_forward(cells, step)]
    if sum(int(np.dot(size[a], size[b])) for a, b in links) > 8 * len(points):
        return None
    (i, j), *across = (_cross(order, starts, size, a, b) for a, b in links)
    within = i < j
    u = np.concatenate([i[within], *(np.minimum(i, j) for i, j in across)])
    v = np.concatenate([j[within], *(np.maximum(i, j) for i, j in across)])
    lower, upper = map(points.__getitem__, v.tolist()), map(points.__getitem__, u.tolist())
    near = np.fromiter(map(math.dist, lower, upper), dtype=np.float64, count=u.size) <= radius
    return u[near], v[near]


def _rounds(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``n`` rows in rank order (row 0 ranks first), 1 if the
    greedy rule keeps it, -1 if it suppresses it, and 0 if the rounds left
    it undecided; ``(u[k], v[k])``, ``u[k] < v[k]``, are the neighbour pairs.

    The greedy rule keeps a row iff none of its higher-ranked neighbours is
    kept.  A round keeps every undecided row none of whose higher-ranked
    neighbours is undecided, then suppresses every undecided row with a
    neighbour it kept; only pairs of two undecided rows are carried to the
    next round (Blelloch, Fineman and Shun, "Greedy sequential maximal
    independent set and matching are parallel on average", SPAA 2012).

    *Each decision is the greedy one*, by induction over the rounds.  A row
    kept in a round has only decided higher-ranked neighbours, and none of
    them is kept, since a kept one would have suppressed it in the round
    that kept it; so all are suppressed, and the greedy rule keeps it.  A row
    suppressed in a round has a neighbour kept in that round, which is
    higher-ranked (that row's lower-ranked neighbours were undecided until
    then), so the greedy rule suppresses it.  The highest-ranked undecided
    row is kept in every round, so each round decides at least one row.

    *The work is linear.*  A round costs time in proportion to its undecided
    rows plus the pairs between them, and the rounds stop at the first that
    decides fewer than half of its undecided rows or leaves more than half
    of its pairs: until then each round costs at most half of the one
    before, so all of them cost at most twice the first.
    """
    state = np.zeros(n, dtype=np.int8)
    live = np.arange(n)
    blocked = np.zeros(n, dtype=bool)
    while live.size:
        blocked[v] = True
        state[live[~blocked[live]]] = 1
        blocked[v] = False
        state[v[state[u] == 1]] = -1
        undecided = live[state[live] == 0]
        carried = (state[u] == 0) & (state[v] == 0)
        stalled = 2 * undecided.size > live.size or 2 * np.count_nonzero(carried) > u.size
        live, u, v = undecided, u[carried], v[carried]
        if stalled:
            break
    return state


def dedup_detections(detections: DetectionTable | Sequence[Detection], radius: float) -> DetectionTable:
    """Greedy same-class suppression, highest confidence first (id breaks ties).

    A detection is kept iff no already-kept detection of the same class
    kind lies within Euclidean distance <= radius (``math.dist``).  Radius
    0 suppresses only exact same-class coordinate duplicates.  Output
    preserves input order.  A NaN confidence, which no parser admits, ranks
    after every number.

    Detections with no same-kind detection near them (:func:`_maybe_close`)
    are kept as they are, and only the rest are ranked (one ``np.lexsort``;
    a parsed table writes the id strings of these rows alone), paired
    (:func:`_neighbour_pairs`) and decided in rounds (:func:`_rounds`).  The
    greedy loop decides what the rounds leave, or every ranked row when the
    pairs are not listed: it visits them in rank order, with the rows the
    rounds kept in place (none is a lower-ranked neighbour of an undecided
    row, which would have blocked it), and compares each only with the kept
    detections of the 3x3 cells around its own (:func:`_cell_keys`).  Kept
    detections of one kind are more than ``radius`` apart, so a cell of side
    ``radius`` holds at most four of them (a cell at radius 0, one) and a
    visit costs at most 36 distances: with the pair bound and the rounds'
    own, dedup is linear at every radius.
    """
    if not radius >= 0:  # NaN too: it compares false with every distance
        raise ValueError("radius must be >= 0")
    table = DetectionTable.from_rows(detections)
    key, step = _cell_keys(table, radius)
    rows = np.flatnonzero(_maybe_close(table, key, step, radius))
    rows = rows[np.lexsort((table.take(rows).ids, -table.confidences[rows]))]
    points, keys = list(zip(table.xs[rows].tolist(), table.ys[rows].tolist())), key[rows]
    pairs = _neighbour_pairs(points, keys, step, radius)
    state = np.zeros(rows.size, dtype=np.int8) if pairs is None else _rounds(*pairs, rows.size)
    suppressed, undecided = np.flatnonzero(state == -1).tolist(), np.flatnonzero(state == 0).tolist()
    keys = keys.tolist()
    offsets = [ox * step + oy for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
    # cell key -> the kept points of the 3x3 cells around that cell
    kept_near: Dict[int, List[Point]] = {}
    for r in np.flatnonzero(state == 1).tolist() if undecided else ():
        for o in offsets:
            kept_near.setdefault(keys[r] + o, []).append(points[r])
    for r in undecided:
        p, k = points[r], keys[r]
        for q in kept_near.get(k, ()):
            if math.dist(p, q) <= radius:
                suppressed.append(r)
                break
        else:
            for o in offsets:
                kept_near.setdefault(k + o, []).append(p)
    kept = np.ones(len(table), dtype=bool)
    kept[rows[suppressed]] = False
    return table.take(kept)


# ---------------------------------------------------------------------------
# scene interchange

# A detection row and a ring vertex as canonical JSON text, each an item of
# a list written at the top level of a document.
_DETECTION_ROW = (
    '{\n    "class": %s,\n    "confidence": %r,\n    "id": %s,\n    "point": [\n      %r,\n      %r\n    ]\n  }'
)
_VERTEX = "[\n    %r,\n    %r\n  ]"


def _list_text(items: List[str]) -> str:
    """The text of a top-level list whose items are already written, as
    items of a top-level list."""
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def _raw_rows(template: str, rows: Iterable[tuple]) -> _RawJson:
    """A top-level list whose items are the texts ``template % row``, one
    per row."""
    return _RawJson(_list_text(list(map(template.__mod__, rows))))


def _detections_json(table: DetectionTable):
    """The scene's detection entries: one ``%`` template per row, straight
    from the columns, when every id is a string and every number a finite
    float64; otherwise the entries as objects for :func:`_json_text`, which
    writes them alike and raises on a non-finite number."""
    ids, numbers = table.ids.tolist(), (table.xs, table.ys, table.confidences)
    if set(map(type, ids)) <= {str} and all(c.dtype == np.float64 and np.isfinite(c).all() for c in numbers):
        names = [_encode_str(c.to_string()) for c in table.classes]
        rows = zip(map(names.__getitem__, table.codes.tolist()), table.confidences.tolist(),
                   map(_encode_str, ids), table.xs.tolist(), table.ys.tolist())
        return _raw_rows(_DETECTION_ROW, rows)
    names = [c.to_string() for c in table.classes]
    columns = (table.codes, table.xs, table.ys, table.confidences)
    return [
        {"id": did, "class": names[code], "point": [x, y], "confidence": confidence}
        for did, code, x, y, confidence in zip(ids, *(column.tolist() for column in columns))
    ]


def _ring_json(ring: Sequence[Point]):
    """A ring's ``[x, y]`` vertices: one ``%`` template for the ring when every
    coordinate is a finite float, otherwise lists for :func:`_json_text`."""
    flat = tuple(chain.from_iterable(ring))
    if flat and len(flat) == 2 * len(ring) and set(map(type, flat)) <= {float} and all(map(math.isfinite, flat)):
        return _RawJson(_list_text([_VERTEX] * len(ring)) % flat)
    return [[x, y] for x, y in ring]


def write_scene(scene: SectionScene) -> bytes:
    """Serialize a scene deterministically; see :func:`canonical_json_bytes`.
    Detection rows and ring vertices are written from templates, with the
    bytes the generic walk gives them."""
    doc = {
        "section_id": scene.section_id,
        "instances": [
            {
                "id": inst.id,
                "class": inst.cls.to_string(),
                "polygon": {
                    "exterior": _ring_json(inst.polygon.exterior),
                    "holes": [_ring_json(hole) for hole in inst.polygon.holes],
                },
                "properties": inst.properties,
            }
            for inst in scene.instances
        ],
        "detections": _detections_json(scene.detections),
        "metadata": scene.metadata,
    }
    return canonical_json_bytes(doc)


def scene_canvas(scene: SectionScene) -> Tuple[float, float, float, float]:
    """(min_x, min_y, max_x, max_y) working area of a scene.

    Uses ``metadata["canvas"]`` when present, otherwise the padded bounding
    box of all geometry and detection points; (0, 0, 100, 100) for an empty
    scene.  Either passes :func:`checked_canvas`, so a scene whose box has
    no finite width and height is a MalformedDocument naming ``canvas``.
    """
    canvas = scene.metadata.get("canvas")
    if canvas is not None:
        return checked_canvas(canvas, "metadata.canvas", MalformedDocument)
    bounds = [inst.polygon.bounds for inst in scene.instances]
    xs = np.concatenate(([b.min_x for b in bounds], [b.max_x for b in bounds], scene.detections.xs))
    ys = np.concatenate(([b.min_y for b in bounds], [b.max_y for b in bounds], scene.detections.ys))
    if not xs.size:
        return (0.0, 0.0, 100.0, 100.0)
    pad = 10.0
    box = (float(xs.min()) - pad, float(ys.min()) - pad, float(xs.max()) + pad, float(ys.max()) + pad)
    return checked_canvas(box, "canvas (the padded bounding box of the scene)", MalformedDocument)


def _scene_entry(entry, where: str, parse_class) -> Tuple[str, object]:
    """The id and class of one scene instance or detection entry."""
    if not isinstance(entry, dict) or "id" not in entry:
        raise MalformedDocument(f"{where}: expected an object with an 'id'")
    if not isinstance(entry["id"], str):
        raise MalformedDocument(f"{where}.id: expected a string, got {echo(entry['id'])}")
    label = entry.get("class")
    try:
        return entry["id"], parse_class(label if isinstance(label, str) else "")
    except ValueError:
        raise MalformedDocument(f"{where}.class: unknown class {echo(label)}") from None


def _scene_detections(entries: list) -> DetectionTable:
    """The table of a scene's detection entries, in one pass that names the
    first bad entry and field: a loop up to the first entry that
    :func:`_scene_entry` rejects (it sees only entries that are not objects
    with a string id and an already parsed class), then the number checks
    as columns (:func:`_point_numbers`); a repeated id ranks after its
    entry's own checks."""
    classes: Dict[str, CellClass] = {}
    ids, labels, pairs, confidences = [], [], [], []
    found = []  # (entry, check, error), the checks of one entry in the order they rank
    try:
        for i, entry in enumerate(entries):
            if not (type(entry) is dict and type(did := entry.get("id")) is str
                    and type(label := entry.get("class")) is str and label in classes):
                # raises, unless all the entry adds is a class not seen before
                did, classes[label] = _scene_entry(entry, f"detections[{i}]", CellClass.from_string)
            ids.append(did)
            labels.append(label)
            pairs.append(pt if type(pt := entry.get("point")) is list and len(pt) > 1 else (None, None))
            confidences.append(entry.get("confidence", 1.0))
    except MalformedDocument as exc:
        found.append((len(ids), 0, exc))
    if len(set(ids)) < len(ids):
        seen: Set[str] = set()
        k = next(k for k, did in enumerate(ids) if did in seen or seen.add(did))
        found.append((k, 2, MalformedDocument(f"duplicate detection id {echo(ids[k])}")))
    columns = _point_numbers(entries, pairs, confidences, "detections", "confidence", MalformedDocument, found)
    return DetectionTable.from_labels(ids, *columns, labels, classes.__getitem__)


def _scene_instance_entries(entries: list) -> Iterator[_Entry]:
    """The entries of a scene's instances; the rings of each are its
    exterior, then its holes."""
    for i, entry in enumerate(entries):
        where = f"instances[{i}]"
        iid, cls = _scene_entry(entry, where, StructureClass.from_string)
        polygon, properties = entry.get("polygon"), entry.get("properties", {})
        if not (isinstance(polygon, dict) and isinstance(polygon.get("holes", []), list)):
            raise MalformedDocument(f"{where}.polygon: expected an object with 'exterior' and 'holes'")
        if not isinstance(properties, dict):
            raise MalformedDocument(f"{where}.properties: expected an object")
        yield iid, cls, [polygon.get("exterior"), *polygon.get("holes", [])], properties


def read_scene(data: bytes) -> SectionScene:
    doc = load_json_bytes(data)
    if not isinstance(doc, dict):
        raise MalformedDocument("scene document is not an object")
    for key in ("section_id", "instances", "detections"):
        if key not in doc:
            raise MalformedDocument(f"scene document missing {key!r}")
    if not isinstance(doc["instances"], list) or not isinstance(doc["detections"], list):
        raise MalformedDocument("scene instances/detections must be arrays")
    if not isinstance(doc["section_id"], str):
        raise MalformedDocument(f"section_id: expected a string, got {echo(doc['section_id'])}")
    instances = _instances(*_checked(_scene_instance_entries(doc["instances"]), "instance"))
    detections = _scene_detections(doc["detections"])
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MalformedDocument("scene metadata must be an object")
    if "canvas" in metadata:
        checked_canvas(metadata["canvas"], "metadata.canvas", MalformedDocument)
    return SectionScene(
        section_id=doc["section_id"],
        instances=instances,
        detections=detections,
        metadata=metadata,
    )
