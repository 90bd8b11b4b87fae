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

A document's rings are checked together.  One gather pass reads each
feature or scene instance (id, class, geometry shape), then one columnar
pass (:func:`_ring_columns`) checks every ring at once with array
operations: vertex shape and number types, finite coordinates, consecutive
duplicates and the closing vertex, 3 distinct vertices, and non-zero area
(the float shoelace sum in vertex order, decided by
:func:`~banffscore.geometry.ring_area` wherever one vector sum cannot vouch
for it), and leaves one edge table of the cleaned rings.  On that table,
one batched sweep over the edges of every ring decides self-intersection
(:func:`_first_self_intersecting_ring`), two edges whose closed bounding
boxes are disjoint never counting as meeting, and one call checks every
hole (:func:`_first_bad_hole`).  If any of these rejects the document, it
is read again one entry and one ring at a time (:func:`_clean_ring`, and
the hole call on each polygon's own table), which only finds and raises
the first defect in document order; the sweep runs over the rings read so
far before any later error propagates, so the error is the one a reader
that checked each ring as it read it would raise.

Detections: ``{"points": [{"name": str, "point": [x, y],
"probability": float}, ...]}``; ``probability`` is optional and defaults
to 1.0.

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
from contextlib import contextmanager, suppress
from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

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
from .geometry import (
    _BLOCK_PAIRS,
    Point,
    Polygon,
    SpatialIndex,
    _contains,
    _EdgeTable,
    _nonzero_areas,
    contained_pairs,
    orient,
    ring_area,
)
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

# (cleaned ring, owner) pairs of one document, in document order
_CleanedRings = List[Tuple[Tuple[Point, ...], str]]

# A document's instances before their rings are checked: (id, class, raw
# rings with the exterior first, properties).
_Entry = Tuple[str, StructureClass, object, dict]

# A ring and a vertex are JSON arrays (lists), or tuples in a generated scene.
_ARRAYS = {list, tuple}


def _within(lo_x, hi_x, lo_y, hi_y, px, py):
    return (lo_x <= px) & (px <= hi_x) & (lo_y <= py) & (py <= hi_y)


def _first_self_intersecting_ring(edges: _EdgeTable) -> int:
    """Index of the first ring of ``edges`` that touches or crosses itself, or -1.

    Every ring must already be clean (at least 3 vertices, no repeated
    consecutive vertex, implicitly closed).  Adjacent edges share a vertex
    and are rejected only for a zero-width spike through it (collinear and
    pointing back).  Any other pair of edges is rejected when the closed
    segments meet, decided by :func:`~banffscore.geometry.orient` on the
    lower-numbered edge first; pairs whose closed bounding boxes are
    disjoint never meet, and only the others are tested.
    They are found by a sweep over the edges sorted by ring, then by
    ``lo_x``: an edge's candidates are the later edges of its ring whose
    ``lo_x`` is at most its ``hi_x``, generated ``_BLOCK_PAIRS`` at a time.
    """
    n_rings = edges.ring_size.size
    if not n_rings:
        return -1
    x, y, x2, y2, nxt = edges.x1, edges.y1, edges.x2, edges.y2, edges.nxt
    nv = x.size
    ring = np.repeat(np.arange(n_rings), edges.ring_size)
    vertex = np.arange(nv)
    prev = np.empty_like(nxt)
    prev[nxt] = vertex
    # The spike at vertex 0 is tested as (v1, v0, v[n-1]), every other one
    # as (v[k-1], v[k], v[k+1]).
    at_start = vertex == edges.ring_start[ring]
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


class _RingColumns(NamedTuple):
    """Cleaned rings: their table, and ring ``r`` of it as vertex tuples at ``rings[r]``."""

    edges: _EdgeTable
    rings: List[Tuple[Point, ...]]


def _ring_columns(rings: list, n_rings: np.ndarray) -> Optional[_RingColumns]:
    """The rings as :func:`_clean_ring` cleans them, for polygons of
    ``n_rings[k]`` rings each, in one columnar pass, or None if
    :func:`_clean_ring` might reject one of them.

    1. Every ring and vertex is an array, every vertex has at least 2 items
       and only its first two are read, and each of those is an int or a
       float, never a bool.
    2. ``np.array`` converts the coordinates as ``float()`` does; an int
       beyond the float range raises OverflowError there, which rejects.
    3. Every coordinate is finite.  A vertex equal to the one before it in
       its ring is dropped, then a last vertex equal to the first, and every
       ring keeps at least 3 vertices.
    4. No ring has zero area by :func:`ring_area`: one vector sum vouches
       for most rings (:func:`~banffscore.geometry._nonzero_areas`), and
       :func:`ring_area` itself decides the rest.
    """
    if not set(map(type, rings)) <= _ARRAYS or min(map(len, rings), default=3) < 3:
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
    if not set(map(type, flat)) <= {float, int}:
        return None
    try:
        xy = np.array(flat, dtype=np.float64).reshape(-1, 2)
    except OverflowError:
        return None
    if not np.isfinite(xy).all():
        return None
    raw = _EdgeTable(xy, np.fromiter(map(len, rings), dtype=np.intp, count=len(rings)), n_rings)
    x, y, start = raw.x1, raw.y1, raw.ring_start
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    keep[start] = True
    kept = np.add.reduceat(keep, start, dtype=np.intp)
    last = np.flatnonzero(keep)[np.cumsum(kept) - 1]
    closed = (kept > 1) & (x[last] == x[start]) & (y[last] == y[start])
    keep[last[closed]] = False
    sizes = kept - closed
    if (sizes < 3).any():
        return None
    edges = _EdgeTable(xy[keep], sizes, n_rings)
    points = list(zip(edges.x1.tolist(), edges.y1.tolist()))
    cleaned = [tuple(points[a:a + n]) for a, n in zip(edges.ring_start.tolist(), sizes.tolist())]
    unsure = np.flatnonzero(~_nonzero_areas(edges)).tolist()
    if any(ring_area(cleaned[r]) == 0.0 for r in unsure):
        return None
    return _RingColumns(edges, cleaned)


def _reject_self_intersecting(cleaned: _CleanedRings) -> None:
    bad = _first_self_intersecting_ring(_EdgeTable.of([Polygon(exterior=ring) for ring, _ in cleaned]))
    if bad >= 0:
        raise DegenerateGeometry(f"{cleaned[bad][1]}: self-intersecting ring")


@contextmanager
def _self_intersection_sweep() -> Iterator[_CleanedRings]:
    """Yield a list for the (ring, owner) pairs cleaned in one document and
    reject its first self-intersecting ring when the block ends.

    If the block raises a package error, the rings cleaned before it are
    checked first: a self-intersection earlier in document order wins, as
    it would if each ring were checked as soon as it was cleaned.
    """
    cleaned: _CleanedRings = []
    try:
        yield cleaned
    except BanffScoreError:
        _reject_self_intersecting(cleaned)
        raise
    _reject_self_intersecting(cleaned)


def _clean_ring(coords, owner: str) -> Tuple[Point, ...]:
    if not isinstance(coords, (list, tuple)):
        raise MalformedDocument(f"{owner}: ring is not a coordinate array")
    pts: List[Point] = []
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


def _polygon_from_coords(coords, owner: str, cleaned: _CleanedRings) -> Polygon:
    """Polygon from GeoJSON-style rings; each cleaned ring is appended to
    ``cleaned`` for the document's self-intersection sweep."""
    if not isinstance(coords, (list, tuple)) or not coords:
        raise MalformedDocument(f"{owner}: polygon has no rings")
    rings = []
    for ring in coords:
        rings.append(_clean_ring(ring, owner))
        cleaned.append((rings[-1], owner))
    polygon = Polygon(exterior=rings[0], holes=tuple(rings[1:]))
    bad = _first_bad_hole(_EdgeTable.of([polygon]), [polygon])
    if bad is not None:
        raise DegenerateGeometry(f"{owner}: {bad[1]}")
    return polygon


def _first_bad_hole(edges: _EdgeTable, polygons: Sequence[Polygon]) -> Optional[Tuple[int, str]]:
    """The first hole of ``polygons`` (whose table is ``edges``) that is not
    inside its exterior ring or whose first vertex another hole of its
    polygon holds, as its ring in ``edges`` and the error message; None if
    there is none.  First is as a loop over each polygon's holes finds it:
    lowest hole, its "not inside" check first, then the lowest other hole.
    One kernel call tests the hole vertices in their exterior's bbox, on a
    table in which each ring is its own polygon; only polygons with two or
    more holes put them in an index, which tests their first vertices."""
    if not edges.is_hole.any():
        return None
    ring = np.repeat(np.arange(edges.ring_size.size), edges.ring_size)
    polygon = np.repeat(np.arange(edges.n_rings.size), edges.n_rings)
    v = np.flatnonzero(edges.is_hole[ring])
    exterior, x, y = edges.first_ring[polygon[ring[v]]], edges.x1[v], edges.y1[v]
    box = edges.boxes[exterior]
    near = _within(box[:, 0], box[:, 2], box[:, 1], box[:, 3], x, y)
    inside = ~edges.is_hole[ring]
    each_ring = _EdgeTable(edges.xy, edges.ring_size, np.ones_like(edges.ring_size))
    inside[v[near]] = _contains(each_ring, x[near], y[near], exterior[near])
    outside = np.flatnonzero(~np.logical_and.reduceat(inside, edges.ring_start))
    bad = [(int(r), 0, 0) for r in outside[:1]]
    nests = np.flatnonzero(edges.is_hole & (edges.n_rings[polygon] > 2))
    if nests.size:
        index = SpatialIndex(nests, [Polygon(exterior=hole) for p in polygons if len(p.holes) > 1 for hole in p.holes])
        first = edges.ring_start[nests]
        h, other = (nests[k] for k in contained_pairs(index, edges.x1[first], edges.y1[first]))
        pair = (h != other) & (polygon[h] == polygon[other])
        bad += [(int(a), 1, int(b)) for a, b in zip(h[pair][:1], other[pair][:1])]
    if not bad:
        return None
    r, nested, o = min(bad)
    base = int(edges.first_ring[polygon[r]]) + 1  # the ring of the polygon's hole 0
    if nested:
        return r, f"holes {o - base} and {r - base} are nested"
    return r, f"hole {r - base} is not inside the exterior ring"


def _polygons(entries: List[_Entry]) -> Optional[List[Polygon]]:
    """The polygons of the entries, or None if an entry might be rejected:
    one columnar pass over every ring (:func:`_ring_columns`), one sweep,
    one hole check (:func:`_first_bad_hole`), and unique ids."""
    ids = [iid for iid, _, _, _ in entries]
    ring_lists = [rings for _, _, rings, _ in entries]
    if len(set(ids)) < len(ids) or not (set(map(type, ring_lists)) <= _ARRAYS and all(ring_lists)):
        return None
    n_rings = np.fromiter(map(len, ring_lists), dtype=np.intp, count=len(ring_lists))
    columns = _ring_columns(list(chain.from_iterable(ring_lists)), n_rings)
    if columns is None or _first_self_intersecting_ring(columns.edges) >= 0:
        return None
    rings = iter(columns.rings)
    polygons = [Polygon(exterior=next(rings), holes=tuple(islice(rings, n - 1))) for n in n_rings.tolist()]
    return None if _first_bad_hole(columns.edges, polygons) else polygons


def _instances(entries: Callable[[], Iterator[_Entry]], kind: str) -> List[Instance]:
    """The instances of a document's entries, which ``entries()`` yields in
    document order, raising a package error at an entry that is malformed
    apart from its rings; ``kind`` names an entry in an error.

    Every ring is checked at once (:func:`_polygons`).  When any check
    rejects the document, its entries are read again and checked one by one
    in document order, each ring by :func:`_clean_ring`, so the error raised
    is the document's first.
    """
    try:
        listed = list(entries())
    except BanffScoreError:
        listed = None
    polygons = None if listed is None else _polygons(listed)
    if polygons is None:
        seen: Set[str] = set()
        with _self_intersection_sweep() as cleaned:
            for iid, _, rings, _ in entries():
                _polygon_from_coords(rings, f"{kind} {echo_id(iid)}", cleaned)
                if iid in seen:
                    raise MalformedDocument(f"duplicate instance id {echo(iid)}")
                seen.add(iid)
        raise AssertionError(f"a {kind} failed a column check but no per-ring check")
    return [
        Instance(id=iid, cls=cls, polygon=polygon, properties=dict(props))
        for (iid, cls, _, props), polygon in zip(listed, polygons)
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
    """The entries of the features, one per member polygon."""
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
        cls = StructureClass.from_label(label, aliases)
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
    return _instances(lambda: _feature_entries(features, aliases), "feature")


# ---------------------------------------------------------------------------
# detections (JSON point lists)

def _check_point(entry: dict, where: str, confidence_key: str, error: type) -> None:
    """Check the ``point`` and confidence of one detection entry, alike in
    detection and scene files; ``where`` names the entry."""
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


def _check_entry(entry, where: str) -> None:
    """One detection entry's checks, in the order their errors take
    precedence: an object, then ``name``, then ``point`` and ``probability``."""
    if not isinstance(entry, dict):
        raise SchemaViolation(f"{where}: not an object")
    if not isinstance(entry.get("name"), str):
        raise SchemaViolation(f"{where}: missing or non-string 'name'")
    _check_point(entry, where, "probability", SchemaViolation)


def _number_column(values: list) -> Optional[np.ndarray]:
    """``values`` as float64 by :func:`as_number`, or None if one is not a number.
    Ints and floats convert at once, as ``float()`` converts them; other
    types and an int beyond the float range go through :func:`as_number`."""
    if set(map(type, values)) <= {float, int}:
        with suppress(OverflowError):
            return np.array(values, dtype=np.float64)
    column = list(map(as_number, values))
    return None if None in column else np.array(column, dtype=np.float64)


def _point_columns(points: list, label_key: str, confidence_key: str):
    """(xs, ys, confidences, labels) of the entries, or None if any entry has
    no string ``label_key`` or fails :func:`_check_point`; the same checks,
    a column at a time (a JSON array is a ``list``, an object a ``dict``)."""
    if not set(map(type, points)) <= {dict}:
        return None
    labels = [e.get(label_key) for e in points]
    coords = [e.get("point") for e in points]
    if not set(map(type, labels)) <= {str} or not set(map(type, coords)) <= {list}:
        return None
    if points and min(map(len, coords)) < 2:
        return None
    xs = _number_column([p[0] for p in coords])
    ys = _number_column([p[1] for p in coords])
    probs = _number_column([e.get(confidence_key, 1.0) for e in points])
    if xs is None or ys is None or probs is None:
        return None
    if not (np.isfinite(xs).all() and np.isfinite(ys).all() and ((probs >= 0.0) & (probs <= 1.0)).all()):
        return None
    return xs, ys, probs, labels


def parse_detections(
    data: bytes,
    min_confidence: float = 0.5,
    classes: Optional[Iterable] = KNOWN_CELL_KINDS,
    aliases: Optional[Dict[str, str]] = None,
) -> DetectionTable:
    """Parse detector output, keeping points with class in ``classes`` and
    confidence >= ``min_confidence``.  ``classes=None`` keeps every class.
    Ids are ``d<i>`` over the document order, stable under filtering.

    Every entry is checked as a column at once; when a check fails, the
    entries are checked one by one in document order, so the error names
    the first bad entry and its first bad field.
    """
    doc = load_json_bytes(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise MalformedDocument('expected an object with a "points" array')
    points = doc["points"]
    columns = _point_columns(points, "name", "probability")
    if columns is None:
        for i, entry in enumerate(points):
            _check_entry(entry, f"points[{i}]")
        raise AssertionError("a detection entry failed a column check but no entry check")
    ids = [f"d{i}" for i in range(len(points))]
    table = DetectionTable.from_labels(ids, *columns, lambda s: CellClass.from_label(s, aliases))
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


def _maybe_close(table: DetectionTable, key: np.ndarray, step: int, radius: float) -> np.ndarray:
    """Mask of the rows that may have a same-kind row within ``radius``.

    A row outside the mask has none.  The mask holds every row that shares
    its cell, and every row alone in its cell that has a row of a
    neighbouring cell with ``|dx|, |dy| <= nextafter(radius, inf)``, which
    no pair within ``radius`` fails and which squares nothing.  Each cell
    has eight neighbours, so at most ``8 * len(table)`` pairs are compared,
    whatever the radius.
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    cells, size = sorted_key[starts], np.diff(starts, append=key.size)
    maybe = np.zeros(key.size, dtype=bool)
    maybe[order[np.repeat(size > 1, size)]] = True
    lone = starts[size == 1]
    reach = np.nextafter(radius, math.inf)
    for offset in (-step - 1, -step, -step + 1, -1, 1, step - 1, step, step + 1):
        # the queries are sorted, which makes searchsorted several times faster
        c = np.minimum(np.searchsorted(cells, sorted_key[lone] + offset), cells.size - 1)
        n = np.where(cells[c] == sorted_key[lone] + offset, size[c], 0)
        i = order[np.repeat(lone, n)]
        j = order[np.repeat(starts[c] - np.cumsum(n) + n, n) + np.arange(i.size)]
        with np.errstate(over="ignore"):
            near = (np.abs(table.xs[i] - table.xs[j]) <= reach) & (np.abs(table.ys[i] - table.ys[j]) <= reach)
        maybe[i[near]] = True
    return maybe


def dedup_detections(detections: Sequence[Detection], radius: float) -> DetectionTable:
    """Greedy same-class suppression, highest confidence first (id breaks ties).

    A detection is kept iff no already-kept detection of the same class
    kind lies within Euclidean distance <= radius (``math.dist``).  Radius
    0 suppresses only exact same-class coordinate duplicates.  Output
    preserves input order.

    Detections with no same-kind detection near them (:func:`_maybe_close`)
    are kept as they are.  The rest are visited by confidence descending,
    then id string, and each is compared only with the kept detections of
    the 3x3 cells around its own (:func:`_cell_keys`).  Kept detections of
    one kind are more than ``radius`` apart, so a cell of side ``radius``
    holds at most four of them (a cell at radius 0, one) and a visit costs
    at most 36 distances, whatever the radius.  The sparse case, in which
    few detections have a same-kind neighbour within ``radius``, visits
    only those few.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table = DetectionTable.from_rows(detections)
    key, step = _cell_keys(table, radius)
    rank = list(zip((-table.confidences).tolist(), table.ids.tolist()))
    xs, ys, keys = table.xs.tolist(), table.ys.tolist(), key.tolist()
    offsets = [ox * step + oy for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
    # cell key -> the kept points of the 3x3 cells around that cell
    kept_near: Dict[int, List[Point]] = {}
    kept = np.ones(len(table), dtype=bool)
    rows = np.flatnonzero(_maybe_close(table, key, step, radius)).tolist()
    for r in sorted(rows, key=rank.__getitem__):
        p, k = (xs[r], ys[r]), keys[r]
        for q in kept_near.get(k, ()):
            if math.dist(p, q) <= radius:
                kept[r] = False
                break
        else:
            for o in offsets:
                kept_near.setdefault(k + o, []).append(p)
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
        return _RawJson(_list_text(list(map(_DETECTION_ROW.__mod__, rows))))
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
    """The table of a scene's detection entries, checked as columns; when a
    check fails, the entries are checked one by one in document order, so
    the error names the first bad entry and its first bad field."""
    columns = _point_columns(entries, "class", "confidence")
    ids = [e.get("id") if isinstance(e, dict) else None for e in entries]
    if columns is not None and set(map(type, ids)) <= {str} and len(set(ids)) == len(ids):
        with suppress(ValueError):  # an unknown class
            return DetectionTable.from_labels(ids, *columns, CellClass.from_string)
    seen: Set[str] = set()
    for i, entry in enumerate(entries):
        where = f"detections[{i}]"
        did, _ = _scene_entry(entry, where, CellClass.from_string)
        _check_point(entry, where, "confidence", MalformedDocument)
        if did in seen:
            raise MalformedDocument(f"duplicate detection id {echo(did)}")
        seen.add(did)
    raise AssertionError("a scene detection failed a column check but no entry check")


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
    instances = _instances(lambda: _scene_instance_entries(doc["instances"]), "instance")
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
