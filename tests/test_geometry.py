"""Geometry: areas, containment semantics, index completeness, assignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banffscore import geometry
from banffscore.errors import DegenerateGeometry, IndexMismatch
from banffscore.geometry import (
    AssignmentTable,
    Polygon,
    SpatialIndex,
    assign_detections,
    build_index,
    _EdgeTable,
    _nonzero_areas,
    contained_pairs,
    orient,
    ring_area,
)
from banffscore.model import GLOMERULUS

from conftest import (
    UNIT_SQUARE,
    mk_detection,
    mk_instance,
    random_assignment_scene,
    random_polygon,
    square,
    star_ring,
)
from oracles import (
    brute_assign_table,
    brute_bbox_hits,
    brute_members,
    naive_point_in_polygon,
    package_contains,
    per_instance_assign,
    trapezoid_ring_area,
)

CENTERED_HOLE = ((0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75))


class TestPolygonArea:
    """Ring areas, and the zero-area rings the containment gate rejects."""

    def test_unit_square(self):
        assert ring_area(UNIT_SQUARE) == 1.0

    def test_random_20_gons_match_independent_area(self, rng):
        for _ in range(50):
            ring = star_ring(rng, rng.uniform(-50, 50), rng.uniform(-50, 50), 5.0, 40.0, 20)
            expected = trapezoid_ring_area(ring)
            assert ring_area(ring) == pytest.approx(expected, rel=1e-9)

    def test_two_vertex_ring_rejected(self):
        with pytest.raises(DegenerateGeometry, match="^ring has 2 vertices, need at least 3$"):
            ring_area(((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(DegenerateGeometry, match="^ring has 2 vertices, need at least 3$"):
            package_contains(Polygon(exterior=((0.0, 0.0), (1.0, 0.0))), [(0.5, 0.0)])

    def test_zero_area_ring_rejected(self):
        ring = ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))
        assert ring_area(ring) == 0.0
        with pytest.raises(DegenerateGeometry, match="^exterior ring has zero area$"):
            package_contains(Polygon(exterior=ring), [(1.0, 1.0)])

    def test_zero_area_decided_exactly_when_the_float_sum_overflows(self):
        assert ring_area(((1e200, 1e200), (2e200, 2e200), (3e200, 3e200))) == 0.0
        # the products overflow, the area does not
        c, leg = 2.0**520, 2.0**468
        assert ring_area(((c, c), (c + leg, c), (c, c + leg))) == 2.0**935
        assert ring_area(((-1e308, -1e308), (1e308, -1e308), (1e308, 1e308))) == math.inf
        assert ring_area(square(0.0, 0.0, 1e308)) == math.inf
        assert ring_area(square(0.0, 0.0, 7e153)) == math.inf
        with pytest.raises(DegenerateGeometry, match="^exterior ring has zero area$"):
            package_contains(Polygon(exterior=((1e200, 1e200), (2e200, 2e200), (3e200, 3e200))), [(2e200, 2e200)])

    def test_zero_area_hole_rejected(self):
        poly = Polygon(exterior=UNIT_SQUARE, holes=(((0.2, 0.2), (0.4, 0.4), (0.6, 0.6)),))
        with pytest.raises(DegenerateGeometry, match="^hole ring has zero area$"):
            package_contains(poly, [(0.9, 0.1)])

    def test_gate_decides_on_the_float64_vertices(self):
        # as ints the area is 0.5, but 2**53 + 1 rounds to 2**53, so the
        # float64 ring the kernel tests repeats a vertex and has no area
        ring = ((0, 0), (2**53 + 1, 1), (2**53, 1))
        assert ring_area(ring) == 0.5
        assert ring_area([(float(x), float(y)) for x, y in ring]) == 0.0
        with pytest.raises(DegenerateGeometry, match="^exterior ring has zero area$"):
            package_contains(Polygon(exterior=ring), [(0, 0)])


BAND_COORDS = st.one_of(
    st.integers(-3000, 3000).map(lambda k: k / 1000),
    st.integers(-5, 5),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1e154, 1e200, -1e308, 1e308]),
)


class TestNonzeroAreaBand:
    """The vector test vouches for a ring only where :func:`ring_area`
    gives it a non-zero area, and does so for ordinary rings."""

    @given(st.lists(st.lists(st.tuples(BAND_COORDS, BAND_COORDS), min_size=1, max_size=7), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_never_vouches_for_a_zero_area(self, rings):
        sure = _nonzero_areas(_EdgeTable.of([Polygon(exterior=tuple(ring)) for ring in rings]))
        for ring, vouched in zip(rings, sure.tolist()):
            if vouched:
                assert ring_area(ring) != 0.0

    def test_vouches_for_ordinary_rings(self, rng):
        rings = [star_ring(rng, rng.uniform(-50, 50), rng.uniform(-50, 50), 5.0, 40.0, 20) for _ in range(20)]
        edges = _EdgeTable.of([Polygon(exterior=ring, holes=(square(0.0, 0.0, 1.0),)) for ring in rings])
        assert edges.unsure.size == 0

    def test_polygons_in_the_band_alone_compute_their_area(self, monkeypatch):
        sliver = Polygon(exterior=((0.0, 0.0), (1.0, 0.0), (0.0, 5e-324)))  # its sum 5e-324 halves to 0.0
        good = [Polygon(exterior=square(3.0 * k, 0.0, 1.0)) for k in range(3)]
        polygons = good + [sliver]
        computed = []
        area = geometry.ring_area
        monkeypatch.setattr(geometry, "ring_area", lambda ring: computed.append(ring) or area(ring))
        index = build_index([mk_instance(f"p{k}", GLOMERULUS, p.exterior) for k, p in enumerate(polygons)])
        xs, ys = np.array([0.0, 3.0, 6.0]), np.array([0.5, 0.5, 0.5])
        pt, k = contained_pairs(index, xs, ys)
        assert (pt.tolist(), k.tolist(), computed) == ([0, 1, 2], [0, 1, 2], [])
        with pytest.raises(DegenerateGeometry, match="exterior ring has zero area"):
            contained_pairs(index, np.array([0.1]), np.array([0.0]))
        assert computed == [[list(v) for v in sliver.exterior]]


def test_orient_gives_the_exact_sign_where_the_float_value_is_not_finite():
    big = 1e308
    # collinear (inf - inf), left of a->b (inf - inf), right of it (inf * 0), and a finite row
    ax, ay = np.array([-big, -big, -big, 0.0]), np.array([-big, -big, -big, 0.0])
    bx, by = np.array([big, big, big, 1.0]), np.array([big, big, big, 0.1])
    cx, cy = np.array([0.0, 0.0, 0.0, 0.3]), np.array([0.0, big, -big, 0.7])
    d = orient(ax, ay, bx, by, cx, cy)
    assert d.tolist() == [0.0, 1.0, -1.0, (1.0 - 0.0) * (0.7 - 0.0) - (0.1 - 0.0) * (0.3 - 0.0)]


class TestPointInPolygon:
    def test_interior_point(self):
        assert package_contains(Polygon(exterior=UNIT_SQUARE), [(0.5, 0.5)]).tolist() == [True]

    def test_point_inside_hole_is_outside(self):
        poly = Polygon(exterior=UNIT_SQUARE, holes=(square(0.5, 0.5, 0.1),))
        assert package_contains(poly, [(0.5, 0.5)]).tolist() == [False]

    def test_point_on_edge_counts_as_inside(self):
        assert package_contains(Polygon(exterior=UNIT_SQUARE), [(1.0, 0.5)]).tolist() == [True]

    def test_point_on_vertex_counts_as_inside(self):
        assert package_contains(Polygon(exterior=UNIT_SQUARE), [(0.0, 0.0)]).tolist() == [True]

    def test_point_on_hole_boundary_counts_as_inside(self):
        poly = Polygon(exterior=UNIT_SQUARE, holes=(CENTERED_HOLE,))
        assert package_contains(poly, [(0.25, 0.5)]).tolist() == [True]

    def test_point_outside(self):
        assert package_contains(Polygon(exterior=UNIT_SQUARE), [(1.5, 0.5)]).tolist() == [False]

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(DegenerateGeometry):
            package_contains(Polygon(exterior=((0.0, 0.0), (1.0, 0.0))), [(0.0, 0.0)])

    def test_deterministic(self, rng):
        poly = random_polygon(rng, 0.0, 0.0, 10.0, 30.0)
        p = (rng.uniform(-35, 35), rng.uniform(-35, 35))
        first = package_contains(poly, [p]).tolist()
        assert all(package_contains(poly, [p]).tolist() == first for _ in range(5))

    def test_matches_naive_oracle_on_random_scenes(self, rng):
        """10^4 random points against 50 random polygons, pairwise, exact."""
        polys = [
            random_polygon(rng, rng.uniform(300, 3800), rng.uniform(300, 3800), 40.0, 220.0)
            for _ in range(50)
        ]
        points = rng.uniform(0.0, 4096.0, size=(10_000, 2))
        for poly in polys:
            got = package_contains(poly, points)
            expected = np.fromiter(
                (naive_point_in_polygon((x, y), poly.exterior, poly.holes) for x, y in points),
                dtype=bool,
                count=len(points),
            )
            assert np.array_equal(got, expected)

    def test_large_ring_with_hole_matches_naive_oracle_across_blocks(self, rng):
        exterior = star_ring(rng, 0.0, 0.0, 400.0, 500.0, 1200)
        hole = star_ring(rng, 0.0, 0.0, 100.0, 250.0, 200)
        poly = Polygon(exterior=exterior, holes=(hole,))
        block = geometry._BLOCK_PAIRS // len(exterior)
        random_pts = rng.uniform(-520.0, 520.0, size=(500, 2))
        # every seventh vertex of both rings: boundary points must count as inside
        pts = np.concatenate([random_pts, np.array(exterior[::7]), np.array(hole[::7])])
        assert len(pts) > block and len(pts) % block != 0
        expected = np.array([naive_point_in_polygon(p, exterior, (hole,)) for p in pts])
        assert np.array_equal(package_contains(poly, pts), expected)
        assert np.array_equal(np.array([package_contains(poly, [p])[0] for p in pts]), expected)
        assert expected[len(random_pts) :].all()
        assert 0 < expected[: len(random_pts)].sum() < len(random_pts)


@st.composite
def integer_boxes(draw):
    x0 = draw(st.integers(-500, 499))
    y0 = draw(st.integers(-500, 499))
    w = draw(st.integers(1, 500))
    h = draw(st.integers(1, 500))
    return (
        (float(x0), float(y0)),
        (float(x0 + w), float(y0)),
        (float(x0 + w), float(y0 + h)),
        (float(x0), float(y0 + h)),
    )


@st.composite
def integer_diamonds(draw):
    cx = draw(st.integers(-500, 500))
    cy = draw(st.integers(-500, 500))
    a = draw(st.integers(1, 400))
    b = draw(st.integers(1, 400))
    return (
        (float(cx + a), float(cy)),
        (float(cx), float(cy + b)),
        (float(cx - a), float(cy)),
        (float(cx), float(cy - b)),
    )


class TestBoundaryInclusionProperty:
    @given(ring=st.one_of(integer_boxes(), integer_diamonds()))
    @settings(max_examples=200, deadline=None)
    def test_vertices_and_edge_midpoints_are_inside(self, ring):
        poly = Polygon(exterior=ring)
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            assert package_contains(poly, [(x1, y1), ((x1 + x2) / 2.0, (y1 + y2) / 2.0)]).all()


def bbox_hits_by_point(index, xs, ys):
    """``index.pairs`` as a set of instance ids per point position."""
    hits = [set() for _ in range(len(xs))]
    pt, inst = index.pairs(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
    for j, k in zip(pt.tolist(), inst.tolist()):
        hits[j].add(index.ids[k])
    return hits


BOX_RINGS = st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=3, max_size=8)


@st.composite
def library_polygons(draw):
    """Polygons as a library caller may build them: rings unchecked, holes
    free to reach past the exterior, and, with ``shift``, every coordinate
    positive."""
    shift = draw(st.sampled_from((0.0, 2e6)))
    exterior, *holes = draw(st.lists(BOX_RINGS, min_size=1, max_size=3))

    def ring(r):
        return tuple((x + shift, y + shift) for x, y in r)

    return Polygon(exterior=ring(exterior), holes=tuple(map(ring, holes)))


class TestIndexBoxes:
    """The index takes each polygon's box from the columns of its exterior
    ring, and that box is :attr:`Polygon.bounds`."""

    @given(st.lists(library_polygons(), max_size=6))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example([])  # the empty index
    @example([Polygon(exterior=((1.0, 2.0), (5.0, 2.0), (3.0, 7.0)))])  # one polygon, all positive
    @example([  # the last polygon's hole reaches past its exterior
        Polygon(exterior=((1.0, 1.0), (2.0, 1.0), (2.0, 2.0))),
        Polygon(exterior=((3.0, 3.0), (4.0, 3.0), (4.0, 4.0)), holes=(((0.5, 0.5), (9.0, 0.5), (9.0, 9.0)),)),
    ])
    def test_box_is_the_exterior_bounds(self, polygons):
        index = SpatialIndex([f"p{k}" for k in range(len(polygons))], _EdgeTable.of(polygons))
        assert index._boxes.shape == (len(polygons), 4)
        assert index._boxes.tolist() == [list(poly.bounds) for poly in polygons]

    def test_ids_and_polygons_must_pair_up(self):
        with pytest.raises(IndexMismatch, match="2 ids for 1 polygons"):
            SpatialIndex(["a", "b"], _EdgeTable.of([Polygon(exterior=UNIT_SQUARE)]))


class TestSpatialIndex:
    def test_empty_index_returns_nothing(self):
        index = build_index([])
        pt, inst = index.pairs(np.array([0.0, 5.0]), np.array([0.0, -3.0]))
        assert pt.size == 0 and inst.size == 0

    def test_single_instance_bbox_hit(self):
        inst = mk_instance("a", GLOMERULUS, UNIT_SQUARE)
        index = build_index([inst])
        pt, pos = index.pairs(np.array([0.5, 2.0]), np.array([0.5, 2.0]))
        assert pt.tolist() == [0] and pos.tolist() == [0]

    def test_pairs_equal_bbox_scan(self):
        instances, detections = random_assignment_scene(seed=404, n_instances=1000, n_detections=0)
        index = build_index(instances)
        rng = np.random.default_rng(405)
        points = rng.uniform(0.0, 4096.0, size=(10_000, 2))
        brute = brute_bbox_hits(instances, points[:, 0], points[:, 1])
        assert bbox_hits_by_point(index, points[:, 0], points[:, 1]) == brute

    @settings(max_examples=80, deadline=None)
    @given(
        boxes=st.lists(
            st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 30), st.integers(1, 30)),
            min_size=1,
            max_size=20,
        ),
        picks=st.lists(
            st.tuples(st.integers(0, 999), st.integers(0, 999), st.sampled_from((-1, 0, 1)),
                      st.sampled_from((-1, 0, 1))),
            max_size=60,
        ),
    )
    def test_pairs_exact_on_bbox_and_grid_cell_edges(self, boxes, picks):
        # Coordinates are multiples of 0.3, so box and cell edges fall between
        # representable grid steps; picks land exactly on a box or grid cell
        # edge, or one float step to either side of it.
        instances = [
            mk_instance(f"b{k}", GLOMERULUS, [(x * 0.3, y * 0.3), ((x + w) * 0.3, y * 0.3),
                                             ((x + w) * 0.3, (y + h) * 0.3), (x * 0.3, (y + h) * 0.3)])
            for k, (x, y, w, h) in enumerate(boxes)
        ]
        index = build_index(instances)
        b = index._bounds
        xs = sorted({v for i in instances for v in (i.polygon.bounds.min_x, i.polygon.bounds.max_x)}
                    | {b.min_x + k * index._cell_w for k in range(index._side + 1)})
        ys = sorted({v for i in instances for v in (i.polygon.bounds.min_y, i.polygon.bounds.max_y)}
                    | {b.min_y + k * index._cell_h for k in range(index._side + 1)})
        points = [(bb.min_x, bb.min_y) for bb in (i.polygon.bounds for i in instances)]
        points += [(bb.max_x, bb.max_y) for bb in (i.polygon.bounds for i in instances)]
        for ix, iy, sx, sy in picks:
            x = float(np.nextafter(xs[ix % len(xs)], sx * np.inf)) if sx else xs[ix % len(xs)]
            y = float(np.nextafter(ys[iy % len(ys)], sy * np.inf)) if sy else ys[iy % len(ys)]
            points.append((x, y))
        xs, ys = [x for x, _ in points], [y for _, y in points]
        brute = brute_bbox_hits(instances, xs, ys)
        assert bbox_hits_by_point(index, xs, ys) == brute

    def test_bounds_wider_than_the_float_range(self):
        # max_x - min_x overflows to infinity for these bounds
        instances = [
            mk_instance("lo", GLOMERULUS, square(-1e308, -1e308, 1e306)),
            mk_instance("hi", GLOMERULUS, square(1e308, 1e308, 1e306)),
            mk_instance("mid", GLOMERULUS, square(0.0, 0.0, 1e307)),
            mk_instance("wide", GLOMERULUS, ((-1.5e308, -1e300), (1.5e308, -1e300), (0.0, 1e300))),
        ]
        index = build_index(instances)
        edges = [-1.5e308, -1.01e308, -1e308, -0.99e308, -1e307, 0.0,
                 1e307, 0.99e308, 1e308, 1.01e308, 1.5e308]
        points = [(x, y) for x in edges for y in edges + [-1e300, 1e300]]
        xs, ys = [x for x, _ in points], [y for _, y in points]
        brute = brute_bbox_hits(instances, xs, ys)
        assert any(brute) and bbox_hits_by_point(index, xs, ys) == brute


class TestAssignDetections:
    def test_no_detections(self):
        instances = [mk_instance("a", GLOMERULUS, UNIT_SQUARE)]
        table = assign_detections([], instances, build_index(instances))
        assert table.counts == {"a": 0}
        assert table.unassigned == ()

    def test_five_inside_two_outside(self):
        instances = [mk_instance("glom", GLOMERULUS, square(10.0, 10.0, 5.0))]
        inside = [mk_detection(f"in{i}", 10.0 + i * 0.5, 10.0) for i in range(5)]
        outside = [mk_detection("out1", 100.0, 100.0), mk_detection("out2", -50.0, 0.0)]
        table = assign_detections(inside + outside, instances, build_index(instances))
        assert table.counts == {"glom": 5}
        assert table == brute_assign_table(inside + outside, instances)
        assert brute_members(inside + outside, instances) == {"glom": tuple(d.id for d in inside)}
        assert set(table.unassigned) == {"out1", "out2"}

    def test_detection_in_overlapping_instances_counts_in_each(self):
        instances = [
            mk_instance("a", GLOMERULUS, square(0.0, 0.0, 2.0)),
            mk_instance("b", GLOMERULUS, square(1.0, 0.0, 2.0)),
        ]
        table = assign_detections(
            [mk_detection("d0", 0.5, 0.0)], instances, build_index(instances)
        )
        assert table.counts == {"a": 1, "b": 1}
        assert table.unassigned == ()
        # conservation: multiplicity exceeds detection count exactly by the overlap
        assert sum(table.counts.values()) + len(table.unassigned) == 2

    def test_count_conservation_without_overlap(self):
        instances = [
            mk_instance("a", GLOMERULUS, square(0.0, 0.0, 1.0)),
            mk_instance("b", GLOMERULUS, square(10.0, 0.0, 1.0)),
        ]
        detections = [mk_detection("d0", 0.0, 0.0), mk_detection("d1", 50.0, 50.0)]
        table = assign_detections(detections, instances, build_index(instances))
        assert sum(table.counts.values()) + len(table.unassigned) == len(detections)

    def test_index_mismatch_rejected(self):
        instances = [mk_instance("a", GLOMERULUS, UNIT_SQUARE)]
        other = [mk_instance("b", GLOMERULUS, UNIT_SQUARE)]
        with pytest.raises(IndexMismatch):
            assign_detections([], instances, build_index(other))

    def test_index_over_reordered_instances_rejected(self):
        instances = [
            mk_instance("a", GLOMERULUS, UNIT_SQUARE),
            mk_instance("b", GLOMERULUS, square(5.0, 5.0, 1.0)),
        ]
        with pytest.raises(IndexMismatch):
            assign_detections([mk_detection("d0", 0.5, 0.5)], instances, build_index(instances[::-1]))

    def test_duplicate_instance_ids_rejected(self):
        # counts are keyed by id: a second "a" must not replace the first one's count
        instances = [
            mk_instance("a", GLOMERULUS, UNIT_SQUARE),
            mk_instance("b", GLOMERULUS, square(5.0, 5.0, 1.0)),
            mk_instance("a", GLOMERULUS, square(9.0, 9.0, 1.0)),
        ]
        with pytest.raises(IndexMismatch, match="duplicate instance id 'a'"):
            assign_detections([mk_detection("d0", 0.5, 0.5)], instances, build_index(instances))

    def test_matches_brute_force_oracle(self):
        instances, detections = random_assignment_scene(seed=77, n_instances=60, n_detections=5000)
        table = assign_detections(detections, instances, build_index(instances))
        assert table == brute_assign_table(detections, instances)

    def test_matches_brute_force_oracle_dense_overlaps(self):
        # small canvas forces heavy instance overlap and multi-containment
        instances, detections = random_assignment_scene(
            seed=78, n_instances=40, n_detections=3000, canvas=1200.0
        )
        table = assign_detections(detections, instances, build_index(instances))
        oracle = brute_assign_table(detections, instances)
        assert table == oracle
        assert sum(table.counts.values()) + len(table.unassigned) >= len(detections)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(2, 10), st.integers(2, 10),
                      st.sampled_from(("square", "holed", "triangle"))),
            min_size=1,
            max_size=8,
        ),
        points=st.lists(st.tuples(st.integers(0, 56), st.integers(0, 56)), max_size=80),
    )
    def test_matches_both_oracles_with_holes_boundaries_and_overlaps(self, shapes, points):
        # half-unit grid points land on edges and vertices of the integer shapes
        instances = []
        for k, (x, y, w, h, shape) in enumerate(shapes):
            box = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
            if shape == "triangle":
                instances.append(mk_instance(f"i{k}", GLOMERULUS, box[:3]))
            elif shape == "holed" and w > 2 and h > 2:
                hole = ((x + 1, y + 1), (x + w - 1, y + 1), (x + w - 1, y + h - 1), (x + 1, y + h - 1))
                instances.append(mk_instance(f"i{k}", GLOMERULUS, box, (hole,)))
            else:
                instances.append(mk_instance(f"i{k}", GLOMERULUS, box))
        detections = [mk_detection(f"d{j}", px / 2, py / 2) for j, (px, py) in enumerate(points)]
        index = build_index(instances)
        table = assign_detections(detections, instances, index)
        assert table == brute_assign_table(detections, instances)
        assert table == per_instance_assign(detections, instances, index)

    def test_permutation_invariance(self):
        instances, detections = random_assignment_scene(seed=51, n_instances=30, n_detections=1500)
        base = assign_detections(detections, instances, build_index(instances))
        rng = np.random.default_rng(52)
        inst_perm = [instances[i] for i in rng.permutation(len(instances))]
        det_perm = detections.take(rng.permutation(len(detections)))
        permuted = assign_detections(det_perm, inst_perm, build_index(inst_perm))
        assert permuted == base

    def test_rigid_motion_invariance(self):
        instances, detections = random_assignment_scene(seed=53, n_instances=30, n_detections=1500)
        base = assign_detections(detections, instances, build_index(instances))

        def transform(fx, fy):
            moved_inst = [
                mk_instance(
                    i.id,
                    i.cls.kind,
                    tuple((fx(x), fy(y)) for x, y in i.polygon.exterior),
                    tuple(tuple((fx(x), fy(y)) for x, y in h) for h in i.polygon.holes),
                )
                for i in instances
            ]
            moved_det = [
                mk_detection(d.id, fx(d.point[0]), fy(d.point[1])) for d in detections
            ]
            return assign_detections(moved_det, moved_inst, build_index(moved_inst))

        translated = transform(lambda x: x + 1000.0, lambda y: y - 512.0)
        assert translated.counts == base.counts
        assert translated.unassigned == base.unassigned
        for s in (2.0, 0.5, 3.0):
            scaled = transform(lambda x: x * s, lambda y: y * s)
            assert scaled.counts == base.counts
            assert scaled.unassigned == base.unassigned

    def test_batch_partition_independence(self):
        instances, detections = random_assignment_scene(seed=54, n_instances=25, n_detections=900)
        index = build_index(instances)
        whole = assign_detections(detections, instances, index)
        for cut1, cut2 in ((300, 600), (1, 899), (450, 451)):
            parts = [detections.take(slice(cut1)), detections.take(slice(cut1, cut2)),
                     detections.take(slice(cut2, None))]
            tables = [assign_detections(batch, instances, index) for batch in parts]
            merged = AssignmentTable(
                counts={i: sum(t.counts[i] for t in tables) for i in whole.counts},
                unassigned=tuple(sorted(u for t in tables for u in t.unassigned)),
            )
            assert merged == whole

    def test_determinism(self):
        instances, detections = random_assignment_scene(seed=55, n_instances=20, n_detections=500)
        index = build_index(instances)
        assert assign_detections(detections, instances, index) == assign_detections(
            detections, instances, index
        )
