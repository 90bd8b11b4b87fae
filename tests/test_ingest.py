"""Parsers: structures, detections, ground truth, dedup, scene round-trip."""

from __future__ import annotations

import collections.abc
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banffscore.errors import (
    DegenerateGeometry,
    GradeOutOfRange,
    MalformedDocument,
    SchemaViolation,
)
from banffscore import geometry
from banffscore import ingest, synth
from banffscore.geometry import Polygon, _EdgeTable
from banffscore.ingest import (
    _number_column,
    _ring_columns,
    canonical_json_bytes,
    as_number,
    checked_integer,
    dedup_detections,
    parse_detections,
    parse_ground_truth,
    parse_structures,
    read_scene,
    write_ground_truth,
    write_scene,
)
from banffscore.model import (
    ARTERY,
    GLOMERULUS,
    KNOWN_CELL_KINDS,
    LYMPHOCYTE,
    MONOCYTE,
    OTHER,
    PERITUBULAR_CAPILLARY,
    CellClass,
    Detection,
    DetectionTable,
    GroundTruthGrades,
    SectionScene,
)
from banffscore.scoring import report_to_json, score_section
from banffscore.synth import SceneSpec, generate_scene

from conftest import mk_detection, mk_instance, square
from oracles import (
    bucket_dedup,
    clean_ring,
    generic_scene_document,
    greedy_dedup_quadratic,
    json_dumps_bytes,
    naive_first_bad_hole,
    naive_ring_self_intersects,
    per_entry_parse_detections,
    per_entry_scene_detections,
    per_ring_parse_structures,
)


def feature_collection(*features, properties=None):
    doc = {"type": "FeatureCollection", "features": list(features)}
    if properties is not None:
        doc["properties"] = properties
    return json.dumps(doc).encode()

def polygon_feature(fid, name, rings, geometry_type="Polygon", extra_properties=None):
    properties = {"classification": {"name": name}} if name is not None else {}
    if extra_properties:
        properties.update(extra_properties)
    return {
        "type": "Feature",
        "id": fid,
        "properties": properties,
        "geometry": {"type": geometry_type, "coordinates": rings},
    }


SQUARE_RING = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
FAR_SQUARE_RING = [[20, 20], [30, 20], [30, 30], [20, 30], [20, 20]]


class TestParseStructures:
    def test_single_glomerulus_feature(self):
        data = feature_collection(polygon_feature("f1", "glomerulus", [SQUARE_RING]))
        (inst,) = parse_structures(data)
        assert inst.id == "f1"
        assert inst.cls.kind == GLOMERULUS
        # closing vertex is dropped: logical closure
        assert len(inst.polygon.exterior) == 4

    def test_multipolygon_expands_with_id_suffixes(self):
        data = feature_collection(
            polygon_feature("f1", "artery", [[SQUARE_RING], [FAR_SQUARE_RING]], "MultiPolygon")
        )
        instances = parse_structures(data)
        assert [i.id for i in instances] == ["f1#0", "f1#1"]
        assert all(i.cls.kind == ARTERY for i in instances)

    def test_polygon_with_hole(self):
        hole = [[2, 2], [4, 2], [4, 4], [2, 4], [2, 2]]
        data = feature_collection(polygon_feature("f1", "ptc", [SQUARE_RING, hole]))
        (inst,) = parse_structures(data)
        assert inst.cls.kind == PERITUBULAR_CAPILLARY
        assert len(inst.polygon.holes) == 1

    @staticmethod
    def holey_square(holes):
        """A 100-wide square with the given hole rings, as one feature."""
        exterior = [[0, 0], [100, 0], [100, 100], [0, 100]]
        return feature_collection(polygon_feature("h", "artery", [exterior, *holes]))

    def test_nested_holes_rejected_lowest_hole_first(self):
        small = lambda x, y, r: [[x - r, y - r], [x + r, y - r], [x + r, y + r], [x - r, y + r]]
        # hole 2 holds hole 4 and hole 3 holds hole 1; hole 1 is the lowest
        # hole with an error, and hole 3 the only other hole holding it
        holes = [small(10, 10, 2), small(50, 50, 1), small(80, 20, 5), small(50, 50, 4), small(80, 20, 1)]
        with pytest.raises(DegenerateGeometry) as info:
            parse_structures(self.holey_square(holes))
        assert str(info.value) == "feature h: holes 3 and 1 are nested"
        # a hole outside the exterior wins over a nested pair of a later hole...
        with pytest.raises(DegenerateGeometry, match="hole 1 is not inside the exterior ring"):
            parse_structures(self.holey_square(holes[:1] + [small(150, 50, 1)] + holes[1:]))
        # ...and over one of the same hole, whose own check comes first: hole
        # 0 holds the first vertex of hole 1, which reaches past the exterior
        long_hole = [[50, 50], [150, 50], [150, 51], [50, 51]]
        with pytest.raises(DegenerateGeometry, match="hole 1 is not inside the exterior ring"):
            parse_structures(self.holey_square([small(50, 50, 4), long_hole]))
        with pytest.raises(DegenerateGeometry, match="holes 0 and 1 are nested"):
            parse_structures(self.holey_square([small(50, 50, 4), [[50, 50], [90, 50], [90, 51], [50, 51]]]))
        # but not over a nested pair of an earlier hole
        with pytest.raises(DegenerateGeometry, match="holes 1 and 0 are nested"):
            parse_structures(self.holey_square([small(20, 20, 1), small(20, 20, 3), small(150, 50, 1)]))

    def test_many_holes_take_a_few_kernel_calls(self, monkeypatch):
        holes = [
            [[x + 1, y + 1], [x + 3, y + 1], [x + 3, y + 3], [x + 1, y + 3]]
            for x in range(0, 96, 6) for y in range(0, 96, 6)
        ][:200]
        calls = []
        kernel = geometry._contains
        monkeypatch.setattr(geometry, "_contains", lambda *args: calls.append(1) or kernel(*args))
        (inst,) = parse_structures(self.holey_square(holes))
        assert len(inst.polygon.holes) == 200
        assert len(calls) <= 4

    def test_lone_holes_build_no_index(self, monkeypatch):
        monkeypatch.setattr(geometry, "SpatialIndex", None)  # building one would raise
        hole = [[2, 2], [4, 2], [4, 4], [2, 4]]
        data = feature_collection(*(polygon_feature(f"f{k}", "artery", [SQUARE_RING, hole]) for k in range(3)))
        assert [len(i.polygon.holes) for i in parse_structures(data)] == [1, 1, 1]

    def test_two_vertex_ring_names_feature(self):
        data = feature_collection(polygon_feature("bad-ring", "artery", [[[0, 0], [1, 1], [0, 0]]]))
        with pytest.raises(DegenerateGeometry, match="bad-ring"):
            parse_structures(data)

    def test_zero_area_ring_rejected(self):
        data = feature_collection(
            polygon_feature("flat", "artery", [[[0, 0], [1, 1], [2, 2], [0, 0]]])
        )
        with pytest.raises(DegenerateGeometry, match="flat"):
            parse_structures(data)

    @pytest.mark.parametrize(
        "rings, message",
        [
            pytest.param([SQUARE_RING, [[20, 20], [40, 20], [40, 40], [20, 40]]],
                         "feature last: hole 0 is not inside the exterior ring", id="bad-hole"),
            pytest.param([[[0, 0], [1, 1], [2, 2]]], "feature last: ring has zero area", id="zero-area"),
        ],
    )
    def test_rejected_document_builds_no_vertex_tuples(self, monkeypatch, rings, message):
        def refuse(edges):
            raise AssertionError("vertex tuples built for a rejected document")

        monkeypatch.setattr(_EdgeTable, "polygons", refuse)
        hole = [[2, 2], [4, 2], [4, 4], [2, 4]]
        features = [polygon_feature(f"f{k}", "artery", [SQUARE_RING, hole]) for k in range(3)]
        with pytest.raises(DegenerateGeometry) as info:
            parse_structures(feature_collection(*features, polygon_feature("last", "artery", rings)))
        assert str(info.value) == message

    def test_self_intersecting_ring_rejected_not_repaired(self):
        bowtie = [[0, 0], [10, 10], [10, 0], [0, 10], [0, 0]]
        data = feature_collection(polygon_feature("bow", "glomerulus", [bowtie]))
        with pytest.raises(DegenerateGeometry, match="bow"):
            parse_structures(data)

    def test_unmapped_class_becomes_other_and_is_retained(self):
        data = feature_collection(polygon_feature("f1", "tubule", [SQUARE_RING]))
        (inst,) = parse_structures(data)
        assert inst.cls.kind == OTHER
        assert inst.cls.label == "tubule"

    def test_class_fallback_key_and_alias_table(self):
        feature = polygon_feature("f1", None, [SQUARE_RING])
        feature["properties"]["class"] = "Glomerular Tuft"
        (inst,) = parse_structures(feature_collection(feature))
        assert inst.cls.kind == GLOMERULUS
        custom = {"vessel": ARTERY}
        feature["properties"]["class"] = "Vessel"
        (inst,) = parse_structures(feature_collection(feature), aliases=custom)
        assert inst.cls.kind == ARTERY

    def test_missing_generated_ids_are_one_based(self):
        features = [polygon_feature(None, "artery", [SQUARE_RING]) for _ in range(2)]
        for f in features:
            del f["id"]
        features[1]["geometry"]["coordinates"] = [FAR_SQUARE_RING]
        instances = parse_structures(feature_collection(*features))
        assert [i.id for i in instances] == ["f1", "f2"]

    @pytest.mark.parametrize("fid", [{"a": 1}, True, [1, 2]], ids=["object", "bool", "array"])
    def test_feature_id_must_be_a_string_or_a_number(self, fid):
        feature = polygon_feature(fid, "glomerulus", [SQUARE_RING])
        with pytest.raises(MalformedDocument) as info:
            parse_structures(feature_collection(polygon_feature("ok", "ptc", [FAR_SQUARE_RING]), feature))
        assert str(info.value) == f"features[1].id: expected a string or a number, got {fid!r}"

    def test_fallback_properties_id_must_be_a_string_or_a_number(self):
        feature = polygon_feature(None, "glomerulus", [SQUARE_RING], extra_properties={"id": False})
        del feature["id"]
        with pytest.raises(MalformedDocument) as info:
            parse_structures(feature_collection(feature))
        assert str(info.value) == "features[0].properties.id: expected a string or a number, got False"

    def test_number_ids_read_as_str_writes_them(self):
        first = polygon_feature(7, "glomerulus", [SQUARE_RING])
        second = polygon_feature(None, "ptc", [FAR_SQUARE_RING], extra_properties={"id": 2.5})
        del second["id"]
        assert [i.id for i in parse_structures(feature_collection(first, second))] == ["7", "2.5"]

    def test_unsupported_geometry_named_in_error(self):
        feature = {
            "type": "Feature",
            "id": "pt",
            "properties": {},
            "geometry": {"type": "Point", "coordinates": [0, 0]},
        }
        with pytest.raises(MalformedDocument, match="pt"):
            parse_structures(feature_collection(feature))

    def test_not_geojson(self):
        with pytest.raises(MalformedDocument):
            parse_structures(b'{"points": []}')
        with pytest.raises(MalformedDocument):
            parse_structures(b"not json at all")

    def test_properties_pass_through(self):
        feature = polygon_feature("f1", "glomerulus", [SQUARE_RING], extra_properties={"banff_g": 2})
        (inst,) = parse_structures(feature_collection(feature))
        assert inst.properties["banff_g"] == 2


def detection_doc(points):
    return json.dumps({"points": points}).encode()


class TestParseDetections:
    DOC = detection_doc(
        [
            {"name": "lymphocyte", "point": [1.0, 2.0], "probability": 0.9},
            {"name": "monocyte", "point": [3.0, 4.0], "probability": 0.4},
            {"name": "lymphocyte", "point": [5.0, 6.0]},
        ]
    )

    def test_keeps_everything_at_zero_threshold(self):
        dets = parse_detections(self.DOC, min_confidence=0.0)
        assert len(dets) == 3
        assert [d.id for d in dets] == ["d0", "d1", "d2"]
        assert dets.confidences[2] == 1.0  # probability defaults to 1.0

    def test_threshold_above_everything_yields_empty(self):
        doc = detection_doc(
            [
                {"name": "lymphocyte", "point": [1.0, 2.0], "probability": 0.9},
                {"name": "monocyte", "point": [3.0, 4.0], "probability": 0.4},
            ]
        )
        assert list(parse_detections(doc, min_confidence=0.95)) == []

    def test_ids_stable_under_filtering(self):
        dets = parse_detections(self.DOC, min_confidence=0.5)
        assert [d.id for d in dets] == ["d0", "d2"]

    def test_class_filter(self):
        dets = parse_detections(self.DOC, min_confidence=0.0, classes=(MONOCYTE,))
        assert [d.cls.kind for d in dets] == [MONOCYTE]
        everything = parse_detections(self.DOC, min_confidence=0.0, classes=None)
        assert len(everything) == 3

    def test_unmapped_class_excluded_by_default_kept_with_none(self):
        doc = detection_doc([{"name": "plasma cell", "point": [0, 0], "probability": 1.0}])
        assert list(parse_detections(doc, min_confidence=0.0)) == []
        (det,) = parse_detections(doc, min_confidence=0.0, classes=None)
        assert det.cls.kind == OTHER and det.cls.label == "plasma cell"

    def test_confidence_out_of_range(self):
        doc = detection_doc([{"name": "lymphocyte", "point": [0, 0], "probability": 1.7}])
        with pytest.raises(SchemaViolation):
            parse_detections(doc, min_confidence=0.0)

    def test_missing_fields(self):
        with pytest.raises(SchemaViolation, match=r"points\[0\]"):
            parse_detections(detection_doc([{"point": [0, 0]}]), min_confidence=0.0)
        with pytest.raises(SchemaViolation, match=r"points\[0\]"):
            parse_detections(detection_doc([{"name": "lymphocyte"}]), min_confidence=0.0)

    def test_non_finite_point(self):
        doc = detection_doc([{"name": "lymphocyte", "point": [1e999, 0]}])
        with pytest.raises(SchemaViolation):
            parse_detections(doc, min_confidence=0.0)

    def test_malformed_document(self):
        with pytest.raises(MalformedDocument):
            parse_detections(b'{"cells": []}')
        with pytest.raises(MalformedDocument):
            parse_detections(b"{")

    @given(
        confidences=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
        thresholds=st.tuples(
            st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_filter_monotonicity(self, confidences, thresholds):
        doc = detection_doc(
            [
                {"name": "lymphocyte", "point": [float(i), 0.0], "probability": c}
                for i, c in enumerate(confidences)
            ]
        )
        lo, hi = min(thresholds), max(thresholds)
        n_lo = len(parse_detections(doc, min_confidence=lo))
        n_hi = len(parse_detections(doc, min_confidence=hi))
        assert n_hi <= n_lo
        assert len(parse_detections(doc, min_confidence=0.0)) == len(confidences)


    LYMPH = {"name": "lymphocyte", "point": [1.0, 2.0], "probability": 0.9}

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param([LYMPH, {"point": [0, 0]}, LYMPH, {"name": "lymphocyte", "point": [0]}],
                         "points[1]: missing or non-string 'name'", id="first-of-two-bad"),
            pytest.param([LYMPH, {**LYMPH, "probability": 2}, [1, 2]],
                         "points[1].probability: expected a number in [0, 1], got 2",
                         id="probability-before-later-object"),
            pytest.param([LYMPH, "x", {"name": 3}], "points[1]: not an object", id="not-an-object"),
            pytest.param([{"name": None, "point": "x", "probability": -1}],
                         "points[0]: missing or non-string 'name'", id="name-before-point"),
            pytest.param([{"name": "m", "point": [0, None], "probability": -1}],
                         "points[0].point: expected [x, y] of numbers, got [0, None]",
                         id="point-before-probability"),
            pytest.param([{"name": "m", "point": [True, 0]}],
                         "points[0].point: expected [x, y] of numbers, got [True, 0]", id="bool-coordinate"),
            pytest.param([{"name": "m", "point": ["1.5", 0]}],
                         "points[0].point: expected [x, y] of numbers, got ['1.5', 0]",
                         id="string-coordinate"),
            pytest.param([{"name": "m", "point": [10**400, 0]}],
                         "points[0].point: non-finite point coordinates [1000000000...00000000000, 0]",
                         id="huge-int-coordinate"),
            pytest.param([{"name": "m", "point": [1.0]}],
                         "points[0].point: expected [x, y] of numbers, got [1.0]", id="one-element-point"),
            pytest.param([LYMPH, {"name": "m", "point": [0, 0], "probability": float("nan")}],
                         "points[1].probability: expected a number in [0, 1], got nan", id="nan-probability"),
        ],
    )
    def test_first_bad_entry_and_field_named(self, entries, message):
        with pytest.raises(SchemaViolation) as info:
            parse_detections(detection_doc(entries), min_confidence=0.0, classes=None)
        assert str(info.value) == message

    def test_missing_probability_and_three_element_point_accepted(self):
        doc = detection_doc([{"name": "lymphocyte", "point": [1, 2, 3]},
                             {"name": "Monocyte", "point": [4.5, 6]}])
        dets = parse_detections(doc, min_confidence=0.0, classes=None)
        assert [(d.id, d.point, d.cls.kind, d.confidence) for d in dets] == [
            ("d0", (1.0, 2.0), LYMPHOCYTE, 1.0), ("d1", (4.5, 6.0), MONOCYTE, 1.0)
        ]
        assert all(type(v) is float for d in dets for v in (*d.point, d.confidence))


GT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


class TestParseGroundTruth:
    def test_collection_level_properties(self):
        data = feature_collection(properties={"banff_g": 1, "banff_ptc": 0, "banff_v": 0})
        gt = parse_ground_truth(data)
        assert (gt.g, gt.ptc, gt.v) == (1, 0, 0)

    def test_feature_level_maximum(self):
        data = feature_collection(
            polygon_feature("f1", "ptc", [GT_SQUARE], extra_properties={"banff_ptc": 1}),
            polygon_feature("f2", "ptc", [GT_SQUARE], extra_properties={"banff_ptc": 2}),
        )
        gt = parse_ground_truth(data)
        assert gt.ptc == 2
        assert gt.g is None and gt.v is None

    def test_collection_takes_precedence_over_features(self):
        data = feature_collection(
            polygon_feature("f1", "ptc", [GT_SQUARE], extra_properties={"banff_ptc": 3}),
            properties={"banff_ptc": 1},
        )
        assert parse_ground_truth(data).ptc == 1

    def test_grade_out_of_range(self):
        with pytest.raises(GradeOutOfRange):
            parse_ground_truth(feature_collection(properties={"banff_v": 5}))
        with pytest.raises(GradeOutOfRange):
            parse_ground_truth(feature_collection(properties={"banff_g": 1.5}))

    def test_bare_object(self):
        gt = parse_ground_truth(b'{"banff_g": 2, "section_id": "s1"}')
        assert gt.g == 2 and gt.section_id == "s1"
        gt = parse_ground_truth(b'{"properties": {"banff_v": 3}}')
        assert gt.v == 3

    def test_integral_float_accepted(self):
        assert parse_ground_truth(b'{"banff_g": 2.0}').g == 2

    def test_malformed(self):
        with pytest.raises(MalformedDocument):
            parse_ground_truth(b"[1, 2, 3]")

    @pytest.mark.parametrize("section_id", ["s1", "Niere éè 腰 🔬", ""])
    def test_written_file_reads_back_for_every_grade(self, section_id):
        grades = (None, 0, 1, 2, 3)
        for g, ptc, v in itertools.product(grades, grades, grades):
            gt = GroundTruthGrades(section_id=section_id, g=g, ptc=ptc, v=v)
            assert parse_ground_truth(write_ground_truth(gt)) == gt

    def test_written_file_holds_only_the_annotated_grades(self):
        data = write_ground_truth(GroundTruthGrades(section_id="sé", g=2, v=0))
        assert data == (
            b'{\n  "features": [],\n  "properties": {\n    "banff_g": 2,\n    "banff_v": 0,\n'
            b'    "section_id": "s\\u00e9"\n  },\n  "type": "FeatureCollection"\n}\n'
        )


class TestDedupDetections:
    def test_exact_duplicate_keeps_higher_confidence(self):
        a = mk_detection("a", 5.0, 5.0, confidence=0.9)
        b = mk_detection("b", 5.0, 5.0, confidence=0.8)
        assert list(dedup_detections([b, a], radius=0.0)) == [a]

    def test_radius_zero_keeps_distinct_points(self):
        dets = [mk_detection(f"d{i}", float(i), 0.0) for i in range(5)]
        assert list(dedup_detections(dets, radius=0.0)) == dets

    def test_different_classes_never_suppress_each_other(self):
        a = mk_detection("a", 5.0, 5.0, kind=LYMPHOCYTE, confidence=0.9)
        b = mk_detection("b", 5.0, 5.0, kind=MONOCYTE, confidence=0.8)
        assert list(dedup_detections([a, b], radius=10.0)) == [a, b]

    def test_suppression_radius_is_inclusive(self):
        a = mk_detection("a", 0.0, 0.0, confidence=0.9)
        b = mk_detection("b", 8.0, 0.0, confidence=0.8)
        assert list(dedup_detections([a, b], radius=8.0)) == [a]
        assert list(dedup_detections([a, b], radius=7.9)) == [a, b]

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_radius_not_at_least_zero_is_rejected(self, radius):
        """A NaN radius compared false with every distance: both points survived."""
        a = mk_detection("a", 5.0, 5.0, confidence=0.9)
        b = mk_detection("b", 5.0, 5.0, confidence=0.8)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            dedup_detections([a, b], radius)

    def test_matches_quadratic_oracle_on_clustered_scene(self):
        rng = np.random.default_rng(99)
        detections = []
        for i in range(400):
            cx, cy = rng.uniform(0, 200, 2)  # clustered: many points share hot spots
            detections.append(
                mk_detection(
                    f"d{i}",
                    float(cx + rng.normal(0, 4)),
                    float(cy + rng.normal(0, 4)),
                    kind=LYMPHOCYTE if i % 3 else MONOCYTE,
                    confidence=float(rng.uniform(0.2, 1.0)),
                )
            )
        assert list(dedup_detections(detections, radius=8.0)) == greedy_dedup_quadratic(detections, 8.0)

    @given(
        coords=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 100)),
            max_size=40,
        ),
        radius=st.sampled_from([0.0, 1e-320, 0.5, 1.0, 3.5, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_is_subset_and_matches_oracle(self, coords, radius):
        dets = [
            mk_detection(f"d{i}", float(x), float(y), confidence=c / 100.0)
            for i, (x, y, c) in enumerate(coords)
        ]
        out = dedup_detections(dets, radius)
        assert set(d.id for d in out) <= set(d.id for d in dets)
        assert list(out) == greedy_dedup_quadratic(dets, radius)

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 12).map(float),
                    # within a few float steps (2**971 apart) of -1e308 or 1e308
                    st.builds(lambda s, k: s * 1e308 + k * 2.0**971, st.sampled_from((-1.0, 1.0)),
                              st.integers(-3, 3)),
                ),
                st.integers(0, 12).map(float),
                st.integers(0, 4),
                st.sampled_from((CellClass(LYMPHOCYTE), CellClass(MONOCYTE),
                                 CellClass(OTHER, "a"), CellClass(OTHER, "b"))),
            ),
            max_size=30,
        ),
        radius=st.sampled_from([0.0, 0.5, 1e-320, 1e308]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_both_oracles_at_extreme_radii_and_coordinates(self, rows, radius):
        # ids d0..d29 make id string order differ from numeric order on ties
        dets = [Detection(f"d{i}", (x, y), cls, c / 4) for i, (x, y, c, cls) in enumerate(rows)]
        out = list(dedup_detections(dets, radius))
        assert out == greedy_dedup_quadratic(dets, radius)
        assert out == bucket_dedup(dets, radius)

    def test_nan_confidence_ranks_last_in_any_input_order(self):
        """A tuple sort left a NaN rank to the comparisons it happened to
        make, so the result depended on the input order."""
        rows = [mk_detection("a", 0.0, 0.0, confidence=0.5), mk_detection("b", 1.0, 0.0, confidence=math.nan),
                mk_detection("c", 2.0, 0.0, confidence=0.9)]
        for order in itertools.permutations(rows):
            assert [d.id for d in dedup_detections(list(order), radius=1.0)] == [d.id for d in order if d.id != "b"]

    def test_identity_on_duplicate_free_input(self):
        dets = [mk_detection(f"d{i}", float(i) * 3.0, 0.0) for i in range(10)]
        assert list(dedup_detections(dets, radius=0.0)) == dets

    def test_many_points_at_a_huge_radius(self):
        # every detection of a kind is within the radius of every other: one
        # cell, one kept per kind, and no pair list that grows with the square
        rng = np.random.default_rng(11)
        xy = rng.uniform(-1e6, 1e6, size=(20_000, 2))
        conf = rng.integers(0, 50, size=20_000) / 50
        dets = [
            mk_detection(f"d{i}", x, y, kind=(LYMPHOCYTE, MONOCYTE)[i % 2], confidence=c)
            for i, ((x, y), c) in enumerate(zip(xy.tolist(), conf.tolist()))
        ]
        out = list(dedup_detections(dets, 1e308))
        assert len(out) == 2
        assert out == bucket_dedup(dets, 1e308)

    @pytest.mark.parametrize("radius", [9.0, 20.0, 50.0])
    def test_dense_lattice_at_radii_above_its_pitch(self, radius):
        # a jittered 9-px lattice: at these radii most detections have a
        # same-kind neighbour within the radius
        rng = np.random.default_rng(12)
        grid = np.stack(np.meshgrid(np.arange(70), np.arange(70)), axis=-1).reshape(-1, 2) * 9.0
        xy = grid + rng.normal(0.0, 1.5, size=grid.shape)
        conf = rng.integers(0, 20, size=len(grid)) / 20
        dets = [
            mk_detection(f"d{i}", x, y, kind=(LYMPHOCYTE, MONOCYTE)[i % 3 == 0], confidence=c)
            for i, ((x, y), c) in enumerate(zip(xy.tolist(), conf.tolist()))
        ]
        assert list(dedup_detections(dets, radius)) == bucket_dedup(dets, radius)

    def test_two_crowded_cells_side_by_side(self):
        # 40,000 lymphocytes in each of two adjacent cells of side 8, with
        # single detections in the cells around them: pairing every row of
        # one crowded cell with every row of the other would take 1.6e9
        # pairs, and the search must stay linear instead
        rng = np.random.default_rng(13)
        crowd = rng.uniform(0.0, 8.0, size=(80_000, 2)) + np.repeat([[0.0, 0.0], [8.0, 0.0]], 40_000, axis=0)
        lone = [(20.0, 4.0), (-4.0, 4.0), (4.0, 12.0), (12.0, -4.0), (-0.5, -0.5), (16.5, 8.5), (100.0, 4.0)]
        xy = crowd.tolist() + lone
        conf = (rng.integers(0, 100, size=len(xy)) / 100).tolist()
        dets = [mk_detection(f"d{i}", x, y, confidence=c) for i, ((x, y), c) in enumerate(zip(xy, conf))]
        dets.append(mk_detection("m", 4.0, 4.0, kind=MONOCYTE))
        start = time.perf_counter()
        out = dedup_detections(dets, 8.0)
        elapsed = time.perf_counter() - start
        assert list(out) == bucket_dedup(dets, 8.0)
        assert {"m", f"d{len(xy) - 1}"} <= {d.id for d in out}
        assert elapsed < 5.0, f"dedup of {len(dets)} detections took {elapsed:.2f}s"


class TestStalledRounds:
    @staticmethod
    def chain(n: int, radius: float):
        """``n`` lymphocytes on a line, each ``0.99 * radius`` from the next, so
        only neighbours on the line are within the radius, with confidence
        rising along it: a round decides only the highest-ranked undecided
        row and the one it suppresses."""
        return [mk_detection(f"d{i}", 0.99 * radius * i, 0.0, confidence=(i + 1) / (n + 1)) for i in range(n)]

    def test_dedup_stays_linear_when_the_rounds_stall(self, monkeypatch):
        radius, counts = 8.0, []
        for n in (250, 500, 1000):
            dets = self.chain(n, radius)
            expected = greedy_dedup_quadratic(dets, radius)
            calls, left = [], []
            dist, rounds = math.dist, ingest._rounds
            monkeypatch.setattr(math, "dist", lambda p, q: calls.append(1) or dist(p, q))
            monkeypatch.setattr(ingest, "_rounds", lambda *a: left.append(rounds(*a)) or left[-1])
            out = dedup_detections(dets, radius)
            monkeypatch.undo()
            assert list(out) == expected
            # the rounds stopped at once and left the chain to the greedy loop
            assert np.count_nonzero(left[0] == 0) == n - 2
            counts.append(len(calls))
        assert all(b <= 2.25 * a for a, b in zip(counts, counts[1:])), counts


class TestSubPixelDedup:
    @staticmethod
    def crowd():
        """1,000 lymphocytes in a unit square on a 0.02 lattice, so many
        share a point, with ``-0.0`` and ``0.0`` both on the left edge."""
        rng = np.random.default_rng(21)
        xy = rng.integers(0, 50, size=(1000, 2)) * 0.02
        conf = rng.integers(0, 10, size=1000) / 10
        return [
            mk_detection(f"d{i}", -0.0 if x == 0 and i % 2 else x, y, confidence=c)
            for i, ((x, y), c) in enumerate(zip(xy.tolist(), conf.tolist()))
        ]

    @pytest.mark.parametrize("radius", [0.0, 0.01])
    def test_crowd_matches_oracle_with_linear_distance_count(self, radius, monkeypatch):
        dets = self.crowd()
        expected = greedy_dedup_quadratic(dets, radius)
        assert len(expected) < len(dets)
        calls = []
        dist = math.dist
        monkeypatch.setattr(math, "dist", lambda p, q: calls.append(1) or dist(p, q))
        out = dedup_detections(dets, radius)
        monkeypatch.undo()
        assert list(out) == expected
        assert len(calls) <= 10 * len(dets)

    def test_signed_zeros_are_one_point(self):
        a = mk_detection("a", 0.0, -0.0, confidence=0.9)
        b = mk_detection("b", -0.0, 0.0, confidence=0.8)
        assert list(dedup_detections([b, a], radius=0.0)) == [a]


class TestDetectionTable:
    ROWS = [
        Detection("d0", (1.0, 2.0), CellClass(LYMPHOCYTE), 0.9),
        Detection("d1", (3.0, 4.0), CellClass(OTHER, "mast cell"), 1.0),
        Detection("d2", (-0.5, 7.25), CellClass(MONOCYTE), 0.5),
    ]

    def test_slices_compare_as_tables(self):
        table = DetectionTable.from_rows(self.ROWS)
        assert table == DetectionTable.from_rows(list(self.ROWS))
        assert table.take(slice(2)) == DetectionTable.from_rows(self.ROWS[:2])
        assert table != DetectionTable.from_rows(self.ROWS[:2])
        assert table != DetectionTable.from_rows(self.ROWS[::-1])
        assert table.take(slice(0)) == DetectionTable.from_rows([]) != table

    def test_is_not_a_sequence_and_never_equals_one(self):
        table = DetectionTable.from_rows(self.ROWS)
        assert not isinstance(table, collections.abc.Sequence)
        with pytest.raises(TypeError):
            table[0]
        assert table != self.ROWS and self.ROWS != table and table != list(table)
        assert table.take(slice(0)) != [] and table != 5
        assert list(table) == self.ROWS

    def test_tables_compare_rows_not_class_codes(self):
        table = DetectionTable.from_rows(self.ROWS)
        # built from reversed rows, the class codes differ for the same rows
        reordered = DetectionTable.from_rows(self.ROWS[::-1]).take([2, 1, 0])
        assert reordered.codes.tolist() != table.codes.tolist()
        assert reordered == table and table == reordered
        d0, d1, d2 = self.ROWS
        changed = (
            [d0, d1, Detection("d2", (-0.5, 7.5), CellClass(MONOCYTE), 0.5)],  # a moved point
            [d0, Detection("d1", (3.0, 4.0), CellClass(OTHER, "eosinophil"), 1.0), d2],  # a relabelled class
            [d0, Detection("d1", (3.0, 4.0), CellClass(MONOCYTE), 1.0), d2],  # the class of another row
            [d0, Detection("d9", (3.0, 4.0), CellClass(OTHER, "mast cell"), 1.0), d2],  # another id
            [Detection("d0", (1.0, 2.0), CellClass(LYMPHOCYTE), 0.8), d1, d2],  # another confidence
        )
        for rows in changed:
            # reversed and taken back, so the codes differ from the table's as well
            other = DetectionTable.from_rows(rows[::-1]).take([2, 1, 0])
            assert other != table and table != other, rows

    def test_scene_with_a_table_equals_scene_with_its_rows(self):
        table = DetectionTable.from_rows(self.ROWS)
        assert SectionScene("s", detections=table) == SectionScene("s", detections=list(self.ROWS))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DetectionTable.from_rows(self.ROWS))

    def test_scene_holds_a_table_equal_to_its_row_list(self):
        scene = SectionScene("s", detections=list(self.ROWS))
        assert type(scene.detections) is DetectionTable
        assert scene.detections == DetectionTable.from_rows(self.ROWS)
        assert list(scene.detections) == self.ROWS
        assert type(SectionScene("s").detections) is DetectionTable

    def test_sum_of_two_tables(self):
        extra = Detection("d3", (5.0, 6.0), CellClass(LYMPHOCYTE), 0.7)
        head, tail = self.ROWS[:2], [self.ROWS[2], extra]
        total = DetectionTable.from_rows(head) + DetectionTable.from_rows(tail)
        assert type(total) is DetectionTable
        assert total == DetectionTable.from_rows(self.ROWS + [extra])
        assert list(total) == self.ROWS + [extra]
        # one code per class: the lymphocytes of both sides share theirs
        assert len(total.classes) == 3
        assert [total.classes[k] for k in total.codes] == [d.cls for d in self.ROWS + [extra]]

    def test_sum_with_rows_is_a_type_error(self):
        table = DetectionTable.from_rows(self.ROWS)
        with pytest.raises(TypeError):
            table + self.ROWS
        with pytest.raises(TypeError):
            self.ROWS + table

    def test_read_scene_rows_match_one_entry_at_a_time(self):
        entries = [
            {"id": "a", "class": "other:mast cell", "point": [1, 2.5], "confidence": 0.25},
            {"id": "b", "class": "lymphocyte", "point": [-0.0, 3]},
            {"id": "c", "class": "other:eosinophil", "point": [7.5, -2], "confidence": 1},
            {"id": "d", "class": "other", "point": [0.125, 1e-300], "confidence": 0.5},
            {"id": "e", "class": "other:mast cell", "point": [4, 4], "confidence": 0.0},
        ]
        for dets, n_classes in ((entries, 4), ([], 0)):
            doc = {"section_id": "s", "instances": [], "detections": dets}
            table = read_scene(json.dumps(doc).encode()).detections
            assert type(table) is DetectionTable
            assert list(table) == per_entry_scene_detections(dets)
            assert len(table.classes) == n_classes  # one per distinct class


class TestPositionalIds:
    """A parsed table keeps document positions for its ids and writes
    ``d<i>`` only when they are read; it behaves as if it held the strings."""

    POINTS = [
        {"name": ("lymphocyte", "monocyte", "neutrophil")[i % 3], "point": [float(i), 0.5 * i],
         "probability": round(0.2 + 0.07 * i, 2)}
        for i in range(12)
    ]

    def parsed(self):
        table = parse_detections(json.dumps({"points": self.POINTS}).encode(), min_confidence=0.3)
        twin = DetectionTable.from_rows([
            Detection(f"d{i}", tuple(p["point"]), CellClass.from_label(p["name"]), p["probability"])
            for i, p in enumerate(self.POINTS) if p["probability"] >= 0.3 and p["name"] != "neutrophil"
        ])
        return table, twin

    def test_parsed_table_equals_its_twin_with_string_ids(self):
        table, twin = self.parsed()
        assert table.ids.tolist() == ["d3", "d4", "d6", "d7", "d9", "d10"]
        assert table == twin and twin == table
        assert list(table) == list(twin)
        for rows in ([4, 0, 2], slice(1, None, 2), table.confidences > 0.5, slice(0)):
            assert table.take(rows) == twin.take(rows)
            assert list(table.take(rows)) == list(twin.take(rows))
        assert table.take([0, 1]) != twin.take([1, 0])
        scene = {"section_id": "s", "instances": [], "detections": [
            {"id": "d9", "class": "lymphocyte", "point": [9.0, 4.5], "confidence": 0.83},
            {"id": "x", "class": "other:mast cell", "point": [1.0, 1.0]},
        ]}
        detections = read_scene(json.dumps(scene).encode()).detections
        assert table + detections == twin + detections
        assert detections + table == detections + twin
        assert list(table + detections) == list(twin) + list(detections)

    def test_unassigned_ids_sort_as_strings(self):
        table, _ = self.parsed()
        far = mk_instance("far", GLOMERULUS, square(100.0, 100.0, 5.0))
        unassigned = geometry.assign_detections(table, [far], geometry.build_index([far])).unassigned
        assert unassigned == ("d10", "d3", "d4", "d6", "d7", "d9")

    def test_confidence_tie_ranks_d10_before_d9(self):
        points = [{"name": "lymphocyte", "point": [100.0 * i, 0.0], "probability": 0.5} for i in range(11)]
        points[9]["point"] = points[10]["point"]  # d9 and d10 share a point and a confidence
        table = parse_detections(json.dumps({"points": points}).encode())
        out = dedup_detections(table, radius=0.0)
        assert "d10" in out.ids.tolist() and "d9" not in out.ids.tolist()
        assert out == dedup_detections(list(table), radius=0.0)


# Strings and keys that stress the string encoder: non-ASCII, astral,
# control, line-separator and lone-surrogate characters, quotes, backslashes
# and format specifiers.
ODD_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9", "\U0001d11e", "\u2028\u2029\x85", "\ud800", 'a"b\\c',
                     "%s%r%%", "\n\t"]),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**30, -(10**40), 2**63, 0, -1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1]),
    ODD_TEXT,
)
# Keys of one dict that are not all strings: the stdlib sorts them before it
# converts them, and keys of mixed types that cannot be sorted raise TypeError.
ODD_KEYS = st.one_of(ODD_TEXT, st.integers(-5, 5), st.floats(allow_nan=False), st.booleans(), st.none())
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(ODD_TEXT, inner, max_size=4),
        st.dictionaries(ODD_KEYS, inner, max_size=3),
    ),
    max_leaves=20,
)


def _written(write, obj):
    """The bytes ``write`` gives ``obj``, or the type and text of its error."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCanonicalJson:
    """``canonical_json_bytes`` writes what the stdlib's indented ``json.dumps`` writes."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(doc=JSON_DOCUMENTS)
    def test_bytes_equal_json_dumps(self, doc):
        assert _written(canonical_json_bytes, doc) == _written(json_dumps_bytes, doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": [1, {"b": {}, "c": []}], "B": ((),), "": None},
            {1: "one", 2.5: [1, {"x": {3: 4}}], 0: {}, -3: [{None: []}, {False: 1, True: 2}]},
            {"nested": {10: "ten", 9: "nine"}},
            [[[[]]], [{}], {"k": [{"z": 0, "a": -0.0}]}],
            {"big": 10**300, "tiny": 5e-324, "huge": 1e308, "neg": -0.0},
        ],
        ids=["nested", "non-string-keys", "non-string-keys-nested", "empty-containers", "numbers"],
    )
    def test_named_documents(self, doc):
        assert canonical_json_bytes(doc) == json_dumps_bytes(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["top", "list", "value", "key", "non-string-key-dict"])
    def test_non_finite_float_raises_value_error(self, bad, where):
        doc = {"top": bad, "list": [1, [bad]], "value": {"a": {"b": bad}}, "key": {bad: 1},
               "non-string-key-dict": {"k": {1: bad}}}[where]
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            canonical_json_bytes(doc)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            json_dumps_bytes(doc)

    def test_type_without_a_json_value_raises_type_error(self):
        for doc in ({"a": [object()]}, {"a": np.float32(1.0)}, {"a": {1: np.int64(2)}}):
            assert _written(canonical_json_bytes, doc) == _written(json_dumps_bytes, doc)
            assert _written(canonical_json_bytes, doc)[0] is TypeError


class TestWriteSceneTemplates:
    """``write_scene`` writes detection rows and ring vertices from templates,
    with the bytes the stdlib gives the same scene as plain objects."""

    ODD_IDS = ["", "quote\"back\\slash", "caf\u00e9 \U0001d11e", "\x00ctrl\x1f", "%s %r %%", "\u2028", "\ud800"]

    def scenes(self):
        holed = mk_instance("art \u00e9", ARTERY, square(50.0, 50.0, 20.0), holes=(square(50.0, 50.0, 5.0),))
        ints = mk_instance("ints", GLOMERULUS, ((0, 0), (10, 0), (10, 10)))
        odd = [mk_detection(did, 0.1 * k, -1e-300 * k, MONOCYTE if k % 2 else LYMPHOCYTE, 0.5)
               for k, did in enumerate(self.ODD_IDS)]
        odd.append(Detection("other", (1e308, -0.0), CellClass(OTHER, "mast \u00e9"), 1.0))
        ints_table = DetectionTable.from_labels(["i0", "i1"], np.array([1, 2]), np.array([3, 4]),
                                                np.array([1, 0]), [LYMPHOCYTE] * 2, CellClass)
        spec = SceneSpec(section_id="syn", glomerulus_cells=(3, 1), ptc_cells=(2,), background_cells=10, seed=4)
        return [
            SectionScene(section_id="empty"),
            SectionScene(section_id="holes", instances=[holed, ints], metadata={"canvas": [0, 0, 100, 100]}),
            SectionScene(section_id="\u00e9\x01", detections=odd, metadata={"k": {"nested": [1.5, None]}}),
            SectionScene(section_id="int columns", detections=ints_table),
            SectionScene(section_id="non-string id", detections=[Detection(7, (1.0, 2.0), CellClass(LYMPHOCYTE))]),
            generate_scene(spec)[0],
        ]

    def test_bytes_equal_the_generic_document(self):
        for scene in self.scenes():
            assert write_scene(scene) == json_dumps_bytes(generic_scene_document(scene)), scene.section_id

    def test_scene_and_report_skip_the_pure_python_encoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib's pure-Python encoder ran")

        scene = self.scenes()[-1]
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert read_scene(write_scene(scene)) == scene
        assert report_to_json(score_section(scene)).endswith(b"}\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "confidence", "vertex", "hole"])
    def test_non_finite_float_raises_value_error(self, bad, where):
        ring = ((0.0, 0.0), (bad if where == "vertex" else 10.0, 0.0), (10.0, 10.0))
        hole = ((1.0, 1.0), (2.0, bad if where == "hole" else 1.0), (2.0, 2.0))
        detection = Detection("d", (bad if where == "x" else 1.0, 2.0), CellClass(LYMPHOCYTE),
                              bad if where == "confidence" else 1.0)
        scene = SectionScene("s", instances=[mk_instance("i", GLOMERULUS, ring, holes=(hole,))],
                             detections=[detection])
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_scene(scene)


class TestSceneRoundTrip:
    def test_empty_scene(self):
        scene = SectionScene(section_id="empty")
        assert read_scene(write_scene(scene)) == scene

    def test_synthetic_scene_byte_identical_reserialization(self):
        spec = SceneSpec(
            section_id="rt",
            glomerulus_cells=(5, 0, 0),
            ptc_cells=(3,),
            artery_cells=(0,),
            background_cells=25,
            seed=7,
        )
        scene, _ = generate_scene(spec)
        blob = write_scene(scene)
        restored = read_scene(blob)
        assert restored == scene
        assert write_scene(restored) == blob

    def test_truncated_bytes(self):
        spec = SceneSpec(section_id="rt", glomerulus_cells=(1,), seed=3)
        scene, _ = generate_scene(spec)
        blob = write_scene(scene)
        with pytest.raises(MalformedDocument):
            read_scene(blob[: len(blob) // 2])

    def test_duplicate_ids_rejected(self):
        scene = SectionScene(
            section_id="dup",
            detections=[mk_detection("d0", 0.0, 0.0), mk_detection("d1", 1.0, 1.0)],
        )
        doc = write_scene(scene).replace(b'"d1"', b'"d0"')
        with pytest.raises(MalformedDocument):
            read_scene(doc)

    def test_self_intersecting_ring_rejected(self):
        scene = SectionScene(
            section_id="bow",
            instances=[mk_instance("bow-tie", GLOMERULUS, square(5.0, 5.0, 5.0))],
        )
        doc = json.loads(write_scene(scene))
        doc["instances"][0]["polygon"]["exterior"] = [[0, 0], [10, 10], [10, 0], [0, 14]]
        with pytest.raises(DegenerateGeometry, match="bow-tie: self-intersecting"):
            read_scene(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("instances", "polygon", None, "instances[0].polygon: expected an object"),
            ("instances", "polygon", [[0, 0]], "instances[0].polygon: expected an object"),
            ("instances", "polygon", {"exterior": SQUARE_RING, "holes": 3}, "instances[0].polygon: expected"),
            ("instances", "class", "vessel", "instances[0].class: unknown class 'vessel'"),
            ("instances", "class", 5, "instances[0].class: unknown class 5"),
            ("instances", "properties", [1, 2], "instances[0].properties: expected an object"),
            ("instances", "id", None, "instances[0]: expected an object with an 'id'"),
            ("detections", "point", None, "detections[0].point: expected [x, y] of numbers, got None"),
            ("detections", "point", "ab", "detections[0].point: expected [x, y] of numbers, got 'ab'"),
            ("detections", "point", [1.0, float("nan")], "detections[0].point: non-finite point"),
            ("detections", "class", "platelet", "detections[0].class: unknown class 'platelet'"),
            ("detections", "confidence", 1.5, "detections[0].confidence: expected a number in [0, 1]"),
        ],
    )
    def test_bad_entry_names_index_and_field(self, section, field, value, message):
        scene = SectionScene(
            section_id="s",
            instances=[mk_instance("glom", GLOMERULUS, square(5.0, 5.0, 5.0))],
            detections=[mk_detection("d0", 5.0, 5.0)],
        )
        doc = json.loads(write_scene(scene))
        entry = doc[section][0]
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        with pytest.raises(MalformedDocument) as info:
            read_scene(json.dumps(doc).encode())
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("canvas", [[0, 0, 100], [0, 0, 0, 100], [0, 0, True, 100], None])
    def test_present_invalid_canvas_rejected(self, canvas):
        doc = json.loads(write_scene(SectionScene(section_id="s", metadata={"canvas": canvas})))
        with pytest.raises(MalformedDocument, match=r"metadata\.canvas: expected"):
            read_scene(json.dumps(doc).encode())


SCENE_A = {"id": "a", "class": "lymphocyte", "point": [1, 2], "confidence": 0.5}


def scene_detections(*entries):
    return json.dumps({"section_id": "s", "instances": [], "detections": list(entries)}).encode()


class TestSceneDetectionPrecedence:
    """Several defects in one scene's detections: the first entry's first
    check is raised, and a repeated id ranks after its own entry's checks."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param([SCENE_A, SCENE_A, {**SCENE_A, "id": "b", "point": ["x", 0]}],
                         "duplicate detection id 'a'", id="duplicate-before-later-point"),
            pytest.param([SCENE_A, {**SCENE_A, "id": "b", "point": ["x", 0]}, SCENE_A],
                         "detections[1].point: expected [x, y] of numbers, got ['x', 0]",
                         id="point-before-later-duplicate"),
            pytest.param([SCENE_A, {**SCENE_A, "confidence": 2}],
                         "detections[1].confidence: expected a number in [0, 1], got 2",
                         id="own-confidence-before-duplicate"),
            pytest.param([{"id": "a", "class": "platelet"}], "detections[0].class: unknown class 'platelet'",
                         id="class-before-point"),
            pytest.param([{"id": 3, "class": "platelet"}], "detections[0].id: expected a string, got 3",
                         id="id-before-class"),
            pytest.param([{**SCENE_A, "confidence": -1}, 3],
                         "detections[0].confidence: expected a number in [0, 1], got -1",
                         id="confidence-before-later-non-object"),
            pytest.param([SCENE_A, {**SCENE_A, "id": "b", "point": [math.inf, 0]}, SCENE_A],
                         "detections[1].point: non-finite point coordinates [inf, 0]",
                         id="non-finite-before-later-duplicate"),
            pytest.param([{"class": "lymphocyte", "point": [1, 2]}, {**SCENE_A, "point": ["x", 0]}],
                         "detections[0]: expected an object with an 'id'", id="missing-id-before-later-point"),
        ],
    )
    def test_first_defect_in_document_order(self, entries, message):
        with pytest.raises(MalformedDocument) as info:
            read_scene(scene_detections(*entries))
        assert str(info.value) == message


# Values a detection entry may hold where a number belongs but no number in
# range does: a bool, a string, null, an int beyond the float range, NaN, an
# infinity, and numbers outside [0, 1].
ODD_NUMBERS = st.sampled_from([True, False, "1", None, 10**400, -(10**400), math.nan, math.inf, -math.inf,
                               2, -0.5])
GOOD_NUMBERS = st.one_of(st.integers(-5, 5), st.floats(-10.0, 10.0))
ENTRY_DEFECTS = ["non-object", "missing label", "bad label", "missing point", "bad point", "short point",
                 "bad coordinate", "bad confidence"]
SCENE_DEFECTS = ENTRY_DEFECTS + ["missing id", "bad id", "repeated id", "repeated id"]


@st.composite
def detection_entries(draw, label_key, labels, confidence_key, with_ids):
    """1-5 entries of a detection file (``with_ids`` False) or of a scene's
    detections, each valid or with one or two defects of
    :data:`ENTRY_DEFECTS`, or in a scene of :data:`SCENE_DEFECTS`."""
    entries = []
    for k in range(draw(st.integers(1, 5))):
        entry = {label_key: draw(st.sampled_from(labels)), "point": [draw(GOOD_NUMBERS), draw(GOOD_NUMBERS)]}
        if draw(st.booleans()):
            entry[confidence_key] = draw(st.floats(0.0, 1.0))
        if with_ids:
            entry["id"] = f"d{k}"
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            defect = draw(st.sampled_from(SCENE_DEFECTS if with_ids else ENTRY_DEFECTS))
            earlier = [e["id"] for e in entries if isinstance(e, dict) and isinstance(e.get("id"), str)]
            if defect == "non-object":
                entry = draw(st.sampled_from([3, "entry", [1, 2], None]))
                break
            if defect.startswith("missing"):
                entry.pop({"label": label_key, "point": "point", "id": "id"}[defect.split()[1]], None)
            elif defect == "bad label":
                entry[label_key] = draw(st.sampled_from([None, 3, "platelet", ["lymphocyte"]]))
            elif defect == "bad point":
                entry["point"] = draw(st.sampled_from(["xy", None, {"x": 1}, 1.5]))
            elif defect == "short point":
                entry["point"] = draw(st.lists(GOOD_NUMBERS, max_size=1))
            elif defect == "bad coordinate" and isinstance(entry.get("point"), list) and entry["point"]:
                entry["point"][draw(st.integers(0, len(entry["point"]) - 1))] = draw(ODD_NUMBERS)
            elif defect == "bad confidence":
                entry[confidence_key] = draw(ODD_NUMBERS)
            elif defect == "bad id":
                entry["id"] = draw(st.sampled_from([3, None, ["d0"]]))
            elif defect == "repeated id" and earlier:
                entry["id"] = draw(st.sampled_from(earlier))
        entries.append(entry)
    return entries


def detection_outcome(parse, *args):
    """The rows ``parse`` gives, with the exact reprs of their numbers, or
    the type and text of its error."""
    try:
        return [(d.id, repr(d.point), d.cls, repr(d.confidence)) for d in parse(*args)]
    except (MalformedDocument, SchemaViolation) as exc:
        return (type(exc), str(exc))


class TestDetectionPass:
    """The one pass of each detection reader against the per-entry oracle."""

    @given(entries=detection_entries("name", ["lymphocyte", "Monocyte", "plasma cell"], "probability", False),
           min_confidence=st.sampled_from([0.0, 0.5]), classes=st.sampled_from([None, KNOWN_CELL_KINDS]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_parse_detections_agrees_with_the_per_entry_oracle(self, entries, min_confidence, classes):
        data = detection_doc(entries)
        assert detection_outcome(parse_detections, data, min_confidence, classes) == detection_outcome(
            per_entry_parse_detections, data, min_confidence, classes)

    @given(entries=detection_entries("class", ["lymphocyte", "monocyte", "other", "other:mast cell"],
                                     "confidence", True))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_read_scene_agrees_with_the_per_entry_oracle(self, entries):
        data = scene_detections(*entries)
        assert detection_outcome(lambda: read_scene(data).detections) == detection_outcome(
            per_entry_scene_detections, json.loads(data)["detections"])


class TestNumberRule:
    @pytest.mark.parametrize(
        "value, number",
        [
            (1.5, 1.5),
            (np.float64(2.5), 2.5),
            (3, 3.0),
            (np.int64(4), 4.0),
            pytest.param(10**400, math.inf, id="huge-int"),
            pytest.param(-(10**400), -math.inf, id="huge-negative-int"),
            (True, None),
            ("1.5", None),
            (None, None),
            ([1.0], None),
        ],
    )
    def test_as_number(self, value, number):
        assert as_number(value) == number
        assert number is None or type(as_number(value)) is float

    def test_as_number_passes_nan_through(self):
        assert math.isnan(as_number(float("nan")))

    @pytest.mark.parametrize("value, integer", [(2, 2), (2.0, 2), (2**60 + 1, 2**60 + 1), (-3, -3)])
    def test_checked_integer_accepts(self, value, integer):
        got = checked_integer(value, "k", MalformedDocument)
        assert got == integer and type(got) is int

    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), 10**400, "2", True, None],
                             ids=["fraction", "nan", "inf", "huge-int", "string", "bool", "null"])
    def test_checked_integer_rejects(self, value):
        with pytest.raises(MalformedDocument, match="^k: expected an integer"):
            checked_integer(value, "k", MalformedDocument)

    @pytest.mark.parametrize(
        "values",
        [
            [1.5, -0.0, 5e-324, 1e308],
            [3, -7, 0, 2**53 + 1],
            [2**63 + 1, -(2**63) - 1, 2**64 + 3, 0.25],
            pytest.param([2**1024, -(2**1024), 1.0], id="ints-beyond-the-float-range"),
            pytest.param([10**400, 2.0], id="int-of-401-digits"),
            pytest.param([np.float64(2.5), 1], id="numpy-scalar"),
            [],
        ],
    )
    def test_number_column_is_bit_equal_to_as_number(self, values):
        expected = np.array(list(map(as_number, values)), dtype=np.float64)
        column, is_number = _number_column(values)
        assert column.tobytes() == expected.tobytes() and is_number.all()

    @pytest.mark.parametrize("values", [[1.0, True], [False], [1, "2"], [None, 1.0]])
    def test_number_column_rejects_what_as_number_rejects(self, values):
        column, is_number = _number_column(values)
        assert is_number.tolist() == [as_number(v) is not None for v in values]
        assert np.isnan(column[~is_number]).all()

    def test_probability_rule_is_the_scene_confidence_rule(self):
        for value in ("0.7", True, 10**400, float("nan"), -0.1):
            with pytest.raises(SchemaViolation, match=r"points\[0\]\.probability"):
                parse_detections(detection_doc([{"name": "lymphocyte", "point": [0, 0], "probability": value}]))
            scene = json.loads(write_scene(SectionScene("s", detections=[mk_detection("d0", 0.0, 0.0)])))
            scene["detections"][0]["confidence"] = value
            with pytest.raises(MalformedDocument, match=r"detections\[0\]\.confidence"):
                read_scene(json.dumps(scene).encode())


# ---------------------------------------------------------------------------
# ring validation: the batched sweep against the all-pairs oracle

# Simple, area 3226.74, first four vertices on one nearly straight side.  The
# float predicate calls its edges 0 and 2 a proper crossing although their
# closed bounding boxes are disjoint.
NEAR_COLLINEAR_RING = [
    [185.3072604315056, 5.79868618632535],
    [219.1222130306665, 27.37753233601408],
    [222.75880525430526, 29.698205827214018],
    [253.02687057001216, 49.01362325330783],
    [262.3820025677414, -40.31345541868998],
]


def expected_first_bad(rings):
    flags = [naive_ring_self_intersects(r) for r in rings]
    return flags.index(True) if True in flags else -1


def star_ring(n, seed):
    """Simple ring: one vertex per equal angular sector, at jittered angle and radius."""
    rng = np.random.default_rng(seed)
    angles = (np.arange(n) + rng.uniform(0.05, 0.95, n)) * (2 * math.pi / n)
    radii = rng.uniform(10.0, 50.0, n)
    return tuple(
        (float(100.0 + r * math.cos(a)), float(100.0 + r * math.sin(a))) for a, r in zip(angles, radii)
    )


def comb_ring(teeth, crossing_tooth=None):
    """Zig-zag between x = 1 and x = 100, so every edge overlaps every other
    in x; moving one tooth tip below the previous one makes the ring cross."""
    pts = [(0.0, 0.0)]
    for k in range(teeth):
        tip_y = 2.0 * k + 1 if k != crossing_tooth else 2.0 * k - 2.5
        pts += [(100.0, 2.0 * k), (1.0, tip_y)]
    pts += [(100.0, 2.0 * teeth), (0.0, 2.0 * teeth)]
    return tuple(pts)


def first_self_intersecting_ring(rings):
    """The sweep over clean rings given as vertex tuples, each ring its own polygon."""
    return _EdgeTable.of([Polygon(exterior=r) for r in rings]).first_self_intersecting_ring()


def clean_or_none(coords):
    try:
        return clean_ring(coords, "r")
    except DegenerateGeometry:
        return None


grid_coords = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=12)
batch_rings = st.lists(
    st.one_of(
        grid_coords.map(clean_or_none),
        st.builds(star_ring, st.integers(3, 40), st.integers(0, 2**32 - 1)),
    ),
    min_size=1,
    max_size=8,
).map(lambda rings: [r for r in rings if r is not None])


class TestRingValidation:
    @pytest.mark.parametrize(
        "coords, bad",
        [
            ([(0, 0), (4, 0), (4, 4), (0, 4)], False),
            ([(0, 0), (10, 10), (10, 0), (0, 14)], True),  # bow-tie
            ([(0, 0), (6, 0), (6, 3), (5, 0), (2, 0), (2, -3)], True),  # collinear overlap
            ([(0, 0), (6, 0), (6, 6), (4, 6), (3, 0), (2, 6), (0, 6)], True),  # vertex on an edge
            ([(0, 0), (4, 0), (4, 4), (2, 0)], True),  # spike at vertex 0
            ([(0, 0), (4, 0), (4, 4), (0, 4), (0, 6)], True),  # spike at vertex n-1
            ([(0, 0), (4, 0), (4, 4), (4, 2), (0, 4)], True),  # spike mid-ring
            ([(0, 0), (0, 0), (4, 0), (4, 4), (4, 4), (0, 4), (0, 0)], False),  # repeats cleaned
            ([(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)], True),  # repeated vertex
            ([(0, 0), (3, 0), (3, 1), (0, 1), (0, 2), (3, 2), (3, 3), (0, 3)], True),  # 0/n-1 wrap
            (NEAR_COLLINEAR_RING, False),
        ],
    )
    def test_fixed_rings_match_oracle(self, coords, bad):
        ring = clean_ring(coords, "r")
        assert naive_ring_self_intersects(ring) is bad
        assert first_self_intersecting_ring([ring]) == (0 if bad else -1)

    @pytest.mark.parametrize("n", [3, 4, 5, 17, 200, 2000])
    def test_simple_star_rings_accepted(self, n):
        ring = star_ring(n, seed=n)
        assert not naive_ring_self_intersects(ring)
        assert first_self_intersecting_ring([ring]) == -1

    def test_comb_ring_spans_several_pair_blocks(self):
        good = comb_ring(400)
        lo_x = np.minimum([p[0] for p in good], [p[0] for p in good[1:] + good[:1]])
        hi_x = np.maximum([p[0] for p in good], [p[0] for p in good[1:] + good[:1]])
        overlapping = (lo_x[:, None] <= hi_x[None, :]) & (lo_x[None, :] <= hi_x[:, None])
        assert np.count_nonzero(np.triu(overlapping, 1)) > 3 * geometry._BLOCK_PAIRS
        bad = comb_ring(400, crossing_tooth=399)
        assert not naive_ring_self_intersects(good)
        assert naive_ring_self_intersects(bad)
        assert first_self_intersecting_ring([good]) == -1
        assert first_self_intersecting_ring([good, bad, good]) == 1
        assert first_self_intersecting_ring([good, good, bad, bad]) == 2

    @given(grid_coords.map(clean_or_none))
    @settings(max_examples=400, deadline=None)
    def test_grid_rings_match_oracle(self, ring):
        assume(ring is not None)
        assert first_self_intersecting_ring([ring]) == expected_first_bad([ring])

    @given(batch_rings)
    @settings(max_examples=200, deadline=None)
    def test_mixed_batches_report_first_bad_ring(self, rings):
        assert first_self_intersecting_ring(rings) == expected_first_bad(rings)

    @pytest.mark.parametrize(
        "ring, message",
        [
            # the shoelace sum is inf - inf = NaN, which is not == 0.0
            pytest.param([[1e200, 1e200], [2e200, 2e200], [3e200, 3e200]], "ring has zero area",
                         id="collinear-beyond-float-products"),
            # exactly zero signed area, as any symmetric bow-tie has
            pytest.param([[-1e308, -1e308], [1e308, 1e308], [1e308, -1e308], [-1e308, 1e308]],
                         "ring has zero area", id="bow-tie-across-float-range"),
            # non-zero area, so the sweep decides; its orientations overflow
            pytest.param([[-1e308, -1e308], [1e308, 1e308], [1e308, -1e308], [-1e308, 1.5e308]],
                         "self-intersecting ring", id="lopsided-bow-tie-across-float-range"),
        ],
    )
    def test_rings_whose_float_predicates_overflow_are_rejected(self, ring, message):
        with pytest.raises(DegenerateGeometry, match=f"feature wide: {message}"):
            parse_structures(feature_collection(polygon_feature("wide", "glomerulus", [ring])))

    def test_sweep_decides_overflowing_orientations_exactly(self):
        bow_tie = ((-1e308, -1e308), (1e308, 1e308), (1e308, -1e308), (-1e308, 1e308))
        wide_square = ((-1e308, -1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, 1e308))
        assert first_self_intersecting_ring([wide_square, bow_tie]) == 1
        (inst,) = parse_structures(feature_collection(polygon_feature("wide", "glomerulus", [wide_square])))
        assert geometry.ring_area(inst.polygon.exterior) == math.inf

    def test_near_collinear_ring_accepted_by_both_parsers(self):
        data = feature_collection(polygon_feature("thin", "ptc", [NEAR_COLLINEAR_RING]))
        (inst,) = parse_structures(data)
        assert geometry.ring_area(inst.polygon.exterior) == pytest.approx(3226.74, abs=0.01)
        scene = SectionScene(section_id="s", instances=[inst])
        assert read_scene(write_scene(scene)) == scene


# ---------------------------------------------------------------------------
# error precedence: the first defect in document order is the one raised

BOWTIE = [[0, 0], [10, 10], [10, 0], [0, 14]]
HOLE_OUTSIDE = [SQUARE_RING, FAR_SQUARE_RING]

# name -> (entries as (id, rings), error type, message; {kind} is "feature" or "instance")
DEFECTS = {
    "non-numeric vertex": (
        [("nn", [[[0, 0], ["a", 1], [1, 1]]])],
        MalformedDocument,
        "{kind} nn: non-numeric ring vertex ['a', 1]",
    ),
    "duplicate id": (
        [("dup", [SQUARE_RING]), ("dup", [FAR_SQUARE_RING])],
        MalformedDocument,
        "duplicate instance id 'dup'",
    ),
    "hole outside": ([("holey", HOLE_OUTSIDE)], DegenerateGeometry, "{kind} holey: hole 0 is not inside the exterior ring"),
}
SELF_INTERSECTION = (DegenerateGeometry, "{kind} bow: self-intersecting ring")


def structures_doc(entries):
    return feature_collection(*(polygon_feature(iid, "glomerulus", rings) for iid, rings in entries))


def scene_doc(entries):
    instances = [
        {"id": iid, "class": "glomerulus", "polygon": {"exterior": rings[0], "holes": rings[1:]}}
        for iid, rings in entries
    ]
    return json.dumps({"section_id": "s", "instances": instances, "detections": []}).encode()


PARSERS = {
    "parse_structures": (parse_structures, structures_doc, "feature"),
    "read_scene": (read_scene, scene_doc, "instance"),
}


class TestErrorPrecedence:
    @pytest.mark.parametrize("parser", sorted(PARSERS))
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("bowtie_first", [True, False])
    def test_earlier_defect_wins(self, parser, defect, bowtie_first):
        parse, build, kind = PARSERS[parser]
        entries, error, message = DEFECTS[defect]
        bow = [("bow", [BOWTIE])]
        doc = build(bow + entries if bowtie_first else entries + bow)
        error, message = SELF_INTERSECTION if bowtie_first else (error, message)
        with pytest.raises(error) as info:
            parse(doc)
        assert type(info.value) is error
        assert str(info.value) == message.format(kind=kind)

    @pytest.mark.parametrize("parser", sorted(PARSERS))
    @pytest.mark.parametrize(
        "entries, owner",
        [
            ([("bow", [BOWTIE, FAR_SQUARE_RING])], "bow"),  # bow-tie exterior, hole outside it
            ([("bow", [SQUARE_RING]), ("bow", [BOWTIE])], "bow"),  # the duplicate is the bow-tie
            ([("ok", [SQUARE_RING, BOWTIE]), ("bow", [BOWTIE])], "ok"),  # bow-tie hole comes first
        ],
    )
    def test_self_intersection_found_before_later_check_on_same_instance(self, parser, entries, owner):
        parse, build, kind = PARSERS[parser]
        with pytest.raises(DegenerateGeometry) as info:
            parse(build(entries))
        assert str(info.value) == f"{kind} {owner}: self-intersecting ring"


def glomerulus(iid, polygon):
    return {"id": iid, "class": "glomerulus", "polygon": polygon}


def scene_instances(*instances):
    return json.dumps({"section_id": "s", "instances": list(instances), "detections": []}).encode()


BOW_FEATURE = polygon_feature("a", "glomerulus", [BOWTIE])
BOW_INSTANCE = glomerulus("a", {"exterior": BOWTIE, "holes": []})
SQUARE_INSTANCE = glomerulus("a", {"exterior": SQUARE_RING, "holes": []})
FAR_SQUARE_INSTANCE = glomerulus("a", {"exterior": FAR_SQUARE_RING, "holes": []})
NAN_AFTER_SHORT_VERTEX = [[0, 0], [1], [math.nan, 0], [4, 4]]
NO_RINGS = polygon_feature("b", "glomerulus", [])
EMPTY_MULTI = polygon_feature("b", "glomerulus", [], "MultiPolygon")
NO_POLYGON = glomerulus("b", "polygon")


class TestEntryPrecedence:
    """A defect in an entry's rings against one found while the entries are
    read (a gather error), an entry without rings and a ring that is not an
    array: the first in document order is raised."""

    @pytest.mark.parametrize(
        "parse, data, error, message",
        [
            pytest.param(parse_structures, feature_collection(BOW_FEATURE, 3), DegenerateGeometry,
                         "feature a: self-intersecting ring", id="bow-tie-then-non-object"),
            pytest.param(parse_structures, feature_collection(3, BOW_FEATURE), MalformedDocument,
                         "features[0] is not an object", id="non-object-then-bow-tie"),
            pytest.param(parse_structures, feature_collection(BOW_FEATURE, NO_RINGS), DegenerateGeometry,
                         "feature a: self-intersecting ring", id="bow-tie-then-no-rings"),
            pytest.param(parse_structures, feature_collection(NO_RINGS, BOW_FEATURE), MalformedDocument,
                         "feature b: polygon has no rings", id="no-rings-then-bow-tie"),
            pytest.param(parse_structures, feature_collection(BOW_FEATURE, EMPTY_MULTI), DegenerateGeometry,
                         "feature a: self-intersecting ring", id="bow-tie-then-empty-multipolygon"),
            pytest.param(parse_structures, feature_collection(EMPTY_MULTI, BOW_FEATURE), MalformedDocument,
                         "feature b: empty MultiPolygon", id="empty-multipolygon-then-bow-tie"),
            pytest.param(parse_structures,
                         feature_collection(polygon_feature("a", "glomerulus", [SQUARE_RING, 5]), BOW_FEATURE),
                         MalformedDocument, "feature a: ring is not a coordinate array", id="ring-not-an-array"),
            pytest.param(parse_structures,
                         feature_collection(polygon_feature("a", "glomerulus", [NAN_AFTER_SHORT_VERTEX])),
                         MalformedDocument, "feature a: ring vertex [1] is not an [x, y] pair",
                         id="short-vertex-before-nan"),
            pytest.param(parse_structures,
                         feature_collection(polygon_feature("a", "glomerulus", [SQUARE_RING]),
                                            polygon_feature("a", "glomerulus", [FAR_SQUARE_RING]),
                                            polygon_feature("b", "glomerulus", [SQUARE_RING], "Point")),
                         MalformedDocument, "duplicate instance id 'a'", id="duplicate-id-then-unsupported-geometry"),
            pytest.param(read_scene, scene_instances(BOW_INSTANCE, 3), DegenerateGeometry,
                         "instance a: self-intersecting ring", id="scene-bow-tie-then-non-object"),
            pytest.param(read_scene, scene_instances(3, BOW_INSTANCE), MalformedDocument,
                         "instances[0]: expected an object with an 'id'", id="scene-non-object-then-bow-tie"),
            pytest.param(read_scene, scene_instances(BOW_INSTANCE, NO_POLYGON), DegenerateGeometry,
                         "instance a: self-intersecting ring", id="scene-bow-tie-then-polygon-not-an-object"),
            pytest.param(read_scene, scene_instances(NO_POLYGON, BOW_INSTANCE), MalformedDocument,
                         "instances[0].polygon: expected an object with 'exterior' and 'holes'",
                         id="scene-polygon-not-an-object-then-bow-tie"),
            pytest.param(read_scene, scene_instances(glomerulus("a", {"holes": []}), BOW_INSTANCE),
                         MalformedDocument, "instance a: ring is not a coordinate array", id="scene-no-exterior"),
            pytest.param(read_scene, scene_instances(glomerulus("a", {"exterior": SQUARE_RING, "holes": [5]})),
                         MalformedDocument, "instance a: ring is not a coordinate array", id="scene-hole-not-an-array"),
            pytest.param(read_scene, scene_instances(glomerulus("a", {"exterior": NAN_AFTER_SHORT_VERTEX})),
                         MalformedDocument, "instance a: ring vertex [1] is not an [x, y] pair",
                         id="scene-short-vertex-before-nan"),
            pytest.param(read_scene, scene_instances(SQUARE_INSTANCE, FAR_SQUARE_INSTANCE, 3), MalformedDocument,
                         "duplicate instance id 'a'", id="scene-duplicate-id-then-non-object"),
        ],
    )
    def test_first_defect_in_document_order(self, parse, data, error, message):
        with pytest.raises(error) as info:
            parse(data)
        assert type(info.value) is error
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# the columnar ring pass against the per-ring path

GOOD_COORDS = st.one_of(
    st.integers(-4, 4),
    st.integers(-4000, 4000).map(lambda k: k / 1000),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 1e308, -1e308]),
)
ODD_COORDS = st.sampled_from(
    [2**1024, -(2**1024), 10**400, 2**63 + 1, math.nan, math.inf, -math.inf, True, False, "1", None]
)
COORDS = st.one_of(GOOD_COORDS, GOOD_COORDS, GOOD_COORDS, ODD_COORDS)
VERTICES = st.one_of(
    st.lists(COORDS, min_size=2, max_size=2),
    st.lists(COORDS, min_size=2, max_size=2),
    st.lists(COORDS, min_size=3, max_size=3),
    st.lists(COORDS, max_size=1),
    st.sampled_from(["xy", None, 3, {"x": 1}]),
)


def with_repeats(ring, repeats, close):
    """``ring`` with the vertices at ``repeats`` written twice in a row,
    and its first vertex again at the end if ``close``."""
    out = []
    for k, vertex in enumerate(ring):
        out += [vertex] * (1 + repeats.count(k))
    return out + ring[:1] if close else out


def near_line_triangle(x0, y0, x1, y1, t, offset):
    """Three vertices with 3 decimals whose third lies on the line through
    the first two, nudged ``offset`` thousandths off it."""
    return [[x0 / 1000, y0 / 1000], [x1 / 1000, y1 / 1000],
            [round((x0 + t * (x1 - x0)) / 1000, 3), round((y0 + t * (y1 - y0) + offset) / 1000, 3)]]


GRID = st.integers(-3000, 3000)
RINGS = st.one_of(
    st.builds(with_repeats, st.lists(VERTICES, max_size=7), st.lists(st.integers(0, 6), max_size=3),
              st.booleans()),
    st.builds(with_repeats, st.lists(st.lists(GOOD_COORDS, min_size=2, max_size=2), min_size=3, max_size=6),
              st.lists(st.integers(0, 5), max_size=3), st.booleans()),
    st.builds(near_line_triangle, GRID, GRID, GRID, GRID, st.integers(-3, 3), st.integers(-1, 1)),
    st.lists(st.lists(st.sampled_from([0.0, 5e-324, 1e-323, 1.5e-323, 1.0, 2.0]), min_size=2, max_size=2),
             min_size=3, max_size=4),
    st.sampled_from([[], "ring", None]),
)
TRIANGLES = st.one_of(
    st.builds(near_line_triangle, GRID, GRID, GRID, GRID, st.integers(-3, 3), st.integers(-1, 1)),
    st.builds(with_repeats, st.lists(st.lists(GOOD_COORDS, min_size=2, max_size=2), min_size=3, max_size=3),
              st.lists(st.integers(0, 2), max_size=2), st.booleans()),
    st.builds(lambda n, seed: [list(p) for p in star_ring(n, seed)], st.integers(3, 30), st.integers(0, 99)),
)
DOCUMENTS = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.lists(RINGS, min_size=1, max_size=3)),
        min_size=1,
        max_size=4,
    ),
    # mostly accepted: one simple ring per instance, few of zero area
    st.lists(TRIANGLES, min_size=1, max_size=5).map(lambda rings: [(f"i{k}", [r]) for k, r in enumerate(rings)]),
)


def outcome(parse, data):
    """What ``parse`` makes of ``data``: the instances, with the exact
    reprs of their coordinates, or the type and text of its error."""
    try:
        return [(i.id, i.cls, repr(i.polygon), i.properties) for i in parse(data)]
    except (MalformedDocument, DegenerateGeometry) as exc:
        return (type(exc), str(exc))


class TestColumnarRingPass:
    @given(DOCUMENTS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_agrees_with_the_per_ring_path(self, entries):
        data = structures_doc(entries)
        assert outcome(parse_structures, data) == outcome(per_ring_parse_structures, data)

    @given(st.lists(st.one_of(RINGS, TRIANGLES), min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_columns_are_the_cleaned_rings(self, rings):
        cleaned, first = [], None  # the first ring cleaning rejects or that crosses itself once cleaned
        for r, ring in enumerate(rings):
            try:
                cleaned.append(clean_ring(ring, "r"))
            except (MalformedDocument, DegenerateGeometry) as exc:
                first = (r, str(exc))
                break
            if naive_ring_self_intersects(cleaned[-1]):
                first = (r, "r: self-intersecting ring")
                break
        columns = _ring_columns(rings, np.ones(len(rings), dtype=np.intp))
        assert (columns.error is not None) == (first is not None)
        if columns.error is not None:
            assert (columns.bad, f"r: {columns.error}") == first
        else:
            assert repr([poly.exterior for poly in columns.edges.polygons()]) == repr(cleaned)
            table = _EdgeTable.of([Polygon(exterior=ring) for ring in cleaned])
            for name in ("xy", "ring_size", "ring_start", "first_ring", "x2", "y2"):
                assert np.array_equal(getattr(columns.edges, name), getattr(table, name)), name

    @pytest.mark.parametrize(
        "top, accepted",
        [
            # the shoelace sum is 5e-324, which halves to 0.0
            pytest.param(5e-324, False, id="sum-of-the-least-subnormal"),
            pytest.param(1e-323, True, id="sum-of-twice-the-least-subnormal"),
        ],
    )
    def test_subnormal_triangle_area_is_the_float_rule(self, top, accepted):
        data = feature_collection(polygon_feature("t", "ptc", [[[0, 0], [1, 0], [0, top]]]))
        if accepted:
            (inst,) = parse_structures(data)
            assert inst.polygon.exterior == ((0.0, 0.0), (1.0, 0.0), (0.0, top))
        else:
            with pytest.raises(DegenerateGeometry) as info:
                parse_structures(data)
            assert str(info.value) == "feature t: ring has zero area"

    def test_zero_sequential_sum_with_a_non_zero_vector_sum_is_rejected(self):
        # 20 collinear vertices: ring_area's sum in vertex order is 0.0, the
        # vector sum of the same terms -5.55e-17, inside the band
        ring = [[1.29, 0.321], [1.182, 0.366], [0.654, 0.586], [1.47, 0.246], [1.482, 0.241],
                [1.602, 0.191], [1.59, 0.196], [1.158, 0.376], [1.35, 0.296], [1.566, 0.206],
                [0.69, 0.571], [1.002, 0.441], [0.918, 0.476], [1.494, 0.236], [1.542, 0.216],
                [0.93, 0.471], [0.786, 0.531], [1.494, 0.236], [1.038, 0.426], [0.702, 0.566]]
        terms = [x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1])]
        assert geometry.ring_area(ring) == 0.0 and np.add.reduceat(terms, [0])[0] != 0.0
        assert _ring_columns([ring], np.ones(1, dtype=np.intp)).error is not None
        with pytest.raises(DegenerateGeometry, match="^r: ring has zero area$"):
            clean_ring(ring, "r")

    def test_valid_documents_never_clean_ring_by_ring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_vertex_error called on a valid document")

        monkeypatch.setattr(ingest, "_vertex_error", refuse)
        hole = [[2, 2], [4, 2], [4, 4], [2, 4]]
        data = feature_collection(
            polygon_feature("f1", "glomerulus", [SQUARE_RING, hole]),
            polygon_feature("f2", "artery", [[FAR_SQUARE_RING], [NEAR_COLLINEAR_RING]], "MultiPolygon"),
        )
        instances = parse_structures(data)
        assert [i.id for i in instances] == ["f1", "f2#0", "f2#1"]
        spec = SceneSpec(seed=3, glomerulus_cells=[2, 5], ptc_cells=[1], artery_cells=[0], background_cells=20)
        scene, _ = generate_scene(spec)
        assert read_scene(write_scene(scene)) == scene
        assert read_scene(write_scene(SectionScene("s", instances=instances))).instances == instances


@st.composite
def holey_polygon_holes(draw):
    """Up to 4 hole rings, rectangles or diamonds on the integer grid, for
    the exterior ``HOLE_EXTERIOR``: each inside it, placed anywhere around
    it (outside or straddling it), inside the box of an earlier hole or
    duplicating an earlier hole, and starting at any of its vertices."""
    boxes, holes = [], []
    for _ in range(draw(st.integers(0, 4))):
        place = draw(st.sampled_from(["inside", "anywhere", "nested", "duplicated"] if boxes else ["inside", "anywhere"]))
        if place == "inside":
            x, y = draw(st.integers(0, 99)), draw(st.integers(0, 99))
            box = (x, y, draw(st.integers(1, 100 - x)), draw(st.integers(1, 100 - y)))
        elif place == "anywhere":
            box = (draw(st.integers(-30, 130)), draw(st.integers(-30, 130)), draw(st.integers(1, 60)),
                   draw(st.integers(1, 60)))
        else:
            x, y, w, h = box = draw(st.sampled_from(boxes))
            if place == "nested":
                x0, y0 = draw(st.integers(x, x + w - 1)), draw(st.integers(y, y + h - 1))
                box = (x0, y0, draw(st.integers(1, x + w - x0)), draw(st.integers(1, y + h - y0)))
        x, y, w, h = box
        if draw(st.booleans()):
            ring = [[x, y], [x + w, y], [x + w, y + h], [x, y + h]]
        else:
            ring = [[x + w / 2, y], [x + w, y + h / 2], [x + w / 2, y + h], [x, y + h / 2]]
        k = draw(st.integers(0, 3))
        boxes.append(box)
        holes.append(ring[k:] + ring[:k])
    return holes


HOLE_EXTERIOR = [[0, 0], [100, 0], [100, 100], [0, 100]]


class TestHoleOracle:
    @given(st.lists(holey_polygon_holes(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_hole_errors_are_the_oracles(self, polygons):
        """A document is rejected for its first polygon with a bad hole,
        with the vertex-by-vertex oracle's message, and accepted when the
        oracle finds no bad hole."""
        data = feature_collection(
            *(polygon_feature(f"p{k}", "artery", [HOLE_EXTERIOR, *holes]) for k, holes in enumerate(polygons))
        )
        errors = (naive_first_bad_hole(HOLE_EXTERIOR, holes) for holes in polygons)
        expected = next((f"feature p{k}: {error}" for k, error in enumerate(errors) if error), None)
        try:
            instances = parse_structures(data)
        except DegenerateGeometry as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert [len(i.polygon.holes) for i in instances] == list(map(len, polygons))


# ---------------------------------------------------------------------------
# documents with a defect in several entries

def hole_square(slot, inset=0):
    """A square hole of side ``20 - 2 * inset`` in ``slot`` (0-2) of ``HOLE_EXTERIOR``."""
    x0, y0, x1, y1 = 10 + 30 * slot + inset, 10 + inset, 30 + 30 * slot - inset, 30 - inset
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


# ring defect -> (ring, error type, message after "<kind> <id>: ")
RING_DEFECTS = {
    "non-numeric vertex": ([[0, 0], ["a", 1], [1, 1]], MalformedDocument, "non-numeric ring vertex ['a', 1]"),
    "fewer than 3 distinct vertices": ([[5, 5], [6, 6], [6, 6], [5, 5]], DegenerateGeometry,
                                       "ring has fewer than 3 distinct vertices"),
    "zero area": ([[1, 1], [2, 2], [3, 3]], DegenerateGeometry, "ring has zero area"),
    # as an exterior, its clean holes lie outside it: a later check that must not win
    "bow-tie": (BOWTIE, DegenerateGeometry, "self-intersecting ring"),
}


@st.composite
def defective_entries(draw):
    """1-6 entries ``(id, rings, expected)``, each clean (``expected`` None)
    or with one defect, ``expected`` being the error that defect raises as
    ``(type, message)``; ``{kind}`` in a message is the parser's entry kind.
    A defective ring may be followed by another in its entry."""
    entries = []
    for k in range(draw(st.integers(1, 6))):
        iid = f"e{k}"
        turn = draw(st.integers(0, 3))
        rings = [HOLE_EXTERIOR[turn:] + HOLE_EXTERIOR[:turn]]
        rings += [hole_square(slot) for slot in range(draw(st.integers(0, 2)))]
        defect = draw(st.sampled_from([None, *RING_DEFECTS, "hole outside", "nested holes", "duplicate id"]))
        expected = None
        if defect in RING_DEFECTS:
            r = draw(st.integers(0, len(rings) - 1))
            rings[r], error, message = RING_DEFECTS[defect]
            expected = (error, f"{{kind}} {iid}: {message}")
            if r + 1 < len(rings) and draw(st.booleans()):  # a later ring's defect, which must not win
                later = draw(st.sampled_from(sorted(RING_DEFECTS)))
                rings[draw(st.integers(r + 1, len(rings) - 1))] = RING_DEFECTS[later][0]
        elif defect == "hole outside":
            h = draw(st.integers(0, len(rings) - 1))
            rings.insert(1 + h, [[200, 200], [220, 200], [220, 220], [200, 220]])
            expected = (DegenerateGeometry, f"{{kind}} {iid}: hole {h} is not inside the exterior ring")
        elif defect == "nested holes":
            outer, inner = draw(st.permutations([0, 1]))
            pair = [None, None]
            pair[outer], pair[inner] = hole_square(2), hole_square(2, inset=5)
            h = draw(st.integers(0, len(rings) - 1))
            rings[1 + h:1 + h] = pair
            expected = (DegenerateGeometry, f"{{kind}} {iid}: holes {h + outer} and {h + inner} are nested")
        elif defect == "duplicate id" and entries:
            iid = draw(st.sampled_from([e[0] for e in entries]))
            expected = (MalformedDocument, f"duplicate instance id {iid!r}")
        entries.append((iid, rings, expected))
    return entries


class TestMultiDefectPrecedence:
    @pytest.mark.parametrize("parser", sorted(PARSERS))
    @given(entries=defective_entries())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_first_defect_in_document_order_is_raised(self, parser, entries):
        """The model: the first defect in (entry, ring, check) order, a
        ring's self-intersection checked as soon as that ring is cleaned."""
        parse, build, kind = PARSERS[parser]
        data = build([(iid, rings) for iid, rings, _ in entries])
        expected = next((e for _, _, e in entries if e is not None), None)
        if expected is None:
            parse(data)
            return
        error, message = expected
        with pytest.raises(error) as info:
            parse(data)
        assert type(info.value) is error
        assert str(info.value) == message.format(kind=kind)
