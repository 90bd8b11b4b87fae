"""Parsers: structures, detections, ground truth, dedup, scene round-trip."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banffscore.errors import (
    DegenerateGeometry,
    GradeOutOfRange,
    MalformedDocument,
    SchemaViolation,
)
from banffscore.ingest import (
    dedup_detections,
    parse_detections,
    parse_ground_truth,
    parse_structures,
    read_scene,
    write_scene,
)
from banffscore.model import (
    ARTERY,
    GLOMERULUS,
    LYMPHOCYTE,
    MONOCYTE,
    OTHER,
    PERITUBULAR_CAPILLARY,
    SectionScene,
)
from banffscore.synth import SceneSpec, generate_scene

from conftest import mk_detection, mk_instance, square
from oracles import greedy_dedup_quadratic


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
        assert dets[2].confidence == 1.0  # probability defaults to 1.0

    def test_threshold_above_everything_yields_empty(self):
        doc = detection_doc(
            [
                {"name": "lymphocyte", "point": [1.0, 2.0], "probability": 0.9},
                {"name": "monocyte", "point": [3.0, 4.0], "probability": 0.4},
            ]
        )
        assert parse_detections(doc, min_confidence=0.95) == []

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
        assert parse_detections(doc, min_confidence=0.0) == []
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


class TestDedupDetections:
    def test_exact_duplicate_keeps_higher_confidence(self):
        a = mk_detection("a", 5.0, 5.0, confidence=0.9)
        b = mk_detection("b", 5.0, 5.0, confidence=0.8)
        assert dedup_detections([b, a], radius=0.0) == [a]

    def test_radius_zero_keeps_distinct_points(self):
        dets = [mk_detection(f"d{i}", float(i), 0.0) for i in range(5)]
        assert dedup_detections(dets, radius=0.0) == dets

    def test_different_classes_never_suppress_each_other(self):
        a = mk_detection("a", 5.0, 5.0, kind=LYMPHOCYTE, confidence=0.9)
        b = mk_detection("b", 5.0, 5.0, kind=MONOCYTE, confidence=0.8)
        assert dedup_detections([a, b], radius=10.0) == [a, b]

    def test_suppression_radius_is_inclusive(self):
        a = mk_detection("a", 0.0, 0.0, confidence=0.9)
        b = mk_detection("b", 8.0, 0.0, confidence=0.8)
        assert dedup_detections([a, b], radius=8.0) == [a]
        assert dedup_detections([a, b], radius=7.9) == [a, b]

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
        assert dedup_detections(detections, radius=8.0) == greedy_dedup_quadratic(detections, 8.0)

    @given(
        coords=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 100)),
            max_size=40,
        ),
        radius=st.sampled_from([0.0, 1.0, 3.5, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_is_subset_and_matches_oracle(self, coords, radius):
        dets = [
            mk_detection(f"d{i}", float(x), float(y), confidence=c / 100.0)
            for i, (x, y, c) in enumerate(coords)
        ]
        out = dedup_detections(dets, radius)
        assert set(d.id for d in out) <= set(d.id for d in dets)
        assert out == greedy_dedup_quadratic(dets, radius)

    def test_identity_on_duplicate_free_input(self):
        dets = [mk_detection(f"d{i}", float(i) * 3.0, 0.0) for i in range(10)]
        assert dedup_detections(dets, radius=0.0) == dets


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
