"""Synthetic scene generation, perturbation, and sensitivity statistics."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from banffscore import synth
from banffscore.errors import ConfigError, PlacementFailure
from banffscore.geometry import contained_pairs
from banffscore.ingest import read_scene, write_scene
from banffscore.model import ARTERY, GLOMERULUS, PERITUBULAR_CAPILLARY, SectionScene
from banffscore.scoring import Unscorable, score_section
from banffscore.seeds import derive_seed
from banffscore.synth import (
    HallucinationSpec,
    PerturbationSpec,
    SceneSpec,
    generate_scene,
    perturb_scene,
    planted_grades,
    sensitivity_run,
)

from conftest import mk_detection, mk_instance, square


class TestSeedSplitting:
    def test_documented_rule_is_frozen(self):
        # SHA-256("<seed mod 2^64>:<label>") first 8 bytes big-endian.
        assert derive_seed(7, "trial:0") == 2482539241709619315
        assert derive_seed(7, "omit") == 18137686766740362081
        assert derive_seed(0, "scene") == 17001478812766290522

    def test_distinct_labels_and_seeds_split(self):
        assert derive_seed(7, "fn") != derive_seed(7, "fp")
        assert derive_seed(7, "fn") != derive_seed(8, "fn")
        assert derive_seed(-1, "fn") == derive_seed((1 << 64) - 1, "fn")


class TestGenerateScene:
    def test_quiet_scene_grades_zero(self):
        spec = SceneSpec(
            section_id="quiet",
            glomerulus_cells=(0,) * 5,
            ptc_cells=(0,) * 3,
            artery_cells=(0,) * 2,
            background_cells=100,
            seed=1,
        )
        scene, gt = generate_scene(spec)
        assert (gt.g, gt.ptc, gt.v) == (0, 0, 0)
        assert len([i for i in scene.instances if i.cls.kind == GLOMERULUS]) == 5
        assert len([i for i in scene.instances if i.cls.kind == PERITUBULAR_CAPILLARY]) == 3
        assert len([i for i in scene.instances if i.cls.kind == ARTERY]) == 2
        assert len(scene.detections) == 100

    def test_planted_counts_drive_ground_truth(self):
        spec = SceneSpec(glomerulus_cells=(5, 0, 0, 0, 0, 0, 0, 0), seed=2)
        _, gt = generate_scene(spec)
        assert gt.g == 1
        assert gt.ptc is None and gt.v is None

    def test_same_seed_byte_identical(self):
        spec = SceneSpec(
            glomerulus_cells=(4, 0), ptc_cells=(2,), artery_cells=(1,), background_cells=30, seed=7
        )
        first, _ = generate_scene(spec)
        second, _ = generate_scene(spec)
        assert write_scene(first) == write_scene(second)

    def test_different_seed_differs(self):
        spec = SceneSpec(glomerulus_cells=(1,), background_cells=5, seed=7)
        other = replace(spec, seed=8)
        assert write_scene(generate_scene(spec)[0]) != write_scene(generate_scene(other)[0])

    def test_planted_cells_live_in_their_instance(self):
        spec = SceneSpec(
            glomerulus_cells=(6, 3), ptc_cells=(4,), artery_cells=(2,), background_cells=20, seed=11
        )
        scene, _ = generate_scene(spec)
        by_id = {inst.id: inst for inst in scene.instances}
        points = [det.point for det in scene.detections]
        hits = {inst.id: oracles.package_contains(inst.polygon, points) for inst in scene.instances}
        for j, det in enumerate(scene.detections):
            inside = [iid for iid, hit in hits.items() if hit[j]]
            if det.id.startswith("bg-"):
                assert inside == []
            else:
                assert len(inside) == 1
                # cells are planted in instance order: glom-*, ptc-*, art-*
                assert inside[0] in by_id

    def test_instances_do_not_overlap(self):
        spec = SceneSpec(
            glomerulus_cells=(0,) * 6, ptc_cells=(0,) * 8, artery_cells=(0,) * 3, seed=13
        )
        scene, _ = generate_scene(spec)
        for a in scene.instances:
            for b in scene.instances:
                if a.id < b.id:
                    assert not oracles.package_contains(b.polygon, a.polygon.exterior).any()

    def test_generator_self_consistency_across_seeds(self):
        # The geometry pipeline must reproduce the planted-count grades.
        for seed in range(10):
            spec = SceneSpec(
                glomerulus_cells=(5, 4, 0, 0, 2, 0),
                ptc_cells=(7, 1, 0),
                artery_cells=(12, 0),
                background_cells=40,
                seed=seed,
            )
            scene, gt = generate_scene(spec)
            report = score_section(scene)
            assert report.grade("g") == gt.g
            assert report.grade("ptc") == gt.ptc
            assert report.grade("v") == gt.v

    def test_placement_failure_on_impossible_spec(self):
        spec = SceneSpec(canvas=(0, 0, 400, 400), glomerulus_cells=(0,) * 30, seed=5)
        with pytest.raises(PlacementFailure):
            generate_scene(spec)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SceneSpec(glomerulus_cells=(-1,))
        with pytest.raises(ConfigError):
            SceneSpec(background_cells=-2)
        with pytest.raises(ConfigError):
            SceneSpec.from_dict({"glomerulus_cells": [1], "bogus": 3})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(counts=st.lists(st.lists(st.integers(0, 20), max_size=12), min_size=3, max_size=3))
    def test_planted_grades_follow_the_grading_bands(self, counts):
        glom, ptc, art = counts
        gt = planted_grades(SceneSpec(section_id="p", glomerulus_cells=glom, ptc_cells=ptc, artery_cells=art))
        assert gt.section_id == "p"
        assert gt.g == (oracles.g_band(sum(c > 3 for c in glom), len(glom)) if glom else None)
        assert gt.ptc == (oracles.max_count_band(max(ptc)) if ptc else None)
        assert gt.v == (oracles.max_count_band(max(art)) if art else None)


def base_scene() -> SectionScene:
    spec = SceneSpec(
        section_id="base",
        glomerulus_cells=(5, 0, 0, 0, 0),
        ptc_cells=(3, 0, 0),
        artery_cells=(0, 0),
        background_cells=30,
        seed=21,
    )
    return generate_scene(spec)[0]


class TestPerturbScene:
    def test_all_zero_spec_is_identity(self):
        scene = base_scene()
        assert perturb_scene(scene, PerturbationSpec(seed=5)) == scene
        explicit_zeros = PerturbationSpec(
            omit_instance_prob={GLOMERULUS: 0.0},
            hallucinate_instances={ARTERY: HallucinationSpec(count=0, cells_per_instance=3)},
            seed=5,
        )
        assert perturb_scene(scene, explicit_zeros) == scene

    def test_deterministic_per_seed(self):
        scene = base_scene()
        pspec = PerturbationSpec(
            omit_instance_prob={PERITUBULAR_CAPILLARY: 0.5},
            detection_fn_prob=0.3,
            detection_fp_count=5,
            jitter_sigma=2.0,
            seed=17,
        )
        assert write_scene(perturb_scene(scene, pspec)) == write_scene(perturb_scene(scene, pspec))
        other = replace(pspec, seed=18)
        assert write_scene(perturb_scene(scene, pspec)) != write_scene(perturb_scene(scene, other))

    def test_omission_probability_one_drops_whole_class(self):
        scene = base_scene()
        out = perturb_scene(
            scene, PerturbationSpec(omit_instance_prob={PERITUBULAR_CAPILLARY: 1.0}, seed=3)
        )
        assert out.instances and all(
            i.cls.kind != PERITUBULAR_CAPILLARY for i in out.instances
        )
        # with every capillary gone the indicator is unscorable, not zero
        assert isinstance(score_section(out).grade("ptc"), Unscorable)

    def test_structural_omission_flips_ptc_one_to_zero(self):
        # The omission failure mode: the single inflamed capillary disappears
        # (removal filtered to that instance), the uninflamed ones survive,
        # and the grade collapses 1 -> 0.
        scene = base_scene()
        assert score_section(scene).grade("ptc") == 1
        omitted = SectionScene(
            section_id=scene.section_id,
            instances=[i for i in scene.instances if i.id != "ptc-1"],
            detections=scene.detections,
            metadata=scene.metadata,
        )
        report = score_section(omitted)
        assert report.grade("ptc") == 0

    def test_structural_hallucination_flips_v_zero_to_one(self):
        scene = base_scene()
        assert score_section(scene).grade("v") == 0
        pspec = PerturbationSpec(
            hallucinate_instances={ARTERY: HallucinationSpec(count=1, cells_per_instance=1)},
            seed=29,
        )
        perturbed = perturb_scene(scene, pspec)
        assert len(perturbed.instances) == len(scene.instances) + 1
        assert score_section(perturbed).grade("v") == 1

    def test_hallucinated_ids_skip_the_ids_the_scene_has(self):
        scene = base_scene()
        taken = {"hall-artery-1", "hall-artery-3"}
        renamed = iter(sorted(taken))
        instances = [replace(i, id=next(renamed)) if i.cls.kind == ARTERY else i for i in scene.instances]
        assert taken <= {i.id for i in instances}
        pspec = PerturbationSpec(hallucinate_instances={ARTERY: HallucinationSpec(count=3)}, seed=4)
        perturbed = perturb_scene(replace(scene, instances=instances), pspec)
        added = [i.id for i in perturbed.instances[len(instances):]]
        assert added == ["hall-artery-2", "hall-artery-4", "hall-artery-5"]

    def test_bounding_circles_are_computed_once_per_polygon(self, monkeypatch):
        scene = base_scene()
        pspec = PerturbationSpec(hallucinate_instances={ARTERY: HallucinationSpec(count=1)})
        calls = []
        hypot = math.hypot
        monkeypatch.setattr(math, "hypot", lambda *xy: calls.append(xy) or hypot(*xy))
        first = perturb_scene(scene, pspec)
        circle_calls = len(calls)
        assert perturb_scene(scene, replace(pspec, seed=1)).instances != first.instances
        # the second trial places its polygon against the cached circles only
        assert len(calls) - circle_calls < circle_calls
        for inst in scene.instances:
            cx, cy, radius = inst.polygon.bounding_circle
            b = inst.polygon.bounds
            assert (cx, cy) == ((b.min_x + b.max_x) / 2.0, (b.min_y + b.max_y) / 2.0)
            assert radius == max(hypot(x - cx, y - cy) for x, y in inst.polygon.exterior)

    def test_fn_dropout_rate(self):
        scene = base_scene()
        total = len(scene.detections)
        survivors = []
        for seed in range(30):
            out = perturb_scene(scene, PerturbationSpec(detection_fn_prob=0.5, seed=seed))
            survivors.append(len(out.detections))
        mean = sum(survivors) / len(survivors)
        assert 0.4 * total < mean < 0.6 * total

    def test_fp_insertion_uniform_over_canvas(self):
        scene = base_scene()
        out = perturb_scene(scene, PerturbationSpec(detection_fp_count=50, seed=4))
        added = [d for d in out.detections if d.id.startswith("fp-")]
        assert len(added) == 50
        x0, y0, x1, y1 = scene.metadata["canvas"]
        assert all(x0 <= d.point[0] <= x1 and y0 <= d.point[1] <= y1 for d in added)

    def test_jitter_moves_detections_without_clamping(self):
        instances = [mk_instance("g1", GLOMERULUS, square(100.0, 100.0, 6.0))]
        detections = [mk_detection(f"d{j}", 98.0 + j, 100.0) for j in range(4)]
        scene = SectionScene(
            section_id="jit",
            instances=instances,
            detections=detections,
            metadata={"canvas": [0, 0, 200, 200]},
        )
        out = perturb_scene(scene, PerturbationSpec(jitter_sigma=40.0, seed=8))
        assert all(
            o.point != d.point for o, d in zip(out.detections, detections)
        )
        # large jitter pushes cells out of the structure: counts may only drop
        assert score_section(out).g.per_instance[0][1] < 4

    def test_omission_only_never_raises_max_type_grades(self):
        scene = base_scene()
        base_report = score_section(scene)
        for seed in range(25):
            out = perturb_scene(
                scene,
                PerturbationSpec(
                    omit_instance_prob={PERITUBULAR_CAPILLARY: 0.5, ARTERY: 0.5}, seed=seed
                ),
            )
            report = score_section(out)
            for name in ("ptc", "v"):
                grade = report.grade(name)
                if not isinstance(grade, Unscorable):
                    assert grade <= base_report.grade(name)

    def test_fp_insertion_only_never_lowers_grades(self):
        scene = base_scene()
        base_report = score_section(scene)
        for seed in range(25):
            out = perturb_scene(scene, PerturbationSpec(detection_fp_count=40, seed=seed))
            report = score_section(out)
            for name in ("g", "ptc", "v"):
                assert report.grade(name) >= base_report.grade(name)

    def test_spec_validation_and_round_trip(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(detection_fn_prob=1.5)
        with pytest.raises(ConfigError):
            PerturbationSpec(omit_instance_prob={"tubule": 0.5})
        pspec = PerturbationSpec(
            omit_instance_prob={GLOMERULUS: 0.25},
            hallucinate_instances={ARTERY: HallucinationSpec(count=2, cells_per_instance=3)},
            detection_fn_prob=0.1,
            detection_fp_count=7,
            jitter_sigma=1.5,
            seed=23,
        )
        assert PerturbationSpec.from_dict(pspec.to_dict()) == pspec


numbers = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6))
probabilities = st.one_of(st.integers(0, 1), st.floats(0.0, 1.0))
radii = st.lists(st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e6)), min_size=2, max_size=2).map(sorted)
kinds = st.sampled_from([GLOMERULUS, PERITUBULAR_CAPILLARY, ARTERY])


class TestSpecDocuments:
    """One reader and one writer for scene and perturbation spec documents."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        omit=st.dictionaries(kinds, probabilities),
        hallucinate=st.dictionaries(
            kinds,
            st.builds(HallucinationSpec, count=st.integers(0, 9), cells_per_instance=st.integers(0, 9),
                      radius=st.one_of(st.none(), radii)),
        ),
        fn=probabilities,
        fp=st.integers(0, 10**6),
        fp_class=st.sampled_from(["lymphocyte", "monocyte", "other"]),
        sigma=numbers,
        seed=st.integers(-(2**70), 2**70),
    )
    def test_perturbation_spec_round_trips_through_json(self, omit, hallucinate, fn, fp, fp_class, sigma, seed):
        pspec = PerturbationSpec(omit, hallucinate, fn, fp, fp_class, sigma, seed)
        assert PerturbationSpec.from_dict(json.loads(json.dumps(pspec.to_dict()))) == pspec

    def test_none_radius_is_left_out(self):
        doc = PerturbationSpec(hallucinate_instances={ARTERY: HallucinationSpec(count=1)}).to_dict()
        assert doc["hallucinate_instances"] == {ARTERY: {"count": 1, "cells_per_instance": 0}}

    def test_scene_spec_round_trips_through_json(self):
        spec = SceneSpec("s", (0, 0, 500, 400), (5, 0), (3,), (), 10, (90, 150.5), seed=7)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert doc["canvas"] == [0, 0, 500, 400] and doc["glomerulus_radius"] == [90, 150.5]
        assert SceneSpec.from_dict(doc) == spec

    def test_an_entry_object_is_read_as_a_hallucination_spec(self):
        pspec = PerturbationSpec(hallucinate_instances={ARTERY: {"count": 2, "radius": [50, 60]}})
        assert pspec.hallucinate_instances == {ARTERY: HallucinationSpec(count=2, radius=(50.0, 60.0))}

    @pytest.mark.parametrize(
        "read, doc, message",
        [
            (SceneSpec.from_dict, [], "scene spec: expected a JSON object"),
            (SceneSpec.from_dict, {"bogus_knob": 1, "a": 2}, "scene spec: unknown keys ['a', 'bogus_knob']"),
            (PerturbationSpec.from_dict, "x", "perturbation spec: expected a JSON object"),
            (PerturbationSpec.from_dict, {"jitter": 1}, "perturbation spec: unknown keys ['jitter']"),
            (PerturbationSpec.from_dict, {"seed": 1.5}, "seed: expected an integer, got 1.5"),
            (PerturbationSpec.from_dict, {"hallucinate_instances": {ARTERY: 3}},
             "hallucinate_instances['artery']: expected a JSON object"),
            (PerturbationSpec.from_dict, {"hallucinate_instances": {ARTERY: {"count": 1, "size": 3}}},
             "hallucinate_instances['artery']: unknown keys ['size']"),
            (PerturbationSpec.from_dict, {"hallucinate_instances": {ARTERY: {"count": -1}}},
             "hallucinate_instances['artery'].count: expected an integer >= 0, got -1"),
            (PerturbationSpec.from_dict, {"hallucinate_instances": {ARTERY: {"radius": [5]}}},
             "hallucinate_instances['artery'].radius: expected [min, max] with 0 < min <= max, got [5]"),
            (PerturbationSpec.from_dict, {"hallucinate_instances": {"tubule": {}}},
             "hallucinate_instances: unknown structure kind 'tubule'"),
        ],
    )
    def test_bad_document_names_its_field(self, read, doc, message):
        with pytest.raises(ConfigError) as info:
            read(doc)
        assert str(info.value) == message


class TestTinyRadii:
    """A radius small against the canvas coordinates collapses or twists a
    ring when its vertices round to floats.  Placement checks every new ring
    as ``read_scene`` would, before any cell is planted."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        exponents=st.lists(
            st.one_of(st.floats(-300.0, 3.0), st.floats(-16.0, -10.0)), min_size=2, max_size=2
        ).map(sorted),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_fails_naming_the_instance_or_round_trips(self, exponents, seed):
        radius = (10.0 ** exponents[0], 10.0 ** exponents[1])
        spec = SceneSpec(
            canvas=(0, 0, 800, 800),
            glomerulus_cells=(3, 0),
            ptc_cells=(2,),
            background_cells=5,
            glomerulus_radius=radius,
            ptc_radius=radius,
            seed=seed,
        )
        hallucinate = {ARTERY: HallucinationSpec(count=2, cells_per_instance=2, radius=radius)}
        try:
            scene = perturb_scene(generate_scene(spec)[0], PerturbationSpec(hallucinate_instances=hallucinate))
        except PlacementFailure as exc:
            assert re.match(r"(glom|ptc|hall-artery)-\d+: |background cell \d+: ", str(exc)), str(exc)
            return
        data = write_scene(scene)
        assert write_scene(read_scene(data)) == data


def _outcome(generate, spec):
    try:
        return generate(spec)
    except PlacementFailure as exc:
        return f"PlacementFailure: {exc}"


# About 265 of its 665 background draws land inside an instance.
DENSE_BACKGROUND = SceneSpec(
    canvas=(0, 0, 700, 700),
    glomerulus_cells=(2, 0, 1, 3),
    ptc_cells=(1,) * 10,
    artery_cells=(0, 2),
    background_cells=400,
    seed=3,
)
# One glomerulus covers about half the canvas; its placement never retries.
CROWDED_BACKGROUND = SceneSpec(
    canvas=(0, 0, 700, 700), glomerulus_cells=(0,), glomerulus_radius=(300, 300), background_cells=400, seed=3
)


class TestAgainstPerObjectOracles:
    """The block-read background scan, the per-instance triangulation and the
    array-drawn FN/jitter stages give exactly the scenes of the per-object
    loops in ``tests/oracles.py``."""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(
            SceneSpec,
            canvas=st.tuples(
                st.integers(-300, 300), st.integers(-300, 300), st.integers(250, 1400), st.integers(250, 1400)
            ).map(lambda c: (c[0], c[1], c[0] + c[2] * 0.999, c[1] + c[3] * 1.001)),
            glomerulus_cells=st.lists(st.integers(0, 6), max_size=4).map(tuple),
            ptc_cells=st.lists(st.integers(0, 4), max_size=10).map(tuple),
            artery_cells=st.lists(st.integers(0, 4), max_size=3).map(tuple),
            background_cells=st.integers(0, 200),
            seed=st.integers(0, 2**64 - 1),
        )
    )
    def test_generate_scene_matches_all_instance_scan(self, spec):
        assert _outcome(generate_scene, spec) == _outcome(oracles.all_instance_scan_generate_scene, spec)

    def test_dense_background_matches_all_instance_scan(self):
        # About 265 of the 665 background draws on this canvas land inside an
        # instance and are redrawn.
        spec = SceneSpec(
            canvas=(0, 0, 700, 700),
            glomerulus_cells=(2, 0, 1, 3),
            ptc_cells=(1,) * 10,
            artery_cells=(0, 2),
            background_cells=400,
            seed=3,
        )
        scene, _ = generate_scene(spec)
        assert (scene, planted_grades(spec)) == oracles.all_instance_scan_generate_scene(spec)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_background_blocks_of_any_size_match_all_instance_scan(self, block, monkeypatch):
        # A block boundary may fall between an attempt and its cell's class
        # and confidence pair.
        monkeypatch.setattr(synth, "_BLOCK_PAIRS", block)
        spec = DENSE_BACKGROUND
        assert _outcome(generate_scene, spec) == _outcome(oracles.all_instance_scan_generate_scene, spec)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_background_failure_matches_all_instance_scan(self, block, monkeypatch):
        monkeypatch.setattr(synth, "_BLOCK_PAIRS", block)
        monkeypatch.setattr(synth, "_PLACEMENT_ATTEMPTS", 2)
        monkeypatch.setattr(oracles, "_PLACEMENT_ATTEMPTS", 2)
        spec = CROWDED_BACKGROUND
        outcome = _outcome(generate_scene, spec)
        assert outcome == _outcome(oracles.all_instance_scan_generate_scene, spec)
        assert re.fullmatch(r"PlacementFailure: background cell \d+: no free canvas space", outcome)

    def test_one_containment_call_per_background_block(self, monkeypatch):
        expected = write_scene(generate_scene(DENSE_BACKGROUND)[0])
        sizes = []

        def counting(index, xs, ys):
            sizes.append(len(xs))
            return contained_pairs(index, xs, ys)

        monkeypatch.setattr(synth, "_BLOCK_PAIRS", 64)
        monkeypatch.setattr(synth, "contained_pairs", counting)
        assert write_scene(generate_scene(DENSE_BACKGROUND)[0]) == expected
        # 665 attempts and 400 class and confidence pairs
        assert len(sizes) >= 1065 // 64 and max(sizes) <= 64 and sum(sizes) >= 1065

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        omit=st.floats(0.0, 1.0),
        hallucinated=st.integers(0, 2),
        fn=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        fp=st.integers(0, 20),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    )
    def test_perturb_scene_matches_scalar_loops(self, seed, omit, hallucinated, fn, fp, sigma):
        scene = base_scene()
        pspec = PerturbationSpec(
            omit_instance_prob={GLOMERULUS: omit, PERITUBULAR_CAPILLARY: omit},
            hallucinate_instances={ARTERY: HallucinationSpec(count=hallucinated, cells_per_instance=2)},
            detection_fn_prob=fn,
            detection_fp_count=fp,
            jitter_sigma=sigma,
            seed=seed,
        )
        # Each stage draws from its own stream, so the unchanged stages can run
        # on their own: omission and hallucination first, then FP insertion
        # into an empty copy of the result, which yields just the FPs.
        structural = perturb_scene(
            scene, replace(pspec, detection_fn_prob=0, detection_fp_count=0, jitter_sigma=0)
        )
        fps = perturb_scene(
            replace(structural, detections=[]), PerturbationSpec(detection_fp_count=fp, seed=seed)
        ).detections
        kept = oracles.scalar_fn_dropout(structural.detections, pspec)
        expected = oracles.scalar_jitter(list(kept) + list(fps), pspec)
        out = perturb_scene(scene, pspec)
        assert out.instances == structural.instances
        assert out.detections == expected


def _state_after(seed: int, doubles: int) -> dict:
    rng = np.random.default_rng(seed)
    rng.random(doubles)
    return rng.bit_generator.state


def _notched_ring(depth: float):
    """A non-convex hexagon: the fan from vertex 0 covers its notch, so
    points drawn in the fan land outside it and are redrawn."""
    return ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 10.0 - depth), (0.0, 10.0), (-0.5, 5.0))


class TestBlockPlanting:
    """``synth._plant`` draws cells in blocks with exactly the doubles, points
    and generator state of the one-cell loop, rejections included."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        depths=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=4),
        counts=st.lists(st.integers(0, 30), min_size=4, max_size=4),
        block=st.sampled_from([1, 2, 7, synth._BLOCK_PAIRS]),
    )
    def test_matches_one_cell_loop(self, seed, depths, counts, block):
        polygons = [synth.Polygon(exterior=_notched_ring(d)) for d in depths]
        counts = counts[:len(polygons)]
        ids = [f"c{k}" for k in range(sum(counts))]
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # a bounded integer draw leaves half of a 64-bit output buffered,
        # which the block path must keep across its rewinds
        assert rng.integers(12, 25) == expected_rng.integers(12, 25)
        original = synth._BLOCK_PAIRS
        synth._BLOCK_PAIRS = block
        try:
            cells = synth._plant(rng, polygons, counts, ids)
        finally:
            synth._BLOCK_PAIRS = original
        assert cells == oracles.per_cell_plant(expected_rng, polygons, counts, ids)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        assert rng.integers(0, 2**31, 3).tolist() == expected_rng.integers(0, 2**31, 3).tolist()

    def test_rejections_redraw_the_same_cell(self):
        polygons = [synth.Polygon(exterior=_notched_ring(8.0))]
        ids = [f"c{k}" for k in range(200)]
        rng, expected_rng = np.random.default_rng(9), np.random.default_rng(9)
        cells = synth._plant(rng, polygons, [200], ids)
        assert cells == oracles.per_cell_plant(expected_rng, polygons, [200], ids)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        # each cell reads 5 doubles and each rejected point 3 more; the notch
        # is about a fifth of the fan's area
        read = next(n for n in range(1000, 2000) if _state_after(9, n) == rng.bit_generator.state)
        assert (read - 1000) % 3 == 0 and 10 <= (read - 1000) // 3 <= 100

    @pytest.mark.parametrize(
        "script,fails",
        [
            pytest.param([0] * 100, True, id="100-rejections"),
            pytest.param([0] * 99 + [1] + [0] * 98 + [1], False, id="99-rejections-of-each-cell"),
        ],
    )
    def test_a_cells_100th_rejection_in_a_row_fails(self, monkeypatch, script, fails):
        # kernel call k accepts the first script[k] points of its block; the
        # second cell's first rejection comes with the first cell's acceptance
        calls = iter(script)
        monkeypatch.setattr(synth, "_contains", lambda edges, xs, ys, own: np.arange(xs.size) < next(calls))
        args = (np.random.default_rng(2), [synth.Polygon(exterior=square(0, 0, 5))], [2], ["a", "b"])
        if fails:
            with pytest.raises(PlacementFailure, match="interior sampling failed"):
                synth._plant(*args)
        else:
            assert len(synth._plant(*args)) == 2
        assert next(calls, None) is None

    def test_confidence_is_rounded_by_python_round(self):
        # the confidence double is just above 0.72345, so round, which rounds
        # the exact double, gives 0.7235; np.round scales by 10**4 first,
        # lands on the tie 7234.5 and rounds it to even, 0.7234
        u = (0.72345 - 0.6) / 0.4
        assert 0.6 + (1.0 - 0.6) * u == 0.72345
        cells = synth._cells(["c"], np.zeros(1), np.zeros(1), np.zeros(1), np.array([u]))
        assert cells.confidences.tolist() == [round(0.72345, 4)] == [0.7235]

    @pytest.mark.parametrize("seed", range(20))
    def test_choice_with_weights_is_a_searchsorted_of_one_double(self, seed):
        # _plant's triangle pick relies on this identity of numpy's Generator.choice
        picker = np.random.default_rng([seed, 1])
        weights = picker.random(int(picker.integers(1, 30))) ** 3
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            u = drawn.random()
            expected = int(cdf.searchsorted(u, side="right"))
            assert int(chosen.choice(len(weights), p=weights)) == expected
            assert np.count_nonzero(cdf <= u) == expected
        assert chosen.bit_generator.state == drawn.bit_generator.state


class TestFalsePositiveInsertion:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        corner=st.tuples(st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0)),
        size=st.tuples(st.floats(0.5, 5000.0), st.floats(0.5, 5000.0)),
        explicit_canvas=st.booleans(),
        count=st.integers(0, 40),
        cls=st.sampled_from(["lymphocyte", "monocyte", "other"]),
        cells=st.integers(0, 3),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_scalar_loop(self, corner, size, explicit_canvas, count, cls, cells, seed):
        (x0, y0), (w, h) = corner, size
        # without a canvas, the scene's padded bounding box is the canvas
        scene = SectionScene(
            section_id="fp",
            detections=[mk_detection(f"c{k}", x0 + k * w / 3, y0 + k * h / 3) for k in range(cells)],
            metadata={"canvas": [x0, y0, x0 + w, y0 + h]} if explicit_canvas else {},
        )
        pspec = PerturbationSpec(detection_fp_count=count, fp_cell_class=cls, seed=seed)
        expected = list(scene.detections) + oracles.scalar_fp_insertion(scene, pspec)
        assert perturb_scene(scene, pspec).detections == expected


class TestSensitivityRun:
    def test_zero_perturbation_never_flips(self):
        scene = base_scene()
        report = sensitivity_run(scene, PerturbationSpec(seed=1), trials=20)
        for name in ("g", "ptc", "v"):
            assert report.per_indicator[name].flip_rate == 0.0
            assert report.per_indicator[name].mean_abs_shift == 0.0
        assert sum(report.per_indicator["g"].histogram.values()) == 20

    def test_single_glomerulus_binomial_flip_rate(self):
        # One glomerulus holding four cells; each survives dropout with p=0.5,
        # so the grade moves iff at least one cell is dropped: 1 - 0.5^4.
        spec = SceneSpec(section_id="n1", glomerulus_cells=(4,), seed=33)
        scene, _ = generate_scene(spec)
        trials = 2000
        report = sensitivity_run(
            scene, PerturbationSpec(detection_fn_prob=0.5, seed=101), trials=trials
        )
        expected = 1.0 - 0.5**4
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(report.per_indicator["g"].flip_rate - expected) < 3.5 * sigma

    def test_ptc_dropout_distribution_matches_enumeration(self):
        # Exhaustive enumeration over the 2^5 dropout patterns of a 5-cell
        # capillary at p=0.5: ptc=2 iff none dropped (1/32), ptc=0 iff all
        # dropped (1/32), else ptc=1 (30/32).
        spec = SceneSpec(section_id="ptc5", ptc_cells=(5,), seed=44)
        scene, _ = generate_scene(spec)
        assert score_section(scene).grade("ptc") == 2
        trials = 3200
        report = sensitivity_run(
            scene, PerturbationSpec(detection_fn_prob=0.5, seed=202), trials=trials
        )
        hist = report.per_indicator["ptc"].histogram
        expected = {"0": 1 / 32, "1": 30 / 32, "2": 1 / 32}
        for key, p in expected.items():
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(hist[key] / trials - p) < 4 * sigma + 1e-9
        assert hist["3"] == 0 and hist["unscorable"] == 0
        flip = report.per_indicator["ptc"].flip_rate
        sigma = math.sqrt((31 / 32) * (1 / 32) / trials)
        assert abs(flip - 31 / 32) < 4 * sigma

    def test_trial_rows_do_not_depend_on_other_trials(self):
        scene = base_scene()
        pspec = PerturbationSpec(
            detection_fn_prob=0.4, detection_fp_count=3, jitter_sigma=1.0, seed=55
        )
        long = sensitivity_run(scene, pspec, trials=40)
        short = sensitivity_run(scene, pspec, trials=15)
        assert short.rows == long.rows[:15]
        for i in (39, 17, 0):
            tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
            alone = score_section(perturb_scene(scene, tspec))
            assert long.rows[i] == tuple(
                "unscorable" if isinstance(g, Unscorable) else str(g)
                for g in (alone.grade(name) for name in ("g", "ptc", "v"))
            )

    def test_flip_rate_counts_unscorable_transitions(self):
        scene = base_scene()
        report = sensitivity_run(
            scene,
            PerturbationSpec(omit_instance_prob={ARTERY: 1.0}, seed=5),
            trials=10,
        )
        v = report.per_indicator["v"]
        assert v.histogram["unscorable"] == 10
        assert v.flip_rate == 1.0
        assert v.mean_abs_shift is None

    def test_csv_rows(self):
        scene = base_scene()
        report = sensitivity_run(scene, PerturbationSpec(seed=1), trials=3)
        lines = report.to_csv().decode().strip().splitlines()
        assert lines[0] == "trial,g,ptc,v"
        assert lines[1] == "0,1,1,0"
        assert len(lines) == 4

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            sensitivity_run(base_scene(), PerturbationSpec(seed=1), trials=0)
