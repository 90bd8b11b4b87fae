"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here; timed criteria assert their budgets.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from banffscore.cli import main
from banffscore.config import RunConfig
from banffscore.evaluation import accumulate, summarize
from banffscore.geometry import assign_detections, build_index
from banffscore.model import ARTERY, GLOMERULUS, PERITUBULAR_CAPILLARY, SectionScene
from banffscore.scoring import (
    Unscorable,
    report_to_json,
    score_g,
    score_ptc,
    score_section,
    score_v,
)
from banffscore.seeds import derive_seed
from banffscore.synth import (
    HallucinationSpec,
    PerturbationSpec,
    SceneSpec,
    generate_scene,
    perturb_scene,
    sensitivity_run,
)

from conftest import random_assignment_scene
from oracles import brute_assign_table, g_band, max_count_band


def _passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def _grade_or_none(value):
    return None if isinstance(value, Unscorable) else value


def test_01_glomerulitis_band_sweep():
    start = time.perf_counter()
    for i in range(201):
        counts = {f"i{k}": (4 if k < i else 0) for k in range(200)}
        detail = score_g(counts)
        assert detail.inflamed_fraction == Fraction(i, 200)
        assert detail.grade == g_band(i, 200), f"rho={i}/200"
    assert score_g({f"i{k}": (4 if k < 50 else 0) for k in range(200)}).grade == 2  # rho = 1/4
    assert score_g({f"i{k}": (4 if k < 100 else 0) for k in range(200)}).grade == 2  # rho = 1/2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"band sweep took {elapsed:.3f}s"
    _passed(1, f"g band sweep over rho=i/200 exact, 1/4->2 and 1/2->2 ({elapsed:.3f}s)")


def test_02_max_count_band_sweeps():
    start = time.perf_counter()
    for n in range(101):
        assert score_ptc({"t": n}).grade == max_count_band(n), f"ptc count {n}"
        assert score_v({"a": n}).grade == max_count_band(n), f"v count {n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"count sweep took {elapsed:.3f}s"
    _passed(2, f"ptc/v band sweep over counts 0..100 exact ({elapsed:.3f}s)")


def test_03_more_than_three_threshold():
    base = SceneSpec(
        section_id="thresh",
        glomerulus_cells=(3, 3, 3, 3),
        ptc_cells=(0,),
        artery_cells=(0,),
        seed=301,
    )
    scene, _ = generate_scene(base)
    assert score_section(scene).grade("g") == 0
    for k in range(4):
        counts = [3, 3, 3, 3]
        counts[k] = 4
        bumped, _ = generate_scene(
            SceneSpec(
                section_id="thresh",
                glomerulus_cells=tuple(counts),
                ptc_cells=(0,),
                artery_cells=(0,),
                seed=301 + k,
            )
        )
        assert score_section(bumped).grade("g") >= 1
    _passed(3, "3 cells per glomerulus scores g=0; any glomerulus at 4 scores g>=1")


def test_04_spatial_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(40_40)
    checked = 0
    for scene_idx in range(100):
        if scene_idx < 5:
            n_inst, n_det = 200, 50_000
        elif scene_idx < 25:
            n_inst = int(rng.integers(80, 140))
            n_det = int(rng.integers(10_000, 20_000))
        else:
            n_inst = int(rng.integers(20, 60))
            n_det = int(rng.integers(2_000, 6_000))
        instances, detections = random_assignment_scene(
            seed=4000 + scene_idx, n_instances=n_inst, n_detections=n_det
        )
        table = assign_detections(detections, instances, build_index(instances))
        oracle = brute_assign_table(detections, instances)
        assert table == oracle, f"scene {scene_idx} diverged from the brute-force oracle"
        checked += n_det
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence suite took {elapsed:.1f}s"
    _passed(4, f"100 scenes / {checked} detections match brute force exactly ({elapsed:.1f}s)")


def test_04_oracle_box_skip_changes_no_answer():
    # test_04's oracle skips, per polygon, the points outside the box of its
    # exterior; on test_04's first 5 scenes, testing every point agrees
    for scene_idx in range(5):
        instances, detections = random_assignment_scene(
            seed=4000 + scene_idx, n_instances=200, n_detections=50_000
        )
        oracle = brute_assign_table(detections, instances)
        assert brute_assign_table(detections, instances, prune=False) == oracle, f"scene {scene_idx}"


_SELF_CONSISTENCY_PATTERNS = (
    dict(glomerulus_cells=(0, 0, 0, 0, 0), ptc_cells=(0, 0), artery_cells=(0, 0)),
    dict(glomerulus_cells=(5, 0, 0, 0, 0, 0, 0, 0), ptc_cells=(3, 0, 0), artery_cells=(0, 0)),
    dict(glomerulus_cells=(4, 4, 3, 0, 0, 0, 0, 0), ptc_cells=(7, 1), artery_cells=(2, 0)),
    dict(glomerulus_cells=(4, 4, 4, 4, 4, 0, 0, 0), ptc_cells=(12, 0), artery_cells=(15, 1)),
    dict(glomerulus_cells=(6, 5, 4, 4, 0), ptc_cells=(11,), artery_cells=(6,)),
    dict(glomerulus_cells=(), ptc_cells=(4, 4), artery_cells=()),  # unscorable g and v
)


def test_05_generator_self_consistency():
    for seed in range(100):
        pattern = _SELF_CONSISTENCY_PATTERNS[seed % len(_SELF_CONSISTENCY_PATTERNS)]
        spec = SceneSpec(section_id=f"sc-{seed}", background_cells=40, seed=seed, **pattern)
        scene, gt = generate_scene(spec)
        report = score_section(scene)
        for name in ("g", "ptc", "v"):
            assert _grade_or_none(report.grade(name)) == getattr(gt, name), (
                f"seed {seed}: {name} diverged from planted grades"
            )
    _passed(5, "100 seeds: full pipeline reproduces planted grades for g, ptc, v")


def test_06_structural_omission_replication():
    spec = SceneSpec(
        section_id="omit",
        glomerulus_cells=(0, 0, 0),
        ptc_cells=(3, 0, 0),
        artery_cells=(0,),
        background_cells=20,
        seed=606,
    )
    scene, gt = generate_scene(spec)
    assert gt.ptc == 1
    assert score_section(scene).grade("ptc") == 1
    omitted = SectionScene(
        section_id=scene.section_id,
        instances=[inst for inst in scene.instances if inst.id != "ptc-1"],
        detections=scene.detections,
        metadata=scene.metadata,
    )
    assert score_section(omitted).grade("ptc") == 0
    _passed(6, "omitting the sole inflamed capillary flips ptc 1 -> 0")


def test_07_structural_hallucination_replication():
    spec = SceneSpec(
        section_id="halluc",
        glomerulus_cells=(0, 0),
        ptc_cells=(0,),
        artery_cells=(0, 0),
        background_cells=20,
        seed=707,
    )
    scene, gt = generate_scene(spec)
    assert gt.v == 0
    assert score_section(scene).grade("v") == 0
    pspec = PerturbationSpec(
        hallucinate_instances={ARTERY: HallucinationSpec(count=1, cells_per_instance=1)},
        seed=708,
    )
    assert score_section(perturb_scene(scene, pspec)).grade("v") == 1
    _passed(7, "one hallucinated artery holding one detection flips v 0 -> 1")


def test_08_boundary_flip_rate():
    spec = SceneSpec(
        section_id="edge",
        glomerulus_cells=(4, 0, 0, 0, 0),
        ptc_cells=(0,),
        artery_cells=(0,),
        seed=808,
    )
    scene, _ = generate_scene(spec)
    assert score_section(scene).grade("g") == 1
    cells = [d for d in scene.detections if d.id.startswith("cell-")]
    assert len(cells) == 4
    for drop in cells:
        reduced = SectionScene(
            section_id=scene.section_id,
            instances=scene.instances,
            detections=[d for d in scene.detections if d.id != drop.id],
            metadata=scene.metadata,
        )
        assert score_section(reduced).grade("g") == 0, f"removing {drop.id} did not flip g"
    trials = 10_000
    report = sensitivity_run(
        scene, PerturbationSpec(detection_fn_prob=0.5, seed=809), trials=trials
    )
    flip = report.per_indicator["g"].flip_rate
    expected = 1.0 - 0.5**4  # = 0.9375
    assert abs(flip - expected) < 0.01, f"flip rate {flip} vs {expected}"
    _passed(8, f"every single-cell removal flips g 1->0; measured flip rate {flip:.4f} ~ 0.9375")


_BATCH_G = {0: (3, 0, 0, 0, 0, 0, 0, 0), 1: (5, 0, 0, 0, 0, 0, 0, 0),
            2: (4, 4, 3, 0, 0, 0, 0, 0), 3: (4, 4, 4, 4, 4, 0, 0, 0)}
_BATCH_PTC = {0: (0, 0, 0), 1: (3, 0, 0), 2: (7, 0, 0), 3: (12, 0, 0)}
_BATCH_V = {0: (0, 0), 1: (2, 0), 2: (6, 0), 3: (15, 0)}


def test_09_zero_noise_end_to_end_evaluation():
    pairs = {"g": [], "ptc": [], "v": []}
    for i in range(30):
        spec = SceneSpec(
            section_id=f"batch-{i}",
            glomerulus_cells=_BATCH_G[i % 4],
            ptc_cells=_BATCH_PTC[(i + 1) % 4],
            artery_cells=_BATCH_V[(i + 2) % 4],
            background_cells=30,
            seed=900 + i,
        )
        scene, gt = generate_scene(spec)
        report = score_section(scene)
        for name in ("g", "ptc", "v"):
            pairs[name].append((report.grade(name), getattr(gt, name)))
    for name in ("g", "ptc", "v"):
        matrix = accumulate(pairs[name], name)
        assert matrix.excluded == 0
        assert matrix.n_sections == 30
        for row in range(4):
            for col in range(4):
                if row != col:
                    assert matrix.cells[row][col] == 0, f"{name} off-diagonal at {row},{col}"
        summary = summarize(matrix)
        assert summary.exact_agreement == 1.0
        assert summary.quadratic_weighted_kappa == 1.0
    _passed(9, "30-section zero-noise batch: diagonal matrices, exact=1.0, kappa=1.0 for g/ptc/v")


def test_10_determinism(tmp_path):
    spec_doc = {
        "section_id": "det",
        "glomerulus_cells": [5, 0, 0, 0, 0],
        "ptc_cells": [3, 0],
        "artery_cells": [1, 0],
        "background_cells": 25,
        "seed": 1010,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    pspec_path = tmp_path / "p.json"
    pspec_path.write_text(json.dumps({"detection_fn_prob": 0.4, "jitter_sigma": 1.0, "seed": 3}))
    produced = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 0
        scene_file = out / "det.scene.json"
        assert (
            main(
                [
                    "sensitivity",
                    "--scene",
                    str(scene_file),
                    "--perturb",
                    str(pspec_path),
                    "--trials",
                    "50",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        assert main(["render", "--scene", str(scene_file), "--out-dir", str(out)]) == 0
        produced.append(
            tuple(
                (out / name).read_bytes()
                for name in (
                    "det.scene.json",
                    "det.gt.geojson",
                    "det.sensitivity.json",
                    "det.sensitivity.csv",
                    "det.scene.svg",
                )
            )
        )
    assert produced[0] == produced[1], "re-running commands changed output bytes"
    scene, _ = generate_scene(SceneSpec.from_dict(spec_doc))
    pspec = PerturbationSpec(detection_fn_prob=0.4, jitter_sigma=1.0, seed=3)
    full = sensitivity_run(scene, pspec, trials=200)
    for i in reversed(range(200)):
        tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
        alone = score_section(perturb_scene(scene, tspec))
        assert full.rows[i] == tuple(
            "unscorable" if isinstance(g, Unscorable) else str(g)
            for g in (alone.grade(name) for name in ("g", "ptc", "v"))
        ), f"trial {i} depends on the trials around it"
    assert sensitivity_run(scene, pspec, trials=40).rows == full.rows[:40]
    _passed(10, "identical inputs give byte-identical files; each trial is independent of order and subset")


def _transformed(scene: SectionScene, fx, fy) -> SectionScene:
    from banffscore.geometry import Polygon
    from banffscore.model import Detection, Instance

    instances = [
        Instance(
            id=i.id,
            cls=i.cls,
            polygon=Polygon(
                exterior=tuple((fx(x), fy(y)) for x, y in i.polygon.exterior),
                holes=tuple(tuple((fx(x), fy(y)) for x, y in h) for h in i.polygon.holes),
            ),
            properties=dict(i.properties),
        )
        for i in scene.instances
    ]
    detections = [
        Detection(id=d.id, point=(fx(d.point[0]), fy(d.point[1])), cls=d.cls, confidence=d.confidence)
        for d in scene.detections
    ]
    return SectionScene(section_id=scene.section_id, instances=instances, detections=detections)


def _grades(report):
    return tuple(_grade_or_none(report.grade(name)) for name in ("g", "ptc", "v"))


def test_11_invariance_suite():
    rng = np.random.default_rng(1111)
    for seed in range(10):
        pattern = _SELF_CONSISTENCY_PATTERNS[seed % len(_SELF_CONSISTENCY_PATTERNS)]
        spec = SceneSpec(section_id=f"inv-{seed}", background_cells=30, seed=1100 + seed, **pattern)
        scene, _ = generate_scene(spec)
        base_report = score_section(scene)
        base = _grades(base_report)
        moved = _transformed(scene, lambda x: x + 1337.5, lambda y: y - 2048.25)
        assert _grades(score_section(moved)) == base, f"seed {seed}: translation changed a grade"
        for s in (2.0, 0.5, 3.0):
            scaled = _transformed(scene, lambda x: x * s, lambda y: y * s)
            assert _grades(score_section(scaled)) == base, f"seed {seed}: scale {s} changed a grade"
        inst_order = rng.permutation(len(scene.instances))
        det_order = rng.permutation(len(scene.detections))
        rows = list(scene.detections)
        shuffled = SectionScene(
            section_id=scene.section_id,
            instances=[scene.instances[j] for j in inst_order],
            detections=[rows[j] for j in det_order],
        )
        assert report_to_json(score_section(shuffled)) == report_to_json(
            score_section(
                SectionScene(
                    section_id=scene.section_id,
                    instances=scene.instances,
                    detections=scene.detections,
                )
            )
        ), f"seed {seed}: permutation changed the report"
    _passed(11, "translation, x2/x0.5/x3 scaling, and permutations leave every grade unchanged")


def test_12_monotonicity_suite():
    rng = np.random.default_rng(1212)
    config = RunConfig(min_confidence=0.0)

    addition_cases = 0
    removal_cases = 0
    for scene_idx in range(25):
        spec = SceneSpec(
            section_id=f"mono-{scene_idx}",
            glomerulus_cells=tuple(int(c) for c in rng.integers(0, 7, size=5)),
            ptc_cells=tuple(int(c) for c in rng.integers(0, 13, size=4)),
            artery_cells=tuple(int(c) for c in rng.integers(0, 13, size=3)),
            background_cells=10,
            seed=1200 + scene_idx,
        )
        scene, _ = generate_scene(spec)
        base = _grades(score_section(scene, config))

        from banffscore.model import LYMPHOCYTE, CellClass, Detection, DetectionTable

        for case in range(40):  # 25 scenes x 40 = 1000 added-detection cases
            x = float(rng.uniform(0.0, 4096.0))
            y = float(rng.uniform(0.0, 4096.0))
            grown = SectionScene(
                section_id=scene.section_id,
                instances=scene.instances,
                detections=scene.detections
                + DetectionTable.from_rows([Detection(id="extra", point=(x, y), cls=CellClass(LYMPHOCYTE))]),
            )
            got = _grades(score_section(grown, config))
            for before, after in zip(base, got):
                if before is not None:
                    assert after >= before, f"adding a detection lowered a grade ({scene_idx})"
            addition_cases += 1

        removable = [
            inst.id
            for inst in scene.instances
            if inst.cls.kind in (PERITUBULAR_CAPILLARY, ARTERY)
        ]
        base_ptc, base_v = base[1], base[2]
        for case in range(40):  # 25 scenes x 40 = 1000 removal cases
            victim = removable[int(rng.integers(0, len(removable)))]
            reduced = SectionScene(
                section_id=scene.section_id,
                instances=[inst for inst in scene.instances if inst.id != victim],
                detections=scene.detections,
            )
            report = score_section(reduced, config)
            ptc, v = report.grade("ptc"), report.grade("v")
            if not isinstance(ptc, Unscorable):
                assert ptc <= base_ptc, f"removing {victim} raised ptc"
            if not isinstance(v, Unscorable):
                assert v <= base_v, f"removing {victim} raised v"
            removal_cases += 1
    assert addition_cases == 1000 and removal_cases == 1000

    # documented counterexample: dropping an uninflamed glomerulus CAN raise g
    spec = SceneSpec(
        section_id="asym", glomerulus_cells=(4, 0, 0, 0, 0), ptc_cells=(0,), artery_cells=(0,),
        seed=1299,
    )
    scene, _ = generate_scene(spec)
    assert score_section(scene).grade("g") == 1
    quiet = next(
        inst.id
        for inst in scene.instances
        if inst.cls.kind == GLOMERULUS and inst.id != "glom-1"
    )
    reduced = SectionScene(
        section_id=scene.section_id,
        instances=[inst for inst in scene.instances if inst.id != quiet],
        detections=scene.detections,
    )
    assert score_section(reduced).grade("g") == 2  # 1/4 of glomeruli now inflamed
    _passed(12, "1000 additions never lower grades; 1000 removals never raise ptc/v; g asymmetry holds")
