"""The CLI's ``score``, ``synth`` and ``sensitivity`` paths, rebuilt from the
public calls of each layer, with a span around every call.

Each path returns what the CLI writes (or the rows it writes), so the caller
can check that the decomposition does the same work as the program it
describes.  Provenance (the ``config`` block) is taken from the CLI's own
output, because it is not what is being timed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from banffscore.evaluation import accumulate, summarize
from banffscore.geometry import assign_detections, build_index
from banffscore.ingest import (
    canonical_json_bytes,
    dedup_detections,
    parse_detections,
    parse_ground_truth,
    parse_structures,
    read_scene,
    write_scene,
)
from banffscore.scoring import (
    ScoreReport,
    Unscorable,
    report_from_dict,
    report_to_json,
    score_g,
    score_ptc,
    score_v,
)
from banffscore.seeds import derive_seed
from banffscore.synth import PerturbationSpec, SceneSpec, generate_scene, perturb_scene

from inputs import ARTERY, GLOMERULUS, LYMPHOCYTE, MIN_CONFIDENCE, MONOCYTE, PTC, SCORABLE
from tracing import Tracer

CELL_KINDS = (LYMPHOCYTE, MONOCYTE)


def _count_geometry(tr: Tracer, detections, scorable, table) -> None:
    """(point, bbox) candidates and ring-edge tests, by a sort on x that does
    not depend on how the program's index narrows the search."""
    xs = np.fromiter((d.point[0] for d in detections), dtype=np.float64, count=len(detections))
    ys = np.fromiter((d.point[1] for d in detections), dtype=np.float64, count=len(detections))
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    candidates = edge_tests = 0
    for inst in scorable:
        b = inst.polygon.bounds
        lo = np.searchsorted(xs, b.min_x, side="left")
        hi = np.searchsorted(xs, b.max_x, side="right")
        y = ys[lo:hi]
        n = int(np.count_nonzero((y >= b.min_y) & (y <= b.max_y)))
        candidates += n
        edge_tests += n * (len(inst.polygon.exterior) + sum(len(h) for h in inst.polygon.holes))
    contained = sum(table.counts.values())
    assigned = len(detections) - len(table.unassigned)
    tr.sample("geometry.bbox_candidates", candidates)
    tr.sample("geometry.edge_tests", edge_tests)
    tr.sample("geometry.contained", contained)
    tr.sample("geometry.assigned", assigned)
    tr.sample("geometry.unassigned", len(table.unassigned))
    tr.sample("geometry.multi_assigned", contained - assigned)


def score_section(tr: Tracer, instances, detections, dedup_radius: Optional[float]):
    """``scoring.score_section`` call by call: filter, dedup, index, assign,
    grade.  Returns (g, ptc, v details, per-instance counts)."""
    with tr.span("scoring.score_section"):
        kept = [d for d in detections if d.cls.kind in CELL_KINDS and d.confidence >= MIN_CONFIDENCE]
        deduped = kept
        if dedup_radius is not None:
            with tr.span("ingest.dedup_detections"):
                deduped = dedup_detections(kept, dedup_radius)
        scorable = [inst for inst in instances if inst.cls.kind in SCORABLE]
        with tr.span("geometry.build_index"):
            index = build_index(scorable)
        with tr.span("geometry.assign_detections"):
            table = assign_detections(deduped, scorable, index)
        with tr.span("scoring.grade"):
            by_kind: Dict[str, Dict[str, int]] = {kind: {} for kind in SCORABLE}
            for inst in scorable:
                by_kind[inst.cls.kind][inst.id] = table.counts[inst.id]
            details = (score_g(by_kind[GLOMERULUS]), score_ptc(by_kind[PTC]), score_v(by_kind[ARTERY]))
        with tr.span("bench.count"):
            tr.sample("scoring.read", len(detections))
            tr.sample("scoring.kept", len(kept))
            if dedup_radius is not None:
                tr.sample("ingest.dedup_in", len(kept))
                tr.sample("ingest.dedup_out", len(deduped))
            _count_geometry(tr, deduped, scorable, table)
    return details, by_kind


def score(
    tr: Tracer, structures: Path, detections: Path, out: Path, section_id: str,
    dedup_radius: Optional[float], config: dict,
) -> Tuple[bytes, Dict[str, Dict[str, int]]]:
    """The ``score`` subcommand; returns the report bytes and the counts."""
    with tr.span("cli.score"):
        structures_data = structures.read_bytes()
        detections_data = detections.read_bytes()
        with tr.span("ingest.parse_structures"):
            instances = parse_structures(structures_data)
        with tr.span("ingest.parse_detections"):
            points = parse_detections(detections_data, min_confidence=0.0, classes=None)
        (g, ptc, v), counts = score_section(tr, instances, points, dedup_radius)
        with tr.span("scoring.report_to_json"):
            doc = report_to_json(ScoreReport(section_id=section_id, g=g, ptc=ptc, v=v, config=config))
        out.write_bytes(doc)
        with tr.span("bench.count"):
            tr.sample("ingest.ring_vertices", sum(
                len(i.polygon.exterior) + sum(len(h) for h in i.polygon.holes) for i in instances
            ))
            tr.sample("ingest.detections_read", len(points))
            tr.sample("scoring.report_bytes", len(doc))
            tr.sample("cli.bytes_written", len(doc))
    return doc, counts


def synth(tr: Tracer, spec: Path, out_dir: Path, config: dict) -> Tuple[bytes, bytes]:
    """The ``synth`` subcommand; returns the scene and ground-truth bytes."""
    with tr.span("cli.synth"):
        scene_spec = SceneSpec.from_dict(json.loads(spec.read_bytes()))
        with tr.span("synth.generate_scene"):
            scene, gt = generate_scene(scene_spec)
        scene.metadata["config"] = config
        with tr.span("ingest.write_scene"):
            scene_doc = write_scene(scene)
        props = {"section_id": gt.section_id}
        props.update({f"banff_{k}": getattr(gt, k) for k in ("g", "ptc", "v") if getattr(gt, k) is not None})
        with tr.span("ingest.canonical_json_bytes"):
            gt_doc = canonical_json_bytes({"type": "FeatureCollection", "features": [], "properties": props})
        (out_dir / f"{scene_spec.section_id}.scene.json").write_bytes(scene_doc)
        (out_dir / f"{scene_spec.section_id}.gt.geojson").write_bytes(gt_doc)
        with tr.span("bench.count"):
            tr.sample("ingest.scene_bytes", len(scene_doc))
            tr.sample("cli.bytes_written", len(scene_doc) + len(gt_doc))
    return scene_doc, gt_doc


def _grade_key(detail) -> str:
    return "unscorable" if isinstance(detail, Unscorable) else str(detail.grade)


def sensitivity(
    tr: Tracer, scene_path: Path, perturb: Path, trials: int, out: Path
) -> Tuple[Tuple[str, str, str], List[Tuple[str, str, str]], Dict[str, Dict[str, int]]]:
    """The ``sensitivity`` subcommand: ``derive_seed`` -> ``perturb_scene`` ->
    ``score_section`` per trial.  Returns the baseline grades, the per-trial
    rows and the baseline counts."""
    with tr.span("cli.sensitivity"):
        data = scene_path.read_bytes()
        with tr.span("ingest.read_scene"):
            scene = read_scene(data)
        pspec = PerturbationSpec.from_dict(json.loads(perturb.read_bytes()))
        with tr.span("synth.sensitivity_run"):
            details, counts = score_section(tr, scene.instances, scene.detections, None)
            baseline = tuple(_grade_key(d) for d in details)
            rows = []
            for i in range(trials):
                with tr.span("synth.trial"):
                    tspec = replace(pspec, seed=derive_seed(pspec.seed, f"trial:{i}"))
                    with tr.span("synth.perturb_scene"):
                        perturbed = perturb_scene(scene, tspec)
                    details, _ = score_section(tr, perturbed.instances, perturbed.detections, None)
                    rows.append(tuple(_grade_key(d) for d in details))
                tr.sample("synth.trial_detections", len(perturbed.detections))
        text = "trial,g,ptc,v\n" + "".join(f"{i},{','.join(r)}\n" for i, r in enumerate(rows))
        out.write_bytes(text.encode("utf-8"))
        tr.sample("cli.bytes_written", len(text))
    return baseline, rows, counts


def evaluate(tr: Tracer, pairs: Sequence[Tuple[Path, Path]]):
    """Confusion matrices of report grades against ground truth, per
    indicator, from the report and ground-truth files as ``evaluate`` reads them."""
    with tr.span("evaluation.evaluate"):
        graded: Dict[str, list] = {"g": [], "ptc": [], "v": []}
        for report_path, gt_path in pairs:
            report = report_from_dict(json.loads(report_path.read_bytes()))
            gt = parse_ground_truth(gt_path.read_bytes())
            for name in graded:
                graded[name].append((report.grade(name), getattr(gt, name)))
        matrices = {name: accumulate(graded[name], name) for name in graded}
        for matrix in matrices.values():
            if matrix.n_sections:
                summarize(matrix)
    return matrices
