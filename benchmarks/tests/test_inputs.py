"""Self-test of the benchmark's input generator.

Run from the repository root:  python3 -m pytest -q benchmarks/tests

Every generated GeoJSON must pass the program's own ``parse_structures``,
and the planted counts must equal an exhaustive containment count that the
benchmark does on its own, so a benchmark check that fails points at the
program and not at its inputs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
from banffscore.ingest import parse_structures  # noqa: E402
from banffscore.synth import SceneSpec, planted_grades  # noqa: E402


def _scaled(shape: inputs.SectionShape, divisor: int) -> inputs.SectionShape:
    kinds = tuple(replace(k, count=max(1, k.count // divisor)) for k in shape.kinds)
    return replace(shape, kinds=kinds, true_cells=shape.true_cells // divisor)


CASES = {
    "biopsy": (inputs.BIOPSY, None),
    "slide-tenth": (_scaled(inputs.SLIDE, 10), inputs.DEDUP_RADIUS),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_counts_match_brute_force(case, seed):
    shape, dedup_radius = CASES[case]
    section = inputs.generate_section(shape, seed, f"{case}-{seed}")

    parsed = parse_structures(section.structures)
    assert len(parsed) == sum(k.count for k in shape.kinds)

    counts, outside, kept = inputs.brute_force_counts(
        section.structures, section.detections, dedup_radius
    )
    for kind, planted in section.planted.items():
        for iid, count in planted.items():
            assert counts[iid] == count, f"{iid}: planted {count}, contains {counts[iid]}"
    assert outside == section.n_background  # background cells lie outside every ring
    assert kept == section.n_kept - section.n_duplicates
    assert section.grades == inputs.grades_of(section.planted)


def test_slide_duplicates_are_close_and_less_confident():
    """Exactly the generated duplicates have a more confident same-class
    detection within half the dedup radius: true cells are farther apart."""
    section = inputs.generate_section(_scaled(inputs.SLIDE, 20), 5, "dups")
    points = json.loads(section.detections)["points"]
    duplicates = 0
    for name in (inputs.LYMPHOCYTE, inputs.MONOCYTE):
        same = [p for p in points if p["name"] == name and p["probability"] >= inputs.MIN_CONFIDENCE]
        xy = np.array([p["point"] for p in same])
        conf = np.array([p["probability"] for p in same])
        d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
        shadowed = (d <= inputs.DEDUP_RADIUS / 2) & (conf[None, :] > conf[:, None])
        duplicates += int(shadowed.any(axis=1).sum())
    assert duplicates == section.n_duplicates > 0


def test_same_seed_same_bytes():
    a = inputs.generate_section(inputs.BIOPSY, [7, 0], "s0")
    b = inputs.generate_section(inputs.BIOPSY, [7, 0], "s0")
    c = inputs.generate_section(inputs.BIOPSY, [7, 1], "s0")
    assert (a.structures, a.detections) == (b.structures, b.detections)
    assert a.detections != c.detections


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_robustness_spec_grades(seed):
    robust = inputs.generate_robustness(seed, "r")
    spec = SceneSpec.from_dict(json.loads(robust.scene_spec))
    expected = planted_grades(spec)
    assert robust.grades == {"g": expected.g, "ptc": expected.ptc, "v": expected.v}


def test_metric_names_match_benchmark_json():
    import run
    import tracing

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = tracing.layer_metrics(tracing.Tracer(), [])
    assert {m["name"] for m in doc["per_layer"]} == set(produced)
    for m in doc["per_layer"]:
        assert run._unit(m["name"]) == m["unit"], m["name"]
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "op_s_p50", "peak_rss_mb"}
